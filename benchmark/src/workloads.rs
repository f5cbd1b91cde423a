//! The benchmark's workload table: which SGF templates run over which
//! data, storage backend and memory budget — and why each row exists.
//!
//! Templates are the paper's Table 2 (A1, A3, B1) and Figure 6 (C1–C4)
//! queries, kept here as SGF text so the benchmark depends on nothing
//! but the parser. Later issues refer to workloads by these names.

use gumbo::prelude::{parse_program, DataSpec, Database, SgfQuery};

/// Client threads, each with one persistent connection (closed loop).
pub const CLIENTS: usize = 2;
/// Dispatcher threads of the server (`--inflight`).
pub const DISPATCHERS: usize = 2;
/// Concurrent jobs per query (`--max-jobs`).
pub const MAX_JOBS: usize = 2;
/// The runtime every workload runs on (`--executor`).
pub const EXECUTOR: &str = "parallel:2";
/// Fraction of conditional tuples that match the guard.
pub const SELECTIVITY: f64 = 0.5;

/// Where the base relations and every committed output live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// In-memory `SimDfs`.
    Sim,
    /// Durable `FileDfs` with a block cache of this many bytes.
    File { cache_bytes: u64 },
}

/// One workload: a traffic mix of SGF templates over generated data.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: the layer this workload stresses and what it bypasses.
    pub why: &'static str,
    /// `(template id, SGF text)`; clients rotate through them.
    pub templates: &'static [(&'static str, &'static str)],
    /// Tuples per generated relation.
    pub tuples: usize,
    pub storage: Storage,
    /// Shuffle memory budget shared by both in-flight queries.
    pub mem_budget: Option<u64>,
}

const A1: (&str, &str) = (
    "A1",
    "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);",
);
const A3: (&str, &str) = (
    "A3",
    "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND T(x) AND U(x) AND V(x);",
);
const B1: (&str, &str) = (
    "B1",
    "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE \
     S(x) AND T(x) AND U(x) AND V(x) AND S(y) AND T(y) AND U(y) AND V(y) AND \
     S(z) AND T(z) AND U(z) AND V(z) AND S(w) AND T(w) AND U(w) AND V(w);",
);
const C1: (&str, &str) = (
    "C1",
    "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);\n\
     Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);\n\
     Z3 := SELECT x FROM G(x, y, z, w) WHERE Z1(z) OR Z1(w);\n\
     Z4 := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);\n\
     Z5 := SELECT x FROM H(x, y, z, w) WHERE Z4(z) OR Z4(w);",
);
const C2: (&str, &str) = (
    "C2",
    "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);\n\
     Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);\n\
     Z3 := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);\n\
     Z4 := SELECT (x, y, z, w) FROM G(x, y, z, w) WHERE Z1(x) AND Z1(y);\n\
     Z5 := SELECT (x, y, z, w) FROM H(x, y, z, w) WHERE Z2(x) AND Z2(y);\n\
     Z6 := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE Z3(x) AND Z3(y);",
);
const C3: (&str, &str) = (
    "C3",
    "Z11 := SELECT z FROM R(x, y, z, w) WHERE S(x) AND T(y);\n\
     Z12 := SELECT z FROM R(x, y, z, w) WHERE T(y);\n\
     Z13 := SELECT z FROM I(x, y, z, w) WHERE NOT S(w);\n\
     Z21 := SELECT z FROM G(x, y, z, w) WHERE Z11(x) AND U(y);\n\
     Z22 := SELECT z FROM H(x, y, z, w) WHERE U(y) OR V(y) AND Z12(x);\n\
     Z23 := SELECT z FROM R(x, y, z, w) WHERE U(x) AND T(y) AND V(z) AND Z13(w);\n\
     Z31 := SELECT z FROM I(x, y, z, w) WHERE Z22(x) AND T(x) AND V(y);",
);
const C4: (&str, &str) = (
    "C4",
    "Z11 := SELECT y FROM R(x, y, z, w) WHERE S(x) OR T(y);\n\
     Z12 := SELECT y FROM R(x, y, z, w) WHERE U(z) OR S(x);\n\
     Z13 := SELECT y FROM G(x, y, z, w) WHERE U(x) OR V(y);\n\
     Z14 := SELECT y FROM G(x, y, z, w) WHERE S(z) OR U(x);\n\
     Z21 := SELECT (x, y, z, w) FROM H(x, y, z, w) \
     WHERE Z11(x) OR Z12(y) OR Z13(z) OR Z14(w);",
);

/// The five workloads. `flat_shuffle`, `file_warm` and `file_cold` run
/// the same queries over the same data so that they can be differenced:
/// only the storage backend and its cache size change between them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "flat_shuffle",
        why: "A1+A3 on in-memory storage: mr map/shuffle/reduce is almost all of the latency; the reference the file_* workloads are differenced against",
        templates: &[A1, A3],
        tuples: 8_000,
        storage: Storage::Sim,
        mem_budget: None,
    },
    Workload {
        name: "nested_small",
        why: "C1-C4 (5-7 subqueries, 3 levels, ~6.5 jobs per query) on 2 000-tuple inputs: the number of jobs, not data volume, sets the latency; parse, planning and submit stay under 5 ms",
        templates: &[C1, C2, C3, C4],
        tuples: 2_000,
        storage: Storage::Sim,
        mem_budget: None,
    },
    Workload {
        name: "spill_budgeted",
        why: "B1 (16 semi-joins) under a 512 KiB shuffle budget shared by both in-flight queries: two thirds of the shuffle goes through ~20 spill runs per query; a shuffle gain that costs this path shows here",
        templates: &[B1],
        tuples: 4_000,
        storage: Storage::Sim,
        mem_budget: Some(512 * 1024),
    },
    Workload {
        name: "file_warm",
        why: "flat_shuffle's queries and data on the durable backend with a cache that fits: segment decode, commit with fsync and peek; cache hits",
        templates: &[A1, A3],
        tuples: 8_000,
        storage: Storage::File {
            cache_bytes: gumbo::prelude::DEFAULT_CACHE_BYTES,
        },
        mem_budget: None,
    },
    Workload {
        name: "file_cold",
        why: "file_warm with a 64 KiB block cache far below the working set: miss/evict/read path; cache-policy work moves this and must leave file_warm alone",
        templates: &[A1, A3],
        tuples: 8_000,
        storage: Storage::File {
            cache_bytes: 64 * 1024,
        },
        mem_budget: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generated database: guards `R,G,H,I` (arity 4) and
    /// conditionals `S,T,U,V` (arity 1). Same seed, same data.
    pub fn database(&self, seed: u64) -> Database {
        DataSpec::new(
            &[("R", 4), ("G", 4), ("H", 4), ("I", 4)],
            &[("S", 1), ("T", 1), ("U", 1), ("V", 1)],
        )
        .with_tuples(self.tuples)
        .with_selectivity(SELECTIVITY)
        .database(seed)
    }

    /// Every template as `client` submits it (see [`for_client`]).
    pub fn client_templates(&self, client: usize) -> Vec<(String, SgfQuery)> {
        self.templates
            .iter()
            .map(|(id, sgf)| {
                let text = for_client(sgf, client);
                let query = parse_program(&text)
                    .unwrap_or_else(|e| panic!("template {id} for client {client}: {e}"));
                (text, query)
            })
            .collect()
    }
}

/// The name `client` gives a relation its programs define.
pub fn client_name(relation: &str, client: usize) -> String {
    format!("{relation}_c{client}")
}

/// Suffix every relation the program *defines* (final output and
/// intermediates, wherever they occur) with `_c<client>`, so concurrent
/// submissions never overwrite each other's results in the shared DFS.
/// Base relations keep their names.
pub fn for_client(sgf: &str, client: usize) -> String {
    let outputs = parse_program(sgf)
        .unwrap_or_else(|e| panic!("template does not parse: {e}"))
        .output_names();
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(sgf.len() + 16);
    let mut rest = sgf;
    while !rest.is_empty() {
        let word_len = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
        if word_len == 0 {
            let c = rest.chars().next().expect("non-empty");
            out.push(c);
            rest = &rest[c.len_utf8()..];
            continue;
        }
        let (word, tail) = rest.split_at(word_len);
        if outputs.iter().any(|name| name.as_str() == word) {
            out.push_str(&client_name(word, client));
        } else {
            out.push_str(word);
        }
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_intermediates_are_renamed_consistently_and_still_parse() {
        let renamed = for_client(C3.1, 1);
        let query = parse_program(&renamed).expect("renamed C3 parses");
        let original = parse_program(C3.1).unwrap();
        assert_eq!(query.len(), original.len());
        for (new, old) in query.output_names().iter().zip(original.output_names()) {
            assert_eq!(new.as_str(), format!("{old}_c1"));
        }
        // Uses of an intermediate follow its definition's new name, and
        // base relations are untouched.
        assert!(renamed.contains("Z11_c1(x) AND U(y)"));
        assert_eq!(query.base_relations(), original.base_relations());
        assert!(!renamed.contains("R_c1") && !renamed.contains("S_c1"));
    }

    #[test]
    fn clients_never_share_an_output_name() {
        for w in WORKLOADS {
            let names = |client| -> Vec<String> {
                w.client_templates(client)
                    .iter()
                    .flat_map(|(_, q)| q.output_names())
                    .map(|n| n.to_string())
                    .collect()
            };
            let (a, b) = (names(0), names(1));
            assert!(a.iter().all(|n| !b.contains(n)), "{}", w.name);
        }
    }

    #[test]
    fn every_workload_has_a_unique_name_and_one_line_why() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
