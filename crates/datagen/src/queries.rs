//! The paper's query suites: Table 2 (A1–A5, B1, B2), Figure 6 (C1–C4),
//! the §5.2 cost-model stress query, and the parametric families of
//! Figures 7/8.
//!
//! Each suite is packaged as a [`Workload`]: the SGF query together with
//! the [`DataSpec`] that generates its input relations. Where Figure 6
//! reuses an output name (C1 defines `Z3` twice), outputs are renamed
//! (`Z1…Z5`) preserving the dependency structure.

use gumbo_sgf::{parse_program, SgfQuery};

use crate::gen::DataSpec;

/// A query together with its dataset specification.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier (e.g. `"A3"`).
    pub name: String,
    /// The SGF query.
    pub query: SgfQuery,
    /// The dataset generator.
    pub spec: DataSpec,
}

impl Workload {
    fn new(name: &str, program: &str, spec: DataSpec) -> Workload {
        let query = parse_program(program)
            .unwrap_or_else(|e| panic!("workload {name} failed to parse: {e}"));
        Workload {
            name: name.to_string(),
            query,
            spec,
        }
    }

    /// Scale the workload's tuple counts.
    pub fn with_tuples(mut self, guard_tuples: usize) -> Self {
        self.spec = self.spec.with_tuples(guard_tuples);
        self
    }

    /// Set the selectivity rate.
    pub fn with_selectivity(mut self, s: f64) -> Self {
        self.spec = self.spec.with_selectivity(s);
        self
    }
}

const GUARD4: (&str, usize) = ("R", 4);
const STUV: [(&str, usize); 4] = [("S", 1), ("T", 1), ("U", 1), ("V", 1)];

/// A1 — guard sharing: four distinct conditionals on four distinct keys.
pub fn a1() -> Workload {
    Workload::new(
        "A1",
        "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) \
         WHERE S(x) AND T(y) AND U(z) AND V(w);",
        DataSpec::new(&[GUARD4], &STUV),
    )
}

/// A2 — guard & conditional *name* sharing: one relation, four keys.
pub fn a2() -> Workload {
    Workload::new(
        "A2",
        "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) \
         WHERE S(x) AND S(y) AND S(z) AND S(w);",
        DataSpec::new(&[GUARD4], &[("S", 1)]),
    )
}

/// A3 — guard & conditional *key* sharing: four relations, one key.
pub fn a3() -> Workload {
    Workload::new(
        "A3",
        "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) \
         WHERE S(x) AND T(x) AND U(x) AND V(x);",
        DataSpec::new(&[GUARD4], &STUV),
    )
}

/// A4 — no sharing: two independent queries over disjoint relations.
pub fn a4() -> Workload {
    Workload::new(
        "A4",
        "Out1 := SELECT (x, y, z, w) FROM R(x, y, z, w) \
         WHERE S(x) AND T(y) AND U(z) AND V(w);\n\
         Out2 := SELECT (x, y, z, w) FROM G(x, y, z, w) \
         WHERE W(x) AND X(y) AND Y(z) AND Z(w);",
        DataSpec::new(
            &[GUARD4, ("G", 4)],
            &[
                ("S", 1),
                ("T", 1),
                ("U", 1),
                ("V", 1),
                ("W", 1),
                ("X", 1),
                ("Y", 1),
                ("Z", 1),
            ],
        ),
    )
}

/// A5 — conditional name sharing: two guards, identical conditionals.
pub fn a5() -> Workload {
    Workload::new(
        "A5",
        "Out1 := SELECT (x, y, z, w) FROM R(x, y, z, w) \
         WHERE S(x) AND T(y) AND U(z) AND V(w);\n\
         Out2 := SELECT (x, y, z, w) FROM G(x, y, z, w) \
         WHERE S(x) AND T(y) AND U(z) AND V(w);",
        DataSpec::new(&[GUARD4, ("G", 4)], &STUV),
    )
}

/// B1 — large conjunctive query: S, T, U, V each against all four keys.
pub fn b1() -> Workload {
    let conds: Vec<String> = ["x", "y", "z", "w"]
        .iter()
        .flat_map(|v| {
            ["S", "T", "U", "V"]
                .iter()
                .map(move |r| format!("{r}({v})"))
        })
        .collect();
    Workload::new(
        "B1",
        &format!(
            "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE {};",
            conds.join(" AND ")
        ),
        DataSpec::new(&[GUARD4], &STUV),
    )
}

/// B2 — the uniqueness query: tuples connected to *exactly one* of the
/// conditional relations through `x` (as printed in Table 2).
pub fn b2() -> Workload {
    Workload::new(
        "B2",
        "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE \
         (S(x) AND NOT T(x) AND NOT U(x) AND NOT V(x)) OR \
         (NOT S(x) AND T(x) AND NOT U(x) AND NOT V(x)) OR \
         (S(x) AND NOT T(x) AND U(x) AND NOT V(x)) OR \
         (NOT S(x) AND NOT T(x) AND NOT U(x) AND V(x));",
        DataSpec::new(&[GUARD4], &STUV),
    )
}

/// All BSGF workloads of Table 2, in order.
pub fn table2() -> Vec<Workload> {
    vec![a1(), a2(), a3(), a4(), a5(), b1(), b2()]
}

/// C1 (Fig. 6a): two independent chains plus a standalone query.
/// Outputs renamed `Z1…Z5` to avoid Figure 6's duplicate `Z3`.
pub fn c1() -> Workload {
    Workload::new(
        "C1",
        "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);\n\
         Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);\n\
         Z3 := SELECT x FROM G(x, y, z, w) WHERE Z1(z) OR Z1(w);\n\
         Z4 := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);\n\
         Z5 := SELECT x FROM H(x, y, z, w) WHERE Z4(z) OR Z4(w);",
        DataSpec::new(
            &[GUARD4, ("G", 4), ("H", 4)],
            &[("S", 1), ("T", 1), ("U", 1)],
        ),
    )
}

/// C2 (Fig. 6b): three first-level queries feeding three second-level ones.
pub fn c2() -> Workload {
    Workload::new(
        "C2",
        "Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);\n\
         Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);\n\
         Z3 := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);\n\
         Z4 := SELECT (x, y, z, w) FROM G(x, y, z, w) WHERE Z1(x) AND Z1(y);\n\
         Z5 := SELECT (x, y, z, w) FROM H(x, y, z, w) WHERE Z2(x) AND Z2(y);\n\
         Z6 := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE Z3(x) AND Z3(y);",
        DataSpec::new(
            &[GUARD4, ("G", 4), ("H", 4)],
            &[("S", 1), ("T", 1), ("U", 1)],
        ),
    )
}

/// C3 (Fig. 6c): a three-level query with many distinct atoms.
pub fn c3() -> Workload {
    Workload::new(
        "C3",
        "Z11 := SELECT z FROM R(x, y, z, w) WHERE S(x) AND T(y);\n\
         Z12 := SELECT z FROM R(x, y, z, w) WHERE T(y);\n\
         Z13 := SELECT z FROM I(x, y, z, w) WHERE NOT S(w);\n\
         Z21 := SELECT z FROM G(x, y, z, w) WHERE Z11(x) AND U(y);\n\
         Z22 := SELECT z FROM H(x, y, z, w) WHERE U(y) OR V(y) AND Z12(x);\n\
         Z23 := SELECT z FROM R(x, y, z, w) WHERE U(x) AND T(y) AND V(z) AND Z13(w);\n\
         Z31 := SELECT z FROM I(x, y, z, w) WHERE Z22(x) AND T(x) AND V(y);",
        DataSpec::new(
            &[GUARD4, ("G", 4), ("H", 4), ("I", 4)],
            &[("S", 1), ("T", 1), ("U", 1), ("V", 1)],
        ),
    )
}

/// C4 (Fig. 6d): two levels with many overlapping disjunctive atoms.
pub fn c4() -> Workload {
    Workload::new(
        "C4",
        "Z11 := SELECT y FROM R(x, y, z, w) WHERE S(x) OR T(y);\n\
         Z12 := SELECT y FROM R(x, y, z, w) WHERE U(z) OR S(x);\n\
         Z13 := SELECT y FROM G(x, y, z, w) WHERE U(x) OR V(y);\n\
         Z14 := SELECT y FROM G(x, y, z, w) WHERE S(z) OR U(x);\n\
         Z21 := SELECT (x, y, z, w) FROM H(x, y, z, w) \
         WHERE Z11(x) OR Z12(y) OR Z13(z) OR Z14(w);",
        DataSpec::new(&[GUARD4, ("G", 4), ("H", 4)], &STUV),
    )
}

/// All SGF workloads of Figure 6, in order.
pub fn figure6() -> Vec<Workload> {
    vec![c1(), c2(), c3(), c4()]
}

/// Every named preset, in the order the CLI lists them: Table 2 (A1–A5,
/// B1, B2), then Figure 6 (C1–C4).
pub fn presets() -> Vec<Workload> {
    let mut all = table2();
    all.extend(figure6());
    all
}

/// The preset whose [`Workload::name`] is `name`, ignoring ASCII case.
pub fn preset(name: &str) -> Option<Workload> {
    presets()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

/// The §5.2 cost-model stress query: 48 conditional atoms `Sᵢ(x̄ⱼ, c)` over
/// the 12 ordered pairs `x̄ⱼ` of distinct guard variables, with a constant
/// `c` that filters out *all* tuples of `S1…S4` — giving the guard a huge
/// map output ratio and the conditionals a near-zero one.
pub fn cost_model_query() -> Workload {
    let vars = ["x", "y", "z", "w"];
    let mut pairs = Vec::new();
    for a in vars {
        for b in vars {
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    assert_eq!(pairs.len(), 12);
    let mut atoms = Vec::new();
    for rel in ["S1", "S2", "S3", "S4"] {
        for (a, b) in &pairs {
            // Constant 1 never matches: generated third columns lie in the
            // guard domain permutations, which hit 1 for at most one row.
            atoms.push(format!("{rel}({a}, {b}, 1)"));
        }
    }
    Workload::new(
        "COST",
        &format!(
            "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE {};",
            atoms.join(" AND ")
        ),
        DataSpec::new(&[GUARD4], &[("S1", 3), ("S2", 3), ("S3", 3), ("S4", 3)]),
    )
}

/// The Figure 8 family: A3-like queries with `k ∈ [2, 16]` conditional
/// atoms, all on key `x`.
pub fn a3_family(k: usize) -> Workload {
    assert!(
        (1..=16).contains(&k),
        "query size family supports 1..=16 atoms"
    );
    let names: Vec<String> = (0..k).map(|i| format!("C{i}")).collect();
    let atoms: Vec<String> = names.iter().map(|n| format!("{n}(x)")).collect();
    let conds: Vec<(&str, usize)> = names.iter().map(|n| (n.as_str(), 1)).collect();
    Workload::new(
        &format!("A3x{k}"),
        &format!(
            "Out := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE {};",
            atoms.join(" AND ")
        ),
        DataSpec::new(&[GUARD4], &conds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_sgf::DependencyGraph;

    #[test]
    fn presets_are_found_by_name_in_any_case() {
        let names: Vec<String> = presets().into_iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "C1", "C2", "C3", "C4"]
        );
        assert_eq!(preset("c2").unwrap().name, "C2");
        assert_eq!(preset("B1").unwrap().name, "B1");
        assert!(preset("a6").is_none() && preset("COST").is_none());
    }

    #[test]
    fn table2_parses_and_generates() {
        for w in table2() {
            let db = w.clone().with_tuples(200).spec.database(0);
            for q in w.query.queries() {
                assert!(
                    db.get(q.guard().relation().as_str()).is_some(),
                    "{}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn a_queries_have_expected_shape() {
        assert_eq!(a1().query.len(), 1);
        assert_eq!(a1().query.queries()[0].conditional_atoms().len(), 4);
        assert_eq!(a2().query.queries()[0].conditional_atoms().len(), 4);
        assert_eq!(a4().query.len(), 2);
        assert_eq!(a5().query.len(), 2);
        assert_eq!(b1().query.queries()[0].conditional_atoms().len(), 16);
        // B2 mentions only 4 distinct atoms despite 16 literal occurrences.
        assert_eq!(b2().query.queries()[0].conditional_atoms().len(), 4);
    }

    #[test]
    fn c_queries_have_paper_dependency_structure() {
        // C1: Z1 -> Z3, Z4 -> Z5; Z2 isolated.
        let g = DependencyGraph::new(&c1().query);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(3, 4));
        assert!(g.successors(1).is_empty());
        // C2: level 1 {0,1,2} feeds level 2 {3,4,5}.
        let g2 = DependencyGraph::new(&c2().query);
        assert_eq!(g2.level_sort(), vec![vec![0, 1, 2], vec![3, 4, 5]]);
        // C3: three levels.
        let g3 = DependencyGraph::new(&c3().query);
        assert_eq!(g3.level_sort().len(), 3);
        // C4: two levels, 4 + 1.
        let g4 = DependencyGraph::new(&c4().query);
        assert_eq!(g4.level_sort(), vec![vec![0, 1, 2, 3], vec![4]]);
    }

    #[test]
    fn cost_model_query_has_48_atoms() {
        let w = cost_model_query();
        assert_eq!(w.query.queries()[0].conditional_atoms().len(), 48);
    }

    #[test]
    fn cost_model_conditionals_filter_to_nothing() {
        // The constant 1 must keep (almost) no conditional facts.
        let w = cost_model_query().with_tuples(500);
        let db = w.spec.database(0);
        let s1 = db.get("S1").unwrap();
        let matching = s1
            .iter()
            .filter(|t| t.get(2).unwrap().as_int() == Some(1))
            .count();
        assert!(matching <= 2, "expected ~0 matching tuples, got {matching}");
    }

    #[test]
    fn a3_family_sizes() {
        for k in [2, 8, 16] {
            let w = a3_family(k);
            assert_eq!(w.query.queries()[0].conditional_atoms().len(), k);
            assert_eq!(w.spec.conds.len(), k);
        }
    }

    #[test]
    fn workload_overrides_propagate() {
        let w = a1().with_tuples(123).with_selectivity(0.9);
        assert_eq!(w.spec.guard_tuples, 123);
        assert!((w.spec.selectivity - 0.9).abs() < 1e-12);
    }
}
