//! Semi-join extraction: from BSGF queries to the equation set `S`.
//!
//! §4.4 of the paper: for a BSGF query `Z := SELECT w̄ FROM R(t̄) WHERE C`
//! with distinct conditional atoms `κ₁, …, κₙ`, let
//! `S = {X₁ := π(R(t̄) ⋉ κ₁), …, Xₙ := π(R(t̄) ⋉ κₙ)}` and `ϕ_C` the Boolean
//! formula over the `Xᵢ`. Every partition of `S` into MSJ jobs followed by
//! `EVAL(R, ϕ_C)` computes `Z`.
//!
//! ### A note on the projection
//!
//! The paper writes `Xᵢ := π_{w̄}(R(t̄) ⋉ κᵢ)`. When `w̄` omits guard
//! variables *and* `C` contains negation, projecting before the Boolean
//! combination is lossy (two guard tuples with equal `w̄`-projections can
//! disagree on `κᵢ`). We therefore always identify guard tuples by their
//! *full* variable projection (or by tuple reference, §5.1 (2)) inside the
//! plan, and apply `π_{w̄}` in the final EVAL output — semantically safe for
//! every Boolean combination and identical in cost for the paper's
//! workloads (which select all guard variables).

use std::collections::BTreeMap;
use std::fmt;

use gumbo_common::{RelationName, Result};
use gumbo_sgf::{Atom, BoolExpr, BsgfQuery, Term, Var};

/// One semi-join equation `Xᵢ := π(α ⋉ κ)` extracted from a BSGF query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiJoin {
    /// Global id within the [`QueryContext`] (stable across planning).
    pub id: usize,
    /// Index of the owning query within the context.
    pub query_idx: usize,
    /// The output relation `Xᵢ` storing this semi-join's result.
    pub x_name: RelationName,
    /// The guard atom `α`.
    pub guard: Atom,
    /// The conditional atom `κ`.
    pub cond: Atom,
    /// The join key `z̄`: variables shared by `α` and `κ`, in sorted order.
    pub join_key: Vec<Var>,
    /// The guard's identity variables (distinct variables of `α` in first
    /// occurrence order) — what `Xᵢ` stores in full-payload mode.
    pub identity_vars: Vec<Var>,
}

impl fmt::Display for SemiJoin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {} ⋉ {}", self.x_name, self.guard, self.cond)
    }
}

/// The distinct variables of an atom in first-occurrence order.
pub fn identity_vars(atom: &Atom) -> Vec<Var> {
    let mut seen = Vec::new();
    for t in atom.terms() {
        if let Term::Var(v) = t {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        }
    }
    seen
}

/// A conditional-atom stream shared by several semi-joins: the atom plus
/// the join key its asserts are projected on.
pub type AssertGroup = (Atom, Vec<Var>);

/// An [`AssertGroup`] as a mapper holds it: the join key resolved to its
/// coordinates within the atom, so projecting a fact resolves no variable.
pub type AssertProjection = (Atom, Vec<usize>);

/// Resolve every assert group's join key to coordinates (once per job).
pub fn assert_projections(groups: &[AssertGroup]) -> Vec<AssertProjection> {
    groups
        .iter()
        .map(|(atom, key)| (atom.clone(), atom.projection(key)))
        .collect()
}

/// For each job input, the positions in `atoms` of the atoms over it: the
/// table a mapper indexes with its input to find what a fact can take
/// part in, built once per job.
pub fn atoms_by_input<'a>(
    inputs: &[RelationName],
    atoms: impl Iterator<Item = &'a Atom> + Clone,
) -> Vec<Vec<u32>> {
    (inputs.iter())
        .map(|rel| {
            (atoms.clone().enumerate())
                .filter(|(_, atom)| atom.relation() == rel)
                .map(|(i, _)| i as u32)
                .collect()
        })
        .collect()
}

/// A set of BSGF queries prepared for planning: the paper's `F` (§4.5),
/// with all semi-joins extracted and formulas rewritten over them.
#[derive(Debug, Clone)]
pub struct QueryContext {
    queries: Vec<BsgfQuery>,
    semijoins: Vec<SemiJoin>,
    /// Per query: ids of its semi-joins, in conditional-atom order.
    per_query: Vec<Vec<usize>>,
    /// Per query: `ϕ_C` over *global* semi-join ids (None = no WHERE clause).
    formulas: Vec<Option<BoolExpr>>,
}

impl QueryContext {
    /// Prepare a set of BSGF queries (which must have pairwise distinct
    /// output names and not reference one another — the members of one
    /// group `Fᵢ` of a multiway topological sort satisfy this).
    pub fn new(queries: Vec<BsgfQuery>) -> Result<Self> {
        for (i, q) in queries.iter().enumerate() {
            for p in queries.iter().skip(i + 1) {
                if q.output() == p.output() {
                    return Err(gumbo_common::GumboError::Plan(format!(
                        "duplicate output relation {} in query set",
                        q.output()
                    )));
                }
            }
            for p in &queries {
                if p.input_relations().contains(q.output()) {
                    return Err(gumbo_common::GumboError::Plan(format!(
                        "query set member {} references member output {}",
                        p.output(),
                        q.output()
                    )));
                }
            }
        }
        let mut semijoins = Vec::new();
        let mut per_query = Vec::new();
        let mut formulas = Vec::new();
        for (query_idx, q) in queries.iter().enumerate() {
            let guard = q.guard().clone();
            let ident = identity_vars(&guard);
            let atoms = q.conditional_atoms();
            let mut ids = Vec::with_capacity(atoms.len());
            for (cond_idx, atom) in atoms.iter().enumerate() {
                let id = semijoins.len();
                semijoins.push(SemiJoin {
                    id,
                    query_idx,
                    x_name: format!("{}#X{}", q.output(), cond_idx).into(),
                    guard: guard.clone(),
                    cond: (*atom).clone(),
                    join_key: guard.join_key(atom),
                    identity_vars: ident.clone(),
                });
                ids.push(id);
            }
            // Rewrite the condition over local atom indices, then shift the
            // local indices to global semi-join ids.
            let formula = q
                .condition()
                .map(|c| c.to_bool_expr(&atoms).map_vars(&|i| ids[i]));
            per_query.push(ids);
            formulas.push(formula);
        }
        Ok(QueryContext {
            queries,
            semijoins,
            per_query,
            formulas,
        })
    }

    /// The queries of the set.
    pub fn queries(&self) -> &[BsgfQuery] {
        &self.queries
    }

    /// All extracted semi-joins (global id order).
    pub fn semijoins(&self) -> &[SemiJoin] {
        &self.semijoins
    }

    /// Semi-join by global id.
    pub fn semijoin(&self, id: usize) -> &SemiJoin {
        &self.semijoins[id]
    }

    /// `ϕ_C` of query `query_idx` over global semi-join ids.
    pub fn formula(&self, query_idx: usize) -> Option<&BoolExpr> {
        self.formulas[query_idx].as_ref()
    }

    /// How the set fuses into one 1-ROUND job (§5.1 (4)): every query's
    /// requests, in query order, or `None` when the set is empty or some
    /// query does not fuse. Split a query's condition into its top-level
    /// disjuncts: the query fuses when the atoms of every disjunct share
    /// one non-empty join key, and each distinct key is one request that
    /// decides the OR of that key's disjuncts. The paper's two triggers
    /// are the ends of this rule: every atom on one key is one request,
    /// an OR of literals on distinct keys is one request per literal. A
    /// query without a condition does not fuse.
    pub fn fused_requests(&self) -> Option<Vec<Vec<FusedRequest>>> {
        if self.queries.is_empty() {
            return None;
        }
        (0..self.queries.len())
            .map(|q| self.query_requests(q))
            .collect()
    }

    /// One query's part of [`QueryContext::fused_requests`].
    fn query_requests(&self, query_idx: usize) -> Option<Vec<FusedRequest>> {
        let query = &self.queries[query_idx];
        let atoms = query.conditional_atoms();
        let ids = &self.per_query[query_idx];
        let local = |atom: &Atom| {
            (atoms.iter().position(|a| *a == atom)).expect("atom of the query's condition")
        };
        let mut requests: Vec<FusedRequest> = Vec::new();
        for disjunct in query.condition()?.disjuncts() {
            let mut keys = (disjunct.conditional_atoms().into_iter())
                .map(|atom| &self.semijoins[ids[local(atom)]].join_key);
            let key = keys.next().expect("a condition has an atom");
            if key.is_empty() || keys.any(|k| k != key) {
                return None;
            }
            let formula = disjunct.to_bool_expr(&atoms).map_vars(&|i| ids[i]);
            match requests.iter_mut().find(|r| r.key == *key) {
                Some(r) => r.formula = BoolExpr::Or(Box::new(r.formula.clone()), Box::new(formula)),
                None => requests.push(FusedRequest {
                    key: key.clone(),
                    formula,
                }),
            }
        }
        Some(requests)
    }
}

/// One request stream of a fused 1-ROUND job: the guard tuples of one
/// query, sent to `key`, where `formula` is decided (see
/// [`QueryContext::fused_requests`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedRequest {
    /// The join key every atom of `formula` shares with the guard.
    pub key: Vec<Var>,
    /// The OR of the condition's disjuncts on `key`, over global
    /// semi-join ids.
    pub formula: BoolExpr,
}

/// Group semi-joins by `(conditional atom, join key)` — semi-joins in one
/// group can share a single Assert stream (their conditional facts project
/// identically). Returns the group index of every semi-join id passed in.
pub fn cond_groups(semijoins: &[&SemiJoin]) -> (Vec<AssertGroup>, BTreeMap<usize, usize>) {
    let mut groups: Vec<AssertGroup> = Vec::new();
    let mut assignment = BTreeMap::new();
    for sj in semijoins {
        let key = (sj.cond.clone(), sj.join_key.clone());
        let idx = groups.iter().position(|g| *g == key).unwrap_or_else(|| {
            groups.push(key.clone());
            groups.len() - 1
        });
        assignment.insert(sj.id, idx);
    }
    (groups, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_sgf::parse_query;

    fn ctx(text: &str) -> QueryContext {
        QueryContext::new(vec![parse_query(text).unwrap()]).unwrap()
    }

    #[test]
    fn extraction_of_intro_query() {
        // Q from §1: three semi-joins X1, X2, X3.
        let c = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);");
        assert_eq!(c.semijoins().len(), 3);
        assert_eq!(c.semijoin(0).cond.to_string(), "S(x, y)");
        assert_eq!(c.semijoin(1).cond.to_string(), "S(y, x)");
        assert_eq!(c.semijoin(2).cond.to_string(), "T(x, z)");
        // ϕ = (X0 ∨ X1) ∧ X2.
        let phi = c.formula(0).unwrap();
        assert!(phi.evaluate(&|i| i == 0 || i == 2));
        assert!(!phi.evaluate(&|i| i == 0 || i == 1));
    }

    #[test]
    fn join_keys_are_shared_vars() {
        let c = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(y, w) AND T(q);");
        assert_eq!(c.semijoin(0).join_key, vec![Var::new("y")]);
        // T(q) shares nothing with the guard: empty join key.
        assert!(c.semijoin(1).join_key.is_empty());
    }

    #[test]
    fn identity_vars_first_occurrence_dedup() {
        let a = Atom::vars("R", &["x", "y", "x", "z"]);
        assert_eq!(
            identity_vars(&a),
            vec![Var::new("x"), Var::new("y"), Var::new("z")]
        );
    }

    #[test]
    fn same_key_fusible_detection() {
        let requests = |text: &str| ctx(text).fused_requests().map(|r| r[0].len());
        // A3 shape: all conditionals on x -> one request.
        let a3 = "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(x) AND U(x) AND V(x);";
        assert_eq!(requests(a3), Some(1));
        // B2 shape: an OR of conjunctions, every atom on x -> still one.
        let b2 = "Z := SELECT (x, y) FROM R(x, y) \
             WHERE (S(x) AND NOT T(x)) OR (NOT S(x) AND T(x));";
        assert_eq!(requests(b2), Some(1));
        // A1 shape: one disjunct over different keys.
        let a1 = "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(y) AND U(z) AND V(w);";
        assert_eq!(requests(a1), None);
        // No condition: not fusible.
        assert_eq!(requests("Z := SELECT x FROM R(x);"), None);
    }

    #[test]
    fn disjunctive_fusible_detection() {
        // S(x) and U(x) share the x request; NOT T(y) has its own.
        let c = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR NOT T(y) OR U(x);");
        let requests = &c.fused_requests().unwrap()[0];
        let keys: Vec<&[Var]> = requests.iter().map(|r| &r.key[..]).collect();
        assert_eq!(keys, [&[Var::new("x")][..], &[Var::new("y")][..]]);
        // Over semi-join ids 0 = S(x), 1 = T(y), 2 = U(x).
        assert!(requests[0].formula.evaluate(&|i| i == 2));
        assert!(!requests[0].formula.evaluate(&|i| i == 1));
        assert!(requests[1].formula.evaluate(&|_| false));
        assert!(!requests[1].formula.evaluate(&|i| i == 1));
        // NOT over a disjunction is one disjunct over two keys.
        let nested = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE NOT (S(x) OR T(y));");
        assert!(nested.fused_requests().is_none());
        // A set fuses only when every query does.
        let set = |texts: &[&str]| {
            let qs = texts.iter().map(|t| parse_query(t).unwrap()).collect();
            QueryContext::new(qs).unwrap().fused_requests()
        };
        let fusing = "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);";
        let not_fusing = "Z2 := SELECT (x, y) FROM G(x, y) WHERE S(x) AND T(y);";
        assert_eq!(set(&[fusing]).map(|r| r.len()), Some(1));
        assert!(set(&[fusing, not_fusing]).is_none());
        assert!(set(&[]).is_none());
    }

    #[test]
    fn multi_query_context_assigns_global_ids() {
        let q1 = parse_query("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y) FROM G(x, y) WHERE S(x);").unwrap();
        let c = QueryContext::new(vec![q1, q2]).unwrap();
        assert_eq!(c.semijoins().len(), 3);
        let of = |q: usize| -> Vec<usize> {
            (c.semijoins().iter().filter(|sj| sj.query_idx == q))
                .map(|sj| sj.id)
                .collect()
        };
        assert_eq!(of(0), [0, 1]);
        assert_eq!(of(1), [2]);
        assert_eq!(c.semijoin(2).query_idx, 1);
        // Formula of query 2 references global id 2.
        assert!(c.formula(1).unwrap().evaluate(&|i| i == 2));
    }

    #[test]
    fn query_set_rejects_internal_references() {
        let q1 = parse_query("Z1 := SELECT x FROM R(x) WHERE S(x);").unwrap();
        let q2 = parse_query("Z2 := SELECT x FROM Z1(x);").unwrap();
        assert!(QueryContext::new(vec![q1, q2]).is_err());
    }

    #[test]
    fn cond_groups_share_asserts() {
        // A5 shape: two guards, same conditionals with the same keys.
        let q1 = parse_query("Z1 := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND T(y);")
            .unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y, z, w) FROM G(x, y, z, w) WHERE S(x) AND T(y);")
            .unwrap();
        let c = QueryContext::new(vec![q1, q2]).unwrap();
        let sjs: Vec<&SemiJoin> = c.semijoins().iter().collect();
        let (groups, assignment) = cond_groups(&sjs);
        // S(x)@[x] and T(y)@[y]: only two assert streams for four semi-joins.
        assert_eq!(groups.len(), 2);
        assert_eq!(assignment[&0], assignment[&2]);
        assert_eq!(assignment[&1], assignment[&3]);
    }

    #[test]
    fn cond_groups_distinguish_keys() {
        // Same atom S(x, y) under guards that share different variables
        // with it -> different join keys -> different assert streams.
        let q1 = parse_query("Z1 := SELECT x FROM R(x) WHERE S(x, y);").unwrap();
        let q2 = parse_query("Z2 := SELECT y FROM G(y) WHERE S(x, y);").unwrap();
        let c = QueryContext::new(vec![q1, q2]).unwrap();
        let sjs: Vec<&SemiJoin> = c.semijoins().iter().collect();
        let (groups, assignment) = cond_groups(&sjs);
        assert_eq!(groups.len(), 2);
        assert_ne!(assignment[&0], assignment[&1]);
    }
}
