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
            let formula = q.condition().map(|c| {
                let local = c.to_bool_expr(&atoms);
                remap_vars(&local, &ids)
            });
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

    /// Ids of the semi-joins belonging to query `query_idx`.
    pub fn semijoins_of(&self, query_idx: usize) -> &[usize] {
        &self.per_query[query_idx]
    }

    /// `ϕ_C` of query `query_idx` over global semi-join ids.
    pub fn formula(&self, query_idx: usize) -> Option<&BoolExpr> {
        self.formulas[query_idx].as_ref()
    }

    /// Whether query `query_idx` qualifies for same-key 1-ROUND fusion:
    /// it has at least one conditional atom and all of its semi-joins share
    /// one non-empty join key (§5.1 (4)).
    pub fn same_key_fusible(&self, query_idx: usize) -> bool {
        let ids = &self.per_query[query_idx];
        if ids.is_empty() {
            return false;
        }
        let first = &self.semijoins[ids[0]].join_key;
        !first.is_empty() && ids.iter().all(|&i| &self.semijoins[i].join_key == first)
    }

    /// Whether *every* query of the set is same-key fusible.
    pub fn all_same_key_fusible(&self) -> bool {
        !self.queries.is_empty() && (0..self.queries.len()).all(|q| self.same_key_fusible(q))
    }

    /// Whether query `query_idx`'s condition is a pure disjunction of
    /// (possibly negated) atoms — the other 1-ROUND trigger (§5.1 (4)).
    pub fn disjunctive_fusible(&self, query_idx: usize) -> bool {
        match self.queries[query_idx].condition() {
            None => false,
            Some(c) => {
                is_or_of_literals(c)
                    && self.per_query[query_idx]
                        .iter()
                        .all(|&i| !self.semijoins[i].join_key.is_empty())
            }
        }
    }
}

/// Whether a condition is a disjunction of literals (atom / NOT atom).
fn is_or_of_literals(c: &gumbo_sgf::Condition) -> bool {
    use gumbo_sgf::Condition::*;
    match c {
        Atom(_) => true,
        Not(inner) => matches!(**inner, Atom(_)),
        Or(l, r) => is_or_of_literals(l) && is_or_of_literals(r),
        And(..) => false,
    }
}

/// Replace local variable indices with the provided global ids.
fn remap_vars(e: &BoolExpr, ids: &[usize]) -> BoolExpr {
    match e {
        BoolExpr::Var(i) => BoolExpr::Var(ids[*i]),
        BoolExpr::Const(b) => BoolExpr::Const(*b),
        BoolExpr::Not(x) => BoolExpr::Not(Box::new(remap_vars(x, ids))),
        BoolExpr::And(l, r) => {
            BoolExpr::And(Box::new(remap_vars(l, ids)), Box::new(remap_vars(r, ids)))
        }
        BoolExpr::Or(l, r) => {
            BoolExpr::Or(Box::new(remap_vars(l, ids)), Box::new(remap_vars(r, ids)))
        }
    }
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
        // A3 shape: all conditionals on x.
        let a3 = ctx("Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(x) AND U(x) AND V(x);");
        assert!(a3.same_key_fusible(0));
        // A1 shape: different keys.
        let a1 = ctx("Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(y) AND U(z) AND V(w);");
        assert!(!a1.same_key_fusible(0));
        // No condition: not fusible.
        let plain = ctx("Z := SELECT x FROM R(x);");
        assert!(!plain.same_key_fusible(0));
    }

    #[test]
    fn disjunctive_fusible_detection() {
        let yes = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR NOT T(y) OR U(x);");
        assert!(yes.disjunctive_fusible(0));
        let no = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);");
        assert!(!no.disjunctive_fusible(0));
        // NOT over a disjunction is not a literal disjunction.
        let nested = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE NOT (S(x) OR T(y));");
        assert!(!nested.disjunctive_fusible(0));
    }

    #[test]
    fn multi_query_context_assigns_global_ids() {
        let q1 = parse_query("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y) FROM G(x, y) WHERE S(x);").unwrap();
        let c = QueryContext::new(vec![q1, q2]).unwrap();
        assert_eq!(c.semijoins().len(), 3);
        assert_eq!(c.semijoins_of(0), &[0, 1]);
        assert_eq!(c.semijoins_of(1), &[2]);
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
