//! Atoms, conformance and atom-level projection.
//!
//! This module implements the notation of §4 of the paper:
//!
//! * a tuple `ā` *conforms to* a term vector `t̄` when equal terms carry equal
//!   values and constant terms carry exactly their constants;
//! * a fact `T(ā)` conforms to an atom `U(t̄)` (written `T(ā) ⊨ U(t̄)`) when
//!   `T = U` and `ā` conforms to `t̄`;
//! * for a conforming fact `f` and variable sequence `x̄`, the projection
//!   `π_{α;x̄}(f)` picks the coordinates of `x̄` within `α`.

use std::collections::BTreeSet;
use std::fmt;

use gumbo_common::{RelationName, Tuple, TupleView, Value, ValueRef};

use crate::term::{Term, Var};

/// An atom `R(t₁, …, tₙ)`.
///
/// The conformance test is compiled when the atom is built: `constants`
/// and `equalities` are a function of `terms` alone, so the derived
/// `Eq`/`Ord`/`Hash` agree with comparing `(relation, terms)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    relation: RelationName,
    terms: Vec<Term>,
    /// `(position, constant)`: the tuple must carry the constant there.
    constants: Vec<(usize, Value)>,
    /// `(first, later)` positions of one variable: the values must agree.
    equalities: Vec<(usize, usize)>,
}

impl Atom {
    /// Create an atom over the given relation symbol and terms.
    pub fn new(relation: impl Into<RelationName>, terms: Vec<Term>) -> Self {
        let mut constants = Vec::new();
        let mut equalities = Vec::new();
        for (i, term) in terms.iter().enumerate() {
            match term {
                Term::Const(c) => constants.push((i, c.clone())),
                Term::Var(_) => {
                    // Equality is transitive: checking every repeat against
                    // the first occurrence covers all pairs.
                    if let Some(first) = terms[..i].iter().position(|t| t == term) {
                        equalities.push((first, i));
                    }
                }
            }
        }
        Atom {
            relation: relation.into(),
            terms,
            constants,
            equalities,
        }
    }

    /// Create an atom whose terms are all (distinct or repeated) variables.
    pub fn vars(relation: impl Into<RelationName>, vars: &[&str]) -> Self {
        Atom::new(relation, vars.iter().map(Term::var).collect())
    }

    /// The relation symbol.
    pub fn relation(&self) -> &RelationName {
        &self.relation
    }

    /// The term vector `t̄`.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The set of variables occurring in the atom, sorted.
    pub fn var_set(&self) -> BTreeSet<Var> {
        self.terms
            .iter()
            .filter_map(|t| t.as_var().cloned())
            .collect()
    }

    /// The first position at which `var` occurs, if any.
    pub fn position_of(&self, var: &Var) -> Option<usize> {
        self.terms.iter().position(|t| t.as_var() == Some(var))
    }

    /// First positions of the given variables; `None` if some variable does
    /// not occur in the atom.
    pub fn positions_of(&self, vars: &[Var]) -> Option<Vec<usize>> {
        vars.iter().map(|v| self.position_of(v)).collect()
    }

    /// The coordinates `π_{α;x̄}` picks: [`Atom::positions_of`] for variables
    /// known to occur. Job builders resolve these once and project every
    /// fact with [`Tuple::project`].
    ///
    /// # Panics
    /// Panics if some variable of `x̄` does not occur in the atom; callers
    /// must have validated the query (guardedness guarantees this for all
    /// projections the engine performs).
    pub fn projection(&self, vars: &[Var]) -> Vec<usize> {
        self.positions_of(vars)
            .unwrap_or_else(|| panic!("projection variables must occur in atom {self}"))
    }

    /// The *join key* with another atom: the sorted set of shared variables.
    ///
    /// For a semi-join `π_{x̄}(α ⋉ κ)` this is the vector `z̄` on which the
    /// repartition join of §4.1 groups.
    pub fn join_key(&self, other: &Atom) -> Vec<Var> {
        self.var_set()
            .intersection(&other.var_set())
            .cloned()
            .collect()
    }

    /// Conformance test `f ⊨ α` for a bare tuple: the tuple side only —
    /// callers pair the relation symbol with the atom's themselves.
    ///
    /// A tuple `ā` conforms to `t̄` iff (1) equal terms carry equal values and
    /// (2) constant terms carry exactly their constants (§4).
    pub fn conforms_tuple(&self, tuple: &Tuple) -> bool {
        let values = tuple.values();
        values.len() == self.terms.len()
            && self.constants.iter().all(|(i, c)| values[*i] == *c)
            && self.equalities.iter().all(|&(i, j)| values[i] == values[j])
    }

    /// [`Atom::conforms_tuple`] for a row read in place: the same test on
    /// a [`TupleView`], with no tuple built. An unconstrained atom reads
    /// no value.
    #[inline]
    pub fn conforms_view(&self, tuple: TupleView<'_>) -> bool {
        tuple.arity() == self.terms.len()
            && (self.is_unconstrained() || self.constraints_hold(tuple))
    }

    /// Conditions (1) and (2) of [`Atom::conforms_tuple`] on a row of the
    /// atom's arity.
    fn constraints_hold(&self, tuple: TupleView<'_>) -> bool {
        (self.constants.iter()).all(|(i, c)| tuple.value(*i) == ValueRef::from(c))
            && (self.equalities.iter()).all(|&(i, j)| tuple.value(i) == tuple.value(j))
    }

    /// Whether *every* tuple of the right arity conforms: the terms are
    /// pairwise distinct variables, so neither condition of
    /// [`Atom::conforms_tuple`] can fail. The planner uses this to know a
    /// conformance rate exactly (1.0) without looking at a single value.
    #[inline]
    pub fn is_unconstrained(&self) -> bool {
        self.constants.is_empty() && self.equalities.is_empty()
    }

    /// Projection `π_{α;x̄}(f)` of a conforming tuple onto variables `x̄`.
    /// Resolves `x̄` on every call; per-tuple code resolves
    /// [`Atom::projection`] once instead.
    ///
    /// # Panics
    /// As [`Atom::projection`].
    pub fn project(&self, tuple: &Tuple, vars: &[Var]) -> Tuple {
        tuple.project(&self.projection(vars))
    }

    /// The substitution `σ` induced by a conforming tuple: values of each
    /// variable at its first occurrence.
    pub fn substitution<'a>(
        &'a self,
        tuple: &'a Tuple,
    ) -> impl Iterator<Item = (&'a Var, &'a Value)> {
        self.terms.iter().enumerate().filter_map(move |(i, t)| {
            let v = t.as_var()?;
            if self.position_of(v) == Some(i) {
                Some((v, tuple.get(i).expect("arity checked by conformance")))
            } else {
                None
            }
        })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom_xyxz() -> Atom {
        // R(x, y, x, z)
        Atom::new(
            "R",
            vec![
                Term::var("x"),
                Term::var("y"),
                Term::var("x"),
                Term::var("z"),
            ],
        )
    }

    #[test]
    fn paper_conformance_example() {
        // (1,2,1,3) conforms to (x,2,x,y) — §4.
        let a = Atom::new(
            "R",
            vec![Term::var("x"), Term::int(2), Term::var("x"), Term::var("y")],
        );
        assert!(a.conforms_tuple(&Tuple::from_ints(&[1, 2, 1, 3])));
        // Violate the repeated-variable condition.
        assert!(!a.conforms_tuple(&Tuple::from_ints(&[1, 2, 9, 3])));
        // Violate the constant condition.
        assert!(!a.conforms_tuple(&Tuple::from_ints(&[1, 5, 1, 3])));
    }

    #[test]
    fn paper_projection_example() {
        // R(1,2,1,3) ⊨ R(x,y,x,z), π_{α;x,z}(f) = (1,3) — §4.
        let a = atom_xyxz();
        let t = Tuple::from_ints(&[1, 2, 1, 3]);
        assert!(a.conforms_tuple(&t));
        assert_eq!(
            a.project(&t, &[Var::new("x"), Var::new("z")]),
            Tuple::from_ints(&[1, 3])
        );
    }

    #[test]
    fn unconstrained_means_distinct_variables_only() {
        assert!(Atom::vars("R", &["x", "y"]).is_unconstrained());
        // A repeated variable or a constant constrains the tuple.
        assert!(!atom_xyxz().is_unconstrained());
        assert!(!Atom::new("R", vec![Term::var("x"), Term::int(2)]).is_unconstrained());
    }

    #[test]
    fn arity_mismatch_fails_conformance() {
        assert!(!atom_xyxz().conforms_tuple(&Tuple::from_ints(&[1, 2, 1])));
    }

    #[test]
    fn view_conformance_is_tuple_conformance() {
        let atom = Atom::new(
            "R",
            vec![Term::var("x"), Term::int(2), Term::var("x"), Term::var("y")],
        );
        let mut rows = gumbo_common::TupleBatch::new(4);
        let tuples = [[1, 2, 1, 3], [1, 2, 9, 3], [1, 5, 1, 3], [7, 2, 7, 7]];
        for t in &tuples {
            rows.push_tuple(&Tuple::from_ints(t));
        }
        for (r, t) in tuples.iter().enumerate() {
            let tuple = Tuple::from_ints(t);
            assert_eq!(
                atom.conforms_view(rows.view(r)),
                atom.conforms_tuple(&tuple)
            );
        }
        let mut short = gumbo_common::TupleBatch::new(3);
        short.push_tuple(&Tuple::from_ints(&[1, 2, 1]));
        assert!(!atom.conforms_view(short.view(0)));
    }

    #[test]
    fn join_key_is_shared_vars() {
        let r = Atom::vars("R", &["x", "y"]);
        let s = Atom::vars("S", &["y", "z"]);
        assert_eq!(r.join_key(&s), vec![Var::new("y")]);
        // Constants never join.
        let t = Atom::new("T", vec![Term::int(1), Term::var("x")]);
        assert_eq!(r.join_key(&t), vec![Var::new("x")]);
    }

    #[test]
    fn substitution_uses_first_occurrence() {
        let a = atom_xyxz();
        let t = Tuple::from_ints(&[1, 2, 1, 3]);
        let sigma: Vec<(String, i64)> = a
            .substitution(&t)
            .map(|(v, val)| (v.name().to_string(), val.as_int().unwrap()))
            .collect();
        assert_eq!(
            sigma,
            vec![("x".into(), 1), ("y".into(), 2), ("z".into(), 3)]
        );
    }

    #[test]
    fn var_set_dedups() {
        let vs = atom_xyxz().var_set();
        assert_eq!(vs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "projection variables")]
    fn projecting_missing_var_panics() {
        let a = Atom::vars("R", &["x"]);
        a.project(&Tuple::from_ints(&[1]), &[Var::new("q")]);
    }
}
