//! Relations: named, fixed-arity sets of tuples.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{GumboError, Result};
use crate::tuple::Tuple;

/// An interned relation symbol.
///
/// Relation names are compared frequently (every map-function conformance
/// check consults them), so they are `Arc<str>`-interned for cheap clones.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationName(Arc<str>);

impl RelationName {
    /// View the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for RelationName {
    fn from(s: &str) -> Self {
        RelationName(Arc::from(s))
    }
}

impl From<String> for RelationName {
    fn from(s: String) -> Self {
        RelationName(Arc::from(s.as_str()))
    }
}

impl From<&RelationName> for RelationName {
    fn from(s: &RelationName) -> Self {
        s.clone()
    }
}

impl fmt::Display for RelationName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A relation instance: a set of tuples of uniform arity.
///
/// Tuples are kept in a sorted set so that iteration order — and therefore
/// every byte count, sample and simulated schedule derived from it — is
/// deterministic across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: RelationName,
    arity: usize,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn new(name: impl Into<RelationName>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Create a relation from tuples in bulk: one arity pass (the first
    /// mismatch in iteration order is the error), then one sort, dedup and
    /// bottom-up tree build — linear when the tuples arrive sorted.
    pub fn from_tuples(
        name: impl Into<RelationName>,
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let name = name.into();
        let tuples: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(bad) = tuples.iter().find(|t| t.arity() != arity) {
            return Err(GumboError::ArityMismatch {
                relation: name.to_string(),
                expected: arity,
                got: bad.arity(),
            });
        }
        Ok(Relation {
            name,
            arity,
            tuples: BTreeSet::from_iter(tuples),
        })
    }

    /// The relation symbol.
    pub fn name(&self) -> &RelationName {
        &self.name
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple; rejects arity mismatches. Returns whether the tuple
    /// was newly inserted (relations are sets).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.arity {
            return Err(GumboError::ArityMismatch {
                relation: self.name.to_string(),
                expected: self.arity,
                got: tuple.arity(),
            });
        }
        Ok(self.tuples.insert(tuple))
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterate over the tuples in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Estimated storage footprint in bytes.
    pub fn estimated_bytes(&self) -> u64 {
        self.tuples.iter().map(Tuple::estimated_bytes).sum()
    }

    /// Rename the relation (used when storing semi-join outputs `Xᵢ`).
    pub fn renamed(&self, name: impl Into<RelationName>) -> Relation {
        Relation {
            name: name.into(),
            arity: self.arity,
            tuples: self.tuples.clone(),
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} [{} tuples]",
            self.name,
            self.arity,
            self.tuples.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut r = Relation::new("R", 2);
        let err = r.insert(Tuple::from_ints(&[1])).unwrap_err();
        assert!(matches!(
            err,
            GumboError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn relations_are_sets() {
        let mut r = Relation::new("R", 1);
        assert!(r.insert(Tuple::from_ints(&[1])).unwrap());
        assert!(!r.insert(Tuple::from_ints(&[1])).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let r = Relation::from_tuples("R", 1, [3, 1, 2].iter().map(|&i| Tuple::from_ints(&[i])))
            .unwrap();
        let order: Vec<i64> = r
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn bytes_accumulate() {
        let r =
            Relation::from_tuples("R", 4, (0..5).map(|i| Tuple::from_ints(&[i, i, i, i]))).unwrap();
        assert_eq!(r.estimated_bytes(), 5 * 40);
    }

    #[test]
    fn renamed_preserves_contents() {
        let mut r = Relation::new("R", 1);
        r.insert(Tuple::from_ints(&[9])).unwrap();
        let s = r.renamed("X1");
        assert_eq!(s.name().as_str(), "X1");
        assert!(s.contains(&Tuple::from_ints(&[9])));
    }
}
