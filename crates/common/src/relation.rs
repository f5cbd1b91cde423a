//! Relations: named, fixed-arity sets of tuples.
//!
//! A [`Relation`] is stored the way the engine moves data: as one columnar
//! [`TupleBatch`] whose rows are sorted in [`Tuple`] order and
//! de-duplicated. That is the form a DFS scan visits in place, a segment
//! frame encodes a slice of, and a job's commit merges its reducers' sorted
//! outputs into — no stage between storage and the reducers holds a
//! relation as owned tuples. [`Tuple`] stays the currency at the edges
//! (construction, membership tests, the reference evaluator).
//!
//! Two relations are equal when they have the same name, arity and rows;
//! rows compare by content, so relations whose dictionaries code the same
//! strings differently are equal.

use std::fmt;
use std::sync::Arc;

use crate::batch::{TupleBatch, TupleView};
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

/// A relation instance: a set of tuples of uniform arity, held as one
/// sorted, duplicate-free [`TupleBatch`].
///
/// Rows are kept in [`Tuple`]'s order (strings compared by content, never
/// by dictionary code), so iteration order — and therefore every byte
/// count, sample, tuple id and simulated schedule derived from it — is
/// deterministic across runs. Bulk construction
/// ([`from_tuples`](Self::from_tuples), [`from_batch`](Self::from_batch))
/// sorts once; [`insert`](Self::insert) splices one row into place, which
/// is O(n), so code that builds a relation a row at a time collects the
/// rows and builds it in bulk instead. [`iter`](Self::iter) reads the
/// rows in place as [`TupleView`]s.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    name: RelationName,
    rows: TupleBatch,
}

impl Relation {
    /// Create an empty relation with the given name and arity.
    pub fn new(name: impl Into<RelationName>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            rows: TupleBatch::new(arity),
        }
    }

    /// Create a relation from tuples in bulk: one arity pass (the first
    /// mismatch in iteration order is the error), then one sort and dedup
    /// ([`TupleBatch::sort_dedup`]) — a single pass when the tuples arrive
    /// sorted.
    pub fn from_tuples(
        name: impl Into<RelationName>,
        arity: usize,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let name = name.into();
        let mut rows = TupleBatch::new(arity);
        for t in tuples {
            if t.arity() != arity {
                return Err(GumboError::ArityMismatch {
                    relation: name.to_string(),
                    expected: arity,
                    got: t.arity(),
                });
            }
            rows.push_tuple(&t);
        }
        Ok(Relation::from_batch(name, rows))
    }

    /// Create a relation from a batch of rows in any order, duplicates
    /// allowed ([`TupleBatch::sort_dedup`]; a batch that is already a
    /// sorted set costs one pass).
    pub fn from_batch(name: impl Into<RelationName>, mut rows: TupleBatch) -> Self {
        rows.sort_dedup();
        Relation {
            name: name.into(),
            rows,
        }
    }

    /// The relation symbol.
    pub fn name(&self) -> &RelationName {
        &self.name
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.rows.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple; rejects arity mismatches. Returns whether the tuple
    /// was newly inserted (relations are sets). A binary search finds its
    /// place; a tuple that sorts last is appended, any other is spliced in
    /// at O(n).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.arity() {
            return Err(GumboError::ArityMismatch {
                relation: self.name.to_string(),
                expected: self.arity(),
                got: tuple.arity(),
            });
        }
        match self.rows.binary_search(tuple.values()) {
            Ok(_) => Ok(false),
            Err(at) if at == self.rows.len() => {
                self.rows.push_tuple(&tuple);
                Ok(true)
            }
            Err(at) => {
                self.rows.insert_values(at, tuple.values());
                Ok(true)
            }
        }
    }

    /// Membership test: a binary search.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.rows.binary_search(tuple.values()).is_ok()
    }

    /// Iterate over the tuples in deterministic (sorted) order, read in
    /// place.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TupleView<'_>> + '_ {
        (0..self.rows.len()).map(|r| self.rows.view(r))
    }

    /// The tuple at position `i` of the sorted order.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn row(&self, i: usize) -> TupleView<'_> {
        self.rows.view(i)
    }

    /// The rows as one sorted, duplicate-free batch.
    pub fn rows(&self) -> &TupleBatch {
        &self.rows
    }

    /// Estimated storage footprint in bytes.
    pub fn estimated_bytes(&self) -> u64 {
        self.rows.estimated_bytes()
    }

    /// Rename the relation (used when storing semi-join outputs `Xᵢ`).
    pub fn renamed(&self, name: impl Into<RelationName>) -> Relation {
        Relation {
            name: name.into(),
            rows: self.rows.clone(),
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("name", &self.name)
            .field("arity", &self.arity())
            .field("tuples", &TupleList(self))
            .finish()
    }
}

/// Debug-formats a relation's rows as a list.
struct TupleList<'a>(&'a Relation);

impl fmt::Debug for TupleList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} [{} tuples]", self.name, self.arity(), self.len())
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
        let order: Vec<i64> = r.iter().map(|t| t.value(0).as_int().unwrap()).collect();
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
