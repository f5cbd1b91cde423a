//! Tuples and facts.
//!
//! A *tuple* `ā ∈ Dⁿ` is a sequence of data values; a *fact* `R(ā)` tags a
//! tuple with a relation symbol (§3.1 of the paper).

use std::fmt;
use std::sync::Arc;

use crate::relation::RelationName;
use crate::value::Value;

/// An immutable tuple of data values.
///
/// Tuples are cheap to clone (`Arc`-backed) because the MapReduce shuffle
/// moves them between simulated tasks many times.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Create a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Create a tuple of integer values (one allocation).
    pub fn from_ints(ints: &[i64]) -> Self {
        ints.iter().copied().map(Value::Int).collect()
    }

    /// The arity (number of fields) of the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Field access by position.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Project the tuple onto the given positions.
    ///
    /// This is the mechanical core of the paper's `π_{α;x̄}(f)` operation:
    /// position resolution (variables → coordinates) happens at the atom
    /// level (in `gumbo-sgf`); here we just pick coordinates.
    ///
    /// The projection collects straight into the `Arc<[Value]>` — one
    /// allocation total, and plain `i64` copies (no `Arc` refcount
    /// traffic) for every integer field.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        positions.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Estimated storage footprint in bytes (sum over the fields).
    pub fn estimated_bytes(&self) -> u64 {
        self.values.iter().map(Value::estimated_bytes).sum()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    /// Collects directly into the backing `Arc<[Value]>`: for
    /// exactly-sized iterators this is a single allocation, with no
    /// intermediate `Vec`.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

/// A fact `R(ā)`: a tuple tagged with its relation symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// The relation symbol `R`.
    pub relation: RelationName,
    /// The tuple `ā`.
    pub tuple: Tuple,
}

impl Fact {
    /// Create a fact.
    pub fn new(relation: impl Into<RelationName>, tuple: Tuple) -> Self {
        Fact {
            relation: relation.into(),
            tuple,
        }
    }

    /// Estimated storage footprint in bytes (the tuple only; the relation tag
    /// is schema information, not data).
    pub fn estimated_bytes(&self) -> u64 {
        self.tuple.estimated_bytes()
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.relation, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_picks_coordinates() {
        // π over R(1,2,1,3) onto coordinates [0,3] = (1,3), cf. §4 notation.
        let t = Tuple::from_ints(&[1, 2, 1, 3]);
        assert_eq!(t.project(&[0, 3]), Tuple::from_ints(&[1, 3]));
    }

    #[test]
    fn projection_can_duplicate_and_reorder() {
        let t = Tuple::from_ints(&[10, 20]);
        assert_eq!(t.project(&[1, 0, 1]), Tuple::from_ints(&[20, 10, 20]));
    }

    #[test]
    fn empty_projection_gives_nullary_tuple() {
        let t = Tuple::from_ints(&[1, 2]);
        let p = t.project(&[]);
        assert_eq!(p.arity(), 0);
        assert_eq!(p.estimated_bytes(), 0);
    }

    #[test]
    fn tuple_bytes_sum_fields() {
        assert_eq!(Tuple::from_ints(&[1, 2, 3, 4]).estimated_bytes(), 40);
    }

    #[test]
    fn fact_display() {
        let f = Fact::new("R", Tuple::from_ints(&[1, 2]));
        assert_eq!(f.to_string(), "R(1, 2)");
    }

    #[test]
    fn int_projection_performs_no_arc_bumps() {
        // Projecting away a string field must not touch its refcount: the
        // int path of `project` copies plain i64s, and only the selected
        // fields are cloned at all.
        let s: Arc<str> = Arc::from("shared");
        let t = Tuple::new(vec![
            Value::Int(1),
            Value::Str(s.clone()),
            Value::Int(2),
            Value::Int(3),
        ]);
        let before = Arc::strong_count(&s);
        let p = t.project(&[0, 2, 3]);
        assert_eq!(
            Arc::strong_count(&s),
            before,
            "all-int projection bumped a string Arc"
        );
        assert_eq!(p, Tuple::from_ints(&[1, 2, 3]));
        // Selecting the string field bumps it exactly once.
        let q = t.project(&[1]);
        assert_eq!(Arc::strong_count(&s), before + 1);
        drop(q);
        assert_eq!(Arc::strong_count(&s), before);
    }

    #[test]
    fn tuples_with_equal_values_are_equal() {
        assert_eq!(
            Tuple::from_ints(&[1, 2]),
            Tuple::new(vec![1i64.into(), 2i64.into()])
        );
    }
}
