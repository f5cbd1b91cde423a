//! Databases: finite collections of relations keyed by symbol.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{GumboError, Result};
use crate::relation::{Relation, RelationName};
use crate::tuple::{Fact, Tuple};

/// A database **DB**: a finite set of facts, organized per relation.
///
/// The paper treats a database as a flat set of facts; grouping them per
/// relation symbol is the standard physical organization and is what both
/// the simulated DFS and the MapReduce input format consume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<RelationName, Relation>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Add (or replace) a relation.
    pub fn add_relation(&mut self, relation: Relation) {
        self.relations.insert(relation.name().clone(), relation);
    }

    /// Insert a single fact, creating its relation on first sight. Like
    /// [`Relation::insert`], this costs O(n) unless the tuple sorts last:
    /// load many facts by building each relation with
    /// [`Relation::from_tuples`] and [`Database::add_relation`].
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool> {
        let arity = fact.tuple.arity();
        let rel = self
            .relations
            .entry(fact.relation.clone())
            .or_insert_with(|| Relation::new(fact.relation.clone(), arity));
        rel.insert(fact.tuple)
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &RelationName) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Look up a relation by name, erroring if absent.
    pub fn relation_or_err(&self, name: &RelationName) -> Result<&Relation> {
        self.relation(name)
            .ok_or_else(|| GumboError::UnknownRelation(name.to_string()))
    }

    /// Convenience lookup by `&str`.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(&RelationName::from(name))
    }

    /// Whether the database holds a relation with this name.
    pub fn contains_relation(&self, name: &RelationName) -> bool {
        self.relations.contains_key(name)
    }

    /// Remove a relation, returning it if present.
    pub fn remove_relation(&mut self, name: &RelationName) -> Option<Relation> {
        self.relations.remove(name)
    }

    /// Iterate over relations in deterministic (name-sorted) order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.values()
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &RelationName> + '_ {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Membership test for a fact.
    pub fn contains_fact(&self, relation: &RelationName, tuple: &Tuple) -> bool {
        self.relations
            .get(relation)
            .is_some_and(|r| r.contains(tuple))
    }

    /// Total estimated bytes across all relations.
    pub fn estimated_bytes(&self) -> u64 {
        self.relations.values().map(Relation::estimated_bytes).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Database [{} relations, {} facts]",
            self.relation_count(),
            self.fact_count()
        )?;
        for r in self.relations() {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Relation> for Database {
    fn from_iter<I: IntoIterator<Item = Relation>>(iter: I) -> Self {
        let mut db = Database::new();
        for r in iter {
            db.add_relation(r);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(rel: &str, ints: &[i64]) -> Fact {
        Fact::new(rel, Tuple::from_ints(ints))
    }

    #[test]
    fn insert_fact_creates_relation() {
        let mut db = Database::new();
        assert!(db.insert_fact(fact("R", &[1, 2])).unwrap());
        assert!(db.contains_fact(&"R".into(), &Tuple::from_ints(&[1, 2])));
        assert_eq!(db.relation_count(), 1);
    }

    #[test]
    fn insert_fact_checks_arity_after_creation() {
        let mut db = Database::new();
        db.insert_fact(fact("R", &[1, 2])).unwrap();
        assert!(db.insert_fact(fact("R", &[1])).is_err());
    }

    #[test]
    fn unknown_relation_lookup_errors() {
        let db = Database::new();
        assert!(matches!(
            db.relation_or_err(&"Q".into()),
            Err(GumboError::UnknownRelation(_))
        ));
    }

    #[test]
    fn fact_count_sums_relations() {
        let mut db = Database::new();
        db.insert_fact(fact("R", &[1])).unwrap();
        db.insert_fact(fact("R", &[2])).unwrap();
        db.insert_fact(fact("S", &[1])).unwrap();
        assert_eq!(db.fact_count(), 3);
    }

    #[test]
    fn from_iterator_collects_relations() {
        let db: Database = vec![Relation::new("A", 1), Relation::new("B", 2)]
            .into_iter()
            .collect();
        assert_eq!(db.relation_count(), 2);
        assert!(db.get("A").is_some());
    }
}
