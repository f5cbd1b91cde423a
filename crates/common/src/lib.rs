//! # gumbo-common
//!
//! Core data model for the Gumbo multi-semi-join engine: [`Value`]s,
//! [`Tuple`]s, [`Fact`]s, [`Relation`]s and [`Database`]s, together with the
//! byte-size accounting used throughout the MapReduce cost model of the
//! paper *Parallel Evaluation of Multi-Semi-Joins* (Daenen et al., 2016).
//!
//! The paper fixes an infinite domain **D** of data values and a collection
//! **S** of relation symbols, each with an arity; a *fact* `R(ā)` pairs a
//! relation symbol with a conforming tuple, and a *database* is a finite set
//! of facts (§3.1). This crate is a direct, strongly-typed rendering of
//! those definitions.
//!
//! Byte sizes follow the paper's experimental setup (§5.1): guard relations
//! of 100M 4-ary tuples occupy 4 GB and unary conditional relations of 100M
//! tuples occupy 1 GB, i.e. **10 bytes per value**. [`Value::estimated_bytes`]
//! encodes exactly that convention so that cost-model inputs measured on
//! scaled-down data have the same per-tuple weights as the paper's.

pub mod batch;
pub mod bytes;
pub mod database;
pub mod error;
pub mod io;
pub mod relation;
pub mod tuple;
pub mod value;

pub use batch::{StringDict, TupleBatch, TupleView, ValueRef};
pub use bytes::{ByteSize, MB};
pub use database::Database;
pub use error::{GumboError, Result};
pub use relation::{Relation, RelationName};
pub use tuple::{Fact, Tuple};
pub use value::Value;

#[cfg(test)]
mod proptests;
