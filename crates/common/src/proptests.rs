//! Property-based tests for the data-model laws the engine relies on.

#![cfg(test)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::{ByteSize, Database, Fact, Relation, Tuple, TupleBatch, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z]{0,12}".prop_map(Value::str),
    ]
}

fn arb_tuple(max_arity: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..=max_arity).prop_map(Tuple::new)
}

/// A value from a deliberately tiny string alphabet, so generated
/// batches hit dictionary collisions (the same string interned from
/// many rows) as well as int/str mixes within one column.
fn arb_colliding_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..3).prop_map(Value::Int),
        "[ab]{0,2}".prop_map(Value::str),
    ]
}

/// A batch-shaped input: one fixed arity and a list of tuples of that
/// arity (a `TupleBatch` holds same-arity rows by construction).
fn arb_batch_rows() -> impl Strategy<Value = (usize, Vec<Tuple>)> {
    let wide_rows =
        proptest::collection::vec(proptest::collection::vec(arb_colliding_value(), 4), 0..40);
    (0usize..=4, wide_rows).prop_map(|(arity, rows)| {
        let rows = rows
            .into_iter()
            .map(|mut values| {
                values.truncate(arity);
                Tuple::new(values)
            })
            .collect();
        (arity, rows)
    })
}

/// Rows for a relation of arity 0, 1, 2 or 4 over a tiny alphabet:
/// duplicates are common, and strings arrive in any order.
fn arb_relation_rows() -> impl Strategy<Value = (usize, Vec<Tuple>)> {
    let wide_rows =
        proptest::collection::vec(proptest::collection::vec(arb_colliding_value(), 4), 0..40);
    (
        prop_oneof![Just(0usize), Just(1), Just(2), Just(4)],
        wide_rows,
    )
        .prop_map(|(arity, rows)| {
            let rows = rows
                .into_iter()
                .map(|values| Tuple::new(values[..arity].to_vec()))
                .collect();
            (arity, rows)
        })
}

proptest! {
    /// Projection onto all positions is the identity.
    #[test]
    fn full_projection_is_identity(t in arb_tuple(6)) {
        let all: Vec<usize> = (0..t.arity()).collect();
        prop_assert_eq!(t.project(&all), t);
    }

    /// Projection composes: projecting twice equals projecting the
    /// composed position list.
    #[test]
    fn projection_composes(t in arb_tuple(6), seed in any::<u64>()) {
        if t.arity() == 0 { return Ok(()); }
        let p1: Vec<usize> = (0..t.arity()).filter(|i| (seed >> i) & 1 == 1).collect();
        if p1.is_empty() { return Ok(()); }
        let p2: Vec<usize> = (0..p1.len()).rev().collect();
        let composed: Vec<usize> = p2.iter().map(|&i| p1[i]).collect();
        prop_assert_eq!(t.project(&p1).project(&p2), t.project(&composed));
    }

    /// Byte size of a tuple is the sum of its values' sizes and is
    /// invariant under projection permutations.
    #[test]
    fn tuple_bytes_additive(t in arb_tuple(6)) {
        let total: u64 = t.values().iter().map(Value::estimated_bytes).sum();
        prop_assert_eq!(t.estimated_bytes(), total);
        let rev: Vec<usize> = (0..t.arity()).rev().collect();
        prop_assert_eq!(t.project(&rev).estimated_bytes(), total);
    }

    /// Relations are sets: inserting the same tuples in any order yields
    /// equal relations with deterministic iteration order.
    #[test]
    fn relation_insertion_order_irrelevant(
        tuples in proptest::collection::vec(proptest::collection::vec(any::<i64>(), 2), 0..20),
    ) {
        let mut forward = Relation::new("R", 2);
        for t in &tuples {
            forward.insert(Tuple::from_ints(t)).unwrap();
        }
        let mut backward = Relation::new("R", 2);
        for t in tuples.iter().rev() {
            backward.insert(Tuple::from_ints(t)).unwrap();
        }
        prop_assert_eq!(&forward, &backward);
        let order: Vec<Tuple> = forward.iter().map(|t| t.to_tuple()).collect();
        let mut sorted = order.clone();
        sorted.sort();
        prop_assert_eq!(order, sorted);
    }

    /// Database fact counting is consistent with relation sizes, and
    /// membership reflects insertion.
    #[test]
    fn database_fact_accounting(
        facts in proptest::collection::vec((0..3u8, proptest::collection::vec(any::<i64>(), 2)), 0..30),
    ) {
        let mut db = Database::new();
        for (r, t) in &facts {
            let name = ["A", "B", "C"][*r as usize];
            db.insert_fact(Fact::new(name, Tuple::from_ints(t))).unwrap();
        }
        let total: usize = db.relations().map(Relation::len).sum();
        prop_assert_eq!(db.fact_count(), total);
        for (r, t) in &facts {
            let name = ["A", "B", "C"][*r as usize];
            prop_assert!(db.contains_fact(&name.into(), &Tuple::from_ints(t)));
        }
    }

    /// Columnar batches are lossless: any same-arity tuple sequence
    /// (random int/str mixes, dictionary collisions included) round-trips
    /// through a `TupleBatch` — row by row, in bulk, and through the wire
    /// encoding — with byte accounting intact.
    #[test]
    fn batch_round_trips_tuples_losslessly(input in arb_batch_rows()) {
        let (arity, rows) = input;
        let mut batch = TupleBatch::new(arity);
        for t in &rows {
            batch.push_tuple(t);
        }
        prop_assert_eq!(batch.len(), rows.len());

        // Row-by-row and bulk materialization both reproduce the input.
        for (i, t) in rows.iter().enumerate() {
            prop_assert_eq!(&batch.tuple(i), t);
            prop_assert_eq!(batch.view(i).to_tuple(), t.clone());
            prop_assert_eq!(batch.row_bytes(i), t.estimated_bytes());
        }
        prop_assert_eq!(batch.to_tuples(), rows.clone());
        let total: u64 = rows.iter().map(Tuple::estimated_bytes).sum();
        prop_assert_eq!(batch.estimated_bytes(), total);

        // View order agrees with Tuple order on every row pair.
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                prop_assert_eq!(
                    batch.view(i).cmp(&batch.view(j)),
                    rows[i].cmp(&rows[j]),
                    "rows {} vs {}", i, j
                );
            }
        }

        // The wire encoding reproduces the same batch.
        let mut buf = Vec::new();
        batch.encode_into(&mut buf).unwrap();
        let mut pos = 0;
        let decoded = TupleBatch::decode_from(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len(), "decode must consume the frame");
        prop_assert_eq!(decoded.to_tuples(), rows);
        prop_assert_eq!(decoded.estimated_bytes(), total);
    }

    /// Frame decoding never panics: arbitrary bytes, and a valid frame
    /// with one byte overwritten, decode to `Ok` or `Err`. An `Ok` batch
    /// is consistent enough to materialize every row.
    #[test]
    fn batch_decode_never_panics(
        input in arb_batch_rows(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (arity, rows) = input;
        let mut batch = TupleBatch::new(arity);
        for t in &rows {
            batch.push_tuple(t);
        }
        let mut frame = Vec::new();
        batch.encode_into(&mut frame).unwrap();
        let i = at % frame.len();
        frame[i] = byte;
        for buf in [&frame[..], &noise[..]] {
            let mut pos = 0;
            if let Ok(decoded) = TupleBatch::decode_from(buf, &mut pos) {
                prop_assert!(pos <= buf.len());
                // A nullary batch's row count is bounded by nothing else.
                if decoded.len() <= buf.len() {
                    prop_assert_eq!(decoded.to_tuples().len(), decoded.len());
                }
            }
        }
    }

    /// Cross-batch row copies preserve content and byte accounting, and
    /// the target dictionary interns each distinct string at most once
    /// however many source rows repeat it.
    #[test]
    fn batch_row_copies_are_lossless(input in arb_batch_rows()) {
        let (arity, rows) = input;
        let mut src = TupleBatch::new(arity);
        for t in &rows {
            src.push_tuple(t);
        }
        let mut dst = TupleBatch::new(arity);
        // Copy in reverse so source and target row indices differ.
        for i in (0..rows.len()).rev() {
            dst.push_row(&src, i);
        }
        let expected: Vec<Tuple> = rows.iter().rev().cloned().collect();
        prop_assert_eq!(dst.to_tuples(), expected);
        prop_assert_eq!(dst.estimated_bytes(), src.estimated_bytes());
        let distinct: std::collections::BTreeSet<&str> = rows
            .iter()
            .flat_map(|t| t.values())
            .filter_map(|v| match v {
                Value::Str(s) => Some(&**s),
                Value::Int(_) => None,
            })
            .collect();
        prop_assert_eq!(dst.dict().len(), distinct.len());
    }

    /// The columnar relation is the set its tuples form: against a
    /// `BTreeSet<Tuple>` oracle it has the same iteration order, length,
    /// membership and byte count — built in bulk, a tuple at a time, or
    /// from a batch — at arity 0, 1, 2 and 4, with duplicates, and with
    /// strings first seen out of content order.
    #[test]
    fn relation_matches_a_btreeset_oracle(
        input in arb_relation_rows(),
        probes in proptest::collection::vec(proptest::collection::vec(arb_colliding_value(), 4), 0..10),
    ) {
        let (arity, rows) = input;
        let oracle: BTreeSet<Tuple> = rows.iter().cloned().collect();
        let bulk = Relation::from_tuples("R", arity, rows.clone()).unwrap();
        let mut one_by_one = Relation::new("R", arity);
        for t in &rows {
            let fresh = !one_by_one.contains(t);
            prop_assert_eq!(one_by_one.insert(t.clone()).unwrap(), fresh);
        }
        let mut batch = TupleBatch::new(arity);
        for t in rows.iter().rev() {
            batch.push_tuple(t);
        }
        let from_batch = Relation::from_batch("R", batch);
        let expected: Vec<Tuple> = oracle.iter().cloned().collect();
        let oracle_bytes: u64 = oracle.iter().map(Tuple::estimated_bytes).sum();
        for rel in [&bulk, &one_by_one, &from_batch] {
            prop_assert_eq!(rel.len(), oracle.len());
            prop_assert_eq!(rel.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(rel.estimated_bytes(), oracle_bytes);
            for t in &rows {
                prop_assert!(rel.contains(t));
            }
            for probe in &probes {
                let probe = Tuple::new(probe[..arity].to_vec());
                prop_assert_eq!(rel.contains(&probe), oracle.contains(&probe));
            }
        }
        // Equal by content, though each saw its strings in another order.
        prop_assert_eq!(&bulk, &one_by_one);
        prop_assert_eq!(&bulk, &from_batch);
    }

    /// Merging sorted runs is the union of the sets, and any slice of a
    /// relation's rows encodes to a frame that decodes to that slice.
    #[test]
    fn sorted_runs_merge_and_slices_encode(input in arb_relation_rows(), cuts in 1usize..5) {
        let (arity, rows) = input;
        let oracle: BTreeSet<Tuple> = rows.iter().cloned().collect();
        let runs: Vec<TupleBatch> = (0..cuts)
            .map(|c| {
                let mut run = TupleBatch::new(arity);
                for t in rows.iter().skip(c).step_by(cuts) {
                    run.push_tuple(t);
                }
                run.sort_dedup();
                run
            })
            .collect();
        let merged = TupleBatch::merge_sorted(arity, runs);
        prop_assert_eq!(merged.to_tuples(), oracle.iter().cloned().collect::<Vec<_>>());
        for start in 0..merged.len() {
            let end = (start + 3).min(merged.len());
            let mut frame = Vec::new();
            merged.encode_range_into(start..end, &mut frame).unwrap();
            let decoded = TupleBatch::decode_from(&frame, &mut 0).unwrap();
            prop_assert_eq!(decoded.to_tuples(), merged.to_tuples()[start..end].to_vec());
        }
    }

    /// ByteSize arithmetic is associative/commutative where it should be
    /// and MB conversion is consistent.
    #[test]
    fn bytesize_laws(a in 0u64..1 << 40, b in 0u64..1 << 40, k in 1u64..1000) {
        let (x, y) = (ByteSize::bytes(a), ByteSize::bytes(b));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y).as_bytes(), a + b);
        prop_assert_eq!(x.scaled(k).as_bytes(), a * k);
        prop_assert!((ByteSize::bytes(a).as_mb() - a as f64 / 1e6).abs() < 1e-9);
        prop_assert_eq!(x.saturating_sub(y) + y.saturating_sub(x),
                        ByteSize::bytes(a.abs_diff(b)));
    }
}
