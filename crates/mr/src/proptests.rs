//! Property-based tests for the cost model, the cluster scheduler, the
//! program → DAG lowering, the map emitter, and the spill merge.

#![cfg(test)]

use proptest::prelude::*;

use gumbo_common::{ByteSize, Tuple};

use crate::batch_shuffle::{
    drain, group_reference, with_forced_key_hash, BatchPartition, PairBatch,
};
use crate::cluster::lpt_makespan;
use crate::cost::{job_cost, CostConstants, CostModelKind};
use crate::dag::jobs_conflict;
use crate::executor::packed_counts;
use crate::job::test_support::noop_job;
use crate::job::{Emitter, Job};
use crate::message::{Message, MsgRef, Payload};
use crate::profile::{InputPartition, JobProfile};
use crate::program::MrProgram;
use crate::shuffle::{MemBudget, MemoryBudget, ShuffleSpill};

/// A no-op job touching relations `Rk` for the given name codes.
fn rel_job(inputs: &[u8], outputs: &[u8]) -> Job {
    noop_job(
        format!("job({inputs:?}->{outputs:?})"),
        inputs.iter().map(|k| format!("R{k}")),
        outputs.iter().map(|k| format!("R{k}")),
    )
}

fn part(n_mb: u64, m_mb: u64, records: u64, mappers: usize) -> InputPartition {
    InputPartition {
        label: "p".into(),
        input: ByteSize::mb(n_mb),
        map_output: ByteSize::mb(m_mb),
        records_out: records,
        mappers: mappers.max(1),
    }
}

/// The packed `(output_bytes, records_out)` of §5.1 (1) as the map task
/// used to compute them: index-sort the batch, then charge each run of
/// equal keys its key bytes once and every message's bytes.
fn packed_counts_by_sorting(batch: &PairBatch) -> (u64, u64) {
    let order = batch.sort_indices();
    let (mut bytes, mut records) = (0u64, 0u64);
    let mut at = 0;
    while at < order.len() {
        let key = batch.key_view(order[at] as usize);
        bytes += key.estimated_bytes();
        records += 1;
        while at < order.len() && batch.key_view(order[at] as usize) == key {
            bytes += batch.row_bytes(order[at] as usize) - key.estimated_bytes();
            at += 1;
        }
    }
    (bytes, records)
}

/// Decode `frame` and, if it decodes, read every row's key and message
/// view, hash and bytes; whether it decoded.
fn read_every_view(frame: &[u8]) -> bool {
    let Ok(batch) = PairBatch::decode(frame) else {
        return false;
    };
    for row in 0..batch.len() {
        let _ = batch.key_view(row).to_tuple();
        let _ = batch.hashes()[row];
        let _ = batch.row_bytes(row);
        let _ = batch.msg_view(row).to_message();
    }
    true
}

proptest! {
    /// Hash-counted packing equals the sort-based count on any batch —
    /// int and string keys of mixed arity drawn from a small domain (heavy
    /// repetition), the empty batch included — with the real key hashes
    /// and with an all-equal hash vector, where every probe collides and
    /// only the key comparison tells keys apart.
    #[test]
    fn packed_counts_match_the_sort_based_reference(
        keys in proptest::collection::vec((0i64..6, 0usize..3, any::<bool>()), 0usize..200),
    ) {
        let mut batch = PairBatch::new();
        for (seq, &(k, arity, string)) in keys.iter().enumerate() {
            let value = |i: usize| {
                if string && i == 0 {
                    gumbo_common::Value::str(format!("k{k}"))
                } else {
                    gumbo_common::Value::Int(k + i as i64)
                }
            };
            let key: Tuple = (0..arity).map(value).collect();
            let msg = if seq % 2 == 0 {
                Message::Assert { cond: seq as u32 }
            } else {
                Message::Req {
                    cond: seq as u32,
                    payload: Payload::Tuple(Tuple::from_ints(&[seq as i64, k])),
                }
            };
            batch.push_pair(&key, &msg);
        }
        let expected = packed_counts_by_sorting(&batch);
        prop_assert_eq!(packed_counts(&batch, batch.hashes()), expected);
        prop_assert_eq!(packed_counts(&batch, &vec![7; batch.len()]), expected, "all probes collide");
        prop_assert_eq!(packed_counts(&PairBatch::new(), &[]), (0, 0), "empty batch");
        // The same draws as integer keys of up to two cells, emitted as a
        // mapper emits them: copied from their cells and hashed there.
        let mut ints = PairBatch::new();
        let mut out = Emitter::new(&mut ints);
        for (seq, &(k, arity, _)) in keys.iter().enumerate() {
            let key: Vec<gumbo_common::Value> =
                (0..arity).map(|i| gumbo_common::Value::Int(k + i as i64)).collect();
            out.key(&key, MsgRef::Assert { cond: seq as u32 });
        }
        let expected = packed_counts_by_sorting(&ints);
        prop_assert_eq!(packed_counts(&ints, ints.hashes()), expected);
        prop_assert_eq!(packed_counts(&ints, &vec![7; ints.len()]), expected, "integer keys, all probes collide");
    }

    /// The emitter's in-place keys and messages are the ones the mapper
    /// used to build: a projected push equals `push_pair(&t.project(pos),
    /// m)`, a whole-row or by-values key equals `push_pair(&t, m)`, and
    /// every borrowed message shape equals its owned `Message` — key view,
    /// hash, row bytes, message and `to_pairs`. Tuples mix ints and
    /// strings (one dictionary shared across rows), or hold integers only;
    /// positions repeat and may be empty (the nullary key) or name three
    /// cells. Integer keys of up to two cells are copied and hashed from
    /// their cells, every other key takes the generic path, so both sides
    /// of that boundary are compared here: integer rows read from a source
    /// batch that held strings before a `clear()` (its columns keep their
    /// tags, its dictionary is empty), keys that mix string and integer
    /// positions, 3-cell integer keys, and payload rows of either kind.
    #[test]
    fn emitted_keys_equal_pushed_owned_keys(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec((0i64..5, any::<bool>()), 0usize..5),
                proptest::collection::vec(0usize..5, 0usize..4),
                any::<bool>(),
                (any::<bool>(), any::<bool>()),
            ),
            0usize..60,
        ),
    ) {
        let mut emitted = PairBatch::new();
        let mut pushed = PairBatch::new();
        for (seq, (cells, positions, projected, (ints_only, reused))) in rows.iter().enumerate() {
            let tuple: Tuple = cells
                .iter()
                .map(|&(v, string)| {
                    if string && !ints_only {
                        gumbo_common::Value::str(format!("s{v}"))
                    } else {
                        gumbo_common::Value::Int(v)
                    }
                })
                .collect();
            // Positions index into the tuple; an empty tuple projects
            // onto the empty key.
            let positions: Vec<usize> = if tuple.arity() == 0 {
                Vec::new()
            } else {
                positions.iter().map(|&i| i % tuple.arity()).collect()
            };
            // The scanned row the mapper reads, and every message shape
            // next to the owned message it stands for.
            let mut row = gumbo_common::TupleBatch::new(tuple.arity());
            if *reused {
                // A string in every column, then cleared: tags stay.
                row.push_tuple(&(0..tuple.arity()).map(|_| gumbo_common::Value::str("old")).collect());
                row.clear();
            }
            row.push_tuple(&tuple);
            let view = row.view(0);
            let cond = seq as u32;
            let (msg, owned) = match seq % 5 {
                0 => (MsgRef::Assert { cond }, Message::Assert { cond }),
                1 => (
                    MsgRef::Req { cond, tuple: view, positions: &positions },
                    Message::Req { cond, payload: Payload::Tuple(tuple.project(&positions)) },
                ),
                2 => (
                    MsgRef::ReqRef { cond, guard: 3, id: seq as u64 },
                    Message::Req { cond, payload: Payload::Ref { guard: 3, id: seq as u64 } },
                ),
                3 => (MsgRef::Tag { rel: cond }, Message::Tag { rel: cond }),
                _ => (
                    MsgRef::GuardTuple { guard: cond, tuple: view },
                    Message::GuardTuple { guard: cond, tuple: tuple.clone() },
                ),
            };
            let mut out = Emitter::new(&mut emitted);
            if *projected {
                out.project(view, &positions, msg);
                pushed.push_pair(&tuple.project(&positions), &owned);
            } else if seq % 2 == 0 {
                out.key(tuple.values(), msg);
                pushed.push_pair(&tuple, &owned);
            } else {
                out.tuple(view, msg);
                pushed.push_pair(&tuple, &owned);
            }
        }
        prop_assert_eq!(emitted.len(), pushed.len());
        prop_assert_eq!(emitted.hashes(), pushed.hashes());
        prop_assert_eq!(emitted.estimated_bytes(), pushed.estimated_bytes());
        for row in 0..pushed.len() {
            prop_assert_eq!(emitted.key_view(row), pushed.key_view(row));
            prop_assert_eq!(emitted.hashes()[row], crate::hash::hash_tuple(&pushed.key_tuple(row)));
            prop_assert_eq!(emitted.row_bytes(row), pushed.row_bytes(row));
            prop_assert_eq!(emitted.message(row), pushed.message(row));
        }
        prop_assert_eq!(emitted.to_pairs(), pushed.to_pairs());
    }

    /// A reducer's borrowed view of a message is the message: for all five
    /// shapes — payload tuples of any arity from 0, ints and strings
    /// mixed — `MsgView::to_message` equals the message pushed and
    /// `PairBatch::message`, in the map task's batch and in the frame it
    /// spills to.
    #[test]
    fn message_views_equal_materialized_messages(
        rows in proptest::collection::vec(
            (
                0u8..5,
                proptest::collection::vec((0i64..4, any::<bool>()), 0usize..4),
                any::<u32>(),
                any::<u64>(),
            ),
            0usize..40,
        ),
    ) {
        let mut batch = PairBatch::new();
        let mut pushed = Vec::new();
        for (seq, (shape, cells, small, wide)) in rows.iter().enumerate() {
            let tuple: Tuple = cells
                .iter()
                .map(|&(v, string)| {
                    if string {
                        gumbo_common::Value::str(format!("p{v}"))
                    } else {
                        gumbo_common::Value::Int(v)
                    }
                })
                .collect();
            let msg = match shape {
                0 => Message::Assert { cond: *small },
                1 => Message::Req { cond: *small, payload: Payload::Tuple(tuple) },
                2 => Message::Req {
                    cond: *small,
                    payload: Payload::Ref { guard: small.rotate_left(7), id: *wide },
                },
                3 => Message::Tag { rel: *small },
                _ => Message::GuardTuple { guard: *small, tuple },
            };
            batch.push_pair(&Tuple::from_ints(&[seq as i64 % 3]), &msg);
            pushed.push(msg);
        }
        let mut frame = Vec::new();
        batch.encode_into(&mut frame).unwrap();
        let decoded = PairBatch::decode(&frame).unwrap();
        for b in [&batch, &decoded] {
            for (row, msg) in pushed.iter().enumerate() {
                prop_assert_eq!(&b.msg_view(row).to_message(), msg);
                prop_assert_eq!(&b.message(row), msg);
            }
        }
    }

    /// `PairBatch::decode` never panics: arbitrary bytes, and every
    /// single-byte mutation drawn of a valid frame, decode to `Ok` or
    /// `Err`; and every key and message view of a frame that decodes
    /// reads without panicking.
    #[test]
    fn frame_decode_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0usize..200),
        keys in proptest::collection::vec((0i64..4, 0usize..3, any::<bool>()), 1usize..12),
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 1usize..32),
    ) {
        read_every_view(&noise);
        let mut batch = PairBatch::new();
        for (seq, &(k, arity, string)) in keys.iter().enumerate() {
            let value = |i: usize| {
                if string && i == 0 {
                    gumbo_common::Value::str(format!("k{k}"))
                } else {
                    gumbo_common::Value::Int(k + i as i64)
                }
            };
            let key: Tuple = (0..arity).map(value).collect();
            let msg = match seq % 5 {
                0 => Message::Assert { cond: seq as u32 },
                1 => Message::Req { cond: 1, payload: Payload::Tuple(key.clone()) },
                2 => Message::Req { cond: 2, payload: Payload::Ref { guard: 3, id: k as u64 } },
                3 => Message::Tag { rel: seq as u32 },
                _ => Message::GuardTuple { guard: 0, tuple: key.clone() },
            };
            batch.push_pair(&key, &msg);
        }
        let mut frame = Vec::new();
        batch.encode_into(&mut frame).unwrap();
        prop_assert!(read_every_view(&frame), "the valid frame decodes");
        for &(at, byte) in &mutations {
            let mut mutated = frame.clone();
            let at = (at % mutated.len() as u64) as usize;
            mutated[at] = byte;
            read_every_view(&mutated);
        }
    }

    #[test]
    fn cost_is_sane(
        n in 0u64..100_000, m in 0u64..100_000, r in 1usize..500,
        k in 0u64..100_000, mappers in 1usize..500,
    ) {
        let c = CostConstants::default();
        let profile = JobProfile {
            partitions: vec![part(n, m, m * 1000, mappers)],
            reducers: r,
            output: ByteSize::mb(k),
        };
        for kind in [CostModelKind::Gumbo, CostModelKind::Wang] {
            let cost = job_cost(kind, &c, &profile);
            prop_assert!(cost.is_finite());
            prop_assert!(cost >= c.job_overhead - 1e-9);
        }
    }

    /// Cost is monotone in input size, map output, and reduce output.
    #[test]
    fn cost_monotone(
        n in 0u64..50_000, m in 0u64..50_000, k in 0u64..50_000,
        dn in 0u64..10_000, dm in 0u64..10_000, dk in 0u64..10_000,
    ) {
        let c = CostConstants::default();
        let base = JobProfile {
            partitions: vec![part(n, m, 0, 8)],
            reducers: 16,
            output: ByteSize::mb(k),
        };
        let bigger = JobProfile {
            partitions: vec![part(n + dn, m + dm, 0, 8)],
            reducers: 16,
            output: ByteSize::mb(k + dk),
        };
        prop_assert!(
            job_cost(CostModelKind::Gumbo, &c, &bigger)
                >= job_cost(CostModelKind::Gumbo, &c, &base) - 1e-9
        );
    }

    /// More mappers never increase the map cost (per-task shares shrink).
    #[test]
    fn more_mappers_never_hurt(m in 1u64..100_000, mappers in 1usize..100) {
        let c = CostConstants::default();
        let fewer = part(m, m, 0, mappers);
        let more = part(m, m, 0, mappers * 2);
        prop_assert!(c.cost_map(&more) <= c.cost_map(&fewer) + 1e-9);
    }

    /// With a single input partition the two models coincide exactly.
    #[test]
    fn models_coincide_on_single_partition(
        n in 0u64..50_000, m in 0u64..50_000, records in 0u64..10_000_000,
        mappers in 1usize..100, r in 1usize..100, k in 0u64..10_000,
    ) {
        let c = CostConstants::default();
        let profile = JobProfile {
            partitions: vec![part(n, m, records, mappers)],
            reducers: r,
            output: ByteSize::mb(k),
        };
        let g = job_cost(CostModelKind::Gumbo, &c, &profile);
        let w = job_cost(CostModelKind::Wang, &c, &profile);
        prop_assert!((g - w).abs() < 1e-6, "gumbo {} vs wang {}", g, w);
    }

    /// LPT makespan bounds: max task ≤ makespan ≤ total work, and
    /// makespan ≥ total/slots (work conservation).
    #[test]
    fn lpt_bounds(
        durations in proptest::collection::vec(0.0f64..100.0, 1..40),
        slots in 1usize..20,
    ) {
        let ms = lpt_makespan(&durations, slots);
        let total: f64 = durations.iter().sum();
        let max = durations.iter().cloned().fold(0.0, f64::max);
        prop_assert!(ms >= max - 1e-9);
        prop_assert!(ms <= total + 1e-9);
        prop_assert!(ms >= total / slots as f64 - 1e-9);
        // LPT is a 4/3-approximation of the optimum, which is itself
        // >= max(total/slots, max): check the guarantee.
        let lower = (total / slots as f64).max(max);
        prop_assert!(ms <= 4.0 / 3.0 * lower + max + 1e-9);
    }

    /// Makespan is monotone: adding a task never shrinks it.
    #[test]
    fn lpt_monotone_in_tasks(
        durations in proptest::collection::vec(0.0f64..100.0, 1..30),
        extra in 0.0f64..100.0,
        slots in 1usize..10,
    ) {
        let before = lpt_makespan(&durations, slots);
        let mut more = durations.clone();
        more.push(extra);
        prop_assert!(lpt_makespan(&more, slots) >= before - 1e-9);
    }

    /// Merge-of-runs preserves the grouping order reducers observe: for
    /// any pair sequence (mixed message shapes, int and string keys and
    /// payloads included) and any budget — however many columnar spill
    /// frames and intermediate merge passes it forces — the grouped stream
    /// equals the `BTreeMap` grouping oracle (keys in `(hash, Tuple)`
    /// order, values in global emission order), with the paper's total
    /// byte accounting. Each case runs twice: with the real key hashes,
    /// and with every key forced onto one hash, so that the sort, the
    /// flushes, the merge passes and every group boundary take the
    /// collision path.
    #[test]
    fn spill_merge_preserves_reducer_grouping_order(
        keys in proptest::collection::vec(0i64..12, 0usize..120),
        budget in 0u64..400,
    ) {
        // Vary message shape with the emission index so frames carry
        // every kind, including dictionary-encoded payload tuples, and
        // order within a key is observable.
        let pairs: Vec<(Tuple, Message)> = keys
            .iter()
            .enumerate()
            .map(|(seq, &k)| {
                let key = if k % 3 == 0 {
                    Tuple::new(vec![gumbo_common::Value::str(format!("k{k}"))])
                } else {
                    Tuple::from_ints(&[k])
                };
                let msg = match seq % 4 {
                    0 => Message::Assert { cond: seq as u32 },
                    1 => Message::Req {
                        cond: seq as u32,
                        payload: Payload::Ref { guard: 0, id: seq as u64 },
                    },
                    2 => Message::Req {
                        cond: seq as u32,
                        payload: Payload::Tuple(Tuple::new(vec![
                            gumbo_common::Value::Int(seq as i64),
                            gumbo_common::Value::str("p"),
                        ])),
                    },
                    _ => Message::GuardTuple {
                        guard: seq as u32,
                        tuple: Tuple::from_ints(&[seq as i64]),
                    },
                };
                (key, msg)
            })
            .collect();
        let expected_bytes: u64 = pairs
            .iter()
            .map(|(k, v)| k.estimated_bytes() + v.estimated_bytes())
            .sum();

        // One batch through a budget-charged partition, a row per push so
        // that the budget settles (and may flush a run) after every pair.
        let check = || -> Result<(), TestCaseError> {
            let expected = group_reference(&pairs);
            let tracker = MemoryBudget::new(MemBudget::bytes(budget));
            let spill = ShuffleSpill::new("proptest");
            let mut batch = PairBatch::new();
            for (k, v) in &pairs {
                batch.push_pair(k, v);
            }
            let outputs = [batch];
            let mut part = BatchPartition::new(0, &tracker, &spill, &outputs, 1);
            for row in 0..outputs[0].len() as u32 {
                part.push_rows(0, &[row]).unwrap();
            }
            prop_assert_eq!(part.total_bytes(), expected_bytes, "total byte accounting");
            let (stream, stats) = part.into_groups().unwrap();
            let got = drain(stream);

            prop_assert_eq!(got, expected, "budget {} (stats {:?})", budget, stats);
            if let Some(limit) = tracker.limit() {
                prop_assert!(tracker.peak() <= limit);
            }
            prop_assert_eq!(tracker.used(), 0, "all charges released");
            Ok(())
        };
        check()?;
        with_forced_key_hash(0x5eed, check)?;
    }

    /// `into_dag()` over random programs preserves round semantics as
    /// dependencies: every edge points forward in round order, the flat
    /// (round-order) indexing is itself a valid topological order,
    /// `topo_order()` respects every edge, and any pair of jobs that
    /// conflict on a relation is explicitly ordered by an edge.
    #[test]
    fn into_dag_topo_order_consistent_with_rounds(
        spec in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..6, 0usize..4),
                    proptest::collection::vec(0u8..6, 0usize..3),
                ),
                1..4,
            ),
            1..5,
        ),
    ) {
        let mut program = MrProgram::new();
        for round in &spec {
            program.push_round(
                round.iter().map(|(ins, outs)| rel_job(ins, outs)).collect(),
            );
        }
        let expected_jobs = program.num_jobs();
        let expected_rounds = program.num_rounds();

        let dag = program.into_dag();
        prop_assert_eq!(dag.len(), expected_jobs);
        prop_assert_eq!(dag.num_rounds(), expected_rounds);

        // Edges point forward both in flat order (so the round-order
        // flattening is a topological order) and in round order.
        for (u, v) in dag.edges() {
            prop_assert!(u < v);
            prop_assert!(dag.node(u).round <= dag.node(v).round);
        }

        // topo_order() is a permutation respecting every edge.
        let order = dag.topo_order();
        prop_assert_eq!(order.len(), dag.len());
        let mut position = vec![usize::MAX; dag.len()];
        for (at, &node) in order.iter().enumerate() {
            prop_assert_eq!(position[node], usize::MAX, "node emitted twice");
            position[node] = at;
        }
        for (u, v) in dag.edges() {
            prop_assert!(position[u] < position[v]);
        }

        // Soundness: every conflicting pair is ordered by a direct edge,
        // so no topological order can reorder a read past a write.
        for u in 0..dag.len() {
            for v in (u + 1)..dag.len() {
                if jobs_conflict(&dag.node(u).job, &dag.node(v).job) {
                    prop_assert!(
                        dag.node(v).deps().contains(&u),
                        "conflicting pair ({}, {}) lacks an edge", u, v
                    );
                }
            }
        }
    }
}
