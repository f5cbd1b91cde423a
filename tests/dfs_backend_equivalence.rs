//! Cross-backend equivalence: the durable file-segment DFS must be
//! observationally identical to the in-memory simulated DFS.
//!
//! On every preset, the storage-axis slices of the engine matrix
//! (`tests/common/matrix.rs`) run `SimDfs` and `FileDfs` at one and at
//! three job slots against the same serial reference: byte-identical
//! relations, identical logical I/O meters and exact agreement on the
//! paper's four metrics. The full matrix (`tests/engine_matrix.rs`) adds
//! every worker count and budget. What else is here is what only the file
//! backend has: restart (a reopened store serves the exact relations a
//! previous process committed), a warm cache (a second pass on one handle
//! hits the cache with identical statistics) and cache pressure (a block
//! cache far smaller than the input evicts — observably — without
//! changing any answer). Last, on both backends a scan's `fetch` is
//! exactly its in-place visit, collected, and a multi-frame `peek` equals
//! the in-memory one.

mod common;

use std::path::PathBuf;

use common::matrix;
use gumbo::datagen::queries;
use gumbo::prelude::*;

const TUPLES: usize = 250;
const SEED: u64 = 7;

/// A fresh, empty temp root for one file-backed run.
fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gumbo-dfs-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn engine() -> GumboEngine {
    GumboEngine::new(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        EvalOptions::default(),
    )
}

/// One worker, no budget, greedy plans: both backends at `slots` job slots.
fn check_backends(slots: usize) {
    matrix::check(queries::presets(), |row| {
        row.executor == ExecutorKind::Simulated
            && row.slots() == Some(slots)
            && row.budget().is_none()
            && row.grouping == Grouping::Greedy
    });
}

#[test]
fn both_backends_agree_on_every_preset_at_one_job_slot() {
    check_backends(1);
}

#[test]
fn both_backends_agree_on_every_preset_at_three_job_slots() {
    check_backends(3);
}

/// Durability: evaluate into a file store, drop the handle, reopen the
/// same root in a fresh instance and find the exact same relations —
/// inputs, intermediates and answers — with zeroed I/O counters.
#[test]
fn file_dfs_restarts_from_durable_state() {
    let workload = queries::a3();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let root = temp_root("restart");

    let snapshot: Vec<(gumbo::common::RelationName, std::sync::Arc<Relation>)> = {
        let dfs = FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db).unwrap();
        engine().evaluate(&dfs, &workload.query).unwrap();
        dfs.flush().unwrap();
        dfs.file_names()
            .into_iter()
            .map(|name| {
                let rel = dfs.peek(&name).unwrap();
                (name, rel)
            })
            .collect()
    }; // handle dropped: only the on-disk state survives

    let reopened = FileDfs::open(&root, DEFAULT_CACHE_BYTES).unwrap();
    assert_eq!(
        reopened.file_names().len(),
        snapshot.len(),
        "reopened store lost or grew relations"
    );
    for (name, expected) in &snapshot {
        let got = reopened.peek(name).unwrap();
        assert_eq!(&got, expected, "relation {name} changed across restart");
        assert_eq!(
            got.estimated_bytes(),
            expected.estimated_bytes(),
            "relation {name} byte size changed across restart"
        );
    }
    assert_eq!(reopened.bytes_read().as_bytes(), 0);
    assert_eq!(reopened.bytes_written().as_bytes(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Warm cache: a second evaluation on the same handle reads blocks the
/// first one cached, and reports statistics identical to the first —
/// the cache changes where bytes come from, never the byte meters.
#[test]
fn second_pass_on_one_handle_hits_the_cache_with_identical_stats() {
    let workload = queries::a3();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let root = temp_root("warm");
    let dfs = FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db).unwrap();

    let cold = engine().evaluate(&dfs, &workload.query).unwrap();
    let hits_after_cold = dfs.cache_stats().hits;
    let warm = engine().evaluate(&dfs, &workload.query).unwrap();
    let warm_hits = dfs.cache_stats().hits - hits_after_cold;

    assert!(
        warm_hits > 0,
        "the second pass must serve some blocks from cache"
    );
    gumbo::sched::assert_identical_stats("file warm vs cold", &cold, &warm);
    drop(dfs);
    let _ = std::fs::remove_dir_all(&root);
}

/// Cache pressure: a block cache far smaller than the working set must
/// evict (the counters prove it) while every answer and meter stays
/// byte-identical to the in-memory backend.
#[test]
fn tiny_block_cache_evicts_without_changing_answers() {
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(400).database(SEED);

    let dfs_sim = SimDfs::from_database(&db);
    let stats_sim = engine().evaluate(&dfs_sim, &workload.query).unwrap();

    let root = temp_root("evict");
    // 2 KiB holds less than one decoded frame of most relations here.
    let dfs_file = FileDfs::from_database(&root, 2048, &db).unwrap();
    let stats_file = engine().evaluate(&dfs_file, &workload.query).unwrap();

    let cache = dfs_file.cache_stats();
    assert!(
        cache.evictions > 0,
        "a 2 KiB cache must evict on this workload (stats: {cache:?})"
    );
    assert!(
        cache.cached_bytes <= cache.capacity_bytes.max(cache.cached_bytes),
        "cache accounting went negative: {cache:?}"
    );
    gumbo::sched::assert_identical_dfs("tiny cache", &dfs_sim, &dfs_file);
    gumbo::sched::assert_identical_stats("tiny cache", &stats_sim, &stats_file);
    let _ = std::fs::remove_dir_all(&root);
}

/// A scan has one read path, the in-place visit: on both backends
/// `RelationScan::fetch` returns exactly the tuples `for_each` visits, in
/// canonical order — for ranges crossing segment frame boundaries, empty
/// ranges, and ranges reaching or lying past the end (clamped). The file
/// backend runs with a cache smaller than a frame, so visits also read
/// frames that were just evicted.
#[test]
fn fetch_is_the_visit_collected_on_both_backends() {
    let frame = gumbo::storage::file_dfs::TUPLES_PER_FRAME;
    let n = 2 * frame + 37;
    let tuples =
        (0..n as i64).map(|i| Tuple::new(vec![Value::Int(i), Value::str(format!("v{}", i % 7))]));
    let relation = Relation::from_tuples("R", 2, tuples).unwrap();
    let canonical: Vec<Tuple> = relation.iter().map(|t| t.to_tuple()).collect();

    let sim = SimDfs::new();
    sim.store(relation.clone()).unwrap();
    let root = temp_root("visit");
    let file = FileDfs::create(&root, 2048).unwrap();
    Dfs::store(&file, relation).unwrap();

    let ranges = [
        0..n,
        0..frame,
        frame - 3..frame + 3,
        frame - 1..2 * frame + 1,
        1..n - 1,
        5..5,
        frame..frame,
        n - 2..n + 10,
        n..n + 10,
        n + 5..n + 9,
    ];
    for dfs in [&sim as &dyn Dfs, &file] {
        let scan = dfs.scan(&"R".into()).unwrap();
        for range in &ranges {
            let mut visited = Vec::new();
            scan.for_each(range.clone(), &mut |t| visited.push(t.to_tuple()))
                .unwrap();
            let expected = &canonical[range.start.min(n)..range.end.min(n)];
            assert_eq!(visited, expected, "{} visit of {range:?}", dfs.backend());
            assert_eq!(
                scan.fetch(range.clone()).unwrap(),
                visited,
                "{} fetch of {range:?}",
                dfs.backend()
            );
        }
    }
    drop(file);
    let _ = std::fs::remove_dir_all(&root);
}

/// `FileDfs::peek` of a relation spanning several frames, with strings
/// whose first-seen order differs from content order and differs between
/// frames, equals `SimDfs`'s peek: the concatenated frames are the
/// relation, in its canonical order, byte counts included. It holds with a
/// cache that keeps every frame and with one smaller than a frame.
#[test]
fn file_peek_of_a_multi_frame_string_relation_equals_sim_peek() {
    let frame = gumbo::storage::file_dfs::TUPLES_PER_FRAME;
    let n = 3 * frame + 11;
    let words = ["zeta", "alpha", "mu", "beta-longer-than-ten", "a"];
    let tuples = (0..n as i64).map(|i| {
        Tuple::new(vec![
            Value::str(words[(i as usize * 7) % words.len()]),
            Value::Int(n as i64 - i),
            Value::str(format!("w{}", (i * 13) % 97)),
        ])
    });
    let relation = Relation::from_tuples("R", 3, tuples).unwrap();
    let sim = SimDfs::new();
    sim.store(relation.clone()).unwrap();
    let expected = sim.peek(&"R".into()).unwrap();
    for cache in [1 << 20, 256] {
        let root = temp_root(&format!("peek-{cache}"));
        let file = FileDfs::create(&root, cache).unwrap();
        Dfs::store(&file, relation.clone()).unwrap();
        let peeked = file.peek(&"R".into()).unwrap();
        assert_eq!(peeked, expected, "cache {cache}");
        assert_eq!(peeked.estimated_bytes(), expected.estimated_bytes());
        assert_eq!(
            peeked.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            expected.iter().map(|t| t.to_tuple()).collect::<Vec<_>>(),
            "cache {cache}: same rows in the same order"
        );
        drop(file);
        let _ = std::fs::remove_dir_all(&root);
    }
}
