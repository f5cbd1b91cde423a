//! Allocation-count smoke tests for the shuffle, the tracing-off path,
//! tuple projection, a map task, a reduce task, a cold file-backed scan,
//! and whole `MSJ`/`EVAL` jobs.
//!
//! The point of the shuffle's batch layer is few, large allocations:
//! tuples live in shared arenas (one `Vec` per column plus one
//! dictionary) instead of one `Vec<Value>` + `Arc` per tuple, and spill
//! runs are encoded and decoded a 512-row frame at a time. These tests
//! pin that property down with a counting global allocator: shuffling an
//! A3-derived pair stream end to end must stay under a fixed number of
//! allocation *calls* (not bytes) per pair, in memory and under a
//! spill-forcing budget. The ceilings carry ~2× headroom over the
//! measured figures, so the test stays a smoke check, not a benchmark.
//!
//! The counter tracks `alloc` calls (reallocs count once) and, beside
//! them, the thread's live heap bytes and their high-water mark, and is
//! per thread: every measured region runs on its test's own thread, so
//! neither the other tests nor the harness thread (which allocates when
//! it reports a finished test) can leak into a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gumbo::core::eval::build_eval_job;
use gumbo::core::msj::build_msj_job;
use gumbo::datagen::queries;
use gumbo::mr::{
    BatchPartition, Emitter, Job, MemBudget, MemoryBudget, Message, OutputSink, PairBatch, Payload,
    ShuffleSpill,
};
use gumbo::prelude::*;

/// A pass-through allocator that counts the calling thread's
/// `alloc`/`realloc` calls and tracks its live heap bytes.
struct CountingAlloc;

thread_local! {
    // `const` + no destructor: touching them never allocates, so they are
    // safe to use from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, and their peak.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Note one allocator call that changes this thread's live bytes by
/// `delta`; `call` says whether it counts as an allocation (a free does
/// not).
fn count(call: bool, delta: i64) {
    // `try_with`: a thread being torn down may allocate after its TLS is
    // gone; those calls are nobody's measured region.
    if call {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocation calls this thread made in it.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

/// Run `f` and return how far this thread's live heap rose above its
/// level at the call, at its highest.
fn peak_heap_growth<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let baseline = LIVE.get();
    PEAK.set(baseline);
    let out = f();
    ((PEAK.get() - baseline) as u64, out)
}

/// The shuffle stream the count is taken on: every tuple of the A3
/// preset database keyed by its guard attribute (so many messages land on
/// each reducer key, as in a real semi-join round), carrying the paper's
/// fixed-width request messages (`Assert` and `Req`/`Ref` — 4 and
/// 14 bytes, no tuple payloads).
fn a3_pairs() -> Vec<(Tuple, Message)> {
    let workload = queries::a3();
    let db = workload.spec.clone().with_tuples(400).database(11);
    let mut pairs = Vec::new();
    for relation in db.relations() {
        for tuple in relation.iter() {
            // Three conditionals interrogate each guard tuple, as in the
            // A3 query's three-atom condition.
            for _ in 0..3 {
                let seq = pairs.len() as u32;
                let key = tuple.project(&[0]);
                let msg = if seq % 2 == 0 {
                    Message::Assert { cond: seq }
                } else {
                    Message::Req {
                        cond: seq,
                        payload: Payload::Ref {
                            guard: 0,
                            id: u64::from(seq),
                        },
                    }
                };
                pairs.push((key, msg));
            }
        }
    }
    assert!(pairs.len() >= 500, "A3 preset must yield a real stream");
    pairs
}

/// Shuffle the stream through one partition end to end — batch it, route
/// every row, sort/spill/merge, drain every reducer group — returning the
/// group count. The map batch stays alive until the last group is read:
/// the partition holds handles into it, not copies.
fn shuffle(pairs: &[(Tuple, Message)], budget: &MemoryBudget) -> usize {
    let spill = ShuffleSpill::new("alloc-smoke");
    let mut batch = PairBatch::new();
    for (k, v) in pairs {
        batch.push_pair(k, v);
    }
    let outputs = [batch];
    let mut part = BatchPartition::new(0, budget, &spill, &outputs, 1);
    let rows: Vec<u32> = (0..outputs[0].len() as u32).collect();
    part.push_rows(0, &rows).unwrap();
    let (mut stream, _) = part.into_groups().unwrap();
    let mut groups = 0;
    while let Some(_group) = stream.next_group().unwrap() {
        groups += 1;
    }
    groups
}

/// The shuffle allocates a fraction of a time per pair: at most 0.03
/// calls in memory and 0.12 under a spill-forcing 4 KiB budget.
#[test]
fn shuffle_allocations_per_pair_stay_under_the_ceiling() {
    let pairs = a3_pairs();
    let mut groups = Vec::new();
    // Measured at 6000 pairs: 0.012 calls per pair in memory, 0.060 under
    // the 4 KiB budget, since spill frames are gathered into a reused
    // buffer, read into one buffer per run and decoded into reused arenas
    // (0.129 when every frame read allocated its block and a fresh
    // batch), and since the partition holds handles to the map batch's
    // rows instead of copies and groups are read in place (0.126 and
    // 0.278 with copies and a `Message` per value); the ceilings leave
    // ~2x headroom against allocator jitter.
    for (limit, ceiling_percent) in [(MemBudget::UNLIMITED, 3), (MemBudget::bytes(4096), 12)] {
        let budget = MemoryBudget::new(limit);
        let (allocations, seen) = count_allocations(|| shuffle(&pairs, &budget));
        groups.push(seen);
        assert!(
            allocations * 100 <= pairs.len() as u64 * ceiling_percent,
            "budget {limit:?}: {allocations} allocations for {} pairs exceeds \
             {ceiling_percent} per 100 pairs",
            pairs.len()
        );
    }
    assert_eq!(groups[0], groups[1], "the budget never changes the groups");
}

/// A spilled run costs allocations — its file, its sort, its reader, the
/// frames the merge holds at once — but a spilled frame costs none: a
/// frame is gathered into the partition's reused frame buffer, read into
/// its source's reused buffer and decoded into the arenas of a frame the
/// merge has moved past. Eight runs allocate about as often at 6, 21 or
/// 81 frames a run.
#[test]
fn spill_allocations_grow_with_runs_not_with_frames() {
    // One integer key and a 14-byte reference message: 24 bytes a row.
    // A budget of `kib` KiB flushes every `frames` frames of 512 rows.
    let spill_shuffle = |frames: u32, kib: u64| {
        let rows = 8 * frames * 512;
        let mut batch = PairBatch::new();
        for i in 0..rows {
            let msg = Message::Req {
                cond: i % 4,
                payload: Payload::Ref {
                    guard: 0,
                    id: u64::from(i),
                },
            };
            batch.push_pair(&Tuple::from_ints(&[i64::from(i * 7919 % 1000)]), &msg);
        }
        let outputs = [batch];
        let row_ids: Vec<u32> = (0..rows).collect();
        let budget = MemoryBudget::new(MemBudget::bytes(kib << 10));
        let spill = ShuffleSpill::new("alloc-smoke-frames");
        let (allocations, (runs, values)) = count_allocations(|| {
            let mut part = BatchPartition::new(0, &budget, &spill, &outputs, 1);
            part.push_rows(0, &row_ids).unwrap();
            let (mut stream, stats) = part.into_groups().unwrap();
            let mut values = 0;
            while let Some(group) = stream.next_group().unwrap() {
                values += group.values().len();
            }
            (stats.spill_files, values)
        });
        assert_eq!(values, rows as usize);
        assert_eq!(runs, 8, "{frames} frames a run");
        allocations
    };
    let counts = [(6, 60), (21, 240), (81, 960)].map(|(frames, kib)| spill_shuffle(frames, kib));
    // Measured: 267, 297 and 301 allocations. The merge creates a frame's
    // arenas (about five allocations) only when no frame it has moved past
    // is free, which settles at two frames a source — 11, 16 and 16 for
    // the eight sources here — and the group buffer doubles as groups grow
    // (1 000 keys); an allocation per frame read would add 600 between the
    // first count and the last. The bound allows 6 a run.
    let (least, most) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(
        most - least <= 6 * 8,
        "allocations {counts:?} for eight runs of 6, 21 and 81 frames: \
         the spill path allocates per frame"
    );
}

/// With no trace sink installed, the observability hot path performs
/// zero heap allocations: dead spans carry an empty `Vec`, field-fill
/// closures never run, and metrics skip lazy registration entirely.
#[test]
fn disabled_tracing_allocates_nothing() {
    assert!(
        !gumbo::obs::enabled(),
        "no sink is ever installed in this test binary"
    );
    static PROBE: gumbo::obs::Counter = gumbo::obs::Counter::new("alloc_smoke.probe");
    let (allocs, ()) = count_allocations(|| {
        for i in 0..1000u64 {
            let mut span = gumbo::obs::span_with("map", |f| {
                f.u64("i", i);
                f.str("job", "never-evaluated");
            });
            gumbo::obs::event("budget:exhausted", |f| f.u64("bytes", i));
            span.record(|f| f.u64("post", i));
            drop(span);
            PROBE.incr();
        }
    });
    assert_eq!(allocs, 0, "disabled tracing must not allocate");
}

/// `Tuple::project` on all-int tuples performs one allocation per call
/// (the projected `Vec<Value>` + its `Arc` header) — no per-value clones.
#[test]
fn int_projection_allocates_once_per_tuple() {
    let tuples: Vec<Tuple> = (0..1000)
        .map(|i| Tuple::from_ints(&[i, i + 1, i + 2]))
        .collect();
    let (allocs, projected) = count_allocations(|| {
        tuples
            .iter()
            .map(|t| t.project(&[2, 0]))
            .collect::<Vec<Tuple>>()
    });
    assert_eq!(projected.len(), 1000);
    // One Arc<[Value]> per projection plus the collecting Vec's growth.
    assert!(
        allocs <= 1100,
        "1000 int projections should allocate ~1 time each, saw {allocs}"
    );
}

/// A whole job — plan, map, shuffle, reduce, commit — allocates a bounded
/// number of times per input fact: the mappers resolve no variable and
/// build no position vector per fact, the map task hashes instead of
/// sorting, reducers emit into columnar batches, and the commit merges
/// them in bulk. A1's two jobs in
/// the engine's default (reference) payload mode, on one worker so every
/// allocation lands on this thread's counter.
#[test]
fn job_allocations_per_input_fact_stay_under_the_ceiling() {
    let workload = queries::a1().with_tuples(2000);
    let dfs = SimDfs::from_database(&workload.spec.database(7));
    let ctx = QueryContext::new(workload.query.queries().to_vec()).unwrap();
    let executor = Executor::new(EngineConfig::default());
    let mode = PayloadMode::Reference;
    let msj = build_msj_job(&ctx, &[0, 1, 2, 3], mode, JobConfig::default());
    let eval = build_eval_job(&ctx, mode, JobConfig::default());
    // Measured: 0.035 allocations per input fact for MSJ and 0.061 for
    // EVAL since relations are columnar end to end — scans hand out row
    // views, reducers emit into per-output batches and the commit merges
    // sorted runs (0.467 and 0.091 when every emitted fact was an owned
    // `Tuple` sorted into a set at commit; 0.788 and 1.101 with a key
    // `Tuple` per group and a `Message` per value; 2.39 and 1.44 when
    // every fact was also cloned out of the scan and every key built as
    // an owned tuple; 4.47 and 1.81 when mappers also resolved variables
    // per fact and reducers inserted into per-partition sets); the
    // ceilings are 1.25x.
    for (round, (job, ceiling_per_mille)) in [(&msj, 44), (&eval, 76)].into_iter().enumerate() {
        let facts: u64 = input_facts(&dfs, job);
        let (allocations, stats) =
            count_allocations(|| executor.execute_job(&dfs, job, round).unwrap());
        assert!(stats.output_tuples > 0, "{} must produce output", job.name);
        assert!(
            allocations * 1000 <= facts * ceiling_per_mille,
            "{}: {allocations} allocations for {facts} input facts exceeds \
             {ceiling_per_mille} per 1000 facts",
            job.name
        );
    }
}

/// The map side alone allocates only to grow its batch's columns: one
/// MSJ map task over A1's guard relation — four requests per guard fact,
/// keys projected in place, reference payloads — allocates the same
/// handful of times whether it emits 1 000 pairs or 8 000: its batch is
/// presized for the pairs every guard fact emits, as a map task presizes
/// it, so its columns never grow. An owned key `Tuple` per pair would add
/// 7 000, and growing columns one doubling each.
#[test]
fn a_map_task_allocates_only_to_grow_its_columns() {
    let workload = queries::a1().with_tuples(2000);
    let dfs = SimDfs::from_database(&workload.spec.database(7));
    let ctx = QueryContext::new(workload.query.queries().to_vec()).unwrap();
    let msj = build_msj_job(
        &ctx,
        &[0, 1, 2, 3],
        PayloadMode::Reference,
        JobConfig::default(),
    );
    let scan = dfs.scan(&msj.inputs[0]).unwrap();
    assert_eq!(scan.len(), 2000, "A1's guard relation");
    assert_eq!(
        msj.mapper.certain_pairs(0),
        [1, 1, 1, 1],
        "four 1-cell keys"
    );
    let map_task = |facts: usize| {
        let mut batch = PairBatch::new();
        let (allocations, ()) = count_allocations(|| {
            batch = PairBatch::with_capacity(facts, msj.mapper.certain_pairs(0));
            let mut out = Emitter::new(&mut batch);
            let mut index = 0;
            scan.for_each(0..facts, &mut |tuple| {
                msj.mapper.map(0, tuple, index, &mut out);
                index += 1;
            })
            .unwrap();
        });
        (allocations, batch.len())
    };
    let (small, small_pairs) = map_task(250);
    let (full, pairs) = map_task(2000);
    assert!(small_pairs > 0 && pairs >= 8 * small_pairs);
    // Measured: 5 allocations for 1 000 pairs and for 8 000 — the key
    // store's batch list and columns, the key cells, the hashes and the
    // message slots, each sized once.
    assert!(
        full <= small + 2,
        "{full} allocations for {pairs} pairs vs {small} for {small_pairs}: \
         the map task allocates per pair"
    );
    assert!(
        full * 100 <= 2 * pairs as u64,
        "{full} allocations for {pairs} pairs exceeds 2 per 100 pairs"
    );
}

/// The reduce side allocates only to grow its buffers: an A1 MSJ reduce —
/// handles to the map outputs appended to one partition, sorted and
/// grouped, every group read in place by the reducer, every emitted fact
/// copied into the output sink's columnar batch — allocates a constant
/// number of times, whether it emits 1 000 facts or 4 000. A key `Tuple`
/// per group, a `Message` per value or an owned tuple per emitted fact
/// would add thousands.
#[test]
fn a_reduce_task_allocates_only_for_what_it_emits() {
    let reduce = |tuples: usize| {
        let workload = queries::a1().with_tuples(tuples);
        let dfs = SimDfs::from_database(&workload.spec.database(7));
        let ctx = QueryContext::new(workload.query.queries().to_vec()).unwrap();
        let msj = build_msj_job(
            &ctx,
            &[0, 1, 2, 3],
            PayloadMode::Reference,
            JobConfig::default(),
        );
        // One map task per input relation, mapped before the count.
        let outputs: Vec<PairBatch> = (msj.inputs.iter().enumerate())
            .map(|(input, name)| {
                let scan = dfs.scan(name).unwrap();
                let mut batch = PairBatch::new();
                let mut out = Emitter::new(&mut batch);
                let mut index = 0;
                scan.for_each(0..scan.len(), &mut |tuple| {
                    msj.mapper.map(input, tuple, index, &mut out);
                    index += 1;
                })
                .unwrap();
                batch
            })
            .collect();
        let rows: Vec<Vec<u32>> = (outputs.iter())
            .map(|batch| (0..batch.len() as u32).collect())
            .collect();
        let mut sink = OutputSink::new(&msj);
        let budget = MemoryBudget::new(MemBudget::UNLIMITED);
        let spill = ShuffleSpill::new("alloc-smoke");
        let (allocations, groups) = count_allocations(|| {
            let mut part = BatchPartition::new(0, &budget, &spill, &outputs, 1);
            for (task, task_rows) in rows.iter().enumerate() {
                part.push_rows(task, task_rows).unwrap();
            }
            let (mut stream, _) = part.into_groups().unwrap();
            let mut groups = 0;
            while let Some(group) = stream.next_group().unwrap() {
                msj.reducer.reduce(&group, &mut sink);
                groups += 1;
            }
            groups
        });
        let emitted = (sink.into_batches().iter())
            .map(gumbo::common::TupleBatch::len)
            .sum::<usize>();
        (allocations, emitted as u64, groups)
    };
    // Measured: 82 allocations for 1 000 emitted tuples over 750 groups,
    // 102 for 4 000 over 3 000: the doublings of the handle buffer and of
    // the output batch's two columns, the sort's vectors and the stream's
    // scratch (1 027 and 4 031 when every emitted fact was an owned
    // `Tuple`). The bound allows 128, at either size.
    const CONSTANT: u64 = 128;
    for (tuples, (allocations, emitted, groups)) in [500, 2000].map(|n| (n, reduce(n))) {
        assert!(emitted > 0 && groups > 500, "A1 at {tuples} tuples");
        assert!(
            allocations <= CONSTANT,
            "{tuples} tuples: {allocations} allocations for {emitted} emitted tuples \
             over {groups} groups: the reduce side allocates per group, value or emit"
        );
    }
}

/// The target of a budget that bounds the shuffle's real memory: one MSJ
/// job, run inline at one worker under a 64 KiB budget, should hold no
/// more heap at its peak over a guard of 8N tuples than over N (less than
/// twice as much). Every guard tuple requests four conditional keys and no
/// conditional fact asserts one, so the job outputs nothing and what it
/// holds is its shuffle.
///
/// Ignored: the map outputs stay resident, and uncharged, until every
/// reducer has finished, so the peak grows with the input — measured
/// 2 068 635 bytes at N and 12 326 618 at 8N (6.0x). A map-side sort that
/// charged and spilled map output met the bound (365 349 and 565 786
/// bytes) but cost `spill_budgeted` 16–21 % more CPU, so it was not kept;
/// see the ROADMAP item *Map-side sort and spill*.
#[test]
#[ignore = "the budget does not charge map output yet; see ROADMAP *Map-side sort and spill*"]
fn a_budgeted_job_holds_no_more_memory_for_more_input() {
    let workload = queries::a1();
    let ctx = QueryContext::new(workload.query.queries().to_vec()).unwrap();
    let msj = build_msj_job(
        &ctx,
        &[0, 1, 2, 3],
        PayloadMode::Reference,
        JobConfig::default(),
    );
    let executor =
        Executor::new(EngineConfig::default().with_mem_budget(MemBudget::bytes(64 << 10)));
    let peak = |guard: i64| {
        let dfs = SimDfs::new();
        let rows = (0..guard).map(|i| Tuple::from_ints(&[i, i + 1, i + 2, i + 3]));
        dfs.store(Relation::from_tuples("R", 4, rows).unwrap())
            .unwrap();
        for name in ["S", "T", "U", "V"] {
            dfs.store(Relation::new(name, 1)).unwrap();
        }
        let (growth, stats) = peak_heap_growth(|| executor.execute_job(&dfs, &msj, 0).unwrap());
        assert_eq!(stats.output_tuples, 0);
        assert!(stats.spilled_bytes > 0, "the budget must force spilling");
        growth
    };
    const N: i64 = 8_000;
    let (small, large) = (peak(N), peak(8 * N));
    assert!(
        large < 2 * small,
        "peak heap grew from {small} bytes over {N} guard tuples to {large} over {}",
        8 * N
    );
}

/// A scan through a `FileDfs` whose block cache is smaller than one
/// frame — every frame a miss, evicted by the next — allocates per frame,
/// not per tuple: a miss reads the frame's block, decodes it into one
/// columnar batch and caches that batch, and the visit reads its rows in
/// place. Turning each frame into owned tuples would add one allocation
/// per tuple, 512 a frame.
#[test]
fn a_cold_file_scan_allocates_per_frame_not_per_tuple() {
    let frame = gumbo::storage::file_dfs::TUPLES_PER_FRAME;
    let root = std::env::temp_dir().join(format!("gumbo-alloc-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dfs = gumbo::storage::FileDfs::create(&root, 64).unwrap();
    let scan_allocations = |frames: usize| {
        let name = format!("R{frames}");
        let n = (frames * frame) as i64;
        let rel = Relation::from_tuples(
            name.as_str(),
            2,
            (0..n).map(|i| Tuple::from_ints(&[i, i % 7])),
        )
        .unwrap();
        dfs.store(rel).unwrap();
        let scan = dfs.scan(&name.as_str().into()).unwrap();
        let mut sum = 0i64;
        let (allocations, ()) = count_allocations(|| {
            scan.for_each(0..scan.len(), &mut |t| {
                sum += t.value(1).as_int().unwrap();
            })
            .unwrap();
        });
        assert!(sum > 0);
        allocations
    };
    let (small, large) = (scan_allocations(4), scan_allocations(16));
    drop(dfs);
    let _ = std::fs::remove_dir_all(&root);
    // Measured: 22 allocations for 4 frames (2 048 tuples) and 80 for 16
    // (8 192), about 5 a frame: the block read from the file, the decoded
    // batch's column vector and its two cell arenas, and the cached frame.
    // The bound allows 7 a frame.
    const PER_FRAME: u64 = 7;
    for (frames, allocations) in [(4u64, small), (16, large)] {
        assert!(
            allocations <= frames * PER_FRAME,
            "{allocations} allocations scanning {frames} cold frames exceeds {PER_FRAME} a frame"
        );
    }
}

fn input_facts(dfs: &SimDfs, job: &Job) -> u64 {
    job.inputs
        .iter()
        .map(|name| dfs.stat(name).unwrap().tuples)
        .sum()
}
