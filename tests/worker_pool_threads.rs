//! Jobs and their task fan-out run on the process-wide pool's persistent
//! workers: fifty programs at four job slots on `parallel:4` run on the
//! threads the first one ran on. This is the only test in its binary, so
//! no other test's threads come and go while it counts.

use std::collections::BTreeSet;
use std::sync::Arc;

use gumbo::datagen::queries;
use gumbo::prelude::*;

/// Live threads of this process, where `/proc` lists them.
fn live_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn fifty_programs_spawn_no_thread_per_job_or_phase() {
    // A3 planned one MSJ job per semi-join: four jobs in round 1, each
    // with its map, route and reduce fan-out.
    let workload = queries::a3().with_tuples(200);
    let db = workload.spec.database(3);
    let engine = GumboEngine::with_executor(
        EngineConfig::default(),
        ExecutorKind::Parallel { threads: 4 },
        EvalOptions {
            grouping: Grouping::Singletons,
            sort: SortStrategy::Levels,
            enable_one_round: false,
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 4,
                ..SchedulerConfig::ONE_SLOT
            }),
            ..EvalOptions::default()
        },
    );
    let run = || {
        let stats = (engine.evaluate(&SimDfs::from_database(&db), &workload.query)).unwrap();
        assert_eq!(stats.jobs.iter().filter(|job| job.round == 0).count(), 4);
    };

    // Every thread that emits an event gets its own trace lane, so the
    // lanes count the threads that ran any job, task or claim.
    let ring = Arc::new(RingSink::new(1 << 21));
    gumbo::obs::install(ring.clone());
    run();
    let threads_after_first = live_threads();
    for _ in 1..50 {
        run();
    }
    gumbo::obs::uninstall();

    assert_eq!(ring.dropped(), 0, "the ring holds every event");
    let lanes: BTreeSet<u64> = ring.events().iter().map(|e| e.lane).collect();
    // The pool holds one worker per core, per worker or slot count asked
    // for (4) and per job in flight (at most 4), whichever is most; the
    // caller is one more thread.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = cores.max(4);
    assert!(
        lanes.len() <= pool + 1,
        "{} threads ran work for 50 programs; the pool has at most {pool} and the caller is one more",
        lanes.len()
    );
    if let (Some(first), Some(last)) = (threads_after_first, live_threads()) {
        assert!(
            last <= first,
            "{last} live threads after 50 programs, {first} after one"
        );
    }
}
