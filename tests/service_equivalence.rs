//! Service-level equivalence: answers streamed by the resident query
//! service (`gumbo::service`) must be **byte-identical** to direct
//! engine evaluation, for every query preset, both storage backends,
//! and under concurrent multi-tenant load.
//!
//! Also covered here: the drain invariant (a shutdown mid-workload
//! loses zero accepted submissions), restart durability for a
//! file-backed service, the per-submission timestamp chain
//! (`queued_ns <= admitted_ns <= completed_ns`), the request-size cap,
//! and that a served query is planned once.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gumbo::common::RelationName;
use gumbo::datagen::queries;
use gumbo::prelude::*;
use gumbo::service::{Frame, MAX_REQUEST_BYTES};
use gumbo::storage::RelStats;

const TUPLES: usize = 150;
const SEED: u64 = 7;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gumbo-svc-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The engine both sides of every comparison use, at `slots` job slots:
/// the server runs three, the direct evaluation it is compared against
/// runs one.
fn engine(slots: usize) -> GumboEngine {
    GumboEngine::with_executor(
        EngineConfig::default(),
        ExecutorKind::Simulated,
        EvalOptions {
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: slots,
                ..SchedulerConfig::ONE_SLOT
            }),
            ..EvalOptions::default()
        },
    )
}

/// Direct evaluation: every output relation (intermediates included),
/// in the query's output order.
fn direct_answers(db: &Database, query: &SgfQuery) -> Vec<Relation> {
    let dfs = SimDfs::from_database(db);
    engine(1).evaluate(&dfs, query).unwrap();
    query
        .output_names()
        .iter()
        .map(|name| (*dfs.peek(name).unwrap()).clone())
        .collect()
}

fn start_server(dfs: Arc<dyn Dfs>, config: ServeConfig) -> ServerHandle {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    serve(listener, dfs, engine(3), config).unwrap()
}

fn assert_same_relations(label: &str, got: &[Relation], want: &[Relation]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{label}: streamed {} relations, direct evaluation produced {}",
        got.len(),
        want.len(),
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.name(), w.name(), "{label}: relation order differs");
        assert_eq!(
            g,
            w,
            "{label}: relation {} differs from direct eval",
            g.name()
        );
    }
}

/// Every preset, three concurrent tenants each: streamed answers equal
/// direct evaluation, and the reports carry a monotonic timestamp chain.
#[test]
fn streamed_answers_match_direct_evaluation_for_every_preset() {
    for workload in queries::presets() {
        let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
        let want = direct_answers(&db, &workload.query);

        let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
        let handle = start_server(dfs, ServeConfig::default());
        let addr = handle.addr();
        let sgf = workload.query.to_string();

        std::thread::scope(|scope| {
            for t in 0..3 {
                let sgf = &sgf;
                let want = &want;
                let name = &workload.name;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    let reply = client
                        .query(&format!("tenant-{t}"), None, sgf)
                        .unwrap_or_else(|e| panic!("{name} tenant-{t}: {e}"));
                    assert_same_relations(&format!("{name} tenant-{t}"), &reply.relations, want);
                    let queued = reply.queued_ns().unwrap();
                    let admitted = reply.admitted_ns().unwrap();
                    let completed = reply.completed_ns().unwrap();
                    assert!(
                        queued <= admitted && admitted <= completed,
                        "{name}: timestamps not monotonic: {queued} {admitted} {completed}"
                    );
                    assert_eq!(reply.queue_wait_ns().unwrap(), admitted - queued);
                });
            }
        });

        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.accepted, 3, "{}: accepted", workload.name);
        assert_eq!(summary.completed, 3, "{}: completed", workload.name);
        assert_eq!(summary.connections, 3, "{}: connections", workload.name);
    }
}

/// Both backends on representative presets (one flat, one nested): the
/// service serves byte-identical answers from the in-memory and the
/// durable file store.
#[test]
fn both_backends_serve_identical_answers() {
    for workload in [queries::a1(), queries::c1()] {
        let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
        // One reference: answers are backend-invariant.
        let want = direct_answers(&db, &workload.query);
        let sgf = workload.query.to_string();

        for backend in ["sim", "file"] {
            let label = format!("{} ({backend})", workload.name);
            let root = temp_root(&format!("{}-{backend}", workload.name));
            let dfs: Arc<dyn Dfs> = match backend {
                "sim" => Arc::new(SimDfs::from_database(&db)),
                _ => Arc::new(FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db).unwrap()),
            };
            let handle = start_server(dfs, ServeConfig::default());
            let mut client = ServiceClient::connect(handle.addr()).unwrap();
            let reply = client
                .query("matrix", None, &sgf)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_same_relations(&label, &reply.relations, &want);
            let (accepted, completed) = client.shutdown().unwrap();
            assert_eq!((accepted, completed), (1, 1), "{label}");
            handle.join();
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// The drain invariant: shut the server down while a backlog is queued
/// behind a single dispatcher — every accepted submission still
/// completes and streams its full reply. Zero lost work.
#[test]
fn drain_mid_workload_completes_every_accepted_submission() {
    const CLIENTS: usize = 6;
    let workload = queries::a2();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let want = direct_answers(&db, &workload.query);

    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
    // One dispatcher: submissions queue up behind each other, so the
    // shutdown below genuinely races a non-empty backlog.
    let handle = start_server(
        dfs,
        ServeConfig {
            max_in_flight: 1,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();
    let sgf = workload.query.to_string();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let sgf = &sgf;
                let want = &want;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    let reply = client
                        .query(&format!("tenant-{}", t % 3), None, sgf)
                        .unwrap_or_else(|e| panic!("client {t}: {e}"));
                    assert_same_relations(&format!("client {t}"), &reply.relations, want);
                })
            })
            .collect();

        // Wait until the queue has accepted the full workload, then pull
        // the plug while most of it is still pending.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.accepted() < CLIENTS as u64 {
            assert!(Instant::now() < deadline, "submissions never all arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.shutdown();

        for w in workers {
            w.join().unwrap();
        }
    });

    let summary = handle.join();
    assert_eq!(summary.accepted, CLIENTS as u64);
    assert_eq!(
        summary.completed, summary.accepted,
        "drain lost accepted work: {summary:?}"
    );
}

/// Restart durability: a file-backed service is shut down, the root
/// reopened cold, and a fresh server must serve the exact same answers
/// from the durable state alone.
#[test]
fn file_backed_service_survives_restart() {
    let workload = queries::a3();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let root = temp_root("restart");
    let sgf = workload.query.to_string();

    let first = {
        let dfs: Arc<dyn Dfs> =
            Arc::new(FileDfs::from_database(&root, DEFAULT_CACHE_BYTES, &db).unwrap());
        let handle = start_server(dfs, ServeConfig::default());
        let mut client = ServiceClient::connect(handle.addr()).unwrap();
        let reply = client.query("durable", None, &sgf).unwrap();
        client.shutdown().unwrap();
        handle.join();
        reply.relations
    }; // server gone; only the on-disk state survives

    assert!(
        root.join("MANIFEST").is_file(),
        "drained file-backed server must leave a MANIFEST"
    );

    // Cold reopen: no database reload — the durable store alone must
    // already hold the base relations and the committed answers.
    let reopened: Arc<dyn Dfs> = Arc::new(FileDfs::open(&root, DEFAULT_CACHE_BYTES).unwrap());
    for rel in &first {
        assert_eq!(
            reopened.peek(rel.name()).unwrap().as_ref(),
            rel,
            "relation {} changed across restart",
            rel.name(),
        );
    }
    let handle = start_server(reopened, ServeConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let reply = client.query("durable", None, &sgf).unwrap();
    assert_same_relations("after restart", &reply.relations, &first);
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// Protocol edges that don't deserve their own server: ping, a bad SGF
/// program, and a submission refused after the drain began.
#[test]
fn protocol_errors_and_liveness() {
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(50).database(SEED);
    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
    let handle = start_server(dfs, ServeConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();

    client.ping().unwrap();
    let err = client.query("edge", None, "THIS IS NOT SGF").unwrap_err();
    assert!(
        matches!(err, ServiceError::Remote(ref m) if m.contains("bad SGF")),
        "expected a remote parse error, got {err}"
    );
    // The connection survives a rejected program.
    client.ping().unwrap();

    handle.shutdown();
    let err = client
        .query("edge", None, &workload.query.to_string())
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Remote(ref m) if m.contains("draining")),
        "expected a draining refusal, got {err}"
    );
    drop(client);
    let summary = handle.join();
    assert_eq!(summary.accepted, 0);
    assert_eq!(summary.completed, 0);
}

/// The accept loop blocks, and a drain wakes it at once — through the
/// handle and through the protocol's `shutdown` request alike — without
/// counting the wake connection as a client.
#[test]
fn shutdown_returns_promptly_through_the_handle_and_the_protocol() {
    // Joins on a helper thread, so a drain that never wakes the accept
    // fails the test instead of hanging it.
    fn join_promptly(handle: ServerHandle) -> ServeSummary {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(handle.join()));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the server drains promptly")
    }
    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::new());

    let handle = start_server(Arc::clone(&dfs), ServeConfig::default());
    handle.shutdown();
    let summary = join_promptly(handle);
    assert_eq!(summary.connections, 0, "the wake connection is no client");

    let handle = start_server(dfs, ServeConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(client.shutdown().unwrap(), (0, 0));
    drop(client);
    let summary = join_promptly(handle);
    assert_eq!(summary.connections, 1, "only the client is counted");
}

/// A client that never sends a newline costs the server one bounded
/// buffer: past the cap it gets one `error` frame and EOF, and the server
/// keeps serving everyone else byte-identically and drains clean.
#[test]
fn oversized_request_line_is_refused_and_the_server_lives_on() {
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let want = direct_answers(&db, &workload.query);
    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
    let handle = start_server(dfs, ServeConfig::default());

    let mut rogue = std::net::TcpStream::connect(handle.addr()).unwrap();
    // The server may hang up before taking all of it; that is its right.
    let _ = rogue.write_all(&vec![b'a'; 2 * MAX_REQUEST_BYTES]);
    let mut reply = String::new();
    rogue.read_to_string(&mut reply).unwrap(); // returns at EOF
    let frames: Vec<&str> = reply.lines().collect();
    assert_eq!(frames.len(), 1, "exactly one frame, got {reply:?}");
    assert!(
        matches!(Frame::parse(frames[0]), Ok(Frame::Error { ref message }) if message.contains("exceeds")),
        "expected an error frame, got {reply:?}"
    );

    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    let reply = client
        .query("after", None, &workload.query.to_string())
        .unwrap();
    assert_same_relations("after an oversized request", &reply.relations, &want);
    assert_eq!(client.shutdown().unwrap(), (1, 1));
    let summary = handle.join();
    assert_eq!(summary.accepted, summary.completed);
    assert_eq!(summary.connections, 2);
}

/// A [`SimDfs`] that counts `stat` calls: the only way planning reaches
/// the store (`tests/planner_accuracy.rs` pins that).
#[derive(Debug)]
struct StatCountingDfs {
    inner: SimDfs,
    stats: AtomicU64,
}

impl Dfs for StatCountingDfs {
    fn backend(&self) -> &'static str {
        Dfs::backend(&self.inner)
    }
    fn store(&self, relation: Relation) -> Result<ByteSize> {
        Dfs::store(&self.inner, relation)
    }
    fn stat(&self, name: &RelationName) -> Result<RelStats> {
        self.stats.fetch_add(1, Ordering::Relaxed);
        Dfs::stat(&self.inner, name)
    }
    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>> {
        Dfs::peek(&self.inner, name)
    }
    fn scan(&self, name: &RelationName) -> Result<RelationScan> {
        Dfs::scan(&self.inner, name)
    }
    fn exists(&self, name: &RelationName) -> bool {
        Dfs::exists(&self.inner, name)
    }
    fn delete(&self, name: &RelationName) -> Result<bool> {
        Dfs::delete(&self.inner, name)
    }
    fn file_names(&self) -> Vec<RelationName> {
        Dfs::file_names(&self.inner)
    }
    fn bytes_read(&self) -> ByteSize {
        Dfs::bytes_read(&self.inner)
    }
    fn bytes_written(&self) -> ByteSize {
        Dfs::bytes_written(&self.inner)
    }
    fn reset_counters(&self) {
        Dfs::reset_counters(&self.inner)
    }
}

/// The server plans a query once, in the dispatcher that runs it:
/// admission prices nothing, so serving a nested query asks the store for
/// exactly as many `stat`s as evaluating it directly.
#[test]
fn a_served_query_is_planned_once() {
    let workload = queries::c1();
    let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
    let counting = || {
        Arc::new(StatCountingDfs {
            inner: SimDfs::from_database(&db),
            stats: AtomicU64::new(0),
        })
    };

    let direct = counting();
    engine(3).eval().run(&*direct, &workload.query).unwrap();
    let planned = direct.stats.load(Ordering::Relaxed);
    assert!(planned > 0, "planning reads statistics");

    let served = counting();
    let handle = start_server(served.clone(), ServeConfig::default());
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    client
        .query("once", None, &workload.query.to_string())
        .unwrap();
    assert_eq!(client.shutdown().unwrap(), (1, 1));
    handle.join();
    assert_eq!(served.stats.load(Ordering::Relaxed), planned, "stat calls");
}

/// Two tenants send different programs that both define `Out` to one
/// server (`parallel:2`, 2 job slots, 2 in flight), 200 rounds of one
/// query each: every reply must be its own program's `sgf::naive` answer.
/// Today the DFS is one flat namespace, so one query can read or
/// overwrite the other's `Out` and its temporaries.
#[test]
#[ignore = "tenant isolation: ROADMAP Correct item 1"]
fn tenants_defining_the_same_output_get_their_own_answers() {
    const ROUNDS: usize = 200;
    let db = queries::a1().with_tuples(3_000).spec.database(1);
    let programs = [
        (
            "a",
            "Out := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) AND T(y);",
        ),
        (
            "b",
            "Out := SELECT (x, y) FROM R(x, y, z, w) WHERE U(z) AND NOT V(w);",
        ),
    ];
    let naive = |sgf: &str| {
        let query = parse_program(sgf).unwrap();
        NaiveEvaluator::new().evaluate_sgf(&query, &db).unwrap()
    };
    let want: Vec<Relation> = programs.iter().map(|(_, sgf)| naive(sgf)).collect();

    let engine = GumboEngine::with_executor(
        EngineConfig::default(),
        ExecutorKind::Parallel { threads: 2 },
        EvalOptions {
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 2,
                ..SchedulerConfig::ONE_SLOT
            }),
            ..EvalOptions::default()
        },
    );
    let dfs: Arc<dyn Dfs> = Arc::new(SimDfs::from_database(&db));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let config = ServeConfig {
        max_in_flight: 2,
        ..ServeConfig::default()
    };
    let handle = serve(listener, dfs, engine, config).unwrap();
    let addr = handle.addr();

    let wrong = AtomicU64::new(0);
    for _ in 0..ROUNDS {
        std::thread::scope(|scope| {
            for ((tenant, sgf), want) in programs.iter().zip(&want) {
                let wrong = &wrong;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    let reply = client.query(tenant, None, sgf);
                    if !reply.is_ok_and(|r| r.relations == std::slice::from_ref(want)) {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    handle.shutdown();
    handle.join();
    let wrong = wrong.into_inner();
    assert_eq!(wrong, 0, "{wrong} of {} replies were wrong", 2 * ROUNDS);
}
