//! One workload, start to finish: set-up → measured window (tracing and
//! the metrics registry off) → traced pass → probes on the idle server →
//! drain. Everything runs against an in-process `gumbo-serve` configured
//! as `gumbo-cli serve --executor parallel:2 --max-jobs 2 --inflight 2`
//! would configure it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use gumbo::common::RelationName;
use gumbo::mr::MemBudget;
use gumbo::obs::{now_ns, RingSink};
use gumbo::prelude::{
    parse_program, Dfs, EngineConfig, EvalOptions, ExecutorKind, FileDfs, GumboEngine,
    NaiveEvaluator, Relation, SchedulerConfig, SgfQuery, SimDfs,
};
use gumbo::service::{serve, Request, ServeConfig, ServerHandle};

use crate::proc;
use crate::stats::{median, percentile, percentile_of, sorted, supported_tail};
use crate::trace::{self, HarnessSpan, ProgramTrace, Timing};
use crate::verify::{expected_digest, read_reply, reply_lines, ModelStats, ReplyStats, Verifier};
use crate::workloads::{client_name, Storage, Workload, CLIENTS, DISPATCHERS, EXECUTOR, MAX_JOBS};

/// Which passes a run makes (`--trace 0|1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up (repeated) and the measured window: the end-to-end metrics.
    EndToEnd,
    /// One set-up, the window, traced pass and probes: the per-layer
    /// metrics.
    Layers,
}

/// Set-ups of a `--trace 0` run; `setup_s` is their median, as the
/// driver's contract asks ("set up several times in a run and report
/// the median"). One set-up takes 0.3-1 s, mostly thread and file
/// system work, and varies more between runs than any other metric.
const SETUP_REPEATS: usize = 3;
/// Template rotations per client in the traced pass.
const TRACED_ROTATIONS: usize = 3;
/// Times each client runs every template before the window opens.
const WARMUP_ROTATIONS: usize = 2;
/// Events the traced pass can hold before the ring drops the oldest.
const RING_EVENTS: usize = 1 << 19;
/// The guard on the load generator's own cost.
pub const MAX_CLIENT_BUSY_SHARE: f64 = 0.15;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    /// Smoke run: one traced rotation instead of three.
    pub quick: bool,
    /// Where the trace file and this run's temporary roots go.
    pub out_dir: PathBuf,
}

pub fn traced_rotations(quick: bool) -> usize {
    if quick {
        1
    } else {
        TRACED_ROTATIONS
    }
}

/// Everything one run measured. A metric maps to `None` when it does
/// not apply (cache counters on `SimDfs`) or could not be taken.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, Option<f64>>,
    /// Verified replies completed inside the window.
    pub samples: usize,
    /// The highest percentile the sample supports, and its latency.
    pub latency_tail: Option<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Things a reader must know: failures, broken guards, lost spans.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Some(value));
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One connection of the closed loop: it sends its next query only
/// after the previous one's terminal frame arrived.
struct Client {
    /// One request line per template.
    requests: Vec<Vec<u8>>,
    /// Template the next request uses.
    next: usize,
    verifier: Verifier,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

/// Reads one count off a sample.
type Count = fn(&Sample) -> u64;

/// A verified reply and where its time went.
struct Sample {
    timing: Timing,
    reply_bytes: u64,
    reply_lines: u64,
    stats: ReplyStats,
}

/// A loaded DFS, a running server and connected, warmed-up clients.
struct Fixture {
    dfs: Arc<dyn Dfs>,
    /// The `FileDfs` root, to be measured and removed at the end.
    root: Option<PathBuf>,
    engine: GumboEngine,
    server: ServerHandle,
    clients: Vec<Client>,
    /// Client 0's programs, for the probes.
    programs: Vec<(String, SgfQuery)>,
    /// The oracle's output relations under client 0's names.
    outputs: Vec<Vec<Relation>>,
    base: Vec<RelationName>,
}

fn engine_for(workload: &Workload) -> GumboEngine {
    let mem_budget = workload
        .mem_budget
        .map_or(MemBudget::UNLIMITED, MemBudget::bytes);
    let dfs_cache = match workload.storage {
        Storage::Sim => None,
        Storage::File { cache_bytes } => Some(cache_bytes),
    };
    let options = EvalOptions {
        enable_one_round: false,
        mem_budget,
        dfs_cache,
        scheduler: Some(SchedulerConfig {
            max_concurrent_jobs: MAX_JOBS,
            threads_per_job: 0,
            mem_budget,
            ..SchedulerConfig::default()
        }),
        ..EvalOptions::default()
    };
    let executor = ExecutorKind::parse(EXECUTOR).expect("executor spelling");
    GumboEngine::with_executor(EngineConfig::default(), executor, options)
}

impl Client {
    fn connect(
        addr: SocketAddr,
        requests: Vec<Vec<u8>>,
        first: usize,
        verifier: Verifier,
    ) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the in-process server");
        writer.set_nodelay(true).expect("set_nodelay");
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone().expect("clone stream"));
        Client {
            requests,
            next: first,
            verifier,
            writer,
            reader,
            line: Vec::with_capacity(1 << 14),
        }
    }

    /// Send the next template and read its reply: `Ok(None)` for a reply
    /// that failed its checks, `Err` once the connection is dead.
    fn request(&mut self, template: usize) -> std::io::Result<Option<Sample>> {
        let send_ns = now_ns();
        self.writer.write_all(&self.requests[template])?;
        let reply = read_reply(&mut self.reader, &mut self.line)?;
        let Some(stats) = self.verifier.check(template, &reply) else {
            return Ok(None);
        };
        let timing = Timing {
            send_ns,
            queued_ns: stats.queued_ns,
            admitted_ns: stats.admitted_ns,
            completed_ns: stats.completed_ns,
            first_byte_ns: reply.first_byte_ns,
            done_ns: reply.done_ns,
        };
        if !timing.partitions_latency() {
            self.verifier.reject(
                template,
                format!("the five parts do not partition the latency: {timing:?}"),
            );
            return Ok(None);
        }
        Ok(Some(Sample {
            timing,
            reply_bytes: reply.digest.bytes,
            reply_lines: reply.digest.lines,
            stats,
        }))
    }

    /// Keep requesting, template after template, until `stop` says so
    /// (it sees the requests made so far) or the connection dies.
    /// Returns the verified samples and the CPU time this thread spent.
    fn run(&mut self, stop: impl Fn(usize) -> bool) -> (Vec<Sample>, u64) {
        let cpu_before = proc::thread_cpu_ns();
        let mut samples = Vec::new();
        let mut made = 0;
        while !stop(made) {
            let template = self.next;
            self.next = (template + 1) % self.requests.len();
            match self.request(template) {
                Ok(sample) => samples.extend(sample),
                Err(error) => {
                    self.verifier.transport_failure(template, &error);
                    break;
                }
            }
            made += 1;
        }
        (samples, proc::thread_cpu_ns() - cpu_before)
    }
}

/// Run every client on its own thread until `stop`; while they run,
/// `meanwhile` executes on the calling thread.
fn drive<T>(
    clients: &mut [Client],
    stop: impl Fn(usize) -> bool + Sync,
    meanwhile: impl FnOnce() -> T,
) -> (Vec<(Vec<Sample>, u64)>, T) {
    std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || client.run(stop)))
            .collect();
        let value = meanwhile();
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, value)
    })
}

fn set_up(workload: &'static Workload, seed: u64, tmp: &Path, nth: usize) -> Fixture {
    let db = workload.database(seed);

    // Oracle answers, computed once on the un-suffixed templates and
    // renamed per client (a client's suffix changes names, not tuples).
    let oracle: Vec<Vec<Relation>> = workload
        .templates
        .iter()
        .map(|(id, sgf)| {
            let query = parse_program(sgf).unwrap_or_else(|e| panic!("template {id}: {e}"));
            let env = NaiveEvaluator::new()
                .evaluate_sgf_all(&query, &db)
                .unwrap_or_else(|e| panic!("oracle on {id}: {e}"));
            query
                .output_names()
                .iter()
                .map(|name| env.relation(name).expect("oracle output").clone())
                .collect()
        })
        .collect();
    let outputs_of = |client: usize| -> Vec<Vec<Relation>> {
        oracle
            .iter()
            .map(|rels| {
                rels.iter()
                    .map(|r| r.renamed(client_name(r.name().as_str(), client).as_str()))
                    .collect()
            })
            .collect()
    };

    let (dfs, root): (Arc<dyn Dfs>, _) = match workload.storage {
        Storage::Sim => (Arc::new(SimDfs::from_database(&db)), None),
        Storage::File { cache_bytes } => {
            let root = tmp.join(format!("dfs-{nth}"));
            let dfs = FileDfs::from_database(&root, cache_bytes, &db).expect("load the FileDfs");
            dfs.flush().expect("flush the loaded FileDfs");
            (Arc::new(dfs), Some(root))
        }
    };
    let base = db.relations().map(|r| r.name().clone()).collect();

    let engine = engine_for(workload);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let config = ServeConfig {
        max_in_flight: DISPATCHERS,
        ..ServeConfig::default()
    };
    let server = serve(listener, Arc::clone(&dfs), engine, config).expect("start gumbo-serve");

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| {
            let requests = workload
                .client_templates(c)
                .into_iter()
                .map(|(sgf, _)| {
                    let request = Request::Query {
                        tenant: format!("c{c}"),
                        weight: None,
                        sgf,
                    };
                    (request.to_line() + "\n").into_bytes()
                })
                .collect();
            let expected = outputs_of(c)
                .iter()
                .map(|rels| expected_digest(&rels.iter().collect::<Vec<_>>()))
                .collect();
            let first = (seed as usize + c) % workload.templates.len();
            let verifier = Verifier::new(expected, workload.mem_budget.is_some());
            Client::connect(server.addr(), requests, first, verifier)
        })
        .collect();

    let warmup = WARMUP_ROTATIONS * workload.templates.len();
    drive(&mut clients, |made| made >= warmup, || ());

    Fixture {
        dfs,
        root,
        engine,
        server,
        clients,
        programs: workload.client_templates(0),
        outputs: outputs_of(0),
        base,
    }
}

impl Fixture {
    /// Drain the server and remove what the fixture put on disk.
    /// Returns the bytes the `FileDfs` root held once drained.
    fn tear_down(self, outcome: &mut Outcome) -> u64 {
        for client in &self.clients {
            outcome.attempted += client.verifier.attempted;
            outcome.failed += client.verifier.failed;
            outcome
                .notes
                .extend(client.verifier.reasons.iter().cloned());
        }
        drop(self.clients);
        self.server.shutdown();
        let summary = self.server.join();
        if summary.accepted != summary.completed {
            outcome.fail(format!(
                "drain lost work: accepted {} completed {}",
                summary.accepted, summary.completed
            ));
        }
        drop(self.dfs);
        let disk = self.root.as_deref().map_or(0, proc::dir_bytes);
        if let Some(root) = &self.root {
            std::fs::remove_dir_all(root).expect("remove the FileDfs root");
        }
        disk
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Process-wide counters read at both ends of the window.
struct Meters {
    allocations: u64,
    read: u64,
    written: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Meters {
    fn read(dfs: &dyn Dfs) -> Meters {
        let cache = dfs.cache_stats();
        Meters {
            allocations: proc::allocations(),
            read: dfs.bytes_read().0,
            written: dfs.bytes_written().0,
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
        }
    }
}

const MB: f64 = 1_000_000.0;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run_workload(config: &RunConfig) -> Outcome {
    let workload = config.workload;
    let mut outcome = Outcome::default();
    let tmp = config
        .out_dir
        .join(format!("tmp-{}-{}", workload.name, std::process::id()));
    let spill_root = tmp.join("spill");
    std::fs::create_dir_all(&spill_root).expect("create the spill root");
    // The program's spill directories must land inside the checkout.
    std::env::set_var("GUMBO_SPILL_DIR", &spill_root);

    // Set-up, repeated; the last fixture is the one measured.
    let repeats = match config.mode {
        Mode::EndToEnd => SETUP_REPEATS,
        Mode::Layers => 1,
    };
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for nth in 0..repeats {
        if let Some(previous) = fixture.take() {
            Fixture::tear_down(previous, &mut outcome);
        }
        let start = now_ns();
        fixture = Some(set_up(workload, config.seed, &tmp, nth));
        setup_s.push((now_ns() - start) as f64 / 1e9);
    }
    let mut fx = fixture.expect("at least one set-up");
    outcome.set("setup_s", median(&setup_s));
    outcome.notes.push(format!("set-ups took {setup_s:?} s"));

    measure_window(&mut fx, config.seconds, &mut outcome);

    let traced = (config.mode == Mode::Layers).then(|| {
        let mut spans = Vec::new();
        let rotations = traced_rotations(config.quick);
        let program = traced_pass(&mut fx, rotations, &mut spans, &mut outcome);
        probes(&fx, &mut spans, &mut outcome);
        (spans, program)
    });

    let disk_bytes = Fixture::tear_down(fx, &mut outcome);
    if let Some((spans, program)) = traced {
        outcome.set("storage.disk_mb_end", disk_bytes as f64 / MB);
        let path = config.out_dir.join(format!("{}.trace.json", workload.name));
        let doc = trace::to_json(&spans, &program);
        std::fs::write(&path, doc.to_string() + "\n").expect("write the trace file");
    }

    // Nothing may be left behind: no DFS root, no spill directory.
    let leftovers = |dir: &Path| std::fs::read_dir(dir).map_or(0, |d| d.count());
    if leftovers(&spill_root) > 0 || leftovers(&tmp) > 1 {
        outcome.fail(format!("temporary files left under {}", tmp.display()));
    }
    std::fs::remove_dir_all(&tmp).expect("remove the temporary root");
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("failed_share", failed_share);
    outcome
}

/// The measured window: both clients loop for `seconds` with tracing and
/// the metrics registry off. Fills the end-to-end metrics and the
/// per-layer metrics whose source is the window.
fn measure_window(fx: &mut Fixture, seconds: f64, outcome: &mut Outcome) {
    assert!(!gumbo::obs::enabled() && !gumbo::obs::metrics_enabled());
    let dfs = Arc::clone(&fx.dfs);
    let before = Meters::read(&*dfs);
    let cpu_before_s = proc::cpu_seconds();
    let start_ns = now_ns();
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let (runs, (cpu_s, after, peak_rss_mb)) = drive(
        &mut fx.clients,
        |_| now_ns() >= end_ns,
        || {
            std::thread::sleep(Duration::from_nanos(end_ns.saturating_sub(now_ns())));
            let cpu_s = proc::cpu_seconds() - cpu_before_s;
            (cpu_s, Meters::read(&*dfs), proc::peak_rss_mb())
        },
    );
    let client_cpu_ns: u64 = runs.iter().map(|(_, cpu)| cpu).sum();

    // A reply that ended after the window closed is not a sample of it.
    let samples: Vec<Sample> = runs
        .into_iter()
        .flat_map(|(samples, _)| samples)
        .filter(|s| s.timing.done_ns <= end_ns)
        .collect();
    outcome.samples = samples.len();
    if samples.is_empty() {
        outcome.fail("no verified reply completed inside the window".into());
        return;
    }
    let n = samples.len() as f64;
    let p = |values: Vec<f64>, q: f64| percentile_of(values, q).expect("non-empty window");
    let latencies = sorted(samples.iter().map(|s| ms(s.timing.latency_ns())).collect());

    outcome.set("throughput_qps", n / seconds);
    outcome.set("latency_ms_p50", percentile(&latencies, 50.0));
    outcome.set("latency_ms_p90", percentile(&latencies, 90.0));
    outcome.latency_tail = supported_tail(samples.len()).map(|q| (q, percentile(&latencies, q)));
    let first_frames = samples.iter().map(|s| ms(s.timing.first_frame_ns()));
    outcome.set("first_frame_ms_p50", p(first_frames.collect(), 50.0));
    outcome.set("cpu_ms_per_query", cpu_s * 1e3 / n);
    outcome.set("peak_rss_mb", peak_rss_mb);

    // The model's predictions, averaged over one template rotation.
    let models: Vec<_> = (0..fx.programs.len())
        .filter_map(|t| fx.clients.iter().find_map(|c| c.verifier.model(t)))
        .collect();
    if models.len() == fx.programs.len() {
        let mean =
            |f: fn(&ModelStats) -> f64| models.iter().map(f).sum::<f64>() / models.len() as f64;
        outcome.set("model_total_time_s", mean(|m| m.total_time));
        outcome.set("model_net_time_s", mean(|m| m.net_time));
        outcome.set(
            "comm_mb_per_query",
            mean(|m| m.communication_bytes as f64) / MB,
        );
    }

    // Counts the replies carry, as a mean per query in the metric's unit.
    let sum = |f: Count| samples.iter().map(f).sum::<u64>() as f64;
    let per_query: [(&'static str, Count, f64); 9] = [
        ("core.jobs_per_query", |s| s.stats.jobs, 1.0),
        ("core.rounds_per_query", |s| s.stats.rounds, 1.0),
        ("mr.spilled_mb_per_query", |s| s.stats.spilled_bytes, MB),
        (
            "mr.spill_disk_mb_per_query",
            |s| s.stats.spilled_disk_bytes,
            MB,
        ),
        ("mr.spill_files_per_query", |s| s.stats.spill_files, 1.0),
        ("mr.merge_passes_per_query", |s| s.stats.merge_passes, 1.0),
        ("mr.filter_mb_per_query", |s| s.stats.filter_bytes, MB),
        ("service.reply_mb_per_query", |s| s.reply_bytes, MB),
        ("service.frames_per_query", |s| s.reply_lines, 1.0),
    ];
    for (name, field, unit) in per_query {
        outcome.set(name, sum(field) / n / unit);
    }
    let errors: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.stats.estimate_error)
        .collect();
    if !errors.is_empty() {
        outcome.set(
            "core.estimate_error_mean",
            errors.iter().sum::<f64>() / errors.len() as f64,
        );
    }
    let probes = sum(|s| s.stats.filter_probes);
    let suppressed = if probes > 0.0 {
        sum(|s| s.stats.suppressed) / probes
    } else {
        0.0
    };
    outcome.set("mr.suppressed_share", suppressed);

    // Process-wide counters over the window.
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    if lookups > 0 {
        let hit_rate = (after.hits - before.hits) as f64 / lookups as f64;
        outcome.set("storage.cache_hit_rate", hit_rate);
        let evictions = (after.evictions - before.evictions) as f64;
        outcome.set("storage.cache_evictions_per_query", evictions / n);
    }
    outcome.set(
        "storage.read_mb_per_query",
        (after.read - before.read) as f64 / n / MB,
    );
    outcome.set(
        "storage.written_mb_per_query",
        (after.written - before.written) as f64 / n / MB,
    );
    outcome.set(
        "proc.allocs_per_query",
        (after.allocations - before.allocations) as f64 / n,
    );

    // The five-way partition of each latency.
    let part = |i: usize, q: f64| {
        p(
            samples.iter().map(|s| ms(s.timing.parts_ns()[i])).collect(),
            q,
        )
    };
    outcome.set("service.submit_ms_p50", part(0, 50.0));
    outcome.set("sched.queue_wait_ms_p50", part(1, 50.0));
    outcome.set("sched.queue_wait_ms_p90", part(1, 90.0));
    outcome.set("sched.service_ms_p50", part(2, 50.0));
    outcome.set("service.collect_ms_p50", part(3, 50.0));
    outcome.set("service.stream_ms_p50", part(4, 50.0));

    let busy = client_cpu_ns as f64 / ((end_ns - start_ns) as f64 * CLIENTS as f64);
    outcome.set("gen.client_busy_share", busy);
    if busy >= MAX_CLIENT_BUSY_SHARE {
        outcome.notes.push(format!(
            "flag: load generator used {busy:.3} of a core per client (guard {MAX_CLIENT_BUSY_SHARE})"
        ));
    }
}

/// The traced pass: a `RingSink` is installed while every client runs
/// `rotations` template rotations. Fills the span-derived metrics and
/// adds each request's partition to the harness span table.
fn traced_pass(
    fx: &mut Fixture,
    rotations: usize,
    spans: &mut Vec<HarnessSpan>,
    outcome: &mut Outcome,
) -> ProgramTrace {
    let per_client = rotations * fx.programs.len();
    let ring = Arc::new(RingSink::new(RING_EVENTS));
    gumbo::obs::install(ring.clone());
    let start_ns = now_ns();
    let (runs, ()) = drive(&mut fx.clients, |made| made >= per_client, || ());
    let elapsed_s = (now_ns() - start_ns) as f64 / 1e9;
    gumbo::obs::uninstall();

    let samples: Vec<Sample> = runs.into_iter().flat_map(|(samples, _)| samples).collect();
    for (request, sample) in samples.iter().enumerate() {
        sample.timing.record(request as u64, spans);
    }
    let events = ring.events();
    let program = ProgramTrace {
        folded: trace::fold_self_time(&events),
        events: events.len() as u64,
        dropped: ring.dropped(),
    };
    let n = samples.len() as f64;
    if samples.is_empty() {
        outcome.fail("no verified reply in the traced pass".into());
        return program;
    }
    let folded = &program.folded;

    // Spans every query must produce: if one is missing the program
    // stopped emitting it, which is worth a warning but not a failure.
    let mut always = |metric: &'static str, span: &str, pick: fn(&trace::Folded) -> u64| {
        match folded.get(span) {
            Some(f) => outcome.set(metric, ms(pick(f)) / n),
            None => {
                outcome.values.insert(metric, None);
                outcome.notes.push(format!(
                    "warning: the program emitted no {span:?} span; {metric} is null"
                ));
            }
        }
    };
    always("mr.plan_ms_per_query", "plan", |f| f.self_ns);
    always("mr.map_ms_per_query", "map", |f| f.self_ns);
    always("mr.shuffle_flush_ms_per_query", "shuffle:flush", |f| {
        f.self_ns
    });
    always("mr.reduce_ms_per_query", "reduce", |f| f.self_ns);
    always("mr.commit_ms_per_query", "commit", |f| f.self_ns);
    always("sched.execute_ms_per_query", "execute", |f| f.total_ns);
    always("sched.job_ms_per_query", "job", |f| f.total_ns);
    // Spans that only appear when their mechanism runs: absent means 0.
    for (metric, span) in [
        ("mr.spill_run_ms_per_query", "spill:run"),
        ("mr.spill_merge_ms_per_query", "spill:merge"),
        ("mr.filter_build_ms_per_query", "filter:build"),
        ("mr.filter_probe_ms_per_query", "filter:probe"),
    ] {
        outcome.set(metric, folded.get(span).map_or(0.0, |f| ms(f.self_ns) / n));
    }

    let traced_qps = n / elapsed_s;
    if let Some(Some(window_qps)) = outcome.values.get("throughput_qps").copied() {
        outcome.set("obs.trace_overhead_ratio", traced_qps / window_qps);
    }
    outcome.set("obs.events_per_query", program.events as f64 / n);
    outcome.set("obs.dropped_events", program.dropped as f64);
    program
}

/// Single-threaded probes on the idle server: each times one public
/// call into one layer, inside a `probe:<layer>.<call>` harness span.
fn probes(fx: &Fixture, spans: &mut Vec<HarnessSpan>, outcome: &mut Outcome) {
    let dfs = &*fx.dfs;
    let p50_ms = |ns: Vec<u64>| {
        percentile_of(ns.into_iter().map(ms).collect(), 50.0).expect("every probe ran")
    };

    // sgf: parse every template.
    let mut parse = Vec::new();
    for _ in 0..50 {
        for (sgf, _) in &fx.programs {
            let (query, ns) =
                trace::probe(spans, "sgf.parse_program", || parse_program(black_box(sgf)));
            black_box(query.expect("template parses"));
            parse.push(ns);
        }
    }
    outcome.set("sgf.parse_us_p50", p50_ms(parse) * 1e3);

    // core: admission pricing as the server does it, on the live DFS.
    let mut plan = Vec::new();
    for _ in 0..5 {
        for (_, query) in &fx.programs {
            let (cost, ns) = trace::probe(spans, "core.sort_cost", || {
                let sort = fx.engine.sort_for(dfs, query)?;
                fx.engine.sort_cost(dfs, query, &sort)
            });
            black_box(cost.expect("plan probe"));
            plan.push(ns);
        }
    }
    outcome.set("core.plan_ms_p50", p50_ms(plan));

    // core: the one-shot path — one caller, no service.
    let runtime = fx.engine.runtime();
    let mut eval = Vec::new();
    for _ in 0..3 {
        for (_, query) in &fx.programs {
            let (stats, ns) = trace::probe(spans, "core.eval", || {
                fx.engine.eval().on(&*runtime).run(dfs, query)
            });
            black_box(stats.expect("eval probe"));
            eval.push(ns);
        }
    }
    outcome.set("core.eval_ms_p50", p50_ms(eval));

    // storage: scan every base relation end to end.
    let (mut scanned, mut scan_ns) = (0u64, 0u64);
    for _ in 0..3 {
        for name in &fx.base {
            let (bytes, ns) = trace::probe(spans, "storage.scan", || {
                let scan = dfs.scan(name).expect("open scan");
                black_box(scan.fetch(0..scan.len()).expect("fetch"));
                scan.bytes().0
            });
            scanned += bytes;
            scan_ns += ns;
        }
    }
    outcome.set(
        "storage.scan_mb_per_s",
        scanned as f64 / MB / (scan_ns as f64 / 1e9),
    );

    // storage: store a copy of the largest base relation durably.
    let copy = dfs
        .peek(&RelationName::from("R"))
        .expect("base relation R")
        .renamed("BenchProbeCopy");
    let (mut stored, mut store_ns) = (0u64, 0u64);
    for _ in 0..5 {
        let (bytes, ns) = trace::probe(spans, "storage.store", || {
            let bytes = dfs.store(copy.clone()).expect("store");
            dfs.flush().expect("flush");
            bytes.0
        });
        dfs.delete(copy.name()).expect("delete the probe copy");
        stored += bytes;
        store_ns += ns;
    }
    outcome.set(
        "storage.store_mb_per_s",
        stored as f64 / MB / (store_ns as f64 / 1e9),
    );

    // storage: materialise committed outputs, as the dispatcher does.
    let mut peek = Vec::new();
    for _ in 0..20 {
        for name in fx.programs.iter().flat_map(|(_, q)| q.output_names()) {
            let (rel, ns) = trace::probe(spans, "storage.peek", || dfs.peek(&name));
            black_box(rel.expect("peek a committed output"));
            peek.push(ns);
        }
    }
    outcome.set("storage.peek_ms_p50", p50_ms(peek));

    // service: encode the expected replies as the handler does.
    let (mut rows, mut encode_ns) = (0usize, 0u64);
    for _ in 0..5 {
        for relations in &fx.outputs {
            let refs: Vec<&Relation> = relations.iter().collect();
            let (lines, ns) = trace::probe(spans, "service.encode", || reply_lines(&refs));
            black_box(lines);
            rows += refs.iter().map(|r| r.len()).sum::<usize>();
            encode_ns += ns;
        }
    }
    outcome.set(
        "service.encode_rows_per_s",
        rows as f64 / (encode_ns as f64 / 1e9),
    );

    // service: a fresh connection's first round trip.
    let mut connect = Vec::new();
    for _ in 0..20 {
        let ((), ns) = trace::probe(spans, "service.connect", || {
            let mut stream = TcpStream::connect(fx.server.addr()).expect("connect");
            stream.set_nodelay(true).expect("set_nodelay");
            stream
                .write_all((Request::Ping.to_line() + "\n").as_bytes())
                .expect("send ping");
            let mut pong = String::new();
            BufReader::new(&stream)
                .read_line(&mut pong)
                .expect("read pong");
            assert!(pong.contains("pong"), "ping answered with {pong:?}");
        });
        connect.push(ns);
    }
    outcome.set("service.connect_ms_p50", p50_ms(connect));
}
