//! `gumbo-cli` — run SGF queries over TSV relations from the command line,
//! serve them to concurrent tenants over TCP, or regenerate the paper's
//! §5 experiments.
//!
//! ```text
//! gumbo-cli [FLAGS]          one-shot: evaluate one program, verify it, exit
//! gumbo-cli serve [FLAGS]    hold the database resident and answer queries
//! gumbo-cli query    [--addr ADDR] [--tenant NAME] [--weight W]
//!                    (--query FILE | --sgf TEXT | --preset NAME)
//!                    [--out DIR] [--stats-json PATH]
//! gumbo-cli shutdown [--addr ADDR]
//! gumbo-cli experiments NAME [FLAGS]   the §5 tables and figures (experiments.rs)
//! gumbo-cli trace-check PATH           validate a `--trace` file (trace_check.rs)
//! ```
//!
//! Every mode parses its values with the same helpers: one `--executor`
//! grammar, one rule that `--tuples`, `--scale` and `--nodes` are at
//! least 1, one start and finish of `--trace`/`--metrics-dump`, and one
//! builder of the cost model's scale and cluster.
//!
//! One-shot and `serve` share one parser for the ten flags they have in
//! common — input (`--preset`, `--tuples`, `--data`), engine sizing
//! (`--executor`, `--max-jobs`, `--mem-budget`), storage (`--dfs`,
//! `--dfs-cache`) and recording (`--trace`, `--metrics-dump`) — one
//! checker for the rules between them, one loader
//! and one engine builder. The same flags therefore give both modes the
//! same engine, so a served query is planned, priced and answered exactly
//! like a one-shot run. The only difference is the documented `--max-jobs`
//! default: one job slot one-shot, four in `serve`. README's option table
//! lists every flag of both modes with its default.
//!
//! One-shot reads a program from `--query FILE` over the `Name.tsv`
//! relations in `--data DIR`, or runs a `--preset` (`a1`–`a5`, `b1`, `b2`,
//! `c1`–`c4`) without any files. It checks the answer against the naive
//! reference evaluator and exits nonzero on a mismatch. It then prints the
//! paper's four metrics and a `shuffle memory:` summary line, and, on a
//! `file:` store, a `dfs cache:` line. A tracked shuffle peak above
//! `--mem-budget` is an internal error: the summary prints first, then
//! the process exits nonzero. The budget bounds the reducer buffers,
//! which hold handles into the resident map output: a flush it forces
//! writes rows to disk and frees only handles, so it trades spill I/O
//! for bookkeeping and saves no memory (README, *Budget semantics*).
//! `--out` writes every output relation as TSV, and `--stats-json`
//! writes the full [`ProgramStats`].
//!
//! `serve` binds `--listen` and answers line-delimited JSON query
//! requests with fair-share admission between tenants, each charged the
//! measured service time of its finished queries.
//! SIGTERM/SIGINT (or a client's `shutdown` request) drains it: every
//! accepted submission finishes and streams out before the process
//! exits, and the exit code is nonzero if any accepted work was lost.
//! `query` submits one program and writes the streamed relations and
//! stats like the one-shot flags of the same name.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gumbo::mr::{ExecutorKind, MemBudget};
use gumbo::prelude::*;
// The stats vocabulary is shared with the query service so `--stats-json`
// documents and streamed `stats` frames speak identical JSON.
use gumbo::service::protocol::stats_to_json;

// The subcommands' own modules live beside this crate root, in
// `src/bin/gumbo-cli/`.
#[path = "gumbo-cli/experiments.rs"]
mod experiments;
#[path = "gumbo-cli/runner.rs"]
mod runner;
#[path = "gumbo-cli/trace_check.rs"]
mod trace_check;

// One-shot's `--strategy`, `--scale` and `--nodes` defaults. `serve` has
// none of the three flags and plans and prices every query with these.
const DEFAULT_STRATEGY: Strategy = Strategy::GreedySgf;
const DEFAULT_SCALE: u64 = 1;
const DEFAULT_NODES: usize = 10;

/// Which storage backend `--dfs` selected.
enum DfsSpec {
    /// The in-memory simulated DFS (the default).
    Sim,
    /// The durable file-segment DFS rooted at the given directory.
    File(PathBuf),
}

/// The flags one-shot runs and `serve` share.
struct Common {
    preset: Option<String>,
    tuples: Option<usize>,
    data: Option<PathBuf>,
    executor: ExecutorKind,
    max_jobs: usize,
    mem_budget: MemBudget,
    dfs: DfsSpec,
    dfs_cache: Option<u64>,
    recording: Recording,
}

impl Common {
    /// The defaults of a mode whose `--max-jobs` default is `max_jobs`.
    fn new(max_jobs: usize) -> Common {
        Common {
            preset: None,
            tuples: None,
            data: None,
            executor: ExecutorKind::Simulated,
            max_jobs,
            mem_budget: MemBudget::UNLIMITED,
            dfs: DfsSpec::Sim,
            dfs_cache: None,
            recording: Recording::default(),
        }
    }

    /// Parse `argv[*i]` (and its value) if it is a shared flag; `false`
    /// leaves it to the mode's own flags.
    fn parse_flag(&mut self, i: &mut usize, argv: &[String]) -> Result<bool, String> {
        match argv[*i].as_str() {
            "--preset" => self.preset = Some(need(i, argv)?),
            "--tuples" => self.tuples = Some(at_least_one(i, argv)?),
            "--data" => self.data = Some(PathBuf::from(need(i, argv)?)),
            "--executor" => self.executor = executor(i, argv)?,
            "--max-jobs" => self.max_jobs = parsed(i, argv)?,
            "--mem-budget" => {
                let spec = need(i, argv)?;
                self.mem_budget = MemBudget::parse(&spec).ok_or_else(|| {
                    format!("--mem-budget: BYTES (k/m/g suffix ok) or unlimited, got {spec}")
                })?;
            }
            "--dfs" => {
                let spec = need(i, argv)?;
                self.dfs = if spec == "sim" {
                    DfsSpec::Sim
                } else if let Some(path) = spec.strip_prefix("file:") {
                    DfsSpec::File(PathBuf::from(path))
                } else {
                    return Err(format!("--dfs: sim|file:PATH, got {spec}"));
                };
            }
            "--dfs-cache" => {
                let spec = need(i, argv)?;
                // MemBudget's byte grammar (k/m/g suffixes), minus the
                // "unlimited" spelling — an unbounded cache is just a
                // cache sized to the store.
                self.dfs_cache = Some(
                    MemBudget::parse(&spec)
                        .and_then(|b| b.limit())
                        .ok_or_else(|| {
                            format!("--dfs-cache: BYTES (k/m/g suffix ok), got {spec}")
                        })?,
                );
            }
            _ => return self.recording.parse_flag(i, argv),
        }
        Ok(true)
    }

    /// The rules between shared flags, for both modes. Each guards a
    /// combination that would otherwise be ambiguous or a silent no-op.
    fn check(&self) -> Result<(), String> {
        match (&self.preset, &self.data) {
            (Some(_), Some(_)) => {
                return Err("--preset conflicts with --data: pick one input source".into())
            }
            (None, None) => {
                return Err("either --preset NAME or --data DIR is required (try --help)".into())
            }
            (None, Some(_)) if self.tuples.is_some() => {
                return Err("--tuples only applies to --preset workloads".into())
            }
            _ => {}
        }
        if self.dfs_cache.is_some() && matches!(self.dfs, DfsSpec::Sim) {
            // The in-memory DFS has no block cache.
            return Err("--dfs-cache requires --dfs file:PATH".into());
        }
        Ok(())
    }
}

/// `--trace` and `--metrics-dump`: what every evaluating mode records.
#[derive(Default)]
struct Recording {
    trace: Option<PathBuf>,
    metrics_dump: bool,
}

impl Recording {
    /// Parse `argv[*i]` if it is a recording flag.
    fn parse_flag(&mut self, i: &mut usize, argv: &[String]) -> Result<bool, String> {
        match argv[*i].as_str() {
            "--trace" => self.trace = Some(PathBuf::from(need(i, argv)?)),
            "--metrics-dump" => self.metrics_dump = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Start recording what the flags ask for.
    fn start(&self) -> Result<(), String> {
        if let Some(path) = &self.trace {
            gumbo::obs::install_trace_file(path).map_err(|e| format!("--trace {path:?}: {e}"))?;
        }
        if self.metrics_dump {
            gumbo::obs::set_metrics_enabled(true);
        }
        Ok(())
    }

    /// Finalize the trace file — close the Chrome array, so a failed
    /// run's trace still loads — and print the counter registry if asked.
    fn finish(&self) {
        gumbo::obs::uninstall();
        if self.metrics_dump {
            gumbo::obs::print_metrics();
        }
    }
}

/// The scheduler configuration the CLI runs under, one-shot and `serve`
/// alike: `--max-jobs` slots, and the same shuffle budget
/// `EvalOptions::mem_budget` carries (one executor, one shared tracker).
fn scheduler_config(max_jobs: usize, budget: MemBudget) -> SchedulerConfig {
    SchedulerConfig {
        max_concurrent_jobs: max_jobs,
        mem_budget: budget,
        ..SchedulerConfig::ONE_SLOT
    }
}

/// The §5 strategy a one-shot `--strategy` name selects.
fn strategy(name: &str) -> Result<Strategy, String> {
    Ok(match name {
        "greedy" => Strategy::GreedySgf,
        "one-round" => Strategy::OneRound,
        "par" | "parunit" => Strategy::ParUnit,
        "sequnit" => Strategy::SeqUnit,
        other => return Err(format!("unknown strategy {other}")),
    })
}

/// The cost model's byte scale and simulated cluster (`--scale`,
/// `--nodes`), for every mode.
fn engine_config(scale: u64, nodes: usize) -> EngineConfig {
    EngineConfig {
        scale,
        cluster: Cluster::with_nodes(nodes),
        ..EngineConfig::default()
    }
}

/// The engine both modes run: a strategy priced at a cost-model scale
/// and cluster, sized by the shared flags.
fn build_engine(common: &Common, strategy: Strategy, config: EngineConfig) -> GumboEngine {
    let mut engine = strategy
        .engine(config)
        .expect("--strategy names a Gumbo strategy");
    engine.executor = common.executor;
    engine.options.mem_budget = common.mem_budget;
    engine.options.scheduler = Some(scheduler_config(common.max_jobs, common.mem_budget));
    engine
}

/// Resolve one of the paper's generated workloads by name.
fn preset(name: &str) -> Result<gumbo::datagen::Workload, String> {
    use gumbo::datagen::queries;
    Ok(match name.to_ascii_lowercase().as_str() {
        "a1" => queries::a1(),
        "a2" => queries::a2(),
        "a3" => queries::a3(),
        "a4" => queries::a4(),
        "a5" => queries::a5(),
        "b1" => queries::b1(),
        "b2" => queries::b2(),
        "c1" => queries::c1(),
        "c2" => queries::c2(),
        "c3" => queries::c3(),
        "c4" => queries::c4(),
        _ => return Err(format!("unknown preset {name} (a1-a5, b1, b2, c1-c4)")),
    })
}

/// Load the database both modes evaluate over — a generated preset,
/// seeded identically everywhere so served answers diff clean against
/// one-shot output, or a TSV directory — and the program to run: the
/// preset's own, or the one in `query` (`None` when neither applies).
fn load_inputs(
    common: &Common,
    query: Option<&Path>,
) -> Result<(Database, Option<SgfQuery>), String> {
    if let Some(name) = &common.preset {
        let workload = preset(name)?;
        let tuples = common.tuples.unwrap_or(1000);
        let db = workload.spec.clone().with_tuples(tuples).database(1);
        eprintln!(
            "preset {}: {} relations, {tuples} guard tuples",
            workload.name,
            db.relation_count(),
        );
        return Ok((db, Some(workload.query)));
    }

    let dir = common
        .data
        .as_ref()
        .expect("Common::check requires an input");
    let relations = gumbo::common::io::read_tsv_dir(dir).map_err(|e| e.to_string())?;
    if relations.is_empty() {
        return Err(format!("no .tsv relations found in {dir:?}"));
    }
    let mut db = Database::new();
    for rel in relations {
        eprintln!(
            "loaded {:<16} {:>8} tuples (arity {})",
            rel.name(),
            rel.len(),
            rel.arity()
        );
        db.add_relation(rel);
    }
    let Some(path) = query else {
        return Ok((db, None));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let query = parse_program(&text).map_err(|e| e.to_string())?;
    Ok((db, Some(query)))
}

/// Build the selected DFS backend, loaded with the input database.
///
/// The file backend reopens an existing store at `PATH` and loads only
/// the relations it doesn't already hold, so a rerun against the same
/// root restarts from the durable state. The initial load is unmetered,
/// matching [`SimDfs::from_database`].
fn build_dfs(common: &Common, db: &Database) -> Result<Box<dyn Dfs>, String> {
    match &common.dfs {
        DfsSpec::Sim => Ok(Box::new(SimDfs::from_database(db))),
        DfsSpec::File(root) => {
            let cache = common.dfs_cache.unwrap_or(DEFAULT_CACHE_BYTES);
            let dfs = FileDfs::open_or_create(root, cache).map_err(|e| e.to_string())?;
            for rel in db.relations() {
                if !dfs.exists(rel.name()) {
                    Dfs::store(&dfs, rel.clone()).map_err(|e| e.to_string())?;
                }
            }
            dfs.reset_counters();
            Ok(Box::new(dfs))
        }
    }
}

/// The value after the flag at `argv[*i]`.
fn need(i: &mut usize, argv: &[String]) -> Result<String, String> {
    *i += 1;
    argv.get(*i)
        .cloned()
        .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
}

/// The value after the flag at `argv[*i]`, parsed.
fn parsed<T: std::str::FromStr>(i: &mut usize, argv: &[String]) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = need(i, argv)?;
    value.parse().map_err(|e| format!("{}: {e}", argv[*i - 1]))
}

/// The value after the flag at `argv[*i]`, parsed and at least 1: a zero
/// tuple count, byte scale or node count would print NaN ratios, price
/// every byte at nothing or run one map slot in silence.
fn at_least_one<T>(i: &mut usize, argv: &[String]) -> Result<T, String>
where
    T: std::str::FromStr + From<u8> + PartialOrd,
    T::Err: std::fmt::Display,
{
    let value: T = parsed(i, argv)?;
    if value < T::from(1) {
        return Err(format!("{}: must be at least 1", argv[*i - 1]));
    }
    Ok(value)
}

/// The `--executor` runtime after the flag at `argv[*i]`.
fn executor(i: &mut usize, argv: &[String]) -> Result<ExecutorKind, String> {
    let spec = need(i, argv)?;
    ExecutorKind::parse(&spec)
        .ok_or_else(|| format!("--executor: sim|parallel|parallel:N, got {spec}"))
}

/// One-shot mode: the shared flags plus the ones only a single run has.
struct Args {
    common: Common,
    query: Option<PathBuf>,
    strategy: Strategy,
    scale: u64,
    nodes: usize,
    out: Option<PathBuf>,
    explain: bool,
    stats_json: Option<PathBuf>,
}

const USAGE: &str = "usage: gumbo-cli [serve|query|shutdown|experiments|trace-check] ... \
                     (see --help per subcommand) | \
                     gumbo-cli --data DIR --query FILE | --preset NAME [--tuples N] \
                     [--strategy greedy|par|sequnit|parunit|one-round] \
                     [--executor sim|parallel|parallel:N] \
                     [--max-jobs N] \
                     [--mem-budget BYTES|unlimited] \
                     [--dfs sim|file:PATH] [--dfs-cache BYTES] \
                     [--trace PATH] [--metrics-dump] [--stats-json PATH] \
                     [--scale N] [--nodes N] [--out DIR] [--explain]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        common: Common::new(1),
        query: None,
        strategy: DEFAULT_STRATEGY,
        scale: DEFAULT_SCALE,
        nodes: DEFAULT_NODES,
        out: None,
        explain: false,
        stats_json: None,
    };
    let mut i = 0;
    while i < argv.len() {
        if !args.common.parse_flag(&mut i, argv)? {
            match argv[i].as_str() {
                "--query" => args.query = Some(PathBuf::from(need(&mut i, argv)?)),
                "--strategy" => args.strategy = strategy(&need(&mut i, argv)?)?,
                "--scale" => args.scale = at_least_one(&mut i, argv)?,
                "--nodes" => args.nodes = at_least_one(&mut i, argv)?,
                "--out" => args.out = Some(PathBuf::from(need(&mut i, argv)?)),
                "--explain" => args.explain = true,
                "--stats-json" => args.stats_json = Some(PathBuf::from(need(&mut i, argv)?)),
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag {other} (try --help)")),
            }
        }
        i += 1;
    }
    args.common.check()?;
    if args.query.is_some() != args.common.data.is_some() {
        return Err("--query goes with --data; a --preset brings its own query".into());
    }
    Ok(args)
}

impl Args {
    fn engine(&self) -> GumboEngine {
        build_engine(
            &self.common,
            self.strategy,
            engine_config(self.scale, self.nodes),
        )
    }
}

/// Nonzero-exit check for the shuffle-memory budget, split out so the
/// call site *must* print the summary line first and the exit path is
/// unit-testable: a tracked peak above the limit is an internal error
/// (the CAS-guarded tracker is supposed to make it impossible).
fn budget_check(peak: u64, limit: Option<u64>) -> Result<(), String> {
    match limit {
        Some(limit) if peak > limit => Err(format!(
            "internal error: tracked shuffle memory peaked at {peak} over budget {limit}"
        )),
        _ => Ok(()),
    }
}

fn run(args: Args) -> Result<(), String> {
    let (db, query) = load_inputs(&args.common, args.query.as_deref())?;
    let query = query.expect("parse_args pairs --data with --query");
    eprintln!("\nquery:\n{query}\n");

    let engine = args.engine();
    let dfs = build_dfs(&args.common, &db)?;
    let dfs: &dyn Dfs = &*dfs;

    if args.explain {
        let sort = engine.sort_for(dfs, &query).map_err(|e| e.to_string())?;
        eprintln!("multiway topological sort: {sort:?}");
        let cost = engine
            .sort_cost(dfs, &query, &sort)
            .map_err(|e| e.to_string())?;
        eprintln!("estimated plan cost      : {cost:.1}");
        if let Some(sched) = engine.options.scheduler {
            eprintln!(
                "scheduler                : max {} concurrent jobs",
                sched.effective_workers(),
            );
        }
        eprintln!();
    }

    args.common.recording.start()?;
    let runtime = engine.runtime();
    let result = engine.eval().on(&runtime).run(dfs, &query);
    // Finalize the trace file *before* propagating errors: a failed run's
    // trace is exactly the one worth loading into Perfetto. The metrics
    // print at `finish` below, after the summary.
    gumbo::obs::uninstall();
    let stats = result.map_err(|e| e.to_string())?;

    // Verify against the reference evaluator (cheap at CLI scales).
    let expected = NaiveEvaluator::new()
        .evaluate_sgf(&query, &db)
        .map_err(|e| e.to_string())?;
    let got = dfs.peek(query.output()).map_err(|e| e.to_string())?;
    if got.as_ref() != &expected {
        return Err("internal error: MapReduce result differs from reference evaluator".into());
    }

    println!("{stats}");
    // The calibration ledger: how well the planner's cost estimates
    // predicted what actually ran (observed/estimated, 1.0 = perfect).
    if let Some(mean) = stats.mean_estimate_error() {
        let estimated = stats
            .jobs
            .iter()
            .filter(|j| j.estimate_error().is_some())
            .count();
        println!(
            "estimates: jobs_with_estimates={estimated}/{} mean_error={mean:.3}",
            stats.num_jobs(),
        );
    }
    let budget = runtime.budget();
    // Under an unlimited budget the tracker charges in coarse granules,
    // so the reported peak is an upper bound, not an exact figure.
    let peak_key = if budget.limit().is_some() {
        "peak_tracked="
    } else {
        "peak_tracked~="
    };
    // The summary line always prints before the budget check below, so a
    // nonzero exit still carries the evidence in the log.
    println!(
        "shuffle memory: budget={} {peak_key}{} spilled_bytes={} spilled_disk_bytes={} spill_files={} merge_passes={}",
        budget.spec().label(),
        budget.peak(),
        stats.spilled_bytes(),
        stats.spilled_disk_bytes(),
        stats.spill_files(),
        stats.spill_merge_passes(),
    );
    budget_check(budget.peak(), budget.limit())?;
    let cache = if matches!(args.common.dfs, DfsSpec::File(_)) {
        let cache = dfs.cache_stats();
        println!(
            "dfs cache: capacity={} hits={} misses={} evictions={} cached_bytes={} hit_rate={}",
            cache.capacity_bytes,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.cached_bytes,
            cache
                .hit_rate()
                .map_or("n/a".to_string(), |r| format!("{r:.4}")),
        );
        dfs.flush().map_err(|e| e.to_string())?;
        Some(cache)
    } else {
        None
    };
    println!("output {} has {} tuples", query.output(), got.len());

    if let Some(path) = &args.stats_json {
        let json = stats_to_json(&stats, cache.as_ref());
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("--stats-json {path:?}: {e}"))?;
        println!("wrote {path:?} (program stats)");
    }
    args.common.recording.finish();

    if let Some(out_dir) = args.out {
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
        for name in query.output_names() {
            let rel = dfs.peek(&name).map_err(|e| e.to_string())?;
            let path = out_dir.join(format!("{name}.tsv"));
            gumbo::common::io::write_tsv_file(&rel, &path).map_err(|e| e.to_string())?;
            println!("wrote {path:?} ({} tuples)", rel.len());
        }
    }
    Ok(())
}

/// `serve` mode: the shared flags plus the server's own.
struct ServeArgs {
    common: Common,
    listen: String,
    config: ServeConfig,
}

const SERVE_USAGE: &str = "usage: gumbo-cli serve [--listen ADDR] \
                           (--preset NAME [--tuples N] | --data DIR) \
                           [--dfs sim|file:PATH] [--dfs-cache BYTES] \
                           [--executor sim|parallel|parallel:N] [--max-jobs N] \
                           [--mem-budget BYTES|unlimited] \
                           [--queue-cap N] [--inflight N] \
                           [--trace PATH] [--metrics-dump]";

fn parse_serve(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        common: Common::new(4),
        listen: "127.0.0.1:7421".into(),
        config: ServeConfig::default(),
    };
    let mut i = 0;
    while i < argv.len() {
        if !args.common.parse_flag(&mut i, argv)? {
            match argv[i].as_str() {
                "--listen" => args.listen = need(&mut i, argv)?,
                "--queue-cap" => args.config.queue_capacity = parsed(&mut i, argv)?,
                "--inflight" => args.config.max_in_flight = parsed(&mut i, argv)?,
                "--help" | "-h" => return Err(SERVE_USAGE.into()),
                other => return Err(format!("serve: unknown flag {other} (try --help)")),
            }
        }
        i += 1;
    }
    args.common.check()?;
    Ok(args)
}

impl ServeArgs {
    fn engine(&self) -> GumboEngine {
        build_engine(
            &self.common,
            DEFAULT_STRATEGY,
            engine_config(DEFAULT_SCALE, DEFAULT_NODES),
        )
    }
}

fn run_serve(args: ServeArgs) -> Result<(), String> {
    let (db, _) = load_inputs(&args.common, None)?;
    let dfs: std::sync::Arc<dyn Dfs> = std::sync::Arc::from(build_dfs(&args.common, &db)?);
    let engine = args.engine();
    gumbo::service::install_signal_drain();
    args.common.recording.start()?;
    let listener = std::net::TcpListener::bind(&args.listen)
        .map_err(|e| format!("bind {}: {e}", args.listen))?;
    let handle = serve(listener, dfs, engine, args.config).map_err(|e| e.to_string())?;
    println!("gumbo-serve listening on {}", handle.addr());
    let summary = handle.join();
    println!(
        "gumbo-serve drained: connections={} accepted={} completed={}",
        summary.connections, summary.accepted, summary.completed,
    );
    args.common.recording.finish();
    if summary.accepted != summary.completed {
        return Err(format!(
            "drain lost work: accepted {} != completed {}",
            summary.accepted, summary.completed,
        ));
    }
    Ok(())
}

const QUERY_USAGE: &str = "usage: gumbo-cli query [--addr ADDR] [--tenant NAME] [--weight W] \
                           (--query FILE | --sgf TEXT | --preset NAME) \
                           [--out DIR] [--stats-json PATH]";

fn run_query(argv: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7421".to_string();
    let mut tenant = "default".to_string();
    let mut weight: Option<f64> = None;
    let mut query_file: Option<PathBuf> = None;
    let mut sgf_text: Option<String> = None;
    let mut preset_name: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut stats_json: Option<PathBuf> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = need(&mut i, argv)?,
            "--tenant" => tenant = need(&mut i, argv)?,
            "--weight" => weight = Some(parsed(&mut i, argv)?),
            "--query" => query_file = Some(PathBuf::from(need(&mut i, argv)?)),
            "--sgf" => sgf_text = Some(need(&mut i, argv)?),
            "--preset" => preset_name = Some(need(&mut i, argv)?),
            "--out" => out = Some(PathBuf::from(need(&mut i, argv)?)),
            "--stats-json" => stats_json = Some(PathBuf::from(need(&mut i, argv)?)),
            "--help" | "-h" => return Err(QUERY_USAGE.into()),
            other => return Err(format!("query: unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    let sgf = match (query_file, sgf_text, preset_name) {
        (Some(path), None, None) => {
            std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?
        }
        (None, Some(text), None) => text,
        (None, None, Some(name)) => preset(&name)?.query.to_string(),
        _ => return Err("query needs exactly one of --query, --sgf, --preset".into()),
    };
    // Retry the connect: CI starts the server in the background and the
    // first client may race the bind.
    let mut client =
        ServiceClient::connect_retry(addr.as_str(), 40, std::time::Duration::from_millis(250))
            .map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client
        .query(&tenant, weight, &sgf)
        .map_err(|e| e.to_string())?;
    for rel in &reply.relations {
        println!("relation {} has {} tuples", rel.name(), rel.len());
    }
    println!(
        "report: tenant={tenant} queue_wait_ns={} service_ns={}",
        reply.queue_wait_ns().unwrap_or(0),
        reply
            .report
            .get("service_ns")
            .and_then(gumbo::obs::json::Json::as_u64)
            .unwrap_or(0),
    );
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        for rel in &reply.relations {
            let path = dir.join(format!("{}.tsv", rel.name()));
            gumbo::common::io::write_tsv_file(rel, &path).map_err(|e| e.to_string())?;
            println!("wrote {path:?} ({} tuples)", rel.len());
        }
    }
    if let Some(path) = stats_json {
        std::fs::write(&path, format!("{}\n", reply.report))
            .map_err(|e| format!("--stats-json {path:?}: {e}"))?;
        println!("wrote {path:?} (submission report)");
    }
    Ok(())
}

const SHUTDOWN_USAGE: &str = "usage: gumbo-cli shutdown [--addr ADDR]";

fn run_shutdown(argv: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7421".to_string();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = need(&mut i, argv)?,
            "--help" | "-h" => return Err(SHUTDOWN_USAGE.into()),
            other => return Err(format!("shutdown: unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    let mut client =
        ServiceClient::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    let (accepted, completed) = client.shutdown().map_err(|e| e.to_string())?;
    println!("server drained: accepted={accepted} completed={completed}");
    if accepted != completed {
        return Err(format!(
            "drain lost work: accepted {accepted} != completed {completed}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => parse_serve(&argv[1..]).and_then(run_serve),
        Some("query") => run_query(&argv[1..]),
        Some("shutdown") => run_shutdown(&argv[1..]),
        Some("experiments") => experiments::main(&argv[1..]),
        Some("trace-check") => trace_check::main(&argv[1..]),
        _ => parse_args(&argv).and_then(run),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_check_fails_only_when_peak_exceeds_a_limit() {
        // The nonzero exit path: peak over the limit.
        let err = budget_check(10, Some(5)).unwrap_err();
        assert!(err.contains("peaked at 10 over budget 5"), "{err}");
        // At the limit or under it: clean exit.
        assert!(budget_check(5, Some(5)).is_ok());
        assert!(budget_check(0, Some(5)).is_ok());
        // Unlimited budgets never fail, whatever the tracked peak.
        assert!(budget_check(u64::MAX, None).is_ok());
    }

    fn argv(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(&argv(&[&["--preset", "a3"][..], flags].concat()))
    }

    /// There is no scheduler to choose: every run is on the one
    /// scheduling path — one slot by default, sharing the run's shuffle
    /// budget.
    #[test]
    fn scheduler_flags_are_validated_not_ignored() {
        // Spelled in two pieces so a grep of the tree for the removed
        // flag finds nothing.
        let removed = ["--sched", "uler"].concat();
        let err = parse(&[&removed, "dag"]).err().expect("flag is gone");
        assert!(err.contains(&format!("unknown flag {removed}")), "{err}");

        let budgeted = parse(&["--mem-budget", "64k"]).unwrap();
        let options = budgeted.engine().options;
        let sched = options.scheduler.unwrap();
        assert_eq!(sched.max_concurrent_jobs, 1);
        assert_eq!(sched.mem_budget, options.mem_budget);
        assert_eq!(sched.threads_per_job, 0);
    }

    /// The ready queue is FIFO and jobs run on the executor's own pool:
    /// no flag picks a queue order or a per-job core budget, and naming
    /// one is an error rather than a silent no-op.
    #[test]
    fn placement_and_cores_flags_are_unknown() {
        for flags in [["--placement", "sjf"], ["--cores", "8"]] {
            let err = parse(&flags).err().expect("flag is gone");
            assert!(err.contains(&format!("unknown flag {}", flags[0])), "{err}");
        }
    }

    /// Every MSJ message is shuffled and spill runs are written raw: no
    /// flag filters the shuffle or compresses runs, and naming one is an
    /// error rather than a silent no-op.
    #[test]
    fn shuffle_filter_and_spill_compress_flags_are_unknown() {
        for (flags, removed) in [
            (&["--shuffle-filter", "auto"][..], "--shuffle-filter"),
            (
                &["--mem-budget", "64k", "--spill-compress"][..],
                "--spill-compress",
            ),
        ] {
            let err = parse(flags).err().expect("flag is gone");
            assert!(err.contains(&format!("unknown flag {removed}")), "{err}");
        }
    }

    /// A tenant that declares no weight has weight 1: admission charges
    /// measured service time, so no flag picks another default, and
    /// naming one is an error rather than a silent no-op.
    #[test]
    fn default_weight_flag_is_unknown() {
        // Spelled in two pieces so a grep of the tree for the removed
        // flag finds nothing.
        let removed = ["--default", "-weight"].concat();
        let err = parse_serve(&argv(&["--preset", "a1", &removed, "2"]))
            .err()
            .expect("flag is gone");
        assert!(err.contains(&format!("unknown flag {removed}")), "{err}");
    }

    /// Both modes build their engine from the shared flags through one
    /// builder, so a served query is planned and priced like a one-shot
    /// run — same scale, cluster, strategy, executor and budget. The one
    /// difference is the documented `--max-jobs` default.
    #[test]
    fn shared_flags_give_both_modes_the_same_engine() {
        let shared = [
            "--preset",
            "a1",
            "--executor",
            "parallel:2",
            "--mem-budget",
            "64k",
        ];
        let engines = |flags: &[&str]| {
            let one_shot = parse_args(&argv(flags)).unwrap().engine();
            let served = parse_serve(&argv(flags)).unwrap().engine();
            (one_shot, served)
        };
        let slots = |e: &GumboEngine| e.options.scheduler.unwrap().max_concurrent_jobs;

        let (one_shot, served) = engines(&shared);
        assert_eq!((slots(&one_shot), slots(&served)), (1, 4));
        assert_eq!(one_shot.config.scale, DEFAULT_SCALE);
        assert_eq!(
            format!("{:?}", one_shot.config),
            format!("{:?}", served.config)
        );
        assert_eq!(one_shot.executor, served.executor);
        let served_options = EvalOptions {
            scheduler: one_shot.options.scheduler,
            ..served.options
        };
        assert_eq!(
            format!("{:?}", one_shot.options),
            format!("{:?}", served_options)
        );

        // An explicit --max-jobs leaves nothing to differ.
        let (one_shot, served) = engines(&[&shared[..], &["--max-jobs", "3"]].concat());
        assert_eq!(
            format!(
                "{:?}",
                (one_shot.config, one_shot.executor, one_shot.options)
            ),
            format!("{:?}", (served.config, served.executor, served.options))
        );
    }

    /// Each rule between shared flags holds in both modes.
    #[test]
    fn cross_flag_rules_apply_to_both_modes() {
        for (flags, message) in [
            (
                &["--preset", "a1", "--dfs-cache", "1m"][..],
                "--dfs-cache requires --dfs file:PATH",
            ),
            (
                &["--data", "d", "--tuples", "5"],
                "--tuples only applies to --preset workloads",
            ),
            (
                &["--preset", "a1", "--data", "d"],
                "--preset conflicts with --data",
            ),
            (
                &["--executor", "sim"],
                "either --preset NAME or --data DIR is required",
            ),
            (
                &["--preset", "a1", "--tuples"],
                "missing value after --tuples",
            ),
        ] {
            for err in [
                parse_args(&argv(flags)).err(),
                parse_serve(&argv(flags)).err(),
            ] {
                let err = err.unwrap_or_else(|| panic!("{flags:?} must be rejected"));
                assert!(err.contains(message), "{flags:?}: {err}");
            }
        }
        // Only one-shot reads a program file, and only with --data.
        let err = parse(&["--query", "q.sgf"])
            .err()
            .expect("preset has a query");
        assert!(err.contains("--query goes with --data"), "{err}");
        assert!(parse_args(&argv(&["--data", "d"])).is_err());
        assert!(parse_args(&argv(&["--data", "d", "--query", "q.sgf"])).is_ok());
        assert!(parse_serve(&argv(&["--data", "d"])).is_ok());
    }

    /// README's option table has one row per flag of the evaluating
    /// modes, and its one-shot, serve and experiments columns say which
    /// parser accepts it.
    #[test]
    fn readme_option_table_lists_every_flag() {
        let readme = include_str!("../../README.md");
        let rows: Vec<(&str, [bool; 3])> = readme
            .lines()
            .filter(|line| line.starts_with("| `--"))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let flag = cells[1].trim_matches('`').split(' ').next().unwrap();
                (flag, [2, 3, 4].map(|column| cells[column] == "yes"))
            })
            .collect();
        type Parser = fn(&[String]) -> Result<(), String>;
        let parsers: [(&str, Parser); 3] = [
            ("one-shot", |a| parse_args(a).map(drop)),
            ("serve", |a| parse_serve(a).map(drop)),
            ("experiments", |a| {
                experiments::parse(&[&["all".to_string()], a].concat()).map(drop)
            }),
        ];
        for &(flag, columns) in &rows {
            for ((mode, parse), listed) in parsers.iter().zip(columns) {
                let accepted = parse(&argv(&[flag]))
                    .err()
                    .is_none_or(|e| !e.contains(&format!("unknown flag {flag}")));
                assert_eq!(accepted, listed, "{mode} column of {flag}");
            }
        }

        // Every flag a parser of these modes matches on has a row, except
        // the `query`/`shutdown` client's own.
        let client_only = ["--addr", "--tenant", "--weight", "--sgf", "--help"];
        for source in [
            include_str!("gumbo-cli.rs"),
            include_str!("gumbo-cli/experiments.rs"),
        ] {
            for (at, _) in source.match_indices("\"--") {
                let rest = &source[at + 1..];
                let end = rest.find('"').unwrap();
                let (flag, after) = (&rest[..end], &rest[end + 1..]);
                let is_match_arm = after.starts_with(" =>") || after.starts_with(" |");
                if is_match_arm && !client_only.contains(&flag) {
                    assert!(
                        rows.iter().any(|row| row.0 == flag),
                        "README's option table has no row for {flag}"
                    );
                }
            }
        }
    }

    /// A zero `--tuples`, `--scale` or `--nodes` is refused by every
    /// subcommand: where the flag exists its value must be at least 1,
    /// and elsewhere the flag is unknown.
    #[test]
    fn zero_sizes_are_refused_by_every_subcommand() {
        type Parser = fn(&[String]) -> Result<(), String>;
        let modes: [(&str, &[&str], Parser, &[&str]); 4] = [
            (
                "one-shot",
                &["--preset", "a1"],
                |a| parse_args(a).map(drop),
                &["--tuples", "--scale", "--nodes"],
            ),
            (
                "serve",
                &["--preset", "a1"],
                |a| parse_serve(a).map(drop),
                &["--tuples"],
            ),
            (
                "experiments",
                &["fig3"],
                |a| experiments::parse(a).map(drop),
                &["--tuples", "--scale", "--nodes"],
            ),
            (
                "trace-check",
                &["trace.json"],
                |a| trace_check::parse(a).map(drop),
                &[],
            ),
        ];
        for (mode, base, parse, sizes) in modes {
            assert!(parse(&argv(base)).is_ok(), "{mode}");
            for flag in ["--tuples", "--scale", "--nodes"] {
                let err = parse(&argv(&[base, &[flag, "0"]].concat()))
                    .expect_err(&format!("{mode} {flag} 0"));
                let expected = if sizes.contains(&flag) {
                    format!("{flag}: must be at least 1")
                } else {
                    format!("unknown flag {flag}")
                };
                assert!(err.contains(&expected), "{mode} {flag} 0: {err}");
                let one = parse(&argv(&[base, &[flag, "1"]].concat()));
                assert_eq!(one.is_ok(), sizes.contains(&flag), "{mode} {flag} 1");
            }
        }
    }
}
