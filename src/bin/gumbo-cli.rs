//! `gumbo-cli` — run SGF queries over TSV relations from the command line,
//! or serve them to concurrent tenants over TCP.
//!
//! Three subcommands wrap the resident query service (`gumbo::service`):
//!
//! ```text
//! gumbo-cli serve    [--listen ADDR] (--preset NAME [--tuples N] | --data DIR)
//!                    [--dfs sim|file:PATH] [--dfs-cache BYTES]
//!                    [--executor sim|parallel|parallel:N] [--max-jobs N]
//!                    [--mem-budget BYTES|unlimited]
//!                    [--queue-cap N] [--inflight N] [--default-weight W]
//!                    [--trace PATH] [--trace-format chrome|jsonl] [--metrics-dump]
//! gumbo-cli query    [--addr ADDR] [--tenant NAME] [--weight W]
//!                    (--query FILE | --sgf TEXT | --preset NAME)
//!                    [--out DIR] [--stats-json PATH]
//! gumbo-cli shutdown [--addr ADDR]
//! ```
//!
//! `serve` loads the database once (preset or TSV directory), binds a
//! TCP listener, and answers line-delimited JSON query requests with
//! estimate-weighted fair-share admission between tenants; answers are
//! byte-identical to one-shot evaluation. SIGTERM/SIGINT (or a client's
//! `shutdown` request) triggers a graceful drain: every accepted
//! submission finishes and streams out before the process exits, and
//! the exit code is nonzero if any accepted work was lost. `query`
//! submits one program and writes the streamed relations/stats exactly
//! like the one-shot flags of the same name. `shutdown` asks a running
//! server to drain.
//!
//! Without a subcommand, the classic one-shot mode:
//!
//! ```text
//! gumbo-cli --data DIR --query FILE | --preset NAME [--tuples N]
//!           [--strategy greedy|par|sequnit|parunit|one-round|dynamic]
//!           [--executor sim|parallel|parallel:N]
//!           [--max-jobs N]
//!           [--mem-budget BYTES|unlimited]
//!           [--dfs sim|file:PATH] [--dfs-cache BYTES]
//!           [--trace PATH] [--trace-format chrome|jsonl]
//!           [--metrics-dump] [--stats-json PATH]
//!           [--scale N] [--nodes N] [--out DIR] [--explain]
//! ```
//!
//! `DIR` holds one `Name.tsv` per relation (tab-separated, integers or
//! strings); `FILE` holds an SGF program in the paper's SQL-like syntax.
//! Alternatively `--preset` runs one of the paper's generated workloads
//! (`a1`–`a5`, `b1`, `b2`, `c1`–`c4`) without any files. Every output
//! relation (final and intermediate `Z`s) is written back to `--out` (if
//! given) as TSV, and the paper's four metrics are printed.
//!
//! Planned jobs run on the dependency-driven DAG scheduler, in the order
//! they become ready, at most `--max-jobs` at a time (default 1: one after
//! another in round order; `serve` defaults to 4). Results and statistics
//! are byte-identical at every setting; every run reports the predicted
//! DAG net time.
//!
//! `--mem-budget` bounds tracked shuffle memory (bytes, with optional
//! `k`/`m`/`g` binary suffix): per-reducer buffers spill sorted runs to a
//! job-scoped temp directory instead of exceeding the budget, and a
//! `shuffle memory:` summary line (spilled bytes — raw and on-disk —
//! run files, merge passes, peak) is printed after the run.
//! Results are byte-identical to an unlimited run; the CLI exits nonzero
//! if the tracked peak ever exceeded the budget — printing the
//! shuffle-memory summary *before* exiting, so the evidence of the
//! violation always reaches the log.
//!
//! `--dfs` selects the storage backend: `sim` (the default in-memory
//! DFS) or `file:PATH` — a durable file-segment store rooted at `PATH`.
//! A fresh directory is created and loaded from the inputs; an existing
//! store is reopened and only missing relations are loaded, so a second
//! run against the same `PATH` restarts from the durable state.
//! `--dfs-cache` bounds the file backend's block cache (bytes, `k`/`m`/
//! `g` suffix ok; default 64 MiB) — cache sizing never changes answers
//! or the byte meters, which are logical and backend-invariant. A
//! `dfs cache:` summary line (hits, misses, evictions) is printed after
//! file-backed runs.
//!
//! `--trace PATH` records every phase span, scheduler event and budget
//! event of the run to `PATH`; `--trace-format` picks the encoding —
//! `chrome` (the default) writes a Chrome trace-event JSON array that
//! loads directly into Perfetto or `chrome://tracing`, `jsonl` writes
//! one JSON object per line for scripting. `--metrics-dump` prints the
//! process-wide counter/gauge registry (spill runs, budget denials,
//! committed jobs, …) after the run. `--stats-json PATH` dumps the full
//! [`ProgramStats`] — the paper's four metrics, per-job costs, spill
//! counters, and the estimated-vs-observed calibration ledger — as one
//! JSON document.

use std::path::PathBuf;
use std::process::ExitCode;

use gumbo::prelude::*;

/// Which storage backend `--dfs` selected.
enum DfsSpec {
    /// The in-memory simulated DFS (the default).
    Sim,
    /// The durable file-segment DFS rooted at the given directory.
    File(PathBuf),
}

struct Args {
    data: PathBuf,
    query: PathBuf,
    preset: Option<String>,
    tuples: Option<usize>,
    strategy: String,
    executor: gumbo::mr::ExecutorKind,
    max_jobs: usize,
    mem_budget: gumbo::mr::MemBudget,
    dfs: DfsSpec,
    dfs_cache: Option<u64>,
    trace: Option<PathBuf>,
    trace_format: Option<gumbo::obs::TraceFormat>,
    metrics_dump: bool,
    stats_json: Option<PathBuf>,
    scale: u64,
    nodes: usize,
    out: Option<PathBuf>,
    explain: bool,
}

const USAGE: &str = "usage: gumbo-cli [serve|query|shutdown] ... (see --help per subcommand) | \
                     gumbo-cli --data DIR --query FILE | --preset NAME [--tuples N] \
                     [--strategy greedy|par|sequnit|parunit|one-round|dynamic] \
                     [--executor sim|parallel|parallel:N] \
                     [--max-jobs N] \
                     [--mem-budget BYTES|unlimited] \
                     [--dfs sim|file:PATH] [--dfs-cache BYTES] \
                     [--trace PATH] [--trace-format chrome|jsonl] \
                     [--metrics-dump] [--stats-json PATH] \
                     [--scale N] [--nodes N] [--out DIR] [--explain]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        data: PathBuf::new(),
        query: PathBuf::new(),
        preset: None,
        tuples: None,
        strategy: "greedy".into(),
        executor: gumbo::mr::ExecutorKind::Simulated,
        max_jobs: 1,
        mem_budget: gumbo::mr::MemBudget::UNLIMITED,
        dfs: DfsSpec::Sim,
        dfs_cache: None,
        trace: None,
        trace_format: None,
        metrics_dump: false,
        stats_json: None,
        scale: 1,
        nodes: 10,
        out: None,
        explain: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--data" => args.data = PathBuf::from(need(&mut i, argv)?),
            "--query" => args.query = PathBuf::from(need(&mut i, argv)?),
            "--preset" => args.preset = Some(need(&mut i, argv)?),
            "--tuples" => {
                args.tuples = Some(
                    need(&mut i, argv)?
                        .parse()
                        .map_err(|e| format!("--tuples: {e}"))?,
                )
            }
            "--strategy" => args.strategy = need(&mut i, argv)?,
            "--executor" => {
                let spec = need(&mut i, argv)?;
                args.executor = gumbo::mr::ExecutorKind::parse(&spec)
                    .ok_or_else(|| format!("--executor: unknown runtime {spec}"))?;
            }
            "--max-jobs" => {
                args.max_jobs = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--max-jobs: {e}"))?
            }
            "--mem-budget" => {
                let spec = need(&mut i, argv)?;
                args.mem_budget = gumbo::mr::MemBudget::parse(&spec).ok_or_else(|| {
                    format!("--mem-budget: BYTES (k/m/g suffix ok) or unlimited, got {spec}")
                })?;
            }
            "--dfs" => {
                let spec = need(&mut i, argv)?;
                args.dfs = if spec == "sim" {
                    DfsSpec::Sim
                } else if let Some(path) = spec.strip_prefix("file:") {
                    DfsSpec::File(PathBuf::from(path))
                } else {
                    return Err(format!("--dfs: sim|file:PATH, got {spec}"));
                };
            }
            "--dfs-cache" => {
                let spec = need(&mut i, argv)?;
                // MemBudget's byte grammar (k/m/g suffixes), minus the
                // "unlimited" spelling — an unbounded cache is just a
                // cache sized to the store.
                args.dfs_cache = Some(
                    gumbo::mr::MemBudget::parse(&spec)
                        .and_then(|b| b.limit())
                        .ok_or_else(|| {
                            format!("--dfs-cache: BYTES (k/m/g suffix ok), got {spec}")
                        })?,
                );
            }
            "--scale" => {
                args.scale = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--nodes" => {
                args.nodes = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--trace" => args.trace = Some(PathBuf::from(need(&mut i, argv)?)),
            "--trace-format" => {
                let spec = need(&mut i, argv)?;
                args.trace_format = Some(
                    gumbo::obs::TraceFormat::parse(&spec)
                        .map_err(|e| format!("--trace-format: {e}"))?,
                );
            }
            "--metrics-dump" => args.metrics_dump = true,
            "--stats-json" => args.stats_json = Some(PathBuf::from(need(&mut i, argv)?)),
            "--out" => args.out = Some(PathBuf::from(need(&mut i, argv)?)),
            "--explain" => args.explain = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    let has_files = !args.data.as_os_str().is_empty() || !args.query.as_os_str().is_empty();
    if args.preset.is_some() && has_files {
        return Err("--preset conflicts with --data/--query: pick one input source".into());
    }
    if args.preset.is_none() {
        if args.data.as_os_str().is_empty() || args.query.as_os_str().is_empty() {
            return Err(
                "either --preset NAME or both --data and --query are required (try --help)".into(),
            );
        }
        if args.tuples.is_some() {
            return Err("--tuples only applies to --preset workloads".into());
        }
    }
    if args.trace_format.is_some() && args.trace.is_none() {
        // A format without a destination would be a silent no-op.
        return Err("--trace-format requires --trace PATH".into());
    }
    if args.dfs_cache.is_some() && matches!(args.dfs, DfsSpec::Sim) {
        // The in-memory DFS has no block cache; the flag would be a
        // silent no-op.
        return Err("--dfs-cache requires --dfs file:PATH".into());
    }
    Ok(args)
}

/// The scheduler configuration the CLI runs under, one-shot and `serve`
/// alike: `--max-jobs` slots, and the same shuffle budget
/// `EvalOptions::mem_budget` carries (one executor, one shared tracker).
fn scheduler_config(max_jobs: usize, budget: gumbo::mr::MemBudget) -> SchedulerConfig {
    SchedulerConfig {
        max_concurrent_jobs: max_jobs,
        mem_budget: budget,
        ..SchedulerConfig::ONE_SLOT
    }
}

fn options_for(args: &Args) -> Result<EvalOptions, String> {
    use gumbo::core::SortStrategy;
    let base = EvalOptions::default();
    let mut options = match args.strategy.as_str() {
        "greedy" => EvalOptions {
            enable_one_round: false,
            ..base
        },
        "one-round" => base,
        "par" => EvalOptions {
            grouping: Grouping::Singletons,
            sort: SortStrategy::Levels,
            enable_one_round: false,
            ..base
        },
        "sequnit" => EvalOptions {
            grouping: Grouping::Singletons,
            sort: SortStrategy::Sequential,
            enable_one_round: false,
            ..base
        },
        "parunit" => EvalOptions {
            grouping: Grouping::Singletons,
            sort: SortStrategy::Levels,
            enable_one_round: false,
            ..base
        },
        "dynamic" => EvalOptions {
            sort: SortStrategy::DynamicGreedy,
            ..base
        },
        other => return Err(format!("unknown strategy {other}")),
    };
    options.mem_budget = args.mem_budget;
    options.scheduler = Some(scheduler_config(args.max_jobs, args.mem_budget));
    Ok(options)
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

// The stats vocabulary is shared with the query service so `--stats-json`
// documents and streamed `stats` frames speak identical JSON.
use gumbo::service::protocol::stats_to_json;

/// Resolve one of the paper's generated workloads by name.
fn preset(name: &str) -> Option<gumbo::datagen::Workload> {
    use gumbo::datagen::queries;
    Some(match name.to_ascii_lowercase().as_str() {
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
        _ => return None,
    })
}

fn load_inputs(args: &Args) -> Result<(Database, SgfQuery), String> {
    if let Some(name) = &args.preset {
        let workload =
            preset(name).ok_or_else(|| format!("unknown preset {name} (a1-a5, b1, b2, c1-c4)"))?;
        let tuples = args.tuples.unwrap_or(1000);
        let db = workload.spec.clone().with_tuples(tuples).database(1);
        eprintln!(
            "preset {}: {} relations, {tuples} guard tuples",
            workload.name,
            db.relation_count(),
        );
        return Ok((db, workload.query));
    }

    let relations = gumbo::common::io::read_tsv_dir(&args.data).map_err(|e| e.to_string())?;
    if relations.is_empty() {
        return Err(format!("no .tsv relations found in {:?}", args.data));
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
    let text = std::fs::read_to_string(&args.query)
        .map_err(|e| format!("reading {:?}: {e}", args.query))?;
    let query = parse_program(&text).map_err(|e| e.to_string())?;
    Ok((db, query))
}

/// Build the selected DFS backend, loaded with the input database.
///
/// The file backend reopens an existing store at `PATH` and loads only
/// the relations it doesn't already hold, so a rerun against the same
/// root restarts from the durable state. The initial load is unmetered,
/// matching [`SimDfs::from_database`].
fn build_dfs(
    spec: &DfsSpec,
    dfs_cache: Option<u64>,
    db: &Database,
) -> Result<Box<dyn Dfs>, String> {
    match spec {
        DfsSpec::Sim => Ok(Box::new(SimDfs::from_database(db))),
        DfsSpec::File(root) => {
            let cache = dfs_cache.unwrap_or(DEFAULT_CACHE_BYTES);
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

fn run(args: Args) -> Result<(), String> {
    let (db, query) = load_inputs(&args)?;
    eprintln!("\nquery:\n{query}\n");

    // Plan + run.
    let mut options = options_for(&args)?;
    options.dfs_cache = args.dfs_cache;
    let engine = GumboEngine::with_executor(
        EngineConfig {
            scale: args.scale,
            cluster: Cluster::with_nodes(args.nodes),
            ..EngineConfig::default()
        },
        args.executor,
        options,
    );
    let dfs = build_dfs(&args.dfs, args.dfs_cache, &db)?;
    let dfs: &dyn Dfs = &*dfs;

    if args.explain {
        let sort = engine.sort_for(dfs, &query).map_err(|e| e.to_string())?;
        eprintln!("multiway topological sort: {sort:?}");
        let cost = engine
            .sort_cost(dfs, &query, &sort)
            .map_err(|e| e.to_string())?;
        eprintln!("estimated plan cost      : {cost:.1}");
        if let Some(sched) = options.scheduler {
            eprintln!(
                "scheduler                : max {} concurrent jobs",
                sched.effective_workers(),
            );
        }
        eprintln!();
    }

    if let Some(path) = &args.trace {
        install_trace_sink(path, args.trace_format)?;
    }
    if args.metrics_dump {
        gumbo::obs::set_metrics_enabled(true);
    }

    let runtime = engine.runtime();
    let result = engine.eval().on(&runtime).run(dfs, &query);
    // Uninstall *before* propagating errors so the trace file is always
    // finalized (the Chrome array closed) — a failed run's trace is
    // exactly the one worth loading into Perfetto.
    if args.trace.is_some() {
        gumbo::obs::uninstall();
    }
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
    let cache = if matches!(args.dfs, DfsSpec::File(_)) {
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
    if args.metrics_dump {
        for (name, kind, value) in gumbo::obs::metrics_snapshot() {
            let kind = match kind {
                gumbo::obs::MetricKind::Counter => "counter",
                gumbo::obs::MetricKind::Gauge => "gauge",
            };
            println!("metric {kind} {name}={value}");
        }
    }

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

/// Install the process-global trace sink for `--trace PATH`.
fn install_trace_sink(
    path: &PathBuf,
    format: Option<gumbo::obs::TraceFormat>,
) -> Result<(), String> {
    let format = format.unwrap_or(gumbo::obs::TraceFormat::Chrome);
    let sink: std::sync::Arc<dyn gumbo::obs::TraceSink> = match format {
        gumbo::obs::TraceFormat::Chrome => std::sync::Arc::new(
            gumbo::obs::ChromeTraceSink::create(path)
                .map_err(|e| format!("--trace {path:?}: {e}"))?,
        ),
        gumbo::obs::TraceFormat::Jsonl => std::sync::Arc::new(
            gumbo::obs::JsonlSink::create(path).map_err(|e| format!("--trace {path:?}: {e}"))?,
        ),
    };
    gumbo::obs::install(sink);
    Ok(())
}

/// Shared positional-value helper for the subcommand parsers.
fn need(i: &mut usize, argv: &[String]) -> Result<String, String> {
    *i += 1;
    argv.get(*i)
        .cloned()
        .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
}

/// Load the database a server will hold resident: a generated preset
/// (seeded exactly like one-shot `--preset`, so service answers diff
/// clean against one-shot output) or a TSV directory.
fn load_service_db(
    preset_name: Option<&str>,
    tuples: Option<usize>,
    data: Option<&PathBuf>,
) -> Result<Database, String> {
    match (preset_name, data) {
        (Some(name), None) => {
            let workload = preset(name)
                .ok_or_else(|| format!("unknown preset {name} (a1-a5, b1, b2, c1-c4)"))?;
            let tuples = tuples.unwrap_or(1000);
            let db = workload.spec.clone().with_tuples(tuples).database(1);
            eprintln!(
                "preset {}: {} relations, {tuples} guard tuples",
                workload.name,
                db.relation_count(),
            );
            Ok(db)
        }
        (None, Some(dir)) => {
            if tuples.is_some() {
                return Err("--tuples only applies to --preset workloads".into());
            }
            let relations = gumbo::common::io::read_tsv_dir(dir).map_err(|e| e.to_string())?;
            if relations.is_empty() {
                return Err(format!("no .tsv relations found in {dir:?}"));
            }
            let mut db = Database::new();
            for rel in relations {
                db.add_relation(rel);
            }
            Ok(db)
        }
        _ => Err("serve needs exactly one of --preset NAME or --data DIR".into()),
    }
}

const SERVE_USAGE: &str = "usage: gumbo-cli serve [--listen ADDR] \
                           (--preset NAME [--tuples N] | --data DIR) \
                           [--dfs sim|file:PATH] [--dfs-cache BYTES] \
                           [--executor sim|parallel|parallel:N] [--max-jobs N] \
                           [--mem-budget BYTES|unlimited] \
                           [--queue-cap N] [--inflight N] [--default-weight W] \
                           [--trace PATH] [--trace-format chrome|jsonl] [--metrics-dump]";

fn run_serve(argv: &[String]) -> Result<(), String> {
    let mut listen = "127.0.0.1:7421".to_string();
    let mut preset_name: Option<String> = None;
    let mut tuples: Option<usize> = None;
    let mut data: Option<PathBuf> = None;
    let mut dfs_spec = DfsSpec::Sim;
    let mut dfs_cache: Option<u64> = None;
    let mut executor = gumbo::mr::ExecutorKind::Simulated;
    let mut max_jobs = 4usize;
    let mut mem_budget = gumbo::mr::MemBudget::UNLIMITED;
    let mut queue_cap = 64usize;
    let mut inflight = 2usize;
    let mut default_weight = 1.0f64;
    let mut trace: Option<PathBuf> = None;
    let mut trace_format: Option<gumbo::obs::TraceFormat> = None;
    let mut metrics_dump = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => listen = need(&mut i, argv)?,
            "--preset" => preset_name = Some(need(&mut i, argv)?),
            "--tuples" => {
                tuples = Some(
                    need(&mut i, argv)?
                        .parse()
                        .map_err(|e| format!("--tuples: {e}"))?,
                )
            }
            "--data" => data = Some(PathBuf::from(need(&mut i, argv)?)),
            "--dfs" => {
                let spec = need(&mut i, argv)?;
                dfs_spec = if spec == "sim" {
                    DfsSpec::Sim
                } else if let Some(path) = spec.strip_prefix("file:") {
                    DfsSpec::File(PathBuf::from(path))
                } else {
                    return Err(format!("--dfs: sim|file:PATH, got {spec}"));
                };
            }
            "--dfs-cache" => {
                let spec = need(&mut i, argv)?;
                dfs_cache = Some(
                    gumbo::mr::MemBudget::parse(&spec)
                        .and_then(|b| b.limit())
                        .ok_or_else(|| {
                            format!("--dfs-cache: BYTES (k/m/g suffix ok), got {spec}")
                        })?,
                );
            }
            "--executor" => {
                let spec = need(&mut i, argv)?;
                executor = gumbo::mr::ExecutorKind::parse(&spec)
                    .ok_or_else(|| format!("--executor: unknown runtime {spec}"))?;
            }
            "--max-jobs" => {
                max_jobs = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--max-jobs: {e}"))?
            }
            "--mem-budget" => {
                let spec = need(&mut i, argv)?;
                mem_budget = gumbo::mr::MemBudget::parse(&spec).ok_or_else(|| {
                    format!("--mem-budget: BYTES (k/m/g suffix ok) or unlimited, got {spec}")
                })?;
            }
            "--queue-cap" => {
                queue_cap = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--inflight" => {
                inflight = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--inflight: {e}"))?
            }
            "--default-weight" => {
                default_weight = need(&mut i, argv)?
                    .parse()
                    .map_err(|e| format!("--default-weight: {e}"))?
            }
            "--trace" => trace = Some(PathBuf::from(need(&mut i, argv)?)),
            "--trace-format" => {
                let spec = need(&mut i, argv)?;
                trace_format = Some(
                    gumbo::obs::TraceFormat::parse(&spec)
                        .map_err(|e| format!("--trace-format: {e}"))?,
                );
            }
            "--metrics-dump" => metrics_dump = true,
            "--help" | "-h" => return Err(SERVE_USAGE.into()),
            other => return Err(format!("serve: unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    if dfs_cache.is_some() && matches!(dfs_spec, DfsSpec::Sim) {
        return Err("--dfs-cache requires --dfs file:PATH".into());
    }
    if trace_format.is_some() && trace.is_none() {
        return Err("--trace-format requires --trace PATH".into());
    }
    let db = load_service_db(preset_name.as_deref(), tuples, data.as_ref())?;
    let dfs: std::sync::Arc<dyn Dfs> = std::sync::Arc::from(build_dfs(&dfs_spec, dfs_cache, &db)?);
    // Match the one-shot default (strategy "greedy"): the service must
    // produce byte-identical relations — intermediates included — to a
    // default one-shot run over the same inputs.
    let options = EvalOptions {
        enable_one_round: false,
        mem_budget,
        dfs_cache,
        scheduler: Some(scheduler_config(max_jobs, mem_budget)),
        ..EvalOptions::default()
    };
    let engine = GumboEngine::with_executor(EngineConfig::default(), executor, options);
    gumbo::service::install_signal_drain();
    if let Some(path) = &trace {
        install_trace_sink(path, trace_format)?;
    }
    if metrics_dump {
        gumbo::obs::set_metrics_enabled(true);
    }
    let listener =
        std::net::TcpListener::bind(&listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let handle = serve(
        listener,
        dfs,
        engine,
        ServeConfig {
            queue_capacity: queue_cap,
            max_in_flight: inflight,
            default_weight,
        },
    )
    .map_err(|e| e.to_string())?;
    println!("gumbo-serve listening on {}", handle.addr());
    let summary = handle.join();
    // Finalize the trace (close the Chrome array) before any exit path.
    if trace.is_some() {
        gumbo::obs::uninstall();
    }
    println!(
        "gumbo-serve drained: connections={} accepted={} completed={}",
        summary.connections, summary.accepted, summary.completed,
    );
    if metrics_dump {
        for (name, kind, value) in gumbo::obs::metrics_snapshot() {
            let kind = match kind {
                gumbo::obs::MetricKind::Counter => "counter",
                gumbo::obs::MetricKind::Gauge => "gauge",
            };
            println!("metric {kind} {name}={value}");
        }
    }
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
            "--weight" => {
                weight = Some(
                    need(&mut i, argv)?
                        .parse()
                        .map_err(|e| format!("--weight: {e}"))?,
                )
            }
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
        (None, None, Some(name)) => preset(&name)
            .ok_or_else(|| format!("unknown preset {name} (a1-a5, b1, b2, c1-c4)"))?
            .query
            .to_string(),
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
        "report: tenant={tenant} queue_wait_ns={} service_ns={} estimated_cost={}",
        reply.queue_wait_ns().unwrap_or(0),
        reply
            .report
            .get("service_ns")
            .and_then(gumbo::obs::json::Json::as_u64)
            .unwrap_or(0),
        reply
            .report
            .get("estimated_cost")
            .and_then(gumbo::obs::json::Json::as_f64)
            .unwrap_or(0.0),
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
        Some("serve") => run_serve(&argv[1..]),
        Some("query") => run_query(&argv[1..]),
        Some("shutdown") => run_shutdown(&argv[1..]),
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

    fn parse(flags: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = ["--preset", "a3"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect();
        parse_args(&argv)
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
        let options = options_for(&budgeted).unwrap();
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
}
