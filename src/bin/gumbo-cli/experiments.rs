//! `gumbo-cli experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! gumbo-cli experiments <all|fig3|fig4|fig5|fig7a|fig7b|fig7c|fig8|table3|costmodel|optimality|ablation|structures|scaling>
//!             [--tuples N] [--scale N] [--nodes N] [--seed N] [--no-verify]
//!             [--executor sim|parallel|parallel:N]
//!             [--trace PATH] [--metrics-dump]
//! ```
//!
//! One function per table/figure of §5, plus [`scaling`], the one
//! wall-clock experiment: one program timed at 1/2/4/8 workers and then
//! 2/4/8 job slots, every row asserted identical to the serial reference,
//! written to `BENCH_scaling.json`. `all` runs every §5 experiment.
//!
//! Every run executes the *real* engine on generated data (verified
//! against the naive evaluator unless `--no-verify`) and reports the
//! paper's four metrics: net time, total time, input bytes and
//! communication bytes — in simulated cost-units and GB at the
//! configured scale. Each §5 function prints the same rows/series the
//! paper reports (absolute values plus, where the paper does, values
//! relative to the baseline). Their figures are the cost model's
//! deterministic output: the same flags print the same numbers on every
//! run, at every `--executor`. `--trace` records one trace covering the
//! whole run.

use std::collections::BTreeSet;

use gumbo::baselines::Strategy;
use gumbo::common::Result;
use gumbo::core::{Estimator, PayloadMode, QueryContext};
use gumbo::datagen::queries;
use gumbo::datagen::Workload;
use gumbo::mr::{CostModelKind, JobConfig};
use gumbo::sgf::DependencyGraph;
use gumbo::storage::{Dfs, SimDfs};

use super::runner::{run_strategy, RunConfig, RunResult};
use super::{at_least_one, executor, parsed, Recording};

const USAGE: &str = "usage: gumbo-cli experiments <all|fig3|fig4|fig5|fig7a|fig7b|fig7c|fig8|\
                     table3|costmodel|optimality|ablation|structures|scaling> \
                     [--tuples N] [--scale N] [--nodes N] [--seed N] [--no-verify] \
                     [--executor sim|parallel|parallel:N] \
                     [--trace PATH] [--metrics-dump]";

type Experiment = fn(&RunConfig) -> Result<()>;

/// The experiment a command-line name selects.
fn experiment(name: &str) -> Option<Experiment> {
    let run: Experiment = match name {
        "all" => all,
        "fig3" => fig3,
        "fig4" => fig4,
        "fig5" => fig5,
        "fig7a" => fig7a,
        "fig7b" => fig7b,
        "fig7c" => fig7c,
        "fig8" => fig8,
        "table3" => table3,
        "costmodel" => costmodel,
        "optimality" => optimality,
        "ablation" => ablation,
        "structures" => structures,
        "scaling" => scaling,
        _ => return None,
    };
    Some(run)
}

/// Parse `experiments [NAME] [FLAGS]` (default `all`).
pub fn parse(argv: &[String]) -> Result<(Experiment, RunConfig, Recording), String> {
    let name = argv.first().map_or("all", String::as_str);
    let run = experiment(name).ok_or_else(|| format!("unknown experiment {name}\n{USAGE}"))?;
    let mut cfg = RunConfig::default();
    let mut recording = Recording::default();
    let mut i = 1;
    while i < argv.len() {
        if !recording.parse_flag(&mut i, argv)? {
            match argv[i].as_str() {
                "--tuples" => cfg.tuples = at_least_one(&mut i, argv)?,
                "--scale" => cfg.scale = at_least_one(&mut i, argv)?,
                "--nodes" => cfg.nodes = at_least_one(&mut i, argv)?,
                "--seed" => cfg.seed = parsed(&mut i, argv)?,
                "--no-verify" => cfg.verify = false,
                "--executor" => cfg.executor = executor(&mut i, argv)?,
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        i += 1;
    }
    Ok((run, cfg, recording))
}

/// Run the experiment `argv` names, recording what its flags ask for.
pub fn main(argv: &[String]) -> Result<(), String> {
    let (run, cfg, recording) = parse(argv)?;
    recording.start()?;
    println!(
        "config: {} real tuples x scale {} = {}M-equivalent tuples, {} nodes, selectivity {}, verify={}, executor={}",
        cfg.tuples,
        cfg.scale,
        cfg.equivalent_tuples() / 1_000_000,
        cfg.nodes,
        cfg.selectivity,
        cfg.verify,
        cfg.executor.label()
    );
    let result = run(&cfg);
    recording.finish();
    result.map_err(|e| format!("experiment failed: {e}"))
}

/// The BSGF strategy lineup of Figure 3/4.
pub const BSGF_STRATEGIES: [Strategy; 7] = [
    Strategy::Seq,
    Strategy::Par,
    Strategy::Greedy,
    Strategy::Hpar,
    Strategy::Hpars,
    Strategy::Ppar,
    Strategy::OneRound,
];

/// The SGF strategy lineup of Figure 5.
pub const SGF_STRATEGIES: [Strategy; 3] =
    [Strategy::SeqUnit, Strategy::ParUnit, Strategy::GreedySgf];

fn print_header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

fn print_rows(rows: &[RunResult]) {
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>10} {:>10} {:>7} {:>6}",
        "workload", "strategy", "net(s)", "total(s)", "input(GB)", "comm(GB)", "rounds", "jobs"
    );
    for r in rows {
        println!(
            "{:<10} {:<10} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>7} {:>6}",
            r.workload, r.strategy, r.net, r.total, r.input_gb, r.comm_gb, r.rounds, r.jobs
        );
    }
}

fn print_relative(rows: &[RunResult], baseline: &str) {
    println!();
    println!("relative to {baseline} (100%):");
    println!(
        "{:<10} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "workload", "strategy", "net", "total", "input", "comm"
    );
    let mut base: std::collections::BTreeMap<&str, &RunResult> = Default::default();
    for r in rows {
        if r.strategy == baseline {
            base.insert(r.workload.as_str(), r);
        }
    }
    for r in rows {
        if let Some(b) = base.get(r.workload.as_str()) {
            println!(
                "{:<10} {:<10} {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}%",
                r.workload,
                r.strategy,
                100.0 * r.net / b.net,
                100.0 * r.total / b.total,
                100.0 * r.input_gb / b.input_gb,
                100.0 * r.comm_gb / b.comm_gb,
            );
        }
    }
}

fn run_lineup(
    workloads: &[Workload],
    strategies: &[Strategy],
    cfg: &RunConfig,
) -> Result<Vec<RunResult>> {
    let mut rows = Vec::new();
    for w in workloads {
        for &s in strategies {
            if s.applicable(&w.query) {
                rows.push(run_strategy(s, w, cfg)?);
            }
        }
    }
    Ok(rows)
}

/// Figure 3: BSGF queries A1–A5 under all strategies.
pub fn fig3(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 3 — BSGF queries A1-A5 (abs + relative to SEQ)");
    let workloads = vec![
        queries::a1(),
        queries::a2(),
        queries::a3(),
        queries::a4(),
        queries::a5(),
    ];
    let rows = run_lineup(&workloads, &BSGF_STRATEGIES, cfg)?;
    print_rows(&rows);
    print_relative(&rows, "SEQ");
    Ok(())
}

/// Figure 4: large BSGF queries B1 and B2.
pub fn fig4(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 4 — large BSGF queries B1, B2 (abs + relative to SEQ)");
    let workloads = vec![queries::b1(), queries::b2()];
    let rows = run_lineup(&workloads, &BSGF_STRATEGIES, cfg)?;
    print_rows(&rows);
    print_relative(&rows, "SEQ");
    Ok(())
}

/// §5.2 "Cost Model": GREEDY under cost_gumbo vs cost_wang on the 48-atom
/// filter query, plus random job-pair ranking accuracy.
pub fn costmodel(cfg: &RunConfig) -> Result<()> {
    print_header("§5.2 Cost Model — cost_gumbo vs cost_wang");
    let w = queries::cost_model_query();
    // The adversarial shape: the guard amplifies its map output 48× while
    // the (large) conditional relations are filtered to nothing by the
    // constant — so cost_wang's global averaging sees many mappers with
    // almost no output and misjudges the guard's map-side merge depth.
    let spec = w
        .spec
        .clone()
        .with_tuples(cfg.tuples)
        .with_cond_tuples(cfg.tuples * 8)
        .with_selectivity(cfg.selectivity);
    let db = spec.database(cfg.seed);

    let mut results = Vec::new();
    for (label, model) in [
        ("cost_gumbo", CostModelKind::Gumbo),
        ("cost_wang", CostModelKind::Wang),
    ] {
        let dfs = SimDfs::from_database(&db);
        let mut engine = greedy(cfg);
        engine.options.planner_model = model;
        let stats = engine.evaluate(&dfs, &w.query)?;
        println!(
            "GREEDY planned with {label:<11}: net {:>8.0}s  total {:>10.0}s  jobs {}",
            stats.net_time(),
            stats.total_time(),
            stats.num_jobs()
        );
        for j in &stats.jobs {
            println!(
                "    {:<40} cost {:>8.0} (map {:>8.0} / red {:>6.0})  in {:>7.1} GB  shuffle {:>7.1} GB",
                truncate_name(&j.name),
                j.total_cost,
                j.map_cost,
                j.reduce_cost,
                j.input_bytes().as_bytes() as f64 / 1e9,
                j.communication_bytes().as_bytes() as f64 / 1e9,
            );
        }
        results.push((stats.net_time(), stats.total_time()));
    }
    let (net_g, tot_g) = results[0];
    let (net_w, tot_w) = results[1];
    println!(
        "cost_gumbo reduction vs cost_wang: total {:.0}%, net {:.0}%",
        100.0 * (1.0 - tot_g / tot_w),
        100.0 * (1.0 - net_g / net_w)
    );

    // Random job-pair ranking: estimate MSJ groups under both models and
    // compare orderings against measured execution cost. The pool mixes
    // proportional-ratio jobs (A1/A3/B1 groups) with skewed-ratio jobs
    // (cost-model-query groups, where the guard amplifies and the
    // conditionals filter) — the regime where cost_wang misprices.
    let pool_workloads = [
        queries::a1().with_tuples(cfg.tuples),
        queries::a3().with_tuples(cfg.tuples),
        queries::b1().with_tuples(cfg.tuples),
        queries::cost_model_query().with_tuples(cfg.tuples),
    ];
    let mut jobs: Vec<(f64, f64, f64)> = Vec::new(); // (gumbo est, wang est, measured)
    for (wi, pw) in pool_workloads.iter().enumerate() {
        let pdb = pw.spec.database(cfg.seed);
        let ctx = QueryContext::new(pw.query.queries().to_vec())?;
        let n = ctx.semijoins().len();
        let executor = cfg.executor.build(cfg.engine_config());
        // Deterministic pseudo-random subsets of the semi-join set; for the
        // skewed cost-model query, graded prefix sizes so its jobs' costs
        // interleave with the proportional jobs'.
        for k in 0..6usize {
            let group: Vec<usize> = if pw.name == "COST" {
                (0..n.min(4 + k * 9)).collect()
            } else {
                (0..n).filter(|i| (i * 7 + k * 3 + wi) % 3 != 0).collect()
            };
            let group = if group.is_empty() { vec![0] } else { group };
            let dfs = SimDfs::from_database(&pdb);
            let est_g = Estimator::new(
                &dfs,
                cfg.scale,
                gumbo::mr::CostConstants::default(),
                CostModelKind::Gumbo,
                64,
                cfg.seed,
            );
            let cg = est_g.msj_cost(&ctx, &group, PayloadMode::Reference, &JobConfig::default())?;
            let est_w = Estimator::new(
                &dfs,
                cfg.scale,
                gumbo::mr::CostConstants::default(),
                CostModelKind::Wang,
                64,
                cfg.seed,
            );
            let cw = est_w.msj_cost(&ctx, &group, PayloadMode::Reference, &JobConfig::default())?;
            let job = gumbo::core::msj::build_msj_job(
                &ctx,
                &group,
                PayloadMode::Reference,
                JobConfig::default(),
            );
            let measured = executor.execute_job(&dfs, &job, 0)?.total_cost;
            jobs.push((cg, cw, measured));
        }
    }
    let mut correct_g = 0;
    let mut correct_w = 0;
    let mut pairs = 0;
    for i in 0..jobs.len() {
        for j in (i + 1)..jobs.len() {
            let (gi, wi_, mi) = jobs[i];
            let (gj, wj, mj) = jobs[j];
            if (mi - mj).abs() < 1e-9 {
                continue;
            }
            pairs += 1;
            if (gi > gj) == (mi > mj) {
                correct_g += 1;
            }
            if (wi_ > wj) == (mi > mj) {
                correct_w += 1;
            }
        }
    }
    println!(
        "job-pair ranking accuracy over {pairs} pairs: cost_gumbo {:.2}%, cost_wang {:.2}%",
        100.0 * correct_g as f64 / pairs as f64,
        100.0 * correct_w as f64 / pairs as f64
    );
    Ok(())
}

/// Figure 5: SGF queries C1–C4, relative to SEQUNIT.
pub fn fig5(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 5 — SGF queries C1-C4 (relative to SEQUNIT)");
    let workloads = queries::figure6();
    let rows = run_lineup(&workloads, &SGF_STRATEGIES, cfg)?;
    print_rows(&rows);
    print_relative(&rows, "SEQUNIT");
    Ok(())
}

const SWEEP_STRATEGIES: [Strategy; 4] = [
    Strategy::Seq,
    Strategy::Par,
    Strategy::Greedy,
    Strategy::OneRound,
];

/// Figure 7a: growing data size on a fixed 10-node cluster (A3).
pub fn fig7a(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 7a — varying data size (10 nodes, A3)");
    let mut rows = Vec::new();
    for mult in [2u64, 4, 8, 16] {
        // scale × tuples = 200M/400M/800M/1600M equivalents.
        let c = RunConfig {
            scale: cfg.scale * mult / 2,
            ..cfg.clone()
        };
        for s in SWEEP_STRATEGIES {
            let mut r = run_strategy(s, &queries::a3(), &c)?;
            r.workload = format!("{}M", c.equivalent_tuples() / 1_000_000);
            rows.push(r);
        }
    }
    print_rows(&rows);
    Ok(())
}

/// Figure 7b: growing cluster size at fixed data size (A3).
pub fn fig7b(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 7b — varying cluster size (800M-equivalent tuples, A3)");
    let mut rows = Vec::new();
    for nodes in [5usize, 10, 20] {
        let c = RunConfig {
            nodes,
            scale: cfg.scale * 4,
            ..cfg.clone()
        };
        for s in SWEEP_STRATEGIES {
            let mut r = run_strategy(s, &queries::a3(), &c)?;
            r.workload = format!("{nodes}n");
            rows.push(r);
        }
    }
    print_rows(&rows);
    Ok(())
}

/// Figure 7c: co-scaling data and cluster size (A3).
pub fn fig7c(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 7c — co-scaling data and cluster size (A3)");
    let mut rows = Vec::new();
    for (mult, nodes) in [(1u64, 5usize), (2, 10), (4, 20)] {
        let c = RunConfig {
            nodes,
            scale: cfg.scale * mult,
            ..cfg.clone()
        };
        for s in SWEEP_STRATEGIES {
            let mut r = run_strategy(s, &queries::a3(), &c)?;
            r.workload = format!("{}M/{}n", c.equivalent_tuples() / 1_000_000, nodes);
            rows.push(r);
        }
    }
    print_rows(&rows);
    Ok(())
}

/// Figure 8: varying the number of conditional atoms (A3 family).
pub fn fig8(cfg: &RunConfig) -> Result<()> {
    print_header("Figure 8 — varying the number of conditional atoms (A3 family)");
    let mut rows = Vec::new();
    for k in [2usize, 4, 8, 12, 16] {
        let w = queries::a3_family(k);
        for s in SWEEP_STRATEGIES {
            rows.push(run_strategy(s, &w, cfg)?);
        }
    }
    print_rows(&rows);
    Ok(())
}

/// Table 3: net/total increase when selectivity goes from 0.1 to 0.9.
pub fn table3(cfg: &RunConfig) -> Result<()> {
    print_header("Table 3 — selectivity 0.1 -> 0.9 increase (A1-A3)");
    let workloads = [queries::a1(), queries::a2(), queries::a3()];
    let strategies = [Strategy::Seq, Strategy::Par, Strategy::Greedy];
    println!(
        "{:<10} {:<10} {:>12} {:>12}",
        "strategy", "query", "net incr", "total incr"
    );
    for s in strategies {
        for w in &workloads {
            let lo = run_strategy(
                s,
                w,
                &RunConfig {
                    selectivity: 0.1,
                    ..cfg.clone()
                },
            )?;
            let hi = run_strategy(
                s,
                w,
                &RunConfig {
                    selectivity: 0.9,
                    ..cfg.clone()
                },
            )?;
            println!(
                "{:<10} {:<10} {:>11.0}% {:>11.0}%",
                s.label(),
                w.name,
                100.0 * (hi.net - lo.net) / lo.net,
                100.0 * (hi.total - lo.total) / lo.total,
            );
        }
    }
    Ok(())
}

/// Optimality checks: greedy vs brute-force planners (backing Theorems 1/2
/// and the paper's claim that Greedy-SGF matched the optimal sorts on
/// C1–C4).
pub fn optimality(cfg: &RunConfig) -> Result<()> {
    print_header("Optimality — greedy vs brute-force planners");
    // (a) Greedy-SGF vs optimal multiway topological sort on C1-C4.
    for w in queries::figure6() {
        let db = w
            .spec
            .clone()
            .with_tuples(cfg.tuples.min(2000))
            .database(cfg.seed);
        let dfs = SimDfs::from_database(&db);
        let engine = greedy(cfg);
        let greedy_sort = gumbo::core::planner::greedy_sgf_sort(&w.query);
        let greedy_cost = engine.sort_cost(&dfs, &w.query, &greedy_sort)?;
        let (opt_sort, opt_cost) = gumbo::core::planner::optimal_sgf_sort(&w.query, &mut |s| {
            engine.sort_cost(&dfs, &w.query, s)
        })?;
        println!(
            "{}: greedy sort cost {:.0}, optimal {:.0} (ratio {:.3}); groups {} vs {}",
            w.name,
            greedy_cost,
            opt_cost,
            greedy_cost / opt_cost,
            greedy_sort.len(),
            opt_sort.len()
        );
    }
    // (b) Greedy-BSGF vs optimal partition on A1/A3/B2 semi-join sets.
    for w in [queries::a1(), queries::a3(), queries::b2()] {
        let db = w
            .spec
            .clone()
            .with_tuples(cfg.tuples.min(2000))
            .database(cfg.seed);
        let dfs = SimDfs::from_database(&db);
        let ctx = QueryContext::new(w.query.queries().to_vec())?;
        let est = Estimator::new(
            &dfs,
            cfg.scale,
            gumbo::mr::CostConstants::default(),
            CostModelKind::Gumbo,
            64,
            cfg.seed,
        );
        let n = ctx.semijoins().len();
        let cfg_job = JobConfig::default();
        let mut cost_fn = |b: &BTreeSet<usize>| {
            let ids: Vec<usize> = b.iter().copied().collect();
            est.msj_cost(&ctx, &ids, PayloadMode::Reference, &cfg_job)
                .unwrap_or(f64::MAX)
        };
        let (_, greedy_cost) = gumbo::core::planner::greedy_partition(n, &mut cost_fn);
        let (_, opt_cost) = gumbo::core::planner::optimal_partition(n, &mut cost_fn);
        println!(
            "{}: greedy partition cost {:.0}, optimal {:.0} (ratio {:.3})",
            w.name,
            greedy_cost,
            opt_cost,
            greedy_cost / opt_cost
        );
    }
    Ok(())
}

/// Sanity: dependency structures of the C-queries match the paper.
pub fn structures(_: &RunConfig) -> Result<()> {
    print_header("Dependency structures (Fig. 6)");
    for w in queries::figure6() {
        let g = DependencyGraph::new(&w.query);
        println!(
            "{}: {} subqueries, levels {:?}",
            w.name,
            g.len(),
            g.level_sort()
        );
    }
    Ok(())
}

/// Wall-clock scaling of one program: worker counts at one job slot,
/// then job-slot counts at one worker.
///
/// This is the one experiment about *our* wall clock rather than the
/// paper's simulated metrics. The program merges eight clients'
/// independent A3-shaped queries, each over its own renamed copy of the
/// relations, into one `MrProgram` ([`gumbo::mr::MrProgram::extend`]).
/// Each client's MSJ → EVAL chain is a real dependency while different
/// clients' jobs may overlap, so workers split every job's map and
/// reduce tasks and job slots overlap whole jobs. Every row must leave
/// the DFS contents and per-job statistics of the serial reference loop
/// on the same program ([`gumbo::sched::serial_reference`] on
/// `--executor`; asserted): only the wall clock may differ. Rows — wall
/// and speed-up over the one-worker, one-slot row — are written to
/// `BENCH_scaling.json`.
pub fn scaling(cfg: &RunConfig) -> Result<()> {
    use gumbo::datagen::DataSpec;
    use gumbo::mr::{Executor, ReducerPolicy};
    use gumbo::obs::json::Json;
    use gumbo::sched::{DagScheduler, SchedulerConfig};
    use std::time::Instant;

    const CLIENTS: usize = 8;
    const COUNTS: [usize; 4] = [1, 2, 4, 8];

    print_header("Scaling — wall clock of one program by workers, then by job slots");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "available hardware parallelism: {hw} core(s); {CLIENTS} clients, {} guard tuples each",
        cfg.tuples
    );

    let engine_cfg = cfg.engine_config();
    // MSJ → EVAL structure (GREEDY-SGF, no 1-ROUND fusion); fixed reducers
    // keep every worker count on plenty of independent reduce tasks.
    let mut engine = Strategy::GreedySgf
        .engine(engine_cfg)
        .expect("GREEDY-SGF has an engine");
    engine.options.job_config.reducer_policy = ReducerPolicy::Fixed(64);
    let queries: Vec<gumbo::sgf::SgfQuery> = (0..CLIENTS)
        .map(|i| {
            gumbo::sgf::parse_program(&format!(
                "Out{i} := SELECT (x, y, z, w) FROM R{i}(x, y, z, w) \
                 WHERE S{i}(x) AND T{i}(x) AND U{i}(x) AND V{i}(x);"
            ))
            .expect("client query parses")
        })
        .collect();
    let mut db = gumbo::common::Database::new();
    for i in 0..CLIENTS {
        let guard = format!("R{i}");
        let conds = ["S", "T", "U", "V"].map(|c| format!("{c}{i}"));
        let cond_refs: Vec<(&str, usize)> = conds.iter().map(|c| (c.as_str(), 1)).collect();
        let client_db = DataSpec::new(&[(guard.as_str(), 4)], &cond_refs)
            .with_tuples(cfg.tuples)
            .with_selectivity(cfg.selectivity)
            .database(cfg.seed + i as u64);
        for rel in client_db.relations() {
            db.add_relation(rel.clone());
        }
    }
    let build_program = |dfs: &SimDfs| -> Result<gumbo::mr::MrProgram> {
        let mut merged = gumbo::mr::MrProgram::new();
        for q in &queries {
            let ctx = QueryContext::new(q.queries().to_vec())?;
            merged.extend(
                engine
                    .plan_group(&engine.estimator(dfs), &ctx)?
                    .build_program(&ctx)?,
            );
        }
        Ok(merged)
    };

    let reference_dfs = SimDfs::from_database(&db);
    let reference = gumbo::sched::serial_reference(
        &cfg.executor.build(engine_cfg),
        &reference_dfs,
        &build_program(&reference_dfs)?,
    )?;

    // The one timed-run body: every row, and an untimed warm-up so the
    // first row is not charged for the process's first-touch memory.
    let timed_run = |workers: usize, slots: usize| -> Result<(f64, usize)> {
        let executor = Executor::with_threads(engine_cfg, workers);
        let scheduler = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: slots,
            ..SchedulerConfig::ONE_SLOT
        });
        let dfs = SimDfs::from_database(&db);
        let program = build_program(&dfs)?;
        let start = Instant::now();
        let stats = scheduler.execute_program(&executor, &dfs, program)?;
        let wall = start.elapsed().as_secs_f64();

        let label = format!("scaling {workers} workers x {slots} slots");
        gumbo::sched::assert_identical_dfs(&label, &reference_dfs, &dfs);
        gumbo::sched::assert_identical_stats(&label, &reference, &stats);
        Ok((wall, stats.num_jobs()))
    };
    timed_run(1, 1)?;

    println!(
        "{:>8} {:>6} {:>6} {:>10} {:>9}",
        "workers", "slots", "jobs", "wall (s)", "speedup"
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut first_wall = None;
    let settings = COUNTS
        .iter()
        .map(|&workers| (workers, 1))
        .chain(COUNTS[1..].iter().map(|&slots| (1, slots)));
    for (workers, slots) in settings {
        let (wall, jobs) = timed_run(workers, slots)?;
        let speedup = *first_wall.get_or_insert(wall) / wall.max(1e-12);
        println!("{workers:>8} {slots:>6} {jobs:>6} {wall:>10.3} {speedup:>8.2}x");
        rows.push(Json::obj([
            ("workers", Json::Int(workers as u64)),
            ("slots", Json::Int(slots as u64)),
            ("jobs", Json::Int(jobs as u64)),
            ("wall_s", Json::Num(wall)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    let report = Json::obj([
        ("experiment", Json::Str("scaling".into())),
        ("clients", Json::Int(CLIENTS as u64)),
        ("tuples_per_client", Json::Int(cfg.tuples as u64)),
        ("scale", Json::Int(cfg.scale)),
        ("nodes", Json::Int(cfg.nodes as u64)),
        ("reference_executor", Json::Str(cfg.executor.label())),
        ("hardware_threads", Json::Int(hw as u64)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = "BENCH_scaling.json";
    std::fs::write(path, format!("{report}\n"))
        .map_err(|e| gumbo::common::GumboError::Storage(format!("writing {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// Run everything.
pub fn all(cfg: &RunConfig) -> Result<()> {
    fig3(cfg)?;
    fig4(cfg)?;
    costmodel(cfg)?;
    fig5(cfg)?;
    fig7a(cfg)?;
    fig7b(cfg)?;
    fig7c(cfg)?;
    fig8(cfg)?;
    table3(cfg)?;
    ablation(cfg)?;
    optimality(cfg)?;
    structures(cfg)?;
    Ok(())
}

/// The GREEDY engine on this run's runtime, scale and cluster.
fn greedy(cfg: &RunConfig) -> gumbo::core::GumboEngine {
    let mut engine = Strategy::Greedy
        .engine(cfg.engine_config())
        .expect("GREEDY has an engine");
    engine.executor = cfg.executor;
    engine
}

/// Shorten long job names for tabular output.
fn truncate_name(name: &str) -> String {
    if name.len() <= 40 {
        name.to_string()
    } else {
        format!("{}…", &name[..39])
    }
}

/// Ablation study: Gumbo's individual optimizations (§5.1) toggled one at
/// a time on the A1 workload under the GREEDY strategy.
pub fn ablation(cfg: &RunConfig) -> Result<()> {
    use gumbo::core::{EvalOptions, GumboEngine};
    use gumbo::mr::ReducerPolicy;
    use gumbo::sgf::NaiveEvaluator;

    print_header("Ablation — Gumbo optimizations toggled individually (GREEDY)");
    for w in [queries::a1(), queries::a3()] {
        println!("--- workload {} ---", w.name);
        let spec = w
            .spec
            .clone()
            .with_tuples(cfg.tuples)
            .with_selectivity(cfg.selectivity);
        let db = spec.database(cfg.seed);
        let expected = NaiveEvaluator::new().evaluate_sgf_all(&w.query, &db)?;

        let greedy = greedy(cfg).options;
        let par = Strategy::Par.engine(cfg.engine_config());
        let variants: Vec<(&str, EvalOptions)> = vec![
            ("all optimizations", greedy),
            (
                "no packing",
                EvalOptions {
                    job_config: JobConfig {
                        packing: false,
                        ..greedy.job_config
                    },
                    ..greedy
                },
            ),
            (
                "no guard references",
                EvalOptions {
                    mode: PayloadMode::Full,
                    ..greedy
                },
            ),
            (
                "input-based reducers",
                EvalOptions {
                    job_config: JobConfig {
                        reducer_policy: ReducerPolicy::pig_default(),
                        ..greedy.job_config
                    },
                    ..greedy
                },
            ),
            ("no grouping (PAR)", par.expect("PAR has an engine").options),
        ];

        println!(
            "{:<22} {:>10} {:>12} {:>10} {:>10} {:>9}",
            "variant", "net(s)", "total(s)", "input(GB)", "comm(GB)", "reducers"
        );
        for (label, options) in variants {
            let dfs = SimDfs::from_database(&db);
            let engine = GumboEngine::with_executor(cfg.engine_config(), cfg.executor, options);
            let stats = engine.evaluate(&dfs, &w.query)?;
            for q in w.query.queries() {
                assert_eq!(
                    dfs.peek(q.output())?.as_ref(),
                    expected.relation(q.output()).expect("naive computed"),
                    "ablation variant {label} broke correctness"
                );
            }
            let reducers: usize = stats.jobs.iter().map(|j| j.profile.reducers).sum();
            println!(
                "{:<22} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>9}",
                label,
                stats.net_time(),
                stats.total_time(),
                stats.input_bytes().as_bytes() as f64 / 1e9,
                stats.communication_bytes().as_bytes() as f64 / 1e9,
                reducers
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_config(args: &[&str]) -> Result<RunConfig, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&args).map(|(_, cfg, _)| cfg)
    }

    /// A missing or malformed value is an error message, not an
    /// index-out-of-bounds panic.
    #[test]
    fn missing_and_bad_values_are_errors() {
        let err = parse_config(&["fig3", "--tuples"]).unwrap_err();
        assert!(err.contains("missing value after --tuples"), "{err}");
        let err = parse_config(&["fig3", "--scale", "lots"]).unwrap_err();
        assert!(err.starts_with("--scale: "), "{err}");
        let err = parse_config(&["fig3", "--executor", "gpu"]).unwrap_err();
        assert!(err.contains("--executor"), "{err}");
        let err = parse_config(&["spill"]).unwrap_err();
        assert!(err.contains("unknown experiment spill"), "{err}");
        let cfg = parse_config(&["fig3", "--tuples", "400", "--no-verify"]).unwrap();
        assert_eq!((cfg.tuples, cfg.verify), (400, false));
        assert_eq!(
            parse_config(&[]).unwrap().tuples,
            RunConfig::default().tuples
        );
    }
}
