//! Experiment driver: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <all|fig3|fig4|fig5|fig7a|fig7b|fig7c|fig8|table3|costmodel|optimality|ablation|speedup|dagsched|spill|dfs>
//!             [--tuples N] [--scale N] [--nodes N] [--seed N] [--no-verify]
//!             [--executor sim|parallel|parallel:N]
//!             [--trace PATH] [--trace-format chrome|jsonl] [--metrics-dump]
//! ```
//!
//! `--trace` records one trace covering the whole experiment run
//! (Chrome trace-event JSON by default — load it into Perfetto);
//! `--metrics-dump` prints the process-wide counter registry afterward.

use gumbo_bench::experiments;
use gumbo_bench::RunConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let mut cfg = RunConfig::default();

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tuples" => {
                cfg.tuples = args[i + 1].parse().expect("--tuples N");
                i += 2;
            }
            "--scale" => {
                cfg.scale = args[i + 1].parse().expect("--scale N");
                i += 2;
            }
            "--nodes" => {
                cfg.nodes = args[i + 1].parse().expect("--nodes N");
                i += 2;
            }
            "--seed" => {
                cfg.seed = args[i + 1].parse().expect("--seed N");
                i += 2;
            }
            "--no-verify" => {
                cfg.verify = false;
                i += 1;
            }
            "--executor" => {
                cfg.executor = args
                    .get(i + 1)
                    .and_then(|spec| gumbo_mr::ExecutorKind::parse(spec))
                    .unwrap_or_else(|| {
                        eprintln!("--executor sim|parallel|parallel:N");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--trace" => {
                cfg.trace = Some(args.get(i + 1).expect("--trace PATH").into());
                i += 2;
            }
            "--trace-format" => {
                cfg.trace_format = args
                    .get(i + 1)
                    .map(String::as_str)
                    .map_or(Err("missing value".into()), gumbo_obs::TraceFormat::parse)
                    .unwrap_or_else(|e| {
                        eprintln!("--trace-format: {e}");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--metrics-dump" => {
                cfg.metrics_dump = true;
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let traced = cfg.install_trace().unwrap_or_else(|e| {
        eprintln!("--trace: {e}");
        std::process::exit(2);
    });
    if cfg.metrics_dump {
        gumbo_obs::set_metrics_enabled(true);
    }

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

    let result = match command {
        "all" => experiments::all(&cfg),
        "fig3" => experiments::fig3(&cfg).map(|_| ()),
        "fig4" => experiments::fig4(&cfg).map(|_| ()),
        "fig5" => experiments::fig5(&cfg).map(|_| ()),
        "fig7a" => experiments::fig7a(&cfg).map(|_| ()),
        "fig7b" => experiments::fig7b(&cfg).map(|_| ()),
        "fig7c" => experiments::fig7c(&cfg).map(|_| ()),
        "fig8" => experiments::fig8(&cfg).map(|_| ()),
        "table3" => experiments::table3(&cfg),
        "costmodel" => experiments::costmodel(&cfg),
        "optimality" => experiments::optimality(&cfg),
        "ablation" => experiments::ablation(&cfg),
        "structures" => experiments::structures(),
        "speedup" => experiments::speedup(&cfg),
        "dagsched" => experiments::dagsched(&cfg),
        "spill" => experiments::spill(&cfg),
        "dfs" => experiments::dfs(&cfg),
        other => {
            eprintln!("unknown experiment {other}");
            std::process::exit(2);
        }
    };
    // Finalize the trace file (closes the Chrome array) before exiting,
    // whatever the experiment outcome.
    if traced {
        gumbo_obs::uninstall();
    }
    if cfg.metrics_dump {
        for (name, kind, value) in gumbo_obs::metrics_snapshot() {
            let kind = match kind {
                gumbo_obs::MetricKind::Counter => "counter",
                gumbo_obs::MetricKind::Gauge => "gauge",
            };
            println!("metric {kind} {name}={value}");
        }
    }
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}
