//! Experiment driver: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <all|fig3|fig4|fig5|fig7a|fig7b|fig7c|fig8|table3|costmodel|optimality|ablation|structures|scaling>
//!             [--tuples N] [--scale N] [--nodes N] [--seed N] [--no-verify]
//!             [--executor sim|parallel|parallel:N]
//!             [--trace PATH] [--metrics-dump]
//! ```
//!
//! `all` runs every §5 experiment; their figures are deterministic model
//! output. `scaling` is the one wall-clock experiment: one program timed
//! at 1/2/4/8 workers and then 1/2/4/8 job slots, every row asserted
//! identical to the serial reference, written to `BENCH_scaling.json`.
//!
//! `--trace` records one trace covering the whole experiment run
//! (Chrome trace-event JSON — load it into Perfetto);
//! `--metrics-dump` prints the process-wide counter registry afterward.
//! A missing or malformed flag value exits with status 2 and a message.

use gumbo_bench::experiments;
use gumbo_bench::RunConfig;

const USAGE: &str = "usage: experiments <all|fig3|fig4|fig5|fig7a|fig7b|fig7c|fig8|table3|\
                     costmodel|optimality|ablation|structures|scaling> \
                     [--tuples N] [--scale N] [--nodes N] [--seed N] [--no-verify] \
                     [--executor sim|parallel|parallel:N] \
                     [--trace PATH] [--metrics-dump]";

type Experiment = fn(&RunConfig) -> gumbo_common::Result<()>;

/// The experiment a command-line name selects.
fn experiment(name: &str) -> Option<Experiment> {
    let run: Experiment = match name {
        "all" => experiments::all,
        "fig3" => |c| experiments::fig3(c).map(drop),
        "fig4" => |c| experiments::fig4(c).map(drop),
        "fig5" => |c| experiments::fig5(c).map(drop),
        "fig7a" => |c| experiments::fig7a(c).map(drop),
        "fig7b" => |c| experiments::fig7b(c).map(drop),
        "fig7c" => |c| experiments::fig7c(c).map(drop),
        "fig8" => |c| experiments::fig8(c).map(drop),
        "table3" => experiments::table3,
        "costmodel" => experiments::costmodel,
        "optimality" => experiments::optimality,
        "ablation" => experiments::ablation,
        "structures" => |_| experiments::structures(),
        "scaling" => experiments::scaling,
        _ => return None,
    };
    Some(run)
}

/// The value after the flag at `args[*i]`, parsed.
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    *i += 1;
    let flag = &args[*i - 1];
    let raw = args
        .get(*i)
        .ok_or_else(|| format!("missing value after {flag}"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse `experiments [NAME] [FLAGS]` (default `all`).
fn parse_args(args: &[String]) -> Result<(Experiment, RunConfig), String> {
    let name = args.first().map_or("all", String::as_str);
    let run = experiment(name).ok_or_else(|| format!("unknown experiment {name}\n{USAGE}"))?;
    let mut cfg = RunConfig::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tuples" => cfg.tuples = value(args, &mut i)?,
            "--scale" => cfg.scale = value(args, &mut i)?,
            "--nodes" => cfg.nodes = value(args, &mut i)?,
            "--seed" => cfg.seed = value(args, &mut i)?,
            "--no-verify" => cfg.verify = false,
            "--executor" => {
                let spec: String = value(args, &mut i)?;
                cfg.executor = gumbo_mr::ExecutorKind::parse(&spec)
                    .ok_or_else(|| format!("--executor: sim|parallel|parallel:N, got {spec}"))?;
            }
            "--trace" => cfg.trace = Some(value(args, &mut i)?),
            "--metrics-dump" => cfg.metrics_dump = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    Ok((run, cfg))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, cfg) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(path) = &cfg.trace {
        if let Err(e) = gumbo_obs::install_trace_file(path) {
            eprintln!("--trace {path:?}: {e}");
            std::process::exit(2);
        }
    }
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

    let result = run(&cfg);
    // Finalize the trace file (closes the Chrome array) before exiting,
    // whatever the experiment outcome.
    gumbo_obs::uninstall();
    if cfg.metrics_dump {
        gumbo_obs::print_metrics();
    }
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunConfig, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args).map(|(_, cfg)| cfg)
    }

    /// A missing or malformed value is an error message (exit 2), not an
    /// index-out-of-bounds panic.
    #[test]
    fn missing_and_bad_values_are_errors() {
        let err = parse(&["fig3", "--tuples"]).unwrap_err();
        assert!(err.contains("missing value after --tuples"), "{err}");
        let err = parse(&["fig3", "--scale", "lots"]).unwrap_err();
        assert!(err.starts_with("--scale: "), "{err}");
        let err = parse(&["fig3", "--executor", "gpu"]).unwrap_err();
        assert!(err.contains("--executor"), "{err}");
        let err = parse(&["spill"]).unwrap_err();
        assert!(err.contains("unknown experiment spill"), "{err}");
        let cfg = parse(&["fig3", "--tuples", "400", "--no-verify"]).unwrap();
        assert_eq!((cfg.tuples, cfg.verify), (400, false));
        assert_eq!(parse(&[]).unwrap().tuples, RunConfig::default().tuples);
    }
}
