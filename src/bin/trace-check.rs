//! `trace-check` — validate a trace file emitted by `gumbo-cli --trace`.
//!
//! Usage: `trace-check PATH`
//!
//! The whole file must parse as a JSON array of Chrome trace events,
//! within every `tid` lane the `B`/`E` phase events must balance like
//! brackets (each `E` closes the most recent open `B` with the same
//! name), and every event name must come from the known span/instant
//! vocabulary below — a renamed or typo'd emitter fails here instead of
//! silently producing an unrecognizable trace.
//!
//! Exits 0 and prints a one-line summary on success; prints the first
//! problem to stderr and exits 1 otherwise. CI runs this against the
//! trace artifact so a malformed exporter fails the build, not the
//! person who later loads the file into Perfetto.

use std::process::ExitCode;

use gumbo::obs::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("trace-check: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut path: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok("usage: trace-check PATH".to_string()),
            arg if arg.starts_with("--") => return Err(format!("unknown flag {arg:?}")),
            arg => {
                if path.replace(arg).is_some() {
                    return Err("expected exactly one PATH argument".to_string());
                }
            }
        }
    }
    let path = path.ok_or_else(|| "usage: trace-check PATH".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    check_chrome(&text)
}

/// Every span name the engine emits (`B`/`E` pairs). Grown alongside the
/// emitters — an unknown name in a trace means an emitter changed without
/// updating the checker (or the file is not a gumbo trace).
const KNOWN_SPANS: &[&str] = &[
    "execute",
    "job",
    "plan",
    "map",
    "map:task",
    "shuffle:flush",
    "reduce",
    "reduce:partition",
    "reduce:task",
    "commit",
    "spill:run",
    "spill:merge",
    "dfs.store",
];

/// Every instant-event name (`i` phase): scheduler lifecycle, budget and
/// DFS scan markers.
const KNOWN_INSTANTS: &[&str] = &[
    "sched:submit",
    "sched:admit",
    "sched:ready",
    "sched:claim",
    "sched:complete",
    "budget:exhausted",
    "spill:run",
    "dfs.scan",
    "svc:accept",
    "svc:submit",
    "svc:admit",
    "svc:stream",
    "svc:complete",
    "svc:drain",
];

fn check_name(idx: usize, ph: &str, name: &str) -> Result<(), String> {
    let known = match ph {
        "i" => KNOWN_INSTANTS,
        _ => KNOWN_SPANS,
    };
    if known.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "event {idx}: unknown {} name {name:?}",
            if ph == "i" { "instant" } else { "span" }
        ))
    }
}

/// Validate a Chrome trace-event file: one JSON array, balanced `B`/`E`
/// per `tid` lane with matching names, LIFO order, known names only.
fn check_chrome(text: &str) -> Result<String, String> {
    let root = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = root.as_arr().ok_or("top-level value is not an array")?;
    // One open-span stack per tid; Chrome nesting is per-thread LIFO.
    let mut stacks: Vec<(u64, Vec<String>)> = Vec::new();
    let mut spans = 0u64;
    let mut instants = 0u64;
    for (idx, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing \"ph\""))?;
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing \"name\""))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {idx}: missing \"tid\""))?;
        if event.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("event {idx}: missing \"ts\""));
        }
        check_name(idx, ph, name)?;
        let stack = match stacks.iter_mut().find(|(lane, _)| *lane == tid) {
            Some((_, stack)) => stack,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack.pop().ok_or_else(|| {
                    format!("event {idx}: \"E\" {name:?} with no open span on tid {tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {idx}: \"E\" {name:?} closes open span {open:?} on tid {tid}"
                    ));
                }
                spans += 1;
            }
            "i" => instants += 1,
            other => return Err(format!("event {idx}: unexpected phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span {open:?} on tid {tid}"));
        }
    }
    Ok(format!(
        "ok: {spans} spans, {instants} instants across {} lanes",
        stacks.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: &str, name: &str) -> String {
        format!(r#"{{"ph":"{ph}","name":"{name}","tid":1,"ts":1.0}}"#)
    }

    #[test]
    fn chrome_accepts_spill_spans() {
        let text = format!(
            "[{},{},{},{},{},{}]",
            ev("B", "job"),
            ev("B", "spill:run"),
            ev("E", "spill:run"),
            ev("B", "spill:merge"),
            ev("E", "spill:merge"),
            ev("E", "job"),
        );
        assert!(check_chrome(&text).is_ok());
    }

    #[test]
    fn chrome_rejects_unknown_span_names() {
        for name in ["spill:warp", "filter:build", "filter:probe"] {
            let text = format!("[{},{}]", ev("B", name), ev("E", name));
            let err = check_chrome(&text).unwrap_err();
            assert!(err.contains("unknown span name"), "{name}: {err}");
        }
    }

    #[test]
    fn chrome_rejects_span_name_as_instant() {
        let err = check_chrome(&format!("[{}]", ev("i", "spill:merge"))).unwrap_err();
        assert!(err.contains("unknown instant name"), "{err}");
    }
}
