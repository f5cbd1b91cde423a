//! Machine-readable benchmark reports.
//!
//! The wall-clock experiment (`scaling`) emits a `BENCH_<name>.json` in
//! the working directory so successive runs can be compared
//! mechanically. The offline build has no serde; the
//! JSON value model lives in [`gumbo_obs::json`] (shared with the trace
//! sinks and `trace-check`) and is re-exported here so existing bench
//! call sites keep compiling unchanged.

use std::path::Path;

pub use gumbo_obs::json::Json;

/// Write a report to `BENCH_<name>.json` in the current directory and
/// announce the path on stdout.
pub fn write_bench_json(name: &str, value: &Json) -> std::io::Result<()> {
    let path = format!("BENCH_{name}.json");
    std::fs::write(Path::new(&path), format!("{value}\n"))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_escapes_and_nests() {
        let v = Json::obj([
            ("name", Json::Str("a \"b\"\n".into())),
            ("n", Json::Int(3)),
            ("xs", Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"name\":\"a \\\"b\\\"\\n\",\"n\":3,\"xs\":[1.5,null]}"
        );
    }
}
