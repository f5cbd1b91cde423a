//! `BENCH_history.json`, the committed record of performance claims: it
//! parses, every row is internally consistent, and rows stay in PR order.

use gumbo::obs::json::Json;

#[test]
fn every_claim_row_is_consistent_and_in_pr_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.json");
    let text = std::fs::read_to_string(path).expect("BENCH_history.json is committed");
    let history = Json::parse(&text).expect("BENCH_history.json parses");
    let rows = history
        .get("rows")
        .and_then(Json::as_arr)
        .expect("a `rows` array");
    assert!(!rows.is_empty());
    let mut last_pr = 0;
    for row in rows {
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{key} of {row:?}"))
        };
        let count = |key: &str| {
            row.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{key} of {row:?}"))
        };
        for key in ["commit", "workload", "metric", "host"] {
            assert!(
                row.get(key).and_then(Json::as_str).is_some(),
                "{key} of {row:?}"
            );
        }
        let pr = count("pr");
        assert!(pr >= last_pr, "PR {pr} after PR {last_pr}");
        last_pr = pr;
        let (parent, change) = (num("parent_median"), num("change_median"));
        assert!(parent > 0.0 && change > 0.0, "{row:?}");
        let ratio = (change / parent * 1000.0).round() / 1000.0;
        assert!(
            (num("ratio") - ratio).abs() < 1e-9,
            "PR {pr}: ratio {} is not {change} / {parent} = {ratio}",
            num("ratio")
        );
        assert!(count("pairs_won") <= count("pairs_run"), "PR {pr}");
        assert!(num("parent_iqr") >= 0.0, "PR {pr}");
    }
}
