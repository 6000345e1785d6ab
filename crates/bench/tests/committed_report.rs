//! The committed `BENCH_throughput.json` at the repository root must be a
//! full `astra sweep` report of the current series table: its keys are
//! `generated_by`, `threads_available`, then every `SERIES` key in table
//! order. A series added to or removed from the table without
//! regenerating the file fails here.

use astra_bench::throughput::SERIES;

const REPORT: &str = include_str!("../../../BENCH_throughput.json");

#[test]
fn committed_report_keys_follow_the_series_table() {
    let report: serde_json::Value = serde_json::from_str(REPORT).expect("report is JSON");
    let keys: Vec<&str> = report
        .as_object()
        .expect("report is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut want = vec!["generated_by", "threads_available"];
    want.extend(SERIES.iter().map(|s| s.key));
    assert_eq!(keys, want);
}
