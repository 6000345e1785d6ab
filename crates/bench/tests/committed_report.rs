//! The committed `BENCH_throughput.json` at the repository root must be a
//! full `astra sweep` report of the current series table: its keys are
//! `generated_by`, `threads_available`, then every `SERIES` key in table
//! order. A series added to or removed from the table without
//! regenerating the file fails here, and so does a series left empty
//! (plain `astra sweep` writes the opt-in ones as empty arrays) or a row
//! that names a network backend the simulator no longer has.

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

/// Every `backend` field, in any row of any series, names one of the
/// backends `--network` accepts today.
#[test]
fn committed_report_names_only_current_backends() {
    fn backends<'a>(value: &'a serde_json::Value, out: &mut Vec<&'a str>) {
        match value {
            serde_json::Value::Object(map) => {
                for (key, v) in map {
                    if key == "backend" {
                        out.push(v.as_str().expect("a backend is a string"));
                    }
                    backends(v, out);
                }
            }
            serde_json::Value::Array(items) => items.iter().for_each(|v| backends(v, out)),
            _ => {}
        }
    }
    let report: serde_json::Value = serde_json::from_str(REPORT).expect("report is JSON");
    let mut named = Vec::new();
    backends(&report, &mut named);
    assert!(!named.is_empty(), "no row names a backend");
    for name in named {
        assert!(
            ["analytical", "packet", "flow"].contains(&name),
            "stale backend `{name}`; regenerate with `astra sweep --out BENCH_throughput.json`"
        );
    }
}

/// The committed report holds rows for every series, the opt-in paper
/// series included.
#[test]
fn committed_report_fills_every_series() {
    let report: serde_json::Value = serde_json::from_str(REPORT).expect("report is JSON");
    for series in SERIES {
        let rows = report
            .get(series.key)
            .and_then(serde_json::Value::as_array)
            .expect("every series is an array");
        assert!(
            !rows.is_empty(),
            "series `{}` is empty; regenerate with every series selected",
            series.key
        );
    }
}
