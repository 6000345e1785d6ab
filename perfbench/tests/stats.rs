//! Sample statistics used for every reported timing.

use astra_perfbench::clock::{median, percentile, tail95};
use astra_perfbench::metrics::{Metric, Outcome, END_TO_END};

#[test]
fn median_and_percentile() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 95.0), 95.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
}

#[test]
fn the_tail_needs_ten_samples_beyond_it() {
    let few: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail95(&few), median(&few));
    let many: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail95(&many), 190.0);
}

#[test]
fn the_result_line_carries_every_metric_with_its_unit() {
    let mut out = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    for (i, m) in END_TO_END.iter().enumerate() {
        out.set(m.name, 1.5 + i as f64);
    }
    let table: Vec<Metric> = END_TO_END.to_vec();
    let line = out.result_line(&table);
    let v = serde_json::parse(&line).expect("the result line is JSON");
    assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
    assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(3));
    assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
    let metrics = v.get("metrics").expect("metrics");
    for m in END_TO_END {
        let entry = metrics.get(m.name).expect(m.name);
        assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(m.unit));
        assert!(entry.get("value").and_then(|u| u.as_f64()).is_some());
    }
    out.failed = 1;
    assert!(out.result_line(&table).starts_with("{\"correct\": false"));
}
