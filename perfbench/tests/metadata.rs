//! `BENCHMARK.json` and the metric tables agree, and every name is legal.

use std::collections::BTreeSet;

use astra_perfbench::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_at<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {v:?}"))
}

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn all_metrics() -> Vec<Metric> {
    END_TO_END.iter().copied().chain(PER_LAYER).collect()
}

#[test]
fn every_metric_has_a_legal_unique_name_and_a_unit() {
    let mut seen = BTreeSet::new();
    for m in all_metrics() {
        assert!(legal_name(m.name), "illegal metric name `{}`", m.name);
        assert!(seen.insert(m.name), "metric `{}` is listed twice", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "metric `{}` has unit `{}`",
            m.name,
            m.unit
        );
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
    }
    for w in WORKLOADS {
        assert!(legal_name(w), "illegal workload name `{w}`");
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let listed = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).clone();

    let workloads = listed("workloads");
    let names: Vec<&str> = workloads.iter().map(|w| str_at(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in &workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_at(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(
            layer_names.iter().any(|name| why.contains(name)),
            "the why of {} names none of its layer metrics",
            str_at(w, "name")
        );
    }

    let e2e = listed("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (
                str_at(entry, "name"),
                str_at(entry, "unit"),
                str_at(entry, "better")
            ),
            (m.name, m.unit, m.better)
        );
        let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let per_layer = listed("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(
            (
                str_at(entry, "name"),
                str_at(entry, "unit"),
                str_at(entry, "better")
            ),
            (m.name, m.unit, m.better)
        );
    }
}

#[test]
fn every_simulation_workload_has_pinned_outputs() {
    use astra_perfbench::sim::{Expected, GPT3_HYBRID_2K, PACKET_COLL_64};
    for case in [GPT3_HYBRID_2K, PACKET_COLL_64] {
        let expected = Expected::of(case.name).expect("pinned in expected.json");
        assert!(
            expected.total_ps > 0 && expected.collectives > 0,
            "{}",
            case.name
        );
    }
}
