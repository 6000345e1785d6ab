//! Metric names and units, plus the result line every run ends with.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the package's tests keep the two in step.

/// The benchmark's workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["gpt3-hybrid-2k", "packet-coll-64", "serve-mix"];

/// A metric: name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run. All are host-side
/// measurements; simulated time is checked for correctness, not reported.
pub const END_TO_END: [Metric; 5] = [
    metric("wall_s", "s", "lower"),
    metric("setup_s", "s", "lower"),
    metric("peak_rss_mb", "MB", "lower"),
    metric("latency_p50_ms", "ms", "lower"),
    metric("latency_p95_ms", "ms", "lower"),
];

/// Per-layer metrics, printed by every traced run. Counts repeat exactly
/// from run to run; a layer a workload does not reach reads 0. Which
/// end-to-end metric each should move, on which workload, is the table in
/// `README.md`; each workload's `why` in `BENCHMARK.json` names its own.
pub const PER_LAYER: [Metric; 18] = [
    metric("topology.parse_s", "s", "lower"),
    metric("workload.trace_gen_s", "s", "lower"),
    metric("workload.trace_nodes", "count", "lower"),
    metric("system.simulate_s", "s", "lower"),
    metric("system.us_per_collective", "us", "lower"),
    metric("collectives.chunk_ops", "count", "lower"),
    metric("collectives.lowering_hit_ratio", "ratio", "higher"),
    metric("network.events", "count", "lower"),
    metric("network.messages", "count", "lower"),
    metric("network.ns_per_event", "ns", "lower"),
    metric("network.delay_memo_hits", "count", "higher"),
    metric("network.train_splits", "count", "lower"),
    metric("serve.result_hit_ratio", "ratio", "higher"),
    metric("serve.trace_hit_ratio", "ratio", "higher"),
    metric("serve.delay_queries", "count", "lower"),
    metric("serve.route_queries", "count", "lower"),
    metric("serve.busy_s", "s", "lower"),
    metric("trace.overhead_s", "s", "lower"),
];

/// What one run measured: operations attempted and failed, the metric
/// values by name, and the human-readable lines printed before the
/// result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulate calls or requests made.
    pub attempted: u64,
    /// Calls or requests that errored or returned a wrong result.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Samples and notes, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Adds a printed note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `table` with its unit. Panics if a metric of `table` was not
    /// measured, which is a bug in this benchmark.
    pub fn result_line(&self, table: &[Metric]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                let value = self
                    .values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
