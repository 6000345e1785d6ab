//! Wall-clock service statistics for `astra serve`.
//!
//! This module is the service's **only** wall-clock surface (everything
//! else in the stack measures simulated time): it owns every
//! `Instant::now` call so the repo-wide wall-clock lint can exempt
//! exactly one serve file. The numbers here are *volatile and
//! informational* — they describe the host the service runs on, never a
//! simulation result — and are therefore excluded from the pinned
//! response-row surface: they appear only in `{"stats": true}` control
//! rows that a client explicitly asks for, and in end-of-batch summary
//! lines on stderr.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

use crate::exec::CacheSummary;
use crate::request::ErrorKind;

/// Stable index of an [`ErrorKind`] into the per-kind rejection counters.
fn kind_index(kind: ErrorKind) -> usize {
    match kind {
        ErrorKind::Request => 0,
        ErrorKind::BudgetExceeded => 1,
        ErrorKind::Panic => 2,
        ErrorKind::Shutdown => 3,
        ErrorKind::LineTooLong => 4,
    }
}

/// The `error` tokens in counter order, aligned with [`kind_index`].
const KIND_TOKENS: [&str; 5] = [
    "request",
    "budget_exceeded",
    "panic",
    "shutdown",
    "line_too_long",
];

/// Live wall-clock statistics of a running service (or of one stdin
/// batch): request/outcome counters, per-request latencies, and worker
/// busy time. One instance typically lives as long as the service, so
/// `{"stats": true}` rows observe totals across connections.
#[derive(Debug)]
pub struct ServeStats {
    started: Instant,
    requests: AtomicU64,
    ok: AtomicU64,
    stats_requests: AtomicU64,
    rejected: [AtomicU64; 5],
    busy_micros: AtomicU64,
    latencies: Mutex<Vec<u64>>,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Starts an empty statistics window at the current instant.
    // Sanctioned wall-clock site: service latency is host time by
    // definition (see the module docs).
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        ServeStats {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            rejected: Default::default(),
            busy_micros: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its result and the elapsed wall-clock
    /// microseconds.
    // Sanctioned wall-clock site: see the module docs.
    #[allow(clippy::disallowed_methods)]
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        (
            out,
            start.elapsed().as_micros().min(u64::MAX as u128) as u64,
        )
    }

    /// Records one completed request: its outcome (`None` = success, or
    /// the rejection kind) and its wall-clock latency in microseconds.
    pub fn record(&self, outcome: Option<ErrorKind>, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match outcome {
            None => {
                self.ok.fetch_add(1, Ordering::Relaxed);
            }
            Some(kind) => {
                self.rejected[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.busy_micros.fetch_add(micros, Ordering::Relaxed);
        match self.latencies.lock() {
            Ok(mut l) => l.push(micros),
            Err(poisoned) => poisoned.into_inner().push(micros),
        }
    }

    /// Records one answered `{"stats": true}` control row (counted as a
    /// successful request, but not into the latency distribution — the
    /// snapshot costs no simulation work).
    pub fn record_stats_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.ok.fetch_add(1, Ordering::Relaxed);
        self.stats_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The stats payload of a `{"stats": true}` control row: uptime,
    /// outcome counters, latency percentiles, worker occupancy, and the
    /// warm-cache totals. Every value is volatile wall-clock state —
    /// clients must not treat it as part of the deterministic surface.
    pub fn value(&self, workers: usize, cache: &CacheSummary) -> Value {
        let mut latencies = match self.latencies.lock() {
            Ok(l) => l.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        latencies.sort_unstable();
        let elapsed = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let busy = self.busy_micros.load(Ordering::Relaxed);
        let capacity = (elapsed as u128) * (workers.max(1) as u128);
        let occupancy_permille = (busy as u128 * 1000)
            .checked_div(capacity)
            .map_or(0, |v| v.min(1000) as u64);
        let errors: Vec<(String, Value)> = KIND_TOKENS
            .iter()
            .zip(&self.rejected)
            .map(|(token, count)| {
                (
                    (*token).to_owned(),
                    Value::UInt(count.load(Ordering::Relaxed)),
                )
            })
            .collect();
        Value::Object(vec![
            ("uptime_us".to_owned(), Value::UInt(elapsed)),
            ("workers".to_owned(), Value::UInt(workers as u64)),
            (
                "requests".to_owned(),
                Value::UInt(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "ok".to_owned(),
                Value::UInt(self.ok.load(Ordering::Relaxed)),
            ),
            (
                "stats_requests".to_owned(),
                Value::UInt(self.stats_requests.load(Ordering::Relaxed)),
            ),
            ("errors".to_owned(), Value::Object(errors)),
            (
                "latency_us".to_owned(),
                Value::Object(vec![
                    ("p50".to_owned(), Value::UInt(percentile(&latencies, 50))),
                    ("p99".to_owned(), Value::UInt(percentile(&latencies, 99))),
                    (
                        "max".to_owned(),
                        Value::UInt(latencies.last().copied().unwrap_or(0)),
                    ),
                ]),
            ),
            (
                "occupancy_permille".to_owned(),
                Value::UInt(occupancy_permille),
            ),
            (
                "cache".to_owned(),
                Value::Object(vec![
                    (
                        "result_queries".to_owned(),
                        Value::UInt(cache.result_queries),
                    ),
                    ("result_hits".to_owned(), Value::UInt(cache.result_hits)),
                    ("trace_queries".to_owned(), Value::UInt(cache.trace_queries)),
                    ("trace_entries".to_owned(), Value::UInt(cache.trace_entries)),
                    ("delay_queries".to_owned(), Value::UInt(cache.delay_queries)),
                ]),
            ),
        ])
    }

    /// One human-readable end-of-batch summary line (for stderr): row
    /// totals, latency percentiles, worker occupancy, and warm-cache hit
    /// rates.
    pub fn summary_line(&self, workers: usize, cache: &CacheSummary) -> String {
        let mut latencies = match self.latencies.lock() {
            Ok(l) => l.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        latencies.sort_unstable();
        let rejected: u64 = self
            .rejected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let budget = self.rejected[kind_index(ErrorKind::BudgetExceeded)].load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let busy = self.busy_micros.load(Ordering::Relaxed);
        let capacity = (elapsed as u128) * (workers.max(1) as u128);
        let occupancy = (busy as u128 * 100)
            .checked_div(capacity)
            .map_or(0, |v| v.min(100) as u64);
        format!(
            "{} requests ({} ok, {} rejected, {} budget) | latency p50 {}us p99 {}us max {}us | \
             occupancy {}% over {} workers | cache results {}/{} traces {} queries",
            self.requests.load(Ordering::Relaxed),
            self.ok.load(Ordering::Relaxed),
            rejected,
            budget,
            percentile(&latencies, 50),
            percentile(&latencies, 99),
            latencies.last().copied().unwrap_or(0),
            occupancy,
            workers,
            cache.result_hits,
            cache.result_queries,
            cache.trace_queries,
        )
    }
}

/// Nearest-rank percentile of an already-sorted slice (0 when empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles_accumulate() {
        let stats = ServeStats::new();
        stats.record(None, 100);
        stats.record(None, 200);
        stats.record(Some(ErrorKind::BudgetExceeded), 300);
        stats.record(Some(ErrorKind::Shutdown), 0);
        stats.record_stats_request();
        let line = stats.summary_line(2, &CacheSummary::default());
        assert!(
            line.contains("5 requests (3 ok, 2 rejected, 1 budget)"),
            "{line}"
        );
        assert!(line.contains("max 300us"), "{line}");
        let value = stats.value(2, &CacheSummary::default());
        let text = serde_json::to_string(&value).unwrap();
        assert!(text.contains("\"budget_exceeded\":1"), "{text}");
        assert!(text.contains("\"shutdown\":1"), "{text}");
        assert!(text.contains("\"stats_requests\":1"), "{text}");
        assert!(text.contains("\"workers\":2"), "{text}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values = [10, 20, 30, 40];
        assert_eq!(percentile(&values, 50), 20);
        assert_eq!(percentile(&values, 99), 40);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn timed_measures_and_returns() {
        let (out, micros) = ServeStats::timed(|| 6 * 7);
        assert_eq!(out, 42);
        // Wall clock is monotone, so the measurement is always defined.
        assert!(micros < 60_000_000, "implausible latency: {micros}us");
    }
}
