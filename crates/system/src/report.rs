//! Simulation reports and exposed-time breakdowns.

use astra_des::Time;
use astra_network::NetworkStats;
use astra_telemetry::MetricsReport;
use std::fmt;

/// The paper's five-way runtime attribution (Fig. 9 / Fig. 11): every
/// instant of the execution horizon is attributed to the highest-priority
/// active category — compute first, then communication, remote memory,
/// local memory, and finally idle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Total compute time.
    pub compute: Time,
    /// Exposed (non-hidden) communication time, including in-switch
    /// collective transfers through the memory fabric.
    pub exposed_comm: Time,
    /// Exposed plain remote-memory time.
    pub exposed_remote_mem: Time,
    /// Exposed local-memory (HBM) time.
    pub exposed_local_mem: Time,
    /// Time with no activity (pipeline bubbles, rendezvous waits with no
    /// local work).
    pub exposed_idle: Time,
}

impl Breakdown {
    /// Sum of all five categories — equals the execution horizon.
    pub fn total(&self) -> Time {
        self.compute
            + self.exposed_comm
            + self.exposed_remote_mem
            + self.exposed_local_mem
            + self.exposed_idle
    }

    /// Fraction of the horizon spent in exposed communication.
    pub fn comm_fraction(&self) -> f64 {
        if self.total() == Time::ZERO {
            return 0.0;
        }
        self.exposed_comm.as_us_f64() / self.total().as_us_f64()
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compute {} | comm {} | remote {} | local {} | idle {}",
            self.compute,
            self.exposed_comm,
            self.exposed_remote_mem,
            self.exposed_local_mem,
            self.exposed_idle
        )
    }
}

/// Hit/miss counters of the memo layers consulted while producing a
/// report, one pair per cache.
///
/// The `delay` and `lowering` pairs count the engine's **per-run** memos
/// (the analytical backend's `(src, dst, size)` delay table and the
/// lowered-collective-program memo). They are deterministic functions of
/// the trace, topology, and configuration: warm state only changes *how*
/// a local miss is filled (shared table vs recompute), never whether it
/// is a miss — so a warm run's report is bit-identical to a cold run's.
///
/// The `trace` and `result` pairs belong to **batch-level** caches
/// (generated-trace and whole-report memoization in `astra serve`); they
/// stay zero in reports produced by [`crate::simulate`] and are filled
/// only in batch summaries, never in per-request reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Analytical `(src, dst, size)` delay-memo hits.
    pub delay_hits: u64,
    /// Analytical `(src, dst, size)` delay-memo misses (closed-form
    /// evaluations).
    pub delay_misses: u64,
    /// Lowered-collective-program memo hits (`CollectiveMode::Backend`).
    pub lowering_hits: u64,
    /// Lowered-collective-program memo misses (full lowerings).
    pub lowering_misses: u64,
    /// Generated-trace cache hits (batch service only).
    pub trace_hits: u64,
    /// Generated-trace cache misses (batch service only).
    pub trace_misses: u64,
    /// Whole-report result-cache hits (batch service only).
    pub result_hits: u64,
    /// Whole-report result-cache misses (batch service only).
    pub result_misses: u64,
}

impl CacheStats {
    /// Total hits across all four caches.
    pub fn total_hits(&self) -> u64 {
        self.delay_hits + self.lowering_hits + self.trace_hits + self.result_hits
    }

    /// Total misses across all four caches.
    pub fn total_misses(&self) -> u64 {
        self.delay_misses + self.lowering_misses + self.trace_misses + self.result_misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delay {}/{} | lowering {}/{} | trace {}/{} | result {}/{}",
            self.delay_hits,
            self.delay_hits + self.delay_misses,
            self.lowering_hits,
            self.lowering_hits + self.lowering_misses,
            self.trace_hits,
            self.trace_hits + self.trace_misses,
            self.result_hits,
            self.result_hits + self.result_misses
        )
    }
}

/// Attribution of one injected fault's impact on the run (see
/// `astra_topology::faults`). Deterministic: identical warm vs cold and
/// across worker counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultImpact {
    /// Index of the fault event in the schedule.
    pub event: usize,
    /// Human-readable fault label (e.g. `link_down 0->1`).
    pub kind: String,
    /// Entities affected: links killed/degraded for fabric faults,
    /// compute operations stretched for NPU slowdowns.
    pub affected: u64,
    /// Simulated time attributed to the fault: exact added compute time
    /// for NPU slowdowns; for fabric faults, the closed-form collective
    /// slowdown attributed to the dimension's first touching event (p2p
    /// rerouting/serialization costs surface in the total, not here).
    pub extra_time: Time,
}

/// Result of simulating an execution trace on a platform.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// End-to-end execution time (max NPU finish time).
    pub total_time: Time,
    /// Mean per-NPU exposed-time breakdown (the categories sum to
    /// `total_time`).
    pub breakdown: Breakdown,
    /// Finish time of each NPU.
    pub per_npu_finish: Vec<Time>,
    /// Number of collective instances executed.
    pub collectives: u64,
    /// Chunk-level send/recv ops issued for backend-executed collectives
    /// (`CollectiveMode::Backend`); zero under the closed-form analytical
    /// collective path.
    pub collective_ops: u64,
    /// Number of peer-to-peer messages delivered.
    pub p2p_messages: u64,
    /// Network-backend work counters for the p2p path: backend setups
    /// (1 under the async NetworkAPI, one per message under the blocking
    /// reference), internal events, and the analytical backend's
    /// `(src, dst, size)` delay-memo hits.
    pub network: NetworkStats,
    /// Per-cache hit/miss counters (see [`CacheStats`]); deterministic,
    /// so warm and cold runs report identical values.
    pub cache: CacheStats,
    /// Per-fault impact attribution, one entry per schedule event; empty
    /// for fault-free runs (the overwhelmingly common case).
    pub faults: Vec<FaultImpact>,
    /// Derived telemetry metrics (per-link utilization, per-NPU timeline
    /// stats, finish/duration percentiles). `None` unless the run was
    /// traced ([`crate::simulate_traced`] with
    /// `SystemConfig::telemetry = true`) — plain runs are bit-identical
    /// to pre-telemetry reports.
    pub metrics: Option<MetricsReport>,
}

impl SimReport {
    /// The earliest NPU finish time — the spread against
    /// [`SimReport::total_time`] indicates load imbalance (e.g. pipeline
    /// bubbles). [`Time::ZERO`] when the report covers no NPUs, so the
    /// spread degenerates to zero instead of underflowing to a
    /// `Time::MAX` sentinel.
    pub fn min_finish(&self) -> Time {
        if self.per_npu_finish.is_empty() {
            return Time::ZERO;
        }
        self.per_npu_finish
            .iter()
            .copied()
            .fold(Time::MAX, Time::min)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} [{}] ({} collectives, {} p2p)",
            self.total_time, self.breakdown, self.collectives, self.p2p_messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_categories() {
        let b = Breakdown {
            compute: Time::from_us(10),
            exposed_comm: Time::from_us(5),
            exposed_remote_mem: Time::from_us(3),
            exposed_local_mem: Time::from_us(2),
            exposed_idle: Time::from_us(1),
        };
        assert_eq!(b.total(), Time::from_us(21));
        assert!((b.comm_fraction() - 5.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_comm_fraction() {
        assert_eq!(Breakdown::default().comm_fraction(), 0.0);
    }

    #[test]
    fn cache_stats_totals_and_display() {
        let c = CacheStats {
            delay_hits: 3,
            delay_misses: 1,
            lowering_hits: 2,
            lowering_misses: 2,
            trace_hits: 1,
            trace_misses: 1,
            result_hits: 5,
            result_misses: 1,
        };
        assert_eq!(c.total_hits(), 11);
        assert_eq!(c.total_misses(), 5);
        let text = c.to_string();
        for word in ["delay 3/4", "lowering 2/4", "trace 1/2", "result 5/6"] {
            assert!(text.contains(word), "{text} missing {word}");
        }
    }

    #[test]
    fn min_finish_of_empty_report_is_zero() {
        let empty = SimReport {
            total_time: Time::ZERO,
            breakdown: Breakdown::default(),
            per_npu_finish: Vec::new(),
            collectives: 0,
            collective_ops: 0,
            p2p_messages: 0,
            network: NetworkStats::default(),
            cache: CacheStats::default(),
            faults: Vec::new(),
            metrics: None,
        };
        assert_eq!(empty.min_finish(), Time::ZERO);
        let populated = SimReport {
            per_npu_finish: vec![Time::from_us(7), Time::from_us(3)],
            ..empty
        };
        assert_eq!(populated.min_finish(), Time::from_us(3));
    }

    #[test]
    fn display_mentions_all_categories() {
        let text = Breakdown::default().to_string();
        for word in ["compute", "comm", "remote", "local", "idle"] {
            assert!(text.contains(word), "{text} missing {word}");
        }
    }
}
