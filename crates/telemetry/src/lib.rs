//! Deterministic simulated-time telemetry for the ASTRA-sim 2.0 reproduction.
//!
//! The paper's headline artifacts are time-attribution plots (Fig. 9/11
//! breakdowns, link-level congestion effects); this crate is the data plane
//! underneath them. The engine and the network backends feed a
//! [`TraceSink`] with **simulated-time** spans and markers; the assembled
//! [`SimTrace`] can be exported as a Chrome/Perfetto trace-event JSON
//! ([`chrome_trace`]) or as newline-delimited JSON records
//! ([`jsonl_trace`]), and reduced to a [`MetricsReport`] of per-link and
//! per-NPU statistics.
//!
//! Everything here is a pure function of the recorded events, which are in
//! turn pure functions of the simulation config: trace bytes and metrics
//! are bit-identical across thread counts, and recording is strictly
//! opt-in — with no sink installed the simulator's behavior and reports
//! are byte-identical to a build without this crate.

use std::fmt;
use std::str::FromStr;

use astra_des::{DataSize, RecordedReservation, Time};

mod export;
mod metrics;

pub use export::{chrome_trace, jsonl_trace};
pub use metrics::{LinkMetrics, MetricsReport, NpuMetrics, PercentileSummary};

/// Names of the five exclusive per-NPU timeline categories, in attribution
/// priority order (matching the engine's `Breakdown` fields).
pub const NPU_CATEGORIES: [&str; 5] = [
    "compute",
    "exposed_comm",
    "exposed_remote_mem",
    "exposed_local_mem",
    "idle",
];

/// On-disk trace encoding selected by `astra --trace-format`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (open in `chrome://tracing` or Perfetto).
    #[default]
    Chrome,
    /// One JSON record per line (for ad-hoc scripting).
    Jsonl,
}

impl TraceFormat {
    /// Both formats, for tests and sweeps.
    pub const ALL: [TraceFormat; 2] = [TraceFormat::Chrome, TraceFormat::Jsonl];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Chrome => "chrome",
            TraceFormat::Jsonl => "jsonl",
        }
    }

    /// Renders `trace` in this format.
    pub fn render(self, trace: &SimTrace) -> String {
        match self {
            TraceFormat::Chrome => chrome_trace(trace),
            TraceFormat::Jsonl => jsonl_trace(trace),
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TraceFormat {
    type Err = String;

    /// Accepts `chrome` and `jsonl`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "chrome" => Ok(TraceFormat::Chrome),
            "jsonl" => Ok(TraceFormat::Jsonl),
            other => Err(format!(
                "unknown trace format `{other}` (expected `chrome` or `jsonl`)"
            )),
        }
    }
}

/// One NPU's exclusive timeline: five span lists (one per
/// [`NPU_CATEGORIES`] entry, same order), coalesced and non-overlapping;
/// together they tile `[0, horizon)` exactly as the `Breakdown`
/// attribution does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NpuTimeline {
    /// `spans[c]` holds the `(start, end)` segments attributed to category
    /// `c` of [`NPU_CATEGORIES`].
    pub spans: [Vec<(Time, Time)>; 5],
}

/// One collective's span, from rendezvous to the last participant resuming.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CollectiveSpan {
    /// Launch-order instance id, unique within a run.
    pub id: u64,
    /// Communicator group the collective ran on.
    pub group: u32,
    /// Rendezvous instant (last participant arrived).
    pub start: Time,
    /// Completion instant.
    pub finish: Time,
}

/// One backend-executed chunk op's span (`CollectiveMode::Backend` only).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChunkOpSpan {
    /// [`CollectiveSpan::id`] of the owning collective.
    pub coll: u64,
    /// Op id within the lowered program (`chunk × phases + phase`).
    pub op: u64,
    /// Source NPU of the op's wire transfer.
    pub src: usize,
    /// Destination NPU of the op's wire transfer.
    pub dst: usize,
    /// Payload size.
    pub size: DataSize,
    /// When the op's dependencies were satisfied.
    pub ready: Time,
    /// When the op (wire plus reduction latency) completed.
    pub finish: Time,
}

/// A dependency edge between two chunk ops of one collective.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// [`CollectiveSpan::id`] of the owning collective.
    pub coll: u64,
    /// Predecessor op id.
    pub from: u64,
    /// Dependent op id.
    pub to: u64,
    /// Instant the predecessor completed (edge activation time).
    pub at: Time,
}

/// Busy intervals recorded on one network link, in grant order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkTrace {
    /// Backend-assigned link index (stable for a given topology).
    pub link: usize,
    /// Granted intervals with their queue-entry times.
    pub reservations: Vec<RecordedReservation>,
}

/// An instant marker (fault event, budget trip).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Marker {
    /// Simulated instant of the event.
    pub at: Time,
    /// Stable label, e.g. `fault:link_down` or `budget_exceeded`.
    pub label: String,
}

/// The engine-facing recorder. Holding `Option<TraceSink>` (`None` when
/// telemetry is off) keeps the disabled path to a single branch per
/// record site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSink {
    /// Collective spans, in completion-record order.
    pub collectives: Vec<CollectiveSpan>,
    /// Chunk-op spans, in completion order.
    pub chunk_ops: Vec<ChunkOpSpan>,
    /// Chunk-op dependency edges, in activation order.
    pub dep_edges: Vec<DepEdge>,
    /// Instant markers, in record order.
    pub markers: Vec<Marker>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A fully assembled simulation trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimTrace {
    /// Number of NPUs in the run.
    pub npus: usize,
    /// Attribution horizon (the run's total simulated time).
    pub horizon: Time,
    /// One exclusive timeline per NPU.
    pub npu_timelines: Vec<NpuTimeline>,
    /// Collective spans sorted by instance id.
    pub collectives: Vec<CollectiveSpan>,
    /// Chunk-op spans sorted by (collective, op).
    pub chunk_ops: Vec<ChunkOpSpan>,
    /// Dependency edges sorted by (collective, from, to).
    pub dep_edges: Vec<DepEdge>,
    /// Per-link busy intervals, sorted by link index.
    pub links: Vec<LinkTrace>,
    /// Instant markers sorted by (time, label).
    pub markers: Vec<Marker>,
}

impl SimTrace {
    /// Canonicalizes record order so the trace is a pure function of its
    /// *contents* regardless of record interleaving: sorts collectives by
    /// id, chunk ops by (collective, op), edges by (collective, from, to),
    /// links by index, markers by (time, label).
    pub fn canonicalize(&mut self) {
        self.collectives.sort_unstable_by_key(|c| c.id);
        self.chunk_ops.sort_unstable_by_key(|c| (c.coll, c.op));
        self.dep_edges
            .sort_unstable_by_key(|e| (e.coll, e.from, e.to));
        self.links.sort_unstable_by_key(|l| l.link);
        self.markers
            .sort_by(|a, b| (a.at, &a.label).cmp(&(b.at, &b.label)));
    }

    /// Queue-depth samples for one link: at every grant boundary, how many
    /// requests were queued or in service (`ready <= t < end`). Returns
    /// `(t, depth)` steps in time order with consecutive duplicates
    /// removed.
    pub fn queue_depth_steps(link: &LinkTrace) -> Vec<(Time, u64)> {
        let mut deltas: Vec<(Time, i64)> = Vec::with_capacity(link.reservations.len() * 2);
        for r in &link.reservations {
            deltas.push((r.ready, 1));
            deltas.push((r.end, -1));
        }
        deltas.sort_unstable();
        let mut steps: Vec<(Time, u64)> = Vec::new();
        let mut depth: i64 = 0;
        for (t, d) in deltas {
            depth += d;
            match steps.last_mut() {
                Some(last) if last.0 == t => last.1 = depth as u64,
                _ => steps.push((t, depth as u64)),
            }
        }
        steps.dedup_by(|b, a| a.1 == b.1);
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_format_roundtrip_and_errors() {
        for f in TraceFormat::ALL {
            assert_eq!(f.name().parse::<TraceFormat>(), Ok(f));
            assert_eq!(f.to_string(), f.name());
        }
        assert!("perfetto".parse::<TraceFormat>().is_err());
    }

    #[test]
    fn queue_depth_steps_count_overlapping_reservations() {
        let link = LinkTrace {
            link: 0,
            reservations: vec![
                RecordedReservation {
                    ready: Time::from_us(0),
                    start: Time::from_us(0),
                    end: Time::from_us(4),
                },
                RecordedReservation {
                    ready: Time::from_us(1),
                    start: Time::from_us(4),
                    end: Time::from_us(6),
                },
                RecordedReservation {
                    ready: Time::from_us(1),
                    start: Time::from_us(6),
                    end: Time::from_us(8),
                },
            ],
        };
        let steps = SimTrace::queue_depth_steps(&link);
        assert_eq!(
            steps,
            vec![
                (Time::from_us(0), 1),
                (Time::from_us(1), 3),
                (Time::from_us(4), 2),
                (Time::from_us(6), 1),
                (Time::from_us(8), 0),
            ]
        );
    }

    #[test]
    fn canonicalize_sorts_every_section() {
        let mut trace = SimTrace {
            npus: 1,
            horizon: Time::from_us(10),
            collectives: vec![
                CollectiveSpan {
                    id: 1,
                    group: 0,
                    start: Time::ZERO,
                    finish: Time::from_us(2),
                },
                CollectiveSpan {
                    id: 0,
                    group: 0,
                    start: Time::ZERO,
                    finish: Time::from_us(1),
                },
            ],
            markers: vec![
                Marker {
                    at: Time::from_us(5),
                    label: "b".into(),
                },
                Marker {
                    at: Time::from_us(5),
                    label: "a".into(),
                },
            ],
            ..SimTrace::default()
        };
        trace.canonicalize();
        assert_eq!(trace.collectives[0].id, 0);
        assert_eq!(trace.markers[0].label, "a");
    }
}
