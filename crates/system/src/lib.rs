//! System layer: the graph-based execution engine (§II-C, §IV-A, Fig. 1c).
//!
//! The system layer consumes an execution trace (one DAG per NPU), issues
//! node operations onto resources, and manages compute–communication
//! overlap:
//!
//! * Every NPU owns a compute stream, a local-memory port and a
//!   remote-memory lane (serial [`FifoResource`]s).
//! * Communication dimensions are *lanes* keyed by
//!   `(group representative, dimension)`: sibling groups (e.g. the 32
//!   model-parallel groups of a 512-NPU system) proceed in parallel on
//!   their own links while back-to-back collectives on the same group
//!   contend realistically.
//! * Collectives rendezvous: an instance starts when every member has
//!   reached it, and runs through the chunked multi-rail
//!   [`CollectiveEngine`] over exactly the topology dimensions its group
//!   spans — the mechanism behind the paper's hybrid-parallelism results
//!   (an MP group only enjoys the bandwidth of the dimensions it covers).
//! * Peer-to-peer sends/receives pair up by `(src, dst, tag)` for pipeline
//!   parallelism.
//!
//! The simulation produces a [`SimReport`] with the paper's five-way
//! exposed-time breakdown (compute > comm > remote memory > local memory >
//! idle), the quantity plotted in Fig. 9 and Fig. 11.
//!
//! [`FifoResource`]: astra_des::FifoResource
//! [`CollectiveEngine`]: astra_collectives::CollectiveEngine

mod engine;
mod report;

pub use engine::{
    simulate, simulate_blocking_reference, simulate_traced, simulate_traced_with, simulate_with,
    SimError, SystemConfig, WarmState,
};
pub use report::{Breakdown, CacheStats, FaultImpact, SimReport};

// Re-exported so traced runs (`SystemConfig.telemetry` +
// `simulate_traced`) can be consumed and rendered without a direct
// `astra_telemetry` dependency.
pub use astra_telemetry::{
    ChunkOpSpan, CollectiveSpan, DepEdge, LinkMetrics, LinkTrace, Marker, MetricsReport,
    NpuMetrics, NpuTimeline, PercentileSummary, SimTrace, TraceFormat,
};

// Re-exported so `SystemConfig.network_backend` can be set (and
// `SimReport.network` read) without a direct `astra_network` dependency.
pub use astra_network::{NetworkBackendKind, NetworkStats, SharedDelayMemo, SharedRouteTable};

// Re-exported so fault schedules (`SystemConfig.faults`) can be built
// without a direct `astra_topology` dependency.
pub use astra_topology::{FaultError, FaultEvent, FaultKind, FaultSchedule};
