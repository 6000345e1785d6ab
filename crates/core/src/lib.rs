//! ASTRA-sim 2.0 reproduction — top-level simulation API.
//!
//! This crate ties the full stack together (Fig. 1): the workload layer
//! (execution traces, [`astra_workload`]), the system layer (graph engine,
//! collective scheduling, [`astra_system`]), the network layer (analytical
//! backend over hierarchical topologies, [`astra_network`] /
//! [`astra_topology`]) and the memory models ([`astra_memory`]).
//!
//! # Quickstart
//!
//! ```
//! use astra_core::{Parallelism, SimulationBuilder};
//!
//! // Simulate one GPT-3 training iteration on a DGX-A100-style platform.
//! let report = SimulationBuilder::new()
//!     .notation("R(4)@250_SW(4)@50")?
//!     .workload(astra_core::models::gpt3_175b(), Parallelism::Hybrid { mp: 4 })
//!     .themis(true)
//!     .run()?;
//! assert!(report.total_time > astra_core::Time::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The [`experiments`] module holds ready-made configurations for every
//! case study in the paper's evaluation (§V); the `astra-bench` crate's
//! binaries drive them to regenerate each table and figure.

mod builder;
pub mod experiments;

pub use builder::{BuildError, SimulationBuilder};

// Re-export the layered API at the top level.
pub use astra_collectives::{
    dimension_traffic, lowering, Algorithm, ChunkOp, Collective, CollectiveEngine, CollectiveMode,
    CollectiveOutcome, CollectiveProgram, SchedulerPolicy,
};
pub use astra_collectives::{LoweringKey, SharedLoweringCache, SharedProgram};
pub use astra_des::{Bandwidth, DataSize, SimMode, Time};
pub use astra_memory::{
    AccessKind, HierPool, HierPoolConfig, LocalMemory, MeshPool, MultiLevelSwitchPool,
    PoolArchitecture, RemoteMemory, RingPool, TransferMode, ZeroInfinity,
};
pub use astra_network::{
    AnalyticalConfig, AnalyticalNetwork, AsyncMessageId, Completion, FlowId, FlowNetwork,
    NetworkBackend, NetworkBackendKind, NetworkStats, SharedDelayMemo, SharedRouteTable,
};
pub use astra_system::{
    simulate, simulate_traced, simulate_traced_with, simulate_with, Breakdown, CacheStats,
    FaultImpact, SimError, SimReport, SystemConfig, WarmState,
};
pub use astra_system::{
    ChunkOpSpan, CollectiveSpan, DepEdge, LinkMetrics, LinkTrace, Marker, MetricsReport,
    NpuMetrics, NpuTimeline, PercentileSummary, SimTrace, TraceFormat,
};
pub use astra_topology::{
    BuildingBlock, Dimension, FaultError, FaultEvent, FaultKind, FaultSchedule, LinkGraph, NpuId,
    ParseTopologyError, Topology,
};
pub use astra_workload::SharedTraceCache;
pub use astra_workload::{
    EtNode, EtOp, ExecutionTrace, JsonEtConverter, Model, Parallelism, Roofline, TraceBuilder,
    TraceConverter,
};

/// Workload presets (paper Table III + the §V-B MoE model).
pub mod models {
    pub use astra_workload::models::{dlrm_57m, gpt3_175b, moe_1t, transformer_1t};
}

/// Topology presets (paper Fig. 3c and Table II).
pub mod topologies {
    pub use astra_topology::presets::*;
}

/// Memory-system presets (paper Table V).
pub mod memory_presets {
    pub use astra_memory::presets::*;
}
