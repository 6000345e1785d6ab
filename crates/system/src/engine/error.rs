//! The errors of a simulation run.

use std::error::Error;
use std::fmt;

use astra_des::Time;
use astra_topology::{FaultError, NpuId};

/// Errors detected while setting up or running a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Trace and topology disagree on the NPU count.
    NpuCountMismatch {
        /// NPUs in the trace.
        trace: usize,
        /// NPUs in the topology.
        topology: usize,
    },
    /// The trace accesses remote memory but no pool is configured.
    RemoteMemoryUnconfigured,
    /// A communicator group is not a sub-grid of the topology's dimension
    /// grid: it is empty, lists a member twice or names an NPU the
    /// topology does not have, or its members do not span whole
    /// coordinate lines. Also returned when a collective names a group
    /// the trace does not define, or is issued by an NPU outside its
    /// group (only `ExecutionTrace::from_json` traces can carry either;
    /// `TraceBuilder::build` rejects both).
    UnalignedGroup {
        /// Index of the offending group.
        group: usize,
    },
    /// [`CollectiveMode::Backend`] was passed to the blocking-p2p oracle
    /// ([`simulate_blocking_reference`](crate::simulate_blocking_reference)):
    /// its probe backend measures every message alone on a fresh
    /// sub-simulation, while a backend-executed collective's chunk ops
    /// must share one co-resident backend.
    ///
    /// [`CollectiveMode::Backend`]: astra_collectives::CollectiveMode::Backend
    BackendCollectivesNeedAsyncP2p,
    /// [`CollectiveMode::Backend`] was combined with
    /// [`SchedulerPolicy::Themis`]: backend execution lowers the baseline
    /// ascending dimension order; the Themis planner only reorders the
    /// analytical fast path.
    ///
    /// [`CollectiveMode::Backend`]: astra_collectives::CollectiveMode::Backend
    /// [`SchedulerPolicy::Themis`]: astra_collectives::SchedulerPolicy::Themis
    BackendCollectivesNeedBaselineScheduler,
    /// The fault schedule references entities the topology does not have,
    /// or carries out-of-range degradation factors.
    InvalidFaults(FaultError),
    /// The fault schedule disconnects the fabric: no live route exists
    /// between the named NPU pair, so traffic between them can never be
    /// delivered.
    Unreachable {
        /// One endpoint of a disconnected pair.
        src: NpuId,
        /// The other endpoint.
        dst: NpuId,
    },
    /// A configured budget ([`SystemConfig::max_events`] /
    /// [`SystemConfig::max_sim_time`]) was exhausted before the trace
    /// finished. Deterministic: the same run exceeds its budget at the
    /// same point regardless of warm state, and on the packet backend the
    /// error is the per-packet run's.
    ///
    /// [`SystemConfig::max_events`]: crate::SystemConfig::max_events
    /// [`SystemConfig::max_sim_time`]: crate::SystemConfig::max_sim_time
    BudgetExceeded {
        /// Events processed (engine plus network backends) when the
        /// budget tripped.
        events: u64,
        /// Engine clock when the budget tripped.
        sim_time: Time,
    },
    /// The event queue drained before every graph node completed: some
    /// node waits forever, typically on a collective whose group members
    /// never all arrive, or on a send/recv partner that never issues.
    /// Names the lowest `(npu, node)` that never completed.
    Stalled {
        /// NPU owning the stuck node.
        npu: NpuId,
        /// Index of the stuck node in that NPU's program.
        node: u32,
    },
    /// The members of one communicator group met at a collective but did
    /// not all issue the same collective of the same size: the trace pairs
    /// the instances up wrong. Names the group.
    MismatchedCollective {
        /// Index of the group in the trace.
        group: usize,
    },
    /// An internal engine invariant was violated. This is a bug in the
    /// engine itself, never in the caller's trace or configuration; the
    /// message names the broken invariant.
    Internal(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NpuCountMismatch { trace, topology } => write!(
                f,
                "trace targets {trace} NPUs but the topology has {topology}"
            ),
            SimError::RemoteMemoryUnconfigured => {
                write!(f, "trace uses remote memory but no pool is configured")
            }
            SimError::UnalignedGroup { group } => write!(
                f,
                "communicator group {group} is not aligned to the topology dimension grid"
            ),
            SimError::BackendCollectivesNeedAsyncP2p => {
                write!(f, "backend collective execution needs the async NetworkAPI")
            }
            SimError::BackendCollectivesNeedBaselineScheduler => write!(
                f,
                "backend collective execution lowers the baseline dimension order; \
                 the Themis scheduler only applies to analytical collectives"
            ),
            SimError::InvalidFaults(err) => write!(f, "invalid fault schedule: {err}"),
            SimError::Unreachable { src, dst } => write!(
                f,
                "fault schedule disconnects the fabric: no route from NPU {src} to NPU {dst}"
            ),
            SimError::BudgetExceeded { events, sim_time } => {
                write!(f, "budget exceeded after {events} events at {sim_time}")
            }
            SimError::Stalled { npu, node } => write!(
                f,
                "simulation stalled: node {node} of NPU {npu} never completed"
            ),
            SimError::MismatchedCollective { group } => write!(
                f,
                "the members of communicator group {group} issued different collectives \
                 at one meeting"
            ),
            SimError::Internal(what) => {
                write!(f, "internal engine invariant violated: {what}")
            }
        }
    }
}

impl Error for SimError {}
