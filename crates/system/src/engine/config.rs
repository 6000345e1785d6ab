//! The run's configuration and its cross-run warm state.

use std::sync::Arc;

use astra_collectives::{CollectiveMode, SchedulerPolicy};
use astra_des::Time;
use astra_memory::{LocalMemory, PoolArchitecture};
use astra_network::{NetworkBackendKind, SharedDelayMemo, SharedRouteTable};
use astra_topology::FaultSchedule;
use astra_workload::Roofline;

#[cfg(doc)]
use super::{simulate, simulate_traced, simulate_with, SimError};
#[cfg(doc)]
use crate::SimReport;
#[cfg(doc)]
use astra_telemetry::SimTrace;

/// System-layer configuration (Fig. 1c "System Parameters").
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Pipeline chunks per collective (§IV-B chunked multi-rail execution).
    pub collective_chunks: u64,
    /// Collective scheduling policy (baseline or Themis, §V-A.1).
    pub scheduler: SchedulerPolicy,
    /// NPU compute model (§V: 234 TFLOPS A100 by default).
    pub roofline: Roofline,
    /// Local HBM model (§IV-D.1).
    pub local_memory: LocalMemory,
    /// Disaggregated remote pool (§IV-D.2), if the platform has one.
    pub remote_memory: Option<PoolArchitecture>,
    /// Network backend carrying point-to-point messages (pipeline
    /// sends/receives and any other `NetworkAPI` traffic) and, with
    /// [`CollectiveMode::Backend`], collective chunk ops: `analytical`
    /// (closed form, default), `packet` (the store-and-forward DES at
    /// 64 KiB granularity), or `flow` (max-min fluid sharing).
    ///
    /// `packet` always reports the per-packet answer: it runs on train
    /// transport (`O(hops)` events per message) and reruns per-packet when
    /// that run was inexact or tripped a budget.
    ///
    /// Through the async NetworkAPI the engine keeps one backend instance
    /// co-resident with its own event loop, so engine-time-concurrent
    /// messages contend inside the `packet` / `flow` backends as any
    /// messages sent through `NetworkBackend::send_async` do.
    pub network_backend: NetworkBackendKind,
    /// How collectives execute: [`CollectiveMode::Analytical`] (the frozen
    /// closed-form fast path, the default) or [`CollectiveMode::Backend`]
    /// (each collective is lowered to a chunk-level send/recv program —
    /// `astra_collectives::lowering` — and executed on the co-resident
    /// network backend, where its chunk ops contend with concurrent p2p
    /// messages and other collectives on one shared clock).
    ///
    /// Backend execution always lowers the baseline ascending dimension
    /// order (the Themis planner only applies to the analytical fast
    /// path); `simulate` rejects the Themis combination.
    pub collective_mode: CollectiveMode,
    /// Deterministic fault schedule applied to the run (see
    /// [`FaultSchedule`]). Empty by default; an empty schedule leaves
    /// every backend bit-identical to the frozen fault-free references.
    pub faults: FaultSchedule,
    /// Deterministic event budget: the run fails with
    /// [`SimError::BudgetExceeded`] once the engine plus network backends
    /// have processed more than this many events. `None` (default) means
    /// unlimited.
    pub max_events: Option<u64>,
    /// Deterministic simulated-time budget: the run fails with
    /// [`SimError::BudgetExceeded`] once the engine clock passes this
    /// horizon. `None` (default) means unlimited.
    pub max_sim_time: Option<Time>,
    /// Records a simulated-time telemetry trace (NPU timelines, collective
    /// and chunk-op spans, link grants) consumed by [`simulate_traced`].
    /// `false` (default) keeps every recording site compiled out of the
    /// hot path behind a single branch; the [`SimReport`] is bit-identical
    /// either way — only [`SimReport::metrics`] (traced runs) and the
    /// returned [`SimTrace`] differ.
    pub telemetry: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            collective_chunks: 128,
            scheduler: SchedulerPolicy::Baseline,
            roofline: Roofline::a100(),
            local_memory: LocalMemory::default(),
            remote_memory: None,
            network_backend: NetworkBackendKind::default(),
            collective_mode: CollectiveMode::default(),
            faults: FaultSchedule::new(),
            max_events: None,
            max_sim_time: None,
            telemetry: false,
        }
    }
}

/// Cross-run warm state: shareable memo handles a batch service threads
/// through many simulation runs. Every handle is optional — a default
/// (fully cold) `WarmState` makes [`simulate_with`] behave exactly like
/// [`simulate`].
///
/// Determinism contract: warm handles are consulted **only on local-memo
/// misses** and hold pure functions of their keys, so a warm run produces
/// a `SimReport` (counters included) bit-identical to a cold run's.
#[derive(Clone, Debug, Default)]
pub struct WarmState {
    /// Cross-run `(src, dst, size)` analytical delay memo; used by the
    /// co-resident analytical backend.
    pub delay_memo: Option<Arc<SharedDelayMemo>>,
    /// Cross-run route table; used by the co-resident fluid backend.
    pub routes: Option<Arc<SharedRouteTable>>,
}
