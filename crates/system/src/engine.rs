//! The graph execution engine.

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use astra_collectives::{
    lowering, Collective, CollectiveEngine, CollectiveMode, CollectiveProgram, LoweringKey,
    SchedulerPolicy, SharedLoweringCache,
};
use astra_des::{
    attribute_exclusive, attribute_exclusive_intervals, DataSize, EventQueue, FifoResource,
    IntervalLog, SimMode, Time,
};
use astra_garnet::{PacketNetwork, PacketSimConfig, TransportMode};
use astra_memory::{LocalMemory, PoolArchitecture, RemoteMemory, TransferMode};
use astra_network::{
    AnalyticalNetwork, AsyncMessageId, Completion, FlowNetwork, NetworkBackend, NetworkBackendKind,
    NetworkStats, SharedDelayMemo, SharedRouteTable,
};
use astra_telemetry::{
    ChunkOpSpan, CollectiveSpan, DepEdge, Marker, MetricsReport, NpuTimeline, SimTrace, TraceSink,
};
use astra_topology::{
    BuildingBlock, Dimension, FaultError, FaultKind, FaultSchedule, FaultedGraph, LinkGraph,
    NodeId, NodeKind, NpuId, Topology,
};
use astra_workload::{EtNode, EtOp, ExecutionTrace, Roofline, TensorLocation};

use crate::report::FaultImpact;
use crate::{Breakdown, CacheStats, SimReport};

/// A memoized lowered program plus its reverse dependency adjacency.
type MemoizedProgram = (Arc<CollectiveProgram>, Arc<Vec<Vec<u32>>>);

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
    /// sends/receives and any other `NetworkAPI` traffic). Collectives are
    /// modeled by the collective engine's multi-rail closed forms in every
    /// mode — the backend choice governs the `sim_send`-style p2p path:
    /// `analytical` (closed form, default), `packet` / `batched` (the
    /// store-and-forward DES at 64 KiB granularity, per-packet or
    /// train-batched events), or `flow` (max-min fluid sharing).
    ///
    /// Through the async NetworkAPI the engine keeps one backend instance
    /// co-resident with its own event loop, so engine-time-concurrent
    /// messages contend inside the `packet` / `batched` / `flow` backends
    /// exactly as when driving them directly via `send_at` / `inject_at`.
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
    /// Execution core of the packet-level backends (see [`SimMode`]).
    /// [`SimMode::Parallel`] partitions the packet network's links into
    /// domains advanced by worker threads in conservative-lookahead
    /// windows; results stay bit-identical across thread counts. The
    /// analytical and flow backends ignore this (they are closed-form /
    /// rate-based, not event-partitioned).
    pub sim_mode: SimMode,
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
            sim_mode: SimMode::default(),
            faults: FaultSchedule::new(),
            max_events: None,
            max_sim_time: None,
            telemetry: false,
        }
    }
}

/// Instantiates the configured [`NetworkBackend`] for a topology, with the
/// fault schedule's fabric faults applied: dead links removed from routing,
/// degraded link properties folded into every delay/rate computation. A
/// schedule without fabric faults builds the pristine backend, attached to
/// the `warm` handles where the backend takes one.
pub(crate) fn build_network(
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
) -> Box<dyn NetworkBackend> {
    let schedule = &config.faults;
    // Warm delay/route tables are computed on the pristine fabric; a
    // degraded run must not consult them. Build cold instead.
    let pristine = !schedule.has_fabric_faults();
    let packet = |transport| {
        PacketSimConfig::fast()
            .with_transport(transport)
            .with_sim_mode(config.sim_mode)
    };
    let checked = |r: Result<Box<dyn NetworkBackend>, FaultError>| {
        // astra-lint: allow(panic, simulate_with validates fault schedules before any backend is built)
        r.expect("fault schedule validated before backend construction")
    };
    match config.network_backend {
        NetworkBackendKind::Analytical => match warm.delay_memo.as_ref().filter(|_| pristine) {
            Some(memo) => Box::new(AnalyticalNetwork::with_shared_memo(
                topo.clone(),
                Arc::clone(memo),
            )),
            None => checked(
                AnalyticalNetwork::with_faults(topo.clone(), schedule)
                    .map(|n| Box::new(n) as Box<dyn NetworkBackend>),
            ),
        },
        NetworkBackendKind::Packet => checked(
            PacketNetwork::with_faults(topo, packet(TransportMode::PerPacket), schedule)
                .map(|n| Box::new(n) as Box<dyn NetworkBackend>),
        ),
        NetworkBackendKind::Batched => checked(
            PacketNetwork::with_faults(topo, packet(TransportMode::Batched), schedule)
                .map(|n| Box::new(n) as Box<dyn NetworkBackend>),
        ),
        NetworkBackendKind::Flow => match warm.routes.as_ref().filter(|_| pristine) {
            Some(routes) => Box::new(FlowNetwork::with_shared_routes(topo, Arc::clone(routes))),
            None => checked(
                FlowNetwork::with_faults(topo, schedule)
                    .map(|n| Box::new(n) as Box<dyn NetworkBackend>),
            ),
        },
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
    /// Cross-run lowered-collective-program cache, keyed by group shape,
    /// collective, size, and chunk count (`CollectiveMode::Backend`).
    pub lowering: Option<Arc<SharedLoweringCache>>,
    /// Cross-run route table; used by the co-resident fluid backend.
    pub routes: Option<Arc<SharedRouteTable>>,
}

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
    BackendCollectivesNeedAsyncP2p,
    /// [`CollectiveMode::Backend`] was combined with
    /// [`SchedulerPolicy::Themis`]: backend execution lowers the baseline
    /// ascending dimension order; the Themis planner only reorders the
    /// analytical fast path.
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
    /// same point regardless of queue backend, sim mode, or warm state.
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
            SimError::Internal(what) => {
                write!(f, "internal engine invariant violated: {what}")
            }
        }
    }
}

impl Error for SimError {}

/// [`Engine::remaining_deps`] marker of a completed node.
const FINISHED: u32 = u32::MAX;

/// Activity categories, in exposed-time priority order.
const COMPUTE: usize = 0;
const COMM: usize = 1;
const REMOTE: usize = 2;
const LOCAL: usize = 3;

#[derive(Copy, Clone, Debug)]
struct Event {
    npu: NpuId,
    node: u32,
}

#[derive(Copy, Clone, Debug)]
enum EngineEvent {
    /// A graph node finished.
    Node(Event),
    /// This source's NIC lane just freed: inject its next queued p2p
    /// message (async path only).
    InjectP2p(NpuId),
    /// A chunk op's dependencies are all complete at this instant: hand it
    /// to its source NIC lane. Readiness is an engine event (not applied
    /// at completion-drain time) so lane FIFO order always equals ready
    /// order — closed-form backends resolve dependency completions far in
    /// the simulated future, and enqueueing those dependents immediately
    /// would let a not-yet-ready op block the lane head.
    ChunkReady {
        /// Running-collective instance id.
        coll: u32,
        /// Op id within the instance's program.
        op: u32,
    },
}

/// One graph node's arrival at a collective meeting: the NPU, the node,
/// and the instant it arrived.
type Arrival = (NpuId, u32, Time);

/// One stored program's reverse dependency graph in compressed sparse row
/// form: the dependents of node `i` are
/// `targets[offsets[i]..offsets[i + 1]]`, in ascending node order.
struct Dependents {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Dependents {
    /// Builds the reverse graph of one program in two passes: count each
    /// node's dependents, then place them.
    fn new(program: &[EtNode]) -> Self {
        let mut offsets = vec![0u32; program.len() + 1];
        for d in program.iter().flat_map(|node| &node.deps) {
            offsets[d.0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[program.len()] as usize];
        for (idx, node) in program.iter().enumerate() {
            for d in &node.deps {
                let slot = &mut cursor[d.0 as usize];
                targets[*slot as usize] = idx as u32;
                *slot += 1;
            }
        }
        Dependents { offsets, targets }
    }
}

/// The collective rendezvous of one communicator group (see
/// [`Engine::arrive`]).
struct Rendezvous {
    /// Per member rank (its index in the group's sorted member index): the
    /// collective instances that member has issued so far.
    issued: Vec<u64>,
    /// Meetings completed so far; the front open meeting is this instance.
    completed: u64,
    /// Open meetings in instance order, each holding its arrivals in
    /// arrival order.
    open: VecDeque<Vec<Arrival>>,
}

#[derive(Default)]
struct P2pPending {
    send: Option<(u32, Time)>,
    recv: Option<(u32, Time)>,
}

/// A resolved p2p message: either in flight on the async NetworkAPI
/// (waiting for its completion callback to resume the paired send/recv
/// graph nodes) or queued behind the source's NIC lane.
struct InFlightP2p {
    src: NpuId,
    dst: NpuId,
    size: DataSize,
    send_node: u32,
    recv_node: u32,
    send_ready: Time,
    recv_ready: Time,
}

/// One chunk-level op of a backend-executed collective, bound to its
/// representative wire endpoints.
struct ChunkSend {
    /// Running-collective instance id.
    coll: u32,
    /// Op id within the instance's program.
    op: u32,
    src: NpuId,
    dst: NpuId,
    size: DataSize,
    /// When the op's dependencies (including their extra step latency)
    /// completed — the earliest instant it may enter the wire.
    ready: Time,
}

/// A resolved message bound for the source's NIC lane: a peer-to-peer
/// send/recv pair or one chunk op of a backend-executed collective. Both
/// kinds share the lane (and therefore serialize against each other),
/// which is exactly how collective and p2p traffic from one NPU contend.
enum Outbound {
    Peer(InFlightP2p),
    Chunk(ChunkSend),
}

impl Outbound {
    fn src(&self) -> NpuId {
        match self {
            Outbound::Peer(m) => m.src,
            Outbound::Chunk(c) => c.src,
        }
    }

    /// Earliest instant the message may enter the wire.
    fn ready(&self) -> Time {
        match self {
            Outbound::Peer(m) => m.send_ready.max(m.recv_ready),
            Outbound::Chunk(c) => c.ready,
        }
    }

    fn dst_size(&self) -> (NpuId, DataSize) {
        match self {
            Outbound::Peer(m) => (m.dst, m.size),
            Outbound::Chunk(c) => (c.dst, c.size),
        }
    }
}

/// A backend-executed collective in flight: the lowered program plus the
/// executor's dependency counters and the meeting it resumes on finish.
struct RunningCollective {
    arrivals: Vec<Arrival>,
    program: Arc<CollectiveProgram>,
    dependents: Arc<Vec<Vec<u32>>>,
    remaining_deps: Vec<u32>,
    /// Per op: latest dependency completion seen so far — the op's ready
    /// instant once its counter reaches zero.
    ready: Vec<Time>,
    remaining_ops: usize,
    /// Per local dimension: the bound `(src, dst)` wire endpoints.
    endpoints: Vec<(NpuId, NpuId)>,
    /// Running maximum of op completions (incl. extra step latency).
    finish: Time,
    /// Communicator group (for the telemetry span).
    group: u32,
    /// Rendezvous instant the program launched at.
    start: Time,
    /// Run-wide collective sequence number shared with the closed-form
    /// path, keying this instance's telemetry spans and edges.
    trace_id: u64,
}

pub(crate) struct GroupSpan {
    rep: NpuId,
    /// The group's members in ascending order: a member's rank is its
    /// index here, found by binary search. `TraceBuilder` groups are
    /// already sorted; `from_json` groups may not be.
    members: Vec<NpuId>,
    /// Per spanned dimension: the global dimension index, the effective
    /// sub-dimension, and the representative `(src, dst)` wire endpoints
    /// used by backend-executed chunk ops — the two lowest-coordinate
    /// members along the dimension through the representative, so each
    /// dimension's ops serialize on a distinct source NIC lane while
    /// different dimensions (and sibling groups) stream in parallel.
    dims: Vec<(usize, Dimension, (NpuId, NpuId))>,
    /// Aligned with `dims`: when a fault schedule degrades the spanned
    /// dimension, holds the pristine dimension plus the index of the
    /// schedule's first event touching it, for per-fault attribution of
    /// the collective slowdown. `None` entries mean the dimension is
    /// unaffected.
    degraded: Vec<Option<(Dimension, usize)>>,
}

/// Simulates one execution trace on a topology, returning the end-to-end
/// time and the exposed-time breakdown.
///
/// # Errors
///
/// Returns a [`SimError`] when the trace and platform are inconsistent
/// (NPU count mismatch, remote accesses without a configured pool, or a
/// communicator group that does not align with the topology grid), or
/// when the run stalls with graph nodes that can never complete
/// ([`SimError::Stalled`]).
///
/// # Example
///
/// ```
/// use astra_system::{simulate, SystemConfig};
/// use astra_topology::Topology;
/// use astra_workload::{models, parallelism, Parallelism};
///
/// let topo = Topology::parse("R(4)@100_SW(4)@50").unwrap();
/// let trace = parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 16).unwrap();
/// let report = simulate(&trace, &topo, &SystemConfig::default()).unwrap();
/// assert!(report.total_time > astra_des::Time::ZERO);
/// ```
pub fn simulate(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<SimReport, SimError> {
    simulate_with(trace, topo, config, &WarmState::default())
}

/// [`simulate`] with cross-run warm state: shared memo tables are
/// consulted on local-memo misses, skipping recomputation of delays,
/// routes, and lowered collective programs another run already produced.
/// The report is bit-identical to [`simulate`]'s — warm state is a pure
/// speed knob.
///
/// # Errors
///
/// Exactly [`simulate`]'s errors; warm state introduces none.
pub fn simulate_with(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
) -> Result<SimReport, SimError> {
    let (spans, impacts) = prepare(trace, topo, config)?;
    Engine::new(trace, topo, config, warm, spans, impacts).run()
}

/// [`simulate`] plus the recorded [`SimTrace`] when
/// [`SystemConfig::telemetry`] is set. With telemetry off this is exactly
/// [`simulate`] — no sink exists, no recording branch is taken, and the
/// trace slot is `None` — so the pair return shape costs nothing.
///
/// Traced runs additionally fill [`SimReport::metrics`] with the derived
/// [`MetricsReport`]; everything else in the report is bit-identical to
/// the untraced run. Validation errors return `(Err(..), None)`.
pub fn simulate_traced(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> (Result<SimReport, SimError>, Option<SimTrace>) {
    simulate_traced_with(trace, topo, config, &WarmState::default())
}

/// [`simulate_traced`] with cross-run warm state (see [`simulate_with`]).
/// The trace, like the report, is bit-identical warm vs cold.
pub fn simulate_traced_with(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
) -> (Result<SimReport, SimError>, Option<SimTrace>) {
    if !config.telemetry {
        return (simulate_with(trace, topo, config, warm), None);
    }
    match prepare(trace, topo, config) {
        Ok((spans, impacts)) => {
            Engine::new(trace, topo, config, warm, spans, impacts).run_with_trace()
        }
        Err(e) => (Err(e), None),
    }
}

/// Shared validation front half of every `simulate*` entry point: checks
/// trace/platform consistency, validates the fault schedule, and
/// pre-computes group spans and fault-impact rows.
pub(crate) fn prepare(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<(Vec<GroupSpan>, Vec<FaultImpact>), SimError> {
    if trace.npus() != topo.npus() {
        return Err(SimError::NpuCountMismatch {
            trace: trace.npus(),
            topology: topo.npus(),
        });
    }
    if config.collective_mode == CollectiveMode::Backend
        && config.scheduler == SchedulerPolicy::Themis
    {
        return Err(SimError::BackendCollectivesNeedBaselineScheduler);
    }
    let uses_remote = trace.classes().iter().any(|program| {
        program.iter().any(|node| {
            matches!(
                node.op,
                EtOp::Memory {
                    location: TensorLocation::Remote { .. },
                    ..
                }
            )
        })
    });
    if uses_remote && config.remote_memory.is_none() {
        return Err(SimError::RemoteMemoryUnconfigured);
    }

    // Validate the fault schedule up front: every later fault consumer
    // (backend constructors, span degradation, straggler stretching) may
    // then assume a well-formed, connectivity-preserving schedule.
    config
        .faults
        .validate(topo)
        .map_err(SimError::InvalidFaults)?;
    let faulted = if config.faults.has_fabric_faults() {
        let faulted = FaultedGraph::new(topo, &config.faults).map_err(SimError::InvalidFaults)?;
        if let Some((src, dst)) = faulted.unreachable_pair() {
            return Err(SimError::Unreachable { src, dst });
        }
        Some(faulted)
    } else {
        None
    };

    // Pre-compute the dimension span of every communicator group.
    let mut spans = Vec::with_capacity(trace.groups().len());
    for (gi, members) in trace.groups().iter().enumerate() {
        let mut span = group_span(topo, members).ok_or(SimError::UnalignedGroup { group: gi })?;
        if let Some(faulted) = &faulted {
            degrade_span(&mut span, faulted);
        }
        spans.push(span);
    }

    let impacts = fault_impacts(topo, &config.faults);
    Ok((spans, impacts))
}

/// Folds a fault schedule's per-dimension degradation into a group span:
/// the spanned sub-dimension's bandwidth is scaled by the dimension's
/// live-link fraction and worst degradation factor, its latency by the
/// worst latency multiplier. The pristine dimension is kept alongside for
/// per-fault attribution of the resulting collective slowdown.
fn degrade_span(span: &mut GroupSpan, faulted: &FaultedGraph) {
    for (slot, (dim_idx, dim, _)) in span.degraded.iter_mut().zip(span.dims.iter_mut()) {
        let Some(degrade) = faulted.dim_degrade(*dim_idx) else {
            continue;
        };
        let pristine = *dim;
        *dim = Dimension::new(dim.block())
            .with_bandwidth(degrade.scale_bandwidth(dim.bandwidth()))
            .with_link_latency(degrade.scale_latency(dim.link_latency()));
        *slot = Some((pristine, degrade.first_event));
    }
}

/// Seeds one [`FaultImpact`] row per schedule event. Fabric events start
/// with their affected-link counts (both directions of a killed/degraded
/// link, every port of a downed switch); slowdown/attribution counters are
/// filled in as the engine runs.
fn fault_impacts(topo: &Topology, schedule: &FaultSchedule) -> Vec<FaultImpact> {
    let graph = LinkGraph::new(topo);
    schedule
        .events()
        .iter()
        .enumerate()
        .map(|(idx, ev)| {
            let affected = match ev.kind {
                FaultKind::LinkDown { src, dst } | FaultKind::LinkDegrade { src, dst, .. } => {
                    let a = NodeId(src);
                    let b = NodeId(dst);
                    [(a, b), (b, a)]
                        .iter()
                        .filter(|&&(x, y)| graph.link_between(x, y).is_some())
                        .count() as u64
                }
                FaultKind::SwitchDown { dim, group } => (0..graph.num_nodes())
                    .filter(|&n| {
                        matches!(
                            graph.node_kind(NodeId(n)),
                            NodeKind::Switch { dim: d, group: g } if d == dim && g == group
                        )
                    })
                    .map(|n| graph.neighbors(NodeId(n)).count() as u64 * 2)
                    .sum(),
                FaultKind::NpuSlowdown { .. } => 0,
            };
            FaultImpact {
                event: idx,
                kind: ev.kind.label(),
                affected,
                extra_time: Time::ZERO,
            }
        })
        .collect()
}

/// Determines which topology dimensions a group spans. Members must be
/// distinct NPUs of the topology forming a sub-grid: the product of
/// per-dimension distinct coordinate counts must equal the group size.
fn group_span(topo: &Topology, members: &[NpuId]) -> Option<GroupSpan> {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != members.len() || sorted.last().is_none_or(|&m| m >= topo.npus()) {
        return None;
    }
    let rep = members[0];
    let rep_coords = topo.coords(rep);
    let mut dims = Vec::new();
    let mut product = 1usize;
    for dim_idx in 0..topo.num_dims() {
        let mut coords: Vec<usize> = members.iter().map(|&m| topo.coords(m)[dim_idx]).collect();
        coords.sort_unstable();
        coords.dedup();
        let distinct = coords.len();
        product *= distinct;
        if distinct > 1 {
            let base = topo.dims()[dim_idx];
            let block = match base.block() {
                BuildingBlock::Ring(_) => BuildingBlock::Ring(distinct),
                BuildingBlock::FullyConnected(_) => BuildingBlock::FullyConnected(distinct),
                BuildingBlock::Switch(_) => BuildingBlock::Switch(distinct),
            };
            // Representative wire endpoints for backend-executed chunk
            // ops: the two lowest-coordinate members on the line through
            // the representative along this dimension (adjacent for
            // contiguous groups, so the wire covers exactly the
            // algorithm's per-step hop).
            let mut line: Vec<(usize, NpuId)> = members
                .iter()
                .filter(|&&m| {
                    let c = topo.coords(m);
                    c.iter()
                        .enumerate()
                        .all(|(d, &v)| d == dim_idx || v == rep_coords[d])
                })
                .map(|&m| (topo.coords(m)[dim_idx], m))
                .collect();
            line.sort_unstable();
            if line.len() < 2 {
                // The members cannot form a sub-grid.
                return None;
            }
            let endpoints = (line[1].1, line[0].1);
            dims.push((
                dim_idx,
                Dimension::new(block)
                    .with_bandwidth(base.bandwidth())
                    .with_link_latency(base.link_latency()),
                endpoints,
            ));
        }
    }
    let degraded = vec![None; dims.len()];
    (product == members.len()).then_some(GroupSpan {
        rep,
        members: sorted,
        dims,
        degraded,
    })
}

pub(crate) struct Engine<'a> {
    trace: &'a ExecutionTrace,
    topo: &'a Topology,
    config: &'a SystemConfig,
    warm: &'a WarmState,
    collective_engine: CollectiveEngine,
    /// The co-resident async backend, built lazily on the first p2p
    /// message (collective-only workloads never pay for it). The
    /// blocking-p2p oracle installs its probe backend here up front.
    pub(crate) network: Option<Box<dyn NetworkBackend + 'a>>,
    spans: Vec<GroupSpan>,

    queue: EventQueue<EngineEvent>,
    /// Per NPU, per node: dependencies not yet completed, or [`FINISHED`]
    /// once the node itself has completed.
    remaining_deps: Vec<Vec<u32>>,
    /// Per stored program (the trace's classes): its reverse graph.
    dependents: Vec<Dependents>,
    /// Graph nodes completed so far, and how many the trace holds.
    nodes_done: usize,
    nodes_total: usize,

    compute_res: Vec<FifoResource>,
    local_res: Vec<FifoResource>,
    remote_res: Vec<FifoResource>,
    /// Per `(group representative, dimension)`: when the representative's
    /// lane along that dimension frees, at `rep * num_dims + dim`.
    lanes: Vec<Time>,

    logs: Vec<[IntervalLog; 4]>,
    finish: Vec<Time>,

    /// Per communicator group: its collective rendezvous.
    rendezvous: Vec<Rendezvous>,
    p2p_pending: BTreeMap<(NpuId, NpuId, u64), P2pPending>,
    in_flight: BTreeMap<AsyncMessageId, Outbound>,
    /// Per source NIC lane: whether an injected message's completion is
    /// still undiscovered, when the lane is known to free, and the messages
    /// queued behind it. Invariant: an `InjectP2p` event is pending iff
    /// the queue is non-empty and the lane is not occupied.
    nic_occupied: Vec<bool>,
    nic_free: Vec<Time>,
    nic_queue: Vec<VecDeque<Outbound>>,
    completions: Vec<Completion>,

    /// Backend-executed collectives in flight (`CollectiveMode::Backend`),
    /// keyed by instance id.
    running_collectives: BTreeMap<u32, RunningCollective>,
    next_collective: u32,
    /// Lowered programs memoized per `(group, collective, size)` — a
    /// training loop re-issues the same collective every iteration/layer,
    /// so lowering runs once per distinct shape.
    program_memo: BTreeMap<(u32, Collective, DataSize), MemoizedProgram>,
    /// Per-run program-memo hit/miss counters. A warm-cache hit still
    /// counts as a local miss, so these are identical warm vs cold.
    lowering_hits: u64,
    lowering_misses: u64,
    chunk_ops: u64,

    collectives: u64,
    p2p_messages: u64,

    /// Per-NPU straggler faults, `(onset, slowdown_pct, event index)`.
    /// Compute ops issued at or after the onset are stretched by the
    /// worst active percentage.
    stragglers: Vec<Vec<(Time, u32, usize)>>,
    /// Per-fault attribution rows, one per schedule event (see
    /// [`FaultImpact`]); returned in the report.
    fault_impacts: Vec<FaultImpact>,
    /// Engine events popped so far, for [`SystemConfig::max_events`].
    events_popped: u64,
    /// Telemetry sink, present iff [`SystemConfig::telemetry`]. Every
    /// recording site is a single `if let` on this option, so untraced
    /// runs pay one predictable branch.
    sink: Option<TraceSink>,
    /// Run-wide collective sequence number: assigned to every collective
    /// (closed-form and backend-executed alike) in launch order, keying
    /// telemetry spans. Always incremented so ids are independent of
    /// whether a sink is installed.
    trace_seq: u64,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        trace: &'a ExecutionTrace,
        topo: &'a Topology,
        config: &'a SystemConfig,
        warm: &'a WarmState,
        spans: Vec<GroupSpan>,
        fault_impacts: Vec<FaultImpact>,
    ) -> Self {
        let npus = trace.npus();
        // Reverse graphs and initial dependency counts once per stored
        // program; every NPU starts from a copy of its class's counts.
        let dependents = trace
            .classes()
            .iter()
            .map(|program| Dependents::new(program))
            .collect();
        let counts: Vec<Vec<u32>> = trace
            .classes()
            .iter()
            .map(|program| program.iter().map(|n| n.deps.len() as u32).collect())
            .collect();
        let remaining_deps = (0..npus)
            .map(|npu| counts[trace.class_of(npu)].clone())
            .collect();
        let rendezvous = spans
            .iter()
            .map(|span| Rendezvous {
                issued: vec![0; span.members.len()],
                completed: 0,
                open: VecDeque::new(),
            })
            .collect();
        let mut stragglers: Vec<Vec<(Time, u32, usize)>> = vec![Vec::new(); npus];
        for (idx, ev) in config.faults.events().iter().enumerate() {
            if let FaultKind::NpuSlowdown { npu, slowdown_pct } = ev.kind {
                if npu < npus {
                    stragglers[npu].push((ev.at, slowdown_pct, idx));
                }
            }
        }
        Engine {
            trace,
            topo,
            config,
            warm,
            collective_engine: CollectiveEngine::new(config.collective_chunks, config.scheduler),
            network: None,
            spans,
            queue: EventQueue::new(),
            remaining_deps,
            dependents,
            nodes_done: 0,
            nodes_total: trace.total_nodes(),
            compute_res: vec![FifoResource::new(); npus],
            local_res: vec![FifoResource::new(); npus],
            remote_res: vec![FifoResource::new(); npus],
            lanes: vec![Time::ZERO; npus * topo.num_dims()],
            logs: (0..npus).map(|_| Default::default()).collect(),
            finish: vec![Time::ZERO; npus],
            rendezvous,
            p2p_pending: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            nic_occupied: vec![false; npus],
            nic_free: vec![Time::ZERO; npus],
            nic_queue: (0..npus).map(|_| VecDeque::new()).collect(),
            completions: Vec::new(),
            running_collectives: BTreeMap::new(),
            next_collective: 0,
            program_memo: BTreeMap::new(),
            lowering_hits: 0,
            lowering_misses: 0,
            chunk_ops: 0,
            collectives: 0,
            p2p_messages: 0,
            stragglers,
            fault_impacts,
            events_popped: 0,
            sink: config.telemetry.then(TraceSink::new),
            trace_seq: 0,
        }
    }

    /// Applies any active straggler slowdown to a compute service time:
    /// the worst (maximum) percentage among this NPU's faults with
    /// `onset <= now` stretches the op, and the stretch is attributed to
    /// that fault's impact row. Fault-free NPUs return the service
    /// unchanged.
    fn stretched_compute(&mut self, npu: NpuId, now: Time, service: Time) -> Time {
        let mut worst: Option<(u32, usize)> = None;
        for &(at, pct, idx) in &self.stragglers[npu] {
            if now >= at && worst.is_none_or(|(w, _)| pct > w) {
                worst = Some((pct, idx));
            }
        }
        let Some((pct, idx)) = worst else {
            return service;
        };
        let stretched = Time::from_ps(
            (service.as_ps() as u128 * pct as u128 / 100).min(u64::MAX as u128) as u64,
        );
        let impact = &mut self.fault_impacts[idx];
        impact.affected += 1;
        impact.extra_time += stretched.saturating_sub(service);
        stretched
    }

    /// Enforces the deterministic event/time budgets, counting engine
    /// events plus whatever the network backends have processed.
    fn check_budget(&mut self, now: Time) -> Result<(), SimError> {
        if self.config.max_events.is_none() && self.config.max_sim_time.is_none() {
            return Ok(());
        }
        let events = self.events_popped + self.network.as_ref().map_or(0, |n| n.stats().events);
        let over_events = self.config.max_events.is_some_and(|cap| events > cap);
        let over_time = self.config.max_sim_time.is_some_and(|cap| now > cap);
        if over_events || over_time {
            return Err(SimError::BudgetExceeded {
                events,
                sim_time: now,
            });
        }
        Ok(())
    }

    /// The shared async backend, built on first use. A traced run turns
    /// the backend's link-grant recording on at construction, before any
    /// message reaches it.
    fn network_mut(&mut self) -> &mut dyn NetworkBackend {
        let first = self.network.is_none();
        let record = self.sink.is_some();
        let (topo, config, warm) = (self.topo, self.config, self.warm);
        let net = self
            .network
            .get_or_insert_with(|| build_network(topo, config, warm));
        if first && record {
            net.set_telemetry(true);
        }
        net.as_mut()
    }

    pub(crate) fn run(mut self) -> Result<SimReport, SimError> {
        self.run_inner()
    }

    /// [`Engine::run`] plus trace assembly: drives the simulation, then
    /// turns the sink's records, the per-NPU interval logs, and the
    /// backend's link grants into a canonical [`SimTrace`], attaching the
    /// derived [`MetricsReport`] to a successful report. Budget-tripped
    /// runs still yield the partial trace (with a `budget_exceeded`
    /// marker) alongside the error.
    fn run_with_trace(mut self) -> (Result<SimReport, SimError>, Option<SimTrace>) {
        let mut result = self.run_inner();
        let trace = self.sink.is_some().then(|| self.assemble_trace(&result));
        if let (Ok(report), Some(trace)) = (&mut result, &trace) {
            report.metrics = Some(MetricsReport::from_trace(trace, &report.per_npu_finish));
        }
        (result, trace)
    }

    /// Assembles the canonical [`SimTrace`] after the run: NPU timelines
    /// from the same exclusive attribution that produced the report's
    /// breakdown, link grants from the co-resident backend, spans and
    /// edges from the sink, plus one instant marker per scheduled fault
    /// (and one for a tripped budget).
    fn assemble_trace(&mut self, result: &Result<SimReport, SimError>) -> SimTrace {
        let horizon = match result {
            Ok(report) => report.total_time,
            // The report (and its horizon) never materialized: cover every
            // recorded interval so attribution still sees the full run.
            Err(_) => self
                .logs
                .iter()
                .flat_map(|logs| logs.iter().map(IntervalLog::end))
                .fold(self.queue.now(), Time::max),
        };
        let npu_timelines = self
            .logs
            .iter()
            .map(|logs| {
                let segments = attribute_exclusive_intervals(
                    &[&logs[COMPUTE], &logs[COMM], &logs[REMOTE], &logs[LOCAL]],
                    horizon,
                );
                let mut it = segments.into_iter();
                let mut next = || it.next().unwrap_or_default();
                NpuTimeline {
                    spans: [next(), next(), next(), next(), next()],
                }
            })
            .collect();
        let links = self
            .network
            .as_ref()
            .map_or_else(Vec::new, |net| net.link_traces());
        let sink = self.sink.take().unwrap_or_default();
        let mut markers = sink.markers;
        for ev in self.config.faults.events() {
            markers.push(Marker {
                at: ev.at,
                label: format!("fault:{}", ev.kind.label()),
            });
        }
        if let Err(SimError::BudgetExceeded { sim_time, .. }) = result {
            markers.push(Marker {
                at: *sim_time,
                label: "budget_exceeded".to_string(),
            });
        }
        let mut trace = SimTrace {
            npus: self.trace.npus(),
            horizon,
            npu_timelines,
            collectives: sink.collectives,
            chunk_ops: sink.chunk_ops,
            dep_edges: sink.dep_edges,
            links,
            markers,
        };
        trace.canonicalize();
        trace
    }

    // astra-lint: hot-path
    fn run_inner(&mut self) -> Result<SimReport, SimError> {
        // Seed: every node with no dependencies is ready at t = 0.
        for npu in 0..self.trace.npus() {
            for idx in 0..self.trace.program(npu).len() {
                if self.remaining_deps[npu][idx] == 0 {
                    self.issue(npu, idx as u32, Time::ZERO)?;
                }
            }
        }
        self.drain_network()?;
        loop {
            // One shared clock: before popping the engine's next event,
            // give the backend every internal event up to (and including,
            // so completions win FIFO ties) that instant. Messages sent
            // later always carry later timestamps, so the backend never
            // has to run ahead of the engine frontier.
            while !self.in_flight.is_empty() {
                let Some(net) = self.network.as_mut() else {
                    return Err(SimError::Internal("in-flight p2p without a backend"));
                };
                let Some(t) = net.next_event_time() else {
                    break;
                };
                if self.queue.peek_time().is_some_and(|e| e < t) {
                    break;
                }
                net.advance_until(t);
                self.drain_network()?;
                self.check_budget(t)?;
            }
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            self.events_popped += 1;
            self.check_budget(now)?;
            match event {
                EngineEvent::Node(Event { npu, node }) => {
                    self.finish[npu] = self.finish[npu].max(now);
                    self.nodes_done += 1;
                    let node = node as usize;
                    self.remaining_deps[npu][node] = FINISHED;
                    let class = self.trace.class_of(npu);
                    let offsets = &self.dependents[class].offsets;
                    for i in offsets[node] as usize..offsets[node + 1] as usize {
                        let dependent = self.dependents[class].targets[i];
                        let slot = &mut self.remaining_deps[npu][dependent as usize];
                        *slot -= 1;
                        if *slot == 0 {
                            self.issue(npu, dependent, now)?;
                        }
                    }
                }
                EngineEvent::InjectP2p(src) => {
                    let Some(msg) = self.nic_queue[src].pop_front() else {
                        return Err(SimError::Internal(
                            "InjectP2p event fired with an empty NIC queue",
                        ));
                    };
                    self.inject_p2p(msg, now);
                }
                EngineEvent::ChunkReady { coll, op } => {
                    self.enqueue_chunk_op(coll, op, now);
                }
            }
            self.drain_network()?;
        }
        if self.nodes_done < self.nodes_total {
            return Err(self.stalled());
        }

        let horizon = self.finish.iter().copied().fold(Time::ZERO, Time::max);
        let npus = self.trace.npus() as u64;
        let mut sums = [Time::ZERO; 5];
        for logs in &self.logs {
            let parts = attribute_exclusive(
                &[&logs[COMPUTE], &logs[COMM], &logs[REMOTE], &logs[LOCAL]],
                horizon,
            );
            for (sum, part) in sums.iter_mut().zip(&parts) {
                *sum += *part;
            }
        }
        let breakdown = Breakdown {
            compute: sums[0] / npus,
            exposed_comm: sums[1] / npus,
            exposed_remote_mem: sums[2] / npus,
            exposed_local_mem: sums[3] / npus,
            exposed_idle: sums[4] / npus,
        };
        let (network, (delay_hits, delay_misses)) = match &self.network {
            Some(net) => (net.stats(), net.delay_memo_stats()),
            None => (NetworkStats::default(), (0, 0)),
        };
        debug_assert!(
            self.running_collectives.is_empty(),
            "backend-executed collectives left unfinished"
        );
        Ok(SimReport {
            total_time: horizon,
            breakdown,
            per_npu_finish: self.finish.clone(),
            collectives: self.collectives,
            collective_ops: self.chunk_ops,
            p2p_messages: self.p2p_messages,
            network,
            cache: CacheStats {
                delay_hits,
                delay_misses,
                lowering_hits: self.lowering_hits,
                lowering_misses: self.lowering_misses,
                ..CacheStats::default()
            },
            faults: std::mem::take(&mut self.fault_impacts),
            metrics: None,
        })
    }

    /// The error for a run whose queue drained with nodes unfinished:
    /// names the lowest `(npu, node)` that never completed.
    fn stalled(&self) -> SimError {
        self.remaining_deps
            .iter()
            .enumerate()
            .find_map(|(npu, deps)| {
                let node = deps.iter().position(|&d| d != FINISHED)?;
                Some(SimError::Stalled {
                    npu,
                    node: node as u32,
                })
            })
            .unwrap_or(SimError::Internal(
                "node count fell short but every node finished",
            ))
    }

    /// Dispatches a node whose dependencies are all complete at `now`.
    // astra-lint: hot-path
    fn issue(&mut self, npu: NpuId, node: u32, now: Time) -> Result<(), SimError> {
        let op = self.trace.program(npu)[node as usize].op;
        match op {
            EtOp::Compute { flops, tensor } => {
                let service = self.config.roofline.compute_time(flops, tensor);
                let service = self.stretched_compute(npu, now, service);
                let r = self.compute_res[npu].acquire(now, service);
                self.logs[npu][COMPUTE].push(r.start, r.end);
                self.queue
                    .schedule_at(r.end, EngineEvent::Node(Event { npu, node }));
            }
            EtOp::Memory {
                location: TensorLocation::Local,
                size,
                ..
            } => {
                let service = self.config.local_memory.access_time(size);
                let r = self.local_res[npu].acquire(now, service);
                self.logs[npu][LOCAL].push(r.start, r.end);
                self.queue
                    .schedule_at(r.end, EngineEvent::Node(Event { npu, node }));
            }
            EtOp::Memory {
                location: TensorLocation::Remote { gathered },
                size,
                ..
            } => {
                let pool = self
                    .config
                    .remote_memory
                    .as_ref()
                    .ok_or(SimError::RemoteMemoryUnconfigured)?;
                let mode = if gathered {
                    TransferMode::InSwitchCollective
                } else {
                    TransferMode::Plain
                };
                let service = pool.transfer_time(size, mode);
                let r = self.remote_res[npu].acquire(now, service);
                // In-switch collective transfers are communication through
                // the pool fabric; plain transfers are remote-memory time.
                let category = if gathered { COMM } else { REMOTE };
                self.logs[npu][category].push(r.start, r.end);
                self.queue
                    .schedule_at(r.end, EngineEvent::Node(Event { npu, node }));
            }
            EtOp::Collective { group, .. } => {
                self.arrive(self.trace.group_of(npu, group).0, npu, node, now)?;
            }
            EtOp::PeerSend { peer, size, tag } => {
                let entry = self.p2p_pending.entry((npu, peer, tag)).or_default();
                entry.send = Some((node, now));
                if entry.recv.is_some() {
                    self.resolve_p2p(npu, peer, tag, size)?;
                }
            }
            EtOp::PeerRecv { peer, size, tag } => {
                let entry = self.p2p_pending.entry((peer, npu, tag)).or_default();
                entry.recv = Some((node, now));
                if entry.send.is_some() {
                    self.resolve_p2p(peer, npu, tag, size)?;
                }
            }
        }
        Ok(())
    }

    /// Adds a collective node's arrival to its group's meeting and, once
    /// every member has arrived, launches the collective. Member `rank`'s
    /// `k`-th arrival joins instance `k`, so each meeting holds at most one
    /// arrival per member, and a member reaches instance `k + 1` only after
    /// instance `k`: meetings fill in instance order, and only the front
    /// open meeting can be full.
    // astra-lint: hot-path
    fn arrive(&mut self, group: u32, npu: NpuId, node: u32, now: Time) -> Result<(), SimError> {
        let unaligned = SimError::UnalignedGroup {
            group: group as usize,
        };
        let (Some(span), Some(rv)) = (
            self.spans.get(group as usize),
            self.rendezvous.get_mut(group as usize),
        ) else {
            return Err(unaligned);
        };
        let Ok(rank) = span.members.binary_search(&npu) else {
            return Err(unaligned);
        };
        let members = span.members.len();
        let slot = (rv.issued[rank] - rv.completed) as usize;
        rv.issued[rank] += 1;
        if slot == rv.open.len() {
            rv.open.push_back(Vec::with_capacity(members));
        }
        rv.open[slot].push((npu, node, now));
        if rv.open[0].len() < members {
            return Ok(());
        }
        let Some(arrivals) = rv.open.pop_front() else {
            return Err(SimError::Internal(
                "a full meeting vanished before its collective launched",
            ));
        };
        rv.completed += 1;
        self.run_collective(group, arrivals)
    }

    fn run_collective(&mut self, group: u32, arrivals: Vec<Arrival>) -> Result<(), SimError> {
        self.collectives += 1;
        let span = &self.spans[group as usize];
        let start = arrivals
            .iter()
            .map(|&(_, _, t)| t)
            .fold(Time::ZERO, Time::max);
        let (collective, size) = match self.trace.program(arrivals[0].0)[arrivals[0].1 as usize].op
        {
            EtOp::Collective {
                collective, size, ..
            } => (collective, size),
            _ => return Err(SimError::Internal("a meeting node is not a collective")),
        };
        let trace_id = self.trace_seq;
        self.trace_seq += 1;
        if self.config.collective_mode == CollectiveMode::Backend
            && !span.dims.is_empty()
            && size != DataSize::ZERO
        {
            self.launch_backend_collective(group, collective, size, start, arrivals, trace_id);
            return Ok(());
        }
        let finish = if span.dims.is_empty() {
            // Single-member group: nothing to communicate.
            start
        } else {
            let dims: Vec<Dimension> = span.dims.iter().map(|&(_, d, _)| d).collect();
            let lanes = span.rep * self.topo.num_dims();
            let available: Vec<Time> = span
                .dims
                .iter()
                .map(|&(dim_idx, _, _)| self.lanes[lanes + dim_idx])
                .collect();
            let outcome = self
                .collective_engine
                .run_at(collective, size, &dims, start, &available);
            for (&(dim_idx, _, _), &free) in span.dims.iter().zip(&outcome.free_at) {
                self.lanes[lanes + dim_idx] = free;
            }
            // Per-fault attribution: re-run the closed form with the
            // pristine dimensions (run_at is pure) and charge the finish
            // delta to the first schedule event that degraded a spanned
            // dimension. Fault-free spans skip the second run entirely.
            if span.degraded.iter().any(Option::is_some) {
                let pristine: Vec<Dimension> = span
                    .dims
                    .iter()
                    .zip(&span.degraded)
                    .map(|(&(_, d, _), degraded)| degraded.map_or(d, |(p, _)| p))
                    .collect();
                let baseline = self
                    .collective_engine
                    .run_at(collective, size, &pristine, start, &available);
                if let Some(event) = span.degraded.iter().flatten().map(|&(_, e)| e).min() {
                    let impact = &mut self.fault_impacts[event];
                    impact.extra_time += outcome.finish.saturating_sub(baseline.finish);
                }
            }
            outcome.finish
        };
        if let Some(sink) = &mut self.sink {
            sink.collectives.push(CollectiveSpan {
                id: trace_id,
                group,
                start,
                finish,
            });
        }
        for (npu, node, ready) in arrivals {
            if finish > ready {
                self.logs[npu][COMM].push(ready, finish);
            }
            self.queue
                .schedule_at(finish, EngineEvent::Node(Event { npu, node }));
        }
        Ok(())
    }

    /// Lowers a collective to its chunk-level program and starts executing
    /// it on the co-resident network backend: every op whose dependencies
    /// are already satisfied enters its source's NIC lane at the meeting's
    /// rendezvous instant; the rest issue from completion callbacks.
    fn launch_backend_collective(
        &mut self,
        group: u32,
        collective: Collective,
        size: DataSize,
        start: Time,
        arrivals: Vec<Arrival>,
        trace_id: u64,
    ) {
        let endpoints: Vec<(NpuId, NpuId)> = self.spans[group as usize]
            .dims
            .iter()
            .map(|&(_, _, ep)| ep)
            .collect();
        let memoized = self
            .program_memo
            .get(&(group, collective, size))
            .map(|(p, d)| (Arc::clone(p), Arc::clone(d)));
        let (program, dependents) = match memoized {
            Some(entry) => {
                self.lowering_hits += 1;
                entry
            }
            None => {
                self.lowering_misses += 1;
                let dims: Vec<Dimension> = self.spans[group as usize]
                    .dims
                    .iter()
                    .map(|&(_, d, _)| d)
                    .collect();
                let chunks = self.config.collective_chunks;
                // Local miss: another run may already have lowered this
                // shape — the shared program is the same pure function of
                // the key, so reusing it cannot change the result.
                let key = || LoweringKey::new(collective, size, &dims, chunks);
                let entry = match self
                    .warm
                    .lowering
                    .as_ref()
                    .and_then(|shared| shared.get(&key()))
                {
                    Some(entry) => entry,
                    None => {
                        let program = Arc::new(lowering::lower(collective, size, &dims, chunks));
                        let dependents = Arc::new(program.dependents());
                        if let Some(shared) = &self.warm.lowering {
                            shared.insert(key(), (Arc::clone(&program), Arc::clone(&dependents)));
                        }
                        (program, dependents)
                    }
                };
                self.program_memo.insert(
                    (group, collective, size),
                    (Arc::clone(&entry.0), Arc::clone(&entry.1)),
                );
                entry
            }
        };
        let id = self.next_collective;
        self.next_collective += 1;
        let remaining_deps: Vec<u32> = program
            .ops()
            .iter()
            .map(|op| op.deps.len() as u32)
            .collect();
        let total = program.ops().len();
        let roots: Vec<u32> = program
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| op.deps.is_empty())
            .map(|(idx, _)| idx as u32)
            .collect();
        self.running_collectives.insert(
            id,
            RunningCollective {
                arrivals,
                program,
                dependents,
                remaining_deps,
                ready: vec![start; total],
                remaining_ops: total,
                endpoints,
                finish: start,
                group,
                start,
                trace_id,
            },
        );
        // The meeting completes at the engine's current instant, so root
        // ops are ready right now.
        for op in roots {
            self.enqueue_chunk_op(id, op, start);
        }
    }

    /// Binds a ready chunk op to its wire endpoints and hands it to the
    /// source's NIC lane.
    fn enqueue_chunk_op(&mut self, coll: u32, op: u32, ready: Time) {
        let rc = &self.running_collectives[&coll];
        let meta = &rc.program.ops()[op as usize];
        let (src, dst) = rc.endpoints[meta.dim];
        let size = meta.size;
        self.chunk_ops += 1;
        self.enqueue_outbound(Outbound::Chunk(ChunkSend {
            coll,
            op,
            src,
            dst,
            size,
            ready,
        }));
    }

    /// Hands a resolved message to its source's NIC lane: inject now if
    /// the lane is idle and the message is ready, otherwise queue behind
    /// it (the lane's completion or the pending `InjectP2p` event drains
    /// the queue in FIFO order).
    ///
    /// Injection never runs ahead of the engine clock: a message whose
    /// ready time (or lane-free time) lies in the simulated future —
    /// closed-form backends resolve completions, and therefore chunk-op
    /// dependencies, at send time — waits for an `InjectP2p` event at that
    /// instant. Handing the backend a future send would violate the
    /// shared-clock invariant (the fluid backend would advance its clock
    /// past other arrivals still queued in the engine).
    fn enqueue_outbound(&mut self, msg: Outbound) {
        let src = msg.src();
        let ready = msg.ready();
        if self.nic_occupied[src] || !self.nic_queue[src].is_empty() {
            // An InjectP2p follow-up is (or will be) scheduled by the
            // occupying message's completion.
            self.nic_queue[src].push_back(msg);
            return;
        }
        let at = ready.max(self.nic_free[src]);
        if at > self.queue.now() {
            self.nic_queue[src].push_back(msg);
            self.queue.schedule_at(at, EngineEvent::InjectP2p(src));
        } else {
            self.inject_p2p(msg, at);
        }
    }

    fn resolve_p2p(
        &mut self,
        src: NpuId,
        dst: NpuId,
        tag: u64,
        size: DataSize,
    ) -> Result<(), SimError> {
        let Some(entry) = self.p2p_pending.remove(&(src, dst, tag)) else {
            return Err(SimError::Internal("resolved p2p pair has no pending entry"));
        };
        let (Some((send_node, send_ready)), Some((recv_node, recv_ready))) =
            (entry.send, entry.recv)
        else {
            return Err(SimError::Internal(
                "p2p pair resolved before both sides arrived",
            ));
        };
        self.p2p_messages += 1;
        // Non-blocking NetworkAPI: schedule the send on the shared
        // backend and keep executing ready graph nodes; the paired nodes
        // resume from the completion callback. Same-source messages
        // serialize on the NIC lane, so a run against the blocking-p2p
        // oracle's probe backend only diverges on *cross-source* overlap —
        // genuine network contention.
        self.enqueue_outbound(Outbound::Peer(InFlightP2p {
            src,
            dst,
            size,
            send_node,
            recv_node,
            send_ready,
            recv_ready,
        }));
        Ok(())
    }

    /// Hands a resolved message to the async backend at `at` (never ahead
    /// of the engine clock — see [`Engine::enqueue_outbound`]), occupying
    /// the source's NIC lane.
    fn inject_p2p(&mut self, msg: Outbound, at: Time) {
        let src = msg.src();
        debug_assert!(at >= msg.ready(), "message injected before it is ready");
        let (dst, size) = msg.dst_size();
        self.nic_occupied[src] = true;
        let net = self.network_mut();
        // A chunk op's lane can free before its predecessor's last-hop
        // propagation completed; the store-and-forward backend cannot
        // re-open that history, so the send clamps to its clock floor.
        let at = at.max(net.earliest_send_time());
        let id = net.send_async(at, src, dst, size);
        self.in_flight.insert(id, msg);
    }

    /// Collects completion callbacks from the async backend and applies
    /// them. One pass suffices: completion processing only *schedules
    /// engine events* (Node, InjectP2p, ChunkReady) and never injects a
    /// new send synchronously, so no new completions can appear until the
    /// main loop pops one of those events — which keeps the engine queue
    /// non-empty whenever work remains, and calls back here after every
    /// pop.
    fn drain_network(&mut self) -> Result<(), SimError> {
        let Some(net) = self.network.as_mut() else {
            return Ok(());
        };
        let mut batch = std::mem::take(&mut self.completions);
        net.drain_completions(&mut batch);
        for c in batch.drain(..) {
            self.finish_p2p(c)?;
        }
        self.completions = batch;
        Ok(())
    }

    /// Resumes whatever waited on a completed async message: the paired
    /// send/recv graph nodes for p2p traffic, the dependent chunk ops (and
    /// eventually the meeting) for a backend-executed collective.
    fn finish_p2p(&mut self, c: Completion) -> Result<(), SimError> {
        let Some(msg) = self.in_flight.remove(&c.id) else {
            return Err(SimError::Internal(
                "completion does not match an in-flight message",
            ));
        };
        match msg {
            Outbound::Peer(msg) => {
                self.logs[msg.src][COMM].push(msg.send_ready, c.finish);
                if c.finish > msg.recv_ready {
                    self.logs[msg.dst][COMM].push(msg.recv_ready, c.finish);
                }
                self.queue.schedule_at(
                    c.finish,
                    EngineEvent::Node(Event {
                        npu: msg.src,
                        node: msg.send_node,
                    }),
                );
                self.queue.schedule_at(
                    c.finish,
                    EngineEvent::Node(Event {
                        npu: msg.dst,
                        node: msg.recv_node,
                    }),
                );
                self.release_nic(msg.src, c.finish);
                Ok(())
            }
            Outbound::Chunk(chunk) => self.finish_chunk_op(chunk, c.finish),
        }
    }

    /// Frees a source NIC lane at `free` (which can lie in the simulated
    /// future for closed-form backends, or — for chunk ops, whose lane
    /// releases `wire_latency` early — slightly in the simulated past):
    /// the next queued same-source message injects when the engine clock
    /// gets there.
    fn release_nic(&mut self, src: NpuId, free: Time) {
        self.nic_occupied[src] = false;
        self.nic_free[src] = free;
        if !self.nic_queue[src].is_empty() {
            self.queue
                .schedule_at(free.max(self.queue.now()), EngineEvent::InjectP2p(src));
        }
    }

    /// Applies a completed chunk op: releases the lane `wire_latency`
    /// before the wire completion (propagation does not occupy the
    /// dimension, exactly as in the closed-form engine), triggers
    /// dependents `extra_latency` after it, and — once the program drains
    /// — resumes the meeting's graph nodes at the collective's finish.
    fn finish_chunk_op(&mut self, chunk: ChunkSend, wire_finish: Time) -> Result<(), SimError> {
        let Some(rc) = self.running_collectives.get_mut(&chunk.coll) else {
            return Err(SimError::Internal(
                "chunk op does not belong to a running collective",
            ));
        };
        let meta = &rc.program.ops()[chunk.op as usize];
        let lane_free = wire_finish.saturating_sub(meta.wire_latency);
        let done = wire_finish + meta.extra_latency;
        rc.finish = rc.finish.max(done);
        rc.remaining_ops -= 1;
        let finished = rc.remaining_ops == 0;
        let coll = chunk.coll;
        let trace_id = rc.trace_id;
        if let Some(sink) = &mut self.sink {
            sink.chunk_ops.push(ChunkOpSpan {
                coll: trace_id,
                op: chunk.op,
                src: chunk.src,
                dst: chunk.dst,
                size: chunk.size,
                ready: chunk.ready,
                finish: done,
            });
        }
        // Dependents become ready `extra_latency` after the wire finish —
        // via a ChunkReady event, never by direct enqueue: closed-form
        // backends report `done` far ahead of the engine clock, and an op
        // queued before its ready instant could block its lane's FIFO head
        // while later-queued ops are already ready.
        for &d in &Arc::clone(&rc.dependents)[chunk.op as usize] {
            let Some(rc) = self.running_collectives.get_mut(&coll) else {
                return Err(SimError::Internal(
                    "running collective vanished while its ops were pending",
                ));
            };
            rc.ready[d as usize] = rc.ready[d as usize].max(done);
            let slot = &mut rc.remaining_deps[d as usize];
            *slot -= 1;
            if *slot == 0 {
                let at = rc.ready[d as usize];
                self.queue
                    .schedule_at(at, EngineEvent::ChunkReady { coll, op: d });
            }
            if let Some(sink) = &mut self.sink {
                sink.dep_edges.push(DepEdge {
                    coll: trace_id,
                    from: chunk.op,
                    to: d,
                    at: done,
                });
            }
        }
        self.release_nic(chunk.src, lane_free);
        if finished {
            let Some(rc) = self.running_collectives.remove(&chunk.coll) else {
                return Err(SimError::Internal(
                    "drained collective was already removed before its last op",
                ));
            };
            if let Some(sink) = &mut self.sink {
                sink.collectives.push(CollectiveSpan {
                    id: rc.trace_id,
                    group: rc.group,
                    start: rc.start,
                    finish: rc.finish,
                });
            }
            for (npu, node, ready) in rc.arrivals {
                if rc.finish > ready {
                    self.logs[npu][COMM].push(ready, rc.finish);
                }
                self.queue
                    .schedule_at(rc.finish, EngineEvent::Node(Event { npu, node }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_blocking_reference;
    use astra_collectives::Collective;
    use astra_workload::{models, parallelism, EtOp, Parallelism, TraceBuilder};

    /// [`simulate`] or [`simulate_blocking_reference`].
    type SimFn = fn(&ExecutionTrace, &Topology, &SystemConfig) -> Result<SimReport, SimError>;

    fn topo512() -> Topology {
        Topology::parse("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50").unwrap()
    }

    fn small_topo() -> Topology {
        Topology::parse("R(4)@100_SW(4)@50").unwrap()
    }

    #[test]
    fn single_compute_node_runs_for_roofline_time() {
        let topo = Topology::parse("R(2)@100").unwrap();
        let mut b = TraceBuilder::new(2);
        for npu in 0..2 {
            b.node(
                npu,
                "c",
                EtOp::Compute {
                    flops: 234e12,
                    tensor: DataSize::ZERO,
                },
                &[],
            );
        }
        let report = simulate(&b.build().unwrap(), &topo, &SystemConfig::default()).unwrap();
        assert_eq!(report.total_time, Time::from_secs(1));
        assert_eq!(report.breakdown.compute, Time::from_secs(1));
        assert_eq!(report.breakdown.exposed_idle, Time::ZERO);
    }

    #[test]
    fn npu_count_mismatch_rejected() {
        let trace = parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 8).unwrap();
        assert_eq!(
            simulate(&trace, &small_topo(), &SystemConfig::default()),
            Err(SimError::NpuCountMismatch {
                trace: 8,
                topology: 16
            })
        );
    }

    #[test]
    fn remote_access_requires_pool() {
        let moe = models::moe_1t();
        let trace = parallelism::generate_disaggregated_moe(&moe, 16, &Default::default()).unwrap();
        assert_eq!(
            simulate(&trace, &small_topo(), &SystemConfig::default()),
            Err(SimError::RemoteMemoryUnconfigured)
        );
    }

    #[test]
    fn group_span_subsets_dimensions() {
        let topo = topo512();
        // Contiguous 16-NPU group: spans dims 0 (k=2) and 1 (k=8).
        let span = group_span(&topo, &(0..16).collect::<Vec<_>>()).unwrap();
        let dims: Vec<usize> = span.dims.iter().map(|&(d, _, _)| d).collect();
        assert_eq!(dims, vec![0, 1]);
        assert_eq!(span.dims[0].1.npus(), 2);
        assert_eq!(span.dims[1].1.npus(), 8);
        // Strided DP group: spans dims 2 and 3.
        let dp: Vec<usize> = (0..32).map(|i| i * 16).collect();
        let span = group_span(&topo, &dp).unwrap();
        let dims: Vec<usize> = span.dims.iter().map(|&(d, _, _)| d).collect();
        assert_eq!(dims, vec![2, 3]);
    }

    #[test]
    fn unaligned_group_rejected() {
        let topo = small_topo();
        // Three members cannot form a sub-grid of a 4x4 topology.
        assert!(group_span(&topo, &[0, 1, 5]).is_none());
        let mut b = TraceBuilder::new(16);
        let g = b.add_group(vec![0, 1, 5]);
        b.node(
            0,
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(1),
                group: g,
            },
            &[],
        );
        // The other members never issue, but setup validation runs first.
        let trace_err = simulate(&b.build().unwrap(), &topo, &SystemConfig::default());
        assert_eq!(trace_err, Err(SimError::UnalignedGroup { group: 0 }));
    }

    fn all_reduce(group: astra_workload::GroupId) -> EtOp {
        EtOp::Collective {
            collective: Collective::AllReduce,
            size: DataSize::from_mib(1),
            group,
        }
    }

    fn compute() -> EtOp {
        EtOp::Compute {
            flops: 1e9,
            tensor: DataSize::ZERO,
        }
    }

    #[test]
    fn stalled_collective_is_an_error() {
        // NPU 1 never reaches the All-Reduce NPU 0 waits on. The trace is
        // structurally valid, so only the engine can notice.
        let topo = Topology::parse("R(2)@100").unwrap();
        let mut b = TraceBuilder::new(2);
        let g = b.add_group(vec![0, 1]);
        let c = b.node(0, "fwd", compute(), &[]);
        let ar = b.node(0, "ar", all_reduce(g), &[c]);
        b.node(0, "bwd", compute(), &[ar]);
        b.node(1, "fwd", compute(), &[]);
        let trace = b.build().unwrap();
        assert_eq!(
            simulate(&trace, &topo, &SystemConfig::default()),
            Err(SimError::Stalled { npu: 0, node: 1 })
        );
    }

    #[test]
    fn empty_group_is_unaligned() {
        let topo = Topology::parse("R(2)@100").unwrap();
        let mut b = TraceBuilder::new(2);
        b.add_group(vec![]);
        b.node(0, "fwd", compute(), &[]);
        assert_eq!(
            simulate(&b.build().unwrap(), &topo, &SystemConfig::default()),
            Err(SimError::UnalignedGroup { group: 0 })
        );
    }

    /// A two-NPU All-Reduce on group `[0, 1]` of `R(4)@100`, loaded with
    /// `from_json` after replacing its group list with `groups`.
    fn edited_groups(groups: &str) -> Result<SimReport, SimError> {
        let topo = Topology::parse("R(4)@100").unwrap();
        let mut b = TraceBuilder::new(4);
        let g = b.add_group(vec![0, 1]);
        for npu in 0..2 {
            b.node(npu, "ar", all_reduce(g), &[]);
        }
        let json: String = b.build().unwrap().to_json().unwrap();
        let compact: String = json.split_whitespace().collect();
        let edited = compact.replace("\"groups\":[[0,1]]", &format!("\"groups\":{groups}"));
        assert_ne!(edited, compact, "group list not found");
        let trace = ExecutionTrace::from_json(&edited).unwrap();
        simulate(&trace, &topo, &SystemConfig::default())
    }

    #[test]
    fn malformed_json_groups_are_unaligned() {
        let unaligned = Err(SimError::UnalignedGroup { group: 0 });
        // The unsorted spelling of the same group runs as usual.
        assert_eq!(edited_groups("[[1,0]]").unwrap().collectives, 1);
        // NPU 1 issues on a group it is not a member of.
        assert_eq!(edited_groups("[[0,2]]"), unaligned);
        // A collective naming a group the trace does not define.
        assert_eq!(edited_groups("[]"), unaligned);
        // A duplicated member, and a member the topology does not have.
        assert_eq!(edited_groups("[[0,1,1]]"), unaligned);
        assert_eq!(edited_groups("[[0,9]]"), unaligned);
        assert_eq!(edited_groups("[[]]"), unaligned);
    }

    #[test]
    fn gradient_allreduce_overlaps_with_backward() {
        // Data-parallel GPT-3 slice: gradient All-Reduces should hide
        // behind subsequent backward compute, so exposed comm is well below
        // total collective time.
        let mut model = models::gpt3_175b();
        model.layers.truncate(8);
        let trace = parallelism::generate_trace(&model, Parallelism::Data, 16).unwrap();
        let report = simulate(&trace, &small_topo(), &SystemConfig::default()).unwrap();
        assert!(report.collectives > 0);
        assert!(report.breakdown.compute > Time::ZERO);
        // Overlap exists: some comm is hidden.
        let b = &report.breakdown;
        assert!(b.exposed_comm < report.total_time);
        assert!(b.total() == report.total_time);
    }

    #[test]
    fn sibling_groups_run_in_parallel() {
        // Two MP groups doing identical collectives should not serialize:
        // total time must be close to a single group's time.
        let topo = small_topo();
        let make = |groups: &[Vec<usize>]| {
            let mut b = TraceBuilder::new(16);
            for members in groups {
                let g = b.add_group(members.clone());
                for &npu in members {
                    b.node(
                        npu,
                        "ar",
                        EtOp::Collective {
                            collective: Collective::AllReduce,
                            size: DataSize::from_mib(64),
                            group: g,
                        },
                        &[],
                    );
                }
            }
            b.build().unwrap()
        };
        let one = simulate(&make(&[(0..4).collect()]), &topo, &SystemConfig::default()).unwrap();
        let four = simulate(
            &make(&[
                (0..4).collect(),
                (4..8).collect(),
                (8..12).collect(),
                (12..16).collect(),
            ]),
            &topo,
            &SystemConfig::default(),
        )
        .unwrap();
        assert_eq!(one.total_time, four.total_time);
    }

    #[test]
    fn successive_collectives_on_same_group_contend() {
        let topo = small_topo();
        let mut b = TraceBuilder::new(16);
        let g = b.add_group((0..4).collect());
        for npu in 0..4 {
            let first = b.node(
                npu,
                "ar1",
                EtOp::Collective {
                    collective: Collective::AllReduce,
                    size: DataSize::from_mib(64),
                    group: g,
                },
                &[],
            );
            // Second collective issued immediately (no dependency), but the
            // links are busy.
            let _ = first;
            b.node(
                npu,
                "ar2",
                EtOp::Collective {
                    collective: Collective::AllReduce,
                    size: DataSize::from_mib(64),
                    group: g,
                },
                &[],
            );
        }
        let report = simulate(&b.build().unwrap(), &topo, &SystemConfig::default()).unwrap();
        let single = {
            let mut b = TraceBuilder::new(16);
            let g = b.add_group((0..4).collect());
            for npu in 0..4 {
                b.node(
                    npu,
                    "ar",
                    EtOp::Collective {
                        collective: Collective::AllReduce,
                        size: DataSize::from_mib(64),
                        group: g,
                    },
                    &[],
                );
            }
            simulate(&b.build().unwrap(), &topo, &SystemConfig::default()).unwrap()
        };
        let ratio = report.total_time.as_us_f64() / single.total_time.as_us_f64();
        assert!(ratio > 1.9, "two back-to-back collectives: {ratio}");
    }

    #[test]
    fn pipeline_trace_creates_bubbles() {
        let mut model = models::gpt3_175b();
        model.layers.truncate(16);
        let trace = parallelism::generate_trace(
            &model,
            Parallelism::Pipeline {
                stages: 4,
                microbatches: 4,
            },
            16,
        )
        .unwrap();
        let report = simulate(&trace, &small_topo(), &SystemConfig::default()).unwrap();
        assert!(report.p2p_messages > 0);
        // Pipeline fill/drain leaves idle time on the stages.
        assert!(report.breakdown.exposed_idle > Time::ZERO);
    }

    #[test]
    fn themis_scheduler_helps_multidim_allreduce() {
        // A bandwidth-bound world All-Reduce (the Fig. 9a microbenchmark).
        let mut b = TraceBuilder::new(512);
        let world = b.add_group((0..512).collect());
        for npu in 0..512 {
            b.node(
                npu,
                "ar",
                EtOp::Collective {
                    collective: Collective::AllReduce,
                    size: DataSize::from_gib(1),
                    group: world,
                },
                &[],
            );
        }
        let trace = b.build().unwrap();
        let base = simulate(&trace, &topo512(), &SystemConfig::default()).unwrap();
        let themis = simulate(
            &trace,
            &topo512(),
            &SystemConfig {
                scheduler: SchedulerPolicy::Themis,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            themis.total_time.as_us_f64() < base.total_time.as_us_f64() * 0.95,
            "themis {} vs baseline {}",
            themis.total_time,
            base.total_time
        );
    }

    #[test]
    fn themis_within_noise_on_mixed_workloads() {
        // On an All-to-All heavy workload (DLRM) the scheduler cannot help,
        // but it must not meaningfully hurt either.
        let trace =
            parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 512).unwrap();
        let base = simulate(&trace, &topo512(), &SystemConfig::default()).unwrap();
        let themis = simulate(
            &trace,
            &topo512(),
            &SystemConfig {
                scheduler: SchedulerPolicy::Themis,
                ..Default::default()
            },
        )
        .unwrap();
        let ratio = themis.total_time.as_us_f64() / base.total_time.as_us_f64();
        assert!(ratio < 1.05, "{ratio}");
    }

    fn pipeline_trace_16() -> ExecutionTrace {
        let mut model = models::gpt3_175b();
        model.layers.truncate(16);
        parallelism::generate_trace(
            &model,
            Parallelism::Pipeline {
                stages: 4,
                microbatches: 4,
            },
            16,
        )
        .unwrap()
    }

    #[test]
    fn every_network_backend_drives_pipeline_p2p() {
        // The backend choice governs the p2p (NetworkAPI) path; a pipeline
        // workload exercises it on all four kinds.
        let trace = pipeline_trace_16();
        let mut totals = Vec::new();
        for kind in NetworkBackendKind::ALL {
            let config = SystemConfig {
                network_backend: kind,
                ..SystemConfig::default()
            };
            let report = simulate(&trace, &small_topo(), &config).unwrap();
            assert!(report.p2p_messages > 0, "{kind}");
            assert!(report.total_time > Time::ZERO, "{kind}");
            totals.push((kind, report.total_time));
        }
        // The store-and-forward packet backends charge per-link bandwidth
        // (a ring link carries half the aggregate), so they cannot be
        // faster than the congestion-free analytical equation.
        let by_kind = |k: NetworkBackendKind| totals.iter().find(|&&(kk, _)| kk == k).unwrap().1;
        assert!(by_kind(NetworkBackendKind::Packet) >= by_kind(NetworkBackendKind::Analytical));
    }

    #[test]
    fn pipeline_p2p_hits_the_analytical_delay_memo() {
        // A pipeline re-sends the same activation size between the same
        // stage pairs every microbatch: after the first query per
        // (src, dst, size) triple, everything comes from the memo.
        let report = simulate(
            &pipeline_trace_16(),
            &small_topo(),
            &SystemConfig::default(),
        )
        .unwrap();
        assert!(report.p2p_messages > 0);
        assert_eq!(report.network.messages, report.p2p_messages);
        assert!(
            report.network.cache_hits > report.p2p_messages / 2,
            "{} hits for {} messages",
            report.network.cache_hits,
            report.p2p_messages
        );
        // The async NetworkAPI (the default) builds one backend for the
        // whole run.
        assert_eq!(report.network.backend_setups, 1);
    }

    #[test]
    fn collective_only_workloads_never_build_a_network_backend() {
        let trace =
            parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, 16).unwrap();
        let report = simulate(&trace, &small_topo(), &SystemConfig::default()).unwrap();
        assert_eq!(report.p2p_messages, 0);
        assert_eq!(report.network, NetworkStats::default());
    }

    #[test]
    fn packet_and_batched_backends_are_bit_identical() {
        // On this switch-crossing pipeline no two co-resident trains share
        // a link (each lane has its own switch plane), so batched transport
        // stays a pure speed knob on the async path and on the blocking
        // reference alike.
        let trace = pipeline_trace_16();
        let paths: [(&str, SimFn); 2] = [
            ("async", simulate),
            ("blocking reference", simulate_blocking_reference),
        ];
        for (path, sim) in paths {
            let run = |kind| {
                let config = SystemConfig {
                    network_backend: kind,
                    ..SystemConfig::default()
                };
                sim(&trace, &small_topo(), &config).unwrap()
            };
            let packet = run(NetworkBackendKind::Packet);
            let batched = run(NetworkBackendKind::Batched);
            assert_eq!(packet.total_time, batched.total_time, "{path}");
            assert_eq!(
                packet.breakdown.exposed_comm,
                batched.breakdown.exposed_comm
            );
            assert_eq!(packet.per_npu_finish, batched.per_npu_finish);
            assert_eq!(batched.network.train_serializations, 0, "{path}");
        }
    }

    #[test]
    fn moe_simulation_produces_five_way_breakdown() {
        let moe = models::moe_1t();
        let mut model = moe;
        model.layers.truncate(2);
        let trace =
            parallelism::generate_disaggregated_moe(&model, 256, &Default::default()).unwrap();
        let topo = Topology::parse("SW(16)@256_SW(16)@256").unwrap();
        let config = SystemConfig {
            roofline: Roofline::table5_gpu(),
            local_memory: astra_memory::presets::case_study_hbm(),
            remote_memory: Some(PoolArchitecture::Hierarchical(
                astra_memory::presets::hiermem_baseline(),
            )),
            ..Default::default()
        };
        let report = simulate(&trace, &topo, &config).unwrap();
        let b = &report.breakdown;
        assert!(b.compute > Time::ZERO);
        assert!(b.exposed_comm > Time::ZERO);
        assert!(b.exposed_remote_mem > Time::ZERO);
        assert_eq!(b.total(), report.total_time);
    }
}
