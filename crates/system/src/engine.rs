//! The graph execution engine.

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use astra_collectives::{
    lowering, Collective, CollectiveEngine, CollectiveMode, CollectivePlan, CollectiveProgram,
    SchedulerPolicy,
};
use astra_des::{
    attribute_exclusive, attribute_exclusive_intervals, DataSize, EventQueue, FifoResource,
    IntervalLog, Time,
};
use astra_garnet::TransportMode;
use astra_memory::{LocalMemory, PoolArchitecture, RemoteMemory, TransferMode};
use astra_network::{
    Completion, NetworkBackend, NetworkBackendKind, NetworkStats, SharedDelayMemo, SharedRouteTable,
};
use astra_telemetry::{
    ChunkOpSpan, CollectiveSpan, DepEdge, Marker, MetricsReport, NpuTimeline, SimTrace, TraceSink,
};
use astra_topology::{
    Dimension, FaultError, FaultKind, FaultSchedule, FaultedGraph, NpuId, Topology,
};
use astra_workload::{EtNode, EtOp, ExecutionTrace, Roofline, TensorLocation};

use crate::orbits::Orbits;
use crate::report::FaultImpact;
use crate::setup::{build_backend, prepare, Setup, Spans};
use crate::ties::Ties;
use crate::{Breakdown, CacheStats, SimReport};

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
    /// same point regardless of warm state, and on the packet backend the
    /// error is the per-packet run's.
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

/// A graph node of one NPU block's representative (see [`Orbits`]).
#[derive(Copy, Clone, Debug)]
struct Event {
    block: usize,
    node: u32,
    /// Where the step that scheduled it stands among its instant's (see
    /// [`Ties`]); 0 outside quotient runs.
    origin: u32,
}

#[derive(Copy, Clone, Debug)]
enum EngineEvent {
    /// A graph node finished.
    Node(Event),
    /// This source's NIC lane just freed: inject its next queued p2p
    /// message (async path only).
    InjectP2p(NpuId),
    /// A chunk op's predecessor (the previous phase of its chunk)
    /// completed at this instant: hand the op to its source NIC lane.
    /// Readiness is an engine event (not applied at completion-drain time)
    /// so lane FIFO order always equals ready order — closed-form backends
    /// resolve completions far in the simulated future, and enqueueing the
    /// successor immediately would let a not-yet-ready op block the lane
    /// head.
    ChunkReady {
        /// Running-collective instance id.
        coll: u32,
        /// Op id within the instance's program.
        op: u64,
    },
}

/// One graph node's arrival at a collective meeting: the NPU block, the
/// node, and the instant it arrived.
type Arrival = (usize, u32, Time);

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

/// The collective rendezvous of one group block (see [`Engine::arrive`]).
struct Rendezvous {
    /// Per member rank (its index in the span's sorted member blocks): the
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
/// representative wire endpoints. On a NIC queue it can stand for a
/// counted run of root ops (see [`Engine::pop_nic`]).
struct ChunkSend {
    /// The running collective's key in [`Engine::running_collectives`].
    coll: u32,
    /// Op id within the instance's program.
    op: u64,
    src: NpuId,
    dst: NpuId,
    size: DataSize,
    /// When the op's predecessor (including its extra step latency)
    /// completed — the earliest instant it may enter the wire.
    ready: Time,
    /// Root ops of the next chunks queued behind this one as one entry:
    /// ops `op + k × phases` for `k` in `1..=more`. Zero once in flight.
    more: u64,
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

/// A table of live entries, each reached by the `u32` key it was
/// inserted under (its slot). A removed entry's slot goes to the next
/// insert, so the table holds as many slots as entries were ever live at
/// once, and a lookup is one index.
struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Slots of removed entries, reused last-freed first.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns its key.
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(key) => {
                self.slots[key as usize] = Some(value);
                key
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(key as usize)?.as_ref()
    }

    fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.slots.get_mut(key as usize)?.as_mut()
    }

    /// Takes the entry out and frees its slot.
    fn remove(&mut self, key: u32) -> Option<T> {
        let value = self.slots.get_mut(key as usize)?.take()?;
        self.free.push(key);
        Some(value)
    }

    fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }
}

/// A backend-executed collective in flight: the lowered program, the ops
/// still to complete and the meeting it resumes on finish. Its size does
/// not depend on the chunk count.
struct RunningCollective {
    arrivals: Vec<Arrival>,
    program: Arc<CollectiveProgram>,
    remaining_ops: u64,
    /// Running maximum of op completions (incl. extra step latency).
    finish: Time,
    /// Communicator group: its span binds each local dimension to its
    /// `(src, dst)` wire endpoints.
    group: u32,
    /// Rendezvous instant the program launched at.
    start: Time,
    /// Run-wide collective sequence number shared with the closed-form
    /// path, keying this instance's telemetry spans and edges.
    trace_id: u64,
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
/// consulted on local-memo misses, skipping recomputation of delays and
/// routes another run already produced.
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
    run_exact(trace, topo, config, warm, false, true).0
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
    run_exact(trace, topo, config, warm, config.telemetry, true)
}

/// Runs the engine to the per-packet answer on one [`prepare`]d set-up.
/// With `collapse`, an eligible run simulates one NPU per orbit (see
/// [`Orbits`]); one whose quotient sees a tie it cannot vouch for
/// ([`Ties`]) is rerun whole. The packet backend runs on train transport
/// first, and again per-packet when that run is inexact or trips a budget.
/// A train run counts a message's packet-hops when it is sent rather than
/// as they pop, so it trips a budget exactly when the per-packet run does,
/// only earlier.
pub(crate) fn run_exact(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
    traced: bool,
    collapse: bool,
) -> (Result<SimReport, SimError>, Option<SimTrace>) {
    let setup = match prepare(trace, topo, config) {
        Ok(setup) => setup,
        Err(e) => return (Err(e), None),
    };
    if collapse {
        if let Some((_, result)) = run_quotient(trace, topo, config, warm, &setup) {
            return (result, None);
        }
    }
    // Only a packet run may need a per-packet rerun, on the same set-up.
    let rerun = (config.network_backend == NetworkBackendKind::Packet).then(|| setup.clone());
    let transport = TransportMode::Batched;
    let (result, sim_trace, exact) = run_on(trace, topo, config, warm, transport, traced, setup);
    match rerun {
        Some(setup) if !exact || matches!(result, Err(SimError::BudgetExceeded { .. })) => {
            let transport = TransportMode::PerPacket;
            let rerun = run_on(trace, topo, config, warm, transport, traced, setup);
            (rerun.0, rerun.1)
        }
        _ => (result, sim_trace),
    }
}

/// The run on its orbit quotient and its number of NPU blocks, or `None`
/// when it is not eligible, does not collapse, or sees a tie (see
/// [`Orbits::collapse`]). An eligible run records no telemetry and builds
/// no backend, so the report is all it yields.
pub(crate) fn run_quotient(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
    setup: &Setup,
) -> Option<(usize, Result<SimReport, SimError>)> {
    let (orbits, spans) = Orbits::collapse(trace, topo, config, &setup.spans)?;
    let blocks = orbits.reps.len();
    // An eligible run is fault-free: no impact rows, no fabric.
    let quotient = Setup {
        spans,
        impacts: Vec::new(),
        fabric: None,
    };
    let mut engine = Engine::new(trace, topo, config, warm, orbits, quotient);
    let result = engine.run();
    (!engine.tied()).then_some((blocks, result))
}

/// One whole engine run with a packet backend on `transport`: the result,
/// its trace when `traced`, and whether the backend vouched for its answer
/// ([`NetworkBackend::exact`]).
pub(crate) fn run_on(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
    transport: TransportMode,
    traced: bool,
    setup: Setup,
) -> (Result<SimReport, SimError>, Option<SimTrace>, bool) {
    let orbits = Orbits::identity(trace.npus(), setup.spans.len(), topo.num_dims());
    let mut engine = Engine::new(trace, topo, config, warm, orbits, setup);
    engine.transport = transport;
    let result = engine.run();
    let exact = engine.network.as_ref().is_none_or(|net| net.exact());
    let (result, sim_trace) = if traced {
        engine.with_trace(result)
    } else {
        (result, None)
    };
    (result, sim_trace, exact)
}

/// The engine state of one run. Per-NPU state (dependency counts,
/// resources, logs, finish times, NIC lanes) is indexed by NPU block (see
/// [`Orbits`]); a block is one NPU in every run that can send p2p
/// messages, execute collectives on the backend, inject faults or record
/// telemetry, so those paths use NPU ids and block ids interchangeably.
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
    /// The run's partition into blocks.
    orbits: Orbits,
    /// Per group block: its span.
    spans: Spans,
    /// The fabric [`prepare`] applied, until [`Engine::network_mut`] hands
    /// it to the backend it builds.
    fabric: Option<FaultedGraph>,

    queue: EventQueue<EngineEvent>,
    /// Per block, per node: dependencies not yet completed, or
    /// [`FINISHED`] once the node itself has completed.
    remaining_deps: Vec<Vec<u32>>,
    /// Per stored program (the trace's classes): its reverse graph.
    dependents: Vec<Dependents>,
    /// Graph nodes completed so far, and how many the trace holds.
    nodes_done: usize,
    nodes_total: usize,

    compute_res: Vec<FifoResource>,
    local_res: Vec<FifoResource>,
    remote_res: Vec<FifoResource>,
    /// Per lane (see [`crate::setup::GroupSpan::lanes`]): when it frees.
    lanes: Vec<Time>,
    /// Closed-form plans that read no backlog (the Baseline scheduler's),
    /// memoized per `(group block, collective, size)`.
    plans: BTreeMap<(u32, Collective, DataSize), CollectivePlan>,
    /// The plan of a meeting whose plan reads the backlog, and the
    /// backlog it read; reused from meeting to meeting.
    plan: CollectivePlan,
    backlog: Vec<Time>,

    logs: Vec<[IntervalLog; 4]>,
    finish: Vec<Time>,

    /// Per group block: its collective rendezvous.
    rendezvous: Vec<Rendezvous>,
    /// Emptied meeting vectors, reused by the next meetings to open.
    meetings: Vec<Vec<Arrival>>,
    p2p_pending: BTreeMap<(NpuId, NpuId, u64), P2pPending>,
    /// Messages on the async backend, keyed by the token each was sent
    /// under. Each NIC lane carries one message at a time, so this holds
    /// at most one entry per block.
    in_flight: Slab<Outbound>,
    /// Per source NIC lane: whether an injected message's completion is
    /// still undiscovered, when the lane is known to free, and the messages
    /// queued behind it. Invariant: an `InjectP2p` event is pending iff
    /// the queue is non-empty and the lane is not occupied.
    nic_occupied: Vec<bool>,
    nic_free: Vec<Time>,
    nic_queue: Vec<VecDeque<Outbound>>,
    completions: Vec<Completion>,

    /// Backend-executed collectives in flight (`CollectiveMode::Backend`).
    /// A drained collective's slot goes to the next launch, so the table
    /// follows the collectives in flight, not every collective run.
    running_collectives: Slab<RunningCollective>,
    /// Lowered programs memoized per `(group, collective, size)` — a
    /// training loop re-issues the same collective every iteration/layer,
    /// so lowering runs once per distinct shape.
    program_memo: BTreeMap<(u32, Collective, DataSize), Arc<CollectiveProgram>>,
    /// Per-run program-memo hit/miss counters.
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
    impacts: Vec<FaultImpact>,
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
    /// Transport of a packet backend built by [`Engine::network_mut`].
    transport: TransportMode,
    /// Tie checks, present iff the run is a quotient (see [`Ties`]).
    ties: Option<Ties>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        trace: &'a ExecutionTrace,
        topo: &'a Topology,
        config: &'a SystemConfig,
        warm: &'a WarmState,
        orbits: Orbits,
        setup: Setup,
    ) -> Self {
        let Setup {
            spans,
            impacts,
            fabric,
        } = setup;
        let blocks = orbits.reps.len();
        // Reverse graphs and initial dependency counts once per stored
        // program; every block starts from a copy of its class's counts.
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
        let remaining_deps: Vec<Vec<u32>> = orbits
            .reps
            .iter()
            .map(|&npu| counts[trace.class_of(npu)].clone())
            .collect();
        let nodes_total = orbits
            .reps
            .iter()
            .map(|&npu| trace.program(npu).len())
            .sum();
        let rendezvous = spans
            .iter()
            .map(|span| Rendezvous {
                issued: vec![0; span.members.len()],
                completed: 0,
                open: VecDeque::new(),
            })
            .collect();
        // A faulted run is never collapsed: an NPU is its own block.
        let mut stragglers: Vec<Vec<(Time, u32, usize)>> = vec![Vec::new(); blocks];
        for (idx, ev) in config.faults.events().iter().enumerate() {
            if let FaultKind::NpuSlowdown { npu, slowdown_pct } = ev.kind {
                if npu < blocks {
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
            lanes: vec![Time::ZERO; orbits.lanes],
            plans: BTreeMap::new(),
            plan: CollectivePlan::default(),
            backlog: Vec::new(),
            ties: (blocks < trace.npus()).then(|| Ties::new(&orbits, &spans, &remaining_deps)),
            orbits,
            spans,
            fabric,
            queue: EventQueue::new(),
            remaining_deps,
            dependents,
            nodes_done: 0,
            nodes_total,
            compute_res: vec![FifoResource::new(); blocks],
            local_res: vec![FifoResource::new(); blocks],
            remote_res: vec![FifoResource::new(); blocks],
            logs: (0..blocks).map(|_| Default::default()).collect(),
            finish: vec![Time::ZERO; blocks],
            rendezvous,
            meetings: Vec::new(),
            p2p_pending: BTreeMap::new(),
            in_flight: Slab::new(),
            nic_occupied: vec![false; blocks],
            nic_free: vec![Time::ZERO; blocks],
            nic_queue: (0..blocks).map(|_| VecDeque::new()).collect(),
            completions: Vec::new(),
            running_collectives: Slab::new(),
            program_memo: BTreeMap::new(),
            lowering_hits: 0,
            lowering_misses: 0,
            chunk_ops: 0,
            collectives: 0,
            p2p_messages: 0,
            stragglers,
            impacts,
            events_popped: 0,
            sink: config.telemetry.then(TraceSink::new),
            trace_seq: 0,
            transport: TransportMode::Batched,
        }
    }

    /// Whether this run was a quotient that saw a tie (see [`Ties`]): its
    /// result is void, and the run has to be redone whole.
    pub(crate) fn tied(&self) -> bool {
        self.ties.as_ref().is_some_and(|ties| ties.tied)
    }

    /// The current issue uses `block`'s resource `res`: checks the use
    /// against the block's last one and returns the origin of the
    /// completion event (see [`Ties::resource`]); 0 outside a quotient.
    fn tie_origin(&mut self, block: usize, res: usize) -> Result<u32, SimError> {
        self.ties
            .as_mut()
            .map_or(Ok(0), |ties| ties.resource(block, res))
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
        let impact = &mut self.impacts[idx];
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
        let (topo, config, warm, transport) = (self.topo, self.config, self.warm, self.transport);
        let fabric = &mut self.fabric;
        let net = self
            .network
            .get_or_insert_with(|| build_backend(topo, config, warm, transport, fabric.take()));
        if first && record {
            net.set_telemetry(true);
        }
        net.as_mut()
    }

    /// Trace assembly after [`Engine::run`]: turns the sink's records, the
    /// per-NPU interval logs, and the backend's link grants into a
    /// canonical [`SimTrace`], attaching the derived [`MetricsReport`] to a
    /// successful report. Budget-tripped runs still yield the partial trace
    /// (with a `budget_exceeded` marker) alongside the error.
    fn with_trace(
        &mut self,
        mut result: Result<SimReport, SimError>,
    ) -> (Result<SimReport, SimError>, Option<SimTrace>) {
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
    pub(crate) fn run(&mut self) -> Result<SimReport, SimError> {
        // Seed: every node with no dependencies is ready at t = 0.
        for block in 0..self.orbits.reps.len() {
            for idx in 0..self.remaining_deps[block].len() {
                if self.remaining_deps[block][idx] == 0 {
                    if let Some(ties) = &mut self.ties {
                        ties.seed(block, idx as u32);
                    }
                    self.issue(block, idx as u32, Time::ZERO)?;
                }
            }
        }
        self.drain_network()?;
        loop {
            // One shared clock: before popping the engine's next event,
            // give the backend every internal event up to (and including,
            // so completions win FIFO ties) that instant. Messages sent
            // later always carry later timestamps, so the backend never
            // has to run ahead of the engine frontier. Only a completion
            // can change the engine's state, so the backend may run on to
            // its next one in a single call; under a budget it runs one
            // instant per call, so the budget trips at the same instant.
            while !self.in_flight.is_empty() {
                let Some(net) = self.network.as_mut() else {
                    return Err(SimError::Internal("in-flight p2p without a backend"));
                };
                let mut limit = self.queue.peek_time().unwrap_or(Time::MAX);
                if self.config.max_events.is_some() || self.config.max_sim_time.is_some() {
                    let Some(t) = net.next_event_time() else {
                        break;
                    };
                    limit = limit.min(t);
                }
                let Some(t) = net.advance_to_completion(limit) else {
                    break;
                };
                self.drain_network()?;
                self.check_budget(t)?;
            }
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            self.events_popped += 1;
            self.check_budget(now)?;
            match event {
                EngineEvent::Node(Event {
                    block,
                    node,
                    origin,
                }) => {
                    if let Some(ties) = &mut self.ties {
                        ties.pop(now, origin, self.events_popped);
                    }
                    self.finish[block] = self.finish[block].max(now);
                    self.nodes_done += 1;
                    let node = node as usize;
                    self.remaining_deps[block][node] = FINISHED;
                    let class = self.trace.class_of(self.orbits.reps[block]);
                    let offsets = &self.dependents[class].offsets;
                    let first = offsets[node] as usize;
                    for i in first..offsets[node + 1] as usize {
                        let dependent = self.dependents[class].targets[i];
                        let slot = &mut self.remaining_deps[block][dependent as usize];
                        *slot -= 1;
                        let ready = *slot == 0;
                        if let Some(ties) = &mut self.ties {
                            ties.complete(block, dependent, (i - first) as u32, ready)?;
                        }
                        if ready {
                            self.issue(block, dependent, now)?;
                        }
                    }
                }
                EngineEvent::InjectP2p(src) => {
                    let Some(msg) = self.pop_nic(src)? else {
                        return Err(SimError::Internal(
                            "InjectP2p event fired with an empty NIC queue",
                        ));
                    };
                    self.inject_p2p(msg, now);
                }
                EngineEvent::ChunkReady { coll, op } => {
                    self.enqueue_chunk_op(coll, op, now, 0)?;
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
        for (logs, &size) in self.logs.iter().zip(&self.orbits.sizes) {
            let parts = attribute_exclusive(
                &[&logs[COMPUTE], &logs[COMM], &logs[REMOTE], &logs[LOCAL]],
                horizon,
            );
            for (sum, part) in sums.iter_mut().zip(&parts) {
                *sum += *part * size;
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
            per_npu_finish: self.orbits.expand(&self.finish),
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
            faults: std::mem::take(&mut self.impacts),
            metrics: None,
        })
    }

    /// The error for a run whose queue drained with nodes unfinished:
    /// names the lowest `(npu, node)` that never completed. Blocks are
    /// numbered in representative order and every NPU of a block shares
    /// its representative's state, so the first stuck block's
    /// representative is that NPU.
    fn stalled(&self) -> SimError {
        self.remaining_deps
            .iter()
            .zip(&self.orbits.reps)
            .find_map(|(deps, &npu)| {
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

    /// Dispatches a node of `block` whose dependencies are all complete at
    /// `now`.
    // astra-lint: hot-path
    fn issue(&mut self, block: usize, node: u32, now: Time) -> Result<(), SimError> {
        let npu = self.orbits.reps[block];
        let op = self.trace.program(npu)[node as usize].op;
        match op {
            EtOp::Compute { flops, tensor } => {
                let service = self.config.roofline.compute_time(flops, tensor);
                let service = self.stretched_compute(block, now, service);
                let origin = self.tie_origin(block, COMPUTE)?;
                let r = self.compute_res[block].acquire(now, service);
                self.logs[block][COMPUTE].push(r.start, r.end);
                self.queue.schedule_at(
                    r.end,
                    EngineEvent::Node(Event {
                        block,
                        node,
                        origin,
                    }),
                );
            }
            EtOp::Memory {
                location: TensorLocation::Local,
                size,
                ..
            } => {
                let service = self.config.local_memory.access_time(size);
                let origin = self.tie_origin(block, LOCAL)?;
                let r = self.local_res[block].acquire(now, service);
                self.logs[block][LOCAL].push(r.start, r.end);
                self.queue.schedule_at(
                    r.end,
                    EngineEvent::Node(Event {
                        block,
                        node,
                        origin,
                    }),
                );
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
                let origin = self.tie_origin(block, REMOTE)?;
                let r = self.remote_res[block].acquire(now, service);
                // In-switch collective transfers are communication through
                // the pool fabric; plain transfers are remote-memory time.
                let category = if gathered { COMM } else { REMOTE };
                self.logs[block][category].push(r.start, r.end);
                self.queue.schedule_at(
                    r.end,
                    EngineEvent::Node(Event {
                        block,
                        node,
                        origin,
                    }),
                );
            }
            EtOp::Collective { group, .. } => {
                let group = self.orbits.group_block(self.trace.group_of(npu, group).0);
                self.arrive(group, block, node, now)?;
            }
            EtOp::PeerSend { peer, size, tag } => {
                let peer = self.trace.peer_of(npu, peer);
                let entry = self.p2p_pending.entry((npu, peer, tag)).or_default();
                entry.send = Some((node, now));
                if entry.recv.is_some() {
                    self.resolve_p2p(npu, peer, tag, size)?;
                }
            }
            EtOp::PeerRecv { peer, size, tag } => {
                let peer = self.trace.peer_of(npu, peer);
                let entry = self.p2p_pending.entry((peer, npu, tag)).or_default();
                entry.recv = Some((node, now));
                if entry.send.is_some() {
                    self.resolve_p2p(peer, npu, tag, size)?;
                }
            }
        }
        Ok(())
    }

    /// Adds a collective node's arrival to its group block's meeting and,
    /// once every member block has arrived, launches the collective.
    /// Member `rank`'s
    /// `k`-th arrival joins instance `k`, so each meeting holds at most one
    /// arrival per member, and a member reaches instance `k + 1` only after
    /// instance `k`: meetings fill in instance order, and only the front
    /// open meeting can be full.
    // astra-lint: hot-path
    fn arrive(&mut self, group: u32, block: usize, node: u32, now: Time) -> Result<(), SimError> {
        let unaligned = SimError::UnalignedGroup {
            group: group as usize,
        };
        let (Some(span), Some(rv)) = (
            self.spans.get(group as usize),
            self.rendezvous.get_mut(group as usize),
        ) else {
            return Err(unaligned);
        };
        let Ok(rank) = span.members.binary_search(&block) else {
            return Err(unaligned);
        };
        if let Some(ties) = &mut self.ties {
            ties.arrive(group as usize, rank)?;
        }
        let members = span.members.len();
        let slot = (rv.issued[rank] - rv.completed) as usize;
        rv.issued[rank] += 1;
        if slot == rv.open.len() {
            let meeting = self.meetings.pop();
            rv.open
                .push_back(meeting.unwrap_or_else(|| Vec::with_capacity(members)));
        }
        rv.open[slot].push((block, node, now));
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

    /// Runs a full meeting of group block `group`, which stands for
    /// `group_sizes[group]` trace groups meeting at once.
    fn run_collective(&mut self, group: u32, mut arrivals: Vec<Arrival>) -> Result<(), SimError> {
        self.collectives += self.orbits.group_sizes[group as usize];
        let span = self.spans.span(group as usize);
        let start = arrivals
            .iter()
            .map(|&(_, _, t)| t)
            .fold(Time::ZERO, Time::max);
        let first = self.orbits.reps[arrivals[0].0];
        let (collective, size) = match self.trace.program(first)[arrivals[0].1 as usize].op {
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
            return self
                .launch_backend_collective(group, collective, size, start, arrivals, trace_id);
        }
        let origins: &[u32] = match &mut self.ties {
            Some(ties) => {
                let ranks = arrivals
                    .iter()
                    .map(|&(block, _, _)| span.members.binary_search(&block).unwrap_or_default());
                ties.launch(group as usize, ranks, span.lanes)?
            }
            None => &[],
        };
        // A plan that reads no backlog is memoized per group block and
        // shape; a Themis plan is made afresh in one reused plan.
        let plan = if self.config.scheduler == SchedulerPolicy::Baseline {
            let engine = self.collective_engine;
            self.plans
                .entry((group, collective, size))
                .or_insert_with(|| {
                    let mut plan = CollectivePlan::default();
                    engine.plan_into(collective, size, span.dims, &[], &mut plan);
                    plan
                })
        } else {
            self.backlog.clear();
            let lanes = &self.lanes;
            self.backlog.extend(
                span.lanes
                    .iter()
                    .map(|&lane| lanes[lane].saturating_sub(start)),
            );
            self.collective_engine.plan_into(
                collective,
                size,
                span.dims,
                &self.backlog,
                &mut self.plan,
            );
            &self.plan
        };
        // Per-fault attribution needs the lanes as the collective found
        // them; fault-free spans skip it.
        let degraded = span.degraded.iter().any(Option::is_some);
        let available: Vec<Time> = if degraded {
            span.lanes.iter().map(|&lane| self.lanes[lane]).collect()
        } else {
            Vec::new()
        };
        let finish = plan.finish(start, &mut self.lanes, span.lanes);
        // Per-fault attribution: re-run the closed form with the pristine
        // dimensions and charge the finish delta to the first schedule
        // event that degraded a spanned dimension.
        if degraded {
            let pristine: Vec<Dimension> = span
                .dims
                .iter()
                .zip(span.degraded)
                .map(|(&d, degraded)| degraded.map_or(d, |(p, _)| p))
                .collect();
            let baseline = self
                .collective_engine
                .run_at(collective, size, &pristine, start, &available);
            if let Some(event) = span.degraded.iter().flatten().map(|&(_, e)| e).min() {
                let impact = &mut self.impacts[event];
                impact.extra_time += finish.saturating_sub(baseline.finish);
            }
        }
        if let Some(sink) = &mut self.sink {
            sink.collectives.push(CollectiveSpan {
                id: trace_id,
                group,
                start,
                finish,
            });
        }
        for (j, &(block, node, ready)) in arrivals.iter().enumerate() {
            if finish > ready {
                self.logs[block][COMM].push(ready, finish);
            }
            let origin = origins.get(j).copied().unwrap_or_default();
            self.queue.schedule_at(
                finish,
                EngineEvent::Node(Event {
                    block,
                    node,
                    origin,
                }),
            );
        }
        arrivals.clear();
        self.meetings.push(arrivals);
        Ok(())
    }

    /// Lowers a collective to its chunk-level program and starts executing
    /// it on the co-resident network backend: the root ops (every chunk's
    /// first phase) enter their source's NIC lane at the meeting's
    /// rendezvous instant as one counted run; every later op issues when
    /// its predecessor completes.
    fn launch_backend_collective(
        &mut self,
        group: u32,
        collective: Collective,
        size: DataSize,
        start: Time,
        arrivals: Vec<Arrival>,
        trace_id: u64,
    ) -> Result<(), SimError> {
        let program = match self.program_memo.get(&(group, collective, size)) {
            Some(program) => {
                self.lowering_hits += 1;
                Arc::clone(program)
            }
            None => {
                self.lowering_misses += 1;
                let dims = self.spans.span(group as usize).dims;
                let chunks = self.config.collective_chunks;
                let program = Arc::new(lowering::lower(collective, size, dims, chunks));
                self.program_memo
                    .insert((group, collective, size), Arc::clone(&program));
                program
            }
        };
        let chunks = program.chunks();
        let coll = self.running_collectives.insert(RunningCollective {
            arrivals,
            remaining_ops: program.len(),
            program,
            finish: start,
            group,
            start,
            trace_id,
        });
        // The meeting completes at the engine's current instant, so the
        // root ops (op 0 and every later chunk's first phase) are ready
        // right now.
        self.enqueue_chunk_op(coll, 0, start, chunks - 1)
    }

    /// Binds a ready chunk op, plus the `more` root ops of the next chunks
    /// when `op` is a root, to its wire endpoints and hands them to the
    /// source's NIC lane as one entry.
    fn enqueue_chunk_op(
        &mut self,
        coll: u32,
        op: u64,
        ready: Time,
        more: u64,
    ) -> Result<(), SimError> {
        let Some(rc) = self.running_collectives.get(coll) else {
            return Err(SimError::Internal(
                "ready chunk op does not belong to a running collective",
            ));
        };
        let meta = rc.program.op(op);
        let (src, dst) = self.spans.wire(rc.group as usize, meta.dim);
        self.chunk_ops += 1 + more;
        self.enqueue_outbound(Outbound::Chunk(ChunkSend {
            coll,
            op,
            src,
            dst,
            size: meta.size,
            ready,
            more,
        }))
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
    fn enqueue_outbound(&mut self, msg: Outbound) -> Result<(), SimError> {
        let src = msg.src();
        let ready = msg.ready();
        // A busy lane or a non-empty queue means an InjectP2p follow-up is
        // (or will be) scheduled by the occupying message's completion.
        let idle = !self.nic_occupied[src] && self.nic_queue[src].is_empty();
        self.nic_queue[src].push_back(msg);
        if !idle {
            return Ok(());
        }
        let at = ready.max(self.nic_free[src]);
        if at > self.queue.now() {
            self.queue.schedule_at(at, EngineEvent::InjectP2p(src));
        } else if let Some(msg) = self.pop_nic(src)? {
            self.inject_p2p(msg, at);
        }
        Ok(())
    }

    /// Takes the next message off `src`'s NIC queue. A counted run of root
    /// ops yields its first op and keeps the rest at the queue head, so
    /// each root holds the FIFO slot it would hold as its own entry.
    fn pop_nic(&mut self, src: NpuId) -> Result<Option<Outbound>, SimError> {
        if let Some(Outbound::Chunk(run)) = self.nic_queue[src].front_mut() {
            if run.more > 0 {
                let Some(rc) = self.running_collectives.get(run.coll) else {
                    return Err(SimError::Internal(
                        "queued chunk op does not belong to a running collective",
                    ));
                };
                let stride = rc.program.phases().len() as u64;
                let first = ChunkSend { more: 0, ..*run };
                run.op += stride;
                run.more -= 1;
                return Ok(Some(Outbound::Chunk(first)));
            }
        }
        Ok(self.nic_queue[src].pop_front())
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
        }))
    }

    /// Hands a resolved message to the async backend at `at` (never ahead
    /// of the engine clock — see [`Engine::enqueue_outbound`]), occupying
    /// the source's NIC lane. The message waits in [`Engine::in_flight`]
    /// under the token the backend hands back with its completion.
    fn inject_p2p(&mut self, msg: Outbound, at: Time) {
        let src = msg.src();
        debug_assert!(at >= msg.ready(), "message injected before it is ready");
        let (dst, size) = msg.dst_size();
        self.nic_occupied[src] = true;
        let token = self.in_flight.insert(msg);
        let net = self.network_mut();
        // A chunk op's lane can free before its predecessor's last-hop
        // propagation completed; the store-and-forward backend cannot
        // re-open that history, so the send clamps to its clock floor.
        let at = at.max(net.earliest_send_time());
        net.send_async(token, at, src, dst, size);
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
        let Some(msg) = self.in_flight.remove(c.token) else {
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
                        block: msg.src,
                        node: msg.send_node,
                        origin: 0,
                    }),
                );
                self.queue.schedule_at(
                    c.finish,
                    EngineEvent::Node(Event {
                        block: msg.dst,
                        node: msg.recv_node,
                        origin: 0,
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
    /// dimension, exactly as in the closed-form engine), readies the next
    /// phase of the same chunk `extra_latency` after it, and — once the
    /// program drains — resumes the meeting's graph nodes at the
    /// collective's finish.
    fn finish_chunk_op(&mut self, chunk: ChunkSend, wire_finish: Time) -> Result<(), SimError> {
        let Some(rc) = self.running_collectives.get_mut(chunk.coll) else {
            return Err(SimError::Internal(
                "chunk op does not belong to a running collective",
            ));
        };
        let meta = rc.program.op(chunk.op);
        let lane_free = wire_finish.saturating_sub(meta.wire_latency);
        let done = wire_finish + meta.extra_latency;
        rc.finish = rc.finish.max(done);
        rc.remaining_ops -= 1;
        let finished = rc.remaining_ops == 0;
        let coll = chunk.coll;
        let trace_id = rc.trace_id;
        let next = rc.program.next(chunk.op);
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
        // The next phase becomes ready `extra_latency` after the wire
        // finish — via a ChunkReady event, never by direct enqueue:
        // closed-form backends report `done` far ahead of the engine
        // clock, and an op queued before its ready instant could block its
        // lane's FIFO head while later-queued ops are already ready.
        if let Some(op) = next {
            self.queue
                .schedule_at(done, EngineEvent::ChunkReady { coll, op });
            if let Some(sink) = &mut self.sink {
                sink.dep_edges.push(DepEdge {
                    coll: trace_id,
                    from: chunk.op,
                    to: op,
                    at: done,
                });
            }
        }
        self.release_nic(chunk.src, lane_free);
        if finished {
            let Some(rc) = self.running_collectives.remove(chunk.coll) else {
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
            let mut arrivals = rc.arrivals;
            for &(block, node, ready) in &arrivals {
                if rc.finish > ready {
                    self.logs[block][COMM].push(ready, rc.finish);
                }
                self.queue.schedule_at(
                    rc.finish,
                    EngineEvent::Node(Event {
                        block,
                        node,
                        origin: 0,
                    }),
                );
            }
            arrivals.clear();
            self.meetings.push(arrivals);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Spans;
    use astra_collectives::Collective;
    use astra_workload::{models, parallelism, EtOp, Parallelism, TraceBuilder};

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
        let mut spans = Spans::new();
        let mut coords = Vec::new();
        // Contiguous 16-NPU group: spans dims 0 (k=2) and 1 (k=8).
        assert!(spans.push_group(&topo, &(0..16).collect::<Vec<_>>(), &mut coords));
        let span = spans.span(0);
        assert_eq!(span.axes, &[0, 1]);
        assert_eq!(span.dims[0].npus(), 2);
        assert_eq!(span.dims[1].npus(), 8);
        // Strided DP group: spans dims 2 and 3.
        let dp: Vec<usize> = (0..32).map(|i| i * 16).collect();
        assert!(spans.push_group(&topo, &dp, &mut coords));
        let span = spans.span(1);
        assert_eq!(span.axes, &[2, 3]);
        assert_eq!(span.members, &dp[..]);
    }

    #[test]
    fn unaligned_group_rejected() {
        let topo = small_topo();
        // Three members cannot form a sub-grid of a 4x4 topology, and a
        // rejected group leaves nothing behind.
        let mut spans = Spans::new();
        assert!(!spans.push_group(&topo, &[0, 1, 5], &mut Vec::new()));
        assert_eq!(spans.len(), 0);
        assert!(spans.push_group(&topo, &[4, 0], &mut Vec::new()));
        assert_eq!(spans.span(0).members, &[0, 4]);
        assert_eq!(spans.span(0).lanes.len(), spans.span(0).dims.len());
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
        // workload exercises it on every kind.
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

    /// perfbench's `packet-coll-64` run (GPT-3 MP8 on 64 NPUs, packet
    /// network, 2,304 backend collectives of 256 chunk ops each) reuses
    /// its tables' slots: the in-flight table never holds more than one
    /// message per NPU, since a NIC lane carries one message at a time,
    /// and the running-collective table no more than the most collectives
    /// ever live at once. Neither grows with the ops or collectives run.
    #[test]
    fn packet_collective_run_keeps_its_tables_at_the_live_peak() {
        let topo = Topology::parse("R(8)@250_SW(8)@100").unwrap();
        let trace = parallelism::generate_trace(
            &models::gpt3_175b(),
            Parallelism::Hybrid { mp: 8 },
            topo.npus(),
        )
        .unwrap();
        // Telemetry on, so the sink keeps each collective's span. The
        // backend is installed up front with link recording left off: the
        // per-packet link grants are not needed here.
        let config = SystemConfig {
            network_backend: NetworkBackendKind::Packet,
            collective_mode: CollectiveMode::Backend,
            telemetry: true,
            ..SystemConfig::default()
        };
        let warm = WarmState::default();
        let setup = prepare(&trace, &topo, &config).unwrap();
        let orbits = Orbits::identity(trace.npus(), setup.spans.len(), topo.num_dims());
        let mut engine = Engine::new(&trace, &topo, &config, &warm, orbits, setup);
        engine.network = Some(build_backend(
            &topo,
            &config,
            &warm,
            TransportMode::Batched,
            None,
        ));
        let report = engine.run().unwrap();
        assert_eq!(report.collectives, 2304);
        assert_eq!(report.collective_ops, 2304 * 256);
        assert!(engine.network.as_ref().unwrap().exact());

        assert!(engine.in_flight.is_empty());
        assert!(engine.in_flight.slots.len() <= topo.npus());

        // Each collective is live from its launch to its last op's
        // completion, within its span `[start, finish]`; the most spans
        // open at one instant bound the most collectives ever live.
        let spans = &engine.sink.as_ref().unwrap().collectives;
        assert_eq!(spans.len(), 2304);
        let mut edges: Vec<(Time, i32)> = spans
            .iter()
            .flat_map(|span| [(span.start, 1), (span.finish, -1)])
            .collect();
        // Opens before closes at one instant: closed intervals.
        edges.sort_by_key(|&(t, delta)| (t, -delta));
        let (mut open, mut peak) = (0i32, 0i32);
        for (_, delta) in edges {
            open += delta;
            peak = peak.max(open);
        }
        assert!(engine.running_collectives.is_empty());
        let slots = engine.running_collectives.slots.len();
        assert!(slots >= 1);
        assert!(
            slots <= peak as usize,
            "{slots} collective slots for a peak of {peak} live collectives"
        );
        assert!(peak < 2304 / 8, "{peak} collectives live at once");
    }
}
