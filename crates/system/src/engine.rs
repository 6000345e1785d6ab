//! The graph execution engine.
//!
//! This file is the core: the entry points, the event loop, node issue,
//! and collective meetings with their closed form. The rest of the
//! engine sits in submodules over the same [`Engine`]:
//!
//! * `nic`: NIC lanes and point-to-point messages on the co-resident
//!   async backend;
//! * `lowered`: backend-executed collectives, lowered to chunk ops that
//!   share those lanes;
//! * `faults`: the attribution of a run's time to its faults;
//! * `trace`: the telemetry trace assembled after a traced run;
//! * `config`: [`SystemConfig`] and [`WarmState`];
//! * `error`: [`SimError`].

mod config;
mod error;
mod faults;
mod lowered;
mod nic;
mod trace;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use astra_collectives::{
    Collective, CollectiveEngine, CollectiveMode, CollectivePlan, CollectiveProgram,
    SchedulerPolicy,
};
use astra_des::{attribute_exclusive, DataSize, EventQueue, FifoResource, IntervalLog, Time};
use astra_garnet::TransportMode;
use astra_memory::{RemoteMemory, TransferMode};
use astra_network::{Completion, NetworkBackend, NetworkBackendKind, NetworkStats};
use astra_telemetry::{CollectiveSpan, SimTrace, TraceSink};
use astra_topology::{FaultedGraph, NpuId, Topology};
use astra_workload::{EtOp, ExecutionTrace, TensorLocation};

pub use config::{SystemConfig, WarmState};
pub use error::SimError;
use lowered::RunningCollective;
use nic::{Message, Nic, P2pSides};

use crate::csr::Csr;
use crate::orbits::Orbits;
use crate::report::FaultImpact;
use crate::setup::{prepare, Setup, Spans};
use crate::slab::Slab;
use crate::ties::Ties;
use crate::{Breakdown, CacheStats, SimReport};

/// [`Engine::deps`] marker of a completed node.
const FINISHED: u32 = u32::MAX;

/// Activity categories, in exposed-time priority order.
const COMPUTE: usize = 0;
const COMM: usize = 1;
const REMOTE: usize = 2;
const LOCAL: usize = 3;

/// A block's FIFO resources: its compute stream, local-memory port and
/// remote-memory lane.
const COMPUTE_STREAM: usize = 0;
const LOCAL_PORT: usize = 1;
const REMOTE_LANE: usize = 2;

#[derive(Copy, Clone, Debug)]
enum EngineEvent {
    /// Graph node `node` of NPU block `block`'s representative (see
    /// [`Orbits`]) finished. `origin` is where the step that scheduled it
    /// stands among its instant's (see [`Ties`]); 0 outside quotient runs.
    Node {
        block: usize,
        node: u32,
        origin: u32,
    },
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

/// One graph node's arrival at a collective meeting.
#[derive(Copy, Clone)]
struct Arrival {
    block: usize,
    node: u32,
    /// The instant it arrived.
    at: Time,
    /// The collective and size it issued.
    op: (Collective, DataSize),
}

/// A full meeting of group block `group`, launched at `start` as
/// collective `id`, the run-wide sequence number that keys its telemetry.
struct Meeting {
    group: u32,
    id: u64,
    start: Time,
    arrivals: Vec<Arrival>,
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

/// The state of one NPU block (see [`Orbits`]).
#[derive(Default)]
struct Block {
    /// Its FIFO resources, indexed by [`COMPUTE_STREAM`], [`LOCAL_PORT`]
    /// and [`REMOTE_LANE`].
    res: [FifoResource; 3],
    /// Per activity category: its busy intervals.
    logs: [IntervalLog; 4],
    /// When its last node finished.
    finish: Time,
    /// Where its nodes' counts start in [`Engine::deps`].
    deps: usize,
    nic: Nic,
}

/// Simulates one execution trace on a topology, returning the end-to-end
/// time and the exposed-time breakdown.
///
/// # Errors
///
/// Returns a [`SimError`] when the trace and platform are inconsistent
/// (NPU count mismatch, remote accesses without a configured pool, or a
/// communicator group that does not align with the topology grid), when
/// the members of a group meet at different collectives
/// ([`SimError::MismatchedCollective`]), or when the run stalls with graph
/// nodes that can never complete ([`SimError::Stalled`]).
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
///
/// [`MetricsReport`]: astra_telemetry::MetricsReport
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
    // A quotient that saw a tie (see [`Ties`]) is void.
    let tied = engine.ties.as_ref().is_some_and(|ties| ties.tied);
    (!tied).then_some((blocks, result))
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
    /// The fabric [`prepare`] applied, until the engine hands it to the
    /// backend it builds.
    fabric: Option<FaultedGraph>,

    queue: EventQueue<EngineEvent>,
    /// Per NPU block: its state.
    blocks: Vec<Block>,
    /// Per block, per node from the block's offset: dependencies not yet
    /// completed, or [`FINISHED`] once the node itself has completed.
    deps: Vec<u32>,
    /// Per stored program (the trace's classes): its reverse graph, each
    /// node's dependents in ascending order.
    dependents: Vec<Csr>,
    /// Graph nodes completed so far.
    nodes_done: usize,

    /// Per lane (see [`crate::setup::GroupSpan::lanes`]): when it frees.
    lanes: Vec<Time>,
    /// Closed-form plans that read no backlog (the Baseline scheduler's),
    /// memoized per `(group block, collective, size)`.
    plans: BTreeMap<(u32, Collective, DataSize), CollectivePlan>,
    /// The plan of a meeting whose plan reads the backlog, and the
    /// backlog it read; reused from meeting to meeting.
    plan: CollectivePlan,
    backlog: Vec<Time>,

    /// Per group block: its collective rendezvous.
    rendezvous: Vec<Rendezvous>,
    /// Emptied meeting vectors, reused by the next meetings to open.
    meetings: Vec<Vec<Arrival>>,
    /// Per p2p pair `(src, dst, tag)` not resolved yet: its sides.
    p2p_pending: BTreeMap<(NpuId, NpuId, u64), P2pSides>,
    /// Messages from resolution (a peer message) or injection (a chunk
    /// op) to completion, keyed by the token each is sent under.
    in_flight: Slab<Message>,
    /// Messages handed to the backend whose completions are not drained
    /// yet; each NIC lane carries at most one.
    on_wire: usize,
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
    /// Transport of a packet backend the engine builds.
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
        // Reverse graphs once per stored program; every block's counts
        // start from a copy of its class's.
        let dependents = trace
            .classes()
            .iter()
            .map(|program| {
                let deps = program.iter().map(|n| n.deps.iter().map(|d| d.0));
                Csr::from_rows(deps).transpose(program.len())
            })
            .collect();
        let mut deps = Vec::new();
        let blocks = orbits
            .reps
            .iter()
            .map(|&npu| {
                let block = Block {
                    deps: deps.len(),
                    ..Block::default()
                };
                deps.extend(trace.program(npu).iter().map(|n| n.deps.len() as u32));
                block
            })
            .collect();
        let rendezvous = spans
            .iter()
            .map(|span| Rendezvous {
                issued: vec![0; span.members.len()],
                completed: 0,
                open: VecDeque::new(),
            })
            .collect();
        let quotient = orbits.reps.len() < trace.npus();
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
            ties: quotient.then(|| Ties::new(&orbits, &spans, deps.len())),
            orbits,
            spans,
            fabric,
            queue: EventQueue::new(),
            blocks,
            deps,
            dependents,
            nodes_done: 0,
            rendezvous,
            meetings: Vec::new(),
            p2p_pending: BTreeMap::new(),
            in_flight: Slab::new(),
            on_wire: 0,
            completions: Vec::new(),
            running_collectives: Slab::new(),
            program_memo: BTreeMap::new(),
            lowering_hits: 0,
            lowering_misses: 0,
            chunk_ops: 0,
            collectives: 0,
            p2p_messages: 0,
            impacts,
            events_popped: 0,
            sink: config.telemetry.then(TraceSink::new),
            trace_seq: 0,
            transport: TransportMode::Batched,
        }
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

    // astra-lint: hot-path
    pub(crate) fn run(&mut self) -> Result<SimReport, SimError> {
        // Seed: every node with no dependencies is ready at t = 0.
        for block in 0..self.blocks.len() {
            let first = self.blocks[block].deps;
            let nodes = self.trace.program(self.orbits.reps[block]).len();
            for node in 0..nodes as u32 {
                if self.deps[first + node as usize] == 0 {
                    if let Some(ties) = &mut self.ties {
                        ties.seed(block, node);
                    }
                    self.issue(block, node, Time::ZERO)?;
                }
            }
        }
        self.drain_network()?;
        loop {
            self.advance_network()?;
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            self.events_popped += 1;
            self.check_budget(now)?;
            match event {
                EngineEvent::Node {
                    block,
                    node,
                    origin,
                } => {
                    if let Some(ties) = &mut self.ties {
                        ties.pop(now, origin, self.events_popped);
                    }
                    let b = &mut self.blocks[block];
                    b.finish = b.finish.max(now);
                    let first = b.deps;
                    self.nodes_done += 1;
                    self.deps[first + node as usize] = FINISHED;
                    let class = self.trace.class_of(self.orbits.reps[block]);
                    let count = self.dependents[class].row(node as usize).len();
                    for i in 0..count {
                        let dependent = self.dependents[class].row(node as usize)[i];
                        let slot = &mut self.deps[first + dependent as usize];
                        *slot -= 1;
                        let ready = *slot == 0;
                        if let Some(ties) = &mut self.ties {
                            ties.complete(first + dependent as usize, i as u32, ready)?;
                        }
                        if ready {
                            self.issue(block, dependent, now)?;
                        }
                    }
                }
                EngineEvent::InjectP2p(src) => self.inject_next(src, now)?,
                EngineEvent::ChunkReady { coll, op } => self.enqueue_chunk_op(coll, op, now, 0)?,
            }
            self.drain_network()?;
        }
        if self.nodes_done < self.deps.len() {
            return Err(self.stalled());
        }

        let horizon = self
            .blocks
            .iter()
            .map(|b| b.finish)
            .fold(Time::ZERO, Time::max);
        let npus = self.trace.npus() as u64;
        let mut sums = [Time::ZERO; 5];
        for (block, &size) in self.blocks.iter().zip(&self.orbits.sizes) {
            let logs = &block.logs;
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
        let finish: Vec<Time> = self.blocks.iter().map(|b| b.finish).collect();
        Ok(SimReport {
            total_time: horizon,
            breakdown,
            per_npu_finish: self.orbits.expand(&finish),
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
        self.blocks
            .iter()
            .zip(&self.orbits.reps)
            .find_map(|(block, &npu)| {
                let nodes = self.trace.program(npu).len();
                let deps = &self.deps[block.deps..block.deps + nodes];
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
        let (res, category, service) = match self.trace.program(npu)[node as usize].op {
            EtOp::Compute { flops, tensor } => {
                let service = self.config.roofline.compute_time(flops, tensor);
                let service = self.stretched_compute(block, now, service);
                (COMPUTE_STREAM, COMPUTE, service)
            }
            EtOp::Memory {
                location: TensorLocation::Local,
                size,
                ..
            } => (
                LOCAL_PORT,
                LOCAL,
                self.config.local_memory.access_time(size),
            ),
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
                // In-switch collective transfers are communication through
                // the pool fabric; plain transfers are remote-memory time.
                let (mode, category) = if gathered {
                    (TransferMode::InSwitchCollective, COMM)
                } else {
                    (TransferMode::Plain, REMOTE)
                };
                (REMOTE_LANE, category, pool.transfer_time(size, mode))
            }
            EtOp::Collective {
                collective,
                size,
                group,
            } => {
                let group = self.orbits.group_block(self.trace.group_of(npu, group).0);
                let arrival = Arrival {
                    block,
                    node,
                    at: now,
                    op: (collective, size),
                };
                return self.arrive(group, arrival);
            }
            EtOp::PeerSend { peer, size, tag } => {
                let peer = self.trace.peer_of(npu, peer);
                return self.post_p2p((npu, peer, tag), true, node, size, now);
            }
            EtOp::PeerRecv { peer, size, tag } => {
                let peer = self.trace.peer_of(npu, peer);
                return self.post_p2p((peer, npu, tag), false, node, size, now);
            }
        };
        // The completion event's origin (see [`Ties::resource`]); 0
        // outside a quotient.
        let origin = match &mut self.ties {
            Some(ties) => ties.resource(block, res)?,
            None => 0,
        };
        let b = &mut self.blocks[block];
        let r = b.res[res].acquire(now, service);
        b.logs[category].push(r.start, r.end);
        let event = EngineEvent::Node {
            block,
            node,
            origin,
        };
        self.queue.schedule_at(r.end, event);
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
    fn arrive(&mut self, group: u32, arrival: Arrival) -> Result<(), SimError> {
        let unaligned = SimError::UnalignedGroup {
            group: group as usize,
        };
        let (Some(span), Some(rv)) = (
            self.spans.get(group as usize),
            self.rendezvous.get_mut(group as usize),
        ) else {
            return Err(unaligned);
        };
        let Ok(rank) = span.members.binary_search(&arrival.block) else {
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
        rv.open[slot].push(arrival);
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
    /// Every member must have issued the same collective of the same size;
    /// in a quotient run a mismatch voids the run, whose whole rerun names
    /// the trace group.
    fn run_collective(&mut self, group: u32, arrivals: Vec<Arrival>) -> Result<(), SimError> {
        let Some(&Arrival { op, .. }) = arrivals.first() else {
            return Err(SimError::Internal("a meeting launched with no arrivals"));
        };
        if arrivals.iter().any(|a| a.op != op) {
            if let Some(ties) = &mut self.ties {
                ties.tied = true;
            }
            let group = group as usize;
            return Err(SimError::MismatchedCollective { group });
        }
        let (collective, size) = op;
        self.collectives += self.orbits.group_sizes[group as usize];
        let span = self.spans.span(group as usize);
        let start = arrivals.iter().map(|a| a.at).fold(Time::ZERO, Time::max);
        let meeting = Meeting {
            group,
            id: self.trace_seq,
            start,
            arrivals,
        };
        self.trace_seq += 1;
        if self.config.collective_mode == CollectiveMode::Backend
            && !span.dims.is_empty()
            && size != DataSize::ZERO
        {
            return self.launch_backend_collective(meeting, collective, size);
        }
        if let Some(ties) = &mut self.ties {
            let ranks = meeting
                .arrivals
                .iter()
                .map(|a| span.members.binary_search(&a.block).unwrap_or_default());
            ties.launch(group as usize, ranks, span.lanes)?;
        }
        // Per-fault attribution reads the lanes as the collective finds
        // them.
        let pristine = self.pristine_finish(group, op, start);
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
        let finish = plan.finish(start, &mut self.lanes, span.lanes);
        if let Some((event, pristine)) = pristine {
            self.impacts[event].extra_time += finish.saturating_sub(pristine);
        }
        self.resume(meeting, finish);
        Ok(())
    }

    /// Completes a meeting's collective at `finish`, on either path:
    /// records its span, charges each arrival's wait to comm, schedules
    /// each arrival's node at `finish`, and returns the meeting vector to
    /// the pool. In a quotient run the completion events take the origins
    /// of the last launch (see [`Ties::launch`]).
    fn resume(&mut self, meeting: Meeting, finish: Time) {
        let Meeting {
            group,
            id,
            start,
            mut arrivals,
        } = meeting;
        if let Some(sink) = &mut self.sink {
            sink.collectives.push(CollectiveSpan {
                id,
                group,
                start,
                finish,
            });
        }
        let origins = self.ties.as_ref().map_or(&[][..], Ties::launched);
        for (j, a) in arrivals.iter().enumerate() {
            if finish > a.at {
                self.blocks[a.block].logs[COMM].push(a.at, finish);
            }
            let event = EngineEvent::Node {
                block: a.block,
                node: a.node,
                origin: origins.get(j).copied().unwrap_or_default(),
            };
            self.queue.schedule_at(finish, event);
        }
        arrivals.clear();
        self.meetings.push(arrivals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_backend, Spans};
    use astra_collectives::Collective;
    use astra_memory::{LocalMemory, PoolArchitecture};
    use astra_workload::Roofline;
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

    fn memory(location: TensorLocation, bytes: u64) -> EtOp {
        EtOp::Memory {
            direction: astra_workload::MemoryDirection::Load,
            location,
            size: DataSize::from_bytes(bytes),
        }
    }

    /// NPU 0 issues two ops of each kind at t = 0: compute (0.5 us
    /// each), local memory (2.5 us), plain remote and gathered remote
    /// transfers (1 us). Each kind serializes on its own FIFO resource,
    /// the two remote kinds share the remote lane, and different
    /// resources overlap:
    ///
    /// ```text
    /// compute  [0, 1)            local  [0, 5)
    /// plain    [0, 2)  remote    gathered  [2, 4)  comm
    /// ```
    ///
    /// Exposed on NPU 0: compute 1 us, comm 2 us (gathered transfers are
    /// communication), remote 1 us and local 1 us, with no idle time.
    #[test]
    fn resources_serialize_by_kind_and_charge_their_category() {
        // NPU 1 idles: a topology has at least two NPUs.
        let topo = Topology::parse("SW(2)@100").unwrap();
        let mut b = TraceBuilder::new(2);
        let ops = [
            EtOp::Compute {
                flops: 0.5e6,
                tensor: DataSize::ZERO,
            },
            memory(TensorLocation::Local, 2_000),
            memory(TensorLocation::Remote { gathered: false }, 8_000),
            memory(TensorLocation::Remote { gathered: true }, 8_000),
        ];
        for op in ops {
            b.node(0, "a", op, &[]);
            b.node(0, "b", op, &[]);
        }
        let config = SystemConfig {
            roofline: Roofline::new(1e12, astra_des::Bandwidth::from_gbps(1)),
            local_memory: LocalMemory::new(Time::from_ns(500), astra_des::Bandwidth::from_gbps(1)),
            remote_memory: Some(PoolArchitecture::Ring(astra_memory::RingPool {
                gpus: 1,
                mems: 1,
                link_bw: astra_des::Bandwidth::from_gbps(1),
                base_latency: Time::ZERO,
            })),
            ..SystemConfig::default()
        };
        let report = simulate(&b.build().unwrap(), &topo, &config).unwrap();
        assert_eq!(report.total_time, Time::from_ps(5_000_000));
        // Averaged over both NPUs: NPU 1 idles for the whole 5 us.
        assert_eq!(
            report.breakdown,
            Breakdown {
                compute: Time::from_ps(500_000),
                exposed_comm: Time::from_ps(1_000_000),
                exposed_remote_mem: Time::from_ps(500_000),
                exposed_local_mem: Time::from_ps(500_000),
                exposed_idle: Time::from_ps(2_500_000),
            }
        );
    }

    /// A meeting's members must issue one collective of one size. On
    /// `R(2)@100`, NPU 0 issues an 8 MiB All-Reduce and NPU 1 a 512 MiB
    /// All-Gather on group 0, with either one arriving first.
    #[test]
    fn a_meeting_whose_members_disagree_is_an_error() {
        let topo = Topology::parse("R(2)@100").unwrap();
        for npu_0_late in [false, true] {
            let mut b = TraceBuilder::new(2);
            let g = b.add_group(vec![0, 1]);
            let deps = if npu_0_late {
                let delay = EtOp::Compute {
                    flops: 1e12,
                    tensor: DataSize::ZERO,
                };
                vec![b.node(0, "delay", delay, &[])]
            } else {
                Vec::new()
            };
            let ar = EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(8),
                group: g,
            };
            let ag = EtOp::Collective {
                collective: Collective::AllGather,
                size: DataSize::from_mib(512),
                group: g,
            };
            b.node(0, "ar", ar, &deps);
            b.node(1, "ag", ag, &[]);
            let result = simulate(&b.build().unwrap(), &topo, &SystemConfig::default());
            assert_eq!(
                result,
                Err(SimError::MismatchedCollective { group: 0 }),
                "NPU 0 arrives late: {npu_0_late}"
            );
        }
    }

    /// In a collapsed run a mismatch voids the quotient: on `R(2)@100_R(2)@100`
    /// NPUs 0 and 2 issue an All-Reduce and NPUs 1 and 3 an All-Gather, and
    /// the quotient's one meeting stands for groups `[2, 3]` (group 0) and
    /// `[0, 1]` (group 1). The whole run meets group 1 first and names it.
    #[test]
    fn a_mismatch_in_a_quotient_reports_what_the_whole_run_does() {
        let topo = Topology::parse("R(2)@100_R(2)@100").unwrap();
        let mut b = TraceBuilder::new(4);
        let groups = [b.add_group(vec![2, 3]), b.add_group(vec![0, 1])];
        for npu in 0..4 {
            let collective = if npu % 2 == 0 {
                Collective::AllReduce
            } else {
                Collective::AllGather
            };
            let op = EtOp::Collective {
                collective,
                size: DataSize::from_mib(8),
                group: groups[1 - npu / 2],
            };
            b.node(npu, "c", op, &[]);
        }
        let trace = b.build().unwrap();
        let config = SystemConfig::default();
        let setup = prepare(&trace, &topo, &config).unwrap();
        let (orbits, _) = Orbits::collapse(&trace, &topo, &config, &setup.spans).unwrap();
        assert_eq!(orbits.reps.len(), 2, "the run collapses");
        let expected = Err(SimError::MismatchedCollective { group: 1 });
        assert_eq!(simulate(&trace, &topo, &config), expected);
        assert_eq!(
            crate::simulate_full_reference(&trace, &topo, &config),
            expected
        );
    }

    /// A queued NIC entry holds a chunk op's collective, op, ready time
    /// and run length, or a peer message's key, and nothing more.
    #[test]
    fn nic_queue_entries_fit_in_32_bytes() {
        assert!(size_of::<nic::Outbound>() <= 32);
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
