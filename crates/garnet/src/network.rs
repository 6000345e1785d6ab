//! Store-and-forward packet network simulation.

use std::collections::BTreeSet;

use astra_des::{DataSize, FifoCheckpoint, FifoResource, LanedEventQueue, Time, TrainProfile};
use astra_network::{Completion, LinkTrace, NetworkBackend, NetworkStats, RouteTable};
use astra_topology::{route_avoiding, FaultedGraph, LinkGraph, LinkId, NpuId, Topology};

/// Slot of an in-flight message in [`PacketNetwork`]'s message store.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct MessageId(usize);

/// How messages traverse the simulated links: one event per packet-hop
/// ([`TransportMode::PerPacket`], the ground truth), or one closed-form
/// reservation per message-hop ([`TransportMode::Batched`], via
/// [`FifoResource::acquire_train`]): a train's packets enter every link in
/// order and links serve FIFO, so its occupancy follows from its arrival
/// profile in `O(hops)` events instead of `O(packets × hops)`.
///
/// The two are **bit-identical** while every train occupies each link
/// contiguously, as in the lockstep collectives
/// (`crates/garnet/tests/transport_equivalence.rs`). When concurrent
/// trains *would* interleave packet-by-packet on a shared link, batched
/// mode rewinds the link to before the resident train's reservation and
/// replays the merged per-packet FIFO sequence, still bit-identical
/// ([`NetworkStats::train_splits`]). Only when a resident train's
/// downstream events have already fired, so it can no longer be rewound,
/// are whole trains serialized in head-arrival order. That answer may
/// differ by up to the other train's service time, and
/// [`NetworkBackend::exact`] then returns `false` so that a caller can
/// rerun per-packet.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransportMode {
    /// One event per packet per hop (ground truth; the default).
    #[default]
    PerPacket,
    /// One event per message per hop via closed-form train reservations.
    Batched,
}

/// Configuration of the packet simulator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PacketSimConfig {
    /// Packet (flit-group) size. Smaller packets approach cycle-level
    /// fidelity at proportionally higher simulation cost.
    pub packet_size: DataSize,
    /// Host-side overhead paid once per collective (kernel launch /
    /// protocol setup) by the lockstep collective runner.
    pub collective_overhead: Time,
    /// Synchronization overhead paid once per lockstep algorithm step.
    pub step_overhead: Time,
    /// Event granularity (see [`TransportMode`]). Batched transport keeps
    /// fine packet sizes affordable at 256+ NPUs.
    pub transport: TransportMode,
}

impl PacketSimConfig {
    /// Fine-grained packets (256 B): closest to Garnet-style cycle-level
    /// behaviour, slowest to simulate. Used by the §IV-C speedup experiment.
    pub fn garnet_like() -> Self {
        PacketSimConfig {
            packet_size: DataSize::from_bytes(256),
            collective_overhead: Time::ZERO,
            step_overhead: Time::ZERO,
            transport: TransportMode::default(),
        }
    }

    /// Coarse packets (64 KiB): fast ground-truth mode for validation runs
    /// with large payloads (Fig. 4).
    pub fn fast() -> Self {
        PacketSimConfig {
            packet_size: DataSize::from_kib(64),
            collective_overhead: Time::ZERO,
            step_overhead: Time::ZERO,
            transport: TransportMode::default(),
        }
    }

    /// Real-system proxy for the Fig. 4 validation: coarse packets plus
    /// NCCL-like host overheads (20 us kernel launch per collective, 1 us
    /// per algorithm step) that the analytical equation deliberately does
    /// not model — the source of the validation error.
    pub fn real_system_proxy() -> Self {
        PacketSimConfig {
            packet_size: DataSize::from_kib(64),
            collective_overhead: Time::from_us(20),
            step_overhead: Time::from_us(1),
            transport: TransportMode::default(),
        }
    }

    /// Selects the transport granularity (see [`TransportMode`]).
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        Self::fast()
    }
}

#[derive(Clone, Debug)]
struct MessageState {
    /// Index into the memoized route table.
    route: usize,
    /// Full-size packet payload (all packets but possibly the last).
    packet_bytes: DataSize,
    /// Payload of the last packet (== `packet_bytes` for exact multiples).
    tail_bytes: DataSize,
    packets_remaining: u64,
    /// Reservation generation (batched mode). Splitting a merged train
    /// rewinds its link reservations and re-schedules its downstream
    /// events; bumping the generation cancels the superseded events still
    /// sitting in the queue (they are dropped on pop).
    gen: u32,
    /// The caller's token, handed back in the message's [`Completion`].
    token: u32,
    /// Batched mode: the train's arrival profile at the head of the hop
    /// its pending [`TransportEvent::Train`] names. A message has at most
    /// one such event live (a split re-schedules it under a new
    /// generation and rewrites this profile), so the event itself stays
    /// `Copy` and the profile lives here.
    next: TrainProfile,
}

/// One packet completing its traversal of `route[hop]`.
#[derive(Copy, Clone, Debug)]
struct PacketEvent {
    message: MessageId,
    hop: usize,
    /// Bytes of this packet (the tail packet may be short).
    bytes: DataSize,
}

#[derive(Copy, Clone, Debug)]
enum TransportEvent {
    /// Per-packet transport: one packet finished one hop.
    Packet(PacketEvent),
    /// Batched transport: a train's head reached the head of `route[hop]`;
    /// its arrival profile there is the message's `next`. Events of an
    /// older generation (superseded by a train split) are dropped on pop.
    Train {
        message: MessageId,
        hop: usize,
        gen: u32,
    },
    /// Batched transport: a train's tail arrived at the destination (the
    /// generation guards against superseded schedules, as in `Train`).
    TrainDone(MessageId, u32),
}

/// One train currently reserved on a link and still fully rewindable.
#[derive(Clone, Debug)]
struct TrainMember {
    message: MessageId,
    hop: usize,
    /// The train's arrival profile *at this link*.
    arrivals: TrainProfile,
}

/// The batched-mode re-planning unit for one link: the set of trains whose
/// reservations can still be rewound (none of their downstream events have
/// fired). When a new train's arrival window overlaps the group, the link
/// is restored to `checkpoint` and the merged per-packet FIFO sequence is
/// replayed, reproducing per-packet transport bit-identically. A link
/// keeps one group for the whole run and refills its vectors in place.
#[derive(Clone, Debug, Default)]
struct LinkTrainGroup {
    /// Link timeline snapshot taken before the group's first reservation;
    /// `None` while the link holds no rewindable group.
    checkpoint: Option<FifoCheckpoint>,
    members: Vec<TrainMember>,
    /// Scheduled downstream event time of each member (its next-hop head
    /// arrival or destination completion). The group is splittable only
    /// while every entry is strictly in the future. A member whose
    /// completion was drained (its slot may now hold another message) has
    /// an entry at or before the drain instant, so its group is never
    /// split again.
    downstream: Vec<Time>,
}

/// A packet-granularity store-and-forward network DES.
///
/// Every physical link of the topology is a FIFO queue. A message is split
/// into packets that traverse the message's dimension-ordered route hop by
/// hop, paying `packet / linkBandwidth` serialization plus the link's
/// propagation latency at each hop. Packets of concurrent messages
/// interleave on shared links, so congestion emerges naturally — unlike the
/// analytical backend, which assumes congestion-free traffic.
///
/// Routes are memoized per `(src, dst)` pair in a [`RouteTable`]:
/// collectives re-send along identical pairs every phase step, so the
/// dimension-ordered route search runs once per pair instead of once per
/// message.
///
/// Under batched transport a message costs `O(hops)` events and, in the
/// steady state, no heap allocation: its slot, its train profile and its
/// link's rewindable group are all reused storage.
///
/// Messages are sent through [`NetworkBackend::send_async`] under a
/// caller's token. Memory follows the messages in flight, not the messages
/// ever sent: a message is forgotten once
/// [`NetworkBackend::drain_completions`] hands out its completion, and its
/// slot goes to a later send.
///
/// # Example
///
/// ```
/// use astra_des::{DataSize, Time};
/// use astra_garnet::{PacketNetwork, PacketSimConfig};
/// use astra_network::NetworkBackend;
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("R(4)@100").unwrap();
/// let mut net = PacketNetwork::new(&topo, PacketSimConfig::fast());
/// net.send_async(7, Time::ZERO, 0, 2, DataSize::from_mib(1));
/// net.run_until_idle();
/// let mut done = Vec::new();
/// net.drain_completions(&mut done);
/// assert_eq!(done[0].token, 7);
/// assert!(done[0].finish > Time::ZERO);
/// ```
#[derive(Debug)]
pub struct PacketNetwork {
    graph: LinkGraph,
    link_queues: Vec<FifoResource>,
    queue: LanedEventQueue<TransportEvent>,
    /// Message slots, indexed by [`MessageId`]; a slot is freed when its
    /// message's completion is drained.
    messages: Vec<MessageState>,
    /// Slots of messages whose completions await draining, in completion
    /// order.
    done_slots: Vec<usize>,
    /// Slots of drained messages, reused by the next send.
    free_slots: Vec<usize>,
    /// Messages sent so far, reused slots included (`NetworkStats::messages`).
    messages_sent: u64,
    routes: RouteTable,
    config: PacketSimConfig,
    events_processed: u64,
    /// Packet-hops of every message sent so far (`packets × hops` each),
    /// counted at send time: the transport-independent event count that
    /// [`NetworkBackend::stats`] reports under batched transport.
    packet_hops: u64,
    completed: Vec<Completion>,
    /// Per link: last arrival instant of the most recent train reserved on
    /// it (batched mode only) — the overlap detector behind train splits
    /// and serializations.
    link_train_tail: Vec<Time>,
    /// Per link: the rewindable train group (batched mode only).
    link_groups: Vec<LinkTrainGroup>,
    /// Overlapping trains serialized whole because the resident one could
    /// no longer be rewound; any makes the answer inexact.
    train_interleavings: u64,
    /// Overlapping trains split and replayed per-packet (exact).
    train_splits: u64,
    /// Failed links (fault injection): excluded from routing; empty for a
    /// pristine fabric. Bandwidth/latency degradations live in `graph`.
    dead_links: BTreeSet<LinkId>,
    /// Per link: serialization time of one full-size packet, so packet
    /// and train hops skip the 128-bit division for all but tail packets.
    packet_service: Vec<Time>,
    /// Whether per-packet hops go on per-link lanes ([`Self::lane_hop`],
    /// production) or on the global heap ([`Self::start_hop`], the frozen
    /// reference built by [`PacketNetwork::global_heap_reference`]).
    laned: bool,
}

impl PacketNetwork {
    /// Builds the packet simulator for `topo`.
    pub fn new(topo: &Topology, config: PacketSimConfig) -> Self {
        Self::with_fabric(topo, config, None)
    }

    /// Builds the packet simulator over a fabric with a fault schedule
    /// already applied (see [`FaultedGraph::new`]): packets traverse the
    /// degraded links (reduced bandwidth, stretched latency) and routes
    /// are re-derived around dead links. `None` simulates the pristine fabric.
    ///
    /// The caller must have verified the live fabric is still connected
    /// (see [`FaultedGraph::unreachable_pair`]); routing a disconnected
    /// pair panics.
    pub fn with_fabric(
        topo: &Topology,
        config: PacketSimConfig,
        fabric: Option<FaultedGraph>,
    ) -> Self {
        let (graph, dead) = fabric.map_or_else(
            || (LinkGraph::new(topo), BTreeSet::new()),
            FaultedGraph::into_parts,
        );
        Self::from_graph(graph, dead, config)
    }

    fn from_graph(graph: LinkGraph, dead_links: BTreeSet<LinkId>, config: PacketSimConfig) -> Self {
        let link_queues = (0..graph.num_links())
            .map(|_| FifoResource::new())
            .collect();
        let num_links = graph.num_links();
        let full_packet = DataSize::from_bytes(config.packet_size.as_bytes().max(1));
        let packet_service = graph
            .links()
            .map(|(_, props)| props.bandwidth.transfer_time(full_packet))
            .collect();
        PacketNetwork {
            graph,
            link_queues,
            queue: LanedEventQueue::new(),
            messages: Vec::new(),
            done_slots: Vec::new(),
            free_slots: Vec::new(),
            messages_sent: 0,
            routes: RouteTable::new(),
            config,
            events_processed: 0,
            packet_hops: 0,
            completed: Vec::new(),
            link_train_tail: vec![Time::ZERO; num_links],
            link_groups: vec![LinkTrainGroup::default(); num_links],
            train_interleavings: 0,
            train_splits: 0,
            dead_links,
            packet_service,
            laned: true,
        }
    }

    /// Builds the packet simulator with every per-packet hop scheduled on
    /// one global event heap (the private `start_hop` path) instead of per-link
    /// lanes. Both deliver events in the same `(time, seq)` order, so the
    /// results are bit-identical; this one is the frozen reference that
    /// differential tests and the `packet_core` bench baseline compare
    /// against. Simulations should use [`PacketNetwork::new`].
    pub fn global_heap_reference(topo: &Topology, config: PacketSimConfig) -> Self {
        PacketNetwork {
            laned: false,
            ..Self::new(topo, config)
        }
    }

    /// The expanded link graph being simulated.
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// The simulator configuration.
    pub fn config(&self) -> &PacketSimConfig {
        &self.config
    }

    /// Total transport events popped so far — packet-hops in per-packet
    /// mode, train-hops plus completions in batched mode (the quantity that
    /// makes fine-granularity simulation expensive). Unlike
    /// [`NetworkBackend::stats`]' `events`, this depends on the transport.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Distinct `(src, dst)` routes resolved and memoized so far.
    pub fn routes_cached(&self) -> usize {
        self.routes.len()
    }

    /// Current simulation time (the last processed event's time).
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Resolves (or reuses) the memoized route for a pair.
    fn route_index(&mut self, src: NpuId, dst: NpuId) -> usize {
        let (graph, dead_links) = (&self.graph, &self.dead_links);
        self.routes.index_of(src, dst, || {
            if dead_links.is_empty() {
                graph.route(src, dst)
            } else {
                route_avoiding(graph, src, dst, dead_links)
                    // astra-lint: allow(panic, callers reject disconnected fault schedules before building backends)
                    .expect("fault-aware route exists")
            }
        })
    }

    /// Stores a new message and queues its packets, or its train, on the
    /// first link of its route; a self or empty message completes at `at`.
    fn inject(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize) {
        assert!(
            at >= self.now(),
            "message sent at {at}, before the packet network's clock {}",
            self.now()
        );
        let route = self.route_index(src, dst);
        if self.routes[route].is_empty() || size == DataSize::ZERO {
            let id = self.store(MessageState {
                route,
                packet_bytes: DataSize::ZERO,
                tail_bytes: DataSize::ZERO,
                packets_remaining: 0,
                gen: 0,
                token,
                next: TrainProfile::empty(),
            });
            return self.record_completion(id, at);
        }
        let pkt = self.config.packet_size.as_bytes().max(1);
        let full_packets = size.as_bytes() / pkt;
        let tail = size.as_bytes() % pkt;
        let count = full_packets + u64::from(tail > 0);
        self.packet_hops += count * self.routes[route].len() as u64;
        let id = self.store(MessageState {
            route,
            packet_bytes: DataSize::from_bytes(pkt),
            tail_bytes: DataSize::from_bytes(if tail > 0 { tail } else { pkt }),
            packets_remaining: count,
            gen: 0,
            token,
            next: TrainProfile::empty(),
        });
        match self.config.transport {
            TransportMode::PerPacket => {
                // Enter packets onto the first link in order; FIFO per link.
                for i in 0..count {
                    let bytes = if i == count - 1 && tail > 0 {
                        DataSize::from_bytes(tail)
                    } else {
                        DataSize::from_bytes(pkt)
                    };
                    self.lane_hop(
                        at,
                        PacketEvent {
                            message: id,
                            hop: 0,
                            bytes,
                        },
                    );
                }
            }
            TransportMode::Batched => {
                // The whole train queues on the first link at once — the
                // same eager acquisition the per-packet loop above performs.
                self.advance_train(id, 0, TrainProfile::simultaneous(count, at), true);
            }
        }
    }

    /// Gives `state` a slot: a drained slot if there is one, under its
    /// previous occupant's generation plus one, so no `Train`/`TrainDone`
    /// event of that occupant can pass for the new one's. (A superseded
    /// event pops before the completion it was replaced for, so none
    /// should be left; the bump keeps it harmless.)
    fn store(&mut self, mut state: MessageState) -> MessageId {
        self.messages_sent += 1;
        if let Some(slot) = self.free_slots.pop() {
            state.gen = self.messages[slot].gen.wrapping_add(1);
            self.messages[slot] = state;
            return MessageId(slot);
        }
        self.messages.push(state);
        MessageId(self.messages.len() - 1)
    }

    // frozen-ref: 676562342dc72c66
    fn start_hop(&mut self, ready: Time, event: PacketEvent) {
        let link_id = self.routes[self.messages[event.message.0].route][event.hop];
        let props = self.graph.link(link_id);
        let service = props.bandwidth.transfer_time(event.bytes);
        let reservation = self.link_queues[link_id.0].acquire(ready, service);
        self.queue.schedule_at(
            reservation.end + props.latency,
            TransportEvent::Packet(event),
        );
    }

    /// Queues one packet on `route[hop]` and schedules its arrival at the
    /// far end on that link's lane of the event queue.
    ///
    /// A link grants FIFO, so its reservations end in non-decreasing
    /// order, and its latency is fixed for the whole run: every link's
    /// arrival stream is already sorted. The queue merges the lanes by
    /// `(time, seq)`, so the delivery order is exactly that of
    /// [`Self::start_hop`]'s single heap, at `O(log active links)` per
    /// event instead of `O(log pending packets)`.
    // astra-lint: hot-path
    fn lane_hop(&mut self, ready: Time, event: PacketEvent) {
        if !self.laned {
            return self.start_hop(ready, event);
        }
        let msg = &self.messages[event.message.0];
        let link_id = self.routes[msg.route][event.hop];
        let props = self.graph.link(link_id);
        let service = if event.bytes == msg.packet_bytes {
            self.packet_service[link_id.0]
        } else {
            props.bandwidth.transfer_time(event.bytes)
        };
        let reservation = self.link_queues[link_id.0].acquire(ready, service);
        self.queue.schedule_on(
            link_id.0,
            reservation.end + props.latency,
            TransportEvent::Packet(event),
        );
    }

    /// Routes a train arriving at the head of `route[hop]` (batched mode).
    ///
    /// Contiguous trains take the closed-form path ([`Self::reserve_train`])
    /// and start a fresh rewindable group on the link. A train whose
    /// arrival window overlaps the resident group is *split-merged*: the
    /// link is rewound and the combined per-packet FIFO sequence replayed,
    /// reproducing per-packet transport bit-identically. If the resident
    /// group can no longer be rewound (a downstream event already fired),
    /// the train is serialized behind it and the divergence is counted.
    ///
    /// `from_send` marks the eager hop-0 reservation a send performs at
    /// call time. Per-packet mode acquires those packets at the *call*
    /// instant, not at their ready time `at`, so arrival-time order equals
    /// acquisition order only when `at` is the current instant and no
    /// same-instant events are still pending; otherwise the reservation
    /// neither merges nor forms a rewindable group.
    fn advance_train(
        &mut self,
        message: MessageId,
        hop: usize,
        arrivals: TrainProfile,
        from_send: bool,
    ) {
        let slot = self.routes[self.messages[message.0].route][hop].0;
        let now = self.queue.now();
        if arrivals.first() < self.link_train_tail[slot] {
            // Per-packet transport would interleave this train with the
            // packets still arriving on the link.
            let send_merge_safe =
                !from_send || (arrivals.first() == now && self.queue.peek_time() != Some(now));
            let group = &self.link_groups[slot];
            let splittable = group
                .checkpoint
                .filter(|_| send_merge_safe && group.downstream.iter().all(|&t| t > now));
            if let Some(checkpoint) = splittable {
                self.train_splits += 1;
                self.split_merge_trains(message, hop, arrivals, checkpoint);
            } else {
                self.train_interleavings += 1;
                self.reserve_train(message, hop, arrivals, None);
            }
            return;
        }
        let checkpoint = if from_send && arrivals.first() > now {
            // Future-dated eager send: acquired now, ready later — not
            // representable in arrival-time order, so not rewindable.
            None
        } else {
            Some(self.link_queues[slot].checkpoint())
        };
        self.reserve_train(message, hop, arrivals, checkpoint);
    }

    /// Reserves one whole train on `route[hop]` in closed form and schedules
    /// its head at the next link (or its tail's arrival at the destination).
    /// With `Some(checkpoint)` (taken before the reservation) the train
    /// becomes the link's new single-member rewindable group; with `None`
    /// the link keeps no group (future overlaps serialize).
    fn reserve_train(
        &mut self,
        message: MessageId,
        hop: usize,
        arrivals: TrainProfile,
        checkpoint: Option<FifoCheckpoint>,
    ) {
        let msg = &self.messages[message.0];
        let gen = msg.gen;
        let route = &self.routes[msg.route];
        let hops = route.len();
        let link_id = route[hop];
        let props = self.graph.link(link_id);
        let service = self.packet_service[link_id.0];
        let tail_service = props.bandwidth.transfer_time(msg.tail_bytes);
        self.link_train_tail[link_id.0] = self.link_train_tail[link_id.0].max(arrivals.last());
        let next = self.link_queues[link_id.0]
            .acquire_train(&arrivals, service, tail_service)
            .delayed_by(props.latency);
        let downstream = self.schedule_downstream(message, hop, hops, gen, next);
        let group = &mut self.link_groups[link_id.0];
        group.checkpoint = checkpoint;
        group.members.clear();
        group.downstream.clear();
        if checkpoint.is_some() {
            // Most links only ever hold one-member groups: size a link's
            // storage for one, not for the default minimum of four.
            if group.members.capacity() == 0 {
                group.members.reserve_exact(1);
                group.downstream.reserve_exact(1);
            }
            group.members.push(TrainMember {
                message,
                hop,
                arrivals,
            });
            group.downstream.push(downstream);
        }
    }

    /// Schedules what follows a train's reservation on `route[hop]` under
    /// generation `gen`: its head at the next link, with `next` (the
    /// completion profile plus latency) stored as the message's arrival
    /// profile there, or its tail's arrival at the destination. Returns
    /// the scheduled instant.
    fn schedule_downstream(
        &mut self,
        message: MessageId,
        hop: usize,
        hops: usize,
        gen: u32,
        next: TrainProfile,
    ) -> Time {
        if hop + 1 < hops {
            let head = next.first();
            self.messages[message.0].next = next;
            self.queue.schedule_at(
                head,
                TransportEvent::Train {
                    message,
                    hop: hop + 1,
                    gen,
                },
            );
            head
        } else {
            let tail = next.last();
            self.queue
                .schedule_at(tail, TransportEvent::TrainDone(message, gen));
            tail
        }
    }

    /// Splits the overlapping trains on `route[hop]` at their interleave
    /// points: rewinds the link to `checkpoint` (taken before the resident
    /// group's first reservation), replays the merged per-packet FIFO
    /// sequence (the new train included), and re-schedules every member's
    /// downstream event under a fresh generation. Bit-identical to
    /// per-packet transport at `O(packets)` cost for the trains involved.
    fn split_merge_trains(
        &mut self,
        message: MessageId,
        hop: usize,
        arrivals: TrainProfile,
        checkpoint: FifoCheckpoint,
    ) {
        let link_id = self.routes[self.messages[message.0].route][hop];
        let slot = link_id.0;
        let props = self.graph.link(link_id);
        self.link_train_tail[slot] = self.link_train_tail[slot].max(arrivals.last());
        // Moved out (and back below) so its vectors keep their storage.
        let mut group = std::mem::take(&mut self.link_groups[slot]);
        group.members.push(TrainMember {
            message,
            hop,
            arrivals,
        });
        // Cancel every member's scheduled downstream event: the replay
        // below re-schedules them under the bumped generation.
        for member in &group.members {
            self.messages[member.message.0].gen =
                self.messages[member.message.0].gen.wrapping_add(1);
        }
        self.link_queues[slot].restore(checkpoint);
        // Merged per-packet FIFO order: sort all packet arrivals by time;
        // the stable sort keeps member (reservation) order on ties, which
        // is exactly the per-packet event tie-break (FIFO by schedule
        // order, and members reserved earlier scheduled their equal-time
        // packets earlier).
        let mut order: Vec<(Time, usize)> = Vec::new();
        for (m, member) in group.members.iter().enumerate() {
            order.extend(member.arrivals.times().map(|t| (t, m)));
        }
        order.sort_by_key(|&(t, _)| t);
        let services: Vec<(Time, Time)> = group
            .members
            .iter()
            .map(|member| {
                let msg = &self.messages[member.message.0];
                (
                    self.packet_service[slot],
                    props.bandwidth.transfer_time(msg.tail_bytes),
                )
            })
            .collect();
        let mut remaining: Vec<u64> = group.members.iter().map(|m| m.arrivals.count()).collect();
        let mut completions: Vec<TrainProfile> = vec![TrainProfile::empty(); group.members.len()];
        for &(t, m) in &order {
            remaining[m] -= 1;
            let service = if remaining[m] == 0 {
                services[m].1
            } else {
                services[m].0
            };
            let end = self.link_queues[slot].acquire(t, service).end;
            completions[m].append(end);
        }
        // Re-schedule each member's downstream under its new generation.
        // Replaying with *more* packets only pushes completions later, so
        // every re-scheduled time is >= its superseded one (> now).
        group.downstream.clear();
        for (member, completion) in group.members.iter().zip(completions) {
            let next = completion.delayed_by(props.latency);
            let msg = &self.messages[member.message.0];
            let (gen, hops) = (msg.gen, self.routes[msg.route].len());
            let t = self.schedule_downstream(member.message, member.hop, hops, gen, next);
            group.downstream.push(t);
        }
        self.link_groups[slot] = group;
    }

    fn dispatch(&mut self, now: Time, event: TransportEvent) {
        match event {
            TransportEvent::Packet(event) => {
                let msg = &self.messages[event.message.0];
                if event.hop + 1 < self.routes[msg.route].len() {
                    self.lane_hop(
                        now,
                        PacketEvent {
                            hop: event.hop + 1,
                            ..event
                        },
                    );
                } else {
                    let msg = &mut self.messages[event.message.0];
                    msg.packets_remaining -= 1;
                    if msg.packets_remaining == 0 {
                        self.record_completion(event.message, now);
                    }
                }
            }
            TransportEvent::Train { message, hop, gen } => {
                let msg = &mut self.messages[message.0];
                if gen == msg.gen {
                    let arrivals = std::mem::replace(&mut msg.next, TrainProfile::empty());
                    self.advance_train(message, hop, arrivals, false);
                }
            }
            TransportEvent::TrainDone(message, gen) => {
                if gen != self.messages[message.0].gen {
                    return;
                }
                let msg = &mut self.messages[message.0];
                msg.packets_remaining = 0;
                self.record_completion(message, now);
            }
        }
    }

    /// Buffers a message's completion for `drain_completions`.
    fn record_completion(&mut self, message: MessageId, finish: Time) {
        let token = self.messages[message.0].token;
        self.completed.push(Completion { token, finish });
        self.done_slots.push(message.0);
    }

    /// Runs the simulation until no events remain, returning the final
    /// simulation time.
    pub fn run_until_idle(&mut self) -> Time {
        while let Some((now, event)) = self.queue.pop() {
            self.events_processed += 1;
            self.dispatch(now, event);
        }
        self.queue.now()
    }
}

impl NetworkBackend for PacketNetwork {
    /// Injects a co-resident message: its packets queue on the live links
    /// from `at` onwards and interleave with every other in-flight
    /// message, so cross-message queueing is modeled (unlike the blocking
    /// probe, which measures one message at a time).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time
    /// ([`PacketNetwork::now`]) or either NPU id is out of range.
    fn send_async(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize) {
        self.inject(token, at, src, dst, size);
    }

    /// The packet simulator cannot schedule hops in its processed past:
    /// new sends must enter at or after the internal clock.
    fn earliest_send_time(&self) -> Time {
        self.now()
    }

    fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    fn advance_until(&mut self, limit: Time) {
        while let Some((now, event)) = self.queue.pop_up_to(limit) {
            self.events_processed += 1;
            self.dispatch(now, event);
        }
    }

    /// Runs whole instants up to `limit` and stops after the first one
    /// that buffers a completion, so the caller only hears from it when
    /// there is something to act on.
    fn advance_to_completion(&mut self, limit: Time) -> Option<Time> {
        let mut ran = None;
        while let Some(t) = self.next_event_time().filter(|&t| t <= limit) {
            self.advance_until(t);
            ran = Some(t);
            if !self.completed.is_empty() {
                break;
            }
        }
        ran
    }

    /// Each drained message is forgotten: its slot goes to the next
    /// [`NetworkBackend::send_async`].
    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        self.free_slots.append(&mut self.done_slots);
        out.append(&mut self.completed);
    }

    /// `events` counts packet-hops under both transports: popped ones in
    /// per-packet mode, sent ones in batched mode. Once every message has
    /// arrived the two are equal.
    fn stats(&self) -> NetworkStats {
        let events = match self.config.transport {
            TransportMode::PerPacket => self.events_processed,
            TransportMode::Batched => self.packet_hops,
        };
        NetworkStats {
            messages: self.messages_sent,
            events,
            train_splits: self.train_splits,
            backend_setups: 1,
            ..NetworkStats::default()
        }
    }

    /// Per-packet transport is the ground truth. Batched transport is
    /// exact until it serializes a train it could not rewind.
    fn exact(&self) -> bool {
        self.train_interleavings == 0
    }

    /// Toggles grant recording on every link queue.
    fn set_telemetry(&mut self, enabled: bool) {
        for q in &mut self.link_queues {
            q.set_recording(enabled);
        }
    }

    fn link_traces(&self) -> Vec<LinkTrace> {
        self.link_queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.recorded().is_empty())
            .map(|(link, q)| LinkTrace {
                link,
                reservations: q.recorded().to_vec(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_network::AnalyticalNetwork;

    fn topo(notation: &str) -> Topology {
        Topology::parse(notation).unwrap()
    }

    /// Sends each `(at, src, dst, size)` under its index, runs `net` to
    /// idle and returns the finishes in send order.
    fn run_sends(net: &mut PacketNetwork, sends: &[(Time, NpuId, NpuId, DataSize)]) -> Vec<Time> {
        for (token, &(at, src, dst, size)) in sends.iter().enumerate() {
            net.send_async(token as u32, at, src, dst, size);
        }
        net.run_until_idle();
        let mut done = Vec::new();
        net.drain_completions(&mut done);
        let mut finishes = vec![None; sends.len()];
        for c in done {
            assert_eq!(finishes[c.token as usize].replace(c.finish), None);
        }
        finishes
            .into_iter()
            .map(|f| f.expect("every message completes"))
            .collect()
    }

    #[test]
    fn single_packet_single_hop() {
        let t = topo("R(2)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_kib(64);
        let got = run_sends(&mut net, &[(Time::ZERO, 0, 1, size)]);
        // One packet: serialization at the 100 GB/s link (one ring direction
        // on a 2-ring carries the full aggregate) + 500ns latency.
        let expected = t.dims()[0].link_bandwidth().transfer_time(size) + Time::from_ns(500);
        assert_eq!(got, [expected]);
    }

    #[test]
    fn multi_packet_message_pipelines_across_hops() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_mib(1);
        let got = run_sends(&mut net, &[(Time::ZERO, 0, 2, size)]);
        // Store-and-forward over 2 hops at 50 GB/s per ring direction:
        // full serialization once + one extra packet time + 2 latencies.
        let link_bw = t.dims()[0].link_bandwidth();
        let serial = link_bw.transfer_time(size);
        let pkt = link_bw.transfer_time(DataSize::from_kib(64));
        let expected = serial + pkt + Time::from_ns(1000);
        assert_eq!(got, [expected]);
    }

    #[test]
    fn concurrent_messages_share_a_link() {
        let t = topo("R(2)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_mib(1);
        let got = run_sends(&mut net, &[(Time::ZERO, 0, 1, size); 2]);
        let (ta, tb) = (got[0], got[1]);
        // The second message finishes roughly twice as late (same link).
        assert!(tb > ta);
        assert!(tb.as_us_f64() / ta.as_us_f64() > 1.8);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        let size = DataSize::from_mib(1);
        let got = run_sends(
            &mut net,
            &[(Time::ZERO, 0, 1, size), (Time::ZERO, 4, 5, size)],
        );
        assert_eq!(got[0], got[1]);
    }

    #[test]
    fn agrees_with_analytical_for_uncongested_p2p() {
        // §IV-C: for a single bandwidth-bound transfer the closed form and
        // the packet simulation should be close.
        let t = topo("R(4)@100_SW(2)@50");
        let mut packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut analytical = AnalyticalNetwork::new(t);
        let size = DataSize::from_mib(64);
        // NOTE: analytical uses aggregate dim bandwidth; a unidirectional
        // p2p through one ring link sees half of it, so compare on the
        // switch dimension where link == aggregate bandwidth.
        let got = packet.p2p_delay(0, 4, size).as_us_f64();
        let want = analytical.p2p_delay(0, 4, size).as_us_f64();
        let err = (got - want).abs() / want;
        assert!(err < 0.05, "packet {got} vs analytical {want} ({err})");
    }

    #[test]
    fn self_message_completes_instantly() {
        let t = topo("R(4)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        net.send_async(3, Time::ZERO, 3, 3, DataSize::from_mib(1));
        assert_eq!(net.next_event_time(), None);
        let mut done = Vec::new();
        net.drain_completions(&mut done);
        assert_eq!(
            done,
            [Completion {
                token: 3,
                finish: Time::ZERO
            }]
        );
    }

    #[test]
    fn event_count_scales_with_packet_granularity() {
        let t = topo("R(4)@100");
        let size = DataSize::from_mib(1);
        let mut coarse = PacketNetwork::new(&t, PacketSimConfig::fast());
        coarse.send_async(0, Time::ZERO, 0, 1, size);
        coarse.run_until_idle();
        let mut fine = PacketNetwork::new(&t, PacketSimConfig::garnet_like());
        fine.send_async(0, Time::ZERO, 0, 1, size);
        fine.run_until_idle();
        assert!(fine.events_processed() > coarse.events_processed() * 100);
    }

    /// Sends the same traffic under both transports and asserts identical
    /// completions with an `O(packets)` / `O(1)` event gap per message.
    fn assert_transports_agree(
        notation: &str,
        sends: &[(usize, usize, u64)],
        pkt: PacketSimConfig,
    ) {
        let t = topo(notation);
        let mut per_packet = PacketNetwork::new(&t, pkt);
        let mut batched = PacketNetwork::new(&t, pkt.with_transport(TransportMode::Batched));
        let sends: Vec<_> = sends
            .iter()
            .map(|&(src, dst, kib)| (Time::ZERO, src, dst, DataSize::from_kib(kib)))
            .collect();
        assert_eq!(
            run_sends(&mut per_packet, &sends),
            run_sends(&mut batched, &sends),
            "transports diverged on {notation}"
        );
        assert!(batched.events_processed() <= per_packet.events_processed());
        // The reported event count is the packet-hop count either way.
        assert_eq!(batched.stats().events, per_packet.stats().events);
    }

    #[test]
    fn batched_transport_matches_per_packet_single_messages() {
        // Multi-hop ring route, switch traversal, cross-dimension route
        // (bandwidths differ per dimension, exercising the paced regime),
        // and a non-multiple payload with a short tail packet.
        assert_transports_agree("R(8)@100", &[(0, 3, 1024)], PacketSimConfig::fast());
        assert_transports_agree("SW(4)@100", &[(0, 2, 257)], PacketSimConfig::garnet_like());
        assert_transports_agree(
            "R(4)@100_SW(2)@50",
            &[(0, 5, 2048)],
            PacketSimConfig::fast(),
        );
        assert_transports_agree(
            "SW(2)@25_R(4)@200",
            &[(1, 7, 999)],
            PacketSimConfig::garnet_like(),
        );
    }

    #[test]
    fn batched_transport_matches_per_packet_shared_first_link() {
        // Same-source trains serialize eagerly at send time in both modes.
        assert_transports_agree(
            "R(8)@100",
            &[(0, 2, 512), (0, 3, 512), (0, 1, 128)],
            PacketSimConfig::fast(),
        );
    }

    #[test]
    fn batched_message_costs_o_hops_events() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(
            &t,
            PacketSimConfig::garnet_like().with_transport(TransportMode::Batched),
        );
        net.send_async(0, Time::ZERO, 0, 3, DataSize::from_mib(4)); // 3 hops, 16 Ki packets
        net.run_until_idle();
        // 2 train-hop events (hops 1..3) + 1 completion event.
        assert_eq!(net.events_processed(), 3);
    }

    #[test]
    fn routes_are_memoized_across_sends() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        for token in 0..5 {
            net.send_async(token, net.now(), 0, 2, DataSize::from_kib(64));
            net.run_until_idle();
        }
        net.send_async(5, net.now(), 2, 0, DataSize::from_kib(64));
        net.run_until_idle();
        assert_eq!(net.routes_cached(), 2);
    }

    /// Regression for the probe semantics: `p2p_delay` must not drain
    /// unrelated in-flight traffic to idle as a side effect.
    #[test]
    fn p2p_probe_does_not_drain_backlog() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        // A long transfer keeps links 4->5->6 busy far beyond the probe.
        net.send_async(0, Time::ZERO, 4, 6, DataSize::from_mib(256));
        // Probe a disjoint path: it completes quickly...
        let probe = net.p2p_delay(0, 1, DataSize::from_kib(64));
        assert!(probe > Time::ZERO);
        // ...while the backlogged message is still in flight: its
        // completion is still to come (a probe discards those it meets).
        assert!(net.next_event_time().is_some());
        let idle = net.run_until_idle();
        let mut done = Vec::new();
        net.drain_completions(&mut done);
        assert_eq!(
            done,
            [Completion {
                token: 0,
                finish: idle
            }]
        );
    }

    /// Regression for the batched-mode interleaving fix: when two trains'
    /// arrival windows overlap on a link, per-packet transport interleaves
    /// them packet-by-packet. Batched transport used to serialize whole
    /// trains (a counted, bounded divergence); it now splits the trains at
    /// the interleave points — rewinding the link and replaying the merged
    /// per-packet FIFO sequence — so **every individual completion is
    /// bit-identical** to per-packet ground truth.
    #[test]
    fn batched_interleaving_is_counted_and_bounded() {
        // Incast through a switch: both sources' trains arrive at the
        // shared down-link paced by their (equal-rate) up-links, so the
        // arrival windows overlap from the first packet.
        let t = topo("SW(4)@100");
        let size = DataSize::from_mib(2); // 32 packets at 64 KiB
        let mut per_packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut batched = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        let sends = [(Time::ZERO, 0, 2, size), (Time::ZERO, 1, 2, size)];
        let want = run_sends(&mut per_packet, &sends);
        let got = run_sends(&mut batched, &sends);
        // The overlap was detected (once, on the shared down-link) and
        // resolved by a split, not a serialization.
        assert_eq!(batched.stats().train_splits, 1);
        assert_eq!(batched.train_interleavings, 0);
        assert_eq!(per_packet.stats().train_splits, 0);
        assert_eq!(per_packet.train_interleavings, 0);
        // Exact equality, message by message — not just the last one.
        assert_eq!(got, want);
        // The answer is reported exact.
        assert!(batched.exact());
    }

    /// Three-way incast: the rewindable group re-merges on every new
    /// overlapping train, staying bit-identical to per-packet transport.
    #[test]
    fn batched_three_way_incast_splits_bit_identical() {
        let t = topo("SW(8)@150");
        let size = DataSize::from_kib(2048 + 37); // short tail packet
        let mut per_packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut batched = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        let sends = [0, 1, 2].map(|src| (Time::ZERO, src, 5, size));
        let want = run_sends(&mut per_packet, &sends);
        let got = run_sends(&mut batched, &sends);
        assert_eq!(batched.stats().train_splits, 2);
        assert_eq!(batched.train_interleavings, 0);
        assert_eq!(got, want);
    }

    /// Contiguous trains (the collective / sequential-probe regime) never
    /// trip the interleaving counter.
    #[test]
    fn contiguous_trains_do_not_count_as_interleavings() {
        let t = topo("R(8)@100");
        let mut net = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        // Same-source trains serialize eagerly at send time; a disjoint
        // route never shares a link.
        let size = DataSize::from_mib(1);
        run_sends(
            &mut net,
            &[
                (Time::ZERO, 0, 2, size),
                (Time::ZERO, 0, 3, size),
                (Time::ZERO, 4, 5, size),
            ],
        );
        assert_eq!(net.train_interleavings, 0);
    }

    /// A probe sharing a backlogged link pays the queueing it finds.
    #[test]
    fn p2p_probe_pays_for_backlog_on_shared_link() {
        let t = topo("R(2)@100");
        let solo = |size| PacketNetwork::new(&t, PacketSimConfig::fast()).p2p_delay(0, 1, size);
        let quiet = solo(DataSize::from_kib(64));
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        net.send_async(0, Time::ZERO, 0, 1, DataSize::from_mib(16));
        let congested = net.p2p_delay(0, 1, DataSize::from_kib(64));
        assert!(
            congested > quiet * 10,
            "probe ignored backlog: {congested} vs {quiet}"
        );
        // The backlog drains first (FIFO link), so the probe arrives after
        // the whole backlog would have on its own.
        assert!(congested > solo(DataSize::from_mib(16)));
    }

    /// Recording link grant traces does not perturb message completions.
    #[test]
    fn link_trace_recording_does_not_perturb_completions() {
        let t = topo("R(8)@100");
        let run = |cfg: PacketSimConfig, record: bool| {
            let mut net = PacketNetwork::new(&t, cfg);
            net.set_telemetry(record);
            // Overlapping incast plus cross traffic so several links carry
            // queued grants.
            let finishes = run_sends(
                &mut net,
                &[
                    (Time::ZERO, 0, 2, DataSize::from_mib(1)),
                    (Time::ZERO, 1, 2, DataSize::from_mib(1)),
                    (Time::from_us(1), 3, 2, DataSize::from_kib(256)),
                    (Time::ZERO, 4, 6, DataSize::from_mib(2)),
                ],
            );
            (finishes, net.link_traces())
        };

        let (quiet_finishes, quiet_traces) = run(PacketSimConfig::fast(), false);
        assert!(quiet_traces.is_empty(), "recording must be off by default");

        let (base_finishes, base_traces) = run(PacketSimConfig::fast(), true);
        assert_eq!(
            base_finishes, quiet_finishes,
            "recording changed simulated behavior"
        );
        assert!(!base_traces.is_empty());
    }

    /// Drives `net` on the async API from `first` (all sent at zero):
    /// each drained completion, while `follow_ups` lasts, sends the same
    /// pair again from its finish instant (or the clock, if later).
    /// Returns every finish in send order; a message's token is its place
    /// in that order.
    fn chain_async(
        net: &mut PacketNetwork,
        first: &[(NpuId, NpuId)],
        size: DataSize,
        mut follow_ups: usize,
    ) -> Vec<Time> {
        let mut pairs = Vec::new();
        let mut finishes = Vec::new();
        for &(src, dst) in first {
            net.send_async(pairs.len() as u32, Time::ZERO, src, dst, size);
            pairs.push((src, dst));
            finishes.push(None);
        }
        let mut batch = Vec::new();
        while net.advance_to_completion(Time::MAX).is_some() {
            net.drain_completions(&mut batch);
            let mut again = Vec::new();
            for c in batch.drain(..) {
                let i = c.token as usize;
                assert_eq!(finishes[i].replace(c.finish), None, "token returned twice");
                if follow_ups > 0 {
                    follow_ups -= 1;
                    again.push((c.finish.max(net.earliest_send_time()), pairs[i]));
                }
            }
            for (at, (src, dst)) in again {
                net.send_async(pairs.len() as u32, at, src, dst, size);
                pairs.push((src, dst));
                finishes.push(None);
            }
        }
        finishes
            .into_iter()
            .map(|f| f.expect("every message completes"))
            .collect()
    }

    /// A chain of async sends, each sent once the previous completion is
    /// drained, lives in one slot under both transports; every message
    /// crosses the idle network in its solo delay, and `stats().messages`
    /// counts every send.
    #[test]
    fn drained_chain_holds_one_slot() {
        let t = topo("R(8)@100");
        let size = DataSize::from_mib(1);
        for transport in [TransportMode::PerPacket, TransportMode::Batched] {
            let config = PacketSimConfig::fast().with_transport(transport);
            let solo = PacketNetwork::new(&t, config).p2p_delay(0, 3, size);
            let mut net = PacketNetwork::new(&t, config);
            let finishes = chain_async(&mut net, &[(0, 3)], size, 9);
            assert_eq!(finishes.len(), 10);
            assert_eq!(finishes[0], solo);
            assert!(finishes.windows(2).all(|w| w[1] - w[0] == solo));
            assert_eq!(net.messages.len(), 1, "{transport:?} grew past one slot");
            assert_eq!(net.stats().messages, 10);
        }
    }

    /// Slot reuse right after a train split (the `SW(4)` incast of
    /// `batched_interleaving_is_counted_and_bounded`, with every drained
    /// message re-sent) gives, message by message, the per-packet
    /// completions.
    #[test]
    fn slot_reuse_after_a_train_split_matches_per_packet() {
        let t = topo("SW(4)@100");
        let size = DataSize::from_mib(2);
        let incast = [(0, 2), (1, 2)];
        let mut per_packet = PacketNetwork::new(&t, PacketSimConfig::fast());
        let mut batched = PacketNetwork::new(
            &t,
            PacketSimConfig::fast().with_transport(TransportMode::Batched),
        );
        let want = chain_async(&mut per_packet, &incast, size, 6);
        let got = chain_async(&mut batched, &incast, size, 6);
        assert_eq!(got, want);
        assert!(batched.stats().train_splits >= 1);
        assert_eq!(batched.train_interleavings, 0);
        assert!(batched.messages.len() < got.len(), "no slot was reused");
    }

    /// A send dated before the network's clock is rejected, even where
    /// its first hop would still land in the future.
    #[test]
    #[should_panic(expected = "before the packet network's clock")]
    fn send_before_the_clock_panics() {
        let t = topo("R(2)@100");
        let mut net = PacketNetwork::new(&t, PacketSimConfig::fast());
        net.send_async(0, Time::ZERO, 0, 1, DataSize::from_mib(1));
        net.run_until_idle();
        net.send_async(1, Time::ZERO, 0, 1, DataSize::from_mib(1));
    }
}
