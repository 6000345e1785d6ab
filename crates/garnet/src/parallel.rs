//! Domain-partitioned parallel execution of the packet network.
//!
//! The sequential core drains one totally-ordered event queue; at fine
//! packet granularity the 512-NPU rows keep ~10⁵ in-flight events in that
//! heap and every pop pays `O(log n)` over the whole population. This
//! module executes the same simulation on a [`PartitionedEventQueue`]:
//!
//! * **Lanes.** Every `(route, hop)` pair is a FIFO lane whose events mean
//!   "this packet (or train) is ready to acquire `route[hop]` at time t".
//!   A lane's events are produced by exactly one upstream lane (or by
//!   `send_at` for hop 0), and FIFO links complete reservations in grant
//!   order, so per-lane event times are non-decreasing — the invariant the
//!   partitioned queue's `O(1)`-per-event merge relies on.
//! * **Domains.** Links are split into contiguous index blocks, one block
//!   per domain; a lane belongs to the domain owning the link it acquires,
//!   so during a window each domain mutates only its own `FifoResource`
//!   slice. All cross-domain effects travel as timestamped lane emissions
//!   applied at the window barrier.
//! * **Lookahead.** An event at time `t` acquiring a link with propagation
//!   latency `ℓ` emits its downstream event at `≥ t + ℓ`, so the minimum
//!   link latency is a sound conservative lookahead: all events in a
//!   window `[W, W + L)` are causally independent across domains.
//!
//! Completion bookkeeping (message finish times, async completion
//! records) is deferred to the barrier and applied in deterministic
//! domain order, so `messages` stays read-only while worker threads run.
//! Results are bit-identical for every worker thread count by
//! construction, and bit-identical to the sequential core whenever
//! same-time acquisitions of a shared link arrive in route-registration
//! order — which the lockstep collective runner's deterministic send
//! loops guarantee (pinned by this module's tests and the
//! `parallel_equivalence` suite).

use astra_des::{
    DataSize, FifoResource, LaneId, Outbox, PartitionedEventQueue, Time, TrainProfile,
};
use astra_topology::{LinkGraph, LinkId};

use crate::network::{MessageId, PacketNetwork, TransportMode};

/// Upper bound on partition domains: enough slack for 8–16 worker
/// threads while keeping the per-window barrier cheap.
const MAX_DOMAINS: usize = 16;

/// Event payload on a partitioned lane: the unit is ready to acquire the
/// lane's link at the event time.
#[derive(Clone, Debug)]
pub(crate) enum ParEvent {
    /// One per-packet-mode packet (the tail packet may be short).
    Packet { message: MessageId, bytes: DataSize },
    /// One batched-mode train with its arrival profile at the link head.
    Train {
        message: MessageId,
        arrivals: TrainProfile,
    },
}

/// Static description of one `(route, hop)` lane.
#[derive(Copy, Clone, Debug)]
struct LaneMeta {
    /// The physical link this lane's events acquire.
    link: LinkId,
    /// Lane of the route's next hop (`None` at the destination hop).
    next: Option<LaneId>,
}

/// The domain-partitioned executor state carried by a [`PacketNetwork`]
/// running in [`astra_des::SimMode::Parallel`].
#[derive(Debug)]
pub(crate) struct ParallelCore {
    partition: PartitionedEventQueue<ParEvent>,
    lane_meta: Vec<LaneMeta>,
    /// Hop-0 lane per memoized route (`None` for empty/self routes).
    route_head: Vec<Option<LaneId>>,
    /// Sends staged by `send_at`, entered into the lanes (stably sorted
    /// by time, preserving injection order on ties — the sequential
    /// queue's `(time, seq)` order) when the simulation next advances.
    staged: Vec<(Time, LaneId, ParEvent)>,
    staged_min: Time,
    /// Completion records whose time lies beyond the last `advance_until`
    /// limit; delivered once the clock reaches them (the sequential core
    /// would not have popped their events yet either).
    held: Vec<(Time, ParEvent)>,
    held_min: Time,
    /// Contiguous links per domain (the last block may be short).
    links_per_domain: usize,
    /// Time of the last processed event (mirrors the sequential
    /// `EventQueue::now`).
    clock: Time,
}

/// One domain's mutable window state: its contiguous slices of the
/// per-link resources plus window-local accumulators.
struct DomainState<'a> {
    links: &'a mut [FifoResource],
    tails: &'a mut [Time],
    /// Global index of `links[0]`.
    base: usize,
    interleavings: u64,
    last_time: Time,
}

impl ParallelCore {
    /// Builds the executor for a link graph, or `None` when no positive
    /// conservative lookahead exists (a zero-latency link, or no links at
    /// all) — the caller then stays on the sequential core.
    pub(crate) fn for_graph(graph: &LinkGraph) -> Option<ParallelCore> {
        let lookahead = graph.links().map(|(_, props)| props.latency).min()?;
        if lookahead == Time::ZERO {
            return None;
        }
        let num_links = graph.num_links();
        let domains = num_links.min(MAX_DOMAINS);
        let links_per_domain = num_links.div_ceil(domains);
        Some(ParallelCore {
            partition: PartitionedEventQueue::new(num_links.div_ceil(links_per_domain), lookahead),
            lane_meta: Vec::new(),
            route_head: Vec::new(),
            staged: Vec::new(),
            staged_min: Time::MAX,
            held: Vec::new(),
            held_min: Time::MAX,
            links_per_domain,
            clock: Time::ZERO,
        })
    }

    /// Registers the lanes of a newly memoized route (one per hop, each
    /// owned by the domain of the link it acquires).
    pub(crate) fn register_route(&mut self, route: &[LinkId]) {
        if route.is_empty() {
            self.route_head.push(None);
            return;
        }
        let first = self.lane_meta.len();
        for &link in route {
            let lane = self.partition.add_lane(link.0 / self.links_per_domain);
            debug_assert_eq!(lane.0, self.lane_meta.len(), "lane ids are dense");
            self.lane_meta.push(LaneMeta { link, next: None });
        }
        for hop in 0..route.len() - 1 {
            self.lane_meta[first + hop].next = Some(LaneId(first + hop + 1));
        }
        self.route_head.push(Some(LaneId(first)));
    }

    /// Stages a send's hop-0 entries (one per packet, or one train).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage_send(
        &mut self,
        at: Time,
        message: MessageId,
        route: usize,
        transport: TransportMode,
        count: u64,
        packet: DataSize,
        tail: DataSize,
    ) {
        debug_assert!(count > 0, "degenerate sends are completed by send_at");
        let Some(head) = self.route_head[route] else {
            debug_assert!(false, "empty routes are completed by send_at");
            return;
        };
        self.staged_min = self.staged_min.min(at);
        match transport {
            TransportMode::PerPacket => {
                for i in 0..count {
                    let bytes = if i + 1 == count { tail } else { packet };
                    self.staged
                        .push((at, head, ParEvent::Packet { message, bytes }));
                }
            }
            TransportMode::Batched => {
                self.staged.push((
                    at,
                    head,
                    ParEvent::Train {
                        message,
                        arrivals: TrainProfile::simultaneous(count, at),
                    },
                ));
            }
        }
    }

    /// Moves staged sends into the partitioned lanes in stable time order.
    fn drain_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // Stable sort: ties keep injection order, matching the sequential
        // queue's (time, seq) discipline.
        self.staged.sort_by_key(|&(t, _, _)| t);
        for (t, lane, ev) in self.staged.drain(..) {
            self.partition.push(lane, t, ev);
        }
        self.staged_min = Time::MAX;
    }

    /// Takes the held completion records due at or before `limit`
    /// (all of them when `limit` is `None`), preserving order.
    fn take_held(&mut self, limit: Option<Time>) -> Vec<(Time, ParEvent)> {
        let Some(l) = limit else {
            self.held_min = Time::MAX;
            return std::mem::take(&mut self.held);
        };
        if self.held_min > l {
            return Vec::new();
        }
        let mut due = Vec::new();
        let mut keep = Vec::new();
        let mut min = Time::MAX;
        for (t, ev) in self.held.drain(..) {
            if t <= l {
                due.push((t, ev));
            } else {
                min = min.min(t);
                keep.push((t, ev));
            }
        }
        self.held = keep;
        self.held_min = min;
        due
    }

    /// Time of the last processed event.
    pub(crate) fn clock(&self) -> Time {
        self.clock
    }

    /// Earliest pending work: a staged send, a lane event, or a held
    /// completion record.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        let mut next = self.staged_min.min(self.held_min);
        if let Some(t) = self.partition.next_time() {
            next = next.min(t);
        }
        (next != Time::MAX).then_some(next)
    }
}

impl PacketNetwork {
    /// Advances the parallel core: up to `limit` (inclusive) when given,
    /// to idle otherwise. Returns the clock (last processed event time).
    pub(crate) fn run_parallel(&mut self, limit: Option<Time>) -> Time {
        let threads = self.config.sim_mode.threads();
        let due = {
            let Some(core) = self.parallel.as_mut() else {
                debug_assert!(false, "run_parallel requires the parallel core");
                return self.now();
            };
            core.drain_staged();
            core.take_held(limit)
        };
        self.apply_completions(due);
        while let Some(core) = self.parallel.as_mut() {
            let links_per_domain = core.links_per_domain;
            let lane_meta = &core.lane_meta;
            let graph = &self.graph;
            let messages = &self.messages;
            let mut states: Vec<DomainState> = self
                .link_queues
                .chunks_mut(links_per_domain)
                .zip(self.link_train_tail.chunks_mut(links_per_domain))
                .enumerate()
                .map(|(d, (links, tails))| DomainState {
                    links,
                    tails,
                    base: d * links_per_domain,
                    interleavings: 0,
                    last_time: Time::ZERO,
                })
                .collect();
            let handler = |_domain: usize,
                           st: &mut DomainState,
                           out: &mut Outbox<ParEvent>,
                           lane: LaneId,
                           t: Time,
                           ev: ParEvent| {
                let meta = &lane_meta[lane.0];
                let props = graph.link(meta.link);
                let slot = meta.link.0 - st.base;
                // Pops within a domain are (time, lane)-ordered, so the
                // last assignment is the window's max processed time.
                st.last_time = t;
                match ev {
                    ParEvent::Packet { message, bytes } => {
                        let service = props.bandwidth.transfer_time(bytes);
                        let done = st.links[slot].acquire(t, service).end + props.latency;
                        match meta.next {
                            Some(next) => out.emit(next, done, ParEvent::Packet { message, bytes }),
                            None => out.defer(done, ParEvent::Packet { message, bytes }),
                        }
                    }
                    ParEvent::Train { message, arrivals } => {
                        let msg = &messages[message.0];
                        let service = props.bandwidth.transfer_time(msg.packet_bytes);
                        let tail_service = props.bandwidth.transfer_time(msg.tail_bytes);
                        // Same overlap detector as the sequential batched
                        // path (the split fast path needs cross-domain
                        // rewinds, so parallel batched mode serializes
                        // overlapping trains and counts them instead).
                        let prev_tail = st.tails[slot];
                        if arrivals.first() < prev_tail {
                            st.interleavings += 1;
                        }
                        st.tails[slot] = prev_tail.max(arrivals.last());
                        let occ = st.links[slot].acquire_train(&arrivals, service, tail_service);
                        let forward = occ.completions.delayed_by(props.latency);
                        match meta.next {
                            Some(next) => {
                                let head = forward.first();
                                out.emit(
                                    next,
                                    head,
                                    ParEvent::Train {
                                        message,
                                        arrivals: forward,
                                    },
                                );
                            }
                            None => {
                                let done = forward.last();
                                out.defer(
                                    done,
                                    ParEvent::Train {
                                        message,
                                        arrivals: forward,
                                    },
                                );
                            }
                        }
                    }
                }
            };
            let Some(outcome) = core
                .partition
                .run_window(&mut states, threads, limit, handler)
            else {
                break;
            };
            let mut window_last = Time::ZERO;
            let mut interleavings = 0;
            for st in &states {
                window_last = window_last.max(st.last_time);
                interleavings += st.interleavings;
            }
            drop(states);
            self.events_processed += outcome.processed;
            self.train_interleavings += interleavings;
            let mut due = Vec::new();
            {
                // astra-lint: allow(panic, the core existed above and nothing removes it)
                let core = self.parallel.as_mut().expect("parallel core present");
                core.clock = core.clock.max(window_last);
                for (time, ev) in outcome.deferred {
                    if limit.is_some_and(|l| time > l) {
                        core.held_min = core.held_min.min(time);
                        core.held.push((time, ev));
                    } else {
                        core.clock = core.clock.max(time);
                        due.push((time, ev));
                    }
                }
            }
            self.apply_completions(due);
        }
        self.now()
    }

    /// Applies deferred arrival records: message finish bookkeeping and
    /// async completion callbacks, in the deterministic barrier order.
    fn apply_completions(&mut self, records: Vec<(Time, ParEvent)>) {
        for (time, ev) in records {
            if let Some(core) = self.parallel.as_mut() {
                core.clock = core.clock.max(time);
            }
            match ev {
                ParEvent::Packet { message, .. } => {
                    let msg = &mut self.messages[message.0];
                    msg.packets_remaining -= 1;
                    if msg.packets_remaining == 0 {
                        msg.finish = Some(time);
                        self.record_completion(message, time);
                    }
                }
                ParEvent::Train { message, .. } => {
                    let msg = &mut self.messages[message.0];
                    msg.packets_remaining = 0;
                    msg.finish = Some(time);
                    self.record_completion(message, time);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use astra_des::{DataSize, SimMode, Time};
    use astra_network::NetworkBackend;
    use astra_topology::Topology;

    use crate::network::{PacketNetwork, PacketSimConfig, TransportMode};
    use crate::runner::collective_time;

    fn modes() -> [SimMode; 4] {
        [
            SimMode::Sequential,
            SimMode::Parallel { threads: 1 },
            SimMode::Parallel { threads: 2 },
            SimMode::Parallel { threads: 8 },
        ]
    }

    #[test]
    fn parallel_matches_sequential_on_collectives() {
        for notation in ["R(4)@100", "SW(4)@100", "R(4)@100_SW(2)@50"] {
            let topo = Topology::parse(notation).unwrap();
            for transport in TransportMode::ALL {
                let reports: Vec<_> = modes()
                    .iter()
                    .map(|&mode| {
                        collective_time(
                            &topo,
                            DataSize::from_mib(2),
                            &PacketSimConfig::fast()
                                .with_transport(transport)
                                .with_sim_mode(mode),
                        )
                    })
                    .collect();
                for r in &reports[1..] {
                    assert_eq!(
                        (r.finish, r.events, r.messages),
                        (reports[0].finish, reports[0].events, reports[0].messages),
                        "{notation} {transport} diverged from sequential"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_counts_bit_identical_on_concurrent_traffic() {
        let topo = Topology::parse("R(8)@100_SW(2)@50").unwrap();
        let sends = [
            (0usize, 3usize, 700u64),
            (5, 1, 1024),
            (2, 10, 257),
            (9, 4, 64),
            (0, 12, 512),
            (7, 7, 128),
        ];
        for transport in TransportMode::ALL {
            let run = |mode: SimMode| {
                let mut net = PacketNetwork::new(
                    &topo,
                    PacketSimConfig::fast()
                        .with_transport(transport)
                        .with_sim_mode(mode),
                );
                for (i, &(src, dst, kib)) in sends.iter().enumerate() {
                    net.send_async(
                        Time::from_ns(i as u64 * 100),
                        src,
                        dst,
                        DataSize::from_kib(kib),
                    );
                }
                let finish = net.run_until_idle();
                let mut completions = Vec::new();
                net.drain_completions(&mut completions);
                let stats = net.stats();
                (
                    finish,
                    completions,
                    stats.messages,
                    stats.events,
                    stats.train_serializations,
                )
            };
            let reference = run(SimMode::Parallel { threads: 1 });
            for threads in [2, 8] {
                assert_eq!(
                    run(SimMode::Parallel { threads }),
                    reference,
                    "{transport} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_p2p_delay_matches_sequential() {
        let topo = Topology::parse("R(8)@100").unwrap();
        let mut seq = PacketNetwork::new(&topo, PacketSimConfig::fast());
        let mut par = PacketNetwork::new(
            &topo,
            PacketSimConfig::fast().with_sim_mode(SimMode::Parallel { threads: 2 }),
        );
        for &(src, dst, kib) in &[(0usize, 2usize, 512u64), (3, 6, 1024), (1, 0, 64)] {
            let size = DataSize::from_kib(kib);
            assert_eq!(seq.p2p_delay(src, dst, size), par.p2p_delay(src, dst, size));
        }
    }

    #[test]
    fn parallel_incremental_advance_matches_one_shot() {
        // Engine-style stepping: advance_until(next_event_time) repeatedly
        // must deliver the same completions as one run_until_idle.
        let topo = Topology::parse("R(8)@100").unwrap();
        let mode = SimMode::Parallel { threads: 2 };
        let sends = [(0usize, 3usize, 512u64), (4, 1, 700), (2, 6, 257)];
        let mut oneshot = PacketNetwork::new(&topo, PacketSimConfig::fast().with_sim_mode(mode));
        let mut stepped = PacketNetwork::new(&topo, PacketSimConfig::fast().with_sim_mode(mode));
        for &(src, dst, kib) in &sends {
            oneshot.send_async(Time::ZERO, src, dst, DataSize::from_kib(kib));
            stepped.send_async(Time::ZERO, src, dst, DataSize::from_kib(kib));
        }
        let finish = oneshot.run_until_idle();
        let mut want = Vec::new();
        oneshot.drain_completions(&mut want);
        let mut got = Vec::new();
        while let Some(t) = stepped.next_event_time() {
            stepped.advance_until(t);
            stepped.drain_completions(&mut got);
        }
        assert_eq!(got, want);
        assert_eq!(stepped.now(), finish);
        assert_eq!(stepped.events_processed(), oneshot.events_processed());
    }

    #[test]
    fn zero_latency_topologies_fall_back_to_sequential() {
        let topo = Topology::parse("R(4)@100").unwrap();
        let zero = Topology::new(
            topo.dims()
                .iter()
                .map(|d| (*d).with_link_latency(Time::ZERO))
                .collect(),
        );
        let net = PacketNetwork::new(
            &zero,
            PacketSimConfig::fast().with_sim_mode(SimMode::Parallel { threads: 4 }),
        );
        assert!(net.parallel.is_none(), "zero lookahead must fall back");
    }
}
