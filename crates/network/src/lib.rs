//! Analytical network backend (ASTRA-sim 2.0 §IV-C).
//!
//! The original ASTRA-sim used the cycle-accurate Garnet NoC simulator as
//! its network layer, which is both too slow for 1000s-of-NPU systems and
//! hard to retarget at arbitrary multi-dimensional topologies. ASTRA-sim 2.0
//! replaces it with a closed-form analytical backend:
//!
//! ```text
//! Time = LinkLatency × Hops + MessageSize / LinkBandwidth
//! ```
//!
//! This is accurate for distributed-training traffic because (a) collective
//! payloads are large (100 MB–1 GB), i.e. bandwidth-bound, and (b)
//! multi-rail hierarchical collectives on the Ring/FullyConnected/Switch
//! building blocks are congestion-free by construction.
//!
//! The [`NetworkBackend`] trait is the Rust analogue of the paper's
//! `NetworkAPI` (`sim_send`/`sim_recv`, Snippet 2): the system layer sends
//! messages and collects their completion callbacks.
//! The packet-level backend in `astra-garnet` implements the same trait.
//!
//! # Example
//!
//! ```
//! use astra_des::DataSize;
//! use astra_network::{AnalyticalNetwork, NetworkBackend};
//! use astra_topology::Topology;
//!
//! let topo = Topology::parse("R(4)@100_SW(2)@50").unwrap();
//! let mut net = AnalyticalNetwork::new(topo);
//! let delay = net.p2p_delay(0, 1, DataSize::from_mib(64));
//! assert!(delay > astra_des::Time::ZERO);
//! ```

pub mod congestion;
mod flow;
mod routes;
mod warm;

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use astra_des::{DataSize, Time};
use astra_topology::{FaultedGraph, NpuId, Topology};
use serde::{Deserialize, Serialize};

/// Re-exported so backend implementors and consumers share one type.
pub use astra_telemetry::LinkTrace;
pub use flow::FlowNetwork;
pub use routes::RouteTable;
pub use warm::{SharedDelayMemo, SharedRouteTable};

/// A finished async message, reported through
/// [`NetworkBackend::drain_completions`] — the `callback(finish)` half of
/// the paper's `sim_send(msg_size, dest, callback)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The caller's token of the message that finished, exactly as it was
    /// passed to [`NetworkBackend::send_async`].
    pub token: u32,
    /// Absolute time at which the message fully arrived.
    pub finish: Time,
}

/// Work counters a backend accumulates while serving traffic. The system
/// layer surfaces them in `SimReport` and the `engine-p2p` sweep series
/// uses them to compare the engine against the blocking-p2p oracle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages injected (async sends, blocking probes included).
    pub messages: u64,
    /// Closed-form delay queries answered from the per-`(src, dst, size)`
    /// memo (the analytical backend; zero elsewhere).
    pub cache_hits: u64,
    /// Internal events: packet-hops for the packet simulator (the same
    /// count whether it pops one event per packet-hop or reserves whole
    /// trains), rate re-shares for the fluid backend, zero for the closed
    /// form.
    pub events: u64,
    /// Overlapping packet trains the packet simulator rewound and replayed
    /// per-packet to stay exact (see `astra_garnet::TransportMode`); the
    /// one counter that depends on the transport.
    pub train_splits: u64,
    /// Backend instances constructed to serve the traffic, as reported by
    /// the backend itself: 1 for a real backend, one per message for the
    /// blocking-p2p oracle's probe backend, which measures every message
    /// on a fresh sub-simulation.
    pub backend_setups: u64,
}

impl NetworkStats {
    /// Adds `other`'s counters into `self` (used by the blocking-p2p
    /// oracle to fold per-probe backend stats into its total).
    pub fn merge(&mut self, other: &NetworkStats) {
        self.messages += other.messages;
        self.cache_hits += other.cache_hits;
        self.events += other.events;
        self.train_splits += other.train_splits;
        self.backend_setups += other.backend_setups;
    }
}

/// The token [`NetworkBackend::p2p_delay`] sends its probe under. Callers
/// that drive the async half themselves should not mix in probes.
pub const PROBE_TOKEN: u32 = u32::MAX;

/// The network-layer abstraction consumed by the system layer — the Rust
/// analogue of ASTRA-sim's `NetworkAPI` (paper Snippet 2).
///
/// Backends implement one calling convention, the async one:
/// [`NetworkBackend::send_async`] schedules a message at an absolute time
/// and returns immediately; the caller interleaves
/// [`NetworkBackend::advance_until`] with its own event loop (one shared
/// clock) and collects finish callbacks via
/// [`NetworkBackend::drain_completions`]. Engine-time-concurrent messages
/// are co-resident inside the backend, so cross-message contention is
/// modeled.
///
/// Messages are named by the caller: every send carries a `u32` token of
/// the caller's choosing, and the backend hands that token back in the
/// message's [`Completion`], exactly once. The backend never reads the
/// token, so the caller may index its own table with it (the engine keeps
/// its in-flight messages in a slab keyed by token) and reuse a token as
/// soon as its completion is drained.
///
/// [`NetworkBackend::p2p_delay`] is a provided blocking probe over that
/// async half: it measures one message to completion on the backend's own
/// clock.
///
/// Async callers must uphold one invariant: `send_async` times and
/// `advance_until` limits never move backwards (the engine's event loop
/// guarantees this by always draining backend events up to its next own
/// event before popping it). A caller that only reacts to completions can
/// use [`NetworkBackend::advance_to_completion`] instead of stepping
/// `advance_until` one instant at a time.
///
/// The trait takes `&mut self` because stateful backends (the packet-level
/// simulator) advance internal queues while estimating.
pub trait NetworkBackend {
    /// End-to-end delay for one `size`-byte message from `src` to `dst`,
    /// sent at [`NetworkBackend::earliest_send_time`] and simulated only
    /// until it completes.
    ///
    /// The probe rides whatever backlog the backend holds (a congested
    /// link delays it), but unrelated in-flight traffic is advanced no
    /// further than the probe's completion instant. Completions of other
    /// async messages discovered on the way are consumed, so a caller
    /// that drives the async half should not mix in probes.
    ///
    /// The probe is sent under the token [`PROBE_TOKEN`].
    ///
    /// Returns [`Time::ZERO`] when `src == dst`.
    fn p2p_delay(&mut self, src: NpuId, dst: NpuId, size: DataSize) -> Time {
        let at = self.earliest_send_time();
        self.send_async(PROBE_TOKEN, at, src, dst, size);
        let mut done = Vec::new();
        loop {
            self.drain_completions(&mut done);
            if let Some(c) = done.iter().find(|c| c.token == PROBE_TOKEN) {
                return c.finish - at;
            }
            done.clear();
            // astra-lint: allow(panic, a sent message always completes before its backend runs out of events)
            let next = self.next_event_time().expect("probe completes");
            self.advance_until(next);
        }
    }

    /// Schedules a `size`-byte message from `src` to `dst` entering the
    /// network at absolute time `at`, without advancing the simulation.
    /// The completion, carrying `token`, surfaces later through
    /// [`NetworkBackend::drain_completions`] (immediately for closed-form
    /// backends and for self/empty messages). The caller must not reuse a
    /// token while a message sent under it is still undrained.
    fn send_async(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize);

    /// Earliest instant a new [`NetworkBackend::send_async`] may enter the
    /// network. Closed-form and fluid backends accept any non-decreasing
    /// time (the default, [`Time::ZERO`]); the store-and-forward packet
    /// simulator cannot re-open its event history, so its floor is its
    /// internal clock. Callers that compute a send time from a completion
    /// (e.g. a NIC lane released *before* the completed message's last-hop
    /// propagation) must clamp to this floor.
    fn earliest_send_time(&self) -> Time {
        Time::ZERO
    }

    /// Earliest pending internal event, if any — the latest instant the
    /// caller may advance its own clock to before it must give the
    /// backend a chance to run ([`NetworkBackend::advance_until`]).
    fn next_event_time(&self) -> Option<Time>;

    /// Processes internal events with timestamps at or before `limit`.
    /// Completions discovered on the way are buffered for
    /// [`NetworkBackend::drain_completions`].
    fn advance_until(&mut self, limit: Time);

    /// Runs the backend towards its next completion without passing
    /// `limit`, and returns the last instant it processed (`None` when its
    /// next event lies beyond `limit`, or it has none).
    ///
    /// An *instant* is one [`NetworkBackend::advance_until`] call at
    /// [`NetworkBackend::next_event_time`]. The default runs exactly one
    /// instant. A backend may override it to run whole instants up to
    /// `limit` and stop after the first one that buffers a completion:
    /// for a caller that acts only on completions, that is the same
    /// sequence of events with fewer round trips. The packet simulator
    /// does so; the fluid flow backend keeps the default, because its
    /// float stepping depends on where it is asked to stop.
    fn advance_to_completion(&mut self, limit: Time) -> Option<Time> {
        let t = self.next_event_time().filter(|&t| t <= limit)?;
        self.advance_until(t);
        Some(t)
    }

    /// Moves all completions discovered since the last call into `out`.
    /// A drained completion ends its message's life in the backend, which
    /// may then reuse the message's storage, and frees its token for the
    /// caller's next [`NetworkBackend::send_async`].
    fn drain_completions(&mut self, out: &mut Vec<Completion>);

    /// Work counters accumulated so far (see [`NetworkStats`]).
    fn stats(&self) -> NetworkStats;

    /// Whether every completion so far is the ground-truth answer. The
    /// packet simulator's train transport returns `false` once it took an
    /// approximation, so the caller reruns per-packet. `true` by default.
    fn exact(&self) -> bool {
        true
    }

    /// `(hits, misses)` of the backend's per-`(src, dst, size)` delay
    /// memo, for the system layer's cache report. `(0, 0)` for backends
    /// without one (the default).
    fn delay_memo_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Turns link-level telemetry recording on or off. Backends without
    /// per-link state (the analytical closed form) ignore it — that is
    /// the default. Recording never changes simulated behavior; it only
    /// logs the grants that happen anyway.
    fn set_telemetry(&mut self, _enabled: bool) {}

    /// The per-link busy intervals recorded since telemetry was enabled,
    /// sorted by link index; empty when telemetry is off or the backend
    /// has no per-link state (the default).
    fn link_traces(&self) -> Vec<LinkTrace> {
        Vec::new()
    }
}

/// Which [`NetworkBackend`] implementation a simulation should use.
///
/// The kinds map to concrete backends as follows:
///
/// * `Analytical` — [`AnalyticalNetwork`] closed form (§IV-C), the default.
/// * `Packet` — store-and-forward packet simulation
///   (`astra_garnet::PacketNetwork`) with per-packet answers; the system
///   layer picks its transport. `batched` parses as this kind.
/// * `Flow` — [`FlowNetwork`] max-min fluid flows (congestion-aware, no
///   per-hop queueing).
///
/// The enum lives here (not in the packet crate) so the system layer can
/// carry the selection without depending on any specific backend.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum NetworkBackendKind {
    /// Closed-form analytical equation (congestion-free).
    #[default]
    Analytical,
    /// Store-and-forward packet DES (per-packet answers).
    Packet,
    /// Max-min fluid flow model.
    Flow,
}

impl NetworkBackendKind {
    /// All three kinds, for tests and sweeps.
    pub const ALL: [NetworkBackendKind; 3] = [
        NetworkBackendKind::Analytical,
        NetworkBackendKind::Packet,
        NetworkBackendKind::Flow,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkBackendKind::Analytical => "analytical",
            NetworkBackendKind::Packet => "packet",
            NetworkBackendKind::Flow => "flow",
        }
    }
}

impl fmt::Display for NetworkBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for NetworkBackendKind {
    type Err = String;

    /// Accepts `analytical`, `packet` and `flow`; `batched`, the retired
    /// name of the packet backend's train transport, means `packet`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytical" => Ok(NetworkBackendKind::Analytical),
            "packet" | "batched" => Ok(NetworkBackendKind::Packet),
            "flow" => Ok(NetworkBackendKind::Flow),
            other => Err(format!(
                "unknown network backend `{other}` (expected `analytical`, \
                 `packet`, or `flow`)"
            )),
        }
    }
}

/// Tunable constants of the analytical equation.
///
/// The paper notes the equation "could be amended to consider other
/// effects, such as wire propagation delay"; `per_message_overhead` is that
/// hook (software/NIC fixed cost per message), defaulting to zero.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalyticalConfig {
    /// Fixed per-message overhead added once per transfer.
    pub per_message_overhead: Time,
}

/// The analytical equation-based network backend (§IV-C).
///
/// Latency is accumulated per traversed dimension (`hops × link latency`),
/// and serialization is bounded by the slowest dimension the message
/// crosses under dimension-ordered routing.
///
/// Delays are memoized per `(src, dst, size)`: pipeline workloads issue
/// thousands of identical queries (the same activation size between the
/// same stage pair every microbatch), so repeat queries cost one hash
/// lookup instead of re-walking the coordinate grid.
/// [`NetworkStats::cache_hits`] counts the savings, and
/// [`NetworkBackend::delay_memo_stats`] reports hits and misses.
#[derive(Clone, Debug)]
pub struct AnalyticalNetwork {
    topo: Topology,
    config: AnalyticalConfig,
    cache: BTreeMap<(NpuId, NpuId, DataSize), Time>,
    hits: u64,
    misses: u64,
    messages: u64,
    ready: Vec<Completion>,
    /// Optional cross-run memo for the same topology, consulted only on a
    /// local-memo miss — local counters and answers stay bit-identical to
    /// a cold run whether or not the shared memo is warm.
    shared: Option<Arc<SharedDelayMemo>>,
    /// When fabric faults are active, delays are computed from routes over
    /// this degraded link graph instead of the pristine closed form.
    faulted: Option<FaultedGraph>,
}

impl AnalyticalNetwork {
    /// Creates a backend over `topo` with default configuration.
    pub fn new(topo: Topology) -> Self {
        Self::with_config(topo, AnalyticalConfig::default())
    }

    /// Creates a backend with explicit [`AnalyticalConfig`].
    pub fn with_config(topo: Topology, config: AnalyticalConfig) -> Self {
        AnalyticalNetwork {
            topo,
            config,
            cache: BTreeMap::new(),
            hits: 0,
            misses: 0,
            messages: 0,
            ready: Vec::new(),
            shared: None,
            faulted: None,
        }
    }

    /// Creates a backend whose local-memo misses consult (and fill) a
    /// cross-run [`SharedDelayMemo`]. The memo must have been created for
    /// this same topology and configuration — the closed form is a pure
    /// function of both, so a hit is then bit-identical to recomputing.
    pub fn with_shared_memo(topo: Topology, shared: Arc<SharedDelayMemo>) -> Self {
        let mut net = Self::new(topo);
        net.shared = Some(shared);
        net
    }

    /// Creates a backend over a fabric with a fault schedule already
    /// applied (see `FaultedGraph::new`). With a fabric, delays are
    /// computed from fault-aware routes over the degraded link graph (dead
    /// links avoided, degraded bandwidth and latency honored) instead of
    /// the pristine per-dimension closed form; `None` is
    /// [`AnalyticalNetwork::new`].
    ///
    /// The caller must have verified the live fabric is still connected
    /// (see `FaultedGraph::unreachable_pair`); querying a disconnected
    /// pair panics.
    pub fn with_fabric(topo: Topology, fabric: Option<FaultedGraph>) -> Self {
        let mut net = Self::new(topo);
        net.faulted = fabric;
        net
    }

    /// The closed-form delay, memoized per `(src, dst, size)`.
    fn cached_delay(&mut self, src: NpuId, dst: NpuId, size: DataSize) -> Time {
        if src == dst {
            return Time::ZERO;
        }
        if let Some(&delay) = self.cache.get(&(src, dst, size)) {
            self.hits += 1;
            return delay;
        }
        self.misses += 1;
        if let Some(shared) = &self.shared {
            if let Some(delay) = shared.get(src, dst, size) {
                self.cache.insert((src, dst, size), delay);
                return delay;
            }
        }
        let delay = match &self.faulted {
            Some(faulted) => faulted_route_delay(faulted, self.config, src, dst, size),
            None => self.latency_term(src, dst) + self.serialization_term(src, dst, size),
        };
        self.cache.insert((src, dst, size), delay);
        if let Some(shared) = &self.shared {
            shared.insert(src, dst, size, delay);
        }
        delay
    }

    /// The topology this backend models.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The latency term only: `Σ_dims hops_d × linkLatency_d` (plus the
    /// fixed per-message overhead).
    pub fn latency_term(&self, src: NpuId, dst: NpuId) -> Time {
        let (ca, cb) = (self.topo.coords(src), self.topo.coords(dst));
        let mut t = self.config.per_message_overhead;
        for (dim, (&x, &y)) in self.topo.dims().iter().zip(ca.iter().zip(&cb)) {
            let hops = dim.block().hop_distance(x, y);
            t += dim.link_latency() * hops as u64;
        }
        t
    }

    /// The serialization term only: `size / min linkBandwidth` over the
    /// dimensions where the two endpoints differ (zero for `src == dst`).
    pub fn serialization_term(&self, src: NpuId, dst: NpuId, size: DataSize) -> Time {
        let (ca, cb) = (self.topo.coords(src), self.topo.coords(dst));
        let bottleneck = self
            .topo
            .dims()
            .iter()
            .zip(ca.iter().zip(&cb))
            .filter(|(_, (&x, &y))| x != y)
            .map(|(d, _)| d.bandwidth())
            .min();
        match bottleneck {
            Some(bw) => bw.transfer_time(size),
            None => Time::ZERO,
        }
    }
}

/// The fault-aware analogue of the closed form, evaluated over one
/// fault-aware route: `Σ link latency + size / min link bandwidth` along
/// the path (plus the fixed per-message overhead).
fn faulted_route_delay(
    faulted: &FaultedGraph,
    config: AnalyticalConfig,
    src: NpuId,
    dst: NpuId,
    size: DataSize,
) -> Time {
    let route = faulted
        .route(src, dst)
        // astra-lint: allow(panic, callers reject disconnected fault schedules before building backends)
        .expect("fault-aware route exists");
    let mut t = config.per_message_overhead;
    let mut bottleneck = None;
    for &link in &route {
        let props = faulted.graph().link(link);
        t += props.latency;
        bottleneck = Some(match bottleneck {
            None => props.bandwidth,
            Some(bw) => props.bandwidth.min(bw),
        });
    }
    if let Some(bw) = bottleneck {
        t += bw.transfer_time(size);
    }
    t
}

impl NetworkBackend for AnalyticalNetwork {
    /// Closed-form backend: the completion is known at send time (the
    /// equation is congestion-free, so later traffic cannot change it) and
    /// becomes drainable immediately.
    fn send_async(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize) {
        self.messages += 1;
        let finish = at + self.cached_delay(src, dst, size);
        self.ready.push(Completion { token, finish });
    }

    fn next_event_time(&self) -> Option<Time> {
        None
    }

    fn advance_until(&mut self, _limit: Time) {}

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.ready);
    }

    fn stats(&self) -> NetworkStats {
        NetworkStats {
            messages: self.messages,
            cache_hits: self.hits,
            backend_setups: 1,
            ..NetworkStats::default()
        }
    }

    fn delay_memo_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_des::Bandwidth;

    fn net(notation: &str) -> AnalyticalNetwork {
        AnalyticalNetwork::new(Topology::parse(notation).unwrap())
    }

    #[test]
    fn self_send_is_free() {
        let mut n = net("R(4)@100");
        assert_eq!(n.p2p_delay(2, 2, DataSize::from_mib(10)), Time::ZERO);
    }

    #[test]
    fn delay_matches_equation_single_dim() {
        let mut n = net("R(8)@100");
        // 3 hops x 500ns default latency + 100MB / 100GB/s.
        let size = DataSize::from_bytes(100_000_000);
        let expected = Time::from_ns(1500) + Time::from_ms(1);
        assert_eq!(n.p2p_delay(0, 3, size), expected);
    }

    #[test]
    fn multi_dim_uses_bottleneck_bandwidth() {
        let mut n = net("R(4)@100_SW(2)@25");
        // src 0 -> dst 5: ring hop 1 + switch hops 2 = 3 hops; the
        // bottleneck is the 25 GB/s switch dimension (1 ms for 25 MB).
        let size = DataSize::from_bytes(25_000_000);
        let expected = Time::from_ns(3 * 500) + Time::from_ms(1);
        assert_eq!(n.p2p_delay(0, 5, size), expected);
    }

    #[test]
    fn same_plane_transfer_ignores_other_dims() {
        let mut n = net("R(4)@100_SW(2)@25");
        // 0 -> 1 stays in the fast dimension.
        let size = DataSize::from_bytes(100_000_000);
        assert_eq!(
            n.p2p_delay(0, 1, size),
            Time::from_ns(500) + Time::from_ms(1)
        );
    }

    #[test]
    fn per_message_overhead_applied() {
        let topo = Topology::parse("R(4)@100").unwrap();
        let mut n = AnalyticalNetwork::with_config(
            topo,
            AnalyticalConfig {
                per_message_overhead: Time::from_us(5),
            },
        );
        let base = n.p2p_delay(0, 1, DataSize::from_bytes(1));
        assert!(base >= Time::from_us(5));
    }

    #[test]
    fn latency_and_serialization_decompose() {
        let mut n = net("R(8)@200_SW(4)@50");
        let size = DataSize::from_mib(64);
        for (a, b) in [(0usize, 1usize), (0, 20), (3, 27)] {
            assert_eq!(
                n.p2p_delay(a, b, size),
                n.latency_term(a, b) + n.serialization_term(a, b, size)
            );
        }
    }

    #[test]
    fn repeat_queries_hit_the_delay_memo() {
        let mut n = net("R(8)@100_SW(4)@50");
        let size = DataSize::from_mib(4);
        let first = n.p2p_delay(0, 9, size);
        assert_eq!(n.stats().cache_hits, 0);
        // Same triple: memo hit, identical answer.
        assert_eq!(n.p2p_delay(0, 9, size), first);
        assert_eq!(n.stats().cache_hits, 1);
        // Different size or pair: fresh entries.
        let _ = n.p2p_delay(0, 9, DataSize::from_mib(8));
        let _ = n.p2p_delay(9, 0, size);
        assert_eq!(n.stats().cache_hits, 1);
        for _ in 0..10 {
            assert_eq!(n.p2p_delay(0, 9, size), first);
        }
        assert_eq!(n.stats().cache_hits, 11);
        assert_eq!(n.delay_memo_stats(), (11, 3));
        assert_eq!(n.stats().messages, 14);
    }

    #[test]
    fn async_sends_complete_immediately_with_closed_form_delay() {
        let mut n = net("R(8)@100");
        let size = DataSize::from_mib(1);
        let at = Time::from_us(7);
        let delay = n.p2p_delay(0, 3, size);
        n.send_async(7, at, 0, 3, size);
        // The closed form is congestion-free: the completion is known at
        // send time and drainable without advancing anything.
        assert_eq!(n.next_event_time(), None);
        let mut out = Vec::new();
        n.drain_completions(&mut out);
        assert_eq!(
            out,
            vec![Completion {
                token: 7,
                finish: at + delay
            }]
        );
        out.clear();
        n.drain_completions(&mut out);
        assert!(out.is_empty(), "completions are drained once");
        // The async path shares the memo with blocking queries.
        assert!(n.stats().cache_hits > 0);
    }

    #[test]
    fn network_stats_merge_adds_counters() {
        let mut a = NetworkStats {
            messages: 1,
            cache_hits: 2,
            events: 3,
            train_splits: 5,
            backend_setups: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.events, 6);
        assert_eq!(a.train_splits, 10);
        assert_eq!(a.backend_setups, 12);
    }

    #[test]
    fn bandwidth_scaling_halves_serialization() {
        let slow = net("R(4)@100").serialization_term(0, 1, DataSize::from_gib(1));
        let fast = net("R(4)@200").serialization_term(0, 1, DataSize::from_gib(1));
        assert_eq!(slow.as_ps(), fast.as_ps() * 2);
        let _ = Bandwidth::from_gbps(1); // keep import used
    }
}
