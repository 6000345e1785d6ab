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
//! `NetworkAPI` (`sim_send`/`sim_recv`, Snippet 2): the system layer asks
//! the backend for a completion delay and schedules the callback itself.
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
mod warm;

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use astra_des::{DataSize, Time};
use astra_topology::{FaultError, FaultSchedule, FaultedGraph, NpuId, Topology};
use serde::{Deserialize, Serialize};

/// Re-exported so backend implementors and consumers share one type.
pub use astra_telemetry::LinkTrace;
pub use flow::{FlowId, FlowNetwork};
pub use warm::{SharedDelayMemo, SharedRouteTable};

/// Identifier of a message in flight on the async NetworkAPI
/// ([`NetworkBackend::send_async`]). Ids are backend-scoped and stable for
/// the lifetime of the backend instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsyncMessageId(pub u64);

/// A finished async message, reported through
/// [`NetworkBackend::drain_completions`] — the `callback(finish)` half of
/// the paper's `sim_send(msg_size, dest, callback)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The message that finished.
    pub id: AsyncMessageId,
    /// Absolute time at which the message fully arrived.
    pub finish: Time,
}

/// Work counters a backend accumulates while serving traffic. The system
/// layer surfaces them in `SimReport` and the benches use them to compare
/// the async and blocking engine paths.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages injected (blocking probes plus async sends).
    pub messages: u64,
    /// Closed-form delay queries answered from the per-`(src, dst, size)`
    /// memo (the analytical backend; zero elsewhere).
    pub cache_hits: u64,
    /// Internal events processed: packet/train-hop pops for the packet
    /// simulator, rate re-shares for the fluid backend, zero for the
    /// closed form.
    pub events: u64,
    /// Batched-transport train serializations on links where per-packet
    /// transport would have interleaved two trains packet-by-packet and
    /// the resident train could no longer be rewound (an approximation the
    /// counter makes visible; see `astra_garnet::TransportMode`).
    pub train_serializations: u64,
    /// Batched-transport train splits: overlapping trains rewound and
    /// replayed as a merged per-packet sequence, keeping the result
    /// bit-identical to per-packet transport (the fixed fast path; see
    /// `astra_garnet::TransportMode`).
    pub train_splits: u64,
    /// Backend instances constructed to serve the traffic. The async
    /// engine path builds one; the blocking reference path rebuilds a
    /// fresh sub-simulation per message. Filled in by the engine, not by
    /// [`NetworkBackend::stats`].
    pub backend_setups: u64,
}

impl NetworkStats {
    /// Adds `other`'s counters into `self` (used by the engine to fold
    /// per-probe backend stats into the run total).
    pub fn merge(&mut self, other: &NetworkStats) {
        self.messages += other.messages;
        self.cache_hits += other.cache_hits;
        self.events += other.events;
        self.train_serializations += other.train_serializations;
        self.train_splits += other.train_splits;
        self.backend_setups += other.backend_setups;
    }
}

/// The network-layer abstraction consumed by the system layer — the Rust
/// analogue of ASTRA-sim's `NetworkAPI` (paper Snippet 2).
///
/// Two calling conventions share the trait:
///
/// * **Async** (the engine's path): [`NetworkBackend::send_async`]
///   schedules a message at an absolute time and returns immediately; the
///   caller interleaves [`NetworkBackend::advance_until`] with its own
///   event loop (one shared clock) and collects finish callbacks via
///   [`NetworkBackend::drain_completions`]. Engine-time-concurrent
///   messages are co-resident inside the backend, so cross-message
///   contention is modeled.
/// * **Blocking** (the frozen test reference): [`NetworkBackend::p2p_delay`]
///   measures one message to completion on the backend's own clock.
///
/// Async callers must uphold one invariant: `send_async` times and
/// `advance_until` limits never move backwards (the engine's event loop
/// guarantees this by always draining backend events up to its next own
/// event before popping it).
///
/// The trait takes `&mut self` because stateful backends (the packet-level
/// simulator) advance internal queues while estimating.
pub trait NetworkBackend {
    /// End-to-end delay for one `size`-byte message from `src` to `dst`.
    ///
    /// Returns [`Time::ZERO`] when `src == dst`.
    fn p2p_delay(&mut self, src: NpuId, dst: NpuId, size: DataSize) -> Time;

    /// Human-readable backend name (for reports and experiment tables).
    fn name(&self) -> &'static str;

    /// Schedules a `size`-byte message from `src` to `dst` entering the
    /// network at absolute time `at`, without advancing the simulation.
    /// The completion surfaces later through
    /// [`NetworkBackend::drain_completions`] (immediately for closed-form
    /// backends and for self/empty messages).
    fn send_async(&mut self, at: Time, src: NpuId, dst: NpuId, size: DataSize) -> AsyncMessageId;

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

    /// Moves all completions discovered since the last call into `out`.
    fn drain_completions(&mut self, out: &mut Vec<Completion>);

    /// Work counters accumulated so far (see [`NetworkStats`];
    /// `backend_setups` is always zero here — the engine fills it in).
    fn stats(&self) -> NetworkStats;

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
/// * `Packet` — per-packet store-and-forward simulation
///   (`astra_garnet::PacketNetwork`).
/// * `Batched` — the same packet simulator with train-batched transport
///   (`O(hops)` events per message, bit-identical on contiguous trains).
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
    /// Per-packet store-and-forward DES.
    Packet,
    /// Packet DES with train-batched transport.
    Batched,
    /// Max-min fluid flow model.
    Flow,
}

impl NetworkBackendKind {
    /// All four kinds, for tests and sweeps.
    pub const ALL: [NetworkBackendKind; 4] = [
        NetworkBackendKind::Analytical,
        NetworkBackendKind::Packet,
        NetworkBackendKind::Batched,
        NetworkBackendKind::Flow,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkBackendKind::Analytical => "analytical",
            NetworkBackendKind::Packet => "packet",
            NetworkBackendKind::Batched => "batched",
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

    /// Accepts `analytical`, `packet`, `batched`, and `flow`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytical" => Ok(NetworkBackendKind::Analytical),
            "packet" => Ok(NetworkBackendKind::Packet),
            "batched" => Ok(NetworkBackendKind::Batched),
            "flow" => Ok(NetworkBackendKind::Flow),
            other => Err(format!(
                "unknown network backend `{other}` (expected `analytical`, \
                 `packet`, `batched`, or `flow`)"
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
/// [`AnalyticalNetwork::cache_hits`] counts the savings.
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

    /// Creates a backend with a fault schedule applied. With fabric faults
    /// present, delays are computed from fault-aware routes over the
    /// degraded link graph (dead links avoided, degraded bandwidth and
    /// latency honored) instead of the pristine per-dimension closed form;
    /// an empty (or fabric-free) schedule leaves the backend bit-identical
    /// to [`AnalyticalNetwork::new`].
    ///
    /// The caller must have verified the live fabric is still connected
    /// (see `FaultedGraph::unreachable_pair`); querying a disconnected
    /// pair panics.
    ///
    /// # Errors
    ///
    /// Returns the schedule's first [`FaultError`] if it does not fit the
    /// topology.
    pub fn with_faults(topo: Topology, schedule: &FaultSchedule) -> Result<Self, FaultError> {
        let faulted = if schedule.has_fabric_faults() {
            Some(FaultedGraph::new(&topo, schedule)?)
        } else {
            schedule.validate(&topo)?;
            None
        };
        let mut net = Self::new(topo);
        net.faulted = faulted;
        Ok(net)
    }

    /// Delay queries answered from the `(src, dst, size)` memo so far.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Delay queries that missed the local memo (computed fresh or
    /// answered from the shared memo).
    pub fn cache_misses(&self) -> u64 {
        self.misses
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
    fn p2p_delay(&mut self, src: NpuId, dst: NpuId, size: DataSize) -> Time {
        self.messages += 1;
        self.cached_delay(src, dst, size)
    }

    fn name(&self) -> &'static str {
        "analytical"
    }

    /// Closed-form backend: the completion is known at send time (the
    /// equation is congestion-free, so later traffic cannot change it) and
    /// becomes drainable immediately.
    fn send_async(&mut self, at: Time, src: NpuId, dst: NpuId, size: DataSize) -> AsyncMessageId {
        let id = AsyncMessageId(self.messages);
        self.messages += 1;
        let finish = at + self.cached_delay(src, dst, size);
        self.ready.push(Completion { id, finish });
        id
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
    fn backend_reports_name() {
        let n = net("R(2)@1");
        assert_eq!(n.name(), "analytical");
    }

    #[test]
    fn repeat_queries_hit_the_delay_memo() {
        let mut n = net("R(8)@100_SW(4)@50");
        let size = DataSize::from_mib(4);
        let first = n.p2p_delay(0, 9, size);
        assert_eq!(n.cache_hits(), 0);
        // Same triple: memo hit, identical answer.
        assert_eq!(n.p2p_delay(0, 9, size), first);
        assert_eq!(n.cache_hits(), 1);
        // Different size or pair: fresh entries.
        let _ = n.p2p_delay(0, 9, DataSize::from_mib(8));
        let _ = n.p2p_delay(9, 0, size);
        assert_eq!(n.cache_hits(), 1);
        for _ in 0..10 {
            assert_eq!(n.p2p_delay(0, 9, size), first);
        }
        assert_eq!(n.cache_hits(), 11);
        assert_eq!(n.stats().cache_hits, 11);
        assert_eq!(n.stats().messages, 14);
    }

    #[test]
    fn async_sends_complete_immediately_with_closed_form_delay() {
        let mut n = net("R(8)@100");
        let size = DataSize::from_mib(1);
        let at = Time::from_us(7);
        let delay = n.p2p_delay(0, 3, size);
        let id = n.send_async(at, 0, 3, size);
        // The closed form is congestion-free: the completion is known at
        // send time and drainable without advancing anything.
        assert_eq!(n.next_event_time(), None);
        let mut out = Vec::new();
        n.drain_completions(&mut out);
        assert_eq!(
            out,
            vec![Completion {
                id,
                finish: at + delay
            }]
        );
        out.clear();
        n.drain_completions(&mut out);
        assert!(out.is_empty(), "completions are drained once");
        // The async path shares the memo with blocking queries.
        assert!(n.cache_hits() > 0);
    }

    #[test]
    fn network_stats_merge_adds_counters() {
        let mut a = NetworkStats {
            messages: 1,
            cache_hits: 2,
            events: 3,
            train_serializations: 4,
            train_splits: 5,
            backend_setups: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.messages, 2);
        assert_eq!(a.cache_hits, 4);
        assert_eq!(a.events, 6);
        assert_eq!(a.train_serializations, 8);
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
