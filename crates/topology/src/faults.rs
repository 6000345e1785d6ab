//! Deterministic fault injection: timed, seed-free fabric and NPU faults.
//!
//! A [`FaultSchedule`] is an explicit list of [`FaultEvent`]s — there is no
//! randomness anywhere, so a faulted simulation is exactly as reproducible
//! as a pristine one. Faults come in two families:
//!
//! * **Fabric faults** ([`FaultKind::LinkDown`], [`FaultKind::LinkDegrade`],
//!   [`FaultKind::SwitchDown`]) degrade the link graph. They are applied
//!   conservatively for the *whole run* (the `at` timestamp records the
//!   onset for reporting); every network backend reads link properties from
//!   the same degraded [`LinkGraph`], so the packet, flow, and
//!   analytical models all see an identical fabric.
//! * **NPU faults** ([`FaultKind::NpuSlowdown`]) stretch the compute time
//!   of operations issued at or after `at` on one straggler NPU.
//!
//! Schedules are validated against a concrete [`Topology`]:
//! [`FaultedGraph::new`] expands the topology once, validates a schedule
//! against that graph and applies it, and [`FaultSchedule::validate`]
//! expands it only for a schedule with fabric faults. Dead links feed a
//! deterministic rerouting fallback ([`FaultedGraph::route`]): the
//! canonical dimension-ordered route is kept whenever it survives, and a
//! breadth-first search over live links (expanded in ascending node order)
//! takes over otherwise.

use astra_des::{Bandwidth, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::{LinkGraph, LinkId, NodeId, NodeKind, NpuId, Topology};

/// One kind of injected fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Both directions of the direct NPU↔NPU link between `src` and `dst`
    /// fail; traffic reroutes around them (or the run reports
    /// `Unreachable`).
    LinkDown {
        /// One endpoint NPU of the failed link.
        src: NpuId,
        /// The other endpoint NPU of the failed link.
        dst: NpuId,
    },
    /// Both directions of the direct NPU↔NPU link between `src` and `dst`
    /// degrade: bandwidth scales to `bandwidth_pct`% of nominal and
    /// latency multiplies by `latency_x`.
    LinkDegrade {
        /// One endpoint NPU of the degraded link.
        src: NpuId,
        /// The other endpoint NPU of the degraded link.
        dst: NpuId,
        /// Remaining bandwidth as a percentage of nominal (1..=100).
        bandwidth_pct: u32,
        /// Latency multiplier (>= 1).
        latency_x: u32,
    },
    /// One NPU computes slower: compute operations issued at or after the
    /// event time take `slowdown_pct`% of their nominal service time
    /// (>= 100).
    NpuSlowdown {
        /// The straggler NPU.
        npu: NpuId,
        /// Stretched service time as a percentage of nominal (>= 100).
        slowdown_pct: u32,
    },
    /// The switch fabric of one `Switch(k)` group fails: every up/down
    /// link of that switch node dies.
    SwitchDown {
        /// Topology dimension of the switch.
        dim: usize,
        /// Group index within that dimension.
        group: usize,
    },
}

impl FaultKind {
    /// Whether this fault degrades the network fabric (as opposed to a
    /// single NPU's compute).
    pub fn is_fabric(&self) -> bool {
        !matches!(self, FaultKind::NpuSlowdown { .. })
    }

    /// Short machine-readable label, also used in report rows.
    pub fn label(&self) -> String {
        match self {
            FaultKind::LinkDown { src, dst } => format!("link_down {src}->{dst}"),
            FaultKind::LinkDegrade {
                src,
                dst,
                bandwidth_pct,
                latency_x,
            } => format!("link_degrade {src}->{dst} bw{bandwidth_pct}% lat{latency_x}x"),
            FaultKind::NpuSlowdown { npu, slowdown_pct } => {
                format!("npu_slowdown {npu} {slowdown_pct}%")
            }
            FaultKind::SwitchDown { dim, group } => format!("switch_down d{dim}g{group}"),
        }
    }
}

/// One timed fault event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Onset time. Fabric faults are applied for the whole run (the time
    /// is recorded for reporting); NPU slowdowns take effect for compute
    /// issued at or after this instant.
    pub at: Time,
    /// What fails.
    pub kind: FaultKind,
}

/// A validated-on-use, ordered list of fault events.
///
/// The empty schedule is the default and is guaranteed to leave every
/// simulation bit-identical to an engine without fault support.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Why a fault schedule does not fit a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// An event names an NPU outside the topology.
    UnknownNpu {
        /// The out-of-range NPU id.
        npu: NpuId,
        /// Number of NPUs in the topology.
        npus: usize,
    },
    /// A link fault names two NPUs with no direct link between them.
    NoDirectLink {
        /// Requested source NPU.
        src: NpuId,
        /// Requested destination NPU.
        dst: NpuId,
    },
    /// A switch fault names a dimension/group with no switch node.
    NoSuchSwitch {
        /// Requested dimension.
        dim: usize,
        /// Requested group.
        group: usize,
    },
    /// A percentage or multiplier is outside its valid range.
    BadFactor {
        /// Which field is invalid.
        field: &'static str,
        /// The rejected value.
        value: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnknownNpu { npu, npus } => {
                write!(f, "fault names NPU {npu} but the topology has {npus} NPUs")
            }
            FaultError::NoDirectLink { src, dst } => {
                write!(f, "no direct link between NPU {src} and NPU {dst}")
            }
            FaultError::NoSuchSwitch { dim, group } => {
                write!(f, "no switch at dimension {dim}, group {group}")
            }
            FaultError::BadFactor { field, value } => {
                write!(f, "invalid fault factor {field}={value}")
            }
        }
    }
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from explicit events, keeping their order (report
    /// rows refer to events by index).
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultSchedule { events }
    }

    /// Appends one event.
    pub fn push(&mut self, at: Time, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Whether the schedule has no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether any event degrades the fabric (link/switch faults).
    pub fn has_fabric_faults(&self) -> bool {
        self.events.iter().any(|e| e.kind.is_fabric())
    }

    /// Whether any event slows an NPU down.
    pub fn has_stragglers(&self) -> bool {
        self.events.iter().any(|e| !e.kind.is_fabric())
    }

    /// Compact canonical signature, used to key caches so fault-laden
    /// entries never alias fault-free ones. Empty schedules yield `""`.
    pub fn signature(&self) -> String {
        if self.events.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .events
            .iter()
            .map(|e| format!("{}@{}", e.kind.label(), e.at.as_ps()))
            .collect();
        parts.join(";")
    }

    /// Validates every event against a concrete topology: NPU ids in
    /// range, link endpoints directly connected, switch groups existing,
    /// factors in range. Only a schedule with fabric faults expands the
    /// topology into its link graph; NPU ids and factors need none.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] in schedule order.
    pub fn validate(&self, topo: &Topology) -> Result<(), FaultError> {
        let graph = self.has_fabric_faults().then(|| LinkGraph::new(topo));
        self.check(topo.npus(), graph.as_ref())
    }

    /// [`FaultSchedule::validate`] against `graph`, which must be present
    /// when the schedule has fabric faults.
    fn check(&self, npus: usize, graph: Option<&LinkGraph>) -> Result<(), FaultError> {
        let check_npu = |npu: NpuId| {
            if npu >= npus {
                Err(FaultError::UnknownNpu { npu, npus })
            } else {
                Ok(())
            }
        };
        let check_link = |src: NpuId, dst: NpuId| {
            check_npu(src)?;
            check_npu(dst)?;
            match graph.and_then(|g| g.link_between(NodeId(src), NodeId(dst))) {
                Some(_) => Ok(()),
                None => Err(FaultError::NoDirectLink { src, dst }),
            }
        };
        for event in &self.events {
            match event.kind {
                FaultKind::LinkDown { src, dst } => check_link(src, dst)?,
                FaultKind::LinkDegrade {
                    src,
                    dst,
                    bandwidth_pct,
                    latency_x,
                } => {
                    check_link(src, dst)?;
                    if bandwidth_pct == 0 || bandwidth_pct > 100 {
                        return Err(FaultError::BadFactor {
                            field: "bandwidth_pct",
                            value: bandwidth_pct,
                        });
                    }
                    if latency_x == 0 {
                        return Err(FaultError::BadFactor {
                            field: "latency_x",
                            value: latency_x,
                        });
                    }
                }
                FaultKind::NpuSlowdown { npu, slowdown_pct } => {
                    check_npu(npu)?;
                    if slowdown_pct < 100 {
                        return Err(FaultError::BadFactor {
                            field: "slowdown_pct",
                            value: slowdown_pct,
                        });
                    }
                }
                FaultKind::SwitchDown { dim, group } => {
                    if graph.and_then(|g| switch_node(g, dim, group)).is_none() {
                        return Err(FaultError::NoSuchSwitch { dim, group });
                    }
                }
            }
        }
        Ok(())
    }
}

/// The node of the switch at `dim`, `group`, if the graph has one.
fn switch_node(graph: &LinkGraph, dim: usize, group: usize) -> Option<NodeId> {
    (0..graph.num_nodes()).map(NodeId).find(|&n| {
        matches!(
            graph.node_kind(n),
            NodeKind::Switch { dim: d, group: g } if d == dim && g == group
        )
    })
}

/// Aggregate degradation of one topology dimension, derived from the
/// fabric faults touching its links. Used by the collective engine: a
/// collective spanning a degraded dimension is lowered against the
/// dimension's *effective* bandwidth and latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DimDegrade {
    /// Directed links of this dimension still alive.
    pub live_links: u64,
    /// Total directed links of this dimension.
    pub total_links: u64,
    /// Worst remaining bandwidth percentage among degraded links (100 when
    /// none are degraded).
    pub min_bandwidth_pct: u32,
    /// Worst latency multiplier among degraded links (1 when none).
    pub max_latency_x: u32,
    /// Index (in schedule order) of the first event touching this
    /// dimension — report rows attribute the dimension's slowdown here.
    pub first_event: usize,
}

impl DimDegrade {
    /// Effective bandwidth after degradation: nominal, scaled by the live
    /// link fraction and the worst per-link degradation, clamped to at
    /// least 1 B/s.
    pub fn scale_bandwidth(&self, base: Bandwidth) -> Bandwidth {
        let b = base.as_bytes_per_sec() as u128;
        let scaled = b * self.live_links as u128 * self.min_bandwidth_pct as u128
            / (self.total_links.max(1) as u128 * 100);
        Bandwidth::from_bytes_per_sec((scaled as u64).max(1))
    }

    /// Effective latency after degradation.
    pub fn scale_latency(&self, base: Time) -> Time {
        Time::from_ps(base.as_ps().saturating_mul(self.max_latency_x as u64))
    }
}

/// A link graph with a fault schedule applied: degraded per-link
/// properties plus a set of dead links excluded from routing.
#[derive(Clone, Debug)]
pub struct FaultedGraph {
    graph: LinkGraph,
    dead: BTreeSet<LinkId>,
    dim_degrade: BTreeMap<usize, DimDegrade>,
    /// Per schedule event: the directed links it killed or degraded.
    touched: Vec<u64>,
}

impl FaultedGraph {
    /// Expands `topo` into its link graph once, validates `schedule`
    /// against it and applies it.
    ///
    /// # Errors
    ///
    /// Returns the schedule's first [`FaultError`] if it does not fit the
    /// topology.
    pub fn new(topo: &Topology, schedule: &FaultSchedule) -> Result<Self, FaultError> {
        let mut graph = LinkGraph::new(topo);
        schedule.check(topo.npus(), Some(&graph))?;
        let mut dead: BTreeSet<LinkId> = BTreeSet::new();
        // Per-link worst degradation factors, keyed by link id.
        let mut degraded: BTreeMap<LinkId, (u32, u32)> = BTreeMap::new();
        // Per-dimension first touching event, for attribution.
        let mut first_event: BTreeMap<usize, usize> = BTreeMap::new();
        let mut touched = Vec::with_capacity(schedule.len());
        for (idx, event) in schedule.events().iter().enumerate() {
            let links: Vec<LinkId> = match event.kind {
                FaultKind::LinkDown { src, dst } | FaultKind::LinkDegrade { src, dst, .. } => {
                    [(src, dst), (dst, src)]
                        .iter()
                        .filter_map(|&(a, b)| graph.link_between(NodeId(a), NodeId(b)))
                        .collect()
                }
                FaultKind::NpuSlowdown { .. } => Vec::new(),
                FaultKind::SwitchDown { dim, group } => match switch_node(&graph, dim, group) {
                    Some(sw) => graph
                        .links()
                        .filter(|(_, p)| p.src == sw || p.dst == sw)
                        .map(|(l, _)| l)
                        .collect(),
                    None => Vec::new(),
                },
            };
            touched.push(links.len() as u64);
            for l in links {
                first_event.entry(graph.link(l).dim).or_insert(idx);
                if let FaultKind::LinkDegrade {
                    bandwidth_pct,
                    latency_x,
                    ..
                } = event.kind
                {
                    let entry = degraded.entry(l).or_insert((100, 1));
                    entry.0 = entry.0.min(bandwidth_pct);
                    entry.1 = entry.1.max(latency_x);
                } else {
                    dead.insert(l);
                }
            }
        }
        // Apply per-link degradations to the graph properties. Dead links
        // keep their nominal properties but are excluded from routing.
        for (&l, &(bw_pct, lat_x)) in &degraded {
            if dead.contains(&l) {
                continue;
            }
            let props = graph.link(l);
            let bw = props.bandwidth.as_bytes_per_sec() as u128 * bw_pct as u128 / 100;
            let bandwidth = Bandwidth::from_bytes_per_sec((bw as u64).max(1));
            let latency = Time::from_ps(props.latency.as_ps().saturating_mul(lat_x as u64));
            graph.degrade_link(l, bandwidth, latency);
        }
        // Summarize per-dimension degradation for collective lowering.
        let mut dim_degrade = BTreeMap::new();
        for (&dim, &first) in &first_event {
            let mut total = 0u64;
            let mut live = 0u64;
            let mut min_pct = 100u32;
            let mut max_lat = 1u32;
            for (l, props) in graph.links() {
                if props.dim != dim {
                    continue;
                }
                total += 1;
                if dead.contains(&l) {
                    continue;
                }
                live += 1;
                if let Some(&(pct, lat_x)) = degraded.get(&l) {
                    min_pct = min_pct.min(pct);
                    max_lat = max_lat.max(lat_x);
                }
            }
            dim_degrade.insert(
                dim,
                DimDegrade {
                    live_links: live,
                    total_links: total,
                    min_bandwidth_pct: min_pct,
                    max_latency_x: max_lat,
                    first_event: first,
                },
            );
        }
        Ok(FaultedGraph {
            graph,
            dead,
            dim_degrade,
            touched,
        })
    }

    /// The degraded link graph (nominal structure, degraded properties).
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// Consumes the view, returning its parts: the degraded graph and the
    /// set of dead links.
    pub fn into_parts(self) -> (LinkGraph, BTreeSet<LinkId>) {
        (self.graph, self.dead)
    }

    /// How many directed links schedule event `event` killed or
    /// degraded: both directions of a link fault, every port of a downed
    /// switch, none for an NPU slowdown.
    pub fn touched(&self, event: usize) -> u64 {
        self.touched.get(event).copied().unwrap_or(0)
    }

    /// The dead (failed) links.
    pub fn dead(&self) -> &BTreeSet<LinkId> {
        &self.dead
    }

    /// Whether a link is dead.
    pub fn is_dead(&self, link: LinkId) -> bool {
        self.dead.contains(&link)
    }

    /// Per-dimension degradation summaries (only dimensions touched by a
    /// fabric fault appear).
    pub fn dim_degrade(&self, dim: usize) -> Option<DimDegrade> {
        self.dim_degrade.get(&dim).copied()
    }

    /// Routes between two NPUs around dead links: the canonical
    /// dimension-ordered route when it survives, otherwise a deterministic
    /// breadth-first search over live links. `None` when no live path
    /// exists.
    pub fn route(&self, src: NpuId, dst: NpuId) -> Option<Vec<LinkId>> {
        route_avoiding(&self.graph, src, dst, &self.dead)
    }

    /// Checks that every NPU can still reach every other over live links.
    /// Returns the first unreachable `(src, dst)` witness pair, or `None`
    /// when the live fabric is fully connected.
    ///
    /// Links always come in direction pairs and faults kill both
    /// directions, so live reachability is symmetric: a single traversal
    /// from NPU 0 suffices.
    pub fn unreachable_pair(&self) -> Option<(NpuId, NpuId)> {
        let npus = self.graph.topology().npus();
        if npus == 0 {
            return None;
        }
        let mut seen = vec![false; self.graph.num_nodes()];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(NodeId(0));
        while let Some(node) = queue.pop_front() {
            for (next, link) in self.graph.neighbors(node) {
                if self.dead.contains(&link) || seen[next.0] {
                    continue;
                }
                seen[next.0] = true;
                queue.push_back(next);
            }
        }
        (1..npus).find(|&npu| !seen[npu]).map(|npu| (0, npu))
    }
}

/// Routes `src -> dst` avoiding `dead` links: the canonical
/// dimension-ordered route when every hop is live, otherwise a
/// deterministic BFS over live links (neighbors expanded in ascending node
/// order). `None` when the endpoints are disconnected.
pub fn route_avoiding(
    graph: &LinkGraph,
    src: NpuId,
    dst: NpuId,
    dead: &BTreeSet<LinkId>,
) -> Option<Vec<LinkId>> {
    let canonical = graph.route(src, dst);
    if dead.is_empty() || canonical.iter().all(|l| !dead.contains(l)) {
        return Some(canonical);
    }
    let (from, to) = (graph.npu_node(src), graph.npu_node(dst));
    let mut pred: Vec<Option<LinkId>> = vec![None; graph.num_nodes()];
    let mut seen = vec![false; graph.num_nodes()];
    let mut queue = VecDeque::new();
    seen[from.0] = true;
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        if node == to {
            break;
        }
        for (next, link) in graph.neighbors(node) {
            if dead.contains(&link) || seen[next.0] {
                continue;
            }
            seen[next.0] = true;
            pred[next.0] = Some(link);
            queue.push_back(next);
        }
    }
    if !seen[to.0] {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = to;
    while cur != from {
        let link = pred[cur.0]?;
        path.push(link);
        cur = graph.link(link).src;
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(src: NpuId, dst: NpuId) -> FaultEvent {
        FaultEvent {
            at: Time::ZERO,
            kind: FaultKind::LinkDown { src, dst },
        }
    }

    #[test]
    fn empty_schedule_is_default_and_fabric_free() {
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        assert!(!s.has_fabric_faults());
        assert!(!s.has_stragglers());
        assert_eq!(s.signature(), "");
        assert!(s.validate(&Topology::parse("R(4)").unwrap()).is_ok());
    }

    #[test]
    fn validates_npu_range_and_direct_links() {
        let topo = Topology::parse("R(4)").unwrap();
        let s = FaultSchedule::from_events(vec![down(0, 9)]);
        assert_eq!(
            s.validate(&topo),
            Err(FaultError::UnknownNpu { npu: 9, npus: 4 })
        );
        // 0 and 2 are not ring neighbors.
        let s = FaultSchedule::from_events(vec![down(0, 2)]);
        assert_eq!(
            s.validate(&topo),
            Err(FaultError::NoDirectLink { src: 0, dst: 2 })
        );
    }

    #[test]
    fn validates_factors() {
        let topo = Topology::parse("R(4)").unwrap();
        let mut s = FaultSchedule::new();
        s.push(
            Time::ZERO,
            FaultKind::NpuSlowdown {
                npu: 1,
                slowdown_pct: 50,
            },
        );
        assert_eq!(
            s.validate(&topo),
            Err(FaultError::BadFactor {
                field: "slowdown_pct",
                value: 50
            })
        );
        let mut s = FaultSchedule::new();
        s.push(
            Time::ZERO,
            FaultKind::LinkDegrade {
                src: 0,
                dst: 1,
                bandwidth_pct: 0,
                latency_x: 1,
            },
        );
        assert!(matches!(
            s.validate(&topo),
            Err(FaultError::BadFactor {
                field: "bandwidth_pct",
                ..
            })
        ));
    }

    #[test]
    fn validates_switch_groups() {
        let topo = Topology::parse("SW(4)").unwrap();
        let mut s = FaultSchedule::new();
        s.push(Time::ZERO, FaultKind::SwitchDown { dim: 0, group: 0 });
        assert!(s.validate(&topo).is_ok());
        let mut s = FaultSchedule::new();
        s.push(Time::ZERO, FaultKind::SwitchDown { dim: 0, group: 3 });
        assert_eq!(
            s.validate(&topo),
            Err(FaultError::NoSuchSwitch { dim: 0, group: 3 })
        );
    }

    #[test]
    fn link_down_reroutes_the_other_way_around_the_ring() {
        let topo = Topology::parse("R(4)").unwrap();
        let s = FaultSchedule::from_events(vec![down(0, 1)]);
        let faulted = FaultedGraph::new(&topo, &s).unwrap();
        assert_eq!(faulted.dead().len(), 2);
        assert_eq!(faulted.touched(0), 2);
        assert!(faulted.unreachable_pair().is_none());
        // Canonical 0 -> 1 is one hop; the fallback goes the long way.
        let path = faulted.route(0, 1).unwrap();
        assert_eq!(path.len(), 3);
        let g = faulted.graph();
        assert_eq!(g.link(path[0]).src, NodeId(0));
        assert_eq!(g.link(*path.last().unwrap()).dst, NodeId(1));
        for w in path.windows(2) {
            assert_eq!(g.link(w[0]).dst, g.link(w[1]).src);
        }
        // Untouched pairs keep their canonical route.
        assert_eq!(faulted.route(1, 2).unwrap(), g.route(1, 2));
    }

    #[test]
    fn two_cuts_disconnect_the_ring() {
        let topo = Topology::parse("R(4)").unwrap();
        let s = FaultSchedule::from_events(vec![down(0, 1), down(2, 3)]);
        let faulted = FaultedGraph::new(&topo, &s).unwrap();
        assert_eq!(faulted.unreachable_pair(), Some((0, 1)));
        assert!(faulted.route(0, 1).is_none());
        assert!(faulted.route(0, 3).is_some());
    }

    #[test]
    fn degrade_scales_link_properties() {
        let topo = Topology::parse("R(4)@200").unwrap();
        let mut s = FaultSchedule::new();
        s.push(
            Time::ZERO,
            FaultKind::LinkDegrade {
                src: 0,
                dst: 1,
                bandwidth_pct: 50,
                latency_x: 3,
            },
        );
        let faulted = FaultedGraph::new(&topo, &s).unwrap();
        let pristine = LinkGraph::new(&topo);
        let l = pristine.link_between(NodeId(0), NodeId(1)).unwrap();
        let before = pristine.link(l);
        let after = faulted.graph().link(l);
        assert_eq!(
            after.bandwidth.as_bytes_per_sec(),
            before.bandwidth.as_bytes_per_sec() / 2
        );
        assert_eq!(after.latency.as_ps(), before.latency.as_ps() * 3);
        // The reverse direction degrades too.
        let r = pristine.link_between(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(
            faulted.graph().link(r).bandwidth.as_bytes_per_sec(),
            before.bandwidth.as_bytes_per_sec() / 2
        );
        let d = faulted.dim_degrade(0).unwrap();
        assert_eq!(d.min_bandwidth_pct, 50);
        assert_eq!(d.max_latency_x, 3);
        assert_eq!(d.live_links, d.total_links);
    }

    #[test]
    fn switch_down_kills_every_port() {
        let topo = Topology::parse("R(2)_SW(2)").unwrap();
        let mut s = FaultSchedule::new();
        s.push(Time::ZERO, FaultKind::SwitchDown { dim: 1, group: 0 });
        let faulted = FaultedGraph::new(&topo, &s).unwrap();
        // Group 0 of the switch dim connects NPUs 0 and 2; its 4 up/down
        // links die, but the ring dimension keeps everything reachable.
        assert_eq!(faulted.dead().len(), 4);
        assert_eq!(faulted.touched(0), 4);
        assert!(faulted.unreachable_pair().is_none());
        let d = faulted.dim_degrade(1).unwrap();
        assert_eq!(d.total_links, 8);
        assert_eq!(d.live_links, 4);
    }

    #[test]
    fn dim_degrade_scaling_clamps_to_one_byte_per_sec() {
        let d = DimDegrade {
            live_links: 0,
            total_links: 4,
            min_bandwidth_pct: 100,
            max_latency_x: 1,
            first_event: 0,
        };
        assert_eq!(
            d.scale_bandwidth(Bandwidth::from_gbps(100))
                .as_bytes_per_sec(),
            1
        );
    }

    #[test]
    fn signature_is_stable_and_distinct() {
        let a = FaultSchedule::from_events(vec![down(0, 1)]);
        let b = FaultSchedule::from_events(vec![down(1, 2)]);
        let a_again = FaultSchedule::from_events(vec![down(0, 1)]);
        assert_eq!(a.signature(), a_again.signature());
        assert_ne!(a.signature(), b.signature());
        assert!(a.signature().contains("link_down 0->1"));
    }
}
