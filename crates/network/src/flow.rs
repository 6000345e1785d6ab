//! Event-driven fluid-flow network backend.
//!
//! The third network backend (next to the analytical closed form and the
//! packet-level simulator): flows are fluid streams whose instantaneous
//! rates follow **max-min fair sharing** over the explicit link graph.
//! Every flow arrival and departure is an event that re-shares the link
//! bandwidth among the remaining flows — the standard scale escape hatch
//! for congested traffic, costing `O(re-shares)` instead of
//! `O(packets × hops)` events.
//!
//! Caveats (documented limits of the fluid model): per-hop serialization
//! and store-and-forward pipelining are not modeled (propagation latency
//! is paid once, at completion), there is no per-hop queueing, and rates
//! adjust instantaneously at every re-share. For uncongested traffic it
//! matches the analytical equation; under contention it captures link
//! sharing the analytical backend ignores.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use astra_des::{DataSize, RecordedReservation, Time};
use astra_topology::{route_avoiding, FaultedGraph, LinkGraph, LinkId, NpuId, Topology};

use std::sync::Arc;

use crate::congestion::max_min_rates;
use crate::{Completion, LinkTrace, NetworkBackend, NetworkStats, RouteTable, SharedRouteTable};

/// Relative capacity head-room a shared link must keep for an arrival or
/// departure to extend the memoized max-min allocation instead of
/// invalidating it. A link whose total allocated load stays strictly
/// below `capacity * (1 - SHARE_SLACK)` can never be selected as a
/// bottleneck by progressive filling (selection consumes the link's full
/// capacity), so the event provably leaves every other flow's rate
/// bit-identical — the margin only absorbs float summation error and tie
/// ambiguity, and every reused allocation is still debug-asserted against
/// the frozen [`max_min_rates`] reference.
const SHARE_SLACK: f64 = 1e-6;

/// Slot of an in-flight flow in [`FlowNetwork`]'s flow store.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct FlowId(usize);

#[derive(Clone, Debug)]
struct FlowState {
    /// Index into the memoized route table.
    route: usize,
    /// Bytes left to drain (fluid).
    remaining: f64,
    /// Total propagation latency of the route, paid once at completion.
    latency: Time,
    /// Injection instant (telemetry span start).
    start: Time,
    /// The caller's token, handed back in the flow's [`Completion`].
    token: u32,
}

/// A max-min fair fluid-flow network simulation.
///
/// Flows are sent at arbitrary times through
/// [`NetworkBackend::send_async`] under a caller's token; between
/// consecutive arrival/departure events every active flow drains at its
/// max-min fair rate (progressive filling, recomputed at each event).
/// [`crate::congestion::max_min_completion`] is this simulation
/// specialized to a batch of flows all starting at time zero.
///
/// Memory follows the flows in flight, not the flows ever sent: a flow is
/// forgotten once [`NetworkBackend::drain_completions`] hands out its
/// completion, and its slot goes to a later send.
///
/// # Example
///
/// ```
/// use astra_des::{DataSize, Time};
/// use astra_network::{FlowNetwork, NetworkBackend};
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("SW(4)@100").unwrap();
/// let mut net = FlowNetwork::new(&topo);
/// // Two incast flows share the destination down-link and finish together.
/// net.send_async(0, Time::ZERO, 0, 2, DataSize::from_mib(64));
/// net.send_async(1, Time::ZERO, 1, 2, DataSize::from_mib(64));
/// net.run_until_idle();
/// let mut done = Vec::new();
/// net.drain_completions(&mut done);
/// assert_eq!(done.len(), 2);
/// assert_eq!(done[0].finish, done[1].finish);
/// ```
#[derive(Debug)]
pub struct FlowNetwork {
    graph: LinkGraph,
    routes: RouteTable,
    /// Flow slots, indexed by [`FlowId`]; a slot is freed when its flow's
    /// completion is drained.
    flows: Vec<FlowState>,
    /// Slots of flows whose completions await draining, in completion
    /// order.
    done_slots: Vec<usize>,
    /// Slots of drained flows, reused by the next send.
    free_slots: Vec<usize>,
    /// Flows sent so far, reused slots included (`NetworkStats::messages`).
    flows_sent: u64,
    /// Slots of the flows in flight. Its order, like that of
    /// `link_members`, follows the sequence of arrivals and departures
    /// alone, never the slot numbers, so reusing slots cannot reorder a
    /// re-share.
    active: Vec<usize>,
    /// Flow index → its position in `active` (valid only while active).
    /// Lets the incremental rate computation translate the per-link
    /// member sets into positional rate slots without a scan.
    position: Vec<usize>,
    /// Per link: the active flows crossing it, maintained incrementally —
    /// a flow arrival/departure touches only its own route's links, so a
    /// re-share no longer rebuilds every route/membership from scratch
    /// (`O(active × route)` per event) but reads the memoized sets.
    link_members: Vec<Vec<usize>>,
    now_ps: f64,
    reshares: u64,
    completed: Vec<Completion>,
    /// Memoized [`FlowNetwork::next_departure`] projection (outer `None`
    /// = stale). The async engine polls the projection once per event-loop
    /// turn; rates only change on arrivals and re-share steps, so caching
    /// turns those polls from `O(active × links)` into `O(1)`.
    next_dep: Cell<Option<Option<Time>>>,
    /// Memoized positional max-min allocation, aligned to `active`
    /// (`rates[k]` belongs to `active[k]`); `None` = stale. An arrival or
    /// departure that touches only links private to the flow or shared
    /// links with strict capacity head-room ([`SHARE_SLACK`]) cannot
    /// change anyone else's rate, so those events adjust the allocation
    /// in place instead of discarding it and the next re-share skips
    /// progressive filling entirely (see [`FlowNetwork::refresh_rates`]).
    rates_cache: RefCell<Option<Vec<f64>>>,
    /// Re-share computations answered from the maintained allocation.
    reuses: Cell<u64>,
    /// Optional cross-run route table for the same topology, consulted
    /// only when a pair misses the local `routes` memo. Routing is
    /// deterministic, so a shared hit is bit-identical to recomputing.
    shared_routes: Option<Arc<SharedRouteTable>>,
    /// Failed links (fault injection): excluded from routing; empty for a
    /// pristine fabric. Capacity degradations live in `graph` itself.
    dead_links: BTreeSet<LinkId>,
    /// Telemetry switch: when set, completed flows record their
    /// `(start, finish, route)` span for [`NetworkBackend::link_traces`].
    telemetry: bool,
    /// Completed-flow spans, in completion order (telemetry only).
    flow_spans: Vec<(Time, Time, usize)>,
}

impl FlowNetwork {
    /// Builds the fluid simulator for `topo`.
    pub fn new(topo: &Topology) -> Self {
        Self::with_fabric(topo, None)
    }

    fn from_graph(graph: LinkGraph, dead_links: BTreeSet<LinkId>) -> Self {
        let num_links = graph.num_links();
        FlowNetwork {
            graph,
            routes: RouteTable::new(),
            flows: Vec::new(),
            done_slots: Vec::new(),
            free_slots: Vec::new(),
            flows_sent: 0,
            active: Vec::new(),
            position: Vec::new(),
            link_members: vec![Vec::new(); num_links],
            now_ps: 0.0,
            reshares: 0,
            completed: Vec::new(),
            next_dep: Cell::new(None),
            rates_cache: RefCell::new(Some(Vec::new())),
            reuses: Cell::new(0),
            shared_routes: None,
            dead_links,
            telemetry: false,
            flow_spans: Vec::new(),
        }
    }

    /// Builds the fluid simulator with a cross-run [`SharedRouteTable`]
    /// created for this same topology: route misses consult (and fill)
    /// the shared table before falling back to computing the route.
    pub fn with_shared_routes(topo: &Topology, shared: Arc<SharedRouteTable>) -> Self {
        let mut net = Self::new(topo);
        net.shared_routes = Some(shared);
        net
    }

    /// Builds the fluid simulator over a fabric with a fault schedule
    /// already applied (see [`FaultedGraph::new`]): degraded link
    /// capacities and latencies fold straight into the max-min re-share
    /// (every capacity read goes through the degraded graph), and dead
    /// links are excluded from routing. `None` simulates the pristine fabric.
    ///
    /// The caller must have verified the live fabric is still connected
    /// (see [`FaultedGraph::unreachable_pair`]); routing a disconnected
    /// pair panics.
    pub fn with_fabric(topo: &Topology, fabric: Option<FaultedGraph>) -> Self {
        let (graph, dead) = fabric.map_or_else(
            || (LinkGraph::new(topo), BTreeSet::new()),
            FaultedGraph::into_parts,
        );
        Self::from_graph(graph, dead)
    }

    /// The expanded link graph being simulated.
    pub fn graph(&self) -> &LinkGraph {
        &self.graph
    }

    /// Current simulation time (rounded to the picosecond grid).
    pub fn now(&self) -> Time {
        Time::from_ps(self.now_ps.round() as u64)
    }

    /// Flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Re-share computations answered from the incrementally maintained
    /// allocation instead of running progressive filling (arrivals and
    /// departures that touch only private links, or shared links with
    /// strict capacity head-room, leave every other flow's rate
    /// untouched).
    pub fn reshare_reuses(&self) -> u64 {
        self.reuses.get()
    }

    /// Resolves (or reuses) the memoized route for a pair. A local miss
    /// consults the shared table before computing the route.
    fn route_index(&mut self, src: NpuId, dst: NpuId) -> usize {
        let (graph, dead_links, shared) = (&self.graph, &self.dead_links, &self.shared_routes);
        self.routes.index_of(src, dst, || {
            if !dead_links.is_empty() {
                // Fault-aware routing never consults the shared table (it
                // was built for the pristine fabric).
                return route_avoiding(graph, src, dst, dead_links)
                    // astra-lint: allow(panic, callers reject disconnected fault schedules before building backends)
                    .expect("fault-aware route exists");
            }
            match shared.as_ref().and_then(|s| s.get(src, dst)) {
                Some(route) => route,
                None => {
                    let route = graph.route(src, dst);
                    if let Some(shared) = shared {
                        shared.insert(src, dst, route.clone());
                    }
                    route
                }
            }
        })
    }

    /// Stores a new flow and admits it to the active set at time `at`
    /// (clamped to the current time if the simulation has already
    /// advanced past it). The fluid state first advances to the arrival
    /// instant — departures scheduled before `at` happen first,
    /// re-sharing bandwidth on the way. Self and empty flows complete at
    /// once.
    fn inject(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize) {
        self.advance_to(at.as_ps() as f64);
        let route = self.route_index(src, dst);
        if self.routes[route].is_empty() || size == DataSize::ZERO {
            // Self and empty flows complete instantly.
            let at = self.now().max(at);
            let id = self.store(FlowState {
                route,
                remaining: 0.0,
                latency: Time::ZERO,
                start: at,
                token,
            });
            self.position[id.0] = usize::MAX;
            self.completed.push(Completion { token, finish: at });
            self.done_slots.push(id.0);
            return;
        }
        let latency = self.routes[route]
            .iter()
            .map(|&l| self.graph.link(l).latency)
            .sum();
        let id = self.store(FlowState {
            route,
            remaining: size.as_bytes() as f64,
            latency,
            start: self.now(),
            token,
        });
        self.position[id.0] = self.active.len();
        self.active.push(id.0);
        // A flow with at least one private link (no other traffic) whose
        // shared links all keep strict capacity head-room freezes at its
        // minimum private capacity without ever making a shared link a
        // bottleneck, so nobody else's rate moves — the memoized
        // allocation stays valid, extended in place. Anything else
        // (no private link, or a shared link near saturation)
        // invalidates it.
        let admitted = match self.rates_cache.get_mut().as_mut() {
            Some(rates) => {
                let rate = self.routes[route]
                    .iter()
                    .filter(|&&l| self.link_members[l.0].is_empty())
                    .map(|&l| self.graph.link(l).bandwidth.as_bytes_per_sec() as f64)
                    .fold(f64::INFINITY, f64::min);
                let admissible = rate.is_finite()
                    && self.routes[route].iter().all(|&l| {
                        let members = &self.link_members[l.0];
                        members.is_empty() || {
                            let capacity = self.graph.link(l).bandwidth.as_bytes_per_sec() as f64;
                            let load: f64 = members.iter().map(|&m| rates[self.position[m]]).sum();
                            load + rate < capacity * (1.0 - SHARE_SLACK)
                        }
                    });
                if admissible {
                    rates.push(rate);
                }
                admissible
            }
            // Already stale: nothing to keep consistent.
            None => true,
        };
        if !admitted {
            *self.rates_cache.get_mut() = None;
        }
        // Memoized membership: only this flow's own links change.
        for &l in &self.routes[route] {
            self.link_members[l.0].push(id.0);
        }
        self.next_dep.set(None);
    }

    /// Gives `flow` a slot: a drained slot if there is one. The caller
    /// sets the slot's `position`.
    fn store(&mut self, flow: FlowState) -> FlowId {
        self.flows_sent += 1;
        if let Some(slot) = self.free_slots.pop() {
            self.flows[slot] = flow;
            return FlowId(slot);
        }
        self.flows.push(flow);
        self.position.push(usize::MAX);
        FlowId(self.flows.len() - 1)
    }

    /// Runs until every flow has drained, returning the final time.
    pub fn run_until_idle(&mut self) -> Time {
        while !self.active.is_empty() {
            self.step(None);
        }
        self.now()
    }

    /// Advances the fluid state to `target_ps`, processing any departures
    /// scheduled before it.
    fn advance_to(&mut self, target_ps: f64) {
        while self.now_ps < target_ps {
            self.step(Some(target_ps));
        }
    }

    /// One re-share step: drains all active flows at their current max-min
    /// rates until the next departure (or `horizon_ps`, if earlier).
    // astra-lint: hot-path
    fn step(&mut self, horizon_ps: Option<f64>) {
        if self.active.is_empty() {
            if let Some(h) = horizon_ps {
                self.now_ps = self.now_ps.max(h);
            }
            return;
        }
        self.reshares += 1;
        self.next_dep.set(None);
        // Advance to the earliest completion under current rates (or the
        // horizon, if earlier). The allocation is taken out of the memo,
        // kept aligned with `active` below, and put back if still valid.
        self.refresh_rates();
        let mut rates = self.rates_cache.get_mut().take().unwrap_or_default();
        let mut valid = true;
        let mut dt = self.drain_interval(&rates);
        if let Some(h) = horizon_ps {
            dt = dt.min((h - self.now_ps) / 1e12);
        }
        debug_assert!(dt.is_finite(), "live-locked flow set");
        self.now_ps += dt * 1e12;
        let now = self.now();
        for k in (0..self.active.len()).rev() {
            let idx = self.active[k];
            let flow = &mut self.flows[idx];
            flow.remaining -= rates[k] * dt;
            if flow.remaining <= 1e-6 {
                let finish = now + flow.latency;
                let route = flow.route;
                let span_start = flow.start;
                self.completed.push(Completion {
                    token: flow.token,
                    finish,
                });
                self.done_slots.push(idx);
                if self.telemetry {
                    self.flow_spans.push((span_start, finish, route));
                }
                // Departure reuse check — while the departing flow is
                // still a member and the allocation is still aligned with
                // `active`: a link that was private to the flow is
                // trivially fine, and a shared link whose total allocated
                // load (departing flow included) keeps strict head-room
                // was never a bottleneck, so removing the flow leaves
                // every survivor's rate untouched. A shared link at
                // capacity invalidates the allocation.
                valid = valid
                    && self.routes[route].iter().all(|&l| {
                        let members = &self.link_members[l.0];
                        members.len() == 1 || {
                            let capacity = self.graph.link(l).bandwidth.as_bytes_per_sec() as f64;
                            let load: f64 = members.iter().map(|&m| rates[self.position[m]]).sum();
                            load < capacity * (1.0 - SHARE_SLACK)
                        }
                    });
                self.active.swap_remove(k);
                // Positions below `k`, the ones still to drain, keep
                // their rates.
                rates.swap_remove(k);
                if let Some(&moved) = self.active.get(k) {
                    self.position[moved] = k;
                }
                // A departure touches only its own links' member sets.
                for &l in &self.routes[route] {
                    let members = &mut self.link_members[l.0];
                    let at = members.iter().position(|&m| m == idx);
                    debug_assert!(at.is_some(), "departing flow is a member of its links");
                    if let Some(at) = at {
                        members.swap_remove(at);
                    }
                }
            }
        }
        // Memoized again only if every departure provably changed nobody
        // else's rate.
        if valid {
            *self.rates_cache.get_mut() = Some(rates);
        }
    }

    /// Projected instant of the next departure under the current max-min
    /// rates, rounded **up** to the picosecond grid (so advancing to it is
    /// guaranteed to process the departure). `None` when no flow is
    /// active. Memoized until the next arrival or re-share step.
    fn next_departure(&self) -> Option<Time> {
        if let Some(projected) = self.next_dep.get() {
            return projected;
        }
        let projected = self.project_next_departure();
        self.next_dep.set(Some(projected));
        projected
    }

    fn project_next_departure(&self) -> Option<Time> {
        if self.active.is_empty() {
            return None;
        }
        self.refresh_rates();
        let rates = self.rates_cache.borrow();
        let dt = self.drain_interval(rates.as_deref().unwrap_or_default());
        debug_assert!(dt.is_finite(), "live-locked flow set");
        Some(Time::from_ps((self.now_ps + dt * 1e12).ceil() as u64))
    }

    /// Makes [`FlowNetwork::rates_cache`] hold the max-min rates of the
    /// active set, positionally: `rates[k]` belongs to `self.active[k]`.
    /// Shared by [`FlowNetwork::step`] and the
    /// [`FlowNetwork::next_departure`] projection so the two can never
    /// disagree; both read the memoized vector in place.
    ///
    /// Progressive filling over the memoized per-link member sets
    /// ([`FlowNetwork::link_members`]): crossing counts are maintained
    /// while freezing instead of recomputed by scanning every route for
    /// every link each round, so a re-share costs
    /// `O(rounds × busy links + Σ frozen route lengths)` rather than the
    /// reference's `O(rounds × links × active × route)`. Links are visited
    /// in ascending id order and all flows frozen in one round subtract
    /// the identical share, so the result is bit-identical to the frozen
    /// [`max_min_rates`] reference (asserted in debug builds).
    ///
    /// When every arrival/departure since the last computation touched
    /// only links private to that flow or shared links with strict
    /// capacity head-room, the allocation memoized in
    /// [`FlowNetwork::rates_cache`] is still exact and even the filling is
    /// skipped (counted by [`FlowNetwork::reshare_reuses`]).
    fn refresh_rates(&self) {
        let fresh = self.rates_cache.borrow().is_none();
        if fresh {
            *self.rates_cache.borrow_mut() = Some(self.fill_rates());
        } else {
            self.reuses.set(self.reuses.get() + 1);
        }
        debug_assert_eq!(
            *self.rates_cache.borrow(),
            Some({
                let routes: Vec<&[LinkId]> = self
                    .active
                    .iter()
                    .map(|&i| &self.routes[self.flows[i].route])
                    .collect();
                let positions: Vec<usize> = (0..routes.len()).collect();
                max_min_rates(&self.graph, &routes, &positions)
            }),
            "incremental max-min diverged from the reference"
        );
    }

    /// The earliest drain interval (seconds) of the active set under
    /// `rates`, aligned with `active`.
    fn drain_interval(&self, rates: &[f64]) -> f64 {
        let mut dt = f64::INFINITY;
        for (k, &i) in self.active.iter().enumerate() {
            if rates[k] > 0.0 {
                dt = dt.min(self.flows[i].remaining / rates[k]);
            }
        }
        dt
    }

    /// Progressive filling over the memoized per-link member sets — the
    /// slow path of [`FlowNetwork::refresh_rates`].
    fn fill_rates(&self) -> Vec<f64> {
        let mut rates = vec![0.0f64; self.active.len()];
        // Busy links in ascending id order — the reference's visit order.
        let busy: Vec<usize> = (0..self.graph.num_links())
            .filter(|&l| !self.link_members[l].is_empty())
            .collect();
        let mut residual: Vec<(usize, f64)> = busy
            .iter()
            .map(|&l| {
                (
                    l,
                    self.graph.link(LinkId(l)).bandwidth.as_bytes_per_sec() as f64,
                )
            })
            .collect();
        let mut crossing: Vec<usize> = busy.iter().map(|&l| self.link_members[l].len()).collect();
        // Scratch lookup: busy-link id -> slot in the vectors above.
        let mut slot_of = vec![usize::MAX; self.graph.num_links()];
        for (slot, &l) in busy.iter().enumerate() {
            slot_of[l] = slot;
        }
        let mut frozen = vec![false; self.active.len()];
        let mut unfrozen = self.active.len();
        while unfrozen > 0 {
            let mut bottleneck: Option<(f64, usize)> = None;
            for (slot, &(_, capacity)) in residual.iter().enumerate() {
                if crossing[slot] == 0 {
                    continue;
                }
                let share = capacity / crossing[slot] as f64;
                if bottleneck.is_none_or(|(s, _)| share < s) {
                    bottleneck = Some((share, slot));
                }
            }
            let Some((share, slot)) = bottleneck else {
                break;
            };
            for mi in 0..self.link_members[residual[slot].0].len() {
                let flow = self.link_members[residual[slot].0][mi];
                let pos = self.position[flow];
                if frozen[pos] {
                    continue;
                }
                frozen[pos] = true;
                unfrozen -= 1;
                rates[pos] = share;
                for &l in &self.routes[self.flows[flow].route] {
                    let s = slot_of[l.0];
                    let (_, capacity) = &mut residual[s];
                    *capacity = (*capacity - share).max(0.0);
                    crossing[s] -= 1;
                }
            }
        }
        rates
    }
}

impl NetworkBackend for FlowNetwork {
    /// Injects a co-resident flow: it shares link bandwidth max-min fairly
    /// with every other live flow from `at` onwards. Arrivals re-share
    /// rates, so an async send can slow down (and be slowed down by)
    /// overlapping engine traffic — the contention the blocking-p2p oracle
    /// cannot see.
    ///
    /// Self and empty flows complete at injection time.
    fn send_async(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize) {
        self.inject(token, at, src, dst, size);
    }

    /// The fluid clock, rounded down: a send at or before it starts at
    /// the clock itself (sends clamp to it), and rounding
    /// down never nudges the fluid state forward by a fraction of a tick.
    fn earliest_send_time(&self) -> Time {
        Time::from_ps(self.now_ps as u64)
    }

    fn next_event_time(&self) -> Option<Time> {
        self.next_departure()
    }

    fn advance_until(&mut self, limit: Time) {
        if self.active.is_empty() {
            return;
        }
        let target = limit.as_ps() as f64;
        if self.now_ps < target {
            self.advance_to(target);
        } else {
            // Degenerate float case: the projected departure is within one
            // grid tick of the current instant (`next_departure` rounded it
            // up onto a tick we already sit on). One unclamped step drains
            // that near-empty flow and guarantees progress.
            self.step(None);
        }
    }

    /// Each drained flow is forgotten: its slot goes to the next
    /// [`NetworkBackend::send_async`].
    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        self.free_slots.append(&mut self.done_slots);
        out.append(&mut self.completed);
    }

    fn stats(&self) -> NetworkStats {
        NetworkStats {
            messages: self.flows_sent,
            events: self.reshares,
            backend_setups: 1,
            ..NetworkStats::default()
        }
    }

    fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
    }

    /// Fluid flows have no per-hop queueing; each completed flow's whole
    /// `(start, finish)` span is attributed to every link of its route,
    /// so queue depth reads as link concurrency.
    fn link_traces(&self) -> Vec<LinkTrace> {
        let mut per_link: BTreeMap<usize, Vec<RecordedReservation>> = BTreeMap::new();
        for &(start, finish, route) in &self.flow_spans {
            for &l in &self.routes[route] {
                per_link.entry(l.0).or_default().push(RecordedReservation {
                    ready: start,
                    start,
                    end: finish,
                });
            }
        }
        per_link
            .into_iter()
            .map(|(link, mut reservations)| {
                reservations.sort_unstable_by_key(|r| (r.ready, r.start, r.end));
                LinkTrace { link, reservations }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyticalNetwork, NetworkBackend};

    fn topo(notation: &str) -> Topology {
        Topology::parse(notation).unwrap()
    }

    /// Sends each `(at, src, dst, size)` under its index, runs `net` to
    /// idle and returns the finishes in send order.
    fn run_flows(net: &mut FlowNetwork, sends: &[(Time, NpuId, NpuId, DataSize)]) -> Vec<Time> {
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
            .map(|f| f.expect("every flow completes"))
            .collect()
    }

    /// Drains `net` without advancing it.
    fn drained(net: &mut FlowNetwork) -> Vec<Completion> {
        let mut done = Vec::new();
        net.drain_completions(&mut done);
        done
    }

    fn bytes(n: u64) -> DataSize {
        DataSize::from_bytes(n)
    }

    #[test]
    fn uncongested_flow_matches_analytical_equation() {
        let t = topo("SW(4)@100");
        let mut flow = FlowNetwork::new(&t);
        let mut analytical = AnalyticalNetwork::new(t);
        // 100 MB (decimal) at 100 GB/s divides exactly on the ps grid.
        let size = DataSize::from_bytes(100_000_000);
        assert_eq!(flow.p2p_delay(0, 1, size), analytical.p2p_delay(0, 1, size));
    }

    #[test]
    fn late_arrival_shares_only_while_overlapping() {
        // Long flow alone for 1 ms at 100 GB/s (drains 100 MB of 200 MB),
        // then a 100 MB rival arrives: both drain at 50 GB/s for 2 ms.
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        let got = run_flows(
            &mut net,
            &[
                (Time::ZERO, 0, 3, bytes(200_000_000)),
                (Time::from_ms(1), 1, 3, bytes(100_000_000)),
            ],
        );
        let lat = Time::from_ns(1000); // 2 switch hops x 500 ns
        assert_eq!(got, [Time::from_ms(3) + lat; 2]);
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        let got = run_flows(
            &mut net,
            &[
                (Time::ZERO, 0, 3, bytes(50_000_000)),
                (Time::ZERO, 1, 3, bytes(150_000_000)),
            ],
        );
        let lat = Time::from_ns(1000);
        // Shared 100 GB/s down-link: both at 50 GB/s until the short one
        // drains (1 ms), then the long one's last 100 MB at full rate.
        assert_eq!(got, [Time::from_ms(1) + lat, Time::from_ms(2) + lat]);
        assert_eq!(net.stats().events, 2);
    }

    #[test]
    fn link_disjoint_traffic_reuses_the_allocation() {
        // Two flows on disjoint ring links: every arrival and departure is
        // private to its own route, so the memoized allocation stays valid
        // and no re-share runs progressive filling (the debug build also
        // asserts each reused allocation against the frozen reference).
        let t = topo("R(4)@100");
        let mut net = FlowNetwork::new(&t);
        let got = run_flows(
            &mut net,
            &[
                (Time::ZERO, 0, 1, bytes(100_000_000)),
                (Time::ZERO, 2, 3, bytes(100_000_000)),
            ],
        );
        assert_eq!(got[0], got[1]);
        assert!(net.stats().events > 0);
        assert!(net.reshare_reuses() >= net.stats().events);
    }

    #[test]
    fn shared_nonbottleneck_links_extend_the_allocation() {
        // Two flows cross ring link 1->2 but are both throttled to
        // 25 GB/s by their private switch hops, leaving the shared
        // 100 GB/s ring link (200 GB/s split across the two ring
        // directions) three-quarters idle: the second arrival and
        // the first departure both keep strict head-room on it, so every
        // re-share of this run is answered from the maintained allocation
        // (each reuse is debug-asserted against the frozen reference).
        let t = topo("R(5)@200_SW(2)@25");
        let mut net = FlowNetwork::new(&t);
        let got = run_flows(
            &mut net,
            &[
                // (ring 0, plane 0) -> (ring 2, plane 1): ring 0->1->2,
                // then the private 25 GB/s switch at ring position 2.
                (Time::ZERO, 0, 7, bytes(50_000_000)),
                // (ring 1, plane 0) -> (ring 3, plane 1): ring 1->2->3
                // (sharing link 1->2 with the first), then the private
                // switch at position 3.
                (Time::ZERO, 1, 8, bytes(25_000_000)),
            ],
        );
        // Both drain at their private 25 GB/s bottleneck: the second's
        // departure at 1 ms leaves the first's rate untouched, and the
        // first finishes 1 ms later.
        assert_eq!(got[0] - got[1], Time::from_ms(1));
        assert_eq!(net.stats().events, 2);
        assert_eq!(net.reshare_reuses(), 2);
    }

    #[test]
    fn shared_links_without_headroom_still_refill() {
        // Same shared ring link, but the second flow's private capacity
        // (100 GB/s) exceeds the link's remaining head-room, so its true
        // rate depends on the shared link — the arrival must invalidate
        // the allocation, and so must its later departure (the link runs
        // at capacity while both flows overlap).
        let t = topo("R(5)@200_SW(2)@25");
        let mut net = FlowNetwork::new(&t);
        run_flows(
            &mut net,
            &[
                (Time::ZERO, 0, 7, bytes(50_000_000)),
                // (ring 1, plane 0) -> (ring 3, plane 0): ring 1->2->3
                // only, no switch hop: its 100 GB/s private link cannot
                // cap it below the shared link's 75 GB/s of remaining
                // head-room.
                (Time::ZERO, 1, 3, bytes(75_000_000)),
            ],
        );
        assert_eq!(net.reshare_reuses(), 0);
        assert_eq!(net.stats().events, 2);
    }

    #[test]
    fn shared_bottlenecks_always_refill() {
        // Incast pair: the second arrival and the first departure both
        // touch the shared down-link, so every re-share of this run must
        // recompute the allocation from scratch.
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        run_flows(
            &mut net,
            &[
                (Time::ZERO, 0, 3, bytes(50_000_000)),
                (Time::ZERO, 1, 3, bytes(150_000_000)),
            ],
        );
        assert_eq!(net.reshare_reuses(), 0);
        assert_eq!(net.stats().events, 2);
    }

    #[test]
    fn probe_on_live_network_pays_for_sharing() {
        let t = topo("SW(4)@100");
        let quiet = {
            let mut net = FlowNetwork::new(&t);
            net.p2p_delay(0, 3, DataSize::from_bytes(50_000_000))
        };
        let mut net = FlowNetwork::new(&t);
        net.send_async(0, Time::ZERO, 1, 3, DataSize::from_gib(1));
        let congested = net.p2p_delay(0, 3, DataSize::from_bytes(50_000_000));
        // The shared down-link halves the probe's rate.
        let ratio = congested.as_us_f64() / quiet.as_us_f64();
        assert!((1.9..2.1).contains(&ratio), "{ratio}");
        // The backlog is still in flight afterwards (no draining side
        // effect), and finishes later under the full link rate.
        assert_eq!(net.active_flows(), 1);
        net.run_until_idle();
        let done = drained(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 0);
    }

    #[test]
    fn self_and_zero_flows_complete_at_injection_time() {
        let t = topo("R(4)@100");
        let mut net = FlowNetwork::new(&t);
        let got = run_flows(
            &mut net,
            &[
                (Time::from_us(5), 2, 2, DataSize::from_mib(1)),
                (Time::from_us(7), 0, 1, DataSize::ZERO),
            ],
        );
        assert_eq!(got, [Time::from_us(5), Time::from_us(7)]);
    }

    #[test]
    fn zero_size_flows_do_not_disturb_live_traffic() {
        // A zero-byte flow completes instantly, holds no link share, and
        // leaves the survivors' rates untouched.
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        net.send_async(0, Time::ZERO, 0, 3, bytes(100_000_000));
        net.send_async(1, Time::from_us(10), 1, 3, DataSize::ZERO);
        assert_eq!(
            drained(&mut net),
            [Completion {
                token: 1,
                finish: Time::from_us(10)
            }]
        );
        net.run_until_idle();
        let lat = Time::from_ns(1000);
        assert_eq!(
            drained(&mut net),
            [Completion {
                token: 0,
                finish: Time::from_ms(1) + lat
            }]
        );
    }

    #[test]
    fn self_sends_complete_at_injection_even_under_congestion() {
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        net.send_async(0, Time::ZERO, 0, 3, DataSize::from_gib(1));
        // src == dst: empty route, no link time, no latency, no sharing.
        net.send_async(1, Time::from_us(3), 3, 3, DataSize::from_gib(4));
        assert_eq!(
            drained(&mut net),
            [Completion {
                token: 1,
                finish: Time::from_us(3)
            }]
        );
        assert_eq!(net.active_flows(), 1);
        net.run_until_idle();
        assert_eq!(drained(&mut net)[0].token, 0);
    }

    #[test]
    fn async_self_and_zero_sends_complete_without_events() {
        let t = topo("R(4)@100");
        let mut net = FlowNetwork::new(&t);
        net.send_async(4, Time::from_us(2), 1, 1, DataSize::from_mib(8));
        net.send_async(9, Time::from_us(5), 0, 2, DataSize::ZERO);
        assert_eq!(net.next_event_time(), None);
        assert_eq!(
            drained(&mut net),
            [
                Completion {
                    token: 4,
                    finish: Time::from_us(2)
                },
                Completion {
                    token: 9,
                    finish: Time::from_us(5)
                },
            ]
        );
    }

    /// A chain of async sends, each sent once the previous completion is
    /// drained, lives in one slot; every flow crosses the idle network in
    /// its solo delay, and `stats().messages` counts every send.
    #[test]
    fn drained_chain_holds_one_slot() {
        let t = topo("R(8)@100");
        let size = DataSize::from_mib(1);
        let solo = FlowNetwork::new(&t).p2p_delay(0, 3, size);
        let mut net = FlowNetwork::new(&t);
        let mut at = Time::ZERO;
        let mut out = Vec::new();
        for token in 0..10 {
            net.send_async(token, at, 0, 3, size);
            while out.is_empty() {
                let next = net.next_event_time().unwrap();
                net.advance_until(next);
                net.drain_completions(&mut out);
            }
            let c = out.pop().unwrap();
            assert_eq!(c.token, token);
            assert_eq!(c.finish - at, solo);
            at = c.finish.max(net.earliest_send_time());
        }
        assert_eq!(net.flows.len(), 1, "the chain grew past one slot");
        assert_eq!(net.stats().messages, 10);
    }

    #[test]
    fn simultaneous_arrival_and_departure_reshare_ties() {
        // Flow A (100 MB) departs the shared down-link at exactly the
        // instant flow C arrives on it: departures scheduled at-or-before
        // the arrival are processed first, so C shares only with B.
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        let got = run_flows(
            &mut net,
            &[
                (Time::ZERO, 0, 3, bytes(100_000_000)),
                (Time::ZERO, 1, 3, bytes(300_000_000)),
                // A and B share the down-link at 50 GB/s each; A drains
                // its 100 MB at t = 2 ms — the exact injection instant of C.
                (Time::from_ms(2), 2, 3, bytes(100_000_000)),
            ],
        );
        let lat = Time::from_ns(1000);
        // B has 200 MB left at t = 2 ms and shares with C at 50 GB/s:
        // C's 100 MB drain at t = 4 ms, then B's last 100 MB at full rate.
        assert_eq!(
            got,
            [
                Time::from_ms(2) + lat,
                Time::from_ms(5) + lat,
                Time::from_ms(4) + lat
            ]
        );
    }

    #[test]
    fn tied_departures_drain_in_one_reshare() {
        // Equal flows on the same bottleneck depart simultaneously: the
        // tie is resolved in a single step, not one re-share per flow.
        let t = topo("SW(4)@100");
        let mut net = FlowNetwork::new(&t);
        let sends = [0, 1, 2].map(|src| (Time::ZERO, src, 3, bytes(100_000_000)));
        let got = run_flows(&mut net, &sends);
        let lat = Time::from_ns(1000);
        assert_eq!(got, [Time::from_ms(3) + lat; 3]);
        assert_eq!(net.stats().events, 1);
    }

    #[test]
    fn routes_are_memoized() {
        let t = topo("R(8)@100");
        let mut net = FlowNetwork::new(&t);
        for token in 0..4 {
            net.send_async(token, net.now(), 0, 2, DataSize::from_kib(64));
        }
        net.run_until_idle();
        assert_eq!(net.routes.len(), 1);
    }

    #[test]
    fn telemetry_records_flow_spans_per_link() {
        let t = topo("SW(4)@100");
        let sends = [0, 1].map(|src| (Time::ZERO, src, 3, bytes(50_000_000)));
        let mut net = FlowNetwork::new(&t);
        net.set_telemetry(true);
        let got = run_flows(&mut net, &sends);
        let traces = net.link_traces();
        assert!(!traces.is_empty());
        // The shared down-link into NPU 3 carries both flows.
        let shared = traces
            .iter()
            .find(|l| l.reservations.len() == 2)
            .expect("shared down-link recorded both flows");
        let finish = got[0];
        assert_eq!(got[1], finish);
        for r in &shared.reservations {
            assert_eq!(r.ready, Time::ZERO);
            assert_eq!(r.start, Time::ZERO);
            assert_eq!(r.end, finish);
        }
        // Telemetry never perturbs the simulation itself.
        let mut quiet = FlowNetwork::new(&t);
        assert_eq!(run_flows(&mut quiet, &sends), got);
        assert!(quiet.link_traces().is_empty());
    }
}
