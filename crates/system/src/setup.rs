//! Run set-up: one pass that checks a run's inputs, validates the fault
//! schedule and applies it to the fabric exactly once ([`prepare`]).
//! Group spans, impact rows and the network backend ([`build_backend`])
//! all read that one applied fabric; a fault-free run builds no link
//! graph here.

use std::sync::Arc;

use astra_collectives::{CollectiveMode, SchedulerPolicy};
use astra_des::Time;
use astra_garnet::{PacketNetwork, PacketSimConfig, TransportMode};
use astra_network::{AnalyticalNetwork, FlowNetwork, NetworkBackend, NetworkBackendKind};
use astra_topology::{BuildingBlock, Dimension, FaultedGraph, NpuId, Topology};
use astra_workload::{EtOp, ExecutionTrace, TensorLocation};

use crate::engine::{SimError, SystemConfig, WarmState};
use crate::report::FaultImpact;

/// The buffers [`Spans::push_group`] works in, reused from group to group.
#[derive(Default)]
pub(crate) struct GroupScratch {
    /// Per member: its coordinate along the dimension at hand.
    coords: Vec<usize>,
    /// Per coordinate: whether a member has it; all `false` between uses.
    seen: Vec<bool>,
}

/// What [`prepare`] hands the engine.
#[derive(Clone)]
pub(crate) struct Setup {
    /// Per trace group: its span.
    pub(crate) spans: Spans,
    /// One row per schedule event, seeded with the links it touched.
    pub(crate) impacts: Vec<FaultImpact>,
    /// The fabric with the schedule applied, `None` without fabric faults.
    pub(crate) fabric: Option<FaultedGraph>,
}

/// One group's span, borrowed from [`Spans`].
#[derive(Copy, Clone)]
pub(crate) struct GroupSpan<'a> {
    /// The group's members in ascending order: a member's rank is its
    /// index here, found by binary search. `TraceBuilder` groups are
    /// already sorted; `from_json` groups may not be. In a quotient run
    /// these are the member blocks (see [`crate::orbits::Orbits`]).
    pub(crate) members: &'a [NpuId],
    /// Per spanned dimension: the global dimension index.
    pub(crate) axes: &'a [usize],
    /// Aligned with `axes`: the effective sub-dimension.
    pub(crate) dims: &'a [Dimension],
    /// Aligned with `axes`: the representative `(src, dst)` wire endpoints
    /// used by backend-executed chunk ops — the two lowest-coordinate
    /// members along the dimension through the representative, so each
    /// dimension's ops serialize on a distinct source NIC lane while
    /// different dimensions (and sibling groups) stream in parallel.
    pub(crate) wires: &'a [(NpuId, NpuId)],
    /// Aligned with `axes`: the lane each spanned dimension contends on.
    /// A full run keys lanes by `(first member as listed, dimension)` at
    /// `rep * num_dims + dim`, so back-to-back collectives of groups that
    /// share both contend; a quotient run names lane blocks.
    pub(crate) lanes: &'a [usize],
    /// Aligned with `axes`: when a fault schedule degrades the spanned
    /// dimension, holds the pristine dimension plus the index of the
    /// schedule's first event touching it, for per-fault attribution of
    /// the collective slowdown. `None` entries mean the dimension is
    /// unaffected.
    pub(crate) degraded: &'a [Option<(Dimension, usize)>],
}

/// Every group's span (see [`GroupSpan`]), laid out flat: group `g`'s
/// members are `members[member_at[g]..member_at[g + 1]]` and its spanned
/// dimensions `axes[dim_at[g]..dim_at[g + 1]]`, with `dims`, `wires`,
/// `lanes` and `degraded` aligned with `axes`. Adding a group allocates
/// nothing once the buffers have grown.
#[derive(Clone)]
pub(crate) struct Spans {
    member_at: Vec<usize>,
    members: Vec<NpuId>,
    dim_at: Vec<usize>,
    axes: Vec<usize>,
    dims: Vec<Dimension>,
    wires: Vec<(NpuId, NpuId)>,
    lanes: Vec<usize>,
    degraded: Vec<Option<(Dimension, usize)>>,
}

impl Spans {
    pub(crate) fn new() -> Self {
        Spans {
            member_at: vec![0],
            members: Vec::new(),
            dim_at: vec![0],
            axes: Vec::new(),
            dims: Vec::new(),
            wires: Vec::new(),
            lanes: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// How many groups there are.
    pub(crate) fn len(&self) -> usize {
        self.member_at.len() - 1
    }

    /// Group `group`'s span.
    ///
    /// # Panics
    ///
    /// Panics if there is no such group.
    pub(crate) fn span(&self, group: usize) -> GroupSpan<'_> {
        let dims = self.dim_at[group]..self.dim_at[group + 1];
        GroupSpan {
            members: &self.members[self.member_at[group]..self.member_at[group + 1]],
            axes: &self.axes[dims.clone()],
            dims: &self.dims[dims.clone()],
            wires: &self.wires[dims.clone()],
            lanes: &self.lanes[dims.clone()],
            degraded: &self.degraded[dims],
        }
    }

    /// The wire endpoints of group `group`'s spanned dimension `dim` (see
    /// [`GroupSpan::wires`]), without the rest of its span.
    ///
    /// # Panics
    ///
    /// Panics if there is no such group or dimension.
    pub(crate) fn wire(&self, group: usize, dim: usize) -> (NpuId, NpuId) {
        let at = self.dim_at[group] + dim;
        debug_assert!(
            at < self.dim_at[group + 1],
            "group {group} spans no dimension {dim}"
        );
        self.wires[at]
    }

    /// Group `group`'s span, if there is such a group.
    pub(crate) fn get(&self, group: usize) -> Option<GroupSpan<'_>> {
        (group < self.len()).then(|| self.span(group))
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = GroupSpan<'_>> {
        (0..self.len()).map(|group| self.span(group))
    }

    /// Appends a group with `span`'s members and dimensions.
    pub(crate) fn push(&mut self, span: GroupSpan<'_>) {
        self.members.extend_from_slice(span.members);
        self.member_at.push(self.members.len());
        self.axes.extend_from_slice(span.axes);
        self.dims.extend_from_slice(span.dims);
        self.wires.extend_from_slice(span.wires);
        self.lanes.extend_from_slice(span.lanes);
        self.degraded.extend_from_slice(span.degraded);
        self.dim_at.push(self.axes.len());
    }

    /// Appends the span of the group of `members` on `topo`, which
    /// determines which topology dimensions the group spans. Members
    /// must be distinct NPUs of the topology forming a sub-grid: the
    /// product of per-dimension distinct coordinate counts must equal the
    /// group size. Returns whether they do; a group that does not is not
    /// added.
    pub(crate) fn push_group(
        &mut self,
        topo: &Topology,
        members: &[NpuId],
        scratch: &mut GroupScratch,
    ) -> bool {
        let (member_start, dim_start) = (self.members.len(), self.axes.len());
        if self.add_group(topo, members, scratch) {
            self.member_at.push(self.members.len());
            self.dim_at.push(self.axes.len());
            true
        } else {
            self.members.truncate(member_start);
            self.axes.truncate(dim_start);
            self.dims.truncate(dim_start);
            self.wires.truncate(dim_start);
            self.lanes.truncate(dim_start);
            self.degraded.truncate(dim_start);
            false
        }
    }

    /// [`Spans::push_group`]'s body: appends the members and dimensions,
    /// leaving the offsets to the caller.
    fn add_group(
        &mut self,
        topo: &Topology,
        members: &[NpuId],
        scratch: &mut GroupScratch,
    ) -> bool {
        let start = self.members.len();
        self.members.extend_from_slice(members);
        let sorted = &mut self.members[start..];
        // `TraceBuilder` groups come ascending already.
        if sorted.windows(2).any(|w| w[0] >= w[1]) {
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
        }
        if sorted.last().is_none_or(|&m| m >= topo.npus()) {
            return false;
        }
        let GroupScratch { coords, seen } = scratch;
        let rep = members[0];
        let mut product = 1usize;
        for (dim_idx, base) in topo.dims().iter().enumerate() {
            let (stride, k) = (topo.dim_stride(dim_idx), base.npus());
            // Each member's coordinate, aligned with `members`.
            coords.clear();
            coords.extend(members.iter().map(|&m| m / stride % k));
            if seen.len() < k {
                seen.resize(k, false);
            }
            let mut distinct = 0;
            for &c in coords.iter() {
                distinct += usize::from(!seen[c]);
                seen[c] = true;
            }
            for &c in coords.iter() {
                seen[c] = false;
            }
            product *= distinct;
            if distinct > 1 {
                let block = match base.block() {
                    BuildingBlock::Ring(_) => BuildingBlock::Ring(distinct),
                    BuildingBlock::FullyConnected(_) => BuildingBlock::FullyConnected(distinct),
                    BuildingBlock::Switch(_) => BuildingBlock::Switch(distinct),
                };
                // Representative wire endpoints for backend-executed chunk
                // ops: the two lowest-coordinate members on the line
                // through the representative along this dimension
                // (adjacent for contiguous groups, so the wire covers
                // exactly the algorithm's per-step hop). A member is on
                // that line when it differs from the representative in
                // this coordinate only.
                let line = rep - coords[0] * stride;
                let mut lowest: [Option<(usize, NpuId)>; 2] = [None, None];
                for (&m, &c) in members.iter().zip(coords.iter()) {
                    if m - c * stride != line {
                        continue;
                    }
                    let point = (c, m);
                    if lowest[0].is_none_or(|low| point < low) {
                        lowest = [Some(point), lowest[0]];
                    } else if lowest[1].is_none_or(|low| point < low) {
                        lowest[1] = Some(point);
                    }
                }
                let [Some((_, first)), Some((_, second))] = lowest else {
                    // The members cannot form a sub-grid.
                    return false;
                };
                self.axes.push(dim_idx);
                self.dims.push(
                    Dimension::new(block)
                        .with_bandwidth(base.bandwidth())
                        .with_link_latency(base.link_latency()),
                );
                self.wires.push((second, first));
                self.lanes.push(rep * topo.num_dims() + dim_idx);
                self.degraded.push(None);
            }
        }
        product == members.len()
    }

    /// Folds a fault schedule's per-dimension degradation into every
    /// span: the spanned sub-dimension's bandwidth is scaled by the
    /// dimension's live-link fraction and worst degradation factor, its
    /// latency by the worst latency multiplier. The pristine dimension is
    /// kept alongside for per-fault attribution of the resulting
    /// collective slowdown.
    fn degrade(&mut self, fabric: &FaultedGraph) {
        let spanned = self.axes.iter().zip(self.dims.iter_mut());
        for (slot, (&axis, dim)) in self.degraded.iter_mut().zip(spanned) {
            let Some(degrade) = fabric.dim_degrade(axis) else {
                continue;
            };
            let pristine = *dim;
            *dim = Dimension::new(dim.block())
                .with_bandwidth(degrade.scale_bandwidth(dim.bandwidth()))
                .with_link_latency(degrade.scale_latency(dim.link_latency()));
            *slot = Some((pristine, degrade.first_event));
        }
    }
}

/// The set-up pass shared by every `simulate*` entry point: checks
/// trace/platform consistency, validates and applies the fault schedule,
/// and computes group spans and fault-impact rows.
pub(crate) fn prepare(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<Setup, SimError> {
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

    // Validate the fault schedule up front and apply it once: every later
    // fault consumer (span degradation, impact rows, the backend, straggler
    // stretching) may then assume a well-formed, connectivity-preserving
    // schedule.
    let faults = &config.faults;
    let fabric = if faults.has_fabric_faults() {
        let fabric = FaultedGraph::new(topo, faults).map_err(SimError::InvalidFaults)?;
        if let Some((src, dst)) = fabric.unreachable_pair() {
            return Err(SimError::Unreachable { src, dst });
        }
        Some(fabric)
    } else {
        faults.validate(topo).map_err(SimError::InvalidFaults)?;
        None
    };

    let mut spans = Spans::new();
    let mut scratch = GroupScratch::default();
    for (gi, members) in trace.groups().iter().enumerate() {
        if !spans.push_group(topo, members, &mut scratch) {
            return Err(SimError::UnalignedGroup { group: gi });
        }
    }
    if let Some(fabric) = &fabric {
        spans.degrade(fabric);
    }
    let impacts = faults
        .events()
        .iter()
        .enumerate()
        .map(|(idx, ev)| FaultImpact {
            event: idx,
            kind: ev.kind.label(),
            affected: fabric.as_ref().map_or(0, |f| f.touched(idx)),
            extra_time: Time::ZERO,
        })
        .collect();
    Ok(Setup {
        spans,
        impacts,
        fabric,
    })
}

/// Instantiates the configured [`NetworkBackend`] for a topology, with the
/// fault schedule's fabric faults applied: dead links removed from routing,
/// degraded link properties folded into every delay/rate computation. A
/// schedule without fabric faults builds the pristine backend, attached to
/// the `warm` handles where the backend takes one. The packet backend runs
/// train transport. The schedule must be valid ([`prepare`]).
pub(crate) fn build_network(
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
) -> Box<dyn NetworkBackend> {
    let faults = &config.faults;
    let fabric = faults
        .has_fabric_faults()
        .then(|| FaultedGraph::new(topo, faults).ok());
    build_backend(topo, config, warm, TransportMode::Batched, fabric.flatten())
}

/// The configured backend over `fabric`, the fabric [`prepare`] applied
/// (`None` when fault-free), with the packet backend on `transport`.
pub(crate) fn build_backend(
    topo: &Topology,
    config: &SystemConfig,
    warm: &WarmState,
    transport: TransportMode,
    fabric: Option<FaultedGraph>,
) -> Box<dyn NetworkBackend> {
    // Warm delay/route tables are computed on the pristine fabric; a
    // degraded run must not consult them. Build cold instead.
    match config.network_backend {
        NetworkBackendKind::Analytical => match (fabric, &warm.delay_memo) {
            (None, Some(memo)) => Box::new(AnalyticalNetwork::with_shared_memo(
                topo.clone(),
                Arc::clone(memo),
            )),
            (fabric, _) => Box::new(AnalyticalNetwork::with_fabric(topo.clone(), fabric)),
        },
        NetworkBackendKind::Packet => Box::new(PacketNetwork::with_fabric(
            topo,
            PacketSimConfig::fast().with_transport(transport),
            fabric,
        )),
        NetworkBackendKind::Flow => match (fabric, &warm.routes) {
            (None, Some(routes)) => {
                Box::new(FlowNetwork::with_shared_routes(topo, Arc::clone(routes)))
            }
            (fabric, _) => Box::new(FlowNetwork::with_fabric(topo, fabric)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span of `members` as set-up computed it before it reused
    /// coordinates: sort, then per dimension sort the coordinates to count
    /// them and compute them again for the wire scan. `None` when the
    /// group is not a sub-grid.
    #[allow(clippy::type_complexity)]
    fn reference(
        topo: &Topology,
        members: &[NpuId],
    ) -> Option<(
        Vec<NpuId>,
        Vec<usize>,
        Vec<Dimension>,
        Vec<(NpuId, NpuId)>,
        Vec<usize>,
    )> {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) || sorted.last()? >= &topo.npus() {
            return None;
        }
        let (mut axes, mut dims, mut wires, mut lanes) = (vec![], vec![], vec![], vec![]);
        let rep = members[0];
        let mut product = 1;
        for (dim_idx, base) in topo.dims().iter().enumerate() {
            let (stride, k) = (topo.dim_stride(dim_idx), base.npus());
            let coord = |m: NpuId| m / stride % k;
            let mut coords: Vec<usize> = members.iter().map(|&m| coord(m)).collect();
            coords.sort_unstable();
            coords.dedup();
            product *= coords.len();
            if coords.len() > 1 {
                let line = rep - coord(rep) * stride;
                let mut on_line: Vec<(usize, NpuId)> = members
                    .iter()
                    .filter(|&&m| m - coord(m) * stride == line)
                    .map(|&m| (coord(m), m))
                    .collect();
                on_line.sort_unstable();
                let [(_, first), (_, second), ..] = on_line[..] else {
                    return None;
                };
                let block = match base.block() {
                    BuildingBlock::Ring(_) => BuildingBlock::Ring(coords.len()),
                    BuildingBlock::FullyConnected(_) => BuildingBlock::FullyConnected(coords.len()),
                    BuildingBlock::Switch(_) => BuildingBlock::Switch(coords.len()),
                };
                axes.push(dim_idx);
                dims.push(
                    Dimension::new(block)
                        .with_bandwidth(base.bandwidth())
                        .with_link_latency(base.link_latency()),
                );
                wires.push((second, first));
                lanes.push(rep * topo.num_dims() + dim_idx);
            }
        }
        (product == members.len()).then_some((sorted, axes, dims, wires, lanes))
    }

    /// Sub-grids (ascending, shuffled, with a member repeated, or one
    /// past the topology) and random member sets on 1- to 3-D topologies:
    /// `push_group` accepts exactly the groups the sorting reference does,
    /// with the same members, dimensions, wires and lanes, and leaves
    /// nothing behind for the others.
    #[test]
    fn spans_match_the_sorting_reference() {
        let mut seed = 11u64;
        let mut below = |n: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize % n
        };
        let topos = [
            "SW(8)@100",
            "R(4)@250_SW(6)@100",
            "R(2)@250_FC(3)@200_SW(4)@50",
        ];
        let mut scratch = GroupScratch::default();
        let mut accepted = 0;
        for notation in topos {
            let topo = Topology::parse(notation).unwrap();
            let mut spans = Spans::new();
            for case in 0..400 {
                let mut members: Vec<NpuId> = if case % 3 == 0 {
                    (0..1 + below(6)).map(|_| below(topo.npus())).collect()
                } else {
                    // A sub-grid: some coordinates per dimension.
                    let mut grid = vec![0];
                    for (d, dim) in topo.dims().iter().enumerate() {
                        let mut picks: Vec<usize> = (0..dim.npus()).collect();
                        for i in (1..picks.len()).rev() {
                            picks.swap(i, below(i + 1));
                        }
                        picks.truncate(1 + below(dim.npus()));
                        let stride = topo.dim_stride(d);
                        grid = grid
                            .iter()
                            .flat_map(|&m| picks.iter().map(move |&c| m + c * stride))
                            .collect();
                    }
                    grid.sort_unstable();
                    grid
                };
                match case % 5 {
                    1 => members.reverse(),
                    2 => members.push(members[0]),
                    3 if case % 2 == 0 => members.push(topo.npus()),
                    _ => {}
                }
                let want = reference(&topo, &members);
                let before = spans.len();
                let got = spans.push_group(&topo, &members, &mut scratch);
                assert_eq!(got, want.is_some(), "{notation} {members:?}");
                let Some((sorted, axes, dims, wires, lanes)) = want else {
                    assert_eq!(spans.len(), before);
                    continue;
                };
                accepted += 1;
                let span = spans.span(before);
                assert_eq!(span.members, &sorted[..]);
                assert_eq!(span.axes, &axes[..]);
                assert_eq!(span.dims, &dims[..]);
                assert_eq!(span.wires, &wires[..]);
                assert_eq!(span.lanes, &lanes[..]);
                assert!(span.degraded.iter().all(Option::is_none));
            }
        }
        assert!(accepted > 400, "only {accepted} groups were sub-grids");
    }
}
