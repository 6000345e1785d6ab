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

/// What [`prepare`] hands the engine.
#[derive(Clone)]
pub(crate) struct Setup {
    /// Per trace group: its span.
    pub(crate) spans: Vec<GroupSpan>,
    /// One row per schedule event, seeded with the links it touched.
    pub(crate) impacts: Vec<FaultImpact>,
    /// The fabric with the schedule applied, `None` without fabric faults.
    pub(crate) fabric: Option<FaultedGraph>,
}

#[derive(Clone)]
pub(crate) struct GroupSpan {
    /// The group's members in ascending order: a member's rank is its
    /// index here, found by binary search. `TraceBuilder` groups are
    /// already sorted; `from_json` groups may not be. In a quotient run
    /// these are the member blocks (see [`crate::orbits::Orbits`]).
    pub(crate) members: Vec<NpuId>,
    /// Per spanned dimension: the global dimension index, the effective
    /// sub-dimension, and the representative `(src, dst)` wire endpoints
    /// used by backend-executed chunk ops — the two lowest-coordinate
    /// members along the dimension through the representative, so each
    /// dimension's ops serialize on a distinct source NIC lane while
    /// different dimensions (and sibling groups) stream in parallel.
    pub(crate) dims: Vec<(usize, Dimension, (NpuId, NpuId))>,
    /// Aligned with `dims`: the lane each spanned dimension contends on.
    /// A full run keys lanes by `(first member as listed, dimension)` at
    /// `rep * num_dims + dim`, so back-to-back collectives of groups that
    /// share both contend; a quotient run names lane blocks.
    pub(crate) lanes: Vec<usize>,
    /// Aligned with `dims`: when a fault schedule degrades the spanned
    /// dimension, holds the pristine dimension plus the index of the
    /// schedule's first event touching it, for per-fault attribution of
    /// the collective slowdown. `None` entries mean the dimension is
    /// unaffected.
    pub(crate) degraded: Vec<Option<(Dimension, usize)>>,
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

    let mut spans = Vec::with_capacity(trace.groups().len());
    for (gi, members) in trace.groups().iter().enumerate() {
        let mut span = group_span(topo, members).ok_or(SimError::UnalignedGroup { group: gi })?;
        if let Some(fabric) = &fabric {
            degrade_span(&mut span, fabric);
        }
        spans.push(span);
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

/// Folds a fault schedule's per-dimension degradation into a group span:
/// the spanned sub-dimension's bandwidth is scaled by the dimension's
/// live-link fraction and worst degradation factor, its latency by the
/// worst latency multiplier. The pristine dimension is kept alongside for
/// per-fault attribution of the resulting collective slowdown.
fn degrade_span(span: &mut GroupSpan, fabric: &FaultedGraph) {
    for (slot, (dim_idx, dim, _)) in span.degraded.iter_mut().zip(span.dims.iter_mut()) {
        let Some(degrade) = fabric.dim_degrade(*dim_idx) else {
            continue;
        };
        let pristine = *dim;
        *dim = Dimension::new(dim.block())
            .with_bandwidth(degrade.scale_bandwidth(dim.bandwidth()))
            .with_link_latency(degrade.scale_latency(dim.link_latency()));
        *slot = Some((pristine, degrade.first_event));
    }
}

/// Determines which topology dimensions a group spans. Members must be
/// distinct NPUs of the topology forming a sub-grid: the product of
/// per-dimension distinct coordinate counts must equal the group size.
pub(crate) fn group_span(topo: &Topology, members: &[NpuId]) -> Option<GroupSpan> {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != members.len() || sorted.last().is_none_or(|&m| m >= topo.npus()) {
        return None;
    }
    let rep = members[0];
    let mut dims = Vec::new();
    let mut lanes = Vec::new();
    let mut product = 1usize;
    let mut coords = Vec::with_capacity(members.len());
    for (dim_idx, base) in topo.dims().iter().enumerate() {
        let (stride, k) = (topo.dim_stride(dim_idx), base.npus());
        let coord = |m: NpuId| m / stride % k;
        coords.clear();
        coords.extend(members.iter().map(|&m| coord(m)));
        coords.sort_unstable();
        coords.dedup();
        let distinct = coords.len();
        product *= distinct;
        if distinct > 1 {
            let block = match base.block() {
                BuildingBlock::Ring(_) => BuildingBlock::Ring(distinct),
                BuildingBlock::FullyConnected(_) => BuildingBlock::FullyConnected(distinct),
                BuildingBlock::Switch(_) => BuildingBlock::Switch(distinct),
            };
            // Representative wire endpoints for backend-executed chunk
            // ops: the two lowest-coordinate members on the line through
            // the representative along this dimension (adjacent for
            // contiguous groups, so the wire covers exactly the
            // algorithm's per-step hop). A member is on that line when it
            // differs from the representative in this coordinate only.
            let line = rep - coord(rep) * stride;
            let mut lowest: [Option<(usize, NpuId)>; 2] = [None, None];
            for &m in members {
                if m - coord(m) * stride != line {
                    continue;
                }
                let point = (coord(m), m);
                if lowest[0].is_none_or(|low| point < low) {
                    lowest = [Some(point), lowest[0]];
                } else if lowest[1].is_none_or(|low| point < low) {
                    lowest[1] = Some(point);
                }
            }
            let [Some((_, first)), Some((_, second))] = lowest else {
                // The members cannot form a sub-grid.
                return None;
            };
            dims.push((
                dim_idx,
                Dimension::new(block)
                    .with_bandwidth(base.bandwidth())
                    .with_link_latency(base.link_latency()),
                (second, first),
            ));
            lanes.push(rep * topo.num_dims() + dim_idx);
        }
    }
    let degraded = vec![None; dims.len()];
    (product == members.len()).then_some(GroupSpan {
        members: sorted,
        dims,
        lanes,
        degraded,
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
