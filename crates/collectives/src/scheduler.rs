//! Collective scheduling policies (§V-A.1).
//!
//! A hierarchical collective must pick, per chunk, the order in which it
//! visits the topology dimensions. The *baseline* policy always uses the
//! natural ascending order (Dim 1 → N), which loads the first dimension
//! with the largest phase and can leave other dimensions idle. The
//! *Themis*-style policy (Rashidi et al., ISCA 2022) is a greedy scheduler
//! that assigns each chunk the dimension order minimizing the projected
//! maximum per-dimension load, approaching full utilization of the
//! aggregate per-NPU bandwidth on multi-dimensional topologies.

use astra_des::Time;
use astra_topology::Dimension;
use serde::{Deserialize, Serialize};

use crate::engine::{phase_chain_cost, phase_service, pipeline_tail};
use crate::Collective;

/// Which collective scheduling policy to use.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Fixed ascending dimension order for every chunk (original ASTRA-sim
    /// multi-rail scheduling).
    #[default]
    Baseline,
    /// Greedy bandwidth-aware load balancing across dimensions (Themis).
    Themis,
}

impl SchedulerPolicy {
    /// Plans the dimension visit orders for a collective of `chunks`
    /// chunks of `chunk_size` each over `dims`, as `(order, chunk count)`
    /// pairs whose counts sum to `chunks`. Chunks sharing an order are
    /// interchangeable (the pipeline model only sums their phases and
    /// takes the longest chain), so one pair stands for all of them.
    /// `initial_loads` is the pre-existing backlog on each dimension (time
    /// until its links drain), which the bandwidth-aware policy balances
    /// against.
    pub(crate) fn plan_orders(
        &self,
        collective: Collective,
        chunk_size: astra_des::DataSize,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
    ) -> Vec<(Vec<usize>, u64)> {
        let identity: Vec<usize> = (0..dims.len()).collect();
        match self {
            SchedulerPolicy::Baseline => vec![(identity, chunks)],
            SchedulerPolicy::Themis => {
                if dims.len() == 1 {
                    // A 1-D topology has nothing to balance (the paper's
                    // W-1D systems show no gain from smart scheduling).
                    return vec![(identity, chunks)];
                }
                plan_themis(collective, chunk_size, dims, chunks, initial_loads)
            }
        }
    }
}

/// Greedy min-makespan planning: for every chunk, evaluate candidate
/// dimension orders and commit the one that minimizes the resulting maximum
/// per-dimension accumulated load. Returns each chosen candidate with the
/// number of chunks that chose it.
fn plan_themis(
    collective: Collective,
    chunk_size: astra_des::DataSize,
    dims: &[Dimension],
    chunks: u64,
    initial_loads: &[Time],
) -> Vec<(Vec<usize>, u64)> {
    let candidates = candidate_orders(dims.len());
    // Pre-compute the per-dimension cost vector of each candidate order.
    let costs: Vec<Vec<(usize, Time)>> = candidates
        .iter()
        .map(|order| order_costs(collective, chunk_size, dims, order))
        .collect();

    let mut loads = initial_loads.to_vec();
    let mut counts = vec![0u64; candidates.len()];
    for _ in 0..chunks {
        let mut best: Option<(Time, usize)> = None;
        for (ci, cost) in costs.iter().enumerate() {
            let mut projected = loads.clone();
            for &(d, t) in cost {
                projected[d] += t;
            }
            let makespan = projected.iter().copied().fold(Time::ZERO, Time::max);
            if best.is_none_or(|(m, _)| makespan < m) {
                best = Some((makespan, ci));
            }
        }
        // astra-lint: allow(panic, the candidate set is a non-empty permutation pool by construction)
        let (_, ci) = best.expect("at least one candidate order");
        for &(d, t) in &costs[ci] {
            loads[d] += t;
        }
        counts[ci] += 1;
    }
    let greedy: Vec<(Vec<usize>, u64)> = candidates
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect();

    // Guard: for latency-dominated (small) collectives, diversified orders
    // lengthen the pipeline-fill chain more than balancing saves. Estimate
    // both plans under the engine's fluid pipeline model and keep the
    // better one, so Themis is never worse than the baseline order.
    let identity: Vec<usize> = (0..dims.len()).collect();
    let baseline = vec![(identity, chunks)];
    if estimate_finish(collective, chunk_size, dims, &baseline, initial_loads)
        < estimate_finish(collective, chunk_size, dims, &greedy, initial_loads)
    {
        baseline
    } else {
        greedy
    }
}

/// Mirror of the engine's fluid pipeline model: first chunk's chain plus
/// the bottleneck dimension's backlog and remaining service.
fn estimate_finish(
    collective: Collective,
    chunk_size: astra_des::DataSize,
    dims: &[Dimension],
    plan: &[(Vec<usize>, u64)],
    initial_loads: &[Time],
) -> Time {
    let mut loads = initial_loads.to_vec();
    let mut chain = Time::ZERO;
    for (order, count) in plan {
        let mut divisor = 1u64;
        let visits = collective.phase_visits();
        let mut this_chain = Time::ZERO;
        for &d in order {
            loads[d] += phase_service(collective, chunk_size, &dims[d], divisor) * visits * *count;
            this_chain += phase_chain_cost(collective, chunk_size, &dims[d], divisor) * visits;
            if collective != Collective::AllToAll {
                divisor = divisor.saturating_mul(dims[d].npus() as u64);
            }
        }
        chain = chain.max(this_chain);
    }
    let chunks = plan.iter().map(|&(_, n)| n).sum();
    chain
        + loads
            .iter()
            .map(|&l| pipeline_tail(l, chunks))
            .fold(Time::ZERO, Time::max)
}

/// Per-dimension occupancy cost of running one chunk with the given visit
/// order. Only link occupancy (serialization) counts: propagation latency
/// does not hold the dimension and must not skew the balance.
fn order_costs(
    collective: Collective,
    chunk_size: astra_des::DataSize,
    dims: &[Dimension],
    order: &[usize],
) -> Vec<(usize, Time)> {
    let mut divisor = 1u64;
    let visits = collective.phase_visits();
    let mut out = Vec::with_capacity(order.len());
    for &d in order {
        let service = phase_service(collective, chunk_size, &dims[d], divisor);
        out.push((d, service * visits));
        if collective != Collective::AllToAll {
            divisor = divisor.saturating_mul(dims[d].npus() as u64);
        }
    }
    out
}

/// All permutations for small dimension counts; a bandwidth-descending
/// greedy subset (rotations of the bandwidth-sorted order) beyond that.
fn candidate_orders(n: usize) -> Vec<Vec<usize>> {
    if n <= 5 {
        permutations(n)
    } else {
        let base: Vec<usize> = (0..n).collect();
        (0..n)
            .map(|r| {
                let mut v = base.clone();
                v.rotate_left(r);
                v
            })
            .collect()
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    permute(&mut items, 0, &mut out);
    out
}

fn permute(items: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
    if at == items.len() {
        out.push(items.clone());
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, out);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_des::DataSize;
    use astra_topology::Topology;

    #[test]
    fn baseline_is_identity_for_all_chunks() {
        let topo = Topology::parse("R(2)_FC(8)_SW(4)").unwrap();
        let plan = SchedulerPolicy::Baseline.plan_orders(
            Collective::AllReduce,
            DataSize::from_mib(32),
            topo.dims(),
            4,
            &[Time::ZERO; 3],
        );
        assert_eq!(plan, vec![(vec![0, 1, 2], 4)]);
    }

    #[test]
    fn themis_single_dim_is_identity() {
        let topo = Topology::parse("SW(512)@500").unwrap();
        let plan = SchedulerPolicy::Themis.plan_orders(
            Collective::AllReduce,
            DataSize::from_mib(32),
            topo.dims(),
            8,
            &[Time::ZERO],
        );
        assert_eq!(plan, vec![(vec![0], 8)]);
    }

    #[test]
    fn themis_produces_valid_permutations() {
        let topo = Topology::parse("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50").unwrap();
        let plan = SchedulerPolicy::Themis.plan_orders(
            Collective::AllReduce,
            DataSize::from_mib(32),
            topo.dims(),
            32,
            &[Time::ZERO; 4],
        );
        assert_eq!(plan.iter().map(|&(_, n)| n).sum::<u64>(), 32);
        for (order, count) in &plan {
            assert!(*count > 0, "empty entry for {order:?}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "not a permutation: {order:?}");
        }
        // Load balancing requires order diversity on a heterogeneous system.
        let distinct: std::collections::BTreeSet<_> = plan.iter().map(|(o, _)| o).collect();
        assert_eq!(distinct.len(), plan.len(), "orders are listed once each");
        assert!(distinct.len() > 1, "Themis never varied the order");
    }

    #[test]
    fn permutations_complete() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(candidate_orders(4).len(), 24);
        // Fallback keeps candidate count linear for many dimensions.
        assert_eq!(candidate_orders(7).len(), 7);
    }
}
