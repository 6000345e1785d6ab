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

use astra_des::{DataSize, Time};
use astra_topology::Dimension;
use serde::{Deserialize, Serialize};

use crate::engine::{order_phases, pipeline_tail};
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
    /// chunks of `chunk_size` each over `dims` into `out` (see
    /// [`Orders::chosen`]). `initial_loads` is the pre-existing backlog on
    /// each dimension (time until its links drain), which the
    /// bandwidth-aware policy balances against.
    pub(crate) fn plan_orders(
        &self,
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
        out: &mut Orders,
    ) {
        if self.reads_backlog(dims.len()) {
            out.themis(collective, chunk_size, dims, chunks, initial_loads);
        } else {
            out.dims = dims.len();
            out.orders.clear();
            out.orders.extend(0..dims.len());
            out.counts.clear();
            out.counts.push(chunks);
        }
    }

    /// Whether a plan over `dims` dimensions reads their backlog: only
    /// Themis balances, and a 1-D topology has nothing to balance (the
    /// paper's W-1D systems show no gain from smart scheduling).
    pub fn reads_backlog(&self, dims: usize) -> bool {
        match self {
            SchedulerPolicy::Baseline => false,
            SchedulerPolicy::Themis => dims > 1,
        }
    }
}

/// Planned dimension orders, kept between plans so that planning
/// allocates nothing once its buffers have grown. Candidate `c` visits
/// the dimensions in `orders[c * n..(c + 1) * n]`; `costs` is aligned
/// with `orders` and holds the occupancy each position adds per chunk.
#[derive(Clone, Debug, Default)]
pub(crate) struct Orders {
    /// Dimension count of the last plan.
    dims: usize,
    /// The candidates, flattened.
    orders: Vec<usize>,
    costs: Vec<Time>,
    /// Per candidate: one chunk's chain of phases (service + propagation).
    chains: Vec<Time>,
    /// Per dimension: the running load.
    loads: Vec<Time>,
    /// Per candidate: the chunks the last plan gave it.
    counts: Vec<u64>,
}

impl Orders {
    /// Greedy min-makespan planning (Themis): for every chunk, evaluate
    /// candidate dimension orders and commit the one that minimizes the
    /// resulting maximum per-dimension accumulated load.
    fn themis(
        &mut self,
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
    ) {
        let n = dims.len();
        self.dims = n;
        self.orders.clear();
        candidate_orders(n, &mut self.orders);
        // Per-position occupancy cost and per-candidate chain. Only link
        // occupancy (serialization) is balanced: propagation latency does
        // not hold the dimension and must not skew the balance.
        self.costs.clear();
        self.chains.clear();
        let visits = collective.phase_visits();
        for order in self.orders.chunks_exact(n) {
            let mut chain = Time::ZERO;
            for (_, service, latency, _) in order_phases(collective, chunk_size, dims, order) {
                self.costs.push(service * visits);
                chain += (service + latency) * visits;
            }
            self.chains.push(chain);
        }

        self.loads.clear();
        self.loads.extend_from_slice(initial_loads);
        self.counts.clear();
        self.counts.resize(self.chains.len(), 0);
        for _ in 0..chunks {
            // Every candidate is a permutation, so its projected makespan
            // is the largest of each dimension's load plus its cost there.
            let mut best: Option<(Time, usize)> = None;
            for (ci, (order, cost)) in self
                .orders
                .chunks_exact(n)
                .zip(self.costs.chunks_exact(n))
                .enumerate()
            {
                let makespan = order
                    .iter()
                    .zip(cost)
                    .map(|(&d, &t)| self.loads[d] + t)
                    .fold(Time::ZERO, Time::max);
                if best.is_none_or(|(m, _)| makespan < m) {
                    best = Some((makespan, ci));
                }
            }
            // astra-lint: allow(panic, the candidate set is a non-empty permutation pool by construction)
            let (_, ci) = best.expect("at least one candidate order");
            let span = ci * n..(ci + 1) * n;
            for (&d, &t) in self.orders[span.clone()].iter().zip(&self.costs[span]) {
                self.loads[d] += t;
            }
            self.counts[ci] += 1;
        }

        // Guard: for latency-dominated (small) collectives, diversified
        // orders lengthen the pipeline-fill chain more than balancing
        // saves. Estimate both plans under the engine's fluid pipeline
        // model and keep the better one, so Themis is never worse than
        // the baseline order (candidate 0, the identity).
        let tail = |l: Time| pipeline_tail(l, chunks);
        let baseline = self.chains[0]
            + initial_loads
                .iter()
                .zip(&self.costs[..n])
                .map(|(&l, &t)| tail(l + t * chunks))
                .fold(Time::ZERO, Time::max);
        let greedy = self
            .chains
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &k)| k > 0)
            .map(|(&c, _)| c)
            .fold(Time::ZERO, Time::max)
            + self
                .loads
                .iter()
                .map(|&l| tail(l))
                .fold(Time::ZERO, Time::max);
        if baseline < greedy {
            self.counts.fill(0);
            self.counts[0] = chunks;
        }
    }

    /// The orders of the last plan with the chunks each runs, in
    /// candidate order. Chunks sharing an order are interchangeable (the
    /// pipeline model only sums their phases and takes the longest
    /// chain), so one entry stands for all of them.
    pub(crate) fn chosen(&self) -> impl Iterator<Item = (&[usize], u64)> {
        self.orders
            .chunks_exact(self.dims.max(1))
            .zip(self.counts.iter().copied())
            .filter(|&(_, k)| k > 0)
    }
}

/// Appends the candidate orders of `n` dimensions to `out`, identity
/// first: all permutations for small dimension counts, the rotations of
/// the natural order beyond that.
fn candidate_orders(n: usize, out: &mut Vec<usize>) {
    if n <= 5 {
        let mut items = [0, 1, 2, 3, 4];
        permute(&mut items[..n], 0, out);
    } else {
        for r in 0..n {
            out.extend((0..n).map(|i| (i + r) % n));
        }
    }
}

fn permute(items: &mut [usize], at: usize, out: &mut Vec<usize>) {
    if at == items.len() {
        out.extend_from_slice(items);
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
    use astra_topology::Topology;

    /// The planned orders with their chunk counts.
    fn plan_orders(
        policy: SchedulerPolicy,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
    ) -> Vec<(Vec<usize>, u64)> {
        let mut out = Orders::default();
        let size = DataSize::from_mib(32);
        policy.plan_orders(
            Collective::AllReduce,
            size,
            dims,
            chunks,
            initial_loads,
            &mut out,
        );
        out.chosen().map(|(o, n)| (o.to_vec(), n)).collect()
    }

    #[test]
    fn baseline_is_identity_for_all_chunks() {
        let topo = Topology::parse("R(2)_FC(8)_SW(4)").unwrap();
        let plan = plan_orders(SchedulerPolicy::Baseline, topo.dims(), 4, &[Time::ZERO; 3]);
        assert_eq!(plan, vec![(vec![0, 1, 2], 4)]);
    }

    #[test]
    fn themis_single_dim_is_identity() {
        let topo = Topology::parse("SW(512)@500").unwrap();
        let plan = plan_orders(SchedulerPolicy::Themis, topo.dims(), 8, &[Time::ZERO]);
        assert_eq!(plan, vec![(vec![0], 8)]);
    }

    #[test]
    fn themis_produces_valid_permutations() {
        let topo = Topology::parse("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50").unwrap();
        let plan = plan_orders(SchedulerPolicy::Themis, topo.dims(), 32, &[Time::ZERO; 4]);
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
        let count = |n: usize| {
            let mut out = Vec::new();
            candidate_orders(n, &mut out);
            out.len() / n
        };
        assert_eq!(count(3), 6);
        assert_eq!(count(4), 24);
        // Fallback keeps candidate count linear for many dimensions.
        assert_eq!(count(7), 7);
        // The identity comes first: the guard compares against it.
        let mut out = Vec::new();
        candidate_orders(4, &mut out);
        assert_eq!(out[..4], [0, 1, 2, 3]);
    }
}
