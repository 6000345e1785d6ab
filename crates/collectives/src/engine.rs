//! Chunked, pipelined execution of multi-rail hierarchical collectives.
//!
//! A collective payload is split into chunks; each chunk flows through its
//! per-dimension phases (e.g. for All-Reduce: Reduce-Scatter ascending the
//! dimension order, then All-Gather descending it). Every topology
//! dimension is a serial resource — while chunk *c* runs its Dim-2 phase,
//! chunk *c+1* can already occupy Dim 1 — so dimensions overlap in a
//! pipeline and total time approaches the busy time of the bottleneck
//! dimension plus a small ramp (§V-A.2, Table IV).

use astra_des::{DataSize, Time};
use astra_topology::Dimension;

use crate::scheduler::Orders;
use crate::{Algorithm, Collective, SchedulerPolicy};

/// Result of executing one collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveOutcome {
    /// When the collective completed (all chunks through all phases).
    pub finish: Time,
    /// Busy time added to each dimension by this collective.
    pub per_dim_busy: Vec<Time>,
    /// Bytes each participating NPU moved through each dimension.
    pub per_dim_traffic: Vec<DataSize>,
    /// When each dimension resource becomes free again (for chaining
    /// subsequent collectives on the same links).
    pub free_at: Vec<Time>,
}

/// Executor for chunked multi-rail hierarchical collectives.
///
/// # Example
///
/// ```
/// use astra_collectives::{Collective, CollectiveEngine, SchedulerPolicy};
/// use astra_des::DataSize;
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("SW(512)@600").unwrap();
/// let engine = CollectiveEngine::new(32, SchedulerPolicy::Baseline);
/// let out = engine.run(Collective::AllReduce, DataSize::from_gib(1), topo.dims());
/// // Bandwidth-optimal All-Reduce moves 2*(k-1)/k * 1GiB at 600 GB/s: ~3.57ms.
/// let ms = out.finish.as_ms_f64();
/// assert!((3.4..3.8).contains(&ms), "{ms}");
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CollectiveEngine {
    chunks: u64,
    scheduler: SchedulerPolicy,
}

impl CollectiveEngine {
    /// Creates an engine splitting collectives into `chunks` pipeline chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunks == 0`.
    pub fn new(chunks: u64, scheduler: SchedulerPolicy) -> Self {
        assert!(chunks >= 1, "need at least one chunk");
        CollectiveEngine { chunks, scheduler }
    }

    /// The configured chunk count.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// The configured scheduling policy.
    pub fn scheduler(&self) -> SchedulerPolicy {
        self.scheduler
    }

    /// Runs a collective starting at time zero on idle dimensions.
    pub fn run(
        &self,
        collective: Collective,
        size: DataSize,
        dims: &[Dimension],
    ) -> CollectiveOutcome {
        self.run_at(
            collective,
            size,
            dims,
            Time::ZERO,
            &vec![Time::ZERO; dims.len()],
        )
    }

    /// Runs a collective issued at `start`, on dimension resources that are
    /// each free from `available[d]` (allowing back-to-back collectives on
    /// the same links to contend realistically): [`CollectiveEngine::plan_into`]
    /// on the dimensions' backlog, then [`CollectivePlan::finish`].
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or `available.len() != dims.len()`.
    pub fn run_at(
        &self,
        collective: Collective,
        size: DataSize,
        dims: &[Dimension],
        start: Time,
        available: &[Time],
    ) -> CollectiveOutcome {
        assert!(!dims.is_empty(), "collective needs at least one dimension");
        assert_eq!(available.len(), dims.len(), "one availability per dim");
        // Existing backlog per dimension: how long each set of links is
        // still busy after this collective is issued.
        let backlog: Vec<Time> = available.iter().map(|&a| a.saturating_sub(start)).collect();
        let mut plan = CollectivePlan::default();
        self.plan_into(collective, size, dims, &backlog, &mut plan);
        let mut free_at = available.to_vec();
        let lanes: Vec<usize> = (0..dims.len()).collect();
        let finish = plan.finish(start, &mut free_at, &lanes);
        // A plan of nothing to move is empty.
        let mut per_dim_busy: Vec<Time> = plan.steps.iter().map(|&(busy, _)| busy).collect();
        let mut per_dim_traffic = plan.traffic;
        per_dim_busy.resize(dims.len(), Time::ZERO);
        per_dim_traffic.resize(dims.len(), DataSize::ZERO);
        CollectiveOutcome {
            finish,
            per_dim_busy,
            per_dim_traffic,
            free_at,
        }
    }

    /// Plans a collective of `size` over `dims` into `plan`, reusing its
    /// buffers. `backlog[d]` is how long dimension `d`'s links stay busy
    /// after the collective is issued. Only the Themis scheduler on two or
    /// more dimensions reads it ([`SchedulerPolicy::reads_backlog`]):
    /// every other plan holds for each issue of the same collective and
    /// size on the same dimensions.
    pub fn plan_into(
        &self,
        collective: Collective,
        size: DataSize,
        dims: &[Dimension],
        backlog: &[Time],
        plan: &mut CollectivePlan,
    ) {
        let CollectivePlan {
            steps,
            traffic,
            chain,
            orders,
        } = plan;
        steps.clear();
        traffic.clear();
        *chain = Time::ZERO;
        if size == DataSize::ZERO {
            return;
        }
        let chunk_size = size.div_ceil_parts(self.chunks);
        steps.resize(dims.len(), (Time::ZERO, Time::ZERO));
        traffic.resize(dims.len(), DataSize::ZERO);
        self.scheduler
            .plan_orders(collective, chunk_size, dims, self.chunks, backlog, orders);
        // Every chunk sharing an order runs the same phases: add them once
        // per chunk, and the order's chain once. Sums do not depend on the
        // order they are taken in, so each dimension's phases are added
        // where the order first visits it.
        for (order, count) in orders.chosen() {
            let mut this_chain = Time::ZERO;
            for (d, service, latency, moved) in order_phases(collective, chunk_size, dims, order) {
                for _ in 0..collective.phase_visits() {
                    steps[d].0 += service * count;
                    traffic[d] += moved * count;
                    this_chain += service + latency;
                }
            }
            *chain = (*chain).max(this_chain);
        }
        for (busy, tail) in steps.iter_mut() {
            *tail = pipeline_tail(*busy, self.chunks);
        }
    }
}

/// The order-free half of one collective's closed form (see
/// [`CollectiveEngine::plan_into`]): what it adds to each dimension's busy
/// time, and the longest chain of phases one chunk runs through (the
/// pipeline fill). [`CollectivePlan::finish`] is the other half.
///
/// # Example
///
/// ```
/// use astra_collectives::{Collective, CollectiveEngine, CollectivePlan, SchedulerPolicy};
/// use astra_des::{DataSize, Time};
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("R(4)@250_SW(8)@100").unwrap();
/// let engine = CollectiveEngine::new(16, SchedulerPolicy::Baseline);
/// let mut plan = CollectivePlan::default();
/// let size = DataSize::from_mib(64);
/// engine.plan_into(Collective::AllReduce, size, topo.dims(), &[], &mut plan);
/// // Two back-to-back All-Reduces on lanes 3 and 5 of a lane table.
/// let mut lanes = vec![Time::ZERO; 6];
/// let first = plan.finish(Time::ZERO, &mut lanes, &[3, 5]);
/// let second = plan.finish(Time::ZERO, &mut lanes, &[3, 5]);
/// assert_eq!(first, engine.run(Collective::AllReduce, size, topo.dims()).finish);
/// assert!(second > first);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CollectivePlan {
    /// Per dimension: the busy time the collective adds, and the part of
    /// it still to run once the first chunk is through (see
    /// [`pipeline_tail`]).
    steps: Vec<(Time, Time)>,
    /// Per dimension: bytes each participating NPU moves through it.
    traffic: Vec<DataSize>,
    /// The longest chunk's end-to-end chain of phases.
    chain: Time,
    /// The scheduler's planned orders, kept from plan to plan.
    orders: Orders,
}

impl CollectivePlan {
    /// What finishing the plan reads (see [`PlanSteps`]).
    pub fn steps(&self) -> PlanSteps<'_> {
        PlanSteps {
            chain: self.chain,
            steps: &self.steps,
        }
    }

    /// [`PlanSteps::finish`] of this plan.
    ///
    /// # Panics
    ///
    /// Panics if an `at` index is out of `lanes`' range.
    pub fn finish(&self, start: Time, lanes: &mut [Time], at: &[usize]) -> Time {
        self.steps().finish(start, lanes, at)
    }
}

/// The part of a [`CollectivePlan`] that finishing it reads, borrowed:
/// the pipeline fill and, per dimension, the busy time the collective
/// adds with the part of it still to run once the first chunk is
/// through. A caller that keeps many plans can keep only these.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanSteps<'a> {
    /// The longest chunk's end-to-end chain of phases.
    pub chain: Time,
    /// Per dimension: `(busy, tail)`.
    pub steps: &'a [(Time, Time)],
}

impl PlanSteps<'_> {
    /// Finishes the collective issued at `start` on the lanes
    /// `lanes[at[d]]`, each dimension's free time, and moves each of them
    /// to when the collective leaves it. Returns the completion time.
    ///
    /// Fluid pipeline model: dimensions stream chunks concurrently (links
    /// are bandwidth-shared, so a dimension is never idle while it has
    /// pending work). The makespan is the first chunk's end-to-end chain
    /// (pipeline fill) plus the bottleneck dimension's remaining service,
    /// where each dimension first drains any backlog left by earlier
    /// collectives on the same links. A plan of nothing to move finishes
    /// at `start` and leaves the lanes as they are.
    ///
    /// # Panics
    ///
    /// Panics if an `at` index is out of `lanes`' range.
    pub fn finish(&self, start: Time, lanes: &mut [Time], at: &[usize]) -> Time {
        let finish = self.finish_time(start, lanes, at);
        for (&(busy, _), &lane) in self.steps.iter().zip(at) {
            lanes[lane] = lanes[lane].max(start) + busy;
        }
        finish
    }

    /// The completion time [`PlanSteps::finish`] returns, leaving the
    /// lanes as they are.
    ///
    /// # Panics
    ///
    /// Panics if an `at` index is out of `lanes`' range.
    pub fn finish_time(&self, start: Time, lanes: &[Time], at: &[usize]) -> Time {
        let mut drain = Time::ZERO;
        for (&(_, tail), &lane) in self.steps.iter().zip(at) {
            drain = drain.max(lanes[lane].saturating_sub(start) + tail);
        }
        start + self.chain + drain
    }
}

/// The part of a dimension's `busy` time still to run once the first of
/// `chunks` pipeline chunks is through: `busy × (chunks − 1) / chunks`,
/// computed in `u128` so huge chunk counts cannot overflow. The result
/// never exceeds `busy`.
pub(crate) fn pipeline_tail(busy: Time, chunks: u64) -> Time {
    let tail = u128::from(busy.as_ps()) * u128::from(chunks - 1) / u128::from(chunks);
    Time::from_ps(tail as u64)
}

/// One pipeline phase of one chunk. Shared with the lowering subsystem
/// (`crate::lowering`), which expands phases into backend-executable chunk
/// ops using this exact arithmetic.
#[derive(Clone, Debug)]
pub(crate) struct Phase {
    pub(crate) dim: usize,
    /// Propagation latency: delays this chunk's next phase but does not
    /// occupy the dimension (it overlaps with the next chunk's transfer).
    pub(crate) latency: Time,
    pub(crate) traffic: DataSize,
}

/// The forward phases of one chunk visiting `dims` in `order`, as
/// `(dimension, service, latency, traffic)`: serialization occupies the
/// dimension, propagation only delays the chunk. Each phase but an
/// All-to-All's carries the data the previous ones left.
pub(crate) fn order_phases<'a>(
    collective: Collective,
    chunk_size: DataSize,
    dims: &'a [Dimension],
    order: &'a [usize],
) -> impl Iterator<Item = (usize, Time, Time, DataSize)> + 'a {
    let mut divisor = 1u64;
    order.iter().map(move |&d| {
        let (service, latency, traffic) =
            phase_cost_parts(collective, chunk_size, &dims[d], divisor);
        if collective != Collective::AllToAll {
            divisor = divisor.saturating_mul(dims[d].npus() as u64);
        }
        (d, service, latency, traffic)
    })
}

/// One dimension phase of one chunk as `(service, latency, traffic)`.
fn phase_cost_parts(
    collective: Collective,
    chunk_size: DataSize,
    dim: &Dimension,
    divisor: u64,
) -> (Time, Time, DataSize) {
    let k = dim.npus() as u64;
    let algorithm = Algorithm::for_block(dim.block());
    let data = match collective {
        // All-to-All keeps its full payload at every dimension.
        Collective::AllToAll => chunk_size,
        _ => chunk_size.div_ceil_parts(divisor),
    };
    let traffic = data.scale(k - 1, k);
    let steps = algorithm.steps(dim.npus());
    let latency = dim.link_latency() * steps * algorithm.hops_per_step();
    let service = dim.bandwidth().transfer_time(traffic);
    (service, latency, traffic)
}

/// Builds the phase sequence of one chunk for the given dimension visit
/// order (§II-B): Reduce-Scatter phases ascend the order, All-Gather phases
/// descend it; All-Reduce does both.
pub(crate) fn chunk_phases(
    collective: Collective,
    chunk_size: DataSize,
    dims: &[Dimension],
    order: &[usize],
) -> Vec<Phase> {
    let mut forward: Vec<Phase> = order_phases(collective, chunk_size, dims, order)
        .map(|(dim, _, latency, traffic)| Phase {
            dim,
            latency,
            traffic,
        })
        .collect();
    match collective {
        Collective::ReduceScatter | Collective::AllToAll => forward,
        // All-Gather grows data dimension by dimension: largest phase last,
        // i.e. the reverse of the scatter direction.
        Collective::AllGather => {
            forward.reverse();
            forward
        }
        Collective::AllReduce => {
            let mut phases = forward.clone();
            forward.reverse();
            phases.extend(forward);
            phases
        }
    }
}

/// Exact per-dimension traffic of an (unchunked) hierarchical collective in
/// the baseline ascending dimension order — the quantity reported per
/// dimension in the paper's Table IV.
///
/// # Example
///
/// ```
/// use astra_collectives::{dimension_traffic, Collective};
/// use astra_des::DataSize;
/// use astra_topology::Topology;
///
/// // Table IV, row `2_8_8_4`: 1 GB All-Reduce.
/// let topo = Topology::parse("R(2)_FC(8)_R(8)_SW(4)").unwrap();
/// let traffic = dimension_traffic(Collective::AllReduce, DataSize::from_gib(1), topo.dims());
/// let mib: Vec<f64> = traffic.iter().map(|t| t.as_mib_f64()).collect();
/// assert_eq!(mib, vec![1024.0, 896.0, 112.0, 12.0]);
/// ```
pub fn dimension_traffic(
    collective: Collective,
    size: DataSize,
    dims: &[Dimension],
) -> Vec<DataSize> {
    let visits = collective.phase_visits();
    let mut divisor = 1u64;
    let mut out = Vec::with_capacity(dims.len());
    for dim in dims {
        let k = dim.npus() as u64;
        let data = match collective {
            Collective::AllToAll => size,
            _ => size.div_ceil_parts(divisor),
        };
        out.push(data.scale(k - 1, k) * visits);
        if collective != Collective::AllToAll {
            divisor = divisor.saturating_mul(k);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::Topology;

    fn dims(notation: &str) -> Vec<Dimension> {
        Topology::parse(notation).unwrap().dims().to_vec()
    }

    fn base512_dims() -> Vec<Dimension> {
        dims("R(2)@1000_FC(8)@200_R(8)@100_SW(4)@50")
    }

    #[test]
    fn table4_message_sizes_base_system() {
        let t = dimension_traffic(
            Collective::AllReduce,
            DataSize::from_gib(1),
            &base512_dims(),
        );
        let mib: Vec<f64> = t.iter().map(|t| t.as_mib_f64()).collect();
        assert_eq!(mib, vec![1024.0, 896.0, 112.0, 12.0]);
    }

    #[test]
    fn table4_message_sizes_scaled_systems() {
        // 4_8_8_4 row: 1536, 448, 56, 6 MiB.
        let t = dimension_traffic(
            Collective::AllReduce,
            DataSize::from_gib(1),
            &dims("R(4)_FC(8)_R(8)_SW(4)"),
        );
        let mib: Vec<f64> = t.iter().map(|t| t.as_mib_f64()).collect();
        assert_eq!(mib, vec![1536.0, 448.0, 56.0, 6.0]);
        // 16_8_8_4 row: 1920, 112, 14, 1.5 MiB.
        let t = dimension_traffic(
            Collective::AllReduce,
            DataSize::from_gib(1),
            &dims("R(16)_FC(8)_R(8)_SW(4)"),
        );
        let mib: Vec<f64> = t.iter().map(|t| t.as_mib_f64()).collect();
        assert_eq!(mib, vec![1920.0, 112.0, 14.0, 1.5]);
    }

    #[test]
    fn scale_out_keeps_low_dims_and_grows_nic_dim() {
        // 2_8_8_32 row: 1024, 896, 112, 15.5 MiB.
        let t = dimension_traffic(
            Collective::AllReduce,
            DataSize::from_gib(1),
            &dims("R(2)_FC(8)_R(8)_SW(32)"),
        );
        let mib: Vec<f64> = t.iter().map(|t| t.as_mib_f64()).collect();
        assert_eq!(mib, vec![1024.0, 896.0, 112.0, 15.5]);
    }

    #[test]
    fn single_chunk_time_is_sum_of_phases() {
        let d = dims("R(4)@100");
        let engine = CollectiveEngine::new(1, SchedulerPolicy::Baseline);
        let out = engine.run(Collective::AllReduce, DataSize::from_mib(512), &d);
        // 2 phases of (k-1)/k * 512MiB at 100 GB/s + 2*(k-1) step latencies.
        let traffic = DataSize::from_mib(512).scale(3, 4);
        let serialization = d[0].bandwidth().transfer_time(traffic) * 2;
        let propagation = d[0].link_latency() * 3 * 2;
        assert_eq!(out.finish, serialization + propagation);
        // Links are occupied for serialization only; propagation overlaps.
        assert_eq!(out.per_dim_busy[0], serialization);
    }

    #[test]
    fn pipelining_bounds() {
        let d = base512_dims();
        let engine = CollectiveEngine::new(32, SchedulerPolicy::Baseline);
        let out = engine.run(Collective::AllReduce, DataSize::from_gib(1), &d);
        let max_busy = out.per_dim_busy.iter().copied().fold(Time::ZERO, Time::max);
        let sum_busy: Time = out.per_dim_busy.iter().copied().sum();
        assert!(out.finish >= max_busy, "cannot beat the bottleneck");
        assert!(out.finish <= sum_busy, "pipeline must overlap dimensions");
        // With 32 chunks the ramp is small: within 15% of the bottleneck.
        assert!(
            out.finish.as_us_f64() <= max_busy.as_us_f64() * 1.15,
            "finish {} vs bottleneck {}",
            out.finish,
            max_busy
        );
    }

    #[test]
    fn conventional_scale_out_is_flat_but_wafer_scaling_speeds_up() {
        // Reproduces the Table IV trend.
        let engine = CollectiveEngine::new(32, SchedulerPolicy::Baseline);
        let time = |notation: &str| {
            engine
                .run(
                    Collective::AllReduce,
                    DataSize::from_gib(1),
                    &dims(notation),
                )
                .finish
                .as_us_f64()
        };
        let base = time("R(2)@1000_FC(8)@200_R(8)@100_SW(4)@50");
        let conv4096 = time("R(2)@1000_FC(8)@200_R(8)@100_SW(32)@50");
        let wafer2048 = time("R(8)@1000_FC(8)@200_R(8)@100_SW(4)@50");
        let wafer4096 = time("R(16)@1000_FC(8)@200_R(8)@100_SW(4)@50");
        // Scale-out: identical collective time (the NIC dim is not the bottleneck).
        assert!((conv4096 / base - 1.0).abs() < 0.02, "{conv4096} vs {base}");
        // Wafer scale-up: large speedup (paper: up to 2.51x at 8_8_8_4)...
        assert!(base / wafer2048 > 2.0, "speedup {}", base / wafer2048);
        // ...then bounces back once the wafer dimension saturates.
        assert!(wafer4096 > wafer2048);
    }

    #[test]
    fn themis_never_slower_and_helps_multidim() {
        let d = dims("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50");
        let size = DataSize::from_gib(1);
        let base = CollectiveEngine::new(64, SchedulerPolicy::Baseline)
            .run(Collective::AllReduce, size, &d)
            .finish;
        let themis = CollectiveEngine::new(64, SchedulerPolicy::Themis)
            .run(Collective::AllReduce, size, &d)
            .finish;
        assert!(themis <= base);
        // Multi-dimensional heterogeneous system: substantial gain.
        assert!(
            themis.as_us_f64() < base.as_us_f64() * 0.9,
            "themis {themis} vs baseline {base}"
        );
    }

    #[test]
    fn themis_conv4d_matches_wafer_of_equal_aggregate_bandwidth() {
        // §V-A.1: "conventional systems with Themis scheduler show identical
        // results compared to wafer-scale systems with equivalent BW/NPU".
        let conv = CollectiveEngine::new(64, SchedulerPolicy::Themis)
            .run(
                Collective::AllReduce,
                DataSize::from_gib(1),
                &dims("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50"),
            )
            .finish
            .as_us_f64();
        let wafer = CollectiveEngine::new(64, SchedulerPolicy::Baseline)
            .run(
                Collective::AllReduce,
                DataSize::from_gib(1),
                &dims("SW(512)@600"),
            )
            .finish
            .as_us_f64();
        let ratio = conv / wafer;
        assert!(
            (0.9..1.25).contains(&ratio),
            "conv {conv} us vs wafer {wafer} us (ratio {ratio})"
        );
    }

    #[test]
    fn all_gather_runs_largest_phase_last() {
        let d = dims("R(4)@100_SW(2)@100");
        let out = CollectiveEngine::new(1, SchedulerPolicy::Baseline).run(
            Collective::AllGather,
            DataSize::from_mib(64),
            &d,
        );
        // Dim1 carries (3/4)*64 MiB, dim2 carries (1/2)*64/4 = 8 MiB.
        assert_eq!(out.per_dim_traffic[0], DataSize::from_mib(48));
        assert_eq!(out.per_dim_traffic[1], DataSize::from_mib(8));
    }

    #[test]
    fn all_to_all_traffic_does_not_shrink() {
        let d = dims("R(4)@100_SW(4)@100");
        let traffic = dimension_traffic(Collective::AllToAll, DataSize::from_mib(64), &d);
        assert_eq!(traffic[0], DataSize::from_mib(48));
        assert_eq!(traffic[1], DataSize::from_mib(48));
    }

    #[test]
    fn chained_collectives_contend_on_dimensions() {
        let d = dims("R(4)@100");
        let engine = CollectiveEngine::new(4, SchedulerPolicy::Baseline);
        let first = engine.run(Collective::AllReduce, DataSize::from_mib(256), &d);
        // Second collective issued at t=0 but links are busy until `free_at`.
        let second = engine.run_at(
            Collective::AllReduce,
            DataSize::from_mib(256),
            &d,
            Time::ZERO,
            &first.free_at,
        );
        assert!(second.finish.as_us_f64() >= first.finish.as_us_f64() * 1.9);
    }

    #[test]
    fn zero_size_collective_is_instant() {
        let d = dims("R(4)@100");
        let out = CollectiveEngine::new(8, SchedulerPolicy::Themis).run(
            Collective::AllReduce,
            DataSize::ZERO,
            &d,
        );
        assert_eq!(out.finish, Time::ZERO);
        assert_eq!(out.per_dim_traffic[0], DataSize::ZERO);
    }

    #[test]
    fn reduce_scatter_is_half_of_all_reduce() {
        let d = dims("SW(16)@100");
        let e = CollectiveEngine::new(1, SchedulerPolicy::Baseline);
        let rs = e.run(Collective::ReduceScatter, DataSize::from_gib(1), &d);
        let ar = e.run(Collective::AllReduce, DataSize::from_gib(1), &d);
        let ratio = ar.finish.as_us_f64() / rs.finish.as_us_f64();
        assert!((ratio - 2.0).abs() < 0.01, "{ratio}");
    }
}
