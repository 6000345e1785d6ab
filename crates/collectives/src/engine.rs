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
    /// the same links to contend realistically).
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
        if size == DataSize::ZERO {
            return CollectiveOutcome {
                finish: start,
                per_dim_busy: vec![Time::ZERO; dims.len()],
                per_dim_traffic: vec![DataSize::ZERO; dims.len()],
                free_at: available.to_vec(),
            };
        }

        let chunk_size = size.div_ceil_parts(self.chunks);
        // Existing backlog per dimension: how long each set of links is
        // still busy after this collective is issued.
        let initial_loads: Vec<Time> = available.iter().map(|&a| a.saturating_sub(start)).collect();
        let orders =
            self.scheduler
                .plan_orders(collective, chunk_size, dims, self.chunks, &initial_loads);

        // Every chunk sharing an order runs the same phase sequence: add
        // its phases once per chunk, and its chain once.
        let mut traffic = vec![DataSize::ZERO; dims.len()];
        let mut busy = vec![Time::ZERO; dims.len()];
        let mut chain = Time::ZERO;
        for (order, count) in &orders {
            let mut this_chain = Time::ZERO;
            for phase in chunk_phases(collective, chunk_size, dims, order) {
                busy[phase.dim] += phase.service * *count;
                traffic[phase.dim] += phase.traffic * *count;
                this_chain += phase.service + phase.latency;
            }
            chain = chain.max(this_chain);
        }

        // Fluid pipeline model: dimensions stream chunks concurrently
        // (links are bandwidth-shared, so a dimension is never idle while
        // it has pending work). The makespan is the first chunk's
        // end-to-end chain (pipeline fill) plus the bottleneck dimension's
        // remaining service, where each dimension first drains any backlog
        // left by earlier collectives on the same links.
        let finish = start
            + chain
            + dims
                .iter()
                .enumerate()
                .map(|(d, _)| {
                    let backlog = available[d].saturating_sub(start);
                    backlog + pipeline_tail(busy[d], self.chunks)
                })
                .fold(Time::ZERO, Time::max);
        let free_at: Vec<Time> = (0..dims.len())
            .map(|d| available[d].max(start) + busy[d])
            .collect();

        CollectiveOutcome {
            finish,
            per_dim_busy: busy,
            per_dim_traffic: traffic,
            free_at,
        }
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
    /// Link occupancy (serialization) time: `traffic / dim bandwidth`.
    pub(crate) service: Time,
    /// Propagation latency: delays this chunk's next phase but does not
    /// occupy the dimension (it overlaps with the next chunk's transfer).
    pub(crate) latency: Time,
    pub(crate) traffic: DataSize,
}

/// Link-occupancy (serialization-only) time of one dimension phase — what
/// the bandwidth-aware scheduler balances.
pub(crate) fn phase_service(
    collective: Collective,
    chunk_size: DataSize,
    dim: &Dimension,
    divisor: u64,
) -> Time {
    phase_cost_parts(collective, chunk_size, dim, divisor).0
}

/// Chain (service + propagation) contribution of one dimension phase to a
/// chunk's end-to-end path — what pipeline fill costs.
pub(crate) fn phase_chain_cost(
    collective: Collective,
    chunk_size: DataSize,
    dim: &Dimension,
    divisor: u64,
) -> Time {
    let (service, latency, _) = phase_cost_parts(collective, chunk_size, dim, divisor);
    service + latency
}

/// Like [`phase_cost`] but keeps serialization and propagation separate:
/// serialization occupies the dimension, propagation only delays the chunk.
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
    let mut forward = Vec::with_capacity(order.len());
    let mut divisor = 1u64;
    for &d in order {
        let (service, latency, traffic) =
            phase_cost_parts(collective, chunk_size, &dims[d], divisor);
        forward.push(Phase {
            dim: d,
            service,
            latency,
            traffic,
        });
        if collective != Collective::AllToAll {
            divisor = divisor.saturating_mul(dims[d].npus() as u64);
        }
    }
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
