//! Lockstep packet-level execution of multi-rail hierarchical collectives.
//!
//! This is the ground-truth executor: it issues every individual message of
//! the Ring / Direct / Halving-Doubling algorithms (Table I) onto the
//! [`PacketNetwork`] and measures the true completion time, including
//! per-packet serialization, per-hop latency and any queueing.

use astra_collectives::Collective;
use astra_des::{DataSize, Time};
use astra_network::NetworkBackend;
use astra_topology::{BuildingBlock, NpuId, Topology};

use crate::{PacketNetwork, PacketSimConfig};

/// Result of a packet-level collective run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PacketRunReport {
    /// Simulated completion time of the collective.
    pub finish: Time,
    /// Packet-hop events processed — the simulation-cost metric compared
    /// against the analytical backend in the §IV-C speedup experiment.
    pub events: u64,
    /// Number of point-to-point messages issued.
    pub messages: u64,
}

/// Runs a hierarchical All-Reduce (Reduce-Scatter ascending the dimensions,
/// All-Gather descending) at packet granularity and reports its completion
/// time (paper Fig. 4 ground truth / §IV-C slow backend).
///
/// Phases run in lockstep: a dimension phase step begins once the previous
/// step's messages have all arrived, mirroring the synchronous structure of
/// the multi-rail algorithms.
///
/// # Example
///
/// ```
/// use astra_des::DataSize;
/// use astra_garnet::{collective_time, PacketSimConfig};
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("R(4)@150").unwrap();
/// let report = collective_time(&topo, DataSize::from_mib(4), &PacketSimConfig::fast());
/// assert!(report.messages > 0);
/// ```
pub fn collective_time(
    topo: &Topology,
    size: DataSize,
    config: &PacketSimConfig,
) -> PacketRunReport {
    collective_time_for(topo, Collective::AllReduce, size, config)
}

/// Packet-level execution of any of the four collective patterns:
/// Reduce-Scatter ascends the dimensions, All-Gather descends them,
/// All-Reduce does both, and All-to-All runs a direct personalized
/// exchange per dimension (intra-group messages routed over the physical
/// links, so ring detours and switch traversals pay their real cost).
pub fn collective_time_for(
    topo: &Topology,
    collective: Collective,
    size: DataSize,
    config: &PacketSimConfig,
) -> PacketRunReport {
    collective_time_on(PacketNetwork::new(topo, *config), topo, collective, size)
}

/// [`collective_time_for`] on a caller-built network over `topo` (for
/// instance the [`PacketNetwork::global_heap_reference`] oracle), with the
/// network's own configuration.
pub fn collective_time_on(
    mut net: PacketNetwork,
    topo: &Topology,
    collective: Collective,
    size: DataSize,
) -> PacketRunReport {
    let mut now = net.config().collective_overhead;

    // (dim, divisor before the phase): data shrinks by each visited
    // dimension's size for the scatter/gather family.
    let num_dims = topo.num_dims();
    let mut phases: Vec<(usize, u64)> = Vec::new();
    let mut divisor = 1u64;
    for d in 0..num_dims {
        phases.push((d, divisor));
        divisor *= topo.dims()[d].npus() as u64;
    }
    let descending: Vec<(usize, u64)> = phases.iter().rev().copied().collect();

    let plan: Vec<(usize, u64, bool)> = match collective {
        Collective::ReduceScatter => phases.iter().map(|&(d, v)| (d, v, false)).collect(),
        Collective::AllGather => descending.iter().map(|&(d, v)| (d, v, false)).collect(),
        Collective::AllReduce => phases
            .iter()
            .chain(descending.iter())
            .map(|&(d, v)| (d, v, false))
            .collect(),
        Collective::AllToAll => phases.iter().map(|&(d, _)| (d, 1, true)).collect(),
    };

    for (dim, div, a2a) in plan {
        let data = size.div_ceil_parts(div);
        now = if a2a {
            run_a2a_phase(&mut net, topo, dim, data, now)
        } else {
            run_phase(&mut net, topo, dim, data, now)
        };
    }

    PacketRunReport {
        finish: now,
        events: net.events_processed(),
        messages: net.stats().messages,
    }
}

/// One dimension of a hierarchical All-to-All: every group member sends a
/// distinct `data / k` shard to each peer in a single direct step.
fn run_a2a_phase(
    net: &mut PacketNetwork,
    topo: &Topology,
    dim: usize,
    data: DataSize,
    start: Time,
) -> Time {
    let k = topo.dims()[dim].npus();
    let shard = data.div_ceil_parts(k as u64);
    let mut sends = Vec::new();
    for group in enumerate_groups(topo, dim) {
        for i in 0..k {
            // Stagger destinations by rank offset (i -> i+1, i+2, ...): at
            // any instant every receiver drains from a different sender,
            // avoiding synchronized incast on shared switch down-links.
            for o in 1..k {
                let j = (i + o) % k;
                sends.push((group[i], group[j], shard));
            }
        }
    }
    run_step(net, start, &sends)
}

/// Runs one dimension phase (a Reduce-Scatter or All-Gather over `data`
/// bytes per NPU) in lockstep steps and returns the phase end time.
fn run_phase(
    net: &mut PacketNetwork,
    topo: &Topology,
    dim: usize,
    data: DataSize,
    start: Time,
) -> Time {
    let block = topo.dims()[dim].block();
    let k = block.npus();
    let groups = enumerate_groups(topo, dim);
    let mut now = start;
    match block {
        BuildingBlock::Ring(_) => {
            // Bidirectional ring: half the payload clockwise, half
            // counter-clockwise, k-1 steps of one shard each.
            let shard = data.div_ceil_parts(2 * k as u64);
            for _step in 0..k - 1 {
                let mut sends = Vec::new();
                for group in &groups {
                    for i in 0..k {
                        let right = group[(i + 1) % k];
                        let left = group[(i + k - 1) % k];
                        sends.push((group[i], right, shard));
                        sends.push((group[i], left, shard));
                    }
                }
                now = run_step(net, now, &sends);
            }
        }
        BuildingBlock::FullyConnected(_) => {
            // Direct algorithm: one step, a shard to every peer.
            let shard = data.div_ceil_parts(k as u64);
            let mut sends = Vec::new();
            for group in &groups {
                for i in 0..k {
                    for j in 0..k {
                        if i != j {
                            sends.push((group[i], group[j], shard));
                        }
                    }
                }
            }
            now = run_step(net, now, &sends);
        }
        BuildingBlock::Switch(_) => {
            // Halving-doubling: pairwise exchanges of geometrically
            // shrinking payloads through the switch.
            let rounds = usize::BITS - (k - 1).leading_zeros();
            for round in 0..rounds {
                let bit = 1usize << round;
                let exchanged = data.div_ceil_parts(2u64 << round);
                let mut sends = Vec::new();
                for group in &groups {
                    for i in 0..k {
                        let partner = i ^ bit;
                        if partner < k && partner != i {
                            sends.push((group[i], group[partner], exchanged));
                        }
                    }
                }
                now = run_step(net, now, &sends);
            }
        }
    }
    now
}

/// Runs one lockstep step: every `(src, dst, size)` message enters at
/// `start` under its index as token. Returns the step's end, its last
/// arrival (or `start`, if nothing arrives later) plus the step overhead.
fn run_step(net: &mut PacketNetwork, start: Time, sends: &[(NpuId, NpuId, DataSize)]) -> Time {
    for (token, &(src, dst, size)) in (0..).zip(sends) {
        net.send_async(token, start, src, dst, size);
    }
    net.run_until_idle();
    let mut done = Vec::with_capacity(sends.len());
    net.drain_completions(&mut done);
    let end = done.iter().map(|c| c.finish).fold(start, Time::max);
    end + net.config().step_overhead
}

fn enumerate_groups(topo: &Topology, dim: usize) -> Vec<Vec<NpuId>> {
    let mut groups = Vec::new();
    let mut seen = vec![false; topo.npus()];
    for id in 0..topo.npus() {
        if seen[id] {
            continue;
        }
        let group = topo.dim_group(id, dim);
        for &m in &group {
            seen[m] = true;
        }
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_all_reduce_close_to_bandwidth_optimal() {
        // 4-NPU ring at 150 GB/s (the paper's validation system), 64 MiB.
        let topo = Topology::parse("R(4)@150").unwrap();
        let size = DataSize::from_mib(64);
        let report = collective_time(&topo, size, &PacketSimConfig::fast());
        // Bandwidth-optimal: 2*(k-1)/k * size / BW = 640MiB-ish ~ 671 us.
        let optimal = 2.0 * 3.0 / 4.0 * size.as_bytes() as f64 / 150e9 * 1e6;
        let got = report.finish.as_us_f64();
        let err = (got - optimal) / optimal;
        assert!(
            (0.0..0.10).contains(&err),
            "packet {got} us vs optimal {optimal} us (err {err})"
        );
    }

    #[test]
    fn sixteen_npu_ring_matches_paper_validation_shape() {
        let topo = Topology::parse("R(16)@150").unwrap();
        let size = DataSize::from_mib(96);
        let report = collective_time(&topo, size, &PacketSimConfig::fast());
        let optimal = 2.0 * 15.0 / 16.0 * size.as_bytes() as f64 / 150e9 * 1e6;
        let got = report.finish.as_us_f64();
        assert!(
            ((got - optimal) / optimal).abs() < 0.15,
            "{got} vs {optimal}"
        );
    }

    #[test]
    fn hierarchical_collective_on_3d_torus_completes() {
        let topo = Topology::parse("R(4)_R(4)_R(4)").unwrap();
        let report = collective_time(&topo, DataSize::from_mib(1), &PacketSimConfig::fast());
        assert!(report.finish > Time::ZERO);
        assert!(report.messages > 0);
        assert!(report.events >= report.messages);
    }

    #[test]
    fn switch_dimension_uses_halving_doubling_rounds() {
        let topo = Topology::parse("SW(8)@100").unwrap();
        let report = collective_time(&topo, DataSize::from_mib(8), &PacketSimConfig::fast());
        // RS: 3 rounds of 4+2+1 MiB exchanges, AG mirrors: total traffic
        // 2*(7/8)*8MiB at 100 GB/s aggregate -> ~147us plus latency rounds.
        let optimal = 2.0 * 7.0 / 8.0 * (8u64 << 20) as f64 / 100e9 * 1e6;
        let got = report.finish.as_us_f64();
        assert!(
            ((got - optimal) / optimal).abs() < 0.2,
            "{got} vs {optimal}"
        );
    }

    #[test]
    fn reduce_scatter_and_all_gather_are_each_half_an_all_reduce() {
        let topo = Topology::parse("R(8)@150").unwrap();
        let size = DataSize::from_mib(64);
        let cfg = PacketSimConfig::fast();
        let ar = collective_time_for(&topo, Collective::AllReduce, size, &cfg);
        let rs = collective_time_for(&topo, Collective::ReduceScatter, size, &cfg);
        let ag = collective_time_for(&topo, Collective::AllGather, size, &cfg);
        let half = ar.finish.as_us_f64() / 2.0;
        for (name, got) in [("RS", rs.finish.as_us_f64()), ("AG", ag.finish.as_us_f64())] {
            assert!(
                ((got - half) / half).abs() < 0.05,
                "{name}: {got} vs half-AR {half}"
            );
        }
    }

    #[test]
    fn all_to_all_matches_analytical_shape_on_switch() {
        // Direct exchange through a switch: traffic (k-1)/k * size per NPU
        // at the aggregate dimension bandwidth.
        let topo = Topology::parse("SW(8)@100").unwrap();
        let size = DataSize::from_mib(64);
        let report =
            collective_time_for(&topo, Collective::AllToAll, size, &PacketSimConfig::fast());
        let optimal = (7.0 / 8.0) * size.as_bytes() as f64 / 100e9 * 1e6;
        let got = report.finish.as_us_f64();
        assert!(
            ((got - optimal) / optimal).abs() < 0.15,
            "{got} vs {optimal}"
        );
        assert_eq!(report.messages, 8 * 7);
    }

    #[test]
    fn all_to_all_on_ring_pays_multi_hop_detours() {
        // On a ring, direct exchange routes through intermediate links, so
        // the packet simulation must be slower than the single-hop ideal.
        let topo = Topology::parse("R(8)@100").unwrap();
        let size = DataSize::from_mib(64);
        let report =
            collective_time_for(&topo, Collective::AllToAll, size, &PacketSimConfig::fast());
        let single_hop_ideal = (7.0 / 8.0) * size.as_bytes() as f64 / 100e9 * 1e6;
        assert!(report.finish.as_us_f64() > single_hop_ideal);
    }

    #[test]
    fn finer_packets_cost_more_events_same_time_scale() {
        let topo = Topology::parse("R(4)@100").unwrap();
        let size = DataSize::from_mib(1);
        let coarse = collective_time(&topo, size, &PacketSimConfig::fast());
        let fine = collective_time(&topo, size, &PacketSimConfig::garnet_like());
        assert!(fine.events > coarse.events * 10);
        let ratio = fine.finish.as_us_f64() / coarse.finish.as_us_f64();
        assert!((0.8..1.2).contains(&ratio), "time drifted: {ratio}");
    }
}
