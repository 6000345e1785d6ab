//! First-order congestion modeling (the paper's stated future work,
//! §IV-C footnote: "Implementing first-order congestion modeling into the
//! analytical backend is our future work").
//!
//! The multi-rail hierarchical collectives are congestion-free by
//! construction, but arbitrary peer-to-peer traffic (parameter servers,
//! pipeline stages sharing links, incast patterns) is not. This module
//! computes flow completion times under **max-min fair sharing** over the
//! explicit link graph: a fluid progressive-filling model that captures
//! link oversubscription without per-packet simulation.
//!
//! [`max_min_completion`] is a thin wrapper over the event-driven
//! [`crate::FlowNetwork`] backend: each flow is sent at time zero through
//! [`NetworkBackend::send_async`] under its index as token, the backend
//! runs to idle, and the drained completions come back in flow order. The
//! frozen progressive-filling reference, `max_min_rates`, lives here; the
//! backend's incremental allocation is checked against it.

use astra_des::{DataSize, Time};
use astra_topology::{LinkGraph, LinkId, NpuId, Topology};

use crate::NetworkBackend;

/// One point-to-point flow.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Source NPU.
    pub src: NpuId,
    /// Destination NPU.
    pub dst: NpuId,
    /// Bytes to transfer.
    pub size: DataSize,
}

/// Computes max-min fair completion times for a set of flows that all
/// start at time zero, routed dimension-ordered over `topo`'s link graph.
///
/// The model is fluid: at every instant each link's bandwidth is shared
/// max-min fairly among the flows crossing it (progressive filling); when
/// a flow completes, the remaining flows speed up. Zero-byte and
/// self-flows complete instantly.
///
/// # Example
///
/// ```
/// use astra_des::DataSize;
/// use astra_network::congestion::{max_min_completion, Flow};
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("SW(4)@100").unwrap();
/// // Two flows into the same destination share its down-link: each sees
/// // half the bandwidth.
/// let flows = [
///     Flow { src: 0, dst: 2, size: DataSize::from_mib(64) },
///     Flow { src: 1, dst: 2, size: DataSize::from_mib(64) },
/// ];
/// let done = max_min_completion(&topo, &flows);
/// assert_eq!(done[0], done[1]);
/// ```
pub fn max_min_completion(topo: &Topology, flows: &[Flow]) -> Vec<Time> {
    let mut net = crate::FlowNetwork::new(topo);
    for (token, f) in (0..).zip(flows) {
        net.send_async(token, Time::ZERO, f.src, f.dst, f.size);
    }
    net.run_until_idle();
    let mut done = Vec::with_capacity(flows.len());
    net.drain_completions(&mut done);
    debug_assert_eq!(done.len(), flows.len(), "every flow completes");
    let mut finishes = vec![Time::ZERO; flows.len()];
    for c in done {
        finishes[c.token as usize] = c.finish;
    }
    finishes
}

/// Progressive filling: repeatedly find the most-contended link, freeze
/// its flows at the fair share, and continue with the residual capacities.
// frozen-ref: 030d9ab16a4cdf66
pub(crate) fn max_min_rates(graph: &LinkGraph, routes: &[&[LinkId]], active: &[usize]) -> Vec<f64> {
    let mut rates = vec![0.0f64; routes.len()];
    let mut residual: Vec<f64> = (0..graph.num_links())
        .map(|l| graph.link(LinkId(l)).bandwidth.as_bytes_per_sec() as f64)
        .collect();
    let mut unfrozen: Vec<usize> = active.to_vec();

    while !unfrozen.is_empty() {
        // Fair share per link = residual / unfrozen flows crossing it.
        let mut bottleneck: Option<(f64, LinkId)> = None;
        for (l, &capacity) in residual.iter().enumerate() {
            let crossing = unfrozen
                .iter()
                .filter(|&&i| routes[i].contains(&LinkId(l)))
                .count();
            if crossing == 0 {
                continue;
            }
            let share = capacity / crossing as f64;
            if bottleneck.is_none_or(|(s, _)| share < s) {
                bottleneck = Some((share, LinkId(l)));
            }
        }
        let Some((share, link)) = bottleneck else {
            // Remaining flows cross no links (self flows): infinite rate,
            // but those complete instantly and never reach here.
            break;
        };
        // Freeze every unfrozen flow crossing the bottleneck.
        let (frozen_now, rest): (Vec<usize>, Vec<usize>) = unfrozen
            .into_iter()
            .partition(|&i| routes[i].contains(&link));
        for &i in &frozen_now {
            rates[i] = share;
            for &l in routes[i] {
                residual[l.0] -= share;
                if residual[l.0] < 0.0 {
                    residual[l.0] = 0.0;
                }
            }
        }
        unfrozen = rest;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mib(v: u64) -> DataSize {
        DataSize::from_mib(v)
    }

    #[test]
    fn single_flow_gets_full_link_bandwidth() {
        let topo = Topology::parse("SW(4)@100").unwrap();
        let done = max_min_completion(
            &topo,
            &[Flow {
                src: 0,
                dst: 1,
                size: DataSize::from_bytes(100_000_000),
            }],
        );
        // 100 MB at 100 GB/s = 1 ms, plus 2x 500 ns switch-hop latency.
        assert_eq!(done[0], Time::from_ms(1) + Time::from_ns(1000));
    }

    #[test]
    fn incast_shares_the_destination_downlink() {
        let topo = Topology::parse("SW(8)@100").unwrap();
        let flows: Vec<Flow> = (0..4)
            .map(|s| Flow {
                src: s,
                dst: 7,
                size: mib(64),
            })
            .collect();
        let done = max_min_completion(&topo, &flows);
        let single = max_min_completion(&topo, &flows[..1]);
        // Four flows share the single down-link: ~4x the solo time.
        let ratio = done[0].as_us_f64() / single[0].as_us_f64();
        assert!((3.9..4.1).contains(&ratio), "{ratio}");
        // Symmetric flows finish together.
        assert!(done.iter().all(|&d| d == done[0]));
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let topo = Topology::parse("R(8)@100").unwrap();
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                size: mib(64),
            },
            Flow {
                src: 4,
                dst: 5,
                size: mib(64),
            },
        ];
        let done = max_min_completion(&topo, &flows);
        let solo = max_min_completion(&topo, &flows[..1]);
        assert_eq!(done[0], solo[0]);
        assert_eq!(done[1], solo[0]);
    }

    #[test]
    fn finished_flows_release_bandwidth() {
        let topo = Topology::parse("SW(4)@100").unwrap();
        // A short and a long flow share a link; the long one speeds up
        // after the short one drains.
        let flows = [
            Flow {
                src: 0,
                dst: 3,
                size: mib(32),
            },
            Flow {
                src: 1,
                dst: 3,
                size: mib(96),
            },
        ];
        let done = max_min_completion(&topo, &flows);
        // Shared phase: both at 50 GB/s until 32 MiB drain (0.671 ms);
        // then the long flow finishes its last 64 MiB at 100 GB/s.
        let t_short = done[0].as_ms_f64();
        let t_long = done[1].as_ms_f64();
        assert!((0.64..0.72).contains(&t_short), "{t_short}");
        assert!((1.30..1.40).contains(&t_long), "{t_long}");
    }

    #[test]
    fn self_and_empty_flows_are_instant() {
        let topo = Topology::parse("R(4)@100").unwrap();
        let done = max_min_completion(
            &topo,
            &[
                Flow {
                    src: 2,
                    dst: 2,
                    size: mib(10),
                },
                Flow {
                    src: 0,
                    dst: 1,
                    size: DataSize::ZERO,
                },
            ],
        );
        assert_eq!(done, vec![Time::ZERO, Time::ZERO]);
    }

    #[test]
    fn congestion_model_agrees_with_packet_simulation() {
        // The point of the extension: plain analytical says two flows on a
        // shared link are independent; max-min and the packet simulator
        // both see the sharing.
        let topo = Topology::parse("SW(4)@100").unwrap();
        let flows = [
            Flow {
                src: 0,
                dst: 3,
                size: mib(64),
            },
            Flow {
                src: 1,
                dst: 3,
                size: mib(64),
            },
        ];
        let fluid = max_min_completion(&topo, &flows);
        // Both flows drain the shared 100 GB/s down-link: 128 MiB total.
        let expected_us = 128.0 * 1024.0 * 1024.0 / 100e9 * 1e6;
        let got = fluid[1].as_us_f64();
        assert!(
            (got - expected_us).abs() / expected_us < 0.01,
            "{got} vs {expected_us}"
        );
    }
}
