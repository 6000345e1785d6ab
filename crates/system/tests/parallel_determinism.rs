//! Cross-thread-count determinism of the parallel simulation core.
//!
//! The packet backends can run on a domain-partitioned parallel core
//! (`SimMode::Parallel`) whose links are advanced by worker threads in
//! conservative-lookahead windows. The contract these tests pin, mirroring
//! the trace-generation suite in `crates/workload/tests/determinism.rs`:
//! the full `SimReport` is **bit-identical** across worker thread counts
//! (1, 2, 8) on every network backend — the
//! thread count is a pure wall-clock knob, never a results knob. On
//! non-overlapping traffic the parallel core is additionally bit-identical
//! to the sequential reference core.

use astra_des::{DataSize, SimMode};
use astra_network::NetworkBackendKind;
use astra_system::{simulate, SimReport, SystemConfig};
use astra_topology::Topology;
use astra_workload::{EtOp, ExecutionTrace, NodeId, TraceBuilder};

/// Thread counts the satellite requirement pins.
const THREADS: [usize; 3] = [1, 2, 8];

fn run(
    trace: &ExecutionTrace,
    topo: &Topology,
    backend: NetworkBackendKind,
    sim_mode: SimMode,
) -> SimReport {
    let config = SystemConfig {
        network_backend: backend,
        sim_mode,
        ..SystemConfig::default()
    };
    simulate(trace, topo, &config).expect("valid simulation")
}

/// A relay chain (at most one message in flight): the traffic class on
/// which the parallel core must also match the sequential core exactly.
fn relay_chain(npus: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let hops: Vec<(usize, usize, u64)> = (0..6)
        .map(|k| ((k * 3) % npus, (k * 3 + 5) % npus, 64 + 32 * k as u64))
        .collect();
    let mut last: Vec<Option<NodeId>> = vec![None; npus];
    let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
    for (k, &(src, dst, kib)) in hops.iter().enumerate() {
        let size = DataSize::from_kib(kib);
        let tag = k as u64;
        let send_dep = dep(last[src]);
        let recv_dep = dep(last[dst]);
        last[src] = Some(b.node(
            src,
            format!("send{k}"),
            EtOp::PeerSend {
                peer: dst,
                size,
                tag,
            },
            &send_dep,
        ));
        last[dst] = Some(b.node(
            dst,
            format!("recv{k}"),
            EtOp::PeerRecv {
                peer: src,
                size,
                tag,
            },
            &recv_dep,
        ));
    }
    b.build().expect("relay chain is a valid trace")
}

/// Concurrent fan: every even NPU sends to a shared pair of sinks with no
/// dependencies, so messages overlap and contend on shared links — the
/// traffic that exercises cross-domain message routing in the parallel
/// core.
fn concurrent_fan(npus: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    for (k, src) in (0..npus).step_by(2).enumerate() {
        let dst = if k % 2 == 0 { 1 } else { npus - 1 };
        if src == dst {
            continue;
        }
        let tag = k as u64;
        let size = DataSize::from_kib(256 + 64 * k as u64);
        let send = b.node(
            src,
            format!("send{k}"),
            EtOp::PeerSend {
                peer: dst,
                size,
                tag,
            },
            &[],
        );
        let _ = send;
        b.node(
            dst,
            format!("recv{k}"),
            EtOp::PeerRecv {
                peer: src,
                size,
                tag,
            },
            &[],
        );
    }
    b.build().expect("fan is a valid trace")
}

fn topologies() -> Vec<Topology> {
    ["R(8)@100", "SW(8)@150", "R(4)@100_SW(2)@50"]
        .iter()
        .map(|n| Topology::parse(n).unwrap())
        .collect()
}

/// Every backend, overlapping *and* serial traffic:
/// thread counts 1, 2, 8 produce bit-identical `SimReport`s.
#[test]
fn thread_count_is_not_a_results_knob() {
    for topo in topologies() {
        for trace in [relay_chain(topo.npus()), concurrent_fan(topo.npus())] {
            for backend in NetworkBackendKind::ALL {
                let reports: Vec<SimReport> = THREADS
                    .iter()
                    .map(|&threads| run(&trace, &topo, backend, SimMode::Parallel { threads }))
                    .collect();
                for (i, report) in reports.iter().enumerate().skip(1) {
                    assert!(
                        report == &reports[0],
                        "{backend} on {topo}: threads {} diverges from threads {}",
                        THREADS[i],
                        THREADS[0]
                    );
                }
            }
        }
    }
}

/// On non-overlapping traffic the parallel core matches the sequential
/// reference bit-identically on every backend (the backends that ignore
/// `SimMode` match trivially; the packet backends match because a lone
/// message's hop timeline is independent of the window schedule).
#[test]
fn parallel_matches_sequential_on_serial_traffic() {
    for topo in topologies() {
        let trace = relay_chain(topo.npus());
        for backend in NetworkBackendKind::ALL {
            let sequential = run(&trace, &topo, backend, SimMode::Sequential);
            let parallel = run(&trace, &topo, backend, SimMode::Parallel { threads: 4 });
            assert!(
                parallel == sequential,
                "{backend} on {topo}: parallel core diverges from the sequential reference"
            );
        }
    }
}
