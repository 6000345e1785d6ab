//! Cross-path equivalence suite: the engine on its co-resident backend
//! ([`simulate`]) against the frozen blocking-p2p oracle
//! ([`simulate_blocking_reference`]), which runs the same engine path
//! against a probe backend that measures every message with a blocking
//! `p2p_delay` on a fresh sub-simulation. The contract:
//!
//! * On **non-overlapping** traffic (at most one message in flight at any
//!   engine instant) the two paths are **bit-identical** on every backend —
//!   a lone message rides a quiet network either way, and all backends are
//!   time-shift invariant for isolated traffic.
//! * On **overlapping** traffic they are *meant* to diverge: co-resident
//!   messages contend inside the congestion-aware backends (packet
//!   and flow), which the per-message blocking probes cannot see.
//!   The closed-form analytical backend stays congestion-free in both
//!   modes.

use astra_des::{DataSize, Time};
use astra_network::NetworkBackendKind;
use astra_system::{simulate, simulate_blocking_reference, SimReport, SystemConfig};
use astra_topology::Topology;
use astra_workload::{
    models, parallelism, EtOp, ExecutionTrace, NodeId, Parallelism, TraceBuilder,
};
use proptest::prelude::*;

/// Bandwidth values in the pool all divide the picosecond grid exactly
/// (any per-link share of 25–250 GB/s turns whole-byte payloads into whole
/// picoseconds), so even the fluid backend's float clock lands on the grid
/// and bit-identity is meaningful across every backend.
fn arb_topology() -> impl Strategy<Value = Topology> {
    prop::sample::select(vec![
        "R(4)@100",
        "R(8)@50",
        "SW(4)@100",
        "SW(8)@200",
        "FC(4)@250",
        "R(4)@100_SW(2)@50",
        "SW(4)@200_R(4)@100",
        "R(2)@250_FC(4)@200_SW(2)@50",
    ])
    .prop_map(|s| Topology::parse(s).unwrap())
}

/// A relay chain: message `k+1` is sent by message `k`'s receiver and its
/// send node depends on that receive, so exactly one message is in flight
/// at any engine instant — the non-overlapping traffic class on which the
/// async and blocking paths must agree bit-for-bit. Hops may revisit NPUs
/// (local chaining via `last`), self-send (`src == dst`), or carry empty
/// payloads.
fn relay_chain_trace(npus: usize, hops: &[(usize, usize, u64)]) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let mut last: Vec<Option<NodeId>> = vec![None; npus];
    let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
    for (k, &(src, dst, kib)) in hops.iter().enumerate() {
        let size = DataSize::from_kib(kib);
        let tag = k as u64;
        // Both deps are taken before either node is inserted: on a
        // self-hop the receive must not wait for its own send's delivery
        // (that rendezvous could never resolve).
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

fn config(backend: NetworkBackendKind) -> SystemConfig {
    SystemConfig {
        network_backend: backend,
        ..SystemConfig::default()
    }
}

/// The async path.
fn run(trace: &ExecutionTrace, topo: &Topology, backend: NetworkBackendKind) -> SimReport {
    simulate(trace, topo, &config(backend)).expect("valid simulation")
}

/// The blocking-p2p oracle.
fn reference(trace: &ExecutionTrace, topo: &Topology, backend: NetworkBackendKind) -> SimReport {
    simulate_blocking_reference(trace, topo, &config(backend)).expect("valid simulation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random relay chains over random topologies: bit-identical totals,
    /// per-NPU finish times, and breakdowns between the async and blocking
    /// paths on every backend, with the
    /// O(messages)-vs-O(1) backend-setup gap visible in the stats.
    #[test]
    fn non_overlapping_traffic_is_bit_identical_across_paths(
        topo in arb_topology(),
        walk in prop::collection::vec((0u64..1000, 0u64..257), 1..10),
    ) {
        let npus = topo.npus();
        // Turn the raw walk into a relay chain of (src, dst, KiB) hops.
        let mut hops = Vec::with_capacity(walk.len());
        let mut at = walk[0].0 as usize % npus;
        for &(step, kib) in &walk {
            let next = step as usize % npus;
            hops.push((at, next, kib));
            at = next;
        }
        let trace = relay_chain_trace(npus, &hops);
        for backend in NetworkBackendKind::ALL {
            let blocking = reference(&trace, &topo, backend);
            let asynchronous = run(&trace, &topo, backend);
            prop_assert_eq!(
                blocking.total_time, asynchronous.total_time,
                "total diverged on {} / {}", backend, topo
            );
            prop_assert_eq!(
                &blocking.per_npu_finish, &asynchronous.per_npu_finish,
                "finish times diverged on {} / {}", backend, topo
            );
            prop_assert_eq!(
                blocking.breakdown, asynchronous.breakdown,
                "breakdown diverged on {} / {}", backend, topo
            );
            prop_assert_eq!(blocking.p2p_messages, asynchronous.p2p_messages);
            prop_assert_eq!(blocking.network.backend_setups, blocking.p2p_messages);
            prop_assert_eq!(asynchronous.network.backend_setups, 1);
        }
    }
}

/// Two senders, one receiver, both messages in flight at `t = 0`: the
/// incast that the async path models and the blocking path cannot.
fn incast_trace(npus: usize, srcs: &[usize], dst: usize, size: DataSize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    for (k, &src) in srcs.iter().enumerate() {
        let tag = k as u64;
        b.node(
            src,
            format!("send{k}"),
            EtOp::PeerSend {
                peer: dst,
                size,
                tag,
            },
            &[],
        );
        // Independent receives: every message is in flight from t = 0.
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
    b.build().expect("incast is a valid trace")
}

/// Acceptance: overlapping pipeline-style sends now contend. On a shared
/// switch down-link, the congestion-aware backends finish no earlier than
/// the congestion-free analytical equation — and strictly later than their
/// own blocking reference, which probes each message on a quiet network.
#[test]
fn overlapping_sends_contend_in_congestion_aware_backends() {
    let topo = Topology::parse("SW(4)@100").unwrap();
    let trace = incast_trace(4, &[0, 1], 3, DataSize::from_mib(8));
    let total = |backend| run(&trace, &topo, backend).total_time;
    let reference_total = |backend| reference(&trace, &topo, backend).total_time;

    let analytical = total(NetworkBackendKind::Analytical);
    assert!(analytical > Time::ZERO);
    for backend in [NetworkBackendKind::Packet, NetworkBackendKind::Flow] {
        let asynchronous = total(backend);
        let blocking = reference_total(backend);
        assert!(
            asynchronous >= analytical,
            "{backend}: contended finish {asynchronous} below congestion-free {analytical}"
        );
        assert!(
            asynchronous > blocking,
            "{backend}: async {asynchronous} should exceed quiet-probe blocking {blocking}"
        );
    }
    // The closed form stays congestion-free in both modes.
    assert_eq!(analytical, reference_total(NetworkBackendKind::Analytical));

    // The second message pays roughly one extra serialization on the
    // shared 100 GB/s down-link: the async fluid model splits the link
    // while both are in flight, so the incast takes ~1.5x the lone-message
    // time; the packet backends interleave/serialize to ~2x.
    let flow_async = total(NetworkBackendKind::Flow);
    let flow_blocking = reference_total(NetworkBackendKind::Flow);
    let ratio = flow_async.as_us_f64() / flow_blocking.as_us_f64();
    assert!((1.4..2.1).contains(&ratio), "incast sharing ratio {ratio}");
}

/// One source, two independent concurrent sends (no deps): the engine's
/// per-source NIC lane serializes them in issue order whichever backend
/// is attached (co-resident or the oracle's probe), so even this
/// overlapping workload stays bit-identical across paths on every backend
/// — including the congestion-free analytical one, which must never
/// diverge between modes.
#[test]
fn same_source_concurrent_sends_serialize_on_the_nic_lane() {
    let topo = Topology::parse("SW(4)@100").unwrap();
    let size = DataSize::from_mib(8);
    let mut b = TraceBuilder::new(4);
    for (k, &dst) in [1usize, 2].iter().enumerate() {
        let tag = k as u64;
        b.node(
            0,
            format!("send{k}"),
            EtOp::PeerSend {
                peer: dst,
                size,
                tag,
            },
            &[],
        );
        b.node(
            dst,
            format!("recv{k}"),
            EtOp::PeerRecv { peer: 0, size, tag },
            &[],
        );
    }
    let trace = b.build().unwrap();
    let solo = {
        let mut b = TraceBuilder::new(4);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 1,
                size,
                tag: 0,
            },
            &[],
        );
        b.node(
            1,
            "recv",
            EtOp::PeerRecv {
                peer: 0,
                size,
                tag: 0,
            },
            &[],
        );
        b.build().unwrap()
    };
    for backend in NetworkBackendKind::ALL {
        let blocking = reference(&trace, &topo, backend);
        let asynchronous = run(&trace, &topo, backend);
        assert_eq!(
            blocking.total_time, asynchronous.total_time,
            "{backend}: NIC-lane serialization diverged between modes"
        );
        assert_eq!(
            blocking.per_npu_finish, asynchronous.per_npu_finish,
            "{backend}"
        );
        // The lane really serialized: two sends take about twice one.
        let one = run(&solo, &topo, backend).total_time;
        let ratio = asynchronous.total_time.as_us_f64() / one.as_us_f64();
        assert!((1.8..2.2).contains(&ratio), "{backend}: lane ratio {ratio}");
    }
}

/// The async path reports one backend setup however many messages fly;
/// the blocking reference pays one per message. (The engine builds the
/// backend lazily: collective-only traffic reports zero setups.)
#[test]
fn backend_setups_are_o1_async_and_o_messages_blocking() {
    let topo = Topology::parse("R(8)@100").unwrap();
    let hops: Vec<(usize, usize, u64)> = (0..7).map(|i| (i, i + 1, 64)).collect();
    let trace = relay_chain_trace(8, &hops);
    for backend in NetworkBackendKind::ALL {
        let blocking = reference(&trace, &topo, backend);
        let asynchronous = run(&trace, &topo, backend);
        assert_eq!(blocking.network.backend_setups, 7, "{backend}");
        assert_eq!(asynchronous.network.backend_setups, 1, "{backend}");
        assert!(
            asynchronous.network.events <= blocking.network.events,
            "{backend}: async path should not pop more backend events"
        );
    }
}

/// A GPT-3 GPipe pipeline on a ring (`astra --topology R(8)@100 --workload
/// gpt3 --pipeline 4`). On the async path the overlapping multi-hop sends
/// contend, so the packet backend finishes no earlier than its blocking
/// reference, which probes every message alone.
#[test]
fn pipeline_contention_never_beats_the_blocking_reference() {
    let topo = Topology::parse("R(8)@100").unwrap();
    let stages = Parallelism::Pipeline {
        stages: 4,
        microbatches: 4,
    };
    let trace = parallelism::generate_trace(&models::gpt3_175b(), stages, 8).unwrap();
    let packet = reference(&trace, &topo, NetworkBackendKind::Packet);
    assert!(packet.p2p_messages > 0);
    let packet_async = run(&trace, &topo, NetworkBackendKind::Packet);
    assert!(packet_async.total_time >= packet.total_time);
}
