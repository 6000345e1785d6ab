//! Golden fixture for the blocking-p2p oracle
//! ([`simulate_blocking_reference`]).
//!
//! The oracle measures every p2p message alone on a fresh, cold backend.
//! It is the reference the async engine path is pinned against, so its
//! own output must not drift when the code that implements it moves. This
//! suite renders the `Debug` form of the oracle's `SimReport` for a fixed
//! matrix and compares it byte for byte with a committed fixture:
//!
//! * traces: a relay chain (self-send and empty hops included), an
//!   incast, concurrent sends from one source, and a GPT-3 GPipe pipeline
//!   (4 stages, 4 microbatches), all on `R(8)@100_SW(8)@50`;
//! * every [`NetworkBackendKind`];
//! * faults: none, a degraded link, and a straggler NPU.
//!
//! Event and time budgets stay off. A budget-tripped run reports how many
//! backend events had been counted when it stopped, and that count
//! depends on *when* the engine folds probe events into the total, which
//! is bookkeeping rather than part of the oracle's simulated result.
//!
//! Re-bless deliberately with `ASTRA_BLESS=1 cargo test -p astra-system
//! --test oracle_golden`.

use std::fmt::Write as _;

use astra_des::{DataSize, Time};
use astra_network::NetworkBackendKind;
use astra_system::{simulate_blocking_reference, FaultKind, FaultSchedule, SystemConfig};
use astra_topology::Topology;
use astra_workload::{
    models, parallelism, EtOp, ExecutionTrace, NodeId, Parallelism, TraceBuilder,
};

const TOPOLOGY: &str = "R(8)@100_SW(8)@50";

/// Adds one matched send/recv pair with the given dependencies.
fn pair(
    b: &mut TraceBuilder,
    (src, dst, size, tag): (usize, usize, DataSize, u64),
    send_deps: &[NodeId],
    recv_deps: &[NodeId],
) -> (NodeId, NodeId) {
    let send = b.node(
        src,
        format!("send{tag}"),
        EtOp::PeerSend {
            peer: dst,
            size,
            tag,
        },
        send_deps,
    );
    let recv = b.node(
        dst,
        format!("recv{tag}"),
        EtOp::PeerRecv {
            peer: src,
            size,
            tag,
        },
        recv_deps,
    );
    (send, recv)
}

/// One message in flight at a time: each hop is sent by the previous
/// hop's receiver after that receive completes.
fn relay_chain(npus: usize) -> ExecutionTrace {
    let hops = [
        (0, 1, 64),
        (1, 9, 256),
        (9, 9, 16),
        (9, 0, 0),
        (0, 63, 512),
        (63, 8, 32),
    ];
    let mut b = TraceBuilder::new(npus);
    let mut last: Vec<Option<NodeId>> = vec![None; npus];
    for (k, &(src, dst, kib)) in hops.iter().enumerate() {
        let send_deps: Vec<NodeId> = last[src].into_iter().collect();
        let recv_deps: Vec<NodeId> = last[dst].into_iter().collect();
        let (send, recv) = pair(
            &mut b,
            (src, dst, DataSize::from_kib(kib), k as u64),
            &send_deps,
            &recv_deps,
        );
        last[src] = Some(send);
        last[dst] = Some(recv);
    }
    b.build().expect("relay chain is a valid trace")
}

/// Three sources send to NPU 1 at `t = 0`, one of them across the
/// degraded `0 -> 1` link.
fn incast(npus: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    for (k, src) in [0usize, 2, 9].into_iter().enumerate() {
        pair(&mut b, (src, 1, DataSize::from_mib(4), k as u64), &[], &[]);
    }
    b.build().expect("incast is a valid trace")
}

/// NPU 0 sends three independent messages at `t = 0`; they serialize on
/// its NIC lane.
fn same_source(npus: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    for (k, dst) in [1usize, 2, 8].into_iter().enumerate() {
        pair(&mut b, (0, dst, DataSize::from_mib(4), k as u64), &[], &[]);
    }
    b.build().expect("same-source sends are a valid trace")
}

fn gpt3_pipeline(npus: usize) -> ExecutionTrace {
    let stages = Parallelism::Pipeline {
        stages: 4,
        microbatches: 4,
    };
    parallelism::generate_trace(&models::gpt3_175b(), stages, npus).expect("valid gpt3 pipeline")
}

fn fault_cases() -> Vec<(&'static str, FaultSchedule)> {
    let mut degrade = FaultSchedule::new();
    degrade.push(
        Time::ZERO,
        FaultKind::LinkDegrade {
            src: 0,
            dst: 1,
            bandwidth_pct: 50,
            latency_x: 2,
        },
    );
    let mut straggler = FaultSchedule::new();
    straggler.push(
        Time::ZERO,
        FaultKind::NpuSlowdown {
            npu: 1,
            slowdown_pct: 150,
        },
    );
    vec![
        ("none", FaultSchedule::new()),
        ("link_degrade", degrade),
        ("npu_slowdown", straggler),
    ]
}

/// Renders every oracle report of the matrix, one labelled line each.
fn render() -> String {
    let topo = Topology::parse(TOPOLOGY).expect("valid notation");
    let npus = topo.npus();
    let traces = [
        ("relay_chain", relay_chain(npus)),
        ("incast", incast(npus)),
        ("same_source", same_source(npus)),
        ("gpt3_pipeline", gpt3_pipeline(npus)),
    ];
    let mut out = String::new();
    for (trace_name, trace) in &traces {
        for backend in NetworkBackendKind::ALL {
            for (fault_name, faults) in fault_cases() {
                let config = SystemConfig {
                    network_backend: backend,
                    faults,
                    ..SystemConfig::default()
                };
                let report =
                    simulate_blocking_reference(trace, &topo, &config).expect("valid oracle run");
                writeln!(out, "{trace_name} {backend} {fault_name}: {report:?}")
                    .expect("writing to a String cannot fail");
            }
        }
    }
    out
}

#[test]
fn oracle_reports_match_the_golden_fixture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/oracle_golden.txt"
    );
    let rendered = render();
    if std::env::var_os("ASTRA_BLESS").is_some() {
        std::fs::write(fixture, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(fixture).expect(
        "missing golden fixture; generate with \
         `ASTRA_BLESS=1 cargo test -p astra-system --test oracle_golden`",
    );
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "oracle report drifted on fixture line {}",
            line + 1
        );
    }
    assert_eq!(
        rendered, golden,
        "oracle fixture differs in length; if the change is deliberate, \
         re-bless with `ASTRA_BLESS=1 cargo test -p astra-system --test \
         oracle_golden` and commit the diff"
    );
}
