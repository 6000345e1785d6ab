//! Fault-injection scenario suite and the no-fault determinism pin.
//!
//! The fault subsystem's contract, in four parts:
//!
//! * **No-op pin.** An empty `FaultSchedule` plus untriggered budgets is
//!   byte-for-byte invisible: the `SimReport` is bit-identical to the
//!   default configuration's on every network backend and both simulation
//!   cores.
//! * **Reroute or fail loudly.** A dead link reroutes traffic around the
//!   failure (strictly later, never silently equal) when a path survives;
//!   a fault that disconnects the fabric is a typed
//!   [`SimError::Unreachable`], never a hang or a bogus timeline.
//! * **Blast-radius isolation.** An NPU straggler stretches only its own
//!   compute; a degraded link makes collectives crossing it strictly
//!   later. Both show up in the report's per-fault attribution.
//! * **Faults don't break determinism.** With a non-trivial schedule
//!   applied, reports stay bit-identical across worker thread counts.

use astra_collectives::Collective;
use astra_des::{DataSize, SimMode, Time};
use astra_network::NetworkBackendKind;
use astra_system::{simulate, FaultKind, FaultSchedule, SimError, SimReport, SystemConfig};
use astra_topology::Topology;
use astra_workload::{EtOp, ExecutionTrace, TraceBuilder};
use proptest::prelude::*;

fn run(trace: &ExecutionTrace, topo: &Topology, config: &SystemConfig) -> SimReport {
    simulate(trace, topo, config).expect("valid simulation")
}

/// One world-group All-Reduce at `t = 0` on every NPU.
fn all_reduce_trace(npus: usize, size: DataSize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let world = b.add_group((0..npus).collect());
    for npu in 0..npus {
        b.node(
            npu,
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size,
                group: world,
            },
            &[],
        );
    }
    b.build().expect("all-reduce trace is valid")
}

/// Identical back-to-back compute on every NPU, no communication.
fn compute_trace(npus: usize, ops: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    for npu in 0..npus {
        let mut prev = None;
        for k in 0..ops {
            let deps = prev.map(|n| vec![n]).unwrap_or_default();
            prev = Some(b.node(
                npu,
                format!("c{k}"),
                EtOp::Compute {
                    flops: 5e9,
                    tensor: DataSize::ZERO,
                },
                &deps,
            ));
        }
    }
    b.build().expect("compute trace is valid")
}

/// A short p2p relay crossing the `0 <-> 1` ring link plus per-hop
/// compute, so both fabric and compute faults have something to bite.
fn relay_trace(npus: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let size = DataSize::from_kib(512);
    for hop in 0..3usize {
        let (src, dst) = (hop % npus, (hop + 1) % npus);
        let tag = hop as u64;
        b.node(
            src,
            format!("send{hop}"),
            EtOp::PeerSend {
                peer: dst,
                size,
                tag,
            },
            &[],
        );
        let recv = b.node(
            dst,
            format!("recv{hop}"),
            EtOp::PeerRecv {
                peer: src,
                size,
                tag,
            },
            &[],
        );
        b.node(
            dst,
            format!("post{hop}"),
            EtOp::Compute {
                flops: 1e9,
                tensor: DataSize::ZERO,
            },
            &[recv],
        );
    }
    b.build().expect("relay trace is valid")
}

fn degrade_01() -> FaultSchedule {
    let mut s = FaultSchedule::new();
    s.push(
        Time::ZERO,
        FaultKind::LinkDegrade {
            src: 0,
            dst: 1,
            bandwidth_pct: 50,
            latency_x: 2,
        },
    );
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The no-op pin: explicitly setting an empty `FaultSchedule` and
    /// budgets large enough never to trigger leaves the `SimReport`
    /// bit-identical to the default configuration on every backend and
    /// simulation core — the hardening plumbing is
    /// invisible until a fault or budget actually fires.
    #[test]
    fn empty_schedule_and_slack_budgets_are_bit_identical(
        notation in prop::sample::select(vec!["R(8)@100", "SW(8)@200", "R(4)@100_SW(2)@50"]),
        mib in 1u64..48,
    ) {
        let topo = Topology::parse(notation).unwrap();
        let trace = all_reduce_trace(topo.npus(), DataSize::from_mib(mib));
        for backend in NetworkBackendKind::ALL {
            for sim_mode in [SimMode::Sequential, SimMode::Parallel { threads: 2 }] {
                let base = SystemConfig {
                    network_backend: backend,
                    sim_mode,
                    ..SystemConfig::default()
                };
                let guarded = SystemConfig {
                    faults: FaultSchedule::new(),
                    max_events: Some(u64::MAX),
                    max_sim_time: Some(Time::from_ps(u64::MAX)),
                    ..base.clone()
                };
                let reference = run(&trace, &topo, &base);
                let hardened = run(&trace, &topo, &guarded);
                prop_assert!(
                    hardened == reference,
                    "{backend} {sim_mode:?}: empty schedule / slack budgets changed the report"
                );
                prop_assert!(reference.faults.is_empty());
            }
        }
    }
}

/// A dead ring link reroutes p2p traffic the long way around — strictly
/// later than the pristine ring on every backend — while a fault that
/// disconnects the fabric is a typed `Unreachable` error, not a timeline.
#[test]
fn link_down_reroutes_or_reports_unreachable() {
    let topo = Topology::parse("R(8)@100").unwrap();
    let trace = relay_trace(topo.npus());
    let mut link_down = FaultSchedule::new();
    link_down.push(Time::ZERO, FaultKind::LinkDown { src: 0, dst: 1 });
    for backend in NetworkBackendKind::ALL {
        let config = |faults: FaultSchedule| SystemConfig {
            network_backend: backend,
            faults,
            ..SystemConfig::default()
        };
        let baseline = run(&trace, &topo, &config(FaultSchedule::new()));
        let faulted = run(&trace, &topo, &config(link_down.clone()));
        assert!(
            faulted.total_time > baseline.total_time,
            "{backend}: rerouted relay must be strictly slower ({:?} vs {:?})",
            faulted.total_time,
            baseline.total_time
        );
        assert_eq!(faulted.faults.len(), 1);
        assert_eq!(faulted.faults[0].affected, 2, "both link directions died");
    }

    // Killing the only switch of SW(8) strands every NPU.
    let sw = Topology::parse("SW(8)@400").unwrap();
    let mut switch_down = FaultSchedule::new();
    switch_down.push(Time::ZERO, FaultKind::SwitchDown { dim: 0, group: 0 });
    let config = SystemConfig {
        faults: switch_down,
        ..SystemConfig::default()
    };
    match simulate(&relay_trace(sw.npus()), &sw, &config) {
        Err(SimError::Unreachable { .. }) => {}
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

/// A straggler NPU stretches only its own compute: its finish moves, every
/// other NPU's finish is byte-identical, and the stretch is attributed to
/// the fault event.
#[test]
fn straggler_stretches_only_its_own_compute() {
    let topo = Topology::parse("SW(8)@400").unwrap();
    let trace = compute_trace(topo.npus(), 4);
    let mut straggler = FaultSchedule::new();
    straggler.push(
        Time::ZERO,
        FaultKind::NpuSlowdown {
            npu: 2,
            slowdown_pct: 300,
        },
    );
    let config = |faults: FaultSchedule| SystemConfig {
        faults,
        ..SystemConfig::default()
    };
    let baseline = run(&trace, &topo, &config(FaultSchedule::new()));
    let faulted = run(&trace, &topo, &config(straggler));
    for npu in 0..topo.npus() {
        if npu == 2 {
            assert!(
                faulted.per_npu_finish[npu] > baseline.per_npu_finish[npu],
                "straggler NPU must finish later"
            );
        } else {
            assert_eq!(
                faulted.per_npu_finish[npu], baseline.per_npu_finish[npu],
                "NPU {npu} is not the straggler and must be untouched"
            );
        }
    }
    assert_eq!(faulted.faults.len(), 1);
    let impact = &faulted.faults[0];
    assert_eq!(
        impact.affected, 4,
        "all four compute ops on NPU 2 stretched"
    );
    assert!(impact.extra_time > Time::ZERO);
    // 300% of nominal on a serial chain: finish stretches exactly 3x.
    assert_eq!(
        faulted.per_npu_finish[2].as_ps(),
        3 * baseline.per_npu_finish[2].as_ps()
    );
}

/// A half-bandwidth link makes the world All-Reduce strictly later than
/// the fault-free run (the collective lowering sees the degraded
/// dimension), with the delta attributed to the fault event.
#[test]
fn degraded_bandwidth_makes_the_collective_strictly_later() {
    let topo = Topology::parse("R(8)@100").unwrap();
    let trace = all_reduce_trace(topo.npus(), DataSize::from_mib(64));
    let config = |faults: FaultSchedule| SystemConfig {
        faults,
        ..SystemConfig::default()
    };
    let baseline = run(&trace, &topo, &config(FaultSchedule::new()));
    let faulted = run(&trace, &topo, &config(degrade_01()));
    assert!(
        faulted.total_time > baseline.total_time,
        "degraded ring must slow the All-Reduce ({:?} vs {:?})",
        faulted.total_time,
        baseline.total_time
    );
    assert_eq!(faulted.faults.len(), 1);
    assert!(
        faulted.faults[0].extra_time > Time::ZERO,
        "collective stretch is attributed to the link event"
    );
}

/// Faults are not a determinism knob: with a dead link, a degraded link,
/// and a straggler all active, the full `SimReport` stays bit-identical
/// across worker thread counts on every network backend.
#[test]
fn faulted_reports_are_bit_identical_across_threads() {
    let topo = Topology::parse("R(8)@100").unwrap();
    let trace = relay_trace(topo.npus());
    let mut faults = degrade_01();
    faults.push(Time::ZERO, FaultKind::LinkDown { src: 2, dst: 3 });
    faults.push(
        Time::ZERO,
        FaultKind::NpuSlowdown {
            npu: 1,
            slowdown_pct: 150,
        },
    );
    for backend in NetworkBackendKind::ALL {
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let config = SystemConfig {
                network_backend: backend,
                sim_mode: SimMode::Parallel { threads },
                faults: faults.clone(),
                ..SystemConfig::default()
            };
            reports.push((threads, run(&trace, &topo, &config)));
        }
        let (t0, reference) = &reports[0];
        for (threads, report) in &reports[1..] {
            assert!(
                report == reference,
                "{backend}: faulted report diverges ({threads} vs {t0} threads)"
            );
        }
        assert_eq!(
            reference.faults.len(),
            3,
            "{backend}: all faults attributed"
        );
    }
}
