//! Cross-mode equivalence suite for collective execution.
//!
//! `CollectiveMode::Backend` lowers every collective to a chunk-level
//! send/recv program (`astra_collectives::lowering`) and executes it on
//! the co-resident network backend; `CollectiveMode::Analytical` is the
//! frozen closed-form fast path. The contract that makes the new path
//! trustworthy:
//!
//! * The engine's event-driven execution is **bit-identical** to the
//!   lowering module's deterministic [`reference_finish`] schedule when
//!   both price the wire with the analytical equation — the executor adds
//!   concurrency machinery, never timing.
//! * Where the chunk-level schedule and the fluid closed form provably
//!   coincide (single-chunk programs; multi-chunk single-phase programs),
//!   Backend mode reproduces Analytical mode **bit-identically** on the
//!   analytical backend.
//! * On uncongested single-tenant switch topologies all four backends
//!   agree with the closed form to within the documented modeling deltas
//!   (store-and-forward packet overhead; DAG-vs-fluid pipeline fill).
//! * Under *overlap* — collectives contending with p2p traffic or with
//!   each other — Backend mode on a congestion-aware backend finishes
//!   strictly later than the closed form, which cannot couple the two
//!   traffic classes at all.
//!
//! [`reference_finish`]: astra_collectives::lowering::reference_finish

use astra_collectives::{lowering, Collective, CollectiveMode, SchedulerPolicy};
use astra_des::{DataSize, Time};
use astra_network::{AnalyticalNetwork, NetworkBackend, NetworkBackendKind};
use astra_system::{simulate, simulate_blocking_reference, SimError, SimReport, SystemConfig};
use astra_topology::Topology;
use astra_workload::{EtOp, ExecutionTrace, TraceBuilder};
use proptest::prelude::*;

/// Bandwidths divide the picosecond grid exactly (see `p2p_paths.rs`).
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

/// Switch-only pool: the one block whose individual link carries the full
/// aggregate per-NPU bandwidth, so the packet and flow backends see the
/// same serialization rate as the analytical equation (the same caveat the
/// p2p suite documents for rings).
fn arb_switch_topology() -> impl Strategy<Value = Topology> {
    prop::sample::select(vec!["SW(4)@100", "SW(8)@200", "SW(4)@100_SW(2)@50"])
        .prop_map(|s| Topology::parse(s).unwrap())
}

fn arb_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

/// One world-group collective: every NPU issues the same collective at
/// `t = 0`.
fn world_collective_trace(npus: usize, collective: Collective, size: DataSize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let world = b.add_group((0..npus).collect());
    for npu in 0..npus {
        b.node(
            npu,
            "coll",
            EtOp::Collective {
                collective,
                size,
                group: world,
            },
            &[],
        );
    }
    b.build().expect("world collective trace is valid")
}

fn run(
    trace: &ExecutionTrace,
    topo: &Topology,
    backend: NetworkBackendKind,
    mode: CollectiveMode,
    chunks: u64,
) -> SimReport {
    let config = SystemConfig {
        network_backend: backend,
        collective_mode: mode,
        collective_chunks: chunks,
        ..SystemConfig::default()
    };
    simulate(trace, topo, &config).expect("valid simulation")
}

/// The engine's documented endpoint binding for a world group: for each
/// dimension, the member at coordinate 1 along it sends to the
/// representative (NPU 0).
fn world_endpoints(topo: &Topology) -> Vec<(usize, usize)> {
    (0..topo.num_dims())
        .map(|d| (topo.dim_stride(d), 0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's Backend-mode execution on the analytical network is
    /// bit-identical to the lowering module's closed-form reference
    /// schedule, for random topologies, collectives, payloads, and chunk
    /// counts.
    #[test]
    fn backend_mode_matches_the_lowering_reference(
        topo in arb_topology(),
        collective in arb_collective(),
        kib in 1u64..200_000,
        chunks in 1u64..40,
    ) {
        let size = DataSize::from_kib(kib);
        let trace = world_collective_trace(topo.npus(), collective, size);
        let report = run(&trace, &topo, NetworkBackendKind::Analytical,
                         CollectiveMode::Backend, chunks);

        let program = lowering::lower(collective, size, topo.dims(), chunks);
        let endpoints = world_endpoints(&topo);
        let mut net = AnalyticalNetwork::new(topo.clone());
        let expected = lowering::reference_finish(&program, Time::ZERO, |op| {
            let (src, dst) = endpoints[op.dim];
            net.p2p_delay(src, dst, op.size)
        });
        prop_assert_eq!(
            report.total_time, expected,
            "executor diverged from the reference schedule on {} ({}, {} chunks)",
            topo, collective, chunks
        );
        prop_assert_eq!(report.collective_ops, program.ops().len() as u64);
        prop_assert_eq!(report.collectives, 1);
        // One co-resident backend serves the whole program.
        prop_assert_eq!(report.network.backend_setups, 1);
    }

    /// Where the chunk-level schedule and the fluid closed form provably
    /// coincide, Backend mode is bit-identical to Analytical mode:
    /// single-chunk programs degenerate to the first chunk's phase chain
    /// in both models.
    #[test]
    fn single_chunk_backend_equals_closed_form_bit_exactly(
        topo in arb_topology(),
        collective in arb_collective(),
        kib in 1u64..200_000,
    ) {
        let size = DataSize::from_kib(kib);
        let trace = world_collective_trace(topo.npus(), collective, size);
        let analytical = run(&trace, &topo, NetworkBackendKind::Analytical,
                             CollectiveMode::Analytical, 1);
        let backend = run(&trace, &topo, NetworkBackendKind::Analytical,
                          CollectiveMode::Backend, 1);
        prop_assert_eq!(
            analytical.total_time, backend.total_time,
            "single-chunk {} on {} diverged", collective, topo
        );
        prop_assert_eq!(&analytical.per_npu_finish, &backend.per_npu_finish);
        prop_assert_eq!(analytical.breakdown, backend.breakdown);
    }

    /// The other provably-coincident class: multi-chunk single-phase
    /// programs (Reduce-Scatter, All-Gather, All-to-All on one dimension)
    /// — the lane pipelines chunks back-to-back, which is exactly the
    /// fluid model's bottleneck term.
    #[test]
    fn single_phase_chunked_backend_equals_closed_form_bit_exactly(
        notation in prop::sample::select(vec!["R(8)@100", "SW(16)@50", "FC(4)@200", "SW(4)@100"]),
        collective in prop::sample::select(vec![
            Collective::ReduceScatter, Collective::AllGather, Collective::AllToAll,
        ]),
        kib in 1u64..200_000,
        chunks in 1u64..40,
    ) {
        let topo = Topology::parse(notation).unwrap();
        let size = DataSize::from_kib(kib);
        let trace = world_collective_trace(topo.npus(), collective, size);
        let analytical = run(&trace, &topo, NetworkBackendKind::Analytical,
                             CollectiveMode::Analytical, chunks);
        let backend = run(&trace, &topo, NetworkBackendKind::Analytical,
                          CollectiveMode::Backend, chunks);
        prop_assert_eq!(
            analytical.total_time, backend.total_time,
            "{} x{} on {} diverged", collective, chunks, notation
        );
    }

    /// Uncongested single-tenant equivalence across all four backends on
    /// switch topologies: the backend-executed finish stays within the
    /// documented modeling deltas of the closed form — at most the fluid
    /// model's pipeline-fill overestimate below, at most the packet
    /// store-and-forward overhead above.
    #[test]
    fn uncongested_collectives_agree_across_all_backends(
        topo in arb_switch_topology(),
        collective in arb_collective(),
        mib in 16u64..129,
        chunks in prop::sample::select(vec![1u64, 4, 8]),
    ) {
        let size = DataSize::from_mib(mib);
        let trace = world_collective_trace(topo.npus(), collective, size);
        let analytical = run(&trace, &topo, NetworkBackendKind::Analytical,
                             CollectiveMode::Analytical, chunks)
            .total_time;
        for backend in NetworkBackendKind::ALL {
            let executed = run(&trace, &topo, backend, CollectiveMode::Backend,
                               chunks)
                .total_time;
            let ratio = executed.as_us_f64() / analytical.as_us_f64();
            prop_assert!(
                (0.9..1.1).contains(&ratio),
                "{} x{} on {} via {}: executed {} vs closed form {} (ratio {})",
                collective, chunks, topo, backend, executed, analytical, ratio
            );
        }
    }
}

/// A collective overlapping a p2p send on shared links — the scenario no
/// analytical-collective mode can express: with `CollectiveMode::
/// Analytical` the collective is priced by the closed form and never
/// touches the backend, so the p2p message rides a quiet network; with
/// `CollectiveMode::Backend` on a congestion-aware backend the chunk ops
/// and the p2p message contend and the finish is strictly later.
#[test]
fn collectives_and_p2p_contend_only_in_backend_mode() {
    let topo = Topology::parse("SW(4)@100").unwrap();
    let size = DataSize::from_mib(32);
    let mut b = TraceBuilder::new(4);
    let world = b.add_group((0..4).collect());
    for npu in 0..4 {
        b.node(
            npu,
            "coll",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size,
                group: world,
            },
            &[],
        );
    }
    // A concurrent p2p transfer into NPU 0: its route shares NPU 0's
    // switch down-link with the collective's chunk ops (which all end at
    // the group representative).
    b.node(
        2,
        "send",
        EtOp::PeerSend {
            peer: 0,
            size: DataSize::from_mib(16),
            tag: 7,
        },
        &[],
    );
    b.node(
        0,
        "recv",
        EtOp::PeerRecv {
            peer: 2,
            size: DataSize::from_mib(16),
            tag: 7,
        },
        &[],
    );
    let trace = b.build().unwrap();

    let total = |backend, mode| run(&trace, &topo, backend, mode, 8).total_time;
    let closed_form = total(NetworkBackendKind::Flow, CollectiveMode::Analytical);
    for backend in [NetworkBackendKind::Flow, NetworkBackendKind::Packet] {
        let executed = total(backend, CollectiveMode::Backend);
        assert!(
            executed > closed_form,
            "{backend}: contended backend execution {executed} should exceed \
             the uncoupled closed form {closed_form}"
        );
    }
    // The congestion-free analytical backend cannot couple them either —
    // backend execution there stays at (just under) the closed form.
    let analytical_backend = total(NetworkBackendKind::Analytical, CollectiveMode::Backend);
    assert!(analytical_backend <= closed_form);
}

/// Two same-group collectives issued back-to-back with no dependency:
/// their programs' chunk ops share NIC lanes, so they serialize in Backend
/// mode just as the closed form's `free_at` chaining serializes them in
/// Analytical mode.
#[test]
fn overlapping_collectives_serialize_in_both_modes() {
    let topo = Topology::parse("SW(4)@100").unwrap();
    let size = DataSize::from_mib(32);
    let make = |count: usize| {
        let mut b = TraceBuilder::new(4);
        let world = b.add_group((0..4).collect());
        for npu in 0..4 {
            for k in 0..count {
                b.node(
                    npu,
                    format!("coll{k}"),
                    EtOp::Collective {
                        collective: Collective::AllReduce,
                        size,
                        group: world,
                    },
                    &[],
                );
            }
        }
        b.build().unwrap()
    };
    for mode in CollectiveMode::ALL {
        let one = run(&make(1), &topo, NetworkBackendKind::Analytical, mode, 8).total_time;
        let two = run(&make(2), &topo, NetworkBackendKind::Analytical, mode, 8).total_time;
        let ratio = two.as_us_f64() / one.as_us_f64();
        assert!(
            ratio > 1.9,
            "{mode}: two back-to-back collectives should serialize ({ratio})"
        );
    }
}

/// Sibling groups use disjoint lanes and (on stateful backends) disjoint
/// links: they run in parallel in Backend mode exactly as in Analytical
/// mode.
#[test]
fn sibling_groups_run_in_parallel_in_backend_mode() {
    let topo = Topology::parse("R(4)@100_SW(4)@50").unwrap();
    let make = |groups: &[Vec<usize>]| {
        let mut b = TraceBuilder::new(16);
        for members in groups {
            let g = b.add_group(members.clone());
            for &npu in members {
                b.node(
                    npu,
                    "ar",
                    EtOp::Collective {
                        collective: Collective::AllReduce,
                        size: DataSize::from_mib(64),
                        group: g,
                    },
                    &[],
                );
            }
        }
        b.build().unwrap()
    };
    for backend in NetworkBackendKind::ALL {
        let one = run(
            &make(&[(0..4).collect()]),
            &topo,
            backend,
            CollectiveMode::Backend,
            8,
        );
        let four = run(
            &make(&[
                (0..4).collect(),
                (4..8).collect(),
                (8..12).collect(),
                (12..16).collect(),
            ]),
            &topo,
            backend,
            CollectiveMode::Backend,
            8,
        );
        assert_eq!(one.total_time, four.total_time, "{backend}");
    }
}

/// The breakdown attribution stays exhaustive in Backend mode.
#[test]
fn backend_mode_breakdown_sums_to_total() {
    let topo = Topology::parse("SW(4)@100_SW(2)@50").unwrap();
    let trace = world_collective_trace(8, Collective::AllReduce, DataSize::from_mib(64));
    for backend in NetworkBackendKind::ALL {
        let report = run(&trace, &topo, backend, CollectiveMode::Backend, 16);
        assert_eq!(report.breakdown.total(), report.total_time, "{backend}");
        assert!(report.breakdown.exposed_comm > Time::ZERO);
    }
}

/// Invalid configurations are rejected with typed errors, not panics.
#[test]
fn invalid_backend_collective_configs_are_rejected() {
    let topo = Topology::parse("SW(4)@100").unwrap();
    let trace = world_collective_trace(4, Collective::AllReduce, DataSize::from_mib(1));
    let base = SystemConfig {
        collective_mode: CollectiveMode::Backend,
        ..SystemConfig::default()
    };
    // Backend collectives ride the async NetworkAPI: the blocking-p2p
    // oracle rejects them.
    assert_eq!(
        simulate_blocking_reference(&trace, &topo, &base),
        Err(SimError::BackendCollectivesNeedAsyncP2p)
    );
    assert_eq!(
        simulate(
            &trace,
            &topo,
            &SystemConfig {
                scheduler: SchedulerPolicy::Themis,
                ..base.clone()
            }
        ),
        Err(SimError::BackendCollectivesNeedBaselineScheduler)
    );
    // The valid combination runs.
    assert!(simulate(&trace, &topo, &base).is_ok());
}

/// Zero-size collectives and single-member groups complete instantly in
/// Backend mode, without touching the network backend.
#[test]
fn degenerate_collectives_are_instant_in_backend_mode() {
    let topo = Topology::parse("SW(4)@100").unwrap();
    let mut b = TraceBuilder::new(4);
    let world = b.add_group((0..4).collect());
    let solo = b.add_group(vec![2]);
    for npu in 0..4 {
        b.node(
            npu,
            "zero",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::ZERO,
                group: world,
            },
            &[],
        );
    }
    b.node(
        2,
        "solo",
        EtOp::Collective {
            collective: Collective::AllReduce,
            size: DataSize::from_gib(1),
            group: solo,
        },
        &[],
    );
    let trace = b.build().unwrap();
    let report = run(
        &trace,
        &topo,
        NetworkBackendKind::Packet,
        CollectiveMode::Backend,
        8,
    );
    assert_eq!(report.total_time, Time::ZERO);
    assert_eq!(report.collective_ops, 0);
    assert_eq!(report.network.backend_setups, 0, "no backend was built");
}

/// Golden picosecond pins: one Backend-mode All-Reduce per network backend,
/// so future refactors cannot silently
/// drift chunk schedules. The workload is the 16-NPU hierarchical
/// All-Reduce of 64 MiB in 16 chunks on `SW(8)@100_SW(2)@50`.
#[test]
fn golden_backend_collective_pins() {
    let topo = Topology::parse("SW(8)@100_SW(2)@50").unwrap();
    let trace = world_collective_trace(16, Collective::AllReduce, DataSize::from_mib(64));
    // The analytical and fluid backends agree bit-exactly (switch links
    // carry the full aggregate bandwidth); the packet backends add their
    // store-and-forward per-hop pipelining and clock-floor serialization.
    let expected = [
        (NetworkBackendKind::Analytical, Time::from_ps(1_177_405_120)),
        (NetworkBackendKind::Packet, Time::from_ps(1_229_376_640)),
        (NetworkBackendKind::Batched, Time::from_ps(1_229_376_640)),
        (NetworkBackendKind::Flow, Time::from_ps(1_177_405_120)),
    ];
    for (backend, want) in expected {
        let report = run(&trace, &topo, backend, CollectiveMode::Backend, 16);
        assert_eq!(report.total_time, want, "{backend}: chunk schedule drifted");
    }
}
