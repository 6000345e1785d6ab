//! The `packet` backend answers per-packet.
//!
//! `simulate` runs the packet backend on train transport and reruns it
//! per-packet when the train run serialized a train it could not rewind or
//! tripped a budget. This suite pins the result against the per-packet
//! ground truth ([`simulate_transport_reference`] on
//! [`TransportMode::PerPacket`]): every `SimReport` field must be equal
//! except `network.train_splits`, the one counter that depends on the
//! transport. The grid covers pipeline p2p and backend-executed
//! collectives of every preset workload on three topologies, each with no
//! fault, a degraded link, a dead link and a straggler NPU. Two more cases
//! take the fallback: a run whose trains serialize, and a run whose event
//! budget trips. Traced runs must also write the same trace bytes.

use astra_collectives::CollectiveMode;
use astra_des::Time;
use astra_garnet::TransportMode;
use astra_memory::{presets, PoolArchitecture};
use astra_network::NetworkBackendKind;
use astra_system::{
    simulate, simulate_traced, simulate_transport_reference, FaultKind, FaultSchedule, SimError,
    SimReport, SystemConfig, TraceFormat,
};
use astra_topology::Topology;
use astra_workload::parallelism::{generate_disaggregated_moe, OffloadPlan};
use astra_workload::{models, parallelism, ExecutionTrace, Model, Parallelism, Roofline};

/// 16-NPU topologies in which NPUs 0 and 1 share a ring link, so every
/// fault case applies.
const TOPOLOGIES: [&str; 3] = ["R(4)@100_SW(4)@50", "R(4)@200_R(4)@50", "R(8)@100_SW(2)@50"];

fn truncated(mut model: Model, layers: usize) -> Model {
    model.layers.truncate(layers);
    model
}

fn preset(model: Model, parallelism: Parallelism) -> ExecutionTrace {
    parallelism::generate_trace(&model, parallelism, 16).expect("valid preset trace")
}

fn fault_cases() -> Vec<(&'static str, FaultSchedule)> {
    let single = |kind| {
        let mut schedule = FaultSchedule::new();
        schedule.push(Time::ZERO, kind);
        schedule
    };
    vec![
        ("none", FaultSchedule::new()),
        (
            "link_degrade",
            single(FaultKind::LinkDegrade {
                src: 0,
                dst: 1,
                bandwidth_pct: 50,
                latency_x: 2,
            }),
        ),
        ("link_down", single(FaultKind::LinkDown { src: 0, dst: 1 })),
        (
            "npu_slowdown",
            single(FaultKind::NpuSlowdown {
                npu: 3,
                slowdown_pct: 200,
            }),
        ),
    ]
}

/// The packet backend with pipeline p2p (analytical collectives), or
/// with backend-executed collectives in four chunks.
fn packet(collective_mode: CollectiveMode) -> SystemConfig {
    SystemConfig {
        network_backend: NetworkBackendKind::Packet,
        collective_mode,
        collective_chunks: 4,
        ..SystemConfig::default()
    }
}

/// The workloads of the grid, each with its base configuration.
fn workloads() -> Vec<(&'static str, ExecutionTrace, SystemConfig)> {
    let backend = packet(CollectiveMode::Backend);
    let moe =
        generate_disaggregated_moe(&truncated(models::moe_1t(), 1), 16, &OffloadPlan::default())
            .expect("valid moe trace");
    vec![
        (
            "gpt3_pipeline_p2p",
            preset(
                truncated(models::gpt3_175b(), 4),
                Parallelism::Pipeline {
                    stages: 4,
                    microbatches: 4,
                },
            ),
            packet(CollectiveMode::Analytical),
        ),
        (
            "gpt3_hybrid_backend",
            preset(
                truncated(models::gpt3_175b(), 1),
                Parallelism::Hybrid { mp: 4 },
            ),
            backend.clone(),
        ),
        (
            "t1t_hybrid_backend",
            preset(
                truncated(models::transformer_1t(), 1),
                Parallelism::Hybrid { mp: 4 },
            ),
            backend.clone(),
        ),
        (
            "dlrm_data_backend",
            preset(models::dlrm_57m(), Parallelism::Data),
            backend.clone(),
        ),
        (
            "moe_hiermem_backend",
            moe,
            SystemConfig {
                roofline: Roofline::table5_gpu(),
                local_memory: presets::case_study_hbm(),
                remote_memory: Some(PoolArchitecture::Hierarchical(presets::hiermem_baseline())),
                ..backend
            },
        ),
    ]
}

/// The per-packet ground truth.
fn per_packet(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<SimReport, SimError> {
    simulate_transport_reference(trace, topo, config, TransportMode::PerPacket).0
}

/// Whether the train-transport run of a configuration is exact, and how
/// many overlapping trains it split.
fn train_run(trace: &ExecutionTrace, topo: &Topology, config: &SystemConfig) -> (bool, u64) {
    let (result, _, exact) =
        simulate_transport_reference(trace, topo, config, TransportMode::Batched);
    (exact, result.map_or(0, |r| r.network.train_splits))
}

/// Asserts `simulate` equals the per-packet reference in every field but
/// `network.train_splits`.
fn assert_per_packet(
    label: &str,
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<SimReport, SimError> {
    let mut got = simulate(trace, topo, config);
    let want = per_packet(trace, topo, config);
    if let (Ok(got), Ok(want)) = (&mut got, &want) {
        assert_eq!(want.network.train_splits, 0, "{label}");
        got.network.train_splits = 0;
    }
    assert_eq!(got, want, "{label}: packet diverged from per-packet");
    got
}

#[test]
fn packet_reports_the_per_packet_answer_on_every_workload_topology_and_fault() {
    let workloads = workloads();
    let (mut runs, mut exact, mut split) = (0, 0, 0);
    for notation in TOPOLOGIES {
        let topo = Topology::parse(notation).expect("valid notation");
        for (name, trace, base) in &workloads {
            for (fault, faults) in fault_cases() {
                let config = SystemConfig {
                    faults,
                    ..base.clone()
                };
                let label = format!("{name} on {notation} with {fault}");
                let report = assert_per_packet(&label, trace, &topo, &config)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(report.network.events > 0, "{label}: no packet traffic");
                let (train_exact, splits) = train_run(trace, &topo, &config);
                runs += 1;
                exact += usize::from(train_exact);
                split += usize::from(train_exact && splits > 0);
            }
        }
    }
    // The grid exercises both paths: most answers come from exact train
    // runs, some of them splitting overlapping trains, and some from the
    // per-packet rerun.
    assert!(exact * 2 > runs, "{exact} of {runs} train runs exact");
    assert!(exact < runs, "no grid run took the per-packet fallback");
    assert!(split > 0, "no exact train run split a train");
}

#[test]
fn serialized_trains_fall_back_to_per_packet() {
    // Multi-hop ring sends of a two-lane pipeline overlap on shared links
    // after their resident trains' downstream events fired: the train run
    // serializes them.
    let topo = Topology::parse("R(8)@100").expect("valid notation");
    let trace = parallelism::generate_trace(
        &truncated(models::gpt3_175b(), 8),
        Parallelism::Pipeline {
            stages: 4,
            microbatches: 4,
        },
        8,
    )
    .expect("valid preset trace");
    let config = packet(CollectiveMode::Analytical);
    assert!(
        !train_run(&trace, &topo, &config).0,
        "this pipeline must serialize a train, or the fallback is untested"
    );
    assert_per_packet("serializing pipeline", &trace, &topo, &config).expect("valid run");
}

#[test]
fn tripped_budgets_report_the_per_packet_error() {
    let topo = Topology::parse(TOPOLOGIES[0]).expect("valid notation");
    let trace = preset(
        truncated(models::gpt3_175b(), 1),
        Parallelism::Hybrid { mp: 4 },
    );
    for config in [
        SystemConfig {
            max_events: Some(100_000),
            ..packet(CollectiveMode::Backend)
        },
        SystemConfig {
            max_sim_time: Some(Time::from_us(30_000)),
            ..packet(CollectiveMode::Backend)
        },
    ] {
        let result = assert_per_packet("budget", &trace, &topo, &config);
        assert!(
            matches!(result, Err(SimError::BudgetExceeded { .. })),
            "the budget must trip mid-run: {result:?}"
        );
    }
}

#[test]
fn traced_runs_write_the_per_packet_trace_bytes() {
    let topo = Topology::parse(TOPOLOGIES[0]).expect("valid notation");
    let trace = preset(
        truncated(models::gpt3_175b(), 1),
        Parallelism::Hybrid { mp: 4 },
    );
    let mut faults = FaultSchedule::new();
    faults.push(
        Time::ZERO,
        FaultKind::LinkDegrade {
            src: 0,
            dst: 1,
            bandwidth_pct: 50,
            latency_x: 2,
        },
    );
    let config = SystemConfig {
        telemetry: true,
        faults,
        ..packet(CollectiveMode::Backend)
    };
    let (report, got) = simulate_traced(&trace, &topo, &config);
    let (want_report, want, _) =
        simulate_transport_reference(&trace, &topo, &config, TransportMode::PerPacket);
    assert_eq!(report, want_report);
    let (got, want) = (got.expect("traced"), want.expect("traced"));
    assert!(!got.links.is_empty(), "no link grants recorded");
    assert_eq!(
        TraceFormat::Chrome.render(&got),
        TraceFormat::Chrome.render(&want)
    );
}
