//! Golden fixture for the graph engine ([`simulate`]).
//!
//! The engine's event order, the arrival order inside every collective
//! meeting and every report field are part of its contract: a change to
//! how the engine stores its per-event state must not move a single
//! picosecond. This suite renders the `Debug` form of `simulate` reports
//! for a fixed matrix and compares it byte for byte with a committed
//! fixture:
//!
//! * preset traces: GPT-3 hybrid MP16 on 256 NPUs, a GPT-3 GPipe pipeline
//!   (4 stages, 4 microbatches), DLRM data parallel, Transformer-1T
//!   hybrid, and MoE on a hierarchical memory pool — each under both
//!   schedulers and three fault cases (none, a degraded link, a straggler
//!   NPU);
//! * one GPT-3 hybrid run with backend-executed collectives on the packet
//!   backend, and the same run under an event budget and a simulated-time
//!   budget that both trip mid-run;
//! * the GPT-3 pipeline with its stage-to-stage messages on the packet
//!   backend;
//! * two hand-built traces: one where a member issues instance `k + 1` of
//!   a group before another member reaches instance `k`, with three groups
//!   sharing one representative NPU; and one loaded with `from_json` whose
//!   group members are unsorted.
//!
//! Model depths are truncated so the suite stays fast in a debug build.
//!
//! Re-bless deliberately with `ASTRA_BLESS=1 cargo test -p astra-system
//! --test engine_golden`.

use std::fmt::Write as _;

use astra_collectives::{Collective, CollectiveMode, SchedulerPolicy};
use astra_des::{DataSize, Time};
use astra_memory::{presets, PoolArchitecture};
use astra_network::NetworkBackendKind;
use astra_system::{simulate, FaultKind, FaultSchedule, SystemConfig};
use astra_topology::Topology;
use astra_workload::parallelism::{generate_disaggregated_moe, OffloadPlan};
use astra_workload::{
    models, parallelism, EtOp, ExecutionTrace, Model, NodeId, Parallelism, Roofline, TraceBuilder,
};

/// 256 NPUs; NPUs 0 and 1 share a ring link.
const TOPO_256: &str = "R(16)@400_SW(16)@100";
/// 16 NPUs; NPUs 0 and 1 share a ring link.
const TOPO_16: &str = "R(4)@100_SW(4)@50";

fn truncated(mut model: Model, layers: usize) -> Model {
    model.layers.truncate(layers);
    model
}

fn preset(model: Model, parallelism: Parallelism, npus: usize) -> ExecutionTrace {
    parallelism::generate_trace(&model, parallelism, npus).expect("valid preset trace")
}

fn compute(flops: f64) -> EtOp {
    EtOp::Compute {
        flops,
        tensor: DataSize::ZERO,
    }
}

fn collective(collective: Collective, mib: u64, group: astra_workload::GroupId) -> EtOp {
    EtOp::Collective {
        collective,
        size: DataSize::from_mib(mib),
        group,
    }
}

/// Overlapping meetings on one group, plus three groups whose
/// representative is NPU 0: `a` and `b` both span dimension 0 from NPU 0,
/// so they share its lane; `c` spans dimension 1.
fn overlapping_meetings() -> ExecutionTrace {
    use Collective::{AllGather, AllReduce, AllToAll, ReduceScatter};
    let mut b = TraceBuilder::new(16);
    let a = b.add_group(vec![0, 1, 2, 3]);
    let pair = b.add_group(vec![0, 1]);
    let c = b.add_group(vec![0, 4, 8, 12]);

    // NPU 0 reaches the first `a` instance late.
    let c0 = b.node(0, "fwd", compute(2e12), &[]);
    let a0 = b.node(0, "a0", collective(AllReduce, 8, a), &[c0]);
    let p0 = b.node(0, "p0", collective(AllGather, 4, pair), &[c0]);
    b.node(0, "a1", collective(ReduceScatter, 16, a), &[a0]);
    b.node(0, "c0", collective(AllToAll, 32, c), &[p0]);

    // NPU 1 issues instances 0 and 1 of `a` at t = 0.
    b.node(1, "a0", collective(AllReduce, 8, a), &[]);
    let a1 = b.node(1, "a1", collective(ReduceScatter, 16, a), &[]);
    b.node(1, "p0", collective(AllGather, 4, pair), &[a1]);

    // NPU 2 reaches instance 0 after a long compute.
    let c2 = b.node(2, "fwd", compute(5e12), &[]);
    let a0 = b.node(2, "a0", collective(AllReduce, 8, a), &[c2]);
    b.node(2, "a1", collective(ReduceScatter, 16, a), &[a0]);

    let a0 = b.node(3, "a0", collective(AllReduce, 8, a), &[]);
    b.node(3, "a1", collective(ReduceScatter, 16, a), &[a0]);

    for npu in [4, 8, 12] {
        let fwd = b.node(npu, "fwd", compute(1e12 * npu as f64), &[]);
        let x = b.node(npu, "c0", collective(AllToAll, 32, c), &[fwd]);
        b.node(npu, "bwd", compute(1e11), &[x]);
    }
    for npu in (5..16).filter(|n| n % 4 != 0) {
        b.node(npu, "idle", compute(1e11), &[]);
    }
    b.build().expect("overlapping meetings are a valid trace")
}

/// A `from_json` trace whose communicator groups list their members out
/// of order (as an external converter may emit them).
fn unsorted_groups() -> ExecutionTrace {
    let mut b = TraceBuilder::new(16);
    let row = b.add_group(vec![4, 5, 6, 7]);
    let column = b.add_group(vec![1, 5, 9, 13]);
    for npu in 4..8 {
        let fwd = b.node(npu, "fwd", compute(1e12 * (8 - npu) as f64), &[]);
        b.node(
            npu,
            "ar",
            collective(Collective::AllReduce, 64, row),
            &[fwd],
        );
    }
    for npu in [1, 5, 9, 13] {
        let last: Vec<NodeId> = b.last_node(npu).into_iter().collect();
        b.node(
            npu,
            "ag",
            collective(Collective::AllGather, 16, column),
            &last,
        );
    }
    let json = b
        .build()
        .expect("unsorted-group source is a valid trace")
        .to_json()
        .expect("traces serialize");
    let compact: String = json.split_whitespace().collect();
    let sorted = "\"groups\":[[4,5,6,7],[1,5,9,13]]";
    assert!(compact.contains(sorted), "unexpected trace JSON layout");
    let unsorted = compact.replace(sorted, "\"groups\":[[6,4,7,5],[13,5,1,9]]");
    ExecutionTrace::from_json(&unsorted).expect("the edited trace parses")
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

fn hiermem() -> SystemConfig {
    SystemConfig {
        roofline: Roofline::table5_gpu(),
        local_memory: presets::case_study_hbm(),
        remote_memory: Some(PoolArchitecture::Hierarchical(presets::hiermem_baseline())),
        ..SystemConfig::default()
    }
}

/// Renders every report of the matrix, one labelled line each.
fn render() -> String {
    let topo_256 = Topology::parse(TOPO_256).expect("valid notation");
    let topo_16 = Topology::parse(TOPO_16).expect("valid notation");
    let moe = generate_disaggregated_moe(
        &truncated(models::moe_1t(), 2),
        256,
        &OffloadPlan::default(),
    )
    .expect("valid moe trace");
    let cases: Vec<(&str, ExecutionTrace, &Topology, SystemConfig)> = vec![
        (
            "gpt3_hybrid_mp16",
            preset(
                truncated(models::gpt3_175b(), 4),
                Parallelism::Hybrid { mp: 16 },
                256,
            ),
            &topo_256,
            SystemConfig::default(),
        ),
        (
            "gpt3_pipeline",
            preset(
                truncated(models::gpt3_175b(), 8),
                Parallelism::Pipeline {
                    stages: 4,
                    microbatches: 4,
                },
                16,
            ),
            &topo_16,
            SystemConfig::default(),
        ),
        (
            "dlrm_data",
            preset(models::dlrm_57m(), Parallelism::Data, 16),
            &topo_16,
            SystemConfig::default(),
        ),
        (
            "t1t_hybrid",
            preset(
                truncated(models::transformer_1t(), 2),
                Parallelism::Hybrid { mp: 128 },
                256,
            ),
            &topo_256,
            SystemConfig::default(),
        ),
        ("moe_hiermem", moe, &topo_256, hiermem()),
        (
            "overlapping_meetings",
            overlapping_meetings(),
            &topo_16,
            SystemConfig::default(),
        ),
        (
            "unsorted_groups",
            unsorted_groups(),
            &topo_16,
            SystemConfig::default(),
        ),
    ];
    let mut out = String::new();
    for (name, trace, topo, base) in &cases {
        for scheduler in [SchedulerPolicy::Baseline, SchedulerPolicy::Themis] {
            for (fault_name, faults) in fault_cases() {
                let config = SystemConfig {
                    scheduler,
                    faults,
                    ..base.clone()
                };
                let report = simulate(trace, topo, &config).expect("valid engine run");
                writeln!(out, "{name} {scheduler:?} {fault_name}: {report:?}")
                    .expect("writing to a String cannot fail");
            }
        }
    }
    let backend = SystemConfig {
        network_backend: NetworkBackendKind::Packet,
        collective_mode: CollectiveMode::Backend,
        collective_chunks: 4,
        ..SystemConfig::default()
    };
    let trace = preset(
        truncated(models::gpt3_175b(), 1),
        Parallelism::Hybrid { mp: 4 },
        16,
    );
    let report = simulate(&trace, &topo_16, &backend).expect("valid backend run");
    writeln!(out, "gpt3_hybrid_mp4 backend packet: {report:?}")
        .expect("writing to a String cannot fail");
    // Budgets that trip while the packet backend is mid-run: the error
    // carries the event count and the instant at which the engine noticed.
    let budgets = [
        (
            "max_events",
            SystemConfig {
                max_events: Some(100_000),
                ..backend.clone()
            },
        ),
        (
            "max_sim_time",
            SystemConfig {
                max_sim_time: Some(Time::from_us(30_000)),
                ..backend
            },
        ),
    ];
    for (budget, config) in &budgets {
        let result = simulate(&trace, &topo_16, config);
        assert!(result.is_err(), "the {budget} budget must trip mid-run");
        writeln!(out, "gpt3_hybrid_mp4 backend packet {budget}: {result:?}")
            .expect("writing to a String cannot fail");
    }
    let pipeline = preset(
        truncated(models::gpt3_175b(), 8),
        Parallelism::Pipeline {
            stages: 4,
            microbatches: 4,
        },
        16,
    );
    let packet_p2p = SystemConfig {
        network_backend: NetworkBackendKind::Packet,
        ..SystemConfig::default()
    };
    let report = simulate(&pipeline, &topo_16, &packet_p2p).expect("valid packet p2p run");
    writeln!(out, "gpt3_pipeline p2p packet: {report:?}").expect("writing to a String cannot fail");
    out
}

#[test]
fn engine_reports_match_the_golden_fixture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_golden.txt"
    );
    let rendered = render();
    if std::env::var_os("ASTRA_BLESS").is_some() {
        std::fs::write(fixture, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(fixture).expect(
        "missing golden fixture; generate with \
         `ASTRA_BLESS=1 cargo test -p astra-system --test engine_golden`",
    );
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "engine report drifted on fixture line {}",
            line + 1
        );
    }
    assert_eq!(
        rendered, golden,
        "engine fixture differs in length; if the change is deliberate, \
         re-bless with `ASTRA_BLESS=1 cargo test -p astra-system --test \
         engine_golden` and commit the diff"
    );
}
