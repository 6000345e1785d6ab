//! Orbit collapse pins: a run that simulates one NPU per orbit reports
//! exactly what the full engine reports.
//!
//! Every workload preset (GPT-3 hybrid, data and FSDP; Transformer-1T;
//! DLRM; MoE on each of the three memory systems; an All-Reduce
//! microbenchmark) runs on topologies of one to three dimensions, under
//! both schedulers and two chunk counts, through [`simulate`] and the
//! full-engine oracle [`simulate_full_reference`], and the two reports
//! must be equal field for field. Runs that may not collapse (pipeline
//! p2p, backend collectives, faults, budgets, telemetry) must keep one
//! block per NPU. Hand-built traces pin lane-block keying, the error of a
//! malformed `from_json` group, the cap on refinement rounds, and time
//! ties that NPUs of one orbit break differently, which must send the run
//! back to the full engine.

use astra_collectives::{Collective, CollectiveMode, SchedulerPolicy};
use astra_des::{DataSize, Time};
use astra_memory::{presets, PoolArchitecture};
use astra_system::{
    orbit_count, simulate, simulate_full_reference, FaultKind, FaultSchedule, SimError,
    SystemConfig,
};
use astra_topology::Topology;
use astra_workload::parallelism::{generate_disaggregated_moe, OffloadPlan};
use astra_workload::{models, parallelism, EtOp, ExecutionTrace, Model, Parallelism, Roofline};
use astra_workload::{GroupId, TraceBuilder};

/// One to three dimensions over ring, fully-connected and switch blocks;
/// every NPU count is a multiple of MoE's 16 experts.
const TOPOLOGIES: [&str; 4] = [
    "SW(16)@100",
    "R(4)@250_SW(8)@100",
    "FC(4)@200_R(4)@100_SW(4)@50",
    "R(8)@300_FC(4)@150_SW(8)@50",
];

const MEMORIES: [&str; 3] = ["hiermem-base", "hiermem-opt", "zero-infinity"];

fn truncated(mut model: Model, layers: usize) -> Model {
    model.layers.truncate(layers);
    model
}

fn all_reduce(npus: usize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let world = b.add_group((0..npus).collect());
    for npu in 0..npus {
        b.node(
            npu,
            "ar",
            collective(Collective::AllReduce, 256, world),
            &[],
        );
    }
    b.build().expect("valid all-reduce trace")
}

fn collective(collective: Collective, mib: u64, group: GroupId) -> EtOp {
    EtOp::Collective {
        collective,
        size: DataSize::from_mib(mib),
        group,
    }
}

fn memory_config(memory: &str) -> SystemConfig {
    let pool = match memory {
        "hiermem-base" => PoolArchitecture::Hierarchical(presets::hiermem_baseline()),
        "hiermem-opt" => PoolArchitecture::Hierarchical(presets::hiermem_opt()),
        _ => PoolArchitecture::ZeroInfinity(presets::zero_infinity()),
    };
    SystemConfig {
        roofline: Roofline::table5_gpu(),
        local_memory: presets::case_study_hbm(),
        remote_memory: Some(pool),
        ..SystemConfig::default()
    }
}

/// Every workload preset on `npus` NPUs: its name, trace and base config.
fn workloads(npus: usize) -> Vec<(String, ExecutionTrace, SystemConfig)> {
    let gpt3 = truncated(models::gpt3_175b(), 2);
    let t1t = truncated(models::transformer_1t(), 2);
    let hybrid = |model: &Model| Parallelism::Hybrid {
        mp: model.default_mp.min(npus),
    };
    let generate = |model: &Model, parallelism| {
        parallelism::generate_trace(model, parallelism, npus).expect("valid preset trace")
    };
    let mut out = vec![
        ("gpt3 hybrid", generate(&gpt3, hybrid(&gpt3))),
        ("gpt3 data", generate(&gpt3, Parallelism::Data)),
        ("gpt3 fsdp", generate(&gpt3, Parallelism::FullyShardedData)),
        ("t1t hybrid", generate(&t1t, hybrid(&t1t))),
        (
            "dlrm data",
            generate(&models::dlrm_57m(), Parallelism::Data),
        ),
        ("all-reduce", all_reduce(npus)),
    ]
    .into_iter()
    .map(|(name, trace)| (name.to_string(), trace, SystemConfig::default()))
    .collect::<Vec<_>>();
    let moe = generate_disaggregated_moe(
        &truncated(models::moe_1t(), 2),
        npus,
        &OffloadPlan::default(),
    )
    .expect("valid MoE trace");
    for memory in MEMORIES {
        out.push((format!("moe {memory}"), moe.clone(), memory_config(memory)));
    }
    out
}

#[test]
fn collapsed_runs_report_what_the_full_engine_reports() {
    let (mut cases, mut collapsed) = (0, 0);
    for notation in TOPOLOGIES {
        let topo = Topology::parse(notation).unwrap();
        for (name, trace, base) in workloads(topo.npus()) {
            for scheduler in [SchedulerPolicy::Baseline, SchedulerPolicy::Themis] {
                for chunks in [1, 4] {
                    let config = SystemConfig {
                        scheduler,
                        collective_chunks: chunks,
                        ..base.clone()
                    };
                    let case = format!("{name} on {notation}, {scheduler:?}, {chunks} chunks");
                    let full = simulate_full_reference(&trace, &topo, &config);
                    assert!(full.is_ok(), "{case}: {full:?}");
                    assert_eq!(simulate(&trace, &topo, &config), full, "{case}");
                    let orbits = orbit_count(&trace, &topo, &config).unwrap();
                    cases += 1;
                    collapsed += usize::from(orbits < topo.npus());
                }
            }
        }
    }
    assert!(
        collapsed * 4 >= cases * 3,
        "only {collapsed} of {cases} runs collapsed"
    );
}

#[test]
fn runs_that_interact_beyond_closed_form_collectives_stay_whole() {
    let topo = Topology::parse("R(4)@250_SW(4)@100").unwrap();
    let gpt3 = truncated(models::gpt3_175b(), 4);
    let hybrid = parallelism::generate_trace(&gpt3, Parallelism::Hybrid { mp: 4 }, 16).unwrap();
    assert!(orbit_count(&hybrid, &topo, &SystemConfig::default()).unwrap() < 16);

    let pipeline = parallelism::generate_trace(
        &gpt3,
        Parallelism::Pipeline {
            stages: 4,
            microbatches: 4,
        },
        16,
    )
    .unwrap();
    let mut faults = FaultSchedule::new();
    faults.push(
        Time::ZERO,
        FaultKind::NpuSlowdown {
            npu: 3,
            slowdown_pct: 200,
        },
    );
    let whole = [
        ("pipeline p2p", &pipeline, SystemConfig::default()),
        (
            "backend collectives",
            &hybrid,
            SystemConfig {
                collective_mode: CollectiveMode::Backend,
                ..SystemConfig::default()
            },
        ),
        (
            "a straggler",
            &hybrid,
            SystemConfig {
                faults,
                ..SystemConfig::default()
            },
        ),
        (
            "an event budget",
            &hybrid,
            SystemConfig {
                max_events: Some(u64::MAX),
                ..SystemConfig::default()
            },
        ),
        (
            "a time budget",
            &hybrid,
            SystemConfig {
                max_sim_time: Some(Time::from_secs(3600)),
                ..SystemConfig::default()
            },
        ),
        (
            "telemetry",
            &hybrid,
            SystemConfig {
                telemetry: true,
                ..SystemConfig::default()
            },
        ),
    ];
    for (name, trace, config) in whole {
        assert_eq!(orbit_count(trace, &topo, &config), Ok(16), "{name}");
    }
}

fn compute(flops: f64) -> EtOp {
    EtOp::Compute {
        flops,
        tensor: DataSize::ZERO,
    }
}

/// Sixteen NPUs on a 4 × 4 grid, `npu = x + 4y`. Row `y` is a group, and
/// so are its halves `{4y, 4y+1}` and `{4y+2, 4y+3}`. A row and its lower
/// half share their first NPU, hence its dimension-0 lane, so every row's
/// All-Reduce, issued after a short compute, waits for its lower half's
/// All-Gather, issued at once; the upper half has a lane of its own. Rows
/// fall into one group block, lower halves into another, and the four
/// shared lanes into one lane block used by both group blocks. The lower
/// halves are added in the order `y = 1, 0, 2, 3`, so the lowest-numbered
/// lower half (the block's representative group) sits on a different row
/// than the representative row: keying a block's lanes by its
/// representative group's first NPU would give the two blocks distinct
/// lanes and lose the contention. Without `halves`, the NPUs run only the
/// rows' All-Reduces.
fn shared_lanes(halves: bool) -> ExecutionTrace {
    let mut b = TraceBuilder::new(16);
    let rows: Vec<GroupId> = (0..4)
        .map(|y| b.add_group((4 * y..4 * y + 4).collect()))
        .collect();
    let mut lower = [GroupId(0); 4];
    for y in [1, 0, 2, 3] {
        lower[y] = b.add_group(vec![4 * y, 4 * y + 1]);
    }
    let upper: Vec<GroupId> = (0..4)
        .map(|y| b.add_group(vec![4 * y + 2, 4 * y + 3]))
        .collect();
    for npu in 0..16 {
        let y = npu / 4;
        let half = if npu % 4 < 2 { lower[y] } else { upper[y] };
        let think = b.node(npu, "think", compute(1e9), &[]);
        b.node(
            npu,
            "row",
            collective(Collective::AllReduce, 64, rows[y]),
            &[think],
        );
        if halves {
            b.node(
                npu,
                "half",
                collective(Collective::AllGather, 32, half),
                &[],
            );
        }
    }
    b.build().expect("valid shared-lane trace")
}

#[test]
fn group_blocks_sharing_lanes_contend_on_lane_blocks() {
    let topo = Topology::parse("R(4)@100_SW(4)@50").unwrap();
    let trace = shared_lanes(true);
    let config = SystemConfig::default();
    assert_eq!(orbit_count(&trace, &topo, &config), Ok(2));
    let full = simulate_full_reference(&trace, &topo, &config).unwrap();
    assert_eq!(simulate(&trace, &topo, &config).unwrap(), full);
    // The contention is real: the lower half's All-Gather holds the shared
    // lane, so every row's All-Reduce ends later than it does alone.
    let rows = simulate_full_reference(&shared_lanes(false), &topo, &config).unwrap();
    assert!(full.total_time > rows.total_time);
}

/// A two-NPU All-Reduce on group `[0, 1]` of `R(4)@100` whose NPUs 2 and
/// 3 run the same program alone, loaded with `from_json` after replacing
/// its group list with `groups`.
fn edited_groups(groups: &str) -> (ExecutionTrace, Topology) {
    let topo = Topology::parse("R(4)@100").unwrap();
    let mut b = TraceBuilder::new(4);
    let pair = b.add_group(vec![0, 1]);
    let other = b.add_group(vec![2, 3]);
    for npu in 0..4 {
        let group = if npu < 2 { pair } else { other };
        b.node(npu, "ar", collective(Collective::AllReduce, 1, group), &[]);
    }
    let json: String = b.build().unwrap().to_json().unwrap();
    let compact: String = json.split_whitespace().collect();
    let edited = compact.replace("\"groups\":[[0,1],[2,3]]", &format!("\"groups\":{groups}"));
    assert_ne!(edited, compact, "group list not found");
    (ExecutionTrace::from_json(&edited).unwrap(), topo)
}

#[test]
fn malformed_json_groups_keep_their_error() {
    let config = SystemConfig::default();
    // Unsorted members: both groups and all four NPUs are alike.
    let (trace, topo) = edited_groups("[[1,0],[3,2]]");
    assert_eq!(orbit_count(&trace, &topo, &config), Ok(1));
    assert_eq!(
        simulate(&trace, &topo, &config),
        simulate_full_reference(&trace, &topo, &config)
    );
    for (groups, error) in [
        // NPU 1 issues on a group it is not a member of.
        ("[[0,2],[3,2]]", SimError::UnalignedGroup { group: 0 }),
        // NPUs 2 and 3 name a group the trace does not define.
        ("[[0,1]]", SimError::UnalignedGroup { group: 1 }),
    ] {
        let (trace, topo) = edited_groups(groups);
        assert_eq!(orbit_count(&trace, &topo, &config), Ok(4), "{groups}");
        assert_eq!(simulate(&trace, &topo, &config), Err(error.clone()));
        assert_eq!(
            simulate_full_reference(&trace, &topo, &config),
            Err(error),
            "{groups}"
        );
    }
}

#[test]
fn gpt3_hybrid_collapses_at_65536_npus() {
    // Both figures were checked against the full engine.
    let topo = Topology::parse("SW(64)@400_SW(1024)@100").unwrap();
    let trace = parallelism::generate_trace(
        &models::gpt3_175b(),
        Parallelism::Hybrid { mp: 16 },
        topo.npus(),
    )
    .unwrap();
    let config = SystemConfig::default();
    let orbits = orbit_count(&trace, &topo, &config).unwrap();
    assert!(orbits <= 8, "{orbits} orbits");
    let report = simulate(&trace, &topo, &config).unwrap();
    assert_eq!(report.total_time, Time::from_ps(667_371_325_976));
    assert_eq!(report.collectives, 787_968);
}

#[test]
fn an_npu_in_two_groups_of_one_block_stays_whole() {
    // NPU 0 meets NPU 1 in one group and NPU 2 in another. The two groups
    // and NPUs 1 and 2 are alike, but one representative meeting cannot
    // stand for both of NPU 0's groups, so the run is not collapsed.
    let topo = Topology::parse("R(3)@100").unwrap();
    let mut b = TraceBuilder::new(3);
    let left = b.add_group(vec![0, 1]);
    let right = b.add_group(vec![0, 2]);
    b.node(0, "left", collective(Collective::AllReduce, 8, left), &[]);
    b.node(0, "right", collective(Collective::AllReduce, 8, right), &[]);
    b.node(1, "left", collective(Collective::AllReduce, 8, left), &[]);
    b.node(2, "right", collective(Collective::AllReduce, 8, right), &[]);
    let trace = b.build().unwrap();
    let config = SystemConfig::default();
    assert_eq!(orbit_count(&trace, &topo, &config), Ok(3));
    assert_eq!(
        simulate(&trace, &topo, &config),
        simulate_full_reference(&trace, &topo, &config)
    );
}

/// The engine breaks time ties in event order, which NPUs of one orbit
/// need not see alike: here all sixteen NPUs of `R(4)@100_R(4)@100` are
/// alike, but seeding launches row 0's All-Reduce (at NPU 3) before any
/// column's, and column `x`'s (at NPU `12 + x`) before row 3's (at NPU
/// 15). Both finish at one instant, so NPU 0 computes `c1` before `c2`
/// and NPUs 12-14 compute `c2` first, and row 3's second All-Reduce
/// starts later than row 0's. The quotient run sees its one block issue
/// two computes at one instant from different steps and reruns whole.
#[test]
fn ties_that_npus_of_one_orbit_break_apart_run_whole() {
    let topo = Topology::parse("R(4)@100_R(4)@100").unwrap();
    let mut b = TraceBuilder::new(16);
    let rows: Vec<GroupId> = (0..4)
        .map(|y| b.add_group((4 * y..4 * y + 4).collect()))
        .collect();
    let cols: Vec<GroupId> = (0..4)
        .map(|x| b.add_group((0..4).map(|y| x + 4 * y).collect()))
        .collect();
    for npu in 0..16 {
        let (x, y) = (npu % 4, npu / 4);
        let a = b.node(npu, "a", collective(Collective::AllReduce, 8, rows[y]), &[]);
        let c = b.node(npu, "b", collective(Collective::AllReduce, 8, cols[x]), &[]);
        let c1 = b.node(npu, "c1", compute(1e12), &[a]);
        b.node(npu, "c2", compute(3e12), &[c]);
        b.node(
            npu,
            "d1",
            collective(Collective::AllReduce, 8, rows[y]),
            &[c1],
        );
    }
    let trace = b.build().unwrap();
    let config = SystemConfig::default();
    let full = simulate_full_reference(&trace, &topo, &config).unwrap();
    assert_ne!(
        full.per_npu_finish[0], full.per_npu_finish[12],
        "NPUs 0 and 12 finish apart"
    );
    assert_eq!(simulate(&trace, &topo, &config).unwrap(), full);
    assert_eq!(orbit_count(&trace, &topo, &config), Ok(16));
}

/// Two groups share NPU 0's lane on `R(10)@100` and launch at one instant
/// during seeding: `wide = {0, 1, 2, 3, 9}` at NPU 9 and `narrow = {0, 4,
/// 5}` at NPU 5, so `narrow` takes the lane first. Side groups `{1, 9}`
/// and `{2, 3, 8}` make NPUs 1 and 9 alike and 2 and 3 alike. A quotient
/// seeds blocks in order of their lowest NPU, so `wide` completes at the
/// block `{2, 3}`, before `narrow` completes at `{4, 5}`: the lane would
/// go to `wide` first. The quotient run sees two launches take one lane
/// at one instant in an order it cannot vouch for and reruns whole.
#[test]
fn lane_ties_the_quotient_cannot_order_run_whole() {
    let topo = Topology::parse("R(10)@100").unwrap();
    let mut b = TraceBuilder::new(10);
    let wide = b.add_group(vec![0, 1, 2, 3, 9]);
    let narrow = b.add_group(vec![0, 4, 5]);
    let pair = b.add_group(vec![1, 9]);
    let triple = b.add_group(vec![2, 3, 8]);
    for npu in 0..10 {
        let groups: &[GroupId] = match npu {
            0 => &[wide, narrow],
            1 | 9 => &[wide, pair],
            2 | 3 => &[wide, triple],
            4 | 5 => &[narrow],
            8 => &[triple],
            _ => &[],
        };
        for (i, &group) in groups.iter().enumerate() {
            let name = if i == 0 { "first" } else { "second" };
            b.node(npu, name, collective(Collective::AllReduce, 64, group), &[]);
        }
        if groups.is_empty() {
            b.node(npu, "idle", compute(1e9), &[]);
        }
    }
    let trace = b.build().unwrap();
    let config = SystemConfig::default();
    assert_eq!(
        simulate(&trace, &topo, &config),
        simulate_full_reference(&trace, &topo, &config)
    );
    assert_eq!(orbit_count(&trace, &topo, &config), Ok(10));
}

/// NPUs `0..4096` of `R(4096)@100` stand on a line, and each all-reduces
/// with its neighbours over the groups `{i, i + 1}`. The line's ends run
/// one All-Reduce, everyone else two, and that difference spreads one NPU
/// per refinement round: refinement would take about 2,048 rounds over
/// every NPU, group and lane to pair each NPU with its mirror image. It
/// gives up after a fixed number of rounds instead, and the run stays
/// whole.
#[test]
fn refinement_that_does_not_settle_leaves_the_run_whole() {
    let npus = 4096;
    let topo = Topology::parse("R(4096)@100").unwrap();
    let mut b = TraceBuilder::new(npus);
    let pairs: Vec<GroupId> = (0..npus - 1).map(|i| b.add_group(vec![i, i + 1])).collect();
    for npu in 0..npus {
        // Outward first, so NPU `i` and its mirror `4095 - i` run one
        // program.
        let mut sides = vec![pairs.get(npu), npu.checked_sub(1).map(|i| &pairs[i])];
        if npu >= npus / 2 {
            sides.reverse();
        }
        for group in sides.into_iter().flatten() {
            b.node(npu, "ar", collective(Collective::AllReduce, 1, *group), &[]);
        }
    }
    let trace = b.build().unwrap();
    let config = SystemConfig::default();
    assert_eq!(orbit_count(&trace, &topo, &config), Ok(npus));
    assert_eq!(
        simulate(&trace, &topo, &config),
        simulate_full_reference(&trace, &topo, &config)
    );
}
