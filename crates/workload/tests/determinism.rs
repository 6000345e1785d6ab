//! Byte-level determinism of the trace generators under concurrency.
//!
//! Trace generation runs on its caller's thread and shares one stored
//! program per class. These tests pin that neither is observable: for every
//! strategy, traces generated by 1, 2 or 8 threads at once are
//! byte-identical to each other *and* to the frozen naive baseline
//! (`generate_trace_reference`), at NPU counts taken from ring- and
//! star-(switch-)hierarchical topologies at 64 and 512 NPUs.

use astra_topology::Topology;
use astra_workload::{
    models,
    parallelism::{
        generate_disaggregated_moe, generate_disaggregated_moe_reference, generate_trace,
        generate_trace_reference, OffloadPlan,
    },
    Model, Parallelism,
};

/// Numbers of threads generating the same trace at once.
const THREADS: [usize; 3] = [1, 2, 8];

/// The NPU counts under test come from real hierarchical platforms: a
/// ring-of-rings (torus) and a star-of-stars (switch hierarchy) at 64 and
/// 512 NPUs each.
fn topology_sizes() -> Vec<usize> {
    let topologies = [
        "R(8)@100_R(8)@100",            // ring hierarchy, 64 NPUs
        "SW(8)@100_SW(8)@50",           // star hierarchy, 64 NPUs
        "R(8)@200_R(8)@100_R(8)@50",    // ring hierarchy, 512 NPUs
        "SW(8)@200_SW(8)@100_SW(8)@50", // star hierarchy, 512 NPUs
    ];
    topologies
        .iter()
        .map(|n| Topology::parse(n).unwrap().npus())
        .collect()
}

/// A GPT-3-like model truncated to 8 layers so the 512-NPU cases stay fast
/// in debug builds while still exercising every node type.
fn model8() -> Model {
    let mut model = models::gpt3_175b();
    model.layers.truncate(8);
    model
}

/// Runs `generate` on `threads` threads at once and asserts each result
/// equals `reference` byte for byte.
fn assert_concurrent_runs_match(reference: &str, what: &str, generate: impl Fn() -> String + Sync) {
    for threads in THREADS {
        let outputs: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(&generate)).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for output in outputs {
            assert!(
                output == reference,
                "{what} diverges from the serial reference with {threads} threads"
            );
        }
    }
}

/// Asserts the memoizing fast path equals the reference byte for byte at
/// every pinned thread count.
fn assert_deterministic(model: &Model, parallelism: Parallelism, npus: usize) {
    let reference = generate_trace_reference(model, parallelism, npus)
        .unwrap()
        .to_json()
        .unwrap();
    assert_concurrent_runs_match(
        &reference,
        &format!("{parallelism:?} at {npus} NPUs"),
        || {
            generate_trace(model, parallelism, npus)
                .unwrap()
                .to_json()
                .unwrap()
        },
    );
}

#[test]
fn data_parallel_is_thread_count_invariant() {
    let model = model8();
    for npus in topology_sizes() {
        assert_deterministic(&model, Parallelism::Data, npus);
    }
}

#[test]
fn hybrid_is_thread_count_invariant() {
    let model = model8();
    for npus in topology_sizes() {
        assert_deterministic(&model, Parallelism::Hybrid { mp: 16 }, npus);
    }
}

#[test]
fn pipeline_is_thread_count_invariant() {
    let model = model8();
    for npus in topology_sizes() {
        assert_deterministic(
            &model,
            Parallelism::Pipeline {
                stages: 8,
                microbatches: 4,
            },
            npus,
        );
    }
}

#[test]
fn fsdp_is_thread_count_invariant() {
    let model = model8();
    for npus in topology_sizes() {
        assert_deterministic(&model, Parallelism::FullyShardedData, npus);
    }
}

#[test]
fn disaggregated_moe_is_thread_count_invariant() {
    let mut model = models::moe_1t();
    model.layers.truncate(4);
    for plan in [
        OffloadPlan::default(),
        OffloadPlan {
            optimizer_bytes_per_param: 12,
            gather_weights: false,
        },
    ] {
        for npus in topology_sizes() {
            let reference = generate_disaggregated_moe_reference(&model, npus, &plan)
                .unwrap()
                .to_json()
                .unwrap();
            assert_concurrent_runs_match(&reference, &format!("MoE at {npus} NPUs"), || {
                generate_disaggregated_moe(&model, npus, &plan)
                    .unwrap()
                    .to_json()
                    .unwrap()
            });
        }
    }
}
