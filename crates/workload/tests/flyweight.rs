//! Flyweight trace storage: NPUs of one equivalence class share one stored
//! program, so a generated trace's memory grows with its classes, not its
//! NPUs — while every observable (per-NPU node counts, equality with the
//! frozen one-class-per-NPU reference, the JSON bytes) stays as if each NPU
//! held its own copy. Every generator stores one program per class: one
//! for data, FSDP, hybrid and MoE traces, one per stage for pipelines.

use astra_workload::{
    models,
    parallelism::{
        generate_disaggregated_moe, generate_disaggregated_moe_reference, generate_trace,
        generate_trace_reference, OffloadPlan,
    },
    ExecutionTrace, Model, Parallelism,
};

/// GPT-3 truncated to 8 layers, so reference builds stay quick in debug
/// builds while still exercising every node type.
fn model8() -> Model {
    let mut model = models::gpt3_175b();
    model.layers.truncate(8);
    model
}

/// Asserts `trace` stores exactly `classes` programs, each once.
fn assert_one_program_per_class(trace: &ExecutionTrace, classes: usize) {
    assert_eq!(trace.classes().len(), classes, "{}", trace.name());
    let per_npu = (0..trace.npus()).map(|npu| trace.program(npu).len());
    assert_eq!(trace.total_nodes(), per_npu.sum::<usize>());
    for npu in 0..trace.npus() {
        let class = trace.class_of(npu);
        assert!(std::ptr::eq(
            trace.program(npu),
            &trace.classes()[class][..]
        ));
    }
}

#[test]
fn gpt3_hybrid_stores_one_program_at_65536_npus() {
    let npus = 65_536;
    let trace = generate_trace(&models::gpt3_175b(), Parallelism::Hybrid { mp: 16 }, npus).unwrap();
    let program = trace.program(0).len();
    assert_eq!(trace.stored_nodes(), program);
    assert_eq!(trace.total_nodes(), npus * program);
    assert_one_program_per_class(&trace, 1);
}

#[test]
fn gpt3_hybrid_at_1048576_npus_has_65552_groups_and_one_class() {
    // 65,536 MP groups of 16 plus 16 DP groups of 65,536: group dedup must
    // not scan every earlier group.
    let npus = 1 << 20;
    let trace = generate_trace(&models::gpt3_175b(), Parallelism::Hybrid { mp: 16 }, npus).unwrap();
    assert_eq!(trace.groups().len(), 65_552);
    assert_eq!(trace.classes().len(), 1);
    assert_eq!(trace.group(astra_workload::GroupId(65_551))[1], 16 + 15);
}

#[test]
fn gpt3_hybrid_at_2048_npus_stores_480_of_983040_nodes() {
    let trace = generate_trace(&models::gpt3_175b(), Parallelism::Hybrid { mp: 16 }, 2048).unwrap();
    assert_eq!(trace.stored_nodes(), 480);
    assert_eq!(trace.total_nodes(), 983_040);
}

#[test]
fn memoised_generators_store_one_program_per_class_at_1024_npus() {
    let npus = 1024;
    let model = model8();
    for (parallelism, classes) in [
        (Parallelism::Data, 1),
        (Parallelism::FullyShardedData, 1),
        (Parallelism::Hybrid { mp: 16 }, 1),
        (
            Parallelism::Pipeline {
                stages: 8,
                microbatches: 4,
            },
            8,
        ),
    ] {
        let trace = generate_trace(&model, parallelism, npus).unwrap();
        assert_one_program_per_class(&trace, classes);
    }
    // Disaggregated MoE: one class, each NPU naming its own expert group.
    let moe = models::moe_1t();
    for plan in [
        OffloadPlan::default(),
        OffloadPlan {
            optimizer_bytes_per_param: 12,
            gather_weights: false,
        },
    ] {
        let trace = generate_disaggregated_moe(&moe, npus, &plan).unwrap();
        assert_one_program_per_class(&trace, 1);
    }
}

/// Asserts a generated trace equals the frozen reference, semantically and
/// in its JSON bytes.
fn assert_matches_reference(reference: &ExecutionTrace, fast: &ExecutionTrace, what: &str) {
    assert_eq!(reference.classes().len(), reference.npus(), "{what}");
    assert_eq!(reference, fast, "{what}");
    assert!(
        reference.to_json().unwrap() == fast.to_json().unwrap(),
        "{what}: JSON bytes differ"
    );
}

#[test]
fn reference_equals_fast_path_for_every_generator() {
    let model = model8();
    let moe = models::moe_1t();
    for npus in [64, 256, 512] {
        for (parallelism, classes) in [
            (Parallelism::Data, 1),
            (Parallelism::FullyShardedData, 1),
            (Parallelism::Hybrid { mp: 16 }, 1),
            (
                Parallelism::Pipeline {
                    stages: 8,
                    microbatches: 4,
                },
                8,
            ),
        ] {
            let reference = generate_trace_reference(&model, parallelism, npus).unwrap();
            let fast = generate_trace(&model, parallelism, npus).unwrap();
            assert_eq!(fast.classes().len(), classes, "{parallelism:?}");
            assert_matches_reference(
                &reference,
                &fast,
                &format!("{parallelism:?} at {npus} NPUs"),
            );
        }
        for plan in [
            OffloadPlan::default(),
            OffloadPlan {
                optimizer_bytes_per_param: 12,
                gather_weights: false,
            },
        ] {
            let fast = generate_disaggregated_moe(&moe, npus, &plan).unwrap();
            assert_eq!(fast.classes().len(), 1);
            assert_matches_reference(
                &generate_disaggregated_moe_reference(&moe, npus, &plan).unwrap(),
                &fast,
                &format!("MoE at {npus} NPUs"),
            );
        }
    }
}

#[test]
fn json_round_trip_holds_on_flyweight_traces() {
    let model = model8();
    for parallelism in [
        Parallelism::Data,
        Parallelism::Hybrid { mp: 16 },
        Parallelism::Pipeline {
            stages: 8,
            microbatches: 4,
        },
    ] {
        let trace = generate_trace(&model, parallelism, 64).unwrap();
        let json = trace.to_json().unwrap();
        let restored = ExecutionTrace::from_json(&json).unwrap();
        assert_eq!(restored, trace, "{parallelism:?}");
        // The parsed trace stores one program per NPU yet writes the same
        // bytes.
        assert_eq!(restored.classes().len(), 64);
        assert_eq!(restored.to_json().unwrap(), json, "{parallelism:?}");
    }
    let mut moe = models::moe_1t();
    moe.layers.truncate(4);
    let trace = generate_disaggregated_moe(&moe, 64, &OffloadPlan::default()).unwrap();
    let json = trace.to_json().unwrap();
    assert_eq!(ExecutionTrace::from_json(&json).unwrap(), trace);
}
