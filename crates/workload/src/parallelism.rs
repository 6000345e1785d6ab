//! Parallelization-strategy trace generators (§II-A).
//!
//! Each generator encodes a parallelization strategy as an execution trace
//! — the decoupling that lets ASTRA-sim 2.0 simulate *arbitrary*
//! parallelism (§IV-A). Provided strategies:
//!
//! * [`Parallelism::Data`] — mini-batch split across all NPUs; weight
//!   gradients All-Reduced during the backward pass.
//! * [`Parallelism::Hybrid`] — Megatron-style MP×DP: contiguous
//!   model-parallel groups All-Reduce activations per layer; strided
//!   data-parallel groups All-Reduce weight gradients.
//! * [`Parallelism::Pipeline`] — GPipe-style micro-batch pipeline with
//!   peer-to-peer activation/gradient transfers: different NPUs run
//!   *different* programs, which the original ASTRA-sim could not express.
//! * [`generate_disaggregated_moe`] — the §V-B expert-parallel MoE training
//!   step over a disaggregated memory pool (in-switch weight gathering,
//!   optimizer-state streaming, token-routing All-to-Alls).
//!
//! # Flyweight construction
//!
//! Every generator sorts its NPUs into classes that run one program up to
//! the groups and peers it names, and builds each class's program once, on
//! the caller's thread: SPMD strategies (data, FSDP, hybrid MP×DP) and the
//! MoE workload form one class, a pipeline one class per stage. The trace
//! stores that program once; each NPU gets a slot table naming its own
//! groups and peers. So generation cost and trace memory grow with the
//! number of classes, not NPUs. [`generate_trace_reference`] keeps the
//! naive one-NPU-at-a-time path (one class per NPU) as the
//! equivalence/benchmark baseline.

use astra_collectives::Collective;
use astra_des::DataSize;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::models::Model;
use crate::trace::{
    EtOp, ExecutionTrace, GroupId, MemoryDirection, NodeId, ProgramBuilder, TensorLocation,
    TraceBuilder,
};

/// A parallelization strategy for [`generate_trace`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Pure data parallelism over all NPUs.
    Data,
    /// Hybrid model × data parallelism with `mp`-wide model groups.
    Hybrid {
        /// Model-parallel group width.
        mp: usize,
    },
    /// GPipe-style pipeline parallelism.
    Pipeline {
        /// Number of pipeline stages (layers are split evenly).
        stages: usize,
        /// Micro-batches per iteration.
        microbatches: usize,
    },
    /// Fully-sharded data parallelism (FSDP / ZeRO-3): parameters,
    /// gradients, and optimizer state are sharded across all NPUs;
    /// each layer's weights are All-Gathered just-in-time before use and
    /// gradients are Reduce-Scattered right after the backward pass —
    /// trading extra communication for an N-fold memory-footprint cut
    /// (one of the emerging strategies motivating the graph engine, §I).
    FullyShardedData,
}

/// Errors from trace generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenerateError {
    /// The NPU count is incompatible with the strategy.
    BadShape {
        /// Explanation of the mismatch.
        reason: String,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::BadShape { reason } => write!(f, "bad workload shape: {reason}"),
        }
    }
}

impl Error for GenerateError {}

/// Internal knobs of one generation run.
#[derive(Copy, Clone, Debug)]
struct GenConfig {
    /// Share one program among the NPUs of an equivalence class.
    memoize: bool,
}

impl GenConfig {
    fn fast() -> Self {
        GenConfig { memoize: true }
    }

    /// The naive baseline: every program built fresh.
    fn reference() -> Self {
        GenConfig { memoize: false }
    }
}

/// Builds every NPU's program and installs them on `b` in NPU order.
///
/// `class` assigns each NPU an equivalence key: NPUs with equal keys
/// **must** build programs that are identical up to the groups their
/// collectives name, mapped by `retarget`, and the peers their messages
/// name, translated. The first NPU of a class (its representative) builds
/// the program, which `b` stores once. Every member shares it with the
/// representative's groups passed through `retarget(representative, npu,
/// group)`, and with the representative's peers moved by `npu -
/// representative`: a member's peer sits as far from it as the
/// representative's from the representative. Generators whose classes
/// name the same groups pass the identity. The naive reference
/// ([`GenConfig::reference`]) builds every NPU's program fresh.
fn install_programs<K, B, R>(
    b: &mut TraceBuilder,
    npus: usize,
    cfg: GenConfig,
    class: K,
    build: B,
    retarget: R,
) where
    K: Fn(usize) -> u64,
    B: Fn(usize, &mut ProgramBuilder),
    R: Fn(usize, usize, GroupId) -> GroupId,
{
    // Per class key: its representative, stored class and slot tables.
    let mut first: BTreeMap<u64, (usize, u32, Vec<GroupId>, Vec<usize>)> = BTreeMap::new();
    for npu in 0..npus {
        let key = if cfg.memoize { class(npu) } else { npu as u64 };
        let (rep, class, groups, peers) = first.entry(key).or_insert_with(|| {
            let mut program = ProgramBuilder::new();
            build(npu, &mut program);
            let (class, groups, peers) = b.add_class(program);
            (npu, class, groups, peers)
        });
        let rep = *rep;
        b.share(
            npu,
            *class,
            groups.iter().map(|&g| retarget(rep, npu, g)),
            peers.iter().map(|&p| p + npu - rep),
        );
    }
}

/// Generates the execution trace of one training iteration of `model`
/// under `parallelism` on `npus` NPUs.
///
/// The result equals [`generate_trace_reference`]'s, stored one program
/// per class.
///
/// # Errors
///
/// Returns [`GenerateError::BadShape`] if `npus` is incompatible with the
/// strategy (e.g. not divisible by the model-parallel width).
///
/// # Example
///
/// ```
/// use astra_workload::{models, parallelism, Parallelism};
///
/// let trace = parallelism::generate_trace(
///     &models::gpt3_175b(), Parallelism::Hybrid { mp: 16 }, 512,
/// ).unwrap();
/// assert_eq!(trace.npus(), 512);
/// ```
pub fn generate_trace(
    model: &Model,
    parallelism: Parallelism,
    npus: usize,
) -> Result<ExecutionTrace, GenerateError> {
    generate(model, parallelism, npus, GenConfig::fast())
}

/// [`generate_trace`], for the benchmark package that still calls it:
/// `threads` is ignored. A later change to the benchmark deletes it.
///
/// # Errors
///
/// Returns [`GenerateError::BadShape`] if `npus` is incompatible with the
/// strategy.
#[doc(hidden)]
pub fn generate_trace_with_threads(
    model: &Model,
    parallelism: Parallelism,
    npus: usize,
    _threads: usize,
) -> Result<ExecutionTrace, GenerateError> {
    generate_trace(model, parallelism, npus)
}

/// The frozen naive baseline: builds every NPU's program serially, from
/// scratch, with no cross-NPU reuse — the behaviour of the original
/// generators. Kept as the ground truth for the byte-equivalence tests and
/// as the "serial" side of the `astra-bench` throughput comparison.
///
/// # Errors
///
/// Returns [`GenerateError::BadShape`] if `npus` is incompatible with the
/// strategy.
// frozen-ref: 04be29f49eeaceca
pub fn generate_trace_reference(
    model: &Model,
    parallelism: Parallelism,
    npus: usize,
) -> Result<ExecutionTrace, GenerateError> {
    generate(model, parallelism, npus, GenConfig::reference())
}

fn generate(
    model: &Model,
    parallelism: Parallelism,
    npus: usize,
    cfg: GenConfig,
) -> Result<ExecutionTrace, GenerateError> {
    if npus == 0 {
        return Err(GenerateError::BadShape {
            reason: "need at least one NPU".to_owned(),
        });
    }
    match parallelism {
        Parallelism::Data => Ok(data_parallel(model, npus, cfg)),
        Parallelism::Hybrid { mp } => hybrid(model, npus, mp, cfg),
        Parallelism::Pipeline {
            stages,
            microbatches,
        } => pipeline(model, npus, stages, microbatches, cfg),
        Parallelism::FullyShardedData => Ok(fully_sharded(model, npus, cfg)),
    }
}

/// FSDP / ZeRO-3: every layer's parameters live sharded across the world
/// group. Forward: All-Gather weights, compute, discard. Backward:
/// All-Gather weights again, compute, Reduce-Scatter gradients. Weight
/// gathers for layer `l+1` depend only on layer `l`'s gather, so
/// prefetching overlaps communication with compute.
fn fully_sharded(model: &Model, npus: usize, cfg: GenConfig) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus).with_name(format!("{}-fsdp{npus}", model.name));
    let world = b.add_group((0..npus).collect());
    // SPMD: every NPU runs the same program (class key 0).
    install_programs(
        &mut b,
        npus,
        cfg,
        |_| 0,
        |_, prog| {
            let mut prev_compute: Option<NodeId> = None;
            let mut prev_gather: Option<NodeId> = None;
            let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
            // Forward pass: gather -> compute per layer; gathers chain off each
            // other (prefetch), computes chain off (gather, previous compute).
            for layer in &model.layers {
                let gather = prog.node(
                    format!("{}.wAG.fwd", layer.name),
                    EtOp::Collective {
                        collective: Collective::AllGather,
                        size: layer.params,
                        group: world,
                    },
                    &dep(prev_gather),
                );
                prev_gather = Some(gather);
                let mut deps = vec![gather];
                if let Some(c) = prev_compute {
                    deps.push(c);
                }
                let fwd = prog.node(
                    format!("{}.fwd", layer.name),
                    EtOp::Compute {
                        flops: layer.fwd_flops,
                        tensor: layer.params + layer.activations,
                    },
                    &deps,
                );
                prev_compute = Some(fwd);
            }
            // Backward pass (reverse): re-gather weights, compute, then
            // Reduce-Scatter the gradients into their shards.
            let mut prev_gather: Option<NodeId> = prev_compute;
            for layer in model.layers.iter().rev() {
                let gather = prog.node(
                    format!("{}.wAG.bwd", layer.name),
                    EtOp::Collective {
                        collective: Collective::AllGather,
                        size: layer.params,
                        group: world,
                    },
                    &dep(prev_gather),
                );
                prev_gather = Some(gather);
                let mut deps = vec![gather];
                if let Some(c) = prev_compute {
                    deps.push(c);
                }
                let bwd = prog.node(
                    format!("{}.bwd", layer.name),
                    EtOp::Compute {
                        flops: layer.bwd_flops,
                        tensor: layer.params + layer.activations,
                    },
                    &deps,
                );
                prev_compute = Some(bwd);
                prog.node(
                    format!("{}.gradRS", layer.name),
                    EtOp::Collective {
                        collective: Collective::ReduceScatter,
                        size: layer.params,
                        group: world,
                    },
                    &[bwd],
                );
            }
        },
        |_, _, group| group,
    );
    // astra-lint: allow(panic, the generator emits structurally valid traces; a build failure is a generator bug)
    b.build().expect("generated FSDP trace is valid")
}

fn data_parallel(model: &Model, npus: usize, cfg: GenConfig) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus).with_name(format!("{}-dp{npus}", model.name));
    let world = b.add_group((0..npus).collect());
    // SPMD: every NPU runs the same program (class key 0).
    install_programs(
        &mut b,
        npus,
        cfg,
        |_| 0,
        |_, prog| {
            let mut prev: Option<NodeId> = None;
            let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
            // Forward pass.
            for layer in &model.layers {
                if let Some(a2a) = layer.a2a {
                    prev = Some(prog.node(
                        format!("{}.a2a.fwd", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllToAll,
                            size: a2a,
                            group: world,
                        },
                        &dep(prev),
                    ));
                }
                prev = Some(prog.node(
                    format!("{}.fwd", layer.name),
                    EtOp::Compute {
                        flops: layer.fwd_flops,
                        tensor: layer.params + layer.activations,
                    },
                    &dep(prev),
                ));
            }
            // Backward pass; gradient All-Reduce overlaps with earlier layers'
            // backward compute (it depends only on its own layer's backward).
            for layer in model.layers.iter().rev() {
                let bwd = prog.node(
                    format!("{}.bwd", layer.name),
                    EtOp::Compute {
                        flops: layer.bwd_flops,
                        tensor: layer.params + layer.activations,
                    },
                    &dep(prev),
                );
                prev = Some(bwd);
                if let Some(a2a) = layer.a2a {
                    prev = Some(prog.node(
                        format!("{}.a2a.bwd", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllToAll,
                            size: a2a,
                            group: world,
                        },
                        &[bwd],
                    ));
                }
                prog.node(
                    format!("{}.gradAR", layer.name),
                    EtOp::Collective {
                        collective: Collective::AllReduce,
                        size: layer.params,
                        group: world,
                    },
                    &[bwd],
                );
            }
        },
        |_, _, group| group,
    );
    // astra-lint: allow(panic, the generator emits structurally valid traces; a build failure is a generator bug)
    b.build().expect("generated data-parallel trace is valid")
}

fn hybrid(
    model: &Model,
    npus: usize,
    mp: usize,
    cfg: GenConfig,
) -> Result<ExecutionTrace, GenerateError> {
    if mp == 0 || !npus.is_multiple_of(mp) {
        return Err(GenerateError::BadShape {
            reason: format!("{npus} NPUs not divisible into model-parallel groups of {mp}"),
        });
    }
    let dp = npus / mp;
    let mut b = TraceBuilder::new(npus).with_name(format!("{}-mp{mp}-dp{dp}", model.name));
    // MP groups are contiguous id blocks (inner, fastest dimensions); DP
    // groups stride across them (outer dimensions).
    let mp_groups: Vec<_> = (0..dp)
        .map(|g| b.add_group((g * mp..(g + 1) * mp).collect()))
        .collect();
    let dp_groups: Vec<_> = (0..mp)
        .map(|lane| b.add_group((0..dp).map(|g| g * mp + lane).collect()))
        .collect();

    // Every NPU has a distinct (mp_group, dp_group) pair, but the programs
    // are byte-identical *up to those two group ids*: names, sizes and
    // dependencies depend only on the model and `mp`. So all NPUs form one
    // equivalence class sharing one stored program; each NPU's group table
    // retargets the representative's two groups at its own.
    install_programs(
        &mut b,
        npus,
        cfg,
        |_| 0,
        |npu, prog| {
            let mp_group = mp_groups[npu / mp];
            let dp_group = dp_groups[npu % mp];
            let mut prev: Option<NodeId> = None;
            let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
            for layer in &model.layers {
                if let Some(a2a) = layer.a2a {
                    prev = Some(prog.node(
                        format!("{}.a2a.fwd", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllToAll,
                            size: a2a,
                            group: mp_group,
                        },
                        &dep(prev),
                    ));
                }
                let fwd = prog.node(
                    format!("{}.fwd", layer.name),
                    EtOp::Compute {
                        flops: layer.fwd_flops / mp as f64,
                        tensor: (layer.params + layer.activations) / mp as u64,
                    },
                    &dep(prev),
                );
                // Megatron-style activation All-Reduce across the MP group.
                prev = Some(if mp > 1 {
                    prog.node(
                        format!("{}.actAR.fwd", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllReduce,
                            size: layer.activations,
                            group: mp_group,
                        },
                        &[fwd],
                    )
                } else {
                    fwd
                });
            }
            for layer in model.layers.iter().rev() {
                let bwd = prog.node(
                    format!("{}.bwd", layer.name),
                    EtOp::Compute {
                        flops: layer.bwd_flops / mp as f64,
                        tensor: (layer.params + layer.activations) / mp as u64,
                    },
                    &dep(prev),
                );
                prev = Some(if mp > 1 {
                    prog.node(
                        format!("{}.actAR.bwd", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllReduce,
                            size: layer.activations,
                            group: mp_group,
                        },
                        &[bwd],
                    )
                } else {
                    bwd
                });
                if dp > 1 {
                    prog.node(
                        format!("{}.gradAR", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllReduce,
                            size: layer.params / mp as u64,
                            group: dp_group,
                        },
                        &[bwd],
                    );
                }
            }
        },
        |rep, npu, group| {
            if group == mp_groups[rep / mp] {
                mp_groups[npu / mp]
            } else if group == dp_groups[rep % mp] {
                dp_groups[npu % mp]
            } else {
                group
            }
        },
    );
    // astra-lint: allow(panic, the generator emits structurally valid traces; a build failure is a generator bug)
    Ok(b.build().expect("generated hybrid trace is valid"))
}

fn pipeline(
    model: &Model,
    npus: usize,
    stages: usize,
    microbatches: usize,
    cfg: GenConfig,
) -> Result<ExecutionTrace, GenerateError> {
    if stages == 0 || !npus.is_multiple_of(stages) {
        return Err(GenerateError::BadShape {
            reason: format!("{npus} NPUs not divisible into {stages} pipeline stages"),
        });
    }
    if microbatches == 0 {
        return Err(GenerateError::BadShape {
            reason: "need at least one microbatch".to_owned(),
        });
    }
    if !model.layers.len().is_multiple_of(stages) {
        return Err(GenerateError::BadShape {
            reason: format!(
                "{} layers not divisible into {stages} stages",
                model.layers.len()
            ),
        });
    }
    let lanes = npus / stages;
    let layers_per_stage = model.layers.len() / stages;
    let mut b =
        TraceBuilder::new(npus).with_name(format!("{}-pp{stages}x{microbatches}", model.name));
    // DP group within each stage (the lanes replicate the stage).
    let stage_groups: Vec<_> = (0..stages)
        .map(|s| b.add_group((0..lanes).map(|l| s * lanes + l).collect()))
        .collect();

    // The NPUs of one stage run one program up to their peers, which sit
    // one stage (`lanes` NPUs) up and down from them: one class per stage.
    install_programs(
        &mut b,
        npus,
        cfg,
        |npu| (npu / lanes) as u64,
        |npu, prog| {
            let stage = npu / lanes;
            let lane = npu % lanes;
            let stage_layers =
                &model.layers[stage * layers_per_stage..(stage + 1) * layers_per_stage];
            let fwd_flops: f64 = stage_layers.iter().map(|l| l.fwd_flops).sum();
            let bwd_flops: f64 = stage_layers.iter().map(|l| l.bwd_flops).sum();
            let stage_params: DataSize = stage_layers.iter().map(|l| l.params).sum();
            // astra-lint: allow(panic, stages hold >= 1 layer; pipeline() rejects stage counts above the layer count)
            let boundary = stage_layers.last().expect("stage has layers").activations;
            let prev_peer = (stage > 0).then(|| (stage - 1) * lanes + lane);
            let next_peer = (stage + 1 < stages).then(|| (stage + 1) * lanes + lane);

            let mut prev: Option<NodeId> = None;
            let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
            // GPipe forward: one node chain per microbatch.
            for m in 0..microbatches {
                if let Some(peer) = prev_peer {
                    prev = Some(prog.node(
                        format!("mb{m}.recv.fwd"),
                        EtOp::PeerRecv {
                            peer,
                            size: boundary,
                            tag: m as u64,
                        },
                        &dep(prev),
                    ));
                }
                let fwd = prog.node(
                    format!("mb{m}.fwd"),
                    EtOp::Compute {
                        flops: fwd_flops,
                        tensor: stage_params,
                    },
                    &dep(prev),
                );
                prev = Some(fwd);
                if let Some(peer) = next_peer {
                    prev = Some(prog.node(
                        format!("mb{m}.send.fwd"),
                        EtOp::PeerSend {
                            peer,
                            size: boundary,
                            tag: m as u64,
                        },
                        &[fwd],
                    ));
                }
            }
            // Backward in reverse microbatch order, gradients flow upstream.
            for m in (0..microbatches).rev() {
                let grad_tag = (microbatches + m) as u64;
                if let Some(peer) = next_peer {
                    prev = Some(prog.node(
                        format!("mb{m}.recv.bwd"),
                        EtOp::PeerRecv {
                            peer,
                            size: boundary,
                            tag: grad_tag,
                        },
                        &dep(prev),
                    ));
                }
                let bwd = prog.node(
                    format!("mb{m}.bwd"),
                    EtOp::Compute {
                        flops: bwd_flops,
                        tensor: stage_params,
                    },
                    &dep(prev),
                );
                prev = Some(bwd);
                if let Some(peer) = prev_peer {
                    prev = Some(prog.node(
                        format!("mb{m}.send.bwd"),
                        EtOp::PeerSend {
                            peer,
                            size: boundary,
                            tag: grad_tag,
                        },
                        &[bwd],
                    ));
                }
            }
            // Stage-replica gradient synchronization.
            if lanes > 1 {
                prog.node(
                    "stage.gradAR",
                    EtOp::Collective {
                        collective: Collective::AllReduce,
                        size: stage_params,
                        group: stage_groups[stage],
                    },
                    &dep(prev),
                );
            }
        },
        |_, _, group| group,
    );
    // astra-lint: allow(panic, the generator emits structurally valid traces; a build failure is a generator bug)
    Ok(b.build().expect("generated pipeline trace is valid"))
}

/// Remote-memory plan for the §V-B disaggregated MoE training step.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadPlan {
    /// Optimizer-state bytes streamed (read + write) from the remote pool
    /// per parameter per step. Mixed-precision Adam streams the fp32
    /// master copy and both moments in each direction: 24 B/param.
    pub optimizer_bytes_per_param: u64,
    /// Gather fp16 weights through in-switch collectives on load (and
    /// reduce-scatter gradients on store). When `false`, weights move as
    /// plain replicated loads.
    pub gather_weights: bool,
}

impl Default for OffloadPlan {
    fn default() -> Self {
        OffloadPlan {
            optimizer_bytes_per_param: 24,
            gather_weights: true,
        }
    }
}

/// Generates the §V-B workload: one training step of an expert-parallel
/// MoE model whose parameters and optimizer state live in a disaggregated
/// memory pool.
///
/// Per layer and GPU: gather the expert's fp16 weights from the pool
/// (in-switch All-Gather), route tokens (All-to-All), compute forward,
/// route back; mirrored for backward; reduce-scatter fp16 gradients into
/// the pool; stream optimizer state (plain remote read + write); all
/// activations touch local HBM.
///
/// # Errors
///
/// Returns [`GenerateError::BadShape`] if `npus` is not divisible by the
/// model's expert count.
pub fn generate_disaggregated_moe(
    model: &Model,
    npus: usize,
    plan: &OffloadPlan,
) -> Result<ExecutionTrace, GenerateError> {
    disaggregated_moe(model, npus, plan, GenConfig::fast())
}

/// Naive serial baseline of [`generate_disaggregated_moe`] (see
/// [`generate_trace_reference`]).
///
/// # Errors
///
/// Returns [`GenerateError::BadShape`] if `npus` is not divisible by the
/// model's expert count.
pub fn generate_disaggregated_moe_reference(
    model: &Model,
    npus: usize,
    plan: &OffloadPlan,
) -> Result<ExecutionTrace, GenerateError> {
    disaggregated_moe(model, npus, plan, GenConfig::reference())
}

fn disaggregated_moe(
    model: &Model,
    npus: usize,
    plan: &OffloadPlan,
    cfg: GenConfig,
) -> Result<ExecutionTrace, GenerateError> {
    let experts = model.experts.max(1);
    if npus == 0 || !npus.is_multiple_of(experts) {
        return Err(GenerateError::BadShape {
            reason: format!("{npus} NPUs not divisible among {experts} experts"),
        });
    }
    let dp_per_expert = npus / experts;
    let mut b =
        TraceBuilder::new(npus).with_name(format!("{}-disaggregated-ep{experts}", model.name));
    let world = b.add_group((0..npus).collect());
    let expert_groups: Vec<_> = (0..experts)
        .map(|e| b.add_group((e * dp_per_expert..(e + 1) * dp_per_expert).collect()))
        .collect();

    // A program depends on the NPU only through its expert group, so all
    // NPUs form one class; each NPU's table retargets the representative's
    // expert group at its own.
    install_programs(
        &mut b,
        npus,
        cfg,
        |_| 0,
        |npu, prog| {
            let expert_group = expert_groups[npu / dp_per_expert];
            let mut prev: Option<NodeId> = None;
            let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
            for layer in &model.layers {
                let expert_params = layer.params / experts as u64; // fp16 bytes
                                                                   // Weight fetch: in-switch All-Gather delivers the expert's full
                                                                   // fp16 weights; `size` is the per-GPU shard convention of the
                                                                   // Memory API (gathered payload = size × total GPUs).
                let weights = if plan.gather_weights {
                    prog.node(
                        format!("{}.weights.gather", layer.name),
                        EtOp::Memory {
                            direction: MemoryDirection::Load,
                            location: TensorLocation::Remote { gathered: true },
                            size: expert_params / npus as u64,
                        },
                        &dep(prev),
                    )
                } else {
                    prog.node(
                        format!("{}.weights.load", layer.name),
                        EtOp::Memory {
                            direction: MemoryDirection::Load,
                            location: TensorLocation::Remote { gathered: false },
                            size: expert_params,
                        },
                        &dep(prev),
                    )
                };
                let route_in = prog.node(
                    format!("{}.a2a.fwd", layer.name),
                    EtOp::Collective {
                        collective: Collective::AllToAll,
                        size: layer.a2a.unwrap_or(layer.activations),
                        group: world,
                    },
                    &dep(prev),
                );
                let act_load = prog.node(
                    format!("{}.act.load", layer.name),
                    EtOp::Memory {
                        direction: MemoryDirection::Load,
                        location: TensorLocation::Local,
                        size: layer.activations,
                    },
                    &[route_in],
                );
                let fwd = prog.node(
                    format!("{}.fwd", layer.name),
                    EtOp::Compute {
                        flops: layer.fwd_flops / experts as f64,
                        tensor: expert_params + layer.activations,
                    },
                    &[weights, act_load],
                );
                prev = Some(prog.node(
                    format!("{}.a2a.fwd.return", layer.name),
                    EtOp::Collective {
                        collective: Collective::AllToAll,
                        size: layer.a2a.unwrap_or(layer.activations),
                        group: world,
                    },
                    &[fwd],
                ));
            }
            for layer in model.layers.iter().rev() {
                let expert_params = layer.params / experts as u64;
                let expert_param_count = expert_params.as_bytes() / 2;
                let bwd = prog.node(
                    format!("{}.bwd", layer.name),
                    EtOp::Compute {
                        flops: layer.bwd_flops / experts as f64,
                        tensor: expert_params + layer.activations,
                    },
                    &dep(prev),
                );
                let act_store = prog.node(
                    format!("{}.act.store", layer.name),
                    EtOp::Memory {
                        direction: MemoryDirection::Store,
                        location: TensorLocation::Local,
                        size: layer.activations,
                    },
                    &[bwd],
                );
                // fp16 gradients reduce-scattered into the pool (in-switch) or
                // synchronized over the NPU fabric when in-switch is off.
                let grads = if plan.gather_weights {
                    prog.node(
                        format!("{}.grads.scatter", layer.name),
                        EtOp::Memory {
                            direction: MemoryDirection::Store,
                            location: TensorLocation::Remote { gathered: true },
                            size: expert_params / npus as u64,
                        },
                        &[bwd],
                    )
                } else {
                    prog.node(
                        format!("{}.gradAR", layer.name),
                        EtOp::Collective {
                            collective: Collective::AllReduce,
                            size: expert_params / dp_per_expert as u64,
                            group: expert_group,
                        },
                        &[bwd],
                    )
                };
                // Optimizer-state streaming: plain remote read + write.
                let half = plan.optimizer_bytes_per_param / 2;
                let opt_load = prog.node(
                    format!("{}.opt.load", layer.name),
                    EtOp::Memory {
                        direction: MemoryDirection::Load,
                        location: TensorLocation::Remote { gathered: false },
                        size: DataSize::from_bytes(expert_param_count * half),
                    },
                    &[grads],
                );
                prev = Some(prog.node(
                    format!("{}.opt.store", layer.name),
                    EtOp::Memory {
                        direction: MemoryDirection::Store,
                        location: TensorLocation::Remote { gathered: false },
                        size: DataSize::from_bytes(expert_param_count * half),
                    },
                    &[opt_load, act_store],
                ));
            }
        },
        |rep, npu, group| {
            if group == expert_groups[rep / dp_per_expert] {
                expert_groups[npu / dp_per_expert]
            } else {
                group
            }
        },
    );
    // astra-lint: allow(panic, the generator emits structurally valid traces; a build failure is a generator bug)
    Ok(b.build().expect("generated MoE trace is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn data_parallel_shape() {
        let model = models::dlrm_57m();
        let t = generate_trace(&model, Parallelism::Data, 16).unwrap();
        assert_eq!(t.npus(), 16);
        // 8 fwd + 8 bwd + 8 gradAR + 2 a2a per NPU.
        assert_eq!(t.program(0).len(), 26);
        // All programs identical in shape (SPMD).
        assert_eq!(t.program(0).len(), t.program(15).len());
    }

    #[test]
    fn hybrid_groups_are_correct() {
        let model = models::gpt3_175b();
        let t = generate_trace(&model, Parallelism::Hybrid { mp: 16 }, 64).unwrap();
        // 4 MP groups of 16 contiguous NPUs + 16 DP groups of 4 strided.
        let mp_group = t.group(GroupId(0));
        assert_eq!(mp_group, (0..16).collect::<Vec<_>>());
        let dp_group = t.group(GroupId(4));
        assert_eq!(dp_group, vec![0, 16, 32, 48]);
    }

    #[test]
    fn hybrid_rejects_indivisible() {
        let model = models::gpt3_175b();
        assert!(matches!(
            generate_trace(&model, Parallelism::Hybrid { mp: 16 }, 100),
            Err(GenerateError::BadShape { .. })
        ));
    }

    #[test]
    fn hybrid_divides_work_by_mp() {
        let model = models::gpt3_175b();
        let t = generate_trace(&model, Parallelism::Hybrid { mp: 16 }, 32).unwrap();
        let fwd = t
            .program(0)
            .iter()
            .find(|n| n.name.ends_with(".fwd"))
            .unwrap();
        match fwd.op {
            EtOp::Compute { flops, .. } => {
                assert!((flops - model.layers[0].fwd_flops / 16.0).abs() < 1.0);
            }
            _ => panic!("expected compute node"),
        }
    }

    #[test]
    fn pipeline_stages_run_different_programs() {
        let model = models::gpt3_175b(); // 96 layers
        let t = generate_trace(
            &model,
            Parallelism::Pipeline {
                stages: 4,
                microbatches: 8,
            },
            8,
        )
        .unwrap();
        // First stage sends but never receives forward activations.
        let first = t.program(0);
        assert!(first.iter().any(|n| matches!(n.op, EtOp::PeerSend { .. })));
        assert!(!first.iter().any(|n| n.name.contains("recv.fwd")));
        // Last stage receives but never sends forward activations.
        let last = t.program(7);
        assert!(last.iter().any(|n| n.name.contains("recv.fwd")));
        assert!(!last.iter().any(|n| n.name.contains("send.fwd")));
        // Middle stages do both: genuinely non-SPMD programs.
        assert_ne!(t.program(0), t.program(2));
    }

    #[test]
    fn pipeline_validates_shape() {
        let model = models::gpt3_175b();
        for (stages, mb, npus) in [(5, 4, 10), (4, 0, 8), (7, 4, 7)] {
            assert!(generate_trace(
                &model,
                Parallelism::Pipeline {
                    stages,
                    microbatches: mb,
                },
                npus,
            )
            .is_err());
        }
    }

    #[test]
    fn moe_trace_has_all_five_activity_classes() {
        let model = models::moe_1t();
        let t = generate_disaggregated_moe(&model, 32, &OffloadPlan::default()).unwrap();
        let program = t.program(0);
        let has = |pred: &dyn Fn(&EtOp) -> bool| program.iter().any(|n| pred(&n.op));
        assert!(has(&|op| matches!(op, EtOp::Compute { .. })));
        assert!(has(&|op| matches!(
            op,
            EtOp::Memory {
                location: TensorLocation::Local,
                ..
            }
        )));
        assert!(has(&|op| matches!(
            op,
            EtOp::Memory {
                location: TensorLocation::Remote { gathered: true },
                ..
            }
        )));
        assert!(has(&|op| matches!(
            op,
            EtOp::Memory {
                location: TensorLocation::Remote { gathered: false },
                ..
            }
        )));
        assert!(has(&|op| matches!(op, EtOp::Collective { .. })));
    }

    #[test]
    fn moe_optimizer_traffic_follows_plan() {
        let model = models::moe_1t();
        let plan = OffloadPlan {
            optimizer_bytes_per_param: 24,
            gather_weights: true,
        };
        let t = generate_disaggregated_moe(&model, 32, &plan).unwrap();
        let expert_params = model.layers[0].params.as_bytes() / model.experts as u64 / 2;
        let opt_node = t
            .program(0)
            .iter()
            .find(|n| n.name.ends_with("opt.load"))
            .unwrap();
        match opt_node.op {
            EtOp::Memory { size, .. } => {
                assert_eq!(size.as_bytes(), expert_params * 12);
            }
            _ => panic!("expected memory node"),
        }
    }

    #[test]
    fn moe_rejects_indivisible_experts() {
        let model = models::moe_1t();
        assert!(generate_disaggregated_moe(&model, 30, &OffloadPlan::default()).is_err());
    }

    #[test]
    fn fsdp_gathers_weights_twice_and_scatters_gradients() {
        let model = models::gpt3_175b();
        let t = generate_trace(&model, Parallelism::FullyShardedData, 8).unwrap();
        let program = t.program(0);
        let gathers = program
            .iter()
            .filter(|n| {
                matches!(
                    n.op,
                    EtOp::Collective {
                        collective: Collective::AllGather,
                        ..
                    }
                )
            })
            .count();
        let scatters = program
            .iter()
            .filter(|n| {
                matches!(
                    n.op,
                    EtOp::Collective {
                        collective: Collective::ReduceScatter,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(gathers, 2 * model.layers.len());
        assert_eq!(scatters, model.layers.len());
    }

    #[test]
    fn fsdp_prefetch_dependencies_allow_overlap() {
        // The second layer's forward gather must not depend on the first
        // layer's compute (only on the first gather), so communication can
        // run ahead of compute.
        let model = models::gpt3_175b();
        let t = generate_trace(&model, Parallelism::FullyShardedData, 8).unwrap();
        let program = t.program(0);
        let second_gather = program
            .iter()
            .find(|n| n.name == "layer1.wAG.fwd")
            .expect("second gather exists");
        let first_gather_id = program
            .iter()
            .position(|n| n.name == "layer0.wAG.fwd")
            .unwrap() as u32;
        assert_eq!(second_gather.deps, vec![NodeId(first_gather_id)]);
    }

    #[test]
    fn traces_serialize() {
        let model = models::dlrm_57m();
        let t = generate_trace(&model, Parallelism::Data, 4).unwrap();
        let json = t.to_json().unwrap();
        assert_eq!(ExecutionTrace::from_json(&json).unwrap(), t);
    }

    #[test]
    fn fast_paths_match_reference_on_small_shapes() {
        // The memoized generators must equal the frozen naive baseline
        // (larger runs live in tests/flyweight).
        let model = models::dlrm_57m();
        for parallelism in [
            Parallelism::Data,
            Parallelism::Hybrid { mp: 4 },
            Parallelism::Pipeline {
                stages: 4,
                microbatches: 2,
            },
            Parallelism::FullyShardedData,
        ] {
            let fast = generate_trace(&model, parallelism, 16).unwrap();
            let reference = generate_trace_reference(&model, parallelism, 16).unwrap();
            assert_eq!(fast, reference, "{parallelism:?}");
        }
        let moe = models::moe_1t();
        assert_eq!(
            generate_disaggregated_moe(&moe, 128, &OffloadPlan::default()).unwrap(),
            generate_disaggregated_moe_reference(&moe, 128, &OffloadPlan::default()).unwrap(),
        );
    }
}
