//! Collective lowering: chunk-level send/recv programs (§IV-B).
//!
//! The paper's system layer *decomposes* a multi-dimensional hierarchical
//! collective into point-to-point send/recv primitives that the network
//! layer then simulates. This module is that decomposition: [`lower`]
//! expands `(Collective, chunks, dims)` — Ring, Direct, and
//! Halving-Doubling per dimension (Table I), composed hierarchically
//! across the dimension stack — into a deterministic [`CollectiveProgram`].
//!
//! # Periodic programs
//!
//! Every chunk runs the same per-dimension phase sequence, so a program
//! is one phase template plus a chunk count: lowering is `O(phases)` and
//! a program's size does not depend on `chunks`. Op `chunk × phases +
//! phase` is the only op id, and each op's one dependency — the previous
//! phase of the same chunk — is implicit ([`CollectiveProgram::next`]).
//! [`CollectiveProgram::op`] materializes any op on demand.
//!
//! The program is *backend-agnostic*: each [`ChunkOp`] names the local
//! dimension it occupies, the wire payload to serialize, and how much
//! algorithm-step propagation latency remains beyond the single
//! representative route the executor binds it to. The system engine's
//! chunk executor runs the program on the co-resident [`NetworkBackend`]
//! (`send_async`/completion callbacks, per-source NIC-lane serialization,
//! one shared clock), so collective traffic contends with concurrent p2p
//! messages and with other collectives — the scenario the closed-form
//! [`crate::CollectiveEngine`] cannot express.
//!
//! [`reference_finish`] is the frozen scheduling reference: it replays the
//! exact dependency/lane discipline of the executor in closed form given a
//! per-op wire-delay oracle, and pins the engine's event-driven execution
//! bit-identically (`crates/system/tests/collective_modes.rs`). It reads
//! the [`ExpandedProgram`] view, a DAG with explicit dependency lists that
//! only tests build ([`CollectiveProgram::expand`]).
//!
//! [`NetworkBackend`]: https://docs.rs/astra-network
//!
//! # Granularity
//!
//! Ops are emitted at *(chunk, phase)* granularity: one op per dimension
//! visit of each chunk, sized with the exact arithmetic of the closed-form
//! engine (`(k-1)/k × data` at the dimension's aggregate per-NPU
//! bandwidth). A phase op aggregates the algorithm's `k` symmetric member
//! transfers — on a congestion-free backend its serialization equals the
//! phase service of the closed form, which is what makes the
//! `CollectiveMode::Backend` path collapse to the analytical answer on
//! uncongested single-tenant topologies.

use std::fmt;
use std::str::FromStr;

use astra_des::{DataSize, Time};
use astra_topology::{BuildingBlock, Dimension};

use crate::engine::chunk_phases;
use crate::Collective;

/// How the system layer executes collectives.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum CollectiveMode {
    /// The frozen fast path: the closed-form multi-rail
    /// [`crate::CollectiveEngine`] prices every collective analytically.
    /// Collectives never touch the network backend. The default.
    #[default]
    Analytical,
    /// Collectives are lowered to chunk-level send/recv programs
    /// ([`lower`]) and executed on the engine's co-resident network
    /// backend, where they contend with concurrent p2p traffic and with
    /// each other.
    Backend,
}

impl CollectiveMode {
    /// Both modes, for tests and benchmark sweeps.
    pub const ALL: [CollectiveMode; 2] = [CollectiveMode::Analytical, CollectiveMode::Backend];

    /// Stable machine-readable name (`analytical` / `backend`).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveMode::Analytical => "analytical",
            CollectiveMode::Backend => "backend",
        }
    }
}

impl fmt::Display for CollectiveMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CollectiveMode {
    type Err = String;

    /// Accepts `analytical` and `backend`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytical" => Ok(CollectiveMode::Analytical),
            "backend" => Ok(CollectiveMode::Backend),
            other => Err(format!(
                "unknown collective mode `{other}` (expected `analytical` or `backend`)"
            )),
        }
    }
}

/// One chunk-level transfer of a lowered collective: a matched send/recv
/// pair (in the same resolved sense as the engine's `PeerSend`/`PeerRecv`)
/// that occupies one topology dimension.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChunkOp {
    /// Op id within the program: `chunk × phases + phase`. The op's one
    /// dependency, if any, is `id - 1`, the previous phase of the same
    /// chunk.
    pub id: u64,
    /// Which pipeline chunk this op belongs to.
    pub chunk: u64,
    /// Local dimension index (into the lowered dimension list) whose links
    /// this op occupies. The executor binds each local dimension to one
    /// representative `(src, dst)` NPU pair, so ops of the same dimension
    /// serialize on the source's NIC lane while different dimensions
    /// stream in parallel — the multi-rail pipeline.
    pub dim: usize,
    /// Wire payload: the phase's per-NPU traffic, `(k-1)/k × data`
    /// (`data` for All-to-All), computed with the closed-form arithmetic.
    pub size: DataSize,
    /// Hops the bound representative route covers (ring/FC neighbors: 1,
    /// switch traversal: 2). The backend prices this part of the
    /// propagation itself.
    pub wire_hops: u64,
    /// Propagation the bound route covers (`wire_hops × link latency`).
    /// The executor releases the source NIC lane this much before the
    /// backend completion: propagation delays the chunk but does not
    /// occupy the dimension, exactly as in the closed-form engine.
    pub wire_latency: Time,
    /// Algorithm-step propagation beyond the wire route — the remaining
    /// `steps × hops/step − wire_hops` link latencies of the Table I
    /// algorithm. Applied after the backend completion; it delays the
    /// chunk's next phase but holds no link.
    pub extra_latency: Time,
}

impl ChunkOp {
    /// Total algorithm propagation of this op (`wire + extra`): the phase
    /// latency of the closed-form engine.
    pub fn total_latency(&self) -> Time {
        self.wire_latency + self.extra_latency
    }
}

/// A lowered collective: one chunk's phase sequence, repeated `chunks`
/// times (see [the module docs](self#periodic-programs)).
///
/// # Example
///
/// ```
/// use astra_collectives::{lowering, Collective};
/// use astra_des::DataSize;
/// use astra_topology::Topology;
///
/// let topo = Topology::parse("R(4)@100_SW(2)@50").unwrap();
/// let program = lowering::lower(
///     Collective::AllReduce,
///     DataSize::from_mib(64),
///     topo.dims(),
///     4,
/// );
/// // All-Reduce visits 2 dims twice: 4 phases per chunk.
/// assert_eq!(program.phases().len(), 4);
/// // 4 chunks x 4 phases = 16 ops.
/// assert_eq!(program.len(), 16);
/// assert_eq!(program.op(13).chunk, 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveProgram {
    /// Chunk 0's ops: ids are phase indices.
    phases: Vec<ChunkOp>,
    chunks: u64,
    num_dims: usize,
}

impl CollectiveProgram {
    /// One chunk's phase sequence: chunk 0's ops, whose ids are the phase
    /// indices. Every other chunk repeats it.
    pub fn phases(&self) -> &[ChunkOp] {
        &self.phases
    }

    /// Pipeline chunks the payload was split into.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Total ops, `chunks × phases` (saturating at `u64::MAX`).
    pub fn len(&self) -> u64 {
        self.chunks.saturating_mul(self.phases.len() as u64)
    }

    /// Whether the program has no ops (zero-size or dimension-less
    /// collectives).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Op `id`: phase `id % phases` of chunk `id / phases`.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty.
    pub fn op(&self, id: u64) -> ChunkOp {
        let phases = self.phases.len() as u64;
        ChunkOp {
            id,
            chunk: id / phases,
            ..self.phases[(id % phases) as usize]
        }
    }

    /// The one op that waits on `id`: the next phase of the same chunk,
    /// or `None` when `id` is its chunk's last phase.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty.
    pub fn next(&self, id: u64) -> Option<u64> {
        let next = id + 1;
        (!next.is_multiple_of(self.phases.len() as u64)).then_some(next)
    }

    /// Writes every op out with its explicit dependency list — the view
    /// [`reference_finish`] reads. It costs `O(chunks × phases)`, so only
    /// tests build it; executors run the periodic program directly.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than `u32::MAX` ops.
    pub fn expand(&self) -> ExpandedProgram {
        assert!(self.len() <= u64::from(u32::MAX), "op ids must fit u32");
        let phases = self.phases.len() as u64;
        let ops = (0..self.len())
            .map(|id| ExpandedOp {
                op: self.op(id),
                deps: (id % phases != 0)
                    .then(|| id as u32 - 1)
                    .into_iter()
                    .collect(),
            })
            .collect();
        ExpandedProgram {
            ops,
            num_dims: self.num_dims,
        }
    }
}

/// One op of an [`ExpandedProgram`]: the [`ChunkOp`] plus the ids of the
/// ops it waits on. Dereferences to the op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpandedOp {
    /// The op itself.
    pub op: ChunkOp,
    /// Ops that must complete (including their `extra_latency`) before
    /// this op becomes ready.
    pub deps: Vec<u32>,
}

impl std::ops::Deref for ExpandedOp {
    type Target = ChunkOp;

    fn deref(&self) -> &ChunkOp {
        &self.op
    }
}

/// A [`CollectiveProgram`] with every op written out as a DAG node with
/// explicit dependencies ([`CollectiveProgram::expand`]): the form the
/// frozen [`reference_finish`] reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpandedProgram {
    ops: Vec<ExpandedOp>,
    num_dims: usize,
}

impl ExpandedProgram {
    /// Every op, chunk-major in phase order. Op ids are indices into this
    /// slice.
    pub fn ops(&self) -> &[ExpandedOp] {
        &self.ops
    }

    /// Local dimensions the program spans.
    pub fn num_dims(&self) -> usize {
        self.num_dims
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reverse dependency adjacency: `dependents()[op]` lists the ops that
    /// wait on `op`.
    pub fn dependents(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.ops.len()];
        for (idx, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                out[d as usize].push(idx as u32);
            }
        }
        out
    }
}

/// Hops the executor's representative route covers for one phase op of a
/// block: adjacent members for rings and fully-connected groups, the
/// NPU → switch → NPU traversal for switches.
fn covered_hops(block: BuildingBlock) -> u64 {
    match block {
        BuildingBlock::Ring(_) | BuildingBlock::FullyConnected(_) => 1,
        BuildingBlock::Switch(_) => 2,
    }
}

/// Lowers a hierarchical collective into its chunk-level program: the
/// payload splits into `chunks` pipeline chunks, each running the same
/// per-dimension phase sequence in the baseline ascending order
/// (Reduce-Scatter ascending Dim 1→N, All-Gather descending, All-Reduce
/// both — §IV-B). Phase sizes and latencies use the closed-form engine's
/// exact arithmetic, so a congestion-free execution of the program
/// reproduces the analytical phase costs bit-identically. The work is
/// `O(phases)` whatever the chunk count.
///
/// Backend execution always uses the baseline dimension order: the Themis
/// planner is an optimization of the closed-form fast path and is not
/// lowered (the CLI rejects the combination).
///
/// Returns an empty program for zero payloads or an empty dimension list.
///
/// # Panics
///
/// Panics if `chunks == 0`.
pub fn lower(
    collective: Collective,
    size: DataSize,
    dims: &[Dimension],
    chunks: u64,
) -> CollectiveProgram {
    assert!(chunks >= 1, "need at least one chunk");
    let phases = if size == DataSize::ZERO || dims.is_empty() {
        Vec::new()
    } else {
        let order: Vec<usize> = (0..dims.len()).collect();
        chunk_phases(collective, size.div_ceil_parts(chunks), dims, &order)
    };
    let phases = phases
        .iter()
        .enumerate()
        .map(|(id, phase)| {
            let dim = &dims[phase.dim];
            let wire_hops = covered_hops(dim.block());
            let wire_latency = dim.link_latency() * wire_hops;
            ChunkOp {
                id: id as u64,
                chunk: 0,
                dim: phase.dim,
                size: phase.traffic,
                wire_hops,
                wire_latency,
                extra_latency: phase.latency.saturating_sub(wire_latency),
            }
        })
        .collect();
    CollectiveProgram {
        phases,
        chunks,
        num_dims: dims.len(),
    }
}

pub use frozen::reference_finish;

/// The frozen reference, kept apart so its signature can name the
/// expanded view by the type names it was frozen with.
mod frozen {
    use std::collections::BinaryHeap;

    use astra_des::Time;

    use super::{ChunkOp, ExpandedProgram as CollectiveProgram};

    /// A ready op waiting for its lane, ordered earliest-ready first with
    /// op id as the deterministic tiebreak (matching the engine's FIFO
    /// lanes, which enqueue ops in readiness order and break same-instant
    /// ties in op order).
    #[derive(PartialEq, Eq)]
    struct Ready {
        at: Time,
        op: u32,
    }

    impl Ord for Ready {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap: invert for earliest-first.
            other.at.cmp(&self.at).then(other.op.cmp(&self.op))
        }
    }

    impl PartialOrd for Ready {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The frozen scheduling reference for program execution: replays the
    /// chunk executor's discipline in closed form over the expanded view
    /// ([`super::CollectiveProgram::expand`]) and returns the program's
    /// finish time.
    ///
    /// Discipline (identical to the engine's backend path):
    ///
    /// * an op becomes *ready* when every dependency has completed,
    ///   including its `extra_latency`;
    /// * each local dimension is one FIFO lane (the executor's per-source
    ///   NIC lane): ready ops queue in `(ready, op id)` order and an op
    ///   starts at `max(ready, lane free)`;
    /// * `wire_delay(op)` prices the wire (what the backend charges:
    ///   serialization plus `wire_hops` of propagation); the lane frees
    ///   `wire_latency` *before* the wire completes — propagation does not
    ///   occupy the dimension — and the op completes `extra_latency` after
    ///   it.
    ///
    /// Feeding the analytical backend's `p2p_delay` as `wire_delay` makes
    /// this bit-identical to `CollectiveMode::Backend` on the analytical
    /// backend (pinned by the system-crate proptests); it is also the
    /// uncongested lower bound for the stateful backends.
    // frozen-ref: d5429e819e9cf7bf
    pub fn reference_finish(
        program: &CollectiveProgram,
        start: Time,
        mut wire_delay: impl FnMut(&ChunkOp) -> Time,
    ) -> Time {
        if program.is_empty() {
            return start;
        }
        let ops = program.ops();
        let dependents = program.dependents();
        let mut remaining: Vec<u32> = ops.iter().map(|op| op.deps.len() as u32).collect();
        let mut lane_free = vec![Time::ZERO; program.num_dims()];
        let mut heap = BinaryHeap::new();
        for (idx, &r) in remaining.iter().enumerate() {
            if r == 0 {
                heap.push(Ready {
                    at: start,
                    op: idx as u32,
                });
            }
        }
        let mut finish = start;
        while let Some(Ready { at, op }) = heap.pop() {
            let meta = &ops[op as usize];
            let issue = at.max(lane_free[meta.dim]);
            let wire_done = issue + wire_delay(meta);
            lane_free[meta.dim] = wire_done.saturating_sub(meta.wire_latency);
            let done = wire_done + meta.extra_latency;
            finish = finish.max(done);
            for &d in &dependents[op as usize] {
                let slot = &mut remaining[d as usize];
                *slot -= 1;
                if *slot == 0 {
                    heap.push(Ready { at: done, op: d });
                }
            }
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::Topology;

    fn dims(notation: &str) -> Vec<Dimension> {
        Topology::parse(notation).unwrap().dims().to_vec()
    }

    #[test]
    fn collective_mode_parses_and_displays() {
        for mode in CollectiveMode::ALL {
            assert_eq!(mode.name().parse::<CollectiveMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(CollectiveMode::default(), CollectiveMode::Analytical);
        assert!("garnet".parse::<CollectiveMode>().is_err());
    }

    #[test]
    fn op_counts_follow_chunks_and_phase_visits() {
        let d = dims("R(2)@100_SW(4)@50");
        let size = DataSize::from_mib(64);
        // All-Reduce visits each dim twice, the others once.
        assert_eq!(lower(Collective::AllReduce, size, &d, 8).len(), 32);
        assert_eq!(lower(Collective::ReduceScatter, size, &d, 8).len(), 16);
        assert_eq!(lower(Collective::AllGather, size, &d, 8).len(), 16);
        assert_eq!(lower(Collective::AllToAll, size, &d, 8).len(), 16);
    }

    /// Four billion chunks lower to the same four-phase template as one
    /// chunk: nothing is allocated per chunk, and op ids and chunk indices
    /// past `u32::MAX` do not wrap.
    #[test]
    fn four_billion_chunks_lower_to_one_phase_template() {
        let d = dims("R(4)@250_SW(2)@50");
        let chunks = 4_000_000_000;
        let program = lower(Collective::AllReduce, DataSize::from_mib(64), &d, chunks);
        assert_eq!(program.phases().len(), 4);
        assert_eq!(program.len(), 16_000_000_000);
        let last = program.op(program.len() - 1);
        assert_eq!(last.chunk, 3_999_999_999);
        assert_eq!(last.id, 15_999_999_999);
        assert_eq!(program.next(last.id), None);
        assert_eq!(program.next(last.id - 1), Some(last.id));
        assert_eq!(
            ChunkOp {
                id: 3,
                chunk: 0,
                ..last
            },
            program.phases()[3]
        );
    }

    #[test]
    fn ops_chain_within_a_chunk_only() {
        let program = lower(
            Collective::AllReduce,
            DataSize::from_mib(32),
            &dims("R(4)@100_SW(2)@50"),
            4,
        );
        let per_chunk = program.phases().len();
        let expanded = program.expand();
        assert_eq!(expanded.ops().len() as u64, program.len());
        for (idx, op) in expanded.ops().iter().enumerate() {
            let pos = idx % per_chunk;
            assert_eq!(op.id, idx as u64);
            assert_eq!(op.chunk as usize, idx / per_chunk);
            assert_eq!(op.op, program.op(idx as u64));
            if pos == 0 {
                assert!(op.deps.is_empty(), "first phase of a chunk has no deps");
            } else {
                assert_eq!(op.deps, vec![idx as u32 - 1]);
                assert_eq!(program.next(idx as u64 - 1), Some(idx as u64));
            }
        }
    }

    #[test]
    fn phase_sizes_match_closed_form_traffic() {
        // Single chunk: op sizes are exactly the per-dimension traffic of
        // the unchunked hierarchical collective (Table IV arithmetic).
        let d = dims("R(2)_FC(8)_R(8)_SW(4)");
        let size = DataSize::from_gib(1);
        let program = lower(Collective::AllReduce, size, &d, 1);
        let traffic = crate::dimension_traffic(Collective::AllReduce, size, &d);
        // Ascending phases 0..4, then the mirrored descending ones.
        for (p, op) in program.phases()[..4].iter().enumerate() {
            assert_eq!(op.dim, p);
            // dimension_traffic reports both visits; each op carries one.
            assert_eq!(op.size * 2, traffic[p]);
        }
        let descending: Vec<usize> = program.phases()[4..].iter().map(|op| op.dim).collect();
        assert_eq!(descending, vec![3, 2, 1, 0]);
    }

    #[test]
    fn latency_split_covers_the_table1_step_counts() {
        let d = dims("R(8)@100_SW(4)@50_FC(4)@25");
        let program = lower(Collective::ReduceScatter, DataSize::from_mib(8), &d, 1);
        let ops = program.phases();
        // Ring(8): 7 steps x 1 hop, wire covers 1.
        assert_eq!(ops[0].wire_hops, 1);
        assert_eq!(ops[0].total_latency(), d[0].link_latency() * 7);
        // Switch(4): 2 rounds x 2 hops, wire covers 2.
        assert_eq!(ops[1].wire_hops, 2);
        assert_eq!(ops[1].total_latency(), d[1].link_latency() * 4);
        // FullyConnected: 1 step x 1 hop, fully covered by the wire.
        assert_eq!(ops[2].wire_hops, 1);
        assert_eq!(ops[2].extra_latency, Time::ZERO);
    }

    #[test]
    fn zero_size_and_empty_dims_lower_to_empty_programs() {
        let d = dims("R(4)@100");
        assert!(lower(Collective::AllReduce, DataSize::ZERO, &d, 8).is_empty());
        assert!(lower(Collective::AllReduce, DataSize::from_mib(1), &[], 8).is_empty());
        assert_eq!(
            reference_finish(
                &lower(Collective::AllReduce, DataSize::ZERO, &d, 8).expand(),
                Time::from_us(3),
                |_| Time::ZERO,
            ),
            Time::from_us(3)
        );
    }

    #[test]
    fn lowering_is_deterministic() {
        let d = dims("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50");
        let a = lower(Collective::AllReduce, DataSize::from_gib(1), &d, 32);
        let b = lower(Collective::AllReduce, DataSize::from_gib(1), &d, 32);
        assert_eq!(a, b);
    }

    /// The reference executor on a congestion-free wire-delay oracle
    /// reproduces the closed-form engine exactly where the two models
    /// coincide: single-chunk programs (the pipeline degenerates to the
    /// first chunk's chain) and multi-chunk single-phase programs (one
    /// dimension, one visit: the lane pipelines chunks back-to-back).
    #[test]
    fn reference_matches_closed_form_on_degenerate_pipelines() {
        use crate::{CollectiveEngine, SchedulerPolicy};
        let oracle = |dims: &[Dimension]| {
            let dims = dims.to_vec();
            move |op: &ChunkOp| {
                let d = &dims[op.dim];
                op.wire_latency + d.bandwidth().transfer_time(op.size)
            }
        };
        // Single chunk, multi-dim, every collective.
        let d = dims("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50");
        for collective in Collective::ALL {
            let size = DataSize::from_mib(257);
            let program = lower(collective, size, &d, 1);
            let closed = CollectiveEngine::new(1, SchedulerPolicy::Baseline)
                .run(collective, size, &d)
                .finish;
            assert_eq!(
                reference_finish(&program.expand(), Time::ZERO, oracle(&d)),
                closed,
                "{collective}"
            );
        }
        // Multi-chunk, single dim, single-phase collectives.
        for notation in ["R(8)@100", "SW(16)@50", "FC(4)@200"] {
            let d = dims(notation);
            for collective in [
                Collective::ReduceScatter,
                Collective::AllGather,
                Collective::AllToAll,
            ] {
                let size = DataSize::from_mib(93);
                let program = lower(collective, size, &d, 16);
                let closed = CollectiveEngine::new(16, SchedulerPolicy::Baseline)
                    .run(collective, size, &d)
                    .finish;
                assert_eq!(
                    reference_finish(&program.expand(), Time::ZERO, oracle(&d)),
                    closed,
                    "{collective} on {notation}"
                );
            }
        }
    }

    /// On multi-chunk multi-dim programs the DAG schedule can only beat
    /// the fluid closed form (which charges the full first-chunk chain on
    /// top of the bottleneck backlog), and it is bounded below by the
    /// bottleneck dimension's total work.
    #[test]
    fn reference_is_bracketed_by_the_fluid_model() {
        use crate::{CollectiveEngine, SchedulerPolicy};
        let d = dims("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50");
        let size = DataSize::from_gib(1);
        for chunks in [2, 8, 32, 128] {
            let program = lower(Collective::AllReduce, size, &d, chunks);
            let got = reference_finish(&program.expand(), Time::ZERO, |op| {
                op.wire_latency + d[op.dim].bandwidth().transfer_time(op.size)
            });
            let closed = CollectiveEngine::new(chunks, SchedulerPolicy::Baseline).run(
                Collective::AllReduce,
                size,
                &d,
            );
            let bottleneck = closed
                .per_dim_busy
                .iter()
                .copied()
                .fold(Time::ZERO, Time::max);
            assert!(got <= closed.finish, "{chunks} chunks: {got} vs fluid");
            assert!(got >= bottleneck, "{chunks} chunks: beats the bottleneck");
            // With many chunks the two models converge.
            if chunks >= 32 {
                let ratio = got.as_us_f64() / closed.finish.as_us_f64();
                assert!(ratio > 0.95, "{chunks} chunks: ratio {ratio}");
            }
        }
    }
}
