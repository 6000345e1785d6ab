//! The orbit quotient of a run: one simulated NPU, group and lane per
//! block of equivalent ones.
//!
//! Uniform hybrid-parallel traces put their NPUs in a few symmetric
//! classes. Every tensor-parallel rank runs the same program, meets
//! groups of the same shape and contends on lanes of the same shape, so
//! all of them finish every node at the same instant. [`Orbits::collapse`]
//! finds those classes by colour refinement over three kinds of vertex:
//!
//! * NPUs start with the colour of their program's structure (two stored
//!   programs with equal ops and dependencies start alike).
//! * Groups start with their span's `(dimension, sub-dimension size)`
//!   list.
//! * Lanes, the `(group representative, dimension)` keys the closed-form
//!   collective engine contends on, start with their dimension.
//!
//! Refinement runs in rounds. A round recolours
//!
//! * a group by its colour, its lanes' colours and the multiset of its
//!   members' colours;
//! * a lane by its colour and the multiset of the colours of the groups
//!   that use it;
//! * an NPU by its colour, the colour of the group each slot of its group
//!   table names, and the multiset of the colours of the groups it is a
//!   member of.
//!
//! The first round computes that signature for every vertex. Later rounds
//! are incremental, after Hopcroft's smaller-half trick. When a colour
//! splits, its largest piece keeps the colour and every other piece takes
//! a new one. Vertices of one colour had equal counts into every colour of
//! the round before, so they still have equal counts into a largest piece
//! unless they count differently into its other pieces. A round therefore
//! recomputes signatures only for the vertices next to a piece that took
//! a new colour: their counts into those pieces, plus the table and lane
//! slots that name one. A colour's untouched vertices stay together. Each
//! round yields the partition a full pass over every vertex would.
//!
//! Refinement stops when a round splits no colour, or gives up after
//! [`MAX_ROUNDS`] rounds and leaves the run whole. Each colour class is a
//! *block*; an NPU block's representative is its lowest NPU.
//!
//! The engine runs one representative per block. Per-NPU state is indexed
//! by block, a meeting is keyed by group block and waits for its member
//! blocks, and a collective contends on lane blocks. The report is
//! expanded back to per-NPU rows, identical to a full run's.
//!
//! Only runs whose NPUs interact through closed-form collectives alone
//! are eligible (see [`Orbits::collapse`]). Every other run gets the identity
//! partition without refinement. So does a refined partition in which one
//! NPU is a member of two groups of one block: a single representative
//! meeting could not stand for both groups.
//!
//! Refinement sees structure only, and the engine also depends on the
//! order in which it breaks time ties, which NPUs of one block need not
//! see alike. A quotient run checks every tie that could tell them apart
//! as it goes ([`crate::ties`]) and, on one it cannot vouch for, is
//! discarded and rerun on the identity partition.

use astra_collectives::CollectiveMode;
use astra_des::Time;
use astra_topology::{NpuId, Topology};
use astra_workload::{EtOp, ExecutionTrace, MemoryDirection, TensorLocation};

use crate::csr::Csr;
use crate::engine::SystemConfig;
use crate::setup::{GroupSpan, Spans};

/// A partition of a run's NPUs, groups and lanes into blocks.
pub(crate) struct Orbits {
    /// Per NPU: its block. Blocks are numbered in order of their
    /// representatives.
    block_of: Vec<u32>,
    /// Per block: its representative, the lowest NPU in it.
    pub(crate) reps: Vec<NpuId>,
    /// Per block: how many NPUs it stands for.
    pub(crate) sizes: Vec<u64>,
    /// Per trace group: its group block.
    group_block: Vec<u32>,
    /// Per group block: how many groups it stands for.
    pub(crate) group_sizes: Vec<u64>,
    /// Lanes the engine keeps: one per `(NPU, dimension)` in a full run,
    /// one per lane block in a quotient.
    pub(crate) lanes: usize,
    /// What a quotient's tie checks need (see [`crate::ties::Ties`]), empty
    /// in a full run. Per block: its highest NPU.
    pub(crate) lasts: Vec<NpuId>,
    /// Per lane block: how many lanes it stands for.
    pub(crate) lane_sizes: Vec<u64>,
    /// Per group block, per member block: how many NPUs of it one group
    /// holds.
    pub(crate) member_counts: Vec<Vec<u64>>,
}

impl Orbits {
    /// The identity partition: every NPU, group and lane is its own block.
    pub(crate) fn identity(npus: usize, groups: usize, num_dims: usize) -> Self {
        Orbits {
            block_of: (0..npus as u32).collect(),
            reps: (0..npus).collect(),
            sizes: vec![1; npus],
            group_block: (0..groups as u32).collect(),
            group_sizes: vec![1; groups],
            lanes: npus * num_dims,
            lasts: Vec::new(),
            lane_sizes: Vec::new(),
            member_counts: Vec::new(),
        }
    }

    /// Collapses a prepared run: the blocks plus one span per group block,
    /// whose members are member blocks and whose lanes are lane blocks.
    ///
    /// Refines only when the run is eligible:
    ///
    /// * collectives are [`CollectiveMode::Analytical`];
    /// * no program sends or receives peer messages;
    /// * the fault schedule is empty, and neither budget nor telemetry is
    ///   set;
    /// * every collective names an existing group that has its NPU as a
    ///   member, so no run can fail with `UnalignedGroup` on the way.
    ///
    /// `None` when the run is not eligible or refinement leaves it whole:
    /// the run then takes the identity partition on `spans` as given.
    pub(crate) fn collapse(
        trace: &ExecutionTrace,
        topo: &Topology,
        config: &SystemConfig,
        spans: &Spans,
    ) -> Option<(Orbits, Spans)> {
        if !eligible(trace, config) {
            return None;
        }
        quotient(trace, topo.num_dims(), spans)
    }

    /// The group block of a trace group. A group id the trace does not
    /// define only reaches the engine in a full run, where it stays as is
    /// so the rendezvous reports it.
    pub(crate) fn group_block(&self, group: u32) -> u32 {
        self.group_block
            .get(group as usize)
            .copied()
            .unwrap_or(group)
    }

    /// Per-NPU rows from per-block ones.
    pub(crate) fn expand(&self, per_block: &[Time]) -> Vec<Time> {
        self.block_of
            .iter()
            .map(|&b| per_block[b as usize])
            .collect()
    }
}

/// Refinement rounds before a run is left whole. Symmetric presets
/// settle in a few rounds; asymmetry that spreads one NPU per round (a
/// line of pair groups, say) would take rounds in proportion to the NPU
/// count. The first round is a pass over every NPU, group and lane; each
/// later one revisits only the vertices next to what the round before
/// split off, which on such a line is a handful, so the cap bounds the
/// rounds rather than a cost per round.
const MAX_ROUNDS: usize = 16;

/// Whether a run's config and programs let it collapse (see
/// [`Orbits::collapse`]); [`Graph::new`] checks its group tables.
fn eligible(trace: &ExecutionTrace, config: &SystemConfig) -> bool {
    let closed_form = config.collective_mode == CollectiveMode::Analytical
        && config.faults.is_empty()
        && config.max_events.is_none()
        && config.max_sim_time.is_none()
        && !config.telemetry;
    let peers = trace
        .classes()
        .iter()
        .flatten()
        .any(|node| matches!(node.op, EtOp::PeerSend { .. } | EtOp::PeerRecv { .. }));
    closed_form && !peers
}

/// Interns one signature per vertex, in vertex order, into dense colours
/// numbered in order of first sight. Returns the colours and how many
/// there are.
fn recolour(
    vertices: usize,
    interner: &mut Interner,
    mut signature: impl FnMut(usize, &mut Vec<u32>),
) -> (Vec<u32>, usize) {
    interner.clear();
    let (mut sig, mut last) = (Vec::new(), Vec::new());
    let mut colour = 0;
    let colours = (0..vertices)
        .map(|v| {
            sig.clear();
            signature(v, &mut sig);
            // Neighbouring vertices often share a signature.
            if v == 0 || sig != last {
                colour = interner.intern(&sig);
                std::mem::swap(&mut sig, &mut last);
            }
            colour
        })
        .collect();
    (colours, interner.len())
}

/// Distinct signatures, each stored once in one flat buffer and found
/// through an open-addressing table of their hashes. Its buffers are kept
/// from one recolouring to the next.
#[derive(Default)]
struct Interner {
    /// Signature `c` is `words[at[c]..at[c + 1]]`.
    words: Vec<u32>,
    at: Vec<usize>,
    hashes: Vec<u64>,
    /// Per slot: a colour plus one, or 0 when empty. Its length is a power
    /// of two, at least twice the colour count.
    slots: Vec<u32>,
}

impl Interner {
    fn clear(&mut self) {
        self.words.clear();
        self.at.clear();
        self.at.push(0);
        self.hashes.clear();
        self.slots.fill(0);
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The colour of `sig`, a new one if it is the first of its kind.
    fn intern(&mut self, sig: &[u32]) -> u32 {
        let hash = sig.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
        });
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while let Some(colour) = self.slots[slot].checked_sub(1) {
            let c = colour as usize;
            if self.hashes[c] == hash && self.words[self.at[c]..self.at[c + 1]] == *sig {
                return colour;
            }
            slot = (slot + 1) & mask;
        }
        let colour = self.len() as u32;
        self.slots[slot] = colour + 1;
        self.words.extend_from_slice(sig);
        self.at.push(self.words.len());
        self.hashes.push(hash);
        colour
    }

    /// Doubles the table and places every colour anew.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for (c, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (len - 1);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = c as u32 + 1;
        }
    }
}

/// Appends the colours of `row`'s items, sorted, behind their count.
fn push_multiset(sig: &mut Vec<u32>, row: &[u32], colours: &[u32]) {
    sig.push(row.len() as u32);
    let start = sig.len();
    sig.extend(row.iter().map(|&i| colours[i as usize]));
    sig[start..].sort_unstable();
}

/// Blocks of a colouring, numbered in order of their lowest vertex: each
/// vertex's block, each block's lowest vertex and each block's size.
fn blocks(colours: &[u32], count: usize) -> (Vec<u32>, Vec<usize>, Vec<u64>) {
    let mut block_of_colour = vec![u32::MAX; count];
    let mut reps = Vec::new();
    let mut sizes = Vec::new();
    let block_of = colours
        .iter()
        .enumerate()
        .map(|(v, &c)| {
            let slot = &mut block_of_colour[c as usize];
            if *slot == u32::MAX {
                *slot = reps.len() as u32;
                reps.push(v);
                sizes.push(0);
            }
            sizes[*slot as usize] += 1;
            *slot
        })
        .collect();
    (block_of, reps, sizes)
}

/// Structural colours of the stored programs: equal ops and dependencies
/// give equal colours, whatever the node names.
fn program_colours(trace: &ExecutionTrace, interner: &mut Interner) -> Vec<u32> {
    recolour(trace.classes().len(), interner, |class, sig| {
        for node in &trace.classes()[class] {
            let mut words = |ws: &[u64]| {
                for w in ws {
                    sig.extend([*w as u32, (*w >> 32) as u32]);
                }
            };
            match node.op {
                EtOp::Compute { flops, tensor } => words(&[0, flops.to_bits(), tensor.as_bytes()]),
                EtOp::Memory {
                    direction,
                    location,
                    size,
                } => {
                    let direction = match direction {
                        MemoryDirection::Load => 0,
                        MemoryDirection::Store => 1,
                    };
                    let location = match location {
                        TensorLocation::Local => 0,
                        TensorLocation::Remote { gathered } => 1 + u64::from(gathered),
                    };
                    words(&[1, direction, location, size.as_bytes()]);
                }
                EtOp::Collective {
                    collective,
                    size,
                    group,
                } => words(&[2, collective as u64, size.as_bytes(), u64::from(group.0)]),
                EtOp::PeerSend { peer, size, tag } => {
                    words(&[3, peer as u64, size.as_bytes(), tag]);
                }
                EtOp::PeerRecv { peer, size, tag } => {
                    words(&[4, peer as u64, size.as_bytes(), tag]);
                }
            }
            sig.push(node.deps.len() as u32);
            sig.extend(node.deps.iter().map(|d| d.0));
        }
    })
    .0
}

/// What refinement walks: the relations between a run's NPUs, groups and
/// lanes.
struct Graph<'a> {
    /// The run's trace, whose group tables name the group of each slot of
    /// an NPU's program.
    trace: &'a ExecutionTrace,
    /// Per group: its members, ascending.
    members: Csr,
    /// Per NPU: the groups it is a member of, ascending.
    memberships: Csr,
    /// Per lane: its `(group representative, dimension)` key, ascending.
    keys: Vec<usize>,
    /// Per group: its lanes, aligned with its span's axes.
    group_lanes: Csr,
    /// Per lane: the groups that contend on it, ascending.
    lane_users: Csr,
}

impl<'a> Graph<'a> {
    /// `None` when a slot of some NPU's group table names a group that
    /// does not exist or does not have the NPU as a member.
    fn new(trace: &'a ExecutionTrace, spans: &Spans) -> Option<Self> {
        let members = Csr::from_rows(spans.iter().map(|s| s.members.iter().map(|&m| m as u32)));
        let memberships = members.transpose(trace.npus());
        let member_of_its_groups = (0..trace.npus()).all(|n| {
            let groups = memberships.row(n);
            trace.group_table(n).all(|g| groups.contains(&g.0))
        });
        if !member_of_its_groups {
            return None;
        }
        let mut keys: Vec<usize> = spans.iter().flat_map(|s| s.lanes.iter().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        let group_lanes = Csr::from_rows(spans.iter().map(|s| {
            s.lanes
                .iter()
                .map(|key| keys.binary_search(key).unwrap_or_default() as u32)
        }));
        let lane_users = group_lanes.transpose(keys.len());
        Some(Graph {
            trace,
            members,
            memberships,
            keys,
            group_lanes,
            lane_users,
        })
    }

    /// The group each slot of NPU `n`'s group table names.
    fn table(&self, n: usize) -> impl Iterator<Item = u32> + 'a {
        self.trace.group_table(n).map(|group| group.0)
    }
}

/// One kind's colouring, kept as a partition: colour `c`'s vertices are
/// `elems[bounds[c].0..bounds[c].1]`, in no particular order.
struct Partition {
    /// Per vertex: its colour.
    colour: Vec<u32>,
    /// The vertices, grouped by colour.
    elems: Vec<u32>,
    /// Per vertex: its index in `elems`.
    pos: Vec<u32>,
    bounds: Vec<(u32, u32)>,
    /// The colours from this one on are the pieces the last round split
    /// off.
    fresh: usize,
}

impl Partition {
    /// The colouring `next`, which refines `prev`, labelled so that the
    /// largest piece of each colour of `prev` keeps that colour and every
    /// other piece takes a fresh one.
    fn refining(
        (prev, prev_count): (Vec<u32>, usize),
        (next, next_count): (Vec<u32>, usize),
    ) -> Self {
        let mut sizes = vec![0u32; next_count];
        let mut parent = vec![0u32; next_count];
        for (&p, &c) in prev.iter().zip(&next) {
            sizes[c as usize] += 1;
            parent[c as usize] = p;
        }
        let mut largest = vec![u32::MAX; prev_count];
        for (c, &p) in parent.iter().enumerate() {
            let kept = &mut largest[p as usize];
            if *kept == u32::MAX || sizes[c] > sizes[*kept as usize] {
                *kept = c as u32;
            }
        }
        let mut fresh = prev_count as u32;
        let label: Vec<u32> = (0..next_count as u32)
            .zip(&parent)
            .map(|(c, &p)| {
                if largest[p as usize] == c {
                    p
                } else {
                    fresh += 1;
                    fresh - 1
                }
            })
            .collect();
        // Lay the colours out in `elems`, using each colour's end as the
        // cursor that fills it.
        let mut bounds = vec![(0, 0); next_count];
        let mut at = 0;
        for (&l, &size) in label.iter().zip(&sizes) {
            bounds[l as usize] = (at, at);
            at += size;
        }
        let mut colour = next;
        let mut elems = vec![0; colour.len()];
        let mut pos = vec![0; colour.len()];
        for (v, c) in colour.iter_mut().enumerate() {
            *c = label[*c as usize];
            let end = &mut bounds[*c as usize].1;
            elems[*end as usize] = v as u32;
            pos[v] = *end;
            *end += 1;
        }
        Partition {
            colour,
            elems,
            pos,
            bounds,
            fresh: prev_count,
        }
    }

    fn len(&self) -> usize {
        self.bounds.len()
    }

    /// The pieces the last round split off: each one's colour and
    /// vertices.
    fn moved(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (self.fresh as u32..)
            .zip(&self.bounds[self.fresh..])
            .map(|(c, &(start, end))| (c, &self.elems[start as usize..end as usize]))
    }

    /// Splits each colour by the signatures of its touched vertices, given
    /// as `[colour, signature, vertex]`. A colour's untouched vertices stay
    /// together; of its pieces the largest keeps the colour and every
    /// other one takes a fresh colour. Returns whether any colour split.
    fn split(&mut self, touched: &mut [[u32; 3]]) -> bool {
        touched.sort_unstable();
        self.fresh = self.len();
        let mut split = false;
        for run in touched.chunk_by(|a, b| a[0] == b[0]) {
            let colour = run[0][0] as usize;
            let (start, end) = self.bounds[colour];
            // The touched vertices go first, in signature order, and the
            // untouched rest follows.
            for (at, &[_, _, v]) in (start..).zip(run) {
                let from = self.pos[v as usize];
                let other = self.elems[at as usize];
                self.elems.swap(at as usize, from as usize);
                self.pos[other as usize] = from;
                self.pos[v as usize] = at;
            }
            let rest = end - start - run.len() as u32;
            let pieces = || {
                run.chunk_by(|a, b| a[1] == b[1])
                    .map(|piece| piece.len() as u32)
                    .chain((rest > 0).then_some(rest))
            };
            let (mut kept, mut most) = (0, 0);
            for (i, len) in pieces().enumerate() {
                if len > most {
                    (kept, most) = (i, len);
                }
            }
            if most == end - start {
                continue;
            }
            split = true;
            let mut at = start;
            for (i, len) in pieces().enumerate() {
                let piece = (at, at + len);
                at += len;
                if i == kept {
                    self.bounds[colour] = piece;
                    continue;
                }
                let fresh = self.len() as u32;
                self.bounds.push(piece);
                for &v in &self.elems[piece.0 as usize..piece.1 as usize] {
                    self.colour[v as usize] = fresh;
                }
            }
        }
        split
    }
}

/// A colouring of a run's NPUs, groups and lanes, refined round by round.
struct Colouring {
    npu: Partition,
    group: Partition,
    lane: Partition,
    /// Rounds run; the last one split nothing.
    rounds: usize,
    /// Signatures the rounds after the first computed.
    signatures: usize,
}

/// Buffers of the incremental rounds, kept from one round to the next.
#[derive(Default)]
struct Scratch {
    /// For NPUs, groups and lanes: one `[vertex, label, colour]` per edge
    /// from a vertex to a vertex of a piece the last round split off,
    /// where the label is 0 for an edge counted in a multiset and
    /// `1 + slot` for a slot of a group table or lane list.
    edges: [Vec<[u32; 3]>; 3],
    touched: Vec<[u32; 3]>,
    sig: Vec<u32>,
    interner: Interner,
}

impl Colouring {
    /// One incremental round: recolours the vertices next to the pieces
    /// the last round split off. Returns whether any colour split.
    fn round(&mut self, graph: &Graph, scratch: &mut Scratch) -> bool {
        let [to_npus, to_groups, to_lanes] = &mut scratch.edges;
        for (c, moved) in self.npu.moved() {
            for &n in moved {
                let groups = graph.memberships.row(n as usize);
                to_groups.extend(groups.iter().map(|&g| [g, 0, c]));
            }
        }
        for (c, moved) in self.group.moved() {
            for &g in moved {
                let lanes = graph.group_lanes.row(g as usize);
                to_lanes.extend(lanes.iter().map(|&l| [l, 0, c]));
                // Every group a table slot names lists the NPU as a member
                // (see `Graph::new`), so the members reach every slot.
                for &n in graph.members.row(g as usize) {
                    to_npus.push([n, 0, c]);
                    for (slot, t) in (1..).zip(graph.table(n as usize)) {
                        if t == g {
                            to_npus.push([n, slot, c]);
                        }
                    }
                }
            }
        }
        for (c, moved) in self.lane.moved() {
            for &l in moved {
                for &g in graph.lane_users.row(l as usize) {
                    for (slot, &t) in (1..).zip(graph.group_lanes.row(g as usize)) {
                        if t == l {
                            to_groups.push([g, slot, c]);
                        }
                    }
                }
            }
        }
        let mut split = false;
        let parts = [&mut self.npu, &mut self.group, &mut self.lane];
        for (part, edges) in parts.into_iter().zip(&mut scratch.edges) {
            // A vertex's signature is its edges, sorted.
            edges.sort_unstable();
            scratch.touched.clear();
            scratch.interner.clear();
            for run in edges.chunk_by(|a, b| a[0] == b[0]) {
                scratch.sig.clear();
                scratch
                    .sig
                    .extend(run.iter().flat_map(|&[_, label, c]| [label, c]));
                let v = run[0][0];
                let sig = scratch.interner.intern(&scratch.sig);
                scratch.touched.push([part.colour[v as usize], sig, v]);
            }
            edges.clear();
            self.signatures += scratch.touched.len();
            split |= part.split(&mut scratch.touched);
        }
        split
    }
}

/// Refines a run's graph to its coarsest stable colouring, or `None` when
/// that takes more than [`MAX_ROUNDS`] rounds.
fn refine(graph: &Graph, spans: &Spans, num_dims: usize) -> Option<Colouring> {
    let trace = graph.trace;
    let mut interner = Interner::default();
    let classes = program_colours(trace, &mut interner);
    let npu = recolour(trace.npus(), &mut interner, |n, sig| {
        sig.push(classes[trace.class_of(n)]);
    });
    let group = recolour(spans.len(), &mut interner, |g, sig| {
        let span = spans.span(g);
        for (&axis, sub) in span.axes.iter().zip(span.dims) {
            sig.extend([axis as u32, sub.npus() as u32]);
        }
    });
    let lane = recolour(graph.keys.len(), &mut interner, |l, sig| {
        sig.push((graph.keys[l] % num_dims) as u32);
    });
    // The first round: every vertex's whole signature.
    let next_group = recolour(spans.len(), &mut interner, |g, sig| {
        sig.push(group.0[g]);
        sig.extend(graph.group_lanes.row(g).iter().map(|&l| lane.0[l as usize]));
        push_multiset(sig, graph.members.row(g), &npu.0);
    });
    let next_lane = recolour(graph.keys.len(), &mut interner, |l, sig| {
        sig.push(lane.0[l]);
        push_multiset(sig, graph.lane_users.row(l), &group.0);
    });
    let next_npu = recolour(trace.npus(), &mut interner, |n, sig| {
        sig.push(npu.0[n]);
        sig.extend(graph.table(n).map(|g| group.0[g as usize]));
        push_multiset(sig, graph.memberships.row(n), &group.0);
    });
    let mut split = (next_npu.1, next_group.1, next_lane.1) != (npu.1, group.1, lane.1);
    let mut colouring = Colouring {
        npu: Partition::refining(npu, next_npu),
        group: Partition::refining(group, next_group),
        lane: Partition::refining(lane, next_lane),
        rounds: 1,
        signatures: 0,
    };
    let mut scratch = Scratch::default();
    while split {
        colouring.rounds += 1;
        if colouring.rounds > MAX_ROUNDS {
            return None;
        }
        split = colouring.round(graph, &mut scratch);
    }
    Some(colouring)
}

/// Refines an eligible run to its coarsest stable colouring and builds
/// the quotient, or `None` when some NPU's group table names a group that
/// does not list it, refinement gives up or leaves the run whole, or some
/// NPU is a member of two groups of one block.
fn quotient(trace: &ExecutionTrace, num_dims: usize, spans: &Spans) -> Option<(Orbits, Spans)> {
    let graph = Graph::new(trace, spans)?;
    let Colouring {
        npu, group, lane, ..
    } = refine(&graph, spans, num_dims)?;
    if npu.len() == trace.npus() {
        return None;
    }

    let (block_of, reps, sizes) = blocks(&npu.colour, npu.len());
    let (group_block, group_reps, group_sizes) = blocks(&group.colour, group.len());
    // Lane blocks are numbered in order of their lowest lane.
    let (lane_block, _, lane_sizes) = blocks(&lane.colour, lane.len());
    // The stable colouring is equitable: NPUs of one block are members of
    // equally many groups of each group block. So when some NPU is a
    // member of two groups of one block, its block's representative is.
    let mut seen = Vec::new();
    for &rep in &reps {
        seen.clear();
        seen.extend(
            graph
                .memberships
                .row(rep)
                .iter()
                .map(|&g| group_block[g as usize]),
        );
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
    }
    let mut lasts = vec![0; reps.len()];
    for (n, &b) in block_of.iter().enumerate() {
        lasts[b as usize] = n;
    }
    let mut member_counts = Vec::with_capacity(group_reps.len());
    let mut quotient = Spans::new();
    for &g in &group_reps {
        let span = spans.span(g);
        let mut member_blocks: Vec<NpuId> =
            span.members.iter().map(|&m| block_of[m] as NpuId).collect();
        member_blocks.sort_unstable();
        let mut counts: Vec<u64> = Vec::new();
        for (i, b) in member_blocks.iter().enumerate() {
            if i > 0 && member_blocks[i - 1] == *b {
                *counts.last_mut().unwrap_or(&mut 0) += 1;
            } else {
                counts.push(1);
            }
        }
        member_counts.push(counts);
        member_blocks.dedup();
        let lanes: Vec<usize> = graph
            .group_lanes
            .row(g)
            .iter()
            .map(|&l| lane_block[l as usize] as usize)
            .collect();
        quotient.push(GroupSpan {
            members: &member_blocks,
            lanes: &lanes,
            ..span
        });
    }
    let orbits = Orbits {
        block_of,
        reps,
        sizes,
        group_block,
        group_sizes,
        lanes: lane.len(),
        lasts,
        lane_sizes,
        member_counts,
    };
    Some((orbits, quotient))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::prepare;
    use astra_collectives::Collective;
    use astra_des::DataSize;
    use astra_workload::{models, parallelism, GroupId, NodeId, Parallelism, TraceBuilder};

    /// The reference refinement: every round recolours every NPU, group
    /// and lane from its whole signature, and the eligibility and
    /// two-groups checks visit every NPU. Returns the quotient and, when
    /// refinement settled, its rounds.
    fn full_pass(
        trace: &ExecutionTrace,
        num_dims: usize,
        spans: &Spans,
    ) -> (Option<(Orbits, Spans)>, Option<usize>) {
        let npus = trace.npus();
        let eligible = (0..npus).all(|npu| {
            trace.group_table(npu).all(|group| {
                spans
                    .get(group.0 as usize)
                    .is_some_and(|span| span.members.binary_search(&npu).is_ok())
            })
        });
        if !eligible {
            return (None, None);
        }
        let tables =
            Csr::from_rows((0..npus).map(|npu| trace.group_table(npu).map(|group| group.0)));
        let members = Csr::from_rows(spans.iter().map(|s| s.members.iter().map(|&m| m as u32)));
        let memberships = members.transpose(npus);
        let mut keys: Vec<usize> = spans.iter().flat_map(|s| s.lanes.iter().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        let group_lanes = Csr::from_rows(spans.iter().map(|s| {
            s.lanes
                .iter()
                .map(|key| keys.binary_search(key).unwrap() as u32)
        }));
        let lane_users = group_lanes.transpose(keys.len());

        let mut interner = Interner::default();
        let classes = program_colours(trace, &mut interner);
        let (mut npu, mut npu_count) = recolour(npus, &mut interner, |n, sig| {
            sig.push(classes[trace.class_of(n)]);
        });
        let (mut group, mut group_count) = recolour(spans.len(), &mut interner, |g, sig| {
            let span = spans.span(g);
            for (&axis, sub) in span.axes.iter().zip(span.dims) {
                sig.extend([axis as u32, sub.npus() as u32]);
            }
        });
        let (mut lane, mut lane_count) = recolour(keys.len(), &mut interner, |l, sig| {
            sig.push((keys[l] % num_dims) as u32);
        });
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > MAX_ROUNDS {
                return (None, None);
            }
            let (next_group, next_groups) = recolour(spans.len(), &mut interner, |g, sig| {
                sig.push(group[g]);
                sig.extend(group_lanes.row(g).iter().map(|&l| lane[l as usize]));
                push_multiset(sig, members.row(g), &npu);
            });
            let (next_lane, next_lanes) = recolour(keys.len(), &mut interner, |l, sig| {
                sig.push(lane[l]);
                push_multiset(sig, lane_users.row(l), &group);
            });
            let (next_npu, next_npus) = recolour(npus, &mut interner, |n, sig| {
                sig.push(npu[n]);
                sig.extend(tables.row(n).iter().map(|&g| group[g as usize]));
                push_multiset(sig, memberships.row(n), &group);
            });
            let counts = (next_npus, next_groups, next_lanes);
            let stable = counts == (npu_count, group_count, lane_count);
            (npu, group, lane) = (next_npu, next_group, next_lane);
            (npu_count, group_count, lane_count) = counts;
            if stable {
                break;
            }
        }
        let settled = Some(rounds);
        if npu_count == npus {
            return (None, settled);
        }

        let (block_of, reps, sizes) = blocks(&npu, npu_count);
        let (group_block, group_reps, group_sizes) = blocks(&group, group_count);
        let mut seen = Vec::new();
        for n in 0..npus {
            seen.clear();
            seen.extend(memberships.row(n).iter().map(|&g| group_block[g as usize]));
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return (None, settled);
            }
        }
        let mut lasts = vec![0; reps.len()];
        for (n, &b) in block_of.iter().enumerate() {
            lasts[b as usize] = n;
        }
        let mut lane_sizes = vec![0; lane_count];
        for &l in &lane {
            lane_sizes[l as usize] += 1;
        }
        let mut member_counts = Vec::new();
        let mut quotient = Spans::new();
        for &g in &group_reps {
            let span = spans.span(g);
            let mut member_blocks: Vec<NpuId> =
                span.members.iter().map(|&m| block_of[m] as NpuId).collect();
            member_blocks.sort_unstable();
            let mut counts: Vec<u64> = Vec::new();
            for (i, b) in member_blocks.iter().enumerate() {
                if i > 0 && member_blocks[i - 1] == *b {
                    *counts.last_mut().unwrap() += 1;
                } else {
                    counts.push(1);
                }
            }
            member_counts.push(counts);
            member_blocks.dedup();
            let lanes: Vec<usize> = group_lanes
                .row(g)
                .iter()
                .map(|&l| lane[l as usize] as usize)
                .collect();
            quotient.push(GroupSpan {
                members: &member_blocks,
                lanes: &lanes,
                ..span
            });
        }
        let orbits = Orbits {
            block_of,
            reps,
            sizes,
            group_block,
            group_sizes,
            lanes: lane_count,
            lasts,
            lane_sizes,
            member_counts,
        };
        (Some((orbits, quotient)), settled)
    }

    /// Everything a quotient hands the engine, comparable.
    #[derive(Debug, PartialEq)]
    struct Summary {
        block_of: Vec<u32>,
        reps: Vec<NpuId>,
        sizes: Vec<u64>,
        group_block: Vec<u32>,
        group_sizes: Vec<u64>,
        lanes: usize,
        lane_sizes: Vec<u64>,
        lasts: Vec<NpuId>,
        member_counts: Vec<Vec<u64>>,
        span_members: Vec<Vec<NpuId>>,
        span_lanes: Vec<Vec<usize>>,
    }

    fn summary((orbits, spans): (Orbits, Spans)) -> Summary {
        Summary {
            span_members: spans.iter().map(|s| s.members.to_vec()).collect(),
            span_lanes: spans.iter().map(|s| s.lanes.to_vec()).collect(),
            block_of: orbits.block_of,
            reps: orbits.reps,
            sizes: orbits.sizes,
            group_block: orbits.group_block,
            group_sizes: orbits.group_sizes,
            lanes: orbits.lanes,
            lane_sizes: orbits.lane_sizes,
            lasts: orbits.lasts,
            member_counts: orbits.member_counts,
        }
    }

    /// SplitMix64, for seeded cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn all_reduce(mib: u64, group: GroupId) -> EtOp {
        EtOp::Collective {
            collective: Collective::AllReduce,
            size: DataSize::from_mib(mib),
            group,
        }
    }

    /// NPUs `0..npus` on a line, each all-reducing with its neighbours
    /// over the groups `{i, i + 1}`, outward first so that NPU `i` and its
    /// mirror run one program. Refinement takes about `npus / 2` rounds.
    fn pairs_on_a_line(npus: usize) -> (ExecutionTrace, Topology) {
        let topo = Topology::parse(&format!("R({npus})@100")).unwrap();
        let mut b = TraceBuilder::new(npus);
        let pairs: Vec<GroupId> = (0..npus - 1).map(|i| b.add_group(vec![i, i + 1])).collect();
        for npu in 0..npus {
            let mut sides = vec![pairs.get(npu), npu.checked_sub(1).map(|i| &pairs[i])];
            if npu >= npus / 2 {
                sides.reverse();
            }
            for group in sides.into_iter().flatten() {
                b.node(npu, "ar", all_reduce(1, *group), &[]);
            }
        }
        (b.build().unwrap(), topo)
    }

    /// Random groups on a random grid of one to three dimensions and at
    /// most 96 NPUs: families of sub-grids that tile the grid along some
    /// dimensions, single sub-grids of random coordinates, and neighbour
    /// pairs, all free to overlap and to share lanes. Each NPU runs one of
    /// a few programs over the groups it is a member of.
    fn random_grid(rng: &mut Rng) -> (ExecutionTrace, Topology) {
        let shape = match rng.below(3) {
            0 => vec![2 + rng.below(95)],
            1 => {
                let x = 2 + rng.below(11);
                vec![x, 2 + rng.below(96 / x - 1)]
            }
            _ => {
                let (x, y) = (2 + rng.below(3), 2 + rng.below(3));
                vec![x, y, 2 + rng.below(96 / (x * y) - 1)]
            }
        };
        let blocks = ["R", "SW", "FC"];
        let notation: Vec<String> = shape
            .iter()
            .map(|k| format!("{}({k})@100", blocks[rng.below(3)]))
            .collect();
        let topo = Topology::parse(&notation.join("_")).unwrap();
        let npus = topo.npus();
        let coord = |npu: usize, dim: usize| npu / topo.dim_stride(dim) % shape[dim];
        let mut groups: Vec<Vec<NpuId>> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            match rng.below(3) {
                0 => {
                    let mask = 1 + rng.below((1 << shape.len()) - 1);
                    let spanned = |dim: usize| mask >> dim & 1 == 1;
                    for base in 0..npus {
                        if (0..shape.len()).all(|d| !spanned(d) || coord(base, d) == 0) {
                            let same = |m: usize| {
                                (0..shape.len())
                                    .all(|d| spanned(d) || coord(m, d) == coord(base, d))
                            };
                            groups.push((0..npus).filter(|&m| same(m)).collect());
                        }
                    }
                }
                1 => {
                    let picks: Vec<Vec<bool>> = shape
                        .iter()
                        .map(|&k| {
                            let first = rng.below(k);
                            (0..k).map(|c| c == first || rng.below(2) == 0).collect()
                        })
                        .collect();
                    groups.push(
                        (0..npus)
                            .filter(|&m| (0..shape.len()).all(|d| picks[d][coord(m, d)]))
                            .collect(),
                    );
                }
                _ => {
                    for _ in 0..1 + rng.below(npus) {
                        let (m, d) = (rng.below(npus), rng.below(shape.len()));
                        if coord(m, d) + 1 < shape[d] {
                            groups.push(vec![m, m + topo.dim_stride(d)]);
                        }
                    }
                }
            }
        }
        let mut b = TraceBuilder::new(npus);
        let ids: Vec<GroupId> = groups.iter().map(|g| b.add_group(g.clone())).collect();
        let programs = if rng.below(2) == 0 {
            1
        } else {
            2 + rng.below(2)
        };
        for npu in 0..npus {
            let program = rng.below(programs) as u64;
            let mut mine: Vec<GroupId> = ids
                .iter()
                .zip(&groups)
                .filter(|(_, members)| members.contains(&npu))
                .map(|(&id, _)| id)
                .collect();
            if program == 1 {
                mine.reverse();
            }
            let flops = 1e9 * (1 + program) as f64;
            let mut last: NodeId = b.node(npu, "c", compute(flops), &[]);
            for (i, &group) in mine.iter().enumerate() {
                last = b.node(
                    npu,
                    "ar",
                    all_reduce(1 + (program + i as u64) % 3, group),
                    &[last],
                );
            }
        }
        (b.build().unwrap(), topo)
    }

    fn compute(flops: f64) -> EtOp {
        EtOp::Compute {
            flops,
            tensor: DataSize::ZERO,
        }
    }

    #[test]
    fn incremental_rounds_match_full_passes() {
        let mut rng = Rng(0x0b17_5eed);
        let (mut collapsed, mut gave_up) = (0, 0);
        for case in 0..320 {
            let (trace, spans, num_dims) = if case % 64 == 0 {
                // One NPU, in a group of its own.
                let mut b = TraceBuilder::new(1);
                let solo = b.add_group(vec![0]);
                b.node(0, "ar", all_reduce(1, solo), &[]);
                let topo = Topology::parse("R(2)@100").unwrap();
                let mut spans = Spans::new();
                assert!(spans.push_group(&topo, &[0], &mut Vec::new()));
                (b.build().unwrap(), spans, 1)
            } else {
                let (trace, topo) = if case % 8 == 1 {
                    pairs_on_a_line(2 + rng.below(95))
                } else {
                    random_grid(&mut rng)
                };
                let spans = prepare(&trace, &topo, &SystemConfig::default())
                    .unwrap()
                    .spans;
                (trace, spans, topo.num_dims())
            };
            let (theirs, their_rounds) = full_pass(&trace, num_dims, &spans);
            let graph = Graph::new(&trace, &spans).expect("every NPU meets its own groups");
            let ours = refine(&graph, &spans, num_dims);
            assert_eq!(ours.map(|c| c.rounds), their_rounds, "case {case}");
            let theirs = theirs.map(summary);
            collapsed += usize::from(theirs.is_some());
            gave_up += usize::from(their_rounds.is_none());
            assert_eq!(
                quotient(&trace, num_dims, &spans).map(summary),
                theirs,
                "case {case}"
            );
        }
        assert!(
            collapsed >= 160 && gave_up >= 16,
            "{collapsed} collapsed, {gave_up} gave up"
        );
    }

    #[test]
    fn rounds_after_the_first_revisit_only_what_split() {
        // Every round recolours the 2,048 NPUs, 144 groups and 159 lanes in
        // a full pass, 7,053 signatures over rounds 2 to 4.
        let topo = Topology::parse("SW(64)@400_SW(32)@100").unwrap();
        let trace = parallelism::generate_trace(
            &models::gpt3_175b(),
            Parallelism::Hybrid { mp: 16 },
            topo.npus(),
        )
        .unwrap();
        let spans = prepare(&trace, &topo, &SystemConfig::default())
            .unwrap()
            .spans;
        let graph = Graph::new(&trace, &spans).unwrap();
        let colouring = refine(&graph, &spans, topo.num_dims()).unwrap();
        assert_eq!((colouring.rounds, colouring.signatures), (4, 306));
    }
}
