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
//! Each round recolours
//!
//! * a group by its colour, its lanes' colours and the multiset of its
//!   members' colours;
//! * a lane by its colour and the multiset of the colours of the groups
//!   that use it;
//! * an NPU by its colour, the colour of the group each slot of its group
//!   table names, and the multiset of the colours of the groups it is a
//!   member of.
//!
//! Refinement stops when no kind gains colours, or gives up after
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
        if !eligible(trace, config, spans) {
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
/// ring of pair groups, say) would take rounds in proportion to the NPU
/// count, each costing a pass over every NPU, group and lane.
const MAX_ROUNDS: usize = 16;

/// Whether a run may collapse (see [`Orbits::collapse`]).
fn eligible(trace: &ExecutionTrace, config: &SystemConfig, spans: &Spans) -> bool {
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
    closed_form
        && !peers
        && (0..trace.npus()).all(|npu| {
            trace.group_table(npu).all(|group| {
                spans
                    .get(group.0 as usize)
                    .is_some_and(|span| span.members.binary_search(&npu).is_ok())
            })
        })
}

/// Rows of `u32` items in one flat array: row `i` is
/// `items[at[i]..at[i + 1]]`.
struct Csr {
    at: Vec<usize>,
    items: Vec<u32>,
}

impl Csr {
    fn from_rows<R: IntoIterator<Item = u32>>(rows: impl IntoIterator<Item = R>) -> Self {
        let mut at = vec![0];
        let mut items = Vec::new();
        for row in rows {
            items.extend(row);
            at.push(items.len());
        }
        Csr { at, items }
    }

    fn len(&self) -> usize {
        self.at.len() - 1
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.items[self.at[i]..self.at[i + 1]]
    }

    /// The reverse relation over `cols` columns: row `c` lists, in
    /// ascending order, every row that holds `c`.
    fn transpose(&self, cols: usize) -> Csr {
        let mut at = vec![0usize; cols + 1];
        for &c in &self.items {
            at[c as usize + 1] += 1;
        }
        for i in 1..at.len() {
            at[i] += at[i - 1];
        }
        let mut cursor = at.clone();
        let mut items = vec![0u32; self.items.len()];
        for r in 0..self.len() {
            for &c in self.row(r) {
                items[cursor[c as usize]] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        Csr { at, items }
    }
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
    let mut sig = Vec::new();
    let colours = (0..vertices)
        .map(|v| {
            sig.clear();
            signature(v, &mut sig);
            interner.intern(&sig)
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

/// Refines an eligible run to its coarsest stable colouring and builds
/// the quotient, or `None` when some NPU is a member of two groups of one
/// block.
fn quotient(trace: &ExecutionTrace, num_dims: usize, spans: &Spans) -> Option<(Orbits, Spans)> {
    let npus = trace.npus();
    let tables = Csr::from_rows((0..npus).map(|npu| trace.group_table(npu).map(|group| group.0)));
    let members = Csr::from_rows(spans.iter().map(|s| s.members.iter().map(|&m| m as u32)));
    let memberships = members.transpose(npus);
    let mut keys: Vec<usize> = spans.iter().flat_map(|s| s.lanes.iter().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    let group_lanes = Csr::from_rows(spans.iter().map(|s| {
        s.lanes
            .iter()
            .map(|key| keys.binary_search(key).unwrap_or_default() as u32)
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
            return None;
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
    if npu_count == npus {
        return None;
    }

    let (block_of, reps, sizes) = blocks(&npu, npu_count);
    let (group_block, group_reps, group_sizes) = blocks(&group, group_count);
    let mut seen = Vec::new();
    for n in 0..npus {
        seen.clear();
        seen.extend(memberships.row(n).iter().map(|&g| group_block[g as usize]));
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return None;
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
    Some((orbits, quotient))
}
