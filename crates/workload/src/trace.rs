//! The ASTRA-sim execution-trace (ET) format (§IV-A, Fig. 1b).

use astra_collectives::Collective;
use astra_des::DataSize;
use astra_topology::NpuId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Index of a node within one NPU's program.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

/// Index of a communicator group within a trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GroupId(pub u32);

/// Whether a memory node loads or stores its tensor.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryDirection {
    /// Memory → NPU.
    Load,
    /// NPU → memory.
    Store,
}

/// Where a memory node's tensor lives (§IV-D).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorLocation {
    /// Local HBM.
    Local,
    /// The disaggregated remote pool; `gathered` requests in-switch
    /// collective handling (All-Gather on load / Reduce-Scatter on store).
    Remote {
        /// Use in-switch collective gathering/scattering.
        gathered: bool,
    },
}

/// The operation an ET node performs — the paper's three node types with
/// their metadata (Fig. 1b), plus explicit peer-to-peer send/receive for
/// pipeline parallelism.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EtOp {
    /// Computation: `#FP ops` and the tensor footprint touched (for the
    /// roofline model).
    Compute {
        /// Floating-point operations.
        flops: f64,
        /// Bytes moved through local memory by this computation.
        tensor: DataSize,
    },
    /// A local or remote memory access of `size` bytes.
    Memory {
        /// Load or store.
        direction: MemoryDirection,
        /// Local HBM or the remote pool.
        location: TensorLocation,
        /// Tensor size.
        size: DataSize,
    },
    /// A collective communication of `size` bytes over a communicator
    /// group.
    Collective {
        /// Which collective pattern.
        collective: Collective,
        /// Payload size (see [`Collective`] size conventions).
        size: DataSize,
        /// The participating group.
        group: GroupId,
    },
    /// Peer-to-peer send (pipeline-parallel activations/gradients).
    PeerSend {
        /// Destination NPU.
        peer: NpuId,
        /// Message size.
        size: DataSize,
        /// Matching tag: a `PeerRecv` with the same `(src, dst, tag)`
        /// completes when this send is delivered.
        tag: u64,
    },
    /// Peer-to-peer receive.
    PeerRecv {
        /// Source NPU.
        peer: NpuId,
        /// Message size.
        size: DataSize,
        /// Matching tag.
        tag: u64,
    },
}

/// One node of an execution trace: an operation plus its dependencies
/// (indices of earlier nodes in the same NPU's program).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EtNode {
    /// Human-readable name (e.g. `"layer3.bwd"`), for reports and debugging.
    pub name: String,
    /// The operation.
    pub op: EtOp,
    /// Intra-NPU dependencies: this node is ready when all of them are done.
    pub deps: Vec<NodeId>,
}

/// A complete multi-NPU execution trace: one program (DAG) per NPU plus the
/// communicator groups the programs reference.
///
/// NPUs that run the same program share one stored copy of it (a *class*):
/// an SPMD trace stores a single program however many NPUs run it. Inside
/// a stored program a collective's `group` and a peer message's `peer` are
/// class-local slots; each NPU carries a small slot table mapping them to
/// trace-wide groups ([`ExecutionTrace::group_of`]) and NPUs
/// ([`ExecutionTrace::peer_of`]), so NPUs whose programs differ only in the
/// groups and peers they name still share one program.
///
/// Traces serialize to/from JSON (the "ASTRA-sim ET" interchange format),
/// which lists every NPU's program in full with trace-wide group ids and
/// NPU ids.
/// Equality is semantic: two traces are equal iff their names, NPU counts,
/// groups and every NPU's resolved program are equal, however they are
/// stored.
///
/// # Example
///
/// ```
/// use astra_des::DataSize;
/// use astra_workload::{EtOp, ExecutionTrace, TraceBuilder};
///
/// let mut b = TraceBuilder::new(2);
/// let g = b.add_group(vec![0, 1]);
/// for npu in 0..2 {
///     let c = b.node(npu, "fwd", EtOp::Compute { flops: 1e9, tensor: DataSize::from_mib(1) }, &[]);
///     b.node(npu, "sync", EtOp::Collective {
///         collective: astra_collectives::Collective::AllReduce,
///         size: DataSize::from_mib(64),
///         group: g,
///     }, &[c]);
/// }
/// let trace: ExecutionTrace = b.build().unwrap();
/// let json = trace.to_json().unwrap();
/// assert_eq!(ExecutionTrace::from_json(&json).unwrap(), trace);
/// ```
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    name: String,
    npus: usize,
    groups: Vec<Vec<NpuId>>,
    /// Every distinct stored program; collectives name group slots and
    /// peer messages peer slots.
    classes: Vec<Vec<EtNode>>,
    /// Per class: how many group slots its programs name.
    group_slots: Vec<u32>,
    /// Per NPU: the class it runs.
    class_of: Vec<u32>,
    /// Per NPU: its slot table, `tables[table_at[npu]..table_at[npu + 1]]`:
    /// the group of each group slot, then the NPU of each peer slot.
    table_at: Vec<usize>,
    tables: Vec<u32>,
}

/// The JSON interchange form: every NPU's program in full, naming
/// trace-wide group ids.
#[derive(Serialize, Deserialize)]
struct WireTrace {
    name: String,
    npus: usize,
    groups: Vec<Vec<NpuId>>,
    programs: Vec<Vec<EtNode>>,
}

impl ExecutionTrace {
    /// Number of NPUs the trace targets.
    pub fn npus(&self) -> usize {
        self.npus
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program (topologically ordered node list) of one NPU, as stored
    /// once for its whole class: a collective's `group` is a slot, resolved
    /// for this NPU by [`ExecutionTrace::group_of`], and a peer message's
    /// `peer` is a slot, resolved by [`ExecutionTrace::peer_of`].
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn program(&self, npu: NpuId) -> &[EtNode] {
        &self.classes[self.class_of(npu)]
    }

    /// The trace-wide group that `npu`'s program names by `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range or its table has no such slot.
    pub fn group_of(&self, npu: NpuId, slot: GroupId) -> GroupId {
        GroupId(self.slot_table(npu).0[slot.0 as usize])
    }

    /// The NPU that `npu`'s program names by peer slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range or its table has no such slot.
    pub fn peer_of(&self, npu: NpuId, slot: NpuId) -> NpuId {
        self.slot_table(npu).1[slot] as NpuId
    }

    /// `npu`'s group table: the trace-wide group of each of its program's
    /// group slots, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn group_table(&self, npu: NpuId) -> impl ExactSizeIterator<Item = GroupId> + '_ {
        self.slot_table(npu).0.iter().map(|&g| GroupId(g))
    }

    /// `npu`'s slot table, split into its group slots and its peer slots.
    fn slot_table(&self, npu: NpuId) -> (&[u32], &[u32]) {
        let table = &self.tables[self.table_at[npu]..self.table_at[npu + 1]];
        table.split_at(self.group_slots[self.class_of(npu)] as usize)
    }

    /// The class (index into [`ExecutionTrace::classes`]) `npu` runs.
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn class_of(&self, npu: NpuId) -> usize {
        self.class_of[npu] as usize
    }

    /// Every distinct stored program, each run by one or more NPUs.
    pub fn classes(&self) -> &[Vec<EtNode>] {
        &self.classes
    }

    /// The members of a communicator group.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn group(&self, id: GroupId) -> &[NpuId] {
        &self.groups[id.0 as usize]
    }

    /// All communicator groups.
    pub fn groups(&self) -> &[Vec<NpuId>] {
        &self.groups
    }

    /// Total node count across all NPUs, counting a shared program once
    /// per NPU that runs it.
    pub fn total_nodes(&self) -> usize {
        (0..self.npus).map(|npu| self.program(npu).len()).sum()
    }

    /// Nodes physically stored: each class's program counted once.
    pub fn stored_nodes(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// `op` as `npu` runs it: a collective names its trace-wide group and
    /// a peer message its NPU.
    fn resolved_op(&self, npu: NpuId, mut op: EtOp) -> EtOp {
        match &mut op {
            EtOp::Collective { group, .. } => *group = self.group_of(npu, *group),
            EtOp::PeerSend { peer, .. } | EtOp::PeerRecv { peer, .. } => {
                *peer = self.peer_of(npu, *peer);
            }
            EtOp::Compute { .. } | EtOp::Memory { .. } => {}
        }
        op
    }

    /// Serializes to the JSON ET interchange format.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error if serialization fails (it cannot for
    /// well-formed traces).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a JSON ET produced by [`ExecutionTrace::to_json`] (or an
    /// external converter emitting the same schema).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error on malformed input, on an `npus` that
    /// differs from the number of programs, on a dependency that does not
    /// precede its node, and on a peer id wider than 32 bits. Groups,
    /// membership and peers are not checked otherwise (the engine reports
    /// bad groups as it meets them); use
    /// [`TraceBuilder`] to construct fully validated traces
    /// programmatically.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Checks the structural rules of [`TraceBuilder::build`]: dependencies
    /// once per class; groups, membership and peer messages per NPU.
    fn validate(&self) -> Result<(), TraceError> {
        // Per class: its first node with a bad dependency, and whether it
        // sends or receives peer messages.
        let checks: Vec<(Option<u32>, bool)> = self
            .classes
            .iter()
            .map(|program| {
                let peers = program
                    .iter()
                    .any(|node| matches!(node.op, EtOp::PeerSend { .. } | EtOp::PeerRecv { .. }));
                (first_bad_dependency(program), peers)
            })
            .collect();
        let mut sends: BTreeMap<(NpuId, NpuId, u64), i64> = BTreeMap::new();
        for npu in 0..self.npus {
            let program = self.program(npu);
            let (bad_dependency, peers) = checks[self.class_of(npu)];
            if let Some(node) = bad_dependency {
                return Err(TraceError::BadDependency { npu, node });
            }
            // Every slot must name a known group `npu` is in (`add_group`
            // keeps members sorted, so membership is a binary search); a
            // bad slot is reported at the first node naming it.
            for (slot, group) in self.group_table(npu).enumerate() {
                let members = self.groups.get(group.0 as usize);
                if members.is_some_and(|m| m.binary_search(&npu).is_ok()) {
                    continue;
                }
                let names_slot = |n: &EtNode| matches!(n.op, EtOp::Collective { group, .. } if group.0 as usize == slot);
                let node = program.iter().position(names_slot).map_or(0, |i| i as u32);
                return Err(match members {
                    Some(_) => TraceError::NotAMember { npu, node },
                    None => TraceError::BadGroup { npu, node },
                });
            }
            if !peers {
                continue;
            }
            for (idx, node) in program.iter().enumerate() {
                let (key, delta, peer) = match self.resolved_op(npu, node.op) {
                    EtOp::PeerSend { peer, tag, .. } => ((npu, peer, tag), 1, peer),
                    EtOp::PeerRecv { peer, tag, .. } => ((peer, npu, tag), -1, peer),
                    _ => continue,
                };
                if peer >= self.npus {
                    return Err(TraceError::BadPeer {
                        npu,
                        node: idx as u32,
                    });
                }
                *sends.entry(key).or_insert(0) += delta;
            }
        }
        if let Some(((src, dst, tag), _)) = sends.iter().find(|(_, &count)| count != 0) {
            return Err(TraceError::UnmatchedPeerMessage {
                src: *src,
                dst: *dst,
                tag: *tag,
            });
        }
        Ok(())
    }
}

impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.npus == other.npus
            && self.groups == other.groups
            && (0..self.npus).all(|npu| {
                let (a, b) = (self.program(npu), other.program(npu));
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        x.name == y.name
                            && x.deps == y.deps
                            && self.resolved_op(npu, x.op) == other.resolved_op(npu, y.op)
                    })
            })
    }
}

impl Serialize for ExecutionTrace {
    fn to_value(&self) -> serde::Value {
        let programs = (0..self.npus)
            .map(|npu| {
                self.program(npu)
                    .iter()
                    .map(|node| EtNode {
                        name: node.name.clone(),
                        op: self.resolved_op(npu, node.op),
                        deps: node.deps.clone(),
                    })
                    .collect()
            })
            .collect();
        WireTrace {
            name: self.name.clone(),
            npus: self.npus,
            groups: self.groups.clone(),
            programs,
        }
        .to_value()
    }
}

impl Deserialize for ExecutionTrace {
    /// Parses the wire form into one class per NPU, rejecting an `npus`
    /// that differs from the number of programs and any dependency that
    /// does not precede its node (the two mistakes the engine cannot
    /// survive), and a peer id wider than the 32 bits a slot table holds.
    /// Groups are kept exactly as listed.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = WireTrace::from_value(v)?;
        if wire.programs.len() != wire.npus {
            return Err(serde::Error::custom(format!(
                "trace declares {} NPUs but holds {} programs",
                wire.npus,
                wire.programs.len()
            )));
        }
        for (npu, program) in wire.programs.iter().enumerate() {
            if let Some(node) = first_bad_dependency(program) {
                return Err(serde::Error::custom(TraceError::BadDependency {
                    npu,
                    node,
                }));
            }
            let wide_peer = |n: &EtNode| matches!(n.op, EtOp::PeerSend { peer, .. } | EtOp::PeerRecv { peer, .. } if u32::try_from(peer).is_err());
            if let Some(node) = program.iter().position(wide_peer) {
                return Err(serde::Error::custom(TraceError::BadPeer {
                    npu,
                    node: node as u32,
                }));
            }
        }
        Ok(TraceBuilder {
            name: wire.name,
            npus: wire.npus,
            groups: wire.groups,
            group_index: BTreeSet::new(),
            shared: vec![None; wire.npus],
            slots: Vec::new(),
            programs: wire.programs,
            classes: Vec::new(),
            group_slots: Vec::new(),
            table_lens: Vec::new(),
        }
        .assemble())
    }
}

/// The first node of `program` with a dependency that does not precede it.
fn first_bad_dependency(program: &[EtNode]) -> Option<u32> {
    program
        .iter()
        .enumerate()
        .find(|(idx, node)| node.deps.iter().any(|dep| dep.0 as usize >= *idx))
        .map(|(idx, _)| idx as u32)
}

/// Rewrites the trace-wide groups a program's collectives name, and the
/// NPUs its peer messages name, into slots numbered in first-use order
/// (groups and peers each from zero). Returns the group and the NPU of
/// each slot.
fn into_slots(program: &mut [EtNode]) -> (Vec<GroupId>, Vec<NpuId>) {
    let mut groups = Vec::new();
    let mut peers = Vec::new();
    for node in program {
        match &mut node.op {
            EtOp::Collective { group, .. } => *group = GroupId(slot_of(&mut groups, *group) as u32),
            EtOp::PeerSend { peer, .. } | EtOp::PeerRecv { peer, .. } => {
                *peer = slot_of(&mut peers, *peer);
            }
            EtOp::Compute { .. } | EtOp::Memory { .. } => {}
        }
    }
    (groups, peers)
}

/// The slot of `item` in `table`, appending it if it is new.
fn slot_of<T: PartialEq>(table: &mut Vec<T>, item: T) -> usize {
    table.iter().position(|t| *t == item).unwrap_or_else(|| {
        table.push(item);
        table.len() - 1
    })
}

/// Appends one NPU's slot table to `tables`: its groups, then its peers.
/// A peer too wide for 32 bits is stored as `u32::MAX`, out of range for
/// any trace, so [`TraceBuilder::build`] still reports it as a bad peer.
fn pack_table(
    tables: &mut Vec<u32>,
    groups: impl Iterator<Item = GroupId>,
    peers: impl Iterator<Item = NpuId>,
) {
    tables.extend(groups.map(|g| g.0));
    tables.extend(peers.map(|p| u32::try_from(p).unwrap_or(u32::MAX)));
}

/// FNV-1a over a group's members: the key of [`TraceBuilder::add_group`]'s
/// dedup index.
fn members_hash(members: &[NpuId]) -> u64 {
    members.iter().fold(0xcbf2_9ce4_8422_2325, |h, &m| {
        (h ^ m as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Errors detected while building a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A node referenced a dependency that does not precede it.
    BadDependency {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// A collective referenced an unknown group.
    BadGroup {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// A collective's group does not contain the NPU issuing it.
    NotAMember {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// A peer id was out of range.
    BadPeer {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// Sends and receives with the same `(src, dst, tag)` do not pair up.
    UnmatchedPeerMessage {
        /// Sender NPU.
        src: NpuId,
        /// Receiver NPU.
        dst: NpuId,
        /// Message tag.
        tag: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadDependency { npu, node } => {
                write!(
                    f,
                    "node {node} on NPU {npu} depends on a later or missing node"
                )
            }
            TraceError::BadGroup { npu, node } => {
                write!(f, "node {node} on NPU {npu} references an unknown group")
            }
            TraceError::NotAMember { npu, node } => {
                write!(
                    f,
                    "node {node} on NPU {npu} issues a collective for a group it is not in"
                )
            }
            TraceError::BadPeer { npu, node } => {
                write!(
                    f,
                    "node {node} on NPU {npu} references an out-of-range peer"
                )
            }
            TraceError::UnmatchedPeerMessage { src, dst, tag } => {
                write!(f, "unmatched peer message {src}->{dst} tag {tag}")
            }
        }
    }
}

impl Error for TraceError {}

/// Builds a single NPU's program (a dependency-ordered node list with
/// NPU-local [`NodeId`]s) independently of any [`TraceBuilder`].
///
/// Node ids are indices into this one program, exactly as in
/// [`TraceBuilder::node`], so a program can be built apart from its trace
/// and installed with [`TraceBuilder::set_program`] afterwards. The trace
/// generators build one per class of NPUs this way.
///
/// # Example
///
/// ```
/// use astra_des::DataSize;
/// use astra_workload::{EtOp, ProgramBuilder, TraceBuilder};
///
/// let mut b = TraceBuilder::new(1);
/// let mut p = ProgramBuilder::new();
/// let c = p.node("fwd", EtOp::Compute { flops: 1e9, tensor: DataSize::from_mib(1) }, &[]);
/// p.node("bwd", EtOp::Compute { flops: 2e9, tensor: DataSize::from_mib(1) }, &[c]);
/// b.set_program(0, p);
/// assert_eq!(b.build().unwrap().program(0).len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    nodes: Vec<EtNode>,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node and returns its id. Dependencies must be earlier
    /// nodes of this program (validated by [`TraceBuilder::build`]).
    pub fn node(&mut self, name: impl Into<String>, op: EtOp, deps: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(EtNode {
            name: name.into(),
            op,
            deps: deps.to_vec(),
        });
        id
    }
}

/// Validated, incremental construction of an [`ExecutionTrace`].
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    name: String,
    npus: usize,
    groups: Vec<Vec<NpuId>>,
    /// Every group added by [`TraceBuilder::add_group`], keyed by the hash
    /// of its members.
    group_index: BTreeSet<(u64, u32)>,
    /// Per NPU: the program built node by node or installed with
    /// [`TraceBuilder::set_program`], naming trace-wide group and NPU ids.
    /// Empty until the first such NPU, so a trace whose NPUs all share
    /// classes keeps no per-NPU program.
    programs: Vec<Vec<EtNode>>,
    /// Programs shared by the generators' NPU classes; collectives and
    /// peer messages name slots.
    classes: Vec<Vec<EtNode>>,
    /// Per class: how many group slots its program names, and how many
    /// slots (group and peer) its tables hold.
    group_slots: Vec<u32>,
    table_lens: Vec<usize>,
    /// Per NPU: the shared class it runs instead of `programs[npu]`, if
    /// any, and where its slot table starts in `slots`.
    shared: Vec<Option<(u32, usize)>>,
    /// The slot tables of the NPUs that share a class, back to back.
    slots: Vec<u32>,
}

impl TraceBuilder {
    /// Starts a trace for `npus` NPUs.
    ///
    /// # Panics
    ///
    /// Panics if `npus == 0`.
    pub fn new(npus: usize) -> Self {
        assert!(npus > 0, "trace needs at least one NPU");
        TraceBuilder {
            name: "trace".to_owned(),
            npus,
            groups: Vec::new(),
            group_index: BTreeSet::new(),
            programs: Vec::new(),
            classes: Vec::new(),
            group_slots: Vec::new(),
            table_lens: Vec::new(),
            shared: vec![None; npus],
            slots: Vec::new(),
        }
    }

    /// Sets the trace name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Registers a communicator group and returns its id. Members are
    /// de-duplicated and sorted; an identical group already registered is
    /// reused, so ids number the distinct groups in first-seen order.
    pub fn add_group(&mut self, mut members: Vec<NpuId>) -> GroupId {
        members.sort_unstable();
        members.dedup();
        // Reuse identical groups to keep traces small: the groups with the
        // same hash are the candidates.
        let hash = members_hash(&members);
        let known = self
            .group_index
            .range((hash, 0)..=(hash, u32::MAX))
            .map(|&(_, id)| id)
            .find(|&id| self.groups[id as usize] == members);
        if let Some(id) = known {
            return GroupId(id);
        }
        let id = self.groups.len() as u32;
        self.group_index.insert((hash, id));
        self.groups.push(members);
        GroupId(id)
    }

    /// Appends a node to `npu`'s program and returns its id. Dependencies
    /// must be earlier nodes of the same NPU (topological insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn node(
        &mut self,
        npu: NpuId,
        name: impl Into<String>,
        op: EtOp,
        deps: &[NodeId],
    ) -> NodeId {
        assert!(npu < self.npus, "NPU {npu} out of range");
        debug_assert!(
            self.shared[npu].is_none(),
            "NPU {npu} runs a shared program"
        );
        let program = self.own_program(npu);
        let id = NodeId(program.len() as u32);
        program.push(EtNode {
            name: name.into(),
            op,
            deps: deps.to_vec(),
        });
        id
    }

    /// Id of the most recently added node of `npu`, if any.
    pub fn last_node(&self, npu: NpuId) -> Option<NodeId> {
        let len = self.programs.get(npu).map_or(0, Vec::len);
        (len > 0).then(|| NodeId((len - 1) as u32))
    }

    /// Replaces `npu`'s program wholesale with one built off-builder via a
    /// [`ProgramBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn set_program(&mut self, npu: NpuId, program: ProgramBuilder) {
        assert!(npu < self.npus, "NPU {npu} out of range");
        *self.own_program(npu) = program.nodes;
        self.shared[npu] = None;
    }

    /// `npu`'s own program, making room for every NPU's on first use.
    fn own_program(&mut self, npu: NpuId) -> &mut Vec<EtNode> {
        if self.programs.is_empty() {
            self.programs.resize_with(self.npus, Vec::new);
        }
        &mut self.programs[npu]
    }

    /// Stores `program` once as a class for NPUs to share through
    /// [`TraceBuilder::share`]. Returns the class and the slot tables of
    /// the NPU the program was built for: its collectives' groups and its
    /// peer messages' NPUs, by slot.
    pub(crate) fn add_class(&mut self, program: ProgramBuilder) -> (u32, Vec<GroupId>, Vec<NpuId>) {
        let mut nodes = program.nodes;
        let (groups, peers) = into_slots(&mut nodes);
        self.classes.push(nodes);
        self.group_slots.push(groups.len() as u32);
        self.table_lens.push(groups.len() + peers.len());
        ((self.classes.len() - 1) as u32, groups, peers)
    }

    /// Makes `npu` run `class`, with `groups` and `peers` mapping the
    /// class's group and peer slots to trace-wide groups and NPUs,
    /// replacing its own program. `node` and `last_node` address only NPUs
    /// that run their own program.
    pub(crate) fn share(
        &mut self,
        npu: NpuId,
        class: u32,
        groups: impl ExactSizeIterator<Item = GroupId>,
        peers: impl Iterator<Item = NpuId>,
    ) {
        debug_assert_eq!(groups.len(), self.group_slots[class as usize] as usize);
        if let Some(program) = self.programs.get_mut(npu) {
            *program = Vec::new();
        }
        let start = self.slots.len();
        pack_table(&mut self.slots, groups, peers);
        debug_assert_eq!(self.slots.len() - start, self.table_lens[class as usize]);
        self.shared[npu] = Some((class, start));
    }

    /// Validates and finalizes the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first structural problem
    /// found, NPU by NPU: a dangling dependency, then an unknown group or
    /// non-member collective, then an out-of-range peer; unmatched
    /// send/recv pairs last.
    pub fn build(self) -> Result<ExecutionTrace, TraceError> {
        let trace = self.assemble();
        trace.validate()?;
        Ok(trace)
    }

    /// Lays the programs out flyweight: shared classes as installed, and
    /// each NPU's own program as a class of its own.
    fn assemble(mut self) -> ExecutionTrace {
        let mut class_of = Vec::with_capacity(self.npus);
        let mut table_at = Vec::with_capacity(self.npus + 1);
        let mut tables = Vec::with_capacity(self.slots.len());
        table_at.push(0);
        let programs = std::mem::take(&mut self.programs);
        let shared = std::mem::take(&mut self.shared);
        let programs = programs.into_iter().chain(std::iter::repeat_with(Vec::new));
        for (nodes, shared) in programs.zip(shared) {
            let class = match shared {
                Some((class, start)) => {
                    let len = self.table_lens[class as usize];
                    tables.extend_from_slice(&self.slots[start..start + len]);
                    class
                }
                None => {
                    let (class, groups, peers) = self.add_class(ProgramBuilder { nodes });
                    pack_table(&mut tables, groups.into_iter(), peers.into_iter());
                    class
                }
            };
            class_of.push(class);
            table_at.push(tables.len());
        }
        ExecutionTrace {
            name: self.name,
            npus: self.npus,
            groups: self.groups,
            classes: self.classes,
            group_slots: self.group_slots,
            class_of,
            table_at,
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute() -> EtOp {
        EtOp::Compute {
            flops: 1e9,
            tensor: DataSize::from_mib(1),
        }
    }

    #[test]
    fn builds_simple_trace() {
        let mut b = TraceBuilder::new(2).with_name("unit");
        let g = b.add_group(vec![0, 1]);
        for npu in 0..2 {
            let c = b.node(npu, "fwd", compute(), &[]);
            b.node(
                npu,
                "ar",
                EtOp::Collective {
                    collective: Collective::AllReduce,
                    size: DataSize::from_mib(8),
                    group: g,
                },
                &[c],
            );
        }
        let t = b.build().unwrap();
        assert_eq!(t.name(), "unit");
        assert_eq!(t.npus(), 2);
        assert_eq!(t.total_nodes(), 4);
        assert_eq!(t.group(g), &[0, 1]);
        assert_eq!(t.program(1)[1].deps, vec![NodeId(0)]);
    }

    #[test]
    fn groups_are_deduplicated() {
        let mut b = TraceBuilder::new(4);
        let g1 = b.add_group(vec![2, 0]);
        let g2 = b.add_group(vec![0, 2]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn rejects_forward_dependency() {
        let mut b = TraceBuilder::new(1);
        b.node(0, "x", compute(), &[NodeId(5)]);
        assert!(matches!(
            b.build(),
            Err(TraceError::BadDependency { npu: 0, node: 0 })
        ));
    }

    #[test]
    fn rejects_unknown_group() {
        let mut b = TraceBuilder::new(1);
        b.node(
            0,
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(1),
                group: GroupId(9),
            },
            &[],
        );
        assert!(matches!(b.build(), Err(TraceError::BadGroup { .. })));
    }

    #[test]
    fn rejects_collective_from_non_member() {
        let mut b = TraceBuilder::new(3);
        let g = b.add_group(vec![0, 1]);
        b.node(
            2,
            "ar",
            EtOp::Collective {
                collective: Collective::AllGather,
                size: DataSize::from_mib(1),
                group: g,
            },
            &[],
        );
        assert!(matches!(b.build(), Err(TraceError::NotAMember { .. })));
    }

    #[test]
    fn rejects_unmatched_send() {
        let mut b = TraceBuilder::new(2);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 1,
                size: DataSize::from_mib(1),
                tag: 7,
            },
            &[],
        );
        assert!(matches!(
            b.build(),
            Err(TraceError::UnmatchedPeerMessage {
                src: 0,
                dst: 1,
                tag: 7
            })
        ));
    }

    #[test]
    fn matched_send_recv_pass_validation() {
        let mut b = TraceBuilder::new(2);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 1,
                size: DataSize::from_mib(1),
                tag: 7,
            },
            &[],
        );
        b.node(
            1,
            "recv",
            EtOp::PeerRecv {
                peer: 0,
                size: DataSize::from_mib(1),
                tag: 7,
            },
            &[],
        );
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_out_of_range_peer() {
        let mut b = TraceBuilder::new(2);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 5,
                size: DataSize::from_mib(1),
                tag: 0,
            },
            &[],
        );
        assert!(matches!(b.build(), Err(TraceError::BadPeer { .. })));
    }

    #[test]
    fn json_roundtrip() {
        let mut b = TraceBuilder::new(2).with_name("roundtrip");
        let g = b.add_group(vec![0, 1]);
        for npu in 0..2 {
            let c = b.node(npu, "fwd", compute(), &[]);
            let m = b.node(
                npu,
                "load",
                EtOp::Memory {
                    direction: MemoryDirection::Load,
                    location: TensorLocation::Remote { gathered: true },
                    size: DataSize::from_mib(4),
                },
                &[c],
            );
            b.node(
                npu,
                "a2a",
                EtOp::Collective {
                    collective: Collective::AllToAll,
                    size: DataSize::from_mib(2),
                    group: g,
                },
                &[m],
            );
        }
        let t = b.build().unwrap();
        let json = t.to_json().unwrap();
        assert_eq!(ExecutionTrace::from_json(&json).unwrap(), t);
    }

    /// A 2-NPU trace with one compute node per NPU, as JSON.
    fn two_compute_json() -> String {
        let mut b = TraceBuilder::new(2);
        for npu in 0..2 {
            b.node(npu, "fwd", compute(), &[]);
        }
        b.build().unwrap().to_json().unwrap()
    }

    #[test]
    fn from_json_rejects_a_dependency_that_does_not_precede_its_node() {
        let json = two_compute_json();
        let edited = json.replacen("\"deps\": []", "\"deps\": [7]", 1);
        assert_ne!(edited, json, "unexpected trace JSON layout");
        let err = ExecutionTrace::from_json(&edited).unwrap_err();
        assert_eq!(
            err.to_string(),
            TraceError::BadDependency { npu: 0, node: 0 }.to_string()
        );
    }

    #[test]
    fn from_json_rejects_an_npu_count_that_differs_from_the_programs() {
        let json = two_compute_json();
        let edited = json.replacen("\"npus\": 2", "\"npus\": 4", 1);
        assert_ne!(edited, json, "unexpected trace JSON layout");
        let err = ExecutionTrace::from_json(&edited).unwrap_err();
        assert!(
            err.to_string().contains("4 NPUs but holds 2 programs"),
            "{err}"
        );
    }

    #[test]
    fn shared_programs_resolve_groups_per_npu() {
        // Two NPU pairs run one stored program; each pair's table names
        // its own group.
        let mut b = TraceBuilder::new(4).with_name("shared");
        let low = b.add_group(vec![0, 1]);
        let high = b.add_group(vec![2, 3]);
        let mut p = ProgramBuilder::new();
        let c = p.node("fwd", compute(), &[]);
        p.node(
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(8),
                group: low,
            },
            &[c],
        );
        let (class, groups, peers) = b.add_class(p);
        assert_eq!((groups, peers), (vec![low], vec![]));
        for npu in 0..4 {
            b.share(
                npu,
                class,
                [if npu < 2 { low } else { high }].into_iter(),
                [].into_iter(),
            );
        }
        let t = b.build().unwrap();
        assert_eq!(t.classes().len(), 1);
        assert_eq!(t.stored_nodes(), 2);
        assert_eq!(t.total_nodes(), 8);
        assert!(std::ptr::eq(t.program(0), t.program(3)));
        assert_eq!(t.group_of(1, GroupId(0)), low);
        assert_eq!(t.group_of(2, GroupId(0)), high);

        // The same trace built node by node is equal, stores one program
        // per NPU, and serializes to the same bytes.
        let mut b = TraceBuilder::new(4).with_name("shared");
        let low = b.add_group(vec![0, 1]);
        let high = b.add_group(vec![2, 3]);
        for npu in 0..4 {
            let c = b.node(npu, "fwd", compute(), &[]);
            let group = if npu < 2 { low } else { high };
            b.node(
                npu,
                "ar",
                EtOp::Collective {
                    collective: Collective::AllReduce,
                    size: DataSize::from_mib(8),
                    group,
                },
                &[c],
            );
        }
        let expanded = b.build().unwrap();
        assert_eq!(expanded.classes().len(), 4);
        assert_eq!(expanded, t);
        assert_eq!(expanded.to_json().unwrap(), t.to_json().unwrap());
        assert_eq!(ExecutionTrace::from_json(&t.to_json().unwrap()).unwrap(), t);
    }

    #[test]
    fn shared_tables_are_validated_per_npu() {
        let mut b = TraceBuilder::new(4);
        let low = b.add_group(vec![0, 1]);
        let mut p = ProgramBuilder::new();
        let c = p.node("fwd", compute(), &[]);
        p.node(
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(8),
                group: low,
            },
            &[c],
        );
        let (class, groups, peers) = b.add_class(p);
        for npu in 0..4 {
            b.share(npu, class, groups.iter().copied(), peers.iter().copied());
        }
        // NPU 2 runs the program with NPU 0's table: not a member.
        assert_eq!(
            b.clone().build().unwrap_err(),
            TraceError::NotAMember { npu: 2, node: 1 }
        );
        b.share(2, class, [GroupId(9)].into_iter(), [].into_iter());
        assert_eq!(
            b.build().unwrap_err(),
            TraceError::BadGroup { npu: 2, node: 1 }
        );
    }

    /// A ring of four NPUs: each sends to its successor and receives from
    /// its predecessor.
    fn ring_send(peer: NpuId) -> EtOp {
        EtOp::PeerSend {
            peer,
            size: DataSize::from_mib(1),
            tag: 0,
        }
    }

    fn ring_recv(peer: NpuId) -> EtOp {
        EtOp::PeerRecv {
            peer,
            size: DataSize::from_mib(1),
            tag: 0,
        }
    }

    /// The ring stored once, built for NPU 0; `peers(npu)` gives each NPU's
    /// (successor, predecessor) slot table.
    fn shared_ring(peers: impl Fn(NpuId) -> Vec<NpuId>) -> TraceBuilder {
        let mut b = TraceBuilder::new(4).with_name("ring");
        let mut p = ProgramBuilder::new();
        let s = p.node("send", ring_send(1), &[]);
        p.node("recv", ring_recv(3), &[s]);
        let (class, groups, table) = b.add_class(p);
        assert_eq!((groups, table), (vec![], vec![1, 3]));
        for npu in 0..4 {
            b.share(npu, class, [].into_iter(), peers(npu).into_iter());
        }
        b
    }

    #[test]
    fn shared_programs_resolve_peers_per_npu() {
        let t = shared_ring(|npu| vec![(npu + 1) % 4, (npu + 3) % 4])
            .build()
            .unwrap();
        assert_eq!(t.classes().len(), 1);
        assert_eq!(t.stored_nodes(), 2);
        assert!(std::ptr::eq(t.program(0), t.program(2)));
        // The stored program names slots; each NPU resolves its own.
        assert_eq!(t.program(2)[0].op, ring_send(0));
        assert_eq!(t.peer_of(2, 0), 3);
        assert_eq!(t.peer_of(2, 1), 1);
        assert_eq!(t.peer_of(3, 0), 0);
        assert_eq!(t.group_table(3).len(), 0);

        // Built node by node, the same ring is equal and writes the same
        // bytes.
        let mut b = TraceBuilder::new(4).with_name("ring");
        for npu in 0..4 {
            let s = b.node(npu, "send", ring_send((npu + 1) % 4), &[]);
            b.node(npu, "recv", ring_recv((npu + 3) % 4), &[s]);
        }
        let expanded = b.build().unwrap();
        assert_eq!(expanded.classes().len(), 4);
        assert_eq!(expanded, t);
        let json = t.to_json().unwrap();
        assert_eq!(expanded.to_json().unwrap(), json);
        assert!(json.contains("\"peer\": 3"), "{json}");
        assert_eq!(ExecutionTrace::from_json(&json).unwrap(), t);
    }

    #[test]
    fn shared_peer_tables_are_validated_per_npu() {
        // NPU 3's successor is out of range.
        let bad = shared_ring(|npu| vec![if npu == 3 { 4 } else { npu + 1 }, (npu + 3) % 4]);
        assert_eq!(
            bad.build().unwrap_err(),
            TraceError::BadPeer { npu: 3, node: 0 }
        );
        // NPU 2 sends to NPU 0, which expects NPU 3's message.
        let skewed =
            shared_ring(|npu| vec![if npu == 2 { 0 } else { (npu + 1) % 4 }, (npu + 3) % 4]);
        assert_eq!(
            skewed.build().unwrap_err(),
            TraceError::UnmatchedPeerMessage {
                src: 2,
                dst: 0,
                tag: 0
            }
        );
    }

    #[test]
    fn from_json_rejects_a_peer_wider_than_32_bits() {
        let mut b = TraceBuilder::new(2);
        b.node(0, "send", ring_send(1), &[]);
        b.node(1, "recv", ring_recv(0), &[]);
        let json = b.build().unwrap().to_json().unwrap();
        let edited = json.replacen("\"peer\": 1", "\"peer\": 4294967296", 1);
        assert_ne!(edited, json, "unexpected trace JSON layout");
        let err = ExecutionTrace::from_json(&edited).unwrap_err();
        assert_eq!(
            err.to_string(),
            TraceError::BadPeer { npu: 0, node: 0 }.to_string()
        );
    }

    #[test]
    fn equality_compares_resolved_groups() {
        // Both traces store the same program per NPU (one collective on
        // slot 0); only the groups the slots resolve to differ.
        let trace = |paired: bool| {
            let mut b = TraceBuilder::new(4);
            let world = b.add_group(vec![0, 1, 2, 3]);
            let pairs = [b.add_group(vec![0, 1]), b.add_group(vec![2, 3])];
            for npu in 0..4 {
                let group = if paired { pairs[npu / 2] } else { world };
                b.node(
                    npu,
                    "ar",
                    EtOp::Collective {
                        collective: Collective::AllReduce,
                        size: DataSize::from_mib(1),
                        group,
                    },
                    &[],
                );
            }
            b.build().unwrap()
        };
        assert_eq!(trace(true).program(0), trace(false).program(0));
        assert_ne!(trace(true), trace(false));
        assert_eq!(trace(true), trace(true));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = TraceError::UnmatchedPeerMessage {
            src: 3,
            dst: 4,
            tag: 9,
        };
        let msg = err.to_string();
        assert!(msg.contains('3') && msg.contains('4') && msg.contains('9'));
    }
}
