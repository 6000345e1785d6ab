//! Tie checks for quotient runs: whether one simulated NPU per block can
//! stand for every NPU of its block when events share an instant.
//!
//! The engine breaks time ties in event order: of two events due at one
//! instant, the one scheduled first pops first. So the steps (popped
//! events) of one instant are ordered by the instant their event was
//! scheduled at, then by the order of the steps that scheduled them, and
//! within one step by the order it scheduled them in. Unrolled, a step's
//! place in its instant is its *chain*, the instants of its ancestors
//! nearest first, and then its *path*, the NPU whose seeding roots it and
//! each ancestor's index within its parent step, oldest first. Steps with
//! different chains are ordered by their chains; steps with equal chains
//! by their paths.
//!
//! NPUs of one block share their representative's chains, but not its
//! paths: seeding walks NPUs in id order, and a meeting launches in the
//! step of its last member. A quotient run follows each step's chain and
//! bounds on the latest path among the NPUs its block stands for, and
//! checks the three things an order within one instant decides. One it
//! cannot vouch for voids the run ([`Ties::tied`]), which then reruns
//! whole:
//!
//! * a block resource used twice at one instant with equal chains: each
//!   NPU of the block serves the two uses in its own order;
//! * a member block arriving at one group block twice so, which pairs
//!   its arrivals with the other members' in its own order;
//! * a lane block taken twice so. A lane block of one lane is used by one
//!   group of each group block, which launches in the step of its last
//!   member, so its place is the latest place among its members; the
//!   launches are fine when the bounds order them as the quotient did. In
//!   a lane block of several lanes each lane has its own pair of groups,
//!   so the two launches tie.
//!
//! The first two are fine within one step, where every NPU of the block
//! makes both uses, in program order.

use std::cmp::Ordering;
use std::collections::VecDeque;

use astra_des::Time;

use crate::engine::SimError;
use crate::orbits::Orbits;
use crate::setup::Spans;
use crate::slab::Slab;

/// The parent of a path's root node.
const ROOT: u32 = u32::MAX;

/// No node, or no pending place.
const NONE: u32 = u32::MAX;

/// One level of an interned path: its parent level, its key (the issue's
/// ordinal in its step `<< 32`, plus the event's rank among a launch's
/// completions; the NPU for a root), its depth, and a jump pointer
/// to an ancestor that lets two paths find where they meet in
/// logarithmically many steps (Myers' skew-binary jumps: the target
/// depends on the depth alone, so paths of one depth jump alike).
///
/// A level's children form a list in descending key order: `child` is
/// the one with the largest key, and each child's `sibling` the next.
/// Keys mostly arrive in ascending order, so a new key usually goes at
/// the head and a repeated one is usually found there.
#[derive(Copy, Clone)]
struct Node {
    parent: u32,
    key: u64,
    depth: u32,
    jump: u32,
    child: u32,
    sibling: u32,
}

/// A position within an instant: a path (see the module docs) plus the
/// ordinal of an issue within the path's last step.
#[derive(Copy, Clone, PartialEq, Eq)]
struct Point {
    path: u32,
    ord: u32,
}

/// Where an issue or launch stands among the NPUs its block stands for:
/// its instant, the chain of its step, the quotient step it was made in
/// (`order`), the step every NPU of the block makes it in (`step`, `None`
/// when that differs between NPUs), and bounds on the latest position
/// among them.
#[derive(Copy, Clone)]
struct Place {
    at: Time,
    chain: u32,
    order: u64,
    step: Option<u64>,
    lo: Point,
    hi: Point,
}

impl Place {
    fn same_instant(&self, other: &Place) -> bool {
        self.at == other.at && self.chain == other.chain
    }
}

/// The state of the step being run.
#[derive(Copy, Clone)]
struct Step {
    at: Time,
    chain: u32,
    id: u64,
    lo: u32,
    hi: u32,
}

pub(crate) struct Ties {
    /// Interned chains: a chain is its instant and its parent chain, and
    /// ids count up from 1 (chain 0 is seeding's). Steps pop in time
    /// order, so only chains of the current instant can recur: these are
    /// held as `(parent chain, id)`, sorted by parent, and dropped when
    /// time advances.
    chain_at: Time,
    chains: Vec<(u32, u32)>,
    chain_count: u32,
    /// Interned path levels, in creation order; equal paths are one id,
    /// so two paths meet where their ids do. `roots` heads the list of
    /// root levels, ordered like a level's children.
    nodes: Vec<Node>,
    roots: u32,
    /// Per scheduled event: its chain and the bounds on its latest path.
    origins: Vec<(u32, u32, u32)>,
    /// Per block: its highest NPU, the last one seeding reaches.
    lasts: Vec<usize>,
    /// Per lane block: whether it is a single lane.
    single_lanes: Vec<bool>,
    /// Per group block, per member rank: how many NPUs of that member
    /// block one of its groups holds.
    counts: Vec<Vec<u64>>,
    step: Step,
    /// The issue being made.
    issue: Place,
    /// Per node of the run, numbered like the engine's dependency counts:
    /// for a node with some but not all dependencies complete, the latest
    /// completion's place as its key in `places`; [`NONE`] otherwise.
    pending: Vec<u32>,
    places: Slab<Place>,
    /// Per block, per resource (indexed like the engine's resources): its
    /// last use.
    resources: Vec<[Option<Place>; 3]>,
    /// Per lane block: its last use.
    lanes: Vec<Option<Place>>,
    /// Per group block, per member rank: its last arrival, and the places
    /// of its arrivals at open meetings.
    arrived: Vec<Vec<Option<Place>>>,
    open: Vec<Vec<VecDeque<Place>>>,
    /// The meeting being launched: its arrivals' ranks and places, and the
    /// origins of their completion events. Reused from launch to launch.
    meeting: Vec<(usize, Place)>,
    launched: Vec<u32>,
    /// Whether a tie was seen; the run is then void.
    pub(crate) tied: bool,
}

impl Ties {
    /// Checks for a quotient of `orbits` whose blocks have `nodes` graph
    /// nodes in all.
    pub(crate) fn new(orbits: &Orbits, spans: &Spans, nodes: usize) -> Self {
        let origin = Point { path: 0, ord: 0 };
        let start = Place {
            at: Time::ZERO,
            chain: 0,
            order: 0,
            step: Some(0),
            lo: origin,
            hi: origin,
        };
        Ties {
            chain_at: Time::ZERO,
            chains: Vec::new(),
            chain_count: 0,
            nodes: Vec::new(),
            roots: NONE,
            // Origin 0 stands for events that only full runs schedule.
            origins: vec![(0, 0, 0)],
            lasts: orbits.lasts.clone(),
            single_lanes: orbits.lane_sizes.iter().map(|&n| n == 1).collect(),
            counts: orbits.member_counts.clone(),
            step: Step {
                at: Time::ZERO,
                chain: 0,
                id: 0,
                lo: 0,
                hi: 0,
            },
            issue: start,
            pending: vec![NONE; nodes],
            places: Slab::new(),
            resources: vec![[None; 3]; orbits.reps.len()],
            lanes: vec![None; orbits.lanes],
            arrived: spans.iter().map(|s| vec![None; s.members.len()]).collect(),
            open: spans
                .iter()
                .map(|s| vec![VecDeque::new(); s.members.len()])
                .collect(),
            meeting: Vec::new(),
            launched: Vec::new(),
            tied: false,
        }
    }

    /// The interned path level `(parent, key)`.
    fn node(&mut self, parent: u32, key: u64) -> u32 {
        let mut prev = NONE;
        let mut at = match self.nodes.get(parent as usize) {
            Some(p) => p.child,
            None => self.roots,
        };
        while at != NONE {
            let node = self.nodes[at as usize];
            if node.key <= key {
                if node.key == key {
                    return at;
                }
                break;
            }
            prev = at;
            at = node.sibling;
        }
        let next = self.nodes.len() as u32;
        let (depth, jump) = match self.nodes.get(parent as usize) {
            None => (0, next),
            Some(p) => {
                let j = self.nodes[p.jump as usize];
                let jj = self.nodes[j.jump as usize];
                let jump = if p.depth - j.depth == j.depth - jj.depth {
                    j.jump
                } else {
                    parent
                };
                (p.depth + 1, jump)
            }
        };
        self.nodes.push(Node {
            parent,
            key,
            depth,
            jump,
            child: NONE,
            sibling: at,
        });
        match (self.nodes.get_mut(prev as usize), parent) {
            (Some(p), _) => p.sibling = next,
            (None, ROOT) => self.roots = next,
            (None, _) => self.nodes[parent as usize].child = next,
        }
        next
    }

    /// Orders two paths of one depth: the oldest differing level decides,
    /// the one just below where they meet. `None` for paths of different
    /// depths, which are never compared.
    fn cmp_paths(&self, a: u32, b: u32) -> Option<Ordering> {
        if a == b {
            return Some(Ordering::Equal);
        }
        let (mut a, mut b) = (self.nodes[a as usize], self.nodes[b as usize]);
        if a.depth != b.depth {
            return None;
        }
        while a.parent != b.parent {
            (a, b) = if a.jump != b.jump {
                (self.nodes[a.jump as usize], self.nodes[b.jump as usize])
            } else {
                (self.nodes[a.parent as usize], self.nodes[b.parent as usize])
            };
        }
        Some(a.key.cmp(&b.key))
    }

    fn cmp(&self, a: Point, b: Point) -> Option<Ordering> {
        Some(self.cmp_paths(a.path, b.path)?.then(a.ord.cmp(&b.ord)))
    }

    /// Whether `a` comes before `b`; `None` when they cannot be compared.
    fn before(&self, a: Point, b: Point) -> Option<bool> {
        Some(self.cmp(a, b)? == Ordering::Less)
    }

    fn max(&self, a: Point, b: Point) -> Option<Point> {
        Some(if self.cmp(a, b)? == Ordering::Less {
            b
        } else {
            a
        })
    }

    /// Marks the run void.
    fn tie(&mut self) -> SimError {
        self.tied = true;
        SimError::Internal("a quotient run tied")
    }

    /// Seeding issues `node` of `block`: every NPU of the block issues it
    /// from its own seeding, in node order.
    pub(crate) fn seed(&mut self, block: usize, node: u32) {
        let root = self.node(ROOT, self.lasts[block] as u64);
        let at = Point {
            path: root,
            ord: node,
        };
        self.issue = Place {
            at: Time::ZERO,
            chain: 0,
            order: 0,
            step: Some(0),
            lo: at,
            hi: at,
        };
    }

    /// A step pops an event scheduled with `origin`; `id` numbers the step.
    pub(crate) fn pop(&mut self, now: Time, origin: u32, id: u64) {
        let (parent, lo, hi) = self.origins[origin as usize];
        if now != self.chain_at {
            self.chain_at = now;
            self.chains.clear();
        }
        let chain = match self.chains.binary_search_by_key(&parent, |&(p, _)| p) {
            Ok(i) => self.chains[i].1,
            Err(i) => {
                self.chain_count += 1;
                self.chains.insert(i, (parent, self.chain_count));
                self.chain_count
            }
        };
        self.step = Step {
            at: now,
            chain,
            id,
            lo,
            hi,
        };
    }

    /// The step completes a dependency of `node` (numbered like the
    /// engine's dependency counts), its dependent number `ord`; `ready`
    /// when that was the last one, so the node is issued next. The issue's
    /// place is the latest completion's: where several complete at one
    /// instant with one chain, each NPU issues in whichever step of those
    /// comes last for it.
    pub(crate) fn complete(&mut self, node: usize, ord: u32, ready: bool) -> Result<(), SimError> {
        let s = self.step;
        let mut place = Place {
            at: s.at,
            chain: s.chain,
            order: s.id,
            step: Some(s.id),
            lo: Point { path: s.lo, ord },
            hi: Point { path: s.hi, ord },
        };
        let slot = self.pending[node];
        if let Some(&prev) = self.places.get(slot) {
            if prev.same_instant(&place) {
                let (Some(lo), Some(hi)) =
                    (self.max(prev.lo, place.lo), self.max(prev.hi, place.hi))
                else {
                    return Err(self.tie());
                };
                place.lo = lo;
                place.hi = hi;
                if prev.step != place.step {
                    place.step = None;
                }
            }
        }
        if ready {
            self.issue = place;
            self.places.remove(slot);
            self.pending[node] = NONE;
        } else if let Some(pending) = self.places.get_mut(slot) {
            *pending = place;
        } else {
            self.pending[node] = self.places.insert(place);
        }
        Ok(())
    }

    /// Checks a use of a slot against its last one (see the module docs).
    fn check(&mut self, last: Option<Place>, now: &Place) -> Result<(), SimError> {
        match last {
            Some(last)
                if last.same_instant(now) && (last.step.is_none() || last.step != now.step) =>
            {
                Err(self.tie())
            }
            _ => Ok(()),
        }
    }

    /// The issue uses `block`'s resource `res`. Returns the origin of the
    /// completion event it schedules.
    pub(crate) fn resource(&mut self, block: usize, res: usize) -> Result<u32, SimError> {
        let now = self.issue;
        self.check(self.resources[block][res], &now)?;
        self.resources[block][res] = Some(now);
        let lo = self.node(now.lo.path, u64::from(now.lo.ord) << 32);
        let hi = self.node(now.hi.path, u64::from(now.hi.ord) << 32);
        self.origins.push((now.chain, lo, hi));
        Ok(self.origins.len() as u32 - 1)
    }

    /// The issue arrives at group block `group` as member `rank`.
    pub(crate) fn arrive(&mut self, group: usize, rank: usize) -> Result<(), SimError> {
        let now = self.issue;
        self.check(self.arrived[group][rank], &now)?;
        self.arrived[group][rank] = Some(now);
        self.open[group][rank].push_back(now);
        Ok(())
    }

    /// The issue completes a meeting of group block `group`, whose
    /// arrivals came from member `ranks` in arrival order, and the
    /// collective takes `lanes`. [`Ties::launched`] then holds the origin
    /// of each arrival's completion event.
    pub(crate) fn launch(
        &mut self,
        group: usize,
        ranks: impl Iterator<Item = usize>,
        lanes: &[usize],
    ) -> Result<(), SimError> {
        let mut meeting = std::mem::take(&mut self.meeting);
        meeting.clear();
        for rank in ranks {
            let place = self.open[group][rank]
                .pop_front()
                .ok_or(SimError::Internal("a meeting arrival went untracked"))?;
            meeting.push((rank, place));
        }
        let now = self.issue;
        // The launching NPU of each group is its latest member, one of
        // those arriving in this instant with this chain.
        let mut lo = now.lo;
        let mut hi = now.hi;
        for (_, p) in meeting.iter().filter(|(_, p)| p.same_instant(&now)) {
            let (Some(l), Some(h)) = (self.max(lo, p.lo), self.max(hi, p.hi)) else {
                return Err(self.tie());
            };
            (lo, hi) = (l, h);
        }
        let launch = Place { lo, hi, ..now };
        for &lane in lanes {
            if let Some(last) = self.lanes[lane] {
                if last.same_instant(&launch) {
                    let ordered =
                        self.single_lanes[lane] && self.before(last.hi, launch.lo) == Some(true);
                    if !ordered {
                        return Err(self.tie());
                    }
                }
            }
            self.lanes[lane] = Some(launch);
        }
        // Each member block's latest completion event is the one of the
        // group launching last (launched within `lo..=hi`), at the rank of
        // the block's last NPU in that group's arrival order. That rank
        // counts at least the block's other NPUs and every NPU of a block
        // that arrived at an earlier instant or chain, and at most the
        // group less every NPU of a block that arrived later. The group's
        // last NPU launches it, so it is one of the latest arrivals; a
        // block among them whose latest place is certainly before
        // another's does not hold it.
        let counts = &self.counts[group];
        let total: u64 = meeting.iter().map(|&(r, _)| counts[r]).sum();
        self.launched.clear();
        for (j, &(rank, p)) in meeting.iter().enumerate() {
            let mut first = self.counts[group][rank] - 1;
            let mut last = total - 1;
            let mut beaten = false;
            let others = meeting.iter().enumerate().filter(|&(k, _)| k != j);
            for &(r, q) in others.map(|(_, other)| other) {
                if !q.same_instant(&p) {
                    if q.order < p.order {
                        first += self.counts[group][r];
                    } else {
                        last -= self.counts[group][r];
                    }
                } else if p.same_instant(&now) && self.before(p.hi, q.lo) == Some(true) {
                    beaten = true;
                }
            }
            last -= u64::from(beaten);
            let lo = self.node(lo.path, (u64::from(lo.ord) << 32) | first);
            let hi = self.node(hi.path, (u64::from(hi.ord) << 32) | last);
            self.origins.push((now.chain, lo, hi));
            self.launched.push(self.origins.len() as u32 - 1);
        }
        self.meeting = meeting;
        Ok(())
    }

    /// The origins of the completion events of the last launch's
    /// arrivals, in arrival order.
    pub(crate) fn launched(&self) -> &[u32] {
        &self.launched
    }
}
