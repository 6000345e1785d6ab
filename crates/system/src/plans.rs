//! Closed-form collective plans, memoized by everything planning reads.
//!
//! A training loop meets with the same collective, size and group again
//! and again, so most meetings need a plan that an earlier one already
//! made. [`CollectiveEngine::plan_into`] reads the collective, the size,
//! the group's dimensions and, for the Themis scheduler on two or more
//! dimensions, each spanned lane's backlog at the meeting's start. A
//! [`Plans`] key holds exactly these, with the group block standing for
//! its dimensions, so a plan is made once per distinct key and finished
//! ([`PlanSteps::finish`]) per meeting.

use std::collections::BTreeMap;

use astra_collectives::{Collective, CollectiveEngine, CollectivePlan, PlanSteps};
use astra_des::{DataSize, Time};
use astra_topology::Dimension;

/// Which dimensions a group block's plan runs over.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Dims {
    /// Its span's dimensions, as the run's faults left them.
    Live,
    /// Its span's pristine dimensions, for per-fault attribution.
    Pristine,
}

/// Plans memoized per key (see the module docs). Each keeps only what
/// finishing it reads: its chain and per-dimension `(busy, tail)` steps.
pub(crate) struct Plans {
    engine: CollectiveEngine,
    /// Per key: its plan's index.
    index: BTreeMap<Box<[u64]>, u32>,
    /// Plan `p` finishes through `chains[p]` and its steps
    /// `steps[step_at[p]..step_at[p + 1]]`.
    chains: Vec<Time>,
    steps: Vec<(Time, Time)>,
    step_at: Vec<u32>,
    /// The key being looked up, reused from lookup to lookup.
    key: Vec<u64>,
    /// The plan and backlog being made, reused from miss to miss.
    plan: CollectivePlan,
    backlog: Vec<Time>,
    /// Plans made so far: one per distinct key.
    pub(crate) made: u64,
}

impl Plans {
    pub(crate) fn new(engine: CollectiveEngine) -> Self {
        Plans {
            engine,
            index: BTreeMap::new(),
            chains: Vec::new(),
            steps: Vec::new(),
            step_at: vec![0],
            key: Vec::new(),
            plan: CollectivePlan::default(),
            backlog: Vec::new(),
            made: 0,
        }
    }

    /// The plan of `collective` of `size` that group block `group` issues
    /// at `start` over `dims`, which `which` names; dimension `d`
    /// contends on lane `lanes[at[d]]`. A scheduler that reads no backlog
    /// is not handed one, so its lookups read no lane.
    pub(crate) fn get(
        &mut self,
        (group, which): (u32, Dims),
        (collective, size): (Collective, DataSize),
        dims: &[Dimension],
        (start, lanes, at): (Time, &[Time], &[usize]),
    ) -> PlanSteps<'_> {
        let reads_backlog = self.engine.scheduler().reads_backlog(dims.len());
        self.key.clear();
        self.key.extend([
            u64::from(group) << 8 | (which as u64) << 4 | collective as u64,
            size.as_bytes(),
        ]);
        if reads_backlog {
            let backlog = at.iter().map(|&lane| lanes[lane].saturating_sub(start));
            self.key.extend(backlog.map(Time::as_ps));
        }
        let plan = match self.index.get(&self.key[..]) {
            Some(&plan) => plan as usize,
            None => {
                self.backlog.clear();
                if reads_backlog {
                    let backlog = self.key[2..].iter().map(|&ps| Time::from_ps(ps));
                    self.backlog.extend(backlog);
                }
                self.engine
                    .plan_into(collective, size, dims, &self.backlog, &mut self.plan);
                let made = self.plan.steps();
                self.chains.push(made.chain);
                self.steps.extend_from_slice(made.steps);
                self.step_at.push(self.steps.len() as u32);
                self.made += 1;
                let plan = self.chains.len() - 1;
                self.index.insert(self.key.as_slice().into(), plan as u32);
                plan
            }
        };
        let steps = self.step_at[plan] as usize..self.step_at[plan + 1] as usize;
        PlanSteps {
            chain: self.chains[plan],
            steps: &self.steps[steps],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_collectives::SchedulerPolicy;
    use astra_topology::Topology;

    /// A small deterministic generator (64-bit LCG, high bits).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// Random meetings of four group blocks whose keys repeat: each
    /// finish, and each lane it moves, equals a fresh `plan_into` and
    /// `finish` on a copy of the lanes, for both schedulers and both kinds
    /// of dimensions.
    #[test]
    fn memoized_plans_finish_as_fresh_ones() {
        let topo = Topology::parse("R(4)@250_SW(4)@200_SW(2)@50").unwrap();
        let groups: [(&[Dimension], &[usize]); 4] = [
            (&topo.dims()[..1], &[1]),
            (&topo.dims()[1..], &[0, 3]),
            (topo.dims(), &[2, 0, 4]),
            (&topo.dims()[..2], &[4, 2]),
        ];
        let pristine: Vec<Dimension> = topo
            .dims()
            .iter()
            .map(|d| d.with_bandwidth(d.bandwidth().share(2)))
            .collect();
        let sizes = [0, 1 << 10, 3 << 20, 64 << 20];
        for scheduler in [SchedulerPolicy::Baseline, SchedulerPolicy::Themis] {
            let engine = CollectiveEngine::new(8, scheduler);
            let mut plans = Plans::new(engine);
            let mut fresh = CollectivePlan::default();
            let mut rng = Rng(7);
            let mut lanes = vec![Time::ZERO; 5];
            let mut start = Time::ZERO;
            let mut keys = std::collections::BTreeSet::new();
            for _ in 0..2_000 {
                let group = rng.below(4) as usize;
                let (dims, at) = groups[group];
                let which = if rng.below(4) == 0 {
                    Dims::Pristine
                } else {
                    Dims::Live
                };
                let dims = match which {
                    Dims::Live => dims,
                    Dims::Pristine => &pristine[..dims.len()],
                };
                let collective = Collective::ALL[rng.below(4) as usize];
                let size = DataSize::from_bytes(sizes[rng.below(4) as usize]);
                // Starts advance in coarse steps, and now and then past
                // every lane, so that lane backlogs repeat.
                start = match rng.below(4) {
                    0 => lanes.iter().copied().fold(start, Time::max),
                    k => start + Time::from_us((k - 1) * 50),
                };

                let backlog: Vec<Time> = at
                    .iter()
                    .map(|&lane| lanes[lane].saturating_sub(start))
                    .collect();
                let read = if scheduler.reads_backlog(dims.len()) {
                    backlog.clone()
                } else {
                    Vec::new()
                };
                keys.insert((group, which as u8, collective, size, read));
                engine.plan_into(collective, size, dims, &backlog, &mut fresh);
                let mut want_lanes = lanes.clone();
                let want = fresh.finish(start, &mut want_lanes, at);

                let op = (collective, size);
                let memo = plans.get((group as u32, which), op, dims, (start, &lanes, at));
                assert_eq!(memo.finish_time(start, &lanes, at), want);
                assert_eq!(memo.finish(start, &mut lanes, at), want);
                assert_eq!(lanes, want_lanes);
            }
            assert_eq!(plans.made, keys.len() as u64, "{scheduler:?}");
            assert!(plans.made < 1_000, "{scheduler:?}: keys barely repeat");
        }
    }
}
