//! Property-based tests for collective-engine invariants.

use astra_collectives::{
    dimension_traffic, Algorithm, Collective, CollectiveEngine, CollectiveOutcome, CollectivePlan,
    SchedulerPolicy,
};
use astra_des::{Bandwidth, DataSize, Time};
use astra_topology::{BuildingBlock, Dimension, Topology};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Vec<Dimension>> {
    let block = (0u8..3, 2usize..9).prop_map(|(kind, k)| match kind {
        0 => BuildingBlock::Ring(k),
        1 => BuildingBlock::FullyConnected(k),
        _ => BuildingBlock::Switch(k),
    });
    let dim = (block, 25u64..1000)
        .prop_map(|(b, bw)| Dimension::new(b).with_bandwidth(Bandwidth::from_gbps(bw)));
    prop::collection::vec(dim, 1..4)
}

fn arb_collective() -> impl Strategy<Value = Collective> {
    prop::sample::select(Collective::ALL.to_vec())
}

/// One to four dimensions of any block, bandwidth and link latency.
fn arb_dims_up_to_4() -> impl Strategy<Value = Vec<Dimension>> {
    let block = (0u8..3, 2usize..17).prop_map(|(kind, k)| match kind {
        0 => BuildingBlock::Ring(k),
        1 => BuildingBlock::FullyConnected(k),
        _ => BuildingBlock::Switch(k),
    });
    let dim = (block, 10u64..1000, 0u64..2000).prop_map(|(b, bw, ns)| {
        Dimension::new(b)
            .with_bandwidth(Bandwidth::from_gbps(bw))
            .with_link_latency(Time::from_ns(ns))
    });
    prop::collection::vec(dim, 1..5)
}

/// The closed form as it was written before it was split into a plan and
/// its arithmetic, kept as the oracle of that split: per chunk order, the
/// phase sequence of one chunk, summed into busy time and chain.
mod oracle {
    use super::*;

    struct Phase {
        dim: usize,
        service: Time,
        latency: Time,
        traffic: DataSize,
    }

    fn pipeline_tail(busy: Time, chunks: u64) -> Time {
        let tail = u128::from(busy.as_ps()) * u128::from(chunks - 1) / u128::from(chunks);
        Time::from_ps(tail as u64)
    }

    fn phase_cost_parts(
        collective: Collective,
        chunk_size: DataSize,
        dim: &Dimension,
        divisor: u64,
    ) -> (Time, Time, DataSize) {
        let k = dim.npus() as u64;
        let algorithm = Algorithm::for_block(dim.block());
        let data = match collective {
            Collective::AllToAll => chunk_size,
            _ => chunk_size.div_ceil_parts(divisor),
        };
        let traffic = data.scale(k - 1, k);
        let steps = algorithm.steps(dim.npus());
        let latency = dim.link_latency() * steps * algorithm.hops_per_step();
        let service = dim.bandwidth().transfer_time(traffic);
        (service, latency, traffic)
    }

    fn chunk_phases(
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        order: &[usize],
    ) -> Vec<Phase> {
        let mut forward = Vec::new();
        let mut divisor = 1u64;
        for &d in order {
            let (service, latency, traffic) =
                phase_cost_parts(collective, chunk_size, &dims[d], divisor);
            forward.push(Phase {
                dim: d,
                service,
                latency,
                traffic,
            });
            if collective != Collective::AllToAll {
                divisor = divisor.saturating_mul(dims[d].npus() as u64);
            }
        }
        match collective {
            Collective::ReduceScatter | Collective::AllToAll => forward,
            Collective::AllGather => {
                forward.reverse();
                forward
            }
            Collective::AllReduce => {
                let mut phases: Vec<Phase> = forward
                    .iter()
                    .map(|p| Phase {
                        dim: p.dim,
                        service: p.service,
                        latency: p.latency,
                        traffic: p.traffic,
                    })
                    .collect();
                forward.reverse();
                phases.extend(forward);
                phases
            }
        }
    }

    fn order_costs(
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        order: &[usize],
    ) -> Vec<(usize, Time)> {
        let mut divisor = 1u64;
        let visits = collective.phase_visits();
        let mut out = Vec::new();
        for &d in order {
            let service = phase_cost_parts(collective, chunk_size, &dims[d], divisor).0;
            out.push((d, service * visits));
            if collective != Collective::AllToAll {
                divisor = divisor.saturating_mul(dims[d].npus() as u64);
            }
        }
        out
    }

    fn permute(items: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
        if at == items.len() {
            out.push(items.clone());
            return;
        }
        for i in at..items.len() {
            items.swap(at, i);
            permute(items, at + 1, out);
            items.swap(at, i);
        }
    }

    fn candidate_orders(n: usize) -> Vec<Vec<usize>> {
        if n <= 5 {
            let mut out = Vec::new();
            permute(&mut (0..n).collect(), 0, &mut out);
            out
        } else {
            (0..n)
                .map(|r| {
                    let mut v: Vec<usize> = (0..n).collect();
                    v.rotate_left(r);
                    v
                })
                .collect()
        }
    }

    fn estimate_finish(
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        plan: &[(Vec<usize>, u64)],
        initial_loads: &[Time],
    ) -> Time {
        let mut loads = initial_loads.to_vec();
        let mut chain = Time::ZERO;
        for (order, count) in plan {
            let mut divisor = 1u64;
            let visits = collective.phase_visits();
            let mut this_chain = Time::ZERO;
            for &d in order {
                let (service, latency, _) =
                    phase_cost_parts(collective, chunk_size, &dims[d], divisor);
                loads[d] += service * visits * *count;
                this_chain += (service + latency) * visits;
                if collective != Collective::AllToAll {
                    divisor = divisor.saturating_mul(dims[d].npus() as u64);
                }
            }
            chain = chain.max(this_chain);
        }
        let chunks = plan.iter().map(|&(_, n)| n).sum();
        chain
            + loads
                .iter()
                .map(|&l| pipeline_tail(l, chunks))
                .fold(Time::ZERO, Time::max)
    }

    fn plan_themis(
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
    ) -> Vec<(Vec<usize>, u64)> {
        let candidates = candidate_orders(dims.len());
        let costs: Vec<Vec<(usize, Time)>> = candidates
            .iter()
            .map(|order| order_costs(collective, chunk_size, dims, order))
            .collect();
        let mut loads = initial_loads.to_vec();
        let mut counts = vec![0u64; candidates.len()];
        for _ in 0..chunks {
            let mut best: Option<(Time, usize)> = None;
            for (ci, cost) in costs.iter().enumerate() {
                let mut projected = loads.clone();
                for &(d, t) in cost {
                    projected[d] += t;
                }
                let makespan = projected.iter().copied().fold(Time::ZERO, Time::max);
                if best.is_none_or(|(m, _)| makespan < m) {
                    best = Some((makespan, ci));
                }
            }
            let (_, ci) = best.unwrap();
            for &(d, t) in &costs[ci] {
                loads[d] += t;
            }
            counts[ci] += 1;
        }
        let greedy: Vec<(Vec<usize>, u64)> = candidates
            .into_iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .collect();
        let baseline = vec![((0..dims.len()).collect(), chunks)];
        if estimate_finish(collective, chunk_size, dims, &baseline, initial_loads)
            < estimate_finish(collective, chunk_size, dims, &greedy, initial_loads)
        {
            baseline
        } else {
            greedy
        }
    }

    pub fn run_at(
        chunks: u64,
        scheduler: SchedulerPolicy,
        collective: Collective,
        size: DataSize,
        dims: &[Dimension],
        start: Time,
        available: &[Time],
    ) -> CollectiveOutcome {
        if size == DataSize::ZERO {
            return CollectiveOutcome {
                finish: start,
                per_dim_busy: vec![Time::ZERO; dims.len()],
                per_dim_traffic: vec![DataSize::ZERO; dims.len()],
                free_at: available.to_vec(),
            };
        }
        let chunk_size = size.div_ceil_parts(chunks);
        let initial_loads: Vec<Time> = available.iter().map(|&a| a.saturating_sub(start)).collect();
        let identity: Vec<usize> = (0..dims.len()).collect();
        let orders = match scheduler {
            SchedulerPolicy::Themis if dims.len() > 1 => {
                plan_themis(collective, chunk_size, dims, chunks, &initial_loads)
            }
            _ => vec![(identity, chunks)],
        };
        let mut traffic = vec![DataSize::ZERO; dims.len()];
        let mut busy = vec![Time::ZERO; dims.len()];
        let mut chain = Time::ZERO;
        for (order, count) in &orders {
            let mut this_chain = Time::ZERO;
            for phase in chunk_phases(collective, chunk_size, dims, order) {
                busy[phase.dim] += phase.service * *count;
                traffic[phase.dim] += phase.traffic * *count;
                this_chain += phase.service + phase.latency;
            }
            chain = chain.max(this_chain);
        }
        let finish = start
            + chain
            + (0..dims.len())
                .map(|d| available[d].saturating_sub(start) + pipeline_tail(busy[d], chunks))
                .fold(Time::ZERO, Time::max);
        let free_at = (0..dims.len())
            .map(|d| available[d].max(start) + busy[d])
            .collect();
        CollectiveOutcome {
            finish,
            per_dim_busy: busy,
            per_dim_traffic: traffic,
            free_at,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hierarchical All-Reduce traffic telescopes to `2 * S * (1 - 1/Πk)`,
    /// and Reduce-Scatter / All-Gather are each exactly half of it.
    #[test]
    fn traffic_conservation(dims in arb_dims(), mib in 1u64..4096) {
        let size = DataSize::from_mib(mib);
        let ar: u64 = dimension_traffic(Collective::AllReduce, size, &dims)
            .iter().map(|t| t.as_bytes()).sum();
        let rs: u64 = dimension_traffic(Collective::ReduceScatter, size, &dims)
            .iter().map(|t| t.as_bytes()).sum();
        let ag: u64 = dimension_traffic(Collective::AllGather, size, &dims)
            .iter().map(|t| t.as_bytes()).sum();
        let group: u64 = dims.iter().map(|d| d.npus() as u64).product();
        let expected = 2 * (size.as_bytes() - size.as_bytes() / group);
        // Integer rounding: allow one byte per dimension of slack.
        let slack = 2 * dims.len() as u64 + 2;
        prop_assert!(ar.abs_diff(expected) <= slack, "ar {ar} vs {expected}");
        prop_assert!(rs.abs_diff(ar / 2) <= slack);
        prop_assert!(ag.abs_diff(ar / 2) <= slack);
    }

    /// The collective can never finish before the bottleneck dimension's
    /// busy time, and pipelining keeps it at or below the single-chunk
    /// (fully serialized) execution.
    #[test]
    fn pipeline_bounds(dims in arb_dims(), mib in 8u64..2048, chunks in 1u64..64) {
        let size = DataSize::from_mib(mib);
        let chunked = CollectiveEngine::new(chunks, SchedulerPolicy::Baseline)
            .run(Collective::AllReduce, size, &dims);
        let serial = CollectiveEngine::new(1, SchedulerPolicy::Baseline)
            .run(Collective::AllReduce, size, &dims);
        let max_busy = chunked.per_dim_busy.iter().copied().fold(Time::ZERO, Time::max);
        prop_assert!(chunked.finish >= max_busy);
        // Chunking only helps (up to div_ceil rounding of the chunk size).
        let tolerance = 1.0 + 0.02;
        prop_assert!(
            chunked.finish.as_us_f64() <= serial.finish.as_us_f64() * tolerance,
            "chunked {} vs serial {}", chunked.finish, serial.finish
        );
    }

    /// Themis is never slower than the baseline scheduler (it can always
    /// fall back to the identity order).
    #[test]
    fn themis_never_slower(dims in arb_dims(), mib in 8u64..2048, coll in arb_collective()) {
        let size = DataSize::from_mib(mib);
        let base = CollectiveEngine::new(16, SchedulerPolicy::Baseline).run(coll, size, &dims);
        let themis = CollectiveEngine::new(16, SchedulerPolicy::Themis).run(coll, size, &dims);
        // Greedy ordering can differ in rounding; allow 1% slack.
        prop_assert!(
            themis.finish.as_us_f64() <= base.finish.as_us_f64() * 1.01,
            "themis {} vs baseline {}", themis.finish, base.finish
        );
    }

    /// Completion time is monotonic in payload size.
    #[test]
    fn finish_monotone_in_size(dims in arb_dims(), mib in 1u64..2048, coll in arb_collective()) {
        let engine = CollectiveEngine::new(8, SchedulerPolicy::Baseline);
        let small = engine.run(coll, DataSize::from_mib(mib), &dims);
        let big = engine.run(coll, DataSize::from_mib(mib * 2), &dims);
        prop_assert!(big.finish >= small.finish);
    }

    /// Chaining a second collective behind a first never completes earlier
    /// than running it on an idle network.
    #[test]
    fn chaining_adds_delay(dims in arb_dims(), mib in 8u64..512) {
        let engine = CollectiveEngine::new(8, SchedulerPolicy::Baseline);
        let size = DataSize::from_mib(mib);
        let idle = engine.run(Collective::AllReduce, size, &dims);
        let chained = engine.run_at(
            Collective::AllReduce, size, &dims, Time::ZERO, &idle.free_at,
        );
        prop_assert!(chained.finish >= idle.finish);
    }

    /// The engine agrees with `dimension_traffic` on per-dimension bytes for
    /// the baseline scheduler (up to chunk rounding).
    #[test]
    fn engine_traffic_matches_closed_form(dims in arb_dims(), mib in 8u64..512, coll in arb_collective()) {
        let size = DataSize::from_mib(mib);
        let chunks = 8u64;
        let out = CollectiveEngine::new(chunks, SchedulerPolicy::Baseline).run(coll, size, &dims);
        let exact = dimension_traffic(coll, size, &dims);
        for (got, want) in out.per_dim_traffic.iter().zip(&exact) {
            let slack = chunks * 2 * (dims.len() as u64 + 1) + chunks; // div_ceil rounding
            prop_assert!(
                got.as_bytes().abs_diff(want.as_bytes()) <= slack,
                "dim traffic {got:?} vs {want:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The closed form split into a plan and its arithmetic reports
    /// bit-identically what the single-pass closed form reported, under
    /// both schedulers, for every collective, on one to four dimensions,
    /// one to 128 chunks, and lanes that are idle, draining a backlog or
    /// freed before the issue. A plan reused for a second collective, and
    /// finished on lanes scattered through a larger lane table, agrees too.
    #[test]
    fn plan_and_finish_match_the_single_pass_closed_form(
        dims in arb_dims_up_to_4(),
        bytes in 0u64..(1 << 34),
        chunks in 1u64..129,
        coll in arb_collective(),
        themis in 0u8..2,
        start_us in 0u64..1_000_000,
        lanes_us in prop::collection::vec(0u64..2_000_000, 4),
        second in arb_collective(),
    ) {
        let scheduler = if themis == 1 { SchedulerPolicy::Themis } else { SchedulerPolicy::Baseline };
        let engine = CollectiveEngine::new(chunks, scheduler);
        let size = DataSize::from_bytes(bytes);
        let start = Time::from_us(start_us);
        let available: Vec<Time> = lanes_us[..dims.len()].iter().map(|&us| Time::from_us(us)).collect();
        let want = oracle::run_at(chunks, scheduler, coll, size, &dims, start, &available);
        let got = engine.run_at(coll, size, &dims, start, &available);
        prop_assert_eq!(&got, &want);

        // Plan a different collective first, then this one into the same
        // plan, and finish it on lanes 1, 3, 5, ... of a wider table.
        let backlog: Vec<Time> = available.iter().map(|&a| a.saturating_sub(start)).collect();
        let mut plan = CollectivePlan::default();
        engine.plan_into(second, size, &dims, &backlog, &mut plan);
        engine.plan_into(coll, size, &dims, &backlog, &mut plan);
        let at: Vec<usize> = (0..dims.len()).map(|d| 2 * d + 1).collect();
        let mut lanes = vec![Time::from_us(7); 2 * dims.len() + 1];
        for (&lane, &a) in at.iter().zip(&available) {
            lanes[lane] = a;
        }
        prop_assert_eq!(plan.finish(start, &mut lanes, &at), want.finish);
        for (i, &lane) in lanes.iter().enumerate() {
            let expected = if i % 2 == 1 { want.free_at[i / 2] } else { Time::from_us(7) };
            prop_assert_eq!(lane, expected);
        }
    }
}

#[test]
fn fig3_presets_run_all_collectives() {
    // Smoke-check: every paper topology executes every collective pattern.
    for notation in [
        "R(4)_R(2)",
        "SW(3)_SW(2)",
        "FC(4)_SW(2)",
        "R(4)_SW(2)",
        "FC(4)_FC(2)_FC(2)",
        "R(4)_R(2)_R(2)",
    ] {
        let topo = Topology::parse(notation).unwrap();
        for coll in Collective::ALL {
            let out = CollectiveEngine::new(4, SchedulerPolicy::Themis).run(
                coll,
                DataSize::from_mib(64),
                topo.dims(),
            );
            assert!(out.finish > Time::ZERO, "{notation} {coll}");
        }
    }
}
