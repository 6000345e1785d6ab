//! Property-based tests for the DES kernel invariants.

use astra_des::{
    attribute_exclusive, ArrivalRun, Bandwidth, DataSize, EventQueue, ExclusiveFold, FifoResource,
    FoldScratch, IntervalLog, Time, TrainProfile,
};
use proptest::prelude::*;

/// Builds an arbitrary multi-run train profile with non-decreasing packet
/// times (the invariant every real arrival/completion profile satisfies).
fn arb_train() -> impl Strategy<Value = TrainProfile> {
    prop::collection::vec((1u64..24, 0u64..2_000, 0u64..3_000), 1..4).prop_map(|segs| {
        let mut profile: Option<TrainProfile> = None;
        let mut at = Time::ZERO;
        for (count, gap, spacing) in segs {
            at += Time::from_ns(gap);
            let run = TrainProfile::simultaneous(count, at);
            let run = if spacing > 0 {
                // Re-space the burst by expanding it into an arithmetic run.
                TrainProfile::arithmetic(ArrivalRun {
                    count,
                    first: at,
                    spacing: Time::from_ns(spacing),
                })
            } else {
                run
            };
            at = run.last();
            profile = Some(match profile {
                None => run,
                Some(p) => p.concat(&run),
            });
        }
        profile.expect("at least one run")
    })
}

proptest! {
    /// Events always come out in non-decreasing time order, and same-time
    /// events preserve insertion order.
    #[test]
    fn event_queue_is_stable_and_ordered(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Time::from_ns(t), i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert_eq!(Time::from_ns(times[idx]), t);
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated for equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Transfer time is monotonic in size and antitonic in bandwidth, and
    /// never zero for a non-empty payload.
    #[test]
    fn transfer_time_monotonicity(
        size_a in 1u64..1_000_000_000,
        extra in 0u64..1_000_000_000,
        bw_a in 1u64..2_000,
        bw_extra in 0u64..2_000,
    ) {
        let small = DataSize::from_bytes(size_a);
        let big = DataSize::from_bytes(size_a + extra);
        let slow = Bandwidth::from_gbps(bw_a);
        let fast = Bandwidth::from_gbps(bw_a + bw_extra);
        prop_assert!(slow.transfer_time(small) > Time::ZERO);
        prop_assert!(slow.transfer_time(big) >= slow.transfer_time(small));
        prop_assert!(fast.transfer_time(small) <= slow.transfer_time(small));
    }

    /// A FIFO resource never runs backwards and accumulates exactly the
    /// requested busy time.
    #[test]
    fn fifo_resource_invariants(reqs in prop::collection::vec((0u64..1_000, 1u64..100), 1..100)) {
        let mut r = FifoResource::new();
        let mut total = Time::ZERO;
        let mut prev_end = Time::ZERO;
        for &(ready, service) in &reqs {
            let res = r.acquire(Time::from_ns(ready), Time::from_ns(service));
            prop_assert!(res.start >= Time::from_ns(ready));
            prop_assert!(res.start >= prev_end, "FIFO order violated");
            prop_assert_eq!(res.end - res.start, Time::from_ns(service));
            prev_end = res.end;
            total += Time::from_ns(service);
        }
        prop_assert_eq!(r.busy_time(), total);
        prop_assert_eq!(r.free_at(), prev_end);
    }

    /// Exclusive attribution is a partition: the parts always sum to the
    /// horizon, and each part is bounded by the category's union measure.
    #[test]
    fn attribution_is_a_partition(
        a in prop::collection::vec((0u64..500, 1u64..100), 0..30),
        b in prop::collection::vec((0u64..500, 1u64..100), 0..30),
        c in prop::collection::vec((0u64..500, 1u64..100), 0..30),
    ) {
        let mk = |spans: &[(u64, u64)]| {
            let mut log = IntervalLog::new();
            for &(s, d) in spans {
                log.push(Time::from_ns(s), Time::from_ns(s + d));
            }
            log
        };
        let (la, lb, lc) = (mk(&a), mk(&b), mk(&c));
        let horizon = Time::from_ns(700);
        let out = attribute_exclusive(&[&la, &lb, &lc], horizon);
        prop_assert_eq!(out.len(), 4);
        prop_assert_eq!(out.iter().copied().sum::<Time>(), horizon);
        prop_assert!(out[0] <= la.union_measure());
        prop_assert!(out[1] <= lb.union_measure());
        prop_assert!(out[2] <= lc.union_measure());
        // Highest-priority category is never shadowed: it gets exactly its
        // union measure (clipped to the horizon).
        prop_assert_eq!(out[0], la.union_measure().min(horizon));
    }

    /// The streaming fold matches the whole-log sweep to the picosecond
    /// over random interval streams that keep the engine's discipline:
    /// the clock only moves forward; pushed intervals start at or after
    /// it, some far in the future, some empty; open intervals start at it
    /// and close with an end at or after the clock, possibly empty when
    /// they close at once. Up to 240 steps per stream, so a stream folds
    /// many times on the way; the horizon may cut intervals short.
    #[test]
    fn exclusive_fold_matches_the_whole_log_sweep(
        steps in prop::collection::vec((0u8..4, 0usize..4, 0u64..60, 0u64..80), 0..240),
        tail in 0u64..200,
    ) {
        let ns = Time::from_ns;
        let mut fold = ExclusiveFold::<4>::new();
        let mut scratch = FoldScratch::default();
        let mut logs: [IntervalLog; 4] = Default::default();
        let mut open: Vec<(usize, Time)> = Vec::new();
        let mut now = Time::ZERO;
        for (kind, category, a, b) in steps {
            match kind {
                // The clock moves on.
                0 => now += ns(a),
                // A FIFO grant: starts at or after now.
                1 => {
                    let (start, end) = (now + ns(a), now + ns(a + b));
                    fold.push(category, start, end, now, &mut scratch);
                    logs[category].push(start, end);
                }
                // A node starts waiting.
                2 => {
                    fold.open(category, now);
                    open.push((category, now));
                }
                // The oldest wait (or a random one) resolves; it ends at
                // or after now.
                _ => {
                    if open.is_empty() {
                        continue;
                    }
                    let (category, start) = open.remove(a as usize % open.len());
                    let end = now + ns(b % 3 * b);
                    fold.close(category, start, end, now, &mut scratch);
                    logs[category].push(start, end);
                }
            }
        }
        for (category, start) in open {
            let end = now + ns(tail);
            fold.close(category, start, end, now, &mut scratch);
            logs[category].push(start, end);
        }
        // At or after the last instant the fold may have reached; below
        // some intervals' ends when `tail` is small.
        let horizon = now + ns(tail / 2);
        let (sums, idle) = fold.finish(horizon, &mut scratch);
        let want = attribute_exclusive(&[&logs[0], &logs[1], &logs[2], &logs[3]], horizon);
        prop_assert_eq!(want, vec![sums[0], sums[1], sums[2], sums[3], idle]);
        prop_assert_eq!(sums.iter().copied().sum::<Time>() + idle, horizon);
    }

    /// Bulk train reservation is bit-identical to acquiring every packet
    /// individually — first/last reservations, the full completion profile,
    /// the resource timeline, and the busy accounting all match.
    #[test]
    fn acquire_train_matches_per_packet_acquires(
        train in arb_train(),
        service_ns in 1u64..3_000,
        tail_ns in 1u64..3_000,
        free_ns in 0u64..4_000,
        extra_ns in 0u64..2_000,
    ) {
        let service = Time::from_ns(service_ns);
        let tail_service = Time::from_ns(tail_ns.min(service_ns));
        let seed = Time::from_ns(free_ns);

        let mut bulk = FifoResource::available_from(seed);
        bulk.set_recording(true);
        let ends = bulk.acquire_train(&train, service, tail_service);

        let mut serial = FifoResource::available_from(seed);
        serial.set_recording(true);
        let total = train.count();
        let mut refs = Vec::new();
        for (i, a) in train.times().enumerate() {
            let s = if i as u64 + 1 == total { tail_service } else { service };
            refs.push(serial.acquire(a, s));
        }

        let ends: Vec<Time> = ends.times().collect();
        let want: Vec<Time> = refs.iter().map(|r| r.end).collect();
        prop_assert_eq!(&ends, &want, "completion profile diverged on {:?}", train);
        // Every packet's grant (ready, start, end) is the per-packet one.
        prop_assert_eq!(bulk.recorded(), serial.recorded());
        prop_assert_eq!(bulk.free_at(), serial.free_at());
        prop_assert_eq!(bulk.busy_time(), serial.busy_time());

        // A follow-up request sees the identical timeline.
        let after = Time::from_ns(free_ns + extra_ns);
        prop_assert_eq!(
            bulk.acquire(after, service),
            serial.acquire(after, service)
        );
    }

    /// `DataSize::scale` commutes with the rational factor within rounding.
    #[test]
    fn scale_approximates_rational(bytes in 0u64..1_000_000_000, num in 0u64..64, den in 1u64..64) {
        let s = DataSize::from_bytes(bytes);
        let scaled = s.scale(num, den).as_bytes() as f64;
        let exact = bytes as f64 * num as f64 / den as f64;
        prop_assert!((scaled - exact).abs() <= 0.5 + 1e-9);
    }
}
