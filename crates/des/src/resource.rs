//! Serial (FIFO) resource timelines.
//!
//! Besides the per-request [`FifoResource::acquire`], the resource supports
//! bulk reservation of a whole *packet train*
//! ([`FifoResource::acquire_train`]): because the packets of one message
//! enter a link in order and the link serves FIFO, the entire train's
//! occupancy is computable in closed form from the arrival profile — one
//! call instead of one `acquire` per packet, with bit-identical results.

use std::fmt;

use crate::Time;

/// A time interval granted by [`FifoResource::acquire`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Reservation {
    /// When the resource actually starts serving the request.
    pub start: Time,
    /// When the request completes and the resource becomes free again.
    pub end: Time,
}

impl Reservation {
    /// Duration between queueing for the resource and completion.
    pub fn latency_from(&self, ready: Time) -> Time {
        self.end.saturating_sub(ready)
    }
}

/// A serial resource that serves one request at a time in arrival order.
///
/// This models a network-dimension lane, a compute stream, or a memory port:
/// a request that becomes ready at time `t` starts at `max(t, free_at)` and
/// occupies the resource for its service time.
///
/// # Example
///
/// ```
/// use astra_des::{FifoResource, Time};
///
/// let mut link = FifoResource::new();
/// let a = link.acquire(Time::from_us(0), Time::from_us(10));
/// let b = link.acquire(Time::from_us(3), Time::from_us(5)); // queued behind `a`
/// assert_eq!(a.end, Time::from_us(10));
/// assert_eq!(b.start, Time::from_us(10));
/// assert_eq!(b.end, Time::from_us(15));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FifoResource {
    free_at: Time,
    busy: Time,
    /// When set, every grant is appended to `log` (telemetry surface).
    recording: bool,
    log: Vec<RecordedReservation>,
}

/// One recorded grant of a recording [`FifoResource`]: the request's ready
/// time plus the granted interval. A bulk [`FifoResource::acquire_train`]
/// records one entry per packet, exactly the grants the per-packet
/// [`FifoResource::acquire`] loop would have recorded, so a link's log
/// does not depend on how its traffic was reserved.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RecordedReservation {
    /// When the request became ready (entered the queue).
    pub ready: Time,
    /// When the resource started serving it.
    pub start: Time,
    /// When it completed.
    pub end: Time,
}

impl FifoResource {
    /// Creates a resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a resource that only becomes available at `t` (used to seed
    /// an engine-local resource from an externally tracked timeline).
    pub fn available_from(t: Time) -> Self {
        FifoResource {
            free_at: t,
            ..FifoResource::default()
        }
    }

    /// Reserves the resource for `service` time for a request that is ready
    /// at `ready`, returning the granted interval.
    pub fn acquire(&mut self, ready: Time, service: Time) -> Reservation {
        let start = ready.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        if self.recording {
            self.log.push(RecordedReservation { ready, start, end });
        }
        Reservation { start, end }
    }

    /// Turns grant recording on or off. Recording is off by default; while
    /// off, [`FifoResource::acquire`] and [`FifoResource::acquire_train`]
    /// cost exactly what they did before recording existed (one branch).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// The grants recorded so far, in grant order. Empty unless
    /// [`FifoResource::set_recording`] was enabled.
    pub fn recorded(&self) -> &[RecordedReservation] {
        &self.log
    }

    /// The earliest time a new request could start.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Captures the resource's current timeline so a batch of speculative
    /// reservations can later be undone with [`FifoResource::restore`].
    ///
    /// This is what lets the batched transport *re-plan* a link: when a new
    /// train overlaps an already-reserved one, the transport rewinds the
    /// link to the checkpoint taken before the first train's reservation and
    /// re-serves the merged packet sequence.
    pub fn checkpoint(&self) -> FifoCheckpoint {
        FifoCheckpoint {
            free_at: self.free_at,
            busy: self.busy,
            log_len: self.log.len(),
        }
    }

    /// Rewinds the resource to a previously captured [`FifoCheckpoint`],
    /// discarding every reservation (and recorded grant) made since.
    pub fn restore(&mut self, checkpoint: FifoCheckpoint) {
        self.free_at = checkpoint.free_at;
        self.busy = checkpoint.busy;
        self.log.truncate(checkpoint.log_len);
    }

    /// Total busy (serving) time accumulated so far.
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Reserves the resource for a whole packet train in one call and
    /// returns the completion instant of every packet.
    ///
    /// The train's packets become ready at the times described by
    /// `arrivals`; every packet occupies the resource for `service`, except
    /// the last one, which takes `tail_service` (messages rarely split into
    /// an exact number of full packets). The result is **bit-identical** to
    /// calling [`FifoResource::acquire`] once per packet in arrival order —
    /// the FIFO recursion `end_i = max(arrival_i, end_{i-1}) + service_i`
    /// collapses into at most two arithmetic runs per input run (a queued
    /// prefix served back-to-back, then an arrival-paced suffix), so the
    /// whole train costs `O(runs)` instead of `O(packets)`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_des::{FifoResource, Time, TrainProfile};
    ///
    /// // Four packets all ready at t=0 on a link serving 10 us each: they
    /// // serialize back-to-back, exactly like four individual acquires.
    /// let mut bulk = FifoResource::new();
    /// let train = TrainProfile::simultaneous(4, Time::ZERO);
    /// let ends = bulk.acquire_train(&train, Time::from_us(10), Time::from_us(10));
    /// assert_eq!(ends.last(), Time::from_us(40));
    ///
    /// let mut serial = FifoResource::new();
    /// for _ in 0..4 {
    ///     serial.acquire(Time::ZERO, Time::from_us(10));
    /// }
    /// assert_eq!(serial.free_at(), bulk.free_at());
    /// ```
    pub fn acquire_train(
        &mut self,
        arrivals: &TrainProfile,
        service: Time,
        tail_service: Time,
    ) -> TrainProfile {
        let total = arrivals.count();
        assert!(total > 0, "cannot reserve an empty packet train");
        let mut completions = TrainProfile::empty();
        let mut prev_end = self.free_at;
        let mut served = 0u64;
        for run in arrivals.runs() {
            // The train's final packet is served at `tail_service`; split it
            // off the run that contains it.
            let body = if served + run.count == total {
                run.count - 1
            } else {
                run.count
            };
            if body > 0 {
                prev_end = fold_body_run(&mut completions, prev_end, run, body, service);
            }
            served += body;
            if body < run.count {
                // This run carries the train's last packet.
                prev_end = run.last().max(prev_end) + tail_service;
                completions.append(prev_end);
                served += 1;
            }
        }
        self.free_at = prev_end;
        self.busy += service * (total - 1) + tail_service;
        if self.recording {
            // The per-packet grants: packet `i` is ready at its arrival and
            // served for its service time up to its completion.
            let ends = completions.times();
            for (i, (ready, end)) in arrivals.times().zip(ends).enumerate() {
                let s = if i as u64 + 1 == total {
                    tail_service
                } else {
                    service
                };
                self.log.push(RecordedReservation {
                    ready,
                    start: end - s,
                    end,
                });
            }
        }
        completions
    }
}

/// Serves `body` packets of one arithmetic arrival run and appends their
/// completion runs, returning the end of the run's last served packet.
fn fold_body_run(
    completions: &mut TrainProfile,
    prev_end: Time,
    run: &ArrivalRun,
    body: u64,
    service: Time,
) -> Time {
    let (a, d, s) = (run.first, run.spacing, service);
    if d <= s {
        // Packets arrive at least as fast as the resource serves: after the
        // first one starts, the rest queue back-to-back at `service` spacing.
        let first_end = a.max(prev_end) + s;
        completions.push_run(ArrivalRun {
            count: body,
            first: first_end,
            spacing: s,
        });
        return first_end + s * (body - 1);
    }
    // Arrivals are slower than the service rate. A (possibly empty) prefix
    // queues behind `prev_end` back-to-back; once arrivals catch up, each
    // packet starts on arrival and the output keeps the input spacing.
    let queued = if a >= prev_end {
        0
    } else {
        (prev_end - a).as_ps().div_ceil((d - s).as_ps()).min(body)
    };
    if queued > 0 {
        completions.push_run(ArrivalRun {
            count: queued,
            first: prev_end + s,
            spacing: s,
        });
    }
    if queued < body {
        let paced_first = a + d * queued;
        completions.push_run(ArrivalRun {
            count: body - queued,
            first: paced_first + s,
            spacing: d,
        });
        return paced_first + d * (body - queued - 1) + s;
    }
    prev_end + s * queued
}

/// An opaque snapshot of a [`FifoResource`] timeline, produced by
/// [`FifoResource::checkpoint`] and consumed by [`FifoResource::restore`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FifoCheckpoint {
    free_at: Time,
    busy: Time,
    log_len: usize,
}

/// One arithmetic run of packet times: `count` packets at `first`,
/// `first + spacing`, `first + 2*spacing`, …
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArrivalRun {
    /// Packets in the run (≥ 1).
    pub count: u64,
    /// Time of the run's first packet.
    pub first: Time,
    /// Gap between consecutive packets (zero for a simultaneous burst).
    pub spacing: Time,
}

impl ArrivalRun {
    /// Time of the run's last packet.
    pub fn last(&self) -> Time {
        self.first + self.spacing * (self.count - 1)
    }
}

/// Runs a [`TrainProfile`] keeps inline before it spills to the heap.
/// Each FIFO link traversal adds at most one run, and adjacent runs merge
/// whenever they stay arithmetic: on the backend-collective runs of GPT-3
/// on two- and three-dimensional topologies, and on pipeline p2p, no
/// profile had more than two runs. Only long split-merge replays (see
/// `astra_garnet::TransportMode`) spill.
const INLINE_RUNS: usize = 2;

/// Filler for the unused inline slots (never read).
const NO_RUN: ArrivalRun = ArrivalRun {
    count: 0,
    first: Time::ZERO,
    spacing: Time::ZERO,
};

/// The run store of a [`TrainProfile`]: up to [`INLINE_RUNS`] runs in
/// place, a `Vec` beyond that.
#[derive(Clone)]
enum Runs {
    /// The first `len` entries are the runs.
    Inline {
        len: u8,
        runs: [ArrivalRun; INLINE_RUNS],
    },
    Spilled(Vec<ArrivalRun>),
}

impl Runs {
    const EMPTY: Runs = Runs::Inline {
        len: 0,
        runs: [NO_RUN; INLINE_RUNS],
    };

    fn as_slice(&self) -> &[ArrivalRun] {
        match self {
            Runs::Inline { len, runs } => &runs[..*len as usize],
            Runs::Spilled(runs) => runs,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [ArrivalRun] {
        match self {
            Runs::Inline { len, runs } => &mut runs[..*len as usize],
            Runs::Spilled(runs) => runs,
        }
    }

    fn push(&mut self, run: ArrivalRun) {
        match self {
            Runs::Inline { len, runs } if (*len as usize) < INLINE_RUNS => {
                runs[*len as usize] = run;
                *len += 1;
            }
            Runs::Inline { runs, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_RUNS);
                spilled.extend_from_slice(runs);
                spilled.push(run);
                *self = Runs::Spilled(spilled);
            }
            Runs::Spilled(runs) => runs.push(run),
        }
    }
}

/// Piecewise-arithmetic time profile of a packet train (arrival or
/// completion instants): a sequence of [`ArrivalRun`]s kept inline,
/// spilling to the heap only for long profiles.
///
/// A message injected at one instant is a single zero-spacing run; each
/// FIFO link traversal maps the profile to at most one extra run (see
/// [`FifoResource::acquire_train`]), so profiles stay tiny even for trains
/// of millions of packets, and building or shifting one allocates nothing.
/// Two profiles are equal when their runs are, however they are stored.
#[derive(Clone)]
pub struct TrainProfile {
    runs: Runs,
}

impl PartialEq for TrainProfile {
    fn eq(&self, other: &Self) -> bool {
        self.runs() == other.runs()
    }
}

impl Eq for TrainProfile {}

impl fmt::Debug for TrainProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainProfile")
            .field("runs", &self.runs())
            .finish()
    }
}

impl TrainProfile {
    /// A burst of `count` packets all ready at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn simultaneous(count: u64, at: Time) -> Self {
        assert!(count > 0, "a packet train needs at least one packet");
        Self::arithmetic(ArrivalRun {
            count,
            first: at,
            spacing: Time::ZERO,
        })
    }

    /// An empty profile, to be filled with [`TrainProfile::append`].
    ///
    /// Unlike the other constructors this may stay empty; callers that build
    /// profiles incrementally must append at least one time before handing
    /// the profile to [`FifoResource::acquire_train`].
    pub fn empty() -> Self {
        TrainProfile { runs: Runs::EMPTY }
    }

    /// Appends a single packet time, merging it into the trailing run when
    /// the combined sequence stays arithmetic. Times must be appended in
    /// non-decreasing order.
    pub fn append(&mut self, time: Time) {
        self.push_run(ArrivalRun {
            count: 1,
            first: time,
            spacing: Time::ZERO,
        });
    }

    /// A profile made of a single arithmetic run.
    ///
    /// # Panics
    ///
    /// Panics if `run.count == 0`.
    pub fn arithmetic(run: ArrivalRun) -> Self {
        assert!(run.count > 0, "a packet train needs at least one packet");
        let mut profile = Self::empty();
        profile.runs.push(run);
        profile
    }

    /// Concatenates two profiles into one train.
    ///
    /// # Panics
    ///
    /// Panics if `other` starts before this profile's last packet (packet
    /// times must stay non-decreasing).
    pub fn concat(&self, other: &TrainProfile) -> TrainProfile {
        let mut out = self.clone();
        for &run in other.runs() {
            out.push_run(run);
        }
        out
    }

    /// The runs making up the profile, in time order.
    pub fn runs(&self) -> &[ArrivalRun] {
        self.runs.as_slice()
    }

    /// Total packets in the train.
    pub fn count(&self) -> u64 {
        self.runs().iter().map(|r| r.count).sum()
    }

    /// Time of the first packet.
    pub fn first(&self) -> Time {
        // astra-lint: allow(panic, profiles are built non-empty; an empty one is a transport bug)
        self.runs().first().expect("non-empty train").first
    }

    /// Time of the last packet.
    pub fn last(&self) -> Time {
        // astra-lint: allow(panic, profiles are built non-empty; an empty one is a transport bug)
        self.runs().last().expect("non-empty train").last()
    }

    /// The same profile shifted later by `delay` (e.g. a link's propagation
    /// latency applied to its completion profile), shifted in place.
    pub fn delayed_by(mut self, delay: Time) -> TrainProfile {
        for run in self.runs.as_mut_slice() {
            run.first += delay;
        }
        self
    }

    /// Every packet time, expanded (test/diagnostic helper — O(packets)).
    pub fn times(&self) -> impl Iterator<Item = Time> + '_ {
        self.runs()
            .iter()
            .flat_map(|r| (0..r.count).map(move |i| r.first + r.spacing * i))
    }

    /// Appends a run, merging it into the previous one when the combined
    /// sequence stays arithmetic.
    fn push_run(&mut self, run: ArrivalRun) {
        if run.count == 0 {
            return;
        }
        if let Some(prev) = self.runs.as_mut_slice().last_mut() {
            // Completion instants are non-decreasing, so the gap between the
            // previous run's last packet and this run's first is well-defined.
            let gap = run.first - prev.last();
            let prev_ok = prev.count == 1 || prev.spacing == gap;
            let run_ok = run.count == 1 || run.spacing == gap;
            if prev_ok && run_ok {
                prev.spacing = gap;
                prev.count += run.count;
                return;
            }
        }
        self.runs.push(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_overlapping_requests() {
        let mut r = FifoResource::new();
        let a = r.acquire(Time::from_us(0), Time::from_us(4));
        let b = r.acquire(Time::from_us(1), Time::from_us(4));
        assert_eq!(a.start, Time::from_us(0));
        assert_eq!(b.start, Time::from_us(4));
        assert_eq!(r.free_at(), Time::from_us(8));
        assert_eq!(r.busy_time(), Time::from_us(8));
    }

    #[test]
    fn idle_gap_preserved() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(1));
        let b = r.acquire(Time::from_us(10), Time::from_us(1));
        assert_eq!(b.start, Time::from_us(10));
        assert_eq!(r.busy_time(), Time::from_us(2));
    }

    #[test]
    fn reservation_latency() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(6));
        let b = r.acquire(Time::from_us(2), Time::from_us(3));
        assert_eq!(b.latency_from(Time::from_us(2)), Time::from_us(7));
    }

    /// Per-packet reference: the loop the bulk API must match bit-for-bit.
    fn acquire_each(
        res: &mut FifoResource,
        arrivals: &TrainProfile,
        service: Time,
        tail_service: Time,
    ) -> Vec<Reservation> {
        let total = arrivals.count();
        arrivals
            .times()
            .enumerate()
            .map(|(i, a)| {
                let s = if i as u64 + 1 == total {
                    tail_service
                } else {
                    service
                };
                res.acquire(a, s)
            })
            .collect()
    }

    fn assert_train_matches(
        arrivals: &TrainProfile,
        service: Time,
        tail_service: Time,
        seed: Time,
    ) {
        let mut bulk = FifoResource::available_from(seed);
        let mut serial = FifoResource::available_from(seed);
        bulk.set_recording(true);
        serial.set_recording(true);
        let ends = bulk.acquire_train(arrivals, service, tail_service);
        let refs = acquire_each(&mut serial, arrivals, service, tail_service);
        let ends: Vec<Time> = ends.times().collect();
        let want: Vec<Time> = refs.iter().map(|r| r.end).collect();
        assert_eq!(ends, want, "completion profile diverged");
        assert_eq!(bulk.recorded(), serial.recorded(), "per-packet grants");
        assert_eq!(bulk.free_at(), serial.free_at());
        assert_eq!(bulk.busy_time(), serial.busy_time());
    }

    #[test]
    fn train_burst_matches_per_packet_loop() {
        // Simultaneous burst (hop-0 shape), with and without a short tail.
        let t = TrainProfile::simultaneous(5, Time::from_us(3));
        assert_train_matches(&t, Time::from_us(4), Time::from_us(4), Time::ZERO);
        assert_train_matches(&t, Time::from_us(4), Time::from_us(1), Time::from_us(40));
    }

    #[test]
    fn train_dense_arrivals_queue_back_to_back() {
        // Arrivals at exactly the service spacing (saturated upstream link).
        let t = TrainProfile::arithmetic(ArrivalRun {
            count: 8,
            first: Time::from_us(10),
            spacing: Time::from_us(2),
        });
        assert_train_matches(&t, Time::from_us(2), Time::from_us(2), Time::ZERO);
        assert_train_matches(&t, Time::from_us(2), Time::from_us(1), Time::from_us(25));
    }

    #[test]
    fn train_sparse_arrivals_split_into_queued_then_paced() {
        // Arrivals slower than the service rate behind a busy resource: a
        // queued prefix drains back-to-back, then packets start on arrival.
        let t = TrainProfile::arithmetic(ArrivalRun {
            count: 10,
            first: Time::from_us(0),
            spacing: Time::from_us(5),
        });
        assert_train_matches(&t, Time::from_us(2), Time::from_us(2), Time::from_us(19));
        let mut res = FifoResource::available_from(Time::from_us(19));
        let ends = res.acquire_train(&t, Time::from_us(2), Time::from_us(2));
        assert_eq!(ends.runs().len(), 2, "{ends:?}");
    }

    #[test]
    fn single_packet_train_is_one_tail() {
        let t = TrainProfile::simultaneous(1, Time::from_us(7));
        assert_train_matches(&t, Time::from_us(9), Time::from_us(3), Time::from_us(2));
    }

    #[test]
    fn train_profile_delay_and_accessors() {
        let t = TrainProfile::simultaneous(4, Time::from_us(2));
        let d = t.delayed_by(Time::from_us(1));
        assert_eq!(d.first(), Time::from_us(3));
        assert_eq!(d.last(), Time::from_us(3));
        assert_eq!(d.count(), 4);
        assert_eq!(d.runs().len(), 1);
    }

    #[test]
    fn checkpoint_restore_rewinds_reservations() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(4));
        let cp = r.checkpoint();
        r.acquire(Time::from_us(1), Time::from_us(7));
        r.acquire(Time::from_us(2), Time::from_us(3));
        r.restore(cp);
        assert_eq!(r.free_at(), Time::from_us(4));
        assert_eq!(r.busy_time(), Time::from_us(4));
        // Replaying after a restore lands exactly where the original did.
        let b = r.acquire(Time::from_us(1), Time::from_us(7));
        assert_eq!(b.end, Time::from_us(11));
    }

    #[test]
    fn recording_logs_grants_and_restore_truncates() {
        let mut r = FifoResource::new();
        r.acquire(Time::from_us(0), Time::from_us(4));
        assert!(r.recorded().is_empty(), "recording is off by default");
        r.set_recording(true);
        let a = r.acquire(Time::from_us(1), Time::from_us(2));
        let cp = r.checkpoint();
        r.acquire(Time::from_us(2), Time::from_us(3));
        r.acquire_train(
            &TrainProfile::simultaneous(3, Time::from_us(2)),
            Time::from_us(1),
            Time::from_us(1),
        );
        assert_eq!(r.recorded().len(), 5, "one grant per train packet");
        r.restore(cp);
        assert_eq!(
            r.recorded(),
            &[RecordedReservation {
                ready: Time::from_us(1),
                start: a.start,
                end: a.end,
            }]
        );
    }

    #[test]
    fn append_builds_compact_profile() {
        let mut p = TrainProfile::empty();
        for i in 0..5 {
            p.append(Time::from_us(10 + 2 * i));
        }
        p.append(Time::from_us(30));
        assert_eq!(p.count(), 6);
        assert_eq!(p.runs().len(), 2, "{p:?}");
        let times: Vec<Time> = p.times().collect();
        assert_eq!(times[0], Time::from_us(10));
        assert_eq!(times[5], Time::from_us(30));
    }

    /// A profile longer than the inline store spills to the heap and keeps
    /// behaving as one list of runs: equality compares runs, not storage.
    #[test]
    fn long_profiles_spill_and_compare_by_runs() {
        let mut long = TrainProfile::empty();
        let mut t = Time::ZERO;
        for i in 0..3 * INLINE_RUNS as u64 {
            // Alternating gaps defeat run merging: one run per two packets.
            t += Time::from_us(1 + i % 2);
            long.append(t);
        }
        assert!(long.runs().len() > INLINE_RUNS, "{long:?}");
        assert!(matches!(long.runs, Runs::Spilled(_)));
        let times: Vec<Time> = long.times().collect();
        assert_eq!(times.len(), 3 * INLINE_RUNS);
        assert_eq!(times.last().copied(), Some(t));
        let shifted = long.clone().delayed_by(Time::from_us(5));
        assert!(shifted
            .times()
            .zip(&times)
            .all(|(s, &t)| s == t + Time::from_us(5)));
        // The same runs, stored inline and spilled, are equal.
        let mut spilled = TrainProfile::simultaneous(2, Time::ZERO);
        spilled.runs = Runs::Spilled(spilled.runs().to_vec());
        assert_eq!(spilled, TrainProfile::simultaneous(2, Time::ZERO));
        assert_ne!(spilled, TrainProfile::simultaneous(3, Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "empty packet train")]
    fn empty_train_rejected() {
        let empty = TrainProfile::empty();
        FifoResource::new().acquire_train(&empty, Time::from_us(1), Time::from_us(1));
    }
}
