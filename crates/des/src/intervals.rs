//! Busy-interval bookkeeping for "exposed time" breakdowns.
//!
//! The paper (Fig. 9 and Fig. 11) reports runtime broken into *compute time*
//! plus the **exposed** (non-hidden) portion of communication, remote-memory,
//! and local-memory time. This module attributes every instant of wall-clock
//! time to the highest-priority category active at that instant, in two
//! forms that agree to the picosecond:
//!
//! * [`attribute_exclusive`] sweeps whole [`IntervalLog`]s once, after the
//!   fact. It keeps every interval, and its segment form
//!   ([`attribute_exclusive_intervals`]) yields the attributed timeline.
//! * [`ExclusiveFold`] attributes a timeline while it streams in. It keeps
//!   four things: the exclusive sums, the instant they are folded up to,
//!   the few intervals that end after it, and the starts of *open*
//!   intervals, whose ends are not known yet. Its memory follows what is
//!   in flight, not the length of the run.

use crate::Time;

/// An [`ExclusiveFold`] folds once it holds this many recorded intervals,
/// or twice as many as its last fold left, whichever is more.
const FOLD_AT: usize = 8;

/// A log of (possibly overlapping) busy intervals for one activity category.
///
/// # Example
///
/// ```
/// use astra_des::{IntervalLog, Time};
///
/// let mut log = IntervalLog::new();
/// log.push(Time::from_us(0), Time::from_us(4));
/// log.push(Time::from_us(2), Time::from_us(6)); // overlaps the first
/// assert_eq!(log.union_measure(), Time::from_us(6));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalLog {
    spans: Vec<(Time, Time)>,
}

impl IntervalLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end)`. Empty intervals are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn push(&mut self, start: Time, end: Time) {
        assert!(end >= start, "interval ends before it starts");
        if end > start {
            self.spans.push((start, end));
        }
    }

    /// Total busy time counting overlaps once (the measure of the union).
    pub fn union_measure(&self) -> Time {
        let mut spans = self.spans.clone();
        spans.sort_unstable();
        let mut total = Time::ZERO;
        let mut cur: Option<(Time, Time)> = None;
        for (s, e) in spans {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Sum of raw interval lengths (overlaps counted multiply).
    pub fn raw_measure(&self) -> Time {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }

    /// Latest interval end, or `Time::ZERO` for an empty log.
    pub fn end(&self) -> Time {
        self.spans
            .iter()
            .map(|&(_, e)| e)
            .fold(Time::ZERO, Time::max)
    }

    /// Whether no intervals were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates over the recorded raw intervals in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        self.spans.iter().copied()
    }
}

/// Attributes every instant in `[0, horizon)` to the *first* (highest
/// priority) category in `logs` that is busy at that instant.
///
/// Returns one exclusive measure per input log, followed by a final entry
/// holding the unattributed (idle) time. The sum of the returned values
/// always equals `horizon`.
///
/// This implements the paper's exposed-time definition with a priority order
/// chosen by the caller (compute > comm > remote memory > local memory for
/// Fig. 11).
///
/// # Example
///
/// ```
/// use astra_des::{attribute_exclusive, IntervalLog, Time};
///
/// let mut compute = IntervalLog::new();
/// compute.push(Time::from_us(0), Time::from_us(5));
/// let mut comm = IntervalLog::new();
/// comm.push(Time::from_us(3), Time::from_us(8)); // 2us hidden behind compute
///
/// let out = attribute_exclusive(&[&compute, &comm], Time::from_us(10));
/// assert_eq!(out, vec![Time::from_us(5), Time::from_us(3), Time::from_us(2)]);
/// ```
pub fn attribute_exclusive(logs: &[&IntervalLog], horizon: Time) -> Vec<Time> {
    let segments = attribute_exclusive_intervals(logs, horizon);
    segments
        .iter()
        .map(|spans| spans.iter().map(|&(s, e)| e - s).sum())
        .collect()
}

/// The segment-level form of [`attribute_exclusive`]: the same sweep, but
/// instead of summing each category's exclusive time it returns the actual
/// attributed segments, coalesced, in time order.
///
/// Returns one span list per input log, followed by a final list holding the
/// idle segments. Summing each list's lengths reproduces
/// [`attribute_exclusive`]'s output exactly — the two share one sweep.
pub fn attribute_exclusive_intervals(
    logs: &[&IntervalLog],
    horizon: Time,
) -> Vec<Vec<(Time, Time)>> {
    // Boundary sweep: at every segment between consecutive boundaries, find
    // the highest-priority active category.
    let mut boundaries: Vec<Time> = vec![Time::ZERO, horizon];
    for log in logs {
        for (s, e) in log.iter() {
            boundaries.push(s.min(horizon));
            boundaries.push(e.min(horizon));
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    // Pre-sort each category's intervals for segment lookup via merge.
    let sorted: Vec<Vec<(Time, Time)>> = logs
        .iter()
        .map(|log| {
            let mut v: Vec<(Time, Time)> = log.iter().collect();
            v.sort_unstable();
            v
        })
        .collect();
    let mut cursors = vec![0usize; logs.len()];

    let mut out: Vec<Vec<(Time, Time)>> = vec![Vec::new(); logs.len() + 1];
    for w in boundaries.windows(2) {
        let (seg_s, seg_e) = (w[0], w[1]);
        if seg_e <= seg_s {
            continue;
        }
        let mid = seg_s; // segment is homogeneous; test membership at its start
        let mut winner = logs.len(); // idle by default
        for (i, spans) in sorted.iter().enumerate() {
            // Advance cursor past intervals that ended at or before `mid`.
            while cursors[i] < spans.len() && spans[cursors[i]].1 <= mid {
                cursors[i] += 1;
            }
            // Active if any remaining interval covers `mid`. Intervals can
            // overlap within a category, so scan forward from the cursor.
            let mut j = cursors[i];
            while j < spans.len() && spans[j].0 <= mid {
                if spans[j].1 > mid {
                    winner = i;
                    break;
                }
                j += 1;
            }
            if winner == i {
                break;
            }
        }
        // Coalesce: consecutive segments with the same winner merge.
        match out[winner].last_mut() {
            Some(last) if last.1 == seg_s => last.1 = seg_e,
            _ => out[winner].push((seg_s, seg_e)),
        }
    }
    out
}

/// A streaming form of [`attribute_exclusive`] over `N` categories of one
/// timeline: the same exclusive sums, to the picosecond, from intervals
/// fed as they become known.
///
/// The fold relies on a discipline that an event-driven simulator keeps.
/// At each call, `now` is the simulation's current instant, and it never
/// goes back. Every interval either
///
/// * is *pushed* ([`ExclusiveFold::push`]) with a start at or after `now`,
///   as a FIFO resource's grants are; or
/// * is *opened* ([`ExclusiveFold::open`]) when it starts, at `now`, and
///   *closed* ([`ExclusiveFold::close`]) once its end is known. Its end
///   then lies at or after the instant it is closed, as a rendezvous or a
///   message completes no earlier than it is resolved.
///
/// So every instant before `now` is settled: an open interval covers it
/// if it started by then, and no later interval can reach back to it.
/// The fold attributes everything before `now` lazily, once its recorded
/// intervals pile up, and keeps only those that end after it.
///
/// # Example
///
/// ```
/// use astra_des::{attribute_exclusive, ExclusiveFold, FoldScratch, IntervalLog, Time};
///
/// let us = Time::from_us;
/// let mut scratch = FoldScratch::default();
/// let mut fold = ExclusiveFold::<2>::new();
/// // At t = 0: a 5 us compute op, and a meeting that the timeline joins.
/// fold.push(0, us(0), us(5), us(0), &mut scratch);
/// fold.open(1, us(0));
/// // At t = 3 the meeting resolves: it ends at t = 8.
/// fold.close(1, us(0), us(8), us(3), &mut scratch);
/// let (sums, idle) = fold.finish(us(10), &mut scratch);
///
/// let mut compute = IntervalLog::new();
/// compute.push(us(0), us(5));
/// let mut comm = IntervalLog::new();
/// comm.push(us(0), us(8));
/// let oracle = attribute_exclusive(&[&compute, &comm], us(10));
/// assert_eq!(oracle, vec![sums[0], sums[1], idle]);
/// assert_eq!(idle, us(2));
/// ```
#[derive(Clone, Debug)]
pub struct ExclusiveFold<const N: usize> {
    /// Per category: the exclusive time attributed before `folded`.
    sums: [Time; N],
    /// Every instant before this one is attributed.
    folded: Time,
    /// Recorded intervals `(start, end, category)` that end after
    /// `folded`.
    recorded: Vec<(Time, Time, usize)>,
    /// The open intervals' `(start, category)`.
    open: Vec<(Time, usize)>,
    /// `recorded`'s length that triggers the next fold.
    fold_at: usize,
}

/// The scratch buffer an [`ExclusiveFold`] sweeps in; one can serve any
/// number of folds.
#[derive(Clone, Debug, Default)]
pub struct FoldScratch {
    /// Sweep edges `(instant, category × 2 + whether it is an end)`.
    edges: Vec<(Time, usize)>,
}

impl<const N: usize> Default for ExclusiveFold<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> ExclusiveFold<N> {
    /// An empty fold: nothing attributed, nothing open.
    pub fn new() -> Self {
        ExclusiveFold {
            sums: [Time::ZERO; N],
            folded: Time::ZERO,
            recorded: Vec::new(),
            open: Vec::new(),
            fold_at: FOLD_AT,
        }
    }

    /// Records a busy interval `[start, end)` of `category` that starts at
    /// or after `now`. Empty intervals are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `category >= N`.
    pub fn push(
        &mut self,
        category: usize,
        start: Time,
        end: Time,
        now: Time,
        scratch: &mut FoldScratch,
    ) {
        assert!(end >= start, "interval ends before it starts");
        assert!(category < N, "no such category");
        debug_assert!(start >= self.folded, "interval starts in folded time");
        if end > start {
            self.record(category, start, end, now, scratch);
        }
    }

    /// Opens an interval of `category` that starts at `start`, now; its
    /// end comes with [`ExclusiveFold::close`].
    ///
    /// # Panics
    ///
    /// Panics if `category >= N`.
    pub fn open(&mut self, category: usize, start: Time) {
        assert!(category < N, "no such category");
        debug_assert!(start >= self.folded, "interval opens in folded time");
        self.open.push((start, category));
    }

    /// Closes an open interval of `category` that started at `start`: it
    /// ends at `end`, at or after `now`. Such an interval must be open.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn close(
        &mut self,
        category: usize,
        start: Time,
        end: Time,
        now: Time,
        scratch: &mut FoldScratch,
    ) {
        assert!(end >= start, "interval ends before it starts");
        let open = self.open.iter().position(|&o| o == (start, category));
        debug_assert!(open.is_some(), "closing an interval that is not open");
        if let Some(at) = open {
            self.open.swap_remove(at);
        }
        debug_assert!(end >= self.folded, "an open interval ended in folded time");
        // Folded time already counted the interval as busy.
        let start = start.max(self.folded);
        if end > start {
            self.record(category, start, end, now, scratch);
        }
    }

    /// Attributes every instant up to `horizon` and returns the exclusive
    /// time per category plus the idle time, as [`attribute_exclusive`]
    /// does with `horizon`. Intervals still open count as busy through
    /// `horizon`. The fold is left folded up to `horizon`.
    pub fn finish(&mut self, horizon: Time, scratch: &mut FoldScratch) -> ([Time; N], Time) {
        debug_assert!(horizon >= self.folded, "the horizon lies in folded time");
        self.fold(horizon, scratch);
        let busy: Time = self.sums.iter().copied().sum();
        (self.sums, horizon.saturating_sub(busy))
    }

    fn record(
        &mut self,
        category: usize,
        start: Time,
        end: Time,
        now: Time,
        scratch: &mut FoldScratch,
    ) {
        self.recorded.push((start, end, category));
        if self.recorded.len() >= self.fold_at {
            self.fold(now, scratch);
            self.fold_at = FOLD_AT.max(2 * self.recorded.len());
        }
    }

    /// Attributes `[folded, to)`: every recorded interval clipped to it,
    /// and every open one as busy through `to`.
    fn fold(&mut self, to: Time, scratch: &mut FoldScratch) {
        let from = self.folded;
        if to <= from {
            return;
        }
        let edges = &mut scratch.edges;
        edges.clear();
        let open = self.open.iter().map(|&(start, c)| (start, to, c));
        for (start, end, c) in self.recorded.iter().copied().chain(open) {
            let (start, end) = (start.max(from), end.min(to));
            if start < end {
                edges.push((start, 2 * c));
                edges.push((end, 2 * c + 1));
            }
        }
        edges.sort_unstable();
        let mut active = [0u32; N];
        let mut at = from;
        for &(t, edge) in edges.iter() {
            if t > at {
                if let Some(c) = active.iter().position(|&k| k > 0) {
                    self.sums[c] += t - at;
                }
                at = t;
            }
            if edge % 2 == 0 {
                active[edge / 2] += 1;
            } else {
                active[edge / 2] -= 1;
            }
        }
        self.folded = to;
        self.recorded.retain(|&(_, end, _)| end > to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Time {
        Time::from_us(v)
    }

    #[test]
    fn union_merges_overlaps() {
        let mut log = IntervalLog::new();
        log.push(us(0), us(4));
        log.push(us(2), us(6));
        log.push(us(10), us(11));
        assert_eq!(log.union_measure(), us(7));
        assert_eq!(log.raw_measure(), us(9));
        assert_eq!(log.end(), us(11));
    }

    #[test]
    fn empty_log() {
        let log = IntervalLog::new();
        assert!(log.is_empty());
        assert_eq!(log.union_measure(), Time::ZERO);
        assert_eq!(log.end(), Time::ZERO);
    }

    #[test]
    fn zero_length_intervals_ignored() {
        let mut log = IntervalLog::new();
        log.push(us(3), us(3));
        assert!(log.is_empty());
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_interval_panics() {
        let mut log = IntervalLog::new();
        log.push(us(3), us(2));
    }

    #[test]
    fn attribution_priority_and_idle() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(5));
        let mut b = IntervalLog::new();
        b.push(us(3), us(8));
        b.push(us(12), us(14));
        let out = attribute_exclusive(&[&a, &b], us(20));
        assert_eq!(out[0], us(5)); // a fully attributed
        assert_eq!(out[1], us(5)); // b minus the 2us hidden behind a
        assert_eq!(out[2], us(10)); // idle
        assert_eq!(out.iter().copied().sum::<Time>(), us(20));
    }

    #[test]
    fn attribution_clips_to_horizon() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(100));
        let out = attribute_exclusive(&[&a], us(10));
        assert_eq!(out, vec![us(10), us(0)]);
    }

    #[test]
    fn attribution_with_overlapping_intervals_within_category() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(2));
        a.push(us(1), us(6));
        let out = attribute_exclusive(&[&a], us(6));
        assert_eq!(out[0], us(6));
        assert_eq!(out[1], Time::ZERO);
    }

    #[test]
    fn attribution_no_categories_is_all_idle() {
        let out = attribute_exclusive(&[], us(9));
        assert_eq!(out, vec![us(9)]);
    }

    #[test]
    fn attribution_intervals_match_measures_and_coalesce() {
        let mut a = IntervalLog::new();
        a.push(us(0), us(2));
        a.push(us(2), us(5)); // adjacent: must coalesce into one span
        let mut b = IntervalLog::new();
        b.push(us(3), us(8));
        b.push(us(12), us(14));
        let spans = attribute_exclusive_intervals(&[&a, &b], us(20));
        assert_eq!(spans[0], vec![(us(0), us(5))]);
        assert_eq!(spans[1], vec![(us(5), us(8)), (us(12), us(14))]);
        assert_eq!(spans[2], vec![(us(8), us(12)), (us(14), us(20))]);
        let sums: Vec<Time> = spans
            .iter()
            .map(|s| s.iter().map(|&(x, y)| y - x).sum())
            .collect();
        assert_eq!(sums, attribute_exclusive(&[&a, &b], us(20)));
    }
}
