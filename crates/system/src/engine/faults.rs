//! Per-fault attribution: the time a run loses to each scheduled fault,
//! charged to the fault's impact row (see [`FaultImpact`]).
//!
//! [`FaultImpact`]: crate::FaultImpact

use astra_collectives::Collective;
use astra_des::{DataSize, Time};
use astra_topology::{FaultKind, NpuId};

use crate::plans::Dims;

use super::Engine;

impl Engine<'_> {
    /// Applies any active straggler slowdown to a compute service time:
    /// the worst (maximum) percentage among this NPU's faults with
    /// `onset <= now` stretches the op, and the stretch is attributed to
    /// that fault's impact row. A faulted run is never collapsed, so a
    /// block is its NPU; a fault-free schedule has no rows to scan.
    pub(super) fn stretched_compute(&mut self, npu: NpuId, now: Time, service: Time) -> Time {
        let mut worst: Option<(u32, usize)> = None;
        for (idx, ev) in self.config.faults.events().iter().enumerate() {
            if let FaultKind::NpuSlowdown {
                npu: n,
                slowdown_pct,
            } = ev.kind
            {
                if n == npu && now >= ev.at && worst.is_none_or(|(w, _)| slowdown_pct > w) {
                    worst = Some((slowdown_pct, idx));
                }
            }
        }
        let Some((pct, idx)) = worst else {
            return service;
        };
        let stretched = Time::from_ps(
            (service.as_ps() as u128 * pct as u128 / 100).min(u64::MAX as u128) as u64,
        );
        let impact = &mut self.impacts[idx];
        impact.affected += 1;
        impact.extra_time += stretched.saturating_sub(service);
        stretched
    }

    /// For a collective of group block `group` launching at `start` on a
    /// span that faults degraded: the first schedule event that degraded
    /// a spanned dimension, and the finish the closed form reaches on the
    /// pristine dimensions from the lanes as they are now, which it
    /// leaves as they are. The finish delta is charged to that event.
    /// `None` on a fault-free span.
    pub(super) fn pristine_finish(
        &mut self,
        group: u32,
        op: (Collective, DataSize),
        start: Time,
    ) -> Option<(usize, Time)> {
        let span = self.spans.span(group as usize);
        let event = span.degraded.iter().flatten().map(|&(_, e)| e).min()?;
        self.pristine.clear();
        let pristine = span.dims.iter().zip(span.degraded);
        self.pristine
            .extend(pristine.map(|(&d, degraded)| degraded.map_or(d, |(p, _)| p)));
        let at = (start, &self.lanes[..], span.lanes);
        let plan = self
            .plans
            .get((group, Dims::Pristine), op, &self.pristine, at);
        Some((event, plan.finish_time(start, &self.lanes, span.lanes)))
    }
}
