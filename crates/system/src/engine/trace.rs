//! Trace assembly after a traced run: the sink's records, the per-NPU
//! interval logs and the backend's link grants become one canonical
//! [`SimTrace`].

use astra_des::{attribute_exclusive_intervals, IntervalLog, Time};
use astra_telemetry::{Marker, MetricsReport, NpuTimeline, SimTrace};

use super::{Engine, SimError, COMM, COMPUTE, LOCAL, REMOTE};
use crate::SimReport;

impl Engine<'_> {
    /// Trace assembly after [`Engine::run`] of a traced run: turns the
    /// sink's records, the per-NPU interval logs, and the backend's link
    /// grants into a canonical [`SimTrace`], and attaches the derived
    /// [`MetricsReport`] to a successful report. NPU timelines come from
    /// the same exclusive attribution that produced the report's
    /// breakdown; one instant marker goes in per scheduled fault (and one
    /// for a tripped budget). Budget-tripped runs still yield the partial
    /// trace alongside the error. An untraced run yields no trace.
    pub(crate) fn with_trace(
        &mut self,
        mut result: Result<SimReport, SimError>,
    ) -> (Result<SimReport, SimError>, Option<SimTrace>) {
        let Some(sink) = self.sink.take() else {
            return (result, None);
        };
        let horizon = match &result {
            Ok(report) => report.total_time,
            // The report (and its horizon) never materialized: cover every
            // recorded interval so attribution still sees the full run.
            Err(_) => self
                .logs
                .iter()
                .flatten()
                .map(IntervalLog::end)
                .fold(self.queue.now(), Time::max),
        };
        let npu_timelines = self
            .logs
            .iter()
            .map(|logs| {
                let segments = attribute_exclusive_intervals(
                    &[&logs[COMPUTE], &logs[COMM], &logs[REMOTE], &logs[LOCAL]],
                    horizon,
                );
                let mut it = segments.into_iter();
                let mut next = || it.next().unwrap_or_default();
                NpuTimeline {
                    spans: [next(), next(), next(), next(), next()],
                }
            })
            .collect();
        let links = self
            .network
            .as_ref()
            .map_or_else(Vec::new, |net| net.link_traces());
        let mut markers = sink.markers;
        for ev in self.config.faults.events() {
            markers.push(Marker {
                at: ev.at,
                label: format!("fault:{}", ev.kind.label()),
            });
        }
        if let Err(SimError::BudgetExceeded { sim_time, .. }) = &result {
            markers.push(Marker {
                at: *sim_time,
                label: "budget_exceeded".to_string(),
            });
        }
        let mut trace = SimTrace {
            npus: self.trace.npus(),
            horizon,
            npu_timelines,
            collectives: sink.collectives,
            chunk_ops: sink.chunk_ops,
            dep_edges: sink.dep_edges,
            links,
            markers,
        };
        trace.canonicalize();
        if let Ok(report) = &mut result {
            report.metrics = Some(MetricsReport::from_trace(&trace, &report.per_npu_finish));
        }
        (result, Some(trace))
    }
}
