//! Trace serializers.
//!
//! Both writers build their output with plain string formatting over
//! integer picosecond values — no floating point and no map iteration —
//! so equal traces always serialize to identical bytes.

use std::fmt::Write;

use astra_des::Time;

use crate::{ChunkOpSpan, SimTrace, NPU_CATEGORIES};

/// Chrome trace-event timestamps are microseconds; render the exact
/// picosecond value as a fixed-point decimal (no f64 rounding).
fn ts_us(t: Time) -> String {
    let ps = t.as_ps();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Escapes a label for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Track (pid) layout of the Chrome export.
const PID_NPUS: u32 = 0;
const PID_LINKS: u32 = 1;
const PID_COLLECTIVES: u32 = 2;
const PID_CHUNK_OPS: u32 = 3;

/// Renders a [`SimTrace`] as Chrome trace-event JSON, viewable in
/// `chrome://tracing` or <https://ui.perfetto.dev>. The trace must be
/// canonical ([`SimTrace::canonicalize`]); the engine always hands out
/// canonical traces.
///
/// Layout: pid 0 holds one thread per NPU with the five exclusive
/// category spans; pid 1 one thread per link with busy slices plus a
/// queue-depth counter; pid 2 one thread per communicator group with
/// collective slices; pid 3 one thread per source NPU with chunk-op
/// slices and dependency flow arrows; fault/budget markers are global
/// instants.
pub fn chrome_trace(trace: &SimTrace) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&event);
    };

    for (pid, name) in [
        (PID_NPUS, "npu timelines"),
        (PID_LINKS, "links"),
        (PID_COLLECTIVES, "collectives"),
        (PID_CHUNK_OPS, "chunk ops"),
    ] {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }

    for (npu, tl) in trace.npu_timelines.iter().enumerate() {
        for (cat, spans) in NPU_CATEGORIES.iter().zip(&tl.spans) {
            for &(s, e) in spans {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{cat}\",\"cat\":\"npu\",\"ph\":\"X\",\
                         \"pid\":{PID_NPUS},\"tid\":{npu},\"ts\":{},\"dur\":{}}}",
                        ts_us(s),
                        ts_us(e - s),
                    ),
                );
            }
        }
    }

    for link in &trace.links {
        let tid = link.link;
        for r in &link.reservations {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"busy\",\"cat\":\"link\",\"ph\":\"X\",\
                     \"pid\":{PID_LINKS},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"args\":{{\"ready\":{}}}}}",
                    ts_us(r.start),
                    ts_us(r.end - r.start),
                    r.ready.as_ps(),
                ),
            );
        }
        for (t, depth) in SimTrace::queue_depth_steps(link) {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"queue:link{tid}\",\"cat\":\"link\",\"ph\":\"C\",\
                     \"pid\":{PID_LINKS},\"tid\":{tid},\"ts\":{},\
                     \"args\":{{\"depth\":{depth}}}}}",
                    ts_us(t),
                ),
            );
        }
    }

    for c in &trace.collectives {
        push(
            &mut out,
            format!(
                "{{\"name\":\"collective{}\",\"cat\":\"collective\",\"ph\":\"X\",\
                 \"pid\":{PID_COLLECTIVES},\"tid\":{},\"ts\":{},\"dur\":{}}}",
                c.id,
                c.group,
                ts_us(c.start),
                ts_us(c.finish - c.start),
            ),
        );
    }

    for op in &trace.chunk_ops {
        push(
            &mut out,
            format!(
                "{{\"name\":\"c{}.op{}\",\"cat\":\"chunk\",\"ph\":\"X\",\
                 \"pid\":{PID_CHUNK_OPS},\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"dst\":{},\"size_bytes\":{}}}}}",
                op.coll,
                op.op,
                op.src,
                ts_us(op.ready),
                ts_us(op.finish - op.ready),
                op.dst,
                op.size.as_bytes(),
            ),
        );
    }

    // Dependency arrows: a flow step at the predecessor's finish bound to
    // the dependent's ready instant. Ops are canonical, so binary search
    // resolves each endpoint.
    let find = |coll: u64, op: u64| -> Option<&ChunkOpSpan> {
        trace
            .chunk_ops
            .binary_search_by_key(&(coll, op), |c| (c.coll, c.op))
            .ok()
            .map(|i| &trace.chunk_ops[i])
    };
    for (idx, e) in trace.dep_edges.iter().enumerate() {
        let (Some(from), Some(to)) = (find(e.coll, e.from), find(e.coll, e.to)) else {
            continue;
        };
        push(
            &mut out,
            format!(
                "{{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\
                 \"pid\":{PID_CHUNK_OPS},\"tid\":{},\"ts\":{},\"id\":{idx}}}",
                from.src,
                ts_us(e.at),
            ),
        );
        push(
            &mut out,
            format!(
                "{{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"pid\":{PID_CHUNK_OPS},\"tid\":{},\"ts\":{},\"id\":{idx}}}",
                to.src,
                ts_us(to.ready.max(e.at)),
            ),
        );
    }

    for m in &trace.markers {
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"g\",\
                 \"pid\":{PID_NPUS},\"tid\":0,\"ts\":{}}}",
                escape(&m.label),
                ts_us(m.at),
            ),
        );
    }

    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"npus\":{},\"horizon_ps\":{}}}}}\n",
        trace.npus,
        trace.horizon.as_ps()
    );
    out
}

/// Renders a [`SimTrace`] as newline-delimited JSON records: one `meta`
/// line, then `npu_span`, `link`, `collective`, `chunk_op`, `dep`, and
/// `marker` records, in canonical order.
pub fn jsonl_trace(trace: &SimTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"npus\":{},\"horizon_ps\":{}}}",
        trace.npus,
        trace.horizon.as_ps()
    );
    for (npu, tl) in trace.npu_timelines.iter().enumerate() {
        for (cat, spans) in NPU_CATEGORIES.iter().zip(&tl.spans) {
            for &(s, e) in spans {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"npu_span\",\"npu\":{npu},\"category\":\"{cat}\",\
                     \"start_ps\":{},\"end_ps\":{}}}",
                    s.as_ps(),
                    e.as_ps()
                );
            }
        }
    }
    for link in &trace.links {
        for r in &link.reservations {
            let _ = writeln!(
                out,
                "{{\"type\":\"link\",\"link\":{},\"ready_ps\":{},\"start_ps\":{},\
                 \"end_ps\":{}}}",
                link.link,
                r.ready.as_ps(),
                r.start.as_ps(),
                r.end.as_ps()
            );
        }
    }
    for c in &trace.collectives {
        let _ = writeln!(
            out,
            "{{\"type\":\"collective\",\"id\":{},\"group\":{},\"start_ps\":{},\
             \"finish_ps\":{}}}",
            c.id,
            c.group,
            c.start.as_ps(),
            c.finish.as_ps()
        );
    }
    for op in &trace.chunk_ops {
        let _ = writeln!(
            out,
            "{{\"type\":\"chunk_op\",\"coll\":{},\"op\":{},\"src\":{},\"dst\":{},\
             \"size_bytes\":{},\"ready_ps\":{},\"finish_ps\":{}}}",
            op.coll,
            op.op,
            op.src,
            op.dst,
            op.size.as_bytes(),
            op.ready.as_ps(),
            op.finish.as_ps()
        );
    }
    for e in &trace.dep_edges {
        let _ = writeln!(
            out,
            "{{\"type\":\"dep\",\"coll\":{},\"from\":{},\"to\":{},\"at_ps\":{}}}",
            e.coll,
            e.from,
            e.to,
            e.at.as_ps()
        );
    }
    for m in &trace.markers {
        let _ = writeln!(
            out,
            "{{\"type\":\"marker\",\"at_ps\":{},\"label\":\"{}\"}}",
            m.at.as_ps(),
            escape(&m.label)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectiveSpan, DepEdge, LinkTrace, Marker, NpuTimeline};
    use astra_des::{DataSize, RecordedReservation};

    fn us(v: u64) -> Time {
        Time::from_us(v)
    }

    fn sample_trace() -> SimTrace {
        let mut tl = NpuTimeline::default();
        tl.spans[0].push((us(0), us(3)));
        tl.spans[4].push((us(3), us(10)));
        let mut trace = SimTrace {
            npus: 2,
            horizon: us(10),
            npu_timelines: vec![tl, NpuTimeline::default()],
            collectives: vec![CollectiveSpan {
                id: 0,
                group: 1,
                start: us(1),
                finish: us(4),
            }],
            chunk_ops: vec![
                ChunkOpSpan {
                    coll: 0,
                    op: 0,
                    src: 0,
                    dst: 1,
                    size: DataSize::from_kib(4),
                    ready: us(1),
                    finish: us(2),
                },
                ChunkOpSpan {
                    coll: 0,
                    op: 1,
                    src: 1,
                    dst: 0,
                    size: DataSize::from_kib(4),
                    ready: us(2),
                    finish: us(4),
                },
            ],
            dep_edges: vec![DepEdge {
                coll: 0,
                from: 0,
                to: 1,
                at: us(2),
            }],
            links: vec![LinkTrace {
                link: 0,
                reservations: vec![RecordedReservation {
                    ready: us(1),
                    start: us(1),
                    end: us(2),
                }],
            }],
            markers: vec![Marker {
                at: us(5),
                label: "fault:link_down".into(),
            }],
        };
        trace.canonicalize();
        trace
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let trace = sample_trace();
        let a = chrome_trace(&trace);
        let b = chrome_trace(&trace);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":[\n"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"ph\":\"s\""));
        assert!(a.contains("\"ph\":\"f\""));
        assert!(a.contains("fault:link_down"));
        // Exact fixed-point microsecond timestamps, no f64 formatting.
        assert!(a.contains("\"ts\":1.000000"), "{a}");
    }

    #[test]
    fn jsonl_trace_emits_one_record_per_line() {
        let trace = sample_trace();
        let text = jsonl_trace(&trace);
        // meta + 2 npu spans + 1 link + 1 collective + 2 chunk ops + 1 dep
        // + 1 marker.
        assert_eq!(text.lines().count(), 9, "{text}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
