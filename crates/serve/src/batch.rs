//! Deterministic batch execution: a worker pool draining JSONL requests.
//!
//! [`run_batch`] executes every request of a batch concurrently and emits
//! one JSON response row per input line, **in input order**. The rows are
//! a pinned surface: byte-identical regardless of worker count, request
//! order within the batch, or cache state — workers only race for *which
//! request to claim next*, never for what a response contains.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use astra_core::SimReport;
use serde_json::Value;

use crate::exec::{execute_on_miss, WarmCache};
use crate::request::{ErrorKind, RequestError, SimRequest};
use crate::stats::ServeStats;

/// One unit of batch input: a request line, or a placeholder for a line
/// the transport refused to buffer (see the socket front end's
/// line-length bound). Placeholders still get a response row at their
/// input position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchLine {
    /// A JSONL request line.
    Request(String),
    /// A line that exceeded the transport's length bound; only its size
    /// was retained.
    TooLong {
        /// Bytes the line carried (excluding the newline).
        bytes: u64,
    },
}

/// Totals of one [`run_batch`] call, for the end-of-batch summary line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Response rows emitted (non-blank input lines).
    pub requests: u64,
    /// Rows with `"ok": true`.
    pub ok: u64,
    /// Rows with `"ok": false`.
    pub errors: u64,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn time_pair(label_ps: &str, t: astra_core::Time) -> (String, Value) {
    (label_ps.to_owned(), Value::UInt(t.as_ps()))
}

/// Renders a report as a JSON value with exact (picosecond-integer)
/// times, so equal reports always serialize to equal bytes.
pub fn report_value(report: &SimReport) -> Value {
    let b = &report.breakdown;
    let n = &report.network;
    let c = &report.cache;
    Value::Object(vec![
        time_pair("total_ps", report.total_time),
        (
            "breakdown_ps".to_owned(),
            Value::Object(vec![
                time_pair("compute_ps", b.compute),
                time_pair("exposed_comm_ps", b.exposed_comm),
                time_pair("exposed_remote_mem_ps", b.exposed_remote_mem),
                time_pair("exposed_local_mem_ps", b.exposed_local_mem),
                time_pair("exposed_idle_ps", b.exposed_idle),
            ]),
        ),
        (
            "per_npu_finish_ps".to_owned(),
            Value::Array(
                report
                    .per_npu_finish
                    .iter()
                    .map(|t| Value::UInt(t.as_ps()))
                    .collect(),
            ),
        ),
        ("collectives".to_owned(), Value::UInt(report.collectives)),
        (
            "collective_ops".to_owned(),
            Value::UInt(report.collective_ops),
        ),
        ("p2p_messages".to_owned(), Value::UInt(report.p2p_messages)),
        (
            "network".to_owned(),
            Value::Object(vec![
                ("messages".to_owned(), Value::UInt(n.messages)),
                ("backend_setups".to_owned(), Value::UInt(n.backend_setups)),
                ("events".to_owned(), Value::UInt(n.events)),
                ("cache_hits".to_owned(), Value::UInt(n.cache_hits)),
                ("train_splits".to_owned(), Value::UInt(n.train_splits)),
            ]),
        ),
        (
            "cache".to_owned(),
            Value::Object(vec![
                ("delay_hits".to_owned(), Value::UInt(c.delay_hits)),
                ("delay_misses".to_owned(), Value::UInt(c.delay_misses)),
                ("lowering_hits".to_owned(), Value::UInt(c.lowering_hits)),
                ("lowering_misses".to_owned(), Value::UInt(c.lowering_misses)),
            ]),
        ),
        (
            "faults".to_owned(),
            Value::Array(
                report
                    .faults
                    .iter()
                    .map(|f| {
                        obj(vec![
                            ("event", Value::UInt(f.event as u64)),
                            ("kind", Value::Str(f.kind.clone())),
                            ("affected", Value::UInt(f.affected)),
                            ("extra_ps", Value::UInt(f.extra_time.as_ps())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders one failed request as a structured row. Plain request errors
/// keep the historical free-text `error` bytes; the hardened kinds
/// (budget, panic, shutdown, line length) put a stable token in `error`
/// and the free text in `detail`, so clients can branch without parsing
/// prose.
fn error_row(index: usize, line_number: usize, id: Value, e: &RequestError) -> Value {
    let text = format!("line {line_number}: {}", e.message);
    let mut pairs = vec![
        ("index", Value::UInt(index as u64)),
        ("id", id),
        ("ok", Value::Bool(false)),
    ];
    match e.kind {
        ErrorKind::Request => pairs.push(("error", Value::Str(text))),
        kind => {
            pairs.push(("error", Value::Str(kind.token().to_owned())));
            pairs.push(("detail", Value::Str(text)));
        }
    }
    obj(pairs)
}

/// Recognizes the `{"stats": true}` control line: exactly one field,
/// `stats`, set to `true`. Anything else — including `{"stats": false}`
/// or a request that happens to contain the word — parses as a normal
/// request.
fn is_stats_control(line: &str) -> bool {
    if !line.contains("\"stats\"") {
        return false;
    }
    match serde_json::parse(line) {
        Ok(Value::Object(fields)) => {
            fields.len() == 1 && fields[0].0 == "stats" && matches!(fields[0].1, Value::Bool(true))
        }
        _ => false,
    }
}

/// One response row: executes the line and renders success or a
/// structured error (never a panic or process exit), plus the outcome
/// classification (`None` = success) so summary and stats counters never
/// have to string-match response bytes. A panic inside execution is
/// caught here, so one poisoned request cannot take down its worker or
/// the batch. `on_work` runs before the line does work worth sharing out:
/// executing a request whose report is not memoized, or rendering a
/// report of at least [`SHARED_RENDER`] NPUs.
fn response_row(
    index: usize,
    line_number: usize,
    item: &BatchLine,
    cache: &WarmCache,
    on_work: &dyn Fn(),
) -> (String, Option<ErrorKind>) {
    let (request_id, outcome) = match item {
        BatchLine::TooLong { bytes } => (
            None,
            Err(RequestError::with_kind(
                ErrorKind::LineTooLong,
                format!("request line exceeds {MAX_LINE_BYTES} bytes ({bytes} bytes)"),
            )),
        ),
        BatchLine::Request(line) => match SimRequest::from_json_line(line) {
            Ok(req) => {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| execute_on_miss(&req, cache, on_work)))
                        .unwrap_or_else(|payload| {
                            let what = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "opaque panic payload".to_owned());
                            Err(RequestError::with_kind(
                                ErrorKind::Panic,
                                format!("request panicked: {what}"),
                            ))
                        });
                if outcome
                    .as_ref()
                    .is_ok_and(|report| report.per_npu_finish.len() >= SHARED_RENDER)
                {
                    on_work();
                }
                (req.id, outcome)
            }
            // A line rejected while parsing carries its id on the error.
            Err(e) => (e.id.clone(), Err(e)),
        },
    };
    let id = request_id.map_or(Value::Null, Value::Str);
    let (row, kind) = match outcome {
        Ok(report) => (
            obj(vec![
                ("index", Value::UInt(index as u64)),
                ("id", id),
                ("ok", Value::Bool(true)),
                ("report", report_value(&report)),
            ]),
            None,
        ),
        Err(e) => (error_row(index, line_number, id, &e), Some(e.kind)),
    };
    (
        serde_json::to_string(&row)
            .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"{e}\"}}")),
        kind,
    )
}

/// Reports of at least this many NPUs take long enough to render (some
/// 50 ns per NPU) that a batch of them, even memoized, is worth starting
/// the other workers for.
const SHARED_RENDER: usize = 4096;

/// The socket front end's per-line byte bound (see
/// [`crate::serve_unix`]); re-declared here so [`BatchLine::TooLong`]
/// rows can name it.
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024;

/// Executes a batch of JSONL request lines on up to `workers` threads
/// sharing `cache`, returning one response row per non-blank line, in
/// input order, plus the batch totals. The calling thread starts alone and
/// starts the other workers at the first line with work worth sharing
/// (see [`response_row`]), so a batch of small memoized reports starts
/// none.
///
/// Every row is bit-identical to what a cold, sequential execution of the
/// same line would produce; only wall-clock time depends on `workers` and
/// cache warmth.
pub fn run_batch(
    lines: &[String],
    workers: usize,
    cache: &WarmCache,
) -> (Vec<String>, BatchSummary) {
    let items: Vec<BatchLine> = lines
        .iter()
        .map(|line| BatchLine::Request(line.clone()))
        .collect();
    run_batch_items(&items, workers, cache, &AtomicBool::new(false))
}

/// [`run_batch`] over pre-classified input items with a shutdown flag:
/// once `shutdown` is set, workers finish the request they already
/// claimed but claim no further ones — every unclaimed line gets a
/// structured `shutdown` rejection row at its input position. Rows stay
/// in input order and (absent a shutdown) bit-identical across worker
/// counts.
pub fn run_batch_items(
    items: &[BatchLine],
    workers: usize,
    cache: &WarmCache,
    shutdown: &AtomicBool,
) -> (Vec<String>, BatchSummary) {
    run_batch_items_with(items, workers, cache, shutdown, &ServeStats::new())
}

/// [`run_batch_items`] recording into an external [`ServeStats`] window —
/// the socket service passes its service-lifetime instance here, so
/// `{"stats": true}` control rows observe totals across connections.
///
/// A control row (exactly `{"stats": true}`) answers with a volatile
/// statistics snapshot instead of a report; it is the one deliberately
/// non-deterministic response row, emitted only when a client explicitly
/// asks. Everything else keeps the pinned-surface guarantee.
pub fn run_batch_items_with(
    items: &[BatchLine],
    workers: usize,
    cache: &WarmCache,
    shutdown: &AtomicBool,
    stats: &ServeStats,
) -> (Vec<String>, BatchSummary) {
    let work: Vec<(usize, &BatchLine)> = items
        .iter()
        .enumerate()
        .filter(|(_, item)| !matches!(item, BatchLine::Request(line) if line.trim().is_empty()))
        .map(|(n, item)| (n + 1, item))
        .collect();
    let workers = workers.clamp(1, work.len().max(1));
    let next = AtomicUsize::new(0);
    let rows = Mutex::new(vec![None; work.len()]);
    let claim = |on_work: &dyn Fn()| loop {
        let draining = shutdown.load(Ordering::Acquire);
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(line_number, item)) = work.get(i) else {
            break;
        };
        let (row, outcome) = if draining {
            let rejection = RequestError::with_kind(
                ErrorKind::Shutdown,
                "service shutting down; request was not started",
            );
            let id = match item {
                BatchLine::Request(line) => SimRequest::from_json_line(line)
                    .map_or_else(|e| e.id, |r| r.id)
                    .map_or(Value::Null, Value::Str),
                BatchLine::TooLong { .. } => Value::Null,
            };
            stats.record(Some(ErrorKind::Shutdown), 0);
            let row = serde_json::to_string(&error_row(i, line_number, id, &rejection))
                .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"{e}\"}}"));
            (row, Some(ErrorKind::Shutdown))
        } else if matches!(item, BatchLine::Request(line) if is_stats_control(line.trim())) {
            stats.record_stats_request();
            let snapshot = obj(vec![
                ("index", Value::UInt(i as u64)),
                ("ok", Value::Bool(true)),
                ("stats", stats.value(workers, &cache.summary())),
            ]);
            let row = serde_json::to_string(&snapshot)
                .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"{e}\"}}"));
            (row, None)
        } else {
            let ((row, outcome), micros) =
                ServeStats::timed(|| response_row(i, line_number, item, cache, on_work));
            stats.record(outcome, micros);
            (row, outcome)
        };
        match rows.lock() {
            Ok(mut slots) => slots[i] = Some((row, outcome)),
            Err(poisoned) => poisoned.into_inner()[i] = Some((row, outcome)),
        }
    };
    std::thread::scope(|scope| {
        let helpers = Cell::new(false);
        claim(&|| {
            if !helpers.replace(true) {
                for _ in 1..workers {
                    scope.spawn(|| claim(&|| {}));
                }
            }
        });
    });
    let rows = match rows.into_inner() {
        Ok(slots) => slots,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut summary = BatchSummary::default();
    let rows: Vec<String> = rows
        .into_iter()
        .flatten()
        .map(|(row, outcome)| {
            summary.requests += 1;
            match outcome {
                None => summary.ok += 1,
                Some(_) => summary.errors += 1,
            }
            row
        })
        .collect();
    (rows, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn rows_come_back_in_input_order_with_ids() {
        let cache = WarmCache::new();
        let (rows, summary) = run_batch(
            &lines(&[
                r#"{"id": "b", "topology": "SW(8)@400", "all_reduce_mib": 64}"#,
                "",
                r#"{"id": "a", "topology": "SW(4)@400", "all_reduce_mib": 32}"#,
            ]),
            2,
            &cache,
        );
        assert_eq!(rows.len(), 2, "blank lines are skipped");
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.errors, 0);
        assert!(rows[0].contains(r#""id":"b""#), "{}", rows[0]);
        assert!(rows[1].contains(r#""id":"a""#), "{}", rows[1]);
        assert!(rows[0].contains(r#""index":0"#));
        assert!(rows[1].contains(r#""index":1"#));
    }

    #[test]
    fn malformed_lines_become_structured_error_rows() {
        let cache = WarmCache::new();
        let (rows, summary) = run_batch(
            &lines(&[
                "{not json",
                r#"{"topology": "SW(4)@400", "all_reduce_mib": 32}"#,
                r#"{"id": "x", "topology": "Mesh(9)", "workload": "dlrm"}"#,
            ]),
            1,
            &cache,
        );
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.errors, 2);
        assert!(rows[0].contains(r#""ok":false"#));
        assert!(rows[0].contains("line 1:"), "{}", rows[0]);
        // A request that parsed but failed execution still echoes its id.
        assert!(rows[2].contains(r#""id":"x""#), "{}", rows[2]);
        assert!(rows[2].contains("line 3:"), "{}", rows[2]);
        // Every row (including errors) is valid JSON.
        for row in &rows {
            serde_json::parse(row).unwrap();
        }
    }

    #[test]
    fn stats_control_rows_answer_with_a_snapshot() {
        let cache = WarmCache::new();
        let stats = ServeStats::new();
        let batch: Vec<BatchLine> = lines(&[
            r#"{"topology": "SW(8)@400", "all_reduce_mib": 64}"#,
            r#"{"stats": true}"#,
            r#"{"stats": false}"#,
        ])
        .into_iter()
        .map(BatchLine::Request)
        .collect();
        let (rows, summary) =
            run_batch_items_with(&batch, 2, &cache, &AtomicBool::new(false), &stats);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.ok, 2, "the control row counts as ok");
        assert_eq!(
            summary.errors, 1,
            "`stats: false` is an unknown request field"
        );
        assert!(rows[1].contains(r#""stats":{"#), "{}", rows[1]);
        assert!(rows[1].contains("\"occupancy_permille\":"), "{}", rows[1]);
        assert!(rows[1].contains("\"latency_us\":"), "{}", rows[1]);
        assert!(rows[2].contains(r#""ok":false"#), "{}", rows[2]);
        // The snapshot is valid JSON like every other row.
        for row in &rows {
            serde_json::parse(row).unwrap();
        }
    }

    #[test]
    fn rows_are_bit_identical_across_worker_counts() {
        let batch = lines(&[
            r#"{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4}"#,
            r#"{"topology": "SW(8)@400", "all_reduce_mib": 64}"#,
            r#"{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4}"#,
            r#"{"topology": "SW(8)@400", "all_reduce_mib": 64, "chunks": 32}"#,
            "{broken",
        ]);
        let (reference, _) = run_batch(&batch, 1, &WarmCache::new());
        for workers in [2, 8] {
            let (rows, _) = run_batch(&batch, workers, &WarmCache::new());
            assert_eq!(rows, reference, "workers={workers}");
        }
        // Re-running against an already-warm cache changes nothing either.
        let warm = WarmCache::new();
        run_batch(&batch, 4, &warm);
        let (rows, _) = run_batch(&batch, 4, &warm);
        assert_eq!(rows, reference);
    }
}
