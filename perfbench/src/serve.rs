//! The `serve-mix` workload: a seeded design-space sweep through
//! `astra_serve::run_batch`.
//!
//! Set-up generates the mix, validates every line with
//! `SimRequest::from_json_line` and parses its topologies. Every iteration
//! sets up [`SETUP_BURST`] times in a row and then makes one pass over the
//! mix; one warm-up iteration comes first. A pass starts from an empty
//! shared `WarmCache`; each of the [`CLIENTS`] closed-loop clients sends
//! its lines one `run_batch` call at a time and waits for the row.
//! Afterwards every distinct line runs once on a cold cache of its own,
//! and every row of every pass must equal that cold row byte for byte.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use astra_core::Topology;
use astra_serve::{run_batch, CacheSummary, SimRequest, WarmCache};

use crate::clock::{
    describe, median, now, peak_rss_mb, percentile, set_up_burst, since, tail95, timed,
};
use crate::metrics::Outcome;
use crate::mix::{self, CLIENTS};
use crate::spans::Recorder;

/// Fewest timed passes per kind (untraced, traced) in one run.
const MIN_PASSES: usize = 2;
/// Set-ups timed in a row in each iteration, about 0.3 s of them; the
/// iteration's set-up time is their median.
pub const SETUP_BURST: usize = 200;

/// Sends each client's lines, one `run_batch` call at a time, all clients
/// running concurrently and sharing `cache`. Returns, per line, its row
/// and when its call started and ended.
fn send_all(lines: &[String], cache: &WarmCache) -> Vec<(String, Instant, Instant)> {
    let client = |client: usize| {
        let mut got = Vec::new();
        for (slot, line) in mix::client_lines(lines, client) {
            let start = now();
            let (mut rows, _) = run_batch(std::slice::from_ref(line), 1, cache);
            let end = now();
            got.push((slot, rows.pop().unwrap_or_default(), start, end));
        }
        got
    };
    let per_client: Vec<Vec<(usize, String, Instant, Instant)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect()
    });
    let mut by_slot: Vec<(usize, String, Instant, Instant)> =
        per_client.into_iter().flatten().collect();
    by_slot.sort_by_key(|&(slot, ..)| slot);
    by_slot
        .into_iter()
        .map(|(_, row, start, end)| (row, start, end))
        .collect()
}

/// One pass over the mix from an empty warm cache.
struct Pass {
    wall_s: f64,
    /// Per line: how long its `run_batch` call took.
    latencies_ms: Vec<f64>,
    /// Per line: digest of the row it got back.
    row_hashes: Vec<u64>,
    summary: CacheSummary,
}

/// Layer counters a `serve.run_batch` span carries: where they sit in the
/// row's `report` object, and the name they take on the span.
const ROW_COUNTERS: [(&[&str], &str); 5] = [
    (&["collectives"], "collectives"),
    (&["collective_ops"], "chunk_ops"),
    (&["network", "events"], "network_events"),
    (&["network", "cache_hits"], "delay_memo_hits"),
    (&["network", "train_splits"], "train_splits"),
];

fn pass(lines: &[String], rec: &mut Recorder) -> Pass {
    let cache = WarmCache::new();
    let id = rec.open("serve.pass", None);
    let (sent, wall_s) = timed(|| send_all(lines, &cache));
    rec.close(id);
    let summary = cache.summary();
    rec.count(id, "result_hits", summary.result_hits as f64);
    rec.count(id, "trace_queries", summary.trace_queries as f64);
    let mut latencies_ms = Vec::with_capacity(sent.len());
    let mut row_hashes = Vec::with_capacity(sent.len());
    for (slot, (row, start, end)) in sent.iter().enumerate() {
        let span = rec.push("serve.run_batch", Some(id), *start, *end);
        if rec.is_on() {
            rec.count(span, "slot", slot as f64);
            if let Ok(parsed) = serde_json::parse(row) {
                for (path, name) in ROW_COUNTERS {
                    rec.count(span, name, counter(&parsed, path) as f64);
                }
            }
        }
        latencies_ms.push(end.duration_since(*start).as_secs_f64() * 1e3);
        row_hashes.push(digest(row));
    }
    Pass {
        wall_s,
        latencies_ms,
        row_hashes,
        summary,
    }
}

/// A 64-bit digest of a row. Passes keep digests rather than rows, so
/// the check's bookkeeping stays small next to the memory it measures.
fn digest(row: &str) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// The cold row of every distinct line: each runs alone on a fresh cache,
/// the lines split across [`CLIENTS`] threads.
fn cold_rows(lines: &[String]) -> BTreeMap<String, String> {
    let mut distinct: Vec<&String> = lines.iter().collect();
    distinct.sort();
    distinct.dedup();
    let distinct = &distinct;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|w| {
                scope.spawn(move || {
                    distinct
                        .iter()
                        .skip(w)
                        .step_by(CLIENTS)
                        .map(|&line| {
                            let (mut rows, _) =
                                run_batch(std::slice::from_ref(line), 1, &WarmCache::new());
                            (line.clone(), rows.pop().unwrap_or_default())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a reference thread panicked"))
            .collect()
    })
}

/// Counter `path` of a parsed row's `report` object; 0 where absent.
fn counter(row: &serde_json::Value, path: &[&str]) -> u64 {
    let mut at = row.get("report");
    for key in path {
        at = at.and_then(|v| v.get(key));
    }
    at.and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Sums a counter of the `report` object over `rows`.
fn row_sum(rows: &[&String], path: &[&str]) -> f64 {
    rows.iter()
        .filter_map(|row| serde_json::parse(row).ok())
        .map(|row| counter(&row, path))
        .sum::<u64>() as f64
}

/// Generates the mix, validates every line and parses its topologies.
fn set_up(seed: u64, rec: &mut Recorder) -> (Vec<String>, f64) {
    let parent = rec.open("bench.setup", None);
    let start = now();
    let lines = mix::generate(seed);
    let requests: Vec<SimRequest> = lines
        .iter()
        .map(|line| SimRequest::from_json_line(line).expect("generated lines are valid"))
        .collect();
    let mut topologies: Vec<&str> = requests.iter().map(|r| r.topology.as_str()).collect();
    topologies.sort_unstable();
    topologies.dedup();
    let parse = now();
    for notation in &topologies {
        Topology::parse(notation).expect("generated topologies parse");
    }
    let end = now();
    let id = rec.push("topology.parse", Some(parent), parse, end);
    rec.count(id, "topologies", topologies.len() as f64);
    rec.close(parent);
    (lines, end.duration_since(start).as_secs_f64())
}

/// Runs `serve-mix` for `seed` for about `seconds` of timed passes. With
/// `traced`, passes alternate between untraced and traced ones, and the
/// outcome holds the per-layer metrics instead of the end-to-end ones.
pub fn run(seed: u64, seconds: f64, traced: bool, spans_out: &std::path::Path) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = if traced {
        Recorder::on()
    } else {
        Recorder::off()
    };

    // Warm-up: one iteration, checked but not a sample.
    let mut off = Recorder::off();
    let (mut lines, _) = set_up_burst(SETUP_BURST, || set_up(seed, &mut off));

    let shares = mix::shares(&lines);
    let networks: Vec<String> = shares
        .network
        .iter()
        .map(|(name, share)| format!("{name} {:.1} %", share * 100.0))
        .collect();
    out.note(format!(
        "serve-mix seed {seed}: {} lines, {CLIENTS} closed-loop clients on one warm cache; \
         repeat share {:.1} %; networks: {}; {SETUP_BURST} set-ups per iteration",
        lines.len(),
        shares.repeat * 100.0,
        networks.join(", ")
    ));

    let mut passes = vec![pass(&lines, &mut off)];
    let mut setup_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut pass_p50 = Vec::new();
    let mut pass_p95 = Vec::new();
    let mut busy_s = Vec::new();
    let start = now();
    for i in 0.. {
        let tracing = traced && i % 2 == 1;
        let rec = if tracing { &mut rec } else { &mut off };
        drop(std::mem::take(&mut lines));
        let (fresh, secs) = set_up_burst(SETUP_BURST, || set_up(seed, rec));
        lines = fresh;
        let p = pass(&lines, rec);
        if tracing {
            traced_s.push(p.wall_s);
            busy_s.push(p.latencies_ms.iter().sum::<f64>() / 1e3);
        } else {
            setup_s.push(secs);
            plain_s.push(p.wall_s);
            pass_p50.push(median(&p.latencies_ms));
            pass_p95.push(percentile(&p.latencies_ms, 95.0));
            latencies_ms.extend_from_slice(&p.latencies_ms);
        }
        passes.push(p);
        let enough = plain_s.len() >= MIN_PASSES && (!traced || traced_s.len() >= MIN_PASSES);
        if enough && since(start) >= seconds {
            break;
        }
    }
    // Read before the cold reference rows below, which are a check, not
    // part of the workload.
    let peak_rss = peak_rss_mb();
    let (reference, reference_s) = timed(|| cold_rows(&lines));
    out.note(format!(
        "cold reference rows: {} distinct lines in {reference_s:.2} s",
        reference.len()
    ));
    for p in &passes {
        for (line, got) in lines.iter().zip(&p.row_hashes) {
            out.attempted += 1;
            let expected = reference
                .get(line)
                .filter(|row| row.contains("\"ok\":true"));
            if expected.map(|row| digest(row)) != Some(*got) {
                out.failed += 1;
                if out.failed == 1 {
                    out.note(format!("WRONG ROW for {line}; cold row: {expected:?}"));
                }
            }
        }
    }
    // The cache totals of every pass must equal those of the last one,
    // which the per-layer metrics report; a pass that differs is a failure.
    let summary = passes.last().expect("the warm-up pass ran").summary;
    for p in &passes {
        if p.summary != summary {
            out.failed += 1;
            out.note(format!(
                "WRONG CACHE TOTALS: a pass had {}, the last one {summary}",
                p.summary
            ));
        }
    }
    out.note(format!("cache totals per pass: {summary}"));

    out.note(describe(
        "setup_s (median of each untraced burst)",
        "s",
        &setup_s,
    ));
    out.note(describe("wall_s (untraced pass)", "s", &plain_s));
    out.note(describe(
        "latency_p50_ms per untraced pass",
        "ms",
        &pass_p50,
    ));
    out.note(describe(
        "latency_p95_ms per untraced pass",
        "ms",
        &pass_p95,
    ));
    out.note(format!(
        "latency over all untraced passes: {} requests, p50 {:.4} ms, p95 {:.4} ms",
        latencies_ms.len(),
        median(&latencies_ms),
        percentile(&latencies_ms, 95.0)
    ));
    if !traced {
        out.set("wall_s", median(&plain_s));
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
        out.set("latency_p50_ms", median(&latencies_ms));
        out.set("latency_p95_ms", tail95(&latencies_ms));
        return out;
    }

    out.note(describe("wall_s (traced pass)", "s", &traced_s));
    // Counters of the simulations a pass really ran: one per distinct line.
    let simulated: Vec<&String> = reference.values().collect();
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    out.set("topology.parse_s", median(&rec.durations("topology.parse")));
    for name in [
        "workload.trace_gen_s",
        "workload.trace_nodes",
        "system.simulate_s",
        "system.us_per_collective",
        "network.ns_per_event",
    ] {
        out.set(name, 0.0);
    }
    let lowering_hits = row_sum(&simulated, &["cache", "lowering_hits"]);
    let lowering = lowering_hits + row_sum(&simulated, &["cache", "lowering_misses"]);
    out.set(
        "collectives.chunk_ops",
        row_sum(&simulated, &["collective_ops"]),
    );
    out.set(
        "collectives.lowering_hit_ratio",
        if lowering == 0.0 {
            0.0
        } else {
            lowering_hits / lowering
        },
    );
    out.set(
        "network.events",
        row_sum(&simulated, &["network", "events"]),
    );
    out.set(
        "network.messages",
        row_sum(&simulated, &["network", "messages"]),
    );
    out.set(
        "network.delay_memo_hits",
        row_sum(&simulated, &["network", "cache_hits"]),
    );
    out.set(
        "network.train_splits",
        row_sum(&simulated, &["network", "train_splits"]),
    );
    out.set(
        "serve.result_hit_ratio",
        ratio(summary.result_hits, summary.result_queries),
    );
    out.set(
        "serve.trace_hit_ratio",
        ratio(
            summary.trace_queries - summary.trace_entries,
            summary.trace_queries,
        ),
    );
    out.set("serve.delay_queries", summary.delay_queries as f64);
    out.set("serve.route_queries", summary.route_queries as f64);
    out.set("serve.busy_s", median(&busy_s));
    out.set("trace.overhead_s", median(&traced_s) - median(&plain_s));
    match rec.write_jsonl(spans_out) {
        Ok(()) => out.note(format!("spans written to {}", spans_out.display())),
        Err(e) => out.note(format!("spans not written to {}: {e}", spans_out.display())),
    }
    out
}
