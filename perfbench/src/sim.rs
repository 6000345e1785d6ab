//! The single-simulation workloads, `gpt3-hybrid-2k` and `packet-coll-64`.
//!
//! Every iteration sets the workload up — topology parse plus trace
//! generation, a few times in a row — and then calls `simulate_with` once
//! on the result, as one `astra` invocation does. One warm-up iteration
//! comes first; iterations then run until the run's time is up. Every
//! call's report is checked exactly against `expected.json`.

use astra_core::{
    simulate_with, CollectiveMode, NetworkBackendKind, Parallelism, SimReport, SystemConfig,
    Topology, WarmState,
};
use astra_workload::parallelism::generate_trace_with_threads;
use astra_workload::ExecutionTrace;

use crate::clock::{describe, median, now, peak_rss_mb, set_up_burst, since, tail95};
use crate::metrics::Outcome;
use crate::spans::Recorder;

/// One simulation workload: GPT-3 175B under hybrid parallelism.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// Workload name.
    pub name: &'static str,
    /// Topology notation.
    pub topology: &'static str,
    /// Model-parallel width.
    pub mp: usize,
    /// Network backend.
    pub network: NetworkBackendKind,
    /// Collective execution mode.
    pub collectives: CollectiveMode,
    /// Set-ups timed in a row in each iteration, about 0.3 s of them; the
    /// iteration's set-up time is their median.
    pub setup_burst: usize,
}

/// 2048 NPUs, analytical network, closed-form collectives: time goes to
/// the trace store and the engine's rendezvous bookkeeping.
pub const GPT3_HYBRID_2K: Case = Case {
    name: "gpt3-hybrid-2k",
    topology: "SW(64)@400_SW(32)@100",
    mp: 16,
    network: NetworkBackendKind::Analytical,
    collectives: CollectiveMode::Analytical,
    setup_burst: 2,
};

/// 64 NPUs, packet network, lowered collectives: time goes to lowering,
/// the chunk executor, the packet core and the event queue.
pub const PACKET_COLL_64: Case = Case {
    name: "packet-coll-64",
    topology: "R(8)@250_SW(8)@100",
    mp: 8,
    network: NetworkBackendKind::Packet,
    collectives: CollectiveMode::Backend,
    setup_burst: 60,
};

/// Fewest timed iterations per kind (untraced, traced) in one run.
const MIN_SAMPLES: usize = 3;

/// The simulated output a workload must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Simulated iteration time in picoseconds.
    pub total_ps: u64,
    /// Collectives issued.
    pub collectives: u64,
    /// Chunk operations the collectives were lowered to.
    pub chunk_ops: u64,
    /// Network-backend events.
    pub network_events: u64,
}

impl Expected {
    /// The expected output of workload `name`, from `expected.json`.
    pub fn of(name: &str) -> Option<Expected> {
        let doc = serde_json::parse(include_str!("../expected.json")).ok()?;
        let entry = doc.get(name)?;
        let field = |key: &str| entry.get(key).and_then(|v| v.as_u64());
        Some(Expected {
            total_ps: field("total_ps")?,
            collectives: field("collectives")?,
            chunk_ops: field("chunk_ops")?,
            network_events: field("network_events")?,
        })
    }

    fn of_report(report: &SimReport) -> Expected {
        Expected {
            total_ps: report.total_time.as_ps(),
            collectives: report.collectives,
            chunk_ops: report.collective_ops,
            network_events: report.network.events,
        }
    }
}

struct Setup {
    topo: Topology,
    trace: ExecutionTrace,
}

/// Parses the topology and generates the trace on one thread: with two,
/// a set-up waits for whichever thread the shared host slowed down.
fn set_up(case: &Case, rec: &mut Recorder) -> (Setup, f64) {
    let parent = rec.open("bench.setup", None);
    let start = now();
    let topo = Topology::parse(case.topology).expect("the workload's notation parses");
    let parsed = now();
    let trace = generate_trace_with_threads(
        &astra_core::models::gpt3_175b(),
        Parallelism::Hybrid { mp: case.mp },
        topo.npus(),
        1,
    )
    .expect("the workload's parallel shape fits its topology");
    let end = now();
    rec.push("topology.parse", Some(parent), start, parsed);
    let gen = rec.push("workload.generate_trace", Some(parent), parsed, end);
    rec.count(gen, "nodes", trace.total_nodes() as f64);
    rec.close(parent);
    (
        Setup { topo, trace },
        end.duration_since(start).as_secs_f64(),
    )
}

/// One timed `simulate_with` call, recorded as a span when `rec` is on.
fn simulate(setup: &Setup, config: &SystemConfig, rec: &mut Recorder) -> (Option<SimReport>, f64) {
    let start = now();
    let report = simulate_with(&setup.trace, &setup.topo, config, &WarmState::default()).ok();
    let end = now();
    let id = rec.push("system.simulate_with", None, start, end);
    if let Some(r) = &report {
        rec.count(id, "collectives", r.collectives as f64);
        rec.count(id, "chunk_ops", r.collective_ops as f64);
        rec.count(id, "network_events", r.network.events as f64);
        rec.count(id, "network_messages", r.network.messages as f64);
    }
    (report, end.duration_since(start).as_secs_f64())
}

/// One iteration: a burst of set-ups, then one `simulate_with` call on
/// the last one's trace.
struct Iteration {
    /// Median seconds of the burst's set-ups.
    setup_s: f64,
    /// Seconds of the `simulate_with` call.
    simulate_s: f64,
    report: Option<SimReport>,
    trace_nodes: usize,
}

fn iterate(case: &Case, config: &SystemConfig, rec: &mut Recorder) -> Iteration {
    let (setup, setup_s) = set_up_burst(case.setup_burst, || set_up(case, rec));
    let (report, simulate_s) = simulate(&setup, config, rec);
    Iteration {
        setup_s,
        simulate_s,
        report,
        trace_nodes: setup.trace.total_nodes(),
    }
}

/// Runs workload `case` for about `seconds` of timed iterations. With
/// `traced`, iterations alternate between untraced and traced ones, and
/// the outcome holds the per-layer metrics instead of the end-to-end ones.
pub fn run(case: &Case, seconds: f64, traced: bool, spans_out: &std::path::Path) -> Outcome {
    let expected = Expected::of(case.name).expect("expected.json pins every simulation workload");
    let config = SystemConfig {
        network_backend: case.network,
        collective_mode: case.collectives,
        ..SystemConfig::default()
    };
    let mut out = Outcome::default();
    out.note(format!(
        "{}: GPT-3 175B, hybrid MP{} on {}, {:?} network, {:?} collectives; \
         {} set-ups per iteration; trace generation and simulator single-threaded",
        case.name, case.mp, case.topology, case.network, case.collectives, case.setup_burst
    ));

    let mut rec = if traced {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let mut off = Recorder::off();
    let check = |report: Option<SimReport>, out: &mut Outcome| -> Option<SimReport> {
        out.attempted += 1;
        let got = report.as_ref().map(Expected::of_report);
        if got != Some(expected) {
            out.failed += 1;
            if out.failed == 1 {
                out.note(format!(
                    "WRONG OUTPUT: expected {expected:?}, simulated {got:?}"
                ));
            }
        }
        report
    };

    // Warm-up: caches and allocator settle; not a sample.
    let warm = iterate(case, &config, &mut off);
    let trace_nodes = warm.trace_nodes;
    let last = check(warm.report, &mut out);

    let mut setup_s = Vec::new();
    let mut plain = Vec::new();
    let mut with_spans = Vec::new();
    let start = now();
    for i in 0.. {
        let tracing = traced && i % 2 == 1;
        let rec = if tracing { &mut rec } else { &mut off };
        let it = iterate(case, &config, rec);
        check(it.report, &mut out);
        if tracing {
            with_spans.push(it.simulate_s);
        } else {
            setup_s.push(it.setup_s);
            plain.push(it.simulate_s);
        }
        let enough = plain.len() >= MIN_SAMPLES && (!traced || with_spans.len() >= MIN_SAMPLES);
        if enough && since(start) >= seconds {
            break;
        }
    }

    out.note(describe(
        "setup_s (median of each untraced burst)",
        "s",
        &setup_s,
    ));
    out.note(describe("wall_s (untraced simulate_with)", "s", &plain));
    if !traced {
        out.set("wall_s", median(&plain));
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        out.set("latency_p50_ms", median(&plain) * 1e3);
        out.set("latency_p95_ms", tail95(&plain) * 1e3);
        return out;
    }

    out.note(describe("wall_s (traced simulate_with)", "s", &with_spans));
    let report = last.expect("the warm-up call succeeded");
    let simulate_s = median(&rec.durations("system.simulate_with"));
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let lowering = report.cache.lowering_hits + report.cache.lowering_misses;
    out.set("topology.parse_s", median(&rec.durations("topology.parse")));
    out.set(
        "workload.trace_gen_s",
        median(&rec.durations("workload.generate_trace")),
    );
    out.set("workload.trace_nodes", trace_nodes as f64);
    out.set("system.simulate_s", simulate_s);
    out.set(
        "system.us_per_collective",
        per(simulate_s * 1e6, report.collectives),
    );
    out.set("collectives.chunk_ops", report.collective_ops as f64);
    out.set(
        "collectives.lowering_hit_ratio",
        per(report.cache.lowering_hits as f64, lowering),
    );
    out.set("network.events", report.network.events as f64);
    out.set("network.messages", report.network.messages as f64);
    out.set(
        "network.ns_per_event",
        per(simulate_s * 1e9, report.network.events),
    );
    out.set("network.delay_memo_hits", report.network.cache_hits as f64);
    out.set("network.train_splits", report.network.train_splits as f64);
    for name in [
        "serve.result_hit_ratio",
        "serve.trace_hit_ratio",
        "serve.delay_queries",
        "serve.route_queries",
        "serve.busy_s",
    ] {
        out.set(name, 0.0);
    }
    out.set("trace.overhead_s", median(&with_spans) - median(&plain));
    match rec.write_jsonl(spans_out) {
        Ok(()) => out.note(format!("spans written to {}", spans_out.display())),
        Err(e) => out.note(format!("spans not written to {}: {e}", spans_out.display())),
    }
    out
}
