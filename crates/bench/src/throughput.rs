//! The sweep: [`SERIES`], the table of every runnable series, plus the
//! simulation-throughput runners behind its default rows — parallel trace
//! generation vs the naive serial baseline, train-batched packet transport
//! vs per-packet simulation, and the other hot paths behind the paper's
//! §IV-C claim that hierarchical systems at 512–1024 NPUs stay cheap to
//! simulate. The paper experiment series live in their own modules.
//!
//! `astra sweep` runs the table and writes the rows to a machine-readable
//! JSON report. `BENCH_throughput.json`, the repo's performance trajectory
//! record, holds every series: regenerate it with `--series` listing all
//! of them, because plain `astra sweep` runs only the default ones.

use astra_core::{
    experiments, simulate, simulate_traced, Collective, CollectiveMode, DataSize, FaultKind,
    FaultSchedule, NetworkBackendKind, SystemConfig, Time, Topology,
};
use astra_garnet::{
    collective_time, collective_time_on, PacketNetwork, PacketSimConfig, TransportMode,
};
use astra_serve::{execute_once, run_batch, SimRequest, WarmCache};
use astra_workload::parallelism::{
    generate_disaggregated_moe, generate_disaggregated_moe_reference, generate_trace,
    generate_trace_reference, OffloadPlan,
};
use astra_workload::{models, EtOp, ExecutionTrace, NodeId, Parallelism, TraceBuilder};
use serde::{Serialize, Value};
use std::io::{self, Write};
use std::time::Instant;

/// One trace-generation measurement: the memoizing (flyweight) generator
/// vs the frozen serial reference on the same workload.
#[derive(Clone, Debug, Serialize)]
pub struct TraceGenRow {
    /// Workload label (model + strategy).
    pub workload: String,
    /// NPUs the trace targets.
    pub npus: usize,
    /// Total ET nodes built (identical for both paths by construction).
    pub total_nodes: usize,
    /// Wall-clock of the naive serial baseline (ms, best of N).
    pub serial_ms: f64,
    /// Wall-clock of the memoizing path (ms, best of N). The key keeps its
    /// old name so that committed reports keep their schema.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// One packet-transport scale measurement: the identical `garnet_like`
/// (256 B) All-Reduce under per-packet and train-batched transport. The
/// runner asserts the finish times are bit-identical — the row records how
/// many events (and how much wall-clock) each mode pays for it.
#[derive(Clone, Debug, Serialize)]
pub struct PacketScaleRow {
    /// Topology notation.
    pub topology: String,
    /// NPUs in the topology.
    pub npus: usize,
    /// All-Reduce payload in MiB.
    pub payload_mib: u64,
    /// Simulated completion in µs (identical across transports).
    pub finish_us: f64,
    /// Events popped by per-packet transport (`packets × hops`).
    pub per_packet_events: u64,
    /// Events popped by batched transport (`~hops` per message).
    pub batched_events: u64,
    /// `batched_events / per_packet_events` (CI gates this at ≤ 5 % for
    /// the 128-NPU case).
    pub event_ratio: f64,
    /// Wall-clock of per-packet transport (ms, best of N).
    pub per_packet_ms: f64,
    /// Wall-clock of batched transport (ms, best of N).
    pub batched_ms: f64,
    /// `per_packet_ms / batched_ms`.
    pub speedup: f64,
}

/// One engine-NetworkAPI measurement: the same p2p-heavy workload driven
/// through the async `send_async`/callback path (one co-resident backend on
/// the engine's clock) and the blocking-p2p oracle (the same engine path
/// against a probe backend: one fresh backend sub-simulation + `p2p_delay`
/// probe per message). The runner asserts the
/// simulated results match bit-identically on the non-overlapping
/// deep-pipeline workload and that contention only lengthens the MoE
/// all-to-all under the async path.
#[derive(Clone, Debug, Serialize)]
pub struct EngineP2pRow {
    /// Workload label (`deep-pipeline` / `moe-alltoall`).
    pub workload: String,
    /// Topology notation.
    pub topology: String,
    /// NPUs in the topology.
    pub npus: usize,
    /// Network backend kind under test.
    pub backend: String,
    /// Peer-to-peer messages the engine delivered.
    pub p2p_messages: u64,
    /// Backend instances built by the blocking path (== messages).
    pub blocking_setups: u64,
    /// Backend instances built by the async path (== 1).
    pub async_setups: u64,
    /// Backend-internal events processed by the blocking path.
    pub blocking_net_events: u64,
    /// Backend-internal events processed by the async path.
    pub async_net_events: u64,
    /// Wall-clock of the blocking reference (ms, best of N).
    pub blocking_ms: f64,
    /// Wall-clock of the async path (ms, best of N).
    pub async_ms: f64,
    /// `blocking_ms / async_ms`.
    pub speedup: f64,
}

/// One backend-collective measurement: the identical chunked world
/// All-Reduce priced by the closed-form collective engine
/// (`CollectiveMode::Analytical`) and executed as a chunk-level send/recv
/// program on the network backend (`CollectiveMode::Backend`). The runner
/// asserts the two finishes agree within the documented modeling deltas on
/// these uncongested switch topologies — the row records what the fidelity
/// costs: backend events, chunk ops, and wall-clock.
#[derive(Clone, Debug, Serialize)]
pub struct CollectiveBackendRow {
    /// Topology notation.
    pub topology: String,
    /// NPUs in the topology.
    pub npus: usize,
    /// All-Reduce payload in MiB.
    pub payload_mib: u64,
    /// Pipeline chunks the payload splits into.
    pub chunks: u64,
    /// Network backend executing the lowered program.
    pub backend: String,
    /// Chunk-level send/recv ops the program decomposed into.
    pub collective_ops: u64,
    /// Simulated finish under the closed form (µs).
    pub analytical_us: f64,
    /// Simulated finish under backend execution (µs).
    pub backend_us: f64,
    /// `backend_us / analytical_us` (gated near 1.0 on the 64-NPU case).
    pub finish_ratio: f64,
    /// Backend-internal events the execution processed (zero under the
    /// closed form, which never touches the backend).
    pub backend_net_events: u64,
    /// Wall-clock of the closed-form mode (ms, best of N).
    pub analytical_ms: f64,
    /// Wall-clock of backend execution (ms, best of N).
    pub backend_ms: f64,
}

/// One packet-core measurement: the identical per-packet All-Reduce on
/// the global-heap reference ([`PacketNetwork::global_heap_reference`])
/// and on the production core, whose per-link lanes merge in the
/// reference's exact `(time, seq)` order. The runner asserts finish time
/// and event count are bit-identical — the row records the wall-clock the
/// lanes save over one global heap.
#[derive(Clone, Debug, Serialize)]
pub struct PacketCoreRow {
    /// Topology notation.
    pub topology: String,
    /// NPUs in the topology.
    pub npus: usize,
    /// All-Reduce payload in MiB.
    pub payload_mib: u64,
    /// Simulated completion in µs (identical on both cores).
    pub finish_us: f64,
    /// Events processed (identical on both cores).
    pub events: u64,
    /// Wall-clock of the global-heap reference (ms, best of N).
    pub reference_ms: f64,
    /// Wall-clock of the laned production core (ms, best of N).
    pub laned_ms: f64,
    /// `reference_ms / laned_ms` (CI gates this at ≥ 1.5 for the 512-NPU
    /// case).
    pub speedup: f64,
}

/// One batch-service measurement: a mixed repeated request sweep executed
/// fully cold (fresh caches for every request) and replayed against the
/// `astra serve` cross-request warm caches. The runner asserts the warm
/// replay's response rows are byte-identical to a cold sequential batch
/// before timing anything — the row records what the cache layer saves.
#[derive(Clone, Debug, Serialize)]
pub struct ServeThroughputRow {
    /// Scenario label.
    pub scenario: String,
    /// Distinct requests in the sweep.
    pub distinct: usize,
    /// Total requests per batch (distinct × repeats).
    pub requests: usize,
    /// Worker threads of the batch pool.
    pub workers: usize,
    /// Wall-clock of the cold path: every request executed with fresh
    /// caches, sequentially (ms, best of N).
    pub cold_ms: f64,
    /// Wall-clock of a warm replay of the same batch (ms, best of N).
    pub warm_ms: f64,
    /// `cold_ms / warm_ms` (CI gates this at ≥ 5 on the quick sweep).
    pub speedup: f64,
    /// Sustained cold throughput (requests/second).
    pub cold_req_per_s: f64,
    /// Sustained warm throughput (requests/second).
    pub warm_req_per_s: f64,
}

/// One fault-injection measurement: the same workload simulated fault-free
/// and under a deterministic [`FaultSchedule`], on one network backend. The
/// runner asserts the faulted run is never faster than the fault-free
/// baseline and that every fault event shows up in the report's
/// per-fault attribution.
#[derive(Clone, Debug, Serialize)]
pub struct FaultInjectionRow {
    /// Fault scenario label (e.g. `"link-degrade bw=50%"`).
    pub scenario: String,
    /// Topology notation.
    pub topology: String,
    /// NPUs in the topology.
    pub npus: usize,
    /// Network backend kind under test.
    pub backend: String,
    /// Fault-free simulated finish (µs).
    pub baseline_us: f64,
    /// Faulted simulated finish (µs).
    pub faulted_us: f64,
    /// `faulted_us / baseline_us` (>= 1 by the runner's assertion).
    pub slowdown: f64,
    /// Events in the injected fault schedule.
    pub fault_events: usize,
    /// Total affected entities over the report's fault attribution
    /// (link directions killed/degraded, compute ops stretched).
    pub affected: u64,
    /// Total attributed extra simulated time over all faults (µs).
    pub extra_us: f64,
    /// Wall-clock of the fault-free run (ms, best of N).
    pub baseline_ms: f64,
    /// Wall-clock of the faulted run (ms, best of N).
    pub faulted_ms: f64,
}

/// One telemetry-overhead measurement: the same simulation executed
/// plain ([`simulate`]), through the traced entry point with telemetry
/// off (`simulate_traced` on a default config — the production default),
/// and with full recording plus trace assembly on. The disabled path is
/// the zero-cost-when-off guarantee: the runner asserts its report is
/// bit-identical to the plain run's, and CI gates its wall-clock
/// overhead at <= 2% (measurement noise).
#[derive(Clone, Debug, Serialize)]
pub struct TraceOverheadRow {
    /// Scenario label.
    pub scenario: String,
    /// NPUs in the topology.
    pub npus: usize,
    /// Wall-clock of the plain `simulate` run (ms, best of N).
    pub base_ms: f64,
    /// Wall-clock through `simulate_traced` with telemetry off (ms,
    /// best of N).
    pub disabled_ms: f64,
    /// Wall-clock with recording and trace assembly on (ms, best of N).
    pub enabled_ms: f64,
    /// Disabled-path overhead over the plain run, in percent: the best
    /// (lowest) per-rep back-to-back ratio, unclamped — noise around a
    /// zero-cost path can make it negative.
    pub overhead_pct: f64,
    /// Recording-path overhead over the plain run, in percent (same
    /// best-of-ratios estimator, unclamped).
    pub enabled_overhead_pct: f64,
}

/// One runnable series: a row of [`SERIES`].
#[derive(Debug)]
pub struct Series {
    /// Name accepted by `astra sweep --series`.
    pub name: &'static str,
    /// Key of the series' row array in the JSON report (the name in
    /// snake_case; `trace-gen` keeps its historical `trace_generation`).
    pub key: &'static str,
    /// Whether a sweep without `--series` runs it.
    pub default: bool,
    /// Runs the series at quick (`true`) or full size and returns its
    /// JSON rows and its table.
    pub run: fn(bool) -> (Vec<Value>, String),
}

/// Series are identified by name (names are unique in [`SERIES`]).
impl PartialEq for Series {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for Series {}

/// Every benchmark and paper-experiment series, in report order. This
/// table drives `--series` parsing, the JSON report, the printed tables
/// and the `astra sweep --help` series list. The default sweep (the
/// committed `BENCH_throughput.json`) runs the throughput series; the
/// paper experiments are opt-in.
pub const SERIES: &[Series] = &[
    Series {
        name: "trace-gen",
        key: "trace_generation",
        default: true,
        run: |quick| crate::emit(&run_trace_generation(quick), render_trace_generation),
    },
    Series {
        name: "packet-scale",
        key: "packet_scale",
        default: true,
        run: |quick| crate::emit(&run_packet_scale(quick), render_packet_scale),
    },
    Series {
        name: "engine-p2p",
        key: "engine_p2p",
        default: true,
        run: |quick| crate::emit(&run_engine_p2p(quick), render_engine_p2p),
    },
    Series {
        name: "collective-backend",
        key: "collective_backend",
        default: true,
        run: |quick| crate::emit(&run_collective_backend(quick), render_collective_backend),
    },
    Series {
        name: "packet-core",
        key: "packet_core",
        default: true,
        run: |quick| crate::emit(&run_packet_core(quick), render_packet_core),
    },
    Series {
        name: "serve-throughput",
        key: "serve_throughput",
        default: true,
        run: |quick| crate::emit(&run_serve_throughput(quick), render_serve_throughput),
    },
    Series {
        name: "fault-injection",
        key: "fault_injection",
        default: true,
        run: |quick| crate::emit(&run_fault_injection(quick), render_fault_injection),
    },
    Series {
        name: "trace-overhead",
        key: "trace_overhead",
        default: true,
        run: |quick| crate::emit(&run_trace_overhead(quick), render_trace_overhead),
    },
    Series {
        name: "fig4",
        key: "fig4",
        default: false,
        run: crate::fig4::series,
    },
    Series {
        name: "fig9a",
        key: "fig9a",
        default: false,
        run: crate::fig9a::series,
    },
    Series {
        name: "fig9b",
        key: "fig9b",
        default: false,
        run: crate::fig9b::series,
    },
    Series {
        name: "table4",
        key: "table4",
        default: false,
        run: crate::table4::series,
    },
    Series {
        name: "fig11",
        key: "fig11",
        default: false,
        run: crate::fig11::series,
    },
    Series {
        name: "table5",
        key: "table5",
        default: false,
        run: crate::table5::series,
    },
    Series {
        name: "table2",
        key: "table2",
        default: false,
        run: crate::table2::series,
    },
    Series {
        name: "table3",
        key: "table3",
        default: false,
        run: crate::table3::series,
    },
    Series {
        name: "speedup",
        key: "speedup",
        default: false,
        run: crate::speedup::series,
    },
    Series {
        name: "ablations",
        key: "ablations",
        default: false,
        run: crate::ablations::series,
    },
];

/// The series a sweep without `--series` runs.
pub fn default_series() -> Vec<&'static Series> {
    SERIES.iter().filter(|s| s.default).collect()
}

/// Parses a comma-separated `--series` list into [`SERIES`] rows.
///
/// # Errors
///
/// Returns the first unknown name back as the error.
pub fn parse_series(list: &str) -> Result<Vec<&'static Series>, String> {
    list.split(',')
        .filter(|name| !name.is_empty())
        .map(|name| {
            SERIES
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| name.to_owned())
        })
        .collect()
}

/// Runs the `selection` series in [`SERIES`] order, writing each table to
/// `out` as soon as its series finishes, and returns the report:
/// `generated_by`, `threads_available`, then every series key in table
/// order (unselected series as empty arrays). `quick` shrinks payloads
/// and scales for CI smoke jobs.
///
/// # Errors
///
/// Stops at the first failed write to `out` and returns its error.
pub fn run(quick: bool, selection: &[&Series], out: &mut dyn Write) -> io::Result<Value> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    writeln!(out, "astra sweep ({threads} thread(s) available)")?;
    let mut report = vec![
        (
            "generated_by".to_owned(),
            "astra-bench throughput".to_value(),
        ),
        ("threads_available".to_owned(), threads.to_value()),
    ];
    for series in SERIES {
        let rows = if selection.contains(&series) {
            let (rows, table) = (series.run)(quick);
            write!(out, "\n{table}")?;
            rows
        } else {
            Vec::new()
        };
        report.push((series.key.to_owned(), Value::Array(rows)));
    }
    Ok(Value::Object(report))
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds, with the last result.
// Sanctioned wall-clock use: throughput rows report host runtime.
#[allow(clippy::disallowed_methods)]
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("at least one rep"))
}

fn gen_row(
    label: &str,
    npus: usize,
    reps: usize,
    serial: impl Fn() -> ExecutionTrace,
    parallel: impl Fn() -> ExecutionTrace,
) -> TraceGenRow {
    let (serial_ms, reference) = best_ms(reps, &serial);
    let (parallel_ms, fast) = best_ms(reps, &parallel);
    assert_eq!(reference, fast, "memoizing generator diverged on {label}");
    TraceGenRow {
        workload: label.to_owned(),
        npus,
        total_nodes: fast.total_nodes(),
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms.max(1e-9),
    }
}

/// Trace-generation comparison across the Fig. 9 workload families at 64
/// and 512 NPUs (1024 in full mode, covering the §IV-C upper scale).
pub fn run_trace_generation(quick: bool) -> Vec<TraceGenRow> {
    let reps = if quick { 1 } else { 3 };
    let gpt3 = models::gpt3_175b();
    let dlrm = models::dlrm_57m();
    let moe = models::moe_1t();
    let mut rows = Vec::new();

    let sizes: &[usize] = if quick { &[64] } else { &[64, 512] };
    for &npus in sizes {
        rows.push(gen_row(
            "dlrm-data-parallel",
            npus,
            reps,
            || generate_trace_reference(&dlrm, Parallelism::Data, npus).unwrap(),
            || generate_trace(&dlrm, Parallelism::Data, npus).unwrap(),
        ));
        rows.push(gen_row(
            "gpt3-fsdp",
            npus,
            reps,
            || generate_trace_reference(&gpt3, Parallelism::FullyShardedData, npus).unwrap(),
            || generate_trace(&gpt3, Parallelism::FullyShardedData, npus).unwrap(),
        ));
        rows.push(gen_row(
            "moe-disaggregated",
            npus,
            reps,
            || generate_disaggregated_moe_reference(&moe, npus, &OffloadPlan::default()).unwrap(),
            || generate_disaggregated_moe(&moe, npus, &OffloadPlan::default()).unwrap(),
        ));
        rows.push(gen_row(
            "gpt3-hybrid-mp16",
            npus,
            reps,
            || generate_trace_reference(&gpt3, Parallelism::Hybrid { mp: 16 }, npus).unwrap(),
            || generate_trace(&gpt3, Parallelism::Hybrid { mp: 16 }, npus).unwrap(),
        ));
    }
    if !quick {
        // The paper's upper speedup-study scale.
        rows.push(gen_row(
            "gpt3-fsdp",
            1024,
            reps,
            || generate_trace_reference(&gpt3, Parallelism::FullyShardedData, 1024).unwrap(),
            || generate_trace(&gpt3, Parallelism::FullyShardedData, 1024).unwrap(),
        ));
    }
    rows
}

fn packet_scale_row(notation: &str, payload_mib: u64, reps: usize) -> PacketScaleRow {
    let topo = Topology::parse(notation).expect("valid notation");
    let size = DataSize::from_mib(payload_mib);
    let config = PacketSimConfig::garnet_like();
    let (per_packet_ms, per_packet) = best_ms(reps, || {
        collective_time(
            &topo,
            size,
            &config.with_transport(TransportMode::PerPacket),
        )
    });
    let (batched_ms, batched) = best_ms(reps, || {
        collective_time(&topo, size, &config.with_transport(TransportMode::Batched))
    });
    assert_eq!(
        per_packet.finish, batched.finish,
        "transports diverged on {notation}"
    );
    assert_eq!(per_packet.messages, batched.messages);
    PacketScaleRow {
        topology: notation.to_owned(),
        npus: topo.npus(),
        payload_mib,
        finish_us: per_packet.finish.as_us_f64(),
        per_packet_events: per_packet.events,
        batched_events: batched.events,
        event_ratio: batched.events as f64 / per_packet.events as f64,
        per_packet_ms,
        batched_ms,
        speedup: per_packet_ms / batched_ms.max(1e-9),
    }
}

/// Transport-scale comparison: the §IV-C `garnet_like` granularity at the
/// scales where per-packet simulation was the cost ceiling (ROADMAP
/// "Packet backend scale"). Quick mode runs the 128-NPU case the CI gate
/// checks; full mode extends to 256 and 512 NPUs.
pub fn run_packet_scale(quick: bool) -> Vec<PacketScaleRow> {
    let reps = if quick { 1 } else { 3 };
    let mut rows = vec![packet_scale_row("R(16)@100_R(8)@100", 1, reps)];
    if !quick {
        rows.push(packet_scale_row("R(16)@100_R(16)@100", 1, reps));
        rows.push(packet_scale_row("R(8)@100_R(8)@100_R(8)@50", 1, reps));
    }
    rows
}

fn packet_core_row(notation: &str, payload_mib: u64, reps: usize) -> PacketCoreRow {
    let topo = Topology::parse(notation).expect("valid notation");
    let size = DataSize::from_mib(payload_mib);
    let config = PacketSimConfig::garnet_like().with_transport(TransportMode::PerPacket);
    let (reference_ms, reference) = best_ms(reps, || {
        let network = PacketNetwork::global_heap_reference(&topo, config);
        collective_time_on(network, &topo, Collective::AllReduce, size)
    });
    let (laned_ms, laned) = best_ms(reps, || collective_time(&topo, size, &config));
    assert_eq!(
        reference.finish, laned.finish,
        "laned core diverged on {notation}"
    );
    assert_eq!(
        reference.events, laned.events,
        "laned core processed a different event count on {notation}"
    );
    PacketCoreRow {
        topology: notation.to_owned(),
        npus: topo.npus(),
        payload_mib,
        finish_us: reference.finish.as_us_f64(),
        events: reference.events,
        reference_ms,
        laned_ms,
        speedup: reference_ms / laned_ms.max(1e-9),
    }
}

/// Packet-core comparison: the identical `garnet_like` per-packet
/// All-Reduce on the global-heap reference and on the laned production
/// core, asserted bit-identical. Quick mode runs the 512-NPU case the CI
/// gate checks (≥ 1.5×); full mode adds the smaller scales.
pub fn run_packet_core(quick: bool) -> Vec<PacketCoreRow> {
    let reps = if quick { 1 } else { 3 };
    let mut rows = vec![packet_core_row("R(8)@100_R(8)@100_R(8)@50", 1, reps)];
    if !quick {
        rows.push(packet_core_row("R(16)@100_R(8)@100", 1, reps));
        rows.push(packet_core_row("R(16)@100_R(16)@100", 1, reps));
    }
    rows
}

fn serve_throughput_row(
    scenario: &str,
    distinct: &[&str],
    repeats: usize,
    workers: usize,
) -> ServeThroughputRow {
    // Best-of-3 on each side, so one slow pass does not swing the ratio.
    let reps = 3;
    let batch: Vec<String> = (0..repeats)
        .flat_map(|_| distinct.iter().map(|s| (*s).to_owned()))
        .collect();
    let requests: Vec<SimRequest> = batch
        .iter()
        .map(|line| SimRequest::from_json_line(line).expect("bench request parses"))
        .collect();
    // Determinism first: a cold sequential batch is the pinned reference;
    // the concurrent warm replay must reproduce its rows byte-for-byte.
    let (reference, _) = run_batch(&batch, 1, &WarmCache::new());
    let cache = WarmCache::new();
    let (primed, _) = run_batch(&batch, workers, &cache);
    assert_eq!(primed, reference, "priming pass diverged on {scenario}");
    let (cold_ms, cold_reports) = best_ms(reps, || {
        requests
            .iter()
            .map(|req| execute_once(req).expect("bench request runs"))
            .collect::<Vec<_>>()
    });
    assert_eq!(cold_reports.len(), batch.len());
    let (warm_ms, replay) = best_ms(reps, || run_batch(&batch, workers, &cache).0);
    assert_eq!(replay, reference, "warm replay diverged on {scenario}");
    ServeThroughputRow {
        scenario: scenario.to_owned(),
        distinct: distinct.len(),
        requests: batch.len(),
        workers,
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
        cold_req_per_s: batch.len() as f64 / (cold_ms / 1e3).max(1e-9),
        warm_req_per_s: batch.len() as f64 / (warm_ms / 1e3).max(1e-9),
    }
}

/// The mixed repeated sweep behind the `serve-throughput` series: every
/// execution path the batch service caches (analytical delay memo, fluid
/// routes, backend-collective lowering, trace generation, whole-report
/// memoization) appears at least once.
const SERVE_MIXED_SWEEP: [&str; 8] = [
    r#"{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4}"#,
    r#"{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4, "chunks": 64}"#,
    r#"{"topology": "SW(8)@400", "all_reduce_mib": 64}"#,
    r#"{"topology": "SW(16)@400", "all_reduce_mib": 256}"#,
    r#"{"topology": "R(4)@100_SW(4)@50", "workload": "dlrm"}"#,
    r#"{"topology": "SW(8)@100_SW(2)@50", "all_reduce_mib": 64, "collectives": "backend", "chunks": 8}"#,
    r#"{"topology": "R(5)@200_SW(2)@25", "all_reduce_mib": 32, "network": "flow"}"#,
    r#"{"topology": "SW(8)@400", "workload": "gpt3", "fsdp": true}"#,
];

/// Warm-vs-cold batch service comparison (the `astra serve` cache layer):
/// a mixed repeated request sweep executed fully cold and replayed against
/// warm cross-request caches, rows asserted byte-identical. Quick mode
/// runs the 3× repeat the CI gate checks (≥ 5× warm-over-cold); full mode
/// extends the repeat factor and adds the memory/scheduler sweep.
pub fn run_serve_throughput(quick: bool) -> Vec<ServeThroughputRow> {
    let mut rows = vec![serve_throughput_row(
        "mixed-sweep x3",
        &SERVE_MIXED_SWEEP,
        3,
        4,
    )];
    if !quick {
        rows.push(serve_throughput_row(
            "mixed-sweep x16",
            &SERVE_MIXED_SWEEP,
            16,
            8,
        ));
        rows.push(serve_throughput_row(
            "memory-and-scheduler x8",
            &[
                r#"{"topology": "SW(16)@256_SW(16)@100", "workload": "moe", "memory": "hiermem-opt"}"#,
                r#"{"topology": "SW(16)@256_SW(16)@100", "workload": "moe", "memory": "zero-infinity"}"#,
                r#"{"topology": "SW(8)@400", "workload": "gpt3", "themis": true}"#,
            ],
            8,
            4,
        ));
    }
    rows
}

fn fault_injection_row(
    scenario: &str,
    notation: &str,
    backend: NetworkBackendKind,
    trace: &ExecutionTrace,
    faults: &FaultSchedule,
    reps: usize,
) -> FaultInjectionRow {
    let topo = Topology::parse(notation).expect("valid notation");
    let config = |faults: FaultSchedule| SystemConfig {
        network_backend: backend,
        faults,
        ..SystemConfig::default()
    };
    let (baseline_ms, baseline) = best_ms(reps, || {
        simulate(trace, &topo, &config(FaultSchedule::new())).expect("fault-free baseline runs")
    });
    let (faulted_ms, faulted) = best_ms(reps, || {
        simulate(trace, &topo, &config(faults.clone())).expect("faulted scenario stays routable")
    });
    assert!(
        baseline.faults.is_empty(),
        "fault-free run attributes no faults"
    );
    assert_eq!(
        faulted.faults.len(),
        faults.len(),
        "every injected fault appears in the attribution ({scenario})"
    );
    assert!(
        faulted.total_time >= baseline.total_time,
        "a fault must not speed up {scenario} on {}",
        backend.name()
    );
    let baseline_us = baseline.total_time.as_us_f64();
    let faulted_us = faulted.total_time.as_us_f64();
    FaultInjectionRow {
        scenario: scenario.to_owned(),
        topology: notation.to_owned(),
        npus: topo.npus(),
        backend: backend.name().to_owned(),
        baseline_us,
        faulted_us,
        slowdown: faulted_us / baseline_us.max(1e-9),
        fault_events: faults.len(),
        affected: faulted.faults.iter().map(|f| f.affected).sum(),
        extra_us: faulted
            .faults
            .iter()
            .map(|f| f.extra_time.as_us_f64())
            .sum(),
        baseline_ms,
        faulted_ms,
    }
}

/// Deterministic fault injection vs the fault-free baseline: a p2p
/// deep-pipeline under a half-bandwidth link and under a dead link
/// (traffic rerouted the long way around the ring) on every network
/// backend, the 64 MiB ring All-Reduce under a degraded link (collective
/// lowering on degraded dimensions), and a 2× compute straggler. Quick
/// mode keeps the closed-form backends; full mode adds the packet-level
/// ones.
pub fn run_fault_injection(quick: bool) -> Vec<FaultInjectionRow> {
    let reps = if quick { 1 } else { 3 };
    let backends: &[NetworkBackendKind] = if quick {
        &[NetworkBackendKind::Analytical, NetworkBackendKind::Flow]
    } else {
        &NetworkBackendKind::ALL
    };
    let mut degrade = FaultSchedule::new();
    degrade.push(
        Time::ZERO,
        FaultKind::LinkDegrade {
            src: 0,
            dst: 1,
            bandwidth_pct: 50,
            latency_x: 1,
        },
    );
    let mut link_down = FaultSchedule::new();
    link_down.push(Time::ZERO, FaultKind::LinkDown { src: 0, dst: 1 });
    let pipeline = deep_pipeline_trace(8, 4, DataSize::from_mib(1));
    let mut rows = Vec::new();
    for &backend in backends {
        rows.push(fault_injection_row(
            "p2p link-degrade bw=50%",
            "R(8)@100",
            backend,
            &pipeline,
            &degrade,
            reps,
        ));
        rows.push(fault_injection_row(
            "p2p link-down reroute",
            "R(8)@100",
            backend,
            &pipeline,
            &link_down,
            reps,
        ));
    }
    let all_reduce = experiments::all_reduce_trace(8, DataSize::from_mib(64));
    rows.push(fault_injection_row(
        "collective link-degrade bw=50%",
        "R(8)@100",
        NetworkBackendKind::Analytical,
        &all_reduce,
        &degrade,
        reps,
    ));
    let mut straggler = FaultSchedule::new();
    straggler.push(
        Time::ZERO,
        FaultKind::NpuSlowdown {
            npu: 0,
            slowdown_pct: 200,
        },
    );
    rows.push(fault_injection_row(
        "npu-straggler 2x",
        "R(8)@100",
        NetworkBackendKind::Analytical,
        &pipeline,
        &straggler,
        reps,
    ));
    rows
}

fn trace_overhead_row(
    scenario: &str,
    notation: &str,
    config: &SystemConfig,
    trace: &ExecutionTrace,
    reps: usize,
) -> TraceOverheadRow {
    let topo = Topology::parse(notation).expect("valid notation");
    let mut traced_config = config.clone();
    traced_config.telemetry = true;
    // Comparing a path against itself (the disabled sink is one branch)
    // needs aggressive noise control: each timed sample batches `INNER`
    // simulations so millisecond-scale scheduler bursts amortize; the
    // base and disabled samples alternate order across reps so position
    // bias (frequency decay, allocator state) cancels; and the gated
    // overhead is the *best* per-rep back-to-back ratio — a real
    // regression inflates every rep's ratio, while noise needs to hit
    // all `reps` pairs to produce a false positive.
    const INNER: usize = 8;
    let mut base_ms = f64::INFINITY;
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    let mut best_disabled_ratio = f64::INFINITY;
    let mut best_enabled_ratio = f64::INFINITY;
    let mut runs = None;
    for rep in 0..reps.max(1) {
        let base_batch = || {
            let mut last = None;
            for _ in 0..INNER {
                last = Some(simulate(trace, &topo, config).expect("plain run"));
            }
            last.expect("at least one inner run")
        };
        let disabled_batch = || {
            let mut last = None;
            for _ in 0..INNER {
                last = Some(
                    simulate_traced(trace, &topo, config)
                        .0
                        .expect("disabled-sink run"),
                );
            }
            last.expect("at least one inner run")
        };
        let (b_ms, base, d_ms, disabled) = if rep % 2 == 0 {
            let (b_ms, base) = best_ms(1, base_batch);
            let (d_ms, disabled) = best_ms(1, disabled_batch);
            (b_ms, base, d_ms, disabled)
        } else {
            let (d_ms, disabled) = best_ms(1, disabled_batch);
            let (b_ms, base) = best_ms(1, base_batch);
            (b_ms, base, d_ms, disabled)
        };
        base_ms = base_ms.min(b_ms / INNER as f64);
        disabled_ms = disabled_ms.min(d_ms / INNER as f64);
        let (e_ms, traced) = best_ms(1, || {
            let mut last = None;
            for _ in 0..INNER {
                let (result, t) = simulate_traced(trace, &topo, &traced_config);
                last = Some((result.expect("traced run"), t.expect("trace assembled")));
            }
            last.expect("at least one inner run")
        });
        enabled_ms = enabled_ms.min(e_ms / INNER as f64);
        best_disabled_ratio = best_disabled_ratio.min(d_ms / b_ms.max(1e-9));
        best_enabled_ratio = best_enabled_ratio.min(e_ms / b_ms.max(1e-9));
        runs = Some((base, disabled, traced));
    }
    let (base, disabled, (enabled, sim_trace)) = runs.expect("at least one rep");
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let overhead_pct = pct(best_disabled_ratio);
    let enabled_overhead_pct = pct(best_enabled_ratio);
    // Zero-cost-when-off: the traced entry point with telemetry off is
    // the plain path, bit for bit.
    assert_eq!(
        base, disabled,
        "a disabled sink must not perturb the report ({scenario})"
    );
    // Recording is report-invisible apart from the attached metrics.
    assert!(enabled.metrics.is_some(), "traced run carries metrics");
    let mut stripped = enabled;
    stripped.metrics = None;
    assert_eq!(
        base, stripped,
        "recording must not perturb the report ({scenario})"
    );
    assert_eq!(sim_trace.horizon, base.total_time);
    TraceOverheadRow {
        scenario: scenario.to_owned(),
        npus: topo.npus(),
        base_ms,
        disabled_ms,
        enabled_ms,
        overhead_pct,
        enabled_overhead_pct,
    }
}

/// Telemetry-overhead series (ROADMAP "observability"): the p2p
/// deep-pipeline on the per-packet backend and the chunked All-Reduce
/// executed as backend chunk programs, each run plain, through the
/// disabled-sink entry point, and with full recording. The disabled rows
/// back the CI bench-smoke gate (<= 2% overhead); the enabled rows
/// document what recording actually costs.
pub fn run_trace_overhead(quick: bool) -> Vec<TraceOverheadRow> {
    // The gate compares two runs of the *same* code path, so the budget
    // goes into samples (the median needs enough reps to discard noisy
    // ones) rather than payload size.
    let reps = 7;
    let packet = SystemConfig {
        network_backend: NetworkBackendKind::Packet,
        ..SystemConfig::default()
    };
    let mb = if quick { 8 } else { 16 };
    let mut rows = vec![trace_overhead_row(
        "p2p deep-pipeline packet",
        "R(32)@100",
        &packet,
        &deep_pipeline_trace(32, mb, DataSize::from_mib(1)),
        reps,
    )];
    let chunked = SystemConfig {
        collective_mode: CollectiveMode::Backend,
        network_backend: NetworkBackendKind::Packet,
        collective_chunks: 64,
        ..SystemConfig::default()
    };
    rows.push(trace_overhead_row(
        "all-reduce backend chunks",
        "SW(16)@100_SW(4)@50",
        &chunked,
        &experiments::all_reduce_trace(64, DataSize::from_mib(64)),
        reps,
    ));
    rows
}

/// A deep GPipe-style pipeline: every NPU is one stage, each microbatch's
/// activation hops stage-to-stage with a compute between — thousands of
/// identical-size p2p messages whose routes never share a link, so the
/// async and blocking engine paths must agree bit-identically while paying
/// very different backend-setup bills.
fn deep_pipeline_trace(npus: usize, microbatches: usize, activation: DataSize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let dep = |p: Option<NodeId>| p.map(|n| vec![n]).unwrap_or_default();
    for npu in 0..npus {
        let mut prev: Option<NodeId> = None;
        for m in 0..microbatches {
            if npu > 0 {
                prev = Some(b.node(
                    npu,
                    format!("mb{m}.recv"),
                    EtOp::PeerRecv {
                        peer: npu - 1,
                        size: activation,
                        tag: m as u64,
                    },
                    &dep(prev),
                ));
            }
            let fwd = b.node(
                npu,
                format!("mb{m}.fwd"),
                EtOp::Compute {
                    flops: 1e9,
                    tensor: DataSize::ZERO,
                },
                &dep(prev),
            );
            prev = Some(fwd);
            if npu + 1 < npus {
                prev = Some(b.node(
                    npu,
                    format!("mb{m}.send"),
                    EtOp::PeerSend {
                        peer: npu + 1,
                        size: activation,
                        tag: m as u64,
                    },
                    &[fwd],
                ));
            }
        }
    }
    b.build().expect("generated pipeline trace is valid")
}

/// A MoE-style expert all-to-all over p2p messages: within each
/// `group`-sized expert block every NPU sends a shard to every other
/// member in fixed member order, so each round is a many-to-one incast —
/// heavily overlapping traffic that only the async (co-resident) path can
/// see contend.
fn moe_alltoall_trace(npus: usize, group: usize, shard: DataSize) -> ExecutionTrace {
    assert_eq!(npus % group, 0, "expert blocks must tile the platform");
    let mut b = TraceBuilder::new(npus);
    for npu in 0..npus {
        let base = npu - npu % group;
        let mut prev: Option<NodeId> = None;
        for k in 0..group {
            let peer = base + k;
            if peer == npu {
                continue;
            }
            b.node(
                npu,
                format!("recv.{peer}"),
                EtOp::PeerRecv {
                    peer,
                    size: shard,
                    tag: 0,
                },
                &[],
            );
            let deps = prev.map(|n| vec![n]).unwrap_or_default();
            prev = Some(b.node(
                npu,
                format!("send.{peer}"),
                EtOp::PeerSend {
                    peer,
                    size: shard,
                    tag: 0,
                },
                &deps,
            ));
        }
    }
    b.build().expect("generated all-to-all trace is valid")
}

fn engine_p2p_row(
    workload: &str,
    notation: &str,
    trace: &ExecutionTrace,
    backend: NetworkBackendKind,
    reps: usize,
) -> EngineP2pRow {
    let topo = Topology::parse(notation).expect("valid notation");
    let config = SystemConfig {
        network_backend: backend,
        ..SystemConfig::default()
    };
    let (blocking_ms, blocking) = best_ms(reps, || {
        astra_system::simulate_blocking_reference(trace, &topo, &config).unwrap()
    });
    let (async_ms, asynchronous) = best_ms(reps, || simulate(trace, &topo, &config).unwrap());
    assert_eq!(blocking.p2p_messages, asynchronous.p2p_messages);
    assert_eq!(
        blocking.network.backend_setups, blocking.p2p_messages,
        "blocking reference pays one setup per message"
    );
    assert_eq!(
        asynchronous.network.backend_setups, 1,
        "async path builds one co-resident backend"
    );
    if workload == "deep-pipeline" {
        // Pipeline routes never share a link, so co-residency changes
        // nothing about the simulated timeline — only the cost of
        // computing it.
        assert_eq!(
            blocking.total_time, asynchronous.total_time,
            "paths diverged on non-overlapping traffic ({notation})"
        );
    } else {
        // Incast rounds contend inside the co-resident backend; the
        // blocking probes cannot see each other.
        assert!(
            asynchronous.total_time >= blocking.total_time,
            "contention must not shorten the all-to-all ({notation})"
        );
    }
    EngineP2pRow {
        workload: workload.to_owned(),
        topology: notation.to_owned(),
        npus: topo.npus(),
        backend: backend.name().to_owned(),
        p2p_messages: blocking.p2p_messages,
        blocking_setups: blocking.network.backend_setups,
        async_setups: asynchronous.network.backend_setups,
        blocking_net_events: blocking.network.events,
        async_net_events: asynchronous.network.events,
        blocking_ms,
        async_ms,
        speedup: blocking_ms / async_ms.max(1e-9),
    }
}

/// Async-vs-blocking engine NetworkAPI comparison on p2p-heavy workloads
/// (ROADMAP "async `sim_send`/callback NetworkAPI"): deep pipelines whose
/// stage-to-stage sends dominate, and MoE expert all-to-alls whose incast
/// rounds only contend when messages are co-resident. Quick mode runs the
/// 128-NPU cases the CI gate checks; full mode extends to 256–1024 NPUs.
pub fn run_engine_p2p(quick: bool) -> Vec<EngineP2pRow> {
    let reps = if quick { 1 } else { 3 };
    let act = DataSize::from_mib(1);
    let shard = DataSize::from_kib(512);
    let mb = if quick { 4 } else { 8 };
    let mut rows = vec![
        engine_p2p_row(
            "deep-pipeline",
            "R(16)@100_R(8)@100",
            &deep_pipeline_trace(128, mb, act),
            NetworkBackendKind::Packet,
            reps,
        ),
        engine_p2p_row(
            "moe-alltoall",
            "SW(16)@100_SW(8)@100",
            &moe_alltoall_trace(128, 16, shard),
            NetworkBackendKind::Packet,
            reps,
        ),
    ];
    if !quick {
        rows.push(engine_p2p_row(
            "deep-pipeline",
            "R(16)@100_R(16)@100",
            &deep_pipeline_trace(256, mb, act),
            NetworkBackendKind::Packet,
            reps,
        ));
        rows.push(engine_p2p_row(
            "deep-pipeline",
            "R(8)@100_R(8)@100_R(8)@50",
            &deep_pipeline_trace(512, mb, act),
            NetworkBackendKind::Packet,
            reps,
        ));
        rows.push(engine_p2p_row(
            "deep-pipeline",
            "R(16)@100_R(8)@100_R(8)@50",
            &deep_pipeline_trace(1024, 4, act),
            NetworkBackendKind::Packet,
            reps,
        ));
        rows.push(engine_p2p_row(
            "moe-alltoall",
            "SW(16)@100_SW(16)@100",
            &moe_alltoall_trace(256, 16, shard),
            NetworkBackendKind::Packet,
            reps,
        ));
        rows.push(engine_p2p_row(
            "moe-alltoall",
            "SW(16)@100_SW(8)@100",
            &moe_alltoall_trace(128, 16, shard),
            NetworkBackendKind::Flow,
            reps,
        ));
    }
    rows
}

fn collective_backend_row(
    notation: &str,
    payload_mib: u64,
    chunks: u64,
    backend: NetworkBackendKind,
    reps: usize,
) -> CollectiveBackendRow {
    let topo = Topology::parse(notation).expect("valid notation");
    let trace = experiments::all_reduce_trace(topo.npus(), DataSize::from_mib(payload_mib));
    let config = |mode| SystemConfig {
        collective_mode: mode,
        network_backend: backend,
        collective_chunks: chunks,
        ..SystemConfig::default()
    };
    let (analytical_ms, analytical) = best_ms(reps, || {
        simulate(&trace, &topo, &config(CollectiveMode::Analytical)).unwrap()
    });
    let (backend_ms, executed) = best_ms(reps, || {
        simulate(&trace, &topo, &config(CollectiveMode::Backend)).unwrap()
    });
    assert_eq!(analytical.collective_ops, 0, "closed form issues no ops");
    assert!(executed.collective_ops > 0);
    let finish_ratio = executed.total_time.as_us_f64() / analytical.total_time.as_us_f64();
    // Uncongested single-tenant switch topology: backend execution must
    // agree with the closed form to within the documented modeling deltas
    // (DAG-vs-fluid pipeline fill below, store-and-forward above).
    assert!(
        (0.9..1.1).contains(&finish_ratio),
        "collective modes diverged on {notation}: ratio {finish_ratio}"
    );
    CollectiveBackendRow {
        topology: notation.to_owned(),
        npus: topo.npus(),
        payload_mib,
        chunks,
        backend: backend.name().to_owned(),
        collective_ops: executed.collective_ops,
        analytical_us: analytical.total_time.as_us_f64(),
        backend_us: executed.total_time.as_us_f64(),
        finish_ratio,
        backend_net_events: executed.network.events,
        analytical_ms,
        backend_ms,
    }
}

/// Backend-executed vs closed-form collectives (ROADMAP "packet-level
/// collective execution inside the system engine"): the chunked world
/// All-Reduce at 64–256 NPUs, decomposed into send/recv programs on the
/// packet backend (train transport). Quick mode runs the 64-NPU case the CI
/// gate checks.
pub fn run_collective_backend(quick: bool) -> Vec<CollectiveBackendRow> {
    let reps = if quick { 1 } else { 3 };
    let mut rows = vec![collective_backend_row(
        "SW(8)@100_SW(8)@50",
        64,
        32,
        NetworkBackendKind::Packet,
        reps,
    )];
    if !quick {
        rows.push(collective_backend_row(
            "SW(16)@100_SW(8)@50",
            64,
            32,
            NetworkBackendKind::Packet,
            reps,
        ));
        rows.push(collective_backend_row(
            "SW(16)@100_SW(16)@50",
            64,
            32,
            NetworkBackendKind::Packet,
            reps,
        ));
        // The fluid backend at the largest scale: bit-identical rates to
        // the analytical equation on switch links.
        rows.push(collective_backend_row(
            "SW(16)@100_SW(16)@50",
            64,
            32,
            NetworkBackendKind::Flow,
            reps,
        ));
    }
    rows
}

fn render_trace_generation(rows: &[TraceGenRow]) -> String {
    let mut s = String::from("== trace generation: memoizing vs serial baseline ==\n");
    s += &format!(
        "{:<22} {:>6} {:>9} {:>11} {:>13} {:>9}\n",
        "Workload", "NPUs", "Nodes", "Serial(ms)", "Memoized(ms)", "Speedup"
    );
    for r in rows {
        s += &format!(
            "{:<22} {:>6} {:>9} {:>11.2} {:>13.2} {:>8.2}x\n",
            r.workload, r.npus, r.total_nodes, r.serial_ms, r.parallel_ms, r.speedup
        );
    }
    s
}

fn render_packet_scale(rows: &[PacketScaleRow]) -> String {
    let mut s =
        String::from("== packet transport: batched trains vs per-packet (256 B All-Reduce) ==\n");
    s += &format!(
        "{:<26} {:>5} {:>12} {:>11} {:>7} {:>10} {:>9} {:>9}\n",
        "Topology", "NPUs", "PktEvents", "TrnEvents", "Ratio", "Packet(ms)", "Batch(ms)", "Speedup"
    );
    for r in rows {
        s += &format!(
            "{:<26} {:>5} {:>12} {:>11} {:>6.2}% {:>10.2} {:>9.2} {:>8.2}x\n",
            r.topology,
            r.npus,
            r.per_packet_events,
            r.batched_events,
            r.event_ratio * 100.0,
            r.per_packet_ms,
            r.batched_ms,
            r.speedup
        );
    }
    s
}

fn render_engine_p2p(rows: &[EngineP2pRow]) -> String {
    let mut s =
        String::from("== engine NetworkAPI: async co-resident vs blocking per-message probes ==\n");
    s += &format!(
        "{:<14} {:>5} {:>9} {:>9} {:>9} {:>12} {:>11} {:>10} {:>9} {:>9}\n",
        "Workload",
        "NPUs",
        "Backend",
        "Msgs",
        "Setups",
        "BlkEvents",
        "AsyncEvts",
        "Block(ms)",
        "Async(ms)",
        "Speedup"
    );
    for r in rows {
        s += &format!(
            "{:<14} {:>5} {:>9} {:>9} {:>9} {:>12} {:>11} {:>10.2} {:>9.2} {:>8.2}x\n",
            r.workload,
            r.npus,
            r.backend,
            r.p2p_messages,
            format!("{}:{}", r.blocking_setups, r.async_setups),
            r.blocking_net_events,
            r.async_net_events,
            r.blocking_ms,
            r.async_ms,
            r.speedup
        );
    }
    s
}

fn render_collective_backend(rows: &[CollectiveBackendRow]) -> String {
    let mut s = String::from("== collectives: backend-executed chunk programs vs closed form ==\n");
    s += &format!(
        "{:<22} {:>5} {:>7} {:>9} {:>7} {:>11} {:>9} {:>10} {:>9}\n",
        "Topology", "NPUs", "Chunks", "Ops", "Ratio", "NetEvents", "Anl(ms)", "Bknd(ms)", "Backend"
    );
    for r in rows {
        s += &format!(
            "{:<22} {:>5} {:>7} {:>9} {:>7.3} {:>11} {:>9.2} {:>10.2} {:>9}\n",
            r.topology,
            r.npus,
            r.chunks,
            r.collective_ops,
            r.finish_ratio,
            r.backend_net_events,
            r.analytical_ms,
            r.backend_ms,
            r.backend
        );
    }
    s
}

fn render_packet_core(rows: &[PacketCoreRow]) -> String {
    let mut s = String::from("== packet core: per-link lanes vs global-heap reference ==\n");
    s += &format!(
        "{:<26} {:>5} {:>11} {:>12} {:>12} {:>9}\n",
        "Topology", "NPUs", "Events", "Heap(ms)", "Laned(ms)", "Speedup"
    );
    for r in rows {
        s += &format!(
            "{:<26} {:>5} {:>11} {:>12.2} {:>12.2} {:>8.2}x\n",
            r.topology, r.npus, r.events, r.reference_ms, r.laned_ms, r.speedup
        );
    }
    s
}

fn render_serve_throughput(rows: &[ServeThroughputRow]) -> String {
    let mut s = String::from("== batch service: warm cross-request caches vs cold runs ==\n");
    s += &format!(
        "{:<26} {:>8} {:>9} {:>8} {:>11} {:>11} {:>9} {:>11} {:>11}\n",
        "Scenario",
        "Distinct",
        "Requests",
        "Workers",
        "Cold(ms)",
        "Warm(ms)",
        "Speedup",
        "Cold(r/s)",
        "Warm(r/s)"
    );
    for r in rows {
        s += &format!(
            "{:<26} {:>8} {:>9} {:>8} {:>11.2} {:>11.2} {:>8.2}x {:>11.1} {:>11.1}\n",
            r.scenario,
            r.distinct,
            r.requests,
            r.workers,
            r.cold_ms,
            r.warm_ms,
            r.speedup,
            r.cold_req_per_s,
            r.warm_req_per_s
        );
    }
    s
}

fn render_fault_injection(rows: &[FaultInjectionRow]) -> String {
    let mut s = String::from(
        "== fault injection: degraded fabric / stragglers vs fault-free baseline ==\n",
    );
    s += &format!(
        "{:<30} {:<10} {:>5} {:>10} {:>12} {:>12} {:>9} {:>9} {:>10}\n",
        "Scenario",
        "Topology",
        "NPUs",
        "Backend",
        "Base(us)",
        "Fault(us)",
        "Slowdown",
        "Affected",
        "Extra(us)"
    );
    for r in rows {
        s += &format!(
            "{:<30} {:<10} {:>5} {:>10} {:>12.2} {:>12.2} {:>8.2}x {:>9} {:>10.2}\n",
            r.scenario,
            r.topology,
            r.npus,
            r.backend,
            r.baseline_us,
            r.faulted_us,
            r.slowdown,
            r.affected,
            r.extra_us
        );
    }
    s
}

fn render_trace_overhead(rows: &[TraceOverheadRow]) -> String {
    let mut s = String::from("== telemetry: plain vs disabled-sink vs recording runs ==\n");
    s += &format!(
        "{:<28} {:>5} {:>10} {:>12} {:>12} {:>9} {:>11}\n",
        "Scenario", "NPUs", "Base(ms)", "NoSink(ms)", "Record(ms)", "Off(%)", "Record(%)"
    );
    for r in rows {
        s += &format!(
            "{:<28} {:>5} {:>10.2} {:>12.2} {:>12.2} {:>9.2} {:>11.2}\n",
            r.scenario,
            r.npus,
            r.base_ms,
            r.disabled_ms,
            r.enabled_ms,
            r.overhead_pct,
            r.enabled_overhead_pct
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the comma-separated `series` list in quick mode.
    fn run_quick(series: &str) -> Value {
        run(true, &parse_series(series).unwrap(), &mut io::sink()).unwrap()
    }

    /// The row array under `key`.
    fn rows<'a>(report: &'a Value, key: &str) -> &'a Vec<Value> {
        report[key].as_array().expect("every key holds an array")
    }

    #[test]
    fn quick_report_is_valid_json_with_rows() {
        let report = run(true, &default_series(), &mut io::sink()).unwrap();
        // Every table key, in table order, after the two header fields;
        // the default sweep fills exactly the default rows.
        let keys: Vec<&str> = report
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let table: Vec<&str> = SERIES.iter().map(|s| s.key).collect();
        assert_eq!(keys[..2], ["generated_by", "threads_available"]);
        assert_eq!(keys[2..], table[..]);
        for series in SERIES {
            assert_eq!(
                rows(&report, series.key).is_empty(),
                !series.default,
                "{}",
                series.name
            );
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(
            v["trace_generation"][0]["serial_ms"].as_f64().unwrap() >= 0.0,
            "serial_ms present"
        );
        assert!(v["packet_scale"][0]["per_packet_events"].as_f64().unwrap() > 0.0);
        assert!(v["packet_core"][0]["events"].as_f64().unwrap() > 0.0);
        assert!(v["serve_throughput"][0]["requests"].as_f64().unwrap() > 0.0);
        assert!(v["fault_injection"][0]["slowdown"].as_f64().unwrap() >= 1.0);
        // The overhead is an unclamped ratio: noise may make it negative.
        assert!(v["trace_overhead"][0]["overhead_pct"]
            .as_f64()
            .unwrap()
            .is_finite());
        assert!(v["engine_p2p"][0]["blocking_setups"].as_f64().unwrap() > 1.0);
        assert!(
            v["collective_backend"][0]["collective_ops"]
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn series_selection_filters_and_rejects_unknown_names() {
        let report = run_quick("engine-p2p");
        for series in SERIES {
            assert_eq!(
                rows(&report, series.key).is_empty(),
                series.name != "engine-p2p",
                "{}",
                series.name
            );
        }
        assert_eq!(parse_series("ladder-queue"), Err("ladder-queue".to_owned()));
        assert_eq!(
            parse_series("fig4,ladder-queue"),
            Err("ladder-queue".to_owned())
        );
    }

    #[test]
    fn paper_series_fold_into_the_report() {
        let report = run_quick("fig11,table5,table2,table3,speedup,ablations");
        assert!(rows(&report, "engine_p2p").is_empty());
        // Three Table V systems, six Table V parameters.
        assert_eq!(rows(&report, "fig11").len(), 3);
        assert_eq!(rows(&report, "table5").len(), 6);
        let v = &report;
        assert!(v["fig11"][0]["total_ms"].as_f64().unwrap() > 0.0);
        assert_eq!(
            v["table5"][2]["parameter"].as_str().unwrap(),
            "In-node pooled fabric BW (GB/s)"
        );
        // Every Fig. 11 bar's categories sum to its total.
        for row in rows(v, "fig11") {
            let sum = row["compute_ms"].as_f64().unwrap()
                + row["exposed_comm_ms"].as_f64().unwrap()
                + row["exposed_idle_ms"].as_f64().unwrap()
                + row["exposed_local_ms"].as_f64().unwrap()
                + row["exposed_remote_ms"].as_f64().unwrap();
            let total = row["total_ms"].as_f64().unwrap();
            assert!((sum - total).abs() < 1e-3, "{sum} vs {total}");
        }
        // Six Table II systems, three Table III workloads.
        assert_eq!(rows(v, "table2").len(), 6);
        assert_eq!(v["table2"][3]["dim_gbps"].as_array().unwrap().len(), 2);
        assert_eq!(rows(v, "table3").len(), 3);
        assert_eq!(v["table3"][1]["workload"].as_str().unwrap(), "GPT-3");
        // Packet + analytical on the 64-NPU torus, analytical at 4096.
        assert_eq!(rows(v, "speedup").len(), 3);
        assert!(v["speedup"][0]["events"].as_u64().unwrap() > 0);
        assert!(v["speedup"][1]["events"].is_null());
        // 6 chunk counts + 4 packet sizes + 3 congestion models.
        assert_eq!(rows(v, "ablations").len(), 13);
        assert_eq!(v["ablations"][0]["study"].as_str().unwrap(), "chunk-count");
    }

    #[test]
    fn scaling_series_fold_into_the_report() {
        let report = run_quick("fig4,table4");
        assert!(rows(&report, "fig9a").is_empty() && rows(&report, "fig9b").is_empty());
        // Quick fig4: 2 ring sizes x 2 payloads; Table IV: 7 systems.
        assert_eq!(rows(&report, "fig4").len(), 4);
        assert_eq!(rows(&report, "table4").len(), 7);
        let v = &report;
        assert!(v["fig4"][0]["error_pct"].as_f64().unwrap() >= 0.0);
        assert_eq!(v["table4"][0]["dim_mib"].as_array().unwrap().len(), 4);
        assert!(v["table4"][0]["collective_us"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn packet_core_rows_are_bit_identical_by_construction() {
        // `packet_core_row` asserts finish and event-count equality
        // between the cores; the row itself must carry a positive event
        // count and wall-clock fields.
        let rows = run_packet_core(true);
        let row = rows.iter().find(|r| r.npus == 512).expect("512-NPU row");
        assert!(row.events > 0);
        assert!(row.reference_ms > 0.0 && row.laned_ms > 0.0);
    }

    #[test]
    fn serve_throughput_gate_holds_on_the_mixed_sweep() {
        // The CI bench-smoke gate for the batch service: replaying the
        // mixed repeated sweep against warm cross-request caches is at
        // least 5x faster than cold runs, with rows asserted
        // byte-identical inside `serve_throughput_row`.
        let rows = run_serve_throughput(true);
        let row = &rows[0];
        assert_eq!(row.distinct, SERVE_MIXED_SWEEP.len());
        assert_eq!(row.requests, row.distinct * 3);
        assert!(
            row.speedup >= 5.0,
            "warm-over-cold speedup {} < 5 on {}",
            row.speedup,
            row.scenario
        );
        assert!(row.warm_req_per_s > row.cold_req_per_s);
    }

    #[test]
    fn fault_injection_gate_holds_on_the_quick_scenarios() {
        // The CI bench-smoke gate for fault injection: every scenario's
        // faulted run is no faster than its fault-free baseline, every
        // injected event is attributed, and the structurally-slower
        // scenarios (dead ring link rerouted the long way, 2x compute
        // straggler) are strictly slower.
        let rows = run_fault_injection(true);
        // 2 backends x 2 p2p scenarios + collective degrade + straggler.
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.slowdown >= 1.0,
                "{} on {} sped up: {}",
                row.scenario,
                row.backend,
                row.slowdown
            );
            assert_eq!(row.fault_events, 1);
        }
        let reroute = rows
            .iter()
            .find(|r| r.scenario == "p2p link-down reroute" && r.backend == "flow")
            .expect("flow reroute row");
        assert!(reroute.slowdown > 1.0, "{}", reroute.slowdown);
        assert!(reroute.affected > 0, "dead link directions attributed");
        let straggler = rows
            .iter()
            .find(|r| r.scenario == "npu-straggler 2x")
            .expect("straggler row");
        assert!(straggler.slowdown > 1.0, "{}", straggler.slowdown);
        assert!(straggler.affected > 0 && straggler.extra_us > 0.0);
    }

    #[test]
    fn trace_overhead_gate_holds_on_the_quick_scenarios() {
        // The CI bench-smoke gate for telemetry: with no sink installed
        // the traced entry point is the plain path (reports asserted
        // bit-identical inside `trace_overhead_row`), so its wall-clock
        // overhead is measurement noise — gated at <= 2%.
        let rows = run_trace_overhead(true);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            println!(
                "{}: base {:.2}ms no-sink {:.2}ms record {:.2}ms off {:.2}% record {:.2}%",
                row.scenario,
                row.base_ms,
                row.disabled_ms,
                row.enabled_ms,
                row.overhead_pct,
                row.enabled_overhead_pct
            );
            assert!(
                row.overhead_pct <= 2.0,
                "disabled-sink overhead {:.2}% > 2% on {}",
                row.overhead_pct,
                row.scenario
            );
            assert!(row.base_ms > 0.0 && row.enabled_ms > 0.0);
        }
    }

    #[test]
    fn collective_backend_gate_holds_on_64_npus() {
        // The CI bench-smoke gate, in deterministic terms: backend-executed
        // collectives decompose into chunks x phases send/recv ops, process
        // backend events the closed form never pays, and land within 10%
        // of the closed-form finish on the uncongested 64-NPU topology
        // (asserted inside `collective_backend_row`).
        let rows = run_collective_backend(true);
        let row = rows.iter().find(|r| r.npus == 64).expect("64-NPU row");
        assert_eq!(row.collective_ops, row.chunks * 4, "2 dims x 2 visits");
        assert!(row.backend_net_events > 0);
        assert!((0.9..1.1).contains(&row.finish_ratio));
    }

    #[test]
    fn engine_p2p_gate_holds_on_128_npus() {
        // The CI bench-smoke gate, in deterministic terms: the blocking
        // reference rebuilds the backend per message while the async path
        // builds it once, pops no more backend events, and reproduces the
        // blocking timeline bit-identically on the non-overlapping
        // deep-pipeline workload (asserted inside `engine_p2p_row`).
        let rows = run_engine_p2p(true);
        let row = rows
            .iter()
            .find(|r| r.npus == 128 && r.workload == "deep-pipeline")
            .expect("128-NPU deep-pipeline row");
        assert_eq!(row.async_setups, 1);
        assert_eq!(row.blocking_setups, row.p2p_messages);
        assert!(row.p2p_messages > 100);
        assert!(row.async_net_events <= row.blocking_net_events);
    }

    #[test]
    fn packet_scale_gate_holds_on_128_npus() {
        // The CI bench-smoke gate: batched transport must pop at most 5 %
        // of per-packet events on the 128-NPU `garnet_like` case.
        let rows = run_packet_scale(true);
        let row = rows.iter().find(|r| r.npus == 128).expect("128-NPU row");
        assert!(
            row.event_ratio <= 0.05,
            "batched transport popped {:.2}% of per-packet events",
            row.event_ratio * 100.0
        );
    }
}
