//! Command-line interface for running simulations without writing Rust.
//!
//! ```text
//! astra --topology "R(4)@250_SW(2)@50" --workload gpt3 --mp 4 --themis
//! astra --topology "SW(64)@600" --all-reduce-mib 1024
//! astra --topology "SW(16)@256_SW(16)@100" --workload moe --memory hiermem-opt --json
//! ```

use astra_core::{
    CollectiveMode, MetricsReport, NetworkBackendKind, P2pMode, SimReport, TraceFormat,
};
use astra_serve::SimRequest;
use std::error::Error;
use std::fmt;

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// Topology notation (required).
    pub topology: String,
    /// Workload name: `dlrm`, `gpt3`, `t1t`, or `moe`.
    pub workload: Option<String>,
    /// All-Reduce microbenchmark payload in MiB (alternative to a workload).
    pub all_reduce_mib: Option<u64>,
    /// Model-parallel width for `gpt3` / `t1t` (defaults to Table III).
    pub mp: Option<usize>,
    /// FSDP instead of hybrid/data parallelism.
    pub fsdp: bool,
    /// Pipeline parallelism with this many stages (and as many
    /// micro-batches) instead of hybrid/data parallelism.
    pub pipeline: Option<usize>,
    /// Use the Themis greedy collective scheduler.
    pub themis: bool,
    /// Collective pipeline chunks.
    pub chunks: Option<u64>,
    /// Remote memory system: `hiermem-base`, `hiermem-opt`, `zero-infinity`.
    pub memory: Option<String>,
    /// Network backend for p2p traffic: `analytical` (default), `packet`,
    /// `batched`, or `flow`.
    pub network: Option<NetworkBackendKind>,
    /// How the engine drives the network backend: `async` (default) or
    /// `blocking` (the frozen per-message-probe reference).
    pub p2p: Option<P2pMode>,
    /// How collectives execute: `analytical` (closed form, default) or
    /// `backend` (chunk-level send/recv programs on the network backend).
    pub collectives: Option<CollectiveMode>,
    /// Worker threads for the packet backends' parallel core (`None` =
    /// the sequential reference core).
    pub sim_threads: Option<usize>,
    /// Path to a fault-schedule JSON file (array of fault objects).
    pub faults: Option<String>,
    /// Write a simulated-time execution trace of the run to this path.
    pub trace_out: Option<String>,
    /// Trace encoding for `--trace-out` (default [`TraceFormat::Chrome`]).
    pub trace_format: Option<TraceFormat>,
    /// Attach derived telemetry metrics to the report output.
    pub metrics: bool,
    /// Emit machine-readable JSON instead of text.
    pub json: bool,
}

/// CLI errors with user-facing messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text printed for `--help` or on parse errors.
pub const USAGE: &str = "\
astra — ASTRA-sim 2.0 reproduction CLI

USAGE:
    astra --topology <NOTATION> (--workload <NAME> | --all-reduce-mib <MiB>) [OPTIONS]
    astra sweep [--quick] [--out <PATH>] [--series <LIST>]
    astra serve [--workers <N>] [--socket <PATH>] [--max-connections <N>]

REQUIRED:
    --topology <NOTATION>   e.g. \"R(4)@250_SW(2)@50\" (Ring/R, FullyConnected/FC, Switch/SW)

WORKLOAD (one of):
    --workload <NAME>       dlrm | gpt3 | t1t | moe (Table III presets)
    --all-reduce-mib <N>    single world All-Reduce of N MiB

OPTIONS:
    --mp <N>                model-parallel width (gpt3/t1t; default Table III)
    --fsdp                  fully-sharded data parallelism instead of hybrid
    --pipeline <STAGES>     GPipe-style pipeline parallelism (STAGES stages,
                            as many micro-batches); its stage-to-stage
                            sends are what --network routes
    --themis                Themis greedy collective scheduler
    --chunks <N>            collective pipeline chunks (default 128)
    --memory <SYSTEM>       hiermem-base | hiermem-opt | zero-infinity (required for moe)
    --network <BACKEND>     p2p network backend: analytical (default) |
                            packet | batched | flow (batched scales to fine
                            packets; it is bit-identical to packet unless
                            concurrent trains interleave on a link)
    --p2p <MODE>            engine/network integration: async (default,
                            co-resident messages on one shared clock) |
                            blocking (frozen reference: one fresh backend
                            probe per message, no cross-message contention)
    --collectives <MODE>    collective execution: analytical (default,
                            closed-form multi-rail engine) | backend
                            (chunk-level send/recv programs executed on the
                            --network backend, contending with p2p traffic;
                            requires --p2p async and the baseline scheduler)
    --sim-threads <N>       run the packet backends on the parallel
                            (domain-partitioned, conservative-lookahead)
                            core with N worker threads; results are
                            bit-identical for every N >= 1 (default: the
                            sequential reference core)
    --faults <SPEC.json>    deterministic fault schedule: a JSON array of
                            fault objects, e.g.
                            [{\"at_us\": 0, \"kind\": \"link_down\",
                              \"src\": 0, \"dst\": 1}]; kinds: link_down,
                            link_degrade (bandwidth_pct/latency_x),
                            npu_slowdown (slowdown_pct), switch_down
                            (dim/group); applied identically on every
                            --network backend
    --trace-out <PATH>      write a simulated-time execution trace to PATH:
                            per-NPU attribution spans (matching the
                            breakdown exactly), collective + chunk-op
                            spans with dependency arrows, per-link busy
                            intervals and queue depths, fault/budget
                            markers; trace bytes are a pure function of
                            the config (bit-identical across
                            --sim-threads and serve workers)
    --trace-format <FMT>    trace encoding for --trace-out: chrome
                            (default; open in Perfetto or
                            chrome://tracing) | jsonl (one record per
                            line, for scripting)
    --metrics               attach derived telemetry metrics to the
                            report (per-link utilization/queue stats,
                            per-NPU timeline totals, finish and
                            collective-duration percentiles)
    --json                  machine-readable output
    --help                  this text

SWEEP (throughput benchmark runner, writes BENCH_throughput.json-style JSON):
    astra sweep [--quick] [--out <PATH>] [--series <LIST>]
    --quick                 CI-sized payloads and scales
    --out <PATH>            output JSON path (default BENCH_sweep.json)
    --series <LIST>         comma-separated subset of
                            trace-gen,packet-scale,engine-p2p,
                            collective-backend,parallel-des,serve-throughput,
                            fault-injection,trace-overhead,fig4,fig9a,fig9b,
                            table4,fig11,table5 (default: the eight
                            throughput series; fig4/fig9a/fig9b/table4/
                            fig11/table5 fold the paper experiment runners
                            into the JSON)

SERVE (batch service: JSONL requests in, one JSON report row per line out):
    astra serve [--workers <N>] [--socket <PATH>] [--max-connections <N>]
    --workers <N>           worker threads for the request pool (default:
                            available cores); response rows are
                            bit-identical for every N
    --socket <PATH>         listen on a unix socket instead of reading
                            stdin (one batch per connection; warm caches
                            persist across connections)
    --max-connections <N>   stop after N socket connections
    Request fields mirror the single-run flags (topology, workload,
    all_reduce_mib, mp, fsdp, pipeline, themis, chunks, memory, network,
    p2p, collectives, sim_threads) plus an echoed `id`. Warm
    caches only change speed: every row is bit-identical to a cold
    single run of the same request.
";

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem (unknown flag,
/// missing value, missing required option).
pub fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    let mut opts = CliOptions {
        topology: String::new(),
        workload: None,
        all_reduce_mib: None,
        mp: None,
        fsdp: false,
        pipeline: None,
        themis: false,
        chunks: None,
        memory: None,
        network: None,
        p2p: None,
        collectives: None,
        sim_threads: None,
        faults: None,
        trace_out: None,
        trace_format: None,
        metrics: false,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--topology" => opts.topology = value("--topology")?,
            "--workload" => opts.workload = Some(value("--workload")?),
            "--all-reduce-mib" => {
                opts.all_reduce_mib = Some(
                    value("--all-reduce-mib")?
                        .parse()
                        .map_err(|_| err("--all-reduce-mib expects an integer"))?,
                );
            }
            "--mp" => {
                opts.mp = Some(
                    value("--mp")?
                        .parse()
                        .map_err(|_| err("--mp expects an integer"))?,
                );
            }
            "--chunks" => {
                opts.chunks = Some(
                    value("--chunks")?
                        .parse()
                        .map_err(|_| err("--chunks expects an integer"))?,
                );
            }
            "--memory" => opts.memory = Some(value("--memory")?),
            "--network" => opts.network = Some(value("--network")?.parse().map_err(err)?),
            "--p2p" => opts.p2p = Some(value("--p2p")?.parse().map_err(err)?),
            "--collectives" => {
                opts.collectives = Some(value("--collectives")?.parse().map_err(err)?);
            }
            "--sim-threads" => {
                let threads: usize = value("--sim-threads")?
                    .parse()
                    .map_err(|_| err("--sim-threads expects a thread count"))?;
                if threads == 0 {
                    return Err(err("--sim-threads must be at least 1"));
                }
                opts.sim_threads = Some(threads);
            }
            "--pipeline" => {
                opts.pipeline = Some(
                    value("--pipeline")?
                        .parse()
                        .map_err(|_| err("--pipeline expects a stage count"))?,
                );
            }
            "--faults" => opts.faults = Some(value("--faults")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-format" => {
                opts.trace_format = Some(value("--trace-format")?.parse().map_err(err)?);
            }
            "--metrics" => opts.metrics = true,
            "--fsdp" => opts.fsdp = true,
            "--themis" => opts.themis = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown argument `{other}`\n\n{USAGE}"))),
        }
    }
    if opts.topology.is_empty() {
        return Err(err(format!("--topology is required\n\n{USAGE}")));
    }
    if opts.workload.is_none() && opts.all_reduce_mib.is_none() {
        return Err(err(format!(
            "one of --workload or --all-reduce-mib is required\n\n{USAGE}"
        )));
    }
    if opts.trace_format.is_some() && opts.trace_out.is_none() {
        return Err(err("--trace-format requires --trace-out"));
    }
    if opts.collectives == Some(CollectiveMode::Backend) {
        if opts.p2p == Some(P2pMode::Blocking) {
            return Err(err(
                "`--collectives backend` executes collectives on the async NetworkAPI \
                 and cannot be combined with `--p2p blocking`",
            ));
        }
        if opts.themis {
            return Err(err(
                "`--collectives backend` lowers the baseline dimension order and cannot \
                 be combined with `--themis` (the Themis planner only reorders the \
                 analytical fast path)",
            ));
        }
    }
    Ok(opts)
}

/// The batch-service request equivalent to a single-run CLI invocation;
/// [`run`] and `astra serve` share one execution path through it.
pub fn to_request(opts: &CliOptions) -> SimRequest {
    SimRequest {
        id: None,
        topology: opts.topology.clone(),
        workload: opts.workload.clone(),
        all_reduce_mib: opts.all_reduce_mib,
        mp: opts.mp,
        fsdp: opts.fsdp,
        pipeline: opts.pipeline,
        themis: opts.themis,
        chunks: opts.chunks,
        memory: opts.memory.clone(),
        network: opts.network,
        p2p: opts.p2p,
        collectives: opts.collectives,
        sim_threads: opts.sim_threads,
        faults: astra_core::FaultSchedule::new(),
        max_events: None,
        max_sim_time_ps: None,
    }
}

/// Runs a parsed CLI invocation, returning the report.
///
/// With `--trace-out` or `--metrics` the run is executed with telemetry
/// recording on: the trace file is written here and the returned report
/// carries [`SimReport::metrics`]. The report is otherwise bit-identical
/// to an untraced run's.
///
/// # Errors
///
/// Returns a [`CliError`] on invalid notation, unknown workload/memory
/// names, simulation setup problems, or an unwritable `--trace-out` path.
pub fn run(opts: &CliOptions) -> Result<SimReport, CliError> {
    let mut req = to_request(opts);
    if let Some(path) = &opts.faults {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("--faults: failed to read {path}: {e}")))?;
        req.faults =
            astra_serve::parse_faults_json(&text).map_err(|e| err(format!("--faults: {e}")))?;
    }
    if opts.trace_out.is_none() && !opts.metrics {
        return astra_serve::execute_once(&req).map_err(|e| err(e.message));
    }
    let (report, trace) = astra_serve::execute_traced(&req, &astra_serve::WarmCache::new())
        .map_err(|e| err(e.message))?;
    if let (Some(path), Some(trace)) = (&opts.trace_out, &trace) {
        let format = opts.trace_format.unwrap_or_default();
        std::fs::write(path, format.render(trace))
            .map_err(|e| err(format!("--trace-out: failed to write {path}: {e}")))?;
    }
    Ok(report)
}

/// Options of the `astra sweep` subcommand, which drives the `astra-bench`
/// throughput runners and writes their machine-readable JSON report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// CI-sized payloads and scales instead of the full study.
    pub quick: bool,
    /// Output JSON path.
    pub out: String,
    /// Which comparison series to run.
    pub series: astra_bench::throughput::SeriesSelection,
}

/// Parses `astra sweep` arguments (everything after the `sweep` keyword).
///
/// # Errors
///
/// Returns a [`CliError`] on unknown flags, missing values, or unknown
/// series names.
pub fn parse_sweep_args(args: &[String]) -> Result<SweepOptions, CliError> {
    use astra_bench::throughput::SeriesSelection;
    let mut opts = SweepOptions {
        quick: false,
        out: "BENCH_sweep.json".to_owned(),
        series: SeriesSelection::ALL,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                opts.out = it
                    .next()
                    .cloned()
                    .ok_or_else(|| err("--out requires a path"))?;
            }
            "--series" => {
                let list = it
                    .next()
                    .cloned()
                    .ok_or_else(|| err("--series requires a comma-separated list"))?;
                let mut sel = SeriesSelection::NONE;
                for name in list.split(',').filter(|s| !s.is_empty()) {
                    sel = sel.enable(name).map_err(|unknown| {
                        err(format!(
                            "unknown series `{unknown}` (expected one of {})",
                            SeriesSelection::NAMES.join(", ")
                        ))
                    })?;
                }
                if sel == SeriesSelection::NONE {
                    return Err(err("--series selected nothing"));
                }
                opts.series = sel;
            }
            "--help" | "-h" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown sweep argument `{other}`\n\n{USAGE}"))),
        }
    }
    Ok(opts)
}

/// Runs a parsed `astra sweep` invocation: executes the selected series,
/// prints the comparison tables, and writes the JSON report to
/// `opts.out`. Returns the JSON.
///
/// # Errors
///
/// Returns a [`CliError`] if the output file cannot be written.
pub fn run_sweep(opts: &SweepOptions) -> Result<String, CliError> {
    let report = astra_bench::throughput::run_selected(opts.quick, opts.series);
    astra_bench::throughput::print(&report);
    let json = report
        .to_json()
        .map_err(|e| err(format!("serialize: {e}")))?;
    std::fs::write(&opts.out, &json)
        .map_err(|e| err(format!("failed to write {}: {e}", opts.out)))?;
    println!("\nwrote {}", opts.out);
    Ok(json)
}

/// Options of the `astra serve` subcommand, the JSONL batch service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads draining the request pool.
    pub workers: usize,
    /// Unix-socket path to listen on (`None` = one batch on stdin).
    pub socket: Option<String>,
    /// Stop after this many socket connections (`None` = serve forever).
    pub max_connections: Option<usize>,
}

/// Parses `astra serve` arguments (everything after the `serve` keyword).
///
/// # Errors
///
/// Returns a [`CliError`] on unknown flags, missing values, or a zero
/// worker/connection count.
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut opts = ServeOptions {
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        socket: None,
        max_connections: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--workers" => {
                let workers: usize = value("--workers")?
                    .parse()
                    .map_err(|_| err("--workers expects a thread count"))?;
                if workers == 0 {
                    return Err(err("--workers must be at least 1"));
                }
                opts.workers = workers;
            }
            "--socket" => opts.socket = Some(value("--socket")?),
            "--max-connections" => {
                let max: usize = value("--max-connections")?
                    .parse()
                    .map_err(|_| err("--max-connections expects a count"))?;
                if max == 0 {
                    return Err(err("--max-connections must be at least 1"));
                }
                opts.max_connections = Some(max);
            }
            "--help" | "-h" => return Err(err(USAGE)),
            other => return Err(err(format!("unknown serve argument `{other}`\n\n{USAGE}"))),
        }
    }
    Ok(opts)
}

/// Runs a parsed `astra serve` invocation: drains one JSONL batch from
/// stdin (or serves batches on a unix socket), writing one response row
/// per request to stdout and a cache summary to stderr.
///
/// # Errors
///
/// Returns a [`CliError`] if stdin cannot be read or the socket cannot
/// be bound; per-request problems become structured error rows instead.
pub fn run_serve(opts: &ServeOptions) -> Result<(), CliError> {
    use std::io::{BufRead, Write};
    let cache = astra_serve::WarmCache::new();
    let totals = if let Some(path) = &opts.socket {
        astra_serve::serve_unix(
            std::path::Path::new(path),
            opts.workers,
            &cache,
            opts.max_connections,
        )
        .map_err(|e| err(format!("serve: {e}")))?
    } else {
        let lines: Vec<String> = std::io::stdin()
            .lock()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| err(format!("serve: stdin: {e}")))?;
        let (rows, totals) = astra_serve::run_batch(&lines, opts.workers, &cache);
        let mut stdout = std::io::stdout().lock();
        for row in &rows {
            writeln!(stdout, "{row}").map_err(|e| err(format!("serve: stdout: {e}")))?;
        }
        totals
    };
    eprintln!(
        "astra serve: {} request(s): {} ok, {} error(s)",
        totals.requests, totals.ok, totals.errors
    );
    eprintln!("astra serve: caches: {}", cache.summary());
    Ok(())
}

/// Escapes a string for embedding in a JSON literal (quotes, backslashes,
/// and control characters; fault labels and similar ASCII in practice).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the `"metrics"` object of the JSON report (compact, one
/// object): per-link rows, per-NPU timeline totals, and percentiles.
fn metrics_json(m: &MetricsReport) -> String {
    let links: Vec<String> = m
        .links
        .iter()
        .map(|l| {
            format!(
                "{{\"link\": {}, \"busy_us\": {:.3}, \"utilization_permille\": {}, \
                 \"peak_queue\": {}, \"reservations\": {}}}",
                l.link,
                l.busy.as_us_f64(),
                l.utilization_permille,
                l.peak_queue,
                l.reservations
            )
        })
        .collect();
    let npus: Vec<String> = m
        .npus
        .iter()
        .map(|n| {
            format!(
                "{{\"npu\": {}, \"compute_us\": {:.3}, \"exposed_comm_us\": {:.3}, \
                 \"exposed_remote_mem_us\": {:.3}, \"exposed_local_mem_us\": {:.3}, \
                 \"idle_us\": {:.3}, \"finish_us\": {:.3}}}",
                n.npu,
                n.compute.as_us_f64(),
                n.exposed_comm.as_us_f64(),
                n.exposed_remote_mem.as_us_f64(),
                n.exposed_local_mem.as_us_f64(),
                n.idle.as_us_f64(),
                n.finish.as_us_f64()
            )
        })
        .collect();
    let pct = |p: &astra_core::PercentileSummary| {
        format!(
            "{{\"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}",
            p.p50.as_us_f64(),
            p.p99.as_us_f64(),
            p.max.as_us_f64()
        )
    };
    format!(
        "{{\"links\": [{}], \"npus\": [{}], \"npu_finish_us\": {}, \
         \"collective_duration_us\": {}}}",
        links.join(", "),
        npus.join(", "),
        pct(&m.npu_finish),
        pct(&m.collective_duration)
    )
}

/// Renders a report as text or JSON per the options.
pub fn render(opts: &CliOptions, report: &SimReport) -> String {
    if opts.json {
        let b = &report.breakdown;
        let mut out = format!(
            concat!(
                "{{\n",
                "  \"total_us\": {:.3},\n",
                "  \"compute_us\": {:.3},\n",
                "  \"exposed_comm_us\": {:.3},\n",
                "  \"exposed_remote_mem_us\": {:.3},\n",
                "  \"exposed_local_mem_us\": {:.3},\n",
                "  \"exposed_idle_us\": {:.3},\n",
                "  \"collectives\": {},\n",
                "  \"collective_ops\": {},\n",
                "  \"p2p_messages\": {},\n",
                "  \"network_messages\": {},\n",
                "  \"network_backend_setups\": {},\n",
                "  \"network_events\": {},\n",
                "  \"p2p_cache_hits\": {},\n",
                "  \"train_serializations\": {},\n",
                "  \"train_splits\": {},\n",
                "  \"cache_delay_hits\": {},\n",
                "  \"cache_delay_misses\": {},\n",
                "  \"cache_lowering_hits\": {},\n",
                "  \"cache_lowering_misses\": {},\n",
                "  \"cache_trace_hits\": {},\n",
                "  \"cache_trace_misses\": {},\n",
                "  \"cache_result_hits\": {},\n",
                "  \"cache_result_misses\": {},\n",
            ),
            report.total_time.as_us_f64(),
            b.compute.as_us_f64(),
            b.exposed_comm.as_us_f64(),
            b.exposed_remote_mem.as_us_f64(),
            b.exposed_local_mem.as_us_f64(),
            b.exposed_idle.as_us_f64(),
            report.collectives,
            report.collective_ops,
            report.p2p_messages,
            report.network.messages,
            report.network.backend_setups,
            report.network.events,
            report.network.cache_hits,
            report.network.train_serializations,
            report.network.train_splits,
            report.cache.delay_hits,
            report.cache.delay_misses,
            report.cache.lowering_hits,
            report.cache.lowering_misses,
            report.cache.trace_hits,
            report.cache.trace_misses,
            report.cache.result_hits,
            report.cache.result_misses,
        );
        // Per-fault blast-radius rows — always present (empty array for
        // the common fault-free run) so consumers need no key probing.
        let faults: Vec<String> = report
            .faults
            .iter()
            .map(|f| {
                format!(
                    "{{\"event\": {}, \"kind\": \"{}\", \"affected\": {}, \
                     \"extra_us\": {:.3}}}",
                    f.event,
                    json_escape(&f.kind),
                    f.affected,
                    f.extra_time.as_us_f64()
                )
            })
            .collect();
        out.push_str(&format!("  \"faults\": [{}]", faults.join(", ")));
        if let Some(m) = &report.metrics {
            out.push_str(&format!(",\n  \"metrics\": {}", metrics_json(m)));
        }
        out.push_str("\n}");
        out
    } else {
        let mut text = format!(
            "total: {}\nbreakdown: {}\ncollectives: {}  p2p messages: {}",
            report.total_time, report.breakdown, report.collectives, report.p2p_messages
        );
        if report.collective_ops > 0 {
            // Backend collective execution: the system layer decomposed
            // collectives into this many chunk-level send/recv ops.
            text.push_str(&format!(
                "  collective chunk ops: {}",
                report.collective_ops
            ));
        }
        if report.p2p_messages > 0 || report.collective_ops > 0 {
            let n = &report.network;
            text.push_str(&format!(
                "\nnetwork: {} setup(s)  {} events  {} cache hits",
                n.backend_setups, n.events, n.cache_hits
            ));
            if n.train_splits > 0 {
                // Overlapping trains were split at their interleave points
                // and replayed per-packet (bit-identical fast path).
                text.push_str(&format!("  {} train split(s)", n.train_splits));
            }
            if n.train_serializations > 0 {
                // The batched-transport approximation fired: concurrent
                // trains that per-packet mode would interleave were
                // serialized whole (their reservations were no longer
                // rewindable).
                text.push_str(&format!(
                    "  {} train serialization(s) (batched-mode approximation)",
                    n.train_serializations
                ));
            }
        }
        let c = &report.cache;
        if c.total_hits() + c.total_misses() > 0 {
            // Per-cache hit/miss pairs; deterministic, so warm and cold
            // runs print identical counters.
            text.push_str(&format!("\ncaches: {c}"));
        }
        if !report.faults.is_empty() {
            // Blast radius of each injected fault: what it touched and
            // the simulated time attributed to it.
            text.push_str("\nfaults:");
            for f in &report.faults {
                text.push_str(&format!(
                    "\n  [{}] {}: {} affected, +{}",
                    f.event, f.kind, f.affected, f.extra_time
                ));
            }
        }
        if let Some(m) = &report.metrics {
            text.push_str(&format!(
                "\ntelemetry: {} traced link(s)  npu finish p50 {} max {}  \
                 collective p50 {} max {}",
                m.links.len(),
                m.npu_finish.p50,
                m.npu_finish.max,
                m.collective_duration.p50,
                m.collective_duration.max
            ));
            if let Some(top) = m.links.iter().max_by_key(|l| l.utilization_permille) {
                text.push_str(&format!(
                    "  busiest link {} at {}.{}% util",
                    top.link,
                    top.utilization_permille / 10,
                    top.utilization_permille % 10
                ));
            }
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_full_invocation() {
        let opts = parse_args(&args(
            "--topology R(4)@200_SW(4)@50 --workload gpt3 --mp 4 --themis --chunks 64",
        ))
        .unwrap();
        assert_eq!(opts.topology, "R(4)@200_SW(4)@50");
        assert_eq!(opts.workload.as_deref(), Some("gpt3"));
        assert_eq!(opts.mp, Some(4));
        assert!(opts.themis);
        assert_eq!(opts.chunks, Some(64));
    }

    #[test]
    fn accepts_the_three_documented_invocations() {
        // The three invocations from this module's docs, minus shell quoting.
        let gpt3 = parse_args(&args(
            "--topology R(4)@250_SW(2)@50 --workload gpt3 --mp 4 --themis",
        ))
        .unwrap();
        assert_eq!(gpt3.topology, "R(4)@250_SW(2)@50");
        assert_eq!(gpt3.workload.as_deref(), Some("gpt3"));
        assert_eq!(gpt3.mp, Some(4));
        assert!(gpt3.themis);

        let microbench = parse_args(&args("--topology SW(64)@600 --all-reduce-mib 1024")).unwrap();
        assert_eq!(microbench.topology, "SW(64)@600");
        assert_eq!(microbench.all_reduce_mib, Some(1024));
        assert!(microbench.workload.is_none());

        let moe = parse_args(&args(
            "--topology SW(16)@256_SW(16)@100 --workload moe --memory hiermem-opt --json",
        ))
        .unwrap();
        assert_eq!(moe.topology, "SW(16)@256_SW(16)@100");
        assert_eq!(moe.workload.as_deref(), Some("moe"));
        assert_eq!(moe.memory.as_deref(), Some("hiermem-opt"));
        assert!(moe.json);
    }

    #[test]
    fn requires_topology_and_workload() {
        assert!(parse_args(&args("--workload gpt3")).is_err());
        assert!(parse_args(&args("--topology R(4)")).is_err());
    }

    #[test]
    fn missing_topology_error_is_readable() {
        let e = parse_args(&args("--workload gpt3")).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("--topology is required"),
            "unhelpful error: {msg}"
        );
        assert!(msg.contains("USAGE"), "error should include usage: {msg}");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&args("--topology R(4) --frobnicate")).is_err());
        assert!(parse_args(&args("--topology R(4) --all-reduce-mib abc")).is_err());
    }

    #[test]
    fn parses_network_backend() {
        for (flag, kind) in [
            ("analytical", NetworkBackendKind::Analytical),
            ("packet", NetworkBackendKind::Packet),
            ("batched", NetworkBackendKind::Batched),
            ("flow", NetworkBackendKind::Flow),
        ] {
            let opts = parse_args(&args(&format!(
                "--topology SW(8)@400 --all-reduce-mib 64 --network {flag}"
            )))
            .unwrap();
            assert_eq!(opts.network, Some(kind));
        }
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --network garnet",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("garnet"));
    }

    #[test]
    fn network_backends_run_pipeline_workload() {
        // `--pipeline` generates stage-to-stage sends — the traffic the
        // `--network` backend routes; every backend must drive the p2p
        // path in both engine integration modes.
        let base = "--topology R(8)@100 --workload gpt3 --pipeline 4 --network";
        let run_with = |backend: &str, mode: &str| {
            run(&parse_args(&args(&format!("{base} {backend} --p2p {mode}"))).unwrap()).unwrap()
        };
        for mode in ["async", "blocking"] {
            for backend in ["analytical", "packet", "batched", "flow"] {
                let report = run_with(backend, mode);
                assert!(report.p2p_messages > 0, "{backend} {mode}");
                assert!(
                    report.total_time > astra_core::Time::ZERO,
                    "{backend} {mode}"
                );
            }
        }
        // Under the frozen blocking reference every probe train stays
        // contiguous, so batched transport remains bit-identical to
        // per-packet.
        let packet = run_with("packet", "blocking");
        let batched = run_with("batched", "blocking");
        assert_eq!(packet.total_time, batched.total_time);
        assert_eq!(packet.p2p_messages, batched.p2p_messages);
        // Under the async path this 2-lane pipeline's multi-hop ring sends
        // interleave packet-by-packet on shared links: batched transport
        // splits the overlapping trains where it can rewind them (the
        // bit-identical fast path) and serializes the rest (the counted
        // approximation); either way the overlap is surfaced.
        let packet_async = run_with("packet", "async");
        let batched_async = run_with("batched", "async");
        let n = &batched_async.network;
        assert!(n.train_splits + n.train_serializations > 0);
        assert_eq!(batched_async.network.backend_setups, 1);
        assert!(packet_async.total_time >= packet.total_time);
    }

    #[test]
    fn collectives_flag_parses_and_rejects_invalid_combos() {
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives backend",
        ))
        .unwrap();
        assert_eq!(opts.collectives, Some(CollectiveMode::Backend));
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives analytical",
        ))
        .unwrap();
        assert_eq!(opts.collectives, Some(CollectiveMode::Analytical));
        // Unknown mode names are reported back.
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives garnet",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("garnet"));
        // Backend collectives ride the async NetworkAPI: the blocking
        // reference path is rejected with a clear error, not a panic.
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives backend --p2p blocking",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--p2p blocking"), "{e}");
        // ...and so is the Themis planner, which only applies to the
        // analytical fast path.
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives backend --themis",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--themis"), "{e}");
        // The valid combinations still parse.
        assert!(parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives backend --p2p async",
        ))
        .is_ok());
        assert!(parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives analytical --themis",
        ))
        .is_ok());
    }

    #[test]
    fn backend_collectives_run_on_every_network_backend() {
        // `astra --collectives backend --network <each>` runs end-to-end,
        // decomposing the collective into chunk ops; the analytical
        // collective mode never issues chunk ops.
        for backend in ["analytical", "packet", "batched", "flow"] {
            let opts = parse_args(&args(&format!(
                "--topology SW(8)@100_SW(2)@50 --all-reduce-mib 64 \
                 --collectives backend --network {backend} --chunks 8"
            )))
            .unwrap();
            let report = run(&opts).unwrap();
            assert!(report.total_time > astra_core::Time::ZERO, "{backend}");
            assert_eq!(report.collectives, 1, "{backend}");
            assert_eq!(report.collective_ops, 8 * 4, "{backend}");
        }
        let opts = parse_args(&args(
            "--topology SW(8)@100_SW(2)@50 --all-reduce-mib 64 --collectives analytical",
        ))
        .unwrap();
        assert_eq!(run(&opts).unwrap().collective_ops, 0);
    }

    #[test]
    fn usage_documents_the_collectives_flag() {
        assert!(USAGE.contains("--collectives"));
        assert!(USAGE.contains("backend"));
    }

    #[test]
    fn p2p_mode_flag_parses_and_rejects_unknown() {
        let opts = parse_args(&args(
            "--topology R(8)@100 --workload gpt3 --pipeline 4 --p2p blocking",
        ))
        .unwrap();
        assert_eq!(opts.p2p, Some(P2pMode::Blocking));
        let e = parse_args(&args(
            "--topology R(8)@100 --workload gpt3 --pipeline 4 --p2p eager",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("eager"));
    }

    #[test]
    fn sweep_args_parse_and_validate() {
        use astra_bench::throughput::SeriesSelection;
        let opts =
            parse_sweep_args(&args("--quick --out /tmp/x.json --series engine-p2p")).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.out, "/tmp/x.json");
        assert_eq!(
            opts.series,
            SeriesSelection::NONE.enable("engine-p2p").unwrap()
        );
        let all = parse_sweep_args(&[]).unwrap();
        assert_eq!(all.series, SeriesSelection::ALL);
        assert_eq!(all.out, "BENCH_sweep.json");
        assert!(parse_sweep_args(&args("--series ladder")).is_err());
        assert!(parse_sweep_args(&args("--frobnicate")).is_err());
        assert!(parse_sweep_args(&args("--out")).is_err());
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let opts = parse_serve_args(&args("--workers 4 --socket /tmp/a.sock")).unwrap();
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.socket.as_deref(), Some("/tmp/a.sock"));
        assert_eq!(opts.max_connections, None);
        let opts = parse_serve_args(&args("--max-connections 2")).unwrap();
        assert_eq!(opts.max_connections, Some(2));
        assert!(parse_serve_args(&[]).unwrap().workers >= 1);
        assert!(parse_serve_args(&args("--workers 0")).is_err());
        assert!(parse_serve_args(&args("--max-connections 0")).is_err());
        assert!(parse_serve_args(&args("--frobnicate")).is_err());
        assert!(parse_serve_args(&args("--socket")).is_err());
    }

    #[test]
    fn usage_documents_the_serve_subcommand() {
        assert!(USAGE.contains("astra serve"));
        assert!(USAGE.contains("--workers"));
        assert!(USAGE.contains("bit-identical"));
    }

    #[test]
    fn single_run_matches_its_serve_request() {
        // `run` and the batch service share one execution path; the
        // request form of an invocation produces the same report.
        let opts = parse_args(&args("--topology SW(8)@400 --all-reduce-mib 64")).unwrap();
        let report = run(&opts).unwrap();
        let via_serve = astra_serve::execute_once(&to_request(&opts)).unwrap();
        assert_eq!(report, via_serve);
    }

    #[test]
    fn pipeline_flag_parses_and_validates() {
        let opts = parse_args(&args("--topology R(8)@100 --workload gpt3 --pipeline 4")).unwrap();
        assert_eq!(opts.pipeline, Some(4));
        assert!(parse_args(&args("--topology R(8)@100 --workload gpt3 --pipeline x")).is_err());
        let zero = parse_args(&args("--topology R(8)@100 --workload gpt3 --pipeline 0")).unwrap();
        assert!(run(&zero).unwrap_err().to_string().contains("--pipeline"));
    }

    #[test]
    fn runs_microbenchmark() {
        let opts = parse_args(&args("--topology SW(16)@400 --all-reduce-mib 256")).unwrap();
        let report = run(&opts).unwrap();
        assert!(report.total_time > astra_core::Time::ZERO);
        let text = render(&opts, &report);
        assert!(text.contains("total:"));
    }

    #[test]
    fn runs_workload_with_fsdp() {
        let opts = parse_args(&args(
            "--topology SW(8)@400 --workload gpt3 --fsdp --chunks 16",
        ))
        .unwrap();
        let report = run(&opts).unwrap();
        assert!(report.collectives > 0);
    }

    #[test]
    fn moe_requires_memory_system() {
        let opts = parse_args(&args("--topology SW(16)@256_SW(16)@100 --workload moe")).unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.to_string().contains("--memory"));
    }

    #[test]
    fn json_output_is_parseable() {
        let opts = parse_args(&args("--topology SW(8)@400 --all-reduce-mib 64 --json")).unwrap();
        let report = run(&opts).unwrap();
        let text = render(&opts, &report);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(v["total_us"].as_f64().unwrap() > 0.0);
        // The network counters (incl. the batched-mode approximation
        // signal) are part of the machine-readable surface.
        for key in [
            "network_messages",
            "network_backend_setups",
            "network_events",
            "p2p_cache_hits",
            "train_serializations",
            "train_splits",
            "cache_delay_hits",
            "cache_delay_misses",
            "cache_lowering_hits",
            "cache_lowering_misses",
            "cache_trace_hits",
            "cache_trace_misses",
            "cache_result_hits",
            "cache_result_misses",
        ] {
            assert!(v[key].as_f64().is_some(), "missing {key}");
        }
        // The blast-radius array is always present (empty without --faults).
        assert_eq!(v["faults"].as_array().map(Vec::len), Some(0));
        // ...but metrics appear only on traced runs.
        assert!(v.get("metrics").is_none());
        // The analytical backend memoizes (src, dst, size) delays for p2p
        // traffic; a pipeline run's report carries the per-run pair.
        let opts = parse_args(&args(
            "--topology R(8)@100 --workload gpt3 --pipeline 4 --json",
        ))
        .unwrap();
        let report = run(&opts).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&render(&opts, &report)).expect("valid JSON");
        assert!(v["cache_delay_misses"].as_f64().unwrap() > 0.0);
        assert!(v["cache_delay_hits"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn trace_flags_parse_and_validate() {
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --trace-out /tmp/t.json --trace-format jsonl",
        ))
        .unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(opts.trace_format, Some(TraceFormat::Jsonl));
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --trace-out out.trace --metrics",
        ))
        .unwrap();
        assert_eq!(opts.trace_format, None);
        assert!(opts.metrics);
        // Unknown formats and a format without an output path are rejected.
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --trace-out t --trace-format perfetto",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("perfetto"));
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --trace-format chrome",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--trace-out"), "{e}");
    }

    #[test]
    fn traced_run_writes_the_trace_and_attaches_metrics() {
        let dir = std::env::temp_dir().join(format!("astra-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("run.trace.json");
        let jsonl = dir.join("run.trace.jsonl");
        let base = format!(
            "--topology SW(4)@400 --all-reduce-mib 16 --json --metrics --trace-out {}",
            chrome.display()
        );
        let opts = parse_args(&args(&base)).unwrap();
        // The report matches the untraced run apart from the metrics.
        let mut stripped = run(&opts).unwrap();
        stripped.metrics = None;
        let plain = parse_args(&args("--topology SW(4)@400 --all-reduce-mib 16 --json")).unwrap();
        assert_eq!(stripped, run(&plain).unwrap());
        // Chrome export: a JSON object with a traceEvents array.
        let text = std::fs::read_to_string(&chrome).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid chrome trace");
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
        // JSONL export: every line is a standalone JSON record.
        let opts = parse_args(&args(&format!(
            "--topology SW(4)@400 --all-reduce-mib 16 --trace-out {} --trace-format jsonl",
            jsonl.display()
        )))
        .unwrap();
        run(&opts).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.lines().count() > 0);
        for line in text.lines() {
            serde_json::from_str::<serde_json::Value>(line).expect("valid JSONL record");
        }
        // The JSON report gains a "metrics" object on traced runs.
        let opts = parse_args(&args(
            "--topology SW(4)@400 --all-reduce-mib 16 --json --metrics",
        ))
        .unwrap();
        let report = run(&opts).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&render(&opts, &report)).expect("valid JSON");
        assert_eq!(v["metrics"]["npus"].as_array().map(Vec::len), Some(4));
        assert!(v["metrics"]["npu_finish_us"]["max"].as_f64().unwrap() > 0.0);
        // ...and the text report gains a telemetry line.
        let text_opts =
            parse_args(&args("--topology SW(4)@400 --all-reduce-mib 16 --metrics")).unwrap();
        let text = render(&text_opts, &run(&text_opts).unwrap());
        assert!(text.contains("telemetry:"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_impacts_surface_in_text_and_json_output() {
        let dir = std::env::temp_dir().join(format!("astra-cli-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("faults.json");
        std::fs::write(
            &spec,
            r#"[{"at_us": 0, "kind": "npu_slowdown", "npu": 0, "slowdown_pct": 150}]"#,
        )
        .unwrap();
        let base = format!(
            "--topology R(8)@100 --workload gpt3 --pipeline 4 --faults {}",
            spec.display()
        );
        let opts = parse_args(&args(&base)).unwrap();
        let report = run(&opts).unwrap();
        assert!(!report.faults.is_empty());
        let text = render(&opts, &report);
        assert!(text.contains("faults:"), "{text}");
        assert!(text.contains("npu_slowdown"), "{text}");
        let json_opts = parse_args(&args(&format!("{base} --json"))).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&render(&json_opts, &report)).expect("valid JSON");
        let rows = v["faults"].as_array().unwrap();
        assert_eq!(rows.len(), report.faults.len());
        assert!(rows[0]["kind"].as_str().unwrap().contains("npu_slowdown"));
        assert!(rows[0]["affected"].as_f64().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_documents_the_telemetry_flags() {
        for flag in ["--trace-out", "--trace-format", "--metrics"] {
            assert!(USAGE.contains(flag), "USAGE missing {flag}");
        }
        assert!(USAGE.contains("Perfetto"));
    }

    #[test]
    fn unknown_workload_and_memory_reported() {
        let opts = parse_args(&args("--topology SW(8)@400 --workload bert")).unwrap();
        assert!(run(&opts).unwrap_err().to_string().contains("bert"));
        let opts = parse_args(&args("--topology SW(8)@400 --workload gpt3 --memory dram")).unwrap();
        assert!(run(&opts).unwrap_err().to_string().contains("dram"));
    }
}
