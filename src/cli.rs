//! Command-line interface for running simulations without writing Rust.
//!
//! ```text
//! astra --topology "R(4)@250_SW(2)@50" --workload gpt3 --mp 4 --themis
//! astra --topology "SW(64)@600" --all-reduce-mib 1024
//! astra --topology "SW(16)@256_SW(16)@100" --workload moe --memory hiermem-opt --json
//! ```
//!
//! The request flags are the rows of [`astra_serve::FIELDS`], the schema
//! `astra serve` reads its JSON requests with.

use astra_bench::throughput::{self, Series, SERIES};
use astra_core::{MetricsReport, SimReport, TraceFormat};
use astra_serve::{Field, FieldKind, SimRequest, FIELDS};
use std::error::Error;
use std::fmt;
use std::io::Write;

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// The simulation request: every `astra serve` request field except
    /// `id` and inline `faults`, one `--kebab-name` flag each.
    pub request: SimRequest,
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

/// An error whose message is followed by the usage text.
fn with_usage(msg: impl fmt::Display) -> CliError {
    err(format!("{msg}\n\n{}", usage()))
}

/// Usage text printed for `--help` or on parse errors. The request
/// options and the serve field list are generated from
/// [`astra_serve::FIELDS`], the sweep series list from [`SERIES`].
pub fn usage() -> String {
    let mut request = String::new();
    for field in FIELDS {
        let mut help = field.help.to_owned();
        if let FieldKind::Enum(names, _) = field.kind {
            help = format!(
                "{} (default) | {}: {help}",
                names[0],
                names[1..].join(" | ")
            );
        }
        let head = format!("{} {}", field.flag(), field.value);
        let body = wrap(&help, 50).join(&format!("\n{:28}", ""));
        request.push_str(&format!("    {:<24}{body}\n", head.trim_end()));
    }
    let names: Vec<&str> = FIELDS.iter().map(|f| f.name).collect();
    let fields = wrap(&names.join(", "), 64).join("\n        ");
    let mut series = String::new();
    for (default, label) in [(true, "default"), (false, "opt-in")] {
        let names: Vec<&str> = SERIES
            .iter()
            .filter(|s| s.default == default)
            .map(|s| s.name)
            .collect();
        let body = wrap(&names.join(", "), 50).join(&format!("\n{:28}", ""));
        series.push_str(&format!("      {:<22}{body}\n", format!("{label}:")));
    }
    format!(
        "\
astra — ASTRA-sim 2.0 reproduction CLI

USAGE:
    astra --topology <NOTATION> (--workload <NAME> | --all-reduce-mib <MiB>) [OPTIONS]
    astra sweep [--quick] [--out <PATH>] [--series <LIST>]
    astra serve [--workers <N>] [--socket <PATH>] [--max-connections <N>]

REQUEST (each flag is also an `astra serve` request field, snake_case):
{request}
OPTIONS:
    --faults <SPEC.json>    deterministic fault schedule: a JSON array of
                            fault objects, e.g.
                            [{{\"at_us\": 0, \"kind\": \"link_down\",
                              \"src\": 0, \"dst\": 1}}]; kinds: link_down,
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
                            the config (bit-identical across serve
                            workers)
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

SWEEP (benchmark and paper-experiment series, writes BENCH_throughput.json-style JSON):
    astra sweep [--quick] [--out <PATH>] [--series <LIST>]
    --quick                 CI-sized payloads and scales
    --out <PATH>            output JSON path (default BENCH_sweep.json)
    --series <LIST>         comma-separated series to run instead of the
                            default ones
{series}
SERVE (batch service: JSONL requests in, one JSON report row per line out):
    astra serve [--workers <N>] [--socket <PATH>] [--max-connections <N>]
    --workers <N>           worker threads for the request pool (default:
                            available cores); response rows are
                            bit-identical for every N
    --socket <PATH>         listen on a unix socket instead of reading
                            stdin (one batch per connection; warm caches
                            persist across connections)
    --max-connections <N>   stop after N socket connections
    Request fields:
        {fields}
    plus an echoed `id` and an inline `faults` array (the --faults
    format). Warm caches only change speed: every row is bit-identical
    to a cold single run of the same request.
"
    )
}

/// Greedy word wrap of `text` into lines of at most `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in text.split(' ') {
        match lines.last_mut() {
            Some(line) if line.len() + 1 + word.len() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_owned()),
        }
    }
    lines
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem (unknown flag,
/// missing or malformed value, missing required option).
pub fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    let mut opts = CliOptions {
        request: SimRequest::default(),
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
            "--faults" => opts.faults = Some(value("--faults")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-format" => {
                opts.trace_format = Some(value("--trace-format")?.parse().map_err(err)?);
            }
            "--metrics" => opts.metrics = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(err(usage())),
            flag => {
                let Some(field) = Field::for_flag(flag) else {
                    return Err(with_usage(format_args!("unknown argument `{flag}`")));
                };
                let text = match field.kind {
                    FieldKind::Bool(_) => None,
                    _ => Some(value(flag)?),
                };
                field
                    .read_arg(&mut opts.request, text.as_deref())
                    .map_err(|e| err(e.message))?;
            }
        }
    }
    opts.request
        .check_required()
        .map_err(|e| with_usage(e.message))?;
    if opts.trace_format.is_some() && opts.trace_out.is_none() {
        return Err(err("--trace-format requires --trace-out"));
    }
    Ok(opts)
}

/// Runs a parsed CLI invocation, returning the report. The request runs
/// on the `astra serve` execution path.
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
    let mut req = opts.request.clone();
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

/// Options of the `astra sweep` subcommand, which runs rows of the
/// `astra-bench` series table and writes their machine-readable JSON
/// report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// CI-sized payloads and scales instead of the full study.
    pub quick: bool,
    /// Output JSON path.
    pub out: String,
    /// Which series to run.
    pub series: Vec<&'static Series>,
}

/// Parses `astra sweep` arguments (everything after the `sweep` keyword).
///
/// # Errors
///
/// Returns a [`CliError`] on unknown flags, missing values, or unknown
/// series names.
pub fn parse_sweep_args(args: &[String]) -> Result<SweepOptions, CliError> {
    let mut opts = SweepOptions {
        quick: false,
        out: "BENCH_sweep.json".to_owned(),
        series: throughput::default_series(),
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
                opts.series = throughput::parse_series(&list).map_err(|unknown| {
                    let names: Vec<&str> = SERIES.iter().map(|s| s.name).collect();
                    err(format!(
                        "unknown series `{unknown}` (expected one of {})",
                        names.join(", ")
                    ))
                })?;
                if opts.series.is_empty() {
                    return Err(err("--series selected nothing"));
                }
            }
            "--help" | "-h" => return Err(err(usage())),
            other => return Err(with_usage(format_args!("unknown sweep argument `{other}`"))),
        }
    }
    Ok(opts)
}

/// Runs a parsed `astra sweep` invocation: executes the selected series,
/// prints the comparison tables to stdout, and writes the JSON report to
/// `opts.out`.
///
/// Like a single run, a sweep whose stdout reader goes away
/// (`astra sweep … | head -1`) ends quietly at the failed write; it then
/// runs no further series and writes no report.
///
/// # Errors
///
/// Returns a [`CliError`] if the output file cannot be written or stdout
/// fails for any reason but a closed pipe.
pub fn run_sweep(opts: &SweepOptions) -> Result<(), CliError> {
    // Each write locks stdout on its own: no lock is held while series run.
    let mut stdout = std::io::stdout();
    let report = match throughput::run(opts.quick, &opts.series, &mut stdout) {
        Ok(report) => report,
        Err(e) => return closed_pipe_or_error(e),
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| err(format!("serialize: {e}")))?;
    std::fs::write(&opts.out, &json)
        .map_err(|e| err(format!("failed to write {}: {e}", opts.out)))?;
    writeln!(stdout, "\nwrote {}", opts.out).or_else(closed_pipe_or_error)
}

/// A failed stdout write: a closed pipe ends the command quietly, any
/// other error fails it.
fn closed_pipe_or_error(e: std::io::Error) -> Result<(), CliError> {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        Ok(())
    } else {
        Err(err(format!("stdout: {e}")))
    }
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
            "--help" | "-h" => return Err(err(usage())),
            other => return Err(with_usage(format_args!("unknown serve argument `{other}`"))),
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
    use std::io::BufRead;
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
    use astra_core::{CollectiveMode, NetworkBackendKind};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_full_invocation() {
        let opts = parse_args(&args(
            "--topology R(4)@200_SW(4)@50 --workload gpt3 --mp 4 --themis --chunks 64",
        ))
        .unwrap();
        assert_eq!(opts.request.topology, "R(4)@200_SW(4)@50");
        assert_eq!(opts.request.workload.as_deref(), Some("gpt3"));
        assert_eq!(opts.request.mp, Some(4));
        assert!(opts.request.themis);
        assert_eq!(opts.request.chunks, Some(64));
    }

    #[test]
    fn accepts_the_three_documented_invocations() {
        // The three invocations from this module's docs, minus shell quoting.
        let gpt3 = parse_args(&args(
            "--topology R(4)@250_SW(2)@50 --workload gpt3 --mp 4 --themis",
        ))
        .unwrap();
        assert_eq!(gpt3.request.topology, "R(4)@250_SW(2)@50");
        assert_eq!(gpt3.request.workload.as_deref(), Some("gpt3"));
        assert_eq!(gpt3.request.mp, Some(4));
        assert!(gpt3.request.themis);

        let microbench = parse_args(&args("--topology SW(64)@600 --all-reduce-mib 1024")).unwrap();
        assert_eq!(microbench.request.topology, "SW(64)@600");
        assert_eq!(microbench.request.all_reduce_mib, Some(1024));
        assert!(microbench.request.workload.is_none());

        let moe = parse_args(&args(
            "--topology SW(16)@256_SW(16)@100 --workload moe --memory hiermem-opt --json",
        ))
        .unwrap();
        assert_eq!(moe.request.topology, "SW(16)@256_SW(16)@100");
        assert_eq!(moe.request.workload.as_deref(), Some("moe"));
        assert_eq!(moe.request.memory.as_deref(), Some("hiermem-opt"));
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
            msg.contains("`topology` is required"),
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
            ("batched", NetworkBackendKind::Packet),
            ("flow", NetworkBackendKind::Flow),
        ] {
            let opts = parse_args(&args(&format!(
                "--topology SW(8)@400 --all-reduce-mib 64 --network {flag}"
            )))
            .unwrap();
            assert_eq!(opts.request.network, Some(kind));
        }
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --network garnet",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("garnet"));
        // `batched` still parses, but neither the error nor the usage
        // text it carries lists it.
        assert!(!e.to_string().contains("batched"), "{e}");
    }

    #[test]
    fn network_backends_run_pipeline_workload() {
        // `--pipeline` generates stage-to-stage sends — the traffic the
        // `--network` backend routes; every backend must drive the p2p
        // path. (The blocking-reference comparisons on this workload live
        // in `crates/system/tests/p2p_paths.rs`.)
        let base = "--topology R(8)@100 --workload gpt3 --pipeline 4 --network";
        let run_with =
            |backend: &str| run(&parse_args(&args(&format!("{base} {backend}"))).unwrap()).unwrap();
        for backend in ["analytical", "packet", "flow"] {
            let report = run_with(backend);
            assert!(report.p2p_messages > 0, "{backend}");
            assert!(report.total_time > astra_core::Time::ZERO, "{backend}");
        }
        // `batched`, the retired name of train transport, is `packet`.
        assert_eq!(run_with("batched"), run_with("packet"));
    }

    #[test]
    fn collectives_flag_parses_and_rejects_invalid_combos() {
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives backend",
        ))
        .unwrap();
        assert_eq!(opts.request.collectives, Some(CollectiveMode::Backend));
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives analytical",
        ))
        .unwrap();
        assert_eq!(opts.request.collectives, Some(CollectiveMode::Analytical));
        // Unknown mode names are reported back.
        let e = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives garnet",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("garnet"));
        // The Themis planner only applies to the analytical fast path: the
        // simulator rejects it with backend collectives, a clear error
        // rather than a panic.
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives backend --themis",
        ))
        .unwrap();
        let e = run(&opts).unwrap_err();
        assert!(e.to_string().contains("Themis"), "{e}");
        // The valid combination runs.
        let opts = parse_args(&args(
            "--topology SW(8)@400 --all-reduce-mib 64 --collectives analytical --themis",
        ))
        .unwrap();
        assert!(run(&opts).is_ok());
    }

    #[test]
    fn backend_collectives_run_on_every_network_backend() {
        // `astra --collectives backend --network <each>` runs end-to-end,
        // decomposing the collective into chunk ops; the analytical
        // collective mode never issues chunk ops.
        for backend in ["analytical", "packet", "flow"] {
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
        assert!(usage().contains("--collectives"));
        assert!(usage().contains("backend"));
    }

    /// Every row of the request schema reads the same from `astra` and
    /// `astra serve`, is documented, and is part of the result-cache key.
    #[test]
    fn every_request_field_reads_the_same_from_flags_and_json() {
        let base_args = "--topology SW(8)@400 --all-reduce-mib 64";
        let base_json = r#""topology": "SW(8)@400", "all_reduce_mib": 64"#;
        let base = parse_args(&args(base_args)).unwrap().request;
        assert_eq!(
            base,
            SimRequest::from_json_line(&format!("{{{base_json}}}")).unwrap()
        );
        let text = usage();
        let (options, serve) = text.split_once("SERVE").unwrap();
        for field in FIELDS {
            // A valid value that differs from the base request's.
            let (arg, json) = match field.kind {
                FieldKind::Str(_) => (Some("sample".to_owned()), "\"sample\"".to_owned()),
                FieldKind::Enum(names, _) => {
                    let name = names[names.len() - 1];
                    (Some(name.to_owned()), format!("\"{name}\""))
                }
                FieldKind::Int(_) | FieldKind::Count(_) => (Some("7".to_owned()), "7".to_owned()),
                FieldKind::Bool(_) => (None, "true".to_owned()),
            };
            let flag = field.flag();
            let line = match &arg {
                Some(arg) => format!("{base_args} {flag} {arg}"),
                None => format!("{base_args} {flag}"),
            };
            let from_cli = parse_args(&args(&line))
                .unwrap_or_else(|e| panic!("{flag}: {e}"))
                .request;
            let from_json =
                SimRequest::from_json_line(&format!("{{{base_json}, \"{}\": {json}}}", field.name))
                    .unwrap_or_else(|e| panic!("{}: {e}", field.name));
            assert_eq!(from_cli, from_json, "{}", field.name);
            assert_ne!(
                from_cli.canonical_key(),
                base.canonical_key(),
                "{} is missing from the cache key",
                field.name
            );
            assert!(
                options.contains(&format!("\n    {flag} ")),
                "usage misses {flag}"
            );
            assert!(
                serve.contains(field.name),
                "serve fields miss {}",
                field.name
            );
            // Every listed name of an enum field parses.
            if let FieldKind::Enum(names, _) = field.kind {
                for name in names {
                    let mut req = SimRequest::default();
                    field.read_arg(&mut req, Some(name)).unwrap();
                }
            }
        }
    }

    #[test]
    fn request_value_errors_use_the_serve_wording() {
        let e = parse_args(&args("--topology R(4) --workload gpt3 --mp x")).unwrap_err();
        assert_eq!(e.to_string(), "`mp` expects a non-negative integer");
        let e = parse_args(&args("--topology R(4) --all-reduce-mib 1 --max-events 0"));
        assert_eq!(
            e.unwrap_err().to_string(),
            "`max_events` must be at least 1"
        );
        // `id` and inline `faults` are serve-only; `--p2p` is gone.
        for flag in ["--id", "--p2p"] {
            let e = parse_args(&args(&format!(
                "--topology R(4) --all-reduce-mib 1 {flag} x"
            )));
            assert!(e.unwrap_err().to_string().contains("unknown argument"));
        }
    }

    #[test]
    fn sweep_args_parse_and_validate() {
        let opts =
            parse_sweep_args(&args("--quick --out /tmp/x.json --series engine-p2p")).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.out, "/tmp/x.json");
        assert_eq!(opts.series, throughput::parse_series("engine-p2p").unwrap());
        let all = parse_sweep_args(&[]).unwrap();
        assert_eq!(all.series, throughput::default_series());
        assert_eq!(all.out, "BENCH_sweep.json");
        assert!(parse_sweep_args(&args("--series ladder")).is_err());
        assert!(parse_sweep_args(&args("--frobnicate")).is_err());
        assert!(parse_sweep_args(&args("--out")).is_err());
    }

    #[test]
    fn every_series_row_parses_is_documented_and_runs() {
        let help = usage();
        let mut opt_in = Vec::new();
        for (i, series) in SERIES.iter().enumerate() {
            let opts = parse_sweep_args(&args(&format!("--series {}", series.name))).unwrap();
            assert_eq!(opts.series, vec![series]);
            assert!(help.contains(series.name), "help misses {}", series.name);
            assert!(
                SERIES[..i]
                    .iter()
                    .all(|s| s.name != series.name && s.key != series.key),
                "duplicate series {}",
                series.name
            );
            if !series.default {
                opt_in.push(series);
            }
        }
        // One quick run of every opt-in row; the default rows run in
        // `throughput::tests::quick_report_is_valid_json_with_rows`.
        let report = throughput::run(true, &opt_in, &mut std::io::sink()).unwrap();
        for series in opt_in {
            let rows = report[series.key].as_array().unwrap();
            assert!(!rows.is_empty(), "{} returned no rows", series.name);
        }
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
        assert!(usage().contains("astra serve"));
        assert!(usage().contains("--workers"));
        assert!(usage().contains("bit-identical"));
    }

    #[test]
    fn single_run_matches_its_serve_request() {
        // `run` and the batch service share one execution path; the
        // request form of an invocation produces the same report.
        let opts = parse_args(&args("--topology SW(8)@400 --all-reduce-mib 64")).unwrap();
        let report = run(&opts).unwrap();
        let via_serve = astra_serve::execute_once(&opts.request).unwrap();
        assert_eq!(report, via_serve);
    }

    #[test]
    fn pipeline_flag_parses_and_validates() {
        let opts = parse_args(&args("--topology R(8)@100 --workload gpt3 --pipeline 4")).unwrap();
        assert_eq!(opts.request.pipeline, Some(4));
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
        // The network counters are part of the machine-readable surface.
        for key in [
            "network_messages",
            "network_backend_setups",
            "network_events",
            "p2p_cache_hits",
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
            assert!(usage().contains(flag), "usage missing {flag}");
        }
        assert!(usage().contains("Perfetto"));
    }

    #[test]
    fn unknown_workload_and_memory_reported() {
        let opts = parse_args(&args("--topology SW(8)@400 --workload bert")).unwrap();
        assert!(run(&opts).unwrap_err().to_string().contains("bert"));
        let opts = parse_args(&args("--topology SW(8)@400 --workload gpt3 --memory dram")).unwrap();
        assert!(run(&opts).unwrap_err().to_string().contains("dram"));
    }
}
