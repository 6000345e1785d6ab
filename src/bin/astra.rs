//! `astra` — command-line front end to the simulator. See `--help`.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `astra sweep …` drives the astra-bench throughput runners instead of
    // a single simulation.
    if args.first().map(String::as_str) == Some("sweep") {
        let opts = match astra_sim2::cli::parse_sweep_args(&args[1..]) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        return match astra_sim2::cli::run_sweep(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `astra serve …` runs the JSONL batch service on warm caches.
    if args.first().map(String::as_str) == Some("serve") {
        let opts = match astra_sim2::cli::parse_serve_args(&args[1..]) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        return match astra_sim2::cli::run_serve(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match astra_sim2::cli::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match astra_sim2::cli::run(&opts) {
        Ok(report) => print_report(&astra_sim2::cli::render(&opts, &report)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the report to stdout. A reader that closes the pipe early
/// (`astra … | head -1`) ends the run quietly; any other write error is
/// reported and fails the run.
fn print_report(text: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: failed to write the report: {e}");
            ExitCode::FAILURE
        }
    }
}
