//! `astra-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its samples, then, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and the metrics:
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits 2 on a bad command line.

use std::path::PathBuf;
use std::process::ExitCode;

use astra_perfbench::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use astra_perfbench::{serve, sim};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: seconds.ok_or("`--seconds` is required")?,
        trace: trace.ok_or("`--trace` is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("astra-perfbench: {e}");
            eprintln!(
                "usage: astra-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let spans_out = PathBuf::from(target)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    println!(
        "The simulator is unvalidated against hardware: simulated results are checked \
         against pinned values, and no error figure is given."
    );
    let outcome = match args.workload.as_str() {
        "gpt3-hybrid-2k" => sim::run(&sim::GPT3_HYBRID_2K, args.seconds, args.trace, &spans_out),
        "packet-coll-64" => sim::run(&sim::PACKET_COLL_64, args.seconds, args.trace, &spans_out),
        _ => serve::run(args.seed, args.seconds, args.trace, &spans_out),
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let table: Vec<Metric> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", outcome.result_line(&table));
    ExitCode::SUCCESS
}
