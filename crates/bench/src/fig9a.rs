//! Fig. 9(a) — wafer-scale vs conventional systems, with the baseline and
//! Themis collective schedulers (§V-A.1).
//!
//! For each of the four workloads and six Table II systems, the runtime is
//! broken into compute + exposed communication and normalized to the
//! W-1D-500 baseline-scheduler run of that workload (the paper normalizes
//! per workload).

use astra_core::{
    experiments::{self, CaseWorkload},
    simulate, SchedulerPolicy, SystemConfig,
};
use serde::{Serialize, Value};

/// One bar of Fig. 9(a) (a row of the `fig9a` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Workload column.
    pub workload: &'static str,
    /// System name (Table II).
    pub system: String,
    /// Scheduler used.
    pub scheduler: &'static str,
    /// Compute portion (µs).
    pub compute_us: f64,
    /// Exposed communication portion (µs).
    pub exposed_comm_us: f64,
    /// End-to-end runtime (µs).
    pub total_us: f64,
    /// Runtime normalized to the workload's W-1D-500/baseline bar.
    pub normalized: f64,
}

/// The `fig9a` sweep series. Quick mode runs only the first workload
/// column.
pub fn series(quick: bool) -> (Vec<Value>, String) {
    let workloads = &CaseWorkload::ALL;
    let workloads = if quick {
        &workloads[..1]
    } else {
        &workloads[..]
    };
    crate::emit(&run_workloads(workloads), render)
}

/// Runs the grid (6 systems × 2 schedulers) for each workload column.
pub fn run_workloads(workloads: &[CaseWorkload]) -> Vec<Row> {
    let systems = experiments::fig9a_systems();
    let mut rows = Vec::new();
    for &workload in workloads {
        let mut reference = None;
        for (scheduler, policy) in [
            ("baseline", SchedulerPolicy::Baseline),
            ("themis", SchedulerPolicy::Themis),
        ] {
            for sut in &systems {
                let trace = workload.trace(sut.topology.npus());
                let config = SystemConfig {
                    scheduler: policy,
                    ..SystemConfig::default()
                };
                let report =
                    simulate(&trace, &sut.topology, &config).expect("Fig. 9a setup is valid");
                if reference.is_none() && sut.name == "W-1D-500" {
                    reference = Some(report.total_time.as_us_f64());
                }
                rows.push(Row {
                    workload: workload.name(),
                    system: sut.name.clone(),
                    scheduler,
                    compute_us: report.breakdown.compute.as_us_f64(),
                    exposed_comm_us: report.breakdown.exposed_comm.as_us_f64(),
                    total_us: report.total_time.as_us_f64(),
                    normalized: 0.0, // filled below
                });
            }
        }
        let reference = reference.expect("W-1D-500 is among the systems");
        for row in rows.iter_mut().filter(|r| r.workload == workload.name()) {
            row.normalized = row.total_us / reference;
        }
    }
    rows
}

/// Draws the figure as a text table (two panels: baseline, then Themis).
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Fig. 9(a) — normalized runtime (compute + exposed comm), 512 NPUs\n");
    for scheduler in ["baseline", "themis"] {
        s += &format!("\n== {scheduler} collective scheduler ==\n");
        s += &format!(
            "{:<16} {:<10} {:>12} {:>14} {:>12} {:>11}\n",
            "Workload", "System", "Compute(us)", "ExpComm(us)", "Total(us)", "Normalized"
        );
        for r in rows.iter().filter(|r| r.scheduler == scheduler) {
            s += &format!(
                "{:<16} {:<10} {:>12.1} {:>14.1} {:>12.1} {:>11.3}\n",
                r.workload, r.system, r.compute_us, r.exposed_comm_us, r.total_us, r.normalized
            );
        }
    }
    s
}
