//! Fig. 9(b) — conventional scale-out vs wafer scale-up (§V-A.2).
//!
//! Starting from Base-512 (`2_8_8_4`, Dim 1 at 1000 GB/s), the system
//! scales to 1K/2K/4K NPUs either by growing the NIC dimension (Conv-*) or
//! the on-wafer dimension (W-*). Runtimes are normalized per workload to
//! Base-512.

use astra_core::{
    experiments::{self, CaseWorkload},
    simulate, SystemConfig,
};
use serde::{Serialize, Value};

/// One bar of Fig. 9(b) (a row of the `fig9b` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Workload column.
    pub workload: &'static str,
    /// Scaling point (Base-512, Conv-1024, ..., W-4096).
    pub system: String,
    /// Total NPUs at this point.
    pub npus: usize,
    /// Compute portion (µs).
    pub compute_us: f64,
    /// Exposed communication portion (µs).
    pub exposed_comm_us: f64,
    /// End-to-end runtime (µs).
    pub total_us: f64,
    /// Runtime normalized to Base-512 for the same workload.
    pub normalized: f64,
}

/// The `fig9b` sweep series. Quick mode runs only the first workload
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

/// Runs the 7 scaling points for each workload column.
pub fn run_workloads(workloads: &[CaseWorkload]) -> Vec<Row> {
    let systems = experiments::fig9b_systems();
    let mut rows = Vec::new();
    for &workload in workloads {
        let mut reference = None;
        for sut in &systems {
            let trace = workload.trace(sut.topology.npus());
            let report = simulate(&trace, &sut.topology, &SystemConfig::default())
                .expect("Fig. 9b setup is valid");
            if sut.name == "Base-512" {
                reference = Some(report.total_time.as_us_f64());
            }
            rows.push(Row {
                workload: workload.name(),
                system: sut.name.clone(),
                npus: sut.topology.npus(),
                compute_us: report.breakdown.compute.as_us_f64(),
                exposed_comm_us: report.breakdown.exposed_comm.as_us_f64(),
                total_us: report.total_time.as_us_f64(),
                normalized: 0.0,
            });
        }
        let reference = reference.expect("Base-512 is among the systems");
        for row in rows.iter_mut().filter(|r| r.workload == workload.name()) {
            row.normalized = row.total_us / reference;
        }
    }
    rows
}

/// Draws the figure as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Fig. 9(b) — scale-out vs wafer scale-up, normalized to Base-512\n");
    s += &format!(
        "{:<16} {:<10} {:>6} {:>12} {:>14} {:>12} {:>11}\n",
        "Workload", "System", "NPUs", "Compute(us)", "ExpComm(us)", "Total(us)", "Normalized"
    );
    for r in rows {
        s += &format!(
            "{:<16} {:<10} {:>6} {:>12.1} {:>14.1} {:>12.1} {:>11.3}\n",
            r.workload, r.system, r.npus, r.compute_us, r.exposed_comm_us, r.total_us, r.normalized
        );
    }
    s
}
