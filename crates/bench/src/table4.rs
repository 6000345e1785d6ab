//! Table IV — per-dimension message sizes and collective time while
//! scaling a 1 GB All-Reduce (§V-A.2).
//!
//! Conventional scale-out grows the NIC dimension (flat collective time);
//! wafer scale-up grows Dim 1 (up to 2.51× faster, bouncing at 16_8_8_4).

use astra_core::{
    dimension_traffic, experiments, Collective, CollectiveEngine, DataSize, SchedulerPolicy,
};
use serde::{Serialize, Value};

/// One Table IV row (a row of the `table4` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// System shape label (e.g. `"2_8_8_4"`).
    pub system: String,
    /// Total NPUs.
    pub npus: usize,
    /// Per-dimension message sizes in MiB (RS + AG phases).
    pub dim_mib: Vec<f64>,
    /// Collective completion time in µs.
    pub collective_us: f64,
}

/// The `table4` sweep series: closed-form data, the same in quick and
/// full mode.
pub fn series(_quick: bool) -> (Vec<Value>, String) {
    crate::emit(&run(), render)
}

/// Runs the scaling sweep.
pub fn run() -> Vec<Row> {
    let size = DataSize::from_gib(1);
    let engine = CollectiveEngine::new(64, SchedulerPolicy::Baseline);
    experiments::table4_systems()
        .into_iter()
        .map(|sut| {
            let dims = sut.topology.dims();
            let traffic = dimension_traffic(Collective::AllReduce, size, dims);
            let outcome = engine.run(Collective::AllReduce, size, dims);
            Row {
                system: sut.name,
                npus: sut.topology.npus(),
                dim_mib: traffic.iter().map(|t| t.as_mib_f64()).collect(),
                collective_us: outcome.finish.as_us_f64(),
            }
        })
        .collect()
}

/// Draws the table as text in the paper's layout.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from(
        "Table IV — 1 GB All-Reduce message size (MiB) per dimension and collective time\n",
    );
    s += &format!(
        "{:<10} {:>6} {:>9} {:>9} {:>9} {:>9} {:>16}\n",
        "System", "NPUs", "Dim 1", "Dim 2", "Dim 3", "Dim 4", "Collective (us)"
    );
    for r in rows {
        s += &format!(
            "{:<10} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>16.2}\n",
            r.system,
            r.npus,
            r.dim_mib[0],
            r.dim_mib[1],
            r.dim_mib[2],
            r.dim_mib[3],
            r.collective_us
        );
    }
    let base = rows[0].collective_us;
    let best = rows
        .iter()
        .map(|r| r.collective_us)
        .fold(f64::INFINITY, f64::min);
    s += &format!(
        "max wafer scale-up speedup: {:.2}x (paper: 2.51x)\n",
        base / best
    );
    s
}
