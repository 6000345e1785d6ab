//! Table II — the target wafer-scale and conventional topologies.
//!
//! The table is an input rather than a result; printing it from the
//! presets proves they encode exactly the paper's values.

use astra_core::experiments;
use serde::{Serialize, Value};

/// One Table II system (a row of the `table2` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// System name.
    pub system: String,
    /// Topology shape.
    pub shape: String,
    /// Total NPUs.
    pub npus: usize,
    /// Per-dimension link bandwidth (GB/s).
    pub dim_gbps: Vec<f64>,
}

/// The `table2` sweep series: preset data, the same in quick and full
/// mode.
pub fn series(_quick: bool) -> (Vec<Value>, String) {
    crate::emit(&run(), render)
}

/// Builds the table from the Fig. 9(a) system presets.
pub fn run() -> Vec<Row> {
    experiments::fig9a_systems()
        .into_iter()
        .map(|sut| Row {
            shape: sut.topology.to_string(),
            npus: sut.topology.npus(),
            dim_gbps: sut
                .topology
                .dims()
                .iter()
                .map(|d| d.bandwidth().as_gbps_f64())
                .collect(),
            system: sut.name,
        })
        .collect()
}

/// Draws the table as text in the paper's layout.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Table II — target wafer-scale and conventional topologies\n");
    s += &format!(
        "{:<10} {:<42} {:>6} {:>22}\n",
        "System", "Shape", "NPUs", "BW (GB/s per dim)"
    );
    for r in rows {
        let bws: Vec<String> = r.dim_gbps.iter().map(|bw| format!("{bw:.0}")).collect();
        s += &format!(
            "{:<10} {:<42} {:>6} {:>22}\n",
            r.system,
            r.shape,
            r.npus,
            bws.join("_")
        );
    }
    s
}
