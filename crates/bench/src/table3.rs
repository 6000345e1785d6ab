//! Table III — the target training workloads.
//!
//! The table is an input rather than a result; printing it from the model
//! presets proves they encode exactly the paper's values.

use astra_core::{models, DataSize};
use serde::{Serialize, Value};

/// One Table III workload (a row of the `table3` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Total parameter size (bytes).
    pub params: DataSize,
    /// Layer count.
    pub layers: usize,
    /// Default model-parallel degree.
    pub mp: usize,
    /// Default data-parallel degree.
    pub dp: usize,
}

/// The `table3` sweep series: preset data, the same in quick and full
/// mode.
pub fn series(_quick: bool) -> (Vec<Value>, String) {
    crate::emit(&run(), render)
}

/// Builds the table from the model presets.
pub fn run() -> Vec<Row> {
    [
        models::dlrm_57m(),
        models::gpt3_175b(),
        models::transformer_1t(),
    ]
    .into_iter()
    .map(|model| Row {
        params: model.total_params(),
        layers: model.num_layers(),
        mp: model.default_mp,
        dp: model.default_dp,
        workload: model.name,
    })
    .collect()
}

/// Draws the table as text in the paper's layout.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Table III — target training workloads\n");
    s += &format!(
        "{:<16} {:>14} {:>8} {:>8} {:>8}\n",
        "Workload", "Params (B)", "Layers", "MP", "DP"
    );
    for r in rows {
        s += &format!(
            "{:<16} {:>14} {:>8} {:>8} {:>8}\n",
            r.workload,
            r.params.to_string(),
            r.layers,
            r.mp,
            r.dp
        );
    }
    s
}
