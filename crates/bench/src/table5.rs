//! Table V — the disaggregated memory system configurations.
//!
//! The table is an input rather than a result; printing it from the
//! memory presets proves they encode exactly the paper's values.

use astra_core::{memory_presets, Bandwidth};
use serde::{Serialize, Value};

/// One Table V parameter (a row of the `table5` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Parameter name.
    pub parameter: String,
    /// ZeRO-Infinity value (`-` where not applicable).
    pub zero_infinity: String,
    /// HierMem baseline value.
    pub hiermem_base: String,
    /// HierMem optimized value.
    pub hiermem_opt: String,
}

/// The `table5` sweep series: preset data, the same in quick and full
/// mode.
pub fn series(_quick: bool) -> (Vec<Value>, String) {
    crate::emit(&run(), render)
}

/// Builds the table from the memory presets.
pub fn run() -> Vec<Row> {
    let zinf = memory_presets::zero_infinity();
    let base = memory_presets::hiermem_baseline();
    let opt = memory_presets::hiermem_opt();
    let (base, opt) = (base.config(), opt.config());
    let gbps = |bw: Bandwidth| format!("{:.0}", bw.as_gbps_f64());
    let row = |parameter: &str, z: String, b: String, o: String| Row {
        parameter: parameter.to_owned(),
        zero_infinity: z,
        hiermem_base: b,
        hiermem_opt: o,
    };
    vec![
        row(
            "GPU peak perf (TFLOPS)",
            "2048".into(),
            "2048".into(),
            "2048".into(),
        ),
        row(
            "GPU local HBM BW (GB/s)",
            "4096".into(),
            "4096".into(),
            "4096".into(),
        ),
        row(
            "In-node pooled fabric BW (GB/s)",
            "-".into(),
            gbps(base.in_node_bw),
            gbps(opt.in_node_bw),
        ),
        row(
            "Num out-node switches",
            "-".into(),
            base.out_switches.to_string(),
            opt.out_switches.to_string(),
        ),
        row(
            "Num remote memory groups",
            zinf.gpus.to_string(),
            base.remote_groups.to_string(),
            opt.remote_groups.to_string(),
        ),
        row(
            "Remote mem group BW (GB/s)",
            gbps(zinf.nvme_bw),
            gbps(base.remote_group_bw),
            gbps(opt.remote_group_bw),
        ),
    ]
}

/// Draws the table as text in the paper's layout.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Table V — disaggregated memory system configurations\n");
    s += &format!(
        "{:<34} {:>14} {:>16} {:>14}\n",
        "Parameter", "ZeRO-Infinity", "HierMem(base)", "HierMem(opt)"
    );
    for r in rows {
        s += &format!(
            "{:<34} {:>14} {:>16} {:>14}\n",
            r.parameter, r.zero_infinity, r.hiermem_base, r.hiermem_opt
        );
    }
    s
}
