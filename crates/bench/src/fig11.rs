//! Fig. 11 — runtime breakdown of disaggregated memory architectures, plus
//! the §V-B design-space sweep that discovers HierMem(opt).

use astra_core::{experiments, simulate, ExecutionTrace};
use serde::{Serialize, Value};

/// One Fig. 11 bar: a system's five-way breakdown (a row of the `fig11`
/// series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// System name (Table V column).
    pub system: String,
    /// Compute time (ms).
    pub compute_ms: f64,
    /// Exposed communication (ms).
    pub exposed_comm_ms: f64,
    /// Exposed idle (ms).
    pub exposed_idle_ms: f64,
    /// Exposed local-memory time (ms).
    pub exposed_local_ms: f64,
    /// Exposed remote-memory time (ms).
    pub exposed_remote_ms: f64,
    /// End-to-end time (ms).
    pub total_ms: f64,
}

/// The `fig11` sweep series. Quick mode truncates the MoE model to two
/// layers; full mode also runs the §V-B bandwidth sweep and prints its
/// optimum.
pub fn series(quick: bool) -> (Vec<Value>, String) {
    let trace = if quick {
        let mut model = astra_core::models::moe_1t();
        model.layers.truncate(2);
        experiments::fig11_trace_for(&model)
    } else {
        experiments::fig11_trace()
    };
    let (rows, mut text) = crate::emit(&run_with_trace(&trace), render);
    if !quick {
        let (in_node, remote) = sweep_optimum(&trace, 0.02);
        text += &format!(
            "sweep optimum (least resources within 2% of fastest): in-node {in_node} GB/s, remote {remote} GB/s (paper: 512/500)\n"
        );
    }
    (rows, text)
}

/// Runs the three Table V systems on `trace` (the MoE-1T training step,
/// or a truncated one).
pub fn run_with_trace(trace: &ExecutionTrace) -> Vec<Row> {
    let topo = experiments::fig11_topology();
    experiments::fig11_systems()
        .into_iter()
        .map(|(name, config)| {
            let report = simulate(trace, &topo, &config).expect("Fig. 11 setup is valid");
            let b = &report.breakdown;
            Row {
                system: name,
                compute_ms: b.compute.as_ms_f64(),
                exposed_comm_ms: b.exposed_comm.as_ms_f64(),
                exposed_idle_ms: b.exposed_idle.as_ms_f64(),
                exposed_local_ms: b.exposed_local_mem.as_ms_f64(),
                exposed_remote_ms: b.exposed_remote_mem.as_ms_f64(),
                total_ms: report.total_time.as_ms_f64(),
            }
        })
        .collect()
}

/// Runs the §V-B design-space sweep and returns the point with the best
/// performance at the least resource provision, as `(in-node, remote)`
/// GB/s: among all points within `tolerance` of the fastest, the one with
/// the smallest bandwidth sum (the paper's HierMem(opt): 512/500).
fn sweep_optimum(trace: &ExecutionTrace, tolerance: f64) -> (u64, u64) {
    let topo = experiments::fig11_topology();
    let points: Vec<(u64, u64, f64)> = experiments::fig11_sweep_grid()
        .into_iter()
        .map(|(in_node, remote)| {
            let config = experiments::fig11_sweep_config(in_node, remote);
            let report = simulate(trace, &topo, &config).expect("sweep setup is valid");
            (in_node, remote, report.total_time.as_us_f64())
        })
        .collect();
    let fastest = points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
    points
        .iter()
        .filter(|p| p.2 <= fastest * (1.0 + tolerance))
        .min_by_key(|p| p.0 + p.1)
        .map(|p| (p.0, p.1))
        .expect("sweep is non-empty")
}

/// Draws the figure and the headline ratios as text.
pub fn render(rows: &[Row]) -> String {
    let mut s =
        String::from("Fig. 11 — MoE-1T training-step breakdown on disaggregated memory (ms)\n");
    s += &format!(
        "{:<20} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "System", "Compute", "ExpComm", "ExpIdle", "ExpLocal", "ExpRemote", "Total"
    );
    for r in rows {
        s += &format!(
            "{:<20} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            r.system,
            r.compute_ms,
            r.exposed_comm_ms,
            r.exposed_idle_ms,
            r.exposed_local_ms,
            r.exposed_remote_ms,
            r.total_ms
        );
    }
    if let [zinf, base, opt, ..] = rows {
        s += &format!(
            "ZeRO-Infinity vs HierMem(baseline): {:+.2}% (paper: ZeRO-Inf 0.1% better)\n",
            (base.total_ms / zinf.total_ms - 1.0) * 100.0
        );
        s += &format!(
            "HierMem(opt) speedup over baseline: {:.2}x (paper: 4.6x)\n",
            base.total_ms / opt.total_ms
        );
    }
    s
}
