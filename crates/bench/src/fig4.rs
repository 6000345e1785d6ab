//! Fig. 4 — analytical network backend validation.
//!
//! The paper validates the analytical equation against real 4- and 16-GPU
//! NCCL ring systems (150 GB/s NVLink) running 64 MB–1.5 GB All-Reduces,
//! reporting a 5% mean error. Lacking a V100 testbed, the ground truth here
//! is the packet-level simulator executing the identical bidirectional-ring
//! algorithm message by message, with NCCL-like host overheads the
//! analytical equation deliberately omits (DESIGN.md §3).

use astra_core::{Collective, CollectiveEngine, DataSize, SchedulerPolicy, Topology};
use astra_garnet::{collective_time, PacketSimConfig};
use serde::{Serialize, Value};

/// One validation point (a row of the `fig4` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Ring size (4 or 16 NPUs).
    pub npus: usize,
    /// All-Reduce payload in MiB.
    pub payload_mib: f64,
    /// Packet-level (ground truth) time in µs.
    pub packet_us: f64,
    /// Analytical backend time in µs.
    pub analytical_us: f64,
    /// Relative error of the analytical backend, in percent.
    pub error_pct: f64,
}

/// The paper's payload sweep: 64 MB – 1.5 GB.
pub fn payloads() -> Vec<DataSize> {
    vec![
        DataSize::from_mib(64),
        DataSize::from_mib(96),
        DataSize::from_mib(128),
        DataSize::from_mib(192),
        DataSize::from_mib(768),  // 0.75 GB
        DataSize::from_mib(1536), // 1.5 GB
    ]
}

/// Runs the full validation sweep (both ring sizes, all payloads).
pub fn run() -> Vec<Row> {
    run_payloads(&payloads())
}

/// The `fig4` sweep series. Quick mode runs only the two smallest payloads.
pub fn series(quick: bool) -> (Vec<Value>, String) {
    let payloads = payloads();
    let payloads = if quick { &payloads[..2] } else { &payloads[..] };
    crate::emit(&run_payloads(payloads), render)
}

/// Runs both ring sizes over a subset of payloads.
fn run_payloads(payloads: &[DataSize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for npus in [4usize, 16] {
        let topo = Topology::parse(&format!("R({npus})@150")).expect("valid notation");
        let engine = CollectiveEngine::new(1, SchedulerPolicy::Baseline);
        for &size in payloads {
            let packet = collective_time(&topo, size, &PacketSimConfig::real_system_proxy());
            let analytical = engine.run(Collective::AllReduce, size, topo.dims());
            let p = packet.finish.as_us_f64();
            let a = analytical.finish.as_us_f64();
            rows.push(Row {
                npus,
                payload_mib: size.as_mib_f64(),
                packet_us: p,
                analytical_us: a,
                error_pct: (a - p).abs() / p * 100.0,
            });
        }
    }
    rows
}

/// Mean relative error across all rows (the paper's headline 5%).
pub fn mean_error_pct(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.error_pct).sum::<f64>() / rows.len() as f64
}

/// Draws the figure as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Fig. 4 — analytical backend validation (ring @150 GB/s)\n");
    s += &format!(
        "{:<6} {:>10} {:>16} {:>16} {:>9}\n",
        "NPUs", "Size(MiB)", "Packet (us)", "Analytical (us)", "Err %"
    );
    for r in rows {
        s += &format!(
            "{:<6} {:>10.0} {:>16.2} {:>16.2} {:>9.2}\n",
            r.npus, r.payload_mib, r.packet_us, r.analytical_us, r.error_pct
        );
    }
    s += &format!("mean error: {:.2}% (paper: ~5%)\n", mean_error_pct(rows));
    s
}
