//! §IV-C — simulation-cost comparison: analytical vs packet-level backend.
//!
//! The paper reports a 1 MB All-Reduce on a 4×4×4 torus taking 21.42 min
//! under Garnet vs 1.70 s under the analytical backend (756×), and a 4K-NPU
//! torus in 3.14 s. Our packet-level substitute plays Garnet's role: its
//! cost scales with packets × hops, while the analytical backend evaluates
//! closed forms.

use astra_core::{Collective, CollectiveEngine, DataSize, SchedulerPolicy, Topology};
use astra_garnet::{collective_time, PacketSimConfig};
use serde::{Serialize, Value};
use std::time::Instant;

/// One backend measurement (a row of the `speedup` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Backend name, as `--network` spells it (`packet` plays Garnet's
    /// role).
    pub backend: &'static str,
    /// Topology description.
    pub system: String,
    /// Simulated collective completion time (µs).
    pub simulated_us: f64,
    /// Wall-clock cost of running the simulation (seconds).
    pub wall_seconds: f64,
    /// Events processed (packet backend only).
    pub events: Option<u64>,
}

/// The `speedup` sweep series: the same configurations in quick and full
/// mode.
pub fn series(_quick: bool) -> (Vec<Value>, String) {
    crate::emit(&run(), render)
}

/// Runs the speedup experiment: 1 MB All-Reduce on a 64-NPU 3D torus with
/// both backends, plus a 4096-NPU torus on the analytical backend only.
// Benchmarks measure host wall-clock by design (the paper reports
// simulation speed); this is the sanctioned opt-out from the workspace
// wall-clock ban.
#[allow(clippy::disallowed_methods)]
pub fn run() -> Vec<Row> {
    let size = DataSize::from_mib(1);
    let torus64 = Topology::parse("R(4)@100_R(4)@100_R(4)@100").expect("valid notation");
    let mut rows = Vec::new();

    let start = Instant::now();
    let packet = collective_time(&torus64, size, &PacketSimConfig::garnet_like());
    rows.push(Row {
        backend: "packet",
        system: "3D torus 4x4x4 (64 NPUs)".to_owned(),
        simulated_us: packet.finish.as_us_f64(),
        wall_seconds: start.elapsed().as_secs_f64(),
        events: Some(packet.events),
    });

    let engine = CollectiveEngine::new(32, SchedulerPolicy::Baseline);
    let start = Instant::now();
    let analytical = engine.run(Collective::AllReduce, size, torus64.dims());
    rows.push(Row {
        backend: "analytical",
        system: "3D torus 4x4x4 (64 NPUs)".to_owned(),
        simulated_us: analytical.finish.as_us_f64(),
        wall_seconds: start.elapsed().as_secs_f64(),
        events: None,
    });

    let torus4k = Topology::parse("R(16)@100_R(16)@100_R(16)@100").expect("valid notation");
    let start = Instant::now();
    let analytical4k = engine.run(Collective::AllReduce, size, torus4k.dims());
    rows.push(Row {
        backend: "analytical",
        system: "3D torus 16x16x16 (4096 NPUs)".to_owned(),
        simulated_us: analytical4k.finish.as_us_f64(),
        wall_seconds: start.elapsed().as_secs_f64(),
        events: None,
    });

    rows
}

/// Wall-clock speedup of the analytical backend over the packet backend on
/// the 64-NPU configuration (the paper's 756×).
pub fn speedup_factor(rows: &[Row]) -> f64 {
    let packet = rows
        .iter()
        .find(|r| r.backend == "packet")
        .expect("packet row present");
    let analytical = rows
        .iter()
        .find(|r| r.backend == "analytical" && r.system.contains("64"))
        .expect("analytical row present");
    packet.wall_seconds / analytical.wall_seconds.max(1e-9)
}

/// Draws the comparison as text.
pub fn render(rows: &[Row]) -> String {
    let mut s =
        String::from("SS-IV-C — simulation cost: packet-level vs analytical (1 MB All-Reduce)\n");
    s += &format!(
        "{:<28} {:<30} {:>14} {:>12} {:>12}\n",
        "Backend", "System", "Simulated us", "Wall (s)", "Events"
    );
    for r in rows {
        s += &format!(
            "{:<28} {:<30} {:>14.2} {:>12.6} {:>12}\n",
            r.backend,
            r.system,
            r.simulated_us,
            r.wall_seconds,
            r.events.map_or("-".to_owned(), |e| e.to_string())
        );
    }
    s += &format!(
        "analytical speedup on 64-NPU torus: {:.0}x (paper: 756x)\n",
        speedup_factor(rows)
    );
    s
}
