//! Ablation studies for the modeling choices DESIGN.md calls out:
//!
//! * **Chunk count** — how many pipeline chunks a collective is split into
//!   trades pipeline-fill overhead against scheduling granularity (§IV-B).
//! * **Packet size** — packet-level backend fidelity/cost trade-off
//!   (§IV-C: cycle-level detail is what makes Garnet slow).
//! * **Congestion modeling** — what the congestion-free analytical
//!   equation misses on oversubscribed point-to-point patterns (the
//!   paper's stated future work).

use astra_core::{
    Collective, CollectiveEngine, DataSize, NetworkBackend, SchedulerPolicy, Topology,
};
use astra_garnet::{collective_time, PacketSimConfig};
use astra_network::congestion::{max_min_completion, Flow};
use serde::{Serialize, Value};

/// One ablation row: a knob setting and its outcome (a row of the
/// `ablations` series).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Study name.
    pub study: &'static str,
    /// Knob setting.
    pub setting: String,
    /// Primary metric (µs unless stated in `setting`).
    pub metric_us: f64,
    /// Secondary cost metric (events / candidate count), if applicable.
    pub cost: Option<u64>,
}

/// Chunk-count ablation: 1 GiB Themis All-Reduce on Conv-4D.
pub fn chunk_count() -> Vec<Row> {
    let topo = astra_core::topologies::conv4d();
    [1u64, 4, 16, 64, 128, 256]
        .into_iter()
        .map(|chunks| {
            let engine = CollectiveEngine::new(chunks, SchedulerPolicy::Themis);
            let out = engine.run(Collective::AllReduce, DataSize::from_gib(1), topo.dims());
            Row {
                study: "chunk-count",
                setting: format!("{chunks} chunks"),
                metric_us: out.finish.as_us_f64(),
                cost: None,
            }
        })
        .collect()
}

/// Packet-size ablation: fidelity and event cost of the packet backend.
pub fn packet_size() -> Vec<Row> {
    let topo = Topology::parse("R(4)@100_R(4)@100").expect("valid notation");
    [256u64, 1024, 4096, 65536]
        .into_iter()
        .map(|bytes| {
            let config = PacketSimConfig {
                packet_size: DataSize::from_bytes(bytes),
                ..PacketSimConfig::fast()
            };
            let report = collective_time(&topo, DataSize::from_mib(4), &config);
            Row {
                study: "packet-size",
                setting: format!("{bytes} B packets"),
                metric_us: report.finish.as_us_f64(),
                cost: Some(report.events),
            }
        })
        .collect()
}

/// Congestion ablation: an 8-to-1 incast where the congestion-free
/// analytical equation undershoots and max-min fair sharing tracks the
/// packet-level truth.
pub fn congestion() -> Vec<Row> {
    let topo = Topology::parse("SW(16)@100").expect("valid notation");
    let size = DataSize::from_mib(32);
    let flows: Vec<Flow> = (0..8)
        .map(|s| Flow {
            src: s,
            dst: 15,
            size,
        })
        .collect();

    // Congestion-free analytical estimate for one flow (all "independent").
    let mut analytical = astra_core::AnalyticalNetwork::new(topo.clone());
    let independent = analytical.p2p_delay(0, 15, size).as_us_f64();

    // Max-min fluid model.
    let fluid = max_min_completion(&topo, &flows);
    let fluid_last = fluid.iter().map(|t| t.as_us_f64()).fold(0.0, f64::max);

    // Packet-level ground truth.
    let mut net = astra_garnet::PacketNetwork::new(&topo, PacketSimConfig::fast());
    for (token, f) in (0..).zip(&flows) {
        net.send_async(token, astra_core::Time::ZERO, f.src, f.dst, f.size);
    }
    net.run_until_idle();
    let mut done = Vec::new();
    net.drain_completions(&mut done);
    let packet_last = done
        .iter()
        .map(|c| c.finish.as_us_f64())
        .fold(0.0, f64::max);

    vec![
        Row {
            study: "congestion",
            setting: "analytical (congestion-free)".to_owned(),
            metric_us: independent,
            cost: None,
        },
        Row {
            study: "congestion",
            setting: "max-min fluid extension".to_owned(),
            metric_us: fluid_last,
            cost: None,
        },
        Row {
            study: "congestion",
            setting: "packet-level ground truth".to_owned(),
            metric_us: packet_last,
            cost: Some(net.events_processed()),
        },
    ]
}

/// The `ablations` sweep series: the same studies in quick and full mode.
pub fn series(_quick: bool) -> (Vec<Value>, String) {
    crate::emit(&run(), render)
}

/// Runs all ablations.
pub fn run() -> Vec<Row> {
    let mut rows = chunk_count();
    rows.extend(packet_size());
    rows.extend(congestion());
    rows
}

/// Draws the ablation tables as text.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from("Ablations — modeling-choice sensitivity\n");
    let mut last = "";
    for r in rows {
        if r.study != last {
            s += &format!("\n== {} ==\n", r.study);
            last = r.study;
        }
        s += &match r.cost {
            Some(c) => format!(
                "{:<32} {:>12.2} us {:>12} events\n",
                r.setting, r.metric_us, c
            ),
            None => format!("{:<32} {:>12.2} us\n", r.setting, r.metric_us),
        };
    }
    s
}
