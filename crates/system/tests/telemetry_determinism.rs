//! Determinism contract of the telemetry subsystem.
//!
//! Traces and metrics are observability, so they must be a pure function
//! of the simulation's *semantics*, never of its execution strategy. The
//! pins:
//!
//! * **No-sink byte-invisibility.** `simulate_traced` with
//!   `telemetry: false` returns the exact `SimReport` of plain
//!   `simulate`, and with `telemetry: true` the report differs *only* by
//!   `metrics: Some(..)` — stripping it restores bit-identity.
//! * **Trace-byte invariance.** The rendered trace bytes (both the
//!   Chrome JSON and the JSONL renderings) are bit-identical from run to
//!   run in one process, so no per-instance hash seed reaches them.
//! * **Golden fixture.** A committed Chrome-format trace of one fixed
//!   scenario (packet backend, chunk-level collectives, a degraded link)
//!   pins the rendering and the recorded spans against drift. Re-bless
//!   deliberately with `ASTRA_BLESS=1 cargo test -p astra-system
//!   golden_chrome`.

use astra_collectives::{Collective, CollectiveMode};
use astra_des::{DataSize, Time};
use astra_network::NetworkBackendKind;
use astra_system::{
    simulate, simulate_traced, FaultKind, FaultSchedule, SimReport, SimTrace, SystemConfig,
    TraceFormat,
};
use astra_topology::Topology;
use astra_workload::{EtOp, ExecutionTrace, TraceBuilder};
use proptest::prelude::*;

/// One world-group All-Reduce at `t = 0` on every NPU, preceded by a
/// short compute op so NPU timelines carry both categories.
fn all_reduce_trace(npus: usize, size: DataSize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus);
    let world = b.add_group((0..npus).collect());
    for npu in 0..npus {
        let c = b.node(
            npu,
            "warmup",
            EtOp::Compute {
                flops: 5e9,
                tensor: DataSize::ZERO,
            },
            &[],
        );
        b.node(
            npu,
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size,
                group: world,
            },
            &[c],
        );
    }
    b.build().expect("all-reduce trace is valid")
}

/// The golden scenario: 4 NPUs on a ring, packet backend, chunk-level
/// collective execution, and one degraded link from `t = 0`.
fn golden_scenario() -> (ExecutionTrace, Topology, SystemConfig) {
    let trace = all_reduce_trace(4, DataSize::from_kib(256));
    let topo = Topology::parse("R(4)@100").expect("valid notation");
    let mut faults = FaultSchedule::new();
    faults.push(
        Time::ZERO,
        FaultKind::LinkDegrade {
            src: 0,
            dst: 1,
            bandwidth_pct: 50,
            latency_x: 2,
        },
    );
    let config = SystemConfig {
        network_backend: NetworkBackendKind::Packet,
        collective_mode: CollectiveMode::Backend,
        collective_chunks: 4,
        faults,
        telemetry: true,
        ..SystemConfig::default()
    };
    (trace, topo, config)
}

fn traced(trace: &ExecutionTrace, topo: &Topology, config: &SystemConfig) -> (SimReport, SimTrace) {
    let (report, sim_trace) = simulate_traced(trace, topo, config);
    (
        report.expect("valid traced simulation"),
        sim_trace.expect("telemetry on yields a trace"),
    )
}

#[test]
fn disabled_sink_is_byte_invisible() {
    let trace = all_reduce_trace(8, DataSize::from_kib(512));
    let topo = Topology::parse("SW(8)@100").expect("valid notation");
    for backend in [
        NetworkBackendKind::Analytical,
        NetworkBackendKind::Flow,
        NetworkBackendKind::Packet,
    ] {
        let config = SystemConfig {
            network_backend: backend,
            telemetry: false,
            ..SystemConfig::default()
        };
        let plain = simulate(&trace, &topo, &config).expect("valid simulation");
        let (off, no_trace) = simulate_traced(&trace, &topo, &config);
        assert!(no_trace.is_none(), "telemetry off must not build a trace");
        assert_eq!(
            plain,
            off.expect("valid simulation"),
            "disabled sink perturbed the report on {backend:?}"
        );
    }
}

#[test]
fn recording_changes_only_the_metrics_field() {
    let (trace, topo, config) = golden_scenario();
    let plain_config = SystemConfig {
        telemetry: false,
        ..config.clone()
    };
    let plain = simulate(&trace, &topo, &plain_config).expect("valid simulation");
    let (mut recorded, sim_trace) = traced(&trace, &topo, &config);
    assert!(recorded.metrics.is_some(), "traced run must attach metrics");
    assert_eq!(sim_trace.horizon, plain.total_time);
    recorded.metrics = None;
    assert_eq!(plain, recorded, "recording must not perturb the report");
}

#[test]
fn trace_bytes_are_identical_across_runs() {
    let (trace, topo, config) = golden_scenario();
    let render = || {
        let (_, sim_trace) = traced(&trace, &topo, &config);
        (
            TraceFormat::Chrome.render(&sim_trace),
            TraceFormat::Jsonl.render(&sim_trace),
        )
    };
    let (ref_chrome, ref_jsonl) = render();
    for run in 1..3 {
        let (chrome, jsonl) = render();
        assert_eq!(chrome, ref_chrome, "chrome trace bytes differ on run {run}");
        assert_eq!(jsonl, ref_jsonl, "jsonl trace bytes differ on run {run}");
    }
}

#[test]
fn golden_chrome_trace_fixture_is_stable() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/telemetry_golden.chrome.json"
    );
    let (trace, topo, config) = golden_scenario();
    let (_, sim_trace) = traced(&trace, &topo, &config);
    let rendered = TraceFormat::Chrome.render(&sim_trace);
    if std::env::var_os("ASTRA_BLESS").is_some() {
        std::fs::write(fixture, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(fixture).expect(
        "missing golden fixture; generate with \
         `ASTRA_BLESS=1 cargo test -p astra-system golden_chrome`",
    );
    assert_eq!(
        rendered, golden,
        "chrome trace drifted from the committed fixture; if the change \
         is deliberate, re-bless with `ASTRA_BLESS=1 cargo test -p \
         astra-system golden_chrome` and commit the diff"
    );
}

fn arb_config() -> impl Strategy<Value = SystemConfig> {
    (
        prop::sample::select(vec![
            NetworkBackendKind::Analytical,
            NetworkBackendKind::Flow,
            NetworkBackendKind::Packet,
        ]),
        prop::sample::select(vec![CollectiveMode::Analytical, CollectiveMode::Backend]),
        prop::sample::select(vec![1u64, 2, 4]),
    )
        .prop_map(
            |(network_backend, collective_mode, collective_chunks)| SystemConfig {
                network_backend,
                collective_mode,
                collective_chunks,
                telemetry: true,
                ..SystemConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across random small configs: the traced report minus metrics is
    /// the plain report, and a second traced run renders the same bytes.
    #[test]
    fn telemetry_is_pure_observation(
        config in arb_config(),
        npus in prop::sample::select(vec![2usize, 4, 8]),
        kib in prop::sample::select(vec![64u64, 256]),
    ) {
        let trace = all_reduce_trace(npus, DataSize::from_kib(kib));
        let topo = Topology::parse(&format!("SW({npus})@100")).expect("valid notation");
        let plain_config = SystemConfig { telemetry: false, ..config.clone() };
        let plain = simulate(&trace, &topo, &plain_config).expect("valid simulation");
        let (mut recorded, sim_trace) = traced(&trace, &topo, &config);
        prop_assert!(recorded.metrics.is_some());
        recorded.metrics = None;
        prop_assert_eq!(&plain, &recorded, "recording perturbed the report");

        let (_, sim_trace2) = traced(&trace, &topo, &config);
        prop_assert_eq!(
            TraceFormat::Jsonl.render(&sim_trace),
            TraceFormat::Jsonl.render(&sim_trace2),
            "trace bytes depend on execution strategy"
        );
    }
}
