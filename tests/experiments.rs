//! Integration tests driving the experiment runners end-to-end (scaled
//! subsets of the full table/figure sweeps).

use astra_bench::{ablations, fig11, fig4, fig9a, table4};
use astra_core::experiments::CaseWorkload;

#[test]
fn fig4_validation_mean_error_within_paper_band() {
    let rows = fig4::run();
    assert_eq!(rows.len(), 12, "both ring sizes x six payloads");
    let mean = fig4::mean_error_pct(&rows);
    assert!(mean < 6.0, "mean error {mean}% (paper: ~5%)");
    // Error shrinks as payloads grow (bandwidth-bound regime).
    let small = rows
        .iter()
        .find(|r| r.npus == 16 && r.payload_mib == 64.0)
        .unwrap();
    let large = rows
        .iter()
        .find(|r| r.npus == 16 && r.payload_mib == 1536.0)
        .unwrap();
    assert!(small.error_pct > large.error_pct);
}

#[test]
fn table4_reproduces_flat_scale_out_and_wafer_speedup() {
    let rows = table4::run();
    assert_eq!(rows.len(), 7);
    let base = rows[0].collective_us;
    for conv in &rows[1..4] {
        assert!(
            (conv.collective_us / base - 1.0).abs() < 0.01,
            "{} should match base",
            conv.system
        );
    }
    let best = rows
        .iter()
        .map(|r| r.collective_us)
        .fold(f64::INFINITY, f64::min);
    let speedup = base / best;
    assert!((2.3..2.7).contains(&speedup), "paper: 2.51x, got {speedup}");
    // Bounce: the largest wafer system is slower than the sweet spot.
    assert!(rows[6].collective_us > rows[5].collective_us);
}

#[test]
fn fig9a_allreduce_column_trends() {
    let rows = fig9a::run_workloads(&[CaseWorkload::AllReduce1Gb]);
    let get = |sched: &str, system: &str| {
        rows.iter()
            .find(|r| r.scheduler == sched && r.system == system)
            .unwrap()
            .total_us
    };
    // W-1D is immune to the scheduler.
    assert_eq!(get("baseline", "W-1D-500"), get("themis", "W-1D-500"));
    // Multi-dimensional systems benefit substantially.
    assert!(get("themis", "W-2D-500") < get("baseline", "W-2D-500") * 0.7);
    assert!(get("themis", "Conv-3D") < get("baseline", "Conv-3D") * 0.8);
    // Themis brings W-2D-500 to near W-1D-500 parity (paper: identical).
    let parity = get("themis", "W-2D-500") / get("themis", "W-1D-500");
    assert!((0.95..1.1).contains(&parity), "{parity}");
    // Conv-4D at 600 GB/s/NPU beats W-1D-350 even under baseline.
    assert!(get("baseline", "Conv-4D") < get("baseline", "W-1D-350"));
}

#[test]
fn fig11_truncated_run_keeps_headline_ratios() {
    let mut model = astra_core::models::moe_1t();
    model.layers.truncate(2);
    let trace = astra_core::experiments::fig11_trace_for(&model);
    let rows = fig11::run_with_trace(&trace);
    assert_eq!(rows.len(), 3);
    let zinf = rows[0].total_ms;
    let base = rows[1].total_ms;
    let opt = rows[2].total_ms;
    assert!((base / zinf - 1.0).abs() < 0.03, "ZeRO-Inf parity");
    assert!(
        (3.8..5.2).contains(&(base / opt)),
        "opt speedup {}",
        base / opt
    );
}

#[test]
fn ablation_congestion_fluid_matches_packet_truth() {
    let rows = ablations::congestion();
    let analytical = rows[0].metric_us;
    let fluid = rows[1].metric_us;
    let packet = rows[2].metric_us;
    // The congestion-free equation misses the 8-to-1 incast by ~8x...
    assert!(packet / analytical > 5.0);
    // ...while the max-min extension tracks the packet truth within 5%.
    assert!(
        (fluid - packet).abs() / packet < 0.05,
        "{fluid} vs {packet}"
    );
}

#[test]
fn ablation_chunking_monotone_improvement() {
    let rows = ablations::chunk_count();
    let first = rows.first().unwrap().metric_us;
    let last = rows.last().unwrap().metric_us;
    assert!(last < first * 0.5, "chunking must pipeline dimensions");
}
