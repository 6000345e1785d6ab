//! Integration tests pinning the paper's headline quantitative trends
//! (scaled-down where needed to stay fast in debug builds).

use astra_core::{
    dimension_traffic, experiments::CaseWorkload, simulate, Collective, CollectiveEngine, DataSize,
    SchedulerPolicy, SystemConfig, Time, Topology,
};

/// Table IV: exact per-dimension message sizes for the 1 GB All-Reduce.
#[test]
fn table4_message_sizes_match_paper_exactly() {
    let expected: [(&str, [f64; 4]); 7] = [
        ("R(2)_FC(8)_R(8)_SW(4)", [1024.0, 896.0, 112.0, 12.0]),
        ("R(2)_FC(8)_R(8)_SW(8)", [1024.0, 896.0, 112.0, 14.0]),
        ("R(2)_FC(8)_R(8)_SW(16)", [1024.0, 896.0, 112.0, 15.0]),
        ("R(2)_FC(8)_R(8)_SW(32)", [1024.0, 896.0, 112.0, 15.5]),
        ("R(4)_FC(8)_R(8)_SW(4)", [1536.0, 448.0, 56.0, 6.0]),
        ("R(8)_FC(8)_R(8)_SW(4)", [1792.0, 224.0, 28.0, 3.0]),
        ("R(16)_FC(8)_R(8)_SW(4)", [1920.0, 112.0, 14.0, 1.5]),
    ];
    for (notation, mib) in expected {
        let topo = Topology::parse(notation).unwrap();
        let traffic = dimension_traffic(Collective::AllReduce, DataSize::from_gib(1), topo.dims());
        let got: Vec<f64> = traffic.iter().map(|t| t.as_mib_f64()).collect();
        assert_eq!(got, mib.to_vec(), "{notation}");
    }
}

/// Table IV: conventional scale-out leaves collective time flat; wafer
/// scale-up gives up to ~2.5x and then bounces back.
#[test]
fn table4_scaling_trends() {
    let engine = CollectiveEngine::new(64, SchedulerPolicy::Baseline);
    let time = |notation: &str| {
        let topo = Topology::parse(notation)
            .unwrap()
            .with_dim_bandwidth(0, astra_core::Bandwidth::from_gbps(1000));
        engine
            .run(Collective::AllReduce, DataSize::from_gib(1), topo.dims())
            .finish
            .as_us_f64()
    };
    let base = time("R(2)@1000_FC(8)@200_R(8)@100_SW(4)@50");
    for scale_out in [
        "R(2)_FC(8)@200_R(8)@100_SW(8)@50",
        "R(2)_FC(8)@200_R(8)@100_SW(16)@50",
        "R(2)_FC(8)@200_R(8)@100_SW(32)@50",
    ] {
        let t = time(scale_out);
        assert!(
            (t / base - 1.0).abs() < 0.01,
            "scale-out should be flat: {t} vs {base}"
        );
    }
    let w2048 = time("R(8)_FC(8)@200_R(8)@100_SW(4)@50");
    let w4096 = time("R(16)_FC(8)@200_R(8)@100_SW(4)@50");
    let speedup = base / w2048;
    assert!(
        (2.3..2.7).contains(&speedup),
        "wafer speedup {speedup} (paper: 2.51x)"
    );
    assert!(w4096 > w2048, "collective time must bounce at 16_8_8_4");
}

/// §V-A.1: with Themis scheduling, a conventional multi-dimensional system
/// matches a wafer-scale system of equal aggregate per-NPU bandwidth on a
/// 1 GB All-Reduce; without it, it does not.
#[test]
fn themis_closes_the_gap_to_wafer_scale() {
    let conv = Topology::parse("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50").unwrap();
    let wafer = Topology::parse("SW(512)@600").unwrap();
    let size = DataSize::from_gib(1);

    let wafer_time = CollectiveEngine::new(128, SchedulerPolicy::Baseline)
        .run(Collective::AllReduce, size, wafer.dims())
        .finish
        .as_us_f64();
    let conv_baseline = CollectiveEngine::new(128, SchedulerPolicy::Baseline)
        .run(Collective::AllReduce, size, conv.dims())
        .finish
        .as_us_f64();
    let conv_themis = CollectiveEngine::new(128, SchedulerPolicy::Themis)
        .run(Collective::AllReduce, size, conv.dims())
        .finish
        .as_us_f64();

    assert!(
        conv_baseline / wafer_time > 1.25,
        "baseline scheduling wastes the hierarchy: {conv_baseline} vs {wafer_time}"
    );
    assert!(
        conv_themis / wafer_time < 1.12,
        "Themis should close to near-parity: {conv_themis} vs {wafer_time}"
    );
}

/// §V-A.1: 1-D wafer systems gain nothing from smart scheduling.
#[test]
fn wafer_1d_gains_nothing_from_themis() {
    let wafer = Topology::parse("SW(512)@500").unwrap();
    let size = DataSize::from_gib(1);
    let base = CollectiveEngine::new(64, SchedulerPolicy::Baseline)
        .run(Collective::AllReduce, size, wafer.dims())
        .finish;
    let themis = CollectiveEngine::new(64, SchedulerPolicy::Themis)
        .run(Collective::AllReduce, size, wafer.dims())
        .finish;
    assert_eq!(base, themis);
}

/// Fig. 4: the analytical backend tracks the packet-level ground truth
/// within the paper's ~5% band (one representative point per ring size).
#[test]
fn analytical_backend_validation_error_is_small() {
    for npus in [4usize, 16] {
        let topo = Topology::parse(&format!("R({npus})@150")).unwrap();
        let size = DataSize::from_mib(128);
        let packet = astra_garnet::collective_time(
            &topo,
            size,
            &astra_garnet::PacketSimConfig::real_system_proxy(),
        )
        .finish
        .as_us_f64();
        let analytical = CollectiveEngine::new(1, SchedulerPolicy::Baseline)
            .run(Collective::AllReduce, size, topo.dims())
            .finish
            .as_us_f64();
        let err = (analytical - packet).abs() / packet;
        assert!(
            err < 0.06,
            "{npus} NPUs: packet {packet} vs analytical {analytical}"
        );
    }
}

/// §IV-C: the packet-level backend pays orders of magnitude more
/// simulation events than the analytical backend's closed forms.
#[test]
fn packet_backend_event_cost_scales_with_packets() {
    let topo = Topology::parse("R(4)@100_R(4)@100").unwrap();
    let size = DataSize::from_mib(1);
    let fine =
        astra_garnet::collective_time(&topo, size, &astra_garnet::PacketSimConfig::garnet_like());
    let coarse = astra_garnet::collective_time(&topo, size, &astra_garnet::PacketSimConfig::fast());
    assert!(fine.events > 50 * coarse.events);
    // Identical algorithm, near-identical simulated time.
    let drift = fine.finish.as_us_f64() / coarse.finish.as_us_f64();
    assert!((0.8..1.25).contains(&drift), "{drift}");
}

/// Golden end-to-end numbers for two Fig. 9-style configurations, pinned
/// to the picosecond.
///
/// These pins intentionally over-constrain the simulator: any refactor of
/// the DES kernel, the collective engine, or the graph engine that shifts
/// results — even by one tick — fails here instead of silently moving the
/// paper's figures. If a deliberate modeling change moves them, update the
/// constants in the same commit and say why.
#[test]
fn golden_fig9_conv4d_allreduce_is_pinned_on_both_backends() {
    // Fig. 9(a) microbenchmark column: 1 GB world All-Reduce on the
    // Table II Conv-4D system (512 NPUs), baseline scheduler.
    let topo = astra_core::topologies::conv4d();
    let trace = CaseWorkload::AllReduce1Gb.trace(topo.npus());
    let report = simulate(&trace, &topo, &SystemConfig::default()).unwrap();
    assert_eq!(
        report.total_time,
        Time::from_ps(4_755_316_032),
        "total time moved"
    );
    assert_eq!(
        report.breakdown.exposed_comm,
        Time::from_ps(4_755_316_032),
        "exposed comm moved"
    );
    assert_eq!(report.breakdown.compute, Time::ZERO);
}

/// Golden Fig. 9(a) DLRM column on the W-2D wafer system: total exposed
/// communication and the full time breakdown.
#[test]
fn golden_fig9_w2d_dlrm_is_pinned_on_both_backends() {
    let topo = astra_core::topologies::w2d();
    let trace = CaseWorkload::Dlrm.trace(topo.npus());
    let report = simulate(&trace, &topo, &SystemConfig::default()).unwrap();
    assert_eq!(
        report.total_time,
        Time::from_ps(3_371_673_680),
        "total time moved"
    );
    assert_eq!(
        report.breakdown.exposed_comm,
        Time::from_ps(378_442_912),
        "exposed comm moved"
    );
    assert_eq!(
        report.breakdown.compute,
        Time::from_ps(2_993_230_768),
        "compute moved"
    );
}

/// Fig. 11 (truncated): ZeRO-Infinity ~= HierMem(baseline), HierMem(opt)
/// several times faster.
#[test]
fn disaggregated_memory_case_study_trends() {
    let mut model = astra_core::models::moe_1t();
    model.layers.truncate(2);
    let trace = astra_core::experiments::fig11_trace_for(&model);
    let topo = astra_core::experiments::fig11_topology();
    let mut totals = Vec::new();
    for (name, config) in astra_core::experiments::fig11_systems() {
        let report = simulate(&trace, &topo, &config).unwrap();
        totals.push((name, report.total_time.as_us_f64()));
        assert!(report.total_time > Time::ZERO);
    }
    let (zinf, base, opt) = (totals[0].1, totals[1].1, totals[2].1);
    let parity = base / zinf;
    assert!(
        (0.99..1.03).contains(&parity),
        "ZeRO-Infinity vs HierMem baseline: {parity}"
    );
    let speedup = base / opt;
    assert!(
        (3.8..5.2).contains(&speedup),
        "HierMem opt speedup {speedup} (paper: 4.6x)"
    );
}
