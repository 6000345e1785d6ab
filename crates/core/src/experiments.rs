//! Ready-made configurations for every case study in the paper's
//! evaluation (§V). The `astra sweep` paper series drive these to
//! regenerate each table and figure; integration tests pin their headline
//! trends.

use astra_collectives::Collective;
use astra_des::DataSize;
use astra_memory::{presets as mem_presets, PoolArchitecture};
use astra_system::SystemConfig;
use astra_topology::{presets as topo_presets, Topology};
use astra_workload::{
    models, parallelism, EtOp, ExecutionTrace, Model, Parallelism, Roofline, TraceBuilder,
};

/// A named platform under evaluation.
#[derive(Clone, Debug)]
pub struct SystemUnderTest {
    /// Display name used in the paper's figures (e.g. `"W-1D-350"`).
    pub name: String,
    /// The platform topology.
    pub topology: Topology,
}

impl SystemUnderTest {
    fn new(name: &str, topology: Topology) -> Self {
        SystemUnderTest {
            name: name.to_owned(),
            topology,
        }
    }
}

/// The six Fig. 9(a) systems (Table II): three W-1D bandwidth points, the
/// W-2D wafer, and the Conv-3D / Conv-4D conventional platforms.
pub fn fig9a_systems() -> Vec<SystemUnderTest> {
    vec![
        SystemUnderTest::new("W-1D-350", topo_presets::w1d(350)),
        SystemUnderTest::new("W-1D-500", topo_presets::w1d(500)),
        SystemUnderTest::new("W-1D-600", topo_presets::w1d(600)),
        SystemUnderTest::new("W-2D-500", topo_presets::w2d()),
        SystemUnderTest::new("Conv-3D", topo_presets::conv3d()),
        SystemUnderTest::new("Conv-4D", topo_presets::conv4d()),
    ]
}

/// The seven Fig. 9(b) scaling points: Base-512 plus conventional
/// scale-out and wafer scale-up to 1K/2K/4K NPUs (§V-A.2).
pub fn fig9b_systems() -> Vec<SystemUnderTest> {
    vec![
        SystemUnderTest::new("Base-512", topo_presets::base512()),
        SystemUnderTest::new("Conv-1024", topo_presets::conv_scaled(1024)),
        SystemUnderTest::new("Conv-2048", topo_presets::conv_scaled(2048)),
        SystemUnderTest::new("Conv-4096", topo_presets::conv_scaled(4096)),
        SystemUnderTest::new("W-1024", topo_presets::wafer_scaled(1024)),
        SystemUnderTest::new("W-2048", topo_presets::wafer_scaled(2048)),
        SystemUnderTest::new("W-4096", topo_presets::wafer_scaled(4096)),
    ]
}

/// The Table IV scaling rows: shape label plus topology, from `2_8_8_4`
/// through conventional scale-out and wafer scale-up variants.
pub fn table4_systems() -> Vec<SystemUnderTest> {
    vec![
        SystemUnderTest::new("2_8_8_4", topo_presets::base512()),
        SystemUnderTest::new("2_8_8_8", topo_presets::conv_scaled(1024)),
        SystemUnderTest::new("2_8_8_16", topo_presets::conv_scaled(2048)),
        SystemUnderTest::new("2_8_8_32", topo_presets::conv_scaled(4096)),
        SystemUnderTest::new("4_8_8_4", topo_presets::wafer_scaled(1024)),
        SystemUnderTest::new("8_8_8_4", topo_presets::wafer_scaled(2048)),
        SystemUnderTest::new("16_8_8_4", topo_presets::wafer_scaled(4096)),
    ]
}

/// The Fig. 9 workload columns.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CaseWorkload {
    /// A single 1 GB world All-Reduce.
    AllReduce1Gb,
    /// DLRM (Table III): embedding All-to-All + MLP data parallelism.
    Dlrm,
    /// GPT-3 175B (Table III): MP 16 × DP hybrid.
    Gpt3,
    /// Transformer-1T (Table III): MP 128 × DP hybrid.
    T1t,
}

impl CaseWorkload {
    /// All four Fig. 9 columns in paper order.
    pub const ALL: [CaseWorkload; 4] = [
        CaseWorkload::AllReduce1Gb,
        CaseWorkload::Dlrm,
        CaseWorkload::Gpt3,
        CaseWorkload::T1t,
    ];

    /// Display name used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            CaseWorkload::AllReduce1Gb => "All-Reduce(1GB)",
            CaseWorkload::Dlrm => "DLRM",
            CaseWorkload::Gpt3 => "GPT-3",
            CaseWorkload::T1t => "T-1T",
        }
    }

    /// Generates the workload's execution trace for an `npus`-wide system.
    ///
    /// # Panics
    ///
    /// Panics if `npus` is incompatible with the workload's parallelism
    /// (all Fig. 9 systems are compatible).
    pub fn trace(&self, npus: usize) -> ExecutionTrace {
        match self {
            CaseWorkload::AllReduce1Gb => all_reduce_trace(npus, DataSize::from_gib(1)),
            CaseWorkload::Dlrm => {
                parallelism::generate_trace(&models::dlrm_57m(), Parallelism::Data, npus)
                    .expect("DLRM runs data-parallel on any NPU count")
            }
            CaseWorkload::Gpt3 => parallelism::generate_trace(
                &models::gpt3_175b(),
                Parallelism::Hybrid { mp: 16 },
                npus,
            )
            .expect("Fig. 9 systems are multiples of MP=16"),
            CaseWorkload::T1t => parallelism::generate_trace(
                &models::transformer_1t(),
                Parallelism::Hybrid { mp: 128 },
                npus,
            )
            .expect("Fig. 9 systems are multiples of MP=128"),
        }
    }
}

/// A trace holding a single world-wide All-Reduce of `size` — the
/// collective microbenchmark column of Fig. 9 and the Table IV payload.
pub fn all_reduce_trace(npus: usize, size: DataSize) -> ExecutionTrace {
    let mut b = TraceBuilder::new(npus).with_name(format!("allreduce-{size}"));
    let world = b.add_group((0..npus).collect());
    for npu in 0..npus {
        b.node(
            npu,
            "allreduce",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size,
                group: world,
            },
            &[],
        );
    }
    b.build().expect("microbenchmark trace is valid")
}

/// The three Fig. 11 / Table V disaggregated-memory systems, as complete
/// system configurations (GPU roofline + local HBM + remote pool).
pub fn fig11_systems() -> Vec<(String, SystemConfig)> {
    let make = |pool: PoolArchitecture| SystemConfig {
        roofline: Roofline::table5_gpu(),
        local_memory: mem_presets::case_study_hbm(),
        remote_memory: Some(pool),
        ..SystemConfig::default()
    };
    vec![
        (
            "ZeRO-Infinity".to_owned(),
            make(PoolArchitecture::ZeroInfinity(mem_presets::zero_infinity())),
        ),
        (
            "HierMem (baseline)".to_owned(),
            make(PoolArchitecture::Hierarchical(
                mem_presets::hiermem_baseline(),
            )),
        ),
        (
            "HierMem (opt)".to_owned(),
            make(PoolArchitecture::Hierarchical(mem_presets::hiermem_opt())),
        ),
    ]
}

/// System configuration for one HierMem sweep point (§V-B design-space
/// exploration).
pub fn fig11_sweep_config(in_node_gbps: u64, remote_gbps: u64) -> SystemConfig {
    SystemConfig {
        roofline: Roofline::table5_gpu(),
        local_memory: mem_presets::case_study_hbm(),
        remote_memory: Some(PoolArchitecture::Hierarchical(mem_presets::hiermem_with(
            in_node_gbps,
            remote_gbps,
        ))),
        ..SystemConfig::default()
    }
}

/// The §V-B sweep grid: in-node fabric 256–2048 GB/s (step 256) × remote
/// group 100–500 GB/s (step 100).
pub fn fig11_sweep_grid() -> Vec<(u64, u64)> {
    let mut grid = Vec::new();
    for in_node in (256..=2048).step_by(256) {
        for remote in (100..=500).step_by(100) {
            grid.push((in_node, remote));
        }
    }
    grid
}

/// The NPU fabric of the §V-B case study: 16 nodes × 16 GPUs behind
/// switches (256 NPUs).
pub fn fig11_topology() -> Topology {
    Topology::parse("SW(16)@256_SW(16)@100").expect("valid notation")
}

/// The §V-B workload: one disaggregated MoE-1T training step.
pub fn fig11_trace() -> ExecutionTrace {
    fig11_trace_for(&models::moe_1t())
}

/// Like [`fig11_trace`] but for a custom (e.g. truncated) model — used by
/// tests and quick benchmarks.
pub fn fig11_trace_for(model: &Model) -> ExecutionTrace {
    parallelism::generate_disaggregated_moe(
        model,
        mem_presets::CASE_STUDY_GPUS,
        &parallelism::OffloadPlan::default(),
    )
    .expect("case-study GPU count divides the expert count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9a_has_six_512_npu_systems() {
        let systems = fig9a_systems();
        assert_eq!(systems.len(), 6);
        for s in &systems {
            assert_eq!(s.topology.npus(), 512, "{}", s.name);
        }
    }

    #[test]
    fn fig9b_scaling_points() {
        let systems = fig9b_systems();
        let sizes: Vec<usize> = systems.iter().map(|s| s.topology.npus()).collect();
        assert_eq!(sizes, vec![512, 1024, 2048, 4096, 1024, 2048, 4096]);
    }

    #[test]
    fn table4_shapes_match_labels() {
        for s in table4_systems() {
            let label_shape: Vec<usize> = s.name.split('_').map(|p| p.parse().unwrap()).collect();
            assert_eq!(s.topology.shape(), label_shape, "{}", s.name);
        }
    }

    #[test]
    fn workloads_generate_for_all_fig9_systems() {
        for sut in fig9a_systems() {
            for w in CaseWorkload::ALL {
                let trace = w.trace(sut.topology.npus());
                assert_eq!(trace.npus(), 512, "{} on {}", w.name(), sut.name);
            }
        }
    }

    #[test]
    fn fig11_setup_is_consistent() {
        assert_eq!(fig11_topology().npus(), mem_presets::CASE_STUDY_GPUS);
        assert_eq!(fig11_systems().len(), 3);
        assert_eq!(fig11_sweep_grid().len(), 8 * 5);
        assert!(fig11_sweep_grid().contains(&(512, 500)));
    }

    #[test]
    fn all_reduce_trace_is_one_collective_per_npu() {
        let t = all_reduce_trace(64, DataSize::from_gib(1));
        assert_eq!(t.npus(), 64);
        assert_eq!(t.total_nodes(), 64);
    }
}
