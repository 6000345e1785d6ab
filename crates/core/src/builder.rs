//! Fluent construction of simulations.

use astra_collectives::SchedulerPolicy;
use astra_memory::{LocalMemory, PoolArchitecture};
use astra_system::{simulate_with, SimError, SimReport, SystemConfig, WarmState};
use astra_topology::{ParseTopologyError, Topology};
use astra_workload::{
    parallelism::{self, GenerateError},
    ExecutionTrace, Model, Parallelism, Roofline,
};
use std::error::Error;
use std::fmt;

/// Errors from building or running a simulation.
#[derive(Debug)]
pub enum BuildError {
    /// No topology was configured.
    MissingTopology,
    /// No workload (trace or model) was configured.
    MissingWorkload,
    /// The topology notation failed to parse.
    Parse(ParseTopologyError),
    /// Trace generation failed for the chosen parallelism.
    Generate(GenerateError),
    /// The simulation setup was inconsistent.
    Sim(SimError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingTopology => write!(f, "no topology configured"),
            BuildError::MissingWorkload => write!(f, "no workload configured"),
            BuildError::Parse(e) => write!(f, "topology notation: {e}"),
            BuildError::Generate(e) => write!(f, "trace generation: {e}"),
            BuildError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Parse(e) => Some(e),
            BuildError::Generate(e) => Some(e),
            BuildError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseTopologyError> for BuildError {
    fn from(e: ParseTopologyError) -> Self {
        BuildError::Parse(e)
    }
}

impl From<GenerateError> for BuildError {
    fn from(e: GenerateError) -> Self {
        BuildError::Generate(e)
    }
}

impl From<SimError> for BuildError {
    fn from(e: SimError) -> Self {
        BuildError::Sim(e)
    }
}

enum WorkloadSource {
    Trace(ExecutionTrace),
    Model(Model, Parallelism),
    AllReduce(astra_des::DataSize),
}

/// Builder for end-to-end simulations: configure a platform (topology,
/// NPU, memory) and a workload (trace or model + parallelism), then
/// [`SimulationBuilder::run`].
///
/// # Example
///
/// ```
/// use astra_core::{DataSize, SimulationBuilder};
///
/// // 1 GiB All-Reduce microbenchmark on the Table II Conv-4D system.
/// let report = SimulationBuilder::new()
///     .topology(astra_core::topologies::conv4d())
///     .all_reduce(DataSize::from_gib(1))
///     .run()?;
/// assert!(report.breakdown.exposed_comm > astra_core::Time::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SimulationBuilder {
    topology: Option<Topology>,
    workload: Option<WorkloadSource>,
    config: SystemConfig,
    warm: WarmState,
}

impl SimulationBuilder {
    /// Starts an empty builder with default system configuration
    /// (128 collective chunks, baseline scheduler, A100 roofline).
    pub fn new() -> Self {
        SimulationBuilder {
            topology: None,
            workload: None,
            config: SystemConfig::default(),
            warm: WarmState::default(),
        }
    }

    /// Sets the platform topology.
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Parses and sets the platform topology from notation
    /// (e.g. `"R(4)@250_SW(2)@50"`).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Parse`] on invalid notation.
    pub fn notation(mut self, notation: &str) -> Result<Self, BuildError> {
        self.topology = Some(Topology::parse(notation)?);
        Ok(self)
    }

    /// Uses an explicit execution trace as the workload.
    pub fn trace(mut self, trace: ExecutionTrace) -> Self {
        self.workload = Some(WorkloadSource::Trace(trace));
        self
    }

    /// Generates the workload from a model and parallelization strategy at
    /// run time (sized to the topology's NPU count).
    pub fn workload(mut self, model: Model, parallelism: Parallelism) -> Self {
        self.workload = Some(WorkloadSource::Model(model, parallelism));
        self
    }

    /// Uses a single world-wide All-Reduce of `size` as the workload (the
    /// Fig. 9 microbenchmark).
    pub fn all_reduce(mut self, size: astra_des::DataSize) -> Self {
        self.workload = Some(WorkloadSource::AllReduce(size));
        self
    }

    /// Selects the Themis greedy collective scheduler (§V-A.1) instead of
    /// the baseline fixed-order scheduler.
    pub fn themis(mut self, enabled: bool) -> Self {
        self.config.scheduler = if enabled {
            SchedulerPolicy::Themis
        } else {
            SchedulerPolicy::Baseline
        };
        self
    }

    /// Sets the number of pipeline chunks per collective.
    pub fn chunks(mut self, chunks: u64) -> Self {
        self.config.collective_chunks = chunks;
        self
    }

    /// Selects the network backend carrying point-to-point messages
    /// (`analytical` closed form by default; `packet` / `batched` for the
    /// store-and-forward DES, `flow` for max-min fluid sharing).
    pub fn network_backend(mut self, backend: astra_network::NetworkBackendKind) -> Self {
        self.config.network_backend = backend;
        self
    }

    /// Selects the execution core of the packet-level backends: the
    /// sequential reference (default) or the domain-partitioned parallel
    /// core with `threads` workers advancing conservative-lookahead
    /// windows ([`astra_des::SimMode::Parallel`]). Results are
    /// bit-identical across thread counts; `sim_threads(n)` with any
    /// `n >= 1` selects the parallel core (its n=1 serial path included).
    pub fn sim_threads(mut self, threads: usize) -> Self {
        self.config.sim_mode = astra_des::SimMode::Parallel {
            threads: threads.max(1),
        };
        self
    }

    /// Selects how collectives execute: the closed-form analytical
    /// collective engine (default, the frozen fast path) or chunk-level
    /// send/recv programs on the co-resident network backend
    /// (`CollectiveMode::Backend`), where collective traffic contends with
    /// concurrent p2p messages and other collectives.
    pub fn collective_mode(mut self, mode: astra_collectives::CollectiveMode) -> Self {
        self.config.collective_mode = mode;
        self
    }

    /// Sets the NPU compute roofline.
    pub fn roofline(mut self, roofline: Roofline) -> Self {
        self.config.roofline = roofline;
        self
    }

    /// Sets the local HBM model.
    pub fn local_memory(mut self, memory: LocalMemory) -> Self {
        self.config.local_memory = memory;
        self
    }

    /// Attaches a disaggregated remote memory pool.
    pub fn remote_memory(mut self, pool: PoolArchitecture) -> Self {
        self.config.remote_memory = Some(pool);
        self
    }

    /// Applies a deterministic fault schedule (link failures, bandwidth
    /// degradation, NPU stragglers, switch outages — see
    /// [`astra_system::FaultSchedule`]). An empty schedule (the default)
    /// leaves every backend bit-identical to its fault-free reference.
    pub fn faults(mut self, faults: astra_system::FaultSchedule) -> Self {
        self.config.faults = faults;
        self
    }

    /// Caps the number of events the run may process before failing with
    /// [`astra_system::SimError::BudgetExceeded`]. Deterministic across
    /// queue backends, sim modes, and warm state.
    pub fn max_events(mut self, cap: u64) -> Self {
        self.config.max_events = Some(cap);
        self
    }

    /// Caps the simulated horizon the run may reach before failing with
    /// [`astra_system::SimError::BudgetExceeded`].
    pub fn max_sim_time(mut self, cap: astra_des::Time) -> Self {
        self.config.max_sim_time = Some(cap);
        self
    }

    /// Overrides the full system configuration.
    pub fn system_config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches cross-run warm state (shared delay/route/lowering memo
    /// handles, see [`WarmState`]). Warm state is a pure speed knob: the
    /// resulting report is bit-identical to a cold run's. A batch service
    /// threads the same handles through many builders to amortize
    /// recomputation across requests.
    pub fn warm_state(mut self, warm: WarmState) -> Self {
        self.warm = warm;
        self
    }

    /// Builds and runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if topology or workload is missing, trace
    /// generation fails, or the simulation setup is inconsistent.
    pub fn run(self) -> Result<SimReport, BuildError> {
        let topo = self.topology.ok_or(BuildError::MissingTopology)?;
        let trace = match self.workload.ok_or(BuildError::MissingWorkload)? {
            WorkloadSource::Trace(t) => t,
            WorkloadSource::Model(model, parallelism) => {
                parallelism::generate_trace(&model, parallelism, topo.npus())?
            }
            WorkloadSource::AllReduce(size) => {
                crate::experiments::all_reduce_trace(topo.npus(), size)
            }
        };
        Ok(simulate_with(&trace, &topo, &self.config, &self.warm)?)
    }
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_des::{DataSize, Time};

    #[test]
    fn missing_parts_are_reported() {
        assert!(matches!(
            SimulationBuilder::new().run(),
            Err(BuildError::MissingTopology)
        ));
        assert!(matches!(
            SimulationBuilder::new()
                .topology(astra_topology::presets::zion())
                .run(),
            Err(BuildError::MissingWorkload)
        ));
    }

    #[test]
    fn invalid_notation_is_reported() {
        assert!(matches!(
            SimulationBuilder::new().notation("Mesh(9)"),
            Err(BuildError::Parse(_))
        ));
    }

    #[test]
    fn all_reduce_microbenchmark_runs() {
        let report = SimulationBuilder::new()
            .notation("SW(16)@100")
            .unwrap()
            .all_reduce(DataSize::from_mib(512))
            .run()
            .unwrap();
        // 2*(15/16)*512MiB at 100 GB/s ~ 10.06 ms.
        let ms = report.total_time.as_ms_f64();
        assert!((9.5..10.8).contains(&ms), "{ms}");
        assert_eq!(report.breakdown.compute, Time::ZERO);
    }

    #[test]
    fn network_backend_is_selectable() {
        for kind in astra_network::NetworkBackendKind::ALL {
            let report = SimulationBuilder::new()
                .notation("SW(8)@400")
                .unwrap()
                .all_reduce(DataSize::from_mib(64))
                .network_backend(kind)
                .run()
                .unwrap();
            assert!(report.total_time > Time::ZERO, "{kind}");
        }
    }

    #[test]
    fn generate_error_propagates() {
        let err = SimulationBuilder::new()
            .notation("R(3)@100")
            .unwrap()
            .workload(
                astra_workload::models::gpt3_175b(),
                Parallelism::Hybrid { mp: 2 },
            )
            .run();
        assert!(matches!(err, Err(BuildError::Generate(_))));
    }

    #[test]
    fn error_display_chains() {
        let err = BuildError::MissingTopology.to_string();
        assert!(err.contains("topology"));
    }
}
