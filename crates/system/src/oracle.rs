//! Test oracles of the engine.
//!
//! [`simulate_blocking_reference`] runs the engine's one p2p path against
//! a probe backend that measures every message alone, with a `p2p_delay`
//! probe on a fresh, cold backend of the configured kind. To the engine
//! the probe looks like a closed-form backend: each completion is known
//! at send time, as with the analytical equation. [`probe_network`] is
//! that backend on its own.
//!
//! [`simulate_transport_reference`] pins the packet backend to one
//! transport, with no per-packet fallback.
//!
//! [`simulate_full_reference`] simulates every NPU, never one per orbit;
//! [`orbit_count`] says how many NPUs a collapsed run simulates.

use astra_collectives::CollectiveMode;
use astra_des::{DataSize, Time};
use astra_garnet::TransportMode;
use astra_network::{Completion, NetworkBackend, NetworkStats};
use astra_telemetry::SimTrace;
use astra_topology::{NpuId, Topology};
use astra_workload::ExecutionTrace;

use crate::engine::{run_exact, run_on, run_quotient, Engine, SimError, SystemConfig, WarmState};
use crate::orbits::Orbits;
use crate::setup::{build_network, prepare};
use crate::SimReport;

/// The frozen blocking-p2p test oracle: [`simulate`](crate::simulate),
/// except that every p2p message is measured alone by a `p2p_delay` probe
/// on a fresh backend, so messages never contend. The two agree bit for
/// bit unless messages from *different* sources overlap on a
/// contention-modeling backend (pinned by `tests/p2p_paths.rs`).
///
/// # Errors
///
/// [`simulate`](crate::simulate)'s errors, plus
/// [`SimError::BackendCollectivesNeedAsyncP2p`] for
/// [`CollectiveMode::Backend`].
pub fn simulate_blocking_reference(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<SimReport, SimError> {
    if config.collective_mode == CollectiveMode::Backend {
        return Err(SimError::BackendCollectivesNeedAsyncP2p);
    }
    let setup = prepare(trace, topo, config)?;
    let warm = WarmState::default();
    let orbits = Orbits::identity(trace.npus(), setup.spans.len(), topo.num_dims());
    let mut engine = Engine::new(trace, topo, config, &warm, orbits, setup);
    engine.network = Some(probe_network(topo, config));
    engine.run()
}

/// The backend [`simulate_blocking_reference`] runs on: every send is
/// measured alone by a `p2p_delay` probe on a fresh, cold backend of
/// `config`'s kind, and its completion, carrying the caller's token, is
/// drainable at once.
pub fn probe_network<'a>(
    topo: &'a Topology,
    config: &'a SystemConfig,
) -> Box<dyn NetworkBackend + 'a> {
    Box::new(ProbeNetwork {
        topo,
        config,
        stats: NetworkStats::default(),
        ready: Vec::new(),
    })
}

/// [`simulate_traced`](crate::simulate_traced) on the identity partition
/// with the packet backend on `transport` and no per-packet fallback, plus
/// whether the backend vouched for its answer
/// ([`NetworkBackend::exact`]). On [`TransportMode::PerPacket`] it is the
/// answer `packet` must report.
pub fn simulate_transport_reference(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
    transport: TransportMode,
) -> (Result<SimReport, SimError>, Option<SimTrace>, bool) {
    match prepare(trace, topo, config) {
        Ok(setup) => run_on(
            trace,
            topo,
            config,
            &WarmState::default(),
            transport,
            config.telemetry,
            setup,
        ),
        Err(e) => (Err(e), None, true),
    }
}

/// [`simulate`](crate::simulate) on the identity partition: every NPU,
/// group and lane is simulated, however symmetric the run. A collapsed
/// run must report exactly this.
///
/// # Errors
///
/// Exactly [`simulate`](crate::simulate)'s errors.
pub fn simulate_full_reference(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<SimReport, SimError> {
    run_exact(trace, topo, config, &WarmState::default(), false, false).0
}

/// How many NPU blocks [`simulate`](crate::simulate) runs for this input:
/// the number of NPU orbits of an eligible run whose quotient sees no
/// tie, the NPU count otherwise.
///
/// # Errors
///
/// The set-up errors of [`simulate`](crate::simulate).
pub fn orbit_count(
    trace: &ExecutionTrace,
    topo: &Topology,
    config: &SystemConfig,
) -> Result<usize, SimError> {
    let setup = prepare(trace, topo, config)?;
    let quotient = run_quotient(trace, topo, config, &WarmState::default(), &setup);
    Ok(quotient.map_or(trace.npus(), |(blocks, _)| blocks))
}

/// A backend that answers every send with a probe on a fresh
/// sub-simulation. Its stats are the sum of the probes' stats, so it
/// reports one backend setup per message.
struct ProbeNetwork<'a> {
    topo: &'a Topology,
    config: &'a SystemConfig,
    stats: NetworkStats,
    ready: Vec<Completion>,
}

impl ProbeNetwork<'_> {
    /// Measures one message alone on a fresh, cold backend, paying setup
    /// per message — the cost the co-resident backend amortizes away.
    // frozen-ref: 833284297d7a285f
    fn measure(&mut self, src: NpuId, dst: NpuId, size: DataSize) -> Time {
        let mut probe = build_network(self.topo, self.config, &WarmState::default());
        let delay = probe.p2p_delay(src, dst, size);
        self.stats.merge(&probe.stats());
        delay
    }
}

impl NetworkBackend for ProbeNetwork<'_> {
    /// The completion is known at send time and drainable immediately.
    fn send_async(&mut self, token: u32, at: Time, src: NpuId, dst: NpuId, size: DataSize) {
        let finish = at + self.measure(src, dst, size);
        self.ready.push(Completion { token, finish });
    }

    fn next_event_time(&self) -> Option<Time> {
        None
    }

    fn advance_until(&mut self, _limit: Time) {}

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.ready);
    }

    fn stats(&self) -> NetworkStats {
        self.stats
    }
}
