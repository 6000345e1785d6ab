//! Request execution over cross-request warm caches.
//!
//! The cache layer lifts the engine's per-run memos into shared,
//! content-addressed tables that live as long as the service:
//!
//! * a per-topology `(src, dst, size)` analytical **delay memo**,
//! * a per-topology **route table** for the fluid backend,
//! * a global **lowering cache** of chunk-level collective programs
//!   (group shape, collective, size, chunks — topology-independent),
//! * a **trace cache** of generated workloads keyed by generation inputs,
//! * a **result cache** memoizing whole [`SimReport`]s by the request's
//!   canonical key.
//!
//! Determinism contract: shared tables hold pure functions of their keys
//! and are consulted only on local-memo misses, so every report is
//! bit-identical to a cold [`astra_core::simulate`] run of the same
//! request — regardless of worker count, request order, or cache hits.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use astra_core::{
    simulate_traced_with, simulate_with, DataSize, Parallelism, PoolArchitecture, Roofline,
    SchedulerPolicy, SharedDelayMemo, SharedLoweringCache, SharedRouteTable, SharedTraceCache,
    SimError, SimMode, SimReport, SimTrace, SystemConfig, Time, Topology, WarmState,
};
use astra_workload::parallelism::{generate_disaggregated_moe, generate_trace, OffloadPlan};
use astra_workload::ExecutionTrace;

use crate::request::{err, ErrorKind, RequestError, SimRequest};

/// Locks `mutex`, recovering the guard if a previous holder panicked —
/// the tables hold pure memoized values, so a poisoned lock is still
/// consistent.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The batch service's shared warm caches. One instance serves many
/// requests (and many connections); `WarmCache::new()` per request
/// degenerates to fully cold execution.
#[derive(Debug, Default)]
pub struct WarmCache {
    /// Per topology-notation delay memo for the analytical backend.
    delay: Mutex<BTreeMap<String, Arc<SharedDelayMemo>>>,
    /// Per topology-notation route table for the fluid backend.
    routes: Mutex<BTreeMap<String, Arc<SharedRouteTable>>>,
    /// Lowered collective programs; the key carries the dimension stack,
    /// so one table serves every topology.
    lowering: Arc<SharedLoweringCache>,
    /// Generated execution traces keyed by their generation inputs.
    traces: Arc<SharedTraceCache>,
    /// Whole reports keyed by [`SimRequest::canonical_key`].
    results: Mutex<BTreeMap<String, Arc<SimReport>>>,
    result_queries: AtomicU64,
    result_hits: AtomicU64,
}

/// Point-in-time totals of a [`WarmCache`], for the batch summary.
///
/// `*_queries` totals are deterministic functions of the request set
/// (every request consults each relevant cache a fixed number of times);
/// `result_hits` can undercount by the number of concurrent same-key
/// races, which depends on scheduling — the summary is informational,
/// response rows are the pinned surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Result-cache lookups (= requests that reached execution).
    pub result_queries: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Distinct reports memoized.
    pub result_entries: u64,
    /// Trace-cache lookups.
    pub trace_queries: u64,
    /// Distinct traces memoized.
    pub trace_entries: u64,
    /// Topologies with a delay-memo table.
    pub delay_tables: u64,
    /// Shared delay-memo lookups (engine local-memo misses).
    pub delay_queries: u64,
    /// Topologies with a route table.
    pub route_tables: u64,
    /// Shared route-table lookups.
    pub route_queries: u64,
    /// Distinct collective programs memoized.
    pub lowering_entries: u64,
    /// Shared lowering-cache lookups.
    pub lowering_queries: u64,
}

impl std::fmt::Display for CacheSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "results {}/{} hits ({} entries) | traces {} queries ({} entries) | \
             delay-memo {} queries ({} tables) | routes {} queries ({} tables) | \
             lowering {} queries ({} programs)",
            self.result_hits,
            self.result_queries,
            self.result_entries,
            self.trace_queries,
            self.trace_entries,
            self.delay_queries,
            self.delay_tables,
            self.route_queries,
            self.route_tables,
            self.lowering_queries,
            self.lowering_entries,
        )
    }
}

impl WarmCache {
    /// Creates an empty (fully cold) cache set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The warm handles for one request: per-topology delay memo and
    /// route table (created on first use), plus the global lowering
    /// cache. The table key carries the request's fault signature, so a
    /// fault-laden request can never alias (or poison) the tables of
    /// fault-free runs over the same topology.
    fn warm_state_for(&self, req: &SimRequest) -> WarmState {
        let key = format!("{}|{}", req.topology, req.faults.signature());
        let delay = Arc::clone(lock_unpoisoned(&self.delay).entry(key.clone()).or_default());
        let routes = Arc::clone(lock_unpoisoned(&self.routes).entry(key).or_default());
        WarmState {
            delay_memo: Some(delay),
            lowering: Some(Arc::clone(&self.lowering)),
            routes: Some(routes),
        }
    }

    /// Current cache totals for the batch summary.
    pub fn summary(&self) -> CacheSummary {
        let delay = lock_unpoisoned(&self.delay);
        let routes = lock_unpoisoned(&self.routes);
        CacheSummary {
            result_queries: self.result_queries.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_entries: lock_unpoisoned(&self.results).len() as u64,
            trace_queries: self.traces.queries(),
            trace_entries: self.traces.len() as u64,
            delay_tables: delay.len() as u64,
            delay_queries: delay.values().map(|t| t.queries()).sum(),
            route_tables: routes.len() as u64,
            route_queries: routes.values().map(|t| t.queries()).sum(),
            lowering_entries: self.lowering.len() as u64,
            lowering_queries: self.lowering.queries(),
        }
    }
}

/// Builds the [`SystemConfig`] a request describes (the same mapping the
/// CLI applies to its flags).
fn build_config(req: &SimRequest) -> Result<SystemConfig, RequestError> {
    let mut config = SystemConfig {
        scheduler: if req.themis {
            SchedulerPolicy::Themis
        } else {
            SchedulerPolicy::Baseline
        },
        network_backend: req.network.unwrap_or_default(),
        collective_mode: req.collectives.unwrap_or_default(),
        sim_mode: match req.sim_threads {
            Some(threads) => SimMode::Parallel { threads },
            None => SimMode::Sequential,
        },
        faults: req.faults.clone(),
        max_events: req.max_events,
        max_sim_time: req.max_sim_time_ps.map(Time::from_ps),
        ..SystemConfig::default()
    };
    if let Some(chunks) = req.chunks {
        if chunks == 0 {
            return Err(err("--chunks must be positive"));
        }
        config.collective_chunks = chunks;
    }
    if let Some(memory) = &req.memory {
        config.remote_memory = Some(match memory.as_str() {
            "hiermem-base" => {
                PoolArchitecture::Hierarchical(astra_core::memory_presets::hiermem_baseline())
            }
            "hiermem-opt" => {
                PoolArchitecture::Hierarchical(astra_core::memory_presets::hiermem_opt())
            }
            "zero-infinity" => {
                PoolArchitecture::ZeroInfinity(astra_core::memory_presets::zero_infinity())
            }
            other => return Err(err(format!("unknown memory system `{other}`"))),
        });
        config.roofline = Roofline::table5_gpu();
        config.local_memory = astra_core::memory_presets::case_study_hbm();
    }
    Ok(config)
}

/// The trace a request describes, fetched from (or built into) the trace
/// cache. The cache key covers every generation input, so a hit is the
/// same pure function value a fresh generation would produce.
fn resolve_trace(
    req: &SimRequest,
    npus: usize,
    config: &SystemConfig,
    traces: &SharedTraceCache,
) -> Result<Arc<ExecutionTrace>, RequestError> {
    if let Some(mib) = req.all_reduce_mib {
        let key = format!("all-reduce/{mib}mib/{npus}");
        return traces.get_or_try_build(&key, || {
            Ok::<_, RequestError>(astra_core::experiments::all_reduce_trace(
                npus,
                DataSize::from_mib(mib),
            ))
        });
    }
    let name = req
        .workload
        .as_deref()
        .ok_or_else(|| err("one of `workload` or `all_reduce_mib` is required"))?;
    let (model, default_parallelism) = match name {
        // Reserved self-test workload: panics inside execution so panic
        // isolation (catch per request, pool stays alive) can be
        // exercised end to end without a real engine bug.
        "__panic" => panic!("reserved workload `__panic` requested"),
        "dlrm" => (astra_core::models::dlrm_57m(), Parallelism::Data),
        "gpt3" => {
            let model = astra_core::models::gpt3_175b();
            let mp = req.mp.unwrap_or(model.default_mp).min(npus);
            (model, Parallelism::Hybrid { mp })
        }
        "t1t" => {
            let model = astra_core::models::transformer_1t();
            let mp = req.mp.unwrap_or(model.default_mp).min(npus);
            (model, Parallelism::Hybrid { mp })
        }
        "moe" => {
            let model = astra_core::models::moe_1t();
            if config.remote_memory.is_none() {
                return Err(err("--workload moe requires --memory <SYSTEM>"));
            }
            let key = format!("moe/offload-default/{npus}");
            return traces.get_or_try_build(&key, || {
                generate_disaggregated_moe(&model, npus, &OffloadPlan::default())
                    .map_err(|e| err(format!("workload: {e}")))
            });
        }
        other => return Err(err(format!("unknown workload `{other}`"))),
    };
    let parallelism = if let Some(stages) = req.pipeline {
        if stages == 0 {
            return Err(err("--pipeline must be positive"));
        }
        Parallelism::Pipeline {
            stages,
            microbatches: stages,
        }
    } else if req.fsdp {
        Parallelism::FullyShardedData
    } else {
        default_parallelism
    };
    let key = format!("{name}/{parallelism:?}/{npus}");
    traces.get_or_try_build(&key, || {
        generate_trace(&model, parallelism, npus).map_err(|e| err(format!("workload: {e}")))
    })
}

/// Executes one request against the shared caches, memoizing the report
/// under its canonical key.
///
/// # Errors
///
/// Returns a [`RequestError`] on invalid notation, unknown
/// workload/memory names, or simulation setup problems — the same
/// messages the CLI prints for the equivalent flags.
pub fn execute(req: &SimRequest, cache: &WarmCache) -> Result<Arc<SimReport>, RequestError> {
    let key = req.canonical_key();
    cache.result_queries.fetch_add(1, Ordering::Relaxed);
    if let Some(report) = lock_unpoisoned(&cache.results).get(&key) {
        cache.result_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(report));
    }
    let topo = Topology::parse(&req.topology).map_err(|e| err(format!("topology: {e}")))?;
    let config = build_config(req)?;
    let trace = resolve_trace(req, topo.npus(), &config, &cache.traces)?;
    let warm = cache.warm_state_for(req);
    let report = Arc::new(simulate_with(&trace, &topo, &config, &warm).map_err(|e| {
        let kind = match e {
            SimError::BudgetExceeded { .. } => ErrorKind::BudgetExceeded,
            _ => ErrorKind::Request,
        };
        RequestError::with_kind(kind, format!("simulation: {e}"))
    })?);
    // Two racing misses on the same key both simulate (bit-identically);
    // the table keeps the first.
    let mut results = lock_unpoisoned(&cache.results);
    let entry = results.entry(key).or_insert_with(|| Arc::clone(&report));
    Ok(Arc::clone(entry))
}

/// Executes one request fully cold (fresh caches), as the single-run CLI
/// does.
///
/// # Errors
///
/// Exactly [`execute`]'s errors.
pub fn execute_once(req: &SimRequest) -> Result<SimReport, RequestError> {
    execute(req, &WarmCache::new()).map(|report| (*report).clone())
}

/// Executes one request with telemetry recording on, returning the report
/// plus the recorded [`SimTrace`]. The report is bit-identical to
/// [`execute`]'s apart from [`SimReport::metrics`] (filled from the
/// trace); the trace itself is a pure function of the request — identical
/// warm vs cold, across worker counts, queue backends, and sim modes.
///
/// Traced runs bypass the whole-report result cache (their reports carry
/// metrics, which untraced requests must never observe) but still share
/// the trace/delay/route/lowering tables.
///
/// # Errors
///
/// Exactly [`execute`]'s errors.
pub fn execute_traced(
    req: &SimRequest,
    cache: &WarmCache,
) -> Result<(SimReport, Option<SimTrace>), RequestError> {
    let topo = Topology::parse(&req.topology).map_err(|e| err(format!("topology: {e}")))?;
    let mut config = build_config(req)?;
    config.telemetry = true;
    let trace = resolve_trace(req, topo.npus(), &config, &cache.traces)?;
    let warm = cache.warm_state_for(req);
    let (result, sim_trace) = simulate_traced_with(&trace, &topo, &config, &warm);
    let report = result.map_err(|e| {
        let kind = match e {
            SimError::BudgetExceeded { .. } => ErrorKind::BudgetExceeded,
            _ => ErrorKind::Request,
        };
        RequestError::with_kind(kind, format!("simulation: {e}"))
    })?;
    Ok((report, sim_trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(json: &str) -> SimRequest {
        SimRequest::from_json_line(json).unwrap()
    }

    #[test]
    fn repeat_requests_hit_the_result_cache() {
        let cache = WarmCache::new();
        let r = req(r#"{"topology": "SW(8)@400", "all_reduce_mib": 64}"#);
        let first = execute(&r, &cache).unwrap();
        let second = execute(&r, &cache).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.summary();
        assert_eq!(s.result_queries, 2);
        assert_eq!(s.result_hits, 1);
        assert_eq!(s.result_entries, 1);
        assert_eq!(s.trace_queries, 1, "a result hit skips trace resolution");
    }

    #[test]
    fn warm_execution_is_bit_identical_to_cold() {
        let cache = WarmCache::new();
        let a = req(r#"{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4}"#);
        // A second request over the same topology shares the delay memo.
        let b = req(r#"{"topology": "R(8)@100", "workload": "gpt3", "pipeline": 4, "chunks": 64}"#);
        let warm_a = execute(&a, &cache).unwrap();
        let warm_b = execute(&b, &cache).unwrap();
        assert_eq!(*warm_a, execute_once(&a).unwrap());
        assert_eq!(*warm_b, execute_once(&b).unwrap());
        let s = cache.summary();
        assert_eq!(s.trace_entries, 1, "both requests share one trace");
        assert_eq!(s.delay_tables, 1);
    }

    #[test]
    fn traced_execution_matches_untraced_apart_from_metrics() {
        let cache = WarmCache::new();
        let r = req(r#"{"topology": "SW(8)@400", "all_reduce_mib": 64}"#);
        let (mut traced, trace) = execute_traced(&r, &cache).unwrap();
        let trace = trace.expect("telemetry was on, a trace must come back");
        assert_eq!(trace.npus, 8);
        assert_eq!(trace.horizon, traced.total_time);
        assert!(traced.metrics.is_some(), "traced reports carry metrics");
        traced.metrics = None;
        assert_eq!(traced, execute_once(&r).unwrap());
        // Traced runs never pollute the result cache.
        assert_eq!(cache.summary().result_entries, 0);
    }

    #[test]
    fn errors_mirror_the_cli() {
        let cache = WarmCache::new();
        let bad_topo = req(r#"{"topology": "Mesh(9)", "workload": "dlrm"}"#);
        assert!(execute(&bad_topo, &cache)
            .unwrap_err()
            .to_string()
            .starts_with("topology:"));
        let bad_workload = req(r#"{"topology": "SW(8)@400", "workload": "bert"}"#);
        assert!(execute(&bad_workload, &cache)
            .unwrap_err()
            .to_string()
            .contains("bert"));
        let moe = req(r#"{"topology": "SW(16)@256_SW(16)@100", "workload": "moe"}"#);
        assert!(execute(&moe, &cache)
            .unwrap_err()
            .to_string()
            .contains("--memory"));
        // Failed requests are not memoized.
        assert_eq!(cache.summary().result_entries, 0);
    }
}
