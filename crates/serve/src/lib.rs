//! `astra serve` — the batch simulation service.
//!
//! Executes many simulation requests (JSONL, over stdin or a unix
//! socket) concurrently on a deterministic worker pool, answering one
//! JSON report row per request. The perf core is a cross-request warm
//! cache layer ([`WarmCache`]) that lifts the engine's per-run memos into
//! shared, content-addressed tables:
//!
//! * per-topology `(src, dst, size)` analytical delay memos,
//! * per-topology route tables for the fluid backend,
//! * lowered chunk-level collective programs keyed by
//!   (group shape, collective, size, chunks),
//! * generated execution traces keyed by their generation inputs,
//! * whole [`astra_core::SimReport`]s keyed by the request's canonical
//!   configuration.
//!
//! **Determinism guarantee.** Warm state is a pure speed knob: every
//! response row is bit-identical to a cold single-run of the same
//! request, regardless of worker count, request order, or cache hits.
//! Shared tables hold pure functions of their keys and are consulted
//! only on local-memo misses, so per-run hit/miss counters in the report
//! do not change either.

mod batch;
mod exec;
mod request;
mod socket;
mod stats;

pub use batch::{
    report_value, run_batch, run_batch_items, run_batch_items_with, BatchLine, BatchSummary,
};
pub use exec::{execute, execute_once, execute_traced, CacheSummary, WarmCache};
pub use request::{
    parse_faults_json, ErrorKind, Field, FieldKind, RequestError, SimRequest, FIELDS,
};
pub use socket::{serve_unix, serve_unix_with, ServeOptions};
pub use stats::ServeStats;
