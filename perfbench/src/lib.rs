//! Host-time benchmark of the astra-sim2 workspace.
//!
//! Three workloads drive the crates' public entry points: two single
//! simulations ([`sim`]) and a request mix through the batch service
//! ([`serve`]). An untraced run prints the end-to-end metrics; a traced
//! run records a span around each call into a layer ([`spans`]) and
//! prints the per-layer metrics ([`metrics`]).

pub mod clock;
pub mod metrics;
pub mod mix;
pub mod serve;
pub mod sim;
pub mod spans;
