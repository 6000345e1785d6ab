//! Collective communication layer (ASTRA-sim 2.0 §II-B, §IV-B, Table I).
//!
//! Distributed training synchronizes sharded state with collective
//! communication: Reduce-Scatter, All-Gather, All-Reduce and All-to-All
//! (paper Fig. 2). On a multi-dimensional hierarchical topology these run as
//! *multi-rail hierarchical* collectives: the basic topology-aware algorithm
//! of each dimension's building block is applied dimension by dimension —
//! Reduce-Scatter ascending Dim 1→N, then All-Gather descending Dim N→1.
//!
//! This crate provides:
//!
//! * [`Collective`] — the four collective patterns,
//! * [`Algorithm`] — the congestion-free per-block algorithms of Table I
//!   (Ring → Ring, FullyConnected → Direct, Switch → Halving-Doubling),
//! * [`CollectiveEngine`] — chunked, pipelined execution of a hierarchical
//!   collective across per-dimension serial resources, producing completion
//!   times and per-dimension traffic/busy accounting,
//! * [`SchedulerPolicy`] — the fixed-order baseline scheduler and a
//!   Themis-style greedy scheduler that balances load across dimensions
//!   (§V-A.1, "greedy collective scheduler"),
//! * [`lowering`] — expansion of a hierarchical collective into a
//!   periodic chunk-level send/recv program ([`CollectiveProgram`]: one
//!   phase template repeated per chunk) that the system
//!   engine can execute on a network backend
//!   ([`CollectiveMode::Backend`]), where it contends with concurrent
//!   point-to-point traffic.
//!
//! # Example
//!
//! ```
//! use astra_collectives::{Collective, CollectiveEngine, SchedulerPolicy};
//! use astra_des::DataSize;
//! use astra_topology::Topology;
//!
//! let topo = Topology::parse("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50").unwrap();
//! let engine = CollectiveEngine::new(32, SchedulerPolicy::Baseline);
//! let outcome = engine.run(Collective::AllReduce, DataSize::from_gib(1), topo.dims());
//! assert!(outcome.finish > astra_des::Time::ZERO);
//! ```

mod algorithm;
mod engine;
pub mod lowering;
mod pattern;
mod scheduler;

pub use algorithm::Algorithm;
pub use engine::{dimension_traffic, CollectiveEngine, CollectiveOutcome};
pub use lowering::{ChunkOp, CollectiveMode, CollectiveProgram};
pub use pattern::Collective;
pub use scheduler::SchedulerPolicy;
