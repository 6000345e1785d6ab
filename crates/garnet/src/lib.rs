//! Packet-level network simulator — the Garnet / real-system substitute.
//!
//! ASTRA-sim 1.0 used gem5's Garnet as its network backend; the paper's
//! §IV-C validates the new analytical backend against real NCCL systems and
//! benchmarks its speed against Garnet. Neither gem5 nor a V100 testbed is
//! available here, so this crate provides the substitute for both roles
//! (see DESIGN.md §3):
//!
//! * [`PacketNetwork`] — a store-and-forward discrete-event simulation of
//!   every physical link of a topology: packets queue per link, pay
//!   serialization (`packet/linkBW`) and propagation delay per hop, and
//!   follow dimension-ordered routes. Event cost scales with
//!   `packets × hops`, exactly the property that makes cycle-level
//!   simulation slow at scale. Like every backend, it is driven through
//!   the async [`astra_network::NetworkBackend`] API alone: messages are
//!   sent under caller tokens and their completions drained.
//! * [`collective_time`] — lockstep packet-level execution of the
//!   multi-rail hierarchical collectives (the same algorithms the
//!   analytical backend models in closed form), used as ground truth for
//!   the Fig. 4 validation and as the "slow backend" in the §IV-C speedup
//!   experiment.
//! * [`semantics`] — bit-exact data movement of the four collective
//!   patterns (paper Fig. 2), proving algorithm correctness on real
//!   payloads.
//!
//! # Example
//!
//! ```
//! use astra_des::DataSize;
//! use astra_garnet::{collective_time, PacketSimConfig};
//! use astra_topology::Topology;
//!
//! let topo = Topology::parse("R(4)@150").unwrap();
//! let report = collective_time(&topo, DataSize::from_mib(8), &PacketSimConfig::fast());
//! assert!(report.finish > astra_des::Time::ZERO);
//! assert!(report.events > 0);
//! ```

mod network;
mod runner;
pub mod semantics;

pub use network::{PacketNetwork, PacketSimConfig, TransportMode};
pub use runner::{collective_time, collective_time_for, collective_time_on, PacketRunReport};
