//! Discrete-event simulation (DES) kernel for the ASTRA-sim 2.0 reproduction.
//!
//! This crate is the bottom layer of the simulator stack. It provides:
//!
//! * [`Time`] — integer picosecond simulation time (deterministic arithmetic),
//! * [`DataSize`] and [`Bandwidth`] — payload and link-rate units with exact
//!   transfer-time computation,
//! * [`EventQueue`] — a deterministic future-event list (a binary min-heap)
//!   with FIFO tie-breaking, and [`LanedEventQueue`], the same order with
//!   `O(1)` pushes for events that arrive in per-source sorted streams,
//! * [`FifoResource`] — a serial resource timeline (used to model links,
//!   compute streams, and memory ports), with closed-form bulk reservation
//!   of whole packet trains ([`FifoResource::acquire_train`]),
//! * [`IntervalLog`] / [`attribute_exclusive`] — busy-interval bookkeeping used
//!   for the paper's "exposed time" breakdowns (Fig. 9 and Fig. 11), and
//!   [`ExclusiveFold`], the same attribution folded as intervals stream in.
//!
//! # Example
//!
//! ```
//! use astra_des::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(Time::from_ns(5), "second");
//! q.schedule_after(Time::from_ns(1), "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Time::from_ns(1), "first"));
//! ```

mod intervals;
mod queue;
mod resource;
mod units;

pub use intervals::{
    attribute_exclusive, attribute_exclusive_intervals, ExclusiveFold, FoldScratch, IntervalLog,
};
pub use queue::{EventQueue, LanedEventQueue};
pub use resource::{
    ArrivalRun, FifoCheckpoint, FifoResource, RecordedReservation, Reservation, TrainProfile,
};
pub use units::{Bandwidth, DataSize, Time};
