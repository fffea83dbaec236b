//! # mars-comm
//!
//! Collective-communication latency simulator for multi-accelerator systems —
//! the reproduction's substitute for ASTRA-Sim \[9\], which the paper uses "to
//! simulate communication latency in the system".
//!
//! The simulator has two layers:
//!
//! * a small discrete-event engine that schedules point-to-point transfers
//!   over the links of a [`Topology`](mars_topology::Topology),
//!   serialising transfers that share a link (FIFO contention) and routing
//!   transfers between accelerators without a direct link through the host.
//!   Every hop pays a fixed latency on top of its bandwidth term: 5 µs on a
//!   direct link, 25 µs per host-staged hop.
//! * ring-based collective algorithms (All-Reduce, All-Gather, Reduce-Scatter,
//!   broadcast, ring shift) expressed as transfer DAGs and executed on the
//!   engine, which the tests cross-check against closed-form alpha–beta
//!   estimates.  Ring collectives never split a payload into chunks smaller
//!   than 4 KiB.
//!
//! The top-level convenience type is [`CommSim`], which is what the
//! parallelism-strategy evaluator and the mapping search consume.
//!
//! ```
//! use mars_comm::CommSim;
//! use mars_topology::presets;
//!
//! let topo = presets::f1_16xlarge();
//! let sim = CommSim::new(&topo);
//! let group: Vec<_> = topo.group_members(0);
//! // All-reducing 1 MiB over the 4 accelerators of one group takes well under
//! // ten milliseconds at 8 Gbps.
//! let t = sim.all_reduce(&group, 1 << 20);
//! assert!(t > 0.0 && t < 10e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod collective;
mod event;
mod sim;

pub use sim::CommSim;
