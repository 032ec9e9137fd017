//! A packet-level discrete-event network simulator.
//!
//! This crate is the ns-2 substitute for the DT-DCTCP reproduction: it
//! models full-duplex links (serialization + propagation), output-queued
//! switches with pluggable AQM marking (from [`dctcp_core`]), static
//! shortest-path routing, and hosts running event-driven [`Agent`]s (the
//! transport state machines live in `dctcp-tcp`).
//!
//! Design points:
//!
//! * **Integer nanosecond clock** ([`SimTime`]) — event instants are
//!   exact; ties break FIFO, so every run is deterministic.
//! * **Exact queue statistics** — queue occupancy is integrated between
//!   events ([`dctcp_stats::TimeWeighted`]), not sampled.
//! * **One engine** — each run is a single-threaded [`Simulator`];
//!   parallelism lives one level up, across independent runs (see
//!   `dctcp-parallel`), so results do not depend on the thread count.
//!
//! # Examples
//!
//! Build a dumbbell and run it (see [`TopologyBuilder`] for a complete
//! example):
//!
//! ```
//! use dctcp_sim::{LinkSpec, QueueConfig, SimDuration, Simulator, TopologyBuilder};
//! # use dctcp_sim::{Agent, Context, Packet};
//! # #[derive(Debug)]
//! # struct Nop;
//! # impl Agent for Nop {
//! #     fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
//! #     fn as_any(&self) -> &dyn std::any::Any { self }
//! #     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! # }
//!
//! let mut b = TopologyBuilder::new();
//! let h1 = b.host("h1", Box::new(Nop));
//! let h2 = b.host("h2", Box::new(Nop));
//! let link = b.link(
//!     h1,
//!     h2,
//!     LinkSpec::gbps(1.0, 50),
//!     QueueConfig::host_nic(),
//!     QueueConfig::host_nic(),
//! )?;
//! let mut sim = Simulator::new(b.build()?);
//! sim.run_for(SimDuration::from_millis(10))?;
//! let report = sim.queue_report(link, h1);
//! assert_eq!(report.counters.dropped(), 0);
//! # Ok::<(), dctcp_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
mod event;
mod fault;
mod flow_table;
mod ids;
mod link;
mod node;
mod packet;
mod queue;
mod shard;
mod simulator;
mod time;
mod topology;

pub use error::SimError;
pub use event::IdMap;
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use flow_table::{FlowTable, FlowTableError};
pub use ids::{FlowId, LinkId, NodeId, TimerToken};
pub use link::LinkSpec;
pub use node::{Agent, Context};
pub use packet::{Ecn, Packet, PacketKind, HEADER_BYTES};
pub use queue::{
    Capacity, LossModel, Offer, OutputQueue, QueueConfig, QueueCounters, QueueReport, ReorderModel,
};
pub use shard::ShardedSimulator;
pub use simulator::{EventCounts, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::{FatTree, FatTreeIds, FatTreeNet, Network, Routes, TierSpec, TopologyBuilder};

pub use dctcp_trace::{TraceConfig, TraceKind, TraceLog, TraceScope, Tracer};
