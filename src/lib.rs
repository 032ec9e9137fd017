//! DT-DCTCP: a reproduction of *"Ease the Queue Oscillation: Analysis and
//! Enhancement of DCTCP"* (Chen, Cheng, Ren, Shu, Lin — ICDCS 2013).
//!
//! This façade crate re-exports the workspace crates under one roof:
//!
//! * [`core`] — marking policies (single-threshold relay,
//!   double-threshold hysteresis) and the DCTCP congestion-window law.
//! * [`sim`] — packet-level discrete-event network simulator.
//! * [`tcp`] — TCP/DCTCP/DT-DCTCP transport state machines.
//! * [`fluid`] — the fluid model: frozen-RTT ODE and delay-differential
//!   system.
//! * [`control`] — describing-function stability analysis.
//! * [`stats`] — time-weighted statistics and metrics.
//! * [`trace`] — typed event tracing and the replayable invariant
//!   oracle.
//! * [`workloads`] — the workloads the paper's figures run.
//! * [`parallel`] — scoped-thread fan-out with deterministic,
//!   input-ordered results for independent simulation runs.
//!
//! # Examples
//!
//! Run a small long-lived-flow scenario and inspect the bottleneck queue:
//!
//! ```
//! use dt_dctcp::core::MarkingScheme;
//! use dt_dctcp::workloads::LongLivedScenario;
//!
//! let report = LongLivedScenario::builder()
//!     .flows(4)
//!     .bottleneck_gbps(1.0)
//!     .rtt_us(100.0)
//!     .warmup_secs(0.01)
//!     .duration_secs(0.02)
//!     .marking(MarkingScheme::dctcp_packets(20))
//!     .build()
//!     .expect("valid scenario")
//!     .run();
//! assert!(report.queue.mean > 0.0);
//! ```

pub use dctcp_control as control;
pub use dctcp_core as core;
pub use dctcp_fluid as fluid;
pub use dctcp_parallel as parallel;
pub use dctcp_sim as sim;
pub use dctcp_stats as stats;
pub use dctcp_tcp as tcp;
pub use dctcp_trace as trace;
pub use dctcp_workloads as workloads;
