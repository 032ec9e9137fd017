//! Experiment harness reproducing the paper's evaluation (Section VI).
//!
//! Two scenario families drive everything:
//!
//! * [`LongLivedScenario`] — N long-lived flows over one 10 Gb/s
//!   bottleneck (Figs. 1, 10, 11, 12).
//! * [`build_testbed`]/[`run_query_rounds`] — the Fig. 13 testbed with
//!   Incast and partition-aggregate query workloads (Figs. 14, 15).
//! * [`FctScenario`] — open-loop heavy-traffic flow churn: Poisson
//!   arrivals at a configured load with empirical sizes ([`sizes`]),
//!   reporting per-size-class FCT tails from mergeable sketches.
//!
//! The [`experiments`] module exposes one driver per data figure; each
//! returns a serializable result with [`Table`] renderings — the `fig*`
//! binaries in `dctcp-bench` are thin wrappers around them.
//!
//! # Examples
//!
//! ```
//! use dctcp_core::MarkingScheme;
//! use dctcp_workloads::LongLivedScenario;
//!
//! let report = LongLivedScenario::builder()
//!     .flows(4)
//!     .bottleneck_gbps(1.0)
//!     .marking(MarkingScheme::dt_dctcp_packets(15, 25))
//!     .warmup_secs(0.01)
//!     .duration_secs(0.02)
//!     .build()?
//!     .run();
//! assert!(report.marks > 0);
//! # Ok::<(), dctcp_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod buildup;
mod collective;
mod convergence;
pub mod experiments;
mod fct;
pub mod sizes;
mod star;
mod table;
mod testbed;

pub use buildup::{run_buildup, run_buildup_traced, BuildupConfig, BuildupReport};
pub use collective::{
    run_collective, CollectiveConfig, CollectivePattern, CollectiveReport, Transfer,
};
pub use convergence::{run_convergence, ConvergenceConfig, ConvergenceReport};
pub use experiments::Scale;
pub use fct::{FctInstance, FctReport, FctScenario, FctScenarioBuilder};
pub use star::{LongLivedInstance, LongLivedReport, LongLivedScenario, LongLivedScenarioBuilder};
pub use table::Table;
pub use testbed::{
    build_testbed, run_query_rounds, run_query_rounds_with_threads, QueryMode, QueryReport,
    QueryRound, QueryWorkload, Testbed, TestbedConfig, TESTBED_WORKERS,
};

// Re-export the workspace crates the drivers build on, so example and
// bench code can depend on `dctcp-workloads` alone.
pub use dctcp_control as control;
pub use dctcp_core as core;
pub use dctcp_fluid as fluid;
pub use dctcp_parallel as parallel;
pub use dctcp_sim as sim;
pub use dctcp_stats as stats;
pub use dctcp_tcp as tcp;
