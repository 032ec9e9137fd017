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
//! The paper's figures are runs of these families declared as scenario
//! files (`scenarios/paper/`) and executed by `dctcp-scenario`'s `repro`
//! runner; this crate holds the workloads, not per-figure drivers.
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
mod fct;
pub mod sizes;
mod star;
mod testbed;

pub use buildup::{run_buildup, run_buildup_traced, BuildupConfig, BuildupReport};
pub use collective::{
    run_collective, CollectiveConfig, CollectivePattern, CollectiveReport, Transfer,
};
pub use fct::{FctInstance, FctReport, FctScenario, FctScenarioBuilder};
pub use star::{LongLivedInstance, LongLivedReport, LongLivedScenario, LongLivedScenarioBuilder};
pub use testbed::{
    build_testbed, run_query_rounds, run_query_rounds_with_threads, QueryMode, QueryReport,
    QueryRound, QueryWorkload, Testbed, TestbedConfig, TESTBED_WORKERS,
};

// Re-export the workspace crates the workloads build on, so example
// code can depend on `dctcp-workloads` alone. Nothing in this crate
// uses `control` or `fluid` any more; both stay, with the manifest
// dependencies behind them, because the frozen benchmark builds
// `--locked` against a lockfile that lists them under this crate.
// frozen-benchmark: workloads-control-fluid
#[doc(hidden)]
pub use dctcp_control as control;
pub use dctcp_core as core;
#[doc(hidden)]
pub use dctcp_fluid as fluid;
pub use dctcp_parallel as parallel;
pub use dctcp_sim as sim;
pub use dctcp_stats as stats;
pub use dctcp_tcp as tcp;
