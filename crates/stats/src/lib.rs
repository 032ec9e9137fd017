//! Streaming and time-weighted statistics for network simulation.
//!
//! This crate is the metrics substrate of the DT-DCTCP reproduction. It
//! provides the estimators the experiment harness relies on:
//!
//! * [`Welford`] — numerically stable online mean/variance over samples.
//! * [`TimeWeighted`] — *time-weighted* moments of a piecewise-constant
//!   signal such as a queue length, integrated exactly between updates.
//! * [`TimeSeries`] — a `(time, value)` trace with resampling and windowing.
//! * [`Quantiles`] — exact quantiles for completion-time tails.
//! * [`QuantileSketch`] — mergeable log-binned quantile sketch with
//!   bounded relative error, for million-flow FCT tails.
//! * [`ThroughputMeter`] — byte counters over an observation window.
//! * [`oscillation`] — mean-crossing cycle detection and peak-to-trough
//!   amplitude over a queue trace.
//!
//! # Examples
//!
//! Track the time-weighted mean of a queue that holds 10 packets for one
//! second and 30 packets for three seconds:
//!
//! ```
//! use dctcp_stats::TimeWeighted;
//!
//! let mut q = TimeWeighted::new(0.0);
//! q.update(0.0, 10.0);
//! q.update(1.0, 30.0);
//! let summary = q.finish(4.0);
//! assert!((summary.mean - 25.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod oscillation;
mod quantile;
mod series;
mod sketch;
mod throughput;
mod time_weighted;
mod welford;

pub use oscillation::{oscillation, OscillationSummary};
pub use quantile::Quantiles;
pub use series::{SeriesSummary, TimeSeries};
pub use sketch::{QuantileSketch, SKETCH_ALPHA};
pub use throughput::ThroughputMeter;
pub use time_weighted::{TimeWeighted, TimeWeightedSummary};
pub use welford::Welford;
