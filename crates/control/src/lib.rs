//! Describing-function stability analysis of DCTCP and DT-DCTCP
//! (Sections IV–V of the paper).
//!
//! The marking mechanism at the switch is a *static nonlinearity* inside
//! the congestion-control loop: a relay (single threshold, DCTCP) or a
//! hysteresis (double threshold, DT-DCTCP). Linear analysis cannot see
//! the difference; the describing-function (DF) method replaces the
//! nonlinearity with its amplitude-dependent quasi-linear gain `N(X)` and
//! predicts self-oscillation where the loop satisfies
//! `K0·G(jω) = −1/N0(X)` (Eq. 9).
//!
//! This crate provides:
//!
//! * [`Complex`] — frequency-domain arithmetic.
//! * [`PlantParams`] — the linearized fluid-model plant `G(jω)` of
//!   Eq. (18).
//! * [`RelayDf`] / [`HysteresisDf`] — the closed-form DFs of Eqs. (22)
//!   and (27), plus [`numerical_df`] to cross-check them by direct
//!   Fourier integration of the marking waveform.
//! * [`analyze`] / [`oscillation_onset`] — the Nyquist intersection
//!   machinery behind Theorems 1 and 2 and Figure 9.
//!
//! # Examples
//!
//! How much loop gain does each scheme tolerate before self-oscillating?
//!
//! ```
//! use dctcp_control::{critical_gain, AnalysisGrid, HysteresisDf, PlantParams, RelayDf};
//!
//! let grid = AnalysisGrid { w_points: 1500, x_points: 600, ..AnalysisGrid::default() };
//! let plant = PlantParams::paper_defaults(55.0);
//! let margin_dc = critical_gain(&plant, &RelayDf::new(40.0)?, &grid).unwrap();
//! let margin_dt = critical_gain(&plant, &HysteresisDf::new(30.0, 50.0)?, &grid).unwrap();
//! assert!(margin_dt > margin_dc, "hysteresis tolerates more gain");
//! # Ok::<(), dctcp_core::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod complex;
mod design;
mod df;
mod nyquist;
mod plant;

pub use complex::Complex;
pub use design::{recommend_thresholds, ThresholdCandidate, ThresholdRecommendation};
pub use df::{
    ideal_hysteresis, ideal_relay, numerical_df, DescribingFunction, HysteresisDf, RelayDf,
};
pub use nyquist::{
    analyze, critical_gain, df_locus, intersections, oscillation_onset, plant_locus, AnalysisGrid,
    Intersection, Locus, LocusPoint, StabilityReport,
};
pub use plant::{PlantParams, FIG9_CALIBRATED_GAIN};
