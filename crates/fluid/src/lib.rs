//! The fluid model of DCTCP (Section II-B of the paper), as a
//! frozen-RTT ODE and as a delay-differential system, with relay and
//! hysteresis marking.
//!
//! Alizadeh et al.'s fluid model couples the per-flow window `W(t)`, the
//! marked-fraction estimate `α(t)`, and the bottleneck queue `q(t)`
//! through the marking decision delayed by one RTT. [`FluidModel`]
//! integrates that system with the RTT frozen at `R0` — an ODE whose
//! only delayed term is the marking input — using fixed-step RK4 and a
//! one-RTT history ring, supporting both DCTCP's relay `p = 1{q > K}`
//! and DT-DCTCP's hysteresis.
//!
//! Use [`oscillation_metrics`] on a [`FluidSolution`] trajectory to
//! measure limit-cycle amplitude and period — the quantities the
//! describing-function analysis in `dctcp-control` predicts.
//!
//! [`DdeModel`] extends the system to a full delay-differential form:
//! the queue-induced round-trip `R(t) = R0 + q(t)/C` enters the rate
//! terms, and the multiplicative decrease is driven by the *lagged*
//! window and marked fraction `W(t−τ)·α(t−τ)`, read from a full-state
//! history ring with deterministic linear interpolation. That is what
//! makes the model trustworthy far beyond the packet engine's flow
//! counts — see [`sweep`](crate::sweep::sweep) for the `N = 10¹ … 10⁶`
//! driver and [`equilibrium`] for the closed-form fixed points it is
//! validated against.
//!
//! # Examples
//!
//! ```
//! use dctcp_fluid::{oscillation_metrics, FluidMarking, FluidModel, FluidParams};
//!
//! let params = FluidParams::paper_defaults(100.0, FluidMarking::Relay { k: 40.0 });
//! let mut model = FluidModel::new(params)?;
//! let sol = model.run_sampled(0.1, 1e-6, 10);
//! let m = oscillation_metrics(&sol.q.window(0.05, 0.1));
//! assert!(m.amplitude > 0.0, "the relay limit-cycles at N = 100");
//! # Ok::<(), dctcp_core::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod dde;
mod marking;
mod metrics;
mod model;
pub mod sweep;

pub use dde::{equilibrium, DdeEquilibrium, DdeModel};
pub use marking::FluidMarking;
pub use metrics::{oscillation_metrics, OscillationMetrics};
pub use model::{FluidModel, FluidParams, FluidSolution};
pub use sweep::{FluidRunConfig, SweepPoint};
