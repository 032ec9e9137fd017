//! Declarative reproduction scenarios for the DT-DCTCP study.
//!
//! This crate turns the paper's experiment matrix into data: each
//! committed `scenarios/*.scn` file declares a topology, the marking
//! schemes under test, a flow-count sweep, optional scripted faults and
//! a set of *regression envelopes* — the paper's claims written as
//! machine-checkable bands. Two binaries drive it:
//!
//! * `repro` runs a scenario's matrix in parallel (bit-identical for
//!   any thread count) and writes one `dctcp-repro/v1` JSON artifact
//!   per scenario. Execution is incremental: finished cells are
//!   memoized in a content-addressed cache (`dctcp-cache`), so a warm
//!   run over unchanged scenarios and unchanged code re-simulates
//!   nothing yet renders byte-identical artifacts. Execution is also
//!   *supervised* ([`run_scenario_supervised`]): each cell runs once,
//!   under panic isolation and a per-cell wall-clock deadline (the
//!   `[limits]` section), and a broken cell is quarantined into the
//!   artifact's `failures` block instead of killing the run.
//!   Because workers persist each finished cell immediately, a run
//!   killed mid-matrix — even with `kill -9` — resumes from the cache
//!   with zero recomputation.
//! * `repro_check` re-parses the scenario, loads the artifact and
//!   verifies every envelope, failing CI when a change pushes the
//!   simulated system outside the paper's claims. Envelopes touching a
//!   quarantined cell are reported as skipped, not passed
//!   ([`check_artifact_partial`]).
//!
//! The scenario format is a deliberately small line-oriented
//! `[section]` / `key = value` surface (see [`parse`]) with typed,
//! line-numbered errors ([`ScenarioError`]) — no external parser
//! dependency, keeping the workspace hermetic.
//!
//! Internally, `spec` parses the sections every [`ScenarioKind`] shares
//! (`[scenario]`, `[transport]`, `[marking]`, `[limits]`, `[expect]`,
//! `[xval]`) and `runner` owns the cache, journal and supervision.
//! Everything that depends on the kind — its `[topology]`, `[run]`,
//! `[workload …]` and `[faults]` keys and defaults, its deadline
//! budget, cache-key fields, metric names and cell runner — lives in
//! one file per kind under `kinds/`.

#![warn(missing_docs)]

mod artifact;
mod envelope;
mod error;
#[cfg(test)]
mod key_pin;
mod kinds;
pub mod parse;
mod runner;
mod spec;
mod supervise;
mod xval;

pub use artifact::{Artifact, FailureCell, Point, ARTIFACT_SCHEMA};
pub use envelope::{
    check_artifact, check_artifact_partial, CheckReport, ExpectCheck, Expectation, Violation,
};
pub use error::ScenarioError;
pub use kinds::{
    CollectiveWorkloadSpec, DumbbellSpec, FatTreeSpec, FaultSpec, ScenarioKind, TestbedSpec,
};
pub use runner::{run_scenario_supervised, CacheStats};
pub use spec::{
    InjectFault, InjectSpec, LimitsSpec, RunSpec, ScenarioSpec, TopologySpec, MAX_FLOWS,
    MAX_FLUID_FLOWS,
};
pub use supervise::CellError;
pub use xval::{check_xval, XvalReport, XvalSpec, XvalViolation};

/// Lists the `.scn` files of a directory in name order (the repro
/// matrix order).
///
/// # Errors
///
/// Returns [`ScenarioError::Io`] when the directory cannot be read.
pub fn list_scenarios(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, ScenarioError> {
    let io_err = |e: std::io::Error| ScenarioError::Io {
        path: dir.display().to_string(),
        msg: e.to_string(),
    };
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err)? {
        let path = entry.map_err(io_err)?.path();
        if path.extension().is_some_and(|e| e == "scn") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}
