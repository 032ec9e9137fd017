//! Regression-envelope validator for reproduction artifacts.
//!
//! ```text
//! repro_check [--artifacts DIR] (--all SCENARIO_DIR | FILE.scn ...)
//! ```
//!
//! For each scenario, loads `DIR/<name>.json` (default
//! `artifacts/repro`), verifies it matches the scenario (schema, name,
//! kind, every matrix cell accounted for as a point *or* a quarantined
//! failure) and evaluates every `[expect]` envelope. Envelopes that
//! touch a quarantined cell are reported as *skipped* — a failure to
//! measure is never a pass. Exit codes:
//!
//! * `0` — every envelope evaluated and held;
//! * `3` — every evaluated envelope held, but quarantined cells forced
//!   skips (the reproduction is incomplete, not wrong);
//! * `1` — at least one envelope violated, or an invocation/format
//!   error.

use std::path::PathBuf;
use std::process::ExitCode;

use dctcp_scenario::{check_artifact_partial, list_scenarios, Artifact, ScenarioSpec};

struct Args {
    artifacts: PathBuf,
    scenarios: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        artifacts: PathBuf::from("artifacts/repro"),
        scenarios: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--artifacts" => {
                args.artifacts = PathBuf::from(it.next().ok_or("--artifacts needs a value")?)
            }
            "--all" => {
                let dir = PathBuf::from(it.next().ok_or("--all needs a directory")?);
                let found = list_scenarios(&dir).map_err(|e| e.to_string())?;
                if found.is_empty() {
                    return Err(format!("no .scn files in {}", dir.display()));
                }
                args.scenarios.extend(found);
            }
            "--help" | "-h" => {
                return Err("usage: repro_check [--artifacts DIR] \
                            (--all SCENARIO_DIR | FILE.scn ...)"
                    .into())
            }
            other if !other.starts_with('-') => args.scenarios.push(PathBuf::from(other)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.scenarios.is_empty() {
        return Err("no scenarios given (try `--all scenarios/`)".into());
    }
    Ok(args)
}

/// Checks one scenario; returns (violated, skipped) envelope counts.
fn check_scenario(spec: &ScenarioSpec, artifact: &Artifact) -> Result<(usize, usize), String> {
    if artifact.scenario != spec.name {
        return Err(format!(
            "artifact is for scenario `{}`, expected `{}`",
            artifact.scenario, spec.name
        ));
    }
    if artifact.kind != spec.kind {
        return Err(format!(
            "artifact kind `{}` does not match scenario kind `{}`",
            artifact.kind.name(),
            spec.kind.name()
        ));
    }
    if !artifact.accounts_for(spec.num_points()) {
        return Err(format!(
            "artifact accounts for {} of {} cells ({} points + {} failures) — \
             stale artifact? re-run repro",
            artifact.points.len() + artifact.failures.len(),
            spec.num_points(),
            artifact.points.len(),
            artifact.failures.len(),
        ));
    }
    for f in &artifact.failures {
        eprintln!(
            "repro_check:   QUARANTINED ({}, N={}, seed {}): {}",
            f.marking, f.flows, f.seed, f.msg
        );
    }
    let report = check_artifact_partial(&spec.expectations, artifact);
    for name in &report.skipped {
        eprintln!("repro_check:   SKIP {name} — touches a quarantined cell");
    }
    let mut violated: Vec<&str> = Vec::new();
    for v in &report.violations {
        eprintln!("repro_check:   FAIL {v}");
        if !violated.contains(&v.expect.as_str()) {
            violated.push(&v.expect);
        }
    }
    Ok((violated.len(), report.skipped.len()))
}

fn run() -> Result<(usize, usize), String> {
    let args = parse_args()?;
    let mut total_violations = 0usize;
    let mut total_skipped = 0usize;
    let mut total_expectations = 0usize;
    for path in &args.scenarios {
        let spec = ScenarioSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let artifact_path = args.artifacts.join(format!("{}.json", spec.name));
        let artifact = Artifact::load(&artifact_path).map_err(|e| e.to_string())?;
        let (violated, skipped) = check_scenario(&spec, &artifact)
            .map_err(|e| format!("{}: {e}", artifact_path.display()))?;
        total_expectations += spec.expectations.len();
        total_violations += violated;
        total_skipped += skipped;
        eprintln!(
            "repro_check: {} — {}/{} envelopes hold{}",
            spec.name,
            spec.expectations.len() - violated - skipped,
            spec.expectations.len(),
            if skipped > 0 {
                format!(" ({skipped} skipped on quarantine)")
            } else {
                String::new()
            },
        );
    }
    eprintln!(
        "repro_check: {total_expectations} envelopes over {} scenarios, \
         {total_violations} violation(s), {total_skipped} skipped",
        args.scenarios.len()
    );
    Ok((total_violations, total_skipped))
}

fn main() -> ExitCode {
    match run() {
        Ok((0, 0)) => ExitCode::SUCCESS,
        Ok((0, _)) => ExitCode::from(3),
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("repro_check: {msg}");
            ExitCode::FAILURE
        }
    }
}
