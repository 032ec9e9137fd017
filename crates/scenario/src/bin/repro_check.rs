//! Regression-envelope validator for reproduction artifacts.
//!
//! ```text
//! repro_check [--artifacts DIR] (--all SCENARIO_DIR | FILE.scn ...)
//! ```
//!
//! For each scenario, loads `DIR/<name>.json` (default
//! `artifacts/repro`), verifies it matches the scenario (schema, name,
//! kind, every matrix cell accounted for as a point *or* a quarantined
//! failure) and evaluates every `[expect]` envelope. A fluid scenario's
//! `[xval]` bands are evaluated too, against their packet anchors'
//! artifacts from the same directory (each loaded once). Envelopes and
//! bands that read a quarantined cell are reported as *skipped* — a
//! failure to measure is never a pass. Exit codes:
//!
//! * `0` — every envelope and band evaluated and held;
//! * `3` — every evaluated envelope and band held, but quarantined
//!   cells forced skips (the reproduction is incomplete, not wrong);
//! * `1` — at least one envelope or band violated, or an
//!   invocation/format error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dctcp_scenario::{
    check_artifact_partial, check_xval, list_scenarios, Artifact, CheckReport, ScenarioSpec,
};

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

/// Envelope or band counts, for one scenario or the whole run.
#[derive(Default, Clone, Copy)]
struct Tally {
    total: usize,
    violated: usize,
    skipped: usize,
}

impl Tally {
    /// Prints a report's skips and failures and counts `total` checks
    /// (`[expect]` envelopes or `[xval]` bands, named by `section`)
    /// against it.
    fn of(section: &str, total: usize, report: &CheckReport) -> Tally {
        for name in &report.skipped {
            eprintln!("repro_check:   SKIP {name} — reads a quarantined cell");
        }
        let mut violated: Vec<&str> = Vec::new();
        for v in &report.violations {
            eprintln!("repro_check:   FAIL {section} \"{}\": {}", v.expect, v.msg);
            if !violated.contains(&v.expect.as_str()) {
                violated.push(&v.expect);
            }
        }
        Tally {
            total,
            violated: violated.len(),
            skipped: report.skipped.len(),
        }
    }

    fn held(self) -> usize {
        self.total - self.violated - self.skipped
    }

    fn add(&mut self, other: Tally) {
        self.total += other.total;
        self.violated += other.violated;
        self.skipped += other.skipped;
    }
}

/// Loads `DIR/<name>.json` into `cache`, once per name, and checks that
/// it is that scenario's artifact.
fn load(cache: &mut BTreeMap<String, Artifact>, dir: &Path, name: &str) -> Result<(), String> {
    if cache.contains_key(name) {
        return Ok(());
    }
    let path = dir.join(format!("{name}.json"));
    let artifact = Artifact::load(&path).map_err(|e| e.to_string())?;
    if artifact.scenario != name {
        return Err(format!(
            "{}: artifact is for scenario `{}`, expected `{name}`",
            path.display(),
            artifact.scenario
        ));
    }
    cache.insert(name.to_string(), artifact);
    Ok(())
}

/// Checks that the artifact covers the scenario's matrix and evaluates
/// its envelopes.
fn check_scenario(spec: &ScenarioSpec, artifact: &Artifact) -> Result<CheckReport, String> {
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
    Ok(check_artifact_partial(&spec.expectations, artifact))
}

/// Checks every scenario; returns the envelope and band tallies.
fn run() -> Result<(Tally, Tally), String> {
    let args = parse_args()?;
    let mut cache: BTreeMap<String, Artifact> = BTreeMap::new();
    let (mut envelopes, mut bands) = (Tally::default(), Tally::default());
    for path in &args.scenarios {
        let spec = ScenarioSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        load(&mut cache, &args.artifacts, &spec.name)?;
        let band_context = |label: &str, e: String| format!("{}: xval \"{label}\": {e}", spec.name);
        for x in &spec.xvals {
            load(&mut cache, &args.artifacts, &x.packet_scenario)
                .map_err(|e| band_context(&x.label, e))?;
        }
        let artifact = &cache[&spec.name];
        let report = check_scenario(&spec, artifact).map_err(|e| {
            let path = args.artifacts.join(format!("{}.json", spec.name));
            format!("{}: {e}", path.display())
        })?;
        let own = Tally::of("expect", spec.expectations.len(), &report);
        let mut own_bands = Tally::default();
        for x in &spec.xvals {
            let report = check_xval(x, artifact, &cache[&x.packet_scenario])
                .map_err(|e| band_context(&x.label, e))?;
            own_bands.add(Tally::of("xval", 1, &report));
        }
        let skipped = own.skipped + own_bands.skipped;
        eprintln!(
            "repro_check: {} — {}/{} envelopes, {}/{} bands hold{}",
            spec.name,
            own.held(),
            own.total,
            own_bands.held(),
            own_bands.total,
            if skipped > 0 {
                format!(" ({skipped} skipped on quarantine)")
            } else {
                String::new()
            },
        );
        envelopes.add(own);
        bands.add(own_bands);
    }
    eprintln!(
        "repro_check: {}/{} envelopes and {}/{} bands hold over {} scenarios, \
         {} violation(s), {} skipped",
        envelopes.held(),
        envelopes.total,
        bands.held(),
        bands.total,
        args.scenarios.len(),
        envelopes.violated + bands.violated,
        envelopes.skipped + bands.skipped,
    );
    Ok((envelopes, bands))
}

fn main() -> ExitCode {
    match run() {
        Ok((e, b)) if e.violated + b.violated > 0 => ExitCode::FAILURE,
        Ok((e, b)) if e.skipped + b.skipped > 0 => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repro_check: {msg}");
            ExitCode::FAILURE
        }
    }
}
