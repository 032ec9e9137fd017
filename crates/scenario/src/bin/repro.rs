//! Scenario-matrix reproduction runner.
//!
//! ```text
//! repro [--threads N] [--out DIR] [--cache DIR | --no-cache]
//!       (--all SCENARIO_DIR | FILE.scn ...)
//! ```
//!
//! Runs each scenario's full matrix (markings × flows × seeds) through
//! the supervised parallel driver and writes one `dctcp-repro/v1` JSON
//! artifact per scenario to `DIR` (default `artifacts/repro`).
//! Deterministic: the same tree produces byte-identical artifacts at
//! any `--threads`.
//!
//! Execution is incremental: each cell's result is memoized in a
//! content-addressed cache (default `artifacts/cache`, see
//! `dctcp-cache`) keyed on the resolved cell configuration and the
//! workspace code fingerprint, so a warm run re-simulates only cells
//! whose inputs changed — and still renders byte-identical artifacts.
//! `--no-cache` forces a full re-simulation without reading or writing
//! the cache. The final stdout line,
//! `repro: cache H hits, M misses`, is machine-readable (ci.sh greps
//! it to assert the warm CI pass was served from the cache).
//!
//! Execution is *supervised*: each simulated cell runs once, and a
//! cell that panics or fails its simulation (a runaway cell exhausts
//! the simulator's event budget) is quarantined into the artifact's
//! `failures` block (and its cache entry) instead of aborting the run
//! — the rest of the matrix still completes, and the exit code says
//! how much survived:
//!
//! * `0` — every cell of every scenario produced a point;
//! * `3` — partial: some cells were quarantined, some succeeded;
//! * `4` — failed: every cell was quarantined;
//! * `1` — invocation or I/O error (bad flags, unreadable scenario,
//!   unwritable artifact).
//!
//! A cached run replays cached panics and failures instead of
//! repeating them. To re-run a replayed cell, clear the cache
//! directory.

use std::path::PathBuf;
use std::process::ExitCode;

use dctcp_cache::Cache;
use dctcp_scenario::{list_scenarios, run_scenario_supervised, CacheStats, ScenarioSpec};

struct Args {
    threads: usize,
    out: PathBuf,
    cache: Option<PathBuf>,
    scenarios: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: 0,
        out: PathBuf::from("artifacts/repro"),
        cache: Some(PathBuf::from("artifacts/cache")),
        scenarios: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--cache" => {
                args.cache = Some(PathBuf::from(it.next().ok_or("--cache needs a value")?));
            }
            "--no-cache" => args.cache = None,
            "--all" => {
                let dir = PathBuf::from(it.next().ok_or("--all needs a directory")?);
                let found = list_scenarios(&dir).map_err(|e| e.to_string())?;
                if found.is_empty() {
                    return Err(format!("no .scn files in {}", dir.display()));
                }
                args.scenarios.extend(found);
            }
            "--help" | "-h" => {
                return Err("usage: repro [--threads N] [--out DIR] \
                            [--cache DIR | --no-cache] \
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

/// How much of the matrix survived, across all scenarios.
struct Outcome {
    points: usize,
    quarantined: usize,
}

impl Outcome {
    fn exit_code(&self) -> ExitCode {
        match (self.points, self.quarantined) {
            (_, 0) => ExitCode::SUCCESS,
            (0, _) => ExitCode::from(4),
            _ => ExitCode::from(3),
        }
    }
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let cache = args.cache.as_ref().map(Cache::new);

    let mut total = CacheStats::default();
    let mut outcome = Outcome {
        points: 0,
        quarantined: 0,
    };
    for path in &args.scenarios {
        let spec = ScenarioSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "repro: {} ({}, {} markings x {} flow counts x {} seeds = {} points)",
            spec.name,
            spec.kind.name(),
            spec.markings.len(),
            spec.run.flows.len(),
            if spec.kind.sweeps_seeds() {
                spec.run.seeds.len()
            } else {
                1
            },
            spec.num_points(),
        );
        let (artifact, stats) = run_scenario_supervised(&spec, args.threads, cache.as_ref());
        total.hits += stats.hits;
        total.misses += stats.misses;
        total.quarantined += stats.quarantined;
        total.replayed += stats.replayed;
        outcome.points += artifact.points.len();
        outcome.quarantined += artifact.failures.len();
        let out_path = args.out.join(format!("{}.json", spec.name));
        std::fs::write(&out_path, artifact.render())
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
        eprintln!(
            "repro:   -> {} ({} cached, {} simulated{})",
            out_path.display(),
            stats.hits,
            stats.misses,
            match stats.quarantined {
                0 => String::new(),
                q => format!(", {q} quarantined"),
            },
        );
        for f in &artifact.failures {
            eprintln!(
                "repro:   QUARANTINED ({}, N={}, seed {}): {}",
                f.marking, f.flows, f.seed, f.msg
            );
        }
    }
    if outcome.quarantined > 0 {
        eprintln!(
            "repro: {} of {} cells quarantined ({} replayed from the cache); \
             artifacts carry a `failures` block",
            outcome.quarantined,
            outcome.points + outcome.quarantined,
            total.replayed,
        );
    }
    match &cache {
        Some(_) => println!("repro: cache {} hits, {} misses", total.hits, total.misses),
        None => println!("repro: cache disabled"),
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    match run() {
        Ok(outcome) => outcome.exit_code(),
        Err(msg) => {
            eprintln!("repro: {msg}");
            ExitCode::FAILURE
        }
    }
}
