//! `repro_matrix` — the user's real command: `repro --threads 2 --out
//! <tmp> --cache <fresh tmp> --all <materialised scenarios>` as a
//! subprocess, cold, then warm all-hit reruns. The inputs are a frozen
//! copy of the 13 committed scenarios (83 cells, 77 envelopes and
//! cross-validation bands), so later scenario additions do not move the
//! number.
//!
//! Why it exists: the only workload where `scenario` (parse, key
//! derivation, supervise, render, envelopes), `cache` (writes cold,
//! reads warm), `parallel` (cell scheduling, stragglers) and process
//! start-up are on the path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dctcp_cache::Cache;
use dctcp_scenario::{
    check_artifact, check_xval, list_scenarios, run_scenario_supervised, Artifact, ScenarioKind,
    ScenarioSpec,
};

use super::{Checks, Counts, Digest, Env, Rep, WorkUnit, Workload};
use crate::machine;
use crate::metrics::Metrics;
use crate::spans::{self, span};
use crate::stats::{highest_supported_percentile, median, percentile};

/// Threads the cold pass runs on: the reference container has two
/// cores, and a benchmark never asks for more threads than cores.
const THREADS: usize = 2;
const WARM_PASSES: usize = 5;
/// The smoke run's subset: cheap scenarios of four kinds whose
/// envelopes need no artifact outside the subset.
const QUICK_SCENARIOS: [&str; 4] = [
    "fig13_incast.scn",
    "fig13_query.scn",
    "fluid_scaleout.scn",
    "threshold_settings.scn",
];

pub struct ReproMatrix {
    env: Env,
    /// Fresh directory names are numbered.
    next_dir: u32,
    /// The scenario directory handed to `repro`, and what its files
    /// hold.
    scenarios: PathBuf,
    sources: Vec<String>,
    /// Filled by repetitions, read by `extras` and the run driver.
    last: Option<ColdPass>,
    warm_ms: Vec<f64>,
    /// Peak RSS of each cold pass's `repro` process.
    cold_peaks_mb: Vec<f64>,
    last_peak_mb: f64,
    envelopes: (u64, u64),
}

#[derive(Debug, Clone)]
struct ColdPass {
    wall_s: f64,
    out: PathBuf,
    hits: u64,
    misses: u64,
}

/// Rewrites the seeds of one scenario source: element `i` of
/// `[run] seeds` becomes `seed + i`, every `ecmp_seed` becomes `seed`.
/// Everything else, comments included, is kept byte for byte.
pub fn reseed(src: &str, seed: u64) -> String {
    let mut section = String::new();
    let mut out = String::with_capacity(src.len());
    for line in src.split_inclusive('\n') {
        let body = line.trim();
        if body.starts_with('[') {
            section = body.to_string();
        }
        let key = body.split('=').next().unwrap_or("").trim();
        let ending = &line[line.trim_end().len()..];
        if section == "[run]" && key == "seeds" && body.contains('=') {
            let n = body.split('=').nth(1).unwrap_or("").split(',').count();
            let seeds: Vec<String> = (0..n as u64).map(|i| (seed + i).to_string()).collect();
            out.push_str(&format!("seeds = {}{ending}", seeds.join(", ")));
        } else if section.starts_with("[topology") && key == "ecmp_seed" && body.contains('=') {
            out.push_str(&format!("ecmp_seed = {seed}{ending}"));
        } else {
            out.push_str(line);
        }
    }
    out
}

impl ReproMatrix {
    pub fn new(env: &Env) -> Self {
        let mut w = ReproMatrix {
            env: env.clone(),
            next_dir: 0,
            scenarios: PathBuf::new(),
            sources: Vec::new(),
            last: None,
            warm_ms: Vec::new(),
            cold_peaks_mb: Vec::new(),
            last_peak_mb: 0.0,
            envelopes: (0, 0),
        };
        w.scenarios = w.materialise();
        w
    }

    #[cfg(test)]
    pub fn scenario_dir(&self) -> &Path {
        &self.scenarios
    }

    fn fresh_dir(&mut self, what: &str) -> PathBuf {
        self.next_dir += 1;
        let dir = self.env.scratch.join(format!("{what}-{}", self.next_dir));
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }

    /// Writes the scenario files `repro` will read: the frozen snapshot
    /// unchanged at the default seed, reseeded otherwise.
    fn materialise(&mut self) -> PathBuf {
        let dir = self.fresh_dir("scenarios");
        for path in list_scenarios(&self.env.scenarios).expect("frozen scenarios are listable") {
            let name = path.file_name().expect("scenario file name");
            if self.env.quick && !QUICK_SCENARIOS.iter().any(|q| name == *q) {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("frozen scenario is readable");
            let text = if self.env.seed == 1 {
                src
            } else {
                reseed(&src, self.env.seed)
            };
            std::fs::write(dir.join(name), &text).expect("scratch directory is writable");
            self.sources.push(text);
        }
        dir
    }

    fn specs(&self, checks: &mut Checks) -> Vec<ScenarioSpec> {
        let mut specs = Vec::new();
        for path in list_scenarios(&self.scenarios).expect("materialised scenarios are listable") {
            let spec = ScenarioSpec::load(&path);
            checks.check(spec.is_ok(), || format!("{}: {spec:?}", path.display()));
            specs.extend(spec);
        }
        specs
    }

    /// One `repro` subprocess over the materialised scenarios. Returns
    /// its wall time (spawn to exit) and the cache line it printed.
    fn repro(&mut self, out: &Path, cache: &Path, checks: &mut Checks) -> Option<(f64, u64, u64)> {
        let start = Instant::now();
        let child = Command::new(&self.env.repro)
            .args(["--threads", &THREADS.to_string(), "--out"])
            .arg(out)
            .arg("--cache")
            .arg(cache)
            .arg("--all")
            .arg(&self.scenarios)
            // Exactly THREADS threads: cells in parallel, one shard each.
            .env_remove("DCTCP_JOBS")
            .env("DCTCP_SIM_SHARDS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        checks.check(child.is_ok(), || {
            format!("cannot start {}: {child:?}", self.env.repro.display())
        });
        let child = child.ok()?;
        let pid = child.id();
        // The child's peak RSS is gone from /proc once it is reaped, so
        // a side thread samples it at 20 Hz while this one waits.
        let exited = AtomicBool::new(false);
        let (output, wall_s, peak) = std::thread::scope(|s| {
            let poller = s.spawn(|| {
                let mut peak = 0f64;
                while !exited.load(Ordering::SeqCst) {
                    peak = machine::peak_rss_mb(pid).map_or(peak, |mb| mb.max(peak));
                    std::thread::park_timeout(Duration::from_millis(50));
                }
                peak
            });
            let output = child.wait_with_output();
            let wall_s = start.elapsed().as_secs_f64();
            exited.store(true, Ordering::SeqCst);
            poller.thread().unpark();
            let peak = poller.join().expect("RSS poller does not panic");
            (output, wall_s, peak)
        });
        self.last_peak_mb = peak;
        let output = output.expect("waiting for repro");
        // Exit code 0 means every cell produced a point; 3 and 4 mean
        // quarantined cells.
        checks.check(output.status.success(), || {
            format!(
                "repro exited with {} (quarantined or failed cells)",
                output.status
            )
        });
        let stdout = String::from_utf8_lossy(&output.stdout);
        let counts = stdout.lines().rev().find_map(|l| {
            let rest = l.strip_prefix("repro: cache ")?;
            let mut nums = rest
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty());
            Some((nums.next()?.parse().ok()?, nums.next()?.parse().ok()?))
        });
        checks.check(counts.is_some(), || "repro printed no cache line".into());
        let (hits, misses) = counts?;
        Some((wall_s, hits, misses))
    }

    /// Digest of the artifacts in `out`, in scenario order.
    fn digest_artifacts(out: &Path, specs: &[ScenarioSpec], checks: &mut Checks) -> u64 {
        let mut digest = Digest::default();
        for spec in specs {
            let path = out.join(format!("{}.json", spec.name));
            let bytes = std::fs::read(&path);
            checks.check(bytes.is_ok(), || {
                format!("missing artifact {}", path.display())
            });
            digest.bytes(&bytes.unwrap_or_default());
        }
        digest.finish()
    }

    /// Envelopes and cross-validation bands that hold on the artifacts
    /// in `out`: `(held, total)`.
    fn envelopes(out: &Path, specs: &[ScenarioSpec], checks: &mut Checks) -> (u64, u64) {
        let mut artifacts = BTreeMap::new();
        for spec in specs {
            let a = Artifact::load(&out.join(format!("{}.json", spec.name)));
            checks.check(a.is_ok(), || format!("{}: unreadable artifact", spec.name));
            if let Ok(a) = a {
                let whole = a.failures.is_empty() && a.accounts_for(spec.num_points());
                checks.check(whole, || {
                    format!(
                        "{}: {} cells quarantined or missing",
                        spec.name,
                        a.failures.len()
                    )
                });
                artifacts.insert(spec.name.clone(), a);
            }
        }
        let (mut held, mut total) = (0u64, 0u64);
        for spec in specs {
            let Some(artifact) = artifacts.get(&spec.name) else {
                total += (spec.expectations.len() + spec.xvals.len()) as u64;
                continue;
            };
            let violations = check_artifact(&spec.expectations, artifact);
            for e in &spec.expectations {
                total += 1;
                held += u64::from(violations.iter().all(|v| v.expect != e.label));
            }
            for x in &spec.xvals {
                total += 1;
                let ok = artifacts
                    .get(&x.packet_scenario)
                    .and_then(|packet| check_xval(x, artifact, packet).ok())
                    .is_some_and(|r| r.violations.is_empty() && r.skipped.is_empty());
                held += u64::from(ok);
            }
        }
        (held, total)
    }

    /// The cold pass and its warm reruns, with every output check.
    fn pass(&mut self, checks: &mut Checks) -> Rep {
        let start = Instant::now();
        let (out, cache) = (self.fresh_dir("out"), self.fresh_dir("cache"));
        let specs = self.specs(checks);
        let cells: usize = specs.iter().map(cell_count).sum();

        let cold = {
            let _s = span("repro.cold_pass");
            self.repro(&out, &cache, checks)
        };
        self.cold_peaks_mb.push(self.last_peak_mb);
        let Some((wall_s, hits, misses)) = cold else {
            return Rep {
                wall_s: start.elapsed().as_secs_f64(),
                work: 0.0,
                digest: 0,
                counts: Counts::default(),
            };
        };
        // Cells with identical resolved configurations share a key, so
        // a cold pass over the frozen matrix has a few hits.
        checks.check(hits + misses == cells as u64, || {
            format!(
                "cold pass resolved {} cells, matrix has {cells}",
                hits + misses
            )
        });
        let digest = Self::digest_artifacts(&out, &specs, checks);

        for _ in 0..WARM_PASSES {
            let warm_out = self.fresh_dir("warm");
            let warm = {
                let _s = span("repro.warm_pass");
                self.repro(&warm_out, &cache, checks)
            };
            let Some((warm_s, warm_hits, warm_misses)) = warm else {
                continue;
            };
            self.warm_ms.push(warm_s * 1e3);
            checks.check((warm_hits, warm_misses) == (cells as u64, 0), || {
                format!("warm pass: {warm_hits} hits, {warm_misses} misses of {cells} cells")
            });
            let same = Self::digest_artifacts(&warm_out, &specs, checks) == digest;
            checks.check(same, || "warm artifacts differ from the cold pass's".into());
            let _ = std::fs::remove_dir_all(&warm_out);
        }

        let (held, total) = Self::envelopes(&out, &specs, checks);
        self.envelopes = (held, total);
        // The committed envelopes are pinned for the committed seeds:
        // only there is a violation a failure.
        if self.env.seed == 1 {
            checks.check(held == total, || {
                format!("{held} of {total} envelopes and cross-validation bands hold")
            });
        }
        let _ = std::fs::remove_dir_all(&cache);
        if let Some(previous) = self.last.replace(ColdPass {
            wall_s,
            out,
            hits,
            misses,
        }) {
            let _ = std::fs::remove_dir_all(previous.out);
        }
        Rep {
            wall_s,
            work: cells as f64,
            digest,
            counts: Counts::default(),
        }
    }
}

/// The seeds a scenario's matrix runs over: long-lived and fluid kinds
/// ignore the seed list and pin the seed column to 1, as the runner does.
pub fn matrix_seeds(spec: &ScenarioSpec) -> &[u64] {
    if spec.kind.sweeps_seeds() {
        &spec.run.seeds
    } else {
        &[1]
    }
}

/// Cells a scenario expands to.
fn cell_count(spec: &ScenarioSpec) -> usize {
    spec.markings.len() * spec.run.flows.len() * matrix_seeds(spec).len()
}

fn kind_span(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::LongLived => "scenario.cell.long_lived",
        ScenarioKind::Incast => "scenario.cell.incast",
        ScenarioKind::PartitionAggregate => "scenario.cell.partition_aggregate",
        ScenarioKind::Collective => "scenario.cell.collective",
        ScenarioKind::Fct => "scenario.cell.fct",
        ScenarioKind::Fluid => "scenario.cell.fluid",
    }
}

/// Of the ideal two-thread makespan (scenarios run one after another,
/// each scenario's cells in parallel), the share forced by a single
/// cell longer than half its scenario: time one thread must idle.
pub fn straggler_share(scenarios: &[Vec<f64>]) -> f64 {
    let (mut forced, mut makespan) = (0.0, 0.0);
    for cells in scenarios {
        let sum: f64 = cells.iter().sum();
        let longest = cells.iter().copied().fold(0.0, f64::max);
        forced += (longest - sum / 2.0).max(0.0);
        makespan += longest.max(sum / 2.0);
    }
    if makespan > 0.0 {
        forced / makespan
    } else {
        0.0
    }
}

impl Workload for ReproMatrix {
    fn unit(&self) -> WorkUnit {
        WorkUnit::Cells
    }

    /// The user pays process start and cold caches on every run.
    fn warms_up(&self) -> bool {
        false
    }

    /// A cold pass takes about 8 s whatever `--seconds` says, and the
    /// median of fewer than three is no steadier than one of them.
    fn min_reps(&self) -> usize {
        3
    }

    fn child_peaks_mb(&self) -> Option<&[f64]> {
        Some(&self.cold_peaks_mb)
    }

    /// Parse and expand, as the issue defines set-up here. Writing the
    /// scenario files is left out: it happens once per run, and its
    /// time is the file system's, not the program's.
    fn setup_only(&mut self, checks: &mut Checks) {
        for src in &self.sources {
            let spec = ScenarioSpec::parse(src);
            checks.check(spec.is_ok(), || {
                format!("frozen scenario rejected: {spec:?}")
            });
            std::hint::black_box(spec.as_ref().map_or(0, cell_count));
        }
    }

    fn rep(&mut self, checks: &mut Checks) -> Rep {
        self.pass(checks)
    }

    /// The subprocess is opaque: the two spans around it cost nothing,
    /// so a traced/untraced pair would measure only noise.
    fn spans_in_rep(&self) -> bool {
        false
    }

    /// The in-process traced pass: every cell of the matrix on one
    /// thread, one span per cell, against a fresh cache.
    fn extras(&mut self, m: &mut Metrics, checks: &mut Checks) {
        let Some(cold) = self.last.clone() else {
            return;
        };
        m.set_exact("cache.hits", cold.hits as f64);
        m.set_exact("cache.misses", cold.misses as f64);
        if !self.warm_ms.is_empty() {
            m.set(
                "cache.warm_rerun_ms",
                crate::stats::summarize(&self.warm_ms),
            );
        }
        let (held, total) = self.envelopes;
        if total > 0 {
            m.set_exact("envelopes_held_share", held as f64 / total as f64);
        }

        let cache_dir = self.fresh_dir("traced-cache");
        let cache = Cache::new(&cache_dir);
        let specs = self.specs(checks);
        spans::set_enabled(true, 0);
        let pass_start = Instant::now();
        for spec in &specs {
            let _scenario = span("scenario");
            let mut points = Vec::new();
            for marking in &spec.markings {
                for &flows in &spec.run.flows {
                    for &seed in matrix_seeds(spec) {
                        // One cell: the spec narrowed through its
                        // public fields.
                        let mut one = spec.clone();
                        one.markings = vec![marking.clone()];
                        one.run.flows = vec![flows];
                        one.run.seeds = vec![seed];
                        let (artifact, _) = {
                            let _s = span(kind_span(spec.kind));
                            run_scenario_supervised(&one, 1, Some(&cache))
                        };
                        checks.check(artifact.failures.is_empty(), || {
                            format!("{}: traced cell quarantined", spec.name)
                        });
                        points.extend(artifact.points);
                    }
                }
            }
            // Assembled from single cells, the artifact must still be
            // the one the subprocess wrote: the traced pass describes
            // the same simulation.
            let rendered = Artifact {
                scenario: spec.name.clone(),
                kind: spec.kind,
                points,
                failures: Vec::new(),
            }
            .render();
            let shipped = std::fs::read_to_string(cold.out.join(format!("{}.json", spec.name)));
            checks.check(shipped.as_ref().is_ok_and(|s| *s == rendered), || {
                format!("{}: traced artifact differs from repro's", spec.name)
            });
        }
        let t1 = pass_start.elapsed().as_secs_f64();
        spans::set_enabled(false, 0);
        let _ = std::fs::remove_dir_all(cache_dir);

        // The spans stay in the tracer for the run's trace file; read
        // the cell walls from a copy.
        let recorded = spans::peek();
        let mut per_scenario: Vec<Vec<f64>> = Vec::new();
        let mut by_kind: BTreeMap<&str, f64> = BTreeMap::new();
        let mut cell_ms = Vec::new();
        for s in &recorded {
            if s.name == "scenario" {
                per_scenario.push(Vec::new());
            } else if let Some(kind) = s.name.strip_prefix("scenario.cell.") {
                let secs = s.duration_ns() as f64 * 1e-9;
                *by_kind.entry(kind).or_insert(0.0) += secs;
                cell_ms.push(secs * 1e3);
                per_scenario
                    .last_mut()
                    .expect("cell span follows its scenario span")
                    .push(secs);
            }
        }
        for kind in [
            "long_lived",
            "incast",
            "partition_aggregate",
            "collective",
            "fct",
            "fluid",
        ] {
            let secs = by_kind.get(kind).copied().unwrap_or(0.0);
            m.set_exact(&format!("scenario.kind_wall_s.{kind}"), secs);
        }
        if !cell_ms.is_empty() {
            m.set_exact("scenario.cell_wall_ms.p50", median(&cell_ms));
            // The frozen matrix has 83 cells, so p85 is the highest
            // percentile with at least ten samples beyond it.
            let tail_ok =
                self.env.quick || highest_supported_percentile(cell_ms.len()) == Some(85.0);
            checks.check(tail_ok, || {
                format!("{} cell samples do not support a p85", cell_ms.len())
            });
            m.set_exact("scenario.cell_wall_ms.p85", percentile(&cell_ms, 85.0));
            m.set_exact("scenario.cell_wall_ms.max", percentile(&cell_ms, 100.0));
        }
        m.set_exact("parallel.straggler_share", straggler_share(&per_scenario));
        if machine::cores() >= 2 {
            // One thread in process over two threads as shipped; the
            // denominator includes a few milliseconds of process start.
            m.set_exact("parallel.speedup_2t", t1 / cold.wall_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCN: &str = "\
# seeds = 9 in a comment stays
[scenario]
name = x

[topology fat_tree]
k = 4
ecmp_seed = 1

[run]
flows = 16
seeds = 1, 2, 3
  seeds=7
[expect \"a\"]
seeds = 5
";

    #[test]
    fn reseed_rewrites_only_run_seeds_and_ecmp_seed() {
        let out = reseed(SCN, 40);
        assert!(out.contains("ecmp_seed = 40\n"));
        assert!(out.contains("seeds = 40, 41, 42\n"));
        assert!(out.contains("seeds = 40\n[expect"));
        assert!(out.contains("# seeds = 9 in a comment stays\n"));
        assert!(out.ends_with("[expect \"a\"]\nseeds = 5\n"));
        assert_eq!(out.lines().count(), SCN.lines().count());
        assert_ne!(reseed(SCN, 40), reseed(SCN, 41));
        assert_eq!(reseed(SCN, 40), reseed(SCN, 40));
    }

    #[test]
    fn straggler_share_counts_forced_idle_time() {
        // Two equal cells balance perfectly.
        assert_eq!(straggler_share(&[vec![4.0, 4.0]]), 0.0);
        // One 6 s cell beside 2 s of others: makespan 6, ideal split 4.
        assert!((straggler_share(&[vec![6.0, 1.0, 1.0]]) - 2.0 / 6.0).abs() < 1e-12);
        // A lone cell idles the second thread half the time.
        assert!((straggler_share(&[vec![3.0]]) - 0.5).abs() < 1e-12);
        assert_eq!(straggler_share(&[]), 0.0);
    }
}
