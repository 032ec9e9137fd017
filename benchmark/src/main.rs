//! The repo's one end-to-end + per-layer benchmark. See `README.md`
//! beside this package for the metric glossary and how to run, compare
//! and re-baseline.
//!
//! ```text
//! dctcp-benchmark [--seed N] [--seconds S] [--quick] [--record]
//! dctcp-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! dctcp-benchmark compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs untraced and traced, each
//! in its own process, and `benchmark/out/latest.json` is written; with
//! it, one run of one workload ends with one JSON line. The working
//! directory is the repository root (`benchmark/run.sh` sees to that).
//! Layers are measured from outside, through their public functions
//! and counters.

mod alloc;
mod compare;
mod guards;
mod json;
mod machine;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: dctcp-benchmark [--seed N] [--seconds S] [--quick] [--record]
       dctcp-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
       dctcp-benchmark compare A.json B.json
(run from the repository root; benchmark/run.sh builds first and does)";

/// Spread of a run's repetitions beyond which the run flags itself.
const NOISY_SPREAD: f64 = 0.08;

/// Results, traces and scratch files, relative to the repository root.
const OUT: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    compare: bool,
    files: Vec<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    record: bool,
    /// Set by the all-workloads run on the traced runs it starts.
    probes: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        compare: false,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        record: false,
        probes: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    a.compare = it.next_if(|arg| arg == "compare").is_some();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => a.quick = true,
            "--record" => a.record = true,
            "--probes" => a.probes = Some(PathBuf::from(value("--probes")?)),
            other if a.compare && !other.starts_with('-') => a.files.push(PathBuf::from(other)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn own_binary() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))
}

fn guard() -> Result<(), String> {
    metrics::check_names()?;
    guards::check_environment()?;
    guards::check_profiles(Path::new("."))
}

/// Where a run of this process finds its inputs and may write.
fn env(a: &Args) -> Result<workloads::Env, String> {
    let scratch = Path::new(OUT).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok(workloads::Env {
        seed: a.seed,
        quick: a.quick,
        scenarios: PathBuf::from("benchmark/scenarios"),
        scratch,
        // `run.sh` builds both binaries into one target directory.
        repro: own_binary()?.with_file_name("repro"),
    })
}

fn one_run(a: &Args, workload: &str) -> Result<ExitCode, String> {
    guard()?;
    // Single-threaded engine everywhere: one shard per simulation.
    // Nothing else runs in this process yet, so setting it is safe.
    std::env::set_var("DCTCP_SIM_SHARDS", "1");

    let env = env(a)?;
    if workload == "repro_matrix" && !env.repro.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p dctcp-scenario --bin repro` \
             into the benchmark's target directory (benchmark/run.sh does)",
            env.repro.display()
        ));
    }
    let scratch = env.scratch.clone();
    let opts = run::Options {
        workload: workload.to_string(),
        seconds: a.seconds.unwrap_or(if a.quick { 1.0 } else { 10.0 }),
        trace: a.trace,
        probes: a.probes.clone(),
        env,
    };
    let outcome = run::run(&opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    for note in &outcome.checks.notes {
        eprintln!("benchmark: FAILED CHECK {}: {note}", outcome.workload);
    }
    eprintln!(
        "benchmark: {} trace={} seed={} reps={} result_digest={:016x} checks {}/{} failed",
        outcome.workload,
        u8::from(outcome.trace),
        outcome.seed,
        outcome.reps,
        outcome.digest,
        outcome.checks.failed,
        outcome.checks.attempted,
    );
    // A run whose repetitions spread wider than the regression bounds
    // says so: `compare` will call it unresolved.
    for (d, s) in outcome.metrics.measured(END_TO_END) {
        let spread = (s.q3 - s.q1) / s.value;
        if spread > NOISY_SPREAD {
            eprintln!(
                "benchmark: NOTE {} {}: the {} repetitions spread by {:.1} % (interquartile \
                 range over median): a noisy run",
                outcome.workload,
                d.name,
                s.n,
                spread * 100.0
            );
        }
    }
    run::write_detail(Path::new(OUT), &outcome).map_err(|e| format!("{OUT}: {e}"))?;
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in its own process (so that `peak_rss_mb` is per
/// workload) and returns the detail record it wrote.
fn child_run(
    a: &Args,
    workload: &str,
    seconds: f64,
    probes: Option<&Path>,
) -> Result<Json, String> {
    let trace = probes.is_some();
    let mut cmd = Command::new(own_binary()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::null());
    if let Some(file) = probes {
        cmd.arg("--probes").arg(file);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            u8::from(trace)
        ));
    }
    let tag = format!("run-{workload}-t{}.json", u8::from(trace));
    read_json(&Path::new(OUT).join(tag))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One `workload metric value unit` line, with the spread of a sampled
/// metric beside it.
fn print_metric(workload: &str, name: &str, unit: &str, metric: &Json) {
    let spread = match num(metric, "n") {
        n if n > 1.0 => format!(
            "  (q1 {} q3 {} n {n})",
            num(metric, "q1"),
            num(metric, "q3"),
        ),
        _ => String::new(),
    };
    println!("{workload} {name} {} {unit}{spread}", num(metric, "value"));
}

fn all(a: &Args) -> Result<ExitCode, String> {
    guard()?;
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let seconds = match a.seconds {
        Some(s) => s,
        None if a.quick => 1.0,
        None => num(&benchmark, "run_seconds"),
    };
    let out = Path::new(OUT);
    let mut printed = std::collections::BTreeSet::new();

    // The micro-probes do not depend on the workload: they run once,
    // here, and every traced run below reads them from a file.
    let env = env(a)?;
    let mut probes = Metrics::default();
    probes::run_all(&mut probes, a.quick, &env.scenarios, &env.scratch);
    let _ = std::fs::remove_dir_all(&env.scratch);
    let probes_json = probes.to_json(PER_LAYER);
    let probes_file = out.join("probes.json");
    std::fs::write(&probes_file, probes_json.render() + "\n")
        .map_err(|e| format!("{}: {e}", probes_file.display()))?;
    for (d, _) in probes.measured(PER_LAYER) {
        let metric = probes_json.get(d.name).unwrap_or(&Json::Null);
        print_metric("probes", d.name, d.unit, metric);
        printed.insert(d.name);
    }
    let cores = probes.get("bench.cores").unwrap_or(0.0);

    let mut workloads = Vec::new();
    let mut trace_lines = String::new();
    let mut any_failed = false;
    for (name, _) in WORKLOADS {
        let plain = child_run(a, name, seconds, None)?;
        let traced = child_run(a, name, seconds, Some(&probes_file))?;
        let mut merged = std::collections::BTreeMap::new();
        for (side, defs) in [(&plain, END_TO_END), (&traced, PER_LAYER)] {
            // The probes are printed above; `failed_share` is printed
            // below, over both runs' checks.
            let own = defs
                .iter()
                .filter(|d| d.name != "failed_share" && probes.get(d.name).is_none());
            for d in own {
                let Some(metric) = side.get("metrics").and_then(|m| m.get(d.name)) else {
                    continue;
                };
                print_metric(name, d.name, d.unit, metric);
                printed.insert(d.name);
                merged.insert(d.name.to_string(), metric.clone());
            }
        }
        let attempted = num(&plain, "attempted") + num(&traced, "attempted");
        let failed = num(&plain, "failed") + num(&traced, "failed");
        any_failed |= failed > 0.0;
        let failed_share = failed / attempted.max(1.0);
        println!(
            "{name} failed_share {failed_share} share  (failed {failed} of {attempted} checks)"
        );
        printed.insert("failed_share");
        merged.insert(
            "failed_share".to_string(),
            Json::obj([
                ("value", Json::Num(failed_share)),
                ("unit", Json::str("share")),
            ]),
        );
        let digest = plain.get("result_digest").cloned().unwrap_or(Json::Null);
        println!("{name} result_digest {}", digest.as_str().unwrap_or("?"));
        if traced.get("result_digest") != Some(&digest) {
            println!("{name} NOTE traced run simulated different results than the untraced run");
            any_failed = true;
        }
        let mut failures = Vec::new();
        for side in [&plain, &traced] {
            failures.extend(
                side.get("failures")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .to_vec(),
            );
        }
        workloads.push((
            *name,
            Json::obj([
                ("result_digest", digest),
                ("reps", Json::Num(num(&plain, "reps"))),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failures", Json::Arr(failures)),
                ("metrics", Json::Obj(merged)),
                (
                    "attribution",
                    traced.get("attribution").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
        let spans = out.join(format!("trace-{name}.jsonl"));
        trace_lines.push_str(&std::fs::read_to_string(&spans).unwrap_or_default());
        let _ = std::fs::remove_file(spans);
    }
    std::fs::write(out.join("trace.jsonl"), trace_lines).map_err(|e| e.to_string())?;

    // Every declared name must have been printed; the two speed-ups are
    // left out, never faked, below two cores.
    let missing: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.name)
        .filter(|n| !printed.contains(n))
        .filter(|n| cores >= 2.0 || !["sim.shard.speedup_2", "parallel.speedup_2t"].contains(n))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "declared metrics no workload reported: {missing:?}"
        ));
    }

    let result = Json::obj([
        ("schema", Json::str("dctcp-benchmark/v1")),
        ("commit", Json::str(machine::commit())),
        ("rustc", Json::str(machine::rustc_version())),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(a.quick)),
        ("probes", probes_json),
        ("workloads", Json::obj(workloads)),
    ]);
    let line = result.render() + "\n";
    let latest = out.join("latest.json");
    std::fs::write(&latest, &line).map_err(|e| format!("{}: {e}", latest.display()))?;
    eprintln!("benchmark: wrote {}", latest.display());
    if a.record {
        // The ledger only ever grows: one line per recorded run.
        let ledger = Path::new("benchmark/history.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ledger)
            .map_err(|e| format!("{}: {e}", ledger.display()))?;
        f.write_all(line.as_bytes())
            .and_then(|()| f.sync_all())
            .map_err(|e| format!("{}: {e}", ledger.display()))?;
        eprintln!("benchmark: appended to {}", ledger.display());
    }
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_files(a: &Args) -> Result<ExitCode, String> {
    let [before, after] = a.files.as_slice() else {
        return Err(USAGE.into());
    };
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let (report, regressed) =
        compare::compare(&benchmark, &read_json(before)?, &read_json(after)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match &a.workload {
        _ if a.compare => compare_files(&a),
        Some(workload) => one_run(&a, workload),
        None => all(&a),
    });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric registry declare the same names,
    /// units, directions and workloads — every declared name is one the
    /// benchmark emits, and nothing undeclared can be emitted (see
    /// `Metrics::set`).
    #[test]
    fn benchmark_json_matches_the_registry() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let b = read_json(&root.join("BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String, String)> = b
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|d| {
                    let s = |k| d.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let registry: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
                .collect();
            assert_eq!(declared, registry, "{key}");
        }
        // The contract's limits: no bound above 25 %, set-up the widest.
        let bounds: Vec<(String, f64)> = b
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|d| {
                assert_eq!(d.as_obj().unwrap().len(), 4);
                let name = d.get("name").and_then(Json::as_str).unwrap().to_string();
                (name, d.get("bound").and_then(Json::as_f64).unwrap())
            })
            .collect();
        let widest = bounds.iter().map(|b| b.1).fold(0.0, f64::max);
        assert!(bounds.iter().all(|b| b.1 > 0.0) && widest <= 0.25);
        assert!(bounds.contains(&("setup_s".to_string(), widest)));
        let workloads: Vec<(String, String)> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let registry: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, registry);
        assert_eq!(b.get("paths").unwrap().as_arr().unwrap().len(), 1);
        let keys: Vec<&str> = b.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
