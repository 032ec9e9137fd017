//! `compare A.json B.json`: for every pairing of end-to-end metric and
//! workload, whether B's median improved on, stayed within the bound
//! of, or regressed from A's — or whether the runs are too noisy to
//! tell.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The repetitions spread wider than the bound and the two runs
    /// overlap: no verdict can be given.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric in one result file: the median over the repetitions and
/// their quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    /// The interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

/// The verdict for one metric on one workload. `bound` is the share of
/// A's median by which B may be worse.
pub fn verdict(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    if a.value == 0.0 {
        // A share of nothing is undefined; only equality is decidable.
        return if b.value == 0.0 {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread().max(b.spread()) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        // The same margin a regression needs: two runs of the same
        // commit differ by several per cent on a shared host.
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn reading(metric: &Json) -> Option<Reading> {
    let value = metric.get("value")?.as_f64()?;
    Some(Reading {
        value,
        q1: metric.get("q1").and_then(Json::as_f64).unwrap_or(value),
        q3: metric.get("q3").and_then(Json::as_f64).unwrap_or(value),
    })
}

fn failed_share(workload: &Json) -> f64 {
    let get = |k| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    get("failed") / get("attempted").max(1.0)
}

/// Two machines whose calibration kernels differ by more than this
/// share are not the same machine for the purpose of comparing speeds.
const CALIB_TOLERANCE: f64 = 0.10;

/// Compares two result files against the bounds `benchmark` (the
/// parsed `BENCHMARK.json`) declares. Returns the report and whether
/// anything regressed; a workload or metric that one file lacks counts
/// as regressed. Files measured under different settings (seed, run
/// length, `--quick`) are refused.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let declared = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    for setting in ["seed", "seconds", "quick"] {
        if a.get(setting) != b.get(setting) {
            let show = |f: &Json| f.get(setting).map_or("?".into(), Json::render);
            return Err(format!(
                "the two files were measured with different settings: {setting} {} vs {}",
                show(a),
                show(b)
            ));
        }
    }
    let mut out = String::new();
    let mut regressed = false;
    let calib = |f: &Json| {
        f.get("probes")
            .and_then(|p| p.get("bench.calib_ns"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    for side in [a, b] {
        let id = |k| side.get(k).map_or("?".into(), Json::render);
        let _ = writeln!(
            out,
            "# commit {} rustc {} calib_ns {}",
            id("commit"),
            id("rustc"),
            calib(side).map_or("?".into(), |c| c.to_string()),
        );
    }
    match (calib(a), calib(b)) {
        (Some(ca), Some(cb)) if ((cb - ca) / ca).abs() <= CALIB_TOLERANCE => {}
        _ => {
            let _ = writeln!(
                out,
                "# WARNING calib_ns differs by more than {:.0}% or is missing: \
                 the files come from different machines, speeds do not compare",
                CALIB_TOLERANCE * 100.0
            );
        }
    }
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let side = |file: &Json| file.get("workloads").and_then(|ws| ws.get(name)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            regressed = true;
            let _ = writeln!(out, "{name}: regressed (missing from one of the files)");
            continue;
        };
        let mut row = format!("{name}:");
        for d in declared {
            let metric = d
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let bound = d
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let better = match d.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("metric {metric}: bad `better`")),
            };
            let read = |w: &Json| {
                w.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(reading)
            };
            let (Some(ra), Some(rb)) = (read(&wa), read(&wb)) else {
                regressed = true;
                let _ = write!(row, "  {metric} regressed (missing from one of the files)");
                continue;
            };
            let v = verdict(ra, rb, better, bound);
            regressed |= v == Verdict::Regressed;
            let _ = write!(
                row,
                "  {metric} {} ({:.6} -> {:.6}, {:+.2}%, bound {:.0}%)",
                v.name(),
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value * 100.0,
                bound * 100.0
            );
        }
        // Any increase in the share of failed checks is a regression.
        let (fa, fb) = (failed_share(&wa), failed_share(&wb));
        if fb > fa {
            regressed = true;
            let _ = write!(row, "  failed_share regressed ({fa} -> {fb})");
        } else {
            let _ = write!(row, "  failed_share within-bound ({fa} -> {fb})");
        }
        let digest = |w: &Json| {
            w.get("result_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if digest(&wa) != digest(&wb) {
            let _ = write!(row, "  [simulated results changed]");
        }
        let _ = writeln!(out, "{row}");
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(q1: f64, value: f64, q3: f64) -> Reading {
        Reading { value, q1, q3 }
    }

    #[test]
    fn verdicts_on_synthetic_readings() {
        // A time with a 2 % interquartile range.
        let base = r(9.9, 10.0, 10.1);
        // 3% slower with a 6% bound and tight runs: within bound.
        assert_eq!(
            verdict(base, r(10.2, 10.3, 10.4), Better::Lower, 0.06),
            Verdict::WithinBound
        );
        // 10% slower: regressed; 10% faster: improved.
        assert_eq!(
            verdict(base, r(10.9, 11.0, 11.1), Better::Lower, 0.06),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(base, r(8.9, 9.0, 9.1), Better::Lower, 0.06),
            Verdict::Improved
        );
        // The same for a rate, where lower is worse.
        assert_eq!(
            verdict(base, r(8.9, 9.0, 9.1), Better::Higher, 0.06),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(base, r(10.9, 11.0, 11.1), Better::Higher, 0.06),
            Verdict::Improved
        );
        // Repetitions that spread wider than the bound and overlapping
        // runs: unresolved, whatever the medians say.
        assert_eq!(
            verdict(r(9.5, 10.0, 11.5), r(10.2, 10.8, 12.0), Better::Lower, 0.06),
            Verdict::Unresolved
        );
        // Noisy but disjoint and clearly worse: still a regression.
        assert_eq!(
            verdict(r(9.5, 10.0, 11.5), r(13.5, 14.0, 15.5), Better::Lower, 0.06),
            Verdict::Regressed
        );
        // Identical single samples (an A/A of exact values).
        assert_eq!(
            verdict(r(5.0, 5.0, 5.0), r(5.0, 5.0, 5.0), Better::Lower, 0.05),
            Verdict::WithinBound
        );
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.06}]}"#,
        )
        .unwrap()
    }

    fn file(wall: f64, digest: &str, failed: u32) -> Json {
        Json::parse(&format!(
            r#"{{"commit": "c", "seed": 1, "seconds": 10, "quick": false,
                "probes": {{"bench.calib_ns": {{"value": 7000000}}}},
                "workloads": {{"w": {{"result_digest": "{digest}",
                "attempted": 10, "failed": {failed},
                "metrics": {{"wall_s": {{"value": {wall}, "q1": {wall}, "q3": {wall}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_reports_rows_digests_and_failures() {
        let benchmark = benchmark();
        let (report, regressed) =
            compare(&benchmark, &file(1.0, "aa", 0), &file(1.01, "aa", 0)).unwrap();
        assert!(!regressed, "{report}");
        assert!(report.contains("w:  wall_s within-bound"));
        assert!(!report.contains("simulated results changed"));
        assert!(!report.contains("WARNING"));

        let (report, regressed) =
            compare(&benchmark, &file(1.0, "aa", 0), &file(1.2, "bb", 0)).unwrap();
        assert!(regressed);
        assert!(report.contains("wall_s regressed"));
        assert!(report.contains("[simulated results changed]"));

        // A changed digest alone is reported, not failed.
        let (_, regressed) = compare(&benchmark, &file(1.0, "aa", 0), &file(1.0, "bb", 0)).unwrap();
        assert!(!regressed);
        // One more failed check is a regression even at equal speed.
        let (report, regressed) =
            compare(&benchmark, &file(1.0, "aa", 0), &file(1.0, "aa", 1)).unwrap();
        assert!(regressed);
        assert!(report.contains("failed_share regressed"));
    }

    /// Swaps `old` for `new` in a rendered result file.
    fn edited(file: &Json, old: &str, new: &str) -> Json {
        let text = file.render();
        assert!(text.contains(old), "{old} not in {text}");
        Json::parse(&text.replace(old, new)).unwrap()
    }

    #[test]
    fn a_dropped_workload_or_metric_does_not_pass() {
        let benchmark = benchmark();
        let whole = file(1.0, "aa", 0);
        let (report, regressed) =
            compare(&benchmark, &whole, &edited(&whole, "\"w\":", "\"other\":")).unwrap();
        assert!(regressed);
        assert!(report.contains("w: regressed (missing"));
        let (report, regressed) =
            compare(&benchmark, &whole, &edited(&whole, "wall_s", "other_s")).unwrap();
        assert!(regressed);
        assert!(report.contains("wall_s regressed (missing"));
    }

    #[test]
    fn files_measured_differently_are_refused_or_flagged() {
        let benchmark = benchmark();
        let whole = file(1.0, "aa", 0);
        for (old, new) in [
            ("\"seed\": 1", "\"seed\": 2"),
            ("\"seconds\": 10", "\"seconds\": 1"),
            ("\"quick\": false", "\"quick\": true"),
        ] {
            let err = compare(&benchmark, &whole, &edited(&whole, old, new)).unwrap_err();
            assert!(err.contains("different settings"), "{err}");
        }
        // Another machine: compared, with a warning.
        let (report, regressed) =
            compare(&benchmark, &whole, &edited(&whole, "7000000", "9000000")).unwrap();
        assert!(!regressed);
        assert!(report.contains("WARNING calib_ns"));
    }
}
