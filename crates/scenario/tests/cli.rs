//! End-to-end tests of the `repro` / `repro_check` binaries: the same
//! artifact either passes or fails `repro_check` depending only on the
//! committed envelopes and `[xval]` bands, and bad scenario files die
//! with line-numbered diagnostics.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A tiny but real long-lived matrix (one marking, two flow counts)
/// with envelopes that genuinely hold for it.
const PASSING_SCN: &str = "\
[scenario]
name = cli_smoke
kind = long_lived
description = integration-test matrix

[topology]
bottleneck = 1 Gbps

[run]
flows = 2, 4
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[expect \"saturated\"]
check = metric_range
metric = utilization
min = 0.8

[expect \"lossless\"]
check = metric_range
metric = drops
max = 0
";

/// Same name and matrix, but an envelope no real run can satisfy.
const FAILING_SCN: &str = "\
[scenario]
name = cli_smoke
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2, 4
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[expect \"impossible\"]
check = metric_range
metric = queue_mean
max = 0.000001
";

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dctcp-scn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_bin(exe: &str, args: &[&str], cwd: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn binary")
}

#[test]
fn repro_then_check_pass_and_fail_on_envelopes() {
    let dir = unique_dir("cli");
    let scn_pass = dir.join("scenarios");
    let scn_fail = dir.join("scenarios-fail");
    std::fs::create_dir_all(&scn_pass).unwrap();
    std::fs::create_dir_all(&scn_fail).unwrap();
    std::fs::write(scn_pass.join("cli_smoke.scn"), PASSING_SCN).unwrap();
    std::fs::write(scn_fail.join("cli_smoke.scn"), FAILING_SCN).unwrap();

    // Run the matrix once; the artifact serves both check runs.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = dir.join("artifacts/cli_smoke.json");
    let body = std::fs::read_to_string(&artifact).expect("artifact written");
    assert!(body.contains("\"schema\": \"dctcp-repro/v1\""));
    assert!(body.contains("\"flows\": 4"));

    // The honest envelopes hold...
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro_check failed: {stderr}");
    assert!(stderr.contains("0 violation(s)"), "{stderr}");

    // ...and the impossible one rejects the very same artifact.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios-fail", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "violating envelope must fail");
    assert!(stderr.contains("FAIL"), "{stderr}");
    assert!(stderr.contains("impossible"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_repro_is_served_from_cache_and_byte_identical() {
    let dir = unique_dir("warm");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_smoke.scn"), PASSING_SCN).unwrap();
    let args = &[
        "--all",
        "scenarios",
        "--out",
        "artifacts",
        "--cache",
        "cache",
    ];

    // Cold: every cell simulates and populates the cache.
    let out = run_bin(env!("CARGO_BIN_EXE_repro"), args, &dir);
    assert!(
        out.status.success(),
        "cold repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache 0 hits, 2 misses"), "{stdout}");
    let artifact = dir.join("artifacts/cli_smoke.json");
    let cold = std::fs::read(&artifact).unwrap();

    // Warm: zero cells re-simulate, artifact bytes are identical.
    let out = run_bin(env!("CARGO_BIN_EXE_repro"), args, &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache 2 hits, 0 misses"), "{stdout}");
    assert_eq!(std::fs::read(&artifact).unwrap(), cold);

    // --no-cache bypasses the (populated) cache entirely and still
    // reproduces the same bytes.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts", "--no-cache"],
        &dir,
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache disabled"), "{stdout}");
    assert_eq!(std::fs::read(&artifact).unwrap(), cold);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_rejects_bad_scenarios_with_line_numbers() {
    let dir = unique_dir("bad");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(
        scn.join("bad.scn"),
        PASSING_SCN.replace("duration = 15 ms", "duration = 15 fortnights"),
    )
    .unwrap();

    let out = run_bin(env!("CARGO_BIN_EXE_repro"), &["--all", "scenarios"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("line 12"), "{stderr}");
    assert!(stderr.contains("fortnights"), "{stderr}");

    // Each cell runs once; there is no retry budget to raise.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--retries", "1", "--all", "scenarios"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag `--retries`"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Three-cell matrix with one healthy, one panicking and one wedged
/// (runaway, stopped by the event budget) cell, plus one envelope
/// scoped to the healthy marking and one global envelope.
const PARTIAL_SCN: &str = "\
[scenario]
name = cli_partial
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[marking \"boom\"]
scheme = dctcp
k = 21 pkts

[marking \"wedge\"]
scheme = dctcp
k = 22 pkts

[limits]
inject_panic = boom:2:1
inject_stall = wedge:2:1

[expect \"saturated\"]
check = metric_range
metric = utilization
marking = dctcp
min = 0.8

[expect \"lossless\"]
check = metric_range
metric = drops
max = 0
";

#[test]
fn broken_cells_quarantine_into_a_partial_run() {
    let dir = unique_dir("partial");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_partial.scn"), PARTIAL_SCN).unwrap();

    // The matrix completes despite the two broken cells: exit code 3
    // (partial), healthy point present, both failures named.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("2 of 3 cells quarantined"), "{stderr}");
    let body = std::fs::read_to_string(dir.join("artifacts/cli_partial.json")).unwrap();
    assert!(body.contains("\"failures\""), "{body}");
    assert!(
        body.contains("\"error\": \"panicked\", \"marking\": \"boom\""),
        "{body}"
    );
    assert!(
        body.contains("\"error\": \"failed\", \"marking\": \"wedge\""),
        "{body}"
    );
    assert!(body.contains("\"marking\": \"dctcp\""), "{body}");

    // repro_check accepts the partial artifact: the healthy marking's
    // envelope is evaluated, the global one is skipped (not passed),
    // and the whole run signals quarantine with exit code 3.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("SKIP lossless"), "{stderr}");
    assert!(stderr.contains("0 violation(s), 1 skipped"), "{stderr}");

    // A matrix with *no* surviving cell exits 4, not 3: drop the
    // healthy marking and point its envelope at a broken one.
    let dead = PARTIAL_SCN
        .replace("[marking \"dctcp\"]\nscheme = dctcp\nk = 20 pkts\n\n", "")
        .replace("marking = dctcp", "marking = boom");
    std::fs::write(scn.join("cli_partial.scn"), dead).unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_matrix_resumes_with_zero_recomputation() {
    let dir = unique_dir("kill9");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(
        scn.join("cli_smoke.scn"),
        PASSING_SCN.replace("flows = 2, 4", "flows = 2, 3, 4, 6"),
    )
    .unwrap();
    let args = &[
        "--all",
        "scenarios",
        "--out",
        "artifacts",
        "--cache",
        "cache",
        "--threads",
        "1",
    ];

    // Start a sequential cold run and SIGKILL it as soon as at least
    // one cell has been committed to the cache.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    let cache_dir = dir.join("cache");
    let cells = |d: &Path| -> usize {
        std::fs::read_dir(d).map_or(0, |rd| {
            rd.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                .count()
        })
    };
    let start = std::time::Instant::now();
    while cells(&cache_dir) == 0 && start.elapsed() < std::time::Duration::from_secs(60) {
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill it — still a valid run
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = child.kill();
    let _ = child.wait();
    let committed = cells(&cache_dir);
    assert!(committed >= 1, "no cell committed before the kill window");

    // The resume serves every committed cell from the cache and only
    // simulates the remainder — zero recomputation.
    let out = run_bin(env!("CARGO_BIN_EXE_repro"), args, &dir);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("cache {committed} hits, {} misses", 4 - committed)),
        "committed={committed}, {stdout}"
    );
    let resumed = std::fs::read(dir.join("artifacts/cli_smoke.json")).unwrap();

    // A never-interrupted run against a fresh cache produces the exact
    // same bytes.
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "--all",
            "scenarios",
            "--out",
            "artifacts-clean",
            "--cache",
            "cache-clean",
            "--threads",
            "1",
        ],
        &dir,
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache 0 hits, 4 misses"), "{stdout}");
    let clean = std::fs::read(dir.join("artifacts-clean/cli_smoke.json")).unwrap();
    assert_eq!(resumed, clean, "resumed artifact must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_check_flags_stale_artifacts() {
    let dir = unique_dir("stale");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_smoke.scn"), PASSING_SCN).unwrap();

    let out = run_bin(
        env!("CARGO_BIN_EXE_repro"),
        &["--all", "scenarios", "--out", "artifacts"],
        &dir,
    );
    assert!(out.status.success());

    // Grow the matrix after the artifact was produced.
    std::fs::write(
        scn.join("cli_smoke.scn"),
        PASSING_SCN.replace("flows = 2, 4", "flows = 2, 4, 8"),
    )
    .unwrap();
    let out = run_bin(
        env!("CARGO_BIN_EXE_repro_check"),
        &["--all", "scenarios", "--artifacts", "artifacts"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("stale"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-cell packet anchor for [`XVAL_FLUID_SCN`]'s band.
const XVAL_ANCHOR_SCN: &str = "\
[scenario]
name = cli_anchor
kind = long_lived

[topology]
bottleneck = 1 Gbps

[run]
flows = 2
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
";

/// The fluid model at the anchor's operating point, with one `[xval]`
/// band on the mean queue (measured 18.90 fluid vs 18.13 packet, a
/// relative error of 0.043).
const XVAL_FLUID_SCN: &str = "\
[scenario]
name = cli_fluid
kind = fluid

[topology]
bottleneck = 1 Gbps

[run]
flows = 2
warmup = 20 ms
duration = 15 ms
dt = 1 us
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts

[xval \"mean-vs-anchor\"]
packet = cli_anchor
marking = dctcp
metric = queue_mean
flows = 2
max_rel_err = 0.5
";

#[test]
fn repro_check_judges_xval_bands_against_their_anchor() {
    let dir = unique_dir("xval");
    let scn = dir.join("scenarios");
    std::fs::create_dir_all(&scn).unwrap();
    std::fs::write(scn.join("cli_anchor.scn"), XVAL_ANCHOR_SCN).unwrap();
    std::fs::write(scn.join("cli_fluid.scn"), XVAL_FLUID_SCN).unwrap();
    let repro = |dir: &Path| {
        run_bin(
            env!("CARGO_BIN_EXE_repro"),
            &["--all", "scenarios", "--out", "artifacts", "--no-cache"],
            dir,
        )
    };
    let check = |dir: &Path| {
        let out = run_bin(
            env!("CARGO_BIN_EXE_repro_check"),
            &["--all", "scenarios", "--artifacts", "artifacts"],
            dir,
        );
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };

    let out = repro(&dir);
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (code, stderr) = check(&dir);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stderr.contains("0/0 envelopes and 1/1 bands hold"),
        "{stderr}"
    );

    // A band tighter than the measured error fails, naming label and N.
    std::fs::write(
        scn.join("cli_fluid.scn"),
        XVAL_FLUID_SCN.replace("max_rel_err = 0.5", "max_rel_err = 0.01"),
    )
    .unwrap();
    let (code, stderr) = check(&dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("FAIL xval \"mean-vs-anchor\": N=2"),
        "{stderr}"
    );
    std::fs::write(scn.join("cli_fluid.scn"), XVAL_FLUID_SCN).unwrap();

    // A quarantined anchor cell skips the band: incomplete, not wrong.
    std::fs::write(
        scn.join("cli_anchor.scn"),
        format!("{XVAL_ANCHOR_SCN}\n[limits]\ninject_panic = dctcp:2:1\n"),
    )
    .unwrap();
    assert_eq!(repro(&dir).status.code(), Some(3));
    let (code, stderr) = check(&dir);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("SKIP mean-vs-anchor"), "{stderr}");

    // A missing anchor artifact is an error naming the file.
    std::fs::remove_file(dir.join("artifacts/cli_anchor.json")).unwrap();
    std::fs::remove_file(scn.join("cli_anchor.scn")).unwrap();
    let (code, stderr) = check(&dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("mean-vs-anchor"), "{stderr}");
    assert!(stderr.contains("cli_anchor.json"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}
