//! Machine identity and process facts every recorded number carries:
//! core count, a calibration kernel, toolchain, commit, peak RSS.

use std::hint::black_box;
use std::time::Instant;

/// Cores this process may run on. Deliberately not
/// `dctcp_parallel::available_threads`, which `DCTCP_JOBS` overrides.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nanoseconds the machine takes for a fixed piece of work: an integer
/// recurrence (core speed) followed by a strided walk over a buffer
/// larger than a typical L2 (memory speed). Best of five, because
/// the kernel identifies the machine rather than measuring its noise.
/// Two results are comparable as speeds only when their `calib_ns`
/// agree.
pub fn calib_ns() -> f64 {
    const WORDS: usize = 1 << 21; // 16 MiB of u64
    const STRIDE: usize = 4099; // odd, so the walk visits every word
    let mut buf = vec![0u64; WORDS];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        let mut at = (x as usize) % WORDS;
        for i in 0..400_000u64 {
            buf[at] = buf[at].wrapping_add(x ^ i);
            at = (at + STRIDE) % WORDS;
        }
        black_box((&buf, x));
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// `rustc -V`, or `unknown` when no `rustc` is on the path.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, read from
/// `/proc`; `None` once the process is gone (or off Linux).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        let mb = peak_rss_mb(std::process::id()).expect("Linux exposes VmHWM");
        assert!(mb > 0.0);
        assert!(peak_rss_mb(u32::MAX).is_none());
    }

    #[test]
    fn missing_program_reads_unknown() {
        assert_eq!(command_line("no-such-program-here", &[]), "unknown");
    }
}
