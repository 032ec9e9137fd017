//! Dependency-free parallel fan-out for independent simulation runs.
//!
//! Parameter sweeps and multi-seed replays run many *independent*
//! simulations — each fully deterministic on its own inputs — so they
//! parallelize trivially: fan the (seed, N, scheme) points across
//! threads and reassemble results **by input index**. Because each run
//! shares no state with any other and results come back in input order,
//! the output is bit-identical to the serial driver no matter how the
//! scheduler interleaves the workers.
//!
//! The pool is built on [`std::thread::scope`] only (the workspace is
//! hermetic: no rayon/crossbeam), with a single atomic work counter for
//! load balancing.
//!
//! # Examples
//!
//! ```
//! let squares = dctcp_parallel::par_map(vec![1u64, 2, 3, 4], 2, |_idx, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the `DCTCP_JOBS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("DCTCP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` worker threads and
/// returns the results **in input order** — element `i` of the output is
/// always `f(i, items[i])`, so a fan-out over deterministic jobs is
/// bit-identical to running them serially.
///
/// `f` receives the item's input index alongside the item. With
/// `threads <= 1` (or a single item) everything runs inline on the
/// caller's thread with no pool at all — the serial and parallel drivers
/// are literally the same code path fed the same inputs.
///
/// # Panics
///
/// Propagates the first worker panic after all threads have stopped
/// (via [`std::thread::scope`] joining).
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let workers = threads.min(n);
    // Hand each worker items by index through per-slot locks: the shared
    // counter balances load, the slot index — not completion order —
    // decides where a result lands.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let item = inputs[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("item claimed twice");
                    let out = f(i, item);
                    *outputs[i].lock().expect("output slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join explicitly so a worker panic resurfaces with its original
        // payload instead of scope's generic message.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    outputs
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("output slot poisoned")
                .unwrap_or_else(|| panic!("worker produced no result for item {i}"))
        })
        .collect()
}

/// Fallible [`par_map`]: applies `f` to every item on up to `threads`
/// worker threads and returns all results in input order, or the error
/// of the **lowest-indexed** failing item.
///
/// Every job still runs to completion (workers don't watch each other),
/// so the choice of reported error is deterministic — it depends only on
/// the inputs, never on scheduling.
///
/// # Errors
///
/// Returns the first error by input index when any job fails.
///
/// # Examples
///
/// ```
/// let ok = dctcp_parallel::par_try_map(vec![1u64, 2, 3], 2, |_i, x| Ok::<_, String>(x * 2));
/// assert_eq!(ok, Ok(vec![2, 4, 6]));
///
/// let err = dctcp_parallel::par_try_map(vec![1u64, 0, 0], 2, |i, x| {
///     if x == 0 { Err(format!("item {i} is zero")) } else { Ok(x) }
/// });
/// assert_eq!(err, Err("item 1 is zero".to_string()));
/// ```
pub fn par_try_map<T, R, E, F>(items: Vec<T>, threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(usize, T) -> Result<R, E> + Sync,
{
    par_map(items, threads, f).into_iter().collect()
}

/// A worker panic caught by [`run_isolated`] and carried as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim, anything else a fixed placeholder), so the message is a
    /// deterministic function of the panic site.
    pub message: String,
}

impl std::fmt::Display for CaughtPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.message)
    }
}

/// Runs `f` under [`std::panic::catch_unwind`], converting a panic into
/// a typed [`CaughtPanic`] instead of unwinding into the caller.
///
/// This is the supervision primitive: one poisoned job must not take
/// down its siblings or the driver. `f` is wrapped in
/// [`AssertUnwindSafe`](std::panic::AssertUnwindSafe), which is sound
/// for the fan-out drivers here because a failed job's partial state is
/// discarded wholesale — nothing observes the interior of a job that
/// panicked.
///
/// # Examples
///
/// ```
/// let ok = dctcp_parallel::run_isolated(|| 2 + 2);
/// assert_eq!(ok, Ok(4));
///
/// let err = dctcp_parallel::run_isolated(|| -> u32 { panic!("boom") });
/// assert_eq!(err.unwrap_err().message, "boom");
/// ```
pub fn run_isolated<R, F: FnOnce() -> R>(f: F) -> Result<R, CaughtPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        CaughtPanic { message }
    })
}

/// [`par_map`] with per-item panic isolation: a job that panics yields
/// `Err(CaughtPanic)` in its output slot while every other job runs to
/// completion, instead of the first panic aborting the whole fan-out.
///
/// Results stay in input order, so which jobs failed — and with what
/// message — is deterministic for deterministic jobs.
///
/// # Examples
///
/// ```
/// let out = dctcp_parallel::par_map_isolated(vec![1u64, 0, 3], 2, |_i, x| {
///     if x == 0 { panic!("zero") } else { x * 2 }
/// });
/// assert_eq!(out[0], Ok(2));
/// assert_eq!(out[1].as_ref().unwrap_err().message, "zero");
/// assert_eq!(out[2], Ok(6));
/// ```
pub fn par_map_isolated<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<Result<R, CaughtPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map(items, threads, |i, item| run_isolated(|| f(i, item)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_input_ordered() {
        // Jobs finish out of order (larger inputs sleep longer when run
        // concurrently); results must still land by input index.
        let items: Vec<u64> = (0..64).rev().collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let got = par_map(items, 8, |_i, x| {
            std::thread::sleep(std::time::Duration::from_micros(x * 10));
            x * 3
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn index_matches_item_position() {
        let got = par_map(vec![10u64, 20, 30], 3, |i, x| (i, x));
        assert_eq!(got, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let job = |_i: usize, seed: u64| {
            // A deterministic pseudo-sim: results depend only on input.
            let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..1000 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            h
        };
        let seeds: Vec<u64> = (1..=40).collect();
        let serial = par_map(seeds.clone(), 1, job);
        for threads in [2, 4, 7] {
            assert_eq!(par_map(seeds.clone(), threads, job), serial);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map((0..100u64).collect(), 4, |_i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(empty, 4, |_i, x: u64| x).is_empty());
        assert_eq!(par_map(vec![5u64], 4, |_i, x| x + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(vec![1u64, 2], 64, |_i, x| x), vec![1, 2]);
    }

    #[test]
    fn non_copy_items_move_through() {
        let items = vec![String::from("a"), String::from("bb")];
        let got = par_map(items, 2, |_i, s| s.len());
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        par_map(vec![1u64, 2, 3], 2, |_i, x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        // Two failures; the lower input index must win regardless of
        // which worker finishes first.
        let r = par_try_map((0..32u64).collect(), 4, |i, x| {
            if x % 10 == 7 {
                Err(format!("fail at {i}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(r, Err("fail at 7".to_string()));
    }

    #[test]
    fn try_map_success_matches_par_map() {
        let items: Vec<u64> = (0..20).collect();
        let ok: Result<Vec<u64>, ()> = par_try_map(items.clone(), 3, |_i, x| Ok(x * x));
        assert_eq!(ok.unwrap(), par_map(items, 3, |_i, x| x * x));
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn isolated_panics_become_values_and_siblings_survive() {
        let out = par_map_isolated((0..32u64).collect(), 4, |i, x| {
            if x % 10 == 3 {
                panic!("poisoned cell {i}");
            }
            x * 2
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i % 10 == 3 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.message, format!("poisoned cell {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 2);
            }
        }
    }

    #[test]
    fn isolated_serial_and_parallel_agree() {
        let job = |i: usize, x: u64| {
            if x == 5 {
                panic!("five");
            }
            (i, x)
        };
        let items: Vec<u64> = (0..12).collect();
        let serial = par_map_isolated(items.clone(), 1, job);
        assert_eq!(par_map_isolated(items, 4, job), serial);
    }

    #[test]
    fn run_isolated_renders_string_and_opaque_payloads() {
        assert_eq!(
            run_isolated(|| -> () { std::panic::panic_any(String::from("owned")) })
                .unwrap_err()
                .message,
            "owned"
        );
        assert_eq!(
            run_isolated(|| -> () { std::panic::panic_any(42u64) })
                .unwrap_err()
                .message,
            "non-string panic payload"
        );
        assert_eq!(
            run_isolated(|| -> () { panic!("formatted {}", 7) })
                .unwrap_err()
                .message,
            "formatted 7"
        );
    }
}
