//! Failure domains for supervised cell execution.
//!
//! One matrix cell is the unit of isolation: a cell that panics, hangs
//! past its wall-clock deadline, or fails its simulation is converted
//! into a typed [`CellError`] carried in the artifact's `failures`
//! block instead of taking down the run. The [`Watchdog`] is the only
//! wall-clock authority — workers never time themselves; a background
//! thread fires each running cell's [`CancelToken`] once its deadline
//! passes, and the simulator's cooperative cancellation poll turns that
//! into a deterministic stop.
//!
//! Every [`CellError`] message is a function of the scenario
//! configuration and the panic site alone — never of measured wall
//! time — so artifacts stay byte-identical across machines, runs and
//! resumes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dctcp_sim::{CancelToken, SimDuration};

/// Why one matrix cell was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's worker panicked (payload rendered as text).
    Panicked {
        /// The panic message.
        msg: String,
    },
    /// The supervisor cancelled the cell at its wall-clock deadline.
    DeadlineExceeded {
        /// The configured (or derived) deadline.
        deadline: SimDuration,
    },
    /// The simulation returned a typed error.
    Failed {
        /// The rendered simulator error.
        msg: String,
    },
}

impl CellError {
    /// Stable one-token failure kind, used in the journal line grammar
    /// and the artifact's `failures` block.
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Panicked { .. } => "panicked",
            CellError::DeadlineExceeded { .. } => "deadline",
            CellError::Failed { .. } => "failed",
        }
    }

    /// Whether hitting this error again is guaranteed on re-execution.
    /// Deterministic failures are replayed from the journal on resume;
    /// a deadline miss depends on machine speed, so the next run
    /// executes the cell again.
    pub fn is_deterministic(&self) -> bool {
        Self::kind_is_deterministic(self.kind())
    }

    /// Whether `kind` (as recorded in a journal) names a deterministic
    /// failure — the load-time counterpart of [`is_deterministic`].
    ///
    /// [`is_deterministic`]: CellError::is_deterministic
    pub fn kind_is_deterministic(kind: &str) -> bool {
        matches!(kind, "panicked" | "failed")
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked { msg } => write!(f, "panicked: {msg}"),
            CellError::DeadlineExceeded { deadline } => {
                write!(f, "exceeded the {deadline} wall-clock deadline")
            }
            CellError::Failed { msg } => write!(f, "{msg}"),
        }
    }
}

/// How often the watchdog thread scans for expired deadlines. Cells run
/// for seconds; a few milliseconds of cancellation latency is noise.
const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// One supervised attempt: when it started, how long it may run, and
/// the token to fire once the deadline passes.
type Registry = Arc<Mutex<HashMap<u64, (Instant, Duration, CancelToken)>>>;

/// A background deadline enforcer for in-flight cells.
///
/// Workers [`register`](Watchdog::register) a cell's cancel token with
/// its deadline before each attempt; the watchdog thread fires the
/// token once the deadline passes. The returned [`DeadlineGuard`]
/// deregisters on drop, so a finished attempt can never be cancelled
/// retroactively.
#[derive(Debug)]
pub(crate) struct Watchdog {
    registry: Registry,
    shutdown: Arc<AtomicBool>,
    next_id: AtomicU64,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog thread.
    pub(crate) fn start() -> Watchdog {
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Acquire) {
                    {
                        let guard = registry.lock().unwrap_or_else(|e| e.into_inner());
                        for (started, deadline, token) in guard.values() {
                            if started.elapsed() >= *deadline {
                                token.cancel();
                            }
                        }
                    }
                    std::thread::sleep(WATCHDOG_POLL);
                }
            })
        };
        Watchdog {
            registry,
            shutdown,
            next_id: AtomicU64::new(0),
            thread: Some(thread),
        }
    }

    /// Puts one attempt under deadline supervision. The clock starts
    /// now; the token fires once `deadline` has elapsed.
    pub(crate) fn register(&self, deadline: Duration, token: CancelToken) -> DeadlineGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, (Instant::now(), deadline, token));
        DeadlineGuard {
            registry: Arc::clone(&self.registry),
            id,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Deregisters a supervised attempt when dropped.
#[derive(Debug)]
pub(crate) struct DeadlineGuard {
    registry: Registry,
    id: u64,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        self.registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_and_classify() {
        let errors = [
            (CellError::Panicked { msg: "boom".into() }, true),
            (
                CellError::DeadlineExceeded {
                    deadline: SimDuration::from_secs(30),
                },
                false,
            ),
            (CellError::Failed { msg: "sim".into() }, true),
        ];
        for (e, deterministic) in &errors {
            assert_eq!(e.is_deterministic(), *deterministic, "{e}");
        }
        // Unknown journal tokens are conservatively non-deterministic
        // (re-run rather than replay).
        assert!(!CellError::kind_is_deterministic("mystery"));
    }

    #[test]
    fn deadline_message_depends_only_on_config() {
        let e = CellError::DeadlineExceeded {
            deadline: SimDuration::from_secs(30),
        };
        // No measured wall-clock values — byte-identical everywhere.
        assert_eq!(e.to_string(), "exceeded the 30.000s wall-clock deadline");
    }

    #[test]
    fn watchdog_fires_expired_deadlines_only() {
        let w = Watchdog::start();
        let fast = CancelToken::new();
        let slow = CancelToken::new();
        let _g1 = w.register(Duration::from_millis(1), fast.clone());
        let _g2 = w.register(Duration::from_secs(3600), slow.clone());
        let start = Instant::now();
        while !fast.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(fast.is_cancelled(), "expired deadline must fire");
        assert!(!slow.is_cancelled(), "live deadline must not fire");
    }

    #[test]
    fn dropping_the_guard_stops_supervision() {
        let w = Watchdog::start();
        let token = CancelToken::new();
        drop(w.register(Duration::from_millis(1), token.clone()));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !token.is_cancelled(),
            "a deregistered attempt must never be cancelled"
        );
    }
}
