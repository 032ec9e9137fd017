//! Executes a scenario's matrix under supervision and assembles the
//! artifact.
//!
//! The executor is *incremental*: each (marking, flows, seed) cell is a
//! fully deterministic simulation, so its result is memoized in an
//! optional [`dctcp_cache::Cache`] under a content address derived from
//! the resolved cell configuration and the workspace code fingerprint
//! (see [`cell_key`] internals). A run first partitions the matrix into
//! cache hits, journal-replayed quarantines and misses, then fans only
//! the misses out through [`dctcp_parallel::par_map`] one cell per work
//! item. Results are reassembled by cell index, so artifacts are
//! bit-identical for any thread count *and* any hit/miss split — a warm
//! run re-renders the exact bytes of the cold run that populated the
//! cache.
//!
//! The executor is also *supervised* — one broken cell cannot take the
//! matrix down or wedge it:
//!
//! * each miss runs exactly once, under [`dctcp_parallel::run_isolated`],
//!   so a panic becomes a typed [`CellError::Panicked`] value;
//! * a watchdog thread fires each running cell's [`CancelToken`] at its
//!   wall-clock deadline, which the simulator's cooperative
//!   cancellation poll turns into [`CellError::DeadlineExceeded`];
//! * a failed cell is quarantined into the artifact's `failures` block
//!   and recorded in the cache directory's journal, so a resumed run
//!   replays deterministic failures instead of repeating them. There is
//!   no retry: a cell is a pure function of its key material, so a
//!   panic or a typed failure recurs on every attempt, and a deadline
//!   miss is re-run by the next invocation.
//!
//! Crash consistency: each cell's result is written to the cache (and
//! each quarantine to the journal) *by the worker that produced it*,
//! the moment it exists. A run killed mid-matrix — even with `kill -9`
//! — resumes with every completed cell served from the cache.
//!
//! [`CancelToken`]: dctcp_sim::CancelToken

use std::time::Duration;

use dctcp_cache::{Cache, CacheKey, FailureRecord, Journal, KeyBuilder};
use dctcp_parallel::{par_map, run_isolated};
use dctcp_sim::{CancelToken, SimError, SimTime};

use crate::artifact::{Artifact, FailureCell, Point, ARTIFACT_SCHEMA};
use crate::kinds;
use crate::spec::{InjectFault, ScenarioSpec};
use crate::supervise::{CellError, Watchdog};
use crate::ScenarioKind;

/// One (marking, flows, seed) cell awaiting execution.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    pub(crate) label: String,
    pub(crate) scheme: dctcp_core::MarkingScheme,
    pub(crate) flows: u32,
    pub(crate) seed: u64,
}

/// A scenario's cells in matrix order: marking-major, then flows, then
/// seed.
pub(crate) fn matrix(spec: &ScenarioSpec) -> Vec<Cell> {
    let seeds: &[u64] = if spec.kind.sweeps_seeds() {
        &spec.run.seeds
    } else {
        // Long-lived and fluid runs are seed-free (fully
        // deterministic); pin the artifact's seed column to 1.
        &[1]
    };
    let mut cells = Vec::with_capacity(spec.num_points());
    for (label, scheme) in &spec.markings {
        for &flows in &spec.run.flows {
            for &seed in seeds {
                cells.push(Cell {
                    label: label.clone(),
                    scheme: *scheme,
                    flows,
                    seed,
                });
            }
        }
    }
    cells
}

/// Cache and supervision traffic counters for one scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells served from the cache without simulating.
    pub hits: usize,
    /// Cells that had to be simulated (and, on success, stored).
    pub misses: usize,
    /// Cells carried in the artifact's `failures` block.
    pub quarantined: usize,
    /// Quarantined cells replayed from the failure journal instead of
    /// being re-executed (always ≤ `quarantined`).
    pub replayed: usize,
}

/// One resolved matrix slot: a measured point or a quarantined failure.
enum Slot {
    Point(Point),
    Failure(FailureCell),
}

/// Runs a scenario's matrix under full supervision: an optional
/// content-addressed result cache serves completed cells, a failure
/// journal replays deterministic quarantines, and every miss executes
/// once under panic isolation and a wall-clock deadline (see the module
/// docs). This function never fails — broken cells land in the
/// artifact's `failures` block and the remaining matrix still produces
/// its points.
///
/// Cache and journal writes are best-effort (a failed write only costs
/// a future re-run); corrupt or mismatched entries read as misses and
/// are recomputed and repaired.
pub fn run_scenario_supervised(
    spec: &ScenarioSpec,
    threads: usize,
    cache: Option<&Cache>,
) -> (Artifact, CacheStats) {
    let threads = if threads == 0 {
        dctcp_parallel::available_threads()
    } else {
        threads
    };
    let cells = matrix(spec);
    let journal = cache.map(|c| Journal::in_cache_root(c.root()));
    let journaled = journal
        .as_ref()
        .map(Journal::load_failures)
        .unwrap_or_default();

    // Partition into hits and journal replays (both resolved
    // immediately) and misses (executed below). Hit metrics must carry
    // exactly the kind's metric names — anything else is treated as
    // corruption and recomputed. A journaled failure is replayed only
    // when it is deterministic; a deadline miss runs again.
    let fingerprint = dctcp_cache::code_fingerprint();
    let mut slots: Vec<Option<Slot>> = cells.iter().map(|_| None).collect();
    let mut stats = CacheStats::default();
    let mut misses: Vec<(usize, Cell, Option<CacheKey>)> = Vec::new();
    for (idx, cell) in cells.into_iter().enumerate() {
        let key = cache.map(|_| cell_key(spec, &cell, fingerprint));
        let hit = cache
            .zip(key)
            .and_then(|(c, k)| c.get(k))
            .filter(|metrics| metric_names_match(spec.kind, metrics));
        if let Some(metrics) = hit {
            stats.hits += 1;
            slots[idx] = Some(Slot::Point(Point {
                marking: cell.label,
                flows: cell.flows,
                seed: cell.seed,
                metrics,
            }));
            continue;
        }
        if let Some(rec) = key.and_then(|k| journaled.get(&k)) {
            if CellError::kind_is_deterministic(&rec.kind) {
                stats.quarantined += 1;
                stats.replayed += 1;
                slots[idx] = Some(Slot::Failure(FailureCell {
                    marking: cell.label,
                    flows: cell.flows,
                    seed: cell.seed,
                    kind: rec.kind.clone(),
                    msg: rec.msg.clone(),
                }));
                continue;
            }
        }
        misses.push((idx, cell, key));
    }
    stats.misses = misses.len();

    // One cell per work item: the pool's shared counter load-balances
    // at cell granularity, and a wedged cell occupies exactly one
    // worker until the watchdog cancels it. Workers persist their own
    // results the moment they exist (crash consistency — see module
    // docs), so completion order never matters.
    let deadline = Duration::from_nanos(spec.cell_deadline().as_nanos());
    let computed = if misses.is_empty() {
        // Fully warm run: don't pay for the watchdog thread when there
        // is nothing to supervise.
        Vec::new()
    } else {
        let watchdog = Watchdog::start();
        par_map(misses, threads, |_, (idx, cell, key)| {
            let outcome = run_supervised_cell(
                spec,
                &cell,
                key,
                cache,
                journal.as_ref(),
                &watchdog,
                deadline,
            );
            (idx, cell, outcome)
        })
    };
    for (idx, cell, outcome) in computed {
        match outcome {
            Ok(metrics) => {
                slots[idx] = Some(Slot::Point(Point {
                    marking: cell.label,
                    flows: cell.flows,
                    seed: cell.seed,
                    metrics,
                }));
            }
            Err(e) => {
                stats.quarantined += 1;
                slots[idx] = Some(Slot::Failure(FailureCell {
                    marking: cell.label,
                    flows: cell.flows,
                    seed: cell.seed,
                    kind: e.kind().into(),
                    msg: e.to_string(),
                }));
            }
        }
    }

    let mut points = Vec::new();
    let mut failures = Vec::new();
    for slot in slots {
        match slot.expect("every cell is a hit, a replayed failure, or a computed miss") {
            Slot::Point(p) => points.push(p),
            Slot::Failure(f) => failures.push(f),
        }
    }
    (
        Artifact {
            scenario: spec.name.clone(),
            kind: spec.kind,
            points,
            failures,
        },
        stats,
    )
}

/// Executes one miss under supervision: one isolated, deadline-watched
/// attempt. On success the metrics are stored in the cache; on failure
/// the error is journaled.
fn run_supervised_cell(
    spec: &ScenarioSpec,
    cell: &Cell,
    key: Option<CacheKey>,
    cache: Option<&Cache>,
    journal: Option<&Journal>,
    watchdog: &Watchdog,
    deadline: Duration,
) -> Result<Vec<(String, f64)>, CellError> {
    let outcome = run_attempt(spec, cell, watchdog, deadline);
    match &outcome {
        Ok(metrics) => {
            if let (Some(cache), Some(key)) = (cache, key) {
                let _ = cache.put(key, metrics);
            }
        }
        Err(error) => {
            if let (Some(journal), Some(key)) = (journal, key) {
                let _ = journal.append_failure(&FailureRecord {
                    key,
                    kind: error.kind().into(),
                    msg: error.to_string(),
                });
            }
        }
    }
    outcome
}

/// One isolated, deadline-supervised execution of a cell, with any
/// configured `[limits]` fault injection applied first.
fn run_attempt(
    spec: &ScenarioSpec,
    cell: &Cell,
    watchdog: &Watchdog,
    deadline: Duration,
) -> Result<Vec<(String, f64)>, CellError> {
    let inject = spec
        .limits
        .injection_for(&cell.label, cell.flows, cell.seed);
    let token = CancelToken::new();
    let _guard = watchdog.register(deadline, token.clone());
    let sim_token = token.clone();
    let outcome = run_isolated(move || -> Result<Vec<(String, f64)>, SimError> {
        match inject {
            Some(InjectFault::Panic) => panic!("injected panic via [limits] inject_panic"),
            Some(InjectFault::Stall) => {
                // A wedged cell: burn wall-clock, never events, until
                // the watchdog fires — exactly what a livelocked
                // simulation looks like from the supervisor's seat.
                while !sim_token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Err(SimError::Cancelled { at: SimTime::ZERO });
            }
            None => {}
        }
        run_cell_raw(spec, cell, Some(sim_token))
    });
    match outcome {
        Err(panic) => Err(CellError::Panicked { msg: panic.message }),
        Ok(Err(SimError::Cancelled { .. })) => Err(CellError::DeadlineExceeded {
            deadline: spec.cell_deadline(),
        }),
        Ok(Err(e)) => Err(CellError::Failed { msg: e.to_string() }),
        Ok(Ok(metrics)) => Ok(metrics),
    }
}

/// The content address of one cell: a digest over the artifact schema,
/// the workspace code fingerprint, and every resolved input the
/// simulation depends on. The marking *label* is deliberately excluded —
/// it is presentation (the artifact's `marking` column comes from the
/// scenario file at render time), so renaming a label reuses cached
/// results while touching any semantic knob moves the key.
pub(crate) fn cell_key(spec: &ScenarioSpec, cell: &Cell, fingerprint: &str) -> CacheKey {
    let mut kb = KeyBuilder::new();
    kb.field("schema", ARTIFACT_SCHEMA)
        .field("code", fingerprint)
        .field("kind", spec.kind.name())
        // Debug renderings are exhaustive over fields, so a config struct
        // gaining a knob automatically widens the key material.
        .field("topology", &format!("{:?}", spec.topology))
        .field("tcp", &format!("{:?}", spec.tcp))
        .field("marking", &format!("{:?}", cell.scheme))
        .field("flows", &cell.flows.to_string())
        .field("seed", &cell.seed.to_string())
        // A fault injection changes what the cell *does*, so it is key
        // material even though the deadline (which only changes how
        // failures are handled) is not.
        .field(
            "inject",
            spec.limits
                .injection_for(&cell.label, cell.flows, cell.seed)
                .map_or("none", InjectFault::name),
        );
    kinds::key(spec, &mut kb);
    kb.finish()
}

/// Whether cached metrics carry exactly the kind's metric names, in
/// artifact order.
fn metric_names_match(kind: ScenarioKind, metrics: &[(String, f64)]) -> bool {
    let expected = kind.metrics();
    metrics.len() == expected.len() && metrics.iter().zip(expected).all(|((name, _), e)| name == e)
}

/// Simulates one cell (no supervision) and names its values: metric
/// rows in artifact order. A non-finite value is stored as 0, exactly
/// what the artifact would render.
pub(crate) fn run_cell_raw(
    spec: &ScenarioSpec,
    cell: &Cell,
    cancel: Option<CancelToken>,
) -> Result<Vec<(String, f64)>, SimError> {
    let values = kinds::run_cell(spec, cell, cancel)?;
    Ok(spec
        .kind
        .metrics()
        .iter()
        .zip(values)
        .map(|(name, v)| (name.to_string(), if v.is_finite() { v } else { 0.0 }))
        .collect())
}

/// Runs a spec's whole matrix uncached at one and at four threads,
/// asserting that no cell was quarantined and that both artifacts are
/// identical.
#[cfg(test)]
pub(crate) fn run_clean(spec: &ScenarioSpec) -> Artifact {
    let (artifact, _) = run_scenario_supervised(spec, 1, None);
    assert!(artifact.failures.is_empty(), "{:?}", artifact.failures);
    assert_eq!(artifact, run_scenario_supervised(spec, 4, None).0);
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheapest long-lived matrix that still exercises tracing,
    /// oscillation metrics and determinism. Warmup must outlast the
    /// ~15 ms slow-start transient at 1 Gb/s or the decaying head masks
    /// the steady-state oscillation.
    const TWO_CELL: &str = "\
[scenario]
name = tiny
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

[marking \"dt\"]
scheme = dt-dctcp
k1 = 15 pkts
k2 = 25 pkts
";

    /// One cell: the `dctcp` marking alone.
    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::parse(TWO_CELL.split("\n[marking \"dt\"]").next().unwrap()).unwrap()
    }

    /// Both markings, with a `[limits]` section appended.
    fn two_cell_spec_with(limits: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!("{TWO_CELL}\n[limits]\n{limits}")).unwrap()
    }

    fn two_cell_spec() -> ScenarioSpec {
        two_cell_spec_with("")
    }

    fn tmp_cache(tag: &str) -> dctcp_cache::Cache {
        let dir = std::env::temp_dir().join(format!("dctcp-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dctcp_cache::Cache::new(dir)
    }

    #[test]
    fn long_lived_cells_saturate_oscillate_and_are_thread_invariant() {
        let a = run_clean(&tiny_spec());
        assert_eq!(a.points.len(), 1);
        assert!(a.points[0].metric("utilization").unwrap() > 0.8);
        assert!(a.points[0].metric("osc_cycles").unwrap() >= 1.0);
    }

    #[test]
    fn scenario_edits_move_the_cell_key() {
        let spec = tiny_spec();
        let cell = matrix(&spec).swap_remove(0);
        let base = cell_key(&spec, &cell, "fp");

        // Semantic edits each move the key...
        let mut longer = spec.clone();
        longer.run.duration = dctcp_sim::SimDuration::from_millis(16);
        assert_ne!(base, cell_key(&longer, &cell, "fp"));

        let mut sharper = cell.clone();
        sharper.scheme = dctcp_core::MarkingScheme::dctcp_packets(21);
        assert_ne!(base, cell_key(&spec, &sharper, "fp"));

        let mut wider = cell.clone();
        wider.flows = 3;
        assert_ne!(base, cell_key(&spec, &wider, "fp"));

        // ...but a pure label rename does not: the label is presentation,
        // applied at artifact render time.
        let mut renamed = cell.clone();
        renamed.label = "renamed".into();
        assert_eq!(base, cell_key(&spec, &renamed, "fp"));
    }

    #[test]
    fn code_fingerprint_moves_the_cell_key() {
        let spec = tiny_spec();
        let cell = matrix(&spec).swap_remove(0);
        assert_ne!(
            cell_key(&spec, &cell, "build-a"),
            cell_key(&spec, &cell, "build-b")
        );
    }

    #[test]
    fn cold_then_warm_is_hit_only_and_byte_identical() {
        let spec = two_cell_spec();
        let cache = tmp_cache("warm");

        let (cold, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses), (0, 2));

        // Warm runs re-simulate nothing and render the exact same bytes,
        // at any thread count.
        for threads in [1, 2, 4] {
            let (warm, s) = run_scenario_supervised(&spec, threads, Some(&cache));
            assert_eq!((s.hits, s.misses), (2, 0), "threads={threads}");
            assert_eq!(warm.render(), cold.render(), "threads={threads}");
        }
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entry_falls_back_to_recompute_and_repairs() {
        let spec = two_cell_spec();
        let cache = tmp_cache("corrupt");
        let (cold, _) = run_scenario_supervised(&spec, 2, Some(&cache));

        // Truncate one of the two entries.
        let mut entries: Vec<_> = std::fs::read_dir(cache.root())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 2);
        let victim = &entries[0];
        let body = std::fs::read_to_string(victim).unwrap();
        std::fs::write(victim, &body[..body.len() / 3]).unwrap();

        let (warm, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(warm.render(), cold.render());

        // The recompute rewrote the entry: a second warm run is all hits.
        let (_, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses), (2, 0));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn injected_panics_are_quarantined_not_fatal() {
        let spec = two_cell_spec_with("inject_panic = dt:2:1\n");
        let (a, s) = run_scenario_supervised(&spec, 2, None);
        assert_eq!(a.points.len(), 1);
        assert_eq!(a.failures.len(), 1);
        let f = &a.failures[0];
        assert_eq!((f.marking.as_str(), f.flows, f.seed), ("dt", 2, 1));
        assert_eq!(f.kind, "panicked");
        assert!(f.msg.contains("injected panic"), "{}", f.msg);
        assert_eq!((s.quarantined, s.replayed), (1, 0));
    }

    /// A stalled `dctcp` cell next to a healthy `dt` one. The stalled
    /// cell sleeps until cancelled, so the deadline costs no CPU; it is
    /// 2 s (not tens of ms) so the healthy cell — a few ms of work —
    /// cannot miss it too when the whole test suite shares two cores.
    fn stalled_cell_spec() -> ScenarioSpec {
        two_cell_spec_with("deadline = 2 s\ninject_stall = dctcp:2:1\n")
    }

    #[test]
    fn deadline_trips_quarantine_with_config_only_message() {
        let spec = stalled_cell_spec();
        let (a, s) = run_scenario_supervised(&spec, 2, None);
        assert_eq!(a.points.len(), 1);
        assert_eq!(a.failures.len(), 1);
        let f = &a.failures[0];
        assert_eq!(f.kind, "deadline");
        // The message is derived from the configured deadline, never
        // from measured wall time, so it is byte-stable across runs.
        let expected = CellError::DeadlineExceeded {
            deadline: spec.cell_deadline(),
        };
        assert_eq!(f.msg, expected.to_string());
        assert_eq!(s.quarantined, 1);
    }

    #[test]
    fn journal_replays_deterministic_failures_on_resume() {
        let spec = two_cell_spec_with("inject_panic = dt:2:1\n");
        let cache = tmp_cache("journal");

        let (cold, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.quarantined, s.replayed), (0, 2, 1, 0));

        // The resume serves the good cell from the cache and the broken
        // cell from the journal — nothing re-executes, bytes match.
        let (warm, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.quarantined, s.replayed), (1, 0, 1, 1));
        assert_eq!(warm.render(), cold.render());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn deadline_failures_are_never_replayed() {
        // A deadline miss depends on machine speed, so resumes re-run
        // the cell instead of trusting the journal.
        let spec = stalled_cell_spec();
        let cache = tmp_cache("deadline");

        let (cold, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.misses, s.quarantined, s.replayed), (2, 1, 0));

        let (warm, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.replayed), (1, 1, 0));
        assert_eq!(warm.render(), cold.render());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn injections_are_cell_key_material() {
        let clean = two_cell_spec();
        let spec = two_cell_spec_with("inject_panic = dctcp:2:1\n");
        let injected = matrix(&spec).swap_remove(0);
        let untouched = Cell {
            label: "dt".into(),
            scheme: spec.markings[1].1,
            ..injected.clone()
        };
        // The injected cell's key moves; the untouched cell still shares
        // the clean spec's key (cache reuse is per cell, not per file).
        assert_ne!(
            cell_key(&clean, &injected, "fp"),
            cell_key(&spec, &injected, "fp")
        );
        assert_eq!(
            cell_key(&clean, &untouched, "fp"),
            cell_key(&spec, &untouched, "fp")
        );
    }
}
