//! Executes a scenario's matrix under supervision and assembles the
//! artifact.
//!
//! The executor is *incremental*: each (marking, flows, seed) cell is a
//! fully deterministic simulation, so its outcome is memoized in an
//! optional [`dctcp_cache::Cache`] under a content address derived from
//! the resolved cell configuration and the workspace code fingerprint
//! (see [`cell_key`] internals). A run first partitions the matrix into
//! cache hits, replayed failures and misses, then fans only the misses
//! out through [`dctcp_parallel::par_map`] one cell per work item.
//! Results are reassembled by cell index, so artifacts are
//! bit-identical for any thread count *and* any hit/miss split — a warm
//! run re-renders the exact bytes of the cold run that populated the
//! cache.
//!
//! The executor is also *supervised* — one broken cell cannot take the
//! matrix down or wedge it:
//!
//! * each miss runs exactly once, under [`dctcp_parallel::run_isolated`],
//!   so a panic becomes a typed [`CellError::Panicked`] value;
//! * a cell that would run forever exhausts the simulator's event
//!   budget, which every `run_until` call derives from the network's
//!   link rates and the span it covers, and becomes a
//!   [`CellError::Failed`] like any other simulation error;
//! * a failed cell is quarantined into the artifact's `failures` block.
//!   Its failure is as much a pure function of the key material as a
//!   result, so it is stored in the cell's cache entry and replayed,
//!   never re-run, by the next invocation.
//!
//! Crash consistency: each cell's outcome is written to the cache *by
//! the worker that produced it*, the moment it exists. A run killed
//! mid-matrix — even with `kill -9` — resumes with every completed cell
//! served from the cache.

use dctcp_cache::{Cache, CacheKey, Entry, KeyBuilder};
use dctcp_parallel::{par_map, run_isolated};
use dctcp_sim::SimError;

use crate::artifact::{Artifact, FailureCell, Point, ARTIFACT_SCHEMA};
use crate::kinds;
use crate::spec::{InjectFault, ScenarioSpec};
use crate::supervise::{run_runaway, CellError};
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
    /// Quarantined cells whose failure was replayed from the cache
    /// instead of being re-executed (always ≤ `quarantined`).
    pub replayed: usize,
}

/// One resolved matrix cell: its metrics, or its failure kind and
/// message.
type Outcome = Result<Vec<(String, f64)>, (String, String)>;

/// Runs a scenario's matrix under full supervision: an optional
/// content-addressed result cache serves completed cells and replays
/// failed ones, and every miss executes once under panic isolation (see
/// the module docs). This function never fails — broken cells land in
/// the artifact's `failures` block and the remaining matrix still
/// produces its points.
///
/// Cache writes are best-effort (a failed write only costs a future
/// re-run); corrupt or mismatched entries read as misses and are
/// recomputed and repaired.
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

    // Partition into hits and replayed failures (both resolved
    // immediately) and misses (executed below). Hit metrics must carry
    // exactly the kind's metric names — anything else is treated as
    // corruption and recomputed.
    let fingerprint = dctcp_cache::code_fingerprint();
    let mut outcomes: Vec<Option<Outcome>> = cells.iter().map(|_| None).collect();
    let mut stats = CacheStats::default();
    let mut misses: Vec<(usize, Option<CacheKey>)> = Vec::new();
    for (idx, cell) in cells.iter().enumerate() {
        let key = cache.map(|_| cell_key(spec, cell, fingerprint));
        match cache.zip(key).and_then(|(c, k)| c.get(k)) {
            Some(Entry::Metrics(metrics)) if metric_names_match(spec.kind, &metrics) => {
                stats.hits += 1;
                outcomes[idx] = Some(Ok(metrics));
            }
            Some(Entry::Failed { kind, msg }) => {
                stats.replayed += 1;
                outcomes[idx] = Some(Err((kind, msg)));
            }
            _ => misses.push((idx, key)),
        }
    }
    stats.misses = misses.len();

    // One cell per work item: the pool's shared counter load-balances
    // at cell granularity. Workers persist their own outcomes the
    // moment they exist (crash consistency — see module docs), so
    // completion order never matters.
    let computed = par_map(misses, threads, |_, (idx, key)| {
        let outcome =
            run_attempt(spec, &cells[idx]).map_err(|e| (e.kind().to_string(), e.to_string()));
        if let (Some(cache), Some(key)) = (cache, key) {
            let _ = match &outcome {
                Ok(metrics) => cache.put(key, metrics),
                Err((kind, msg)) => cache.put_failure(key, kind, msg),
            };
        }
        (idx, outcome)
    });
    for (idx, outcome) in computed {
        outcomes[idx] = Some(outcome);
    }

    let mut points = Vec::new();
    let mut failures = Vec::new();
    for (cell, outcome) in cells.into_iter().zip(outcomes) {
        match outcome.expect("every cell is a hit, a replayed failure, or a computed miss") {
            Ok(metrics) => points.push(Point {
                marking: cell.label,
                flows: cell.flows,
                seed: cell.seed,
                metrics,
            }),
            Err((kind, msg)) => failures.push(FailureCell {
                marking: cell.label,
                flows: cell.flows,
                seed: cell.seed,
                kind,
                msg,
            }),
        }
    }
    stats.quarantined = failures.len();
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

/// One isolated execution of a cell, with any configured `[limits]`
/// fault injection applied first.
fn run_attempt(spec: &ScenarioSpec, cell: &Cell) -> Result<Vec<(String, f64)>, CellError> {
    let inject = spec
        .limits
        .injection_for(&cell.label, cell.flows, cell.seed);
    let outcome = run_isolated(|| match inject {
        Some(InjectFault::Panic) => panic!("injected panic via [limits] inject_panic"),
        Some(InjectFault::Stall) => {
            Err(run_runaway().expect_err("a runaway exhausts its event budget"))
        }
        None => run_cell_raw(spec, cell),
    });
    match outcome {
        Err(panic) => Err(CellError::Panicked { msg: panic.message }),
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
        // material.
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
) -> Result<Vec<(String, f64)>, SimError> {
    let values = kinds::run_cell(spec, cell)?;
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

    /// A runaway `dctcp` cell next to a healthy `dt` one.
    fn runaway_cell_spec() -> ScenarioSpec {
        two_cell_spec_with("inject_stall = dctcp:2:1\n")
    }

    #[test]
    fn runaway_cells_fail_on_the_event_budget() {
        let (a, s) = run_scenario_supervised(&runaway_cell_spec(), 2, None);
        assert_eq!(a.points.len(), 1);
        assert_eq!(a.failures.len(), 1);
        let f = &a.failures[0];
        assert_eq!(f.kind, "failed");
        // The simulator's own message: a function of the budget rule
        // alone, so it is byte-stable across runs and machines.
        assert_eq!(f.msg, run_runaway().unwrap_err().to_string());
        assert!(f.msg.starts_with("event budget of "), "{}", f.msg);
        assert_eq!(s.quarantined, 1);
    }

    #[test]
    fn cached_failures_replay_on_resume() {
        let spec = two_cell_spec_with("inject_panic = dt:2:1\n");
        let cache = tmp_cache("replay");

        let (cold, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.quarantined, s.replayed), (0, 2, 1, 0));

        // The resume serves the good cell's metrics and the broken
        // cell's failure from the cache — nothing re-executes, bytes
        // match.
        let (warm, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.quarantined, s.replayed), (1, 0, 1, 1));
        assert_eq!(warm.render(), cold.render());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn runaway_failures_replay_from_the_cache() {
        let spec = runaway_cell_spec();
        let cache = tmp_cache("runaway");

        let (cold, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.misses, s.quarantined, s.replayed), (2, 1, 0));

        let (warm, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.replayed), (1, 0, 1));
        assert_eq!(warm.render(), cold.render());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn damaged_failure_entries_rerun_their_cell() {
        let spec = two_cell_spec_with("inject_panic = dt:2:1\n");
        let cache = tmp_cache("damaged");
        let (cold, _) = run_scenario_supervised(&spec, 2, Some(&cache));
        let dt = matrix(&spec).swap_remove(1);
        let path = cache.root().join(format!(
            "{}.cell",
            cell_key(&spec, &dt, dctcp_cache::code_fingerprint()).hex()
        ));
        let entry = std::fs::read_to_string(&path).unwrap();
        assert!(entry.contains("\nfailed panicked "), "{entry}");

        let mut flipped = entry.clone().into_bytes();
        let at = flipped.iter().position(|&b| b == b'j').unwrap();
        flipped[at] ^= 0x01;
        // An older binary's entry keeps an honest checksum.
        let older = entry.replace(dctcp_cache::ENTRY_SCHEMA, "dctcp-cache/v1");
        let sum_at = older.rfind("sum ").unwrap();
        let mut h = dctcp_cache::Fnv128::new();
        h.update(&older.as_bytes()[..sum_at]);
        let older = format!("{}sum {:032x}\n", &older[..sum_at], h.finish());
        // Torn by a kill mid-write, bit-flipped, or written by an older
        // binary: each reads as a miss, the cell runs again and its
        // rewritten entry replays on the next run.
        for damaged in [
            entry.as_bytes()[..entry.len() / 2].to_vec(),
            flipped,
            older.into_bytes(),
        ] {
            std::fs::write(&path, damaged).unwrap();
            let (again, s) = run_scenario_supervised(&spec, 2, Some(&cache));
            assert_eq!((s.hits, s.misses, s.replayed), (1, 1, 0));
            assert_eq!(again.render(), cold.render());
            assert_eq!(std::fs::read_to_string(&path).unwrap(), entry);
            let (_, s) = run_scenario_supervised(&spec, 2, Some(&cache));
            assert_eq!((s.hits, s.misses, s.replayed), (1, 0, 1));
        }
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
