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
//! * every attempt runs under [`dctcp_parallel::run_isolated`], so a
//!   panic becomes a typed [`CellError::Panicked`] value;
//! * a watchdog thread fires each running cell's [`CancelToken`] at its
//!   wall-clock deadline, which the simulator's cooperative
//!   cancellation poll turns into [`CellError::DeadlineExceeded`];
//! * failed attempts are retried up to the `[limits] retries` budget; a
//!   success after a failure is verified bit-identical against a clean
//!   re-run (anything else is [`CellError::NonDeterministic`]);
//! * cells that exhaust the budget are quarantined into the artifact's
//!   `failures` block and recorded in the cache directory's journal, so
//!   a resumed run replays deterministic failures instead of repeating
//!   them.
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
use dctcp_sim::{CancelToken, FaultPlan, SimError, SimTime};
use dctcp_stats::oscillation;
use dctcp_workloads::{
    run_collective, run_query_rounds_supervised, CollectiveConfig, FctScenario, LongLivedScenario,
    QueryWorkload, TestbedConfig,
};

use crate::artifact::{Artifact, FailureCell, Point, ARTIFACT_SCHEMA};
use crate::spec::{
    DumbbellSpec, FatTreeSpec, InjectFault, ScenarioKind, ScenarioSpec, TestbedSpec,
};
use crate::supervise::{CellError, Watchdog};
use crate::ScenarioError;

/// One (marking, flows, seed) cell awaiting execution.
#[derive(Debug, Clone)]
struct Cell {
    label: String,
    scheme: dctcp_core::MarkingScheme,
    flows: u32,
    seed: u64,
}

/// Cache and supervision traffic counters for one scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells served from the cache without simulating.
    pub hits: usize,
    /// Cells that had to be simulated (and, on success, stored).
    pub misses: usize,
    /// Simulated cells that succeeded only after at least one retry.
    pub retried: usize,
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

/// Runs every matrix point of a scenario across `threads` workers and
/// returns the artifact. `threads = 0` means
/// [`dctcp_parallel::available_threads`]. Equivalent to
/// [`run_scenario_cached`] with no cache.
///
/// # Errors
///
/// Returns [`ScenarioError::Run`] wrapping the first (lowest-indexed)
/// failing cell's error.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> Result<Artifact, ScenarioError> {
    run_scenario_cached(spec, threads, None).map(|(artifact, _)| artifact)
}

/// [`run_scenario_supervised`] for callers that want an all-or-nothing
/// result: any quarantined cell is promoted to an error naming the
/// first (lowest-indexed) failing cell.
///
/// # Errors
///
/// Returns [`ScenarioError::Run`] wrapping the first (lowest-indexed)
/// failing cell's error.
pub fn run_scenario_cached(
    spec: &ScenarioSpec,
    threads: usize,
    cache: Option<&Cache>,
) -> Result<(Artifact, CacheStats), ScenarioError> {
    let (artifact, stats) = run_scenario_supervised(spec, threads, cache);
    if let Some(f) = artifact.failures.first() {
        return Err(ScenarioError::Run {
            scenario: spec.name.clone(),
            msg: format!("({}, N={}, seed {}): {}", f.marking, f.flows, f.seed, f.msg),
        });
    }
    Ok((artifact, stats))
}

/// Runs a scenario's matrix under full supervision: an optional
/// content-addressed result cache serves completed cells, a failure
/// journal replays deterministic quarantines, and every miss executes
/// under panic isolation, a wall-clock deadline and a bounded retry
/// budget (see the module docs). This function never fails — broken
/// cells land in the artifact's `failures` block and the remaining
/// matrix still produces its points.
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
    let seeds: &[u64] = if spec.kind.sweeps_seeds() {
        &spec.run.seeds
    } else {
        // Long-lived runs are seed-free (fully deterministic); pin the
        // artifact's seed column to 1.
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

    // The retry budget counts *attempts*: `retries = 1` means one run
    // plus at most one retry.
    let budget = spec.limits.retries + 1;
    let journal = cache.map(|c| Journal::in_cache_root(c.root()));
    let journaled = journal
        .as_ref()
        .map(Journal::load_failures)
        .unwrap_or_default();

    // Partition into hits and journal replays (both resolved
    // immediately) and misses (executed below). Hit metrics must carry
    // exactly the kind's metric names — anything else is treated as
    // corruption and recomputed. A journaled failure is replayed only
    // when it is deterministic *and* was recorded under at least the
    // current attempt budget, so raising `retries` re-runs the cell.
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
            if CellError::kind_is_deterministic(&rec.kind) && rec.attempts >= budget {
                stats.quarantined += 1;
                stats.replayed += 1;
                slots[idx] = Some(Slot::Failure(FailureCell {
                    marking: cell.label,
                    flows: cell.flows,
                    seed: cell.seed,
                    attempts: rec.attempts,
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
                budget,
            );
            (idx, cell, outcome)
        })
    };
    for (idx, cell, outcome) in computed {
        match outcome {
            Ok((metrics, attempts)) => {
                if attempts > 1 {
                    stats.retried += 1;
                }
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
                    attempts: budget,
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

/// Executes one miss under supervision: up to `budget` attempts, each
/// isolated and deadline-watched, with a bit-identical clean-run
/// verification after any retried success. On success the metrics are
/// stored in the cache; on quarantine the failure is journaled. Returns
/// the metrics with the number of attempts consumed.
#[allow(clippy::too_many_arguments)]
fn run_supervised_cell(
    spec: &ScenarioSpec,
    cell: &Cell,
    key: Option<CacheKey>,
    cache: Option<&Cache>,
    journal: Option<&Journal>,
    watchdog: &Watchdog,
    deadline: Duration,
    budget: u32,
) -> Result<(Vec<(String, f64)>, u32), CellError> {
    let inject = spec
        .limits
        .injection_for(&cell.label, cell.flows, cell.seed);
    let mut last = CellError::Failed {
        msg: "cell was never attempted".into(),
    };
    let mut verdict = None;
    for attempt in 0..budget {
        if attempt > 0 && spec.limits.backoff > dctcp_sim::SimDuration::ZERO {
            std::thread::sleep(Duration::from_nanos(spec.limits.backoff.as_nanos()) * attempt);
        }
        match run_attempt(spec, cell, inject, attempt, watchdog, deadline) {
            Ok(metrics) => {
                if attempt > 0 {
                    // A success that needed a retry is only trusted if a
                    // clean re-run (no injection) reproduces it bit for
                    // bit — otherwise the cell's result depends on
                    // something other than its inputs.
                    match run_attempt(spec, cell, None, 0, watchdog, deadline) {
                        Ok(clean) if clean == metrics => {}
                        Ok(_) => {
                            verdict = Some(CellError::NonDeterministic {
                                msg: "retried success differs from a clean verification re-run"
                                    .into(),
                            });
                            break;
                        }
                        Err(e) => {
                            verdict = Some(CellError::NonDeterministic {
                                msg: format!("clean verification re-run failed: {e}"),
                            });
                            break;
                        }
                    }
                }
                if let (Some(cache), Some(key)) = (cache, key) {
                    let _ = cache.put(key, &metrics);
                }
                return Ok((metrics, attempt + 1));
            }
            Err(e) => last = e,
        }
    }
    let error = verdict.unwrap_or(last);
    if let (Some(journal), Some(key)) = (journal, key) {
        let _ = journal.append_failure(&FailureRecord {
            key,
            attempts: budget,
            kind: error.kind().into(),
            msg: error.to_string(),
        });
    }
    Err(error)
}

/// One isolated, deadline-supervised execution of a cell, with any
/// configured `[limits]` fault injection applied first.
fn run_attempt(
    spec: &ScenarioSpec,
    cell: &Cell,
    inject: Option<InjectFault>,
    attempt: u32,
    watchdog: &Watchdog,
    deadline: Duration,
) -> Result<Vec<(String, f64)>, CellError> {
    let token = CancelToken::new();
    let _guard = watchdog.register(deadline, token.clone());
    let sim_token = token.clone();
    let outcome = run_isolated(move || -> Result<Vec<(String, f64)>, SimError> {
        match inject {
            Some(InjectFault::Panic) => panic!("injected panic via [limits] inject_panic"),
            Some(InjectFault::Flaky) if attempt == 0 => {
                panic!("injected first-attempt failure via [limits] inject_flaky")
            }
            Some(InjectFault::Stall) => {
                // A wedged cell: burn wall-clock, never events, until
                // the watchdog fires — exactly what a livelocked
                // simulation looks like from the supervisor's seat.
                while !sim_token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Err(SimError::Cancelled { at: SimTime::ZERO });
            }
            _ => {}
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
fn cell_key(spec: &ScenarioSpec, cell: &Cell, fingerprint: &str) -> CacheKey {
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
        // material even though the retry/deadline budgets (which only
        // change how failures are handled) are not.
        .field(
            "inject",
            spec.limits
                .injection_for(&cell.label, cell.flows, cell.seed)
                .map_or("none", InjectFault::name),
        );
    match spec.kind {
        ScenarioKind::LongLived => {
            kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
                .field("duration_ns", &spec.run.duration.as_nanos().to_string())
                .field("trace_ns", &spec.run.trace_interval.as_nanos().to_string())
                .field("stagger_ns", &spec.run.stagger.as_nanos().to_string())
                .field("faults", &format!("{:?}", spec.faults));
        }
        ScenarioKind::Incast | ScenarioKind::PartitionAggregate => {
            kb.field("rounds", &spec.run.rounds.to_string())
                .field("bytes", &spec.run.bytes.to_string());
        }
        // The fat-tree topology (k, tiers, ecmp_seed) is already key
        // material via the `topology` Debug field above; the workload
        // shape (pattern, chunk, phase gap, horizon) joins it here.
        ScenarioKind::Collective => {
            kb.field("bytes", &spec.run.bytes.to_string())
                .field("workload", &format!("{:?}", spec.workload));
        }
        ScenarioKind::Fluid => {
            kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
                .field("duration_ns", &spec.run.duration.as_nanos().to_string())
                .field("dt_ns", &spec.run.dt.as_nanos().to_string())
                .field("trace_ns", &spec.run.trace_interval.as_nanos().to_string());
        }
        // The churn workload (load, size CDF, racks, slab, class
        // bounds, deadlines, drain) joins the windows as key material
        // via its exhaustive Debug rendering.
        ScenarioKind::Fct => {
            kb.field("warmup_ns", &spec.run.warmup.as_nanos().to_string())
                .field("duration_ns", &spec.run.duration.as_nanos().to_string())
                .field("workload", &format!("{:?}", spec.fct));
        }
    }
    kb.finish()
}

/// Whether cached metrics carry exactly the kind's metric names, in
/// artifact order.
fn metric_names_match(kind: ScenarioKind, metrics: &[(String, f64)]) -> bool {
    let expected = kind.metrics();
    metrics.len() == expected.len() && metrics.iter().zip(expected).all(|((name, _), e)| name == e)
}

/// Simulates one cell (no supervision) and returns its metric rows in
/// artifact order.
fn run_cell_raw(
    spec: &ScenarioSpec,
    cell: &Cell,
    cancel: Option<CancelToken>,
) -> Result<Vec<(String, f64)>, SimError> {
    match (spec.kind, &spec.topology) {
        (ScenarioKind::LongLived, crate::spec::TopologySpec::Dumbbell(d)) => {
            run_long_lived_cell(spec, d, cell, cancel)
        }
        (ScenarioKind::Collective, crate::spec::TopologySpec::FatTree(f)) => {
            run_collective_cell(spec, f, cell, cancel)
        }
        (ScenarioKind::Fluid, crate::spec::TopologySpec::Dumbbell(d)) => {
            run_fluid_cell(spec, d, cell)
        }
        (ScenarioKind::Fct, crate::spec::TopologySpec::Dumbbell(d)) => {
            run_fct_cell(spec, d, cell, cancel)
        }
        (ScenarioKind::Incast | ScenarioKind::PartitionAggregate, t) => match t {
            crate::spec::TopologySpec::Testbed(t) => run_query_cell(spec, t, cell, cancel),
            _ => Err(SimError::InvalidConfig("kind/topology mismatch".into())),
        },
        _ => Err(SimError::InvalidConfig("kind/topology mismatch".into())),
    }
}

fn run_collective_cell(
    spec: &ScenarioSpec,
    f: &FatTreeSpec,
    cell: &Cell,
    cancel: Option<CancelToken>,
) -> Result<Vec<(String, f64)>, dctcp_sim::SimError> {
    let w = spec.workload.ok_or_else(|| {
        SimError::InvalidConfig("collective scenario lacks a [workload collective] section".into())
    })?;
    let cfg = CollectiveConfig {
        k: f.k,
        hosts_per_edge: f.hosts_per_edge,
        pattern: w.pattern,
        participants: cell.flows,
        bytes_per_flow: spec.run.bytes,
        chunk: w.chunk,
        phase_gap: w.phase_gap,
        horizon: w.horizon,
        seed: cell.seed,
        marking: cell.scheme,
        tcp: spec.tcp,
        host_gbps: f.host_bps as f64 / 1e9,
        agg_gbps: f.agg_bps as f64 / 1e9,
        core_gbps: f.core_bps as f64 / 1e9,
        delay_us: f.delay.as_nanos() / 1000,
        buffer: f.buffer,
        ecmp_seed: f.ecmp_seed,
    };
    let report = run_collective(&cfg, cancel)?;
    // An unfinished collective would poison every downstream envelope
    // with sentinel values; surface it as a cell failure instead (the
    // horizon is configuration, so the message is byte-stable).
    let completion = report.completion.ok_or_else(|| {
        SimError::InvalidConfig(format!(
            "collective did not complete within the {:?} horizon",
            w.horizon
        ))
    })?;
    Ok(vec![
        ("completion_ms".into(), completion * 1e3),
        ("goodput_mbps".into(), report.goodput_bps / 1e6),
        ("queue_mean".into(), report.core_queue.mean),
        ("queue_std".into(), report.core_queue.std),
        ("queue_max".into(), report.core_queue.max),
        ("marks".into(), report.marks as f64),
        ("drops".into(), report.drops as f64),
        ("timeouts".into(), report.timeouts as f64),
    ])
}

fn run_long_lived_cell(
    spec: &ScenarioSpec,
    d: &DumbbellSpec,
    cell: &Cell,
    cancel: Option<CancelToken>,
) -> Result<Vec<(String, f64)>, dctcp_sim::SimError> {
    let scenario = LongLivedScenario::builder()
        .flows(cell.flows)
        .bottleneck_gbps(d.bottleneck_bps as f64 / 1e9)
        .rtt_us(d.rtt.as_secs_f64() * 1e6)
        .marking(cell.scheme)
        .tcp(spec.tcp)
        .buffer(d.buffer)
        .warmup_secs(spec.run.warmup.as_secs_f64())
        .duration_secs(spec.run.duration.as_secs_f64())
        .trace_interval(spec.run.trace_interval)
        .start_stagger(spec.run.stagger)
        .build()?;
    let faults = spec.faults;
    let report = scenario.run_supervised(cancel, |i| {
        let mut plan = FaultPlan::new();
        if let Some((from, until)) = faults.bleach {
            plan = plan.bleach_window(i.bottleneck, SimTime::ZERO + from, SimTime::ZERO + until);
        }
        if let Some((from, until)) = faults.down {
            plan = plan
                .at(
                    SimTime::ZERO + from,
                    i.bottleneck,
                    dctcp_sim::FaultAction::LinkDown,
                )
                .at(
                    SimTime::ZERO + until,
                    i.bottleneck,
                    dctcp_sim::FaultAction::LinkUp,
                );
        }
        plan
    })?;

    let osc = match &report.trace {
        Some(trace) => oscillation(trace),
        None => dctcp_stats::OscillationSummary::none(),
    };
    let duration_s = spec.run.duration.as_secs_f64();
    Ok(vec![
        ("queue_mean".into(), report.queue.mean),
        ("queue_std".into(), report.queue.std),
        ("queue_max".into(), report.queue.max),
        ("osc_amplitude".into(), osc.mean_amplitude),
        ("osc_max_amplitude".into(), osc.max_amplitude),
        ("osc_cycles".into(), osc.cycles as f64),
        ("mark_rate".into(), report.marks as f64 / duration_s),
        ("marks".into(), report.marks as f64),
        ("drops".into(), report.drops as f64),
        ("timeouts".into(), report.timeouts as f64),
        ("alpha_mean".into(), finite(report.alpha.mean())),
        ("utilization".into(), report.utilization(d.bottleneck_bps)),
        ("goodput_gbps".into(), report.goodput_bps / 1e9),
    ])
}

/// Integrates one fluid-model cell: the DDE at the cell's operating
/// point, reduced to the kind's metric rows. Milliseconds of wall clock
/// per cell, so cooperative cancellation is not threaded through — the
/// cell finishes long before any watchdog deadline.
fn run_fluid_cell(
    spec: &ScenarioSpec,
    d: &DumbbellSpec,
    cell: &Cell,
) -> Result<Vec<(String, f64)>, dctcp_sim::SimError> {
    use dctcp_core::QueueLevel;
    use dctcp_fluid::{FluidMarking, FluidParams, FluidRunConfig};

    // The parser already restricts fluid markings to packet-denominated
    // dctcp / dt-dctcp; this re-check keeps programmatic callers honest.
    let marking = match cell.scheme {
        dctcp_core::MarkingScheme::Dctcp {
            k: QueueLevel::Packets(k),
        } => FluidMarking::Relay { k: f64::from(k) },
        dctcp_core::MarkingScheme::DtDctcp {
            k1: QueueLevel::Packets(k1),
            k2: QueueLevel::Packets(k2),
        } => FluidMarking::Hysteresis {
            k1: f64::from(k1),
            k2: f64::from(k2),
        },
        _ => {
            return Err(SimError::InvalidConfig(
                "fluid cells support only packet-denominated dctcp / dt-dctcp markings".into(),
            ))
        }
    };
    let g = match spec.tcp.cc {
        dctcp_tcp::CongestionControl::Dctcp { g }
        | dctcp_tcp::CongestionControl::D2tcp { g, .. } => g,
        _ => {
            return Err(SimError::InvalidConfig(
                "fluid cells model DCTCP dynamics and need a dctcp [tcp] config".into(),
            ))
        }
    };
    let params = FluidParams {
        // Packet-denominated capacity at the paper's 1500 B MTU, the
        // same conversion `PlantParams::from_link` uses.
        capacity_pps: d.bottleneck_bps as f64 / (8.0 * 1500.0),
        flows: f64::from(cell.flows),
        rtt: d.rtt.as_secs_f64(),
        g,
        marking,
        w_init: 1.0,
        alpha_init: 0.0,
        q_init: 0.0,
    };
    let dt = spec.run.dt.as_secs_f64();
    let cfg = FluidRunConfig {
        dt,
        duration: (spec.run.warmup + spec.run.duration).as_secs_f64(),
        transient: spec.run.warmup.as_secs_f64(),
        sample_every: (spec.run.trace_interval.as_secs_f64() / dt)
            .round()
            .max(1.0) as usize,
    };
    let point = dctcp_fluid::sweep::evaluate(&params, &cfg)
        .map_err(|e| SimError::InvalidConfig(format!("fluid cell: {e}")))?;
    Ok(vec![
        ("queue_mean".into(), finite(point.queue_mean)),
        ("queue_std".into(), finite(point.queue_std)),
        ("queue_max".into(), finite(point.queue_max)),
        ("osc_amplitude".into(), finite(point.osc_amplitude)),
        ("osc_freq_hz".into(), finite(point.osc_freq_hz)),
        ("osc_cycles".into(), finite(point.osc_cycles)),
        ("w_mean".into(), finite(point.w_mean)),
        ("alpha_mean".into(), finite(point.alpha_mean)),
        ("marking_duty".into(), finite(point.marking_duty)),
        ("utilization".into(), finite(point.utilization)),
    ])
}

/// Runs one open-loop churn cell: `cell.flows` churn sources split
/// evenly over the workload's racks, each rack bottlenecked into its
/// sink by the marking under test, reduced to per-size-class FCT tails
/// plus the open-loop conservation counters.
fn run_fct_cell(
    spec: &ScenarioSpec,
    d: &DumbbellSpec,
    cell: &Cell,
    cancel: Option<CancelToken>,
) -> Result<Vec<(String, f64)>, dctcp_sim::SimError> {
    let w = spec.fct.as_ref().ok_or_else(|| {
        SimError::InvalidConfig("fct scenario lacks a [workload fct] section".into())
    })?;
    // The parser enforces both; re-checked for programmatic callers.
    if w.racks == 0 || cell.flows % w.racks != 0 || cell.flows < w.racks {
        return Err(SimError::InvalidConfig(format!(
            "fct source count {} is not a positive multiple of racks = {}",
            cell.flows, w.racks
        )));
    }
    let sizes = dctcp_workloads::sizes::by_name(&w.size_dist).ok_or_else(|| {
        SimError::InvalidConfig(format!("unknown size distribution `{}`", w.size_dist))
    })?;
    let mut builder = FctScenario::builder()
        .racks(w.racks)
        .sources_per_rack(cell.flows / w.racks)
        .bottleneck_gbps(d.bottleneck_bps as f64 / 1e9)
        .rtt_us(d.rtt.as_secs_f64() * 1e6)
        .load(w.load)
        .marking(cell.scheme)
        .tcp(spec.tcp)
        .buffer(d.buffer)
        .sizes(sizes)
        .class_bounds([w.short_bytes, w.long_bytes])
        .slots(w.slots)
        .seed(cell.seed)
        .warmup_secs(spec.run.warmup.as_secs_f64())
        .duration_secs(spec.run.duration.as_secs_f64())
        .drain_secs(w.drain.as_secs_f64());
    if let Some(slack) = w.deadline_slack {
        builder = builder.deadline_slack(slack);
    }
    let report = builder
        .build()?
        .run_supervised(cancel, |_| FaultPlan::new())?;

    // An empty size class renders its quantiles as 0 rather than
    // omitting the row — artifacts always carry the kind's full metric
    // set, and an envelope pinning an empty class fails loudly on the
    // zero instead of silently matching nothing.
    let fct = |class: usize, q: f64| finite(report.fct_ms(class, q).unwrap_or(0.0));
    Ok(vec![
        ("fct_short_p50_ms".into(), fct(0, 0.50)),
        ("fct_short_p99_ms".into(), fct(0, 0.99)),
        ("fct_short_p999_ms".into(), fct(0, 0.999)),
        ("fct_mid_p50_ms".into(), fct(1, 0.50)),
        ("fct_mid_p99_ms".into(), fct(1, 0.99)),
        ("fct_mid_p999_ms".into(), fct(1, 0.999)),
        ("fct_long_p50_ms".into(), fct(2, 0.50)),
        ("fct_long_p99_ms".into(), fct(2, 0.99)),
        ("fct_long_p999_ms".into(), fct(2, 0.999)),
        ("goodput_gbps".into(), finite(report.goodput_bps / 1e9)),
        (
            "deadline_miss_rate".into(),
            finite(report.deadline_miss_rate()),
        ),
        ("flows_started".into(), report.started as f64),
        ("flows_completed".into(), report.completed as f64),
    ])
}

fn run_query_cell(
    spec: &ScenarioSpec,
    t: &TestbedSpec,
    cell: &Cell,
    cancel: Option<CancelToken>,
) -> Result<Vec<(String, f64)>, dctcp_sim::SimError> {
    let mut cfg = TestbedConfig::paper(cell.scheme);
    cfg.tcp = spec.tcp;
    cfg.bottleneck_buffer = t.bottleneck_buffer;
    cfg.other_buffer = t.other_buffer;
    cfg.link_gbps = t.link_bps as f64 / 1e9;
    cfg.link_delay_us = t.link_delay.as_nanos() / 1000;

    let mut wl = match spec.kind {
        ScenarioKind::Incast => QueryWorkload::incast(cell.flows, spec.run.rounds),
        _ => QueryWorkload::partition_aggregate(cell.flows, spec.run.rounds),
    };
    wl.seed = cell.seed;
    wl.bytes_per_flow = match spec.kind {
        ScenarioKind::Incast => spec.run.bytes,
        _ => spec.run.bytes / u64::from(cell.flows),
    };

    // The outer matrix already saturates the worker pool; run the
    // rounds of one cell serially to keep the fan-out single-level.
    let report = run_query_rounds_supervised(&cfg, &wl, 1, cancel)?;

    let mut q = report.completions();
    let in_ms = |v: Option<f64>| v.map_or(0.0, |s| s * 1e3);
    let completed = report
        .rounds
        .iter()
        .filter(|r| r.completion.is_some())
        .count();
    let drops: u64 = report.rounds.iter().map(|r| r.drops).sum();
    Ok(vec![
        ("goodput_mbps".into(), report.mean_goodput_bps() / 1e6),
        ("completion_mean_ms".into(), in_ms(q.mean())),
        ("completion_p95_ms".into(), in_ms(q.quantile(0.95))),
        ("completion_p99_ms".into(), in_ms(q.quantile(0.99))),
        ("timeout_frac".into(), report.timeout_fraction()),
        ("rounds_completed".into(), completed as f64),
        ("drops".into(), drops as f64),
    ])
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    // One tiny end-to-end run: the cheapest long-lived matrix that still
    // exercises tracing, oscillation metrics and determinism.
    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "\
[scenario]
name = tiny
kind = long_lived

[topology]
bottleneck = 1 Gbps

# Warmup must outlast the ~15 ms slow-start transient at 1 Gb/s or
# the decaying head masks the steady-state oscillation.
[run]
flows = 2
warmup = 20 ms
duration = 15 ms
trace = 100 us

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
",
        )
        .unwrap()
    }

    /// A two-cell variant (two markings) for hit/miss partition tests.
    fn two_cell_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "\
[scenario]
name = tiny2
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
",
        )
        .unwrap()
    }

    fn tmp_cache(tag: &str) -> dctcp_cache::Cache {
        let dir = std::env::temp_dir().join(format!("dctcp-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dctcp_cache::Cache::new(dir)
    }

    fn first_cell(spec: &ScenarioSpec) -> Cell {
        Cell {
            label: spec.markings[0].0.clone(),
            scheme: spec.markings[0].1,
            flows: spec.run.flows[0],
            seed: 1,
        }
    }

    #[test]
    fn long_lived_artifact_has_every_metric() {
        let a = run_scenario(&tiny_spec(), 2).unwrap();
        assert_eq!(a.points.len(), 1);
        let p = &a.points[0];
        for name in ScenarioKind::LongLived.metrics() {
            let v = p.metric(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert!(p.metric("utilization").unwrap() > 0.8);
        assert!(p.metric("osc_cycles").unwrap() >= 1.0);
    }

    #[test]
    fn artifacts_are_thread_count_invariant() {
        let a = run_scenario(&tiny_spec(), 1).unwrap();
        let b = run_scenario(&tiny_spec(), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_edits_move_the_cell_key() {
        let spec = tiny_spec();
        let cell = first_cell(&spec);
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

    /// The cheapest collective matrix: one incast cell on a k=4 fabric.
    fn collective_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "\
[scenario]
name = ctiny
kind = collective

[topology fat_tree]
k = 4
hosts_per_edge = 2
ecmp_seed = 3

[workload collective]
pattern = incast
horizon = 200 ms

[run]
flows = 8
bytes_per_flow = 32 KB

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
",
        )
        .unwrap()
    }

    #[test]
    fn collective_artifact_has_every_metric_and_is_thread_invariant() {
        let a = run_scenario(&collective_spec(), 1).unwrap();
        assert_eq!(a.points.len(), 1);
        let p = &a.points[0];
        for name in ScenarioKind::Collective.metrics() {
            let v = p.metric(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert!(p.metric("completion_ms").unwrap() > 0.0);
        assert!(p.metric("goodput_mbps").unwrap() > 0.0);
        let b = run_scenario(&collective_spec(), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fat_tree_topology_and_workload_edits_move_the_cell_key() {
        let spec = collective_spec();
        let cell = first_cell(&spec);
        let base = cell_key(&spec, &cell, "fp");

        // Editing the [topology fat_tree] section moves the key...
        let mut wider = spec.clone();
        match &mut wider.topology {
            crate::spec::TopologySpec::FatTree(f) => f.k = 6,
            other => panic!("wrong topology: {other:?}"),
        }
        assert_ne!(base, cell_key(&wider, &cell, "fp"));

        // ...as does the routing configuration (the ECMP seed)...
        let mut rerouted = spec.clone();
        match &mut rerouted.topology {
            crate::spec::TopologySpec::FatTree(f) => f.ecmp_seed = 4,
            other => panic!("wrong topology: {other:?}"),
        }
        assert_ne!(base, cell_key(&rerouted, &cell, "fp"));

        // ...and every [workload collective] knob.
        let mut repatterned = spec.clone();
        repatterned.workload.as_mut().unwrap().pattern =
            dctcp_workloads::CollectivePattern::RingAllreduce;
        assert_ne!(base, cell_key(&repatterned, &cell, "fp"));

        let mut rechunked = spec.clone();
        rechunked.workload.as_mut().unwrap().chunk = 4096;
        assert_ne!(base, cell_key(&rechunked, &cell, "fp"));

        let mut resized = spec.clone();
        resized.run.bytes = 64 * 1024;
        assert_ne!(base, cell_key(&resized, &cell, "fp"));

        // A seed is a distinct cell, not the same key.
        let mut reseeded = cell.clone();
        reseeded.seed = 2;
        assert_ne!(base, cell_key(&spec, &reseeded, "fp"));
    }

    /// A two-marking fluid matrix at the paper's oscillatory operating
    /// point — integrates in milliseconds.
    fn fluid_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "\
[scenario]
name = ftiny
kind = fluid

[topology]
bottleneck = 10 Gbps
rtt = 300 us

[run]
flows = 8, 64
warmup = 20 ms
duration = 30 ms
dt = 1 us

[marking \"dctcp\"]
scheme = dctcp
k = 40 pkts

[marking \"dt\"]
scheme = dt-dctcp
k1 = 30 pkts
k2 = 50 pkts
",
        )
        .unwrap()
    }

    #[test]
    fn fluid_artifact_has_every_metric_and_is_thread_invariant() {
        let a = run_scenario(&fluid_spec(), 1).unwrap();
        assert_eq!(a.points.len(), 4);
        for p in &a.points {
            for name in ScenarioKind::Fluid.metrics() {
                let v = p.metric(name).unwrap_or_else(|| panic!("missing {name}"));
                assert!(v.is_finite(), "{name} = {v}");
            }
        }
        // The oscillatory regime leaves its signature: a limit cycle at
        // N = 64 with near-full utilization, damped under hysteresis.
        let std_dc = a.metric("dctcp", 64, "queue_std").unwrap();
        let std_dt = a.metric("dt", 64, "queue_std").unwrap();
        assert!(std_dt < std_dc, "{std_dt} !< {std_dc}");
        assert!(a.metric("dctcp", 64, "utilization").unwrap() > 0.95);
        assert!(a.metric("dctcp", 64, "osc_cycles").unwrap() >= 1.0);

        let b = run_scenario(&fluid_spec(), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fluid_run_edits_move_the_cell_key() {
        let spec = fluid_spec();
        let cell = first_cell(&spec);
        let base = cell_key(&spec, &cell, "fp");

        let mut finer = spec.clone();
        finer.run.dt = dctcp_sim::SimDuration::from_nanos(500);
        assert_ne!(base, cell_key(&finer, &cell, "fp"));

        let mut longer = spec.clone();
        longer.run.duration = dctcp_sim::SimDuration::from_millis(40);
        assert_ne!(base, cell_key(&longer, &cell, "fp"));

        let mut wider = cell.clone();
        wider.flows = 100_000;
        assert_ne!(base, cell_key(&spec, &wider, "fp"));
    }

    /// The cheapest churn matrix: 8 sources over 2 racks at 1 Gb/s,
    /// ~10 ms of measured arrivals.
    fn fct_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "\
[scenario]
name = fcttiny
kind = fct

[topology]
bottleneck = 1 Gbps
rtt = 100 us

[run]
flows = 8
warmup = 2 ms
duration = 10 ms
seeds = 1

[workload fct]
load = 0.5
racks = 2
slots = 512
drain = 50 ms

[marking \"dctcp\"]
scheme = dctcp
k = 20 pkts
",
        )
        .unwrap()
    }

    #[test]
    fn fct_artifact_has_every_metric_and_is_thread_invariant() {
        let a = run_scenario(&fct_spec(), 1).unwrap();
        assert_eq!(a.points.len(), 1);
        let p = &a.points[0];
        for name in ScenarioKind::Fct.metrics() {
            let v = p.metric(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert!(p.metric("flows_completed").unwrap() > 100.0);
        assert!(p.metric("fct_short_p99_ms").unwrap() >= p.metric("fct_short_p50_ms").unwrap());
        assert!(p.metric("goodput_gbps").unwrap() > 0.0);
        // Deadlines are off, so the miss rate is exactly zero.
        assert_eq!(p.metric("deadline_miss_rate").unwrap(), 0.0);
        let b = run_scenario(&fct_spec(), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fct_workload_edits_move_the_cell_key() {
        let spec = fct_spec();
        let cell = first_cell(&spec);
        let base = cell_key(&spec, &cell, "fp");

        let mut hotter = spec.clone();
        hotter.fct.as_mut().unwrap().load = 0.7;
        assert_ne!(base, cell_key(&hotter, &cell, "fp"));

        let mut heavier = spec.clone();
        heavier.fct.as_mut().unwrap().size_dist = "data_mining".into();
        assert_ne!(base, cell_key(&heavier, &cell, "fp"));

        let mut longer = spec.clone();
        longer.run.duration = dctcp_sim::SimDuration::from_millis(20);
        assert_ne!(base, cell_key(&longer, &cell, "fp"));

        let mut deadlined = spec.clone();
        deadlined.fct.as_mut().unwrap().deadline_slack = Some(2.0);
        assert_ne!(base, cell_key(&deadlined, &cell, "fp"));

        let mut reseeded = cell.clone();
        reseeded.seed = 2;
        assert_ne!(base, cell_key(&spec, &reseeded, "fp"));
    }

    #[test]
    fn fct_cells_reject_uneven_source_splits() {
        let spec = fct_spec();
        let mut cell = first_cell(&spec);
        cell.flows = 7;
        assert!(run_cell_raw(&spec, &cell, None).is_err());
        let mut sectionless = spec;
        sectionless.fct = None;
        let cell = first_cell(&sectionless);
        assert!(run_cell_raw(&sectionless, &cell, None).is_err());
    }

    #[test]
    fn fluid_cells_reject_non_dctcp_inputs() {
        // Byte-denominated thresholds and non-DCTCP congestion control
        // are parser-unreachable but must still fail cleanly for
        // programmatic callers.
        let spec = fluid_spec();
        let mut cell = first_cell(&spec);
        cell.scheme = dctcp_core::MarkingScheme::dctcp_bytes(60_000);
        assert!(run_cell_raw(&spec, &cell, None).is_err());

        let mut reno = spec.clone();
        reno.tcp.cc = dctcp_tcp::CongestionControl::Reno;
        let cell = first_cell(&reno);
        assert!(run_cell_raw(&reno, &cell, None).is_err());
    }

    #[test]
    fn code_fingerprint_moves_the_cell_key() {
        let spec = tiny_spec();
        let cell = first_cell(&spec);
        assert_ne!(
            cell_key(&spec, &cell, "build-a"),
            cell_key(&spec, &cell, "build-b")
        );
    }

    #[test]
    fn cold_then_warm_is_hit_only_and_byte_identical() {
        let spec = two_cell_spec();
        let cache = tmp_cache("warm");

        let (cold, s) = run_scenario_cached(&spec, 2, Some(&cache)).unwrap();
        assert_eq!((s.hits, s.misses), (0, 2));

        // Warm runs re-simulate nothing and render the exact same bytes,
        // at any thread count.
        for threads in [1, 2, 4] {
            let (warm, s) = run_scenario_cached(&spec, threads, Some(&cache)).unwrap();
            assert_eq!((s.hits, s.misses), (2, 0), "threads={threads}");
            assert_eq!(warm.render(), cold.render(), "threads={threads}");
        }
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entry_falls_back_to_recompute_and_repairs() {
        let spec = two_cell_spec();
        let cache = tmp_cache("corrupt");
        let (cold, _) = run_scenario_cached(&spec, 2, Some(&cache)).unwrap();

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

        let (warm, s) = run_scenario_cached(&spec, 2, Some(&cache)).unwrap();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(warm.render(), cold.render());

        // The recompute rewrote the entry: a second warm run is all hits.
        let (_, s) = run_scenario_cached(&spec, 2, Some(&cache)).unwrap();
        assert_eq!((s.hits, s.misses), (2, 0));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    /// `two_cell_spec` with a `[limits]` section appended.
    fn two_cell_spec_with(limits: &str) -> ScenarioSpec {
        let base = "\
[scenario]
name = tiny2
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
        ScenarioSpec::parse(&format!("{base}\n[limits]\n{limits}")).unwrap()
    }

    #[test]
    fn injected_panics_are_quarantined_not_fatal() {
        let spec = two_cell_spec_with("retries = 0\ninject_panic = dt:2:1\n");
        let (a, s) = run_scenario_supervised(&spec, 2, None);
        assert_eq!(a.points.len(), 1);
        assert_eq!(a.failures.len(), 1);
        let f = &a.failures[0];
        assert_eq!((f.marking.as_str(), f.flows, f.seed), ("dt", 2, 1));
        assert_eq!(f.kind, "panicked");
        assert_eq!(f.attempts, 1);
        assert!(f.msg.contains("injected panic"), "{}", f.msg);
        assert_eq!((s.quarantined, s.retried, s.replayed), (1, 0, 0));

        // The all-or-nothing API promotes the quarantine to an error
        // naming the cell.
        let err = run_scenario_cached(&spec, 2, None).unwrap_err().to_string();
        assert!(err.contains("(dt, N=2, seed 1)"), "{err}");
        assert!(err.contains("panicked"), "{err}");
    }

    /// A stalled `dctcp` cell next to a healthy `dt` one. The stalled
    /// cell sleeps until cancelled, so the deadline costs no CPU; it is
    /// 2 s (not tens of ms) so the healthy cell — a few ms of work —
    /// cannot miss it too when the whole test suite shares two cores.
    fn stalled_cell_spec() -> ScenarioSpec {
        two_cell_spec_with("retries = 0\ndeadline = 2 s\ninject_stall = dctcp:2:1\n")
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
    fn flaky_cells_retry_into_a_clean_artifact() {
        // First attempt of the dt cell panics; the retry succeeds and is
        // verified bit-identical against a clean run, so the artifact
        // matches an injection-free run of the same matrix exactly.
        let flaky = two_cell_spec_with("retries = 1\ninject_flaky = dt:2:1\n");
        let (a, s) = run_scenario_supervised(&flaky, 2, None);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!((s.retried, s.quarantined), (1, 0));

        let clean = run_scenario(&two_cell_spec(), 2).unwrap();
        assert_eq!(a.render(), clean.render());
    }

    #[test]
    fn flaky_cells_without_retry_budget_are_quarantined() {
        let spec = two_cell_spec_with("retries = 0\ninject_flaky = dt:2:1\n");
        let (a, s) = run_scenario_supervised(&spec, 2, None);
        assert_eq!(a.failures.len(), 1);
        assert_eq!(a.failures[0].kind, "panicked");
        assert_eq!(s.quarantined, 1);
    }

    #[test]
    fn journal_replays_deterministic_failures_on_resume() {
        let spec = two_cell_spec_with("retries = 0\ninject_panic = dt:2:1\n");
        let cache = tmp_cache("journal");

        let (cold, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.quarantined, s.replayed), (0, 2, 1, 0));

        // The resume serves the good cell from the cache and the broken
        // cell from the journal — nothing re-executes, bytes match.
        let (warm, s) = run_scenario_supervised(&spec, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.quarantined, s.replayed), (1, 0, 1, 1));
        assert_eq!(warm.render(), cold.render());

        // Raising the retry budget invalidates the journaled record —
        // the cell runs again (and, still panicking, is re-quarantined
        // under the larger budget).
        let bigger = two_cell_spec_with("retries = 2\ninject_panic = dt:2:1\n");
        let (again, s) = run_scenario_supervised(&bigger, 2, Some(&cache));
        assert_eq!((s.hits, s.misses, s.replayed), (1, 1, 0));
        assert_eq!(again.failures[0].attempts, 3);
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
        let injected = first_cell(&spec);
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
