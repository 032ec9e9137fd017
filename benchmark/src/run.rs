//! One run of one workload: repetitions, output checks, and the metric
//! set the run reports — end-to-end with tracing off, per-layer from
//! the traced run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::alloc::allocations;
use crate::json::Json;
use crate::metrics::{Def, Metrics, END_TO_END, PER_LAYER};
use crate::spans::{self, Span};
use crate::stats::{median, summarize};
use crate::workloads::{self, Checks, Counts, Env, Rep, WorkUnit, Workload};
use crate::{machine, probes};

/// Fewest samples of set-up alone behind `setup_s`.
const SETUP_SAMPLES: usize = 30;
/// Shortest stretch of set-up work one `setup_s` sample times.
const SETUP_SAMPLE_FLOOR_S: f64 = 10e-3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seconds: f64,
    pub trace: bool,
    /// Micro-probe results measured earlier, to use in place of
    /// measuring them again (the all-workloads run measures them once).
    pub probes: Option<PathBuf>,
    pub env: Env,
}

/// Everything one run produced.
pub struct Outcome {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    /// Timed repetitions (traced/untraced pairs in a traced run).
    pub reps: usize,
    pub checks: Checks,
    /// Digest of the simulated statistics of repetition 1.
    pub digest: u64,
    pub metrics: Metrics,
    /// Layer → share of the traced wall time (packet workloads).
    pub attribution: Vec<(&'static str, f64)>,
    /// The raw timings behind the medians, in the order measured.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn defs(&self) -> &'static [Def] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The single line the contract asks for: every declared metric of
    /// this kind of run, a layer the workload never entered reading 0.
    pub fn contract_line(&self) -> String {
        let metrics = self.defs().iter().map(|d| {
            let value = self.metrics.get(d.name).unwrap_or(0.0);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full record for `latest.json`: only what was measured, with
    /// quartiles and sample counts.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Bool(self.trace)),
            ("seed", Json::Num(self.seed as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "failures",
                Json::Arr(self.checks.notes.iter().map(Json::str).collect()),
            ),
            ("result_digest", Json::str(format!("{:016x}", self.digest))),
            ("metrics", self.metrics.to_json(self.defs())),
            (
                "attribution",
                Json::obj(self.attribution.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
            (
                "samples",
                Json::obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (*k, Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()))),
                ),
            ),
        ])
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Compares a repetition's digest with repetition 1's: a difference is
/// non-determinism, and counts as a failed check.
fn check_digest(checks: &mut Checks, reference: u64, rep: &Rep, what: &str) {
    checks.check(rep.digest == reference, || {
        format!(
            "{what}: result digest {:016x} differs from repetition 1's {reference:016x}",
            rep.digest
        )
    });
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut w = workloads::build(&opts.workload, &opts.env)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let quick = opts.env.quick;
    let mut checks = Checks::default();
    let mut m = Metrics::default();

    // Repetition 1 is untimed where caches may fill first; its digest is
    // the reference every later repetition must reproduce, and the one
    // the library's shipped entry point must produce on the same inputs.
    let mut reference = None;
    if w.warms_up() {
        reference = Some(w.rep(&mut checks).digest);
    }
    // What running the input once takes. Read here, before anything
    // runs again: tearing simulations down and building them again
    // dozens of times fragments the heap (by up to 70 % on `fct_churn`),
    // which no user of the program ever sees.
    let rss_after_one = machine::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    if let (Some(digest), Some(shipped)) = (reference, w.shipped_digest(&mut checks)) {
        checks.check(shipped == digest, || {
            format!(
                "the shipped entry point's result digest {shipped:016x} differs from the \
                 benchmark driver's {digest:016x}"
            )
        });
    }

    // A set-up too short to time on its own is repeated back to back
    // within each sample. Samples are spread over the run — one after
    // every repetition, the rest at the end — so that some miss the
    // host's noisy spells, and all follow a repetition, so that the
    // allocator is in the state it has between repetitions.
    let once = timed(|| w.setup_only(&mut checks));
    let batch = (SETUP_SAMPLE_FLOOR_S / once.max(1e-9))
        .ceil()
        .clamp(1.0, 10_000.0) as u32;
    let setup_sample = |w: &mut dyn Workload, checks: &mut Checks| {
        timed(|| (0..batch).for_each(|_| w.setup_only(checks))) / f64::from(batch)
    };
    let setup_samples = if quick { 3 } else { SETUP_SAMPLES };
    let mut setup = Vec::new();
    let min_reps = if quick { 1 } else { w.min_reps() };
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let more = |done: usize| done < min_reps || started.elapsed() < budget;

    let mut attribution = Vec::new();
    let mut samples = Vec::new();
    let mut reps = 0;
    if !opts.trace {
        let (mut walls, mut rates) = (Vec::new(), Vec::new());
        while more(reps) {
            let rep = w.rep(&mut checks);
            check_digest(
                &mut checks,
                *reference.get_or_insert(rep.digest),
                &rep,
                "untraced",
            );
            walls.push(rep.wall_s);
            rates.push(rep.work / rep.wall_s);
            setup.push(setup_sample(w.as_mut(), &mut checks));
            reps += 1;
        }
        while setup.len() < setup_samples {
            setup.push(setup_sample(w.as_mut(), &mut checks));
        }
        m.set("wall_s", summarize(&walls));
        m.set("work_per_sec", summarize(&rates));
        m.set("setup_s", summarize(&setup));
        samples.push(("wall_s", walls));
        samples.push(("setup_s", setup));
        match w.child_peaks_mb() {
            // Two cell threads interleave their allocations differently
            // on every pass, which only ever adds to the peak (by up to
            // 15 %): the smallest one is what the cells themselves need.
            Some(peaks) => {
                let least = peaks.iter().copied().fold(f64::INFINITY, f64::min);
                m.set_exact("peak_rss_mb", least);
                samples.push(("peak_rss_mb", peaks.to_vec()));
            }
            None => m.set_exact("peak_rss_mb", rss_after_one),
        }
    } else {
        // Where a repetition records spans, traced and untraced
        // repetitions run in pairs, and which side goes first
        // alternates, so drift and order hit both alike: the median
        // over the pairs of traced ÷ untraced is the tracing overhead.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut traced_reps: Vec<(Rep, u64)> = Vec::new();
        while more(reps) {
            let order: &[bool] = match (w.spans_in_rep(), reps % 2) {
                (false, _) => &[true],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &tracing in order {
                spans::set_enabled(tracing, reps as u32 + 1);
                let allocs = allocations();
                let rep = w.rep(&mut checks);
                let allocs = allocations() - allocs;
                spans::set_enabled(false, 0);
                let what = if tracing { "traced" } else { "untraced" };
                check_digest(
                    &mut checks,
                    *reference.get_or_insert(rep.digest),
                    &rep,
                    what,
                );
                if tracing {
                    traced.push(rep.wall_s);
                    traced_reps.push((rep, allocs));
                } else {
                    plain.push(rep.wall_s);
                }
            }
            reps += 1;
        }
        let counts: Vec<Counts> = traced_reps.iter().map(|(r, _)| r.counts).collect();
        checks.check(counts.windows(2).all(|p| p[0] == p[1]), || {
            "operation counts differ between traced repetitions".into()
        });
        let recorded = spans::peek();
        let by_name = spans::seconds_by_name(&recorded);
        let per_rep_ms = |name: &str| by_name.get(name).copied().unwrap_or(0.0) * 1e3 / reps as f64;
        m.set_exact(
            "workloads.instantiate_ms",
            per_rep_ms("workloads.instantiate"),
        );
        m.set_exact("workloads.report_ms", per_rep_ms("workloads.report"));

        // Allocations of the first traced repetition: every run reaches
        // it by the same steps, so the count repeats exactly.
        let (first, allocs) = traced_reps.first().expect("at least one traced repetition");
        let wall_s = median(&traced);
        let c = counts[0];
        workload_metrics(&mut m, w.unit(), first.work, &c, *allocs, wall_s);
        if !plain.is_empty() {
            let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
            m.set("bench.trace_overhead_x", summarize(&ratios));
            samples.push(("wall_s.untraced", plain));
        }
        samples.push(("wall_s.traced", traced));

        match &opts.probes {
            Some(file) => m.merge_json(&crate::read_json(file)?)?,
            None => probes::run_all(&mut m, quick, &opts.env.scenarios, &opts.env.scratch),
        }
        w.extras(&mut m, &mut checks);

        attribution = attribute(&m, &c, wall_s);
        let explained: f64 = attribution.iter().map(|a| a.1).sum();
        if c.events > 0 {
            m.set_exact("bench.unattributed_share", 1.0 - explained);
        }
        m.set_exact(
            "failed_share",
            checks.failed as f64 / checks.attempted.max(1) as f64,
        );
    }

    let stray = m.outside(if opts.trace { PER_LAYER } else { END_TO_END });
    if !stray.is_empty() {
        return Err(format!(
            "metrics outside this run's declared set: {stray:?}"
        ));
    }
    Ok(Outcome {
        workload: opts.workload.clone(),
        trace: opts.trace,
        seed: opts.env.seed,
        reps,
        checks,
        digest: reference.unwrap_or(0),
        metrics: m,
        attribution,
        samples,
        spans: spans::take(),
    })
}

/// The per-workload rates and counts of the traced run.
fn workload_metrics(
    m: &mut Metrics,
    unit: WorkUnit,
    work: f64,
    c: &Counts,
    allocs: u64,
    wall_s: f64,
) {
    match unit {
        WorkUnit::Points => m.set_exact("points_per_sec", work / wall_s),
        WorkUnit::Flows => m.set_exact("flows_per_sec", work / wall_s),
        WorkUnit::Packets | WorkUnit::Cells => {}
    }
    if c.events == 0 {
        return; // no packet engine in this workload
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.set_exact("sim_pkts_per_sec", c.pkts as f64 / wall_s);
    m.set_exact("sim.events", c.events as f64);
    m.set_exact("sim.events_per_pkt", ratio(c.events, c.pkts));
    m.set_exact("sim.events_per_sec", c.events as f64 / wall_s);
    m.set_exact("sim.allocs_per_event", ratio(allocs, c.events));
    m.set_exact("sim.queue.max_depth_pkts", c.q_max_depth as f64);
    m.set_exact("sim.queue.marks", c.q_marks as f64);
    m.set_exact("sim.queue.drops", c.q_drops as f64);
    m.set_exact("tcp.acks", c.acks as f64);
    m.set_exact("tcp.retransmits", c.retransmits as f64);
    m.set_exact("tcp.rtos", c.rtos as f64);
    m.set_exact(
        "tcp.slow_path_share",
        ratio(c.retransmits + c.rtos + c.off_path_segments, c.acks),
    );
    if c.flows_started > 0 {
        m.set_exact("workloads.churn.flows_started", c.flows_started as f64);
        m.set_exact("workloads.churn.backlog_peak", c.backlog_peak as f64);
    }
}

/// Attributes the traced wall time to layers: the hot layers run inside
/// `sim.run_for`, where no span can reach from outside, so each layer's
/// share is computed as probe cost × exact operation count ÷ wall time.
fn attribute(m: &Metrics, c: &Counts, wall_s: f64) -> Vec<(&'static str, f64)> {
    if c.events == 0 {
        return Vec::new();
    }
    let ns = |name: &str| m.get(name).unwrap_or(0.0);
    let share = |ns_total: f64| ns_total * 1e-9 / wall_s;
    // Forwarding covers calendar, plain queue and link per hop; marking
    // ports pay the difference between an AQM and a DropTail queue.
    let marking_extra = (ns("sim.queue.ns_per_offer_pop.dctcp")
        - ns("sim.queue.ns_per_offer_pop.droptail"))
    .max(0.0);
    let sim = ns("sim.forward.ns_per_pkt_hop") * c.pkt_hops as f64
        + marking_extra * c.marking_decisions as f64
        // Timer operations are not counted by any public counter; every
        // ACK a delayed-ACK receiver sends retires about one timer.
        + ns("sim.timers.ns_per_set_cancel") * c.acks as f64
        + ns("sim.flow_table.ns_per_acquire_release") * c.flows_started as f64;
    let in_order = c.pkts.saturating_sub(c.off_path_segments);
    let tcp = ns("tcp.sender.ns_per_ack") * c.acks as f64
        + ns("tcp.receiver.ns_per_data_inorder") * in_order as f64
        + ns("tcp.receiver.ns_per_data_ooo") * c.off_path_segments as f64
        + ns("tcp.sender.ns_per_dupack_recovery") * c.retransmits as f64
        + ns("tcp.sender.ns_per_reset") * c.flows_started as f64;
    let stats = ns("stats.sketch.ns_per_record") * c.flows_completed as f64;
    // Set-up is outside the wall time; the report phase is inside it.
    let workloads = ns("workloads.report_ms") * 1e6;
    vec![
        ("sim", share(sim)),
        ("tcp", share(tcp)),
        ("stats", share(stats)),
        ("workloads", share(workloads)),
    ]
}

/// Writes the run's detail record and its spans under `out`.
pub fn write_detail(out: &Path, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let tag = format!("{}-t{}", outcome.workload, u8::from(outcome.trace));
    std::fs::write(
        out.join(format!("run-{tag}.json")),
        outcome.detail().render() + "\n",
    )?;
    if outcome.trace {
        std::fs::write(
            out.join(format!("trace-{}.jsonl", outcome.workload)),
            spans::to_jsonl(&outcome.workload, &outcome.spans),
        )?;
    }
    Ok(())
}
