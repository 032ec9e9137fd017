//! Micro-probes: the cost of one operation of one layer, timed from
//! outside through the layer's public functions. Every probe gets the
//! same small time budget, split into five batches whose median is
//! reported. The numbers do not depend on the workload — the
//! all-workloads run measures them once — and they are what a traced
//! run multiplies by exact operation counts to attribute a workload's
//! wall time to layers.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dctcp_cache::{Cache, KeyBuilder};
use dctcp_control::{analyze, AnalysisGrid, DescribingFunction, HysteresisDf, PlantParams};
use dctcp_core::{AlphaEstimator, MarkingScheme, QueueSnapshot, WindowSample};
use dctcp_fluid::{sweep, DdeModel, FluidMarking, FluidModel, FluidParams, FluidRunConfig};
use dctcp_rng::Pcg32;
use dctcp_scenario::{check_artifact, Artifact, Point, ScenarioSpec};
use dctcp_sim::{
    Agent, Capacity, Context, Ecn, FatTree, FlowId, FlowTable, LinkSpec, NodeId, OutputQueue,
    Packet, QueueConfig, SimDuration, SimTime, Simulator, TierSpec, TimerToken, TopologyBuilder,
    TraceConfig,
};
use dctcp_stats::{oscillation, QuantileSketch, TimeSeries, TimeWeighted};
use dctcp_tcp::testing::MockWire;
use dctcp_tcp::{Receiver, Sender, TcpConfig, TransportHost};
use dctcp_trace::{TraceKind, TraceScope, Tracer};
use dctcp_workloads::LongLivedScenario;

use crate::machine;
use crate::metrics::Metrics;
use crate::stats::{summarize, Summary};
use crate::workloads::repro_matrix::matrix_seeds;

const BATCHES: usize = 5;

/// Times `f`, which performs `ops` operations per call, for about
/// `budget` and returns the time per operation (median and quartiles
/// over the batches) in units of `unit_ns` nanoseconds.
fn time_per_op(budget: Duration, unit_ns: f64, ops: u64, mut f: impl FnMut()) -> Summary {
    // One untimed call warms caches and sizes the batches.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(50));
    let per_batch = budget.as_secs_f64() / BATCHES as f64;
    let iters = ((per_batch / once.as_secs_f64()) as u64).clamp(1, 1 << 24);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / (iters * ops) as f64 / unit_ns
        })
        .collect();
    summarize(&batches)
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Runs every probe and records its metric, the machine's identity
/// among them. `scenarios` is the frozen scenario directory (parse
/// probes read it), `scratch` a directory the cache probes may fill.
pub fn run_all(m: &mut Metrics, quick: bool, scenarios: &Path, scratch: &Path) {
    let budget = Duration::from_millis(if quick { 5 } else { 80 });
    m.set_exact("bench.calib_ns", machine::calib_ns());
    m.set_exact("bench.cores", machine::cores() as f64);
    core_probes(m, budget);
    sim_probes(m, budget);
    tcp_probes(m, budget);
    stats_probes(m, budget);
    fluid_control_probes(m, budget);
    scenario_probes(m, budget, scenarios);
    cache_probes(m, budget, scratch);
    misc_probes(m, budget);
}

fn core_probes(m: &mut Metrics, budget: Duration) {
    // A sawtooth occupancy trajectory that crosses every threshold in
    // both directions, so armed and disarmed states are both visited.
    let traj: Vec<u32> = (0..128u32)
        .map(|i| if i < 64 { i } else { 128 - i })
        .collect();
    for (name, scheme) in [
        ("dctcp", MarkingScheme::dctcp_packets(40)),
        ("dt_dctcp", MarkingScheme::dt_dctcp_packets(30, 50)),
        ("pie", MarkingScheme::pie_datacenter(10.0)),
    ] {
        let mut policy = scheme.build().expect("valid probe scheme");
        let t = time_per_op(budget, NS, traj.len() as u64, || {
            let mut marked = 0u32;
            for &q in &traj {
                marked += u32::from(policy.on_enqueue(&QueueSnapshot::packets(q)).is_marked());
                policy.on_dequeue(&QueueSnapshot::packets(q.saturating_sub(1)));
            }
            black_box(marked);
        });
        m.set(&format!("core.marking.ns_per_decision.{name}"), t);
    }

    let mut alpha = AlphaEstimator::new(1.0 / 16.0).expect("valid gain");
    let t = time_per_op(budget, NS, 256, || {
        for i in 0..256u64 {
            black_box(alpha.update(WindowSample {
                acked_bytes: 14_600,
                marked_bytes: 1_460 * (i % 11),
            }));
        }
    });
    m.set("core.alpha.ns_per_update", t);
}

/// Sends `count` packets to `peer` at start, then only sinks.
#[derive(Debug)]
struct Blaster {
    peer: NodeId,
    count: u32,
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.count {
            let mut p = Packet::data(FlowId(1), ctx.node(), self.peer, u64::from(i), 1460);
            p.ecn = Ecn::Ect;
            ctx.send(p);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Keeps a churning timer population alive: every firing cancels one
/// outstanding timer and arms two (one near, one far-future).
#[derive(Debug)]
struct TimerChurn {
    pending: Vec<TimerToken>,
    fires_left: u32,
    step: u64,
}

impl Agent for TimerChurn {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..16u64 {
            self.pending
                .push(ctx.set_timer(SimDuration::from_nanos(100 + 37 * i)));
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
        if self.fires_left == 0 {
            return;
        }
        self.fires_left -= 1;
        self.step += 1;
        if let Some(t) = self.pending.pop() {
            ctx.cancel_timer(t);
        }
        let near = SimDuration::from_nanos(50 + (self.step * 13) % 1_500);
        let far = SimDuration::from_nanos(2_000_000 + (self.step * 7_919) % 100_000);
        self.pending.push(ctx.set_timer(near));
        self.pending.push(ctx.set_timer(far));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn sink() -> Box<Blaster> {
    Box::new(Blaster {
        peer: NodeId::from_index(0),
        count: 0,
    })
}

fn sim_probes(m: &mut Metrics, budget: Duration) {
    // Raw agents through one switch: calendar + queue + link, no TCP.
    // Each packet crosses two hops (host → switch → host).
    const PKTS: u32 = 10_000;
    let nic = QueueConfig::host_nic();
    let t = time_per_op(budget, NS, u64::from(PKTS) * 2, || {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Blaster {
                peer: NodeId::from_index(1),
                count: PKTS,
            }),
        );
        let h2 = b.host("h2", sink());
        let s = b.switch("s");
        let spec = LinkSpec::gbps(10.0, 10);
        b.link(h1, s, spec, nic, nic).expect("valid link");
        b.link(s, h2, spec, nic, nic).expect("valid link");
        let mut sim = Simulator::new(b.build().expect("valid topology"));
        sim.run_for(SimDuration::from_millis(100))
            .expect("forwarding run");
        assert!(sim.events_processed() > 3 * u64::from(PKTS));
    });
    m.set("sim.forward.ns_per_pkt_hop", t);

    // One operation = one firing: a cancel and two arms.
    const FIRES: u32 = 20_000;
    let t = time_per_op(budget, NS, u64::from(FIRES), || {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(TimerChurn {
                pending: Vec::new(),
                fires_left: FIRES,
                step: 0,
            }),
        );
        let h2 = b.host("h2", sink());
        b.link(h1, h2, LinkSpec::gbps(1.0, 1), nic, nic)
            .expect("valid link");
        let mut sim = Simulator::new(b.build().expect("valid topology"));
        sim.run_for(SimDuration::from_millis(50))
            .expect("timer run");
        assert!(sim.events_processed() >= u64::from(FIRES));
    });
    m.set("sim.timers.ns_per_set_cancel", t);

    // Fill to 64 packets and drain: occupancy crosses K = 40 and the
    // 30/50 band both ways, so marking runs armed and disarmed.
    for (name, scheme) in [
        ("droptail", MarkingScheme::DropTail),
        ("dctcp", MarkingScheme::dctcp_packets(40)),
        ("dt_dctcp", MarkingScheme::dt_dctcp_packets(30, 50)),
    ] {
        let cfg = QueueConfig::switch(Capacity::Packets(1000), scheme);
        let mut q = OutputQueue::new(&cfg).expect("valid probe queue");
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        let mut now = SimTime::ZERO;
        let t = time_per_op(budget, NS, 64, || {
            for i in 0..64u64 {
                let mut p = Packet::data(FlowId(1), a, b, i, 1460);
                p.ecn = Ecn::Ect;
                now += SimDuration::from_nanos(100);
                black_box(q.offer(now, p));
            }
            for _ in 0..64 {
                now += SimDuration::from_nanos(100);
                black_box(q.pop(now));
            }
        });
        m.set(&format!("sim.queue.ns_per_offer_pop.{name}"), t);
    }

    let mut table: FlowTable<u64> = FlowTable::with_capacity(1024);
    let mut held = Vec::with_capacity(256);
    let t = time_per_op(budget, NS, 256, || {
        for i in 0..256u64 {
            held.push(table.acquire(|| i).expect("table has room"));
        }
        for (slot, generation) in held.drain(..) {
            table.release(slot, generation).expect("live slot");
        }
    });
    m.set("sim.flow_table.ns_per_acquire_release", t);

    // ECMP selection at an edge switch for packets leaving the pod:
    // k = 4 gives two equal-cost uplinks, so the hash path runs.
    let tier = TierSpec::new(
        LinkSpec::gbps(1.0, 5),
        QueueConfig::switch(Capacity::Packets(100), MarkingScheme::dctcp_packets(20)),
    );
    let fat_tree = FatTree::new(4, 2).with_tiers(tier, tier, tier).ecmp_seed(7);
    let built = fat_tree.build(|_| sink()).expect("valid fat-tree");
    let routes = built.network.routes();
    let (edge, src, dst) = (built.ids.edges[0], built.ids.hosts[0], built.ids.hosts[15]);
    assert!(routes.candidates(edge, dst).len() > 1);
    let t = time_per_op(budget, NS, 256, || {
        for flow in 0..256u64 {
            let p = Packet::data(FlowId(flow), src, dst, 0, 1460);
            black_box(routes.select(edge, &p));
        }
    });
    m.set("sim.routes.ns_per_select", t);

    let tcp = TcpConfig::dctcp(1.0 / 16.0);
    let t = time_per_op(budget, MS, 1, || {
        black_box(
            fat_tree
                .build(|_| Box::new(TransportHost::new(tcp)))
                .expect("valid fat-tree"),
        );
    });
    m.set("sim.topology.fattree_build_ms", t);
}

/// A sender with its first window on a mock wire, plus the data packets
/// in flight (oldest first).
fn started_sender(total: Option<u64>) -> (Sender, MockWire, VecDeque<Packet>) {
    let (me, peer) = (NodeId::from_index(0), NodeId::from_index(1));
    let mut wire = MockWire::new(me);
    let mut sender = Sender::new(FlowId(1), peer, total, TcpConfig::dctcp(1.0 / 16.0));
    sender.start(&mut wire);
    let flight = wire.sent.drain(..).collect();
    (sender, wire, flight)
}

/// Moves what the sender put on the mock wire into `flight` and forgets
/// the timers it armed, keeping the wire's buffers.
fn settle(wire: &mut MockWire, flight: &mut VecDeque<Packet>) {
    flight.extend(wire.sent.drain(..));
    wire.timers.clear();
    wire.cancelled.clear();
}

/// Forgets the ACKs and timers a receiver put on the mock wire.
fn forget(wire: &mut MockWire) {
    wire.sent.clear();
    wire.timers.clear();
    wire.cancelled.clear();
}

fn ack_for(data: &Packet, ece: bool) -> Packet {
    let mut ack = Packet::ack(data.flow, data.dst, data.src, data.end_seq());
    ack.ts_echo = Some(data.sent_at);
    ack.ece = ece;
    ack
}

fn tcp_probes(m: &mut Metrics, budget: Duration) {
    // Steady state: acknowledge the oldest in-flight segment, let the
    // sender clock out new ones.
    for (name, ece) in [
        ("tcp.sender.ns_per_ack", false),
        ("tcp.sender.ns_per_ack_ece", true),
    ] {
        let (mut sender, mut wire, mut flight) = started_sender(None);
        let t = time_per_op(budget, NS, 256, || {
            for _ in 0..256 {
                let data = flight.pop_front().expect("window never empties");
                wire.advance(SimDuration::from_micros(1));
                sender.on_ack(ack_for(&data, ece), &mut wire);
                settle(&mut wire, &mut flight);
            }
        });
        m.set(name, t);
    }

    // One episode: three duplicate ACKs trigger fast retransmit, then
    // one cumulative ACK for everything outstanding ends recovery.
    let (mut sender, mut wire, mut flight) = started_sender(None);
    let mut una = 0u64;
    let t = time_per_op(budget, NS, 64, || {
        for _ in 0..64 {
            let (flow, src, dst) = (flight[0].flow, flight[0].src, flight[0].dst);
            let sent_at = flight[0].sent_at;
            let high = flight.iter().map(Packet::end_seq).max().expect("in flight");
            for _ in 0..3 {
                wire.advance(SimDuration::from_micros(1));
                sender.on_ack(Packet::ack(flow, dst, src, una), &mut wire);
            }
            wire.advance(SimDuration::from_micros(1));
            let mut full = Packet::ack(flow, dst, src, high);
            full.ts_echo = Some(sent_at);
            una = high;
            flight.clear();
            sender.on_ack(full, &mut wire);
            settle(&mut wire, &mut flight);
            // The retransmission is covered by `high` already.
            flight.retain(|p| p.end_seq() > una);
            assert!(!flight.is_empty(), "sender keeps a window in flight");
        }
    });
    m.set("tcp.sender.ns_per_dupack_recovery", t);
    assert!(sender.stats().fast_retransmits > 0);

    let (me, peer) = (NodeId::from_index(1), NodeId::from_index(0));
    let cfg = TcpConfig::dctcp(1.0 / 16.0);
    let mss = u64::from(cfg.mss);
    let data = |seq: u64| {
        let mut p = Packet::data(FlowId(1), peer, me, seq, cfg.mss);
        p.ecn = Ecn::Ect;
        p
    };

    let mut wire = MockWire::new(me);
    let mut rx = Receiver::new(FlowId(1), peer, cfg);
    let mut seq = 0u64;
    let t = time_per_op(budget, NS, 256, || {
        for _ in 0..256 {
            rx.on_data(data(seq), &mut wire);
            seq += mss;
        }
        forget(&mut wire);
    });
    m.set("tcp.receiver.ns_per_data_inorder", t);

    // Every pair arrives swapped: one segment is buffered out of order,
    // the next fills the hole. One operation = one data packet.
    let mut wire = MockWire::new(me);
    let mut rx = Receiver::new(FlowId(1), peer, cfg);
    let mut seq = 0u64;
    let t = time_per_op(budget, NS, 256, || {
        for _ in 0..128 {
            rx.on_data(data(seq + mss), &mut wire);
            rx.on_data(data(seq), &mut wire);
            seq += 2 * mss;
        }
        forget(&mut wire);
    });
    m.set("tcp.receiver.ns_per_data_ooo", t);
    assert!(rx.stats().out_of_order_segments > 0);

    let (mut sender, _, _) = started_sender(Some(64 * 1024));
    let t = time_per_op(budget, NS, 64, || {
        for flow in 0..64u64 {
            sender
                .reset(FlowId(flow), peer, Some(64 * 1024), cfg)
                .expect("valid config");
        }
        black_box(&sender);
    });
    m.set("tcp.sender.ns_per_reset", t);
}

fn stats_probes(m: &mut Metrics, budget: Duration) {
    // Flow-completion-like values spanning four decades.
    let mut rng = Pcg32::seed_from_u64(1);
    let values: Vec<f64> = (0..1024)
        .map(|_| 1e-5 * 10f64.powf(rng.range_f64(0.0, 4.0)))
        .collect();
    let mut sketch = QuantileSketch::new();
    let t = time_per_op(budget, NS, values.len() as u64, || {
        for &v in &values {
            sketch.record(v);
        }
    });
    m.set("stats.sketch.ns_per_record", t);

    let t = time_per_op(budget, US, 4, || {
        for q in [0.5, 0.9, 0.99, 0.999] {
            black_box(sketch.quantile(q));
        }
    });
    m.set("stats.sketch.us_per_quantile", t);

    let mut tw = TimeWeighted::new(0.0);
    let mut now = 0.0;
    let t = time_per_op(budget, NS, 256, || {
        for i in 0..256u32 {
            now += 1e-6;
            tw.update(now, f64::from(i % 64));
        }
    });
    m.set("stats.time_weighted.ns_per_update", t);
    black_box(tw.finish(now));

    // A 1000-sample queue trace: a sawtooth between 10 and 50 packets.
    let mut series = TimeSeries::with_capacity(1000);
    for i in 0..1000u32 {
        let phase = i % 40;
        let v = if phase < 20 {
            10 + 2 * phase
        } else {
            90 - 2 * phase
        };
        series.push(f64::from(i) * 1e-4, f64::from(v));
    }
    let t = time_per_op(budget, US, 1, || {
        black_box(oscillation(&series));
    });
    m.set("stats.oscillation.us_per_series", t);
}

fn fluid_control_probes(m: &mut Metrics, budget: Duration) {
    let params = FluidParams::paper_defaults(60.0, FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 });
    const STEPS: u64 = 5_000;
    let (duration, dt) = (STEPS as f64 * 1e-6, 1e-6);
    let t = time_per_op(budget, NS, STEPS, || {
        let mut model = DdeModel::new(params).expect("valid params");
        black_box(model.run_sampled(duration, dt, 50));
    });
    m.set("fluid.dde.ns_per_step", t);
    let t = time_per_op(budget, NS, STEPS, || {
        let mut model = FluidModel::new(params).expect("valid params");
        black_box(model.run_sampled(duration, dt, 50));
    });
    m.set("fluid.ode.ns_per_step", t);

    let cfg = FluidRunConfig {
        dt: 1e-6,
        duration: 0.02,
        transient: 0.01,
        sample_every: 20,
    };
    let t = time_per_op(budget, MS, 1, || {
        black_box(sweep::evaluate(&params, &cfg).expect("valid point"));
    });
    m.set("fluid.sweep.ms_per_point", t);

    let hyst = HysteresisDf::new(30.0, 50.0).expect("valid thresholds");
    let t = time_per_op(budget, NS, 256, || {
        for i in 0..256u32 {
            black_box(hyst.df(50.0 + f64::from(i)));
        }
    });
    m.set("control.df.ns_per_eval", t);

    let plant = PlantParams::paper_defaults(60.0);
    let grid = AnalysisGrid::default();
    let t = time_per_op(budget, US, 1, || {
        black_box(analyze(&plant, &hyst, &grid));
    });
    m.set("control.nyquist.us_per_analyze", t);
}

/// An artifact shaped like `spec`'s matrix, every metric set to 1. The
/// render/parse/check probes need the shape, not simulated values.
fn synthetic_artifact(spec: &ScenarioSpec) -> Artifact {
    let mut points = Vec::new();
    for (label, _) in &spec.markings {
        for &flows in &spec.run.flows {
            for &seed in matrix_seeds(spec) {
                points.push(Point {
                    marking: label.clone(),
                    flows,
                    seed,
                    metrics: spec
                        .kind
                        .metrics()
                        .iter()
                        .map(|name| (name.to_string(), 1.0))
                        .collect(),
                });
            }
        }
    }
    Artifact {
        scenario: spec.name.clone(),
        kind: spec.kind,
        points,
        failures: Vec::new(),
    }
}

fn scenario_probes(m: &mut Metrics, budget: Duration, scenarios: &Path) {
    let sources: Vec<String> = dctcp_scenario::list_scenarios(scenarios)
        .expect("frozen scenario directory is readable")
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("frozen scenario is readable"))
        .collect();
    assert!(!sources.is_empty(), "no frozen scenarios to parse");
    let files = sources.len() as u64;
    let t = time_per_op(budget, US, files, || {
        for src in &sources {
            black_box(ScenarioSpec::parse(src).expect("frozen scenario parses"));
        }
    });
    m.set("scenario.parse.us_per_file", t);

    let specs: Vec<ScenarioSpec> = sources
        .iter()
        .map(|s| ScenarioSpec::parse(s).expect("frozen scenario parses"))
        .collect();
    let artifacts: Vec<Artifact> = specs.iter().map(synthetic_artifact).collect();
    let t = time_per_op(budget, US, files, || {
        for a in &artifacts {
            black_box(a.render());
        }
    });
    m.set("scenario.render.us_per_artifact", t);

    let rendered: Vec<String> = artifacts.iter().map(Artifact::render).collect();
    let t = time_per_op(budget, US, files, || {
        for r in &rendered {
            black_box(Artifact::parse(r, "probe").expect("rendered artifact parses"));
        }
    });
    m.set("scenario.artifact_parse.us_per_artifact", t);

    let t = time_per_op(budget, US, files, || {
        for (spec, a) in specs.iter().zip(&artifacts) {
            black_box(check_artifact(&spec.expectations, a));
        }
    });
    m.set("scenario.check.us_per_artifact", t);
}

fn cache_probes(m: &mut Metrics, budget: Duration, scratch: &Path) {
    const ENTRIES: u64 = 64;
    let key = |tag: &str, i: u64| {
        let mut kb = KeyBuilder::new();
        kb.field("probe", tag).field("i", &i.to_string());
        kb.finish()
    };
    let metrics: Vec<(String, f64)> = (0..13)
        .map(|i| (format!("metric_{i}"), f64::from(i) * 1.25))
        .collect();
    let cache = Cache::new(scratch.join("probe-cache"));

    let t = time_per_op(budget, US, ENTRIES, || {
        for i in 0..ENTRIES {
            cache
                .put(key("put", i), &metrics)
                .expect("scratch is writable");
        }
    });
    m.set("cache.put.us_per_entry", t);

    let t = time_per_op(budget, US, ENTRIES, || {
        for i in 0..ENTRIES {
            assert!(cache.get(key("put", i)).is_some());
        }
    });
    m.set("cache.get.us_per_hit", t);

    let t = time_per_op(budget, US, ENTRIES, || {
        for i in 0..ENTRIES {
            assert!(cache.get(key("absent", i)).is_none());
        }
    });
    m.set("cache.get.us_per_miss", t);

    let t = time_per_op(budget, NS, 16, || {
        let mut kb = KeyBuilder::new();
        for tag in [
            "kind",
            "bottleneck",
            "rtt",
            "buffer",
            "flows",
            "seed",
            "warmup",
            "duration",
            "scheme",
            "k1",
            "k2",
            "mss",
            "g",
            "rto_min",
            "delack",
            "fingerprint",
        ] {
            kb.field(black_box(tag), black_box("10000000000"));
        }
        black_box(kb.finish());
    });
    m.set("cache.key.ns_per_field", t);
}

/// One small long-lived cell, timed with the engine's own event tracing
/// off or on.
fn traced_cell_seconds(trace: bool) -> f64 {
    let scenario = LongLivedScenario::builder()
        .flows(10)
        .warmup_secs(0.002)
        .duration_secs(0.008)
        .build()
        .expect("valid probe scenario");
    let mut inst = scenario.instantiate().expect("valid probe topology");
    if trace {
        inst.sim.enable_trace(TraceConfig::all());
    }
    let start = Instant::now();
    inst.sim
        .run_for(SimDuration::from_millis(10))
        .expect("probe run");
    let elapsed = start.elapsed().as_secs_f64();
    black_box(inst.sim.take_trace());
    elapsed
}

fn misc_probes(m: &mut Metrics, budget: Duration) {
    let items: Vec<u64> = (0..256).collect();
    let t = time_per_op(budget, US, items.len() as u64, || {
        black_box(dctcp_parallel::par_map(items.clone(), 2, |_, x| x + 1));
    });
    m.set("parallel.par_map.us_per_item_overhead", t);

    const RECORDS: u64 = 4096;
    let t = time_per_op(budget, NS, RECORDS, || {
        let mut tracer = Tracer::new(TraceConfig::with_capacity(RECORDS as usize));
        for i in 0..RECORDS {
            tracer.record_with(TraceScope::QUEUE, i, || TraceKind::Enqueue {
                queue: 0,
                flow: i,
                pkt_bytes: 1500,
                depth_pkts: (i % 64) as u32,
                depth_bytes: (i % 64) * 1500,
            });
        }
        black_box(tracer.len());
    });
    m.set("trace.tracer.ns_per_record", t);

    // The invariant oracle over a real trace of a small simulation.
    let scenario = LongLivedScenario::builder()
        .flows(4)
        .bottleneck_gbps(1.0)
        .build()
        .expect("valid probe scenario");
    let mut inst = scenario.instantiate().expect("valid probe topology");
    inst.sim.enable_trace(TraceConfig::all());
    inst.sim
        .run_for(SimDuration::from_millis(5))
        .expect("probe run");
    let log = inst.sim.take_trace();
    assert!(!log.events.is_empty());
    let t = time_per_op(budget, NS, log.events.len() as u64, || {
        black_box(dctcp_trace::oracle::check_log(&log));
    });
    m.set("trace.oracle.ns_per_event", t);

    // Alternate off/on so drift hits both sides alike.
    let pairs = (budget.as_secs_f64() / 0.02).clamp(3.0, 9.0) as usize;
    let ratios: Vec<f64> = (0..pairs)
        .map(|_| {
            let off = traced_cell_seconds(false);
            traced_cell_seconds(true) / off
        })
        .collect();
    m.set("trace.sim_overhead_x", summarize(&ratios));

    let mut rng = Pcg32::seed_from_u64(7);
    let t = time_per_op(budget, NS, 1024, || {
        let mut acc = 0u32;
        for _ in 0..1024 {
            acc ^= rng.next_u32();
        }
        black_box(acc);
    });
    m.set("rng.pcg32.ns_per_u32", t);
}
