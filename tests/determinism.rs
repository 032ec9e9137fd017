//! Reproducibility guarantees: identical configurations produce
//! bit-identical results; different seeds genuinely differ.

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::sim::{
    Agent, Capacity, Context, FlowId, LinkSpec, NodeId, Packet, QueueConfig, SimDuration,
    Simulator, TopologyBuilder,
};
use dt_dctcp::trace::{oracle, TraceConfig};
use dt_dctcp::workloads::{run_query_rounds, LongLivedScenario, QueryWorkload, TestbedConfig};

#[test]
fn long_lived_runs_are_bit_identical() {
    let build = || {
        LongLivedScenario::builder()
            .flows(6)
            .bottleneck_gbps(1.0)
            .marking(MarkingScheme::dt_dctcp_packets(15, 25))
            .warmup_secs(0.01)
            .duration_secs(0.03)
            .build()
            .unwrap()
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(a.queue.mean.to_bits(), b.queue.mean.to_bits());
    assert_eq!(a.queue.std.to_bits(), b.queue.std.to_bits());
    assert_eq!(a.marks, b.marks);
    assert_eq!(a.goodput_bps.to_bits(), b.goodput_bps.to_bits());
    assert_eq!(a.alpha.count(), b.alpha.count());
}

#[test]
fn query_rounds_reproduce_per_seed() {
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let wl = QueryWorkload::incast(12, 3);
    let a = run_query_rounds(&cfg, &wl).unwrap();
    let b = run_query_rounds(&cfg, &wl).unwrap();
    assert_eq!(a.rounds, b.rounds);
}

#[test]
fn different_seeds_differ() {
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let mut wl = QueryWorkload::incast(24, 4);
    let a = run_query_rounds(&cfg, &wl).unwrap();
    wl.seed = 999;
    let b = run_query_rounds(&cfg, &wl).unwrap();
    assert_ne!(
        a.rounds, b.rounds,
        "jittered rounds with different seeds should not coincide"
    );
}

#[test]
fn rounds_within_a_workload_differ() {
    // The per-round seeds produce different jitter, hence different
    // dynamics round to round (no accidental seed reuse).
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let wl = QueryWorkload::incast(24, 6);
    let rep = run_query_rounds(&cfg, &wl).unwrap();
    let first = rep.rounds[0];
    assert!(
        rep.rounds.iter().any(|r| *r != first),
        "all rounds identical — jitter seeding broken"
    );
}

/// Sends `count` back-to-back data packets to `peer` the moment the
/// simulation starts, so two instances on identical links deliver
/// packets to a shared switch at *identical* timestamps.
#[derive(Debug)]
struct SyncBurst {
    peer: NodeId,
    count: u32,
}

impl Agent for SyncBurst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.count {
            ctx.send(Packet::data(
                FlowId(u64::from(i) + 1),
                ctx.node(),
                self.peer,
                u64::from(i),
                1460,
            ));
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

/// Two senders whose packets reach a hub at exactly the same instants,
/// packet after packet: the ties break by the event key alone, so the
/// run keeps a clean trace, funnels every packet through the hub once,
/// and replays bit-identically.
#[test]
fn equal_timestamp_arrivals_replay_identically() {
    let run = || {
        let mut b = TopologyBuilder::new();
        let rx_id = NodeId::from_index(3); // h1, h2, hub precede rx
        let burst = |count| Box::new(SyncBurst { peer: rx_id, count });
        let h1 = b.host("h1", burst(64));
        let h2 = b.host("h2", burst(64));
        let hub = b.switch("hub");
        let rx = b.host("rx", burst(0));
        assert_eq!(rx, rx_id);
        let spec = LinkSpec::gbps(10.0, 10);
        let sw_q = QueueConfig::switch(Capacity::Packets(256), MarkingScheme::dctcp_packets(200));
        b.link(h1, hub, spec, QueueConfig::host_nic(), sw_q)
            .unwrap();
        b.link(h2, hub, spec, QueueConfig::host_nic(), sw_q)
            .unwrap();
        let out = b
            .link(hub, rx, spec, sw_q, QueueConfig::host_nic())
            .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.enable_trace(TraceConfig::all());
        sim.run_for(SimDuration::from_millis(5)).unwrap();
        let log = sim.take_trace();
        let violations = oracle::check_log(&log);
        assert!(violations.is_empty(), "first violation: {}", violations[0]);
        let counters = sim.queue_report(out, hub).counters;
        (log.digest(), sim.events_processed(), counters)
    };
    let first = run();
    assert_eq!(first.2.enqueued, 128, "hub must see both bursts");
    assert_eq!(first, run());
}
