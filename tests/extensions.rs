//! Integration tests of the extension features: D²TCP deadline
//! differentiation, fairness, and the CoDel baseline.

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::sim::{
    Capacity, FlowId, LinkSpec, QueueConfig, SimDuration, SimTime, Simulator, TopologyBuilder,
};
use dt_dctcp::tcp::{ScheduledFlow, TcpConfig, TransportHost};
use dt_dctcp::workloads::LongLivedScenario;

/// Two long-lived flows share a marked bottleneck; the near-deadline
/// D²TCP flow (d = 2) must end up with more bandwidth than the
/// far-deadline one (d = 0.5).
#[test]
fn d2tcp_differentiates_by_deadline_urgency() {
    let near = TcpConfig::d2tcp(1.0 / 16.0, 2.0);
    let far = TcpConfig::d2tcp(1.0 / 16.0, 0.5);

    let mut b = TopologyBuilder::new();
    let rx = b.host("rx", Box::new(TransportHost::new(near)));
    let sw = b.switch("sw");
    let spec = LinkSpec::gbps(1.0, 25);

    for (i, cfg) in [near, far].into_iter().enumerate() {
        let mut host = TransportHost::new(cfg);
        host.schedule(ScheduledFlow {
            flow: FlowId(i as u64 + 1),
            dst: rx,
            bytes: None,
            at: SimTime::ZERO,
            cfg,
        });
        let h = b.host(format!("tx{i}"), Box::new(host));
        b.link(
            h,
            sw,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
    }
    b.link(
        sw,
        rx,
        spec,
        QueueConfig::switch(Capacity::Packets(200), MarkingScheme::dctcp_packets(20)),
        QueueConfig::host_nic(),
    )
    .unwrap();

    let mut sim = Simulator::new(b.build().unwrap());
    sim.run_for(SimDuration::from_millis(200)).unwrap();

    let rx_host: &TransportHost = sim.agent(rx).unwrap();
    let near_bytes = rx_host.receiver(FlowId(1)).unwrap().stats().bytes_received;
    let far_bytes = rx_host.receiver(FlowId(2)).unwrap().stats().bytes_received;
    assert!(
        near_bytes as f64 > 1.2 * far_bytes as f64,
        "near-deadline flow should outpace far-deadline: {near_bytes} vs {far_bytes}"
    );
    // Together they still saturate the link.
    let total = (near_bytes + far_bytes) as f64 * 8.0 / 0.2;
    assert!(total > 0.85e9, "aggregate {total:.3e} bps too low");
}

/// Equal-configuration DCTCP flows share the bottleneck fairly
/// (Jain index close to 1 at the receiver).
#[test]
fn dctcp_flows_share_fairly() {
    // Reuse the star scenario but read per-flow receiver bytes.
    let cfg = TcpConfig::dctcp(1.0 / 16.0);
    let n = 8u64;
    let mut b = TopologyBuilder::new();
    let rx = b.host("rx", Box::new(TransportHost::new(cfg)));
    let sw = b.switch("sw");
    let spec = LinkSpec::gbps(1.0, 25);
    for i in 0..n {
        let mut host = TransportHost::new(cfg);
        host.schedule(ScheduledFlow {
            flow: FlowId(i + 1),
            dst: rx,
            bytes: None,
            at: SimTime::ZERO,
            cfg,
        });
        let h = b.host(format!("tx{i}"), Box::new(host));
        b.link(
            h,
            sw,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
    }
    b.link(
        sw,
        rx,
        spec,
        QueueConfig::switch(Capacity::Packets(200), MarkingScheme::dctcp_packets(20)),
        QueueConfig::host_nic(),
    )
    .unwrap();
    let mut sim = Simulator::new(b.build().unwrap());
    sim.run_for(SimDuration::from_millis(300)).unwrap();

    let rx_host: &TransportHost = sim.agent(rx).unwrap();
    let shares: Vec<f64> = (1..=n)
        .map(|f| rx_host.receiver(FlowId(f)).unwrap().stats().bytes_received as f64)
        .collect();
    // Jain's index, (Σx)² / (n·Σx²): 1 when every flow gets the same.
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    let j = sum * sum / (shares.len() as f64 * sum_sq);
    assert!(j > 0.9, "Jain index {j:.3} too unfair: {shares:?}");
}

/// The CoDel baseline holds the queue near its sojourn target under
/// long-lived DCTCP flows.
#[test]
fn codel_controls_the_standing_queue() {
    let report = LongLivedScenario::builder()
        .flows(4)
        .bottleneck_gbps(1.0)
        .marking(MarkingScheme::codel_datacenter())
        .warmup_secs(0.02)
        .duration_secs(0.05)
        .build()
        .unwrap()
        .run();
    assert!(report.marks > 0, "CoDel must mark under load");
    // 50 us target at 1 Gb/s is ~4 packets; allow slack for the control
    // law's duty cycle.
    assert!(
        report.queue.mean < 40.0,
        "CoDel queue mean {:.1} far above target",
        report.queue.mean
    );
    assert!(report.goodput_bps > 0.85e9);
}
