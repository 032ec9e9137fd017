//! Allocation-pressure ceilings on the two recycled hot paths: packet
//! forwarding (packet slab + SoA queue rings) and open-loop flow churn
//! (slab-recycled senders, generation tags, streaming sketches). Counts
//! are machine-independent, so unlike a timing they can gate on any
//! container. One `#[test]` on purpose: the counter is process-global,
//! and a second test running concurrently would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dt_dctcp::sim::{
    Agent, Context, Ecn, FlowId, LinkSpec, NodeId, Packet, QueueConfig, SimDuration, Simulator,
    TopologyBuilder,
};
use dt_dctcp::workloads::FctScenario;

/// Counts heap allocations. One relaxed increment per allocation; frees
/// are not counted (the ceilings gate allocation pressure, not churn
/// symmetry).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's `GlobalAlloc` contract (valid layout; `ptr` from this
// allocator with that layout) is exactly `System`'s; the counter is a
// relaxed atomic that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's contract (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's contract (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations made meanwhile.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Ceiling on forwarding allocs/event. The packet slab and the SoA
/// queue rings keep the steady-state forwarding path allocation-free;
/// what the run still sees is one-time container growth, the rings'
/// doubling to their high-water mark included, amortized over ~40k
/// events (measured 0.027). 0.05 leaves room for growth-pattern
/// shifts while still catching any per-packet Box/Vec sneaking back in
/// (that would read ≥ 1.0).
const ALLOCS_PER_EVENT_LIMIT: f64 = 0.05;

/// Ceiling on churn allocs/flow, measured on a cold run so one-time
/// slab/sketch growth is included. Recycled flow state costs zero
/// steady-state allocations (measured 0.065 over ~33k flows); 2.0
/// absorbs the amortized cold-start growth while still catching a
/// per-flow Box/Vec (which adds several allocations per open/close,
/// not a fraction).
const ALLOCS_PER_FLOW_LIMIT: f64 = 2.0;

/// Sends `count` ECT data packets to `peer` at start, then only sinks.
#[derive(Debug)]
struct Blaster {
    peer: NodeId,
    count: u32,
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.count {
            let mut p = Packet::data(FlowId(1), ctx.node(), self.peer, i as u64, 1460);
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

/// `h1 — s — h2` at 10 Gb/s with `h1` blasting `count` packets at `h2`.
fn one_switch(count: u32) -> Simulator {
    let mut b = TopologyBuilder::new();
    let h1 = b.host(
        "h1",
        Box::new(Blaster {
            peer: NodeId::from_index(1),
            count,
        }),
    );
    let h2 = b.host(
        "h2",
        Box::new(Blaster {
            peer: NodeId::from_index(0),
            count: 0,
        }),
    );
    let s = b.switch("s");
    let spec = LinkSpec::gbps(10.0, 10);
    let nic = QueueConfig::host_nic();
    b.link(h1, s, spec, nic, nic).unwrap();
    b.link(s, h2, spec, nic, nic).unwrap();
    Simulator::new(b.build().unwrap())
}

/// One rack of 16 sources offering 80% of a 10 Gb/s bottleneck with the
/// default web-search sizes — the regime of `scenarios/fct_churn.scn`,
/// shrunk to a test-sized horizon.
fn churn_cell() -> FctScenario {
    FctScenario::builder()
        .racks(1)
        .sources_per_rack(16)
        .bottleneck_gbps(10.0)
        .rtt_us(100.0)
        .load(0.8)
        .slots(4096)
        .seed(7)
        .warmup_secs(0.01)
        .duration_secs(0.2)
        .drain_secs(0.05)
        .build()
        .expect("valid churn cell")
}

#[test]
fn hot_paths_stay_allocation_free() {
    const PKTS: u32 = 10_000;
    let mut sim = one_switch(PKTS);
    let (ran, allocs) = counting(|| sim.run_for(SimDuration::from_millis(100)));
    ran.unwrap();
    let events = sim.events_processed();
    assert!(
        events >= 3 * PKTS as u64,
        "forwarding run too small: {events} events"
    );
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= ALLOCS_PER_EVENT_LIMIT,
        "forwarding path allocates again: {per_event:.4} allocs/event \
         ({allocs} allocs / {events} events) exceeds {ALLOCS_PER_EVENT_LIMIT}"
    );

    // A cold start: the count includes every one-time slab/sketch/
    // timer-map growth, amortized over the flows — the ceiling bounds
    // the worst case, not a warmed steady state.
    let cell = churn_cell();
    let (report, allocs) = counting(|| cell.run());
    let report = report.expect("churn run");
    assert_eq!(report.aborted, 0, "churn cell must not abort flows");
    assert_eq!(
        report.completed, report.started,
        "every started flow must drain within the horizon"
    );
    assert!(
        report.completed > 10_000,
        "churn cell too small to be meaningful: {} flows",
        report.completed
    );
    let per_flow = allocs as f64 / report.completed as f64;
    assert!(
        per_flow <= ALLOCS_PER_FLOW_LIMIT,
        "per-flow state stopped recycling: {per_flow:.4} allocs/flow \
         ({allocs} allocs / {} flows) exceeds {ALLOCS_PER_FLOW_LIMIT}",
        report.completed
    );
}
