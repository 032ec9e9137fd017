//! The discrete-event simulation engine.

use dctcp_core::{MarkingScheme, QueueLevel};
use dctcp_trace::{FaultKind, MarkThreshold, TraceConfig, TraceKind, TraceLog, TraceScope, Tracer};

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultPlan};
use crate::link::TxCompletion;
use crate::node::{Action, Node};
use crate::queue::{Capacity, Offer};
use crate::{
    Agent, Context, LinkId, Network, NodeId, Packet, QueueReport, SimDuration, SimError, SimTime,
};

/// Default number of events allowed at a single instant before
/// [`Simulator::run_until`] reports a livelock. Generous: a legitimate
/// same-instant burst is bounded by topology size, not millions.
const DEFAULT_LIVELOCK_THRESHOLD: u64 = 1_000_000;

/// Events dispatched between [`CancelToken`](crate::CancelToken) polls.
/// Coarse enough that the atomic load vanishes against per-event work,
/// fine enough that a fired token stops the run within microseconds of
/// wall time.
const CANCEL_CHECK_STRIDE: u64 = 4096;

/// Where a run's events went, by kind — see [`Simulator::event_counts`].
///
/// Counts only: nothing here enters an artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Packet arrivals dispatched (to an agent or a switch's forwarding).
    pub arrivals: u64,
    /// Transmit completions dispatched: those a backlog waited on (all
    /// of them while tracing).
    pub tx_completions: u64,
    /// Transmissions whose completion never entered the event queue
    /// because nothing waited on it. Counted at transmission start and
    /// taken back if a backlog forms in flight, so once the transmitters
    /// have drained `tx_completions + tx_elided` is the number of
    /// completions an eager engine dispatches.
    pub tx_elided: u64,
    /// Agent timers fired (cancelled timers are reaped, never fired).
    pub timers: u64,
    /// Fault-plan events applied.
    pub faults: u64,
}

impl EventCounts {
    /// Events dispatched: every kind except the elided completions.
    pub fn dispatched(&self) -> u64 {
        self.arrivals + self.tx_completions + self.timers + self.faults
    }
}

/// Drives a [`Network`] through time.
///
/// The engine is single-threaded and fully deterministic: events at equal
/// instants fire in scheduling order, so two runs of the same scenario
/// produce identical traces.
///
/// # Examples
///
/// See [`TopologyBuilder`](crate::TopologyBuilder) for building the
/// network; a typical run is:
///
/// ```no_run
/// # fn network() -> dctcp_sim::Network { unreachable!() }
/// use dctcp_sim::{SimDuration, Simulator};
///
/// let mut sim = Simulator::new(network());
/// sim.run_for(SimDuration::from_millis(100)).unwrap();
/// ```
#[derive(Debug)]
pub struct Simulator {
    now: SimTime,
    events: EventQueue,
    nodes: Vec<Node>,
    links: Vec<crate::link::Link>,
    /// Next-hop tables (CSR, row-major by `(src, dst)`), including the
    /// deterministic ECMP selector for equal-cost groups. The per-packet
    /// lookup costs one indexed load on single-path pairs.
    routes: crate::Routes,
    num_nodes: usize,
    next_timer: u64,
    actions: Vec<Action>,
    started: bool,
    counts: EventCounts,
    /// Key tail `(prio, seq)` of the event being dispatched; `None`
    /// outside any event (agent `on_start`). Decides, at the instant a
    /// transmission ends, whether its completion would already have
    /// fired ([`TxCompletion::pending`]).
    running: Option<(u64, u64)>,
    /// Max events at one instant before a run reports a livelock.
    livelock_threshold: u64,
    /// Optional cap on events dispatched per `run_until` call.
    event_budget: Option<u64>,
    /// Optional cooperative cancellation flag, polled every
    /// [`CANCEL_CHECK_STRIDE`] events.
    cancel_token: Option<crate::CancelToken>,
    /// Event recorder; disabled (one branch per record point) unless
    /// [`Simulator::enable_trace`] was called.
    tracer: Tracer,
}

impl Simulator {
    /// Creates a simulator over a validated network, positioned at time
    /// zero. Agents' `on_start` callbacks run when time first advances.
    pub fn new(network: Network) -> Self {
        let num_nodes = network.nodes.len();
        Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            nodes: network.nodes,
            links: network.links,
            num_nodes,
            routes: network.routes,
            next_timer: 0,
            actions: Vec::new(),
            started: false,
            counts: EventCounts::default(),
            running: None,
            livelock_threshold: DEFAULT_LIVELOCK_THRESHOLD,
            event_budget: None,
            cancel_token: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Turns on event tracing. Every queue gets a stable trace id
    /// (`link_index * 2 + end`) and a [`TraceKind::QueueInfo`] event
    /// describing its capacity and marking threshold, so the oracle in
    /// [`dctcp_trace::oracle`] can check conservation and marking laws.
    ///
    /// Call before the first `run_*` so stateful oracle checks see the
    /// whole history.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        self.tracer = Tracer::new(cfg);
        let t = self.now.as_nanos();
        for (i, l) in self.links.iter_mut().enumerate() {
            for (end, e) in l.ends.iter_mut().enumerate() {
                let id = (i * 2 + end) as u32;
                e.queue.set_trace_id(id);
                let (capacity_pkts, capacity_bytes) = match e.queue.capacity() {
                    Capacity::Unbounded => (None, None),
                    Capacity::Packets(n) => (Some(n), None),
                    Capacity::Bytes(b) => (None, Some(b)),
                };
                let threshold = threshold_of(e.queue.scheme());
                self.tracer
                    .record_with(TraceScope::QUEUE, t, || TraceKind::QueueInfo {
                        queue: id,
                        link: i as u32,
                        capacity_pkts,
                        capacity_bytes,
                        threshold,
                    });
            }
        }
    }

    /// Whether event tracing is currently recording.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Takes the recorded trace, leaving tracing disabled.
    pub fn take_trace(&mut self) -> TraceLog {
        std::mem::replace(&mut self.tracer, Tracer::disabled()).into_log()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far. A transmit completion nothing
    /// waited on is never scheduled (see [`EventCounts::tx_elided`]) and
    /// is not counted — unless tracing is on, which keeps them all.
    pub fn events_processed(&self) -> u64 {
        self.counts.dispatched()
    }

    /// Dispatched events by kind, plus the transmit completions that
    /// were elided.
    pub fn event_counts(&self) -> EventCounts {
        self.counts
    }

    /// Number of events currently pending in the queue, O(1). Cancelled
    /// timers still count until their deadline passes and they are
    /// reaped; elided transmit completions never do.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Advances the simulation to time `until`, dispatching every event
    /// scheduled at or before it.
    ///
    /// # Errors
    ///
    /// * [`SimError::TimeReversal`] if `until` is in the past — the
    ///   simulation state is untouched.
    /// * [`SimError::Livelock`] if more than the livelock threshold of
    ///   events fire at a single instant without the clock advancing
    ///   (see [`Simulator::set_livelock_threshold`]).
    /// * [`SimError::EventBudgetExhausted`] if an event budget is set
    ///   and this call exceeds it (see [`Simulator::set_event_budget`]).
    /// * [`SimError::Cancelled`] if a cancel token is installed and an
    ///   external supervisor fired it (see
    ///   [`Simulator::set_cancel_token`]). The poll is strided, so the
    ///   stop lags the fire by at most a few thousand events.
    ///
    /// On error the simulation stops at the offending instant; state is
    /// consistent but the run should be treated as failed.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), SimError> {
        if until < self.now {
            return Err(SimError::TimeReversal {
                now: self.now,
                requested: until,
            });
        }
        if let Some(token) = &self.cancel_token {
            if token.is_cancelled() {
                return Err(SimError::Cancelled { at: self.now });
            }
        }
        self.start_agents();
        // Hoisted out of the loop: `u64::MAX` means "no budget" and the
        // comparison below never fires.
        let budget = self.event_budget.unwrap_or(u64::MAX);
        let mut dispatched_this_run: u64 = 0;
        let mut at_this_instant: u64 = 0;
        let mut last_instant = self.now;
        while let Some((at, prio, seq, kind)) = self.events.pop_before(until) {
            debug_assert!(at >= self.now, "event in the past");
            if at > last_instant {
                last_instant = at;
                at_this_instant = 0;
            }
            at_this_instant += 1;
            if at_this_instant > self.livelock_threshold {
                return Err(SimError::Livelock {
                    at,
                    dispatched: at_this_instant,
                });
            }
            dispatched_this_run += 1;
            if dispatched_this_run > budget {
                return Err(SimError::EventBudgetExhausted { budget, at });
            }
            if dispatched_this_run % CANCEL_CHECK_STRIDE == 0 {
                if let Some(token) = &self.cancel_token {
                    if token.is_cancelled() {
                        return Err(SimError::Cancelled { at });
                    }
                }
            }
            self.now = at;
            self.running = Some((prio, seq));
            self.dispatch(kind);
        }
        self.running = None;
        self.now = until;
        Ok(())
    }

    /// Advances the simulation by `duration`.
    ///
    /// # Errors
    ///
    /// Propagates the progress-watchdog errors of
    /// [`Simulator::run_until`].
    pub fn run_for(&mut self, duration: SimDuration) -> Result<(), SimError> {
        self.run_until(self.now + duration)
    }

    /// Sets how many events may fire at a single instant before
    /// [`Simulator::run_until`] reports [`SimError::Livelock`]. The
    /// default (one million) is far above any legitimate same-instant
    /// burst; lower it in tests to catch zero-delay loops quickly.
    pub fn set_livelock_threshold(&mut self, threshold: u64) {
        self.livelock_threshold = threshold.max(1);
    }

    /// Caps the number of events a single [`Simulator::run_until`] call
    /// may dispatch; exceeding it returns
    /// [`SimError::EventBudgetExhausted`]. `None` (the default) disables
    /// the cap.
    pub fn set_event_budget(&mut self, budget: Option<u64>) {
        self.event_budget = budget;
    }

    /// Installs a cooperative cancellation token, polled every few
    /// thousand dispatched events (and once on entry to each
    /// [`Simulator::run_until`] call). A fired token makes the next poll
    /// return [`SimError::Cancelled`]; a token that never fires leaves
    /// the run event-for-event identical to one with no token.
    pub fn set_cancel_token(&mut self, token: Option<crate::CancelToken>) {
        self.cancel_token = token;
    }

    /// Schedules every event of a [`FaultPlan`] onto the simulation
    /// clock.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownLink`] if the plan names a link outside this
    ///   topology.
    /// * [`SimError::FaultInPast`] if an event is scheduled before the
    ///   current time.
    ///
    /// Validation happens before anything is scheduled, so a failed
    /// install leaves the simulation untouched.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        for ev in plan.events() {
            if ev.link.index() >= self.links.len() {
                return Err(SimError::UnknownLink(ev.link));
            }
            if ev.at < self.now {
                return Err(SimError::FaultInPast {
                    at: ev.at,
                    now: self.now,
                });
            }
        }
        // Faults use a pseudo-origin one past the last node, so their
        // keys draw from a counter no agent shares.
        let origin = self.num_nodes as u32;
        for ev in plan.events() {
            self.events.schedule(
                ev.at,
                self.now,
                origin,
                EventKind::Fault {
                    link: ev.link,
                    action: ev.action,
                },
            );
        }
        Ok(())
    }

    /// Whether `link` is currently up (links start up; only
    /// [`FaultAction::LinkDown`](crate::FaultAction::LinkDown) takes one
    /// down).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownLink`] if `link` is not in this
    /// topology.
    pub fn link_is_up(&self, link: LinkId) -> Result<bool, SimError> {
        self.links
            .get(link.index())
            .map(|l| l.up)
            .ok_or(SimError::UnknownLink(link))
    }

    /// Ids of every link in the topology, in creation order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId::from_index)
    }

    /// Whether any events remain scheduled.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Number of events currently scheduled.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Occupancy/counters report for the queue on `link` transmitting
    /// from `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn queue_report(&self, link: LinkId, from: NodeId) -> QueueReport {
        let l = &self.links[link.index()];
        let end = l
            .end_of(from)
            .unwrap_or_else(|| panic!("{from} is not an endpoint of {link}"));
        l.ends[end].queue.report(self.now)
    }

    /// Restarts the statistics window of every queue and transmitter
    /// (discarding warm-up transients).
    pub fn reset_all_queue_stats(&mut self) {
        let now = self.now;
        for l in &mut self.links {
            for e in &mut l.ends {
                e.queue.reset_stats(now);
                e.busy_time = SimDuration::ZERO;
                e.bytes_sent = 0;
                e.window_start = now;
            }
        }
    }

    /// Fraction of wall-clock the transmitter on `link` (from `from`)
    /// spent serializing packets since the last stats reset — the link's
    /// utilization. `0.0` before any time has passed.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn link_utilization(&self, link: LinkId, from: NodeId) -> f64 {
        let l = &self.links[link.index()];
        let end = l
            .end_of(from)
            .unwrap_or_else(|| panic!("{from} is not an endpoint of {link}"));
        let e = &l.ends[end];
        let elapsed = self.now.saturating_duration_since(e.window_start);
        if elapsed.is_zero() {
            0.0
        } else {
            e.busy_time.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Bytes the transmitter on `link` (from `from`) put on the wire
    /// since the last stats reset.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn link_bytes_sent(&self, link: LinkId, from: NodeId) -> u64 {
        let l = &self.links[link.index()];
        let end = l
            .end_of(from)
            .unwrap_or_else(|| panic!("{from} is not an endpoint of {link}"));
        l.ends[end].bytes_sent
    }

    /// Current queue occupancy in packets on `link` transmitting from
    /// `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of `link`.
    pub fn queue_len_pkts(&self, link: LinkId, from: NodeId) -> u32 {
        let l = &self.links[link.index()];
        let end = l
            .end_of(from)
            .unwrap_or_else(|| panic!("{from} is not an endpoint of {link}"));
        l.ends[end].queue.len_pkts()
    }

    /// Downcasts the agent at `node` to its concrete type.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownNode`] if `node` is not in this topology.
    /// * [`SimError::NotAHost`] if `node` is a switch.
    /// * [`SimError::AgentTypeMismatch`] if the host runs a different
    ///   agent type than `T`.
    pub fn agent<T: Agent>(&self, node: NodeId) -> Result<&T, SimError> {
        match self.nodes.get(node.index()) {
            None => Err(SimError::UnknownNode(node)),
            Some(Node::Switch { .. }) => Err(SimError::NotAHost(node)),
            Some(Node::Host { agent, .. }) => agent
                .as_any()
                .downcast_ref::<T>()
                .ok_or(SimError::AgentTypeMismatch(node)),
        }
    }

    /// Mutable variant of [`Simulator::agent`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::agent`].
    pub fn agent_mut<T: Agent>(&mut self, node: NodeId) -> Result<&mut T, SimError> {
        match self.nodes.get_mut(node.index()) {
            None => Err(SimError::UnknownNode(node)),
            Some(Node::Switch { .. }) => Err(SimError::NotAHost(node)),
            Some(Node::Host { agent, .. }) => agent
                .as_any_mut()
                .downcast_mut::<T>()
                .ok_or(SimError::AgentTypeMismatch(node)),
        }
    }

    /// The name given to a node at topology construction.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.nodes[node.index()].name()
    }

    fn start_agents(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let node = NodeId::from_index(i);
            if self.nodes[i].is_host() {
                self.with_agent(node, |agent, ctx| agent.on_start(ctx));
            }
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::TxComplete { link, end } => {
                self.counts.tx_completions += 1;
                let finished = self.links[link.index()].ends[end].tx.take();
                debug_assert!(
                    finished.is_some_and(|c| c.scheduled && c.at == self.now),
                    "TxComplete without a matching transmission"
                );
                self.tracer
                    .record_with(TraceScope::LINK, self.now.as_nanos(), || {
                        TraceKind::TxComplete {
                            link: link.index() as u32,
                            end: end as u8,
                        }
                    });
                self.try_start_tx(link, end);
            }
            EventKind::Arrival { node, slot } => {
                self.counts.arrivals += 1;
                let packet = self.events.take_packet(slot);
                if self.nodes[node.index()].is_host() {
                    self.with_agent(node, |agent, ctx| agent.on_packet(packet, ctx));
                } else {
                    self.forward(node, packet);
                }
            }
            EventKind::Timer { node, token } => {
                // Cancelled timers are reaped inside the event queue and
                // never reach this arm.
                self.counts.timers += 1;
                self.with_agent(node, |agent, ctx| agent.on_timer(token, ctx));
            }
            EventKind::Fault { link, action } => self.apply_fault(link, action),
        }
    }

    fn apply_fault(&mut self, link: LinkId, action: FaultAction) {
        self.counts.faults += 1;
        let kind = match action {
            FaultAction::LinkDown => FaultKind::LinkDown,
            FaultAction::LinkUp => FaultKind::LinkUp,
            FaultAction::BleachOn => FaultKind::BleachOn,
            FaultAction::BleachOff => FaultKind::BleachOff,
        };
        self.tracer
            .record_with(TraceScope::FAULT, self.now.as_nanos(), || {
                TraceKind::Fault {
                    link: link.index() as u32,
                    kind,
                }
            });
        match action {
            FaultAction::LinkDown => {
                self.links[link.index()].up = false;
            }
            FaultAction::LinkUp => {
                self.links[link.index()].up = true;
                // Restart both transmitters: queued packets resume.
                for end in 0..2 {
                    self.try_start_tx(link, end);
                }
            }
            FaultAction::BleachOn => {
                for e in &mut self.links[link.index()].ends {
                    e.queue.set_bleach(true);
                }
            }
            FaultAction::BleachOff => {
                for e in &mut self.links[link.index()].ends {
                    e.queue.set_bleach(false);
                }
            }
        }
    }

    /// Runs an agent callback and applies the actions it queued.
    fn with_agent(&mut self, node: NodeId, f: impl FnOnce(&mut Box<dyn Agent>, &mut Context<'_>)) {
        debug_assert!(self.actions.is_empty());
        let mut actions = std::mem::take(&mut self.actions);
        {
            let Node::Host { agent, .. } = &mut self.nodes[node.index()] else {
                panic!("agent callback on switch {node}");
            };
            let mut ctx = Context::new(
                self.now,
                node,
                &mut actions,
                &mut self.next_timer,
                &mut self.tracer,
            );
            f(agent, &mut ctx);
        }
        let origin = node.index() as u32;
        for action in actions.drain(..) {
            match action {
                Action::Send(mut pkt) => {
                    pkt.sent_at = self.now;
                    if pkt.dst == node {
                        // Loopback: deliver on the next event round.
                        let slot = self.events.alloc_packet(pkt);
                        self.events.schedule(
                            self.now,
                            self.now,
                            origin,
                            EventKind::Arrival { node, slot },
                        );
                    } else {
                        self.forward(node, pkt);
                    }
                }
                Action::SetTimer { at, token } => {
                    self.events
                        .schedule(at, self.now, origin, EventKind::Timer { node, token });
                }
                Action::CancelTimer(token) => {
                    self.events.cancel_timer(token);
                }
            }
        }
        self.actions = actions;
    }

    /// Places a packet on `node`'s next-hop queue toward its
    /// destination. With equal-cost multipath, the queue is chosen by
    /// the seeded ECMP hash over the packet's flow, endpoints and this
    /// node — a pure function of packet content and static tables, so
    /// every run forwards identically.
    fn forward(&mut self, node: NodeId, packet: Packet) {
        let Some((link, end)) = self.routes.select(node, &packet) else {
            // No route (packet addressed to a switch, or a partitioned
            // topology admitted for switch-only destinations): drop.
            debug_assert!(false, "no route from {node} to {}", packet.dst);
            return;
        };
        let offer = self.links[link.index()].ends[end].queue.offer_traced(
            self.now,
            packet,
            &mut self.tracer,
        );
        if offer == Offer::Enqueued {
            self.try_start_tx(link, end);
        }
    }

    /// Starts transmitting the queue head if the transmitter is idle and
    /// the link is up.
    ///
    /// The completion event is lazy: its key is drawn here, but it is
    /// put into the event queue only when a backlog will wait for it —
    /// at start, or once a packet queues up (or the link comes back up
    /// with one) behind the transmission in flight. An idle transmitter
    /// thus costs one event per packet (the arrival), not two; whether
    /// it is free again is read off the remembered completion instead.
    fn try_start_tx(&mut self, link: LinkId, end: usize) {
        let tracer = &mut self.tracer;
        let l = &mut self.links[link.index()];
        if !l.up {
            return;
        }
        let other = l.ends[1 - end].node;
        let e = &mut l.ends[end];
        if let Some(c) = &mut e.tx {
            if c.pending(self.now, self.running) {
                if !c.scheduled && !e.queue.is_empty() {
                    // Under the key drawn at transmission start, so it
                    // fires exactly where an eager schedule would have —
                    // after the running event even at this very instant.
                    c.scheduled = true;
                    self.counts.tx_elided -= 1;
                    schedule_completion(&mut self.events, c, link, end);
                }
                return;
            }
        }
        let Some(pkt) = e.queue.pop_traced(self.now, tracer) else {
            return;
        };
        let wire = pkt.wire_bytes() as u64;
        let tx = if e.last_tx.0 == wire {
            e.last_tx.1
        } else {
            let d = SimDuration::transmission(wire, l.spec.rate_bps);
            e.last_tx = (wire, d);
            d
        };
        e.busy_time += tx;
        e.bytes_sent += wire;
        // Both events this transmission schedules originate at the
        // transmitting node and draw from its key counter.
        let origin = e.node.index() as u32;
        let arrival_at = self.now + tx + l.spec.delay;
        // The completion's key is drawn whether or not its event is
        // scheduled, so every other event of the run keeps the key — and
        // with it the dispatch order — it has with eager completions.
        // Tracing keeps the event: the log records every `TxComplete`.
        let completion = TxCompletion {
            at: self.now + tx,
            sched: self.now,
            seq: self.events.next_seq(origin),
            scheduled: !e.queue.is_empty() || tracer.enabled(),
        };
        if completion.scheduled {
            schedule_completion(&mut self.events, &completion, link, end);
        } else {
            self.counts.tx_elided += 1;
        }
        e.tx = Some(completion);
        let slot = self.events.alloc_packet(pkt);
        self.events.schedule(
            arrival_at,
            self.now,
            origin,
            EventKind::Arrival { node: other, slot },
        );
    }
}

/// Puts a transmission's `TxComplete` into the event queue under the key
/// drawn when the transmission started.
fn schedule_completion(events: &mut EventQueue, c: &TxCompletion, link: LinkId, end: usize) {
    events.insert_keyed(c.at, c.sched, c.seq, EventKind::TxComplete { link, end });
}

/// Maps a queue's marking scheme onto the trace-schema threshold shape
/// the oracle replays against.
fn threshold_of(scheme: MarkingScheme) -> MarkThreshold {
    match scheme {
        MarkingScheme::Dctcp { k } => MarkThreshold::Single {
            k: k.raw(),
            bytes: matches!(k, QueueLevel::Bytes(_)),
        },
        MarkingScheme::DtDctcp { k1, k2 } => MarkThreshold::Hysteresis {
            k1: k1.raw(),
            k2: k2.raw(),
            bytes: matches!(k1, QueueLevel::Bytes(_)),
        },
        _ => MarkThreshold::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, QueueConfig, TimerToken, TopologyBuilder};
    use std::any::Any;

    /// Sends `count` back-to-back packets to `peer` at start; records
    /// ack arrival times.
    #[derive(Debug)]
    struct Pinger {
        peer: NodeId,
        count: u32,
        ack_times: Vec<SimTime>,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.count {
                let mut p = Packet::data(crate::FlowId(1), ctx.node(), self.peer, i as u64, 960);
                p.ecn = crate::Ecn::Ect;
                ctx.send(p);
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
            assert_eq!(pkt.kind, crate::PacketKind::Ack);
            self.ack_times.push(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Acks every data packet immediately.
    #[derive(Debug)]
    struct Echo {
        received: u32,
    }

    impl Agent for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
            self.received += 1;
            ctx.send(Packet::ack(pkt.flow, ctx.node(), pkt.src, pkt.end_seq()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// One ping through a switch; checks the exact end-to-end timing.
    #[test]
    fn single_packet_timing_is_exact() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 1,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let s = b.switch("s");
        // 1 Gbps, 10 us one-way per hop.
        let spec = LinkSpec::gbps(1.0, 10);
        b.link(
            h1,
            s,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.link(
            s,
            h2,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_for(SimDuration::from_millis(1)).unwrap();

        // Data: 1000 B wire = 8 us serialization per hop, 10 us prop per
        // hop => h1->h2 = 8+10+8+10 = 36 us.
        // Ack: 40 B = 0.32 us per hop => h2->h1 = 0.32+10+0.32+10 = 20.64 us.
        // Total 56.64 us.
        let pinger: &Pinger = sim.agent(h1).expect("agent type");
        assert_eq!(pinger.ack_times.len(), 1);
        assert_eq!(pinger.ack_times[0].as_nanos(), 56_640);
        let echo: &Echo = sim.agent(h2).expect("agent type");
        assert_eq!(echo.received, 1);
    }

    /// A traced ping-pong run yields a non-empty log that the invariant
    /// oracle accepts with zero violations.
    #[test]
    fn traced_run_satisfies_oracle() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 8,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let s = b.switch("s");
        let spec = LinkSpec::gbps(1.0, 10);
        b.link(
            h1,
            s,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.link(
            s,
            h2,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.enable_trace(TraceConfig::all());
        assert!(sim.trace_enabled());
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        let log = sim.take_trace();
        assert!(!sim.trace_enabled());
        assert_eq!(log.dropped, 0);
        let digest = log.digest();
        assert!(digest.count("enqueue") >= 8);
        assert_eq!(digest.count("enqueue"), digest.count("dequeue"));
        assert_eq!(digest.count("tx_complete"), digest.count("dequeue"));
        let violations = dctcp_trace::oracle::check_log(&log);
        assert!(violations.is_empty(), "oracle violations: {violations:?}");
    }

    #[test]
    fn back_to_back_packets_serialize_fifo() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 10,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let spec = LinkSpec::gbps(1.0, 10);
        b.link(
            h1,
            h2,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        let pinger: &Pinger = sim.agent(h1).unwrap();
        assert_eq!(pinger.ack_times.len(), 10);
        // Successive acks separated by exactly one data serialization
        // time (8 us) once the pipe is full.
        let deltas: Vec<u64> = pinger
            .ack_times
            .windows(2)
            .map(|w| w[1].as_nanos() - w[0].as_nanos())
            .collect();
        for d in deltas {
            assert_eq!(d, 8_000);
        }
    }

    #[derive(Debug)]
    struct TimerAgent {
        fired: Vec<u64>,
        cancel_me: TimerToken,
    }

    impl Agent for TimerAgent {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(10));
            let t = ctx.set_timer(SimDuration::from_micros(20));
            ctx.set_timer(SimDuration::from_micros(30));
            self.cancel_me = t;
            ctx.cancel_timer(t);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
            self.fired.push(ctx.now().as_nanos());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(TimerAgent {
                fired: Vec::new(),
                cancel_me: TimerToken::NONE,
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 1),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        let a: &TimerAgent = sim.agent(h1).unwrap();
        assert_eq!(a.fired, vec![10_000, 30_000]);
    }

    #[test]
    fn event_count_tracks_pending_events() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(TimerAgent {
                fired: Vec::new(),
                cancel_me: TimerToken::NONE,
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 1),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        assert_eq!(sim.event_count(), 0);
        // Stop between the two surviving timers (10 us and 30 us): the
        // later one is still pending.
        sim.run_until(SimTime::from_nanos(20_000)).unwrap();
        assert!(sim.event_count() > 0);
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        assert_eq!(sim.event_count(), 0);
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn run_until_is_resumable_and_monotone() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 1,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 10),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_until(SimTime::from_nanos(1000)).unwrap();
        assert_eq!(sim.now(), SimTime::from_nanos(1000));
        // Packet (8 us + 10 us) not yet delivered.
        let echo: &Echo = sim.agent(h2).unwrap();
        assert_eq!(echo.received, 0);
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        let echo: &Echo = sim.agent(h2).unwrap();
        assert_eq!(echo.received, 1);
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn run_backwards_is_a_typed_error() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Echo { received: 0 }));
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 1),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_until(SimTime::from_nanos(100)).unwrap();
        let err = sim.run_until(SimTime::from_nanos(50)).unwrap_err();
        assert_eq!(
            err,
            SimError::TimeReversal {
                now: SimTime::from_nanos(100),
                requested: SimTime::from_nanos(50),
            }
        );
        // The failed call left the clock alone.
        assert_eq!(sim.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn link_utilization_reflects_busy_time() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 100,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let link = b
            .link(
                h1,
                h2,
                LinkSpec::gbps(1.0, 10),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        // 100 packets x 1000 B = 0.8 ms of serialization at 1 Gb/s.
        sim.run_until(SimTime::from_nanos(1_000_000)).unwrap();
        let util = sim.link_utilization(link, h1);
        assert!((util - 0.8).abs() < 0.01, "utilization {util}");
        assert_eq!(sim.link_bytes_sent(link, h1), 100 * 1000);
        // Reverse direction carries only 40 B acks.
        let back = sim.link_utilization(link, h2);
        assert!(back < 0.05, "ack-path utilization {back}");
        // Reset clears the window.
        sim.reset_all_queue_stats();
        sim.run_until(SimTime::from_nanos(2_000_000)).unwrap();
        assert_eq!(sim.link_utilization(link, h1), 0.0);
        assert_eq!(sim.link_bytes_sent(link, h1), 0);
    }

    #[test]
    fn agent_downcast_mismatch_is_none() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Echo { received: 0 }));
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 1),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let sim = Simulator::new(b.build().unwrap());
        assert_eq!(
            sim.agent::<Pinger>(h1).unwrap_err(),
            SimError::AgentTypeMismatch(h1)
        );
        assert!(sim.agent::<Echo>(h1).is_ok());
        assert_eq!(
            sim.agent::<Echo>(NodeId::from_index(99)).unwrap_err(),
            SimError::UnknownNode(NodeId::from_index(99))
        );
    }

    #[test]
    fn agent_lookup_on_switch_is_not_a_host() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Echo { received: 0 }));
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let s = b.switch("s");
        let spec = LinkSpec::gbps(1.0, 1);
        b.link(
            h1,
            s,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        b.link(
            s,
            h2,
            spec,
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        assert_eq!(sim.agent::<Echo>(s).unwrap_err(), SimError::NotAHost(s));
        assert_eq!(sim.agent_mut::<Echo>(s).unwrap_err(), SimError::NotAHost(s));
    }

    /// Sets a zero-delay timer from every timer callback: a livelock.
    #[derive(Debug)]
    struct ZeroLoop;

    impl Agent for ZeroLoop {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn zero_loop_sim() -> Simulator {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(ZeroLoop));
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 1),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        Simulator::new(b.build().unwrap())
    }

    #[test]
    fn livelock_watchdog_trips_on_zero_delay_loop() {
        let mut sim = zero_loop_sim();
        sim.set_livelock_threshold(1_000);
        let err = sim.run_for(SimDuration::from_millis(1)).unwrap_err();
        match err {
            SimError::Livelock { at, dispatched } => {
                assert_eq!(at, SimTime::ZERO);
                assert!(dispatched > 1_000);
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn event_budget_bounds_a_run() {
        let mut sim = zero_loop_sim();
        sim.set_event_budget(Some(500));
        let err = sim.run_for(SimDuration::from_millis(1)).unwrap_err();
        assert!(
            matches!(err, SimError::EventBudgetExhausted { budget: 500, .. }),
            "{err:?}"
        );
        // A healthy simulation under the same budget completes fine.
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 3,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 1),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.set_event_budget(Some(500));
        sim.run_for(SimDuration::from_millis(1)).unwrap();
    }

    #[test]
    fn fired_cancel_token_stops_a_run() {
        // A pre-fired token stops the run before any event dispatches.
        let mut sim = zero_loop_sim();
        let token = crate::CancelToken::new();
        sim.set_cancel_token(Some(token.clone()));
        token.cancel();
        let err = sim.run_for(SimDuration::from_millis(1)).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "{err:?}");
        assert_eq!(sim.events_processed(), 0);

        // A token fired mid-run stops within one poll stride.
        let mut sim = zero_loop_sim();
        let token = crate::CancelToken::new();
        sim.set_cancel_token(Some(token.clone()));
        token.cancel();
        // Entry check already fired above; exercise the strided check by
        // clearing and re-firing after entry is impossible from outside,
        // so instead bound the dispatch count: a fired token must stop a
        // zero-delay loop long before the livelock threshold.
        let err = sim.run_for(SimDuration::from_millis(1)).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "{err:?}");
        assert!(sim.events_processed() <= CANCEL_CHECK_STRIDE);
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        let run = |with_token: bool| {
            let mut b = TopologyBuilder::new();
            let h1 = b.host(
                "h1",
                Box::new(Pinger {
                    peer: NodeId::from_index(1),
                    count: 5,
                    ack_times: Vec::new(),
                }),
            );
            let h2 = b.host("h2", Box::new(Echo { received: 0 }));
            b.link(
                h1,
                h2,
                LinkSpec::gbps(1.0, 1),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
            let mut sim = Simulator::new(b.build().unwrap());
            if with_token {
                sim.set_cancel_token(Some(crate::CancelToken::new()));
            }
            sim.run_for(SimDuration::from_millis(1)).unwrap();
            sim.events_processed()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_down_pauses_and_link_up_resumes_delivery() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host(
            "h1",
            Box::new(Pinger {
                peer: NodeId::from_index(1),
                count: 10,
                ack_times: Vec::new(),
            }),
        );
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let link = b
            .link(
                h1,
                h2,
                LinkSpec::gbps(1.0, 10),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        // Down from the start; up at 1 ms.
        let plan = crate::FaultPlan::new()
            .at(SimTime::ZERO, link, crate::FaultAction::LinkDown)
            .at(
                SimTime::from_nanos(1_000_000),
                link,
                crate::FaultAction::LinkUp,
            );
        sim.install_faults(&plan).unwrap();
        sim.run_until(SimTime::from_nanos(900_000)).unwrap();
        assert!(!sim.link_is_up(link).unwrap());
        // The first packet entered service during on_start, before the
        // t=0 LinkDown event fired; in-flight packets still deliver. The
        // other nine wait in the queue.
        let echo: &Echo = sim.agent(h2).unwrap();
        assert_eq!(echo.received, 1, "packets crossed a downed link");
        assert_eq!(
            sim.queue_len_pkts(link, h1),
            9,
            "queue should hold the rest"
        );
        sim.run_until(SimTime::from_nanos(3_000_000)).unwrap();
        assert!(sim.link_is_up(link).unwrap());
        let echo: &Echo = sim.agent(h2).unwrap();
        assert_eq!(echo.received, 10, "delivery did not resume after LinkUp");
    }

    #[test]
    fn install_faults_validates_before_scheduling() {
        let mut sim = zero_loop_sim();
        let bogus = crate::FaultPlan::new().at(
            SimTime::from_nanos(10),
            LinkId::from_index(7),
            crate::FaultAction::LinkDown,
        );
        assert_eq!(
            sim.install_faults(&bogus).unwrap_err(),
            SimError::UnknownLink(LinkId::from_index(7))
        );
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Echo { received: 0 }));
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let link = b
            .link(
                h1,
                h2,
                LinkSpec::gbps(1.0, 1),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
        let mut sim3 = Simulator::new(b.build().unwrap());
        sim3.run_until(SimTime::from_nanos(1_000)).unwrap();
        let past = crate::FaultPlan::new().at(
            SimTime::from_nanos(500),
            link,
            crate::FaultAction::BleachOn,
        );
        assert_eq!(
            sim3.install_faults(&past).unwrap_err(),
            SimError::FaultInPast {
                at: SimTime::from_nanos(500),
                now: SimTime::from_nanos(1_000),
            }
        );
        // Nothing was scheduled by the failed installs.
        assert!(!sim3.has_pending_events());
    }

    #[test]
    fn bleach_faults_toggle_both_queue_directions() {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(Echo { received: 0 }));
        let h2 = b.host("h2", Box::new(Echo { received: 0 }));
        let link = b
            .link(
                h1,
                h2,
                LinkSpec::gbps(1.0, 1),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        let plan = crate::FaultPlan::new().bleach_window(
            link,
            SimTime::from_nanos(100),
            SimTime::from_nanos(200),
        );
        sim.install_faults(&plan).unwrap();
        sim.run_until(SimTime::from_nanos(150)).unwrap();
        assert!(sim.links[link.index()]
            .ends
            .iter()
            .all(|e| e.queue.is_bleaching()));
        sim.run_until(SimTime::from_nanos(250)).unwrap();
        assert!(sim.links[link.index()]
            .ends
            .iter()
            .all(|e| !e.queue.is_bleaching()));
    }

    /// Sends one 1000 B data packet to `peer` at each instant of `sends`
    /// (ns; zero means from `on_start`), acks the data it receives, and
    /// logs every arrival as `(time_ns, kind, seq-or-ack, ecn)`.
    #[derive(Debug)]
    struct Probe {
        peer: NodeId,
        sends: Vec<u64>,
        next_seq: u64,
        log: Vec<(u64, crate::PacketKind, u64, crate::Ecn)>,
    }

    impl Probe {
        fn new(peer: NodeId, sends: &[u64]) -> Box<Self> {
            Box::new(Probe {
                peer,
                sends: sends.to_vec(),
                next_seq: 0,
                log: Vec::new(),
            })
        }

        fn send_next(&mut self, ctx: &mut Context<'_>) {
            let mut p = Packet::data(crate::FlowId(7), ctx.node(), self.peer, self.next_seq, 960);
            p.ecn = crate::Ecn::Ect;
            self.next_seq += 960;
            ctx.send(p);
        }
    }

    impl Agent for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for at in self.sends.clone() {
                if at == 0 {
                    self.send_next(ctx);
                } else {
                    ctx.set_timer_at(SimTime::from_nanos(at));
                }
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
            let id = if pkt.kind == crate::PacketKind::Ack {
                pkt.ack
            } else {
                ctx.send(Packet::ack(pkt.flow, ctx.node(), pkt.src, pkt.end_seq()));
                pkt.seq
            };
            self.log.push((ctx.now().as_nanos(), pkt.kind, id, pkt.ecn));
        }
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
            self.send_next(ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Everything a run exposes except its event counts: per link end the
    /// queue report, bytes sent and utilization; per host the arrival log.
    #[derive(Debug, PartialEq)]
    struct Observed {
        queues: Vec<QueueReport>,
        bytes_sent: Vec<u64>,
        utilization: Vec<f64>,
        logs: Vec<Vec<(u64, crate::PacketKind, u64, crate::Ecn)>>,
    }

    /// Runs `net` (all hosts [`Probe`]s) under `plan` for 2 ms — lazily,
    /// or with engine tracing on, which keeps every completion eager.
    fn observe(net: Network, plan: &FaultPlan, traced: bool) -> (Observed, EventCounts) {
        let mut sim = Simulator::new(net);
        if traced {
            sim.enable_trace(TraceConfig::all());
        }
        sim.install_faults(plan).unwrap();
        sim.run_for(SimDuration::from_millis(2)).unwrap();
        assert!(!sim.has_pending_events(), "run must drain");
        let mut seen = Observed {
            queues: Vec::new(),
            bytes_sent: Vec::new(),
            utilization: Vec::new(),
            logs: Vec::new(),
        };
        for link in sim.link_ids().collect::<Vec<_>>() {
            for end in 0..2 {
                let from = sim.links[link.index()].ends[end].node;
                seen.queues.push(sim.queue_report(link, from));
                seen.bytes_sent.push(sim.link_bytes_sent(link, from));
                seen.utilization.push(sim.link_utilization(link, from));
            }
        }
        for i in 0..sim.num_nodes {
            if let Ok(probe) = sim.agent::<Probe>(NodeId::from_index(i)) {
                seen.logs.push(probe.log.clone());
            }
        }
        (seen, sim.event_counts())
    }

    /// Asserts the lazy and the eager (traced) run of one scenario expose
    /// the same results; returns them with the event counts of the lazy
    /// and the eager run.
    fn assert_lazy_matches_eager(
        build: impl Fn() -> Network,
        plan: &FaultPlan,
    ) -> (Observed, EventCounts, EventCounts) {
        let (lazy_seen, lazy) = observe(build(), plan, false);
        let (eager_seen, eager) = observe(build(), plan, true);
        assert_eq!(lazy_seen, eager_seen);
        assert_eq!(eager.tx_elided, 0, "tracing keeps every completion");
        assert_eq!(lazy.tx_completions + lazy.tx_elided, eager.tx_completions);
        assert_eq!(
            (lazy.arrivals, lazy.timers, lazy.faults),
            (eager.arrivals, eager.timers, eager.faults)
        );
        (lazy_seen, lazy, eager)
    }

    /// Three senders burst and trickle into a 10:1 rate step behind a
    /// small, lossy, marking queue: marks, overflow and random drops,
    /// ties and idle hops all occur. Tracing off (lazy completions) and
    /// on (eager) must be indistinguishable but for the event count.
    #[test]
    fn lazy_and_eager_completions_yield_identical_results() {
        let build = || {
            let sink = NodeId::from_index(3);
            let mut b = TopologyBuilder::new();
            let senders: Vec<NodeId> = (0..3u64)
                .map(|i| {
                    let mut sends = vec![0; 12];
                    sends.extend((1..40).map(|k| 100_000 + k * (7_000 + i * 1_300)));
                    b.host(format!("h{i}"), Probe::new(sink, &sends))
                })
                .collect();
            assert_eq!(b.host("sink", Probe::new(sink, &[])), sink);
            let s = b.switch("s");
            for &h in &senders {
                b.link(
                    h,
                    s,
                    LinkSpec::gbps(10.0, 5),
                    QueueConfig::host_nic(),
                    QueueConfig::host_nic(),
                )
                .unwrap();
            }
            let bottleneck =
                QueueConfig::switch(crate::Capacity::Packets(8), MarkingScheme::dctcp_packets(2))
                    .with_loss(0.05, 42)
                    .unwrap();
            b.link(
                s,
                sink,
                LinkSpec::gbps(1.0, 5),
                bottleneck,
                QueueConfig::host_nic(),
            )
            .unwrap();
            b.build().unwrap()
        };
        let (seen, lazy, eager) = assert_lazy_matches_eager(build, &FaultPlan::new());
        assert!(lazy.tx_elided > 0 && lazy.tx_completions > 0, "{lazy:?}");
        assert!(lazy.dispatched() < eager.dispatched());
        let c = seen.queues[6].counters; // switch → sink
        assert!(
            c.marked > 0 && c.dropped_overflow > 0 && c.dropped_random > 0,
            "the bottleneck must exercise every queue outcome: {c:?}"
        );
    }

    fn two_probes(sends: &[u64]) -> (Network, LinkId) {
        let mut b = TopologyBuilder::new();
        let h2 = NodeId::from_index(1);
        let h1 = b.host("h1", Probe::new(h2, sends));
        assert_eq!(b.host("h2", Probe::new(h1, &[])), h2);
        let link = b
            .link(
                h1,
                h2,
                LinkSpec::gbps(1.0, 10),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
        (b.build().unwrap(), link)
    }

    /// One ping through a switch is four arrivals and nothing else; the
    /// eager engine spent eight events on it.
    #[test]
    fn an_idle_path_costs_one_event_per_hop() {
        let build = || {
            let mut b = TopologyBuilder::new();
            let h2 = NodeId::from_index(1);
            let h1 = b.host("h1", Probe::new(h2, &[0]));
            b.host("h2", Probe::new(h1, &[]));
            let s = b.switch("s");
            for h in [h1, h2] {
                b.link(
                    h,
                    s,
                    LinkSpec::gbps(1.0, 10),
                    QueueConfig::host_nic(),
                    QueueConfig::host_nic(),
                )
                .unwrap();
            }
            b.build().unwrap()
        };
        let (_, lazy, eager) = assert_lazy_matches_eager(build, &FaultPlan::new());
        let four_arrivals = EventCounts {
            arrivals: 4,
            tx_elided: 4,
            ..EventCounts::default()
        };
        assert_eq!(lazy, four_arrivals);
        assert_eq!((lazy.dispatched(), eager.dispatched()), (4, 8));
    }

    /// Ten back-to-back packets keep the nine completions a backlog waits
    /// on; the tenth, and all ten on the idle ACK path, are elided.
    #[test]
    fn a_backlogged_transmitter_keeps_its_completions() {
        let (_, lazy, eager) =
            assert_lazy_matches_eager(|| two_probes(&[0; 10]).0, &FaultPlan::new());
        assert_eq!(
            (lazy.arrivals, lazy.tx_completions, lazy.tx_elided),
            (20, 9, 11)
        );
        assert_eq!(eager.dispatched(), 40);
    }

    /// A switch whose egress finished serializing a packet at `T`, with
    /// the clock at `T` and no completion event scheduled. Returns the
    /// simulator, the switch, its egress link, a packet to forward and
    /// the `seq` of the elided completion.
    fn egress_at_completion_instant() -> (Simulator, NodeId, LinkId, Packet, u64) {
        let mut b = TopologyBuilder::new();
        let h = b.host("h", Box::new(Echo { received: 0 }));
        let s = b.switch("s");
        let link = b
            .link(
                s,
                h,
                LinkSpec::gbps(1.0, 10),
                QueueConfig::host_nic(),
                QueueConfig::host_nic(),
            )
            .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.start_agents();
        let pkt = Packet::data(crate::FlowId(1), NodeId::from_index(9), h, 0, 960);
        sim.running = Some((0, 0));
        sim.forward(s, pkt);
        let done = sim.links[link.index()].ends[0].tx.expect("in flight");
        assert_eq!((done.at.as_nanos(), done.scheduled), (8_000, false));
        sim.now = done.at;
        (sim, s, link, pkt, done.seq)
    }

    /// At the instant a transmission ends, the running event's key
    /// decides: an event the eager completion would have followed still
    /// finds the transmitter busy, and the next offer sees its packet.
    #[test]
    fn tie_below_the_completion_key_finds_the_transmitter_busy() {
        let (mut sim, s, link, pkt, seq) = egress_at_completion_instant();
        sim.running = Some((0, seq - 1));
        sim.forward(s, pkt);
        assert_eq!(sim.queue_len_pkts(link, s), 1, "queued behind the tie");
        let done = sim.links[link.index()].ends[0].tx.expect("still in flight");
        assert!(done.scheduled, "the backlog materialises the completion");
        assert_eq!(sim.event_counts().tx_elided, 0);
        // The completion fires at this very instant — after the running
        // event — and starts the queued packet.
        sim.running = None;
        sim.run_until(sim.now).unwrap();
        assert_eq!(sim.queue_len_pkts(link, s), 0);
        assert_eq!(sim.event_counts().tx_completions, 1);
        assert_eq!(sim.link_bytes_sent(link, s), 2_000);
    }

    /// …while an event the eager completion would have preceded finds the
    /// transmitter free, and its packet never waits.
    #[test]
    fn tie_above_the_completion_key_finds_the_transmitter_free() {
        let (mut sim, s, link, pkt, seq) = egress_at_completion_instant();
        sim.running = Some((0, seq + 1));
        sim.forward(s, pkt);
        assert_eq!(sim.queue_len_pkts(link, s), 0, "started at once");
        assert_eq!(sim.link_bytes_sent(link, s), 2_000);
        let counts = sim.event_counts();
        assert_eq!((counts.tx_elided, counts.tx_completions), (2, 0));
    }

    /// The link goes down mid-transmission and a packet arrives while it
    /// is down. If it comes back before the transmission ends, the
    /// backlog waits on a (late-materialised) completion; if after, the
    /// transmitter is found free and no completion is ever dispatched.
    #[test]
    fn link_down_mid_transmission_then_up() {
        // Transmission 0–8 us; down at 2 us; second packet at 4 us.
        for (up_at, completions, second_arrival) in [(6_000, 1, 26_000), (20_000, 0, 38_000)] {
            let build = || two_probes(&[0, 4_000]).0;
            let link = LinkId::from_index(0);
            let plan = FaultPlan::new()
                .at(SimTime::from_nanos(2_000), link, FaultAction::LinkDown)
                .at(SimTime::from_nanos(up_at), link, FaultAction::LinkUp);
            let (seen, lazy, _) = assert_lazy_matches_eager(build, &plan);
            assert_eq!(lazy.tx_completions, completions, "link up at {up_at}");
            let data: Vec<u64> = seen.logs[1].iter().map(|r| r.0).collect();
            assert_eq!(data, vec![18_000, second_arrival]);
        }
    }

    /// A zero-length serialization started from `on_start` (no running
    /// event): the transmitter still counts as busy until its completion
    /// fires, as it would with an eager event at the same instant.
    #[test]
    fn zero_length_serialization_from_on_start_is_busy() {
        let (net, link) = two_probes(&[0, 0]);
        let h1 = NodeId::from_index(0);
        let mut sim = Simulator::new(net);
        // Nothing serializes in zero time at a valid rate; plant it in
        // the serialization-time memo.
        sim.links[link.index()].ends[0].last_tx = (1000, SimDuration::ZERO);
        sim.start_agents();
        assert_eq!(sim.queue_len_pkts(link, h1), 1, "second packet must wait");
        let first = sim.links[link.index()].ends[0].tx.expect("in flight");
        assert_eq!((first.at, first.scheduled), (SimTime::ZERO, true));
        sim.run_until(SimTime::ZERO).unwrap();
        assert_eq!(sim.event_counts().tx_completions, 1);
        assert_eq!(sim.link_bytes_sent(link, h1), 2_000);
    }

    #[test]
    fn link_ids_enumerates_topology_links() {
        let sim = zero_loop_sim();
        let ids: Vec<LinkId> = sim.link_ids().collect();
        assert_eq!(ids, vec![LinkId::from_index(0)]);
        assert!(sim.link_is_up(ids[0]).unwrap());
        assert_eq!(
            sim.link_is_up(LinkId::from_index(5)).unwrap_err(),
            SimError::UnknownLink(LinkId::from_index(5))
        );
    }
}
