//! The transport host agent: multiplexes connections onto a simulator
//! host.

use std::any::Any;

use dctcp_sim::{
    Agent, Context, FlowId, IdMap, NodeId, Packet, PacketKind, SimDuration, SimTime, TimerToken,
};
use dctcp_trace::{TraceKind, TraceScope};

use crate::{FlowError, Receiver, Sender, TcpConfig, TimerKind, Wire};

/// A flow to start at a given time, registered before the simulation
/// begins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFlow {
    /// Flow identifier (must be unique per sender/receiver pair).
    pub flow: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes to transfer; `None` for a long-lived flow.
    pub bytes: Option<u64>,
    /// Start time.
    pub at: SimTime,
    /// Connection configuration.
    pub cfg: TcpConfig,
}

#[derive(Debug)]
enum TimerEvent {
    FlowStart(usize),
    QuerySend(usize),
    Conn(FlowId, TimerKind),
}

/// The [`Agent`] that runs TCP connections on a host: it dispatches
/// arriving packets to per-flow [`Sender`]s and [`Receiver`]s, creates
/// receivers on demand for incoming flows, and routes timers.
///
/// # Examples
///
/// ```
/// use dctcp_sim::{FlowId, NodeId, SimTime};
/// use dctcp_tcp::{ScheduledFlow, TcpConfig, TransportHost};
///
/// let mut host = TransportHost::new(TcpConfig::dctcp(1.0 / 16.0));
/// host.schedule(ScheduledFlow {
///     flow: FlowId(1),
///     dst: NodeId::from_index(2),
///     bytes: Some(64 * 1024),
///     at: SimTime::ZERO,
///     cfg: TcpConfig::dctcp(1.0 / 16.0),
/// });
/// ```
#[derive(Debug)]
pub struct TransportHost {
    default_cfg: TcpConfig,
    senders: IdMap<FlowId, Sender>,
    receivers: IdMap<FlowId, Receiver>,
    timers: IdMap<TimerToken, TimerEvent>,
    scheduled: Vec<ScheduledFlow>,
    trace_senders: bool,
    /// Flows that never started because their configuration failed
    /// validation; reported through [`TransportHost::flow_errors`].
    config_errors: Vec<FlowError>,
    /// When set, an incoming `Control` packet for flow `f` starts a
    /// response flow of this many bytes back to the sender under the
    /// same flow id (the worker side of a query/response workload).
    respond_bytes: Option<u64>,
    /// Query (`Control`) packets to emit: `(flow, destination, when)`.
    queries: Vec<(FlowId, NodeId, SimTime)>,
}

impl TransportHost {
    /// Creates a host whose auto-created receivers use `default_cfg`.
    pub fn new(default_cfg: TcpConfig) -> Self {
        default_cfg.validate().expect("invalid TcpConfig");
        TransportHost {
            default_cfg,
            senders: IdMap::default(),
            receivers: IdMap::default(),
            timers: IdMap::default(),
            scheduled: Vec::new(),
            trace_senders: false,
            config_errors: Vec::new(),
            respond_bytes: None,
            queries: Vec::new(),
        }
    }

    /// Schedules a query (`Control`) packet for `flow` toward `dst` at
    /// time `at`; a peer configured with
    /// [`TransportHost::respond_to_queries`] will answer with a response
    /// flow. Must be called before the simulation runs.
    pub fn schedule_query(&mut self, flow: FlowId, dst: NodeId, at: SimTime) {
        self.queries.push((flow, dst, at));
    }

    /// Makes this host answer every incoming `Control` (query) packet
    /// with a `bytes`-long response flow to the querier, reusing the
    /// query's flow id. Duplicate queries for an active flow are
    /// ignored.
    pub fn respond_to_queries(&mut self, bytes: u64) {
        self.respond_bytes = Some(bytes);
    }

    /// Enables `(time, cwnd)` / `(time, alpha)` tracing on every sender
    /// this host creates (call before the simulation starts).
    pub fn trace_senders(&mut self) {
        self.trace_senders = true;
    }

    /// Registers a flow to start during the simulation. Must be called
    /// before the simulation runs.
    pub fn schedule(&mut self, flow: ScheduledFlow) {
        self.scheduled.push(flow);
    }

    /// The sender for `flow`, if this host originates it.
    pub fn sender(&self, flow: FlowId) -> Option<&Sender> {
        self.senders.get(&flow)
    }

    /// The receiver for `flow`, if this host has received data for it.
    pub fn receiver(&self, flow: FlowId) -> Option<&Receiver> {
        self.receivers.get(&flow)
    }

    /// Iterates over all senders on this host.
    pub fn senders(&self) -> impl Iterator<Item = &Sender> {
        self.senders.values()
    }

    /// Iterates over all receivers on this host.
    pub fn receivers(&self) -> impl Iterator<Item = &Receiver> {
        self.receivers.values()
    }

    /// The terminal failures of every aborted or never-started flow on
    /// this host (empty on a healthy run).
    pub fn flow_errors(&self) -> Vec<FlowError> {
        let mut errs: Vec<FlowError> = self.senders.values().filter_map(Sender::error).collect();
        errs.extend(self.config_errors.iter().cloned());
        errs.sort_by_key(|e| e.flow().0);
        errs
    }

    /// Restarts statistics on every sender (used to discard warm-up).
    pub fn reset_sender_stats(&mut self) {
        for s in self.senders.values_mut() {
            s.reset_stats();
        }
    }
}

/// Production [`Wire`]: forwards to the simulator context and records
/// timer ownership in the host's dispatch table.
struct CtxWire<'a, 'c> {
    ctx: &'a mut Context<'c>,
    timers: &'a mut IdMap<TimerToken, TimerEvent>,
    flow: FlowId,
}

impl Wire for CtxWire<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn local(&self) -> NodeId {
        self.ctx.node()
    }

    fn send(&mut self, pkt: Packet) {
        self.ctx.send(pkt);
    }

    fn arm(&mut self, delay: SimDuration, kind: TimerKind) -> TimerToken {
        let token = self.ctx.set_timer(delay);
        self.timers.insert(token, TimerEvent::Conn(self.flow, kind));
        token
    }

    fn cancel(&mut self, token: TimerToken) {
        self.timers.remove(&token);
        self.ctx.cancel_timer(token);
    }

    fn trace_enabled(&self) -> bool {
        self.ctx.trace_enabled(TraceScope::TCP)
    }

    fn trace(&mut self, kind: TraceKind) {
        self.ctx.trace(TraceScope::TCP, kind);
    }
}

impl TransportHost {
    fn start_scheduled(&mut self, index: usize, ctx: &mut Context<'_>) {
        let sf = self.scheduled[index];
        self.start_sender(sf.flow, sf.dst, sf.bytes, sf.cfg, ctx);
    }

    /// Creates and starts a sender; a configuration rejected by
    /// [`Sender::try_new`] is recorded as a flow error instead of
    /// panicking mid-simulation.
    fn start_sender(
        &mut self,
        flow: FlowId,
        dst: NodeId,
        bytes: Option<u64>,
        cfg: TcpConfig,
        ctx: &mut Context<'_>,
    ) {
        let mut sender = match Sender::try_new(flow, dst, bytes, cfg) {
            Ok(s) => s,
            Err(e) => {
                self.config_errors.push(e);
                return;
            }
        };
        if self.trace_senders {
            sender.enable_tracing();
        }
        let mut wire = CtxWire {
            ctx,
            timers: &mut self.timers,
            flow,
        };
        self.senders.entry(flow).or_insert(sender).start(&mut wire);
    }
}

impl Agent for TransportHost {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.scheduled.len() {
            let at = self.scheduled[i].at;
            if at <= ctx.now() {
                self.start_scheduled(i, ctx);
            } else {
                let token = ctx.set_timer_at(at);
                self.timers.insert(token, TimerEvent::FlowStart(i));
            }
        }
        for i in 0..self.queries.len() {
            let (flow, dst, at) = self.queries[i];
            if at <= ctx.now() {
                ctx.send(Packet::control(flow, ctx.node(), dst));
            } else {
                let token = ctx.set_timer_at(at);
                self.timers.insert(token, TimerEvent::QuerySend(i));
            }
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>) {
        match pkt.kind {
            PacketKind::Ack => {
                if let Some(sender) = self.senders.get_mut(&pkt.flow) {
                    let mut wire = CtxWire {
                        ctx,
                        timers: &mut self.timers,
                        flow: pkt.flow,
                    };
                    sender.on_ack(pkt, &mut wire);
                }
            }
            PacketKind::Data => {
                let receiver = self
                    .receivers
                    .entry(pkt.flow)
                    .or_insert_with(|| Receiver::new(pkt.flow, pkt.src, self.default_cfg));
                let mut wire = CtxWire {
                    ctx,
                    timers: &mut self.timers,
                    flow: pkt.flow,
                };
                receiver.on_data(pkt, &mut wire);
            }
            PacketKind::Control => {
                // Query/response support: spin up a response flow if
                // configured, else ignore the application-level packet.
                if let Some(bytes) = self.respond_bytes {
                    if !self.senders.contains_key(&pkt.flow) {
                        self.start_sender(pkt.flow, pkt.src, Some(bytes), self.default_cfg, ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let Some(event) = self.timers.remove(&token) else {
            return;
        };
        match event {
            TimerEvent::FlowStart(i) => self.start_scheduled(i, ctx),
            TimerEvent::QuerySend(i) => {
                let (flow, dst, _) = self.queries[i];
                ctx.send(Packet::control(flow, ctx.node(), dst));
            }
            TimerEvent::Conn(flow, TimerKind::Rto) => {
                if let Some(sender) = self.senders.get_mut(&flow) {
                    let mut wire = CtxWire {
                        ctx,
                        timers: &mut self.timers,
                        flow,
                    };
                    sender.on_rto(&mut wire);
                }
            }
            TimerEvent::Conn(flow, TimerKind::DelAck) => {
                if let Some(receiver) = self.receivers.get_mut(&flow) {
                    let mut wire = CtxWire {
                        ctx,
                        timers: &mut self.timers,
                        flow,
                    };
                    receiver.on_delack(&mut wire);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctcp_sim::{LinkSpec, QueueConfig, Simulator, TopologyBuilder};

    /// A flow scheduled with a broken per-flow config must not panic the
    /// simulation; the host records a typed error instead.
    #[test]
    fn invalid_scheduled_config_surfaces_typed_error() {
        let good = TcpConfig::dctcp(1.0 / 16.0);
        let mut bad = good;
        bad.mss = 0;
        let mut host = TransportHost::new(good);
        host.schedule(ScheduledFlow {
            flow: FlowId(9),
            dst: NodeId::from_index(1),
            bytes: Some(10_000),
            at: SimTime::ZERO,
            cfg: bad,
        });
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Box::new(host));
        let h2 = b.host("h2", Box::new(TransportHost::new(good)));
        b.link(
            h1,
            h2,
            LinkSpec::gbps(1.0, 10),
            QueueConfig::host_nic(),
            QueueConfig::host_nic(),
        )
        .unwrap();
        let mut sim = Simulator::new(b.build().unwrap());
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        let host: &TransportHost = sim.agent(h1).unwrap();
        let errs = host.flow_errors();
        assert_eq!(errs.len(), 1);
        assert!(
            matches!(&errs[0], FlowError::InvalidConfig { flow, .. } if *flow == FlowId(9)),
            "unexpected errors {errs:?}"
        );
    }
}
