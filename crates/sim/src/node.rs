//! Hosts, agents, and the action context.

use std::any::Any;
use std::fmt;

use dctcp_trace::{TraceKind, TraceScope, Tracer};

use crate::{NodeId, Packet, SimDuration, SimTime, TimerToken};

/// Transport or application logic attached to a host.
///
/// Agents are event-driven: the simulator invokes the callbacks and the
/// agent responds by queueing actions on the [`Context`] (send a packet,
/// arm or cancel a timer). Actions are applied by the simulator after the
/// callback returns, so an agent never re-enters itself.
///
/// `as_any`/`as_any_mut` allow the experiment harness to downcast agents
/// back to their concrete type after a run to harvest per-flow
/// statistics.
///
/// Agents are `Send`, so a [`Simulator`](crate::Simulator) is too: a
/// run can be built on one thread and driven on another. `Sync` is not
/// required; one thread drives a simulator at a time.
pub trait Agent: fmt::Debug + Any + Send {
    /// Called once at simulation start (time zero).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a packet addressed to this host arrives.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Context<'_>);

    /// Called when a timer armed by this agent fires (and was not
    /// cancelled).
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }

    /// Upcast for downcasting to the concrete agent type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting to the concrete agent type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An action queued by an agent during a callback.
#[derive(Debug)]
pub(crate) enum Action {
    Send(Packet),
    SetTimer { at: SimTime, token: TimerToken },
    CancelTimer(TimerToken),
}

/// The interface an [`Agent`] uses to interact with the simulation during
/// a callback.
#[derive(Debug)]
pub struct Context<'a> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action>,
    next_timer: &'a mut u64,
    tracer: &'a mut Tracer,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        now: SimTime,
        node: NodeId,
        actions: &'a mut Vec<Action>,
        next_timer: &'a mut u64,
        tracer: &'a mut Tracer,
    ) -> Self {
        Context {
            now,
            node,
            actions,
            next_timer,
            tracer,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queues a packet for transmission from this host. The packet's
    /// `sent_at` is stamped with the current time when it is handed to
    /// the NIC.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(Action::Send(pkt));
    }

    /// Arms a timer to fire after `delay`; returns its token.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerToken {
        self.set_timer_at(self.now + delay)
    }

    /// Arms a timer to fire at the absolute time `at` (clamped to now if
    /// in the past); returns its token.
    pub fn set_timer_at(&mut self, at: SimTime) -> TimerToken {
        let token = TimerToken(*self.next_timer);
        *self.next_timer += 1;
        let at = at.max(self.now);
        self.actions.push(Action::SetTimer { at, token });
        token
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown token is a no-op.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        if token != TimerToken::NONE {
            self.actions.push(Action::CancelTimer(token));
        }
    }

    /// Whether the simulator is recording events in `scope`. Lets agents
    /// skip building trace payloads when tracing is off.
    pub fn trace_enabled(&self, scope: TraceScope) -> bool {
        self.tracer.scope_enabled(scope)
    }

    /// Records a trace event at the current simulation time if `scope`
    /// is enabled; a no-op (one branch) otherwise.
    pub fn trace(&mut self, scope: TraceScope, kind: TraceKind) {
        self.tracer.record_with(scope, self.now.as_nanos(), || kind);
    }
}

/// A node in the topology.
#[derive(Debug)]
pub(crate) enum Node {
    Host { name: String, agent: Box<dyn Agent> },
    Switch { name: String },
}

impl Node {
    pub(crate) fn name(&self) -> &str {
        match self {
            Node::Host { name, .. } | Node::Switch { name } => name,
        }
    }

    pub(crate) fn is_host(&self) -> bool {
        matches!(self, Node::Host { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Nop;

    impl Agent for Nop {
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_queues_actions_in_order() {
        let mut actions = Vec::new();
        let mut next = 0u64;
        let mut tracer = Tracer::disabled();
        let mut ctx = Context::new(
            SimTime::ZERO,
            NodeId::from_index(0),
            &mut actions,
            &mut next,
            &mut tracer,
        );
        let t1 = ctx.set_timer(SimDuration::from_micros(5));
        let t2 = ctx.set_timer(SimDuration::from_micros(9));
        assert_ne!(t1, t2);
        ctx.cancel_timer(t1);
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::SetTimer { .. }));
        assert!(matches!(actions[2], Action::CancelTimer(t) if t == t1));
    }

    #[test]
    fn cancel_none_token_is_noop() {
        let mut actions = Vec::new();
        let mut next = 0u64;
        let mut tracer = Tracer::disabled();
        let mut ctx = Context::new(
            SimTime::ZERO,
            NodeId::from_index(0),
            &mut actions,
            &mut next,
            &mut tracer,
        );
        ctx.cancel_timer(TimerToken::NONE);
        assert!(actions.is_empty());
    }

    #[test]
    fn past_deadline_clamps_to_now() {
        let mut actions = Vec::new();
        let mut next = 0u64;
        let now = SimTime::from_nanos(100);
        let mut tracer = Tracer::disabled();
        let mut ctx = Context::new(
            now,
            NodeId::from_index(0),
            &mut actions,
            &mut next,
            &mut tracer,
        );
        ctx.set_timer_at(SimTime::from_nanos(10));
        match &actions[0] {
            Action::SetTimer { at, .. } => assert_eq!(*at, now),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn node_accessors() {
        let h = Node::Host {
            name: "h1".into(),
            agent: Box::new(Nop),
        };
        let s = Node::Switch { name: "s1".into() };
        assert!(h.is_host());
        assert!(!s.is_host());
        assert_eq!(h.name(), "h1");
        assert_eq!(s.name(), "s1");
    }
}
