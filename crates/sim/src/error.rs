//! Simulator errors.

use std::error::Error;
use std::fmt;

use dctcp_core::ParamError;

use crate::{LinkId, NodeId, SimTime};

/// Errors from building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The topology is malformed (disconnected hosts, self-links,
    /// duplicate attachments, …).
    InvalidTopology(String),
    /// A queue or algorithm parameter is invalid.
    Param(ParamError),
    /// A queue fault-injection or reordering configuration is invalid
    /// (out-of-range probability, zero reorder depth, …).
    InvalidConfig(String),
    /// A node id does not name any node in this network.
    UnknownNode(NodeId),
    /// The node exists but is a switch, and the operation needs a host
    /// agent.
    NotAHost(NodeId),
    /// The host exists but runs an agent of a different concrete type
    /// than the one requested.
    AgentTypeMismatch(NodeId),
    /// A link id does not name any link in this network.
    UnknownLink(LinkId),
    /// A fault event was scheduled in the simulation's past.
    FaultInPast {
        /// The requested fault instant.
        at: SimTime,
        /// The simulator clock when the plan was installed.
        now: SimTime,
    },
    /// `run_until` was asked to run to an instant before the current
    /// clock.
    TimeReversal {
        /// The current simulator clock.
        now: SimTime,
        /// The requested (earlier) target instant.
        requested: SimTime,
    },
    /// The progress watchdog tripped: too many events fired at a single
    /// instant without the clock advancing (an agent is looping on
    /// zero-delay timers or messages).
    Livelock {
        /// The instant the simulation is stuck at.
        at: SimTime,
        /// Events dispatched at that instant before giving up.
        dispatched: u64,
    },
    /// A `run_until` call dispatched more events than its network can
    /// legitimately produce over the span (a runaway agent).
    EventBudgetExhausted {
        /// The call's budget, derived from the span and the link rates.
        budget: u64,
        /// The simulator clock when the budget ran out.
        at: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            SimError::Param(e) => write!(f, "invalid parameter: {e}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SimError::NotAHost(n) => write!(f, "node {n} is a switch, not a host"),
            SimError::AgentTypeMismatch(n) => {
                write!(f, "host {n} runs a different agent type")
            }
            SimError::UnknownLink(l) => write!(f, "unknown link {l}"),
            SimError::FaultInPast { at, now } => {
                write!(f, "fault scheduled at {at}, before current time {now}")
            }
            SimError::TimeReversal { now, requested } => {
                write!(f, "cannot run backwards to {requested} from {now}")
            }
            SimError::Livelock { at, dispatched } => write!(
                f,
                "livelock: {dispatched} events dispatched at {at} without the clock advancing"
            ),
            SimError::EventBudgetExhausted { budget, at } => {
                write!(f, "event budget of {budget} exhausted at {at}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Param(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for SimError {
    fn from(e: ParamError) -> Self {
        SimError::Param(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        let e = SimError::InvalidTopology("host h9 unreachable".into());
        assert_eq!(e.to_string(), "invalid topology: host h9 unreachable");
        let e = SimError::Livelock {
            at: SimTime::from_nanos(5),
            dispatched: 1000,
        };
        assert!(e.to_string().contains("livelock"));
        let e = SimError::TimeReversal {
            now: SimTime::from_nanos(100),
            requested: SimTime::from_nanos(50),
        };
        assert!(e.to_string().contains("cannot run backwards"));
    }

    #[test]
    fn param_error_chains_source() {
        let inner = dctcp_core::DoubleThreshold::new(
            dctcp_core::QueueLevel::Packets(5),
            dctcp_core::QueueLevel::Packets(4),
        )
        .unwrap_err();
        let e = SimError::from(inner);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
