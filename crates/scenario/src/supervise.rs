//! Failure domains for supervised cell execution.
//!
//! One matrix cell is the unit of isolation: a cell that panics or
//! fails its simulation is converted into a typed [`CellError`] carried
//! in the artifact's `failures` block instead of taking down the run.
//! Nothing here reads a clock. A cell that would run forever is stopped
//! by the simulator's own event budget, derived from the cell's links
//! and simulated span, and fails like any other simulation error.
//!
//! Every [`CellError`] message is a function of the scenario
//! configuration and the panic site alone, so a failure is as
//! deterministic as a result: it is stored in the cell's cache entry
//! and replayed on the next run, and artifacts stay byte-identical
//! across machines, runs and resumes.

use dctcp_sim::{
    Agent, Context, LinkSpec, Packet, QueueConfig, SimDuration, SimError, Simulator, TimerToken,
    TopologyBuilder,
};

/// Why one matrix cell was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's worker panicked (payload rendered as text).
    Panicked {
        /// The panic message.
        msg: String,
    },
    /// The simulation returned a typed error, including a runaway
    /// stopped by its event budget.
    Failed {
        /// The rendered simulator error.
        msg: String,
    },
}

impl CellError {
    /// Stable one-token failure kind, used in the cache entry and the
    /// artifact's `failures` block.
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Panicked { .. } => "panicked",
            CellError::Failed { .. } => "failed",
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked { msg } => write!(f, "panicked: {msg}"),
            CellError::Failed { msg } => write!(f, "{msg}"),
        }
    }
}

/// Re-arms a 1 ns timer from every callback: the clock advances, so no
/// livelock trips, and the run ends only at its event budget.
#[derive(Debug)]
struct Runaway;

impl Agent for Runaway {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_nanos(1));
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_nanos(1));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The `[limits] inject_stall` fault: a runaway agent at each end of
/// one 1 Gb/s link, run for 10 ms of simulated time. They exhaust the
/// simulator's budget of 1.25 M events, so the cell fails the same way,
/// with the same message, on every machine.
pub(crate) fn run_runaway() -> Result<(), SimError> {
    let mut b = TopologyBuilder::new();
    let a = b.host("a", Box::new(Runaway));
    let z = b.host("z", Box::new(Runaway));
    b.link(
        a,
        z,
        LinkSpec::gbps(1.0, 1),
        QueueConfig::host_nic(),
        QueueConfig::host_nic(),
    )?;
    Simulator::new(b.build()?).run_for(SimDuration::from_millis(10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_tokens() {
        assert_eq!(
            CellError::Panicked { msg: "boom".into() }.kind(),
            "panicked"
        );
        assert_eq!(CellError::Failed { msg: "sim".into() }.kind(), "failed");
    }

    #[test]
    fn runaway_fails_on_the_event_budget() {
        let err = run_runaway().unwrap_err();
        assert!(
            matches!(err, SimError::EventBudgetExhausted { .. }),
            "{err:?}"
        );
        assert_eq!(err, run_runaway().unwrap_err(), "deterministic");
    }
}
