//! A serial stand-in for the deleted intra-run sharded engine.

use std::ops::{Deref, DerefMut};

use crate::{Network, SimError, Simulator};

/// A plain [`Simulator`] under the name of the intra-run sharded engine
/// this crate no longer has.
///
/// It exists only so the frozen benchmark (`benchmark/`), which still
/// names this type and calls [`ShardedSimulator::with_shards`], keeps
/// compiling. Every run is serial. It is a newtype, not an alias,
/// because the benchmark implements the same trait for both types. New
/// code uses [`Simulator`].
#[derive(Debug)]
pub struct ShardedSimulator(Simulator);

impl ShardedSimulator {
    /// A serial simulator over `network`.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the benchmark's call sites.
    pub fn new(network: Network) -> Result<Self, SimError> {
        Ok(ShardedSimulator(Simulator::new(network)))
    }

    /// The same as [`ShardedSimulator::new`]: the shard target is
    /// ignored.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the benchmark's call sites.
    pub fn with_shards(network: Network, _target: usize) -> Result<Self, SimError> {
        Self::new(network)
    }
}

impl Deref for ShardedSimulator {
    type Target = Simulator;
    fn deref(&self) -> &Simulator {
        &self.0
    }
}

impl DerefMut for ShardedSimulator {
    fn deref_mut(&mut self) -> &mut Simulator {
        &mut self.0
    }
}
