//! Miner traits and algorithm selection.

use crate::aclose::AClose;
use crate::charm::Charm;
use crate::close::Close;
use crate::itemsets::{ClosedItemsets, FrequentItemsets, MiningStats};
use crate::sink::ClosedSink;
use rulebases_dataset::{MinSupport, MiningContext, Parallelism, SupportEngine};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A miner producing all frequent itemsets.
pub trait FrequentMiner {
    /// Stable identifier for reports and benchmarks.
    fn name(&self) -> &'static str;
    /// Mines the frequent itemsets of `ctx` at `minsup`.
    fn mine_frequent(&self, ctx: &MiningContext, minsup: MinSupport) -> FrequentItemsets;
}

/// A miner producing the frequent closed itemsets `FC`.
pub trait ClosedMiner {
    /// Stable identifier for reports and benchmarks.
    fn name(&self) -> &'static str;
    /// Mines the frequent closed itemsets of `ctx` at `minsup`.
    fn mine_closed(&self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets;
}

/// Which closed-itemset algorithm to run — the paper's two (Close,
/// A-Close) plus the CHARM cross-check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClosedAlgorithm {
    /// Levelwise generators with per-level closures (Pasquier et al. 1999).
    #[default]
    Close,
    /// Levelwise minimal generators, closures at the end (ICDT'99).
    AClose,
    /// Vertical IT-tree search (Zaki & Hsiao).
    Charm,
}

impl ClosedAlgorithm {
    /// All algorithm variants, for exhaustive testing and benchmarking.
    pub const ALL: [ClosedAlgorithm; 3] = [
        ClosedAlgorithm::Close,
        ClosedAlgorithm::AClose,
        ClosedAlgorithm::Charm,
    ];

    /// Runs the selected algorithm through the context's (cached) engine.
    pub fn mine(self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets {
        self.mine_engine(ctx.engine(), minsup)
    }

    /// Runs the selected algorithm against any [`SupportEngine`] backend —
    /// the (algorithm × representation) ablation entry point — under the
    /// default ([`Parallelism::Auto`]) thread policy.
    pub fn mine_engine(self, engine: &dyn SupportEngine, minsup: MinSupport) -> ClosedItemsets {
        self.mine_engine_par(engine, minsup, Parallelism::default())
    }

    /// Runs the selected algorithm against any [`SupportEngine`] backend
    /// under an explicit thread policy. CHARM's IT-tree search is
    /// inherently sequential and ignores the policy.
    pub fn mine_engine_par(
        self,
        engine: &dyn SupportEngine,
        minsup: MinSupport,
        parallelism: Parallelism,
    ) -> ClosedItemsets {
        match self {
            ClosedAlgorithm::Close => Close::new()
                .parallelism(parallelism)
                .mine_engine(engine, minsup),
            ClosedAlgorithm::AClose => AClose::new()
                .parallelism(parallelism)
                .mine_engine(engine, minsup),
            ClosedAlgorithm::Charm => Charm::new().mine_engine(engine, minsup),
        }
    }

    /// Runs the selected algorithm against any [`SupportEngine`] backend
    /// under an explicit thread policy, streaming every discovered closed
    /// set into `sink` instead of materializing a container — the entry
    /// point of the fused pipeline. Returns the miner's bookkeeping.
    pub fn mine_sink_par(
        self,
        engine: &dyn SupportEngine,
        minsup: MinSupport,
        parallelism: Parallelism,
        sink: &mut dyn ClosedSink,
    ) -> MiningStats {
        match self {
            ClosedAlgorithm::Close => Close::new()
                .parallelism(parallelism)
                .mine_engine_sink(engine, minsup, sink),
            ClosedAlgorithm::AClose => AClose::new()
                .parallelism(parallelism)
                .mine_engine_sink(engine, minsup, sink),
            ClosedAlgorithm::Charm => Charm::new().mine_engine_sink(engine, minsup, sink),
        }
    }

    /// Stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            ClosedAlgorithm::Close => "close",
            ClosedAlgorithm::AClose => "a-close",
            ClosedAlgorithm::Charm => "charm",
        }
    }
}

impl fmt::Display for ClosedAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::paper_example;

    #[test]
    fn all_algorithms_agree_via_enum() {
        let ctx = MiningContext::new(paper_example());
        let reference = ClosedAlgorithm::Close.mine(&ctx, MinSupport::Count(2));
        for algo in ClosedAlgorithm::ALL {
            let fc = algo.mine(&ctx, MinSupport::Count(2));
            assert_eq!(
                fc.into_sorted_vec(),
                reference.clone().into_sorted_vec(),
                "{algo}"
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ClosedAlgorithm::Close.to_string(), "close");
        assert_eq!(ClosedAlgorithm::AClose.to_string(), "a-close");
        assert_eq!(ClosedAlgorithm::Charm.to_string(), "charm");
    }
}
