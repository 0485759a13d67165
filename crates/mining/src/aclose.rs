//! The **A-Close** algorithm (Pasquier, Bastide, Taouil, Lakhal —
//! ICDT'99).
//!
//! A-Close splits closed-set mining in two phases: (1) a levelwise pass
//! discovering the frequent *minimal generators* (pruning any candidate
//! whose support equals a facet's — such a candidate cannot be minimal in
//! its closure class), then (2) one closure computation per generator.
//! Compared to Close it defers the (expensive) closures to the end, at the
//! price of counting a few more candidates.

use crate::counting::map_level;
use crate::generators::mine_generators_engine;
use crate::itemsets::{ClosedItemsets, MiningStats};
use crate::sink::{ClosedSink, CollectSink};
use crate::traits::ClosedMiner;
use rulebases_dataset::{Itemset, MinSupport, MiningContext, Parallelism, Support, SupportEngine};

/// The A-Close frequent-closed-itemset miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct AClose {
    /// Thread policy for the closure phase (one closure per generator —
    /// embarrassingly parallel).
    pub parallelism: Parallelism,
}

impl AClose {
    /// Creates an A-Close miner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread policy (default [`Parallelism::Auto`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Mines the frequent closed itemsets of `ctx` at `minsup`, through
    /// the context's (cached) engine.
    pub fn mine(&self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets {
        self.mine_engine(ctx.engine(), minsup)
    }

    /// Mines the frequent closed itemsets of any [`SupportEngine`] at
    /// `minsup`.
    ///
    /// Like [`crate::close::Close`], the result contains the lattice
    /// bottom `h(∅)`.
    pub fn mine_engine(&self, engine: &dyn SupportEngine, minsup: MinSupport) -> ClosedItemsets {
        let n = engine.n_objects();
        if n == 0 {
            return ClosedItemsets::from_pairs(Vec::new(), 1, 0);
        }
        let min_count = minsup.to_count(n);
        let mut sink = CollectSink::new();
        let stats = self.mine_engine_sink(engine, minsup, &mut sink);
        let mut result = sink.into_closed(min_count, n);
        result.stats = stats;
        result
    }

    /// Mines the frequent closed itemsets of any [`SupportEngine`] at
    /// `minsup`, streaming every `(closure, support)` pair into `sink`
    /// tagged with the minimal generator it was closed from. Distinct
    /// generators of one closure class produce duplicate emissions; sinks
    /// deduplicate (see [`ClosedSink`]).
    pub fn mine_engine_sink(
        &self,
        engine: &dyn SupportEngine,
        minsup: MinSupport,
        sink: &mut dyn ClosedSink,
    ) -> MiningStats {
        let n = engine.n_objects();
        if n == 0 {
            return MiningStats::default();
        }
        let min_count = minsup.to_count(n);

        // Phase 1: frequent minimal generators (includes ∅ for the bottom).
        let generators = mine_generators_engine(engine, min_count);
        let mut stats = generators.stats;

        // Phase 2: close every generator. One extra conceptual pass;
        // closures are independent, so generator sets priced above the
        // thread budget fan over chunks (results stay in generator order
        // — emission stays deterministic), on every engine: closures run
        // on the calling thread, so the phase spawns once per chunk.
        stats.db_passes += 1;
        let close_one = |(g, support): &(&Itemset, Support)| (engine.closure(g), *support);
        let gens: Vec<(&Itemset, Support)> = generators.iter().collect();
        let pairs: Vec<(Itemset, Support)> = map_level(self.parallelism, n, &gens, |chunk| {
            chunk.iter().map(close_one).collect()
        });
        for ((generator, _), (closure, support)) in gens.iter().zip(&pairs) {
            sink.accept(closure, *support, Some(generator));
        }
        stats
    }
}

impl ClosedMiner for AClose {
    fn name(&self) -> &'static str {
        "a-close"
    }

    fn mine_closed(&self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets {
        self.mine(ctx, minsup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close::Close;
    use rulebases_dataset::paper_example;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn matches_close_on_paper_example() {
        let ctx = MiningContext::new(paper_example());
        for minsup in [
            MinSupport::Count(1),
            MinSupport::Count(2),
            MinSupport::Count(3),
            MinSupport::Fraction(0.8),
        ] {
            let a = AClose::new().mine(&ctx, minsup);
            let c = Close::new().mine(&ctx, minsup);
            assert_eq!(
                a.clone().into_sorted_vec(),
                c.clone().into_sorted_vec(),
                "at {minsup}"
            );
        }
    }

    #[test]
    fn closed_sets_are_closed() {
        let ctx = MiningContext::new(paper_example());
        let fc = AClose::new().mine(&ctx, MinSupport::Count(2));
        for (s, sup) in fc.iter() {
            assert!(ctx.is_closed(s), "{s:?}");
            assert_eq!(ctx.support(s), sup);
        }
    }

    #[test]
    fn paper_example_counts() {
        let ctx = MiningContext::new(paper_example());
        let fc = AClose::new().mine(&ctx, MinSupport::Count(2));
        assert_eq!(fc.len(), 6); // ∅, C, AC, BE, BCE, ABCE
        assert_eq!(fc.support_of_closed(&set(&[2, 3, 5])), Some(3));
    }

    #[test]
    fn empty_context() {
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![]));
        assert!(AClose::new().mine(&ctx, MinSupport::Count(1)).is_empty());
    }

    #[test]
    fn forced_parallelism_matches_sequential() {
        // The fanned closure phase must match the sequential mine on
        // every backend.
        use rulebases_dataset::EngineKind;
        let rows: Vec<Vec<u32>> = (0..80u32)
            .map(|t| vec![t % 4, 4 + t % 3, 7 + (t / 2) % 4])
            .collect();
        let db = rulebases_dataset::TransactionDb::from_rows(rows);
        let sequential = AClose::new()
            .parallelism(Parallelism::Off)
            .mine(&MiningContext::new(db.clone()), MinSupport::Count(2));
        for kind in EngineKind::BACKENDS {
            let ctx = MiningContext::with_engine(db.clone(), kind);
            let parallel = AClose::new()
                .parallelism(Parallelism::Fixed(3))
                .mine(&ctx, MinSupport::Count(2));
            assert_eq!(
                parallel.into_sorted_vec(),
                sequential.clone().into_sorted_vec(),
                "{}",
                ctx.resolved_kind()
            );
        }
    }
}
