//! The **Close** algorithm (Pasquier, Bastide, Taouil, Lakhal —
//! Information Systems 24(1), 1999).
//!
//! Close mines the frequent *closed* itemsets `FC` directly, levelwise over
//! *generator* itemsets: at each level it keeps the candidate generators,
//! computes their closures by intersecting the transactions of their
//! extents, and prunes any candidate that is contained in the closure of
//! one of its facets (such a candidate has the same closure and would be
//! redundant). Because closures jump ahead of the levelwise frontier,
//! Close needs far fewer database passes than Apriori on correlated data —
//! the efficiency claim of the paper family.

use crate::candidates::join_and_prune;
use crate::counting::map_level;
use crate::itemsets::{ClosedItemsets, MiningStats};
use crate::sink::{ClosedSink, CollectSink};
use crate::traits::ClosedMiner;
use rulebases_dataset::{
    Item, Itemset, MinSupport, MiningContext, Parallelism, Support, SupportEngine,
};
use std::collections::HashMap;

/// The Close frequent-closed-itemset miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Close {
    /// Thread policy for the per-level extent/closure fan-out.
    pub parallelism: Parallelism,
}

impl Close {
    /// Creates a Close miner.
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
    /// The result always contains the lattice bottom `h(∅)` (the items
    /// common to all objects — possibly the empty itemset), which the
    /// rule-base constructions need.
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
    /// `minsup`, streaming every discovered closed set (tagged with the
    /// generator that reached it) into `sink` instead of materializing a
    /// container. One closure class may be emitted once per generator;
    /// sinks deduplicate (see [`ClosedSink`]).
    pub fn mine_engine_sink(
        &self,
        engine: &dyn SupportEngine,
        minsup: MinSupport,
        sink: &mut dyn ClosedSink,
    ) -> MiningStats {
        let n = engine.n_objects();
        let mut stats = MiningStats::default();
        if n == 0 {
            return stats;
        }
        let min_count = minsup.to_count(n);

        // Lattice bottom: closure of the empty set, supported by every
        // object — frequent unless the threshold exceeds |O|.
        if n as Support >= min_count {
            sink.accept(
                &engine.closure(&Itemset::empty()),
                n as Support,
                Some(&Itemset::empty()),
            );
        }

        // Level 1: singleton generators. One pass computes extents,
        // supports and closures.
        stats.db_passes += 1;
        let mut generators: Vec<Itemset> = Vec::new();
        let mut closures: HashMap<Itemset, Itemset> = HashMap::new();
        for i in 0..engine.n_items() {
            stats.candidates_counted += 1;
            let cover = engine.cover(Item::new(i as u32));
            let support = cover.count() as Support;
            if support < min_count {
                continue;
            }
            let generator = Itemset::from_ids([i as u32]);
            let closure = engine.closure_of_tidset(&cover);
            // A full-support singleton reaches the bottom, whose minimal
            // generator is ∅ (tagged above) — the singleton is not one.
            let tag = (support < n as Support).then_some(&generator);
            sink.accept(&closure, support, tag);
            closures.insert(generator.clone(), closure);
            generators.push(generator);
        }

        // Levels k >= 2 over generators.
        while generators.len() >= 2 {
            let mut candidates = join_and_prune(&generators);
            // Close-specific prune: if a candidate is contained in the
            // closure of one of its facets, it has that facet's closure —
            // already recorded.
            candidates.retain(|c| {
                !c.facets()
                    .any(|facet| closures.get(&facet).is_some_and(|cl| c.is_subset_of(cl)))
            });
            if candidates.is_empty() {
                break;
            }
            stats.db_passes += 1;
            stats.candidates_counted += candidates.len();
            // Each candidate is independent (extent → support filter →
            // closure), so wide levels fan over candidate chunks on every
            // engine: engines never spawn, so the level spawns once per
            // chunk. The merge below runs sequentially in candidate
            // order, keeping the output deterministic whatever the
            // thread policy.
            let evaluate = |candidate: &Itemset| {
                let extent = engine.tidset_of(candidate);
                let support = extent.count() as Support;
                (support >= min_count).then(|| (engine.closure_of_tidset(&extent), support))
            };
            let evaluated: Vec<Option<(Itemset, Support)>> =
                map_level(self.parallelism, &candidates, evaluate);
            let mut next_generators = Vec::with_capacity(candidates.len());
            let mut next_closures = HashMap::with_capacity(candidates.len());
            for (candidate, result) in candidates.into_iter().zip(evaluated) {
                let Some((closure, support)) = result else {
                    continue;
                };
                sink.accept(&closure, support, Some(&candidate));
                next_closures.insert(candidate.clone(), closure);
                next_generators.push(candidate);
            }
            generators = next_generators;
            closures = next_closures;
        }

        stats
    }
}

impl ClosedMiner for Close {
    fn name(&self) -> &'static str {
        "close"
    }

    fn mine_closed(&self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets {
        self.mine(ctx, minsup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::paper_example;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn paper_example_closed_sets() {
        let ctx = MiningContext::new(paper_example());
        let fc = Close::new().mine(&ctx, MinSupport::Fraction(0.4));
        // FC at minsup 2/5: ∅ (bottom), C, AC, BE, BCE, ABCE.
        let sets: Vec<Itemset> = fc.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(
            sets,
            vec![
                Itemset::empty(),
                set(&[3]),
                set(&[1, 3]),
                set(&[2, 5]),
                set(&[2, 3, 5]),
                set(&[1, 2, 3, 5]),
            ]
        );
        assert_eq!(fc.support_of_closed(&set(&[3])), Some(4));
        assert_eq!(fc.support_of_closed(&set(&[1, 3])), Some(3));
        assert_eq!(fc.support_of_closed(&set(&[2, 5])), Some(4));
        assert_eq!(fc.support_of_closed(&set(&[2, 3, 5])), Some(3));
        assert_eq!(fc.support_of_closed(&set(&[1, 2, 3, 5])), Some(2));
    }

    #[test]
    fn minsup_one_includes_acd() {
        let ctx = MiningContext::new(paper_example());
        let fc = Close::new().mine(&ctx, MinSupport::Count(1));
        assert_eq!(fc.support_of_closed(&set(&[1, 3, 4])), Some(1));
        // 7 closed sets: bottom ∅, C, AC, BE, BCE, ACD, ABCE.
        assert_eq!(fc.len(), 7);
    }

    #[test]
    fn every_reported_set_is_closed_and_frequent() {
        let ctx = MiningContext::new(paper_example());
        let fc = Close::new().mine(&ctx, MinSupport::Count(2));
        for (s, sup) in fc.iter() {
            assert!(ctx.is_closed(s), "{s:?} not closed");
            assert_eq!(ctx.support(s), sup, "{s:?} support");
            assert!(sup >= 2 || s.is_empty());
        }
    }

    #[test]
    fn bottom_with_common_item() {
        // Item 7 occurs in every transaction: h(∅) = {7}.
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![
            vec![1, 7],
            vec![2, 7],
            vec![7],
        ]));
        let fc = Close::new().mine(&ctx, MinSupport::Count(1));
        assert_eq!(fc.support_of_closed(&set(&[7])), Some(3));
        // ∅ itself is *not* closed here.
        assert!(!fc.contains(&Itemset::empty()));
    }

    #[test]
    fn fewer_passes_than_apriori_on_correlated_data() {
        let ctx = MiningContext::new(paper_example());
        let fc = Close::new().mine(&ctx, MinSupport::Count(2));
        let f = crate::apriori::Apriori::new().mine(&ctx, MinSupport::Count(2));
        assert!(
            fc.stats.db_passes < f.stats.db_passes,
            "close passes {} !< apriori passes {}",
            fc.stats.db_passes,
            f.stats.db_passes
        );
    }

    #[test]
    fn empty_context() {
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![]));
        let fc = Close::new().mine(&ctx, MinSupport::Count(1));
        assert!(fc.is_empty());
    }

    #[test]
    fn forced_parallelism_matches_sequential() {
        // Wide enough for multiple chunks under Fixed(3); the engine
        // backend and the thread policy must not change a single closed
        // set or support.
        use rulebases_dataset::EngineKind;
        let rows: Vec<Vec<u32>> = (0..90u32)
            .map(|t| vec![t % 4, 4 + t % 3, 7 + (t / 2) % 5])
            .collect();
        let db = rulebases_dataset::TransactionDb::from_rows(rows);
        let sequential = Close::new()
            .parallelism(Parallelism::Off)
            .mine(&MiningContext::new(db.clone()), MinSupport::Count(2));
        for kind in EngineKind::BACKENDS {
            let ctx = MiningContext::with_engine(db.clone(), kind);
            for threads in [2, 3, 8] {
                let parallel = Close::new()
                    .parallelism(Parallelism::Fixed(threads))
                    .mine(&ctx, MinSupport::Count(2));
                assert_eq!(
                    parallel.clone().into_sorted_vec(),
                    sequential.clone().into_sorted_vec(),
                    "{} threads={threads}",
                    ctx.resolved_kind()
                );
            }
        }
    }
}
