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
//!
//! In the paper, one pass over the objects counts a level's generators
//! and closes the frequent ones together. Here that step is one batch
//! query, [`SupportEngine::close_candidates`], asked once per chunk of
//! each level; it returns each frequent candidate with its closure and
//! support, and nothing for the rest. How the engine answers is its
//! choice: on a pair level
//! over many short rows it counts every pair in one pass over the rows
//! and builds extents for the frequent pairs alone, elsewhere it
//! intersects one extent per candidate. A closure merged from rows stops
//! once it is down to its generator (`h(X) ⊇ X`); dense covers close a
//! large extent by testing it against the frequent items' covers instead.
//! A level fans over threads only when its work pays (see
//! [`map_level`]).

use crate::candidates::join_and_prune;
use crate::counting::map_level;
use crate::itemsets::{ClosedItemsets, MiningStats};
use crate::sink::{ClosedSink, CollectSink};
use crate::traits::ClosedMiner;
use rulebases_dataset::{Itemset, MinSupport, MiningContext, Parallelism, Support, SupportEngine};
use std::collections::HashMap;

/// The Close frequent-closed-itemset miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Close {
    /// Thread policy for the per-level fan-out of the level step.
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

        // Level 1 is the singleton candidates; level k + 1 joins level k's
        // frequent generators and drops every candidate inside one of its
        // facets' closures — it has that facet's closure, already
        // recorded. Each level is one batch query per chunk: chunks fan
        // over threads when the level prices above the thread budget
        // (engines never spawn, so the level spawns once per chunk), and
        // the merge below runs sequentially in candidate order, keeping
        // the output deterministic whatever the thread policy.
        let mut candidates: Vec<Itemset> = (0..engine.n_items() as u32)
            .map(|i| Itemset::from_ids([i]))
            .collect();
        loop {
            stats.db_passes += 1;
            stats.candidates_counted += candidates.len();
            let closed = map_level(self.parallelism, n, &candidates, |chunk| {
                engine.close_candidates(chunk, min_count)
            });
            let mut generators = Vec::with_capacity(closed.len());
            let mut closures = HashMap::with_capacity(closed.len());
            for (candidate, closure, support) in closed {
                // A full-support candidate reaches the bottom, whose
                // minimal generator is ∅ (tagged above) — the candidate
                // is not one. Only a singleton can: a longer one lies
                // inside its facets' closure, the bottom, and was pruned.
                let tag = (support < n as Support).then_some(candidate);
                sink.accept(&closure, support, tag);
                closures.insert(candidate.clone(), closure);
                generators.push(candidate.clone());
            }
            candidates = join_and_prune(&generators);
            candidates.retain(|c| {
                !c.facets()
                    .any(|facet| closures.get(&facet).is_some_and(|cl| c.is_subset_of(cl)))
            });
            if candidates.is_empty() {
                break;
            }
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
    fn counters_match_the_per_candidate_path_where_the_pair_pass_is_taken() {
        // The T10I4D100K stand-in at 10,000 rows, minsup 0.01: its pair
        // level takes the pair pass on both backends, yet the cache
        // tallies what the per-candidate path would — one extent per
        // item and per candidate, one intent per frequent generator, no
        // support query, and one closure lookup (the bottom).
        use rulebases_dataset::engine::{DenseEngine, TidListEngine};
        use rulebases_dataset::generator::QuestConfig;
        use rulebases_dataset::EngineKind;
        use std::sync::Arc;

        #[derive(Default)]
        struct Emissions(u64);
        impl ClosedSink for Emissions {
            fn accept(&mut self, _: &Itemset, _: Support, _: Option<&Itemset>) {
                self.0 += 1;
            }
        }

        let db = Arc::new(QuestConfig::t10i4(10_000, 0x7101_0400).generate());
        let minsup = MinSupport::Fraction(0.01);
        let min_count = minsup.to_count(db.n_transactions());
        let singletons: Vec<Itemset> = (0..db.n_items() as u32)
            .map(|i| Itemset::from_ids([i]))
            .filter(|i| db.support(i) >= min_count)
            .collect();
        let pairs = join_and_prune(&singletons);
        assert!(DenseEngine::from_horizontal(&db).takes_pair_pass(&pairs));
        assert!(TidListEngine::from_horizontal(&db).takes_pair_pass(&pairs));

        for kind in EngineKind::BACKENDS {
            let ctx = MiningContext::with_engine((*db).clone(), kind);
            let mut sink = Emissions::default();
            let stats = Close::new().mine_engine_sink(ctx.engine(), minsup, &mut sink);
            let cache = ctx.closure_cache_stats();
            let widths = stats.candidates_counted - db.n_items();
            assert!(widths > 10_000, "{kind}: the pair level is {widths} wide");
            assert_eq!(stats.db_passes, 2, "{kind}");
            assert_eq!(cache.extents, (db.n_items() + widths) as u64, "{kind}");
            assert_eq!(cache.supports, 0, "{kind}");
            // Every emission but the bottom's is a frequent generator.
            assert_eq!(cache.intents, sink.0 - 1, "{kind}");
            assert_eq!(cache.lookups(), 1, "{kind}");
        }
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
