//! The fused one-pass pipeline.
//!
//! The staged pipeline ([`RuleMiner`] with [`PipelineKind::Staged`])
//! mines `FC`, builds the Hasse diagram with
//! [`IcebergLattice::from_closed`], and re-mines the frequent itemsets
//! from the database by Apriori before the bases are derived.
//! [`FusedMiner`] reads every product off the one mining pass instead:
//!
//! * as Close / A-Close / CHARM prove each closed set, it streams through
//!   a [`ClosedSink`] that collects the emissions and, per closed set,
//!   the minimal generators the levelwise miners prove for free (kept
//!   subsumption-minimal as they arrive). `FC` is built once from them,
//!   and its diagram with the staged pipeline's pairwise
//!   [`IcebergLattice::from_closed`]: on the stand-in families that
//!   costs less than maintaining the covering relation insertion by
//!   insertion during the traversal (the construction Hamrouni et al.
//!   describe);
//! * the frequent itemsets are *derived* from `FC` by the generating-set
//!   property of the paper's Definition 1 (every frequent itemset is a
//!   subset of a frequent closed itemset and takes its closure's
//!   support) instead of re-mined — no second levelwise database scan.
//!   [`ClosedItemsets::expand_to_frequent`] visits the closed sets by
//!   descending support and skips every subset, with all of its own,
//!   that a more frequent closed set already yielded;
//! * both Luxenburger bases read straight off the finished lattice (the
//!   reduced basis is its edge set; the full basis its reachability).
//!   The lattice keeps its nodes in canonical order, so taking the pairs
//!   by upper node, then lower node, emits the rules in canonical order
//!   and neither basis sorts them;
//! * the Duquenne-Guigues basis is built from the derived frequent sets
//!   and the already-indexed `FC` ([`frequent_pseudo_closed`]): closed
//!   candidates are skipped by hash probe, and only the `|FP|`
//!   candidates that pass the pseudo-closed test scan `FC` for their
//!   closure. A [`StreamingMiner`](crate::stream::StreamingMiner)
//!   derives its premises the same way, over its iceberg family.
//!
//! Deriving `F` enumerates every subset of every closed set, so a
//! frequent closed set of 64 items or more (at least `2^64` frequent
//! subsets) panics with "closed itemset too large to expand" rather
//! than running forever.
//!
//! The two pipelines are property-tested equal (closed sets, Hasse
//! edges, both bases) across every engine backend in
//! `tests/equivalence.rs`; the `bases-fused` bench ablates their engine
//! traffic via [`MiningContext::closure_cache_stats`] — the fused path
//! answers the same questions with strictly fewer engine calls.
//!
//! [`ClosedSink`]: rulebases_mining::ClosedSink
//! [`ClosedItemsets::expand_to_frequent`]: rulebases_mining::ClosedItemsets::expand_to_frequent
//! [`frequent_pseudo_closed`]: rulebases_lattice::frequent_pseudo_closed

use crate::approx::LuxenburgerBasis;
use crate::exact::DuquenneGuiguesBasis;
use crate::miner::{MinedBases, RuleMiner};
use rulebases_dataset::{Itemset, MinSupport, MiningContext, Support};
use rulebases_lattice::IcebergLattice;
use rulebases_mining::{ClosedItemsets, ClosedSink};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Which traversal structure [`RuleMiner`] runs.
///
/// Spelled `staged` / `fused` in CLI and environment contexts (the
/// [`FromStr`] and [`fmt::Display`] implementations round-trip).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineKind {
    /// The three-pass oracle: mine `FC`, rebuild the Hasse diagram
    /// pairwise, re-mine `F` with Apriori, then derive the bases.
    #[default]
    Staged,
    /// The one-pass path: `FC` and the generator tags collected during
    /// the mining traversal, `F` derived from `FC`, bases read off the
    /// lattice.
    Fused,
}

impl PipelineKind {
    /// Both pipelines — the ablation axis of the `bases-fused` bench and
    /// the equivalence tests.
    pub const ALL: [PipelineKind; 2] = [PipelineKind::Staged, PipelineKind::Fused];

    /// Stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::Staged => "staged",
            PipelineKind::Fused => "fused",
        }
    }
}

impl fmt::Display for PipelineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`PipelineKind`] from its textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePipelineKindError(String);

impl fmt::Display for ParsePipelineKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown pipeline {:?}: expected staged or fused", self.0)
    }
}

impl std::error::Error for ParsePipelineKindError {}

impl FromStr for PipelineKind {
    type Err = ParsePipelineKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "staged" => Ok(PipelineKind::Staged),
            "fused" => Ok(PipelineKind::Fused),
            other => Err(ParsePipelineKindError(other.to_owned())),
        }
    }
}

/// The one-pass bases miner: a [`RuleMiner`] pinned to
/// [`PipelineKind::Fused`], with the same builder surface.
///
/// ```
/// use rulebases::{FusedMiner, MinSupport};
/// use rulebases_dataset::paper_example;
///
/// let bases = FusedMiner::new(MinSupport::Fraction(0.4))
///     .min_confidence(0.5)
///     .mine(paper_example());
/// assert_eq!(bases.dg.len(), 3);
/// assert_eq!(bases.lattice.n_edges(), 7);
/// ```
#[derive(Clone, Debug)]
pub struct FusedMiner {
    inner: RuleMiner,
}

impl FusedMiner {
    /// Creates a fused miner at the given minimum support (same defaults
    /// as [`RuleMiner::new`] otherwise).
    pub fn new(min_support: impl Into<MinSupport>) -> Self {
        FusedMiner {
            inner: RuleMiner::new(min_support).pipeline(PipelineKind::Fused),
        }
    }

    /// Sets the confidence threshold for approximate rules.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn min_confidence(mut self, minconf: f64) -> Self {
        self.inner = self.inner.min_confidence(minconf);
        self
    }

    /// Selects the closed-itemset algorithm driving the traversal.
    pub fn algorithm(mut self, algorithm: rulebases_mining::ClosedAlgorithm) -> Self {
        self.inner = self.inner.algorithm(algorithm);
        self
    }

    /// Selects the [`SupportEngine`](rulebases_dataset::SupportEngine)
    /// backend (see [`RuleMiner::engine`]).
    pub fn engine(mut self, engine: rulebases_dataset::EngineKind) -> Self {
        self.inner = self.inner.engine(engine);
        self
    }

    /// Sets the thread policy (see [`RuleMiner::parallelism`]).
    pub fn parallelism(mut self, parallelism: rulebases_dataset::Parallelism) -> Self {
        self.inner = self.inner.parallelism(parallelism);
        self
    }

    /// Also emit rules with an empty antecedent; off by default.
    pub fn include_empty_antecedent(mut self, include: bool) -> Self {
        self.inner = self.inner.include_empty_antecedent(include);
        self
    }

    /// Runs the fused pipeline on a database.
    pub fn mine(&self, db: rulebases_dataset::TransactionDb) -> MinedBases {
        self.inner.mine(db)
    }

    /// Runs the fused pipeline on an existing context (keeping that
    /// context's engine).
    pub fn mine_context(&self, ctx: &MiningContext) -> MinedBases {
        self.inner.mine_context(ctx)
    }
}

/// The sink the fused traversal mines into: every `(set, support)`
/// emission, duplicates included (conflicting supports panic when `FC`
/// is built), and per closed set the miner-proven generators, kept
/// subsumption-minimal as they arrive.
#[derive(Default)]
struct TaggedClosedSink {
    pairs: Vec<(Itemset, Support)>,
    generators: HashMap<Itemset, Vec<Itemset>>,
}

impl TaggedClosedSink {
    /// `FC` at `min_count` over `n_objects` rows, and aligned with its
    /// canonical order (the lattice's node order) each set's sorted
    /// generator tags — empty for a set the miner never tagged.
    fn finish(
        mut self,
        min_count: Support,
        n_objects: usize,
    ) -> (ClosedItemsets, Vec<Vec<Itemset>>) {
        let closed = ClosedItemsets::from_pairs(self.pairs, min_count, n_objects);
        let tags = closed
            .iter()
            .map(|(set, _)| {
                let mut tags = self.generators.remove(set).unwrap_or_default();
                tags.sort();
                tags
            })
            .collect();
        (closed, tags)
    }
}

impl ClosedSink for TaggedClosedSink {
    fn accept(&mut self, set: &Itemset, support: Support, generator: Option<&Itemset>) {
        self.pairs.push((set.clone(), support));
        let Some(g) = generator else {
            return;
        };
        // A tag containing a recorded one is not minimal; a new tag
        // drops the recorded ones it lies inside.
        match self.generators.get_mut(set) {
            Some(tags) if tags.iter().any(|t| t.is_subset_of(g)) => {}
            Some(tags) => {
                tags.retain(|t| !g.is_subset_of(t));
                tags.push(g.clone());
            }
            None => {
                self.generators.insert(set.clone(), vec![g.clone()]);
            }
        }
    }
}

/// Assembles a [`MinedBases`] bundle from `FC` (+ its generator tags, in
/// `FC`'s order): the Hasse diagram built pairwise from `FC`, `F`
/// derived from `FC` by the generating-set property, the DG basis from
/// the derived sets, both Luxenburger bases read off the lattice. The
/// tail of the fused pipeline only: a
/// [`StreamingMiner`](crate::stream::StreamingMiner) batch patches its
/// maintained bases instead, and its materialization reads those
/// patched maps.
pub(crate) fn assemble_bases(
    miner: &RuleMiner,
    ctx: &MiningContext,
    closed: ClosedItemsets,
    minimal_generators: Vec<Vec<Itemset>>,
) -> MinedBases {
    let lattice = IcebergLattice::from_closed(&closed);
    let frequent = closed.expand_to_frequent();
    let dg = DuquenneGuiguesBasis::build(&frequent, &closed, ctx.n_items());
    let lux_full = LuxenburgerBasis::full_from_lattice(
        &lattice,
        miner.min_confidence_config(),
        miner.include_empty_antecedent_config(),
    );
    // Derivation paths may start at the bottom, so the reduced basis
    // always keeps bottom edges internally; reporting filters them.
    let lux_reduced = LuxenburgerBasis::reduced(&lattice, miner.min_confidence_config(), true);

    MinedBases {
        min_count: closed.min_count,
        n_objects: closed.n_objects,
        min_support: miner.min_support_config(),
        min_confidence: miner.min_confidence_config(),
        include_empty_antecedent: miner.include_empty_antecedent_config(),
        pipeline: PipelineKind::Fused,
        frequent,
        closed,
        lattice,
        minimal_generators: Some(minimal_generators),
        dg,
        lux_full,
        lux_reduced,
    }
}

/// The absolute support threshold for an `n`-object context, matching the
/// miners' empty-context convention (threshold pinned to 1).
pub(crate) fn min_count_for(minsup: MinSupport, n: usize) -> Support {
    if n == 0 {
        1
    } else {
        minsup.to_count(n)
    }
}

/// Runs the fused pipeline for `miner` over `ctx`: one mining traversal
/// collecting `FC` and its generator tags, then every product derived
/// from them.
pub(crate) fn mine_bases(miner: &RuleMiner, ctx: &MiningContext) -> MinedBases {
    let min_count = min_count_for(miner.min_support_config(), ctx.n_objects());

    let mut sink = TaggedClosedSink::default();
    let stats = miner.algorithm_config().mine_sink_par(
        ctx.engine(),
        miner.min_support_config(),
        miner.parallelism_config(),
        &mut sink,
    );
    let (mut closed, minimal_generators) = sink.finish(min_count, ctx.n_objects());
    closed.stats = stats;
    assemble_bases(miner, ctx, closed, minimal_generators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::paper_example;
    use rulebases_mining::ClosedAlgorithm;

    #[test]
    fn pipeline_kind_round_trips() {
        for kind in PipelineKind::ALL {
            assert_eq!(kind.to_string().parse::<PipelineKind>().unwrap(), kind);
        }
        assert_eq!(
            "fused".parse::<PipelineKind>().unwrap(),
            PipelineKind::Fused
        );
        assert_eq!(
            " staged ".parse::<PipelineKind>().unwrap(),
            PipelineKind::Staged
        );
        assert!("bogus".parse::<PipelineKind>().is_err());
        assert_eq!(PipelineKind::default(), PipelineKind::Staged);
    }

    #[test]
    fn fused_matches_staged_on_paper_example() {
        let staged = RuleMiner::new(MinSupport::Fraction(0.4))
            .min_confidence(0.5)
            .mine(paper_example());
        let fused = FusedMiner::new(MinSupport::Fraction(0.4))
            .min_confidence(0.5)
            .mine(paper_example());
        assert_eq!(fused.pipeline, PipelineKind::Fused);
        assert_eq!(staged.pipeline, PipelineKind::Staged);
        assert_eq!(
            fused.closed.clone().into_sorted_vec(),
            staged.closed.clone().into_sorted_vec()
        );
        assert_eq!(
            fused.lattice.edges().collect::<Vec<_>>(),
            staged.lattice.edges().collect::<Vec<_>>()
        );
        assert_eq!(fused.frequent.len(), staged.frequent.len());
        assert_eq!(fused.dg.rules(), staged.dg.rules());
        assert_eq!(fused.lux_full.rules(), staged.lux_full.rules());
        assert_eq!(fused.lux_reduced.rules(), staged.lux_reduced.rules());
        // And the fused bundle still derives everything.
        assert_eq!(fused.exact_rules(), fused.derive_exact_rules());
        assert_eq!(fused.approximate_rules(), fused.derive_approximate_rules());
    }

    #[test]
    fn fused_generator_tags_are_minimal_generators() {
        // The levelwise traversals tag each closure class with its
        // minimal generators; CHARM's IT-tree cannot and leaves the tags
        // empty.
        let ctx = MiningContext::new(paper_example());
        for algo in [ClosedAlgorithm::Close, ClosedAlgorithm::AClose] {
            let bases = FusedMiner::new(MinSupport::Count(2))
                .algorithm(algo)
                .mine_context(&ctx);
            let tags = bases.minimal_generators.as_ref().unwrap();
            assert_eq!(tags.len(), bases.lattice.n_nodes());
            let mut seen = 0;
            for (node, generators) in tags.iter().enumerate() {
                let (closure, support) = bases.lattice.node(node);
                assert!(!generators.is_empty(), "{algo}: node {node} untagged");
                for g in generators {
                    seen += 1;
                    // Same closure class...
                    assert_eq!(&ctx.closure(g), closure, "{algo}");
                    // ...and minimal: every facet has strictly larger
                    // support.
                    for facet in g.facets() {
                        assert!(ctx.support(&facet) > support, "{algo}: {g:?} not minimal");
                    }
                }
            }
            // BE is generated by both B and E.
            let be = bases.lattice.position(&Itemset::from_ids([2, 5])).unwrap();
            assert_eq!(
                tags[be],
                vec![Itemset::from_ids([2]), Itemset::from_ids([5])],
                "{algo}"
            );
            assert!(seen >= bases.lattice.n_nodes(), "{algo}");
        }
        // Staged runs carry no tags.
        let staged = RuleMiner::new(MinSupport::Count(2)).mine_context(&ctx);
        assert!(staged.minimal_generators.is_none());
    }

    #[test]
    fn generator_tags_stay_minimal_and_aligned() {
        // The paper example's FC at count 2 (A=1, B=2, C=3, E=5), with
        // duplicate emissions, a larger generator before and after a
        // smaller one of its class, and untagged emissions: both
        // emission orders give the same FC, diagram and tags, and only
        // minimal generators survive.
        let set = |ids: &[u32]| Itemset::from_ids(ids.iter().copied());
        let emissions: Vec<(Itemset, Support, Option<Itemset>)> = vec![
            (set(&[]), 5, None),
            (set(&[3]), 4, Some(set(&[3]))),
            (set(&[3]), 4, None),
            (set(&[2, 5]), 4, Some(set(&[2, 5]))),
            (set(&[2, 5]), 4, Some(set(&[2]))),
            (set(&[2, 5]), 4, Some(set(&[5]))),
            (set(&[2, 5]), 4, Some(set(&[2]))),
            (set(&[1, 3]), 3, Some(set(&[1]))),
            (set(&[1, 3]), 3, Some(set(&[1, 3]))),
            (set(&[2, 3, 5]), 3, Some(set(&[2, 3]))),
            (set(&[2, 3, 5]), 3, Some(set(&[3, 5]))),
            (set(&[1, 2, 3, 5]), 2, Some(set(&[1, 2, 3]))),
            (set(&[1, 2, 3, 5]), 2, Some(set(&[1, 2]))),
            (set(&[1, 2, 3, 5]), 2, Some(set(&[1, 5]))),
        ];
        let collect = |order: &mut dyn Iterator<Item = &(Itemset, Support, Option<Itemset>)>| {
            let mut sink = TaggedClosedSink::default();
            for (closed, support, generator) in order {
                sink.accept(closed, *support, generator.as_ref());
            }
            let (closed, tags) = sink.finish(2, 5);
            let lattice = IcebergLattice::from_closed(&closed);
            (closed.into_sorted_vec(), lattice, tags)
        };
        let (closed, lattice, tags) = collect(&mut emissions.iter());
        let (closed_rev, lattice_rev, tags_rev) = collect(&mut emissions.iter().rev());
        assert_eq!(closed, closed_rev);
        assert_eq!(
            lattice.edges().collect::<Vec<_>>(),
            lattice_rev.edges().collect::<Vec<_>>()
        );
        assert_eq!(tags, tags_rev);

        let mined = MiningContext::new(paper_example());
        let reference = RuleMiner::new(MinSupport::Count(2)).mine_context(&mined);
        assert_eq!(closed, reference.closed.into_sorted_vec());
        assert_eq!(
            lattice.edges().collect::<Vec<_>>(),
            reference.lattice.edges().collect::<Vec<_>>()
        );
        let tags_of = |ids: &[u32]| &tags[lattice.position(&set(ids)).unwrap()];
        assert!(tags_of(&[]).is_empty());
        assert_eq!(tags_of(&[3]), &[set(&[3])]);
        assert_eq!(tags_of(&[2, 5]), &[set(&[2]), set(&[5])]);
        assert_eq!(tags_of(&[1, 3]), &[set(&[1])]);
        assert_eq!(tags_of(&[2, 3, 5]), &[set(&[2, 3]), set(&[3, 5])]);
        assert_eq!(tags_of(&[1, 2, 3, 5]), &[set(&[1, 2]), set(&[1, 5])]);
    }

    #[test]
    fn fused_empty_database() {
        let bases = FusedMiner::new(MinSupport::Fraction(0.5))
            .mine(rulebases_dataset::TransactionDb::from_rows(vec![]));
        assert_eq!(bases.frequent.len(), 0);
        assert!(bases.dg.is_empty());
        assert!(bases.exact_rules().is_empty());
        assert!(bases.approximate_rules().is_empty());
        assert_eq!(bases.lattice.n_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "closed itemset too large to expand")]
    fn a_closed_set_of_64_items_cannot_be_expanded() {
        // Two identical 64-item rows: FC is that one row, whose 2^64 − 1
        // nonempty subsets are all frequent, so deriving F must refuse
        // rather than enumerate them.
        let row: Vec<u32> = (0..64).collect();
        let _ = FusedMiner::new(MinSupport::Count(1)).mine(
            rulebases_dataset::TransactionDb::from_rows(vec![row.clone(), row]),
        );
    }

    #[test]
    fn fused_skips_the_apriori_scan() {
        // The acceptance claim in miniature: on the paper example the
        // fused pipeline answers every engine question the staged one
        // answers, with strictly fewer engine calls (no Apriori re-scan
        // of the database, no pairwise lattice rebuild).
        let staged_ctx = MiningContext::new(paper_example());
        let _ = RuleMiner::new(MinSupport::Count(2)).mine_context(&staged_ctx);
        let staged_calls = staged_ctx.closure_cache_stats().engine_calls();

        let fused_ctx = MiningContext::new(paper_example());
        let _ = FusedMiner::new(MinSupport::Count(2)).mine_context(&fused_ctx);
        let fused_calls = fused_ctx.closure_cache_stats().engine_calls();

        assert!(
            fused_calls < staged_calls,
            "fused {fused_calls} !< staged {staged_calls}"
        );
        // The fused frequent itemsets are derived, not re-mined: zero
        // database passes on that product.
        let fused = FusedMiner::new(MinSupport::Count(2)).mine(paper_example());
        assert_eq!(fused.frequent.stats.db_passes, 0);
    }
}
