//! High-level facade: from a transaction database to the rule bases.
//!
//! [`RuleMiner`] wires the whole pipeline together — context, frequent
//! itemsets (Apriori), frequent closed itemsets (Close / A-Close / CHARM),
//! iceberg lattice, Duquenne-Guigues basis, and Luxenburger bases — and
//! returns a [`MinedBases`] bundle that can enumerate or derive any rule
//! family and summarize itself as a [`BasisReport`].

use crate::all_rules::{all_rules, count_all_rules};
use crate::approx::{all_approximate_rules, LuxenburgerBasis};
use crate::derive::{derive_approximate_rules, derive_exact_rules, ApproxDerivation};
use crate::exact::{all_exact_rules, count_exact_rules, DuquenneGuiguesBasis};
use crate::fused::{self, PipelineKind};
use crate::report::BasisReport;
use crate::rule::Rule;
use rulebases_dataset::{
    EngineKind, Itemset, MinSupport, MiningContext, Parallelism, Support, TransactionDb,
};
use rulebases_lattice::IcebergLattice;
use rulebases_mining::{Apriori, ClosedAlgorithm, ClosedItemsets, FrequentItemsets};

/// Builder for a full bases-mining run.
#[derive(Clone, Debug)]
pub struct RuleMiner {
    min_support: MinSupport,
    min_confidence: f64,
    algorithm: ClosedAlgorithm,
    include_empty_antecedent: bool,
    engine: EngineKind,
    parallelism: Parallelism,
    pipeline: PipelineKind,
}

impl RuleMiner {
    /// Creates a miner at the given minimum support; other parameters
    /// default to `min_confidence = 0.5`, the Close algorithm, no
    /// empty-antecedent rules, the density/size-selected
    /// [`EngineKind::Auto`] backend, and [`Parallelism::Auto`] threads.
    pub fn new(min_support: impl Into<MinSupport>) -> Self {
        RuleMiner {
            min_support: min_support.into(),
            min_confidence: 0.5,
            algorithm: ClosedAlgorithm::Close,
            include_empty_antecedent: false,
            engine: EngineKind::Auto,
            parallelism: Parallelism::Auto,
            pipeline: PipelineKind::Staged,
        }
    }

    /// Sets the confidence threshold for approximate rules.
    ///
    /// # Panics
    ///
    /// Panics if outside `[0, 1]`.
    pub fn min_confidence(mut self, minconf: f64) -> Self {
        assert!((0.0..=1.0).contains(&minconf), "minconf outside [0, 1]");
        self.min_confidence = minconf;
        self
    }

    /// Selects the closed-itemset algorithm.
    pub fn algorithm(mut self, algorithm: ClosedAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the [`SupportEngine`] backend the pipeline mines through
    /// (e.g. `EngineKind::TidList` to force tid-lists where `Auto` would
    /// pick dense bitsets). Applies when the miner builds its own context
    /// ([`RuleMiner::mine`]); [`RuleMiner::mine_context`] keeps the
    /// engine the caller's context already carries.
    ///
    /// [`SupportEngine`]: rulebases_dataset::SupportEngine
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the thread policy for the mining phases (levelwise candidate
    /// counting and closure fan-outs). `Off` forces the sequential
    /// paths; the default `Auto` honours `RULEBASES_THREADS` and the
    /// machine's parallelism, and fans a level only when its work pays
    /// for the threads; `Fixed(n)` fans every level.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Also emit rules with an empty antecedent (frequency statements
    /// `∅ → C`); off by default.
    pub fn include_empty_antecedent(mut self, include: bool) -> Self {
        self.include_empty_antecedent = include;
        self
    }

    /// Selects the pipeline structure: the default
    /// [`PipelineKind::Staged`] three-pass oracle, or the
    /// [`PipelineKind::Fused`] one-pass traversal (see [`crate::fused`]).
    /// Both produce identical bases — the fused path just gets there with
    /// one lattice walk and no Apriori re-scan.
    pub fn pipeline(mut self, pipeline: PipelineKind) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Opens a streaming session seeded with `db` (possibly empty): the
    /// returned [`StreamingMiner`] keeps the closed-set lattice and all
    /// three bases live while batches arrive through
    /// [`StreamingMiner::push_batch`] — the configured thresholds rescale
    /// to the growing row count, and the batch pipelines are the
    /// degenerate one-batch case. The session builds no support engine:
    /// the `engine` setting only shapes the contexts
    /// [`StreamingMiner::context`] builds on demand. The `pipeline`
    /// setting is ignored here: a stream always maintains the fused
    /// shape.
    ///
    /// [`StreamingMiner`]: crate::stream::StreamingMiner
    /// [`StreamingMiner::push_batch`]: crate::stream::StreamingMiner::push_batch
    /// [`StreamingMiner::context`]: crate::stream::StreamingMiner::context
    pub fn streaming(&self, db: TransactionDb) -> crate::stream::StreamingMiner {
        crate::stream::StreamingMiner::new(self.clone(), db)
    }

    /// Opens a concurrent serving session seeded with `db`: a
    /// [`RuleServer`] wrapping a streaming writer that publishes
    /// epoch-swapped snapshots of the compact basis pair
    /// ([`ServedBasis::Compact`]) for wait-free reader queries. Use
    /// [`RuleServer::with_basis`] to serve a different basis flavour.
    ///
    /// [`RuleServer`]: crate::serve::RuleServer
    /// [`RuleServer::with_basis`]: crate::serve::RuleServer::with_basis
    /// [`ServedBasis::Compact`]: crate::serve::ServedBasis::Compact
    pub fn serving(&self, db: TransactionDb) -> crate::serve::RuleServer {
        crate::serve::RuleServer::open(self.clone(), db, crate::serve::ServedBasis::default())
    }

    /// Opens a **durable** streaming session persisted in `dir`: a
    /// [`CheckpointedMiner`] that journals every pushed batch, folds the
    /// journal into full checkpoints per [`CheckpointPolicy`], and can
    /// be rebuilt after a crash with
    /// [`CheckpointedMiner::recover`]. When `dir` already holds a
    /// checkpoint the persisted session is recovered instead — `db` is
    /// ignored and the returned report says what was restored.
    ///
    /// [`CheckpointedMiner`]: crate::checkpoint::CheckpointedMiner
    /// [`CheckpointedMiner::recover`]: crate::checkpoint::CheckpointedMiner::recover
    /// [`CheckpointPolicy`]: crate::checkpoint::CheckpointPolicy
    pub fn checkpointing(
        &self,
        db: TransactionDb,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<
        (
            crate::checkpoint::CheckpointedMiner,
            Option<crate::checkpoint::RecoveryReport>,
        ),
        crate::checkpoint::RecoveryError,
    > {
        crate::checkpoint::CheckpointedMiner::open(self, db, dir)
    }

    // Configuration accessors for the fused pipeline (same crate).
    pub(crate) fn min_support_config(&self) -> MinSupport {
        self.min_support
    }

    pub(crate) fn engine_config(&self) -> EngineKind {
        self.engine
    }

    pub(crate) fn min_confidence_config(&self) -> f64 {
        self.min_confidence
    }

    pub(crate) fn algorithm_config(&self) -> ClosedAlgorithm {
        self.algorithm
    }

    pub(crate) fn include_empty_antecedent_config(&self) -> bool {
        self.include_empty_antecedent
    }

    pub(crate) fn parallelism_config(&self) -> Parallelism {
        self.parallelism
    }

    /// Runs the pipeline on a database, through the configured engine
    /// backend under the configured thread policy (so
    /// `.parallelism(Parallelism::Off)` makes the whole run sequential).
    pub fn mine(&self, db: TransactionDb) -> MinedBases {
        self.mine_context(&MiningContext::with_engine(db, self.engine))
    }

    /// Runs the pipeline on an existing context (keeping that context's
    /// engine).
    pub fn mine_context(&self, ctx: &MiningContext) -> MinedBases {
        if self.pipeline == PipelineKind::Fused {
            return fused::mine_bases(self, ctx);
        }
        let frequent = Apriori::new()
            .parallelism(self.parallelism)
            .mine(ctx, self.min_support);
        let closed =
            self.algorithm
                .mine_engine_par(ctx.engine(), self.min_support, self.parallelism);
        // The one Hasse construction of a closed family, shared with the
        // fused pipeline.
        let lattice = IcebergLattice::from_closed(&closed);
        let dg = DuquenneGuiguesBasis::build(&frequent, &closed, ctx.n_items());
        let lux_full =
            LuxenburgerBasis::full(&closed, self.min_confidence, self.include_empty_antecedent);
        let lux_reduced = LuxenburgerBasis::reduced(
            &lattice,
            self.min_confidence,
            // Derivation paths may start at the bottom, so the reduced
            // basis always keeps bottom edges internally; reporting
            // filters them.
            true,
        );
        MinedBases {
            min_count: frequent.min_count,
            n_objects: ctx.n_objects(),
            min_support: self.min_support,
            min_confidence: self.min_confidence,
            include_empty_antecedent: self.include_empty_antecedent,
            pipeline: PipelineKind::Staged,
            frequent,
            closed,
            lattice,
            minimal_generators: None,
            dg,
            lux_full,
            lux_reduced,
        }
    }
}

/// Everything one bases-mining run produces.
#[derive(Debug)]
pub struct MinedBases {
    /// Absolute support threshold used.
    pub min_count: Support,
    /// Number of objects in the context.
    pub n_objects: usize,
    /// The configured support threshold.
    pub min_support: MinSupport,
    /// The configured confidence threshold.
    pub min_confidence: f64,
    /// Whether empty-antecedent rules are reported.
    pub include_empty_antecedent: bool,
    /// Which pipeline produced this bundle.
    pub pipeline: PipelineKind,
    /// All frequent itemsets (mined by Apriori on the staged path,
    /// derived from `FC` on the fused path — identical either way).
    pub frequent: FrequentItemsets,
    /// The frequent closed itemsets `FC`.
    pub closed: ClosedItemsets,
    /// The iceberg lattice over `FC`.
    pub lattice: IcebergLattice,
    /// Minimal-generator tags per lattice node (aligned with
    /// [`IcebergLattice`] node order), collected on the fly by the fused
    /// pipeline's levelwise traversals; `None` on the staged path, and
    /// empty per node under CHARM (its IT-tree carries no generators).
    pub minimal_generators: Option<Vec<Vec<Itemset>>>,
    /// The Duquenne-Guigues basis.
    pub dg: DuquenneGuiguesBasis,
    /// The full Luxenburger basis at `min_confidence`.
    pub lux_full: LuxenburgerBasis,
    /// The reduced Luxenburger basis (Hasse edges, bottom included).
    pub lux_reduced: LuxenburgerBasis,
}

impl MinedBases {
    /// The reduced Luxenburger rules as reported (bottom edges filtered
    /// out unless `include_empty_antecedent`).
    pub fn luxenburger_reduced_rules(&self) -> Vec<&Rule> {
        self.lux_reduced
            .iter()
            .filter(|r| self.include_empty_antecedent || !r.antecedent.is_empty())
            .collect()
    }

    /// Enumerates all exact rules directly from `F` and `FC`.
    pub fn exact_rules(&self) -> Vec<Rule> {
        all_exact_rules(&self.frequent, &self.closed)
    }

    /// Reconstructs all exact rules from the DG basis (must equal
    /// [`MinedBases::exact_rules`]).
    pub fn derive_exact_rules(&self) -> Vec<Rule> {
        derive_exact_rules(&self.dg, &self.frequent)
    }

    /// Enumerates all approximate rules at the configured confidence.
    pub fn approximate_rules(&self) -> Vec<Rule> {
        all_approximate_rules(&self.frequent, self.min_confidence)
    }

    /// Reconstructs all approximate rules from the bases (must equal
    /// [`MinedBases::approximate_rules`]).
    pub fn derive_approximate_rules(&self) -> Vec<Rule> {
        let engine = ApproxDerivation::new(&self.lux_reduced, &self.dg);
        derive_approximate_rules(&engine, &self.frequent, self.min_confidence)
    }

    /// Enumerates the full redundant rule set (exact + approximate) at the
    /// configured confidence — the baseline the bases are compared to.
    pub fn all_valid_rules(&self) -> Vec<Rule> {
        all_rules(&self.frequent, self.min_confidence)
    }

    /// Number of closed sets excluding an empty bottom (the `|FC|` the
    /// paper tables report).
    pub fn n_closed_nonempty(&self) -> usize {
        self.closed.iter().filter(|(s, _)| !s.is_empty()).count()
    }

    /// Builds the experiment-table row for this run.
    pub fn report(&self, dataset: &str) -> BasisReport {
        let n_exact = count_exact_rules(&self.frequent, &self.closed);
        let n_all = count_all_rules(&self.frequent, self.min_confidence);
        // Exact rules always pass the confidence filter.
        let n_exact_in_all = count_exact_rules(&self.frequent, &self.closed) as usize;
        let min_support = match self.min_support {
            MinSupport::Fraction(f) => f,
            MinSupport::Count(c) => c as f64 / self.n_objects.max(1) as f64,
        };
        BasisReport {
            dataset: dataset.to_owned(),
            min_support,
            min_confidence: self.min_confidence,
            n_frequent: self.frequent.len(),
            n_closed: self.n_closed_nonempty(),
            n_pseudo_closed: self.dg.len(),
            n_exact_rules: n_exact,
            dg_size: self.dg.len(),
            n_approx_rules: n_all - n_exact_in_all,
            lux_full_size: self.lux_full.len(),
            lux_reduced_size: self.luxenburger_reduced_rules().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::paper_example;

    #[test]
    fn full_pipeline_on_paper_example() {
        let bases = RuleMiner::new(MinSupport::Fraction(0.4))
            .min_confidence(0.5)
            .mine(paper_example());
        assert_eq!(bases.min_count, 2);
        assert_eq!(bases.frequent.len(), 15);
        assert_eq!(bases.n_closed_nonempty(), 5);
        assert_eq!(bases.dg.len(), 3);

        // Derivation round-trips.
        assert_eq!(bases.exact_rules(), bases.derive_exact_rules());
        assert_eq!(bases.approximate_rules(), bases.derive_approximate_rules());

        // Baseline vs bases sizes.
        let report = bases.report("paper");
        assert_eq!(report.n_exact_rules, 14);
        assert_eq!(report.dg_size, 3);
        assert_eq!(report.n_approx_rules + report.n_exact_rules as usize, 50);
        assert!(report.lux_reduced_size <= report.lux_full_size);
        assert!(report.exact_reduction().unwrap() > 4.0); // 14/3
    }

    #[test]
    fn all_algorithms_give_identical_bases() {
        let reference = RuleMiner::new(MinSupport::Count(2)).mine(paper_example());
        for algo in ClosedAlgorithm::ALL {
            let bases = RuleMiner::new(MinSupport::Count(2))
                .algorithm(algo)
                .mine(paper_example());
            assert_eq!(
                bases.closed.clone().into_sorted_vec(),
                reference.closed.clone().into_sorted_vec(),
                "{algo}"
            );
            assert_eq!(bases.dg.rules(), reference.dg.rules(), "{algo}");
        }
    }

    #[test]
    fn empty_antecedent_configuration() {
        let with = RuleMiner::new(MinSupport::Count(2))
            .min_confidence(0.0)
            .include_empty_antecedent(true)
            .mine(paper_example());
        let without = RuleMiner::new(MinSupport::Count(2))
            .min_confidence(0.0)
            .mine(paper_example());
        assert!(with.lux_full.len() > without.lux_full.len());
        assert!(with
            .luxenburger_reduced_rules()
            .iter()
            .any(|r| r.antecedent.is_empty()));
        assert!(without
            .luxenburger_reduced_rules()
            .iter()
            .all(|r| !r.antecedent.is_empty()));
    }

    #[test]
    fn empty_database() {
        let bases = RuleMiner::new(MinSupport::Fraction(0.5))
            .mine(rulebases_dataset::TransactionDb::from_rows(vec![]));
        assert_eq!(bases.frequent.len(), 0);
        assert!(bases.dg.is_empty());
        assert!(bases.exact_rules().is_empty());
        assert!(bases.approximate_rules().is_empty());
    }

    #[test]
    #[should_panic(expected = "minconf outside")]
    fn invalid_confidence_rejected() {
        let _ = RuleMiner::new(MinSupport::Count(1)).min_confidence(2.0);
    }

    #[test]
    fn forced_threads_yield_identical_bases() {
        use rulebases_dataset::{EngineKind, Parallelism};
        let reference = RuleMiner::new(MinSupport::Count(2)).mine(paper_example());
        for algo in ClosedAlgorithm::ALL {
            for kind in EngineKind::BACKENDS {
                let bases = RuleMiner::new(MinSupport::Count(2))
                    .algorithm(algo)
                    .engine(kind)
                    .parallelism(Parallelism::Fixed(3))
                    .mine(paper_example());
                assert_eq!(
                    bases.closed.clone().into_sorted_vec(),
                    reference.closed.clone().into_sorted_vec(),
                    "{algo} on {kind}"
                );
                assert_eq!(bases.dg.rules(), reference.dg.rules(), "{algo} on {kind}");
                assert_eq!(
                    bases.frequent.len(),
                    reference.frequent.len(),
                    "{algo} on {kind}"
                );
                assert_eq!(
                    bases.luxenburger_reduced_rules().len(),
                    reference.luxenburger_reduced_rules().len(),
                    "{algo} on {kind}"
                );
                // Derivations still round-trip under forced threads.
                assert_eq!(
                    bases.exact_rules(),
                    bases.derive_exact_rules(),
                    "{algo} on {kind}"
                );
            }
        }
    }
}
