//! The benchmark dataset registry.
//!
//! Five seeded stand-ins for the paper family's evaluation datasets (see
//! DESIGN.md §6 for the substitution rationale). Every dataset comes in
//! three scales so tests stay fast while `--scale full` reproduces the
//! original object counts.

use rulebases::PipelineKind;
use rulebases_dataset::generator::{census_like, mushroom_like_scaled, QuestConfig};
use rulebases_dataset::{EngineKind, Item, TransactionDb};

/// Environment variable naming the [`EngineKind`] the experiment
/// runners mine through (`auto`, `dense` or `tid-list`). The `exp`
/// binary's `--engine` flag sets it.
pub const ENGINE_ENV: &str = "RULEBASES_ENGINE";

/// Environment variable naming the [`PipelineKind`] the experiment
/// runners mine through (`staged` or `fused`). The `exp` and `probe`
/// binaries' `--pipeline` flags set it.
pub const PIPELINE_ENV: &str = "RULEBASES_PIPELINE";

/// The engine backend selected by [`ENGINE_ENV`], defaulting to
/// [`EngineKind::Auto`] when unset or empty.
///
/// # Panics
///
/// Panics on an unparseable value, so a CLI typo fails loudly instead of
/// silently benchmarking the wrong backend.
pub fn engine_from_env() -> EngineKind {
    match std::env::var(ENGINE_ENV) {
        Ok(value) if !value.trim().is_empty() => value
            .parse()
            .unwrap_or_else(|e| panic!("{ENGINE_ENV}: {e}")),
        _ => EngineKind::Auto,
    }
}

/// The pipeline selected by [`PIPELINE_ENV`], defaulting to
/// [`PipelineKind::Staged`] when unset or empty.
///
/// # Panics
///
/// Panics on an unparseable value, so a CLI typo fails loudly instead of
/// silently benchmarking the wrong pipeline.
pub fn pipeline_from_env() -> PipelineKind {
    match std::env::var(PIPELINE_ENV) {
        Ok(value) if !value.trim().is_empty() => value
            .parse()
            .unwrap_or_else(|e| panic!("{PIPELINE_ENV}: {e}")),
        _ => PipelineKind::Staged,
    }
}

/// Generation scale: object counts for CI, for the default harness, and
/// for the paper-faithful full runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny — integration tests (seconds).
    Test,
    /// Default — `cargo run -p rulebases-bench --bin exp` (a few minutes).
    Default,
    /// Paper-scale object counts.
    Full,
}

impl Scale {
    /// Parses `test` / `default` / `full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// The five stand-in datasets of the experiment suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandIn {
    /// Sparse Quest baskets, avg size 10, avg pattern 4 (T10I4D100K).
    T10I4,
    /// Sparse Quest baskets, avg size 20, avg pattern 6 (T20I6D100K).
    T20I6,
    /// Dense 23-attribute categorical data (UCI MUSHROOMS).
    Mushrooms,
    /// Dense 20-attribute census extract (PUMS C20D10K).
    C20D10K,
    /// Very dense 73-attribute census extract (PUMS C73D10K).
    C73D10K,
}

impl StandIn {
    /// All datasets, in the order the paper tables list them.
    pub const ALL: [StandIn; 5] = [
        StandIn::T10I4,
        StandIn::T20I6,
        StandIn::Mushrooms,
        StandIn::C20D10K,
        StandIn::C73D10K,
    ];

    /// Display name (the `*` marks the synthetic stand-in).
    pub fn name(self) -> &'static str {
        match self {
            StandIn::T10I4 => "T10I4D100K*",
            StandIn::T20I6 => "T20I6D100K*",
            StandIn::Mushrooms => "MUSHROOMS*",
            StandIn::C20D10K => "C20D10K*",
            StandIn::C73D10K => "C73D10K*",
        }
    }

    /// Number of objects generated at a scale.
    pub fn n_objects(self, scale: Scale) -> usize {
        match (self, scale) {
            (StandIn::T10I4 | StandIn::T20I6, Scale::Test) => 1_000,
            (StandIn::T10I4 | StandIn::T20I6, Scale::Default) => 10_000,
            (StandIn::T10I4 | StandIn::T20I6, Scale::Full) => 100_000,
            (StandIn::Mushrooms, Scale::Test) => 500,
            (StandIn::Mushrooms, Scale::Default) => 2_000,
            (StandIn::Mushrooms, Scale::Full) => 8_124,
            (StandIn::C20D10K | StandIn::C73D10K, Scale::Test) => 500,
            (StandIn::C20D10K | StandIn::C73D10K, Scale::Default) => 2_000,
            (StandIn::C20D10K | StandIn::C73D10K, Scale::Full) => 10_000,
        }
    }

    /// The minimum-support sweep (relative) the experiment tables use for
    /// this dataset — denser data gets higher thresholds, as in the paper.
    pub fn minsup_sweep(self) -> &'static [f64] {
        // Calibrated so every cell stays laptop-friendly while the dense
        // datasets show the paper's |F| ≫ |FC| regime (see EXPERIMENTS.md).
        match self {
            StandIn::T10I4 | StandIn::T20I6 => &[0.02, 0.01, 0.005],
            StandIn::Mushrooms => &[0.50, 0.40, 0.30],
            StandIn::C20D10K => &[0.70, 0.60, 0.50],
            StandIn::C73D10K => &[0.80, 0.70, 0.60],
        }
    }

    /// A single representative threshold (the middle of the sweep).
    pub fn default_minsup(self) -> f64 {
        self.minsup_sweep()[1]
    }

    /// Whether the dataset is in the dense/correlated regime.
    pub fn is_dense(self) -> bool {
        !matches!(self, StandIn::T10I4 | StandIn::T20I6)
    }

    /// Generates the dataset (deterministic per `(dataset, scale)`).
    pub fn generate(self, scale: Scale) -> TransactionDb {
        let n = self.n_objects(scale);
        match self {
            StandIn::T10I4 => QuestConfig::t10i4(n, 0x7101_0400).generate(),
            StandIn::T20I6 => QuestConfig::t20i6(n, 0x7201_0600).generate(),
            StandIn::Mushrooms => mushroom_like_scaled(n, 0x8124),
            StandIn::C20D10K => census_like(n, 20, 0xC20),
            StandIn::C73D10K => census_like(n, 73, 0xC73),
        }
    }
}

/// A census stand-in with *concept drift*: the value popularity of every
/// attribute rotates one step at each `rotate_every`-row block boundary,
/// so the modal (and thus frequent) items of the stream's head and tail
/// differ while the correlation structure stays census-like. This is the
/// windowed-streaming workload: a sliding window sees classes die as
/// their supporting block expires and new ones form — an unbounded
/// session over the same rows just accretes.
///
/// Deterministic per `(n_objects, n_attrs, rotate_every, seed)`. The
/// rotation is applied per item id within its attribute's value domain
/// (decoded from the generator's `attr{a}={v}` label layout), so every
/// object still carries exactly one item per attribute.
///
/// # Panics
///
/// Panics if `rotate_every` is zero.
pub fn drifting_census(
    n_objects: usize,
    n_attrs: usize,
    rotate_every: usize,
    seed: u64,
) -> TransactionDb {
    assert!(rotate_every > 0, "rotation block must be non-empty");
    let base = census_like(n_objects, n_attrs, seed);
    let dict = base
        .dictionary()
        .expect("census_like attaches its attribute dictionary");
    // domain[item] = (first id of the item's attribute, domain size).
    let mut domain: Vec<(u32, u32)> = Vec::with_capacity(dict.len());
    let mut start = 0u32;
    let mut prev_attr: Option<String> = None;
    for id in 0..dict.len() as u32 {
        let label = dict.label(Item::new(id)).expect("id interned");
        let attr = label.split('=').next().expect("attr{a}={v} layout");
        if prev_attr.as_deref() != Some(attr) {
            start = id;
            prev_attr = Some(attr.to_string());
        }
        domain.push((start, 0));
    }
    for id in (0..domain.len()).rev() {
        let (start, _) = domain[id];
        let card = domain[start as usize..]
            .iter()
            .take_while(|&&(s, _)| s == start)
            .count() as u32;
        domain[id] = (start, card);
    }
    let rows: Vec<Vec<u32>> = (0..n_objects)
        .map(|t| {
            let shift = (t / rotate_every) as u32;
            base.transaction(t)
                .iter()
                .map(|&item| {
                    let (start, card) = domain[item.index()];
                    start + (item.id() - start + shift) % card
                })
                .collect()
        })
        .collect();
    TransactionDb::from_rows(rows)
}

/// The generator-maintenance torture case: one full-universe row
/// followed by one singleton row per item, over a `width`-item universe.
/// Replayed in that order, the full-universe class ends up with `width`
/// lower covers — every singleton, all at the same support (2: the full
/// row plus its own) — so each of its lower-cover complements has
/// `width − 1` items and its minimal-generator set is all `C(width, 2)`
/// pairs. Retagging that class from scratch as the minimal transversals
/// of the whole complement family (the retained oracle,
/// [`IncrementalLattice::oracle_generators_of`]) re-derives the
/// ever-larger pair set on *every* singleton arrival — visibly
/// super-linear — while the local one-item extension rule pays only for
/// the one new constraint per step. Deterministic by construction (no
/// randomness).
///
/// [`IncrementalLattice::oracle_generators_of`]: rulebases_lattice::IncrementalLattice::oracle_generators_of
///
/// # Panics
///
/// Panics if `width < 2` — the pathology needs at least two singletons.
pub fn wide_flat(width: usize) -> TransactionDb {
    assert!(width >= 2, "wide_flat needs at least two items");
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(width + 1);
    rows.push((0..width as u32).collect());
    rows.extend((0..width as u32).map(|i| vec![i]));
    TransactionDb::from_rows(rows)
}

/// Projects `db` onto its `k` most frequent items — the bounded
/// vocabulary streaming replays maintain their (unthresholded) closure
/// system over, shared by the `probe` CLI and the recovery bench.
pub fn project_top_items(db: &TransactionDb, k: usize) -> Vec<Vec<u32>> {
    let mut by_support: Vec<(u64, u32)> = db
        .item_supports()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    by_support.sort_unstable_by(|a, b| b.cmp(a));
    let kept: std::collections::HashSet<u32> =
        by_support.into_iter().take(k).map(|(_, i)| i).collect();
    db.iter()
        .map(|row| {
            row.iter()
                .map(|item| item.id())
                .filter(|id| kept.contains(id))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_scales() {
        assert_eq!(StandIn::Mushrooms.name(), "MUSHROOMS*");
        assert_eq!(StandIn::T10I4.n_objects(Scale::Full), 100_000);
        assert_eq!(StandIn::Mushrooms.n_objects(Scale::Full), 8_124);
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn pair_pass_decision_on_the_stand_ins() {
        use rulebases_dataset::engine::{DenseEngine, TidListEngine};
        use rulebases_dataset::Itemset;
        use std::sync::Arc;
        let pairs_of = |items: &[u32]| -> Vec<Itemset> {
            items
                .iter()
                .enumerate()
                .flat_map(|(k, &a)| {
                    items[k + 1..]
                        .iter()
                        .map(move |&b| Itemset::from_ids([a, b]))
                })
                .collect()
        };

        // T10I4D100K* at 10,000 rows: Close's pair level at minsup 0.01
        // (every pair of frequent items) is counted in one pass over the
        // rows on both backends.
        let sparse = Arc::new(StandIn::T10I4.generate(Scale::Default));
        assert_eq!(sparse.n_transactions(), 10_000);
        let min_count = (0.01 * sparse.n_transactions() as f64).ceil() as u64;
        let frequent: Vec<u32> = (0..sparse.n_items() as u32)
            .filter(|&i| sparse.support(&Itemset::from_ids([i])) >= min_count)
            .collect();
        let pairs = pairs_of(&frequent);
        assert!(pairs.len() > 10_000, "{} pairs", pairs.len());
        assert!(DenseEngine::from_horizontal(&sparse).takes_pair_pass(&pairs));
        assert!(TidListEngine::from_horizontal(&sparse).takes_pair_pass(&pairs));

        // The census stand-in (2,000 rows) on its top 16 items, the
        // served re-mine's input: `Auto` picks dense bitsets, which
        // intersect its 120 pairs one cover at a time — 32 words each.
        let census = Arc::new(TransactionDb::from_rows(project_top_items(
            &census_like(2_000, 20, 0xC20),
            16,
        )));
        let items: Vec<u32> = (0..census.n_items() as u32)
            .filter(|&i| census.support(&Itemset::from_ids([i])) > 0)
            .collect();
        let pairs = pairs_of(&items);
        assert_eq!(pairs.len(), 120);
        assert_eq!(EngineKind::Auto.select(&census), EngineKind::Dense);
        assert!(!DenseEngine::from_horizontal(&census).takes_pair_pass(&pairs));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = StandIn::C20D10K.generate(Scale::Test);
        let b = StandIn::C20D10K.generate(Scale::Test);
        assert_eq!(a.n_transactions(), b.n_transactions());
        for t in 0..a.n_transactions() {
            assert_eq!(a.transaction(t), b.transaction(t));
        }
    }

    #[test]
    fn regimes_have_expected_density() {
        let sparse = StandIn::T10I4.generate(Scale::Test);
        let dense = StandIn::Mushrooms.generate(Scale::Test);
        assert!(sparse.density() < 0.05, "{}", sparse.density());
        assert!(dense.density() > 0.10, "{}", dense.density());
    }

    #[test]
    fn drifting_census_rotates_popularity_per_block() {
        let db = drifting_census(200, 10, 50, 0xD21F);
        assert_eq!(db.n_transactions(), 200);
        // Shape is preserved: one item per attribute, census universe.
        let base = census_like(200, 10, 0xD21F);
        assert_eq!(db.n_items(), base.n_items());
        for t in 0..200 {
            assert_eq!(db.transaction(t).len(), 10);
        }
        // Block 0 is the un-rotated census; later blocks differ from it
        // (the rotation moves every attribute with cardinality > 1).
        assert_eq!(db.transaction(0), base.transaction(0));
        assert_ne!(db.transaction(60), base.transaction(60));
        // Determinism.
        let again = drifting_census(200, 10, 50, 0xD21F);
        for t in 0..200 {
            assert_eq!(db.transaction(t), again.transaction(t));
        }
    }

    #[test]
    fn wide_flat_has_the_pathological_shape() {
        use rulebases_dataset::Itemset;
        use rulebases_lattice::IncrementalLattice;
        let width = 12;
        let db = wide_flat(width);
        // One full row, then one singleton per item of the universe.
        assert_eq!(db.n_transactions(), width + 1);
        assert_eq!(db.n_items(), width);
        assert_eq!(db.transaction(0).len(), width);
        for t in 1..=width {
            assert_eq!(db.transaction(t).len(), 1);
            assert_eq!(db.transaction(t)[0].index(), t - 1);
        }
        // Replayed in order, the full-universe class accumulates one
        // equal-support lower cover per item — the large-complement
        // regime the ablation bench exercises — and its minimal
        // generators are exactly the C(width, 2) pairs.
        let mut inc = IncrementalLattice::new();
        for t in 0..db.n_transactions() {
            inc.insert_object(&Itemset::from_sorted(db.transaction(t).to_vec()));
        }
        let top = inc
            .position(&Itemset::from_ids(0..width as u32))
            .expect("full-universe class");
        assert_eq!(inc.lower_covers(top).len(), width);
        for &c in inc.lower_covers(top) {
            assert_eq!(inc.node(c).0.len(), 1, "covers are the singletons");
            assert_eq!(inc.node(c).1, 2, "same support everywhere");
        }
        assert_eq!(inc.generator_tags(top).len(), width * (width - 1) / 2);
    }

    #[test]
    fn sweeps_are_decreasing() {
        for d in StandIn::ALL {
            let sweep = d.minsup_sweep();
            assert!(sweep.windows(2).all(|w| w[0] > w[1]), "{}", d.name());
            assert_eq!(d.default_minsup(), sweep[1]);
        }
    }
}
