//! The experiment implementations — one function per table/figure of the
//! evaluation suite (DESIGN.md §5, EXPERIMENTS.md records the outcomes).

use crate::datasets::{Scale, StandIn};
use crate::parallel::parallel_map;
use crate::timing::{fmt_ms, median_duration};
use rulebases::{count_all_rules, count_exact_rules, LuxenburgerBasis, MinedBases, RuleMiner};
use rulebases_dataset::{DatasetStats, MinSupport, MiningContext};
use rulebases_lattice::IcebergLattice;
use rulebases_mining::{AClose, Apriori, Charm, Close, ClosedMiner, FpGrowth, FrequentMiner};
use std::fmt;
use std::time::Duration;

/// E1 / Table 1 — dataset characteristics.
pub struct Table1Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Computed statistics.
    pub stats: DatasetStats,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>8} {:>7} {:>9.1} {:>9.4}",
            self.dataset,
            self.stats.n_objects,
            self.stats.n_items_used,
            self.stats.avg_len,
            self.stats.density
        )
    }
}

/// Runs E1.
pub fn table1(scale: Scale) -> Vec<Table1Row> {
    parallel_map(StandIn::ALL.to_vec(), |d| Table1Row {
        dataset: d.name(),
        stats: DatasetStats::compute(&d.generate(scale)),
    })
}

/// Header for E1.
pub fn table1_header() -> String {
    format!(
        "{:<14} {:>8} {:>7} {:>9} {:>9}",
        "dataset", "|O|", "|I|", "avg|t|", "density"
    )
}

/// E2 / Table 2 — frequent vs frequent-closed itemset counts.
pub struct Table2Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Relative minimum support.
    pub minsup: f64,
    /// `|F|` — all frequent itemsets.
    pub n_frequent: usize,
    /// `|FC|` — frequent closed itemsets (excluding an empty bottom).
    pub n_closed: usize,
}

impl Table2Row {
    /// `|F| / |FC|` — how much the closed representation compresses.
    pub fn ratio(&self) -> f64 {
        self.n_frequent as f64 / self.n_closed.max(1) as f64
    }
}

impl fmt::Display for Table2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>6.1}% {:>10} {:>10} {:>8.2}",
            self.dataset,
            self.minsup * 100.0,
            self.n_frequent,
            self.n_closed,
            self.ratio()
        )
    }
}

/// Runs E2 over every dataset and its minsup sweep.
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    let cells: Vec<(StandIn, f64)> = StandIn::ALL
        .iter()
        .flat_map(|&d| d.minsup_sweep().iter().map(move |&s| (d, s)))
        .collect();
    parallel_map(cells, |(d, minsup)| {
        let ctx = MiningContext::with_engine(d.generate(scale), crate::datasets::engine_from_env());
        let frequent = Apriori::new().mine(&ctx, MinSupport::Fraction(minsup));
        let closed = Close::new().mine_closed(&ctx, MinSupport::Fraction(minsup));
        Table2Row {
            dataset: d.name(),
            minsup,
            n_frequent: frequent.len(),
            n_closed: closed.iter().filter(|(s, _)| !s.is_empty()).count(),
        }
    })
}

/// Header for E2.
pub fn table2_header() -> String {
    format!(
        "{:<14} {:>7} {:>10} {:>10} {:>8}",
        "dataset", "minsup", "|F|", "|FC|", "|F|/|FC|"
    )
}

/// E3 / Table 3 — exact rules vs the Duquenne-Guigues basis.
pub struct Table3Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Relative minimum support.
    pub minsup: f64,
    /// Number of exact rules.
    pub n_exact: u64,
    /// Size of the DG basis (= |FP|).
    pub dg_size: usize,
}

impl Table3Row {
    /// Reduction factor.
    pub fn factor(&self) -> f64 {
        self.n_exact as f64 / self.dg_size.max(1) as f64
    }
}

impl fmt::Display for Table3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>6.1}% {:>12} {:>6} {:>9.1}",
            self.dataset,
            self.minsup * 100.0,
            self.n_exact,
            self.dg_size,
            self.factor()
        )
    }
}

/// Runs E3 at each dataset's default threshold (plus the sweep's tightest
/// threshold to show growth).
pub fn table3(scale: Scale) -> Vec<Table3Row> {
    let cells: Vec<(StandIn, f64)> = StandIn::ALL
        .iter()
        .flat_map(|&d| {
            let sweep = d.minsup_sweep();
            [(d, sweep[0]), (d, sweep[1])]
        })
        .collect();
    parallel_map(cells, |(d, minsup)| {
        let bases = mine(d, scale, minsup, 0.5);
        Table3Row {
            dataset: d.name(),
            minsup,
            n_exact: count_exact_rules(&bases.frequent, &bases.closed),
            dg_size: bases.dg.len(),
        }
    })
}

/// Header for E3.
pub fn table3_header() -> String {
    format!(
        "{:<14} {:>7} {:>12} {:>6} {:>9}",
        "dataset", "minsup", "exact", "DG", "factor"
    )
}

/// E4 / Table 4 — approximate rules vs the Luxenburger bases.
pub struct Table4Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Relative minimum support (the dataset default).
    pub minsup: f64,
    /// Minimum confidence.
    pub minconf: f64,
    /// Number of approximate rules.
    pub n_approx: usize,
    /// Full Luxenburger basis size.
    pub lux_full: usize,
    /// Reduced (Hasse) basis size.
    pub lux_reduced: usize,
}

impl Table4Row {
    /// Reduction factor against the reduced basis.
    pub fn factor(&self) -> f64 {
        self.n_approx as f64 / self.lux_reduced.max(1) as f64
    }
}

impl fmt::Display for Table4Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>6.1}% {:>7.0}% {:>12} {:>8} {:>8} {:>9.1}",
            self.dataset,
            self.minsup * 100.0,
            self.minconf * 100.0,
            self.n_approx,
            self.lux_full,
            self.lux_reduced,
            self.factor()
        )
    }
}

/// Runs E4 at each dataset's default minsup across a minconf sweep.
pub fn table4(scale: Scale) -> Vec<Table4Row> {
    let cells: Vec<(StandIn, f64)> = StandIn::ALL
        .iter()
        .flat_map(|&d| [0.9, 0.7, 0.5].map(|c| (d, c)))
        .collect();
    parallel_map(cells, |(d, minconf)| {
        let minsup = d.default_minsup();
        let bases = mine(d, scale, minsup, minconf);
        let n_all = count_all_rules(&bases.frequent, minconf);
        let n_exact = count_exact_rules(&bases.frequent, &bases.closed) as usize;
        Table4Row {
            dataset: d.name(),
            minsup,
            minconf,
            n_approx: n_all - n_exact,
            lux_full: bases.lux_full.len(),
            lux_reduced: bases.luxenburger_reduced_rules().len(),
        }
    })
}

/// Header for E4.
pub fn table4_header() -> String {
    format!(
        "{:<14} {:>7} {:>8} {:>12} {:>8} {:>8} {:>9}",
        "dataset", "minsup", "minconf", "approx", "LuxFull", "LuxRed", "factor"
    )
}

/// E5 / Figure 1 — miner runtimes over the minsup sweep.
pub struct Fig1Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Relative minimum support.
    pub minsup: f64,
    /// Apriori wall time.
    pub apriori: Duration,
    /// FP-growth wall time.
    pub fpgrowth: Duration,
    /// Close wall time.
    pub close: Duration,
    /// A-Close wall time.
    pub aclose: Duration,
    /// CHARM wall time.
    pub charm: Duration,
}

impl fmt::Display for Fig1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>6.1}% {:>10} {:>10} {:>10} {:>10} {:>10}",
            self.dataset,
            self.minsup * 100.0,
            fmt_ms(self.apriori),
            fmt_ms(self.fpgrowth),
            fmt_ms(self.close),
            fmt_ms(self.aclose),
            fmt_ms(self.charm)
        )
    }
}

/// Runs E5 — sequential on purpose (wall-clock timing).
pub fn fig1(scale: Scale) -> Vec<Fig1Row> {
    let runs = if scale == Scale::Test { 3 } else { 1 };
    let mut rows = Vec::new();
    for d in StandIn::ALL {
        let ctx = MiningContext::with_engine(d.generate(scale), crate::datasets::engine_from_env());
        for &minsup in d.minsup_sweep() {
            let threshold = MinSupport::Fraction(minsup);
            rows.push(Fig1Row {
                dataset: d.name(),
                minsup,
                apriori: median_duration(runs, || {
                    std::hint::black_box(Apriori::new().mine(&ctx, threshold));
                }),
                fpgrowth: median_duration(runs, || {
                    std::hint::black_box(FpGrowth::new().mine_frequent(&ctx, threshold));
                }),
                close: median_duration(runs, || {
                    std::hint::black_box(Close::new().mine_closed(&ctx, threshold));
                }),
                aclose: median_duration(runs, || {
                    std::hint::black_box(AClose::new().mine_closed(&ctx, threshold));
                }),
                charm: median_duration(runs, || {
                    std::hint::black_box(Charm.mine_closed(&ctx, threshold));
                }),
            });
        }
    }
    rows
}

/// Header for E5.
pub fn fig1_header() -> String {
    format!(
        "{:<14} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "dataset", "minsup", "apriori ms", "fpgrow ms", "close ms", "aclose ms", "charm ms"
    )
}

/// E6 / Figure 2 — rule counts vs minconf (all rules vs the two bases
/// combined).
pub struct Fig2Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Minimum confidence.
    pub minconf: f64,
    /// All valid rules (exact + approximate).
    pub n_all: usize,
    /// DG basis + reduced Luxenburger basis.
    pub n_bases: usize,
}

impl fmt::Display for Fig2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>7.0}% {:>12} {:>8}",
            self.dataset,
            self.minconf * 100.0,
            self.n_all,
            self.n_bases
        )
    }
}

/// Runs E6 on the dense datasets (where the effect is dramatic) plus one
/// sparse control.
pub fn fig2(scale: Scale) -> Vec<Fig2Row> {
    let datasets = [StandIn::T10I4, StandIn::Mushrooms, StandIn::C20D10K];
    let cells: Vec<(StandIn, f64)> = datasets
        .iter()
        .flat_map(|&d| [1.0, 0.9, 0.8, 0.7, 0.6, 0.5].map(|c| (d, c)))
        .collect();
    parallel_map(cells, |(d, minconf)| {
        let bases = mine(d, scale, d.default_minsup(), minconf);
        Fig2Row {
            dataset: d.name(),
            minconf,
            n_all: count_all_rules(&bases.frequent, minconf),
            n_bases: bases.dg.len() + bases.luxenburger_reduced_rules().len(),
        }
    })
}

/// Header for E6.
pub fn fig2_header() -> String {
    format!(
        "{:<14} {:>8} {:>12} {:>8}",
        "dataset", "minconf", "all rules", "bases"
    )
}

/// E7 — Hasse-diagram construction (pairwise, the one construction of
/// a closed family) and transitive reduction.
pub struct Fig3Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Number of closed sets.
    pub n_closed: usize,
    /// Comparable pairs (full Luxenburger candidate count).
    pub n_pairs: usize,
    /// Hasse edges (reduced candidate count).
    pub n_edges: usize,
    /// Pairwise construction time.
    pub by_pairs: Duration,
}

impl fmt::Display for Fig3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>8} {:>9} {:>8} {:>11}",
            self.dataset,
            self.n_closed,
            self.n_pairs,
            self.n_edges,
            fmt_ms(self.by_pairs)
        )
    }
}

/// Runs E7 — sequential (timing).
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for d in StandIn::ALL {
        let ctx = MiningContext::with_engine(d.generate(scale), crate::datasets::engine_from_env());
        let threshold = MinSupport::Fraction(d.default_minsup());
        let fc = Close::new().mine_closed(&ctx, threshold);
        let (lattice, by_pairs) = crate::timing::time_once(|| IcebergLattice::from_closed(&fc));
        rows.push(Fig3Row {
            dataset: d.name(),
            n_closed: lattice.n_nodes(),
            n_pairs: lattice.comparable_pairs().len(),
            n_edges: lattice.n_edges(),
            by_pairs,
        });
    }
    rows
}

/// Header for E7.
pub fn fig3_header() -> String {
    format!(
        "{:<14} {:>8} {:>9} {:>8} {:>11}",
        "dataset", "|FC|", "pairs", "edges", "pairs ms"
    )
}

/// Shared pipeline cell: mine one `(dataset, scale, minsup, minconf)`
/// through the env-selected engine backend and pipeline.
fn mine(d: StandIn, scale: Scale, minsup: f64, minconf: f64) -> MinedBases {
    RuleMiner::new(MinSupport::Fraction(minsup))
        .min_confidence(minconf)
        .engine(crate::datasets::engine_from_env())
        .pipeline(crate::datasets::pipeline_from_env())
        .mine(d.generate(scale))
}

/// Quick structural sanity-check across the whole suite (used by tests
/// and by `exp verify`): bases must never be larger than what they
/// compress, and the dense datasets must actually compress.
pub fn verify_shapes(scale: Scale) -> Result<(), String> {
    for d in StandIn::ALL {
        let bases = mine(d, scale, d.default_minsup(), 0.7);
        let n_exact = count_exact_rules(&bases.frequent, &bases.closed);
        if (bases.dg.len() as u64) > n_exact {
            return Err(format!("{}: DG larger than exact rule set", d.name()));
        }
        if bases.n_closed_nonempty() > bases.frequent.len() {
            return Err(format!("{}: |FC| > |F|", d.name()));
        }
        let reduced = bases.luxenburger_reduced_rules().len();
        if reduced > bases.lux_full.len() {
            return Err(format!("{}: reduced basis larger than full", d.name()));
        }
        if d.is_dense() && bases.n_closed_nonempty() == bases.frequent.len() {
            return Err(format!(
                "{}: dense dataset shows no closed-set compression",
                d.name()
            ));
        }
        // Round-trip a sample: derivation must reproduce enumeration.
        let direct = bases.approximate_rules();
        let derived = bases.derive_approximate_rules();
        if direct != derived {
            return Err(format!(
                "{}: derivation mismatch ({} direct vs {} derived)",
                d.name(),
                direct.len(),
                derived.len()
            ));
        }
        let _ = LuxenburgerBasis::full(&bases.closed, 0.99, false); // smoke
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_datasets() {
        let rows = table1(Scale::Test);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.dataset == "MUSHROOMS*"));
        for r in &rows {
            assert!(r.stats.n_objects >= 500);
        }
    }

    #[test]
    fn table2_dense_compresses_sparse_does_not() {
        let rows = table2(Scale::Test);
        for r in &rows {
            assert!(r.n_closed <= r.n_frequent, "{r}");
        }
        let mushroom_ratio = rows
            .iter()
            .find(|r| r.dataset == "MUSHROOMS*")
            .unwrap()
            .ratio();
        let sparse_ratio = rows
            .iter()
            .find(|r| r.dataset == "T10I4D100K*")
            .unwrap()
            .ratio();
        assert!(
            mushroom_ratio > sparse_ratio,
            "dense {mushroom_ratio} !> sparse {sparse_ratio}"
        );
    }

    #[test]
    fn table3_bases_compress() {
        let rows = table3(Scale::Test);
        for r in &rows {
            assert!(r.dg_size as u64 <= r.n_exact, "{r}");
        }
    }

    #[test]
    fn table4_reductions_hold() {
        let rows = table4(Scale::Test);
        for r in &rows {
            assert!(r.lux_reduced <= r.lux_full, "{r}");
            assert!(r.lux_full <= r.n_approx.max(r.lux_full), "{r}");
        }
    }

    #[test]
    fn verify_shapes_at_test_scale() {
        verify_shapes(Scale::Test).unwrap();
    }
}
