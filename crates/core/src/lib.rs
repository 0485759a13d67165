//! # rulebases
//!
//! A faithful, production-grade reproduction of **"Mining Bases for
//! Association Rules Using Closed Sets"** (Taouil, Pasquier, Bastide,
//! Lakhal — ICDE 2000).
//!
//! The problem: association-rule mining floods the analyst with redundant
//! rules. The paper's answer, built on the Galois-connection framework of
//! frequent **closed** itemsets:
//!
//! * the **Duquenne-Guigues basis** ([`DuquenneGuiguesBasis`]) — a
//!   minimum-cardinality set of exact (100%-confidence) rules, one per
//!   frequent *pseudo-closed* itemset, from which every exact rule
//!   follows (Theorem 1);
//! * the **Luxenburger basis** ([`LuxenburgerBasis`]) — approximate rules
//!   between comparable frequent closed itemsets, reducible to the Hasse
//!   edges of the iceberg lattice, from which every approximate rule with
//!   its support and confidence can be derived (Theorem 2).
//!
//! Both directions are implemented: *constructing* the bases and
//! *deriving* the full rule sets back from them ([`mod@derive`]), so the
//! basis properties (soundness, completeness, minimality) are executable
//! and property-tested rather than assumed.
//!
//! ## Quickstart
//!
//! ```
//! use rulebases::{RuleMiner, MinSupport};
//! use rulebases_dataset::paper_example;
//!
//! let bases = RuleMiner::new(MinSupport::Fraction(0.4))
//!     .min_confidence(0.5)
//!     .mine(paper_example());
//!
//! // 14 exact rules collapse to a 3-rule Duquenne-Guigues basis:
//! assert_eq!(bases.exact_rules().len(), 14);
//! assert_eq!(bases.dg.len(), 3);
//! for rule in bases.dg.rules() {
//!     println!("{rule}");
//! }
//!
//! // ...and every rule is recoverable from the bases:
//! assert_eq!(bases.derive_exact_rules(), bases.exact_rules());
//! assert_eq!(bases.derive_approximate_rules(), bases.approximate_rules());
//! ```
//!
//! The substrate crates are re-exported for convenience:
//! [`rulebases_dataset`] (contexts, generators, I/O),
//! [`rulebases_mining`] (Apriori, Close, A-Close, CHARM),
//! [`rulebases_lattice`] (NextClosure, pseudo-closed sets, the iceberg
//! lattice).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod all_rules;
pub mod approx;
pub mod checkpoint;
pub mod derive;
pub mod exact;
pub mod export;
pub mod fused;
pub mod generic_basis;
pub mod metrics;
pub mod miner;
pub mod redundancy;
pub mod report;
pub mod rule;
pub mod serve;
pub mod stream;

pub use all_rules::{all_rules, count_all_rules};
pub use approx::{all_approximate_rules, LuxenburgerBasis};
pub use checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointedMiner, FaultFs, LostSuffix, RecoveryError,
    RecoveryReport,
};
pub use derive::{derive_approximate_rules, derive_exact_rules, ApproxDerivation};
pub use exact::{all_exact_rules, count_exact_rules, DuquenneGuiguesBasis};
pub use export::{read_rules_jsonl, write_rules_csv, write_rules_jsonl};
pub use fused::{FusedMiner, PipelineKind};
pub use generic_basis::{generic_basis, informative_basis, informative_basis_reduced};
pub use metrics::RuleMetrics;
pub use miner::{MinedBases, RuleMiner};
pub use redundancy::{covers, find_redundant, minimal_cover, Redundancy};
pub use report::BasisReport;
pub use rule::Rule;
pub use serve::{
    BasketMatch, MatchCost, Recommendation, RuleReader, RuleServer, ServeStats, ServedBasis,
    ServingSnapshot,
};
pub use stream::{BasesDelta, RuleSetDelta, StreamingMiner, Window};

// Re-export the substrate crates and the most common types.
pub use rulebases_dataset::{self as dataset, MinSupport, MiningContext, TransactionDb};
pub use rulebases_lattice::{self as lattice, GenStats, IcebergLattice};
pub use rulebases_mining::{self as mining, ClosedAlgorithm};
