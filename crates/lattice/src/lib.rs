//! # rulebases-lattice
//!
//! Closure systems and the frequent-closed-itemset lattice for the
//! `rulebases` workspace — the order-theoretic substrate of *"Mining Bases
//! for Association Rules Using Closed Sets"* (Taouil et al., ICDE 2000).
//!
//! * [`ClosureOperator`] — the abstract interface shared by the Galois
//!   closure of a context and the logical closure of an implication set;
//! * [`Implication`] / [`ImplicationSet`] — exact rules and Armstrong
//!   derivation (logical closure, entailment, equivalence);
//! * [`next_closure`] — Ganter's NextClosure enumeration and the full
//!   stem-base (Duquenne-Guigues) construction;
//! * [`pseudo::frequent_pseudo_closed`] — the paper's frequent
//!   pseudo-closed itemsets `FP` (Theorem 1);
//! * [`IcebergLattice`] — the order `(FC, ⊆)` with its Hasse diagram,
//!   whose edge set is the transitive reduction of Theorem 2.
//!
//! ```
//! use rulebases_dataset::{paper_example, MiningContext, MinSupport};
//! use rulebases_mining::{Close, ClosedMiner};
//! use rulebases_lattice::IcebergLattice;
//!
//! let ctx = MiningContext::new(paper_example());
//! let fc = Close::default().mine_closed(&ctx, MinSupport::Count(2));
//! let lattice = IcebergLattice::from_closed(&fc);
//! assert_eq!(lattice.n_nodes(), 6);
//! assert_eq!(lattice.n_edges(), 7); // the reduced Luxenburger skeleton
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod closure_op;
pub mod dot;
pub mod hasse;
pub mod implications;
pub mod incremental;
pub mod lattice;
pub mod lattice_stats;
pub mod next_closure;
pub mod pseudo;

pub use closure_op::ClosureOperator;
pub use dot::to_dot;
pub use implications::{Implication, ImplicationSet};
pub use incremental::{GenStats, IncrementalLattice, LatticeDelta};
pub use lattice::IcebergLattice;
pub use lattice_stats::LatticeStats;
pub use next_closure::{next_closed, stem_base, AllClosed, StemBase};
pub use pseudo::{frequent_pseudo_closed, PseudoClosed};
