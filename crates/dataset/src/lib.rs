//! # rulebases-dataset
//!
//! Data-mining contexts for the `rulebases` workspace — the substrate layer
//! of the reproduction of *"Mining Bases for Association Rules Using Closed
//! Sets"* (Taouil, Pasquier, Bastide, Lakhal — ICDE 2000).
//!
//! A data-mining context is a triple `D = (O, I, R)`: objects, items, and a
//! binary relation between them. This crate provides:
//!
//! * the value types: [`Item`], [`Itemset`] (sorted set algebra), and
//!   [`BitSet`] (dense object sets), over the chunked/galloping set
//!   primitives of [`kernels`];
//! * the stores: [`TransactionDb`] (horizontal, CSR) and the pluggable
//!   vertical [`engine`] backends (dense bitsets and tid-lists) behind
//!   the [`SupportEngine`] trait, wrapped in a memoizing closure cache;
//! * the shared [`pool`] fan-out primitives and the [`Parallelism`]
//!   configuration every parallel construction threads through;
//! * the **Galois connection** of the paper's Section 2 via
//!   [`MiningContext`]: extents (`g`), intents (`f`), and the closure
//!   operator `h = f ∘ g` — all delegated to the engine;
//! * seeded synthetic [`generator`]s standing in for the paper's evaluation
//!   datasets (IBM Quest sparse baskets, MUSHROOMS / census-like dense
//!   tables);
//! * dataset [`io`] (FIMI `.dat`, baskets, categorical CSV) and
//!   [`DatasetStats`].
//!
//! ## Quickstart
//!
//! ```
//! use rulebases_dataset::{MiningContext, TransactionDb, Itemset};
//!
//! let db = TransactionDb::from_rows(vec![
//!     vec![1, 3, 4],
//!     vec![2, 3, 5],
//!     vec![1, 2, 3, 5],
//!     vec![2, 5],
//!     vec![1, 2, 3, 5],
//! ]);
//! let ctx = MiningContext::new(db);
//! let b = Itemset::from_ids([2]);
//! assert_eq!(ctx.closure(&b), Itemset::from_ids([2, 5])); // h(B) = BE
//! assert_eq!(ctx.support(&b), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitset;
pub mod checksum;
pub mod context;
pub mod engine;
pub mod error;
pub mod generator;
pub mod io;
pub mod item;
pub mod itemset;
pub mod kernels;
pub mod pool;
pub mod sampling;
pub mod stats;
pub mod storage;
pub mod support;
pub mod transaction;
pub mod vertical;

pub use bitset::BitSet;
pub use checksum::{fnv1a64, Fnv64};
pub use context::MiningContext;
pub use engine::{
    AppendDelta, CacheStats, CachedEngine, DeltaError, DeltaSupportEngine, EngineKind, ExpireDelta,
    SupportEngine, TxDelta,
};
pub use error::DatasetError;
pub use item::{Item, ItemDictionary};
pub use itemset::Itemset;
pub use pool::Parallelism;
pub use stats::DatasetStats;
pub use storage::{row_storage_bytes, Segment};
pub use support::{MinSupport, Support};
pub use transaction::{AppendInfo, ExpireInfo, TransactionDb, TransactionDbBuilder};
pub use vertical::VerticalDb;

/// The five-object running example used throughout the paper family
/// (objects `ACD, BCE, ABCE, BE, ABCE` over items `A=1 … E=5`).
///
/// Exposed so every crate's tests and docs can share it.
pub fn paper_example() -> TransactionDb {
    let dict = ItemDictionary::from_labels(["∅", "A", "B", "C", "D", "E"]);
    TransactionDb::from_rows(vec![
        vec![1, 3, 4],
        vec![2, 3, 5],
        vec![1, 2, 3, 5],
        vec![2, 5],
        vec![1, 2, 3, 5],
    ])
    .with_dictionary(dict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        let db = paper_example();
        assert_eq!(db.n_transactions(), 5);
        assert_eq!(db.n_items(), 6);
        assert_eq!(db.dictionary().unwrap().label(Item::new(2)), Some("B"));
    }
}
