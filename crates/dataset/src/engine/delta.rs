//! Batch deltas (appends and expiries) and the delta-aware engine
//! surface.
//!
//! A streaming context changes by whole batches, in both directions:
//! [`TransactionDb::append_rows`] extends the CSR in place,
//! [`TransactionDb::expire_rows`] drops a prefix of rows, and both stamp
//! a monotone epoch. A [`TxDelta`] packages one such step — an
//! [`TxDelta::Append`] carries the grown snapshot plus the appended row
//! range, an [`TxDelta::Expire`] the shrunk snapshot plus the expired
//! prefix — so every derived structure can catch up *incrementally*
//! instead of being rebuilt. [`DeltaSupportEngine`] is the surface the
//! backends implement:
//!
//! * **dense** extends every bitset cover by the appended rows
//!   ([`BitSet::grow`] + delta bit inserts); expiry drops each cover's
//!   prefix bits in place ([`BitSet::drop_prefix`]);
//! * **tid-list** appends the new transaction ids to the affected sorted
//!   lists (the ids are larger than everything present, so the append
//!   keeps the lists sorted); expiry drops the ids below the cut and
//!   renumbers the survivors down, which keeps the lists sorted too;
//! * **cached** invalidates exactly the closure classes whose extents
//!   intersect the delta — an entry `X ↦ (h(X), supp X)` stays correct
//!   unless some appended *or expired* row contains `X` — and passes the
//!   delta to the backend beneath.
//!
//! Deltas must be applied in epoch order: every engine remembers the
//! epoch of the data it reflects and rejects out-of-order deltas with
//! [`DeltaError::EpochMismatch`].
//!
//! [`TransactionDb::append_rows`]: crate::TransactionDb::append_rows
//! [`TransactionDb::expire_rows`]: crate::TransactionDb::expire_rows
//! [`BitSet::grow`]: crate::BitSet::grow
//! [`BitSet::drop_prefix`]: crate::BitSet::drop_prefix

use super::SupportEngine;
use crate::transaction::{AppendInfo, ExpireInfo, TransactionDb};
use std::fmt;
use std::sync::Arc;

/// One context-changing batch, as seen by a delta-aware engine: either
/// an append of rows at the end or an expiry of rows at the front.
///
/// The snapshots are shared (`Arc`), so building a delta never copies
/// row data; engines that keep a horizontal view swap their snapshot for
/// the delta's while adjusting their vertical structures by the changed
/// rows only.
#[derive(Clone, Debug)]
pub enum TxDelta {
    /// An append batch: the grown snapshot plus the appended row range.
    Append(AppendDelta),
    /// A prefix expiry: the shrunk snapshot plus the expired prefix
    /// length (surviving rows renumber down by it).
    Expire(ExpireDelta),
}

impl TxDelta {
    /// Packages an append described by `info` against the grown snapshot
    /// `db`.
    ///
    /// # Panics
    ///
    /// Panics if `info.start` exceeds the snapshot's row count (the
    /// appended range must exist in the snapshot).
    pub fn new(db: Arc<TransactionDb>, info: AppendInfo) -> Self {
        assert!(
            info.start <= db.n_transactions(),
            "append start {} beyond the {}-row snapshot",
            info.start,
            db.n_transactions()
        );
        TxDelta::Append(AppendDelta { db, info })
    }

    /// Packages a prefix expiry described by `info`: `prior` is the
    /// snapshot *before* the expiry (the rows being dropped are read
    /// from it — e.g. by cache invalidation), `db` the shrunk snapshot
    /// after it.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree with `info.rows`.
    pub fn expire(prior: Arc<TransactionDb>, db: Arc<TransactionDb>, info: ExpireInfo) -> Self {
        assert_eq!(
            prior.n_transactions(),
            db.n_transactions() + info.rows,
            "expiry of {} rows does not connect the snapshots",
            info.rows
        );
        TxDelta::Expire(ExpireDelta { prior, db, info })
    }

    /// The post-step database snapshot (grown or shrunk).
    #[inline]
    pub fn db(&self) -> &TransactionDb {
        self.db_arc()
    }

    /// The post-step database snapshot, shared.
    #[inline]
    pub fn db_arc(&self) -> &Arc<TransactionDb> {
        match self {
            TxDelta::Append(a) => &a.db,
            TxDelta::Expire(e) => &e.db,
        }
    }

    /// The epoch the receiving engine must be at (the epoch before the
    /// step).
    #[inline]
    pub fn base_epoch(&self) -> u64 {
        match self {
            TxDelta::Append(a) => a.info.base_epoch,
            TxDelta::Expire(e) => e.info.base_epoch,
        }
    }

    /// The epoch after the step.
    #[inline]
    pub fn epoch(&self) -> u64 {
        match self {
            TxDelta::Append(a) => a.info.epoch,
            TxDelta::Expire(e) => e.info.epoch,
        }
    }
}

/// The [`TxDelta::Append`] payload: a snapshot of the *grown* database
/// plus the half-open appended row range `start()..end()`.
#[derive(Clone, Debug)]
pub struct AppendDelta {
    db: Arc<TransactionDb>,
    info: AppendInfo,
}

impl AppendDelta {
    /// The grown database snapshot.
    #[inline]
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// The grown database snapshot, shared.
    #[inline]
    pub fn db_arc(&self) -> &Arc<TransactionDb> {
        &self.db
    }

    /// First appended row (= the row count before the append).
    #[inline]
    pub fn start(&self) -> usize {
        self.info.start
    }

    /// One past the last appended row (= the grown row count).
    #[inline]
    pub fn end(&self) -> usize {
        self.db.n_transactions()
    }

    /// Number of appended rows.
    #[inline]
    pub fn n_appended(&self) -> usize {
        self.end() - self.start()
    }

    /// The epoch the receiving engine must be at (the epoch before the
    /// append).
    #[inline]
    pub fn base_epoch(&self) -> u64 {
        self.info.base_epoch
    }

    /// The epoch after the append.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.info.epoch
    }

    /// Universe size before the append.
    #[inline]
    pub fn prior_items(&self) -> usize {
        self.info.prior_items
    }

    /// Whether the append introduced item ids beyond the old universe.
    #[inline]
    pub fn grew_universe(&self) -> bool {
        self.db.n_items() > self.info.prior_items
    }

    /// Number of `(object, item)` entries across the appended rows.
    pub fn appended_entries(&self) -> usize {
        self.db.entries_in_rows(self.start(), self.end())
    }

    /// Bytes of CSR row storage the appended rows occupy (see
    /// [`row_storage_bytes`](crate::storage::row_storage_bytes)) — what a
    /// delta-aware backend charges to
    /// [`CacheStats::bytes_copied`](super::CacheStats) when it ingests
    /// this batch. Zero for an empty batch.
    pub fn appended_bytes(&self) -> u64 {
        if self.n_appended() == 0 {
            return 0;
        }
        crate::storage::row_storage_bytes(self.n_appended(), self.appended_entries()) as u64
    }
}

/// The [`TxDelta::Expire`] payload: the snapshots on both sides of a
/// prefix expiry. Rows `0..rows()` of [`ExpireDelta::prior`] are the
/// expired objects; [`ExpireDelta::db`] holds the survivors, renumbered
/// down by `rows()`.
#[derive(Clone, Debug)]
pub struct ExpireDelta {
    prior: Arc<TransactionDb>,
    db: Arc<TransactionDb>,
    info: ExpireInfo,
}

impl ExpireDelta {
    /// The shrunk database snapshot.
    #[inline]
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// The shrunk database snapshot, shared.
    #[inline]
    pub fn db_arc(&self) -> &Arc<TransactionDb> {
        &self.db
    }

    /// The pre-expiry snapshot — rows `0..rows()` of it are the expired
    /// objects, readable by consumers that need their contents (cache
    /// invalidation, lattice removal).
    #[inline]
    pub fn prior(&self) -> &TransactionDb {
        &self.prior
    }

    /// Number of expired prefix rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.info.rows
    }

    /// The epoch the receiving engine must be at (the epoch before the
    /// expiry).
    #[inline]
    pub fn base_epoch(&self) -> u64 {
        self.info.base_epoch
    }

    /// The epoch after the expiry.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.info.epoch
    }
}

/// Why a delta could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The engine (or a layer beneath it) is aliased by another `Arc`
    /// handle, so it cannot be mutated in place. Drop the other handles —
    /// typically a cloned [`MiningContext`](crate::MiningContext) — and
    /// retry.
    SharedEngine,
    /// A layer of the engine stack does not implement
    /// [`DeltaSupportEngine`]; the payload names the backend.
    NotDeltaAware(&'static str),
    /// The delta does not continue the engine's epoch: deltas must be
    /// applied contiguously, in append order.
    EpochMismatch {
        /// The epoch the engine is at.
        engine: u64,
        /// The epoch the delta starts from.
        delta: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::SharedEngine => {
                write!(
                    f,
                    "engine is shared (aliased Arc); cannot apply delta in place"
                )
            }
            DeltaError::NotDeltaAware(name) => {
                write!(f, "backend {name:?} does not support delta application")
            }
            DeltaError::EpochMismatch { engine, delta } => write!(
                f,
                "delta starts at epoch {delta} but the engine is at epoch {engine}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A [`SupportEngine`] that can absorb a batch delta (append or prefix
/// expiry) in place.
///
/// After a successful [`DeltaSupportEngine::apply_delta`], every query
/// answers exactly as a fresh engine built from the post-delta snapshot
/// would (cross-checked by the dataset proptests) and
/// [`SupportEngine::epoch`] reports the delta's epoch.
pub trait DeltaSupportEngine: SupportEngine {
    /// Absorbs one batch delta. On error the engine is unchanged.
    fn apply_delta(&mut self, delta: &TxDelta) -> Result<(), DeltaError>;
}

/// The epoch guard every backend runs first: a delta must start exactly
/// where the engine is.
pub(crate) fn check_epoch(engine: u64, delta: &TxDelta) -> Result<(), DeltaError> {
    if delta.base_epoch() != engine {
        return Err(DeltaError::EpochMismatch {
            engine,
            delta: delta.base_epoch(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_describes_the_append() {
        let mut db = TransactionDb::from_rows(vec![vec![1, 2], vec![0]]);
        let info = db.append_rows(vec![vec![5], vec![1]]).unwrap();
        let delta = TxDelta::new(Arc::new(db), info);
        assert_eq!((delta.base_epoch(), delta.epoch()), (0, 1));
        let TxDelta::Append(append) = &delta else {
            panic!("append batches package as TxDelta::Append");
        };
        assert_eq!((append.start(), append.end()), (2, 4));
        assert_eq!(append.n_appended(), 2);
        assert_eq!(append.prior_items(), 3);
        assert!(append.grew_universe());
    }

    #[test]
    fn delta_describes_the_expiry() {
        let mut db = TransactionDb::from_rows(vec![vec![1, 2], vec![0], vec![2]]);
        let prior = Arc::new(db.clone());
        let info = db.expire_rows(2);
        let delta = TxDelta::expire(prior, Arc::new(db), info);
        assert_eq!((delta.base_epoch(), delta.epoch()), (0, 1));
        assert_eq!(delta.db().n_transactions(), 1);
        let TxDelta::Expire(expire) = &delta else {
            panic!("expiry batches package as TxDelta::Expire");
        };
        assert_eq!(expire.rows(), 2);
        assert_eq!(expire.prior().n_transactions(), 3);
        // Survivors renumber down: the shrunk row 0 is the prior row 2.
        assert_eq!(expire.db().transaction(0), expire.prior().transaction(2));
    }

    #[test]
    #[should_panic(expected = "does not connect")]
    fn expire_rejects_disconnected_snapshots() {
        let mut db = TransactionDb::from_rows(vec![vec![1], vec![2]]);
        let prior = Arc::new(db.clone());
        let mut info = db.expire_rows(1);
        info.rows = 2; // lies about the prefix length
        let _ = TxDelta::expire(prior, Arc::new(db), info);
    }

    #[test]
    fn epoch_guard_rejects_gaps() {
        let mut db = TransactionDb::from_rows(vec![vec![1]]);
        let info = db.append_rows(vec![vec![1]]).unwrap();
        let delta = TxDelta::new(Arc::new(db), info);
        assert_eq!(check_epoch(0, &delta), Ok(()));
        assert_eq!(
            check_epoch(1, &delta),
            Err(DeltaError::EpochMismatch {
                engine: 1,
                delta: 0
            })
        );
    }

    #[test]
    fn errors_display() {
        assert!(DeltaError::SharedEngine.to_string().contains("shared"));
        assert!(DeltaError::NotDeltaAware("x").to_string().contains("x"));
        assert!(DeltaError::EpochMismatch {
            engine: 2,
            delta: 0
        }
        .to_string()
        .contains("epoch"));
    }
}
