//! The traced run's shadow of `StreamingMiner::push_batch`.
//!
//! `push_batch` exposes no internal seams, so the traced run replays each
//! batch a second time through shadow instances of the public calls it is
//! made of, in the same order: `TransactionDb::append_rows` and
//! `MiningContext::apply_delta` for the append, one
//! `IncrementalLattice::insert_object_delta` per row, then, under a
//! sliding window, `TransactionDb::expire_rows`, the expiry delta and one
//! `remove_object_delta` per expired row, and finally the session's
//! doubling segment compaction. Each call is a span under the batch's
//! `stream.push` span; what the push spent beyond them is the base
//! patching in `core::stream` (`stream.patch_us`).

use crate::common::Run;
use rulebases::Window;
use rulebases_dataset::engine::TxDelta;
use rulebases_dataset::{EngineKind, Itemset, MiningContext, Parallelism, TransactionDb};
use rulebases_lattice::{IncrementalLattice, LatticeDelta};
use std::sync::Arc;

pub struct Shadow {
    db: Arc<TransactionDb>,
    ctx: MiningContext,
    lattice: IncrementalLattice,
    window: Option<usize>,
}

impl Shadow {
    /// A shadow of a session opened on `seed` under `window` (only
    /// `Unbounded` and `Sliding` are shadowed).
    pub fn new(seed: &TransactionDb, window: Window) -> Self {
        let db = Arc::new(seed.clone());
        let ctx = MiningContext::with_engine_arc_par(
            Arc::clone(&db),
            EngineKind::Auto,
            Parallelism::Auto,
        );
        let mut lattice = IncrementalLattice::new();
        for t in 0..db.n_transactions() {
            lattice.insert_object(&Itemset::from_sorted(db.transaction(t).to_vec()));
        }
        let window = match window {
            Window::Sliding(n) => Some(n),
            _ => None,
        };
        Shadow {
            db,
            ctx,
            lattice,
            window,
        }
    }

    pub fn lattice(&self) -> &IncrementalLattice {
        &self.lattice
    }

    /// Replays one batch under the push span `parent` of operation `op`.
    pub fn replay(&mut self, run: &mut Run, rows: Vec<Vec<u32>>, op: u64, parent: usize) {
        let p = Some(parent);
        let appended = run.tracer.timed("dataset.append", op, p, || {
            let mut grown = TransactionDb::clone(&self.db);
            grown.append_rows(rows).map(|info| (grown, info))
        });
        let Some((grown, info)) = run.ok("shadow append_rows", appended) else {
            return;
        };
        let grown = Arc::new(grown);
        let delta = TxDelta::new(Arc::clone(&grown), info);
        let applied = run.tracer.timed("dataset.apply_delta", op, p, || {
            self.ctx.apply_delta(&delta)
        });
        run.ok("shadow apply_delta", applied);
        let mut touched = LatticeDelta::default();
        run.tracer.timed("lattice.insert", op, p, || {
            for t in info.start..grown.n_transactions() {
                let row = Itemset::from_sorted(grown.transaction(t).to_vec());
                touched.absorb(self.lattice.insert_object_delta(&row));
            }
        });
        self.db = grown;

        let expired = self
            .window
            .map_or(0, |n| self.db.n_transactions().saturating_sub(n));
        if expired > 0 {
            let prior = Arc::clone(&self.db);
            let (shrunk, einfo) = run.tracer.timed("dataset.expire", op, p, || {
                let mut shrunk = TransactionDb::clone(&self.db);
                let einfo = shrunk.expire_rows(expired);
                (shrunk, einfo)
            });
            let shrunk = Arc::new(shrunk);
            let delta = TxDelta::expire(Arc::clone(&prior), Arc::clone(&shrunk), einfo);
            let applied = run.tracer.timed("dataset.apply_delta", op, p, || {
                self.ctx.apply_delta(&delta)
            });
            run.ok("shadow expire delta", applied);
            run.tracer.timed("lattice.remove", op, p, || {
                for t in 0..expired {
                    let row = Itemset::from_sorted(prior.transaction(t).to_vec());
                    touched.absorb(self.lattice.remove_object_delta(&row));
                }
            });
            self.db = shrunk;
        }

        // The session's compaction policy: fold once the segment count
        // reaches 2·⌈log₂ rows⌉.
        let rows = self.db.n_transactions();
        let budget = 2 * (usize::BITS - rows.saturating_sub(1).leading_zeros()).max(1) as usize;
        if rows >= 2 && self.db.n_segments() >= budget {
            let flat = run.tracer.timed("dataset.compact", op, p, || {
                let mut flat = TransactionDb::clone(&self.db);
                flat.compact();
                flat
            });
            self.db = Arc::new(flat);
        }
        run.add("lattice.touched", touched.touched().len() as f64);
    }
}
