//! The closure system of a transaction stream, maintained object by
//! object.
//!
//! [`IncrementalLattice`] holds *every* closed set of the objects
//! inserted so far (not an iceberg cut: an infrequent class may become
//! frequent under later appends), with its covering relation and each
//! class's minimal generators. It is the state of a streaming session:
//! [`IncrementalLattice::insert_object`] and
//! [`IncrementalLattice::remove_object`] move it one transaction at a
//! time, and [`IncrementalLattice::snapshot`] cuts the iceberg view at
//! any threshold as an [`IcebergLattice`]. A closed family mined in one
//! pass builds its diagram with [`IcebergLattice::from_closed`] instead.
//!
//! Every per-slot scan runs as word algebra: the lattice keeps each
//! slot's intent a second time as a bit set packed into `u64` words
//! (bit `i` ⇔ item `i`), and keys its intent index by those words. A
//! meet is one AND, a meet count one AND and popcount, a subset test
//! one AND-NOT per word, all through [`rulebases_dataset::kernels`]. The width is the largest item id seen
//! so far, rounded up to whole words, and grows in place when a wider
//! set arrives; index keys drop their trailing zero words, so they do
//! not depend on it. The packed words are derived state: the wire form
//! holds only the sorted intents, and a restore packs them again.
//!
//! # Streaming: object insertion
//!
//! [`IncrementalLattice::insert_object`] grows the diagram one
//! *transaction* at a time — the GALICIA-style maintenance step that
//! makes the lattice a live structure under appends. Adding an object
//! with itemset `R` changes the closure system in exactly two ways:
//!
//! * every closed set `A ⊆ R` gains the new object — its support bumps
//!   by one and it stays closed;
//! * the new intents are precisely `{A ∩ R : A an old intent} ∪ {R}`,
//!   each entering with support `supp(h_old(A ∩ R)) + 1` — so the whole
//!   update is set algebra over the maintained nodes, with **zero**
//!   support-engine queries.
//!
//! A new intent `X` other than `R` is found through its *generator*
//! `Z = h_old(X)`, the one node with `Z ∩ R = X` none of whose lower
//! covers contains `X`, and is wired from `Z`'s neighbourhood: `Z` is
//! its one upper cover, and its lower covers are the maximal intents
//! among `C ∩ R` over the lower covers `C` of `Z`.
//!
//! # Generator maintenance: local extension, not recomputation
//!
//! The minimal-generator tags are first-class maintained state, updated
//! by GenClose-style **local rules** on each mutation rather than
//! re-derived per touched class:
//!
//! * when a class splits (a new intent `Y = A ∩ R` interposes below its
//!   old closure `Z`), the new class inherits exactly the old tags of
//!   `Z` that fit inside it — `gens(Y) = {G ∈ gens_old(Z) : G ⊆ Y}`,
//!   where `Z` is the unique old node containing `Y` with maximal
//!   support, found during the base-support scan at no extra cost;
//! * a node that gains `Y` as a new lower cover runs **one Berge
//!   constraint step**: tags hitting the complement `Z ∖ Y` survive
//!   unchanged, tags inside `Y` are extended by one item `a ∈ Z ∖ Y`,
//!   and a candidate `g ∪ {a}` is kept iff no maintained tag subsumes
//!   it — the one-item extension rule;
//! * under removal, a dying class with surviving extent donates its
//!   tags to the closure it merges into, and the union is
//!   subsumption-minimized in place.
//!
//! Each rule touches one node and its changed covers, so tag work is
//! sized by the delta, never by the lattice. The classical
//! characterization — the minimal generators of `Z` are the minimal
//! transversals of `{Z ∖ C : C a lower cover of Z}`, because a set
//! generates `Z` iff it escapes every maximal proper closed subset —
//! is **retained as an oracle**
//! ([`IncrementalLattice::oracle_generators_of`], the same
//! keep-the-reference-path pattern as the scalar kernels): it is what
//! the proptests and the ablation bench differentially test the local
//! rules against, and no maintenance path calls it. Both formulations
//! assume the diagram holds *all* closed sets of the context — which is
//! exactly what repeated `insert_object` maintains; iceberg views at a
//! support threshold are cut afterwards with
//! [`IncrementalLattice::snapshot`]. [`GenStats`] counts the work —
//! extension candidates and subsumption checks.
//!
//! # Streaming: object removal
//!
//! [`IncrementalLattice::remove_object`] is the exact dual, making the
//! structure bidirectional for windowed and decaying streams. Removing
//! an object with itemset `R` changes the closure system in two ways:
//!
//! * every closed set `A ⊆ R` loses the object — its support drops by
//!   one;
//! * a closed set `X ⊆ R` *dies* iff it is no longer an intersection of
//!   remaining rows, which happens iff its new support is zero or some
//!   strict superset node has the same new support (nested extents of
//!   equal size are equal extents, so `X` merges into that closure).
//!
//! Dying nodes are spliced out of the covering relation — the
//! interposition step run in reverse: a lower cover reconnects to an
//! upper cover exactly when no surviving node still interposes — and a
//! dying class whose extent survives donates its generator tags to the
//! closure it merges into (subsumption-minimized on arrival; see the
//! generator-maintenance section above), again with **zero** engine
//! queries.
//! Dead node ids are never reused: the slot keeps its intent (so
//! id-keyed bookkeeping in downstream consumers stays resolvable) but
//! leaves the index, the edge lists, and every snapshot.

use crate::lattice::IcebergLattice;
use rulebases_dataset::kernels::{and_assign, and_count, is_subset};
use rulebases_dataset::{Itemset, Support};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Work counters for minimal-generator maintenance — accumulated per
/// maintenance step into [`LatticeDelta::gen`] and over the lattice's
/// lifetime into [`IncrementalLattice::gen_stats`]. Every tag update on
/// the object insert/remove paths is a local extension/subsumption
/// rule, never a from-scratch transversal recomputation over a node's
/// full lower-cover family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenStats {
    /// One-item extension candidates `g ∪ {a}` examined.
    pub candidates: u64,
    /// Pairwise subset/disjointness tests spent keeping tag lists
    /// minimal (partitioning survivors, rejecting subsumed candidates,
    /// minimizing merged pools).
    pub subsumption_checks: u64,
    /// Nodes retagged by the full transversal oracle. Always 0 on a
    /// lattice's own counters, since no maintenance path runs the
    /// oracle; a caller that meters
    /// [`IncrementalLattice::oracle_generators_counted`] counts one per
    /// call here. The streaming telemetry and the bench gate read it as
    /// the invariant.
    pub transversal_fallbacks: u64,
}

impl GenStats {
    /// Folds another step's counters into this one.
    pub fn absorb(&mut self, other: GenStats) {
        self.candidates += other.candidates;
        self.subsumption_checks += other.subsumption_checks;
        self.transversal_fallbacks += other.transversal_fallbacks;
    }
}

/// What one [`IncrementalLattice::insert_object`] insertion or
/// [`IncrementalLattice::remove_object`] removal changed — the
/// per-maintenance-step *touched-class set* the streaming layer diffs
/// the rule bases against, instead of re-materializing them. Node ids
/// refer to the maintained diagram (ids are stable: slots are never
/// reused or renumbered, and a slot's intent never changes once
/// inserted — removal tombstones the slot in place, so only supports,
/// covers, liveness, and generator tags move).
///
/// Every closure class the step can affect appears in at least one of
/// the id lists: a rule whose antecedent/consequent classes are all
/// untouched is bit-for-bit unchanged, which is the invariant that
/// makes lattice-level base diffing sound.
#[derive(Clone, Debug, Default)]
pub struct LatticeDelta {
    /// Nodes an insertion created (split classes `A ∩ R` plus `R`
    /// itself when new), in insertion order.
    pub created: Vec<usize>,
    /// Pre-existing nodes whose support an object insertion bumped
    /// (`A ⊆ R`), in node-id order.
    pub bumped: Vec<usize>,
    /// Pre-existing nodes whose support an object removal decremented
    /// (`A ⊆ R`), in node-id order — the dual of `bumped`. A batch can
    /// list the same id in both; the net movement is the difference.
    pub dropped: Vec<usize>,
    /// Nodes a removal tombstoned (their intent merged into its
    /// closure), in node-id order. The slots keep their intents but
    /// leave the diagram.
    pub removed: Vec<usize>,
    /// Nodes whose minimal-generator tags were recomputed because their
    /// lower covers changed (created nodes and everything the
    /// interposition rewired, in either direction), in node-id order.
    pub retagged: Vec<usize>,
    /// Covering edges `(lower, upper)` that rewiring removed — they
    /// existed before the step (or earlier within it) and are no
    /// longer edges of the diagram. Deduplicated on
    /// [`LatticeDelta::absorb`].
    pub removed_edges: Vec<(usize, usize)>,
    /// Generator-maintenance work the step spent (summed on
    /// [`LatticeDelta::absorb`], so a batch's delta carries the batch's
    /// total).
    pub gen: GenStats,
}

impl LatticeDelta {
    /// Every node id the step touched (created, bumped, dropped,
    /// removed, or retagged), deduplicated and sorted.
    pub fn touched(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .created
            .iter()
            .chain(&self.bumped)
            .chain(&self.dropped)
            .chain(&self.removed)
            .chain(&self.retagged)
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Folds another step's delta into this one (batch accumulation):
    /// id lists concatenate (`touched()` dedups), removed edges union.
    ///
    /// An edge can be removed by one step and re-examined by a later
    /// step in the same batch (interposition under an insert, splicing
    /// under a remove), so `removed_edges` is deduplicated here rather
    /// than concatenated — a double-reported edge would make the base
    /// patcher reconcile the same rule key twice.
    pub fn absorb(&mut self, other: LatticeDelta) {
        self.created.extend(other.created);
        self.bumped.extend(other.bumped);
        self.dropped.extend(other.dropped);
        self.removed.extend(other.removed);
        self.retagged.extend(other.retagged);
        self.removed_edges.extend(other.removed_edges);
        self.removed_edges.sort_unstable();
        self.removed_edges.dedup();
        self.gen.absorb(other.gen);
    }
}

/// The Hasse diagram of a stream's closure system, maintained object by
/// object. Nodes are kept in arrival order internally;
/// [`IncrementalLattice::snapshot`] re-sorts canonically and hands back
/// an [`IcebergLattice`] plus the per-node generator tags.
///
/// Beside each slot's sorted intent it keeps the intent's packed words
/// (see the module docs), which every structural scan reads. They are
/// derived from the intents, so they are not persisted.
#[derive(Clone, Debug, Default)]
pub struct IncrementalLattice {
    nodes: Vec<(Itemset, Support)>,
    /// Slot `id`'s intent as a bit set: `packed[id * words..][..words]`.
    packed: Vec<u64>,
    /// Words per packed intent: enough for the largest item id seen.
    words: usize,
    /// Live intents by their packed words, trailing zero words trimmed.
    index: HashMap<Box<[u64]>, usize>,
    upper: Vec<Vec<usize>>,
    lower: Vec<Vec<usize>>,
    generators: Vec<Vec<Itemset>>,
    /// Liveness per slot: object removal tombstones nodes in place
    /// (ids are never reused), so every structural scan filters on
    /// this. Insert-only usage keeps it all-true.
    alive: Vec<bool>,
    /// Lifetime generator-maintenance work (every step's
    /// [`LatticeDelta::gen`]).
    stats: GenStats,
}

impl IncrementalLattice {
    /// An empty diagram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative generator-maintenance work over this lattice's
    /// lifetime (every object step's [`LatticeDelta::gen`]).
    pub fn gen_stats(&self) -> GenStats {
        self.stats
    }

    /// Number of node *slots* allocated so far — live closed sets plus
    /// tombstones left by [`IncrementalLattice::remove_object`]. Ids
    /// range over `0..n_nodes()`; check [`IncrementalLattice::is_live`]
    /// before treating a slot as a closure class of the current
    /// context.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether slot `id` is a closed set of the current context (true)
    /// or a tombstone left by a removal (false).
    ///
    /// # Panics
    ///
    /// Panics if `id >= n_nodes()`.
    pub fn is_live(&self, id: usize) -> bool {
        self.alive[id]
    }

    /// Number of covering edges in the current diagram.
    pub fn n_edges(&self) -> usize {
        self.upper.iter().map(Vec::len).sum()
    }

    /// Adds a new node — intent `set`, packed as `x` — between its
    /// immediate predecessors and successors, removing (and reporting)
    /// every pred→succ edge it interposes on. Returns its id.
    fn link(
        &mut self,
        set: &Itemset,
        x: Vec<u64>,
        support: Support,
        preds: Vec<usize>,
        succs: Vec<usize>,
        removed_edges: &mut Vec<(usize, usize)>,
    ) -> usize {
        let id = self.nodes.len();
        for &p in &preds {
            for &s in &succs {
                if let Some(pos) = self.upper[p].iter().position(|&u| u == s) {
                    self.upper[p].swap_remove(pos);
                    let back = self.lower[s]
                        .iter()
                        .position(|&l| l == p)
                        .expect("cover lists out of sync");
                    self.lower[s].swap_remove(back);
                    removed_edges.push((p, s));
                }
            }
        }
        for &p in &preds {
            self.upper[p].push(id);
        }
        for &s in &succs {
            self.lower[s].push(id);
        }
        self.nodes.push((set.clone(), support));
        self.index.insert(trimmed(&x).into(), id);
        self.packed.extend_from_slice(&x);
        self.upper.push(succs);
        self.lower.push(preds);
        self.generators.push(Vec::new());
        self.alive.push(true);
        id
    }

    /// The immediate predecessors of the new intent `z ∩ row` that node
    /// `z` generates (see [`IncrementalLattice::insert_object_delta`]),
    /// found in `z`'s neighbourhood: they are the maximal intents among
    /// `c ∩ row` over the lower covers `c` of `z`. Each of those is an
    /// intent strictly inside `z ∩ row`, so it is already a node (new
    /// intents arrive smallest first); and a maximal node `y` below
    /// `z ∩ row` lies under some lower cover `c`, so `y ⊆ c ∩ row`, with
    /// equality by maximality. Ids come back ascending, the order the
    /// full scan finds them in.
    fn covers_below(&self, z: usize, r: &[u64]) -> Vec<usize> {
        let mut meet = vec![0u64; self.words];
        let mut ids: Vec<usize> = self.lower[z]
            .iter()
            .map(|&c| {
                meet.copy_from_slice(self.slot(c));
                and_assign(&mut meet, r);
                *self
                    .index
                    .get(trimmed(&meet))
                    .expect("a lower cover's meet with the row is a node")
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        self.maximal(&ids)
    }

    /// The maximal live nodes strictly inside the packed intent `x` of
    /// `len` items, by a full scan over the slots — the lower covers of
    /// a new intent no node contains, which has no generator to be
    /// wired from.
    fn maximal_below(&self, x: &[u64], len: usize) -> Vec<usize> {
        let subs: Vec<usize> = (0..self.nodes.len())
            .filter(|&j| self.alive[j] && self.nodes[j].0.len() < len && is_subset(self.slot(j), x))
            .collect();
        self.maximal(&subs)
    }

    /// Inserts one *object* (transaction) with itemset `row`, maintaining
    /// the full closure system online — the GALICIA-style streaming step
    /// (see the module docs). In two word passes over the slots, with no
    /// engine queries:
    ///
    /// * every node `A ⊆ row` gains the object (`support += 1`);
    /// * the intents the object creates — `{A ∩ row}` over the existing
    ///   nodes, plus `row` itself, minus those already present — are
    ///   inserted with support `supp_old(h_old(X)) + 1` and wired into
    ///   the covering relation from their old closure's neighbourhood;
    /// * the minimal-generator tags move by the local rules of the
    ///   module docs: each new class inherits its old closure's fitting
    ///   tags, and each node that gained a lower cover runs one Berge
    ///   constraint step (one-item extension + subsumption) — no
    ///   per-class transversal recomputation.
    ///
    /// Returns the number of closure classes the object created; use
    /// [`IncrementalLattice::insert_object_delta`] when the caller needs
    /// the full touched-class report.
    ///
    /// This maintains the **unthresholded** lattice: a support floor
    /// cannot be applied during maintenance, because an infrequent class
    /// may become frequent under later appends; cut iceberg views with
    /// [`IncrementalLattice::snapshot`].
    pub fn insert_object(&mut self, row: &Itemset) -> usize {
        self.insert_object_delta(row).created.len()
    }

    /// [`IncrementalLattice::insert_object`], reporting exactly what the
    /// insertion touched as a [`LatticeDelta`] — the created classes,
    /// the support bumps, the retagged nodes, and the covering edges
    /// interposition removed. The streaming base maintenance patches the
    /// rule bases from this report alone: a rule between untouched
    /// classes cannot have moved.
    pub fn insert_object_delta(&mut self, row: &Itemset) -> LatticeDelta {
        let mut delta = LatticeDelta::default();
        let mut stats = GenStats::default();
        let r = self.pack(row);
        // Two passes over the slots. The first takes each node's meet
        // count |node ∩ row|, one AND and popcount: a node whose count
        // is its size lies inside the row, and the object joins its
        // extent. Any other node Z *generates* its meet X = Z ∩ row — X
        // is a new intent and Z its old closure h_old(X) — iff no lower
        // cover of Z contains X. (If X is an old intent, or its closure
        // lies strictly below Z, that node sits under some lower cover
        // of Z, which then contains X. Otherwise nothing below Z
        // contains X, so X is no intent and Z is the least node above
        // it.) A lower cover C ⊊ Z has C ∩ row ⊆ X, so it contains X
        // iff its meet count equals Z's: the second pass compares
        // counts. Each new intent but the row has exactly one
        // generator, its old closure, and enters with support
        // supp_old(Z) + 1; bumping cannot disturb that support, since
        // a bumped node generates nothing.
        let n = self.nodes.len();
        let mut counts = vec![0usize; n];
        for (j, count) in counts.iter_mut().enumerate() {
            if self.alive[j] {
                *count = and_count(self.slot(j), &r);
                let (node, support) = &mut self.nodes[j];
                if *count == node.len() {
                    *support += 1;
                    delta.bumped.push(j);
                }
            }
        }
        let mut fresh: Vec<(Itemset, Vec<u64>, Support, Option<usize>)> = Vec::new();
        for j in 0..n {
            let count = counts[j];
            if self.alive[j]
                && count < self.nodes[j].0.len()
                && self.lower[j].iter().all(|&c| counts[c] < count)
            {
                let mut meet = self.slot(j).to_vec();
                and_assign(&mut meet, &r);
                let (node, support) = &self.nodes[j];
                fresh.push((node.intersection(row), meet, *support, Some(j)));
            }
        }
        // The row itself is new unless some node already holds it; it
        // was generated above iff some node contains it, and otherwise
        // has no old closure.
        if !self.index.contains_key(trimmed(&r)) && !fresh.iter().any(|(_, x, ..)| *x == r) {
            fresh.push((row.clone(), r.clone(), 0, None));
        }
        // Sorting by intent keeps the insertion order (and hence node
        // ids and tag work) independent of the slot order.
        fresh.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // Insert the new classes smallest-first and maintain the tags as
        // each lands. Only the fresh node's own upper covers gain a
        // lower cover (an old node z can gain a fresh lower cover Y only
        // with z minimal over Y at Y's turn), so the constraint steps
        // below cover every cover gain of the whole insertion.
        for (meet, words, base, closure) in fresh {
            // Split-seed rule: the tags of the old closure that fit in
            // the new class are exactly its minimal generators (their
            // closures shrink onto it; anything smaller would have
            // generated a class below the old closure). Snapshot them
            // before wiring — the donor's own tags move only when its
            // unique fresh child (this meet) interposes, never earlier.
            let inherited: Option<Vec<Itemset>> = closure.map(|z| {
                self.generators[z]
                    .iter()
                    .filter(|g| {
                        stats.subsumption_checks += 1;
                        g.is_subset_of(&meet)
                    })
                    .cloned()
                    .collect()
            });
            // Its one upper cover is its generator — every old node
            // above it contains its old closure, and the new intents
            // before it are no larger — and its lower covers lie in the
            // generator's neighbourhood. A row no node contains has
            // nothing above it (every new intent before it is a strict
            // subset of it), and its lower covers take the full scan.
            let (preds, succs) = match closure {
                Some(z) => (self.covers_below(z, &r), vec![z]),
                None => (self.maximal_below(&words, meet.len()), Vec::new()),
            };
            let edges = &mut delta.removed_edges;
            let id = self.link(&meet, words, base + 1, preds, succs, edges);
            delta.created.push(id);
            match inherited {
                Some(mut tags) => {
                    debug_assert!(!tags.is_empty(), "old closure of {meet:?} untagged");
                    tags.sort();
                    self.generators[id] = tags;
                }
                None => {
                    // No old node contains the new class (the row
                    // reaches beyond the lattice): there is no donor, so
                    // grow its tags from ∅ by one constraint step per
                    // freshly wired lower cover — still the local rule,
                    // sized by this node's neighborhood.
                    self.generators[id] = vec![Itemset::empty()];
                    for c in self.lower[id].clone() {
                        self.add_cover_constraint(id, c, &mut stats);
                    }
                }
            }
            delta.retagged.push(id);
            // Cover-gain rule: every current upper cover of the new node
            // just gained it as a lower cover.
            for s in self.upper[id].clone() {
                if self.add_cover_constraint(s, id, &mut stats) {
                    delta.retagged.push(s);
                }
            }
        }
        delta.retagged.sort_unstable();
        delta.retagged.dedup();
        delta.gen = stats;
        self.stats.absorb(stats);
        delta
    }

    /// Removes one *object* (transaction) with itemset `row`,
    /// maintaining the full closure system online — the dual of
    /// [`IncrementalLattice::insert_object`] (see the module docs). In
    /// one pass of set algebra, with no engine queries:
    ///
    /// * every live node `A ⊆ row` loses the object (`support -= 1`);
    /// * a node `X ⊆ row` dies iff its new support is zero or some
    ///   strict superset node has the same new support — nested extents
    ///   of equal size coincide, so `X` is no longer closed and merges
    ///   into that closure;
    /// * dying nodes are spliced out of the covering relation (the
    ///   interposition machinery run in reverse), and a dying class
    ///   whose extent survives donates its generator tags to the
    ///   closure it merges into, where the union is
    ///   subsumption-minimized — the local merge rule, no transversal
    ///   recomputation.
    ///
    /// Returns the number of closure classes the removal tombstoned;
    /// use [`IncrementalLattice::remove_object_delta`] when the caller
    /// needs the full touched-class report.
    ///
    /// `row` must be an object of the maintained context — removal of a
    /// never-inserted row would corrupt the supports.
    pub fn remove_object(&mut self, row: &Itemset) -> usize {
        self.remove_object_delta(row).removed.len()
    }

    /// [`IncrementalLattice::remove_object`], reporting exactly what
    /// the removal touched as a [`LatticeDelta`] — the support drops,
    /// the tombstoned classes, the retagged nodes, and the covering
    /// edges splicing removed. Together with
    /// [`IncrementalLattice::insert_object_delta`] this makes one
    /// absorbed delta cover a mixed append/expire batch.
    pub fn remove_object_delta(&mut self, row: &Itemset) -> LatticeDelta {
        let r = self.pack(row);
        debug_assert!(
            self.index.contains_key(trimmed(&r)),
            "remove_object: {row:?} is not an object of the maintained context"
        );
        let mut delta = LatticeDelta::default();
        // The object leaves the extent of every closed subset of its
        // row; nothing else changes extent.
        let w = self.words;
        for (id, (_, support)) in self.nodes.iter_mut().enumerate() {
            if self.alive[id] && is_subset(&self.packed[id * w..(id + 1) * w], &r) {
                debug_assert!(*support > 0, "removing an unwitnessed object");
                *support -= 1;
                delta.dropped.push(id);
            }
        }
        // A dropped node X dies iff it stopped being an intersection of
        // remaining rows: new support zero, or some strict superset Y
        // with the same new support (then ext(Y) ⊆ ext(X) with equal
        // cardinality, so the extents coincide and the closure of X's
        // extent is at least Y ⊋ X). The witness Y = ∩ext_new(X) is
        // itself a pre-removal node, so scanning the current slots —
        // all supports already decremented — decides every death in
        // one simultaneous pass.
        let mut stats = GenStats::default();
        let dying: Vec<usize> = delta
            .dropped
            .iter()
            .copied()
            .filter(|&x| {
                let xsup = self.nodes[x].1;
                xsup == 0
                    || (0..self.nodes.len()).any(|y| {
                        self.alive[y] && self.nodes[y].1 == xsup && self.strictly_below(x, y)
                    })
            })
            .collect();
        // Merge rule bookkeeping, captured before the splices clear the
        // dying nodes' tags: a dying class with surviving extent merges
        // into its new closure — the unique *surviving* strict superset
        // with the same post-decrement support (nested extents of equal
        // size coincide) — and donates its tags there. A dying class
        // whose support hit zero has no extent left and donates nothing.
        let dying_set: BTreeSet<usize> = dying.iter().copied().collect();
        let mut donations: Vec<(usize, Vec<Itemset>)> = Vec::new();
        for &x in &dying {
            let xsup = self.nodes[x].1;
            if xsup == 0 {
                continue;
            }
            let target = (0..self.nodes.len())
                .find(|&y| {
                    self.alive[y]
                        && self.nodes[y].1 == xsup
                        && !dying_set.contains(&y)
                        && self.strictly_below(x, y)
                })
                .expect("a dying class with surviving extent has a surviving closure");
            donations.push((target, self.generators[x].clone()));
        }
        // Splice the dying nodes out one at a time; a not-yet-spliced
        // dying node still interposes for the earlier splices, so the
        // reconnection it blocks is added when its own turn comes.
        for &x in &dying {
            self.splice_out(x, &mut delta.removed_edges);
            delta.removed.push(x);
        }
        // Apply the merge rule: a survivor's new minimal generators are
        // the subsumption-minimization of its own tags plus everything
        // donated to it — a donated tag can undercut a resident one (its
        // class collapsed upward), never the other way around, and donors
        // from a merging chain can undercut each other, so the pooled
        // list is minimized as a whole. No other survivor's tags move:
        // every old generator still generates its class, and any newly
        // minimal generator belonged to a class that died into this one.
        for (target, donated) in donations {
            let mut pool = std::mem::take(&mut self.generators[target]);
            pool.extend(donated);
            // (size, lex) order makes the one-way subset check below an
            // exact minimization.
            pool.sort();
            pool.dedup();
            let mut kept: Vec<Itemset> = Vec::with_capacity(pool.len());
            for g in pool {
                let minimal = kept.iter().all(|t| {
                    stats.subsumption_checks += 1;
                    !t.is_subset_of(&g)
                });
                if minimal {
                    kept.push(g);
                }
            }
            self.generators[target] = kept;
            delta.retagged.push(target);
        }
        delta.retagged.sort_unstable();
        delta.retagged.dedup();
        delta.gen = stats;
        self.stats.absorb(stats);
        delta
    }

    /// Tombstones node `x` and rewires the covering relation around it:
    /// `x`'s edges are removed (reported in `removed_edges`), and a
    /// lower cover reconnects to an upper cover iff no node still in
    /// the diagram interposes — the only element strictly between a
    /// new cover pair was `x` itself.
    fn splice_out(&mut self, x: usize, removed_edges: &mut Vec<(usize, usize)>) {
        self.alive[x] = false;
        let w = self.words;
        self.index.remove(trimmed(&self.packed[x * w..(x + 1) * w]));
        self.generators[x].clear();
        let ups = std::mem::take(&mut self.upper[x]);
        let downs = std::mem::take(&mut self.lower[x]);
        for &u in &ups {
            self.lower[u].retain(|&l| l != x);
            removed_edges.push((x, u));
        }
        for &d in &downs {
            self.upper[d].retain(|&up| up != x);
            removed_edges.push((d, x));
        }
        for &d in &downs {
            for &u in &ups {
                if self.upper[d].contains(&u) {
                    continue;
                }
                let interposed = (0..self.nodes.len()).any(|z| {
                    self.alive[z] && self.strictly_below(d, z) && self.strictly_below(z, u)
                });
                if !interposed {
                    self.upper[d].push(u);
                    self.lower[u].push(d);
                }
            }
        }
    }

    /// The `id`-th closure class: its intent and current support.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n_nodes()`.
    pub fn node(&self, id: usize) -> (&Itemset, Support) {
        let (set, support) = &self.nodes[id];
        (set, *support)
    }

    /// Internal id of an intent, if present.
    pub fn position(&self, set: &Itemset) -> Option<usize> {
        let mut words = vec![0u64; words_for(set)];
        pack_into(set, &mut words);
        self.index.get(trimmed(&words)).copied()
    }

    /// Slot `id`'s packed intent.
    fn slot(&self, id: usize) -> &[u64] {
        &self.packed[id * self.words..(id + 1) * self.words]
    }

    /// Whether slot `a`'s intent is a strict subset of slot `b`'s: it is
    /// smaller, and its words lie inside `b`'s.
    fn strictly_below(&self, a: usize, b: usize) -> bool {
        self.nodes[a].0.len() < self.nodes[b].0.len() && is_subset(self.slot(a), self.slot(b))
    }

    /// `set` packed at the lattice's width, first widening every slot
    /// when `set` holds a larger item id than any seen so far.
    fn pack(&mut self, set: &Itemset) -> Vec<u64> {
        let need = words_for(set);
        if need > self.words {
            let mut packed = vec![0u64; self.nodes.len() * need];
            for (id, wide) in packed.chunks_exact_mut(need).enumerate() {
                wide[..self.words].copy_from_slice(self.slot(id));
            }
            self.packed = packed;
            self.words = need;
        }
        let mut words = vec![0u64; self.words];
        pack_into(set, &mut words);
        words
    }

    /// The ids among `ids` whose intent lies in no other's, in `ids`
    /// order: an antichain of the maximal ids seen so far, each new id
    /// either below one of them or displacing those below it.
    fn maximal(&self, ids: &[usize]) -> Vec<usize> {
        let mut found: Vec<usize> = Vec::new();
        for &i in ids {
            if !found.iter().any(|&e| self.strictly_below(i, e)) {
                found.retain(|&e| !self.strictly_below(e, i));
                found.push(i);
            }
        }
        found
    }

    /// Upper covers (immediate successors) of node `id`, in no particular
    /// order.
    pub fn upper_covers(&self, id: usize) -> &[usize] {
        &self.upper[id]
    }

    /// Lower covers (immediate predecessors) of node `id`, in no
    /// particular order.
    pub fn lower_covers(&self, id: usize) -> &[usize] {
        &self.lower[id]
    }

    /// The minimal-generator tags currently recorded for node `id`
    /// (exact minimal generators under `insert_object` maintenance).
    pub fn generator_tags(&self, id: usize) -> &[Itemset] {
        &self.generators[id]
    }

    /// The minimal generators of node `id`, re-derived from scratch off
    /// the diagram — the **retained oracle** the maintained tags are
    /// differentially tested against. A set `G ⊆ Z` generates `Z` iff
    /// it is contained in no maximal proper closed subset of `Z`, i.e.
    /// iff it hits every complement `Z ∖ C` over the lower covers `C` —
    /// so the minimal generators are the minimal transversals of those
    /// complements. (Requires the diagram to hold all closed sets,
    /// which `insert_object` maintains.) Under object maintenance this
    /// equals [`IncrementalLattice::generator_tags`] for every live
    /// node, in the tags' sorted order.
    pub fn oracle_generators_of(&self, id: usize) -> Vec<Itemset> {
        self.oracle_generators_counted(id, &mut GenStats::default())
    }

    /// [`IncrementalLattice::oracle_generators_of`] with its work
    /// metered into `stats`: one transversal fallback, plus the Berge
    /// algorithm's extension candidates and subsumption checks — what a
    /// from-scratch retagging of node `id` costs, for the ablation
    /// bench to set against the local rules' counters.
    pub fn oracle_generators_counted(&self, id: usize, stats: &mut GenStats) -> Vec<Itemset> {
        let node = &self.nodes[id].0;
        let complements: Vec<Itemset> = self.lower[id]
            .iter()
            .map(|&c| node.difference(&self.nodes[c].0))
            .collect();
        stats.transversal_fallbacks += 1;
        minimal_transversals(&complements, stats)
    }

    /// One Berge constraint step on the maintained tags of `z`, which
    /// just gained `cover` as a new lower cover: a generator of `z`
    /// must escape every maximal proper closed subset, so every tag now
    /// also has to hit `D = z ∖ cover`. Tags already hitting `D`
    /// survive unchanged; tags inside `cover` stop generating `z` (they
    /// now generate a class at or below `cover`) and are replaced by
    /// their one-item extensions `g ∪ {a}`, `a ∈ D`, keeping a
    /// candidate iff no maintained tag subsumes it. Starting from the
    /// minimal antichain, the one-way check is exact: a candidate
    /// containing a survivor is rejected, a survivor cannot strictly
    /// contain a candidate (survivors are minimal for the extended
    /// constraint family), and two candidates are incomparable (their
    /// base tags are, and the extension item of either hits `D` while
    /// the other base misses it). Returns whether the tag list changed.
    fn add_cover_constraint(&mut self, z: usize, cover: usize, stats: &mut GenStats) -> bool {
        let d = self.nodes[z].0.difference(&self.nodes[cover].0);
        let old = std::mem::take(&mut self.generators[z]);
        stats.subsumption_checks += old.len() as u64;
        let (mut kept, miss): (Vec<Itemset>, Vec<Itemset>) =
            old.into_iter().partition(|g| !g.is_disjoint_from(&d));
        if miss.is_empty() {
            self.generators[z] = kept;
            return false;
        }
        for g in &miss {
            for item in d.iter() {
                stats.candidates += 1;
                let extended = g.with(item);
                let minimal = kept.iter().all(|t| {
                    stats.subsumption_checks += 1;
                    !t.is_subset_of(&extended)
                });
                if minimal {
                    kept.push(extended);
                }
            }
        }
        kept.sort();
        self.generators[z] = kept;
        true
    }

    /// Cuts the iceberg view at a support threshold: the nodes with
    /// `support ≥ min_count` in canonical order, their covering
    /// relation, and their generator tags.
    ///
    /// Frequency is downward closed over closed sets (a subset supports
    /// at least as much), so the kept nodes are a down-set of the order
    /// and the induced covering relation *is* the restriction of the full
    /// one — an edge survives iff both endpoints do, and no skipped-level
    /// edges can appear. This is what lets one maintained lattice serve
    /// iceberg views at any (even shifting) threshold, the streaming
    /// miner's per-batch read.
    pub fn snapshot(&self, min_count: Support) -> (IcebergLattice, Vec<Vec<Itemset>>) {
        // Canonical order (size, then lexicographic) is what every
        // consumer of IcebergLattice assumes; insertion order is not
        // it. Tombstoned slots are not part of the context.
        let mut order: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.alive[i] && self.nodes[i].1 >= min_count)
            .collect();
        order.sort_by(|&a, &b| self.nodes[a].0.cmp(&self.nodes[b].0));
        let mut rank = vec![usize::MAX; self.nodes.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old] = new;
        }
        let mut nodes = Vec::with_capacity(order.len());
        let mut upper = vec![Vec::new(); order.len()];
        let mut generators = vec![Vec::new(); order.len()];
        for &old in &order {
            nodes.push(self.nodes[old].clone());
            let mut covers: Vec<usize> = self.upper[old]
                .iter()
                .filter(|&&u| rank[u] != usize::MAX)
                .map(|&u| rank[u])
                .collect();
            covers.sort_unstable();
            upper[rank[old]] = covers;
            let mut tags = self.generators[old].clone();
            tags.sort();
            generators[rank[old]] = tags;
        }
        (IcebergLattice::assemble(nodes, upper), generators)
    }
}

/// The on-wire shape of an [`IncrementalLattice`]: every slot — live or
/// tombstoned — with its intent, support, cover lists, generator tags,
/// and liveness, plus the lifetime counters. Dead slots are serialized
/// too (intent kept, covers/tags empty) so node
/// ids survive the persistence boundary unchanged: id-keyed bookkeeping
/// in downstream consumers must stay resolvable after a restore, and
/// freed ids must stay unrecycled. The packed words and the `index` are
/// derived state, rebuilt from the intents on deserialization.
#[derive(Serialize, Deserialize)]
struct IncrementalLatticeWire {
    nodes: Vec<(Itemset, Support)>,
    upper: Vec<Vec<usize>>,
    lower: Vec<Vec<usize>>,
    generators: Vec<Vec<Itemset>>,
    alive: Vec<bool>,
    stats: GenStats,
}

impl Serialize for IncrementalLattice {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("upper".to_string(), self.upper.to_value()),
            ("lower".to_string(), self.lower.to_value()),
            ("generators".to_string(), self.generators.to_value()),
            ("alive".to_string(), self.alive.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }
}

impl Deserialize for IncrementalLattice {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = IncrementalLatticeWire::from_value(v)?;
        let n = wire.nodes.len();
        if wire.upper.len() != n
            || wire.lower.len() != n
            || wire.generators.len() != n
            || wire.alive.len() != n
        {
            return Err(serde::Error::custom(
                "lattice slot vectors disagree in length",
            ));
        }
        // The covering relation must be a symmetric pair of adjacency
        // lists over live slots: a corrupt payload that passed the frame
        // checksum must still never build a half-consistent diagram.
        for (id, covers) in wire.upper.iter().enumerate() {
            for &u in covers {
                if u >= n || !wire.alive[u] || !wire.alive[id] {
                    return Err(serde::Error::custom("upper cover outside the live diagram"));
                }
                if !wire.lower[u].contains(&id) {
                    return Err(serde::Error::custom("cover lists out of sync"));
                }
            }
        }
        for (id, covers) in wire.lower.iter().enumerate() {
            for &l in covers {
                if l >= n || !wire.alive[l] || !wire.alive[id] {
                    return Err(serde::Error::custom("lower cover outside the live diagram"));
                }
                if !wire.upper[l].contains(&id) {
                    return Err(serde::Error::custom("cover lists out of sync"));
                }
            }
        }
        // The packed words are rebuilt from the intents, which must be
        // strictly ascending id lists: `words_for` takes the last id as
        // the largest. Their slab is reserved fallibly, so intents too
        // wide to pack in memory are an error, not an abort.
        if wire
            .nodes
            .iter()
            .any(|(set, _)| set.as_slice().windows(2).any(|w| w[0] >= w[1]))
        {
            return Err(serde::Error::custom("intent ids not strictly ascending"));
        }
        let words = wire
            .nodes
            .iter()
            .map(|(set, _)| words_for(set))
            .max()
            .unwrap_or(0);
        let mut packed = zeroed_words(n, words)
            .ok_or_else(|| serde::Error::custom("packed intents do not fit in memory"))?;
        let mut index = HashMap::with_capacity(n);
        for (id, (set, _)) in wire.nodes.iter().enumerate() {
            let slot = &mut packed[id * words..(id + 1) * words];
            pack_into(set, slot);
            if wire.alive[id] && index.insert(trimmed(slot).into(), id).is_some() {
                return Err(serde::Error::custom("duplicate live intent"));
            }
        }
        let lattice = IncrementalLattice {
            nodes: wire.nodes,
            packed,
            words,
            index,
            upper: wire.upper,
            lower: wire.lower,
            generators: wire.generators,
            alive: wire.alive,
            stats: wire.stats,
        };
        // Every cover edge must go up the diagram: the upper intent a
        // strict superset of the lower one, with less support (distinct
        // closed sets have distinct extents) — one word-subset test per
        // edge. The bases rely on both.
        for (id, covers) in lattice.upper.iter().enumerate() {
            for &u in covers {
                if !lattice.strictly_below(id, u) || lattice.nodes[u].1 >= lattice.nodes[id].1 {
                    return Err(serde::Error::custom(
                        "upper cover is not a strict superset with less support",
                    ));
                }
            }
        }
        Ok(lattice)
    }
}

/// Words a packed `set` needs: one per 64 ids up to its largest.
fn words_for(set: &Itemset) -> usize {
    set.last().map_or(0, |item| item.id() as usize / 64 + 1)
}

/// `n` slots of `words` zeroed words each, or `None` when that many
/// words cannot be allocated.
fn zeroed_words(n: usize, words: usize) -> Option<Vec<u64>> {
    let len = n.checked_mul(words)?;
    let mut slab = Vec::new();
    slab.try_reserve_exact(len).ok()?;
    slab.resize(len, 0);
    Some(slab)
}

/// Sets the bit of every item of `set` in `words` (zeroed, and wide
/// enough for the largest id).
fn pack_into(set: &Itemset, words: &mut [u64]) {
    for item in set {
        let id = item.id() as usize;
        words[id / 64] |= 1 << (id % 64);
    }
}

/// The index key of packed words: trailing zero words dropped, so equal
/// sets packed at different widths share one key.
fn trimmed(words: &[u64]) -> &[u64] {
    let len = words
        .iter()
        .rposition(|&w| w != 0)
        .map_or(0, |last| last + 1);
    &words[..len]
}

/// The minimal transversals (minimal hitting sets) of a family of
/// itemsets, by Berge's sequential algorithm. The transversals of the
/// empty family are `{∅}`. Starting from a minimal antichain, each step
/// keeps the transversals that already hit the next set and extends the
/// rest by one hitting item, discarding dominated candidates — an
/// extension can never strictly subsume a kept transversal, so the
/// one-way subset check preserves exact minimality. (Each step is the
/// same constraint rule `add_cover_constraint` applies to one node's
/// maintained tags; this from-scratch form is the retained oracle.) The
/// work is metered into `stats`, like the local rules'.
fn minimal_transversals(family: &[Itemset], stats: &mut GenStats) -> Vec<Itemset> {
    let mut transversals = vec![Itemset::empty()];
    for d in family {
        stats.subsumption_checks += transversals.len() as u64;
        let (hit, miss): (Vec<Itemset>, Vec<Itemset>) = transversals
            .into_iter()
            .partition(|g| !g.is_disjoint_from(d));
        transversals = hit;
        for g in miss {
            for item in d.iter() {
                stats.candidates += 1;
                let mut extended = g.clone();
                extended.insert(item);
                let minimal = transversals.iter().all(|t| {
                    stats.subsumption_checks += 1;
                    !t.is_subset_of(&extended)
                });
                if minimal {
                    transversals.push(extended);
                }
            }
        }
    }
    transversals.sort();
    transversals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasse::verify_covers;
    use rulebases_dataset::{paper_example, MinSupport, MiningContext, TransactionDb};
    use rulebases_mining::{Close, ClosedMiner};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    /// The paper example's rows, in order.
    fn paper_rows() -> Vec<Itemset> {
        let db = paper_example();
        (0..db.n_transactions())
            .map(|t| Itemset::from_sorted(db.transaction(t).to_vec()))
            .collect()
    }

    #[test]
    fn matches_batch_construction_in_any_insertion_order() {
        // The paper example's rows in several orders, forward and
        // reversed: the same iceberg diagram every time.
        let rows = paper_rows();
        let ctx = MiningContext::new(paper_example());
        let reference =
            IcebergLattice::from_closed(&Close::new().mine_closed(&ctx, MinSupport::Count(2)));
        let n = rows.len();
        for rotation in 0..n {
            for step in [1, 2] {
                for reverse in [false, true] {
                    let mut inc = IncrementalLattice::new();
                    for i in 0..n {
                        let k = (i * step + rotation) % n;
                        inc.insert_object(&rows[if reverse { n - 1 - k } else { k }]);
                    }
                    let (lattice, _) = inc.snapshot(2);
                    assert_eq!(lattice.n_nodes(), reference.n_nodes());
                    assert_eq!(
                        lattice.edges().collect::<Vec<_>>(),
                        reference.edges().collect::<Vec<_>>(),
                        "rotation {rotation}, step {step}, reverse {reverse}"
                    );
                }
            }
        }
    }

    #[test]
    fn interposition_rewires_edges() {
        // C, AC and ABCE each reach beyond the lattice, so each is wired
        // by the full scan to the maximal nodes inside it: a chain, with
        // no long edge C→ABCE. BE splits off ∅ and BE; BCE then
        // interposes under ABCE, and the edge BE→ABCE gives way.
        let mut inc = IncrementalLattice::new();
        let edges = [
            (set(&[3]), 0),
            (set(&[1, 3]), 1),
            (set(&[1, 2, 3, 5]), 2),
            (set(&[2, 5]), 5),
            (set(&[2, 3, 5]), 7),
        ];
        for (row, n_edges) in edges {
            inc.insert_object(&row);
            assert_eq!(inc.n_edges(), n_edges, "after {row:?}");
        }
        let be = inc.position(&set(&[2, 5])).unwrap();
        let bce = inc.position(&set(&[2, 3, 5])).unwrap();
        assert_eq!(inc.upper_covers(be), &[bce]);
        let (lattice, _) = inc.snapshot(1);
        let nodes: Vec<_> = (0..lattice.n_nodes())
            .map(|i| {
                let (s, sup) = lattice.node(i);
                (s.clone(), sup)
            })
            .collect();
        let upper: Vec<Vec<usize>> = (0..lattice.n_nodes())
            .map(|i| lattice.upper_covers(i).to_vec())
            .collect();
        verify_covers(&nodes, &upper).unwrap();
    }

    /// Replays the paper example object by object.
    fn replayed() -> IncrementalLattice {
        let mut inc = IncrementalLattice::new();
        for row in paper_rows() {
            inc.insert_object(&row);
        }
        inc
    }

    #[test]
    fn insert_object_replays_to_the_mined_lattice() {
        let inc = replayed();
        let ctx = MiningContext::new(paper_example());
        // At every threshold, the snapshot equals the batch-mined iceberg
        // lattice — nodes, supports, and Hasse edges.
        for min_count in 1..=5u64 {
            let fc = Close::new().mine_closed(&ctx, MinSupport::Count(min_count));
            let reference = IcebergLattice::from_closed(&fc);
            let (snapshot, tags) = inc.snapshot(min_count);
            assert_eq!(snapshot.n_nodes(), reference.n_nodes(), "t={min_count}");
            for i in 0..snapshot.n_nodes() {
                assert_eq!(snapshot.node(i), reference.node(i), "t={min_count}");
            }
            assert_eq!(
                snapshot.edges().collect::<Vec<_>>(),
                reference.edges().collect::<Vec<_>>(),
                "t={min_count}"
            );
            assert_eq!(tags.len(), snapshot.n_nodes());
        }
    }

    #[test]
    fn insert_object_counts_created_classes_and_dedups() {
        let mut inc = IncrementalLattice::new();
        // First object creates its own intent.
        assert_eq!(inc.insert_object(&set(&[1, 3, 4])), 1);
        // A repeated row creates nothing, only bumps.
        assert_eq!(inc.insert_object(&set(&[1, 3, 4])), 0);
        let (lattice, _) = inc.snapshot(1);
        assert_eq!(lattice.n_nodes(), 1);
        assert_eq!(lattice.node(0), (&set(&[1, 3, 4]), 2));
        // A partially overlapping row creates itself and the meet.
        assert_eq!(inc.insert_object(&set(&[1, 2])), 2);
        let (lattice, _) = inc.snapshot(1);
        assert_eq!(lattice.n_nodes(), 3);
        assert_eq!(lattice.node(0), (&set(&[1]), 3)); // bottom = meet
                                                      // Empty rows make ∅ a class supported by everything.
        let mut with_empty = IncrementalLattice::new();
        with_empty.insert_object(&Itemset::empty());
        with_empty.insert_object(&set(&[2]));
        let (lattice, _) = with_empty.snapshot(1);
        assert_eq!(lattice.node(lattice.bottom()), (&Itemset::empty(), 2));
    }

    #[test]
    fn object_insertion_tags_are_exact_minimal_generators() {
        use rulebases_mining::mine_generators;
        let inc = replayed();
        let ctx = MiningContext::new(paper_example());
        let (lattice, tags) = inc.snapshot(1);
        // Semantic check: every tag closes to its node and is minimal.
        for (node, generators) in tags.iter().enumerate() {
            let (closure, support) = lattice.node(node);
            assert!(!generators.is_empty(), "node {node} untagged");
            for g in generators {
                assert_eq!(&ctx.closure(g), closure, "{g:?}");
                for facet in g.facets() {
                    assert!(ctx.support(&facet) > support, "{g:?} not minimal");
                }
            }
        }
        // Completeness: the tags are exactly the mined generator set.
        let mined = mine_generators(&ctx, 1);
        let mut expected = 0;
        for (g, _) in mined.iter() {
            let node = lattice.position(&ctx.closure(g)).unwrap();
            assert!(tags[node].contains(g), "missing generator {g:?}");
            expected += 1;
        }
        assert_eq!(tags.iter().map(Vec::len).sum::<usize>(), expected);
    }

    #[test]
    fn generator_births_are_caught_when_a_class_splits() {
        // Old context: every a-row has b, so {a} generates {a,b} and
        // {a,b} is not minimal. Appending a bare {a} row splits the
        // class: {a} becomes its own closure and {a,b}'s generator set
        // must be recomputed ({b} alone occurs elsewhere, so the new
        // minimal generator of {a,b} is the pair itself).
        let mut inc = IncrementalLattice::new();
        inc.insert_object(&set(&[1, 2])); // a b
        inc.insert_object(&set(&[1, 2]));
        inc.insert_object(&set(&[2])); // b alone
        let (lattice, tags) = inc.snapshot(1);
        let ab = lattice.position(&set(&[1, 2])).unwrap();
        assert_eq!(tags[ab], vec![set(&[1])]);

        inc_split_check(&mut inc.clone());
    }

    fn inc_split_check(inc: &mut IncrementalLattice) {
        inc.insert_object(&set(&[1])); // a alone — the split
        let (lattice, tags) = inc.snapshot(1);
        let a = lattice.position(&set(&[1])).unwrap();
        let ab = lattice.position(&set(&[1, 2])).unwrap();
        assert_eq!(lattice.node(a).1, 3);
        assert_eq!(lattice.node(ab).1, 2);
        assert_eq!(tags[a], vec![set(&[1])]);
        // The born generator: {a,b}, minimal now that {a} escaped.
        assert_eq!(tags[ab], vec![set(&[1, 2])]);
    }

    #[test]
    fn generator_tags_stay_minimal_and_aligned() {
        // The paper example (A=1, B=2, C=3, D=4, E=5) with every row
        // held twice, replayed in both orders: the snapshot's tags line
        // up with its nodes and with the slots' own tags, and each list
        // is the sorted antichain of its class's minimal generators.
        // Peeling one copy of each row off kills no class (every
        // distinct row is still held), so no tag moves.
        let check = |inc: &IncrementalLattice| {
            let (lattice, tags) = inc.snapshot(1);
            assert_eq!(tags.len(), lattice.n_nodes());
            for id in (0..inc.n_nodes()).filter(|&id| inc.is_live(id)) {
                let node = lattice.position(inc.node(id).0).unwrap();
                assert_eq!(tags[node], inc.generator_tags(id), "slot {id}");
            }
            for list in &tags {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "{list:?}");
                for g in list {
                    assert_eq!(list.iter().filter(|t| t.is_subset_of(g)).count(), 1);
                }
            }
            let tags_of = |ids: &[u32]| &tags[lattice.position(&set(ids)).unwrap()];
            assert_eq!(lattice.n_nodes(), 7);
            assert_eq!(tags_of(&[]), &[Itemset::empty()]);
            assert_eq!(tags_of(&[3]), &[set(&[3])]);
            assert_eq!(tags_of(&[2, 5]), &[set(&[2]), set(&[5])]);
            assert_eq!(tags_of(&[1, 3]), &[set(&[1])]);
            assert_eq!(tags_of(&[2, 3, 5]), &[set(&[2, 3]), set(&[3, 5])]);
            assert_eq!(tags_of(&[1, 3, 4]), &[set(&[4])]);
            assert_eq!(tags_of(&[1, 2, 3, 5]), &[set(&[1, 2]), set(&[1, 5])]);
        };
        let rows = paper_rows();
        for reverse in [false, true] {
            let mut doubled: Vec<&Itemset> = rows.iter().chain(&rows).collect();
            if reverse {
                doubled.reverse();
            }
            let mut inc = IncrementalLattice::new();
            for row in doubled {
                inc.insert_object(row);
            }
            check(&inc);
            for row in &rows {
                let delta = inc.remove_object_delta(row);
                assert!(delta.removed.is_empty() && delta.retagged.is_empty());
            }
            check(&inc);
        }
    }

    #[test]
    fn tag_replaces_subsumed_larger_generator() {
        // Rows abc, a, bc: {a,b,c} is generated by ab and ac, and a
        // closes to its own class. Removing the bare `a` row merges {a}
        // into {a,b,c}, and the donated tag a replaces both larger
        // resident tags; ∅ merges into {b,c} and replaces b and c alike.
        let mut inc = IncrementalLattice::new();
        for row in [set(&[1, 2, 3]), set(&[1]), set(&[2, 3])] {
            inc.insert_object(&row);
        }
        let abc = inc.position(&set(&[1, 2, 3])).unwrap();
        let bc = inc.position(&set(&[2, 3])).unwrap();
        assert_eq!(inc.generator_tags(abc), &[set(&[1, 2]), set(&[1, 3])]);
        assert_eq!(inc.generator_tags(bc), &[set(&[2]), set(&[3])]);
        let delta = inc.remove_object_delta(&set(&[1]));
        assert_eq!(delta.retagged, vec![bc.min(abc), bc.max(abc)]);
        assert_eq!(inc.generator_tags(abc), &[set(&[1])]);
        assert_eq!(inc.generator_tags(bc), &[Itemset::empty()]);
        for id in [abc, bc] {
            assert_eq!(inc.generator_tags(id), inc.oracle_generators_of(id));
        }
    }

    #[test]
    fn insert_object_delta_reports_touched_classes() {
        let mut inc = IncrementalLattice::new();
        // First object: only its own intent is created, nothing bumped.
        let d = inc.insert_object_delta(&set(&[1, 3, 4]));
        assert_eq!(d.created.len(), 1);
        assert!(d.bumped.is_empty());
        assert_eq!(d.retagged, d.created);
        assert!(d.removed_edges.is_empty());
        let acd = d.created[0];
        // Repeat row: pure bump, nothing created or retagged.
        let d = inc.insert_object_delta(&set(&[1, 3, 4]));
        assert!(d.created.is_empty());
        assert_eq!(d.bumped, vec![acd]);
        assert!(d.retagged.is_empty());
        assert_eq!(inc.node(acd), (&set(&[1, 3, 4]), 2));
        // Overlapping row: creates itself + the meet, bumps nothing
        // pre-existing (ACD ⊄ {1,2}) and retags the rewired nodes.
        let d = inc.insert_object_delta(&set(&[1, 2]));
        assert_eq!(d.created.len(), 2);
        assert!(d.bumped.is_empty());
        let a = inc.position(&set(&[1])).unwrap();
        assert!(d.created.contains(&a));
        assert!(d.touched().contains(&acd), "ACD's covers changed");
        // The meet {1} sits below both ACD and {1,2}.
        assert_eq!(inc.lower_covers(acd), &[a]);
        assert_eq!(inc.upper_covers(a).len(), 2);
        // {1} is the bottom class here (every row contains item 1), so
        // its minimal generator is ∅.
        assert_eq!(inc.generator_tags(a), &[Itemset::empty()]);
    }

    #[test]
    fn insert_object_delta_reports_removed_edges() {
        // Build ∅ < C < ABCE via objects, then interpose AC: the C→ABCE
        // edge must be reported removed.
        let mut inc = IncrementalLattice::new();
        inc.insert_object(&set(&[1, 2, 3, 5])); // ABCE
        inc.insert_object(&set(&[3])); // meet C (and ∅? no: C ∩ ABCE = C ⊆ both)
        let c = inc.position(&set(&[3])).unwrap();
        let abce = inc.position(&set(&[1, 2, 3, 5])).unwrap();
        assert_eq!(inc.upper_covers(c), &[abce]);
        let d = inc.insert_object_delta(&set(&[1, 3])); // AC interposes
        let ac = inc.position(&set(&[1, 3])).unwrap();
        assert!(d.created.contains(&ac));
        assert!(d.removed_edges.contains(&(c, abce)));
        assert_eq!(inc.upper_covers(c), &[ac]);
        // Batch accumulation concatenates.
        let mut total = LatticeDelta::default();
        total.absorb(d);
        total.absorb(inc.insert_object_delta(&set(&[1, 3])));
        assert!(total.removed_edges.contains(&(c, abce)));
        assert!(total.bumped.contains(&ac));
        assert!(total.touched().contains(&c));
    }

    #[test]
    fn remove_object_replays_to_the_mined_lattice() {
        // Drop the paper example's objects one at a time (forward and
        // reverse): after every removal the snapshot must equal the
        // batch-mined lattice of exactly the remaining rows — nodes,
        // supports, Hasse edges, and generator tags.
        let db = paper_example();
        let rows: Vec<Vec<rulebases_dataset::Item>> = (0..db.n_transactions())
            .map(|t| db.transaction(t).to_vec())
            .collect();
        for reverse in [false, true] {
            let mut order: Vec<usize> = (0..rows.len()).collect();
            if reverse {
                order.reverse();
            }
            let mut inc = replayed();
            let mut remaining: Vec<usize> = (0..rows.len()).collect();
            for &victim in &order {
                inc.remove_object(&Itemset::from_sorted(rows[victim].clone()));
                remaining.retain(|&t| t != victim);
                let rest: Vec<Vec<u32>> = remaining
                    .iter()
                    .map(|&t| rows[t].iter().map(|i| i.id()).collect())
                    .collect();
                let (snapshot, tags) = inc.snapshot(1);
                if rest.is_empty() {
                    assert_eq!(snapshot.n_nodes(), 0);
                    continue;
                }
                let ctx = MiningContext::new(TransactionDb::from_rows(rest));
                let fc = Close::new().mine_closed(&ctx, MinSupport::Count(1));
                let reference = IcebergLattice::from_closed(&fc);
                assert_eq!(snapshot.n_nodes(), reference.n_nodes(), "after {victim}");
                for i in 0..snapshot.n_nodes() {
                    assert_eq!(snapshot.node(i), reference.node(i), "after {victim}");
                }
                assert_eq!(
                    snapshot.edges().collect::<Vec<_>>(),
                    reference.edges().collect::<Vec<_>>(),
                    "after {victim}"
                );
                // Tags stay the exact minimal generators of the
                // shrunk context.
                for (node, generators) in tags.iter().enumerate() {
                    let (closure, support) = snapshot.node(node);
                    assert!(!generators.is_empty(), "node {node} untagged");
                    for g in generators {
                        assert_eq!(&ctx.closure(g), closure, "{g:?}");
                        for facet in g.facets() {
                            assert!(ctx.support(&facet) > support, "{g:?} not minimal");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn remove_object_merges_classes_and_reports_the_delta() {
        // Rows: ab, ab, b, a. Removing the bare `a` row kills both the
        // {a} class (merges into {a,b}: equal new support, nested
        // extents) and ∅ (merges into {b}).
        let mut inc = IncrementalLattice::new();
        inc.insert_object(&set(&[1, 2]));
        inc.insert_object(&set(&[1, 2]));
        inc.insert_object(&set(&[2]));
        inc.insert_object(&set(&[1]));
        let a = inc.position(&set(&[1])).unwrap();
        let b = inc.position(&set(&[2])).unwrap();
        let ab = inc.position(&set(&[1, 2])).unwrap();
        let bot = inc.position(&Itemset::empty()).unwrap();
        let d = inc.remove_object_delta(&set(&[1]));
        // Supports dropped for every class the row witnessed.
        let mut dropped = d.dropped.clone();
        dropped.sort_unstable();
        let mut expected = vec![a, bot];
        expected.sort_unstable();
        assert_eq!(dropped, expected);
        // Both merge away; the survivors keep their (decremented
        // where applicable) supports.
        let mut removed = d.removed.clone();
        removed.sort_unstable();
        assert_eq!(removed, expected);
        assert!(!inc.is_live(a));
        assert!(!inc.is_live(bot));
        assert_eq!(inc.position(&set(&[1])), None);
        assert_eq!(inc.node(ab), (&set(&[1, 2]), 2));
        assert_eq!(inc.node(b), (&set(&[2]), 3));
        // The diagram collapsed to b → ab, and the survivors whose
        // lower covers changed were retagged: ∅ now generates {b}
        // (the context-wide meet), and {a} escaped {a,b}'s class.
        assert_eq!(inc.upper_covers(b), &[ab]);
        assert_eq!(inc.lower_covers(ab), &[b]);
        assert!(d.retagged.contains(&ab));
        assert!(d.retagged.contains(&b));
        assert_eq!(inc.generator_tags(b), &[Itemset::empty()]);
        assert_eq!(inc.generator_tags(ab), &[set(&[1])]);
        // Every edge incident to a dead node was reported removed.
        assert!(d.removed_edges.contains(&(bot, a)));
        assert!(d.removed_edges.contains(&(a, ab)));
        assert!(d.removed_edges.contains(&(bot, b)));
        // The snapshot no longer sees the tombstones.
        let (snapshot, _) = inc.snapshot(1);
        assert_eq!(snapshot.n_nodes(), 2);
        // Re-inserting the row restores the old system under new ids.
        inc.insert_object(&set(&[1]));
        let (snapshot, _) = inc.snapshot(1);
        assert_eq!(snapshot.n_nodes(), 4);
        assert_eq!(snapshot.node(snapshot.bottom()).1, 4);
    }

    #[test]
    fn absorb_dedups_removed_edges_across_mixed_deltas() {
        // An edge interposed away by an insert and re-examined by a
        // later splice in the same batch must reach the base patcher
        // once, not twice; id lists still concatenate.
        let insert = LatticeDelta {
            created: vec![3],
            bumped: vec![0, 1],
            retagged: vec![3],
            removed_edges: vec![(0, 2), (1, 2)],
            ..LatticeDelta::default()
        };
        let remove = LatticeDelta {
            dropped: vec![1, 3],
            removed: vec![3],
            retagged: vec![2],
            removed_edges: vec![(1, 2), (3, 2)],
            ..LatticeDelta::default()
        };
        let mut total = LatticeDelta::default();
        total.absorb(insert);
        total.absorb(remove);
        assert_eq!(total.removed_edges, vec![(0, 2), (1, 2), (3, 2)]);
        assert_eq!(total.touched(), vec![0, 1, 2, 3]);
        assert_eq!(total.dropped, vec![1, 3]);
        assert_eq!(total.removed, vec![3]);

        // The same holds end to end: insert a row and remove it again
        // within one absorbed batch — the shared interposition edges
        // are single-reported and the diagram is back to the start.
        let mut inc = IncrementalLattice::new();
        inc.insert_object(&set(&[1, 2, 3, 5]));
        inc.insert_object(&set(&[3]));
        let mut batch = inc.insert_object_delta(&set(&[1, 3]));
        batch.absorb(inc.remove_object_delta(&set(&[1, 3])));
        let mut sorted = batch.removed_edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            batch.removed_edges.len(),
            sorted.len(),
            "duplicated edge report"
        );
        let c = inc.position(&set(&[3])).unwrap();
        let abce = inc.position(&set(&[1, 2, 3, 5])).unwrap();
        assert_eq!(inc.upper_covers(c), &[abce]);
        assert_eq!(inc.position(&set(&[1, 3])), None);
        assert!(batch.touched().contains(&c));
    }

    #[test]
    fn remove_object_empties_the_lattice() {
        let mut inc = IncrementalLattice::new();
        inc.insert_object(&set(&[1, 3]));
        inc.insert_object(&set(&[1, 3]));
        assert_eq!(inc.remove_object(&set(&[1, 3])), 0); // duplicate remains
        assert_eq!(inc.remove_object(&set(&[1, 3])), 1);
        let (snapshot, _) = inc.snapshot(1);
        assert_eq!(snapshot.n_nodes(), 0);
        assert_eq!(inc.n_edges(), 0);
        // The slots persist as tombstones; new growth starts cleanly.
        assert_eq!(inc.n_nodes(), 1);
        inc.insert_object(&set(&[2]));
        let (snapshot, _) = inc.snapshot(1);
        assert_eq!(snapshot.n_nodes(), 1);
    }

    #[test]
    fn local_maintenance_matches_the_oracle_with_zero_fallbacks() {
        // Replay the paper example forward, then peel half of it off
        // again: after every step the maintained tags must equal the
        // from-scratch transversal oracle on every live node, and the
        // local rules must never have fallen back to it.
        let rows = paper_rows();
        let mut inc = IncrementalLattice::new();
        let check = |inc: &IncrementalLattice| {
            for id in 0..inc.n_nodes() {
                if !inc.is_live(id) {
                    continue;
                }
                assert_eq!(
                    inc.generator_tags(id),
                    inc.oracle_generators_of(id),
                    "node {id} diverged from the oracle"
                );
            }
        };
        for row in &rows {
            inc.insert_object(row);
            check(&inc);
        }
        for row in rows.iter().take(rows.len() / 2) {
            inc.remove_object(row);
            check(&inc);
        }
        let stats = inc.gen_stats();
        assert_eq!(stats.transversal_fallbacks, 0, "local mode fell back");
        assert!(stats.candidates > 0 && stats.subsumption_checks > 0);
    }

    #[test]
    fn the_counted_oracle_rederives_the_tags_and_meters_its_work() {
        // Re-deriving every live node from scratch yields the maintained
        // tags, and the meter charges one fallback per node plus the
        // Berge work — the ablation bench's oracle leg.
        let inc = replayed();
        let mut stats = GenStats::default();
        let mut live = 0;
        for id in (0..inc.n_nodes()).filter(|&id| inc.is_live(id)) {
            let tags = inc.oracle_generators_counted(id, &mut stats);
            assert_eq!(inc.generator_tags(id), tags, "node {id}");
            live += 1;
        }
        assert_eq!(stats.transversal_fallbacks, live);
        assert!(stats.candidates > 0 && stats.subsumption_checks > 0);
        assert_eq!(inc.gen_stats().transversal_fallbacks, 0);
    }

    #[test]
    fn deltas_carry_generator_work_and_absorb_sums_it() {
        let mut inc = IncrementalLattice::new();
        let mut total = inc.insert_object_delta(&set(&[1, 2]));
        total.absorb(inc.insert_object_delta(&set(&[2, 3])));
        // The second row splits a class: extension candidates were
        // examined and the batch total carries both steps' work.
        assert!(total.gen.candidates > 0);
        assert!(total.gen.subsumption_checks > 0);
        assert_eq!(total.gen.transversal_fallbacks, 0);
        assert_eq!(inc.gen_stats().candidates, total.gen.candidates);
    }

    #[test]
    fn packed_width_grows_in_place() {
        // Ids past each word boundary arrive one row after another: every
        // slot is re-laid out wider, the index keeps answering for the
        // narrower intents, and a set wider than anything seen is absent.
        let mut inc = IncrementalLattice::new();
        for (row, words) in [
            (set(&[1, 2]), 1),
            (set(&[2, 70]), 2),
            (set(&[1, 2, 200]), 4),
        ] {
            inc.insert_object(&row);
            assert_eq!(inc.words, words);
        }
        for id in 0..inc.n_nodes() {
            assert_eq!(inc.position(inc.node(id).0), Some(id));
        }
        assert_eq!(inc.position(&set(&[2, 300])), None);
        let (lattice, _) = inc.snapshot(1);
        let expected = [(set(&[2]), 3), (set(&[1, 2]), 2), (set(&[2, 70]), 1)];
        assert_eq!(lattice.n_nodes(), 4);
        for (intent, support) in expected {
            let id = lattice.position(&intent).unwrap();
            assert_eq!(lattice.node(id).1, support);
        }
    }

    #[test]
    fn unallocatable_slabs_are_refused() {
        // Both fail before touching memory: a length past `usize`, and
        // 2^49 bytes (512 TiB), beyond the user address space of 64-bit
        // Linux, macOS and Windows. That is the slab a restore would
        // reserve for a million slots at the largest `u32` id.
        assert!(zeroed_words(usize::MAX, 2).is_none());
        assert!(zeroed_words(1 << 20, 1 << 26).is_none());
        assert_eq!(zeroed_words(3, 2), Some(vec![0; 6]));
    }

    #[test]
    fn minimal_transversals_basics() {
        let transversals =
            |family: &[Itemset]| minimal_transversals(family, &mut GenStats::default());
        assert_eq!(transversals(&[]), vec![Itemset::empty()]);
        let family = [set(&[1, 2]), set(&[2, 3])];
        assert_eq!(transversals(&family), vec![set(&[2]), set(&[1, 3])]);
        // A singleton set forces its element into every transversal.
        let family = [set(&[5]), set(&[1, 5])];
        assert_eq!(transversals(&family), vec![set(&[5])]);
    }

    #[test]
    fn empty_and_singleton() {
        let inc = IncrementalLattice::new();
        assert_eq!(inc.n_nodes(), 0);
        assert_eq!(inc.snapshot(0).0.n_nodes(), 0);

        let mut one = IncrementalLattice::new();
        for _ in 0..5 {
            one.insert_object(&set(&[0, 1]));
        }
        let (lattice, tags) = one.snapshot(0);
        assert_eq!(lattice.n_nodes(), 1);
        assert_eq!(lattice.n_edges(), 0);
        assert_eq!(lattice.node(0), (&set(&[0, 1]), 5));
        assert_eq!(tags, vec![vec![Itemset::empty()]]);
    }
}
