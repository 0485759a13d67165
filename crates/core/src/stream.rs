//! Streaming rule-base maintenance.
//!
//! The batch pipelines answer one question about one frozen database.
//! [`StreamingMiner`] keeps the answer *live* while the database grows:
//! it owns an appendable [`TransactionDb`] and the full incremental closed
//! lattice — the session's only index: it builds and maintains no
//! support engine — and [`StreamingMiner::push_batch`] threads one append
//! through all the layers at **delta cost**:
//!
//! 1. the rows land in one fresh storage segment
//!    ([`TransactionDb::append_rows`]) under a new epoch — every
//!    pre-append segment stays shared, so the append copies O(batch)
//!    bytes, never O(database). This is the push's one fallible step
//!    (an id outside a dictionary-pinned universe), and it runs before
//!    any state moves;
//! 2. each appended transaction is inserted into the lattice GALICIA-style
//!    ([`IncrementalLattice::insert_object_delta`]): supports bump, split
//!    closure classes appear, covers rewire, minimal generators retag —
//!    all by set algebra with **zero** support-engine queries — and the
//!    insertion reports exactly which classes it touched as a
//!    [`LatticeDelta`];
//! 3. the maintained bases are **patched from that touched-class set**:
//!    only a rule whose antecedent/consequent closure classes were
//!    touched (or crossed the rescaled support threshold) can move, so
//!    both Luxenburger bases update — and the returned [`BasesDelta`] is
//!    computed — without materializing and diffing full rule snapshots.
//!    (The snapshot-diff formulation survives as
//!    [`BasesDelta::between`], the test oracle.) The Duquenne-Guigues
//!    premises only restate their supports until a class enters or
//!    leaves the iceberg; then they are re-derived exactly as the fused
//!    pipeline derives them, by [`frequent_pseudo_closed`] over the
//!    iceberg family `FC` and `F`, expanded from it.
//!
//! Seeding and restoring a session derive the same state from the
//! lattice with the fused pipeline's own builders: the Luxenburger bases
//! of the iceberg snapshot and the premises over `F`. So the session has
//! one Duquenne-Guigues derivation, the fused pipeline's, and no path of
//! it — push, seed, restore or [`StreamingMiner::bases`] — builds a
//! support engine; only [`StreamingMiner::context`] does.
//!
//! The returned [`BasesDelta`] says exactly what changed: closed sets
//! that entered or left the iceberg, and rules added to / removed from /
//! restated in each basis. The batch pipelines are the degenerate case —
//! pushing the whole database as one batch yields bit-for-bit the
//! [`PipelineKind::Fused`] result (the
//! equivalence is property-tested in `tests/streaming.rs` over every
//! engine backend and batch-size schedule, and the per-batch deltas are
//! property-tested against the snapshot-diff oracle).
//!
//! # Windows
//!
//! A session can bound what it remembers with a [`Window`]
//! ([`StreamingMiner::window`]): `Sliding(n)` keeps the newest `n`
//! rows, `Ttl(k)` keeps the rows of the newest `k` batches. After the
//! append phase of a push, the out-of-window prefix *expires* through
//! the same delta machinery in reverse: each expired object is removed
//! from the lattice GALICIA-style
//! ([`IncrementalLattice::remove_object_delta`]: supports drop, classes
//! whose last witness left merge into their closure, covers rewire by
//! reverse interposition), the storage view drops its head rows
//! ([`TransactionDb::expire_rows`]), and one [`BasesDelta`] covering
//! both the appends and the expiries comes back from a single patch
//! pass. The windowed state after every push equals a fresh mine of
//! exactly the window's rows — property-tested in `tests/windowing.rs`
//! over every backend — and no layer ever re-mines or queries a support
//! engine during maintenance.
//!
//! [`IncrementalLattice::remove_object_delta`]: rulebases_lattice::IncrementalLattice::remove_object_delta
//! [`TransactionDb::expire_rows`]: rulebases_dataset::TransactionDb::expire_rows
//!
//! # Example
//!
//! ```
//! use rulebases::{MinSupport, RuleMiner};
//! use rulebases_dataset::paper_example;
//!
//! // Open a stream over the paper's five-object context...
//! let mut stream = RuleMiner::new(MinSupport::Count(2))
//!     .min_confidence(0.5)
//!     .streaming(paper_example());
//! assert_eq!(stream.bases().dg.len(), 3);
//!
//! // ...then two more customers check out.
//! let delta = stream.push_batch(vec![vec![1, 3], vec![2, 3, 5]]).unwrap();
//! assert_eq!(stream.n_objects(), 7);
//! assert_eq!(stream.epoch(), 1);
//! // The maintained bases moved without re-mining: the batch changed
//! // some rules and left the rest alone.
//! assert!(!delta.is_empty());
//! assert_eq!(stream.bases().n_objects, 7);
//! ```
//!
//! [`TransactionDb::append_rows`]: rulebases_dataset::TransactionDb::append_rows
//! [`IncrementalLattice::insert_object_delta`]: rulebases_lattice::IncrementalLattice::insert_object_delta
//! [`LatticeDelta`]: rulebases_lattice::LatticeDelta

use crate::approx::LuxenburgerBasis;
use crate::exact::DuquenneGuiguesBasis;
use crate::fused::{min_count_for, PipelineKind};
use crate::miner::{MinedBases, RuleMiner};
use crate::rule::Rule;
use rulebases_dataset::{
    DatasetError, EngineKind, Itemset, MinSupport, MiningContext, Support, TransactionDb,
};
use rulebases_lattice::{
    frequent_pseudo_closed, GenStats, IncrementalLattice, LatticeDelta, PseudoClosed,
};
use rulebases_mining::{ClosedAlgorithm, ClosedItemsets};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The retention policy of a streaming session: which suffix of the
/// pushed rows the session keeps. Configured with
/// [`StreamingMiner::window`]; enforced at the end of every
/// [`StreamingMiner::push_batch`], where the out-of-window prefix
/// expires from the lattice and the storage view (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Window {
    /// Keep every row ever pushed (the default).
    #[default]
    Unbounded,
    /// Keep the newest `n` rows: after each push, anything older than
    /// the `n` most recent rows expires. A batch larger than the window
    /// still inserts every row before the prefix expires, so the
    /// surviving state is exactly the batch's own tail.
    Sliding(usize),
    /// Keep the rows of the newest `n` batches: a batch's rows expire
    /// wholesale once `n` newer non-empty batches have been pushed.
    /// The rows held when the policy is set (the seed, say) count as
    /// one batch; empty pushes do not age the window.
    Ttl(usize),
}

/// How one rule family moved across a batch. Rules are identified by
/// their `antecedent → consequent` pair; a rule present before and after
/// with different counts (supports always grow with the context) is
/// *restated*, not added + removed.
#[derive(Clone, Debug, Default)]
pub struct RuleSetDelta {
    /// Rules the batch introduced (with their new-context counts).
    pub added: Vec<Rule>,
    /// Rules the batch retired (with their old-context counts).
    pub removed: Vec<Rule>,
    /// Rules present on both sides whose support or confidence moved.
    pub restated: usize,
}

impl RuleSetDelta {
    /// Snapshot-diff of two full rule lists — the **test oracle** for the
    /// lattice-level patching [`StreamingMiner::push_batch`] performs
    /// (the production path never materializes two full rule sets).
    pub fn between(old: &[Rule], new: &[Rule]) -> Self {
        let key = |r: &Rule| (r.antecedent.clone(), r.consequent.clone());
        let old_by_key: HashMap<_, &Rule> = old.iter().map(|r| (key(r), r)).collect();
        let mut delta = RuleSetDelta::default();
        let mut kept: HashSet<(Itemset, Itemset)> = HashSet::new();
        for rule in new {
            match old_by_key.get(&key(rule)) {
                None => delta.added.push(rule.clone()),
                Some(before) => {
                    kept.insert(key(rule));
                    if *before != rule {
                        delta.restated += 1;
                    }
                }
            }
        }
        delta.removed = old
            .iter()
            .filter(|r| !kept.contains(&key(r)))
            .cloned()
            .collect();
        delta
    }

    /// Whether the batch left this family untouched.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.restated == 0
    }
}

/// What one [`StreamingMiner::push_batch`] changed, against the
/// support/confidence thresholds rescaled to the grown context.
#[derive(Clone, Debug)]
pub struct BasesDelta {
    /// Epoch after the batch (the expiry's epoch when the window
    /// trimmed the prefix, else the append's).
    pub epoch: u64,
    /// Number of rows the batch appended.
    pub appended: usize,
    /// Number of prefix rows the session's [`Window`] expired along
    /// with the batch (0 for an unbounded session).
    pub expired: usize,
    /// Context size after the batch.
    pub n_objects: usize,
    /// Absolute support threshold after rescaling to `n_objects`.
    pub min_count: Support,
    /// Closed sets that entered the iceberg view.
    pub closed_added: Vec<Itemset>,
    /// Closed sets that left the iceberg view (a fractional threshold
    /// rises with the row count).
    pub closed_removed: Vec<Itemset>,
    /// Movement of the Duquenne-Guigues basis.
    pub dg: RuleSetDelta,
    /// Movement of the full Luxenburger basis.
    pub lux_full: RuleSetDelta,
    /// Movement of the reduced Luxenburger basis.
    pub lux_reduced: RuleSetDelta,
    /// Generator-maintenance work the batch's lattice steps spent
    /// (extension candidates, subsumption checks, oracle fallbacks —
    /// the last identically zero on this path, the invariant the bench
    /// gate pins).
    pub gen: GenStats,
}

impl BasesDelta {
    /// A delta that reports no movement — what an empty batch returns.
    pub fn empty(epoch: u64, n_objects: usize, min_count: Support) -> Self {
        BasesDelta {
            epoch,
            appended: 0,
            expired: 0,
            n_objects,
            min_count,
            closed_added: Vec::new(),
            closed_removed: Vec::new(),
            dg: RuleSetDelta::default(),
            lux_full: RuleSetDelta::default(),
            lux_reduced: RuleSetDelta::default(),
            gen: GenStats::default(),
        }
    }

    /// Snapshot-diff of two fully materialized base bundles — the **test
    /// oracle** the per-batch lattice-level patching is property-tested
    /// against. The production [`StreamingMiner::push_batch`] computes
    /// its delta directly from the touched-class set instead of calling
    /// this.
    pub fn between(
        old: &MinedBases,
        new: &MinedBases,
        epoch: u64,
        appended: usize,
        expired: usize,
    ) -> Self {
        let old_sets: HashSet<&Itemset> = old.closed.iter().map(|(s, _)| s).collect();
        let new_sets: HashSet<&Itemset> = new.closed.iter().map(|(s, _)| s).collect();
        BasesDelta {
            epoch,
            appended,
            expired,
            n_objects: new.n_objects,
            min_count: new.min_count,
            closed_added: new
                .closed
                .iter()
                .filter(|(s, _)| !old_sets.contains(s))
                .map(|(s, _)| s.clone())
                .collect(),
            closed_removed: old
                .closed
                .iter()
                .filter(|(s, _)| !new_sets.contains(s))
                .map(|(s, _)| s.clone())
                .collect(),
            dg: RuleSetDelta::between(old.dg.rules(), new.dg.rules()),
            lux_full: RuleSetDelta::between(old.lux_full.rules(), new.lux_full.rules()),
            lux_reduced: RuleSetDelta::between(old.lux_reduced.rules(), new.lux_reduced.rules()),
            // A snapshot diff spends no maintenance work; the oracle
            // compares rule movement, not counters.
            gen: GenStats::default(),
        }
    }

    /// Whether the batch changed nothing visible: no closed-set movement
    /// and no rule movement in any basis (supports of untouched classes
    /// may still have grown).
    pub fn is_empty(&self) -> bool {
        self.closed_added.is_empty()
            && self.closed_removed.is_empty()
            && self.dg.is_empty()
            && self.lux_full.is_empty()
            && self.lux_reduced.is_empty()
    }
}

/// A rule's identity in the maintained maps: `(X ∪ Z, X)` — exactly
/// [`Rule::sort_key`], so iterating a map in key order yields the
/// canonical sorted rule list.
type RuleKey = (Itemset, Itemset);

/// The incrementally maintained products of a streaming session: iceberg
/// membership per lattice node, the two Luxenburger rule maps, and the
/// Duquenne-Guigues premises. All of it is a function of the lattice and
/// the row count: [`MaintainedBases::rebuild`] derives it when a session
/// is seeded or restored, with the fused pipeline's own builders,
/// [`StreamingMiner::push_batch`] patches it in place from each batch's
/// [`LatticeDelta`], and materializing a [`MinedBases`] bundle just reads
/// it out. It is never persisted.
#[derive(Debug, Default)]
struct MaintainedBases {
    /// Absolute support threshold at the current row count.
    min_count: Support,
    /// `in_iceberg[id]` ⇔ lattice node `id` has `support ≥ min_count`.
    in_iceberg: Vec<bool>,
    /// The reduced Luxenburger basis (iceberg Hasse edges, bottom edges
    /// kept — reporting filters them), keyed canonically.
    lux_reduced: BTreeMap<RuleKey, Rule>,
    /// The full Luxenburger basis (comparable iceberg pairs), keyed
    /// canonically.
    lux_full: BTreeMap<RuleKey, Rule>,
    /// The frequent pseudo-closed sets (canonical order) and, aligned,
    /// the lattice node id of each closure (for O(1) support refresh).
    dg: Vec<PseudoClosed>,
    dg_nodes: Vec<usize>,
}

/// The reduced-basis rule of lattice edge `i → j`, if it qualifies: both
/// endpoints frequent, the edge present in the maintained diagram, and
/// the edge confidence at threshold. (Bottom edges are kept — the
/// derivation engines need them; reporting filters.)
fn reduced_rule(
    lattice: &IncrementalLattice,
    in_iceberg: &[bool],
    minconf: f64,
    i: usize,
    j: usize,
) -> Option<Rule> {
    if !in_iceberg[i] || !in_iceberg[j] || !lattice.upper_covers(i).contains(&j) {
        return None;
    }
    let (c1, s1) = lattice.node(i);
    let (c2, s2) = lattice.node(j);
    if (s2 as f64) < minconf * s1 as f64 {
        return None;
    }
    Some(Rule::new(c1.clone(), c2.difference(c1), s2, s1))
}

/// The full-basis rule of the comparable pair `(i, j)` (`c_i ⊂ c_j`), if
/// it qualifies: both endpoints frequent, confidence at threshold, and
/// the antecedent non-empty unless configured otherwise.
fn full_rule(
    lattice: &IncrementalLattice,
    in_iceberg: &[bool],
    minconf: f64,
    include_empty_antecedent: bool,
    i: usize,
    j: usize,
) -> Option<Rule> {
    if !in_iceberg[i] || !in_iceberg[j] {
        return None;
    }
    let (c1, s1) = lattice.node(i);
    let (c2, s2) = lattice.node(j);
    if c1.is_empty() && !include_empty_antecedent {
        return None;
    }
    if !c1.is_proper_subset_of(c2) || (s2 as f64) < minconf * s1 as f64 {
        return None;
    }
    Some(Rule::new(c1.clone(), c2.difference(c1), s2, s1))
}

/// The map key of the rule between nodes `i ⊂ j` — derivable without
/// building the rule, so disqualified candidates can still look up (and
/// retire) their old entry.
fn pair_key(lattice: &IncrementalLattice, i: usize, j: usize) -> RuleKey {
    let (c1, _) = lattice.node(i);
    let (c2, _) = lattice.node(j);
    (c2.clone(), c1.clone())
}

/// Reconciles one candidate rule slot against the maintained map,
/// recording the movement: absent→present is an addition, present→absent
/// a removal, a changed value a restatement.
fn reconcile(
    map: &mut BTreeMap<RuleKey, Rule>,
    key: RuleKey,
    new: Option<Rule>,
    delta: &mut RuleSetDelta,
) {
    match (map.get(&key), new) {
        (None, Some(rule)) => {
            delta.added.push(rule.clone());
            map.insert(key, rule);
        }
        (Some(old), None) => {
            delta.removed.push(old.clone());
            map.remove(&key);
        }
        (Some(old), Some(rule)) => {
            if *old != rule {
                delta.restated += 1;
                map.insert(key, rule);
            }
        }
        (None, None) => {}
    }
}

/// The rows a TTL ledger accounts for (`None` when the sum overflows).
fn ledger_rows<'a>(ledger: impl IntoIterator<Item = &'a usize>) -> Option<usize> {
    ledger
        .into_iter()
        .try_fold(0usize, |sum, &rows| sum.checked_add(rows))
}

/// The DG rule of one pseudo-closed entry.
fn dg_rule(p: &PseudoClosed) -> Rule {
    Rule::new(
        p.set.clone(),
        p.closure.difference(&p.set),
        p.support,
        p.support,
    )
}

impl MaintainedBases {
    /// Derives the whole maintained state from the lattice and the row
    /// count, with zero engine calls — for a seeded session and a
    /// restored one alike (per-batch updates go through
    /// [`StreamingMiner::patch_bases`] instead). The two Luxenburger maps
    /// hold the rules the fused pipeline's builders read off the iceberg
    /// snapshot, keyed by [`Rule::sort_key`], and the premises come from
    /// [`MaintainedBases::rebuild_dg`].
    fn rebuild(config: &RuleMiner, n_objects: usize, lattice: &IncrementalLattice) -> Self {
        let minconf = config.min_confidence_config();
        let min_count = min_count_for(config.min_support_config(), n_objects);
        let in_iceberg = (0..lattice.n_nodes())
            .map(|i| lattice.is_live(i) && lattice.node(i).1 >= min_count)
            .collect();
        let (iceberg, _) = lattice.snapshot(min_count);
        let keyed = |basis: LuxenburgerBasis| -> BTreeMap<RuleKey, Rule> {
            let rules = basis.into_rules().into_iter();
            rules.map(|rule| (rule.sort_key(), rule)).collect()
        };
        let mut state = MaintainedBases {
            min_count,
            in_iceberg,
            // Bottom edges kept, as in the fused bundle's reduced basis.
            lux_reduced: keyed(LuxenburgerBasis::reduced(&iceberg, minconf, true)),
            lux_full: keyed(LuxenburgerBasis::full_from_lattice(
                &iceberg,
                minconf,
                config.include_empty_antecedent_config(),
            )),
            ..MaintainedBases::default()
        };
        state.rebuild_dg(lattice, n_objects);
        state
    }

    /// The iceberg family `FC` of an `n_objects`-row context: the live
    /// nodes `in_iceberg` admits, with their supports.
    fn iceberg_family(&self, lattice: &IncrementalLattice, n_objects: usize) -> ClosedItemsets {
        let family = (0..lattice.n_nodes())
            .filter(|&i| self.in_iceberg[i])
            .map(|i| {
                let (set, support) = lattice.node(i);
                (set.clone(), support)
            })
            .collect();
        ClosedItemsets::from_pairs(family, self.min_count, n_objects)
    }

    /// Recomputes the frequent pseudo-closed sets as the fused pipeline
    /// does: [`frequent_pseudo_closed`] over the iceberg family `FC` and
    /// `F`, derived from it by [`ClosedItemsets::expand_to_frequent`].
    ///
    /// # Panics
    ///
    /// Panics with "closed itemset too large to expand" if a frequent
    /// closed set holds 64 items or more (its `F` could never be
    /// enumerated).
    fn rebuild_dg(&mut self, lattice: &IncrementalLattice, n_objects: usize) {
        let fc = self.iceberg_family(lattice, n_objects);
        self.dg = frequent_pseudo_closed(&fc.expand_to_frequent(), &fc);
        self.dg_nodes = self
            .dg
            .iter()
            .map(|p| {
                lattice
                    .position(&p.closure)
                    .expect("pseudo-closure is a lattice node")
            })
            .collect();
    }
}

/// A live bases-mining session over a growing database — built with
/// [`RuleMiner::streaming`], driven with [`StreamingMiner::push_batch`],
/// read with [`StreamingMiner::bases`] (see the [module docs](self) for
/// the maintenance story and a worked example).
#[derive(Debug)]
pub struct StreamingMiner {
    config: RuleMiner,
    db: Arc<TransactionDb>,
    lattice: IncrementalLattice,
    state: MaintainedBases,
    /// The retention policy — [`Window::Unbounded`] unless configured
    /// with [`StreamingMiner::window`].
    window: Window,
    /// Row counts of the batches still in the window, oldest first —
    /// the aging ledger a [`Window::Ttl`] policy expires from (unused
    /// by the other policies).
    batch_sizes: VecDeque<usize>,
    /// The last materialized bundle; invalidated by every push and
    /// rebuilt on demand by [`StreamingMiner::bases`].
    cached: Option<MinedBases>,
}

impl StreamingMiner {
    pub(crate) fn new(config: RuleMiner, db: TransactionDb) -> Self {
        let mut lattice = IncrementalLattice::new();
        for t in 0..db.n_transactions() {
            lattice.insert_object(&Itemset::from_sorted(db.transaction(t).to_vec()));
        }
        Self::assemble(config, Arc::new(db), lattice)
    }

    /// The step [`StreamingMiner::new`] and [`StreamingMiner::from_wire`]
    /// share once they hold a lattice: derive the maintained bases with
    /// [`MaintainedBases::rebuild`]. No engine is built. The session
    /// starts unbounded, with an empty TTL ledger.
    fn assemble(config: RuleMiner, db: Arc<TransactionDb>, lattice: IncrementalLattice) -> Self {
        let state = MaintainedBases::rebuild(&config, db.n_transactions(), &lattice);
        StreamingMiner {
            config,
            db,
            lattice,
            state,
            window: Window::Unbounded,
            batch_sizes: VecDeque::new(),
            cached: None,
        }
    }

    /// Sets the session's retention policy. Builder-style: configure
    /// right after [`RuleMiner::streaming`]. The policy is enforced at
    /// the end of every subsequent push — a seed wider than a
    /// [`Window::Sliding`] bound is trimmed by the first non-empty
    /// batch, not here.
    pub fn window(mut self, window: Window) -> Self {
        self.set_window(window);
        self
    }

    /// In-place form of [`StreamingMiner::window`] — for sessions
    /// already embedded somewhere (e.g. a server). On a switch to
    /// [`Window::Ttl`], rows the aging ledger does not account for
    /// (pushed under another policy) age as one batch, as the seed does.
    pub fn set_window(&mut self, window: Window) {
        if matches!(window, Window::Ttl(_))
            && ledger_rows(&self.batch_sizes) != Some(self.n_objects())
        {
            let rows = self.n_objects();
            self.batch_sizes = (rows > 0).then_some(rows).into_iter().collect();
        }
        self.window = window;
    }

    /// The session's retention policy.
    pub fn window_config(&self) -> Window {
        self.window
    }

    /// Cumulative generator-maintenance work over the session's
    /// lifetime (seed replay included): extension candidates examined,
    /// subsumption checks spent, and transversal fallbacks — the last
    /// identically zero, since every streaming path maintains tags by
    /// the local rules (the invariant the gen-maintenance bench gate
    /// pins). Per-batch work rides on [`BasesDelta::gen`].
    pub fn gen_stats(&self) -> GenStats {
        self.lattice.gen_stats()
    }

    /// Appends one batch of transactions, expires whatever the
    /// session's [`Window`] no longer retains, and patches everything
    /// the session maintains — lattice and all three bases — without
    /// re-mining and at delta cost: the append allocates one storage
    /// segment, the lattice absorbs each appended and expired row by set
    /// algebra, and the bases are patched from the lattice's accumulated
    /// touched-class report (only rules whose antecedent/consequent
    /// closure class was touched, or whose class crossed the rescaled
    /// threshold, are reconsidered). Thresholds rescale to the new row
    /// count — under a window that count can shrink, so a fractional
    /// minimum support falls in absolute terms too. Returns one
    /// [`BasesDelta`] covering both the appends and the expiries.
    ///
    /// The append is the only step that can fail, and it runs first: on
    /// error nothing changed.
    ///
    /// An empty batch is a no-op: it returns an empty delta without
    /// advancing the epoch, aging the window, or touching any layer.
    ///
    /// # Panics
    ///
    /// When the batch moves iceberg membership, the Duquenne-Guigues
    /// premises are re-derived over `F`, as the fused pipeline derives
    /// them, and `F` holds every subset of every frequent closed set. A
    /// batch after which a frequent closed set holds 64 items or more
    /// (at least `2^64` frequent subsets) therefore panics with "closed
    /// itemset too large to expand", as a fused mine of the same rows
    /// does; so does seeding or restoring a session whose iceberg holds
    /// such a set.
    pub fn push_batch(&mut self, rows: Vec<Vec<u32>>) -> Result<BasesDelta, DatasetError> {
        if rows.is_empty() {
            return Ok(BasesDelta::empty(
                self.db.epoch(),
                self.n_objects(),
                self.state.min_count,
            ));
        }
        // Cloning the view is O(#segments): the segments themselves are
        // Arc-shared, and append_rows only allocates the batch's own.
        let mut db = TransactionDb::clone(&self.db);
        let info = db.append_rows(rows)?;
        let appended = db.n_transactions() - info.start;
        let row = |db: &TransactionDb, t: usize| Itemset::from_sorted(db.transaction(t).to_vec());
        let mut touched = LatticeDelta::default();
        for t in info.start..db.n_transactions() {
            touched.absorb(self.lattice.insert_object_delta(&row(&db, t)));
        }
        let expired = self.window_overflow(db.n_transactions(), appended);
        if expired > 0 {
            for t in 0..expired {
                touched.absorb(self.lattice.remove_object_delta(&row(&db, t)));
            }
            db.expire_rows(expired);
        }
        Self::maybe_compact(&mut db);
        self.db = Arc::new(db);
        let report = self.patch_bases(&touched, self.db.epoch(), appended, expired);
        self.cached = None;
        Ok(report)
    }

    /// How many prefix rows fall out of the window once a push has
    /// appended `appended` rows, leaving `rows` held. [`Window::Ttl`]
    /// ages whole batches through the [`Self::batch_sizes`] ledger;
    /// [`Window::Sliding`] counts rows directly.
    fn window_overflow(&mut self, rows: usize, appended: usize) -> usize {
        match self.window {
            Window::Unbounded => 0,
            Window::Sliding(n) => rows.saturating_sub(n),
            Window::Ttl(batches) => {
                self.batch_sizes.push_back(appended);
                let mut expired = 0;
                while self.batch_sizes.len() > batches {
                    expired += self.batch_sizes.pop_front().expect("len checked");
                }
                expired
            }
        }
    }

    /// Segment hygiene under a doubling policy: a long stream of small
    /// batches accumulates one storage segment per push, degrading the
    /// per-transaction address arithmetic; folding on every push would
    /// instead copy the whole prefix repeatedly. Compacting only when
    /// the segment count reaches `2·⌈log₂ rows⌉` keeps the segment
    /// count logarithmic in the row count while the total bytes copied
    /// across a stream's lifetime stay `O(rows · log rows)`.
    /// [`TransactionDb::compact`] preserves contents, dictionary and
    /// epoch, so the fold is invisible to the session.
    fn maybe_compact(db: &mut TransactionDb) {
        let rows = db.n_transactions();
        if rows >= 2 && db.n_segments() >= Self::segment_budget(rows) {
            db.compact();
        }
    }

    /// The doubling-policy ceiling: `2·⌈log₂ rows⌉` segments (rows ≥ 2).
    fn segment_budget(rows: usize) -> usize {
        2 * (usize::BITS - (rows - 1).leading_zeros()).max(1) as usize
    }

    /// Patches the maintained bases from one batch's accumulated
    /// [`LatticeDelta`] (appends and window expiries alike), computing
    /// the [`BasesDelta`] directly: the only rule slots reconsidered
    /// are those incident to a touched class, to a class whose iceberg
    /// membership flipped under the rescaled threshold, or to a
    /// covering edge the batch removed (by interposition or by a class
    /// dying). Classes the batch killed are forced out of the iceberg;
    /// their tombstoned slots are excluded from candidate enumeration
    /// in every *later* batch (a dead slot's intent may be recreated by
    /// a live class, and the shared rule key must then belong to the
    /// live one alone).
    fn patch_bases(
        &mut self,
        touched: &LatticeDelta,
        epoch: u64,
        appended: usize,
        expired: usize,
    ) -> BasesDelta {
        let lattice = &self.lattice;
        let state = &mut self.state;
        let minconf = self.config.min_confidence_config();
        let include_empty = self.config.include_empty_antecedent_config();
        let n_nodes = lattice.n_nodes();
        let old_min = state.min_count;
        let new_min = min_count_for(self.config.min_support_config(), self.db.n_transactions());
        state.in_iceberg.resize(n_nodes, false);

        // Net per-node support movement — +1 per bump, −1 per drop; a
        // mixed batch can cancel to zero.
        let mut bumps: HashMap<usize, i64> = HashMap::new();
        for &id in &touched.bumped {
            *bumps.entry(id).or_insert(0) += 1;
        }
        for &id in &touched.dropped {
            *bumps.entry(id).or_insert(0) -= 1;
        }

        // Classes this batch killed: still legitimate rule-slot
        // endpoints (their old entries must be retired), unlike slots
        // dead since an earlier batch.
        let died_now: HashSet<usize> = touched.removed.iter().copied().collect();

        // Membership flips: only touched nodes can flip while the
        // threshold stands still; when it moves, every node is a
        // candidate (an O(classes) flag scan, independent of row count).
        let mut affected: BTreeSet<usize> = touched.touched().into_iter().collect();
        let flip_candidates: Vec<usize> = if new_min != old_min {
            (0..n_nodes).collect()
        } else {
            affected.iter().copied().collect()
        };
        let mut entered: Vec<usize> = Vec::new();
        let mut left: Vec<usize> = Vec::new();
        for id in flip_candidates {
            let now_in = lattice.is_live(id) && lattice.node(id).1 >= new_min;
            if now_in != state.in_iceberg[id] {
                if now_in {
                    entered.push(id);
                } else {
                    left.push(id);
                }
                state.in_iceberg[id] = now_in;
                affected.insert(id);
            }
        }
        state.min_count = new_min;

        // Reduced basis: reconsider every edge incident to an affected
        // node, plus the edges interposition removed.
        let mut candidate_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &a in &affected {
            for &u in lattice.upper_covers(a) {
                candidate_edges.insert((a, u));
            }
            for &l in lattice.lower_covers(a) {
                candidate_edges.insert((l, a));
            }
        }
        candidate_edges.extend(touched.removed_edges.iter().copied());
        let mut lux_reduced = RuleSetDelta::default();
        for (i, j) in candidate_edges {
            let new = reduced_rule(lattice, &state.in_iceberg, minconf, i, j);
            reconcile(
                &mut state.lux_reduced,
                pair_key(lattice, i, j),
                new,
                &mut lux_reduced,
            );
        }

        // Full basis: reconsider every comparable pair with an affected
        // endpoint. Slots dead since an earlier batch are skipped: their
        // rules were retired the batch they died, and their intent may
        // since have been recreated by a live class whose rule key they
        // would collide with.
        let mut candidate_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &a in &affected {
            if !lattice.is_live(a) && !died_now.contains(&a) {
                continue;
            }
            let (ca, _) = lattice.node(a);
            for b in 0..n_nodes {
                if b == a || (!lattice.is_live(b) && !died_now.contains(&b)) {
                    continue;
                }
                let (cb, _) = lattice.node(b);
                if ca.is_proper_subset_of(cb) {
                    candidate_pairs.insert((a, b));
                } else if cb.is_proper_subset_of(ca) {
                    candidate_pairs.insert((b, a));
                }
            }
        }
        let mut lux_full = RuleSetDelta::default();
        for (i, j) in candidate_pairs {
            let new = full_rule(lattice, &state.in_iceberg, minconf, include_empty, i, j);
            reconcile(
                &mut state.lux_full,
                pair_key(lattice, i, j),
                new,
                &mut lux_full,
            );
        }
        lux_reduced.added.sort();
        lux_reduced.removed.sort();
        lux_full.added.sort();
        lux_full.removed.sort();

        // DG basis. The premises depend only on the iceberg *family* of
        // intents: while no class entered or left, the batch can only
        // restate supports (a pseudo-closed set's support is its closure
        // class's). When the family moved, re-derive the premises over
        // the maintained family and diff the two DG-sized lists.
        let dg = if entered.is_empty() && left.is_empty() {
            let mut restated = 0;
            for (p, node) in state.dg.iter_mut().zip(&state.dg_nodes) {
                if let Some(&b) = bumps.get(node) {
                    if b != 0 {
                        p.support = (p.support as i64 + b) as Support;
                        restated += 1;
                    }
                }
            }
            RuleSetDelta {
                restated,
                ..RuleSetDelta::default()
            }
        } else {
            let old_rules: Vec<Rule> = state.dg.iter().map(dg_rule).collect();
            state.rebuild_dg(lattice, self.db.n_transactions());
            let new_rules: Vec<Rule> = state.dg.iter().map(dg_rule).collect();
            // Both lists are DG-sized (the smallest basis), canonically
            // ordered by premise: diffing them IS the delta-sized
            // computation here, so the oracle formulation serves as is.
            RuleSetDelta::between(&old_rules, &new_rules)
        };

        let mut closed_added: Vec<Itemset> = entered
            .iter()
            .map(|&id| lattice.node(id).0.clone())
            .collect();
        let mut closed_removed: Vec<Itemset> =
            left.iter().map(|&id| lattice.node(id).0.clone()).collect();
        closed_added.sort();
        closed_removed.sort();

        BasesDelta {
            epoch,
            appended,
            expired,
            n_objects: self.db.n_transactions(),
            min_count: new_min,
            closed_added,
            closed_removed,
            dg,
            lux_full,
            lux_reduced,
            gen: touched.gen,
        }
    }

    /// Materializes the maintained state as a [`MinedBases`] bundle.
    fn materialize(&self) -> MinedBases {
        let min_count = self.state.min_count;
        let (lattice, minimal_generators) = self.lattice.snapshot(min_count);
        let n = self.db.n_transactions();
        let closed = self.state.iceberg_family(&self.lattice, n);
        let frequent = closed.expand_to_frequent();
        let dg = DuquenneGuiguesBasis::from_pseudo_closed(self.state.dg.clone(), self.db.n_items());
        let lux_full = LuxenburgerBasis::from_sorted_rules(
            self.state.lux_full.values().cloned().collect(),
            self.config.min_confidence_config(),
            false,
        );
        let lux_reduced = LuxenburgerBasis::from_sorted_rules(
            self.state.lux_reduced.values().cloned().collect(),
            self.config.min_confidence_config(),
            true,
        );
        MinedBases {
            min_count,
            n_objects: n,
            min_support: self.config.min_support_config(),
            min_confidence: self.config.min_confidence_config(),
            include_empty_antecedent: self.config.include_empty_antecedent_config(),
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

    /// The current bases — the same bundle a one-shot
    /// [`PipelineKind::Fused`] run over the
    /// grown database would produce. Materialized from the maintained
    /// state on first call after a batch, then cached (which is why this
    /// takes `&mut self`); [`StreamingMiner::push_batch`] itself never
    /// pays for materialization. Like the fused bundle, it holds `F`,
    /// derived from the iceberg family, and builds no engine.
    ///
    /// # Panics
    ///
    /// Panics with "closed itemset too large to expand" if a frequent
    /// closed set holds 64 items or more — though the push that admitted
    /// such a set has already panicked the same way (see
    /// [`StreamingMiner::push_batch`]).
    pub fn bases(&mut self) -> &MinedBases {
        if self.cached.is_none() {
            self.cached = Some(self.materialize());
        }
        self.cached.as_ref().expect("just materialized")
    }

    /// A mining context over the session's current rows, built on
    /// demand with the configured engine. The session itself holds no
    /// engine — every push is answered from the lattice — so each call
    /// builds a fresh one (an [`EngineKind::Auto`] session resolves it
    /// over the rows held now). The context shares the session's
    /// storage segments rather than copying them, and holding it never
    /// blocks a push.
    pub fn context(&self) -> MiningContext {
        MiningContext::with_engine_arc(Arc::clone(&self.db), self.config.engine_config())
    }

    /// The grown database (a cheap view over the session's shared
    /// storage segments).
    pub fn db(&self) -> &TransactionDb {
        &self.db
    }

    /// Number of objects seen so far.
    pub fn n_objects(&self) -> usize {
        self.db.n_transactions()
    }

    /// The append epoch (0 before any batch).
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Number of storage segments behind the session's view — bounded
    /// by the doubling compaction policy at `2·⌈log₂ rows⌉`.
    pub fn n_segments(&self) -> usize {
        self.db.n_segments()
    }

    /// Number of slots the maintained (unthresholded) lattice holds —
    /// its closed sets plus the tombstones expiry left behind, which are
    /// never reclaimed. This is the memory the session pays to answer
    /// any future threshold.
    pub fn n_closure_classes(&self) -> usize {
        self.lattice.n_nodes()
    }

    /// Captures the session as its serializable wire form — the payload
    /// [`crate::checkpoint`] frames, checksums, and persists. It holds
    /// only what restore cannot derive: the bases are rebuilt from the
    /// lattice (see [`StreamingMiner::from_wire`]). The engine is
    /// recorded as configured ([`EngineKind::Auto`] stays `auto`): the
    /// session builds none, and a restored [`StreamingMiner::context`]
    /// resolves it over the restored rows.
    pub(crate) fn to_wire(&self) -> SessionWire {
        SessionWire {
            min_support: self.config.min_support_config(),
            min_confidence: self.config.min_confidence_config(),
            algorithm: self.config.algorithm_config(),
            include_empty_antecedent: self.config.include_empty_antecedent_config(),
            engine: self.config.engine_config().to_string(),
            parallelism: self.config.parallelism_config(),
            db: TransactionDb::clone(&self.db),
            lattice: self.lattice.clone(),
            window: self.window,
            batch_sizes: self.batch_sizes.iter().copied().collect(),
        }
    }

    /// Rebuilds a session from its wire form — the restore half of
    /// [`StreamingMiner::to_wire`]. The lattice is installed as
    /// persisted (tombstones, generator tags, and slot ids intact — a
    /// seed replay would renumber the slots and recycle freed ids), then
    /// restore takes the seed path: [`MaintainedBases::rebuild`] derives
    /// the bases from the lattice. No engine is built, so the whole
    /// restore performs zero support-engine calls.
    ///
    /// Fails with a reason, rather than panicking later, on a
    /// configuration or TTL ledger no session can hold, or on a lattice
    /// that is not the closure system of the rows held — the last line
    /// of defense behind the checkpoint frame's checksum (the lattice
    /// checks its own encoding as it is deserialized). The lattice check
    /// is two necessary conditions every session meets, in
    /// O(rows + slots): every row held is a live intent (rows are
    /// closed), and the largest live support is the row count (the
    /// bottom class `h(∅)` holds every row; no live node when no row is
    /// held). It does not recount the other supports, which would take a
    /// replay of the rows.
    pub(crate) fn from_wire(wire: SessionWire) -> Result<StreamingMiner, String> {
        if let MinSupport::Fraction(f) = wire.min_support {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("min_support {f} outside [0, 1]"));
            }
        }
        if !(0.0..=1.0).contains(&wire.min_confidence) {
            return Err(format!(
                "min_confidence {} outside [0, 1]",
                wire.min_confidence
            ));
        }
        let engine: EngineKind = wire
            .engine
            .parse()
            .map_err(|e| format!("engine {:?}: {e}", wire.engine))?;
        let n = wire.db.n_transactions();
        if matches!(wire.window, Window::Ttl(_)) && ledger_rows(&wire.batch_sizes) != Some(n) {
            return Err(format!(
                "TTL ledger of {} batches does not account for the {n} rows held",
                wire.batch_sizes.len()
            ));
        }
        let lattice = &wire.lattice;
        if let Some(t) = (0..n).find(|&t| {
            let row = Itemset::from_sorted(wire.db.transaction(t).to_vec());
            lattice.position(&row).is_none()
        }) {
            return Err(format!("row {t} is not a closed set of the lattice"));
        }
        let top = (0..lattice.n_nodes())
            .filter(|&id| lattice.is_live(id))
            .map(|id| lattice.node(id).1)
            .max();
        if top != (n > 0).then_some(n as Support) {
            return Err(format!(
                "the lattice's largest support {} is not the {n} rows held",
                top.unwrap_or(0)
            ));
        }
        let config = RuleMiner::new(wire.min_support)
            .min_confidence(wire.min_confidence)
            .algorithm(wire.algorithm)
            .include_empty_antecedent(wire.include_empty_antecedent)
            .engine(engine)
            .parallelism(wire.parallelism);
        let mut session = Self::assemble(config, Arc::new(wire.db), wire.lattice);
        session.window = wire.window;
        session.batch_sizes = wire.batch_sizes.into();
        Ok(session)
    }
}

/// The on-wire shape of a [`StreamingMiner`] session: configuration
/// (thresholds, configured engine, thread policy), the grown database,
/// the incremental lattice with its tombstones and generator tags, and
/// the window policy with its TTL aging ledger — no base maps, which
/// restore derives. [`crate::checkpoint`] wraps this in a versioned,
/// checksummed frame; the shape itself is plain serde so the lattice
/// and dataset layers own their own encodings.
#[derive(Serialize, Deserialize)]
pub(crate) struct SessionWire {
    pub(crate) min_support: MinSupport,
    pub(crate) min_confidence: f64,
    pub(crate) algorithm: ClosedAlgorithm,
    pub(crate) include_empty_antecedent: bool,
    /// The configured [`EngineKind`], in its `Display`/`FromStr` form.
    /// Older v2 files hold a resolved kind (`dense`, `tid-list`), which
    /// parses too.
    pub(crate) engine: String,
    pub(crate) parallelism: rulebases_dataset::Parallelism,
    pub(crate) db: TransactionDb,
    pub(crate) lattice: IncrementalLattice,
    pub(crate) window: Window,
    pub(crate) batch_sizes: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::PipelineKind;
    use rulebases_dataset::{paper_example, MinSupport};

    fn paper_rows() -> Vec<Vec<u32>> {
        vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
            vec![1, 2, 3, 5],
        ]
    }

    fn assert_same_bases(a: &MinedBases, b: &MinedBases, label: &str) {
        assert_eq!(
            a.closed.clone().into_sorted_vec(),
            b.closed.clone().into_sorted_vec(),
            "{label}: closed sets"
        );
        assert_eq!(
            a.lattice.edges().collect::<Vec<_>>(),
            b.lattice.edges().collect::<Vec<_>>(),
            "{label}: Hasse edges"
        );
        assert_eq!(a.dg.rules(), b.dg.rules(), "{label}: DG");
        assert_eq!(a.lux_full.rules(), b.lux_full.rules(), "{label}: Lux full");
        assert_eq!(
            a.lux_reduced.rules(),
            b.lux_reduced.rules(),
            "{label}: Lux reduced"
        );
        assert_eq!(a.min_count, b.min_count, "{label}: min_count");
    }

    #[test]
    fn segment_hygiene_follows_the_doubling_policy() {
        // A long stream of 1-row batches would otherwise accumulate one
        // segment per push; the doubling policy folds the view whenever
        // the count reaches 2·⌈log₂ rows⌉, so the bound holds at every
        // prefix and at least one compaction actually fires.
        let miner = RuleMiner::new(MinSupport::Fraction(0.3)).min_confidence(0.5);
        let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
        let mut compacted = false;
        let mut prev_segments = stream.n_segments();
        for t in 0..48u32 {
            stream
                .push_batch(vec![vec![t % 4, 4 + t % 3, 7 + t % 2]])
                .unwrap();
            let rows = stream.n_objects();
            let budget = StreamingMiner::segment_budget(rows.max(2));
            assert!(
                stream.n_segments() < budget.max(2),
                "after {rows} rows: {} segments breaches the 2·⌈log₂ rows⌉ = {budget} budget",
                stream.n_segments()
            );
            compacted |= stream.n_segments() <= prev_segments;
            prev_segments = stream.n_segments();
        }
        assert!(compacted, "48 one-row pushes must trigger a compaction");
        // Compaction is invisible to the maintained state: the bases
        // equal a from-scratch mine of the same rows.
        let oracle = miner.clone().mine(TransactionDb::clone(stream.db()));
        assert_same_bases(stream.bases(), &oracle, "post-compaction");
    }

    #[test]
    fn edge_families_derive_the_fused_dg_through_seed_and_push() {
        // The degenerate iceberg families: each context seeds a session
        // with none, half or all of its rows and pushes the rest as one
        // batch, so the premises come from the seed derivation and from
        // the push's membership flips alike.
        let rows = |rows: &[&[u32]]| -> Vec<Vec<u32>> { rows.iter().map(|r| r.to_vec()).collect() };
        let mut cases = vec![
            // Only the bare ∅ bottom reaches the threshold.
            ("bare ∅ bottom", rows(&[&[3], &[5]]), 2),
            // Only the bottom {7}: ∅ is pseudo-closed, with h(∅) = {7}.
            ("bottom {7}", rows(&[&[7, 40], &[7, 90]]), 2),
            // The same bottom under a larger family, and a closed
            // universe member.
            (
                "bottom {7} below a universe",
                rows(&[&[1, 7], &[2, 7], &[1, 2, 7]]),
                1,
            ),
            ("rectangular", vec![vec![0, 1, 2]; 3], 1),
            // Everything closed, nothing pseudo-closed.
            ("pairwise disjoint", rows(&[&[0], &[1], &[2]]), 1),
            // No row holds every item in use (and id 2 is a gap), so the
            // items in use also have infrequent pseudo-closed sets, which
            // yield no basis rule.
            ("infrequent premises", rows(&[&[0, 3], &[0, 4], &[1, 3]]), 1),
            // An empty family.
            ("threshold above the rows", rows(&[&[1], &[2]]), 3),
        ];
        for count in 1..=5 {
            cases.push(("paper example", paper_rows(), count));
        }
        for (label, rows, count) in cases {
            let miner = RuleMiner::new(MinSupport::Count(count)).min_confidence(0.3);
            let oracle = miner
                .clone()
                .pipeline(PipelineKind::Fused)
                .mine(TransactionDb::from_rows(rows.clone()));
            for split in [0, rows.len() / 2, rows.len()] {
                let mut stream = miner.streaming(TransactionDb::from_rows(rows[..split].to_vec()));
                if split < rows.len() {
                    stream.push_batch(rows[split..].to_vec()).unwrap();
                }
                let label = format!("{label} at count {count}, seed of {split} rows");
                assert_same_bases(stream.bases(), &oracle, &label);
            }
        }
    }

    #[test]
    fn one_batch_is_the_fused_pipeline() {
        // The degenerate streaming run — everything in one batch from an
        // empty start — is the batch pipeline.
        let miner = RuleMiner::new(MinSupport::Fraction(0.4)).min_confidence(0.5);
        let fused = miner
            .clone()
            .pipeline(PipelineKind::Fused)
            .mine(paper_example());
        let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
        let delta = stream.push_batch(paper_rows()).unwrap();
        assert_eq!(delta.n_objects, 5);
        assert_eq!(delta.appended, 5);
        assert_same_bases(stream.bases(), &fused, "one batch");
        // And seeding the session with the full db gives the same state.
        let mut seeded = miner.streaming(paper_example());
        assert_same_bases(seeded.bases(), &fused, "seeded");
    }

    #[test]
    fn per_batch_states_match_fused_on_every_prefix() {
        let miner = RuleMiner::new(MinSupport::Fraction(0.4)).min_confidence(0.6);
        let rows = paper_rows();
        let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
        for end in 1..=rows.len() {
            stream.push_batch(vec![rows[end - 1].clone()]).unwrap();
            let oracle = miner
                .clone()
                .pipeline(PipelineKind::Fused)
                .mine(TransactionDb::from_rows(rows[..end].to_vec()));
            assert_same_bases(stream.bases(), &oracle, &format!("prefix {end}"));
            assert_eq!(stream.epoch(), end as u64);
        }
    }

    #[test]
    fn per_batch_deltas_match_the_snapshot_diff_oracle() {
        // The direct (lattice-level) BasesDelta equals the PR 4
        // formulation: diff the fully materialized before/after bundles.
        let miner = RuleMiner::new(MinSupport::Fraction(0.3)).min_confidence(0.5);
        let rows: Vec<Vec<u32>> = (0..30u32)
            .map(|t| vec![t % 4, 4 + t % 3, 7 + (t / 5) % 2])
            .collect();
        let mut stream = miner.streaming(TransactionDb::from_rows(vec![]));
        let mut seen = 0;
        for chunk in rows.chunks(3) {
            let before = miner
                .clone()
                .pipeline(PipelineKind::Fused)
                .mine(TransactionDb::from_rows(rows[..seen].to_vec()));
            seen += chunk.len();
            let after = miner
                .clone()
                .pipeline(PipelineKind::Fused)
                .mine(TransactionDb::from_rows(rows[..seen].to_vec()));
            let direct = stream.push_batch(chunk.to_vec()).unwrap();
            let oracle = BasesDelta::between(&before, &after, direct.epoch, chunk.len(), 0);
            assert_delta_eq(&direct, &oracle, &format!("prefix {seen}"));
        }
    }

    pub(crate) fn assert_delta_eq(direct: &BasesDelta, oracle: &BasesDelta, label: &str) {
        assert_eq!(direct.n_objects, oracle.n_objects, "{label}: n_objects");
        assert_eq!(direct.min_count, oracle.min_count, "{label}: min_count");
        assert_eq!(
            direct.closed_added, oracle.closed_added,
            "{label}: closed_added"
        );
        assert_eq!(
            direct.closed_removed, oracle.closed_removed,
            "{label}: closed_removed"
        );
        for (name, d, o) in [
            ("dg", &direct.dg, &oracle.dg),
            ("lux_full", &direct.lux_full, &oracle.lux_full),
            ("lux_reduced", &direct.lux_reduced, &oracle.lux_reduced),
        ] {
            let mut da = d.added.clone();
            let mut oa = o.added.clone();
            da.sort();
            oa.sort();
            assert_eq!(da, oa, "{label}: {name} added");
            let mut dr = d.removed.clone();
            let mut or = o.removed.clone();
            dr.sort();
            or.sort();
            assert_eq!(dr, or, "{label}: {name} removed");
            assert_eq!(d.restated, o.restated, "{label}: {name} restated");
        }
    }

    #[test]
    fn fractional_threshold_rescales_and_reports_removals() {
        // At minsup 0.4, BCE (supp 3 of 5) is frequent; flooding the
        // stream with unrelated rows raises the absolute threshold and
        // BCE must drop out of the iceberg view — reported as removed.
        let miner = RuleMiner::new(MinSupport::Fraction(0.4)).min_confidence(0.5);
        let mut stream = miner.streaming(paper_example());
        let bce = Itemset::from_ids([2, 3, 5]);
        assert!(stream.bases().closed.contains(&bce));
        let delta = stream
            .push_batch((0..5).map(|_| vec![1, 3]).collect())
            .unwrap();
        assert_eq!(delta.min_count, 4); // 0.4 × 10 rows
        assert!(delta.closed_removed.contains(&bce));
        assert!(!stream.bases().closed.contains(&bce));
        // The whole state still equals the one-shot oracle on the grown
        // context.
        let mut rows = paper_rows();
        rows.extend((0..5).map(|_| vec![1, 3]));
        let oracle = miner
            .pipeline(PipelineKind::Fused)
            .mine(TransactionDb::from_rows(rows));
        assert_same_bases(stream.bases(), &oracle, "after flood");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut stream = RuleMiner::new(MinSupport::Count(2)).streaming(paper_example());
        let delta = stream.push_batch(vec![]).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.appended, 0);
        assert_eq!(delta.n_objects, 5);
        // No epoch burned, no layer touched.
        assert_eq!(stream.epoch(), 0);
        // A real batch still flows normally afterwards.
        stream.push_batch(vec![vec![1, 3]]).unwrap();
        assert_eq!(stream.epoch(), 1);
    }

    #[test]
    fn dictionary_pinned_universe_rejects_batch_atomically() {
        let config = RuleMiner::new(MinSupport::Count(2));
        let mut stream = config.streaming(paper_example());
        let before = stream.n_objects();
        let classes = stream.n_closure_classes();
        let err = stream
            .push_batch(vec![vec![1], vec![99]])
            .expect_err("id 99 outside the 6-label dictionary");
        assert!(matches!(err, DatasetError::UniversePinned { item: 99, .. }));
        // Nothing moved: rows, epoch, lattice, bases — the append is
        // rejected before the valid first row reaches the lattice.
        assert_eq!(stream.n_objects(), before);
        assert_eq!(stream.epoch(), 0);
        assert_eq!(stream.n_closure_classes(), classes);
        let mut untouched = config.streaming(paper_example());
        assert_same_bases(stream.bases(), untouched.bases(), "rejected batch");
        // The session still works afterwards.
        stream.push_batch(vec![vec![1, 3]]).unwrap();
        assert_eq!(stream.n_objects(), 6);
    }

    #[test]
    fn context_is_built_over_the_current_rows_with_the_configured_engine() {
        let mut stream = RuleMiner::new(MinSupport::Count(2))
            .engine(EngineKind::TidList)
            .streaming(paper_example());
        // A held context never blocks a push; it keeps the rows it was
        // built over.
        let held = stream.context();
        stream.push_batch(vec![vec![1, 3]]).unwrap();
        assert_eq!(held.n_objects(), 5);
        let ctx = stream.context();
        assert_eq!((ctx.n_objects(), ctx.epoch()), (6, 1));
        assert_eq!(ctx.resolved_kind(), EngineKind::TidList);
        assert_eq!(ctx.support(&Itemset::from_ids([1, 3])), 4);
    }

    #[test]
    fn delta_reports_rule_movement() {
        // Start with rows where A→C is exact, then break the implication:
        // the DG basis must move and the delta must say so.
        let miner = RuleMiner::new(MinSupport::Count(1)).min_confidence(0.5);
        let mut stream = miner.streaming(TransactionDb::from_rows(vec![
            vec![1, 3],
            vec![1, 3],
            vec![3],
            vec![2],
        ]));
        assert!(stream
            .bases()
            .dg
            .rules()
            .iter()
            .any(|r| r.antecedent == Itemset::from_ids([1])));
        let delta = stream.push_batch(vec![vec![1]]).unwrap();
        assert!(!delta.is_empty());
        // {1} is now closed: it entered the iceberg.
        assert!(delta.closed_added.contains(&Itemset::from_ids([1])));
        // The A→AC implication left the DG basis.
        assert!(delta
            .dg
            .removed
            .iter()
            .any(|r| r.antecedent == Itemset::from_ids([1])));
    }
}
