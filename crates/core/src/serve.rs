//! Concurrent rule serving: epoch-swapped snapshots over the maintained
//! bases, with an antecedent inverted index for sub-linear matching.
//!
//! Mining the Duquenne-Guigues and Luxenburger bases (the paper's
//! contribution) is only half the story — the bases exist to be
//! *queried*: "given this basket, which rules fire, and what should we
//! recommend next". This module adds that consumption layer on top of
//! the streaming miner:
//!
//! * [`RuleServer`] — the single **writer**. It owns a
//!   [`StreamingMiner`], ingests append batches, and after each batch
//!   publishes a fresh immutable [`ServingSnapshot`] by atomically
//!   swapping one pointer. Publication is wait-free for readers and the
//!   writer never waits for readers.
//! * [`RuleReader`] — a cheap cloneable **reader** handle, one per query
//!   thread. Reads are wait-free: a reader either re-uses its cached
//!   snapshot (one atomic epoch load) or acquires the current one (two
//!   atomic RMWs, no locks, no retries).
//! * [`ServingSnapshot`] — an immutable, score-ordered view of the
//!   served basis carrying an **antecedent inverted index**: for every
//!   item, the sorted list of rule ids whose antecedent contains it.
//!   [`ServingSnapshot::match_basket`] intersects the basket's postings
//!   lists by a multiplicity merge, so matching costs
//!   `O(|basket| · postings)` instead of `O(|basis|)`, and because rule
//!   ids are assigned in (confidence, support) order the merge yields
//!   firing rules best-first — top-k short-circuits.
//!
//! # Publication invariant
//!
//! Readers always observe a **coherent epoch**: every query runs against
//! exactly one published snapshot — epoch `N` or epoch `N+1`, never a
//! torn mix of the two. The snapshot is immutable after construction and
//! the swap is a single `SeqCst` pointer exchange, so coherence holds by
//! construction. Retired snapshots are reclaimed by the writer only once
//! no reader acquisition is in flight (a `SeqCst` in-flight counter), so
//! a reader holding an old epoch keeps it alive for as long as it needs.
//!
//! # Example
//!
//! ```
//! use rulebases::{MinSupport, RuleMiner};
//! use rulebases_dataset::paper_example;
//!
//! let mut server = RuleMiner::new(MinSupport::Fraction(0.4))
//!     .min_confidence(0.5)
//!     .serving(paper_example());
//!
//! // A reader handle per query thread; reads are wait-free.
//! let mut reader = server.reader();
//! let hits = reader.match_basket(&[0, 2]); // basket {A, C}
//! assert!(hits.iter().all(|r| r.confidence() >= 0.5));
//!
//! // The writer keeps ingesting; readers pick up the new epoch on
//! // their next query without ever blocking the append.
//! server.ingest(vec![vec![0, 1, 2]]).unwrap();
//! assert!(reader.match_basket(&[0, 2]).epoch() > hits.epoch());
//! ```

use crate::miner::{MinedBases, RuleMiner};
use crate::rule::Rule;
use crate::stream::{BasesDelta, StreamingMiner, Window};
use rulebases_dataset::{kernels, DatasetError, Item, Support, TransactionDb};
use serde::Serialize;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering as MemOrd};
use std::sync::{Arc, Mutex};

/// Which mined basis a [`RuleServer`] publishes for matching.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServedBasis {
    /// Duquenne-Guigues exact rules plus the *reduced* Luxenburger basis
    /// (Hasse edges) — the paper's concise pair, and the default.
    #[default]
    Compact,
    /// Duquenne-Guigues plus the *full* Luxenburger basis: every
    /// comparable closed pair at the confidence threshold.
    Full,
    /// Duquenne-Guigues only: exact (confidence 1) rules.
    Exact,
}

/// Exact confidence comparison without floats: `a` vs `b` by
/// `support/antecedent_support`, cross-multiplied in `u128` so the
/// score order (and hence rule-id assignment) is deterministic across
/// platforms.
fn confidence_cmp(a: &Rule, b: &Rule) -> Ordering {
    let lhs = u128::from(a.support) * u128::from(b.antecedent_support);
    let rhs = u128::from(b.support) * u128::from(a.antecedent_support);
    lhs.cmp(&rhs)
}

/// Serving score order: confidence descending, then support descending,
/// then the canonical rule order ascending (the `(full itemset,
/// antecedent)` key, compared without building it) so ties are broken
/// deterministically.
fn score_cmp(a: &Rule, b: &Rule) -> Ordering {
    confidence_cmp(b, a)
        .then_with(|| b.support.cmp(&a.support))
        .then_with(|| a.cmp(b))
}

/// The per-query cost counters a snapshot-level match reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCost {
    /// Postings lists probed — one per distinct basket item.
    pub index_probes: u64,
    /// Distinct candidate rules examined by the merge. The whole point
    /// of the index: strictly fewer than `n_rules` whenever the basket
    /// misses part of the catalogue.
    pub rules_scanned: u64,
    /// Rules that actually fired.
    pub rules_fired: u64,
}

/// One immutable published view of the served basis.
///
/// Rule ids are assigned in serving score order (confidence desc,
/// support desc, canonical tie-break), so any id-sorted list — the
/// postings lists, a match result — is automatically score-sorted too.
#[derive(Debug)]
pub struct ServingSnapshot {
    epoch: u64,
    n_objects: usize,
    min_count: Support,
    /// Served rules, indexed by rule id (score order).
    rules: Vec<Rule>,
    /// `antecedent_len[id]` — how many postings lists must agree before
    /// rule `id` fires.
    antecedent_len: Vec<u32>,
    /// Item id → sorted rule ids whose antecedent contains the item.
    postings: Vec<Vec<u32>>,
    /// Rules with an empty antecedent (fire on every basket), sorted.
    always_fire: Vec<u32>,
}

impl ServingSnapshot {
    /// Builds a snapshot from a mined bundle: selects the basis, sorts
    /// it into score order, and constructs the antecedent index.
    pub fn from_bases(bases: &MinedBases, basis: ServedBasis, epoch: u64) -> Self {
        let mut rules: Vec<Rule> = bases.dg.rules().to_vec();
        match basis {
            ServedBasis::Exact => {}
            ServedBasis::Compact => {
                rules.extend(bases.luxenburger_reduced_rules().into_iter().cloned());
            }
            ServedBasis::Full => rules.extend(
                bases
                    .lux_full
                    .iter()
                    .filter(|r| bases.include_empty_antecedent || !r.antecedent.is_empty())
                    .cloned(),
            ),
        }
        rules.sort_unstable_by(score_cmp);
        // Two bases can carry the same (antecedent, consequent) pair;
        // the counts are ground truth so duplicates are *identical*
        // rules and land adjacent under the score sort.
        rules.dedup();

        let n_items = rules
            .iter()
            .flat_map(|r| r.antecedent.last())
            .map(|i| i.id() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut postings = vec![Vec::new(); n_items];
        let mut antecedent_len = Vec::with_capacity(rules.len());
        let mut always_fire = Vec::new();
        for (id, rule) in rules.iter().enumerate() {
            let id = id as u32;
            antecedent_len.push(rule.antecedent.len() as u32);
            if rule.antecedent.is_empty() {
                always_fire.push(id);
            }
            for item in rule.antecedent.iter() {
                postings[item.id() as usize].push(id);
            }
        }
        // Ids were appended in increasing order, so every list is
        // already sorted — debug-checked, not re-sorted.
        debug_assert!(postings.iter().all(|p| p.windows(2).all(|w| w[0] < w[1])));
        ServingSnapshot {
            epoch,
            n_objects: bases.n_objects,
            min_count: bases.min_count,
            rules,
            antecedent_len,
            postings,
            always_fire,
        }
    }

    /// The stream epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Context size (rows) behind this snapshot.
    pub fn n_objects(&self) -> usize {
        self.n_objects
    }

    /// Absolute support threshold behind this snapshot.
    pub fn min_count(&self) -> Support {
        self.min_count
    }

    /// Number of served rules.
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// The served rules in score order (rule id = slice index).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule behind an id returned by a match.
    pub fn rule(&self, id: u32) -> &Rule {
        &self.rules[id as usize]
    }

    /// Sorts and dedups a raw basket into item-id order.
    fn normalize(basket: &[u32]) -> Vec<u32> {
        let mut basket = basket.to_vec();
        basket.sort_unstable();
        basket.dedup();
        basket
    }

    /// The index-driven merge. Walks the basket items' postings lists
    /// (plus the always-fire list) as a k-way merge over rule ids; a
    /// rule fires exactly when its multiplicity across the basket's
    /// postings equals its antecedent length, i.e. the whole antecedent
    /// is in the basket. Candidates emerge in ascending id = descending
    /// score order, so `on_fire` may stop early (`false`) for top-k.
    fn scan(&self, basket: &[u32], mut on_fire: impl FnMut(u32) -> bool) -> MatchCost {
        let mut cost = MatchCost {
            index_probes: basket.len() as u64,
            ..MatchCost::default()
        };
        let mut lists: Vec<&[u32]> = Vec::with_capacity(basket.len() + 1);
        for &item in basket {
            if let Some(p) = self.postings.get(item as usize) {
                if !p.is_empty() {
                    lists.push(p);
                }
            }
        }
        // The always-fire list rides along as one extra candidate
        // source contributing multiplicity 0 — which is exactly the
        // antecedent length of the rules it carries.
        let n_postings = lists.len();
        if !self.always_fire.is_empty() {
            lists.push(&self.always_fire);
        }
        let mut cursors = vec![0usize; lists.len()];
        loop {
            let mut min = u32::MAX;
            let mut found = false;
            for (l, &c) in lists.iter().zip(&cursors) {
                if let Some(&id) = l.get(c) {
                    if !found || id < min {
                        min = id;
                        found = true;
                    }
                }
            }
            if !found {
                break;
            }
            let mut multiplicity = 0u32;
            for (i, (l, c)) in lists.iter().zip(cursors.iter_mut()).enumerate() {
                if l.get(*c) == Some(&min) {
                    *c += 1;
                    if i < n_postings {
                        multiplicity += 1;
                    }
                }
            }
            cost.rules_scanned += 1;
            if multiplicity == self.antecedent_len[min as usize] {
                cost.rules_fired += 1;
                if !on_fire(min) {
                    break;
                }
            }
        }
        cost
    }

    /// All rules whose antecedent is contained in `basket`, as score-
    /// ordered rule ids, with the query's cost counters.
    ///
    /// `basket` need not be sorted or duplicate-free.
    pub fn match_basket_counted(&self, basket: &[u32]) -> (Vec<u32>, MatchCost) {
        let basket = Self::normalize(basket);
        let mut fired = Vec::new();
        let cost = self.scan(&basket, |id| {
            fired.push(id);
            true
        });
        (fired, cost)
    }

    /// All rules whose antecedent is contained in `basket`, best score
    /// first.
    pub fn match_basket(&self, basket: &[u32]) -> Vec<&Rule> {
        let (ids, _) = self.match_basket_counted(basket);
        ids.into_iter().map(|id| self.rule(id)).collect()
    }

    /// The `k` best-scoring firing rules. Short-circuits: the merge
    /// stops as soon as `k` rules have fired instead of draining the
    /// postings lists.
    pub fn top_k(&self, basket: &[u32], k: usize) -> Vec<&Rule> {
        let (ids, _) = self.top_k_counted(basket, k);
        ids.into_iter().map(|id| self.rule(id)).collect()
    }

    /// [`ServingSnapshot::top_k`] as score-ordered rule ids, with the
    /// query's cost counters. With `k == 0` nothing is scanned, but the
    /// basket's distinct items still count as index probes.
    pub fn top_k_counted(&self, basket: &[u32], k: usize) -> (Vec<u32>, MatchCost) {
        let basket = Self::normalize(basket);
        let mut fired = Vec::with_capacity(k.min(16));
        if k == 0 {
            let cost = MatchCost {
                index_probes: basket.len() as u64,
                ..MatchCost::default()
            };
            return (fired, cost);
        }
        let cost = self.scan(&basket, |id| {
            fired.push(id);
            fired.len() < k
        });
        (fired, cost)
    }

    /// Up to `k` consequent items not already in `basket`, each tagged
    /// with the best (first-firing) rule that proposed it. Firing rules
    /// are visited best-first, so each item's score is the best
    /// available.
    pub fn recommend(&self, basket: &[u32], k: usize) -> Vec<Recommendation> {
        self.recommend_counted(basket, k).0
    }

    /// [`ServingSnapshot::recommend`] with the query's cost counters.
    pub fn recommend_counted(&self, basket: &[u32], k: usize) -> (Vec<Recommendation>, MatchCost) {
        let basket = Self::normalize(basket);
        let mut out: Vec<Recommendation> = Vec::new();
        if k == 0 {
            let cost = MatchCost {
                index_probes: basket.len() as u64,
                ..MatchCost::default()
            };
            return (out, cost);
        }
        let cost = self.scan(&basket, |id| {
            let rule = self.rule(id);
            for item in rule.consequent.iter() {
                let item = item.id();
                if basket.binary_search(&item).is_err() && !out.iter().any(|r| r.item == item) {
                    out.push(Recommendation {
                        item,
                        rule_id: id,
                        confidence: rule.confidence(),
                        support: rule.support,
                    });
                    if out.len() == k {
                        return false;
                    }
                }
            }
            true
        });
        (out, cost)
    }

    /// The brute-force oracle the index replaces: a linear scan testing
    /// every served rule's antecedent against the basket with the
    /// `kernels` sorted-intersection primitive. Returns the fired ids
    /// (same order as [`ServingSnapshot::match_basket_counted`]) and the
    /// number of rules scanned (always `n_rules`).
    pub fn match_basket_linear(&self, basket: &[u32]) -> (Vec<u32>, u64) {
        let basket = Self::normalize(basket);
        let items: Vec<Item> = basket.iter().copied().map(Item).collect();
        let mut fired = Vec::new();
        for (id, rule) in self.rules.iter().enumerate() {
            let ant = rule.antecedent.as_slice();
            if ant.len() <= items.len() && kernels::intersect_count_sorted(ant, &items) == ant.len()
            {
                fired.push(id as u32);
            }
        }
        (fired, self.rules.len() as u64)
    }
}

/// One basket's match result: the snapshot it ran against (kept alive
/// for rule lookups) plus the firing rule ids in score order.
#[derive(Debug)]
pub struct BasketMatch {
    snapshot: Arc<ServingSnapshot>,
    fired: Vec<u32>,
}

impl BasketMatch {
    /// Number of rules that fired.
    pub fn len(&self) -> usize {
        self.fired.len()
    }

    /// Whether nothing fired.
    pub fn is_empty(&self) -> bool {
        self.fired.is_empty()
    }

    /// The firing rule ids, best score first.
    pub fn ids(&self) -> &[u32] {
        &self.fired
    }

    /// The firing rules, best score first.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.fired.iter().map(|&id| self.snapshot.rule(id))
    }

    /// The epoch of the snapshot this match observed.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The snapshot the match ran against.
    pub fn snapshot(&self) -> &Arc<ServingSnapshot> {
        &self.snapshot
    }
}

/// One recommended item from [`ServingSnapshot::recommend`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// The proposed item id.
    pub item: u32,
    /// The id of the (best) rule that proposed it.
    pub rule_id: u32,
    /// That rule's confidence.
    pub confidence: f64,
    /// That rule's support count.
    pub support: Support,
}

/// Cumulative serving counters, readable from any handle. Deterministic
/// for a deterministic workload — the serving bench gates them as exact
/// baselines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ServeStats {
    /// Queries answered (match, top-k, recommend).
    pub queries: u64,
    /// Postings lists probed across all queries.
    pub index_probes: u64,
    /// Candidate rules examined by the index merges.
    pub rules_scanned: u64,
    /// Rules fired across all queries.
    pub rules_fired: u64,
    /// Snapshots published by the writer (the seed snapshot counts).
    pub snapshots_published: u64,
    /// Snapshot acquisitions that missed a reader's cache.
    pub snapshot_refreshes: u64,
}

/// A retired snapshot pointer parked for deferred reclamation. The
/// pointer came from `Arc::into_raw`, is only ever turned back into an
/// `Arc` once, and the `Mutex` around the park list makes the handoff
/// to `Shared::drop` safe — hence `Send`.
struct Retired(*const ServingSnapshot);
// SAFETY: `Retired` is a uniquely-owned `Arc` strong count in disguise
// (see above); `ServingSnapshot` itself is `Send + Sync`.
unsafe impl Send for Retired {}

/// The lock-free publication cell shared by the writer and all readers.
struct Shared {
    /// The current snapshot. Owns one `Arc` strong count, transferred
    /// via `Arc::into_raw` / `Arc::from_raw`.
    current: AtomicPtr<ServingSnapshot>,
    /// The current snapshot's epoch — the readers' cheap staleness
    /// check (one load instead of an acquire).
    epoch: AtomicU64,
    /// Readers currently inside [`Shared::acquire`]'s pointer-load +
    /// count-increment window. The writer reclaims retired snapshots
    /// only when this is 0.
    in_flight: AtomicUsize,
    /// Snapshots unpublished while readers were in flight; the single
    /// writer (and finally `Drop`) drains this, so the mutex is never
    /// contended and never touched on the read path.
    retired: Mutex<Vec<Retired>>,
    queries: AtomicU64,
    index_probes: AtomicU64,
    rules_scanned: AtomicU64,
    rules_fired: AtomicU64,
    snapshots_published: AtomicU64,
    snapshot_refreshes: AtomicU64,
}

impl Shared {
    fn new(first: Arc<ServingSnapshot>) -> Self {
        let epoch = first.epoch();
        Shared {
            current: AtomicPtr::new(Arc::into_raw(first).cast_mut()),
            epoch: AtomicU64::new(epoch),
            in_flight: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
            queries: AtomicU64::new(0),
            index_probes: AtomicU64::new(0),
            rules_scanned: AtomicU64::new(0),
            rules_fired: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(1),
            snapshot_refreshes: AtomicU64::new(0),
        }
    }

    /// Wait-free snapshot acquisition: announce the read, load the
    /// pointer, take a strong count, withdraw. No locks, no retries.
    ///
    /// Why this is sound: the writer only reclaims a retired pointer
    /// after observing `in_flight == 0` with `SeqCst`. In the single
    /// total order of `SeqCst` operations, every reader's announcement
    /// (`fetch_add`) is either before that observation — then so is its
    /// withdrawal (`fetch_sub`), meaning its count-increment on the old
    /// snapshot already happened and keeps it alive — or after it, in
    /// which case its subsequent pointer load is also after the writer's
    /// swap and can only see the *new* pointer, never the retired one.
    fn acquire(&self) -> Arc<ServingSnapshot> {
        self.in_flight.fetch_add(1, MemOrd::SeqCst);
        let ptr = self.current.load(MemOrd::SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` and the in-flight
        // announcement above keeps the writer from reclaiming it (see
        // the ordering argument in the doc comment).
        let snap = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        self.in_flight.fetch_sub(1, MemOrd::SeqCst);
        self.snapshot_refreshes.fetch_add(1, MemOrd::Relaxed);
        snap
    }

    /// Publishes `snap` (single writer only): swap the pointer, bump the
    /// epoch, park the old snapshot, and reclaim the park list if no
    /// reader is mid-acquisition.
    fn publish(&self, snap: Arc<ServingSnapshot>) {
        let epoch = snap.epoch();
        let new_ptr = Arc::into_raw(snap).cast_mut();
        let old = self.current.swap(new_ptr, MemOrd::SeqCst);
        self.epoch.store(epoch, MemOrd::SeqCst);
        let mut retired = self.retired.lock().expect("retired list poisoned");
        retired.push(Retired(old));
        if self.in_flight.load(MemOrd::SeqCst) == 0 {
            for Retired(ptr) in retired.drain(..) {
                // SAFETY: each parked pointer owns exactly one strong
                // count (from `Arc::into_raw` at publish time), no
                // reader acquisition is in flight, and any reader that
                // already acquired holds its *own* count — dropping
                // ours cannot free a snapshot still in use.
                unsafe { drop(Arc::from_raw(ptr)) };
            }
        }
        drop(retired);
        self.snapshots_published.fetch_add(1, MemOrd::Relaxed);
    }

    fn record(&self, cost: MatchCost) {
        self.queries.fetch_add(1, MemOrd::Relaxed);
        self.index_probes
            .fetch_add(cost.index_probes, MemOrd::Relaxed);
        self.rules_scanned
            .fetch_add(cost.rules_scanned, MemOrd::Relaxed);
        self.rules_fired
            .fetch_add(cost.rules_fired, MemOrd::Relaxed);
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            queries: self.queries.load(MemOrd::Relaxed),
            index_probes: self.index_probes.load(MemOrd::Relaxed),
            rules_scanned: self.rules_scanned.load(MemOrd::Relaxed),
            rules_fired: self.rules_fired.load(MemOrd::Relaxed),
            snapshots_published: self.snapshots_published.load(MemOrd::Relaxed),
            snapshot_refreshes: self.snapshot_refreshes.load(MemOrd::Relaxed),
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // All readers are gone (they hold `Arc<Shared>`), so every
        // parked count and the current one can be released.
        for Retired(ptr) in self
            .retired
            .get_mut()
            .expect("retired list poisoned")
            .drain(..)
        {
            // SAFETY: as in `publish`, each parked pointer owns one
            // strong count and no reader can be in flight during drop.
            unsafe { drop(Arc::from_raw(ptr)) };
        }
        let current = *self.current.get_mut();
        // SAFETY: the cell owns one strong count on the current
        // snapshot; this releases it exactly once.
        unsafe { drop(Arc::from_raw(current)) };
    }
}

/// A wait-free reader handle. Cheap to clone — hand one to each query
/// thread. The handle caches the snapshot it last used and revalidates
/// it with a single epoch load per query.
#[derive(Clone)]
pub struct RuleReader {
    shared: Arc<Shared>,
    cached: Arc<ServingSnapshot>,
}

impl RuleReader {
    /// The snapshot the reader would query right now, refreshing the
    /// cache if the writer has published since.
    pub fn refresh(&mut self) -> &Arc<ServingSnapshot> {
        if self.shared.epoch.load(MemOrd::SeqCst) != self.cached.epoch() {
            self.cached = self.shared.acquire();
        }
        &self.cached
    }

    /// The cached snapshot without revalidation.
    pub fn snapshot(&self) -> &Arc<ServingSnapshot> {
        &self.cached
    }

    /// The epoch of the cached snapshot.
    pub fn epoch(&self) -> u64 {
        self.cached.epoch()
    }

    /// Matches a basket against the current snapshot via the antecedent
    /// index. Wait-free; never blocks the writer.
    pub fn match_basket(&mut self, basket: &[u32]) -> BasketMatch {
        self.refresh();
        let (fired, cost) = self.cached.match_basket_counted(basket);
        self.shared.record(cost);
        BasketMatch {
            snapshot: Arc::clone(&self.cached),
            fired,
        }
    }

    /// The `k` best-scoring rules firing on `basket` (short-circuiting
    /// merge), against the current snapshot.
    pub fn top_k(&mut self, basket: &[u32], k: usize) -> BasketMatch {
        self.refresh();
        let (fired, cost) = self.cached.top_k_counted(basket, k);
        self.shared.record(cost);
        BasketMatch {
            snapshot: Arc::clone(&self.cached),
            fired,
        }
    }

    /// Up to `k` recommended items for `basket`, best rule first,
    /// against the current snapshot.
    pub fn recommend(&mut self, basket: &[u32], k: usize) -> Vec<Recommendation> {
        self.refresh();
        let (out, cost) = self.cached.recommend_counted(basket, k);
        self.shared.record(cost);
        out
    }

    /// The cumulative serving counters (shared with the server).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }
}

/// The single-writer serving front: owns the [`StreamingMiner`], ingests
/// batches, and publishes epoch-swapped snapshots readers consume
/// wait-free.
pub struct RuleServer {
    miner: StreamingMiner,
    basis: ServedBasis,
    shared: Arc<Shared>,
}

impl RuleServer {
    /// Opens a server over `db` with `config`'s thresholds, publishing
    /// the seed snapshot immediately.
    pub fn open(config: RuleMiner, db: TransactionDb, basis: ServedBasis) -> Self {
        let mut miner = config.streaming(db);
        let epoch = miner.epoch();
        let snapshot = Arc::new(ServingSnapshot::from_bases(miner.bases(), basis, epoch));
        RuleServer {
            miner,
            basis,
            shared: Arc::new(Shared::new(snapshot)),
        }
    }

    /// Switches the served basis and republishes at the same epoch.
    pub fn with_basis(mut self, basis: ServedBasis) -> Self {
        self.basis = basis;
        self.republish();
        self
    }

    /// Sets the embedded miner's retention [`Window`] (builder-style).
    /// Subsequent [`RuleServer::ingest`] calls expire the out-of-window
    /// prefix and republish the windowed snapshot like any other batch.
    pub fn window(mut self, window: Window) -> Self {
        self.miner.set_window(window);
        self
    }

    /// Ingests a batch: pushes it through the streaming miner (which
    /// appends it and expires whatever the miner's window no longer
    /// retains), rebuilds the snapshot from the patched bases, and
    /// publishes it. Readers keep answering on the old epoch until the
    /// swap lands; the swap itself never waits for them.
    pub fn ingest(&mut self, rows: Vec<Vec<u32>>) -> Result<BasesDelta, DatasetError> {
        let delta = self.miner.push_batch(rows)?;
        if delta.appended > 0 || delta.expired > 0 {
            self.republish();
        }
        Ok(delta)
    }

    /// Rebuilds and publishes a snapshot from the miner's current bases.
    fn republish(&mut self) {
        let epoch = self.miner.epoch();
        let snapshot = Arc::new(ServingSnapshot::from_bases(
            self.miner.bases(),
            self.basis,
            epoch,
        ));
        self.shared.publish(snapshot);
    }

    /// A new reader handle, pre-warmed with the current snapshot.
    pub fn reader(&self) -> RuleReader {
        RuleReader {
            cached: self.shared.acquire(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current snapshot (writer's view).
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.shared.acquire()
    }

    /// The current stream epoch.
    pub fn epoch(&self) -> u64 {
        self.miner.epoch()
    }

    /// Rows in the served context.
    pub fn n_objects(&self) -> usize {
        self.miner.n_objects()
    }

    /// The served basis flavour.
    pub fn basis(&self) -> ServedBasis {
        self.basis
    }

    /// Cumulative serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The underlying streaming miner (e.g. for segment inspection).
    pub fn miner(&self) -> &StreamingMiner {
        &self.miner
    }

    /// Writes a crash-safe snapshot of the serving session's writer
    /// state into `dir` as a fresh checkpoint generation (temp-write →
    /// flush → atomic rename; see the [checkpoint
    /// format](crate::checkpoint)). Readers are unaffected — the
    /// snapshot is taken from the writer side between batches. The
    /// persisted session can later be rebuilt with
    /// [`CheckpointedMiner::recover`] and re-wrapped in a server.
    ///
    /// [`CheckpointedMiner::recover`]: crate::checkpoint::CheckpointedMiner::recover
    pub fn checkpoint(
        &self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<std::path::PathBuf, crate::checkpoint::CheckpointError> {
        crate::checkpoint::write_snapshot(&self.miner, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::RuleMiner;
    use rulebases_dataset::{paper_example, MinSupport};

    fn server() -> RuleServer {
        RuleMiner::new(MinSupport::Fraction(0.4))
            .min_confidence(0.5)
            .serving(paper_example())
    }

    #[test]
    fn snapshot_ids_are_score_ordered() {
        let snap = server().snapshot();
        for pair in snap.rules().windows(2) {
            assert_ne!(
                score_cmp(&pair[0], &pair[1]),
                Ordering::Greater,
                "rule ids must be assigned in score order"
            );
        }
    }

    #[test]
    fn index_match_equals_linear_oracle() {
        let snap = server().snapshot();
        let baskets: &[&[u32]] = &[
            &[],
            &[0],
            &[0, 2],
            &[2, 0],
            &[0, 1, 2, 3, 4],
            &[4, 3, 2, 1, 0],
            &[3, 3, 3],
            &[99],
        ];
        for basket in baskets {
            let (indexed, cost) = snap.match_basket_counted(basket);
            let (linear, scanned) = snap.match_basket_linear(basket);
            assert_eq!(indexed, linear, "basket {basket:?}");
            assert!(cost.rules_scanned <= scanned);
        }
    }

    #[test]
    fn index_scans_fewer_rules_than_linear_on_partial_baskets() {
        let snap = server().snapshot();
        let (_, cost) = snap.match_basket_counted(&[0]);
        let (_, linear) = snap.match_basket_linear(&[0]);
        assert!(
            cost.rules_scanned < linear,
            "index scanned {} vs linear {linear}",
            cost.rules_scanned
        );
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_match() {
        let snap = server().snapshot();
        let basket = &[0, 1, 2, 3, 4][..];
        let (all, _) = snap.match_basket_counted(basket);
        for k in 0..=all.len() + 1 {
            let got: Vec<u32> = snap
                .top_k(basket, k)
                .iter()
                .map(|r| {
                    snap.rules()
                        .iter()
                        .position(|s| s == *r)
                        .expect("top-k rule served") as u32
                })
                .collect();
            assert_eq!(got, all[..k.min(all.len())].to_vec(), "k={k}");
        }
    }

    #[test]
    fn reader_top_k_runs_the_snapshot_path_and_tallies_it() {
        let server = server();
        let mut reader = server.reader();
        let basket = &[4, 0, 2, 0][..];
        for k in [0, 1, 3] {
            let before = reader.stats();
            let got = reader.top_k(basket, k);
            let (ids, cost) = reader.snapshot().top_k_counted(basket, k);
            assert_eq!(got.ids(), &ids[..], "k={k}");
            let after = reader.stats();
            assert_eq!(after.queries, before.queries + 1, "k={k}");
            assert_eq!(after.index_probes, before.index_probes + cost.index_probes);
            assert_eq!(
                after.rules_scanned,
                before.rules_scanned + cost.rules_scanned
            );
            assert_eq!(after.rules_fired, before.rules_fired + cost.rules_fired);
        }
        // k = 0 scans nothing; the basket's 3 distinct items still count
        // as index probes.
        let (ids, cost) = reader.snapshot().top_k_counted(basket, 0);
        assert!(ids.is_empty());
        let probes_only = MatchCost {
            index_probes: 3,
            ..MatchCost::default()
        };
        assert_eq!(cost, probes_only);
    }

    #[test]
    fn recommendations_exclude_basket_items_and_dedup() {
        let snap = server().snapshot();
        let basket = &[0, 2][..];
        let recs = snap.recommend(basket, 8);
        let mut seen = Vec::new();
        for rec in &recs {
            assert!(!basket.contains(&rec.item));
            assert!(!seen.contains(&rec.item), "duplicate recommendation");
            seen.push(rec.item);
        }
        // Best-first: confidences never improve later in the list for
        // repeated queries of the same rule (scores are non-increasing
        // per proposing rule id).
        for pair in recs.windows(2) {
            assert!(pair[0].rule_id <= pair[1].rule_id);
        }
    }

    #[test]
    fn ingest_publishes_and_readers_observe_new_epochs() {
        let mut server = server();
        let mut reader = server.reader();
        let before = reader.match_basket(&[0, 2]).epoch();
        let delta = server.ingest(vec![vec![0, 1, 2], vec![0, 2, 4]]).unwrap();
        assert_eq!(delta.appended, 2);
        let after = reader.match_basket(&[0, 2]).epoch();
        assert!(after > before);
        assert_eq!(after, server.epoch());
        // Empty batch: no republish, epoch stands.
        server.ingest(Vec::new()).unwrap();
        assert_eq!(reader.match_basket(&[0]).epoch(), after);
    }

    #[test]
    fn stale_readers_keep_their_snapshot_alive() {
        let mut server = server();
        let reader = server.reader();
        let old = Arc::clone(reader.snapshot());
        let old_epoch = old.epoch();
        for batch in 0..4 {
            server
                .ingest(vec![vec![batch % 5, (batch + 1) % 5]])
                .unwrap();
        }
        // The pinned snapshot is still fully usable after 4 publishes:
        // the full universe fires every served rule.
        assert_eq!(old.epoch(), old_epoch);
        let universe: Vec<u32> = (0..=5).collect();
        let (fired, _) = old.match_basket_counted(&universe);
        assert_eq!(fired.len(), old.n_rules());
        assert!(server.snapshot().epoch() > old_epoch);
    }

    #[test]
    fn stats_accumulate_deterministically() {
        let server = server();
        let mut reader = server.reader();
        let m = reader.match_basket(&[0, 2]);
        let stats = server.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.index_probes, 2);
        assert_eq!(stats.rules_fired, m.len() as u64);
        assert_eq!(stats.snapshots_published, 1);
        let again = reader.stats();
        assert_eq!(again, stats, "reader and server share one counter set");
    }

    #[test]
    fn served_basis_flavours_nest() {
        let exact = server().with_basis(ServedBasis::Exact).snapshot().n_rules();
        let compact = server().snapshot().n_rules();
        let full = server().with_basis(ServedBasis::Full).snapshot().n_rules();
        assert!(exact <= compact);
        assert!(compact <= full);
        assert!(exact > 0, "paper example has DG rules");
    }
}
