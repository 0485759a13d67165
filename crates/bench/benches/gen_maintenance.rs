//! Generator-maintenance ablation: delta-sized local rules vs the
//! retained transversal oracle.
//!
//! Two legs, both deterministic:
//!
//! * **Windowed drift replay** — `drifting_census` rows pushed in
//!   64-row batches through a `Window::Sliding` session, tallying the
//!   generator work the lattice maintenance spends ([`GenStats`]
//!   threaded through every `BasesDelta`). The replay **asserts** the
//!   streaming invariant: zero transversal fallbacks — every tag update
//!   on the object paths is a local extension/subsumption rule — and
//!   that the per-batch deltas sum to the session's lifetime counters.
//! * **`wide_flat` ablation** — the pathological wide-universe replay
//!   whose top class accumulates one equal-support lower cover per
//!   item, replayed through a raw `IncrementalLattice`, whose local
//!   rules pay one constraint step per arrival. The oracle leg replays
//!   it again and, after each insertion, re-derives every created node
//!   and its upper covers (the nodes whose lower covers the insertion
//!   changed) from the full complement family through the counted
//!   transversal oracle — the ever-larger pair generator set on every
//!   arrival (super-linear). Both legs must end with identical tags on
//!   every live node.
//!
//! The headline numbers are written to `BENCH_gen.json` at the
//! workspace root (the committed copy is the `bench-gate` baseline:
//! the streaming fallback/candidate/subsumption counters are gated
//! exactly — `stream_transversal_fallbacks` is committed as 0 — and
//! the ablation ratio rides the speedup band) and appended to
//! `BENCH_history.jsonl`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases::{GenStats, MinSupport, RuleMiner, Window};
use rulebases_bench::{append_bench_history, drifting_census, wide_flat, write_bench_artifact};
use rulebases_dataset::{Itemset, TransactionDb};
use rulebases_lattice::IncrementalLattice;
use serde::Serialize;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROWS: usize = 768;
const BATCH: usize = 64;
const WINDOW: usize = 256;
const ROTATE: usize = 256;
const ATTRS: usize = 5;
/// Universe width of the `wide_flat` ablation: wide enough that the
/// oracle's from-scratch retagging visibly dominates (its pair set
/// grows to C(width, 2)), small enough for the 1-CPU CI budget.
const WIDE: usize = 28;

fn drift_rows() -> Vec<Vec<u32>> {
    let db = drifting_census(ROWS, ATTRS, ROTATE, 0xD21F7);
    (0..db.n_transactions())
        .map(|t| db.transaction(t).iter().map(|i| i.id()).collect())
        .collect()
}

/// One full windowed drift replay; returns the session's lifetime
/// generator-work counters after asserting they reconcile with the
/// per-batch deltas.
fn replay_drift_windowed(rows: &[Vec<u32>]) -> GenStats {
    let mut stream = RuleMiner::new(MinSupport::Fraction(0.3))
        .min_confidence(0.6)
        .streaming(TransactionDb::from_rows(vec![]))
        .window(Window::Sliding(WINDOW));
    let mut batched = GenStats::default();
    for chunk in rows.chunks(BATCH) {
        let delta = stream.push_batch(chunk.to_vec()).unwrap();
        batched.absorb(delta.gen);
        black_box(stream.bases().dg.len());
    }
    let lifetime = stream.gen_stats();
    assert_eq!(
        batched, lifetime,
        "per-batch GenStats must sum to the session's lifetime counters"
    );
    lifetime
}

/// The `wide_flat(WIDE)` rows, in replay order.
fn wide_rows() -> Vec<Itemset> {
    let db = wide_flat(WIDE);
    (0..db.n_transactions())
        .map(|t| Itemset::from_sorted(db.transaction(t).to_vec()))
        .collect()
}

/// Replays the `wide_flat` rows object by object through a raw lattice,
/// returning it with its local-rule work counters.
fn replay_wide(rows: &[Itemset]) -> (IncrementalLattice, GenStats) {
    let mut inc = IncrementalLattice::new();
    for row in rows {
        inc.insert_object(row);
    }
    let stats = inc.gen_stats();
    (inc, stats)
}

/// The oracle leg: the same replay, re-deriving after each insertion
/// every created node and its upper covers through the counted
/// transversal oracle. Returns each slot's last oracle-derived tags and
/// the oracle's work counters alone.
fn replay_wide_oracle(rows: &[Itemset]) -> (Vec<Vec<Itemset>>, GenStats) {
    let mut inc = IncrementalLattice::new();
    let mut tags: Vec<Vec<Itemset>> = Vec::new();
    let mut stats = GenStats::default();
    for row in rows {
        let delta = inc.insert_object_delta(row);
        let mut visit: BTreeSet<usize> = BTreeSet::new();
        for &id in &delta.created {
            visit.insert(id);
            visit.extend(inc.upper_covers(id).iter().copied());
        }
        tags.resize(inc.n_nodes(), Vec::new());
        for id in visit {
            tags[id] = inc.oracle_generators_counted(id, &mut stats);
        }
    }
    (tags, stats)
}

/// The machine-readable record `BENCH_gen.json` holds.
#[derive(Serialize)]
struct GenBenchRecord {
    rows: usize,
    batch: usize,
    window: usize,
    /// Extension candidates the windowed drift replay examined
    /// (deterministic for the fixed schedule — gated exactly).
    stream_candidates: u64,
    /// Subsumption checks of the same replay (gated exactly).
    stream_subsumption_checks: u64,
    /// Transversal fallbacks on the streaming paths — the maintained
    /// invariant, committed and gated exactly at 0.
    stream_transversal_fallbacks: u64,
    wide_width: usize,
    /// Local-rule work on the `wide_flat` replay (gated exactly).
    local_candidates: u64,
    local_subsumption_checks: u64,
    /// Zero by construction — the local rules never fall back.
    local_transversal_fallbacks: u64,
    /// The oracle leg's per-node recomputations (one per created node
    /// and upper cover of each insertion).
    oracle_transversal_fallbacks: u64,
    local_wall_us: f64,
    oracle_wall_us: f64,
    /// Oracle wall over local wall — the ablation headline; must stay
    /// above the speedup noise band of the committed baseline.
    oracle_over_local: f64,
}

fn bench_gen_maintenance(c: &mut Criterion) {
    let rows = drift_rows();
    let mut group = c.benchmark_group("gen-maintenance");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let wide = wide_rows();
    group.bench_function(BenchmarkId::new("wide-flat", "local"), |b| {
        b.iter(|| black_box(replay_wide(&wide).1.candidates))
    });
    group.bench_function(BenchmarkId::new("wide-flat", "transversal-oracle"), |b| {
        b.iter(|| black_box(replay_wide_oracle(&wide).1.transversal_fallbacks))
    });
    group.finish();

    // One clean tallied run per leg, wall-clocked for the artifact.
    let stream_stats = replay_drift_windowed(&rows);
    assert_eq!(
        stream_stats.transversal_fallbacks, 0,
        "streaming maintenance must never fall back to the transversal oracle"
    );
    assert!(stream_stats.candidates > 0 && stream_stats.subsumption_checks > 0);

    let start = Instant::now();
    let (local_lattice, local) = replay_wide(&wide);
    let local_wall_us = start.elapsed().as_secs_f64() * 1e6;
    let start = Instant::now();
    let (oracle_tags, oracle) = replay_wide_oracle(&wide);
    let oracle_wall_us = start.elapsed().as_secs_f64() * 1e6;

    // The ablation is only meaningful if both legs arrive at the same
    // tags — check every live node, not just the top class.
    assert_eq!(local_lattice.n_nodes(), oracle_tags.len());
    for (id, tags) in oracle_tags.iter().enumerate() {
        if local_lattice.is_live(id) {
            assert_eq!(
                local_lattice.generator_tags(id),
                tags,
                "leg divergence at node {id}"
            );
        }
    }
    assert_eq!(local.transversal_fallbacks, 0);
    assert!(oracle.transversal_fallbacks > 0);
    assert!(
        local.candidates < oracle.candidates,
        "local rules must examine fewer candidates: {} !< {}",
        local.candidates,
        oracle.candidates
    );

    let oracle_over_local = oracle_wall_us / local_wall_us;
    println!(
        "gen-maintenance: drift replay ({ROWS} rows, window {WINDOW}) — \
         {} candidates, {} subsumption checks, {} fallbacks",
        stream_stats.candidates,
        stream_stats.subsumption_checks,
        stream_stats.transversal_fallbacks
    );
    println!(
        "wide_flat({WIDE}): local {} candidates / {} checks in {local_wall_us:.1} µs vs \
         oracle {} candidates / {} checks / {} fallbacks in {oracle_wall_us:.1} µs \
         ({oracle_over_local:.1}x)",
        local.candidates,
        local.subsumption_checks,
        oracle.candidates,
        oracle.subsumption_checks,
        oracle.transversal_fallbacks
    );

    let record = GenBenchRecord {
        rows: ROWS,
        batch: BATCH,
        window: WINDOW,
        stream_candidates: stream_stats.candidates,
        stream_subsumption_checks: stream_stats.subsumption_checks,
        stream_transversal_fallbacks: stream_stats.transversal_fallbacks,
        wide_width: WIDE,
        local_candidates: local.candidates,
        local_subsumption_checks: local.subsumption_checks,
        local_transversal_fallbacks: local.transversal_fallbacks,
        oracle_transversal_fallbacks: oracle.transversal_fallbacks,
        local_wall_us,
        oracle_wall_us,
        oracle_over_local,
    };
    write_bench_artifact("gen", &record);
    append_bench_history("gen", &record);
}

criterion_group!(benches, bench_gen_maintenance);
criterion_main!(benches);
