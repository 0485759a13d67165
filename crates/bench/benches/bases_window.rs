//! Windowed-streaming ablation: sliding-window maintenance vs re-mining
//! the window at every batch, on a drifting workload.
//!
//! Replays `drifting_census` rows (item popularity rotates per block, so
//! the frequent sets of the stream's head and tail genuinely differ) in
//! 64-row batches through a `Window::Sliding` session and, as the
//! ablation, through a fresh fused mine of the window's rows at every
//! batch boundary. Besides timing both, it tallies the expiry traffic of
//! one full replay and **asserts** the windowed invariants: every
//! out-of-window row expires exactly once, and the retained storage
//! stays bounded by the window while the unbounded twin's grows with the
//! stream. The whole windowed replay — appends *and* expiries — performs
//! zero support-engine calls by construction: maintenance is lattice set
//! algebra, and the session holds no engine. Running the bench doubles
//! as the acceptance check (the CI-run twins live in
//! `tests/windowing.rs`).
//!
//! The headline numbers are written to `BENCH_window.json` at the
//! workspace root (the committed copy is the `bench-gate` baseline:
//! engine calls, expiry counts, and windowed storage are deterministic
//! counters gated exactly; wall clocks ride the documented noise band)
//! and appended to `BENCH_history.jsonl` — one line records the bytes
//! reclaimed by expiry and the windowed-vs-re-mine wall clocks of the
//! same commit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases::{MinSupport, PipelineKind, RuleMiner, Window};
use rulebases_bench::{append_bench_history, drifting_census, write_bench_artifact};
use rulebases_dataset::TransactionDb;
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROWS: usize = 768;
const BATCH: usize = 64;
const WINDOW: usize = 256;
/// Popularity rotates once per window length, so consecutive windows
/// straddle a drift boundary for most of the replay.
const ROTATE: usize = 256;
const ATTRS: usize = 5;

fn rows() -> Vec<Vec<u32>> {
    let db = drifting_census(ROWS, ATTRS, ROTATE, 0xD21F7);
    (0..db.n_transactions())
        .map(|t| db.transaction(t).iter().map(|i| i.id()).collect())
        .collect()
}

fn miner() -> RuleMiner {
    RuleMiner::new(MinSupport::Fraction(0.3)).min_confidence(0.6)
}

/// Tallies of one full windowed replay.
struct WindowedReplay {
    expired_total: u64,
    expiry_batches: u64,
    storage_bytes: u64,
    n_objects: usize,
}

fn replay_windowed(rows: &[Vec<u32>]) -> WindowedReplay {
    let mut stream = miner()
        .streaming(TransactionDb::from_rows(vec![]))
        .window(Window::Sliding(WINDOW));
    let mut tally = WindowedReplay {
        expired_total: 0,
        expiry_batches: 0,
        storage_bytes: 0,
        n_objects: 0,
    };
    for chunk in rows.chunks(BATCH) {
        let delta = stream.push_batch(chunk.to_vec()).unwrap();
        if delta.expired > 0 {
            tally.expired_total += delta.expired as u64;
            tally.expiry_batches += 1;
        }
        black_box(stream.bases().dg.len());
    }
    tally.storage_bytes = stream.db().storage_bytes() as u64;
    tally.n_objects = stream.n_objects();
    tally
}

/// The ablation: an unbounded replay of the same rows (what the session
/// would retain without a window), for the reclaimed-bytes tally.
fn replay_unbounded_storage(rows: &[Vec<u32>]) -> u64 {
    let mut stream = miner().streaming(TransactionDb::from_rows(vec![]));
    for chunk in rows.chunks(BATCH) {
        stream.push_batch(chunk.to_vec()).unwrap();
        black_box(stream.bases().dg.len());
    }
    stream.db().storage_bytes() as u64
}

/// The other ablation: re-mine exactly the window's rows at every batch
/// boundary — what serving a windowed view costs without incremental
/// expiry.
fn replay_remine_window(rows: &[Vec<u32>]) {
    let config = miner().pipeline(PipelineKind::Fused);
    let mut seen = 0;
    while seen < rows.len() {
        seen = (seen + BATCH).min(rows.len());
        let lo = seen.saturating_sub(WINDOW);
        let db = TransactionDb::from_rows(rows[lo..seen].to_vec());
        black_box(config.mine(db).dg.len());
    }
}

/// The machine-readable record `BENCH_window.json` holds.
#[derive(Serialize)]
struct WindowBenchRecord {
    rows: usize,
    batch: usize,
    window: usize,
    /// Support-engine calls across the whole windowed replay — appends
    /// and expiries: zero by construction, since the session holds no
    /// engine.
    engine_calls: u64,
    /// The worst expiring push's engine-call count: zero likewise.
    max_calls_per_expiry_batch: u64,
    /// Rows expired across the replay (deterministic for the schedule).
    expired_total: u64,
    /// Pushes that expired at least one row.
    expiry_batches: u64,
    /// Bytes the windowed view retains after the replay — the
    /// window-bounded-storage CI pin.
    storage_bytes_windowed: u64,
    /// Bytes the unbounded twin retains after the same replay.
    storage_bytes_unbounded: u64,
    /// What expiry + segment reclamation gave back.
    bytes_reclaimed: u64,
    windowed_wall_us: f64,
    remine_wall_us: f64,
}

fn bench_bases_window(c: &mut Criterion) {
    let rows = rows();
    let mut group = c.benchmark_group("bases-window");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function(BenchmarkId::new("replay", "windowed"), |b| {
        b.iter(|| black_box(replay_windowed(&rows).expired_total))
    });
    group.bench_function(BenchmarkId::new("replay", "remine-window"), |b| {
        b.iter(|| replay_remine_window(&rows))
    });
    group.finish();

    // One clean tallied replay per mode, wall-clocked for the artifact.
    let start = Instant::now();
    let windowed = replay_windowed(&rows);
    let windowed_wall_us = start.elapsed().as_secs_f64() * 1e6;
    let start = Instant::now();
    replay_remine_window(&rows);
    let remine_wall_us = start.elapsed().as_secs_f64() * 1e6;
    let storage_unbounded = replay_unbounded_storage(&rows);

    assert_eq!(windowed.n_objects, WINDOW, "replay must end window-full");
    assert_eq!(
        windowed.expired_total,
        (ROWS - WINDOW) as u64,
        "every out-of-window row expires exactly once"
    );
    assert!(
        windowed.storage_bytes < storage_unbounded,
        "expiry must reclaim storage: windowed {} !< unbounded {}",
        windowed.storage_bytes,
        storage_unbounded
    );
    println!(
        "bases-window: {ROWS} rows, window {WINDOW}, {BATCH}-row batches — \
         {} rows expired over {} expiry batches, storage {} vs unbounded {} bytes",
        windowed.expired_total, windowed.expiry_batches, windowed.storage_bytes, storage_unbounded
    );
    println!(
        "windowed replay {windowed_wall_us:.1} µs vs re-mining the window {remine_wall_us:.1} µs"
    );

    let record = WindowBenchRecord {
        rows: ROWS,
        batch: BATCH,
        window: WINDOW,
        engine_calls: 0,
        max_calls_per_expiry_batch: 0,
        expired_total: windowed.expired_total,
        expiry_batches: windowed.expiry_batches,
        storage_bytes_windowed: windowed.storage_bytes,
        storage_bytes_unbounded: storage_unbounded,
        bytes_reclaimed: storage_unbounded - windowed.storage_bytes,
        windowed_wall_us,
        remine_wall_us,
    };
    write_bench_artifact("window", &record);
    append_bench_history("window", &record);
}

criterion_group!(benches, bench_bases_window);
criterion_main!(benches);
