//! Streaming vs re-mining ablation, plus the delta-cost probes.
//!
//! Replays a correlated stand-in in 64-row batches two ways: maintaining
//! the bases online (`StreamingMiner::push_batch` — GALICIA lattice
//! insertion, bases patched from the lattice's touched-class report)
//! versus re-running the one-shot fused pipeline on the grown prefix at
//! every batch. Besides timing both, it tallies the engine traffic of one
//! full replay per mode and **asserts** the streaming invariants. The
//! session holds no support engine, so its engine calls are zero by
//! construction, against re-mining's many. The copied-bytes tallies are
//! measured on a `MiningContext` that absorbs the same appends through
//! `MiningContext::apply_delta` (the delta path the repo benchmark's
//! `mine-sparse` load drives): a fixed-size batch costs the same
//! copied bytes against a 512-row prefix as against a 4096-row one (the
//! zero-copy append contract). Running the bench doubles as the
//! acceptance check (the CI-run twins live in `tests/streaming.rs`).
//!
//! The headline numbers are also written to `BENCH_stream.json` at the
//! workspace root (the committed copy is the `bench-gate` baseline) and
//! appended to `BENCH_history.jsonl`. The history line additionally
//! carries the shared kernel probes (chunked-vs-scalar popcount,
//! gallop-vs-merge intersection), so one entry records both the
//! streaming tallies and the kernel state of the same commit.
//!
//! Read the timing numbers with care: at this toy scale the whole context
//! is cache-resident and mining it is almost free, so the wall clock can
//! favor re-mining — the engine-call and byte tallies are the numbers
//! that scale, because every avoided call or copy is an avoided pass over
//! data that in a real deployment no longer fits where it is cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases::{MinSupport, PipelineKind, RuleMiner};
use rulebases_bench::{append_bench_history, run_kernel_probes, write_bench_artifact, KernelProbe};
use rulebases_dataset::{EngineKind, MiningContext, TransactionDb, TxDelta};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 64;
const ROWS: usize = 512;

/// Correlated rows over 14 items in four attribute groups — compact
/// closed-set lattice, non-trivial structure at every prefix.
fn census_rows(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32)
        .map(|t| vec![t % 4, 4 + t % 3, 7 + t % 2, 9 + (t / 7) % 5])
        .collect()
}

fn miner() -> RuleMiner {
    RuleMiner::new(MinSupport::Fraction(0.1)).min_confidence(0.6)
}

/// One full streamed replay.
fn replay_streaming(rows: &[Vec<u32>]) {
    let mut stream = miner().streaming(TransactionDb::from_rows(vec![]));
    for chunk in rows.chunks(BATCH) {
        stream.push_batch(chunk.to_vec()).unwrap();
        black_box(stream.bases().dg.len());
    }
}

/// The bytes an engine over `seed` copies while it absorbs `batches`
/// through `MiningContext::apply_delta`, each appended the way a
/// streaming push appends it.
fn delta_bytes_copied(seed: Vec<Vec<u32>>, batches: &[Vec<Vec<u32>>]) -> u64 {
    let mut db = Arc::new(TransactionDb::from_rows(seed));
    let mut ctx = MiningContext::with_engine_arc(Arc::clone(&db), EngineKind::Auto);
    for batch in batches {
        let mut grown = TransactionDb::clone(&db);
        let info = grown.append_rows(batch.clone()).unwrap();
        db = Arc::new(grown);
        ctx.apply_delta(&TxDelta::new(Arc::clone(&db), info))
            .unwrap();
    }
    ctx.closure_cache_stats().bytes_copied
}

/// One full re-mining replay (fused pipeline per prefix); returns its
/// engine calls.
fn replay_remining(rows: &[Vec<u32>]) -> u64 {
    let mut calls = 0;
    let mut seen = 0;
    let config = miner().pipeline(PipelineKind::Fused);
    while seen < rows.len() {
        seen = (seen + BATCH).min(rows.len());
        let ctx = MiningContext::new(TransactionDb::from_rows(rows[..seen].to_vec()));
        black_box(config.mine_context(&ctx).dg.len());
        calls += ctx.closure_cache_stats().engine_calls();
    }
    calls
}

/// One fixed-shape batch pushed against a pre-seeded prefix: the probe
/// behind the prefix-independence claim. Identical batch rows for every
/// prefix, so the byte tallies (taken on the delta-absorbing context)
/// are directly comparable.
#[derive(Serialize)]
struct PrefixProbe {
    prefix_rows: usize,
    batch_rows: usize,
    push_wall_us: f64,
    bytes_copied: u64,
    engine_calls: u64,
    segments_before: usize,
    segments_after: usize,
}

fn probe_prefix(prefix: usize) -> PrefixProbe {
    let mut stream = miner().streaming(TransactionDb::from_rows(census_rows(prefix)));
    let batch: Vec<Vec<u32>> = census_rows(BATCH);
    let segments_before = stream.db().n_segments();
    let start = Instant::now();
    stream.push_batch(batch.clone()).unwrap();
    let push_wall_us = start.elapsed().as_secs_f64() * 1e6;
    PrefixProbe {
        prefix_rows: prefix,
        batch_rows: BATCH,
        push_wall_us,
        bytes_copied: delta_bytes_copied(census_rows(prefix), &[batch]),
        // The session holds no engine to call.
        engine_calls: 0,
        segments_before,
        segments_after: stream.db().n_segments(),
    }
}

/// The machine-readable record `BENCH_stream.json` holds.
#[derive(Serialize)]
struct StreamBenchRecord {
    rows: usize,
    batch: usize,
    streaming_engine_calls: u64,
    streaming_bytes_copied: u64,
    remining_engine_calls: u64,
    prefix_probes: Vec<PrefixProbe>,
}

/// The `BENCH_history.jsonl` line: the stream record plus the shared
/// kernel probes of the same run.
#[derive(Serialize)]
struct StreamHistoryRecord {
    stream: StreamBenchRecord,
    kernel_probes: Vec<KernelProbe>,
}

fn bench_bases_stream(c: &mut Criterion) {
    let rows = census_rows(ROWS);
    let mut group = c.benchmark_group("bases-stream");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function(BenchmarkId::new("replay", "streaming"), |b| {
        b.iter(|| replay_streaming(&rows))
    });
    group.bench_function(BenchmarkId::new("replay", "remine-per-batch"), |b| {
        b.iter(|| black_box(replay_remining(&rows)))
    });
    group.finish();

    // Engine-traffic tally — one clean replay per mode. The session holds
    // no engine, so its side is zero; the bytes are the delta context's.
    let streaming = 0;
    let batches: Vec<Vec<Vec<u32>>> = rows.chunks(BATCH).map(<[_]>::to_vec).collect();
    let streaming_bytes = delta_bytes_copied(Vec::new(), &batches);
    let remining = replay_remining(&rows);
    println!(
        "bases-stream: {ROWS} rows in {BATCH}-row batches — streaming {streaming} \
         engine calls / {streaming_bytes} bytes copied vs re-mining {remining} calls"
    );
    assert!(
        streaming < remining,
        "incremental maintenance must perform strictly fewer engine calls \
         than re-mining per batch: streaming {streaming} !< remining {remining}"
    );
    println!(
        "streaming saves {} engine calls ({:.1}% of re-mining)",
        remining - streaming,
        100.0 * (remining - streaming) as f64 / remining.max(1) as f64
    );

    // Prefix-independence: the same 64-row batch against a 512- and a
    // 4096-row prefix. Copied bytes must match exactly (the engine reads
    // the batch, never the prefix); wall clock is recorded for the
    // artifact but not asserted — timer noise outranks it.
    let probes = vec![probe_prefix(512), probe_prefix(4096)];
    assert_eq!(
        probes[0].bytes_copied, probes[1].bytes_copied,
        "per-batch copied bytes must be independent of the prefix length"
    );
    for p in &probes {
        println!(
            "push {} rows onto {} prefix: {:.1} µs, {} bytes copied, {} engine calls",
            p.batch_rows, p.prefix_rows, p.push_wall_us, p.bytes_copied, p.engine_calls
        );
    }

    let record = StreamBenchRecord {
        rows: ROWS,
        batch: BATCH,
        streaming_engine_calls: streaming,
        streaming_bytes_copied: streaming_bytes,
        remining_engine_calls: remining,
        prefix_probes: probes,
    };
    write_bench_artifact("stream", &record);
    append_bench_history(
        "stream",
        &StreamHistoryRecord {
            stream: record,
            kernel_probes: run_kernel_probes(),
        },
    );
}

criterion_group!(benches, bench_bases_stream);
criterion_main!(benches);
