//! Crash-recovery ablation: restoring a checkpointed session vs
//! re-mining the final context from scratch, on the census and DRIFT
//! stand-ins.
//!
//! Each cell replays its rows through a durable session
//! (`RuleMiner::checkpointing`), folding the journal every few batches
//! so the crash leaves both a full checkpoint *and* a journaled tail.
//! The session is then dropped — the simulated crash — and the bench
//! times `CheckpointedMiner::recover` against the ablation: one fused
//! re-mine of the full final context. Besides timing, it **asserts**
//! the recovery invariants at bench scale: the checkpoint restore
//! performs exactly **zero** support-engine calls (the rows, lattice and
//! window are deserialized; the bases are derived from the lattice, which
//! needs no engine query), the journal replay stays on the
//! engine-call-free delta path, nothing is reported lost, the recovery
//! resumes the generation it restored (the crash left nothing newer, so
//! it writes no checkpoint), and the recovered bases equal the re-mined
//! oracle's. The CI-run twins live in `tests/recovery.rs`.
//!
//! The headline numbers are written to `BENCH_recover.json` at the
//! workspace root (the committed copy is the `bench-gate` baseline: the
//! engine-call, replayed-batch, checkpoint-byte and written-generation
//! counters are deterministic and gated exactly; recovery wall clocks
//! ride the documented noise band) and appended to
//! `BENCH_history.jsonl`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases::checkpoint::{CheckpointPolicy, CheckpointedMiner};
use rulebases::{MinSupport, PipelineKind, RuleMiner};
use rulebases_bench::{
    append_bench_history, drifting_census, project_top_items, write_bench_artifact, Scale, StandIn,
};
use rulebases_dataset::TransactionDb;
use serde::Serialize;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const BATCH: usize = 64;
/// Fold every 6 batches: with 8 batches per cell the crash leaves a
/// full checkpoint (after batch 6) plus a 2-batch journaled tail, so a
/// recovery exercises both the restore and the replay path.
const FOLD_EVERY: usize = 6;
/// The bounded vocabulary the census replay projects onto (the
/// unthresholded closure system grows with the item universe).
const TOP_ITEMS: usize = 12;

fn miner() -> RuleMiner {
    RuleMiner::new(MinSupport::Fraction(0.3)).min_confidence(0.6)
}

/// The two stand-in replays: the census classic and the drifting
/// workload (popularity rotates per block).
fn cells() -> Vec<(&'static str, Vec<Vec<u32>>)> {
    let census = StandIn::C20D10K.generate(Scale::Test);
    let drift = drifting_census(512, 5, 128, 0xD21F7);
    let drift_rows = (0..drift.n_transactions())
        .map(|t| drift.transaction(t).iter().map(|i| i.id()).collect())
        .collect();
    vec![
        ("C20D10K*", project_top_items(&census, TOP_ITEMS)),
        ("DRIFT*", drift_rows),
    ]
}

/// A unique scratch directory (the offline environment has no tempfile
/// crate).
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rulebases-bench-recover-{tag}-{}",
        std::process::id()
    ))
}

/// Replays `rows` through a durable session in `dir` and crashes it,
/// returning the directory's post-crash contents so every recovery can
/// start from the identical on-disk state.
fn crash_session(rows: &[Vec<u32>], dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let _ = fs::remove_dir_all(dir);
    let (ckpt, report) = miner()
        .checkpointing(TransactionDb::from_rows(vec![]), dir)
        .expect("open checkpoint directory");
    assert!(report.is_none(), "scratch dir must start fresh");
    let mut ckpt = ckpt.policy(CheckpointPolicy {
        every_batches: FOLD_EVERY,
        every_journal_bytes: u64::MAX,
    });
    for chunk in rows.chunks(BATCH) {
        ckpt.push_batch(chunk.to_vec()).expect("append batch");
    }
    drop(ckpt); // the simulated crash
    fs::read_dir(dir)
        .expect("scratch dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let bytes = fs::read(&path).expect("read post-crash file");
            (path, bytes)
        })
        .collect()
}

/// Rewinds `dir` to the saved post-crash contents, so every recovery
/// starts from the identical on-disk state whatever the previous one
/// wrote.
fn reset_dir(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("recreate scratch dir");
    for (path, bytes) in files {
        fs::write(path, bytes).expect("restore post-crash file");
    }
}

/// The machine-readable per-cell record `BENCH_recover.json` holds.
#[derive(Serialize)]
struct RecoverCell {
    dataset: String,
    rows: usize,
    batch: usize,
    /// Payload bytes the checkpoint restore deserialized.
    checkpoint_bytes: u64,
    /// Checkpoint generations the recovery wrote: 0, since a clean
    /// recovery resumes the generation it restored.
    generations_written: u64,
    /// Journaled batches replayed on top of the checkpoint
    /// (deterministic for the fixed schedule and fold policy).
    batches_replayed: usize,
    /// Journal bytes those batches consumed.
    journal_bytes_replayed: u64,
    /// Support-engine calls during the restore — **exactly zero** is
    /// the recovery invariant the gate pins.
    restore_engine_calls: u64,
    /// Support-engine calls during the journal replay — zero too: the
    /// replay rides the delta path.
    replay_engine_calls: u64,
    recover_wall_us: f64,
    remine_wall_us: f64,
}

#[derive(Serialize)]
struct RecoverBenchRecord {
    fold_every: usize,
    cells: Vec<RecoverCell>,
}

fn bench_bases_recover(c: &mut Criterion) {
    let mut record = RecoverBenchRecord {
        fold_every: FOLD_EVERY,
        cells: Vec::new(),
    };
    let mut group = c.benchmark_group("bases-recover");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    for (name, rows) in cells() {
        let dir = scratch_dir(name.trim_end_matches('*'));
        let files = crash_session(&rows, &dir);
        let full_db = || TransactionDb::from_rows(rows.clone());

        group.bench_function(BenchmarkId::new("recover", name), |b| {
            b.iter(|| {
                reset_dir(&dir, &files);
                let (recovered, report) =
                    CheckpointedMiner::recover(&dir).expect("recover session");
                black_box((recovered.generation(), report.batches_replayed))
            })
        });
        group.bench_function(BenchmarkId::new("remine", name), |b| {
            b.iter(|| {
                black_box(
                    miner()
                        .pipeline(PipelineKind::Fused)
                        .mine(full_db())
                        .dg
                        .len(),
                )
            })
        });

        // One clean tallied run per mode for the artifact + invariants.
        reset_dir(&dir, &files);
        let start = Instant::now();
        let (mut recovered, report) = CheckpointedMiner::recover(&dir).expect("recover session");
        let recover_wall_us = start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        let oracle = miner().pipeline(PipelineKind::Fused).mine(full_db());
        let remine_wall_us = start.elapsed().as_secs_f64() * 1e6;

        assert!(report.lost.is_none(), "{name}: nothing may be lost");
        assert_eq!(
            report.restore_engine_calls, 0,
            "{name}: a restore must never query the support engine"
        );
        assert_eq!(
            report.replay_engine_calls, 0,
            "{name}: journal replay must stay on the delta path"
        );
        assert!(
            report.batches_replayed > 0,
            "{name}: tail must be journaled"
        );
        let generations_written = recovered.generation() - report.checkpoint_seq;
        assert_eq!(
            generations_written, 0,
            "{name}: a clean recovery resumes the generation it restored"
        );
        assert_eq!(
            recovered.bases().dg.rules(),
            oracle.dg.rules(),
            "{name}: recovered DG basis must equal the re-mined oracle"
        );
        assert_eq!(
            recovered.bases().lux_reduced.rules(),
            oracle.lux_reduced.rules(),
            "{name}: recovered Luxenburger basis must equal the re-mined oracle"
        );
        println!(
            "bases-recover {name}: {} rows — restored {} checkpoint bytes + replayed \
             {} batches ({} journal bytes) in {recover_wall_us:.1} µs, \
             {} engine calls during restore; one fused re-mine {remine_wall_us:.1} µs",
            rows.len(),
            report.bytes_restored,
            report.batches_replayed,
            report.journal_bytes_replayed,
            report.restore_engine_calls
        );

        record.cells.push(RecoverCell {
            dataset: name.to_string(),
            rows: rows.len(),
            batch: BATCH,
            checkpoint_bytes: report.bytes_restored,
            generations_written,
            batches_replayed: report.batches_replayed,
            journal_bytes_replayed: report.journal_bytes_replayed,
            restore_engine_calls: report.restore_engine_calls,
            replay_engine_calls: report.replay_engine_calls,
            recover_wall_us,
            remine_wall_us,
        });
        let _ = fs::remove_dir_all(&dir);
    }
    group.finish();

    write_bench_artifact("recover", &record);
    append_bench_history("recover", &record);
}

criterion_group!(benches, bench_bases_recover);
criterion_main!(benches);
