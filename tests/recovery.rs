//! Crash-safe session recovery: the checkpoint/journal contract.
//!
//! The contract of `RuleMiner::checkpointing`: dropping a durable
//! session at *any* point and recovering its directory rebuilds exactly
//! the pre-crash session — database, lattice (including tombstoned slot
//! ids and generator tags), window state, the TTL batch ledger, and the
//! maintained bases — over any engine backend, batch schedule, and
//! window policy, with **zero** support-engine calls during the restore.
//! A checkpoint persists the first four; restore derives the bases from
//! the restored lattice, the way a freshly seeded session does. So the
//! persisted state is asserted byte-for-byte on the session's canonical
//! wire form, and the derived state on the materialized bases and on the
//! deltas of the next push: a rebuilt base map that differs from the
//! uncrashed twin's patched one shows up in either.
//!
//! A recovery that restored the newest generation on disk and lost
//! nothing resumes that generation: it writes, renames and deletes
//! nothing, so its result is read off the live session. Any other
//! recovery folds a fresh generation past every file, and its result is
//! read off that checkpoint (`check_recovery` holds both).
//!
//! The fault half of the contract: truncating the newest checkpoint or
//! journal at *every byte boundary* (and flipping bits, and dropping
//! the atomic rename) yields either an exact restore from the fallback
//! generation or a cleanly reported lost suffix / typed error — never a
//! panic, never a silently wrong session.
//!
//! Case counts respect the `PROPTEST_CASES` environment variable so the
//! 1-CPU suite stays inside its budget.

use proptest::prelude::*;
use rulebases::checkpoint::{
    write_snapshot, CheckpointPolicy, CheckpointedMiner, FaultFs, RecoveryError, RecoveryReport,
};
use rulebases::{BasesDelta, MinedBases, RuleMiner, StreamingMiner, Window};
use rulebases_dataset::checksum::fnv1a64;
use rulebases_dataset::{EngineKind, MinSupport, TransactionDb};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The batch schedules the streaming suite pins: row-at-a-time, a ragged
/// prime, one whole 64-row bitset word, and everything at once.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

/// Deterministic correlated rows over 14 items (the streaming suite's
/// generator): enough structure that checkpoints land across splits,
/// interpositions, class deaths, and generator retags.
fn census_rows(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32)
        .map(|t| vec![t % 4, 4 + t % 3, 7 + t % 2, 9 + (t / 7) % 5])
        .collect()
}

/// A self-cleaning unique temp directory (the offline environment has no
/// tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "rulebases-recovery-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The JSON payload of a checkpoint file (everything after the header
/// line) — the session's canonical wire form.
fn read_payload(path: &Path) -> String {
    let bytes = fs::read(path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    String::from_utf8(bytes[nl + 1..].to_vec()).unwrap()
}

/// Rewrites the payload of the checkpoint at `path` to `payload`, framed
/// under the file's own header version with a correct length and
/// checksum — a well-formed file whose content only restore can judge.
fn reframe(path: &Path, payload: &str) {
    let bytes = fs::read(path).unwrap();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&bytes[..nl]).unwrap();
    let version = header.split(' ').nth(1).unwrap();
    let framed = format!(
        "rulebases-ckpt {version} len={} fnv={:016x}\n{payload}",
        payload.len(),
        fnv1a64(payload.as_bytes())
    );
    fs::write(path, framed).unwrap();
}

/// Recovers `dir`, expecting every checkpoint in it to be rejected, and
/// returns the rejections.
fn expect_no_checkpoint(dir: &Path) -> Vec<String> {
    match CheckpointedMiner::recover(dir) {
        Err(RecoveryError::NoCheckpoint { rejected, .. }) => rejected,
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
}

/// Asserts two materialized bundles hold the same bases.
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

/// Asserts two deltas of the same push report the same movement, field
/// by field.
fn assert_same_delta(a: &BasesDelta, b: &BasesDelta, label: &str) {
    assert_eq!(
        (a.epoch, a.appended, a.expired, a.n_objects, a.min_count),
        (b.epoch, b.appended, b.expired, b.n_objects, b.min_count),
        "{label}: epoch, appended, expired, n_objects, min_count"
    );
    assert_eq!(a.closed_added, b.closed_added, "{label}: closed added");
    assert_eq!(
        a.closed_removed, b.closed_removed,
        "{label}: closed removed"
    );
    for (name, x, y) in [
        ("DG", &a.dg, &b.dg),
        ("Lux full", &a.lux_full, &b.lux_full),
        ("Lux reduced", &a.lux_reduced, &b.lux_reduced),
    ] {
        assert_eq!(x.added, y.added, "{label}: {name} added");
        assert_eq!(x.removed, y.removed, "{label}: {name} removed");
        assert_eq!(x.restated, y.restated, "{label}: {name} restated");
    }
    assert_eq!(a.gen, b.gen, "{label}: generator work");
}

/// A live session's canonical wire form, via a throwaway snapshot.
fn wire_of(session: &StreamingMiner) -> String {
    let dir = TempDir::new("wire");
    let path = write_snapshot(session, dir.path()).unwrap();
    read_payload(&path)
}

/// Every file in `dir` with its bytes, sorted by path.
fn dir_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let bytes = fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

/// The newest generation any checkpoint or journal file in `files`
/// names (temp files name none).
fn newest_generation(files: &[(PathBuf, Vec<u8>)]) -> u64 {
    files
        .iter()
        .filter_map(|(path, _)| {
            let name = path.file_name()?.to_str()?;
            let seq = name
                .strip_prefix("checkpoint-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
                .or_else(|| {
                    name.strip_prefix("journal-")
                        .and_then(|rest| rest.strip_suffix(".log"))
                })?;
            seq.parse().ok()
        })
        .max()
        .unwrap_or(0)
}

/// Checks what a recovery of a directory that held `before` did to it.
/// A clean recovery — the restored checkpoint is the newest generation
/// of any file, and nothing was lost — resumes that generation and
/// leaves every file byte-identical, so the live session's wire form
/// must be `expected`. Any other recovery folds a fresh generation past
/// every file, whose payload must be `expected`.
fn check_recovery(
    before: &[(PathBuf, Vec<u8>)],
    miner: &CheckpointedMiner,
    report: &RecoveryReport,
    expected: &str,
    label: &str,
) {
    let newest = newest_generation(before);
    if report.checkpoint_seq == newest && report.lost.is_none() {
        assert!(report.skipped.is_empty(), "{label}: {:?}", report.skipped);
        assert_eq!(
            miner.generation(),
            report.checkpoint_seq,
            "{label}: a clean recovery resumes the restored generation"
        );
        let after = dir_files(miner.dir());
        assert!(
            after.as_slice() == before,
            "{label}: a clean recovery must write, rename and delete nothing: {:?} -> {:?}",
            before.iter().map(|(p, b)| (p, b.len())).collect::<Vec<_>>(),
            after.iter().map(|(p, b)| (p, b.len())).collect::<Vec<_>>(),
        );
        assert_eq!(wire_of(miner.session()), expected, "{label}");
    } else {
        assert_eq!(
            miner.generation(),
            newest + 1,
            "{label}: an unclean recovery folds a fresh generation past every file"
        );
        let folded = miner
            .dir()
            .join(format!("checkpoint-{:06}.ckpt", miner.generation()));
        assert_eq!(read_payload(&folded), expected, "{label}");
    }
}

/// Recovers `dir` and holds the result to [`check_recovery`].
fn recover_checked(dir: &Path, expected: &str, label: &str) -> (CheckpointedMiner, RecoveryReport) {
    let before = dir_files(dir);
    let (miner, report) =
        CheckpointedMiner::recover(dir).unwrap_or_else(|e| panic!("{label}: {e}"));
    check_recovery(&before, &miner, &report, expected, label);
    (miner, report)
}

// One case pushes the same schedule through a durable session and a
// plain in-memory twin per backend, crashes the durable one, and demands
// the recovered wire form be byte-identical to the twin's.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn recovered_session_is_the_pre_crash_session(
        n_rows in 4usize..40,
        batch_idx in 0usize..4,
        window_idx in 0usize..3,
        fold_every in 1usize..5,
    ) {
        let rows = census_rows(n_rows);
        let batch = BATCH_SIZES[batch_idx];
        let window = [Window::Unbounded, Window::Sliding(16), Window::Ttl(2)][window_idx];
        for kind in EngineKind::BACKENDS {
            let label = format!("{kind} / batch {batch} / {window:?} / fold {fold_every}");
            let dir = TempDir::new("prop");
            let config = RuleMiner::new(MinSupport::Count(2))
                .min_confidence(0.5)
                .engine(kind);
            let (ckpt, report) = config
                .checkpointing(TransactionDb::from_rows(vec![]), dir.path())
                .unwrap();
            prop_assert!(report.is_none(), "{}: fresh dir must not recover", label);
            let mut ckpt = ckpt.policy(CheckpointPolicy {
                every_batches: fold_every,
                every_journal_bytes: u64::MAX,
            });
            ckpt.set_window(window).unwrap();
            let mut twin = config
                .streaming(TransactionDb::from_rows(vec![]))
                .window(window);
            for chunk in rows.chunks(batch.min(rows.len())) {
                ckpt.push_batch(chunk.to_vec()).unwrap();
                twin.push_batch(chunk.to_vec()).unwrap();
            }
            let at_crash = (ckpt.generation(), ckpt.journal_batches(), ckpt.journal_bytes());
            drop(ckpt); // crash

            // Persisted-state equality, byte for byte: db, lattice incl.
            // tombstones and generator tags, window, TTL ledger. Nothing
            // was lost, so the recovery resumes the crashed generation,
            // its fold counters where the crash left them.
            let (recovered, report) = recover_checked(dir.path(), &wire_of(&twin), &label);
            prop_assert!(report.lost.is_none(), "{}: {:?}", label, report.lost);
            prop_assert_eq!(
                (recovered.generation(), recovered.journal_batches(), recovered.journal_bytes()),
                at_crash,
                "{}: the recovery resumes the crashed journal", label
            );
            prop_assert_eq!(
                report.restore_engine_calls, 0,
                "{}: restore must not query the support engine", label
            );
            prop_assert_eq!(
                report.replay_engine_calls, 0,
                "{}: replay must stay on the delta path", label
            );

            let mut recovered = recovered.policy(CheckpointPolicy {
                every_batches: fold_every,
                every_journal_bytes: u64::MAX,
            });
            // The derived state: the bases restore rebuilt from the
            // lattice equal the ones the twin patched batch by batch.
            assert_same_bases(recovered.bases(), twin.bases(), &format!("{label}: recovered"));

            // The recovered session keeps streaming identically: the
            // push moves the rebuilt maps exactly as it moves the twin's,
            // and lands in the resumed journal (or the fold it makes due).
            let extra = census_rows(n_rows + 9).split_off(n_rows);
            let d1 = recovered.push_batch(extra[..5].to_vec()).unwrap();
            let d2 = twin.push_batch(extra[..5].to_vec()).unwrap();
            assert_same_delta(&d1, &d2, &format!("{label}: post-recovery push"));
            assert_same_bases(
                recovered.bases(),
                twin.bases(),
                &format!("{label}: after post-recovery push"),
            );
            prop_assert_eq!(wire_of(recovered.session()), wire_of(&twin), "{}", label);
            drop(recovered); // a second crash, after pushing into the resumed generation

            let second = format!("{label}: second recovery");
            let (mut recovered, report) = recover_checked(dir.path(), &wire_of(&twin), &second);
            prop_assert!(report.lost.is_none(), "{}: {:?}", second, report.lost);
            assert_same_bases(recovered.bases(), twin.bases(), &second);
            let d1 = recovered.push_batch(extra[5..].to_vec()).unwrap();
            let d2 = twin.push_batch(extra[5..].to_vec()).unwrap();
            assert_same_delta(&d1, &d2, &format!("{second}: next push"));
            prop_assert_eq!(wire_of(recovered.session()), wire_of(&twin), "{}", second);
        }
    }
}

/// The two-generation fixture every fault test corrupts: seed of 6 rows
/// (checkpoint 1), two journaled batches (journal 1), an explicit fold
/// (checkpoint 2), one more journaled batch (journal 2). Returns the
/// directory, the pristine file contents, and the expected wire forms
/// after batch 2 (`mid`) and batch 3 (`full`).
#[allow(clippy::type_complexity)]
fn two_generation_fixture() -> (TempDir, Vec<(PathBuf, Vec<u8>)>, String, String) {
    let rows = census_rows(12);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let dir = TempDir::new("fault");
    let (ckpt, report) = config
        .checkpointing(TransactionDb::from_rows(rows[..6].to_vec()), dir.path())
        .unwrap();
    assert!(report.is_none());
    let mut ckpt = ckpt.policy(CheckpointPolicy {
        every_batches: usize::MAX,
        every_journal_bytes: u64::MAX,
    });
    ckpt.push_batch(rows[6..8].to_vec()).unwrap();
    ckpt.push_batch(rows[8..10].to_vec()).unwrap();
    ckpt.checkpoint_now().unwrap();
    assert_eq!(ckpt.generation(), 2);
    ckpt.push_batch(rows[10..12].to_vec()).unwrap();
    drop(ckpt); // crash

    let mut twin = config.streaming(TransactionDb::from_rows(rows[..6].to_vec()));
    twin.push_batch(rows[6..8].to_vec()).unwrap();
    twin.push_batch(rows[8..10].to_vec()).unwrap();
    let mid = wire_of(&twin);
    twin.push_batch(rows[10..12].to_vec()).unwrap();
    let full = wire_of(&twin);

    let files = fs::read_dir(dir.path())
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let bytes = fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    (dir, files, mid, full)
}

/// Rewinds the fixture directory to its pristine post-crash contents
/// (an unclean recovery folds a new generation, so every sweep
/// iteration starts from scratch).
fn reset_dir(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
    fs::remove_dir_all(dir).unwrap();
    fs::create_dir_all(dir).unwrap();
    for (path, bytes) in files {
        fs::write(path, bytes).unwrap();
    }
}

#[test]
fn truncating_the_newest_checkpoint_at_every_byte_falls_back_exactly() {
    let (dir, files, _mid, full) = two_generation_fixture();
    let ckpt2 = dir.path().join("checkpoint-000002.ckpt");
    let len = fs::read(&ckpt2).unwrap().len();
    for cut in 0..=len as u64 {
        reset_dir(dir.path(), &files);
        FaultFs::new().truncate_at(cut).apply_to(&ckpt2).unwrap();
        let (_, report) = recover_checked(dir.path(), &full, &format!("cut {cut}"));
        // Nothing is ever lost: a broken checkpoint 2 falls back to
        // checkpoint 1, whose journal still holds every folded batch.
        assert!(report.lost.is_none(), "cut {cut}: {:?}", report.lost);
        assert_eq!(report.restore_engine_calls, 0, "cut {cut}");
        if (cut as usize) < len {
            assert_eq!(report.checkpoint_seq, 1, "cut {cut}");
            assert!(!report.skipped.is_empty(), "cut {cut}: rejection recorded");
            assert_eq!(report.batches_replayed, 3, "cut {cut}");
        } else {
            assert_eq!(report.checkpoint_seq, 2, "uncut file must restore");
        }
    }
}

#[test]
fn truncating_the_newest_journal_at_every_byte_restores_or_names_the_loss() {
    let (dir, files, mid, full) = two_generation_fixture();
    let journal2 = dir.path().join("journal-000002.log");
    let len = fs::read(&journal2).unwrap().len();
    for cut in 0..=len as u64 {
        reset_dir(dir.path(), &files);
        FaultFs::new().truncate_at(cut).apply_to(&journal2).unwrap();
        let expected = if (cut as usize) < len { &mid } else { &full };
        let (recovered, report) = recover_checked(dir.path(), expected, &format!("cut {cut}"));
        assert_eq!(report.checkpoint_seq, 2, "cut {cut}");
        if cut == 0 || cut as usize == len {
            // A cleanly empty journal (the fold-time state) or the whole
            // one: nothing lost, and generation 2 resumes as it stands.
            assert!(report.lost.is_none(), "cut {cut}");
            assert_eq!(recovered.generation(), 2, "cut {cut}");
        } else {
            // A torn record: the loss names the file and the byte where
            // the valid prefix ends, and the restore is exactly that
            // prefix — never a half-applied batch — folded past the tear.
            let lost = report.lost.as_ref().unwrap_or_else(|| panic!("cut {cut}"));
            assert_eq!(lost.path, journal2, "cut {cut}");
            assert_eq!(lost.valid_bytes, 0, "cut {cut}");
            assert_eq!(recovered.generation(), 3, "cut {cut}");
        }
    }
}

#[test]
fn flipping_bits_in_the_newest_checkpoint_never_goes_unnoticed() {
    let (dir, files, _mid, full) = two_generation_fixture();
    let ckpt2 = dir.path().join("checkpoint-000002.ckpt");
    let bytes = fs::read(&ckpt2).unwrap();
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    // Every 13th byte, every bit. A payload flip must always break the
    // FNV digest (which detects every single-bit flip) and fall back to
    // checkpoint 1; a header flip either breaks the frame parse (fall
    // back) or is semantically neutral — e.g. flipping the case of a
    // hex digit in the checksum field — in which case checkpoint 2
    // restores as written. Either way the recovered state is exact.
    for byte in (0..bytes.len() as u64).step_by(13) {
        for bit in 0..8 {
            reset_dir(dir.path(), &files);
            FaultFs::new().flip_bit(byte, bit).apply_to(&ckpt2).unwrap();
            let label = format!("byte {byte} bit {bit}");
            let (_, report) = recover_checked(dir.path(), &full, &label);
            if byte >= header_len as u64 {
                assert_eq!(report.checkpoint_seq, 1, "{label}");
            }
            assert!(report.lost.is_none(), "{label}");
        }
    }
}

#[test]
fn a_dropped_rename_leaves_the_previous_generation_authoritative() {
    let rows = census_rows(10);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let dir = TempDir::new("rename");
    let (ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(rows[..6].to_vec()), dir.path())
        .unwrap();
    let mut ckpt = ckpt.policy(CheckpointPolicy {
        every_batches: usize::MAX,
        every_journal_bytes: u64::MAX,
    });
    ckpt.push_batch(rows[6..10].to_vec()).unwrap();
    let tmp = ckpt.checkpoint_with(&FaultFs::new().drop_rename()).unwrap();
    assert!(tmp.extension().unwrap().to_str().unwrap().contains("tmp"));
    assert!(!dir.path().join("checkpoint-000002.ckpt").exists());
    assert_eq!(ckpt.generation(), 1, "a dropped rename must not commit");
    drop(ckpt); // crash between flush and rename

    let mut twin = config.streaming(TransactionDb::from_rows(rows[..6].to_vec()));
    twin.push_batch(rows[6..10].to_vec()).unwrap();

    // The temp file names no generation, so generation 1 is the newest
    // and resumes, the temp file left as it was.
    let (recovered, report) = recover_checked(dir.path(), &wire_of(&twin), "dropped rename");
    assert_eq!(report.checkpoint_seq, 1);
    assert!(report.lost.is_none());
    assert_eq!(report.batches_replayed, 1);
    assert_eq!(recovered.generation(), 1);
}

#[test]
fn a_journal_gap_is_reported_as_the_lost_suffix() {
    let (dir, files, _mid, _full) = two_generation_fixture();
    reset_dir(dir.path(), &files);
    // Corrupt checkpoint 2 and remove journal 1: recovery falls back to
    // checkpoint 1, but the batches between checkpoints are gone, and
    // replaying journal 2 without them would be silently wrong — so the
    // replay stops at the gap and names it.
    FaultFs::new()
        .flip_bit(40, 3)
        .apply_to(&dir.path().join("checkpoint-000002.ckpt"))
        .unwrap();
    fs::remove_file(dir.path().join("journal-000001.log")).unwrap();
    let (_, report) = CheckpointedMiner::recover(dir.path()).unwrap();
    assert_eq!(report.checkpoint_seq, 1);
    assert_eq!(report.batches_replayed, 0);
    let lost = report.lost.expect("the gap must be reported");
    assert!(
        lost.detail.contains("generation 1 is missing"),
        "{}",
        lost.detail
    );
}

#[test]
fn an_unknown_format_version_is_skipped_with_a_typed_reason() {
    let (dir, files, _mid, full) = two_generation_fixture();
    reset_dir(dir.path(), &files);
    fs::write(
        dir.path().join("checkpoint-000003.ckpt"),
        b"rulebases-ckpt v9 len=0 fnv=0000000000000000\n",
    )
    .unwrap();
    // A v1 file — the format that also persisted the base maps — with a
    // correct length and checksum is still an unknown version.
    let payload = read_payload(&dir.path().join("checkpoint-000002.ckpt"));
    fs::write(
        dir.path().join("checkpoint-000004.ckpt"),
        format!(
            "rulebases-ckpt v1 len={} fnv={:016x}\n{payload}",
            payload.len(),
            fnv1a64(payload.as_bytes())
        ),
    )
    .unwrap();
    let (_, report) = recover_checked(dir.path(), &full, "unknown versions");
    assert_eq!(report.checkpoint_seq, 2);
    for version in ["format version 1,", "format version 9,"] {
        assert!(
            report.skipped.iter().any(|s| s.contains(version)),
            "{version} {:?}",
            report.skipped
        );
    }
    assert!(report.lost.is_none());
}

#[test]
fn a_checkpoint_payload_holds_only_what_restore_cannot_derive() {
    let (dir, _files, _mid, _full) = two_generation_fixture();
    let payload = read_payload(&dir.path().join("checkpoint-000002.ckpt"));
    let value = serde_json::parse(&payload).unwrap();
    let keys: Vec<&str> = value
        .as_object()
        .unwrap()
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "min_support",
            "min_confidence",
            "algorithm",
            "include_empty_antecedent",
            "engine",
            "parallelism",
            "db",
            "lattice",
            "window",
            "batch_sizes",
        ]
    );
}

#[test]
fn a_checkpoint_naming_a_removed_engine_is_rejected_with_a_typed_reason() {
    // A well-framed, correctly checksummed checkpoint whose session
    // names the deleted sharded backend: recovery must reject it by
    // name — a typed error, never a panic.
    let dir = TempDir::new("removed-engine");
    let config = RuleMiner::new(MinSupport::Count(2))
        .min_confidence(0.5)
        .engine(EngineKind::Dense);
    let (ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(census_rows(6)), dir.path())
        .unwrap();
    let path = dir
        .path()
        .join(format!("checkpoint-{:06}.ckpt", ckpt.generation()));
    drop(ckpt);
    let payload = read_payload(&path);
    assert!(payload.contains(r#""engine":"dense""#), "{payload}");
    reframe(
        &path,
        &payload.replace(r#""engine":"dense""#, r#""engine":"sharded:2:auto""#),
    );

    let rejected = expect_no_checkpoint(dir.path());
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(
        rejected[0].contains(r#"engine "sharded:2:auto""#)
            && rejected[0].contains("expected auto, dense, or tid-list"),
        "{}",
        rejected[0]
    );
}

#[test]
fn a_payload_nested_past_the_parser_limit_is_rejected_with_a_typed_reason() {
    // A million unclosed brackets, framed with a correct length and
    // checksum: the parser stops at its nesting limit instead of
    // recursing once per bracket.
    let dir = TempDir::new("deep");
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let (ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(census_rows(6)), dir.path())
        .unwrap();
    let path = dir
        .path()
        .join(format!("checkpoint-{:06}.ckpt", ckpt.generation()));
    drop(ckpt);
    reframe(&path, &"[".repeat(1_000_000));

    let rejected = expect_no_checkpoint(dir.path());
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(
        rejected[0].contains("recursion limit exceeded"),
        "{}",
        rejected[0]
    );
}

#[test]
fn a_fractional_min_support_outside_the_unit_interval_is_rejected() {
    // A checksum-valid payload whose threshold no session can hold, with
    // a journaled batch behind it: restore rejects it before deriving
    // anything or replaying the batch.
    let dir = TempDir::new("minsup");
    let rows = census_rows(10);
    let config = RuleMiner::new(MinSupport::Fraction(0.5)).min_confidence(0.5);
    let (mut ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(rows[..6].to_vec()), dir.path())
        .unwrap();
    ckpt.push_batch(rows[6..].to_vec()).unwrap();
    let path = dir
        .path()
        .join(format!("checkpoint-{:06}.ckpt", ckpt.generation()));
    drop(ckpt);
    let payload = read_payload(&path);
    assert!(
        payload.contains(r#""min_support":{"Fraction":0.5}"#),
        "{payload}"
    );
    reframe(
        &path,
        &payload.replace(
            r#""min_support":{"Fraction":0.5}"#,
            r#""min_support":{"Fraction":1.5}"#,
        ),
    );

    let rejected = expect_no_checkpoint(dir.path());
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(
        rejected[0].contains("min_support 1.5 outside [0, 1]"),
        "{}",
        rejected[0]
    );
}

#[test]
fn a_ttl_ledger_that_does_not_cover_the_rows_is_rejected() {
    // A Ttl(1) checkpoint whose ledger claims more rows than the db
    // holds, with a journaled batch behind it: replaying that batch
    // would expire rows that do not exist, so restore rejects the
    // ledger first.
    let dir = TempDir::new("ledger");
    let rows = census_rows(12);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let (mut ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(rows[..8].to_vec()), dir.path())
        .unwrap();
    ckpt.set_window(Window::Ttl(1)).unwrap();
    ckpt.checkpoint_now().unwrap();
    ckpt.push_batch(rows[8..].to_vec()).unwrap();
    let generation = ckpt.generation();
    drop(ckpt);
    // Keep only the Ttl generation, so nothing older can stand in for it.
    for seq in 1..generation {
        fs::remove_file(dir.path().join(format!("checkpoint-{seq:06}.ckpt"))).unwrap();
        fs::remove_file(dir.path().join(format!("journal-{seq:06}.log"))).unwrap();
    }
    let path = dir.path().join(format!("checkpoint-{generation:06}.ckpt"));
    let payload = read_payload(&path);
    assert!(payload.contains(r#""batch_sizes":[8]"#), "{payload}");
    reframe(
        &path,
        &payload.replace(r#""batch_sizes":[8]"#, r#""batch_sizes":[8,8]"#),
    );

    let rejected = expect_no_checkpoint(dir.path());
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(
        rejected[0].contains("TTL ledger of 2 batches does not account for the 8 rows held"),
        "{}",
        rejected[0]
    );
}

#[test]
fn a_lattice_whose_cover_has_more_support_is_rejected_with_a_typed_reason() {
    // A checksum-valid payload that makes `{1,2}` (support 9) the upper
    // cover of `{1}` (support 2): deriving the bases from it would build
    // a rule whose support exceeds its antecedent's, so the lattice's
    // own validation rejects the payload first.
    let dir = TempDir::new("cover");
    let config = RuleMiner::new(MinSupport::Count(1)).min_confidence(0.5);
    let (ckpt, _) = config
        .checkpointing(
            TransactionDb::from_rows(vec![vec![0, 1], vec![1, 2]]),
            dir.path(),
        )
        .unwrap();
    let path = dir
        .path()
        .join(format!("checkpoint-{:06}.ckpt", ckpt.generation()));
    drop(ckpt);
    let payload = read_payload(&path);
    assert_eq!(payload.matches("[[1,2],1]").count(), 1, "{payload}");
    reframe(&path, &payload.replacen("[[1,2],1]", "[[1,2],9]", 1));

    let rejected = expect_no_checkpoint(dir.path());
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(
        rejected[0].contains("corrupt payload")
            && rejected[0].contains("upper cover is not a strict superset"),
        "{}",
        rejected[0]
    );
}

/// The `lattice` entry of a session wire form.
fn lattice_value(wire: &str) -> serde::Value {
    let value = serde_json::parse(wire).unwrap();
    let fields = value.as_object().unwrap();
    serde::get_field(fields, "lattice").unwrap().clone()
}

/// `wire` with its `lattice` entry replaced by `lattice`.
fn with_lattice(wire: &str, lattice: &serde::Value) -> String {
    let serde::Value::Object(mut fields) = serde_json::parse(wire).unwrap() else {
        panic!("a wire form is an object");
    };
    for (key, value) in &mut fields {
        if key == "lattice" {
            *value = lattice.clone();
        }
    }
    serde_json::to_string(&serde::Value::Object(fields)).unwrap()
}

#[test]
fn a_lattice_that_does_not_hold_the_rows_is_rejected_with_a_typed_reason() {
    // An 8-row checkpoint whose lattice is spliced from another session
    // over related rows, re-framed with a correct length and checksum:
    // each splice passes the lattice's own validation, so only the check
    // against the rows stands between it and a session whose bases and
    // window expiries silently disagree with its rows.
    let rows = census_rows(8);
    let config = RuleMiner::new(MinSupport::Count(1)).min_confidence(0.5);
    let lattice_of = |rows: Vec<Vec<u32>>| {
        lattice_value(&wire_of(&config.streaming(TransactionDb::from_rows(rows))))
    };
    let twice: Vec<Vec<u32>> = rows
        .iter()
        .flat_map(|row| [row.clone(), row.clone()])
        .collect();
    let splices = [
        (
            "last 4 rows",
            lattice_of(rows[4..].to_vec()),
            "row 0 is not a closed set",
        ),
        (
            "first 4 rows",
            lattice_of(rows[..4].to_vec()),
            "row 4 is not a closed set",
        ),
        (
            "8 copies of row 0",
            lattice_of(vec![rows[0].clone(); 8]),
            "row 1 is not a closed set",
        ),
        (
            "each row twice",
            lattice_of(twice),
            "largest support 16 is not the 8 rows",
        ),
    ];
    for (label, lattice, reason) in splices {
        let dir = TempDir::new("splice");
        let (ckpt, _) = config
            .checkpointing(TransactionDb::from_rows(rows.clone()), dir.path())
            .unwrap();
        let path = dir
            .path()
            .join(format!("checkpoint-{:06}.ckpt", ckpt.generation()));
        drop(ckpt);
        let payload = read_payload(&path);
        let spliced = with_lattice(&payload, &lattice);
        assert_ne!(spliced, payload, "{label}");
        reframe(&path, &spliced);

        let rejected = expect_no_checkpoint(dir.path());
        assert_eq!(rejected.len(), 1, "{label}: {rejected:?}");
        assert!(
            rejected[0].contains("corrupt payload") && rejected[0].contains(reason),
            "{label}: {}",
            rejected[0]
        );
    }
}

#[test]
fn a_checkpoint_whose_lattice_names_a_maintenance_mode_still_restores() {
    // Checkpoints written before the lattice kept a single generator
    // maintenance carry `"gen_mode":"Local"` in their lattice: restore
    // ignores it, and the session re-renders 19 bytes shorter.
    let dir = TempDir::new("gen-mode");
    let rows = census_rows(12);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let (mut ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(rows[..8].to_vec()), dir.path())
        .unwrap();
    ckpt.push_batch(rows[8..].to_vec()).unwrap();
    let mut twin = config.streaming(TransactionDb::from_rows(rows[..8].to_vec()));
    twin.push_batch(rows[8..].to_vec()).unwrap();
    let path = dir
        .path()
        .join(format!("checkpoint-{:06}.ckpt", ckpt.generation()));
    drop(ckpt);
    let payload = read_payload(&path);
    assert_eq!(payload.matches(r#","stats":{"#).count(), 1, "{payload}");
    let old = payload.replacen(r#","stats":{"#, r#","gen_mode":"Local","stats":{"#, 1);
    assert_eq!(old.len(), payload.len() + 19);
    reframe(&path, &old);

    let (mut miner, report) = CheckpointedMiner::recover(dir.path()).unwrap();
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert_eq!(wire_of(miner.session()), wire_of(&twin));
    assert_same_bases(miner.bases(), twin.bases(), "gen_mode");
}

/// Flips one payload bit of checkpoint generation `seq` in `dir`, which
/// the checksum always catches.
fn corrupt_checkpoint(dir: &Path, seq: u64) {
    let path = dir.join(format!("checkpoint-{seq:06}.ckpt"));
    let header = fs::read(&path)
        .unwrap()
        .iter()
        .position(|&b| b == b'\n')
        .unwrap();
    FaultFs::new()
        .flip_bit(header as u64 + 8, 2)
        .apply_to(&path)
        .unwrap();
}

#[test]
fn a_window_change_survives_a_fallback_past_the_checkpoint_after_it() {
    // The window change is journaled between two batches. Rejecting the
    // newest checkpoint falls back to the one before the change, and
    // the journal replays the change in order with the batches.
    let rows = census_rows(14);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let dir = TempDir::new("window-fallback");
    let (ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(rows[..8].to_vec()), dir.path())
        .unwrap();
    let mut ckpt = ckpt.policy(CheckpointPolicy {
        every_batches: usize::MAX,
        every_journal_bytes: u64::MAX,
    });
    ckpt.push_batch(rows[8..10].to_vec()).unwrap();
    ckpt.checkpoint_now().unwrap();
    ckpt.set_window(Window::Ttl(1)).unwrap();
    ckpt.push_batch(rows[10..14].to_vec()).unwrap();
    let newest = ckpt.generation();
    drop(ckpt); // crash

    let mut twin = config.streaming(TransactionDb::from_rows(rows[..8].to_vec()));
    twin.push_batch(rows[8..10].to_vec()).unwrap();
    twin.set_window(Window::Ttl(1));
    twin.push_batch(rows[10..14].to_vec()).unwrap();
    assert_eq!(twin.n_objects(), 4);

    corrupt_checkpoint(dir.path(), newest);
    let (recovered, report) = recover_checked(dir.path(), &wire_of(&twin), "window fallback");
    assert_eq!(report.skipped.len(), 1, "{:?}", report.skipped);
    assert!(report.lost.is_none(), "{:?}", report.lost);
    assert_eq!(recovered.session().window_config(), Window::Ttl(1));
}

#[test]
fn a_recovery_past_a_rejected_checkpoint_keeps_the_restored_one_as_fallback() {
    // Checkpoint 2 is rejected, so recovery restores checkpoint 1 and
    // replays journals 1 and 2 into a fresh checkpoint. When that one
    // is corrupt too, checkpoint 1 and journals 1-3 must still be there
    // to restore the same session.
    let (dir, _files, _mid, full) = two_generation_fixture();
    corrupt_checkpoint(dir.path(), 2);
    let (recovered, report) = recover_checked(dir.path(), &full, "first fallback");
    assert_eq!(report.checkpoint_seq, 1);
    let fresh = recovered.generation();
    drop(recovered); // crash

    corrupt_checkpoint(dir.path(), fresh);
    let (_, report) = recover_checked(dir.path(), &full, "second fallback");
    assert_eq!(report.checkpoint_seq, 1);
    assert_eq!(report.skipped.len(), 2, "{:?}", report.skipped);
    assert!(report.lost.is_none(), "{:?}", report.lost);
}

#[test]
fn recovering_an_empty_directory_is_a_typed_error() {
    let dir = TempDir::new("empty");
    fs::create_dir_all(dir.path()).unwrap();
    match CheckpointedMiner::recover(dir.path()) {
        Err(RecoveryError::NoCheckpoint { .. }) => {}
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }
    // A directory with a journal but no checkpoint is just as dead.
    fs::write(dir.path().join("journal-000001.log"), b"").unwrap();
    assert!(matches!(
        CheckpointedMiner::recover(dir.path()),
        Err(RecoveryError::NoCheckpoint { .. })
    ));
}

#[test]
fn open_resumes_an_existing_directory_and_ignores_the_seed() {
    let rows = census_rows(12);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let dir = TempDir::new("resume");
    let (mut ckpt, _) = config
        .checkpointing(TransactionDb::from_rows(rows[..6].to_vec()), dir.path())
        .unwrap();
    ckpt.push_batch(rows[6..9].to_vec()).unwrap();
    drop(ckpt);

    let mut twin = config.streaming(TransactionDb::from_rows(rows[..6].to_vec()));
    twin.push_batch(rows[6..9].to_vec()).unwrap();

    // Re-opening with a different (wrong) seed must recover, not reseed
    // — and, the directory being clean, resume its generation.
    let before = dir_files(dir.path());
    let (reopened, report) = config
        .checkpointing(TransactionDb::from_rows(rows[9..12].to_vec()), dir.path())
        .unwrap();
    let report = report.expect("an existing directory must recover");
    assert!(report.lost.is_none());
    assert_eq!(report.restore_engine_calls, 0);
    check_recovery(&before, &reopened, &report, &wire_of(&twin), "reopen");
    assert_eq!(reopened.generation(), 1);
}

#[test]
fn a_serving_session_snapshots_into_the_same_format() {
    let rows = census_rows(10);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let server = config.serving(TransactionDb::from_rows(rows.clone()));
    let dir = TempDir::new("serve");
    let path = server.checkpoint(dir.path()).unwrap();
    assert_eq!(read_payload(&path), wire_of(server.miner()));
    let (_, report) = recover_checked(dir.path(), &wire_of(server.miner()), "serving");
    assert!(report.lost.is_none());
    assert_eq!(report.restore_engine_calls, 0);
}

#[test]
fn a_snapshot_directory_resumes_and_journals_into_its_own_generation() {
    // A `write_snapshot` directory holds checkpoint 1 and no journal.
    // Recovering it resumes generation 1; the first push creates
    // journal 1, and a second crash replays both pushes from it.
    let rows = census_rows(14);
    let config = RuleMiner::new(MinSupport::Count(2)).min_confidence(0.5);
    let mut twin = config.streaming(TransactionDb::from_rows(rows[..8].to_vec()));
    let dir = TempDir::new("snapshot-resume");
    write_snapshot(&twin, dir.path()).unwrap();
    let journal = dir.path().join("journal-000001.log");

    let (mut recovered, report) = recover_checked(dir.path(), &wire_of(&twin), "snapshot");
    assert_eq!(report.checkpoint_seq, 1);
    assert_eq!(report.batches_replayed, 0);
    assert!(!journal.exists(), "a clean recovery creates no journal");
    for (i, chunk) in [&rows[8..11], &rows[11..14]].into_iter().enumerate() {
        let d1 = recovered.push_batch(chunk.to_vec()).unwrap();
        let d2 = twin.push_batch(chunk.to_vec()).unwrap();
        assert_same_delta(&d1, &d2, &format!("push {i} after the resume"));
    }
    assert_eq!(
        (recovered.generation(), recovered.journal_batches()),
        (1, 2)
    );
    assert_eq!(
        recovered.journal_bytes(),
        fs::metadata(&journal).unwrap().len()
    );
    drop(recovered); // crash

    let (mut recovered, report) = recover_checked(dir.path(), &wire_of(&twin), "second crash");
    assert_eq!(report.checkpoint_seq, 1);
    assert!(report.lost.is_none(), "{:?}", report.lost);
    assert_eq!(report.batches_replayed, 2);
    assert_eq!(
        report.journal_bytes_replayed,
        fs::metadata(&journal).unwrap().len()
    );
    assert_same_bases(recovered.bases(), twin.bases(), "second crash");
    let extra = census_rows(17).split_off(14);
    let d1 = recovered.push_batch(extra.clone()).unwrap();
    let d2 = twin.push_batch(extra).unwrap();
    assert_same_delta(&d1, &d2, "push after the second crash");
}
