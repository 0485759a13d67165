//! Crash-safe streaming sessions: checkpoint, journal, and recovery.
//!
//! The incremental stack keeps the bases live without re-mining — but
//! only in memory. This module makes a [`StreamingMiner`] session
//! *durable*: [`CheckpointedMiner`] wraps a session in an on-disk
//! directory holding periodic full checkpoints plus an append-only
//! journal of the batches pushed (and window changes made) since the
//! last one, and
//! [`CheckpointedMiner::recover`] rebuilds the exact pre-crash session
//! from the newest valid checkpoint + the journaled tail — with **zero**
//! support-engine calls: restore builds no engine (it installs the
//! persisted lattice and derives the bases from it), and journal records
//! replay through the normal [`StreamingMiner::push_batch`] delta path,
//! which holds no engine either.
//!
//! # On-disk format
//!
//! A checkpoint directory holds two *generations* (the current one and
//! its predecessor, kept as the fallback):
//!
//! ```text
//! checkpoint-000007.ckpt   # full session snapshot, generation 7
//! journal-000007.log       # records journaled since checkpoint 7
//! checkpoint-000006.ckpt   # previous generation (fallback)
//! journal-000006.log       # its tail — folded into checkpoint 7,
//!                          # kept so a corrupt checkpoint 7 can be
//!                          # reconstructed as checkpoint 6 + journal 6
//! ```
//!
//! **Checkpoint file** — one ASCII header line, then the payload:
//!
//! ```text
//! rulebases-ckpt v2 len=<payload bytes> fnv=<16-hex FNV-1a 64>\n
//! <payload: the session's serde wire form, rendered as JSON>
//! ```
//!
//! The `v2` payload holds only what cannot be derived: six config fields
//! (the `engine` as configured), the rows (`db`), the `lattice` with its
//! tombstones and generator tags, the `window` and its TTL ledger
//! (`batch_sizes`). Restore derives the bases from the lattice the way
//! a seeded session does, and builds no engine.
//! `v1` also carried the base maps; it is a
//! [`RecoveryError::VersionMismatch`] now.
//!
//! The header carries the format version, the exact payload length,
//! and the payload's [FNV-1a 64](rulebases_dataset::checksum) digest;
//! restore validates all three before a single byte is deserialized, so
//! a torn or bit-flipped checkpoint is rejected as a typed
//! [`RecoveryError`], never a panic and never a half-restored session.
//! Checkpoint writes go write-to-temp → flush-and-sync → atomic rename,
//! so the named file is either the complete old generation or the
//! complete new one.
//!
//! **Journal file** — one framed record per pushed batch (`b1`) or
//! window change (`w1`):
//!
//! ```text
//! b1 <payload bytes> <16-hex FNV-1a 64> <payload: JSON rows>\n
//! w1 <payload bytes> <16-hex FNV-1a 64> <payload: JSON window policy>\n
//! ```
//!
//! Records are appended and flushed after the in-memory change succeeds;
//! the JSON renderer never emits a raw newline, so the `\n` terminator
//! frames records unambiguously. Replay applies them in order, so a
//! checkpoint is always its predecessor plus the predecessor's journal,
//! whatever the records held. On replay, the first record that is
//! torn (no terminator), fails its checksum, or mis-states its length
//! ends the replay: everything before it is restored exactly, and the
//! [`RecoveryReport`] names the lost suffix (file and byte offset).
//!
//! A clean recovery — the restored checkpoint is the newest generation
//! of any file in the directory, and nothing was lost — writes nothing:
//! it resumes the generation it restored, so later pushes append to that
//! generation's journal and the [`CheckpointPolicy`] counts from the
//! replayed tail, folding on the schedule of a session that never
//! crashed. Any other recovery folds the recovered session into a fresh
//! generation past every file present and retires only the generations
//! older than the one it restored: when it fell back past a rejected
//! checkpoint, the restored generation and its journals stay behind as
//! the fallback until the next fold, so a corrupt fresh checkpoint still
//! recovers.
//!
//! # Recovery invariant
//!
//! For *any* crash point — including a truncation at every byte
//! boundary of the newest checkpoint or journal — recovery either
//! reproduces the exact pre-crash session (database, lattice incl.
//! tombstoned slot ids, generator tags, window state, and the maintained
//! bases derived from them), or reports the lost suffix in a typed,
//! non-panicking way.
//! This is property-tested in `tests/recovery.rs` across engine
//! backends × batch schedules × window policies, with the fault
//! injection done by [`FaultFs`].

use crate::miner::{MinedBases, RuleMiner};
use crate::stream::{BasesDelta, StreamingMiner, Window};
use rulebases_dataset::checksum::fnv1a64;
use rulebases_dataset::{DatasetError, TransactionDb};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Checkpoint-file magic + version, the first tokens of the header line.
const MAGIC: &str = "rulebases-ckpt";
/// Current checkpoint format version.
const VERSION: u32 = 2;
/// A header longer than this is corrupt by definition (the real header
/// is well under 64 bytes); bounds the newline scan on garbage files.
const MAX_HEADER: usize = 128;

/// When a [`CheckpointedMiner`] folds its journal into a fresh
/// checkpoint: after every `every_batches` journaled batches, or once
/// the journal exceeds `every_journal_bytes` — whichever comes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Fold after this many journaled batches (0 folds on every push).
    pub every_batches: usize,
    /// Fold once the journal holds at least this many bytes.
    pub every_journal_bytes: u64,
}

impl Default for CheckpointPolicy {
    /// Every 32 batches or 4 MiB of journal, whichever comes first.
    fn default() -> Self {
        CheckpointPolicy {
            every_batches: 32,
            every_journal_bytes: 4 << 20,
        }
    }
}

impl CheckpointPolicy {
    /// Whether a journal at `batches`/`bytes` is due for folding.
    fn due(&self, batches: usize, bytes: u64) -> bool {
        batches > self.every_batches.saturating_sub(1) || bytes >= self.every_journal_bytes
    }
}

/// Fault-injection plan for checkpoint writes, plus standalone file
/// mutators — the test harness behind the crash-safety properties. A
/// default plan injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultFs {
    truncate: Option<u64>,
    flip: Option<(u64, u8)>,
    drop_rename: bool,
}

impl FaultFs {
    /// A plan that injects no faults.
    pub fn new() -> Self {
        FaultFs::default()
    }

    /// Truncate the written bytes to `offset` (simulates a torn write).
    pub fn truncate_at(mut self, offset: u64) -> Self {
        self.truncate = Some(offset);
        self
    }

    /// Flip bit `bit` of byte `byte` (simulates media corruption).
    pub fn flip_bit(mut self, byte: u64, bit: u8) -> Self {
        self.flip = Some((byte, bit));
        self
    }

    /// Skip the final atomic rename: the temp file is left behind and
    /// the named checkpoint never appears (simulates a crash between
    /// flush and rename).
    pub fn drop_rename(mut self) -> Self {
        self.drop_rename = true;
        self
    }

    /// Whether this plan injects nothing.
    pub fn is_clean(&self) -> bool {
        self.truncate.is_none() && self.flip.is_none() && !self.drop_rename
    }

    /// Applies the byte-level faults to an in-memory buffer.
    fn corrupt(&self, bytes: &mut Vec<u8>) {
        if let Some((byte, bit)) = self.flip {
            let i = byte as usize;
            if i < bytes.len() {
                bytes[i] ^= 1 << (bit & 7);
            }
        }
        if let Some(at) = self.truncate {
            bytes.truncate(at as usize);
        }
    }

    /// Applies the byte-level faults (truncation, bit flip) to an
    /// existing file in place — the post-hoc form the byte-boundary
    /// sweep tests use on files written cleanly.
    pub fn apply_to(&self, path: &Path) -> io::Result<()> {
        let mut bytes = fs::read(path)?;
        self.corrupt(&mut bytes);
        fs::write(path, bytes)
    }
}

/// Why a checkpointed push or an explicit checkpoint failed. The
/// in-memory session is intact; on an I/O failure the just-pushed batch
/// may not have reached the journal (durability, not correctness, is
/// what was lost — the caller should retry the checkpoint or treat the
/// batch as unacknowledged).
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying [`StreamingMiner::push_batch`] rejected the batch.
    Stream(DatasetError),
    /// A filesystem operation failed.
    Io {
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
    /// The session state could not be rendered to its wire form.
    Encode(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Stream(e) => write!(f, "push rejected: {e}"),
            CheckpointError::Io { path, error } => {
                write!(f, "checkpoint i/o on {}: {error}", path.display())
            }
            CheckpointError::Encode(e) => write!(f, "checkpoint encoding: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Stream(e) => Some(e),
            CheckpointError::Io { error, .. } => Some(error),
            CheckpointError::Encode(_) => None,
        }
    }
}

impl From<DatasetError> for CheckpointError {
    fn from(e: DatasetError) -> Self {
        CheckpointError::Stream(e)
    }
}

/// Why recovery failed outright (no session could be rebuilt). Partial
/// loss — a valid checkpoint restored but a torn journal tail — is
/// *not* an error: it is a successful recovery whose
/// [`RecoveryReport::lost`] names the suffix.
#[derive(Debug)]
pub enum RecoveryError {
    /// The directory holds no checkpoint file at all, or every
    /// checkpoint present was rejected (each rejection listed).
    NoCheckpoint {
        /// The directory scanned.
        dir: PathBuf,
        /// Why each candidate checkpoint was rejected, newest first.
        rejected: Vec<String>,
    },
    /// A filesystem operation failed.
    Io {
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
    /// The header line is missing, malformed, or carries trailing bytes
    /// beyond the declared payload.
    CorruptHeader {
        /// The offending checkpoint file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The checkpoint was written by an unknown format version.
    VersionMismatch {
        /// The offending checkpoint file.
        path: PathBuf,
        /// The version the header declares.
        found: u32,
    },
    /// The payload is shorter than the header's declared length — the
    /// classic torn write.
    TruncatedPayload {
        /// The offending checkpoint file.
        path: PathBuf,
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The payload's FNV-1a digest does not match the header.
    ChecksumMismatch {
        /// The offending checkpoint file.
        path: PathBuf,
        /// The digest the header promised.
        expected: u64,
        /// The digest of the bytes present.
        found: u64,
    },
    /// The payload passed the frame checks but failed to deserialize
    /// (the detail carries the byte/line position from the JSON layer)
    /// or described an internally inconsistent session.
    CorruptPayload {
        /// The offending checkpoint file.
        path: PathBuf,
        /// The deserializer's positional error or the consistency check
        /// that failed.
        detail: String,
    },
    /// A journaled batch failed to replay through the normal push path.
    Replay {
        /// The journal file being replayed.
        path: PathBuf,
        /// Zero-based index of the failing record within the file.
        record: usize,
        /// The push error.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoCheckpoint { dir, rejected } => {
                write!(f, "no usable checkpoint in {}", dir.display())?;
                for r in rejected {
                    write!(f, "; {r}")?;
                }
                Ok(())
            }
            RecoveryError::Io { path, error } => {
                write!(f, "recovery i/o on {}: {error}", path.display())
            }
            RecoveryError::CorruptHeader { path, detail } => {
                write!(f, "{}: corrupt header: {detail}", path.display())
            }
            RecoveryError::VersionMismatch { path, found } => write!(
                f,
                "{}: format version {found}, this build reads v{VERSION}",
                path.display()
            ),
            RecoveryError::TruncatedPayload {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: payload truncated: header promises {expected} bytes, {found} present",
                path.display()
            ),
            RecoveryError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: checksum mismatch: header {expected:016x}, payload {found:016x}",
                path.display()
            ),
            RecoveryError::CorruptPayload { path, detail } => {
                write!(f, "{}: corrupt payload: {detail}", path.display())
            }
            RecoveryError::Replay {
                path,
                record,
                detail,
            } => write!(
                f,
                "{}: record {record} failed to replay: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// The journal suffix a recovery could not reproduce: everything in
/// `path` at or beyond `valid_bytes` (and any later generation files).
#[derive(Clone, Debug)]
pub struct LostSuffix {
    /// The file whose tail was lost.
    pub path: PathBuf,
    /// Bytes of the file that replayed cleanly; the loss starts here.
    pub valid_bytes: u64,
    /// Why the suffix could not be replayed.
    pub detail: String,
}

impl fmt::Display for LostSuffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lost suffix of {} beyond byte {}: {}",
            self.path.display(),
            self.valid_bytes,
            self.detail
        )
    }
}

/// What [`CheckpointedMiner::recover`] did: which checkpoint it
/// restored, how much journal it replayed, how much support-engine work
/// the whole recovery cost (none: no engine is built), and what — if
/// anything — was lost.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The checkpoint file restored.
    pub checkpoint: PathBuf,
    /// Its generation number.
    pub checkpoint_seq: u64,
    /// Payload bytes the checkpoint restore deserialized.
    pub bytes_restored: u64,
    /// Journaled batches replayed on top of the checkpoint.
    pub batches_replayed: usize,
    /// Rows those batches carried.
    pub rows_replayed: usize,
    /// Journal bytes consumed by the replay.
    pub journal_bytes_replayed: u64,
    /// Support-engine calls during the checkpoint restore: 0 by
    /// construction, since restore builds no engine (the invariant the
    /// recover bench pins exactly).
    pub restore_engine_calls: u64,
    /// Support-engine calls during the journal replay: 0 by
    /// construction, since a streaming session holds no engine.
    pub replay_engine_calls: u64,
    /// Newer checkpoints that were present but rejected, newest first
    /// (each with its typed rejection rendered).
    pub skipped: Vec<String>,
    /// The journal suffix that could not be reproduced, if any.
    pub lost: Option<LostSuffix>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restored {} ({} bytes), replayed {} batches ({} rows, {} journal bytes), \
             {} engine calls during restore, {} during replay",
            self.checkpoint.display(),
            self.bytes_restored,
            self.batches_replayed,
            self.rows_replayed,
            self.journal_bytes_replayed,
            self.restore_engine_calls,
            self.replay_engine_calls,
        )?;
        for s in &self.skipped {
            write!(f, "\nskipped: {s}")?;
        }
        if let Some(lost) = &self.lost {
            write!(f, "\n{lost}")?;
        }
        Ok(())
    }
}

/// A [`StreamingMiner`] session made durable: every push journals its
/// batch, a [`CheckpointPolicy`] periodically folds the journal into a
/// fresh full checkpoint, and [`CheckpointedMiner::recover`] rebuilds
/// the session after a crash. Built with [`RuleMiner::checkpointing`];
/// see the [module docs](self) for the on-disk format and the recovery
/// invariant.
#[derive(Debug)]
pub struct CheckpointedMiner {
    inner: StreamingMiner,
    dir: PathBuf,
    policy: CheckpointPolicy,
    /// Current generation: the newest committed checkpoint's sequence.
    seq: u64,
    /// Batches appended to the current journal since the last fold.
    journal_batches: usize,
    /// Bytes appended to the current journal since the last fold.
    journal_bytes: u64,
}

impl CheckpointedMiner {
    /// Opens a durable session in `dir`: if the directory already holds
    /// a checkpoint, the session is [recovered](CheckpointedMiner::recover)
    /// from disk and `seed` is **ignored** (the report says what was
    /// restored; a clean recovery resumes the restored generation, so
    /// reopening a directory rewrites nothing); otherwise the directory
    /// is created, a session is seeded from `seed`, and its initial
    /// checkpoint is written before this returns — a crash at any later
    /// point can recover at least the seed.
    pub fn open(
        config: &RuleMiner,
        seed: TransactionDb,
        dir: impl Into<PathBuf>,
    ) -> Result<(Self, Option<RecoveryReport>), RecoveryError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|error| RecoveryError::Io {
            path: dir.clone(),
            error,
        })?;
        let (checkpoints, _) = scan_dir(&dir)?;
        if !checkpoints.is_empty() {
            let (miner, report) = Self::recover(&dir)?;
            return Ok((miner, Some(report)));
        }
        let mut miner = CheckpointedMiner {
            inner: config.streaming(seed),
            dir,
            policy: CheckpointPolicy::default(),
            seq: 0,
            journal_batches: 0,
            journal_bytes: 0,
        };
        miner
            .checkpoint_now()
            .map_err(|e| checkpoint_to_recovery(e, &miner.dir))?;
        Ok((miner, None))
    }

    /// Rebuilds the session persisted in `dir`: restores the newest
    /// valid checkpoint (falling back generation by generation, each
    /// rejection recorded) and replays the journaled tail through the
    /// normal push path. When the restored checkpoint is the newest
    /// generation of any file in `dir` and nothing was lost, the
    /// directory already is the session: the miner resumes that
    /// generation (its [`generation`](CheckpointedMiner::generation) is
    /// [`RecoveryReport::checkpoint_seq`], its journal counters start
    /// from the replayed tail) and nothing is written, renamed or
    /// deleted. Otherwise the recovered state is folded into a fresh
    /// checkpoint past every file present, so later pushes never append
    /// beyond a rejected file or a lost suffix. The restore itself
    /// performs zero support-engine calls; replayed batches pay only
    /// their normal delta cost. Never panics on a
    /// corrupt directory — every failure mode is a typed
    /// [`RecoveryError`], and a torn journal tail is reported as
    /// [`RecoveryReport::lost`], not an error.
    pub fn recover(dir: impl Into<PathBuf>) -> Result<(Self, RecoveryReport), RecoveryError> {
        let dir = dir.into();
        let (checkpoints, journals) = scan_dir(&dir)?;
        let mut rejected: Vec<String> = Vec::new();
        let mut restored: Option<(u64, PathBuf, u64, StreamingMiner)> = None;
        for (&seq, path) in checkpoints.iter().rev() {
            match load_checkpoint(path) {
                Ok((session, payload_len)) => {
                    restored = Some((seq, path.clone(), payload_len, session));
                    break;
                }
                Err(e) => rejected.push(e.to_string()),
            }
        }
        let Some((seq, checkpoint, bytes_restored, mut session)) = restored else {
            return Err(RecoveryError::NoCheckpoint { dir, rejected });
        };

        // Replay the journaled tail: generation `seq` first, then — when
        // a newer (rejected) generation left its journal behind — each
        // successor in order. A gap or a torn record ends the replay;
        // everything beyond it is the lost suffix.
        let mut report = RecoveryReport {
            checkpoint,
            checkpoint_seq: seq,
            bytes_restored,
            batches_replayed: 0,
            rows_replayed: 0,
            journal_bytes_replayed: 0,
            restore_engine_calls: 0,
            replay_engine_calls: 0,
            skipped: rejected,
            lost: None,
        };
        let newest_journal = journals.keys().copied().max();
        let mut j = seq;
        while let Some(max) = newest_journal.filter(|&m| j <= m) {
            match journals.get(&j) {
                None => {
                    report.lost = Some(LostSuffix {
                        path: journal_path(&dir, j),
                        valid_bytes: 0,
                        detail: format!(
                            "journal generation {j} is missing but generation {max} exists"
                        ),
                    });
                    break;
                }
                Some(path) => {
                    replay_journal(path, &mut session, &mut report)?;
                    if report.lost.is_some() {
                        break;
                    }
                }
            }
            j += 1;
        }

        // A clean restore (the newest generation on disk, nothing lost)
        // resumes that generation as it stands. Otherwise fold the
        // recovered state into a fresh generation past every file
        // present (valid or not): pushes after a recovery must never
        // append beyond a lost suffix. Generations from the restored one
        // on stay as the fallback; the next fold retires them.
        let newest = checkpoints
            .keys()
            .chain(journals.keys())
            .copied()
            .max()
            .unwrap_or(seq);
        let mut miner = CheckpointedMiner {
            inner: session,
            dir,
            policy: CheckpointPolicy::default(),
            seq: newest,
            journal_batches: report.batches_replayed,
            journal_bytes: report.journal_bytes_replayed,
        };
        if newest != seq || report.lost.is_some() {
            miner
                .fold(&FaultFs::default(), seq)
                .map_err(|e| checkpoint_to_recovery(e, &miner.dir))?;
        }
        Ok((miner, report))
    }

    /// Replaces the fold policy (builder-style; default
    /// [`CheckpointPolicy::default`]).
    pub fn policy(mut self, policy: CheckpointPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the session's retention policy and journals the change as
    /// its own record, flushed before this returns: recovery replays it
    /// in order with the batches around it, whichever checkpoint it
    /// restores.
    pub fn set_window(&mut self, window: Window) -> Result<(), CheckpointError> {
        let record = encode_record("w1", &window)?;
        self.inner.set_window(window);
        self.journal(&record)
    }

    /// Pushes one batch through the wrapped session, journals it (the
    /// record is flushed before this returns — a batch is durable once
    /// acknowledged), and folds the journal into a fresh checkpoint
    /// when the [`CheckpointPolicy`] says it is due.
    pub fn push_batch(&mut self, rows: Vec<Vec<u32>>) -> Result<BasesDelta, CheckpointError> {
        if rows.is_empty() {
            // An empty batch is a session-level no-op; nothing to journal.
            return Ok(self.inner.push_batch(rows)?);
        }
        let record = encode_record("b1", &rows)?;
        let delta = self.inner.push_batch(rows)?;
        self.journal(&record)?;
        self.journal_batches += 1;
        if self.policy.due(self.journal_batches, self.journal_bytes) {
            self.checkpoint_now()?;
        }
        Ok(delta)
    }

    /// Appends one framed record to the current journal and flushes it;
    /// a journal this append creates (a resumed generation that had
    /// none) also gets its directory entry synced.
    fn journal(&mut self, record: &[u8]) -> Result<(), CheckpointError> {
        let path = journal_path(&self.dir, self.seq);
        let created = !path.exists();
        append_synced(&path, record).map_err(|error| CheckpointError::Io { path, error })?;
        if created {
            sync_dir(&self.dir);
        }
        self.journal_bytes += record.len() as u64;
        Ok(())
    }

    /// Folds the current state into a fresh checkpoint generation now,
    /// regardless of policy: write-to-temp → flush → atomic rename,
    /// then a new empty journal, then retirement of generations older
    /// than the previous one. Returns the new checkpoint's path.
    pub fn checkpoint_now(&mut self) -> Result<PathBuf, CheckpointError> {
        self.checkpoint_with(&FaultFs::default())
    }

    /// [`CheckpointedMiner::checkpoint_now`] with fault injection — the
    /// test hook behind the crash-safety properties. A non-clean plan
    /// leaves the generation bookkeeping untouched (the write is
    /// presumed lost), so tests can corrupt a write and then recover
    /// exactly as a crashed process would.
    pub fn checkpoint_with(&mut self, faults: &FaultFs) -> Result<PathBuf, CheckpointError> {
        self.fold(faults, self.seq)
    }

    /// Writes generation `seq + 1` and, when the write committed, creates
    /// its empty journal (file and directory entry synced) and retires
    /// every generation older than `keep_from`.
    fn fold(&mut self, faults: &FaultFs, keep_from: u64) -> Result<PathBuf, CheckpointError> {
        let next = self.seq + 1;
        let path = write_generation(&self.dir, next, &self.inner, faults)?;
        if faults.is_clean() {
            let journal = journal_path(&self.dir, next);
            write_synced(&journal, b"").map_err(|error| CheckpointError::Io {
                path: journal,
                error,
            })?;
            sync_dir(&self.dir);
            self.seq = next;
            self.journal_batches = 0;
            self.journal_bytes = 0;
            retire_generations(&self.dir, keep_from);
        }
        Ok(path)
    }

    /// The wrapped live session.
    pub fn session(&self) -> &StreamingMiner {
        &self.inner
    }

    /// The current bases (delegates to [`StreamingMiner::bases`]).
    pub fn bases(&mut self) -> &MinedBases {
        self.inner.bases()
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current checkpoint generation number.
    pub fn generation(&self) -> u64 {
        self.seq
    }

    /// Batches journaled since the last fold (a clean recovery counts
    /// the ones it replayed from the generation it resumed).
    pub fn journal_batches(&self) -> usize {
        self.journal_batches
    }

    /// Bytes journaled since the last fold (a clean recovery counts the
    /// ones it replayed from the generation it resumed).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }
}

/// Writes a one-off checkpoint of `session` into `dir` as a fresh
/// generation (past whatever the directory already holds), with the
/// standard temp-write → flush → rename discipline. The
/// [`crate::serve::RuleServer`] checkpoint hook: a serving session can
/// be snapshotted without wrapping its writer in a
/// [`CheckpointedMiner`].
pub fn write_snapshot(
    session: &StreamingMiner,
    dir: impl Into<PathBuf>,
) -> Result<PathBuf, CheckpointError> {
    let dir = dir.into();
    fs::create_dir_all(&dir).map_err(|error| CheckpointError::Io {
        path: dir.clone(),
        error,
    })?;
    let (checkpoints, journals) = scan_dir(&dir).map_err(|e| match e {
        RecoveryError::Io { path, error } => CheckpointError::Io { path, error },
        other => CheckpointError::Encode(other.to_string()),
    })?;
    let next = checkpoints
        .keys()
        .chain(journals.keys())
        .copied()
        .max()
        .unwrap_or(0)
        + 1;
    write_generation(&dir, next, session, &FaultFs::default())
}

/// Writes `session` as checkpoint generation `seq` of `dir` — the one
/// write path of every checkpoint: frame the payload (header line +
/// JSON), apply `faults`, write a temp file → sync → atomic rename →
/// directory sync. A dropped rename leaves the temp file and returns it.
fn write_generation(
    dir: &Path,
    seq: u64,
    session: &StreamingMiner,
    faults: &FaultFs,
) -> Result<PathBuf, CheckpointError> {
    let payload = serde_json::to_string(&session.to_wire())
        .map_err(|e| CheckpointError::Encode(e.to_string()))?;
    let digest = fnv1a64(payload.as_bytes());
    let mut bytes = format!(
        "{MAGIC} v{VERSION} len={} fnv={digest:016x}\n",
        payload.len()
    )
    .into_bytes();
    bytes.extend_from_slice(payload.as_bytes());
    faults.corrupt(&mut bytes);
    let path = checkpoint_path(dir, seq);
    let tmp = path.with_extension("ckpt.tmp");
    write_synced(&tmp, &bytes).map_err(|error| CheckpointError::Io {
        path: tmp.clone(),
        error,
    })?;
    if faults.drop_rename {
        return Ok(tmp);
    }
    fs::rename(&tmp, &path).map_err(|error| CheckpointError::Io {
        path: path.clone(),
        error,
    })?;
    sync_dir(dir);
    Ok(path)
}

/// Maps a fold failure inside the recovery path onto the recovery error
/// vocabulary.
fn checkpoint_to_recovery(e: CheckpointError, dir: &Path) -> RecoveryError {
    match e {
        CheckpointError::Io { path, error } => RecoveryError::Io { path, error },
        other => RecoveryError::CorruptPayload {
            path: dir.to_path_buf(),
            detail: other.to_string(),
        },
    }
}

/// `checkpoint-<seq>.ckpt` inside `dir` (zero-padded so lexicographic
/// and numeric order agree for the first million generations).
fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:06}.ckpt"))
}

/// `journal-<seq>.log` inside `dir`.
fn journal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:06}.log"))
}

/// Parses `prefix-<digits>.<ext>` back to its sequence number.
fn parse_seq(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(ext)?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// All checkpoint and journal files in `dir`, keyed by generation.
/// Temp files (`*.tmp`) and anything else are ignored — a dropped
/// rename leaves only a temp file, which recovery must not read.
#[allow(clippy::type_complexity)]
fn scan_dir(dir: &Path) -> Result<(BTreeMap<u64, PathBuf>, BTreeMap<u64, PathBuf>), RecoveryError> {
    let mut checkpoints = BTreeMap::new();
    let mut journals = BTreeMap::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((checkpoints, journals)),
        Err(error) => {
            return Err(RecoveryError::Io {
                path: dir.to_path_buf(),
                error,
            })
        }
    };
    for entry in entries {
        let entry = entry.map_err(|error| RecoveryError::Io {
            path: dir.to_path_buf(),
            error,
        })?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, "checkpoint-", ".ckpt") {
            checkpoints.insert(seq, entry.path());
        } else if let Some(seq) = parse_seq(name, "journal-", ".log") {
            journals.insert(seq, entry.path());
        }
    }
    Ok((checkpoints, journals))
}

/// Deletes every generation strictly older than `keep_from` — called
/// after a successful fold with the *previous* generation (or, after an
/// unclean recovery, the restored one), so the directory retains the
/// current checkpoint and its fallback.
fn retire_generations(dir: &Path, keep_from: u64) {
    let Ok((checkpoints, journals)) = scan_dir(dir) else {
        return;
    };
    for (seq, path) in checkpoints.iter().chain(journals.iter()) {
        if *seq < keep_from {
            // Retirement is best-effort: a leftover old generation is
            // harmless (recovery prefers the newest valid one).
            let _ = fs::remove_file(path);
        }
    }
}

/// Reads and validates one checkpoint file: header shape, version,
/// declared length, checksum — then deserializes the payload and
/// restores the session from it. Returns the session and the payload
/// length.
fn load_checkpoint(path: &Path) -> Result<(StreamingMiner, u64), RecoveryError> {
    let bytes = fs::read(path).map_err(|error| RecoveryError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    let corrupt = |detail: String| RecoveryError::CorruptHeader {
        path: path.to_path_buf(),
        detail,
    };
    let nl = bytes
        .iter()
        .take(MAX_HEADER)
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("no header line".to_string()))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| corrupt("header is not ASCII".to_string()))?;
    let mut tokens = header.split(' ');
    if tokens.next() != Some(MAGIC) {
        return Err(corrupt(format!("bad magic in {header:?}")));
    }
    let version: u32 = tokens
        .next()
        .and_then(|t| t.strip_prefix('v'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| corrupt(format!("bad version in {header:?}")))?;
    if version != VERSION {
        return Err(RecoveryError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let len: u64 = tokens
        .next()
        .and_then(|t| t.strip_prefix("len="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| corrupt(format!("bad length in {header:?}")))?;
    let digest: u64 = tokens
        .next()
        .and_then(|t| t.strip_prefix("fnv="))
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| corrupt(format!("bad checksum in {header:?}")))?;
    if tokens.next().is_some() {
        return Err(corrupt(format!("trailing header tokens in {header:?}")));
    }
    let payload = &bytes[nl + 1..];
    if (payload.len() as u64) < len {
        return Err(RecoveryError::TruncatedPayload {
            path: path.to_path_buf(),
            expected: len,
            found: payload.len() as u64,
        });
    }
    if payload.len() as u64 > len {
        return Err(corrupt(format!(
            "{} payload bytes beyond the declared length",
            payload.len() as u64 - len
        )));
    }
    let found = fnv1a64(payload);
    if found != digest {
        return Err(RecoveryError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: digest,
            found,
        });
    }
    let text = std::str::from_utf8(payload).map_err(|e| RecoveryError::CorruptPayload {
        path: path.to_path_buf(),
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    let session = serde_json::from_str(text)
        .map_err(|e| e.to_string())
        .and_then(StreamingMiner::from_wire)
        .map_err(|detail| RecoveryError::CorruptPayload {
            path: path.to_path_buf(),
            detail,
        })?;
    Ok((session, len))
}

/// One decoded journal record.
enum Record {
    /// A pushed batch's rows (tag `b1`).
    Batch(Vec<Vec<u32>>),
    /// A retention-policy change (tag `w1`).
    Window(Window),
}

/// Renders one framed journal record: its `magic` tag, then `payload`
/// as JSON.
fn encode_record(magic: &str, payload: &impl Serialize) -> Result<Vec<u8>, CheckpointError> {
    let payload =
        serde_json::to_string(payload).map_err(|e| CheckpointError::Encode(e.to_string()))?;
    let digest = fnv1a64(payload.as_bytes());
    let mut bytes = format!("{magic} {} {digest:016x} ", payload.len()).into_bytes();
    bytes.extend_from_slice(payload.as_bytes());
    bytes.push(b'\n');
    Ok(bytes)
}

/// Replays one journal file into `session`, accounting into `report`.
/// Stops at the first torn or corrupt record, recording the lost suffix
/// (everything from that record's first byte onward).
fn replay_journal(
    path: &Path,
    session: &mut StreamingMiner,
    report: &mut RecoveryReport,
) -> Result<(), RecoveryError> {
    let bytes = fs::read(path).map_err(|error| RecoveryError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    let mut offset = 0usize;
    let mut record = 0usize;
    while offset < bytes.len() {
        let lose = |detail: String| LostSuffix {
            path: path.to_path_buf(),
            valid_bytes: offset as u64,
            detail,
        };
        let Some(end) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            report.lost = Some(lose("torn record (no terminator)".to_string()));
            return Ok(());
        };
        match decode_record(&bytes[offset..offset + end]) {
            Ok(Record::Batch(rows)) => {
                let n_rows = rows.len();
                session
                    .push_batch(rows)
                    .map_err(|e| RecoveryError::Replay {
                        path: path.to_path_buf(),
                        record,
                        detail: e.to_string(),
                    })?;
                report.batches_replayed += 1;
                report.rows_replayed += n_rows;
            }
            Ok(Record::Window(window)) => session.set_window(window),
            Err(detail) => {
                report.lost = Some(lose(format!("record {record}: {detail}")));
                return Ok(());
            }
        }
        report.journal_bytes_replayed += (end + 1) as u64;
        offset += end + 1;
        record += 1;
    }
    Ok(())
}

/// Parses one journal record line (without its terminator) back into
/// its batch rows or window policy, validating magic, length, and
/// checksum.
fn decode_record(line: &[u8]) -> Result<Record, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut parts = text.splitn(4, ' ');
    let window = match parts.next() {
        Some("b1") => false,
        Some("w1") => true,
        _ => return Err("bad record magic".to_string()),
    };
    let len: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("bad record length")?;
    let digest: u64 = parts
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or("bad record checksum")?;
    let payload = parts.next().ok_or("missing record payload")?;
    if payload.len() != len {
        return Err(format!(
            "record length mismatch: declared {len}, present {}",
            payload.len()
        ));
    }
    let found = fnv1a64(payload.as_bytes());
    if found != digest {
        return Err(format!(
            "record checksum mismatch: declared {digest:016x}, present {found:016x}"
        ));
    }
    let record = if window {
        serde_json::from_str(payload).map(Record::Window)
    } else {
        serde_json::from_str(payload).map(Record::Batch)
    };
    record.map_err(|e| e.to_string())
}

/// Writes `bytes` to `path` and flushes them to stable storage.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Appends `bytes` to `path` (creating it if needed) and flushes.
fn append_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Best-effort directory sync after a rename or a file creation, so the
/// new directory entry itself is durable on filesystems that need it
/// (fsync on the file covers its data, not its name). Failure is
/// ignored: some platforms cannot sync directories at all, and the
/// rename's atomicity does not depend on it.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}
