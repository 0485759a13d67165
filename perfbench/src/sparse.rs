//! `mine-sparse`: the paper's one-shot mining of sparse baskets.
//!
//! T10I4D100K* (100,000 rows) at minsup 0.01 through `EngineKind::Auto`
//! and `Parallelism::Auto`, the fused pipeline. Fused mines, each on a
//! freshly built context (`mine_s`), take most of the run.
//!
//! Sampling blocks before, between and after the mines take the short
//! measurements in rotating small steps: building a context (`setup_s`),
//! loading the rows into an empty delta-maintained context in 1,000-row
//! appends (`ingest_*`, `batch_*`: the dataset layer's delta path at
//! scale), and, because at these thresholds the bases hold the closed
//! sets and no rules, the one-shot meanings of the serving metrics:
//! `publish_*` encodes the closed-set family as JSON, `checkpoint_bytes`
//! is its size on disk, `recover_s` reads and parses it back, and
//! `query_*` derives which item pairs of a row are frequent from the
//! closed sets alone (`ClosedItemsets::support`).

use crate::common::{
    closed_only, context, miner, remine, rows_of, same_bases, secs, Queries, Run, CHECK_EVERY,
    T10I4_SEED,
};
use crate::stats::{median, percentile, tail_percentile, window_mean};
use rulebases::MinedBases;
use rulebases_dataset::engine::TxDelta;
use rulebases_dataset::generator::QuestConfig;
use rulebases_dataset::{EngineKind, Itemset, MiningContext, Parallelism, Support, TransactionDb};
use rulebases_mining::ClosedItemsets;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 100_000;
const MINSUP: f64 = 0.01;
const INGEST_BATCH: usize = 1_000;
/// About how long one mine takes on a 2-CPU x86-64 box; the seconds the
/// sampling blocks leave go to as many mines as fit, at least three: the
/// sharded mine varies most from run to run, and the median of three
/// shrugs off one slow mine.
const MINE_S: f64 = 7.0;
/// Seconds of short measurements, split evenly over the blocks around
/// the mines.
const SAMPLE_S: f64 = 16.0;
/// Seconds per window of a sampling block; see `Short::typical`.
const WINDOW_S: f64 = 0.5;
/// Seconds per step of a sampling block.
const SLICE_S: f64 = 0.01;

pub fn mine_sparse(run: &mut Run) {
    let seed = run.gen_seed(T10I4_SEED);
    let mut rows = rows_of(&QuestConfig::t10i4(ROWS, seed).generate());
    run.shuffle(&mut rows, INGEST_BATCH);
    let db = TransactionDb::from_rows(rows.clone());
    run.note(format!(
        "input: T10I4D100K* {ROWS} rows, {} items (seed {seed:#x}), minsup {MINSUP}",
        db.n_items()
    ));
    let miner = miner(MINSUP);

    let t = Instant::now();
    let oracle_ctx = MiningContext::with_engine(db.clone(), EngineKind::Dense);
    let oracle = miner.mine_context(&oracle_ctx);
    run.ops(1);
    run.note(format!(
        "dense-engine oracle: context and fused mine in {:.3} s",
        secs(t)
    ));
    let path = run.scratch.join("closed.json");
    let t = Instant::now();
    let encoded = serde_json::to_string(&oracle.closed);
    let written = encoded.map_err(|e| e.to_string()).and_then(|text| {
        std::fs::write(&path, &text)
            .map(|()| text)
            .map_err(|e| e.to_string())
    });
    let write_ms = secs(t) * 1e3;
    let json = run.ok("write closed sets", written).unwrap_or_default();

    // The short measurements are spread over the whole run, one block
    // before each mine and one after the last: the box's speed shifts
    // between states that last seconds, and one block of them taken
    // before the mines saw a different mix of states on every run.
    let mut short = Short {
        rows: &rows,
        db: &db,
        path,
        oracle: &oracle,
        oracle_ctx: &oracle_ctx,
        expected: oracle.closed.clone().into_sorted_vec(),
        ingest: Vec::new(),
        build_s: Vec::new(),
        publish_ms: Vec::new(),
        restore_s: Vec::new(),
        parse_ms: Vec::new(),
        queries: Queries::default(),
        step: 0,
        windows: Vec::new(),
    };
    let mut mines = Vec::new();
    let n_mines = (((run.seconds - SAMPLE_S) / MINE_S).round() as usize).max(3);
    let slot = SAMPLE_S / (n_mines + 1) as f64;
    for _ in 0..n_mines {
        short.block(run, slot);
        let round = remine(run, &miner, &db, 1);
        short.build_s.extend(round.build_s.iter().copied());
        run.check(
            "fused bases equal a fused mine through the dense engine",
            same_bases(&round.bases, &oracle),
        );
        mines.push(round);
    }
    short.block(run, slot);
    let last = mines.last().expect("at least three mines");
    let b = &last.bases;
    run.note(format!(
        "backend: {} ({}); {} mines; bases: |FC| {}, DG {}, Lux reduced {}, Lux full {} rules",
        last.ctx.resolved_kind(),
        last.ctx.engine_name(),
        mines.len(),
        b.n_closed_nonempty(),
        b.dg.len(),
        b.luxenburger_reduced_rules().len(),
        b.lux_full.len()
    ));
    let mine_s: Vec<f64> = mines.iter().flat_map(|m| m.mine_s.clone()).collect();
    let load_s = |loads: &[Vec<f64>]| -> Vec<f64> {
        loads.iter().map(|b| b.iter().sum::<f64>() / 1e3).collect()
    };
    let batch_ms: Vec<f64> = short.ingest.concat();
    let batch_p = tail_percentile(short.ingest[0].len());
    let publish_p = tail_percentile(short.publish_ms.len());
    run.note(format!(
        "{} windows of {WINDOW_S} s; samples: {} loads of {} batches (batch_tail_ms = p{batch_p}), \
         {} publishes (publish_tail_ms = p{publish_p}), {} recovers",
        short.windows.len(),
        short.ingest.len(),
        short.ingest[0].len(),
        short.publish_ms.len(),
        short.restore_s.len()
    ));

    run.set("setup_s", median(&short.build_s));
    run.set("mine_s", median(&mine_s));
    let load_p50 = short.typical(&short.ingest, 3, |l| median(&load_s(l)));
    run.set("ingest_rows_per_s", ROWS as f64 / load_p50);
    let batch = |l: &[Vec<f64>], p: f64| percentile(&l.concat(), p);
    run.set(
        "batch_p50_ms",
        short.typical(&short.ingest, 3, |l| batch(l, 50.0)),
    );
    run.set(
        "batch_tail_ms",
        short.typical(&short.ingest, 3, |l| batch(l, batch_p)),
    );
    run.set(
        "publish_p50_ms",
        short.typical(&short.publish_ms, 0, median),
    );
    let publish_tail = short.typical(&short.publish_ms, 0, |s| percentile(s, publish_p));
    run.set("publish_tail_ms", publish_tail);
    short.queries.report(run, 0);
    run.set(
        "query_p50_us",
        short.typical(&short.queries.lat_us, 2, median),
    );
    let query_p99 = short.typical(&short.queries.lat_us, 2, |s| percentile(s, 99.0));
    run.set("query_p99_us", query_p99);
    run.set("recover_s", short.typical(&short.restore_s, 1, median));
    run.set("checkpoint_bytes", json.len() as f64);

    if !run.traced {
        return;
    }
    let t = Instant::now();
    let traced = load(run, &rows, true);
    run.set("trace.pass_wall_delta_s", secs(t) - load_p50);
    run.set(
        "trace.batch_p50_delta_ms",
        median(&traced.batch_ms) - median(&batch_ms),
    );
    run.set("dataset.append_us", run.tracer.total_us("dataset.append"));
    run.set(
        "dataset.apply_delta_us",
        run.tracer.total_us("dataset.apply_delta"),
    );
    let delta_stats = traced.ctx.closure_cache_stats();
    run.set("dataset.bytes_copied", delta_stats.bytes_copied as f64);
    run.set("dataset.storage_bytes", traced.db.storage_bytes() as f64);
    run.set("dataset.segments", traced.db.n_segments() as f64);
    run.set("dataset.engine_build_ms", median(&short.build_s) * 1e3);
    let mine_stats = last.ctx.closure_cache_stats();
    run.set("dataset.engine_calls", mine_stats.engine_calls() as f64);
    run.set("dataset.extents", mine_stats.extents as f64);
    closed_only(run, &db, MINSUP, median(&mine_s));
    let lattice = &last.bases.lattice;
    run.set("lattice.slots", lattice.n_nodes() as f64);
    run.set("lattice.live_slots", lattice.n_nodes() as f64);
    run.set("lattice.edges", lattice.n_edges() as f64);
    run.set("stream.lux_full_rules", last.bases.lux_full.len() as f64);
    run.set("checkpoint.write_ms", write_ms);
    run.set("checkpoint.json_parse_ms", median(&short.parse_ms));
}

/// The short measurements of `mine-sparse`, taken in rotating small
/// steps for `SAMPLE_S` seconds over the run.
///
/// At these thresholds the sparse bases hold no rules, so what a user
/// publishes, persists and reads back is the closed-set family itself.
struct Short<'a> {
    rows: &'a [Vec<u32>],
    db: &'a TransactionDb,
    /// The closed sets as written once to disk.
    path: PathBuf,
    oracle: &'a MinedBases,
    oracle_ctx: &'a MiningContext,
    expected: Vec<(Itemset, Support)>,
    ingest: Vec<Vec<f64>>,
    build_s: Vec<f64>,
    publish_ms: Vec<f64>,
    restore_s: Vec<f64>,
    parse_ms: Vec<f64>,
    queries: Queries,
    step: usize,
    /// Where each window of the blocks starts in `publish_ms`,
    /// `restore_s`, `queries.lat_us` and `ingest`.
    windows: Vec<[usize; 4]>,
}

impl Short<'_> {
    /// Rotates through the steps for `seconds` in slices of about
    /// `SLICE_S` each, so every step gets a like share of the block's
    /// time, and marks a window every `WINDOW_S`.
    fn block(&mut self, run: &mut Run, seconds: f64) {
        let block = Instant::now();
        let mut window = block;
        self.mark();
        while secs(block) < seconds {
            if secs(window) >= WINDOW_S {
                window = Instant::now();
                self.mark();
            }
            let slice = Instant::now();
            while secs(slice) < SLICE_S {
                match self.step % 5 {
                    0 => self.load(run),
                    1 => {
                        let t = Instant::now();
                        let ctx = context(self.db);
                        self.build_s.push(secs(t));
                        drop(ctx);
                    }
                    2 => {
                        let t = Instant::now();
                        let encoded = serde_json::to_string(&self.oracle.closed);
                        self.publish_ms.push(secs(t) * 1e3);
                        run.ok("encode closed sets", encoded);
                    }
                    3 => self.restore(run),
                    _ => self.query(run),
                }
            }
            self.step += 1;
        }
    }

    fn mark(&mut self) {
        let at = [
            self.publish_ms.len(),
            self.restore_s.len(),
            self.queries.lat_us.len(),
            self.ingest.len(),
        ];
        self.windows.push(at);
    }

    /// The run's value of `stat` over a step's samples: the mean over
    /// the windows of `stat` on each window's samples (see
    /// `window_mean`). `k` picks the samples' column in `windows`.
    fn typical<T>(&self, samples: &[T], k: usize, stat: impl Fn(&[T]) -> f64) -> f64 {
        window_mean(samples, self.windows.iter().map(|w| w[k]), stat)
    }

    fn load(&mut self, run: &mut Run) {
        let loaded = load(run, self.rows, false);
        run.check(
            "the delta-loaded context holds every row",
            loaded.ctx.n_objects() == ROWS && loaded.db.n_transactions() == ROWS,
        );
        self.ingest.push(loaded.batch_ms);
    }

    fn restore(&mut self, run: &mut Run) {
        let t = Instant::now();
        let text = std::fs::read_to_string(&self.path);
        let parse_start = Instant::now();
        let restored = text.map_err(|e| e.to_string()).and_then(|text| {
            serde_json::from_str::<ClosedItemsets>(&text).map_err(|e| e.to_string())
        });
        self.parse_ms.push(secs(parse_start) * 1e3);
        self.restore_s.push(secs(t));
        if let Some(closed) = run.ok("read closed sets back", restored) {
            run.check(
                "closed sets read back unchanged",
                closed.into_sorted_vec() == self.expected,
            );
        }
    }

    /// One read: which item pairs of a row are frequent, and their
    /// supports, derived from the closed sets alone (the support of a
    /// pattern is that of its smallest closed superset); every
    /// `CHECK_EVERY`-th is checked against the dense engine.
    fn query(&mut self, run: &mut Run) {
        let q = &mut self.queries;
        let row = &self.rows[q.lat_us.len() % ROWS];
        let pairs: Vec<Itemset> = row
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| row[i + 1..].iter().map(move |&b| Itemset::from_ids([a, b])))
            .collect();
        let t = Instant::now();
        let supports: Vec<Option<Support>> = pairs
            .iter()
            .map(|p| self.oracle.closed.support(p))
            .collect();
        let dt = secs(t);
        if q.lat_us.len().is_multiple_of(CHECK_EVERY) {
            let min_count = self.oracle.min_count;
            let truth: Vec<Option<Support>> = pairs
                .iter()
                .map(|p| Some(self.oracle_ctx.support(p)).filter(|&s| s >= min_count))
                .collect();
            run.check(
                "pair supports derived from the closed sets equal the dense engine's",
                supports == truth,
            );
        }
        q.lat_us.push(dt * 1e6);
        q.wall_s += dt;
        run.ops(1);
    }
}

/// The rows loaded into an initially empty context in `INGEST_BATCH`-row
/// appends, each absorbed by the engine through `apply_delta`.
struct Loaded {
    batch_ms: Vec<f64>,
    db: Arc<TransactionDb>,
    ctx: MiningContext,
}

fn load(run: &mut Run, rows: &[Vec<u32>], traced: bool) -> Loaded {
    let mut db = Arc::new(TransactionDb::from_rows(Vec::new()));
    let mut ctx =
        MiningContext::with_engine_arc_par(Arc::clone(&db), EngineKind::Auto, Parallelism::Auto);
    let mut batch_ms = Vec::new();
    for (b, chunk) in rows.chunks(INGEST_BATCH).enumerate() {
        let batch = chunk.to_vec();
        let start = Instant::now();
        let mut grown = TransactionDb::clone(&db);
        let appended = grown.append_rows(batch);
        let mid = Instant::now();
        let Some(info) = run.ok("append_rows", appended) else {
            continue;
        };
        let grown = Arc::new(grown);
        let applied = ctx.apply_delta(&TxDelta::new(Arc::clone(&grown), info));
        let end = Instant::now();
        run.ok("apply_delta", applied);
        db = grown;
        batch_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        if traced {
            let op = b as u64;
            let batch = run.tracer.record("dataset.ingest", op, None, start, end);
            run.tracer
                .record("dataset.append", op, Some(batch), start, mid);
            run.tracer
                .record("dataset.apply_delta", op, Some(batch), mid, end);
        }
    }
    Loaded { batch_ms, db, ctx }
}
