//! What every workload shares: the run state and metric catalogue, the
//! seeded inputs, and the timed building blocks (fused re-mines, snapshot
//! queries, checkpoint round trips) with the output checks around them.

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use rulebases::checkpoint::{write_snapshot, CheckpointedMiner};
use rulebases::{
    BasesDelta, MinedBases, PipelineKind, RuleMiner, ServedBasis, ServingSnapshot, StreamingMiner,
};
use rulebases_bench::project_top_items;
use rulebases_dataset::generator::census_like;
use rulebases_dataset::{EngineKind, MinSupport, MiningContext, Parallelism, TransactionDb};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (name, unit), reported by every workload from the
/// untraced run. `BENCHMARK.json` lists the same names.
pub const E2E: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("ingest_rows_per_s", "rows/s"),
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("publish_p50_ms", "ms"),
    ("publish_tail_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("recover_s", "s"),
    ("checkpoint_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every workload from the
/// traced run; 0 where a workload does not exercise the layer. Times are
/// totals over one traced pass unless the name says otherwise.
pub const LAYERS: [(&str, &str); 51] = [
    ("dataset.append_us", "us"),
    ("dataset.expire_us", "us"),
    ("dataset.apply_delta_us", "us"),
    ("dataset.compact_us", "us"),
    ("dataset.engine_build_ms", "ms"),
    ("dataset.engine_calls", "count"),
    ("dataset.extents", "count"),
    ("dataset.bytes_copied", "bytes"),
    ("dataset.storage_bytes", "bytes"),
    ("dataset.segments", "count"),
    ("mining.closed_ms", "ms"),
    ("mining.n_closed", "count"),
    ("mining.db_passes", "count"),
    ("lattice.insert_us", "us"),
    ("lattice.remove_us", "us"),
    ("lattice.snapshot_us", "us"),
    ("lattice.slots", "count"),
    ("lattice.live_slots", "count"),
    ("lattice.dead_slots", "count"),
    ("lattice.edges", "count"),
    ("lattice.touched", "count"),
    ("lattice.gen_candidates", "count"),
    ("lattice.gen_subsumption_checks", "count"),
    ("lattice.gen_fallbacks", "count"),
    ("stream.push_us", "us"),
    ("stream.patch_us", "us"),
    ("stream.patch_negative_batches", "count"),
    ("stream.bases_us", "us"),
    ("stream.closed_moved", "count"),
    ("stream.lux_full_moved", "count"),
    ("stream.lux_reduced_moved", "count"),
    ("stream.dg_moved", "count"),
    ("stream.dg_rebuilds", "count"),
    ("stream.lux_full_rules", "count"),
    ("fused.self_ms", "ms"),
    ("serve.ingest_us", "us"),
    ("serve.snapshot_build_us", "us"),
    ("serve.publish_self_us", "us"),
    ("serve.rules", "count"),
    ("serve.index_probes_per_query", "count"),
    ("serve.rules_scanned_per_query", "count"),
    ("serve.linear_scanned_per_query", "count"),
    ("serve.rules_fired_per_query", "count"),
    ("serve.fired_per_scanned", "ratio"),
    ("serve.snapshot_refreshes", "count"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.json_parse_ms", "ms"),
    ("checkpoint.restore_engine_calls", "count"),
    ("trace.batch_p50_delta_ms", "ms"),
    ("trace.pass_wall_delta_s", "s"),
    ("trace.spans", "count"),
];

/// Default generator seeds of the stand-ins; `--gen-seed` replaces them.
pub const T10I4_SEED: u64 = 0x7101_0400;
pub const C20D10K_SEED: u64 = 0xC20;
pub const DRIFT_SEED: u64 = 0xD21F7;

/// Every read sample whose answer is compared with the linear-scan
/// oracle, outside the timed call.
pub const CHECK_EVERY: usize = 64;

/// One benchmark run: its arguments, the tally of operations and checks,
/// the recorded metrics, and the trace.
pub struct Run {
    /// `--seed`: the shuffle of the inputs' row order (0 keeps it).
    pub seed: u64,
    /// `--gen-seed`: the generator seed, if not the stand-in's own.
    pub gen_seed: Option<u64>,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Directory for checkpoints and exported rules; removed at exit.
    pub scratch: PathBuf,
}

impl Run {
    pub fn new(
        seed: u64,
        gen_seed: Option<u64>,
        seconds: f64,
        traced: bool,
        scratch: PathBuf,
    ) -> Self {
        Run {
            seed,
            gen_seed,
            seconds,
            traced,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            scratch,
        }
    }

    /// The generator seed of a stand-in whose own seed is `default`.
    pub fn gen_seed(&self, default: u64) -> u64 {
        self.gen_seed.unwrap_or(default)
    }

    /// Shuffles the order of `rows` within each batch of `block` rows,
    /// drawn from `--seed` (0 keeps the generator's order). The result is
    /// a new input of the same difficulty: every batch holds the same
    /// rows, so every state between batches, and so the work, is the
    /// same; only the arrival order within batches differs.
    pub fn shuffle(&self, rows: &mut [Vec<u32>], block: usize) {
        if self.seed == 0 {
            return;
        }
        let mut state = self.seed;
        for chunk in rows.chunks_mut(block.max(1)) {
            for i in (1..chunk.len()).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                chunk.swap(i, j);
            }
        }
    }

    /// Counts one operation; a failed one is tallied and yields `None`.
    pub fn ok<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, pass: bool) {
        self.attempted += 1;
        if !pass {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// Counts `n` output checks of which `failed` did not pass.
    pub fn checks(&mut self, what: &str, n: u64, failed: u64) {
        self.attempted += n;
        for _ in 0..failed {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// Counts `n` operations that cannot fail (queries, mines).
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// How many times to repeat a measured step that takes about
    /// `nominal_s` (on a 2-CPU x86-64 box) to fill the run's `--seconds`:
    /// at least two. A fixed count, not a deadline, so every run of a
    /// workload measures the same work.
    pub fn repeats(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(2)
    }

    /// Records a metric from either catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if E2E.iter().any(|&(n, _)| n == name) {
            self.e2e.insert(name, value);
        } else {
            assert!(
                LAYERS.iter().any(|&(n, _)| n == name),
                "uncatalogued metric {name}"
            );
            self.layer.insert(name, value);
        }
    }

    /// Adds to a per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let now = self.layer.get(name).copied().unwrap_or(0.0);
        self.set(name, now + value);
    }

    /// Records a latency distribution as its median and its tail: the
    /// highest percentile with at least 10 samples beyond it in one pass
    /// of `per_pass` samples, so the percentile does not move with the
    /// number of passes a run fits in.
    pub fn set_latency(
        &mut self,
        what: &str,
        p50: &'static str,
        tail: &'static str,
        samples: &[f64],
        per_pass: usize,
    ) {
        let p = tail_percentile(per_pass);
        self.set(p50, median(samples));
        self.set(tail, percentile(samples, p));
        self.note(format!("{what}: {} samples, {tail} = p{p}", samples.len()));
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The thresholds every workload shares: minconf 0.5, fused pipeline,
/// default engine and thread policy.
pub fn miner(minsup: f64) -> RuleMiner {
    RuleMiner::new(MinSupport::Fraction(minsup))
        .min_confidence(0.5)
        .pipeline(PipelineKind::Fused)
}

/// C20D10K* (2,000 rows) projected onto its 16 most frequent items.
pub fn census_rows(seed: u64) -> Vec<Vec<u32>> {
    project_top_items(&census_like(2_000, 20, seed), 16)
}

pub fn rows_of(db: &TransactionDb) -> Vec<Vec<u32>> {
    db.iter()
        .map(|row| row.iter().map(|i| i.id()).collect())
        .collect()
}

/// Closed sets, Hasse edges, DG and both Luxenburger bases agree.
pub fn same_bases(a: &MinedBases, b: &MinedBases) -> bool {
    a.min_count == b.min_count
        && a.closed.clone().into_sorted_vec() == b.closed.clone().into_sorted_vec()
        && a.lattice.edges().eq(b.lattice.edges())
        && a.dg.rules() == b.dg.rules()
        && a.lux_full.rules() == b.lux_full.rules()
        && a.lux_reduced.rules() == b.lux_reduced.rules()
}

/// The context a one-shot mine runs on: default engine and threads.
pub fn context(db: &TransactionDb) -> MiningContext {
    MiningContext::with_engine_par(db.clone(), EngineKind::Auto, Parallelism::Auto)
}

/// `reps` fused mines of `db`, each on a freshly built context so no
/// mine reuses another's closure cache. Context construction is timed
/// apart from the mine.
pub struct Mines {
    pub build_s: Vec<f64>,
    pub mine_s: Vec<f64>,
    pub bases: MinedBases,
    pub ctx: MiningContext,
}

pub fn remine(run: &mut Run, miner: &RuleMiner, db: &TransactionDb, reps: usize) -> Mines {
    let (mut build_s, mut mine_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let ctx = context(db);
        build_s.push(secs(t));
        let t = Instant::now();
        let bases = miner.mine_context(&ctx);
        mine_s.push(secs(t));
        last = Some((bases, ctx));
    }
    run.ops(mine_s.len());
    let (bases, ctx) = last.expect("at least one mine");
    Mines {
        build_s,
        mine_s,
        bases,
        ctx,
    }
}

/// Rules and classes a replay or a served session moved, summed over its
/// batches.
#[derive(Default)]
pub struct Moved {
    pub closed: u64,
    pub lux_full: u64,
    pub lux_reduced: u64,
    pub dg: u64,
    pub dg_rebuilds: u64,
    pub gen_candidates: u64,
    pub gen_checks: u64,
    pub gen_fallbacks: u64,
}

impl Moved {
    pub fn absorb(&mut self, d: &BasesDelta) {
        let closed = (d.closed_added.len() + d.closed_removed.len()) as u64;
        self.closed += closed;
        self.lux_full += (d.lux_full.added.len() + d.lux_full.removed.len()) as u64;
        self.lux_reduced += (d.lux_reduced.added.len() + d.lux_reduced.removed.len()) as u64;
        self.dg += (d.dg.added.len() + d.dg.removed.len()) as u64;
        // The session recomputes the DG premises exactly when the
        // iceberg family moved.
        self.dg_rebuilds += u64::from(closed > 0);
        self.gen_candidates += d.gen.candidates;
        self.gen_checks += d.gen.subsumption_checks;
        self.gen_fallbacks += d.gen.transversal_fallbacks;
    }

    pub fn report(&self, run: &mut Run) {
        run.set("stream.closed_moved", self.closed as f64);
        run.set("stream.lux_full_moved", self.lux_full as f64);
        run.set("stream.lux_reduced_moved", self.lux_reduced as f64);
        run.set("stream.dg_moved", self.dg as f64);
        run.set("stream.dg_rebuilds", self.dg_rebuilds as f64);
        run.set("lattice.gen_candidates", self.gen_candidates as f64);
        run.set("lattice.gen_subsumption_checks", self.gen_checks as f64);
        run.set("lattice.gen_fallbacks", self.gen_fallbacks as f64);
    }
}

/// Reads against one snapshot: latencies plus the index's work counts.
#[derive(Default)]
pub struct Queries {
    pub lat_us: Vec<f64>,
    /// Reader busy time, oracle checks excluded.
    pub wall_s: f64,
    pub probes: u64,
    pub scanned: u64,
    pub fired: u64,
    pub linear_scanned: u64,
    pub linear_checks: u64,
    pub refreshes: u64,
}

impl Queries {
    pub fn absorb(&mut self, other: Queries) {
        self.lat_us.extend(other.lat_us);
        self.wall_s += other.wall_s;
        self.probes += other.probes;
        self.scanned += other.scanned;
        self.fired += other.fired;
        self.linear_scanned += other.linear_scanned;
        self.linear_checks += other.linear_checks;
        self.refreshes += other.refreshes;
    }

    /// The end-to-end read metrics and the per-query index counts.
    pub fn report(&self, run: &mut Run, n_rules: usize) {
        let n = self.lat_us.len().max(1) as f64;
        run.set("query_p50_us", median(&self.lat_us));
        run.set("query_p99_us", percentile(&self.lat_us, 99.0));
        run.set("queries_per_s", self.lat_us.len() as f64 / self.wall_s);
        run.note(format!("queries: {} samples", self.lat_us.len()));
        run.set("serve.rules", n_rules as f64);
        run.set("serve.index_probes_per_query", self.probes as f64 / n);
        run.set("serve.rules_scanned_per_query", self.scanned as f64 / n);
        run.set("serve.rules_fired_per_query", self.fired as f64 / n);
        run.set(
            "serve.linear_scanned_per_query",
            self.linear_scanned as f64 / self.linear_checks.max(1) as f64,
        );
        run.set(
            "serve.fired_per_scanned",
            self.fired as f64 / self.scanned.max(1) as f64,
        );
        run.set("serve.snapshot_refreshes", self.refreshes as f64);
    }
}

/// Compares one indexed answer with the linear-scan oracle on `snap`.
pub fn check_against_linear(
    run: &mut Run,
    q: &mut Queries,
    snap: &ServingSnapshot,
    basket: &[u32],
    fired: &[u32],
) {
    let (linear, scanned) = snap.match_basket_linear(basket);
    q.linear_scanned += scanned;
    q.linear_checks += 1;
    run.check("indexed match equals the linear scan", linear == fired);
}

/// Matches every basket against `snap` on this thread, adding to `q`;
/// every `CHECK_EVERY`-th read overall is checked against the oracle.
pub fn query_into(run: &mut Run, q: &mut Queries, snap: &ServingSnapshot, baskets: &[Vec<u32>]) {
    for basket in baskets {
        let t = Instant::now();
        let (fired, cost) = snap.match_basket_counted(basket);
        let dt = secs(t);
        if q.lat_us.len().is_multiple_of(CHECK_EVERY) {
            check_against_linear(run, q, snap, basket, &fired);
        }
        q.lat_us.push(dt * 1e6);
        q.wall_s += dt;
        q.probes += cost.index_probes;
        q.scanned += cost.rules_scanned;
        q.fired += cost.rules_fired;
    }
    run.ops(baskets.len());
}

/// Checkpoint → recover round trips.
#[derive(Default)]
pub struct RoundTrips {
    pub write_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Materializing the recovered session plus building its serving
    /// snapshot: what publishing the recovered state costs.
    pub publish_ms: Vec<f64>,
    pub bytes: u64,
    pub restore_engine_calls: u64,
}

impl RoundTrips {
    /// Persists `session` with `write_snapshot` into a fresh directory
    /// and recovers it. The recovered session must equal `reference` and
    /// restore with zero engine calls; it is then published, and the
    /// snapshot returned. When the run is traced, the payload is also
    /// parsed on its own with the JSON parser.
    pub fn once(
        &mut self,
        run: &mut Run,
        session: &StreamingMiner,
        reference: &MinedBases,
    ) -> Option<ServingSnapshot> {
        let dir = run.scratch.join("checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let written = write_snapshot(session, &dir);
        let write_ms = secs(t) * 1e3;
        let path = run.ok("write_snapshot", written)?;
        self.write_ms.push(write_ms);
        self.bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        if run.traced {
            if let Some(ms) = parse_payload(run, &path) {
                self.parse_ms.push(ms);
            }
        }
        let t = Instant::now();
        let recovered = CheckpointedMiner::recover(&dir);
        let recover_s = secs(t);
        let (mut miner, report) = run.ok("recover", recovered)?;
        self.recover_s.push(recover_s);
        self.restore_engine_calls += report.restore_engine_calls;
        run.check(
            "recover restores with 0 engine calls",
            report.restore_engine_calls == 0,
        );
        let epoch = miner.session().epoch();
        let t = Instant::now();
        let snap = ServingSnapshot::from_bases(miner.bases(), ServedBasis::Compact, epoch);
        self.publish_ms.push(secs(t) * 1e3);
        let same = same_bases(miner.bases(), reference);
        run.check("recovered bases equal the pre-crash session's", same);
        drop(miner);
        let _ = std::fs::remove_dir_all(&dir);
        Some(snap)
    }

    /// The durability end-to-end metrics and the checkpoint layer's.
    pub fn report(&self, run: &mut Run) {
        run.set("recover_s", median(&self.recover_s));
        run.set("checkpoint_bytes", self.bytes as f64);
        run.set("checkpoint.write_ms", median(&self.write_ms));
        run.set("checkpoint.json_parse_ms", median(&self.parse_ms));
        run.set(
            "checkpoint.restore_engine_calls",
            self.restore_engine_calls as f64,
        );
    }
}

/// Parses a checkpoint's JSON payload (the text after its header line)
/// with the JSON parser alone; returns the parse time in ms.
fn parse_payload(run: &mut Run, path: &std::path::Path) -> Option<f64> {
    let bytes = run.ok("read checkpoint", std::fs::read(path))?;
    let body = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(&bytes[..], |i| &bytes[i + 1..]);
    let text = run.ok("checkpoint payload is UTF-8", std::str::from_utf8(body))?;
    let t = Instant::now();
    let parsed = serde_json::parse(text);
    let ms = secs(t) * 1e3;
    run.ok("parse checkpoint payload", parsed)?;
    Some(ms)
}

/// The standalone closed-set mine the fused pipeline wraps, on a fresh
/// context of the same engine kind: sets `mining.*` and `fused.self_ms`.
pub fn closed_only(run: &mut Run, db: &TransactionDb, minsup: f64, fused_mine_s: f64) {
    use rulebases_mining::{Close, ClosedMiner};
    let ctx = context(db);
    let t = Instant::now();
    let closed = Close::new()
        .parallelism(Parallelism::Auto)
        .mine_closed(&ctx, MinSupport::Fraction(minsup));
    let closed_ms = secs(t) * 1e3;
    run.ops(1);
    run.set("mining.closed_ms", closed_ms);
    run.set("mining.n_closed", closed.len() as f64);
    run.set("mining.db_passes", closed.stats.db_passes as f64);
    run.set("fused.self_ms", fused_mine_s * 1e3 - closed_ms);
}

/// This process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
