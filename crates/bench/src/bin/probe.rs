//! `probe` — calibration helper: count frequent/closed itemsets for one
//! `(dataset, minsup)` cell with the closed miner only (Close never
//! materializes the exponential frequent set, so it is safe to run even
//! where Apriori would explode).
//!
//! ```bash
//! probe MUSHROOMS 0.5 [test|default|full] [--frequent] \
//!     [--engine auto|dense|tid-list] \
//!     [--pipeline staged|fused] \
//!     [--stream [--batch <n>] [--window <n>] \
//!         [--checkpoint-dir <d> [--crash-after <k>]]] \
//!     [--serve [--readers <n>]]
//! ```
//!
//! Without `--engine` / `--pipeline`, the backend and pipeline come from
//! the `RULEBASES_ENGINE` / `RULEBASES_PIPELINE` environment variables
//! (defaults `auto` and `staged`). With `--pipeline fused`, the cell runs
//! the full fused bases pipeline instead of the bare closed miner and
//! reports the lattice/bases shape, the engine-call tally and the threads
//! the mine spawned (levels fan out only when their work pays). With
//! `--stream`, the dataset is *replayed* in `--batch`-row appends (default
//! 64) through `RuleMiner::streaming`, reporting per-replay movement
//! totals and the engine calls the whole replay cost next to what one
//! fused re-mine of the final context pays. The streaming session
//! maintains the **unthresholded** closure system (so the threshold can
//! rescale per batch), whose size is governed by the item universe — the
//! replay therefore projects the dataset onto its `--stream-items` most
//! frequent items first (default 16), the usual bounded-vocabulary
//! serving setup. `--window <n>` additionally bounds the session to a
//! sliding window of the newest `n` rows: the out-of-window prefix
//! expires through the delta machinery in reverse, so both the lattice
//! *and* the retained storage stay sized by the window instead of the
//! stream — the mode to probe long or drifting replays with. Either way
//! the replay reports the generator work the maintenance spent
//! (extension candidates, subsumption checks, transversal fallbacks —
//! the last identically zero on these paths).
//!
//! With `--checkpoint-dir <d>`, the streaming replay runs *durably*
//! through `RuleMiner::checkpointing`: every batch is journaled into the
//! directory and periodically folded into a full checkpoint. Adding
//! `--crash-after <k>` drops the live session after `k` batches —
//! simulating a crash — then recovers the directory and finishes the
//! replay on the recovered session, printing the recovery report
//! (checkpoint restored, bytes, batches replayed, and the engine-call
//! tally: the restore itself performs 0 engine calls during restore)
//! and whether it `resumed generation <n>` (the newest generation
//! restored cleanly, nothing written) or `folded into generation <n>`
//! (a rejected file or a lost suffix). Reopening a directory that
//! already holds a session prints the same two lines.
//!
//! Besides the paper stand-ins, the dataset name `DRIFT` selects the
//! `drifting_census` generator (item popularity rotates per block), the
//! windowed-streaming workload.
//!
//! With `--serve`, the same projected replay drives a `RuleServer`
//! instead: the first half of the rows seed the server, the rest arrive
//! as the writer's append batches while `--readers` (default 2) reader
//! threads replay the dataset's own rows as baskets — a smoke of the
//! whole concurrent serving path (epoch-swapped snapshots, antecedent
//! index, wait-free reads) with the serving counters and p50/p99 query
//! latencies printed at the end.
//!
//! The positionals default to `MUSHROOMS 0.5 test`. A dataset name that
//! matches no stand-in, a minsup that is not a fraction in `[0, 1]`, an
//! unknown scale, an unknown option or a malformed option value exits
//! with status 2 and the usage line — never a silent default.

use rulebases::checkpoint::{CheckpointedMiner, RecoveryReport};
use rulebases::{PipelineKind, RuleMiner, RuleReader, Window};
use rulebases_bench::{
    drifting_census, engine_from_env, pipeline_from_env, project_top_items, Scale, StandIn,
};
use rulebases_dataset::pool::{fan_out, threads_spawned};
use rulebases_dataset::{EngineKind, MinSupport, MiningContext, TransactionDb};
use rulebases_mining::{Apriori, Close, ClosedMiner};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Printed, with exit status 2, under any malformed invocation.
const USAGE: &str = "usage: probe [<dataset> [<minsup> [test|default|full]]] [--frequent] \
[--engine auto|dense|tid-list] [--pipeline staged|fused] \
[--stream [--batch <n>] [--stream-items <n>] [--window <n>] \
[--checkpoint-dir <d> [--crash-after <k>]]] [--serve [--readers <n>]]";

/// The rows a probe mines: a paper stand-in, or the drifting census
/// stream (`DRIFT`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dataset {
    StandIn(StandIn),
    Drift,
}

/// A parsed command line; see the module docs for what each field does.
#[derive(Debug, PartialEq)]
struct Args {
    dataset: Dataset,
    minsup: f64,
    scale: Scale,
    with_frequent: bool,
    engine: Option<EngineKind>,
    pipeline: Option<PipelineKind>,
    stream: bool,
    serve: bool,
    readers: usize,
    batch: usize,
    stream_items: usize,
    window: usize,
    checkpoint_dir: Option<PathBuf>,
    crash_after: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            dataset: Dataset::StandIn(StandIn::Mushrooms),
            minsup: 0.5,
            scale: Scale::Test,
            with_frequent: false,
            engine: None,
            pipeline: None,
            stream: false,
            serve: false,
            readers: 2,
            batch: 64,
            stream_items: 16,
            window: 0,
            checkpoint_dir: None,
            crash_after: None,
        }
    }
}

/// Parses the command line (program name excluded). Every malformed
/// piece is an error naming it.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut positional = Vec::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let mut value = || {
            rest.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--frequent" => args.with_frequent = true,
            "--stream" => args.stream = true,
            "--serve" => args.serve = true,
            "--readers" => args.readers = positive(arg, value()?)?,
            "--batch" => args.batch = positive(arg, value()?)?,
            "--window" => args.window = positive(arg, value()?)?,
            "--stream-items" => args.stream_items = positive(arg, value()?)?,
            "--checkpoint-dir" => args.checkpoint_dir = Some(value()?.into()),
            "--crash-after" => args.crash_after = Some(parse_value(arg, value()?)?),
            "--engine" => args.engine = Some(parse_value(arg, value()?)?),
            "--pipeline" => args.pipeline = Some(parse_value(arg, value()?)?),
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => positional.push(other),
        }
    }
    let mut positional = positional.into_iter();
    if let Some(name) = positional.next() {
        args.dataset = parse_dataset(name)?;
    }
    if let Some(raw) = positional.next() {
        args.minsup = match raw.parse::<f64>() {
            Ok(minsup) if (0.0..=1.0).contains(&minsup) => minsup,
            _ => return Err(format!("minsup {raw:?} is not a fraction in [0, 1]")),
        };
    }
    if let Some(raw) = positional.next() {
        args.scale = Scale::parse(raw).ok_or_else(|| format!("unknown scale {raw:?}"))?;
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok(args)
}

/// `DRIFT` (any case), or a non-empty prefix of a stand-in's name.
fn parse_dataset(name: &str) -> Result<Dataset, String> {
    if name.eq_ignore_ascii_case("DRIFT") {
        return Ok(Dataset::Drift);
    }
    StandIn::ALL
        .into_iter()
        .find(|d| !name.is_empty() && d.name().starts_with(name))
        .map(Dataset::StandIn)
        .ok_or_else(|| format!("unknown dataset {name:?}"))
}

/// An option's value parsed as `T`, or an error naming the option.
fn parse_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("{flag} {raw:?}: {e}"))
}

/// An option's value parsed as a count of at least 1.
fn positive(flag: &str, raw: &str) -> Result<usize, String> {
    match parse_value(flag, raw)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// Whether a recovery resumed the generation it restored (a clean
/// restore writes nothing) or folded the session into a fresh one.
fn recovery_outcome(miner: &CheckpointedMiner, report: &RecoveryReport) -> String {
    let generation = miner.generation();
    if generation == report.checkpoint_seq {
        format!("resumed generation {generation}")
    } else {
        format!("folded into generation {generation}")
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        dataset,
        minsup,
        scale,
        with_frequent,
        engine,
        pipeline,
        stream,
        serve,
        readers,
        batch,
        stream_items,
        window,
        checkpoint_dir,
        crash_after,
    } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("probe: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let engine = engine.unwrap_or_else(engine_from_env);
    let pipeline = pipeline.unwrap_or_else(pipeline_from_env);

    // `DRIFT` is the windowed-streaming workload (popularity rotates per
    // block); every other name resolves against the paper stand-ins.
    let (label, db) = match dataset {
        Dataset::Drift => {
            let n = match scale {
                Scale::Test => 1_000,
                Scale::Default => 10_000,
                Scale::Full => 100_000,
            };
            ("DRIFT*", drifting_census(n, 8, (n / 4).max(1), 0xD21F7))
        }
        Dataset::StandIn(d) => (d.name(), d.generate(scale)),
    };
    println!(
        "{label} |O|={} |I|={} minsup={minsup} engine={engine} pipeline={pipeline}",
        db.n_transactions(),
        db.n_items()
    );
    if serve {
        let minconf = 0.5;
        let rows = project_top_items(&db, stream_items);
        let split = rows.len() / 2;
        println!(
            "serving smoke over the top {stream_items} items: {split} seed rows, \
             {} appended in ≤{batch}-row batches, {readers} reader(s)",
            rows.len() - split
        );
        let miner = RuleMiner::new(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .engine(engine);
        let start = Instant::now();
        let server = miner.serving(TransactionDb::from_rows(rows[..split].to_vec()));
        let seed_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "seed snapshot: {} rules at epoch {} ({seed_ms:.1} ms)",
            server.snapshot().n_rules(),
            server.epoch()
        );
        let lanes: Vec<Mutex<RuleReader>> =
            (0..readers).map(|_| Mutex::new(server.reader())).collect();
        let server = Mutex::new(server);
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let per_worker = fan_out(readers + 1, |worker| {
            if worker == 0 {
                let mut server = server.lock().expect("writer lane");
                for chunk in rows[split..].chunks(batch) {
                    server.ingest(chunk.to_vec()).expect("append batch");
                }
                done.store(true, Ordering::Relaxed);
                Vec::new()
            } else {
                let mut reader = lanes[worker - 1].lock().expect("reader lane");
                let mut latencies = Vec::new();
                'outer: for _pass in 0..1024 {
                    for basket in &rows {
                        let t0 = Instant::now();
                        let hit = reader.match_basket(basket);
                        latencies.push(t0.elapsed().as_nanos() as u64);
                        std::hint::black_box(hit.len());
                        if done.load(Ordering::Relaxed) && latencies.len() >= rows.len() {
                            break 'outer;
                        }
                    }
                }
                latencies
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let server = server.into_inner().expect("writer done");
        let mut merged: Vec<u64> = per_worker.into_iter().flatten().collect();
        merged.sort_unstable();
        let stats = server.stats();
        let pct = |p: usize| merged[(merged.len() - 1) * p / 100] as f64 / 1e3;
        println!(
            "served {} queries in {elapsed:.2} s ({:.0} q/s): p50 {:.1} µs, p99 {:.1} µs",
            merged.len(),
            merged.len() as f64 / elapsed,
            pct(50),
            pct(99)
        );
        println!(
            "final epoch {}: {} rules over {} rows; {} snapshots published, \
             {} index probes, {} rules scanned, {} fired",
            server.epoch(),
            server.snapshot().n_rules(),
            server.n_objects(),
            stats.snapshots_published,
            stats.index_probes,
            stats.rules_scanned,
            stats.rules_fired
        );
        return;
    }

    if stream {
        let minconf = 0.5;
        // The maintained closure system grows with the vocabulary, so a
        // bounded universe is what keeps a long replay serviceable.
        let rows = project_top_items(&db, stream_items);
        println!("streaming replay over the top {stream_items} items");
        let miner = RuleMiner::new(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .engine(engine);

        if let Some(dir) = checkpoint_dir {
            // Durable replay: journal every batch, optionally crash
            // mid-stream and finish on the recovered session.
            let (mut ckpt, resumed) = miner
                .checkpointing(TransactionDb::from_rows(vec![]), &dir)
                .expect("open checkpoint directory");
            if let Some(report) = resumed {
                println!("resumed a persisted session:\n{report}");
                println!("{}", recovery_outcome(&ckpt, &report));
            }
            if window > 0 {
                ckpt.set_window(Window::Sliding(window))
                    .expect("persist window policy");
                println!("sliding window: the newest {window} rows");
            }
            let start = Instant::now();
            let mut session = Some(ckpt);
            let mut batches = 0usize;
            for chunk in rows.chunks(batch) {
                if crash_after == Some(batches) {
                    drop(session.take()); // the simulated crash
                    println!(
                        "simulated crash after {batches} batches; recovering {}",
                        dir.display()
                    );
                    let t0 = Instant::now();
                    let (recovered, report) =
                        CheckpointedMiner::recover(&dir).expect("recover session");
                    println!("{report}");
                    println!("recovery took {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
                    println!("{}", recovery_outcome(&recovered, &report));
                    session = Some(recovered);
                }
                session
                    .as_mut()
                    .expect("live session")
                    .push_batch(chunk.to_vec())
                    .expect("append batch");
                batches += 1;
            }
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            let mut ckpt = session.expect("live session");
            println!(
                "durable replay: {} rows in {batches} batches of ≤{batch} ({elapsed:.1} ms); \
                 checkpoint generation {}, {} batches / {} bytes journaled since the last fold",
                rows.len(),
                ckpt.generation(),
                ckpt.journal_batches(),
                ckpt.journal_bytes()
            );
            let bases = ckpt.bases();
            println!(
                "|FC| = {} ({} Hasse edges, DG {} rules, Lux reduced {} rules at minconf {minconf})",
                bases.n_closed_nonempty(),
                bases.lattice.n_edges(),
                bases.dg.len(),
                bases.luxenburger_reduced_rules().len(),
            );
            return;
        }

        let start = Instant::now();
        let mut session = miner.streaming(TransactionDb::from_rows(vec![]));
        if window > 0 {
            session.set_window(Window::Sliding(window));
            println!("sliding window: the newest {window} rows");
        }
        let (mut batches, mut added, mut removed, mut rules_moved) = (0usize, 0, 0, 0);
        let mut expired = 0usize;
        for chunk in rows.chunks(batch) {
            let delta = session.push_batch(chunk.to_vec()).expect("append batch");
            batches += 1;
            added += delta.closed_added.len();
            removed += delta.closed_removed.len();
            expired += delta.expired;
            rules_moved += delta.dg.added.len()
                + delta.dg.removed.len()
                + delta.lux_reduced.added.len()
                + delta.lux_reduced.removed.len();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let n_replayed = rows.len();
        let bases = session.bases();
        println!(
            "replayed {n_replayed} rows in {batches} batches of ≤{batch} ({elapsed:.1} ms): \
             |FC| = {} ({} Hasse edges, DG {} rules, Lux reduced {} rules at minconf {minconf})",
            bases.n_closed_nonempty(),
            bases.lattice.n_edges(),
            bases.dg.len(),
            bases.luxenburger_reduced_rules().len(),
        );
        println!(
            "movement: {added} closed sets entered, {removed} left, \
             {rules_moved} DG/Lux-reduced rule changes; {} closure classes maintained",
            session.n_closure_classes()
        );
        if window > 0 {
            println!(
                "window: {expired} rows expired, {} retained ({} storage bytes)",
                session.n_objects(),
                session.db().storage_bytes()
            );
        }
        let gen = session.gen_stats();
        println!(
            "generator work: {} extension candidates, {} subsumption checks, \
             {} transversal fallbacks",
            gen.candidates, gen.subsumption_checks, gen.transversal_fallbacks
        );
        // The session holds no engine, so the replay made none of them.
        let remine_ctx = session.context();
        let _ = miner
            .pipeline(PipelineKind::Fused)
            .mine_context(&remine_ctx);
        println!(
            "engine calls: 0 for the whole replay vs {} for ONE fused \
             re-mine of the final context",
            remine_ctx.closure_cache_stats().engine_calls()
        );
        return;
    }

    let ctx = MiningContext::with_engine(db, engine);
    println!("resolved backend: {}", ctx.engine_name());

    if pipeline == PipelineKind::Fused {
        let minconf = 0.5;
        let spawned_before = threads_spawned();
        let start = Instant::now();
        let bases = RuleMiner::new(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .pipeline(pipeline)
            .mine_context(&ctx);
        let spawned = threads_spawned() - spawned_before;
        println!(
            "|FC| = {} ({} Hasse edges, DG {} rules, Lux reduced {} rules \
             at minconf {minconf}, {:.1} ms)",
            bases.n_closed_nonempty(),
            bases.lattice.n_edges(),
            bases.dg.len(),
            bases.luxenburger_reduced_rules().len(),
            start.elapsed().as_secs_f64() * 1e3
        );
        if with_frequent {
            // The fused pipeline derives F from FC — already in the
            // bundle, no extra mining pass to time.
            println!("|F| = {} (derived from FC)", bases.frequent.len());
        }
        let stats = ctx.closure_cache_stats();
        println!(
            "engine calls: {} ({} closure lookups, {} extents, {} supports, {} intents)",
            stats.engine_calls(),
            stats.lookups(),
            stats.extents,
            stats.supports,
            stats.intents
        );
        println!("threads spawned: {spawned}");
        return;
    }

    let start = Instant::now();
    let fc = Close::new().mine_closed(&ctx, MinSupport::Fraction(minsup));
    println!(
        "|FC| = {} ({} passes, {:.1} ms)",
        fc.len(),
        fc.stats.db_passes,
        start.elapsed().as_secs_f64() * 1e3
    );
    let largest = fc.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    println!("largest closed set: {largest} items");

    if with_frequent {
        let start = Instant::now();
        let f = Apriori::new().mine(&ctx, MinSupport::Fraction(minsup));
        println!(
            "|F| = {} ({:.1} ms)",
            f.len(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn defaults_apply_only_to_absent_positionals() {
        assert_eq!(parse(""), Ok(Args::default()));
        let args = parse("T10I4D100K 0.01 test --engine tid-list --pipeline fused").unwrap();
        assert_eq!(args.dataset, Dataset::StandIn(StandIn::T10I4));
        assert_eq!(args.minsup, 0.01);
        assert_eq!(args.scale, Scale::Test);
        assert_eq!(args.engine, Some(EngineKind::TidList));
        assert_eq!(args.pipeline, Some(PipelineKind::Fused));
        // Prefixes pick a stand-in; DRIFT is matched in any case.
        assert_eq!(
            parse("C20").unwrap().dataset,
            Dataset::StandIn(StandIn::C20D10K)
        );
        assert_eq!(parse("drift 0.3 full").unwrap().dataset, Dataset::Drift);
        let args =
            parse("DRIFT 0.3 test --stream --window 256 --batch 128 --crash-after 0").unwrap();
        assert_eq!(
            (args.window, args.batch, args.crash_after),
            (256, 128, Some(0))
        );
    }

    #[test]
    fn bad_positionals_are_errors_not_defaults() {
        for (line, error) in [
            ("MUSHROOM5 0.5 test", "unknown dataset \"MUSHROOM5\""),
            ("mushrooms", "unknown dataset \"mushrooms\""),
            (
                "MUSHROOMS 0,5",
                "minsup \"0,5\" is not a fraction in [0, 1]",
            ),
            (
                "MUSHROOMS 1.5",
                "minsup \"1.5\" is not a fraction in [0, 1]",
            ),
            (
                "MUSHROOMS NaN",
                "minsup \"NaN\" is not a fraction in [0, 1]",
            ),
            ("MUSHROOMS 0.5 tset", "unknown scale \"tset\""),
            ("MUSHROOMS 0.5 test extra", "unexpected argument \"extra\""),
        ] {
            assert_eq!(parse(line), Err(error.to_owned()), "{line}");
        }
    }

    #[test]
    fn bad_options_are_errors() {
        assert_eq!(
            parse("--strem"),
            Err("unknown option \"--strem\"".to_owned())
        );
        assert_eq!(parse("--batch"), Err("--batch needs a value".to_owned()));
        assert_eq!(
            parse("--batch 0"),
            Err("--batch must be at least 1".to_owned())
        );
        assert!(parse("--readers two")
            .unwrap_err()
            .starts_with("--readers \"two\": "));
        assert!(parse("--engine sparse")
            .unwrap_err()
            .starts_with("--engine \"sparse\": "));
        // The removed backends are usage errors like any unknown kind.
        for removed in ["diffset", "sharded:2:auto"] {
            let line = format!("T10I4D100K 0.01 test --engine {removed}");
            assert_eq!(
                parse(&line),
                Err(format!(
                    "--engine {removed:?}: unknown engine kind {removed:?}: \
                     expected auto, dense, or tid-list"
                )),
                "{line}"
            );
        }
        assert!(parse("--pipeline both")
            .unwrap_err()
            .starts_with("--pipeline \"both\": "));
    }
}
