//! `backdroid-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from a
//! traced replay plus the untraced run's registry) with `--trace 1`.
//! Working files go under `.bench_data/` in the working directory and
//! are removed before exit. See `benchmark/README.md`.

use backdroid_benchmark::drive::{self, ClientLog, Delta, Env};
use backdroid_benchmark::golden::{check_chains, par_map, ChainCheck, Oracle};
use backdroid_benchmark::inputs::{self, Shape, Workload};
use backdroid_benchmark::stats::{
    histogram_quantile, median, percentile, release_free_memory, sorted_ms, RssSampler,
};
use backdroid_benchmark::traced::{self, Ledger};
use backdroid_benchmark::{abort, clean_up, work_dir};
use backdroid_core::{AppArtifacts, BackendChoice};
use backdroid_service::proto::workload_request_line;
use std::path::Path;
use std::sync::Arc;

/// Set-ups per `--trace 0` run of warm-zipf and update-mix; the median
/// is reported as `setup_s`.
const SETUP_REPEATS: usize = 3;
/// warm-zipf's store budget as a share of the corpus's resident bytes.
const WARM_BUDGET_SHARE: f64 = 0.95;
/// The recorded band warm-zipf's measured-phase memory hit ratio must
/// stay inside.
const WARM_HIT_BAND: (f64, f64) = (0.95, 0.998);
/// At most this many `analyze_delta` replies are checked against a
/// direct analysis per run (each check is a full build).
const DELTA_CHECKS: usize = 48;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (cold-sweep, warm-zipf, update-mix)")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for x in metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite", x.name));
        }
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            x.name, x.value, x.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    ))
}

fn mib(bytes: &[u64]) -> Vec<f64> {
    bytes.iter().map(|&b| b as f64 / (1 << 20) as f64).collect()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The untraced measured phase of one workload.
struct Measured {
    logs: Vec<ClientLog>,
    elapsed: f64,
    setup_s: Vec<f64>,
    /// Peak RSS of each whole second of the measured phase, bytes.
    rss_peaks: Vec<u64>,
    delta: Delta,
    /// cold-sweep passes (0 otherwise).
    passes: u64,
    /// Resident store bytes when the phase ended.
    resident: u64,
    /// cold-sweep: each pass's summed op latency, ns.
    pass_op_ns: Vec<u64>,
    /// Throughput samples: per whole second (streams) or per pass
    /// (cold-sweep), ops/s.
    rates: Vec<f64>,
    setup_mismatches: usize,
    chains: ChainCheck,
}

impl Measured {
    fn ops(&self) -> u64 {
        self.logs.iter().map(ClientLog::ops).sum()
    }

    fn read_ms(&self) -> Vec<f64> {
        sorted_ms(
            &self
                .logs
                .iter()
                .flat_map(|l| l.read_ns.iter().copied())
                .collect::<Vec<_>>(),
        )
    }

    fn update_ms(&self) -> Vec<f64> {
        sorted_ms(
            &self
                .logs
                .iter()
                .flat_map(|l| l.update_ns.iter().copied())
                .collect::<Vec<_>>(),
        )
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum::<u64>() + self.chains.mismatches as u64
    }

    /// Summed untraced latency of the ops the traced run replays.
    fn replayed_op_ns(&self) -> u64 {
        if self.passes > 0 {
            let n = traced::replay_passes(self.passes) as usize;
            return self.pass_op_ns[..n].iter().sum();
        }
        self.logs
            .iter()
            .map(|l| l.step_ns[..traced::replay_steps(l)].iter().sum::<u64>())
            .sum()
    }

    /// The traced replay's summed op time relative to the untraced run's
    /// for the same ops, signed: negative where the untraced path waits
    /// on something the layer calls skip (the pool queue, a version lock).
    fn trace_gap(&self, ledger: &Ledger) -> f64 {
        let untraced_ns = self.replayed_op_ns();
        (ledger.op_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64
    }
}

/// Runs the untraced measured phase; `repeats` set-ups, the last one
/// kept for measuring.
fn measure(env: &Env, seconds: f64, repeats: usize, threads: usize) -> Result<Measured, String> {
    release_free_memory();
    if env.plan.workload == Workload::ColdSweep {
        let sampler = RssSampler::start();
        let run = drive::run_cold(env, seconds);
        let rss_peaks = sampler.stop();
        if run.non_miss_passes > 0 {
            return Err(format!(
                "self-check: {} cold-sweep passes served a read from memory or disk",
                run.non_miss_passes
            ));
        }
        return Ok(Measured {
            logs: run.logs,
            elapsed: run.elapsed,
            setup_s: run.setup_s,
            rss_peaks,
            delta: Delta {
                start: Default::default(),
                end: run.metrics,
            },
            passes: run.passes,
            resident: run.last_resident,
            rates: run.pass_rates,
            pass_op_ns: run.pass_op_ns,
            setup_mismatches: 0,
            chains: ChainCheck::default(),
        });
    }
    let mut setup_s = Vec::new();
    let mut setup_mismatches = 0;
    let mut ready = None;
    for i in 0..repeats.max(1) {
        if let Some(prev) = ready.take() {
            let drive::Ready { pool, dir, .. } = prev;
            drop(pool);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let r = drive::set_up(env, &format!("setup-{i}"));
        setup_s.push(r.setup_s);
        setup_mismatches += r.mismatches;
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    let start = ready.pool.metrics();
    release_free_memory();
    let sampler = RssSampler::start();
    let (logs, elapsed) = drive::run_streams(env, &ready.pool, seconds);
    let rss_peaks = sampler.stop();
    ready.pool.drain();
    let end = ready.pool.metrics();
    let resident = end.value("store_resident_bytes");
    drop(ready.pool);
    let _ = std::fs::remove_dir_all(&ready.dir);
    let records: Vec<_> = logs
        .iter()
        .flat_map(|l| l.updates.iter().cloned())
        .collect();
    let chains = check_chains(&env.corpus, &records, env.plan.seed, DELTA_CHECKS, threads);
    Ok(Measured {
        rates: window_rates(&logs, elapsed),
        logs,
        elapsed,
        setup_s,
        rss_peaks,
        delta: Delta { start, end },
        passes: 0,
        resident,
        pass_op_ns: Vec::new(),
        setup_mismatches,
        chains,
    })
}

/// The per-workload self-checks on the untraced run.
fn self_check(env: &Env, run: &Measured) -> Result<(), String> {
    let d = &run.delta;
    match env.plan.workload {
        Workload::ColdSweep => {}
        Workload::WarmZipf => {
            let (disk, misses) = (
                d.counter("store_disk_hits_total"),
                d.counter("store_misses_total"),
            );
            let hit_ratio = hit_ratio(d);
            if misses > 0 {
                return Err(format!(
                    "self-check: {misses} warm-zipf reads were cold builds"
                ));
            }
            if disk == 0 {
                return Err("self-check: no warm-zipf read was a disk restore".into());
            }
            if !(WARM_HIT_BAND.0..=WARM_HIT_BAND.1).contains(&hit_ratio) {
                return Err(format!(
                    "self-check: warm-zipf hit ratio {hit_ratio:.4} outside {WARM_HIT_BAND:?}"
                ));
            }
        }
        Workload::UpdateMix => {
            if d.counter("sinks_reused_total") == 0 {
                return Err("self-check: update-mix reused no verdict".into());
            }
            if d.counter("delta_full_fallback_total") == 0 {
                return Err("self-check: update-mix never fell back to a full run".into());
            }
            if run.chains.shared_apps > 0 {
                return Err(format!(
                    "self-check: {} update-mix apps were updated by two clients",
                    run.chains.shared_apps
                ));
            }
        }
    }
    Ok(())
}

/// Ops completed in each whole second of the measured phase.
fn window_rates(logs: &[ClientLog], elapsed: f64) -> Vec<f64> {
    let mut counts = vec![0u64; elapsed.floor() as usize];
    for t in logs.iter().flat_map(|l| &l.done_ns) {
        if let Some(c) = counts.get_mut((*t / 1_000_000_000) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64).collect()
}

/// The store's memory-hit share of fetches in the measured phase.
fn hit_ratio(d: &Delta) -> f64 {
    let hits = d.counter("store_hits_total");
    let fetches = hits
        + d.counter("store_misses_total")
        + d.counter("store_disk_hits_total")
        + d.counter("store_coalesced_total");
    ratio(hits, fetches)
}

fn summary(env: &Env, run: &Measured) -> String {
    let reads = run.read_ms();
    let updates = run.update_ms();
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.3}"));
    format!(
        "workload={} seed={} clients={} ops={} elapsed_s={:.3} rates={:.0?} reads={} read_p50_ms={} read_p90_ms={} \
         (from {} samples) updates={} update_p50_ms={} update_p90_ms={} failed_share={:.6} \
         puts_checked={} deltas_checked={} setup_s={:.3?} hit_ratio={:.4} max_rss_mb={:.1}",
        env.plan.workload.name(),
        env.plan.seed,
        env.clients,
        run.ops(),
        run.elapsed,
        run.rates,
        reads.len(),
        fmt(percentile(&reads, 0.5)),
        fmt(percentile(&reads, 0.9)),
        reads.len(),
        updates.len(),
        fmt(percentile(&updates, 0.5)),
        fmt(percentile(&updates, 0.9)),
        ratio(run.failed(), run.ops()),
        run.chains.puts_checked,
        run.chains.deltas_checked,
        run.setup_s,
        hit_ratio(&run.delta),
        mib(&run.rss_peaks).into_iter().fold(0.0, f64::max),
    )
}

fn end_to_end(run: &Measured) -> Result<Vec<Metric>, String> {
    // The median of per-second (per-pass) rates: a burst of disk
    // restores or a stall on the host moves one sample, not the figure.
    let ops_per_s = if run.rates.is_empty() {
        run.ops() as f64 / run.elapsed
    } else {
        median(&run.rates)
    };
    let reads = run.read_ms();
    let p = |q: f64| {
        percentile(&reads, q).ok_or(format!(
            "too few reads ({}) for p{}",
            reads.len(),
            q * 100.0
        ))
    };
    Ok(vec![
        m("ops_per_s", ops_per_s, "1/s"),
        m("read_p50_ms", p(0.5)?, "ms"),
        m("read_p90_ms", p(0.9)?, "ms"),
        m("setup_s", median(&run.setup_s), "s"),
        m("peak_rss_mb", median(&mib(&run.rss_peaks)), "MiB"),
    ])
}

fn per_layer(run: &Measured, ledger: &Ledger) -> Vec<Metric> {
    let d = &run.delta;
    let ops = run.ops();
    let builds = ledger.layer("dex.encode").count;
    let analyses = [
        "request_hit_us",
        "request_miss_us",
        "request_disk_us",
        "request_coalesced_us",
        "delta_analysis_us",
    ]
    .iter()
    .map(|h| d.histogram(h).count)
    .sum::<u64>();
    let commands = d.counter("search_commands_total");
    let reused = d.counter("chunks_reused_total");
    let sinks_reused = d.counter("sinks_reused_total");
    let updates = run.update_ms();
    let reads = ledger.reads.analyses;
    vec![
        m("dex.encode_us", ledger.mean_us("dex.encode"), "us"),
        m("dex.render_us", ledger.mean_us("dex.render"), "us"),
        m(
            "dex.dump_kib",
            ratio(ledger.dump_bytes, builds) / 1024.0,
            "KiB",
        ),
        m("search.parse_us", ledger.mean_us("search.parse"), "us"),
        m(
            "search.postings_us",
            ledger.mean_us("search.postings"),
            "us",
        ),
        m("search.tokens", ratio(ledger.tokens, builds), "count"),
        m("search.commands", ratio(commands, analyses), "count"),
        m(
            "search.cache_hit_ratio",
            ratio(d.counter("search_cache_hits_total"), commands),
            "ratio",
        ),
        m(
            "search.postings_touched",
            ratio(d.counter("search_postings_touched_total"), analyses),
            "count",
        ),
        m("store.hit_us", ledger.mean_us("store.fetch.hit"), "us"),
        m("store.restore_us", ledger.mean_us("store.fetch.disk"), "us"),
        m(
            "store.miss_self_us",
            ledger.mean_us("store.fetch.miss"),
            "us",
        ),
        m("store.hit_ratio", hit_ratio(d), "ratio"),
        m(
            "store.evictions",
            ratio(d.counter("store_evictions_total"), ops),
            "1/op",
        ),
        m(
            "store.disk_bytes_written",
            ratio(d.counter("store_disk_bytes_written_total"), ops),
            "B/op",
        ),
        m("store.resident_mib", mib(&[run.resident])[0], "MiB"),
        m(
            "core.materialize_us",
            ledger.mean_us("core.materialize"),
            "us",
        ),
        m("core.locate_us", ledger.per_us("core.locate", reads), "us"),
        m("core.slice_us", ledger.per_us("core.slice", reads), "us"),
        m(
            "core.forward_us",
            ledger.per_us("core.forward", reads),
            "us",
        ),
        m(
            "core.verdict_us",
            ledger.per_us("core.verdict", reads),
            "us",
        ),
        m("core.sites", ratio(ledger.reads.sites, reads), "count"),
        m("core.skipped", ratio(ledger.reads.skipped, reads), "count"),
        m(
            "core.ssg_units",
            ratio(ledger.reads.ssg_units, reads),
            "count",
        ),
        m("proto.decode_us", ledger.mean_us("proto.decode"), "us"),
        m("proto.render_us", ledger.mean_us("proto.render"), "us"),
        m(
            "proto.reply_kib",
            ratio(ledger.reply_bytes, ledger.requests) / 1024.0,
            "KiB",
        ),
        m(
            "pool.queue_wait_p90_us",
            histogram_quantile(&d.histogram("pool_queue_wait_us"), 0.9),
            "us",
        ),
        m(
            "update.put_version_us",
            ledger.mean_us("update.put_version"),
            "us",
        ),
        m("update.delta_us", ledger.mean_us("update.delta"), "us"),
        m(
            "update.chunk_reuse_ratio",
            ratio(reused, reused + d.counter("chunks_written_total")),
            "ratio",
        ),
        m(
            "update.classes_retokenized",
            ratio(
                d.counter("update_classes_retokenized_total"),
                d.counter("service_put_version_total"),
            ),
            "count",
        ),
        m(
            "update.sink_reuse_ratio",
            ratio(
                sinks_reused,
                sinks_reused + d.counter("sinks_reanalyzed_total"),
            ),
            "ratio",
        ),
        m(
            "update.fallback_ratio",
            ratio(
                d.counter("delta_full_fallback_total"),
                d.counter("service_analyze_delta_total"),
            ),
            "ratio",
        ),
        m(
            "update.p50_ms",
            percentile(&updates, 0.5).unwrap_or(0.0),
            "ms",
        ),
        m(
            "update.p90_ms",
            percentile(&updates, 0.9).unwrap_or(0.0),
            "ms",
        ),
        m(
            "ledger.unattributed_share",
            ledger.unattributed_share(),
            "ratio",
        ),
        m(
            "ledger.trace_gap_share",
            run.trace_gap(ledger).abs(),
            "ratio",
        ),
    ]
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let clients = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(2, 4);
    let threads = clients;
    let corpus = Arc::new(inputs::corpus(threads));
    let plan = inputs::plan(args.workload, args.seed, clients, &Shape::of(&corpus));
    let oracle = Oracle::compute(&corpus, &plan.keys, threads);
    let lines: Vec<String> = plan
        .keys
        .iter()
        .enumerate()
        .map(|(i, k)| workload_request_line(i as u64, k))
        .collect();
    let goldens = oracle.fingerprints(&plan.keys, threads);
    let budget = if args.workload == Workload::WarmZipf {
        let sizes = par_map(&corpus, threads, |a| {
            AppArtifacts::with_backend(
                a.program.clone(),
                a.manifest.clone(),
                BackendChoice::default(),
            )
            .estimated_bytes()
        });
        (sizes.iter().sum::<u64>() as f64 * WARM_BUDGET_SHARE) as u64
    } else {
        u64::MAX
    };
    let env = Env {
        corpus,
        plan,
        oracle,
        lines,
        goldens,
        clients,
        budget,
        work: work.to_path_buf(),
    };
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let measured = measure(&env, args.seconds, repeats, threads)?;
    self_check(&env, &measured)?;
    for log in &measured.logs {
        if let Some(f) = &log.first_failure {
            eprintln!("first failure: {f}");
        }
    }
    println!("{}", summary(&env, &measured));
    let attempted = measured.ops();
    let mut failed = measured.failed();
    let mut correct = failed == 0 && measured.setup_mismatches == 0;
    let metrics = if args.trace {
        let ledger = traced::run(&env, &measured.logs, measured.passes);
        if env.plan.workload == Workload::WarmZipf && ledger.layer("dex.encode").count > 0 {
            return Err("self-check: the traced warm-zipf run built an image".into());
        }
        correct &= ledger.mismatches == 0;
        failed += ledger.mismatches;
        println!(
            "ledger {} (self-time shares of traced request wall time)",
            env.plan.workload.name()
        );
        print!("{}", ledger.table());
        let metrics = per_layer(&measured, &ledger);
        for x in metrics.iter().filter(|x| x.name.starts_with("ledger.")) {
            println!("{} {:.4}", x.name, x.value);
        }
        println!(
            "ledger.trace_gap (signed) {:+.4}",
            measured.trace_gap(&ledger)
        );
        metrics
    } else {
        end_to_end(&measured)?
    };
    for x in &metrics {
        println!("{:<28} {:>16.4} {}", x.name, x.value, x.unit);
    }
    result_line(correct, attempted.max(1), failed, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: backdroid-benchmark --workload <cold-sweep|warm-zipf|update-mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // A panic on any thread — a product worker's included, whose client
    // would otherwise wait for a reply that never comes — ends the run
    // at once, without a result line.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report(info);
        abort("a thread panicked");
    }));
    let work = work_dir();
    if let Err(e) = std::fs::create_dir_all(&work) {
        abort(&format!("cannot create {}: {e}", work.display()));
    }
    let outcome = run(&args, &work);
    clean_up();
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => abort(&e),
    }
}
