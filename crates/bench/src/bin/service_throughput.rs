//! Throughput benchmark for the serving layer: drives a seeded
//! Zipf-skewed workload (see `backdroid_appgen::workload`) through the
//! wire path of a [`ShardPool`] (`submit_line`, one shard unless
//! `--shards N` says otherwise) — the same path `backdroid-serve` runs
//! every concurrent replay through — and reports requests/sec, p50/p99
//! latency, cold-load vs warm-hit latency, and store behaviour (loads,
//! coalesced waits, evictions, peak residency) under a configurable
//! byte budget.
//!
//! Unlike the paper-figure bins, this one's stdout **is** about
//! wall-clock — it measures a live serving system, and with
//! `--workers > 1` the hit/miss/eviction counts depend on scheduling
//! too, so CI uploads its artifact without diffing it. The bin
//! self-checks the serving layer's two load-bearing claims and exits
//! non-zero if either fails:
//!
//! * the resident store never exceeds its byte budget
//!   (`peak_resident_bytes <= budget`, both summed across shards; the
//!   workload publishes no update, the store's one exception);
//! * the mean warm-hit latency is below the mean cold-load latency
//!   (residency actually amortizes preprocessing). An empty warm
//!   bucket fails the check rather than skipping it — a workload that
//!   never hits the store cannot demonstrate residency (only a
//!   zero-budget store, which by design has no warm hits, skips the
//!   comparison).
//!
//! Latency tiers are read from the service's metrics registry: the
//! `request_{miss,disk,hit,coalesced}_us` histograms record each
//! analysis inside [`Service::run`], so the classification is exact
//! (no first-touch guessing) and measures service time only — queue
//! wait never pollutes the tiers, which is what lets the warm < cold
//! residency check hold although the end-to-end latencies are sojourn
//! times. Every run also reports the pool's `pool_queue_wait_us`
//! histogram and bands its p99 bucket index in the committed baseline.
//!
//! Flags: `--count N` / `--code-permille M` (benchset), `--requests N`,
//! `--workers N` (per shard), `--shards N` (default 1),
//! `--budget-mb N` (per shard), `--backend linear|indexed`,
//! `--seed S`, `--smoke` (small CI preset),
//! `--json PATH`, `--baseline PATH` (check machine-independent ratios
//! against a committed `BENCH_*.json` envelope, see
//! `backdroid_bench::baseline`), and `--snapshot-dir DIR` to enable the
//! store's disk tier — latencies are then reported in three tiers
//! (cold-parse vs disk-warm vs memory-warm), and a second run against
//! the populated directory serves its first-touch loads from snapshots.
//! When both cold and disk tiers appear in one run, the bin
//! additionally self-checks disk-warm < cold-parse.

use backdroid_appgen::benchset::BenchsetConfig;
use backdroid_appgen::workload::{self, WorkloadConfig};
use backdroid_bench::json::{array, JsonObject};
use backdroid_bench::{backend_from_args, json_path_from_args, percentile, Baseline};
use backdroid_obs::RegistrySnapshot;
use backdroid_service::cli::{arg_value, budget_arg, has_flag, parsed_arg, reject_unknown_flags};
use backdroid_service::proto::workload_request_line;
use backdroid_service::store::hit_rate;
use backdroid_service::{Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One serving tier decoded from a registry histogram: how many
/// analyses landed in it, their exact mean (histograms carry the exact
/// sum and count), and the p99 bucket upper bound.
struct Tier {
    n: u64,
    mean_ms: f64,
    p99_ms: f64,
}

fn tier(snap: &RegistrySnapshot, name: &str) -> Tier {
    match snap.histogram(name) {
        Some(h) if h.count > 0 => Tier {
            n: h.count,
            mean_ms: h.mean() / 1_000.0,
            p99_ms: h.quantile_upper(0.99) as f64 / 1_000.0,
        },
        _ => Tier {
            n: 0,
            mean_ms: 0.0,
            p99_ms: 0.0,
        },
    }
}

/// The flags this bin reads; any other `-` argument is a usage error.
const FLAGS: &[&str] = &[
    "--count",
    "--code-permille",
    "--requests",
    "--workers",
    "--shards",
    "--budget-mb",
    "--backend",
    "--seed",
    "--smoke",
    "--json",
    "--baseline",
    "--snapshot-dir",
];

fn main() {
    reject_unknown_flags(FLAGS);
    let smoke = has_flag("--smoke");
    let (def_count, def_permille, def_requests, def_budget_mb) = if smoke {
        (8, 40, 60, 4)
    } else {
        (24, 80, 200, 64)
    };
    let bench = BenchsetConfig::try_sized(
        parsed_arg("--count", "a positive integer").unwrap_or(def_count),
        parsed_arg::<u32>("--code-permille", "an integer (1000 ≙ paper scale)")
            .unwrap_or(def_permille) as f64
            / 1000.0,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: invalid benchset size: {e}");
        std::process::exit(2)
    });
    let requests = parsed_arg("--requests", "a positive integer").unwrap_or(def_requests);
    let workers =
        parsed_arg::<NonZeroUsize>("--workers", "a positive integer").map_or(4, NonZeroUsize::get);
    let shards =
        parsed_arg::<NonZeroUsize>("--shards", "a positive integer").map_or(1, NonZeroUsize::get);
    let shard_budget = budget_arg("--budget-mb").unwrap_or(def_budget_mb << 20);
    let seed = parsed_arg("--seed", "an integer").unwrap_or(7u64);
    let backend = backend_from_args();

    let wl_cfg = WorkloadConfig {
        apps: bench.count,
        requests,
        seed,
        ..WorkloadConfig::default()
    };
    let snapshot_dir = arg_value("--snapshot-dir").map(std::path::PathBuf::from);
    let trace = workload::generate(wl_cfg);
    let service_cfg = ServiceConfig {
        budget_bytes: shard_budget,
        backend,
        snapshot_dir: snapshot_dir.clone(),
    };

    // Drive the trace through the pool's wire path and record each
    // request's sojourn time (for req/s and the end-to-end p50/p99) and
    // its routed shard; serving tiers come from the registry afterwards.
    let started = Instant::now();
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards,
            workers_per_shard: workers,
            queue_capacity: 64,
            trace_capacity: 0,
        },
        move |_| Service::over_benchset(bench, service_cfg.clone()),
    );
    // (shard, start) per seq, pushed before its submit so the responder
    // always finds the entry.
    let submitted: Arc<Mutex<Vec<(usize, Instant)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(trace.len())));
    let results: Arc<Mutex<Vec<(usize, f64, bool)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(trace.len())));
    let responder: Responder = {
        let submitted = Arc::clone(&submitted);
        let results = Arc::clone(&results);
        Arc::new(move |seq, response| {
            let (shard, t0) = submitted.lock().expect("submitted poisoned")[seq as usize];
            let ms = t0.elapsed().as_secs_f64() * 1_000.0;
            let err = match &response {
                Some(line) => line.contains("\"error\""),
                None => true,
            };
            results
                .lock()
                .expect("results poisoned")
                .push((shard, ms, err));
        })
    };
    for (seq, req) in trace.iter().enumerate() {
        let shard = pool.route(&req.app.to_string());
        submitted
            .lock()
            .expect("submitted poisoned")
            .push((shard, Instant::now()));
        pool.submit_line(
            seq as u64,
            &workload_request_line(seq as u64, req),
            &responder,
        );
    }
    pool.drain();
    // Aggregate registry (live shards + retired + pool counters) must be
    // captured before shutdown tears the shards down.
    let snap = pool.metrics();
    pool.shutdown();
    let results = std::mem::take(&mut *results.lock().expect("results poisoned"));
    let mut shard_counts = vec![0u64; shards];
    let mut errors = 0u64;
    for &(shard, _, err) in &results {
        shard_counts[shard] += 1;
        errors += err as u64;
    }
    let samples: Vec<f64> = results.into_iter().map(|(_, ms, _)| ms).collect();
    let wall_s = started.elapsed().as_secs_f64();

    // Serving tiers, decoded from the per-analysis latency histograms
    // the service records as it runs. Exact counts and exact means;
    // p99 is the log2 bucket upper bound.
    let cold = tier(&snap, "request_miss_us");
    let disk = tier(&snap, "request_disk_us");
    let warm = tier(&snap, "request_hit_us");
    let coalesced = tier(&snap, "request_coalesced_us");
    let queue_wait = snap.histogram("pool_queue_wait_us");
    // Banded in BENCH_service_throughput.json: the p99 *bucket index*
    // of the pool's queue-wait histogram, which grows with log2 of the
    // wait — machine-tolerant where raw microseconds are not.
    let queue_wait_p99_buckets = queue_wait
        .map(|h| h.quantile_bucket(0.99) as f64)
        .unwrap_or(0.0);
    let p50 = percentile(&samples, 50.0);
    let p99 = percentile(&samples, 99.0);
    let v = |name: &str| snap.value(name);
    let peak_resident_bytes = v("store_peak_resident_bytes");
    // The budget the peak is judged against: the per-shard budget times
    // the shard count (aggregated peaks are summed the same way).
    let budget_bytes = shard_budget.saturating_mul(shards as u64);

    let rps = if wall_s > 0.0 {
        samples.len() as f64 / wall_s
    } else {
        0.0
    };

    println!("service_throughput: resident multi-app serving layer");
    println!(
        "  corpus: {} apps (code {:.0}‰), {} requests, seed {seed}",
        bench.count,
        bench.code_scale * 1000.0,
        trace.len()
    );
    println!(
        "  config: backend {}, {shards} shard(s) × {workers} workers, budget {} MiB per shard",
        backend.name(),
        shard_budget >> 20,
    );
    println!(
        "  throughput: {rps:.1} req/s ({:.1} ms wall for {} requests), p50 {p50:.3} ms, p99 {p99:.2} ms",
        wall_s * 1_000.0,
        samples.len()
    );
    for (i, n) in shard_counts.iter().enumerate() {
        let shard_rps = if wall_s > 0.0 {
            *n as f64 / wall_s
        } else {
            0.0
        };
        println!("  shard {i}: {n} requests, {shard_rps:.1} req/s");
    }
    println!(
        "  latency tiers (registry histograms, per analysis): cold-parse n={} mean={:.2} ms p99<={:.2} ms | disk-warm n={} mean={:.3} ms p99<={:.3} ms | memory-warm n={} mean={:.3} ms p99<={:.3} ms | coalesced n={}",
        cold.n,
        cold.mean_ms,
        cold.p99_ms,
        disk.n,
        disk.mean_ms,
        disk.p99_ms,
        warm.n,
        warm.mean_ms,
        warm.p99_ms,
        coalesced.n,
    );
    println!(
        "  store: {} loads, {} hits, {} coalesced, {} evictions ({} B evicted)",
        v("store_loads_total"),
        v("store_hits_total"),
        v("store_coalesced_total"),
        v("store_evictions_total"),
        v("store_bytes_evicted_total"),
    );
    if snapshot_dir.is_some() {
        println!(
            "  disk tier: {} hits, {} misses, {} invalidations, {} writes ({} B written, {} failures)",
            v("store_disk_hits_total"),
            v("store_disk_misses_total"),
            v("store_disk_invalidations_total"),
            v("store_disk_writes_total"),
            v("store_disk_bytes_written_total"),
            v("store_disk_write_failures_total"),
        );
    }
    println!(
        "  residency: peak {peak_resident_bytes} B of {budget_bytes} B budget ({} apps resident at exit), hit rate {:.1}%",
        v("store_resident_apps"),
        100.0 * hit_rate(&snap),
    );
    match queue_wait {
        Some(h) if h.count > 0 => println!(
            "  queue: peak in-flight {} ({} errors), wait n={} mean={:.1} us p99<={} us (bucket {})",
            v("service_peak_in_flight"),
            errors,
            h.count,
            h.mean(),
            h.quantile_upper(0.99),
            h.quantile_bucket(0.99),
        ),
        _ => println!(
            "  queue: peak in-flight {} ({} errors)",
            v("service_peak_in_flight"),
            errors
        ),
    }

    if let Some(path) = json_path_from_args() {
        let shard_rps: Vec<String> = shard_counts
            .iter()
            .map(|n| {
                backdroid_bench::json::num(if wall_s > 0.0 {
                    *n as f64 / wall_s
                } else {
                    0.0
                })
            })
            .collect();
        let obj = JsonObject::new()
            .int("apps", bench.count as u64)
            .int("requests", samples.len() as u64)
            .int("seed", seed)
            .str("backend", backend.name())
            .int("workers", workers as u64)
            .int("shards", shards as u64)
            .int("budget_bytes", budget_bytes)
            .int("cold", cold.n)
            .int("disk", disk.n)
            .int("warm", warm.n)
            .int("coalesced", coalesced.n)
            .int("errors", errors)
            .int("loads", v("store_loads_total"))
            .int("hits", v("store_hits_total"))
            .int("evictions", v("store_evictions_total"))
            .int("bytes_evicted", v("store_bytes_evicted_total"))
            .int("disk_hits", v("store_disk_hits_total"))
            .int("disk_misses", v("store_disk_misses_total"))
            .int("disk_invalidations", v("store_disk_invalidations_total"))
            .int("disk_bytes_written", v("store_disk_bytes_written_total"))
            .int("peak_resident_bytes", peak_resident_bytes)
            .int("peak_in_flight", v("service_peak_in_flight"))
            .float("queue_wait_p99_buckets", queue_wait_p99_buckets)
            .raw(
                "shard_requests",
                array(shard_counts.iter().map(|n| n.to_string())),
            )
            .raw("wall_shard_requests_per_sec", array(shard_rps))
            .float("wall_requests_per_sec", rps)
            .float("wall_p50_ms", p50)
            .float("wall_p99_ms", p99)
            .float("wall_cold_mean_ms", cold.mean_ms)
            .float("wall_cold_p99_ms", cold.p99_ms)
            .float("wall_disk_mean_ms", disk.mean_ms)
            .float("wall_disk_p99_ms", disk.p99_ms)
            .float("wall_warm_mean_ms", warm.mean_ms)
            .float("wall_warm_p99_ms", warm.p99_ms)
            .build();
        std::fs::write(&path, obj + "\n").expect("failed to write --json artifact");
        eprintln!("wrote JSON artifact to {}", path.display());
    }

    // Self-checks: the two claims every scaling PR on top of the store
    // will lean on. A caching store (budget > 0) must actually produce
    // warm hits on this workload, and cold loads always exist — an
    // empty bucket is itself a failure, never a silently skipped check.
    let mut failed = false;
    if peak_resident_bytes > budget_bytes {
        eprintln!("FAIL: store exceeded its budget ({peak_resident_bytes} B > {budget_bytes} B)");
        failed = true;
    }
    // Baseline for the residency comparison: cold parses when the run
    // had any, else disk-warm restores (a re-run against a populated
    // --snapshot-dir legitimately never cold-parses).
    let (tier_base, tier_label) = if cold.n > 0 {
        (&cold, "cold")
    } else {
        (&disk, "disk")
    };
    let warm_cold_checked = if shard_budget == 0 {
        eprintln!("note: zero-budget store — warm<cold comparison not applicable");
        false
    } else if tier_base.n == 0 || warm.n == 0 {
        eprintln!(
            "FAIL: warm<{tier_label} comparison is vacuous (cold n={}, disk n={}, warm n={}) — \
             the trace/budget cannot demonstrate residency",
            cold.n, disk.n, warm.n
        );
        failed = true;
        false
    } else if warm.mean_ms >= tier_base.mean_ms {
        eprintln!(
            "FAIL: warm-hit latency ({:.3} ms) is not below {tier_label}-load latency ({:.3} ms)",
            warm.mean_ms, tier_base.mean_ms
        );
        failed = true;
        false
    } else {
        true
    };
    // When both tiers below memory were exercised, the disk tier must
    // actually amortize preprocessing: a restore beating a full parse is
    // the snapshot layer's entire reason to exist.
    if cold.n > 0 && disk.n > 0 && disk.mean_ms >= cold.mean_ms {
        eprintln!(
            "FAIL: disk-warm latency ({:.3} ms) is not below cold-parse latency ({:.3} ms)",
            disk.mean_ms, cold.mean_ms
        );
        failed = true;
    }
    if errors > 0 {
        eprintln!("FAIL: {errors} request(s) errored");
        failed = true;
    }
    let total: u64 = shard_counts.iter().sum();
    if total != trace.len() as u64 {
        eprintln!(
            "FAIL: the pool answered {total} of {} requests",
            trace.len()
        );
        failed = true;
    }

    // Committed machine-independent envelope (--baseline): ratios and
    // counts only — the same file holds on any machine. Every run
    // drives the pool, so queue_wait_p99_buckets is measured in both CI
    // configs of this bin.
    let mut metrics: Vec<(&str, f64)> = vec![
        ("errors", errors as f64),
        ("hit_rate", hit_rate(&snap)),
        (
            "budget_utilization",
            if budget_bytes > 0 {
                peak_resident_bytes as f64 / budget_bytes as f64
            } else {
                0.0
            },
        ),
        ("queue_wait_p99_buckets", queue_wait_p99_buckets),
    ];
    if cold.n > 0 && cold.mean_ms > 0.0 && warm.n > 0 {
        metrics.push(("warm_cold_ratio", warm.mean_ms / cold.mean_ms));
    }
    if !Baseline::enforce_from_args("service_throughput", &metrics) {
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    if warm_cold_checked {
        eprintln!(
            "OK: budget respected ({peak_resident_bytes} <= {budget_bytes}), warm {:.3} ms < {tier_label} {:.2} ms",
            warm.mean_ms, tier_base.mean_ms
        );
    } else {
        eprintln!("OK: budget respected ({peak_resident_bytes} <= {budget_bytes})");
    }
}
