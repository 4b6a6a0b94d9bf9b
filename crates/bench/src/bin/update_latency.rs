//! Update-latency benchmark: the incremental analysis path for app
//! updates against the cold path it replaces.
//!
//! For every app in the benchset, walks a seeded `mutate_version` chain
//! and times each version twice:
//!
//! * **delta-warm** — what `put_version` + `analyze_delta` pay: rebuild
//!   the image, posting lists included, then the update's class walk and
//!   reuse gate plus a delta run that replays prior verdicts for every
//!   sink the update provably cannot have affected;
//! * **cold** — a from-scratch image build plus a full analysis of the
//!   same version, the cost an update would incur without the
//!   incremental path.
//!
//! Each side splits into a **build** phase (encode + dump + index — the
//! publish cost, paid once per version) and an **analysis** phase (what
//! every request after the publish pays). The warm build also forces
//! the posting lists, which `put_version` builds when it writes the
//! snapshot to a disk tier; the cold side leaves them to its first
//! query, so they land in its analysis phase. The incremental win
//! concentrates in the analysis phase, so that ratio
//! (`wall_analysis_speedup`) is the headline band; the end-to-end ratio
//! (`wall_update_speedup`) is banded too and must not regress below the
//! cold path.
//!
//! The two paths must agree verdict-for-verdict at every version
//! (counted as `mismatches`, banded at exactly 0), and the speedups plus
//! the reuse rates (chunks, sink verdicts) form the
//! machine-independent envelope committed in `BENCH_update_latency.json`
//! and checked by `--baseline` in CI.
//!
//! Flags: `--count N`, `--updates K`, `--code-permille M`,
//! `--backend linear|indexed`, `--smoke` (small CI preset),
//! `--json PATH`, `--baseline PATH`.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::mutate_version;
use backdroid_bench::json::JsonObject;
use backdroid_bench::{backend_from_args, json_path_from_args, Baseline};
use backdroid_core::{AppArtifacts, Backdroid, BackdroidOptions, DeltaManifest};
use backdroid_search::BackendChoice;
use backdroid_service::cli::{has_flag, parsed_arg, reject_unknown_flags};
use std::time::Instant;

/// The flags this bin reads; any other `-` argument is a usage error.
const FLAGS: &[&str] = &[
    "--count",
    "--updates",
    "--code-permille",
    "--backend",
    "--smoke",
    "--json",
    "--baseline",
];

fn main() {
    reject_unknown_flags(FLAGS);
    let smoke = has_flag("--smoke");
    let (def_count, def_updates, def_permille) = if smoke { (6, 3, 40) } else { (16, 4, 80) };
    let updates = parsed_arg("--updates", "a positive integer").unwrap_or(def_updates);
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
    let backend = backend_from_args();
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        ..BackdroidOptions::default()
    });

    let mut warm_build_ms = 0.0f64;
    let mut warm_analyze_ms = 0.0f64;
    let mut cold_build_ms = 0.0f64;
    let mut cold_analyze_ms = 0.0f64;
    let mut mismatches = 0usize;
    let mut fallbacks = 0u64;
    let mut updates_run = 0u64;
    let mut chunks_reused = 0u64;
    let mut chunks_total = 0u64;
    let mut sinks_reused = 0u64;
    let mut sinks_total = 0u64;

    for i in 0..bench.count {
        let ba = bench_app(i, bench);
        let manifest = ba.app.manifest;
        let mut program = ba.app.program;
        let mut old = AppArtifacts::with_backend(program.clone(), manifest.clone(), backend);
        // The serving layer captures the base on the first delta request;
        // here it is part of setup, not of either timed path.
        let (_, mut base, _) = tool.analyze_delta(None, None, &old);
        for step in 0..updates {
            let seed = (i as u64) * 1_000 + step as u64;
            let (next, _) = mutate_version(&program, seed);

            let t0 = Instant::now();
            let new = AppArtifacts::with_backend(next.clone(), manifest.clone(), backend);
            new.engine().text().search_index();
            warm_build_ms += t0.elapsed().as_secs_f64() * 1_000.0;
            // The class walk gives the gate as well as the chunk counts,
            // so it is timed with the analysis the gate serves.
            let t0 = Instant::now();
            let delta = DeltaManifest::between(old.program(), new.program());
            let gate = delta.gate(&old, &new);
            let (warm_report, new_base, stats) = tool.analyze_delta(Some(&gate), Some(&base), &new);
            warm_analyze_ms += t0.elapsed().as_secs_f64() * 1_000.0;
            chunks_reused += delta.unchanged.len() as u64;
            chunks_total +=
                (delta.unchanged.len() + delta.changed.len() + delta.added.len()) as u64;

            let t1 = Instant::now();
            let scratch = AppArtifacts::with_backend(next.clone(), manifest.clone(), backend);
            cold_build_ms += t1.elapsed().as_secs_f64() * 1_000.0;
            let t1 = Instant::now();
            let cold_report = tool.analyze_artifacts(&scratch);
            cold_analyze_ms += t1.elapsed().as_secs_f64() * 1_000.0;

            if warm_report.sink_reports != cold_report.sink_reports {
                eprintln!("MISMATCH: app {i} update {step}: delta diverged from cold");
                mismatches += 1;
            }
            sinks_reused += stats.sinks_reused as u64;
            sinks_total += (stats.sinks_reused + stats.sinks_reanalyzed) as u64;
            fallbacks += stats.full_fallback as u64;
            updates_run += 1;

            program = next;
            old = new;
            base = new_base;
        }
    }

    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let warm_ms = warm_build_ms + warm_analyze_ms;
    let cold_ms = cold_build_ms + cold_analyze_ms;
    let speedup = if warm_ms > 0.0 {
        cold_ms / warm_ms
    } else {
        0.0
    };
    let analysis_speedup = if warm_analyze_ms > 0.0 {
        cold_analyze_ms / warm_analyze_ms
    } else {
        0.0
    };
    let n = updates_run.max(1) as f64;
    println!("update_latency: incremental app-update analysis");
    println!(
        "  corpus: {} apps (code {:.0}‰) x {updates} updates, backend {}",
        bench.count,
        bench.code_scale * 1000.0,
        backend.name()
    );
    println!(
        "  delta-warm: {:.2} ms/update (build {:.2} + analyze {:.2}) | \
         cold: {:.2} ms/update (build {:.2} + analyze {:.2})",
        warm_ms / n,
        warm_build_ms / n,
        warm_analyze_ms / n,
        cold_ms / n,
        cold_build_ms / n,
        cold_analyze_ms / n
    );
    println!("  speedup: {analysis_speedup:.1}x analysis phase, {speedup:.2}x end-to-end");
    println!(
        "  reuse: chunks {:.2}, sink verdicts {:.2} | full fallbacks {fallbacks}/{updates_run}",
        ratio(chunks_reused, chunks_total),
        ratio(sinks_reused, sinks_total)
    );
    println!("  mismatches: {mismatches}");

    if let Some(path) = json_path_from_args() {
        let obj = JsonObject::new()
            .int("apps", bench.count as u64)
            .int("updates_per_app", updates as u64)
            .str("backend", backend.name())
            .int("mismatches", mismatches as u64)
            .int("delta_full_fallbacks", fallbacks)
            .float("chunk_reuse_rate", ratio(chunks_reused, chunks_total))
            .float("sink_reuse_rate", ratio(sinks_reused, sinks_total))
            .float("wall_warm_ms_per_update", warm_ms / n)
            .float("wall_cold_ms_per_update", cold_ms / n)
            .float("wall_warm_analyze_ms_per_update", warm_analyze_ms / n)
            .float("wall_cold_analyze_ms_per_update", cold_analyze_ms / n)
            .float("wall_analysis_speedup", analysis_speedup)
            .float("wall_update_speedup", speedup)
            .build();
        std::fs::write(&path, obj + "\n").expect("failed to write --json artifact");
        eprintln!("wrote JSON artifact to {}", path.display());
    }

    let mut failed = false;
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} update(s) diverged from the cold analysis");
        failed = true;
    }
    // The planner validates every reused verdict by replaying its traced
    // search commands against the new image; that replay is cheap only
    // when searches are indexed. On the linear backend a replayed scan
    // costs as much as the original search, so the analysis phase is
    // expected to break even there and only correctness is enforced.
    if backend == BackendChoice::Indexed && warm_analyze_ms >= cold_analyze_ms {
        eprintln!(
            "FAIL: the delta analysis phase ({warm_analyze_ms:.1} ms total) is not faster \
             than a full analysis ({cold_analyze_ms:.1} ms total)"
        );
        failed = true;
    }
    let metrics = [
        ("mismatches", mismatches as f64),
        ("fallback_rate", ratio(fallbacks, updates_run)),
        ("chunk_reuse_rate", ratio(chunks_reused, chunks_total)),
        ("sink_reuse_rate", ratio(sinks_reused, sinks_total)),
        ("wall_analysis_speedup", analysis_speedup),
        ("wall_update_speedup", speedup),
    ];
    if !Baseline::enforce_from_args("update_latency", &metrics) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
