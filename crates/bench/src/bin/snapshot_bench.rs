//! Snapshot-layer benchmark: for every app in a benchset, measures the
//! full cold parse (generate → encode → disassemble → index) against
//! `to_snapshot` (serialize, posting lists included) and
//! `from_snapshot` (restore), and verifies the restore is *exact* —
//! re-snapshotting the restored image must reproduce the original bytes,
//! and analyzing it must reproduce the fresh image's report.
//!
//! Stdout reports per-corpus aggregates: snapshot size vs estimated
//! resident size, restore speedup over the parse, and the verification
//! verdict. The bin exits non-zero if any app's round-trip diverges, if
//! full-touch restoring is not faster than parsing in aggregate, or if
//! a manifest-only lazy restore is not faster than the full decode —
//! the two invariants the serving layer's disk tier depends on.
//!
//! Two restore modes are timed separately:
//! * **full-touch** — `from_snapshot` plus forcing the text arena and
//!   posting lists, the cost of a disk-warm load that immediately
//!   searches (what the cold parse is compared against);
//! * **manifest-only** — `from_snapshot` plus store accounting
//!   (`estimated_bytes`, package name) with the lazy text/index
//!   sections verified to stay unmaterialized — the disk-warm-restore
//!   latency a request that never searches actually pays. The total
//!   section count accidentally forced across every lazy restore is
//!   reported as `lazy_sections_materialized` and banded at exactly 0
//!   in the committed baseline.
//!
//! The restore must also be *behaviourally* identical to the fresh
//! build at the search-engine level: analyzing the restored image must
//! touch exactly as many index postings as analyzing the fresh one
//! (`postings_touched` parity), proving the snapshot carried the
//! posting lists rather than rebuilding different ones.
//!
//! Flags: `--count N`, `--code-permille M`, `--backend linear|indexed`,
//! `--smoke` (small CI preset), `--json PATH`, `--baseline PATH`
//! (check machine-independent ratios — restore speedup, size ratio,
//! postings parity — against a committed `BENCH_*.json` envelope).

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_bench::json::JsonObject;
use backdroid_bench::{backend_from_args, json_path_from_args, Baseline};
use backdroid_core::{AppArtifacts, Backdroid, BackdroidOptions};
use backdroid_service::cli::{has_flag, parsed_arg, reject_unknown_flags};
use std::time::Instant;

/// The flags this bin reads; any other `-` argument is a usage error.
const FLAGS: &[&str] = &[
    "--count",
    "--code-permille",
    "--backend",
    "--smoke",
    "--json",
    "--baseline",
];

fn main() {
    reject_unknown_flags(FLAGS);
    let smoke = has_flag("--smoke");
    let (def_count, def_permille) = if smoke { (8, 40) } else { (24, 80) };
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

    let mut parse_ms = 0.0f64;
    let mut snapshot_ms = 0.0f64;
    let mut restore_ms = 0.0f64;
    let mut lazy_ms = 0.0f64;
    let mut snapshot_bytes = 0u64;
    let mut estimated_bytes = 0u64;
    let mut mismatches = 0usize;
    let mut lazy_sections = 0u64;
    let mut postings_fresh = 0u64;
    let mut postings_restored = 0u64;

    for i in 0..bench.count {
        let t0 = Instant::now();
        let ba = bench_app(i, bench);
        let fresh = AppArtifacts::with_backend(ba.app.program, ba.app.manifest, backend);
        // The cold path the disk tier replaces also pays the posting-list
        // build on its first indexed query; charge it here so the
        // comparison is parse-work vs restore-work, not lazy-vs-eager.
        let _ = fresh.engine().text().search_index();
        parse_ms += t0.elapsed().as_secs_f64() * 1_000.0;

        let t1 = Instant::now();
        let bytes = fresh.to_snapshot();
        snapshot_ms += t1.elapsed().as_secs_f64() * 1_000.0;
        snapshot_bytes += bytes.len() as u64;
        estimated_bytes += fresh.estimated_bytes();

        let t2 = Instant::now();
        let restored = AppArtifacts::from_snapshot(&bytes, backend)
            .unwrap_or_else(|e| panic!("app {i}: snapshot failed to restore: {e}"));
        // Full-touch: force the lazy sections the way a first analysis
        // would, so the parse comparison stays work-for-work fair.
        let _ = restored.program();
        let text = restored.engine().text();
        let _ = text.search_index();
        if text.line_count() > 0 {
            let _ = text.line(0);
        }
        restore_ms += t2.elapsed().as_secs_f64() * 1_000.0;

        // Manifest-only: restore again and touch nothing but the header
        // facts the app store reads — the lazy sections must stay parked.
        let t3 = Instant::now();
        let lazy = AppArtifacts::from_snapshot(&bytes, backend)
            .unwrap_or_else(|e| panic!("app {i}: lazy restore failed: {e}"));
        let _ = lazy.estimated_bytes();
        let _ = lazy.manifest().package();
        lazy_ms += t3.elapsed().as_secs_f64() * 1_000.0;
        let lazy_secs = lazy.materialized_sections();
        lazy_sections += lazy_secs;
        if lazy_secs > 0 {
            eprintln!(
                "MISMATCH: app {i} manifest-only restore materialized {lazy_secs} lazy section(s)"
            );
            mismatches += 1;
        }

        // Exactness: byte-identical re-snapshot, identical analysis.
        if restored.to_snapshot() != bytes
            || tool.analyze_artifacts(&restored).sink_reports
                != tool.analyze_artifacts(&fresh).sink_reports
        {
            eprintln!("MISMATCH: app {i} diverged after restore");
            mismatches += 1;
        }
        // Engine-level parity: the restored index must drive the same
        // postings traffic the fresh one does (both 0 under --backend
        // linear, which has no postings).
        postings_restored += restored.engine().stats().postings_touched;
        postings_fresh += fresh.engine().stats().postings_touched;
    }

    let n = bench.count as f64;
    let speedup = if restore_ms > 0.0 {
        parse_ms / restore_ms
    } else {
        0.0
    };
    println!("snapshot_bench: persistent app-image snapshots");
    println!(
        "  corpus: {} apps (code {:.0}‰), backend {}",
        bench.count,
        bench.code_scale * 1000.0,
        backend.name()
    );
    println!(
        "  cold parse: {:.2} ms/app | to_snapshot: {:.2} ms/app | from_snapshot: {:.2} ms/app",
        parse_ms / n,
        snapshot_ms / n,
        restore_ms / n
    );
    println!(
        "  manifest-only lazy restore: {:.3} ms/app ({:.1}x below the full decode)",
        lazy_ms / n,
        if lazy_ms > 0.0 {
            restore_ms / lazy_ms
        } else {
            0.0
        }
    );
    println!(
        "  size: {:.1} KiB/app on disk vs {:.1} KiB/app estimated resident",
        snapshot_bytes as f64 / n / 1024.0,
        estimated_bytes as f64 / n / 1024.0
    );
    println!(
        "  restore speedup over cold parse: {speedup:.1}x | round-trip mismatches: {mismatches}"
    );
    println!(
        "  postings touched: {postings_fresh} fresh vs {postings_restored} restored ({:.1}/app)",
        postings_fresh as f64 / n
    );

    if let Some(path) = json_path_from_args() {
        let obj = JsonObject::new()
            .int("apps", bench.count as u64)
            .str("backend", backend.name())
            .int("snapshot_bytes_total", snapshot_bytes)
            .int("estimated_resident_bytes_total", estimated_bytes)
            .int("mismatches", mismatches as u64)
            .int("lazy_sections_materialized", lazy_sections)
            .int("postings_touched_fresh", postings_fresh)
            .int("postings_touched_restored", postings_restored)
            .float("wall_parse_ms_per_app", parse_ms / n)
            .float("wall_snapshot_ms_per_app", snapshot_ms / n)
            .float("wall_restore_ms_per_app", restore_ms / n)
            .float("wall_lazy_restore_ms_per_app", lazy_ms / n)
            .float("wall_restore_speedup", speedup)
            .float(
                "wall_lazy_restore_speedup",
                if lazy_ms > 0.0 {
                    restore_ms / lazy_ms
                } else {
                    0.0
                },
            )
            .build();
        std::fs::write(&path, obj + "\n").expect("failed to write --json artifact");
        eprintln!("wrote JSON artifact to {}", path.display());
    }

    let mut failed = false;
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} app(s) did not round-trip exactly");
        failed = true;
    }
    if restore_ms >= parse_ms {
        eprintln!(
            "FAIL: restoring ({restore_ms:.1} ms total) is not faster than parsing \
             ({parse_ms:.1} ms total) — the disk tier would be pointless"
        );
        failed = true;
    }
    if lazy_ms >= restore_ms {
        eprintln!(
            "FAIL: a manifest-only restore ({lazy_ms:.1} ms total) is not faster than the \
             eager full decode ({restore_ms:.1} ms total) — the lazy sections buy nothing"
        );
        failed = true;
    }
    if postings_restored != postings_fresh {
        eprintln!(
            "FAIL: restored images touched {postings_restored} postings where fresh builds \
             touched {postings_fresh} — the snapshot did not carry the index faithfully"
        );
        failed = true;
    }

    // Committed machine-independent envelope (--baseline): ratios and
    // counts only, no absolute wall-clock.
    let postings_parity = if postings_fresh == 0 {
        1.0
    } else {
        postings_restored as f64 / postings_fresh as f64
    };
    let metrics: Vec<(&str, f64)> = vec![
        ("mismatches", mismatches as f64),
        ("lazy_sections_materialized", lazy_sections as f64),
        ("wall_restore_speedup", speedup),
        (
            "wall_lazy_restore_speedup",
            if lazy_ms > 0.0 {
                restore_ms / lazy_ms
            } else {
                0.0
            },
        ),
        ("postings_parity", postings_parity),
        ("postings_per_app", postings_fresh as f64 / n),
        (
            "snapshot_resident_ratio",
            if estimated_bytes > 0 {
                snapshot_bytes as f64 / estimated_bytes as f64
            } else {
                0.0
            },
        ),
    ];
    if !Baseline::enforce_from_args("snapshot_bench", &metrics) {
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "OK: {} apps round-tripped byte-identically, restore {speedup:.1}x faster than parse",
        bench.count
    );
}
