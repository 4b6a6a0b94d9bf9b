//! Regenerates the **§IV-F implementation-enhancement statistics**:
//!
//! * search-command cache rate per app — paper: average 23.39%,
//!   min 2.97%, max 88.95%;
//! * sink API call cache rate — paper: average 13.86%, max 68.18%;
//! * dead method-loop detection — paper: ≥1 loop in 60% of apps,
//!   `CrossBackward` the most common kind.
//!
//! Apps run on the parallel corpus driver (`--threads N`) with the
//! selected search backend (`--backend linear|indexed`); stdout and the
//! `--json` artifact are byte-identical to a sequential run.

use backdroid_appgen::benchset::bench_app;
use backdroid_bench::harness::{
    backend_from_args, json_path_from_args, par_map, run_backdroid_with_backend, scale_from_args,
    threads_from_args, SCALE_FLAGS,
};
use backdroid_bench::json::{array, JsonObject};
use backdroid_service::cli::reject_unknown_flags;
use std::collections::BTreeMap;

fn main() {
    reject_unknown_flags(&[SCALE_FLAGS, &["--backend", "--threads", "--json"]].concat());
    let scale = scale_from_args();
    let backend = backend_from_args();
    let threads = threads_from_args();
    let cfg = scale.config();

    let runs = par_map(cfg.count, threads, |i| {
        let ba = bench_app(i, cfg);
        run_backdroid_with_backend(&ba.app, backend)
    });
    let total = runs.len();

    let mut cache_rates = Vec::new();
    let mut sink_rates = Vec::new();
    let mut apps_with_loops = 0usize;
    let mut loop_kind_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut lines_total = 0u64;
    let mut postings_total = 0u64;

    for run in &runs {
        cache_rates.push(run.cache_rate * 100.0);
        sink_rates.push(run.sink_cache_rate * 100.0);
        lines_total += run.lines_scanned;
        postings_total += run.postings_touched;
        if run.loops_detected {
            apps_with_loops += 1;
            if let Some(k) = &run.top_loop {
                *loop_kind_counts.entry(k.clone()).or_insert(0) += 1;
            }
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);

    println!(
        "§IV-F implementation-enhancement statistics over {} apps ({} search backend)\n",
        total,
        backend.name()
    );
    println!("Search-command caching:");
    println!(
        "  cache rate: avg {:.2}%  min {:.2}%  max {:.2}%   [paper: avg 23.39, min 2.97, max 88.95]",
        avg(&cache_rates),
        min(&cache_rates),
        max(&cache_rates)
    );
    println!("\nSink API call caching:");
    println!(
        "  cached sink calls: avg {:.2}%  max {:.2}%   [paper: avg 13.86, max 68.18]",
        avg(&sink_rates),
        max(&sink_rates)
    );
    println!("\nSearch work (both cost models):");
    println!("  linear-model grep lines:   {lines_total}");
    println!("  indexed postings touched:  {postings_total}");
    if postings_total > 0 && lines_total > 0 {
        println!(
            "  index reduction:           {:.1}% of the linear work avoided",
            100.0 * (1.0 - postings_total as f64 / lines_total as f64)
        );
    }
    println!("\nMethod-loop detection:");
    println!(
        "  apps with >=1 dead loop detected: {}/{} ({:.0}%)   [paper: 60%]",
        apps_with_loops,
        total,
        100.0 * apps_with_loops as f64 / total as f64
    );
    println!("  most common loop kind per app:");
    for (k, c) in &loop_kind_counts {
        println!("    {k:<16} {c}");
    }
    println!("  [paper: CrossBackward is the most common kind]");

    if let Some(path) = json_path_from_args() {
        let summary = JsonObject::new()
            .str("backend", backend.name())
            .int("apps", total as u64)
            .float("cache_rate_avg", avg(&cache_rates))
            .float("cache_rate_min", min(&cache_rates))
            .float("cache_rate_max", max(&cache_rates))
            .float("sink_cache_avg", avg(&sink_rates))
            .float("sink_cache_max", max(&sink_rates))
            .int("lines_scanned_total", lines_total)
            .int("postings_touched_total", postings_total)
            .int("apps_with_loops", apps_with_loops as u64)
            .build();
        let doc = JsonObject::new()
            .raw("summary", summary)
            .raw("apps", array(runs.iter().map(|r| r.to_json())))
            .build();
        std::fs::write(&path, doc).expect("write --json artifact");
        eprintln!("wrote {}", path.display());
    }
}
