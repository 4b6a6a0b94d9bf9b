//! Head-to-head over the benchmark corpus: the `LinearScan` oracle vs
//! the `Indexed` posting-list backend.
//!
//! For every generated app this bin runs the full BackDroid pipeline
//! once per backend and then
//!
//! 1. **verifies exact equivalence** — identical vulnerable-sink counts,
//!    sink sites, cache rates, and linear-model work (any divergence
//!    aborts the run, making this a corpus-scale oracle check on top of
//!    the unit/property tests), and
//! 2. **reports both cost models** — the paper-calibrated grep minutes
//!    (`lines_scanned`) next to the indexed minutes
//!    (`postings_touched`), per app and in aggregate.
//!
//! Runs on the parallel corpus driver; stdout and `--json` output are
//! byte-identical for any `--threads` value.
//!
//! A third leg micro-benchmarks the **symbol-interned probe path**: the
//! same token set is probed through the intern table (hash the needle's
//! parts, compare one arena slice) and through a string-keyed map fed
//! with `format!`-ed keys (the pre-interning hot path). Both sides must
//! agree probe-for-probe; the wall-clock speedup goes to stderr and the
//! corpus-wide interned-symbol count is reported and banded.

use backdroid_appgen::benchset::bench_app;
use backdroid_bench::baseline::Baseline;
use backdroid_bench::harness::{
    json_path_from_args, median, par_map, run_backdroid_with_backend, scale_from_args,
    threads_from_args, SCALE_FLAGS,
};
use backdroid_bench::json::{array, JsonObject};
use backdroid_core::BackendChoice;
use backdroid_dex::{dump_image, DexImage};
use backdroid_search::{BytecodeText, SymbolTable};
use backdroid_service::cli::reject_unknown_flags;
use std::collections::HashMap;
use std::time::Instant;

/// Probes every index token of the corpus through the intern table and
/// through a string-keyed map with `format!`-ed keys, verifying
/// hit-for-hit agreement. Returns `(symbols_total, interned_speedup)`;
/// the speedup is wall-clock, so callers report it on stderr only.
fn interned_probe_microbench(texts: &[BytecodeText]) -> (u64, f64) {
    const ROUNDS: usize = 40;
    let mut symbols_total = 0u64;
    let mut interned_ns = 0u128;
    let mut string_ns = 0u128;
    for text in texts {
        let index = text.search_index();
        symbols_total += index.token_count() as u64;
        // Both probe representations over the same postings. The tokens
        // split into the (2-byte namespace prefix, payload) parts the
        // query path presents.
        let mut table = SymbolTable::new();
        let mut string_map: HashMap<String, u32> = HashMap::new();
        let probes: Vec<(&str, &str, u32)> = index
            .iter_postings()
            .map(|(tok, lines)| {
                table.intern(&[tok]);
                string_map.insert(tok.to_string(), lines.len() as u32);
                (&tok[..2], &tok[2..], lines.len() as u32)
            })
            .collect();

        let t = Instant::now();
        let mut interned_hits = 0u64;
        for _ in 0..ROUNDS {
            for &(prefix, payload, _) in &probes {
                if table.lookup(&[prefix, payload]).is_some() {
                    interned_hits += 1;
                }
            }
        }
        interned_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        let mut string_hits = 0u64;
        for _ in 0..ROUNDS {
            for &(prefix, payload, expect) in &probes {
                // The pre-interning hot path: format a fresh key per
                // probe, then hash + compare it against the map's keys.
                if string_map.get(&format!("{prefix}{payload}")) == Some(&expect) {
                    string_hits += 1;
                }
            }
        }
        string_ns += t.elapsed().as_nanos();

        assert_eq!(
            interned_hits, string_hits,
            "interned and string-keyed probes disagreed"
        );
        assert_eq!(interned_hits as usize, probes.len() * ROUNDS);
    }
    let speedup = if interned_ns > 0 {
        string_ns as f64 / interned_ns as f64
    } else {
        0.0
    };
    (symbols_total, speedup)
}

fn main() {
    reject_unknown_flags(&[SCALE_FLAGS, &["--threads", "--json", "--baseline"]].concat());
    let scale = scale_from_args();
    let threads = threads_from_args();
    let cfg = scale.config();

    let rows = par_map(cfg.count, threads, |i| {
        let ba = bench_app(i, cfg);
        let lin = run_backdroid_with_backend(&ba.app, BackendChoice::LinearScan);
        let idx = run_backdroid_with_backend(&ba.app, BackendChoice::Indexed);
        // The oracle check: the indexed backend must be indistinguishable
        // in everything but the work measure.
        assert_eq!(
            lin.vulnerable, idx.vulnerable,
            "{}: backend verdict divergence",
            lin.app
        );
        assert_eq!(
            lin.sinks_analyzed, idx.sinks_analyzed,
            "{}: sink-site divergence",
            lin.app
        );
        assert_eq!(
            lin.cache_rate, idx.cache_rate,
            "{}: command-stream divergence",
            lin.app
        );
        assert_eq!(
            lin.lines_scanned, idx.lines_scanned,
            "{}: linear-model accounting divergence",
            lin.app
        );
        (lin, idx)
    });

    println!(
        "Search backend comparison over {} apps (oracle check: all identical)\n",
        rows.len()
    );
    println!(
        "{:<22} {:>8} {:>14} {:>16} {:>9}",
        "app", "sinks", "grep lines", "postings touched", "reduction"
    );
    let mut lin_minutes = Vec::new();
    let mut idx_minutes = Vec::new();
    let mut lines_total = 0u64;
    let mut postings_total = 0u64;
    for (lin, idx) in &rows {
        let reduction =
            100.0 * (1.0 - idx.postings_touched as f64 / lin.lines_scanned.max(1) as f64);
        println!(
            "{:<22} {:>8} {:>14} {:>16} {:>8.1}%",
            lin.app, lin.sinks_analyzed, lin.lines_scanned, idx.postings_touched, reduction
        );
        lin_minutes.push(lin.minutes);
        idx_minutes.push(idx.minutes_indexed);
        lines_total += lin.lines_scanned;
        postings_total += idx.postings_touched;
    }

    // Symbol-interned probe path: rebuild the corpus texts once and
    // drive every index token through both key representations.
    let texts: Vec<BytecodeText> = (0..cfg.count)
        .map(|i| {
            BytecodeText::index(&dump_image(&DexImage::encode(
                &bench_app(i, cfg).app.program,
            )))
        })
        .collect();
    let (symbols_total, probe_speedup) = interned_probe_microbench(&texts);

    let lin_med = median(&lin_minutes);
    let idx_med = median(&idx_minutes);
    println!("\nAggregate:");
    println!("  linear grep lines:        {lines_total}");
    println!("  indexed postings touched: {postings_total}");
    println!("  interned symbols:         {symbols_total}");
    println!(
        "  corpus reduction:         {:.1}% of linear scan work avoided",
        100.0 * (1.0 - postings_total as f64 / lines_total.max(1) as f64)
    );
    println!(
        "  median scaled minutes:    {lin_med:.3} (linear model) vs {idx_med:.3} (indexed model)"
    );
    if idx_med > 0.0 {
        println!("  median model speedup:     {:.1}x", lin_med / idx_med);
    }
    // Wall-clock to stderr: the interned probe vs the format!-keyed map.
    eprintln!(
        "interned-probe speedup: {probe_speedup:.2}x over string-keyed probes \
         ({symbols_total} symbols, hit-for-hit identical)"
    );
    if let Some(path) = json_path_from_args() {
        let apps = array(rows.iter().map(|(lin, idx)| {
            JsonObject::new()
                .str("app", &lin.app)
                .int("sinks_analyzed", lin.sinks_analyzed as u64)
                .int("vulnerable", lin.vulnerable as u64)
                .int("lines_scanned", lin.lines_scanned)
                .int("postings_touched", idx.postings_touched)
                .float("minutes_linear", lin.minutes)
                .float("minutes_indexed", idx.minutes_indexed)
                .build()
        }));
        let summary = JsonObject::new()
            .int("apps", rows.len() as u64)
            .int("lines_scanned_total", lines_total)
            .int("postings_touched_total", postings_total)
            .int("symbols_total", symbols_total)
            .float("median_minutes_linear", lin_med)
            .float("median_minutes_indexed", idx_med)
            .build();
        let doc = JsonObject::new()
            .raw("summary", summary)
            .raw("apps", apps)
            .build();
        std::fs::write(&path, doc).expect("write --json artifact");
        eprintln!("wrote {}", path.display());
    }

    // PR-7: the committed machine-independent envelope
    // (`BENCH_search_backend.json`, enforced when `--baseline` is
    // given). Counts, ratios, and model minutes only — the oracle
    // asserts above already pin exact backend equivalence, so the bands
    // track the *work* trajectory: how much linear scanning the index
    // avoids on the fixed corpus.
    let metrics = [
        ("apps", rows.len() as f64),
        ("lines_scanned_total", lines_total as f64),
        ("postings_touched_total", postings_total as f64),
        ("symbols_total", symbols_total as f64),
        (
            "postings_reduction",
            1.0 - postings_total as f64 / lines_total.max(1) as f64,
        ),
        (
            "model_speedup",
            if idx_med > 0.0 {
                lin_med / idx_med
            } else {
                0.0
            },
        ),
    ];
    if !Baseline::enforce_from_args("search_backend_bench", &metrics) {
        std::process::exit(1);
    }
}
