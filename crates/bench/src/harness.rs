//! Shared harness utilities: running both tools over the benchmark set
//! (sequentially or with the parallel corpus driver), deterministic
//! scaled-time conversion, and distribution bucketing.
//!
//! ## Time scaling
//!
//! Absolute wall-clock numbers cannot be compared to the paper's i7-4790
//! testbed, so each tool also reports a *deterministic, machine-independent*
//! work measure that the harness converts to "scaled minutes":
//!
//! * **BackDroid (linear model)** — dump lines a full grep scans for the
//!   uncached search commands (the paper tool's cost driver), divided by
//!   [`BACKDROID_LINES_PER_MINUTE`]. Charged identically under either
//!   search backend, so every figure calibrated against the paper is
//!   backend-invariant.
//! * **BackDroid (indexed model)** — posting-list candidate lines the
//!   `Indexed` backend actually touched (`CacheStats::postings_touched`),
//!   through the same divisor, so both cost models land on one scale.
//! * **Amandroid baseline** — statement-visit work units, divided by
//!   `backdroid_wholeapp::WORK_UNITS_PER_MINUTE` (whose 300-minute budget
//!   is the paper's timeout).
//!
//! Real wall-clock milliseconds are reported alongside, unscaled. Keep
//! them out of report stdout and `--json` artifacts: the corpus driver
//! guarantees byte-identical deterministic output between sequential and
//! parallel runs, and wall-clock values are the one nondeterministic
//! field.
//!
//! ## The parallel corpus driver
//!
//! [`par_map`] fans one closure out over `0..count` with scoped worker
//! threads and reassembles results **in index order**, so
//! [`run_benchset_with`] and the report bins produce byte-identical
//! deterministic output no matter the thread count (`--threads 1` *is*
//! the sequential path).

use backdroid_appgen::benchset::{bench_app, BenchApp, BenchsetConfig, Profile};
use backdroid_core::{AppArtifacts, Backdroid, BackdroidOptions, BackendChoice};
use backdroid_search::BytecodeText;
use backdroid_service::cli::{arg_value, has_flag, parsed_arg, usage_error};
use backdroid_wholeapp::amandroid::{analyze, AmandroidConfig, Outcome};
use backdroid_wholeapp::paper_minutes;
use serde::Serialize;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::json::{array, JsonObject};

/// Calibration: dump lines BackDroid scans per scaled minute. Chosen so
/// the benchmark set's median lands near the paper's 2.13 min.
pub const BACKDROID_LINES_PER_MINUTE: f64 = 750_000.0;

/// Harness scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The paper-scale 144-app set.
    Full,
    /// A reduced set for quick runs and CI.
    Small,
    /// An arbitrary corpus size (the `--count` knob): `code_permille`
    /// scales the filler-code volume in thousandths (80 ≙ the `Small`
    /// volume, 1000 ≙ paper scale).
    Sized {
        /// Number of generated apps.
        count: usize,
        /// Filler-code volume in thousandths of paper scale.
        code_permille: u32,
    },
}

impl Scale {
    /// The corresponding benchmark-set configuration.
    pub fn config(self) -> BenchsetConfig {
        match self {
            Scale::Full => BenchsetConfig::full(),
            Scale::Small => BenchsetConfig::small(),
            Scale::Sized {
                count,
                code_permille,
            } => BenchsetConfig::sized(count, code_permille as f64 / 1000.0),
        }
    }
}

/// The flags [`scale_from_args`] reads.
pub const SCALE_FLAGS: &[&str] = &["--small", "--count", "--code-permille"];

/// Parses the harness scale from argv: `--small` (default: the full
/// paper-scale set), or `--count N` (+ optional `--code-permille M`,
/// default 80) for an arbitrary corpus size. Degenerate sizes (`--count 0`,
/// `--code-permille 0`) are hard usage errors, checked through
/// [`BenchsetConfig::try_sized`] — a benchset the user did not ask for
/// must never run silently.
pub fn scale_from_args() -> Scale {
    if let Some(count) = parsed_arg("--count", "a positive integer") {
        let code_permille: u32 =
            parsed_arg("--code-permille", "an integer (1000 ≙ paper scale)").unwrap_or(80);
        if let Err(e) = BenchsetConfig::try_sized(count, code_permille as f64 / 1000.0) {
            eprintln!("error: invalid corpus size: {e}");
            std::process::exit(2)
        }
        return Scale::Sized {
            count,
            code_permille,
        };
    }
    if has_flag("--small") {
        Scale::Small
    } else {
        Scale::Full
    }
}

/// Parses `--backend linear|indexed` from argv (default indexed).
pub fn backend_from_args() -> BackendChoice {
    match arg_value("--backend") {
        Some(v) => BackendChoice::parse(&v)
            .unwrap_or_else(|| usage_error("--backend", &v, "\"linear\" or \"indexed\"")),
        None => BackendChoice::default(),
    }
}

/// Parses `--threads N` from argv; defaults to the machine's available
/// parallelism.
pub fn threads_from_args() -> usize {
    parsed_arg::<NonZeroUsize>("--threads", "a positive integer")
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
}

/// Parses `--json PATH` from argv: where to write the run's JSON
/// artifact.
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    arg_value("--json").map(std::path::PathBuf::from)
}

/// The parallel corpus driver: applies `f` to every index in `0..count`
/// on `threads` scoped workers and returns the results **in index
/// order**. With `threads <= 1` this is a plain sequential map — the
/// parallel path is guaranteed to produce the identical `Vec`, so
/// deterministic report output is byte-identical either way. A worker
/// panic propagates.
pub fn par_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("corpus worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// One BackDroid run result.
#[derive(Clone, Debug, Serialize)]
pub struct BackdroidRun {
    /// App name.
    pub app: String,
    /// Search backend the run used (`"linear"` / `"indexed"`).
    pub backend: String,
    /// Scaled analysis time in paper minutes (linear cost model —
    /// backend-invariant, calibrated against the paper).
    pub minutes: f64,
    /// Scaled analysis time under the indexed cost model
    /// (`postings_touched`-based; equals the preprocessing floor for
    /// linear-backend runs, whose indexed work is zero).
    pub minutes_indexed: f64,
    /// Real wall-clock milliseconds (nondeterministic — keep out of
    /// report stdout and JSON artifacts).
    pub wall_ms: f64,
    /// Linear-model grep lines for the uncached search commands.
    pub lines_scanned: u64,
    /// Posting-list candidate lines the indexed backend examined.
    pub postings_touched: u64,
    /// Number of sink call sites analyzed.
    pub sinks_analyzed: usize,
    /// Vulnerable sinks found.
    pub vulnerable: usize,
    /// Search-cache hit rate.
    pub cache_rate: f64,
    /// Sink-cache (skip) rate.
    pub sink_cache_rate: f64,
    /// Whether any dead method loop was detected.
    pub loops_detected: bool,
    /// Most common loop kind, if any.
    pub top_loop: Option<String>,
}

impl BackdroidRun {
    /// Deterministic JSON rendering (no wall-clock field).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("app", &self.app)
            .str("backend", &self.backend)
            .float("minutes", self.minutes)
            .float("minutes_indexed", self.minutes_indexed)
            .int("lines_scanned", self.lines_scanned)
            .int("postings_touched", self.postings_touched)
            .int("sinks_analyzed", self.sinks_analyzed as u64)
            .int("vulnerable", self.vulnerable as u64)
            .float("cache_rate", self.cache_rate)
            .float("sink_cache_rate", self.sink_cache_rate)
            .bool("loops_detected", self.loops_detected)
            .str("top_loop", self.top_loop.as_deref().unwrap_or(""))
            .build()
    }
}

/// One baseline run result.
#[derive(Clone, Debug, Serialize)]
pub struct AmandroidRun {
    /// App name.
    pub app: String,
    /// Scaled analysis time in paper minutes (capped at the timeout).
    pub minutes: f64,
    /// Real wall-clock milliseconds.
    pub wall_ms: f64,
    /// Whether the run timed out.
    pub timed_out: bool,
    /// Whether the run hit an injected whole-app error.
    pub errored: bool,
    /// Vulnerable findings (empty on timeout/error).
    pub vulnerable: usize,
}

impl AmandroidRun {
    /// Deterministic JSON rendering (no wall-clock field).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("app", &self.app)
            .float("minutes", self.minutes)
            .bool("timed_out", self.timed_out)
            .bool("errored", self.errored)
            .int("vulnerable", self.vulnerable as u64)
            .build()
    }
}

/// Both tools' results for one benchmark app.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRun {
    /// Population label (Debug-rendered [`Profile`]).
    pub profile: String,
    /// BackDroid result.
    pub backdroid: BackdroidRun,
    /// Baseline result.
    pub amandroid: AmandroidRun,
    /// Ground-truth vulnerable sink paths.
    pub true_vulns: usize,
}

impl BenchRun {
    /// Deterministic JSON rendering (no wall-clock fields).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("profile", &self.profile)
            .raw("backdroid", self.backdroid.to_json())
            .raw("amandroid", self.amandroid.to_json())
            .int("true_vulns", self.true_vulns as u64)
            .build()
    }
}

/// Renders a slice of [`BenchRun`]s as a deterministic JSON array.
pub fn bench_runs_json(runs: &[BenchRun]) -> String {
    array(runs.iter().map(BenchRun::to_json))
}

/// Converts a BackDroid report to scaled paper minutes under the linear
/// cost model: lines a full grep scans for the uncached commands plus
/// one preprocessing pass over the dump.
pub fn backdroid_minutes(lines_scanned: u64, dump_lines: u64) -> f64 {
    (lines_scanned as f64 + 3.0 * dump_lines as f64) / BACKDROID_LINES_PER_MINUTE
}

/// Scaled minutes under the indexed cost model: posting-list candidates
/// touched plus the same preprocessing pass (index construction rides
/// along with the dump indexing).
pub fn backdroid_minutes_indexed(postings_touched: u64, dump_lines: u64) -> f64 {
    (postings_touched as f64 + 3.0 * dump_lines as f64) / BACKDROID_LINES_PER_MINUTE
}

/// Runs BackDroid on one generated app with the default (indexed)
/// backend.
pub fn run_backdroid_on(app: &backdroid_appgen::AndroidApp) -> BackdroidRun {
    run_backdroid_with_backend(app, BackendChoice::default())
}

/// Runs BackDroid on one generated app with an explicit search backend.
pub fn run_backdroid_with_backend(
    app: &backdroid_appgen::AndroidApp,
    backend: BackendChoice,
) -> BackdroidRun {
    let start = Instant::now();
    let dump = app.dump();
    let dump_lines = dump.lines().count() as u64;
    let artifacts = AppArtifacts::from_parts(
        app.program.clone(),
        app.manifest.clone(),
        BytecodeText::index(&dump),
        backend,
    );
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        ..BackdroidOptions::default()
    });
    let report = tool.analyze_artifacts(&artifacts);
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let cache = report.cache_stats;
    BackdroidRun {
        app: app.name.clone(),
        backend: backend.name().to_string(),
        minutes: backdroid_minutes(cache.lines_scanned, dump_lines),
        minutes_indexed: backdroid_minutes_indexed(cache.postings_touched, dump_lines),
        wall_ms,
        lines_scanned: cache.lines_scanned,
        postings_touched: cache.postings_touched,
        sinks_analyzed: report.sinks_analyzed(),
        vulnerable: report.vulnerable_sinks().len(),
        cache_rate: cache.rate(),
        sink_cache_rate: report.sink_cache.rate(),
        loops_detected: report.loop_stats.any(),
        top_loop: report.loop_stats.most_common().map(|k| format!("{k:?}")),
    }
}

/// Runs the Amandroid-style baseline on one generated app with the
/// default (full-scale) budget.
pub fn run_amandroid_on(app: &backdroid_appgen::AndroidApp) -> AmandroidRun {
    run_amandroid_with_budget(app, backdroid_wholeapp::DEFAULT_BUDGET_UNITS)
}

/// Runs the baseline with an explicit work-unit budget (reduced runs scale
/// the budget together with the code volume so timeout shapes persist).
pub fn run_amandroid_with_budget(
    app: &backdroid_appgen::AndroidApp,
    budget_units: u64,
) -> AmandroidRun {
    let start = Instant::now();
    let cfg = AmandroidConfig {
        budget_units,
        ..AmandroidConfig::default()
    };
    let registry = backdroid_core::DetectorRegistry::paper();
    let out = analyze(&app.name, &app.program, &app.manifest, &registry, &cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    match out {
        Outcome::Done(r) => AmandroidRun {
            app: app.name.clone(),
            minutes: paper_minutes(r.work_units),
            wall_ms,
            timed_out: false,
            errored: false,
            vulnerable: r.vulnerable().len(),
        },
        Outcome::TimedOut { work_units, .. } => AmandroidRun {
            app: app.name.clone(),
            minutes: paper_minutes(work_units),
            wall_ms,
            timed_out: true,
            errored: false,
            vulnerable: 0,
        },
        Outcome::Error { .. } => AmandroidRun {
            app: app.name.clone(),
            minutes: 0.0,
            wall_ms,
            timed_out: false,
            errored: true,
            vulnerable: 0,
        },
    }
}

/// The scaled baseline budget for a harness scale: the 300-minute budget
/// shrinks with the code volume so reduced runs keep the timeout shape.
pub fn budget_for(scale: Scale) -> u64 {
    let cfg = scale.config();
    ((backdroid_wholeapp::DEFAULT_BUDGET_UNITS as f64) * cfg.code_scale).max(1_000.0) as u64
}

/// Runs both tools over the benchmark set sequentially with the default
/// backend. Equivalent to `run_benchset_with(scale, default, 1)`.
pub fn run_benchset(scale: Scale) -> Vec<BenchRun> {
    run_benchset_with(scale, BackendChoice::default(), 1)
}

/// Runs both tools over the benchmark set on the parallel corpus driver:
/// apps are generated and analyzed on `threads` workers (each worker
/// generates its own apps, so memory stays bounded at `threads` × the
/// largest single app) and results return in app-index order —
/// deterministic output regardless of thread count.
pub fn run_benchset_with(scale: Scale, backend: BackendChoice, threads: usize) -> Vec<BenchRun> {
    let cfg = scale.config();
    let budget = budget_for(scale);
    par_map(cfg.count, threads, |i| {
        let ba = bench_app(i, cfg);
        BenchRun {
            profile: format!("{:?}", ba.profile),
            backdroid: run_backdroid_with_backend(&ba.app, backend),
            amandroid: run_amandroid_with_budget(&ba.app, budget),
            true_vulns: ba.app.true_vulnerabilities(),
        }
    })
}

/// Streams the generated benchmark apps with profiles (for harnesses that
/// need ground truth). Each item is generated on demand and can be
/// dropped after use.
pub fn benchset_apps(scale: Scale) -> impl Iterator<Item = BenchApp> {
    let cfg = scale.config();
    (0..cfg.count).map(move |i| bench_app(i, cfg))
}

/// Re-export for harness binaries.
pub use backdroid_appgen::benchset::Profile as BenchProfile;

/// Median of a sample (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// Buckets a scaled-minutes value into labeled ranges, e.g.
/// `bucket_label(&[1.0, 5.0, 10.0], 7.2)` → `"5m-10m"`.
pub fn bucket_label(edges: &[f64], minutes: f64) -> String {
    let mut lo = 0.0;
    for &e in edges {
        if minutes < e {
            return format!("{}m-{}m", fmt_edge(lo), fmt_edge(e));
        }
        lo = e;
    }
    format!(">{}m", fmt_edge(lo))
}

fn fmt_edge(e: f64) -> String {
    if e.fract() == 0.0 {
        format!("{}", e as u64)
    } else {
        format!("{e}")
    }
}

/// Prints a histogram line for a bucketed distribution.
pub fn print_histogram(title: &str, labeled: &[(String, usize)]) {
    println!("{title}");
    let max = labeled.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    for (label, count) in labeled {
        let bar = "#".repeat(count * 40 / max);
        println!("  {label:<12} {count:>4} {bar}");
    }
}

/// Is this profile part of the timeout population?
pub fn is_timeout_profile(p: Profile) -> bool {
    matches!(p, Profile::TimeoutVictim | Profile::TimeoutNoVuln)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_buckets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(bucket_label(&[1.0, 5.0, 10.0], 0.4), "0m-1m");
        assert_eq!(bucket_label(&[1.0, 5.0, 10.0], 7.2), "5m-10m");
        assert_eq!(bucket_label(&[1.0, 5.0, 10.0], 12.0), ">10m");
    }

    #[test]
    fn backdroid_minutes_scaling() {
        let m = backdroid_minutes(750_000, 0);
        assert!((m - 1.0).abs() < 1e-9);
        assert!(backdroid_minutes(0, 1000) > 0.0, "preprocessing counted");
        assert!(backdroid_minutes_indexed(0, 1000) > 0.0);
    }

    #[test]
    fn runs_one_small_app_both_tools() {
        use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
        let app = AppSpec::named("com.bench.unit")
            .with_scenario(Scenario::new(
                Mechanism::DirectEntry,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(6, 3, 4)
            .generate();
        let b = run_backdroid_on(&app);
        assert_eq!(b.vulnerable, 1);
        assert!(b.minutes > 0.0);
        let a = run_amandroid_on(&app);
        assert!(!a.timed_out);
        assert_eq!(a.vulnerable, 1);
    }

    #[test]
    fn par_map_is_deterministic_and_ordered() {
        let square = |i: usize| i * i;
        let seq: Vec<usize> = par_map(37, 1, square);
        let par: Vec<usize> = par_map(37, 8, square);
        assert_eq!(seq, par);
        assert_eq!(seq[5], 25);
        assert!(par_map(0, 4, square).is_empty());
    }

    #[test]
    fn parallel_benchset_matches_sequential_byte_for_byte() {
        let scale = Scale::Sized {
            count: 6,
            code_permille: 40,
        };
        let seq = run_benchset_with(scale, BackendChoice::Indexed, 1);
        let par = run_benchset_with(scale, BackendChoice::Indexed, 4);
        assert_eq!(seq.len(), par.len());
        // The deterministic JSON projection (everything but wall-clock)
        // must be byte-identical — this is the corpus driver's contract.
        assert_eq!(bench_runs_json(&seq), bench_runs_json(&par));
    }

    #[test]
    fn backends_agree_across_a_sized_benchset() {
        let scale = Scale::Sized {
            count: 5,
            code_permille: 40,
        };
        let lin = run_benchset_with(scale, BackendChoice::LinearScan, 2);
        let idx = run_benchset_with(scale, BackendChoice::Indexed, 2);
        for (l, x) in lin.iter().zip(&idx) {
            assert_eq!(
                l.backdroid.vulnerable, x.backdroid.vulnerable,
                "{}",
                l.backdroid.app
            );
            assert_eq!(l.backdroid.sinks_analyzed, x.backdroid.sinks_analyzed);
            assert_eq!(l.backdroid.lines_scanned, x.backdroid.lines_scanned);
            assert_eq!(l.backdroid.cache_rate, x.backdroid.cache_rate);
            assert_eq!(l.backdroid.postings_touched, 0);
            assert!(
                x.backdroid.postings_touched < x.backdroid.lines_scanned,
                "indexed work must undercut the linear model on {}",
                x.backdroid.app
            );
        }
    }
}
