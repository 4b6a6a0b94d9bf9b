//! Regenerates the **§VI-C detection comparison**, both directions:
//!
//! * vulnerabilities Amandroid finds that BackDroid must match — the 7
//!   ECB TPs (all matched), the 17 SSL TPs (15 matched, 2 missed in the
//!   subclassed-sink shape), and the 6 FPs BackDroid avoids;
//! * the 54 additional BackDroid detections Amandroid misses, broken down
//!   into timeouts (28), skipped libraries (8), async/callback handling
//!   (8), and occasional whole-app errors (10);
//! * the §IV-C validation that search-reachable `<clinit>`s are truly
//!   reachable.
//!
//! Apps run on the parallel corpus driver (`--threads N`); results fold
//! in app-index order, so stdout and the `--json` artifact are
//! byte-identical to a sequential (`--threads 1`) run. `--backend
//! linear|indexed` selects the search backend — detection output is
//! provably identical either way.

use backdroid_appgen::benchset::{bench_app, Profile};
use backdroid_bench::harness::{
    backend_from_args, budget_for, json_path_from_args, par_map, run_amandroid_with_budget,
    run_backdroid_with_backend, scale_from_args, threads_from_args, AmandroidRun, BackdroidRun,
    SCALE_FLAGS,
};
use backdroid_bench::json::{array, JsonObject};
use backdroid_core::{Backdroid, BackdroidOptions};
use backdroid_service::cli::reject_unknown_flags;

/// Everything the §VI-C fold needs from one benchmark app.
struct AppOutcome {
    profile: Profile,
    bd: BackdroidRun,
    am: AmandroidRun,
    truth: usize,
    /// `SslTpSubclassed` only: did the hierarchy-aware initial search
    /// recover the miss?
    fixed_recovered: bool,
}

fn main() {
    reject_unknown_flags(&[SCALE_FLAGS, &["--backend", "--threads", "--json"]].concat());
    let scale = scale_from_args();
    let backend = backend_from_args();
    let threads = threads_from_args();
    let cfg = scale.config();
    let budget = budget_for(scale);

    let outcomes = par_map(cfg.count, threads, |i| {
        let ba = bench_app(i, cfg);
        let bd = run_backdroid_with_backend(&ba.app, backend);
        let am = run_amandroid_with_budget(&ba.app, budget);
        let fixed_recovered = ba.profile == Profile::SslTpSubclassed && {
            // The §VI-C fix: hierarchy-aware initial search.
            let fixed = Backdroid::with_options(BackdroidOptions {
                hierarchy_initial_search: true,
                backend,
                ..BackdroidOptions::default()
            })
            .analyze(&ba.app.program, &ba.app.manifest);
            !fixed.vulnerable_sinks().is_empty()
        };
        AppOutcome {
            profile: ba.profile,
            bd,
            am,
            truth: ba.app.true_vulnerabilities(),
            fixed_recovered,
        }
    });

    let total = outcomes.len();
    let mut ecb_tp_both = 0usize;
    let mut ssl_tp_both = 0usize;
    let mut backdroid_fn = 0usize;
    let mut backdroid_fn_fixed = 0usize;
    let mut amandroid_fp = 0usize;
    let mut backdroid_fp = 0usize;
    let mut extra = [0usize; 4]; // timeout, skipped-lib, async, error
    let mut matched_apps = 0usize;

    for o in &outcomes {
        match o.profile {
            Profile::EcbTp => {
                if o.bd.vulnerable >= 1 && o.am.vulnerable >= 1 {
                    ecb_tp_both += 1;
                }
            }
            Profile::SslTp => {
                if o.bd.vulnerable >= 1 && o.am.vulnerable >= 1 {
                    ssl_tp_both += 1;
                }
            }
            Profile::SslTpSubclassed => {
                if o.bd.vulnerable == 0 && o.am.vulnerable >= 1 {
                    backdroid_fn += 1;
                }
                if o.fixed_recovered {
                    backdroid_fn_fixed += 1;
                }
            }
            Profile::AmandroidFp => {
                // Ground truth says not vulnerable; Amandroid flags it.
                if o.am.vulnerable >= 1 && o.truth == 0 {
                    amandroid_fp += 1;
                }
                if o.bd.vulnerable >= 1 {
                    backdroid_fp += 1;
                }
            }
            Profile::TimeoutVictim => {
                if o.bd.vulnerable >= 1 && o.am.timed_out {
                    extra[0] += 1;
                }
            }
            Profile::SkippedLib => {
                if o.bd.vulnerable >= 1 && o.am.vulnerable == 0 && !o.am.timed_out {
                    extra[1] += 1;
                }
            }
            Profile::AsyncCallback => {
                if o.bd.vulnerable >= 1 && o.am.vulnerable == 0 && !o.am.timed_out {
                    extra[2] += 1;
                }
            }
            Profile::WholeAppError => {
                if o.bd.vulnerable >= 1 && o.am.errored {
                    extra[3] += 1;
                }
            }
            Profile::Normal | Profile::TimeoutNoVuln => {
                if o.bd.vulnerable == o.truth {
                    matched_apps += 1;
                }
            }
        }
    }

    println!(
        "§VI-C detection comparison over {} apps ({} search backend)\n",
        total,
        backend.name()
    );
    println!("Vulnerabilities detected by Amandroid — BackDroid coverage:");
    println!("  ECB true positives matched by both:   {ecb_tp_both}   [paper: 7/7]");
    println!("  SSL true positives matched by both:   {ssl_tp_both}   [paper: 15/17]");
    println!("  BackDroid false negatives (subclassed sinks): {backdroid_fn}   [paper: 2]");
    println!("    …recovered with hierarchy-aware initial search: {backdroid_fn_fixed}");
    println!("  Amandroid false positives (unregistered components): {amandroid_fp}   [paper: 6]");
    println!("  BackDroid false positives on those apps: {backdroid_fp}   [paper: 0]");

    println!("\nVulnerabilities detected by BackDroid but NOT Amandroid:");
    println!(
        "  due to baseline timeouts:        {}   [paper: 28]",
        extra[0]
    );
    println!(
        "  due to skipped libraries:        {}   [paper: 8]",
        extra[1]
    );
    println!(
        "  due to async/callback handling:  {}   [paper: 8]",
        extra[2]
    );
    println!(
        "  due to whole-app errors:         {}   [paper: 10]",
        extra[3]
    );
    println!(
        "  total additional detections:     {}   [paper: 54]",
        extra.iter().sum::<usize>()
    );
    println!("\nClean apps with exact agreement (no spurious findings): {matched_apps}");

    // §IV-C validation: every clinit the recursive search deems reachable
    // is truly reachable from an entry component.
    let (identified, confirmed) = clinit_validation();
    println!(
        "\n§IV-C validation: {identified} reachable <clinit>s identified, {confirmed} confirmed \
         truly reachable   [paper: 37/37]"
    );

    // PR-7 detector classes: per-class precision/recall over dedicated
    // ground-truth apps (positives, negatives, and obfuscated variants).
    let class_scores = new_class_scores(backend, budget);
    println!("\nNew detector classes (registry-defined) — per-class scoring:");
    println!("  class     TP  FP  FN  precision  recall   baseline TP/FP/FN");
    for s in &class_scores {
        println!(
            "  {:<8}  {:>2}  {:>2}  {:>2}  {:>9.2}  {:>6.2}   {}/{}/{}",
            s.class,
            s.tp,
            s.fp,
            s.fn_,
            s.precision(),
            s.recall(),
            s.am_tp,
            s.am_fp,
            s.am_fn,
        );
    }

    if let Some(path) = json_path_from_args() {
        let apps = array(outcomes.iter().map(|o| {
            JsonObject::new()
                .str("profile", &format!("{:?}", o.profile))
                .raw("backdroid", o.bd.to_json())
                .raw("amandroid", o.am.to_json())
                .int("true_vulns", o.truth as u64)
                .bool("fixed_recovered", o.fixed_recovered)
                .build()
        }));
        let classes = array(class_scores.iter().map(|s| {
            JsonObject::new()
                .str("class", s.class)
                .int("tp", s.tp as u64)
                .int("fp", s.fp as u64)
                .int("fn", s.fn_ as u64)
                .float("precision", s.precision())
                .float("recall", s.recall())
                .int("baseline_tp", s.am_tp as u64)
                .int("baseline_fp", s.am_fp as u64)
                .int("baseline_fn", s.am_fn as u64)
                .build()
        }));
        let summary = JsonObject::new()
            .str("backend", backend.name())
            .int("apps", total as u64)
            .int("ecb_tp_both", ecb_tp_both as u64)
            .int("ssl_tp_both", ssl_tp_both as u64)
            .int("backdroid_fn", backdroid_fn as u64)
            .int("backdroid_fn_fixed", backdroid_fn_fixed as u64)
            .int("amandroid_fp", amandroid_fp as u64)
            .int("backdroid_fp", backdroid_fp as u64)
            .int("extra_timeout", extra[0] as u64)
            .int("extra_skipped_lib", extra[1] as u64)
            .int("extra_async", extra[2] as u64)
            .int("extra_error", extra[3] as u64)
            .int("clean_matched", matched_apps as u64)
            .int("clinit_identified", identified as u64)
            .int("clinit_confirmed", confirmed as u64)
            .build();
        let doc = JsonObject::new()
            .raw("summary", summary)
            .raw("classes", classes)
            .raw("apps", apps)
            .build();
        std::fs::write(&path, doc).expect("write --json artifact");
        eprintln!("wrote {}", path.display());
    }
}

/// Per-class confusion counts for one PR-7 detector class, for BackDroid
/// and the Amandroid-style baseline side by side.
struct ClassScore {
    class: &'static str,
    tp: usize,
    fp: usize,
    fn_: usize,
    am_tp: usize,
    am_fp: usize,
    am_fn: usize,
}

impl ClassScore {
    fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Scores the three registry-defined detector classes over dedicated
/// ground-truth apps: a direct positive, a direct negative (the secure
/// variant resolves to an unmodeled platform value or a benign command),
/// two obfuscated positives (static-field chain and `<clinit>`-assigned
/// constant), and a dead-code negative the §IV-F reachability pass must
/// prune.
fn new_class_scores(backend: backdroid_core::BackendChoice, budget: u64) -> Vec<ClassScore> {
    use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
    use backdroid_core::DetectorRegistry;
    use backdroid_wholeapp::amandroid::{analyze, AmandroidConfig, Outcome};

    let cases: [(&'static str, SinkKind); 3] = [
        ("webview", SinkKind::WebViewJsInterface),
        ("prng", SinkKind::PrngSeed),
        ("exec", SinkKind::ExecCommand),
    ];
    let shapes: [(Mechanism, bool); 5] = [
        (Mechanism::DirectEntry, true),
        (Mechanism::DirectEntry, false),
        (Mechanism::StaticChain, true),
        (Mechanism::ClinitOffPath, true),
        (Mechanism::DeadCode, true),
    ];
    cases
        .iter()
        .map(|&(class, kind)| {
            let mut score = ClassScore {
                class,
                tp: 0,
                fp: 0,
                fn_: 0,
                am_tp: 0,
                am_fp: 0,
                am_fn: 0,
            };
            for (i, &(mech, insecure)) in shapes.iter().enumerate() {
                let app = AppSpec::named(format!("com.cls.{class}{i}"))
                    .with_seed(i as u64)
                    .with_scenario(Scenario::new(mech, kind, insecure))
                    .with_filler(6 + i, 3, 4)
                    .generate();
                let truth = app.true_vulnerabilities() > 0;
                let bd = Backdroid::with_options(BackdroidOptions {
                    backend,
                    detectors: DetectorRegistry::full(),
                    ..BackdroidOptions::default()
                })
                .analyze(&app.program, &app.manifest);
                let flagged = !bd.vulnerable_sinks().is_empty();
                match (truth, flagged) {
                    (true, true) => score.tp += 1,
                    (false, true) => score.fp += 1,
                    (true, false) => score.fn_ += 1,
                    (false, false) => {}
                }
                let cfg = AmandroidConfig {
                    budget_units: budget,
                    error_injection: false,
                    ..AmandroidConfig::default()
                };
                let am_flagged = match analyze(
                    &app.name,
                    &app.program,
                    &app.manifest,
                    &DetectorRegistry::full(),
                    &cfg,
                ) {
                    Outcome::Done(r) => !r.vulnerable().is_empty(),
                    Outcome::TimedOut { .. } | Outcome::Error { .. } => false,
                };
                match (truth, am_flagged) {
                    (true, true) => score.am_tp += 1,
                    (false, true) => score.am_fp += 1,
                    (true, false) => score.am_fn += 1,
                    (false, false) => {}
                }
            }
            score
        })
        .collect()
}

/// §IV-C: "Among 37 unique static initializers that are identified by our
/// recursive search as reachable, all of them are actually reachable."
fn clinit_validation() -> (usize, usize) {
    use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
    use backdroid_core::clinit::clinit_reachable;
    use backdroid_core::AppArtifacts;

    let mut identified = 0usize;
    let mut confirmed = 0usize;
    for i in 0..37 {
        let app = AppSpec::named(format!("com.clinit.v{i}"))
            .with_seed(i as u64)
            .with_scenario(Scenario::new(
                Mechanism::ClinitReachable,
                SinkKind::SslVerifier,
                i % 2 == 0,
            ))
            .with_filler(6 + i % 8, 4, 5)
            .generate();
        let artifacts = AppArtifacts::new(app.program.clone(), app.manifest.clone());
        let mut ctx = artifacts.task();
        let class = backdroid_ir::ClassName::new(format!("com.clinit.v{i}.s0.ApiClient"));
        let r = clinit_reachable(&mut ctx, &class);
        if r.reachable {
            identified += 1;
            // Ground truth: the scenario wires the clinit through an entry
            // activity, so reachability is genuine.
            if !r.witness.is_empty()
                && app
                    .manifest
                    .is_entry_component(r.witness.last().expect("non-empty"))
            {
                confirmed += 1;
            }
        }
    }
    (identified, confirmed)
}
