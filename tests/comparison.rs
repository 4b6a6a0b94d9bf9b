//! Cross-tool integration tests: BackDroid vs the whole-app baseline on
//! shared apps, reproducing the §VI-C agreement/disagreement matrix.

use backdroid_appgen::{AppSpec, BaselineBlindSpot, Mechanism, Scenario, SinkKind};
use backdroid_core::{Backdroid, DetectorRegistry};
use backdroid_wholeapp::amandroid::{analyze, AmandroidConfig, Outcome};

fn baseline_cfg() -> AmandroidConfig {
    AmandroidConfig {
        error_injection: false,
        ..AmandroidConfig::default()
    }
}

fn run_both(app: &backdroid_appgen::AndroidApp) -> (usize, usize) {
    let bd = Backdroid::new().analyze(&app.program, &app.manifest);
    let registry = DetectorRegistry::paper();
    let am = analyze(
        &app.name,
        &app.program,
        &app.manifest,
        &registry,
        &baseline_cfg(),
    );
    let am_vulns = am.report().map(|r| r.vulnerable().len()).unwrap_or(0);
    (bd.vulnerable_sinks().len(), am_vulns)
}

#[test]
fn both_tools_agree_on_plain_mechanisms() {
    for mech in [
        Mechanism::DirectEntry,
        Mechanism::PrivateChain,
        Mechanism::StaticChain,
        Mechanism::ChildClass,
        Mechanism::SuperClassPoly,
        Mechanism::ClinitOffPath,
    ] {
        let app = AppSpec::named(format!("com.cmp.{mech:?}").to_lowercase())
            .with_scenario(Scenario::new(mech, SinkKind::Cipher, true))
            .with_filler(6, 3, 4)
            .generate();
        let (bd, am) = run_both(&app);
        assert_eq!(bd, 1, "{mech:?}: BackDroid");
        assert_eq!(am, 1, "{mech:?}: baseline");
    }
}

#[test]
fn baseline_blind_spots_match_ground_truth_labels() {
    for mech in [
        Mechanism::InterfaceRunnable,
        Mechanism::AsyncTask,
        Mechanism::CallbackOnClick,
        Mechanism::SkippedLibrary,
    ] {
        let app = AppSpec::named(format!("com.cmp.blind.{mech:?}").to_lowercase())
            .with_scenario(Scenario::new(mech, SinkKind::Cipher, true))
            .with_filler(6, 3, 4)
            .generate();
        let gt = &app.ground_truth[0];
        assert!(
            matches!(
                gt.baseline_blind_spot,
                Some(BaselineBlindSpot::AsyncCallback | BaselineBlindSpot::SkippedLibrary)
            ),
            "{mech:?} labeled as blind spot"
        );
        let (bd, am) = run_both(&app);
        assert_eq!(bd, 1, "{mech:?}: BackDroid finds it");
        assert_eq!(am, 0, "{mech:?}: baseline misses it");
    }
}

#[test]
fn fp_asymmetry_on_unregistered_components() {
    let app = AppSpec::named("com.cmp.fp")
        .with_scenario(Scenario::new(
            Mechanism::UnregisteredComponent,
            SinkKind::SslVerifier,
            true,
        ))
        .with_filler(6, 3, 4)
        .generate();
    let (bd, am) = run_both(&app);
    assert_eq!(bd, 0, "BackDroid avoids the FP");
    assert_eq!(am, 1, "the sloppy baseline reports the FP");
    assert_eq!(app.true_vulnerabilities(), 0, "ground truth: no vuln");
}

#[test]
fn fn_asymmetry_on_subclassed_sinks() {
    let app = AppSpec::named("com.cmp.fn")
        .with_scenario(Scenario::new(
            Mechanism::IndirectSubclassedSink,
            SinkKind::SslVerifier,
            true,
        ))
        .with_filler(6, 3, 4)
        .generate();
    let (bd, am) = run_both(&app);
    assert_eq!(bd, 0, "BackDroid's default search misses the wrapper");
    assert_eq!(am, 1, "the whole-app view catches it");
    assert_eq!(app.true_vulnerabilities(), 1);
}

#[test]
fn timeout_asymmetry_on_large_apps() {
    let app = AppSpec::named("com.cmp.big")
        .with_scenario(Scenario::new(
            Mechanism::StaticChain,
            SinkKind::Cipher,
            true,
        ))
        .with_filler(80, 6, 8)
        .generate();
    // Tight budget: the whole-app tool times out, BackDroid does not care.
    let cfg = AmandroidConfig {
        budget_units: 2_000,
        ..baseline_cfg()
    };
    let registry = DetectorRegistry::paper();
    let am = analyze(&app.name, &app.program, &app.manifest, &registry, &cfg);
    assert!(matches!(am, Outcome::TimedOut { .. }));
    let bd = Backdroid::new().analyze(&app.program, &app.manifest);
    assert_eq!(bd.vulnerable_sinks().len(), 1);
}

#[test]
fn robust_baseline_closes_the_async_gap() {
    let app = AppSpec::named("com.cmp.robust")
        .with_scenario(Scenario::new(Mechanism::AsyncTask, SinkKind::Cipher, true))
        .with_filler(6, 3, 4)
        .generate();
    let registry = DetectorRegistry::paper();
    let robust = AmandroidConfig {
        robust_async: true,
        ..baseline_cfg()
    };
    let out = analyze(&app.name, &app.program, &app.manifest, &registry, &robust);
    assert_eq!(out.report().unwrap().vulnerable().len(), 1);
}

#[test]
fn error_injection_hashes_agree_across_crates() {
    // appgen picks names for the baseline's deterministic error injection.
    // Both crates hash with `backdroid_ir::wire::fnv1a64`, but each keeps
    // its own modulus (wholeapp does not depend on appgen), so the two
    // must agree.
    assert_eq!(
        backdroid_appgen::benchset::ERROR_MODULUS,
        backdroid_wholeapp::amandroid::ERROR_MODULUS
    );
}

#[test]
fn backdroid_work_scales_with_sinks_not_app_size() {
    // Fig 9's premise: same code size, more sinks ⇒ more BackDroid work;
    // same sinks, much more code ⇒ bounded growth (one extra scan pass is
    // linear in dump size, not in analysis complexity).
    let few_sinks = AppSpec::named("com.cmp.sinks2")
        .with_scenarios(
            (0..2).map(|_| Scenario::new(Mechanism::DirectEntry, SinkKind::Cipher, false)),
        )
        .with_filler(30, 4, 6)
        .generate();
    let many_sinks = AppSpec::named("com.cmp.sinks12")
        .with_scenarios(
            (0..12).map(|_| Scenario::new(Mechanism::DirectEntry, SinkKind::Cipher, false)),
        )
        .with_filler(30, 4, 6)
        .generate();
    let run = |app: &backdroid_appgen::AndroidApp| {
        Backdroid::new()
            .analyze(&app.program, &app.manifest)
            .cache_stats
            .lines_scanned
    };
    let few = run(&few_sinks);
    let many = run(&many_sinks);
    assert!(
        many > few,
        "more sinks must cost more search work: {few} vs {many}"
    );
}
