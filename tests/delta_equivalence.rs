//! The incremental-analysis invariant: a delta run over an app update
//! chain is **byte-identical** — on the wire-rendered response surface —
//! to a from-scratch analysis of the same version, on both search
//! backends.
//!
//! Three layers:
//!
//! * a proptest walking fuzzed `mutate_version` chains (v1 → v2 → … →
//!   vN, arbitrary seeds, so body-only, structural, and mixed updates
//!   all occur) comparing every delta report against a freshly built
//!   from-scratch image, and every update's by-value class diff (what
//!   `put_version` replies with) against the chunk-hash diff;
//! * the reuse decisions of a served update chain, pinned as a
//!   fingerprint;
//! * an identity update, which must replay every verdict and still
//!   match a from-scratch analysis.
//!
//! The new version's image is built from the mutated program itself,
//! as `Service::put_version` builds it; that an update also survives a
//! restart through its snapshot is `tests/snapshot_roundtrip.rs`'s job.

use backdroid_appgen::{mutate_version, AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{
    AppArtifacts, AppReport, Backdroid, BackdroidOptions, BackendChoice, ChunkManifest, DeltaKind,
    DeltaManifest,
};
use backdroid_ir::wire::fnv1a64_wide;
use backdroid_service::proto::render_analysis;
use backdroid_service::{AppAnalysis, Fetch, Service, ServiceConfig};
use proptest::prelude::*;

/// A small app with real sink scenarios, so verdicts exist to reuse.
fn base_app(extra_scenario: bool) -> backdroid_appgen::AndroidApp {
    let mut spec = AppSpec::named("com.delta.app")
        .with_seed(3)
        .with_scenario(Scenario::new(
            Mechanism::DirectEntry,
            SinkKind::Cipher,
            true,
        ))
        .with_filler(6, 4, 5);
    if extra_scenario {
        spec = spec.with_scenario(Scenario::new(
            Mechanism::CallbackOnClick,
            SinkKind::SslVerifier,
            false,
        ));
    }
    spec.generate()
}

/// The exact bytes the serving layer would emit for this report — the
/// surface CI replay-diffs, and therefore the equivalence that matters.
fn wire(report: AppReport) -> String {
    let a = AppAnalysis {
        app_id: "app".into(),
        app_name: "com.delta.app".into(),
        report,
        fetch: Fetch::Hit,
    };
    render_analysis(1, "analyze", &a)
}

/// Walks `seeds` as an update chain under one backend, asserting at
/// every version that the delta report (verdict reuse engaged wherever
/// the planner allows) renders to the same bytes as a from-scratch
/// analysis of a freshly built image, and that the by-value class diff
/// equals the chunk-hash diff, all four lists.
fn check_chain(app: &backdroid_appgen::AndroidApp, seeds: &[u64], backend: BackendChoice) {
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        ..BackdroidOptions::default()
    });
    let mut program = app.program.clone();
    let mut old = AppArtifacts::with_backend(program.clone(), app.manifest.clone(), backend);
    let (_, mut base, _) = tool.analyze_delta(None, None, &old);
    for &seed in seeds {
        let (next, _) = mutate_version(&program, seed);
        let delta = DeltaManifest::between(&program, &next);
        assert_eq!(
            delta,
            ChunkManifest::of_program(&program).diff(&ChunkManifest::of_program(&next)),
            "class walk diverged from the chunk-hash diff (seed {seed})"
        );
        let new = AppArtifacts::with_backend(next.clone(), app.manifest.clone(), backend);
        let gate = delta.gate(&old, &new);
        let (delta_report, new_base, stats) = tool.analyze_delta(Some(&gate), Some(&base), &new);
        let scratch = AppArtifacts::with_backend(next.clone(), app.manifest.clone(), backend);
        let fresh = tool.analyze_artifacts(&scratch);
        assert_eq!(
            delta_report.sink_reports, fresh.sink_reports,
            "delta verdicts diverged (backend {backend:?}, seed {seed})"
        );
        assert_eq!(
            wire(delta_report),
            wire(fresh),
            "wire bytes diverged (backend {backend:?}, seed {seed}, \
             full_fallback={})",
            stats.full_fallback
        );
        program = next;
        old = new;
        base = new_base;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fuzzed chains: delta ≡ from-scratch at every version, both
    /// backends, any update mix.
    #[test]
    fn delta_matches_from_scratch_over_fuzzed_chains(
        extra in any::<bool>(),
        seeds in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let app = base_app(extra);
        check_chain(&app, &seeds, BackendChoice::LinearScan);
        check_chain(&app, &seeds, BackendChoice::Indexed);
    }
}

/// The reuse decisions of a served update chain, pinned: every app of
/// `BenchsetConfig::sized(6, 0.04)` on both backends takes one
/// `analyze_delta` to capture its base, then `put_version` plus
/// `analyze_delta` for each seed of the chain `reply_golden` serves.
/// After each delta run the increments of `sinks_reused_total`,
/// `sinks_reanalyzed_total` and `delta_full_fallback_total` are logged,
/// and the log's fingerprint was recorded from a known-good build. The
/// equivalence checks above would pass a change that reused fewer
/// verdicts, or more of them wrongly but luckily; this one fails on any
/// moved decision.
#[test]
fn served_reuse_decisions_match_recorded_fingerprint() {
    const FINGERPRINT: u64 = 0xf5f360cc02478b20;
    let bench = backdroid_appgen::benchset::BenchsetConfig::sized(6, 0.04);
    let mut log = String::new();
    let (mut reused_total, mut fallbacks_total) = (0, 0);
    for backend in [BackendChoice::LinearScan, BackendChoice::Indexed] {
        let service = Service::over_benchset(
            bench,
            ServiceConfig {
                backend,
                ..ServiceConfig::default()
            },
        );
        let counters = || {
            let snap = service.metrics().snapshot();
            [
                snap.value("sinks_reused_total"),
                snap.value("sinks_reanalyzed_total"),
                snap.value("delta_full_fallback_total"),
            ]
        };
        for i in 0..bench.count {
            let app = i.to_string();
            for seed in [None, Some(11), Some(12), Some(13), Some(1), Some(15)] {
                if let Some(seed) = seed {
                    service
                        .put_version(&app, seed)
                        .expect("every benchset app updates");
                }
                let before = counters();
                service
                    .analyze_delta(&app)
                    .expect("every benchset app analyzes");
                let after = counters();
                let [reused, reanalyzed, fallback] = [0, 1, 2].map(|k| after[k] - before[k]);
                reused_total += reused;
                fallbacks_total += fallback;
                let step = seed.map_or("capture".to_string(), |s| format!("seed {s}"));
                log.push_str(&format!(
                    "{} app {app} {step}: reused={reused} reanalyzed={reanalyzed} \
                     fallback={fallback}\n",
                    backend.name()
                ));
            }
        }
    }
    assert!(
        reused_total > 0 && fallbacks_total > 0,
        "the chain must both reuse verdicts and fall back:\n{log}"
    );
    assert_eq!(
        fnv1a64_wide(log.as_bytes()),
        FINGERPRINT,
        "reuse decisions moved; the computed log:\n{log}"
    );
}

/// Identity update: a base captured on the same image replays without a
/// full fallback and yields the same bytes.
#[test]
fn identity_delta_reuses_and_matches() {
    let app = base_app(true);
    let backend = BackendChoice::default();
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        ..BackdroidOptions::default()
    });
    let old = AppArtifacts::with_backend(app.program.clone(), app.manifest.clone(), backend);
    let (_, base, _) = tool.analyze_delta(None, None, &old);
    let new = AppArtifacts::with_backend(app.program.clone(), app.manifest.clone(), backend);
    let gate = DeltaManifest::between(old.program(), new.program()).gate(&old, &new);
    assert_eq!(gate, DeltaKind::Identity);
    let (report, _, stats) = tool.analyze_delta(Some(&gate), Some(&base), &new);
    assert!(!stats.full_fallback);
    assert!(stats.sinks_reused > 0, "identity updates replay verdicts");
    let scratch = AppArtifacts::with_backend(app.program.clone(), app.manifest.clone(), backend);
    assert_eq!(wire(report), wire(tool.analyze_artifacts(&scratch)));
    // Missing the gate or the base, the run is a full traced one.
    assert!(tool.analyze_delta(None, Some(&base), &new).2.full_fallback);
    assert!(tool.analyze_delta(Some(&gate), None, &new).2.full_fallback);
}
