//! The incremental-analysis invariant: a delta run over an app update
//! chain is **byte-identical** — on the wire-rendered response surface —
//! to a from-scratch analysis of the same version, on both search
//! backends.
//!
//! Two layers:
//!
//! * a proptest walking fuzzed `mutate_version` chains (v1 → v2 → … →
//!   vN, arbitrary seeds, so body-only, structural, and mixed updates
//!   all occur) comparing every delta report against a freshly built
//!   from-scratch image, and every update's by-value class diff (what
//!   `put_version` replies with) against the chunk-hash diff;
//! * an identity update, which must replay every verdict and still
//!   match a from-scratch analysis.
//!
//! The new version's image is built from the mutated program itself,
//! as `Service::put_version` builds it; that an update also survives a
//! restart through its snapshot is `tests/snapshot_roundtrip.rs`'s job.

use backdroid_appgen::{mutate_version, AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{
    AppArtifacts, AppReport, Backdroid, BackdroidOptions, BackendChoice, ChunkManifest,
    DeltaManifest,
};
use backdroid_service::proto::render_analysis;
use backdroid_service::{AppAnalysis, Fetch};
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
    let (_, mut base) = tool.analyze_artifacts_traced(&old);
    for &seed in seeds {
        let (next, _) = mutate_version(&program, seed);
        assert_eq!(
            DeltaManifest::between(&program, &next),
            ChunkManifest::of_program(&program).diff(&ChunkManifest::of_program(&next)),
            "class walk diverged from the chunk-hash diff (seed {seed})"
        );
        let new = AppArtifacts::with_backend(next.clone(), app.manifest.clone(), backend);
        let (delta_report, new_base, stats) = tool.analyze_delta(&old, Some(&base), &new);
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
    let (_, base) = tool.analyze_artifacts_traced(&old);
    let new = AppArtifacts::with_backend(app.program.clone(), app.manifest.clone(), backend);
    let (report, _, stats) = tool.analyze_delta(&old, Some(&base), &new);
    assert!(!stats.full_fallback);
    assert!(stats.sinks_reused > 0, "identity updates replay verdicts");
    let scratch = AppArtifacts::with_backend(app.program.clone(), app.manifest.clone(), backend);
    assert_eq!(wire(report), wire(tool.analyze_artifacts(&scratch)));
}
