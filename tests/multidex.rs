//! Multidex handling: the paper's preprocessing merges multiple dex files
//! into one plaintext before searching (§III step 1). These tests force a
//! multidex split and verify the search and the full pipeline still work
//! across the merged dump.

use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{AppArtifacts, Backdroid, BackendChoice, DetectorRegistry};
use backdroid_dex::{dump_image, DexImage};
use backdroid_ir::{MethodSig, Type};
use backdroid_search::{BytecodeText, SearchCmd, SearchEngine};

fn multidex_app() -> (backdroid_appgen::AndroidApp, DexImage) {
    let app = AppSpec::named("com.md.app")
        .with_scenario(Scenario::new(
            Mechanism::PrivateChain,
            SinkKind::Cipher,
            true,
        ))
        .with_filler(40, 5, 6)
        .generate();
    // A tiny method-ref limit forces many dex files.
    let image = DexImage::encode_with_limit(&app.program, 64);
    (app, image)
}

#[test]
fn split_produces_multiple_files_covering_all_classes() {
    let (app, image) = multidex_app();
    assert!(image.files().len() > 2, "got {} files", image.files().len());
    let total: usize = image.files().iter().map(|f| f.class_defs().len()).sum();
    assert_eq!(total, app.program.class_count());
    // Every file respects the limit (single-class files may exceed it
    // only if one class alone carries more refs).
    for f in image.files() {
        assert!(
            f.method_ref_count() <= 64 || f.class_defs().len() == 1,
            "file with {} classes has {} refs",
            f.class_defs().len(),
            f.method_ref_count()
        );
    }
}

#[test]
fn merged_dump_contains_all_dex_headers() {
    let (_, image) = multidex_app();
    let dump = dump_image(&image);
    assert!(dump.contains("Opened 'classes.dex'"));
    assert!(dump.contains("Opened 'classes2.dex'"));
}

#[test]
fn search_spans_dex_boundaries() {
    let (app, image) = multidex_app();
    let dump = dump_image(&image);
    let engine = SearchEngine::new(BytecodeText::index(&dump));
    // The sink API is invoked in a class that may land in any dex file;
    // the merged-text search must still find it.
    let cipher = MethodSig::new(
        "javax.crypto.Cipher",
        "getInstance",
        vec![Type::string()],
        Type::object("javax.crypto.Cipher"),
    );
    let hits = engine.run(&SearchCmd::InvokeOf(cipher));
    assert!(!hits.is_empty());
    // Filler cross-class calls also resolve across files.
    let spans = engine.text().spans().len();
    assert_eq!(spans, app.program.method_count(), "all methods indexed");
}

#[test]
fn full_pipeline_on_multidex_dump() {
    let (app, image) = multidex_app();
    let dump = dump_image(&image);
    let artifacts = AppArtifacts::from_parts(
        app.program.clone(),
        app.manifest.clone(),
        BytecodeText::index(&dump),
        BackendChoice::default(),
    );
    let report = Backdroid::new().analyze_artifacts(&artifacts);
    assert_eq!(
        report.vulnerable_sinks().len(),
        1,
        "{:#?}",
        report.sink_reports
    );
    let _ = DetectorRegistry::paper();
}
