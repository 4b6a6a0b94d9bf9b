//! The symbol-interned search core's two load-bearing equivalences:
//!
//! * **Wire round-trip** — a [`SymbolTable`] serialized and decoded
//!   preserves every (id, string) pair, over arbitrary token sets.
//! * **Interned == string-keyed** — the interned, flattened posting
//!   lists of [`SearchIndex`] agree token-for-token, line-for-line with
//!   a plain string-keyed reference tokenization over fuzzed benchset
//!   apps, so swapping the key representation cannot have moved a single
//!   posting.
//!
//! Plus the lazy sectioned restore contract: a snapshot-restored app
//! that only answers manifest-level questions (store accounting,
//! unknown-detector errors) never materializes the text arena or the
//! posting lists.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::fixtures::{fixture_count, snapshot_fixture};
use backdroid_core::{AppArtifacts, BackendChoice};
use backdroid_dex::{dump_image, DexImage};
use backdroid_search::{string_keyed_postings, BytecodeText, SearchIndex, SymbolTable};
use backdroid_service::{Service, ServiceConfig, ServiceError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any set of distinct strings survives the symbol-table wire
    /// round-trip with ids and strings intact.
    #[test]
    fn symbol_table_wire_round_trip(
        raw in prop::collection::vec("[a-zA-Z0-9/;.$()<>]{0,24}", 0..40),
    ) {
        let tokens: std::collections::BTreeSet<String> = raw.into_iter().collect();
        let mut table = SymbolTable::new();
        for t in &tokens {
            table.intern(&[t]);
        }
        let mut w = backdroid_ir::wire::WireWriter::new();
        table.write_wire(&mut w);
        let bytes = w.into_bytes();
        prop_assert_eq!(SymbolTable::validate_wire(&bytes), Ok(tokens.len()));
        let back =
            SymbolTable::read_wire(&mut backdroid_ir::wire::WireReader::new(&bytes)).unwrap();
        prop_assert_eq!(back.len(), table.len());
        for (sym, s) in table.iter() {
            prop_assert_eq!(back.resolve(sym), s);
            prop_assert_eq!(back.lookup(&[s]), Some(sym));
        }
    }

    /// Fuzzed benchset apps: the interned index and a string-keyed
    /// reference tokenization produce identical postings.
    #[test]
    fn interned_postings_match_string_keyed_reference(
        idx in 0usize..6,
        count in 1usize..6,
        permille in 20u32..60,
    ) {
        let cfg = BenchsetConfig::sized(count.max(idx + 1), permille as f64 / 1000.0);
        let ba = bench_app(idx.min(cfg.count - 1), cfg);
        let dump = dump_image(&DexImage::encode(&ba.app.program));
        let text = BytecodeText::index(&dump);
        let index = text.search_index();
        let reference = string_keyed_postings(text.lines());
        let interned: std::collections::BTreeMap<String, Vec<u32>> = index
            .iter_postings()
            .map(|(tok, lines)| (tok.to_string(), lines.to_vec()))
            .collect();
        prop_assert_eq!(interned, reference);
    }
}

/// The fixture corpus, exhaustively: every token the reference
/// tokenization finds probes back to the same posting list through the
/// interned table.
#[test]
fn every_fixture_probes_identically_through_the_intern_table() {
    for i in 0..fixture_count() {
        let app = snapshot_fixture(i);
        let dump = dump_image(&DexImage::encode(&app.program));
        let text = BytecodeText::index(&dump);
        let index: &SearchIndex = text.search_index();
        let reference = string_keyed_postings(text.lines());
        assert_eq!(index.token_count(), reference.len(), "fixture {i}");
        for (tok, lines) in &reference {
            let via_iter = index
                .iter_postings()
                .find(|(t, _)| t == tok)
                .map(|(_, l)| l.to_vec());
            assert_eq!(
                via_iter.as_deref(),
                Some(lines.as_slice()),
                "fixture {i}: {tok}"
            );
        }
    }
}

/// A disk-warm restore that only answers manifest-level requests —
/// store accounting via `stats` and an unknown-detector error — must
/// never materialize the text arena or the posting lists. The text only
/// decodes when an analysis actually searches it.
#[test]
fn manifest_only_requests_never_materialize_the_text_section() {
    let app = snapshot_fixture(0);
    let artifacts = AppArtifacts::new(app.program, app.manifest);
    let bytes = artifacts.to_snapshot();

    // Direct restore: header facts are served from the section
    // directory alone.
    let restored = AppArtifacts::from_snapshot(&bytes, BackendChoice::default()).unwrap();
    let text = restored.engine().text();
    assert!(!restored.is_program_materialized());
    assert!(!text.is_body_materialized());
    assert!(!text.is_index_materialized());
    assert!(restored.estimated_bytes() > 0);
    assert_eq!(restored.estimated_bytes(), artifacts.estimated_bytes());
    assert_eq!(text.line_count(), artifacts.engine().text().line_count());
    assert!(
        !restored.is_program_materialized()
            && !text.is_body_materialized()
            && !text.is_index_materialized(),
        "store accounting must not force the lazy sections"
    );

    // Through the service: a snapshot-dir-backed store restores the
    // image lazily; `stats` and an unknown-detector request leave the
    // sections parked.
    let dir = std::env::temp_dir().join(format!("backdroid-lazy-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = BenchsetConfig::sized(2, 0.04);
    let cfg = ServiceConfig {
        budget_bytes: u64::MAX,
        snapshot_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    // First service populates the snapshot dir.
    Service::over_benchset(bench, cfg.clone())
        .analyze_app("0")
        .unwrap();
    // Second service restores from disk.
    let service = Service::over_benchset(bench, cfg);
    assert!(matches!(
        service.query_detectors("0", &["nope"]),
        Err(ServiceError::UnknownDetector(_))
    ));
    // The unknown-detector error fails before any image is fetched, and
    // the stats snapshot reads only counters — neither touches text.
    let _ = service.metrics().snapshot();
    let (image, _) = service.store().get("0").unwrap();
    let text = image.engine().text();
    assert!(
        !image.is_program_materialized()
            && !text.is_body_materialized()
            && !text.is_index_materialized(),
        "disk-warm restore stayed lazy until a real analysis"
    );
    // A real analysis materializes on demand — and matches the golden
    // direct run.
    let analysis = service.analyze_app("0").unwrap();
    assert!(image.engine().text().is_index_materialized());
    let golden = Service::over_benchset(
        bench,
        ServiceConfig {
            budget_bytes: 0,
            ..ServiceConfig::default()
        },
    )
    .analyze_app("0")
    .unwrap();
    assert_eq!(analysis.report.sink_reports, golden.report.sink_reports);
    let _ = std::fs::remove_dir_all(&dir);
}
