//! The store-owned analysis memo, tier-1 enforced on both search
//! backends. A resident image never changes, so a repeat read of it is
//! answered from the memo its first read left in the store:
//!
//! * the reply is byte-identical to a from-scratch analysis, and the
//!   hit runs no search and records no pipeline phase;
//! * the memo key is the selected detector set, so a `query` naming
//!   every detector, or none, shares the `analyze` entry;
//! * a memo never outlives its image — an update or an eviction ends
//!   it — and `analyze_delta` never reads or writes one;
//! * memo bytes count in the store's budget, and admitting a memo never
//!   evicts its own image or leaves the store over budget.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::mutate_version;
use backdroid_core::{AppArtifacts, Backdroid, BackdroidOptions, BackendChoice, DetectorRegistry};
use backdroid_obs::RegistrySnapshot;
use backdroid_service::{proto, AppAnalysis, Fetch, Service, ServiceConfig};

const BACKENDS: [BackendChoice; 2] = [BackendChoice::Indexed, BackendChoice::LinearScan];

fn bench() -> BenchsetConfig {
    BenchsetConfig::sized(4, 0.04)
}

fn service(budget_bytes: u64, backend: BackendChoice) -> Service {
    Service::over_benchset(
        bench(),
        ServiceConfig {
            budget_bytes,
            backend,
            ..ServiceConfig::default()
        },
    )
}

/// A scratch directory removed on drop (no tempfile crate vendored).
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-analysis-memo-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn render(a: &AppAnalysis) -> String {
    proto::render_analysis(0, "analyze", a)
}

/// The store-free analysis of benchset app `i` after the update chain
/// `seeds`, rendered like the service's replies.
fn from_scratch(
    i: usize,
    seeds: &[u64],
    backend: BackendChoice,
    detectors: DetectorRegistry,
) -> String {
    let app = bench_app(i, bench()).app;
    let program = seeds
        .iter()
        .fold(app.program, |p, &seed| mutate_version(&p, seed).0);
    let artifacts = AppArtifacts::with_backend(program, app.manifest, backend);
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        detectors,
        ..BackdroidOptions::default()
    });
    render(&AppAnalysis {
        app_id: i.to_string(),
        app_name: artifacts.manifest().package().to_string(),
        report: tool.analyze_artifacts(&artifacts),
        fetch: Fetch::Miss,
    })
}

/// `(memo hits, memo misses)` so far.
fn memo(service: &Service) -> (u64, u64) {
    let snap = service.metrics().snapshot();
    (
        snap.value("analysis_memo_hits_total"),
        snap.value("analysis_memo_misses_total"),
    )
}

/// Everything only an analysis records: search work, phase samples and
/// lazy-restore materialization.
fn analysis_work(snap: &RegistrySnapshot) -> Vec<u64> {
    let mut work: Vec<u64> = [
        "search_commands_total",
        "search_cache_hits_total",
        "search_lines_scanned_total",
        "search_postings_touched_total",
        "lazy_sections_materialized_total",
    ]
    .iter()
    .map(|name| snap.value(name))
    .collect();
    for name in ["phase_locate_us", "phase_slice_us", "phase_verdict_us"] {
        let h = snap.histogram(name).expect("phase histogram registered");
        work.extend([h.count, h.sum]);
    }
    work
}

/// The image estimate of resident app `id`, read without a memo lookup.
fn image_bytes(service: &Service, id: &str) -> u64 {
    service
        .store()
        .get(id)
        .expect("app loads")
        .0
        .estimated_bytes()
}

#[test]
fn a_repeat_analyze_is_a_memo_hit_with_an_identical_reply() {
    for backend in BACKENDS {
        let service = service(u64::MAX, backend);
        let first = service.analyze_app("1").unwrap();
        assert_eq!(
            memo(&service),
            (0, 1),
            "{backend:?}: the first read analyzes"
        );
        let before = service.metrics().snapshot();
        let second = service.analyze_app("1").unwrap();
        let after = service.metrics().snapshot();
        assert_eq!(second.fetch, Fetch::Hit);
        assert_eq!(
            memo(&service),
            (1, 1),
            "{backend:?}: the repeat is a memo hit"
        );
        assert_eq!(render(&first), render(&second));
        assert_eq!(
            render(&second),
            from_scratch(1, &[], backend, DetectorRegistry::paper())
        );
        assert_eq!(
            analysis_work(&before),
            analysis_work(&after),
            "{backend:?}: a memo hit runs no search and records no phase"
        );
        assert_eq!(
            after.histogram("request_hit_us").map(|h| h.count),
            Some(1),
            "{backend:?}: the hit's request time still lands in its fetch tier"
        );
        assert_eq!(second.report.cache_stats, Default::default());
        assert_eq!(second.report.phases, Default::default());
    }
}

#[test]
fn full_and_empty_queries_share_the_analyze_entry_and_a_subset_has_its_own() {
    for backend in BACKENDS {
        let service = service(u64::MAX, backend);
        let all = render(&service.analyze_app("0").unwrap());
        assert_eq!(memo(&service), (0, 1));
        for ids in [
            &["crypto", "ssl"][..],
            &["ssl", "crypto"],
            &["ssl", "crypto", "ssl"],
            &[],
        ] {
            let q = service.query_detectors("0", ids).unwrap();
            assert_eq!(render(&q), all, "{backend:?}: query {ids:?}");
        }
        assert_eq!(
            memo(&service),
            (4, 1),
            "{backend:?}: every full query hit the analyze entry"
        );
        let crypto = render(&service.query_detectors("0", &["crypto"]).unwrap());
        assert_eq!(
            memo(&service),
            (4, 2),
            "{backend:?}: a subset is its own key"
        );
        let again = render(&service.query_detectors("0", &["crypto"]).unwrap());
        assert_eq!(memo(&service), (5, 2));
        assert_eq!(crypto, again);
        let crypto_only = DetectorRegistry::paper().select(&["crypto"]).unwrap();
        assert_eq!(crypto, from_scratch(0, &[], backend, crypto_only));
        assert_ne!(crypto, all);
        // The batch path reads the same entry.
        let batch = service.analyze_batch(&["0".to_string()]);
        assert_eq!(render(batch[0].as_ref().unwrap()), all);
        assert_eq!(memo(&service), (6, 2));
    }
}

#[test]
fn an_update_ends_the_memo_of_the_version_it_displaces() {
    for backend in BACKENDS {
        let paper = DetectorRegistry::paper;
        let v1 = from_scratch(1, &[], backend, paper());
        // The first update seed that changes app 1's reply, so that a
        // stale memo would show.
        let (seed, fresh) = (0..64)
            .map(|seed| (seed, from_scratch(1, &[seed], backend, paper())))
            .find(|(_, reply)| *reply != v1)
            .expect("some update changes the reply");
        let service = service(u64::MAX, backend);
        assert_eq!(render(&service.analyze_app("1").unwrap()), v1);
        assert_eq!(service.put_version("1", seed).unwrap().version, 2);
        let v2 = service.analyze_app("1").unwrap();
        assert_eq!(v2.fetch, Fetch::Hit);
        assert_eq!(
            memo(&service),
            (0, 2),
            "{backend:?}: the new version is analyzed afresh"
        );
        assert_eq!(render(&v2), fresh);
        assert_eq!(render(&service.analyze_app("1").unwrap()), fresh);
        assert_eq!(memo(&service), (1, 2));
    }
}

#[test]
fn an_evicted_and_restored_image_is_a_memo_miss_with_an_identical_reply() {
    for backend in BACKENDS {
        let scratch = ScratchDir::new(&format!("restore-{backend:?}"));
        let probe = service(u64::MAX, backend);
        // Room for one image and its memo, not two images.
        let budget = image_bytes(&probe, "0").max(image_bytes(&probe, "1")) * 3 / 2;
        let service = Service::over_benchset(
            bench(),
            ServiceConfig {
                budget_bytes: budget,
                backend,
                snapshot_dir: Some(scratch.0.clone()),
            },
        );
        let first = render(&service.analyze_app("0").unwrap());
        service.analyze_app("1").unwrap();
        assert!(
            !service.store().contains("0"),
            "reading app 1 evicted app 0"
        );
        let before = memo(&service);
        let restored = service.analyze_app("0").unwrap();
        assert_eq!(restored.fetch, Fetch::Disk, "{backend:?}");
        assert_eq!(
            memo(&service),
            (before.0, before.1 + 1),
            "{backend:?}: the memo died with the evicted image"
        );
        assert_eq!(render(&restored), first);
        let warm = service.analyze_app("0").unwrap();
        assert_eq!(
            (warm.fetch, memo(&service)),
            (Fetch::Hit, (before.0 + 1, before.1 + 1))
        );
        assert_eq!(render(&warm), first);
    }
}

#[test]
fn analyze_delta_leaves_the_memo_alone() {
    for backend in BACKENDS {
        let service = service(u64::MAX, backend);
        let analyzed = render(&service.analyze_app("2").unwrap());
        assert_eq!(memo(&service), (0, 1));
        let delta = service.analyze_delta("2").unwrap();
        assert_eq!(render(&delta), analyzed);
        service.put_version("2", 11).unwrap();
        service.analyze_delta("2").unwrap();
        assert_eq!(
            memo(&service),
            (0, 1),
            "{backend:?}: delta runs neither read nor wrote the memo"
        );
        assert!(
            service.metrics().snapshot().value("search_commands_total") > 0,
            "the delta runs analyzed"
        );
        // Nor did they leave an entry behind for the new version.
        service.analyze_app("2").unwrap();
        assert_eq!(memo(&service), (0, 2));
    }
}

#[test]
fn memo_bytes_stay_inside_the_budget_and_never_evict_their_own_image() {
    for backend in BACKENDS {
        // Image and memo sizes, from an unbounded probe.
        let probe = service(u64::MAX, backend);
        let image = |id: &str| image_bytes(&probe, id);
        let (image0, image1) = (image("0"), image("1"));
        let resident = |s: &Service| s.store().resident_bytes();
        probe.analyze_app("0").unwrap();
        let memo0 = resident(&probe) - image0 - image1;
        probe.analyze_app("1").unwrap();
        let memo1 = resident(&probe) - image0 - image1 - memo0;
        assert!(memo0 > 0 && memo1 > 0, "a memo counts in the budget");

        // The memo cannot fit beside its own image: it is dropped, and
        // the image stays.
        let tight = service(image0 + memo0 - 1, backend);
        tight.analyze_app("0").unwrap();
        assert!(
            tight.store().contains("0"),
            "{backend:?}: the memo evicted its image"
        );
        assert_eq!(resident(&tight), image0);
        let again = tight.analyze_app("0").unwrap();
        assert_eq!((again.fetch, memo(&tight)), (Fetch::Hit, (0, 2)));

        // It fits once another image goes: the least recently used one
        // is evicted, as for an insertion.
        let budget = image0 + image1 + memo0 + memo1 - 1;
        let pair = service(budget, backend);
        pair.analyze_app("1").unwrap();
        assert_eq!(resident(&pair), image1 + memo1);
        pair.analyze_app("0").unwrap();
        assert!(pair.store().contains("0") && !pair.store().contains("1"));
        assert_eq!(resident(&pair), image0 + memo0);
        assert_eq!(pair.analyze_app("0").unwrap().fetch, Fetch::Hit);
        assert_eq!(memo(&pair), (1, 2));

        // A zero budget keeps no memo.
        let direct = service(0, backend);
        for _ in 0..2 {
            direct.analyze_app("0").unwrap();
        }
        assert_eq!((memo(&direct), resident(&direct)), ((0, 2), 0));

        // About one image, with a disk tier: every read evicts, and the
        // resident total, memos included, never exceeds the budget.
        let scratch = ScratchDir::new(&format!("budget-{backend:?}"));
        let one = Service::over_benchset(
            bench(),
            ServiceConfig {
                budget_bytes: image0 + memo0,
                backend,
                snapshot_dir: Some(scratch.0.clone()),
            },
        );
        let mut last = None;
        for id in ["0", "1", "0", "0", "2", "3", "1", "0", "0", "3"] {
            let served = one.analyze_app(id).unwrap();
            if last == Some(id) {
                assert_eq!(served.fetch, Fetch::Hit, "{backend:?}: app {id} stayed");
            }
            assert_eq!(render(&served), render(&probe.analyze_app(id).unwrap()));
            let snap = one.metrics().snapshot();
            assert!(resident(&one) <= one.store().budget_bytes());
            assert_eq!(snap.value("store_resident_bytes"), resident(&one));
            assert!(snap.value("store_peak_resident_bytes") <= one.store().budget_bytes());
            last = Some(id);
        }
        let snap = one.metrics().snapshot();
        assert!(
            snap.value("store_evictions_total") > 0,
            "the budget was tight"
        );
        assert!(
            snap.value("analysis_memo_hits_total") > 0,
            "app 0's memo was kept"
        );
    }
}
