//! Serving-layer contracts, tier-1 enforced:
//!
//! 1. the app store's eviction respects the byte budget and strict LRU
//!    order;
//! 2. single-flight loading builds a cold app exactly once under a
//!    fuzzed concurrent burst;
//! 3. service responses are **byte-identical** to direct
//!    `analyze_artifacts` runs — for both search backends, warm or
//!    cold, through the shared protocol renderer the `backdroid-serve`
//!    binary uses on the wire;
//! 4. the store is the one owner of an updated app's image: it counts
//!    the image while it has no snapshot, restores it from its snapshot
//!    once evicted, and never rebuilds it with the loader, which only
//!    knows version 1.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::{mutate_version, AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{AppArtifacts, Backdroid, BackdroidOptions, BackendChoice, DetectorRegistry};
use backdroid_service::proto;
use backdroid_service::{AppAnalysis, AppStore, Fetch, Service, ServiceConfig, ServiceError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A loader over small distinct apps. Ids of equal length produce
/// equal-sized images (the id feeds the generated class names, so its
/// length shows up in the dump) — the eviction test relies on that.
fn uniform_loader() -> impl Fn(&str) -> Result<AppArtifacts, String> + Send + Sync + 'static {
    |id: &str| {
        let app = AppSpec::named(format!("com.eq.{id}"))
            .with_scenario(Scenario::new(
                Mechanism::DirectEntry,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(5, 3, 4)
            .generate();
        Ok(AppArtifacts::new(app.program, app.manifest))
    }
}

#[test]
fn eviction_respects_budget_and_lru_order() {
    let image_bytes = uniform_loader()("z").unwrap().estimated_bytes();
    // Room for exactly three images.
    let budget = image_bytes * 3 + image_bytes / 2;
    let store = AppStore::new(budget, uniform_loader());

    for id in ["a", "b", "c"] {
        assert_eq!(store.get(id).unwrap().1, Fetch::Miss);
    }
    assert_eq!(
        store.metrics().snapshot().value("store_evictions_total"),
        0,
        "three images fit"
    );
    assert_eq!(store.lru_order(), ["a", "b", "c"]);

    // Touch `a`: it becomes most recent, `b` is now the LRU victim.
    assert_eq!(store.get("a").unwrap().1, Fetch::Hit);
    assert_eq!(store.lru_order(), ["b", "c", "a"]);
    assert_eq!(store.get("d").unwrap().1, Fetch::Miss);
    assert_eq!(store.lru_order(), ["c", "a", "d"]);
    assert!(!store.contains("b"), "b was least recently used");

    // Keep loading: eviction follows LRU order exactly, and at every
    // observation point the store is within budget.
    for id in ["e", "f", "g"] {
        let _ = store.get(id).unwrap();
        assert!(store.resident_bytes() <= budget);
        assert_eq!(store.resident_apps(), 3);
    }
    assert_eq!(store.lru_order(), ["e", "f", "g"]);
    let stats = store.metrics().snapshot();
    assert_eq!(stats.value("store_evictions_total"), 4);
    assert_eq!(stats.value("store_bytes_evicted_total"), image_bytes * 4);
    assert!(stats.value("store_peak_resident_bytes") <= budget);
}

#[test]
fn single_flight_loads_each_app_exactly_once_under_fuzzed_bursts() {
    for seed in 0..4u64 {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let inner = uniform_loader();
        let store = Arc::new(AppStore::new(u64::MAX, move |id: &str| {
            c.fetch_add(1, Ordering::SeqCst);
            // Widen the race window so bursts genuinely overlap.
            std::thread::sleep(std::time::Duration::from_millis(5));
            inner(id)
        }));
        let apps = ["w", "x", "y"];
        let threads = 8;
        let gets_per_thread = 6;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    // Deterministic per-thread pseudo-random app order.
                    let mut state = seed * 1_000_003 + t as u64 * 7919 + 1;
                    for _ in 0..gets_per_thread {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let id = apps[(state >> 33) as usize % apps.len()];
                        let (artifacts, _) = store.get(id).unwrap();
                        assert!(artifacts.program().method_count() > 0);
                    }
                });
            }
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            apps.len(),
            "seed {seed}: every app must load exactly once"
        );
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_loads_total"), apps.len() as u64);
        assert_eq!(stats.value("store_misses_total"), apps.len() as u64);
        assert_eq!(
            stats.value("store_hits_total")
                + stats.value("store_misses_total")
                + stats.value("store_coalesced_total"),
            (threads * gets_per_thread) as u64
        );
    }
}

/// Benchset app `i` after the update chain `seeds`, built directly — the
/// image `put_version` publishes for that chain.
fn updated_app(
    i: usize,
    cfg: BenchsetConfig,
    seeds: &[u64],
    backend: BackendChoice,
) -> AppArtifacts {
    let app = bench_app(i, cfg).app;
    let program = seeds
        .iter()
        .fold(app.program, |p, &seed| mutate_version(&p, seed).0);
    AppArtifacts::with_backend(program, app.manifest, backend)
}

/// Renders the direct (store-free) analysis of benchset app `i` after
/// the update chain `seeds` with the given backend and registry, through
/// the same protocol renderer the service responses use.
fn direct_response(
    id: u64,
    op: &str,
    i: usize,
    seeds: &[u64],
    cfg: BenchsetConfig,
    backend: BackendChoice,
    detectors: DetectorRegistry,
) -> String {
    let artifacts = updated_app(i, cfg, seeds, backend);
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        detectors,
        ..BackdroidOptions::default()
    });
    let report = tool.analyze_artifacts(&artifacts);
    let analysis = AppAnalysis {
        app_id: i.to_string(),
        app_name: artifacts.manifest().package().to_string(),
        report,
        fetch: Fetch::Miss,
    };
    proto::render_analysis(id, op, &analysis)
}

#[test]
fn service_responses_match_direct_analysis_byte_for_byte_on_both_backends() {
    let cfg = BenchsetConfig::sized(5, 0.04);
    for backend in [BackendChoice::LinearScan, BackendChoice::Indexed] {
        let service = Service::over_benchset(
            cfg,
            ServiceConfig {
                budget_bytes: u64::MAX,
                backend,
                ..ServiceConfig::default()
            },
        );
        let full = DetectorRegistry::paper();
        for i in 0..cfg.count {
            let id = i as u64;
            let served = service.analyze_app(&i.to_string()).unwrap();
            let served_json = proto::render_analysis(id, "analyze", &served);
            assert_eq!(
                served_json,
                direct_response(id, "analyze", i, &[], cfg, backend, full.clone()),
                "backend {backend:?}, app {i}: cold service response must equal direct analysis"
            );
            // Warm repeat: resident image, byte-identical response.
            let warm = service.analyze_app(&i.to_string()).unwrap();
            assert_eq!(warm.fetch, Fetch::Hit);
            assert_eq!(proto::render_analysis(id, "analyze", &warm), served_json);
        }
        // Detector queries against warm images match direct runs with a
        // restricted registry.
        for id in ["crypto", "ssl"] {
            let filtered = full.select(&[id]).unwrap();
            let served = service.query_detectors("2", &[id]).unwrap();
            assert_eq!(
                proto::render_analysis(9, "query", &served),
                direct_response(9, "query", 2, &[], cfg, backend, filtered),
                "backend {backend:?}, detector {id:?}"
            );
        }
    }
}

#[test]
fn linear_and_indexed_backends_serve_identical_responses() {
    let cfg = BenchsetConfig::sized(4, 0.04);
    let serve_all = |backend: BackendChoice| -> Vec<String> {
        let service = Service::over_benchset(
            cfg,
            ServiceConfig {
                budget_bytes: u64::MAX,
                backend,
                ..ServiceConfig::default()
            },
        );
        (0..cfg.count)
            .map(|i| {
                let a = service.analyze_app(&i.to_string()).unwrap();
                proto::render_analysis(i as u64, "analyze", &a)
            })
            .collect()
    };
    assert_eq!(
        serve_all(BackendChoice::LinearScan),
        serve_all(BackendChoice::Indexed),
        "responses must never depend on the search backend"
    );
}

/// A scratch directory removed on drop (no tempfile crate vendored).
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-service-test-{tag}-{}",
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

#[test]
fn updated_images_stay_resident_and_counted_without_a_disk_tier() {
    // Zero budget and no disk tier: the loader only knows version 1, so
    // the store keeps an updated image resident, outside the budget —
    // and counts it, where nothing else stays.
    let cfg = BenchsetConfig::sized(6, 0.04);
    let service = Service::over_benchset(
        cfg,
        ServiceConfig {
            budget_bytes: 0,
            ..ServiceConfig::default()
        },
    );
    let resident = || {
        let snap = service.metrics().snapshot();
        (
            snap.value("store_resident_bytes"),
            snap.value("store_resident_apps"),
        )
    };
    service.analyze_app("1").unwrap();
    assert_eq!(resident(), (0, 0), "a zero budget keeps no loader build");
    assert_eq!(service.put_version("1", 7).unwrap().version, 2);
    let updated = updated_app(1, cfg, &[7], BackendChoice::default());
    assert_eq!(resident(), (updated.estimated_bytes(), 1));
    let a = service.analyze_app("1").unwrap();
    assert_eq!(a.fetch, Fetch::Hit, "the updated image stays resident");
    // Other apps still come and go under the zero budget.
    service.analyze_app("2").unwrap();
    assert_eq!(resident(), (updated.estimated_bytes(), 1));
    assert_eq!(service.store().resident_bytes(), updated.estimated_bytes());
    let (image, _) = service.store().get("1").unwrap();
    assert_eq!(image.program(), updated.program());
    let b = service.analyze_delta("1").unwrap();
    assert_eq!(render(&a), render(&b));
}

/// A disk-tier service whose budget holds about one image, with app 1
/// updated by `seed` and then evicted by a read of app 0.
fn evicted_update(scratch: &ScratchDir, cfg: BenchsetConfig, seed: u64) -> Service {
    let service = Service::over_benchset(
        cfg,
        ServiceConfig {
            budget_bytes: updated_app(1, cfg, &[seed], BackendChoice::default()).estimated_bytes(),
            snapshot_dir: Some(scratch.0.clone()),
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.put_version("1", seed).unwrap().version, 2);
    assert!(service.store().contains("1"));
    service.analyze_app("0").unwrap();
    assert!(
        !service.store().contains("1"),
        "the read evicted the update"
    );
    service
}

#[test]
fn an_evicted_update_is_restored_from_its_snapshot() {
    let scratch = ScratchDir::new("evicted-update");
    let cfg = BenchsetConfig::sized(4, 0.04);
    let service = evicted_update(&scratch, cfg, 11);
    let served = service.analyze_app("1").unwrap();
    assert_eq!(served.fetch, Fetch::Disk, "the update came back from disk");
    let backend = BackendChoice::default();
    assert_eq!(
        render(&served),
        direct_response(
            0,
            "analyze",
            1,
            &[11],
            cfg,
            backend,
            DetectorRegistry::paper()
        )
    );
    let (image, fetch) = service.store().get("1").unwrap();
    assert_eq!(fetch, Fetch::Hit);
    let updated = updated_app(1, cfg, &[11], backend);
    assert_eq!(image.program(), updated.program(), "not the loader's build");
    assert_eq!(service.store().version("1"), 2);
}

#[test]
fn an_evicted_update_without_its_snapshot_fails_to_load() {
    let scratch = ScratchDir::new("lost-update");
    let cfg = BenchsetConfig::sized(4, 0.04);
    let service = evicted_update(&scratch, cfg, 11);
    let tier = service.store().disk_tier().expect("disk tier configured");
    std::fs::remove_file(tier.path_for("1")).expect("put wrote the snapshot");
    let before = service.metrics().snapshot();
    match service.analyze_app("1") {
        Err(ServiceError::Load(message)) => assert!(message.contains("version 2"), "{message}"),
        other => panic!("expected a load error, got {other:?}"),
    }
    let after = service.metrics().snapshot();
    assert_eq!(
        after.value("store_misses_total"),
        before.value("store_misses_total"),
        "the loader, which only builds version 1, never ran"
    );
    assert_eq!(after.value("store_load_failures_total"), 1);
}
