//! Snapshot persistence invariants, end to end:
//!
//! * **Exactness** — `from_snapshot(to_snapshot(a))` preserves analysis
//!   output byte-for-byte (proptest over fuzzed benchset apps and the
//!   deterministic fixture corpus), and re-snapshotting the restored
//!   image reproduces the original bytes.
//! * **Totality** — truncated, corrupted, and version-bumped snapshots
//!   are rejected with the right error, never a panic.
//! * **Two-tier service** — a `Service` with a `--snapshot-dir`-style
//!   disk tier renders byte-identical responses across cold-parse,
//!   disk-warm, and memory-warm serving, which is the contract the CI
//!   `snapshot-smoke` job enforces on the real binary.
//! * **Updates** — a published version persists as its snapshot and
//!   nothing else, and a fresh service over the same directory restores
//!   that version from it.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::fixtures::{fixture_count, snapshot_fixture};
use backdroid_appgen::mutate_version;
use backdroid_core::{
    AppArtifacts, Backdroid, BackdroidOptions, BackendChoice, SnapshotError, SNAPSHOT_MAGIC,
};
use backdroid_service::{proto, Fetch, Service, ServiceConfig};
use proptest::prelude::*;

/// A scratch directory removed on drop (no tempfile crate vendored).
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-snapshot-test-{tag}-{}",
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

fn roundtrip_exactly(artifacts: &AppArtifacts, backend: BackendChoice, label: &str) {
    let tool = Backdroid::with_options(BackdroidOptions {
        backend,
        ..BackdroidOptions::default()
    });
    let bytes = artifacts.to_snapshot();
    assert_eq!(bytes, artifacts.to_snapshot(), "{label}: deterministic");
    let restored = AppArtifacts::from_snapshot(&bytes, backend)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_eq!(
        restored.to_snapshot(),
        bytes,
        "{label}: re-snapshot byte-identical"
    );
    assert_eq!(
        restored.estimated_bytes(),
        artifacts.estimated_bytes(),
        "{label}: store accounting unchanged by the disk round-trip"
    );
    let fresh = tool.analyze_artifacts(artifacts);
    let after = tool.analyze_artifacts(&restored);
    assert_eq!(
        fresh.sink_reports, after.sink_reports,
        "{label}: analysis output must survive the round-trip byte-for-byte"
    );
    assert_eq!(fresh.sink_cache.located, after.sink_cache.located);
    assert_eq!(fresh.sink_cache.skipped, after.sink_cache.skipped);
}

#[test]
fn every_fixture_roundtrips_on_both_backends() {
    for i in 0..fixture_count() {
        let app = snapshot_fixture(i);
        let artifacts =
            AppArtifacts::with_backend(app.program, app.manifest, BackendChoice::Indexed);
        roundtrip_exactly(&artifacts, BackendChoice::Indexed, &format!("fixture {i}"));
        // The same snapshot must serve the linear oracle identically.
        let bytes = artifacts.to_snapshot();
        let linear = AppArtifacts::from_snapshot(&bytes, BackendChoice::LinearScan).unwrap();
        let tool_l = Backdroid::with_options(BackdroidOptions {
            backend: BackendChoice::LinearScan,
            ..BackdroidOptions::default()
        });
        let tool_i = Backdroid::with_options(BackdroidOptions::default());
        assert_eq!(
            tool_i.analyze_artifacts(&artifacts).sink_reports,
            tool_l.analyze_artifacts(&linear).sink_reports,
            "fixture {i}: one snapshot, both backends, same reports"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed benchset apps: any (index, count, code-permille) cell of the
    /// corpus grid round-trips with byte-identical analysis output.
    #[test]
    fn fuzzed_benchset_apps_roundtrip(
        idx in 0usize..6,
        count in 1usize..6,
        permille in 20u32..60,
    ) {
        let cfg = BenchsetConfig::sized(count.max(idx + 1), permille as f64 / 1000.0);
        let ba = bench_app(idx.min(cfg.count - 1), cfg);
        let artifacts = AppArtifacts::new(ba.app.program, ba.app.manifest);
        roundtrip_exactly(
            &artifacts,
            BackendChoice::default(),
            &format!("bench app {idx} of {count} @{permille}‰"),
        );
    }
}

#[test]
fn truncated_corrupt_and_version_bumped_snapshots_are_rejected() {
    let app = snapshot_fixture(1);
    let artifacts = AppArtifacts::new(app.program, app.manifest);
    let bytes = artifacts.to_snapshot();
    assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC);

    // Every strict prefix is rejected (never a panic, never an image).
    for cut in 0..bytes.len() {
        assert!(
            AppArtifacts::from_snapshot(&bytes[..cut], BackendChoice::default()).is_err(),
            "prefix of {cut}/{} bytes restored",
            bytes.len()
        );
    }

    // Single-byte corruption anywhere is rejected: header bytes hit the
    // magic/version/length checks, payload and trailer bytes the
    // checksum. (Sampled stride keeps the test fast.)
    for i in (0..bytes.len()).step_by(13) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        assert!(
            AppArtifacts::from_snapshot(&bad, BackendChoice::default()).is_err(),
            "flip at byte {i} restored"
        );
    }

    // A version bump is specifically a VersionMismatch, so operators can
    // tell stale formats from bit rot.
    let mut bumped = bytes.clone();
    bumped[8] = bumped[8].wrapping_add(1);
    assert!(matches!(
        AppArtifacts::from_snapshot(&bumped, BackendChoice::default()),
        Err(SnapshotError::VersionMismatch { .. })
    ));
}

/// Drives one trace through a service three times — cold (empty snapshot
/// dir), disk-warm (same dir again, fresh process state), memory-warm
/// (same service again) — and demands byte-identical rendered responses.
#[test]
fn service_responses_are_identical_across_all_three_tiers() {
    let scratch = ScratchDir::new("tiers");
    let bench = BenchsetConfig::sized(4, 0.04);
    let cfg = ServiceConfig {
        budget_bytes: u64::MAX,
        snapshot_dir: Some(scratch.0.clone()),
        ..ServiceConfig::default()
    };
    let trace: Vec<&str> = vec!["0", "2", "1", "2", "0"];

    let render = |service: &Service| -> Vec<String> {
        trace
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let a = service.analyze_app(id).expect("benchset app loads");
                proto::render_analysis(i as u64, "analyze", &a)
            })
            .collect()
    };

    // Tier 1: cold parses, written back by the flush.
    let cold_service = Service::over_benchset(bench, cfg.clone());
    let cold = render(&cold_service);
    cold_service.store().flush();
    let s = cold_service.metrics().snapshot();
    assert_eq!(
        s.value("store_disk_hits_total"),
        0,
        "empty dir: nothing to restore"
    );
    assert_eq!(
        s.value("store_disk_writes_total"),
        3,
        "one write per distinct app"
    );
    assert!(s.value("store_disk_bytes_written_total") > 0);

    // Tier 2: a fresh service over the populated directory — every
    // first-touch load is a snapshot restore, zero re-parses.
    let disk_service = Service::over_benchset(bench, cfg.clone());
    let disk = render(&disk_service);
    let s = disk_service.metrics().snapshot();
    assert_eq!(
        s.value("store_disk_hits_total"),
        3,
        "all first-touch loads restored from disk"
    );
    assert_eq!(s.value("store_misses_total"), 0, "no app was re-parsed");

    // Tier 3: the same resident service again — memory hits only.
    let memory = render(&disk_service);
    let s = disk_service.metrics().snapshot();
    assert_eq!(s.value("store_loads_total"), 3, "nothing new was produced");

    assert_eq!(cold, disk, "cold-parse vs disk-warm responses");
    assert_eq!(cold, memory, "cold-parse vs memory-warm responses");
}

/// Corrupting a snapshot behind the service's back must degrade to a
/// reparse — identical responses, one invalidation counted.
#[test]
fn service_survives_snapshot_corruption_with_identical_output() {
    let scratch = ScratchDir::new("corrupt");
    let bench = BenchsetConfig::sized(3, 0.04);
    let cfg = ServiceConfig {
        budget_bytes: u64::MAX,
        snapshot_dir: Some(scratch.0.clone()),
        ..ServiceConfig::default()
    };
    let golden = Service::over_benchset(bench, cfg.clone());
    let a = golden.analyze_app("1").unwrap();
    let golden_line = proto::render_analysis(0, "analyze", &a);
    golden.store().flush();

    // Corrupt the snapshot the first service just wrote.
    let tier = golden.store().disk_tier().expect("disk tier configured");
    let path = tier.path_for("1");
    let mut bytes = std::fs::read(&path).expect("snapshot written by the flush");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let recovering = Service::over_benchset(bench, cfg);
    let b = recovering.analyze_app("1").unwrap();
    assert_eq!(
        proto::render_analysis(0, "analyze", &b),
        golden_line,
        "reparse fallback must not change the response"
    );
    recovering.store().flush();
    let s = recovering.metrics().snapshot();
    assert_eq!(s.value("store_disk_invalidations_total"), 1);
    assert_eq!(
        s.value("store_misses_total"),
        1,
        "the corrupt snapshot forced one reparse"
    );
    assert_eq!(
        s.value("store_disk_writes_total"),
        1,
        "and the snapshot was re-written"
    );
    // The re-written snapshot is valid again.
    let again = Service::over_benchset(
        bench,
        ServiceConfig {
            budget_bytes: u64::MAX,
            snapshot_dir: Some(scratch.0.clone()),
            ..ServiceConfig::default()
        },
    );
    again.analyze_app("1").unwrap();
    assert_eq!(again.metrics().snapshot().value("store_disk_hits_total"), 1);
}

/// A `put_version` persists as the app's snapshot alone: the service
/// that published it leaves exactly `1.snap` behind, and a fresh
/// service over the same directory restores the updated version from
/// it, with the same reply bytes.
#[test]
fn an_update_survives_a_restart_through_its_snapshot_alone() {
    let scratch = ScratchDir::new("update-restart");
    let bench = BenchsetConfig::sized(4, 0.04);
    let cfg = ServiceConfig {
        budget_bytes: u64::MAX,
        snapshot_dir: Some(scratch.0.clone()),
        ..ServiceConfig::default()
    };
    let published = {
        let service = Service::over_benchset(bench, cfg.clone());
        assert_eq!(service.put_version("1", 7).unwrap().version, 2);
        let a = service.analyze_app("1").unwrap();
        proto::render_analysis(0, "analyze", &a)
    };
    let mut files: Vec<String> = std::fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["1.snap"], "the update left only its snapshot");

    let restarted = Service::over_benchset(bench, cfg);
    let b = restarted.analyze_app("1").unwrap();
    assert_eq!(
        b.fetch,
        Fetch::Disk,
        "the updated version restores from disk"
    );
    assert_eq!(proto::render_analysis(0, "analyze", &b), published);
    // Seed 7 leaves app 1's reply bytes unchanged, so compare programs.
    let pristine = bench_app(1, bench).app.program;
    let (updated, _) = mutate_version(&pristine, 7);
    assert_ne!(updated, pristine, "seed 7 changes the program");
    let (restored, _) = restarted.store().get("1").unwrap();
    assert_eq!(restored.program(), &updated);
}
