//! The serving layer in one sitting: a resident multi-app analysis
//! service over a small benchmark corpus.
//!
//! A [`Service`] keeps preprocessed app images (`AppArtifacts`) resident
//! in a byte-budgeted LRU store, so the first request for an app pays
//! the encode → disassemble → index cost and every later request — full
//! analysis, per-sink-class query, or batched multi-app — reuses the
//! warm image. Responses are a pure function of (app, requested sinks):
//! warm and cold runs report byte-identical findings.
//!
//! The `backdroid-serve` binary wraps exactly this API in a
//! line-delimited JSON protocol on stdin/stdout.

use backdroid_appgen::benchset::BenchsetConfig;
use backdroid_service::{Fetch, Service, ServiceConfig};

fn main() {
    // Eight generated "modern apps"; ids are benchset indices "0".."7".
    let service = Service::over_benchset(
        BenchsetConfig::sized(8, 0.05),
        ServiceConfig {
            budget_bytes: 64 * 1024 * 1024,
            ..ServiceConfig::default()
        },
    );

    // Cold: the first request builds and caches the app image.
    let cold = service.analyze_app("3").expect("analysis");
    println!(
        "cold analyze of {} ({:?}): {} sinks analyzed, {} vulnerable",
        cold.app_name,
        cold.fetch,
        cold.report.sinks_analyzed(),
        cold.report.vulnerable_sinks().len()
    );
    assert_eq!(cold.fetch, Fetch::Miss);

    // Warm: the image is resident; only the (cached) analysis runs.
    let warm = service.analyze_app("3").expect("analysis");
    println!(
        "warm analyze of {} ({:?}): identical reports = {}",
        warm.app_name,
        warm.fetch,
        warm.report.sink_reports == cold.report.sink_reports
    );
    assert_eq!(warm.fetch, Fetch::Hit);
    assert_eq!(warm.report.sink_reports, cold.report.sink_reports);

    // Per-detector queries restrict the registry per request.
    let crypto = service.query_detectors("3", &["crypto"]).expect("query");
    let ssl = service.query_detectors("3", &["ssl"]).expect("query");
    println!(
        "detector queries on the warm image: crypto={} reports, ssl={} reports (full={})",
        crypto.report.sink_reports.len(),
        ssl.report.sink_reports.len(),
        cold.report.sink_reports.len()
    );

    // Batched multi-app request: fanned out over the store, results in
    // request order.
    let ids: Vec<String> = ["0", "1", "3", "1"].iter().map(|s| s.to_string()).collect();
    let batch = service.analyze_batch(&ids);
    for (id, result) in ids.iter().zip(&batch) {
        let a = result.as_ref().expect("batch item");
        println!(
            "  batch app {id}: {} — {} vulnerable",
            a.app_name,
            a.report.vulnerable_sinks().len()
        );
    }

    let stats = service.metrics().snapshot();
    println!(
        "service stats: {} requests, store {} loads / {} hits ({}/{} bytes resident, {} evictions)",
        stats.value("service_requests_total"),
        stats.value("store_loads_total"),
        stats.value("store_hits_total"),
        stats.value("store_resident_bytes"),
        service.store().budget_bytes(),
        stats.value("store_evictions_total")
    );
    assert!(stats.value("store_resident_bytes") <= service.store().budget_bytes());
}
