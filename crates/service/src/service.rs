//! The serving front end: per-detector queries against the resident
//! [`AppStore`], each answered on the thread that handles the request,
//! with per-request accounting aggregated atomically (the same pattern
//! as `CacheStats`).
//!
//! Every response is a pure function of (app version, requested
//! detectors): the store only changes *where* the artifacts come from —
//! warm image, disk restore or cold load — never what the analysis
//! reports. That is the determinism contract `backdroid-serve` and the
//! CI service-smoke leg enforce byte-for-byte against golden
//! direct-analysis runs.
//!
//! Because a resident image never changes, a read (`analyze`, `query`,
//! a batch member) first fetches its image and then asks the store for
//! that image's memo of the requested detector set. A hit answers from
//! the memo. A miss runs [`Backdroid::analyze_artifacts`] and offers
//! the outcome to the store, which keeps it within its byte budget (see
//! the `store` module). `analyze_delta` never reads or writes the memo:
//! it always analyzes, to capture its delta base.
//!
//! The store owns each app's served image and version number: every
//! analyzing op gets its image from [`AppStore::get`], and updates go
//! through [`AppStore::put`]. The service keeps only what the next delta
//! run needs, outside the store's budget: the last update's reuse gate
//! and the last traced analysis base, never an image.

use crate::store::{AppStore, Fetch, Outcome};
use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::mutate_version;
use backdroid_core::{
    AppArtifacts, AppReport, Backdroid, BackdroidOptions, BackendChoice, DeltaBase, DeltaKind,
    DeltaManifest,
};
use backdroid_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Byte budget for the resident app store (`0` caches nothing but
    /// updated images without a snapshot — the direct-analysis golden
    /// mode).
    pub budget_bytes: u64,
    /// Search backend for every loaded app image.
    pub backend: BackendChoice,
    /// Optional snapshot directory enabling the store's disk tier:
    /// cold loads restore from versioned, checksummed snapshots, and
    /// built images are written back when they leave memory (see
    /// [`crate::store::DiskTier`] and [`AppStore::flush`]).
    /// Responses are byte-identical with or without it.
    pub snapshot_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            budget_bytes: 256 * 1024 * 1024,
            backend: BackendChoice::default(),
            snapshot_dir: None,
        }
    }
}

/// Why a service request failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServiceError {
    /// The store's loader could not produce the app image.
    Load(String),
    /// The request itself was malformed (empty batch, …).
    BadRequest(String),
    /// A query named a detector id this service has not registered —
    /// a deterministic error response, never a silent non-verdict.
    UnknownDetector(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Load(m) => write!(f, "load failed: {m}"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::UnknownDetector(id) => write!(f, "unknown detector id {id:?}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The deterministic outcome of a [`Service::put_version`] call: the
/// new version number plus the class counts of the by-value class diff
/// ([`DeltaManifest::between`]) between the displaced and the new
/// version. Pure functions of (current version, seed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PutVersionOutcome {
    /// The app id the request named.
    pub app_id: String,
    /// The version now being served (the loader's pristine app is 1).
    pub version: u64,
    /// Classes present in both versions that differ.
    pub classes_changed: usize,
    /// Classes only the new version defines.
    pub classes_added: usize,
    /// Classes only the old version defined.
    pub classes_removed: usize,
}

/// One completed per-app analysis, plus how its image was served.
#[derive(Debug)]
pub struct AppAnalysis {
    /// The app id the request named.
    pub app_id: String,
    /// The resolved app (package) name.
    pub app_name: String,
    /// The full analysis report (deterministic fields only go on the
    /// wire — see [`crate::proto`]).
    pub report: AppReport,
    /// Warm hit, cold load, or coalesced onto another request's load.
    /// Never rendered into responses: with concurrent workers it depends
    /// on scheduling.
    pub fetch: Fetch,
}

/// A read's analysis plus whether the store's memo answered it — the
/// `memo` attribute of its trace's `fetch` span.
pub(crate) type Read = (AppAnalysis, bool);

/// The service's registry handles: request counters, queue-depth
/// gauges, per-fetch-tier latency histograms (µs), pipeline-phase
/// histograms (µs), and the search-work counters fed from each
/// report's [`backdroid_search::CacheStats`] delta.
struct Counters {
    requests: Counter,
    analyze_requests: Counter,
    query_requests: Counter,
    batch_requests: Counter,
    errors: Counter,
    in_flight: Gauge,
    peak_in_flight: Gauge,
    request_hit_us: Histogram,
    request_miss_us: Histogram,
    request_disk_us: Histogram,
    request_coalesced_us: Histogram,
    phase_locate_us: Histogram,
    phase_slice_us: Histogram,
    phase_verdict_us: Histogram,
    search_commands: Counter,
    search_cache_hits: Counter,
    search_lines_scanned: Counter,
    search_postings_touched: Counter,
    lazy_sections_materialized: Counter,
    memo_hits: Counter,
    memo_misses: Counter,
    put_version_requests: Counter,
    delta_requests: Counter,
    update_latency_us: Histogram,
    delta_analysis_us: Histogram,
    chunks_reused: Counter,
    chunks_written: Counter,
    classes_retokenized: Counter,
    sinks_reused: Counter,
    sinks_reanalyzed: Counter,
    delta_full_fallbacks: Counter,
}

impl Counters {
    fn register(registry: &MetricsRegistry) -> Counters {
        Counters {
            requests: registry.counter("service_requests_total"),
            analyze_requests: registry.counter("service_analyze_total"),
            query_requests: registry.counter("service_query_total"),
            batch_requests: registry.counter("service_batch_total"),
            errors: registry.counter("service_errors_total"),
            in_flight: registry.gauge("service_in_flight"),
            peak_in_flight: registry.gauge("service_peak_in_flight"),
            request_hit_us: registry.histogram("request_hit_us"),
            request_miss_us: registry.histogram("request_miss_us"),
            request_disk_us: registry.histogram("request_disk_us"),
            request_coalesced_us: registry.histogram("request_coalesced_us"),
            phase_locate_us: registry.histogram("phase_locate_us"),
            phase_slice_us: registry.histogram("phase_slice_us"),
            phase_verdict_us: registry.histogram("phase_verdict_us"),
            search_commands: registry.counter("search_commands_total"),
            search_cache_hits: registry.counter("search_cache_hits_total"),
            search_lines_scanned: registry.counter("search_lines_scanned_total"),
            search_postings_touched: registry.counter("search_postings_touched_total"),
            lazy_sections_materialized: registry.counter("lazy_sections_materialized_total"),
            memo_hits: registry.counter("analysis_memo_hits_total"),
            memo_misses: registry.counter("analysis_memo_misses_total"),
            put_version_requests: registry.counter("service_put_version_total"),
            delta_requests: registry.counter("service_analyze_delta_total"),
            update_latency_us: registry.histogram("update_latency_us"),
            delta_analysis_us: registry.histogram("delta_analysis_us"),
            chunks_reused: registry.counter("chunks_reused_total"),
            chunks_written: registry.counter("chunks_written_total"),
            classes_retokenized: registry.counter("update_classes_retokenized_total"),
            sinks_reused: registry.counter("sinks_reused_total"),
            sinks_reanalyzed: registry.counter("sinks_reanalyzed_total"),
            delta_full_fallbacks: registry.counter("delta_full_fallback_total"),
        }
    }
}

/// Decrements `in_flight` when the request scope ends, whatever path it
/// took out.
struct InFlightGuard<'a>(&'a Counters);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.sub(1);
    }
}

/// What the next delta run of an app needs: the reuse gate of its last
/// update, and the last traced analysis base with the version it
/// describes. The served image and the version number live in the
/// store; this is the only per-app state the service keeps, and it sits
/// outside the store's byte budget. No image is kept: the base's traces
/// hold the search answers the displaced version gave.
///
/// A delta run uses the gate only while the base describes the version
/// just displaced (`base_version + 1` is the served version); a base
/// that describes the served version makes the run an identity update;
/// a second `put_version` before any delta run drops the base, and the
/// next run is a full one.
#[derive(Default)]
struct DeltaState {
    /// The reuse gate `put_version` computed for the update to the
    /// served version ([`DeltaManifest::gate`]). Dropped once a delta
    /// run has captured the base for that version.
    gate: Option<DeltaKind>,
    /// Per-site outcomes + traces from the last traced analysis.
    base: Option<Arc<DeltaBase>>,
    /// Which version `base` was captured against.
    base_version: u64,
}

/// The resident multi-app analysis service. `Send + Sync`; share one
/// instance across every request-handling thread.
pub struct Service {
    store: AppStore,
    /// The tool over every registered detector: what `analyze`, an
    /// unrestricted `query`, a batch member and `analyze_delta` run. A
    /// restricted `query` runs a tool over the selected detectors and
    /// this tool's other options.
    tool: Backdroid,
    /// Per-app delta state, shared by every app on this service: held
    /// only to read or record it, never across an analysis, an image
    /// build or a store call.
    deltas: Mutex<HashMap<String, DeltaState>>,
    /// Per-app update locks: `put_version` is a read-mutate-publish over
    /// the served version, so two concurrent updates to the same app
    /// must chain, not both build on the version they jointly read; and
    /// `analyze_delta` holds it so that the image it fetches and the
    /// version it reads belong together. Distinct apps update in
    /// parallel.
    update_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    registry: Arc<MetricsRegistry>,
    counters: Counters,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Creates a service over a custom app loader. The loader builds the
    /// artifacts for a cold app id; the service runs the paper's
    /// detectors ([`backdroid_core::DetectorRegistry::paper`]) with `cfg`'s search
    /// backend, and a `query` may restrict them by detector id.
    pub fn new(
        cfg: ServiceConfig,
        loader: impl Fn(&str) -> Result<AppArtifacts, String> + Send + Sync + 'static,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let disk = cfg
            .snapshot_dir
            .as_ref()
            .map(|dir| crate::store::DiskTier::new(dir, cfg.backend));
        let store = AppStore::over_registry(cfg.budget_bytes, disk, Arc::clone(&registry), loader);
        let counters = Counters::register(&registry);
        Service {
            store,
            deltas: Mutex::default(),
            update_locks: Mutex::default(),
            tool: Backdroid::with_options(BackdroidOptions {
                backend: cfg.backend,
                ..BackdroidOptions::default()
            }),
            registry,
            counters,
        }
    }

    /// Creates a service whose app ids are decimal indices into the
    /// `modern_apps` benchmark set (`"0"` … `"count-1"`) — what
    /// `backdroid-serve` and the throughput bench drive.
    pub fn over_benchset(bench: BenchsetConfig, cfg: ServiceConfig) -> Self {
        let backend = cfg.backend;
        Self::new(cfg, move |id: &str| {
            let i: usize = id
                .parse()
                .map_err(|_| format!("app id {id:?} is not a benchset index"))?;
            if i >= bench.count {
                return Err(format!(
                    "app index {i} out of range (benchset has {} apps)",
                    bench.count
                ));
            }
            let ba = bench_app(i, bench);
            Ok(AppArtifacts::with_backend(
                ba.app.program,
                ba.app.manifest,
                backend,
            ))
        })
    }

    /// The underlying app store (budget, residency, LRU order).
    pub fn store(&self) -> &AppStore {
        &self.store
    }

    /// Full-registry analysis of one app.
    pub fn analyze_app(&self, app_id: &str) -> Result<AppAnalysis, ServiceError> {
        self.analyze_read(app_id).map(|(a, _)| a)
    }

    /// [`Service::analyze_app`], plus whether the memo answered it.
    pub(crate) fn analyze_read(&self, app_id: &str) -> Result<Read, ServiceError> {
        let _guard = self.begin_request(&self.counters.analyze_requests);
        self.run(app_id, &self.tool)
    }

    /// Analysis of one app restricted to the given detector ids. An
    /// empty id list means every registered detector (same result as
    /// [`Service::analyze_app`]). An unknown id is a deterministic
    /// [`ServiceError::UnknownDetector`], never a silent non-verdict.
    pub fn query_detectors<S: AsRef<str>>(
        &self,
        app_id: &str,
        ids: &[S],
    ) -> Result<AppAnalysis, ServiceError> {
        self.query_read(app_id, ids).map(|(a, _)| a)
    }

    /// [`Service::query_detectors`], plus whether the memo answered it.
    pub(crate) fn query_read<S: AsRef<str>>(
        &self,
        app_id: &str,
        ids: &[S],
    ) -> Result<Read, ServiceError> {
        let _guard = self.begin_request(&self.counters.query_requests);
        if ids.is_empty() {
            return self.run(app_id, &self.tool);
        }
        let base = self.tool.options();
        let detectors = base.detectors.select(ids).map_err(|e| {
            self.counters.errors.inc();
            match e {
                backdroid_core::DetectorError::UnknownDetector(id) => {
                    ServiceError::UnknownDetector(id)
                }
                other => ServiceError::BadRequest(other.to_string()),
            }
        })?;
        let tool = Backdroid::with_options(BackdroidOptions {
            detectors,
            hierarchy_initial_search: base.hierarchy_initial_search,
            slicer: base.slicer,
            backend: base.backend,
        });
        self.run(app_id, &tool)
    }

    /// Batched multi-app analysis: analyzes the apps one after another,
    /// in request order, on the calling thread, and returns the per-app
    /// outcomes in that order.
    pub fn analyze_batch(&self, app_ids: &[String]) -> Vec<Result<AppAnalysis, ServiceError>> {
        self.batch_reads(app_ids)
            .into_iter()
            .map(|r| r.map(|(a, _)| a))
            .collect()
    }

    /// [`Service::analyze_batch`], plus whether the memo answered each
    /// member.
    pub(crate) fn batch_reads(&self, app_ids: &[String]) -> Vec<Result<Read, ServiceError>> {
        let _guard = self.begin_request(&self.counters.batch_requests);
        if app_ids.is_empty() {
            self.counters.errors.inc();
            return vec![Err(ServiceError::BadRequest("empty batch".into()))];
        }
        app_ids.iter().map(|id| self.run(id, &self.tool)).collect()
    }

    /// Publishes version *n+1* of an app: mutates the current program
    /// with the deterministic update generator and builds the new image
    /// from the mutated program. One by-value walk over the displaced
    /// and the new program ([`DeltaManifest::between`]; `mutate_version`
    /// has already decoded the displaced one) gives both the reply's
    /// class counts and the update's reuse gate
    /// ([`DeltaManifest::gate`]), which is all the next delta run needs
    /// of the displaced version. The image is handed to
    /// [`AppStore::put`], which writes its snapshot (with a disk tier)
    /// and swaps it in; the store's version number is the reply's. The
    /// delta map is taken only afterwards, to keep the gate, so no other
    /// app's request waits on the build. Same-app updates chain on the
    /// per-app update lock.
    pub fn put_version(&self, app_id: &str, seed: u64) -> Result<PutVersionOutcome, ServiceError> {
        let _guard = self.begin_request(&self.counters.put_version_requests);
        let app_lock = self.update_lock(app_id);
        let _update_guard = app_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let started = Instant::now();
        let (current, _) = self.fetch(app_id)?;
        let (mutated, _mutation) = mutate_version(current.program(), seed);
        let artifacts = AppArtifacts::with_backend(
            mutated,
            current.manifest().clone(),
            self.tool.options().backend,
        );
        let delta = DeltaManifest::between(current.program(), artifacts.program());
        let gate = delta.gate(&current, &artifacts);
        drop(current);
        let c = &self.counters;
        c.chunks_reused.add(delta.unchanged.len() as u64);
        c.chunks_written
            .add((delta.changed.len() + delta.added.len()) as u64);
        // The new image tokenizes every class afresh.
        c.classes_retokenized
            .add(artifacts.program().class_count() as u64);
        let version = self.store.put(app_id, artifacts);
        {
            let mut deltas = self.deltas.lock().expect("delta map poisoned");
            let state = deltas.entry(app_id.to_string()).or_default();
            state.gate = Some(gate);
            if state.base_version + 1 != version {
                // The base no longer describes the version just displaced;
                // the next delta run re-captures from scratch.
                state.base = None;
            }
        }
        c.update_latency_us
            .record(started.elapsed().as_micros() as u64);
        Ok(PutVersionOutcome {
            app_id: app_id.to_string(),
            version,
            classes_changed: delta.changed.len(),
            classes_added: delta.added.len(),
            classes_removed: delta.removed.len(),
        })
    }

    /// Incremental full-registry analysis of the app's current version.
    /// With a traced base from the previous version and the gate of the
    /// update since, only sinks whose recorded dependencies intersect
    /// the update are re-analyzed ([`Backdroid::analyze_delta`]); without
    /// them, a full traced run captures the base for next time. Either
    /// way the report — and
    /// therefore the wire response body — is **byte-identical** to a
    /// from-scratch analysis of the same version. Holds the app's update
    /// lock, so no `put_version` moves the version between the fetch and
    /// the capture.
    pub fn analyze_delta(&self, app_id: &str) -> Result<AppAnalysis, ServiceError> {
        let _guard = self.begin_request(&self.counters.delta_requests);
        let app_lock = self.update_lock(app_id);
        let _update_guard = app_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let started = Instant::now();
        let (current, fetch) = self.fetch(app_id)?;
        let version = self.store.version(app_id);
        let (gate, base) = {
            let deltas = self.deltas.lock().expect("delta map poisoned");
            match deltas.get(app_id).filter(|s| s.base.is_some()) {
                // Base describes the served version: an identity delta
                // reuses every verdict.
                Some(s) if s.base_version == version => (Some(DeltaKind::Identity), s.base.clone()),
                Some(s) if s.base_version + 1 == version => (s.gate.clone(), s.base.clone()),
                _ => (None, None),
            }
        };
        let sections_before = current.materialized_sections();
        let (report, new_base, stats) =
            self.tool
                .analyze_delta(gate.as_ref(), base.as_deref(), &current);
        let c = &self.counters;
        if stats.full_fallback {
            c.delta_full_fallbacks.inc();
        }
        c.sinks_reused.add(stats.sinks_reused as u64);
        c.sinks_reanalyzed.add(stats.sinks_reanalyzed as u64);
        c.delta_analysis_us
            .record(started.elapsed().as_micros() as u64);
        self.record_work(&report, &current, sections_before);
        {
            let mut deltas = self.deltas.lock().expect("delta map poisoned");
            let state = deltas.entry(app_id.to_string()).or_default();
            state.gate = None;
            state.base = Some(Arc::new(new_base));
            state.base_version = version;
        }
        Ok(AppAnalysis {
            app_id: app_id.to_string(),
            app_name: current.manifest().package().to_string(),
            report,
            fetch,
        })
    }

    /// The metrics registry the service and its store publish into —
    /// what the wire `metrics` op and the `--trace-out` exporter read.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn begin_request(&self, kind: &Counter) -> InFlightGuard<'_> {
        let c = &self.counters;
        c.requests.inc();
        kind.inc();
        let depth = c.in_flight.add_fetch(1);
        c.peak_in_flight.set_max(depth);
        InFlightGuard(c)
    }

    /// The app's update lock, created on first use. It guards no data,
    /// so a request that panicked while holding it leaves it usable.
    fn update_lock(&self, app_id: &str) -> Arc<Mutex<()>> {
        let mut locks = self.update_locks.lock().expect("update locks poisoned");
        Arc::clone(locks.entry(app_id.to_string()).or_default())
    }

    /// The image the store serves for `app_id`, from whichever tier
    /// holds it. Every analyzing op reads its image through this.
    fn fetch(&self, app_id: &str) -> Result<(Arc<AppArtifacts>, Fetch), ServiceError> {
        self.store.get(app_id).map_err(|e| {
            self.counters.errors.inc();
            ServiceError::Load(e)
        })
    }

    /// Fetches the image (warm or cold) and answers one read with
    /// `tool`'s detectors: from the image's memo when it holds this
    /// detector set, else by analyzing, then offering the outcome to the
    /// store. Records the request's latency under its fetch tier either
    /// way; an analysis also records its phase timings, search work and
    /// lazy-restore materialization, which a memo hit does not have.
    /// All of it is observability-only: the returned [`AppAnalysis`] is
    /// untouched by the instrumentation.
    fn run(&self, app_id: &str, tool: &Backdroid) -> Result<Read, ServiceError> {
        let started = Instant::now();
        let (artifacts, fetch) = self.fetch(app_id)?;
        let key = tool.options().detectors.ids();
        let c = &self.counters;
        let memo = self.store.memo(app_id, &artifacts, &key);
        let hit = memo.is_some();
        let report = match memo {
            Some(outcome) => {
                c.memo_hits.inc();
                AppReport {
                    sink_reports: outcome.sink_reports.clone(),
                    analysis_time: Duration::ZERO,
                    cache_stats: Default::default(),
                    loop_stats: Default::default(),
                    sink_cache: outcome.sink_cache,
                    phases: Default::default(),
                }
            }
            None => {
                c.memo_misses.inc();
                let sections_before = artifacts.materialized_sections();
                let report = tool.analyze_artifacts(&artifacts);
                let outcome = Outcome {
                    sink_reports: report.sink_reports.clone(),
                    sink_cache: report.sink_cache,
                };
                self.store.memoize(app_id, &artifacts, &key, outcome);
                c.phase_locate_us.record(report.phases.locate_ns / 1_000);
                c.phase_slice_us.record(report.phases.slice_ns / 1_000);
                c.phase_verdict_us.record(report.phases.verdict_ns / 1_000);
                self.record_work(&report, &artifacts, sections_before);
                report
            }
        };
        let elapsed_us = started.elapsed().as_micros() as u64;
        match fetch {
            Fetch::Hit => c.request_hit_us.record(elapsed_us),
            Fetch::Miss => c.request_miss_us.record(elapsed_us),
            Fetch::Disk => c.request_disk_us.record(elapsed_us),
            Fetch::Coalesced => c.request_coalesced_us.record(elapsed_us),
        }
        let analysis = AppAnalysis {
            app_id: app_id.to_string(),
            app_name: artifacts.manifest().package().to_string(),
            report,
            fetch,
        };
        Ok((analysis, hit))
    }

    /// Records one analysis's search work and the lazy sections of
    /// `artifacts` it materialized (those past `sections_before`).
    fn record_work(&self, report: &AppReport, artifacts: &AppArtifacts, sections_before: u64) {
        let c = &self.counters;
        c.search_commands.add(report.cache_stats.commands);
        c.search_cache_hits.add(report.cache_stats.hits);
        c.search_lines_scanned.add(report.cache_stats.lines_scanned);
        c.search_postings_touched
            .add(report.cache_stats.postings_touched);
        c.lazy_sections_materialized.add(
            artifacts
                .materialized_sections()
                .saturating_sub(sections_before),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_service(budget: u64) -> Service {
        Service::over_benchset(
            BenchsetConfig::sized(6, 0.04),
            ServiceConfig {
                budget_bytes: budget,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn analyze_twice_is_warm_and_identical() {
        let service = small_service(u64::MAX);
        let a = service.analyze_app("1").unwrap();
        let b = service.analyze_app("1").unwrap();
        assert_eq!(a.fetch, Fetch::Miss);
        assert_eq!(b.fetch, Fetch::Hit);
        assert_eq!(a.app_name, b.app_name);
        assert_eq!(a.report.sink_reports, b.report.sink_reports);
        let stats = service.metrics().snapshot();
        assert_eq!(stats.value("service_analyze_total"), 2);
        assert_eq!(stats.value("store_loads_total"), 1);
    }

    #[test]
    fn query_restricts_the_registry() {
        let service = small_service(u64::MAX);
        let all = service.analyze_app("0").unwrap();
        let crypto = service.query_detectors("0", &["crypto"]).unwrap();
        let ssl = service.query_detectors("0", &["ssl"]).unwrap();
        assert!(crypto
            .report
            .sink_reports
            .iter()
            .all(|r| r.sink_id.starts_with("crypto.")));
        assert!(ssl
            .report
            .sink_reports
            .iter()
            .all(|r| r.sink_id.starts_with("ssl.")));
        assert_eq!(
            crypto.report.sink_reports.len() + ssl.report.sink_reports.len(),
            all.report.sink_reports.len(),
            "the two detectors partition the full registry's reports"
        );
        // Empty id list = every registered detector.
        let empty = service.query_detectors("0", &[] as &[&str]).unwrap();
        assert_eq!(empty.report.sink_reports, all.report.sink_reports);
    }

    #[test]
    fn unknown_detector_ids_error_deterministically() {
        let service = small_service(u64::MAX);
        let before = service.metrics().snapshot().value("service_errors_total");
        let err = service
            .query_detectors("0", &["crypto", "sms"])
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownDetector("sms".into()));
        assert_eq!(err.to_string(), "unknown detector id \"sms\"");
        assert_eq!(
            service.metrics().snapshot().value("service_errors_total"),
            before + 1
        );
        // Deterministic: asking again yields the identical error.
        assert_eq!(
            service
                .query_detectors("0", &["crypto", "sms"])
                .unwrap_err(),
            err
        );
    }

    #[test]
    fn batch_returns_results_in_request_order() {
        let service = small_service(u64::MAX);
        let ids: Vec<String> = ["3", "0", "3", "2"].iter().map(|s| s.to_string()).collect();
        let results = service.analyze_batch(&ids);
        assert_eq!(results.len(), 4);
        for (id, r) in ids.iter().zip(&results) {
            assert_eq!(&r.as_ref().unwrap().app_id, id);
        }
        assert_eq!(
            results[0].as_ref().unwrap().report.sink_reports,
            results[2].as_ref().unwrap().report.sink_reports,
            "same app twice in one batch agrees with itself"
        );
        let stats = service.metrics().snapshot();
        assert_eq!(stats.value("store_loads_total"), 3, "three distinct apps");
        assert_eq!(
            stats.value("store_hits_total"),
            1,
            "the repeated app is analyzed after its first load, so it hits"
        );
        assert_eq!(stats.value("store_coalesced_total"), 0);
    }

    #[test]
    fn bad_ids_and_empty_batches_error() {
        let service = small_service(u64::MAX);
        assert!(matches!(
            service.analyze_app("99"),
            Err(ServiceError::Load(_))
        ));
        assert!(matches!(
            service.analyze_app("nope"),
            Err(ServiceError::Load(_))
        ));
        let batch = service.analyze_batch(&[]);
        assert!(matches!(batch[0], Err(ServiceError::BadRequest(_))));
        assert_eq!(
            service.metrics().snapshot().value("service_errors_total"),
            3
        );
    }

    /// Replays the same update chain on a fresh service and returns a
    /// plain from-scratch analysis of the final version — the oracle
    /// every delta result must match byte-for-byte.
    fn from_scratch(app: &str, seeds: &[u64]) -> AppAnalysis {
        let service = small_service(u64::MAX);
        for &s in seeds {
            service.put_version(app, s).unwrap();
        }
        service.analyze_app(app).unwrap()
    }

    /// The wire bytes of an analysis with id/op pinned, so two
    /// analyses compare on body content alone.
    fn body(a: &AppAnalysis) -> String {
        crate::proto::render_analysis(1, "analyze", a)
    }

    #[test]
    fn put_version_is_deterministic_and_counts_the_class_delta() {
        let service = small_service(u64::MAX);
        let v2 = service.put_version("1", 7).unwrap();
        assert_eq!(v2.version, 2);
        assert!(
            v2.classes_changed + v2.classes_added + v2.classes_removed > 0,
            "an update touches at least one class"
        );
        let v3 = service.put_version("1", 8).unwrap();
        assert_eq!(v3.version, 3);
        // The same seed chain on a fresh service reproduces the same
        // versions and the same per-class delta counts.
        let replay = small_service(u64::MAX);
        assert_eq!(replay.put_version("1", 7).unwrap(), v2);
        assert_eq!(replay.put_version("1", 8).unwrap(), v3);
    }

    #[test]
    fn analyze_delta_matches_from_scratch_at_every_version() {
        let service = small_service(u64::MAX);
        // v1: no base exists — the delta op falls back to a full traced
        // run and captures the base for the next update.
        let d1 = service.analyze_delta("1").unwrap();
        assert_eq!(body(&d1), body(&from_scratch("1", &[])));
        let seeds = [7u64, 8, 9];
        for (i, &seed) in seeds.iter().enumerate() {
            service.put_version("1", seed).unwrap();
            let delta = service.analyze_delta("1").unwrap();
            let fresh = from_scratch("1", &seeds[..=i]);
            assert_eq!(
                body(&delta),
                body(&fresh),
                "delta report diverged at version {}",
                i + 2
            );
        }
        let snap = service.metrics().snapshot();
        assert!(
            snap.value("delta_full_fallback_total") >= 1,
            "the v1 run lacked a base"
        );
        assert!(
            snap.value("chunks_reused_total") > 0,
            "most classes survive an update unchanged"
        );
    }

    /// First `n` seeds (from 0) whose mutation of the given benchset
    /// app chain is body-only — the shape eligible for verdict reuse.
    fn body_only_seeds(app_index: usize, n: usize) -> Vec<u64> {
        let bench = BenchsetConfig::sized(6, 0.04);
        let mut program = bench_app(app_index, bench).app.program;
        let mut seeds = Vec::new();
        let mut seed = 0u64;
        while seeds.len() < n {
            let (next, label) = mutate_version(&program, seed);
            if label.is_body_only() {
                seeds.push(seed);
                program = next;
            }
            seed += 1;
        }
        seeds
    }

    #[test]
    fn body_only_updates_reuse_prior_verdicts() {
        let seeds = body_only_seeds(1, 2);
        let service = small_service(u64::MAX);
        service.analyze_delta("1").unwrap(); // captures the v1 base
        let mut applied = Vec::new();
        for &seed in &seeds {
            service.put_version("1", seed).unwrap();
            applied.push(seed);
            let delta = service.analyze_delta("1").unwrap();
            assert_eq!(body(&delta), body(&from_scratch("1", &applied)));
        }
        let snap = service.metrics().snapshot();
        assert_eq!(
            snap.value("delta_full_fallback_total"),
            1,
            "only the v1 run lacked a base; body-only updates keep it"
        );
        assert!(
            snap.value("sinks_reused_total") > 0,
            "untouched sinks replay their prior verdicts"
        );
    }

    #[test]
    fn updates_with_a_disk_tier_match_a_from_scratch_build() {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-service-update-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::over_benchset(
            BenchsetConfig::sized(6, 0.04),
            ServiceConfig {
                snapshot_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
        );
        service.put_version("2", 11).unwrap();
        let v3 = service.put_version("2", 12).unwrap();
        assert_eq!(v3.version, 3);
        // The disk tier never changes what is served.
        let served = service.analyze_app("2").unwrap();
        assert_eq!(body(&served), body(&from_scratch("2", &[11, 12])));
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
