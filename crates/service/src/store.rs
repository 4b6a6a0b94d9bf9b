//! The resident app store: `Arc<AppArtifacts>` keyed by app id, bounded
//! by a **byte budget** with LRU eviction, and loaded **single-flight**
//! — when N requests race for a cold app, exactly one builds its image
//! (encode → disassemble → index) while the rest wait on the in-flight
//! slot and share the result. This mirrors, one layer up, the sharded
//! single-flight command cache already proven inside
//! [`SearchEngine`](backdroid_search::SearchEngine): there the unit of
//! work is one search command, here it is one whole app image.
//!
//! The store is the one owner of the image each app is served from and
//! of its version number: [`AppStore::put`] publishes an update, and
//! [`AppStore::version`] is 1 for the loader's build plus one per `put`.
//!
//! ## Invariants
//!
//! * **Budget**: after every insertion settles, the resident total is
//!   `<= budget_bytes` — least-recently-used images are evicted first
//!   (an image larger than the whole budget is served to its requester
//!   and immediately dropped from the store) — with exactly one
//!   exception: an updated image whose snapshot is not on disk yet. The
//!   loader cannot rebuild it, so it stays resident until its snapshot
//!   is written, and [`AppStore::resident_bytes`] counts it. Without a
//!   disk tier the exception covers every updated app.
//! * **Single-flight**: for any interleaving of concurrent `get`s, the
//!   loader runs exactly once per cold app; `store_misses_total` counts
//!   loader executions and `store_coalesced_total` the requests that
//!   waited on one.
//! * **Determinism**: sizes come from
//!   [`AppArtifacts::estimated_bytes`], a pure function of the app, so
//!   a given request order always produces the same eviction sequence —
//!   and a snapshot-restored image has the same estimate as a freshly
//!   parsed one, so the disk tier never changes eviction decisions.
//!
//! ## The disk tier
//!
//! With [`AppStore::with_disk_tier`] the store becomes two-tier: cold
//! requests first try to deserialize a versioned, checksummed
//! [`AppArtifacts`] snapshot from disk ([`Fetch::Disk`]); only absent or
//! invalid snapshots fall through to the loader, whose result is
//! published to the memory tier **without** a snapshot.
//!
//! The tier is **write-back**: a loader-built image reaches disk when
//! it leaves memory — spilled by the eviction that drops it, or by
//! [`AppStore::flush`] (when a shard pool kills, restarts or shuts down
//! a shard, and when the store is dropped). A cold request does not
//! encode or write its own image's snapshot; it pays for a write only
//! when its insertion evicts an unwritten victim. A crash loses only
//! the snapshots not yet written back; the disk tier is a cache, the
//! loader rebuilds them, and replies never change. [`AppStore::put`] is
//! the exception: the loader cannot rebuild an updated version, so
//! `put` writes its snapshot at once, and a cold load of an updated app
//! restores that snapshot or fails with a load error — it never runs
//! the loader. Between an eviction and the end of its spill the victim
//! is neither resident nor on disk, so the spill holds an in-flight
//! load slot for it: a request arriving in that gap waits for the
//! victim ([`Fetch::Coalesced`]) instead of rebuilding it.
//!
//! Every write goes through a writer-unique temp file and an atomic
//! rename, so a crashed writer can never leave a half-snapshot, and
//! every write holds the app's **write guard**. Each image carries the
//! app's **epoch** from when it was produced. `put` writes the new
//! snapshot under the guard, then bumps the epoch and publishes the new
//! image in one critical section; a spill or flush re-checks under the
//! guard that its image's epoch is still current, so an image of an
//! older version is never written over a newer one (a stale spill is
//! counted by `store_disk_stale_spills_total`). Responses are identical
//! across all three tiers — the snapshot format round-trips
//! byte-identically — so replays can be diffed across cold-parse,
//! disk-warm, and memory-warm runs.

use backdroid_core::{AppArtifacts, BackendChoice, SnapshotError};
use backdroid_obs::{Counter, Gauge, MetricsRegistry, RegistrySnapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How one [`AppStore::get`] was served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fetch {
    /// The app image was resident — a warm hit.
    Hit,
    /// The image was cold; this request ran the loader (full parse).
    Miss,
    /// The image was cold in memory but restored from an on-disk
    /// snapshot — no parse, just a deserialize.
    Disk,
    /// The image was cold but another request was already loading it;
    /// this request waited and shares that load's result.
    Coalesced,
}

/// The optional disk tier of the store: a directory of versioned,
/// checksummed [`AppArtifacts`] snapshots (see `backdroid_core::snapshot`
/// for the format), plus the backend restored images run their searches
/// on (runtime configuration, deliberately not part of the format).
#[derive(Clone, Debug)]
pub struct DiskTier {
    dir: PathBuf,
    backend: BackendChoice,
}

impl DiskTier {
    /// A disk tier rooted at `dir` (created on first write if missing).
    pub fn new(dir: impl Into<PathBuf>, backend: BackendChoice) -> Self {
        DiskTier {
            dir: dir.into(),
            backend,
        }
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot file backing `app_id`. Ids are escaped into a safe
    /// filename alphabet (`[A-Za-z0-9_-]`, everything else `%XX`), so
    /// arbitrary loader ids can never traverse out of the directory.
    pub fn path_for(&self, app_id: &str) -> PathBuf {
        let mut name = String::with_capacity(app_id.len() + 5);
        for b in app_id.bytes() {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => name.push(b as char),
                _ => {
                    name.push('%');
                    name.push_str(&format!("{b:02X}"));
                }
            }
        }
        name.push_str(".snap");
        self.dir.join(name)
    }

    /// Attempts to restore `app_id` from disk. `Ok(None)` means no
    /// snapshot exists (a disk miss); `Err` means a snapshot exists but
    /// is unusable — truncated, corrupt, or a different format version —
    /// and the caller should invalidate it and re-parse.
    fn load(&self, app_id: &str) -> Result<Option<AppArtifacts>, SnapshotError> {
        let bytes = match std::fs::read(self.path_for(app_id)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            // Unreadable (permissions, transient I/O): treat as absent
            // rather than repeatedly invalidating a file we cannot see.
            Err(_) => return Ok(None),
        };
        AppArtifacts::from_snapshot(&bytes, self.backend).map(Some)
    }

    /// Writes `artifacts` as the snapshot for `app_id`, atomically
    /// (writer-unique temp file + rename) so a crashed writer can never
    /// leave a half-snapshot that later loads as truncated-but-present,
    /// and concurrent writers (two stores over one directory — say two
    /// shards — spilling or flushing an app both built) cannot clobber
    /// each other's temp bytes — both write the same content, and the
    /// last rename wins whole. Called by eviction spills, flushes and
    /// `put`, whose rename replaces the old version's snapshot. Returns
    /// the snapshot size on success; failures are reported and counted
    /// by the store.
    ///
    /// The rename goes over the old file rather than after removing it,
    /// although on ext4 a rename over an existing file also starts
    /// writeback of the new one (about 0.5 ms per update on a 2-vCPU
    /// host): an evicted updated app (epoch above 0) can only come back
    /// from its snapshot, since the loader cannot rebuild version 2 or
    /// later, so while no file existed a concurrent cold `get` of that
    /// app would answer a load error instead of the old version.
    fn store(&self, app_id: &str, artifacts: &AppArtifacts) -> std::io::Result<u64> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let bytes = artifacts.to_snapshot();
        let path = self.path_for(app_id);
        let tmp = path.with_extension(format!(
            "snap.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(bytes.len() as u64)
    }

    /// Best-effort removal of an invalid snapshot.
    fn invalidate(&self, app_id: &str) {
        let _ = std::fs::remove_file(self.path_for(app_id));
    }
}

/// Warm-hit fraction over all completed store requests in a registry
/// snapshot, in `[0, 1]`: memory hits over hits, misses, disk hits and
/// coalesced waits. Disk hits count as requests but not as (memory-)warm
/// hits.
pub fn hit_rate(snap: &RegistrySnapshot) -> f64 {
    let hits = snap.value("store_hits_total");
    let total = hits
        + snap.value("store_misses_total")
        + snap.value("store_disk_hits_total")
        + snap.value("store_coalesced_total");
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Builds the artifacts for one app id. Errors are returned to every
/// requester coalesced onto the failed load.
pub type Loader = dyn Fn(&str) -> Result<AppArtifacts, String> + Send + Sync;

/// One in-flight load — or one eviction spill, during which the victim
/// is neither resident nor surely on disk: requesters park on the
/// condvar until the owner publishes the shared result, and report
/// [`Fetch::Coalesced`].
struct LoadSlot {
    result: Mutex<Option<Result<Arc<AppArtifacts>, String>>>,
    ready: Condvar,
}

impl LoadSlot {
    fn new() -> Arc<LoadSlot> {
        Arc::new(LoadSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn publish(&self, result: Result<Arc<AppArtifacts>, String>) {
        *self.result.lock().expect("load slot poisoned") = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Arc<AppArtifacts>, String> {
        let mut done = self.result.lock().expect("load slot poisoned");
        while done.is_none() {
            done = self.ready.wait(done).expect("load slot poisoned");
        }
        done.clone().expect("checked above")
    }
}

/// An image evicted from memory. `slot` is set when the image has no
/// snapshot yet and a disk tier is configured: it is registered in
/// `loading` while the image is spilled, so a request in that gap waits
/// for it instead of rebuilding.
struct Victim {
    app_id: String,
    artifacts: Arc<AppArtifacts>,
    epoch: u64,
    slot: Option<Arc<LoadSlot>>,
}

/// One resident image with its accounting.
struct Resident {
    artifacts: Arc<AppArtifacts>,
    bytes: u64,
    /// Monotonic recency stamp; the minimum is the LRU victim.
    last_used: u64,
    /// The app's version epoch when this image was produced; a spill of
    /// this image is valid only while the epoch is still current.
    epoch: u64,
    /// Whether the disk tier holds this image's snapshot: it was
    /// restored from it or has been written since. Eviction and
    /// [`AppStore::flush`] write only images without one.
    on_disk: bool,
}

#[derive(Default)]
struct StoreInner {
    resident: HashMap<String, Resident>,
    loading: HashMap<String, Arc<LoadSlot>>,
    /// Per-app version epoch, bumped by [`AppStore::put`]. Absent means
    /// epoch 0 (the loader's pristine version).
    epochs: HashMap<String, u64>,
    total_bytes: u64,
    tick: u64,
}

impl StoreInner {
    fn epoch(&self, app_id: &str) -> u64 {
        self.epochs.get(app_id).copied().unwrap_or(0)
    }

    /// Removes `slot` from `loading`, unless a later load, spill or
    /// [`AppStore::put`] already replaced or detached it.
    fn retire(&mut self, app_id: &str, slot: &Arc<LoadSlot>) {
        if self
            .loading
            .get(app_id)
            .is_some_and(|s| Arc::ptr_eq(s, slot))
        {
            self.loading.remove(app_id);
        }
    }
}

/// The store's handles on its `store_*` metrics in a shared
/// [`MetricsRegistry`]. The registry is the only copy of these values:
/// the `stats` and `metrics` ops and the stderr summaries all read them
/// back from a [`RegistrySnapshot`] by name.
struct Counters {
    hits: Counter,
    /// Loader executions (cold requests no snapshot could serve).
    misses: Counter,
    coalesced: Counter,
    /// Images produced: loader executions plus snapshot restores.
    loads: Counter,
    load_failures: Counter,
    evictions: Counter,
    bytes_evicted: Counter,
    /// Largest resident total after an insertion settled (above the
    /// budget only by updated images without a snapshot).
    peak_resident_bytes: Gauge,
    resident_bytes: Gauge,
    resident_apps: Gauge,
    disk_hits: Counter,
    disk_misses: Counter,
    disk_invalidations: Counter,
    disk_writes: Counter,
    disk_bytes_written: Counter,
    disk_write_failures: Counter,
    disk_stale_spills: Counter,
}

impl Counters {
    fn register(registry: &MetricsRegistry) -> Counters {
        Counters {
            hits: registry.counter("store_hits_total"),
            misses: registry.counter("store_misses_total"),
            coalesced: registry.counter("store_coalesced_total"),
            loads: registry.counter("store_loads_total"),
            load_failures: registry.counter("store_load_failures_total"),
            evictions: registry.counter("store_evictions_total"),
            bytes_evicted: registry.counter("store_bytes_evicted_total"),
            peak_resident_bytes: registry.gauge("store_peak_resident_bytes"),
            resident_bytes: registry.gauge("store_resident_bytes"),
            resident_apps: registry.gauge("store_resident_apps"),
            disk_hits: registry.counter("store_disk_hits_total"),
            disk_misses: registry.counter("store_disk_misses_total"),
            disk_invalidations: registry.counter("store_disk_invalidations_total"),
            disk_writes: registry.counter("store_disk_writes_total"),
            disk_bytes_written: registry.counter("store_disk_bytes_written_total"),
            disk_write_failures: registry.counter("store_disk_write_failures_total"),
            disk_stale_spills: registry.counter("store_disk_stale_spills_total"),
        }
    }
}

/// The byte-budgeted, single-flight LRU store of resident app images,
/// optionally backed by an on-disk snapshot tier ([`DiskTier`]). All
/// methods take `&self`; the store is `Send + Sync` and meant to be
/// shared across every request-handling thread of a service.
///
/// With a disk tier, a cold `get` first tries to deserialize the app's
/// snapshot ([`Fetch::Disk`]); only if the snapshot is absent or invalid
/// does the loader re-parse, and the fresh image becomes resident
/// without a snapshot. Snapshots are written back, not through:
/// eviction *spills* a victim that has no snapshot on its way out, so
/// evicted apps stay disk-warm, and [`AppStore::flush`] — called on
/// drop — writes the images that never left memory. Only
/// [`AppStore::put`] writes at once.
pub struct AppStore {
    budget_bytes: u64,
    loader: Box<Loader>,
    disk: Option<DiskTier>,
    inner: Mutex<StoreInner>,
    /// Per-app snapshot write guards: every disk write (eviction spill,
    /// flush, `put`) and every invalidation serializes through the
    /// app's guard. Spills, flushes and invalidations re-validate the
    /// epoch inside it, and `put` bumps the epoch before releasing it,
    /// so nothing done for an older version can clobber a newer
    /// snapshot. Guards are acquired only while `inner` is *not* held
    /// (lock order: guard, then inner), one at a time, and the map
    /// itself is touched only long enough to clone an `Arc`.
    write_guards: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    registry: Arc<MetricsRegistry>,
    counters: Counters,
}

impl std::fmt::Debug for AppStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppStore")
            .field("budget_bytes", &self.budget_bytes)
            .field("disk", &self.disk)
            .finish_non_exhaustive()
    }
}

/// What the locking phase of `get` decided to do. `Wait` parks on an
/// in-flight load or on an eviction spill. `Load` carries the app's
/// epoch at decision time: the image this load produces belongs to that
/// version, and both its residency and any later spill of it are
/// dropped if a [`AppStore::put`] bumps the epoch mid-load.
enum Step {
    Ready(Arc<AppArtifacts>),
    Wait(Arc<LoadSlot>),
    Load(Arc<LoadSlot>, u64),
}

impl AppStore {
    /// Creates a store with the given byte budget and loader. A budget of
    /// `0` caches nothing but the budget's one exception (updated images
    /// without a snapshot): every request cold-loads and the image is
    /// dropped from the store as soon as its requester holds it (this is
    /// what `backdroid-serve --direct` uses to produce golden
    /// direct-analysis runs through the identical code path).
    pub fn new(
        budget_bytes: u64,
        loader: impl Fn(&str) -> Result<AppArtifacts, String> + Send + Sync + 'static,
    ) -> Self {
        Self::over_registry(budget_bytes, None, Arc::new(MetricsRegistry::new()), loader)
    }

    /// Creates a two-tier store: the in-memory LRU backed by an on-disk
    /// snapshot directory. A zero byte budget combined with a disk tier
    /// keeps nothing in memory but still serves every repeat request
    /// from its snapshot — the pure "disk-warm" configuration.
    pub fn with_disk_tier(
        budget_bytes: u64,
        disk: DiskTier,
        loader: impl Fn(&str) -> Result<AppArtifacts, String> + Send + Sync + 'static,
    ) -> Self {
        Self::over_registry(
            budget_bytes,
            Some(disk),
            Arc::new(MetricsRegistry::new()),
            loader,
        )
    }

    /// Creates a store whose `store_*` metrics register into a caller-
    /// provided registry — how [`crate::Service`] keeps its own request
    /// counters and the store's in one exportable namespace.
    pub fn over_registry(
        budget_bytes: u64,
        disk: Option<DiskTier>,
        registry: Arc<MetricsRegistry>,
        loader: impl Fn(&str) -> Result<AppArtifacts, String> + Send + Sync + 'static,
    ) -> Self {
        let counters = Counters::register(&registry);
        AppStore {
            budget_bytes,
            loader: Box::new(loader),
            disk,
            inner: Mutex::default(),
            write_guards: Mutex::default(),
            registry,
            counters,
        }
    }

    /// The metrics registry this store's counters live in.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The disk tier, if one is configured.
    pub fn disk_tier(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }

    /// Estimated bytes currently resident: at most `budget_bytes`, plus
    /// the updated images whose snapshot is not on disk yet.
    pub fn resident_bytes(&self) -> u64 {
        self.lock_inner().total_bytes
    }

    /// Number of app images currently resident.
    pub fn resident_apps(&self) -> usize {
        self.lock_inner().resident.len()
    }

    /// Whether `app_id` is resident right now (an in-flight load does not
    /// count).
    pub fn contains(&self, app_id: &str) -> bool {
        self.lock_inner().resident.contains_key(app_id)
    }

    /// Resident app ids from least- to most-recently used — the order
    /// eviction would take them in.
    pub fn lru_order(&self) -> Vec<String> {
        let inner = self.lock_inner();
        let mut ids: Vec<(u64, String)> = inner
            .resident
            .iter()
            .map(|(k, r)| (r.last_used, k.clone()))
            .collect();
        ids.sort();
        ids.into_iter().map(|(_, k)| k).collect()
    }

    /// The version of `app_id` this store serves: 1 for the loader's
    /// build, plus one for every [`AppStore::put`].
    pub fn version(&self, app_id: &str) -> u64 {
        self.lock_inner().epoch(app_id) + 1
    }

    /// Returns the resident image for `app_id`, loading it single-flight
    /// if cold, plus how the request was served. Loader failures are
    /// shared with every coalesced waiter and **not** cached: the next
    /// request retries.
    pub fn get(&self, app_id: &str) -> Result<(Arc<AppArtifacts>, Fetch), String> {
        let step = {
            let mut inner = self.lock_inner();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(r) = inner.resident.get_mut(app_id) {
                r.last_used = tick;
                Step::Ready(Arc::clone(&r.artifacts))
            } else if let Some(slot) = inner.loading.get(app_id) {
                Step::Wait(Arc::clone(slot))
            } else {
                let slot = LoadSlot::new();
                inner.loading.insert(app_id.to_string(), Arc::clone(&slot));
                let epoch = inner.epoch(app_id);
                Step::Load(slot, epoch)
            }
        };
        match step {
            Step::Ready(artifacts) => {
                self.counters.hits.inc();
                Ok((artifacts, Fetch::Hit))
            }
            Step::Wait(slot) => {
                self.counters.coalesced.inc();
                slot.wait().map(|a| (a, Fetch::Coalesced))
            }
            Step::Load(slot, epoch) => {
                let outcome = self.load_and_insert(app_id, &slot, epoch);
                // Publish after the store settled: a racing request either
                // still holds this slot (and wakes with the shared result)
                // or arrived after `loading` was cleared and sees the
                // resident image — never a stale slot.
                slot.publish(outcome.clone().map(|(a, _)| a));
                outcome
            }
        }
    }

    /// Serves one cold app: snapshot restore if the disk tier has a
    /// valid one, else the loader; inserts the image (publishing it to
    /// racing requests) and evicts down to the budget. A loader-built
    /// image is not written here: it reaches disk when it is evicted or
    /// flushed. An updated app (`epoch > 0`) never reaches the loader,
    /// which builds only version 1: without a valid snapshot its load
    /// fails. Returns the image (which the caller holds by `Arc` even if
    /// the store immediately evicted it) and how it was produced.
    fn load_and_insert(
        &self,
        app_id: &str,
        slot: &Arc<LoadSlot>,
        epoch: u64,
    ) -> Result<(Arc<AppArtifacts>, Fetch), String> {
        let c = &self.counters;
        // Disk tier first: a valid snapshot skips the parse entirely.
        if let Some(disk) = &self.disk {
            match disk.load(app_id) {
                Ok(Some(artifacts)) => {
                    c.disk_hits.inc();
                    c.loads.inc();
                    let artifacts = self.insert_at(app_id, artifacts, slot, epoch, true);
                    return Ok((artifacts, Fetch::Disk));
                }
                Ok(None) => {
                    c.disk_misses.inc();
                }
                Err(_) => {
                    // Truncated / corrupt / version-bumped snapshot:
                    // invalidate it and fall back to a fresh parse.
                    c.disk_invalidations.inc();
                    self.invalidate(disk, app_id, epoch);
                }
            }
        }
        let built = if epoch == 0 {
            c.misses.inc();
            (self.loader)(app_id)
        } else {
            Err(format!(
                "app {app_id:?} is at version {} and its snapshot is missing or invalid",
                epoch + 1
            ))
        };
        match built {
            Ok(artifacts) => {
                c.loads.inc();
                let artifacts = self.insert_at(app_id, artifacts, slot, epoch, false);
                Ok((artifacts, Fetch::Miss))
            }
            Err(e) => {
                c.load_failures.inc();
                self.lock_inner().retire(app_id, slot);
                Err(e)
            }
        }
    }

    /// Inserts a freshly produced image belonging to version `epoch`
    /// (`on_disk` if it was restored from its snapshot) and retires its
    /// load slot. If the app's epoch moved past `epoch` while the image
    /// was being produced (a concurrent [`AppStore::put`]), the image is
    /// returned to its requester but **not** made resident: the request
    /// began against the old version and may keep it, but the store
    /// must not shadow the newer one.
    fn insert_at(
        &self,
        app_id: &str,
        artifacts: AppArtifacts,
        slot: &Arc<LoadSlot>,
        epoch: u64,
        on_disk: bool,
    ) -> Arc<AppArtifacts> {
        let artifacts = Arc::new(artifacts);
        let victims = {
            let mut inner = self.lock_inner();
            inner.retire(app_id, slot);
            if inner.epoch(app_id) != epoch {
                return artifacts;
            }
            self.insert_resident(&mut inner, app_id, Arc::clone(&artifacts), epoch, on_disk)
        };
        self.spill(victims);
        artifacts
    }

    /// Makes `artifacts` the resident image of `app_id` in place of any
    /// older one, evicts down to the budget and publishes the residency
    /// gauges — all under the caller's lock, so the gauges always agree
    /// with the store state. Returns the victims for [`AppStore::spill`].
    fn insert_resident(
        &self,
        inner: &mut StoreInner,
        app_id: &str,
        artifacts: Arc<AppArtifacts>,
        epoch: u64,
        on_disk: bool,
    ) -> Vec<Victim> {
        let bytes = artifacts.estimated_bytes();
        inner.tick += 1;
        let resident = Resident {
            artifacts,
            bytes,
            last_used: inner.tick,
            epoch,
            on_disk,
        };
        inner.total_bytes += bytes;
        if let Some(old) = inner.resident.insert(app_id.to_string(), resident) {
            inner.total_bytes -= old.bytes;
        }
        let victims = self.evict_to_budget(inner);
        self.counters.peak_resident_bytes.set_max(inner.total_bytes);
        self.counters.resident_bytes.set(inner.total_bytes);
        self.counters.resident_apps.set(inner.resident.len() as u64);
        victims
    }

    /// Writes each evicted victim that has no snapshot, outside the
    /// store lock, then wakes the requests that arrived while it was
    /// neither resident nor on disk and retires its slot.
    fn spill(&self, victims: Vec<Victim>) {
        for victim in victims {
            let Some(slot) = victim.slot else { continue };
            self.spill_guarded(&victim.app_id, &victim.artifacts, victim.epoch);
            slot.publish(Ok(victim.artifacts));
            self.lock_inner().retire(&victim.app_id, &slot);
        }
    }

    /// The app's per-snapshot write guard, created on first use.
    fn write_guard(&self, app_id: &str) -> Arc<Mutex<()>> {
        let mut guards = self.write_guards.lock().expect("write guards poisoned");
        Arc::clone(guards.entry(app_id.to_string()).or_default())
    }

    /// Removes an unusable snapshot under the app's write guard, and
    /// only while `epoch` is still current: the file may already be the
    /// snapshot a concurrent [`AppStore::put`] wrote for a newer version.
    fn invalidate(&self, disk: &DiskTier, app_id: &str, epoch: u64) {
        let guard = self.write_guard(app_id);
        let _held = guard.lock().expect("snapshot write guard poisoned");
        if self.lock_inner().epoch(app_id) == epoch {
            disk.invalidate(app_id);
        }
    }

    /// Writes `artifacts` to the disk tier (if configured) under the
    /// app's write guard, re-validating inside the guard that `epoch` is
    /// still the app's current version, so a spill of version *n* can
    /// never replace the snapshot a concurrent `put` of version *n+1*
    /// wrote. The write path of eviction spills and [`AppStore::flush`].
    /// An existing snapshot of an epoch-0 image is left alone: the
    /// loader builds the same image in every store over the directory.
    /// Returns whether the disk now holds the snapshot. Failures are
    /// counted and otherwise ignored — the image stays in memory.
    fn spill_guarded(&self, app_id: &str, artifacts: &AppArtifacts, epoch: u64) -> bool {
        let Some(disk) = &self.disk else { return false };
        let guard = self.write_guard(app_id);
        let _held = guard.lock().expect("snapshot write guard poisoned");
        if self.lock_inner().epoch(app_id) != epoch {
            self.counters.disk_stale_spills.inc();
            return false;
        }
        if epoch == 0 && disk.path_for(app_id).exists() {
            return true;
        }
        self.write_snapshot(disk, app_id, artifacts)
    }

    /// Writes one snapshot and counts the outcome; the caller holds the
    /// app's write guard. Returns whether the write succeeded.
    fn write_snapshot(&self, disk: &DiskTier, app_id: &str, artifacts: &AppArtifacts) -> bool {
        match disk.store(app_id, artifacts) {
            Ok(written) => {
                self.counters.disk_writes.inc();
                self.counters.disk_bytes_written.add(written);
                true
            }
            Err(_) => {
                self.counters.disk_write_failures.inc();
                false
            }
        }
    }

    /// Writes a resident image's snapshot and, once the disk holds it,
    /// marks the image `on_disk` so no later eviction or flush writes it
    /// again.
    fn write_back(&self, app_id: &str, artifacts: &Arc<AppArtifacts>, epoch: u64) {
        if self.spill_guarded(app_id, artifacts, epoch) {
            if let Some(r) = self.lock_inner().resident.get_mut(app_id) {
                if Arc::ptr_eq(&r.artifacts, artifacts) {
                    r.on_disk = true;
                }
            }
        }
    }

    /// Publishes a **new version** of `app_id` and returns its number
    /// (see [`AppStore::version`]). This is the serving path of an app
    /// *update* — see [`crate::Service::put_version`].
    ///
    /// With a disk tier, the new image's snapshot is written first,
    /// under the app's write guard, and its atomic rename replaces the
    /// old version's snapshot: the loader cannot rebuild the new
    /// version, so it is written at once, not back. The old file is
    /// never removed first: a cold `get` of an evicted updated app
    /// restores from that file, so the app's path holds a whole
    /// snapshot of one version or the other at every instant (see
    /// `DiskTier::store`). Then one critical section bumps the app's
    /// epoch, detaches any in-flight load or spill of the old version,
    /// and makes the new image resident in place of the old one — so no
    /// `get` can slip between the bump and the swap. The image leaves
    /// memory only once its snapshot is on disk: if the write fails, or
    /// without a disk tier, it stays resident, outside the budget (see
    /// the module docs).
    pub fn put(&self, app_id: &str, artifacts: AppArtifacts) -> u64 {
        let artifacts = Arc::new(artifacts);
        let guard = self.write_guard(app_id);
        let held = guard.lock().expect("snapshot write guard poisoned");
        let on_disk = self
            .disk
            .as_ref()
            .is_some_and(|disk| self.write_snapshot(disk, app_id, &artifacts));
        let (epoch, victims) = {
            let mut inner = self.lock_inner();
            let epoch = inner.epoch(app_id) + 1;
            inner.epochs.insert(app_id.to_string(), epoch);
            inner.loading.remove(app_id);
            let victims = self.insert_resident(&mut inner, app_id, artifacts, epoch, on_disk);
            (epoch, victims)
        };
        // Spilling takes the victims' guards: hold only one at a time.
        drop(held);
        self.spill(victims);
        epoch + 1
    }

    /// Writes back every resident image that has no snapshot yet — the
    /// loader-built images that never left memory, and updated images
    /// whose write failed. Restored and already written images are
    /// skipped, so a restored image is never re-written and a second
    /// `flush` writes nothing. The images stay resident. Runs on drop; a
    /// shard pool also calls it when it kills, restarts or shuts down a
    /// shard. A no-op without a disk tier.
    pub fn flush(&self) {
        if self.disk.is_none() {
            return;
        }
        let unwritten: Vec<(String, Arc<AppArtifacts>, u64)> = self
            .lock_inner()
            .resident
            .iter()
            .filter(|(_, r)| !r.on_disk)
            .map(|(id, r)| (id.clone(), Arc::clone(&r.artifacts), r.epoch))
            .collect();
        for (app_id, artifacts, epoch) in &unwritten {
            self.write_back(app_id, artifacts, *epoch);
        }
    }

    /// Evicts least-recently-used images until the resident total fits
    /// the budget, returning the victims so the caller can spill them to
    /// the disk tier outside the lock. An updated image without a
    /// snapshot is never a victim. With a disk tier the slot of each
    /// victim without a snapshot is registered in `loading` here, under
    /// the lock that evicts it, so no request can find the victim
    /// missing from both tiers.
    /// The entry just inserted carries the newest recency stamp, so it
    /// goes last — and does go, if it alone overflows the budget.
    fn evict_to_budget(&self, inner: &mut StoreInner) -> Vec<Victim> {
        let mut victims = Vec::new();
        while inner.total_bytes > self.budget_bytes {
            let victim = inner
                .resident
                .iter()
                // Only its snapshot brings an updated image back.
                .filter(|(_, r)| r.epoch == 0 || r.on_disk)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            let gone = inner.resident.remove(&key).expect("victim just seen");
            inner.total_bytes -= gone.bytes;
            self.counters.evictions.inc();
            self.counters.bytes_evicted.add(gone.bytes);
            let slot = (self.disk.is_some() && !gone.on_disk).then(|| {
                let slot = LoadSlot::new();
                inner.loading.insert(key.clone(), Arc::clone(&slot));
                slot
            });
            victims.push(Victim {
                app_id: key,
                artifacts: gone.artifacts,
                epoch: gone.epoch,
                slot,
            });
        }
        victims
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("app store poisoned")
    }
}

impl Drop for AppStore {
    /// Writes back what only memory holds, so an orderly teardown leaves
    /// every image it built disk-warm. Skipped while unwinding a panic.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// A loader over tiny generated apps; `classes` scales the size so
    /// tests can pick meaningful budgets.
    fn tiny_loader(classes: usize) -> impl Fn(&str) -> Result<AppArtifacts, String> {
        move |id: &str| {
            if id == "missing" {
                return Err(format!("unknown app {id:?}"));
            }
            let app = AppSpec::named(format!("com.store.{id}"))
                .with_scenario(Scenario::new(
                    Mechanism::DirectEntry,
                    SinkKind::Cipher,
                    true,
                ))
                .with_filler(classes, 3, 4)
                .generate();
            Ok(AppArtifacts::new(app.program, app.manifest))
        }
    }

    /// Image size for a one-character app id — ids of equal length
    /// produce equal-sized images (the id feeds the generated class
    /// names, so its length shows up in the dump).
    fn one_image_bytes(classes: usize) -> u64 {
        tiny_loader(classes)("x").unwrap().estimated_bytes()
    }

    #[test]
    fn hits_misses_and_lru_eviction() {
        let bytes = one_image_bytes(4);
        // Room for two images, not three.
        let store = AppStore::new(bytes * 2 + bytes / 2, tiny_loader(4));
        assert_eq!(store.get("a").unwrap().1, Fetch::Miss);
        assert_eq!(store.get("b").unwrap().1, Fetch::Miss);
        assert_eq!(store.get("a").unwrap().1, Fetch::Hit, "a is resident");
        assert_eq!(store.lru_order(), vec!["b".to_string(), "a".to_string()]);
        // Loading c evicts the least recently used image: b.
        assert_eq!(store.get("c").unwrap().1, Fetch::Miss);
        assert_eq!(store.lru_order(), vec!["a".to_string(), "c".to_string()]);
        assert!(!store.contains("b"));
        let stats = store.metrics().snapshot();
        assert_eq!(
            (
                stats.value("store_hits_total"),
                stats.value("store_misses_total"),
                stats.value("store_loads_total")
            ),
            (1, 3, 3)
        );
        assert_eq!(stats.value("store_evictions_total"), 1);
        assert_eq!(stats.value("store_bytes_evicted_total"), bytes);
        assert!(stats.value("store_resident_bytes") <= store.budget_bytes());
        assert!(stats.value("store_peak_resident_bytes") <= store.budget_bytes());
    }

    #[test]
    fn zero_budget_store_caches_nothing_but_serves_everything() {
        let store = AppStore::new(0, tiny_loader(3));
        for _ in 0..3 {
            let (artifacts, fetch) = store.get("a").unwrap();
            assert_eq!(fetch, Fetch::Miss, "nothing is ever resident");
            assert!(artifacts.program().method_count() > 0);
        }
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_loads_total"), 3);
        assert_eq!(stats.value("store_evictions_total"), 3);
        assert_eq!(stats.value("store_resident_bytes"), 0);
        assert_eq!(stats.value("store_peak_resident_bytes"), 0);
    }

    #[test]
    fn load_failures_are_reported_and_not_cached() {
        let store = AppStore::new(u64::MAX, tiny_loader(3));
        assert!(store.get("missing").is_err());
        assert!(store.get("missing").is_err(), "failure is retried");
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_load_failures_total"), 2);
        assert_eq!(stats.value("store_loads_total"), 0);
        assert_eq!(stats.value("store_resident_apps"), 0);
    }

    /// A scratch directory under the target-adjacent temp root, removed
    /// on drop (no tempfile crate in the vendored stack).
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("backdroid-store-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disk_tier_serves_repeat_cold_loads_from_snapshots() {
        let scratch = ScratchDir::new("serve");
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        // Zero budget: nothing stays in memory, so every repeat request
        // must come back from disk.
        let store = AppStore::with_disk_tier(0, tier, tiny_loader(3));
        let (first, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss, "no snapshot yet: full parse");
        let (second, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Disk, "restored from the snapshot");
        assert_eq!(
            first.to_snapshot(),
            second.to_snapshot(),
            "parsed and restored images snapshot identically"
        );
        let stats = store.metrics().snapshot();
        assert_eq!(
            (
                stats.value("store_misses_total"),
                stats.value("store_disk_hits_total"),
                stats.value("store_disk_misses_total")
            ),
            (1, 1, 1)
        );
        assert_eq!(
            stats.value("store_disk_writes_total"),
            1,
            "the zero budget evicted the first load, and its spill wrote it"
        );
        assert!(stats.value("store_disk_bytes_written_total") > 0);
        assert_eq!(
            stats.value("store_loads_total"),
            2,
            "both requests produced an image"
        );
    }

    #[test]
    fn corrupt_and_version_bumped_snapshots_fall_back_to_reparse() {
        let scratch = ScratchDir::new("corrupt");
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let path = tier.path_for("a");
        let store = AppStore::with_disk_tier(0, tier, tiny_loader(3));
        store.get("a").unwrap();

        // Flip one payload byte: checksum mismatch → invalidate → reparse.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss, "corrupt snapshot must not serve");
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_disk_invalidations_total"), 1);
        assert_eq!(
            stats.value("store_disk_writes_total"),
            2,
            "reparse re-wrote the snapshot"
        );

        // Bump the version field: same invalidation path.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = bytes[8].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let (_, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        assert_eq!(
            store
                .metrics()
                .snapshot()
                .value("store_disk_invalidations_total"),
            2
        );

        // A stale older format (a leftover version-1 file from before
        // the sectioned layout): invalidate and reparse, never serve.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let (_, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss, "stale-version snapshot must not serve");
        assert_eq!(
            store
                .metrics()
                .snapshot()
                .value("store_disk_invalidations_total"),
            3
        );

        // A version-3 file (the format that still carried the chunk
        // manifest section) is just as stale: invalidate, reparse, and
        // re-write it in the current format.
        let writes = store.metrics().snapshot().value("store_disk_writes_total");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 3;
        std::fs::write(&path, &bytes).unwrap();
        let (_, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss, "a version-3 snapshot must not serve");
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_disk_invalidations_total"), 4);
        assert_eq!(stats.value("store_disk_writes_total"), writes + 1);
        assert_eq!(
            std::fs::read(&path).unwrap()[8..12],
            backdroid_core::SNAPSHOT_VERSION.to_le_bytes()
        );

        // Truncate: same again.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let (_, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        assert_eq!(
            store
                .metrics()
                .snapshot()
                .value("store_disk_invalidations_total"),
            5
        );

        // The re-written snapshot serves again.
        assert_eq!(store.get("a").unwrap().1, Fetch::Disk);
    }

    #[test]
    fn eviction_spills_missing_snapshots_to_disk() {
        let scratch = ScratchDir::new("spill");
        let bytes = one_image_bytes(4);
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let path_a = tier.path_for("a");
        let store = AppStore::with_disk_tier(bytes * 2 + bytes / 2, tier, tiny_loader(4));
        store.get("a").unwrap();
        store.get("b").unwrap();
        // Write-back: a cold load leaves no snapshot. Force a's eviction:
        // the spill must write the file.
        assert!(!path_a.exists(), "a cold load writes no snapshot");
        store.get("c").unwrap(); // evicts a (LRU)
        assert!(!store.contains("a"));
        assert!(path_a.exists(), "eviction spilled the missing snapshot");
        // And the spilled snapshot is served on the next request for a.
        assert_eq!(store.get("a").unwrap().1, Fetch::Disk);
    }

    #[test]
    fn snapshots_are_written_on_eviction_and_flush_only() {
        let scratch = ScratchDir::new("write-back");
        let bytes = one_image_bytes(4);
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let path = |id: &str| tier.path_for(id);
        let store = AppStore::with_disk_tier(bytes * 2 + bytes / 2, tier.clone(), tiny_loader(4));
        let registry = Arc::clone(store.metrics());
        let writes = || registry.snapshot().value("store_disk_writes_total");
        store.get("a").unwrap();
        store.get("b").unwrap();
        assert_eq!(writes(), 0, "a cold miss writes no snapshot");
        assert!(!path("a").exists() && !path("b").exists());
        store.get("c").unwrap(); // evicts a (LRU)
        assert_eq!(writes(), 1, "the eviction wrote its victim");
        assert!(path("a").exists());
        store.flush();
        assert_eq!(writes(), 3, "flush wrote b and c, once each");
        assert!(path("b").exists() && path("c").exists());
        store.flush();
        assert_eq!(writes(), 3, "a second flush writes nothing");
        // a comes back from disk and evicts b; neither is written again.
        assert_eq!(store.get("a").unwrap().1, Fetch::Disk);
        store.flush();
        assert_eq!(writes(), 3, "a restored image is never re-written");
        store.get("d").unwrap(); // evicts c, already on disk
        assert_eq!(writes(), 3);
        assert!(!path("d").exists());
        drop(store);
        assert_eq!(writes(), 4, "dropping the store wrote d");
        assert!(path("d").exists());
        let stats = registry.snapshot();
        assert_eq!(
            (
                stats.value("store_misses_total"),
                stats.value("store_disk_hits_total")
            ),
            (4, 1)
        );
    }

    #[test]
    fn reads_racing_an_eviction_spill_never_rebuild() {
        // Between a's eviction and the end of its spill, a is neither
        // resident nor on disk. A reader in that gap must wait for the
        // spilling image, not run the loader again.
        let bytes = one_image_bytes(4);
        for round in 0..40 {
            let scratch = ScratchDir::new(&format!("spill-gap-{round}"));
            let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
            let a_loads = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&a_loads);
            let loader = tiny_loader(4);
            let store = AppStore::with_disk_tier(bytes + bytes / 2, tier, move |id: &str| {
                if id == "a" {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                loader(id)
            });
            store.get("a").unwrap();
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        store.get("a").unwrap();
                    }
                });
                store.get("b").unwrap(); // evicts a and spills it
                stop.store(true, Ordering::SeqCst);
            });
            assert_eq!(
                a_loads.load(Ordering::SeqCst),
                1,
                "round {round}: a read in the spill gap rebuilt a"
            );
        }
    }

    #[test]
    fn app_ids_escape_into_safe_filenames() {
        let tier = DiskTier::new("/tmp/x", backdroid_core::BackendChoice::default());
        let p = tier.path_for("../../etc/passwd");
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(name, "%2E%2E%2F%2E%2E%2Fetc%2Fpasswd.snap");
        assert_eq!(p.parent().unwrap(), std::path::Path::new("/tmp/x"));
        // Distinct ids never collide.
        assert_ne!(tier.path_for("a.b"), tier.path_for("a%2Eb"));
        assert_eq!(
            tier.path_for("7").file_name().unwrap().to_string_lossy(),
            "7.snap"
        );
    }

    #[test]
    fn concurrent_cold_burst_loads_exactly_once() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let store = AppStore::new(u64::MAX, move |id: &str| {
            c.fetch_add(1, Ordering::SeqCst);
            // Widen the race window so waiters really coalesce.
            std::thread::sleep(std::time::Duration::from_millis(20));
            tiny_loader(3)(id)
        });
        let n = 8;
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    let (artifacts, _) = store.get("hot").unwrap();
                    assert!(artifacts.program().method_count() > 0);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "single-flight");
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_loads_total"), 1);
        assert_eq!(
            stats.value("store_hits_total")
                + stats.value("store_misses_total")
                + stats.value("store_coalesced_total"),
            n
        );
        assert_eq!(stats.value("store_misses_total"), 1);
    }

    #[test]
    fn put_replaces_resident_image_and_snapshot() {
        let scratch = ScratchDir::new("put");
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let store = AppStore::with_disk_tier(u64::MAX, tier, tiny_loader(3));
        let (v1, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Miss);
        let v2 = tiny_loader(6)("a").unwrap();
        let v2_classes = v2.program().class_count();
        assert_ne!(v1.program().class_count(), v2_classes);
        store.put("a", v2);
        // The resident image is the new version.
        let (now, fetch) = store.get("a").unwrap();
        assert_eq!(fetch, Fetch::Hit);
        assert_eq!(now.program().class_count(), v2_classes);
        // And so is the snapshot: a fresh store over the same directory
        // restores the updated version, not the loader's pristine one.
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let cold = AppStore::with_disk_tier(u64::MAX, tier, tiny_loader(3));
        let (restored, fetch) = cold.get("a").unwrap();
        assert_eq!(fetch, Fetch::Disk);
        assert_eq!(restored.program().class_count(), v2_classes);
    }

    #[test]
    fn an_update_whose_snapshot_write_fails_stays_resident() {
        let scratch = ScratchDir::new("put-fails");
        // A file where the snapshot directory's parent should be: every
        // write fails.
        std::fs::write(&scratch.0, b"not a directory").unwrap();
        let tier = DiskTier::new(scratch.0.join("snaps"), BackendChoice::default());
        let store = AppStore::with_disk_tier(0, tier, tiny_loader(3));
        assert_eq!(store.put("a", tiny_loader(6)("a").unwrap()), 2);
        store.get("b").unwrap(); // a loader build still comes and goes
        assert_eq!(store.lru_order(), ["a"], "only the update stayed");
        assert_eq!(store.get("a").unwrap().1, Fetch::Hit);
        let stats = store.metrics().snapshot();
        assert_eq!(stats.value("store_disk_write_failures_total"), 2);
        assert_eq!(stats.value("store_resident_bytes"), store.resident_bytes());
        drop(store);
        std::fs::remove_file(&scratch.0).unwrap();
    }

    #[test]
    fn stale_spill_cannot_resurrect_an_old_snapshot() {
        let scratch = ScratchDir::new("stale");
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let path = tier.path_for("a");
        let store = AppStore::with_disk_tier(u64::MAX, tier, tiny_loader(3));
        let (v1, _) = store.get("a").unwrap(); // epoch 0, resident only
        store.put("a", tiny_loader(6)("a").unwrap()); // epoch 1
        let v2_bytes = std::fs::read(&path).unwrap();
        // Replay the racing eviction spill of the old image exactly as
        // the eviction path would issue it: the epoch it captured when
        // the image was inserted (0) is no longer current, so even with
        // the snapshot file missing the write must be skipped.
        std::fs::remove_file(&path).unwrap();
        store.spill_guarded("a", &v1, 0);
        assert!(!path.exists(), "stale spill must not re-create the file");
        assert_eq!(
            store
                .metrics()
                .snapshot()
                .value("store_disk_stale_spills_total"),
            1
        );
        // A spill carrying the current epoch restores the new version.
        let (current, _) = store.get("a").unwrap();
        store.spill_guarded("a", &current, 1);
        assert_eq!(std::fs::read(&path).unwrap(), v2_bytes);
    }

    #[test]
    fn interleaved_puts_gets_and_evictions_leave_the_final_version_on_disk() {
        let scratch = ScratchDir::new("race");
        let bytes = one_image_bytes(3);
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        // Room for about one image: every insertion evicts, so put-path
        // writes and eviction spills interleave constantly.
        let store = AppStore::with_disk_tier(bytes + bytes / 2, tier, tiny_loader(3));
        store.get("a").unwrap();
        let final_version = tiny_loader(7)("a").unwrap();
        let final_classes = final_version.program().class_count();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for classes in [4, 5, 6] {
                    store.put("a", tiny_loader(classes)("a").unwrap());
                }
                store.put("a", final_version);
            });
            scope.spawn(|| {
                for _ in 0..8 {
                    store.get("b").unwrap();
                    store.get("c").unwrap();
                }
            });
        });
        // Whatever interleaving of spills and puts happened, the disk
        // tier must hold the last published version of `a`.
        let tier = DiskTier::new(&scratch.0, backdroid_core::BackendChoice::default());
        let cold = AppStore::with_disk_tier(u64::MAX, tier, tiny_loader(3));
        let (restored, fetch) = cold.get("a").unwrap();
        assert_eq!(fetch, Fetch::Disk, "the final put left a snapshot behind");
        assert_eq!(restored.program().class_count(), final_classes);
    }
}
