//! The sharded serving topology: N shard workers, each owning one
//! [`Service`] (and therefore one [`crate::AppStore`]), behind a router
//! that consistent-hashes app ids so each app has one **home shard**,
//! which serves every single-app request for it while it is alive — the
//! market-scale layout where no single process can hold the whole store.
//!
//! * **Routing** — `fnv1a64(app_id) % shards` (the same hash the
//!   snapshot checksums use), probing forward past dead shards; batch
//!   requests route by their first app. A batch member and a re-routed
//!   request therefore load their app on a shard that is not its home,
//!   so one app's image can be resident on several shards.
//! * **Admission control** — each shard has a bounded queue;
//!   [`ShardPool::submit_line`] blocks when the target queue is full
//!   (backpressure to the reader), never drops.
//! * **Deadlines** — a request carrying `"deadline_ms"` that is still
//!   queued when its deadline passes is answered with a deterministic
//!   error instead of being analyzed.
//! * **Crash + restart** — [`ShardPool::kill_shard`] takes a shard
//!   down: new submissions route past it at once, while the requests
//!   already on its queue are served before it stops (so no response is
//!   ever lost or duplicated, and none depends on when the kill landed);
//!   then its memory tier is written back to disk
//!   ([`crate::AppStore::flush`]) and dropped, and its counters are
//!   folded into the pool's retired total. [`ShardPool::restart_shard`]
//!   has the live shards write back what they built while the shard was
//!   down, then brings it back with a fresh [`Service`] over the
//!   **shared snapshot directory**, so the restarted shard is disk-warm
//!   instead of re-parsing.
//! * **Shared snapshots, write-back** — the shards share one snapshot
//!   directory, but a shard writes an app it built only when that app
//!   leaves its memory (or at a kill, restart or shutdown). Until then
//!   another shard that loads the app (a batch member off its home
//!   shard, a re-routed request) rebuilds it instead of restoring it.
//!   Replies are unaffected.
//!
//! Responses stay a pure function of (app, requested sinks), so a
//! sharded replay — at any shard count, across a kill/restart — is
//! byte-identical to the single-process `--direct` golden. The
//! `tests/shard_equivalence.rs` and `tests/shard_fault_injection.rs`
//! tiers enforce exactly that.

use crate::proto::{
    decode_line, render_analysis, render_batch, render_deadline_error, render_error,
    render_metrics, render_put_version, render_stats, Op, Request,
};
use crate::service::Service;
use backdroid_ir::wire::fnv1a64;
use backdroid_obs::{Counter, Histogram, MetricsRegistry, RegistrySnapshot, TraceBuilder, Tracer};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Delivers one completed response: the submission sequence number and
/// the rendered line (`None` = nothing to emit — blank input, admin
/// ops). Shared by every job of one input stream, typically an
/// [`crate::transport::OrderedEmitter`] closure.
pub type Responder = Arc<dyn Fn(u64, Option<String>) + Send + Sync>;

/// Builds the `Service` for one (re)started shard. Every shard gets the
/// same configuration — in particular the same snapshot directory, which
/// is what makes restarts disk-warm.
pub type ShardFactory = dyn Fn(usize) -> Service + Send + Sync;

/// Shard-pool configuration.
#[derive(Clone, Debug)]
pub struct ShardPoolConfig {
    /// Number of shards (each owns one `Service` + `AppStore`).
    pub shards: usize,
    /// Worker threads per shard draining its queue.
    pub workers_per_shard: usize,
    /// Bounded per-shard queue depth; submission blocks when full.
    pub queue_capacity: usize,
    /// Span-ring capacity for per-request phase tracing; `0` (the
    /// default) disables tracing entirely. See [`backdroid_obs::Tracer`]
    /// for the replay-diff contract.
    pub trace_capacity: usize,
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        ShardPoolConfig {
            shards: 4,
            workers_per_shard: 1,
            queue_capacity: 64,
            trace_capacity: 0,
        }
    }
}

/// One queued request.
struct Job {
    seq: u64,
    req: Request,
    respond: Responder,
    deadline: Option<Instant>,
    /// When the job was admitted; the queue wait is measured from here.
    enqueued: Instant,
}

struct ShardState {
    queue: VecDeque<Job>,
    /// The shard's service; `None` exactly while the shard is dead.
    service: Option<Arc<Service>>,
    alive: bool,
    in_flight: usize,
    /// Apps with a job currently executing. Workers skip queued jobs
    /// whose apps appear here (or earlier in the queue), so same-app
    /// requests run one at a time in submission order — without that,
    /// a `put_version` could race the requests around it and a multi-
    /// worker replay would not be byte-identical to the direct golden.
    busy: HashSet<String>,
    /// Worker threads currently attached to this shard.
    workers: usize,
}

struct Shard {
    state: Mutex<ShardState>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Signalled when `in_flight`/`workers` drop or the queue empties.
    settled: Condvar,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().expect("shard poisoned")
    }
}

struct PoolInner {
    shards: Vec<Shard>,
    factory: Box<ShardFactory>,
    queue_capacity: usize,
    workers_per_shard: usize,
    running: AtomicBool,
    /// Pool-level registry: routing/admission/lifecycle counters plus
    /// the queue-wait histogram. Folded into the aggregate `metrics`
    /// view alongside the shards' own registries.
    registry: Arc<MetricsRegistry>,
    /// Jobs enqueued on a non-primary shard because the primary was
    /// dead.
    rerouted: Counter,
    /// Jobs still queued when their deadline passed.
    deadline_expired: Counter,
    /// Requests that found no live shard at all.
    no_shard_errors: Counter,
    kills: Counter,
    restarts: Counter,
    /// Time jobs sat queued before a worker picked them up, in µs.
    queue_wait_us: Histogram,
    /// Optional per-request span ring (`trace_capacity > 0`).
    tracer: Option<Arc<Tracer>>,
    /// Registry snapshots folded in from killed shards, so aggregate
    /// counters stay monotonic across restarts.
    retired: Mutex<RegistrySnapshot>,
}

/// The sharded service pool. `submit_line` may be called from any
/// number of reader threads; responses are delivered through each job's
/// [`Responder`] from whichever shard worker completed it.
pub struct ShardPool {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shard_count())
            .field("workers_per_shard", &self.inner.workers_per_shard)
            .field("queue_capacity", &self.inner.queue_capacity)
            .finish_non_exhaustive()
    }
}

/// Runs one already-parsed request against a service and renders the
/// response line. `None` means the op produces no output: the admin ops
/// (`kill_shard` / `restart_shard`), which are pool-level and a no-op
/// on a plain service — keeping them silent means a trace spliced with
/// admin lines still diffs byte-for-byte against an unsharded golden.
pub fn execute_request(service: &Service, req: &Request) -> Option<String> {
    execute_request_traced(service, req, None)
}

/// The fetch tier as a trace attribute value.
fn fetch_name(fetch: crate::store::Fetch) -> &'static str {
    match fetch {
        crate::store::Fetch::Hit => "hit",
        crate::store::Fetch::Miss => "miss",
        crate::store::Fetch::Disk => "disk",
        crate::store::Fetch::Coalesced => "coalesced",
    }
}

/// Opens the synthesized phase children under `parent` for one
/// completed analysis: `fetch` (which tier served the image) and the
/// pipeline phases with their measured durations. Everything on them is
/// a **wall** attribute — phase durations and tiers are facts of one
/// run — so the normalized export keeps only the span skeleton, which
/// is a pure function of the workload.
fn open_analysis_spans(tb: &mut TraceBuilder, parent: u32, a: &crate::service::AppAnalysis) {
    let fetch = tb.open(Some(parent), "fetch");
    tb.wall_attr(fetch, "tier", fetch_name(a.fetch));
    tb.close(fetch);
    for (name, ns) in [
        ("locate", a.report.phases.locate_ns),
        ("slice", a.report.phases.slice_ns),
        ("verdict", a.report.phases.verdict_ns),
    ] {
        let s = tb.open(Some(parent), name);
        tb.wall_attr(s, "us", &(ns / 1_000).to_string());
        tb.close(s);
    }
    let probe = tb.open(Some(parent), "search");
    tb.wall_attr(
        probe,
        "commands",
        &a.report.cache_stats.commands.to_string(),
    );
    tb.wall_attr(probe, "hits", &a.report.cache_stats.hits.to_string());
    tb.close(probe);
}

/// [`execute_request`] plus optional span recording: when `tb` is
/// given, the caller has opened the root `request` span (id `0`) and
/// this runs the op inside an `exec` child, attaching per-analysis
/// phase children. Span structure and deterministic attrs depend only
/// on the request, never on timing or topology.
pub fn execute_request_traced(
    service: &Service,
    req: &Request,
    mut tb: Option<&mut TraceBuilder>,
) -> Option<String> {
    let exec = tb.as_deref_mut().map(|tb| tb.open(Some(0), "exec"));
    let line = match &req.op {
        Op::Analyze { app } | Op::AnalyzeDelta { app } | Op::Query { app, .. } => {
            let result = match &req.op {
                Op::AnalyzeDelta { .. } => service.analyze_delta(app),
                Op::Query { detectors, .. } => service.query_detectors(app, detectors),
                _ => service.analyze_app(app),
            };
            match result {
                Ok(a) => {
                    if let (Some(tb), Some(exec)) = (tb.as_deref_mut(), exec) {
                        open_analysis_spans(tb, exec, &a);
                    }
                    render_analysis(req.id, op_name(&req.op), &a)
                }
                Err(e) => render_error(req.id, &e.to_string()),
            }
        }
        Op::PutVersion { app, seed } => match service.put_version(app, *seed) {
            Ok(outcome) => render_put_version(req.id, &outcome),
            Err(e) => render_error(req.id, &e.to_string()),
        },
        Op::Batch { apps } => {
            let results = service.analyze_batch(apps);
            if let (Some(tb), Some(exec)) = (tb.as_deref_mut(), exec) {
                for (i, result) in results.iter().enumerate() {
                    let item = tb.open(Some(exec), "item");
                    tb.attr(item, "index", &i.to_string());
                    if let Ok(a) = result {
                        open_analysis_spans(tb, item, a);
                    }
                    tb.close(item);
                }
            }
            render_batch(req.id, &results)
        }
        Op::Stats => render_stats(req.id, &service.metrics().snapshot()),
        Op::Metrics => {
            let snap = service.metrics().snapshot();
            render_metrics(req.id, &snap, &[Some(snap.clone())])
        }
        // Silent ops emit nothing, so the `exec`/`emit` spans are not
        // recorded either — a trace spliced with admin lines still diffs
        // byte-for-byte against an unsharded golden.
        Op::KillShard { .. } | Op::RestartShard { .. } => return None,
    };
    if let (Some(tb), Some(exec)) = (tb, exec) {
        tb.close(exec);
        let emit = tb.open(Some(0), "emit");
        tb.close(emit);
    }
    Some(line)
}

impl ShardPool {
    /// Creates the pool and spawns `shards × workers_per_shard` workers.
    /// The factory builds each shard's `Service` — called again on every
    /// [`ShardPool::restart_shard`].
    pub fn new(
        cfg: ShardPoolConfig,
        factory: impl Fn(usize) -> Service + Send + Sync + 'static,
    ) -> Self {
        let shards = cfg.shards.max(1);
        let workers_per_shard = cfg.workers_per_shard.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(PoolInner {
            shards: (0..shards)
                .map(|i| Shard {
                    state: Mutex::new(ShardState {
                        queue: VecDeque::new(),
                        service: Some(Arc::new(factory(i))),
                        alive: true,
                        in_flight: 0,
                        busy: HashSet::new(),
                        workers: workers_per_shard,
                    }),
                    not_empty: Condvar::new(),
                    not_full: Condvar::new(),
                    settled: Condvar::new(),
                })
                .collect(),
            factory: Box::new(factory),
            queue_capacity: cfg.queue_capacity.max(1),
            workers_per_shard,
            running: AtomicBool::new(true),
            rerouted: registry.counter("pool_rerouted_total"),
            deadline_expired: registry.counter("pool_deadline_expired_total"),
            no_shard_errors: registry.counter("pool_no_shard_errors_total"),
            kills: registry.counter("pool_kills_total"),
            restarts: registry.counter("pool_restarts_total"),
            queue_wait_us: registry.histogram("pool_queue_wait_us"),
            registry,
            tracer: (cfg.trace_capacity > 0)
                .then(|| Arc::new(Tracer::with_capacity(cfg.trace_capacity))),
            retired: Mutex::new(RegistrySnapshot::default()),
        });
        let pool = ShardPool {
            inner,
            handles: Mutex::new(Vec::new()),
        };
        for i in 0..shards {
            pool.spawn_workers(i);
        }
        pool
    }

    /// Number of configured shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard `app_id` hashes to — where its image is resident while
    /// that shard is alive.
    pub fn route(&self, app_id: &str) -> usize {
        (fnv1a64(app_id.as_bytes()) % self.inner.shards.len() as u64) as usize
    }

    /// Submits one input line. Parse errors, `stats`, `metrics` and the
    /// admin ops are answered on the calling thread; per-app jobs
    /// (analyze, query, batch, put_version, analyze_delta) are routed to
    /// their shard's queue (blocking while it is full). `stats` and
    /// `metrics` first [`drain`](ShardPool::drain) the pool, so their
    /// counters cover every request submitted ahead of them. Every
    /// submission produces exactly one `respond(seq, …)` call.
    pub fn submit_line(&self, seq: u64, line: &str, respond: &Responder) {
        let req = match decode_line(line) {
            None => return respond(seq, None),
            Some(Err(error)) => return respond(seq, Some(error)),
            Some(Ok(req)) => req,
        };
        match &req.op {
            Op::Stats => {
                self.drain();
                respond(seq, Some(render_stats(req.id, &self.metrics())));
            }
            Op::Metrics => {
                self.drain();
                let line = render_metrics(req.id, &self.metrics(), &self.shard_metrics());
                respond(seq, Some(line));
            }
            &Op::KillShard { shard } => {
                self.kill_shard(shard as usize);
                respond(seq, None);
            }
            &Op::RestartShard { shard } => {
                self.restart_shard(shard as usize);
                respond(seq, None);
            }
            Op::Analyze { .. }
            | Op::AnalyzeDelta { .. }
            | Op::PutVersion { .. }
            | Op::Query { .. }
            | Op::Batch { .. } => {
                let primary = self.route(job_apps(&req.op).first().map_or("", String::as_str));
                let deadline = req
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                self.route_job(
                    primary,
                    Job {
                        seq,
                        req,
                        respond: Arc::clone(respond),
                        deadline,
                        enqueued: Instant::now(),
                    },
                );
            }
        }
    }

    /// Enqueues `job` on `primary`, probing forward past dead shards.
    fn route_job(&self, primary: usize, job: Job) {
        let n = self.inner.shards.len();
        let mut job = job;
        for k in 0..n {
            let idx = (primary + k) % n;
            match self.try_enqueue(idx, job) {
                Ok(()) => {
                    if k > 0 {
                        self.inner.rerouted.inc();
                    }
                    return;
                }
                Err(returned) => job = returned,
            }
        }
        self.inner.no_shard_errors.inc();
        let line = render_error(job.req.id, "no shard available");
        (job.respond)(job.seq, Some(line));
    }

    /// Blocking bounded put; `Err(job)` if the shard is (or went) dead.
    // The Err is the caller's own Job handed back for re-routing, not
    // an error payload — boxing it would cost an allocation per submit.
    #[allow(clippy::result_large_err)]
    fn try_enqueue(&self, idx: usize, job: Job) -> Result<(), Job> {
        let shard = &self.inner.shards[idx];
        let mut state = shard.lock();
        loop {
            if !state.alive || !self.inner.running.load(Ordering::Relaxed) {
                return Err(job);
            }
            if state.queue.len() < self.inner.queue_capacity {
                state.queue.push_back(job);
                shard.not_empty.notify_one();
                return Ok(());
            }
            state = shard.not_full.wait(state).expect("shard poisoned");
        }
    }

    /// Takes shard `idx` down. It is marked dead first, so new
    /// submissions probe past it (or get `no shard available` when no
    /// shard is alive); its workers serve every request already queued
    /// on it and then exit. Once they have, it writes back every image
    /// its store built but never spilled, folds its counters into the
    /// retired total, and drops its service (memory tier gone; its
    /// snapshots stay on disk). Updates do not fully survive: without a
    /// snapshot directory the shard's published updates are lost, and
    /// the restarted shard serves version 1; with one, the updated
    /// content survives but the version number starts over. Returns
    /// `false` if the index is out of range or the shard was already
    /// dead.
    pub fn kill_shard(&self, idx: usize) -> bool {
        let Some(shard) = self.inner.shards.get(idx) else {
            return false;
        };
        {
            let mut state = shard.lock();
            if !state.alive {
                return false;
            }
            state.alive = false;
            shard.not_empty.notify_all();
            shard.not_full.notify_all();
        }
        self.inner.kills.inc();
        // Wait for the workers to empty the queue and detach, then take
        // the service out.
        let service = {
            let mut state = shard.lock();
            while state.workers > 0 || state.in_flight > 0 {
                state = shard.settled.wait(state).expect("shard poisoned");
            }
            state.service.take().expect("dead shard kept a service")
        };
        // Write back outside the shard lock (it is disk I/O), before the
        // counters retire (so they count these writes).
        service.store().flush();
        self.inner
            .retired
            .lock()
            .expect("retired stats poisoned")
            .absorb(&service.metrics().snapshot());
        true
    }

    /// Brings a dead shard back with a fresh service from the factory —
    /// over the shared snapshot directory, so first touches are disk
    /// restores, not re-parses. While the shard was down the live shards
    /// served its apps and hold them unwritten, so they write back first
    /// ([`crate::AppStore::flush`]). Returns `false` if the index is out
    /// of range or the shard is already alive.
    pub fn restart_shard(&self, idx: usize) -> bool {
        let Some(shard) = self.inner.shards.get(idx) else {
            return false;
        };
        if shard.lock().alive {
            return false;
        }
        self.flush_live_shards();
        {
            let mut state = shard.lock();
            if state.alive {
                return false;
            }
            state.service = Some(Arc::new((self.inner.factory)(idx)));
            state.alive = true;
            state.workers = self.inner.workers_per_shard;
        }
        self.inner.restarts.inc();
        self.spawn_workers(idx);
        true
    }

    /// Blocks until every live shard's queue is empty and nothing is in
    /// flight — all submitted responses delivered.
    pub fn drain(&self) {
        for shard in &self.inner.shards {
            let mut state = shard.lock();
            while state.alive && (!state.queue.is_empty() || state.in_flight > 0) {
                state = shard.settled.wait(state).expect("shard poisoned");
            }
        }
    }

    /// The fleet-wide aggregate registry snapshot: retired (killed)
    /// shards, every live shard, and the pool's own `pool_*` counters
    /// and queue-wait histogram, folded with
    /// [`RegistrySnapshot::absorb`].
    pub fn metrics(&self) -> RegistrySnapshot {
        let mut agg = self
            .inner
            .retired
            .lock()
            .expect("retired stats poisoned")
            .clone();
        for shard in &self.inner.shards {
            if let Some(service) = &shard.lock().service {
                agg.absorb(&service.metrics().snapshot());
            }
        }
        agg.absorb(&self.inner.registry.snapshot());
        agg
    }

    /// Per-shard registry snapshots (`None` while a shard is dead) —
    /// the `metrics` op's `"shards"` array.
    pub fn shard_metrics(&self) -> Vec<Option<RegistrySnapshot>> {
        self.inner
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .service
                    .as_ref()
                    .map(|s| s.metrics().snapshot())
            })
            .collect()
    }

    /// The span ring, when the pool was configured with
    /// `trace_capacity > 0`.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.tracer.as_ref()
    }

    /// Stops every worker after its current request and joins them,
    /// then writes back every live shard's unwritten images
    /// ([`crate::AppStore::flush`]); the services stay readable, so
    /// [`ShardPool::metrics`] afterwards counts those writes. Called by
    /// `Drop`; anything still queued is dropped unanswered, so
    /// [`ShardPool::drain`] first for a graceful exit.
    pub fn shutdown(&self) {
        self.inner.running.store(false, Ordering::Relaxed);
        for shard in &self.inner.shards {
            // Notify under the shard lock, as `kill_shard` does: a worker
            // holds it from its `running` check until it parks, so it
            // either sees the cleared flag or is parked when the
            // notification lands — never in between, where it would
            // sleep through it and hang the join below.
            let _state = shard.lock();
            shard.not_empty.notify_all();
            shard.not_full.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
        self.flush_live_shards();
    }

    /// Writes back every live shard's unwritten images, outside the
    /// shard locks.
    fn flush_live_shards(&self) {
        for shard in &self.inner.shards {
            let service = shard.lock().service.clone();
            if let Some(service) = service {
                service.store().flush();
            }
        }
    }

    fn spawn_workers(&self, idx: usize) {
        let mut handles = self.handles.lock().expect("handles poisoned");
        for _ in 0..self.inner.workers_per_shard {
            let inner = Arc::clone(&self.inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner, idx)));
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The request op as a deterministic trace attribute value.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Analyze { .. } => "analyze",
        Op::AnalyzeDelta { .. } => "analyze_delta",
        Op::PutVersion { .. } => "put_version",
        Op::Query { .. } => "query",
        Op::Batch { .. } => "batch",
        Op::Stats => "stats",
        Op::Metrics => "metrics",
        Op::KillShard { .. } => "kill_shard",
        Op::RestartShard { .. } => "restart_shard",
    }
}

/// Every app an op reads or writes — what the per-app ordering guard
/// serializes on. A batch holds all of its apps so it cannot interleave
/// with an update to any of them. The first app routes the job.
fn job_apps(op: &Op) -> &[String] {
    match op {
        Op::Analyze { app }
        | Op::AnalyzeDelta { app }
        | Op::PutVersion { app, .. }
        | Op::Query { app, .. } => std::slice::from_ref(app),
        Op::Batch { apps } => apps,
        _ => &[],
    }
}

fn worker_loop(inner: &PoolInner, idx: usize) {
    let shard = &inner.shards[idx];
    loop {
        let (job, service) = {
            let mut state = shard.lock();
            loop {
                // A killed shard still serves what was queued before the
                // kill; its workers leave once the queue is empty.
                if !inner.running.load(Ordering::Relaxed)
                    || (!state.alive && state.queue.is_empty())
                {
                    state.workers -= 1;
                    shard.settled.notify_all();
                    return;
                }
                // Pick the first job none of whose apps is executing or
                // claimed by an *earlier* queued job — the scan keeps
                // same-app jobs in submission order even when a busy
                // app forces a later job to jump ahead.
                let pick = {
                    let mut claimed: HashSet<&str> = HashSet::new();
                    let mut pick = None;
                    for (i, queued) in state.queue.iter().enumerate() {
                        let apps = job_apps(&queued.req.op);
                        if apps
                            .iter()
                            .all(|a| !state.busy.contains(a) && !claimed.contains(a.as_str()))
                        {
                            pick = Some(i);
                            break;
                        }
                        claimed.extend(apps.iter().map(String::as_str));
                    }
                    pick
                };
                if let Some(i) = pick {
                    let job = state.queue.remove(i).expect("picked index in range");
                    state.busy.extend(job_apps(&job.req.op).iter().cloned());
                    state.in_flight += 1;
                    shard.not_full.notify_all();
                    let service =
                        Arc::clone(state.service.as_ref().expect("live shard has a service"));
                    break (job, service);
                }
                state = shard.not_empty.wait(state).expect("shard poisoned");
            }
        };
        let wait = job.enqueued.elapsed();
        inner.queue_wait_us.record(wait.as_micros() as u64);
        let mut tb = inner.tracer.as_ref().map(|t| {
            let mut tb = t.begin(job.seq);
            let root = tb.open(None, "request");
            tb.attr(root, "op", op_name(&job.req.op));
            let app = job_apps(&job.req.op).first().map_or("", String::as_str);
            tb.attr(root, "app", app);
            tb.wall_attr(root, "shard", &idx.to_string());
            let q = tb.open(Some(root), "queue");
            tb.wall_attr(q, "wait_us", &wait.as_micros().to_string());
            tb.close(q);
            tb
        });
        let response = if job.deadline.is_some_and(|d| Instant::now() > d) {
            inner.deadline_expired.inc();
            if let Some(tb) = tb.as_mut() {
                let s = tb.open(Some(0), "deadline");
                tb.wall_attr(s, "wait_ms", &wait.as_millis().to_string());
                tb.close(s);
            }
            Some(render_deadline_error(job.req.id, wait.as_millis() as u64))
        } else {
            execute_request_traced(&service, &job.req, tb.as_mut())
        };
        if let (Some(tb), Some(tracer)) = (tb, inner.tracer.as_ref()) {
            tb.finish(tracer);
        }
        (job.respond)(job.seq, response);
        drop(service);
        let mut state = shard.lock();
        for app in job_apps(&job.req.op) {
            state.busy.remove(app);
        }
        state.in_flight -= 1;
        // Queued jobs skipped while this job's apps were busy are now
        // eligible — wake the workers parked on an apparently non-empty
        // queue.
        shard.not_empty.notify_all();
        if state.in_flight == 0 {
            // Wakes `drain` (queue empty, nothing in flight); a
            // `kill_shard` waits for the workers to leave instead.
            shard.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_json, Json};
    use crate::service::ServiceConfig;
    use backdroid_appgen::benchset::BenchsetConfig;
    use std::collections::BTreeMap;

    fn pool(shards: usize) -> ShardPool {
        let bench = BenchsetConfig::sized(6, 0.04);
        ShardPool::new(
            ShardPoolConfig {
                shards,
                ..ShardPoolConfig::default()
            },
            move |_| {
                Service::over_benchset(
                    bench,
                    ServiceConfig {
                        budget_bytes: u64::MAX,
                        ..ServiceConfig::default()
                    },
                )
            },
        )
    }

    type Collected = Arc<Mutex<BTreeMap<u64, Option<String>>>>;

    fn collecting_responder() -> (Responder, Collected) {
        let seen: Collected = Arc::default();
        let sink = Arc::clone(&seen);
        let responder: Responder = Arc::new(move |seq, line| {
            let prev = sink.lock().unwrap().insert(seq, line);
            assert!(prev.is_none(), "duplicate response for seq {seq}");
        });
        (responder, seen)
    }

    /// Live shards: a shard holds a service exactly while it is alive.
    fn alive(p: &ShardPool) -> usize {
        p.shard_metrics().iter().filter(|s| s.is_some()).count()
    }

    #[test]
    fn routes_are_stable_and_cover_all_shards() {
        let p = pool(4);
        for id in ["0", "1", "2", "17", "com.app.x"] {
            assert_eq!(p.route(id), p.route(id));
            assert!(p.route(id) < 4);
        }
        let covered: std::collections::BTreeSet<usize> =
            (0..64).map(|i| p.route(&i.to_string())).collect();
        assert!(covered.len() > 1, "hashing must spread apps across shards");
    }

    #[test]
    fn submits_answer_exactly_once_and_drain_waits() {
        let p = pool(2);
        let (responder, seen) = collecting_responder();
        for seq in 0..8u64 {
            let line = format!(
                "{{\"id\":{seq},\"op\":\"analyze\",\"app\":\"{}\"}}",
                seq % 3
            );
            p.submit_line(seq, &line, &responder);
        }
        p.submit_line(8, "", &responder);
        p.submit_line(9, "not json", &responder);
        p.drain();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 10, "every submission answered exactly once");
        assert_eq!(seen[&8], None, "blank line produces no output");
        assert!(seen[&9].as_ref().unwrap().contains("\"error\""));
    }

    #[test]
    fn kill_reroutes_and_restart_revives() {
        let p = pool(3);
        let (responder, seen) = collecting_responder();
        let victim = p.route("1");
        assert!(p.kill_shard(victim));
        assert!(!p.kill_shard(victim), "second kill is a no-op");
        p.submit_line(0, "{\"id\":0,\"op\":\"analyze\",\"app\":\"1\"}", &responder);
        p.drain();
        assert!(seen.lock().unwrap()[&0]
            .as_ref()
            .unwrap()
            .contains("\"app\":\"1\""));
        let agg = p.metrics();
        assert_eq!((agg.value("pool_kills_total"), alive(&p)), (1, 2));
        assert!(
            agg.value("pool_rerouted_total") >= 1,
            "the dead primary was probed past"
        );
        assert!(p.restart_shard(victim));
        assert!(!p.restart_shard(victim), "second restart is a no-op");
        assert_eq!(alive(&p), 3);
        // Same request id, so the rendered line must be byte-identical.
        p.submit_line(1, "{\"id\":0,\"op\":\"analyze\",\"app\":\"1\"}", &responder);
        p.drain();
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen[&1], seen[&0],
            "the revived shard serves the identical response"
        );
    }

    #[test]
    fn expired_deadlines_get_deterministic_errors() {
        let p = pool(1);
        let (responder, seen) = collecting_responder();
        // deadline_ms 0: expired the moment a worker dequeues it.
        p.submit_line(
            0,
            "{\"id\":0,\"op\":\"analyze\",\"app\":\"0\",\"deadline_ms\":0}",
            &responder,
        );
        p.drain();
        let line = seen.lock().unwrap()[&0].clone().expect("a response line");
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(0));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("deadline exceeded")
        );
        assert!(
            v.get("queue_wait_ms").and_then(Json::as_u64).is_some(),
            "the error carries the measured queue wait: {line}"
        );
        let agg = p.metrics();
        assert_eq!(agg.value("pool_deadline_expired_total"), 1);
        let hist = agg.histogram("pool_queue_wait_us").expect("wait histogram");
        assert_eq!(hist.count, 1, "every dequeued job records its wait");
    }

    #[test]
    fn stats_aggregate_across_kill_and_restart() {
        let p = pool(2);
        let (responder, seen) = collecting_responder();
        for seq in 0..6u64 {
            let line = format!(
                "{{\"id\":{seq},\"op\":\"analyze\",\"app\":\"{}\"}}",
                seq % 4
            );
            p.submit_line(seq, &line, &responder);
        }
        // No drain first: the stats op waits for the requests ahead of it.
        p.submit_line(6, "{\"id\":6,\"op\":\"stats\"}", &responder);
        let line = seen.lock().unwrap()[&6].clone().expect("a stats line");
        assert!(line.contains("\"requests\":6,"), "{line}");
        p.drain();
        let before = p.metrics();
        assert_eq!(before.value("service_requests_total"), 6);
        p.kill_shard(0);
        p.restart_shard(0);
        let after = p.metrics();
        assert_eq!(
            after.value("service_requests_total"),
            6,
            "retired counters keep the aggregate monotonic across restarts"
        );
        assert_eq!(
            after.value("service_analyze_total"),
            before.value("service_analyze_total")
        );
    }

    #[test]
    fn same_app_updates_execute_in_submission_order_across_workers() {
        // An update chain interleaved with reads, raced by 4 workers on
        // one shard, must answer byte-for-byte like the serial 1-worker
        // pool: the per-app ordering guard keeps same-app jobs
        // sequential while the other app's jobs still overlap freely.
        let bench = BenchsetConfig::sized(6, 0.04);
        let mk = move |workers: usize| {
            ShardPool::new(
                ShardPoolConfig {
                    shards: 1,
                    workers_per_shard: workers,
                    ..ShardPoolConfig::default()
                },
                move |_| {
                    Service::over_benchset(
                        bench,
                        ServiceConfig {
                            budget_bytes: u64::MAX,
                            ..ServiceConfig::default()
                        },
                    )
                },
            )
        };
        let mut lines = Vec::new();
        let mut id = 0u64;
        for seed in [11u64, 12, 13] {
            for app in ["1", "2"] {
                for op in [
                    format!("\"op\":\"put_version\",\"app\":\"{app}\",\"seed\":{seed}"),
                    format!("\"op\":\"analyze_delta\",\"app\":\"{app}\""),
                    format!("\"op\":\"analyze\",\"app\":\"{app}\""),
                ] {
                    lines.push(format!("{{\"id\":{id},{op}}}"));
                    id += 1;
                }
            }
        }
        let run = |workers: usize| {
            let p = mk(workers);
            let (responder, seen) = collecting_responder();
            for (seq, line) in lines.iter().enumerate() {
                p.submit_line(seq as u64, line, &responder);
            }
            p.drain();
            let seen = seen.lock().unwrap();
            (0..lines.len() as u64)
                .map(|s| seen[&s].clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(4),
            run(1),
            "racing workers must not reorder same-app updates"
        );
    }
}
