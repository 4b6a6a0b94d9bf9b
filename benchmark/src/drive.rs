//! The untraced closed loop: clients submit wire request lines through
//! `ShardPool::submit_line` — one shard whose workers share one
//! `Service` — and each waits for its reply before sending the next.
//! Latency runs from submit to reply at the client. Every reply is
//! compared against its golden fingerprint as it arrives.

use crate::golden::{fingerprint, Fingerprint, Oracle, UpdateRecord};
use crate::inputs::{cold_pass, CorpusApp, Plan, Step};
use backdroid_core::{AppArtifacts, BackendChoice};
use backdroid_obs::{HistogramSnapshot, RegistrySnapshot};
use backdroid_service::{Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Request ids at and above this are update requests; below it, a read's
/// id is its key index.
pub const UPDATE_ID_BASE: u64 = 1 << 40;
/// The shard's queue capacity.
const QUEUE_CAPACITY: usize = 64;
/// Set-up requests kept in flight at once: below [`QUEUE_CAPACITY`].
const PIPELINE_DEPTH: usize = QUEUE_CAPACITY / 2;

/// Everything a run shares: corpus, plan, request lines and goldens.
pub struct Env {
    /// The generated corpus.
    pub corpus: Arc<Vec<CorpusApp>>,
    /// The workload's request plan.
    pub plan: Plan,
    /// The direct-path oracle.
    pub oracle: Oracle,
    /// Wire line of each read key (request id = key index).
    pub lines: Vec<String>,
    /// Golden fingerprint of each read key's reply.
    pub goldens: Vec<Fingerprint>,
    /// Closed-loop clients, and workers on the one shard.
    pub clients: usize,
    /// Store byte budget.
    pub budget: u64,
    /// Directory under which every snapshot directory is created.
    pub work: PathBuf,
}

impl Env {
    /// The service configuration every pool and traced run uses.
    pub fn service_config(&self, dir: &Path) -> ServiceConfig {
        ServiceConfig {
            budget_bytes: self.budget,
            snapshot_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        }
    }

    /// A fresh, empty snapshot directory under the work directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create snapshot directory");
        dir
    }

    /// A pool of one shard with `clients` workers over `dir`, whose
    /// loader is the product's own `AppArtifacts::with_backend` over the
    /// pre-generated programs (it only clones them).
    pub fn pool(&self, dir: &Path) -> Pool {
        let cfg = self.service_config(dir);
        let corpus = Arc::clone(&self.corpus);
        Pool(ShardPool::new(
            ShardPoolConfig {
                shards: 1,
                workers_per_shard: self.clients,
                queue_capacity: QUEUE_CAPACITY,
                trace_capacity: 0,
            },
            move |_| {
                let corpus = Arc::clone(&corpus);
                Service::new(cfg.clone(), move |id: &str| {
                    let app = app_of(&corpus, id)?;
                    Ok(AppArtifacts::with_backend(
                        app.program.clone(),
                        app.manifest.clone(),
                        BackendChoice::default(),
                    ))
                })
            },
        ))
    }
}

/// A `ShardPool` that stops its workers with `kill_shard` before it is
/// dropped. The pool's own drop (`ShardPool::shutdown`) clears its
/// running flag without holding the shard lock, so a worker between its
/// check of that flag and its wait can miss the wake-up, and the join
/// then waits for that worker forever. `kill_shard` marks the shard dead
/// under the lock, which no worker can miss, and returns once every
/// worker has left.
pub struct Pool(ShardPool);

impl std::ops::Deref for Pool {
    type Target = ShardPool;

    fn deref(&self) -> &ShardPool {
        &self.0
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for shard in 0..self.0.shard_count() {
            self.0.kill_shard(shard);
        }
    }
}

/// The corpus app a wire id names.
pub fn app_of<'c>(corpus: &'c [CorpusApp], id: &str) -> Result<&'c CorpusApp, String> {
    id.parse::<usize>()
        .ok()
        .and_then(|i| corpus.get(i))
        .ok_or_else(|| format!("unknown app id {id:?}"))
}

/// The wire lines of one update op.
pub fn update_lines(put_id: u64, app: usize, seed: u64) -> (String, String) {
    (
        format!("{{\"id\":{put_id},\"op\":\"put_version\",\"app\":\"{app}\",\"seed\":{seed}}}"),
        format!(
            "{{\"id\":{},\"op\":\"analyze_delta\",\"app\":\"{app}\"}}",
            put_id + 1
        ),
    )
}

/// The request id of a client's `k`-th update's `put_version` (the
/// `analyze_delta` takes the next id).
pub fn update_id(client: usize, k: usize) -> u64 {
    UPDATE_ID_BASE + ((client as u64) << 32) + 2 * k as u64
}

/// Whether `reply` is an `analyze_delta` analysis (not an error) for `id`.
pub fn is_delta_analysis(reply: &str, id: u64) -> bool {
    reply.starts_with(&format!("{{\"id\":{id},\"op\":\"analyze_delta\","))
}

/// How long anyone waits for one reply before the run is abandoned
/// (a reply that never comes means a product job hung).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Replies the pool has delivered and nobody has taken yet, by
/// submission sequence number.
#[derive(Default)]
struct Inbox {
    replies: Mutex<HashMap<u64, Option<String>>>,
    arrived: Condvar,
}

impl Inbox {
    /// A responder that files each reply here.
    fn responder(self: &Arc<Self>) -> Responder {
        let inbox = Arc::clone(self);
        Arc::new(move |seq, line| {
            inbox.replies.lock().expect("inbox").insert(seq, line);
            inbox.arrived.notify_all();
        })
    }

    /// Waits for the reply to `seq`, abandoning the run after
    /// [`REPLY_TIMEOUT`].
    fn take(&self, seq: u64) -> Option<String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut replies = self.replies.lock().expect("inbox");
        loop {
            if let Some(reply) = replies.remove(&seq) {
                return reply;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                crate::abort(&format!("no reply to request {seq} in {REPLY_TIMEOUT:?}"));
            }
            replies = self.arrived.wait_timeout(replies, left).expect("inbox").0;
        }
    }
}

/// One client's connection to the pool: one request outstanding.
struct Client<'p> {
    pool: &'p ShardPool,
    inbox: Arc<Inbox>,
    responder: Responder,
    seq: u64,
}

impl<'p> Client<'p> {
    fn new(pool: &'p ShardPool) -> Self {
        let inbox = Arc::new(Inbox::default());
        Client {
            pool,
            responder: inbox.responder(),
            inbox,
            seq: 0,
        }
    }

    /// Submits one line and waits for its reply.
    fn call(&mut self, line: &str) -> Option<String> {
        self.seq += 1;
        self.pool.submit_line(self.seq, line, &self.responder);
        self.inbox.take(self.seq)
    }
}

/// What one client saw in the measured phase.
#[derive(Default)]
pub struct ClientLog {
    /// Read latencies, ns.
    pub read_ns: Vec<u64>,
    /// Update latencies (put_version submit to analyze_delta reply), ns.
    pub update_ns: Vec<u64>,
    /// Ops whose reply was an error or differed from its golden.
    pub failed: u64,
    /// Steps of the client's stream completed (the traced run replays
    /// exactly these).
    pub steps: usize,
    /// Completion time of each op, ns since the measured phase began.
    pub done_ns: Vec<u64>,
    /// Latency of each completed step, in stream order, ns.
    pub step_ns: Vec<u64>,
    /// Completed updates, for chain verification.
    pub updates: Vec<UpdateRecord>,
    /// The first failure, for the error report.
    pub first_failure: Option<String>,
}

impl ClientLog {
    /// Ops completed.
    pub fn ops(&self) -> u64 {
        (self.read_ns.len() + self.update_ns.len()) as u64
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    fn read(&mut self, env: &Env, client: &mut Client<'_>, key: u32) {
        let started = Instant::now();
        let reply = client.call(&env.lines[key as usize]);
        let ns = started.elapsed().as_nanos() as u64;
        self.read_ns.push(ns);
        self.step_ns.push(ns);
        if reply.as_deref().map(fingerprint) != Some(env.goldens[key as usize]) {
            self.fail(format!("read key {key}: reply {:.200?}", reply));
        }
    }
}

/// Runs every client's stream for `seconds` through `pool`. Returns the
/// logs and the measured wall time in seconds.
pub fn run_streams(env: &Env, pool: &ShardPool, seconds: f64) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(env.clients + 1);
    let origin: OnceLock<Instant> = OnceLock::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..env.clients)
            .map(|c| {
                let (barrier, origin) = (&barrier, &origin);
                scope.spawn(move || {
                    let stream = &env.plan.streams[c];
                    let mut client = Client::new(pool);
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let origin = *origin.get().expect("origin set before the barrier");
                    let deadline = origin + Duration::from_secs_f64(seconds);
                    while Instant::now() < deadline {
                        match stream[log.steps % stream.len()] {
                            Step::Read(key) => log.read(env, &mut client, key),
                            Step::Update { app, seed } => {
                                let put_id = update_id(c, log.updates.len());
                                let (put, delta) = update_lines(put_id, app, seed);
                                let started = Instant::now();
                                let put_reply = client.call(&put).unwrap_or_default();
                                let delta_reply = client.call(&delta).unwrap_or_default();
                                let ns = started.elapsed().as_nanos() as u64;
                                log.update_ns.push(ns);
                                log.step_ns.push(ns);
                                if !is_delta_analysis(&delta_reply, put_id + 1) {
                                    log.fail(format!("update {put_id}: {delta_reply:.200}"));
                                }
                                log.updates.push(UpdateRecord {
                                    client: c,
                                    app,
                                    seed,
                                    put_id,
                                    delta_id: put_id + 1,
                                    put_reply,
                                    delta_reply: fingerprint(&delta_reply),
                                });
                            }
                        }
                        log.steps += 1;
                        log.done_ns.push(origin.elapsed().as_nanos() as u64);
                    }
                    log
                })
            })
            .collect();
        let started = *origin.get_or_init(Instant::now);
        barrier.wait();
        let logs: Vec<ClientLog> = workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect();
        (logs, started.elapsed().as_secs_f64())
    })
}

/// Set-up traffic with each line's golden fingerprint: every app's
/// analyze (disk-tier population), then warm-zipf's warm-up reads or
/// update-mix's delta-base capture (`analyze_delta` on every owned app).
/// Submitted back to back, the pool's per-app ordering still runs each
/// app's population request first.
pub fn setup_traffic(env: &Env) -> Vec<(String, Fingerprint)> {
    let reads = (0..env.corpus.len() as u32)
        .chain(env.plan.warmup.iter().copied())
        .map(|k| (env.lines[k as usize].clone(), env.goldens[k as usize]));
    let capture = env
        .plan
        .owners
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, &app)| {
            let id = UPDATE_ID_BASE - 1 - i as u64;
            (
                format!("{{\"id\":{id},\"op\":\"analyze_delta\",\"app\":\"{app}\"}}"),
                fingerprint(&env.oracle.delta_reply(id, app)),
            )
        });
    reads.chain(capture).collect()
}

/// Submits `traffic` back to back with at most [`PIPELINE_DEPTH`]
/// requests in flight, waits for every reply, and returns how many
/// differ from their goldens. Staying below the queue capacity means a
/// submission never blocks, so a hung job ends the run through
/// [`Inbox::take`]'s timeout instead of stalling a full queue.
fn pipeline(pool: &ShardPool, traffic: &[(String, Fingerprint)]) -> usize {
    let inbox = Arc::new(Inbox::default());
    let responder = inbox.responder();
    let check =
        |seq: usize| inbox.take(seq as u64).as_deref().map(fingerprint) != Some(traffic[seq].1);
    let mut mismatches = 0;
    for (seq, (line, _)) in traffic.iter().enumerate() {
        if seq >= PIPELINE_DEPTH {
            mismatches += check(seq - PIPELINE_DEPTH) as usize;
        }
        pool.submit_line(seq as u64, line, &responder);
    }
    for seq in traffic.len().saturating_sub(PIPELINE_DEPTH)..traffic.len() {
        mismatches += check(seq) as usize;
    }
    mismatches
}

/// The measured cold-sweep: passes until `seconds` of pass time have
/// run, each over a fresh pool and an empty snapshot directory, with
/// clients pulling the pass's seeded app order from a shared cursor.
pub struct ColdRun {
    /// Client logs, merged across passes (one per client).
    pub logs: Vec<ClientLog>,
    /// Summed pass wall time, s.
    pub elapsed: f64,
    /// Passes run.
    pub passes: u64,
    /// Pool construction time of each pass, s — cold-sweep's set-up.
    pub setup_s: Vec<f64>,
    /// Registry counters summed over every pass's pool.
    pub metrics: RegistrySnapshot,
    /// Passes in which some read was not a store miss.
    pub non_miss_passes: u64,
    /// Resident store bytes at the end of the last pass.
    pub last_resident: u64,
    /// Each pass's throughput while its clients were busy — clients ×
    /// ops ÷ summed op latency — so the idle tail of a client that ran
    /// out of apps before the pass barrier does not count, ops/s.
    pub pass_rates: Vec<f64>,
    /// Each pass's summed op latency, ns.
    pub pass_op_ns: Vec<u64>,
}

/// One cold-sweep pass as its clients see it.
struct Pass {
    pool: Arc<Pool>,
    order: Vec<usize>,
}

/// Runs the cold sweep. The client threads live across passes: were they
/// respawned with each pass's pool, the allocator would hand their
/// arenas to the pool's new workers at random, and the process's RSS
/// would step up by a store's worth on some runs and not others.
pub fn run_cold(env: &Env, seconds: f64) -> ColdRun {
    let apps = env.corpus.len();
    let mut run = ColdRun {
        logs: Vec::new(),
        elapsed: 0.0,
        passes: 0,
        setup_s: Vec::new(),
        metrics: RegistrySnapshot::default(),
        non_miss_passes: 0,
        last_resident: 0,
        pass_rates: Vec::new(),
        pass_op_ns: Vec::new(),
    };
    // `None` tells the clients the sweep is over.
    let pass: Mutex<Option<Pass>> = Mutex::new(None);
    let cursor = AtomicUsize::new(0);
    let pass_ns = AtomicU64::new(0);
    let (start, end) = (Barrier::new(env.clients + 1), Barrier::new(env.clients + 1));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..env.clients)
            .map(|_| {
                let (pass, cursor, pass_ns, start, end) = (&pass, &cursor, &pass_ns, &start, &end);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        start.wait();
                        let Some((pool, order)) = pass
                            .lock()
                            .expect("pass slot")
                            .as_ref()
                            .map(|p| (Arc::clone(&p.pool), p.order.clone()))
                        else {
                            break log;
                        };
                        let mut client = Client::new(&pool);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= order.len() {
                                break;
                            }
                            log.read(env, &mut client, order[i] as u32);
                            log.steps += 1;
                            pass_ns.fetch_add(
                                *log.read_ns.last().expect("just read"),
                                Ordering::Relaxed,
                            );
                        }
                        drop(client);
                        drop(pool);
                        end.wait();
                    }
                })
            })
            .collect();
        while run.elapsed < seconds {
            // Not timed: creating a directory right after the previous
            // pass deleted its snapshots can wait up to milliseconds on
            // the file system, more than the pool's own set-up takes. So
            // the chunk-store directory the service opens inside the
            // snapshot directory is created here too.
            let dir = env.fresh_dir("cold");
            std::fs::create_dir_all(dir.join("chunks")).expect("create chunk-store directory");
            let t = Instant::now();
            let pool = Arc::new(env.pool(&dir));
            run.setup_s.push(t.elapsed().as_secs_f64());
            *pass.lock().expect("pass slot") = Some(Pass {
                pool,
                order: cold_pass(env.plan.seed, run.passes, apps),
            });
            cursor.store(0, Ordering::Relaxed);
            pass_ns.store(0, Ordering::Relaxed);
            let started = Instant::now();
            start.wait();
            end.wait();
            run.elapsed += started.elapsed().as_secs_f64();
            let op_ns = pass_ns.load(Ordering::Relaxed);
            run.pass_rates
                .push((env.clients * apps) as f64 * 1e9 / op_ns as f64);
            run.pass_op_ns.push(op_ns);
            run.passes += 1;
            let Pass { pool, .. } = pass.lock().expect("pass slot").take().expect("pass set");
            let snap = pool.metrics();
            let only_misses = snap.value("store_misses_total") == apps as u64
                && snap.value("store_hits_total") == 0
                && snap.value("store_disk_hits_total") == 0
                && snap.value("store_coalesced_total") == 0;
            if !only_misses {
                run.non_miss_passes += 1;
            }
            run.last_resident = snap.value("store_resident_bytes");
            run.metrics.absorb(&snap);
            drop(pool);
            let _ = std::fs::remove_dir_all(&dir);
        }
        start.wait();
        run.logs = workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect();
    });
    run
}

/// A set-up pool plus how long its set-up took.
pub struct Ready {
    /// The pool, warmed and ready for the measured phase.
    pub pool: Pool,
    /// Its snapshot directory.
    pub dir: PathBuf,
    /// Set-up wall time, s.
    pub setup_s: f64,
    /// Set-up replies that differed from their goldens.
    pub mismatches: usize,
}

/// Product set-up for warm-zipf and update-mix: pool construction, then
/// disk-tier population (every app analyzed once: cold build plus
/// snapshot write), then warm-zipf's warm-up reads or update-mix's
/// delta-base capture (see [`setup_traffic`]). Replies are compared
/// with their goldens as they arrive.
pub fn set_up(env: &Env, name: &str) -> Ready {
    let dir = env.fresh_dir(name);
    let traffic = setup_traffic(env);
    let started = Instant::now();
    let pool = env.pool(&dir);
    let mismatches = pipeline(&pool, &traffic);
    let setup_s = started.elapsed().as_secs_f64();
    Ready {
        pool,
        dir,
        setup_s,
        mismatches,
    }
}

/// Registry change over the measured phase.
pub struct Delta {
    /// Snapshot when the measured phase began.
    pub start: RegistrySnapshot,
    /// Snapshot when it ended.
    pub end: RegistrySnapshot,
}

impl Delta {
    /// A counter's increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.end.value(name).saturating_sub(self.start.value(name))
    }

    /// A gauge's value at the end.
    pub fn gauge(&self, name: &str) -> u64 {
        self.end.value(name)
    }

    /// A histogram's samples recorded during the phase.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let mut h = self.end.histogram(name).cloned().unwrap_or_default();
        if let Some(s) = self.start.histogram(name) {
            for (dst, src) in h.buckets.iter_mut().zip(s.buckets.iter()) {
                *dst -= src;
            }
            h.count -= s.count;
            h.sum -= s.sum;
        }
        h
    }
}
