//! The traced run and its layer ledger.
//!
//! The traced run replays the first half of the ops the untraced run
//! completed — same seed, same streams, same client count — but each
//! client drives its requests through the layers' public functions
//! itself, with one span per call and one trace per request, recorded
//! into an in-memory `backdroid_obs` tracer:
//!
//! * `proto.decode` — `parse_request`;
//! * `store.fetch` — `AppStore::get` through `Service::store()`, tier as
//!   attribute. On a miss the benchmark's own loader runs inside it:
//!   `input.clone` → `dex.encode` (`DexImage::encode`) → `dex.render`
//!   (`dump_image`) → `search.parse` (`BytecodeText::index`) →
//!   `search.postings` (`search_index()`) → `AppArtifacts::from_parts`;
//!   what remains of the miss is store insert plus snapshot encode and
//!   write;
//! * `core.materialize` — forces the program, text and postings of a
//!   restored image, so lazy restore work is charged here and never to
//!   the first analysis that touches it;
//! * `core.locate` (`locate_sinks`), then per sink site `core.slice`
//!   (`slice_sink`, backtracking searches included), `core.forward`
//!   (`ForwardAnalysis::run`) and `core.verdict`
//!   (`DetectorRegistry::judge`), with the §IV-F rule skipping the
//!   remaining sites of a method already proven unreachable;
//! * `proto.render` — the reply renderer;
//! * `update.put_version` / `update.delta` — `Service::put_version` and
//!   `Service::analyze_delta`, each timed whole.
//!
//! Every composed reply must equal its golden byte for byte, which is
//! what proves the traced path does the product's work.

use crate::drive::{setup_traffic, update_id, update_lines, ClientLog, Env};
use crate::golden::fingerprint;
use crate::inputs::{cold_pass, Step};
use backdroid_appgen::workload::WorkloadRequest;
use backdroid_core::{
    locate_sinks, AppReport, BackendChoice, DetectorRegistry, ForwardAnalysis, SinkCacheStats,
    SinkReport, SlicerConfig,
};
use backdroid_core::{slice_sink, AppArtifacts};
use backdroid_dex::{dump_image, DexImage};
use backdroid_obs::{SpanRecord, TraceBuilder, Tracer};
use backdroid_search::BytecodeText;
use backdroid_service::proto::{parse_request, render_analysis, render_batch, render_put_version};
use backdroid_service::service::AppAnalysis;
use backdroid_service::shard::execute_request;
use backdroid_service::{Fetch, Op, Service};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One client's span recorder: the request's `TraceBuilder` plus the
/// stack of open spans (the innermost is the next span's parent).
struct Recorder {
    tb: TraceBuilder,
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Opens a span under the innermost open one; `None` (a no-op) when the
/// thread is not recording — e.g. the traced loader during set-up.
fn open(name: &str) -> Option<u32> {
    RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.tb.open(rec.stack.last().copied(), name);
            rec.stack.push(id);
            id
        })
    })
}

fn close(span: Option<u32>) {
    if let Some(id) = span {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.stack.pop();
                rec.tb.close(id);
            }
        });
    }
}

fn attr(span: Option<u32>, key: &str, value: &str) {
    if let Some(id) = span {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.tb.attr(id, key, value);
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let span = open(name);
    let out = f();
    close(span);
    out
}

/// The benchmark's own cold-build loader: the product's build steps,
/// each in its own span, with the posting build forced eagerly so it is
/// charged to `search.postings`.
pub fn traced_loader(
    corpus: Arc<Vec<crate::inputs::CorpusApp>>,
) -> impl Fn(&str) -> Result<AppArtifacts, String> + Send + Sync + 'static {
    move |id: &str| {
        let app = crate::drive::app_of(&corpus, id)?;
        let (program, manifest) = timed("input.clone", || {
            (app.program.clone(), app.manifest.clone())
        });
        let image = timed("dex.encode", || DexImage::encode(&program));
        let span = open("dex.render");
        let dump = dump_image(&image);
        drop(image);
        attr(span, "bytes", &dump.len().to_string());
        close(span);
        let text = timed("search.parse", || {
            let text = BytecodeText::index(&dump);
            drop(dump);
            text
        });
        let span = open("search.postings");
        let tokens = text.search_index().token_count();
        attr(span, "tokens", &tokens.to_string());
        close(span);
        Ok(AppArtifacts::from_parts(
            program,
            manifest,
            text,
            BackendChoice::default(),
        ))
    }
}

/// Work counts from the composed reports of the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadCounts {
    /// Per-app analyses composed.
    pub analyses: u64,
    /// Sink sites located.
    pub sites: u64,
    /// Sites skipped by the §IV-F rule.
    pub skipped: u64,
    /// SSG units over all reports.
    pub ssg_units: u64,
}

/// One app's analysis, composed from the layer calls.
fn analyze_traced(
    service: &Service,
    app_id: &str,
    registry: &DetectorRegistry,
    counts: &mut ReadCounts,
) -> AppAnalysis {
    let span = open("store.fetch");
    let (artifacts, fetch) = service.store().get(app_id).expect("corpus app loads");
    attr(
        span,
        "tier",
        match fetch {
            Fetch::Hit => "hit",
            Fetch::Miss => "miss",
            Fetch::Disk => "disk",
            Fetch::Coalesced => "coalesced",
        },
    );
    close(span);
    if artifacts.materialized_sections() < 3 {
        timed("core.materialize", || {
            artifacts.program();
            artifacts.engine().text().descriptors();
            artifacts.engine().text().search_index();
        });
    }
    let sinks = registry.sink_registry();
    let mut ctx = artifacts.task();
    let sites = timed("core.locate", || locate_sinks(&mut ctx, &sinks, false));
    let mut unreachable = HashSet::new();
    let mut reports = Vec::with_capacity(sites.len());
    let mut skipped = 0u64;
    for site in &sites {
        if unreachable.contains(&site.method) {
            skipped += 1;
            continue;
        }
        let spec = &sinks.sinks()[site.spec_idx];
        let result = timed("core.slice", || {
            slice_sink(
                &mut ctx,
                SlicerConfig::default(),
                &site.method,
                site.stmt_idx,
                spec,
            )
        });
        let values = timed("core.forward", || {
            ForwardAnalysis::new(ctx.program).run(&result.ssg, spec)
        });
        let verdict = timed("core.verdict", || registry.judge(&spec.id, &values))
            .expect("located sinks belong to the registry");
        if !result.reachable {
            unreachable.insert(site.method.clone());
        }
        reports.push(SinkReport {
            sink_id: spec.id.to_string(),
            site_method: site.method.clone(),
            stmt_idx: site.stmt_idx,
            reachable: result.reachable,
            entries: result.ssg.entries().to_vec(),
            param_values: values,
            verdict,
            ssg_units: result.ssg.units().len(),
        });
    }
    counts.analyses += 1;
    counts.sites += sites.len() as u64;
    counts.skipped += skipped;
    counts.ssg_units += reports.iter().map(|r| r.ssg_units as u64).sum::<u64>();
    AppAnalysis {
        app_id: app_id.to_string(),
        app_name: artifacts.manifest().package().to_string(),
        report: AppReport {
            sink_reports: reports,
            analysis_time: std::time::Duration::ZERO,
            cache_stats: Default::default(),
            loop_stats: ctx.loops,
            sink_cache: SinkCacheStats {
                located: sites.len() as u64,
                skipped,
            },
            phases: Default::default(),
        },
        fetch,
    }
}

/// Executes one request line through the layer calls, returning the
/// reply the product would send.
fn execute_traced(service: &Service, line: &str, counts: &mut ReadCounts) -> String {
    let req = timed("proto.decode", || parse_request(line)).expect("benchmark lines parse");
    let paper = DetectorRegistry::paper();
    match &req.op {
        Op::Analyze { app } => {
            let a = analyze_traced(service, app, &paper, counts);
            timed("proto.render", || render_analysis(req.id, "analyze", &a))
        }
        Op::Query { app, detectors } => {
            let registry = paper
                .select(detectors)
                .expect("workload queries name paper detectors");
            let a = analyze_traced(service, app, &registry, counts);
            timed("proto.render", || render_analysis(req.id, "query", &a))
        }
        Op::Batch { apps } => {
            let items: Vec<_> = apps
                .iter()
                .map(|app| Ok(analyze_traced(service, app, &paper, counts)))
                .collect();
            timed("proto.render", || render_batch(req.id, &items))
        }
        Op::PutVersion { app, seed } => {
            let outcome = timed("update.put_version", || service.put_version(app, *seed))
                .expect("update succeeds");
            timed("proto.render", || render_put_version(req.id, &outcome))
        }
        Op::AnalyzeDelta { app } => {
            let a = timed("update.delta", || service.analyze_delta(app)).expect("delta succeeds");
            timed("proto.render", || {
                render_analysis(req.id, "analyze_delta", &a)
            })
        }
        other => panic!("the benchmark never sends {other:?}"),
    }
}

/// Per-layer span accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Spans recorded.
    pub count: u64,
}

/// The folded traces of one traced run.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Self time per layer (store fetches keyed by tier).
    pub layers: BTreeMap<String, Layer>,
    /// Summed root (`request`) duration, ns.
    pub wall_ns: u64,
    /// Requests traced.
    pub requests: u64,
    /// Summed dump bytes of every cold build.
    pub dump_bytes: u64,
    /// Summed posting tokens of every cold build.
    pub tokens: u64,
    /// Summed reply bytes.
    pub reply_bytes: u64,
    /// Counts from the composed reports.
    pub reads: ReadCounts,
    /// Composed replies that differed from their golden.
    pub mismatches: u64,
    /// Traced wall time of the replayed ops, summed per op, ns.
    pub op_ns: u64,
}

impl Ledger {
    fn fold(&mut self, spans: &[SpanRecord]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(children);
            let attr = |k: &str| {
                s.attrs
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.as_str())
            };
            let key = match (s.name.as_str(), attr("tier")) {
                ("request", _) => {
                    self.wall_ns += dur;
                    self.requests += 1;
                    "request".to_string()
                }
                ("store.fetch", Some(tier)) => format!("store.fetch.{tier}"),
                (name, _) => name.to_string(),
            };
            let layer = self.layers.entry(key).or_default();
            layer.self_ns += self_ns;
            layer.count += 1;
            if let Some(b) = attr("bytes") {
                self.dump_bytes += b.parse::<u64>().unwrap_or(0);
            }
            if let Some(t) = attr("tokens") {
                self.tokens += t.parse::<u64>().unwrap_or(0);
            }
        }
    }

    fn absorb(&mut self, other: Ledger) {
        for (k, l) in other.layers {
            let e = self.layers.entry(k).or_default();
            e.self_ns += l.self_ns;
            e.count += l.count;
        }
        self.wall_ns += other.wall_ns;
        self.requests += other.requests;
        self.dump_bytes += other.dump_bytes;
        self.tokens += other.tokens;
        self.reply_bytes += other.reply_bytes;
        self.reads.analyses += other.reads.analyses;
        self.reads.sites += other.reads.sites;
        self.reads.skipped += other.reads.skipped;
        self.reads.ssg_units += other.reads.ssg_units;
        self.mismatches += other.mismatches;
        self.op_ns += other.op_ns;
    }

    /// A layer's accounting (zero if it never ran).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// A layer's mean self time per span, µs (0 if it never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.per_us(name, self.layer(name).count)
    }

    /// A layer's summed self time per `per` units of work, µs.
    pub fn per_us(&self, name: &str, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.layer(name).self_ns as f64 / per as f64 / 1e3
        }
    }

    /// Root self time — request time no layer span covers — as a share
    /// of traced request wall time.
    pub fn unattributed_share(&self) -> f64 {
        share(self.layer("request").self_ns, self.wall_ns)
    }

    /// The ledger table: layers by descending self-time share.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&String, &Layer)> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<24} {:>8} {:>10} {:>12}\n",
            "layer", "share", "spans", "self_us/span"
        );
        for (name, l) in rows {
            let label = if name == "request" {
                "(unattributed)"
            } else {
                name
            };
            out.push_str(&format!(
                "{:<24} {:>7.2}% {:>10} {:>12.1}\n",
                label,
                100.0 * share(l.self_ns, self.wall_ns),
                l.count,
                l.self_ns as f64 / l.count.max(1) as f64 / 1e3
            ));
        }
        out
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One client of the traced run.
struct TracedClient<'e> {
    env: &'e Env,
    service: &'e Service,
    ledger: Ledger,
}

impl TracedClient<'_> {
    /// Traces one request; returns its reply and root duration, ns.
    fn request(&mut self, trace_id: u64, line: &str, span_budget: usize) -> (String, u64) {
        let tracer = Tracer::with_capacity(span_budget);
        let mut tb = tracer.begin(trace_id);
        let root = tb.open(None, "request");
        RECORDER.with(|r| {
            *r.borrow_mut() = Some(Recorder {
                tb,
                stack: vec![root],
            })
        });
        let reply = execute_traced(self.service, line, &mut self.ledger.reads);
        let rec = RECORDER
            .with(|r| r.borrow_mut().take())
            .expect("recorder installed");
        let mut tb = rec.tb;
        tb.close(root);
        tb.finish(&tracer);
        assert_eq!(
            tracer.dropped(),
            0,
            "span budget too small for trace {trace_id}"
        );
        let spans = tracer.spans();
        let root_ns = spans[0].end_ns - spans[0].start_ns;
        self.ledger.fold(&spans);
        self.ledger.reply_bytes += reply.len() as u64;
        (reply, root_ns)
    }

    fn read(&mut self, key: u32) {
        let req: &WorkloadRequest = &self.env.plan.keys[key as usize];
        let budget = 16
            + crate::golden::read_apps(req)
                .into_iter()
                .map(|app| 16 + 3 * self.env.oracle.located(app, req) as usize)
                .sum::<usize>();
        let (reply, ns) = self.request(key as u64, &self.env.lines[key as usize], budget);
        self.ledger.op_ns += ns;
        if fingerprint(&reply) != self.env.goldens[key as usize] {
            self.ledger.mismatches += 1;
        }
    }
}

/// Brings a traced service to the state the untraced run measured from
/// by running the set-up traffic through the product's own request
/// executor. Returns how many replies differ from their goldens.
fn set_up(env: &Env, service: &Service) -> u64 {
    let mut mismatches = 0;
    for (line, want) in setup_traffic(env) {
        let req = parse_request(&line).expect("set-up lines parse");
        let reply = execute_request(service, &req);
        mismatches += (reply.as_deref().map(fingerprint) != Some(want)) as u64;
    }
    mismatches
}

/// Steps of a client's stream the traced run replays: the first half of
/// what the untraced run completed, which keeps a traced run's cost to
/// half a measured phase.
pub fn replay_steps(log: &ClientLog) -> usize {
    log.steps.div_ceil(2)
}

/// Cold-sweep passes the traced run replays (the first half).
pub fn replay_passes(passes: u64) -> u64 {
    passes.div_ceil(2)
}

/// Replays the first half of the untraced run's ops (see
/// [`replay_steps`], [`replay_passes`]) through the traced path. Update
/// replies are compared with the untraced run's, which the chain check
/// verified against the oracle.
pub fn run(env: &Env, logs: &[ClientLog], passes: u64) -> Ledger {
    let mut total = Ledger::default();
    if env.plan.streams.is_empty() {
        let apps = env.corpus.len();
        for pass in 0..replay_passes(passes) {
            let dir = env.fresh_dir("traced-cold");
            let service = Service::new(
                env.service_config(&dir),
                traced_loader(Arc::clone(&env.corpus)),
            );
            let order = cold_pass(env.plan.seed, pass, apps);
            let cursor = AtomicUsize::new(0);
            let ledgers: Vec<Ledger> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..env.clients)
                    .map(|_| {
                        let (service, order, cursor) = (&service, &order, &cursor);
                        scope.spawn(move || {
                            let mut client = TracedClient {
                                env,
                                service,
                                ledger: Ledger::default(),
                            };
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= order.len() {
                                    break client.ledger;
                                }
                                client.read(order[i] as u32);
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("traced client panicked"))
                    .collect()
            });
            ledgers.into_iter().for_each(|l| total.absorb(l));
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
        }
        return total;
    }
    let dir = env.fresh_dir("traced");
    let service = Service::new(
        env.service_config(&dir),
        traced_loader(Arc::clone(&env.corpus)),
    );
    total.mismatches += set_up(env, &service);
    let ledgers: Vec<Ledger> = std::thread::scope(|scope| {
        let workers: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, log)| {
                let service = &service;
                scope.spawn(move || {
                    let stream = &env.plan.streams[c];
                    let mut client = TracedClient {
                        env,
                        service,
                        ledger: Ledger::default(),
                    };
                    let mut updates = 0usize;
                    for step in 0..replay_steps(log) {
                        match stream[step % stream.len()] {
                            Step::Read(key) => client.read(key),
                            Step::Update { app, seed } => {
                                let put_id = update_id(c, updates);
                                let (put, delta) = update_lines(put_id, app, seed);
                                let (put_reply, put_ns) = client.request(put_id, &put, 8);
                                let (delta_reply, delta_ns) = client.request(put_id + 1, &delta, 8);
                                client.ledger.op_ns += put_ns + delta_ns;
                                let seen = &log.updates[updates];
                                if put_reply != seen.put_reply
                                    || fingerprint(&delta_reply) != seen.delta_reply
                                {
                                    client.ledger.mismatches += 1;
                                }
                                updates += 1;
                            }
                        }
                    }
                    client.ledger
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced client panicked"))
            .collect()
    });
    ledgers.into_iter().for_each(|l| total.absorb(l));
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    total
}
