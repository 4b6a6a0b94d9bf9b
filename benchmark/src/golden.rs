//! The correctness oracle. Golden replies come from the plain direct
//! path — `Backdroid::analyze` on the app's program, rendered with the
//! wire renderers of `backdroid_service::proto` — which uses no store,
//! pool, snapshot, token cache or delta. Everything here runs outside
//! the timed windows.

use crate::inputs::CorpusApp;
use backdroid_appgen::mutate_version;
use backdroid_appgen::workload::{WorkloadOp, WorkloadRequest};
use backdroid_core::{Backdroid, BackdroidOptions, ChunkManifest, DetectorRegistry};
use backdroid_ir::wire::fnv1a64_wide;
use backdroid_service::proto::{render_analysis, render_batch, render_put_version};
use backdroid_service::service::{AppAnalysis, PutVersionOutcome};
use backdroid_service::Fetch;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A reply's length and wide FNV-1a hash: what clients compare inline,
/// so no reply has to be kept for later.
pub type Fingerprint = (usize, u64);

/// The fingerprint of a reply line.
pub fn fingerprint(line: &str) -> Fingerprint {
    (line.len(), fnv1a64_wide(line.as_bytes()))
}

/// Runs `f` over `items` on `threads` threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break local;
                        }
                        local.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("par_map worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The detector ids a read runs, as the service resolves them: the full
/// paper registry for analyze and batch, the selected subset for query.
fn detector_ids(op: &WorkloadOp) -> Vec<String> {
    let paper = DetectorRegistry::paper();
    let selected = match op {
        WorkloadOp::Query(ids) => paper
            .select(ids)
            .expect("workload queries name paper detectors"),
        _ => paper,
    };
    selected.ids().iter().map(|s| s.to_string()).collect()
}

/// The apps a read touches, primary first.
pub fn read_apps(req: &WorkloadRequest) -> Vec<usize> {
    let mut apps = vec![req.app];
    if let WorkloadOp::Batch(extra) = &req.op {
        apps.extend(extra);
    }
    apps
}

/// The direct-path analysis of `program` with the given detectors.
fn direct(app: &CorpusApp, ids: &[String], program: &backdroid_ir::Program) -> AppAnalysis {
    let tool = Backdroid::with_options(BackdroidOptions {
        detectors: DetectorRegistry::paper()
            .select(ids)
            .expect("ids come from the paper registry"),
        ..BackdroidOptions::default()
    });
    AppAnalysis {
        app_id: app.id.clone(),
        app_name: app.manifest.package().to_string(),
        report: tool.analyze(program, &app.manifest),
        fetch: Fetch::Miss,
    }
}

/// Direct-path analyses of every (app, detector set) a plan's reads need.
pub struct Oracle {
    analyses: HashMap<(usize, Vec<String>), AppAnalysis>,
}

impl Oracle {
    /// Analyzes everything `keys` needs, on `threads` threads.
    pub fn compute(corpus: &[CorpusApp], keys: &[WorkloadRequest], threads: usize) -> Oracle {
        let full = detector_ids(&WorkloadOp::Analyze);
        let mut needs: Vec<(usize, Vec<String>)> = Vec::new();
        for req in keys {
            let ids = detector_ids(&req.op);
            for app in read_apps(req) {
                let need = (
                    app,
                    if app == req.app {
                        ids.clone()
                    } else {
                        full.clone()
                    },
                );
                if !needs.contains(&need) {
                    needs.push(need);
                }
            }
        }
        let done = par_map(&needs, threads, |(app, ids)| {
            let a = &corpus[*app];
            direct(a, ids, &a.program)
        });
        Oracle {
            analyses: needs.into_iter().zip(done).collect(),
        }
    }

    fn analysis(&self, app: usize, ids: &[String]) -> &AppAnalysis {
        self.analyses
            .get(&(app, ids.to_vec()))
            .expect("oracle computed every analysis its keys need")
    }

    /// The golden reply line of read `req` sent with request id `id`.
    pub fn reply(&self, id: u64, req: &WorkloadRequest) -> String {
        match &req.op {
            WorkloadOp::Analyze => render_analysis(
                id,
                "analyze",
                self.analysis(req.app, &detector_ids(&req.op)),
            ),
            WorkloadOp::Query(_) => {
                render_analysis(id, "query", self.analysis(req.app, &detector_ids(&req.op)))
            }
            WorkloadOp::Batch(_) => {
                let full = detector_ids(&WorkloadOp::Analyze);
                let items: Vec<_> = read_apps(req)
                    .into_iter()
                    .map(|app| {
                        let a = self.analysis(app, &full);
                        Ok(AppAnalysis {
                            app_id: a.app_id.clone(),
                            app_name: a.app_name.clone(),
                            report: a.report.clone(),
                            fetch: a.fetch,
                        })
                    })
                    .collect();
                render_batch(id, &items)
            }
        }
    }

    /// The golden `analyze_delta` reply for an app still at version 1
    /// (the delta-base capture of update-mix set-up).
    pub fn delta_reply(&self, id: u64, app: usize) -> String {
        render_analysis(
            id,
            "analyze_delta",
            self.analysis(app, &detector_ids(&WorkloadOp::Analyze)),
        )
    }

    /// Sink sites the direct path located for `app` under the detectors
    /// `req` runs — sizes the traced run's span buffers.
    pub fn located(&self, app: usize, req: &WorkloadRequest) -> u64 {
        let ids = if app == req.app {
            detector_ids(&req.op)
        } else {
            detector_ids(&WorkloadOp::Analyze)
        };
        self.analysis(app, &ids).report.sink_cache.located
    }

    /// Fingerprints of every key's golden reply (request id = key index).
    pub fn fingerprints(&self, keys: &[WorkloadRequest], threads: usize) -> Vec<Fingerprint> {
        let indexed: Vec<(u64, &WorkloadRequest)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (i as u64, k))
            .collect();
        par_map(&indexed, threads, |(id, req)| {
            fingerprint(&self.reply(*id, req))
        })
    }
}

/// One completed update op as a client saw it.
#[derive(Clone, Debug)]
pub struct UpdateRecord {
    /// The client that sent it.
    pub client: usize,
    /// The updated app.
    pub app: usize,
    /// The `put_version` seed.
    pub seed: u64,
    /// Request id of the `put_version`.
    pub put_id: u64,
    /// Request id of the `analyze_delta`.
    pub delta_id: u64,
    /// The `put_version` reply.
    pub put_reply: String,
    /// Fingerprint of the `analyze_delta` reply.
    pub delta_reply: Fingerprint,
}

/// What [`check_chains`] verified.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainCheck {
    /// `put_version` replies compared (all of them).
    pub puts_checked: usize,
    /// `analyze_delta` replies compared (a seeded subset).
    pub deltas_checked: usize,
    /// Replies that differed from their golden.
    pub mismatches: usize,
    /// Apps updated by more than one client (must be 0).
    pub shared_apps: usize,
}

/// Replays every updated app's version chain from its seeds on the
/// direct path and compares the replies: every `put_version` reply, and
/// the `analyze_delta` replies of at most `max_deltas` updates picked by
/// `sample_seed` (each check costs a full direct analysis).
pub fn check_chains(
    corpus: &[CorpusApp],
    records: &[UpdateRecord],
    sample_seed: u64,
    max_deltas: usize,
    threads: usize,
) -> ChainCheck {
    let mut picked = vec![false; records.len()];
    let mut order: Vec<usize> = (0..records.len()).collect();
    crate::inputs::Rng::new(sample_seed, 0x6000).shuffle(&mut order);
    for &i in order.iter().take(max_deltas) {
        picked[i] = true;
    }
    let mut chains: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut owner: HashMap<usize, usize> = HashMap::new();
    let mut shared_apps = 0;
    for (i, r) in records.iter().enumerate() {
        chains.entry(r.app).or_default().push(i);
        if *owner.entry(r.app).or_insert(r.client) != r.client {
            shared_apps += 1;
        }
    }
    let chains: Vec<(usize, Vec<usize>)> = chains.into_iter().collect();
    let per_app = par_map(&chains, threads, |(app, idxs)| {
        let a = &corpus[*app];
        let mut program = a.program.clone();
        let mut manifest = ChunkManifest::of_program(&program);
        let mut check = ChainCheck::default();
        for (k, &i) in idxs.iter().enumerate() {
            let r = &records[i];
            let (next, _) = mutate_version(&program, r.seed);
            let next_manifest = ChunkManifest::of_program(&next);
            let delta = manifest.diff(&next_manifest);
            let put = render_put_version(
                r.put_id,
                &PutVersionOutcome {
                    app_id: a.id.clone(),
                    version: k as u64 + 2,
                    classes_changed: delta.changed.len(),
                    classes_added: delta.added.len(),
                    classes_removed: delta.removed.len(),
                },
            );
            check.puts_checked += 1;
            if put != r.put_reply {
                eprintln!(
                    "mismatch: put_version {} app {}: got {} want {put}",
                    r.put_id, a.id, r.put_reply
                );
                check.mismatches += 1;
            }
            if picked[i] {
                let full = detector_ids(&WorkloadOp::Analyze);
                let want = render_analysis(r.delta_id, "analyze_delta", &direct(a, &full, &next));
                check.deltas_checked += 1;
                if fingerprint(&want) != r.delta_reply {
                    eprintln!(
                        "mismatch: analyze_delta {} app {} at version {}",
                        r.delta_id,
                        a.id,
                        k + 2
                    );
                    check.mismatches += 1;
                }
            }
            program = next;
            manifest = next_manifest;
        }
        check
    });
    let mut total = ChainCheck {
        shared_apps,
        ..ChainCheck::default()
    };
    for c in per_app {
        total.puts_checked += c.puts_checked;
        total.deltas_checked += c.deltas_checked;
        total.mismatches += c.mismatches;
    }
    total
}
