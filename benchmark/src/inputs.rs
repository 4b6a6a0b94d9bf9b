//! Benchmark inputs: the corpus and, per workload, the request plan.
//!
//! The corpus is the §VI-A benchset (`modern_apps` population mix) at a
//! fixed size, generated once in set-up. Everything the workload seed
//! controls — pass orders, request streams (and with them which apps are
//! hot), batch composition, which apps are updated and by whom, and every
//! update seed — is produced here by [`plan`], a pure function of
//! `(workload, seed, clients, shape)`. Reads are
//! `backdroid_appgen::workload::generate` traces (see [`TRACE_READS`]).
//! The service under test only ever sees the generated inputs.

use crate::golden::par_map;
use backdroid_appgen::benchset::{bench_app, BenchsetConfig, Profile};
use backdroid_appgen::workload::{generate, WorkloadConfig, WorkloadOp, WorkloadRequest};
use backdroid_ir::Program;
use backdroid_manifest::Manifest;
use std::collections::HashMap;

/// Apps in the corpus.
pub const APPS: usize = 48;
/// Filler-code scale of the corpus (80‰ of harness scale).
pub const CODE_SCALE: f64 = 0.08;
/// Steps in each client's pre-generated stream. A client that exhausts
/// its stream starts it over.
pub const STREAM_STEPS: usize = 30_000;
/// Reads per `generate` trace. A client's reads are a run of traces,
/// each seeded anew, so one run samples many hot sets and its figures do
/// not hinge on which app one draw made hottest.
pub const TRACE_READS: usize = 250;
/// Warm-up reads per client replayed after the disk tier is populated
/// (warm-zipf): the head of each client's reads.
pub const WARMUP_PER_CLIENT: usize = 400;
/// Weight strata the updated apps are drawn from.
pub const STRATA: usize = 3;
/// Apps each update-mix client owns from each stratum.
pub const OWNED_PER_STRATUM: usize = 2;
/// Apps each update-mix client owns and updates.
pub const OWNED_PER_CLIENT: usize = STRATA * OWNED_PER_STRATUM;
/// One update-mix step in this many is an update.
pub const UPDATE_EVERY: u64 = 10;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Every app once per pass, each pass from an empty store and an
    /// empty snapshot directory: vetting never-seen uploads.
    ColdSweep,
    /// Zipf(1.1) analyze/query/batch mix over a populated disk tier and
    /// a store budget below the corpus: interactive re-queries.
    WarmZipf,
    /// Owned apps updated (`put_version` + `analyze_delta`) while others
    /// are read: developers shipping updates while analysts query.
    UpdateMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::ColdSweep, Workload::WarmZipf, Workload::UpdateMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold-sweep",
            Workload::WarmZipf => "warm-zipf",
            Workload::UpdateMix => "update-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated app.
pub struct CorpusApp {
    /// The wire app id (its benchset index).
    pub id: String,
    /// The app's bytecode.
    pub program: Program,
    /// The app's manifest.
    pub manifest: Manifest,
    /// The §VI-C population it belongs to.
    pub profile: Profile,
}

/// Generates the corpus on `threads` threads.
pub fn corpus(threads: usize) -> Vec<CorpusApp> {
    let cfg = BenchsetConfig::sized(APPS, CODE_SCALE);
    let indices: Vec<usize> = (0..APPS).collect();
    par_map(&indices, threads, |&i| {
        let ba = bench_app(i, cfg);
        CorpusApp {
            id: i.to_string(),
            program: ba.app.program,
            manifest: ba.app.manifest,
            profile: ba.profile,
        }
    })
}

/// What the planner needs to know about the corpus: a build-cost proxy
/// per app (its method count) and which apps carry the timeout
/// profiles' 11× filler.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Method count per app.
    pub weight: Vec<usize>,
    /// Whether the app is a timeout-profile app.
    pub large: Vec<bool>,
}

impl Shape {
    /// The shape of a generated corpus.
    pub fn of(corpus: &[CorpusApp]) -> Shape {
        Shape {
            weight: corpus.iter().map(|a| a.program.method_count()).collect(),
            large: corpus
                .iter()
                .map(|a| matches!(a.profile, Profile::TimeoutVictim | Profile::TimeoutNoVuln))
                .collect(),
        }
    }
}

/// One step of a client's closed loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// A read: index into [`Plan::keys`]; the request id is the index.
    Read(u32),
    /// An update: `put_version(app, seed)`, then `analyze_delta(app)`.
    Update {
        /// The updated app's index.
        app: usize,
        /// The update-generator seed.
        seed: u64,
    },
}

/// Everything one workload run submits.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Distinct read requests. A read's request id is its index here, so
    /// each key's golden reply is fixed.
    pub keys: Vec<WorkloadRequest>,
    /// Per-client step streams (warm-zipf, update-mix).
    pub streams: Vec<Vec<Step>>,
    /// Warm-up reads (warm-zipf), as key indices.
    pub warmup: Vec<u32>,
    /// The apps each client updates (update-mix); disjoint.
    pub owners: Vec<Vec<usize>>,
}

/// SplitMix64: a tiny, seedable, well-mixed generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the named sub-stream.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// The app order of one cold-sweep pass: a seeded permutation of the
/// whole corpus, different on every pass.
pub fn cold_pass(seed: u64, pass: u64, apps: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..apps).collect();
    Rng::new(seed, 0x1000 + pass).shuffle(&mut order);
    order
}

/// Client `client`'s first `requests` reads over `pool` (trace app `i`
/// is `pool[i]`): `backdroid_appgen::workload::generate` traces of
/// [`TRACE_READS`] reads with its default Zipf(1.1) analyze / query /
/// batch mix, each seeded from the workload seed, the client and the
/// trace's position.
fn reads(seed: u64, client: usize, pool: &[usize], requests: usize) -> Vec<WorkloadRequest> {
    let mut rng = Rng::new(seed, 0x4000 + client as u64);
    let traces = (0..requests.div_ceil(TRACE_READS)).flat_map(|_| {
        generate(WorkloadConfig {
            apps: pool.len(),
            requests: TRACE_READS,
            seed: rng.next_u64(),
            ..WorkloadConfig::default()
        })
    });
    traces
        .take(requests)
        .map(|r| WorkloadRequest {
            app: pool[r.app],
            op: match r.op {
                WorkloadOp::Batch(extra) => {
                    WorkloadOp::Batch(extra.into_iter().map(|i| pool[i]).collect())
                }
                op => op,
            },
            deadline_ms: r.deadline_ms,
        })
        .collect()
}

/// Interns read requests into [`Plan::keys`].
#[derive(Default)]
struct Keys {
    keys: Vec<WorkloadRequest>,
    index: HashMap<String, u32>,
}

impl Keys {
    fn intern(&mut self, req: WorkloadRequest) -> u32 {
        let canon = format!("{}:{:?}", req.app, req.op);
        if let Some(&k) = self.index.get(&canon) {
            return k;
        }
        let k = self.keys.len() as u32;
        self.keys.push(req);
        self.index.insert(canon, k);
        k
    }

    fn analyze(&mut self, app: usize) -> u32 {
        self.intern(WorkloadRequest {
            app,
            op: WorkloadOp::Analyze,
            deadline_ms: None,
        })
    }
}

/// Deals the updated apps by stratified seeded sampling. The non-large
/// apps, sorted by weight, are cut into [`STRATA`] strata, and from each
/// stratum the seed draws [`OWNED_PER_STRATUM`] distinct apps per client.
/// Which apps are updated, and by whom, changes with the seed, but every
/// client owns small, middling and large apps alike, so update cost does
/// not swing with the draw.
pub fn deal_owners(seed: u64, clients: usize, shape: &Shape) -> Vec<Vec<usize>> {
    let mut pool: Vec<usize> = (0..shape.weight.len())
        .filter(|&i| !shape.large[i])
        .collect();
    pool.sort_by_key(|&i| (shape.weight[i], i));
    let mut rng = Rng::new(seed, 0x2000);
    let mut owners = vec![Vec::new(); clients];
    let per = pool.len() / STRATA;
    assert!(
        per >= clients * OWNED_PER_STRATUM,
        "corpus too small for {clients} update-mix clients"
    );
    for stratum in pool.chunks_exact_mut(per).take(STRATA) {
        rng.shuffle(stratum);
        for (k, &app) in stratum[..clients * OWNED_PER_STRATUM].iter().enumerate() {
            owners[k % clients].push(app);
        }
    }
    owners
}

/// The request plan of `workload` for `seed` and `clients` closed-loop
/// clients — a pure function of its arguments.
pub fn plan(workload: Workload, seed: u64, clients: usize, shape: &Shape) -> Plan {
    let apps = shape.weight.len();
    let mut keys = Keys::default();
    // Every app's plain analyze is a key: set-up populates through them.
    for app in 0..apps {
        keys.analyze(app);
    }
    let mut streams = Vec::new();
    let mut warmup = Vec::new();
    let mut owners = Vec::new();
    match workload {
        Workload::ColdSweep => {}
        Workload::WarmZipf => {
            let all: Vec<usize> = (0..apps).collect();
            for c in 0..clients {
                let trace = reads(seed, c, &all, WARMUP_PER_CLIENT + STREAM_STEPS);
                let mut trace = trace.into_iter().map(|r| keys.intern(r));
                warmup.extend(trace.by_ref().take(WARMUP_PER_CLIENT));
                streams.push(trace.map(Step::Read).collect());
            }
        }
        Workload::UpdateMix => {
            owners = deal_owners(seed, clients, shape);
            let updated: Vec<usize> = owners.iter().flatten().copied().collect();
            let pool: Vec<usize> = (0..apps).filter(|a| !updated.contains(a)).collect();
            for (c, owned) in owners.iter().enumerate() {
                let mut rng = Rng::new(seed, 0x5000 + c as u64);
                let mut trace = reads(seed, c, &pool, STREAM_STEPS).into_iter();
                let mut next_owned = 0usize;
                let stream = (0..STREAM_STEPS)
                    .map(|_| {
                        if rng.below(UPDATE_EVERY as usize) == 0 {
                            let app = owned[next_owned % owned.len()];
                            next_owned += 1;
                            // Seeds stay below 2^31: the wire carries
                            // numbers as JSON doubles.
                            let seed = rng.next_u64() >> 33;
                            Step::Update { app, seed }
                        } else {
                            let read = trace.next().expect("one read per step at most");
                            Step::Read(keys.intern(read))
                        }
                    })
                    .collect();
                streams.push(stream);
            }
        }
    }
    Plan {
        workload,
        seed,
        keys: keys.keys,
        streams,
        warmup,
        owners,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            weight: (0..APPS).map(|i| 40 + (i * 37) % 200).collect(),
            large: (0..APPS).map(|i| i % 3 == 0).collect(),
        }
    }

    #[test]
    fn request_streams_are_a_pure_function_of_the_seed() {
        let s = shape();
        for w in Workload::ALL {
            let a = plan(w, 7, 2, &s);
            assert_eq!(a, plan(w, 7, 2, &s), "{w:?}: same seed, same plan");
            if w != Workload::ColdSweep {
                assert_ne!(a, plan(w, 8, 2, &s), "{w:?}: the seed must matter");
            }
        }
        assert_eq!(cold_pass(3, 5, APPS), cold_pass(3, 5, APPS));
        assert_ne!(cold_pass(3, 5, APPS), cold_pass(4, 5, APPS));
        assert_ne!(cold_pass(3, 5, APPS), cold_pass(3, 6, APPS));
        let mut sorted = cold_pass(3, 5, APPS);
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..APPS).collect::<Vec<_>>(),
            "a pass is a permutation"
        );
    }

    #[test]
    fn update_mix_ownership_partitions_the_updated_apps() {
        let s = shape();
        let mut updated_sets = std::collections::HashSet::new();
        for seed in 0..50u64 {
            for clients in 1..=4usize {
                let p = plan(Workload::UpdateMix, seed, clients, &s);
                assert_eq!(p.owners.len(), clients);
                let mut all: Vec<usize> = p.owners.iter().flatten().copied().collect();
                assert!(p.owners.iter().all(|o| o.len() == OWNED_PER_CLIENT));
                all.sort_unstable();
                let n = all.len();
                all.dedup();
                assert_eq!(all.len(), n, "seed {seed}: an app has two owners");
                assert!(all.iter().all(|&a| !s.large[a]));
                updated_sets.insert(all.clone());
                for (c, stream) in p.streams.iter().enumerate() {
                    for step in stream {
                        match *step {
                            Step::Update { app, .. } => {
                                assert!(p.owners[c].contains(&app), "client {c} updated {app}");
                            }
                            Step::Read(k) => {
                                let req = &p.keys[k as usize];
                                let mut touched = vec![req.app];
                                if let WorkloadOp::Batch(extra) = &req.op {
                                    touched.extend(extra);
                                }
                                assert!(
                                    touched.iter().all(|a| all.binary_search(a).is_err()),
                                    "reads never touch an updated app"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            updated_sets.len() > 50,
            "the seed must choose the updated apps"
        );
    }

    #[test]
    fn update_mix_is_about_one_update_in_ten() {
        let p = plan(Workload::UpdateMix, 11, 2, &shape());
        let updates = p.streams[0]
            .iter()
            .filter(|s| matches!(s, Step::Update { .. }))
            .count();
        let share = updates as f64 / STREAM_STEPS as f64;
        assert!((0.08..0.12).contains(&share), "update share {share}");
    }
}
