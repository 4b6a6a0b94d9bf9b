//! The per-app BackDroid pipeline (paper §III, Fig 2): preprocess →
//! locate sinks → search-driven backward slicing into SSGs → forward
//! constant/points-to propagation → detector verdicts.
//!
//! ## The sink loop
//!
//! The paper's headline result is that per-app cost tracks the number of
//! targeted sinks, not app size. [`Backdroid::analyze`] locates the sink
//! sites, then analyzes them one after another in sink-site order, on
//! the calling thread, with one [`TaskContext`] over one
//! [`SearchEngine`]. The §IV-F unreachable-method sink cache skips every
//! later site of a method an earlier site proved unreachable. Requests
//! run concurrently one level up, on the service's shard pool workers,
//! never inside one analysis.
//!
//! ## Incremental runs
//!
//! [`Backdroid::analyze_delta`] analyzes an updated image given two
//! things from before it: the update's reuse gate ([`DeltaKind`], from
//! [`crate::DeltaManifest::gate`]) and the [`DeltaBase`] of the last
//! traced run, which holds each sink site's outcome and what its
//! analysis read: method bodies, class definitions, and every search
//! with the answer it got. A site is replayed when the update changed
//! none of what it read, which the planner checks against the new image
//! alone. The displaced image is never needed.

use crate::chunks::DeltaKind;
use crate::context::{build_engine, AppArtifacts, DepTrace, TaskContext};
use crate::detect::Verdict;
use crate::detector::DetectorRegistry;
use crate::forward::{DataflowValue, ForwardAnalysis};
use crate::locate::{locate_sinks, SinkSite};
use crate::loops::LoopStats;
use crate::sinks::SinkRegistry;
use crate::slicer::{slice_sink, SlicerConfig};
use backdroid_ir::{ClassName, MethodSig, Program};
use backdroid_manifest::Manifest;
use backdroid_search::{BackendChoice, CacheStats, Hit, SearchCmd, SearchEngine, SearchTrace};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tool options. `Default` reproduces the paper's configuration,
/// including the exact-signature initial sink search (and therefore the
/// two §VI-C false negatives); enable `hierarchy_initial_search` for the
/// proposed fix.
#[derive(Clone, Debug)]
pub struct BackdroidOptions {
    /// The detectors to run; their sink specs (flattened in registry
    /// order) are the sinks the pipeline locates and slices.
    pub detectors: DetectorRegistry,
    /// Enable the class-hierarchy-aware initial sink search (§VI-C fix).
    pub hierarchy_initial_search: bool,
    /// Slicer bounds.
    pub slicer: SlicerConfig,
    /// Which search backend the engine executes uncached commands with.
    /// Both backends are hit-for-hit identical (the property tests
    /// enforce it); `Indexed` touches only posting-list candidates while
    /// `LinearScan` reproduces the paper's full-dump grep cost.
    pub backend: BackendChoice,
}

impl Default for BackdroidOptions {
    fn default() -> Self {
        BackdroidOptions {
            detectors: DetectorRegistry::paper(),
            hierarchy_initial_search: false,
            slicer: SlicerConfig::default(),
            backend: BackendChoice::default(),
        }
    }
}

/// The report for one analyzed sink call site.
#[derive(Clone, PartialEq, Debug)]
pub struct SinkReport {
    /// Sink identifier from the registry.
    pub sink_id: String,
    /// The method containing the call.
    pub site_method: MethodSig,
    /// Statement index of the call.
    pub stmt_idx: usize,
    /// Whether the call is control-flow reachable from an entry point.
    pub reachable: bool,
    /// Entry points the backward slice reached.
    pub entries: Vec<MethodSig>,
    /// Recovered dataflow values of the tracked parameters.
    pub param_values: Vec<DataflowValue>,
    /// The detector verdict.
    pub verdict: Verdict,
    /// SSG size (units), a per-sink work measure.
    pub ssg_units: usize,
}

/// Sink API call caching statistics (§IV-F: "on average, 13.86% of sink
/// API calls in each app are cached").
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SinkCacheStats {
    /// Sink call sites located in total.
    pub located: u64,
    /// Sites skipped because their containing method was already proven
    /// unreachable.
    pub skipped: u64,
}

impl SinkCacheStats {
    /// Cached fraction in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        if self.located == 0 {
            0.0
        } else {
            self.skipped as f64 / self.located as f64
        }
    }
}

/// Wall-clock time spent in each pipeline phase of one analysis
/// (paper §III: locate → slice → forward/judge), in nanoseconds.
/// Slice and verdict time are summed over sink sites. The values are
/// wall-clock and belong in observability exports only, never in
/// deterministic report output.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseTimings {
    /// Time locating sink call sites by bytecode search.
    pub locate_ns: u64,
    /// Time slicing sinks backward into SSGs (summed over sites).
    pub slice_ns: u64,
    /// Time in forward propagation + detector verdicts (summed over
    /// sites).
    pub verdict_ns: u64,
}

/// The whole-app analysis report.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// One report per analyzed sink site (skipped sites excluded),
    /// always in sink-site order.
    pub sink_reports: Vec<SinkReport>,
    /// Total wall-clock analysis time.
    pub analysis_time: Duration,
    /// Search-command cache statistics (§IV-F), measured as a delta
    /// over the engine's counters so back-to-back analyses on long-lived
    /// [`AppArtifacts`] each report their own work. The counters are
    /// engine-wide: analyses that *overlap in time* on the same
    /// artifacts fold each other's commands into their windows — take
    /// deltas from non-overlapping runs when the numbers must be exact.
    pub cache_stats: CacheStats,
    /// Loop-detection statistics (§IV-F).
    pub loop_stats: LoopStats,
    /// Sink API call caching statistics (§IV-F).
    pub sink_cache: SinkCacheStats,
    /// Per-phase wall-clock timings (observability only — wall-clock
    /// values never appear in deterministic report output).
    pub phases: PhaseTimings,
}

impl AppReport {
    /// Reports whose verdict flags a vulnerability on a reachable path.
    pub fn vulnerable_sinks(&self) -> Vec<&SinkReport> {
        self.sink_reports
            .iter()
            .filter(|r| r.reachable && r.verdict.is_vulnerable())
            .collect()
    }

    /// Number of sink call sites analyzed (Fig 9's x-axis).
    pub fn sinks_analyzed(&self) -> usize {
        self.sink_reports.len()
    }
}

/// The BackDroid tool: targeted and efficient inter-procedural analysis
/// via on-the-fly bytecode search.
#[derive(Clone, Debug, Default)]
pub struct Backdroid {
    options: BackdroidOptions,
}

/// One sink site's full dependency footprint: the method bodies and
/// class definitions the analysis read ([`DepTrace`]) plus every search
/// command and `classes_using` target it issued, each with its answer
/// ([`backdroid_search::SearchTrace`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SiteTrace {
    /// Program-side reads (bodies, class definitions).
    pub deps: DepTrace,
    /// Search-side queries.
    pub search: SearchTrace,
}

/// Everything a later incremental run needs from one analysis: the
/// located sink sites, their outcomes (`None` for a site the §IV-F skip
/// rule skipped), and per-site dependency traces. Produced by every
/// [`Backdroid::analyze_delta`] call, for the *next* update; valid only
/// for the same tool options it was captured with — `analyze_delta`
/// verifies that and falls back to a full run otherwise.
#[derive(Clone, Debug)]
pub struct DeltaBase {
    sites: Vec<SinkSite>,
    outcomes: Vec<Option<SinkReport>>,
    traces: Vec<Option<SiteTrace>>,
    detector_ids: Vec<String>,
    hierarchy_initial_search: bool,
}

/// What one [`Backdroid::analyze_delta`] run did — the serving layer
/// exports these as `sinks_reused` / `sinks_reanalyzed` /
/// `delta_full_fallback_total` metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeltaStats {
    /// The update was structural (or the base was unusable), so every
    /// sink was re-analyzed from scratch.
    pub full_fallback: bool,
    /// Sink sites whose prior verdicts were replayed.
    pub sinks_reused: usize,
    /// Sink sites analyzed fresh this run.
    pub sinks_reanalyzed: usize,
}

/// A delta planner: maps the located sites to per-site instructions
/// before the first site is analyzed.
type SitePlanner<'a> = &'a dyn Fn(&[SinkSite]) -> Vec<SitePlan>;

/// The sink loop's per-site instruction in delta mode.
enum SitePlan {
    /// Slice/propagate/judge as usual.
    Fresh,
    /// Replay this prior outcome (and carry its still-valid trace
    /// forward into the new [`DeltaBase`]). Boxed: a reused site's
    /// payload dwarfs the no-data `Fresh` variant.
    Reuse(Box<(SinkReport, SiteTrace)>),
}

impl Backdroid {
    /// Creates a tool with the paper's default configuration — BackDroid
    /// "does not require specific parameter configuration" (§VI-A).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tool with custom options.
    pub fn with_options(options: BackdroidOptions) -> Self {
        Backdroid { options }
    }

    /// The active options.
    pub fn options(&self) -> &BackdroidOptions {
        &self.options
    }

    /// Analyzes one app end to end: preprocess (encode, disassemble,
    /// index), then analyze every sink site. The reported
    /// `analysis_time` covers the whole span, timed once.
    pub fn analyze(&self, program: &Program, manifest: &Manifest) -> AppReport {
        let start = Instant::now();
        let engine = build_engine(program, self.options.backend);
        self.run_sites(program, manifest, &engine, start, false, None)
            .0
    }

    /// Analyzes against prebuilt, shareable [`AppArtifacts`] — the
    /// resident-app-image entry point. Many analyses (even concurrent
    /// ones from different threads) can target the same artifacts; the
    /// reports themselves are always exact, while the per-report
    /// `cache_stats` delta is exact only for analyses that do not
    /// overlap in time (see [`AppReport::cache_stats`]).
    pub fn analyze_artifacts(&self, artifacts: &AppArtifacts) -> AppReport {
        self.run_sites(
            artifacts.program(),
            artifacts.manifest(),
            artifacts.engine(),
            Instant::now(),
            false,
            None,
        )
        .0
    }

    /// Runs one sink site: slice backward, propagate forward, judge via
    /// the detector registry's rule for the sink. With `capture` set,
    /// every body read and search query is recorded into the returned
    /// [`SiteTrace`] (recording observes only — reports are identical
    /// either way). Returns the report plus the site's
    /// `(slice_ns, verdict_ns)` wall-clock split for [`PhaseTimings`].
    fn analyze_site(
        &self,
        ctx: &mut TaskContext<'_>,
        site: &SinkSite,
        sinks: &SinkRegistry,
        capture: bool,
    ) -> (SinkReport, Option<SiteTrace>, u64, u64) {
        let recorders = if capture {
            let deps = Arc::new(Mutex::new(DepTrace::default()));
            let search = Arc::new(Mutex::new(SearchTrace::default()));
            let plain_engine = ctx.engine.clone();
            ctx.set_trace(Some(Arc::clone(&deps)));
            ctx.engine = plain_engine.with_recorder(Arc::clone(&search));
            Some((deps, search, plain_engine))
        } else {
            None
        };
        let spec = &sinks.sinks()[site.spec_idx];
        let slice_started = Instant::now();
        let result = slice_sink(ctx, self.options.slicer, &site.method, site.stmt_idx, spec);
        let slice_ns = slice_started.elapsed().as_nanos() as u64;
        let verdict_started = Instant::now();
        let mut forward = ForwardAnalysis::new(ctx.program);
        if let Some((deps, _, _)) = &recorders {
            forward.set_trace(Some(Arc::clone(deps)));
        }
        let values = forward.run(&result.ssg, spec);
        let verdict = self
            .options
            .detectors
            .judge(&spec.id, &values)
            .expect("located sink spec belongs to the options' detector registry");
        let verdict_ns = verdict_started.elapsed().as_nanos() as u64;
        let report = SinkReport {
            sink_id: spec.id.to_string(),
            site_method: site.method.clone(),
            stmt_idx: site.stmt_idx,
            reachable: result.reachable,
            entries: result.ssg.entries().to_vec(),
            param_values: values,
            verdict,
            ssg_units: result.ssg.units().len(),
        };
        drop(forward);
        let trace = recorders.map(|(deps, search, plain_engine)| {
            ctx.set_trace(None);
            ctx.engine = plain_engine;
            SiteTrace {
                deps: std::mem::take(&mut *deps.lock().unwrap_or_else(|e| e.into_inner())),
                search: std::mem::take(&mut *search.lock().unwrap_or_else(|e| e.into_inner())),
            }
        });
        (report, trace, slice_ns, verdict_ns)
    }

    /// Incremental analysis of an app update (the delta path): analyzes
    /// `new` re-running only the sink sites an update could have
    /// affected, replaying prior verdicts for the rest.
    ///
    /// **Invariant** (enforced by `tests/delta_equivalence.rs` on both
    /// backends): the returned report is byte-for-byte identical — over
    /// the deterministic report surface (sites, reachability, values,
    /// verdicts, skip decisions) — to a from-scratch analysis of `new`.
    ///
    /// `gate` is the update's [`DeltaKind`] ([`crate::DeltaManifest::gate`])
    /// and `base` the traced run of the version it displaced. Verdict
    /// reuse engages only for **method-body-only** updates: hierarchy,
    /// signature, and manifest queries are provably unchanged there, so
    /// a prior verdict is replayed iff the site's recorded body/class
    /// reads avoid every changed method and the new image answers each
    /// of its recorded searches as the base run saw it answered. A
    /// missing gate or base, a structural update, or a base captured
    /// under other options re-analyzes every site (`full_fallback`) —
    /// still byte-identical, by determinism.
    ///
    /// Always returns a fresh [`DeltaBase`] for the next update in the
    /// chain.
    pub fn analyze_delta(
        &self,
        gate: Option<&DeltaKind>,
        base: Option<&DeltaBase>,
        new: &AppArtifacts,
    ) -> (AppReport, DeltaBase, DeltaStats) {
        let started = Instant::now();
        let full = |this: &Backdroid| {
            let (report, base, _) = this.run_sites(
                new.program(),
                new.manifest(),
                new.engine(),
                started,
                true,
                None,
            );
            let base = base.expect("capture mode produces a base");
            let stats = DeltaStats {
                full_fallback: true,
                sinks_reused: 0,
                sinks_reanalyzed: base.sites.len(),
            };
            (report, base, stats)
        };

        let (Some(gate), Some(base)) = (gate, base) else {
            return full(self);
        };
        if base
            .detector_ids
            .iter()
            .map(String::as_str)
            .ne(self.options.detectors.ids())
            || base.hierarchy_initial_search != self.options.hierarchy_initial_search
        {
            return full(self);
        }
        let no_methods = BTreeSet::new();
        let changed_methods = match gate {
            DeltaKind::Identity => &no_methods,
            DeltaKind::BodyOnly { changed_methods } => changed_methods,
            DeltaKind::Structural => return full(self),
        };
        let changed_classes: BTreeSet<ClassName> =
            changed_methods.iter().map(|m| m.class().clone()).collect();

        // A recorded search answer still holds iff the new image answers
        // the command with the same hit-method sequence (line numbers
        // may shift with unrelated edits; no analysis pass reads them).
        // Each question is put to the new image once, which pre-warms
        // the caches the fresh subset will use anyway.
        let new_hits: RefCell<HashMap<SearchCmd, Vec<Hit>>> = RefCell::default();
        let new_users: RefCell<HashMap<ClassName, Vec<ClassName>>> = RefCell::default();
        let same_hits = |(cmd, seen): (&SearchCmd, &Vec<MethodSig>)| -> bool {
            let mut memo = new_hits.borrow_mut();
            if !memo.contains_key(cmd) {
                memo.insert(cmd.clone(), new.engine().run(cmd));
            }
            let hits = &memo[cmd];
            hits.len() == seen.len() && hits.iter().zip(seen).all(|(h, m)| h.method == *m)
        };
        let same_users = |(target, seen): (&ClassName, &Vec<ClassName>)| -> bool {
            let mut memo = new_users.borrow_mut();
            if !memo.contains_key(target) {
                memo.insert(target.clone(), new.engine().classes_using(target));
            }
            memo[target] == *seen
        };

        let by_key: HashMap<(usize, &MethodSig, usize), usize> = base
            .sites
            .iter()
            .enumerate()
            .map(|(j, s)| ((s.spec_idx, &s.method, s.stmt_idx), j))
            .collect();
        let planner = |sites: &[SinkSite]| -> Vec<SitePlan> {
            sites
                .iter()
                .map(|site| {
                    if changed_methods.contains(&site.method) {
                        return SitePlan::Fresh;
                    }
                    let Some(&j) = by_key.get(&(site.spec_idx, &site.method, site.stmt_idx)) else {
                        return SitePlan::Fresh;
                    };
                    if base.sites[j] != *site {
                        return SitePlan::Fresh;
                    }
                    let (Some(outcome), Some(trace)) = (&base.outcomes[j], &base.traces[j]) else {
                        // A skipped site carries no verdict of its own;
                        // the skip rule settles it again in this run.
                        return SitePlan::Fresh;
                    };
                    // A reused site's trace carries into the next base:
                    // its recorded answers are also the new image's, since
                    // an identity update changes none of them and any
                    // other update was checked against each one here.
                    let untouched = changed_methods.is_empty()
                        || trace.deps.methods.is_disjoint(changed_methods)
                            && trace.deps.classes.is_disjoint(&changed_classes)
                            && trace.search.cmds.iter().all(&same_hits)
                            && trace.search.class_uses.iter().all(&same_users);
                    if untouched {
                        SitePlan::Reuse(Box::new((outcome.clone(), trace.clone())))
                    } else {
                        SitePlan::Fresh
                    }
                })
                .collect()
        };

        let (report, new_base, reused) = self.run_sites(
            new.program(),
            new.manifest(),
            new.engine(),
            started,
            true,
            Some(&planner),
        );
        let new_base = new_base.expect("capture mode produces a base");
        let stats = DeltaStats {
            full_fallback: false,
            sinks_reused: reused,
            sinks_reanalyzed: new_base.sites.len() - reused,
        };
        (report, new_base, stats)
    }

    /// The sink loop shared by full and delta runs. `started` is the
    /// caller's clock start, so `analysis_time` is measured exactly once
    /// per report — `analyze` includes its preprocessing span, the other
    /// entry points start here. `planner` (delta mode)
    /// maps located sites to per-site plans; `capture` additionally
    /// records dependency traces and returns a [`DeltaBase`]. Returns
    /// `(report, base, sites_reused)`.
    fn run_sites(
        &self,
        program: &Program,
        manifest: &Manifest,
        engine: &SearchEngine,
        started: Instant,
        capture: bool,
        planner: Option<SitePlanner<'_>>,
    ) -> (AppReport, Option<DeltaBase>, usize) {
        let stats_before = engine.stats();

        let sinks = self.options.detectors.sink_registry();
        let mut ctx = TaskContext::from_parts(program, manifest, engine.clone());
        let locate_started = Instant::now();
        let sites: Vec<SinkSite> =
            locate_sinks(&mut ctx, &sinks, self.options.hierarchy_initial_search);
        let mut phases = PhaseTimings {
            locate_ns: locate_started.elapsed().as_nanos() as u64,
            ..PhaseTimings::default()
        };

        // Delta mode: per-site plans, computed once over the freshly
        // located sites. A reused verdict takes part in the skip rule
        // exactly like a freshly computed one.
        let mut plans = planner.map(|p| p(&sites)).unwrap_or_default().into_iter();

        // §IV-F sink API call caching: a method proven control-flow
        // unreachable skips its remaining sink sites.
        let mut proven_unreachable: HashSet<&MethodSig> = HashSet::new();
        let mut reports = Vec::with_capacity(sites.len());
        let mut outcomes: Vec<Option<SinkReport>> = Vec::new();
        let mut traces: Vec<Option<SiteTrace>> = Vec::new();
        let mut skipped = 0;
        let mut reused = 0;
        for site in &sites {
            // Taken before the skip check, so plans stay aligned with
            // sites; a skipped site's plan is dropped unused.
            let plan = plans.next();
            if proven_unreachable.contains(&site.method) {
                skipped += 1;
                if capture {
                    outcomes.push(None);
                    traces.push(None);
                }
                continue;
            }
            let (report, trace) = match plan {
                Some(SitePlan::Reuse(prior)) => {
                    reused += 1;
                    let (report, trace) = *prior;
                    (report, Some(trace))
                }
                _ => {
                    let (report, trace, slice_ns, verdict_ns) =
                        self.analyze_site(&mut ctx, site, &sinks, capture);
                    phases.slice_ns += slice_ns;
                    phases.verdict_ns += verdict_ns;
                    (report, trace)
                }
            };
            if !report.reachable {
                proven_unreachable.insert(&site.method);
            }
            if capture {
                outcomes.push(Some(report.clone()));
                traces.push(trace);
            }
            reports.push(report);
        }

        let sink_cache = SinkCacheStats {
            located: sites.len() as u64,
            skipped,
        };
        let base = capture.then(|| DeltaBase {
            sites,
            outcomes,
            traces,
            detector_ids: self
                .options
                .detectors
                .ids()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            hierarchy_initial_search: self.options.hierarchy_initial_search,
        });
        let report = AppReport {
            sink_reports: reports,
            analysis_time: started.elapsed(),
            cache_stats: engine.stats().since(&stats_before),
            loop_stats: ctx.loops,
            sink_cache,
            phases,
        };
        (report, base, reused)
    }
}
