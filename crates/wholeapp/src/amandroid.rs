//! The Amandroid-style whole-app baseline tool.
//!
//! Faithful to the comparator's behaviour as the paper characterizes it:
//! a precise whole-app graph built together with dataflow analysis,
//! parameter configuration (`config.ini`-like [`AmandroidConfig`]), a
//! skipped-library list (`liblist.txt`), hard-coded async/callback edges
//! that miss `Executor.execute`/`AsyncTask`/`onClick` flows, sloppy entry
//! synthesis that accepts unregistered components (the §VI-C FP source),
//! a work-unit timeout (the paper's 300-minute budget, scaled), and
//! deterministic "occasional errors" (§VI-C: "Could not find procedure",
//! "key not found").

use crate::callgraph::{build, CgAlgorithm, CgOptions};
use crate::dataflow::{self, AbstractVal};
use backdroid_core::detect::Verdict;
use backdroid_core::detector::DetectorRegistry;
use backdroid_core::forward::DataflowValue;
use backdroid_ir::wire::fnv1a64;
use backdroid_ir::{MethodSig, Program};
use backdroid_manifest::{AsyncFlowTable, Manifest};
use std::time::{Duration, Instant};

/// Amandroid's default skipped-library prefixes (a representative slice of
/// the 139-entry `liblist.txt`; the §VI-C misses involved Amazon, Tencent,
/// and Facebook packages).
pub const DEFAULT_LIBLIST: &[&str] = &[
    "com.facebook.",
    "com.amazon.identity.",
    "com.tencent.",
    "com.qihoopay.",
    "com.skt.arm.",
];

/// The scaled timeout: the paper gives Amandroid 300 minutes per app; one
/// "paper minute" is [`WORK_UNITS_PER_MINUTE`] work units here.
pub const WORK_UNITS_PER_MINUTE: f64 = 1_000.0;

/// Default budget: 300 scaled minutes.
pub const DEFAULT_BUDGET_UNITS: u64 = (300.0 * WORK_UNITS_PER_MINUTE) as u64;

/// Converts work units to scaled "paper minutes" for reporting.
pub fn paper_minutes(units: u64) -> f64 {
    units as f64 / WORK_UNITS_PER_MINUTE
}

/// Baseline configuration (the `config.ini` analogue).
#[derive(Clone, Debug)]
pub struct AmandroidConfig {
    /// Work-unit budget (timeout).
    pub budget_units: u64,
    /// Skipped-library prefixes.
    pub liblist: Vec<String>,
    /// Use the extended async table (models a hypothetical robust tool;
    /// default `false` reproduces the paper's missed implicit flows).
    pub robust_async: bool,
    /// Only registered components count as entries when `true` (default
    /// `false` reproduces the §VI-C false positives).
    pub manifest_strict: bool,
    /// Enable the deterministic occasional-error injection.
    pub error_injection: bool,
    /// Global dataflow fixpoint pass cap.
    pub max_passes: usize,
}

impl Default for AmandroidConfig {
    fn default() -> Self {
        AmandroidConfig {
            budget_units: DEFAULT_BUDGET_UNITS,
            liblist: DEFAULT_LIBLIST.iter().map(|s| s.to_string()).collect(),
            robust_async: false,
            manifest_strict: false,
            error_injection: true,
            max_passes: 8,
        }
    }
}

/// One baseline finding.
#[derive(Clone, Debug)]
pub struct AmandroidFinding {
    /// Sink id.
    pub sink_id: String,
    /// Containing method.
    pub method: MethodSig,
    /// Statement index of the sink call.
    pub stmt_idx: usize,
    /// The recovered parameter value (converted to the shared
    /// representation for judging).
    pub param: DataflowValue,
    /// The detector verdict.
    pub verdict: Verdict,
}

/// A completed baseline run.
#[derive(Clone, Debug)]
pub struct AmandroidReport {
    /// All sink findings.
    pub findings: Vec<AmandroidFinding>,
    /// Work units consumed.
    pub work_units: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl AmandroidReport {
    /// Findings flagged vulnerable.
    pub fn vulnerable(&self) -> Vec<&AmandroidFinding> {
        self.findings
            .iter()
            .filter(|f| f.verdict.is_vulnerable())
            .collect()
    }
}

/// The outcome of one app analysis.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Finished within budget.
    Done(AmandroidReport),
    /// Budget exhausted (the paper's 35% population).
    TimedOut {
        /// Work units at cutoff.
        work_units: u64,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
    /// Whole-app analysis error (the §VI-C "occasional errors").
    Error {
        /// The error message.
        message: String,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
}

impl Outcome {
    /// Whether the analysis produced findings.
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done(_))
    }

    /// The report, if done.
    pub fn report(&self) -> Option<&AmandroidReport> {
        match self {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Work units consumed (budget cap for timeouts).
    pub fn work_units(&self) -> u64 {
        match self {
            Outcome::Done(r) => r.work_units,
            Outcome::TimedOut { work_units, .. } => *work_units,
            Outcome::Error { .. } => 0,
        }
    }
}

/// Error-injection modulus: an app errors iff
/// `fnv1a64(name) % ERROR_MODULUS == 0`, modeling real Amandroid's
/// input-dependent flakiness deterministically.
pub const ERROR_MODULUS: u64 = 1000;

/// Runs the whole-app baseline on one app, vetting the given detectors'
/// sinks and judging through their rules.
pub fn analyze(
    app_name: &str,
    program: &Program,
    manifest: &Manifest,
    detectors: &DetectorRegistry,
    cfg: &AmandroidConfig,
) -> Outcome {
    let start = Instant::now();
    if cfg.error_injection && fnv1a64(app_name.as_bytes()).is_multiple_of(ERROR_MODULUS) {
        return Outcome::Error {
            message: "Could not find procedure (key not found)".into(),
            elapsed: start.elapsed(),
        };
    }

    let cg_opts = CgOptions {
        algorithm: CgAlgorithm::Spark,
        async_table: if cfg.robust_async {
            AsyncFlowTable::robust()
        } else {
            AsyncFlowTable::baseline()
        },
        manifest_strict: cfg.manifest_strict,
        skip_packages: cfg.liblist.clone(),
        budget_units: Some(cfg.budget_units),
    };
    let cg = match build(program, manifest, &cg_opts) {
        Ok(cg) => cg,
        Err(t) => {
            return Outcome::TimedOut {
                work_units: t.work_units,
                elapsed: start.elapsed(),
            }
        }
    };

    let sinks = detectors.sink_registry();
    let df = match dataflow::run(
        program,
        &cg,
        &sinks,
        cfg.max_passes,
        Some(cfg.budget_units),
        cg.work_units,
    ) {
        Ok(df) => df,
        Err(t) => {
            return Outcome::TimedOut {
                work_units: t.work_units,
                elapsed: start.elapsed(),
            }
        }
    };

    let findings = df
        .sinks
        .iter()
        .map(|obs| {
            let param = obs
                .params
                .first()
                .map(to_dataflow_value)
                .unwrap_or(DataflowValue::Unknown);
            let verdict = detectors
                .judge(&obs.sink_id, std::slice::from_ref(&param))
                .expect("observed sink spec belongs to the detector registry");
            AmandroidFinding {
                sink_id: obs.sink_id.to_string(),
                method: obs.method.clone(),
                stmt_idx: obs.stmt_idx,
                param,
                verdict,
            }
        })
        .collect();

    Outcome::Done(AmandroidReport {
        findings,
        work_units: df.work_units,
        elapsed: start.elapsed(),
    })
}

/// Converts the baseline's abstract value into the shared judging
/// representation.
fn to_dataflow_value(v: &AbstractVal) -> DataflowValue {
    match v {
        AbstractVal::Str(s) => DataflowValue::Str(s.clone()),
        AbstractVal::Int(i) => DataflowValue::Int(*i),
        AbstractVal::PlatformField(f) => DataflowValue::PlatformConst(f.clone()),
        AbstractVal::Obj(c) => DataflowValue::Obj {
            class: c.clone(),
            site: 0,
        },
        AbstractVal::Top => DataflowValue::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};

    fn cfg_no_error() -> AmandroidConfig {
        AmandroidConfig {
            error_injection: false,
            ..AmandroidConfig::default()
        }
    }

    #[test]
    fn detects_direct_ecb() {
        let app = AppSpec::named("com.t.direct")
            .with_scenario(Scenario::new(
                Mechanism::DirectEntry,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(4, 3, 4)
            .generate();
        let out = analyze(
            &app.name,
            &app.program,
            &app.manifest,
            &DetectorRegistry::paper(),
            &cfg_no_error(),
        );
        let report = out.report().expect("done");
        assert_eq!(report.vulnerable().len(), 1, "{:?}", report.findings);
    }

    #[test]
    fn misses_async_flows_unless_robust() {
        let app = AppSpec::named("com.t.async")
            .with_scenario(Scenario::new(
                Mechanism::InterfaceRunnable,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(4, 3, 4)
            .generate();
        let reg = DetectorRegistry::paper();
        let out = analyze(
            &app.name,
            &app.program,
            &app.manifest,
            &reg,
            &cfg_no_error(),
        );
        assert_eq!(
            out.report().unwrap().vulnerable().len(),
            0,
            "baseline misses Executor.execute flows"
        );
        let robust = AmandroidConfig {
            robust_async: true,
            ..cfg_no_error()
        };
        let out = analyze(&app.name, &app.program, &app.manifest, &reg, &robust);
        assert_eq!(
            out.report().unwrap().vulnerable().len(),
            1,
            "robust table restores the flow"
        );
    }

    #[test]
    fn skips_liblist_packages() {
        let app = AppSpec::named("com.t.skiplib")
            .with_scenario(Scenario::new(
                Mechanism::SkippedLibrary,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(4, 3, 4)
            .generate();
        let reg = DetectorRegistry::paper();
        let out = analyze(
            &app.name,
            &app.program,
            &app.manifest,
            &reg,
            &cfg_no_error(),
        );
        assert_eq!(out.report().unwrap().vulnerable().len(), 0);
        // Without the liblist, the finding appears.
        let no_skip = AmandroidConfig {
            liblist: Vec::new(),
            ..cfg_no_error()
        };
        let out = analyze(&app.name, &app.program, &app.manifest, &reg, &no_skip);
        assert_eq!(out.report().unwrap().vulnerable().len(), 1);
    }

    #[test]
    fn flags_unregistered_component_as_fp() {
        let app = AppSpec::named("com.t.fp")
            .with_scenario(Scenario::new(
                Mechanism::UnregisteredComponent,
                SinkKind::SslVerifier,
                true,
            ))
            .with_filler(4, 3, 4)
            .generate();
        assert_eq!(app.true_vulnerabilities(), 0, "ground truth: not reachable");
        let reg = DetectorRegistry::paper();
        let out = analyze(
            &app.name,
            &app.program,
            &app.manifest,
            &reg,
            &cfg_no_error(),
        );
        assert_eq!(
            out.report().unwrap().vulnerable().len(),
            1,
            "sloppy entries produce the paper's FP"
        );
        // Strict manifest mode removes the FP.
        let strict = AmandroidConfig {
            manifest_strict: true,
            ..cfg_no_error()
        };
        let out = analyze(&app.name, &app.program, &app.manifest, &reg, &strict);
        assert_eq!(out.report().unwrap().vulnerable().len(), 0);
    }

    #[test]
    fn finds_subclassed_sink_backdroid_misses() {
        let app = AppSpec::named("com.t.subclassed")
            .with_scenario(Scenario::new(
                Mechanism::IndirectSubclassedSink,
                SinkKind::SslVerifier,
                true,
            ))
            .with_filler(4, 3, 4)
            .generate();
        let reg = DetectorRegistry::paper();
        let out = analyze(
            &app.name,
            &app.program,
            &app.manifest,
            &reg,
            &cfg_no_error(),
        );
        assert_eq!(out.report().unwrap().vulnerable().len(), 1);
    }

    #[test]
    fn small_budget_times_out() {
        let app = AppSpec::named("com.t.big")
            .with_scenario(Scenario::new(
                Mechanism::DirectEntry,
                SinkKind::Cipher,
                true,
            ))
            .with_filler(60, 6, 8)
            .generate();
        let cfg = AmandroidConfig {
            budget_units: 50,
            ..cfg_no_error()
        };
        let out = analyze(
            &app.name,
            &app.program,
            &app.manifest,
            &DetectorRegistry::paper(),
            &cfg,
        );
        assert!(matches!(out, Outcome::TimedOut { .. }));
    }

    #[test]
    fn error_injection_is_deterministic() {
        // Find a name that triggers and one that does not.
        let mut trigger = None;
        let mut clean = None;
        for i in 0..100_000 {
            let name = format!("com.t.err{i}");
            if fnv1a64(name.as_bytes()).is_multiple_of(ERROR_MODULUS) {
                trigger.get_or_insert(name);
            } else {
                clean.get_or_insert(name);
            }
            if trigger.is_some() && clean.is_some() {
                break;
            }
        }
        let app = AppSpec::named("x").with_filler(2, 2, 2).generate();
        let cfg = AmandroidConfig::default();
        let reg = DetectorRegistry::paper();
        let out = analyze(&trigger.unwrap(), &app.program, &app.manifest, &reg, &cfg);
        assert!(matches!(out, Outcome::Error { .. }));
        let out = analyze(&clean.unwrap(), &app.program, &app.manifest, &reg, &cfg);
        assert!(out.is_done());
    }

    #[test]
    fn paper_minutes_mapping() {
        assert!((paper_minutes(DEFAULT_BUDGET_UNITS) - 300.0).abs() < 1e-9);
        assert!((paper_minutes(1_000) - 1.0).abs() < 1e-9);
    }
}
