//! The "144 modern apps" benchmark set (paper §VI-A).
//!
//! Each app carries a *profile* that reproduces one of the paper's
//! detection-result populations (§VI-C): the 7 ECB true positives both
//! tools find, the 17 SSL true positives (2 of them in the subclassed-sink
//! shape BackDroid's default search misses), the 6 Amandroid false
//! positives from unregistered components, the 28 timeout-hidden
//! vulnerabilities, the 8 skipped-library and 8 async/callback blind
//! spots, the 10 whole-app occasional errors, plus 22 large-but-clean
//! timeout apps (bringing the timeout population to 50 of 144 ≈ 35%) and
//! ordinary clean apps. Sizes follow the paper's corpus statistics
//! (avg 41.5 MB, median 36.2 MB, min 2.9 MB, max 104.9 MB).

use crate::dataset::probit;
use crate::scenario::{Mechanism, Scenario, SinkKind};
use crate::{AndroidApp, AppSpec};
use backdroid_ir::wire::fnv1a64;

/// The §VI-C population a benchmark app belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// Clean app: secure sinks only.
    Normal,
    /// ECB true positive detected by both tools.
    EcbTp,
    /// SSL true positive detected by both tools.
    SslTp,
    /// SSL true positive in the subclassed-sink shape (BackDroid FN).
    SslTpSubclassed,
    /// Amandroid false positive: insecure sink in an unregistered
    /// component.
    AmandroidFp,
    /// Vulnerable app so large the whole-app baseline times out.
    TimeoutVictim,
    /// Clean app large enough to time the baseline out.
    TimeoutNoVuln,
    /// Vulnerability inside a skipped-library package.
    SkippedLib,
    /// Vulnerability behind an async/callback edge the baseline misses.
    AsyncCallback,
    /// App whose whole-app analysis hits an occasional internal error.
    WholeAppError,
}

/// One benchmark app with its population label.
#[derive(Debug)]
pub struct BenchApp {
    /// The generated app.
    pub app: AndroidApp,
    /// The §VI-C population.
    pub profile: Profile,
}

/// Benchmark-set shape parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BenchsetConfig {
    /// Number of apps (the paper uses 144).
    pub count: usize,
    /// Scales the filler-code volume (1.0 = harness scale; tests use
    /// smaller values to stay fast).
    pub code_scale: f64,
}

impl BenchsetConfig {
    /// The paper-scale configuration used by the benchmark harness.
    pub fn full() -> Self {
        BenchsetConfig {
            count: 144,
            code_scale: 1.0,
        }
    }

    /// A reduced configuration for integration tests.
    pub fn small() -> Self {
        BenchsetConfig {
            count: 24,
            code_scale: 0.08,
        }
    }

    /// An arbitrary-size configuration — the corpus-scale knob. Every
    /// count keeps the canonical §VI-C profile proportions (see
    /// [`profiles_for`]), so CI smoke sets (`sized(8, 0.04)`) and
    /// production-corpus sweeps (`sized(1000, 1.0)`) both exercise the
    /// same population mix the paper evaluates. `code_scale` multiplies
    /// the filler-code volume exactly as in [`BenchsetConfig::small`].
    ///
    /// Degenerate inputs are **clamped** to the documented floors
    /// (`count >= 1`; a non-finite or non-positive `code_scale` becomes
    /// [`MIN_CODE_SCALE`], and any positive value is floored there too)
    /// so every app still has a body to analyze. Callers that would
    /// rather reject such inputs than run a benchset the user did not
    /// ask for — e.g. CLI flag parsing — should use
    /// [`BenchsetConfig::try_sized`].
    pub fn sized(count: usize, code_scale: f64) -> Self {
        let code_scale = if code_scale.is_finite() && code_scale > 0.0 {
            code_scale.max(MIN_CODE_SCALE)
        } else {
            MIN_CODE_SCALE
        };
        BenchsetConfig {
            count: count.max(1),
            code_scale,
        }
    }

    /// The validating form of [`BenchsetConfig::sized`]: errors on
    /// `count == 0` and on a non-finite or non-positive `code_scale`
    /// instead of silently clamping to a benchset the caller never
    /// requested. Valid-but-small `code_scale` values are still floored
    /// at [`MIN_CODE_SCALE`].
    pub fn try_sized(count: usize, code_scale: f64) -> Result<Self, BenchsetConfigError> {
        if count == 0 {
            return Err(BenchsetConfigError::ZeroCount);
        }
        if !code_scale.is_finite() || code_scale <= 0.0 {
            return Err(BenchsetConfigError::BadCodeScale(code_scale));
        }
        Ok(BenchsetConfig {
            count,
            code_scale: code_scale.max(MIN_CODE_SCALE),
        })
    }
}

/// The smallest filler-code scale a benchset will generate with: below
/// this the apps degenerate to empty shells that no longer exercise the
/// analysis.
pub const MIN_CODE_SCALE: f64 = 0.01;

/// Why a [`BenchsetConfig::try_sized`] request was rejected.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BenchsetConfigError {
    /// `count == 0`: an empty benchset measures nothing.
    ZeroCount,
    /// `code_scale` was NaN, infinite, or `<= 0`.
    BadCodeScale(f64),
}

impl std::fmt::Display for BenchsetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchsetConfigError::ZeroCount => {
                write!(f, "benchset count must be at least 1")
            }
            BenchsetConfigError::BadCodeScale(v) => {
                write!(f, "code scale must be a finite positive number, got {v}")
            }
        }
    }
}

impl std::error::Error for BenchsetConfigError {}

/// The modulus the baseline's error injection uses: an app errors iff
/// `fnv1a64(name) % ERROR_MODULUS == 0`, so the generator can pick app
/// names that do (or do not) trigger it.
pub const ERROR_MODULUS: u64 = 1000;

/// Finds an app name with the requested error-injection behaviour.
fn pick_name(base: &str, want_error: bool) -> String {
    for salt in 0..100_000u32 {
        let name = format!("{base}.v{salt}");
        let triggers = fnv1a64(name.as_bytes()).is_multiple_of(ERROR_MODULUS);
        if triggers == want_error {
            return name;
        }
    }
    unreachable!("name search space exhausted");
}

/// Per-profile app counts in the canonical 144-app layout (§VI-C).
pub const LAYOUT_144: &[(Profile, usize)] = &[
    (Profile::EcbTp, 7),
    (Profile::SslTp, 15),
    (Profile::SslTpSubclassed, 2),
    (Profile::AmandroidFp, 6),
    (Profile::TimeoutVictim, 28),
    (Profile::TimeoutNoVuln, 22),
    (Profile::SkippedLib, 8),
    (Profile::AsyncCallback, 8),
    (Profile::WholeAppError, 10),
    (Profile::Normal, 38),
];

/// The per-index profile assignment for a set of `count` apps: counts are
/// scaled proportionally from the canonical 144-app layout, but every
/// profile keeps at least one app whenever `count` allows, so reduced
/// (`--small`) sets still exercise every §VI-C population.
pub fn profiles_for(count: usize) -> Vec<Profile> {
    let total: usize = LAYOUT_144.iter().map(|(_, n)| n).sum();
    let mut out = Vec::with_capacity(count);
    if count >= LAYOUT_144.len() {
        // One of each first, then fill proportionally.
        let mut counts: Vec<usize> = LAYOUT_144.iter().map(|_| 1).collect();
        let mut remaining = count - LAYOUT_144.len();
        // Largest-remainder proportional fill.
        while remaining > 0 {
            let mut best = 0usize;
            let mut best_deficit = f64::MIN;
            for (k, (_, target)) in LAYOUT_144.iter().enumerate() {
                let want = *target as f64 * count as f64 / total as f64;
                let deficit = want - counts[k] as f64;
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = k;
                }
            }
            counts[best] += 1;
            remaining -= 1;
        }
        for (k, (p, _)) in LAYOUT_144.iter().enumerate() {
            out.extend(std::iter::repeat_n(*p, counts[k]));
        }
    } else {
        for (p, _) in LAYOUT_144.iter().take(count) {
            out.push(*p);
        }
    }
    out
}

/// The profile of the `i`-th app (0-based) among `count`.
pub fn profile_of(i: usize, count: usize) -> Profile {
    profiles_for(count.max(1))[i.min(count.saturating_sub(1))]
}

/// APK sizes (bytes) for the benchmark set: log-normal quantiles
/// calibrated to the paper's 144-app statistics (median 36.2 MB, average
/// 41.5 MB), with the extremes pinned to the reported min/max.
pub fn bench_sizes_bytes(count: usize) -> Vec<u64> {
    let mu = 36.2f64.ln();
    let sigma = (2.0 * (41.5f64 / 36.2).ln()).sqrt();
    let mut sizes: Vec<u64> = (0..count)
        .map(|i| {
            let q = (i as f64 + 0.5) / count as f64;
            let mb = (mu + sigma * probit(q)).exp();
            (mb * 1_048_576.0) as u64
        })
        .collect();
    if count >= 2 {
        // Pin the extremes to the reported min/max and clamp the tail so
        // no sample exceeds the corpus maximum.
        let min_b = (2.9 * 1_048_576.0) as u64;
        let max_b = (104.9 * 1_048_576.0) as u64;
        for s in sizes.iter_mut() {
            *s = (*s).clamp(min_b, max_b);
        }
        sizes[0] = min_b;
        sizes[count - 1] = max_b;
    }
    sizes
}

/// Deterministic per-app sink-scenario mix. Every app gets a spread of
/// *secure* sink calls (the corpus averages ~21 sink calls per app,
/// §VI-D) plus the profile's characteristic path.
fn background_scenarios(i: usize, sink_calls: usize) -> Vec<Scenario> {
    let mechs = [
        Mechanism::DirectEntry,
        Mechanism::PrivateChain,
        Mechanism::StaticChain,
        Mechanism::ChildClass,
        Mechanism::ClinitOffPath,
        Mechanism::LifecycleChain,
        Mechanism::SharedUtility,
        Mechanism::DeadCode,
    ];
    (0..sink_calls)
        .map(|k| {
            let mech = mechs[(i + k) % mechs.len()];
            let sink = if (i + k).is_multiple_of(3) {
                SinkKind::SslVerifier
            } else {
                SinkKind::Cipher
            };
            Scenario::new(mech, sink, false)
        })
        .collect()
}

/// Generates the modern-app benchmark set eagerly. Prefer
/// [`bench_app`] in a loop when memory matters: the full-scale set holds
/// hundreds of thousands of generated methods.
pub fn modern_apps(cfg: BenchsetConfig) -> Vec<BenchApp> {
    (0..cfg.count).map(|i| bench_app(i, cfg)).collect()
}

/// Generates the `i`-th benchmark app of the set (deterministic and
/// independent of the other apps).
pub fn bench_app(i: usize, cfg: BenchsetConfig) -> BenchApp {
    let sizes = bench_sizes_bytes(cfg.count.max(1));
    // Size rank ordering is deterministic; shuffle sizes across indices so
    // profiles are not correlated with size — except timeout profiles,
    // which must be large.
    {
        {
            let profile = profile_of(i, cfg.count);
            let wants_error = profile == Profile::WholeAppError;
            let name = pick_name(&format!("com.bench.app{i:03}"), wants_error);

            // Assign sizes: timeout apps take the largest size slots.
            let size_idx = match profile {
                Profile::TimeoutVictim | Profile::TimeoutNoVuln => {
                    cfg.count - 1 - (i % (cfg.count / 3).max(1))
                }
                _ => (i * 73 + 11) % (cfg.count * 2 / 3).max(1),
            };
            let apk_bytes = sizes[size_idx.min(cfg.count - 1)];
            let size_mb = apk_bytes as f64 / 1_048_576.0;

            // Code volume correlates with app size; timeout apps get a
            // large multiplier so the whole-app baseline exceeds budget.
            let timeout_app = matches!(profile, Profile::TimeoutVictim | Profile::TimeoutNoVuln);
            let base_classes = (size_mb * 3.0 * cfg.code_scale).ceil() as usize + 4;
            let filler_classes = if timeout_app {
                base_classes * 11
            } else {
                base_classes
            };

            // Sink-call count varies 6..40 around the corpus mean (~21),
            // with one Huawei-Health-like outlier (§VI-D: 121 sinks).
            let sink_calls = if i == cfg.count * 7 / 10 {
                (121.0 * cfg.code_scale.max(0.15)) as usize
            } else {
                6 + (i * 13) % 34
            };

            let mut scenarios = background_scenarios(i, sink_calls.saturating_sub(1).max(1));
            // The profile's characteristic scenario.
            match profile {
                Profile::Normal | Profile::TimeoutNoVuln => {}
                Profile::EcbTp => {
                    scenarios.push(Scenario::new(
                        Mechanism::PrivateChain,
                        SinkKind::Cipher,
                        true,
                    ));
                }
                Profile::SslTp => {
                    let mech = [
                        Mechanism::DirectEntry,
                        Mechanism::StaticChain,
                        Mechanism::SuperClassPoly,
                        Mechanism::ChildClass,
                    ][i % 4];
                    scenarios.push(Scenario::new(mech, SinkKind::SslVerifier, true));
                }
                Profile::SslTpSubclassed => {
                    scenarios.push(Scenario::new(
                        Mechanism::IndirectSubclassedSink,
                        SinkKind::SslVerifier,
                        true,
                    ));
                }
                Profile::AmandroidFp => {
                    scenarios.push(Scenario::new(
                        Mechanism::UnregisteredComponent,
                        SinkKind::SslVerifier,
                        true,
                    ));
                }
                Profile::TimeoutVictim => {
                    let sink = if i.is_multiple_of(2) {
                        SinkKind::Cipher
                    } else {
                        SinkKind::SslVerifier
                    };
                    scenarios.push(Scenario::new(Mechanism::StaticChain, sink, true));
                }
                Profile::SkippedLib => {
                    scenarios.push(Scenario::new(
                        Mechanism::SkippedLibrary,
                        if i.is_multiple_of(2) {
                            SinkKind::Cipher
                        } else {
                            SinkKind::SslVerifier
                        },
                        true,
                    ));
                }
                Profile::AsyncCallback => {
                    let mech = [
                        Mechanism::InterfaceRunnable,
                        Mechanism::AsyncTask,
                        Mechanism::CallbackOnClick,
                    ][i % 3];
                    scenarios.push(Scenario::new(mech, SinkKind::Cipher, true));
                }
                Profile::WholeAppError => {
                    scenarios.push(Scenario::new(
                        Mechanism::DirectEntry,
                        if i.is_multiple_of(2) {
                            SinkKind::Cipher
                        } else {
                            SinkKind::SslVerifier
                        },
                        true,
                    ));
                }
            }

            let app = AppSpec::named(&name)
                .with_seed(1000 + i as u64)
                .with_filler(filler_classes, 6, 8)
                .with_resources(apk_bytes)
                .with_scenarios(scenarios)
                .generate();
            BenchApp { app, profile }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts_match_section_vic() {
        let counts = |p: Profile| (0..144).filter(|&i| profile_of(i, 144) == p).count();
        assert_eq!(counts(Profile::EcbTp), 7);
        assert_eq!(counts(Profile::SslTp), 15);
        assert_eq!(counts(Profile::SslTpSubclassed), 2);
        assert_eq!(counts(Profile::AmandroidFp), 6);
        assert_eq!(counts(Profile::TimeoutVictim), 28);
        assert_eq!(counts(Profile::TimeoutNoVuln), 22);
        assert_eq!(counts(Profile::SkippedLib), 8);
        assert_eq!(counts(Profile::AsyncCallback), 8);
        assert_eq!(counts(Profile::WholeAppError), 10);
        // Timeout population: 50 of 144 ≈ 35% (paper: 50 of 141).
        assert_eq!(
            counts(Profile::TimeoutVictim) + counts(Profile::TimeoutNoVuln),
            50
        );
    }

    #[test]
    fn reduced_sets_cover_every_profile() {
        let profiles = profiles_for(24);
        for (p, _) in LAYOUT_144 {
            assert!(profiles.contains(p), "{p:?} missing from 24-app set");
        }
        assert_eq!(profiles.len(), 24);
    }

    #[test]
    fn bench_sizes_match_corpus_stats() {
        let sizes = bench_sizes_bytes(144);
        let (avg, median) = crate::dataset::summarize_mb(&sizes);
        assert!((avg - 41.5).abs() < 3.0, "avg {avg:.1}");
        assert!((median - 36.2).abs() < 2.0, "median {median:.1}");
        assert_eq!(sizes[0], (2.9 * 1_048_576.0) as u64);
        assert_eq!(sizes[143], (104.9 * 1_048_576.0) as u64);
    }

    #[test]
    fn sized_clamps_degenerate_inputs() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 1e-9] {
            let cfg = BenchsetConfig::sized(0, bad);
            assert_eq!(cfg.count, 1, "count floor for code_scale {bad}");
            assert_eq!(cfg.code_scale, MIN_CODE_SCALE, "scale floor for {bad}");
        }
        let ok = BenchsetConfig::sized(12, 0.5);
        assert_eq!((ok.count, ok.code_scale), (12, 0.5));
    }

    #[test]
    fn try_sized_rejects_degenerate_inputs() {
        assert_eq!(
            BenchsetConfig::try_sized(0, 1.0),
            Err(BenchsetConfigError::ZeroCount)
        );
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = BenchsetConfig::try_sized(4, bad).unwrap_err();
            assert!(matches!(err, BenchsetConfigError::BadCodeScale(_)), "{bad}");
            assert!(!err.to_string().is_empty());
        }
        let ok = BenchsetConfig::try_sized(4, 0.25).unwrap();
        assert_eq!((ok.count, ok.code_scale), (4, 0.25));
        // Tiny-but-valid scales are floored, not rejected.
        assert_eq!(
            BenchsetConfig::try_sized(4, 1e-6).unwrap().code_scale,
            MIN_CODE_SCALE
        );
    }

    #[test]
    fn error_name_picking() {
        let err = pick_name("com.t.err", true);
        assert_eq!(fnv1a64(err.as_bytes()) % ERROR_MODULUS, 0);
        let ok = pick_name("com.t.ok", false);
        assert_ne!(fnv1a64(ok.as_bytes()) % ERROR_MODULUS, 0);
    }

    #[test]
    fn small_benchset_generates() {
        let apps = modern_apps(BenchsetConfig::small());
        assert_eq!(apps.len(), 24);
        // Every profile variant appears at least once in the scaled set.
        assert!(apps.iter().any(|a| a.profile == Profile::EcbTp));
        assert!(apps.iter().any(|a| a.profile == Profile::TimeoutVictim));
        assert!(apps.iter().any(|a| a.profile == Profile::Normal));
        // Vulnerable ground truth only where expected.
        for a in &apps {
            match a.profile {
                Profile::Normal | Profile::TimeoutNoVuln | Profile::AmandroidFp => {
                    assert_eq!(a.app.true_vulnerabilities(), 0, "{:?}", a.profile);
                }
                _ => {
                    assert!(a.app.true_vulnerabilities() >= 1, "{:?}", a.profile);
                }
            }
        }
    }
}
