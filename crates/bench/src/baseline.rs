//! Machine-independent benchmark baselines: committed `BENCH_*.json`
//! files that pin **ratios and counts** — warm/cold tier ratios, restore
//! speedups, postings touched, error counts — never absolute wall-clock
//! times, so the same file holds on a laptop and a loaded CI runner.
//!
//! A baseline file is one JSON object:
//!
//! ```json
//! {"bench":"snapshot_bench",
//!  "bands":{"mismatches":{"max":0},
//!           "wall_restore_speedup":{"min":1.0}}}
//! ```
//!
//! Each band names a metric the bench bin computes and bounds it with an
//! optional `min` and/or `max` (inclusive). The bin calls
//! [`Baseline::check`] with its metrics; any band whose metric is
//! missing or out of bounds is a failure, and the bin exits non-zero —
//! the same contract as its built-in self-checks, but with the expected
//! envelope versioned in-repo instead of hard-coded.

use backdroid_service::proto::{parse_json, Json};
use std::path::{Path, PathBuf};

/// An inclusive tolerance band for one metric. A missing bound is
/// unconstrained on that side; a band with neither bound only asserts
/// the metric exists.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Band {
    /// Inclusive lower bound.
    pub min: Option<f64>,
    /// Inclusive upper bound.
    pub max: Option<f64>,
}

impl Band {
    /// Whether `value` lies inside the band.
    pub fn contains(&self, value: f64) -> bool {
        self.min.is_none_or(|m| value >= m) && self.max.is_none_or(|m| value <= m)
    }
}

/// A parsed baseline: which bench it constrains and its metric bands,
/// in file order.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// The bench bin this baseline belongs to (`"service_throughput"`,
    /// `"snapshot_bench"`); checked so a swapped path fails loudly.
    pub bench: String,
    /// Metric name → tolerance band.
    pub bands: Vec<(String, Band)>,
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

impl Baseline {
    /// Loads and validates a baseline file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
    }

    /// Parses baseline JSON (see the module docs for the format).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = parse_json(text.trim())?;
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or("missing \"bench\" name")?
            .to_string();
        let Some(Json::Obj(fields)) = doc.get("bands") else {
            return Err("missing \"bands\" object".into());
        };
        let mut bands = Vec::with_capacity(fields.len());
        for (name, spec) in fields {
            let min = spec.get("min").map(|v| {
                as_f64(v).ok_or_else(|| format!("band {name:?}: \"min\" is not a number"))
            });
            let max = spec.get("max").map(|v| {
                as_f64(v).ok_or_else(|| format!("band {name:?}: \"max\" is not a number"))
            });
            let band = Band {
                min: min.transpose()?,
                max: max.transpose()?,
            };
            if !matches!(spec, Json::Obj(_)) {
                return Err(format!("band {name:?} is not an object"));
            }
            if let (Some(lo), Some(hi)) = (band.min, band.max) {
                if lo > hi {
                    return Err(format!("band {name:?}: min {lo} > max {hi}"));
                }
            }
            bands.push((name.clone(), band));
        }
        Ok(Baseline { bench, bands })
    }

    /// Checks `metrics` against every band. Returns one human-readable
    /// failure line per violated or missing band — empty means the run
    /// is inside the committed envelope. Metrics without a band are
    /// ignored, so bins may report more than the baseline pins.
    pub fn check(&self, metrics: &[(&str, f64)]) -> Vec<String> {
        let mut failures = Vec::new();
        for (name, band) in &self.bands {
            match metrics.iter().find(|(k, _)| k == name) {
                None => failures.push(format!("baseline metric {name:?} was not measured")),
                Some((_, value)) if !band.contains(*value) => failures.push(format!(
                    "{name} = {value:.6} outside baseline band [{}, {}]",
                    band.min.map_or("-inf".into(), |m| format!("{m}")),
                    band.max.map_or("+inf".into(), |m| format!("{m}")),
                )),
                Some(_) => {}
            }
        }
        failures
    }

    /// Loads the baseline named by `--baseline PATH` (if given), verifies
    /// it targets `bench`, runs [`check`](Self::check), and prints the
    /// verdict. Returns `false` — meaning the caller must fail the run —
    /// on any load error or band violation.
    pub fn enforce_from_args(bench: &str, metrics: &[(&str, f64)]) -> bool {
        let Some(path) = baseline_path_from_args() else {
            return true;
        };
        let baseline = match Baseline::load(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("FAIL: {e}");
                return false;
            }
        };
        if baseline.bench != bench {
            eprintln!(
                "FAIL: baseline {} is for {:?}, not {bench:?}",
                path.display(),
                baseline.bench
            );
            return false;
        }
        let failures = baseline.check(metrics);
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        if failures.is_empty() {
            eprintln!(
                "baseline OK: {} band(s) from {} hold",
                baseline.bands.len(),
                path.display()
            );
        }
        failures.is_empty()
    }
}

/// The `--baseline PATH` flag shared by the baseline-aware bench bins.
pub fn baseline_path_from_args() -> Option<PathBuf> {
    backdroid_service::cli::arg_value("--baseline").map(PathBuf::from)
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over a sample set; `0.0`
/// for an empty set. Sorts a copy — callers keep submission order.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_parse_and_check() {
        let b = Baseline::parse(
            r#"{"bench":"demo","bands":{"errors":{"max":0},"speedup":{"min":1.5,"max":100},"present":{}}}"#,
        )
        .unwrap();
        assert_eq!(b.bench, "demo");
        assert_eq!(b.bands.len(), 3);
        let ok = b.check(&[("errors", 0.0), ("speedup", 3.0), ("present", -7.0)]);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = b.check(&[("errors", 1.0), ("speedup", 1.2)]);
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(bad[2].contains("not measured"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse(r#"{"bench":"x"}"#).is_err());
        assert!(Baseline::parse(r#"{"bench":"x","bands":{"m":{"min":"no"}}}"#).is_err());
        assert!(Baseline::parse(r#"{"bench":"x","bands":{"m":{"min":2,"max":1}}}"#).is_err());
        assert!(Baseline::parse(r#"{"bench":"x","bands":{"m":3}}"#).is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Unsorted input is handled; input order is preserved.
        let scrambled = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&scrambled, 100.0), 3.0);
        assert_eq!(scrambled, vec![3.0, 1.0, 2.0]);
    }
}
