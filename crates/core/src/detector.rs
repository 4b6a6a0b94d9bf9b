//! The data-driven detector registry: detection as *data*, not code.
//!
//! The paper's evaluation hardwires two detectors (crypto misuse and
//! SSL misconfiguration, §VI-A); earlier revisions of this codebase
//! froze that choice into hardcoded constructors and a closed dispatch.
//! This module replaces both with a first-class abstraction:
//!
//! * [`DetectorSpec`] — one detector: a stable id, the [`SinkSpec`]s it
//!   targets, and a declarative [`VerdictRule`];
//! * [`VerdictRule`] — constant-pattern / threshold / presence rules
//!   expressible as plain data, plus a closure escape hatch
//!   ([`VerdictRule::Custom`]) for rules that cannot be;
//! * [`DetectorRegistry`] — the ordered set of detectors one run vets,
//!   with **typed errors** ([`DetectorError`]) for unknown ids instead
//!   of the old silent `Undetermined` fallback.
//!
//! The built-in registries preserve the historical sink lists exactly:
//! [`DetectorRegistry::paper`] flattens to the paper's three sinks (same
//! order, same ids), and its rules are verdict-for-verdict identical to
//! the pre-registry `judge_*` functions, which survive as test-only
//! oracles in the `detector_registry` property test that fuzzes that
//! equivalence. [`DetectorRegistry::full`] adds the three
//! post-paper classes (WebView JS-interface exposure, weak PRNG seeding,
//! `Runtime.exec` command injection).

use crate::detect::Verdict;
use crate::forward::DataflowValue;
use crate::sinks::{SinkRegistry, SinkSpec};
use backdroid_ir::{MethodSig, Type};
use std::sync::Arc;

/// A closure-backed verdict rule (the [`VerdictRule::Custom`] escape
/// hatch). `Arc` so detector specs stay cheaply cloneable.
pub type RuleFn = Arc<dyn Fn(&[DataflowValue]) -> Verdict + Send + Sync>;

/// Fills the `{value}` placeholder of a reason template.
fn fill(template: &str, value: &str) -> String {
    template.replace("{value}", value)
}

/// A declarative verdict rule over the recovered sink parameter values.
///
/// Every data variant judges `values.first()` — the first tracked
/// parameter — and returns [`Verdict::Undetermined`] when the value is
/// not a decidable constant of the expected shape. Reason strings are
/// templates in which `{value}` is replaced by the matched constant.
#[derive(Clone)]
pub enum VerdictRule {
    /// Constant-pattern rule over a delimited string (the crypto
    /// transformation shape `ALGO/MODE/PADDING`): an explicit second
    /// segment in `vulnerable_modes` is flagged, a delimiter-free value
    /// in `vulnerable_bare` is flagged, anything else string-valued is
    /// safe. Matching is case-insensitive (values are uppercased first).
    DelimitedPattern {
        /// Segment separator (`'/'` for cipher transformations).
        delimiter: char,
        /// Flagged second-segment values (e.g. `ECB`).
        vulnerable_modes: Vec<String>,
        /// Flagged delimiter-free values (e.g. the ECB-default ciphers).
        vulnerable_bare: Vec<String>,
        /// Reason template for a flagged mode segment.
        mode_reason: String,
        /// Reason template for a flagged bare value.
        bare_reason: String,
    },
    /// Constant-pattern rule over platform constants and instance class
    /// names (the hostname-verifier shape): a platform-constant field
    /// named in `flagged_consts` is flagged (other platform constants
    /// are safe); an instance whose simple class name contains a
    /// `flagged_fragments` entry is flagged, one containing a
    /// `cleared_fragments` entry is safe, anything else is undetermined.
    ConstPattern {
        /// Flagged platform-constant field names.
        flagged_consts: Vec<String>,
        /// Reason for a flagged constant (no placeholder).
        const_reason: String,
        /// Flagged instance simple-name fragments.
        flagged_fragments: Vec<String>,
        /// Cleared (safe) instance simple-name fragments.
        cleared_fragments: Vec<String>,
        /// Reason template for a flagged instance (`{value}` = class).
        instance_reason: String,
    },
    /// Threshold rule over an integer constant: values inside
    /// `min..=max` are flagged, other integers are safe, non-integers
    /// are undetermined (the open-port shape).
    IntInRange {
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
        /// Reason template (`{value}` = the integer).
        reason: String,
    },
    /// Presence rule over a string constant: *any* resolved string is
    /// itself the finding (the exposed-socket-name shape).
    StrPresence {
        /// Reason template (`{value}` = the string).
        reason: String,
    },
    /// Presence rule over an integer constant: *any* resolved integer
    /// is itself the finding (the constant-PRNG-seed shape).
    IntPresence {
        /// Reason template (`{value}` = the integer).
        reason: String,
    },
    /// Command-pattern rule over a string constant: the first
    /// whitespace-separated token's path basename is matched against
    /// `programs`; a match is flagged, other strings are safe (the
    /// `Runtime.exec` shell-injection shape).
    CommandPattern {
        /// Flagged program basenames (e.g. `su`, `sh`).
        programs: Vec<String>,
        /// Reason template (`{value}` = the full command string).
        reason: String,
    },
    /// Escape hatch: an arbitrary closure-backed rule for verdicts no
    /// data variant expresses.
    Custom(RuleFn),
}

impl std::fmt::Debug for VerdictRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerdictRule::DelimitedPattern {
                delimiter,
                vulnerable_modes,
                vulnerable_bare,
                ..
            } => f
                .debug_struct("DelimitedPattern")
                .field("delimiter", delimiter)
                .field("vulnerable_modes", vulnerable_modes)
                .field("vulnerable_bare", vulnerable_bare)
                .finish_non_exhaustive(),
            VerdictRule::ConstPattern {
                flagged_consts,
                flagged_fragments,
                cleared_fragments,
                ..
            } => f
                .debug_struct("ConstPattern")
                .field("flagged_consts", flagged_consts)
                .field("flagged_fragments", flagged_fragments)
                .field("cleared_fragments", cleared_fragments)
                .finish_non_exhaustive(),
            VerdictRule::IntInRange { min, max, .. } => f
                .debug_struct("IntInRange")
                .field("min", min)
                .field("max", max)
                .finish_non_exhaustive(),
            VerdictRule::StrPresence { .. } => {
                f.debug_struct("StrPresence").finish_non_exhaustive()
            }
            VerdictRule::IntPresence { .. } => {
                f.debug_struct("IntPresence").finish_non_exhaustive()
            }
            VerdictRule::CommandPattern { programs, .. } => f
                .debug_struct("CommandPattern")
                .field("programs", programs)
                .finish_non_exhaustive(),
            VerdictRule::Custom(_) => f.debug_struct("Custom").finish_non_exhaustive(),
        }
    }
}

impl VerdictRule {
    /// Wraps a closure as a rule (the escape hatch, without spelling the
    /// `Arc` at the call site).
    pub fn custom(f: impl Fn(&[DataflowValue]) -> Verdict + Send + Sync + 'static) -> Self {
        VerdictRule::Custom(Arc::new(f))
    }

    /// Evaluates the rule over the recovered parameter values.
    pub fn evaluate(&self, values: &[DataflowValue]) -> Verdict {
        match self {
            VerdictRule::DelimitedPattern {
                delimiter,
                vulnerable_modes,
                vulnerable_bare,
                mode_reason,
                bare_reason,
            } => match values.first() {
                Some(DataflowValue::Str(s)) => {
                    let upper = s.to_uppercase();
                    let mut parts = upper.split(*delimiter);
                    let bare = parts.next().unwrap_or("");
                    match parts.next() {
                        Some(mode) => {
                            if vulnerable_modes.iter().any(|m| m == mode) {
                                Verdict::Vulnerable(fill(mode_reason, s))
                            } else {
                                Verdict::Safe
                            }
                        }
                        None => {
                            if vulnerable_bare.iter().any(|b| b == bare) {
                                Verdict::Vulnerable(fill(bare_reason, s))
                            } else {
                                Verdict::Safe
                            }
                        }
                    }
                }
                _ => Verdict::Undetermined,
            },
            VerdictRule::ConstPattern {
                flagged_consts,
                const_reason,
                flagged_fragments,
                cleared_fragments,
                instance_reason,
            } => match values.first() {
                Some(DataflowValue::PlatformConst(field)) => {
                    if flagged_consts.iter().any(|c| c == field.name()) {
                        Verdict::Vulnerable(const_reason.clone())
                    } else {
                        Verdict::Safe
                    }
                }
                Some(DataflowValue::Obj { class, .. }) => {
                    let n = class.simple_name();
                    if flagged_fragments.iter().any(|p| n.contains(p.as_str())) {
                        Verdict::Vulnerable(fill(instance_reason, &class.to_string()))
                    } else if cleared_fragments.iter().any(|p| n.contains(p.as_str())) {
                        Verdict::Safe
                    } else {
                        Verdict::Undetermined
                    }
                }
                _ => Verdict::Undetermined,
            },
            VerdictRule::IntInRange { min, max, reason } => match values.first() {
                Some(DataflowValue::Int(v)) if v >= min && v <= max => {
                    Verdict::Vulnerable(fill(reason, &v.to_string()))
                }
                Some(DataflowValue::Int(_)) => Verdict::Safe,
                _ => Verdict::Undetermined,
            },
            VerdictRule::StrPresence { reason } => match values.first() {
                Some(DataflowValue::Str(s)) => Verdict::Vulnerable(fill(reason, s)),
                _ => Verdict::Undetermined,
            },
            VerdictRule::IntPresence { reason } => match values.first() {
                Some(DataflowValue::Int(v)) => Verdict::Vulnerable(fill(reason, &v.to_string())),
                _ => Verdict::Undetermined,
            },
            VerdictRule::CommandPattern { programs, reason } => match values.first() {
                Some(DataflowValue::Str(cmd)) => {
                    let program = cmd.split_whitespace().next().unwrap_or("");
                    let base = program.rsplit('/').next().unwrap_or(program);
                    if programs.iter().any(|p| p == base) {
                        Verdict::Vulnerable(fill(reason, cmd))
                    } else {
                        Verdict::Safe
                    }
                }
                _ => Verdict::Undetermined,
            },
            VerdictRule::Custom(f) => f(values),
        }
    }
}

/// One detector: a stable id (the request-level granularity the service
/// protocol speaks), the sink APIs it targets, and its verdict rule.
#[derive(Clone, Debug)]
pub struct DetectorSpec {
    /// Stable detector id (`crypto`, `ssl`, `webview`, …). This is what
    /// goes on the JSONL/socket protocol as a "sink class".
    pub id: String,
    /// The sink APIs this detector judges.
    pub sinks: Vec<SinkSpec>,
    /// The verdict rule applied to every one of this detector's sinks.
    pub rule: VerdictRule,
}

impl DetectorSpec {
    /// Creates a detector spec.
    pub fn new(id: impl Into<String>, sinks: Vec<SinkSpec>, rule: VerdictRule) -> Self {
        DetectorSpec {
            id: id.into(),
            sinks,
            rule,
        }
    }
}

/// Why a registry operation failed. Unknown ids are **typed errors** at
/// registration/query time — never a silent `Undetermined` verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DetectorError {
    /// No registered detector has this id.
    UnknownDetector(String),
    /// No registered detector targets this sink id.
    UnknownSink(String),
    /// A detector with this id is already registered.
    DuplicateDetector(String),
    /// Another detector already targets this sink id.
    DuplicateSink(String),
}

impl std::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorError::UnknownDetector(id) => write!(f, "unknown detector id {id:?}"),
            DetectorError::UnknownSink(id) => write!(f, "no detector targets sink id {id:?}"),
            DetectorError::DuplicateDetector(id) => {
                write!(f, "detector id {id:?} is already registered")
            }
            DetectorError::DuplicateSink(id) => {
                write!(f, "sink id {id:?} is already targeted by another detector")
            }
        }
    }
}

impl std::error::Error for DetectorError {}

/// The ordered set of detectors one analysis run vets.
/// [`DetectorRegistry::sink_registry`] flattens the detectors (in
/// registration order) into the sink list the locate/slice pipeline
/// consumes, and [`DetectorRegistry::judge`] dispatches verdicts through
/// a registry lookup that fails typed on unknown sink ids.
#[derive(Clone, Debug, Default)]
pub struct DetectorRegistry {
    detectors: Vec<DetectorSpec>,
}

impl DetectorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's evaluation set (§VI-A): the `crypto` and `ssl`
    /// detectors, flattening to `Cipher.getInstance` plus the two
    /// `setHostnameVerifier` overloads.
    pub fn paper() -> Self {
        let mut r = Self::new();
        for spec in [crypto_detector(), ssl_detector()] {
            r.register(spec).expect("built-in detectors are disjoint");
        }
        r
    }

    /// The paper set plus the uncommon §VI-D detectors (`sms`,
    /// `socket.server`, `socket.local`).
    pub fn extended() -> Self {
        let mut r = Self::paper();
        for spec in [
            sms_detector(),
            server_socket_detector(),
            local_socket_detector(),
        ] {
            r.register(spec).expect("built-in detectors are disjoint");
        }
        r
    }

    /// Every built-in detector: the extended set plus the three
    /// post-paper classes — `webview` (JS-interface exposure), `prng`
    /// (weak seeding), and `exec` (command injection).
    pub fn full() -> Self {
        let mut r = Self::extended();
        for spec in [webview_detector(), prng_detector(), exec_detector()] {
            r.register(spec).expect("built-in detectors are disjoint");
        }
        r
    }

    /// Registers a detector. Duplicate detector ids and sink ids already
    /// targeted by another detector are typed errors.
    pub fn register(&mut self, spec: DetectorSpec) -> Result<(), DetectorError> {
        if self.detectors.iter().any(|d| d.id == spec.id) {
            return Err(DetectorError::DuplicateDetector(spec.id));
        }
        for sink in &spec.sinks {
            if self
                .detectors
                .iter()
                .flat_map(|d| &d.sinks)
                .any(|s| s.id == sink.id)
            {
                return Err(DetectorError::DuplicateSink(sink.id.clone()));
            }
        }
        self.detectors.push(spec);
        Ok(())
    }

    /// All detectors, in registration order.
    pub fn detectors(&self) -> &[DetectorSpec] {
        &self.detectors
    }

    /// The registered detector ids, in registration order.
    pub fn ids(&self) -> Vec<&str> {
        self.detectors.iter().map(|d| d.id.as_str()).collect()
    }

    /// Whether a detector with this id is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.detectors.iter().any(|d| d.id == id)
    }

    /// The detector with this id, or a typed error.
    pub fn get(&self, id: &str) -> Result<&DetectorSpec, DetectorError> {
        self.detectors
            .iter()
            .find(|d| d.id == id)
            .ok_or_else(|| DetectorError::UnknownDetector(id.to_string()))
    }

    /// The verdict rule owning `sink_id`, or a typed error — an unknown
    /// sink id never degrades to a silent `Undetermined`.
    pub fn rule_for(&self, sink_id: &str) -> Result<&VerdictRule, DetectorError> {
        self.detectors
            .iter()
            .find(|d| d.sinks.iter().any(|s| s.id == sink_id))
            .map(|d| &d.rule)
            .ok_or_else(|| DetectorError::UnknownSink(sink_id.to_string()))
    }

    /// Judges recovered parameter values for `sink_id` through the
    /// owning detector's rule. Unknown sink ids are a typed error.
    pub fn judge(&self, sink_id: &str, values: &[DataflowValue]) -> Result<Verdict, DetectorError> {
        Ok(self.rule_for(sink_id)?.evaluate(values))
    }

    /// A sub-registry restricted to the requested detector ids, keeping
    /// this registry's order. Any unknown id is a typed error — the
    /// service layer turns it into a deterministic error response.
    pub fn select<S: AsRef<str>>(&self, ids: &[S]) -> Result<DetectorRegistry, DetectorError> {
        for id in ids {
            if !self.contains(id.as_ref()) {
                return Err(DetectorError::UnknownDetector(id.as_ref().to_string()));
            }
        }
        Ok(DetectorRegistry {
            detectors: self
                .detectors
                .iter()
                .filter(|d| ids.iter().any(|id| id.as_ref() == d.id))
                .cloned()
                .collect(),
        })
    }

    /// Flattens the detectors (registration order, then per-detector
    /// sink order) into the [`SinkRegistry`] the locate/slice pipeline
    /// consumes.
    pub fn sink_registry(&self) -> SinkRegistry {
        let mut r = SinkRegistry::new();
        for d in &self.detectors {
            for s in &d.sinks {
                r.add(s.clone());
            }
        }
        r
    }
}

// ---------------------------------------------------------------------
// Built-in detectors: each one is a datum, not a code path.
// ---------------------------------------------------------------------

fn crypto_detector() -> DetectorSpec {
    DetectorSpec::new(
        "crypto",
        vec![SinkSpec::new(
            "crypto.cipher",
            MethodSig::new(
                "javax.crypto.Cipher",
                "getInstance",
                vec![Type::string()],
                Type::object("javax.crypto.Cipher"),
            ),
            vec![0],
        )],
        VerdictRule::DelimitedPattern {
            delimiter: '/',
            vulnerable_modes: vec!["ECB".into()],
            // Block ciphers that default to ECB when no mode is given.
            vulnerable_bare: ["AES", "DES", "DESEDE", "BLOWFISH", "RC2"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            mode_reason: "explicit ECB mode in \"{value}\"".into(),
            bare_reason: "bare \"{value}\" defaults to ECB for block ciphers".into(),
        },
    )
}

fn ssl_detector() -> DetectorSpec {
    DetectorSpec::new(
        "ssl",
        vec![
            SinkSpec::new(
                "ssl.verifier.factory",
                MethodSig::new(
                    "org.apache.http.conn.ssl.SSLSocketFactory",
                    "setHostnameVerifier",
                    vec![Type::object(
                        "org.apache.http.conn.ssl.X509HostnameVerifier",
                    )],
                    Type::Void,
                ),
                vec![0],
            ),
            SinkSpec::new(
                "ssl.verifier.connection",
                MethodSig::new(
                    "javax.net.ssl.HttpsURLConnection",
                    "setHostnameVerifier",
                    vec![Type::object("javax.net.ssl.HostnameVerifier")],
                    Type::Void,
                ),
                vec![0],
            ),
        ],
        VerdictRule::ConstPattern {
            flagged_consts: vec!["ALLOW_ALL_HOSTNAME_VERIFIER".into()],
            const_reason: "ALLOW_ALL_HOSTNAME_VERIFIER disables hostname checks".into(),
            flagged_fragments: vec!["AllowAll".into(), "NullHostnameVerifier".into()],
            cleared_fragments: vec!["Strict".into(), "BrowserCompat".into()],
            instance_reason: "permissive verifier instance {value}".into(),
        },
    )
}

fn sms_detector() -> DetectorSpec {
    DetectorSpec::new(
        "sms",
        vec![SinkSpec::new(
            "sms.send",
            MethodSig::new(
                "android.telephony.SmsManager",
                "sendTextMessage",
                vec![
                    Type::string(),
                    Type::string(),
                    Type::string(),
                    Type::object("android.app.PendingIntent"),
                    Type::object("android.app.PendingIntent"),
                ],
                Type::Void,
            ),
            vec![0, 2],
        )],
        // The escape hatch in action: the premium-short-code check
        // (3–6 digits after an optional '+') needs string scanning no
        // data rule expresses, so it stays a closure.
        VerdictRule::custom(crate::detect::judge_sms),
    )
}

fn server_socket_detector() -> DetectorSpec {
    DetectorSpec::new(
        "socket.server",
        vec![SinkSpec::new(
            "socket.server",
            MethodSig::new(
                "java.net.ServerSocket",
                "<init>",
                vec![Type::Int],
                Type::Void,
            ),
            vec![0],
        )],
        VerdictRule::IntInRange {
            min: 1024,
            max: 65535,
            reason: "app opens TCP port {value} to the network".into(),
        },
    )
}

fn local_socket_detector() -> DetectorSpec {
    DetectorSpec::new(
        "socket.local",
        vec![SinkSpec::new(
            "socket.local",
            MethodSig::new(
                "android.net.LocalServerSocket",
                "<init>",
                vec![Type::string()],
                Type::Void,
            ),
            vec![0],
        )],
        VerdictRule::StrPresence {
            reason: "exposed Unix domain socket \"{value}\"".into(),
        },
    )
}

fn webview_detector() -> DetectorSpec {
    DetectorSpec::new(
        "webview",
        vec![SinkSpec::new(
            "webview.jsinterface",
            MethodSig::new(
                "android.webkit.WebView",
                "addJavascriptInterface",
                vec![Type::object("java.lang.Object"), Type::string()],
                Type::Void,
            ),
            // Track the exported bridge *name* (parameter 1), not the
            // bridge object.
            vec![1],
        )],
        VerdictRule::StrPresence {
            reason: "JavaScript bridge \"{value}\" exposed to WebView content".into(),
        },
    )
}

fn prng_detector() -> DetectorSpec {
    DetectorSpec::new(
        "prng",
        vec![SinkSpec::new(
            "prng.seed",
            MethodSig::new("java.util.Random", "<init>", vec![Type::Long], Type::Void),
            vec![0],
        )],
        VerdictRule::IntPresence {
            reason: "PRNG seeded with constant {value}".into(),
        },
    )
}

fn exec_detector() -> DetectorSpec {
    DetectorSpec::new(
        "exec",
        vec![SinkSpec::new(
            "exec.command",
            MethodSig::new(
                "java.lang.Runtime",
                "exec",
                vec![Type::string()],
                Type::object("java.lang.Process"),
            ),
            vec![0],
        )],
        VerdictRule::CommandPattern {
            programs: vec!["su".into(), "sh".into(), "bash".into()],
            reason: "shell command \"{value}\" passed to Runtime.exec".into(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Vec<DataflowValue> {
        vec![DataflowValue::Str(v.into())]
    }

    #[test]
    fn built_in_registries_nest_and_flatten_in_order() {
        let paper = DetectorRegistry::paper();
        assert_eq!(paper.ids(), ["crypto", "ssl"]);
        let paper_sinks = paper.sink_registry();
        let flat: Vec<&str> = paper_sinks.sinks().iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            flat,
            [
                "crypto.cipher",
                "ssl.verifier.factory",
                "ssl.verifier.connection"
            ]
        );
        let extended = DetectorRegistry::extended();
        assert_eq!(
            extended.ids(),
            ["crypto", "ssl", "sms", "socket.server", "socket.local"]
        );
        let full = DetectorRegistry::full();
        assert_eq!(full.detectors().len(), 8);
        assert_eq!(full.sink_registry().sinks().len(), 9);
    }

    #[test]
    fn unknown_ids_are_typed_errors_not_silent_verdicts() {
        let r = DetectorRegistry::paper();
        assert_eq!(
            r.judge("unknown.sink", &s("x")),
            Err(DetectorError::UnknownSink("unknown.sink".into()))
        );
        assert_eq!(
            r.get("sms").unwrap_err(),
            DetectorError::UnknownDetector("sms".into())
        );
        assert_eq!(
            r.select(&["crypto", "nope"]).unwrap_err(),
            DetectorError::UnknownDetector("nope".into())
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = DetectorRegistry::paper();
        assert_eq!(
            r.register(super::crypto_detector()).unwrap_err(),
            DetectorError::DuplicateDetector("crypto".into())
        );
        let clash = DetectorSpec::new(
            "crypto2",
            vec![SinkSpec::new(
                "crypto.cipher",
                MethodSig::new("x.Y", "z", vec![], Type::Void),
                vec![0],
            )],
            VerdictRule::StrPresence { reason: "x".into() },
        );
        assert_eq!(
            r.register(clash).unwrap_err(),
            DetectorError::DuplicateSink("crypto.cipher".into())
        );
    }

    #[test]
    fn select_preserves_registry_order_and_legacy_names_resolve() {
        let r = DetectorRegistry::extended();
        // Request order does not matter; registry order wins.
        let sub = r.select(&["ssl", "crypto"]).unwrap();
        assert_eq!(sub.ids(), ["crypto", "ssl"]);
        // The legacy wire names ARE detector ids, so they keep parsing.
        assert!(r.select(&["crypto"]).is_ok() && r.select(&["ssl"]).is_ok());
        let empty = r.select::<&str>(&[]).unwrap();
        assert!(empty.detectors().is_empty());
    }

    #[test]
    fn data_rules_reproduce_the_legacy_reason_strings() {
        let r = DetectorRegistry::full();
        assert_eq!(
            r.judge("crypto.cipher", &s("AES/ECB/PKCS5Padding"))
                .unwrap(),
            Verdict::Vulnerable("explicit ECB mode in \"AES/ECB/PKCS5Padding\"".into())
        );
        assert_eq!(
            r.judge("crypto.cipher", &s("des")).unwrap(),
            Verdict::Vulnerable("bare \"des\" defaults to ECB for block ciphers".into())
        );
        assert_eq!(
            r.judge("socket.local", &s("debug_port")).unwrap(),
            Verdict::Vulnerable("exposed Unix domain socket \"debug_port\"".into())
        );
        assert_eq!(
            r.judge("socket.server", &[DataflowValue::Int(8089)])
                .unwrap(),
            Verdict::Vulnerable("app opens TCP port 8089 to the network".into())
        );
        assert_eq!(
            r.judge("sms.send", &s("12345")).unwrap(),
            Verdict::Vulnerable("SMS to hard-coded premium short code 12345".into())
        );
    }

    #[test]
    fn new_class_rules_judge_their_shapes() {
        let r = DetectorRegistry::full();
        assert!(r
            .judge("webview.jsinterface", &s("jsBridge"))
            .unwrap()
            .is_vulnerable());
        assert_eq!(
            r.judge("webview.jsinterface", &[DataflowValue::Unknown])
                .unwrap(),
            Verdict::Undetermined
        );
        assert!(r
            .judge("prng.seed", &[DataflowValue::Int(42)])
            .unwrap()
            .is_vulnerable());
        assert_eq!(
            r.judge("prng.seed", &[DataflowValue::Unknown]).unwrap(),
            Verdict::Undetermined
        );
        assert!(r
            .judge("exec.command", &s("su -c id"))
            .unwrap()
            .is_vulnerable());
        assert!(r
            .judge("exec.command", &s("/system/xbin/su -c id"))
            .unwrap()
            .is_vulnerable());
        assert_eq!(
            r.judge("exec.command", &s("getprop ro.build.version.sdk"))
                .unwrap(),
            Verdict::Safe
        );
        assert_eq!(
            r.judge("exec.command", &[DataflowValue::Unknown]).unwrap(),
            Verdict::Undetermined
        );
    }

    #[test]
    fn custom_rule_escape_hatch_wraps_closures() {
        let rule = VerdictRule::custom(|vs| {
            if vs.is_empty() {
                Verdict::Undetermined
            } else {
                Verdict::Safe
            }
        });
        assert_eq!(rule.evaluate(&[]), Verdict::Undetermined);
        assert_eq!(rule.evaluate(&s("x")), Verdict::Safe);
        assert!(format!("{rule:?}").contains("Custom"));
    }
}
