//! PR-7 migration contract: the data-driven [`DetectorRegistry`] path
//! must be **verdict-for-verdict identical** to the legacy hardcoded
//! `judge_*` dispatch for every pre-existing sink id — over fuzzed
//! recovered values, and end-to-end on both search backends. Unknown
//! ids, by contrast, must now fail typed instead of silently returning
//! `Undetermined`.

use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::detect::judge_sms;
use backdroid_core::{
    Backdroid, BackdroidOptions, BackendChoice, DataflowValue, DetectorError, DetectorRegistry,
    Verdict,
};
use backdroid_ir::{ClassName, FieldSig, Type};
use proptest::prelude::*;

/// A legacy verdict oracle: one of the pre-registry `judge_*` functions.
type LegacyJudge = fn(&[DataflowValue]) -> Verdict;

/// Block ciphers that default to ECB mode when no mode is specified.
const ECB_DEFAULT_CIPHERS: &[&str] = &["AES", "DES", "DESEDE", "BLOWFISH", "RC2"];

/// Judges a `Cipher.getInstance` transformation string: explicit `/ECB/`
/// mode, or a bare block-cipher name (which defaults to ECB) \[28\], \[30\].
fn judge_cipher(values: &[DataflowValue]) -> Verdict {
    let Some(v) = values.first() else {
        return Verdict::Undetermined;
    };
    match v {
        DataflowValue::Str(s) => {
            let upper = s.to_uppercase();
            let mut parts = upper.split('/');
            let algo = parts.next().unwrap_or("");
            match parts.next() {
                Some(mode) => {
                    if mode == "ECB" {
                        Verdict::Vulnerable(format!("explicit ECB mode in \"{s}\""))
                    } else {
                        Verdict::Safe
                    }
                }
                None => {
                    if ECB_DEFAULT_CIPHERS.contains(&algo) {
                        Verdict::Vulnerable(format!(
                            "bare \"{s}\" defaults to ECB for block ciphers"
                        ))
                    } else {
                        Verdict::Safe
                    }
                }
            }
        }
        _ => Verdict::Undetermined,
    }
}

/// Judges a `setHostnameVerifier` argument: the permissive
/// `ALLOW_ALL_HOSTNAME_VERIFIER` constant or an `AllowAllHostnameVerifier`
/// instance is vulnerable \[31\], \[33\], \[60\].
fn judge_verifier(values: &[DataflowValue]) -> Verdict {
    let Some(v) = values.first() else {
        return Verdict::Undetermined;
    };
    match v {
        DataflowValue::PlatformConst(f) if f.name() == "ALLOW_ALL_HOSTNAME_VERIFIER" => {
            Verdict::Vulnerable("ALLOW_ALL_HOSTNAME_VERIFIER disables hostname checks".into())
        }
        DataflowValue::PlatformConst(_) => Verdict::Safe,
        DataflowValue::Obj { class, .. } => {
            let n = class.simple_name();
            if n.contains("AllowAll") || n.contains("NullHostnameVerifier") {
                Verdict::Vulnerable(format!("permissive verifier instance {class}"))
            } else if n.contains("Strict") || n.contains("BrowserCompat") {
                Verdict::Safe
            } else {
                Verdict::Undetermined
            }
        }
        _ => Verdict::Undetermined,
    }
}

/// Judges a `new ServerSocket(port)` call: a constant port means the app
/// opens a TCP listener — the open-port exposure of \[70\] (§VI-D). Ports
/// below 1024 would not even bind on Android; flag the rest.
fn judge_server_socket(values: &[DataflowValue]) -> Verdict {
    match values.first() {
        Some(DataflowValue::Int(port)) if *port >= 1024 && *port <= 65535 => {
            Verdict::Vulnerable(format!("app opens TCP port {port} to the network"))
        }
        Some(DataflowValue::Int(_)) => Verdict::Safe,
        _ => Verdict::Undetermined,
    }
}

/// Judges a `new LocalServerSocket(name)` call: a constant address means
/// an exposed Unix domain socket (the misuse of \[59\], §VI-D).
fn judge_local_socket(values: &[DataflowValue]) -> Verdict {
    match values.first() {
        Some(DataflowValue::Str(name)) => {
            Verdict::Vulnerable(format!("exposed Unix domain socket \"{name}\""))
        }
        _ => Verdict::Undetermined,
    }
}

/// The pre-existing sink ids and their legacy judge functions — the
/// oracles the registry path must reproduce exactly.
const LEGACY_SINKS: &[(&str, LegacyJudge)] = &[
    ("crypto.cipher", judge_cipher),
    ("ssl.verifier.factory", judge_verifier),
    ("ssl.verifier.connection", judge_verifier),
    ("sms.send", judge_sms),
    ("socket.server", judge_server_socket),
    ("socket.local", judge_local_socket),
];

/// Platform-constant names that exercise both the flagged and the
/// cleared arms of the SSL rule, plus arbitrary others.
fn const_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("ALLOW_ALL_HOSTNAME_VERIFIER".to_string()),
        Just("STRICT_HOSTNAME_VERIFIER".to_string()),
        "[A-Z][A-Z_]{0,20}",
    ]
}

/// Class names biased toward the verifier fragments the SSL rule keys
/// on (`AllowAll`, `Strict`, …) so the Obj arm is actually covered.
fn obj_class() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("org.apache.http.conn.ssl.AllowAllHostnameVerifier".to_string()),
        Just("com.x.NullHostnameVerifier".to_string()),
        Just("org.apache.http.conn.ssl.StrictHostnameVerifier".to_string()),
        Just("org.apache.http.conn.ssl.BrowserCompatHostnameVerifier".to_string()),
        "[a-z]{1,6}\\.[A-Z][a-zA-Z0-9]{0,10}",
    ]
}

/// Strings biased toward shapes the rules dispatch on: cipher
/// transformations, short codes, socket names, and arbitrary noise.
fn value_str() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("AES/ECB/PKCS5Padding".to_string()),
        Just("AES/GCM/NoPadding".to_string()),
        Just("des".to_string()),
        Just("RSA".to_string()),
        Just("+4733".to_string()),
        Just("12345678901".to_string()),
        "[0-9]{1,8}",
        "[ -~]{0,24}",
    ]
}

/// One fuzzed recovered value covering every [`DataflowValue`] variant.
fn dataflow_value() -> impl Strategy<Value = DataflowValue> {
    prop_oneof![
        any::<i64>().prop_map(DataflowValue::Int),
        (0i64..100_000).prop_map(DataflowValue::Int),
        value_str().prop_map(DataflowValue::Str),
        obj_class().prop_map(|c| DataflowValue::Class(ClassName::new(c))),
        Just(DataflowValue::Null),
        const_name().prop_map(|n| {
            DataflowValue::PlatformConst(FieldSig::new(
                "org.apache.http.conn.ssl.SSLSocketFactory",
                n,
                Type::object("org.apache.http.conn.ssl.X509HostnameVerifier"),
            ))
        }),
        (obj_class(), 0usize..64).prop_map(|(c, site)| DataflowValue::Obj {
            class: ClassName::new(c),
            site,
        }),
        (0usize..64).prop_map(|site| DataflowValue::Arr { site }),
        value_str().prop_map(DataflowValue::Expr),
        Just(DataflowValue::Unknown),
    ]
}

fn strs(v: &str) -> Vec<DataflowValue> {
    vec![DataflowValue::Str(v.into())]
}

/// The oracles themselves hold the paper's verdicts on hand-picked
/// values, so the fuzzed equivalence below pins the registry to them.
#[test]
fn legacy_oracles_give_the_paper_verdicts() {
    for v in ["AES/ECB/PKCS5Padding", "DES/ECB/NoPadding", "AES", "DESede"] {
        assert!(judge_cipher(&strs(v)).is_vulnerable(), "{v}");
    }
    // RSA has no ECB-default concern in this rule set.
    for v in ["RSA", "AES/CBC/PKCS5Padding", "AES/GCM/NoPadding"] {
        assert_eq!(judge_cipher(&strs(v)), Verdict::Safe, "{v}");
    }
    for values in [
        vec![DataflowValue::Unknown],
        vec![],
        vec![DataflowValue::Expr("a + b".into())],
    ] {
        assert_eq!(judge_cipher(&values), Verdict::Undetermined);
    }

    let factory_const = |name: &str| {
        DataflowValue::PlatformConst(FieldSig::new(
            "org.apache.http.conn.ssl.SSLSocketFactory",
            name,
            Type::object("org.apache.http.conn.ssl.X509HostnameVerifier"),
        ))
    };
    let instance = |class: &str| DataflowValue::Obj {
        class: ClassName::new(class),
        site: 0,
    };
    assert!(judge_verifier(&[factory_const("ALLOW_ALL_HOSTNAME_VERIFIER")]).is_vulnerable());
    assert_eq!(
        judge_verifier(&[factory_const("STRICT_HOSTNAME_VERIFIER")]),
        Verdict::Safe
    );
    assert!(judge_verifier(&[instance(
        "org.apache.http.conn.ssl.AllowAllHostnameVerifier"
    )])
    .is_vulnerable());
    assert_eq!(
        judge_verifier(&[instance("org.apache.http.conn.ssl.StrictHostnameVerifier")]),
        Verdict::Safe
    );
    assert_eq!(
        judge_verifier(&[instance("com.a.MyVerifier")]),
        Verdict::Undetermined
    );

    assert!(judge_server_socket(&[DataflowValue::Int(8089)]).is_vulnerable());
    assert_eq!(
        judge_server_socket(&[DataflowValue::Int(80)]),
        Verdict::Safe
    );
    assert_eq!(
        judge_server_socket(&[DataflowValue::Unknown]),
        Verdict::Undetermined
    );

    assert!(judge_local_socket(&strs("debug_port")).is_vulnerable());
    assert_eq!(
        judge_local_socket(&[DataflowValue::Unknown]),
        Verdict::Undetermined
    );
}

proptest! {
    /// Satellite 2: for every pre-existing sink id, the registry's
    /// data-driven rule and the legacy `judge_*` oracle agree on every
    /// fuzzed value vector — including the empty one.
    #[test]
    fn registry_judges_match_legacy_dispatch(
        values in prop::collection::vec(dataflow_value(), 0..4)
    ) {
        let registry = DetectorRegistry::extended();
        for (sink_id, oracle) in LEGACY_SINKS {
            let via_registry = registry
                .judge(sink_id, &values)
                .expect("pre-existing sink id is registered");
            prop_assert_eq!(
                via_registry,
                oracle(&values),
                "sink {} diverged on {:?}",
                sink_id,
                values
            );
        }
    }

    /// Satellite 1: unknown ids are typed errors on the registry path —
    /// never a silent `Undetermined` — regardless of the values.
    #[test]
    fn unknown_sink_ids_fail_typed(values in prop::collection::vec(dataflow_value(), 0..4)) {
        let registry = DetectorRegistry::extended();
        prop_assert_eq!(
            registry.judge("no.such.sink", &values),
            Err(DetectorError::UnknownSink("no.such.sink".into()))
        );
    }
}

/// End-to-end leg: the registry-backed engine produces identical
/// reports on both search backends, for every sink kind the generator
/// can emit — the two paper classes and the three new ones — in both
/// insecure and secure variants.
#[test]
fn registry_path_is_backend_invariant_end_to_end() {
    let kinds = [
        SinkKind::Cipher,
        SinkKind::SslVerifier,
        SinkKind::WebViewJsInterface,
        SinkKind::PrngSeed,
        SinkKind::ExecCommand,
    ];
    for kind in kinds {
        for insecure in [true, false] {
            let app = AppSpec::named(format!("com.reg.{kind:?}{insecure}").to_lowercase())
                .with_scenario(Scenario::new(Mechanism::PrivateChain, kind, insecure))
                .with_filler(6, 3, 4)
                .generate();
            let run = |backend: BackendChoice| {
                Backdroid::with_options(BackdroidOptions {
                    backend,
                    detectors: DetectorRegistry::full(),
                    ..BackdroidOptions::default()
                })
                .analyze(&app.program, &app.manifest)
            };
            let linear = run(BackendChoice::LinearScan);
            let indexed = run(BackendChoice::Indexed);
            assert_eq!(
                linear.sink_reports, indexed.sink_reports,
                "{kind:?} insecure={insecure}: reports must not depend on the backend"
            );
        }
    }
}
