//! Byte goldens for the reply renderer: `render_analysis`,
//! `render_batch` and `render_put_version` (also over an update chain
//! served by `Service::put_version`), the replies the executor writes
//! for a traced request mix (through a plain service and a shard pool)
//! and for requests that fail, each pinned as a `wire::fnv1a64_wide`
//! fingerprint recorded from a known-good build, and the `stats` reply
//! of a plain service and of a shard pool, pinned as literal lines.
//!
//! Every equivalence suite renders both of its sides with the same
//! renderer (served ≡ direct, delta ≡ scratch, sharded ≡ unsharded), so a
//! renderer change that moves a byte, or an analysis change that moves a
//! verdict, would pass all of them. These constants fail on any such
//! shift. A change that means to alter the reply format must update them
//! deliberately.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::fixtures::{fixture_count, snapshot_fixture};
use backdroid_appgen::AndroidApp;
use backdroid_core::{Backdroid, DataflowValue, SinkReport, Verdict};
use backdroid_ir::wire::fnv1a64_wide;
use backdroid_ir::{ClassName, FieldSig, MethodSig, Type};
use backdroid_service::proto::{
    parse_json, parse_request, render_analysis, render_batch, render_put_version, Json,
};
use backdroid_service::service::{AppAnalysis, PutVersionOutcome, ServiceError};
use backdroid_service::shard::execute_request;
use backdroid_service::{Fetch, Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Analyzes `app` with `Backdroid::analyze` on default options.
fn analysis(app_id: &str, app: &AndroidApp) -> AppAnalysis {
    AppAnalysis {
        app_id: app_id.to_string(),
        app_name: app.manifest.package().to_string(),
        report: Backdroid::default().analyze(&app.program, &app.manifest),
        fetch: Fetch::Miss,
    }
}

fn print(reply: &str) -> u64 {
    fnv1a64_wide(reply.as_bytes())
}

/// Compares fingerprints with the recorded table, printing the whole
/// computed table on mismatch so a deliberate format change can be
/// re-recorded in one step.
fn check(label: &str, got: &[u64], want: &[u64]) {
    if got != want {
        let mut table = String::new();
        for p in got {
            let _ = writeln!(table, "    0x{p:016x},");
        }
        panic!("{label}: reply bytes changed; computed table:\n{table}");
    }
}

#[test]
fn snapshot_fixture_replies_match_recorded_bytes() {
    let got: Vec<u64> = (0..fixture_count())
        .map(|i| {
            let a = analysis(&i.to_string(), &snapshot_fixture(i));
            print(&render_analysis(i as u64, "analyze", &a))
        })
        .collect();
    check("snapshot fixtures", &got, FIXTURES);
}

#[test]
fn bench_app_replies_match_recorded_bytes() {
    let cfg = BenchsetConfig::sized(8, 0.04);
    let mut vulnerable = 0;
    let got: Vec<u64> = (0..cfg.count)
        .map(|i| {
            let a = analysis(&i.to_string(), &bench_app(i, cfg).app);
            vulnerable += a.report.vulnerable_sinks().len();
            print(&render_analysis(100 + i as u64, "query", &a))
        })
        .collect();
    assert!(vulnerable > 0, "the corpus must pin some verdicts");
    check("bench apps", &got, BENCH_APPS);
}

#[test]
fn batch_and_put_version_replies_match_recorded_bytes() {
    let cfg = BenchsetConfig::sized(8, 0.04);
    let items = vec![
        Ok(analysis("2", &bench_app(2, cfg).app)),
        Err(ServiceError::Load("app index 99 out of range".into())),
        Ok(analysis("f0", &snapshot_fixture(0))),
        Err(ServiceError::UnknownDetector("we\"ird\\id".into())),
    ];
    let put = PutVersionOutcome {
        app_id: "7\t\"x\"".into(),
        version: 3,
        classes_changed: 4,
        classes_added: 1,
        classes_removed: 0,
    };
    check(
        "batch + put_version",
        &[
            print(&render_batch(41, &items)),
            print(&render_put_version(42, &put)),
        ],
        BATCH_AND_PUT,
    );
}

/// Served `put_version` replies: every app of a small benchset walks
/// the same update chain through `Service::put_version`, so the class
/// counts the service computes for each update are pinned, not only
/// the renderer. The update generator's edit kinds follow from its
/// seed more than from the app: on this benchset seeds 11–13 only
/// change classes, 1 adds one and 15 removes one.
#[test]
fn served_put_version_chain_matches_recorded_bytes() {
    let cfg = BenchsetConfig::sized(6, 0.04);
    let service = Service::over_benchset(cfg, ServiceConfig::default());
    let mut got = Vec::new();
    let (mut changed, mut added, mut removed) = (0, 0, 0);
    for i in 0..cfg.count {
        for seed in [11, 12, 13, 1, 15] {
            let outcome = service
                .put_version(&i.to_string(), seed)
                .expect("every benchset app updates");
            changed += outcome.classes_changed;
            added += outcome.classes_added;
            removed += outcome.classes_removed;
            let id = 300 + got.len() as u64;
            got.push(print(&render_put_version(id, &outcome)));
        }
    }
    assert!(
        changed > 0 && added > 0 && removed > 0,
        "the chain must pin every kind of class delta: {changed} {added} {removed}"
    );
    check("served put_version chain", &got, PUT_VERSION_CHAIN);
}

/// Every string the hand-built reply carries needs at least one escape
/// or is non-ASCII.
const NASTY: &str = "q\"b\\n\nr\rt\tc\u{1} ünï€😀";

/// A hand-built analysis covering every `DataflowValue` variant, all
/// three verdicts, empty and non-empty `entries`/`values`, and every
/// escape the renderer emits.
fn hand_built() -> AppAnalysis {
    let mut a = analysis("0", &snapshot_fixture(0));
    a.app_id = format!("id {NASTY}");
    a.app_name = format!("name {NASTY}");
    a.report.sink_cache.located = 9;
    a.report.sink_cache.skipped = 2;
    let class = ClassName::new(format!("com.gold.Ünï\"c\\{NASTY}"));
    let site = MethodSig::new(
        class.clone(),
        format!("m\t{NASTY}"),
        vec![Type::Int, Type::string(), Type::array(Type::Byte)],
        Type::Void,
    );
    let entry = MethodSig::new("com.gold.Entry", "onCreate", vec![], Type::Void);
    let field = FieldSig::new(class.clone(), format!("F\r{NASTY}"), Type::string());
    a.report.sink_reports = vec![
        SinkReport {
            sink_id: format!("sink {NASTY}"),
            site_method: site.clone(),
            stmt_idx: 3,
            reachable: true,
            entries: vec![entry.clone(), site.clone()],
            param_values: vec![
                DataflowValue::Int(-42),
                DataflowValue::Str(NASTY.into()),
                DataflowValue::Class(class.clone()),
                DataflowValue::Null,
                DataflowValue::PlatformConst(field),
                DataflowValue::Obj {
                    class: class.clone(),
                    site: 7,
                },
                DataflowValue::Arr { site: 11 },
                DataflowValue::Expr(format!("a + {NASTY}")),
                DataflowValue::Unknown,
            ],
            verdict: Verdict::Vulnerable(format!("reason {NASTY}")),
            ssg_units: 17,
        },
        SinkReport {
            sink_id: "safe".into(),
            site_method: entry.clone(),
            stmt_idx: 0,
            reachable: true,
            entries: vec![entry],
            param_values: Vec::new(),
            verdict: Verdict::Safe,
            ssg_units: 1,
        },
        SinkReport {
            sink_id: "undetermined".into(),
            site_method: site,
            stmt_idx: 12,
            reachable: false,
            entries: Vec::new(),
            param_values: vec![DataflowValue::Unknown],
            verdict: Verdict::Undetermined,
            ssg_units: 0,
        },
    ];
    a
}

#[test]
fn hand_built_reply_matches_recorded_bytes() {
    let a = hand_built();
    let reply = render_analysis(u64::MAX, "analyze_delta", &a);
    let parsed = parse_json(&reply).expect("the reply is valid JSON");
    assert_eq!(
        parsed.get("name").and_then(Json::as_str),
        Some(a.app_name.as_str()),
        "escaped strings round-trip through the parser"
    );
    let reports = parsed
        .get("reports")
        .and_then(Json::as_arr)
        .expect("reports array");
    assert_eq!(reports.len(), 3);
    let reason = reports[0].get("reason").and_then(Json::as_str);
    assert_eq!(reason, Some(format!("reason {NASTY}").as_str()));
    check("hand-built", &[print(&reply)], HAND_BUILT);
}

/// The requests both `stats` goldens replay, one at a time: analyses and
/// queries that miss, hit and (under the small budget) evict and restore
/// from disk, a batch of distinct apps, and an out-of-range app id that
/// fails to load.
const STATS_TRACE: &[&str] = &[
    r#"{"id":1,"op":"analyze","app":"0"}"#,
    r#"{"id":2,"op":"analyze","app":"1"}"#,
    r#"{"id":3,"op":"query","app":"0","sinks":["crypto"]}"#,
    r#"{"id":4,"op":"analyze","app":"2"}"#,
    r#"{"id":5,"op":"batch","apps":["3","0","1"]}"#,
    r#"{"id":6,"op":"analyze","app":"99"}"#,
    r#"{"id":7,"op":"query","app":"2","sinks":["ssl"]}"#,
    r#"{"id":8,"op":"analyze","app":"0"}"#,
    r#"{"id":9,"op":"analyze","app":"3"}"#,
];

/// A fresh, process-unique snapshot directory.
fn stats_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "backdroid-stats-golden-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four small apps (about 180 KiB resident each), a snapshot directory
/// and a budget of about two images.
fn stats_service(dir: &Path) -> Service {
    Service::over_benchset(
        BenchsetConfig::sized(4, 0.04),
        ServiceConfig {
            budget_bytes: 400 * 1024,
            snapshot_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn service_reply_to_stats_matches_recorded_line() {
    let dir = stats_dir("service");
    let service = stats_service(&dir);
    let run = |line: &str| execute_request(&service, &parse_request(line).unwrap());
    let got: Vec<u64> = STATS_TRACE
        .iter()
        .map(|line| print(&run(line).expect("every traced op replies")))
        .collect();
    let reply = run(r#"{"id":90,"op":"stats"}"#).expect("stats replies");
    let _ = std::fs::remove_dir_all(&dir);
    check("service trace", &got, STATS_TRACE_REPLIES);
    assert_eq!(reply, SERVICE_STATS);
}

#[test]
fn shard_pool_reply_to_stats_matches_recorded_line() {
    let dir = stats_dir("pool");
    let factory_dir = dir.clone();
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 2,
            workers_per_shard: 1,
            ..ShardPoolConfig::default()
        },
        move |_| stats_service(&factory_dir),
    );
    let replies: Arc<Mutex<BTreeMap<u64, Option<String>>>> = Arc::default();
    let sink = Arc::clone(&replies);
    let responder: Responder = Arc::new(move |seq, line| {
        sink.lock().unwrap().insert(seq, line);
    });
    // One line at a time: the shards share the snapshot directory, so
    // two shards evicting one app at once would race to write it.
    for (seq, line) in STATS_TRACE.iter().enumerate() {
        pool.submit_line(seq as u64, line, &responder);
        pool.drain();
    }
    // Killing a shard writes back its unwritten images, then retires its
    // counters (those writes included) into the pool's total; restarting
    // it first writes back the live shard's unwritten images.
    assert!(pool.kill_shard(0));
    assert!(pool.restart_shard(0));
    let seq = STATS_TRACE.len() as u64;
    pool.submit_line(seq, r#"{"id":91,"op":"stats"}"#, &responder);
    pool.drain();
    let replies = replies.lock().unwrap();
    let got: Vec<u64> = (0..seq)
        .map(|s| print(replies[&s].as_deref().expect("every traced op replies")))
        .collect();
    let reply = replies[&seq].clone().expect("stats replies");
    let _ = std::fs::remove_dir_all(&dir);
    check("pool trace", &got, STATS_TRACE_REPLIES);
    assert_eq!(reply, POOL_STATS);
}

/// Error replies that only the executor builds: an unknown detector, an
/// empty batch, a batch with one bad id, and an update and a delta
/// analysis of an app the loader cannot build.
#[test]
fn executor_error_replies_match_recorded_bytes() {
    let service = Service::over_benchset(BenchsetConfig::sized(4, 0.04), ServiceConfig::default());
    let lines = [
        r#"{"id":20,"op":"query","app":"0","sinks":["crypto","no_such_detector"]}"#,
        r#"{"id":21,"op":"batch","apps":[]}"#,
        r#"{"id":22,"op":"batch","apps":["1","99","2"]}"#,
        r#"{"id":23,"op":"put_version","app":"99","seed":5}"#,
        r#"{"id":24,"op":"analyze_delta","app":"99"}"#,
    ];
    let replies: Vec<String> = lines
        .iter()
        .map(|line| execute_request(&service, &parse_request(line).unwrap()).expect("replies"))
        .collect();
    for i in [0, 3, 4] {
        let id = 20 + i;
        assert!(
            replies[i].starts_with(&format!("{{\"id\":{id},\"error\":")),
            "{}",
            replies[i]
        );
    }
    let got: Vec<u64> = replies.iter().map(|r| print(r)).collect();
    check("executor errors", &got, EXECUTOR_ERRORS);
}

const SERVICE_STATS: &str = r#"{"id":90,"op":"stats","requests":9,"analyze":6,"query":2,"batch":1,"errors":1,"peak_in_flight":1,"store":{"hits":1,"misses":5,"coalesced":0,"loads":9,"load_failures":1,"evictions":7,"bytes_evicted":1360498,"disk_hits":5,"disk_misses":5,"disk_invalidations":0,"disk_writes":4,"disk_bytes_written":570934,"disk_write_failures":0,"resident_bytes":313461,"resident_apps":2,"peak_resident_bytes":407480}}"#;

const POOL_STATS: &str = r#"{"id":91,"op":"stats","requests":9,"analyze":6,"query":2,"batch":1,"errors":1,"peak_in_flight":2,"store":{"hits":2,"misses":6,"coalesced":0,"loads":8,"load_failures":1,"evictions":4,"bytes_evicted":680484,"disk_hits":3,"disk_misses":6,"disk_invalidations":0,"disk_writes":4,"disk_bytes_written":570934,"disk_write_failures":0,"resident_bytes":759041,"resident_apps":4,"peak_resident_bytes":774134}}"#;

const STATS_TRACE_REPLIES: &[u64] = &[
    0x53ee3bff3b9e0841,
    0x28c5e74ee4d7ca0f,
    0x11b6dbcce7ffc247,
    0xd60d792cfc1f5189,
    0xf9adc9dfc3b41262,
    0x5d35db432abf17fe,
    0x3edd321c6aef6604,
    0x533f3bff3b9e0841,
    0x9e0adebc436bdc1b,
];

const EXECUTOR_ERRORS: &[u64] = &[
    0x3046f7719a046a0f,
    0xda33fa46a8b29e26,
    0xc32d98691919ea44,
    0xde25907667ead091,
    0x4925907667ead091,
];

const FIXTURES: &[u64] = &[
    0xee3c12d88e706c4a,
    0xc5d856e2e6c5685c,
    0x8ff8ad71bfa814d2,
    0x3acf328d9d786a8d,
    0x76d2e7958c07c1fa,
    0x49a9e0901e65695c,
    0x642a080c634fa0e9,
    0x2bc42f6a5dc0cd95,
    0x8308a32e10b1979f,
    0x0fbf2e435c4cb677,
    0x6d0792f98366066b,
    0x30450ba9ec4b0c6d,
    0xd2804c199e31c839,
    0xf289d60078f77bad,
    0x85a0badaf9c1bab9,
    0xf757a771af3b0627,
    0x1c558c4493c1ec5e,
    0x404e5e6de577f353,
];

const BENCH_APPS: &[u64] = &[
    0x2d475922bf0a3d0b,
    0xa316177655625206,
    0x034c3c228bbd6100,
    0x3e22fc014c3444de,
    0xd86bfaf339032804,
    0x9834d30b9575dd39,
    0x3c8c67df46675603,
    0x795f93d2e6de0afe,
];

const BATCH_AND_PUT: &[u64] = &[0xe50065fb2a995c65, 0x11ee6defd2f68e7a];

const HAND_BUILT: &[u64] = &[0xf88a5bf3a9b2cd3e];

const PUT_VERSION_CHAIN: &[u64] = &[
    0x95049b064065e187,
    0xf2c012eacb64f3b4,
    0x091b23d7f9275a81,
    0x4db49325c8df720e,
    0x29ea2931a88065b3,
    0xdd9c4e850e6be2d0,
    0x03e87217e2d56f6d,
    0x956904d04b7732ea,
    0x2c6ad59c6901733f,
    0xb838ac8cf201018c,
    0x0d41ca544065e187,
    0xaab02050cb64f3b4,
    0x403f11a5f9275a81,
    0x21347337c8df720e,
    0xc5d3ca77a88065b3,
    0xed12b38f0e6be2d0,
    0x2e693b15e2d56f6d,
    0x11143b164b7732ea,
    0xac0a7b426901733f,
    0x00de16f2f201018c,
    0xfaa0e99a4065e187,
    0x2d26d9aecb64f3b4,
    0xc11dc73bf9275a81,
    0x73e26061c8df720e,
    0xe84125c5a88065b3,
    0xc06fc7210e6be2d0,
    0xa8ef3c1be2d56f6d,
    0x9fc90be44b7732ea,
    0xa73b0f806901733f,
    0xee909f60f201018c,
];
