//! Fault injection on the sharded serving layer, tier-1 enforced: kill
//! a shard **mid-burst** while requests for its apps are queued and in
//! flight, and prove the pool
//!
//! * serves what the killed shard had queued before it stops, and
//!   re-routes later traffic to surviving shards (no request is lost,
//!   none is answered twice),
//! * keeps every response byte-identical to the no-fault direct golden,
//! * drains cleanly, and
//! * brings a restarted shard back **disk-warm**: its fresh `AppStore`
//!   serves first-touch loads from the shared snapshot directory
//!   instead of cold-parsing, and
//! * answers a request that panics with one error reply, while the
//!   stream around it completes unchanged.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_appgen::workload::{self, WorkloadConfig};
use backdroid_core::{AppArtifacts, BackendChoice};
use backdroid_service::proto::{self, workload_request_line};
use backdroid_service::shard::execute_request;
use backdroid_service::{
    OrderedEmitter, Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig,
};
use std::sync::{Arc, Mutex};

/// A scratch directory removed on drop (no tempfile crate vendored).
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "backdroid-shard-fault-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn analyze_line(id: u64, app: usize) -> String {
    format!("{{\"id\":{id},\"op\":\"analyze\",\"app\":\"{app}\"}}")
}

/// The test trace: one warm-up analyze per app (so every app is
/// snapshotted before the fault, whichever shard serves it), then a
/// bursty Zipf workload.
fn burst_trace(bench: BenchsetConfig) -> Vec<String> {
    let mut lines: Vec<String> = (0..bench.count)
        .map(|app| analyze_line(app as u64, app))
        .collect();
    let trace = workload::generate(WorkloadConfig {
        apps: bench.count,
        requests: 40,
        seed: 23,
        burst_permille: 400,
        ..WorkloadConfig::default()
    });
    lines.extend(
        trace
            .iter()
            .enumerate()
            .map(|(i, r)| workload_request_line(100 + i as u64, r)),
    );
    lines
}

/// A responder recording each response into its seq's slot exactly once.
fn slot_responder(slots: &Arc<Mutex<Vec<Option<Option<String>>>>>) -> Responder {
    let slots = Arc::clone(slots);
    Arc::new(move |seq, response| {
        let mut slots = slots.lock().expect("slots poisoned");
        assert!(
            slots[seq as usize].is_none(),
            "seq {seq} answered more than once"
        );
        slots[seq as usize] = Some(response);
    })
}

/// Live shards: a shard holds a service exactly while it is alive.
fn alive(pool: &ShardPool) -> usize {
    pool.shard_metrics().iter().filter(|s| s.is_some()).count()
}

#[test]
fn killing_a_shard_mid_burst_loses_nothing_and_restarts_disk_warm() {
    let scratch = ScratchDir::new("mid-burst");
    let bench = BenchsetConfig::sized(5, 0.04);
    let backend = BackendChoice::Indexed;
    let lines = burst_trace(bench);

    // No-fault golden from a single direct service (store-independent:
    // responses are pure functions of app + requested sinks).
    let direct = Service::over_benchset(
        bench,
        ServiceConfig {
            budget_bytes: u64::MAX,
            backend,
            ..ServiceConfig::default()
        },
    );
    let direct_response = |line: &str| -> String {
        let req = proto::parse_request(line).expect("trace lines parse");
        execute_request(&direct, &req).expect("trace ops all produce output")
    };
    let golden: Vec<String> = lines.iter().map(|l| direct_response(l)).collect();

    let snapshot_dir = scratch.0.clone();
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 3,
            workers_per_shard: 1,
            queue_capacity: 4,
            ..ShardPoolConfig::default()
        },
        move |_| {
            Service::over_benchset(
                bench,
                ServiceConfig {
                    budget_bytes: u64::MAX,
                    backend,
                    snapshot_dir: Some(snapshot_dir.clone()),
                },
            )
        },
    );
    let victim = pool.route("0"); // the shard owning app "0"

    // Slots: the trace, one post-kill reroute probe, one analyze per app
    // after the restart.
    let probe_seq = lines.len();
    let tail_base = probe_seq + 1;
    let slots: Arc<Mutex<Vec<Option<Option<String>>>>> =
        Arc::new(Mutex::new(vec![None; tail_base + bench.count]));
    let responder = slot_responder(&slots);

    // Submit the first half from a background thread while the main
    // thread kills the victim — the kill lands mid-burst, with requests
    // queued and in flight (queue_capacity 4 guarantees backlog).
    let mid = lines.len() / 2;
    std::thread::scope(|scope| {
        let pool = &pool;
        let responder = responder.clone();
        let first_half = &lines[..mid];
        scope.spawn(move || {
            for (seq, line) in first_half.iter().enumerate() {
                pool.submit_line(seq as u64, line, &responder);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert!(pool.kill_shard(victim), "first kill succeeds");
        assert!(!pool.kill_shard(victim), "second kill is a no-op");
    });

    // The pool keeps serving with one shard down; traffic for the dead
    // shard's apps re-routes to survivors.
    for (seq, line) in lines.iter().enumerate().skip(mid) {
        pool.submit_line(seq as u64, line, &responder);
    }
    // Guaranteed reroute witness: app "0" belongs to the dead victim.
    pool.submit_line(probe_seq as u64, &analyze_line(400, 0), &responder);
    pool.drain();
    assert!(
        pool.metrics().value("pool_rerouted_total") >= 1,
        "requests for the dead shard's apps must be rerouted"
    );
    assert_eq!(alive(&pool), 2);

    // Restart: the shard must come back alive — and because its fresh
    // store shares the snapshot directory, its first-touch loads are
    // disk-warm restores, not cold parses.
    assert!(pool.restart_shard(victim), "restart revives the shard");
    assert!(
        !pool.restart_shard(victim),
        "restarting a live shard is a no-op"
    );
    let fresh = pool.shard_metrics()[victim]
        .clone()
        .expect("restarted shard reports stats");
    assert_eq!(
        fresh.value("store_loads_total"),
        0,
        "fresh store starts empty"
    );

    let tail: Vec<String> = (0..bench.count)
        .map(|app| analyze_line(500 + app as u64, app))
        .collect();
    for (k, line) in tail.iter().enumerate() {
        pool.submit_line((tail_base + k) as u64, line, &responder);
    }
    pool.drain();

    let after = pool.shard_metrics()[victim]
        .clone()
        .expect("restarted shard reports stats");
    assert!(
        after.value("store_disk_hits_total") > 0,
        "restarted shard must load from the shared snapshot tier, got {after:?}"
    );
    assert_eq!(
        after.value("store_disk_misses_total"),
        0,
        "every app the victim re-loads was snapshotted before the kill"
    );

    // Exactly-once, byte-identical: every trace seq holds the golden
    // response; probe and post-restart tail match direct analyses.
    let slots = slots.lock().expect("slots poisoned");
    let answer = |seq: usize| -> &String {
        slots[seq]
            .as_ref()
            .unwrap_or_else(|| panic!("seq {seq} lost"))
            .as_ref()
            .unwrap_or_else(|| panic!("seq {seq} answered without output"))
    };
    for (seq, golden_line) in golden.iter().enumerate() {
        assert_eq!(
            answer(seq),
            golden_line,
            "seq {seq} diverged across the kill"
        );
    }
    assert_eq!(answer(probe_seq), &direct_response(&analyze_line(400, 0)));
    for (k, line) in tail.iter().enumerate() {
        assert_eq!(
            answer(tail_base + k),
            &direct_response(line),
            "post-restart response diverged"
        );
    }
    drop(slots);

    let stats = pool.metrics();
    assert_eq!(stats.value("pool_kills_total"), 1);
    assert_eq!(stats.value("pool_restarts_total"), 1);
    assert_eq!(alive(&pool), 3);
    assert_eq!(
        stats.value("pool_no_shard_errors_total"),
        0,
        "two shards always survived"
    );
    pool.shutdown();
}

#[test]
fn killing_the_only_shard_still_answers_the_requests_queued_before_it() {
    // One shard with one worker: six cold analyses are submitted, and the
    // kill lands while most of them still wait on the queue. They came
    // before the kill, so each gets its full reply; only the request
    // submitted while no shard is alive is refused.
    let bench = BenchsetConfig::sized(6, 0.04);
    let direct = Service::over_benchset(bench, ServiceConfig::default());
    let direct_response = |line: &str| -> String {
        let req = proto::parse_request(line).expect("test lines parse");
        execute_request(&direct, &req).expect("analyze replies")
    };
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 1,
            workers_per_shard: 1,
            ..ShardPoolConfig::default()
        },
        move |_| Service::over_benchset(bench, ServiceConfig::default()),
    );
    let mut lines: Vec<String> = (0..bench.count)
        .map(|app| analyze_line(app as u64, app))
        .collect();
    lines.push(r#"{"id":90,"op":"kill_shard","shard":0}"#.to_string());
    lines.push(analyze_line(91, 1));
    lines.push(r#"{"id":92,"op":"restart_shard","shard":0}"#.to_string());
    lines.push(analyze_line(93, 1));
    let slots: Arc<Mutex<Vec<Option<Option<String>>>>> =
        Arc::new(Mutex::new(vec![None; lines.len()]));
    let responder = slot_responder(&slots);
    for (seq, line) in lines.iter().enumerate() {
        pool.submit_line(seq as u64, line, &responder);
    }
    pool.drain();

    let slots = slots.lock().expect("slots poisoned");
    let answer = |seq: usize| -> Option<&str> {
        slots[seq]
            .as_ref()
            .unwrap_or_else(|| panic!("seq {seq} lost"))
            .as_deref()
    };
    for (seq, line) in lines.iter().enumerate().take(bench.count) {
        assert_eq!(
            answer(seq),
            Some(direct_response(line).as_str()),
            "seq {seq} was queued before the kill and must be served"
        );
    }
    let n = bench.count;
    assert_eq!(answer(n), None, "kill_shard replies nothing");
    assert_eq!(
        answer(n + 1),
        Some("{\"id\":91,\"error\":\"no shard available\"}")
    );
    assert_eq!(answer(n + 2), None, "restart_shard replies nothing");
    assert_eq!(answer(n + 3), Some(direct_response(&lines[n + 3]).as_str()));
    drop(slots);
    let stats = pool.metrics();
    assert_eq!(stats.value("pool_no_shard_errors_total"), 1);
    assert_eq!(stats.value("pool_rerouted_total"), 0);
    assert_eq!(stats.value("service_analyze_total"), n as u64 + 1);
    pool.shutdown();
}

#[test]
fn killing_every_shard_yields_deterministic_errors_not_hangs() {
    let bench = BenchsetConfig::sized(3, 0.04);
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 4,
            ..ShardPoolConfig::default()
        },
        move |_| Service::over_benchset(bench, ServiceConfig::default()),
    );
    assert!(pool.kill_shard(0));
    assert!(pool.kill_shard(1));

    let got: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
    let responder: Responder = {
        let got = Arc::clone(&got);
        Arc::new(move |_, response| got.lock().expect("got poisoned").push(response))
    };
    pool.submit_line(0, "{\"id\":7,\"op\":\"analyze\",\"app\":\"1\"}", &responder);
    pool.drain();
    assert_eq!(
        got.lock().expect("got poisoned").as_slice(),
        [Some(
            "{\"id\":7,\"error\":\"no shard available\"}".to_string()
        )],
        "a fully-dead pool must answer, deterministically, not hang"
    );
    assert_eq!(pool.metrics().value("pool_no_shard_errors_total"), 1);
    pool.shutdown();
}

#[test]
fn dropping_pools_right_after_their_last_reply_never_hangs() {
    // A worker that has checked the pool's `running` flag but not yet
    // parked on its condvar must still see shutdown's wake-up; a lost
    // wake-up leaves it asleep and the drop's join waiting forever. The
    // window is a few instructions wide, so drop many one-worker pools
    // the moment their only reply lands (spinning, not blocking, so the
    // drop races the worker's way back to its wait), each after a
    // slightly different delay, all under a watchdog.
    use std::sync::atomic::{AtomicBool, Ordering};
    const DROPS: usize = 5_000;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for i in 0..DROPS {
            let pool = ShardPool::new(
                ShardPoolConfig {
                    shards: 1,
                    workers_per_shard: 1,
                    ..ShardPoolConfig::default()
                },
                |_| {
                    Service::new(ServiceConfig::default(), |id: &str| {
                        Err(format!("no app {id}"))
                    })
                },
            );
            let replied = Arc::new(AtomicBool::new(false));
            let responder: Responder = {
                let replied = Arc::clone(&replied);
                Arc::new(move |_, line| {
                    assert!(line.is_some_and(|l| l.contains("\"error\"")));
                    replied.store(true, Ordering::Release);
                })
            };
            pool.submit_line(0, &analyze_line(0, 0), &responder);
            while !replied.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            for _ in 0..i % 256 {
                std::hint::spin_loop();
            }
            drop(pool);
        }
        done_tx.send(()).expect("the test is waiting");
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("a pool drop hung: shutdown's wake-up was lost");
}

#[test]
fn a_panicking_request_costs_one_error_reply_not_a_wedged_shard() {
    // The pool's loader panics on app "2"; the plain service builds it.
    // Two shards, two workers each, all requests through one ordered
    // stream: were a panic to skip its reply, release neither its app
    // nor its in-flight slot, the stream would stall at the first
    // panicking request and the kill below would wait forever.
    let bench = BenchsetConfig::sized(4, 0.04);
    let plain = Service::over_benchset(bench, ServiceConfig::default());
    let mut lines: Vec<String> = Vec::new();
    for (i, app) in [0, 2, 1, 3, 0, 2, 1, 3, 0].iter().enumerate() {
        lines.push(analyze_line(i as u64, *app));
    }
    lines.push(r#"{"id":20,"op":"query","app":"3","sinks":["ssl"]}"#.into());
    lines.push(r#"{"id":21,"op":"batch","apps":["1","0"]}"#.into());
    let panicking = [1usize, 5];
    let golden: Vec<String> = lines
        .iter()
        .map(|l| execute_request(&plain, &proto::parse_request(l).unwrap()).unwrap())
        .collect();

    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 2,
            workers_per_shard: 2,
            ..ShardPoolConfig::default()
        },
        move |_| {
            Service::new(ServiceConfig::default(), move |id: &str| {
                assert_ne!(id, "2", "injected loader fault");
                let i: usize = id.parse().map_err(|_| format!("bad id {id:?}"))?;
                let app = bench_app(i, bench).app;
                Ok(AppArtifacts::new(app.program, app.manifest))
            })
        },
    );
    let emitted: Arc<Mutex<Vec<Option<String>>>> = Arc::default();
    let emitter = {
        let emitted = Arc::clone(&emitted);
        Arc::new(OrderedEmitter::new(move |line| {
            emitted.lock().expect("emitted poisoned").push(line)
        }))
    };
    let responder: Responder = {
        let emitter = Arc::clone(&emitter);
        Arc::new(move |seq, line| emitter.emit(seq, line))
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (seq, line) in lines.iter().enumerate() {
                pool.submit_line(seq as u64, line, &responder);
            }
            emitter.wait_for(lines.len() as u64);
            for shard in 0..pool.shard_count() {
                assert!(pool.kill_shard(shard), "kill waits on no leaked job");
            }
            done_tx.send(()).expect("the test is waiting");
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the stream or a kill hung after a panicking request");
    });

    let emitted = emitted.lock().expect("emitted poisoned");
    assert_eq!(emitted.len(), lines.len(), "the stream completed");
    for (seq, (got, want)) in emitted.iter().zip(&golden).enumerate() {
        let got = got.as_deref().expect("every op replies");
        if panicking.contains(&seq) {
            assert_eq!(
                got,
                format!("{{\"id\":{seq},\"error\":\"internal error\"}}")
            );
        } else {
            assert_eq!(got, want, "seq {seq} diverged from the plain service");
        }
    }
    let stats = pool.metrics();
    assert_eq!(stats.value("pool_panics_total"), 2);
    assert_eq!(stats.value("service_analyze_total"), 9);
}
