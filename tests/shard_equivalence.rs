//! Sharded-serving equivalence, tier-1 enforced: a [`ShardPool`] must be
//! an *invisible* scaling layer. For every shard count (1, 2, 8), both
//! search backends, and fuzzed submission interleavings, the response
//! stream is **byte-identical** to the direct single-service replay the
//! `backdroid-serve --direct` CI golden is built from — routing,
//! queueing, and per-shard stores never leak into response bytes.

use backdroid_appgen::benchset::BenchsetConfig;
use backdroid_appgen::workload::{self, WorkloadConfig};
use backdroid_core::BackendChoice;
use backdroid_service::proto::{self, workload_request_line};
use backdroid_service::shard::execute_request;
use backdroid_service::{Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig};
use std::sync::{Arc, Mutex};

fn small_trace() -> (BenchsetConfig, Vec<String>) {
    let bench = BenchsetConfig::sized(5, 0.04);
    let trace = workload::generate(WorkloadConfig {
        apps: bench.count,
        requests: 36,
        seed: 11,
        ..WorkloadConfig::default()
    });
    let lines: Vec<String> = trace
        .iter()
        .enumerate()
        .map(|(i, r)| workload_request_line(i as u64, r))
        .collect();
    (bench, lines)
}

fn service_config(backend: BackendChoice) -> ServiceConfig {
    ServiceConfig {
        budget_bytes: u64::MAX,
        backend,
        ..ServiceConfig::default()
    }
}

/// The golden: every line answered by one direct service, in order —
/// exactly what `backdroid-serve --direct` replays in CI.
fn direct_golden(bench: BenchsetConfig, backend: BackendChoice, lines: &[String]) -> Vec<String> {
    let service = Service::over_benchset(bench, service_config(backend));
    lines
        .iter()
        .map(|line| {
            let req = proto::parse_request(line).expect("trace lines parse");
            execute_request(&service, &req).expect("trace ops all produce output")
        })
        .collect()
}

/// Replays the lines through a pool of `shards`, submitted from
/// `submitters` threads in interleaved chunks, and returns the responses
/// in sequence order.
fn sharded_replay(
    bench: BenchsetConfig,
    backend: BackendChoice,
    lines: &[String],
    shards: usize,
    submitters: usize,
) -> Vec<String> {
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards,
            workers_per_shard: 2,
            queue_capacity: 8,
            ..ShardPoolConfig::default()
        },
        move |_| Service::over_benchset(bench, service_config(backend)),
    );
    let slots: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(vec![None; lines.len()]));
    let responder: Responder = {
        let slots = Arc::clone(&slots);
        Arc::new(move |seq, response| {
            let mut slots = slots.lock().expect("slots poisoned");
            assert!(
                slots[seq as usize].is_none(),
                "seq {seq} answered more than once"
            );
            slots[seq as usize] = Some(response.expect("trace ops all produce output"));
        })
    };
    // Fuzzed interleaving: submitter t sends seqs t, t+n, t+2n, … — the
    // pool sees requests out of order, arbitrarily overlapped.
    std::thread::scope(|scope| {
        for t in 0..submitters {
            let pool = &pool;
            let responder = responder.clone();
            scope.spawn(move || {
                for (seq, line) in lines.iter().enumerate().skip(t).step_by(submitters) {
                    pool.submit_line(seq as u64, line, &responder);
                }
            });
        }
    });
    pool.drain();
    let answers: Vec<String> = slots
        .lock()
        .expect("slots poisoned")
        .iter()
        .map(|s| s.clone().expect("every seq answered"))
        .collect();
    pool.shutdown();
    answers
}

#[test]
fn sharded_replay_is_byte_identical_to_direct_for_every_topology() {
    let (bench, lines) = small_trace();
    for backend in [BackendChoice::LinearScan, BackendChoice::Indexed] {
        let golden = direct_golden(bench, backend, &lines);
        assert_eq!(golden.len(), lines.len());
        for shards in [1usize, 2, 8] {
            for submitters in [1usize, 3] {
                let sharded = sharded_replay(bench, backend, &lines, shards, submitters);
                assert_eq!(
                    sharded, golden,
                    "backend {backend:?}, {shards} shard(s), {submitters} submitter(s): \
                     responses must not depend on topology or interleaving"
                );
            }
        }
    }
}

#[test]
fn stats_and_admin_lines_splice_cleanly_into_traces() {
    // The CI kill-one-shard leg splices admin ops into a replayed trace;
    // they must not disturb the data-plane byte stream: admin ops answer
    // nothing and `stats` is excluded from goldens.
    let (bench, lines) = small_trace();
    let backend = BackendChoice::Indexed;
    let golden = direct_golden(bench, backend, &lines);

    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 8,
            ..ShardPoolConfig::default()
        },
        move |_| Service::over_benchset(bench, service_config(backend)),
    );
    let data: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let responder: Responder = {
        let data = Arc::clone(&data);
        Arc::new(move |seq, response| {
            if let Some(line) = response {
                data.lock().expect("data poisoned").push((seq, line));
            }
        })
    };
    let mut seq = 0u64;
    for (i, line) in lines.iter().enumerate() {
        if i == 10 {
            // Admin splice: kill shard 0, then bring it back.
            pool.submit_line(
                seq,
                "{\"id\":900,\"op\":\"kill_shard\",\"shard\":0}",
                &responder,
            );
            seq += 1;
            pool.submit_line(
                seq,
                "{\"id\":901,\"op\":\"restart_shard\",\"shard\":0}",
                &responder,
            );
            seq += 1;
        }
        pool.submit_line(seq, line, &responder);
        seq += 1;
    }
    pool.drain();
    let mut data = data.lock().expect("data poisoned").clone();
    data.sort_by_key(|(seq, _)| *seq);
    let answers: Vec<String> = data.into_iter().map(|(_, line)| line).collect();
    assert_eq!(
        answers, golden,
        "admin ops must be invisible in the data-plane stream"
    );
    assert!(pool.metrics().value("pool_kills_total") >= 1);
    pool.shutdown();
}
