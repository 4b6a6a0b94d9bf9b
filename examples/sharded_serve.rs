//! Sharded serving in one sitting: a [`ShardPool`] routes protocol
//! lines to per-shard services by consistent hash, survives a shard
//! kill mid-workload, and restarts the shard **disk-warm** from the
//! shared snapshot directory — while the response stream stays
//! byte-identical to a direct, unsharded replay.
//!
//! The `backdroid-serve` binary wraps exactly this pool behind
//! `--shards N` (stdin/stdout) and `--listen tcp:…|unix:…` (the
//! length-framed socket transport).

use backdroid_appgen::benchset::BenchsetConfig;
use backdroid_appgen::workload::{self, WorkloadConfig};
use backdroid_service::proto::{self, workload_request_line};
use backdroid_service::shard::execute_request;
use backdroid_service::{Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig};
use std::sync::{Arc, Mutex};

fn main() {
    // A small corpus and a Zipf-skewed trace with hot-app bursts.
    let bench = BenchsetConfig::sized(6, 0.04);
    let trace = workload::generate(WorkloadConfig {
        apps: bench.count,
        requests: 30,
        seed: 5,
        burst_permille: 250,
        ..WorkloadConfig::default()
    });
    let lines: Vec<String> = trace
        .iter()
        .enumerate()
        .map(|(i, r)| workload_request_line(i as u64, r))
        .collect();

    // Shards share one snapshot directory, so a restarted shard finds
    // its apps' images on disk.
    let snapshot_dir =
        std::env::temp_dir().join(format!("backdroid-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let factory_dir = snapshot_dir.clone();
    let pool = ShardPool::new(
        ShardPoolConfig {
            shards: 3,
            workers_per_shard: 2,
            queue_capacity: 8,
            ..ShardPoolConfig::default()
        },
        move |_| {
            Service::over_benchset(
                bench,
                ServiceConfig {
                    snapshot_dir: Some(factory_dir.clone()),
                    ..ServiceConfig::default()
                },
            )
        },
    );

    // Collect responses by sequence number — the pool answers exactly
    // once per submission, in whatever order shards finish.
    let slots: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(vec![None; lines.len()]));
    let responder: Responder = {
        let slots = Arc::clone(&slots);
        Arc::new(move |seq, response| {
            slots.lock().expect("slots poisoned")[seq as usize] =
                Some(response.expect("workload ops produce output"));
        })
    };

    // Kill shard 0 a third of the way in, restart it two thirds in: the
    // router probes past the dead shard, nothing is lost, and the
    // restarted shard comes back disk-warm.
    for (seq, line) in lines.iter().enumerate() {
        if seq == lines.len() / 3 {
            assert!(pool.kill_shard(0));
            println!("killed shard 0 mid-workload");
        }
        if seq == 2 * lines.len() / 3 {
            assert!(pool.restart_shard(0));
            println!("restarted shard 0 (snapshots make it disk-warm)");
        }
        pool.submit_line(seq as u64, line, &responder);
    }
    pool.drain();

    // The stream is byte-identical to an unsharded direct replay.
    let direct = Service::over_benchset(bench, ServiceConfig::default());
    let mut matched = 0;
    for (seq, line) in lines.iter().enumerate() {
        let req = proto::parse_request(line).expect("trace lines parse");
        let want = execute_request(&direct, &req).expect("output");
        let got = slots.lock().expect("slots poisoned")[seq]
            .clone()
            .expect("answered");
        assert_eq!(got, want, "seq {seq} diverged");
        matched += 1;
    }
    println!(
        "{matched}/{} responses byte-identical to the direct replay",
        lines.len()
    );

    // One registry snapshot folds every shard, live and retired; a shard
    // has its own snapshot exactly while it is alive.
    let agg = pool.metrics();
    let alive = pool.shard_metrics().iter().filter(|s| s.is_some()).count();
    println!(
        "pool: {} shards ({alive} alive), {} rerouted, {} kills, {} restarts",
        pool.shard_count(),
        agg.value("pool_rerouted_total"),
        agg.value("pool_kills_total"),
        agg.value("pool_restarts_total")
    );
    println!(
        "aggregate store: {} loads, {} hits, {} disk hits (disk-warm restarts)",
        agg.value("store_loads_total"),
        agg.value("store_hits_total"),
        agg.value("store_disk_hits_total")
    );
    assert_eq!(agg.value("pool_kills_total"), 1);
    assert_eq!(agg.value("pool_restarts_total"), 1);
    assert_eq!(alive, 3);

    pool.shutdown();
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}
