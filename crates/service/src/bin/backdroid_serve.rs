//! `backdroid-serve` — the resident analysis service as a CLI: JSONL on
//! stdin/stdout, served by one thread or by a pool of single-service
//! shards, and optionally over a length-framed socket transport.
//!
//! ```console
//! $ backdroid-serve --count 8 --code-permille 40 --emit-trace 60 --seed 7 > trace.jsonl
//! $ backdroid-serve --count 8 --code-permille 40 --budget-mb 64 --workers 4 < trace.jsonl
//! $ backdroid-serve --count 8 --code-permille 40 --shards 4 < trace.jsonl
//! $ backdroid-serve --count 8 --code-permille 40 --shards 4 --listen tcp:127.0.0.1:7411 --once &
//! $ backdroid-serve --connect tcp:127.0.0.1:7411 < trace.jsonl
//! ```
//!
//! Two loops serve requests. One worker with no `--shards`, `--listen`
//! or `--trace-out` runs the single-threaded loop: the reference that
//! writes every `--direct` golden, where the admin ops
//! `kill_shard`/`restart_shard` are silent no-ops. Everything else —
//! `--workers` above 1 included — serves through a [`ShardPool`] (one
//! shard unless `--shards` says otherwise), whose shards run same-app
//! requests one at a time in submission order, so a `put_version` is
//! never overtaken by the `analyze_delta` behind it.
//!
//! Responses are emitted **in request order** whatever the worker or
//! shard count, and contain only deterministic fields, so the output
//! for one trace is byte-identical across worker counts, shard counts,
//! search backends, store budgets, and the stdin/socket transports —
//! `--direct` (a zero-budget store: every request cold-loads, nothing
//! stays resident) produces the golden direct-analysis run the CI
//! service-smoke and shard-smoke legs diff the others against. Request,
//! store and disk statistics (plus pool and per-shard lines for a pool
//! run) go to stderr at EOF, after the snapshots still held only in
//! memory are written back.
//!
//! App updates are first-class ops: `put_version` publishes a seeded
//! mutated version (persisted at once as the app's snapshot under the
//! snapshot dir), and `analyze_delta` re-analyzes only what
//! the update could have changed — rendering the same bytes as a full
//! `analyze` of that version, which the CI delta-smoke leg replay-diffs.

use backdroid_appgen::benchset::BenchsetConfig;
use backdroid_appgen::workload::{self, WorkloadConfig};
use backdroid_core::BackendChoice;
use backdroid_obs::RegistrySnapshot;
use backdroid_service::cli::{
    arg_value, budget_arg, has_flag, parsed_arg, reject_unknown_flags, usage_error,
};
use backdroid_service::proto::{self, workload_request_line};
use backdroid_service::shard::execute_request;
use backdroid_service::store::hit_rate;
use backdroid_service::transport::{write_frame, Endpoint, FrameReader, OrderedEmitter};
use backdroid_service::{Responder, Service, ServiceConfig, ShardPool, ShardPoolConfig};
use std::io::{BufRead, Read, Write};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

const USAGE: &str = "\
backdroid-serve — resident multi-app BackDroid analysis service (JSONL on stdin/stdout)

  -h, --help           print this text and exit

Benchset (the app universe; ids are decimal indices):
  --count N            apps in the backing benchset (default 24)
  --code-permille M    filler-code volume in thousandths (default 80)

Serving:
  --backend B          search backend: linear | indexed (default indexed)
  --budget-mb N        resident app-store byte budget (default 512; per shard when sharded)
  --direct             zero-budget store: every request cold-loads (golden mode);
                       a usage error together with --budget-mb
  --workers N          worker threads per shard (default 1); above 1 serves through
                       a shard pool — one shard unless --shards says otherwise
  --snapshot-dir DIR   persistent disk tier: cold loads restore from versioned,
                       checksummed snapshots in DIR; built images are written
                       back when evicted and at exit (updates at once).
                       Shared across shards, so restarted shards come back warm.
                       Responses are byte-identical with or without it.

Sharding & socket transport:
  --shards N           route requests by app-id hash over N shard services, each
                       with its own app store; admin ops kill_shard/restart_shard
                       take shards down and bring them back disk-warm
  --queue-depth N      bounded per-shard queue; submission blocks when full (default 64)
  --listen EP          serve the length-framed binary protocol on a socket
                       (EP = tcp:HOST:PORT or unix:PATH) instead of stdin
  --once               with --listen: serve exactly one connection, then exit
  --connect EP         client mode: frame stdin lines to a listening server and
                       print its responses — byte-identical to a local replay

Observability:
  --trace-out PATH     write the per-request span trace as JSONL to PATH at EOF.
                       Forces the pool path (a pool of one when unsharded), so
                       every topology traces through the same code
  --trace-norm         normalize the trace written by --trace-out: sorted by
                       (trace,span), timestamps zeroed, wall attrs dropped —
                       byte-identical across replays and shard counts
  --trace-capacity N   span-ring capacity for --trace-out (default 65536);
                       a wrapped ring is reported on stderr
  (the JSONL op {\"id\":N,\"op\":\"metrics\"} returns the full registry —
   counters, gauges, histograms with p50/p90/p99 — per shard and aggregated)

Incremental updates (JSONL ops over any transport):
  {\"id\":N,\"op\":\"put_version\",\"app\":A,\"seed\":S}
                       publish a seeded mutated version of app A; replies with
                       the new version number and its changed, added and
                       removed class counts
  {\"id\":N,\"op\":\"analyze_delta\",\"app\":A}
                       re-analyze only what the last update could have changed,
                       reusing prior verdicts — byte-identical to a full
                       \"analyze\" of the same version (modulo the echoed op)

Trace generation (prints a workload instead of serving):
  --emit-trace R       emit R seeded requests over the benchset and exit
  --seed S             workload seed (default 7)
  --zipf-permille Z    popularity skew, thousandths of s (default 1100)
  --query-permille Q   share of sink-class queries (default 300)
  --batch-permille B   share of multi-app batches (default 100)
  --burst-permille U   share of analyzes opening a 2-5 repeat hot burst (default 0)
  --deadline-permille D share of requests carrying a deadline (default 0)
  --deadline-ms MS     the deadline attached to those requests (default 50)
";

/// Every flag `USAGE` documents; [`reject_unknown_flags`] rejects any
/// other argument that starts with `-`, so a misspelt flag never
/// silently falls back to a default.
const FLAGS: &[&str] = &[
    "-h",
    "--help",
    "--count",
    "--code-permille",
    "--backend",
    "--budget-mb",
    "--direct",
    "--workers",
    "--snapshot-dir",
    "--shards",
    "--queue-depth",
    "--listen",
    "--once",
    "--connect",
    "--trace-out",
    "--trace-norm",
    "--trace-capacity",
    "--emit-trace",
    "--seed",
    "--zipf-permille",
    "--query-permille",
    "--batch-permille",
    "--burst-permille",
    "--deadline-permille",
    "--deadline-ms",
];

fn endpoint_arg(flag: &str) -> Option<Endpoint> {
    arg_value(flag).map(|v| {
        Endpoint::parse(&v).unwrap_or_else(|e| usage_error(flag, &v, &format!("an endpoint: {e}")))
    })
}

/// The value of a count flag; `0` is a usage error, not a default.
fn count_arg(flag: &str) -> Option<usize> {
    parsed_arg::<NonZeroUsize>(flag, "a positive integer").map(NonZeroUsize::get)
}

fn benchset_from_args() -> BenchsetConfig {
    let count = parsed_arg::<usize>("--count", "a positive integer").unwrap_or(24);
    let permille =
        parsed_arg::<u32>("--code-permille", "an integer (1000 ≙ paper scale)").unwrap_or(80);
    BenchsetConfig::try_sized(count, permille as f64 / 1000.0).unwrap_or_else(|e| {
        eprintln!("error: invalid benchset size: {e}");
        std::process::exit(2)
    })
}

fn main() {
    reject_unknown_flags(FLAGS);
    if has_flag("--help") || has_flag("-h") {
        print!("{USAGE}");
        return;
    }

    // Client mode needs no benchset: it only pumps frames.
    if let Some(endpoint) = endpoint_arg("--connect") {
        run_client(&endpoint);
        return;
    }

    let bench = benchset_from_args();

    if let Some(requests) = parsed_arg::<usize>("--emit-trace", "a positive integer") {
        let cfg = WorkloadConfig {
            apps: bench.count,
            requests,
            seed: parsed_arg("--seed", "an integer").unwrap_or(7),
            zipf_permille: parsed_arg("--zipf-permille", "an integer").unwrap_or(1100),
            query_permille: parsed_arg("--query-permille", "an integer").unwrap_or(300),
            batch_permille: parsed_arg("--batch-permille", "an integer").unwrap_or(100),
            burst_permille: parsed_arg("--burst-permille", "an integer").unwrap_or(0),
            deadline_permille: parsed_arg("--deadline-permille", "an integer").unwrap_or(0),
            deadline_ms: parsed_arg("--deadline-ms", "milliseconds").unwrap_or(50),
        };
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for (i, req) in workload::generate(cfg).iter().enumerate() {
            writeln!(out, "{}", workload_request_line(i as u64, req)).expect("stdout closed");
        }
        return;
    }

    let backend = match arg_value("--backend") {
        Some(v) => BackendChoice::parse(&v)
            .unwrap_or_else(|| usage_error("--backend", &v, "\"linear\" or \"indexed\"")),
        None => BackendChoice::default(),
    };
    let budget_bytes = match (has_flag("--direct"), budget_arg("--budget-mb")) {
        (false, budget) => budget.unwrap_or(512 << 20),
        (true, None) => 0,
        (true, Some(_)) => {
            eprintln!("error: --direct serves with a zero budget and takes no --budget-mb");
            std::process::exit(2)
        }
    };
    let workers = count_arg("--workers").unwrap_or(1);
    let service_cfg = ServiceConfig {
        budget_bytes,
        backend,
        snapshot_dir: arg_value("--snapshot-dir").map(std::path::PathBuf::from),
    };
    let disk_tier = service_cfg.snapshot_dir.is_some();

    let shards = count_arg("--shards");
    let queue_capacity = count_arg("--queue-depth").unwrap_or(64);
    let trace_capacity = count_arg("--trace-capacity").unwrap_or(65_536);
    let listen = endpoint_arg("--listen");
    let trace_out = arg_value("--trace-out").map(std::path::PathBuf::from);

    // Every concurrent run — several workers, the socket transport, the
    // span tracer — serves through a pool (of one shard if --shards was
    // not given), so every topology shares one path.
    if workers > 1 || shards.is_some() || listen.is_some() || trace_out.is_some() {
        let pool = ShardPool::new(
            ShardPoolConfig {
                shards: shards.unwrap_or(1),
                workers_per_shard: workers,
                queue_capacity,
                trace_capacity: if trace_out.is_some() {
                    trace_capacity
                } else {
                    0
                },
            },
            move |_| Service::over_benchset(bench, service_cfg.clone()),
        );
        match &listen {
            Some(endpoint) => serve_socket(&pool, endpoint, has_flag("--once")),
            None => serve_stdin_sharded(&pool),
        }
        if let Some(path) = &trace_out {
            write_trace(&pool, path, has_flag("--trace-norm"));
        }
        // Shutting down writes back every shard's unwritten snapshots, so
        // the summary counts those writes.
        pool.shutdown();
        let pool_budget = budget_bytes.saturating_mul(pool.shard_count() as u64);
        print_summary(&pool.metrics(), pool_budget, disk_tier, Some(&pool));
        return;
    }

    let service = Service::over_benchset(bench, service_cfg);
    serve(&service);
    service.store().flush();
    print_summary(&service.metrics().snapshot(), budget_bytes, disk_tier, None);
}

/// Writes the pool's span ring to `path` at EOF — raw JSONL, or the
/// normalized form (`(trace,span)`-sorted, zeroed timestamps, wall
/// attrs dropped) that replays diff byte-for-byte.
fn write_trace(pool: &ShardPool, path: &std::path::Path, normalized: bool) {
    let tracer = pool.tracer().expect("--trace-out enables the tracer");
    if tracer.dropped() > 0 {
        eprintln!(
            "warning: span ring wrapped, {} spans lost — raise --trace-capacity",
            tracer.dropped()
        );
    }
    let jsonl = if normalized {
        tracer.export_normalized_jsonl()
    } else {
        tracer.export_jsonl()
    };
    if let Err(e) = std::fs::write(path, jsonl) {
        eprintln!("error: cannot write trace to {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The run summary on stderr: the `requests=`, `store:` and (with a
/// disk tier) `disk:` lines from `snap` — one service's registry, or a
/// pool's aggregate judged against the pool-wide budget — then, for a
/// pool, its `pool:` line and one line per shard.
fn print_summary(
    snap: &RegistrySnapshot,
    budget_bytes: u64,
    disk_tier: bool,
    pool: Option<&ShardPool>,
) {
    let v = |name: &str| snap.value(name);
    eprintln!(
        "requests={} (analyze={} query={} batch={}) errors={} peak_in_flight={}",
        v("service_requests_total"),
        v("service_analyze_total"),
        v("service_query_total"),
        v("service_batch_total"),
        v("service_errors_total"),
        v("service_peak_in_flight"),
    );
    eprintln!(
        "store: hits={} misses={} coalesced={} loads={} evictions={} \
         resident={}B/{}B peak={}B hit_rate={:.3}",
        v("store_hits_total"),
        v("store_misses_total"),
        v("store_coalesced_total"),
        v("store_loads_total"),
        v("store_evictions_total"),
        v("store_resident_bytes"),
        budget_bytes,
        v("store_peak_resident_bytes"),
        hit_rate(snap),
    );
    if disk_tier {
        eprintln!(
            "disk: hits={} misses={} invalidations={} writes={} bytes_written={} write_failures={}",
            v("store_disk_hits_total"),
            v("store_disk_misses_total"),
            v("store_disk_invalidations_total"),
            v("store_disk_writes_total"),
            v("store_disk_bytes_written_total"),
            v("store_disk_write_failures_total"),
        );
    }
    let Some(pool) = pool else {
        return;
    };
    let shards = pool.shard_metrics();
    eprintln!(
        "pool: shards={} alive={} rerouted={} deadline_expired={} no_shard_errors={} \
         kills={} restarts={}",
        pool.shard_count(),
        shards.iter().filter(|s| s.is_some()).count(),
        v("pool_rerouted_total"),
        v("pool_deadline_expired_total"),
        v("pool_no_shard_errors_total"),
        v("pool_kills_total"),
        v("pool_restarts_total"),
    );
    for (i, shard) in shards.iter().enumerate() {
        match shard {
            Some(s) => eprintln!(
                "shard {i}: requests={} errors={} hits={} misses={} loads={} disk_hits={} \
                 resident_apps={}",
                s.value("service_requests_total"),
                s.value("service_errors_total"),
                s.value("store_hits_total"),
                s.value("store_misses_total"),
                s.value("store_loads_total"),
                s.value("store_disk_hits_total"),
                s.value("store_resident_apps"),
            ),
            None => eprintln!("shard {i}: down"),
        }
    }
}

/// Handles one input line against a single (unsharded) service; `None`
/// means nothing to emit (blank line, admin no-ops).
fn handle(service: &Service, line: &str) -> Option<String> {
    match proto::decode_line(line)? {
        Ok(request) => execute_request(service, &request),
        Err(error) => Some(error),
    }
}

fn serve(service: &Service) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("stdin read failed");
        if let Some(resp) = handle(service, &line) {
            writeln!(out, "{resp}").expect("stdout closed");
        }
    }
}

/// Stdout responder over an ordered emitter: `None` completions are
/// swallowed, so sharded stdin output matches the sequential server's.
fn stdout_responder() -> (Responder, Arc<OrderedEmitter>) {
    let emitter = Arc::new(OrderedEmitter::new(|line: Option<String>| {
        if let Some(line) = line {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            writeln!(out, "{line}").expect("stdout closed");
        }
    }));
    let sink = Arc::clone(&emitter);
    let responder: Responder = Arc::new(move |seq, line| sink.emit(seq, line));
    (responder, emitter)
}

fn serve_stdin_sharded(pool: &ShardPool) {
    let (responder, emitter) = stdout_responder();
    let stdin = std::io::stdin();
    let mut seq = 0u64;
    for line in stdin.lock().lines() {
        let line = line.expect("stdin read failed");
        pool.submit_line(seq, &line, &responder);
        seq += 1;
    }
    pool.drain();
    emitter.wait_for(seq);
}

/// Serves one accepted connection: each request frame is one protocol
/// line; each gets exactly one response frame back, in request order
/// (an empty frame for "no output"), so the client stays in lockstep.
fn serve_connection(pool: &ShardPool, reader: impl Read, writer: impl Write + Send + 'static) {
    let writer = Mutex::new(writer);
    let emitter = Arc::new(OrderedEmitter::new(move |line: Option<String>| {
        let mut w = writer.lock().expect("connection writer poisoned");
        let payload = line.as_deref().unwrap_or("");
        if write_frame(&mut *w, payload.as_bytes())
            .and_then(|()| w.flush())
            .is_err()
        {
            // The client went away; keep draining silently.
        }
    }));
    let sink = Arc::clone(&emitter);
    let responder: Responder = Arc::new(move |seq, line| sink.emit(seq, line));
    let mut frames = FrameReader::new(reader);
    let mut seq = 0u64;
    loop {
        match frames.read_frame() {
            Ok(Some(payload)) => {
                let line = String::from_utf8_lossy(&payload).into_owned();
                pool.submit_line(seq, &line, &responder);
                seq += 1;
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("connection dropped: {e}");
                break;
            }
        }
    }
    pool.drain();
    emitter.wait_for(seq);
}

fn serve_socket(pool: &ShardPool, endpoint: &Endpoint, once: bool) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                usage_error("--listen", addr, &format!("a bindable address ({e})"))
            });
            eprintln!("listening on {endpoint}");
            loop {
                let (stream, _) = listener.accept().expect("accept failed");
                let reader = stream.try_clone().expect("stream clone failed");
                serve_connection(pool, reader, stream);
                if once {
                    break;
                }
            }
        }
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path).unwrap_or_else(|e| {
                usage_error(
                    "--listen",
                    &path.display().to_string(),
                    &format!("a bindable path ({e})"),
                )
            });
            eprintln!("listening on {endpoint}");
            loop {
                let (stream, _) = listener.accept().expect("accept failed");
                let reader = stream.try_clone().expect("stream clone failed");
                serve_connection(pool, reader, stream);
                if once {
                    break;
                }
            }
        }
    }
}

/// Client mode: frame stdin lines to the server, print every non-empty
/// response payload to stdout. Output is byte-identical to a local
/// stdin replay of the same trace.
fn run_client(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
                usage_error("--connect", addr, &format!("a reachable server ({e})"))
            });
            let reader = stream.try_clone().expect("stream clone failed");
            let writer = stream.try_clone().expect("stream clone failed");
            pump_client(reader, writer, move || {
                let _ = stream.shutdown(std::net::Shutdown::Write);
            });
        }
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(path).unwrap_or_else(|e| {
                usage_error(
                    "--connect",
                    &path.display().to_string(),
                    &format!("a reachable server ({e})"),
                )
            });
            let reader = stream.try_clone().expect("stream clone failed");
            let writer = stream.try_clone().expect("stream clone failed");
            pump_client(reader, writer, move || {
                let _ = stream.shutdown(std::net::Shutdown::Write);
            });
        }
    }
}

fn pump_client(
    reader: impl Read + Send + 'static,
    mut writer: impl Write,
    half_close: impl FnOnce(),
) {
    let printer = std::thread::spawn(move || {
        let mut frames = FrameReader::new(reader);
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        loop {
            match frames.read_frame() {
                Ok(Some(payload)) => {
                    if !payload.is_empty() {
                        out.write_all(&payload).expect("stdout closed");
                        out.write_all(b"\n").expect("stdout closed");
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("error: server connection lost: {e}");
                    std::process::exit(1);
                }
            }
        }
    });
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin read failed");
        write_frame(&mut writer, line.as_bytes()).expect("server closed the connection");
    }
    writer.flush().expect("server closed the connection");
    half_close();
    printer.join().expect("response printer panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_list_matches_the_usage_text() {
        // Every option line of USAGE starts with the flags it documents.
        let mut documented: Vec<&str> = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  "))
            .filter(|l| l.starts_with('-'))
            .flat_map(|l| l.split_whitespace().take_while(|w| w.starts_with('-')))
            .map(|w| w.trim_end_matches(','))
            .collect();
        documented.sort_unstable();
        let mut flags = FLAGS.to_vec();
        flags.sort_unstable();
        assert_eq!(documented, flags);
    }
}
