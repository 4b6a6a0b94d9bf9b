//! # backdroid-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! BackDroid paper's evaluation (§II-B, §II-C, §VI). One binary per
//! artifact:
//!
//! | Binary                  | Paper artifact |
//! |-------------------------|----------------|
//! | `table1_app_sizes`      | Table I — app-size growth 2014–2018 |
//! | `fig1_flowdroid_cg`     | Fig 1 — FlowDroid call-graph generation time |
//! | `fig7_fig8_compare`     | Fig 7 + Fig 8 + the 37× median headline |
//! | `fig9_sinks_vs_time`    | Fig 9 — #sink calls vs BackDroid time |
//! | `detection_comparison`  | §VI-C — detection accuracy both ways |
//! | `cache_stats`           | §IV-F — cache rates and loop statistics |
//! | `search_backend_bench`  | linear-vs-indexed search backend cost + equivalence |
//! | `service_throughput`    | serving-layer throughput: req/s, cold-parse vs disk-warm vs memory-warm latency tiers, store evictions |
//! | `snapshot_bench`        | snapshot layer: parse vs serialize vs restore cost, round-trip exactness |
//! | `update_latency`        | incremental update path: delta-warm vs cold per-version cost, verdict/chunk reuse, delta ≡ from-scratch |
//!
//! Run with `cargo run --release -p backdroid-bench --bin <name>`. Each
//! bin lists the flags it reads and exits with status 2 on any other
//! argument starting with `-` (`backdroid_service::cli`). Common flags
//! (parsed by [`harness`]):
//!
//! * `--small` / `--count N [--code-permille M]` — corpus size (default:
//!   the paper-scale 144-app set);
//! * `--backend linear|indexed` — search backend (default indexed; both
//!   are hit-for-hit identical, so detection output never changes);
//! * `--threads N` — parallel corpus driver width (default: all cores;
//!   deterministic report output is byte-identical for any value);
//! * `--json PATH` — also write the run's JSON artifact (every report
//!   bin but `fig1_flowdroid_cg` and `ablation_caching` supports it;
//!   all are deterministic and CI-diffable except `service_throughput`,
//!   whose `wall_*` fields measure a live serving system);
//! * `--baseline PATH` — check the run against a committed
//!   machine-independent `BENCH_*.json` envelope (see [`baseline`];
//!   supported by `service_throughput`, `snapshot_bench`,
//!   `search_backend_bench`, `fig7_fig8_compare`, and `update_latency`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod harness;
pub mod json;

pub use baseline::{baseline_path_from_args, percentile, Band, Baseline};

pub use harness::{
    backdroid_minutes, backdroid_minutes_indexed, backend_from_args, bucket_label,
    json_path_from_args, median, par_map, run_amandroid_on, run_backdroid_on,
    run_backdroid_with_backend, run_benchset, run_benchset_with, scale_from_args,
    threads_from_args, AmandroidRun, BackdroidRun, BenchRun, Scale, BACKDROID_LINES_PER_MINUTE,
};
