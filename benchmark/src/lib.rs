//! The repository benchmark: three seeded, closed-loop workloads driven
//! through the serving front door (`ShardPool::submit_line` with wire
//! request lines), every reply checked against a golden computed on the
//! plain direct path, plus a separate traced run that times each call
//! into a layer's public function and reports a per-layer ledger.
//!
//! * [`inputs`] — the corpus and the per-workload request plans, pure
//!   functions of the workload seed;
//! * [`golden`] — the correctness oracle (`Backdroid::analyze` on the
//!   program, rendered with the wire renderers);
//! * [`drive`] — the untraced closed loop through the shard pool, which
//!   produces the end-to-end metrics;
//! * [`traced`] — the traced replay and its layer ledger, which produce
//!   the per-layer metrics;
//! * [`stats`] — percentiles and peak-RSS sampling.
//!
//! See `benchmark/README.md` for how to run it.

pub mod drive;
pub mod golden;
pub mod inputs;
pub mod stats;
pub mod traced;

use std::path::{Path, PathBuf};

/// Where the benchmark's working files go, in the working directory.
pub const DATA_ROOT: &str = ".bench_data";

/// This process's working directory under [`DATA_ROOT`].
pub fn work_dir() -> PathBuf {
    Path::new(DATA_ROOT).join(format!("run-{}", std::process::id()))
}

/// Removes this process's working files (and [`DATA_ROOT`] if nothing
/// else is left in it).
pub fn clean_up() {
    let _ = std::fs::remove_dir_all(work_dir());
    let _ = std::fs::remove_dir(DATA_ROOT);
}

/// Abandons the run: prints `msg`, removes the working files and exits
/// with code 1, printing no result line. Used where the run cannot go on
/// and waiting could hang it — a panic on any thread, product worker
/// threads included, or a reply that never comes. Threads still running
/// may write a file back while it cleans up, so an abandoned run can
/// leave a few files under [`DATA_ROOT`].
pub fn abort(msg: &str) -> ! {
    eprintln!("error: {msg}");
    clean_up();
    std::process::exit(1)
}
