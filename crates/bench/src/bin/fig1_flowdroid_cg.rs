//! Regenerates **Fig 1**: FlowDroid's (geomPTA) whole-app call-graph
//! generation time over the 144 modern apps, bucketed
//! 1–5m / 5–10m / 10–20m / 20–30m / 30–100m / timeout.
//!
//! Paper reference distribution: 31 / 44 / 20 / 10 / 5 / 34 (24% timeout),
//! median 9.76 min under a 5-hour budget.

use backdroid_bench::harness::{
    benchset_apps, bucket_label, median, print_histogram, scale_from_args, SCALE_FLAGS,
};
use backdroid_service::cli::reject_unknown_flags;
use backdroid_wholeapp::flowdroid::{generate_callgraph, CgOutcome};
use backdroid_wholeapp::{paper_minutes, WORK_UNITS_PER_MINUTE};
use std::collections::BTreeMap;

fn main() {
    reject_unknown_flags(SCALE_FLAGS);
    let scale = scale_from_args();
    let apps = benchset_apps(scale);
    let mut total = 0usize;
    // FlowDroid got a 5-hour (300-minute) budget in §II-C; reduced runs
    // scale it with the code volume.
    let budget = ((300.0 * WORK_UNITS_PER_MINUTE) * scale.config().code_scale) as u64;

    let mut buckets: BTreeMap<String, usize> = BTreeMap::new();
    let order = [
        "1m-5m", "5m-10m", "10m-20m", "20m-30m", "30m-100m", "Timeout",
    ];
    for o in order {
        buckets.insert(o.to_string(), 0);
    }
    let mut minutes_done = Vec::new();
    let mut timeouts = 0usize;

    for ba in apps {
        total += 1;
        let out = generate_callgraph(&ba.app.program, &ba.app.manifest, Some(budget));
        match out {
            CgOutcome::Done(stats) => {
                let m = paper_minutes(stats.work_units).max(1.01);
                minutes_done.push(m);
                let label = bucket_label(&[5.0, 10.0, 20.0, 30.0, 100.0], m.max(1.0));
                let label = if label == "0m-5m" {
                    "1m-5m".into()
                } else {
                    label
                };
                *buckets.entry(label).or_insert(0) += 1;
            }
            CgOutcome::TimedOut { .. } => {
                timeouts += 1;
                *buckets.get_mut("Timeout").expect("present") += 1;
            }
        }
    }

    println!(
        "Fig 1: FlowDroid geomPTA call-graph generation over {} apps (budget 300 scaled min)",
        total
    );
    let rows: Vec<(String, usize)> = order
        .iter()
        .map(|o| (o.to_string(), buckets.get(*o).copied().unwrap_or(0)))
        .collect();
    print_histogram("  time buckets:", &rows);
    println!(
        "  timeouts: {timeouts}/{} ({:.0}%)  [paper: 34/144 = 24%]",
        total,
        100.0 * timeouts as f64 / total as f64
    );
    println!(
        "  median CG time (finished apps): {:.2} scaled min  [paper: 9.76 min]",
        median(&minutes_done)
    );
}
