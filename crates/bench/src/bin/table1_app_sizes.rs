//! Regenerates **Table I**: average and median app sizes 2014–2018.
//!
//! Sizes are drawn from per-year log-normal distributions calibrated to
//! the paper's corpus statistics (see `backdroid_appgen::dataset`); a few
//! fully generated apps per year validate that the DEX encoder's size
//! accounting is consistent with the sampled sizes.
//!
//! `--json PATH` writes the deterministic per-year rows (sampled and
//! generated sizes are pure functions of the year statistics, so the
//! artifact is diffable like every other bench artifact).

use backdroid_appgen::dataset::{summarize_mb, year_sizes_bytes, PAPER_TABLE1};
use backdroid_appgen::AppSpec;
use backdroid_bench::harness::json_path_from_args;
use backdroid_bench::json::{array, JsonObject};
use backdroid_service::cli::{has_flag, reject_unknown_flags};

fn main() {
    reject_unknown_flags(&["--small", "--json"]);
    let small = has_flag("--small");
    let json_path = json_path_from_args();
    let mut rows = Vec::new();
    println!("Table I: average and median app sizes, 2014-2018");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "Year", "Avg (paper)", "Avg (ours)", "Med (paper)", "Med (ours)", "#Samples"
    );
    for stats in PAPER_TABLE1 {
        let n = if small { 201 } else { stats.samples };
        let sizes = year_sizes_bytes(stats, n);
        let (avg, median) = summarize_mb(&sizes);
        println!(
            "{:<6} {:>11.1}M {:>11.1}M {:>11.1}M {:>11.1}M {:>9}",
            stats.year, stats.avg_mb, avg, stats.median_mb, median, n
        );
        if json_path.is_some() {
            rows.push(
                JsonObject::new()
                    .int("year", stats.year as u64)
                    .float("avg_paper_mb", stats.avg_mb)
                    .float("avg_ours_mb", avg)
                    .float("median_paper_mb", stats.median_mb)
                    .float("median_ours_mb", median)
                    .int("samples", n as u64)
                    .build(),
            );
        }
    }

    // Validate the encoder: generate one real app per year sized to the
    // year's median and confirm the APK-size accounting matches.
    let mut generated_rows = Vec::new();
    println!("\nEncoder validation (one generated app per year, median-sized):");
    for stats in PAPER_TABLE1 {
        let target = (stats.median_mb * 1_048_576.0) as u64;
        let classes = (stats.median_mb * 2.0) as usize + 4;
        let app = AppSpec::named(format!("com.corpus.y{}", stats.year))
            .with_filler(classes, 5, 8)
            .with_resources(target)
            .generate();
        let mb = app.apk_size_bytes() as f64 / 1_048_576.0;
        println!(
            "  {}: generated app = {:.1} MB ({} classes, {} methods)",
            stats.year,
            mb,
            app.program.class_count(),
            app.program.method_count()
        );
        if json_path.is_some() {
            generated_rows.push(
                JsonObject::new()
                    .int("year", stats.year as u64)
                    .float("generated_mb", mb)
                    .int("classes", app.program.class_count() as u64)
                    .int("methods", app.program.method_count() as u64)
                    .build(),
            );
        }
    }

    if let Some(path) = json_path {
        let obj = JsonObject::new()
            .raw("years", array(rows))
            .raw("generated", array(generated_rows))
            .build();
        std::fs::write(&path, obj + "\n").expect("failed to write --json artifact");
        eprintln!("wrote JSON artifact to {}", path.display());
    }
}
