//! Ablation: quantify the §IV-F search-caching enhancement by running
//! BackDroid's pipeline with and without the search caches on the same
//! apps and comparing the grep work (dump lines scanned).

use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{Backdroid, BackdroidOptions};
use backdroid_service::cli::reject_unknown_flags;

fn run_with_caching(app: &backdroid_appgen::AndroidApp, caching: bool) -> (u64, f64) {
    let start = std::time::Instant::now();
    let artifacts = backdroid_core::AppArtifacts::new(app.program.clone(), app.manifest.clone());
    artifacts.engine().set_caching(caching);
    let report = Backdroid::with_options(BackdroidOptions::default()).analyze_artifacts(&artifacts);
    (
        report.cache_stats.lines_scanned,
        start.elapsed().as_secs_f64() * 1e3,
    )
}

fn main() {
    reject_unknown_flags(&[]);
    println!("Ablation: search caching (§IV-F)\n");
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "workload", "lines (cached)", "lines (none)", "saved"
    );
    for (name, scenarios, filler) in [
        (
            "single sink",
            vec![Scenario::new(
                Mechanism::PrivateChain,
                SinkKind::Cipher,
                true,
            )],
            30usize,
        ),
        (
            "shared utility (cache-hit)",
            vec![Scenario::new(
                Mechanism::SharedUtility,
                SinkKind::Cipher,
                true,
            )],
            30,
        ),
        (
            "4 shared utilities",
            (0..4)
                .map(|_| Scenario::new(Mechanism::SharedUtility, SinkKind::Cipher, false))
                .collect(),
            30,
        ),
        (
            "mixed 12 sinks",
            (0..12)
                .map(|k| {
                    let mechs = [
                        Mechanism::DirectEntry,
                        Mechanism::PrivateChain,
                        Mechanism::ClinitOffPath,
                        Mechanism::LifecycleChain,
                    ];
                    Scenario::new(mechs[k % 4], SinkKind::Cipher, false)
                })
                .collect(),
            60,
        ),
    ] {
        let app = AppSpec::named(format!("com.ablate.{}", name.replace(' ', "")))
            .with_scenarios(scenarios)
            .with_filler(filler, 5, 8)
            .generate();
        let (cached_lines, cached_ms) = run_with_caching(&app, true);
        let (raw_lines, raw_ms) = run_with_caching(&app, false);
        let saved = 100.0 * (1.0 - cached_lines as f64 / raw_lines.max(1) as f64);
        println!(
            "{name:<28} {cached_lines:>14} {raw_lines:>14} {saved:>8.1}%   ({cached_ms:.0} ms vs {raw_ms:.0} ms)"
        );
    }
    println!(
        "\n[paper §IV-F: per-app command cache rate averages 23.39%, up to 88.95% —\n\
         repeated searches across sinks are the savings source]"
    );
}
