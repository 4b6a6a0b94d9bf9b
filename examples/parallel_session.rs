//! One resident app image, many concurrent queries.
//!
//! Demonstrates the session layer: [`AppArtifacts`] is owned (no
//! lifetime parameter) and `Send + Sync`, so a single preprocessed image
//! — IR program + manifest + indexed dexdump text — can be wrapped in an
//! `Arc` and shared across threads. Each thread starts a cheap
//! per-task context with [`AppArtifacts::task`] and answers its own sink
//! query; all tasks share one search-command cache, so work one slice
//! does is free for the next. The service's pool workers share one
//! resident image the same way.

use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{locate_sinks, slice_sink, AppArtifacts, DetectorRegistry, SlicerConfig};
use std::sync::Arc;

fn main() {
    // A multi-sink app: four independent scenarios, each ending in its
    // own security-sensitive API call.
    let app = AppSpec::named("com.example.parallel")
        .with_scenarios(vec![
            Scenario::new(Mechanism::DirectEntry, SinkKind::Cipher, true),
            Scenario::new(Mechanism::PrivateChain, SinkKind::Cipher, false),
            Scenario::new(Mechanism::LifecycleChain, SinkKind::SslVerifier, true),
            Scenario::new(Mechanism::StaticChain, SinkKind::Cipher, true),
        ])
        .with_filler(20, 4, 6)
        .generate();

    // Preprocess once: encode → disassemble → index. After this, the
    // artifacts are immutable and thread-shareable.
    let artifacts = Arc::new(AppArtifacts::new(app.program, app.manifest));
    let registry = DetectorRegistry::paper().sink_registry();

    // Locate the sink sites, then slice each one on its own thread
    // against the same Arc-shared image.
    let sites = locate_sinks(&mut artifacts.task(), &registry, false);
    println!(
        "located {} sink site(s); slicing each on its own thread",
        sites.len()
    );

    let mut results: Vec<(usize, String, bool, usize)> = std::thread::scope(|scope| {
        sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let artifacts = Arc::clone(&artifacts);
                let spec = registry.sinks()[site.spec_idx].clone();
                scope.spawn(move || {
                    let mut ctx = artifacts.task();
                    let r = slice_sink(
                        &mut ctx,
                        SlicerConfig::default(),
                        &site.method,
                        site.stmt_idx,
                        &spec,
                    );
                    (i, site.method.to_string(), r.reachable, r.ssg.units().len())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("slice worker panicked"))
            .collect()
    });
    results.sort_by_key(|&(i, _, _, _)| i);
    for (i, method, reachable, units) in &results {
        println!("  site {i}: {method} — reachable={reachable}, {units} SSG unit(s)");
    }
    let stats = artifacts.engine().stats();
    println!(
        "shared cache after all threads: {} commands, {} hits ({:.1}% cached)",
        stats.commands,
        stats.hits,
        100.0 * stats.rate()
    );
}
