//! Benchmarks SSG construction (backward slicing with search-driven
//! backtracking) across scenario shapes.

use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{
    locate_sinks, slice_sink, AppArtifacts, BackendChoice, DetectorRegistry, SlicerConfig,
};
use backdroid_search::BytecodeText;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_slicing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssg_slicing");
    for (name, mech) in [
        ("private_chain", Mechanism::PrivateChain),
        ("interface_runnable", Mechanism::InterfaceRunnable),
        ("clinit_off_path", Mechanism::ClinitOffPath),
        ("lifecycle_chain", Mechanism::LifecycleChain),
    ] {
        let app = AppSpec::named(format!("com.bench.slice.{name}"))
            .with_scenario(Scenario::new(mech, SinkKind::Cipher, true))
            .with_filler(40, 5, 8)
            .generate();
        let dump = app.dump();
        let registry = DetectorRegistry::paper().sink_registry();
        group.bench_with_input(BenchmarkId::new("slice", name), &app, |b, app| {
            b.iter_batched(
                || {
                    // Fresh artifacts per batch: every timed run slices
                    // against a cold search cache.
                    let artifacts = AppArtifacts::from_parts(
                        app.program.clone(),
                        app.manifest.clone(),
                        BytecodeText::index(&dump),
                        BackendChoice::default(),
                    );
                    let sites = locate_sinks(&mut artifacts.task(), &registry, false);
                    (artifacts, sites)
                },
                |(artifacts, sites)| {
                    let mut ctx = artifacts.task();
                    for site in &sites {
                        let spec = &registry.sinks()[site.spec_idx];
                        let _ = slice_sink(
                            &mut ctx,
                            SlicerConfig::default(),
                            &site.method,
                            site.stmt_idx,
                            spec,
                        );
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_slicing);
criterion_main!(benches);
