//! Criterion bench: ablations of formulation design choices discussed in
//! §4 — threshold-ordering strengthening, and overlap constraints on all
//! joins vs. only the last.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_workloads::{Topology, WorkloadSpec};
use std::hint::black_box;
use std::time::Duration;

fn run(config: EncoderConfig, options: &OrderingOptions) -> f64 {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(1);
    MilpOptimizer::new(config)
        .optimize(&catalog, &query, options, None)
        .map_or(f64::NAN, |o| o.true_cost)
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    let opts = OrderingOptions::with_time_limit(Duration::from_secs(20));

    for (name, ordering, overlap_all) in [
        ("baseline", true, true),
        ("no-threshold-ordering", false, true),
        ("overlap-last-only", true, false),
    ] {
        let config = EncoderConfig {
            precision: Precision::Low,
            threshold_ordering: ordering,
            overlap_all_joins: overlap_all,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("encoding", name), &name, |b, _| {
            let (config, opts) = (config.clone(), opts.clone());
            b.iter(|| black_box(run(config.clone(), &opts)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
