//! Criterion bench: full MILP optimization (encode + branch-and-bound +
//! decode) on small queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_workloads::{Topology, WorkloadSpec};
use std::hint::black_box;
use std::time::Duration;

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("optimize");
    g.sample_size(10);
    for n in [4usize, 6, 8] {
        let (catalog, query) = WorkloadSpec::new(Topology::Star, n).generate(1);
        let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low));
        let opts = OrderingOptions::with_time_limit(Duration::from_secs(20));
        g.bench_with_input(BenchmarkId::new("star-low", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    optimizer
                        .optimize(&catalog, &query, &opts, None)
                        .unwrap()
                        .true_cost,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
