//! Anytime-contract tests: incumbents only improve, bounds only rise, time
//! limits are respected, and the guaranteed factor is monotone.

use std::time::{Duration, Instant};

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_workloads::{Topology, WorkloadSpec};

#[test]
fn trace_monotonicity() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(2);
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low))
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    let mut last_inc = f64::INFINITY;
    let mut last_bound = f64::NEG_INFINITY;
    let mut last_t = Duration::ZERO;
    for p in out.trace.points() {
        assert!(p.elapsed >= last_t, "time went backwards");
        last_t = p.elapsed;
        if let Some(inc) = p.incumbent {
            assert!(inc <= last_inc * (1.0 + 1e-9), "incumbent worsened");
            last_inc = inc;
        }
        assert!(
            p.bound >= last_bound - 1e-9 * (1.0 + last_bound.abs()),
            "bound dropped"
        );
        last_bound = p.bound;
    }
}

#[test]
fn guaranteed_factor_is_nonincreasing_over_time() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(4);
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low))
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    let mut last = f64::INFINITY;
    for ms in [50u64, 200, 1000, 5000, 20000] {
        if let Some(f) = out.trace.guaranteed_factor_at(Duration::from_millis(ms)) {
            assert!(
                f <= last * (1.0 + 1e-9),
                "factor rose from {last} to {f} at {ms}ms"
            );
            last = f;
        }
    }
}

#[test]
fn time_limit_respected() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 12).generate(1);
    let limit = Duration::from_millis(800);
    let start = Instant::now();
    let _ = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low)).optimize(
        &catalog,
        &query,
        &OrderingOptions::with_time_limit(limit),
        None,
    );
    // Generous slack: one node LP may overshoot slightly.
    assert!(start.elapsed() < limit + Duration::from_secs(10));
}

#[test]
fn final_factor_matches_trace_tail() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 4).generate(3);
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Medium))
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    if let (Some(final_factor), Some(tail)) = (
        out.optimality_factor(),
        out.trace.guaranteed_factor_at(Duration::from_secs(3600)),
    ) {
        assert!((final_factor - tail).abs() <= 0.5 + 0.1 * final_factor.abs());
    }
}
