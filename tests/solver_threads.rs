//! Acceptance tests for intra-solve parallelism (`solver_threads`): the
//! default single-threaded configuration must be bit-identical to an
//! explicit `solver_threads(1)` (and `0`), and multi-threaded solves
//! under a non-binding global node budget must reach the single-threaded
//! optimum with the optimality certificate intact and a monotone anytime
//! trace.
//!
//! The streams mirror `query_service.rs`: mixed chain/cycle/star traffic
//! over one shared catalog, solved by the real hybrid backend.

use milpjoin::{EncoderConfig, HybridOptimizer, MilpOptimizer, PlanSession, Precision};
use milpjoin_milp::SolveStatus;
use milpjoin_qopt::{Catalog, OrderingOptions, Query, SessionOutcome};
use milpjoin_workloads::{Topology, WorkloadSpec};
use proptest::prelude::*;
use std::time::Duration;

fn backend() -> HybridOptimizer {
    HybridOptimizer::new(EncoderConfig::default().precision(Precision::Low))
}

fn base_options() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(20))
}

/// A mixed-topology stream over one catalog: `unique` random structures
/// per topology, each `copies` times, round-robin across topologies.
fn mixed_stream(seed: u64, tables: usize, unique: usize, copies: usize) -> (Catalog, Vec<Query>) {
    let mut catalog = Catalog::new();
    let per_topology: Vec<Vec<Query>> = [Topology::Chain, Topology::Cycle, Topology::Star]
        .into_iter()
        .enumerate()
        .map(|(i, topo)| {
            WorkloadSpec::new(topo, tables).generate_stream_into(
                &mut catalog,
                seed + 1000 * i as u64,
                unique,
                copies,
            )
        })
        .collect();
    let len = per_topology.iter().map(Vec::len).max().unwrap_or(0);
    let mut queries = Vec::new();
    for i in 0..len {
        for stream in &per_topology {
            if let Some(q) = stream.get(i) {
                queries.push(q.clone());
            }
        }
    }
    (catalog, queries)
}

fn solve_stream(
    catalog: &Catalog,
    queries: &[Query],
    options: OrderingOptions,
) -> Vec<SessionOutcome> {
    let mut session = PlanSession::new(catalog.clone(), Box::new(backend())).with_options(options);
    session
        .optimize_batch(queries)
        .into_iter()
        .map(|r| r.expect("hybrid always produces a plan"))
        .collect()
}

/// Bit-identical comparison: same solve, same exact re-costing, same
/// anytime trace (timings excluded — they are wall-clock by nature).
fn assert_bit_identical(label: &str, a: &SessionOutcome, b: &SessionOutcome) {
    assert_eq!(a.outcome.plan, b.outcome.plan, "{label}: plan");
    assert_eq!(
        a.outcome.cost.to_bits(),
        b.outcome.cost.to_bits(),
        "{label}: cost"
    );
    assert_eq!(
        a.outcome.objective.to_bits(),
        b.outcome.objective.to_bits(),
        "{label}: objective"
    );
    assert_eq!(
        a.outcome.bound.map(f64::to_bits),
        b.outcome.bound.map(f64::to_bits),
        "{label}: bound"
    );
    assert_eq!(
        a.outcome.proven_optimal, b.outcome.proven_optimal,
        "{label}: proven_optimal"
    );
    assert_eq!(a.outcome.search, b.outcome.search, "{label}: search stats");
    let (ta, tb) = (a.outcome.trace.points(), b.outcome.trace.points());
    assert_eq!(ta.len(), tb.len(), "{label}: trace length");
    for (i, (pa, pb)) in ta.iter().zip(tb).enumerate() {
        assert_eq!(
            pa.incumbent.map(f64::to_bits),
            pb.incumbent.map(f64::to_bits),
            "{label}: trace[{i}] incumbent"
        );
        assert_eq!(
            pa.bound.map(f64::to_bits),
            pb.bound.map(f64::to_bits),
            "{label}: trace[{i}] bound"
        );
    }
    assert_eq!(a.cache_hit, b.cache_hit, "{label}: cache_hit");
    assert_eq!(a.exact_hit, b.exact_hit, "{label}: exact_hit");
}

/// Streamed incumbents must never increase and bounds must be honest:
/// every claimed cost-space bound at or below the incumbent of its point.
fn assert_trace_monotone(label: &str, outcome: &SessionOutcome) {
    let mut last_incumbent = f64::INFINITY;
    for (i, p) in outcome.outcome.trace.points().iter().enumerate() {
        if let Some(inc) = p.incumbent {
            assert!(
                inc <= last_incumbent * (1.0 + 1e-12) + 1e-12,
                "{label}: trace[{i}] incumbent {inc} above previous {last_incumbent}"
            );
            last_incumbent = inc;
            if let Some(bound) = p.bound {
                assert!(
                    bound <= inc * (1.0 + 1e-9) + 1e-9,
                    "{label}: trace[{i}] bound {bound} above incumbent {inc}"
                );
            }
        }
    }
}

/// The default configuration (no `solver_threads` set) and explicit
/// `0`/`1` all run the search on one worker, the calling thread, and
/// must be bit-identical.
#[test]
fn default_and_explicit_single_thread_are_bit_identical() {
    let (catalog, queries) = mixed_stream(11, 5, 2, 2);
    let expected = solve_stream(&catalog, &queries, base_options());
    for threads in [0usize, 1] {
        let got = solve_stream(&catalog, &queries, base_options().solver_threads(threads));
        assert_eq!(expected.len(), got.len());
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_bit_identical(&format!("threads={threads} query={i}"), e, g);
        }
    }
}

/// Multi-threaded solves under a non-binding global node budget must
/// reach the single-threaded MILP optimum — identical optimal objective
/// and a gap-closed bound equal to it — run the requested worker count,
/// and stream a monotone trace.
///
/// The comparison is in MILP objective space: the decoded *plan* (and
/// hence its exact re-costed value) may legitimately differ between
/// thread counts when the coarse `Precision::Low` objective has ties —
/// all proven-optimal solves agree on the objective, not on which of the
/// tied assignments the search happened to keep.
#[test]
fn multi_threaded_solves_reach_single_threaded_optimum() {
    let (catalog, queries) = mixed_stream(29, 5, 2, 1);
    let opt = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low));
    let budget = 200_000u64; // far above what these solves need
    let options =
        |threads: usize| OrderingOptions::with_deterministic_budget(budget).solver_threads(threads);
    for (i, query) in queries.iter().enumerate() {
        let seq = opt.optimize(&catalog, query, &options(1), None).unwrap();
        assert_eq!(seq.status, SolveStatus::Optimal, "query={i}: sequential");
        for threads in [2usize, 4] {
            let label = format!("threads={threads} query={i}");
            let par = opt
                .optimize(&catalog, query, &options(threads), None)
                .unwrap();
            assert_eq!(par.status, SolveStatus::Optimal, "{label}: status");
            assert!(
                (par.milp_objective - seq.milp_objective).abs()
                    <= 1e-9 * (1.0 + seq.milp_objective.abs()),
                "{label}: objective {} differs from sequential optimum {}",
                par.milp_objective,
                seq.milp_objective
            );
            // A gap-closed solve reports its incumbent as the final bound.
            assert_eq!(
                par.milp_bound.to_bits(),
                par.milp_objective.to_bits(),
                "{label}: bound must close on the objective"
            );
            assert!(par.cost_bound.is_some(), "{label}: cost-space bound");
            assert!(
                par.true_cost >= par.cost_bound.unwrap() * (1.0 - 1e-9),
                "{label}: exact cost below its claimed cost-space bound"
            );
            assert_eq!(par.search.workers_used, threads, "{label}: worker count");
            assert!(
                par.search.nodes_expanded > 0,
                "{label}: cold solve must expand nodes"
            );
            let mut last = f64::INFINITY;
            for (j, p) in par.cost_trace.points().iter().enumerate() {
                if let Some(inc) = p.incumbent {
                    assert!(
                        inc <= last * (1.0 + 1e-12) + 1e-12,
                        "{label}: trace[{j}] incumbent {inc} above previous {last}"
                    );
                    last = inc;
                }
            }
        }
    }
}

/// `deterministic_budget` meters nodes globally across workers: the
/// total expanded never exceeds the budget plus one node per worker
/// (the budget is checked before every node LP, dive children included,
/// so a worker can overrun only by the node it cleared just before
/// another worker's node tripped the limit).
#[test]
fn node_budget_is_metered_globally_across_workers() {
    let (catalog, queries) = mixed_stream(3, 6, 1, 1);
    let budget = 4u64;
    let per_worker_slack = 1;
    for threads in [1usize, 4] {
        let got = solve_stream(
            &catalog,
            &queries,
            base_options()
                .deterministic_budget(budget)
                .solver_threads(threads),
        );
        for (i, g) in got.iter().enumerate() {
            let nodes = g.outcome.search.nodes_expanded;
            assert!(
                nodes <= budget + (threads as u64) * per_worker_slack,
                "threads={threads} query={i}: {nodes} nodes expanded under budget {budget}"
            );
            assert_trace_monotone(&format!("threads={threads} query={i}"), g);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized streams: explicit `solver_threads(1)` stays bit-identical
    /// to the default configuration on arbitrary mixed traffic.
    #[test]
    fn random_streams_single_thread_identity(
        (seed, tables, copies) in (0u64..500, 3usize..=5, 1usize..=2)
    ) {
        let (catalog, queries) = mixed_stream(seed, tables, 2, copies);
        let expected = solve_stream(&catalog, &queries, base_options());
        let got = solve_stream(&catalog, &queries, base_options().solver_threads(1));
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_bit_identical(&format!("query={i}"), e, g);
        }
    }

    /// Randomized streams: multi-threaded solves agree with the sequential
    /// MILP optimum and keep their certificates (objective-space
    /// comparison — see `multi_threaded_solves_reach_single_threaded_optimum`).
    #[test]
    fn random_streams_multi_thread_optimum(
        (seed, tables, threads) in (0u64..500, 3usize..=5, 2usize..=4)
    ) {
        let (catalog, queries) = mixed_stream(seed, tables, 2, 1);
        let opt = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low));
        for (i, query) in queries.iter().enumerate() {
            let seq = opt.optimize(&catalog, query, &OrderingOptions::default(), None).unwrap();
            let par = opt.optimize(
                &catalog,
                query,
                &OrderingOptions::default().solver_threads(threads),
                None,
            ).unwrap();
            prop_assert_eq!(seq.status, par.status, "query={} status", i);
            if seq.status == SolveStatus::Optimal {
                prop_assert!(
                    (par.milp_objective - seq.milp_objective).abs()
                        <= 1e-9 * (1.0 + seq.milp_objective.abs()),
                    "query={}: objective {} vs sequential {}",
                    i, par.milp_objective, seq.milp_objective
                );
            }
        }
    }
}
