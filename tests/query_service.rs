//! Acceptance tests for the continuous-ingest `QueryService`: concurrent
//! identical submissions collapse onto exactly one backend solve (the
//! cross-batch in-flight table), mixed streams resolve bit-identical to
//! the sequential `PlanSession` (approximate duplicates: valid and exactly
//! re-costed), lifecycle calls leave no stuck tickets, and the
//! deterministic node budget makes budget-limited solves
//! worker-count-invariant under CPU oversubscription.

use std::collections::HashSet;
use std::time::Duration;

use milpjoin::{
    EncoderConfig, FingerprintOptions, FingerprintedQuery, HybridOptimizer, JoinOrderer,
    MilpOptimizer, OrderingError, OrderingOptions, PlanSession, Precision, QueryService,
    SessionOutcome,
};
use milpjoin_qopt::cost::plan_cost;
use milpjoin_qopt::{Catalog, Query};
use milpjoin_suite::mixed_stream;
use milpjoin_workloads::{Topology, WorkloadSpec};
use proptest::prelude::*;

fn backend() -> HybridOptimizer {
    HybridOptimizer::new(EncoderConfig::default().precision(Precision::Low))
}

fn options() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(20))
}

/// Approximate duplicates: each structure of a one-copy mixed stream is
/// followed by a twin whose predicate selectivities drift down by one part
/// in a million — the same fingerprint bucket, different unquantized
/// statistics.
fn approximate_duplicate_stream(seed: u64, tables: usize, unique: usize) -> (Catalog, Vec<Query>) {
    let (catalog, originals) = mixed_stream(seed, tables, unique, 1);
    let queries = originals
        .into_iter()
        .flat_map(|query| {
            let mut twin = query.clone();
            for p in &mut twin.predicates {
                p.selectivity *= 1.0 - 1e-6;
            }
            [query, twin]
        })
        .collect();
    (catalog, queries)
}

/// Asserts two session outcomes are result-identical (timings excluded:
/// `elapsed` and trace timestamps are wall-clock by nature).
fn assert_outcomes_identical(label: &str, seq: &SessionOutcome, got: &SessionOutcome) {
    assert_eq!(seq.outcome.plan, got.outcome.plan, "{label}: plan");
    assert_eq!(
        seq.outcome.cost.to_bits(),
        got.outcome.cost.to_bits(),
        "{label}: cost {} vs {}",
        seq.outcome.cost,
        got.outcome.cost
    );
    assert_eq!(
        seq.outcome.objective.to_bits(),
        got.outcome.objective.to_bits(),
        "{label}: objective"
    );
    assert_eq!(
        seq.outcome.bound.map(f64::to_bits),
        got.outcome.bound.map(f64::to_bits),
        "{label}: bound"
    );
    assert_eq!(
        seq.outcome.proven_optimal, got.outcome.proven_optimal,
        "{label}: proven_optimal"
    );
    assert_eq!(seq.cache_hit, got.cache_hit, "{label}: cache_hit");
    assert_eq!(seq.exact_hit, got.exact_hit, "{label}: exact_hit");
}

/// Value identity only: plan, exact cost, bound, certificate. On the raw
/// service surface *which* duplicate carries the miss is decided by the
/// claim race (exactly one per structure, but scheduling-dependent), so
/// `cache_hit`/`exact_hit`/`objective` are excluded — they differ between
/// the solver's and a hit's report of the same value-identical outcome.
fn assert_values_identical(label: &str, seq: &SessionOutcome, got: &SessionOutcome) {
    assert_eq!(seq.outcome.plan, got.outcome.plan, "{label}: plan");
    assert_eq!(
        seq.outcome.cost.to_bits(),
        got.outcome.cost.to_bits(),
        "{label}: cost {} vs {}",
        seq.outcome.cost,
        got.outcome.cost
    );
    assert_eq!(
        seq.outcome.bound.map(f64::to_bits),
        got.outcome.bound.map(f64::to_bits),
        "{label}: bound"
    );
    assert_eq!(
        seq.outcome.proven_optimal, got.outcome.proven_optimal,
        "{label}: proven_optimal"
    );
}

/// The issue's acceptance criterion: N submitter threads racing the same
/// structure into one service trigger exactly one backend solve — the
/// in-flight table collapses every concurrent duplicate onto the leader —
/// and every ticket returns the identical plan and exact cost.
#[test]
fn concurrent_submitters_of_one_structure_share_one_solve() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 7).generate(11);
    for submitters in [2usize, 4, 8] {
        let service = QueryService::new(catalog.clone(), backend())
            .with_workers(4)
            .with_options(options());
        let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..submitters)
                .map(|_| {
                    let service = &service;
                    let query = query.clone();
                    scope.spawn(move || service.submit(query).wait().unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = service.shutdown();
        assert_eq!(
            stats.backend_solves, 1,
            "submitters={submitters}: exactly one solve"
        );
        assert_eq!(stats.inflight_leaders, 1, "submitters={submitters}");
        assert_eq!(stats.queries, submitters as u64);
        assert_eq!(stats.cache_hits, submitters as u64 - 1);
        // Wait-resolved followers are a subset of the cache hits.
        assert!(stats.inflight_wait_hits <= stats.cache_hits);
        assert!(stats.inflight_followers >= stats.inflight_wait_hits);
        for (i, out) in outcomes.iter().enumerate() {
            // Identical plan, exact cost, and certificates on every ticket
            // (`objective` legitimately differs between the solver's
            // MILP-space report and a hit's exact-cost report).
            let label = format!("submitters={submitters} ticket={i}");
            assert_eq!(out.outcome.plan, outcomes[0].outcome.plan, "{label}");
            assert_eq!(
                out.outcome.cost.to_bits(),
                outcomes[0].outcome.cost.to_bits(),
                "{label}"
            );
            assert_eq!(
                out.outcome.bound.map(f64::to_bits),
                outcomes[0].outcome.bound.map(f64::to_bits),
                "{label}"
            );
            assert_eq!(
                out.outcome.proven_optimal, outcomes[0].outcome.proven_optimal,
                "{label}"
            );
        }
        // Exactly one ticket was the solver (miss); the rest hit.
        let misses = outcomes.iter().filter(|o| !o.cache_hit).count();
        assert_eq!(misses, 1, "submitters={submitters}");
    }
}

/// Mixed-stream identity, over a stream of exact duplicates and one of
/// approximate duplicates. A single-worker service processes FIFO and is
/// identical to the sequential `PlanSession` fed the same stream, down to
/// the per-ticket hit flags. With more workers the claim race decides
/// which duplicate carries the miss — one per fingerprint either way — so
/// exact duplicates stay value-identical (plan/cost/bound/certificate),
/// while for an approximate pair it also decides whose solve is shared:
/// there only validity and exact re-costing hold whatever the schedule.
#[test]
fn service_stream_is_identical_to_sequential_session() {
    let fp_options = FingerprintOptions::default();
    let (model, params) = backend().cost_model();
    let approximate = approximate_duplicate_stream(3, 5, 2); // 12 queries, 6 pairs
    {
        let (catalog, queries) = &approximate;
        for (i, pair) in queries.chunks(2).enumerate() {
            let a = FingerprintedQuery::compute(catalog, &pair[0], &fp_options);
            let b = FingerprintedQuery::compute(catalog, &pair[1], &fp_options);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "pair {i}: twin left the bucket"
            );
            assert_ne!(a.exact, b.exact, "pair {i}: twin statistics must differ");
        }
    }
    let streams = [
        ("exact", mixed_stream(3, 5, 2, 3), false), // 18 queries, 6 structures
        ("approximate", approximate, true),
    ];
    for (stream, (catalog, queries), approximate) in streams {
        let fingerprints = queries
            .iter()
            .map(|q| FingerprintedQuery::compute(&catalog, q, &fp_options).fingerprint)
            .collect::<HashSet<_>>()
            .len() as u64;
        let mut sequential =
            PlanSession::new(catalog.clone(), Box::new(backend())).with_options(options());
        let expected = sequential.optimize_batch(&queries);
        let seq_stats = sequential.explain();
        for workers in [1usize, 2, 4] {
            let service = QueryService::new(catalog.clone(), backend())
                .with_workers(workers)
                .with_options(options());
            let tickets = service.submit_many(queries.iter().cloned());
            let got: Vec<SessionOutcome> = tickets.iter().map(|t| t.wait().unwrap()).collect();
            for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
                let e = e.as_ref().unwrap();
                let label = format!("{stream} workers={workers} query={i}");
                if workers == 1 {
                    assert_outcomes_identical(&label, e, g);
                } else if !approximate {
                    assert_values_identical(&label, e, g);
                } else {
                    g.outcome.plan.validate(&queries[i]).unwrap();
                    let exact = plan_cost(&catalog, &queries[i], &g.outcome.plan, model, &params);
                    assert_eq!(g.outcome.cost.to_bits(), exact.total.to_bits(), "{label}");
                }
            }
            let stats = service.shutdown();
            let label = format!("{stream} workers={workers}");
            assert_eq!(stats.backend_solves, seq_stats.backend_solves, "{label}");
            assert_eq!(stats.cache_hits, seq_stats.cache_hits, "{label}");
            assert_eq!(stats.exact_hits, seq_stats.exact_hits, "{label}");
            // Exactly one miss per fingerprint, whoever won the race to it.
            let misses = got.iter().filter(|o| !o.cache_hit).count() as u64;
            assert_eq!(misses, fingerprints, "{label}");
            assert_eq!(stats.backend_solves, fingerprints, "{label}");
            // Every solve led its in-flight slot.
            assert_eq!(stats.inflight_leaders, stats.backend_solves, "{label}");
        }
    }
}

/// Lifecycle: drain resolves everything submitted, shutdown drains the
/// queue before stopping, and post-shutdown submissions resolve
/// immediately with an error — no ticket is ever left pending.
#[test]
fn drain_then_shutdown_leaves_no_stuck_tickets() {
    let (catalog, queries) = mixed_stream(17, 4, 2, 2);
    let service = QueryService::new(catalog, backend())
        .with_workers(2)
        .with_options(options());
    let tickets = service.submit_many(queries.iter().cloned());
    service.drain();
    for (i, t) in tickets.iter().enumerate() {
        assert!(t.is_done(), "ticket {i} unresolved after drain()");
        assert!(t.try_get().unwrap().is_ok(), "ticket {i}");
    }
    // More work after a drain is fine; shutdown then drains it too.
    let late = service.submit(queries[0].clone());
    let stats = service.shutdown();
    assert!(late.is_done(), "shutdown must drain accepted submissions");
    assert!(late.try_get().unwrap().unwrap().cache_hit);
    assert_eq!(stats.queries, queries.len() as u64 + 1);
}

/// The deterministic node budget: a budget-limited solve returns the
/// identical outcome at 1 and 4 workers, even when 4 workers oversubscribe
/// the host's cores — the regression the wall-clock budget could never
/// pass. One worker is identical down to the hit flags; at 4 the claim
/// race decides which duplicate reports the miss.
#[test]
fn deterministic_budget_is_worker_count_invariant() {
    let (catalog, queries) = {
        let mut catalog = Catalog::new();
        // Three copies each of two 9-table structures: big enough that a
        // 3-node budget binds (nothing proven optimal), duplicated so the
        // in-flight/dedup path is exercised under the budget.
        let queries =
            WorkloadSpec::new(Topology::Star, 9).generate_stream_into(&mut catalog, 23, 2, 3);
        (catalog, queries)
    };
    let budget_options = OrderingOptions::with_deterministic_budget(3);
    let mut sequential =
        PlanSession::new(catalog.clone(), Box::new(backend())).with_options(budget_options.clone());
    let expected = sequential.optimize_batch(&queries);
    // The budget must actually bind somewhere for the regression to mean
    // anything (an easy structure may legitimately prove optimality at
    // the root before its third node).
    assert!(
        expected
            .iter()
            .any(|e| !e.as_ref().unwrap().outcome.proven_optimal),
        "3-node budget never bound; enlarge the queries"
    );
    for workers in [1usize, 4] {
        let service = QueryService::new(catalog.clone(), backend())
            .with_workers(workers)
            .with_options(budget_options.clone());
        let tickets = service.submit_many(queries.iter().cloned());
        for (i, (e, t)) in expected.iter().zip(&tickets).enumerate() {
            let label = format!("workers={workers} query={i}");
            let (e, g) = (e.as_ref().unwrap(), t.wait().unwrap());
            if workers == 1 {
                assert_outcomes_identical(&label, e, &g);
            } else {
                assert_values_identical(&label, e, &g);
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.backend_solves, sequential.explain().backend_solves);
    }
}

/// Budget exhaustion before any plan is a `ResourceLimit`, never a
/// `Timeout` — even when a wall-clock limit is *also* configured (the old
/// classification guessed "timeout" from the options; the solver now
/// reports which budget actually fired).
#[test]
fn deterministic_budget_exhaustion_classifies_as_resource_limit() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(0);
    // Cold MILP (no warm start) with a zero node budget: no incumbent can
    // exist, and the clock never fires first.
    let err = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low))
        .order(
            &catalog,
            &query,
            &OrderingOptions {
                time_limit: Some(Duration::from_secs(600)),
                deterministic_budget: Some(0),
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, OrderingError::ResourceLimit(_)),
        "expected ResourceLimit, got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized mixed streams and worker counts: every service ticket
    /// stays value-identical (plan/cost/bound/certificate) to the
    /// sequential session, with exactly one solve per structure.
    #[test]
    fn random_streams_match_sequential(
        (seed, tables, copies, workers) in (0u64..500, 3usize..=5, 1usize..=3, 1usize..=8)
    ) {
        let (catalog, queries) = mixed_stream(seed, tables, 2, copies);
        let mut sequential =
            PlanSession::new(catalog.clone(), Box::new(backend())).with_options(options());
        let expected = sequential.optimize_batch(&queries);
        let service = QueryService::new(catalog, backend())
            .with_workers(workers)
            .with_options(options());
        let tickets = service.submit_many(queries.iter().cloned());
        for (i, (e, t)) in expected.iter().zip(&tickets).enumerate() {
            assert_values_identical(
                &format!("workers={workers} query={i}"),
                e.as_ref().unwrap(),
                &t.wait().unwrap(),
            );
        }
        let stats = service.shutdown();
        let seq_stats = sequential.explain();
        assert_eq!(stats.backend_solves, seq_stats.backend_solves);
        assert_eq!(stats.cache_hits, seq_stats.cache_hits);
    }
}
