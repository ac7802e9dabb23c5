//! Acceptance tests for the adaptive backend router and its DPconv arm:
//! a routed outcome is bit-identical to running the reported arm directly
//! (fixed cases plus randomized mixed streams), the DPconv arm agrees with
//! the classical subset DP on the C_out optimum across all paper
//! topologies, every arm's error/limit classification passes through the
//! router unchanged, a duplicate-heavy small-query stream through
//! `QueryService` resolves without ever reaching branch-and-bound —
//! verified from `SessionStats` arm counts alone — and traffic at or past
//! the decompose threshold always lands on the decompose arm, so a very
//! large query never runs a bare whole-query root LP.

use std::time::Duration;

use milpjoin::{
    standard_router, BackendArm, EncoderConfig, JoinOrderer, MilpOptimizer, OrderingError,
    OrderingOptions, OrderingOutcome, PlanSession, Precision, QueryService, RouterOptimizer,
    RouterOptions,
};
use milpjoin_dp::{DpConvOptimizer, DpOptimizer};
use milpjoin_qopt::cost::{CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, Query};
use milpjoin_workloads::{large_query_stream, size_swept_stream, Topology, WorkloadSpec};
use proptest::prelude::*;

fn options() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(30))
}

fn router(model: CostModelKind) -> RouterOptimizer {
    let config = EncoderConfig::default()
        .precision(Precision::Low)
        .cost_model(model);
    standard_router(config, RouterOptions::default())
}

/// A mixed-topology stream over one catalog: `unique` random structures
/// per topology, each `copies` times, round-robin across topologies.
fn mixed_stream(seed: u64, tables: usize, unique: usize, copies: usize) -> (Catalog, Vec<Query>) {
    let mut catalog = Catalog::new();
    let per_topology: Vec<Vec<Query>> = Topology::PAPER
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

/// The router's core contract: dispatch, never post-process. Timings
/// (`elapsed`, trace timestamps) are wall-clock by nature and excluded.
fn assert_bit_identical(label: &str, routed: &OrderingOutcome, direct: &OrderingOutcome) {
    assert_eq!(routed.plan, direct.plan, "{label}: plan");
    assert_eq!(
        routed.cost.to_bits(),
        direct.cost.to_bits(),
        "{label}: cost {} vs {}",
        routed.cost,
        direct.cost
    );
    assert_eq!(
        routed.objective.to_bits(),
        direct.objective.to_bits(),
        "{label}: objective"
    );
    assert_eq!(
        routed.bound.map(f64::to_bits),
        direct.bound.map(f64::to_bits),
        "{label}: bound"
    );
    assert_eq!(
        routed.proven_optimal, direct.proven_optimal,
        "{label}: proven_optimal"
    );
    assert!(direct.route.is_none(), "{label}: direct solves never route");
}

/// Routes one query, re-runs the reported arm directly, and demands
/// bit-identity. Returns the arm that served it.
fn check_routed_identity(
    router: &RouterOptimizer,
    catalog: &Catalog,
    query: &Query,
    opts: &OrderingOptions,
    label: &str,
) -> BackendArm {
    let routed = router
        .order(catalog, query, opts)
        .unwrap_or_else(|e| panic!("{label}: routed solve failed: {e:?}"));
    let decision = routed.route.expect("routed solve records its decision");
    let direct = router
        .arm(decision.arm)
        .expect("route() only returns installed arms")
        .order(catalog, query, opts)
        .unwrap_or_else(|e| panic!("{label}: direct {} failed: {e:?}", decision.arm));
    assert_bit_identical(&format!("{label} via {}", decision.arm), &routed, &direct);
    decision.arm
}

/// Fixed cases covering every default-policy rule that can fire under
/// C_out without a time limit: the exact fast path at 3/6/10 tables, the
/// search tail above the exact window, and the very-large decompose rule
/// (whose orchestration is deterministic — so routed-vs-direct
/// bit-identity holds through it too).
#[test]
fn routed_outcome_bit_identical_fixed_cases() {
    let router = router(CostModelKind::Cout);
    for (topo, n, expect) in [
        (Topology::Chain, 3, BackendArm::DpConv),
        (Topology::Cycle, 6, BackendArm::DpConv),
        (Topology::Star, 10, BackendArm::DpConv),
        (Topology::Chain, 13, BackendArm::Hybrid),
        (Topology::Star, 20, BackendArm::Decompose),
    ] {
        let (catalog, query) = WorkloadSpec::new(topo, n).generate(5);
        // The decompose case runs under a deterministic node budget: a
        // wall-clock limit that binds mid-fragment-solve would make the
        // routed and direct runs legitimately diverge (and burn the full
        // limit); a node budget keeps them cheap and bit-reproducible.
        let opts = if expect == BackendArm::Decompose {
            OrderingOptions::default().deterministic_budget(60)
        } else {
            options()
        };
        let label = format!("{topo:?} n={n}");
        let arm = check_routed_identity(&router, &catalog, &query, &opts, &label);
        assert_eq!(arm, expect, "{label}: unexpected arm");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized mixed streams under both a subset-decomposable and a
    /// split-dependent cost model: whichever arm the policy reports, its
    /// direct output matches the routed output bit for bit.
    #[test]
    fn routed_streams_bit_identical_to_reported_arm(
        (seed, tables, hash_model) in (0u64..500, 3usize..=6, any::<bool>())
    ) {
        let model = if hash_model { CostModelKind::Hash } else { CostModelKind::Cout };
        let router = router(model);
        let (catalog, queries) = mixed_stream(seed, tables, 2, 1);
        for (i, q) in queries.iter().enumerate() {
            let arm = check_routed_identity(&router, &catalog, q, &options(), &format!("seed={seed} query={i}"));
            // The small-query policy never spends branch-and-bound here.
            assert!(
                matches!(arm, BackendArm::DpConv | BackendArm::Dp),
                "small query routed to {arm}"
            );
        }
    }
}

/// The DPconv arm is exact where it claims to apply: its C_out optimum
/// matches the classical Selinger DP across every paper topology, plans
/// validate, and both arms certify optimality.
#[test]
fn dpconv_agrees_with_dp_on_cout_optimum() {
    let conv = DpConvOptimizer::default();
    let dp = DpOptimizer::default();
    for topo in Topology::PAPER {
        for n in [2usize, 3, 5, 8] {
            for seed in 0..3u64 {
                let (catalog, query) = WorkloadSpec::new(topo, n).generate(seed);
                let c = conv.order(&catalog, &query, &options()).unwrap();
                let d = dp.order(&catalog, &query, &options()).unwrap();
                c.plan.validate(&query).unwrap();
                assert!(c.proven_optimal && d.proven_optimal);
                let rel = 1e-9 * (1.0 + d.cost.abs());
                assert!(
                    (c.cost - d.cost).abs() <= rel,
                    "{topo:?} n={n} seed={seed}: dpconv {:.6e} vs dp {:.6e}",
                    c.cost,
                    d.cost
                );
            }
        }
    }
}

/// An arm that fails with a chosen classification, for exercising the
/// pass-through contract on every error variant.
#[derive(Clone)]
struct FailingArm {
    err: fn() -> OrderingError,
}

impl JoinOrderer for FailingArm {
    fn name(&self) -> &'static str {
        "failing"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        (CostModelKind::Cout, CostParams::default())
    }

    fn order(
        &self,
        _catalog: &Catalog,
        _query: &Query,
        _options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        Err((self.err)())
    }
}

/// Every error classification an arm can produce survives the router
/// verbatim — no retry, no reclassification, no fallback to another arm.
#[test]
fn every_error_classification_passes_through_unchanged() {
    let variants: [fn() -> OrderingError; 4] = [
        || OrderingError::Timeout,
        || OrderingError::ResourceLimit("node budget exhausted".into()),
        || OrderingError::InvalidConfig("arm misconfigured".into()),
        || OrderingError::Backend("solver refused".into()),
    ];
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 4).generate(1);
    for make in variants {
        let router = RouterOptimizer::new(RouterOptions::default())
            .with_arm(BackendArm::Dp, FailingArm { err: make });
        let got = router.order(&catalog, &query, &options()).unwrap_err();
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", make()),
            "router altered the arm's error"
        );
    }
}

/// The same contract on real arms: a DPconv memory blow-up stays a
/// `ResourceLimit`, and a MILP deterministic-budget exhaustion in the
/// search slot stays a `ResourceLimit` — with messages identical to the
/// direct run.
#[test]
fn real_limit_classifications_pass_through() {
    // DPconv at 12 tables against a budget far below the 4096-subset
    // table: the arm refuses before allocating, and so does the router.
    let tiny = DpConvOptimizer {
        memory_budget_bytes: 1024,
        ..Default::default()
    };
    let router = RouterOptimizer::new(RouterOptions::default()).with_arm(BackendArm::DpConv, tiny);
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 12).generate(3);
    let direct = router
        .arm(BackendArm::DpConv)
        .unwrap()
        .order(&catalog, &query, &options())
        .unwrap_err();
    let routed = router.order(&catalog, &query, &options()).unwrap_err();
    assert!(
        matches!(&routed, OrderingError::ResourceLimit(_)),
        "expected ResourceLimit, got {routed:?}"
    );
    assert_eq!(format!("{routed:?}"), format!("{direct:?}"));

    // A cold MILP with a zero node budget can have no incumbent (the
    // hybrid's greedy seed would always supply one). Installed as the only
    // arm, in the search slot, the small-query rules cannot fire and the
    // search rule routes to it.
    let milp = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low));
    let router = RouterOptimizer::new(RouterOptions::default()).with_arm(BackendArm::Hybrid, milp);
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 4).generate(1);
    let zero_budget = OrderingOptions {
        time_limit: Some(Duration::from_secs(600)),
        deterministic_budget: Some(0),
        ..Default::default()
    };
    let routed = router.order(&catalog, &query, &zero_budget).unwrap_err();
    assert!(
        matches!(&routed, OrderingError::ResourceLimit(_)),
        "expected ResourceLimit, got {routed:?}"
    );
}

/// The acceptance criterion of the router subsystem: `RouterOptimizer`
/// drops into `QueryService` unchanged — submit/ticket semantics and
/// cross-batch dedup hold — and a duplicate-heavy mixed-size stream of
/// small queries resolves without ever invoking branch-and-bound, read off
/// the `SessionStats` arm counts alone.
#[test]
fn service_router_small_traffic_never_reaches_branch_and_bound() {
    const SMALL_SIZES: [usize; 3] = [3, 6, 10];
    let (catalog, queries) = size_swept_stream(&Topology::PAPER, &SMALL_SIZES, 11, 3);
    let unique = (Topology::PAPER.len() * SMALL_SIZES.len()) as u64;

    let service = QueryService::new(catalog.clone(), router(CostModelKind::Cout))
        .with_workers(3)
        .with_options(options());
    let tickets = service.submit_many(queries.iter().cloned());
    let outcomes: Vec<_> = tickets
        .iter()
        .map(|t| t.wait().expect("every small query solves"))
        .collect();
    let stats = service.shutdown();

    assert_eq!(stats.queries, queries.len() as u64);
    assert_eq!(stats.backend_solves, unique, "one solve per structure");
    assert_eq!(stats.cache_hits, queries.len() as u64 - unique);
    assert_eq!(stats.routes.total(), unique, "every routed solve counted");
    assert_eq!(
        stats.routes.search_solves(),
        0,
        "small traffic reached branch-and-bound: {}",
        stats.routes
    );
    assert_eq!(stats.nodes_expanded, 0, "no search nodes anywhere");

    // Zero-API-change drop-in on the sequential surface too: the session
    // produces value-identical results and the same arm counts.
    let mut session =
        PlanSession::new(catalog, Box::new(router(CostModelKind::Cout))).with_options(options());
    let expected = session.optimize_batch(&queries);
    for (i, (e, got)) in expected.iter().zip(&outcomes).enumerate() {
        let e = e.as_ref().unwrap();
        assert_eq!(e.outcome.plan, got.outcome.plan, "query {i}: plan");
        assert_eq!(
            e.outcome.cost.to_bits(),
            got.outcome.cost.to_bits(),
            "query {i}: cost"
        );
    }
    let seq_stats = session.explain();
    assert_eq!(seq_stats.routes, stats.routes);
}

/// The acceptance criterion of the decompose arm's router wiring: traffic
/// at or past `decompose_min_tables` tables never reaches a bare
/// whole-query root LP. Checked two ways — the pure policy routes every
/// query of the large-query stream (all paper topologies at 20/30/60
/// tables) to the decompose arm under the `very-large-decompose` rule,
/// and an end-to-end session over the 20-table slice shows all solves on
/// the decompose arm with zero `search_solves` (the counter that polices
/// bare whole-query root solves) in the aggregated arm counts.
#[test]
fn large_traffic_never_reaches_a_bare_root_lp() {
    let r = router(CostModelKind::Cout);
    let threshold = r.options().decompose_min_tables;
    let (catalog, queries) = large_query_stream(13, 1);
    assert!(!queries.is_empty());
    for q in &queries {
        assert!(q.num_tables() >= threshold, "stream below the threshold");
        let decision = r
            .route_query(q, &options())
            .expect("full router always routes");
        assert_eq!(
            decision.arm,
            BackendArm::Decompose,
            "{} tables routed to {}",
            q.num_tables(),
            decision.arm
        );
        assert_eq!(decision.rule, "very-large-decompose");
    }

    // End-to-end on the threshold-sized slice (a small deterministic node
    // budget keeps the fragment solves cheap; with no time limit set the
    // tight-budget rule cannot preempt the decompose rule).
    let at_threshold: Vec<Query> = queries
        .iter()
        .filter(|q| q.num_tables() == threshold)
        .cloned()
        .collect();
    assert!(!at_threshold.is_empty());
    let mut session = PlanSession::new(catalog, Box::new(r))
        .with_options(OrderingOptions::default().deterministic_budget(60));
    let results = session.optimize_batch(&at_threshold);
    for (q, r) in at_threshold.iter().zip(&results) {
        let outcome = &r.as_ref().expect("decompose solves the stream").outcome;
        outcome.plan.validate(q).expect("stitched plan is valid");
        let decision = outcome.route.expect("routed solve records its decision");
        assert_eq!(decision.rule, "very-large-decompose");
        assert!(!outcome.proven_optimal && outcome.bound.is_none());
    }
    let stats = session.explain();
    assert_eq!(stats.routes.decompose, at_threshold.len() as u64);
    assert_eq!(
        stats.routes.search_solves(),
        0,
        "a very large query ran a bare root LP: {}",
        stats.routes
    );
}
