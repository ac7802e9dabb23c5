//! The serving API: one catalog, one backend, a stream of queries — with a
//! structure-keyed plan cache deduplicating backend solves across
//! structurally identical queries, answered by the sequential
//! `PlanSession` or a worker-pool `QueryService`.
//!
//! Run with:
//! `cargo run --release --example session [copies] [tables] [mode] \
//!      [--backend B] [--workers N] [--solver-threads T]`
//! (the argument form doubles as the CI bench-smoke: e.g. `session 3 6`
//! drives one tiny workload per topology through `optimize_batch`,
//! `session 3 6 upper` runs the same batch under the upper-bounding
//! cardinality approximation, asserting the window-floor-corrected
//! cost-space bound is claimed, and `--workers 4` submits the same streams
//! to a 4-worker `QueryService` (`submit_many`) instead of the sequential
//! session; `--solver-threads T` additionally runs T branch-and-bound
//! workers *inside* each MILP solve — total concurrency is the product,
//! so budget `workers * solver_threads <= cores`).
//!
//! `--backend {greedy,dp,dpconv,milp,hybrid,decomp,router}` picks the
//! solver (default `hybrid`). `decomp` is the decompose-and-conquer
//! backend (fragment solves + quotient stitching) — pair it with a large
//! `[tables]` argument (e.g. `session 3 30 --backend decomp`) to exercise
//! actual decomposition; below its fragment cap it degenerates to the
//! hybrid. The `router` backend ignores the `[tables]` argument and
//! instead drives a **size-swept mixed stream** (the paper topologies at
//! 3/6/10/14 tables plus a 20-table decompose tail over one shared
//! catalog), printing each cold solve's `RouteDecision` and asserting via
//! `explain()` that the policy spread the stream over at least two
//! distinct arms and that every tail cell fired `very-large-decompose`.

use std::time::{Duration, Instant};

use milpjoin::{
    standard_router, DecomposingOptimizer, EncoderConfig, HybridOptimizer, JoinOrderer,
    MilpOptimizer, OrderingError, OrderingOptions, PlanSession, PlanTicket, Precision,
    QueryService, RouterOptions, SessionOutcome, SessionStats,
};
use milpjoin_dp::{DpConvOptimizer, DpOptimizer, GreedyOptimizer};
use milpjoin_qopt::{Catalog, Query};
use milpjoin_suite::{ServeArgs, ServeExample};
use milpjoin_workloads::{size_swept_stream, Topology, WorkloadSpec};

/// Runs one stream through the sequential session, or through a
/// `workers`-thread query service with every ticket read in submission
/// order. Values are identical either way; which copy of a structure
/// reports the miss may differ with more than one worker.
fn run_stream<B: JoinOrderer + Clone + 'static>(
    backend: B,
    catalog: Catalog,
    queries: &[Query],
    workers: usize,
    options: OrderingOptions,
) -> (
    Vec<Result<SessionOutcome, OrderingError>>,
    SessionStats,
    Catalog,
) {
    if workers > 1 {
        let service = QueryService::new(catalog, backend)
            .with_workers(workers)
            .with_options(options);
        let tickets = service.submit_many(queries.iter().cloned());
        let results = tickets.iter().map(PlanTicket::wait).collect();
        let catalog = service.catalog().clone();
        (results, service.shutdown(), catalog)
    } else {
        let mut session = PlanSession::new(catalog, Box::new(backend)).with_options(options);
        let results = session.optimize_batch(queries);
        (results, session.explain(), session.catalog().clone())
    }
}

/// The fixed-backend path: one tiny workload per paper topology, each
/// structure repeated `copies` times.
fn drive_fixed<B: JoinOrderer + Clone + 'static>(
    name: &str,
    backend: B,
    cli: &ServeArgs,
    is_search_backend: bool,
) {
    for topology in [Topology::Chain, Topology::Cycle, Topology::Star] {
        let spec = WorkloadSpec::new(topology, cli.tables);
        let (catalog, queries) = spec.generate_stream(7, 1, cli.copies);

        let options = OrderingOptions::with_time_limit(Duration::from_secs(10))
            .solver_threads(cli.solver_threads);
        let start = Instant::now();
        let (results, stats, catalog) =
            run_stream(backend.clone(), catalog, &queries, cli.workers, options);
        let elapsed = start.elapsed();

        let mut costs = Vec::new();
        for r in &results {
            let r = r.as_ref().expect("every backend solves this tiny workload");
            costs.push(r.outcome.cost);
        }
        println!(
            "{:<6} {} queries in {:>8.2?} ({} worker{})  backend: {}  solves: {}  cache hits: {} \
             (hit rate {:.0}%)  exact hits: {}  evictions: {}  nodes: {} \
             (speculative {})  solver workers: {}",
            topology.name(),
            queries.len(),
            elapsed,
            cli.workers,
            if cli.workers == 1 { "" } else { "s" },
            name,
            stats.backend_solves,
            stats.cache_hits,
            100.0 * stats.hit_rate(),
            stats.exact_hits,
            stats.evictions,
            stats.nodes_expanded,
            stats.speculative_nodes,
            stats.max_workers_used,
        );
        // The smoke must actually exercise the requested intra-solve
        // parallelism — but only search backends run solver workers at
        // all; greedy and the subset DPs honestly report zero.
        if is_search_backend {
            assert_eq!(
                stats.max_workers_used,
                cli.solver_threads.max(1),
                "backend solves must run the requested solver-thread count"
            );
        } else {
            assert_eq!(
                stats.max_workers_used, 0,
                "non-search backends must not report search workers"
            );
        }
        // Structurally identical queries get cost-identical plans.
        let first = costs[0];
        assert!(
            costs
                .iter()
                .all(|&c| (c - first).abs() <= 1e-9 * (1.0 + first.abs())),
            "copies of one structure must cost the same"
        );
        // A finished (gap-closed) solve must claim a cost-space bound in
        // *both* approximation modes now that the upper-bounding one
        // carries the window-floor correction. The documented hybrid
        // fallbacks (greedy-only after a rejected seed, timeout) honestly
        // claim none and must not fail the smoke; on these budgets every
        // smoke solve closes its gap, so the assertion still bites.
        let solved = results[0].as_ref().unwrap();
        if solved.outcome.proven_optimal {
            assert!(
                solved.outcome.bound.is_some(),
                "{:?}: finished {name} solve claimed no cost-space bound",
                cli.approx_mode
            );
        }
        // A factor exists whenever the bound is positive (an optimum below
        // the threshold-window floor honestly proves only `cost >= 0`).
        let factor = solved
            .outcome
            .guaranteed_factor()
            .map_or("n/a".to_string(), |f| format!("{f:.2}"));
        // Show a cache hit when the stream has one, else the lone solved
        // query.
        let sample = results
            .iter()
            .flatten()
            .find(|r| r.cache_hit)
            .unwrap_or(solved);
        println!(
            "       plan: {}   cost {:.4e}   guaranteed factor {}   cached: {}",
            sample.outcome.plan.render(&catalog),
            sample.outcome.cost,
            factor,
            sample.cache_hit,
        );
    }
}

/// The router path: one size-swept mixed stream (all paper topologies at
/// 3/6/10/14 tables plus a 20-table tail over a shared catalog), so the
/// policy's exact fast path, its search tail, and the very-large
/// decompose rule all fire in a single batch.
fn drive_router(config: EncoderConfig, cli: &ServeArgs) {
    // SWEEP_SIZES plus one cell at the decompose threshold.
    const ROUTER_SIZES: [usize; 5] = [3, 6, 10, 14, 20];
    let router = standard_router(config, RouterOptions::default());
    let decompose_min = RouterOptions::default().decompose_min_tables;
    let (catalog, queries) =
        size_swept_stream(&Topology::PAPER, &ROUTER_SIZES, 7, cli.copies.max(2));

    let options = OrderingOptions::with_time_limit(Duration::from_secs(10))
        .solver_threads(cli.solver_threads);
    let start = Instant::now();
    let (results, stats, _catalog) = run_stream(router, catalog, &queries, cli.workers, options);
    let elapsed = start.elapsed();

    // Every cold solve carries the decision that dispatched it; cache
    // hits carry none (a hit never re-routes).
    for (i, (r, q)) in results.iter().zip(&queries).enumerate() {
        let r = r.as_ref().expect("every arm solves this stream");
        match r.outcome.route {
            Some(decision) => {
                // The tail cells sit at the decompose threshold: nothing
                // that large may reach a bare whole-query root LP.
                if q.num_tables() >= decompose_min {
                    assert_eq!(
                        decision.rule,
                        "very-large-decompose",
                        "query {i}: {} tables routed via {}",
                        q.num_tables(),
                        decision.rule
                    );
                }
                println!("  query {i:>2} ({} tables): {decision}", q.num_tables());
            }
            None => assert!(r.cache_hit, "a cold routed solve must record its decision"),
        }
    }
    println!(
        "router {} queries in {:>8.2?} ({} worker{})  solves: {}  cache hits: {} \
         (hit rate {:.0}%)  arms: {}",
        queries.len(),
        elapsed,
        cli.workers,
        if cli.workers == 1 { "" } else { "s" },
        stats.backend_solves,
        stats.cache_hits,
        100.0 * stats.hit_rate(),
        stats.routes,
    );

    // The acceptance surface of the router smoke: the mixed stream must
    // actually spread over the policy, every routed solve is counted, and
    // duplicate copies still deduplicate onto one solve per structure.
    assert!(
        stats.routes.distinct_arms() >= 2,
        "a size-swept stream must exercise at least two arms, got {}",
        stats.routes,
    );
    assert!(
        stats.routes.decompose >= 1,
        "the 20-table tail must land on the decompose arm, got {}",
        stats.routes,
    );
    assert_eq!(stats.routes.total(), stats.backend_solves);
    let unique = Topology::PAPER.len() * ROUTER_SIZES.len();
    assert_eq!(stats.backend_solves, unique as u64);
    // Copies of one structure are cost-identical whichever arm solved it.
    for cell in 0..unique {
        let a = results[cell].as_ref().unwrap().outcome.cost;
        let b = results[cell + unique].as_ref().unwrap().outcome.cost;
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "copies of one structure must cost the same"
        );
    }
}

fn main() {
    // `--workers N` selects an N-worker query service; `--solver-threads T`
    // sets the intra-solve branch-and-bound worker count (independent of
    // `--workers`, which parallelizes across queries). A typo fails with a
    // usage error: the CI smoke relies on `upper` actually exercising the
    // UpperBound projection path.
    let cli = ServeArgs::from_env(ServeExample::Session);
    let config = EncoderConfig {
        approx_mode: cli.approx_mode,
        ..EncoderConfig::default().precision(Precision::Low)
    };
    let (model, params) = (config.cost_model, config.cost_params);
    match cli.backend.as_str() {
        "greedy" => drive_fixed(
            "greedy",
            GreedyOptimizer {
                cost_model: model,
                params,
            },
            &cli,
            false,
        ),
        "dp" => drive_fixed(
            "dp",
            DpOptimizer {
                cost_model: model,
                params,
                ..Default::default()
            },
            &cli,
            false,
        ),
        "dpconv" => drive_fixed(
            "dpconv",
            DpConvOptimizer {
                params,
                ..Default::default()
            },
            &cli,
            false,
        ),
        "milp" => drive_fixed("milp", MilpOptimizer::new(config), &cli, true),
        "hybrid" => drive_fixed("hybrid", HybridOptimizer::new(config), &cli, true),
        // The decompose backend reports its fragment-worker count (the
        // repurposed `solver_threads`) as the search worker count, so the
        // search-backend smoke assertions apply to it unchanged.
        "decomp" => drive_fixed("decomp", DecomposingOptimizer::new(config), &cli, true),
        "router" => drive_router(config, &cli),
        other => unreachable!("ServeArgs::parse rejects backend {other:?}"),
    }
}
