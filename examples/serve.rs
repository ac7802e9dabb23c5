//! The serving API: one catalog, one backend, a stream of queries, and a
//! structure-keyed plan cache that collapses structurally identical
//! queries onto one backend solve.
//!
//! Run with:
//! `cargo run --release --example serve [copies] [tables] [lower|upper] \
//!      [--backend B] [--workers N] [--submitters N] [--solver-threads T] \
//!      [--snapshot PATH]`
//! (defaults 8, 8, `lower`, `hybrid`, 1, 1, 1).
//!
//! The flags pick the serving path. One worker and one submitter answer the
//! stream with the sequential `PlanSession::optimize_batch`; more of
//! either race `submitters` threads of the stream into a `workers`-thread
//! `QueryService`. `--solver-threads T` runs T branch-and-bound workers
//! inside each MILP solve, so budget `workers * solver_threads <= cores`.
//! Every run panics on a backend failure and asserts that copies of one
//! structure cost the same.
//!
//! * `--backend {greedy,dp,dpconv,milp,hybrid,decomp}` serves one random
//!   structure per paper topology `copies` times, and asserts one backend
//!   solve and `copies - 1` cache hits per structure, a cost-space bound
//!   on every proven solve (under `upper` that is the window-floor-corrected
//!   UpperBound projection) and the requested solver-worker count. Pair
//!   `decomp` with a large `[tables]` (`serve 3 30 --backend decomp`):
//!   below its fragment cap it degenerates to the hybrid.
//! * `--backend router` ignores `[tables]` and serves a size-swept stream
//!   (the paper topologies at 3/6/10/14/20 tables over one catalog),
//!   printing each cold solve's `RouteDecision`. Queries within the exact
//!   window run `dp` or `dpconv` with zero search nodes, queries at the
//!   decompose threshold fire `very-large-decompose`, and at least two
//!   arms serve the stream.
//! * `--snapshot PATH` serves a mixed-topology stream through a
//!   `QueryService`, at any worker and submitter count, whose plan cache
//!   is loaded from `PATH` at boot and exported to it at shutdown. Run
//!   the same command twice: the first boot is cold (one solve per
//!   structure), the second loads the snapshot and must answer the whole
//!   stream with zero backend solves.

use std::time::{Duration, Instant};

use milpjoin::{
    standard_router, BackendArm, DecomposingOptimizer, EncoderConfig, HybridOptimizer, JoinOrderer,
    MilpOptimizer, OrderingOptions, PlanSession, Precision, QueryService, RouterOptions,
    SessionOutcome, SessionStats,
};
use milpjoin_dp::{DpConvOptimizer, DpOptimizer, GreedyOptimizer};
use milpjoin_qopt::{Catalog, Query};
use milpjoin_suite::ServeArgs;
use milpjoin_workloads::{size_swept_stream, Topology, WorkloadSpec};

fn options(cli: &ServeArgs) -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(10)).solver_threads(cli.solver_threads)
}

/// Answers `queries`, returning the outcomes in stream order and the
/// stats: through the sequential `PlanSession` with one worker and one
/// submitter, else raced into a `QueryService`. Values are identical
/// either way; which copy of a structure reports the miss may differ.
fn serve(
    backend: impl JoinOrderer + 'static,
    catalog: Catalog,
    queries: &[Query],
    cli: &ServeArgs,
) -> (Vec<SessionOutcome>, SessionStats) {
    if cli.workers == 1 && cli.submitters == 1 {
        let mut session = PlanSession::new(catalog, Box::new(backend)).with_options(options(cli));
        let outcomes = session
            .optimize_batch(queries)
            .into_iter()
            .map(|r| r.expect("the backend solves this stream"))
            .collect();
        (outcomes, session.explain())
    } else {
        let service = QueryService::new(catalog, backend)
            .with_workers(cli.workers)
            .with_options(options(cli));
        let outcomes = race(&service, queries, cli.submitters);
        service.drain(); // everything waited: returns immediately
        (outcomes, service.shutdown())
    }
}

/// Races `submitters` threads, each feeding an interleaved slice of the
/// stream into the service, then waits on every ticket. Returns the
/// outcomes realigned to stream order.
fn race(service: &QueryService, queries: &[Query], submitters: usize) -> Vec<SessionOutcome> {
    let mut indexed: Vec<(usize, SessionOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let slice: Vec<(usize, Query)> = queries
                    .iter()
                    .enumerate()
                    .skip(s)
                    .step_by(submitters)
                    .map(|(i, q)| (i, q.clone()))
                    .collect();
                scope.spawn(move || {
                    let tickets = service.submit_many(slice.iter().map(|(_, q)| q.clone()));
                    slice
                        .iter()
                        .zip(&tickets)
                        .map(|((i, _), t)| (*i, t.wait().expect("backend solves this stream")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, o)| o).collect()
}

/// Structurally identical queries get cost-identical plans, whichever
/// copy was solved: `first(i)` is the stream position of the first copy
/// of the structure at position `i`.
fn assert_copies_agree(outcomes: &[SessionOutcome], first: impl Fn(usize) -> usize) {
    for (i, o) in outcomes.iter().enumerate() {
        let base = outcomes[first(i)].outcome.cost;
        assert!(
            (o.outcome.cost - base).abs() <= 1e-9 * (1.0 + base.abs()),
            "query {i}: copies of one structure must cost the same"
        );
    }
}

/// The fixed-backend path: per paper topology, one random structure
/// instantiated `copies` times.
fn drive_fixed(backend: impl JoinOrderer + Clone + 'static, cli: &ServeArgs) {
    // Greedy and the subset DPs run no search workers. Decompose reports
    // its fragment-worker count (the repurposed `solver_threads`), so it
    // is held to the requested count like the MILP backends.
    let solver_workers = if matches!(cli.backend.as_str(), "greedy" | "dp" | "dpconv") {
        0
    } else {
        cli.solver_threads
    };
    for topology in Topology::PAPER {
        let (catalog, queries) =
            WorkloadSpec::new(topology, cli.tables).generate_stream(7, 1, cli.copies);
        let start = Instant::now();
        let (outcomes, stats) = serve(backend.clone(), catalog.clone(), &queries, cli);
        let elapsed = start.elapsed();
        println!(
            "{:<6} {} queries in {:>8.2?} ({} submitters x {} workers)  backend: {}  \
             solves: {}  cache hits: {} (hit rate {:.0}%)  exact hits: {}  evictions: {}  \
             in-flight: {} leaders / {} followers / {} wait-hits  nodes: {} (speculative {})  \
             solver workers: {}",
            topology.name(),
            queries.len(),
            elapsed,
            cli.submitters,
            cli.workers,
            backend.name(),
            stats.backend_solves,
            stats.cache_hits,
            100.0 * stats.hit_rate(),
            stats.exact_hits,
            stats.evictions,
            stats.inflight_leaders,
            stats.inflight_followers,
            stats.inflight_wait_hits,
            stats.nodes_expanded,
            stats.speculative_nodes,
            stats.max_workers_used,
        );

        // One structure, one solve, however many threads race it in.
        assert_eq!(
            stats.backend_solves, 1,
            "{topology:?}: copies of one structure must share one solve"
        );
        assert_eq!(stats.queries, queries.len() as u64);
        assert_eq!(stats.cache_hits, queries.len() as u64 - 1);
        assert_eq!(
            stats.max_workers_used, solver_workers,
            "backend solves must run the requested solver-worker count"
        );
        // A finished (gap-closed) solve claims a cost-space bound in both
        // approximation modes, and an exact hit inherits it. The hybrid's
        // documented fallbacks (greedy-only after a rejected seed, a
        // timeout) claim none and are not proven; on these budgets every
        // search solve closes its gap, so the assertion still bites.
        for o in &outcomes {
            assert!(
                !o.outcome.proven_optimal || o.outcome.bound.is_some(),
                "{:?}: a proven {} solve claimed no cost-space bound",
                cli.approx_mode,
                backend.name()
            );
        }
        assert_copies_agree(&outcomes, |_| 0);

        // Show a cache hit when the stream has one, else the lone solve.
        let sample = outcomes
            .iter()
            .find(|o| o.cache_hit)
            .unwrap_or(&outcomes[0]);
        // A factor exists whenever the bound is positive (an optimum below
        // the threshold-window floor honestly proves only `cost >= 0`).
        let factor = sample
            .outcome
            .guaranteed_factor()
            .map_or("n/a".to_string(), |f| format!("{f:.2}"));
        println!(
            "       plan: {}   cost {:.4e}   guaranteed factor {}   cached: {}",
            sample.outcome.plan.render(&catalog),
            sample.outcome.cost,
            factor,
            sample.cache_hit,
        );
    }
}

/// The router path: one size-swept mixed stream over a shared catalog,
/// so the exact fast path, the search tail and the decompose rule all
/// fire in one run.
fn drive_router(router: impl JoinOrderer + 'static, cli: &ServeArgs) {
    // SWEEP_SIZES plus one cell at the decompose threshold.
    const ROUTER_SIZES: [usize; 5] = [3, 6, 10, 14, 20];
    let thresholds = RouterOptions::default();
    let (catalog, queries) =
        size_swept_stream(&Topology::PAPER, &ROUTER_SIZES, 7, cli.copies.max(2));
    let unique = Topology::PAPER.len() * ROUTER_SIZES.len();

    let start = Instant::now();
    let (outcomes, stats) = serve(router, catalog, &queries, cli);
    let elapsed = start.elapsed();

    // Every cold solve carries the decision that dispatched it; a cache
    // hit never re-routes.
    for (i, (o, q)) in outcomes.iter().zip(&queries).enumerate() {
        let Some(decision) = o.outcome.route else {
            assert!(
                o.cache_hit,
                "query {i}: a cold routed solve must record its decision"
            );
            continue;
        };
        let tables = q.num_tables();
        println!("  query {i:>2} ({tables} tables): {decision}");
        // The router's promise for small queries: an exact arm, never
        // branch-and-bound.
        if tables <= thresholds.exact_max_tables {
            let nodes = o.outcome.search.nodes_expanded;
            assert!(
                matches!(decision.arm, BackendArm::Dp | BackendArm::DpConv) && nodes == 0,
                "query {i}: {tables} tables routed via {decision}, {nodes} nodes"
            );
        }
        // Nothing at the decompose threshold reaches a bare whole-query
        // root LP.
        if tables >= thresholds.decompose_min_tables {
            assert_eq!(
                decision.rule, "very-large-decompose",
                "query {i}: {tables} tables routed via {decision}"
            );
        }
    }
    println!(
        "router {} queries in {:>8.2?} ({} submitters x {} workers)  solves: {}  \
         cache hits: {} (hit rate {:.0}%)  arms: {}  nodes: {}",
        queries.len(),
        elapsed,
        cli.submitters,
        cli.workers,
        stats.backend_solves,
        stats.cache_hits,
        100.0 * stats.hit_rate(),
        stats.routes,
        stats.nodes_expanded,
    );

    // The stream spreads over the policy, every routed solve is counted,
    // and duplicate copies deduplicate onto one solve per structure.
    assert!(
        stats.routes.distinct_arms() >= 2,
        "a size-swept stream must exercise at least two arms, got {}",
        stats.routes,
    );
    assert_eq!(stats.routes.total(), stats.backend_solves);
    assert_eq!(stats.backend_solves, unique as u64);
    assert_copies_agree(&outcomes, |i| i % unique);
}

/// The persistence path: a mixed-topology duplicate-heavy stream through
/// a snapshot-armed service. Boot mode is read off the load counters, so
/// the same command is both halves of the warm-boot smoke: the cold boot
/// solves once per structure and exports at shutdown, the warm boot
/// serves everything from the snapshot.
fn drive_snapshot(backend: impl JoinOrderer + 'static, cli: &ServeArgs, path: &str) {
    let mut catalog = Catalog::new();
    let queries: Vec<Query> = Topology::PAPER
        .into_iter()
        .flat_map(|topology| {
            let spec = WorkloadSpec::new(topology, cli.tables);
            spec.generate_stream_into(&mut catalog, 7, 1, cli.copies)
        })
        .collect();
    let unique = Topology::PAPER.len() as u64;

    let service = QueryService::new(catalog, backend)
        .with_workers(cli.workers)
        .with_options(options(cli))
        .with_snapshot(path);
    let boot = service.explain();
    let warm_boot = boot.snapshot_entries_loaded > 0;

    let start = Instant::now();
    let outcomes = race(&service, &queries, cli.submitters);
    service.drain();
    let elapsed = start.elapsed();
    let stats = service.shutdown();

    println!(
        "{} boot: {} queries in {:>8.2?} ({} submitters x {} workers)  solves: {}  \
         warm hits: {}  loaded: {}  rejected: {}  written: {}  -> {}",
        if warm_boot { "warm" } else { "cold" },
        queries.len(),
        elapsed,
        cli.submitters,
        cli.workers,
        stats.backend_solves,
        stats.warm_hits,
        boot.snapshot_entries_loaded,
        boot.snapshot_entries_rejected,
        stats.snapshot_entries_written,
        path,
    );

    assert_eq!(boot.snapshot_entries_rejected, 0, "snapshot must be intact");
    if warm_boot {
        assert_eq!(boot.snapshot_entries_loaded, unique);
        assert_eq!(
            stats.backend_solves, 0,
            "a warm boot must absorb the entire stream from the snapshot"
        );
        assert_eq!(stats.warm_hits, queries.len() as u64);
    } else {
        assert_eq!(stats.backend_solves, unique, "one cold solve per structure");
        assert_eq!(stats.warm_hits, 0);
    }
    assert_eq!(
        stats.snapshot_entries_written, unique,
        "shutdown exports the cache"
    );
    assert_copies_agree(&outcomes, |i| i - i % cli.copies);
}

/// Picks the path from the flags: the persistence path when a snapshot
/// is armed, the router path for the router, else the fixed-backend path.
fn drive(backend: impl JoinOrderer + Clone + 'static, cli: &ServeArgs) {
    if let Some(path) = &cli.snapshot {
        drive_snapshot(backend, cli, path);
    } else if cli.backend == "router" {
        drive_router(backend, cli);
    } else {
        drive_fixed(backend, cli);
    }
}

fn main() {
    // A typo fails with a usage error: the CI smoke relies on `upper`
    // actually exercising the UpperBound projection path.
    let cli = ServeArgs::from_env();
    let config = EncoderConfig {
        approx_mode: cli.approx_mode,
        ..EncoderConfig::default().precision(Precision::Low)
    };
    let (model, params) = (config.cost_model, config.cost_params);
    match cli.backend.as_str() {
        "greedy" => drive(
            GreedyOptimizer {
                cost_model: model,
                params,
            },
            &cli,
        ),
        "dp" => drive(
            DpOptimizer {
                cost_model: model,
                params,
                ..Default::default()
            },
            &cli,
        ),
        "dpconv" => drive(
            DpConvOptimizer {
                params,
                ..Default::default()
            },
            &cli,
        ),
        "milp" => drive(MilpOptimizer::new(config), &cli),
        "hybrid" => drive(HybridOptimizer::new(config), &cli),
        "decomp" => drive(DecomposingOptimizer::new(config), &cli),
        "router" => drive(standard_router(config, RouterOptions::default()), &cli),
        other => unreachable!("ServeArgs::parse rejects backend {other:?}"),
    }
}
