//! The `QueryService` continuous-ingest API: submit queries from several
//! threads at once, wait on tickets, and watch the cross-batch in-flight
//! table collapse concurrent duplicates onto one backend solve.
//!
//! Run with:
//! `cargo run --release --example service [copies] [tables] \
//!      [--backend B] [--submitters N] [--workers N]`
//! (the argument form doubles as the CI bench-smoke: `service 3 6
//! --submitters 4 --workers 2` races four submitter threads of one
//! duplicate-heavy stream per topology into a two-worker service and
//! asserts that each unique structure was solved exactly once, that every
//! ticket's cost matches its structure's first solve, and that
//! drain-then-shutdown leaves no stuck tickets).
//!
//! `--backend {greedy,dp,dpconv,milp,hybrid,decomp,router}` picks the
//! solver (default `hybrid`). The `router` backend drives a duplicate-heavy
//! **small**-size-swept mixed stream (3/6/10 tables, all paper
//! topologies) instead, prints each cold solve's `RouteDecision`, and
//! asserts from the service stats that no query of the stream ever
//! reached a branch-and-bound arm — the router's core promise for
//! small-query traffic.
//!
//! `--snapshot PATH` arms the persistent plan cache (hybrid backend): a
//! combined mixed-topology stream is served, and the cache is exported to
//! `PATH` at shutdown. Run the same command twice — the first boot is
//! cold (one solve per unique structure, then the export), the second
//! loads the snapshot and must absorb the **entire** stream with zero
//! backend solves. The assertions are boot-mode-aware, so the pair of
//! runs is the warm-boot CI smoke.

use std::time::{Duration, Instant};

use milpjoin::{
    standard_router, DecomposingOptimizer, EncoderConfig, HybridOptimizer, MilpOptimizer,
    OrderingOptions, Precision, QueryService, RouterOptions, SessionStats,
};
use milpjoin_dp::{DpConvOptimizer, DpOptimizer, GreedyOptimizer};
use milpjoin_qopt::{JoinOrderer, Query, SessionOutcome};
use milpjoin_suite::{ServeArgs, ServeExample};
use milpjoin_workloads::{size_swept_stream, Topology, WorkloadSpec};

/// Races `submitters` threads, each feeding an interleaved slice of the
/// stream into the service, then waits on every ticket. Returns the
/// outcomes realigned to stream order plus the drained service's stats.
fn race_stream(
    service: &QueryService,
    queries: &[Query],
    submitters: usize,
) -> Vec<SessionOutcome> {
    let mut indexed: Vec<(usize, SessionOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let service = &service;
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

/// The fixed-backend path: per topology, one random structure instantiated
/// `copies` times — concurrent duplicates must collapse onto one solve.
fn drive_fixed(
    name: &str,
    backend: impl JoinOrderer + Clone + 'static,
    copies: usize,
    tables: usize,
    submitters: usize,
    workers: usize,
) {
    for topology in [Topology::Chain, Topology::Cycle, Topology::Star] {
        let spec = WorkloadSpec::new(topology, tables);
        // One random structure instantiated `copies` times over disjoint
        // tables — a duplicate-heavy stream, the shape recurring query
        // templates take in real traffic.
        let (catalog, queries) = spec.generate_stream(7, 1, copies);

        let service = QueryService::new(catalog, backend.clone())
            .with_workers(workers)
            .with_options(OrderingOptions::with_time_limit(Duration::from_secs(10)));

        let start = Instant::now();
        let outcomes = race_stream(&service, &queries, submitters);
        service.drain(); // everything waited: returns immediately
        let elapsed = start.elapsed();
        let stats = service.shutdown();

        println!(
            "{:<6} {} queries in {:>8.2?} ({} submitters x {} workers)  backend: {}  solves: {}  \
             cache hits: {} (hit rate {:.0}%)  in-flight: {} leaders / {} followers / {} wait-hits",
            topology.name(),
            queries.len(),
            elapsed,
            submitters,
            workers,
            name,
            stats.backend_solves,
            stats.cache_hits,
            100.0 * stats.hit_rate(),
            stats.inflight_leaders,
            stats.inflight_followers,
            stats.inflight_wait_hits,
        );

        // The acceptance surface of the smoke: one structure, one solve —
        // however many threads race it in.
        assert_eq!(
            stats.backend_solves, 1,
            "{topology:?}: concurrent duplicates must share one solve"
        );
        assert_eq!(stats.queries, queries.len() as u64);
        assert_eq!(stats.cache_hits, queries.len() as u64 - 1);
        let first = outcomes[0].outcome.cost;
        assert!(
            outcomes
                .iter()
                .all(|o| (o.outcome.cost - first).abs() <= 1e-9 * (1.0 + first.abs())),
            "copies of one structure must cost the same"
        );
        println!(
            "       cost {:.4e}   exact hits: {}   evictions: {}",
            first, stats.exact_hits, stats.evictions,
        );
    }
}

/// The router path: a duplicate-heavy mixed stream of *small* sizes only
/// (all within the policy's exact window), raced through the service. The
/// stats must show every solve went to an exact arm — branch-and-bound
/// never fires on small-query traffic.
fn drive_router(config: EncoderConfig, copies: usize, submitters: usize, workers: usize) {
    const SMALL_SIZES: [usize; 3] = [3, 6, 10];
    let router = standard_router(config, RouterOptions::default());
    let (catalog, queries) = size_swept_stream(&Topology::PAPER, &SMALL_SIZES, 7, copies.max(2));
    let unique = Topology::PAPER.len() * SMALL_SIZES.len();

    let service = QueryService::new(catalog, router)
        .with_workers(workers)
        .with_options(OrderingOptions::with_time_limit(Duration::from_secs(10)));

    let start = Instant::now();
    let outcomes = race_stream(&service, &queries, submitters);
    service.drain();
    let elapsed = start.elapsed();
    let stats: SessionStats = service.shutdown();

    for (i, (o, q)) in outcomes.iter().zip(&queries).enumerate() {
        if let Some(decision) = o.outcome.route {
            println!("  query {i:>2} ({} tables): {decision}", q.num_tables());
        }
    }
    println!(
        "router {} queries in {:>8.2?} ({} submitters x {} workers)  solves: {}  \
         cache hits: {} (hit rate {:.0}%)  arms: {}  nodes: {}",
        queries.len(),
        elapsed,
        submitters,
        workers,
        stats.backend_solves,
        stats.cache_hits,
        100.0 * stats.hit_rate(),
        stats.routes,
        stats.nodes_expanded,
    );

    // The router's core promise on small-query traffic, read off the
    // service stats: every unique structure solved once, every solve
    // dispatched to an exact arm, zero branch-and-bound nodes anywhere.
    assert_eq!(stats.backend_solves, unique as u64);
    assert_eq!(stats.routes.total(), unique as u64);
    assert_eq!(
        stats.routes.search_solves(),
        0,
        "small queries must never reach branch-and-bound, got {}",
        stats.routes,
    );
    assert_eq!(stats.nodes_expanded, 0);
    // Copies of one structure are cost-identical across the cache.
    for cell in 0..unique {
        let a = outcomes[cell].outcome.cost;
        let b = outcomes[cell + unique].outcome.cost;
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "copies of one structure must cost the same"
        );
    }
}

/// The persistence path: a combined mixed-topology duplicate-heavy stream
/// through a snapshot-armed service. Boot mode is detected from the load
/// counters, so the same invocation doubles as both halves of the
/// warm-boot smoke: cold boot solves once per structure and exports at
/// shutdown; warm boot serves everything from the snapshot.
fn drive_snapshot(
    config: EncoderConfig,
    copies: usize,
    tables: usize,
    submitters: usize,
    workers: usize,
    path: &str,
) {
    let topologies = [Topology::Chain, Topology::Cycle, Topology::Star];
    let mut catalog = milpjoin_qopt::Catalog::new();
    let mut queries = Vec::new();
    for topology in topologies {
        queries.extend(WorkloadSpec::new(topology, tables).generate_stream_into(
            &mut catalog,
            7,
            1,
            copies,
        ));
    }
    let unique = topologies.len() as u64;

    let service = QueryService::new(catalog, HybridOptimizer::new(config))
        .with_workers(workers)
        .with_options(OrderingOptions::with_time_limit(Duration::from_secs(10)))
        .with_snapshot(path);
    let boot = service.explain();
    let warm_boot = boot.snapshot_entries_loaded > 0;

    let start = Instant::now();
    let outcomes = race_stream(&service, &queries, submitters);
    service.drain();
    let elapsed = start.elapsed();
    let stats = service.shutdown();

    println!(
        "{} boot: {} queries in {:>8.2?} ({} submitters x {} workers)  solves: {}  \
         warm hits: {}  loaded: {}  rejected: {}  written: {}  -> {}",
        if warm_boot { "warm" } else { "cold" },
        queries.len(),
        elapsed,
        submitters,
        workers,
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
    // Copies of one structure are cost-identical, warm or cold.
    for cell in 0..topologies.len() {
        let base = outcomes[cell * copies].outcome.cost;
        for o in &outcomes[cell * copies..(cell + 1) * copies] {
            assert!(
                (o.outcome.cost - base).abs() <= 1e-9 * (1.0 + base.abs()),
                "copies of one structure must cost the same"
            );
        }
    }
}

fn main() {
    let ServeArgs {
        copies,
        tables,
        backend,
        workers,
        submitters,
        snapshot,
        ..
    } = ServeArgs::from_env(ServeExample::Service);

    let config = EncoderConfig::default().precision(Precision::Low);
    if let Some(path) = snapshot {
        drive_snapshot(config, copies, tables, submitters, workers, &path);
        return;
    }
    let (model, params) = (config.cost_model, config.cost_params);
    match backend.as_str() {
        "greedy" => drive_fixed(
            "greedy",
            GreedyOptimizer {
                cost_model: model,
                params,
            },
            copies,
            tables,
            submitters,
            workers,
        ),
        "dp" => drive_fixed(
            "dp",
            DpOptimizer {
                cost_model: model,
                params,
                ..Default::default()
            },
            copies,
            tables,
            submitters,
            workers,
        ),
        "dpconv" => drive_fixed(
            "dpconv",
            DpConvOptimizer {
                params,
                ..Default::default()
            },
            copies,
            tables,
            submitters,
            workers,
        ),
        "milp" => drive_fixed(
            "milp",
            MilpOptimizer::new(config),
            copies,
            tables,
            submitters,
            workers,
        ),
        "hybrid" => drive_fixed(
            "hybrid",
            HybridOptimizer::new(config),
            copies,
            tables,
            submitters,
            workers,
        ),
        "decomp" => drive_fixed(
            "decomp",
            DecomposingOptimizer::new(config),
            copies,
            tables,
            submitters,
            workers,
        ),
        "router" => drive_router(config, copies, submitters, workers),
        other => unreachable!("ServeArgs::parse rejects backend {other:?}"),
    }
}
