//! The two serving workloads: `QueryService` over `standard_router`, driven
//! by closed-loop clients that each wait for a plan before sending the next
//! query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use milpjoin::qopt::cost::plan_cost;
use milpjoin::{standard_router, QueryService, RouterOptions, SessionOutcome, ShardedPlanCache};
use milpjoin_dp::DpOptimizer;
use milpjoin_qopt::router::BackendArm;
use milpjoin_qopt::{Catalog, JoinOrderer, Query};

use crate::util::Rng;
use crate::{encoder_config, replay, Args, Grouping, Report, Samples, Setups};

/// Closed-loop clients (at most the two cores this benchmark is sized for).
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Node budget handed to the service. Serving traffic never reaches a
/// search arm (3–10 tables route to DPconv), so it only has to be finite.
const SERVE_BUDGET: u64 = 20;
/// serve-hot: structures per (topology, size) cell; 9 cells.
const HOT_PER_CELL: usize = 28;
/// serve-churn: structures per cell, cache capacity, and Zipf exponent of
/// the skewed draw.
const CHURN_PER_CELL: usize = 455;
const CHURN_CAPACITY: usize = 512;
const CHURN_ZIPF: f64 = 0.75;
const SIZES: [usize; 3] = [3, 6, 10];
/// Fixed tail percentile of both serving workloads.
const TAIL_PCT: f64 = 99.0;

/// Builds the seeded pool, deduplicated by fingerprint so that every pool
/// entry is its own cache key.
fn pool(seed: u64, per_cell: usize) -> (Catalog, Vec<Query>) {
    crate::pool(seed, None, &SIZES, per_cell)
}

/// Per-query correctness shared by both serving workloads: a valid plan,
/// the reported cost equal to an exact re-cost, never below the DP optimum,
/// and equal to the cost of the structure's first solve.
struct Checker<'a> {
    catalog: &'a Catalog,
    pool: &'a [Query],
    reference: &'a [f64],
    first_cost: Vec<AtomicU64>,
    /// The arm each structure routes to, recorded before timing.
    arms: Vec<BackendArm>,
}

impl<'a> Checker<'a> {
    fn new(
        catalog: &'a Catalog,
        pool: &'a [Query],
        reference: &'a [f64],
        arms: Vec<BackendArm>,
    ) -> Self {
        Checker {
            catalog,
            pool,
            reference,
            first_cost: (0..pool.len())
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
            arms,
        }
    }

    fn check(&self, idx: usize, out: &SessionOutcome) -> Result<(f64, Option<f64>), String> {
        let query = &self.pool[idx];
        let o = &out.outcome;
        o.plan
            .validate(query)
            .map_err(|e| format!("query {idx}: invalid plan: {e}"))?;
        let config = encoder_config();
        let recost = plan_cost(
            self.catalog,
            query,
            &o.plan,
            config.cost_model,
            &config.cost_params,
        )
        .total;
        if !crate::util::same_cost(recost, o.cost) {
            return Err(format!(
                "query {idx}: reported cost {} != re-cost {recost}",
                o.cost
            ));
        }
        let reference = self.reference[idx];
        if o.cost < reference * (1.0 - 1e-9) {
            return Err(format!(
                "query {idx}: cost {} beats the DP optimum {reference}",
                o.cost
            ));
        }
        if let Some(decision) = o.route {
            if decision.arm != self.arms[idx] {
                return Err(format!(
                    "query {idx}: routed to {} but recorded {}",
                    decision.arm, self.arms[idx]
                ));
            }
        }
        let first = &self.first_cost[idx];
        let prev = first.load(Ordering::Relaxed);
        if f64::from_bits(prev).is_nan() {
            let _ = first.compare_exchange(
                prev,
                o.cost.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        } else if !crate::util::same_cost(f64::from_bits(prev), o.cost) {
            return Err(format!(
                "query {idx}: cost {} differs from its first solve {}",
                o.cost,
                f64::from_bits(prev)
            ));
        }
        let ratio = if reference > 0.0 {
            o.cost / reference
        } else {
            1.0
        };
        Ok((ratio, o.guaranteed_factor()))
    }
}

/// One closed-loop client's state, kept across windows.
struct Client {
    rng: Rng,
    samples: Samples,
    /// The start of the client's query sequence, for the traced replay.
    sequence: Vec<usize>,
    /// Queries sent so far.
    k: u64,
}

/// Runs `CLIENTS` closed-loop clients against `service` for `WINDOWS`
/// equal windows that together last `seconds`, calling `between_windows`
/// after each while the clients wait. `pick(client, k, rng)` names the pool
/// entry of a client's `k`-th query. Returns the samples and the start of
/// client 0's query sequence, for the traced replay.
fn drive(
    service: &QueryService,
    checker: &Checker<'_>,
    seconds: f64,
    seed: u64,
    pick: &(dyn Fn(usize, u64, &mut Rng) -> usize + Sync),
    cache_hits_only: bool,
    between_windows: &mut dyn FnMut(),
) -> (Samples, Vec<usize>) {
    let window_s = seconds / crate::WINDOWS as f64;
    let grouping = Grouping::Windows(crate::WINDOWS, window_s);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            rng: Rng::new(crate::util::sub_seed(seed, 1000 + c as u64)),
            samples: Samples::new(grouping.clone()),
            sequence: Vec::new(),
            k: 0,
        })
        .collect();
    for window in 0..crate::WINDOWS {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (c, client) in clients.iter_mut().enumerate() {
                scope.spawn(move || {
                    while start.elapsed().as_secs_f64() < window_s {
                        let idx = pick(c, client.k, &mut client.rng);
                        client.k += 1;
                        let query = checker.pool[idx].clone();
                        let t = Instant::now();
                        let result = service.submit(query).wait();
                        let latency = t.elapsed().as_secs_f64() * 1e3;
                        let samples = &mut client.samples;
                        samples.attempted += 1;
                        if client.sequence.len() < replay::MAX_SERVE_REPLAYS {
                            client.sequence.push(idx);
                        }
                        let verdict =
                            result
                                .map_err(|e| format!("query {idx}: {e}"))
                                .and_then(|out| {
                                    if cache_hits_only && !out.cache_hit {
                                        return Err(format!("query {idx}: expected a cache hit"));
                                    }
                                    checker.check(idx, &out)
                                });
                        match verdict {
                            Ok((ratio, guarantee)) => {
                                samples.push_latency(window, latency);
                                samples.push_quality(ratio, guarantee);
                            }
                            Err(e) => {
                                if samples.failed < 5 {
                                    eprintln!("check failed: {e}");
                                }
                                samples.failed += 1;
                            }
                        }
                    }
                });
            }
        });
        between_windows();
    }
    let mut all = Samples::new(grouping);
    let mut first_sequence = Vec::new();
    for (c, client) in clients.into_iter().enumerate() {
        all.merge(client.samples);
        if c == 0 {
            first_sequence = client.sequence;
        }
    }
    (all, first_sequence)
}

/// DP optimum of every pool entry, computed before timing with a backend
/// the serving path does not use.
fn dp_reference(catalog: &Catalog, pool: &[Query]) -> Vec<f64> {
    let dp = DpOptimizer::default();
    pool.iter()
        .map(|q| {
            dp.order(catalog, q, &Default::default())
                .expect("the DP solves every pool query")
                .cost
        })
        .collect()
}

/// serve-hot: every request hits a cache warm-booted from a snapshot.
pub fn serve_hot(args: &Args) -> Report {
    let mut report = Report::default();
    let per_cell = if args.tiny { 3 } else { HOT_PER_CELL };
    let options = args.options(SERVE_BUDGET);
    let router = standard_router(encoder_config(), RouterOptions::default());

    // Untimed preparation: solve the pool once and write the snapshot.
    let (catalog, queries) = pool(args.seed, per_cell);
    let reference = dp_reference(&catalog, &queries);
    let arms: Vec<BackendArm> = queries
        .iter()
        .map(|q| {
            router
                .route_query(q, &options)
                .expect("router has arms")
                .arm
        })
        .collect();
    let checker = Checker::new(&catalog, &queries, &reference, arms);
    std::fs::create_dir_all(crate::OUT_DIR).expect("create the output directory");
    let snapshot = std::path::Path::new(crate::OUT_DIR).join(format!(
        "serve-hot-{}-{}.snap",
        args.seed,
        std::process::id()
    ));
    let mut session = milpjoin::PlanSession::new(catalog.clone(), Box::new(router.clone()))
        .with_options(options.clone());
    for (idx, q) in queries.iter().enumerate() {
        // The first check of each structure records its first-solve cost.
        if let Err(e) = session
            .optimize(q)
            .map_err(|e| format!("query {idx}: {e}"))
            .and_then(|out| checker.check(idx, &out))
        {
            report.violation(format!("preparation: {e}"));
        }
    }
    let snapshot_config = session.snapshot_config();
    let export_start = Instant::now();
    let written = session
        .shared_cache()
        .write_snapshot(&snapshot, &snapshot_config)
        .expect("write the snapshot");
    let export_ms = export_start.elapsed().as_secs_f64() * 1e3;
    let recorded_solves = session.explain().backend_solves;
    if written.entries != queries.len() as u64 || recorded_solves != queries.len() as u64 {
        report.violation(format!(
            "preparation solved {recorded_solves} and exported {} of {} structures",
            written.entries,
            queries.len()
        ));
    }

    // Timed set-up: build the catalog and pool, boot the service from the
    // snapshot.
    let mut setups = Setups::new(|| {
        let (catalog, _queries) = pool(args.seed, per_cell);
        QueryService::new(catalog, router.clone())
            .with_workers(WORKERS)
            .with_options(options.clone())
            .with_snapshot(&snapshot)
    });
    let service = setups.batch();
    let boot = service.explain();
    if boot.snapshot_entries_loaded != queries.len() as u64 || boot.snapshot_entries_rejected != 0 {
        report.violation(format!(
            "warm boot loaded {} and rejected {} of {} entries",
            boot.snapshot_entries_loaded,
            boot.snapshot_entries_rejected,
            queries.len()
        ));
    }

    let n = queries.len();
    let pick = move |c: usize, k: u64, _: &mut Rng| (c + CLIENTS * k as usize) % n;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (samples, sequence) = drive(
        &service,
        &checker,
        seconds,
        args.seed,
        &pick,
        true,
        &mut || drop(setups.batch()),
    );
    service.drain();
    let stats = service.explain();
    let setup_s = setups.seconds();

    // Determinism guard: the recorded preparation solved every structure,
    // so serving must run zero backend solves and zero search.
    if stats.backend_solves != 0 || stats.routes.total() != 0 || stats.nodes_expanded != 0 {
        report.violation(format!(
            "serve-hot ran {} backend solves, {} routed solves, {} nodes (recorded: 0)",
            stats.backend_solves,
            stats.routes.total(),
            stats.nodes_expanded
        ));
    }
    if stats.warm_hits != stats.queries || stats.cache_hits != stats.queries {
        report.violation(format!(
            "serve-hot: {} warm hits and {} hits over {} queries",
            stats.warm_hits, stats.cache_hits, stats.queries
        ));
    }
    samples.report(&mut report, TAIL_PCT, setup_s);

    if args.trace {
        let load_cache = ShardedPlanCache::new(milpjoin::qopt::session::DEFAULT_CACHE_CAPACITY, 1);
        let t = Instant::now();
        let loaded = load_cache.load_snapshot(&snapshot, &snapshot_config);
        report.set("persist.load_ms", t.elapsed().as_secs_f64() * 1e3);
        report.set("persist.export_ms", export_ms);
        report.set("persist.entries", loaded.loaded as f64);
        replay::serve(
            &mut report,
            args,
            &options,
            &service,
            &router,
            &catalog,
            &queries,
            &sequence,
            &samples,
            &stats,
            args.seconds / 2.0,
        );
    }
    drop(service);
    let _ = std::fs::remove_file(&snapshot);
    report
}

/// serve-churn: a skewed draw over a working set larger than the cache.
pub fn serve_churn(args: &Args) -> Report {
    let mut report = Report::default();
    let per_cell = if args.tiny { 12 } else { CHURN_PER_CELL };
    let capacity = if args.tiny { 16 } else { CHURN_CAPACITY };
    let options = args.options(SERVE_BUDGET);
    let router = standard_router(encoder_config(), RouterOptions::default());

    let (catalog, queries) = pool(args.seed, per_cell);
    let reference = dp_reference(&catalog, &queries);
    let arms: Vec<BackendArm> = queries
        .iter()
        .map(|q| {
            router
                .route_query(q, &options)
                .expect("router has arms")
                .arm
        })
        .collect();
    let checker = Checker::new(&catalog, &queries, &reference, arms);

    let mut setups = Setups::new(|| {
        let (catalog, _queries) = pool(args.seed, per_cell);
        QueryService::new(catalog, router.clone())
            .with_workers(WORKERS)
            .with_options(options.clone())
            .with_cache_capacity(capacity)
    });
    let service = setups.batch();

    // Zipf(CHURN_ZIPF) over ranks; rank r is pool entry r. The pool
    // interleaves its cells, so the popular head has the same mix of
    // shapes and sizes under every seed.
    let mut cdf: Vec<f64> = Vec::with_capacity(queries.len());
    let mut acc = 0.0;
    for r in 0..queries.len() {
        acc += 1.0 / ((r + 1) as f64).powf(CHURN_ZIPF);
        cdf.push(acc);
    }
    let pick = move |_: usize, _: u64, rng: &mut Rng| {
        let u = rng.next_f64() * acc;
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (samples, sequence) = drive(
        &service,
        &checker,
        seconds,
        args.seed,
        &pick,
        false,
        &mut || drop(setups.batch()),
    );
    service.drain();
    let stats = service.explain();
    let setup_s = setups.seconds();

    // Determinism guard (multi-client, so per-structure rather than
    // per-run): every miss is one routed solve on its recorded arm, and no
    // solve reaches branch-and-bound.
    if stats.routes.total() != stats.backend_solves
        || stats.routes.search_solves() != 0
        || stats.nodes_expanded != 0
        || stats.total_lp_iterations != 0
        || stats.cache_hits + stats.backend_solves != stats.queries
    {
        report.violation(format!(
            "serve-churn counters: {} queries, {} hits, {} solves, arms {}, {} nodes, {} LP iterations",
            stats.queries,
            stats.cache_hits,
            stats.backend_solves,
            stats.routes,
            stats.nodes_expanded,
            stats.total_lp_iterations
        ));
    }
    samples.report(&mut report, TAIL_PCT, setup_s);

    if args.trace {
        replay::serve(
            &mut report,
            args,
            &options,
            &service,
            &router,
            &catalog,
            &queries,
            &sequence,
            &samples,
            &stats,
            args.seconds / 2.0,
        );
    }
    report
}
