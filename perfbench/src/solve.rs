//! The two solver workloads: closed-loop clients each driving their own
//! `PlanSession`, every query a distinct structure, node-metered budgets
//! only.

use std::collections::BTreeMap;
use std::time::Instant;

use milpjoin::qopt::cost::plan_cost;
use milpjoin::{
    standard_router, BackendArm, DecomposeOptions, DecomposingOptimizer, EncoderConfig,
    HybridOptimizer, PlanSession, RouterOptimizer, RouterOptions, SessionOutcome,
};
use milpjoin_dp::{DpConvOptimizer, GreedyOptimizer};
use milpjoin_qopt::{Catalog, JoinOrderer, LeftDeepPlan, OrderingOptions, Query};

use crate::util::same_cost;
use crate::{encoder_config, replay, Args, Grouping, Report, Samples, Setups};

/// Statistics seed of both solver pools. Single solves are heavy-tailed
/// (one structure in a hundred can cost a hundred medians), so pools drawn
/// per seed measure the draw more than the program: the structures stay
/// fixed and `--seed` shuffles their order.
const POOL_SEED: u64 = 2017;

/// milp-cold: sizes, structures per (topology, size) cell, and the node
/// budget. From 7 tables on, single solves under this budget take seconds,
/// too few per run for steady medians.
pub const MILP_SIZES: [usize; 2] = [5, 6];
const MILP_PER_CELL: usize = 17;
pub const MILP_BUDGET: u64 = 20;
const MILP_TAIL_PCT: f64 = 75.0;
/// One client per core, each with its own session: with one client the
/// run followed the speed of whichever core it landed on.
const MILP_CLIENTS: usize = 2;

/// large-decomp: sizes, structures per cell, node budget, fragment workers
/// and the largest fragment. The standard router's 10-table fragments cost
/// 0.1–13 s per query under this budget; 6-table fragments keep a run at
/// hundreds of solves.
pub const LARGE_SIZES: [usize; 3] = [20, 30, 60];
const LARGE_PER_CELL: usize = 12;
pub const LARGE_BUDGET: u64 = 12;
pub const LARGE_THREADS: usize = 2;
pub const LARGE_FRAGMENT_TABLES: usize = 6;
/// p90 falls just below the ten heaviest structures, on the slowest of a
/// dozen near-equal ones, and moved by a quarter between runs.
const LARGE_TAIL_PCT: f64 = 75.0;

/// Exact counters of one solve, compared bit for bit whenever the query is
/// solved again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub nodes: u64,
    pub root_lp_iterations: u64,
    pub lp_iterations: u64,
    pub cost_bits: u64,
    pub arm: Option<BackendArm>,
}

impl Counters {
    fn of(out: &SessionOutcome) -> Self {
        let o = &out.outcome;
        Counters {
            nodes: o.search.nodes_expanded,
            root_lp_iterations: o.search.root_lp_iterations,
            lp_iterations: o.search.total_lp_iterations,
            cost_bits: o.cost.to_bits(),
            arm: o.route.map(|d| d.arm),
        }
    }
}

/// One timed solve of the measured window, kept for the traced replay.
#[derive(Debug, Clone)]
pub struct Solved {
    pub idx: usize,
    pub latency_us: f64,
    pub backend_us: f64,
    pub counters: Counters,
    pub plan: LeftDeepPlan,
}

/// What a solver workload checks on each outcome, beyond the shared plan
/// validity and re-cost checks.
pub struct Expect<'a> {
    pub reference: &'a [f64],
    /// The reference is an optimum (a lower limit on the cost) rather than
    /// a heuristic plan (an upper limit).
    pub reference_is_optimum: bool,
    pub arm: Option<BackendArm>,
}

fn check(
    catalog: &Catalog,
    query: &Query,
    idx: usize,
    out: &SessionOutcome,
    expect: &Expect<'_>,
) -> Result<(f64, Option<f64>), String> {
    let o = &out.outcome;
    o.plan
        .validate(query)
        .map_err(|e| format!("query {idx}: invalid plan: {e}"))?;
    let config = encoder_config();
    let recost = plan_cost(
        catalog,
        query,
        &o.plan,
        config.cost_model,
        &config.cost_params,
    )
    .total;
    if !same_cost(recost, o.cost) {
        return Err(format!(
            "query {idx}: reported cost {} != re-cost {recost}",
            o.cost
        ));
    }
    let reference = expect.reference[idx];
    if expect.reference_is_optimum {
        if o.cost < reference * (1.0 - 1e-9) {
            return Err(format!(
                "query {idx}: cost {} beats the optimum {reference}",
                o.cost
            ));
        }
        if let Some(bound) = o.bound {
            if bound > reference * (1.0 + 1e-9) {
                return Err(format!(
                    "query {idx}: bound {bound} exceeds the optimum {reference}"
                ));
            }
        }
    } else if o.cost > reference * (1.0 + 1e-9) {
        return Err(format!(
            "query {idx}: cost {} loses to greedy {reference}",
            o.cost
        ));
    }
    if let Some(arm) = expect.arm {
        if o.route.map(|d| d.arm) != Some(arm) {
            return Err(format!(
                "query {idx}: served by {:?}, expected {arm}",
                o.route
            ));
        }
    }
    let ratio = if reference > 0.0 {
        o.cost / reference
    } else {
        1.0
    };
    Ok((ratio, o.guaranteed_factor()))
}

/// What one client of a solver workload measured and checked.
struct ClientRun {
    samples: Samples,
    solved: Vec<Solved>,
    /// Counters of each query's first solve, and how often it repeated.
    recorded: BTreeMap<usize, (Counters, usize)>,
    violations: Vec<String>,
}

/// One pass of one client: solves its share of the pool
/// (`idx % clients == client`), then clears the cache so that every solve
/// of the next pass is cold. Every repeat of a query must reproduce the
/// counters its first solve recorded.
fn client_pass(
    session: &mut PlanSession,
    catalog: &Catalog,
    queries: &[Query],
    expect: &Expect<'_>,
    (client, clients): (usize, usize),
    run: &mut ClientRun,
) {
    for (idx, query) in queries.iter().enumerate().skip(client).step_by(clients) {
        let t = Instant::now();
        let result = session.optimize(query);
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        run.samples.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("check failed: query {idx}: {e}");
                run.samples.failed += 1;
                continue;
            }
        };
        match check(catalog, query, idx, &out, expect) {
            Ok((ratio, guarantee)) => {
                run.samples.push_latency(idx, latency_us / 1e3);
                // Quality counts each query once, whatever the number of
                // passes.
                if !run.recorded.contains_key(&idx) {
                    run.samples.push_quality(ratio, guarantee);
                }
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                run.samples.failed += 1;
            }
        }
        let counters = Counters::of(&out);
        match run.recorded.get_mut(&idx) {
            Some((first, repeats)) => {
                *repeats += 1;
                if *first != counters {
                    run.violations
                        .push(format!("query {idx}: {counters:?} != recorded {first:?}"));
                }
            }
            None => {
                run.recorded.insert(idx, (counters, 0));
            }
        }
        run.solved.push(Solved {
            idx,
            latency_us,
            backend_us: out.outcome.elapsed.as_secs_f64() * 1e6,
            counters,
            plan: out.outcome.plan,
        });
    }
    session.clear_cache();
}

/// Runs one closed-loop client per session over disjoint shares of the
/// pool, in whole passes (see [`client_pass`]) until `seconds` have passed,
/// calling `between_passes` after each while the clients wait. When only
/// one pass fit, the two cheapest queries are solved again in a fresh
/// session and compared the same way.
#[allow(clippy::too_many_arguments)]
fn run_clients(
    report: &mut Report,
    mut sessions: Vec<PlanSession>,
    fresh: &dyn Fn() -> PlanSession,
    catalog: &Catalog,
    queries: &[Query],
    expect: &Expect<'_>,
    seconds: f64,
    between_passes: &mut dyn FnMut(),
) -> (Samples, Vec<Solved>) {
    let clients = sessions.len();
    let mut runs: Vec<ClientRun> = (0..clients)
        .map(|_| ClientRun {
            samples: Samples::new(Grouping::PerQuery(clients)),
            solved: Vec::new(),
            recorded: BTreeMap::new(),
            violations: Vec::new(),
        })
        .collect();
    let start = Instant::now();
    loop {
        std::thread::scope(|scope| {
            for (c, (session, run)) in sessions.iter_mut().zip(&mut runs).enumerate() {
                scope.spawn(move || {
                    client_pass(session, catalog, queries, expect, (c, clients), run);
                });
            }
        });
        between_passes();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut samples = Samples::new(Grouping::PerQuery(clients));
    let mut solved = Vec::new();
    let mut recorded = BTreeMap::new();
    for run in runs {
        samples.merge(run.samples);
        solved.extend(run.solved);
        recorded.extend(run.recorded);
        for v in run.violations {
            report.violation(v);
        }
    }

    let mut once: Vec<&Solved> = solved
        .iter()
        .filter(|s| {
            recorded
                .get(&s.idx)
                .is_some_and(|(_, repeats)| *repeats == 0)
        })
        .collect();
    once.sort_by(|a, b| a.latency_us.total_cmp(&b.latency_us));
    let mut verifier = fresh();
    for s in once.into_iter().take(2) {
        match verifier.optimize(&queries[s.idx]) {
            Ok(out) if Counters::of(&out) == s.counters => {}
            Ok(out) => report.violation(format!(
                "query {}: re-solve gave {:?}, recorded {:?}",
                s.idx,
                Counters::of(&out),
                s.counters
            )),
            Err(e) => report.violation(format!("query {}: re-solve failed: {e}", s.idx)),
        }
    }
    (samples, solved)
}

/// milp-cold: the paper's pipeline (greedy-seeded MILP) on distinct
/// mid-size structures.
pub fn milp_cold(args: &Args) -> Report {
    let mut report = Report::default();
    let per_cell = if args.tiny { 1 } else { MILP_PER_CELL };
    let options = args.options(MILP_BUDGET);
    let config = encoder_config();

    let (catalog, queries) = crate::pool(POOL_SEED, Some(args.seed), &MILP_SIZES, per_cell);
    let dpconv = DpConvOptimizer {
        params: config.cost_params,
        ..Default::default()
    };
    let reference: Vec<f64> = queries
        .iter()
        .map(|q| {
            dpconv
                .order(&catalog, q, &OrderingOptions::default())
                .expect("DPconv solves every pool query")
                .cost
        })
        .collect();

    let build = || {
        let (catalog, _queries) = crate::pool(POOL_SEED, Some(args.seed), &MILP_SIZES, per_cell);
        PlanSession::new(catalog, Box::new(HybridOptimizer::new(config.clone())))
            .with_options(options.clone())
    };
    let mut setups = Setups::new(&build);
    // Every client's session exists before timing; only the first is timed.
    let mut sessions = vec![setups.batch()];
    sessions.extend((1..MILP_CLIENTS).map(|_| build()));
    let expect = Expect {
        reference: &reference,
        reference_is_optimum: true,
        arm: None,
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (samples, solved) = run_clients(
        &mut report,
        sessions,
        &build,
        &catalog,
        &queries,
        &expect,
        seconds,
        &mut || drop(setups.batch()),
    );
    samples.report(&mut report, MILP_TAIL_PCT, setups.seconds());
    if args.trace {
        replay::milp(
            &mut report,
            args,
            &catalog,
            &queries,
            &solved,
            args.seconds / 2.0,
        );
    }
    report
}

/// The standard router with the decompose arm's fragments capped at
/// [`LARGE_FRAGMENT_TABLES`].
pub fn large_router(config: &EncoderConfig) -> RouterOptimizer {
    let decompose = DecomposingOptimizer::new(config.clone())
        .decompose_options(DecomposeOptions::default().fragment_max_tables(LARGE_FRAGMENT_TABLES));
    standard_router(config.clone(), RouterOptions::default())
        .with_arm(BackendArm::Decompose, decompose)
}

/// large-decomp: 20–60-table queries through the router's decompose arm.
pub fn large_decomp(args: &Args) -> Report {
    let mut report = Report::default();
    let per_cell = if args.tiny { 1 } else { LARGE_PER_CELL };
    let sizes: &[usize] = if args.tiny { &[20] } else { &LARGE_SIZES };
    let options = args.options(LARGE_BUDGET).solver_threads(LARGE_THREADS);
    let config = encoder_config();

    let (catalog, queries) = crate::pool(POOL_SEED, Some(args.seed), sizes, per_cell);
    let greedy = GreedyOptimizer {
        cost_model: config.cost_model,
        params: config.cost_params,
    };
    let reference: Vec<f64> = queries
        .iter()
        .map(|q| {
            greedy
                .order(&catalog, q, &OrderingOptions::default())
                .expect("greedy orders every pool query")
                .cost
        })
        .collect();

    let router = large_router(&config);
    let build = || {
        let (catalog, _queries) = crate::pool(POOL_SEED, Some(args.seed), sizes, per_cell);
        PlanSession::new(catalog, Box::new(router.clone())).with_options(options.clone())
    };
    let mut setups = Setups::new(&build);
    let session = setups.batch();
    let expect = Expect {
        reference: &reference,
        reference_is_optimum: false,
        arm: Some(BackendArm::Decompose),
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (samples, solved) = run_clients(
        &mut report,
        vec![session],
        &build,
        &catalog,
        &queries,
        &expect,
        seconds,
        &mut || drop(setups.batch()),
    );
    samples.report(&mut report, LARGE_TAIL_PCT, setups.seconds());
    if args.trace {
        replay::decompose(
            &mut report,
            args,
            &router,
            &catalog,
            &queries,
            &solved,
            args.seconds / 2.0,
        );
    }
    report
}
