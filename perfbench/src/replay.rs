//! The traced run: after a shorter untraced window, the benchmark replays
//! the queries that window served by calling each layer's public functions
//! itself, one span per call, so every layer's time is measured from the
//! outside. Layers whose work happens inside one public call (a cache
//! lookup inside `PlanSession::optimize`, the stitch inside the decompose
//! arm) are reported as that call's time minus the spans measured around
//! it, and say so where they are computed.

use std::path::Path;
use std::time::Instant;

use milpjoin::milp::lp::LpProblem;
use milpjoin::milp::presolve::{presolve, PresolveOutcome};
use milpjoin::milp::simplex::{Simplex, SimplexLimits};
use milpjoin::milp::{Solver, SolverOptions};
use milpjoin::qopt::cost::plan_cost;
use milpjoin::{
    decode, encode, partition_join_graph, warm_start_assignment, EncoderConfig, FingerprintOptions,
    FingerprintedQuery, HybridOptimizer, PlanSession, QueryService, RouterOptimizer, SessionStats,
    MIN_RELATIVE_GAP,
};
use milpjoin_dp::{greedy_order, DpOptions};
use milpjoin_qopt::{Catalog, OrderingOptions, Query, TableSet};

use crate::solve::{Solved, LARGE_BUDGET, LARGE_FRAGMENT_TABLES, LARGE_THREADS, MILP_BUDGET};
use crate::trace::Tracer;
use crate::util::mean;
use crate::{encoder_config, Args, Report, Samples};

/// At most this many queries are replayed on the serving workloads, which
/// keeps the span file small.
pub const MAX_SERVE_REPLAYS: usize = 5_000;

fn write_spans(report: &mut Report, args: &Args, tracer: &Tracer) {
    let path =
        Path::new(crate::OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        report.violation(format!("writing {}: {e}", path.display()));
    }
}

/// Coverage and overhead against the untraced mean latency `e2e` (µs);
/// `direct_us` is the mean per query of the layer spans measured directly.
fn set_overhead(report: &mut Report, tracer: &Tracer, e2e: f64, direct_us: f64) {
    let (replay_total, count) = tracer.total_us("query");
    let replay_us = replay_total / count.max(1) as f64;
    report.set("trace.coverage", direct_us / e2e);
    report.set("trace.overhead_pct", (replay_us - e2e) / e2e * 100.0);
    report.set("trace.queries", count as f64);
}

/// Replays served queries on the serving workloads through a `PlanSession`
/// that shares the service's cache, so hits and misses match the traffic.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    report: &mut Report,
    args: &Args,
    options: &OrderingOptions,
    service: &QueryService,
    router: &RouterOptimizer,
    catalog: &Catalog,
    queries: &[Query],
    sequence: &[usize],
    samples: &Samples,
    stats: &SessionStats,
    seconds: f64,
) {
    let config = encoder_config();
    let fp_options = FingerprintOptions::default();
    let mut session = PlanSession::new(catalog.clone(), Box::new(router.clone()))
        .with_options(options.clone())
        .with_shared_cache(service.shared_cache());
    let mut tracer = Tracer::default();
    let (mut hit_residual, mut miss_residual, mut overhead, mut direct) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for (qid, &idx) in sequence.iter().enumerate() {
        if qid > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let query = &queries[idx];
        let qid = qid as u64;
        let mut solve_us = 0.0;
        let mut route_us = 0.0;
        let result = tracer.span("query", qid, |tr| {
            tr.span("fingerprint", qid, |_| {
                FingerprintedQuery::compute(catalog, query, &fp_options)
            });
            let out = tr.span("session", qid, |_| session.optimize(query))?;
            if !out.cache_hit {
                let decision = tr
                    .span("route", qid, |_| router.route_query(query, options))
                    .expect("the standard router has arms");
                route_us = tr.last_us("route");
                let arm = router.arm(decision.arm).expect("routed arms are installed");
                tr.span(decision.arm.name(), qid, |_| {
                    arm.order(catalog, query, options)
                })?;
                solve_us = tr.last_us(decision.arm.name());
            }
            tr.span("decode_recost", qid, |_| {
                plan_cost(
                    catalog,
                    query,
                    &out.outcome.plan,
                    config.cost_model,
                    &config.cost_params,
                )
            });
            Ok::<_, milpjoin::OrderingError>(out)
        });
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                report.violation(format!("replay of query {idx}: {e}"));
                continue;
            }
        };
        let (fp, session_us, recost) = (
            tracer.last_us("fingerprint"),
            tracer.last_us("session"),
            tracer.last_us("decode_recost"),
        );
        if out.cache_hit {
            hit_residual.push(session_us - fp - recost);
            overhead.push(session_us);
        } else {
            // The session's own call to the arm is the solve it waits for.
            let backend = out.outcome.elapsed.as_secs_f64() * 1e6;
            miss_residual.push(session_us - fp - route_us - backend);
            overhead.push(session_us - backend);
        }
        direct.push(fp + recost + route_us + solve_us);
    }
    write_spans(report, args, &tracer);

    // Derived: what the session call spends beyond the fingerprint and
    // re-cost measured around it is the cache lookup (hits); on misses the
    // excess over the lookup is the insert.
    let lookup = mean(&hit_residual);
    report.set("cache.lookup_us", lookup.max(0.0));
    report.set("cache.insert_us", (mean(&miss_residual) - lookup).max(0.0));
    report.set(
        "fingerprint.us_per_query",
        tracer.mean_self_us("fingerprint"),
    );
    report.set("decode_recost.us", tracer.mean_self_us("decode_recost"));
    report.set("router.route_us", tracer.mean_self_us("route"));
    report.set("dpconv.solve_us", tracer.mean_self_us("dpconv"));
    report.set("dp.solve_us", tracer.mean_self_us("dp"));
    report.set("greedy.solve_us", tracer.mean_self_us("greedy"));
    report.set("session.overhead_us", mean(&overhead));
    let e2e_us = samples.mean_latency_us();
    // Derived: the service's handoff is its ticket latency beyond the same
    // work run inline.
    report.set(
        "service.queue_wait_us",
        (e2e_us - tracer.mean_self_us("session")).max(0.0),
    );
    set_counters(report, stats);
    set_overhead(report, &tracer, e2e_us, mean(&direct));
}

/// Session-level counters of the measured window.
fn set_counters(report: &mut Report, stats: &SessionStats) {
    report.set("cache.hit_ratio", stats.hit_rate());
    report.set("cache.evictions", stats.evictions as f64);
    report.set("cache.inflight_waits", stats.inflight_followers as f64);
    report.set("fingerprint.fallbacks", stats.fingerprint_fallbacks as f64);
    report.set("router.arm.greedy", stats.routes.greedy as f64);
    report.set("router.arm.dp", stats.routes.dp as f64);
    report.set("router.arm.dpconv", stats.routes.dpconv as f64);
    report.set("router.arm.hybrid", stats.routes.hybrid as f64);
    report.set("router.arm.decomp", stats.routes.decompose as f64);
}

/// Exact counters and sizes of one replayed MILP pipeline.
#[derive(Debug, Default, Clone, Copy)]
struct Pipeline {
    nodes: u64,
    lp_iterations: u64,
    root_iterations: u64,
    bound_changes: usize,
    vars: usize,
    constraints: usize,
}

/// The hybrid's pipeline, one span per public call: greedy seed, encode
/// (with the warm-start hints), presolve, the root LP, `Solver::solve` with
/// the same node limit and warm start, then decode and exact re-cost.
/// `Solver::solve` presolves and solves the root LP again internally, so
/// branch-and-bound time is its span minus those two.
fn milp_pipeline(
    tr: &mut Tracer,
    qid: u64,
    args: &Args,
    catalog: &Catalog,
    query: &Query,
    config: &EncoderConfig,
    budget: u64,
) -> Result<Pipeline, String> {
    let seed = tr.span("greedy", qid, |_| {
        HybridOptimizer::new(config.clone()).seed_plan(catalog, query)
    });
    let (encoding, hints) = tr.span("encode", qid, |_| {
        let encoding = encode(catalog, query, config).map_err(|e| e.to_string())?;
        let hints =
            warm_start_assignment(&encoding, catalog, query, &seed).map_err(|e| e.to_string())?;
        Ok::<_, String>((encoding, hints))
    })?;
    let (model, bound_changes) = tr.span("presolve", qid, |_| {
        let mut model = encoding.model.clone();
        let changes = match presolve(&mut model, 10) {
            PresolveOutcome::Reduced { bound_changes } => bound_changes,
            PresolveOutcome::Infeasible => 0,
        };
        (model, changes)
    });
    let root_iterations = tr.span("root_lp", qid, |_| {
        let lp = LpProblem::from_model(&model);
        Simplex::new(&lp)
            .solve(&SimplexLimits::default())
            .iterations
    });
    let result = tr
        .span("bnb", qid, |_| {
            Solver::new(SolverOptions {
                time_limit: args.inject_time_limit,
                relative_gap: MIN_RELATIVE_GAP,
                node_limit: Some(budget),
                initial_solution: Some(hints),
                ..SolverOptions::default()
            })
            .solve(&encoding.model)
        })
        .map_err(|e| e.to_string())?;
    let solution = result
        .solution
        .as_ref()
        .ok_or("the replayed solve found no plan")?;
    tr.span("decode_recost", qid, |_| {
        let decoded = decode(&encoding, query, solution).map_err(|e| e.to_string())?;
        plan_cost(
            catalog,
            query,
            &decoded.plan,
            config.cost_model,
            &config.cost_params,
        );
        Ok::<_, String>(())
    })?;
    Ok(Pipeline {
        nodes: result.search.nodes_expanded,
        lp_iterations: result.search.total_lp_iterations,
        root_iterations,
        bound_changes,
        vars: encoding.model.num_vars(),
        constraints: encoding.model.num_constrs(),
    })
}

/// Per-layer metrics of the MILP pipeline spans, per pipeline run.
fn set_pipeline_metrics(report: &mut Report, tracer: &Tracer, runs: &[Pipeline]) {
    let presolve = tracer.mean_self_us("presolve");
    let root = tracer.mean_self_us("root_lp");
    let bnb = (tracer.mean_self_us("bnb") - presolve - root).max(0.0);
    let avg = |f: fn(&Pipeline) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    let nodes = avg(|p| p.nodes as f64);
    let lp_iterations = avg(|p| p.lp_iterations as f64);
    report.set("greedy.solve_us", tracer.mean_self_us("greedy"));
    report.set("encode.ms", tracer.mean_self_us("encode") / 1e3);
    report.set("encode.vars", avg(|p| p.vars as f64));
    report.set("encode.constraints", avg(|p| p.constraints as f64));
    report.set("presolve.ms", presolve / 1e3);
    report.set("presolve.bound_changes", avg(|p| p.bound_changes as f64));
    report.set("root_lp.ms", root / 1e3);
    report.set("root_lp.iterations", avg(|p| p.root_iterations as f64));
    report.set("lp.iterations", lp_iterations);
    report.set("lp.us_per_iteration", (root + bnb) / lp_iterations.max(1.0));
    report.set("bnb.nodes", nodes);
    report.set("bnb.ms", bnb / 1e3);
    report.set("bnb.lp_iterations_per_node", lp_iterations / nodes.max(1.0));
    report.set("decode_recost.us", tracer.mean_self_us("decode_recost"));
}

/// Sum of the layer spans of one pipeline run that the end-to-end solve
/// also pays (the replayed `Solver::solve` repeats presolve and root LP).
fn pipeline_us(tr: &Tracer) -> f64 {
    ["greedy", "encode", "bnb", "decode_recost"]
        .iter()
        .map(|name| tr.last_us(name))
        .sum()
}

/// milp-cold: replays the hybrid pipeline of every measured solve and
/// compares the replay's node and LP-iteration counts with the solve's.
pub fn milp(
    report: &mut Report,
    args: &Args,
    catalog: &Catalog,
    queries: &[Query],
    solved: &[Solved],
    seconds: f64,
) {
    let config = encoder_config();
    let fp_options = FingerprintOptions::default();
    let mut tracer = Tracer::default();
    let (mut runs, mut e2e_us, mut overhead, mut direct) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut node_diff, mut lp_diff) = (0u64, 0u64);
    let start = Instant::now();
    for (qid, s) in solved.iter().enumerate() {
        if qid > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let query = &queries[s.idx];
        let qid = qid as u64;
        let run = tracer.span("query", qid, |tr| {
            tr.span("fingerprint", qid, |_| {
                FingerprintedQuery::compute(catalog, query, &fp_options)
            });
            milp_pipeline(tr, qid, args, catalog, query, &config, MILP_BUDGET)
        });
        match run {
            Ok(p) => {
                node_diff += p.nodes.abs_diff(s.counters.nodes);
                lp_diff += p.lp_iterations.abs_diff(s.counters.lp_iterations);
                runs.push(p);
            }
            Err(e) => report.violation(format!("replay of query {}: {e}", s.idx)),
        }
        e2e_us.push(s.latency_us);
        overhead.push(s.latency_us - s.backend_us);
        direct.push(tracer.last_us("fingerprint") + pipeline_us(&tracer));
    }
    write_spans(report, args, &tracer);
    set_pipeline_metrics(report, &tracer, &runs);
    report.set(
        "fingerprint.us_per_query",
        tracer.mean_self_us("fingerprint"),
    );
    report.set("session.overhead_us", mean(&overhead));
    report.set("trace.replay_node_diff", node_diff as f64);
    report.set("trace.replay_lp_iteration_diff", lp_diff as f64);
    set_overhead(report, &tracer, mean(&e2e_us), mean(&direct));
}

/// The fragment subquery the decompose arm solves: the fragment's tables
/// and every predicate wholly inside it.
fn fragment_query(query: &Query, fragment: TableSet) -> Query {
    let mut sub = Query::new(fragment.iter().map(|p| query.tables[p]).collect());
    for p in &query.predicates {
        let positions = TableSet::from_positions(p.tables.iter().map(|&t| query.position_of(t)));
        if positions.is_subset_of(fragment) {
            sub.add_predicate(p.clone());
        }
    }
    sub
}

/// Finish time of `jobs` (in order) on `workers` workers that each take the
/// next job when free, as the decompose arm's fragment pool does.
fn makespan(jobs: &[f64], workers: usize) -> f64 {
    let mut free_at = vec![0.0f64; workers.max(1)];
    for &job in jobs {
        let next = free_at
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *next += job;
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// large-decomp: replays the decompose arm: fingerprint, route, partition,
/// each fragment's MILP pipeline (sequentially; the fragment phase's time
/// is their makespan on the arm's worker count), the whole-query greedy
/// safety net and the final re-cost. The stitch is derived as the arm's own
/// elapsed time minus those phases.
pub fn decompose(
    report: &mut Report,
    args: &Args,
    router: &RouterOptimizer,
    catalog: &Catalog,
    queries: &[Query],
    solved: &[Solved],
    seconds: f64,
) {
    let config = encoder_config();
    let fp_options = FingerprintOptions::default();
    let options = args.options(LARGE_BUDGET).solver_threads(LARGE_THREADS);
    let max_tables = LARGE_FRAGMENT_TABLES;
    let dp_options = DpOptions {
        cost_model: config.cost_model,
        params: config.cost_params,
        ..DpOptions::default()
    };
    let mut tracer = Tracer::default();
    let (mut runs, mut e2e_us, mut overhead, mut direct) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut fragments, mut fragment_ms, mut slowest_ms, mut stitch_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut node_diff, mut lp_diff) = (0u64, 0u64);
    let start = Instant::now();
    for (qid, s) in solved.iter().enumerate() {
        if qid > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let query = &queries[s.idx];
        let qid = qid as u64;
        let mut fragment_us = Vec::new();
        let (mut nodes, mut lp_iterations) = (0u64, 0u64);
        let result = tracer.span("query", qid, |tr| {
            tr.span("fingerprint", qid, |_| {
                FingerprintedQuery::compute(catalog, query, &fp_options)
            });
            tr.span("route", qid, |_| router.route_query(query, &options));
            let parts = tr.span("partition", qid, |_| {
                partition_join_graph(query, max_tables)
            });
            let jobs: Vec<Query> = parts
                .iter()
                .filter(|f| f.len() > 1)
                .map(|&f| fragment_query(query, f))
                .collect();
            let budget = (LARGE_BUDGET / jobs.len().max(1) as u64).max(1);
            for sub in &jobs {
                let p = tr.span("fragment", qid, |tr| {
                    milp_pipeline(tr, qid, args, catalog, sub, &config, budget)
                })?;
                fragment_us.push(tr.last_us("fragment"));
                nodes += p.nodes;
                lp_iterations += p.lp_iterations;
                runs.push(p);
            }
            tr.span("greedy", qid, |_| greedy_order(catalog, query, &dp_options));
            tr.span("decode_recost", qid, |_| {
                plan_cost(
                    catalog,
                    query,
                    &s.plan,
                    config.cost_model,
                    &config.cost_params,
                )
            });
            Ok::<_, String>(parts.len())
        });
        match result {
            Ok(parts) => fragments.push(parts as f64),
            Err(e) => {
                report.violation(format!("replay of query {}: {e}", s.idx));
                continue;
            }
        }
        node_diff += nodes.abs_diff(s.counters.nodes);
        lp_diff += lp_iterations.abs_diff(s.counters.lp_iterations);
        let phase_us = makespan(&fragment_us, LARGE_THREADS);
        let partition = tracer.last_us("partition");
        let tail = tracer.last_us("greedy") + tracer.last_us("decode_recost");
        stitch_ms.push((s.backend_us - partition - phase_us - tail).max(0.0) / 1e3);
        fragment_ms.extend(fragment_us.iter().map(|us| us / 1e3));
        slowest_ms.push(fragment_us.iter().copied().fold(0.0, f64::max) / 1e3);
        e2e_us.push(s.latency_us);
        overhead.push(s.latency_us - s.backend_us);
        direct.push(
            tracer.last_us("fingerprint") + tracer.last_us("route") + partition + phase_us + tail,
        );
    }
    write_spans(report, args, &tracer);
    set_pipeline_metrics(report, &tracer, &runs);
    report.set(
        "fingerprint.us_per_query",
        tracer.mean_self_us("fingerprint"),
    );
    report.set("router.route_us", tracer.mean_self_us("route"));
    report.set("router.arm.decomp", solved.len() as f64);
    report.set("decompose.partition_us", tracer.mean_self_us("partition"));
    report.set("decompose.fragments", mean(&fragments));
    report.set("decompose.fragment_solve_ms", mean(&fragment_ms));
    report.set("decompose.slowest_fragment_ms", mean(&slowest_ms));
    report.set("decompose.stitch_ms", mean(&stitch_ms));
    report.set("session.overhead_us", mean(&overhead));
    report.set("trace.replay_node_diff", node_diff as f64);
    report.set("trace.replay_lp_iteration_diff", lp_diff as f64);
    set_overhead(report, &tracer, mean(&e2e_us), mean(&direct));
}
