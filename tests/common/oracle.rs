//! The differential oracle: one exact reference per input and cost model,
//! and one function, [`check`], that holds every backend to its advertised
//! contract on every row it runs on.
//!
//! A row's reference is the classical DP's optimum (`milpjoin_dp::optimize`,
//! exact under all four cost models), which must equal the cheapest of
//! every left-deep plan wherever the row has at most [`ENUMERATED_TABLES`]
//! tables. Past [`DP_TABLES`], DPconv's C_out optimum is the reference up to
//! [`DPCONV_TABLES`] tables. The greedy plan is every row's baseline.
//!
//! | contract | backends |
//! |---|---|
//! | the plan validates and `cost == plan_cost(plan)` | all |
//! | `cost ≥ OPT`; the final and every traced bound `≤ OPT` | all |
//! | traced incumbents never rise and are exact plan costs; the tail is `cost` and carries a bound no stronger than the final one | all |
//! | `guaranteed_factor()` is `max(cost / bound, 1)` | all |
//! | `cost == OPT`, proven optimal, factor 1 | dp, dpconv |
//! | without a budget: a bound, and `cost ≤ max(1.5·F·OPT, OPT + 1e4)` | milp, hybrid |
//! | `cost ≤ greedy` to the bit, and the trace opens at greedy's cost | hybrid |
//! | `cost ≤ seed` | seeded milp |
//! | no bound and no proof | greedy, decompose |
//! | `cost ≤ greedy` to the bit | decompose |
//! | `InvalidQuery` for an invalid query | all |
//! | `InvalidConfig` off C_out; `InvalidQuery` with an expensive predicate | dpconv |
//!
//! The router is held to the contract of the arm it reports. Every search
//! runs on one worker without a wall-clock limit (to its proof, or to the
//! row's node budget), so every row repeats exactly.
//!
//! The suites that include this module (`#[path = "common/oracle.rs"]`)
//! each build their rows and call [`check_rows`]; [`check`] runs one arm
//! and returns its outcome for assertions particular to a row.
//! `tests/oracle.rs` holds the rows that reach the two
//! `MilpOptimizer::optimize` branches no other input reaches: the cold
//! MILP solves that return an earlier decoded incumbent (`argmin_swapped`)
//! and the UpperBound solves whose bound would exceed the optimum without
//! the window-floor inflation of `bound_projection`. Its test fails if
//! either count is zero, so an edit of those rows cannot silently drop
//! them. [`Row::new`] runs every backend that reaches the row's size under
//! all four cost models; the builders narrow that.

// Every suite that includes this module uses only part of it.
#![allow(dead_code)]

use std::time::Duration;

use milpjoin::{
    bound_projection, encode, standard_router, ApproxMode, BackendArm, DecomposeOptions,
    DecomposingOptimizer, EncoderConfig, HybridOptimizer, JoinOrderer, MilpOptimizer,
    OrderingError, OrderingOptions, OrderingOutcome, Precision, RouterOptions,
};
use milpjoin_dp::{DpConvOptimizer, DpOptimizer, DpOptions, GreedyOptimizer};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, Predicate, Query};
use milpjoin_suite::{all_plan_costs, PRECISIONS};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// Slack of `cost ≥ OPT` and of every bound against OPT: the simplex
/// certifies bounds within its own tolerances (`MIN_RELATIVE_GAP` is
/// 1e-6), plus 1e-9 absolute for optima near zero.
const BOUND_REL: f64 = 1e-6;
const BOUND_ABS: f64 = 1e-9;
/// The final bound is at least the last traced one, to 1e-9 relative: the
/// solver may tighten its bound at termination without emitting another
/// event, but never weakens it.
const FINAL_BOUND_REL: f64 = 1e-9;
/// DPconv sums its costs in its own order: its cost matches `plan_cost`
/// and the DP to 1e-9 relative, not to the bit.
const DPCONV_REL: f64 = 1e-9;
/// A traced incumbent matches some plan's exact cost to 1e-6 relative.
const PLAN_REL: f64 = 1e-6;

/// Rows up to this size also enumerate every left-deep plan and run the
/// MILP and the hybrid.
const ENUMERATED_TABLES: usize = 6;
/// Largest row the classical DP references and the DP arm runs on.
const DP_TABLES: usize = 12;
/// Largest row DPconv references and runs on (about 0.1 s at 20 tables).
const DPCONV_TABLES: usize = 20;
/// Fragment cap of the decompose arm: small enough that 4–6-table rows
/// decompose. The router's decompose arm keeps the default cap.
const FRAGMENT_CAP: usize = 3;

const MODELS: [CostModelKind; 4] = [
    CostModelKind::Cout,
    CostModelKind::Hash,
    CostModelKind::SortMerge,
    CostModelKind::BlockNestedLoop,
];
pub const TOPOLOGIES: [Topology; 4] = [
    Topology::Chain,
    Topology::Cycle,
    Topology::Star,
    Topology::Clique,
];

/// One backend configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arm {
    Greedy,
    Dp,
    DpConv,
    Milp(ApproxMode, Precision),
    Hybrid(ApproxMode, Precision),
    Decompose,
    Router,
}

fn config(model: CostModelKind, mode: ApproxMode, precision: Precision) -> EncoderConfig {
    EncoderConfig {
        approx_mode: mode,
        ..EncoderConfig::new(precision, model)
    }
}

/// The configuration of the decompose arm and of the router's arms.
const SERVING: (ApproxMode, Precision) = (ApproxMode::LowerBound, Precision::Low);

/// The MILP and the hybrid under both modes at each of `precisions`.
pub fn search_arms(precisions: &[Precision]) -> Vec<Arm> {
    let mut arms = Vec::new();
    for mode in [ApproxMode::LowerBound, ApproxMode::UpperBound] {
        for &p in precisions {
            arms.extend([Arm::Milp(mode, p), Arm::Hybrid(mode, p)]);
        }
    }
    arms
}

/// Every backend that reaches an `n`-table query.
pub fn arms_for(n: usize) -> Vec<Arm> {
    let mut arms = vec![Arm::Greedy];
    if n <= DP_TABLES {
        arms.push(Arm::Dp);
    }
    if n <= DPCONV_TABLES {
        arms.push(Arm::DpConv);
    }
    if n <= ENUMERATED_TABLES {
        arms.extend(search_arms(&PRECISIONS));
    }
    if n <= ENUMERATED_TABLES || n > DP_TABLES {
        arms.push(Arm::Decompose);
    }
    arms.push(Arm::Router);
    arms
}

impl Arm {
    pub fn backend(self, model: CostModelKind) -> Box<dyn JoinOrderer> {
        let serving = config(model, SERVING.0, SERVING.1);
        match self {
            Arm::Greedy => Box::new(GreedyOptimizer::new(model)),
            Arm::Dp => Box::new(DpOptimizer::new(model)),
            Arm::DpConv => Box::new(DpConvOptimizer {
                cost_model: model,
                ..Default::default()
            }),
            Arm::Milp(m, p) => Box::new(MilpOptimizer::new(config(model, m, p))),
            Arm::Hybrid(m, p) => Box::new(HybridOptimizer::new(config(model, m, p))),
            Arm::Decompose => {
                Box::new(DecomposingOptimizer::new(serving).decompose_options(
                    DecomposeOptions::default().fragment_max_tables(FRAGMENT_CAP),
                ))
            }
            Arm::Router => Box::new(standard_router(serving, RouterOptions::default())),
        }
    }

    /// The arm whose contract `outcome` is held to: the router's reported
    /// arm, and the hybrid for a query within one decompose fragment.
    fn contract(self, query: &Query, outcome: &OrderingOutcome) -> Arm {
        let hybrid = Arm::Hybrid(SERVING.0, SERVING.1);
        match self {
            Arm::Decompose if query.num_tables() <= FRAGMENT_CAP => hybrid,
            Arm::Router => match outcome.route.expect("a routed outcome has a route").arm {
                BackendArm::Greedy => Arm::Greedy,
                BackendArm::Dp => Arm::Dp,
                BackendArm::DpConv => Arm::DpConv,
                BackendArm::Hybrid => hybrid,
                BackendArm::Decompose => Arm::Decompose,
            },
            arm => arm,
        }
    }
}

/// One input of the table, with the cost models and backends it runs
/// under.
pub struct Row {
    pub label: String,
    pub catalog: Catalog,
    pub query: Query,
    models: Vec<CostModelKind>,
    arms: Vec<Arm>,
    /// Node budget of every search; `None` runs each search to its proof.
    budget: Option<u64>,
}

impl Row {
    /// Every backend that reaches the row's size, under all four models.
    pub fn new(label: impl Into<String>, (catalog, query): (Catalog, Query)) -> Self {
        Row {
            label: label.into(),
            arms: arms_for(query.num_tables()),
            catalog,
            query,
            models: MODELS.to_vec(),
            budget: None,
        }
    }

    pub fn generated(spec: &WorkloadSpec, seed: u64) -> Self {
        let label = format!("{}-{}#{seed}", spec.topology.name(), spec.num_tables);
        Row::new(label, spec.generate(seed))
    }

    pub fn models(mut self, models: &[CostModelKind]) -> Self {
        self.models = models.to_vec();
        self
    }

    /// Replaces the MILP and hybrid arms with `search`.
    pub fn search(mut self, search: &[Arm]) -> Self {
        self.arms
            .retain(|a| !matches!(a, Arm::Milp(..) | Arm::Hybrid(..)));
        self.arms.extend_from_slice(search);
        self
    }

    /// Runs `arms` alone.
    pub fn arms(mut self, arms: &[Arm]) -> Self {
        self.arms = arms.to_vec();
        self
    }

    pub fn budget(mut self, nodes: u64) -> Self {
        self.budget = Some(nodes);
        self
    }

    pub fn options(&self) -> OrderingOptions {
        OrderingOptions {
            deterministic_budget: self.budget,
            solver_threads: 1,
            ..OrderingOptions::default()
        }
    }
}

/// The references of one row under one cost model.
pub struct Reference {
    model: CostModelKind,
    /// The exact optimum, where a DP reaches the row.
    pub opt: Option<f64>,
    /// Every left-deep plan's exact cost, up to [`ENUMERATED_TABLES`].
    all_plans: Option<Vec<f64>>,
    greedy: f64,
}

impl Reference {
    pub fn new(row: &Row, model: CostModelKind) -> Self {
        let (catalog, query, n) = (&row.catalog, &row.query, row.query.num_tables());
        let label = format!("{}/{}", row.label, model.name());
        let all_plans = (n <= ENUMERATED_TABLES).then(|| all_plan_costs(catalog, query, model));
        let opt = if n <= DP_TABLES {
            let options = DpOptions {
                cost_model: model,
                ..DpOptions::default()
            };
            let dp = milpjoin_dp::optimize(catalog, query, &options).expect("the DP solves");
            let priced = plan_cost(catalog, query, &dp.plan, model, &CostParams::default()).total;
            assert_eq!(dp.cost, priced, "{label}: DP cost vs plan_cost of its plan");
            if let Some(all) = &all_plans {
                let min = all.iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(dp.cost, min, "{label}: DP vs the cheapest enumerated plan");
            }
            Some(dp.cost)
        } else if n <= DPCONV_TABLES && model == CostModelKind::Cout {
            let conv = DpConvOptimizer::default().order(catalog, query, &row.options());
            Some(conv.expect("DPconv solves").cost)
        } else {
            None
        };
        let greedy = GreedyOptimizer::new(model).order(catalog, query, &row.options());
        Reference {
            model,
            opt,
            all_plans,
            greedy: greedy.expect("greedy orders every valid query").cost,
        }
    }
}

/// How often the rows reach the two `MilpOptimizer::optimize` branches
/// that no other integration test reaches.
#[derive(Debug, Default)]
pub struct Counts {
    /// Cold MILP solves that returned an earlier decoded incumbent.
    pub swaps: usize,
    /// UpperBound MILP solves whose bound, divided without the
    /// window-floor inflation, would exceed the optimum.
    pub inflated: usize,
}

/// Checks every arm of every row under every model of the row.
pub fn check_rows(rows: &[Row]) -> Counts {
    let mut counts = Counts::default();
    for row in rows {
        for &model in &row.models {
            let reference = Reference::new(row, model);
            for &arm in &row.arms {
                check(row, &reference, arm, &mut counts);
            }
        }
    }
    counts
}

/// Runs `arm` on `row` under the reference's model, holds the outcome to
/// the arm's contract and returns it; `None` where the arm rightly
/// refuses the row (DPconv off its objective shape, a cold MILP out of
/// nodes).
pub fn check(
    row: &Row,
    reference: &Reference,
    arm: Arm,
    counts: &mut Counts,
) -> Option<OrderingOutcome> {
    let (catalog, query, model) = (&row.catalog, &row.query, reference.model);
    let label = format!("{}/{}/{arm:?}", row.label, model.name());
    let options = row.options();
    let result = match arm {
        // The cold MILP runs through `optimize` for the branch counts.
        Arm::Milp(mode, precision) => {
            let config = config(model, mode, precision);
            let solve = MilpOptimizer::new(config.clone()).optimize(catalog, query, &options, None);
            solve.map(|out| {
                counts.swaps += usize::from(out.argmin_swapped);
                // A query without joins has no encoding to project.
                let encoded = query.num_tables() > 1 && out.milp_bound.is_finite();
                if let (ApproxMode::UpperBound, Some(opt), true) = (mode, reference.opt, encoded) {
                    let grid = encode(catalog, query, &config).expect("encodes").grid;
                    let projection = bound_projection(&config, catalog, query, &grid);
                    let divisor = projection.expect("every model projects a bound").divisor;
                    counts.inflated += usize::from(out.milp_bound / divisor > ceiling(opt));
                }
                out.into_ordering_outcome()
            })
        }
        _ => arm.backend(model).order(catalog, query, &options),
    };
    let expensive = query.predicates.iter().any(|p| p.eval_cost_per_tuple > 0.0);
    let off_shape = model != CostModelKind::Cout || expensive;
    let out = match (arm, result) {
        (Arm::DpConv, Err(OrderingError::InvalidConfig(_))) if model != CostModelKind::Cout => {
            return None
        }
        (Arm::DpConv, Err(OrderingError::InvalidQuery(_))) if expensive => return None,
        (Arm::DpConv, Ok(_)) if off_shape => panic!("{label}: DPconv off its objective shape"),
        // A cold MILP may find no plan within a node budget.
        (Arm::Milp(..), Err(OrderingError::ResourceLimit(_))) if row.budget.is_some() => {
            return None
        }
        (_, Ok(out)) => out,
        (_, Err(e)) => panic!("{label}: {e:?}"),
    };
    check_outcome(&label, row, reference, arm.contract(query, &out), &out);
    Some(out)
}

fn ceiling(opt: f64) -> f64 {
    opt * (1.0 + BOUND_REL) + BOUND_ABS
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * (1.0 + b.abs())
}

/// `a == b` to the bit, or to [`DPCONV_REL`] for DPconv's own sums.
fn same(a: f64, b: f64, contract: Arm) -> bool {
    if contract == Arm::DpConv {
        close(a, b, DPCONV_REL)
    } else {
        a.to_bits() == b.to_bits()
    }
}

/// `max(cost / bound, 1)` for a positive bound; a zero cost is trivially
/// optimal.
fn factor(cost: f64, bound: Option<f64>) -> Option<f64> {
    if cost == 0.0 {
        return Some(1.0);
    }
    bound.filter(|&b| b > 0.0).map(|b| (cost / b).max(1.0))
}

/// Holds `out` to the contracts of every backend and to those of the
/// `contract` arm.
pub fn check_outcome(label: &str, row: &Row, r: &Reference, contract: Arm, out: &OrderingOutcome) {
    let (cost, points) = (out.cost, out.trace.points());

    // Every backend: a valid plan whose cost is its exact cost, ...
    out.plan
        .validate(&row.query)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let params = CostParams::default();
    let priced = plan_cost(&row.catalog, &row.query, &out.plan, r.model, &params).total;
    assert!(
        same(cost, priced, contract),
        "{label}: {cost:e} vs plan_cost {priced:e}"
    );

    // ... no cheaper than the optimum, with no bound above it, ...
    let bounds = out
        .bound
        .into_iter()
        .chain(points.iter().filter_map(|p| p.bound));
    let max_bound = bounds.fold(f64::NEG_INFINITY, f64::max);
    if let Some(opt) = r.opt {
        assert!(
            cost >= opt * (1.0 - BOUND_REL) - BOUND_ABS,
            "{label}: {cost:e} < OPT {opt:e}"
        );
        assert!(
            max_bound <= ceiling(opt),
            "{label}: bound {max_bound:e} > OPT {opt:e}"
        );
    }

    // ... and a trace of exact plan costs that never rise and end at
    // `cost`.
    let incumbents: Vec<f64> = points.iter().filter_map(|p| p.incumbent).collect();
    assert!(!incumbents.is_empty(), "{label}: no traced incumbent");
    let rose = incumbents
        .windows(2)
        .any(|w| w[1] > w[0] * (1.0 + 1e-12) + 1e-12);
    assert!(!rose, "{label}: traced incumbents rose: {incumbents:?}");
    if let Some(all) = &r.all_plans {
        let exact = |inc: &f64| all.iter().any(|&c| close(*inc, c, PLAN_REL));
        assert!(
            incumbents.iter().all(exact),
            "{label}: an incumbent is no plan's cost"
        );
    }
    if let Some(tail) = points.last() {
        assert_eq!(tail.incumbent, Some(cost), "{label}: trace tail");
        if let Some(tb) = tail.bound {
            let fb = out.bound.unwrap_or(f64::NEG_INFINITY);
            assert!(
                fb >= tb - FINAL_BOUND_REL * (1.0 + tb.abs()),
                "{label}: final bound {fb:e} < traced {tb:e}"
            );
        }
        let traced = out.trace.guaranteed_factor_at(Duration::MAX);
        assert_eq!(traced, factor(cost, tail.bound), "{label}: traced factor");
    }
    assert_eq!(
        out.guaranteed_factor(),
        factor(cost, out.bound),
        "{label}: factor"
    );

    // The contract of the backend's own kind.
    // Both backends that promise never to cost more than greedy keep the
    // greedy plan as a candidate, so the promise holds to the bit.
    let greedy = r.greedy;
    let under_greedy = cost <= greedy;
    let proves_nothing = out.bound.is_none() && !out.proven_optimal;
    match contract {
        Arm::Greedy => {
            assert_eq!(cost.to_bits(), greedy.to_bits(), "{label}: greedy cost");
            assert!(proves_nothing, "{label}: greedy claims a bound or a proof");
        }
        Arm::Dp | Arm::DpConv => {
            let opt = r.opt.expect("the exact arms run where a DP reaches");
            assert!(
                same(cost, opt, contract),
                "{label}: {cost:e} vs OPT {opt:e}"
            );
            assert!(out.proven_optimal, "{label}: no proof");
            assert_eq!(out.bound, Some(cost), "{label}: bound");
        }
        Arm::Milp(_, precision) | Arm::Hybrid(_, precision) => {
            if let (None, Some(opt)) = (row.budget, r.opt) {
                // §4.2's guarantee, with slack for the sub-θ0 floor of the
                // threshold window and a floor for near-zero optima.
                let limit = (opt * precision.tolerance_factor() * 1.5).max(opt + 1e4);
                assert!(cost <= limit, "{label}: {cost:e} vs OPT {opt:e}");
                assert!(
                    out.bound.is_some(),
                    "{label}: a finished solve claims no bound"
                );
            }
            if matches!(contract, Arm::Hybrid(..)) {
                assert!(under_greedy, "{label}: {cost:e} above greedy {greedy:e}");
                let first = points.first().and_then(|p| p.incumbent);
                assert_eq!(first, Some(greedy), "{label}: trace opens off greedy");
            }
        }
        Arm::Decompose => {
            assert!(
                proves_nothing,
                "{label}: decompose claims a bound or a proof"
            );
            assert!(under_greedy, "{label}: {cost:e} above greedy {greedy:e}");
        }
        Arm::Router => unreachable!("the router is held to its reported arm"),
    }
}

/// A chain over `cards`, joined by `sels`.
pub fn chain(cards: &[f64], sels: &[f64]) -> (Catalog, Query) {
    let mut catalog = Catalog::new();
    let ids: Vec<_> = cards
        .iter()
        .enumerate()
        .map(|(i, &card)| catalog.add_table(format!("t{i}"), card))
        .collect();
    let mut query = Query::new(ids.clone());
    for (i, &sel) in sels.iter().enumerate() {
        query.add_predicate(Predicate::binary(ids[i], ids[i + 1], sel));
    }
    (catalog, query)
}

/// One generated row under C_out per `(topology, tables, seed)`, each
/// narrowed by `narrow`.
pub fn cout_rows(
    specs: impl IntoIterator<Item = (Topology, usize, u64)>,
    narrow: impl Fn(Row) -> Row,
) -> Vec<Row> {
    let row = |(t, n, seed)| Row::generated(&WorkloadSpec::new(t, n), seed);
    let rows = specs.into_iter().map(row);
    rows.map(|r| narrow(r.models(&[CostModelKind::Cout])))
        .collect()
}
