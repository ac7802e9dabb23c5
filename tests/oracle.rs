//! The differential oracle's own tests: the rows that reach the argmin
//! swap and the UpperBound inflation, the 9–26-table and edge rows, invalid
//! queries, and proptests over the generators. The references and the
//! contracts live in `common/oracle.rs`, which every suite that checks
//! rows of the oracle shares.

#[path = "common/oracle.rs"]
mod oracle;

use milpjoin::{
    ApproxMode, EncoderConfig, HybridOptimizer, MilpOptimizer, OrderingError, OrderingOptions,
    Precision,
};
use milpjoin_qopt::cost::{plan_cost, CostModelKind};
use milpjoin_qopt::query::MAX_TABLES;
use milpjoin_qopt::{Catalog, ColumnId, LeftDeepPlan, Predicate, Query};
use milpjoin_workloads::{Topology, WorkloadSpec};
use oracle::{
    arms_for, chain, check_outcome, check_rows, search_arms, Arm, Reference, Row, TOPOLOGIES,
};
use proptest::prelude::*;

/// The rows that reach the argmin swap and the UpperBound inflation, and
/// one whose final bound fell below its traced bound, each under the one
/// configuration that reaches it.
#[test]
fn table_rows_meet_every_contract() {
    use CostModelKind::{BlockNestedLoop, Cout, Hash};
    let (lower, upper) = (ApproxMode::LowerBound, ApproxMode::UpperBound);
    // Clique-6 #6, cold under C_out, medium precision and LowerBound,
    // returns 95.26226 (the optimum is 95.26224) by swapping to an earlier
    // incumbent; its last incumbent costs 99.9075.
    let clique = Row::generated(&WorkloadSpec::new(Topology::Clique, 6), 6);
    // Chain-4 #10 swaps to its optimum, 9.309213e6, under hash and low
    // precision.
    let chain4 = Row::generated(&WorkloadSpec::new(Topology::Chain, 4), 10);
    // Under C_out, low precision and UpperBound this tiny chain's bound is
    // 2.970e-4 against an optimum of 3.016e-4; without the window-floor
    // inflation it would be 3.060e-4.
    let tiny = WorkloadSpec::new(Topology::Chain, 5)
        .cardinalities(1.0, 20.0)
        .selectivities(1e-6, 1e-2);
    let tiny = Row::new("tiny-chain-5#2", tiny.generate(2));
    // The hybrid on clique-5 #0 under block-nested-loop, high precision and
    // UpperBound: the solver's final bound, projected, is -12.453467540,
    // 4.3e-7 below the -12.453462153 its trace already carried, unless the
    // projection takes the larger of the two.
    let clique5 = Row::generated(&WorkloadSpec::new(Topology::Clique, 5), 0);
    let rows = [
        clique
            .models(&[Cout])
            .search(&[Arm::Milp(lower, Precision::Medium)]),
        chain4
            .models(&[Hash])
            .search(&[Arm::Milp(lower, Precision::Low)]),
        tiny.models(&[Cout])
            .search(&[Arm::Milp(upper, Precision::Low)]),
        clique5
            .models(&[BlockNestedLoop])
            .search(&[Arm::Hybrid(upper, Precision::High)]),
    ];
    let counts = check_rows(&rows);
    println!("{counts:?}");
    assert!(counts.swaps > 0, "no row reaches the argmin swap");
    assert!(counts.inflated > 0, "no row needs the UpperBound inflation");
}

/// Rows past the search arms' reach: nine tables for the DP arms, twenty
/// and more for decompose under a node budget.
#[test]
fn large_rows_meet_every_contract() {
    let nine = |topology| Row::generated(&WorkloadSpec::new(topology, 9), 1);
    let mut rows: Vec<Row> = TOPOLOGIES.into_iter().map(nine).collect();
    for (topology, n, seed) in [
        (Topology::Chain, 20, 7),
        (Topology::Cycle, 20, 7),
        (Topology::Star, 20, 7),
        (Topology::Chain, 24, 3),
        (Topology::Star, 26, 5),
    ] {
        let row = Row::generated(&WorkloadSpec::new(topology, n), seed);
        rows.push(row.models(&[CostModelKind::Cout]).budget(40));
    }
    check_rows(&rows);
}

/// Inputs at the edges of what a query can be, each under a node budget:
/// without one, the decompose arm runs for tens of seconds on a 64-table
/// chain.
#[test]
fn edge_rows_meet_every_contract() {
    let mut single = Catalog::new();
    let one = Query::new(vec![single.add_table("R", 42.0)]);
    // Two components, joined only by cross products.
    let (catalog, mut split) = chain(&[10.0, 1e3, 50.0, 2e4, 300.0], &[0.01, 0.1, 1.0, 1e-3]);
    split.predicates.remove(2);
    // Twelve decades of cardinality: wider than any threshold window.
    let spread = chain(&[1.0, 1e3, 1e6, 1e9, 1e12], &[1e-3, 1e-6, 1e-2, 1e-9]);
    let rows = [
        Row::new("one-table", (single, one)),
        Row::generated(&WorkloadSpec::new(Topology::Chain, 2), 0),
        Row::new("disconnected-5", (catalog, split)),
        Row::new("selectivity-1", chain(&[10.0, 1e3, 100.0, 1e4], &[1.0; 3])),
        Row::new(
            "selectivity-1e-300",
            chain(&[10.0, 1e3, 100.0, 1e4, 50.0], &[1e-300; 4]),
        ),
        Row::new("spread-12-decades", spread),
        Row::new("extreme-3", chain(&[1.0, 1e9, 17.0], &[1e-9, 1.0])),
        Row::generated(&WorkloadSpec::new(Topology::Chain, MAX_TABLES), 1),
    ];
    check_rows(&rows.map(|row| row.budget(60)));
}

/// An invalid query is `InvalidQuery` from every backend.
#[test]
fn invalid_queries_are_invalid_everywhere() {
    use CostModelKind::{Cout, Hash};
    let mut catalog = Catalog::new();
    let (r, s) = (catalog.add_table("R", 10.0), catalog.add_table("S", 20.0));
    let outside = catalog.add_table("T", 30.0);
    let mut stray = Query::new(vec![r, s]);
    stray.add_predicate(Predicate::binary(r, outside, 0.5));
    let (wide_catalog, wide) = WorkloadSpec::new(Topology::Chain, MAX_TABLES + 1).generate(0);
    // The paper's 3-table example, each time with one invalid statistic:
    // a correlation correction, an evaluation cost, or a carried column.
    let mut paper = Catalog::new();
    let (pr, ps) = (paper.add_table("R", 10.0), paper.add_table("S", 1000.0));
    let pt = paper.add_table("T", 100.0);
    let foreign = paper.add_table("U", 5.0);
    let foreign = paper.add_column(foreign, "u", 8.0);
    let missing = ColumnId {
        table: pr,
        column: 7,
    };
    let mut nan_widths = paper.clone();
    let nan_width = nan_widths.add_column(ps, "nan", f64::NAN);
    let mut negative_widths = paper.clone();
    let negative_width = negative_widths.add_column(pt, "negative", -8.0);
    let example = |correction: Option<f64>, cost: f64, columns: Vec<ColumnId>| {
        let mut query = Query::new(vec![pr, ps, pt]);
        let p = query.add_predicate(Predicate::binary(pr, ps, 0.1).with_eval_cost(cost));
        if let Some(correction) = correction {
            query.add_correlated_group(vec![p], correction);
        }
        query.output_columns = columns;
        query
    };
    let cases = [
        ("unknown tables", &Catalog::new(), Query::new(vec![r, s])),
        ("no tables", &catalog, Query::new(vec![])),
        ("a table twice", &catalog, Query::new(vec![r, s, r])),
        ("a predicate outside the query", &catalog, stray),
        ("65 tables", &wide_catalog, wide),
        ("a correction of 0", &paper, example(Some(0.0), 0.0, vec![])),
        (
            "a correction of -2",
            &paper,
            example(Some(-2.0), 0.0, vec![]),
        ),
        (
            "a NaN correction",
            &paper,
            example(Some(f64::NAN), 0.0, vec![]),
        ),
        (
            "a NaN evaluation cost",
            &paper,
            example(None, f64::NAN, vec![]),
        ),
        (
            "an evaluation cost of -5",
            &paper,
            example(None, -5.0, vec![]),
        ),
        (
            "an infinite evaluation cost",
            &paper,
            example(None, f64::INFINITY, vec![]),
        ),
        (
            "a missing column",
            &paper,
            example(None, 0.0, vec![missing]),
        ),
        (
            "a column outside the query",
            &paper,
            example(None, 0.0, vec![foreign]),
        ),
        (
            "a NaN column width",
            &nan_widths,
            example(None, 0.0, vec![nan_width]),
        ),
        (
            "a column width of -8",
            &negative_widths,
            example(None, 0.0, vec![negative_width]),
        ),
    ];
    for (name, catalog, query) in &cases {
        for model in [Cout, Hash] {
            for arm in arms_for(3) {
                let backend = arm.backend(model);
                let got = backend.order(catalog, query, &OrderingOptions::default());
                let invalid = match got {
                    Err(OrderingError::InvalidQuery(_)) => true,
                    // DPconv refuses a page model before it reads the query.
                    Err(OrderingError::InvalidConfig(_)) => arm == Arm::DpConv && model == Hash,
                    _ => false,
                };
                assert!(invalid, "{name}/{}/{arm:?}: {got:?}", model.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random chain, cycle and star queries of 3–5 tables through the MILP
    /// and the hybrid at low and medium precision.
    #[test]
    fn random_queries_meet_every_contract(
        (topology, tables, seed) in (0usize..3, 3usize..=5, 0u64..1000)
    ) {
        let row = Row::generated(&WorkloadSpec::new(Topology::PAPER[topology], tables), seed);
        let search = search_arms(&[Precision::Low, Precision::Medium]);
        check_rows(&[row.models(&[CostModelKind::Cout]).search(&search)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random 3–6-table queries of every topology, with a unary predicate
    /// on about a third of the tables and an evaluation cost on about a
    /// third of all predicates, under every cost model; then the same
    /// query without evaluation costs, where DPconv applies. The search
    /// arms stay out: the decompose arm runs the hybrid on each fragment.
    #[test]
    fn random_predicates_meet_every_contract(
        (topology, tables, seed, draws) in
            (0usize..4, 3usize..=6, 0u64..1000, prop::collection::vec(0.0f64..1.0, 64))
    ) {
        let topology = TOPOLOGIES[topology];
        let (catalog, mut query) = WorkloadSpec::new(topology, tables).generate(seed);
        let mut draws = draws.into_iter();
        let mut draw = move || draws.next().unwrap_or(0.5);
        for t in query.tables.clone() {
            if draw() < 1.0 / 3.0 {
                query.add_predicate(Predicate::nary(vec![t], 10f64.powf(-3.0 * draw())));
            }
        }
        for p in &mut query.predicates {
            if draw() < 1.0 / 3.0 {
                p.eval_cost_per_tuple = 0.5 + 50.0 * draw();
            }
        }
        let mut cheap = query.clone();
        for p in &mut cheap.predicates {
            p.eval_cost_per_tuple = 0.0;
        }
        let label = format!("{}-{tables}#{seed}+predicates", topology.name());
        let cheap = Row::new(format!("{label}-cheap"), (catalog.clone(), cheap));
        let rows = [Row::new(label, (catalog, query)), cheap.models(&[CostModelKind::Cout])];
        check_rows(&rows.map(|row| row.search(&[])));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any node budget, a seeded solve never returns a plan costlier
    /// than its seed (the greedy plan or a rotation of the query's tables)
    /// and meets the MILP's contract.
    #[test]
    fn seeded_solves_never_lose_to_their_seed(
        (topology, tables, seed, budget, rotation) in
            (0usize..4, 4usize..=7, 0u64..1000, 0usize..4, 0usize..8)
    ) {
        let topology = [Topology::Chain, Topology::Star, Topology::Cycle, Topology::Clique][topology];
        let budget = [0u64, 1, 5, 20][budget];
        let row = Row::generated(&WorkloadSpec::new(topology, tables), seed).budget(budget);
        let (catalog, query) = (&row.catalog, &row.query);
        let reference = Reference::new(&row, CostModelKind::Cout);
        let config = EncoderConfig::default();
        let mut rotated = query.tables.clone();
        rotated.rotate_left(rotation % tables);
        let greedy = HybridOptimizer::new(config.clone()).seed_plan(catalog, query);
        for (name, start) in [("greedy", greedy), ("rotated", LeftDeepPlan::from_order(rotated))] {
            let label = format!("{}/budget {budget}/{name} seed", row.label);
            let seed_cost = plan_cost(catalog, query, &start, config.cost_model, &config.cost_params);
            let out = MilpOptimizer::new(config.clone())
                .optimize(catalog, query, &row.options(), Some(&start))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(out.true_cost <= seed_cost.total, "{label}: above the seed's cost");
            let contract = Arm::Milp(config.approx_mode, config.precision);
            check_outcome(&label, &row, &reference, contract, &out.into_ordering_outcome());
        }
    }
}
