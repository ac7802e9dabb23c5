//! The classical DP prices a join exactly as `plan_cost` does: the inner
//! operand at its raw catalog cardinality, and each expensive predicate
//! charged at the join that first applies it. The differential oracle
//! (`common/oracle.rs`) checks the DP's cost against `plan_cost` of its
//! plan and against every left-deep plan on each row; these are two
//! hand-built rows.

#[path = "common/oracle.rs"]
mod oracle;

use milpjoin_qopt::cost::CostModelKind;
use milpjoin_qopt::Predicate;
use oracle::{chain, check_rows, Reference, Row};

/// The expensive S–T predicate is part of every plan's cost: a DP that
/// leaves it out reports 2000 for a plan whose `plan_cost` is 7000.
#[test]
fn dp_charges_expensive_predicates() {
    let (catalog, mut query) = chain(&[10.0, 1000.0, 100.0, 50.0], &[0.1, 0.01, 0.5]);
    query.predicates[1].eval_cost_per_tuple = 50.0;
    check_rows(&[Row::new("expensive-predicate", (catalog, query)).models(&[CostModelKind::Cout])]);
}

/// S(100000) as an inner operand costs its raw 782 pages: a DP that folds
/// the unary predicate into it (one page) reports 12 for a plan whose
/// `plan_cost` is 2355. The optimum, 12, keeps S in the first operand.
#[test]
fn dp_prices_the_inner_operand_at_its_raw_cardinality() {
    let (catalog, mut query) = chain(&[10.0, 100_000.0, 100.0], &[0.1, 0.01]);
    query.add_predicate(Predicate::nary(vec![query.tables[1]], 0.001));
    let row = Row::new("unary-predicate", (catalog, query)).models(&[CostModelKind::Hash]);
    assert_eq!(Reference::new(&row, CostModelKind::Hash).opt, Some(12.0));
    check_rows(&[row]);
}
