//! The cost-space trace: traced incumbents are exact plan costs that never
//! rise, every projected bound is at most the optimum found by enumerating
//! every plan, the trace ends describing the returned plan, and the
//! guaranteed factor is `max(cost / bound, 1)` for every backend. The
//! contracts are the differential oracle's (`common/oracle.rs`).

#[path = "common/oracle.rs"]
mod oracle;

use milpjoin::{ApproxMode, Precision};
use milpjoin_qopt::cost::CostModelKind::Cout;
use milpjoin_suite::PRECISIONS;
use milpjoin_workloads::Topology::{Chain, Cycle, Star};
use oracle::{check, check_rows, cout_rows, Arm, Counts, Reference};

const LOWER: ApproxMode = ApproxMode::LowerBound;

/// The cold LowerBound MILP at every precision.
#[test]
fn milp_trace_incumbents_are_exact_plan_costs() {
    let milp = PRECISIONS.map(|p| Arm::Milp(LOWER, p));
    check_rows(&cout_rows(
        [(Star, 5, 0), (Chain, 5, 1), (Cycle, 5, 2)],
        |r| r.arms(&milp),
    ));
}

/// The low-precision hybrid, every other backend alongside; a bound the
/// hybrid claims is positive, so its factor is `cost / bound`.
#[test]
fn hybrid_trace_describes_the_returned_plan() {
    let hybrid = Arm::Hybrid(LOWER, Precision::Low);
    for row in cout_rows((0..6).map(|seed| (Star, 6, seed)), |r| r.search(&[])) {
        check_rows(std::slice::from_ref(&row));
        let reference = Reference::new(&row, Cout);
        let out = check(&row, &reference, hybrid, &mut Counts::default());
        let out = out.expect("the hybrid always returns a plan");
        let factor = out.guaranteed_factor();
        assert!(
            out.bound.is_none() || factor.is_some(),
            "{}: {:?}",
            row.label,
            out.bound
        );
    }
}

/// The cold UpperBound MILP at every precision.
#[test]
fn upper_bound_projection_is_sound_against_exhaustive_optimum() {
    let milp = PRECISIONS.map(|p| Arm::Milp(ApproxMode::UpperBound, p));
    check_rows(&cout_rows(
        [(Star, 5, 3), (Chain, 5, 4), (Cycle, 5, 5)],
        |r| r.arms(&milp),
    ));
}

/// Every backend, the MILP and the hybrid at high precision: the DP's
/// factor is 1, and the finished MILP proves a positive bound, so its
/// factor says how far its plan can be from the optimum.
#[test]
fn cost_space_factors_are_cross_backend_comparable() {
    let rows = cout_rows([(Chain, 5, 4)], |r| {
        r.search(&[Arm::Hybrid(LOWER, Precision::High)])
    });
    check_rows(&rows);
    let reference = Reference::new(&rows[0], Cout);
    let milp = check(
        &rows[0],
        &reference,
        Arm::Milp(LOWER, Precision::High),
        &mut Counts::default(),
    );
    let milp = milp.expect("the MILP solves");
    let factor = milp.guaranteed_factor();
    assert!(
        factor.is_some(),
        "a finished MILP solve proves a positive cost-space bound"
    );
}
