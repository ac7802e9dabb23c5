//! The exact-cost argmin and the UpperBound bound projection across the
//! MILP and hybrid configurations: the returned plan is the cheapest
//! traced incumbent, and no bound exceeds the DP optimum. The contracts
//! are the differential oracle's (`common/oracle.rs`).

#[path = "common/oracle.rs"]
mod oracle;

use milpjoin::Precision;
use milpjoin_workloads::Topology::{Chain, Cycle, Star};
use oracle::{check_rows, cout_rows, search_arms};

/// The MILP and the hybrid under both modes at low and medium precision.
#[test]
fn matrix_argmin_and_upper_bound_soundness() {
    let search = search_arms(&[Precision::Low, Precision::Medium]);
    let rows = cout_rows([(Chain, 5, 11), (Star, 5, 12), (Cycle, 5, 13)], |r| {
        r.arms(&search)
    });
    check_rows(&rows);
}
