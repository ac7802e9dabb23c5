//! The per-cost-model threshold-window width
//! (`thresholds::max_grid_decades`): on chains whose cardinalities span
//! over seven decades the block-nested-loop window spans more than 6.5
//! decades, and the MILP still solves to within its tolerance factor of
//! the DP optimum. Their node LPs take the dual fallback and the cold
//! retry. The contracts are the differential oracle's
//! (`common/oracle.rs`).

#[path = "common/oracle.rs"]
mod oracle;

use milpjoin::{encode, ApproxMode, EncoderConfig, Precision};
use milpjoin_qopt::cost::CostModelKind::BlockNestedLoop;
use oracle::{chain, check, check_rows, Arm, Counts, Reference, Row};

/// Cardinalities over 7 decades: the block-nested-loop window sits ~3.9
/// decades above the greedy cost scale and reaches ~9.5 decades down.
#[test]
fn wide_cardinality_bnl_solves_to_the_dp_optimum() {
    let wide: [(&[f64], &[f64]); 2] = [
        (&[10.0, 1e3, 1e5, 1e7, 1e8], &[1e-4, 1e-3, 1e-4, 1e-2]),
        (
            &[2.0, 1e2, 1e4, 1e6, 1e8, 5e8],
            &[0.5, 1e-2, 1e-4, 1e-3, 1e-4],
        ),
    ];
    for (cards, sels) in wide {
        let row = Row::new(format!("bnl-wide-{}", cards.len()), chain(cards, sels));
        let row = row.models(&[BlockNestedLoop]).search(&[]);
        check_rows(std::slice::from_ref(&row));
        let reference = Reference::new(&row, BlockNestedLoop);
        let opt = reference.opt.expect("the DP reaches five and six tables");
        for precision in [Precision::High, Precision::Medium] {
            let config = EncoderConfig::new(precision, BlockNestedLoop);
            let grid = encode(&row.catalog, &row.query, &config).unwrap().grid;
            let span = grid.top_value().log10() - grid.floor_value().log10();
            assert!(span > 6.5, "{}: a {span:.2}-decade window", row.label);
            // The widened window keeps these chains within §4.2's factor
            // itself, not only within the oracle's 1.5·F slack.
            let arm = Arm::Milp(ApproxMode::LowerBound, precision);
            let out = check(&row, &reference, arm, &mut Counts::default()).expect("solves");
            let limit = opt * precision.tolerance_factor() * (1.0 + 1e-9);
            assert!(
                out.cost <= limit,
                "{}: {:e} vs OPT {opt:e}",
                row.label,
                out.cost
            );
        }
    }
}
