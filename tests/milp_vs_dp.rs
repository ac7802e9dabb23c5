//! The MILP and the hybrid within the tolerance factor of the DP optimum
//! (§4.2), and every other backend held to its contract, on generated
//! rows of the differential oracle (`common/oracle.rs`): one test per cost
//! model and size band, and the paper's example.

#[path = "common/oracle.rs"]
mod oracle;

use std::ops::{Range, RangeInclusive};

use milpjoin::Precision;
use milpjoin_qopt::cost::CostModelKind::{self, BlockNestedLoop, Cout, Hash, SortMerge};
use milpjoin_workloads::{Topology, WorkloadSpec};
use oracle::{chain, check_rows, cout_rows, search_arms, Row, TOPOLOGIES};

/// Generated rows of every topology at each of `sizes` tables and each of
/// `seeds`, under `models`.
fn generated(
    sizes: RangeInclusive<usize>,
    seeds: Range<u64>,
    models: &[CostModelKind],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for topology in TOPOLOGIES {
        for n in sizes.clone() {
            for seed in seeds.clone() {
                let row = Row::generated(&WorkloadSpec::new(topology, n), seed);
                rows.push(row.models(models));
            }
        }
    }
    rows
}

/// The page models run every backend up to four tables, and at five
/// tables the search arms at low precision: search time grows with the
/// page models, block-nested-loop most.
fn page_model_rows(models: &[CostModelKind], seeds: Range<u64>) -> Vec<Row> {
    let mut rows = generated(2..=4, seeds, models);
    for topology in Topology::PAPER {
        let row = Row::generated(&WorkloadSpec::new(topology, 5), 5).models(models);
        rows.push(row.search(&search_arms(&[Precision::Low])));
    }
    rows
}

#[test]
fn cout_small_queries_all_topologies() {
    check_rows(&generated(2..=5, 0..3, &[Cout]));
}

#[test]
fn six_table_star_near_optimal() {
    check_rows(&cout_rows(Topology::PAPER.map(|t| (t, 6, 5)), |r| r));
}

#[test]
fn hash_cost_model_agreement() {
    check_rows(&page_model_rows(&[Hash], 0..2));
}

#[test]
fn sort_merge_and_bnl_models_run() {
    check_rows(&page_model_rows(&[SortMerge, BlockNestedLoop], 1..2));
}

#[test]
fn cout_medium_precision() {
    let rows = cout_rows(Topology::PAPER.map(|t| (t, 5, 11)), |r| {
        r.search(&search_arms(&[Precision::Medium]))
    });
    check_rows(&rows);
}

#[test]
fn all_backends_through_one_trait() {
    let example = Row::new("paper-example", chain(&[10.0, 1000.0, 100.0], &[0.1]));
    let cycle = Row::generated(&WorkloadSpec::new(Topology::Cycle, 5), 7).models(&[Cout]);
    check_rows(&[example, cycle]);
}
