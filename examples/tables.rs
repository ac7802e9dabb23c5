//! Tables 1–2 reproduction: the variable and constraint inventory of the
//! base formulation, printed per family with the paper's symbols, for the
//! running example (R ⋈ S ⋈ T) and a 10-table star query.
//!
//! One family departs from the paper's count: threshold activation takes
//! one convex-hull row per join (n − 1 rows) where the paper's big-M rows
//! take one per join and threshold (`l·(n − 1)`); see
//! `milpjoin::encode::cardinality`.
//!
//! ```text
//! cargo run --release --example tables
//! ```

use milpjoin::{encode, EncoderConfig, Precision};
use milpjoin_qopt::{Catalog, Predicate, Query};
use milpjoin_workloads::{Topology, WorkloadSpec};

fn show(name: &str, catalog: &Catalog, query: &Query) {
    let config = EncoderConfig::default().precision(Precision::Medium);
    let enc = encode(catalog, query, &config).expect("encodable");
    println!("## {name}");
    println!(
        "n = {} tables, m = {} predicates, l = {} thresholds, {} joins",
        query.num_tables(),
        query.num_predicates(),
        enc.grid.len(),
        enc.num_joins
    );
    println!("{}", enc.stats);
}

fn main() {
    // The paper's running example (Examples 1-2).
    let mut catalog = Catalog::new();
    let r = catalog.add_table("R", 10.0);
    let s = catalog.add_table("S", 1000.0);
    let t = catalog.add_table("T", 100.0);
    let mut query = Query::new(vec![r, s, t]);
    query.add_predicate(Predicate::binary(r, s, 0.1));
    show("Paper running example: R |><| S |><| T", &catalog, &query);

    let (catalog10, query10) = WorkloadSpec::new(Topology::Star, 10).generate(42);
    show("Random 10-table star query", &catalog10, &query10);
}
