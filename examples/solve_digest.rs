//! A clock-free digest of two fixed solve sets, one line per solve, for
//! diffing the solver's behaviour between two builds.
//!
//! * `hybrid`: the paper topologies at 5 and 6 tables through the
//!   greedy-seeded MILP under a 20-node budget (milp-cold's regime).
//! * `decompose`: the paper topologies at 20 tables through the decompose
//!   arm with 6-table fragments under a 12-node budget (large-decomp's
//!   regime).
//!
//! Queries come from `WorkloadSpec::generate_batch`. Every solve is a
//! single-worker search under a node budget with no time limit, and the
//! program reads no clock, so its output is byte-identical on every run:
//! a line that differs between two builds is a solve whose pivots,
//! search, plan or certificates changed. Each line holds the set, the
//! structure, the plan's table order, the bits of the cost and of the
//! cost-space bound, `proven_optimal`, nodes, and root and total LP
//! iterations.
//!
//! ```text
//! cargo run --release --example solve_digest > digest.txt
//! ```

use milpjoin::{
    DecomposeOptions, DecomposingOptimizer, EncoderConfig, HybridOptimizer, JoinOrderer,
    OrderingOptions,
};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// Base seed of every `generate_batch` draw.
const SEED: u64 = 2017;
/// Structures per (topology, size) cell of each set.
const HYBRID_PER_CELL: usize = 17;
const DECOMPOSE_PER_CELL: usize = 6;

fn main() {
    let config = EncoderConfig::default();
    let hybrid = HybridOptimizer::new(config.clone());
    let decompose = DecomposingOptimizer::new(config)
        .decompose_options(DecomposeOptions::default().fragment_max_tables(6));
    println!("# set structure plan cost_bits bound_bits proven nodes root_lp lp");
    for (set, backend, sizes, per_cell, budget) in [
        (
            "hybrid",
            &hybrid as &dyn JoinOrderer,
            &[5, 6][..],
            HYBRID_PER_CELL,
            20,
        ),
        ("decompose", &decompose, &[20], DECOMPOSE_PER_CELL, 12),
    ] {
        let options = OrderingOptions::with_deterministic_budget(budget);
        for topology in Topology::PAPER {
            for &tables in sizes {
                let batch = WorkloadSpec::new(topology, tables).generate_batch(SEED, per_cell);
                for (i, (catalog, query)) in batch.iter().enumerate() {
                    let structure = format!("{}-{tables}#{i}", topology.name());
                    match backend.order(catalog, query, &options) {
                        Ok(out) => {
                            let plan: Vec<String> =
                                out.plan.order.iter().map(|t| t.0.to_string()).collect();
                            let bound = out.bound.map_or_else(
                                || "-".to_string(),
                                |b| format!("{:016x}", b.to_bits()),
                            );
                            println!(
                                "{set} {structure} {} {:016x} {bound} {} {} {} {}",
                                plan.join(","),
                                out.cost.to_bits(),
                                out.proven_optimal,
                                out.search.nodes_expanded,
                                out.search.root_lp_iterations,
                                out.search.total_lp_iterations,
                            );
                        }
                        Err(e) => println!("{set} {structure} error {e:?}"),
                    }
                }
            }
        }
    }
}
