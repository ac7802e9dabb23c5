//! Figure 1 reproduction: median number of variables and constraints of the
//! MILP representing one query, as a function of query size, for the three
//! precision configurations.
//!
//! The paper shows star join graphs (chain/cycle differ only marginally);
//! this example prints all three topologies. Usage:
//!
//! ```text
//! cargo run --release --example fig1 -- [--queries K] [--seed S]
//! ```

use milpjoin::{encode, EncoderConfig};
use milpjoin_suite::{median, ExperimentArgs, PRECISIONS};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// The paper's query sizes (encoding only, so the full grid is cheap).
const SIZES: [usize; 6] = [10, 20, 30, 40, 50, 60];

fn main() {
    let args = ExperimentArgs::from_env("fig1");
    let queries = args.queries;
    println!("# Figure 1: MILP size vs. query size (median over {queries} queries)");
    println!(
        "{:<8} {:>4}  {:>10} {:>12} {:>12}",
        "topology", "n", "precision", "variables", "constraints"
    );
    for topo in Topology::PAPER {
        for n in SIZES {
            for precision in PRECISIONS {
                let mut vars = Vec::new();
                let mut cons = Vec::new();
                for q in 0..queries {
                    let (catalog, query) =
                        WorkloadSpec::new(topo, n).generate(args.seed + q as u64);
                    let config = EncoderConfig::default().precision(precision);
                    let enc = encode(&catalog, &query, &config).expect("encodable");
                    vars.push(enc.stats.num_vars() as f64);
                    cons.push(enc.stats.num_constraints() as f64);
                }
                println!(
                    "{:<8} {:>4}  {:>10} {:>12} {:>12}",
                    topo.name(),
                    n,
                    precision.name(),
                    median(&mut vars),
                    median(&mut cons)
                );
            }
        }
        println!();
    }
}
