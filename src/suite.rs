//! Shared helpers for the workspace-level integration tests and examples.

use std::str::FromStr;
use std::time::Duration;

use milpjoin::{EncoderConfig, MilpOptimizer, OptimizeOutcome, OrderingOptions, Precision};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Query, TableId};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// Generates a seeded random workload (re-exported convenience).
pub fn workload(topology: Topology, num_tables: usize, seed: u64) -> (Catalog, Query) {
    WorkloadSpec::new(topology, num_tables).generate(seed)
}

/// Runs the MILP optimizer with a precision and time limit.
pub fn optimize_with(
    catalog: &Catalog,
    query: &Query,
    precision: Precision,
    time_limit: Duration,
) -> Result<OptimizeOutcome, milpjoin::OptimizeError> {
    let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(precision));
    optimizer.optimize(
        catalog,
        query,
        &OrderingOptions::with_time_limit(time_limit),
        None,
    )
}

/// `plan_cost` of every left-deep plan of `query` under `model` and the
/// default cost parameters: the brute-force optimality oracle (n! plans;
/// keep n small).
pub fn all_plan_costs(catalog: &Catalog, query: &Query, model: CostModelKind) -> Vec<f64> {
    fn permute(order: &mut [TableId], k: usize, visit: &mut dyn FnMut(&[TableId])) {
        if k == order.len() {
            return visit(order);
        }
        for i in k..order.len() {
            order.swap(k, i);
            permute(order, k + 1, visit);
            order.swap(k, i);
        }
    }
    let mut costs = Vec::new();
    permute(&mut query.tables.clone(), 0, &mut |order| {
        let plan = LeftDeepPlan::from_order(order.to_vec());
        costs.push(plan_cost(catalog, query, &plan, model, &CostParams::default()).total);
    });
    costs
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// The three precision configurations of the paper's §7.1.
pub const PRECISIONS: [Precision; 3] = [Precision::High, Precision::Medium, Precision::Low];

/// Command-line options of the paper-figure examples (`fig1`, `fig2`),
/// parsed by hand: no CLI dependency is available offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// Use the paper's full grid of query sizes.
    pub full: bool,
    /// Queries per configuration point (at least one).
    pub queries: usize,
    /// Random seed base.
    pub seed: u64,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            full: false,
            queries: 3,
            seed: 42,
        }
    }
}

impl ExperimentArgs {
    /// Parses `--full`, `--queries <k>` and `--seed <s>`. An unknown
    /// argument, a missing or unparsable value and `--queries 0` are
    /// errors, so a mistyped command never runs a different experiment.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = ExperimentArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--full" => out.full = true,
                "--queries" => out.queries = flag_value(&flag, args.next())?,
                "--seed" => out.seed = flag_value(&flag, args.next())?,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if out.queries == 0 {
            return Err("`--queries` must be at least 1".into());
        }
        Ok(out)
    }

    /// [`Self::parse`] over the process arguments; on an error, prints it
    /// with the usage line of `example` and exits with status 2.
    pub fn from_env(example: &str) -> Self {
        Self::parse(std::env::args().skip(1))
            .unwrap_or_else(|e| usage_error(example, "[--full] [--queries K] [--seed S]", &e))
    }
}

fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("`{flag}` needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a non-negative integer, not `{value}`"))
}

/// The optional table-count argument of `compare_optimizers`: `default`
/// without arguments, an error for anything but one non-negative integer.
pub fn table_count_arg(
    args: impl IntoIterator<Item = String>,
    default: usize,
) -> Result<usize, String> {
    let mut args = args.into_iter();
    let n = match args.next() {
        None => default,
        Some(a) => a
            .parse()
            .map_err(|_| format!("`{a}` is not a table count"))?,
    };
    match args.next() {
        None => Ok(n),
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
    }
}

/// Prints `error` and the usage line of `example` to stderr and exits with
/// status 2, the conventional status for a command-line usage error.
pub fn usage_error(example: &str, usage: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: cargo run --release --example {example} -- {usage}");
    std::process::exit(2)
}

/// Median of a small unsorted sample (`NaN` when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let (c, q) = workload(Topology::Chain, 4, 0);
        let out = optimize_with(&c, &q, Precision::Low, Duration::from_secs(10)).unwrap();
        out.plan.validate(&q).unwrap();
        assert_eq!(secs(Duration::from_millis(1500)), "1.50s");
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn parse_args() {
        let a =
            ExperimentArgs::parse(strings(&["--full", "--queries", "7", "--seed", "9"])).unwrap();
        assert_eq!(
            a,
            ExperimentArgs {
                full: true,
                queries: 7,
                seed: 9
            }
        );
        assert_eq!(
            ExperimentArgs::parse(strings(&[])),
            Ok(ExperimentArgs::default())
        );
        for bad in [
            &["--timeout", "1"][..],
            &["--queries"],
            &["--queries", "two"],
            &["--queries", "-1"],
            &["--queries", "0"],
            &["--seed", "1.5"],
            &["7"],
        ] {
            assert!(
                ExperimentArgs::parse(strings(bad)).is_err(),
                "{bad:?} accepted"
            );
        }
        assert_eq!(table_count_arg(strings(&[]), 10), Ok(10));
        assert_eq!(table_count_arg(strings(&["8"]), 10), Ok(8));
        assert!(table_count_arg(strings(&["eight"]), 10).is_err());
        assert!(table_count_arg(strings(&["8", "9"]), 10).is_err());
    }

    #[test]
    fn median_works() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }
}
