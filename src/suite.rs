//! Shared helpers for the workspace-level integration tests and examples.

use std::str::FromStr;

use milpjoin::{ApproxMode, OrderingOutcome, Precision};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Query, TableId};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// A mixed-topology stream over one catalog: `unique` random structures
/// per paper topology (topology `i` draws from seeds `seed + 1000·i` on),
/// each `copies` times, interleaved round-robin across the topologies.
pub fn mixed_stream(
    seed: u64,
    tables: usize,
    unique: usize,
    copies: usize,
) -> (Catalog, Vec<Query>) {
    let mut catalog = Catalog::new();
    let per_topology: Vec<Vec<Query>> = Topology::PAPER
        .into_iter()
        .enumerate()
        .map(|(i, topology)| {
            WorkloadSpec::new(topology, tables).generate_stream_into(
                &mut catalog,
                seed + 1000 * i as u64,
                unique,
                copies,
            )
        })
        .collect();
    let queries = (0..unique * copies)
        .flat_map(|i| per_topology.iter().map(move |stream| stream[i].clone()))
        .collect();
    (catalog, queries)
}

/// Asserts that two outcomes of one solve are bit-identical: plan, cost,
/// objective, bound, certificate, search counters and every traced
/// incumbent and bound. Timings (`elapsed` and the trace timestamps) are
/// wall-clock by nature and excluded.
pub fn assert_bit_identical(label: &str, a: &OrderingOutcome, b: &OrderingOutcome) {
    let key = |o: &OrderingOutcome| {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        let trace: Vec<_> = o
            .trace
            .points()
            .iter()
            .map(|p| (bits(p.incumbent), bits(p.bound)))
            .collect();
        let values = (
            o.cost.to_bits(),
            o.objective.to_bits(),
            bits(o.bound),
            o.proven_optimal,
        );
        (o.plan.clone(), values, o.search, trace)
    };
    assert_eq!(key(a), key(b), "{label}");
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
    let value = flag_text(flag, value)?;
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a non-negative integer, not `{value}`"))
}

/// The backends the `serve` example drives (`--backend`).
const SERVE_BACKENDS: [&str; 7] = [
    "greedy", "dp", "dpconv", "milp", "hybrid", "decomp", "router",
];

/// Command-line arguments of the `serve` example, parsed strictly: an
/// unknown flag, a missing or unparsable value, an unknown backend or mode
/// and a surplus argument are errors, so a mistyped command never runs a
/// different experiment. Flags may come in any order around the
/// positional arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Copies of each structure in the stream (default 8, at least 1).
    pub copies: usize,
    /// Tables per query (default 8, at least 2).
    pub tables: usize,
    /// The third positional argument, `lower` (the default) or `upper`.
    pub approx_mode: ApproxMode,
    /// `greedy`, `dp`, `dpconv`, `milp`, `hybrid` (the default), `decomp`
    /// or `router`.
    pub backend: String,
    /// Service workers (default 1, at least 1).
    pub workers: usize,
    /// Branch-and-bound workers per solve (default 1, at least 1).
    pub solver_threads: usize,
    /// Submitter threads (default 1, at least 1).
    pub submitters: usize,
    /// Snapshot file of the service's persistent plan cache.
    pub snapshot: Option<String>,
}

impl ServeArgs {
    const USAGE: &'static str = "[copies] [tables] [lower|upper] [--backend B] [--workers N] \
                                 [--submitters N] [--solver-threads T] [--snapshot PATH]";

    /// Parses the arguments of `serve`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = ServeArgs {
            copies: 8,
            tables: 8,
            approx_mode: ApproxMode::LowerBound,
            backend: "hybrid".into(),
            workers: 1,
            solver_threads: 1,
            submitters: 1,
            snapshot: None,
        };
        let mut positional = 0;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--backend" => {
                    let name = flag_text(&arg, args.next())?;
                    if !SERVE_BACKENDS.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown backend `{name}` (expected one of {})",
                            SERVE_BACKENDS.join("|")
                        ));
                    }
                    out.backend = name;
                }
                "--workers" => out.workers = flag_value(&arg, args.next())?,
                "--solver-threads" => out.solver_threads = flag_value(&arg, args.next())?,
                "--submitters" => out.submitters = flag_value(&arg, args.next())?,
                "--snapshot" => out.snapshot = Some(flag_text(&arg, args.next())?),
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`"));
                }
                value => {
                    match positional {
                        0 => out.copies = positional_count("copies", value)?,
                        1 => out.tables = positional_count("tables", value)?,
                        2 => {
                            out.approx_mode = match value {
                                "lower" => ApproxMode::LowerBound,
                                "upper" => ApproxMode::UpperBound,
                                _ => {
                                    return Err(format!(
                                        "unknown approximation mode `{value}` (expected \
                                         lower|upper)"
                                    ))
                                }
                            };
                        }
                        _ => return Err(format!("unexpected argument `{value}`")),
                    }
                    positional += 1;
                }
            }
        }
        out.copies = out.copies.max(1);
        out.tables = out.tables.max(2);
        out.workers = out.workers.max(1);
        out.solver_threads = out.solver_threads.max(1);
        out.submitters = out.submitters.max(1);
        Ok(out)
    }

    /// [`Self::parse`] over the process arguments; on an error, prints it
    /// with the usage line and exits with status 2.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
            .unwrap_or_else(|e| usage_error("serve", Self::USAGE, &e))
    }
}

fn flag_text(flag: &str, value: Option<String>) -> Result<String, String> {
    value.ok_or_else(|| format!("`{flag}` needs a value"))
}

fn positional_count(name: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a count of {name}"))
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
        // Two structures per paper topology, twice each, round-robin.
        let (c, queries) = mixed_stream(0, 4, 2, 2);
        assert_eq!(queries.len(), 12);
        for (i, q) in queries.iter().enumerate() {
            q.validate(&c).unwrap();
            let topology = Topology::PAPER[i % 3];
            assert_eq!(q.num_predicates(), topology.edges(4).len(), "query {i}");
        }
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
    fn serve_args_accept_the_smoke_commands() {
        let serve = |a: &[&str]| ServeArgs::parse(strings(a)).unwrap();
        let defaults = ServeArgs {
            copies: 8,
            tables: 8,
            approx_mode: ApproxMode::LowerBound,
            backend: "hybrid".into(),
            workers: 1,
            solver_threads: 1,
            submitters: 1,
            snapshot: None,
        };
        assert_eq!(serve(&[]), defaults);

        let a = serve(&["3", "6", "upper"]);
        assert_eq!((a.copies, a.tables), (3, 6));
        assert_eq!(a.approx_mode, ApproxMode::UpperBound);
        assert_eq!(serve(&["3", "6", "lower", "--workers", "4"]).workers, 4);
        let a = serve(&["--solver-threads", "4", "3", "6", "lower"]);
        assert_eq!((a.solver_threads, a.copies), (4, 3));
        assert_eq!(serve(&["3", "30", "--backend", "decomp"]).backend, "decomp");

        let a = serve(&["3", "6", "--submitters", "4", "--workers", "2"]);
        assert_eq!((a.copies, a.tables, a.submitters, a.workers), (3, 6, 4, 2));
        let a = serve(&["3", "6", "--snapshot", "target/warmboot.snap"]);
        assert_eq!(a.snapshot.as_deref(), Some("target/warmboot.snap"));
        assert_eq!(serve(&["3", "6", "--backend", "router"]).backend, "router");
        // Zero counts keep their old clamp.
        let a = serve(&["0", "0", "--workers", "0", "--submitters", "0"]);
        assert_eq!((a.copies, a.tables, a.workers, a.submitters), (1, 2, 1, 1));
    }

    #[test]
    fn serve_args_reject_mistyped_commands() {
        for bad in [
            &["three", "6"][..],
            &["3", "6", "lower", "--wrokers", "4"],
            &["3", "6", "lower", "extra"],
            &["3", "6", "middle"],
            &["3", "-6"],
            &["3", "6", "--workers"],
            &["3", "6", "--workers", "four"],
            &["3", "6", "--backend", "gredy"],
            &["3", "6", "--backend"],
            &["3", "6", "--submiters", "4"],
            &["3", "6", "--snapshot"],
        ] {
            assert!(ServeArgs::parse(strings(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn median_works() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }
}
