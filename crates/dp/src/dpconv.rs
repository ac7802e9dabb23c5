//! # DPconv-style subset DP for C_out-shaped objectives
//!
//! A layered min-plus DP over table subsets, after DPconv (Stoian &
//! Kipf, arXiv 2409.08013), specialized to the objective family where it
//! is *exact*: cost functions that decompose as a **per-subset weight**,
//! independent of how the subset was assembled. The paper's C_out model is
//! the canonical member — a join producing result set `S` costs
//! `Card(S)` whenever `S` is an intermediate result and `0` for the final
//! result, so any left-deep prefix chain `S_1 ⊂ S_2 ⊂ … ⊂ S_n` costs
//! `Σ w(S_k)` with
//!
//! ```text
//! w(S) = Card(S)   if 2 <= |S| < n        (an intermediate result)
//! w(S) = 0         if |S| == 1 or |S| == n
//! ```
//!
//! The classical DP ([`crate::optimize`]) evaluates the cost model per
//! *split* — `O(2^n · n)` estimator calls, each walking the predicate
//! list. Under subset decomposability the split argument vanishes and the
//! recurrence collapses to one weight per subset plus a min-plus sweep of
//! word-sized loads:
//!
//! ```text
//! g(S) = w(S) + min over t in S of g(S \ {t})
//! ```
//!
//! This kernel exploits that three ways:
//!
//! 1. **One cardinality per subset, computed incrementally.** Subsets are
//!    enumerated in ascending numeric order (which linearizes the popcount
//!    layers of the convolution view: every proper subset precedes its
//!    supersets), and `log10 Card(S)` is extended from the predecessor
//!    `S \ {lowest bit}` by the predecessor table's log-cardinality plus
//!    exactly the predicate/group factors that become applicable at `S` —
//!    each factor is anchored at its mask's lowest table, so it is counted
//!    exactly once along each removal chain. Total estimator work drops
//!    from `O(2^n · n · |preds|)` to `O(2^n + 2^n · amortized-factors)`.
//! 2. **Min-plus over the layer is pure array traffic.** The inner `min`
//!    reads `n` precomputed `g` entries; no cost-model evaluation happens
//!    per split.
//! 3. **Threshold pruning on a quantized cost grid.** DPconv's fast
//!    instantiation replaces min-plus by Boolean "reachable under
//!    threshold" convolutions over a quantized value grid. The same idea
//!    appears here as a sound prune: a greedy plan gives an upper bound,
//!    rounded *up* to the next rung of a geometric grid, and any state
//!    whose partial sum exceeds that rung is dropped (weights are
//!    non-negative, so no completion of a dropped state can beat the bound,
//!    and every prefix of the greedy chain survives, keeping the full set
//!    reachable). On selective workloads this blanks large parts of the
//!    lattice before their supersets are even scored.
//!
//! ## Applicability — and honest refusal
//!
//! The collapse is only correct when the objective is subset-decomposable:
//!
//! * **Cost model**: C_out only. Hash / sort-merge / block-nested-loop
//!   costs depend on `(outer, inner)` — the split — and a configuration
//!   requesting them is rejected as `InvalidConfig` by
//!   [`DpConvOptimizer`]; this kernel is never silently run on them.
//! * **Expensive predicates**: a per-tuple evaluation charge is levied on
//!   the join that first makes the predicate applicable, which depends on
//!   the assembly order, not the subset. Queries carrying one are rejected
//!   as `InvalidQuery`.
//!
//! The full DPconv result — a super-polynomial speedup via subset
//! convolution in `Õ(2^n · W)` for W quantized cost levels — targets
//! bushy plan spaces, where the recurrence joins two DP sets. The
//! left-deep space here has a singleton right argument, so the convolution
//! degenerates to the linear layer sweep above; what this backend inherits
//! from DPconv is the subset-decomposable weight view, the layered
//! evaluation order, and the quantized-threshold prune, not the
//! super-polynomial bound. The [`crate::optimize`] baseline stays the
//! reference for every other cost model.

use milpjoin_qopt::cost::{plan_cost_with_estimator, CostModelKind, CostParams};
use milpjoin_qopt::orderer::{JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome};
use milpjoin_qopt::{Catalog, Estimator, LeftDeepPlan, Query, TableSet};

use crate::{greedy_order, DpError, DpOptimizer, DpOptions, DpResult};

/// Relative rung spacing of the quantized threshold grid: the greedy upper
/// bound is rounded up to the next rung, so pruning can never cut a state
/// whose true completion ties the bound within one rung.
const GRID_RATIO: f64 = 1e-6;

/// Rounds a non-negative cost up to the next rung of the geometric
/// threshold grid (`(1 + GRID_RATIO)^k`). Non-finite and zero bounds pass
/// through unchanged (a zero bound admits only zero-cost states, which is
/// exactly right: weights are non-negative).
fn quantize_up(cost: f64) -> f64 {
    if !cost.is_finite() || cost <= 0.0 {
        return cost;
    }
    let k = (cost.ln() / (1.0 + GRID_RATIO).ln()).ceil();
    (1.0 + GRID_RATIO).powf(k).max(cost)
}

/// DPconv-style subset DP for the C_out objective. Same contract as
/// [`crate::optimize`] — optimal or an honest error — restricted to
/// subset-decomposable inputs: the caller must have verified the cost
/// model is [`CostModelKind::Cout`] and the query carries no expensive
/// predicates ([`DpConvOptimizer`] does both).
pub fn optimize_conv(
    catalog: &Catalog,
    query: &Query,
    options: &DpOptions,
) -> Result<DpResult, DpError> {
    let start = milpjoin_shim::time::now();
    let n = query.num_tables();
    if n == 0 || n > 63 {
        return Err(DpError::InvalidQuery);
    }
    if n == 1 {
        return Ok(DpResult {
            plan: LeftDeepPlan::from_order(query.tables.clone()),
            cost: 0.0,
            states: 1,
            elapsed: start.elapsed(),
        });
    }

    // Memory check before allocating 2^n entries: g (8) + incremental
    // log-cardinality (8) + reconstruction choice (1) = 17 bytes/state.
    let num_sets: u64 = 1u64 << n;
    let required = num_sets * (2 * std::mem::size_of::<f64>() as u64 + 1);
    if required > options.memory_budget_bytes {
        return Err(DpError::MemoryLimit {
            required_bytes: required,
            budget_bytes: options.memory_budget_bytes,
        });
    }

    let est = Estimator::new(catalog, query);

    // Factor anchoring for the incremental cardinality: every applicable
    // factor of `S` whose lowest table is `low(S)` is *not* applicable in
    // the predecessor `S \ {low(S)}`, and every other applicable factor
    // already is (a factor containing `low(S)` with all tables in `S` has
    // `low(S)` as its own lowest table). Anchoring each factor at its
    // mask's lowest table therefore counts it exactly once along each
    // lowest-bit removal chain. Factors with an empty mask apply to every
    // subset including singletons: they are already inside the estimator's
    // singleton values used as the chain base, so they are dropped here.
    let mut anchored: Vec<Vec<(TableSet, f64)>> = vec![Vec::new(); n];
    let factors = query
        .predicates
        .iter()
        .map(|p| {
            let mask = TableSet::from_positions(p.tables.iter().map(|&t| query.position_of(t)));
            (mask, p.log10_selectivity())
        })
        .chain(query.correlated_groups.iter().map(|g| {
            let mask = g
                .members
                .iter()
                .flat_map(|pid| &query.predicates[pid.index()].tables)
                .map(|&t| query.position_of(t))
                .fold(TableSet::EMPTY, TableSet::insert);
            (mask, g.correction.log10())
        }));
    for (mask, log_factor) in factors {
        if let Some(low) = mask.first() {
            anchored[low].push((mask, log_factor));
        }
    }
    // Raw per-table log-cardinalities for the incremental step: the
    // estimator's *singleton* value already folds in single-table and
    // empty-mask factors, which the anchored lists account for separately.
    let table_log: Vec<f64> = query
        .tables
        .iter()
        .map(|&t| catalog.log10_cardinality(t))
        .collect();

    let mut g = vec![f64::INFINITY; num_sets as usize];
    let mut logcard = vec![0.0f64; num_sets as usize];
    let mut best_last: Vec<u8> = vec![u8::MAX; num_sets as usize];

    // Base cases: singleton chains cost nothing and carry the estimator's
    // singleton log-cardinality (table log plus any factors applicable to
    // the singleton itself).
    for i in 0..n {
        let bits = TableSet::single(i).0 as usize;
        g[bits] = 0.0;
        logcard[bits] = est.log10_cardinality(TableSet::single(i));
    }

    // Quantized pruning threshold from the greedy incumbent. Every prefix
    // of the greedy chain has g <= its own partial greedy cost <= ub, so
    // the full set stays reachable under the threshold.
    let greedy = greedy_order(catalog, query, options);
    let ub = plan_cost_with_estimator(
        &est,
        catalog,
        query,
        &greedy,
        options.cost_model,
        &options.params,
    )
    .total;
    let threshold = quantize_up(ub);

    let full = TableSet::full(n);
    let mut states = 0u64;
    // Ascending numeric order linearizes the popcount layers: every subset
    // sees all of its proper subsets (both g and logcard) before itself.
    for set_bits in 1..num_sets {
        let set = TableSet(set_bits);
        let size = set.len();
        if size < 2 {
            continue;
        }
        if set_bits % 8192 == 0 {
            if let Some(d) = options.deadline {
                if milpjoin_shim::time::now() >= d {
                    return Err(DpError::Timeout);
                }
            }
        }
        // Incremental log-cardinality from the lowest-bit predecessor:
        // the predecessor's value, plus the raw log of the table that
        // re-enters, plus exactly the factors anchored at it that the
        // current set completes (single-table factors of `low` included —
        // the predecessor contains none of them).
        // audit-allow(no-panic): subset enumeration starts at singletons;
        // the empty set is never visited.
        let low = set.first().expect("non-empty set");
        let pred_bits = (set_bits & (set_bits - 1)) as usize;
        let mut lc = logcard[pred_bits] + table_log[low];
        for &(mask, log_factor) in &anchored[low] {
            if mask.is_subset_of(set) {
                lc += log_factor;
            }
        }
        logcard[set_bits as usize] = lc;

        // w(S): intermediate results cost their cardinality; the final
        // result is free (identical for every complete plan).
        let w = if set == full { 0.0 } else { 10f64.powf(lc) };

        // Min-plus over the predecessors: pure array reads, no cost-model
        // evaluation per split. Pruned predecessors read as INFINITY and
        // drop out of the min for free.
        let mut best = f64::INFINITY;
        let mut best_t = u8::MAX;
        for t in set.iter() {
            let prev = g[set.remove(t).0 as usize];
            if prev < best {
                best = prev;
                best_t = t as u8;
            }
        }
        let total = w + best;
        // Quantized-threshold prune: weights are non-negative, so no
        // completion of a state above the rung can beat the greedy bound.
        if total > threshold {
            continue;
        }
        g[set_bits as usize] = total;
        best_last[set_bits as usize] = best_t;
        states += 1;
    }

    // Reconstruct the order (identical to the classical DP).
    let mut order_rev = Vec::with_capacity(n);
    let mut cur = full;
    while cur.len() > 1 {
        let t = best_last[cur.0 as usize];
        if t == u8::MAX {
            // Unreachable: the greedy chain keeps the full set under the
            // threshold. Kept as an honest error, not a panic.
            return Err(DpError::InvalidQuery);
        }
        order_rev.push(query.tables[t as usize]);
        cur = cur.remove(t as usize);
    }
    // audit-allow(no-panic): the extraction loop above runs until
    // exactly one table remains in `cur`.
    order_rev.push(query.tables[cur.first().expect("one table left")]);
    order_rev.reverse();

    Ok(DpResult {
        plan: LeftDeepPlan::from_order(order_rev),
        cost: g[full.0 as usize],
        states,
        elapsed: start.elapsed(),
    })
}

/// The DPconv-style subset DP as a [`JoinOrderer`]. Exact — optimal plan,
/// `bound == cost`, factor 1 — on the objective family where subset
/// decomposability holds (see the [module docs](self)), and an **honest
/// refusal** everywhere else:
///
/// * configured for a non-C_out cost model → [`OrderingError::InvalidConfig`]
///   (the backend is mis-assembled, independent of any query);
/// * a query with expensive predicates → [`OrderingError::InvalidQuery`]
///   (this query's objective is not subset-decomposable).
///
/// Budget behavior matches [`crate::DpOptimizer`]: a deadline expiry is a
/// [`OrderingError::Timeout`], a table-budget blowup is a
/// [`OrderingError::ResourceLimit`].
#[derive(Debug, Clone)]
pub struct DpConvOptimizer {
    /// Must be [`CostModelKind::Cout`]; anything else makes `order` report
    /// `InvalidConfig`. Carried as a field (rather than hard-wired) so a
    /// router can interrogate `cost_model()` uniformly and tests can
    /// assemble the invalid configuration on purpose.
    pub cost_model: CostModelKind,
    pub params: CostParams,
    /// Memory budget for the DP arrays (default 4 GiB).
    pub memory_budget_bytes: u64,
}

impl Default for DpConvOptimizer {
    fn default() -> Self {
        let defaults = DpOptions::default();
        DpConvOptimizer {
            cost_model: CostModelKind::Cout,
            params: defaults.params,
            memory_budget_bytes: defaults.memory_budget_bytes,
        }
    }
}

impl DpConvOptimizer {
    pub fn new() -> Self {
        Self::default()
    }
}

impl JoinOrderer for DpConvOptimizer {
    fn name(&self) -> &'static str {
        "dpconv"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        (self.cost_model, self.params)
    }

    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        if self.cost_model != CostModelKind::Cout {
            return Err(OrderingError::InvalidConfig(format!(
                "DPconv requires a subset-decomposable objective: cost model {} \
                 depends on the join split, use the classical DP instead",
                self.cost_model.name()
            )));
        }
        query.validate(catalog)?;
        if query.predicates.iter().any(|p| p.eval_cost_per_tuple > 0.0) {
            return Err(OrderingError::InvalidQuery(
                "expensive predicates charge the join that first evaluates them, \
                 which depends on the assembly order: the objective is not \
                 subset-decomposable and DPconv does not apply"
                    .into(),
            ));
        }
        let exact = DpOptimizer {
            cost_model: self.cost_model,
            params: self.params,
            memory_budget_bytes: self.memory_budget_bytes,
        };
        exact.solve_with(optimize_conv, catalog, query, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use milpjoin_qopt::cost::plan_cost;
    use milpjoin_qopt::Predicate;

    fn example() -> (Catalog, Query) {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        let s = c.add_table("S", 1000.0);
        let t = c.add_table("T", 100.0);
        let mut q = Query::new(vec![r, s, t]);
        q.add_predicate(Predicate::binary(r, s, 0.1));
        (c, q)
    }

    fn assert_matches_dp(c: &Catalog, q: &Query) {
        let opts = DpOptions::default();
        let conv = optimize_conv(c, q, &opts).unwrap();
        let dp = optimize(c, q, &opts).unwrap();
        conv.plan.validate(q).unwrap();
        let rel = 1e-9 * (1.0 + dp.cost.abs());
        assert!(
            (conv.cost - dp.cost).abs() <= rel,
            "dpconv {} vs dp {}",
            conv.cost,
            dp.cost
        );
        // The reported cost is the exact cost of the reported plan.
        let pc = plan_cost(c, q, &conv.plan, CostModelKind::Cout, &opts.params).total;
        assert!(
            (pc - conv.cost).abs() <= rel,
            "plan {pc} vs dp table {}",
            conv.cost
        );
    }

    #[test]
    fn agrees_with_dp_on_the_paper_example() {
        let (c, q) = example();
        assert_matches_dp(&c, &q);
    }

    #[test]
    fn agrees_with_dp_with_correlated_groups() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 100.0);
        let s = c.add_table("S", 200.0);
        let t = c.add_table("T", 50.0);
        let mut q = Query::new(vec![r, s, t]);
        let p1 = q.add_predicate(Predicate::binary(r, s, 0.1));
        let p2 = q.add_predicate(Predicate::binary(r, s, 0.2));
        q.add_predicate(Predicate::binary(s, t, 0.05));
        q.add_correlated_group(vec![p1, p2], 5.0);
        assert_matches_dp(&c, &q);
    }

    #[test]
    fn agrees_with_dp_with_nary_predicates() {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..5)
            .map(|i| c.add_table(format!("T{i}"), 10.0 + 37.0 * i as f64))
            .collect();
        let mut q = Query::new(ids.clone());
        q.add_predicate(Predicate::binary(ids[0], ids[1], 0.1));
        q.add_predicate(Predicate::nary(vec![ids[1], ids[2], ids[3]], 0.01));
        q.add_predicate(Predicate::binary(ids[3], ids[4], 0.5));
        assert_matches_dp(&c, &q);
    }

    #[test]
    fn singletons_and_pairs() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 50.0);
        let q1 = Query::new(vec![r]);
        let res = optimize_conv(&c, &q1, &DpOptions::default()).unwrap();
        assert_eq!(res.plan.order, vec![r]);
        assert_eq!(res.cost, 0.0);

        let s = c.add_table("S", 20.0);
        let q2 = Query::new(vec![r, s]);
        let res2 = optimize_conv(&c, &q2, &DpOptions::default()).unwrap();
        assert_eq!(res2.plan.order.len(), 2);
        assert_eq!(res2.cost, 0.0);
    }

    #[test]
    fn memory_limit_enforced() {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..30)
            .map(|i| c.add_table(format!("T{i}"), 10.0))
            .collect();
        let q = Query::new(ids);
        let opts = DpOptions {
            memory_budget_bytes: 1 << 20,
            ..Default::default()
        };
        match optimize_conv(&c, &q, &opts) {
            Err(DpError::MemoryLimit { .. }) => {}
            other => panic!("expected memory limit, got {other:?}"),
        }
    }

    #[test]
    fn non_cout_configuration_is_invalid_config() {
        let (c, q) = example();
        let backend = DpConvOptimizer {
            cost_model: CostModelKind::Hash,
            ..Default::default()
        };
        match backend.order(&c, &q, &OrderingOptions::default()) {
            Err(OrderingError::InvalidConfig(msg)) => {
                assert!(msg.contains("subset-decomposable"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn expensive_predicates_are_invalid_query() {
        let (c, mut q) = example();
        q.predicates[0].eval_cost_per_tuple = 3.0;
        match DpConvOptimizer::default().order(&c, &q, &OrderingOptions::default()) {
            Err(OrderingError::InvalidQuery(msg)) => {
                assert!(msg.contains("subset-decomposable"), "{msg}");
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn through_the_trait_with_certificates() {
        let (c, q) = example();
        let out = DpConvOptimizer::default()
            .order(&c, &q, &OrderingOptions::default())
            .unwrap();
        out.plan.validate(&q).unwrap();
        assert!(out.proven_optimal);
        assert_eq!(out.bound, Some(out.cost));
        assert_eq!(out.guaranteed_factor(), Some(1.0));
        assert!((out.cost - 1000.0).abs() < 1e-6);
        assert_eq!(out.trace.points().len(), 1);
        assert!(out.route.is_none());
    }

    #[test]
    fn randomized_agreement_with_dp() {
        // Deterministic pseudo-random chains/stars with varied
        // cardinalities and selectivities: the DPconv optimum must match
        // the classical DP on every instance.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..20 {
            let n = 3 + (next() % 6) as usize; // 3..=8 tables
            let mut c = Catalog::new();
            let ids: Vec<_> = (0..n)
                .map(|i| c.add_table(format!("T{i}"), 2.0 + (next() % 100_000) as f64))
                .collect();
            let mut q = Query::new(ids.clone());
            if case % 2 == 0 {
                for i in 0..n - 1 {
                    let sel = ((next() % 999) + 1) as f64 / 1000.0;
                    q.add_predicate(Predicate::binary(ids[i], ids[i + 1], sel));
                }
            } else {
                for i in 1..n {
                    let sel = ((next() % 999) + 1) as f64 / 1000.0;
                    q.add_predicate(Predicate::binary(ids[0], ids[i], sel));
                }
            }
            assert_matches_dp(&c, &q);
        }
    }

    #[test]
    fn quantize_up_is_monotone_and_tight() {
        for &v in &[1e-12, 0.5, 1.0, 1000.0, 3.7e18] {
            let r = quantize_up(v);
            assert!(r >= v);
            assert!(r <= v * (1.0 + 2.0 * GRID_RATIO), "{v} -> {r}");
        }
        assert_eq!(quantize_up(0.0), 0.0);
        assert_eq!(quantize_up(f64::INFINITY), f64::INFINITY);
    }
}
