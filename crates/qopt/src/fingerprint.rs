//! Canonical query fingerprints for structure-keyed plan caching.
//!
//! Two queries of a stream frequently share their *structure* — the same
//! join graph over tables of (nearly) the same size with (nearly) the same
//! selectivities — while naming entirely different [`TableId`](crate::TableId)s. A
//! [`Fingerprint`] captures that structure in a hashable key so a plan
//! cache ([`crate::session::PlanSession`]) can reuse one backend solve for
//! the whole equivalence class:
//!
//! * tables are relabeled into a **canonical order** (sorted by quantized
//!   size, then degree / incident-selectivity / carried-column profile,
//!   then iteratively refined by neighborhood to a fixpoint à la 1-WL
//!   color refinement; classes the refinement cannot split — true
//!   symmetries like alternating-selectivity cycles — are resolved by
//!   **individualization**: each tied member is tentatively promoted, the
//!   refinement re-run, and the lexicographically smallest resulting
//!   fingerprint wins, so the outcome is independent of the input listing
//!   order up to a bounded search budget);
//! * join-graph edges (predicates) are expressed over canonical positions
//!   and **sorted**;
//! * **projection payloads** are canonical too: every carried column
//!   (output columns and per-predicate column requirements, §5.2) becomes
//!   a key of (canonical table, quantized width, output flag, requiring
//!   predicates), so structurally identical projection queries share a
//!   fingerprint instead of bypassing the cache;
//! * cardinalities, selectivities, per-tuple evaluation costs, tuple
//!   widths, column widths and correlation corrections are **quantized**
//!   on a log10 grid ([`FingerprintOptions::log10_step`], default a tenth
//!   of a decade), so statistically-indistinguishable queries collide on
//!   purpose.
//!
//! Quantization makes hits *approximate*: the cached join order is
//! near-optimal for the new query, not certified. The session therefore
//! re-costs reused plans exactly and only carries optimality certificates
//! across when the unquantized statistics match exactly
//! ([`FingerprintedQuery::exact`]).
//!
//! Equal fingerprints imply equal *labeled* canonical structures, so a hit
//! can never instantiate an incompatible plan — incompleteness (two
//! isomorphic queries mapping to different fingerprints, possible only
//! past the individualization budget) costs a cache miss, never a wrong
//! answer.

use crate::catalog::Catalog;
use crate::query::Query;

/// Default bound on the number of individualization branches explored when
/// 1-WL refinement stabilizes with tied tables (see
/// [`FingerprintOptions::individualization_budget`]).
pub const DEFAULT_INDIVIDUALIZATION_BUDGET: usize = 64;

/// Knobs of the fingerprint computation.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintOptions {
    /// Quantization step, in decades, applied to `log10` of every
    /// statistic (cardinalities, selectivities, evaluation costs, tuple
    /// widths, corrections). `0.1` buckets values within ~26% of each
    /// other; smaller steps trade hit rate for fidelity.
    pub log10_step: f64,
    /// Bound on the number of individualization branches explored when
    /// 1-WL refinement stabilizes with tied tables (true symmetries). Each
    /// branch promotes one tied member and re-refines; the
    /// lexicographically smallest completed fingerprint wins. Symmetric
    /// structures seen in practice (cycles, cliques, twin leaves of a
    /// star) resolve within a handful of branches; the budget caps
    /// adversarial symmetry groups, past which the remaining ties fall
    /// back to input order — a potential cache miss, never an unsound hit.
    /// Exhaustion is reported via
    /// [`FingerprintedQuery::budget_exhausted`] (and surfaced by the
    /// session layer as the `fingerprint_fallbacks` counter). `0` disables
    /// individualization entirely (input-order tie-breaks for every
    /// symmetric class).
    pub individualization_budget: usize,
}

impl Default for FingerprintOptions {
    fn default() -> Self {
        FingerprintOptions {
            log10_step: 0.1,
            individualization_budget: DEFAULT_INDIVIDUALIZATION_BUDGET,
        }
    }
}

/// Quantizes a positive statistic onto the log10 grid. Non-positive values
/// (an unset evaluation cost) map to a sentinel bucket of their own.
fn quantize(value: f64, step: f64) -> i64 {
    if value <= 0.0 || !value.is_finite() {
        return i64::MIN;
    }
    (value.log10() / step).round() as i64
}

/// Dense equivalence-class ranks of `0..n` under the ordering of `key`:
/// equal keys share a rank, ranks are contiguous from zero.
fn rank_by_key<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&a| key(a));
    let mut rank = vec![0usize; n];
    let mut r = 0;
    for i in 0..order.len() {
        if i > 0 && key(order[i]) != key(order[i - 1]) {
            r += 1;
        }
        rank[order[i]] = r;
    }
    rank
}

/// One table of the canonical structure.
///
/// (`pub(crate)` so `persist` can encode snapshot records field by field.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TableKey {
    pub(crate) qlog_card: i64,
    pub(crate) qlog_tuple_bytes: i64,
    pub(crate) sorted: bool,
}

/// One predicate (join-graph edge, or n-ary hyperedge) over canonical
/// table positions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PredKey {
    /// Canonical positions, ascending.
    pub(crate) tables: Vec<u16>,
    pub(crate) qlog_selectivity: i64,
    pub(crate) qlog_eval_cost: i64,
}

/// One correlated group, over indices into the sorted predicate list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct GroupKey {
    /// Indices into [`Fingerprint::predicates`], ascending.
    pub(crate) members: Vec<u32>,
    pub(crate) qlog_correction: i64,
}

/// One carried column of the projection payload (§5.2), in canonical
/// coordinates: which canonical table it lives on, its quantized width,
/// whether the query outputs it, and which sorted predicates require it.
/// Column *positions* within a table deliberately do not appear — two
/// disjoint table sets with the same carried-column structure must match.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ColumnKey {
    /// Canonical table position.
    pub(crate) table: u16,
    pub(crate) qlog_bytes: i64,
    /// Listed in the query's output columns.
    pub(crate) output: bool,
    /// Indices into [`Fingerprint::predicates`] of predicates requiring
    /// this column, ascending.
    pub(crate) predicates: Vec<u32>,
}

/// The canonical, quantized structure of one query — the plan-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    pub(crate) tables: Vec<TableKey>,
    pub(crate) predicates: Vec<PredKey>,
    pub(crate) groups: Vec<GroupKey>,
    /// Carried columns (projection extension); empty when the query tracks
    /// no columns.
    pub(crate) columns: Vec<ColumnKey>,
}

impl Fingerprint {
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }
}

/// The *unquantized* statistics of a query in canonical order, used to
/// decide whether two fingerprint-equal queries are in fact identical (so
/// optimality certificates may be carried across a cache hit).
#[derive(Debug, Clone, PartialEq)]
pub struct ExactStats {
    /// (cardinality, tuple_bytes, sorted) per canonical table.
    pub(crate) tables: Vec<(f64, f64, bool)>,
    /// (canonical positions, selectivity, eval cost) per sorted predicate.
    pub(crate) predicates: Vec<(Vec<u16>, f64, f64)>,
    /// (sorted-predicate indices, correction) per group.
    pub(crate) groups: Vec<(Vec<u32>, f64)>,
    /// (canonical table, exact bytes, output, requiring predicates) per
    /// carried column, sorted.
    pub(crate) columns: Vec<(u16, f64, bool, Vec<u32>)>,
}

/// A query together with its fingerprint and the canonical relabeling —
/// everything the plan cache needs to store a solved plan or instantiate a
/// cached one for a structurally-identical query.
#[derive(Debug, Clone)]
pub struct FingerprintedQuery {
    pub fingerprint: Fingerprint,
    /// Exact statistics for certificate carry-over decisions.
    pub exact: ExactStats,
    /// `to_canonical[query_position] = canonical index`.
    pub to_canonical: Vec<usize>,
    /// `from_canonical[canonical_index] = query_position` (inverse).
    pub from_canonical: Vec<usize>,
    /// Whether the individualization budget
    /// ([`FingerprintOptions::individualization_budget`]) ran out with
    /// symmetric ties still unresolved, so some ties fell back to the
    /// input-order tie-break. The fingerprint is still sound (a wrong hit
    /// is impossible) but may be listing-order-sensitive: two isomorphic
    /// queries can miss each other. Sessions count these as
    /// `fingerprint_fallbacks`.
    pub budget_exhausted: bool,
}

/// Order-invariant per-query data shared by the ranking, refinement, and
/// payload construction stages.
struct FingerprintCtx<'a> {
    query: &'a Query,
    step: f64,
    n: usize,
    /// (cardinality, tuple_bytes, sorted) per query position.
    raw: Vec<(f64, f64, bool)>,
    keys: Vec<TableKey>,
    /// Member query positions per predicate.
    pred_positions: Vec<Vec<usize>>,
    /// Incident predicate indices per query position.
    incident: Vec<Vec<usize>>,
    /// Carried columns: (query position, exact bytes, output, referencing
    /// predicate indices — *original* indices, remapped to sorted order in
    /// the payload).
    columns: Vec<(usize, f64, bool, Vec<usize>)>,
}

impl FingerprintedQuery {
    /// Computes the fingerprint of a query **already validated** against
    /// `catalog`.
    pub fn compute(catalog: &Catalog, query: &Query, options: &FingerprintOptions) -> Self {
        let step = options.log10_step.max(1e-9);
        let n = query.num_tables();
        // Canonical positions are stored as u16 in the predicate keys;
        // validated queries are capped far below that (MAX_TABLES = 64,
        // the table-set bitmask width), so the casts below cannot
        // truncate.
        debug_assert!(
            n <= usize::from(u16::MAX) + 1,
            "fingerprint requires a validated query (<= {} tables)",
            crate::query::MAX_TABLES
        );

        // Per-position raw statistics.
        let raw: Vec<(f64, f64, bool)> = query
            .tables
            .iter()
            .map(|&t| {
                let table = catalog.table(t);
                (
                    table.cardinality,
                    table.tuple_bytes(catalog.default_tuple_bytes),
                    table.sorted,
                )
            })
            .collect();
        let keys: Vec<TableKey> = raw
            .iter()
            .map(|&(card, bytes, sorted)| TableKey {
                qlog_card: quantize(card, step),
                qlog_tuple_bytes: quantize(bytes, step),
                sorted,
            })
            .collect();

        // Member positions are resolved once per predicate; the ranking and
        // refinement below reuse them every round.
        let pred_positions: Vec<Vec<usize>> = query
            .predicates
            .iter()
            .map(|p| p.tables.iter().map(|&t| query.position_of(t)).collect())
            .collect();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (pi, positions) in pred_positions.iter().enumerate() {
            for &pos in positions {
                incident[pos].push(pi);
            }
        }

        // Carried columns (projection payload): the union of output columns
        // and per-predicate column requirements, each with its roles.
        fn touch(
            catalog: &Catalog,
            query: &Query,
            role_of: &mut std::collections::HashMap<(usize, u32), usize>,
            columns: &mut Vec<(usize, f64, bool, Vec<usize>)>,
            col: crate::catalog::ColumnId,
        ) -> usize {
            let pos = query.position_of(col.table);
            *role_of.entry((pos, col.column)).or_insert_with(|| {
                columns.push((pos, catalog.column(col).bytes, false, Vec::new()));
                columns.len() - 1
            })
        }
        let mut columns: Vec<(usize, f64, bool, Vec<usize>)> = Vec::new();
        let mut role_of = std::collections::HashMap::new();
        for &col in &query.output_columns {
            let idx = touch(catalog, query, &mut role_of, &mut columns, col);
            columns[idx].2 = true;
        }
        for (pi, p) in query.predicates.iter().enumerate() {
            for &col in &p.columns {
                let idx = touch(catalog, query, &mut role_of, &mut columns, col);
                columns[idx].3.push(pi);
            }
        }

        let ctx = FingerprintCtx {
            query,
            step,
            n,
            raw,
            keys,
            pred_positions,
            incident,
            columns,
        };

        // Structural profile per position: table key, degree, the sorted
        // multiset of incident quantized selectivities, and the sorted
        // multiset of carried-column keys — canonicalization signals that
        // do not depend on the (yet unknown) canonical numbering.
        type Profile = (usize, Vec<i64>, Vec<(i64, bool, usize)>);
        let mut profiles: Vec<Profile> = vec![(0, Vec::new(), Vec::new()); n];
        for (pi, p) in query.predicates.iter().enumerate() {
            let q_sel = quantize(p.selectivity, step);
            for &pos in &ctx.pred_positions[pi] {
                profiles[pos].0 += 1;
                profiles[pos].1.push(q_sel);
            }
        }
        for &(pos, bytes, output, ref preds) in &ctx.columns {
            profiles[pos]
                .2
                .push((quantize(bytes, step), output, preds.len()));
        }
        for prof in &mut profiles {
            prof.1.sort_unstable();
            prof.2.sort_unstable();
        }

        // Initial equivalence classes: positions sharing (table key,
        // incident-stat profile) get one rank; then 1-WL refinement to a
        // fixpoint, then individualization across any remaining symmetric
        // ties (see `canonicalize`).
        let rank = rank_by_key(n, |pos| (&ctx.keys[pos], &profiles[pos]));
        let (fingerprint, exact, from_canonical, budget_exhausted) =
            canonicalize(&ctx, rank, options.individualization_budget);
        let mut to_canonical = vec![0usize; n];
        for (canon, &pos) in from_canonical.iter().enumerate() {
            to_canonical[pos] = canon;
        }

        FingerprintedQuery {
            fingerprint,
            exact,
            to_canonical,
            from_canonical,
            budget_exhausted,
        }
    }
}

/// Iterative neighborhood refinement (1-WL over the predicate hypergraph):
/// re-rank every position by its current rank plus the multiset of
/// (predicate statistics, co-member ranks) over its incident predicates,
/// until the partition stabilizes. Ties between statistically identical
/// tables are thereby broken by *where* each statistic attaches in the
/// join graph, not by the input order — permuting the query's table
/// listing cannot change the outcome.
fn refine_to_fixpoint(ctx: &FingerprintCtx, mut rank: Vec<usize>) -> Vec<usize> {
    let n = ctx.n;
    loop {
        let classes = rank.iter().max().map_or(0, |&r| r + 1);
        if classes == n {
            return rank; // fully discriminated
        }
        type Neighborhood = Vec<(i64, i64, Vec<usize>)>;
        let signatures: Vec<(usize, Neighborhood)> = (0..n)
            .map(|pos| {
                let mut nb: Neighborhood = ctx.incident[pos]
                    .iter()
                    .map(|&pi| {
                        let p = &ctx.query.predicates[pi];
                        let mut others: Vec<usize> = ctx.pred_positions[pi]
                            .iter()
                            .filter(|&&q| q != pos)
                            .map(|&q| rank[q])
                            .collect();
                        others.sort_unstable();
                        (
                            quantize(p.selectivity, ctx.step),
                            quantize(p.eval_cost_per_tuple, ctx.step),
                            others,
                        )
                    })
                    .collect();
                nb.sort();
                (rank[pos], nb)
            })
            .collect();
        let refined = rank_by_key(n, |pos| &signatures[pos]);
        // Each signature embeds the previous rank, so the partition can
        // only split; a round that splits nothing has stabilized.
        if refined.iter().max().map_or(0, |&r| r + 1) == classes {
            return refined;
        }
        rank = refined;
    }
}

/// Resolves the canonical order from an initial ranking: refine to a
/// fixpoint; if symmetric ties remain, branch — individualize each member
/// of the first tied class in turn, re-refine, recurse — and keep the
/// lexicographically smallest completed fingerprint. The branch count is
/// bounded by [`FingerprintOptions::individualization_budget`]; an
/// exhausted budget completes the current branch with the input-order
/// tie-break (deterministic, and sound — merely possibly
/// listing-order-sensitive) and is reported in the returned flag.
fn canonicalize(
    ctx: &FingerprintCtx,
    initial: Vec<usize>,
    budget: usize,
) -> (Fingerprint, ExactStats, Vec<usize>, bool) {
    let mut budget = budget;
    let mut exhausted = false;
    let mut best: Option<(Fingerprint, ExactStats, Vec<usize>)> = None;
    search(ctx, initial, &mut budget, &mut exhausted, &mut best);
    let (fingerprint, exact, from_canonical) =
        // audit-allow(no-panic): the search seeds the first completion
        // before the budget can expire, so `best` is always set.
        best.expect("at least one completion is always explored");
    (fingerprint, exact, from_canonical, exhausted)
}

fn search(
    ctx: &FingerprintCtx,
    rank: Vec<usize>,
    budget: &mut usize,
    exhausted: &mut bool,
    best: &mut Option<(Fingerprint, ExactStats, Vec<usize>)>,
) {
    let rank = refine_to_fixpoint(ctx, rank);
    // First class (lowest rank) with more than one member.
    let mut counts = vec![0usize; ctx.n];
    for &r in &rank {
        counts[r] += 1;
    }
    if let Some(r) = (0..ctx.n).find(|&r| counts[r] > 1) {
        if *budget > 0 {
            let members: Vec<usize> = (0..ctx.n).filter(|&pos| rank[pos] == r).collect();
            let mut truncated = false;
            for &m in &members {
                if *budget == 0 {
                    truncated = true;
                    break;
                }
                *budget -= 1;
                // Individualize m: it becomes the smallest member of its
                // class; refinement then propagates the distinction.
                let individualized = rank_by_key(ctx.n, |pos| (rank[pos], pos != m));
                search(ctx, individualized, budget, exhausted, best);
            }
            if !truncated {
                return; // every member explored; children completed.
            }
        }
        // Budget exhausted (before or during this class): fall back to the
        // input-order tie-break so this refinement still contributes a
        // candidate — deterministic and sound, merely possibly sensitive to
        // the listing order. Recorded so sessions can count the fallback.
        *exhausted = true;
    }
    complete(ctx, &rank, best);
}

/// Completes a (possibly still tied) ranking into a concrete canonical
/// order — remaining ties broken by input position — and keeps it if its
/// fingerprint is the lexicographically smallest seen.
fn complete(
    ctx: &FingerprintCtx,
    rank: &[usize],
    best: &mut Option<(Fingerprint, ExactStats, Vec<usize>)>,
) {
    let mut from_canonical: Vec<usize> = (0..ctx.n).collect();
    from_canonical.sort_by_key(|&pos| (rank[pos], pos));
    let (fp, exact) = build_payload(ctx, &from_canonical);
    let better = match best {
        Some((b, _, _)) => fp < *b,
        None => true,
    };
    if better {
        *best = Some((fp, exact, from_canonical));
    }
}

/// Builds the canonical payload (fingerprint + exact statistics) for a
/// complete canonical order.
fn build_payload(ctx: &FingerprintCtx, from_canonical: &[usize]) -> (Fingerprint, ExactStats) {
    let mut to_canonical = vec![0usize; ctx.n];
    for (canon, &pos) in from_canonical.iter().enumerate() {
        to_canonical[pos] = canon;
    }

    // Predicates over canonical positions, sorted. Remember where each
    // original predicate landed for the group and column mappings.
    let mut preds: Vec<(PredKey, Vec<u16>, f64, f64, usize)> = ctx
        .query
        .predicates
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let mut tables: Vec<u16> = ctx.pred_positions[pi]
                .iter()
                .map(|&pos| to_canonical[pos] as u16)
                .collect();
            tables.sort_unstable();
            let key = PredKey {
                tables: tables.clone(),
                qlog_selectivity: quantize(p.selectivity, ctx.step),
                qlog_eval_cost: quantize(p.eval_cost_per_tuple, ctx.step),
            };
            (key, tables, p.selectivity, p.eval_cost_per_tuple, pi)
        })
        .collect();
    preds.sort_by(|a, b| (&a.0, a.4).cmp(&(&b.0, b.4)));
    let mut pred_rank = vec![0u32; preds.len()];
    for (sorted_idx, p) in preds.iter().enumerate() {
        pred_rank[p.4] = sorted_idx as u32;
    }

    // Correlated groups over sorted-predicate indices, sorted.
    let mut groups: Vec<(GroupKey, Vec<u32>, f64)> = ctx
        .query
        .correlated_groups
        .iter()
        .map(|g| {
            let mut members: Vec<u32> =
                g.members.iter().map(|pid| pred_rank[pid.index()]).collect();
            members.sort_unstable();
            (
                GroupKey {
                    members: members.clone(),
                    qlog_correction: quantize(g.correction, ctx.step),
                },
                members,
                g.correction,
            )
        })
        .collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));

    // Carried columns in canonical coordinates, sorted (see [`ColumnKey`]).
    let mut columns: Vec<(ColumnKey, u16, f64, bool, Vec<u32>)> = ctx
        .columns
        .iter()
        .map(|&(pos, bytes, output, ref pred_indices)| {
            let table = to_canonical[pos] as u16;
            let mut predicates: Vec<u32> = pred_indices.iter().map(|&pi| pred_rank[pi]).collect();
            predicates.sort_unstable();
            (
                ColumnKey {
                    table,
                    qlog_bytes: quantize(bytes, ctx.step),
                    output,
                    predicates: predicates.clone(),
                },
                table,
                bytes,
                output,
                predicates,
            )
        })
        .collect();
    columns.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.total_cmp(&b.2)));

    (
        Fingerprint {
            tables: from_canonical.iter().map(|&pos| ctx.keys[pos]).collect(),
            predicates: preds.iter().map(|p| p.0.clone()).collect(),
            groups: groups.iter().map(|g| g.0.clone()).collect(),
            columns: columns.iter().map(|c| c.0.clone()).collect(),
        },
        ExactStats {
            tables: from_canonical.iter().map(|&pos| ctx.raw[pos]).collect(),
            predicates: preds.iter().map(|p| (p.1.clone(), p.2, p.3)).collect(),
            groups: groups.iter().map(|g| (g.1.clone(), g.2)).collect(),
            columns: columns
                .iter()
                .map(|c| (c.1, c.2, c.3, c.4.clone()))
                .collect(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    fn star(catalog: &mut Catalog, cards: &[f64], sel: f64) -> Query {
        let ids: Vec<_> = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| catalog.add_table(format!("T{i}_{c}"), c))
            .collect();
        let mut q = Query::new(ids.clone());
        for &leaf in &ids[1..] {
            q.add_predicate(Predicate::binary(ids[0], leaf, sel));
        }
        q
    }

    #[test]
    fn identical_structure_over_disjoint_tables_matches() {
        let mut c = Catalog::new();
        let q1 = star(&mut c, &[10.0, 500.0, 2000.0], 0.1);
        let q2 = star(&mut c, &[10.0, 500.0, 2000.0], 0.1);
        assert_ne!(q1.tables, q2.tables);
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        let f2 = FingerprintedQuery::compute(&c, &q2, &opts);
        assert_eq!(f1.fingerprint, f2.fingerprint);
        assert_eq!(f1.exact, f2.exact);
    }

    #[test]
    fn permuted_table_listing_matches() {
        let mut c = Catalog::new();
        let a = c.add_table("A", 10.0);
        let b = c.add_table("B", 500.0);
        let d = c.add_table("D", 2000.0);
        let mut q1 = Query::new(vec![a, b, d]);
        q1.add_predicate(Predicate::binary(a, b, 0.1));
        // Same structure, tables listed in a different order and the
        // predicate written with its endpoints flipped.
        let a2 = c.add_table("A2", 10.0);
        let b2 = c.add_table("B2", 500.0);
        let d2 = c.add_table("D2", 2000.0);
        let mut q2 = Query::new(vec![d2, a2, b2]);
        q2.add_predicate(Predicate::binary(b2, a2, 0.1));
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        let f2 = FingerprintedQuery::compute(&c, &q2, &opts);
        assert_eq!(f1.fingerprint, f2.fingerprint);
    }

    #[test]
    fn near_identical_stats_collide_but_exact_stats_differ() {
        let mut c = Catalog::new();
        let q1 = star(&mut c, &[10.0, 500.0, 2000.0], 0.1);
        // 2% cardinality drift: same quantization bucket at step 0.1.
        let q2 = star(&mut c, &[10.1, 505.0, 2010.0], 0.1);
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        let f2 = FingerprintedQuery::compute(&c, &q2, &opts);
        assert_eq!(f1.fingerprint, f2.fingerprint);
        assert_ne!(f1.exact, f2.exact);
    }

    #[test]
    fn different_structure_differs() {
        let mut c = Catalog::new();
        let q1 = star(&mut c, &[10.0, 500.0, 2000.0], 0.1);
        let q2 = star(&mut c, &[10.0, 500.0, 2000.0], 0.5); // other selectivity
        let q3 = star(&mut c, &[10.0, 500.0, 90000.0], 0.1); // other cardinality
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        assert_ne!(
            f1.fingerprint,
            FingerprintedQuery::compute(&c, &q2, &opts).fingerprint
        );
        assert_ne!(
            f1.fingerprint,
            FingerprintedQuery::compute(&c, &q3, &opts).fingerprint
        );
    }

    #[test]
    fn canonical_maps_are_inverses() {
        let mut c = Catalog::new();
        let q = star(&mut c, &[2000.0, 10.0, 500.0], 0.1);
        let f = FingerprintedQuery::compute(&c, &q, &FingerprintOptions::default());
        for pos in 0..q.num_tables() {
            assert_eq!(f.from_canonical[f.to_canonical[pos]], pos);
        }
        // Canonical order is sorted by quantized cardinality here.
        let canon_cards: Vec<f64> = f
            .from_canonical
            .iter()
            .map(|&pos| c.cardinality(q.tables[pos]))
            .collect();
        assert_eq!(canon_cards, vec![10.0, 500.0, 2000.0]);
    }

    /// A 4-clique whose two middle tables are statistically identical
    /// (same cardinality, same incident-selectivity multiset) but attach
    /// their selectivities to *different* neighbors — exactly the tie the
    /// original-position tie-break resolved in input order, missing the
    /// cache for permuted listings. `swap` exchanges the listing order of
    /// the two tied tables.
    fn tied_clique(c: &mut Catalog, swap: bool) -> Query {
        let t0 = c.add_table(format!("c{}_0", c.num_tables()), 100.0);
        let t1 = c.add_table(format!("c{}_1", c.num_tables()), 50.0);
        let t2 = c.add_table(format!("c{}_2", c.num_tables()), 50.0);
        let t3 = c.add_table(format!("c{}_3", c.num_tables()), 2000.0);
        let tables = if swap {
            vec![t0, t2, t1, t3]
        } else {
            vec![t0, t1, t2, t3]
        };
        let mut q = Query::new(tables);
        // Incident multisets of t1 and t2 are both {0.1, 0.5, 0.05}, but
        // t1's 0.1-edge reaches t0 (card 100) while t2's reaches t3
        // (card 2000): the tables are tied statistically yet structurally
        // distinguishable through their neighborhoods.
        q.add_predicate(Predicate::binary(t0, t1, 0.1));
        q.add_predicate(Predicate::binary(t2, t3, 0.1));
        q.add_predicate(Predicate::binary(t0, t2, 0.5));
        q.add_predicate(Predicate::binary(t1, t3, 0.5));
        q.add_predicate(Predicate::binary(t0, t3, 0.25));
        q.add_predicate(Predicate::binary(t1, t2, 0.05));
        q
    }

    #[test]
    fn permuted_clique_with_tied_tables_matches() {
        let mut c = Catalog::new();
        let q1 = tied_clique(&mut c, false);
        let q2 = tied_clique(&mut c, true);
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        let f2 = FingerprintedQuery::compute(&c, &q2, &opts);
        // Neighborhood refinement must break the (card 50, {0.1, 0.5,
        // 0.05}) tie by structure, not by listing order.
        assert_eq!(f1.fingerprint, f2.fingerprint);
        assert_eq!(f1.exact, f2.exact);
    }

    #[test]
    fn refinement_keeps_cardinality_major_order() {
        let mut c = Catalog::new();
        let q = tied_clique(&mut c, false);
        let f = FingerprintedQuery::compute(&c, &q, &FingerprintOptions::default());
        let canon_cards: Vec<f64> = f
            .from_canonical
            .iter()
            .map(|&pos| c.cardinality(q.tables[pos]))
            .collect();
        // Refinement only splits ties: quantized cardinality stays the
        // primary sort key.
        assert_eq!(canon_cards, vec![50.0, 50.0, 100.0, 2000.0]);
        for pos in 0..q.num_tables() {
            assert_eq!(f.from_canonical[f.to_canonical[pos]], pos);
        }
    }

    /// A 6-cycle of identically-sized tables with alternating selectivities
    /// — every vertex carries the same incident multiset {0.1, 0.5}, so
    /// 1-WL refinement stabilizes with all six tables tied: the exotic
    /// symmetry the ROADMAP flagged. `rotate` shifts the listing (and the
    /// alternation phase); `reverse` flips the orientation.
    fn alternating_cycle(c: &mut Catalog, rotate: usize, reverse: bool) -> Query {
        let n = 6;
        let ids: Vec<_> = (0..n)
            .map(|i| c.add_table(format!("r{}_{i}", c.num_tables()), 300.0))
            .collect();
        let mut listed: Vec<_> = (0..n).map(|i| ids[(i + rotate) % n]).collect();
        if reverse {
            listed.reverse();
        }
        let mut q = Query::new(listed);
        for i in 0..n {
            let sel = if i % 2 == 0 { 0.1 } else { 0.5 };
            q.add_predicate(Predicate::binary(ids[i], ids[(i + 1) % n], sel));
        }
        q
    }

    #[test]
    fn alternating_selectivity_cycle_matches_under_rotation_and_reflection() {
        let mut c = Catalog::new();
        let opts = FingerprintOptions::default();
        let q0 = alternating_cycle(&mut c, 0, false);
        let base = FingerprintedQuery::compute(&c, &q0, &opts);
        for rotate in 0..6 {
            for reverse in [false, true] {
                let q = alternating_cycle(&mut c, rotate, reverse);
                let f = FingerprintedQuery::compute(&c, &q, &opts);
                assert_eq!(
                    base.fingerprint, f.fingerprint,
                    "rotate={rotate} reverse={reverse}"
                );
                assert_eq!(base.exact, f.exact, "rotate={rotate} reverse={reverse}");
            }
        }
    }

    #[test]
    fn projection_queries_are_cacheable_and_structural() {
        let mut c = Catalog::new();
        let make = |c: &mut Catalog| {
            let mut q = star(c, &[10.0, 500.0, 2000.0], 0.1);
            let col = c.add_column(q.tables[0], "a", 8.0);
            let wide = c.add_column(q.tables[1], "b", 32.0);
            q.output_columns.push(col);
            q.predicates[0].columns.push(wide);
            q
        };
        let q1 = make(&mut c);
        let q2 = make(&mut c);
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        let f2 = FingerprintedQuery::compute(&c, &q2, &opts);
        // Structurally identical carried-column payloads over disjoint
        // tables match.
        assert_eq!(f1.fingerprint, f2.fingerprint);
        assert_eq!(f1.exact, f2.exact);

        // The payload is part of the key: dropping the output column, or
        // widening a carried column past the quantization bucket, misses.
        let plain = star(&mut c, &[10.0, 500.0, 2000.0], 0.1);
        let fp_plain = FingerprintedQuery::compute(&c, &plain, &opts);
        assert_ne!(f1.fingerprint, fp_plain.fingerprint);
        let mut q3 = make(&mut c);
        let huge = c.add_column(q3.tables[2], "z", 512.0);
        q3.output_columns.push(huge);
        assert_ne!(
            f1.fingerprint,
            FingerprintedQuery::compute(&c, &q3, &opts).fingerprint
        );
    }

    #[test]
    fn individualization_budget_is_configurable_and_reports_exhaustion() {
        let mut c = Catalog::new();
        let opts = FingerprintOptions::default();
        // The alternating 6-cycle needs individualization: all six tables
        // stay tied after 1-WL. With the default budget the search
        // completes (no exhaustion) and matches under rotation.
        let q0 = alternating_cycle(&mut c, 0, false);
        let full = FingerprintedQuery::compute(&c, &q0, &opts);
        assert!(!full.budget_exhausted);

        // Budget 0 disables individualization: the tie falls back to the
        // input-order tie-break and the fallback is reported.
        let zero = FingerprintOptions {
            individualization_budget: 0,
            ..opts
        };
        let f0 = FingerprintedQuery::compute(&c, &q0, &zero);
        assert!(f0.budget_exhausted);
        // Sound but listing-order-sensitive: the same listing still maps
        // to the same fingerprint deterministically.
        assert_eq!(
            f0.fingerprint,
            FingerprintedQuery::compute(&c, &q0, &zero).fingerprint
        );

        // A partially-consumed budget (smaller than the symmetry group
        // needs) also reports exhaustion.
        let tiny = FingerprintOptions {
            individualization_budget: 2,
            ..opts
        };
        assert!(FingerprintedQuery::compute(&c, &q0, &tiny).budget_exhausted);

        // Asymmetric queries never consume the budget.
        let chain = {
            let a = c.add_table("ba", 10.0);
            let b = c.add_table("bb", 500.0);
            let d = c.add_table("bd", 2000.0);
            let mut q = Query::new(vec![a, b, d]);
            q.add_predicate(Predicate::binary(a, b, 0.1));
            q.add_predicate(Predicate::binary(b, d, 0.3));
            q
        };
        assert!(!FingerprintedQuery::compute(&c, &chain, &zero).budget_exhausted);
    }

    #[test]
    fn projection_width_drift_collides_but_exact_differs() {
        let mut c = Catalog::new();
        let make = |c: &mut Catalog, bytes: f64| {
            let mut q = star(c, &[10.0, 500.0, 2000.0], 0.1);
            let col = c.add_column(q.tables[0], "a", bytes);
            q.output_columns.push(col);
            q
        };
        let q1 = make(&mut c, 8.0);
        let q2 = make(&mut c, 8.1); // ~1% drift: same 0.1-decade bucket
        let opts = FingerprintOptions::default();
        let f1 = FingerprintedQuery::compute(&c, &q1, &opts);
        let f2 = FingerprintedQuery::compute(&c, &q2, &opts);
        assert_eq!(f1.fingerprint, f2.fingerprint);
        // Certificates must not carry over: exact payloads differ.
        assert_ne!(f1.exact, f2.exact);
    }
}
