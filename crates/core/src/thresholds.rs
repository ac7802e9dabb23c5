//! Cardinality threshold grids and precision configurations (§4.2, §7.1).
//!
//! The MILP cannot represent raw cardinalities (products of inputs), so the
//! encoding works with log-cardinalities and converts back through a
//! geometric grid of thresholds `θ_0 < θ_1 < ... < θ_{l-1}`: one binary
//! variable per threshold marks whether the operand cardinality reaches it,
//! and the approximate cardinality is a weighted sum of those indicators.
//! The grid's geometric spacing *is* the approximation tolerance: spacing
//! factor 3 means the approximation is within factor 3 of the truth inside
//! the modeled range.
//!
//! The encoder turns the flags on with one row per join, the convex hull of
//! the staircase `k flags on ⇒ log-cardinality ≤ log θ_k`
//! ([`crate::encode::cardinality`]). The grid supplies its levels
//! ([`ThresholdGrid::activation_level`]): the thresholds, then the upper
//! bound of the log-cardinality variables once every flag is on.
//!
//! The paper's three configurations (§7.1):
//!
//! | config | tolerance factor | thresholds/result (n ≤ 40) | (n > 40) |
//! |--------|------------------|------------------------------|----------|
//! | high   | 3                | 60                           | 100      |
//! | medium | 10               | 30                           | 50       |
//! | low    | 100              | 15                           | 25       |
//!
//! (The paper states the high/low counts explicitly; medium is interpolated
//! at the same modeled range.) Above the top threshold the approximation
//! saturates — the paper equally models "a bounded cardinality range".
//!
//! The grid also carries the data for projecting MILP dual bounds into
//! exact cost space: [`CostSpaceProjection`] holds the per-query
//! window-floor accounting (divisor + additive inflation) that makes the
//! projection sound under [`ApproxMode::UpperBound`], where operands below
//! the floor over-approximate to θ_0 with no bounded multiplicative
//! factor (the per-cost-model derivation lives with
//! `milpjoin::optimizer::bound_projection`).

use milpjoin_qopt::{CostModelKind, CostParams};

/// Approximation precision configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Precision {
    /// Tolerance factor 3 (paper's "high precision").
    High,
    /// Tolerance factor 10.
    Medium,
    /// Tolerance factor 100 (paper's "low precision").
    Low,
    /// Custom tolerance factor and threshold cap.
    Custom { factor: f64, max_thresholds: usize },
}

impl Precision {
    /// The multiplicative approximation tolerance.
    pub fn tolerance_factor(self) -> f64 {
        match self {
            Precision::High => 3.0,
            Precision::Medium => 10.0,
            Precision::Low => 100.0,
            Precision::Custom { factor, .. } => factor,
        }
    }

    /// Maximum thresholds per intermediate result for a query of `n` tables
    /// (the paper's §7.1 figures).
    pub fn max_thresholds(self, num_tables: usize) -> usize {
        let large = num_tables > 40;
        match self {
            Precision::High => {
                if large {
                    100
                } else {
                    60
                }
            }
            Precision::Medium => {
                if large {
                    50
                } else {
                    30
                }
            }
            Precision::Low => {
                if large {
                    25
                } else {
                    15
                }
            }
            Precision::Custom { max_thresholds, .. } => max_thresholds,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Precision::High => "high",
            Precision::Medium => "medium",
            Precision::Low => "low",
            Precision::Custom { .. } => "custom",
        }
    }

    /// Grid spacing in log10 units.
    pub fn log10_spacing(self) -> f64 {
        self.tolerance_factor().log10()
    }
}

/// Whether the threshold sum under- or over-approximates the cardinality
/// (both variants appear in the paper's Example 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApproxMode {
    /// `co` lands on the highest reached threshold: a lower bound of the
    /// true cardinality (paper's primary formulation).
    #[default]
    LowerBound,
    /// `co` lands on the next threshold above: an upper bound within the
    /// modeled range.
    UpperBound,
}

/// Baseline maximum dynamic range (in decades) the threshold grid may span.
///
/// The `co = Σ δ_r · cto_r` constraint — and every big-M/linearization row
/// whose constant is the top threshold — mixes coefficients as far apart as
/// the grid's endpoints. A double-precision simplex keeps such rows
/// well-conditioned only up to ~6 decades of intra-row range (beyond that,
/// equilibration scaling leaves the small coefficients below the
/// feasibility/pricing tolerances, producing phantom infeasibilities and
/// numerically detached variables). The grid is therefore a *window* of at
/// most this width, anchored at the cost scale of a quickly-computed greedy
/// plan — the paper's own suggestion of bounding the modeled cardinality
/// range via query properties. Operands above the window saturate at the
/// top threshold; operands below it approximate to the floor — both with
/// negligible effect on plan ranking near the optimum.
///
/// This constant is the **cost-space** budget; the *cardinality-space*
/// window a given cost model may span is wider — see
/// [`max_grid_decades`].
pub const MAX_GRID_DECADES: f64 = 6.0;

/// Outer tuples one unit of model cost admits — the cost → cardinality
/// conversion used both to anchor the window top (the largest operand whose
/// own model cost does not yet exceed a greedy plan's total) and to widen
/// the resolvable window per model ([`max_grid_decades`]).
///
/// Per model, from the cheapest cost-per-outer-tuple:
///
/// * **C_out** counts tuples directly: 1;
/// * **hash** pays at least `3 · tuple_bytes / page_bytes` per outer tuple;
/// * **sort-merge** pays at least `po + pi` pages (log factor dropped for a
///   conservative bound): `tuple_bytes / page_bytes` per tuple;
/// * **block-nested-loop** pays at least `⌈po / B⌉` inner page reads:
///   `tuple_bytes / (B · page_bytes)` per tuple.
pub fn tuples_per_unit_cost(model: CostModelKind, params: &CostParams) -> f64 {
    match model {
        CostModelKind::Cout => 1.0,
        CostModelKind::Hash => params.page_bytes / (3.0 * params.tuple_bytes),
        CostModelKind::SortMerge => params.page_bytes / params.tuple_bytes,
        CostModelKind::BlockNestedLoop => {
            params.buffer_pages * params.page_bytes / params.tuple_bytes
        }
    }
}

/// Resolvable window width, in **cardinality decades**, for one cost model.
///
/// The motivation: the window top is anchored at the largest operand whose
/// *own model cost* does not exceed a greedy plan's total, which for the
/// page-based models sits `log10(tuples_per_unit_cost)` decades *above*
/// the greedy cost scale (operands that large are still competitive
/// because each of their tuples costs so little). Under a fixed 6-decade
/// width that conversion ate the bottom of the window: block-nested-loop
/// (`B · page_bytes / tuple_bytes = 64 · 8192 / 64 = 8192 ≈ 10^3.9` at
/// default parameters) left only ~2.1 decades below the cost scale —
/// where the optimum's operands actually live. The per-model width adds
/// the conversion decades back, so every model resolves the full
/// [`MAX_GRID_DECADES`] *below its cost scale*; hash (~1.6 extra decades)
/// and sort-merge (~2.1) sit between C_out (unchanged) and BNL (~3.9).
///
/// On soundness of exceeding the 6-decade baseline: the *cost* rows'
/// coefficient range is unaffected (each threshold's objective weight is
/// the raw threshold scaled by the uniform per-tuple cost factor — the
/// conversion shifts that range without widening it), but the
/// cardinality-sum row `co = Σ δ_r · cto_r` genuinely spans the full
/// cardinality window, so its smallest relative coefficients drop toward
/// the simplex tolerances (`~1e-7`) near the ~9.5-decade BNL width. The
/// failure mode is benign: a sub-tolerance `δ_0` contribution blurs only
/// the *lowest* thresholds (locally equivalent to a slightly narrower
/// window), while plan selection is protected by the exact-cost argmin
/// and the session layer's exact re-costing, and certificates already
/// carry the numerical-tolerance caveat (`MIN_RELATIVE_GAP`). The widened
/// widths are validated empirically: `tests/grid_window.rs` drives
/// 7-decade-cardinality BNL chains through MILP-vs-DP parity at the full
/// ~9.5-decade window (no phantom infeasibility, optima matched).
pub fn max_grid_decades(model: CostModelKind, params: &CostParams) -> f64 {
    MAX_GRID_DECADES + tuples_per_unit_cost(model, params).log10().max(0.0)
}

/// A concrete geometric threshold grid in log10 space.
#[derive(Debug, Clone)]
pub struct ThresholdGrid {
    /// log10 of each threshold value, ascending.
    log_thresholds: Vec<f64>,
    /// log10 of the largest representable operand cardinality (sets the
    /// `lco` upper bound, [`Self::lco_upper`]).
    pub log_card_max: f64,
    /// Smallest possible log-cardinality (used for variable bounds).
    pub log_card_min: f64,
    mode: ApproxMode,
}

impl ThresholdGrid {
    /// Builds the grid for a query whose outer-operand log10-cardinality
    /// ranges over `[log_card_min, log_card_max]`, with the top of the
    /// window at `log_card_max`.
    pub fn build(
        precision: Precision,
        num_tables: usize,
        log_card_min: f64,
        log_card_max: f64,
        mode: ApproxMode,
    ) -> Self {
        Self::build_windowed(
            precision,
            num_tables,
            log_card_min,
            log_card_max,
            log_card_max,
            MAX_GRID_DECADES,
            mode,
        )
    }

    /// Builds the grid with an explicit window anchor: the top threshold is
    /// placed at `anchor_log_top` (clamped into the representable range)
    /// and the grid extends downward by at most `max_decades` decades
    /// (typically [`max_grid_decades`] for the configured cost model —
    /// pass [`MAX_GRID_DECADES`] for the model-agnostic baseline) / the
    /// precision's threshold budget.
    pub fn build_windowed(
        precision: Precision,
        num_tables: usize,
        log_card_min: f64,
        log_card_max: f64,
        anchor_log_top: f64,
        max_decades: f64,
        mode: ApproxMode,
    ) -> Self {
        let spacing = precision.log10_spacing();
        let cap = precision.max_thresholds(num_tables).max(1);
        let top = anchor_log_top.min(log_card_max).max(log_card_min + spacing);
        // Budget: paper's per-precision cap, further limited by the
        // numerically-resolvable window width (per cost model; see
        // `max_grid_decades`).
        let width_cap = (max_decades.max(0.0) / spacing).floor() as usize + 1;
        let budget = cap.min(width_cap).max(1);
        // Do not extend below the smallest representable operand.
        let lowest_useful = log_card_min + spacing;
        let needed = if top > lowest_useful {
            ((top - lowest_useful) / spacing).ceil() as usize + 1
        } else {
            1
        };
        let count = needed.min(budget);
        let base = top - spacing * (count as f64 - 1.0);
        let log_thresholds: Vec<f64> = (0..count).map(|r| base + r as f64 * spacing).collect();
        ThresholdGrid {
            log_thresholds,
            log_card_max,
            log_card_min,
            mode,
        }
    }

    pub fn len(&self) -> usize {
        self.log_thresholds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.log_thresholds.is_empty()
    }

    pub fn mode(&self) -> ApproxMode {
        self.mode
    }

    /// log10 of threshold `r`.
    pub fn log_threshold(&self, r: usize) -> f64 {
        self.log_thresholds[r]
    }

    /// Raw value of threshold `r`.
    pub fn threshold(&self, r: usize) -> f64 {
        10f64.powf(self.log_thresholds[r])
    }

    /// The value the approximation assigns when thresholds `0..=r` are
    /// active (`None` = no threshold active).
    pub fn level_value(&self, active_up_to: Option<usize>) -> f64 {
        match (self.mode, active_up_to) {
            (ApproxMode::LowerBound, None) => 0.0,
            (ApproxMode::LowerBound, Some(r)) => self.threshold(r),
            (ApproxMode::UpperBound, None) => self.threshold(0),
            (ApproxMode::UpperBound, Some(r)) => {
                if r + 1 < self.len() {
                    self.threshold(r + 1)
                } else {
                    // Saturated: top of the modeled range.
                    self.threshold(self.len() - 1)
                }
            }
        }
    }

    /// The weight `δ_r` of threshold variable `r` in the cardinality sum,
    /// i.e. `co = Σ_r δ_r · cto_r` reproduces [`Self::level_value`].
    pub fn delta(&self, r: usize) -> f64 {
        match self.mode {
            ApproxMode::LowerBound => {
                if r == 0 {
                    self.threshold(0)
                } else {
                    self.threshold(r) - self.threshold(r - 1)
                }
            }
            ApproxMode::UpperBound => {
                // Base value θ_0 is a constant offset; variable r lifts the
                // level from θ_{r} to θ_{r+1} (saturating at the top).
                let hi = if r + 1 < self.len() {
                    self.threshold(r + 1)
                } else {
                    self.threshold(r)
                };
                let lo = self.threshold(r);
                if r == 0 {
                    hi - lo + 0.0
                } else {
                    hi - self.threshold(r)
                }
            }
        }
    }

    /// Constant offset added to the weighted threshold sum (non-zero only
    /// for the upper-bound mode, whose floor is θ_0).
    pub fn constant_offset(&self) -> f64 {
        match self.mode {
            ApproxMode::LowerBound => 0.0,
            ApproxMode::UpperBound => self.threshold(0),
        }
    }

    /// The approximation of `card` this grid produces when the solver sets
    /// exactly the forced thresholds (reference semantics for tests).
    pub fn approximate(&self, card: f64) -> f64 {
        let lc = card.log10();
        let mut last_reached = None;
        for (r, &lt) in self.log_thresholds.iter().enumerate() {
            if lc > lt + 1e-12 {
                last_reached = Some(r);
            }
        }
        self.level_value(last_reached)
    }

    /// Upper bound of the outer log-cardinality variables `lco`: one decade
    /// above the largest representable log-cardinality.
    pub fn lco_upper(&self) -> f64 {
        self.log_card_max + 1.0
    }

    /// The log-cardinality the activation row admits once flags `0..r` are
    /// on: `log θ_r` for `r < l`, and for `r = l` the `lco` upper bound, or
    /// the top threshold where that sits above it (a tiny query at low
    /// precision: the grid keeps its one threshold a full spacing above
    /// the smallest operand). The levels never fall, so the row's
    /// coefficients, the steps between them, are non-negative.
    pub fn activation_level(&self, r: usize) -> f64 {
        match self.log_thresholds.get(r) {
            Some(&lt) => lt,
            None => self
                .log_thresholds
                .last()
                .map_or(self.lco_upper(), |&top| top.max(self.lco_upper())),
        }
    }

    /// Raw value of the window floor `θ_0` — the level every operand below
    /// the grid approximates to in [`ApproxMode::UpperBound`] (an
    /// over-estimate with no bounded multiplicative factor; the quantity
    /// the window-floor accounting of [`CostSpaceProjection`] charges per
    /// objective term).
    pub fn floor_value(&self) -> f64 {
        self.threshold(0)
    }

    /// Raw value of the top threshold `θ_{l-1}` — the saturation level
    /// every operand above the window approximates to.
    pub fn top_value(&self) -> f64 {
        self.threshold(self.len() - 1)
    }

    /// The largest factor by which an [`ApproxMode::UpperBound`] level can
    /// exceed the exact operand cardinality *plus* the floor: for every
    /// exact cardinality `c`, `level(c) <= max(factor · c, θ_0)`.
    ///
    /// * inside the window, `c ∈ (θ_r, θ_{r+1}]` maps to
    ///   `θ_{r+1} = θ_r · F < F · c` (F = the grid spacing factor);
    /// * below the floor, the level is the constant `θ_0`;
    /// * above the window, the level saturates at `θ_top <= c`.
    ///
    /// This is the inequality the cost-space bound projection is built on
    /// (see [`CostSpaceProjection`]).
    pub fn upper_level_bound(&self, spacing_factor: f64, card: f64) -> f64 {
        debug_assert_eq!(self.mode, ApproxMode::UpperBound);
        (spacing_factor * card).max(self.floor_value())
    }
}

/// Per-query accounting for projecting a MILP-space dual bound into exact
/// cost space: for every feasible plan `P` (with operator choices where
/// operator selection is on),
///
/// ```text
/// milp_objective(P) <= divisor · exact_cost(P) + inflation
/// ```
///
/// so `exact_cost(P) >= (milp_bound - inflation) / divisor` for every plan
/// — a valid cost-space lower bound.
///
/// Under [`ApproxMode::LowerBound`] the approximation under-estimates every
/// cardinality and every objective term is monotone in them, so the
/// identity projection (`divisor = 1`, `inflation = 0`) is sound.
///
/// Under [`ApproxMode::UpperBound`] each outer-operand level satisfies
/// `level <= max(F · c, θ_0) <= F · c + θ_0` (see
/// [`ThresholdGrid::upper_level_bound`]); threading that through each cost
/// model's objective terms yields a per-query `divisor` (`F` for C_out /
/// hash / BNL; `F · (2·Lmax + 1)` for sort-merge, where `Lmax` is the
/// largest `⌈log2 pages⌉` any representable level can reach — the
/// log-linear sort term is super-linear, so the factor-`F` argument alone
/// is not enough) and a total additive `inflation` (the window-floor terms
/// `θ_0`, converted to the model's units, summed over objective terms).
/// The derivation per model lives with `milpjoin::optimizer::bound_projection`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSpaceProjection {
    /// Multiplicative factor `G >= 1` by which the MILP objective can
    /// exceed the exact cost (beyond the additive inflation).
    pub divisor: f64,
    /// Total additive window-floor inflation `Δ >= 0` across all objective
    /// terms.
    pub inflation: f64,
}

impl CostSpaceProjection {
    /// The identity projection (exact objective spaces;
    /// [`ApproxMode::LowerBound`]).
    pub fn identity() -> Self {
        CostSpaceProjection {
            divisor: 1.0,
            inflation: 0.0,
        }
    }

    /// Projects a MILP dual bound into a cost-space lower bound valid for
    /// every plan: `(milp_bound - inflation) / divisor`. `None` when the
    /// search has proven nothing (`-inf`) or the inputs are not finite.
    pub fn project(&self, milp_bound: f64) -> Option<f64> {
        if !milp_bound.is_finite() || !self.divisor.is_finite() || self.divisor < 1.0 {
            return None;
        }
        let corrected = (milp_bound - self.inflation) / self.divisor;
        corrected.is_finite().then_some(corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parameters_match_paper() {
        assert_eq!(Precision::High.tolerance_factor(), 3.0);
        assert_eq!(Precision::High.max_thresholds(40), 60);
        assert_eq!(Precision::High.max_thresholds(50), 100);
        assert_eq!(Precision::Low.max_thresholds(30), 15);
        assert_eq!(Precision::Low.max_thresholds(60), 25);
        assert_eq!(Precision::Medium.tolerance_factor(), 10.0);
    }

    #[test]
    fn grid_respects_cap() {
        // The budget is the paper's cap further limited by the numerically
        // resolvable window width.
        let g = ThresholdGrid::build(Precision::Low, 60, 0.0, 300.0, ApproxMode::LowerBound);
        let low_budget = (MAX_GRID_DECADES / Precision::Low.log10_spacing()) as usize + 1;
        assert_eq!(g.len(), 25.min(low_budget));
        let g2 = ThresholdGrid::build(Precision::High, 10, 0.0, 300.0, ApproxMode::LowerBound);
        let high_budget = (MAX_GRID_DECADES / Precision::High.log10_spacing()) as usize + 1;
        assert_eq!(g2.len(), 60.min(high_budget));
        // Precision ordering is preserved: high > medium > low counts.
        let gm = ThresholdGrid::build(Precision::Medium, 10, 0.0, 300.0, ApproxMode::LowerBound);
        assert!(g2.len() > gm.len() && gm.len() > g.len());
    }

    #[test]
    fn small_range_needs_few_thresholds() {
        let g = ThresholdGrid::build(Precision::Medium, 10, 1.0, 4.5, ApproxMode::LowerBound);
        // Range 3.5 decades at spacing 1 -> about 4 thresholds.
        assert!(g.len() <= 5, "len {}", g.len());
        assert!(g.len() >= 3);
    }

    #[test]
    fn lower_bound_within_tolerance() {
        let g = ThresholdGrid::build(Precision::Medium, 10, 0.0, 10.0, ApproxMode::LowerBound);
        for card in [5.0, 99.0, 1234.0, 1e6, 3.3e9] {
            let approx = g.approximate(card);
            assert!(
                approx <= card * (1.0 + 1e-9),
                "approx {approx} > card {card}"
            );
            // Between the first and last threshold, the multiplicative
            // error is at most the tolerance factor (below θ_0 the
            // approximation is 0 — an additive error of at most θ_0).
            let lc = card.log10();
            if lc > g.log_threshold(0) && lc <= g.log_threshold(g.len() - 1) {
                assert!(
                    card / approx <= 10.0 * (1.0 + 1e-9),
                    "card {card} approx {approx}"
                );
            }
        }
    }

    #[test]
    fn upper_bound_dominates_lower() {
        let lo = ThresholdGrid::build(Precision::Medium, 10, 0.0, 8.0, ApproxMode::LowerBound);
        let hi = ThresholdGrid::build(Precision::Medium, 10, 0.0, 8.0, ApproxMode::UpperBound);
        for card in [12.0, 800.0, 52_000.0, 9.9e6] {
            assert!(hi.approximate(card) >= lo.approximate(card));
            assert!(hi.approximate(card) >= card.min(hi.threshold(hi.len() - 1)) * 0.999);
        }
    }

    #[test]
    fn delta_sums_reproduce_levels() {
        for mode in [ApproxMode::LowerBound, ApproxMode::UpperBound] {
            let g = ThresholdGrid::build(Precision::Medium, 10, 0.0, 6.0, mode);
            for upto in 0..g.len() {
                let sum: f64 = (0..=upto).map(|r| g.delta(r)).sum::<f64>() + g.constant_offset();
                let level = g.level_value(Some(upto));
                assert!(
                    (sum - level).abs() < 1e-6 * level.max(1.0),
                    "mode {mode:?} upto {upto}: sum {sum} level {level}"
                );
            }
            // No thresholds active.
            assert!((g.constant_offset() - g.level_value(None)).abs() < 1e-9);
        }
    }

    #[test]
    fn activation_levels_telescope_to_the_lco_bound() {
        let g = ThresholdGrid::build(Precision::Low, 20, 0.0, 40.0, ApproxMode::LowerBound);
        let l = g.len();
        for r in 0..l {
            assert_eq!(g.activation_level(r), g.log_threshold(r));
            assert!(g.activation_level(r + 1) > g.activation_level(r));
        }
        // All flags on: the row reaches the lco upper bound, so it admits
        // every representable log-cardinality.
        assert_eq!(g.activation_level(l), g.lco_upper());
    }

    #[test]
    fn tiny_range_low_precision_top_sits_above_the_lco_bound() {
        // Operands span half a decade; low precision spaces thresholds two
        // decades apart, and the one threshold sits a spacing above the
        // smallest operand, above the lco upper bound.
        let g = ThresholdGrid::build(Precision::Low, 3, 1.0, 1.5, ApproxMode::UpperBound);
        assert_eq!(g.len(), 1);
        assert!(g.log_threshold(0) > g.lco_upper());
        // The last level is the top threshold, so the step is zero rather
        // than negative.
        assert_eq!(g.activation_level(1), g.log_threshold(0));
    }

    #[test]
    fn floor_and_top_accessors() {
        let g = ThresholdGrid::build(Precision::Medium, 10, 0.0, 6.0, ApproxMode::UpperBound);
        assert_eq!(g.floor_value(), g.threshold(0));
        assert_eq!(g.top_value(), g.threshold(g.len() - 1));
        assert!(g.floor_value() < g.top_value());
    }

    #[test]
    fn upper_levels_bounded_by_factor_and_floor() {
        let g = ThresholdGrid::build(Precision::Medium, 10, 0.0, 8.0, ApproxMode::UpperBound);
        let f = Precision::Medium.tolerance_factor();
        for card in [0.001, 0.5, 3.0, 42.0, 1e4, 5e7, 1e12] {
            let level = g.approximate(card);
            assert!(
                level <= g.upper_level_bound(f, card) * (1.0 + 1e-9),
                "card {card}: level {level} above bound {}",
                g.upper_level_bound(f, card)
            );
        }
    }

    #[test]
    fn projection_identity_and_correction() {
        let id = CostSpaceProjection::identity();
        assert_eq!(id.project(42.0), Some(42.0));
        assert_eq!(id.project(f64::NEG_INFINITY), None);
        let corr = CostSpaceProjection {
            divisor: 10.0,
            inflation: 20.0,
        };
        assert_eq!(corr.project(120.0), Some(10.0));
        // A corrected bound may be non-positive: still a valid (vacuous)
        // statement about a non-negative cost space.
        assert_eq!(corr.project(10.0), Some(-1.0));
        assert_eq!(corr.project(f64::INFINITY), None);
    }

    #[test]
    fn per_model_window_width_recovers_conversion_decades() {
        let params = CostParams::default();
        // C_out converts 1:1 — the baseline width.
        assert_eq!(
            max_grid_decades(CostModelKind::Cout, &params),
            MAX_GRID_DECADES
        );
        // BNL's conversion factor is B·page/tuple = 64·8192/64 = 8192:
        // ~3.9 decades recovered on top of the 6-decade baseline.
        let bnl = max_grid_decades(CostModelKind::BlockNestedLoop, &params);
        assert!((bnl - (MAX_GRID_DECADES + 8192f64.log10())).abs() < 1e-12);
        assert!((bnl - 9.913).abs() < 1e-3, "bnl width {bnl}");
        // Hash and sort-merge sit between: page/(3·tuple) and page/tuple.
        let hash = max_grid_decades(CostModelKind::Hash, &params);
        let sm = max_grid_decades(CostModelKind::SortMerge, &params);
        assert!(MAX_GRID_DECADES < hash && hash < sm && sm < bnl);
        // A model whose conversion shrinks cardinalities (tuples wider than
        // a page) must never narrow the window below the baseline.
        let wide = CostParams {
            tuple_bytes: 1e6,
            ..params
        };
        assert_eq!(
            max_grid_decades(CostModelKind::Hash, &wide),
            MAX_GRID_DECADES
        );
    }

    #[test]
    fn wider_window_buys_bnl_more_thresholds() {
        // At Medium precision (1 decade spacing) the baseline admits 7
        // thresholds; the BNL width admits 10 — the recovered precision.
        let params = CostParams::default();
        let base = ThresholdGrid::build_windowed(
            Precision::Medium,
            10,
            0.0,
            30.0,
            20.0,
            MAX_GRID_DECADES,
            ApproxMode::LowerBound,
        );
        let bnl = ThresholdGrid::build_windowed(
            Precision::Medium,
            10,
            0.0,
            30.0,
            20.0,
            max_grid_decades(CostModelKind::BlockNestedLoop, &params),
            ApproxMode::LowerBound,
        );
        assert_eq!(base.len(), 7);
        assert_eq!(bnl.len(), 10);
        // Same top anchor; the extra thresholds extend the window *down*.
        assert_eq!(bnl.top_value(), base.top_value());
        assert!(bnl.floor_value() < base.floor_value());
    }

    #[test]
    fn thresholds_strictly_increasing() {
        let g = ThresholdGrid::build(Precision::High, 10, 1.0, 20.0, ApproxMode::LowerBound);
        for r in 1..g.len() {
            assert!(g.log_threshold(r) > g.log_threshold(r - 1));
            assert!(g.delta(r) > 0.0);
        }
    }
}
