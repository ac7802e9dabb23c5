//! Encoder configuration: which parts of the paper's formulation to enable.

use milpjoin_qopt::cost::{CostModelKind, CostParams};

use crate::thresholds::{ApproxMode, Precision};

/// How the page count of the outer operand is derived from its approximate
/// cardinality (§4.3 presents both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageMode {
    /// `pgo_j = co_j * tupleBytes / pageBytes` (ceiling dropped).
    #[default]
    Ratio,
    /// `pgo_j = Σ_r ⌈θ_r·tupleBytes/pageBytes⌉-difference · cto_rj`:
    /// page counts snap to the threshold grid, with explicitly controllable
    /// precision.
    Threshold,
}

/// Full configuration of the query → MILP transformation.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Cardinality approximation precision (§7.1's high/medium/low).
    pub precision: Precision,
    /// Lower- or upper-bounding cardinality approximation (§4.2, Example 2).
    pub approx_mode: ApproxMode,
    /// The cost function to minimize (§4.3).
    pub cost_model: CostModelKind,
    /// Storage parameters for page-based cost formulas.
    pub cost_params: CostParams,
    /// Outer-operand page derivation.
    pub page_mode: PageMode,
    /// Let the MILP choose a join operator per join (§5.3). Ignored for the
    /// `Cout` cost model, which is operator-free.
    pub operator_selection: bool,
    /// Track interesting orders / result properties (§5.4): sort-merge joins
    /// can reuse sortedness of their outer input. Requires
    /// `operator_selection`.
    pub interesting_orders: bool,
    /// Track columns and byte sizes (§5.2). Supported with `Cout` (cost
    /// unchanged) and `Hash` (byte-based pages).
    pub projection: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            precision: Precision::Medium,
            approx_mode: ApproxMode::default(),
            cost_model: CostModelKind::Cout,
            cost_params: CostParams::default(),
            page_mode: PageMode::default(),
            operator_selection: false,
            interesting_orders: false,
            projection: false,
        }
    }
}

impl EncoderConfig {
    pub fn new(precision: Precision, cost_model: CostModelKind) -> Self {
        EncoderConfig {
            precision,
            cost_model,
            ..Default::default()
        }
    }

    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    pub fn cost_model(mut self, m: CostModelKind) -> Self {
        self.cost_model = m;
        self
    }

    pub fn operator_selection(mut self, on: bool) -> Self {
        self.operator_selection = on;
        self
    }

    pub fn interesting_orders(mut self, on: bool) -> Self {
        self.interesting_orders = on;
        if on {
            self.operator_selection = true;
        }
        self
    }

    pub fn projection(mut self, on: bool) -> Self {
        self.projection = on;
        self
    }
}

/// Configuration errors reported by the encoder.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Interesting orders require operator selection.
    OrdersNeedOperatorSelection,
    /// Projection is only implemented for the Cout and hash cost models.
    ProjectionUnsupportedModel(CostModelKind),
    /// Projection requires declared columns on every query table.
    ProjectionNeedsColumns,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::OrdersNeedOperatorSelection => {
                write!(f, "interesting orders require operator selection")
            }
            ConfigError::ProjectionUnsupportedModel(m) => {
                write!(
                    f,
                    "projection is not supported with the {} cost model",
                    m.name()
                )
            }
            ConfigError::ProjectionNeedsColumns => {
                write!(
                    f,
                    "projection requires declared columns on all query tables"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = EncoderConfig::default();
        assert_eq!(c.cost_model, CostModelKind::Cout);
        assert!(!c.operator_selection);
    }

    #[test]
    fn interesting_orders_imply_operator_selection() {
        let c = EncoderConfig::default().interesting_orders(true);
        assert!(c.operator_selection);
    }

    #[test]
    fn builder_chain() {
        let c = EncoderConfig::default()
            .precision(Precision::High)
            .cost_model(CostModelKind::Hash)
            .projection(true);
        assert_eq!(c.precision, Precision::High);
        assert_eq!(c.cost_model, CostModelKind::Hash);
        assert!(c.projection);
    }
}
