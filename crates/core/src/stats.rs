//! Formulation statistics: variable and constraint inventories.
//!
//! These categories mirror Tables 1 and 2 of the paper (plus the extension
//! families of §5). They power the `tables` experiment binary and the
//! empirical verification of Theorems 1–2 (the MILP has `O(n·(n+m+l))`
//! variables and constraints).

use std::fmt;

/// Variable families (paper Table 1 + extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarCategory {
    /// `tio_tj` — table in outer operand.
    TableInOuter,
    /// `tii_tj` — table in inner operand.
    TableInInner,
    /// `pao_pj` — predicate applicable on outer operand.
    PredicateApplicable,
    /// `pag_gj` — correlated predicate group applicable.
    GroupApplicable,
    /// `lco_j` — log cardinality of outer operand.
    LogCardOuter,
    /// `cto_rj` — cardinality threshold reached.
    CardThreshold,
    /// `co_j` — approximate cardinality of outer operand.
    CardOuter,
    /// `ci_j` — cardinality of inner operand.
    CardInner,
    /// `jos_ji` — join operator selected (§5.3).
    OperatorSelected,
    /// `pjc_ji` — potential join cost (§5.3).
    PotentialJoinCost,
    /// `ajc_ji` — actual join cost (§5.3).
    ActualJoinCost,
    /// `ohp_jx` — outer operand has property (§5.4).
    Property,
    /// `pco_pj` — predicate evaluated at join (§5.1).
    PredicateEvaluation,
    /// `clo_lj` / `cli_lj` — column present in operand (§5.2).
    Column,
    /// Auxiliary products from binary × continuous linearization.
    LinearizationAux,
}

impl VarCategory {
    pub const ALL: [VarCategory; 15] = [
        VarCategory::TableInOuter,
        VarCategory::TableInInner,
        VarCategory::PredicateApplicable,
        VarCategory::GroupApplicable,
        VarCategory::LogCardOuter,
        VarCategory::CardThreshold,
        VarCategory::CardOuter,
        VarCategory::CardInner,
        VarCategory::OperatorSelected,
        VarCategory::PotentialJoinCost,
        VarCategory::ActualJoinCost,
        VarCategory::Property,
        VarCategory::PredicateEvaluation,
        VarCategory::Column,
        VarCategory::LinearizationAux,
    ];

    pub fn symbol(self) -> &'static str {
        match self {
            VarCategory::TableInOuter => "tio",
            VarCategory::TableInInner => "tii",
            VarCategory::PredicateApplicable => "pao",
            VarCategory::GroupApplicable => "pag",
            VarCategory::LogCardOuter => "lco",
            VarCategory::CardThreshold => "cto",
            VarCategory::CardOuter => "co",
            VarCategory::CardInner => "ci",
            VarCategory::OperatorSelected => "jos",
            VarCategory::PotentialJoinCost => "pjc",
            VarCategory::ActualJoinCost => "ajc",
            VarCategory::Property => "ohp",
            VarCategory::PredicateEvaluation => "pco",
            VarCategory::Column => "clo/cli",
            VarCategory::LinearizationAux => "aux",
        }
    }

    pub fn description(self) -> &'static str {
        match self {
            VarCategory::TableInOuter => "table t in outer operand of join j",
            VarCategory::TableInInner => "table t in inner operand of join j",
            VarCategory::PredicateApplicable => "predicate p applicable on outer operand of join j",
            VarCategory::GroupApplicable => "correlated group g fully applicable at join j",
            VarCategory::LogCardOuter => "log cardinality of outer operand of join j",
            VarCategory::CardThreshold => "cardinality of outer operand reaches threshold r",
            VarCategory::CardOuter => "approximated cardinality of outer operand",
            VarCategory::CardInner => "cardinality of inner operand",
            VarCategory::OperatorSelected => "operator i realizes join j",
            VarCategory::PotentialJoinCost => "cost of join j if operator i were used",
            VarCategory::ActualJoinCost => "cost of join j under the selected operator",
            VarCategory::Property => "outer operand of join j has property x",
            VarCategory::PredicateEvaluation => "predicate p evaluated during join j",
            VarCategory::Column => "column l present in operand of join j",
            VarCategory::LinearizationAux => "binary×continuous product auxiliary",
        }
    }
}

/// Constraint families (paper Table 2 + extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstrCategory {
    /// One table in the first outer operand / each inner operand.
    SingleTableOperand,
    /// `tio + tii <= 1`.
    NoOverlap,
    /// `tio_tj = tii_{t,j-1} + tio_{t,j-1}`.
    OperandChaining,
    /// `pao <= tio` per referenced table.
    PredicateApplicability,
    /// Correlated group linking constraints.
    GroupLinking,
    /// `ci_j = Σ Card(t)·tii`.
    InnerCardinality,
    /// `lco_j = Σ log Card · tio + Σ log Sel · pao`.
    LogCardinality,
    /// `lco_j <= log θ_0 + Σ_r (log θ_{r+1} - log θ_r) · cto_rj`, one
    /// convex-hull row per join.
    ThresholdActivation,
    /// `co_j = Σ δ_r · cto_rj`.
    CardinalityFromThresholds,
    /// `cto_{r+1} <= cto_r`, which the activation row needs.
    ThresholdOrdering,
    /// One operator per join + cost linking (§5.3).
    OperatorChoice,
    /// Property production/consumption (§5.4).
    Properties,
    /// Column tracking (§5.2).
    Projection,
    /// Expensive predicate scheduling (§5.1).
    PredicateScheduling,
    /// Binary × continuous product linearizations.
    Linearization,
}

impl ConstrCategory {
    pub const ALL: [ConstrCategory; 15] = [
        ConstrCategory::SingleTableOperand,
        ConstrCategory::NoOverlap,
        ConstrCategory::OperandChaining,
        ConstrCategory::PredicateApplicability,
        ConstrCategory::GroupLinking,
        ConstrCategory::InnerCardinality,
        ConstrCategory::LogCardinality,
        ConstrCategory::ThresholdActivation,
        ConstrCategory::CardinalityFromThresholds,
        ConstrCategory::ThresholdOrdering,
        ConstrCategory::OperatorChoice,
        ConstrCategory::Properties,
        ConstrCategory::Projection,
        ConstrCategory::PredicateScheduling,
        ConstrCategory::Linearization,
    ];

    pub fn description(self) -> &'static str {
        match self {
            ConstrCategory::SingleTableOperand => "single-table operands (first outer, all inner)",
            ConstrCategory::NoOverlap => "join operands must not overlap",
            ConstrCategory::OperandChaining => "prior join result becomes next outer operand",
            ConstrCategory::PredicateApplicability => "predicates need their tables present",
            ConstrCategory::GroupLinking => "correlated group activation",
            ConstrCategory::InnerCardinality => "inner operand cardinality",
            ConstrCategory::LogCardinality => "log cardinality of outer operand",
            ConstrCategory::ThresholdActivation => "threshold flags activate with cardinality",
            ConstrCategory::CardinalityFromThresholds => "cardinality from threshold flags",
            ConstrCategory::ThresholdOrdering => "threshold flags are monotone",
            ConstrCategory::OperatorChoice => "operator selection and cost linking",
            ConstrCategory::Properties => "result property production/consumption",
            ConstrCategory::Projection => "column presence tracking",
            ConstrCategory::PredicateScheduling => "expensive predicate evaluation timing",
            ConstrCategory::Linearization => "binary×continuous products",
        }
    }
}

/// Per-category counts for one encoded query.
#[derive(Debug, Clone, Default)]
pub struct FormulationStats {
    vars: Vec<(VarCategory, usize)>,
    constrs: Vec<(ConstrCategory, usize)>,
}

impl FormulationStats {
    pub fn count_var(&mut self, cat: VarCategory) {
        self.count_vars(cat, 1);
    }

    pub fn count_vars(&mut self, cat: VarCategory, k: usize) {
        match self.vars.iter_mut().find(|(c, _)| *c == cat) {
            Some((_, n)) => *n += k,
            None => self.vars.push((cat, k)),
        }
    }

    pub fn count_constr(&mut self, cat: ConstrCategory) {
        self.count_constrs(cat, 1);
    }

    pub fn count_constrs(&mut self, cat: ConstrCategory, k: usize) {
        match self.constrs.iter_mut().find(|(c, _)| *c == cat) {
            Some((_, n)) => *n += k,
            None => self.constrs.push((cat, k)),
        }
    }

    pub fn num_vars(&self) -> usize {
        self.vars.iter().map(|(_, n)| n).sum()
    }

    pub fn num_constraints(&self) -> usize {
        self.constrs.iter().map(|(_, n)| n).sum()
    }

    pub fn vars_in(&self, cat: VarCategory) -> usize {
        self.vars
            .iter()
            .find(|(c, _)| *c == cat)
            .map_or(0, |(_, n)| *n)
    }

    pub fn constrs_in(&self, cat: ConstrCategory) -> usize {
        self.constrs
            .iter()
            .find(|(c, _)| *c == cat)
            .map_or(0, |(_, n)| *n)
    }
}

impl fmt::Display for FormulationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "variables: {} total", self.num_vars())?;
        for (c, n) in &self.vars {
            writeln!(f, "  {:>8}  {:>7}  {}", c.symbol(), n, c.description())?;
        }
        writeln!(f, "constraints: {} total", self.num_constraints())?;
        for (c, n) in &self.constrs {
            writeln!(f, "  {:>7}  {}", n, c.description())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut s = FormulationStats::default();
        s.count_var(VarCategory::TableInOuter);
        s.count_vars(VarCategory::TableInOuter, 5);
        s.count_var(VarCategory::CardOuter);
        s.count_constrs(ConstrCategory::NoOverlap, 3);
        assert_eq!(s.num_vars(), 7);
        assert_eq!(s.vars_in(VarCategory::TableInOuter), 6);
        assert_eq!(s.vars_in(VarCategory::CardThreshold), 0);
        assert_eq!(s.num_constraints(), 3);
        assert_eq!(s.constrs_in(ConstrCategory::NoOverlap), 3);
    }

    #[test]
    fn display_renders() {
        let mut s = FormulationStats::default();
        s.count_var(VarCategory::LogCardOuter);
        s.count_constr(ConstrCategory::LogCardinality);
        let text = s.to_string();
        assert!(text.contains("lco"));
        assert!(text.contains("log cardinality"));
    }
}
