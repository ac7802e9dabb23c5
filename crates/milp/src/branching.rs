//! Branching-variable selection by pseudocost.

/// Per-variable pseudocost statistics: observed objective degradation per
/// unit of fractionality, separately for down- and up-branches.
#[derive(Debug, Clone)]
pub struct Pseudocosts {
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    /// Initialization estimate (|objective coefficient| + 1).
    init: Vec<f64>,
}

impl Pseudocosts {
    pub fn new(num_vars: usize, obj: &[f64]) -> Self {
        let init = (0..num_vars)
            .map(|j| obj.get(j).copied().unwrap_or(0.0).abs() + 1.0)
            .collect();
        Pseudocosts {
            down_sum: vec![0.0; num_vars],
            down_cnt: vec![0; num_vars],
            up_sum: vec![0.0; num_vars],
            up_cnt: vec![0; num_vars],
            init,
        }
    }

    /// Records the LP bound degradation observed after branching `var`
    /// down/up with fractional part `frac` at the parent.
    pub fn record(&mut self, var: usize, frac: f64, degradation: f64, up: bool) {
        let deg = degradation.max(0.0);
        if up {
            let unit = deg / (1.0 - frac).max(1e-6);
            self.up_sum[var] += unit;
            self.up_cnt[var] += 1;
        } else {
            let unit = deg / frac.max(1e-6);
            self.down_sum[var] += unit;
            self.down_cnt[var] += 1;
        }
    }

    fn down_cost(&self, var: usize) -> f64 {
        if self.down_cnt[var] > 0 {
            self.down_sum[var] / self.down_cnt[var] as f64
        } else {
            self.init[var]
        }
    }

    fn up_cost(&self, var: usize) -> f64 {
        if self.up_cnt[var] > 0 {
            self.up_sum[var] / self.up_cnt[var] as f64
        } else {
            self.init[var]
        }
    }

    /// Pseudocost score of branching on `var` with fractional part `frac`:
    /// the product rule of estimated down/up degradations.
    pub fn score(&self, var: usize, frac: f64) -> f64 {
        let down = self.down_cost(var) * frac;
        let up = self.up_cost(var) * (1.0 - frac);
        down.max(1e-8) * up.max(1e-8)
    }
}

/// Selects the branching variable among `candidates` (columns with
/// fractional LP values): the highest pseudocost score wins. Returns the
/// column index and its fractional part.
pub fn select_branching_var(
    candidates: &[(usize, f64)],
    pseudocosts: &Pseudocosts,
) -> Option<(usize, f64)> {
    candidates.iter().copied().max_by(|a, b| {
        let sa = pseudocosts.score(a.0, a.1);
        let sb = pseudocosts.score(b.0, b.1);
        sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudocost_prefers_high_degradation() {
        let mut pc = Pseudocosts::new(2, &[0.0, 0.0]);
        // Variable 1 historically degrades the bound a lot.
        pc.record(1, 0.5, 100.0, true);
        pc.record(1, 0.5, 100.0, false);
        pc.record(0, 0.5, 0.1, true);
        pc.record(0, 0.5, 0.1, false);
        let cands = vec![(0, 0.5), (1, 0.5)];
        let (v, _) = select_branching_var(&cands, &pc).unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn empty_candidates() {
        let pc = Pseudocosts::new(1, &[0.0]);
        assert!(select_branching_var(&[], &pc).is_none());
    }

    #[test]
    fn uninitialized_pseudocosts_fall_back_to_objective() {
        let pc = Pseudocosts::new(2, &[10.0, 0.1]);
        let cands = vec![(0, 0.5), (1, 0.5)];
        let (v, _) = select_branching_var(&cands, &pc).unwrap();
        assert_eq!(v, 0);
    }
}
