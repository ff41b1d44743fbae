//! The safe-allowance estimator (paper §6, "How to allocate volume
//! towards 3GOL?").
//!
//! For user `u` at month `t`, with `F_u(t−1) … F_u(t−τ)` the free
//! (unused) volume of the τ previous months:
//!
//! ```text
//! F̄u(t)    = Σ_{s=1..τ} F_u(t−s) / τ
//! 3GOLa(t) = F̄u(t) − α·σ̄u(t)
//! ```
//!
//! where σ̄ is the sample standard deviation of the same window and α a
//! tunable guard. The paper reports that τ = 5, α = 4 lets 3GOL use
//! about 65 % of the available free capacity with expected overrun time
//! under one day per month.

/// Anything that maps a window of monthly free-capacity history to a
/// safe monthly 3GOL allowance. The paper's mean-minus-guard rule is
/// [`AllowanceEstimator`]; [`QuantileEstimator`] is an alternative
/// compared in the `est06` ablation.
pub trait FreeCapacityEstimator {
    /// Monthly allowance in bytes given past months' free volume
    /// (most recent last).
    fn monthly_allowance(&self, free_history_bytes: &[f64]) -> f64;

    /// Display label.
    fn label(&self) -> String;
}

/// The paper's allowance estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllowanceEstimator {
    /// History window in months (paper: 5).
    pub tau: usize,
    /// Guard multiplier on the free-capacity standard deviation
    /// (paper: 4).
    pub alpha: f64,
}

impl AllowanceEstimator {
    /// Create an estimator.
    pub fn new(tau: usize, alpha: f64) -> AllowanceEstimator {
        assert!(tau >= 1, "window must cover at least one month");
        assert!(alpha >= 0.0);
        AllowanceEstimator { tau, alpha }
    }

    /// The paper's configuration: τ = 5, α = 4.
    pub fn paper() -> AllowanceEstimator {
        AllowanceEstimator::new(5, 4.0)
    }

    /// Monthly 3GOL allowance in bytes given the user's free capacity
    /// of previous months, most recent last. Uses the last `τ` entries
    /// (or all, if fewer are available — cold start). Never negative.
    pub fn monthly_allowance(&self, free_history_bytes: &[f64]) -> f64 {
        if free_history_bytes.is_empty() {
            return 0.0;
        }
        let window = &free_history_bytes[free_history_bytes.len().saturating_sub(self.tau)..];
        let n = window.len() as f64;
        let mean = window.iter().sum::<f64>() / n;
        let sd = if window.len() > 1 {
            (window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            // One month of history: be conservative, treat the whole
            // observation as uncertainty.
            mean
        };
        (mean - self.alpha * sd).max(0.0)
    }

    /// Daily allowance: the monthly allowance spread over 30 days.
    pub fn daily_allowance(&self, free_history_bytes: &[f64]) -> f64 {
        self.monthly_allowance(free_history_bytes) / 30.0
    }
}

impl FreeCapacityEstimator for AllowanceEstimator {
    fn monthly_allowance(&self, free_history_bytes: &[f64]) -> f64 {
        AllowanceEstimator::monthly_allowance(self, free_history_bytes)
    }

    fn label(&self) -> String {
        format!("mean−{}σ (τ={})", self.alpha, self.tau)
    }
}

/// A conservative quantile rule: the allowance is the `q`-quantile of
/// the last `tau` months of free capacity (e.g. q = 0.1 ⇒ "a volume
/// that was free in 90 % of recent months").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimator {
    /// History window in months.
    pub tau: usize,
    /// Quantile in `[0, 1]` (lower = more conservative).
    pub q: f64,
}

impl QuantileEstimator {
    /// Create a quantile estimator.
    pub fn new(tau: usize, q: f64) -> QuantileEstimator {
        assert!(tau >= 1);
        assert!((0.0..=1.0).contains(&q));
        QuantileEstimator { tau, q }
    }
}

impl FreeCapacityEstimator for QuantileEstimator {
    fn monthly_allowance(&self, free_history_bytes: &[f64]) -> f64 {
        if free_history_bytes.is_empty() {
            return 0.0;
        }
        let window = &free_history_bytes[free_history_bytes.len().saturating_sub(self.tau)..];
        let mut sorted = window.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pos = self.q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let w = pos - lo as f64;
        (sorted[lo] * (1.0 - w) + sorted[hi] * w).max(0.0)
    }

    fn label(&self) -> String {
        format!("P{:.0} (τ={})", self.q * 100.0, self.tau)
    }
}

/// Outcome of evaluating an estimator over a user population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorEvaluation {
    /// Months evaluated (user-months with a full history window).
    pub months: usize,
    /// Fraction of the truly free capacity the allowance captured:
    /// `Σ min(allowance, free) / Σ free`.
    pub free_capacity_used: f64,
    /// Mean cap-overrun time, days per evaluated month.
    pub mean_overrun_days: f64,
    /// Fraction of user-months with any overrun.
    pub overrun_month_fraction: f64,
}

/// Run the §6 evaluation: for every user, roll the estimator over their
/// monthly free-capacity series and compare the allowance of month `t`
/// against the volume that was actually free in month `t`.
///
/// Overrun model: the allowance is consumed uniformly over a 30-day
/// month, so if the allowance `a` exceeds the actually free volume `f`,
/// the user's cap is exhausted after `30·f/a` days and the remaining
/// `30·(1 − f/a)` days are over cap.
pub fn evaluate_estimator<E: FreeCapacityEstimator + WindowTau>(
    est: &E,
    users_free_by_month: &[Vec<f64>],
) -> EstimatorEvaluation {
    let tau = est.window_tau();
    let mut months = 0usize;
    let mut used = 0.0;
    let mut free_total = 0.0;
    let mut overrun_days = 0.0;
    let mut overrun_months = 0usize;
    for series in users_free_by_month {
        if series.len() <= tau {
            continue;
        }
        for t in tau..series.len() {
            let allowance = est.monthly_allowance(&series[..t]);
            let free = series[t];
            months += 1;
            free_total += free;
            used += allowance.min(free);
            if allowance > free && allowance > 0.0 {
                overrun_days += 30.0 * (1.0 - free / allowance);
                overrun_months += 1;
            }
        }
    }
    EstimatorEvaluation {
        months,
        free_capacity_used: if free_total > 0.0 { used / free_total } else { 0.0 },
        mean_overrun_days: if months > 0 { overrun_days / months as f64 } else { 0.0 },
        overrun_month_fraction: if months > 0 {
            overrun_months as f64 / months as f64
        } else {
            0.0
        },
    }
}

/// The allowance estimator run *live*: one device's rolling
/// free-capacity history plus the paper rule, advanced month by month
/// as simulated time passes inside the scenario engine (DESIGN.md §14).
/// The offline [`evaluate_estimator`] replays the same rule over
/// recorded histories; `LiveAllowance` is the closed loop — each month
/// boundary pushes the month's observed free capacity and the next
/// month's daily allowance comes from the refit window.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveAllowance {
    estimator: AllowanceEstimator,
    history: Vec<f64>,
}

impl LiveAllowance {
    /// Start with an initial history (most recent month last).
    pub fn new(estimator: AllowanceEstimator, initial_history: Vec<f64>) -> LiveAllowance {
        LiveAllowance { estimator, history: initial_history }
    }

    /// The monthly allowance the current window supports.
    pub fn monthly_allowance(&self) -> f64 {
        self.estimator.monthly_allowance(&self.history)
    }

    /// The daily allowance (monthly spread over 30 days) — what the
    /// scenario engine grants each device at every day boundary.
    pub fn daily_allowance(&self) -> f64 {
        self.estimator.daily_allowance(&self.history)
    }

    /// Close a month: record its observed free capacity; subsequent
    /// allowances come from the slid window.
    pub fn finish_month(&mut self, free_bytes: f64) {
        self.history.push(free_bytes);
    }

    /// The accrued history (most recent month last).
    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

/// Exposes the history-window length an estimator warms up over.
pub trait WindowTau {
    /// Months of history needed before the estimator is trusted.
    fn window_tau(&self) -> usize;
}

impl WindowTau for AllowanceEstimator {
    fn window_tau(&self) -> usize {
        self.tau
    }
}

impl WindowTau for QuantileEstimator {
    fn window_tau(&self) -> usize {
        self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1e6;

    #[test]
    fn paper_parameters() {
        let e = AllowanceEstimator::paper();
        assert_eq!(e.tau, 5);
        assert_eq!(e.alpha, 4.0);
    }

    #[test]
    fn stable_history_yields_full_mean_minus_guard() {
        let e = AllowanceEstimator::new(5, 4.0);
        // Perfectly stable free capacity: sd = 0, allowance = mean.
        let hist = vec![600.0 * MB; 5];
        assert_eq!(e.monthly_allowance(&hist), 600.0 * MB);
        assert_eq!(e.daily_allowance(&hist), 20.0 * MB);
    }

    #[test]
    fn variance_reduces_allowance() {
        let e = AllowanceEstimator::new(5, 4.0);
        let hist = vec![500.0 * MB, 700.0 * MB, 600.0 * MB, 550.0 * MB, 650.0 * MB];
        let a = e.monthly_allowance(&hist);
        assert!(a < 600.0 * MB);
        assert!(a > 0.0);
    }

    #[test]
    fn allowance_never_negative() {
        let e = AllowanceEstimator::new(5, 4.0);
        let hist = vec![0.0, 1000.0 * MB, 0.0, 1000.0 * MB, 0.0];
        assert_eq!(e.monthly_allowance(&hist), 0.0);
    }

    #[test]
    fn window_uses_only_last_tau() {
        let e = AllowanceEstimator::new(2, 0.0);
        let hist = vec![1.0, 1.0, 100.0, 200.0];
        assert_eq!(e.monthly_allowance(&hist), 150.0);
    }

    #[test]
    fn cold_start_is_conservative() {
        let e = AllowanceEstimator::new(5, 1.0);
        assert_eq!(e.monthly_allowance(&[]), 0.0);
        // One observation: mean = sd => allowance 0 with alpha >= 1.
        assert_eq!(e.monthly_allowance(&[500.0 * MB]), 0.0);
    }

    #[test]
    fn evaluation_on_stable_population() {
        let e = AllowanceEstimator::paper();
        let users: Vec<Vec<f64>> = (0..50).map(|u| vec![(300.0 + u as f64) * MB; 12]).collect();
        let ev = evaluate_estimator(&e, &users);
        assert_eq!(ev.months, 50 * 7);
        // Stable users: allowance = free every month, no overruns.
        assert!((ev.free_capacity_used - 1.0).abs() < 1e-9);
        assert_eq!(ev.mean_overrun_days, 0.0);
        assert_eq!(ev.overrun_month_fraction, 0.0);
    }

    #[test]
    fn evaluation_flags_overruns() {
        let e = AllowanceEstimator::new(3, 0.0); // no guard
                                                 // Free capacity collapses in the last month: the mean-based
                                                 // allowance overruns.
        let users = vec![vec![300.0 * MB, 300.0 * MB, 300.0 * MB, 0.0]];
        let ev = evaluate_estimator(&e, &users);
        assert_eq!(ev.months, 1);
        assert!(ev.mean_overrun_days > 29.0);
        assert_eq!(ev.overrun_month_fraction, 1.0);
    }

    #[test]
    fn live_allowance_slides_its_window() {
        let mut live = LiveAllowance::new(AllowanceEstimator::new(2, 0.0), vec![100.0, 200.0]);
        assert_eq!(live.monthly_allowance(), 150.0);
        assert_eq!(live.daily_allowance(), 5.0);
        live.finish_month(400.0);
        // Window is the last 2 months: (200 + 400) / 2.
        assert_eq!(live.monthly_allowance(), 300.0);
        assert_eq!(live.history(), &[100.0, 200.0, 400.0]);
        // The live loop matches the offline replay at every step.
        let est = AllowanceEstimator::paper();
        let series: Vec<f64> = (0..10).map(|m| (300.0 + 17.0 * (m % 4) as f64) * MB).collect();
        let mut live = LiveAllowance::new(est, series[..5].to_vec());
        for t in 5..series.len() {
            assert_eq!(live.monthly_allowance(), est.monthly_allowance(&series[..t]));
            live.finish_month(series[t]);
        }
    }

    #[test]
    fn quantile_estimator_is_conservative() {
        let e = QuantileEstimator::new(5, 0.0); // the window minimum
        let hist = vec![500.0 * MB, 700.0 * MB, 600.0 * MB, 550.0 * MB, 650.0 * MB];
        assert_eq!(FreeCapacityEstimator::monthly_allowance(&e, &hist), 500.0 * MB);
        let median = QuantileEstimator::new(5, 0.5);
        assert_eq!(FreeCapacityEstimator::monthly_allowance(&median, &hist), 600.0 * MB);
        assert_eq!(FreeCapacityEstimator::monthly_allowance(&e, &[]), 0.0);
        assert!(e.label().contains("P0"));
    }

    #[test]
    fn quantile_and_guard_estimators_both_evaluate() {
        let users: Vec<Vec<f64>> = (0..30)
            .map(|u| {
                (0..12).map(|m| (250.0 + ((u * 13 + m * 7) % 10) as f64 * 20.0) * MB).collect()
            })
            .collect();
        let guard = evaluate_estimator(&AllowanceEstimator::paper(), &users);
        let min_rule = evaluate_estimator(&QuantileEstimator::new(5, 0.0), &users);
        let median_rule = evaluate_estimator(&QuantileEstimator::new(5, 0.5), &users);
        assert_eq!(guard.months, min_rule.months);
        assert!(min_rule.free_capacity_used > 0.0);
        // Lower quantiles are more conservative than higher ones.
        assert!(min_rule.mean_overrun_days <= median_rule.mean_overrun_days + 1e-9);
        assert!(min_rule.free_capacity_used <= median_rule.free_capacity_used + 1e-9);
    }

    #[test]
    fn guard_trades_utilization_for_safety() {
        // Synthetic noisy population: larger alpha => fewer overruns,
        // lower utilization. This is the estimator's design intent.
        let mk_users = || -> Vec<Vec<f64>> {
            (0..40)
                .map(|u| {
                    (0..14)
                        .map(|m| {
                            let wob = ((u * 7 + m * 13) % 11) as f64 / 11.0;
                            (200.0 + 150.0 * wob) * MB
                        })
                        .collect()
                })
                .collect()
        };
        let loose = evaluate_estimator(&AllowanceEstimator::new(5, 0.0), &mk_users());
        let tight = evaluate_estimator(&AllowanceEstimator::new(5, 4.0), &mk_users());
        assert!(tight.mean_overrun_days <= loose.mean_overrun_days);
        assert!(tight.free_capacity_used <= loose.free_capacity_used);
    }
}
