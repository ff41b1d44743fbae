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

    /// An empty one-rule [`EstimatorTally`] of this estimator: what
    /// [`evaluate_estimator`] folds a population through.
    fn tally(&self) -> EstimatorTally;
}

/// The last `tau` months of a history (all of it if shorter).
fn last_window(free_history_bytes: &[f64], tau: usize) -> &[f64] {
    &free_history_bytes[free_history_bytes.len().saturating_sub(tau)..]
}

/// Mean and sample standard deviation of a non-empty window. With one
/// month of history the sd is the mean itself: be conservative, treat
/// the whole observation as uncertainty.
fn window_mean_sd(window: &[f64]) -> (f64, f64) {
    let n = window.len() as f64;
    let mean = window.iter().sum::<f64>() / n;
    let sd = if window.len() > 1 {
        (window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    } else {
        mean
    };
    (mean, sd)
}

/// The mean-minus-guard allowance `F̄ − α·σ̄`, never negative.
fn guard_allowance(mean: f64, sd: f64, alpha: f64) -> f64 {
    (mean - alpha * sd).max(0.0)
}

/// The `q`-quantile of a non-empty ascending window, linearly
/// interpolated, never negative.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let w = pos - lo as f64;
    (sorted[lo] * (1.0 - w) + sorted[hi] * w).max(0.0)
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
        let (mean, sd) = window_mean_sd(last_window(free_history_bytes, self.tau));
        guard_allowance(mean, sd, self.alpha)
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

    fn tally(&self) -> EstimatorTally {
        EstimatorTally::new(self.tau, &[self.alpha], &[])
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
        let mut sorted = last_window(free_history_bytes, self.tau).to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted_quantile(&sorted, self.q)
    }

    fn label(&self) -> String {
        format!("P{:.0} (τ={})", self.q * 100.0, self.tau)
    }

    fn tally(&self) -> EstimatorTally {
        EstimatorTally::new(self.tau, &[], &[self.q])
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

/// One rule's running §6 sums inside an [`EstimatorTally`].
#[derive(Debug, Clone, Copy, Default)]
struct RuleTally {
    /// `Σ min(allowance, free)`.
    used: f64,
    /// Σ over-cap days.
    overrun_days: f64,
    /// User-months with any overrun.
    overrun_months: usize,
}

impl RuleTally {
    /// Score one user-month: the rule granted `allowance`, `free` was
    /// actually free.
    fn add(&mut self, allowance: f64, free: f64) {
        self.used += allowance.min(free);
        if allowance > free && allowance > 0.0 {
            self.overrun_days += 30.0 * (1.0 - free / allowance);
            self.overrun_months += 1;
        }
    }
}

/// The §6 evaluation of several allowance rules sharing one τ-month
/// window, fused into one pass per user-month: the window's mean and
/// sd are computed once for every mean-minus-guard rule (one per α)
/// and the window is sorted once for every quantile rule. Each rule's
/// sums take the same operands in the same order as a one-rule tally,
/// so a fused rule evaluates bit for bit like
/// [`evaluate_estimator`] on that rule alone.
///
/// Tallies of disjoint user sets [`merge`](EstimatorTally::merge):
/// the month counts add exactly; the f64 sums add as partial sums, so
/// they may differ from one running sum over the union in the last
/// bits.
#[derive(Debug, Clone)]
pub struct EstimatorTally {
    tau: usize,
    alphas: Vec<f64>,
    quantiles: Vec<f64>,
    /// User-months evaluated (those with a full window).
    months: usize,
    /// `Σ free` over the evaluated months.
    free_total: f64,
    /// One per rule: the α rules, then the quantile rules.
    rules: Vec<RuleTally>,
    /// The current window, sorted for the quantile rules; reused
    /// across months so the pass allocates nothing per month.
    sorted: Vec<f64>,
}

impl EstimatorTally {
    /// An empty tally of the mean-minus-guard rules `alphas` and the
    /// quantile rules `quantiles`, all over the last `tau` months.
    pub fn new(tau: usize, alphas: &[f64], quantiles: &[f64]) -> EstimatorTally {
        assert!(tau >= 1, "window must cover at least one month");
        assert!(alphas.iter().all(|&a| a >= 0.0));
        assert!(quantiles.iter().all(|q| (0.0..=1.0).contains(q)));
        EstimatorTally {
            tau,
            alphas: alphas.to_vec(),
            quantiles: quantiles.to_vec(),
            months: 0,
            free_total: 0.0,
            rules: vec![RuleTally::default(); alphas.len() + quantiles.len()],
            sorted: Vec::with_capacity(tau),
        }
    }

    /// Roll every rule over one user's monthly free-capacity series:
    /// the allowance of month `t` comes from months `t−τ … t−1` and is
    /// scored against the volume actually free in month `t`. A series
    /// no longer than τ contributes nothing.
    pub fn add_series(&mut self, free_by_month: &[f64]) {
        let (guards, quantiles) = self.rules.split_at_mut(self.alphas.len());
        for t in self.tau.min(free_by_month.len())..free_by_month.len() {
            let window = &free_by_month[t - self.tau..t];
            let free = free_by_month[t];
            self.months += 1;
            self.free_total += free;
            if !guards.is_empty() {
                let (mean, sd) = window_mean_sd(window);
                for (rule, &alpha) in guards.iter_mut().zip(&self.alphas) {
                    rule.add(guard_allowance(mean, sd, alpha), free);
                }
            }
            if !quantiles.is_empty() {
                self.sorted.clear();
                self.sorted.extend_from_slice(window);
                self.sorted.sort_by(|a, b| a.total_cmp(b));
                for (rule, &q) in quantiles.iter_mut().zip(&self.quantiles) {
                    rule.add(sorted_quantile(&self.sorted, q), free);
                }
            }
        }
    }

    /// Add the tally of a disjoint set of users (same rules and τ).
    pub fn merge(&mut self, other: &EstimatorTally) {
        assert!(
            self.tau == other.tau
                && self.alphas == other.alphas
                && self.quantiles == other.quantiles,
            "merged tallies must evaluate the same rules"
        );
        self.months += other.months;
        self.free_total += other.free_total;
        for (rule, o) in self.rules.iter_mut().zip(&other.rules) {
            rule.used += o.used;
            rule.overrun_days += o.overrun_days;
            rule.overrun_months += o.overrun_months;
        }
    }

    /// The evaluation of every rule: the α rules in the order given,
    /// then the quantile rules.
    pub fn evaluations(&self) -> Vec<EstimatorEvaluation> {
        let months = self.months;
        let per_month = |x: f64| if months > 0 { x / months as f64 } else { 0.0 };
        self.rules
            .iter()
            .map(|rule| EstimatorEvaluation {
                months,
                free_capacity_used: if self.free_total > 0.0 {
                    rule.used / self.free_total
                } else {
                    0.0
                },
                mean_overrun_days: per_month(rule.overrun_days),
                overrun_month_fraction: per_month(rule.overrun_months as f64),
            })
            .collect()
    }
}

/// Run the §6 evaluation: for every user, roll the estimator over their
/// monthly free-capacity series and compare the allowance of month `t`
/// against the volume that was actually free in month `t` — a
/// one-rule [`EstimatorTally`] over the population.
///
/// Overrun model: the allowance is consumed uniformly over a 30-day
/// month, so if the allowance `a` exceeds the actually free volume `f`,
/// the user's cap is exhausted after `30·f/a` days and the remaining
/// `30·(1 − f/a)` days are over cap.
pub fn evaluate_estimator<E: FreeCapacityEstimator>(
    est: &E,
    users_free_by_month: &[Vec<f64>],
) -> EstimatorEvaluation {
    let mut tally = est.tally();
    for series in users_free_by_month {
        tally.add_series(series);
    }
    tally.evaluations()[0]
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The §6 evaluation as a plain loop over the public per-call
    /// allowance — the path [`LiveAllowance`] takes — for the tally
    /// to be checked against.
    fn rolled<E: FreeCapacityEstimator>(est: &E, tau: usize, users: &[Vec<f64>]) -> [u64; 4] {
        let (mut months, mut used, mut free_total, mut overrun_days, mut overrun_months) =
            (0usize, 0.0, 0.0, 0.0, 0usize);
        for series in users.iter().filter(|s| s.len() > tau) {
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
        let ev = EstimatorEvaluation {
            months,
            free_capacity_used: if free_total > 0.0 { used / free_total } else { 0.0 },
            mean_overrun_days: if months > 0 { overrun_days / months as f64 } else { 0.0 },
            overrun_month_fraction: if months > 0 {
                overrun_months as f64 / months as f64
            } else {
                0.0
            },
        };
        bits(&ev)
    }

    fn bits(ev: &EstimatorEvaluation) -> [u64; 4] {
        [
            ev.months as u64,
            ev.free_capacity_used.to_bits(),
            ev.mean_overrun_days.to_bits(),
            ev.overrun_month_fraction.to_bits(),
        ]
    }

    /// The two windows the property covers: τ = 1 and the paper's 5.
    fn tau() -> impl Strategy<Value = usize> {
        (0u8..2).prop_map(|wide| if wide == 1 { 5 } else { 1 })
    }

    /// Monthly free volumes: mostly a spread of sizes, with exact
    /// zeros (a month used up to the cap) mixed in.
    fn population() -> impl Strategy<Value = Vec<Vec<f64>>> {
        let month = (0u8..5, 0.0f64..2e9).prop_map(|(k, x)| if k == 0 { 0.0 } else { x });
        proptest::collection::vec(proptest::collection::vec(month, 0..=24), 0..8)
    }

    const ALPHAS: [f64; 3] = [0.0, 4.0, 8.0];
    const QUANTILES: [f64; 3] = [0.0, 0.25, 0.5];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn fused_tally_matches_each_rule_alone(users in population(), tau in tau()) {
            let mut fused = EstimatorTally::new(tau, &ALPHAS, &QUANTILES);
            for series in &users {
                fused.add_series(series);
            }
            let fused = fused.evaluations();
            prop_assert_eq!(fused.len(), ALPHAS.len() + QUANTILES.len());
            for (i, &alpha) in ALPHAS.iter().enumerate() {
                let est = AllowanceEstimator::new(tau, alpha);
                let alone = evaluate_estimator(&est, &users);
                prop_assert_eq!(bits(&fused[i]), bits(&alone), "tau {} alpha {}", tau, alpha);
                prop_assert_eq!(bits(&alone), rolled(&est, tau, &users), "tau {} alpha {}", tau, alpha);
            }
            for (i, &q) in QUANTILES.iter().enumerate() {
                let est = QuantileEstimator::new(tau, q);
                let alone = evaluate_estimator(&est, &users);
                let f = &fused[ALPHAS.len() + i];
                prop_assert_eq!(bits(f), bits(&alone), "tau {} q {}", tau, q);
                prop_assert_eq!(bits(&alone), rolled(&est, tau, &users), "tau {} q {}", tau, q);
            }
        }

        #[test]
        fn merged_tallies_add_their_counts_exactly(
            users in population(),
            tau in tau(),
            cut in 0usize..8,
        ) {
            let cut = cut.min(users.len());
            let tally = |part: &[Vec<f64>]| {
                let mut t = EstimatorTally::new(tau, &ALPHAS, &QUANTILES);
                for series in part {
                    t.add_series(series);
                }
                t
            };
            let whole = tally(&users);
            let (head, tail) = (tally(&users[..cut]), tally(&users[cut..]));
            let mut merged = head.clone();
            merged.merge(&tail);
            prop_assert_eq!(merged.months, head.months + tail.months);
            prop_assert_eq!(merged.months, whole.months);
            for ((m, w), (h, t)) in
                merged.rules.iter().zip(&whole.rules).zip(head.rules.iter().zip(&tail.rules))
            {
                prop_assert_eq!(m.overrun_months, h.overrun_months + t.overrun_months);
                prop_assert_eq!(m.overrun_months, w.overrun_months);
                prop_assert!((m.used - w.used).abs() <= 1e-9 * w.used.abs().max(1.0));
                prop_assert!(
                    (m.overrun_days - w.overrun_days).abs() <= 1e-9 * w.overrun_days.max(1.0)
                );
            }
            prop_assert!(
                (merged.free_total - whole.free_total).abs() <= 1e-9 * whole.free_total.max(1.0)
            );
        }
    }
}
