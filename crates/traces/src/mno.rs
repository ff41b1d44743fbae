//! Synthetic MNO billing dataset (paper Table 1, "MNO": per-user
//! monthly data demand of ~1 M mobile-broadband customers).
//!
//! The §6 analyses only need the joint distribution of (cap, monthly
//! usage) and its month-to-month stability. The generator matches the
//! paper's Fig 10: **40 % of customers use less than 10 % of their
//! cap, 75 % use less than 50 %**, and the population average leaves
//! about 20 MB/day (~600 MB/month) of already-paid-for free volume per
//! device.

use threegol_simnet::dist::{lognormal_params, mix_seed};
use threegol_simnet::stats::Ecdf;
use threegol_simnet::SimRng;

/// Configuration of the MNO trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MnoConfig {
    /// Number of subscribers.
    pub n_users: usize,
    /// Months of history per subscriber.
    pub n_months: usize,
    /// Cap tiers in bytes with selection weights.
    pub cap_tiers: Vec<(f64, f64)>,
    /// Relative month-to-month noise on a user's usage (lognormal sd).
    pub monthly_noise_rel_sd: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MnoConfig {
    fn default() -> Self {
        const GB: f64 = 1e9;
        MnoConfig {
            n_users: 20_000,
            n_months: 12,
            cap_tiers: vec![
                (0.5 * GB, 0.20),
                (1.0 * GB, 0.30),
                (2.0 * GB, 0.30),
                (5.0 * GB, 0.15),
                (10.0 * GB, 0.05),
            ],
            monthly_noise_rel_sd: 0.25,
            seed: 0x3601,
        }
    }
}

/// One subscriber's billing history.
#[derive(Debug, Clone, PartialEq)]
pub struct UserBilling {
    /// Subscriber id.
    pub user_id: u64,
    /// Contracted monthly cap, bytes.
    pub cap_bytes: f64,
    /// Used volume per month, bytes (may exceed the cap).
    pub monthly_used_bytes: Vec<f64>,
}

impl UserBilling {
    /// Free (unused) volume per month, bytes.
    pub fn monthly_free_bytes(&self) -> Vec<f64> {
        self.monthly_used_bytes.iter().map(|u| (self.cap_bytes - u).max(0.0)).collect()
    }

    /// Fraction of cap used in the latest month.
    pub fn latest_used_fraction(&self) -> f64 {
        self.monthly_used_bytes.last().map(|u| u / self.cap_bytes).unwrap_or(0.0)
    }

    /// Used volume in the latest month, bytes (0 with no history).
    pub fn latest_used_bytes(&self) -> f64 {
        self.monthly_used_bytes.last().copied().unwrap_or(0.0)
    }

    /// Free volume in the latest month, bytes (0 with no history): the
    /// last entry of [`UserBilling::monthly_free_bytes`].
    pub fn latest_free_bytes(&self) -> f64 {
        self.monthly_used_bytes.last().map(|u| (self.cap_bytes - u).max(0.0)).unwrap_or(0.0)
    }
}

/// Mean of per-user values summed in the order given (0 for none) —
/// the population mean behind [`MnoTrace::mean_free_bytes`] and
/// [`MnoTrace::mean_used_bytes`], shared so a caller that gathers the
/// same per-user values piecewise, in user order, gets the same bits.
pub fn mean_per_user(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut users = 0usize;
    let total: f64 = values.into_iter().inspect(|_| users += 1).sum();
    total / users.max(1) as f64
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct MnoTrace {
    /// Subscribers.
    pub users: Vec<UserBilling>,
    /// The configuration that produced it.
    pub config: MnoConfig,
}

/// Quantile anchors of the usage-fraction distribution, chosen to
/// reproduce Fig 10: `(quantile, used_fraction)`.
///
/// 40 % of users below 0.10, 75 % below 0.50, ~3 % above the cap.
const USAGE_FRACTION_ANCHORS: &[(f64, f64)] =
    &[(0.00, 0.005), (0.40, 0.10), (0.75, 0.50), (0.97, 1.00), (1.00, 1.30)];

/// Sample a user's *base* used-cap fraction via the piecewise-linear
/// inverse CDF above.
fn sample_used_fraction(rng: &mut SimRng) -> f64 {
    let q = rng.uniform();
    let anchors = USAGE_FRACTION_ANCHORS;
    for w in anchors.windows(2) {
        let (q0, f0) = w[0];
        let (q1, f1) = w[1];
        if q <= q1 {
            return f0 + (f1 - f0) * (q - q0) / (q1 - q0);
        }
    }
    anchors.last().expect("non-empty").1
}

impl MnoTrace {
    /// One subscriber's billing history, seeded purely from
    /// `(config.seed, user)`: exactly `generate(config).users[user]`,
    /// bit for bit, without drawing anyone else.
    pub fn user(config: &MnoConfig, user: u64) -> UserBilling {
        let weight_sum: f64 = config.cap_tiers.iter().map(|(_, w)| w).sum();
        assert!(weight_sum > 0.0);
        let mut rng = SimRng::seed_from_u64(mix_seed(config.seed, user));
        // Cap tier by weighted choice.
        let mut pick = rng.uniform() * weight_sum;
        let mut cap = config.cap_tiers[0].0;
        for &(c, w) in &config.cap_tiers {
            if pick <= w {
                cap = c;
                break;
            }
            pick -= w;
        }
        // Stable per-user base fraction + monthly multiplicative noise.
        let base_fraction = sample_used_fraction(&mut rng);
        let noise_params = (config.monthly_noise_rel_sd > 0.0)
            .then(|| lognormal_params(1.0, config.monthly_noise_rel_sd));
        let monthly_used_bytes = (0..config.n_months)
            .map(|_| {
                let noise = match noise_params {
                    Some((mu, sigma)) => rng.lognormal(mu, sigma),
                    None => 1.0,
                };
                base_fraction * noise * cap
            })
            .collect();
        UserBilling { user_id: user, cap_bytes: cap, monthly_used_bytes }
    }

    /// Generate the dataset: [`MnoTrace::user`] for every subscriber.
    pub fn generate(config: MnoConfig) -> MnoTrace {
        assert!(!config.cap_tiers.is_empty());
        let users = (0..config.n_users as u64).map(|uid| MnoTrace::user(&config, uid)).collect();
        MnoTrace { users, config }
    }

    /// ECDF of the latest-month used-cap fraction (the paper's Fig 10).
    pub fn used_fraction_ecdf(&self) -> Ecdf {
        Ecdf::new(self.users.iter().map(|u| u.latest_used_fraction()).collect())
    }

    /// Mean free volume per user in the latest month, bytes (the
    /// paper's "on average … 20 MB per device per day" ≈ 600 MB/month).
    pub fn mean_free_bytes(&self) -> f64 {
        mean_per_user(self.users.iter().map(UserBilling::latest_free_bytes))
    }

    /// Mean *used* volume per user in the latest month, bytes (the
    /// existing cellular load in the Fig 11c adoption analysis).
    pub fn mean_used_bytes(&self) -> f64 {
        mean_per_user(self.users.iter().map(UserBilling::latest_used_bytes))
    }

    /// Per-user free-capacity series (input to the allowance estimator).
    pub fn free_series(&self) -> Vec<Vec<f64>> {
        self.users.iter().map(|u| u.monthly_free_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> MnoTrace {
        MnoTrace::generate(MnoConfig { n_users: 10_000, ..MnoConfig::default() })
    }

    #[test]
    fn fig10_quantiles_match_paper() {
        let ecdf = trace().used_fraction_ecdf();
        // "40% of customers use less than 10% of their cap."
        let p10 = ecdf.eval(0.10);
        assert!((p10 - 0.40).abs() < 0.05, "P(frac<=0.1) = {p10}");
        // "75% of customers use less than 50% of the cap."
        let p50 = ecdf.eval(0.50);
        assert!((p50 - 0.75).abs() < 0.05, "P(frac<=0.5) = {p50}");
    }

    #[test]
    fn some_users_exceed_cap() {
        let t = trace();
        let over = t.users.iter().filter(|u| u.latest_used_fraction() > 1.0).count() as f64
            / t.users.len() as f64;
        assert!(over > 0.005 && over < 0.12, "overage fraction {over}");
    }

    #[test]
    fn mean_free_volume_near_600mb() {
        let free = trace().mean_free_bytes();
        // The paper works with ~20 MB/day ≈ 600 MB/month of free volume.
        assert!(free > 400e6 && free < 2.5e9, "mean free volume {free} out of plausible range");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = trace();
        let b = trace();
        assert_eq!(a.users[17], b.users[17]);
        assert_eq!(a.users.len(), b.users.len());
    }

    #[test]
    fn user_matches_generate_bitwise() {
        let config = MnoConfig { n_users: 300, n_months: 18, ..MnoConfig::default() };
        let t = MnoTrace::generate(config.clone());
        for (uid, batch) in t.users.iter().enumerate() {
            let alone = MnoTrace::user(&config, uid as u64);
            assert_eq!(alone.user_id, batch.user_id);
            assert_eq!(alone.cap_bytes.to_bits(), batch.cap_bytes.to_bits(), "user {uid}");
            let bits = |u: &UserBilling| -> Vec<u64> {
                u.monthly_used_bytes.iter().map(|b| b.to_bits()).collect()
            };
            assert_eq!(bits(&alone), bits(batch), "user {uid}");
            let free = batch.monthly_free_bytes();
            assert_eq!(batch.latest_free_bytes().to_bits(), free[free.len() - 1].to_bits());
        }
        // With no monthly noise the usage is the base fraction alone.
        let flat = MnoConfig { n_users: 4, monthly_noise_rel_sd: 0.0, ..MnoConfig::default() };
        let u = MnoTrace::user(&flat, 3);
        assert!(u.monthly_used_bytes.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(u, MnoTrace::generate(flat).users[3]);
    }

    #[test]
    fn monthly_series_are_correlated_within_user() {
        // A user's months should hover around their base fraction —
        // the property the allowance estimator relies on.
        let t = trace();
        let mut high_cv = 0;
        for u in t.users.iter().take(500) {
            let mean = u.monthly_used_bytes.iter().sum::<f64>() / u.monthly_used_bytes.len() as f64;
            if mean <= 0.0 {
                continue;
            }
            let var = u.monthly_used_bytes.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                / (u.monthly_used_bytes.len() - 1) as f64;
            if var.sqrt() / mean > 0.6 {
                high_cv += 1;
            }
        }
        assert!(high_cv < 25, "too many wildly unstable users: {high_cv}");
    }

    #[test]
    fn free_series_shape() {
        let t = MnoTrace::generate(MnoConfig { n_users: 10, n_months: 7, ..MnoConfig::default() });
        let fs = t.free_series();
        assert_eq!(fs.len(), 10);
        assert!(fs.iter().all(|s| s.len() == 7));
        assert!(fs.iter().flatten().all(|&f| f >= 0.0));
    }
}
