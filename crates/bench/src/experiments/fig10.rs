//! Fig 10: CDF of the fraction of the contracted monthly cap that
//! subscribers actually use (the MNO dataset).

use threegol_simnet::stats::Ecdf;
use threegol_traces::mno::{mean_per_user, MnoConfig, MnoTrace};

use crate::experiment::{Experiment, Scale};
use crate::util::{subscriber_ranges, Report, Subscribers};

/// The Fig 10 cap-usage-CDF experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig10;

/// One unit's subscribers' latest billing month, in id order.
#[derive(Debug, Clone, Default)]
pub struct LatestMonth {
    /// Fraction of the cap used.
    pub used_fraction: Vec<f64>,
    /// Free volume, bytes.
    pub free_bytes: Vec<f64>,
}

impl Experiment for Fig10 {
    type Unit = Subscribers;
    type Partial = LatestMonth;

    fn id(&self) -> &'static str {
        "fig10"
    }

    fn paper_artifact(&self) -> &'static str {
        "Figure 10"
    }

    fn units(&self, scale: Scale) -> Vec<Subscribers> {
        subscriber_ranges(((20_000.0 * scale.get()) as usize).max(2_000))
    }

    fn run_unit(&self, unit: &Subscribers) -> LatestMonth {
        let config = MnoConfig { n_users: unit.population, ..MnoConfig::default() };
        let mut month = LatestMonth::default();
        for uid in unit.ids.clone() {
            let user = MnoTrace::user(&config, uid as u64);
            month.used_fraction.push(user.latest_used_fraction());
            month.free_bytes.push(user.latest_free_bytes());
        }
        month
    }

    /// Concatenates the units' per-user values in user order: the same
    /// ECDF and the same mean, bit for bit, as one whole-trace pass.
    fn merge(&self, _scale: Scale, partials: Vec<LatestMonth>) -> Report {
        let ecdf =
            Ecdf::new(partials.iter().flat_map(|p| p.used_fraction.iter().copied()).collect());
        let rows = (0..=20).map(|i| {
            let x = i as f64 * 0.05;
            vec![format!("{x:.2}"), format!("{:.3}", ecdf.eval(x))]
        });
        let p10 = ecdf.eval(0.10);
        let p50 = ecdf.eval(0.50);
        let mean_free_mb =
            mean_per_user(partials.iter().flat_map(|p| p.free_bytes.iter().copied())) / 1e6;
        Report::new(self.id(), "Fig 10: CDF of the fraction of used cap (MNO dataset)")
            .headers(&["used fraction", "CDF"])
            .rows(rows)
            .check(
                "light users",
                "40 % of customers use less than 10 % of their cap",
                format!("P(frac ≤ 0.1) = {p10:.2}"),
                (p10 - 0.40).abs() < 0.05,
            )
            .check(
                "moderate users",
                "75 % of customers use less than 50 % of the cap",
                format!("P(frac ≤ 0.5) = {p50:.2}"),
                (p50 - 0.75).abs() < 0.05,
            )
            .check(
                "spare volume",
                "~20 MB/device/day (≈600 MB/month) of free volume on average",
                format!("mean free volume {mean_free_mb:.0} MB/month"),
                mean_free_mb > 300.0 && mean_free_mb < 2500.0,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig10_cdf_matches() {
        let r = Fig10.run_serial(Scale::new(0.5).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
