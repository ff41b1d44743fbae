//! §6's allowance estimator evaluation: rolling
//! `3GOLa(t) = F̄u(t) − α·σ̄u(t)` over the MNO trace, sweeping the
//! guard α. The paper: "using τ = 5 and choosing α = 4 allows around
//! 65 % of the available free capacity to be used by 3GOL with
//! expected overrun time of under 1 day per month".

use threegol_caps::EstimatorTally;
use threegol_traces::mno::{MnoConfig, MnoTrace};

use crate::experiment::{Experiment, Scale};
use crate::util::{subscriber_ranges, Report, Subscribers};

/// The §6 allowance-estimator experiment.
#[derive(Debug, Clone, Copy)]
pub struct Est06;

/// History window of every rule, months (the paper's τ).
const TAU: usize = 5;
/// The guards α of the mean-minus-guard rules, one row each.
const ALPHAS: [f64; 6] = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0];
/// The quantile rules compared against them (P0 = window minimum).
const QUANTILES: [f64; 2] = [0.0, 0.25];

impl Experiment for Est06 {
    /// A subscriber range: every rule is evaluated over it in one
    /// fused pass, each user's 18 months drawn once for all eight.
    type Unit = Subscribers;
    type Partial = EstimatorTally;

    fn id(&self) -> &'static str {
        "est06"
    }

    fn paper_artifact(&self) -> &'static str {
        "§6 allowance estimator"
    }

    fn units(&self, scale: Scale) -> Vec<Subscribers> {
        subscriber_ranges(((20_000.0 * scale.get()) as usize).max(2_000))
    }

    fn run_unit(&self, unit: &Subscribers) -> EstimatorTally {
        let config = MnoConfig { n_users: unit.population, n_months: 18, ..MnoConfig::default() };
        let mut tally = EstimatorTally::new(TAU, &ALPHAS, &QUANTILES);
        for uid in unit.ids.clone() {
            tally.add_series(&MnoTrace::user(&config, uid as u64).monthly_free_bytes());
        }
        tally
    }

    /// Merges the units' tallies in unit order. The split is a
    /// constant, so the report does not depend on the worker count.
    fn merge(&self, _scale: Scale, partials: Vec<EstimatorTally>) -> Report {
        let tally = partials
            .into_iter()
            .reduce(|mut tally, partial| {
                tally.merge(&partial);
                tally
            })
            .expect("at least one unit");
        // One evaluation per rule: the α rules, then the quantile rules.
        let evaluations = tally.evaluations();
        let labels = ALPHAS.iter().map(|alpha| format!("{alpha:.0}"));
        let labels = labels.chain(QUANTILES.iter().map(|q| format!("P{:.0}", q * 100.0)));
        let rows = labels.zip(&evaluations).map(|(label, ev)| {
            vec![
                label,
                format!("{:.1}%", ev.free_capacity_used * 100.0),
                format!("{:.2}", ev.mean_overrun_days),
                format!("{:.1}%", ev.overrun_month_fraction * 100.0),
            ]
        });
        let paper = ALPHAS.iter().position(|&alpha| alpha == 4.0).expect("alpha=4 evaluated");
        let ev = evaluations[paper];
        Report::new(self.id(), "§6 allowance estimator: guard sweep (τ = 5)")
            .headers(&[
                "rule (α or quantile)",
                "free capacity used",
                "overrun days/month",
                "months with overrun",
            ])
            .rows(rows)
            .check(
                "utilization at τ=5, α=4",
                "~65 % of available free capacity usable",
                format!("{:.0}%", ev.free_capacity_used * 100.0),
                ev.free_capacity_used > 0.45 && ev.free_capacity_used < 0.85,
            )
            .check(
                "overrun at τ=5, α=4",
                "expected overrun under 1 day per month",
                format!("{:.2} days/month", ev.mean_overrun_days),
                ev.mean_overrun_days < 1.0,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn estimator_matches_paper_point() {
        let r = Est06.run_serial(Scale::new(0.25).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
