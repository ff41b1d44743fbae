//! # threegol-caps
//!
//! Volume-cap handling for multi-provider 3GOL (paper §6).
//!
//! When the wired and cellular operators differ, 3GOL must respect each
//! device's monthly data cap. This crate implements:
//!
//! * [`AllowanceEstimator`] — the paper's safe-allowance rule
//!   `3GOLa(t) = F̄u(t) − α·σ̄u(t)` over the last `τ` months of free
//!   (unused) capacity, with the paper's parameters τ = 5, α = 4;
//! * [`QuotaTracker`] — per-device usage tracking `U(t)` and the
//!   available quota `A(t) = 3GOLa(t) − U(t)`; a device advertises
//!   itself to the admissible set Φ only while `A(t) > 0`;
//! * [`AdmissibleSet`] — the client-side set Φ of devices currently
//!   advertising;
//! * [`evaluate_estimator`] — the §6 evaluation: the fraction of
//!   available free capacity the estimator lets 3GOL use, and the
//!   expected cap-overrun time per month; [`EstimatorTally`] runs it
//!   for several rules in one pass and merges across user shards.

pub mod allowance;
pub mod quota;

pub use allowance::{
    evaluate_estimator, AllowanceEstimator, EstimatorEvaluation, EstimatorTally,
    FreeCapacityEstimator, LiveAllowance, QuantileEstimator,
};
pub use quota::{AdmissibleSet, MonthlyUsage, QuotaTracker};
