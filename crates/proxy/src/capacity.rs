//! A home's 3G capacity: one per-phone rate curve over the day.
//!
//! The paper's prototype treats each phone's 3G bearer as a private
//! pipe; §6 asks what happens when thousands of homes onload onto the
//! *shared* cells of a city. Both are the same data here: a
//! [`CellProfile`] holds 24 hourly per-phone rates, and
//! [`Home::run`](crate::Home::run) samples it at the home's hour. A
//! private pipe is a flat curve on [`NO_CELL`]; a share of a shared
//! cell is that cell's curve.
//!
//! A profile is plain `Copy` data on purpose: a
//! [`HomeSpec`](crate::HomeSpec) must stay a stack-built pure function
//! of the home index for the streamed fleet, so it carries no handles,
//! no `Arc`s, and no references — a cell's diurnal share curve is
//! computed *outside* the fleet pass (by `threegol-radio`'s cell map)
//! and fed back in on the next pass. The fleet never shares mutable
//! state across homes; the coupling lives entirely in this data.

use crate::throttle::RateLimit;

/// The cell of private 3G — each phone owns its pipe and no cell is
/// shared: the all-ones sentinel, never a valid cell. Private rates
/// ignore the hour of day.
///
/// ```
/// use threegol_proxy::{CellProfile, NO_CELL};
/// let private = CellProfile::flat(NO_CELL, 2e6, 1e6);
/// for hour in [0.0, 7.5, 19.0, 23.9] {
///     let (down, up) = private.phone_limits(hour);
///     assert_eq!((down.rate_bps, up.rate_bps), (2e6, 1e6));
/// }
/// assert_eq!(private.cell, NO_CELL);
/// ```
pub const NO_CELL: u32 = u32::MAX;

/// A phone's 3G rates as a diurnal curve: 24 hourly downlink/uplink
/// rates. For a shared cell they are a per-phone share computed from
/// the cell's capacity, its background load (`threegol-radio`'s
/// availability profile) and the 3GOL load the fleet itself put on the
/// cell in the previous pass; for private 3G ([`NO_CELL`]) they are
/// flat.
///
/// Rates are sampled at the *whole* hour (no interpolation): the fleet
/// digest buckets onloaded bytes per `(cell, hour)`, and the feedback
/// algebra stays exact when a home's whole workload runs under one
/// hourly rate.
///
/// ```
/// use threegol_proxy::CellProfile;
/// let share = CellProfile::flat(3, 1.5e6, 0.8e6);
/// assert_eq!(share.cell, 3);
/// let (down, _up) = share.phone_limits(21.9);
/// assert_eq!(down.rate_bps, 1.5e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellProfile {
    /// The cell the phones draw from, or [`NO_CELL`] for private 3G.
    pub cell: u32,
    /// Per-phone downlink by hour of day, bits/s (all > 0).
    pub down_bps: [f64; 24],
    /// Per-phone uplink by hour of day, bits/s (all > 0).
    pub up_bps: [f64; 24],
}

impl CellProfile {
    /// A curve that does not vary with the hour: private 3G on
    /// [`NO_CELL`], and a starting point for a shared cell.
    pub fn flat(cell: u32, down_bps: f64, up_bps: f64) -> CellProfile {
        CellProfile { cell, down_bps: [down_bps; 24], up_bps: [up_bps; 24] }
    }

    /// Per-phone downlink and uplink limits at hour-of-day `hour`
    /// (`[0, 24)`, wrapped otherwise), sampled at the whole hour.
    pub fn phone_limits(&self, hour: f64) -> (RateLimit, RateLimit) {
        let h = hour.rem_euclid(24.0).floor() as usize % 24;
        (RateLimit::new(self.down_bps[h]), RateLimit::new(self.up_bps[h]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_ignores_the_hour() {
        let g3 = CellProfile::flat(NO_CELL, 2e6, 1e6);
        for hour in [0.0, 11.5, 23.99, -3.0, 36.0] {
            let (down, up) = g3.phone_limits(hour);
            assert_eq!(down, RateLimit::new(2e6));
            assert_eq!(up, RateLimit::new(1e6));
        }
    }

    #[test]
    fn cell_profile_samples_whole_hours() {
        let mut g3 = CellProfile::flat(7, 1e6, 5e5);
        g3.down_bps[19] = 4e5;
        assert_eq!(g3.phone_limits(19.0).0, RateLimit::new(4e5));
        assert_eq!(g3.phone_limits(19.999).0, RateLimit::new(4e5));
        assert_eq!(g3.phone_limits(20.0).0, RateLimit::new(1e6));
        // Hours wrap: 43 ≡ 19, −5 ≡ 19.
        assert_eq!(g3.phone_limits(43.0).0, RateLimit::new(4e5));
        assert_eq!(g3.phone_limits(-5.0).0, RateLimit::new(4e5));
    }

    #[test]
    fn sources_are_copy_and_comparable() {
        let a = CellProfile::flat(1, 1e6, 5e5);
        let b = a; // Copy
        assert_eq!(a, b);
        assert_ne!(a, CellProfile::flat(NO_CELL, 1e6, 5e5));
    }
}
