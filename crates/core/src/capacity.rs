//! The §2.1 back-of-the-envelope capacity comparison.
//!
//! "If we assume that one cellular tower provides coverage to an area
//! of 200 meters radius, and a typical population density of 35000
//! inhabitants per km², then each cell offers services to 4375
//! subscribers. If we assume that each household has 4 people and that
//! we have 80% penetration of ADSL connectivity, then each cell covers
//! 875 ADSL connections. […] the overall ADSL downlink capacity for
//! the cell area would be 5.863 Gbps. The same area is covered by a
//! cell tower with a typical 40−50 Mbps backhaul."

use threegol_radio::consts;

/// Inputs to the back-of-the-envelope comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    /// Cell coverage radius, meters.
    pub cell_radius_m: f64,
    /// Population density, inhabitants per km².
    pub pop_density_per_km2: f64,
    /// People per household.
    pub household_size: f64,
    /// Fraction of households with ADSL.
    pub adsl_penetration: f64,
    /// Average ADSL downlink per line, bits/s.
    pub adsl_avg_dl_bps: f64,
    /// Cell backhaul capacity, bits/s.
    pub cell_backhaul_bps: f64,
    /// ADSL uplink/downlink asymmetry (paper: "1/10 asymmetry").
    pub adsl_ul_dl_ratio: f64,
}

impl CapacityModel {
    /// The paper's §2.1 parameters.
    pub fn paper() -> CapacityModel {
        CapacityModel {
            cell_radius_m: consts::CELL_RADIUS_M,
            pop_density_per_km2: consts::POP_DENSITY_PER_KM2,
            household_size: consts::HOUSEHOLD_SIZE,
            adsl_penetration: consts::ADSL_PENETRATION,
            adsl_avg_dl_bps: consts::ADSL_AVG_DL_BPS,
            cell_backhaul_bps: consts::CELL_BACKHAUL_BPS,
            adsl_ul_dl_ratio: 0.1,
        }
    }

    /// Coverage area of the cell, km².
    pub fn cell_area_km2(&self) -> f64 {
        std::f64::consts::PI * (self.cell_radius_m / 1000.0).powi(2)
    }

    /// Subscribers (people) in the cell area.
    pub fn subscribers(&self) -> f64 {
        self.cell_area_km2() * self.pop_density_per_km2
    }

    /// ADSL lines in the cell area.
    pub fn adsl_lines(&self) -> f64 {
        self.subscribers() / self.household_size * self.adsl_penetration
    }

    /// Aggregate ADSL downlink capacity in the area, bits/s.
    pub fn adsl_aggregate_dl_bps(&self) -> f64 {
        self.adsl_lines() * self.adsl_avg_dl_bps
    }

    /// Aggregate ADSL uplink capacity in the area, bits/s.
    pub fn adsl_aggregate_ul_bps(&self) -> f64 {
        self.adsl_aggregate_dl_bps() * self.adsl_ul_dl_ratio
    }

    /// Wired/cellular downlink capacity ratio (the "1–2 orders of
    /// magnitude").
    pub fn dl_ratio(&self) -> f64 {
        self.adsl_aggregate_dl_bps() / self.cell_backhaul_bps
    }

    /// Wired/cellular uplink capacity ratio (smaller, because of ADSL's
    /// uplink asymmetry).
    pub fn ul_ratio(&self) -> f64 {
        self.adsl_aggregate_ul_bps() / self.cell_backhaul_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduced() {
        let m = CapacityModel::paper();
        // "each cell offers services to 4375 subscribers" (the paper
        // rounds; the exact area computation gives ~4398).
        assert!((m.subscribers() - 4375.0).abs() < 50.0, "{}", m.subscribers());
        // "each cell covers 875 ADSL connections"
        assert!((m.adsl_lines() - 875.0).abs() < 10.0, "{}", m.adsl_lines());
        // "the overall ADSL downlink capacity … would be 5.863 Gbps"
        assert!(
            (m.adsl_aggregate_dl_bps() / 5.863e9 - 1.0).abs() < 0.02,
            "{}",
            m.adsl_aggregate_dl_bps()
        );
    }

    #[test]
    fn wired_exceeds_cellular_by_one_to_two_orders() {
        let m = CapacityModel::paper();
        let r = m.dl_ratio();
        assert!((10.0..=1000.0).contains(&r), "ratio {r}");
        // With the paper's numbers specifically, ~147×.
        assert!((r - 147.0).abs() < 10.0, "ratio {r}");
    }

    #[test]
    fn uplink_gap_is_smaller() {
        let m = CapacityModel::paper();
        assert!(m.ul_ratio() < m.dl_ratio());
        assert!((m.ul_ratio() - m.dl_ratio() * 0.1).abs() < 1e-9);
    }
}
