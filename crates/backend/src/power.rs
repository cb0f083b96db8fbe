//! Power-density model (paper Fig. 5).
//!
//! Unrestricted PUM datapaths scale power density with the number of
//! simultaneously active memory arrays, and several exceed safe air-cooling
//! limits well before full activation — the reason the MPU's RF holder
//! abstraction exists. This module reproduces the Fig. 5 sweep: power
//! density (W/cm²) versus active arrays per unit area, for the evaluated
//! datapaths plus FloatPIM (included in the paper's figure), against the
//! air-cooling limit.

use crate::datapath::DatapathModel;

/// Safe air-cooling limit used by the scheduler, W/cm² (Huang et al.,
/// SEMI-THERM 2010, the paper's reference [44]).
pub const AIR_COOLING_LIMIT_W_PER_CM2: f64 = 100.0;

/// One point of the Fig. 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDensityPoint {
    /// Number of simultaneously active arrays (VRFs) in one RFH footprint.
    pub active_arrays: usize,
    /// Resulting power density, W/cm².
    pub w_per_cm2: f64,
}

/// Power density of `active` simultaneously active VRFs packed into one
/// RF holder's footprint of `datapath`.
pub fn power_density_w_per_cm2(datapath: &DatapathModel, active: usize) -> f64 {
    let g = datapath.geometry();
    let footprint_mm2 = datapath.vrf_area_mm2() * g.vrfs_per_rfh as f64;
    let idle = g.vrfs_per_rfh.saturating_sub(active);
    let power_mw = active as f64 * datapath.active_power_mw_per_vrf()
        + idle as f64 * datapath.static_power_mw_per_vrf();
    // mW / mm² == W/cm² * 10; convert: 1 mW/mm² = 0.1 W/cm²... careful:
    // 1 W/cm² = 1000 mW / 100 mm² = 10 mW/mm². So W/cm² = (mW/mm²)/10.
    (power_mw / footprint_mm2) / 10.0
}

/// The largest number of active VRFs per RFH that stays under the
/// air-cooling limit — how the designer picks
/// [`crate::Geometry::active_vrfs_per_rfh`].
pub fn thermal_active_limit(datapath: &DatapathModel) -> usize {
    let g = datapath.geometry();
    let mut limit = 0;
    for active in 1..=g.vrfs_per_rfh {
        if power_density_w_per_cm2(datapath, active) > AIR_COOLING_LIMIT_W_PER_CM2 {
            break;
        }
        limit = active;
    }
    limit.max(1)
}

/// Sweeps active-array counts for Fig. 5.
pub fn fig5_sweep(datapath: &DatapathModel) -> Vec<PowerDensityPoint> {
    let g = datapath.geometry();
    (1..=g.vrfs_per_rfh)
        .map(|active_arrays| PowerDensityPoint {
            active_arrays,
            w_per_cm2: power_density_w_per_cm2(datapath, active_arrays),
        })
        .collect()
}

/// A FloatPIM-like ReRAM training accelerator, shown in the paper's Fig. 5
/// alongside the evaluated datapaths: dense analog-friendly crossbars with
/// high per-array activation power.
pub fn floatpim_like() -> DatapathModel {
    use crate::logic::LogicFamily;
    use crate::microop::MicroOpKind;
    crate::datapath::DatapathBuilder::new("FloatPIM", LogicFamily::Nor)
        .uop(MicroOpKind::Nor, 10, 0.6)
        .uop(MicroOpKind::Copy, 10, 0.7)
        .uop(MicroOpKind::Set, 10, 0.4)
        .build()
        .with_thermal_profile(20.0, 0.002, 0.0005)
}

impl DatapathModel {
    /// Overrides the thermal parameters (active/static power per VRF in mW
    /// and VRF area in mm²) — used to model datapaths that only appear in
    /// the Fig. 5 comparison.
    pub fn with_thermal_profile(
        mut self,
        active_mw: f64,
        static_mw: f64,
        vrf_area_mm2: f64,
    ) -> Self {
        self.replace_thermal(active_mw, static_mw, vrf_area_mm2);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::DatapathKind;

    #[test]
    fn racer_exceeds_limit_beyond_one_active_pipeline() {
        // The paper maps one active VRF per RACER cluster; our model must
        // agree: 1 is safe, 2 is borderline-permissible (footnote 2 says
        // two actives still fit), and large counts blow the budget.
        let racer = DatapathModel::racer();
        assert!(power_density_w_per_cm2(&racer, 1) < AIR_COOLING_LIMIT_W_PER_CM2);
        assert!(power_density_w_per_cm2(&racer, 64) > AIR_COOLING_LIMIT_W_PER_CM2);
        let limit = thermal_active_limit(&racer);
        assert!((1..=4).contains(&limit), "RACER thermal limit {limit} should be small");
    }

    #[test]
    fn duality_cache_never_throttles() {
        // Paper: "Duality Cache does not suffer from thermal throttling in
        // Figure 5" — its rate limit is structural (issue windows).
        let dc = DatapathModel::duality_cache();
        let g = dc.geometry();
        assert!(
            power_density_w_per_cm2(&dc, g.vrfs_per_rfh) < AIR_COOLING_LIMIT_W_PER_CM2,
            "DC at full activation: {} W/cm²",
            power_density_w_per_cm2(&dc, g.vrfs_per_rfh)
        );
        assert_eq!(thermal_active_limit(&dc), g.vrfs_per_rfh);
    }

    #[test]
    fn mimdram_supports_full_local_activation() {
        let md = DatapathModel::mimdram();
        assert_eq!(thermal_active_limit(&md), md.geometry().vrfs_per_rfh);
    }

    #[test]
    fn density_is_monotonic_in_active_arrays() {
        // A physics invariant, not a Fig. 5 pin: it must hold for the
        // pLUTo and DPU models too.
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let sweep = fig5_sweep(&dp);
            for pair in sweep.windows(2) {
                assert!(pair[1].w_per_cm2 >= pair[0].w_per_cm2, "{}", dp.name());
            }
        }
    }

    #[test]
    fn floatpim_is_the_hottest_curve() {
        // Fig 5 shows FloatPIM's power density rising fastest.
        let fp = floatpim_like();
        let racer = DatapathModel::racer();
        assert!(
            power_density_w_per_cm2(&fp, 8) > power_density_w_per_cm2(&racer, 8),
            "FloatPIM should run hotter than RACER"
        );
        assert!(thermal_active_limit(&fp) < thermal_active_limit(&DatapathModel::mimdram()));
    }
}
