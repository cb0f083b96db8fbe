//! MPU front-end area & power model (paper §VIII-A, Fig. 11).
//!
//! The paper synthesizes the control path in FreePDK 15 nm and reports a
//! per-MPU front end of **0.123 mm²**, **1.22 mW** static and **71.72 mW**
//! dynamic power, with storage-based components (playback buffer, template
//! lookup) contributing 53% of area, 91% of static power and nearly all
//! dynamic power. We cannot run Synopsys here, so this module substitutes a
//! parametric model: each component's cost is derived from its storage bits
//! (Table III capacities) or logic-gate estimate times calibrated per-bit /
//! per-gate constants. The calibration targets are the paper's totals and
//! breakdown shares; tests pin both.

/// Table III front-end capacities, from which component costs derive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndConfig {
    /// Playback buffer entries (27 bits each).
    pub playback_entries: usize,
    /// Template lookup entries (24 bits each).
    pub template_entries: usize,
    /// Pointer table entries (20 bits each).
    pub pointer_entries: usize,
    /// Activation board bits (1 per VRF).
    pub activation_bits: usize,
    /// Compute controllers per MPU.
    pub compute_controllers: usize,
}

impl Default for FrontEndConfig {
    /// The Table III configuration.
    fn default() -> Self {
        Self {
            playback_entries: 1024,
            template_entries: 1024,
            pointer_entries: 20,
            activation_bits: 512,
            compute_controllers: 1,
        }
    }
}

/// One control-path component's synthesized cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentCost {
    /// Component name as shown in Fig. 11.
    pub name: &'static str,
    /// True for storage-based components (register files / lookup tables).
    pub storage: bool,
    /// Area, mm².
    pub area_mm2: f64,
    /// Static (leakage) power, mW.
    pub static_mw: f64,
    /// Dynamic power at full activity, mW.
    pub dynamic_mw: f64,
}

/// The full front-end cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEndModel {
    components: Vec<ComponentCost>,
}

/// Calibrated 15 nm constants (see module docs).
mod cal {
    /// mm² per storage bit (registers + parallel-lookup overhead).
    pub const AREA_PER_BIT_MM2: f64 = 1.10e-6;
    /// mm² per kGE of random logic.
    pub const AREA_PER_KGE_MM2: f64 = 3.906e-4;
    /// Static µW per storage bit.
    pub const STATIC_UW_PER_BIT: f64 = 0.018727;
    /// Static µW per kGE.
    pub const STATIC_UW_PER_KGE: f64 = 0.742;
    /// Dynamic µW per storage bit at full activity (1 GHz).
    pub const DYN_UW_PER_BIT: f64 = 1.1373;
    /// Dynamic µW per kGE at full activity.
    pub const DYN_UW_PER_KGE: f64 = 29.08;
}

fn storage(name: &'static str, bits: f64) -> ComponentCost {
    ComponentCost {
        name,
        storage: true,
        area_mm2: bits * cal::AREA_PER_BIT_MM2,
        static_mw: bits * cal::STATIC_UW_PER_BIT / 1000.0,
        dynamic_mw: bits * cal::DYN_UW_PER_BIT / 1000.0,
    }
}

fn logic(name: &'static str, kge: f64) -> ComponentCost {
    ComponentCost {
        name,
        storage: false,
        area_mm2: kge * cal::AREA_PER_KGE_MM2,
        static_mw: kge * cal::STATIC_UW_PER_KGE / 1000.0,
        dynamic_mw: kge * cal::DYN_UW_PER_KGE / 1000.0,
    }
}

impl FrontEndModel {
    /// Builds the model for a front-end configuration.
    pub fn new(config: FrontEndConfig) -> Self {
        let cc = config.compute_controllers as f64;
        let components = vec![
            storage("playback buffer", cc * (config.playback_entries * 27) as f64),
            storage("template lookup", (config.template_entries * 24) as f64),
            storage("pointer table", (config.pointer_entries * 20) as f64),
            storage("activation board", cc * config.activation_bits as f64),
            storage("DTC target map", 2048.0),
            storage("DTC data buffer", 4096.0),
            // Random-logic components, in kGE.
            logic("fetcher", 30.0),
            logic("I2M template filler", 45.0),
            logic("scheduler", 28.0),
            logic("EFI", 12.0),
            logic("inter-MPU controller", 25.0),
            logic("return-address stack", 8.0),
        ];
        Self { components }
    }

    /// The per-component breakdown (Fig. 11).
    pub fn components(&self) -> &[ComponentCost] {
        &self.components
    }

    /// Total front-end area, mm² (paper: 0.123 mm²).
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// Total static power, mW (paper: 1.22 mW).
    pub fn total_static_mw(&self) -> f64 {
        self.components.iter().map(|c| c.static_mw).sum()
    }

    /// Total dynamic power at full activity, mW (paper: 71.72 mW).
    pub fn total_dynamic_mw(&self) -> f64 {
        self.components.iter().map(|c| c.dynamic_mw).sum()
    }

    /// Fraction of area in storage-based components (paper: 53%).
    pub fn storage_area_share(&self) -> f64 {
        let s: f64 = self.components.iter().filter(|c| c.storage).map(|c| c.area_mm2).sum();
        s / self.total_area_mm2()
    }

    /// Fraction of static power in storage-based components (paper: 91%).
    pub fn storage_static_share(&self) -> f64 {
        let s: f64 = self.components.iter().filter(|c| c.storage).map(|c| c.static_mw).sum();
        s / self.total_static_mw()
    }

    /// Fraction of dynamic power in storage-based components (paper:
    /// "almost all").
    pub fn storage_dynamic_share(&self) -> f64 {
        let s: f64 = self.components.iter().filter(|c| c.storage).map(|c| c.dynamic_mw).sum();
        s / self.total_dynamic_mw()
    }
}

impl Default for FrontEndModel {
    fn default() -> Self {
        Self::new(FrontEndConfig::default())
    }
}

/// Chip-level effect of adding `mpus` front ends to a RACER chip
/// (paper §VIII-A example: 512 MPUs grow a 4.00 cm² chip to 4.63 cm² and
/// 330 mW static to 955 mW; max control-path draw 36.7 W).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipAugmentation {
    /// Chip area including front ends, cm².
    pub total_area_cm2: f64,
    /// Chip static power including front ends, mW.
    pub total_static_mw: f64,
    /// Maximum runtime draw of all MPU control paths, W.
    pub max_control_path_w: f64,
}

/// Computes the §VIII-A chip-augmentation numbers.
pub fn augment_chip(
    model: &FrontEndModel,
    base_area_cm2: f64,
    base_static_mw: f64,
    mpus: usize,
) -> ChipAugmentation {
    let n = mpus as f64;
    ChipAugmentation {
        total_area_cm2: base_area_cm2 + n * model.total_area_mm2() / 100.0,
        total_static_mw: base_static_mw + n * model.total_static_mw(),
        max_control_path_w: n * (model.total_static_mw() + model.total_dynamic_mw()) / 1000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64, tol: f64) -> bool {
        (got - want).abs() <= tol * want
    }

    #[test]
    fn totals_match_paper_synthesis() {
        let m = FrontEndModel::default();
        assert!(
            close(m.total_area_mm2(), 0.123, 0.05),
            "area {} vs paper 0.123 mm²",
            m.total_area_mm2()
        );
        assert!(
            close(m.total_static_mw(), 1.22, 0.05),
            "static {} vs paper 1.22 mW",
            m.total_static_mw()
        );
        assert!(
            close(m.total_dynamic_mw(), 71.72, 0.05),
            "dynamic {} vs paper 71.72 mW",
            m.total_dynamic_mw()
        );
    }

    #[test]
    fn breakdown_shares_match_paper() {
        let m = FrontEndModel::default();
        assert!(
            close(m.storage_area_share(), 0.53, 0.10),
            "storage area share {}",
            m.storage_area_share()
        );
        assert!(
            close(m.storage_static_share(), 0.91, 0.05),
            "storage static share {}",
            m.storage_static_share()
        );
        assert!(m.storage_dynamic_share() > 0.9, "storage dominates dynamic power");
    }

    #[test]
    fn chip_augmentation_matches_section_viii_a() {
        let m = FrontEndModel::default();
        let chip = augment_chip(&m, 4.00, 330.0, 512);
        assert!(close(chip.total_area_cm2, 4.63, 0.03), "area {}", chip.total_area_cm2);
        assert!(close(chip.total_static_mw, 955.0, 0.05), "static {}", chip.total_static_mw);
        assert!(
            close(chip.max_control_path_w, 36.7, 0.05),
            "control-path draw {}",
            chip.max_control_path_w
        );
    }

    #[test]
    fn bigger_buffers_cost_more() {
        let small = FrontEndModel::new(FrontEndConfig::default());
        let big = FrontEndModel::new(FrontEndConfig {
            playback_entries: 4096,
            ..FrontEndConfig::default()
        });
        assert!(big.total_area_mm2() > small.total_area_mm2());
        assert!(big.total_dynamic_mw() > small.total_dynamic_mw());
    }

    #[test]
    fn component_list_names_fig11_blocks() {
        let m = FrontEndModel::default();
        let names: Vec<_> = m.components().iter().map(|c| c.name).collect();
        for expected in ["playback buffer", "template lookup", "pointer table", "activation board"]
        {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
