//! Table I: supported-feature matrix of the MPU versus prior PUM
//! datapaths, CPUs, and GPUs.
//!
//! The matrix is data (not behaviour) in the paper; we encode it so the
//! `table1` experiment binary can regenerate the table and tests can check
//! the MPU's full-feature claim.

use std::fmt;

/// A platform column of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Liquid Silicon (RRAM reconfigurable fabric).
    LiquidSilicon,
    /// Duality Cache.
    DualityCache,
    /// MIMDRAM.
    Mimdram,
    /// RACER.
    Racer,
    /// A conventional out-of-order CPU.
    Cpu,
    /// A SIMT GPU.
    Gpu,
    /// The MPU front end (this work).
    Mpu,
}

impl Platform {
    /// Table I column order.
    pub const ALL: [Platform; 7] = [
        Platform::LiquidSilicon,
        Platform::DualityCache,
        Platform::Mimdram,
        Platform::Racer,
        Platform::Cpu,
        Platform::Gpu,
        Platform::Mpu,
    ];

    /// Column abbreviation used in the paper.
    pub fn abbrev(self) -> &'static str {
        match self {
            Platform::LiquidSilicon => "LS",
            Platform::DualityCache => "DC",
            Platform::Mimdram => "MD",
            Platform::Racer => "RC",
            Platform::Cpu => "CPU",
            Platform::Gpu => "GPU",
            Platform::Mpu => "MPU",
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A feature row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// `if`-`else` statements.
    IfElse,
    /// Data-driven (dynamic) loops.
    DynamicLoops,
    /// Subroutine calls.
    SubroutineCalls,
    /// Global synchronization.
    GlobalSync,
    /// Collective communication.
    CollectiveComm,
    /// Power-density-aware scheduling.
    PowerDensityScheduling,
    /// Runtime micro-op decoding.
    RuntimeMicroOpDecoding,
}

impl Feature {
    /// Table I row order.
    pub const ALL: [Feature; 7] = [
        Feature::IfElse,
        Feature::DynamicLoops,
        Feature::SubroutineCalls,
        Feature::GlobalSync,
        Feature::CollectiveComm,
        Feature::PowerDensityScheduling,
        Feature::RuntimeMicroOpDecoding,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Feature::IfElse => "if-else statements",
            Feature::DynamicLoops => "Dynamic loops",
            Feature::SubroutineCalls => "Subroutine calls",
            Feature::GlobalSync => "Global synchronization",
            Feature::CollectiveComm => "Collective communication",
            Feature::PowerDensityScheduling => "Power-density-aware scheduling",
            Feature::RuntimeMicroOpDecoding => "Runtime micro-op decoding",
        }
    }

    /// The Table I section this row belongs to.
    pub fn section(self) -> &'static str {
        match self {
            Feature::IfElse
            | Feature::DynamicLoops
            | Feature::SubroutineCalls
            | Feature::GlobalSync => "Complex Control Instructions",
            _ => "System-Level Abilities",
        }
    }
}

/// True iff `platform` supports `feature`, exactly as Table I reports.
pub fn supports(platform: Platform, feature: Feature) -> bool {
    use Feature::*;
    use Platform::*;
    match (platform, feature) {
        // if-else: everyone.
        (_, IfElse) => true,
        // Dynamic loops: only CPU, GPU, MPU.
        (Cpu | Gpu | Mpu, DynamicLoops) => true,
        (_, DynamicLoops) => false,
        // Subroutine calls: MIMDRAM, CPU, GPU, MPU.
        (Mimdram | Cpu | Gpu | Mpu, SubroutineCalls) => true,
        (_, SubroutineCalls) => false,
        // Global synchronization: all except MIMDRAM.
        (Mimdram, GlobalSync) => false,
        (_, GlobalSync) => true,
        // Collective communication: DC, MD, RC, CPU, MPU (not LS, not GPU).
        (DualityCache | Mimdram | Racer | Cpu | Mpu, CollectiveComm) => true,
        (_, CollectiveComm) => false,
        // Power-density-aware scheduling: MPU only.
        (Mpu, PowerDensityScheduling) => true,
        (_, PowerDensityScheduling) => false,
        // Runtime micro-op decoding: MD, RC, CPU, MPU.
        (Mimdram | Racer | Cpu | Mpu, RuntimeMicroOpDecoding) => true,
        (_, RuntimeMicroOpDecoding) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpu_supports_every_feature() {
        for f in Feature::ALL {
            assert!(supports(Platform::Mpu, f), "MPU must support {}", f.label());
        }
    }

    #[test]
    fn only_mpu_has_power_density_scheduling() {
        for p in Platform::ALL {
            assert_eq!(supports(p, Feature::PowerDensityScheduling), p == Platform::Mpu, "{p}");
        }
    }

    #[test]
    fn spot_check_against_table_i() {
        // A few cells read directly off the paper's Table I.
        assert!(!supports(Platform::Racer, Feature::DynamicLoops));
        assert!(supports(Platform::Mimdram, Feature::SubroutineCalls));
        assert!(!supports(Platform::Mimdram, Feature::GlobalSync));
        assert!(!supports(Platform::Gpu, Feature::CollectiveComm));
        assert!(!supports(Platform::LiquidSilicon, Feature::CollectiveComm));
        assert!(supports(Platform::Racer, Feature::RuntimeMicroOpDecoding));
        assert!(!supports(Platform::Gpu, Feature::RuntimeMicroOpDecoding));
        assert!(!supports(Platform::DualityCache, Feature::RuntimeMicroOpDecoding));
    }

    #[test]
    fn sections_partition_the_rows() {
        let control: Vec<_> =
            Feature::ALL.iter().filter(|f| f.section() == "Complex Control Instructions").collect();
        assert_eq!(control.len(), 4);
    }
}
