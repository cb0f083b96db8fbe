//! Simulation configuration (paper Table III plus offload/NoC parameters).

use crate::fault::{FaultConfig, RecoveryPolicy};
use pum_backend::{DatapathKind, DatapathModel};

/// Whether the control path is the MPU front end or the original
/// ("Baseline") datapath that offloads control flow to a host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Full MPU front end: in-PUM control flow, recipe caching, playback.
    Mpu,
    /// Original datapath: every control-flow instruction triggers a host
    /// CPU round trip over the off-chip bus; the pipeline drains around
    /// each offload.
    Baseline,
}

/// Host-CPU offload model parameters (Baseline mode; paper Fig. 1).
///
/// The dominant term is the round trip through the host's driver stack:
/// interrupt delivery, kernel driver, user-space handler and the DMA of the
/// condition vector, at fine (per-control-instruction) granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadParams {
    /// Round-trip latency of one control offload, in MPU cycles (ns).
    pub round_trip_cycles: u64,
    /// Off-chip bus bandwidth, bytes per cycle (16 GB/s ≈ 16 B/cycle).
    pub bus_bytes_per_cycle: f64,
    /// Off-chip bus energy, pJ per byte moved.
    pub bus_pj_per_byte: f64,
    /// CPU package power while servicing an offload, mW (== pJ/cycle).
    pub cpu_active_mw: f64,
    /// CPU package power while idling as the PUM computes, mW.
    pub cpu_idle_mw: f64,
}

impl Default for OffloadParams {
    fn default() -> Self {
        Self {
            round_trip_cycles: 15_000, // ≈ 15 µs interrupt + driver + DMA visit
            bus_bytes_per_cycle: 16.0,
            bus_pj_per_byte: 25.0,
            cpu_active_mw: 120_000.0, // 120 W package
            cpu_idle_mw: 40_000.0,    // 40 W idle
        }
    }
}

/// Mesh NoC parameters for inter-MPU messages (replacing the paper's SST
/// modules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocParams {
    /// Per-hop router+link latency, cycles.
    pub hop_cycles: u64,
    /// Link width: bytes accepted per cycle.
    pub link_bytes_per_cycle: f64,
    /// Energy per byte per hop, pJ.
    pub pj_per_byte_hop: f64,
}

impl Default for NocParams {
    fn default() -> Self {
        Self { hop_cycles: 3, link_bytes_per_cycle: 8.0, pj_per_byte_hop: 0.8 }
    }
}

/// Fixed control-path costs, in cycles (derived from the 1 GHz synthesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlCosts {
    /// Ensemble header/footer handling per instruction.
    pub ensemble_marker: u64,
    /// SETMASK / UNMASK mask-register update.
    pub mask_update: u64,
    /// GETMASK copy-out (mask → data register).
    pub mask_readout: u64,
    /// JUMP_COND: EFI reduction + scheduler PC update.
    pub efi_eval: u64,
    /// JUMP / RETURN (return-address stack push/pop).
    pub jump: u64,
    /// NOP bubble.
    pub nop: u64,
    /// Recipe-table miss: fetch a template from binary storage into the
    /// template lookup (paper Fig. 9).
    pub recipe_miss_penalty: u64,
    /// Refill of the playback buffer when a body exceeds its capacity.
    pub playback_refill: u64,
}

impl Default for ControlCosts {
    fn default() -> Self {
        Self {
            ensemble_marker: 2,
            mask_update: 4,
            mask_readout: 6,
            efi_eval: 8,
            jump: 2,
            nop: 1,
            recipe_miss_penalty: 64,
            playback_refill: 32,
        }
    }
}

/// Complete configuration of one simulated chip.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The PUM datapath under the front end.
    pub datapath: DatapathModel,
    /// MPU or Baseline control path.
    pub mode: ExecutionMode,
    /// Host-offload model (used in Baseline mode).
    pub offload: OffloadParams,
    /// Inter-MPU network model.
    pub noc: NocParams,
    /// Fixed control-path costs.
    pub control: ControlCosts,
    /// Playback buffer capacity, instructions (Table III: 1024).
    pub playback_entries: usize,
    /// Template lookup capacity, recipes (Table III: 1024).
    pub template_entries: usize,
    /// Front-end dynamic power while busy, mW (== pJ/cycle at 1 GHz).
    pub frontend_dynamic_mw: f64,
    /// Front-end static power, mW.
    pub frontend_static_mw: f64,
    /// Decode multi-instruction blocks: every compute-ensemble body is
    /// decoded into a [`pum_backend::BlockGraph`], and with this on (and no
    /// fault model or redundancy armed) a run of consecutive compute steps
    /// executes in one pass per VRF. Off, every instruction runs as its
    /// own block. A host-side optimization only: lane values, statistics,
    /// and trace events are bit-identical either way, which the
    /// conformance suite checks differentially.
    pub trace_ensembles: bool,
    /// Seeded hardware fault injection. Default: disabled (no seed).
    pub fault: FaultConfig,
    /// Detection and recovery policy. Default: everything off.
    pub recovery: RecoveryPolicy,
}

impl SimConfig {
    /// MPU-mode configuration for a datapath.
    pub fn mpu(kind: DatapathKind) -> Self {
        Self::new(DatapathModel::for_kind(kind), ExecutionMode::Mpu)
    }

    /// Baseline-mode configuration for a datapath.
    pub fn baseline(kind: DatapathKind) -> Self {
        Self::new(DatapathModel::for_kind(kind), ExecutionMode::Baseline)
    }

    /// Builds a configuration from an explicit datapath model.
    pub fn new(datapath: DatapathModel, mode: ExecutionMode) -> Self {
        let fe = pum_backend::area::FrontEndModel::default();
        Self {
            datapath,
            mode,
            offload: OffloadParams::default(),
            noc: NocParams::default(),
            control: ControlCosts::default(),
            playback_entries: 1024,
            template_entries: 1024,
            frontend_dynamic_mw: fe.total_dynamic_mw(),
            frontend_static_mw: fe.total_static_mw(),
            trace_ensembles: true,
            fault: FaultConfig::default(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// A short tag like `MPU:RACER` / `Baseline:MIMDRAM` used in reports.
    pub fn label(&self) -> String {
        let mode = match self.mode {
            ExecutionMode::Mpu => "MPU",
            ExecutionMode::Baseline => "Baseline",
        };
        format!("{mode}:{}", self.datapath.name())
    }

    /// Renders the Table III parameter dump for this configuration.
    pub fn table3_rows(&self) -> Vec<(String, String)> {
        let g = self.datapath.geometry();
        vec![
            ("Pointer Table Entries".into(), "20".into()),
            ("Template Lookup Entries".into(), self.template_entries.to_string()),
            ("Bits in Activation Board".into(), g.vrfs_per_mpu().to_string()),
            ("Playback Buffer Entries".into(), self.playback_entries.to_string()),
            ("Instruction Storage Cap.".into(), "2 MB".into()),
            ("Active VRFs Per RFH".into(), g.active_vrfs_per_rfh.to_string()),
            ("RFHs Per MPU".into(), g.rfhs_per_mpu.to_string()),
            ("MPUs on Chip".into(), g.mpus_per_chip.to_string()),
            ("Memory per MPU".into(), format!("{} MB", g.mem_bytes_per_mpu >> 20)),
            ("Compute Controllers".into(), "1".into()),
            ("Micro-Op Issue Rate".into(), "1 per cycle per MPU".into()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_follow_paper_naming() {
        assert_eq!(SimConfig::mpu(DatapathKind::Racer).label(), "MPU:RACER");
        assert_eq!(SimConfig::baseline(DatapathKind::Mimdram).label(), "Baseline:MIMDRAM");
    }

    #[test]
    fn table3_reports_datapath_specific_limits() {
        let racer = SimConfig::mpu(DatapathKind::Racer);
        let rows = racer.table3_rows();
        let active = rows.iter().find(|(k, _)| k == "Active VRFs Per RFH").unwrap();
        assert_eq!(active.1, "1");
        let dc = SimConfig::mpu(DatapathKind::DualityCache);
        let rows = dc.table3_rows();
        let mpus = rows.iter().find(|(k, _)| k == "MPUs on Chip").unwrap();
        assert_eq!(mpus.1, "12");
    }

    #[test]
    fn frontend_power_comes_from_area_model() {
        let c = SimConfig::mpu(DatapathKind::Racer);
        assert!((c.frontend_dynamic_mw - 71.72).abs() < 3.0);
        assert!((c.frontend_static_mw - 1.22).abs() < 0.1);
    }
}
