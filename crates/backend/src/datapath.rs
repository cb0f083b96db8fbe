//! Parametric models of bitwise PUM datapaths (paper §II-C, §IV, Table III).
//!
//! A [`DatapathModel`] captures everything the MPU front end needs to know
//! about a back end: its logic family (which fixes instruction recipes),
//! geometry (VRF/RFH mapping, Table III), per-micro-op timing and energy,
//! whether execution is bit-pipelined (RACER), and inter-VRF transfer
//! costs. Three calibrated models ship with the crate:
//!
//! * [`DatapathModel::racer`] — ReRAM, bit-pipelined NOR (RACER + OSCAR).
//!   VRF = pipeline (64 tiles), RFH = cluster, 1 active VRF per cluster
//!   (thermal), 497 MPUs on a 4 cm² chip.
//! * [`DatapathModel::mimdram`] — DRAM, triple-row activation. VRF = mat
//!   group, RFH = µPE, all local VRFs may activate, 450 MPUs.
//! * [`DatapathModel::duality_cache`] — SRAM bitline + CMOS adders. VRF =
//!   subarray group, RFH = issue window, all local VRFs may activate,
//!   12 MPUs (cache capacity).
//!
//! Cycle counts are at the 1 GHz MPU clock. Energy constants are per lane
//! per micro-op and were chosen from the cited technology papers' orders
//! of magnitude, then calibrated so the cross-datapath trends of the MPU
//! paper's evaluation hold (see DESIGN.md §2).

use crate::logic::LogicFamily;
use crate::microop::MicroOpKind;
use crate::recipe::{build_recipe, Recipe, RecipeCtx};
use mpu_isa::Instruction;
use std::collections::BTreeMap;

/// Which shipped datapath a model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatapathKind {
    /// ReRAM-based RACER with OSCAR NOR primitives.
    Racer,
    /// DRAM-based MIMDRAM.
    Mimdram,
    /// SRAM-based Duality Cache.
    DualityCache,
    /// DRAM LUT-in-memory (pLUTo, arXiv:2104.07699).
    Pluto,
    /// UPMEM-style commercial DPU, PrIM-calibrated (arXiv:2105.03814).
    Dpu,
    /// A user-defined backend built with [`DatapathBuilder`].
    Custom,
}

impl DatapathKind {
    /// The three paper-evaluated backends (figure/table reproductions).
    pub const EVALUATED: [DatapathKind; 3] =
        [DatapathKind::Racer, DatapathKind::Mimdram, DatapathKind::DualityCache];

    /// Every shipped backend — the sweep constant for conformance, fault,
    /// and perf-gate matrices. Guarded by [`DatapathKind::is_shipped`]'s
    /// wildcard-free match plus the const assertion below: a new variant
    /// fails to compile until both are updated, so a 6th backend cannot
    /// silently under-sweep.
    pub const ALL: [DatapathKind; 5] = [
        DatapathKind::Racer,
        DatapathKind::Mimdram,
        DatapathKind::DualityCache,
        DatapathKind::Pluto,
        DatapathKind::Dpu,
    ];

    /// True for backends constructible via [`DatapathModel::for_kind`]
    /// (everything but `Custom`). The match is deliberately wildcard-free:
    /// adding a variant breaks compilation here until [`DatapathKind::ALL`]
    /// is reconsidered.
    pub const fn is_shipped(self) -> bool {
        match self {
            DatapathKind::Racer
            | DatapathKind::Mimdram
            | DatapathKind::DualityCache
            | DatapathKind::Pluto
            | DatapathKind::Dpu => true,
            DatapathKind::Custom => false,
        }
    }
}

// Compile-time exhaustiveness: every entry of `ALL` is shipped, and the
// shipped count matches `ALL`'s length (`is_shipped` is wildcard-free, so
// a new enum variant cannot compile without revisiting both).
const _: () = {
    let mut i = 0;
    while i < DatapathKind::ALL.len() {
        assert!(DatapathKind::ALL[i].is_shipped());
        i += 1;
    }
};

/// Physical organization of a datapath, mapping the MPU abstraction onto
/// hardware (paper §IV and Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Vector lanes per VRF (rows of a RACER pipeline tile, columns of a
    /// DRAM mat / SRAM subarray).
    pub lanes_per_vrf: usize,
    /// Architectural vector registers per VRF (the top two are reserved as
    /// recipe temporaries).
    pub regs_per_vrf: usize,
    /// VRFs per RF holder (Table III: 512-bit activation board / 8 RFHs).
    pub vrfs_per_rfh: usize,
    /// RF holders per MPU.
    pub rfhs_per_mpu: usize,
    /// Thermal/structural cap on simultaneously active VRFs per RFH.
    pub active_vrfs_per_rfh: usize,
    /// MPUs on the 4 cm² iso-area chip.
    pub mpus_per_chip: usize,
    /// Memory capacity managed per MPU, in bytes.
    pub mem_bytes_per_mpu: u64,
}

impl Geometry {
    /// Total VRFs in one MPU.
    pub fn vrfs_per_mpu(&self) -> usize {
        self.vrfs_per_rfh * self.rfhs_per_mpu
    }

    /// VRFs that may be active simultaneously in one MPU.
    pub fn max_active_vrfs_per_mpu(&self) -> usize {
        self.active_vrfs_per_rfh.min(self.vrfs_per_rfh) * self.rfhs_per_mpu
    }

    /// Data elements (64-bit lanes) resident across one MPU's VRFs.
    pub fn lanes_per_mpu(&self) -> usize {
        self.lanes_per_vrf * self.vrfs_per_mpu()
    }

    /// Index of the two registers reserved for recipe temporaries.
    pub fn temp_regs(&self) -> (u8, u8) {
        ((self.regs_per_vrf - 2) as u8, (self.regs_per_vrf - 1) as u8)
    }

    /// Registers usable by programs (excludes recipe temporaries).
    pub fn usable_regs(&self) -> usize {
        self.regs_per_vrf - 2
    }
}

/// A calibrated PUM datapath model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathModel {
    kind: DatapathKind,
    name: String,
    family: LogicFamily,
    geometry: Geometry,
    uop_cycles: BTreeMap<MicroOpKind, u64>,
    uop_energy_pj_per_lane: BTreeMap<MicroOpKind, f64>,
    bit_pipelined: bool,
    /// Pipeline depth in bit-stages (RACER: tiles per pipeline).
    pipeline_depth: u32,
    /// Cycles to move one 64-bit word between VRFs of adjacent RFHs.
    transfer_cycles_per_word: u64,
    /// Energy (pJ) to move one 64-bit word between VRFs.
    transfer_energy_pj_per_word: f64,
    /// Static (leakage) power per VRF, in milliwatts.
    static_power_mw_per_vrf: f64,
    /// Dynamic power of one VRF actively executing micro-ops, mW.
    active_power_mw_per_vrf: f64,
    /// Die area of one VRF's memory arrays, mm².
    vrf_area_mm2: f64,
    /// Recipe-optimizer configuration applied by [`DatapathModel::recipe`].
    opt: crate::opt::OptConfig,
    /// True for word-serial near-bank cores (UPMEM-style DPUs): one
    /// micro-op processes the VRF's lanes sequentially, so recipe cycle
    /// counts scale with `lanes_per_vrf` (energy is already per-lane).
    word_serial: bool,
}

impl DatapathModel {
    /// The ReRAM-based RACER backend (paper §II-C, §IV, Table III).
    pub fn racer() -> Self {
        Self {
            kind: DatapathKind::Racer,
            name: "RACER".to_string(),
            family: LogicFamily::Nor,
            geometry: Geometry {
                lanes_per_vrf: 64,
                regs_per_vrf: 16,
                vrfs_per_rfh: 64,
                rfhs_per_mpu: 8,
                active_vrfs_per_rfh: 1,
                mpus_per_chip: 497,
                mem_bytes_per_mpu: 16 << 20,
            },
            // OSCAR-class ReRAM NOR ≈ 2 ns switching (RACER's pipelines are
            // engineered for GHz-rate micro-op issue); buffered copies
            // similar.
            uop_cycles: BTreeMap::from([
                (MicroOpKind::Nor, 2),
                (MicroOpKind::Copy, 2),
                (MicroOpKind::Set, 2),
            ]),
            // Low-current OSCAR switching: tens of femtojoules per cell.
            uop_energy_pj_per_lane: BTreeMap::from([
                (MicroOpKind::Nor, 0.020),
                (MicroOpKind::Copy, 0.025),
                (MicroOpKind::Set, 0.012),
            ]),
            bit_pipelined: true,
            pipeline_depth: 64,
            transfer_cycles_per_word: 16,
            transfer_energy_pj_per_word: 12.0,
            static_power_mw_per_vrf: 0.0013, // ReRAM is non-volatile; PCC leakage only
            // Peak switching power while driving NOR write currents: the
            // thermal criterion Fig. 5 plots (averages are far lower).
            active_power_mw_per_vrf: 45.0,
            vrf_area_mm2: 0.0015,
            opt: crate::opt::OptConfig::default(),
            word_serial: false,
        }
    }

    /// The DRAM-based MIMDRAM backend.
    pub fn mimdram() -> Self {
        Self {
            kind: DatapathKind::Mimdram,
            name: "MIMDRAM".to_string(),
            family: LogicFamily::Maj,
            geometry: Geometry {
                lanes_per_vrf: 512,
                regs_per_vrf: 16,
                vrfs_per_rfh: 64,
                rfhs_per_mpu: 8,
                active_vrfs_per_rfh: 256, // effectively all 64
                mpus_per_chip: 450,
                mem_bytes_per_mpu: 16 << 20,
            },
            // In-mat activations are faster than full-array tRAS (short
            // local bitlines — the MIMDRAM design point); AAP row copies
            // cost an extra precharge.
            uop_cycles: BTreeMap::from([
                (MicroOpKind::Tra, 20),
                (MicroOpKind::Not, 20),
                (MicroOpKind::Copy, 28),
                (MicroOpKind::Set, 20),
            ]),
            uop_energy_pj_per_lane: BTreeMap::from([
                (MicroOpKind::Tra, 0.09),
                (MicroOpKind::Not, 0.06),
                (MicroOpKind::Copy, 0.12),
                (MicroOpKind::Set, 0.05),
            ]),
            bit_pipelined: false,
            pipeline_depth: 1,
            transfer_cycles_per_word: 24,
            transfer_energy_pj_per_word: 20.0,
            static_power_mw_per_vrf: 0.011, // refresh + peripheral leakage
            active_power_mw_per_vrf: 1.4,
            vrf_area_mm2: 0.0016,
            opt: crate::opt::OptConfig::default(),
            word_serial: false,
        }
    }

    /// The SRAM-based Duality Cache backend.
    pub fn duality_cache() -> Self {
        Self {
            kind: DatapathKind::DualityCache,
            name: "DualityCache".to_string(),
            family: LogicFamily::Bitline,
            geometry: Geometry {
                lanes_per_vrf: 256,
                regs_per_vrf: 16,
                vrfs_per_rfh: 64,
                rfhs_per_mpu: 8,
                active_vrfs_per_rfh: 256, // no thermal throttle (paper Fig 5)
                mpus_per_chip: 12,
                mem_bytes_per_mpu: 16 << 20,
            },
            // 14-cycle in-SRAM operation latency (paper §VIII-C); the CMOS
            // full adder computes sum+carry in a single such operation.
            uop_cycles: BTreeMap::from([
                (MicroOpKind::And, 14),
                (MicroOpKind::Or, 14),
                (MicroOpKind::Xor, 14),
                (MicroOpKind::Not, 14),
                (MicroOpKind::FullAdd, 14),
                (MicroOpKind::Copy, 14),
                (MicroOpKind::Set, 14),
            ]),
            uop_energy_pj_per_lane: BTreeMap::from([
                (MicroOpKind::And, 0.020),
                (MicroOpKind::Or, 0.020),
                (MicroOpKind::Xor, 0.025),
                (MicroOpKind::Not, 0.015),
                (MicroOpKind::FullAdd, 0.035),
                (MicroOpKind::Copy, 0.020),
                (MicroOpKind::Set, 0.012),
            ]),
            bit_pipelined: false,
            pipeline_depth: 1,
            transfer_cycles_per_word: 8,
            transfer_energy_pj_per_word: 6.0,
            static_power_mw_per_vrf: 0.045, // SRAM leakage dominates
            active_power_mw_per_vrf: 1.9,
            vrf_area_mm2: 0.055, // SRAM density is poor (0.2 GB chip)
            opt: crate::opt::OptConfig::default(),
            word_serial: false,
        }
    }

    /// The DRAM LUT-in-memory pLUTo backend (arXiv:2104.07699).
    ///
    /// Every gate is a single LUT-row query costing one full row cycle
    /// (tRC ≈ 46 ns at the 1 GHz MPU clock) regardless of the boolean
    /// function — pLUTo's pitch: complex gates at AND/OR price. Geometry
    /// mirrors the DRAM mat organization of MIMDRAM; the LUT storage
    /// overhead costs some array density, hence fewer MPUs per chip.
    pub fn pluto() -> Self {
        Self {
            kind: DatapathKind::Pluto,
            name: "pLUTo".to_string(),
            family: LogicFamily::Lut,
            geometry: Geometry {
                lanes_per_vrf: 512,
                regs_per_vrf: 16,
                vrfs_per_rfh: 64,
                rfhs_per_mpu: 8,
                active_vrfs_per_rfh: 256, // effectively all 64
                mpus_per_chip: 360,       // LUT rows cost array density
                mem_bytes_per_mpu: 16 << 20,
            },
            // A LUT query is a full activate–query–precharge row cycle
            // (pLUTo §4: tRC-bound); copies and presets are standard
            // AAP/preset row operations as in MIMDRAM.
            uop_cycles: BTreeMap::from([
                (MicroOpKind::Lut, 46),
                (MicroOpKind::Copy, 28),
                (MicroOpKind::Set, 20),
            ]),
            uop_energy_pj_per_lane: BTreeMap::from([
                (MicroOpKind::Lut, 0.10),
                (MicroOpKind::Copy, 0.12),
                (MicroOpKind::Set, 0.05),
            ]),
            bit_pipelined: false,
            pipeline_depth: 1,
            transfer_cycles_per_word: 24,
            transfer_energy_pj_per_word: 20.0,
            static_power_mw_per_vrf: 0.011, // refresh + peripheral leakage
            active_power_mw_per_vrf: 1.5,
            vrf_area_mm2: 0.0019, // mat area + LUT source/destination rows
            opt: crate::opt::OptConfig::default(),
            word_serial: false,
        }
    }

    /// The UPMEM-style commercial DPU backend, calibrated against the PrIM
    /// characterization (arXiv:2105.03814).
    ///
    /// A DPU is a word-serial near-bank core: no inter-lane bit-plane
    /// primitives exist, so recipes fall back to one [`MicroOp::Word`] per
    /// instruction and cycle counts scale with the lanes processed
    /// sequentially ([`DatapathModel::recipe_cycles`]). PrIM's throughput
    /// numbers give the per-element cost ratios: add/sub/logic ≈ 1×,
    /// 32-bit multiply ≈ 8× (software-pipelined shifts on a core without
    /// a hardware multiplier), division ≈ 13×.
    pub fn dpu() -> Self {
        Self {
            kind: DatapathKind::Dpu,
            name: "DPU".to_string(),
            family: LogicFamily::WordSerial,
            geometry: Geometry {
                lanes_per_vrf: 64,
                regs_per_vrf: 16,
                vrfs_per_rfh: 8, // one tasklet group per RFH
                rfhs_per_mpu: 8,
                active_vrfs_per_rfh: 256,    // all tasklets run concurrently
                mpus_per_chip: 40,           // ranks of 64 DPUs, iso-area
                mem_bytes_per_mpu: 64 << 20, // MRAM bank per DPU
            },
            // Cycles are per lane (word-serial): ~12 pipeline cycles per
            // 64-bit ALU op at the ~350 MHz DPU clock rescaled to the
            // 1 GHz MPU clock; MUL/DIV are software loops.
            uop_cycles: BTreeMap::from([
                (MicroOpKind::WordAlu, 12),
                (MicroOpKind::WordMul, 96),
                (MicroOpKind::WordDiv, 160),
            ]),
            uop_energy_pj_per_lane: BTreeMap::from([
                (MicroOpKind::WordAlu, 4.5),
                (MicroOpKind::WordMul, 30.0),
                (MicroOpKind::WordDiv, 55.0),
            ]),
            bit_pipelined: false,
            pipeline_depth: 1,
            transfer_cycles_per_word: 64, // through the DMA engine + WRAM
            transfer_energy_pj_per_word: 45.0,
            static_power_mw_per_vrf: 0.02,
            active_power_mw_per_vrf: 2.8, // a running RISC core, not an array
            vrf_area_mm2: 0.02,
            opt: crate::opt::OptConfig::default(),
            word_serial: true,
        }
    }

    /// The model for a [`DatapathKind`] (panics on `Custom`; build those
    /// with [`DatapathBuilder`]).
    pub fn for_kind(kind: DatapathKind) -> Self {
        match kind {
            DatapathKind::Racer => Self::racer(),
            DatapathKind::Mimdram => Self::mimdram(),
            DatapathKind::DualityCache => Self::duality_cache(),
            DatapathKind::Pluto => Self::pluto(),
            DatapathKind::Dpu => Self::dpu(),
            DatapathKind::Custom => panic!("custom datapaths are built with DatapathBuilder"),
        }
    }

    /// Which shipped backend this is.
    pub fn kind(&self) -> DatapathKind {
        self.kind
    }

    /// Human-readable backend name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend's native logic family.
    pub fn family(&self) -> LogicFamily {
        self.family
    }

    /// Physical organization (Table III).
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Recipe-synthesis context (family + reserved temp registers +
    /// optimizer configuration).
    pub fn recipe_ctx(&self) -> RecipeCtx {
        RecipeCtx { family: self.family, temp_regs: self.geometry.temp_regs(), opt: self.opt }
    }

    /// The recipe-optimizer configuration this model applies at synthesis.
    pub fn opt_config(&self) -> crate::opt::OptConfig {
        self.opt
    }

    /// Replaces the recipe-optimizer configuration (e.g.
    /// [`crate::opt::OptConfig::disabled`] to measure the unoptimized
    /// templates). The configuration is part of [`DatapathModel::recipe_ctx`]
    /// and therefore of every recipe memo key.
    pub fn with_opt_config(mut self, opt: crate::opt::OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Synthesizes the recipe for `instr` and runs the recipe optimizer
    /// over it (see [`crate::opt`]), or returns `None` for control-path
    /// instructions. Callers should cache recipes per instruction — that
    /// is exactly what the control path's template lookup does, which also
    /// amortizes the optimization cost to once per template miss.
    pub fn recipe(&self, instr: &Instruction) -> Option<Recipe> {
        self.recipe_with_stats(instr).map(|(recipe, _)| recipe)
    }

    /// [`DatapathModel::recipe`], also returning the optimizer's per-rule
    /// attribution counters for this synthesis.
    pub fn recipe_with_stats(&self, instr: &Instruction) -> Option<(Recipe, crate::opt::OptStats)> {
        let template = build_recipe(self.recipe_ctx(), instr)?;
        let cost = |kind: MicroOpKind| {
            let cycles = self.uop_cycles.get(&kind).copied()?;
            let energy = self.uop_energy_pj_per_lane.get(&kind).copied()?;
            Some((cycles, energy))
        };
        Some(crate::opt::optimize(&template, self.family, self.opt, &cost))
    }

    /// Issue/occupancy cycles of one micro-op at the 1 GHz MPU clock.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not native to this backend (recipes only emit
    /// supported kinds).
    pub fn uop_cycles(&self, kind: MicroOpKind) -> u64 {
        *self
            .uop_cycles
            .get(&kind)
            .unwrap_or_else(|| panic!("{} does not support {kind}", self.name))
    }

    /// Energy of one micro-op, in picojoules, across `lanes` active lanes.
    pub fn uop_energy_pj(&self, kind: MicroOpKind, lanes: usize) -> f64 {
        self.uop_energy_pj_per_lane
            .get(&kind)
            .unwrap_or_else(|| panic!("{} does not support {kind}", self.name))
            * lanes as f64
    }

    /// Total cycles to issue a recipe serially (no bit-pipelining). On
    /// word-serial backends the per-op cost is charged once per lane: the
    /// near-bank core walks the VRF sequentially.
    pub fn recipe_cycles(&self, recipe: &Recipe) -> u64 {
        let per_op: u64 = recipe.ops().iter().map(|op| self.uop_cycles(op.kind())).sum();
        if self.word_serial {
            per_op * self.geometry.lanes_per_vrf as u64
        } else {
            per_op
        }
    }

    /// True for word-serial near-bank cores (UPMEM-style DPUs).
    pub fn word_serial(&self) -> bool {
        self.word_serial
    }

    /// Total energy (pJ) of a recipe across `lanes` lanes.
    pub fn recipe_energy_pj(&self, recipe: &Recipe, lanes: usize) -> f64 {
        recipe.ops().iter().map(|op| self.uop_energy_pj(op.kind(), lanes)).sum()
    }

    /// Whether consecutive instructions overlap across bit-stages (RACER's
    /// bit-pipelining, paper §II-C).
    pub fn bit_pipelined(&self) -> bool {
        self.bit_pipelined
    }

    /// Pipeline depth in bit-stages.
    pub fn pipeline_depth(&self) -> u32 {
        self.pipeline_depth
    }

    /// Steady-state cycles a recipe occupies one bit-stage of the pipeline
    /// (`recipe_cycles / depth`, at least 1); equals `recipe_cycles` for
    /// non-pipelined backends.
    pub fn recipe_stage_cycles(&self, recipe: &Recipe) -> u64 {
        let total = self.recipe_cycles(recipe);
        if self.bit_pipelined {
            (total / self.pipeline_depth as u64).max(1)
        } else {
            total
        }
    }

    /// Cycles to move one 64-bit word between VRFs (intra-MPU).
    pub fn transfer_cycles_per_word(&self) -> u64 {
        self.transfer_cycles_per_word
    }

    /// Energy (pJ) to move one 64-bit word between VRFs (intra-MPU).
    pub fn transfer_energy_pj_per_word(&self) -> f64 {
        self.transfer_energy_pj_per_word
    }

    /// Leakage power of one VRF, mW.
    pub fn static_power_mw_per_vrf(&self) -> f64 {
        self.static_power_mw_per_vrf
    }

    /// Dynamic power of one actively computing VRF, mW.
    pub fn active_power_mw_per_vrf(&self) -> f64 {
        self.active_power_mw_per_vrf
    }

    /// Die area of one VRF, mm².
    pub fn vrf_area_mm2(&self) -> f64 {
        self.vrf_area_mm2
    }

    /// Micro-op kinds this backend natively supports.
    pub fn supports(&self) -> Vec<MicroOpKind> {
        self.uop_cycles.keys().copied().collect()
    }

    pub(crate) fn replace_thermal(&mut self, active_mw: f64, static_mw: f64, vrf_area_mm2: f64) {
        self.active_power_mw_per_vrf = active_mw;
        self.static_power_mw_per_vrf = static_mw;
        self.vrf_area_mm2 = vrf_area_mm2;
    }
}

/// Builder for custom datapath models, demonstrating that the MPU front
/// end is not tied to the three shipped backends.
///
/// # Example
///
/// ```
/// use pum_backend::{DatapathBuilder, LogicFamily, MicroOpKind};
///
/// let dp = DatapathBuilder::new("MyPUM", LogicFamily::Nor)
///     .lanes_per_vrf(128)
///     .uop(MicroOpKind::Nor, 5, 0.2)
///     .uop(MicroOpKind::Copy, 5, 0.2)
///     .uop(MicroOpKind::Set, 5, 0.1)
///     .build();
/// assert_eq!(dp.geometry().lanes_per_vrf, 128);
/// ```
#[derive(Debug, Clone)]
pub struct DatapathBuilder {
    model: DatapathModel,
}

impl DatapathBuilder {
    /// Starts from sane defaults (RACER-like geometry) for `family`.
    pub fn new(name: &str, family: LogicFamily) -> Self {
        let mut model = DatapathModel::racer();
        model.kind = DatapathKind::Custom;
        model.name = name.to_string();
        model.family = family;
        model.uop_cycles.clear();
        model.uop_energy_pj_per_lane.clear();
        model.bit_pipelined = false;
        model.pipeline_depth = 1;
        Self { model }
    }

    /// Sets lanes per VRF.
    pub fn lanes_per_vrf(mut self, lanes: usize) -> Self {
        self.model.geometry.lanes_per_vrf = lanes;
        self
    }

    /// Sets the thermal cap on active VRFs per RFH.
    pub fn active_vrfs_per_rfh(mut self, n: usize) -> Self {
        self.model.geometry.active_vrfs_per_rfh = n;
        self
    }

    /// Sets MPUs per chip.
    pub fn mpus_per_chip(mut self, n: usize) -> Self {
        self.model.geometry.mpus_per_chip = n;
        self
    }

    /// Registers a supported micro-op with its latency and per-lane energy.
    pub fn uop(mut self, kind: MicroOpKind, cycles: u64, energy_pj_per_lane: f64) -> Self {
        self.model.uop_cycles.insert(kind, cycles);
        self.model.uop_energy_pj_per_lane.insert(kind, energy_pj_per_lane);
        self
    }

    /// Sets the recipe-optimizer configuration (defaults to enabled with
    /// every rule family on).
    pub fn optimizer(mut self, opt: crate::opt::OptConfig) -> Self {
        self.model.opt = opt;
        self
    }

    /// Enables bit-pipelining with the given depth.
    pub fn bit_pipelined(mut self, depth: u32) -> Self {
        self.model.bit_pipelined = true;
        self.model.pipeline_depth = depth;
        self
    }

    /// Finalizes the model.
    ///
    /// # Panics
    ///
    /// Panics if the registered micro-ops cannot express the model's logic
    /// family (recipes would fail at issue time otherwise).
    pub fn build(self) -> DatapathModel {
        for kind in self.model.family.supported_kinds() {
            assert!(
                self.model.uop_cycles.contains_key(kind),
                "family {:?} requires a cost for {kind}",
                self.model.family
            );
        }
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::{BinaryOp, RegId};

    fn add_instr() -> Instruction {
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) }
    }

    #[test]
    fn shipped_models_match_table_iii() {
        let r = DatapathModel::racer();
        assert_eq!(r.geometry().active_vrfs_per_rfh, 1);
        assert_eq!(r.geometry().rfhs_per_mpu, 8);
        assert_eq!(r.geometry().mpus_per_chip, 497);
        assert_eq!(r.geometry().mem_bytes_per_mpu, 16 << 20);
        let m = DatapathModel::mimdram();
        assert_eq!(m.geometry().active_vrfs_per_rfh, 256);
        assert_eq!(m.geometry().mpus_per_chip, 450);
        let d = DatapathModel::duality_cache();
        assert_eq!(d.geometry().mpus_per_chip, 12);
        // Activation board: 512 bits = 1 per VRF (Table III).
        assert_eq!(r.geometry().vrfs_per_mpu(), 512);
        assert_eq!(m.geometry().vrfs_per_mpu(), 512);
    }

    #[test]
    fn new_backends_match_their_calibration_sources() {
        let p = DatapathModel::pluto();
        assert_eq!(p.family(), LogicFamily::Lut);
        assert_eq!(p.uop_cycles(MicroOpKind::Lut), 46, "LUT query is tRC-bound");
        assert!(!p.word_serial());
        let d = DatapathModel::dpu();
        assert_eq!(d.family(), LogicFamily::WordSerial);
        assert!(d.word_serial());
        // PrIM cost ratios: MUL ≈ 8× ALU, DIV slower still.
        assert_eq!(d.uop_cycles(MicroOpKind::WordMul), 8 * d.uop_cycles(MicroOpKind::WordAlu));
        assert!(d.uop_cycles(MicroOpKind::WordDiv) > d.uop_cycles(MicroOpKind::WordMul));
    }

    #[test]
    fn all_covers_every_shipped_backend() {
        assert_eq!(DatapathKind::ALL.len(), 5);
        for kind in DatapathKind::ALL {
            assert!(kind.is_shipped());
            // Constructible, and self-describing.
            assert_eq!(DatapathModel::for_kind(kind).kind(), kind);
        }
        assert!(!DatapathKind::Custom.is_shipped());
        for kind in DatapathKind::EVALUATED {
            assert!(DatapathKind::ALL.contains(&kind), "EVALUATED ⊆ ALL");
        }
    }

    #[test]
    fn word_serial_cycles_scale_with_lanes() {
        let d = DatapathModel::dpu();
        let recipe = d.recipe(&add_instr()).unwrap();
        assert_eq!(recipe.len(), 1, "word-serial ADD is a single micro-op");
        assert_eq!(
            d.recipe_cycles(&recipe),
            d.uop_cycles(MicroOpKind::WordAlu) * d.geometry().lanes_per_vrf as u64
        );
    }

    #[test]
    fn recipes_cost_what_the_model_says() {
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let recipe = dp.recipe(&add_instr()).unwrap();
            let cycles = dp.recipe_cycles(&recipe);
            assert!(cycles > 0);
            let energy = dp.recipe_energy_pj(&recipe, dp.geometry().lanes_per_vrf);
            assert!(energy > 0.0);
            // Stage cycles never exceed serial cycles.
            assert!(dp.recipe_stage_cycles(&recipe) <= cycles);
        }
    }

    #[test]
    fn racer_pipelining_divides_stage_cost() {
        let dp = DatapathModel::racer();
        let recipe = dp.recipe(&add_instr()).unwrap();
        let serial = dp.recipe_cycles(&recipe);
        let stage = dp.recipe_stage_cycles(&recipe);
        assert!(dp.bit_pipelined());
        assert_eq!(stage, (serial / 64).max(1));
        // Duality Cache is not pipelined: stage == serial.
        let dc = DatapathModel::duality_cache();
        let r = dc.recipe(&add_instr()).unwrap();
        assert_eq!(dc.recipe_stage_cycles(&r), dc.recipe_cycles(&r));
    }

    #[test]
    fn duality_cache_add_is_cheap_thanks_to_cmos_adders() {
        // DC's FullAdd computes sum+carry in one 14-cycle op; RACER needs
        // 9 NORs + copy at 10 cycles each. Per-instruction serial latency
        // must reflect that.
        let dc = DatapathModel::duality_cache();
        let racer = DatapathModel::racer();
        let dc_cycles = dc.recipe_cycles(&dc.recipe(&add_instr()).unwrap());
        let racer_cycles = racer.recipe_cycles(&racer.recipe(&add_instr()).unwrap());
        assert!(
            dc_cycles < racer_cycles,
            "DC ADD {dc_cycles} should beat serial RACER ADD {racer_cycles}"
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_uop_cost_panics() {
        DatapathModel::racer().uop_cycles(MicroOpKind::Tra);
    }

    #[test]
    fn geometry_derived_quantities() {
        let g = DatapathModel::racer().geometry();
        assert_eq!(g.max_active_vrfs_per_mpu(), 8);
        assert_eq!(g.lanes_per_mpu(), 512 * 64);
        assert_eq!(g.temp_regs(), (14, 15));
        assert_eq!(g.usable_regs(), 14);
        let m = DatapathModel::mimdram().geometry();
        assert_eq!(m.max_active_vrfs_per_mpu(), 512);
    }

    #[test]
    fn builder_constructs_custom_backend() {
        let dp = DatapathBuilder::new("TestPUM", LogicFamily::Bitline)
            .lanes_per_vrf(32)
            .active_vrfs_per_rfh(4)
            .mpus_per_chip(10)
            .uop(MicroOpKind::And, 3, 0.1)
            .uop(MicroOpKind::Or, 3, 0.1)
            .uop(MicroOpKind::Xor, 3, 0.1)
            .uop(MicroOpKind::Not, 3, 0.1)
            .uop(MicroOpKind::FullAdd, 3, 0.1)
            .uop(MicroOpKind::Copy, 3, 0.1)
            .uop(MicroOpKind::Set, 3, 0.1)
            .bit_pipelined(8)
            .build();
        assert_eq!(dp.kind(), DatapathKind::Custom);
        assert_eq!(dp.name(), "TestPUM");
        assert!(dp.recipe(&add_instr()).is_some());
        assert_eq!(dp.geometry().max_active_vrfs_per_mpu(), 32);
    }

    #[test]
    #[should_panic(expected = "requires a cost")]
    fn builder_rejects_incomplete_uop_set() {
        DatapathBuilder::new("Broken", LogicFamily::Nor).uop(MicroOpKind::Nor, 1, 0.1).build();
    }

    #[test]
    fn supports_lists_native_kinds() {
        let r = DatapathModel::racer();
        assert!(r.supports().contains(&MicroOpKind::Nor));
        assert!(!r.supports().contains(&MicroOpKind::Tra));
        let m = DatapathModel::mimdram();
        assert!(m.supports().contains(&MicroOpKind::Tra));
    }
}
