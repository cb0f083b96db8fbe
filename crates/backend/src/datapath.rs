//! Parametric models of bitwise PUM datapaths (paper §II-C, §IV, Table III).
//!
//! A [`DatapathModel`] captures everything the MPU front end needs to know
//! about a back end: its logic family (which fixes instruction recipes),
//! geometry (VRF/RFH mapping, Table III), per-micro-op timing and energy,
//! whether execution is bit-pipelined (RACER), and inter-VRF transfer
//! costs. Five calibrated models ship with the crate, one per
//! [`DatapathKind`]:
//!
//! * [`DatapathModel::racer`] — ReRAM, bit-pipelined NOR (RACER + OSCAR).
//!   VRF = pipeline (64 tiles), RFH = cluster, 1 active VRF per cluster
//!   (thermal), 497 MPUs on a 4 cm² chip.
//! * [`DatapathModel::mimdram`] — DRAM, triple-row activation. VRF = mat
//!   group, RFH = µPE, all local VRFs may activate, 450 MPUs.
//! * [`DatapathModel::duality_cache`] — SRAM bitline + CMOS adders. VRF =
//!   subarray group, RFH = issue window, all local VRFs may activate,
//!   12 MPUs (cache capacity).
//! * [`DatapathModel::pluto`] — DRAM LUT queries (pLUTo).
//! * [`DatapathModel::dpu`] — UPMEM-style word-serial near-bank cores.
//!
//! Any other substrate is a [`DatapathBuilder`] model: a geometry, a cost
//! per micro-op kind of its logic family, and optionally a pipeline depth.
//!
//! Cycle counts are at the 1 GHz MPU clock. Energy constants are per lane
//! per micro-op and were chosen from the cited technology papers' orders
//! of magnitude, then calibrated so the cross-datapath trends of the MPU
//! paper's evaluation hold (see DESIGN.md §2). They are written in pJ and
//! held as whole femtojoules ([`pj_to_fj`]): the simulator's energy ledger
//! is integer, so every charge commutes.

use crate::logic::LogicFamily;
use crate::microop::MicroOpKind;
use crate::recipe::{build_recipe, Recipe, RecipeCtx};
use mpu_isa::Instruction;

/// Converts a configured energy in pJ to the simulator's ledger unit,
/// whole femtojoules, rounding to the nearest fJ. Every configured pJ or
/// `mW × cycles` value (1 mW for one 1 GHz cycle is 1 pJ) converts here.
///
/// # Panics
///
/// Panics if `pj` is negative or not finite.
pub fn pj_to_fj(pj: f64) -> u64 {
    assert!(pj.is_finite() && pj >= 0.0, "energy must be finite and non-negative, got {pj} pJ");
    (pj * 1000.0).round() as u64
}

/// What one micro-op of a kind costs on a datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopCost {
    /// Issue/occupancy cycles at the 1 GHz MPU clock.
    pub cycles: u32,
    /// Switching energy per active lane, femtojoules.
    pub fj_per_lane: u32,
}

/// A datapath's dense per-[`MicroOpKind`] cost table, indexed by
/// [`MicroOpKind::index`], with a bit per kind the datapath can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostTable {
    costs: [(u32, u32); MicroOpKind::ALL.len()],
    supported: u16,
}

impl CostTable {
    /// Builds a table from `(kind, cycles, pJ per lane)` entries.
    fn from_pj(entries: &[(MicroOpKind, u64, f64)]) -> Self {
        let mut table = Self::default();
        for &(kind, cycles, pj) in entries {
            table.set(kind, cycles, pj);
        }
        table
    }

    fn set(&mut self, kind: MicroOpKind, cycles: u64, pj_per_lane: f64) {
        let cycles = u32::try_from(cycles).expect("micro-op cycles fit in u32");
        let fj = u32::try_from(pj_to_fj(pj_per_lane)).expect("micro-op fJ per lane fit in u32");
        self.costs[kind.index()] = (cycles, fj);
        self.supported |= 1 << kind.index();
    }

    /// The cost of `kind`, or `None` if the datapath cannot issue it.
    pub fn get(&self, kind: MicroOpKind) -> Option<UopCost> {
        let (cycles, fj_per_lane) = self.costs[kind.index()];
        (self.supported >> kind.index() & 1 == 1).then_some(UopCost { cycles, fj_per_lane })
    }
}

/// Every recipe-pool probe hashes a [`RecipeCtx`], of which this table is
/// most, so it is folded into one word first (FNV-1a style).
impl std::hash::Hash for CostTable {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let fold = self.costs.iter().fold(u64::from(self.supported), |h, &(cycles, fj)| {
            (h ^ (u64::from(cycles) << 32 | u64::from(fj))).wrapping_mul(0x100_0000_01b3)
        });
        state.write_u64(fold);
    }
}

/// What one compiled recipe costs on a datapath, computed once per
/// compiled template ([`RecipeCtx::recipe_cost`]) and charged as stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeCost {
    /// Cycles to issue the recipe serially (a cold bit-pipeline).
    pub cycles: u64,
    /// Cycles on one stage of a warm bit-pipeline (`cycles / depth`, at
    /// least 1); `cycles` when the datapath is not bit-pipelined.
    pub stage_cycles: u64,
    /// Energy per enabled lane, fJ (a VRF costs `fj_per_lane × enabled`).
    pub fj_per_lane: u64,
}

/// Which shipped datapath a model describes: the one place substrate
/// names are spelled.
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
}

impl DatapathKind {
    /// The three paper-evaluated backends (figure/table reproductions).
    pub const EVALUATED: [DatapathKind; 3] =
        [DatapathKind::Racer, DatapathKind::Mimdram, DatapathKind::DualityCache];

    /// Every shipped backend — the sweep constant for conformance, fault,
    /// and perf-gate matrices.
    pub const ALL: [DatapathKind; 5] = [
        DatapathKind::Racer,
        DatapathKind::Mimdram,
        DatapathKind::DualityCache,
        DatapathKind::Pluto,
        DatapathKind::Dpu,
    ];

    /// Extra spellings [`DatapathKind::parse`] accepts besides the tags.
    const ALIASES: [(&'static str, DatapathKind); 3] = [
        ("dualitycache", DatapathKind::DualityCache),
        ("dc", DatapathKind::DualityCache),
        ("upmem", DatapathKind::Dpu),
    ];

    /// The wire and command-line spelling of this backend.
    pub fn tag(self) -> &'static str {
        match self {
            DatapathKind::Racer => "racer",
            DatapathKind::Mimdram => "mimdram",
            DatapathKind::DualityCache => "duality-cache",
            DatapathKind::Pluto => "pluto",
            DatapathKind::Dpu => "dpu",
        }
    }

    /// Every tag in [`DatapathKind::ALL`] order, joined by `sep`, for
    /// usage and error messages.
    pub fn tags(sep: &str) -> String {
        Self::ALL.map(Self::tag).join(sep)
    }

    /// Parses a [`DatapathKind::tag`] or one of its aliases
    /// (`dualitycache`, `dc`, `upmem`), ignoring ASCII case.
    pub fn parse(name: &str) -> Option<DatapathKind> {
        let name = name.to_ascii_lowercase();
        let tags = Self::ALL.map(|kind| (kind.tag(), kind));
        tags.into_iter().chain(Self::ALIASES).find(|&(tag, _)| tag == name).map(|(_, kind)| kind)
    }
}

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

    /// VRFs an MPU keeps in one [`crate::PlaneBank`]: one VRF of each RFH
    /// when a thermal wave takes one VRF per RFH and a plane is one word,
    /// else 1 (each VRF owns its planes).
    ///
    /// Such a wave is the same VRF of every RFH, so banking those VRFs
    /// lets the wave run each micro-op as one `rfhs_per_mpu`-word kernel
    /// call instead of one call per member. A plane of several words
    /// already fills a kernel call, so wider VRFs gain nothing from a bank.
    pub fn bank_vrfs(&self) -> usize {
        if self.active_vrfs_per_rfh == 1 && self.lanes_per_vrf <= 64 {
            self.rfhs_per_mpu
        } else {
            1
        }
    }
}

/// A calibrated PUM datapath model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathModel {
    name: String,
    family: LogicFamily,
    geometry: Geometry,
    costs: CostTable,
    /// Bit-pipeline depth in bit-stages (RACER: tiles per pipeline);
    /// `None` when instructions do not overlap across bit-stages.
    pipeline_depth: Option<u32>,
    /// Cycles to move one 64-bit word between VRFs of adjacent RFHs.
    transfer_cycles_per_word: u64,
    /// Energy (fJ) to move one 64-bit word between VRFs.
    transfer_fj_per_word: u64,
    /// Static (leakage) power per VRF, in milliwatts.
    static_power_mw_per_vrf: f64,
    /// Dynamic power of one VRF actively executing micro-ops, mW.
    active_power_mw_per_vrf: f64,
    /// Die area of one VRF's memory arrays, mm².
    vrf_area_mm2: f64,
    /// Recipe-optimizer configuration applied by [`DatapathModel::recipe`].
    opt: crate::opt::OptConfig,
}

impl DatapathModel {
    /// The ReRAM-based RACER backend (paper §II-C, §IV, Table III).
    pub fn racer() -> Self {
        Self {
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
            // similar. Low-current OSCAR switching: tens of femtojoules per
            // cell.
            costs: CostTable::from_pj(&[
                (MicroOpKind::Nor, 2, 0.020),
                (MicroOpKind::Copy, 2, 0.025),
                (MicroOpKind::Set, 2, 0.012),
            ]),
            pipeline_depth: Some(64),
            transfer_cycles_per_word: 16,
            transfer_fj_per_word: pj_to_fj(12.0),
            static_power_mw_per_vrf: 0.0013, // ReRAM is non-volatile; PCC leakage only
            // Peak switching power while driving NOR write currents: the
            // thermal criterion Fig. 5 plots (averages are far lower).
            active_power_mw_per_vrf: 45.0,
            vrf_area_mm2: 0.0015,
            opt: crate::opt::OptConfig::default(),
        }
    }

    /// The DRAM-based MIMDRAM backend.
    pub fn mimdram() -> Self {
        Self {
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
            costs: CostTable::from_pj(&[
                (MicroOpKind::Tra, 20, 0.09),
                (MicroOpKind::Not, 20, 0.06),
                (MicroOpKind::Copy, 28, 0.12),
                (MicroOpKind::Set, 20, 0.05),
            ]),
            pipeline_depth: None,
            transfer_cycles_per_word: 24,
            transfer_fj_per_word: pj_to_fj(20.0),
            static_power_mw_per_vrf: 0.011, // refresh + peripheral leakage
            active_power_mw_per_vrf: 1.4,
            vrf_area_mm2: 0.0016,
            opt: crate::opt::OptConfig::default(),
        }
    }

    /// The SRAM-based Duality Cache backend.
    pub fn duality_cache() -> Self {
        Self {
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
            costs: CostTable::from_pj(&[
                (MicroOpKind::And, 14, 0.020),
                (MicroOpKind::Or, 14, 0.020),
                (MicroOpKind::Xor, 14, 0.025),
                (MicroOpKind::Not, 14, 0.015),
                (MicroOpKind::FullAdd, 14, 0.035),
                (MicroOpKind::Copy, 14, 0.020),
                (MicroOpKind::Set, 14, 0.012),
            ]),
            pipeline_depth: None,
            transfer_cycles_per_word: 8,
            transfer_fj_per_word: pj_to_fj(6.0),
            static_power_mw_per_vrf: 0.045, // SRAM leakage dominates
            active_power_mw_per_vrf: 1.9,
            vrf_area_mm2: 0.055, // SRAM density is poor (0.2 GB chip)
            opt: crate::opt::OptConfig::default(),
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
            costs: CostTable::from_pj(&[
                (MicroOpKind::Lut, 46, 0.10),
                (MicroOpKind::Copy, 28, 0.12),
                (MicroOpKind::Set, 20, 0.05),
            ]),
            pipeline_depth: None,
            transfer_cycles_per_word: 24,
            transfer_fj_per_word: pj_to_fj(20.0),
            static_power_mw_per_vrf: 0.011, // refresh + peripheral leakage
            active_power_mw_per_vrf: 1.5,
            vrf_area_mm2: 0.0019, // mat area + LUT source/destination rows
            opt: crate::opt::OptConfig::default(),
        }
    }

    /// The UPMEM-style commercial DPU backend, calibrated against the PrIM
    /// characterization (arXiv:2105.03814).
    ///
    /// A DPU is a word-serial near-bank core: no inter-lane bit-plane
    /// primitives exist, so recipes fall back to one [`MicroOp::Word`] per
    /// instruction and cycle counts scale with the lanes processed
    /// sequentially ([`RecipeCost::cycles`]). PrIM's throughput
    /// numbers give the per-element cost ratios: add/sub/logic ≈ 1×,
    /// 32-bit multiply ≈ 8× (software-pipelined shifts on a core without
    /// a hardware multiplier), division ≈ 13×.
    pub fn dpu() -> Self {
        Self {
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
            costs: CostTable::from_pj(&[
                (MicroOpKind::WordAlu, 12, 4.5),
                (MicroOpKind::WordMul, 96, 30.0),
                (MicroOpKind::WordDiv, 160, 55.0),
            ]),
            pipeline_depth: None,
            transfer_cycles_per_word: 64, // through the DMA engine + WRAM
            transfer_fj_per_word: pj_to_fj(45.0),
            static_power_mw_per_vrf: 0.02,
            active_power_mw_per_vrf: 2.8, // a running RISC core, not an array
            vrf_area_mm2: 0.02,
            opt: crate::opt::OptConfig::default(),
        }
    }

    /// The calibrated model of a shipped backend.
    pub fn for_kind(kind: DatapathKind) -> Self {
        match kind {
            DatapathKind::Racer => Self::racer(),
            DatapathKind::Mimdram => Self::mimdram(),
            DatapathKind::DualityCache => Self::duality_cache(),
            DatapathKind::Pluto => Self::pluto(),
            DatapathKind::Dpu => Self::dpu(),
        }
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

    /// Why `instr`'s register operands cannot run on this datapath
    /// ([`Instruction::operand_error`] against its VRF and the temporaries
    /// its recipes reserve), or `None` when they can. These are the facts
    /// recipe synthesis asserts, so an instruction that passes never
    /// reaches a synthesis or compile panic.
    pub fn operand_error(&self, instr: &Instruction) -> Option<mpu_isa::OperandError> {
        instr.operand_error(self.geometry.regs_per_vrf, self.recipe_ctx().reserved_temps())
    }

    /// Recipe-synthesis context: family, reserved temp registers, optimizer
    /// configuration, and every cost a [`RecipeCost`] reads. It keys every
    /// recipe memo, so models that disagree on any of these share nothing.
    pub fn recipe_ctx(&self) -> RecipeCtx {
        RecipeCtx {
            family: self.family,
            temp_regs: self.geometry.temp_regs(),
            opt: self.opt,
            costs: self.costs,
            pipeline_depth: self.pipeline_depth,
        }
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
        Some(crate::opt::optimize(&template, self.family, self.opt, &|kind| self.opt_cost(kind)))
    }

    /// The optimizer's price of one `kind` micro-op, `(cycles, pJ per
    /// lane)`, or `None` when this backend cannot issue it.
    pub(crate) fn opt_cost(&self, kind: MicroOpKind) -> Option<(u64, f64)> {
        self.costs.get(kind).map(|c| (c.cycles.into(), self.uop_energy_pj(kind, 1)))
    }

    /// What `recipe` costs on this datapath ([`RecipeCtx::recipe_cost`]
    /// at this geometry's lane count).
    pub fn recipe_cost(&self, recipe: &Recipe) -> RecipeCost {
        self.recipe_ctx().recipe_cost(recipe, self.geometry.lanes_per_vrf)
    }

    /// The cost of one `kind` micro-op; panics if `kind` is not native to
    /// this backend (recipes only emit supported kinds).
    fn uop_cost(&self, kind: MicroOpKind) -> UopCost {
        self.costs.get(kind).unwrap_or_else(|| panic!("{} does not support {kind}", self.name))
    }

    /// Issue/occupancy cycles of one micro-op at the 1 GHz MPU clock
    /// (panics like [`Self::uop_cost`]).
    pub fn uop_cycles(&self, kind: MicroOpKind) -> u64 {
        self.uop_cost(kind).cycles.into()
    }

    /// Energy of one micro-op in pJ across `lanes` active lanes (panics
    /// like [`Self::uop_cost`]): a view of the integer cost for the recipe
    /// optimizer, exact for every pJ literal with at most three decimals.
    pub fn uop_energy_pj(&self, kind: MicroOpKind, lanes: usize) -> f64 {
        f64::from(self.uop_cost(kind).fj_per_lane) / 1000.0 * lanes as f64
    }

    /// Whether consecutive instructions overlap across bit-stages (RACER's
    /// bit-pipelining, paper §II-C).
    pub fn bit_pipelined(&self) -> bool {
        self.pipeline_depth.is_some()
    }

    /// Pipeline depth in bit-stages.
    pub fn pipeline_depth(&self) -> u32 {
        self.pipeline_depth.unwrap_or(1)
    }

    /// Cycles to move one 64-bit word between VRFs (intra-MPU).
    pub fn transfer_cycles_per_word(&self) -> u64 {
        self.transfer_cycles_per_word
    }

    /// Energy (fJ) to move one 64-bit word between VRFs (intra-MPU).
    pub fn transfer_fj_per_word(&self) -> u64 {
        self.transfer_fj_per_word
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
        MicroOpKind::ALL.into_iter().filter(|&k| self.costs.get(k).is_some()).collect()
    }

    pub(crate) fn replace_thermal(&mut self, active_mw: f64, static_mw: f64, vrf_area_mm2: f64) {
        self.active_power_mw_per_vrf = active_mw;
        self.static_power_mw_per_vrf = static_mw;
        self.vrf_area_mm2 = vrf_area_mm2;
    }
}

/// Builder for custom datapath models, demonstrating that the MPU front
/// end is not tied to the shipped backends.
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
        model.name = name.to_string();
        model.family = family;
        model.costs = CostTable::default();
        model.pipeline_depth = None;
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

    /// Registers a supported micro-op with its latency and per-lane energy
    /// in pJ, held as whole femtojoules ([`pj_to_fj`] panics on a negative
    /// or non-finite energy).
    pub fn uop(mut self, kind: MicroOpKind, cycles: u64, energy_pj_per_lane: f64) -> Self {
        self.model.costs.set(kind, cycles, energy_pj_per_lane);
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
        self.model.pipeline_depth = Some(depth);
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
                self.model.costs.get(kind).is_some(),
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
        let d = DatapathModel::dpu();
        assert_eq!(d.family(), LogicFamily::WordSerial);
        // PrIM cost ratios: MUL ≈ 8× ALU, DIV slower still.
        assert_eq!(d.uop_cycles(MicroOpKind::WordMul), 8 * d.uop_cycles(MicroOpKind::WordAlu));
        assert!(d.uop_cycles(MicroOpKind::WordDiv) > d.uop_cycles(MicroOpKind::WordMul));
    }

    #[test]
    fn all_covers_every_shipped_backend() {
        assert_eq!(DatapathKind::ALL.len(), 5);
        let names = DatapathKind::ALL.map(|kind| DatapathModel::for_kind(kind).name().to_string());
        assert_eq!(names, ["RACER", "MIMDRAM", "DualityCache", "pLUTo", "DPU"]);
        for kind in DatapathKind::EVALUATED {
            assert!(DatapathKind::ALL.contains(&kind), "EVALUATED ⊆ ALL");
        }
    }

    #[test]
    fn tags_round_trip_and_aliases_parse() {
        assert_eq!(DatapathKind::tags("|"), "racer|mimdram|duality-cache|pluto|dpu");
        for kind in DatapathKind::ALL {
            assert_eq!(DatapathKind::parse(kind.tag()), Some(kind));
            assert_eq!(DatapathKind::parse(&kind.tag().to_ascii_uppercase()), Some(kind));
        }
        for (alias, kind) in [
            ("dualitycache", DatapathKind::DualityCache),
            ("DualityCache", DatapathKind::DualityCache),
            ("dc", DatapathKind::DualityCache),
            ("upmem", DatapathKind::Dpu),
            ("UPMEM", DatapathKind::Dpu),
        ] {
            assert_eq!(DatapathKind::parse(alias), Some(kind), "{alias}");
        }
        for bad in ["custom", "", "rac er", "racer ", "räcer", "dpü", "all"] {
            assert_eq!(DatapathKind::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn word_serial_cycles_scale_with_lanes() {
        let d = DatapathModel::dpu();
        let recipe = d.recipe(&add_instr()).unwrap();
        assert_eq!(recipe.len(), 1, "word-serial ADD is a single micro-op");
        assert_eq!(
            d.recipe_cost(&recipe).cycles,
            d.uop_cycles(MicroOpKind::WordAlu) * d.geometry().lanes_per_vrf as u64
        );
    }

    #[test]
    fn recipes_cost_what_the_model_says() {
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let recipe = dp.recipe(&add_instr()).unwrap();
            let cost = dp.recipe_cost(&recipe);
            assert!(cost.cycles > 0);
            let fj: u64 =
                recipe.ops().iter().map(|op| u64::from(dp.uop_cost(op.kind()).fj_per_lane)).sum();
            assert!(fj > 0);
            assert_eq!(cost.fj_per_lane, fj, "energy is the per-op sum");
            // Stage cycles never exceed serial cycles.
            assert!(cost.stage_cycles <= cost.cycles);
        }
    }

    #[test]
    fn racer_pipelining_divides_stage_cost() {
        let dp = DatapathModel::racer();
        let recipe = dp.recipe(&add_instr()).unwrap();
        let cost = dp.recipe_cost(&recipe);
        assert!(dp.bit_pipelined());
        assert_eq!(cost.stage_cycles, (cost.cycles / 64).max(1));
        // Duality Cache is not pipelined: stage == serial.
        let dc = DatapathModel::duality_cache();
        let cost = dc.recipe_cost(&dc.recipe(&add_instr()).unwrap());
        assert_eq!(cost.stage_cycles, cost.cycles);
    }

    #[test]
    fn duality_cache_add_is_cheap_thanks_to_cmos_adders() {
        // DC's FullAdd computes sum+carry in one 14-cycle op; RACER needs
        // 9 NORs + copy at 10 cycles each. Per-instruction serial latency
        // must reflect that.
        let dc = DatapathModel::duality_cache();
        let racer = DatapathModel::racer();
        let dc_cycles = dc.recipe_cost(&dc.recipe(&add_instr()).unwrap()).cycles;
        let racer_cycles = racer.recipe_cost(&racer.recipe(&add_instr()).unwrap()).cycles;
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
        assert_eq!(dp.name(), "TestPUM");
        assert!(dp.recipe(&add_instr()).is_some());
        assert_eq!(dp.geometry().max_active_vrfs_per_mpu(), 32);
    }

    #[test]
    fn builder_word_serial_model_charges_every_lane() {
        let dp = DatapathBuilder::new("TestDPU", LogicFamily::WordSerial)
            .lanes_per_vrf(64)
            .uop(MicroOpKind::WordAlu, 12, 4.5)
            .uop(MicroOpKind::WordMul, 96, 30.0)
            .uop(MicroOpKind::WordDiv, 160, 55.0)
            .build();
        let cost = dp.recipe_cost(&dp.recipe(&add_instr()).unwrap());
        assert_eq!(cost.cycles, 12 * 64, "one word ALU pass per lane");
        let dpu = DatapathModel::dpu();
        assert_eq!(cost, dpu.recipe_cost(&dpu.recipe(&add_instr()).unwrap()));
    }

    #[test]
    #[should_panic(expected = "requires a cost")]
    fn builder_rejects_incomplete_uop_set() {
        DatapathBuilder::new("Broken", LogicFamily::Nor).uop(MicroOpKind::Nor, 1, 0.1).build();
    }

    #[test]
    fn pj_to_fj_rounds_to_the_nearest_femtojoule() {
        // 1.005 × 1000.0 is 1004.9999999999999 in f64: truncation would
        // charge 1004 fJ.
        assert_eq!(pj_to_fj(1.005), 1005);
        assert_eq!(pj_to_fj(0.020), 20);
        assert_eq!(pj_to_fj(72.94293656), 72943);
        assert_eq!(pj_to_fj(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pj_to_fj_rejects_negative_energy() {
        pj_to_fj(-0.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pj_to_fj_rejects_nan() {
        pj_to_fj(f64::NAN);
    }

    #[test]
    fn pj_view_reproduces_three_decimal_literals() {
        // The optimizer prices micro-ops through `uop_energy_pj`; the fJ
        // table must hand it back the exact literal it was built from.
        for milli in 1..=100_000u32 {
            let literal: f64 = format!("{}.{:03}", milli / 1000, milli % 1000).parse().unwrap();
            assert_eq!((pj_to_fj(literal) as f64 / 1000.0).to_bits(), literal.to_bits());
        }
        let dp = DatapathModel::racer();
        assert_eq!(dp.uop_energy_pj(MicroOpKind::Nor, 1).to_bits(), 0.020f64.to_bits());
        assert_eq!(dp.uop_energy_pj(MicroOpKind::Copy, 64).to_bits(), (0.025f64 * 64.0).to_bits());
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
