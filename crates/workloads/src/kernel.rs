//! The kernel abstraction: each of the paper's 21 data-intensive kernels
//! builds an ezpim/ISA program for one scheduling wave of VRFs, supplies
//! seeded input data, a golden reference for verification, and a work
//! profile used by the analytical GPU/CPU models.

use mpu_isa::Program;
use pum_backend::Geometry;

/// The paper's four kernel groups (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelGroup {
    /// Kernels the RACER datapath can execute without CPU/MPU support.
    Basic,
    /// Kernels with multiple (nested) branches.
    Branch,
    /// Stencils, which Baselines express as Toeplitz mat-muls (~4×
    /// footprint inflation).
    Stencil,
    /// Kernels with complex control instructions the datapaths cannot run
    /// without a CPU/MPU.
    Complex,
    /// PrIM-style real-PIM benchmark staples (histogram, SpMV,
    /// gather/scatter, select, hash-join, prefix-scan).
    Prim,
}

impl KernelGroup {
    /// All groups, in the paper's order (PrIM extensions last).
    pub const ALL: [KernelGroup; 5] = [
        KernelGroup::Basic,
        KernelGroup::Branch,
        KernelGroup::Stencil,
        KernelGroup::Complex,
        KernelGroup::Prim,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelGroup::Basic => "basic",
            KernelGroup::Branch => "branch",
            KernelGroup::Stencil => "stencil",
            KernelGroup::Complex => "complex",
            KernelGroup::Prim => "prim",
        }
    }
}

/// Workload characterization consumed by the analytical GPU/CPU models
/// (our substitute for running on a real RTX 4090; see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// Arithmetic operations per element (on a conventional core).
    pub ops_per_elem: f64,
    /// DRAM bytes moved per element by a fused GPU implementation.
    pub bytes_per_elem: f64,
    /// Kernel launches needed per pass over the data.
    pub kernel_launches: u64,
    /// Fraction of GPU peak compute throughput the kernel can use
    /// (bit-twiddling and divergent kernels sit far below 1.0).
    pub gpu_efficiency: f64,
    /// Average dynamic iteration count for data-driven loops (1.0 if
    /// statically bounded) — scales both ops and divergence penalties.
    pub avg_trip_count: f64,
}

/// One wave's worth of executable kernel, with verification data.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// The MPU program for this wave.
    pub program: Program,
    /// Ensemble members (rfh, vrf) the program computes on.
    pub members: Vec<(u16, u16)>,
    /// Initial register data: ((rfh, vrf, reg), lane values).
    pub inputs: Vec<((u16, u16, u8), Vec<u64>)>,
    /// Registers holding results to verify: (rfh, vrf, reg).
    pub outputs: Vec<(u16, u16, u8)>,
    /// Expected lane values, parallel to `outputs`.
    pub expected: Vec<Vec<u64>>,
    /// High-level ezpim statements used (Table IV-style LoC metric).
    pub ezpim_statements: usize,
}

/// A data-intensive kernel from the paper's evaluation.
///
/// `Send + Sync` so sweeps can fan kernels out across worker threads
/// (kernels are stateless descriptors; all run state lives in the
/// simulator).
pub trait Kernel: Send + Sync {
    /// Kernel name as it appears on the figure x-axes.
    fn name(&self) -> &'static str;

    /// Which of the four groups it belongs to.
    fn group(&self) -> KernelGroup;

    /// Input vector registers consumed per element (for footprint and
    /// external-streaming estimates).
    fn regs_per_elem(&self) -> u32;

    /// Builds the program + data for one wave over `members`, with data
    /// seeded by `seed`. Stencil kernels may also stage data in `vrf + 1`
    /// of each member (the staging VRF convention).
    fn build(&self, geometry: &Geometry, members: &[(u16, u16)], seed: u64) -> BuiltKernel;

    /// Characterization for the analytical platform models.
    fn profile(&self) -> WorkProfile;

    /// Footprint multiplier a Baseline datapath pays (stencils → Toeplitz
    /// mat-mul conversion, ≈4×; everything else 1×).
    fn baseline_footprint(&self) -> f64 {
        if self.group() == KernelGroup::Stencil {
            4.0
        } else {
            1.0
        }
    }
}

/// Deterministic per-lane input generator.
pub fn gen_values(seed: u64, lanes: usize, max: u64) -> Vec<u64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..lanes).map(|_| rng.random_range(0..max)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_have_labels() {
        assert_eq!(KernelGroup::Basic.label(), "basic");
        assert_eq!(KernelGroup::Prim.label(), "prim");
        assert_eq!(KernelGroup::ALL.len(), 5);
    }

    #[test]
    fn gen_values_is_deterministic_and_bounded() {
        let a = gen_values(7, 100, 1000);
        let b = gen_values(7, 100, 1000);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v < 1000));
        let c = gen_values(8, 100, 1000);
        assert_ne!(a, c);
    }
}
