//! Binary-portability autotuning (paper §VI-C).
//!
//! MPU binaries encode a compile-target VRFs-per-RFH parameter; the
//! runtime "can perform some degree of RFH/VRF-to-MPU remapping if the
//! target hardware uses a different parameter", and the paper envisions
//! GPU-style autotuning over the (small) search space. This module
//! implements that: given a program template parameterized by its
//! ensemble shape, [`autotune`] sweeps candidate shapes on the target
//! datapath, runs each, and returns the fastest within the hardware's
//! constraints.

use crate::config::SimConfig;
use crate::machine::{run_single, SimError};
use crate::stats::Stats;
use mpu_isa::Program;

/// One candidate ensemble shape: how many VRFs per RFH a block activates,
/// across how many RFHs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnsembleShape {
    /// RF holders the ensemble spans.
    pub rfhs: usize,
    /// VRFs named per RF holder.
    pub vrfs_per_rfh: usize,
}

impl EnsembleShape {
    /// The `(rfh, vrf)` member list this shape denotes.
    pub fn members(&self) -> Vec<(u16, u16)> {
        let mut members = Vec::with_capacity(self.rfhs * self.vrfs_per_rfh);
        for v in 0..self.vrfs_per_rfh {
            for h in 0..self.rfhs {
                members.push((h as u16, v as u16));
            }
        }
        members
    }

    /// Total VRFs (and therefore `lanes × total` elements) this shape
    /// computes on per pass.
    pub fn total_vrfs(&self) -> usize {
        self.rfhs * self.vrfs_per_rfh
    }
}

/// Result of evaluating one candidate shape.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The candidate shape.
    pub shape: EnsembleShape,
    /// Simulated statistics for one pass.
    pub stats: Stats,
    /// Figure of merit: elements processed per cycle (higher is better).
    pub throughput: f64,
}

/// Sweeps candidate ensemble shapes for a program template on a target
/// configuration and returns every evaluated point, best first.
///
/// `template` receives the member list and must return the program for
/// that shape plus its initial register data (as for
/// [`crate::run_single`]).
///
/// # Errors
///
/// Propagates the first simulation failure.
///
/// # Example
///
/// ```
/// use mastodon::{autotune, SimConfig};
/// use mpu_isa::{Instruction, Program, RegId, RfhId, VrfId};
/// use pum_backend::DatapathKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let results = autotune(&SimConfig::mpu(DatapathKind::Racer), |members| {
///     let mut instrs: Vec<Instruction> = members
///         .iter()
///         .map(|&(h, v)| Instruction::Compute { rfh: RfhId(h), vrf: VrfId(v) })
///         .collect();
///     instrs.push(Instruction::Unary {
///         op: mpu_isa::UnaryOp::Inc,
///         rs: RegId(0),
///         rd: RegId(1),
///     });
///     instrs.push(Instruction::ComputeDone);
///     (Program::from_instructions(instrs), Vec::new())
/// })?;
/// // On RACER (1 active VRF/RFH) the winner spans all 8 RFHs, 1 VRF each.
/// assert_eq!(results[0].shape.rfhs, 8);
/// # Ok(())
/// # }
/// ```
#[allow(clippy::type_complexity)]
pub fn autotune(
    config: &SimConfig,
    template: impl Fn(&[(u16, u16)]) -> (Program, Vec<((u16, u16, u8), Vec<u64>)>),
) -> Result<Vec<TuneResult>, SimError> {
    let g = config.datapath.geometry();
    let mut candidates = Vec::new();
    let mut v = 1;
    while v <= g.vrfs_per_rfh.min(8) {
        let mut h = 1;
        while h <= g.rfhs_per_mpu {
            candidates.push(EnsembleShape { rfhs: h, vrfs_per_rfh: v });
            h *= 2;
        }
        v *= 2;
    }

    let mut results = Vec::new();
    for shape in candidates {
        let members = shape.members();
        let (program, inputs) = template(&members);
        let (stats, _) = run_single(config.clone(), &program, &inputs)?;
        let elements = (shape.total_vrfs() * g.lanes_per_vrf) as f64;
        let throughput = elements / stats.cycles.max(1) as f64;
        results.push(TuneResult { shape, stats, throughput });
    }
    results.sort_by(|a, b| b.throughput.total_cmp(&a.throughput));
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::{BinaryOp, Instruction, RegId, RfhId, VrfId};
    use pum_backend::DatapathKind;

    fn template(members: &[(u16, u16)]) -> (Program, Vec<crate::machine::RegisterInit>) {
        let mut instrs: Vec<Instruction> = members
            .iter()
            .map(|&(h, v)| Instruction::Compute { rfh: RfhId(h), vrf: VrfId(v) })
            .collect();
        for _ in 0..4 {
            instrs.push(Instruction::Binary {
                op: BinaryOp::Add,
                rs: RegId(0),
                rt: RegId(1),
                rd: RegId(2),
            });
        }
        instrs.push(Instruction::ComputeDone);
        (Program::from_instructions(instrs), Vec::new())
    }

    #[test]
    fn racer_prefers_one_vrf_per_rfh() {
        // With 1 active VRF/RFH, extra VRFs per RFH serialize into waves:
        // same elements, proportionally more time. Throughput favors wide
        // shapes (all RFHs) over deep ones.
        let results = autotune(&SimConfig::mpu(DatapathKind::Racer), template).unwrap();
        let best = &results[0];
        assert_eq!(best.shape.rfhs, 8, "span every cluster");
        // Deep shapes on RACER need replay waves.
        let deep = results.iter().find(|r| r.shape.vrfs_per_rfh == 8 && r.shape.rfhs == 8).unwrap();
        assert!(deep.stats.scheduler_waves >= 8);
        assert!(best.throughput >= deep.throughput);
    }

    #[test]
    fn mimdram_tolerates_deep_shapes() {
        // MIMDRAM activates all local VRFs at once: deeper shapes process
        // more elements in the same single wave, so the best shape is the
        // largest one.
        let results = autotune(&SimConfig::mpu(DatapathKind::Mimdram), template).unwrap();
        let best = &results[0];
        assert_eq!(best.shape.total_vrfs(), 64, "biggest shape wins: {:?}", best.shape);
        assert_eq!(best.stats.scheduler_waves, 1);
    }

    #[test]
    fn results_are_sorted_by_throughput() {
        let results = autotune(&SimConfig::mpu(DatapathKind::Racer), template).unwrap();
        for pair in results.windows(2) {
            assert!(pair[0].throughput >= pair[1].throughput);
        }
        // The sweep covers both wide and deep candidates.
        assert!(results.iter().any(|r| r.shape.vrfs_per_rfh > 1));
        assert!(results.iter().any(|r| r.shape.rfhs > 1));
    }

    #[test]
    fn shape_member_enumeration() {
        let s = EnsembleShape { rfhs: 2, vrfs_per_rfh: 3 };
        let m = s.members();
        assert_eq!(m.len(), 6);
        assert!(m.contains(&(0, 0)) && m.contains(&(1, 2)));
        assert_eq!(s.total_vrfs(), 6);
    }
}
