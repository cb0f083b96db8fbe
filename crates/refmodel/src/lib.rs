//! # refmodel — word-level golden model of the MPU ISA
//!
//! A direct interpreter for every Table-II instruction, executing on plain
//! `u64` lane values: no bit-planes, no micro-op recipes, no timing. It
//! shares the [`mpu_isa`] types with the simulator but deliberately depends
//! on nothing else, so it can serve as an independent semantic oracle for
//! differential testing of the bit-serial backends (RACER, MIMDRAM,
//! Duality Cache).
//!
//! What the model defines:
//!
//! * **Lane semantics** ([`semantics`]) — the architectural meaning of each
//!   arithmetic/logic/compare instruction on a single 64-bit lane, written
//!   from the ISA definition rather than from any recipe synthesizer.
//! * **Machine semantics** ([`RefMpu`]) — ensemble execution with
//!   thermal-wave replay, per-lane predication (mask/conditional planes),
//!   EFI loops, subroutine calls, transfer blocks, and `SEND`/`RECV`
//!   message passing, mirroring the architectural (not timed) behaviour of
//!   the simulator.
//! * **An architectural event trace** ([`RefTrace`]) — instructions
//!   retired, scheduler waves, messages and bytes sent, plus a list of
//!   coarse events (ensemble boundaries, transfers, communication), so
//!   perf refactors that silently change architectural counts show up as
//!   trace divergence.
//!
//! Deliberate non-goals: cycles and energy (timing model only lives in the
//! simulator) and the contents of the two reserved scratch registers
//! (`r14`/`r15` under the default 16-register geometry), which division
//! recipes clobber with implementation-defined values. Programs that read
//! the scratch registers after a division are outside the comparable
//! subset.
//!
//! # Example
//!
//! ```
//! use mpu_isa::Program;
//! use refmodel::{RefGeometry, RefMpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::parse_asm(
//!     "COMPUTE h0 v0\n\
//!      ADD r0 r1 r2\n\
//!      COMPUTE_DONE",
//! )?;
//! let mut mpu = RefMpu::new(RefGeometry::racer(), 0);
//! mpu.write_register(0, 0, 0, &[2; 64]);
//! mpu.write_register(0, 0, 1, &[40; 64]);
//! mpu.run(&program)?;
//! assert_eq!(mpu.read_register(0, 0, 2)[0], 42);
//! assert_eq!(mpu.trace().instructions, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod machine;
pub mod semantics;
mod system;

pub use machine::{
    run_ref, LaneInit, RefError, RefEvent, RefMessage, RefMpu, RefStep, RefTrace, RefWrite,
    RETURN_STACK_DEPTH,
};
pub use system::{RefSystem, RefSystemError};

/// The architectural geometry the reference model interprets against.
///
/// Matches the simulator's Table-III datapath geometries but is defined
/// here independently so the oracle shares no code with the backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefGeometry {
    /// Vector lanes (elements) per VRF.
    pub lanes_per_vrf: usize,
    /// Data registers per VRF.
    pub regs_per_vrf: usize,
    /// VRFs per RF holder.
    pub vrfs_per_rfh: usize,
    /// RF holders per MPU.
    pub rfhs_per_mpu: usize,
    /// Thermal limit: VRFs of one RFH active in the same wave.
    pub active_vrfs_per_rfh: usize,
    /// Iso-area MPU budget per chip (bounds [`RefSystem`] size).
    pub mpus_per_chip: usize,
}

impl RefGeometry {
    /// RACER-like geometry (64 lanes, 1 active VRF per RFH).
    pub fn racer() -> Self {
        Self {
            lanes_per_vrf: 64,
            regs_per_vrf: 16,
            vrfs_per_rfh: 64,
            rfhs_per_mpu: 8,
            active_vrfs_per_rfh: 1,
            mpus_per_chip: 497,
        }
    }

    /// MIMDRAM-like geometry (512 lanes, 256 active VRFs per RFH).
    pub fn mimdram() -> Self {
        Self {
            lanes_per_vrf: 512,
            regs_per_vrf: 16,
            vrfs_per_rfh: 64,
            rfhs_per_mpu: 8,
            active_vrfs_per_rfh: 256,
            mpus_per_chip: 450,
        }
    }

    /// Duality-Cache-like geometry (256 lanes, 256 active VRFs per RFH).
    pub fn duality_cache() -> Self {
        Self {
            lanes_per_vrf: 256,
            regs_per_vrf: 16,
            vrfs_per_rfh: 64,
            rfhs_per_mpu: 8,
            active_vrfs_per_rfh: 256,
            mpus_per_chip: 12,
        }
    }
}
