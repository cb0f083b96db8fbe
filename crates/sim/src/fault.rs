//! Fault-injection configuration and recovery policies.
//!
//! [`FaultConfig`] describes *what goes wrong*: it is expanded into one
//! seeded [`FaultModel`] per VRF (each with its own derived, uncorrelated
//! PRNG stream) plus a NoC-level drop/corruption stream. The per-micro-op
//! transient rate is weighted by the logic family's table
//! ([`pum_backend::FamilyTable::kinds`]) so each technology's dominant
//! analog failure mechanism — TRA charge-sharing in DRAM, NOR pull-down in
//! ReRAM, bitline upsets in SRAM — carries the bulk of the configured
//! rate.
//!
//! [`RecoveryPolicy`] describes *what the machine does about it*: modular
//! redundancy over compute ensembles with bounded retry, permanent-fault
//! lane remapping onto spare lanes, checkpoint/restart at ensemble
//! boundaries, NoC retransmission, a blocking-`RECV` timeout, and a
//! control-flow watchdog. Every recovery mechanism charges its overhead
//! (extra runs, retries, remap copies, retransmissions) to the existing
//! cycle/energy accounting.
//!
//! With `seed: None` (the default) no fault model is ever built and the
//! simulator is byte-identical to one without the fault layer.

use pum_backend::{FaultModel, FaultPrng, LogicFamily};

/// Location of one permanently stuck bit-line lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckLane {
    /// MPU the faulty VRF belongs to.
    pub mpu: u16,
    /// RF holder index.
    pub rfh: u16,
    /// VRF index within the holder.
    pub vrf: u16,
    /// The stuck lane.
    pub lane: usize,
    /// Stuck value: `true` = stuck-at-1, `false` = stuck-at-0.
    pub value: bool,
}

/// What goes wrong: the seeded hardware fault configuration of a chip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Master seed. `None` disables the fault layer entirely (no models
    /// are built; hot paths stay single-branch). `Some(seed)` arms it —
    /// even with all rates zero, which is useful to prove the plumbing
    /// itself perturbs nothing.
    pub seed: Option<u64>,
    /// Per-micro-op transient bit-plane flip probability for a
    /// technology's dominant mechanism; other micro-op kinds scale by
    /// their family-table weight.
    pub transient_rate: f64,
    /// Probability that a *runtime* register write (message delivery,
    /// transfer landing) flips one bit.
    pub write_corruption_rate: f64,
    /// Permanently stuck bit-line lanes.
    pub stuck_lanes: Vec<StuckLane>,
    /// Probability that the NoC drops a message.
    pub noc_drop_rate: f64,
    /// Probability that the NoC corrupts one bit of a message payload.
    pub noc_corruption_rate: f64,
}

impl FaultConfig {
    /// True when the fault layer is armed (a seed is set).
    pub fn enabled(&self) -> bool {
        self.seed.is_some()
    }

    /// Expands the configuration into the fault model for one VRF, with a
    /// stream seed derived from `(seed, mpu, rfh, vrf)` so every VRF's
    /// fault sequence is independent and replayable. `None` when disabled.
    ///
    /// Each kind's rate is the family-table weight per lane; a word-serial
    /// micro-op walks all `lanes`, so its weight scales by the lane count.
    pub fn vrf_model(
        &self,
        family: LogicFamily,
        mpu: u16,
        rfh: u16,
        vrf: u16,
        lanes: usize,
    ) -> Option<FaultModel> {
        let seed = self.seed?;
        let salt = ((mpu as u64) << 32) | ((rfh as u64) << 16) | vrf as u64;
        let mut model = FaultModel::new(FaultPrng::derive(seed, salt), lanes);
        if self.transient_rate > 0.0 {
            let lanes_per_op = if family.word_serial() { lanes as f64 } else { 1.0 };
            for &(kind, weight) in family.table().kinds {
                if weight > 0.0 {
                    model.set_transient_rate(kind, self.transient_rate * (weight * lanes_per_op));
                }
            }
        }
        model.set_write_corruption_rate(self.write_corruption_rate);
        for s in &self.stuck_lanes {
            if s.mpu == mpu && s.rfh == rfh && s.vrf == vrf && s.lane < lanes {
                model.add_stuck_lane(s.lane, s.value);
            }
        }
        Some(model)
    }

    /// Derived seed for the NoC's drop/corruption stream. `None` when
    /// disabled.
    pub fn noc_seed(&self) -> Option<u64> {
        self.seed.map(|s| FaultPrng::derive(s, u64::MAX))
    }
}

/// Redundant-execution mode for compute ensembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// Single execution, no checking.
    None,
    /// Duplicate-and-compare: run twice, compare lane-exactly; on
    /// mismatch, retry (both runs) up to
    /// [`RecoveryPolicy::max_retries`] times, then escalate.
    Dmr,
    /// Triple modular redundancy: run three times and commit the bitwise
    /// word-level majority — any single-run fault per bit is corrected in
    /// place.
    Tmr,
}

/// What the machine does about faults: detection, recovery, and
/// containment knobs. All overhead is charged to the normal cycle/energy
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Redundant execution of compute instructions.
    pub redundancy: Redundancy,
    /// Bounded retries for duplicate-and-compare mismatches (and NoC
    /// retransmissions) before escalating.
    pub max_retries: u32,
    /// Checkpoint VRF state at compute-ensemble boundaries and restart
    /// the ensemble when redundancy escalates an uncorrected fault.
    pub checkpoint_restart: bool,
    /// Bounded ensemble restarts before the error propagates.
    pub max_restarts: u32,
    /// Boot-time self-test each VRF, power-gate dead lanes, and remap the
    /// logical vector onto the remaining healthy lanes.
    pub remap: bool,
    /// Physical lanes reserved as spares per VRF when remapping: the
    /// logical vector width becomes `lanes - spare_lanes`, and up to
    /// `spare_lanes` dead lanes are absorbed with no capacity loss.
    pub spare_lanes: usize,
    /// Retransmit dropped/corrupted NoC messages (checksum-style
    /// detection) instead of losing or delivering them.
    pub noc_retry: bool,
    /// Cycle budget for a blocking `RECV` whose sender can no longer
    /// deliver: surfaces as `SimError::RecvTimeout` instead of an
    /// indefinite deadlock. `None` keeps the pure deadlock detector.
    pub recv_timeout: Option<u64>,
    /// Instruction budget per ensemble-body pass: a fault-corrupted loop
    /// counter that would spin (nearly) forever trips
    /// `SimError::WatchdogTriggered` instead. `None` disables it.
    pub watchdog_instructions: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            redundancy: Redundancy::None,
            max_retries: 3,
            checkpoint_restart: false,
            max_restarts: 1,
            remap: false,
            spare_lanes: 0,
            noc_retry: false,
            recv_timeout: None,
            watchdog_instructions: None,
        }
    }
}

impl RecoveryPolicy {
    /// Number of redundant executions per compute instruction.
    pub fn runs(&self) -> u32 {
        match self.redundancy {
            Redundancy::None => 1,
            Redundancy::Dmr => 2,
            Redundancy::Tmr => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_models() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg.vrf_model(LogicFamily::Nor, 0, 0, 0, 64), None);
        assert_eq!(cfg.noc_seed(), None);
    }

    #[test]
    fn vrf_models_get_independent_streams() {
        let cfg = FaultConfig { seed: Some(7), transient_rate: 0.5, ..Default::default() };
        let a = cfg.vrf_model(LogicFamily::Nor, 0, 0, 0, 64).unwrap();
        let b = cfg.vrf_model(LogicFamily::Nor, 0, 0, 1, 64).unwrap();
        let c = cfg.vrf_model(LogicFamily::Nor, 1, 0, 0, 64).unwrap();
        assert_ne!(a.seed(), b.seed());
        assert_ne!(a.seed(), c.seed());
        // And rebuilding reproduces the same stream (replayability).
        let a2 = cfg.vrf_model(LogicFamily::Nor, 0, 0, 0, 64).unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn stuck_lanes_only_apply_to_their_vrf() {
        let cfg = FaultConfig {
            seed: Some(1),
            stuck_lanes: vec![StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 3, value: true }],
            ..Default::default()
        };
        assert!(cfg.vrf_model(LogicFamily::Nor, 0, 0, 0, 64).unwrap().has_forced_lanes());
        assert!(!cfg.vrf_model(LogicFamily::Nor, 0, 0, 1, 64).unwrap().has_forced_lanes());
        assert!(!cfg.vrf_model(LogicFamily::Nor, 1, 0, 0, 64).unwrap().has_forced_lanes());
    }

    #[test]
    fn word_serial_weights_scale_with_lanes() {
        use pum_backend::MicroOpKind::{WordAlu, WordDiv, WordMul};
        let cfg = FaultConfig { seed: Some(3), transient_rate: 1e-4, ..Default::default() };
        // At 64 lanes: the whole-op weights the DPU has always drawn with.
        for (lanes, weights) in [(64, [64.0, 358.0, 597.0]), (32, [32.0, 179.0, 298.5])] {
            let mut want = FaultModel::new(FaultPrng::derive(3, 0), lanes);
            for (kind, weight) in [WordAlu, WordMul, WordDiv].into_iter().zip(weights) {
                want.set_transient_rate(kind, 1e-4 * weight);
            }
            assert_eq!(cfg.vrf_model(LogicFamily::WordSerial, 0, 0, 0, lanes), Some(want));
        }
    }

    #[test]
    fn policy_default_is_fully_inert() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.redundancy, Redundancy::None);
        assert_eq!(p.runs(), 1);
        assert!(!p.checkpoint_restart && !p.remap && !p.noc_retry);
        assert_eq!(p.recv_timeout, None);
        assert_eq!(p.watchdog_instructions, None);
    }

    #[test]
    fn redundancy_run_counts() {
        let mut p = RecoveryPolicy { redundancy: Redundancy::Dmr, ..Default::default() };
        assert_eq!(p.runs(), 2);
        p.redundancy = Redundancy::Tmr;
        assert_eq!(p.runs(), 3);
    }
}
