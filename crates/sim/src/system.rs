//! Multi-MPU system simulation: per-MPU programs, `SEND`/`RECV` message
//! passing over the mesh NoC, and deadlock-free rendezvous scheduling.
//!
//! The paper avoids deadlock by forcing lower-ID MPUs to `SEND` first
//! (§V-B); our driver executes MPUs in ID order, re-running any that were
//! blocked on `RECV` whenever new messages arrive, and reports a deadlock
//! error if no progress is possible.

use crate::config::SimConfig;
use crate::machine::{Message, Mpu, SimError, StepEvent};
use crate::noc::MeshNoc;
use crate::recipe_cache::RecipePool;
use crate::stats::Stats;
use crate::trace::{EventLog, TraceKind};
use mpu_isa::{MpuId, Program};
use pum_backend::fault::{rate_to_threshold, FaultPrng};
use std::sync::Arc;

/// Seeded drop/corruption state for the NoC (its own PRNG stream, derived
/// from the chip's fault seed so it is independent of every VRF's).
#[derive(Debug)]
struct NocFaultState {
    prng: FaultPrng,
    drop_threshold: u64,
    corrupt_threshold: u64,
    retry: bool,
    max_retries: u32,
}

/// A chip-level simulation of multiple MPUs running coupled programs.
///
/// # Example
///
/// ```
/// use mastodon::{SimConfig, System};
/// use mpu_isa::Program;
/// use pum_backend::DatapathKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut system = System::new(SimConfig::mpu(DatapathKind::Racer), 2);
/// system.set_program(0, Program::parse_asm(
///     "SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE")?);
/// system.set_program(1, Program::parse_asm("RECV mpu0")?);
/// system.mpu_mut(0).write_register(0, 0, 0, &vec![99; 64])?;
/// let stats = system.run()?;
/// assert_eq!(system.mpu_mut(1).read_register(0, 0, 0)?[0], 99);
/// assert!(stats.messages_sent == 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct System {
    mpus: Vec<Mpu>,
    programs: Vec<Program>,
    noc: MeshNoc,
    noc_faults: Option<NocFaultState>,
}

/// A deadlock or per-MPU failure in a system run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// One MPU's execution failed.
    Mpu {
        /// Which MPU failed.
        id: u16,
        /// The underlying error.
        error: SimError,
    },
    /// No MPU can make progress (all blocked on `RECV`).
    Deadlock {
        /// IDs of the blocked MPUs and the sender each is waiting on.
        waiting: Vec<(u16, u16)>,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Mpu { id, error } => write!(f, "MPU {id}: {error}"),
            SystemError::Deadlock { waiting } => {
                write!(f, "deadlock: blocked RECVs {waiting:?}")
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl System {
    /// Creates a system of `count` MPUs sharing one configuration.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the chip's MPU budget.
    pub fn new(config: SimConfig, count: usize) -> Self {
        Self::build(config, count, None)
    }

    /// Like [`System::new`], but every MPU shares `pool` for host-side
    /// recipe synthesis (statistics are unaffected; see
    /// [`crate::RecipePool`]).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the chip's MPU budget.
    pub fn new_pooled(config: SimConfig, count: usize, pool: &Arc<RecipePool>) -> Self {
        Self::build(config, count, Some(pool))
    }

    fn build(config: SimConfig, count: usize, pool: Option<&Arc<RecipePool>>) -> Self {
        assert!(count > 0, "a system needs at least one MPU");
        let budget = config.datapath.geometry().mpus_per_chip;
        assert!(count <= budget, "{count} MPUs exceed the iso-area chip budget of {budget}");
        let noc = MeshNoc::new(count, config.noc);
        let noc_faults = config.fault.noc_seed().map(|seed| NocFaultState {
            prng: FaultPrng::new(seed),
            drop_threshold: rate_to_threshold(config.fault.noc_drop_rate),
            corrupt_threshold: rate_to_threshold(config.fault.noc_corruption_rate),
            retry: config.recovery.noc_retry,
            max_retries: config.recovery.max_retries,
        });
        let mpus = (0..count)
            .map(|i| {
                let (config, id) = (config.clone(), MpuId(i as u16));
                match pool {
                    Some(pool) => Mpu::with_pool(config, id, Arc::clone(pool)),
                    None => Mpu::new(config, id),
                }
            })
            .collect();
        Self { mpus, programs: vec![Program::new(); count], noc, noc_faults }
    }

    /// Number of MPUs.
    pub fn len(&self) -> usize {
        self.mpus.len()
    }

    /// True if the system has no MPUs (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.mpus.is_empty()
    }

    /// Assigns the program MPU `id` will run.
    pub fn set_program(&mut self, id: usize, program: Program) {
        self.programs[id] = program;
    }

    /// Mutable access to one MPU (data setup / result readout).
    pub fn mpu_mut(&mut self, id: usize) -> &mut Mpu {
        &mut self.mpus[id]
    }

    /// Arms every MPU with a shared handle to `log`: the log receives one
    /// [`crate::TraceEvent`] per stats charge across the whole system —
    /// including NoC message traversals, which are attributed to the
    /// receiving MPU — in scheduler order. Tracing is observational only;
    /// see [`crate::trace`] for the contract.
    pub fn set_event_log(&mut self, log: &EventLog) {
        for mpu in &mut self.mpus {
            mpu.set_tracer(Box::new(log.clone()));
        }
    }

    /// Runs all programs to completion.
    ///
    /// Elapsed time is the maximum across MPUs (they run in parallel);
    /// work counters and energy sum.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Deadlock`] if every unfinished MPU is blocked
    /// on a `RECV` with no matching message in flight.
    pub fn run(&mut self) -> Result<Stats, SystemError> {
        let n = self.mpus.len();
        let mut done = vec![false; n];
        let mut blocked: Vec<Option<u16>> = vec![None; n];
        for mpu in &mut self.mpus {
            mpu.reset_pc();
        }
        loop {
            let mut progressed = false;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                // Disjoint field borrows: stepping MPU i reads only its own
                // program, so no clone per scheduler iteration.
                let event = self.mpus[i]
                    .step(&self.programs[i])
                    .map_err(|error| SystemError::Mpu { id: i as u16, error })?;
                match event {
                    StepEvent::Completed => {
                        done[i] = true;
                        blocked[i] = None;
                        progressed = true;
                    }
                    StepEvent::Sent(msg) => {
                        self.route(*msg);
                        blocked[i] = None;
                        progressed = true;
                    }
                    StepEvent::AwaitingRecv { src } => {
                        // Progress only counts if this is a new blockage.
                        if blocked[i] != Some(src.0) {
                            progressed = true;
                        }
                        blocked[i] = Some(src.0);
                    }
                    StepEvent::Preempted => {
                        // The system loop has no resume surface: a preempt
                        // request against a member MPU surfaces as a
                        // cancellation of the whole collective run.
                        let line = self.mpus[i].pc();
                        return Err(SystemError::Mpu {
                            id: i as u16,
                            error: SimError::Cancelled { line },
                        });
                    }
                }
            }
            if done.iter().all(|&d| d) {
                break;
            }
            if !progressed {
                // A blocked RECV whose sender already finished can never be
                // served (the message was lost or never sent): under a
                // recv-timeout policy the lowest-ID such victim burns its
                // cycle budget and surfaces a timeout. Cyclic waits among
                // live MPUs remain a deadlock — every member could still be
                // served, so no timeout can soundly pick a victim.
                for i in 0..n {
                    if done[i] {
                        continue;
                    }
                    let (Some(from), Some(budget)) =
                        (blocked[i], self.mpus[i].config().recovery.recv_timeout)
                    else {
                        continue;
                    };
                    let sender_finished = (from as usize) >= n || done[from as usize];
                    if sender_finished {
                        let waited = budget;
                        let local = self.mpus[i].local_cycles();
                        self.mpus[i].advance_to(local + waited);
                        return Err(SystemError::Mpu {
                            id: i as u16,
                            error: SimError::RecvTimeout { mpu: i as u16, from, waited },
                        });
                    }
                }
                let waiting = (0..n)
                    .filter(|&i| !done[i])
                    .map(|i| (i as u16, blocked[i].unwrap_or(u16::MAX)))
                    .collect();
                return Err(SystemError::Deadlock { waiting });
            }
        }
        let mut total = Stats::default();
        for mpu in &mut self.mpus {
            total.merge_parallel(&mpu.finish());
        }
        Ok(total)
    }

    /// Routes a message through the NoC to its destination's inbox,
    /// applying seeded drop/corruption faults in flight. Under the
    /// `noc_retry` policy a lost or corrupted traversal is detected
    /// (timeout / checksum) and retransmitted — costing one extra
    /// traversal's latency and energy each time — up to the retry budget;
    /// without it, drops lose the message and corruptions deliver a
    /// payload with one bit flipped.
    fn route(&mut self, msg: Message) {
        let src = msg.src.index();
        let dst = msg.dst.index();
        let bytes = msg.bytes;
        let latency = self.noc.latency_cycles(src, dst, bytes);
        let energy = self.noc.energy_fj(src, dst, bytes);
        let mut msg = msg;
        let mut traversals = 1u64;
        // The receiver's one charge for this message: fault counters, then
        // the wire time and energy of every traversal.
        let mut delta = Stats::default();
        let noc = |delivered| TraceKind::Noc { src: src as u16, dst: dst as u16, bytes, delivered };
        if let Some(f) = self.noc_faults.as_mut() {
            // Drop faults: each traversal can lose the message.
            let mut retransmits = 0u32;
            while f.drop_threshold > 0 && f.prng.next_draw() < f.drop_threshold {
                delta.faults.messages_dropped += 1;
                if !f.retry || retransmits >= f.max_retries {
                    // Lost for good: the wire time was still spent.
                    delta.transfer_cycles = traversals * latency;
                    delta.energy.transfer_fj = traversals * energy;
                    self.mpus[dst].charge_system(delta, || noc(false));
                    return;
                }
                retransmits += 1;
                traversals += 1;
                delta.faults.retransmissions += 1;
            }
            // Corruption faults: one bit of one payload word flips.
            if f.corrupt_threshold > 0 && f.prng.next_draw() < f.corrupt_threshold {
                if f.retry {
                    // Checksum catches it; one clean retransmission (the
                    // seeded stream moves on, so the retry delivers clean).
                    traversals += 1;
                    delta.faults.retransmissions += 1;
                } else if !msg.writes.is_empty() {
                    let wi = (f.prng.next_draw() % msg.writes.len() as u64) as usize;
                    let values = &mut msg.writes[wi].values;
                    if !values.is_empty() {
                        let vi = (f.prng.next_draw() % values.len() as u64) as usize;
                        let bit = f.prng.next_draw() % 64;
                        values[vi] ^= 1 << bit;
                        delta.faults.messages_corrupted += 1;
                    }
                }
            }
        }
        let arrival = msg.departure_cycle + traversals * latency;
        let dst_mpu = &mut self.mpus[dst];
        dst_mpu.deliver(msg, arrival);
        // Receiver pays the wire time & energy (avoids double counting).
        delta.transfer_cycles = traversals * latency;
        delta.energy.transfer_fj = traversals * energy;
        dst_mpu.charge_system(delta, || noc(true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pum_backend::DatapathKind;

    fn asm(text: &str) -> Program {
        Program::parse_asm(text).expect("valid asm")
    }

    fn two_mpu_system() -> System {
        System::new(SimConfig::mpu(DatapathKind::Racer), 2)
    }

    #[test]
    fn point_to_point_message_delivers_data() {
        let mut sys = two_mpu_system();
        sys.set_program(0, asm("SEND mpu1\nMOVE h0 h2\nMEMCPY v0 r0 v1 r3\nMOVE_DONE\nSEND_DONE"));
        sys.set_program(1, asm("RECV mpu0"));
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![123; 64]).unwrap();
        let stats = sys.run().unwrap();
        assert_eq!(sys.mpu_mut(1).read_register(2, 1, 3).unwrap()[0], 123);
        assert_eq!(stats.messages_sent, 1);
        assert!(stats.noc_bytes >= 64 * 8);
        assert!(stats.transfer_cycles > 0);
    }

    #[test]
    fn receiver_computes_on_received_data() {
        let mut sys = two_mpu_system();
        sys.set_program(0, asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE"));
        sys.set_program(1, asm("RECV mpu0\nCOMPUTE h0 v0\nINC r0 r1\nCOMPUTE_DONE"));
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![41; 64]).unwrap();
        sys.run().unwrap();
        assert_eq!(sys.mpu_mut(1).read_register(0, 0, 1).unwrap()[0], 42);
    }

    #[test]
    fn lower_id_sends_first_avoids_deadlock() {
        // Exchange: 0 sends to 1 and receives from 1; 1 receives then sends.
        let mut sys = two_mpu_system();
        sys.set_program(
            0,
            asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE\nRECV mpu1"),
        );
        sys.set_program(
            1,
            asm("RECV mpu0\nSEND mpu0\nMOVE h1 h1\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE"),
        );
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![7; 64]).unwrap();
        sys.mpu_mut(1).write_register(1, 0, 0, &vec![9; 64]).unwrap();
        sys.run().unwrap();
        assert_eq!(sys.mpu_mut(1).read_register(0, 0, 0).unwrap()[0], 7);
        assert_eq!(sys.mpu_mut(0).read_register(1, 0, 0).unwrap()[0], 9);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut sys = two_mpu_system();
        sys.set_program(0, asm("RECV mpu1"));
        sys.set_program(1, asm("RECV mpu0"));
        let err = sys.run().unwrap_err();
        assert!(matches!(err, SystemError::Deadlock { .. }));
    }

    #[test]
    fn cyclic_recv_deadlock_reports_complete_waiting_list() {
        // 0 waits on 1, 1 waits on 2, 2 waits on 0: a RECV cycle no
        // scheduler order can break. The report must name every blocked
        // MPU with the sender it waits on, in MPU-ID order.
        let mut sys = System::new(SimConfig::mpu(DatapathKind::Racer), 3);
        sys.set_program(0, asm("RECV mpu1"));
        sys.set_program(1, asm("RECV mpu2"));
        sys.set_program(2, asm("RECV mpu0"));
        let err = sys.run().unwrap_err();
        assert_eq!(err, SystemError::Deadlock { waiting: vec![(0, 1), (1, 2), (2, 0)] });
        // Determinism: a fresh identical system reports the same list.
        let mut again = System::new(SimConfig::mpu(DatapathKind::Racer), 3);
        again.set_program(0, asm("RECV mpu1"));
        again.set_program(1, asm("RECV mpu2"));
        again.set_program(2, asm("RECV mpu0"));
        assert_eq!(again.run().unwrap_err(), err);
    }

    #[test]
    fn blocked_recv_is_restepped_and_delivers_late_message_exactly_once() {
        // MPU 0 blocks on RECV immediately; MPU 1 (stepped after it) does
        // compute work before sending, so the message arrives only after
        // MPU 0 has already reported AwaitingRecv at least once. The
        // scheduler must re-step MPU 0 and deliver the message exactly
        // once — the received value is incremented once, not twice.
        let mut sys = two_mpu_system();
        sys.set_program(0, asm("RECV mpu1\nCOMPUTE h1 v0\nINC r0 r1\nCOMPUTE_DONE"));
        sys.set_program(
            1,
            asm("COMPUTE h1 v0\nINC r0 r0\nCOMPUTE_DONE\n\
                 COMPUTE h1 v0\nINC r0 r0\nCOMPUTE_DONE\n\
                 SEND mpu0\nMOVE h1 h1\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE"),
        );
        sys.mpu_mut(1).write_register(1, 0, 0, &vec![40; 64]).unwrap();
        let stats = sys.run().unwrap();
        // 40 incremented twice by the sender, transferred once, then
        // incremented once by the receiver.
        assert_eq!(sys.mpu_mut(0).read_register(1, 0, 1).unwrap()[0], 43);
        assert_eq!(stats.messages_sent, 1);
    }

    #[test]
    fn broadcast_to_many_receivers() {
        let mut sys = System::new(SimConfig::mpu(DatapathKind::Racer), 4);
        sys.set_program(
            0,
            asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE\n\
                 SEND mpu2\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE\n\
                 SEND mpu3\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE"),
        );
        for i in 1..4 {
            sys.set_program(i, asm("RECV mpu0"));
        }
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![5; 64]).unwrap();
        let stats = sys.run().unwrap();
        for i in 1..4 {
            assert_eq!(sys.mpu_mut(i).read_register(0, 0, 0).unwrap()[0], 5);
        }
        assert_eq!(stats.messages_sent, 3);
    }

    #[test]
    fn parallel_time_is_max_not_sum() {
        let mut sys = two_mpu_system();
        sys.set_program(0, asm("COMPUTE h0 v0\nADD r0 r1 r2\nCOMPUTE_DONE"));
        sys.set_program(
            1,
            asm("COMPUTE h0 v0\nADD r0 r1 r2\nADD r2 r1 r3\nADD r3 r1 r4\nCOMPUTE_DONE"),
        );
        let stats = sys.run().unwrap();
        let t1 = {
            let mut solo = System::new(SimConfig::mpu(DatapathKind::Racer), 1);
            solo.set_program(
                0,
                asm("COMPUTE h0 v0\nADD r0 r1 r2\nADD r2 r1 r3\nADD r3 r1 r4\nCOMPUTE_DONE"),
            );
            solo.run().unwrap().cycles
        };
        assert_eq!(stats.cycles, t1, "system time equals the slowest MPU");
    }

    #[test]
    #[should_panic(expected = "exceed the iso-area chip budget")]
    fn chip_budget_is_enforced() {
        System::new(SimConfig::mpu(DatapathKind::DualityCache), 500);
    }

    // ----- NoC faults & RECV timeout ----------------------------------

    use crate::fault::FaultConfig;

    fn send_recv_programs(sys: &mut System) {
        sys.set_program(0, asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE"));
        sys.set_program(1, asm("RECV mpu0"));
    }

    #[test]
    fn dropped_message_with_recv_timeout_surfaces_not_deadlocks() {
        let mut cfg = SimConfig::mpu(DatapathKind::Racer);
        cfg.fault = FaultConfig { seed: Some(5), noc_drop_rate: 1.0, ..Default::default() };
        cfg.recovery.recv_timeout = Some(10_000);
        let mut sys = System::new(cfg, 2);
        send_recv_programs(&mut sys);
        let err = sys.run().unwrap_err();
        match err {
            SystemError::Mpu { id, error } => {
                assert_eq!(id, 1);
                assert_eq!(error, SimError::RecvTimeout { mpu: 1, from: 0, waited: 10_000 });
            }
            other => panic!("expected a RECV timeout, got {other:?}"),
        }
    }

    #[test]
    fn dropped_message_without_timeout_is_a_deadlock() {
        let mut cfg = SimConfig::mpu(DatapathKind::Racer);
        cfg.fault = FaultConfig { seed: Some(5), noc_drop_rate: 1.0, ..Default::default() };
        let mut sys = System::new(cfg, 2);
        send_recv_programs(&mut sys);
        let err = sys.run().unwrap_err();
        assert_eq!(err, SystemError::Deadlock { waiting: vec![(1, 0)] });
    }

    #[test]
    fn cyclic_wait_stays_a_deadlock_even_with_recv_timeout() {
        // Every member of the cycle is still alive, so no timeout may
        // soundly pick a victim: the detector must still call it deadlock.
        let mut cfg = SimConfig::mpu(DatapathKind::Racer);
        cfg.recovery.recv_timeout = Some(1_000);
        let mut sys = System::new(cfg, 3);
        sys.set_program(0, asm("RECV mpu1"));
        sys.set_program(1, asm("RECV mpu2"));
        sys.set_program(2, asm("RECV mpu0"));
        let err = sys.run().unwrap_err();
        assert_eq!(err, SystemError::Deadlock { waiting: vec![(0, 1), (1, 2), (2, 0)] });
    }

    #[test]
    fn noc_retry_retransmits_dropped_messages() {
        let mut cfg = SimConfig::mpu(DatapathKind::Racer);
        cfg.fault = FaultConfig { seed: Some(9), noc_drop_rate: 0.5, ..Default::default() };
        cfg.recovery.noc_retry = true;
        cfg.recovery.max_retries = 16;
        let mut sys = System::new(cfg, 2);
        // Several messages so the seeded stream hits at least one drop.
        sys.set_program(
            0,
            asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE\n\
                 SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r1\nMOVE_DONE\nSEND_DONE\n\
                 SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r2\nMOVE_DONE\nSEND_DONE\n\
                 SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r3\nMOVE_DONE\nSEND_DONE"),
        );
        sys.set_program(1, asm("RECV mpu0\nRECV mpu0\nRECV mpu0\nRECV mpu0"));
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![77; 64]).unwrap();
        let stats = sys.run().unwrap();
        for reg in 0..4 {
            assert_eq!(sys.mpu_mut(1).read_register(0, 0, reg).unwrap()[0], 77);
        }
        assert!(stats.faults.retransmissions > 0, "rate 0.5 over 4 sends must drop at least once");
        assert_eq!(stats.faults.messages_dropped, stats.faults.retransmissions);
    }

    #[test]
    fn noc_corruption_flips_a_payload_bit_and_retry_cleans_it() {
        let mut cfg = SimConfig::mpu(DatapathKind::Racer);
        cfg.fault = FaultConfig { seed: Some(3), noc_corruption_rate: 1.0, ..Default::default() };
        let mut sys = System::new(cfg.clone(), 2);
        send_recv_programs(&mut sys);
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![42; 64]).unwrap();
        let stats = sys.run().unwrap();
        assert_eq!(stats.faults.messages_corrupted, 1);
        let got = sys.mpu_mut(1).read_register(0, 0, 0).unwrap();
        let wrong = got.iter().filter(|&&v| v != 42).count();
        assert_eq!(wrong, 1, "exactly one element carries the flipped bit");

        cfg.recovery.noc_retry = true;
        let mut sys = System::new(cfg, 2);
        send_recv_programs(&mut sys);
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![42; 64]).unwrap();
        let stats = sys.run().unwrap();
        assert_eq!(stats.faults.messages_corrupted, 0);
        assert_eq!(stats.faults.retransmissions, 1);
        assert_eq!(sys.mpu_mut(1).read_register(0, 0, 0).unwrap(), vec![42; 64]);
    }

    #[test]
    fn fault_free_system_matches_armed_zero_rate_system() {
        let clean_cfg = SimConfig::mpu(DatapathKind::Racer);
        let mut armed_cfg = clean_cfg.clone();
        armed_cfg.fault.seed = Some(0xFEED);
        let run = |cfg: SimConfig| {
            let mut sys = System::new(cfg, 2);
            send_recv_programs(&mut sys);
            sys.mpu_mut(0).write_register(0, 0, 0, &vec![7; 64]).unwrap();
            let stats = sys.run().unwrap();
            (stats, sys.mpu_mut(1).read_register(0, 0, 0).unwrap())
        };
        assert_eq!(run(clean_cfg), run(armed_cfg));
    }
}
