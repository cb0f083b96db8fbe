//! Structured execution tracing: the [`Tracer`] contract and the event
//! vocabulary every stats charge in the simulator is mirrored onto.
//!
//! # Contract
//!
//! A [`Tracer`] attached to an [`Mpu`](crate::Mpu) (or a
//! [`System`](crate::System), which also covers NoC routing) receives one
//! [`TraceEvent`] for every mutation of the machine's [`Stats`] ledger,
//! carrying the exact delta that mutation applied. Three invariants hold:
//!
//! * **Zero overhead disarmed.** With no tracer attached (the default),
//!   no event is constructed — every emission site is a single
//!   `Option` check — and simulated statistics are byte-identical to a
//!   build without the tracing layer.
//! * **Transparency armed.** Attaching a tracer never changes execution:
//!   lane values and [`Stats`] are byte-identical armed vs disarmed
//!   (enforced by the conformance observability suite).
//! * **Conservation.** Folding every event's `delta` per MPU reproduces
//!   that MPU's final [`Stats`] exactly. Every field is an integer (energy
//!   in femtojoules), so the fold is an equality in any order. Elapsed
//!   `cycles` is the one non-summable field (message delivery advances it
//!   with a `max`), so it is recovered from the last event's
//!   [`TraceEvent::cycle`] stamp instead. See [`crate::Profile`].
//!
//! Events are deterministic: the same program, inputs, configuration, and
//! fault seed produce the identical event stream on every run.

use crate::machine::EnsembleKind;
use crate::stats::Stats;
use pum_backend::MicroOpKind;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-micro-op-kind counts for one recipe execution, indexed by
/// [`MicroOpKind::index`]. The attribution profile expands these into the
/// micro-op-class level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UopMix(pub [u32; MicroOpKind::ALL.len()]);

impl UopMix {
    /// Iterates the non-zero `(kind, count)` pairs.
    pub fn counts(&self) -> impl Iterator<Item = (MicroOpKind, u32)> + '_ {
        MicroOpKind::ALL.into_iter().zip(self.0).filter(|&(_, n)| n > 0)
    }

    /// Total micro-ops across all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&n| n as u64).sum()
    }
}

impl fmt::Display for UopMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (kind, n) in self.counts() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{kind}:{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Coarse classification of a traced instruction, used by the attribution
/// profile to group charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrClass {
    /// A datapath (compute) instruction issuing a micro-op recipe.
    Compute,
    /// A control-path instruction (masks, branches, NOP, sync).
    Control,
    /// A data-movement instruction (`MEMCPY`).
    Transfer,
    /// An inter-MPU communication instruction (`RECV`).
    Comm,
    /// An ensemble header/footer marker (`COMPUTE`, `MOVE`, `SEND`, ...).
    Marker,
}

/// A redundancy/recovery action (see [`crate::RecoveryPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// An extra redundant execution beyond the first (DMR/TMR).
    RedundantRun,
    /// Redundant copies disagreed: a fault was detected.
    Detected,
    /// A detected fault was corrected (DMR retry success / TMR majority).
    Corrected,
    /// A DMR retry round was issued after a mismatch.
    Retry,
}

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// An ensemble span opens (`line` is its first header instruction).
    EnsembleBegin {
        /// Which ensemble kind.
        kind: EnsembleKind,
    },
    /// The matching ensemble span closes.
    EnsembleEnd {
        /// Which ensemble kind.
        kind: EnsembleKind,
    },
    /// One thermal-aware scheduler wave starts replaying the body.
    Wave {
        /// Wave ordinal within the ensemble (0-based).
        index: usize,
        /// VRFs activated by this wave.
        vrfs: usize,
    },
    /// One ISA instruction executed (its architectural charge).
    Instr {
        /// Instruction mnemonic.
        mnemonic: &'static str,
        /// Coarse class for profile grouping.
        class: InstrClass,
    },
    /// One functional execution of a compute recipe over a wave (issue
    /// cycles, micro-ops, and datapath energy). Repeats under redundancy.
    Exec {
        /// VRFs the recipe was applied to.
        vrfs: usize,
        /// Micro-op class mix of the recipe.
        mix: UopMix,
    },
    /// A recipe-cache template lookup.
    RecipeLookup {
        /// Architectural (per-MPU table) hit.
        hit: bool,
        /// Host-side [`crate::RecipePool`] template outcome, when a miss
        /// consulted a shared pool (`None` without a shared pool or on a
        /// hit).
        pool: Option<bool>,
    },
    /// The playback buffer refilled (body longer than the buffer).
    PlaybackRefill,
    /// A Baseline host-CPU offload round trip (or batched follow-on).
    Offload {
        /// True when an already-open batch serviced this instruction.
        batched: bool,
    },
    /// A NoC message traversal charged to the *receiving* MPU
    /// ([`TraceEvent::mpu`] is the destination).
    Noc {
        /// Sending MPU.
        src: u16,
        /// Receiving MPU.
        dst: u16,
        /// Payload bytes.
        bytes: u64,
        /// False when the message was dropped past the retry budget.
        delivered: bool,
    },
    /// One `MEMCPY` source→destination RFH-pair transfer (one event per
    /// pair in the move block's target map).
    Memcpy {
        /// Source RF holder.
        src_rfh: u16,
        /// Destination RF holder.
        dst_rfh: u16,
    },
    /// A compute-ensemble checkpoint was streamed out.
    Checkpoint,
    /// The ensemble rolled back to its checkpoint and restarted.
    Restart,
    /// The boot self-test marched a VRF and (possibly) remapped lanes.
    SelfTest {
        /// Lanes found dead.
        dead: u64,
        /// Logical lanes relocated.
        remapped: u64,
        /// Logical lanes lost past the spare budget.
        lost: u64,
    },
    /// A redundancy/recovery action.
    Fault(FaultAction),
    /// End-of-run finalization (front-end / CPU-idle energy, landed
    /// fault-injection count).
    Finish,
}

/// One traced event: where it happened, when, what it was, and the exact
/// [`Stats`] delta the simulator charged for it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The MPU whose ledger was charged.
    pub mpu: u16,
    /// Program line (instruction index) the event is attributed to.
    pub line: usize,
    /// The MPU's elapsed-cycle counter *after* applying the delta.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceKind,
    /// The exact charge: summing `delta` over events reproduces every
    /// summable [`Stats`] field (see the module docs for `cycles`).
    pub delta: Stats,
}

/// Receives trace events from a machine. Implementations must be cheap:
/// the simulator calls [`Tracer::event`] inline on its hot path.
pub trait Tracer: Send + Sync + fmt::Debug {
    /// Called once per stats charge, in execution order.
    fn event(&mut self, ev: &TraceEvent);
}

/// The standard collector: a clonable, thread-safe, append-only event log.
///
/// Clone it, hand one handle to the machine (via
/// [`Mpu::set_tracer`](crate::Mpu::set_tracer) or
/// [`System::set_event_log`](crate::System::set_event_log)) and keep the
/// other to read the events back.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all events recorded so far, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events().clone()
    }

    /// Drains the log, returning all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Locks the event vector. A handle that panicked while holding the
    /// lock leaves at most its one push undone, so the guard is recovered
    /// instead of failing every later reader and writer.
    fn events(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Tracer for EventLog {
    fn event(&mut self, ev: &TraceEvent) {
        self.events().push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uop_mix_counts_and_display() {
        let mut mix = UopMix::default();
        mix.0[MicroOpKind::Nor.index()] = 3;
        mix.0[MicroOpKind::Copy.index()] = 2;
        assert_eq!(mix.total(), 5);
        let pairs: Vec<(MicroOpKind, u32)> = mix.counts().collect();
        assert_eq!(pairs, vec![(MicroOpKind::Nor, 3), (MicroOpKind::Copy, 2)]);
        assert_eq!(mix.to_string(), "NOR:3 COPY:2");
    }

    #[test]
    fn event_log_is_clonable_and_shared() {
        let log = EventLog::new();
        let mut handle = log.clone();
        assert!(log.is_empty());
        let ev = TraceEvent {
            mpu: 0,
            line: 7,
            cycle: 42,
            kind: TraceKind::PlaybackRefill,
            delta: Stats::default(),
        };
        handle.event(&ev);
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot(), vec![ev.clone()]);
        assert_eq!(log.take(), vec![ev]);
        assert!(log.is_empty());
    }

    #[test]
    fn event_log_survives_a_panic_under_its_lock() {
        let log = EventLog::new();
        let mut handle = log.clone();
        let ev = TraceEvent {
            mpu: 0,
            line: 3,
            cycle: 9,
            kind: TraceKind::PlaybackRefill,
            delta: Stats::default(),
        };
        handle.event(&ev);
        std::thread::scope(|s| {
            let crashed = s
                .spawn(|| {
                    let _guard = log.events();
                    panic!("tracer panicked while holding the event log");
                })
                .join();
            assert!(crashed.is_err());
        });
        assert!(log.events.is_poisoned());

        handle.event(&ev);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.snapshot(), vec![ev.clone(), ev.clone()]);
        assert_eq!(log.take(), vec![ev.clone(), ev]);
        assert!(log.is_empty());
    }
}
