//! The single-MPU execution engine: precoder/fetcher walk, compute
//! controller with playback-buffer replay and thermal-wave scheduling
//! (paper Fig. 10), EFI-backed control flow, the data transfer controller,
//! and the Baseline host-offload model.
//!
//! Execution is *functionally exact*: vector state lives in
//! [`BitPlaneVrf`]s and every compute instruction runs by applying its
//! micro-op recipe, so kernels produce real results that tests check
//! against reference implementations. Timing and energy accumulate from
//! the datapath model and control-path cost table as the program runs.

use crate::config::{ExecutionMode, SimConfig};
use crate::fault::Redundancy;
use crate::recipe_cache::{RecipeCache, RecipePool};
use crate::stats::{EnergyStats, FaultStats, Stats};
use crate::trace::{FaultAction, TraceEvent, TraceKind, Tracer, UopMix};
use mpu_isa::{Instruction, MpuId, OperandError, Program, COND_REG};
use pum_backend::{
    pj_to_fj, run_batch, BlockGraph, BlockStep, BodyLayout, CompiledRecipe, Geometry, Plane,
    PlaneBank, Trap, VrfMut, VrfRef, WaveMember,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Depth of the control path's return-address stack. Both `JUMP` (which
/// hardware-wise is a call: it pushes its fall-through address) and the
/// precoder's subroutine bookkeeping share this bound; exceeding it —
/// e.g. a fault-corrupted jump target re-executing `JUMP`s with no
/// matching `RETURN` — raises [`SimError::ReturnStackOverflow`] instead
/// of growing host memory without bound.
pub const RETURN_STACK_DEPTH: usize = 64;

/// An error raised while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program is structurally invalid (validator message).
    InvalidProgram(String),
    /// A VRF or RFH index exceeds the datapath geometry.
    GeometryExceeded {
        /// Offending instruction index.
        line: usize,
        /// Description of the violation.
        what: String,
    },
    /// A compute instruction's operands break a rule of its recipe
    /// ([`mpu_isa::Instruction::operand_error`]): `rd` aliases a source of
    /// a multi-step operation, or a divide operand is a reserved temporary.
    IllegalOperand {
        /// Offending instruction index.
        line: usize,
        /// The rule broken.
        error: OperandError,
    },
    /// A `RETURN` executed with an empty return-address stack inside an
    /// ensemble body.
    ReturnUnderflow {
        /// Offending instruction index.
        line: usize,
    },
    /// A `JUMP` pushed past the return-address stack's hardware depth
    /// ([`RETURN_STACK_DEPTH`]) — unbalanced calls, typically from a
    /// fault-corrupted jump target.
    ReturnStackOverflow {
        /// Offending instruction index.
        line: usize,
        /// The stack depth that was exceeded.
        depth: usize,
    },
    /// A compute instruction reached execution but the template lookup
    /// could not synthesize its recipe. Execution must never silently
    /// skip work, so this is a hard error rather than a dropped
    /// instruction.
    RecipeUnavailable {
        /// Offending instruction index.
        line: usize,
        /// Mnemonic of the instruction without a recipe.
        mnemonic: &'static str,
    },
    /// Top-level execution reached a compute instruction outside any
    /// ensemble (fell into a subroutine body; end `main` with `RETURN`).
    StrayInstruction {
        /// Offending instruction index.
        line: usize,
        /// Mnemonic of the stray instruction.
        mnemonic: &'static str,
    },
    /// `SEND`/`RECV` executed on a lone machine outside a
    /// [`crate::System`].
    CommOutsideSystem {
        /// Offending instruction index.
        line: usize,
    },
    /// Execution ran off the end of the program — an unterminated
    /// `COMPUTE`/`MOVE`/`SEND` block or a control transfer past the last
    /// instruction.
    UnexpectedEnd {
        /// Index of the first missing instruction (== program length).
        line: usize,
    },
    /// Redundant executions of a compute instruction kept disagreeing
    /// after exhausting the retry budget
    /// ([`crate::RecoveryPolicy::max_retries`]).
    UncorrectedFault {
        /// Offending instruction index.
        line: usize,
    },
    /// An ensemble body exceeded its instruction budget
    /// ([`crate::RecoveryPolicy::watchdog_instructions`]) — typically a
    /// fault-corrupted loop counter spinning the EFI forever.
    WatchdogTriggered {
        /// Instruction index where the budget ran out.
        line: usize,
        /// Body instructions executed when the watchdog fired.
        instructions: u64,
    },
    /// A blocking `RECV` waited past its cycle budget
    /// ([`crate::RecoveryPolicy::recv_timeout`]) for a sender that can no
    /// longer deliver (completed, faulted, or its message was lost).
    RecvTimeout {
        /// The waiting MPU.
        mpu: u16,
        /// The sender it was waiting on.
        from: u16,
        /// Cycles spent waiting before giving up.
        waited: u64,
    },
    /// An error raised inside an ensemble, annotated with where it
    /// happened. Use [`SimError::root_cause`] to match on the underlying
    /// error.
    InEnsemble {
        /// MPU executing the ensemble.
        mpu: u16,
        /// Instruction index of the ensemble's opening header.
        line: usize,
        /// Which kind of ensemble was executing.
        kind: EnsembleKind,
        /// The underlying error.
        source: Box<SimError>,
    },
    /// Execution was cancelled through a [`RunControl`] token at a
    /// compute-ensemble boundary (deadline expiry, explicit abort).
    Cancelled {
        /// Instruction index execution stopped at; resuming is not
        /// possible — cancellation discards the run.
        line: usize,
    },
    /// Checkpoint/restart recovery exhausted its budget
    /// ([`crate::RecoveryPolicy::max_restarts`]): every attempt aborted on
    /// an injected-fault escalation. Carries the restart count and, via
    /// `source`, the last attempt's fault site so a host scheduler can
    /// classify the failure as transient (retry the whole job, fresh fault
    /// sites) rather than permanent. [`SimError::root_cause`] sees through
    /// this wrapper.
    RestartsExhausted {
        /// Instruction index of the ensemble's opening header.
        line: usize,
        /// Restarts performed before giving up.
        restarts: u32,
        /// The last attempt's error (fault site inside).
        source: Box<SimError>,
    },
    /// A parallel-sweep worker closure panicked while processing one item.
    /// The panic is contained to that item: the rest of the sweep
    /// completes and the pool survives.
    WorkerPanic {
        /// Index of the item whose closure panicked.
        item: usize,
        /// The panic payload rendered as text (`"<non-string panic>"`
        /// when the payload is not a string).
        payload: String,
    },
    /// A checkpoint was imported into an [`Mpu`] whose configuration does
    /// not match the one the checkpoint was exported under.
    CheckpointMismatch {
        /// Description of the disagreement.
        what: String,
    },
}

/// The ensemble kind carried by [`SimError::InEnsemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleKind {
    /// A `COMPUTE … COMPUTE_DONE` ensemble.
    Compute,
    /// A `MOVE … MOVE_DONE` transfer block.
    Transfer,
    /// A `SEND … SEND_DONE` block.
    Send,
}

impl fmt::Display for EnsembleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnsembleKind::Compute => "COMPUTE",
            EnsembleKind::Transfer => "MOVE",
            EnsembleKind::Send => "SEND",
        })
    }
}

impl SimError {
    /// Unwraps [`SimError::InEnsemble`] and [`SimError::RestartsExhausted`]
    /// context layers down to the underlying error.
    pub fn root_cause(&self) -> &SimError {
        match self {
            SimError::InEnsemble { source, .. } | SimError::RestartsExhausted { source, .. } => {
                source.root_cause()
            }
            other => other,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram(m) => write!(f, "invalid program: {m}"),
            SimError::GeometryExceeded { line, what } => {
                write!(f, "line {line}: geometry exceeded: {what}")
            }
            SimError::IllegalOperand { line, error } => {
                write!(f, "line {line}: illegal operand: {error}")
            }
            SimError::ReturnUnderflow { line } => {
                write!(f, "line {line}: RETURN with empty return-address stack")
            }
            SimError::ReturnStackOverflow { line, depth } => {
                write!(f, "line {line}: JUMP overflowed the {depth}-entry return-address stack")
            }
            SimError::RecipeUnavailable { line, mnemonic } => {
                write!(f, "line {line}: no recipe synthesizable for {mnemonic}")
            }
            SimError::StrayInstruction { line, mnemonic } => {
                write!(f, "line {line}: {mnemonic} reached outside any ensemble")
            }
            SimError::CommOutsideSystem { line } => {
                write!(f, "line {line}: SEND/RECV requires a multi-MPU System")
            }
            SimError::UnexpectedEnd { line } => {
                write!(f, "line {line}: execution ran past the end of the program")
            }
            SimError::UncorrectedFault { line } => {
                write!(f, "line {line}: redundant executions disagreed past the retry budget")
            }
            SimError::WatchdogTriggered { line, instructions } => {
                write!(f, "line {line}: watchdog fired after {instructions} body instructions")
            }
            SimError::RecvTimeout { mpu, from, waited } => {
                write!(f, "mpu{mpu}: RECV from mpu{from} timed out after {waited} cycles")
            }
            SimError::InEnsemble { mpu, line, kind, source } => {
                write!(f, "mpu{mpu}: in {kind} ensemble at line {line}: {source}")
            }
            SimError::Cancelled { line } => {
                write!(f, "line {line}: execution cancelled at an ensemble boundary")
            }
            SimError::RestartsExhausted { line, restarts, source } => {
                write!(
                    f,
                    "line {line}: checkpoint restarts exhausted after {restarts} attempts: \
                     {source}"
                )
            }
            SimError::WorkerPanic { item, payload } => {
                write!(f, "sweep worker panicked on item {item}: {payload}")
            }
            SimError::CheckpointMismatch { what } => {
                write!(f, "checkpoint does not fit this machine: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InEnsemble { source, .. } | SimError::RestartsExhausted { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

/// One register's worth of data shipped to another MPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteWrite {
    /// Destination RF holder.
    pub rfh: u16,
    /// Destination VRF within the holder.
    pub vrf: u16,
    /// Destination register.
    pub reg: u8,
    /// Element values, one per lane.
    pub values: Vec<u64>,
}

/// An inter-MPU message produced by a `SEND` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender.
    pub src: MpuId,
    /// Receiver.
    pub dst: MpuId,
    /// Register payloads to apply at the receiver.
    pub writes: Vec<RemoteWrite>,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Sender-local cycle at which the message left the MPU.
    pub departure_cycle: u64,
}

/// Outcome of advancing a machine to its next communication boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    /// The program ran to completion (or a top-level `RETURN` halt).
    Completed,
    /// A `SEND` block finished; deliver this message, then call step again.
    Sent(Box<Message>),
    /// Execution is blocked on `RECV` from the named MPU; deliver a
    /// message with [`Mpu::deliver`] and step again.
    AwaitingRecv {
        /// The expected sender.
        src: MpuId,
    },
    /// An armed [`RunControl`] requested preemption: execution paused at a
    /// compute-ensemble boundary with no work in flight. Export the state
    /// with [`Mpu::export_checkpoint`] and resume later (possibly in a
    /// fresh machine via [`Mpu::import_checkpoint`]) by calling
    /// [`Mpu::step`] again — *without* [`Mpu::reset_pc`], which would
    /// restart the program instead.
    Preempted,
}

/// What an armed [`RunControl`] asks of the machine at a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunDirective {
    Continue,
    Preempt,
    Cancel,
}

const CTRL_RUN: u8 = 0;
const CTRL_PREEMPT: u8 = 1;
const CTRL_CANCEL: u8 = 2;

/// A cooperative cancellation/preemption token shared between a host
/// scheduler and a running [`Mpu`].
///
/// The machine polls the token once per top-level instruction — the
/// compute-ensemble boundaries, where no partial ensemble work is in
/// flight. A cancel request surfaces as [`SimError::Cancelled`]; a preempt
/// request surfaces as [`StepEvent::Preempted`] with the machine in a
/// checkpointable state. The `boundaries` counter doubles as a progress
/// heartbeat: a watchdog that sees it stall knows the job is stuck inside
/// one ensemble (runaway loop) and can only be bounded by
/// [`crate::RecoveryPolicy::watchdog_instructions`].
#[derive(Debug, Default)]
pub struct RunControl {
    state: std::sync::atomic::AtomicU8,
    boundaries: std::sync::atomic::AtomicU64,
    /// Deterministic trigger: preempt when the boundary counter reaches
    /// this value (`0` = disarmed). Used by tests to pin the preemption
    /// point exactly.
    preempt_at: std::sync::atomic::AtomicU64,
}

impl RunControl {
    /// Creates a token in the running state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative cancellation; the run errors with
    /// [`SimError::Cancelled`] at the next ensemble boundary.
    pub fn request_cancel(&self) {
        self.state.store(CTRL_CANCEL, std::sync::atomic::Ordering::Release);
    }

    /// Requests preemption; [`Mpu::step`] returns
    /// [`StepEvent::Preempted`] at the next ensemble boundary.
    pub fn request_preempt(&self) {
        // Never downgrade a cancel.
        let _ = self.state.compare_exchange(
            CTRL_RUN,
            CTRL_PREEMPT,
            std::sync::atomic::Ordering::AcqRel,
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    /// Rearms the token for continued execution (clears a pending preempt
    /// or cancel; the boundary counter keeps running).
    pub fn clear(&self) {
        self.state.store(CTRL_RUN, std::sync::atomic::Ordering::Release);
    }

    /// Arms a deterministic preemption at the `n`-th boundary crossing
    /// (1-based; `0` disarms). Crossing `n` boundaries means `n - 1`
    /// top-level instructions have fully executed.
    pub fn preempt_at_boundary(&self, n: u64) {
        self.preempt_at.store(n, std::sync::atomic::Ordering::Release);
    }

    /// Ensemble boundaries crossed so far — the progress heartbeat.
    pub fn boundaries(&self) -> u64 {
        self.boundaries.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Counts one boundary crossing and reports what the machine should do.
    fn cross_boundary(&self) -> RunDirective {
        let crossed = self.boundaries.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1;
        match self.state.load(std::sync::atomic::Ordering::Acquire) {
            CTRL_CANCEL => RunDirective::Cancel,
            CTRL_PREEMPT => RunDirective::Preempt,
            _ => {
                let at = self.preempt_at.load(std::sync::atomic::Ordering::Acquire);
                if at != 0 && crossed == at {
                    RunDirective::Preempt
                } else {
                    RunDirective::Continue
                }
            }
        }
    }
}

/// An MPU's VRFs, each powered on at first touch, kept in plane banks of
/// [`Geometry::bank_vrfs`] VRFs that a thermal wave borrows whole
/// ([`run_batch`]), with a sorted `(rfh, vrf) → (bank, member)` index. A
/// bank holds VRF `vrf` of adjacent RFHs, RFH-minor: member `m` of bank
/// `(h, vrf)` is RFH `h × width + m`. A wave that takes VRF `vrf` of every
/// RFH is then adjacent members of one bank, and runs each micro-op as one
/// wide VRF. A wave pass resolves its members once, so a batched run looks
/// nothing up.
#[derive(Debug, Clone, Default)]
struct VrfStore {
    /// Every bank a powered-on VRF lives in, in creation order.
    banks: Vec<PlaneBank>,
    /// `((rfh / width, vrf), bank)` of every bank, sorted by key.
    bank_index: Vec<((u16, u16), usize)>,
    /// Powered-on VRFs, in power-on order.
    powered: Vec<WaveMember>,
    /// `((rfh, vrf), at)` of every powered-on VRF, sorted by key.
    index: Vec<((u16, u16), WaveMember)>,
}

impl VrfStore {
    fn get(&self, key: (u16, u16)) -> Option<WaveMember> {
        let at = self.index.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(self.index[at].1)
    }

    /// Powers on VRF `key` of a machine of geometry `g`, creating its bank
    /// at the first touch of any member; returns where it lives. A member
    /// of a new bank is as [`pum_backend::BitPlaneVrf::new`] leaves a VRF.
    fn insert(&mut self, key: (u16, u16), g: &Geometry) -> WaveMember {
        let width = g.bank_vrfs();
        let bank_key = (key.0 / width as u16, key.1);
        let bank = match self.bank_index.binary_search_by_key(&bank_key, |&(k, _)| k) {
            Ok(at) => self.bank_index[at].1,
            Err(at) => {
                self.bank_index.insert(at, (bank_key, self.banks.len()));
                self.banks.push(PlaneBank::new(g.lanes_per_vrf, g.regs_per_vrf, width));
                self.banks.len() - 1
            }
        };
        let member = (bank, usize::from(key.0) % width);
        match self.index.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(_) => unreachable!("a VRF powers on once"),
            Err(at) => self.index.insert(at, (key, member)),
        }
        self.powered.push(member);
        member
    }

    fn member(&mut self, (bank, m): WaveMember) -> VrfMut<'_> {
        self.banks[bank].member(m)
    }

    fn member_ref(&self, (bank, m): WaveMember) -> VrfRef<'_> {
        self.banks[bank].member_ref(m)
    }

    /// Snapshots of every powered-on VRF, in power-on order.
    fn snapshots(&self) -> Vec<Vec<u64>> {
        self.powered.iter().map(|&at| self.member_ref(at).snapshot()).collect()
    }
}

/// A full machine snapshot taken at a compute-ensemble boundary (after
/// [`StepEvent::Preempted`], or any time [`Mpu::step`] is not mid-flight).
///
/// Importing a checkpoint into a fresh [`Mpu`] built from the *same*
/// [`SimConfig`] and resuming with [`Mpu::step`] is byte-identical — lane
/// values and [`crate::Stats`] — to never having stopped: the snapshot
/// carries the VRF contents *with their fault-model PRNG state*, the lane
/// remap tables, the architectural recipe-cache state (table, LRU stamps,
/// hit/miss counters — a cold cache would replay a different miss
/// stream), the statistics ledger, and the program counter. Tracers,
/// recipe pools, and [`RunControl`] tokens are host-side attachments and
/// stay with the machine.
#[derive(Debug, Clone)]
pub struct MpuCheckpoint {
    config: SimConfig,
    id: MpuId,
    vrfs: VrfStore,
    lane_maps: HashMap<(u16, u16), Vec<usize>>,
    cache: crate::recipe_cache::CacheCheckpoint,
    stats: Stats,
    pc: usize,
    halted: bool,
    inbox: Vec<Message>,
    block_ensembles: u64,
    single_step_ensembles: u64,
}

impl MpuCheckpoint {
    /// The instruction index the resumed machine will continue from.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// The statistics ledger at the moment of capture.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Approximate host-memory footprint in 64-bit words (VRF planes
    /// dominate) — lets a scheduler budget checkpoint retention.
    pub fn words(&self) -> usize {
        self.vrfs.snapshots().iter().map(Vec::len).sum()
    }
}

/// A single memory processing unit: control path + its slice of the PUM
/// datapath.
///
/// # Example
///
/// ```
/// use mastodon::{Mpu, SimConfig};
/// use mpu_isa::Program;
/// use pum_backend::DatapathKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mpu = Mpu::new(SimConfig::mpu(DatapathKind::Racer), 0.into());
/// mpu.write_register(0, 0, 0, &vec![2; 64])?;
/// mpu.write_register(0, 0, 1, &vec![40; 64])?;
/// let program = Program::parse_asm(
///     "COMPUTE h0 v0\n\
///      ADD r0 r1 r2\n\
///      COMPUTE_DONE",
/// )?;
/// let stats = mpu.run(&program)?;
/// assert_eq!(mpu.read_register(0, 0, 2)?[0], 42);
/// assert!(stats.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Mpu {
    config: SimConfig,
    id: MpuId,
    vrfs: VrfStore,
    /// Logical-lane → physical-lane map per VRF, present only when
    /// permanent-fault remapping is active: the host-visible vector lives
    /// on the healthy lanes, dead lanes are skipped, and the logical
    /// width is `lanes_per_vrf - spare_lanes` (shrinking further if dead
    /// lanes outnumber the spares).
    lane_maps: HashMap<(u16, u16), Vec<usize>>,
    cache: RecipeCache,
    stats: Stats,
    pc: usize,
    halted: bool,
    inbox: Vec<Message>,
    /// Observability hook (`None` by default). Every ledger change goes
    /// through [`Self::charge`], which applies its delta either way and,
    /// when armed, hands the tracer that same delta as a [`TraceEvent`].
    /// Disarmed, no event kind is built, so execution and statistics are
    /// byte-identical either way.
    tracer: Option<Box<dyn Tracer>>,
    /// Compute ensembles executed on multi-instruction blocks (host-side
    /// telemetry; not part of [`Stats`] — how a body executes never
    /// changes the architectural ledger).
    block_ensembles: u64,
    /// Compute ensembles executed one instruction per block.
    single_step_ensembles: u64,
    /// Cooperative cancellation/preemption token (`None` by default):
    /// polled once per top-level instruction. Host-side only — polling
    /// never charges cycles, so controlled and uncontrolled runs produce
    /// byte-identical lane values and [`Stats`].
    ctrl: Option<Arc<RunControl>>,
}

impl Mpu {
    /// Creates an MPU with empty (zeroed) VRFs.
    pub fn new(config: SimConfig, id: MpuId) -> Self {
        let cache = RecipeCache::new(config.template_entries);
        Self::with_cache(config, id, cache)
    }

    /// Creates an MPU whose recipe-cache misses resolve through the shared
    /// `pool`. Host-side only: simulated timing, energy, and hit/miss
    /// statistics match [`Mpu::new`] exactly.
    pub fn with_pool(config: SimConfig, id: MpuId, pool: Arc<RecipePool>) -> Self {
        let cache = RecipeCache::with_pool(config.template_entries, pool);
        Self::with_cache(config, id, cache)
    }

    fn with_cache(config: SimConfig, id: MpuId, cache: RecipeCache) -> Self {
        Self {
            config,
            id,
            vrfs: VrfStore::default(),
            lane_maps: HashMap::new(),
            cache,
            stats: Stats::default(),
            pc: 0,
            halted: false,
            inbox: Vec::new(),
            tracer: None,
            block_ensembles: 0,
            single_step_ensembles: 0,
            ctrl: None,
        }
    }

    /// Arms a cooperative [`RunControl`] token. The machine polls it at
    /// every compute-ensemble boundary (once per top-level instruction):
    /// a cancel request errors with [`SimError::Cancelled`], a preempt
    /// request pauses with [`StepEvent::Preempted`]. Purely host-side —
    /// results and statistics are unchanged by polling.
    pub fn set_run_control(&mut self, ctrl: Arc<RunControl>) {
        self.ctrl = Some(ctrl);
    }

    /// Disarms the [`RunControl`] token, if any.
    pub fn clear_run_control(&mut self) {
        self.ctrl = None;
    }

    /// Execution-tier telemetry: counts of compute ensembles run on
    /// multi-instruction blocks and run one instruction per block (fault
    /// injection, redundancy, or `trace_ensembles = false`). Host-side
    /// observability only — lane values and [`Stats`] are bit-identical
    /// either way.
    pub fn tier_counts(&self) -> (u64, u64) {
        (self.block_ensembles, self.single_step_ensembles)
    }

    /// Arms structured tracing: `tracer` receives one [`TraceEvent`] per
    /// stats charge (see [`crate::trace`] for the contract). Tracing is
    /// observational only — lane values and [`Stats`] stay byte-identical
    /// to an untraced run.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The one way the ledger changes: adds `delta` to [`Stats`] and, when
    /// a tracer is armed, emits it as a [`TraceEvent`] of kind `kind()`,
    /// stamped with the post-charge cycle count. Every event therefore
    /// carries exactly the delta its charge applied. `kind` runs only when
    /// armed: disarmed, a charge costs its adds and one branch.
    #[inline]
    fn charge(&mut self, line: usize, delta: Stats, kind: impl FnOnce() -> TraceKind) {
        self.stats.merge_sequential(&delta);
        if let Some(tracer) = self.tracer.as_mut() {
            let cycle = self.stats.cycles;
            tracer.event(&TraceEvent { mpu: self.id.0, line, cycle, kind: kind(), delta });
        }
    }

    /// Charges one redundancy/recovery action: its fault counter.
    fn charge_fault(&mut self, line: usize, action: FaultAction) {
        let mut faults = FaultStats::default();
        match action {
            FaultAction::RedundantRun => faults.redundant_runs = 1,
            FaultAction::Detected => faults.detected = 1,
            FaultAction::Corrected => faults.corrected = 1,
            FaultAction::Retry => faults.retries = 1,
        }
        self.charge(line, Stats { faults, ..Stats::default() }, || TraceKind::Fault(action));
    }

    /// Fetches the instruction at `pc`, rejecting truncated programs
    /// (unterminated blocks, control transfers past the end) instead of
    /// panicking.
    fn fetch(program: &Program, pc: usize) -> Result<Instruction, SimError> {
        program.get(pc).copied().ok_or(SimError::UnexpectedEnd { line: pc })
    }

    /// This MPU's identifier.
    pub fn id(&self) -> MpuId {
        self.id
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The current program counter (a top-level instruction index whenever
    /// [`Mpu::step`] is not mid-flight).
    pub fn pc(&self) -> usize {
        self.pc
    }

    fn check_geometry(&self, line: usize, rfh: u16, vrf: u16) -> Result<(), SimError> {
        let g = self.config.datapath.geometry();
        if (rfh as usize) >= g.rfhs_per_mpu {
            return Err(SimError::GeometryExceeded {
                line,
                what: format!("RFH {rfh} >= {}", g.rfhs_per_mpu),
            });
        }
        if (vrf as usize) >= g.vrfs_per_rfh {
            return Err(SimError::GeometryExceeded {
                line,
                what: format!("VRF {vrf} >= {}", g.vrfs_per_rfh),
            });
        }
        Ok(())
    }

    fn vrf_mut(&mut self, rfh: u16, vrf: u16) -> VrfMut<'_> {
        let at = self.vrf_slot(rfh, vrf);
        self.vrfs.member(at)
    }

    /// Where a VRF lives in the store, powering it on at first touch.
    fn vrf_slot(&mut self, rfh: u16, vrf: u16) -> WaveMember {
        match self.vrfs.get((rfh, vrf)) {
            Some(at) => at,
            None => self.init_vrf(rfh, vrf),
        }
    }

    /// Powers on one VRF: attaches its derived fault model (stuck lanes
    /// assert from power-on) and, under the remap policy, runs the boot
    /// self-test that power-gates dead lanes and maps the logical vector
    /// onto the healthy ones. Returns where it lives in the store.
    fn init_vrf(&mut self, rfh: u16, vrf: u16) -> WaveMember {
        let g = self.config.datapath.geometry();
        let at = self.vrfs.insert((rfh, vrf), &g);
        if self.config.fault.enabled() {
            self.vrfs.member(at).set_fault_model(self.config.fault.vrf_model(
                self.config.datapath.family(),
                self.id.0,
                rfh,
                vrf,
                g.lanes_per_vrf,
            ));
            if self.config.recovery.remap {
                let map = self.self_test_and_remap(at, g.lanes_per_vrf);
                self.lane_maps.insert((rfh, vrf), map);
            }
        }
        at
    }

    /// Boot self-test: march an all-ones then an all-zeros pattern through
    /// register 0 — a lane that cannot hold either value is dead. Dead
    /// lanes are power-gated (forced to 0 on every plane, including the
    /// mask, so they never participate again) and the logical vector is
    /// packed onto the remaining healthy lanes, spending the configured
    /// spares first. The march and repack are charged as transfer work.
    fn self_test_and_remap(&mut self, at: WaveMember, lanes: usize) -> Vec<usize> {
        let mut v = self.vrfs.member(at);
        v.write_lane_values(0, &vec![u64::MAX; lanes]);
        let ones = v.read_lane_values(0);
        v.write_lane_values(0, &vec![0; lanes]);
        let zeros = v.read_lane_values(0);
        let dead: Vec<usize> =
            (0..lanes).filter(|&l| ones[l] != u64::MAX || zeros[l] != 0).collect();
        if !dead.is_empty() {
            if let Some(model) = v.fault_model_mut() {
                for &lane in &dead {
                    model.kill_lane(lane);
                }
            }
            // Re-attach so the power-gating forces every plane now.
            let model = v.fault_model().cloned();
            v.set_fault_model(model);
        }
        let logical = lanes.saturating_sub(self.config.recovery.spare_lanes).max(1);
        let map: Vec<usize> = (0..lanes).filter(|l| !dead.contains(l)).take(logical).collect();
        let dead_n = dead.len() as u64;
        let remapped_n = map.iter().enumerate().filter(|&(i, &p)| i != p).count() as u64;
        let lost_n = (logical - map.len()) as u64;
        // Overhead: two write/read march passes over one register.
        let faults = FaultStats {
            dead_lanes: dead_n,
            remapped_lanes: remapped_n,
            lanes_lost: lost_n,
            ..FaultStats::default()
        };
        let delta = Stats { faults, ..self.transfer(4 * lanes as u64) };
        self.charge(0, delta, || TraceKind::SelfTest {
            dead: dead_n,
            remapped: remapped_n,
            lost: lost_n,
        });
        map
    }

    /// Writes host-visible element values through the logical→physical
    /// lane map (identity when remapping is off).
    fn write_lanes_logical(&mut self, rfh: u16, vrf: u16, reg: u8, values: &[u64]) {
        let lanes = self.config.datapath.geometry().lanes_per_vrf;
        let at = self.vrf_slot(rfh, vrf); // materialize (runs the boot self-test)
        let mut v = self.vrfs.member(at);
        match self.lane_maps.get(&(rfh, vrf)) {
            Some(map) => {
                let mut physical = vec![0u64; lanes];
                for (i, &p) in map.iter().enumerate() {
                    physical[p] = values.get(i).copied().unwrap_or(0);
                }
                v.write_lane_values(reg, &physical);
            }
            None => {
                // Lanes beyond the slice zero-fill implicitly; surplus
                // values are ignored (hardware has no rows for them).
                let take = values.len().min(lanes);
                v.write_lane_values(reg, &values[..take]);
            }
        }
    }

    /// Reads host-visible element values through the logical→physical
    /// lane map (identity when remapping is off).
    fn read_lanes_logical(&mut self, rfh: u16, vrf: u16, reg: u8) -> Vec<u64> {
        let physical = self.vrf_mut(rfh, vrf).read_lane_values(reg);
        match self.lane_maps.get(&(rfh, vrf)) {
            Some(map) => map.iter().map(|&p| physical[p]).collect(),
            None => physical,
        }
    }

    /// Host-visible vector width of a VRF: the full lane count normally,
    /// the remapped logical width when lane remapping is active.
    pub fn logical_lanes(&mut self, rfh: u16, vrf: u16) -> usize {
        self.vrf_mut(rfh, vrf);
        match self.lane_maps.get(&(rfh, vrf)) {
            Some(map) => map.len(),
            None => self.config.datapath.geometry().lanes_per_vrf,
        }
    }

    /// Host/DMA path: loads element values into a register (untimed; the
    /// paper's workloads assume data resident in PUM).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GeometryExceeded`] for out-of-range indices.
    pub fn write_register(
        &mut self,
        rfh: u16,
        vrf: u16,
        reg: u8,
        values: &[u64],
    ) -> Result<(), SimError> {
        self.check_geometry(0, rfh, vrf)?;
        self.write_lanes_logical(rfh, vrf, reg, values);
        Ok(())
    }

    /// Host/DMA path: reads a register back as element values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GeometryExceeded`] for out-of-range indices.
    pub fn read_register(&mut self, rfh: u16, vrf: u16, reg: u8) -> Result<Vec<u64>, SimError> {
        self.check_geometry(0, rfh, vrf)?;
        Ok(self.read_lanes_logical(rfh, vrf, reg))
    }

    /// Runs a complete program that performs no inter-MPU communication.
    ///
    /// # Errors
    ///
    /// Fails on invalid programs, geometry violations, or `SEND`/`RECV`
    /// (which need a [`crate::System`]).
    pub fn run(&mut self, program: &Program) -> Result<Stats, SimError> {
        self.reset_pc();
        match self.step(program)? {
            StepEvent::Completed => Ok(self.finish()),
            StepEvent::Sent(_) | StepEvent::AwaitingRecv { .. } => {
                Err(SimError::CommOutsideSystem { line: self.pc })
            }
            // `run` has no resume surface; preemptible execution drives
            // `step` directly.
            StepEvent::Preempted => Err(SimError::Cancelled { line: self.pc }),
        }
    }

    /// Rewinds the PC for a fresh run (VRF data is preserved).
    pub fn reset_pc(&mut self) {
        self.pc = 0;
        self.halted = false;
    }

    /// Finalizes end-of-run energy (front-end power in MPU mode, CPU idle
    /// power in Baseline mode) and returns a snapshot of the statistics.
    pub fn finish(&mut self) -> Stats {
        let mut delta = Stats::default();
        let (vrfs, powered) = (&mut self.vrfs.banks, &self.vrfs.powered);
        delta.faults.injected =
            powered.iter().map(|&(b, m)| vrfs[b].member(m).take_injected()).sum();
        match self.config.mode {
            // Power × cycles is not a whole number of fJ per cycle
            // (72942.93656 fJ for the default front end), so the product is
            // rounded once here rather than per cycle.
            ExecutionMode::Mpu => {
                let mw = self.config.frontend_dynamic_mw + self.config.frontend_static_mw;
                delta.energy.frontend_fj = pj_to_fj(mw * self.stats.cycles as f64);
            }
            ExecutionMode::Baseline => {
                let non_offload = self.stats.cycles.saturating_sub(self.stats.offload_cycles);
                delta.energy.cpu_fj =
                    pj_to_fj(self.config.offload.cpu_idle_mw * non_offload as f64);
            }
        }
        self.charge(self.pc, delta, || TraceKind::Finish);
        self.stats
    }

    /// Snapshots the complete machine state at the current (ensemble)
    /// boundary. See [`MpuCheckpoint`] for the byte-identical-resume
    /// contract. Call only when [`Mpu::step`] is not mid-flight: after it
    /// returned [`StepEvent::Preempted`], [`StepEvent::Completed`], or
    /// before the first step.
    pub fn export_checkpoint(&self) -> MpuCheckpoint {
        MpuCheckpoint {
            config: self.config.clone(),
            id: self.id,
            vrfs: self.vrfs.clone(),
            lane_maps: self.lane_maps.clone(),
            cache: self.cache.checkpoint(),
            stats: self.stats,
            pc: self.pc,
            halted: self.halted,
            inbox: self.inbox.clone(),
            block_ensembles: self.block_ensembles,
            single_step_ensembles: self.single_step_ensembles,
        }
    }

    /// Restores a [`MpuCheckpoint`] into this machine, which then resumes
    /// from the captured boundary on the next [`Mpu::step`] — do *not*
    /// call [`Mpu::reset_pc`] afterwards, it would restart the program.
    /// The machine adopts the checkpoint's MPU id (fault-site derivation
    /// keys on it). Host-side attachments (tracer, recipe pool, run
    /// control) are untouched.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] when this machine was built from a
    /// different [`SimConfig`] than the checkpoint — geometry, datapath,
    /// fault, and recovery settings must all agree for resume to be
    /// meaningful.
    pub fn import_checkpoint(&mut self, cp: &MpuCheckpoint) -> Result<(), SimError> {
        if self.config != cp.config {
            return Err(SimError::CheckpointMismatch {
                what: format!(
                    "machine config `{}` differs from checkpoint config `{}`",
                    self.config.label(),
                    cp.config.label()
                ),
            });
        }
        self.id = cp.id;
        self.vrfs = cp.vrfs.clone();
        self.lane_maps = cp.lane_maps.clone();
        self.cache.restore_checkpoint(&cp.cache);
        self.stats = cp.stats;
        self.pc = cp.pc;
        self.halted = cp.halted;
        self.inbox = cp.inbox.clone();
        self.block_ensembles = cp.block_ensembles;
        self.single_step_ensembles = cp.single_step_ensembles;
        Ok(())
    }

    /// Queues an incoming message (applied when `RECV` executes).
    pub fn deliver(&mut self, message: Message, arrival_cycle: u64) {
        // The receiver cannot see the message before it arrives.
        self.advance_to(arrival_cycle);
        self.inbox.push(message);
    }

    /// Advances execution until completion or the next communication
    /// boundary. See [`StepEvent`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn step(&mut self, program: &Program) -> Result<StepEvent, SimError> {
        if self.pc == 0 && !self.halted {
            program.validate().map_err(|e| SimError::InvalidProgram(e.to_string()))?;
        }
        let len = program.len();
        while self.pc < len && !self.halted {
            let line = self.pc;
            if let Some(ctrl) = &self.ctrl {
                match ctrl.cross_boundary() {
                    RunDirective::Continue => {}
                    RunDirective::Preempt => return Ok(StepEvent::Preempted),
                    RunDirective::Cancel => return Err(SimError::Cancelled { line }),
                }
            }
            let fetched = program[line];
            match fetched {
                Instruction::Compute { .. } => self
                    .exec_compute_ensemble(program)
                    .map_err(|e| self.in_ensemble(line, EnsembleKind::Compute, e))?,
                Instruction::Move { .. } => self
                    .exec_transfer_block(program, None)
                    .map_err(|e| self.in_ensemble(line, EnsembleKind::Transfer, e))?,
                Instruction::MpuSync => {
                    // One compute controller → ensembles already serialized;
                    // the fence costs a marker.
                    let delta = instr_delta(self.config.control.ensemble_marker);
                    self.charge(line, delta, || TraceKind::instr(&fetched));
                    self.pc += 1;
                }
                Instruction::Send { dst } => {
                    // Baseline datapaths have no inter-MPU message passing:
                    // the host CPU mediates every collective step.
                    let msg = self
                        .exec_send_block(program, dst)
                        .map_err(|e| self.in_ensemble(line, EnsembleKind::Send, e))?;
                    self.offload_comm(msg.bytes, line);
                    return Ok(StepEvent::Sent(Box::new(msg)));
                }
                Instruction::Recv { src } => {
                    if let Some(pos) = self.inbox.iter().position(|m| m.src == src) {
                        let msg = self.inbox.remove(pos);
                        if self.config.mode == ExecutionMode::Baseline {
                            // CPU-mediated delivery over the off-chip bus.
                            self.offload_comm(msg.bytes, line);
                        }
                        self.apply_message(&msg);
                        self.charge(line, instr_delta(0), || TraceKind::instr(&fetched));
                        self.pc += 1;
                    } else {
                        return Ok(StepEvent::AwaitingRecv { src });
                    }
                }
                Instruction::Return => {
                    // Top-level RETURN is the halt convention (end of main;
                    // subroutine bodies follow).
                    self.halted = true;
                    self.charge(line, instr_delta(0), || TraceKind::instr(&fetched));
                }
                Instruction::Nop => {
                    let delta = instr_delta(self.config.control.nop);
                    self.charge(line, delta, || TraceKind::instr(&fetched));
                    self.pc += 1;
                }
                ref other => {
                    return Err(SimError::StrayInstruction { line, mnemonic: other.mnemonic() });
                }
            }
        }
        Ok(StepEvent::Completed)
    }

    /// Annotates an ensemble-internal error with this MPU's id, the
    /// ensemble's opening line, and its kind (idempotent: errors already
    /// carrying context pass through).
    fn in_ensemble(&self, line: usize, kind: EnsembleKind, source: SimError) -> SimError {
        match source {
            wrapped @ SimError::InEnsemble { .. } => wrapped,
            source => SimError::InEnsemble { mpu: self.id.0, line, kind, source: Box::new(source) },
        }
    }

    // ----- compute ensembles ------------------------------------------

    /// Executes one compute ensemble, rolling back to a checkpoint of the
    /// VRF state and restarting (up to
    /// [`crate::RecoveryPolicy::max_restarts`] times) when redundancy
    /// escalates an uncorrected fault or the watchdog fires. Re-runs draw
    /// fresh fault sites, so a restart usually completes clean.
    fn exec_compute_ensemble(&mut self, program: &Program) -> Result<(), SimError> {
        if !self.config.recovery.checkpoint_restart {
            return self.exec_compute_ensemble_inner(program);
        }
        let start_pc = self.pc;
        // One snapshot per store slot; slots past its end power on during
        // an attempt.
        let checkpoint = self.vrfs.snapshots();
        // Checkpointing streams every live register row out to stable
        // storage: charge it as transfer work.
        let stream = self.transfer(checkpoint.iter().map(|s| s.len() as u64).sum());
        self.charge(start_pc, stream, || TraceKind::Checkpoint);
        let mut restarts = 0u32;
        loop {
            match self.exec_compute_ensemble_inner(program) {
                Ok(()) => return Ok(()),
                Err(e)
                    if restarts < self.config.recovery.max_restarts
                        && matches!(
                            e.root_cause(),
                            SimError::UncorrectedFault { .. } | SimError::WatchdogTriggered { .. }
                        ) =>
                {
                    restarts += 1;
                    self.pc = start_pc;
                    let (banks, powered) = (&mut self.vrfs.banks, &self.vrfs.powered);
                    for (slot, &(b, m)) in powered.iter().enumerate() {
                        let mut v = banks[b].member(m);
                        match checkpoint.get(slot) {
                            Some(snap) => v.restore(snap),
                            None => {
                                // Materialized during the failed attempt:
                                // back to its power-on image (re-forcing
                                // any stuck lanes).
                                v.restore(&vec![0; v.snapshot().len()]);
                                v.power_on();
                                let model = v.fault_model().cloned();
                                v.set_fault_model(model);
                            }
                        }
                    }
                    // Restore streams the checkpoint back in.
                    let faults = FaultStats { ensemble_restarts: 1, ..FaultStats::default() };
                    self.charge(start_pc, Stats { faults, ..stream }, || TraceKind::Restart);
                }
                Err(e)
                    if matches!(
                        e.root_cause(),
                        SimError::UncorrectedFault { .. } | SimError::WatchdogTriggered { .. }
                    ) =>
                {
                    // The restart budget is spent and the final attempt
                    // still escalated: wrap with the budget context so a
                    // host scheduler can classify this as transient (a
                    // whole-job retry draws fresh fault sites) while
                    // `root_cause` still reaches the fault site inside.
                    return Err(SimError::RestartsExhausted {
                        line: start_pc,
                        restarts,
                        source: Box::new(e),
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Executes one compute ensemble starting at `self.pc` (its first
    /// `COMPUTE` header instruction), including thermal-wave replay.
    fn exec_compute_ensemble_inner(&mut self, program: &Program) -> Result<(), SimError> {
        let marker = instr_delta(self.config.control.ensemble_marker);
        let kind = EnsembleKind::Compute;
        self.charge(self.pc, Stats::default(), || TraceKind::EnsembleBegin { kind });
        // Collect the contiguous COMPUTE header.
        let mut members: Vec<(u16, u16)> = Vec::new();
        while let header @ Instruction::Compute { rfh, vrf } = Self::fetch(program, self.pc)? {
            self.check_geometry(self.pc, rfh.0, vrf.0)?;
            members.push((rfh.0, vrf.0));
            self.charge(self.pc, marker, || TraceKind::instr(&header));
            self.pc += 1;
        }
        let body_start = self.pc;

        // Thermal-aware wave formation (Fig. 10): per-RFH queues, at most
        // `active_vrfs_per_rfh` of each RFH's VRFs per wave.
        let waves = form_waves(&members, self.config.datapath.geometry().active_vrfs_per_rfh);

        // Decode the body once into its block graph (memoized in the
        // pool). Fault injection (draws in program order),
        // redundancy (snapshot and compare per instruction) and
        // `trace_ensembles = false` run it one instruction per block.
        let layout = BodyLayout::walk(program.instructions(), body_start);
        let graph = self.cache.lookup_blocks(&layout.body, layout.entry);
        let batch = self.config.trace_ensembles
            && !self.config.fault.enabled()
            && self.config.recovery.redundancy == Redundancy::None;
        if batch {
            self.block_ensembles += 1;
        } else {
            self.single_step_ensembles += 1;
        }
        let mut end_pc = body_start;
        for (index, wave) in waves.iter().enumerate() {
            // Charged as each wave starts, so an attempt a restart cuts
            // short counts only the waves it actually replayed.
            let delta = Stats { scheduler_waves: 1, ..Stats::default() };
            self.charge(body_start, delta, || TraceKind::Wave { index, vrfs: wave.len() });
            end_pc = self.run_body(&graph, &layout, wave, batch)?;
        }
        if waves.is_empty() {
            // Headerless (empty) ensemble: skip to the footer.
            end_pc = self.run_body(&graph, &layout, &[], batch)?;
        }
        // Footer.
        let footer = Self::fetch(program, end_pc)?;
        self.charge(end_pc, marker, || TraceKind::instr(&footer));
        self.charge(end_pc, Stats::default(), || TraceKind::EnsembleEnd { kind });
        self.pc = end_pc + 1;
        Ok(())
    }

    /// Executes a decoded ensemble body once for one wave of VRFs; returns
    /// the line of the `COMPUTE_DONE` that ended it. `layout` is the body
    /// the graph was decoded from: step `i` is `layout.body[i]`, at program
    /// line `layout.lines[i]`.
    ///
    /// Accounting is per step, in program order: the fetch, the watchdog,
    /// playback refills, the template-table probe, every charge and every
    /// [`TraceEvent`]. Only op execution is batched: with `batch` (no
    /// fault model, no redundancy) a run of consecutive compute steps whose
    /// recipes are [`CompiledRecipe::fast`] executes once the run ends, in
    /// one pass over the whole wave that decodes each micro-op once
    /// ([`Self::execute_run`]). No such recipe writes the mask, so each
    /// VRF's mask is invariant across the run and every step's energy uses
    /// the enabled count taken at the run's start. Any other compute step
    /// executes on its own, under the redundancy policy without `batch`.
    fn run_body(
        &mut self,
        graph: &BlockGraph,
        layout: &BodyLayout,
        wave: &[(u16, u16)],
        batch: bool,
    ) -> Result<usize, SimError> {
        let (steps, lines, body) = (graph.steps(), &layout.lines[..], &layout.body[..]);
        let mut i = graph.entry();
        let mut return_stack: Vec<usize> = Vec::new();
        // RACER bit-pipelining: consecutive compute instructions overlap
        // across bit-stages; the first instruction after a (re)fill pays
        // full serial latency, later ones only their stage time.
        let mut pipeline_warm = false;
        // Baseline offload batching: one host round trip services a
        // contiguous run of control instructions; a compute instruction
        // ends the batch.
        let mut offload_batch = false;
        // Playback-buffer occupancy: bodies longer than the buffer incur
        // refills.
        let mut playback_used = 0usize;
        // Watchdog: bound on body instructions per wave pass, so a
        // fault-corrupted loop counter cannot spin the EFI forever.
        let mut body_instructions = 0u64;
        // The batched compute run accounted but not yet executed: its
        // recipes, and the wave's enabled-lane count at its start.
        let mut run: Vec<Arc<CompiledRecipe>> = Vec::new();
        let mut run_enabled = 0;

        // The members power on here, so the pass resolves them to store
        // slots once. Reset masks: an ensemble starts with all lanes
        // enabled.
        let members: Vec<WaveMember> =
            wave.iter().map(|&(rfh, vrf)| self.vrf_slot(rfh, vrf)).collect();
        for &at in &members {
            self.vrfs.member(at).fill_plane(Plane::Mask, true);
        }

        loop {
            let line = lines[i];
            let step = &steps[i];
            if !matches!(step, BlockStep::Compute(_)) {
                self.execute_run(&members, &mut run);
            }
            if let BlockStep::Trap(Trap::End) = step {
                return Err(SimError::UnexpectedEnd { line });
            }
            body_instructions += 1;
            if let Some(limit) = self.config.recovery.watchdog_instructions {
                if body_instructions > limit {
                    self.execute_run(&members, &mut run);
                    return Err(SimError::WatchdogTriggered { line, instructions: limit });
                }
            }
            playback_used += 1;
            if playback_used > self.config.playback_entries {
                playback_used = 1;
                let refill = control_delta(self.config.control.playback_refill);
                self.charge(line, refill, || TraceKind::PlaybackRefill);
            }
            // Every control step, NOP included, first rides a host offload
            // visit in Baseline mode (draining the bit pipeline and opening
            // or joining a batch), then charges its control-path cycles and
            // the instruction count.
            let c = &self.config.control;
            let control_cycles = match *step {
                BlockStep::SetMask(_) | BlockStep::Unmask => Some(c.mask_update),
                BlockStep::GetMask(_) => Some(c.mask_readout),
                BlockStep::JumpCond(_) => Some(c.efi_eval),
                BlockStep::Call(_) | BlockStep::Return => Some(c.jump),
                BlockStep::Nop => Some(c.nop),
                _ => None,
            };
            if let Some(cycles) = control_cycles {
                self.control_or_offload(wave, &mut pipeline_warm, &mut offload_batch, line);
                self.charge(line, instr_delta(cycles), || TraceKind::instr(&body[i]));
            }
            match *step {
                BlockStep::Compute(ref instr) => {
                    // In Baseline mode the CPU stays engaged across the
                    // whole control region (it issues these datapath ops
                    // remotely), so an open offload batch persists.
                    if batch {
                        let (cached, cycles) =
                            match self.issue_compute(instr, &mut pipeline_warm, line) {
                                Ok(issued) => issued,
                                Err(e) => {
                                    self.execute_run(&members, &mut run);
                                    return Err(e);
                                }
                            };
                        if cached.compiled.fast() {
                            if run.is_empty() {
                                let vrfs = members.iter().map(|&at| self.vrfs.member_ref(at));
                                run_enabled = vrfs.map(|v| v.mask_lanes() as u64).sum();
                            }
                            self.charge_exec(&cached, wave.len(), run_enabled, cycles, line);
                            run.push(cached.compiled);
                        } else {
                            self.execute_run(&members, &mut run);
                            self.run_wave_once(&cached, wave, cycles, line);
                        }
                    } else {
                        self.exec_compute_instr(instr, wave, &mut pipeline_warm, line)?;
                    }
                    i += 1;
                }
                BlockStep::SetMask(rs) => {
                    for &at in &members {
                        let mut v = self.vrfs.member(at);
                        if rs == COND_REG {
                            v.copy_plane(Plane::Cond, Plane::Mask);
                        } else {
                            v.copy_plane(Plane::Reg { reg: rs.0 as u8, bit: 0 }, Plane::Mask);
                        }
                    }
                    i += 1;
                }
                BlockStep::GetMask(rd) => {
                    for &at in &members {
                        let mut v = self.vrfs.member(at);
                        v.set_mask_enabled(false);
                        v.copy_plane(Plane::Mask, Plane::Reg { reg: rd.0 as u8, bit: 0 });
                        for bit in 1..64 {
                            v.fill_plane(Plane::Reg { reg: rd.0 as u8, bit }, false);
                        }
                        v.set_mask_enabled(true);
                    }
                    i += 1;
                }
                BlockStep::Unmask => {
                    for &at in &members {
                        self.vrfs.member(at).fill_plane(Plane::Mask, true);
                    }
                    i += 1;
                }
                BlockStep::JumpCond(target) => {
                    // The branch decision hands control back to the PUM
                    // fetcher: the CPU visit ends here.
                    offload_batch = false;
                    // EFI: jump back (continue the loop) while any lane of
                    // any wave VRF remains enabled (§VI-B semantics).
                    let any_enabled = members
                        .iter()
                        .any(|&at| self.vrfs.member_ref(at).any_lane_set(Plane::Mask));
                    i = if any_enabled { target as usize } else { i + 1 };
                }
                BlockStep::Call(target) => {
                    // JUMP is a call: it pushes its fall-through address
                    // for the matching RETURN. The stack is a hardware
                    // structure — a corrupted target re-executing JUMPs
                    // without RETURNs must trap, not grow without bound.
                    if return_stack.len() >= RETURN_STACK_DEPTH {
                        return Err(SimError::ReturnStackOverflow {
                            line,
                            depth: RETURN_STACK_DEPTH,
                        });
                    }
                    return_stack.push(i + 1);
                    i = target as usize;
                }
                BlockStep::Return => {
                    i = return_stack.pop().ok_or(SimError::ReturnUnderflow { line })?;
                }
                BlockStep::Nop => i += 1,
                BlockStep::Exit => {
                    // Leave predication clean for the next ensemble.
                    for &at in &members {
                        self.vrfs.member(at).fill_plane(Plane::Mask, true);
                    }
                    return Ok(line);
                }
                BlockStep::Trap(Trap::Stray(mnemonic)) => {
                    return Err(SimError::StrayInstruction { line, mnemonic });
                }
                BlockStep::Trap(Trap::End) => unreachable!("handled before the fetch is counted"),
            }
        }
    }

    /// Executes the pending batched compute run over the wave in one
    /// [`run_batch`] pass and empties it. Each micro-op is decoded once and
    /// applied to every member before the next, as the compute controller
    /// broadcasts it; a wave that names a VRF twice runs instruction by
    /// instruction, member by member, as the single-step tiers do.
    fn execute_run(&mut self, members: &[WaveMember], run: &mut Vec<Arc<CompiledRecipe>>) {
        if !run.is_empty() {
            run_batch(&mut self.vrfs.banks, members, run);
            run.clear();
        }
    }

    /// Issues one compute instruction to every VRF of the wave, under the
    /// configured redundancy policy.
    fn exec_compute_instr(
        &mut self,
        instr: &Instruction,
        wave: &[(u16, u16)],
        pipeline_warm: &mut bool,
        line: usize,
    ) -> Result<(), SimError> {
        let (cached, cycles) = self.issue_compute(instr, pipeline_warm, line)?;
        match self.config.recovery.redundancy {
            Redundancy::None => {
                self.run_wave_once(&cached, wave, cycles, line);
                Ok(())
            }
            Redundancy::Dmr => self.run_wave_dmr(&cached, wave, cycles, line),
            Redundancy::Tmr => {
                self.run_wave_tmr(&cached, wave, cycles, line);
                Ok(())
            }
        }
    }

    /// Probes the template table for a compute instruction and charges its
    /// decode (hit, or miss penalty) and the instruction count. Returns the
    /// template and its issue cycles, or, charging nothing,
    /// [`SimError::GeometryExceeded`] for an operand register the VRF does
    /// not have and [`SimError::IllegalOperand`] for operands its recipe
    /// cannot take.
    fn issue_compute(
        &mut self,
        instr: &Instruction,
        pipeline_warm: &mut bool,
        line: usize,
    ) -> Result<(crate::recipe_cache::CachedRecipe, u64), SimError> {
        let (cached, outcome) = match self.cache.lookup_traced(&self.config.datapath, instr) {
            Ok(Some(r)) => r,
            // Never silently drop work: a compute instruction without a
            // synthesizable recipe is a hard error.
            Ok(None) => {
                return Err(SimError::RecipeUnavailable { line, mnemonic: instr.mnemonic() })
            }
            Err(OperandError::OutOfRange(reg)) => {
                let regs = self.config.datapath.geometry().regs_per_vrf;
                let what = format!("{} register {reg} >= {regs}", instr.mnemonic());
                return Err(SimError::GeometryExceeded { line, what });
            }
            Err(error) => return Err(SimError::IllegalOperand { line, error }),
        };
        let penalty = self.config.control.recipe_miss_penalty;
        // Decode cost: MPU caches templates; Baseline decodes every time.
        let hit = match self.config.mode {
            ExecutionMode::Mpu => outcome.hit,
            ExecutionMode::Baseline => false,
        };
        let lookup = if hit {
            Stats { recipe_hits: 1, ..Stats::default() }
        } else {
            Stats { recipe_misses: 1, ..control_delta(penalty) }
        };
        self.charge(line, lookup, || TraceKind::RecipeLookup { hit, pool: outcome.pool });

        // Timing: micro-ops are broadcast to all wave VRFs, so issue time
        // does not scale with wave size. RACER overlaps consecutive
        // instructions across bit-stages once the pipeline is warm.
        let cost = &cached.cost;
        let cycles = if *pipeline_warm { cost.stage_cycles } else { cost.cycles };
        *pipeline_warm = true;
        self.charge(line, instr_delta(0), || TraceKind::instr(instr));
        Ok((cached, cycles))
    }

    /// One functional execution of a recipe over the wave. Each VRF runs
    /// the geometry-compiled form, whose plane addresses were resolved
    /// once per template; the enabled lane count comes from the VRF's
    /// cached mask popcount.
    fn run_wave_once(
        &mut self,
        cached: &crate::recipe_cache::CachedRecipe,
        wave: &[(u16, u16)],
        cycles: u64,
        line: usize,
    ) {
        let mut enabled = 0;
        for &(rfh, vrf) in wave {
            let mut v = self.vrf_mut(rfh, vrf);
            enabled += v.mask_lanes() as u64;
            v.run_compiled(&cached.compiled);
        }
        self.charge_exec(cached, wave.len(), enabled, cycles, line);
    }

    /// Charges one execution of a recipe over `vrfs` VRFs: its issue
    /// cycles, micro-ops, and datapath energy (only the `enabled` lanes
    /// burn switching energy — the mask power-gates the drivers).
    fn charge_exec(
        &mut self,
        cached: &crate::recipe_cache::CachedRecipe,
        vrfs: usize,
        enabled: u64,
        cycles: u64,
        line: usize,
    ) {
        let delta = Stats {
            cycles,
            compute_cycles: cycles,
            uops: cached.compiled.len() as u64,
            uops_saved: u64::from(cached.compiled.saved_uops()),
            energy: EnergyStats {
                datapath_fj: cached.cost.fj_per_lane * enabled,
                ..EnergyStats::default()
            },
            ..Stats::default()
        };
        self.charge(line, delta, || TraceKind::Exec { vrfs, mix: UopMix(cached.compiled.mix()) });
    }

    /// Snapshots every wave VRF (pre- or post-execution state).
    fn snapshot_wave(&mut self, wave: &[(u16, u16)]) -> Vec<Vec<u64>> {
        wave.iter().map(|&(rfh, vrf)| self.vrf_mut(rfh, vrf).snapshot()).collect()
    }

    /// Per-VRF scratch word ranges for the wave, for architectural image
    /// comparison (see [`arch_images_agree`]).
    fn wave_scratch_ranges(&mut self, wave: &[(u16, u16)]) -> Vec<std::ops::Range<usize>> {
        wave.iter().map(|&(rfh, vrf)| self.vrf_mut(rfh, vrf).scratch_word_range()).collect()
    }

    /// Restores every wave VRF from a snapshot set.
    fn restore_wave(&mut self, wave: &[(u16, u16)], snapshots: &[Vec<u64>]) {
        for (i, &(rfh, vrf)) in wave.iter().enumerate() {
            self.vrf_mut(rfh, vrf).restore(&snapshots[i]);
        }
    }

    /// Duplicate-and-compare: execute twice from the same input state and
    /// compare the architectural VRF images lane-exactly (scratch planes
    /// are excluded — see [`BitPlaneVrf::scratch_word_range`]). A mismatch
    /// is a detected fault; retry the pair (fresh fault draws each time)
    /// up to the retry budget, then escalate as
    /// [`SimError::UncorrectedFault`].
    fn run_wave_dmr(
        &mut self,
        cached: &crate::recipe_cache::CachedRecipe,
        wave: &[(u16, u16)],
        cycles: u64,
        line: usize,
    ) -> Result<(), SimError> {
        let scratch = self.wave_scratch_ranges(wave);
        let input = self.snapshot_wave(wave);
        let mut attempt = 0u32;
        loop {
            self.run_wave_once(cached, wave, cycles, line);
            let first = self.snapshot_wave(wave);
            self.restore_wave(wave, &input);
            self.charge_fault(line, FaultAction::RedundantRun);
            self.run_wave_once(cached, wave, cycles, line);
            let second = self.snapshot_wave(wave);
            if arch_images_agree(&first, &second, &scratch) {
                if attempt > 0 {
                    self.charge_fault(line, FaultAction::Corrected);
                }
                return Ok(());
            }
            self.charge_fault(line, FaultAction::Detected);
            if attempt >= self.config.recovery.max_retries {
                return Err(SimError::UncorrectedFault { line });
            }
            attempt += 1;
            self.charge_fault(line, FaultAction::Retry);
            self.restore_wave(wave, &input);
        }
    }

    /// Triple modular redundancy: execute three times from the same input
    /// state and commit the bitwise word-level majority, correcting any
    /// fault confined to a single run in place. Unanimity (like the DMR
    /// comparison) is judged on architectural planes only; the majority
    /// vote itself spans the full image, which is harmless for scratch —
    /// recipes never read scratch they did not first write.
    fn run_wave_tmr(
        &mut self,
        cached: &crate::recipe_cache::CachedRecipe,
        wave: &[(u16, u16)],
        cycles: u64,
        line: usize,
    ) {
        let scratch = self.wave_scratch_ranges(wave);
        let input = self.snapshot_wave(wave);
        self.run_wave_once(cached, wave, cycles, line);
        let a = self.snapshot_wave(wave);
        self.restore_wave(wave, &input);
        self.charge_fault(line, FaultAction::RedundantRun);
        self.run_wave_once(cached, wave, cycles, line);
        let b = self.snapshot_wave(wave);
        self.restore_wave(wave, &input);
        self.charge_fault(line, FaultAction::RedundantRun);
        self.run_wave_once(cached, wave, cycles, line);
        let c = self.snapshot_wave(wave);
        if arch_images_agree(&a, &b, &scratch) && arch_images_agree(&a, &c, &scratch) {
            return; // unanimous; current state (== c) stands
        }
        self.charge_fault(line, FaultAction::Detected);
        self.charge_fault(line, FaultAction::Corrected);
        for (i, &(rfh, vrf)) in wave.iter().enumerate() {
            let majority: Vec<u64> = a[i]
                .iter()
                .zip(&b[i])
                .zip(&c[i])
                .map(|((&x, &y), &z)| (x & y) | (y & z) | (x & z))
                .collect();
            self.vrf_mut(rfh, vrf).restore(&majority);
        }
    }

    /// Charges the Baseline host round trip for a control-flow instruction
    /// (no-op in MPU mode) and drains the bit pipeline. One round trip
    /// services a contiguous batch of control instructions (the CPU
    /// evaluates the whole mask/branch sequence in one visit); follow-on
    /// instructions within a batch only pay the bus transfer and a short
    /// CPU handling time.
    fn control_or_offload(
        &mut self,
        wave: &[(u16, u16)],
        pipeline_warm: &mut bool,
        offload_batch: &mut bool,
        line: usize,
    ) {
        if self.config.mode != ExecutionMode::Baseline {
            return;
        }
        *pipeline_warm = false; // offload drains the pipeline
        let lanes = self.config.datapath.geometry().lanes_per_vrf;
        let bytes = (wave.len().max(1) * lanes).div_ceil(8) as f64;
        let off = &self.config.offload;
        let batched = *offload_batch;
        let bus_cycles = (bytes / off.bus_bytes_per_cycle).ceil() as u64;
        let cycles = if batched {
            // Already at the CPU: per-instruction handling + data movement.
            64 + bus_cycles
        } else {
            off.round_trip_cycles + bus_cycles
        };
        *offload_batch = true;
        let delta = self.offload(cycles, bytes, u64::from(!batched));
        self.charge(line, delta, || TraceKind::Offload { batched });
    }

    /// The charge for a Baseline host offload of `cycles` that moves
    /// `bytes` over the off-chip bus and counts `events` round trips.
    fn offload(&self, cycles: u64, bytes: f64, events: u64) -> Stats {
        let off = &self.config.offload;
        let energy = EnergyStats {
            offload_bus_fj: pj_to_fj(bytes * off.bus_pj_per_byte),
            cpu_fj: pj_to_fj(off.cpu_active_mw * cycles as f64),
            ..EnergyStats::default()
        };
        Stats { cycles, offload_cycles: cycles, offload_events: events, energy, ..Stats::default() }
    }

    /// The charge for moving `words` 64-bit words on-chip.
    fn transfer(&self, words: u64) -> Stats {
        let cycles = words * self.config.datapath.transfer_cycles_per_word();
        let transfer_fj = words * self.config.datapath.transfer_fj_per_word();
        let energy = EnergyStats { transfer_fj, ..EnergyStats::default() };
        Stats { cycles, transfer_cycles: cycles, energy, ..Stats::default() }
    }

    /// Baseline-mode CPU mediation of inter-MPU communication: one host
    /// round trip plus moving `bytes` across the off-chip bus twice
    /// (PUM → CPU → PUM). No-op in MPU mode.
    fn offload_comm(&mut self, bytes: u64, line: usize) {
        if self.config.mode != ExecutionMode::Baseline {
            return;
        }
        let off = &self.config.offload;
        let bus_bytes = 2.0 * bytes as f64;
        let cycles = off.round_trip_cycles + (bus_bytes / off.bus_bytes_per_cycle).ceil() as u64;
        let delta = self.offload(cycles, bus_bytes, 1);
        self.charge(line, delta, || TraceKind::Offload { batched: false });
    }

    // ----- transfer ensembles ------------------------------------------

    /// Executes a move block. With `message` set, the block belongs to a
    /// `SEND` and the copies become remote writes instead of local ones.
    fn exec_transfer_block(
        &mut self,
        program: &Program,
        mut message: Option<&mut Message>,
    ) -> Result<(), SimError> {
        let marker = instr_delta(self.config.control.ensemble_marker);
        let kind = EnsembleKind::Transfer;
        self.charge(self.pc, Stats::default(), || TraceKind::EnsembleBegin { kind });
        // Header: source/destination RFH pairs → the DTC's target map.
        let mut pairs: Vec<(u16, u16)> = Vec::new();
        while let header @ Instruction::Move { src, dst } = Self::fetch(program, self.pc)? {
            pairs.push((src.0, dst.0));
            self.charge(self.pc, marker, || TraceKind::instr(&header));
            self.pc += 1;
        }
        let lanes = self.config.datapath.geometry().lanes_per_vrf;
        let words = lanes as u64; // one 64-bit word per lane per register
        loop {
            match Self::fetch(program, self.pc)? {
                footer @ Instruction::MoveDone => {
                    self.charge(self.pc, marker, || TraceKind::instr(&footer));
                    self.charge(self.pc, Stats::default(), || TraceKind::EnsembleEnd { kind });
                    self.pc += 1;
                    return Ok(());
                }
                copy @ Instruction::Memcpy { src_vrf, rs, dst_vrf, rd } => {
                    let line = self.pc;
                    for &(src_rfh, dst_rfh) in &pairs {
                        self.check_geometry(line, src_rfh, src_vrf.0)?;
                        // Payloads carry *logical* values, so transfers
                        // between differently-remapped VRFs stay coherent.
                        let values = self.read_lanes_logical(src_rfh, src_vrf.0, rs.0 as u8);
                        match message.as_deref_mut() {
                            Some(msg) => {
                                msg.writes.push(RemoteWrite {
                                    rfh: dst_rfh,
                                    vrf: dst_vrf.0,
                                    reg: rd.0 as u8,
                                    values,
                                });
                                msg.bytes += words * 8;
                            }
                            None => {
                                self.check_geometry(line, dst_rfh, dst_vrf.0)?;
                                self.write_lanes_logical(dst_rfh, dst_vrf.0, rd.0 as u8, &values);
                                // Runtime landing write: subject to RFH
                                // write-corruption faults.
                                self.vrf_mut(dst_rfh, dst_vrf.0).corrupt_register_write(rd.0 as u8);
                            }
                        }
                        // Sequential-consistency: transfers execute one at
                        // a time, in order.
                        let delta = self.transfer(words);
                        self.charge(line, delta, || TraceKind::Memcpy { src_rfh, dst_rfh });
                    }
                    self.charge(line, instr_delta(0), || TraceKind::instr(&copy));
                    self.pc += 1;
                }
                ref other => {
                    return Err(SimError::StrayInstruction {
                        line: self.pc,
                        mnemonic: other.mnemonic(),
                    });
                }
            }
        }
    }

    /// Executes a `SEND` block, returning the message to deliver.
    fn exec_send_block(&mut self, program: &Program, dst: MpuId) -> Result<Message, SimError> {
        let marker = instr_delta(self.config.control.ensemble_marker);
        let kind = EnsembleKind::Send;
        self.charge(self.pc, Stats::default(), || TraceKind::EnsembleBegin { kind });
        let header = Self::fetch(program, self.pc)?;
        self.charge(self.pc, marker, || TraceKind::instr(&header));
        self.pc += 1; // past SEND
        let mut msg =
            Message { src: self.id, dst, writes: Vec::new(), bytes: 0, departure_cycle: 0 };
        while !matches!(Self::fetch(program, self.pc)?, Instruction::SendDone) {
            match Self::fetch(program, self.pc)? {
                Instruction::Move { .. } => self.exec_transfer_block(program, Some(&mut msg))?,
                ref other => {
                    return Err(SimError::StrayInstruction {
                        line: self.pc,
                        mnemonic: other.mnemonic(),
                    });
                }
            }
        }
        // SEND_DONE.
        let done = Stats { messages_sent: 1, noc_bytes: msg.bytes, ..marker };
        let footer = Self::fetch(program, self.pc)?;
        self.charge(self.pc, done, || TraceKind::instr(&footer));
        self.charge(self.pc, Stats::default(), || TraceKind::EnsembleEnd { kind });
        self.pc += 1;
        msg.departure_cycle = self.stats.cycles;
        Ok(msg)
    }

    fn apply_message(&mut self, msg: &Message) {
        // Pack straight from the message payload; missing tail lanes
        // zero-fill implicitly.
        for w in &msg.writes {
            self.write_lanes_logical(w.rfh, w.vrf, w.reg, &w.values);
            // Runtime landing write: subject to RFH write-corruption
            // faults.
            self.vrf_mut(w.rfh, w.vrf).corrupt_register_write(w.reg);
        }
    }

    /// Local cycle count (used by the multi-MPU system loop).
    pub fn local_cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Charges this MPU's ledger on behalf of the [`crate::System`] (NoC
    /// message traversals land on the receiver). The charge is attributed
    /// to the instruction the MPU is currently at (a blocked `RECV` while
    /// a message is in flight).
    pub(crate) fn charge_system(&mut self, delta: Stats, kind: impl FnOnce() -> TraceKind) {
        self.charge(self.pc, delta, kind);
    }

    /// Advances the local clock (NoC delays, rendezvous waits).
    pub fn advance_to(&mut self, cycle: u64) {
        self.stats.cycles = self.stats.cycles.max(cycle);
    }
}

/// The charge for `cycles` of control-path work.
fn control_delta(cycles: u64) -> Stats {
    Stats { cycles, control_cycles: cycles, ..Stats::default() }
}

/// The charge for one executed instruction plus `cycles` of control-path
/// work.
fn instr_delta(cycles: u64) -> Stats {
    Stats { instructions: 1, ..control_delta(cycles) }
}

/// Architectural equality of two wave snapshot sets: every word outside
/// each VRF's scratch region must match. Scratch planes are excluded
/// because their post-recipe contents are not architectural — two runs of
/// the same recipe may legitimately differ there only by which injected
/// faults landed in dead scratch, and recipes never read scratch they did
/// not first write.
fn arch_images_agree(a: &[Vec<u64>], b: &[Vec<u64>], scratch: &[std::ops::Range<usize>]) -> bool {
    a.iter()
        .zip(b)
        .zip(scratch)
        .all(|((x, y), r)| x[..r.start] == y[..r.start] && x[r.end..] == y[r.end..])
}

/// Forms thermal-aware scheduling waves (Fig. 10): per-RFH queues, at most
/// `limit` VRFs of each RFH per wave.
fn form_waves(members: &[(u16, u16)], limit: usize) -> Vec<Vec<(u16, u16)>> {
    let limit = limit.max(1);
    let mut queues: HashMap<u16, Vec<(u16, u16)>> = HashMap::new();
    let mut rfh_order: Vec<u16> = Vec::new();
    for &(rfh, vrf) in members {
        if !queues.contains_key(&rfh) {
            rfh_order.push(rfh);
        }
        queues.entry(rfh).or_default().push((rfh, vrf));
    }
    let mut waves = Vec::new();
    loop {
        let mut wave = Vec::new();
        for rfh in &rfh_order {
            let Some(queue) = queues.get_mut(rfh) else {
                continue;
            };
            let take = limit.min(queue.len());
            wave.extend(queue.drain(..take));
        }
        if wave.is_empty() {
            break;
        }
        waves.push(wave);
    }
    waves
}

/// One initial-register binding: `((rfh, vrf, reg), lane values)`.
pub type RegisterInit = ((u16, u16, u8), Vec<u64>);

/// Convenience: run `program` on a fresh MPU with initial register data and
/// return `(stats, machine)` for inspection.
///
/// `inputs` maps `(rfh, vrf, reg)` to lane values.
///
/// # Errors
///
/// Propagates [`SimError`] from setup and execution.
pub fn run_single(
    config: SimConfig,
    program: &Program,
    inputs: &[RegisterInit],
) -> Result<(Stats, Mpu), SimError> {
    run_single_pooled(config, program, inputs, None)
}

/// [`run_single`] with an optional shared [`RecipePool`]: concurrent
/// simulations skip re-synthesizing recipes another run already lowered.
/// Results are bit-identical to the unpooled path — the pool only elides
/// host-side synthesis work, never the simulated template-fetch penalty.
///
/// # Errors
///
/// Propagates [`SimError`] from setup and execution.
pub fn run_single_pooled(
    config: SimConfig,
    program: &Program,
    inputs: &[RegisterInit],
    pool: Option<&Arc<RecipePool>>,
) -> Result<(Stats, Mpu), SimError> {
    run_single_traced(config, program, inputs, pool, None)
}

/// [`run_single_pooled`] with an optional [`Tracer`] attached before any
/// instruction executes, so the event stream covers the whole run.
/// Statistics and lane values are byte-identical to an untraced run.
///
/// # Errors
///
/// Propagates [`SimError`] from setup and execution.
pub fn run_single_traced(
    config: SimConfig,
    program: &Program,
    inputs: &[RegisterInit],
    pool: Option<&Arc<RecipePool>>,
    tracer: Option<Box<dyn Tracer>>,
) -> Result<(Stats, Mpu), SimError> {
    let mut mpu = match pool {
        Some(pool) => Mpu::with_pool(config, MpuId(0), Arc::clone(pool)),
        None => Mpu::new(config, MpuId(0)),
    };
    if let Some(tracer) = tracer {
        mpu.set_tracer(tracer);
    }
    for ((rfh, vrf, reg), values) in inputs {
        mpu.write_register(*rfh, *vrf, *reg, values)?;
    }
    let stats = mpu.run(program)?;
    Ok((stats, mpu))
}

// Parallel sweeps move whole machines across worker threads; keep the
// simulator `Send + Sync` (no `Rc`, no interior mutability without locks).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mpu>();
    assert_send_sync::<crate::System>();
    assert_send_sync::<RecipePool>();
    assert_send_sync::<Stats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLog;
    use mpu_isa::{BinaryOp, CompareOp, LineNum, RegId, UnaryOp, VrfId};
    use pum_backend::DatapathKind;

    fn asm(text: &str) -> Program {
        Program::parse_asm(text).expect("valid asm")
    }

    fn racer() -> SimConfig {
        SimConfig::mpu(DatapathKind::Racer)
    }

    #[test]
    fn simple_add_runs_and_is_correct() {
        let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nCOMPUTE_DONE");
        let (stats, mut mpu) =
            run_single(racer(), &p, &[((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 2).unwrap(), vec![14; 64]);
        assert!(stats.cycles > 0);
        // 641-uop synthesized template, minus what the recipe optimizer
        // removes (see pum_backend::opt); saved + issued reconstructs it.
        assert_eq!(stats.uops, 573);
        assert_eq!(stats.uops_saved, 68);
        assert_eq!(stats.uops + stats.uops_saved, 641);
        assert_eq!(stats.offload_events, 0);
    }

    #[test]
    fn ensemble_broadcasts_to_all_vrfs() {
        let p = asm("COMPUTE h0 v0\nCOMPUTE h1 v0\nINC r0 r1\nCOMPUTE_DONE");
        let (_, mut mpu) =
            run_single(racer(), &p, &[((0, 0, 0), vec![1; 64]), ((1, 0, 0), vec![10; 64])])
                .unwrap();
        assert_eq!(mpu.read_register(0, 0, 1).unwrap()[0], 2);
        assert_eq!(mpu.read_register(1, 0, 1).unwrap()[0], 11);
    }

    #[test]
    fn thermal_waves_replay_for_same_rfh_vrfs() {
        // RACER allows 1 active VRF per RFH: two VRFs of the same RFH in
        // one ensemble must execute in two waves, with identical results.
        let p = asm("COMPUTE h0 v0\nCOMPUTE h0 v1\nINC r0 r1\nCOMPUTE_DONE");
        let (stats, mut mpu) =
            run_single(racer(), &p, &[((0, 0, 0), vec![1; 64]), ((0, 1, 0), vec![7; 64])]).unwrap();
        assert_eq!(stats.scheduler_waves, 2);
        assert_eq!(mpu.read_register(0, 0, 1).unwrap()[0], 2);
        assert_eq!(mpu.read_register(0, 1, 1).unwrap()[0], 8);

        // MIMDRAM can activate both at once: one wave, same results.
        let (stats, _) = run_single(
            SimConfig::mpu(DatapathKind::Mimdram),
            &p,
            &[((0, 0, 0), vec![1; 512]), ((0, 1, 0), vec![7; 512])],
        )
        .unwrap();
        assert_eq!(stats.scheduler_waves, 1);
    }

    #[test]
    fn dynamic_loop_terminates_via_efi() {
        // r0 counts down from lane index; loop decrements until all zero.
        // while (r0 > r1): r0 -= r2  (r1 = 0, r2 = 1)
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            // loop head (line 1): cond = r0 > r1
            Instruction::Compare { op: CompareOp::Gt, rs: RegId(0), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(2), rd: RegId(0) },
            Instruction::JumpCond { target: LineNum(1) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let init: Vec<u64> = (0..64).map(|i| i % 5).collect();
        let (stats, mut mpu) = run_single(
            racer(),
            &p,
            &[((0, 0, 0), init), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])],
        )
        .unwrap();
        assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![0; 64]);
        // 4 iterations (max initial value), data-driven.
        assert!(stats.instructions > 10);
        assert_eq!(stats.offload_events, 0, "MPU mode needs no CPU");
    }

    #[test]
    fn baseline_mode_offloads_control_flow() {
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Compare { op: CompareOp::Gt, rs: RegId(0), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(2), rd: RegId(0) },
            Instruction::JumpCond { target: LineNum(1) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let inputs: [((u16, u16, u8), Vec<u64>); 3] =
            [((0, 0, 0), vec![3; 64]), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])];
        let (mpu_stats, mut m1) =
            run_single(SimConfig::mpu(DatapathKind::Racer), &p, &inputs).unwrap();
        let (base_stats, mut m2) =
            run_single(SimConfig::baseline(DatapathKind::Racer), &p, &inputs).unwrap();
        // Same architectural result...
        assert_eq!(m1.read_register(0, 0, 0).unwrap(), m2.read_register(0, 0, 0).unwrap());
        // ...but Baseline pays CPU round trips.
        assert!(base_stats.offload_events > 0);
        assert!(base_stats.cycles > 3 * mpu_stats.cycles, "offloads dominate");
        assert!(base_stats.energy.cpu_fj > 0);
        assert_eq!(mpu_stats.offload_events, 0);
        assert!(mpu_stats.energy.cpu_fj == 0);
    }

    #[test]
    fn branches_predicate_lanes() {
        // if (r0 == r1) r2 = r0 + r1 else r2 = r0 - r1, via mask + inverse.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Compare { op: CompareOp::Eq, rs: RegId(0), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            // Invert the mask: getmask → r3, unmask, r3 = (r3 == 0), setmask.
            Instruction::GetMask { rd: RegId(3) },
            Instruction::Unmask,
            Instruction::Init { value: mpu_isa::InitValue::Zero, rd: RegId(4) },
            Instruction::Compare { op: CompareOp::Eq, rs: RegId(3), rt: RegId(4) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let a: Vec<u64> = (0..64).collect();
        let b: Vec<u64> = (0..64).map(|i| if i % 2 == 0 { i } else { 1 }).collect();
        let (_, mut mpu) =
            run_single(racer(), &p, &[((0, 0, 0), a.clone()), ((0, 0, 1), b.clone())]).unwrap();
        let got = mpu.read_register(0, 0, 2).unwrap();
        for i in 0..64 {
            let expect = if a[i] == b[i] { a[i] + b[i] } else { a[i].wrapping_sub(b[i]) };
            assert_eq!(got[i], expect, "lane {i}");
        }
    }

    #[test]
    fn subroutine_call_and_halt_convention() {
        // main: call subroutine at line 4, halt; sub: r1 = r0 + r0.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Jump { target: LineNum(4) },
            Instruction::ComputeDone,
            Instruction::Return, // top-level halt (never reached: pc skips)
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(0), rd: RegId(1) },
            Instruction::Return,
        ]);
        let (_, mut mpu) = run_single(racer(), &p, &[((0, 0, 0), vec![21; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 1).unwrap()[0], 42);
    }

    #[test]
    fn transfer_block_moves_registers_between_vrfs() {
        let p = asm("MOVE h0 h1\nMEMCPY v0 r0 v0 r1\nMOVE_DONE");
        let (stats, mut mpu) = run_single(racer(), &p, &[((0, 0, 0), vec![77; 64])]).unwrap();
        assert_eq!(mpu.read_register(1, 0, 1).unwrap()[0], 77);
        assert!(stats.transfer_cycles > 0);
        assert!(stats.energy.transfer_fj > 0);
    }

    #[test]
    fn multi_pair_move_applies_to_every_pair() {
        let p = asm("MOVE h0 h1\nMOVE h2 h3\nMEMCPY v0 r0 v0 r0\nMOVE_DONE");
        let (_, mut mpu) =
            run_single(racer(), &p, &[((0, 0, 0), vec![5; 64]), ((2, 0, 0), vec![6; 64])]).unwrap();
        assert_eq!(mpu.read_register(1, 0, 0).unwrap()[0], 5);
        assert_eq!(mpu.read_register(3, 0, 0).unwrap()[0], 6);
    }

    #[test]
    fn send_outside_system_is_an_error() {
        let p = asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE");
        let err = run_single(racer(), &p, &[]).unwrap_err();
        assert!(matches!(err, SimError::CommOutsideSystem { .. }));
    }

    #[test]
    fn geometry_violations_are_reported() {
        let p = asm("COMPUTE h9 v0\nNOP\nCOMPUTE_DONE");
        let err = run_single(racer(), &p, &[]).unwrap_err();
        assert!(matches!(err.root_cause(), SimError::GeometryExceeded { .. }), "got {err:?}");
        // The ensemble wrapper records where it happened.
        match &err {
            SimError::InEnsemble { mpu, line, kind, .. } => {
                assert_eq!(*mpu, 0);
                assert_eq!(*line, 0);
                assert_eq!(*kind, EnsembleKind::Compute);
            }
            other => panic!("expected ensemble context, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("mpu0") && msg.contains("COMPUTE"), "got {msg}");
    }

    #[test]
    fn operand_registers_out_of_range_are_typed_errors() {
        // `ADD r0 r1 r16` and `POPC r20 r1` name registers a 16-register
        // VRF does not have: the template probe rejects them on every
        // substrate and tier instead of panicking while binding planes.
        for kind in DatapathKind::ALL {
            let regs = SimConfig::mpu(kind).datapath.geometry().regs_per_vrf;
            for (body, reg) in [("ADD r0 r1 r16", regs), ("POPC r20 r1", regs + 4)] {
                for trace_ensembles in [true, false] {
                    let mut cfg = SimConfig::mpu(kind);
                    cfg.trace_ensembles = trace_ensembles;
                    let p = asm(&format!("COMPUTE h0 v0\nNOP\n{body}\nCOMPUTE_DONE"));
                    let err = run_single(cfg, &p, &[]).unwrap_err();
                    let what = format!("r{reg} >= {regs}");
                    match err.root_cause() {
                        SimError::GeometryExceeded { line: 2, what: got } => {
                            assert!(got.ends_with(&what), "{kind:?} `{body}`: {got}")
                        }
                        other => {
                            panic!("{kind:?} `{body}`: expected a geometry error, got {other:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn recipe_cache_hits_on_repeated_instructions() {
        let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nADD r0 r1 r2\nADD r0 r1 r2\nCOMPUTE_DONE");
        let (stats, _) = run_single(racer(), &p, &[]).unwrap();
        assert_eq!(stats.recipe_misses, 1);
        assert_eq!(stats.recipe_hits, 2);
    }

    #[test]
    fn pipelining_makes_consecutive_instructions_cheaper() {
        // Two identical RACER programs; the one with more back-to-back
        // instructions should cost much less than proportionally more.
        let p1 = asm("COMPUTE h0 v0\nADD r0 r1 r2\nCOMPUTE_DONE");
        let p8 = asm("COMPUTE h0 v0\n\
             ADD r0 r1 r2\nADD r0 r1 r2\nADD r0 r1 r2\nADD r0 r1 r2\n\
             ADD r0 r1 r2\nADD r0 r1 r2\nADD r0 r1 r2\nADD r0 r1 r2\n\
             COMPUTE_DONE");
        let (s1, _) = run_single(racer(), &p1, &[]).unwrap();
        let (s8, _) = run_single(racer(), &p8, &[]).unwrap();
        assert!(
            (s8.compute_cycles as f64) < 3.0 * s1.compute_cycles as f64,
            "8 pipelined ADDs ({}) should cost < 3x one ADD ({})",
            s8.compute_cycles,
            s1.compute_cycles
        );
    }

    #[test]
    fn mask_resets_between_ensembles() {
        // First ensemble masks everything off; second must still write.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Init { value: mpu_isa::InitValue::Zero, rd: RegId(3) },
            Instruction::SetMask { rs: RegId(3) }, // all lanes off
            Instruction::ComputeDone,
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Unary { op: UnaryOp::Inc, rs: RegId(0), rd: RegId(1) },
            Instruction::ComputeDone,
        ]);
        let (_, mut mpu) = run_single(racer(), &p, &[((0, 0, 0), vec![1; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 1).unwrap()[0], 2);
    }

    #[test]
    fn stray_instruction_detected() {
        let p = Program::from_instructions(vec![Instruction::Unmask]);
        let err = run_single(racer(), &p, &[]).unwrap_err();
        assert!(matches!(err, SimError::StrayInstruction { .. }));
    }

    #[test]
    fn truncated_compute_block_is_an_error_not_a_panic() {
        // COMPUTE header + body but no COMPUTE_DONE: the up-front
        // validator rejects it before execution starts.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
        ]);
        let err = run_single(racer(), &p, &[]).unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram(_)), "got {err:?}");
    }

    #[test]
    fn truncated_move_block_is_an_error_not_a_panic() {
        // MOVE header with neither body nor MOVE_DONE.
        let p =
            Program::from_instructions(vec![Instruction::Move { src: 0.into(), dst: 1.into() }]);
        let err = run_single(racer(), &p, &[]).unwrap_err();
        assert!(matches!(err, SimError::InvalidProgram(_)), "got {err:?}");
    }

    #[test]
    fn fetch_past_program_end_reports_unexpected_end() {
        // Should validation ever miss a truncated block, the execution-path
        // backstop turns the out-of-bounds fetch into a SimError rather
        // than an index panic.
        let p = Program::from_instructions(vec![Instruction::Nop]);
        assert!(matches!(Mpu::fetch(&p, 0), Ok(Instruction::Nop)));
        let err = Mpu::fetch(&p, 3).unwrap_err();
        assert_eq!(err, SimError::UnexpectedEnd { line: 3 });
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "got {msg}");
    }

    #[test]
    fn wave_formation_respects_limits() {
        let members = vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)];
        let waves = form_waves(&members, 1);
        assert_eq!(waves.len(), 3);
        assert_eq!(waves[0], vec![(0, 0), (1, 0)]);
        assert_eq!(waves[1], vec![(0, 1), (1, 1)]);
        assert_eq!(waves[2], vec![(0, 2)]);
        let waves = form_waves(&members, 8);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 5);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SimError::ReturnUnderflow { line: 7 };
        assert!(e.to_string().contains("line 7"));
        let e = SimError::StrayInstruction { line: 3, mnemonic: "MEMCPY" };
        assert!(e.to_string().contains("MEMCPY"));
        let e = SimError::RecvTimeout { mpu: 2, from: 5, waited: 900 };
        let msg = e.to_string();
        assert!(msg.contains("mpu2") && msg.contains("mpu5") && msg.contains("900"), "got {msg}");
        let e = SimError::InEnsemble {
            mpu: 1,
            line: 4,
            kind: EnsembleKind::Send,
            source: Box::new(SimError::UncorrectedFault { line: 6 }),
        };
        let msg = e.to_string();
        assert!(msg.contains("mpu1") && msg.contains("SEND") && msg.contains("line 6"), "{msg}");
        assert_eq!(e.root_cause(), &SimError::UncorrectedFault { line: 6 });
        use std::error::Error;
        assert!(e.source().is_some());
    }

    // ----- fault injection & recovery ---------------------------------

    use crate::fault::{FaultConfig, Redundancy, StuckLane};

    fn faulty_racer(rate: f64, seed: u64) -> SimConfig {
        let mut c = racer();
        c.fault = FaultConfig { seed: Some(seed), transient_rate: rate, ..Default::default() };
        c
    }

    fn add_chain(n: usize) -> Program {
        let mut text = String::from("COMPUTE h0 v0\n");
        for _ in 0..n {
            text.push_str("ADD r0 r1 r2\nADD r2 r1 r2\n");
        }
        text.push_str("COMPUTE_DONE");
        asm(&text)
    }

    #[test]
    fn armed_but_zero_rate_fault_layer_is_byte_identical() {
        let p = add_chain(4);
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        let (clean_stats, mut clean) = run_single(racer(), &p, &inputs).unwrap();
        let (armed_stats, mut armed) =
            run_single(faulty_racer(0.0, 0xD15EA5E), &p, &inputs).unwrap();
        assert_eq!(clean_stats, armed_stats);
        assert_eq!(clean.read_register(0, 0, 2).unwrap(), armed.read_register(0, 0, 2).unwrap());
        assert_eq!(armed_stats.faults.injected, 0);
    }

    #[test]
    fn transient_faults_inject_and_are_counted() {
        let p = add_chain(8);
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        let (stats, _) = run_single(faulty_racer(0.5, 42), &p, &inputs).unwrap();
        assert!(stats.faults.injected > 0, "rate 0.5 over 16 ADDs must land faults");
    }

    #[test]
    fn tmr_masks_faults_to_the_fault_free_result() {
        let p = add_chain(8);
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        let (_, mut clean) = run_single(racer(), &p, &inputs).unwrap();
        // TMR guarantees correction only while at most one of the three
        // runs is faulty per vote, so the rate must keep expected flips
        // per instruction per run well below one (a RACER ADD is ~641
        // micro-ops: 1e-4 ≈ 0.06 expected flips per run).
        let mut cfg = faulty_racer(1e-4, 2);
        cfg.recovery.redundancy = Redundancy::Tmr;
        let (stats, mut tmr) = run_single(cfg, &p, &inputs).unwrap();
        assert_eq!(
            clean.read_register(0, 0, 2).unwrap(),
            tmr.read_register(0, 0, 2).unwrap(),
            "TMR must vote out single-run faults"
        );
        assert!(stats.faults.injected > 0, "faults must actually land to make the test meaningful");
        assert_eq!(stats.faults.detected, stats.faults.corrected);
        assert!(stats.faults.redundant_runs > 0);
    }

    #[test]
    fn dmr_detects_and_escalates_when_retries_exhaust() {
        let p = add_chain(8);
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        // At rate 0.9 every paired run corrupts differently: DMR detects
        // each mismatch, burns its retries, and escalates.
        let mut cfg = faulty_racer(0.9, 3);
        cfg.recovery.redundancy = Redundancy::Dmr;
        cfg.recovery.max_retries = 2;
        let err = run_single(cfg, &p, &inputs).unwrap_err();
        assert!(matches!(err.root_cause(), SimError::UncorrectedFault { .. }), "got {err:?}");
    }

    #[test]
    fn dmr_retry_recovers_from_sparse_faults() {
        let p = add_chain(8);
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        let (_, mut clean) = run_single(racer(), &p, &inputs).unwrap();
        // Sparse faults: at most one of the paired runs corrupts, the
        // compare catches it, and a retry pair almost surely runs clean.
        let mut cfg = faulty_racer(1e-4, 6);
        cfg.recovery.redundancy = Redundancy::Dmr;
        cfg.recovery.max_retries = 8;
        let (stats, mut dmr) = run_single(cfg, &p, &inputs).unwrap();
        assert_eq!(
            clean.read_register(0, 0, 2).unwrap(),
            dmr.read_register(0, 0, 2).unwrap(),
            "DMR + retry must converge to the fault-free result"
        );
        assert!(stats.faults.injected > 0);
        assert!(stats.faults.corrected > 0);
        assert!(stats.faults.detected >= stats.faults.corrected);
    }

    #[test]
    fn checkpoint_restart_retries_a_failed_ensemble() {
        let p = add_chain(8);
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        let (_, mut clean) = run_single(racer(), &p, &inputs).unwrap();
        // Tight retry budget so some instruction escalates, then the
        // ensemble restart absorbs it (fresh draws each attempt).
        let mut cfg = faulty_racer(3e-4, 2);
        cfg.recovery.redundancy = Redundancy::Dmr;
        cfg.recovery.max_retries = 0;
        cfg.recovery.checkpoint_restart = true;
        cfg.recovery.max_restarts = 64;
        let (stats, mut rec) = run_single(cfg, &p, &inputs).unwrap();
        assert_eq!(clean.read_register(0, 0, 2).unwrap(), rec.read_register(0, 0, 2).unwrap());
        assert!(stats.faults.ensemble_restarts > 0, "expected at least one rollback");
    }

    #[test]
    fn stuck_lane_remaps_onto_spares() {
        let lanes = 64;
        let mut cfg = racer();
        cfg.fault = FaultConfig {
            seed: Some(1),
            stuck_lanes: vec![StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 5, value: true }],
            ..Default::default()
        };
        cfg.recovery.remap = true;
        cfg.recovery.spare_lanes = 4;
        let logical = lanes - 4;
        let a: Vec<u64> = (0..logical as u64).collect();
        let b = vec![100; logical];
        let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nCOMPUTE_DONE");
        let (stats, mut mpu) =
            run_single(cfg, &p, &[((0, 0, 0), a.clone()), ((0, 0, 1), b.clone())]).unwrap();
        let got = mpu.read_register(0, 0, 2).unwrap();
        assert_eq!(got.len(), logical);
        for i in 0..logical {
            assert_eq!(got[i], a[i] + 100, "logical lane {i}");
        }
        assert_eq!(mpu.logical_lanes(0, 0), logical);
        assert_eq!(stats.faults.dead_lanes, 1);
        assert!(stats.faults.remapped_lanes > 0, "lanes past the dead one must shift");
        assert_eq!(stats.faults.lanes_lost, 0, "one dead lane fits in four spares");
    }

    #[test]
    fn dead_lanes_beyond_spares_degrade_gracefully() {
        let mut cfg = racer();
        cfg.fault = FaultConfig {
            seed: Some(1),
            stuck_lanes: vec![
                StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 0, value: true },
                StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 1, value: false },
                StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 2, value: true },
            ],
            ..Default::default()
        };
        cfg.recovery.remap = true;
        cfg.recovery.spare_lanes = 1;
        let p = asm("COMPUTE h0 v0\nINC r0 r1\nCOMPUTE_DONE");
        let (stats, mut mpu) = run_single(cfg, &p, &[((0, 0, 0), vec![7; 64])]).unwrap();
        // 64 physical - 1 spare = 63 logical wanted, but 3 dead > 1 spare:
        // only 61 healthy lanes remain.
        assert_eq!(mpu.logical_lanes(0, 0), 61);
        assert_eq!(stats.faults.dead_lanes, 3);
        assert_eq!(stats.faults.lanes_lost, 2);
        assert_eq!(mpu.read_register(0, 0, 1).unwrap(), vec![8; 61]);
    }

    #[test]
    fn stuck_at_0_lane_without_remap_corrupts_results() {
        // Sanity check that the fault actually bites when unprotected.
        let mut cfg = racer();
        cfg.fault = FaultConfig {
            seed: Some(1),
            stuck_lanes: vec![StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: 5, value: false }],
            ..Default::default()
        };
        let p = asm("COMPUTE h0 v0\nINC r0 r1\nCOMPUTE_DONE");
        let (_, mut mpu) = run_single(cfg, &p, &[((0, 0, 0), vec![7; 64])]).unwrap();
        let got = mpu.read_register(0, 0, 1).unwrap();
        assert_eq!(got[5], 0, "stuck-at-0 lane pins every plane to zero");
        assert_eq!(got[6], 8, "healthy lanes are unaffected");
    }

    #[test]
    fn watchdog_stops_runaway_ensemble_bodies() {
        // Mask never clears → the EFI loops forever without a watchdog.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Nop,
            Instruction::JumpCond { target: LineNum(1) },
            Instruction::ComputeDone,
        ]);
        let mut cfg = racer();
        cfg.recovery.watchdog_instructions = Some(500);
        let err = run_single(cfg, &p, &[]).unwrap_err();
        assert!(
            matches!(err.root_cause(), SimError::WatchdogTriggered { instructions: 500, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn missing_recipe_is_a_hard_error() {
        // A recipe-less instruction reaching the compute path must trap,
        // not silently skip the work (the old behavior returned Ok).
        let mut mpu = Mpu::new(racer(), mpu_isa::MpuId(0));
        let mut warm = false;
        let err = mpu.exec_compute_instr(&Instruction::Nop, &[], &mut warm, 7).unwrap_err();
        assert!(
            matches!(err, SimError::RecipeUnavailable { line: 7, mnemonic: "NOP" }),
            "got {err:?}"
        );
    }

    #[test]
    fn nop_drains_the_pipeline_and_offloads_like_other_control_ops() {
        // S2: a NOP between two ADDs is a control instruction. In Baseline
        // mode it must trigger a CPU offload visit (draining RACER's bit
        // pipeline), so the second ADD pays full serial latency again.
        let with_nop = asm("COMPUTE h0 v0\nADD r0 r1 r2\nNOP\nADD r0 r1 r3\nCOMPUTE_DONE");
        let dp = pum_backend::DatapathModel::racer();
        let add =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        let cost = dp.recipe_cost(&dp.recipe(&add).unwrap());
        let (serial, stage) = (cost.cycles, cost.stage_cycles);

        let (base, _) =
            run_single(SimConfig::baseline(DatapathKind::Racer), &with_nop, &[]).unwrap();
        assert_eq!(base.offload_events, 1, "the NOP opens one CPU offload batch");
        assert_eq!(base.compute_cycles, 2 * serial, "the offload drains the pipeline");

        // In MPU mode there is no offload: the pipeline stays warm across
        // the NOP and the second ADD only pays its stage time.
        let mut cfg = racer();
        cfg.trace_ensembles = false;
        let (mpu_stats, _) = run_single(cfg, &with_nop, &[]).unwrap();
        assert_eq!(mpu_stats.offload_events, 0);
        assert_eq!(mpu_stats.compute_cycles, serial + stage);
    }

    #[test]
    fn corrupted_jump_target_traps_on_return_stack_overflow() {
        // A self-targeting JUMP (legal per the validator: the target is in
        // bounds) pushes a return address every iteration. The bounded
        // hardware stack must trap instead of growing without limit.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Jump { target: LineNum(1) },
            Instruction::ComputeDone,
        ]);
        let err = run_single(racer(), &p, &[]).unwrap_err();
        assert!(
            matches!(
                err.root_cause(),
                SimError::ReturnStackOverflow { depth: RETURN_STACK_DEPTH, .. }
            ),
            "got {err:?}"
        );
    }

    /// A straight-line body exercising every plain step class, with
    /// predication flips in the middle.
    fn straight_line_program() -> Program {
        asm("COMPUTE h0 v0\n\
             ADD r0 r1 r2\n\
             CMPGT r2 r1\n\
             SETMASK r63\n\
             SUB r2 r0 r3\n\
             NOP\n\
             UNMASK\n\
             INC r3 r4\n\
             COMPUTE_DONE")
    }

    /// An EFI loop: `while (r0 > r1) r0 -= r2`, a data-dependent trip count.
    fn efi_program() -> Program {
        Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Compare { op: CompareOp::Gt, rs: RegId(0), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(2), rd: RegId(0) },
            Instruction::JumpCond { target: LineNum(1) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ])
    }

    fn efi_inputs() -> [RegisterInit; 3] {
        [
            ((0, 0, 0), (0..64).map(|i| i % 7).collect()),
            ((0, 0, 1), vec![0; 64]),
            ((0, 0, 2), vec![1; 64]),
        ]
    }

    /// What one run leaves behind: the outcome, the ledger, h0.v0's r0..r8
    /// and the tier split.
    type Observed = (Result<Stats, SimError>, Stats, Vec<Vec<u64>>, (u64, u64));

    fn observe(config: SimConfig, p: &Program, inputs: &[RegisterInit]) -> Observed {
        let mut mpu = Mpu::new(config, MpuId(0));
        for ((rfh, vrf, reg), values) in inputs {
            mpu.write_register(*rfh, *vrf, *reg, values).unwrap();
        }
        let outcome = mpu.run(p);
        let lanes = (0..8).map(|reg| mpu.read_register(0, 0, reg).unwrap()).collect();
        (outcome, *mpu.stats(), lanes, mpu.tier_counts())
    }

    /// Asserts `config` runs `p` on multi-instruction blocks, with the
    /// outcome, ledger and lanes of one instruction per block.
    fn assert_blocks_match_single_steps(config: SimConfig, p: &Program, inputs: &[RegisterInit]) {
        let mut single = config.clone();
        single.trace_ensembles = false;
        let (want, want_stats, want_lanes, tiers) = observe(single, p, inputs);
        assert_eq!(tiers, (0, 1), "trace_ensembles = false runs one instruction per block");
        let (got, got_stats, got_lanes, tiers) = observe(config, p, inputs);
        assert_eq!(tiers, (1, 0), "the body must run on multi-instruction blocks");
        assert_eq!(got, want, "outcome");
        assert_eq!(got_stats, want_stats, "Stats must match bit-for-bit");
        assert_eq!(got_lanes, want_lanes, "lanes");
    }

    #[test]
    fn blocks_are_bit_identical_to_one_instruction_blocks() {
        let inputs = [((0, 0, 0), (0..64).collect()), ((0, 0, 1), vec![13; 64])];
        assert_blocks_match_single_steps(racer(), &straight_line_program(), &inputs);
    }

    #[test]
    fn blocks_replay_thermal_waves() {
        // Two VRFs of one RACER RFH: the graph runs once per wave and
        // the results and statistics still match one-instruction blocks.
        let p = asm("COMPUTE h0 v0\nCOMPUTE h0 v1\nADD r0 r0 r1\nINC r1 r2\nCOMPUTE_DONE");
        let inputs: [((u16, u16, u8), Vec<u64>); 2] =
            [((0, 0, 0), vec![4; 64]), ((0, 1, 0), vec![9; 64])];
        let mut off = racer();
        off.trace_ensembles = false;
        let (want, mut m1) = run_single(off, &p, &inputs).unwrap();
        let (got, mut m2) = run_single(racer(), &p, &inputs).unwrap();
        assert_eq!(want.scheduler_waves, 2);
        assert_eq!(want, got);
        assert_eq!(m2.tier_counts(), (1, 0));
        for (rfh, vrf) in [(0, 0), (0, 1)] {
            assert_eq!(
                m1.read_register(rfh, vrf, 2).unwrap(),
                m2.read_register(rfh, vrf, 2).unwrap()
            );
        }
    }

    #[test]
    fn data_dependent_bodies_run_on_blocks() {
        // EFI loop, then a mid-body GETMASK (a mask-to-register copy).
        assert_blocks_match_single_steps(racer(), &efi_program(), &efi_inputs());
        let getmask = asm("COMPUTE h0 v0\nCMPGT r0 r1\nSETMASK r63\nADD r0 r1 r2\nGETMASK r3\n\
                           UNMASK\nINC r3 r4\nCOMPUTE_DONE");
        assert_blocks_match_single_steps(racer(), &getmask, &efi_inputs());
    }

    #[test]
    fn only_faults_and_redundancy_force_one_instruction_blocks() {
        let p = efi_program();
        let inputs = efi_inputs();
        // Baseline offload, an armed tracer and a watchdog that trips
        // mid-body all run on multi-instruction blocks.
        assert_blocks_match_single_steps(SimConfig::baseline(DatapathKind::Racer), &p, &inputs);
        let mut cfg = racer();
        cfg.recovery.watchdog_instructions = Some(7);
        assert_blocks_match_single_steps(cfg, &p, &inputs);
        // Inside a run of compute steps, the steps before the trip execute.
        let mut cfg = racer();
        cfg.recovery.watchdog_instructions = Some(5);
        let chain = add_chain(4);
        let inputs_chain: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        assert_blocks_match_single_steps(cfg.clone(), &chain, &inputs_chain);
        let (outcome, _, lanes, _) = observe(cfg, &chain, &inputs_chain);
        assert!(matches!(
            outcome.unwrap_err().root_cause(),
            SimError::WatchdogTriggered { line: 6, instructions: 5 }
        ));
        assert_eq!(lanes[2], vec![5 + 9; 64], "the fifth ADD ran before the trip");
        let log = EventLog::new();
        let (stats, mpu) =
            run_single_traced(racer(), &p, &inputs, None, Some(Box::new(log.clone()))).unwrap();
        assert_eq!(mpu.tier_counts(), (1, 0), "an armed tracer must not change the tier");
        assert_eq!(stats, run_single(racer(), &p, &inputs).unwrap().0);
        assert!(!log.is_empty());
        // Seeded fault injection (draws must happen in program order) and
        // redundancy (snapshot/compare per instruction) do not.
        let mut cfg = racer();
        cfg.fault = FaultConfig { seed: Some(3), ..Default::default() };
        assert_eq!(observe(cfg, &p, &inputs).3, (0, 1), "fault injection");
        for redundancy in [Redundancy::Dmr, Redundancy::Tmr] {
            let mut cfg = racer();
            cfg.recovery.redundancy = redundancy;
            assert_eq!(observe(cfg, &p, &inputs).3, (0, 1), "{redundancy:?}");
        }
    }

    #[test]
    fn blocks_charge_identical_playback_refills() {
        // Body of 10 instructions with a 4-entry playback buffer: both
        // block sizes refill in-line at the same fetches.
        let body = "ADD r0 r1 r2\n".repeat(9);
        let p = asm(&format!("COMPUTE h0 v0\n{body}NOP\nCOMPUTE_DONE"));
        let mut on = racer();
        on.playback_entries = 4;
        assert_blocks_match_single_steps(on, &p, &[]);
    }

    #[test]
    fn block_steps_charge_cold_then_warm_issue_cycles() {
        // The executor tracks the bit pipeline: the first ADD pays serial
        // latency, later ones their stage time.
        let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nADD r0 r1 r3\nADD r0 r1 r4\nCOMPUTE_DONE");
        let dp = pum_backend::DatapathModel::racer();
        let add =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        let cost = dp.recipe_cost(&dp.recipe(&add).unwrap());
        assert!(cost.stage_cycles < cost.cycles, "RACER is bit-pipelined");
        let (stats, mpu) = run_single(racer(), &p, &[]).unwrap();
        assert_eq!(mpu.tier_counts(), (1, 0));
        assert_eq!(stats.compute_cycles, cost.cycles + 2 * cost.stage_cycles);
    }

    #[test]
    fn identical_loop_bodies_share_one_block_graph() {
        // The same EFI loop twice, at different lines, over different data:
        // one memo entry, and each ensemble runs its own trip count.
        let mut instrs = efi_program().instructions().to_vec();
        let second: Vec<Instruction> = instrs
            .iter()
            .map(|&instr| match instr {
                Instruction::Compute { rfh, .. } => Instruction::Compute { rfh, vrf: VrfId(1) },
                Instruction::JumpCond { target } => {
                    Instruction::JumpCond { target: LineNum(target.0 + 7) }
                }
                instr => instr,
            })
            .collect();
        instrs.extend(second);
        let p = Program::from_instructions(instrs);
        let mut inputs = efi_inputs().to_vec();
        inputs.extend([
            ((0, 1, 0), vec![3; 64]),
            ((0, 1, 1), vec![0; 64]),
            ((0, 1, 2), vec![1; 64]),
        ]);
        let pool = Arc::new(RecipePool::new());
        let (_, mut mpu) = run_single_pooled(racer(), &p, &inputs, Some(&pool)).unwrap();
        assert_eq!(mpu.tier_counts(), (2, 0));
        assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![0; 64]);
        assert_eq!(mpu.read_register(0, 1, 0).unwrap(), vec![0; 64]);
        let graph = |start| {
            let layout = BodyLayout::walk(p.instructions(), start);
            pool.get_or_decode(&layout.body, layout.entry)
        };
        assert!(Arc::ptr_eq(&graph(1), &graph(8)), "both bodies hit one pool entry");
        let mut single = racer();
        single.trace_ensembles = false;
        assert_eq!(
            run_single(single, &p, &inputs).unwrap().0,
            run_single(racer(), &p, &inputs).unwrap().0
        );
    }

    #[test]
    fn a_body_that_branches_back_into_an_earlier_body_starts_at_its_own_line() {
        // The second body's JUMP_COND targets line 1, so its layout holds
        // lines 1-2 before its own first line 4. r0 is all zero: the
        // branch falls through, the ADD runs once, and the program halts.
        let p = asm("COMPUTE h0 v0\nNOP\nCOMPUTE_DONE\n\
                     COMPUTE h0 v0\nSETMASK r0\nJUMP_COND 1\nUNMASK\nADD r1 r2 r3\nCOMPUTE_DONE\n\
                     RETURN");
        for trace_ensembles in [true, false] {
            let mut mpu = Mpu::new(SimConfig { trace_ensembles, ..racer() }, MpuId(0));
            mpu.write_register(0, 0, 1, &[5; 64]).unwrap();
            mpu.write_register(0, 0, 2, &[7; 64]).unwrap();
            // Cut a run that keeps re-entering an ensemble header.
            let ctrl = Arc::new(RunControl::new());
            ctrl.preempt_at_boundary(100);
            mpu.set_run_control(ctrl);
            let stats = mpu.run(&p).unwrap();
            assert_eq!(mpu.read_register(0, 0, 3).unwrap(), vec![12; 64]);
            // 3 + 6 ensemble instructions and the halt.
            assert_eq!(stats.instructions, 10, "trace_ensembles = {trace_ensembles}");
        }
    }

    #[test]
    fn self_calls_and_long_call_chains_overflow_like_one_instruction_blocks() {
        // A self-call, and a 200k-line body in which every line calls the
        // next: both decode without recursion, then trap at the same line
        // with the same Stats as one instruction per block.
        let compute = Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) };
        let self_call = Program::from_instructions(vec![
            compute,
            Instruction::Jump { target: LineNum(1) },
            Instruction::ComputeDone,
        ]);
        let n = 200_000u32;
        let mut chain = vec![compute];
        chain.extend((2..=n + 1).map(|t| Instruction::Jump { target: LineNum(t) }));
        chain.push(Instruction::ComputeDone);
        let chain = Program::from_instructions(chain);
        for (p, line) in [(self_call, 1), (chain, RETURN_STACK_DEPTH + 1)] {
            assert_blocks_match_single_steps(racer(), &p, &[]);
            let err = observe(racer(), &p, &[]).0.unwrap_err();
            assert_eq!(
                err.root_cause(),
                &SimError::ReturnStackOverflow { line, depth: RETURN_STACK_DEPTH }
            );
        }
    }

    /// A program with several top-level instructions (= several ensemble
    /// boundaries) for the preemption tests.
    fn staged_program() -> Program {
        asm("COMPUTE h0 v0\nADD r0 r1 r2\nCOMPUTE_DONE\n\
             NOP\n\
             COMPUTE h0 v0\nSUB r2 r1 r3\nCOMPUTE_DONE\n\
             NOP\n\
             COMPUTE h0 v0\nADD r2 r3 r4\nCOMPUTE_DONE")
    }

    const STAGED_INPUTS: [((u16, u16, u8), u64); 2] = [((0, 0, 0), 5), ((0, 0, 1), 9)];

    fn staged_inputs() -> Vec<RegisterInit> {
        STAGED_INPUTS.iter().map(|&(key, v)| (key, vec![v; 64])).collect()
    }

    #[test]
    fn cancel_surfaces_as_typed_error_at_a_boundary() {
        let ctrl = Arc::new(RunControl::new());
        ctrl.request_cancel();
        let mut mpu = Mpu::new(racer(), MpuId(0));
        mpu.set_run_control(Arc::clone(&ctrl));
        let err = mpu.run(&staged_program()).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { line: 0 }), "got {err:?}");
    }

    #[test]
    fn preempt_clear_resume_in_place_completes() {
        let ctrl = Arc::new(RunControl::new());
        ctrl.request_preempt();
        let p = staged_program();
        let mut mpu = Mpu::new(racer(), MpuId(0));
        mpu.set_run_control(Arc::clone(&ctrl));
        for ((rfh, vrf, reg), values) in staged_inputs() {
            mpu.write_register(rfh, vrf, reg, &values).unwrap();
        }
        mpu.reset_pc();
        assert_eq!(mpu.step(&p).unwrap(), StepEvent::Preempted);
        ctrl.clear();
        assert_eq!(mpu.step(&p).unwrap(), StepEvent::Completed);
        mpu.finish();
        assert_eq!(mpu.read_register(0, 0, 4).unwrap(), vec![14 + 5; 64]);
    }

    #[test]
    fn preempt_at_every_boundary_resumes_byte_identical_in_a_fresh_mpu() {
        let p = staged_program();
        let inputs = staged_inputs();
        let (want_stats, mut want) = run_single(racer(), &p, &inputs).unwrap();
        let want_lanes = want.read_register(0, 0, 4).unwrap();

        // Count the boundaries an uninterrupted controlled run crosses.
        let counter = Arc::new(RunControl::new());
        let mut probe = Mpu::new(racer(), MpuId(0));
        probe.set_run_control(Arc::clone(&counter));
        for ((rfh, vrf, reg), values) in &inputs {
            probe.write_register(*rfh, *vrf, *reg, values).unwrap();
        }
        let probe_stats = probe.run(&p).unwrap();
        assert_eq!(probe_stats, want_stats, "an idle token must not change the ledger");
        let total = counter.boundaries();
        assert_eq!(total, 5, "3 ensembles + 2 NOPs");

        for k in 1..=total {
            let ctrl = Arc::new(RunControl::new());
            ctrl.preempt_at_boundary(k);
            let mut mpu = Mpu::new(racer(), MpuId(0));
            mpu.set_run_control(ctrl);
            for ((rfh, vrf, reg), values) in &inputs {
                mpu.write_register(*rfh, *vrf, *reg, values).unwrap();
            }
            mpu.reset_pc();
            assert_eq!(mpu.step(&p).unwrap(), StepEvent::Preempted, "boundary {k}");
            let cp = mpu.export_checkpoint();
            assert!(cp.words() > 0);
            drop(mpu);

            let mut fresh = Mpu::new(racer(), MpuId(0));
            fresh.import_checkpoint(&cp).unwrap();
            assert_eq!(fresh.step(&p).unwrap(), StepEvent::Completed, "boundary {k}");
            let stats = fresh.finish();
            assert_eq!(stats, want_stats, "stats diverged after resume at boundary {k}");
            assert_eq!(
                fresh.read_register(0, 0, 4).unwrap(),
                want_lanes,
                "lanes diverged after resume at boundary {k}"
            );
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_under_armed_faults() {
        // The snapshot carries the fault PRNG state inside each VRF, so a
        // resumed run draws the same fault sites the uninterrupted run
        // would have.
        let mut cfg = faulty_racer(2e-3, 7);
        cfg.recovery.redundancy = Redundancy::Tmr;
        cfg.recovery.max_retries = 8;
        let p = staged_program();
        let inputs = staged_inputs();
        let (want_stats, mut want) = run_single(cfg.clone(), &p, &inputs).unwrap();
        let want_lanes = want.read_register(0, 0, 4).unwrap();
        assert!(want_stats.faults.injected > 0, "the fault layer must be exercised");

        let ctrl = Arc::new(RunControl::new());
        ctrl.preempt_at_boundary(3);
        let mut mpu = Mpu::new(cfg.clone(), MpuId(0));
        mpu.set_run_control(ctrl);
        for ((rfh, vrf, reg), values) in &inputs {
            mpu.write_register(*rfh, *vrf, *reg, values).unwrap();
        }
        mpu.reset_pc();
        assert_eq!(mpu.step(&p).unwrap(), StepEvent::Preempted);
        let cp = mpu.export_checkpoint();
        let mut fresh = Mpu::new(cfg, MpuId(0));
        fresh.import_checkpoint(&cp).unwrap();
        assert_eq!(fresh.step(&p).unwrap(), StepEvent::Completed);
        assert_eq!(fresh.finish(), want_stats);
        assert_eq!(fresh.read_register(0, 0, 4).unwrap(), want_lanes);
    }

    #[test]
    fn checkpoint_into_mismatched_config_is_rejected() {
        let mpu = Mpu::new(racer(), MpuId(0));
        let cp = mpu.export_checkpoint();
        let mut other = Mpu::new(SimConfig::mpu(DatapathKind::Mimdram), MpuId(0));
        let err = other.import_checkpoint(&cp).unwrap_err();
        assert!(matches!(err, SimError::CheckpointMismatch { .. }), "got {err:?}");
    }

    #[test]
    fn a_restart_powers_on_the_vrfs_a_failed_attempt_materialized() {
        // The spinning ensemble is the first to touch h0 v5, so the
        // checkpoint holds no image of it: a restart must hand it back in
        // its power-on image (mask and `const1` planes set), or a later
        // recipe that reads the constant plane computes wrong lanes.
        let mut cfg = SimConfig::mpu(DatapathKind::Mimdram);
        cfg.recovery.checkpoint_restart = true;
        cfg.recovery.max_restarts = 1;
        cfg.recovery.watchdog_instructions = Some(50);
        let lanes = cfg.datapath.geometry().lanes_per_vrf;
        let mut mpu = Mpu::new(cfg, MpuId(0));
        let err = mpu.run(&asm("COMPUTE h0 v5\nJUMP_COND @1\nCOMPUTE_DONE")).unwrap_err();
        assert!(matches!(err.root_cause(), SimError::WatchdogTriggered { .. }), "got {err:?}");
        mpu.write_register(0, 5, 0, &vec![0b1010; lanes]).unwrap();
        mpu.write_register(0, 5, 1, &vec![0b0110; lanes]).unwrap();
        mpu.run(&asm("COMPUTE h0 v5\nOR r0 r1 r2\nCOMPUTE_DONE")).unwrap();
        assert_eq!(mpu.read_register(0, 5, 2).unwrap(), vec![0b1110; lanes]);
    }

    #[test]
    fn exhausted_restart_budget_carries_restart_count_and_fault_site() {
        // A high fault rate with a DMR policy, no per-instruction retries,
        // and a tiny restart budget: the ensemble keeps aborting until the
        // budget runs out, and the surfaced error must carry the restart
        // count while `root_cause` still reaches the fault site.
        let p = add_chain(24);
        let mut cfg = faulty_racer(3e-3, 11);
        cfg.recovery.redundancy = Redundancy::Dmr;
        cfg.recovery.max_retries = 0;
        cfg.recovery.checkpoint_restart = true;
        cfg.recovery.max_restarts = 1;
        let inputs: [RegisterInit; 2] = [((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])];
        let err = run_single(cfg, &p, &inputs).unwrap_err();
        let SimError::InEnsemble { kind: EnsembleKind::Compute, source, .. } = &err else {
            panic!("expected ensemble context, got {err:?}");
        };
        let SimError::RestartsExhausted { restarts, source: last, .. } = source.as_ref() else {
            panic!("expected RestartsExhausted, got {source:?}");
        };
        assert_eq!(*restarts, 1, "the whole budget was spent");
        assert!(
            matches!(last.as_ref(), SimError::UncorrectedFault { .. }),
            "the last attempt's fault site rides along: {last:?}"
        );
        assert!(matches!(err.root_cause(), SimError::UncorrectedFault { .. }));
    }
}
