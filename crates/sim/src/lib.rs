//! # mastodon — a cycle-accurate MPU simulator
//!
//! A reproduction of the paper's MASTODON (*Memory Array Simulation
//! Testbed for Organization, Data, Operations, and Networks*): it executes
//! MPU ISA binaries on modeled bitwise PUM datapaths with the full control
//! path of the paper's §VI —
//!
//! * **precoder/fetcher** walking the binary and distributing ensembles,
//! * **compute controller** with playback-buffer replay, an I2M decoder
//!   backed by a capacity-bounded recipe cache (template lookup, Fig. 9),
//!   per-VRF mask registers and the EFI for `JUMP_COND`,
//! * **thermal-aware scheduler** forming per-RFH activation waves (Fig. 10),
//! * **data transfer controller** for move blocks and `SEND`/`RECV`
//!   message passing over a mesh NoC ([`System`]),
//! * a **Baseline mode** in which control-flow instructions trigger host
//!   CPU round trips over the off-chip bus — the configuration the paper
//!   compares against.
//!
//! Execution is functionally exact (vector state lives in bit-plane VRFs
//! and every instruction runs via its micro-op recipe), so simulations
//! produce checkable results along with cycle/energy statistics.
//!
//! # Parallel sweeps
//!
//! Every simulator type is `Send + Sync` (enforced by a compile-time
//! assertion in `machine.rs`), so whole chip runs can be fanned across
//! threads. Two pieces support this:
//!
//! * [`RecipePool`] — a thread-safe, append-only map from
//!   `(RecipeCtx, instruction word)` to the synthesized micro-op
//!   [`Recipe`](pum_backend::Recipe). Recipe synthesis is a pure function
//!   of that key, so concurrent runs share one pool (via
//!   [`run_single_pooled`] or [`System::new_pooled`]) and each template is
//!   synthesized once per process instead of once per run. The pool only
//!   memoizes *host-side* synthesis work: each MPU's architectural
//!   [`RecipeCache`] still tracks its own capacity, LRU evictions, and
//!   hit/miss statistics, so pooled and unpooled runs produce identical
//!   [`Stats`].
//! * `workloads::run_sweep_parallel` / `workloads::parallel_map` — the
//!   sweep harness built on these guarantees. Results are returned in
//!   input order and are byte-identical to a serial sweep, whatever the
//!   job count. Worker count comes from `--jobs N` on the experiment
//!   binaries, else the `MPU_JOBS` environment variable, else the number
//!   of available cores.
//!
//! # Quick start
//!
//! ```
//! use mastodon::{run_single, SimConfig};
//! use mpu_isa::Program;
//! use pum_backend::DatapathKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::parse_asm(
//!     "COMPUTE h0 v0\n\
//!      MUL r0 r1 r2\n\
//!      COMPUTE_DONE",
//! )?;
//! let (stats, mut mpu) = run_single(
//!     SimConfig::mpu(DatapathKind::Racer),
//!     &program,
//!     &[((0, 0, 0), vec![6; 64]), ((0, 0, 1), vec![7; 64])],
//! )?;
//! assert_eq!(mpu.read_register(0, 0, 2)?[0], 42);
//! println!("{} cycles, {} µops", stats.cycles, stats.uops);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod autotune;
mod chrome;
mod config;
mod fault;
mod machine;
mod noc;
mod profile;
mod recipe_cache;
mod stats;
mod system;
mod trace;

pub use autotune::{autotune, EnsembleShape, TuneResult};
pub use chrome::{chrome_trace_json, NOC_TID};
pub use config::{ControlCosts, ExecutionMode, NocParams, OffloadParams, SimConfig};
pub use fault::{FaultConfig, RecoveryPolicy, Redundancy, StuckLane};
pub use machine::{
    run_single, run_single_pooled, run_single_traced, EnsembleKind, Message, Mpu, MpuCheckpoint,
    RegisterInit, RemoteWrite, RunControl, SimError, StepEvent, RETURN_STACK_DEPTH,
};
pub use noc::MeshNoc;
pub use profile::{MpuProfile, Profile, ProfileNode};
pub use recipe_cache::{PoolStats, RecipeCache, RecipePool};
pub use stats::{EnergyStats, FaultStats, Stats};
pub use system::{System, SystemError};
pub use trace::{EventLog, FaultAction, InstrClass, TraceEvent, TraceKind, Tracer, UopMix};

/// Writes `text` to stdout for the command-line binaries built on the
/// simulator and reports whether a reader is still there: `false` once it
/// has gone away (a closed pipe, as in `prim_suite | head -3`). Any other
/// write error ends the process with status 1.
///
/// A binary that still has work after printing (writing a file, checking
/// a verdict for its exit status) calls this and carries on; one whose
/// output is its only product calls [`print_stdout`].
pub fn write_stdout(text: &str) -> bool {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => false,
        Err(e) => {
            eprintln!("could not write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// [`write_stdout`] for a binary whose output is its only product: a
/// reader that has gone away (`fig12 | head -3`) ends the process quietly
/// with status 0, since nobody is left to read the rest.
pub fn print_stdout(text: &str) {
    if !write_stdout(text) {
        std::process::exit(0);
    }
}
