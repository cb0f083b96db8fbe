//! # service — resilient multi-tenant simulation service
//!
//! A persistent daemon (or in-process handle) that accepts MPU
//! simulation jobs from many tenants and schedules them across a worker
//! pool sharing one warm recipe pool. The design goal is *robustness*:
//! every admitted job reaches exactly one typed outcome, and no single
//! job — however hostile — can take the service down.
//!
//! * **Admission control** ([`limits`]): bounded queue, per-tenant
//!   quotas, and submission-time resource validation (program size,
//!   geometry, dynamic-loop ceilings, no inter-MPU communication) with a
//!   typed rejection taxonomy ([`AdmitError`]).
//! * **Deadlines & cancellation**: cooperative, via
//!   [`mastodon::RunControl`] polled at compute-ensemble boundaries plus
//!   a watchdog thread; in-ensemble runaways are fenced by the
//!   simulator's per-ensemble instruction watchdog.
//! * **Retry with backoff**: transient `UncorrectedFault` aborts retry
//!   with exponential backoff and seeded jitter, bounded by a budget;
//!   exhaustion is a typed [`JobError::FaultBudgetExhausted`].
//! * **Checkpoint preemption**: high-priority jobs preempt running
//!   lower-priority ones at ensemble boundaries; the victim resumes
//!   byte-identically from an [`mastodon::MpuCheckpoint`].
//! * **Worker isolation**: each attempt runs under `catch_unwind`; a
//!   poison job costs one typed [`JobError::WorkerPanic`], never a
//!   worker. Chaos-killed workers are detected, their jobs recovered,
//!   and replacements spawned.
//! * **Graceful degradation** ([`health`]): under queue pressure or
//!   fault storms the service sheds low-priority work and runs new jobs
//!   one instruction per block, then recovers on its own.
//! * **Wire protocol** ([`proto`], [`server`]): length-prefixed
//!   `microjson` frames over a Unix socket, with a blocking client.
//!
//! ```
//! use pum_backend::DatapathKind;
//! use service::{JobSpec, RegInit, RegRef, Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
//! let mut spec = JobSpec::ez("docs", DatapathKind::Racer, "ensemble h0.v0 {\n add r0 r1 r2\n}");
//! spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 0, values: vec![2] });
//! spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![3] });
//! spec.outputs.push(RegRef { rfh: 0, vrf: 0, reg: 2 });
//! let id = service.submit(spec).unwrap();
//! let outcome = service.wait(id).unwrap();
//! let result = outcome.result.unwrap();
//! assert_eq!(result.outputs[0].values[0], 2 + 3);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
mod job;
mod limits;
pub mod proto;
mod queue;
mod scheduler;
pub mod server;

pub use health::{HealthReport, HealthState};
pub use job::{
    FaultRequest, JobError, JobId, JobOutcome, JobPhase, JobResult, JobSpec, Priority,
    ProgramSource, RegInit, RegRef,
};
pub use limits::{AdmitError, SubmissionLimits};
pub use scheduler::{Service, ServiceConfig};
