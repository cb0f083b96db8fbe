//! End-to-end applications (paper §VIII-D, Table IV): multi-MPU programs
//! with compute phases and collective communication, executed on the
//! [`mastodon::System`] simulator and verified against golden models.
//!
//! * [`LlmEncode`] — a transformer encoder layer slice: mat-mul (as
//!   structured MACs), ReLU, softmax (dynamic loops), layer-norm-style
//!   centering; broadcast + scatter + P2P + gather collectives.
//! * [`BlackScholes`] — fixed-point option pricing with CORDIC-class
//!   software subroutines (Newton sqrt, shift-loop exp, rational CDF);
//!   a CDF-aggregation exchange between its two MPUs.
//! * [`EditDistance`] — bitap-style genome read comparison: XOR/POPC
//!   alignment sweeps with a systolic stream of reads through an MPU
//!   chain.
//!
//! The arithmetic is integer/fixed-point renditions of each application's
//! operation mix (the repository has no float datapath, matching bitwise
//! PUM), with golden references computing the *same* integer algorithms —
//! see DESIGN.md's substitution table.

mod black_scholes;
mod edit_distance;
mod llm_encode;

pub use black_scholes::BlackScholes;
pub use edit_distance::EditDistance;
pub use llm_encode::LlmEncode;

use crate::kernel::WorkProfile;
use mastodon::{SimConfig, Stats, System};
use mpu_isa::Program;
use std::fmt;

/// Table IV row metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Row {
    /// Application name.
    pub name: &'static str,
    /// Compute steps, as listed in Table IV.
    pub compute_steps: &'static str,
    /// Collective-communication patterns used.
    pub collectives: &'static str,
    /// MPU count the paper used.
    pub paper_mpus: usize,
}

/// One placed data binding: `(mpu, (rfh, vrf, reg), lane values)`.
pub type PlacedData = (usize, (u16, u16, u8), Vec<u64>);

/// A fully-instantiated multi-MPU application.
#[derive(Debug)]
pub struct BuiltApp {
    /// Per-MPU programs.
    pub programs: Vec<Program>,
    /// Initial data: (mpu, (rfh, vrf, reg), lane values).
    pub inputs: Vec<PlacedData>,
    /// Expected outputs: (mpu, (rfh, vrf, reg), lane values).
    pub expected: Vec<PlacedData>,
    /// Total ezpim statements across MPU programs.
    pub ezpim_statements: usize,
    /// Total lowered ISA instructions across MPU programs.
    pub isa_instructions: usize,
}

/// An end-to-end application.
///
/// `Send + Sync` so the app matrix can run configurations on worker
/// threads (apps are stateless descriptors, like [`crate::Kernel`]s).
pub trait App: Send + Sync {
    /// Application name.
    fn name(&self) -> &'static str;

    /// Table IV metadata.
    fn table4(&self) -> Table4Row;

    /// Builds programs + data for `mpus` MPUs of the given geometry.
    fn build(&self, config: &SimConfig, mpus: usize, seed: u64) -> BuiltApp;

    /// Default (paper-scaled-down) MPU count for simulation.
    fn default_mpus(&self) -> usize;

    /// Work profile for the analytical GPU/CPU models, per element.
    fn profile(&self) -> WorkProfile;

    /// Elements processed per run at `mpus` MPUs (for platform models).
    fn elements(&self, config: &SimConfig, mpus: usize) -> u64;
}

/// Result of an application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Configuration label.
    pub label: String,
    /// Application name.
    pub app: &'static str,
    /// MPUs simulated.
    pub mpus: usize,
    /// System statistics (parallel-merged).
    pub stats: Stats,
    /// All outputs matched the golden model.
    pub verified: bool,
    /// Total ezpim statements (Table IV LoC column).
    pub ezpim_statements: usize,
    /// Total lowered ISA instructions (Table IV baseline-LoC column).
    pub isa_instructions: usize,
}

/// Application harness failure.
#[derive(Debug)]
pub enum AppError {
    /// System simulation failed.
    System(mastodon::SystemError),
    /// Machine-level failure during setup/readout.
    Sim(mastodon::SimError),
    /// A lane diverged from the golden model.
    Mismatch {
        /// Application name.
        app: &'static str,
        /// MPU holding the mismatching value.
        mpu: usize,
        /// `(rfh, vrf, reg)` of the output.
        at: (u16, u16, u8),
        /// First mismatching lane.
        lane: usize,
        /// Simulated value.
        got: u64,
        /// Golden value.
        want: u64,
    },
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::System(e) => write!(f, "system: {e}"),
            AppError::Sim(e) => write!(f, "sim: {e}"),
            AppError::Mismatch { app, mpu, at, lane, got, want } => write!(
                f,
                "{app}: MPU {mpu} output {at:?} lane {lane}: got {got:#x}, want {want:#x}"
            ),
        }
    }
}

impl std::error::Error for AppError {}

impl From<mastodon::SystemError> for AppError {
    fn from(e: mastodon::SystemError) -> Self {
        AppError::System(e)
    }
}

impl From<mastodon::SimError> for AppError {
    fn from(e: mastodon::SimError) -> Self {
        AppError::Sim(e)
    }
}

/// Builds, runs, and verifies an application on `mpus` MPUs.
///
/// # Errors
///
/// See [`AppError`].
pub fn run_app(
    app: &dyn App,
    config: &SimConfig,
    mpus: usize,
    seed: u64,
) -> Result<AppRun, AppError> {
    run_app_pooled(app, config, mpus, seed, None)
}

/// [`run_app`] with an optional shared recipe-synthesis pool (see
/// [`mastodon::RecipePool`]); results are bit-identical either way.
///
/// # Errors
///
/// See [`AppError`].
pub fn run_app_pooled(
    app: &dyn App,
    config: &SimConfig,
    mpus: usize,
    seed: u64,
    pool: Option<&std::sync::Arc<mastodon::RecipePool>>,
) -> Result<AppRun, AppError> {
    let built = app.build(config, mpus, seed);
    let mut system = match pool {
        Some(pool) => System::new_pooled(config.clone(), mpus, pool),
        None => System::new(config.clone(), mpus),
    };
    for (i, program) in built.programs.iter().enumerate() {
        system.set_program(i, program.clone());
    }
    for (mpu, (rfh, vrf, reg), values) in &built.inputs {
        system.mpu_mut(*mpu).write_register(*rfh, *vrf, *reg, values)?;
    }
    let stats = system.run()?;
    for (mpu, at, want) in &built.expected {
        let got = system.mpu_mut(*mpu).read_register(at.0, at.1, at.2)?;
        for lane in 0..want.len().min(got.len()) {
            if got[lane] != want[lane] {
                return Err(AppError::Mismatch {
                    app: app.name(),
                    mpu: *mpu,
                    at: *at,
                    lane,
                    got: got[lane],
                    want: want[lane],
                });
            }
        }
    }
    Ok(AppRun {
        label: config.label(),
        app: app.name(),
        mpus,
        stats,
        verified: true,
        ezpim_statements: built.ezpim_statements,
        isa_instructions: built.isa_instructions,
    })
}

/// The three evaluated applications.
pub fn all_apps() -> Vec<Box<dyn App>> {
    vec![Box::new(LlmEncode), Box::new(BlackScholes), Box::new(EditDistance)]
}
