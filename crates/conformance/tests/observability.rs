//! Observability conformance: across random generated programs, every
//! backend, MPU and Baseline modes, and both `trace_ensembles` settings,
//! (1) arming a tracer never
//! changes execution — lane values, per-MPU statistics and the tier split
//! are byte-identical to a disarmed run — and (2) the attribution profile
//! built from the trace conserves every counter and energy field exactly.

use conformance::{generate, BOX_RFHS, BOX_VRFS};
use mastodon::{EventLog, Profile, SimConfig, Stats, System, TraceEvent};
use proptest::prelude::*;
use pum_backend::DatapathKind;

/// Registers compared per VRF (mirrors the diff harness's comparison box).
const CMP_REGS: u8 = 14;

type LaneBox = Vec<((u16, u16, u8), Vec<u64>)>;

struct Observed {
    lanes: Vec<LaneBox>,
    per_mpu: Vec<Stats>,
    tiers: Vec<(u64, u64)>,
    system: Stats,
    events: Vec<TraceEvent>,
}

/// Runs a generated case on the simulator, optionally traced. Cases whose
/// programs fail to lower or run (shrinker-style artifacts) return `None`
/// and are skipped — the point here is trace transparency, not validity.
fn run_case(config: &SimConfig, seed: u64, armed: bool) -> Option<Observed> {
    let case = generate(seed);
    let programs = case.programs().ok()?;
    let mut sys = System::new(config.clone(), case.mpus.len());
    let log = EventLog::new();
    if armed {
        sys.set_event_log(&log);
    }
    for (id, (mpu, program)) in case.mpus.iter().zip(&programs).enumerate() {
        sys.set_program(id, program.clone());
        for input in &mpu.inputs {
            sys.mpu_mut(id).write_register(input.rfh, input.vrf, input.reg, &input.values).ok()?;
        }
    }
    let system = sys.run().ok()?;
    let mut lanes = Vec::with_capacity(case.mpus.len());
    let mut per_mpu = Vec::with_capacity(case.mpus.len());
    let mut tiers = Vec::with_capacity(case.mpus.len());
    for id in 0..case.mpus.len() {
        let mut lane_box = Vec::new();
        for rfh in 0..BOX_RFHS {
            for vrf in 0..BOX_VRFS {
                for reg in 0..CMP_REGS {
                    lane_box.push((
                        (rfh, vrf, reg),
                        sys.mpu_mut(id).read_register(rfh, vrf, reg).ok()?,
                    ));
                }
            }
        }
        lanes.push(lane_box);
        per_mpu.push(*sys.mpu_mut(id).stats());
        tiers.push(sys.mpu_mut(id).tier_counts());
    }
    Some(Observed { lanes, per_mpu, tiers, system, events: log.take() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing transparency and conservation over random programs, in MPU
    /// and Baseline mode (host offloads, CPU-mediated SEND/RECV and the
    /// CPU-idle charge at finish): the armed run is byte-identical to the
    /// disarmed run (tier split included), folding the armed
    /// run's event deltas reproduces every [`Stats`] field exactly, and
    /// the attribution tree partitions every field but elapsed cycles.
    #[test]
    fn tracing_is_transparent_and_profiles_conserve(seed in 0u64..4096) {
        let modes = DatapathKind::ALL
            .into_iter()
            .flat_map(|kind| [SimConfig::mpu(kind), SimConfig::baseline(kind)]);
        for mode in modes {
            for trace_ensembles in [false, true] {
                let config = SimConfig { trace_ensembles, ..mode.clone() };
                let ctx =
                    format!("{}, trace_ensembles={trace_ensembles}, seed={seed}", config.label());
                let armed = run_case(&config, seed, true);
                let disarmed = run_case(&config, seed, false);
                let (armed, disarmed) = match (armed, disarmed) {
                    (Some(a), Some(d)) => (a, d),
                    (None, None) => continue,
                    _ => {
                        prop_assert!(false, "armed/disarmed runnability diverged ({ctx})");
                        unreachable!()
                    }
                };
                prop_assert_eq!(&armed.lanes, &disarmed.lanes, "lane values diverged ({})", ctx);
                prop_assert_eq!(
                    &armed.per_mpu, &disarmed.per_mpu,
                    "per-MPU stats diverged ({})", ctx
                );
                prop_assert_eq!(armed.system, disarmed.system, "system stats diverged ({})", ctx);
                prop_assert_eq!(&armed.tiers, &disarmed.tiers, "tier split diverged ({})", ctx);

                let profile = Profile::build(&armed.events);
                for m in &profile.mpus {
                    prop_assert_eq!(
                        &m.totals, &armed.per_mpu[m.mpu as usize],
                        "profile totals failed conservation for mpu{} ({})", m.mpu, ctx
                    );
                    let inclusive = Stats { cycles: m.totals.cycles, ..m.root.inclusive() };
                    prop_assert_eq!(
                        inclusive, m.totals,
                        "profile tree failed to partition mpu{} ({})", m.mpu, ctx
                    );
                }
                prop_assert_eq!(
                    profile.merged(), armed.system,
                    "merged profile failed conservation ({})", ctx
                );
            }
        }
    }
}
