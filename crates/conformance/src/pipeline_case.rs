//! The dpapi-pipeline case family: conformance cases built from lowered
//! data-parallel pipelines instead of free-form random programs, so the
//! differential matrix (reference model vs every backend and execution
//! tier) sweeps exactly the program shapes the frontend emits —
//! predicated filter masks, log-depth reduce trees, Hillis–Steele scan
//! phases, and the validity-masking prologue of unflagged reductions.
//!
//! Inputs are shaped semi-faithfully: broadcast constant registers hold
//! their real constants and validity registers hold 0/1 lane flags (so
//! both sides of every predication fire on some lanes), while data and
//! zip registers carry unconstrained random lanes — broader coverage
//! than the values the host runtime would ever load.

use crate::case::{Case, Input, MpuCase, Stmt, Top};
use crate::generate::{BOX_RFHS, BOX_VRFS};
use dpapi::random_pipeline;
use mpu_isa::RegId;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

/// Converts a lowered pipeline body into conformance-case statements.
/// dpapi lowers to instructions and `if`/`else` only, so the mapping is
/// one-to-one and lowering the converted case reproduces exactly the
/// frontend's own [`dpapi::Lowered::program`] binary.
///
/// # Panics
///
/// On a `while`, `for` or `call`: case loops own their trip counts, so
/// a free-form ezpim loop has no case form.
pub fn kops_to_stmts(body: &[ezpim::Stmt]) -> Vec<Stmt> {
    body.iter()
        .map(|stmt| match stmt {
            ezpim::Stmt::Op(i) => Stmt::Op(*i),
            ezpim::Stmt::If(cond, then, None) => {
                Stmt::If { cond: *cond, then: kops_to_stmts(then) }
            }
            ezpim::Stmt::If(cond, then, Some(otherwise)) => Stmt::IfElse {
                cond: *cond,
                then: kops_to_stmts(then),
                otherwise: kops_to_stmts(otherwise),
            },
            other => panic!("no conformance statement for `{}`", other.to_string().trim_end()),
        })
        .collect()
}

fn random_lanes(rng: &mut StdRng) -> Vec<u64> {
    let style = rng.random_range(0..3u32);
    (0..64u64)
        .map(|lane| match style {
            0 => rng.next_u64(),
            1 => rng.random_range(0..16u64),
            _ => lane,
        })
        .collect()
}

/// Generates the dpapi-pipeline differential case for `seed`: the stage
/// list is [`dpapi::random_pipeline`]`(seed)`, lowered and converted into
/// one ensemble per launch phase over 1–3 members of the comparison box,
/// with inputs for every register the lowering assigns (deterministic).
pub fn generate_pipeline_case(seed: u64) -> Case {
    let rp = random_pipeline(seed);
    let lowered = rp.pipeline.lower().expect("generated pipelines always lower");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0064_705f_6361_7365);
    let want = rng.random_range(1..=3usize);
    let mut members: Vec<(u16, u16)> = Vec::with_capacity(want);
    while members.len() < want {
        let m = (rng.random_range(0..BOX_RFHS), rng.random_range(0..BOX_VRFS));
        if !members.contains(&m) {
            members.push(m);
        }
    }

    let mut mpu = MpuCase {
        tops: vec![Top::Ensemble { members: members.clone(), body: kops_to_stmts(&lowered.body) }],
        inputs: Vec::new(),
    };
    if let Some(p2) = &lowered.phase2 {
        // The real runtime loads the host-computed offsets between the
        // two launches; here both phases share one program and the
        // offsets are just another pre-loaded input.
        mpu.tops.push(Top::Ensemble { members: members.clone(), body: kops_to_stmts(&p2.body) });
    }

    for &(rfh, vrf) in &members {
        let mut push = |reg: RegId, values: Vec<u64>| {
            mpu.inputs.push(Input { rfh, vrf, reg: reg.0 as u8, values });
        };
        for &d in &lowered.data {
            push(d, random_lanes(&mut rng));
        }
        for (_, regs) in &lowered.zips {
            for &z in regs {
                push(z, random_lanes(&mut rng));
            }
        }
        for &(c, value) in &lowered.consts {
            push(c, vec![value; 64]);
        }
        if let Some(v) = lowered.valid {
            push(v, (0..64).map(|_| rng.random_range(0..2u64)).collect());
        }
        if let Some(p2) = &lowered.phase2 {
            push(p2.offset, (0..64).map(|_| rng.random_range(0..1u64 << 32)).collect());
        }
    }
    Case { mpus: vec![mpu] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case;

    #[test]
    fn pipeline_cases_lower_and_validate() {
        for seed in 0..100u64 {
            let c = generate_pipeline_case(seed);
            let programs = c.programs().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for p in &programs {
                p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_pipeline_case(7), generate_pipeline_case(7));
    }

    /// The ezpim → case statement conversion is faithful: lowering the converted
    /// ensemble reproduces the frontend's own binary, phase by phase.
    #[test]
    fn conversion_matches_the_frontend_lowering() {
        let members = vec![(0u16, 0u16), (1, 1), (2, 0)];
        for seed in 0..50u64 {
            let lowered = random_pipeline(seed).pipeline.lower().unwrap();
            let phase1 = MpuCase {
                tops: vec![Top::Ensemble {
                    members: members.clone(),
                    body: kops_to_stmts(&lowered.body),
                }],
                inputs: Vec::new(),
            };
            assert_eq!(
                case::lower(&phase1).unwrap(),
                lowered.program(&members).unwrap(),
                "seed {seed}: phase 1 diverges"
            );
            if let Some(p2) = &lowered.phase2 {
                let phase2 = MpuCase {
                    tops: vec![Top::Ensemble {
                        members: members.clone(),
                        body: kops_to_stmts(&p2.body),
                    }],
                    inputs: Vec::new(),
                };
                assert_eq!(
                    case::lower(&phase2).unwrap(),
                    lowered.phase2_program(&members).unwrap().unwrap(),
                    "seed {seed}: phase 2 diverges"
                );
            }
        }
    }

    /// Pipeline cases round-trip through the ezpim text format like every
    /// other case family.
    #[test]
    fn pipeline_cases_round_trip_through_text() {
        for seed in 0..30u64 {
            let c = generate_pipeline_case(seed);
            for (id, mpu) in c.mpus.iter().enumerate() {
                let direct = case::lower(mpu).expect("lower");
                let text = case::print_mpu(mpu);
                let reparsed = ezpim::parse(&text)
                    .unwrap_or_else(|e| panic!("seed {seed} mpu {id}: {e}\n{text}"))
                    .assemble()
                    .expect("assemble");
                assert_eq!(direct, reparsed, "seed {seed} mpu {id}\n{text}");
            }
        }
    }
}
