//! Seeded random program generation over the full Table II compute set.
//!
//! Every generated case is valid and terminating by construction:
//!
//! * multi-step instructions (`MUL`/`MAC`/division) never alias their
//!   destination with a source (the ezpim builder would reject them);
//! * loop trip counts are bounded at 3 by the [`crate::case::while_prep`]
//!   masking sequence, and loop-control registers are removed from the
//!   write set of the loop body;
//! * the mask-save pool registers (`r10..r13`) are never written inside
//!   structured bodies, so a loop's captured enclosing mask is live for
//!   the whole construct;
//! * inter-MPU `SEND`/`RECV` pairs are appended to the participants'
//!   programs in one global total order — sends never block, so the
//!   earliest outstanding event can always make progress and the system
//!   never deadlocks.
//!
//! The same seed always generates the same case (the vendored `StdRng` is
//! a deterministic SplitMix64).

use crate::case::{Case, Input, MpuCase, Stmt, Top};
use ezpim::{Cond, Memcpy};
use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp, COND_REG};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

/// Registers the generator may write (loop control registers are carved
/// out of this set per scope). `r10..r13` are the ezpim mask-save pool,
/// `r14`/`r15` the division scratch registers — both off limits.
const BASE_WRITABLE: [u16; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// Exclusive upper bound of readable registers (mask-save registers are
/// readable — their contents are deterministic).
const READ_LIMIT: u16 = 14;

/// RFH/VRF box the generator uses (and the differential runner compares).
pub const BOX_RFHS: u16 = 4;
/// See [`BOX_RFHS`].
pub const BOX_VRFS: u16 = 4;

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.random_range(0..xs.len())]
}

fn readable(rng: &mut StdRng) -> RegId {
    RegId(rng.random_range(0..READ_LIMIT))
}

fn writable(rng: &mut StdRng, ws: &[u16]) -> RegId {
    RegId(*pick(rng, ws))
}

fn readable_not(rng: &mut StdRng, avoid: &[RegId]) -> RegId {
    loop {
        let r = readable(rng);
        if !avoid.contains(&r) {
            return r;
        }
    }
}

fn gen_op(rng: &mut StdRng, ws: &[u16]) -> Instruction {
    match rng.random_range(0..100u32) {
        0..=47 => {
            let op = *pick(rng, &BinaryOp::ALL);
            let rd = writable(rng, ws);
            match op {
                BinaryOp::Mul | BinaryOp::Mac => {
                    // Sources may alias each other (squaring) but not rd.
                    let rs = readable_not(rng, &[rd]);
                    let rt = readable_not(rng, &[rd]);
                    Instruction::Binary { op, rs, rt, rd }
                }
                BinaryOp::QDiv | BinaryOp::RDiv => {
                    let rs = readable_not(rng, &[rd]);
                    let rt = readable_not(rng, &[rd, rs]);
                    Instruction::Binary { op, rs, rt, rd }
                }
                BinaryOp::QRDiv => {
                    // The remainder overwrites rt, so rt is a destination
                    // too: distinct and writable.
                    let rt = loop {
                        let r = writable(rng, ws);
                        if r != rd {
                            break r;
                        }
                    };
                    let rs = readable_not(rng, &[rd, rt]);
                    Instruction::Binary { op, rs, rt, rd }
                }
                _ => Instruction::Binary { op, rs: readable(rng), rt: readable(rng), rd },
            }
        }
        48..=62 => Instruction::Unary {
            op: *pick(rng, &UnaryOp::ALL),
            rs: readable(rng),
            rd: writable(rng, ws),
        },
        63..=69 => Instruction::Compare {
            op: *pick(rng, &CompareOp::ALL),
            rs: readable(rng),
            rt: readable(rng),
        },
        70..=74 => Instruction::Fuzzy { rs: readable(rng), rt: readable(rng), rd: readable(rng) },
        75..=81 => {
            let rs = writable(rng, ws);
            let rt = loop {
                let r = writable(rng, ws);
                if r != rs {
                    break r;
                }
            };
            Instruction::Cas { rs, rt }
        }
        82..=89 => Instruction::Init {
            value: if rng.random_bool(0.5) { InitValue::One } else { InitValue::Zero },
            rd: writable(rng, ws),
        },
        90..=95 => Instruction::GetMask { rd: writable(rng, ws) },
        _ => Instruction::Nop,
    }
}

fn gen_cond(rng: &mut StdRng) -> Cond {
    let a = readable(rng);
    let b = readable(rng);
    match rng.random_range(0..7u32) {
        0 | 1 => Cond::Eq(a, b),
        2 | 3 => Cond::Gt(a, b),
        4 | 5 => Cond::Lt(a, b),
        _ => Cond::Fuzzy(a, b, readable(rng)),
    }
}

fn cond_instruction(c: Cond) -> Instruction {
    match c {
        Cond::Eq(rs, rt) => Instruction::Compare { op: CompareOp::Eq, rs, rt },
        Cond::Gt(rs, rt) => Instruction::Compare { op: CompareOp::Gt, rs, rt },
        Cond::Lt(rs, rt) => Instruction::Compare { op: CompareOp::Lt, rs, rt },
        Cond::Fuzzy(rs, rt, rd) => Instruction::Fuzzy { rs, rt, rd },
    }
}

fn take_distinct(rng: &mut StdRng, ws: &[u16], n: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let r = *pick(rng, ws);
        if !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

fn gen_stmts(rng: &mut StdRng, depth: usize, levels: usize, ws: &[u16]) -> Vec<Stmt> {
    let max: u32 = if depth == 0 { 5 } else { 3 };
    let count = rng.random_range(1..=max);
    let mut out = Vec::new();
    for _ in 0..count {
        let roll = rng.random_range(0..100u32);
        if (55..73).contains(&roll) && levels > 0 {
            let cond = gen_cond(rng);
            let then = gen_stmts(rng, depth + 1, levels - 1, ws);
            if roll < 65 {
                out.push(Stmt::If { cond, then });
            } else {
                let otherwise = gen_stmts(rng, depth + 1, levels - 1, ws);
                out.push(Stmt::IfElse { cond, then, otherwise });
            }
        } else if (73..91).contains(&roll) && levels > 0 && ws.len() >= 6 {
            let regs = take_distinct(rng, ws, 3);
            let inner: Vec<u16> = ws.iter().copied().filter(|r| !regs.contains(r)).collect();
            let src = readable(rng);
            let body = gen_stmts(rng, depth + 1, levels - 1, &inner);
            if roll < 82 {
                out.push(Stmt::While {
                    src,
                    ctr: RegId(regs[0]),
                    one: RegId(regs[1]),
                    zero: RegId(regs[2]),
                    body,
                });
            } else {
                out.push(Stmt::For {
                    src,
                    ctr: RegId(regs[0]),
                    one: RegId(regs[1]),
                    lim: RegId(regs[2]),
                    body,
                });
            }
        } else if roll >= 91 && depth == 0 {
            // Raw predication: CMP*; SETMASK r63; ops; UNMASK. Only at the
            // top level of a body, where restoring to all-on is correct.
            out.push(Stmt::Op(cond_instruction(gen_cond(rng))));
            out.push(Stmt::Op(Instruction::SetMask { rs: COND_REG }));
            for _ in 0..rng.random_range(1..=3u32) {
                out.push(Stmt::Op(gen_op(rng, ws)));
            }
            out.push(Stmt::Op(Instruction::Unmask));
        } else {
            out.push(Stmt::Op(gen_op(rng, ws)));
        }
    }
    out
}

fn gen_members(rng: &mut StdRng) -> Vec<(u16, u16)> {
    let want = rng.random_range(1..=3usize);
    let mut members = Vec::with_capacity(want);
    while members.len() < want {
        let m = (rng.random_range(0..BOX_RFHS), rng.random_range(0..BOX_VRFS));
        if !members.contains(&m) {
            members.push(m);
        }
    }
    members
}

fn gen_copies(rng: &mut StdRng) -> Vec<Memcpy> {
    (0..rng.random_range(1..=2usize))
        .map(|_| Memcpy {
            src_vrf: rng.random_range(0..BOX_VRFS),
            rs: readable(rng),
            dst_vrf: rng.random_range(0..BOX_VRFS),
            rd: RegId(rng.random_range(0..10u16)),
        })
        .collect()
}

fn gen_pairs(rng: &mut StdRng) -> Vec<(u16, u16)> {
    (0..rng.random_range(1..=2usize))
        .map(|_| (rng.random_range(0..BOX_RFHS), rng.random_range(0..BOX_RFHS)))
        .collect()
}

fn gen_inputs(rng: &mut StdRng, mpu: &mut MpuCase) {
    for _ in 0..rng.random_range(2..=6usize) {
        let style = rng.random_range(0..4u32);
        let values: Vec<u64> = (0..64u64)
            .map(|lane| match style {
                0 => rng.next_u64(),
                1 => rng.random_range(0..8u64),
                2 => lane,
                _ => *pick(rng, &[0u64, 1, u64::MAX, lane]),
            })
            .collect();
        mpu.inputs.push(Input {
            rfh: rng.random_range(0..BOX_RFHS),
            vrf: rng.random_range(0..BOX_VRFS),
            reg: rng.random_range(0..10u16) as u8,
            values,
        });
    }
}

/// Generates the differential test case for `seed` (deterministic).
pub fn generate(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_mpus = *pick(&mut rng, &[1usize, 1, 1, 1, 2, 2, 3]);
    let mut mpus: Vec<MpuCase> = (0..n_mpus).map(|_| MpuCase::default()).collect();
    for mpu in &mut mpus {
        for _ in 0..rng.random_range(1..=3usize) {
            let top = match rng.random_range(0..10u32) {
                0..=6 => Top::Ensemble {
                    members: gen_members(&mut rng),
                    body: gen_stmts(&mut rng, 0, 2, &BASE_WRITABLE),
                },
                7 | 8 => Top::Move { pairs: gen_pairs(&mut rng), copies: gen_copies(&mut rng) },
                _ => Top::Sync,
            };
            mpu.tops.push(top);
        }
    }
    if n_mpus > 1 {
        // Communication events in one global total order (deadlock-free).
        for _ in 0..rng.random_range(0..=3usize) {
            let src = rng.random_range(0..n_mpus);
            let dst = loop {
                let d = rng.random_range(0..n_mpus);
                if d != src {
                    break d;
                }
            };
            mpus[src].tops.push(Top::Send {
                dst: dst as u16,
                pairs: gen_pairs(&mut rng),
                copies: gen_copies(&mut rng),
            });
            mpus[dst].tops.push(Top::Recv { src: src as u16 });
        }
    }
    for mpu in &mut mpus {
        gen_inputs(&mut rng, mpu);
    }
    Case { mpus }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42), generate(42));
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_cases_lower_cleanly() {
        for seed in 0..200 {
            let case = generate(seed);
            let programs = case.programs().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for p in &programs {
                p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn corpus_covers_the_instruction_classes() {
        let mut mnemonics = std::collections::BTreeSet::new();
        let mut multi_mpu = false;
        for seed in 0..300 {
            let case = generate(seed);
            multi_mpu |= case.mpus.len() > 1;
            for p in case.programs().unwrap() {
                for i in p.iter() {
                    mnemonics.insert(i.mnemonic());
                }
            }
        }
        for needed in [
            "ADD",
            "SUB",
            "MUL",
            "QDIV",
            "POPC",
            "LSHIFT",
            "CMPGT",
            "FUZZY",
            "CAS",
            "SETMASK",
            "GETMASK",
            "UNMASK",
            "JUMP_COND",
            "SEND",
            "RECV",
            "MEMCPY",
            "MPU_SYNC",
        ] {
            assert!(mnemonics.contains(needed), "corpus never generated {needed}: {mnemonics:?}");
        }
        assert!(multi_mpu, "corpus never generated a multi-MPU case");
    }

    #[test]
    fn round_trip_through_ezpim_text_is_exact() {
        for seed in 0..100 {
            let case = generate(seed);
            for (id, mpu) in case.mpus.iter().enumerate() {
                let direct = crate::case::lower(mpu).unwrap();
                let text = crate::case::print_mpu(mpu);
                let reparsed = ezpim::parse(&text)
                    .unwrap_or_else(|e| panic!("seed {seed} mpu {id}: {e}\n{text}"))
                    .assemble()
                    .unwrap();
                assert_eq!(direct, reparsed, "seed {seed} mpu {id}\n{text}");
            }
        }
    }
}
