//! The syntax tree's printer and its replay agree: for seeded random trees
//! over every construct (nested `if`/`else` to depth 3, `while`, `for`,
//! `call` with its `sub`, multi-pair `move`, and a `send` of two move
//! blocks), pushing the tree into an [`EzProgram`] and parsing the tree's
//! printed text give the same program, or the same lowering error.

use ezpim::{parse, Cond, EzProgram, Memcpy, Stmt, Top};
use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp};

/// SplitMix64: a seed-deterministic stream with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn reg(&mut self) -> RegId {
        RegId(self.below(10) as u16)
    }
    /// A register other than those in `avoid`.
    fn reg_not(&mut self, avoid: &[RegId]) -> RegId {
        loop {
            let r = self.reg();
            if !avoid.contains(&r) {
                return r;
            }
        }
    }
}

/// Nesting the generator reaches; one past the default two-level mask
/// pool, so some trees fail to lower and both sides must fail alike.
const MAX_NEST: usize = 3;

const SUBS: [&str; 2] = ["s0", "s1"];

fn op(rng: &mut Rng) -> Instruction {
    match rng.below(6) {
        0 | 1 => {
            let op = BinaryOp::ALL[rng.below(16) as usize];
            let (rs, rt) = (rng.reg(), rng.reg());
            let rd = rng.reg_not(&[rs, rt]);
            Instruction::Binary { op, rs, rt, rd }
        }
        2 => Instruction::Unary {
            op: UnaryOp::ALL[rng.below(7) as usize],
            rs: rng.reg(),
            rd: rng.reg(),
        },
        3 => Instruction::Compare {
            op: CompareOp::ALL[rng.below(3) as usize],
            rs: rng.reg(),
            rt: rng.reg(),
        },
        4 => Instruction::Init {
            value: if rng.below(2) == 0 { InitValue::Zero } else { InitValue::One },
            rd: rng.reg(),
        },
        _ => Instruction::Nop,
    }
}

fn cond(rng: &mut Rng) -> Cond {
    let (a, b) = (rng.reg(), rng.reg());
    match rng.below(4) {
        0 => Cond::Eq(a, b),
        1 => Cond::Gt(a, b),
        2 => Cond::Lt(a, b),
        _ => Cond::Fuzzy(a, b, rng.reg()),
    }
}

fn stmts(rng: &mut Rng, depth: usize) -> Vec<Stmt> {
    (0..1 + rng.below(3))
        .map(|_| {
            // Constructs thin out with depth, so most trees fit the pool.
            let roll = if depth < MAX_NEST { rng.below(10 + 12 * depth as u64) } else { 0 };
            match roll {
                0..=3 | 10.. => Stmt::Op(op(rng)),
                4 => Stmt::If(cond(rng), stmts(rng, depth + 1), None),
                5 | 6 => Stmt::If(cond(rng), stmts(rng, depth + 1), Some(stmts(rng, depth + 1))),
                7 => Stmt::While(cond(rng), stmts(rng, depth + 1)),
                8 => Stmt::For(rng.reg(), rng.reg(), stmts(rng, depth + 1)),
                _ => Stmt::Call(SUBS[rng.below(2) as usize].to_string()),
            }
        })
        .collect()
}

fn pairs(rng: &mut Rng) -> Vec<(u16, u16)> {
    (0..1 + rng.below(2)).map(|_| (rng.below(4) as u16, rng.below(4) as u16)).collect()
}

fn copies(rng: &mut Rng) -> Vec<Memcpy> {
    (0..1 + rng.below(2))
        .map(|_| Memcpy {
            src_vrf: rng.below(4) as u16,
            rs: rng.reg(),
            dst_vrf: rng.below(4) as u16,
            rd: rng.reg(),
        })
        .collect()
}

fn tree(seed: u64) -> Vec<Top> {
    let mut rng = Rng(seed);
    let mut tops: Vec<Top> = (0..1 + rng.below(4))
        .map(|_| match rng.below(8) {
            0..=3 => {
                let members = (0..1 + rng.below(3))
                    .map(|_| (rng.below(4) as u16, rng.below(4) as u16))
                    .collect();
                Top::Ensemble(members, stmts(&mut rng, 0))
            }
            4 => Top::Move(pairs(&mut rng), copies(&mut rng)),
            5 => Top::Send(
                rng.below(4) as u16,
                vec![(pairs(&mut rng), copies(&mut rng)), (pairs(&mut rng), copies(&mut rng))],
            ),
            6 => Top::Recv(rng.below(4) as u16),
            _ => Top::Sync,
        })
        .collect();
    for name in SUBS {
        tops.push(Top::Sub(name.to_string(), stmts(&mut rng, 0)));
    }
    tops
}

/// Every construct kind a tree holds, by name.
fn kinds(tops: &[Top], out: &mut Vec<&'static str>) {
    fn walk(stmts: &[Stmt], depth: usize, out: &mut Vec<&'static str>) {
        for s in stmts {
            match s {
                Stmt::Op(_) => out.push("op"),
                Stmt::If(_, then, els) => {
                    out.push(if els.is_some() { "if-else" } else { "if" });
                    if depth == MAX_NEST - 1 {
                        out.push("nest 3");
                    }
                    walk(then, depth + 1, out);
                    walk(els.as_deref().unwrap_or(&[]), depth + 1, out);
                }
                Stmt::While(_, body) => {
                    out.push("while");
                    walk(body, depth + 1, out);
                }
                Stmt::For(_, _, body) => {
                    out.push("for");
                    walk(body, depth + 1, out);
                }
                Stmt::Call(_) => out.push("call"),
            }
        }
    }
    for top in tops {
        match top {
            Top::Ensemble(_, body) => {
                out.push("ensemble");
                walk(body, 0, out);
            }
            Top::Move(pairs, _) => out.push(if pairs.len() > 1 { "move pairs" } else { "move" }),
            Top::Send(..) => out.push("send"),
            Top::Recv(_) => out.push("recv"),
            Top::Sync => out.push("sync"),
            Top::Sub(_, body) => {
                out.push("sub");
                walk(body, 0, out);
            }
        }
    }
}

#[test]
fn pushed_tree_and_parsed_text_assemble_alike() {
    let (mut assembled, mut failed) = (0, 0);
    let mut seen = Vec::new();
    for seed in 0..500u64 {
        let tops = tree(seed);
        kinds(&tops, &mut seen);
        let text: String = tops.iter().map(ToString::to_string).collect();

        let mut pushed = EzProgram::new();
        let pushed_result = tops.iter().try_for_each(|t| pushed.push(t).map(drop));
        let parsed = parse(&text);
        match (pushed_result, parsed) {
            (Ok(()), Ok(parsed)) => {
                assert_eq!(pushed.statements(), parsed.statements(), "seed {seed}\n{text}");
                assert_eq!(pushed.dynamic_loops(), parsed.dynamic_loops(), "seed {seed}");
                assert_eq!(
                    pushed.assemble().expect("assembles"),
                    parsed.assemble().expect("assembles"),
                    "seed {seed}\n{text}"
                );
                assembled += 1;
            }
            (Err(e), Err(pe)) => {
                assert_eq!(e.to_string(), pe.message, "seed {seed}\n{text}");
                failed += 1;
            }
            (pushed, parsed) => {
                panic!("seed {seed}: push gave {pushed:?}, parse gave {:?}\n{text}", parsed.err())
            }
        }
    }
    assert!(assembled >= 250 && failed > 0, "{assembled} assembled, {failed} failed");
    for kind in [
        "ensemble",
        "op",
        "if",
        "if-else",
        "nest 3",
        "while",
        "for",
        "call",
        "sub",
        "move",
        "move pairs",
        "send",
        "recv",
        "sync",
    ] {
        assert!(seen.contains(&kind), "no tree used {kind}");
    }
}

#[test]
fn printer_format_is_the_documented_one() {
    let r = RegId;
    let copy = |s, d| Memcpy { src_vrf: s, rs: r(0), dst_vrf: d, rd: r(1) };
    let tops = [
        Top::Ensemble(
            vec![(0, 0), (1, 0)],
            vec![Stmt::If(
                Cond::Eq(r(0), r(1)),
                vec![Stmt::While(Cond::Fuzzy(r(2), r(3), r(4)), vec![Stmt::Op(Instruction::Nop)])],
                Some(vec![Stmt::For(r(5), r(6), vec![Stmt::Call("f".into())])]),
            )],
        ),
        Top::Move(vec![(0, 1), (2, 3)], vec![copy(0, 1)]),
        Top::Send(3, vec![(vec![(0, 2)], vec![copy(0, 1)]), (vec![(1, 3)], vec![copy(1, 0)])]),
        Top::Recv(2),
        Top::Sync,
        Top::Sub("f".into(), vec![Stmt::Op(Instruction::Nop)]),
    ];
    let text: String = tops.iter().map(ToString::to_string).collect();
    assert_eq!(
        text,
        "\
ensemble h0.v0 h1.v0 {
    if r0 == r1 {
        while r2 ~= r3 skip r4 {
            NOP
        }
    } else {
        for r5 < r6 {
            call f
        }
    }
}
move h0 -> h1 , h2 -> h3 {
    memcpy v0.r0 -> v1.r1
}
send mpu3 {
    move h0 -> h2 {
        memcpy v0.r0 -> v1.r1
    }
    move h1 -> h3 {
        memcpy v1.r0 -> v0.r1
    }
}
recv mpu2
sync
sub f {
    NOP
}
"
    );
}
