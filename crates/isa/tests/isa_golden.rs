//! Byte-level pin on the ISA's encode, decode, print, parse and validate
//! paths. Each section folds what it observes into an FNV-1a digest:
//!
//! - `decode` of every 7-bit opcode over structured 25-bit bodies (zero,
//!   all ones, each operand field at its maximum, each single bit, seeded
//!   random bodies, and the same random bodies cut to each field layout),
//!   hashing the decoded instruction's text and re-encoding or the error;
//! - one sample per opcode: its text, word, mnemonic, the validation of a
//!   program holding it with each operand kind pushed past its field, the
//!   `encode` panic message for it, and the operand rule;
//! - `parse_asm` over malformed and edge-case lines, with exact messages.
//!
//! A digest mismatch means observable ISA behaviour changed.

use mpu_isa::{
    BinaryOp, CompareOp, InitValue, Instruction, LineNum, MpuId, Program, RegId, RfhId, UnaryOp,
    VrfId,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so adjacent strings cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Every operand field layout of the encoding, as `(lowest bit, width)`.
const FIELDS: [(u32, u32); 12] = [
    (18, 6),
    (12, 6),
    (6, 6),
    (20, 5),
    (14, 6),
    (15, 5),
    (15, 10),
    (0, 20),
    (19, 6),
    (13, 6),
    (7, 6),
    (1, 6),
];

/// The body bits each instruction format may set.
const LAYOUTS: [u32; 10] = [
    (63 << 18) | (63 << 12) | (63 << 6),
    (63 << 18) | (63 << 6),
    (63 << 18) | (63 << 12),
    63 << 18,
    63 << 6,
    (31 << 20) | (63 << 14),
    (31 << 20) | (31 << 15),
    1023 << 15,
    (1 << 20) - 1,
    (63 << 19) | (63 << 13) | (63 << 7) | (63 << 1),
];

const BODY_MASK: u32 = (1 << 25) - 1;

fn xorshift(state: &mut u64) -> u32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 16) as u32
}

fn bodies() -> Vec<u32> {
    let mut v = vec![0, BODY_MASK];
    v.extend(FIELDS.iter().map(|&(lo, width)| ((1 << width) - 1) << lo));
    v.extend((0..25).map(|bit| 1 << bit));
    let mut state = 0x1234_5678_9abc_def1u64;
    for _ in 0..24 {
        let r = xorshift(&mut state) & BODY_MASK;
        v.push(r);
        v.extend(LAYOUTS.iter().map(|&layout| r & layout));
    }
    v
}

fn decode_digest() -> u64 {
    let mut h = Fnv::new();
    let bodies = bodies();
    for opcode in 0..128u32 {
        for &body in &bodies {
            let word = (opcode << 25) | body;
            h.word(word);
            match Instruction::decode(word) {
                Ok(i) => {
                    h.str(&i.to_string());
                    h.word(i.encode());
                }
                Err(e) => {
                    h.str(&format!("{e:?}"));
                    h.str(&e.to_string());
                }
            }
        }
    }
    h.0
}

/// One instruction per opcode, its operands drawn from the arguments.
fn samples(r: [u16; 4], v: [u16; 2], h: [u16; 2], m: u16, l: u32) -> Vec<Instruction> {
    let [r0, r1, r2, r3] = r.map(RegId);
    let mut s = vec![
        Instruction::Compute { rfh: RfhId(h[0]), vrf: VrfId(v[0]) },
        Instruction::ComputeDone,
        Instruction::MpuSync,
        Instruction::Move { src: RfhId(h[0]), dst: RfhId(h[1]) },
        Instruction::MoveDone,
        Instruction::Send { dst: MpuId(m) },
        Instruction::SendDone,
        Instruction::Recv { src: MpuId(m) },
        Instruction::GetMask { rd: r0 },
        Instruction::SetMask { rs: r1 },
        Instruction::Unmask,
        Instruction::JumpCond { target: LineNum(l) },
        Instruction::Jump { target: LineNum(l) },
        Instruction::Return,
        Instruction::Nop,
        Instruction::Fuzzy { rs: r0, rt: r1, rd: r2 },
        Instruction::Cas { rs: r2, rt: r3 },
        Instruction::Init { value: InitValue::Zero, rd: r3 },
        Instruction::Init { value: InitValue::One, rd: r0 },
        Instruction::Memcpy { src_vrf: VrfId(v[0]), rs: r1, dst_vrf: VrfId(v[1]), rd: r2 },
    ];
    s.extend(BinaryOp::ALL.map(|op| Instruction::Binary { op, rs: r0, rt: r1, rd: r2 }));
    s.extend(UnaryOp::ALL.map(|op| Instruction::Unary { op, rs: r3, rd: r0 }));
    s.extend(CompareOp::ALL.map(|op| Instruction::Compare { op, rs: r1, rt: r2 }));
    s
}

fn in_range() -> Vec<Instruction> {
    samples([5, 17, 42, 63], [3, 63], [31, 9], 1023, LineNum::MAX)
}

/// The samples with one operand kind pushed one past its field.
fn out_of_range() -> [Vec<Instruction>; 5] {
    let (r, v, h, m, l) = ([5, 17, 42, 63], [3, 63], [31, 9], 1023, LineNum::MAX);
    [
        samples([64, 65, 66, 67], v, h, m, l),
        samples(r, [64, 1], h, m, l),
        samples(r, v, [32, 2], m, l),
        samples(r, v, h, 1024, l),
        samples(r, v, h, m, LineNum::MAX + 1),
    ]
}

fn panic_message(f: impl FnOnce() -> u32 + std::panic::UnwindSafe) -> String {
    match std::panic::catch_unwind(f) {
        Ok(word) => format!("ok {word:#010x}"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    }
}

fn sample_digest() -> u64 {
    let mut h = Fnv::new();
    for i in in_range() {
        h.str(&i.to_string());
        h.str(i.mnemonic());
        h.word(i.encode());
        h.str(&format!("{:?}", i.to_string().parse::<Instruction>()));
        h.str(&format!("{:?}", Program::from_instructions(vec![i]).validate()));
        for temps in [Some((RegId(14), RegId(15))), None] {
            h.str(&format!("{:?}", i.operand_error(16, temps)));
        }
    }
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for set in out_of_range() {
        for i in set {
            h.str(&i.to_string());
            h.str(&format!("{:?}", Program::from_instructions(vec![i]).validate()));
            h.str(&panic_message(move || i.encode()));
        }
    }
    std::panic::set_hook(quiet);
    // The operand rule over every binary op and aliasing pattern.
    for op in BinaryOp::ALL {
        for (rs, rt, rd) in [(0, 1, 2), (3, 3, 4), (1, 2, 1), (1, 2, 2), (5, 5, 5), (14, 1, 2)] {
            let i = Instruction::Binary { op, rs: RegId(rs), rt: RegId(rt), rd: RegId(rd) };
            h.str(&format!("{:?}", i.operand_error(16, Some((RegId(14), RegId(15))))));
        }
    }
    h.0
}

fn parse_digest() -> u64 {
    let mut lines: Vec<String> = Vec::new();
    // Every mnemonic with one operand too many and one too few.
    for i in in_range() {
        let text = i.to_string();
        lines.push(format!("{text} r0"));
        let mut toks: Vec<&str> = text.split_whitespace().collect();
        if toks.len() > 1 {
            toks.pop();
            lines.push(toks.join(" "));
        }
        lines.push(text.to_lowercase());
    }
    // Each operand slot given every other prefix, and malformed digits.
    for i in in_range() {
        let text = i.to_string();
        let toks: Vec<&str> = text.split_whitespace().collect();
        for slot in 1..toks.len() {
            for bad in ["r7", "v7", "h7", "mpu7", "@7", "7", "x7", "r", "rx", "r-1", "r+3", "r 7"] {
                let mut t = toks.clone();
                t[slot] = bad;
                lines.push(t.join(" "));
            }
        }
    }
    lines.extend(
        [
            "",
            "   ",
            "# only a comment",
            "FROB r0",
            "frob",
            "ADD",
            "ADD r0 r1",
            "ADD r0 r1 r2 r3",
            "ADD v0 r1 r2",
            "ADD r0 r1 r64",
            "ADD r0 r1 r65535",
            "SETMASK r63",
            "SETMASK r1000",
            "COMPUTE h32 v64",
            "SEND mpu1024",
            "JUMP 0",
            "JUMP @0",
            "JUMP_COND 1048576",
            "JUMP_COND @4294967295",
            "JUMP_COND @4294967296",
            "JUMP -1",
            "jump_cond @3",
            "Add r0 r1 r2",
            "3: NOP",
            "3:NOP",
            ":NOP",
            "x: NOP",
            "12: ADD r0 r1 r2 # sum",
            "MEMCPY v0 r1 v2",
            "MEMCPY v0 r1 v2 r3",
            "MEMCPY r0 v1 v2 r3",
            "init0 r1",
            "INIT2 r1",
            "COMPUTE_DONE now",
        ]
        .map(String::from),
    );
    lines.push(
        "COMPUTE h0 v1\nCOMPUTE h1 v1\n# body\nADD r0 r1 r2\n\n4: SETMASK r63\nCOMPUTE_DONE"
            .to_string(),
    );
    lines.push("NOP\nNOP\nMUL r0 r1\nNOP".to_string());

    let mut h = Fnv::new();
    for line in &lines {
        h.str(line);
        match Program::parse_asm(line) {
            Ok(p) => h.str(&format!("ok {p}")),
            Err(e) => {
                h.str(&e.to_string());
                h.str(&format!("{e:?}"));
            }
        }
    }
    h.0
}

#[test]
fn isa_behaviour_is_pinned() {
    let got = [decode_digest(), sample_digest(), parse_digest()];
    let want: [u64; 3] = [0xfbaf_5d6b_9f99_24b3, 0x1cef_ae27_f6ed_643d, 0xa4a0_ddb3_e0a9_8c25];
    assert_eq!(got, want, "decode, sample and parse digests");
}
