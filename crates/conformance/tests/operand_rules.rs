//! The simulator and the reference model agree on which operands a
//! compute instruction may take: every program either runs on both or is
//! rejected by both with the same typed error at the same line.

use conformance::ref_geometry;
use mastodon::{Mpu, SimConfig, SimError};
use mpu_isa::{OperandError, Program, RegId};
use pum_backend::DatapathKind;
use refmodel::{RefError, RefMpu};

/// One-instruction bodies from each class of operand rule, with the error
/// a bit-serial datapath raises (the word-serial DPU reserves no
/// temporaries, so it runs the divides on r14/r15).
const BODIES: [(&str, Option<OperandError>); 8] = [
    ("MUL r3 r3 r3", Some(OperandError::AliasedDestination(RegId(3)))),
    ("MAC r1 r2 r1", Some(OperandError::AliasedDestination(RegId(1)))),
    ("RDIV r2 r6 r6", Some(OperandError::AliasedDestination(RegId(6)))),
    ("QDIV r15 r1 r2", Some(OperandError::ReservedTemp(RegId(15)))),
    ("QRDIV r1 r14 r2", Some(OperandError::ReservedTemp(RegId(14)))),
    ("MUL r14 r1 r2", None),
    ("ADD r3 r3 r3", None),
    ("CAS r14 r15", None),
];

#[test]
fn mpu_and_refmodel_reject_illegal_operands_alike() {
    for kind in DatapathKind::ALL {
        let config = SimConfig::mpu(kind);
        let geometry = ref_geometry(&config.datapath);
        for (body, bit_serial) in BODIES {
            let want = if kind == DatapathKind::Dpu {
                bit_serial.filter(|e| !matches!(e, OperandError::ReservedTemp(_)))
            } else {
                bit_serial
            };
            let program = Program::parse_asm(&format!("COMPUTE h0 v0\n{body}\nCOMPUTE_DONE"))
                .expect("valid asm");
            let sim = Mpu::new(config.clone(), 0.into()).run(&program).map(|_| ());
            let reference = RefMpu::new(geometry, 0).run(&program).map(|_| ());
            let sim = sim.map_err(|e| match *e.root_cause() {
                SimError::IllegalOperand { line, error } => (line, error),
                ref other => panic!("{kind:?} `{body}`: simulator raised {other}"),
            });
            let reference = reference.map_err(|e| match e {
                RefError::IllegalOperand { line, error } => (line, error),
                other => panic!("{kind:?} `{body}`: reference raised {other}"),
            });
            assert_eq!(sim, reference, "{kind:?} `{body}`: simulator vs reference");
            assert_eq!(sim.err(), want.map(|e| (1, e)), "{kind:?} `{body}`");
        }
    }
}
