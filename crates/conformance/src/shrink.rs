//! Greedy case minimizer: keeps applying the smallest structural edit that
//! still reproduces the mismatch until no edit helps, so every fuzzing
//! failure ships as a short ezpim reproducer instead of a 100-instruction
//! haystack.
//!
//! Every candidate edit preserves the generator's invariants by
//! construction — loop trip-count machinery lives inside the `While`/`For`
//! nodes, so deleting or flattening statements can never produce an
//! unbounded loop — and the predicate re-validates each candidate, so
//! edits that break SEND/RECV pairing simply fail to reproduce and are
//! discarded.

use crate::case::{Case, Stmt, Top};

/// Upper bound on predicate evaluations per shrink, so pathological cases
/// terminate promptly.
const MAX_EVALS: usize = 2000;

/// Lexicographic size of a case: lowered instruction count first (the
/// number the ISSUE acceptance criterion bounds), then tree nodes, then
/// input weight. Cases that fail to lower sort last.
fn size(case: &Case) -> (usize, usize, usize) {
    (case.lowered_len().unwrap_or(usize::MAX), case.node_count(), case.input_weight())
}

/// Minimizes `case` while `predicate` keeps returning `Some(mismatch)`.
///
/// Returns the smallest reproducing case found together with the mismatch
/// description it produced. The original case must satisfy the predicate.
pub fn shrink<F>(case: &Case, mut predicate: F) -> (Case, String)
where
    F: FnMut(&Case) -> Option<String>,
{
    let mut best = case.clone();
    let mut mismatch =
        predicate(&best).expect("shrink() requires a case that satisfies the predicate");
    let mut evals = 1usize;
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if evals >= MAX_EVALS {
                return (best, mismatch);
            }
            if size(&candidate) >= size(&best) {
                continue;
            }
            evals += 1;
            if let Some(m) = predicate(&candidate) {
                best = candidate;
                mismatch = m;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best, mismatch);
        }
    }
}

/// All one-step reductions of a case, roughly largest-win first.
fn candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();

    // 1. Remove a matched SEND/RECV pair (k-th send src->dst with the k-th
    //    Recv{src} on the destination), keeping the comm protocol balanced.
    for (src, mpu) in case.mpus.iter().enumerate() {
        let mut send_ordinal = std::collections::HashMap::new();
        for (ti, top) in mpu.tops.iter().enumerate() {
            let Top::Send { dst, .. } = top else { continue };
            let dst = *dst as usize;
            if dst == src || dst >= case.mpus.len() {
                continue;
            }
            let k = {
                let e = send_ordinal.entry(dst).or_insert(0usize);
                let k = *e;
                *e += 1;
                k
            };
            let Some(ri) = case.mpus[dst]
                .tops
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t, Top::Recv { src: s } if *s as usize == src))
                .map(|(i, _)| i)
                .nth(k)
            else {
                continue;
            };
            let mut c = case.clone();
            c.mpus[src].tops.remove(ti);
            c.mpus[dst].tops.remove(ri);
            out.push(c);
        }
    }

    // 2. Remove a whole non-comm top-level block.
    for (id, mpu) in case.mpus.iter().enumerate() {
        for (ti, top) in mpu.tops.iter().enumerate() {
            if matches!(top, Top::Send { .. } | Top::Recv { .. }) {
                continue;
            }
            let mut c = case.clone();
            c.mpus[id].tops.remove(ti);
            out.push(c);
        }
    }

    // 3. Drop a trailing empty MPU no other MPU communicates with.
    if case.mpus.len() > 1 {
        let last = case.mpus.len() - 1;
        let referenced = case.mpus[..last].iter().flat_map(|m| &m.tops).any(|t| match t {
            Top::Send { dst, .. } => *dst as usize == last,
            Top::Recv { src } => *src as usize == last,
            _ => false,
        });
        if case.mpus[last].tops.is_empty() && !referenced {
            let mut c = case.clone();
            c.mpus.pop();
            out.push(c);
        }
    }

    // 4. Trim ensemble members and move/send copy pairs.
    for (id, mpu) in case.mpus.iter().enumerate() {
        for (ti, top) in mpu.tops.iter().enumerate() {
            match top {
                Top::Ensemble { members, .. } if members.len() > 1 => {
                    for mi in 0..members.len() {
                        let mut c = case.clone();
                        if let Top::Ensemble { members, .. } = &mut c.mpus[id].tops[ti] {
                            members.remove(mi);
                        }
                        out.push(c);
                    }
                }
                Top::Move { pairs, .. } | Top::Send { pairs, .. } if pairs.len() > 1 => {
                    for pi in 0..pairs.len() {
                        let mut c = case.clone();
                        match &mut c.mpus[id].tops[ti] {
                            Top::Move { pairs, copies } | Top::Send { pairs, copies, .. } => {
                                pairs.remove(pi);
                                copies.remove(pi);
                            }
                            _ => unreachable!(),
                        }
                        out.push(c);
                    }
                }
                _ => {}
            }
        }
    }

    // 5. Statement-level edits inside ensemble bodies.
    for (id, mpu) in case.mpus.iter().enumerate() {
        for (ti, top) in mpu.tops.iter().enumerate() {
            let Top::Ensemble { body, .. } = top else { continue };
            for variant in body_variants(body) {
                let mut c = case.clone();
                if let Top::Ensemble { body, .. } = &mut c.mpus[id].tops[ti] {
                    *body = variant;
                }
                out.push(c);
            }
        }
    }

    // 6. Simplify inputs: drop one, zero its lanes, or truncate to lane 0.
    for (id, mpu) in case.mpus.iter().enumerate() {
        for ii in 0..mpu.inputs.len() {
            let mut c = case.clone();
            c.mpus[id].inputs.remove(ii);
            out.push(c);
            let input = &mpu.inputs[ii];
            if input.values.iter().any(|&v| v != 0) {
                let mut c = case.clone();
                c.mpus[id].inputs[ii].values.iter_mut().for_each(|v| *v = 0);
                out.push(c);
            }
            if input.values.len() > 1 {
                let mut c = case.clone();
                c.mpus[id].inputs[ii].values.truncate(1);
                out.push(c);
            }
        }
    }

    out
}

/// One-step reductions of a statement list: remove a statement, flatten a
/// control node into (one of) its bodies, or recurse into a child body.
fn body_variants(body: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for (i, stmt) in body.iter().enumerate() {
        let rebuild = |replacement: Vec<Stmt>| {
            let mut b = body.to_vec();
            b.splice(i..=i, replacement);
            b
        };
        // Removal (valid even if it empties the body: `lower` tolerates
        // empty ensembles, and empty-body lowering still terminates).
        out.push(rebuild(Vec::new()));
        match stmt {
            Stmt::Op(_) => {}
            Stmt::If { cond, then } => {
                out.push(rebuild(then.clone()));
                for v in body_variants(then) {
                    out.push(rebuild(vec![Stmt::If { cond: *cond, then: v }]));
                }
            }
            Stmt::IfElse { cond, then, otherwise } => {
                out.push(rebuild(then.clone()));
                out.push(rebuild(otherwise.clone()));
                out.push(rebuild(vec![Stmt::If { cond: *cond, then: then.clone() }]));
                for v in body_variants(then) {
                    out.push(rebuild(vec![Stmt::IfElse {
                        cond: *cond,
                        then: v,
                        otherwise: otherwise.clone(),
                    }]));
                }
                for v in body_variants(otherwise) {
                    out.push(rebuild(vec![Stmt::IfElse {
                        cond: *cond,
                        then: then.clone(),
                        otherwise: v,
                    }]));
                }
            }
            Stmt::While { src, ctr, one, zero, body: inner } => {
                out.push(rebuild(inner.clone()));
                for v in body_variants(inner) {
                    out.push(rebuild(vec![Stmt::While {
                        src: *src,
                        ctr: *ctr,
                        one: *one,
                        zero: *zero,
                        body: v,
                    }]));
                }
            }
            Stmt::For { src, ctr, one, lim, body: inner } => {
                out.push(rebuild(inner.clone()));
                for v in body_variants(inner) {
                    out.push(rebuild(vec![Stmt::For {
                        src: *src,
                        ctr: *ctr,
                        one: *one,
                        lim: *lim,
                        body: v,
                    }]));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::MpuCase;
    use mpu_isa::{BinaryOp, Instruction, RegId};

    fn op(rd: u16) -> Stmt {
        Stmt::Op(Instruction::Binary {
            op: BinaryOp::Add,
            rs: RegId(0),
            rt: RegId(1),
            rd: RegId(rd),
        })
    }

    /// A predicate that "fails" whenever the case still contains an ADD
    /// writing r5 — shrinking should strip everything else away.
    fn has_marker(case: &Case) -> Option<String> {
        fn stmt_has(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Op(Instruction::Binary { op: BinaryOp::Add, rd, .. }) => rd.0 == 5,
                Stmt::Op(_) => false,
                Stmt::If { then, .. } => stmt_has(then),
                Stmt::IfElse { then, otherwise, .. } => stmt_has(then) || stmt_has(otherwise),
                Stmt::While { body, .. } | Stmt::For { body, .. } => stmt_has(body),
            })
        }
        case.mpus
            .iter()
            .flat_map(|m| &m.tops)
            .any(|t| matches!(t, Top::Ensemble { body, .. } if stmt_has(body)))
            .then(|| "marker present".to_string())
    }

    #[test]
    fn shrinks_to_the_single_offending_statement() {
        let case = Case {
            mpus: vec![MpuCase {
                tops: vec![
                    Top::Ensemble { members: vec![(0, 0), (1, 0)], body: vec![op(2), op(3)] },
                    Top::Sync,
                    Top::Ensemble {
                        members: vec![(0, 0)],
                        body: vec![
                            op(4),
                            Stmt::If {
                                cond: ezpim::Cond::Gt(RegId(0), RegId(1)),
                                then: vec![op(5), op(6)],
                            },
                        ],
                    },
                ],
                inputs: vec![crate::case::Input { rfh: 0, vrf: 0, reg: 0, values: vec![7; 64] }],
            }],
        };
        let (small, m) = shrink(&case, has_marker);
        assert_eq!(m, "marker present");
        // One ensemble, one member, exactly the marker statement, no input.
        assert_eq!(small.mpus.len(), 1);
        assert_eq!(small.mpus[0].tops.len(), 1);
        let Top::Ensemble { members, body } = &small.mpus[0].tops[0] else {
            panic!("expected ensemble, got {:?}", small.mpus[0].tops[0]);
        };
        assert_eq!(members.len(), 1);
        assert_eq!(body.len(), 1);
        assert!(matches!(
            body[0],
            Stmt::Op(Instruction::Binary { op: BinaryOp::Add, rd: RegId(5), .. })
        ));
        assert!(small.mpus[0].inputs.is_empty());
    }

    #[test]
    fn comm_pairs_are_removed_together() {
        let copy = ezpim::Memcpy { src_vrf: 0, rs: RegId(0), dst_vrf: 0, rd: RegId(1) };
        let case = Case {
            mpus: vec![
                MpuCase {
                    tops: vec![
                        Top::Ensemble { members: vec![(0, 0)], body: vec![op(5)] },
                        Top::Send { dst: 1, pairs: vec![(0, 0)], copies: vec![copy] },
                    ],
                    inputs: vec![],
                },
                MpuCase { tops: vec![Top::Recv { src: 0 }], inputs: vec![] },
            ],
        };
        let (small, _) = shrink(&case, has_marker);
        // The send/recv pair and the now-orphaned second MPU are both gone.
        assert_eq!(small.mpus.len(), 1);
        assert!(small.mpus[0].tops.iter().all(|t| !matches!(t, Top::Send { .. })));
    }
}
