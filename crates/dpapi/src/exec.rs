//! Execution: chunk host slices across the VRF geometry, launch the
//! lowered program on the cycle-exact simulator, and stitch the results
//! back into host-visible values.
//!
//! ## Chunking
//!
//! One launch on one MPU covers `members × lanes × SEG` elements, laid
//! out segment-major so each lane holds SEG *consecutive* elements (scan
//! segments must be contiguous). Element `e` maps to
//! `(launch, mpu, member, lane, k)` by plain division. Padding lanes load
//! the fold identity (reductions) or zero, and the validity column marks
//! them dead on the flag path, so partial chunks are exact.
//!
//! ## Sharding
//!
//! [`Pipeline::run_sharded`] spreads each launch over up to
//! `mpus_per_chip` MPUs. Reductions aggregate on-device: every leaf MPU
//! SENDs its per-member partials to MPU 0, which RECVs in leaf order
//! (deterministic, deadlock-free — sends never block) and folds them
//! with the reduce ALU op before the host reads a single MPU. Other
//! pipelines shard embarrassingly: identical programs, independent
//! readback, no NoC traffic.
//!
//! ## Recipes
//!
//! Every MPU of every launch in one [`Pipeline::run_sharded`] call shares
//! one [`RecipePool`], so each template is bound once per call rather than
//! once per chunk. That pool's templates die with the
//! call, but it shares one dpapi-wide shape memo with every other call's
//! pool: each register-renamed instruction shape is synthesized, optimized
//! and compiled once per process, and a repeat launch of a pipeline runs
//! no synthesis and no optimizer, only relocation. The memo is bounded:
//! shapes are renamed to registers and `INIT` takes only `Zero` or `One`,
//! so it holds at most one entry per operation and aliasing pattern for
//! each datapath configuration; [`shapes_synthesized`] counts what it
//! has synthesized. The pools are host-side only: the
//! simulated template fetch is charged per MPU exactly as without them, so
//! the returned [`Stats`] are unchanged.

use crate::lower::{ensemble, sim, Lowered};
use crate::pipeline::{apply_map, apply_zip, Pipeline, ReduceOp, Stage};
use crate::DpError;
use mastodon::{run_single_pooled, Mpu, RecipePool, RegisterInit, SimConfig, Stats, System};
use mpu_isa::{BinaryOp, Instruction, Program, RegId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Holds the dpapi-wide shape memo every call's pool shares; its own
/// templates stay empty.
static SHAPES: OnceLock<RecipePool> = OnceLock::new();

/// Shapes synthesized into [`SHAPES`]: the sum of every call pool's
/// `shape_misses`.
static SYNTHESIZED: AtomicU64 = AtomicU64::new(0);

/// Shapes the dpapi-wide memo has synthesized, optimized and compiled so
/// far in this process, summed over every [`Pipeline::run_sharded`] call.
/// It stays put while repeat launches find their shapes memoized.
pub fn shapes_synthesized() -> u64 {
    SYNTHESIZED.load(Ordering::Relaxed)
}

/// Ensemble members simulated per MPU (mirrors the workloads harness:
/// simulate a slice, scale analytically).
const SIM_VRFS: usize = 8;

/// The result of running a pipeline on the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// Surviving element values, in input order (empty for reductions).
    pub values: Vec<u64>,
    /// The folded value, when the pipeline ends in `reduce`.
    pub reduced: Option<u64>,
    /// Merged simulator statistics over every launch.
    pub stats: Stats,
    /// Simulated program launches (scan pipelines launch twice per
    /// chunk).
    pub launches: u64,
}

fn member_layout(config: &SimConfig) -> (Vec<(u16, u16)>, usize) {
    let g = config.datapath.geometry();
    let count = SIM_VRFS.min(g.max_active_vrfs_per_mpu()).max(1);
    let members = (0..count)
        .map(|i| {
            let rfh = (i % g.rfhs_per_mpu) as u16;
            let vrf = ((i / g.rfhs_per_mpu) * 2) as u16;
            (rfh, vrf)
        })
        .collect();
    (members, g.lanes_per_vrf)
}

impl Lowered {
    /// The value padding lanes load into data registers.
    fn pad_value(&self) -> u64 {
        match self.terminal {
            Some(Stage::Reduce(op)) if self.flag.is_none() => op.identity(),
            _ => 0,
        }
    }

    /// A register that is dead after the phase-1 body, used as the
    /// SEND/RECV landing slot on the root MPU of a sharded reduction.
    fn xfer_reg(&self) -> RegId {
        if self.seg >= 2 {
            // Folded away by the first reduction-tree round.
            self.data[1]
        } else if let Some(v) = self.valid {
            // Dead once the flag is computed.
            v
        } else {
            self.scratch.expect("lowering reserved a transfer register")
        }
    }

    /// Initial-register bindings for one chunk on one MPU.
    ///
    /// `chunk` / `zip_chunks` are the chunk-aligned slices of the primary
    /// and zip columns.
    fn launch_inputs(
        &self,
        members: &[(u16, u16)],
        lanes: usize,
        chunk: &[u64],
        zip_chunks: &[(usize, &[u64])],
    ) -> Vec<RegisterInit> {
        let pad = self.pad_value();
        let elem = |col: &[u64], m: usize, lane: usize, k: usize, fill: u64| {
            col.get((m * lanes + lane) * self.seg + k).copied().unwrap_or(fill)
        };
        let mut inits = Vec::new();
        for (m, &(rfh, vrf)) in members.iter().enumerate() {
            for (k, &reg) in self.data.iter().enumerate() {
                let vals: Vec<u64> = (0..lanes).map(|lane| elem(chunk, m, lane, k, pad)).collect();
                inits.push(((rfh, vrf, reg.0 as u8), vals));
            }
            for (col, regs) in &self.zips {
                let (_, col_chunk) = zip_chunks
                    .iter()
                    .find(|(c, _)| c == col)
                    .expect("zip chunk provided for every zip column");
                for (k, &reg) in regs.iter().enumerate() {
                    let vals: Vec<u64> =
                        (0..lanes).map(|lane| elem(col_chunk, m, lane, k, 0)).collect();
                    inits.push(((rfh, vrf, reg.0 as u8), vals));
                }
            }
            for &(reg, value) in &self.consts {
                inits.push(((rfh, vrf, reg.0 as u8), vec![value; lanes]));
            }
            if let Some(v) = self.valid {
                // A lane is valid only when its WHOLE segment is real
                // (for SEG == 1 this is plain element validity); a
                // partial tail lane is masked out and folded on the host.
                let vals: Vec<u64> = (0..lanes)
                    .map(|lane| u64::from((m * lanes + lane) * self.seg + self.seg <= chunk.len()))
                    .collect();
                inits.push(((rfh, vrf, v.0 as u8), vals));
            }
        }
        inits
    }

    /// Leaf program for a sharded reduction: phase-1 compute, then SEND
    /// every member's partial to the root's landing register.
    fn leaf_program(&self, members: &[(u16, u16)]) -> Result<Program, DpError> {
        let (d0, xfer) = (self.data[0], self.xfer_reg());
        let mut ez = ensemble(members, &self.body)?;
        ez.send(0, |s| {
            let mut vrfs: Vec<u16> = members.iter().map(|&(_, v)| v).collect();
            vrfs.dedup();
            for vrf in vrfs {
                let pairs: Vec<(u16, u16)> = members
                    .iter()
                    .filter(|&&(_, v)| v == vrf)
                    .map(|&(rfh, _)| (rfh, rfh))
                    .collect();
                s.transfer(&pairs, |t| {
                    t.memcpy(vrf, d0, vrf, xfer);
                });
            }
        });
        ez.assemble().map_err(sim)
    }

    /// Root program for a sharded reduction: phase-1 compute, then RECV
    /// each leaf's partials (in leaf order) and fold them into `d0`.
    fn root_program(
        &self,
        members: &[(u16, u16)],
        leaves: usize,
        op: ReduceOp,
    ) -> Result<Program, DpError> {
        let (d0, xfer) = (self.data[0], self.xfer_reg());
        let fold = Instruction::Binary { op: op.reduce_binary_op(), rs: xfer, rt: d0, rd: d0 };
        let mut ez = ensemble(members, &self.body)?;
        for leaf in 1..=leaves {
            ez.recv(leaf as u16);
            ez.ensemble(members, |b| {
                b.op(fold);
            })
            .map_err(sim)?;
        }
        ez.assemble().map_err(sim)
    }
}

impl ReduceOp {
    /// The ALU op a sharded root uses to fold RECV'd partials (public to
    /// the crate via the lowering's reduction tree as well).
    pub(crate) fn reduce_binary_op(self) -> BinaryOp {
        match self {
            ReduceOp::Sum | ReduceOp::Count => BinaryOp::Add,
            ReduceOp::Min => BinaryOp::Min,
            ReduceOp::Max => BinaryOp::Max,
            ReduceOp::And => BinaryOp::And,
            ReduceOp::Or => BinaryOp::Or,
            ReduceOp::Xor => BinaryOp::Xor,
        }
    }
}

/// Reads one chunk's data (and flag) registers back in element order.
fn read_chunk(
    mpu: &mut Mpu,
    lowered: &Lowered,
    members: &[(u16, u16)],
    lanes: usize,
    len: usize,
) -> Result<(Vec<u64>, Vec<u64>), DpError> {
    let mut vals = vec![0u64; len];
    let mut flags = vec![0u64; if lowered.flag.is_some() { len } else { 0 }];
    for (m, &(rfh, vrf)) in members.iter().enumerate() {
        for (k, &reg) in lowered.data.iter().enumerate() {
            let col = mpu
                .read_register(rfh, vrf, reg.0 as u8)
                .map_err(|e| DpError::Sim(e.to_string()))?;
            for (lane, &v) in col.iter().enumerate() {
                let e = (m * lanes + lane) * lowered.seg + k;
                if e < len {
                    vals[e] = v;
                }
            }
        }
        if let Some(f) = lowered.flag {
            let col =
                mpu.read_register(rfh, vrf, f.0 as u8).map_err(|e| DpError::Sim(e.to_string()))?;
            for (lane, &v) in col.iter().enumerate() {
                let e = (m * lanes + lane) * lowered.seg;
                if e < len {
                    flags[e] = v;
                }
            }
        }
    }
    Ok((vals, flags))
}

/// Applies the pipeline's map/zip stages to one element on the host —
/// used for the ragged (< SEG) tail of a reduce chunk, whose lane is
/// masked out on-device. Only reachable on the unflagged path, so no
/// filter stages exist.
fn host_apply(stages: &[Stage], columns: &[&[u64]], idx: usize, x0: u64) -> u64 {
    let mut x = x0;
    for &stage in stages {
        match stage {
            Stage::Map(op) => x = apply_map(op, x),
            Stage::Zip { column, op } => x = apply_zip(op, x, columns[column][idx]),
            Stage::Filter(_) | Stage::Scan(_) | Stage::Reduce(_) => break,
        }
    }
    x
}

/// Reads the per-lane reduction partials (`d0` of every member) back.
fn read_partials(
    mpu: &mut Mpu,
    lowered: &Lowered,
    members: &[(u16, u16)],
) -> Result<Vec<u64>, DpError> {
    let mut out = Vec::new();
    for &(rfh, vrf) in members {
        out.extend(
            mpu.read_register(rfh, vrf, lowered.data[0].0 as u8)
                .map_err(|e| DpError::Sim(e.to_string()))?,
        );
    }
    Ok(out)
}

impl Pipeline {
    /// Runs the pipeline on a single simulated MPU.
    ///
    /// `columns` are the zip inputs, indexed by the `column` argument of
    /// [`Pipeline::zip`]; each must match `primary` in length.
    ///
    /// # Errors
    ///
    /// Lowering errors ([`DpError::MaskPoolExhausted`] etc.), input-shape
    /// errors, or [`DpError::Sim`] from the simulator.
    pub fn run(
        &self,
        config: &SimConfig,
        primary: &[u64],
        columns: &[&[u64]],
    ) -> Result<PipelineRun, DpError> {
        self.run_sharded(config, 1, primary, columns)
    }

    /// Runs the pipeline with each launch sharded across `mpus` MPUs
    /// (clamped to the chip budget). Reductions aggregate on-device over
    /// SEND/RECV; other pipelines shard with independent readback. Every
    /// MPU of the call resolves its templates through one fresh pool over
    /// the dpapi-wide shape memo, whose shapes persist across calls
    /// (module docs, "Recipes").
    ///
    /// # Errors
    ///
    /// As for [`Pipeline::run`].
    pub fn run_sharded(
        &self,
        config: &SimConfig,
        mpus: usize,
        primary: &[u64],
        columns: &[&[u64]],
    ) -> Result<PipelineRun, DpError> {
        let pool = Arc::new(RecipePool::sharing_shapes(SHAPES.get_or_init(RecipePool::new)));
        let run = self.run_on_pool(config, mpus, primary, columns, &pool);
        SYNTHESIZED.fetch_add(pool.stats().shape_misses, Ordering::Relaxed);
        run
    }

    /// [`Pipeline::run_sharded`] with every MPU resolving its templates
    /// through `pool`.
    fn run_on_pool(
        &self,
        config: &SimConfig,
        mpus: usize,
        primary: &[u64],
        columns: &[&[u64]],
        pool: &Arc<RecipePool>,
    ) -> Result<PipelineRun, DpError> {
        let terminal = self.validate(columns.len())?;
        let lowered = self.lower()?;
        for &(col, _) in &lowered.zips {
            if columns[col].len() != primary.len() {
                return Err(DpError::ColumnLengthMismatch {
                    column: col,
                    len: columns[col].len(),
                    expected: primary.len(),
                });
            }
        }

        let reduce_op = match terminal {
            Some(Stage::Reduce(op)) => Some(op),
            _ => None,
        };
        let mut run = PipelineRun {
            values: Vec::new(),
            reduced: reduce_op.map(|op| op.identity()),
            stats: Stats::default(),
            launches: 0,
        };
        if primary.is_empty() {
            return Ok(run);
        }

        let (members, lanes) = member_layout(config);
        let g = config.datapath.geometry();
        let mpus = mpus.clamp(1, g.mpus_per_chip);
        let cap = members.len() * lanes * lowered.seg;

        // Running wrapping prefix for scan pipelines, carried across
        // chunks.
        let mut scan_carry = 0u64;

        let mut base = 0usize;
        while base < primary.len() {
            // One launch: up to `mpus` chunks of `cap` elements.
            let launch_len = (primary.len() - base).min(cap * mpus);
            let chunk_bounds: Vec<(usize, usize)> = (0..mpus)
                .map(|j| {
                    let s = (base + j * cap).min(base + launch_len);
                    let e = (s + cap).min(base + launch_len);
                    (s, e)
                })
                .filter(|(s, e)| e > s)
                .collect();

            if let (Some(op), true) = (reduce_op, chunk_bounds.len() > 1) {
                // On-device aggregation over SEND/RECV.
                let leaves = chunk_bounds.len() - 1;
                let mut system = System::new_pooled(config.clone(), chunk_bounds.len(), pool);
                system.set_program(0, lowered.root_program(&members, leaves, op)?);
                let leaf_program = lowered.leaf_program(&members)?;
                for j in 1..chunk_bounds.len() {
                    system.set_program(j, leaf_program.clone());
                }
                for (j, &(s, e)) in chunk_bounds.iter().enumerate() {
                    let zip_chunks: Vec<(usize, &[u64])> =
                        lowered.zips.iter().map(|&(c, _)| (c, &columns[c][s..e])).collect();
                    for ((rfh, vrf, reg), vals) in
                        lowered.launch_inputs(&members, lanes, &primary[s..e], &zip_chunks)
                    {
                        system
                            .mpu_mut(j)
                            .write_register(rfh, vrf, reg, &vals)
                            .map_err(|e| DpError::Sim(e.to_string()))?;
                    }
                }
                let stats = system.run().map_err(|e| DpError::Sim(e.to_string()))?;
                run.stats.merge_sequential(&stats);
                run.launches += 1;
                let partials = read_partials(system.mpu_mut(0), &lowered, &members)?;
                let folded = partials.into_iter().fold(op.identity(), |a, v| op.combine(a, v));
                run.reduced = Some(op.combine(run.reduced.unwrap(), folded));
                for &(s, e) in &chunk_bounds {
                    let full = (e - s) / lowered.seg * lowered.seg;
                    for (i, &p) in primary.iter().enumerate().take(e).skip(s + full) {
                        let v = host_apply(self.stages(), columns, i, p);
                        run.reduced = Some(op.combine(run.reduced.unwrap(), v));
                    }
                }
            } else {
                // Independent chunks: no NoC traffic.
                let program = lowered.program(&members)?;
                let phase2 = lowered.phase2_program(&members)?;
                let mut launch_stats: Option<Stats> = None;
                for &(s, e) in &chunk_bounds {
                    let zip_chunks: Vec<(usize, &[u64])> =
                        lowered.zips.iter().map(|&(c, _)| (c, &columns[c][s..e])).collect();
                    let inputs =
                        lowered.launch_inputs(&members, lanes, &primary[s..e], &zip_chunks);
                    let (stats, mut mpu) =
                        run_single_pooled(config.clone(), &program, &inputs, Some(pool))
                            .map_err(|err| DpError::Sim(err.to_string()))?;
                    let mut chunk_stats = stats;
                    let mut launches = 1u64;
                    let (vals, flags) = read_chunk(&mut mpu, &lowered, &members, lanes, e - s)?;
                    match terminal {
                        Some(Stage::Reduce(op)) => {
                            let partials = read_partials(&mut mpu, &lowered, &members)?;
                            let folded =
                                partials.into_iter().fold(op.identity(), |a, v| op.combine(a, v));
                            run.reduced = Some(op.combine(run.reduced.unwrap(), folded));
                            let full = (e - s) / lowered.seg * lowered.seg;
                            for (i, &p) in primary.iter().enumerate().take(e).skip(s + full) {
                                let v = host_apply(self.stages(), columns, i, p);
                                run.reduced = Some(op.combine(run.reduced.unwrap(), v));
                            }
                        }
                        Some(Stage::Scan(_)) => {
                            if let (Some(p2), Some(phase2_ir)) = (&phase2, &lowered.phase2) {
                                // Host-computed per-lane segment offsets,
                                // then the on-device fixup launch.
                                let mut inputs2 = Vec::new();
                                let mut offset = scan_carry;
                                for (m, &(rfh, vrf)) in members.iter().enumerate() {
                                    let lane_base = |lane: usize| (m * lanes + lane) * lowered.seg;
                                    let offsets: Vec<u64> = (0..lanes)
                                        .map(|lane| {
                                            let o = offset;
                                            let last = lane_base(lane) + lowered.seg - 1;
                                            offset = offset.wrapping_add(
                                                vals.get(last.min(vals.len().wrapping_sub(1)))
                                                    .copied()
                                                    .unwrap_or(0),
                                            );
                                            if lane_base(lane) >= vals.len() {
                                                offset = o;
                                            }
                                            o
                                        })
                                        .collect();
                                    inputs2.push(((rfh, vrf, phase2_ir.offset.0 as u8), offsets));
                                    for (k, &reg) in lowered.data.iter().enumerate() {
                                        let col: Vec<u64> = (0..lanes)
                                            .map(|lane| {
                                                vals.get(lane_base(lane) + k).copied().unwrap_or(0)
                                            })
                                            .collect();
                                        inputs2.push(((rfh, vrf, reg.0 as u8), col));
                                    }
                                }
                                scan_carry = offset;
                                let (stats2, mut mpu2) =
                                    run_single_pooled(config.clone(), p2, &inputs2, Some(pool))
                                        .map_err(|err| DpError::Sim(err.to_string()))?;
                                chunk_stats.merge_sequential(&stats2);
                                launches += 1;
                                let (fixed, _) =
                                    read_chunk(&mut mpu2, &lowered, &members, lanes, e - s)?;
                                run.values.extend(fixed);
                            } else {
                                // Flag path: dead lanes were masked to 0;
                                // the host completes the scan and keeps
                                // survivors.
                                for (v, f) in vals.iter().zip(&flags) {
                                    scan_carry = scan_carry.wrapping_add(*v);
                                    if *f != 0 {
                                        run.values.push(scan_carry);
                                    }
                                }
                            }
                        }
                        _ => {
                            if lowered.flag.is_some() {
                                run.values.extend(
                                    vals.iter()
                                        .zip(&flags)
                                        .filter(|(_, f)| **f != 0)
                                        .map(|(v, _)| *v),
                                );
                            } else {
                                run.values.extend(vals);
                            }
                        }
                    }
                    run.launches += launches;
                    match &mut launch_stats {
                        None => launch_stats = Some(chunk_stats),
                        Some(acc) => acc.merge_parallel(&chunk_stats),
                    }
                }
                if let Some(s) = launch_stats {
                    run.stats.merge_sequential(&s);
                }
            }
            base += launch_len;
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use crate::pipeline::{MapOp, Pipeline, Pred, ReduceOp, ScanOp, ZipOp};
    use mastodon::SimConfig;
    use pum_backend::DatapathKind;

    fn cfg() -> SimConfig {
        SimConfig::mpu(DatapathKind::Racer)
    }

    #[test]
    fn map_matches_oracle_at_odd_lengths() {
        let p = Pipeline::new().map(MapOp::Add(7)).map(MapOp::Xor(0x55));
        for n in [1usize, 63, 64, 65, 200] {
            let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
            let want = p.oracle(&data, &[]).unwrap();
            let got = p.run(&cfg(), &data, &[]).unwrap();
            assert_eq!(got.values, want.values, "n={n}");
        }
    }

    #[test]
    fn filtered_count_matches_oracle() {
        let data: Vec<u64> = (0..1000).collect();
        let p = Pipeline::new().map(MapOp::And(3)).filter(Pred::Eq(3)).reduce(ReduceOp::Count);
        let run = p.run(&cfg(), &data, &[]).unwrap();
        assert_eq!(run.reduced, Some(250));
        assert_eq!(run.reduced, p.oracle(&data, &[]).unwrap().reduced);
    }

    #[test]
    fn zip_mul_sum_matches_oracle() {
        let a: Vec<u64> = (0..300).map(|i| i * 3 + 1).collect();
        let b: Vec<u64> = (0..300).map(|i| i ^ 0xABCD).collect();
        let p = Pipeline::new().zip(0, ZipOp::Mul).reduce(ReduceOp::Sum);
        let run = p.run(&cfg(), &a, &[&b]).unwrap();
        assert_eq!(run.reduced, p.oracle(&a, &[&b]).unwrap().reduced);
    }

    #[test]
    fn scan_matches_oracle_across_chunks() {
        let data: Vec<u64> = (0..5000).map(|i| i % 97).collect();
        let p = Pipeline::new().scan(ScanOp::Sum);
        let run = p.run(&cfg(), &data, &[]).unwrap();
        assert_eq!(run.values, p.oracle(&data, &[]).unwrap().values);
        assert!(run.launches >= 2, "scan is two-launch");
    }

    #[test]
    fn sharded_reduce_aggregates_over_the_noc() {
        let data: Vec<u64> = (0..9000).map(|i| i ^ (i << 7)).collect();
        let p = Pipeline::new().map(MapOp::And(0xffff)).reduce(ReduceOp::Sum);
        let single = p.run(&cfg(), &data, &[]).unwrap();
        let sharded = p.run_sharded(&cfg(), 4, &data, &[]).unwrap();
        assert_eq!(single.reduced, sharded.reduced);
        assert_eq!(sharded.reduced, p.oracle(&data, &[]).unwrap().reduced);
        assert!(sharded.launches < single.launches);
    }

    #[test]
    fn empty_input_skips_the_simulator() {
        let p = Pipeline::new().reduce(ReduceOp::Min);
        let run = p.run(&cfg(), &[], &[]).unwrap();
        assert_eq!(run.reduced, Some(u64::MAX));
        assert_eq!(run.launches, 0);
    }
}
