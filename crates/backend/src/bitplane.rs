//! Bit-plane vector register file storage.
//!
//! Bitwise PUM datapaths store each vector register bit-sliced: bit *b* of
//! every lane lives in the same physical row/column, and a micro-op (NOR,
//! triple-row-activate majority, bitline AND, ...) applies to **all lanes
//! of one bit-plane at once**. [`BitPlaneVrf`] reproduces that layout
//! exactly: a plane is a packed bitvector over lanes, and micro-ops are
//! whole-plane boolean operations — the column-parallel physics of PUM.
//!
//! # In-place execution
//!
//! Micro-ops are the simulator's innermost loop (a 32-bit MUL replays
//! thousands per VRF per wave), so every plane operation here runs
//! **allocation-free and in place**: plane addresses resolve to offsets
//! into one flat `storage` buffer, and the output words are computed
//! directly over that buffer with the lane mask fused into the same loop.
//! Word-wise plane operations are pointwise, so an output that aliases an
//! input is safe without staging: each output word is produced from the
//! already-read input words of the same index. Host data loads go through
//! a word-level 64×64 bit-matrix transpose instead of per-bit shifting.
//!
//! # One word-loop kernel
//!
//! Every plane operation — the op-by-op path here and the compiled fast
//! loop in `compiled.rs` — runs [`plane_kernel`], which is generic over a
//! compile-time chunk width `W`: it loads each operand's `W` words as a
//! `[u64; W]`, computes, and stores, merging with the mask plane when the
//! write is masked. [`with_width`] picks `W` from the VRF's words per
//! plane: the shipped widths (1, 4 and 8 words) get a single chunk each,
//! so the loop is fully unrolled with one bounds check per operand; any
//! other width runs in one-word chunks. Every plane starts at a multiple
//! of `words` in storage and `W` divides `words`, so chunk `k` of
//! every operand sits at `base + k·W` and two operands' chunks either
//! coincide or do not overlap — reading a chunk's inputs before writing
//! it therefore equals the word-by-word read-then-write, even when the
//! output aliases an input.

use crate::fault::FaultModel;
use crate::microop::MicroOpKind;
use crate::DATA_BITS;
use std::borrow::{Borrow, BorrowMut};
use std::fmt;

/// Identifies one bit-plane of a VRF, as addressed by micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// Bit `bit` of architectural vector register `reg`.
    Reg {
        /// Register index within the VRF.
        reg: u8,
        /// Bit position within each 64-bit element.
        bit: u8,
    },
    /// A scratch plane (buffer rows used by recipes for temporaries;
    /// RACER buffers, Ambit designated compute rows, DC sense-amp latches).
    Scratch(u16),
    /// The conditional register: one bit per lane, written by comparison
    /// instructions. Writes are lane-masked.
    Cond,
    /// The mask register: one bit per lane, gating writes to architectural
    /// planes. Writes to this plane are *not* masked (otherwise lanes could
    /// never be re-enabled).
    Mask,
    /// A preset constant row (read-only), as used by e.g. Ambit to turn a
    /// majority vote into AND (`Const(false)`) or OR (`Const(true)`).
    Const(bool),
}

impl fmt::Display for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plane::Reg { reg, bit } => write!(f, "r{reg}.{bit}"),
            Plane::Scratch(i) => write!(f, "s{i}"),
            Plane::Cond => f.write_str("cond"),
            Plane::Mask => f.write_str("mask"),
            Plane::Const(b) => write!(f, "const{}", u8::from(*b)),
        }
    }
}

/// Number of scratch planes available to recipes.
pub const SCRATCH_PLANES: usize = 24;

/// Transposes a 64×64 bit matrix in place (`a[r]` bit `c` ↔ `a[c]` bit
/// `r`), using the classic recursive block-swap (Hacker's Delight §7-3):
/// six passes of word-level shifts and XOR swaps instead of 4096 per-bit
/// probes. This is the packing kernel behind the host data-load path.
fn transpose_64x64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        // Swap the off-diagonal j×j blocks of each 2j-row band: row `k`
        // of its first half with row `k + j` of its second. The rows of a
        // half are contiguous, so the swap runs as straight-line word ops.
        for band in a.chunks_exact_mut(2 * j) {
            let (lo, hi) = band.split_at_mut(j);
            for (x, y) in lo.iter_mut().zip(hi) {
                let t = ((*x >> j) ^ *y) & m;
                *y ^= t;
                *x ^= t << j;
            }
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// A computation over plane storage run at one compile-time chunk width
/// (see [`with_width`]).
pub(crate) trait WidthJob {
    /// Runs the job over planes of `chunks` chunks of `W` words each.
    fn run<const W: usize>(self, chunks: usize);
}

/// Runs `job` at the chunk width for planes of `words` words: one chunk
/// at the shipped widths (1, 4 and 8 words), else `words` one-word chunks.
#[inline(always)]
pub(crate) fn with_width(words: usize, job: impl WidthJob) {
    match words {
        1 => job.run::<1>(1),
        4 => job.run::<4>(1),
        8 => job.run::<8>(1),
        _ => one_word_chunks(words, job),
    }
}

/// The fallback of [`with_width`], kept out of line. Inline, its call to
/// the same `run::<1>` can be merged with the 1-word arm's (there
/// `1 == words`), and that arm loses its constant chunk count: 1-word
/// pipelines measured ~7% slower that way.
#[inline(never)]
fn one_word_chunks(words: usize, job: impl WidthJob) {
    job.run::<1>(words)
}

/// The word function of a constant fill: every word all `value`.
#[inline(always)]
pub(crate) fn fill(value: bool) -> impl Fn(u64, u64, u64) -> u64 {
    let word = 0u64.wrapping_sub(u64::from(value));
    move |_, _, _| word
}

/// The `W` words of storage at `at`.
#[inline(always)]
fn load<const W: usize>(st: &[u64], at: usize) -> [u64; W] {
    let mut words = [0u64; W];
    words.copy_from_slice(&st[at..at + W]);
    words
}

/// The crate's one word loop: `out = f(a, b, c)` over planes of `chunks`
/// chunks of `W` words at the word offsets `ins` and `out`, merged as
/// `(new & m) | (old & !m)` with the mask plane at offset `mask` when
/// given. Each chunk's inputs are read before its output is written, so
/// `out` may alias any input (see the module docs). Functions of fewer
/// inputs ignore the trailing ones; pass a read operand in their place.
#[inline(always)]
pub(crate) fn plane_kernel<const W: usize>(
    st: &mut [u64],
    chunks: usize,
    [a, b, c]: [usize; 3],
    out: usize,
    mask: Option<usize>,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    for k in 0..chunks {
        let at = k * W;
        let (x, y, z) = (load::<W>(st, a + at), load::<W>(st, b + at), load::<W>(st, c + at));
        let mut new = [0u64; W];
        for w in 0..W {
            new[w] = f(x[w], y[w], z[w]);
        }
        if let Some(mask) = mask {
            let (m, old) = (load::<W>(st, mask + at), load::<W>(st, out + at));
            for w in 0..W {
                new[w] = (new[w] & m[w]) | (old[w] & !m[w]);
            }
        }
        st[out + at..out + at + W].copy_from_slice(&new);
    }
}

/// Planes per VRF: `regs × 64` architectural planes, the scratch planes,
/// and the cond, mask and two constant planes.
const fn plane_count(regs: usize) -> usize {
    regs * DATA_BITS as usize + SCRATCH_PLANES + 4
}

/// A VRF's state besides its planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VrfState {
    /// When `false`, writes to architectural planes ignore the mask
    /// register (used while servicing `GETMASK`, which must copy all bits).
    mask_enabled: bool,
    /// Cached popcount of the mask plane, refreshed whenever the mask
    /// plane is written (it is a pure function of the planes, so derived
    /// equality stays consistent).
    mask_lanes: usize,
    /// Optional seeded hardware fault model (see [`crate::fault`]). `None`
    /// (the default) keeps every hot-path hook down to one branch, so a
    /// fault-free VRF behaves byte-identically to one built without the
    /// fault layer.
    faults: Option<Box<FaultModel>>,
}

impl VrfState {
    const POWER_ON: VrfState = VrfState { mask_enabled: true, mask_lanes: 0, faults: None };
}

/// A bit-plane vector register file: `regs × 64` architectural planes plus
/// scratch, conditional, mask and constant planes, each a packed bitvector
/// over `lanes`.
///
/// `S` holds the planes and `T` the rest of the VRF's state
/// ([`VrfState`]). A `BitPlaneVrf` with the default parameters owns both. A
/// [`VrfMut`] (or [`VrfRef`]) is the same VRF as a view of one member of a
/// [`PlaneBank`], with every operation available. Plane `p` starts at word
/// `p × pitch` of `S`: `pitch` is `words` when the VRF owns its planes, and
/// `members × words` in a bank, whose members' copies of a plane sit side
/// by side. A member's view starts at its own first word, so the same
/// plane offsets address every member.
///
/// # Example
///
/// ```
/// use pum_backend::BitPlaneVrf;
///
/// let mut vrf = BitPlaneVrf::new(64, 8);
/// vrf.write_lane_values(0, &[7; 64]);
/// assert_eq!(vrf.read_lane_values(0)[5], 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlaneVrf<S = Vec<u64>, T = VrfState> {
    lanes: usize,
    regs: usize,
    words: usize,
    /// Words from the start of one plane to the start of the next.
    pitch: usize,
    /// Plane storage: plane `p` is `storage[p × pitch..][..words]`, for the
    /// `(regs*64 + SCRATCH + cond + mask + const0/1)` planes.
    storage: S,
    state: T,
}

/// One member of a [`PlaneBank`], borrowed for any VRF operation.
pub type VrfMut<'a> = BitPlaneVrf<&'a mut [u64], &'a mut VrfState>;

/// One member of a [`PlaneBank`], borrowed for reading.
pub type VrfRef<'a> = BitPlaneVrf<&'a [u64], &'a VrfState>;

impl BitPlaneVrf {
    /// Creates a VRF with `lanes` lanes and `regs` architectural vector
    /// registers, all zeroed, mask fully enabled (all lanes on).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, `regs == 0`, or `regs > 64`.
    pub fn new(lanes: usize, regs: usize) -> Self {
        PlaneBank::check(lanes, regs);
        let words = lanes.div_ceil(64);
        let mut vrf = Self {
            lanes,
            regs,
            words,
            pitch: words,
            storage: vec![0u64; plane_count(regs) * words],
            state: VrfState::POWER_ON,
        };
        vrf.power_on();
        vrf
    }

    /// True if writes to `plane` must be gated by the mask register.
    pub(crate) fn is_masked_target(plane: Plane) -> bool {
        matches!(plane, Plane::Reg { .. } | Plane::Cond)
    }
}

impl<S: AsRef<[u64]>, T: Borrow<VrfState>> BitPlaneVrf<S, T> {
    /// Number of lanes (vector elements) in this VRF.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of architectural vector registers.
    pub fn regs(&self) -> usize {
        self.regs
    }

    fn plane_index(&self, plane: Plane) -> usize {
        let arch = self.regs * DATA_BITS as usize;
        match plane {
            Plane::Reg { reg, bit } => {
                let (reg, bit) = (reg as usize, bit as usize);
                assert!(reg < self.regs, "register {reg} out of range (VRF has {})", self.regs);
                assert!(bit < DATA_BITS as usize, "bit {bit} out of range");
                reg * DATA_BITS as usize + bit
            }
            Plane::Scratch(i) => {
                assert!((i as usize) < SCRATCH_PLANES, "scratch plane {i} out of range");
                arch + i as usize
            }
            Plane::Cond => arch + SCRATCH_PLANES,
            Plane::Mask => arch + SCRATCH_PLANES + 1,
            Plane::Const(false) => arch + SCRATCH_PLANES + 2,
            Plane::Const(true) => arch + SCRATCH_PLANES + 3,
        }
    }

    /// Word offset of `plane` in storage.
    fn base(&self, plane: Plane) -> usize {
        self.plane_index(plane) * self.pitch
    }

    fn plane(&self, plane: Plane) -> &[u64] {
        let base = self.base(plane);
        &self.storage.as_ref()[base..base + self.words]
    }

    /// Word offset of the mask plane in storage.
    #[inline]
    pub(crate) fn mask_base(&self) -> usize {
        (self.regs * DATA_BITS as usize + SCRATCH_PLANES + 1) * self.pitch
    }

    /// Words per plane (`lanes.div_ceil(64)`).
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Range of words in a [`Self::snapshot`] image occupied by the
    /// scratch planes. Redundant-execution comparison and voting exclude
    /// this range: scratch contents are not architectural — recipes are
    /// free to leave different residue there (the recipe optimizer elides
    /// dead scratch stores), and a scratch fault that matters has
    /// propagated into an architectural plane by the time a recipe ends.
    pub fn scratch_word_range(&self) -> std::ops::Range<usize> {
        let arch = self.regs * DATA_BITS as usize;
        arch * self.words..(arch + SCRATCH_PLANES) * self.words
    }

    /// Reads one lane's bit from a plane.
    pub fn lane_bit(&self, plane: Plane, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (self.plane(plane)[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// True if any lane of `plane` is set (the EFI's "any lane enabled"
    /// reduction used by `JUMP_COND`).
    pub fn any_lane_set(&self, plane: Plane) -> bool {
        self.plane(plane).iter().any(|&w| w != 0)
    }

    /// Number of set lanes in `plane`.
    pub fn count_lanes_set(&self, plane: Plane) -> usize {
        self.plane(plane).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of currently enabled lanes — the cached popcount of the mask
    /// plane, maintained incrementally so per-instruction energy gating
    /// does not rescan the plane.
    pub fn mask_lanes(&self) -> usize {
        self.state.borrow().mask_lanes
    }

    /// Reads the packed bitvector of a plane (words of 64 lanes).
    pub fn plane_words(&self, plane: Plane) -> &[u64] {
        self.plane(plane)
    }

    /// Whether lane masking currently applies to architectural writes.
    pub fn mask_enabled(&self) -> bool {
        self.state.borrow().mask_enabled
    }

    /// The attached fault model, if any.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.state.borrow().faults.as_deref()
    }

    /// Captures the full plane storage, plane by plane, for
    /// checkpoint/redundancy replay. The fault model (and its PRNG site) is
    /// deliberately *not* part of the snapshot: re-running after a restore
    /// must draw fresh fault sites, not replay the same ones.
    pub fn snapshot(&self) -> Vec<u64> {
        let st = self.storage.as_ref();
        (0..plane_count(self.regs))
            .flat_map(|p| &st[p * self.pitch..p * self.pitch + self.words])
            .copied()
            .collect()
    }

    /// Reads register `reg` back as 64-bit element values, one per lane
    /// (the inverse transpose of [`BitPlaneVrf::write_lane_values`]).
    pub fn read_lane_values(&self, reg: u8) -> Vec<u64> {
        let mut values = vec![0u64; self.lanes];
        let mut block = [0u64; 64];
        for w in 0..self.words {
            self.read_block(reg, w, &mut block);
            let lo = w * 64;
            let n = (self.lanes - lo).min(64);
            values[lo..lo + n].copy_from_slice(&block[..n]);
        }
        values
    }

    /// Lanes `64w..64w+64` of register `reg` as element values, into
    /// `block` (lanes past the VRF's read as zero).
    pub(crate) fn read_block(&self, reg: u8, w: usize, block: &mut [u64; 64]) {
        let base = self.base(Plane::Reg { reg, bit: 0 }) + w;
        let st = self.storage.as_ref();
        for (bit, row) in block.iter_mut().enumerate() {
            *row = st[base + bit * self.pitch];
        }
        transpose_64x64(block);
    }
}

impl<S: AsRef<[u64]> + AsMut<[u64]>, T: BorrowMut<VrfState>> BitPlaneVrf<S, T> {
    /// Sets the planes a VRF holds at power-on: the mask all enabled and
    /// the `const1` plane all ones. Together with all-zero planes elsewhere
    /// this is the power-on image.
    pub fn power_on(&mut self) {
        self.fill_plane(Plane::Mask, true);
        let c1 = self.base(Plane::Const(true));
        self.plane_op([c1; 3], c1, false, fill(true));
    }

    /// Direct access to the plane storage, to drive the fast loop
    /// (`compiled::run_ops_fast`) over one VRF in tests.
    #[cfg(test)]
    pub(crate) fn storage_mut(&mut self) -> &mut [u64] {
        self.storage.as_mut()
    }

    /// Recounts the cached mask popcount from the mask plane.
    fn refresh_mask_lanes(&mut self) {
        let base = self.mask_base();
        let plane = &self.storage.as_ref()[base..base + self.words];
        self.state.borrow_mut().mask_lanes = plane.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Resolves an output plane to its storage offset and whether the
    /// current write must honour the lane mask.
    ///
    /// # Panics
    ///
    /// Panics if `out` is a constant plane.
    #[inline]
    fn out_base(&self, out: Plane) -> (usize, bool) {
        assert!(!matches!(out, Plane::Const(_)), "constant planes are read-only");
        (self.base(out), self.mask_enabled() && BitPlaneVrf::is_masked_target(out))
    }

    /// Forces permanently stuck/dead lanes to their stuck values in the
    /// `words` words at `at` (one plane).
    fn force_plane(&mut self, at: usize) {
        let Some(f) = &self.state.borrow().faults else { return };
        if f.has_forced_lanes() {
            let st = self.storage.as_mut();
            for w in 0..self.words {
                st[at + w] = f.force_word(w, st[at + w]);
            }
        }
    }

    /// Post-write bookkeeping for the plane at word offset `base`: zeroes
    /// bits beyond `lanes` in the last word (whole-plane reductions stay
    /// exact), forces permanently stuck/dead lanes to their stuck values,
    /// and refreshes the cached mask popcount if the mask plane was the
    /// target.
    #[inline]
    fn finish_write(&mut self, base: usize) {
        let extra = self.words * 64 - self.lanes;
        if extra > 0 {
            self.storage.as_mut()[base + self.words - 1] &= !0u64 >> extra;
        }
        self.force_plane(base);
        if base == self.mask_base() {
            self.refresh_mask_lanes();
        }
    }

    /// In-place plane operation `storage[out..] = f(a, b, c)` over the
    /// operand word offsets `ins`, merged under the lane mask when
    /// `masked`: [`plane_kernel`] at this VRF's width, then
    /// [`Self::finish_write`]. Aliasing between `out` and any input is
    /// safe.
    #[inline]
    pub(crate) fn plane_op(
        &mut self,
        ins: [usize; 3],
        out: usize,
        masked: bool,
        f: impl Fn(u64, u64, u64) -> u64,
    ) {
        struct Op<'a, F> {
            st: &'a mut [u64],
            ins: [usize; 3],
            out: usize,
            mask: Option<usize>,
            f: F,
        }
        impl<F: Fn(u64, u64, u64) -> u64> WidthJob for Op<'_, F> {
            #[inline(always)]
            fn run<const W: usize>(self, chunks: usize) {
                plane_kernel::<W>(self.st, chunks, self.ins, self.out, self.mask, self.f)
            }
        }
        let mask = masked.then(|| self.mask_base());
        with_width(self.words, Op { st: self.storage.as_mut(), ins, out, mask, f });
        self.finish_write(out);
    }

    /// Applies a two-input boolean plane operation: `out = f(a, b)`.
    pub fn apply2(&mut self, a: Plane, b: Plane, out: Plane, f: impl Fn(u64, u64) -> u64) {
        let (a, b) = (self.base(a), self.base(b));
        let (out, masked) = self.out_base(out);
        self.plane_op([a, b, b], out, masked, |x, y, _| f(x, y));
    }

    /// Applies a three-input boolean plane operation: `out = f(a, b, c)`.
    pub fn apply3(
        &mut self,
        a: Plane,
        b: Plane,
        c: Plane,
        out: Plane,
        f: impl Fn(u64, u64, u64) -> u64,
    ) {
        let (a, b, c) = (self.base(a), self.base(b), self.base(c));
        let (out, masked) = self.out_base(out);
        self.plane_op([a, b, c], out, masked, f);
    }

    /// Copies plane `a` into `out` (a row-copy / buffered copy micro-op).
    pub fn copy_plane(&mut self, a: Plane, out: Plane) {
        let a = self.base(a);
        let (out, masked) = self.out_base(out);
        self.plane_op([a; 3], out, masked, |x, _, _| x);
    }

    /// Fills `out` with a constant bit (a preset / initialize micro-op).
    pub fn fill_plane(&mut self, out: Plane, value: bool) {
        let (out, masked) = self.out_base(out);
        self.plane_op([out; 3], out, masked, fill(value));
    }

    /// Overwrites a plane with packed lane bits, bypassing the mask (used
    /// by the control path and by DMA-style transfers).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the plane word count.
    pub fn set_plane_words(&mut self, plane: Plane, words: &[u64]) {
        assert_eq!(words.len(), self.words, "plane word count mismatch");
        let base = self.base(plane);
        self.storage.as_mut()[base..base + self.words].copy_from_slice(words);
        self.finish_write(base);
    }

    /// Temporarily disables lane masking (control-path `GETMASK` path).
    pub fn set_mask_enabled(&mut self, enabled: bool) {
        self.state.borrow_mut().mask_enabled = enabled;
    }

    /// Executes a pre-compiled recipe (see [`crate::CompiledRecipe`]):
    /// plane addresses and mask-target decisions were resolved at
    /// compile time, so the hot loop is pure word arithmetic over
    /// `storage`.
    ///
    /// # Panics
    ///
    /// Panics if the recipe was compiled for a different VRF geometry or
    /// plane layout.
    pub fn run_compiled(&mut self, recipe: &crate::CompiledRecipe) {
        assert_eq!(
            (recipe.lanes(), recipe.regs(), recipe.bank() * self.words),
            (self.lanes, self.regs, self.pitch),
            "compiled recipe targets a different VRF geometry"
        );
        crate::compiled::run(self, recipe);
    }

    /// Transient-fault hook, called once per executed micro-op by the
    /// op-by-op path ([`crate::MicroOp::apply`]) with the op's output
    /// plane. With no fault model attached this is a single branch.
    #[inline]
    pub(crate) fn post_op(&mut self, kind: MicroOpKind, out: Plane) {
        if self.state.borrow().faults.is_some() {
            let base = self.base(out);
            self.post_op_at(kind, base);
        }
    }

    /// Transient-fault hook over a pre-resolved output plane offset (the
    /// compiled path's form of [`BitPlaneVrf::post_op`]). Both paths call
    /// it exactly once per micro-op with the same `(kind, plane)`
    /// sequence, so op-by-op and compiled execution draw identical
    /// fault sites and stay byte-identical under injection.
    #[inline]
    pub(crate) fn post_op_at(&mut self, kind: MicroOpKind, out_base: usize) {
        let (lanes, mask_base) = (self.lanes, self.mask_base());
        let Some(f) = self.state.borrow_mut().faults.as_deref_mut() else { return };
        let Some(lane) = f.draw_flip(kind, lanes) else { return };
        let i = out_base + lane / 64;
        let st = self.storage.as_mut();
        // A flip on a permanently forced lane is absorbed by the stuck
        // value and does not count as an injection.
        let flipped = f.force_word(lane / 64, st[i] ^ 1u64 << (lane % 64));
        if flipped == st[i] {
            return;
        }
        st[i] = flipped;
        f.note_injected();
        if out_base == mask_base {
            self.refresh_mask_lanes();
        }
    }

    /// RFH write-corruption hook, called by the simulator after a
    /// *runtime* register write lands (message delivery, transfer-block
    /// landing) — never for host data loads, which model an ideal test
    /// interface. On a hit, flips one bit of one lane of `reg`; returns
    /// whether a corruption landed.
    pub fn corrupt_register_write(&mut self, reg: u8) -> bool {
        if self.state.borrow().faults.is_none() {
            return false;
        }
        let (base, lanes, pitch) = (self.base(Plane::Reg { reg, bit: 0 }), self.lanes, self.pitch);
        let Some(f) = self.state.borrow_mut().faults.as_deref_mut() else { return false };
        let Some((lane, bit)) = f.draw_write_corruption(lanes) else { return false };
        let (w, lane_bit) = (lane / 64, 1u64 << (lane % 64));
        let i = base + bit as usize * pitch + w;
        let st = self.storage.as_mut();
        let flipped = f.force_word(w, st[i] ^ lane_bit);
        if flipped == st[i] {
            return false;
        }
        st[i] = flipped;
        f.note_injected();
        true
    }

    /// Attaches (or detaches, with `None`) a hardware fault model. Any
    /// permanently stuck lanes take effect immediately across all planes —
    /// a stuck bit-line is stuck from power-on, not from its next write.
    pub fn set_fault_model(&mut self, model: Option<FaultModel>) {
        let forced = model.as_ref().is_some_and(FaultModel::has_forced_lanes);
        self.state.borrow_mut().faults = model.map(Box::new);
        if forced {
            for p in 0..plane_count(self.regs) {
                self.force_plane(p * self.pitch);
            }
            self.refresh_mask_lanes();
        }
    }

    /// Mutable access to the attached fault model, if any.
    pub fn fault_model_mut(&mut self) -> Option<&mut FaultModel> {
        self.state.borrow_mut().faults.as_deref_mut()
    }

    /// Drains the fault model's landed-injection counter (0 if no model).
    pub fn take_injected(&mut self) -> u64 {
        self.fault_model_mut().map_or(0, FaultModel::take_injected)
    }

    /// Restores plane storage captured by [`BitPlaneVrf::snapshot`] and
    /// refreshes derived state (the cached mask popcount).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different VRF geometry.
    pub fn restore(&mut self, snapshot: &[u64]) {
        let words = self.words;
        assert_eq!(snapshot.len(), plane_count(self.regs) * words, "snapshot geometry mismatch");
        let (pitch, st) = (self.pitch, self.storage.as_mut());
        for (p, plane) in snapshot.chunks_exact(words).enumerate() {
            st[p * pitch..p * pitch + words].copy_from_slice(plane);
        }
        self.refresh_mask_lanes();
    }

    /// Writes `block`'s 64 element values into lanes `64w..64w+64` of
    /// register `reg`, merged as `(new & m) | (old & !m)` under the lane
    /// mask word `m` (all ones for an unmasked write). Consumes `block`.
    fn write_block(&mut self, reg: u8, w: usize, block: &mut [u64; 64], m: u64) {
        transpose_64x64(block);
        let base = self.base(Plane::Reg { reg, bit: 0 }) + w;
        let (pitch, st) = (self.pitch, self.storage.as_mut());
        for (bit, &plane_word) in block.iter().enumerate() {
            let i = base + bit * pitch;
            st[i] = (plane_word & m) | (st[i] & !m);
        }
    }

    /// Forces permanently stuck lanes on every plane of register `reg`.
    fn force_register(&mut self, reg: u8) {
        let base = self.base(Plane::Reg { reg, bit: 0 });
        for bit in 0..DATA_BITS as usize {
            self.force_plane(base + bit * self.pitch);
        }
    }

    /// Writes 64-bit element values into register `reg`, one per lane,
    /// starting at lane 0; remaining lanes are zeroed (implicit padding).
    /// Bypasses the mask (this is the host/DMA data-load path).
    ///
    /// Packing goes through a word-level 64×64 bit-matrix transpose: one
    /// lane block (64 lanes × 64 bits) is transposed in six shift/XOR
    /// passes and scattered to the register's bit planes.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > lanes`.
    pub fn write_lane_values(&mut self, reg: u8, values: &[u64]) {
        assert!(values.len() <= self.lanes, "{} values exceed {} lanes", values.len(), self.lanes);
        let mut block = [0u64; 64];
        for w in 0..self.words {
            let src = &values[values.len().min(w * 64)..];
            let n = src.len().min(64);
            block[..n].copy_from_slice(&src[..n]);
            block[n..].fill(0);
            self.write_block(reg, w, &mut block, !0);
        }
        // This path bypasses `finish_write`, so apply the permanent-lane
        // forcing explicitly: data loaded onto a stuck bit-line reads back
        // at the stuck value.
        self.force_register(reg);
    }

    /// Masked word-level register store of one 64-lane block: lanes
    /// `64w..64w+64` of `reg` receive `block`'s values where the lane mask
    /// enables them; disabled lanes keep their contents. This is the
    /// word-serial (DPU) datapath's write-back path — unlike
    /// [`BitPlaneVrf::write_lane_values`] (a host-side data load that
    /// bypasses the mask), registers are architectural targets here and the
    /// merge matches the bit-plane [`Self::plane_op`] semantics exactly.
    /// Lanes past the VRF's must hold zero in `block`. Consumes `block`;
    /// the caller forces stuck lanes ([`Self::finish_word_store`]) once the
    /// register's last block is stored.
    pub(crate) fn store_block(&mut self, reg: u8, w: usize, block: &mut [u64; 64]) {
        // Tail lanes beyond `lanes` stay zero either way: the unmasked
        // plane words carry zeros there, and the mask plane's invariant
        // tail zeros preserve the (zero) old contents when masked.
        let m = if self.mask_enabled() { self.storage.as_ref()[self.mask_base() + w] } else { !0 };
        self.write_block(reg, w, block, m);
    }

    /// Ends a word-serial store to `reg`: forces permanently stuck lanes,
    /// as every other write path does.
    pub(crate) fn finish_word_store(&mut self, reg: u8) {
        self.force_register(reg);
    }

    /// Masked conditional-plane store of one word of per-lane flags (bit
    /// `i` of `flags` is lane `64w + i`'s flag). The word-serial datapath's
    /// `Compare`/`Fuzzy` write-back path; [`Self::finish_cond_store`] ends
    /// it.
    pub(crate) fn store_cond_word(&mut self, w: usize, flags: u64) {
        let (out, masked) = self.out_base(Plane::Cond);
        let m = if masked { self.storage.as_ref()[self.mask_base() + w] } else { !0 };
        let st = self.storage.as_mut();
        st[out + w] = (flags & m) | (st[out + w] & !m);
    }

    /// Ends a word-serial store to the conditional plane (its post-write
    /// bookkeeping).
    pub(crate) fn finish_cond_store(&mut self) {
        let out = self.base(Plane::Cond);
        self.finish_write(out);
    }
}

/// The planes of several VRFs of one geometry in one storage, so that a
/// thermal wave of them runs every micro-op as one wide VRF would.
///
/// The layout is member-minor: member `m`'s copy of plane `p` is the
/// `words` words at `(p × members + m) × words`, so the members' copies of
/// a plane sit side by side and a plane of the whole bank is
/// `members × words` words. Each member is a VRF in its own right, reached
/// as a [`VrfMut`] view ([`Self::member`]) whose storage starts at the
/// member's first word: plane offsets compiled for the bank's pitch
/// ([`crate::Recipe::compile_for`]) address every member, and the whole
/// bank, alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneBank {
    lanes: usize,
    regs: usize,
    words: usize,
    storage: Vec<u64>,
    states: Vec<VrfState>,
}

impl PlaneBank {
    /// Creates a bank of `members` VRFs of `lanes` lanes and `regs`
    /// architectural registers, each as [`BitPlaneVrf::new`] leaves it.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, `regs == 0`, `regs > 64` or `members == 0`.
    pub fn new(lanes: usize, regs: usize, members: usize) -> Self {
        Self::check(lanes, regs);
        assert!(members > 0, "a plane bank needs at least one member");
        let words = lanes.div_ceil(64);
        let storage = vec![0u64; plane_count(regs) * members * words];
        let mut bank =
            Self { lanes, regs, words, storage, states: vec![VrfState::POWER_ON; members] };
        for m in 0..members {
            bank.member(m).power_on();
        }
        bank
    }

    fn check(lanes: usize, regs: usize) {
        assert!(lanes > 0, "a VRF needs at least one lane");
        assert!(regs > 0 && regs <= 64, "register count must be in 1..=64");
    }

    /// Number of member VRFs.
    pub fn members(&self) -> usize {
        self.states.len()
    }

    /// Lanes per member VRF.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Architectural registers per member VRF.
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// Words per member plane.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Member `m`, as a VRF.
    ///
    /// # Panics
    ///
    /// Panics if `m >= self.members()`.
    pub fn member(&mut self, m: usize) -> VrfMut<'_> {
        let (lanes, regs, words, pitch) = (self.lanes, self.regs, self.words, self.pitch());
        let state = &mut self.states[m];
        BitPlaneVrf { lanes, regs, words, pitch, storage: &mut self.storage[m * words..], state }
    }

    /// Member `m`, as a VRF to read.
    ///
    /// # Panics
    ///
    /// Panics if `m >= self.members()`.
    pub fn member_ref(&self, m: usize) -> VrfRef<'_> {
        let (lanes, regs, words, pitch) = (self.lanes, self.regs, self.words, self.pitch());
        let state = &self.states[m];
        BitPlaneVrf { lanes, regs, words, pitch, storage: &self.storage[m * words..], state }
    }

    /// Words from one plane's start to the next.
    fn pitch(&self) -> usize {
        self.states.len() * self.words
    }

    /// The whole bank's storage, for the fast loop.
    pub(crate) fn storage_mut(&mut self) -> &mut [u64] {
        &mut self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_value_roundtrip() {
        let mut vrf = BitPlaneVrf::new(100, 4);
        let values: Vec<u64> =
            (0..100).map(|i| (i as u64).wrapping_mul(0x1234_5678_9abc_def1)).collect();
        vrf.write_lane_values(2, &values);
        assert_eq!(vrf.read_lane_values(2), values);
    }

    #[test]
    fn transpose_matches_naive_bit_packing() {
        // The word-level transpose must place bit b of lane l exactly where
        // the per-bit packer did: plane (reg, b), word l/64, bit l%64.
        let lanes = 130;
        let mut vrf = BitPlaneVrf::new(lanes, 2);
        let values: Vec<u64> =
            (0..lanes as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 40)).collect();
        vrf.write_lane_values(1, &values);
        for bit in 0..64u8 {
            let plane = vrf.plane_words(Plane::Reg { reg: 1, bit });
            for (lane, &v) in values.iter().enumerate() {
                let expect = (v >> bit) & 1 == 1;
                let got = (plane[lane / 64] >> (lane % 64)) & 1 == 1;
                assert_eq!(got, expect, "bit {bit} lane {lane}");
            }
            // Tail bits beyond `lanes` stay zero.
            let extra = lanes.div_ceil(64) * 64 - lanes;
            assert_eq!(plane[lanes / 64] >> (64 - extra), 0, "tail of bit {bit}");
        }
    }

    #[test]
    fn short_writes_zero_pad_remaining_lanes() {
        let mut vrf = BitPlaneVrf::new(100, 2);
        vrf.write_lane_values(0, &[u64::MAX; 100]);
        vrf.write_lane_values(0, &[7, 7, 7]);
        let got = vrf.read_lane_values(0);
        assert_eq!(&got[..3], &[7, 7, 7]);
        assert!(got[3..].iter().all(|&v| v == 0), "padding lanes must clear");
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_writes_are_rejected() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        vrf.write_lane_values(0, &[0; 65]);
    }

    #[test]
    fn apply2_is_whole_plane_parallel() {
        let mut vrf = BitPlaneVrf::new(130, 2);
        let a: Vec<u64> = (0..130).map(|i| i as u64 & 1).collect();
        let b: Vec<u64> = (0..130).map(|i| (i as u64 >> 1) & 1).collect();
        vrf.write_lane_values(0, &a);
        vrf.write_lane_values(1, &b);
        // NOR of bit 0 planes.
        vrf.apply2(
            Plane::Reg { reg: 0, bit: 0 },
            Plane::Reg { reg: 1, bit: 0 },
            Plane::Scratch(0),
            |x, y| !(x | y),
        );
        for lane in 0..130 {
            let expect = !(a[lane] | b[lane]) & 1 == 1;
            assert_eq!(vrf.lane_bit(Plane::Scratch(0), lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn aliased_outputs_are_pointwise_safe() {
        let mut vrf = BitPlaneVrf::new(128, 2);
        vrf.set_plane_words(Plane::Scratch(0), &[0xdead_beef_0123_4567, 0x3]);
        vrf.set_plane_words(Plane::Scratch(1), &[0xffff_0000_ffff_0000, 0x2]);
        // out == a
        vrf.apply2(Plane::Scratch(0), Plane::Scratch(1), Plane::Scratch(0), |x, y| x ^ y);
        assert_eq!(
            vrf.plane_words(Plane::Scratch(0)),
            &[0xdead_beef_0123_4567u64 ^ 0xffff_0000_ffff_0000, 0x1]
        );
        // out == b
        vrf.apply2(Plane::Scratch(0), Plane::Scratch(1), Plane::Scratch(1), |x, y| x & y);
        assert_eq!(
            vrf.plane_words(Plane::Scratch(1)),
            &[(0xdead_beef_0123_4567u64 ^ 0xffff_0000_ffff_0000) & 0xffff_0000_ffff_0000, 0x0]
        );
    }

    #[test]
    fn masked_writes_preserve_disabled_lanes() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        vrf.write_lane_values(0, &[5u64; 64]);
        // Disable odd lanes.
        let mask: Vec<u64> = (0..64).map(|i| (i % 2 == 0) as u64).collect();
        let mut packed = 0u64;
        for (i, &m) in mask.iter().enumerate() {
            packed |= m << i;
        }
        vrf.set_plane_words(Plane::Mask, &[packed]);
        // Write constant 1 into bit 1 of reg 0 (value +2 where enabled).
        vrf.fill_plane(Plane::Reg { reg: 0, bit: 1 }, true);
        let vals = vrf.read_lane_values(0);
        for (lane, &v) in vals.iter().enumerate() {
            if lane % 2 == 0 {
                assert_eq!(v, 7, "enabled lane {lane}");
            } else {
                assert_eq!(v, 5, "disabled lane {lane}");
            }
        }
    }

    #[test]
    fn mask_plane_writes_are_never_masked() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.fill_plane(Plane::Mask, false); // all lanes off
        vrf.fill_plane(Plane::Mask, true); // must still re-enable
        assert_eq!(vrf.count_lanes_set(Plane::Mask), 64);
    }

    #[test]
    fn mask_popcount_cache_tracks_every_write_path() {
        let mut vrf = BitPlaneVrf::new(100, 2);
        assert_eq!(vrf.mask_lanes(), 100);
        vrf.fill_plane(Plane::Mask, false);
        assert_eq!(vrf.mask_lanes(), 0);
        vrf.set_plane_words(Plane::Mask, &[0xff, 0x1]);
        assert_eq!(vrf.mask_lanes(), 9);
        vrf.copy_plane(Plane::Const(true), Plane::Mask);
        assert_eq!(vrf.mask_lanes(), 100);
        vrf.apply2(Plane::Const(true), Plane::Const(true), Plane::Mask, |x, y| x & !y);
        assert_eq!(vrf.mask_lanes(), 0);
        // Non-mask writes leave the cache untouched but consistent.
        vrf.fill_plane(Plane::Scratch(0), true);
        assert_eq!(vrf.mask_lanes(), vrf.count_lanes_set(Plane::Mask));
    }

    #[test]
    fn const_planes_hold_their_values() {
        let vrf = BitPlaneVrf::new(70, 1);
        assert_eq!(vrf.count_lanes_set(Plane::Const(true)), 70);
        assert_eq!(vrf.count_lanes_set(Plane::Const(false)), 0);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn const_planes_reject_writes() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.fill_plane(Plane::Const(false), true);
    }

    #[test]
    fn any_and_count_reductions_ignore_tail_bits() {
        let mut vrf = BitPlaneVrf::new(65, 1);
        vrf.fill_plane(Plane::Scratch(0), true);
        assert_eq!(vrf.count_lanes_set(Plane::Scratch(0)), 65);
        vrf.fill_plane(Plane::Scratch(0), false);
        assert!(!vrf.any_lane_set(Plane::Scratch(0)));
    }

    #[test]
    fn getmask_path_bypasses_masking() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.set_plane_words(Plane::Mask, &[0x00ff_00ff_00ff_00ffu64]);
        vrf.set_mask_enabled(false);
        // Copy the mask into an architectural plane: all bits must copy.
        vrf.copy_plane(Plane::Mask, Plane::Reg { reg: 0, bit: 0 });
        vrf.set_mask_enabled(true);
        assert_eq!(vrf.plane_words(Plane::Reg { reg: 0, bit: 0 })[0], 0x00ff_00ff_00ff_00ff);
    }

    #[test]
    fn cond_writes_respect_mask() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        vrf.fill_plane(Plane::Cond, true);
        vrf.set_plane_words(Plane::Mask, &[0xffff_0000_0000_0000u64]);
        vrf.fill_plane(Plane::Cond, false);
        // Only the 16 enabled lanes were cleared.
        assert_eq!(vrf.count_lanes_set(Plane::Cond), 48);
    }

    #[test]
    fn stuck_lanes_force_every_write_path() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        let mut fm = FaultModel::new(1, 64);
        fm.add_stuck_lane(5, true);
        fm.add_stuck_lane(9, false);
        vrf.set_fault_model(Some(fm));
        // Host data load: every bit of lane 5 forced to 1, lane 9 to 0.
        vrf.write_lane_values(0, &[0u64; 64]);
        assert_eq!(vrf.read_lane_values(0)[5], u64::MAX);
        vrf.write_lane_values(1, &[u64::MAX; 64]);
        assert_eq!(vrf.read_lane_values(1)[9], 0);
        // Plane ops go through finish_write forcing.
        vrf.fill_plane(Plane::Scratch(0), false);
        assert!(vrf.lane_bit(Plane::Scratch(0), 5));
        vrf.fill_plane(Plane::Scratch(0), true);
        assert!(!vrf.lane_bit(Plane::Scratch(0), 9));
        // Attach-time forcing already propagated to the mask plane.
        assert!(!vrf.lane_bit(Plane::Mask, 9));
        assert_eq!(vrf.mask_lanes(), vrf.count_lanes_set(Plane::Mask));
    }

    #[test]
    fn transient_flips_land_and_are_counted() {
        let mut vrf = BitPlaneVrf::new(64, 1);
        let mut fm = FaultModel::new(3, 64);
        fm.set_transient_rate(MicroOpKind::Set, 1.0);
        vrf.set_fault_model(Some(fm));
        vrf.fill_plane(Plane::Scratch(0), false);
        vrf.post_op(MicroOpKind::Set, Plane::Scratch(0));
        assert_eq!(vrf.count_lanes_set(Plane::Scratch(0)), 1, "exactly one lane flipped");
        assert_eq!(vrf.take_injected(), 1);
        assert_eq!(vrf.take_injected(), 0);
    }

    #[test]
    fn register_write_corruption_flips_one_bit() {
        let mut vrf = BitPlaneVrf::new(64, 2);
        let mut fm = FaultModel::new(11, 64);
        fm.set_write_corruption_rate(1.0);
        vrf.set_fault_model(Some(fm));
        vrf.write_lane_values(0, &[0u64; 64]);
        assert!(vrf.corrupt_register_write(0));
        let vals = vrf.read_lane_values(0);
        let set: u32 = vals.iter().map(|v| v.count_ones()).sum();
        assert_eq!(set, 1, "exactly one bit of one lane flipped");
        assert_eq!(vrf.take_injected(), 1);
        // Without a model the hook is inert.
        vrf.set_fault_model(None);
        assert!(!vrf.corrupt_register_write(0));
    }

    #[test]
    fn snapshot_restore_roundtrips_storage_and_mask_cache() {
        let mut vrf = BitPlaneVrf::new(100, 2);
        vrf.write_lane_values(0, &[0xabcd; 100]);
        vrf.set_plane_words(Plane::Mask, &[0xff, 0x0]);
        let snap = vrf.snapshot();
        let saved_masks = vrf.mask_lanes();
        vrf.write_lane_values(0, &[0; 100]);
        vrf.fill_plane(Plane::Mask, true);
        vrf.restore(&snap);
        assert_eq!(vrf.read_lane_values(0), vec![0xabcd; 100]);
        assert_eq!(vrf.mask_lanes(), saved_masks);
    }

    #[test]
    fn display_plane_names() {
        assert_eq!(Plane::Reg { reg: 3, bit: 7 }.to_string(), "r3.7");
        assert_eq!(Plane::Scratch(2).to_string(), "s2");
        assert_eq!(Plane::Cond.to_string(), "cond");
        assert_eq!(Plane::Mask.to_string(), "mask");
        assert_eq!(Plane::Const(true).to_string(), "const1");
    }
}
