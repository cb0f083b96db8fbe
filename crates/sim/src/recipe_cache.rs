//! The I2M decoder's template lookup: a recipe cache (paper Fig. 9).
//!
//! The recipe table can only hold a few thousand micro-op templates, so the
//! control path dynamically caches recipes as instructions are issued. We
//! model a capacity-bounded cache keyed by the encoded instruction word
//! (operands included — each entry is a template bound to its registers),
//! with LRU replacement and hit/miss counters. Baseline datapaths decode
//! every instruction from scratch. Each entry is a geometry-specialized
//! [`CompiledRecipe`], so plane-address resolution happens once per
//! template rather than once per executed micro-op.
//!
//! Templates are held behind [`Arc`] so an [`Mpu`](crate::Mpu) is `Send`
//! and chip sweeps can fan out across threads. Every miss resolves through
//! a [`RecipePool`]: a host-side memo of templates, shape forms and block
//! graphs. Concurrent runs may share one, skipping re-deriving the template
//! of an instruction another thread already lowered; a cache given no pool
//! uses a private one. The pool is invisible to the simulated machine —
//! per-MPU hit/miss counters and the miss penalty model the *hardware*
//! template fetch and are charged identically whichever pool serves them,
//! so shared-pool and private-pool runs produce bit-identical statistics.
//!
//! The pool also models the decoder's template table and pointer table. It
//! synthesizes, optimizes and compiles each register-renamed instruction
//! *shape* ([`pum_backend::recipe_shape`]) once per geometry, keeping only
//! the compiled form, and binds each instruction's template by relocating
//! that form to the instruction's registers
//! ([`CompiledRecipe::relocate`]). `QDIV r7,r8,r3` and `QDIV r5,r9,r8`
//! share one optimizer pass and one compile. Renaming commutes with
//! synthesis, optimization and compilation, so every template equals
//! [`DatapathModel::recipe_with_stats`] of its instruction, compiled.

use mpu_isa::{Instruction, OperandError};
use pum_backend::{
    BlockGraph, CompiledRecipe, DatapathModel, Geometry, OptStats, Recipe, RecipeCost, RecipeCtx,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A recipe cache entry: the template compiled for the owning datapath's
/// VRF geometry, and what it costs there. The compiled form is
/// `Arc`-shared with the pool, so cloning an entry is one reference bump.
#[derive(Debug, Clone)]
pub struct CachedRecipe {
    /// The geometry-specialized compiled form executed on the hot path,
    /// with its micro-op count, mix and optimizer savings.
    pub compiled: Arc<CompiledRecipe>,
    /// Cycles and energy per enabled lane, computed once with the
    /// compiled form.
    pub cost: RecipeCost,
}

/// A process-wide memo of compiled templates, shared across concurrent
/// simulations.
///
/// Templates are keyed by `(RecipeCtx, encoded instruction, lanes, regs,
/// bank)`: synthesis is a pure function of the first two, and compilation
/// adds the VRF geometry and the plane-bank width its offsets are laid out
/// for ([`Geometry::bank_vrfs`]), so datapaths that agree on logic family, temporary
/// registers, optimizer configuration, costs *and* geometry (including
/// ablated variants of the same [`pum_backend::DatapathKind`]) reuse each
/// other's work safely — and datapaths that disagree on any of them, say an
/// optimizer flag or bit-pipelining flipped against a warm pool, can never
/// be served each other's templates. Block graphs hold no recipes and key
/// on the laid-out body alone.
///
/// Under the templates sits a memo of shapes keyed the same way by the
/// shape word: a shape's compiled form, its cost (which depends only on
/// the micro-op kinds, so renaming keeps it), and its optimizer
/// attribution. A template miss relocates the shape's form; only a shape
/// miss runs synthesis, the optimizer and the compiler, and the optimized
/// recipe is dropped once compiled. A pool's templates live as long as the
/// pool; its shape memo may outlive it, shared with other pools through
/// [`RecipePool::sharing_shapes`]. Shapes are register-renamed, so the
/// memo holds at most one entry per operation and aliasing pattern for
/// each context and geometry, however many register combinations run.
/// [`RecipePool::preload`] replaces one instruction's template and never
/// the shape other instructions are bound from.
#[derive(Debug, Default)]
pub struct RecipePool {
    templates: RwLock<HashMap<TemplateKey, CachedRecipe>>,
    shapes: Arc<RwLock<HashMap<TemplateKey, Shape>>>,
    preloaded: RwLock<HashMap<(RecipeCtx, u32), Arc<Recipe>>>,
    blocks: RwLock<HashMap<BlockKey, Arc<BlockGraph>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    shape_misses: AtomicU64,
    opt: RwLock<OptStats>,
}

/// Counter snapshot for a [`RecipePool`]: host-side template-memo traffic.
///
/// These are *not* part of the simulated machine's [`crate::Stats`] — the
/// pool is invisible to the modeled hardware, and folding its counters into
/// per-MPU stats would break the pooled ≡ unpooled bit-identity guarantee.
/// They answer the engineering question "how much synthesis did the memo
/// actually save?", and `hits + misses == lookups` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Template probes that resolved to a recipe (control-path
    /// instructions without a recipe are not counted).
    pub lookups: u64,
    /// Probes answered from the memo (or from a preloaded recipe) without
    /// synthesizing.
    pub hits: u64,
    /// Probes that built a new template, by relocating a shape's compiled
    /// form. Under a race both threads count a miss even though one insert
    /// wins — the counter reports work performed, not table growth.
    pub misses: u64,
    /// Template misses whose register-renamed shape was not memoized yet,
    /// in this pool or a pool sharing its shapes: the synthesis, optimizer
    /// and compile passes actually run by this pool (racing threads each
    /// count one, as for `misses`).
    pub shape_misses: u64,
    /// Per-rule recipe-optimizer attribution, merged once per template
    /// miss: what the optimizer bought for each template built, whether
    /// its shape's pass ran now or was memoized.
    pub opt: OptStats,
}

/// A shape's form for one geometry: compiled, costed, and what its
/// optimizer pass did.
#[derive(Debug, Clone)]
struct Shape {
    compiled: Arc<CompiledRecipe>,
    cost: RecipeCost,
    opt: OptStats,
}

/// Memo key for a template or a shape: synthesis context, encoded
/// instruction (or shape), and the VRF layout `(lanes, regs, bank)` it was
/// compiled for.
type TemplateKey = (RecipeCtx, u32, usize, usize, usize);

/// Memo key for a block graph: the encoded laid-out body
/// ([`pum_backend::BodyLayout`]; collision-proof — the words *are* the
/// body, targets rebased so the key is position-independent) and its
/// entry index.
type BlockKey = (Vec<u32>, usize);

fn key(ctx: RecipeCtx, instr: &Instruction, g: &Geometry) -> TemplateKey {
    (ctx, instr.encode(), g.lanes_per_vrf, g.regs_per_vrf, g.bank_vrfs())
}

impl RecipePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty pool that shares `other`'s shape memo: each pool
    /// keeps its own templates and counters, but a shape either one has
    /// compiled is never synthesized again by the other.
    pub fn sharing_shapes(other: &RecipePool) -> Self {
        Self { shapes: Arc::clone(&other.shapes), ..Self::default() }
    }

    /// Returns the template for `instr` compiled for `datapath`'s VRF
    /// geometry, with its cost, memoizing it on first use (`None` for
    /// control-path instructions).
    pub fn get_or_build_compiled(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<CachedRecipe> {
        Some(self.build_compiled(datapath, instr)?.0)
    }

    /// [`Self::get_or_build_compiled`] plus whether the template was
    /// already memoized (`true` = pool hit).
    ///
    /// # Panics
    ///
    /// Panics as direct synthesis and compilation of `instr` would: on
    /// aliased or reserved operands, or on a register the VRF does not
    /// have.
    fn build_compiled(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, bool)> {
        let (ctx, g) = (datapath.recipe_ctx(), datapath.geometry());
        let key = key(ctx, instr, &g);
        if let Some(entry) = read(&self.templates).get(&key) {
            self.count(true);
            return Some((entry.clone(), true));
        }
        let preloaded = read(&self.preloaded).get(&(ctx, key.1)).cloned();
        let (entry, hit) = if let Some(recipe) = preloaded {
            self.count(true);
            let compiled = Arc::new(recipe.compile_for(&g));
            (CachedRecipe { compiled, cost: ctx.recipe_cost(&recipe, g.lanes_per_vrf) }, true)
        } else {
            let shape = pum_backend::recipe_shape(&ctx, instr)?;
            let form = self.get_or_build_shape(datapath, ctx, &shape, &g)?;
            // Counted before binding, which panics on a register the VRF
            // lacks, as compiling the instruction's own recipe would.
            write(&self.opt).merge(&form.opt);
            self.count(false);
            let compiled = if shape == *instr {
                form.compiled
            } else {
                Arc::new(form.compiled.relocate(&shape, instr))
            };
            (CachedRecipe { compiled, cost: form.cost }, false)
        };
        let mut templates = write(&self.templates);
        Some((templates.entry(key).or_insert(entry).clone(), hit))
    }

    /// Counts one template probe that resolved to a recipe.
    fn count(&self, hit: bool) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the compiled form of the register-renamed shape `shape` for
    /// geometry `g`, with its cost and what its optimizer pass did,
    /// synthesizing, optimizing and compiling it on first use (`None` for
    /// control-path instructions).
    fn get_or_build_shape(
        &self,
        datapath: &DatapathModel,
        ctx: RecipeCtx,
        shape: &Instruction,
        g: &Geometry,
    ) -> Option<Shape> {
        let key = key(ctx, shape, g);
        if let Some(form) = read(&self.shapes).get(&key) {
            return Some(form.clone());
        }
        // Synthesize outside the write lock; a racing thread may do the
        // same work, but the first insert wins and both get the same entry.
        let (recipe, opt) = datapath.recipe_with_stats(shape)?;
        self.shape_misses.fetch_add(1, Ordering::Relaxed);
        let form = Shape {
            compiled: Arc::new(recipe.compile_for(g)),
            cost: ctx.recipe_cost(&recipe, g.lanes_per_vrf),
            opt,
        };
        Some(write(&self.shapes).entry(key).or_insert(form).clone())
    }

    /// Returns the [`BlockGraph`] of the ensemble body `body` — the lines
    /// between a `COMPUTE` header and its `COMPUTE_DONE`, with control
    /// targets indexing into `body` — decoding and memoizing it on first
    /// use. It is memoized under the same key as the simulator's own
    /// lookup of that body, so prewarming a pool with it spares the
    /// simulator the decode. A graph holds no recipes, so it serves every
    /// datapath: `_datapath` is unused, kept for existing callers.
    pub fn get_or_fuse_trace(
        &self,
        _datapath: &DatapathModel,
        body: &[Instruction],
    ) -> Arc<BlockGraph> {
        let laid_out: Vec<Instruction> =
            body.iter().copied().chain([Instruction::ComputeDone]).collect();
        self.get_or_decode(&laid_out, 0)
    }

    /// Returns the [`BlockGraph`] of a laid-out body
    /// ([`pum_backend::BodyLayout`]) entered at step `entry`, decoding and
    /// memoizing it on first use. Decoding synthesizes nothing: the
    /// executor resolves each compute step's recipe through its own
    /// template-table probe.
    pub(crate) fn get_or_decode(&self, body: &[Instruction], entry: usize) -> Arc<BlockGraph> {
        let key = (body.iter().map(Instruction::encode).collect(), entry);
        if let Some(graph) = read(&self.blocks).get(&key) {
            return Arc::clone(graph);
        }
        // Decode outside the write lock; a racing thread may duplicate the
        // work, but the first insert wins and both get the same entry.
        let graph = Arc::new(pum_backend::decode_body(body, entry));
        let mut blocks = write(&self.blocks);
        Arc::clone(blocks.entry(key).or_insert(graph))
    }

    /// Snapshot of the pool's lookup counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            shape_misses: self.shape_misses.load(Ordering::Relaxed),
            opt: *read(&self.opt),
        }
    }

    /// Installs an explicit recipe for `(ctx, instr)`, replacing any
    /// memoized template: from now on the instruction's template, on every
    /// geometry, is `recipe` compiled directly.
    ///
    /// This is the conformance harness's fault-injection hook: preloading a
    /// deliberately corrupted recipe (built with
    /// [`pum_backend::Recipe::from_ops`]) makes every pooled MPU execute
    /// the corrupted sequence whether it runs one instruction per block or
    /// in multi-instruction blocks, which the differential suite must then
    /// catch. Preload before any simulation uses the pool.
    pub fn preload(&self, ctx: RecipeCtx, instr: &Instruction, recipe: Recipe) {
        let word = instr.encode();
        write(&self.preloaded).insert((ctx, word), Arc::new(recipe));
        write(&self.templates).retain(|&(c, w, ..), _| !(c == ctx && w == word));
    }

    /// Number of memoized templates.
    pub fn len(&self) -> usize {
        read(&self.templates).len()
    }

    /// True if nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        read(&self.templates).is_empty()
    }
}

/// Shared access to a pool lock. Every critical section is one insert,
/// retain, merge or read, so a thread that panicked while holding the lock
/// (a poisoned job under the service's `catch_unwind`) leaves no half-done
/// update behind. The guard is recovered rather than turning one bad job
/// into a panic on every later one.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to a pool lock, recovering from poisoning as [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Outcome of a [`RecipeCache::lookup`]: the architectural (per-MPU table)
/// hit flag plus, when a miss consulted a caller-shared [`RecipePool`],
/// whether the pool already held the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupOutcome {
    /// Per-MPU table hit (the flag [`RecipeCache::lookup`] reports).
    pub hit: bool,
    /// Pool-template outcome; `None` on a hit or without a shared pool.
    pub pool: Option<bool>,
}

/// The architectural slice of a [`RecipeCache`] captured by
/// [`RecipeCache::checkpoint`]: template entries with their LRU stamps,
/// the synthesis context, and the hit/miss/clock counters. Part of an
/// [`crate::MpuCheckpoint`] — resuming with a cold cache would change the
/// miss stream and break byte-identical resume.
#[derive(Debug, Clone)]
pub(crate) struct CacheCheckpoint {
    entries: Vec<(u32, CachedRecipe, u64)>,
    ctx: Option<RecipeCtx>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A bounded LRU cache of synthesized recipes (with their compiled forms).
#[derive(Debug)]
pub struct RecipeCache {
    capacity: usize,
    entries: HashMap<u32, (CachedRecipe, u64)>,
    /// The host-side memo every miss and every decode resolves through:
    /// the caller's shared pool, or a private one. Its memos are keyed by
    /// everything their values read, so they never need flushing.
    pool: Arc<RecipePool>,
    /// True when `pool` was shared by the caller. Only then does a miss
    /// report its pool outcome ([`LookupOutcome::pool`]).
    shared: bool,
    /// The synthesis context ([`RecipeCtx`]: family, temp registers,
    /// optimizer config, costs) every cached entry was lowered under. The
    /// per-MPU table is keyed by instruction word alone, so if the owning
    /// datapath's context ever changes — e.g. the recipe optimizer is
    /// toggled against a warm cache — the table is
    /// flushed rather than serving entries from the stale context.
    ctx: Option<RecipeCtx>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RecipeCache {
    /// Creates a cache with room for `capacity` recipes (Table III: 1024)
    /// whose misses resolve through a private [`RecipePool`].
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, Arc::new(RecipePool::new()), false)
    }

    /// Like [`Self::new`], but misses resolve through the shared `pool`.
    /// Purely a host-side optimization — hit/miss accounting is unchanged.
    pub fn with_pool(capacity: usize, pool: Arc<RecipePool>) -> Self {
        Self::build(capacity, pool, true)
    }

    fn build(capacity: usize, pool: Arc<RecipePool>, shared: bool) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            pool,
            shared,
            ctx: None,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up (or synthesizes, compiles, and caches) the recipe for
    /// `instr`, reporting whether it was a hit. Returns `None` for
    /// control-path instructions that have no recipe.
    ///
    /// # Panics
    ///
    /// Panics on operands the datapath cannot run
    /// ([`DatapathModel::operand_error`]): on a register the VRF does not
    /// have with the text compiling the recipe would give.
    pub fn lookup(
        &mut self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, bool)> {
        let found = self.lookup_traced(datapath, instr).unwrap_or_else(|error| match error {
            OperandError::OutOfRange(reg) => {
                let regs = datapath.geometry().regs_per_vrf;
                panic!("register {} out of range (VRF has {regs})", reg.0)
            }
            error => panic!("`{instr}`: {error}"),
        });
        found.map(|(entry, outcome)| (entry, outcome.hit))
    }

    /// Flushes every cached entry if `datapath`'s
    /// synthesis context differs from the one the cache was warmed under.
    /// Hit/miss counters and the LRU clock keep running — the flush models
    /// a table invalidation, not a fresh table.
    fn refresh_ctx(&mut self, datapath: &DatapathModel) {
        let ctx = datapath.recipe_ctx();
        if self.ctx != Some(ctx) {
            if self.ctx.is_some() {
                self.entries.clear();
            }
            self.ctx = Some(ctx);
        }
    }

    /// [`Self::lookup`] plus, on a per-MPU miss that consulted a shared
    /// [`RecipePool`], whether the pool already had the template. Used by
    /// the tracing layer; architectural accounting is identical.
    ///
    /// A miss on an instruction whose operands the datapath cannot run
    /// ([`DatapathModel::operand_error`]) returns why, touching no
    /// counter. A template never enters the table with such operands, so a
    /// hit needs no check.
    pub(crate) fn lookup_traced(
        &mut self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Result<Option<(CachedRecipe, LookupOutcome)>, OperandError> {
        self.refresh_ctx(datapath);
        let key = instr.encode();
        if let Some((entry, stamp)) = self.entries.get_mut(&key) {
            // The LRU clock only advances on lookups that actually touch
            // the table; recipe-less control instructions don't age entries.
            self.tick += 1;
            *stamp = self.tick;
            self.hits += 1;
            return Ok(Some((entry.clone(), LookupOutcome { hit: true, pool: None })));
        }
        if let Some(error) = datapath.operand_error(instr) {
            return Err(error);
        }
        let Some((entry, template_hit)) = self.pool.build_compiled(datapath, instr) else {
            return Ok(None);
        };
        let pool = self.shared.then_some(template_hit);
        self.tick += 1;
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            // Evict the least recently used template.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, (_, stamp))| *stamp) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (entry.clone(), self.tick));
        Ok(Some((entry, LookupOutcome { hit: false, pool })))
    }

    /// Returns the [`BlockGraph`] of a laid-out ensemble body entered at
    /// step `entry` from the pool's memo. Host-side only: never touches
    /// the architectural hit/miss/LRU state — the executor performs the
    /// real per-step [`Self::lookup_traced`] probes.
    pub(crate) fn lookup_blocks(&self, body: &[Instruction], entry: usize) -> Arc<BlockGraph> {
        self.pool.get_or_decode(body, entry)
    }

    /// Snapshots the *architectural* cache state: the template table with
    /// its LRU stamps, the synthesis context, and the hit/miss/clock
    /// counters. The host-side pool is deliberately excluded — it is
    /// invisible to the modeled hardware; it stays with the machine, not
    /// the checkpoint. Entries are `Arc`-shared, so a snapshot is cheap.
    pub(crate) fn checkpoint(&self) -> CacheCheckpoint {
        CacheCheckpoint {
            entries: self.entries.iter().map(|(&k, (e, s))| (k, e.clone(), *s)).collect(),
            ctx: self.ctx,
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores the architectural state captured by [`Self::checkpoint`].
    /// A machine resumed from a checkpoint must replay the same hit/miss
    /// stream (and thus the same miss-penalty cycles) an uninterrupted run
    /// would have seen, so the table contents, LRU stamps, and counters
    /// all come back; capacity and the pool are left as-is.
    pub(crate) fn restore_checkpoint(&mut self, cp: &CacheCheckpoint) {
        self.entries = cp.entries.iter().map(|(k, e, s)| (*k, (e.clone(), *s))).collect();
        self.ctx = cp.ctx;
        self.tick = cp.tick;
        self.hits = cp.hits;
        self.misses = cp.misses;
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lookups that touched the table (`hits + misses`); recipe-less
    /// control instructions are excluded.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::{BinaryOp, RegId};

    fn add(rd: u16) -> Instruction {
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(rd) }
    }

    #[test]
    fn second_lookup_hits() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_operands_are_different_templates() {
        // The cached entry is bound to its operands, so ADD r0 r1 r2 and
        // ADD r0 r1 r3 occupy separate slots.
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        cache.lookup(&dp, &add(2)).unwrap();
        let (_, hit) = cache.lookup(&dp, &add(3)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(2);
        cache.lookup(&dp, &add(2)).unwrap();
        cache.lookup(&dp, &add(3)).unwrap();
        cache.lookup(&dp, &add(2)).unwrap(); // refresh r2
        cache.lookup(&dp, &add(4)).unwrap(); // evicts r3
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(hit, "recently used entry survived");
        let (_, hit) = cache.lookup(&dp, &add(3)).unwrap();
        assert!(!hit, "LRU entry was evicted");
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(2);
        for rd in 2..8 {
            cache.lookup(&dp, &add(rd)).unwrap();
            assert!(cache.len() <= 2, "len {} exceeds capacity", cache.len());
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 6);
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(1);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(hit, "sole entry is retained");
        let (_, hit) = cache.lookup(&dp, &add(3)).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1, "capacity-1 cache holds exactly one entry");
        let (_, hit) = cache.lookup(&dp, &add(2)).unwrap();
        assert!(!hit, "previous entry was evicted by the new one");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn repeated_key_refreshes_without_growth() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        for _ in 0..10 {
            cache.lookup(&dp, &add(2)).unwrap();
        }
        assert_eq!(cache.len(), 1, "repeated key must not duplicate entries");
        assert_eq!(cache.hits(), 9);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn tick_counts_only_real_lookups() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        cache.lookup(&dp, &add(2)).unwrap();
        // Control instructions have no recipe and must not advance the
        // LRU clock (they would otherwise skew recency stamps).
        assert!(cache.lookup(&dp, &Instruction::Nop).is_none());
        assert!(cache.lookup(&dp, &Instruction::Nop).is_none());
        cache.lookup(&dp, &add(2)).unwrap();
        assert_eq!(cache.tick(), cache.hits() + cache.misses());
        assert_eq!(cache.tick(), 2);
    }

    #[test]
    fn control_instructions_have_no_recipe() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(2);
        assert!(cache.lookup(&dp, &Instruction::Nop).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn pool_is_shared_and_transparent() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());

        let mut pooled = RecipeCache::with_pool(4, Arc::clone(&pool));
        let mut plain = RecipeCache::new(4);

        let (pr, ph) = pooled.lookup(&dp, &add(2)).unwrap();
        let (sr, sh) = plain.lookup(&dp, &add(2)).unwrap();
        assert!(*pr.compiled == *sr.compiled, "pooled synthesis yields the same template");
        assert_eq!(ph, sh, "pool must not alter hit/miss behavior");
        assert_eq!(pool.len(), 1);

        // A second cache on the same pool reuses the memo but still counts
        // its own (hardware) miss.
        let mut second = RecipeCache::with_pool(4, Arc::clone(&pool));
        let (_, hit) = second.lookup(&dp, &add(2)).unwrap();
        assert!(!hit, "per-MPU miss is charged even on a pool hit");
        assert_eq!(pool.len(), 1, "no duplicate pool entries");
    }

    #[test]
    fn compiled_forms_are_pooled_per_geometry() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        let a = pool.get_or_build_compiled(&dp, &add(2)).unwrap();
        let b = pool.get_or_build_compiled(&dp, &add(2)).unwrap();
        assert!(Arc::ptr_eq(&a.compiled, &b.compiled), "compiled memo is shared");
        let g = dp.geometry();
        assert_eq!(a.compiled.lanes(), g.lanes_per_vrf);
        assert_eq!(a.compiled.regs(), g.regs_per_vrf);
        assert_eq!(a.compiled.len(), dp.recipe(&add(2)).unwrap().len());
    }

    #[test]
    fn pool_counters_track_memo_traffic() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        assert_eq!(pool.stats(), PoolStats::default());

        pool.get_or_build_compiled(&dp, &add(2)).unwrap();
        pool.get_or_build_compiled(&dp, &add(2)).unwrap();
        pool.get_or_build_compiled(&dp, &add(3)).unwrap();
        // Control instructions never reach the memo and are not counted.
        assert!(pool.get_or_build_compiled(&dp, &Instruction::Nop).is_none());

        let s = pool.stats();
        assert_eq!(s, PoolStats { lookups: 3, hits: 1, misses: 2, shape_misses: 1, opt: s.opt });
        assert_eq!(s.hits + s.misses, s.lookups);
        // Each miss paid one optimizer pass; RACER ADD is known to shrink.
        assert!(s.opt.saved_uops() > 0, "pool misses accumulate optimizer savings");
        assert!(s.opt.total_fires() > 0, "per-rule fire counts accumulate");
    }

    fn reg3(op: BinaryOp, rs: u16, rt: u16, rd: u16) -> Instruction {
        Instruction::Binary { op, rs: RegId(rs), rt: RegId(rt), rd: RegId(rd) }
    }

    /// `instr`'s own recipe on `dp`, compiled for its geometry.
    fn direct(dp: &DatapathModel, instr: &Instruction) -> CompiledRecipe {
        let g = dp.geometry();
        dp.recipe(instr).unwrap().compile_for(&g)
    }

    #[test]
    fn renamed_registers_share_one_optimizer_pass() {
        let dp = DatapathModel::racer();
        let pool = RecipePool::new();
        let (a, b) = (reg3(BinaryOp::QDiv, 7, 8, 3), reg3(BinaryOp::QDiv, 5, 9, 8));
        let ca = pool.get_or_build_compiled(&dp, &a).unwrap().compiled;
        let cb = pool.get_or_build_compiled(&dp, &b).unwrap().compiled;
        let s = pool.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.shape_misses), (2, 0, 2, 1));
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(pool.len(), 2, "each instruction keeps its own template");
        assert!(*ca == direct(&dp, &a) && *cb == direct(&dp, &b), "relocated = direct compile");
        let (_, opt_a) = dp.recipe_with_stats(&a).unwrap();
        let (_, opt_b) = dp.recipe_with_stats(&b).unwrap();
        let mut both = opt_a;
        both.merge(&opt_b);
        assert_eq!(s.opt, both, "optimizer attribution is merged once per template");
    }

    #[test]
    fn pools_sharing_shapes_synthesize_each_shape_once() {
        let dp = DatapathModel::racer();
        let first = RecipePool::new();
        first.get_or_build_compiled(&dp, &reg3(BinaryOp::Mul, 1, 2, 3)).unwrap();
        let second = RecipePool::sharing_shapes(&first);
        let got = second.get_or_build_compiled(&dp, &reg3(BinaryOp::Mul, 4, 5, 6)).unwrap();
        assert!(*got.compiled == direct(&dp, &reg3(BinaryOp::Mul, 4, 5, 6)));
        let s = second.stats();
        assert_eq!((s.lookups, s.misses, s.shape_misses), (1, 1, 0), "the shape was shared");
        assert_eq!((first.len(), second.len()), (1, 1), "templates stay per pool");
        // A shape first compiled through the second pool serves the first.
        second.get_or_build_compiled(&dp, &add(7)).unwrap();
        first.get_or_build_compiled(&dp, &add(8)).unwrap();
        assert_eq!(first.stats().shape_misses, 1);
        assert_eq!(second.stats().shape_misses, 1);
    }

    #[test]
    fn an_instruction_in_shape_form_shares_the_shape_template() {
        let dp = DatapathModel::racer();
        let pool = RecipePool::new();
        // `ADD r0 r1 r2` is its own shape; `ADD r0 r1 r3` binds rd anew.
        let shape = pool.get_or_build_compiled(&dp, &add(2)).unwrap().compiled;
        let bound = pool.get_or_build_compiled(&dp, &add(3)).unwrap().compiled;
        assert!(Arc::ptr_eq(&shape, &read(&pool.shapes).values().next().unwrap().compiled));
        assert!(!Arc::ptr_eq(&shape, &bound));
        assert!(*bound == direct(&dp, &add(3)));
    }

    #[test]
    fn an_out_of_range_operand_misses_without_counting() {
        let dp = DatapathModel::racer();
        assert_eq!(dp.geometry().regs_per_vrf, 16);
        let mut cache = RecipeCache::new(4);
        let bad = reg3(BinaryOp::Add, 0, 1, 16);
        assert!(matches!(cache.lookup_traced(&dp, &bad), Err(OperandError::OutOfRange(RegId(16)))));
        assert_eq!((cache.tick(), cache.hits(), cache.misses(), cache.len()), (0, 0, 0, 0));
        // `lookup` panics with the text compiling the recipe would give.
        let lookup = std::panic::AssertUnwindSafe(|| cache.lookup(&dp, &bad));
        let payload = std::panic::catch_unwind(lookup).unwrap_err();
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("register 16 out of range (VRF has 16)"));
    }

    #[test]
    fn illegal_operands_miss_without_counting() {
        let dp = DatapathModel::racer();
        let mut cache = RecipeCache::new(4);
        for (bad, want) in [
            (reg3(BinaryOp::Mul, 3, 3, 3), OperandError::AliasedDestination(RegId(3))),
            (reg3(BinaryOp::QDiv, 15, 1, 2), OperandError::ReservedTemp(RegId(15))),
        ] {
            assert_eq!(cache.lookup_traced(&dp, &bad).err(), Some(want), "{bad}");
        }
        assert_eq!((cache.tick(), cache.hits(), cache.misses(), cache.len()), (0, 0, 0, 0));
        // The word-serial DPU reserves no temporaries.
        let divide = reg3(BinaryOp::QDiv, 15, 1, 2);
        assert!(cache.lookup_traced(&DatapathModel::dpu(), &divide).is_ok());
    }

    #[test]
    fn preload_replaces_one_template_and_never_its_shape() {
        let dp = DatapathModel::racer();
        let (target, sibling) = (reg3(BinaryOp::Add, 1, 2, 3), reg3(BinaryOp::Add, 4, 5, 6));
        let corrupt = || {
            Recipe::from_ops(vec![pum_backend::MicroOp::Set {
                out: pum_backend::Plane::Reg { reg: 3, bit: 0 },
                value: true,
            }])
        };
        let g = dp.geometry();
        // Built before the preload: nothing (the shape is memoized after
        // it), another instruction of the shape, or the target's own
        // template, which the preload then evicts.
        for before in [None, Some(reg3(BinaryOp::Add, 9, 10, 11)), Some(target)] {
            let pool = RecipePool::new();
            if let Some(instr) = before {
                pool.get_or_build_compiled(&dp, &instr).unwrap();
            }
            pool.preload(dp.recipe_ctx(), &target, corrupt());
            let got = pool.get_or_build_compiled(&dp, &sibling).unwrap();
            assert!(*got.compiled == direct(&dp, &sibling), "built first: {before:?}");
            let preloaded = pool.get_or_build_compiled(&dp, &target).unwrap();
            let want = corrupt().compile_for(&g);
            assert!(*preloaded.compiled == want, "the preloaded recipe is served");
            assert_eq!(preloaded.cost, dp.recipe_cost(&corrupt()));
            assert_eq!(pool.stats().shape_misses, 1);
        }
    }

    #[test]
    fn opt_config_is_part_of_the_pool_memo_key() {
        // Flipping the optimizer against a warm pool must synthesize a
        // fresh (unoptimized) template, never serve the optimized one.
        let on = DatapathModel::racer();
        let off = DatapathModel::racer().with_opt_config(pum_backend::OptConfig::disabled());
        let pool = Arc::new(RecipePool::new());

        let optimized = pool.get_or_build_compiled(&on, &add(2)).unwrap().compiled;
        let plain = pool.get_or_build_compiled(&off, &add(2)).unwrap().compiled;
        assert_eq!(pool.len(), 2, "distinct opt configs occupy distinct pool slots");
        assert_eq!(pool.stats().misses, 2, "the flipped config cannot hit the warm memo");
        assert!(
            optimized.len() < plain.len(),
            "optimized template ({}) should be shorter than unoptimized ({})",
            optimized.len(),
            plain.len()
        );
        assert_eq!(plain.saved_uops(), 0, "disabled optimizer records no savings");
        assert_eq!(optimized.saved_uops() as usize, plain.len() - optimized.len());
    }

    #[test]
    fn bit_pipelining_is_part_of_the_compiled_key() {
        // Two datapaths that differ only in bit-pipelining synthesize the
        // same recipes; a pool keyed without it served the first one's
        // stage times to the second.
        let build = |pipelined: bool| {
            let dp = pum_backend::DatapathBuilder::new("NOR", pum_backend::LogicFamily::Nor)
                .uop(pum_backend::MicroOpKind::Nor, 2, 0.020)
                .uop(pum_backend::MicroOpKind::Copy, 2, 0.025)
                .uop(pum_backend::MicroOpKind::Set, 2, 0.012);
            if pipelined { dp.bit_pipelined(64) } else { dp }.build()
        };
        let pool = RecipePool::new();
        let (piped, serial) = (build(true), build(false));
        let cost = |dp: &DatapathModel| pool.get_or_build_compiled(dp, &add(3)).unwrap().cost;
        let (piped, serial) = (cost(&piped), cost(&serial));
        assert_eq!(piped.cycles, serial.cycles, "a cold pipeline pays serial latency");
        assert!(piped.stage_cycles < serial.stage_cycles, "only the bit-pipelined one overlaps");
        assert_eq!(pool.len(), 2, "each datapath keeps its own template");
    }

    #[test]
    fn cache_flushes_when_synthesis_context_changes() {
        // The per-MPU table is keyed by instruction word alone, so toggling
        // the optimizer against a warm cache must invalidate it.
        let on = DatapathModel::racer();
        let off = DatapathModel::racer().with_opt_config(pum_backend::OptConfig::disabled());
        let mut cache = RecipeCache::new(4);

        let (warm, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(!hit);
        let (_, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(hit, "same context keeps hitting");

        let (fresh, hit) = cache.lookup(&off, &add(2)).unwrap();
        assert!(!hit, "context change flushes the warm entry");
        assert!(
            warm.compiled.len() < fresh.compiled.len(),
            "the flushed lookup resynthesizes under the new context"
        );

        let (back, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(!hit, "flipping back flushes again");
        assert_eq!(back.compiled.len(), warm.compiled.len());
    }

    #[test]
    fn decoding_a_body_synthesizes_nothing() {
        // A graph holds no recipes: decoding leaves the template memo and
        // its counters to the executed probes, and one graph serves every
        // datapath.
        let pool = Arc::new(RecipePool::new());
        let graph = pool.get_or_fuse_trace(&DatapathModel::racer(), &[add(2), add(2)]);
        assert_eq!((pool.len(), pool.stats().lookups), (0, 0));
        assert!(Arc::ptr_eq(
            &graph,
            &pool.get_or_fuse_trace(&DatapathModel::dpu(), &[add(2), add(2)])
        ));
        let mut cache = RecipeCache::with_pool(4, Arc::clone(&pool));
        let (_, o) = cache.lookup_traced(&DatapathModel::racer(), &add(2)).unwrap().unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(false) });
        let s = pool.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (1, 0, 1));
    }

    #[test]
    fn traced_lookup_reports_pool_outcome() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        let mut first = RecipeCache::with_pool(4, Arc::clone(&pool));

        let (_, o) = first.lookup_traced(&dp, &add(2)).unwrap().unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(false) });
        let (_, o) = first.lookup_traced(&dp, &add(2)).unwrap().unwrap();
        assert_eq!(o, LookupOutcome { hit: true, pool: None });

        // A second MPU on the same pool misses locally but hits the memo.
        let mut second = RecipeCache::with_pool(4, Arc::clone(&pool));
        let (_, o) = second.lookup_traced(&dp, &add(2)).unwrap().unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(true) });

        // A private pool's outcome is not reported.
        let mut plain = RecipeCache::new(4);
        let (_, o) = plain.lookup_traced(&dp, &add(2)).unwrap().unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: None });
    }

    #[test]
    fn pool_is_safe_across_threads() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let dp = dp.clone();
                s.spawn(move || {
                    let mut cache = RecipeCache::with_pool(8, pool);
                    for rd in 2..6 {
                        cache.lookup(&dp, &add(rd)).unwrap();
                    }
                });
            }
        });
        assert_eq!(pool.len(), 4, "one entry per distinct instruction");
        let s = pool.stats();
        assert_eq!(s.lookups, 16, "4 threads x 4 instructions");
        assert_eq!(s.hits + s.misses, s.lookups, "counters are conserved under races");
        assert!(s.misses >= 4, "each distinct template was synthesized at least once");
    }

    #[test]
    fn pool_survives_a_panic_under_its_locks() {
        // A service job that panics mid-lookup poisons the shared pool's
        // locks; every later job on the same pool must still be served.
        let dp = DatapathModel::racer();
        let pool = RecipePool::new();
        let before = pool.get_or_build_compiled(&dp, &add(2)).unwrap().compiled;
        let stats = pool.stats();
        std::thread::scope(|s| {
            let crashed = s
                .spawn(|| {
                    let _guards = (
                        write(&pool.templates),
                        write(&*pool.shapes),
                        write(&pool.preloaded),
                        write(&pool.blocks),
                        write(&pool.opt),
                    );
                    panic!("job panicked while holding the pool's write locks");
                })
                .join();
            assert!(crashed.is_err());
        });
        assert!(
            pool.templates.is_poisoned() && pool.shapes.is_poisoned() && pool.opt.is_poisoned()
        );

        let after = pool.get_or_build_compiled(&dp, &add(2)).unwrap().compiled;
        assert!(Arc::ptr_eq(&before, &after), "the memoized template is still served");
        assert_eq!(pool.stats().hits, stats.hits + 1);
        assert_eq!(pool.stats().opt, stats.opt);
        assert_eq!(pool.len(), 1);
        assert!(pool.get_or_build_compiled(&dp, &add(3)).is_some());
        assert_eq!(pool.get_or_fuse_trace(&dp, &[add(2), add(3)]).steps().len(), 4);
        assert_eq!(pool.len(), 2);
    }
}
