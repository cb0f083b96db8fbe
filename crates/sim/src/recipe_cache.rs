//! The I2M decoder's template lookup: a recipe cache (paper Fig. 9).
//!
//! The recipe table can only hold a few thousand micro-op templates, so the
//! control path dynamically caches recipes as instructions are issued. We
//! model a capacity-bounded cache keyed by the encoded instruction word
//! (operands included — the template filler's work is folded into the
//! cached entry), with LRU replacement and hit/miss counters. Baseline
//! datapaths decode every instruction from scratch. Each entry carries
//! both the synthesized micro-op sequence and its geometry-specialized
//! [`CompiledRecipe`], so plane-address resolution happens once per
//! template rather than once per executed micro-op.
//!
//! Recipes are held behind [`Arc`] so an [`Mpu`](crate::Mpu) is `Send` and
//! chip sweeps can fan out across threads. Every miss resolves through a
//! [`RecipePool`]: a host-side memo of templates, compiled forms and fused
//! traces. Concurrent runs may share one, skipping re-deriving the micro-op
//! sequence for an instruction another thread already lowered; a cache
//! given no pool uses a private one. The pool is invisible to the
//! simulated machine — per-MPU hit/miss counters and the miss penalty
//! model the *hardware* template fetch and are charged identically
//! whichever pool serves them, so shared-pool and private-pool runs
//! produce bit-identical statistics.

use mpu_isa::Instruction;
use pum_backend::{
    CompiledRecipe, DatapathModel, EnsembleTrace, OptStats, Recipe, RecipeCost, RecipeCtx,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A recipe cache entry: the synthesized micro-op sequence, its
/// pre-compiled form (plane addresses resolved for the owning datapath's
/// VRF geometry), and what it costs there. The first two are `Arc`-shared
/// with the pool, so cloning an entry is two reference bumps.
#[derive(Debug, Clone)]
pub struct CachedRecipe {
    /// The synthesized micro-op sequence (micro-op counts, display).
    pub recipe: Arc<Recipe>,
    /// The geometry-specialized compiled form executed on the hot path.
    pub compiled: Arc<CompiledRecipe>,
    /// Cycles and energy per enabled lane, computed once with the
    /// compiled form.
    pub cost: RecipeCost,
}

/// A process-wide memo of synthesized recipes, shared across concurrent
/// simulations.
///
/// Recipe templates are keyed by `(RecipeCtx, encoded instruction)`:
/// synthesis is a pure function of that pair, so datapaths that agree on
/// logic family, temporary registers, optimizer configuration *and costs*
/// (including ablated variants of the same
/// [`pum_backend::DatapathKind`]) reuse each other's work safely — and
/// datapaths that disagree on any of them, say an optimizer flag or
/// bit-pipelining flipped against a warm pool, can never be served each
/// other's templates. Compiled forms and fused traces additionally key on
/// the VRF geometry `(lanes, regs)` they were resolved for, so every key
/// covers everything its value reads.
#[derive(Debug, Default)]
pub struct RecipePool {
    templates: RwLock<HashMap<(RecipeCtx, u32), Arc<Recipe>>>,
    compiled: RwLock<HashMap<CompiledKey, (Arc<CompiledRecipe>, RecipeCost)>>,
    traces: RwLock<HashMap<TraceKey, Arc<EnsembleTrace>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
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
    /// Probes answered from the memo without synthesizing.
    pub hits: u64,
    /// Probes that synthesized a new template. Under a synthesis race both
    /// threads count a miss even though one insert wins — the counter
    /// reports work performed, not table growth.
    pub misses: u64,
    /// Per-rule recipe-optimizer attribution accumulated over every
    /// synthesis this pool performed (counted or not): each template miss
    /// pays one optimizer pass, and this records what that pass bought.
    pub opt: OptStats,
}

/// Memo key for a compiled form and its cost: synthesis context, encoded
/// instruction, and the VRF geometry `(lanes, regs)` it was resolved for.
type CompiledKey = (RecipeCtx, u32, usize, usize);

/// Memo key for a fused ensemble trace: synthesis context, the encoded
/// ensemble body (collision-proof — the words *are* the body), and the
/// VRF geometry `(lanes, regs)` it was fused for.
type TraceKey = (RecipeCtx, Vec<u32>, usize, usize);

impl RecipePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the template for `instr` on `datapath`, synthesizing and
    /// memoizing it on first use (`None` for control-path instructions),
    /// plus whether it was already memoized (`true` = pool hit). When
    /// `count` is false the probe is left out of the traffic counters
    /// (used by trace fusion, whose probes are one-time and amortized
    /// behind the trace memo — counting them would make pool statistics
    /// depend on memo warmth rather than on the executed instruction
    /// stream).
    fn get_or_build_inner(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
        count: bool,
    ) -> Option<(Arc<Recipe>, bool)> {
        let key = (datapath.recipe_ctx(), instr.encode());
        if let Some(recipe) = read(&self.templates).get(&key) {
            if count {
                self.lookups.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some((Arc::clone(recipe), true));
        }
        // Synthesize outside the write lock; a racing thread may do the
        // same work, but the first insert wins and both get the same entry.
        let (recipe, opt) = datapath.recipe_with_stats(instr)?;
        let recipe = Arc::new(recipe);
        write(&self.opt).merge(&opt);
        if count {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut templates = write(&self.templates);
        Some((Arc::clone(templates.entry(key).or_insert(recipe)), false))
    }

    /// Returns the recipe for `instr` together with its compiled form for
    /// `datapath`'s VRF geometry, memoizing both on first use.
    pub fn get_or_build_compiled(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<CachedRecipe> {
        Some(self.build_compiled(datapath, instr, true)?.0)
    }

    /// [`Self::get_or_build_compiled`] plus whether the *template* was a
    /// pool hit (compiled-form memoization is not separately counted);
    /// `count` selects whether the template probe enters the pool's
    /// traffic counters.
    fn build_compiled(
        &self,
        datapath: &DatapathModel,
        instr: &Instruction,
        count: bool,
    ) -> Option<(CachedRecipe, bool)> {
        let (recipe, template_hit) = self.get_or_build_inner(datapath, instr, count)?;
        let g = datapath.geometry();
        let key = (datapath.recipe_ctx(), instr.encode(), g.lanes_per_vrf, g.regs_per_vrf);
        if let Some((compiled, cost)) = read(&self.compiled).get(&key) {
            let entry = CachedRecipe { recipe, compiled: Arc::clone(compiled), cost: *cost };
            return Some((entry, template_hit));
        }
        let compiled = Arc::new(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
        let cost = key.0.recipe_cost(&recipe, g.lanes_per_vrf);
        let mut map = write(&self.compiled);
        let (compiled, cost) = map.entry(key).or_insert((compiled, cost));
        Some((CachedRecipe { recipe, compiled: Arc::clone(compiled), cost: *cost }, template_hit))
    }

    /// Returns the fused [`EnsembleTrace`] for a straight-line ensemble
    /// body on `datapath`, fusing and memoizing it on first use. Recipes
    /// are resolved through the pool's template *and* compiled memos, so
    /// fusion never re-synthesizes or re-compiles work the pool already
    /// holds — and a preloaded, possibly deliberately corrupted, template
    /// reaches the trace tier exactly as it reaches the per-instruction
    /// tiers. Fusion probes stay out of the pool's traffic counters: they
    /// are one-time (amortized behind this trace memo), so counting them
    /// would make [`Self::stats`] depend on memo warmth instead of the
    /// executed instruction stream. `None` when the body contains an
    /// instruction the trace tier cannot fuse.
    pub fn get_or_fuse_trace(
        &self,
        datapath: &DatapathModel,
        body: &[Instruction],
    ) -> Option<Arc<EnsembleTrace>> {
        let g = datapath.geometry();
        let words: Vec<u32> = body.iter().map(Instruction::encode).collect();
        let key = (datapath.recipe_ctx(), words, g.lanes_per_vrf, g.regs_per_vrf);
        if let Some(trace) = read(&self.traces).get(&key) {
            return Some(Arc::clone(trace));
        }
        // Fuse outside the write lock; a racing thread may duplicate the
        // work, but the first insert wins and both get the same entry.
        let trace = Arc::new(pum_backend::fuse_ensemble_with(datapath, body, |dp, instr| {
            let (entry, _) = self.build_compiled(dp, instr, false)?;
            Some((entry.recipe, entry.compiled, entry.cost))
        })?);
        let mut traces = write(&self.traces);
        Some(Arc::clone(traces.entry(key).or_insert(trace)))
    }

    /// Snapshot of the pool's lookup counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            opt: *read(&self.opt),
        }
    }

    /// Installs an explicit template for `(ctx, instr)`, replacing any
    /// memoized one and dropping stale compiled forms derived from it.
    ///
    /// This is the conformance harness's fault-injection hook: preloading a
    /// deliberately corrupted recipe (built with
    /// [`pum_backend::Recipe::from_ops`]) makes every pooled MPU execute
    /// the corrupted sequence on both the compiled and fused tiers, which
    /// the differential suite must then catch. Preload before any
    /// simulation uses the pool.
    pub fn preload(&self, ctx: RecipeCtx, instr: &Instruction, recipe: Recipe) {
        let word = instr.encode();
        write(&self.templates).insert((ctx, word), Arc::new(recipe));
        write(&self.compiled).retain(|&(c, w, _, _), _| !(c == ctx && w == word));
        // Fused traces bake the instruction's compiled ops in; drop any
        // derived from the replaced template.
        write(&self.traces).retain(|(c, words, _, _), _| !(*c == ctx && words.contains(&word)));
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
    /// The host-side memo every miss and every fusion resolves through:
    /// the caller's shared pool, or a private one. Its memos are keyed by
    /// synthesis context, so they never need flushing.
    pool: Arc<RecipePool>,
    /// True when `pool` was shared by the caller. Only then does a miss
    /// report its pool outcome ([`LookupOutcome::pool`]).
    shared: bool,
    /// Fused ensemble traces keyed by the encoded body. Host-side only —
    /// distinct from the architectural template table above: trace lookups
    /// never advance the LRU clock or the hit/miss counters, exactly as
    /// the [`RecipePool`] never does. Bodies per program are few, so the
    /// memo is unbounded. `None` memoizes a body that failed to fuse.
    traces: HashMap<Vec<u32>, Option<Arc<EnsembleTrace>>>,
    /// The synthesis context ([`RecipeCtx`]: family, temp registers,
    /// optimizer config, costs) every cached entry was lowered under. The
    /// per-MPU table is keyed by instruction word alone, so if the owning
    /// datapath's context ever changes — e.g. the recipe optimizer is
    /// toggled against a warm cache — the table and the trace memo are
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
            traces: HashMap::new(),
            ctx: None,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up (or synthesizes, compiles, and caches) the recipe for
    /// `instr`, reporting whether it was a hit. Returns `None` for
    /// control-path instructions that have no recipe.
    pub fn lookup(
        &mut self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, bool)> {
        let (entry, outcome) = self.lookup_traced(datapath, instr)?;
        Some((entry, outcome.hit))
    }

    /// Flushes every cached entry and the trace memo if `datapath`'s
    /// synthesis context differs from the one the cache was warmed under.
    /// Hit/miss counters and the LRU clock keep running — the flush models
    /// a table invalidation, not a fresh table.
    fn refresh_ctx(&mut self, datapath: &DatapathModel) {
        let ctx = datapath.recipe_ctx();
        if self.ctx != Some(ctx) {
            if self.ctx.is_some() {
                self.entries.clear();
                self.traces.clear();
            }
            self.ctx = Some(ctx);
        }
    }

    /// [`Self::lookup`] plus, on a per-MPU miss that consulted a shared
    /// [`RecipePool`], whether the pool already had the template. Used by
    /// the tracing layer; architectural accounting is identical.
    pub(crate) fn lookup_traced(
        &mut self,
        datapath: &DatapathModel,
        instr: &Instruction,
    ) -> Option<(CachedRecipe, LookupOutcome)> {
        self.refresh_ctx(datapath);
        let key = instr.encode();
        if let Some((entry, stamp)) = self.entries.get_mut(&key) {
            // The LRU clock only advances on lookups that actually touch
            // the table; recipe-less control instructions don't age entries.
            self.tick += 1;
            *stamp = self.tick;
            self.hits += 1;
            return Some((entry.clone(), LookupOutcome { hit: true, pool: None }));
        }
        let (entry, template_hit) = self.pool.build_compiled(datapath, instr, true)?;
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
        Some((entry, LookupOutcome { hit: false, pool }))
    }

    /// Returns the fused [`EnsembleTrace`] for a straight-line ensemble
    /// body, fusing (through the pool) and memoizing it on first use;
    /// `None` when the body cannot fuse. Host-side only: never touches the
    /// architectural hit/miss/LRU state — the trace tier still performs
    /// the real per-instruction [`Self::lookup_traced`] probes while
    /// replaying, so template-table statistics are bit-identical across
    /// execution tiers.
    pub(crate) fn lookup_trace(
        &mut self,
        datapath: &DatapathModel,
        body: &[Instruction],
    ) -> Option<Arc<EnsembleTrace>> {
        self.refresh_ctx(datapath);
        let words: Vec<u32> = body.iter().map(Instruction::encode).collect();
        if let Some(memo) = self.traces.get(&words) {
            return memo.clone();
        }
        let trace = self.pool.get_or_fuse_trace(datapath, body);
        self.traces.insert(words, trace.clone());
        trace
    }

    /// Snapshots the *architectural* cache state: the template table with
    /// its LRU stamps, the synthesis context, and the hit/miss/clock
    /// counters. The host-side memos (`traces` and the pool) are
    /// deliberately excluded — they are invisible to the modeled hardware
    /// and rebuild on demand; the pool stays with the machine, not the
    /// checkpoint. Entries are `Arc`-shared, so
    /// a snapshot is cheap.
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
        if self.ctx != cp.ctx {
            // A trace memo warmed under a different synthesis context
            // must not survive the restore.
            self.traces.clear();
        }
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
        // The cached entry includes filled-in operands, so ADD r0 r1 r2 and
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
        assert_eq!(*pr.recipe, *sr.recipe, "pooled synthesis yields the same recipe");
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
        assert_eq!(a.compiled.len(), a.recipe.len());
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
        assert_eq!(s, PoolStats { lookups: 3, hits: 1, misses: 2, opt: s.opt });
        assert_eq!(s.hits + s.misses, s.lookups);
        // Each miss paid one optimizer pass; RACER ADD is known to shrink.
        assert!(s.opt.saved_uops() > 0, "pool misses accumulate optimizer savings");
        assert!(s.opt.total_fires() > 0, "per-rule fire counts accumulate");
    }

    #[test]
    fn opt_config_is_part_of_the_pool_memo_key() {
        // Flipping the optimizer against a warm pool must synthesize a
        // fresh (unoptimized) template, never serve the optimized one.
        let on = DatapathModel::racer();
        let off = DatapathModel::racer().with_opt_config(pum_backend::OptConfig::disabled());
        let pool = Arc::new(RecipePool::new());

        let optimized = pool.get_or_build_compiled(&on, &add(2)).unwrap().recipe;
        let plain = pool.get_or_build_compiled(&off, &add(2)).unwrap().recipe;
        assert_eq!(pool.len(), 2, "distinct opt configs occupy distinct pool slots");
        assert_eq!(pool.stats().misses, 2, "the flipped config cannot hit the warm memo");
        assert!(
            optimized.len() < plain.len(),
            "optimized template ({}) should be shorter than unoptimized ({})",
            optimized.len(),
            plain.len()
        );
        assert_eq!(plain.saved_uops(), 0, "disabled optimizer records no savings");
    }

    #[test]
    fn bit_pipelining_is_part_of_the_trace_key() {
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
        let cycles = |dp: &DatapathModel| -> Vec<u64> {
            let trace = pool.get_or_fuse_trace(dp, &[add(2), add(3)]).unwrap();
            let steps = trace.steps().iter();
            steps
                .map(|s| match s {
                    pum_backend::EnsembleStep::Compute { cycles, .. } => *cycles,
                    _ => 0,
                })
                .collect()
        };
        let (piped, serial) = (cycles(&build(true)), cycles(&build(false)));
        assert_eq!(piped[0], serial[0], "a cold pipeline pays serial latency");
        assert!(piped[1] < serial[1], "only the bit-pipelined datapath overlaps the second ADD");
        assert_eq!(pool.len(), 4, "each datapath keeps its own templates");
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
            warm.recipe.len() < fresh.recipe.len(),
            "the flushed lookup resynthesizes under the new context"
        );

        let (back, hit) = cache.lookup(&on, &add(2)).unwrap();
        assert!(!hit, "flipping back flushes again");
        assert_eq!(back.recipe.len(), warm.recipe.len());
    }

    #[test]
    fn traced_lookup_reports_pool_outcome() {
        let dp = DatapathModel::racer();
        let pool = Arc::new(RecipePool::new());
        let mut first = RecipeCache::with_pool(4, Arc::clone(&pool));

        let (_, o) = first.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(false) });
        let (_, o) = first.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: true, pool: None });

        // A second MPU on the same pool misses locally but hits the memo.
        let mut second = RecipeCache::with_pool(4, Arc::clone(&pool));
        let (_, o) = second.lookup_traced(&dp, &add(2)).unwrap();
        assert_eq!(o, LookupOutcome { hit: false, pool: Some(true) });

        // A private pool's outcome is not reported.
        let mut plain = RecipeCache::new(4);
        let (_, o) = plain.lookup_traced(&dp, &add(2)).unwrap();
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
        let before = pool.get_or_build_compiled(&dp, &add(2)).unwrap().recipe;
        let stats = pool.stats();
        std::thread::scope(|s| {
            let crashed = s
                .spawn(|| {
                    let _guards = (
                        write(&pool.templates),
                        write(&pool.compiled),
                        write(&pool.traces),
                        write(&pool.opt),
                    );
                    panic!("job panicked while holding the pool's write locks");
                })
                .join();
            assert!(crashed.is_err());
        });
        assert!(pool.templates.is_poisoned() && pool.opt.is_poisoned());

        let after = pool.get_or_build_compiled(&dp, &add(2)).unwrap().recipe;
        assert!(Arc::ptr_eq(&before, &after), "the memoized recipe is still served");
        assert_eq!(pool.stats().hits, stats.hits + 1);
        assert_eq!(pool.stats().opt, stats.opt);
        assert_eq!(pool.len(), 1);
        assert!(pool.get_or_build_compiled(&dp, &add(3)).is_some());
        assert!(pool.get_or_fuse_trace(&dp, &[add(2), add(3)]).is_some());
        assert_eq!(pool.len(), 2);
    }
}
