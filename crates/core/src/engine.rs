//! [`OrderingEngine`]: a long-lived, batch-capable RCM ordering service.
//!
//! The paper positions RCM as a *preprocessing* step that runs in front of
//! every iterative solve (§I), which in production means ordering a stream
//! of matrices, not one. A per-call ordering ([`crate::dist_rcm`], or a
//! fresh engine per matrix) pays the full backend construction on each
//! call — dense companions, SpMSpV accumulators, and (for the pooled
//! backend) the worker threads themselves. The engine amortizes all of it
//! across calls and across matrices:
//!
//! ```text
//! OrderingEngine::new(EngineConfig)      construct: allocate nothing,
//!        │                               spawn the pool workers once
//!        │ order(&A) / order_batch(&[A])
//!        ▼
//! install: bind A to the warm backend    grow-only, epoch-stamped buffers —
//!        │                               a small matrix after a huge one
//!        │                               reuses memory, no realloc
//!        ▼
//! drive:  drive_cm_with over the         the one generic Algorithm 3/4
//!        │ reinstalled runtime           pipeline of [`crate::driver`]
//!        ▼
//! report: OrderingReport                 permutation + bandwidth before/
//!                                        after + DriverStats + timing
//! ```
//!
//! Batch calls add a second level of parallelism on the pooled backend:
//! matrices too small to ever cross the pool's sequential cutover
//! ([`crate::pool::DEFAULT_SEQ_CUTOFF`]) are ordered **whole, one per
//! worker** (the pool's batch job), while large matrices take the usual
//! level-parallel path. Either way every permutation is bit-identical to a
//! fresh engine's [`OrderingEngine::order`] on the same backend; the
//! cross-backend equivalence suite extends over warm reuse.
//!
//! # Worked example: one warm engine, many matrices
//!
//! ```
//! use rcm_core::{BackendKind, EngineConfig, OrderingEngine};
//! use rcm_sparse::CooBuilder;
//!
//! let path = |n: usize| {
//!     let mut b = CooBuilder::new(n, n);
//!     for v in 0..n as u32 - 1 {
//!         b.push_sym(v, v + 1);
//!     }
//!     b.build()
//! };
//!
//! // One session object; its workspaces stay warm between calls.
//! let mut engine =
//!     OrderingEngine::new(EngineConfig::builder().backend(BackendKind::Serial).build());
//! let big = path(300);
//! let small = path(40);
//! for a in [&big, &small] {
//!     let report = engine.order(a);
//!     assert_eq!(report.perm.len(), a.n_rows());
//!     assert_eq!(report.bandwidth_after, 1); // RCM makes a path tridiagonal
//! }
//! // The small matrix reused the big one's buffers: no further growth.
//! let warm = engine.growth_events();
//! engine.order(&small);
//! assert_eq!(engine.growth_events(), warm);
//! assert_eq!(engine.orderings(), 3);
//! ```

use crate::backends::SerialWorkspace;
use crate::compress::{rcm_compressed, CompressStats};
use crate::distributed::{dist_rcm_warm, DistRcmConfig, DistRcmResult, SortMode};
use crate::driver::{BackendKind, DriverStats, ExpandDirection, PeripheralStat, StartNode};
use crate::pool::{PoolConfig, RcmPool};
use crate::quality::ordering_bandwidth;
use crate::service::{CacheOutcome, CacheStats, PatternCache};
use rcm_dist::{DistSpmspvWorkspace, HybridConfig, MachineModel};
use rcm_sparse::{
    connected_components, matrix_bandwidth, ComponentSplit, Components, CscMatrix, Label,
    Permutation, Vidx,
};
use std::time::Instant;

/// Default [`CacheConfig::max_nnz`] bound: ~16M stored pattern nonzeros
/// (about 128 MiB of cached CSC indices at `u32`), plenty for the synthetic
/// suite and a visible fraction of a SuiteSparse working set.
pub const DEFAULT_CACHE_NNZ: usize = 16 << 20;

/// Configuration of a pattern-fingerprint ordering cache
/// ([`crate::service::PatternCache`]) — attached to an [`OrderingEngine`]
/// via [`EngineConfigBuilder::cache`], or shared service-wide via
/// [`crate::service::ServiceConfig::cache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total stored pattern nonzeros the cache may hold; least-recently
    /// used entries are evicted beyond it.
    pub max_nnz: usize,
}

impl CacheConfig {
    /// A cache bounded at `max_nnz` total stored pattern nonzeros.
    pub fn new(max_nnz: usize) -> Self {
        CacheConfig { max_nnz }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_nnz: DEFAULT_CACHE_NNZ,
        }
    }
}

/// Configuration of an [`OrderingEngine`] session. Build it fluently:
///
/// ```
/// use rcm_core::{BackendKind, CacheConfig, EngineConfig, ExpandDirection};
///
/// let config = EngineConfig::builder()
///     .backend(BackendKind::Pooled { threads: 4 })
///     .direction(ExpandDirection::Adaptive)
///     .cache(CacheConfig::default())
///     .build();
/// assert!(config.cache.is_some());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// The [`crate::driver::RcmRuntime`] backend every ordering runs on.
    pub backend: BackendKind,
    /// Frontier-expansion direction policy (bit-identical permutations for
    /// every setting; see [`crate::driver::ExpandDirection`]).
    pub direction: ExpandDirection,
    /// Start-node selection strategy per component (see
    /// [`crate::driver::StartNode`]; the George–Liu default reproduces the
    /// classical driver bit for bit, and each strategy is deterministic
    /// across backends, directions, and thread counts).
    pub start_node: StartNode,
    /// Order through supervariable compression
    /// ([`crate::compress::rcm_compressed`]): detect indistinguishable
    /// vertices, order the quotient, expand. Reports go out with
    /// [`OrderingReport::compress`] populated. The quotient ordering uses
    /// the sequential George–Liu pipeline regardless of `backend` and
    /// `start_node`.
    pub compress: bool,
    /// Give the engine a private pattern-fingerprint ordering cache
    /// ([`crate::service::PatternCache`]): identical patterns return the
    /// cached permutation in O(nnz) hash time, reports carry
    /// [`OrderingReport::cache`]. `None` (the default) disables it. The
    /// [`crate::service::OrderingService`] ignores this field on its shard
    /// engines — it owns one *shared* cache at the front door instead.
    pub cache: Option<CacheConfig>,
    /// Schedule connected components as independent ordering jobs: detect
    /// components up front ([`rcm_sparse::connected_components`]), carve the
    /// matrix with a warm [`rcm_sparse::ComponentSplit`], order each piece
    /// on the configured backend (on the pooled backend pieces go
    /// whole-per-worker through the batch job; a piece runs level-parallel
    /// only when it is a true giant holding a strict majority of the
    /// vertices), and stitch the local permutations back together.
    /// The result is **bit-identical** to the sequential whole-matrix
    /// driver — the stitcher replays its deterministic component order (the
    /// unvisited minimum-(degree, id) seed). Connected matrices pay one
    /// O(n + nnz) detection pass and take the ordinary path; the
    /// compression path ignores this flag (the quotient pipeline has its
    /// own traversal).
    pub split_components: bool,
}

impl EngineConfig {
    /// Start building a configuration. Defaults: serial backend, direction
    /// from `RCM_DIRECTION`, start node from `RCM_START_NODE`, no
    /// compression, no cache, no component split.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig {
                backend: BackendKind::Serial,
                direction: ExpandDirection::from_env(),
                start_node: StartNode::from_env(),
                compress: false,
                cache: None,
                split_components: false,
            },
        }
    }
}

/// Fluent builder for [`EngineConfig`] — see [`EngineConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Select the [`crate::driver::RcmRuntime`] backend.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Set the frontier-expansion direction policy.
    pub fn direction(mut self, direction: ExpandDirection) -> Self {
        self.config.direction = direction;
        self
    }

    /// Set the start-node selection strategy
    /// ([`EngineConfig::start_node`]).
    pub fn start_node(mut self, start_node: StartNode) -> Self {
        self.config.start_node = start_node;
        self
    }

    /// Order through supervariable compression
    /// ([`crate::compress::rcm_compressed`]).
    pub fn compress(mut self, compress: bool) -> Self {
        self.config.compress = compress;
        self
    }

    /// Attach a private pattern-fingerprint ordering cache
    /// ([`EngineConfig::cache`]).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = Some(cache);
        self
    }

    /// Schedule connected components as independent ordering jobs
    /// ([`EngineConfig::split_components`]).
    pub fn split_components(mut self, split: bool) -> Self {
        self.config.split_components = split;
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Everything one ordering produced — callers stop recomputing quality
/// metrics.
#[derive(Clone, Debug)]
pub struct OrderingReport {
    /// The RCM permutation (old vertex id → new label).
    pub perm: Permutation,
    /// Matrix rows.
    pub n: usize,
    /// Matrix stored nonzeros.
    pub nnz: usize,
    /// Bandwidth of the input ordering.
    pub bandwidth_before: usize,
    /// Bandwidth under `perm`.
    pub bandwidth_after: usize,
    /// Generic-driver execution record (default/empty on the compression
    /// path, which bypasses the algebraic driver).
    pub stats: DriverStats,
    /// Frontier expansions that ran through the pooled backend's parallel
    /// pipeline (0 on other backends and on batch-scheduled small
    /// matrices).
    pub parallel_levels: usize,
    /// Measured wall-clock seconds of install + drive + extraction (quality
    /// metrics excluded). For batch-scheduled small matrices this is the
    /// batch total amortized over its matrices.
    pub wall_seconds: f64,
    /// The full simulated result (breakdown, messages, bytes) on the dist
    /// backend.
    pub sim: Option<DistRcmResult>,
    /// Compression statistics when [`EngineConfig::compress`] is set.
    pub compress: Option<CompressStats>,
    /// How a pattern cache participated: `Some(Hit)` = permutation came
    /// from the cache, `Some(Miss)` = ordered fresh and inserted, `None` =
    /// no cache in the path (unconfigured engine or bypassed request).
    pub cache: Option<CacheOutcome>,
}

impl OrderingReport {
    /// Simulated seconds (0.0 on backends without a clock).
    pub fn sim_seconds(&self) -> f64 {
        self.sim.as_ref().map_or(0.0, |r| r.sim_seconds)
    }

    /// Total pseudo-peripheral BFS sweeps across every component (0 for
    /// zero-sweep strategies, cache hits, and the compression path).
    pub fn peripheral_sweeps(&self) -> usize {
        self.stats.peripheral_stats.iter().map(|p| p.sweeps).sum()
    }

    /// The first component's start-node record (schedule order), when the
    /// algebraic driver ran.
    pub fn peripheral_first(&self) -> Option<&PeripheralStat> {
        self.stats.peripheral_stats.first()
    }
}

/// The permutation and execution record of one ordering, before quality
/// metrics.
struct RawOrdering {
    perm: Permutation,
    stats: DriverStats,
    parallel_levels: usize,
    sim: Option<DistRcmResult>,
    compress: Option<CompressStats>,
}

impl RawOrdering {
    /// A permutation and driver record, with every optional part empty.
    fn new(perm: Permutation, stats: DriverStats) -> Self {
        RawOrdering {
            perm,
            stats,
            parallel_levels: 0,
            sim: None,
            compress: None,
        }
    }
}

/// A long-lived ordering session: one instance of the configured backend
/// plus its warm workspaces, serving [`OrderingEngine::order`] and
/// [`OrderingEngine::order_batch`] calls. See the module docs for the
/// lifecycle and a worked example.
///
/// # Panics and poisoning
///
/// A panic escaping an ordering (a malformed matrix, an internal invariant
/// assert) leaves a *pooled* engine unusable: the pool's arena locks are
/// poisoned, as documented on [`crate::pool::RcmPool`]. A caller that
/// catches such a panic must drop the engine and construct a new one —
/// further calls panic on the poisoned locks rather than risk ordering
/// with corrupted state.
pub struct OrderingEngine {
    config: EngineConfig,
    serial_ws: SerialWorkspace,
    pool: Option<RcmPool>,
    dist_ws: DistSpmspvWorkspace<Label>,
    splitter: ComponentSplit,
    cache: Option<PatternCache>,
    orderings: usize,
}

impl OrderingEngine {
    /// Construct a session. The pooled backend spawns its persistent
    /// workers here (once); every other allocation waits for the first
    /// install. A compressing engine never touches the configured backend
    /// (the quotient pipeline is sequential), so no workers are spawned
    /// for it.
    pub fn new(config: EngineConfig) -> Self {
        let pool = match config.backend {
            BackendKind::Pooled { threads } if !config.compress => {
                Some(RcmPool::new(PoolConfig::new(threads)))
            }
            _ => None,
        };
        OrderingEngine {
            cache: config.cache.map(PatternCache::new),
            config,
            serial_ws: SerialWorkspace::new(),
            pool,
            dist_ws: DistSpmspvWorkspace::new(),
            splitter: ComponentSplit::new(),
            orderings: 0,
        }
    }

    /// Convenience constructor with the backend's defaults.
    pub fn with_backend(backend: BackendKind) -> Self {
        OrderingEngine::new(EngineConfig::builder().backend(backend).build())
    }

    /// The session configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Orderings served so far (batch matrices count individually).
    pub fn orderings(&self) -> usize {
        self.orderings
    }

    /// Times any install-managed warm buffer (serial workspace, pool
    /// arenas, distributed SpMSpV accumulator, component splitter) had to
    /// grow. Re-ordering matrices no larger than any this engine has seen
    /// leaves the count unchanged — the growth-event tests assert exactly
    /// that.
    pub fn growth_events(&self) -> usize {
        self.serial_ws.growth_events()
            + self.pool.as_ref().map_or(0, |p| p.growth_events())
            + self.dist_ws.growth_events()
            + self.splitter.growth_events()
    }

    /// Order one matrix on the warm backend and report the permutation
    /// with its quality metrics, execution record, and timing.
    ///
    /// With a configured cache ([`EngineConfigBuilder::cache`]) a
    /// previously seen pattern returns its cached permutation in O(nnz)
    /// hash + equality time — no BFS — and the report says which happened
    /// via [`OrderingReport::cache`].
    pub fn order(&mut self, a: &CscMatrix) -> OrderingReport {
        if self.cache.is_none() {
            return self.order_uncached(a);
        }
        let t0 = Instant::now();
        let fp = a.pattern_fingerprint();
        let cache = self.cache.as_mut().expect("checked above");
        if let Some(cached) = cache.lookup(fp, a, self.config.start_node) {
            self.orderings += 1;
            return cached.into_report(a, t0.elapsed().as_secs_f64());
        }
        let mut report = self.order_uncached(a);
        report.cache = Some(CacheOutcome::Miss);
        let cache = self.cache.as_mut().expect("checked above");
        cache.insert(fp, a, &report, self.config.start_node);
        report
    }

    /// [`OrderingEngine::order`] without cache participation.
    fn order_uncached(&mut self, a: &CscMatrix) -> OrderingReport {
        let bandwidth_before = matrix_bandwidth(a);
        let t0 = Instant::now();
        let raw = self.order_raw(a);
        let wall_seconds = t0.elapsed().as_secs_f64();
        let bandwidth_after = ordering_bandwidth(a, &raw.perm);
        OrderingReport {
            n: a.n_rows(),
            nnz: a.nnz(),
            bandwidth_before,
            bandwidth_after,
            stats: raw.stats,
            parallel_levels: raw.parallel_levels,
            wall_seconds,
            sim: raw.sim,
            compress: raw.compress,
            cache: None,
            perm: raw.perm,
        }
    }

    /// Counter snapshot of the engine's private pattern cache (`None`
    /// when the engine was built without one).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(PatternCache::stats)
    }

    /// Order a batch of matrices through the warm engine, returning one
    /// report per input in input order.
    ///
    /// On a multithreaded pooled backend the schedule is two-level:
    /// matrices below the pool's sequential cutover
    /// ([`crate::pool::DEFAULT_SEQ_CUTOFF`]) are ordered whole, one per
    /// worker, on the same pool (they could never engage the level-parallel
    /// pipeline), while larger ones run level-parallel as usual. Other
    /// backends order sequentially through the warm workspaces.
    /// Permutations are bit-identical to per-matrix
    /// [`OrderingEngine::order`] calls either way.
    pub fn order_batch(&mut self, mats: &[CscMatrix]) -> Vec<OrderingReport> {
        // A caching engine routes per-matrix through `order` so every
        // matrix participates in the cache — a batch of repeated patterns
        // collapses to one BFS plus hash-time hits. A splitting engine
        // routes per-matrix too: each matrix decomposes into its own
        // component jobs.
        if self.cache.is_none() && !self.config.split_components {
            if let BackendKind::Pooled { threads } = self.config.backend {
                if threads > 1 && !self.config.compress && mats.len() > 1 {
                    return self.order_batch_pooled(mats);
                }
            }
        }
        mats.iter().map(|a| self.order(a)).collect()
    }

    /// The two-level pooled batch schedule (see [`OrderingEngine::order_batch`]).
    fn order_batch_pooled(&mut self, mats: &[CscMatrix]) -> Vec<OrderingReport> {
        let pool = self.pool.as_mut().expect("pooled engine owns a pool");
        let cutoff = pool.config().seq_cutoff;
        let small_idx: Vec<usize> = (0..mats.len())
            .filter(|&i| mats[i].n_rows() < cutoff)
            .collect();
        let smalls: Vec<&CscMatrix> = small_idx.iter().map(|&i| &mats[i]).collect();
        let t0 = Instant::now();
        let small_cm = pool.order_cm_batch(&smalls, self.config.direction, self.config.start_node);
        let amortized = t0.elapsed().as_secs_f64() / small_cm.len().max(1) as f64;
        let mut out: Vec<Option<OrderingReport>> = (0..mats.len()).map(|_| None).collect();
        for (&i, (cm, stats)) in small_idx.iter().zip(small_cm) {
            let a = &mats[i];
            let perm = cm.reversed();
            let bandwidth_after = ordering_bandwidth(a, &perm);
            out[i] = Some(OrderingReport {
                n: a.n_rows(),
                nnz: a.nnz(),
                bandwidth_before: matrix_bandwidth(a),
                bandwidth_after,
                stats,
                parallel_levels: 0,
                wall_seconds: amortized,
                sim: None,
                compress: None,
                cache: None,
                perm,
            });
            self.orderings += 1;
        }
        for i in 0..mats.len() {
            if out[i].is_none() {
                out[i] = Some(self.order(&mats[i]));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every batch slot filled"))
            .collect()
    }

    /// One ordering on the warm backend, without quality metrics — the
    /// body of [`OrderingEngine::order`].
    fn order_raw(&mut self, a: &CscMatrix) -> RawOrdering {
        self.orderings += 1;
        if self.config.compress {
            let (perm, stats) = rcm_compressed(a);
            return RawOrdering {
                compress: Some(stats),
                ..RawOrdering::new(perm, DriverStats::default())
            };
        }
        if self.config.split_components {
            let comps = connected_components(a);
            if comps.count() > 1 {
                return self.order_split(a, &comps);
            }
        }
        let start_node = self.config.start_node;
        if let BackendKind::Dist { .. } = self.config.backend {
            let result = self.order_dist(a, start_node);
            let raw = RawOrdering::new(result.perm.clone(), result.stats.clone());
            return RawOrdering {
                sim: Some(result),
                ..raw
            };
        }
        let (cm, stats, parallel_levels) = self.order_cm(a, &start_node);
        RawOrdering {
            parallel_levels,
            ..RawOrdering::new(cm.reversed(), stats)
        }
    }

    /// One unreversed Cuthill-McKee ordering of `a` on the warm backend —
    /// one body per backend: [`SerialWorkspace`]'s for serial, the pool's
    /// level-parallel pipeline for pooled, a simulated run for dist.
    /// Returns the CM permutation, the driver record, and the count of
    /// pooled expansions that ran in parallel.
    fn order_cm(
        &mut self,
        a: &CscMatrix,
        start_node: &StartNode,
    ) -> (Permutation, DriverStats, usize) {
        let direction = self.config.direction;
        match self.config.backend {
            BackendKind::Serial => {
                let (cm, stats) = self.serial_ws.order_cm(a, direction, start_node);
                (cm, stats, 0)
            }
            BackendKind::Pooled { .. } => self
                .pool
                .as_mut()
                .expect("pooled engine owns a pool")
                .order_cm(a, direction, start_node),
            BackendKind::Dist { .. } => {
                let result = self.order_dist(a, *start_node);
                (result.perm.reversed(), result.stats, 0)
            }
        }
    }

    /// The component-parallel path of [`OrderingEngine::order_raw`]:
    /// split → schedule → stitch.
    ///
    /// The sequential driver reseeds every component at the globally
    /// unvisited vertex minimizing `(degree, id)`; since degrees never
    /// cross component boundaries, that is exactly ascending order of each
    /// component's own `(degree, id)` minimum — a schedule this method can
    /// compute up front and replay. Each piece keeps its vertices in
    /// ascending global-id order (see [`rcm_sparse::ComponentSplit`]), so
    /// every tie-break inside a piece matches the whole-matrix run and the
    /// stitched permutation is bit-identical to the sequential one: piece
    /// `c` at schedule offset `o` with local unreversed-CM labels `cm`
    /// contributes global RCM labels `n - 1 - o - cm[u]`.
    ///
    /// Per-piece stats merge in schedule order (`components` sums to the
    /// piece count, level traces concatenate); on the dist backend
    /// the pieces run as independent simulated jobs and the report carries
    /// no aggregate simulated result.
    fn order_split(&mut self, a: &CscMatrix, comps: &Components) -> RawOrdering {
        let n = a.n_rows();
        let k = comps.count();
        let mut splitter = std::mem::take(&mut self.splitter);
        let pieces = splitter.split(a, comps);

        // Deterministic schedule: ascending (degree, id) minimum per piece.
        let mut best: Vec<(Vidx, Vidx)> = vec![(Vidx::MAX, Vidx::MAX); k];
        for v in 0..n {
            let c = comps.component_of[v] as usize;
            let mut d = a.col_nnz(v) as Vidx;
            if a.col(v).binary_search(&(v as Vidx)).is_ok() {
                d -= 1; // structural diagonal is not a graph neighbour
            }
            if d < best[c].0 {
                best[c] = (d, v as Vidx);
            }
        }
        let mut schedule: Vec<usize> = (0..k).collect();
        schedule.sort_unstable_by_key(|&c| best[c]);

        // Per-piece start-node strategy. The uniform strategies apply to
        // every piece unchanged (each piece's min-degree seed is the same
        // vertex the sequential reseeding would pick). A `Fixed` vertex
        // applies only to the piece holding it — translated to the piece's
        // local numbering, with that piece hoisted to the front of the
        // schedule (the sequential driver labels the fixed vertex's
        // component first) — while every other piece, or the whole run when
        // the vertex is out of range, falls back to George–Liu.
        let mut piece_strategy: Vec<StartNode> = vec![self.config.start_node; k];
        if let StartNode::Fixed(v) = self.config.start_node {
            piece_strategy = vec![StartNode::GeorgeLiu; k];
            if (v as usize) < n {
                let c = comps.component_of[v as usize] as usize;
                let local = pieces[c]
                    .vertices
                    .binary_search(&v)
                    .expect("fixed vertex lies in its component's piece");
                piece_strategy[c] = StartNode::Fixed(local as Vidx);
                let pos = schedule.iter().position(|&x| x == c).expect("c < k");
                schedule.remove(pos);
                schedule.insert(0, c);
            }
        }

        // Order every piece on the warm backend. Results are unreversed CM
        // permutations in local ids, indexed by component id.
        let mut results: Vec<Option<(Permutation, DriverStats)>> = (0..k).map(|_| None).collect();
        if let BackendKind::Pooled { .. } = self.config.backend {
            let pool = self.pool.as_mut().expect("pooled engine owns a pool");
            let cutoff = pool.config().seq_cutoff;
            // Pieces go whole-per-worker through the pool's batch job
            // unless one is a true giant — above the level cutoff AND
            // holding a strict majority of the vertices. Only then can
            // level parallelism beat component parallelism: with the
            // work spread over several comparable pieces, running them
            // whole on separate workers is sync-free and keeps every
            // worker busy, while the level pipeline would serialize
            // the pieces and pay per-level sync on narrow frontiers.
            // The batch job runs one strategy for all its pieces, so a
            // piece with a divergent (fixed-vertex) strategy takes the
            // level-parallel path below instead.
            let batch_strategy = match self.config.start_node {
                StartNode::Fixed(_) => StartNode::GeorgeLiu,
                uniform => uniform,
            };
            let small_idx: Vec<usize> = (0..k)
                .filter(|&c| {
                    let rows = pieces[c].matrix.n_rows();
                    piece_strategy[c] == batch_strategy && (rows < cutoff || 2 * rows <= n)
                })
                .collect();
            let smalls: Vec<&CscMatrix> = small_idx.iter().map(|&c| &pieces[c].matrix).collect();
            let small_cm = pool.order_cm_batch(&smalls, self.config.direction, batch_strategy);
            for (&c, res) in small_idx.iter().zip(small_cm) {
                results[c] = Some(res);
            }
        }
        let mut parallel_levels = 0usize;
        for (c, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                let (cm, stats, levels) = self.order_cm(&pieces[c].matrix, &piece_strategy[c]);
                parallel_levels += levels;
                *slot = Some((cm, stats));
            }
        }

        // Stitch: pieces take consecutive CM label blocks in schedule
        // order; the global permutation is the reversal of that CM.
        let mut new_of_old = vec![0 as Vidx; n];
        let mut offset = 0usize;
        let mut stats = DriverStats::default();
        for &c in &schedule {
            let piece = &pieces[c];
            let (cm, piece_stats) = results[c].take().expect("every piece ordered");
            let labels = cm.as_new_of_old();
            for (u, &g) in piece.vertices.iter().enumerate() {
                new_of_old[g as usize] = (n - 1 - offset - labels[u] as usize) as Vidx;
            }
            offset += piece.matrix.n_rows();
            stats.components += piece_stats.components;
            stats.peripheral_bfs += piece_stats.peripheral_bfs;
            stats.levels += piece_stats.levels;
            stats.spmspv_work += piece_stats.spmspv_work;
            stats.push_expands += piece_stats.push_expands;
            stats.pull_expands += piece_stats.pull_expands;
            stats.level_stats.extend(piece_stats.level_stats);
            // Peripheral records carry piece-local start vertices; report
            // them in the caller's (global) numbering.
            stats
                .peripheral_stats
                .extend(piece_stats.peripheral_stats.into_iter().map(|mut p| {
                    p.start = piece.vertices[p.start as usize];
                    p
                }));
        }
        self.splitter = splitter;
        let perm = Permutation::from_new_of_old(new_of_old)
            .expect("stitched component labels form a bijection");
        RawOrdering {
            parallel_levels,
            ..RawOrdering::new(perm, stats)
        }
    }

    /// One simulated run on the warm distributed workspace: the engine's
    /// grid, threads per process, direction and `start_node` on the Edison
    /// model, with no balance permutation and the paper's sort.
    fn order_dist(&mut self, a: &CscMatrix, start_node: StartNode) -> DistRcmResult {
        let BackendKind::Dist {
            cores,
            threads_per_proc,
        } = self.config.backend
        else {
            unreachable!("only the dist backend runs simulated orderings")
        };
        let config = DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(cores, threads_per_proc),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: self.config.direction,
            start_node,
        };
        dist_rcm_warm(a, &config, &mut self.dist_ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_sparse::{CooBuilder, Vidx};

    use crate::testutil::{scrambled_grid, single_shot};

    #[test]
    fn warm_engine_matches_single_shot_on_every_backend() {
        let mats = [
            scrambled_grid(12, 7),
            scrambled_grid(7, 3),
            scrambled_grid(10, 11),
        ];
        for kind in [
            BackendKind::Serial,
            BackendKind::Pooled { threads: 3 },
            BackendKind::Dist {
                cores: 4,
                threads_per_proc: 1,
            },
            BackendKind::Dist {
                cores: 24,
                threads_per_proc: 6,
            },
        ] {
            let mut engine = OrderingEngine::with_backend(kind);
            for (i, a) in mats.iter().enumerate() {
                let report = engine.order(a);
                assert_eq!(
                    report.perm,
                    single_shot(a, kind),
                    "{} engine diverged on matrix {i}",
                    kind.name()
                );
                assert!(report.bandwidth_after <= report.bandwidth_before);
                assert!(report.stats.components > 0);
            }
            assert_eq!(engine.orderings(), mats.len());
        }
    }

    #[test]
    fn dist_reports_carry_the_simulated_result() {
        let a = scrambled_grid(9, 5);
        let mut engine = OrderingEngine::with_backend(BackendKind::Dist {
            cores: 4,
            threads_per_proc: 1,
        });
        let report = engine.order(&a);
        assert!(report.sim_seconds() > 0.0);
        let sim = report
            .sim
            .as_ref()
            .expect("dist backend must attach a sim result");
        assert!(sim.sim_seconds > 0.0);
        assert_eq!(sim.perm, report.perm);
        let mut serial = OrderingEngine::with_backend(BackendKind::Serial);
        assert_eq!(serial.order(&a).sim_seconds(), 0.0);
    }

    #[test]
    fn compress_reports_compression_stats() {
        // A 2-dof chain compresses 2x; the report must say so.
        let nodes = 30usize;
        let d = 2usize;
        let n = nodes * d;
        let mut b = CooBuilder::new(n, n);
        for node in 0..nodes {
            b.push_sym((node * d) as Vidx, (node * d + 1) as Vidx);
            if node + 1 < nodes {
                for i in 0..d {
                    for j in 0..d {
                        b.push_sym((node * d + i) as Vidx, ((node + 1) * d + j) as Vidx);
                    }
                }
            }
        }
        let a = b.build();
        let cfg = EngineConfig::builder()
            .backend(BackendKind::Serial)
            .compress(true)
            .build();
        let mut engine = OrderingEngine::new(cfg);
        let report = engine.order(&a);
        let stats = report.compress.expect("compression stats attached");
        assert_eq!(stats.vertices, n);
        assert_eq!(stats.supervariables, nodes);
        assert_eq!(report.perm.len(), n);
    }

    #[test]
    fn batch_mixes_small_and_large_and_matches_single_shot() {
        let mats: Vec<CscMatrix> = vec![
            scrambled_grid(6, 5),   // 36 vertices: far below the cutover
            scrambled_grid(20, 13), // 400 vertices: level-parallel path
            CscMatrix::empty(0),
            scrambled_grid(4, 3),
            CscMatrix::empty(1),
            scrambled_grid(18, 7),
        ];
        let kind = BackendKind::Pooled { threads: 3 };
        let mut engine = OrderingEngine::with_backend(kind);
        let reports = engine.order_batch(&mats);
        assert_eq!(reports.len(), mats.len());
        for (i, (a, report)) in mats.iter().zip(&reports).enumerate() {
            assert_eq!(
                report.perm,
                single_shot(a, kind),
                "batch slot {i} diverged from single-shot"
            );
            assert_eq!(report.n, a.n_rows());
        }
        assert_eq!(engine.orderings(), mats.len());
        // The same engine keeps serving after a batch.
        let again = engine.order(&mats[1]);
        assert_eq!(again.perm, reports[1].perm);
    }

    #[test]
    fn caching_engine_hits_on_repeats_and_stays_bit_identical() {
        let a = scrambled_grid(11, 7);
        let b = scrambled_grid(8, 3);
        let mut engine = OrderingEngine::new(
            EngineConfig::builder()
                .backend(BackendKind::Serial)
                .cache(CacheConfig::default())
                .build(),
        );
        let first = engine.order(&a);
        assert_eq!(first.cache, Some(crate::service::CacheOutcome::Miss));
        let second = engine.order(&a);
        assert_eq!(second.cache, Some(crate::service::CacheOutcome::Hit));
        assert_eq!(first.perm, second.perm);
        assert_eq!(first.bandwidth_after, second.bandwidth_after);
        // A batch over repeated + fresh patterns routes through the cache.
        let reports = engine.order_batch(&[a.clone(), b.clone(), a.clone()]);
        assert_eq!(reports[0].cache, Some(crate::service::CacheOutcome::Hit));
        assert_eq!(reports[1].cache, Some(crate::service::CacheOutcome::Miss));
        assert_eq!(reports[2].cache, Some(crate::service::CacheOutcome::Hit));
        assert_eq!(reports[1].perm, single_shot(&b, BackendKind::Serial));
        let stats = engine.cache_stats().expect("cache configured");
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(engine.orderings(), 5);
        // An uncached engine reports no cache participation at all.
        let mut plain = OrderingEngine::with_backend(BackendKind::Serial);
        assert_eq!(plain.order(&a).cache, None);
        assert!(plain.cache_stats().is_none());
    }

    /// Several scrambled grids as one matrix, with vertex ids strewn across
    /// components by a stride scramble of the block-diagonal composite.
    fn multi_component(sides: &[(usize, usize)]) -> CscMatrix {
        let blocks: Vec<CscMatrix> = sides
            .iter()
            .map(|&(side, stride)| scrambled_grid(side, stride))
            .collect();
        let n: usize = blocks.iter().map(|b| b.n_rows()).sum();
        let mut builder = CooBuilder::new(n, n);
        let mut offset = 0;
        for block in &blocks {
            for (r, c) in block.iter_entries() {
                builder.push(r + offset as Vidx, c + offset as Vidx);
            }
            offset += block.n_rows();
        }
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let stride = (2..).find(|&s| gcd(s, n) == 1).unwrap();
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        builder
            .build()
            .permute_sym(&Permutation::from_new_of_old(perm).unwrap())
    }

    #[test]
    fn split_engine_is_bit_identical_to_sequential_on_every_backend() {
        let a = multi_component(&[(9, 1), (5, 2), (7, 3), (3, 4)]);
        assert!(rcm_sparse::connected_components(&a).count() >= 4);
        for kind in [
            BackendKind::Serial,
            BackendKind::Pooled { threads: 3 },
            BackendKind::Dist {
                cores: 4,
                threads_per_proc: 1,
            },
            BackendKind::Dist {
                cores: 24,
                threads_per_proc: 6,
            },
        ] {
            let sequential = single_shot(&a, kind);
            let mut engine = OrderingEngine::new(
                EngineConfig::builder()
                    .backend(kind)
                    .split_components(true)
                    .build(),
            );
            let report = engine.order(&a);
            assert_eq!(
                report.perm,
                sequential,
                "{} split path diverged from the sequential driver",
                kind.name()
            );
            assert_eq!(report.stats.components, 4);
            // A connected matrix takes the ordinary path under the flag.
            let connected = scrambled_grid(6, 7);
            assert_eq!(engine.order(&connected).perm, single_shot(&connected, kind));
        }
    }

    #[test]
    fn split_orders_wide_pooled_components_whole_per_worker() {
        // Three stars of 300 leaves: each leaf frontier is wider than the
        // pool's cutover, so the sequential driver expands it on the
        // workers (one parallel level per star), while the split path
        // orders every star whole, one per worker, with no parallel level
        // — and the same permutation.
        let (stars, leaves) = (3usize, 300usize);
        let n = stars * (leaves + 1);
        let mut b = CooBuilder::new(n, n);
        for s in 0..stars {
            let hub = (s * (leaves + 1)) as Vidx;
            for l in 1..=leaves as Vidx {
                b.push_sym(hub, hub + l);
            }
        }
        let a = b.build();
        for threads in [2, 4] {
            let kind = BackendKind::Pooled { threads };
            let sequential = OrderingEngine::with_backend(kind).order(&a);
            let mut engine = OrderingEngine::new(
                EngineConfig::builder()
                    .backend(kind)
                    .split_components(true)
                    .build(),
            );
            let split = engine.order(&a);
            assert_eq!(split.perm, sequential.perm, "pooled@{threads}");
            assert_eq!(split.stats.components, 3);
            assert_eq!(
                split.parallel_levels, 0,
                "pooled@{threads}: the split path must order the stars whole"
            );
            assert!(
                sequential.parallel_levels > 0,
                "pooled@{threads}: the sequential driver must expand the leaf levels in parallel"
            );
        }
    }

    #[test]
    fn split_engine_growth_stays_flat_on_resplits() {
        let a = multi_component(&[(8, 5), (6, 5), (4, 7)]);
        let mut engine = OrderingEngine::new(
            EngineConfig::builder()
                .backend(BackendKind::Pooled { threads: 3 })
                .split_components(true)
                .build(),
        );
        engine.order(&a);
        let warm = engine.growth_events();
        assert!(warm > 0);
        for _ in 0..3 {
            engine.order(&a);
        }
        assert_eq!(engine.growth_events(), warm);
    }

    #[test]
    fn growth_events_stay_flat_for_not_larger_matrices() {
        let big = scrambled_grid(24, 13);
        let small = scrambled_grid(9, 4);
        for kind in [
            BackendKind::Serial,
            BackendKind::Pooled { threads: 3 },
            BackendKind::Dist {
                cores: 4,
                threads_per_proc: 1,
            },
        ] {
            let mut engine = OrderingEngine::with_backend(kind);
            engine.order(&big);
            let warm = engine.growth_events();
            assert!(warm > 0, "{}: first install must grow", kind.name());
            for _ in 0..3 {
                engine.order(&small);
                engine.order(&big);
            }
            assert_eq!(
                engine.growth_events(),
                warm,
                "{}: warm engine must not grow on not-larger matrices",
                kind.name()
            );
        }
    }

    #[test]
    fn warm_pooled_engine_spawns_no_worker_and_grows_nothing_after_its_first_round() {
        // What a warm engine saves over a cold per-call ordering: the
        // workers spawned at construction serve every later call, and no
        // buffer grows once one round of single and batch orderings has
        // warmed it.
        let big = scrambled_grid(24, 13);
        let batch = [scrambled_grid(6, 5), big.clone(), scrambled_grid(9, 4)];
        let mut engine = OrderingEngine::with_backend(BackendKind::Pooled { threads: 3 });
        let workers = |engine: &OrderingEngine| {
            let pool = engine.pool.as_ref().expect("pooled engine owns a pool");
            pool.worker_ids()
        };
        let spawned = workers(&engine);
        assert_eq!(spawned.len(), 3);
        engine.order(&big);
        engine.order_batch(&batch);
        let warm = engine.growth_events();
        for _ in 0..3 {
            engine.order(&batch[0]);
            engine.order(&big);
            engine.order_batch(&batch);
        }
        assert_eq!(
            workers(&engine),
            spawned,
            "a warm engine respawned its workers"
        );
        assert_eq!(
            engine.growth_events(),
            warm,
            "a warm engine grew a buffer after its first round"
        );
    }
}
