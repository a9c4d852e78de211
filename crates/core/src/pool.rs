//! Work-stealing shared-memory execution backend for the level-synchronous
//! RCM of [`crate::backends::PooledBackend`] — the SpMP-style baseline of
//! Table II.
//!
//! A pool of **persistent workers** (spawned once per [`RcmPool`], parked
//! on a condvar gate between jobs, joined on drop — they survive across
//! orderings and across matrices; no per-level spawn) runs each parallel
//! level as a dynamic two-step pipeline, so no heavy chunk of high-degree
//! vertices can hold a level hostage:
//!
//! 1. **Expansion** — workers claim fixed-size frontier chunks from a
//!    [`ChunkQueue`] (one atomic claim counter; a thread that finishes its
//!    chunk immediately steals the next one). Each unvisited neighbour's
//!    slot in a shared per-vertex claim array is offered the epoch-tagged
//!    parent label — a plain load first, `fetch_min` only when the offer
//!    is smaller — and the `(vertex, parent label)` candidate goes into
//!    the worker's own reusable buffer only when the offer lowered the
//!    claim.
//! 2. **Filter** — after one barrier, each worker drops in place the
//!    candidates a smaller parent superseded later: `(w, p)` survives iff
//!    the claim array still holds `p` for `w`. Because `min` is commutative
//!    and every `(w, p)` pair is offered exactly once, the survivors are
//!    the minimum-parent set of the `(select2nd, min)` semiring under any
//!    interleaving. The coordinator concatenates the workers' buffers.
//!
//! The result is a set in no particular order: the backend's SORTPERM (a
//! counting sort keyed on the parent label, then `(degree, vertex)`) is
//! the one sort of a level, so the labels are bit-identical to the
//! sequential algorithm for *any* thread count, chunk size, or claim
//! interleaving.
//!
//! The coordinator runs the very same kernels on its own thread for levels
//! below the cutover ([`DEFAULT_SEQ_CUTOFF`]) and for every level of a
//! 1-thread pool, over the whole frontier at once. There the frontier
//! positions ascend with the parent label, so a vertex's first claim is
//! already its minimum and no filter pass is needed.
//!
//! All scratch buffers are owned by the [`RcmPool`] and reused across
//! levels, components, orderings, and matrices. Every push level takes a
//! fresh claim tag from a claim epoch that is **monotone for the pool's
//! lifetime**, so a new level or ordering needs no `O(n)` invalidation
//! pass, and [`RcmPool::growth_events`] exposes when the install-managed
//! buffers last had to grow (a pool that has seen an `n`-vertex matrix
//! installs any smaller one without allocating).
//!
//! **Pull levels.** The direction-optimizing driver can run a level
//! bottom-up instead: the coordinator scatters the frontier into a dense
//! per-vertex parent-label array (`Vidx::MAX` = not in frontier), and the
//! expansion claims chunks of the *vertex range* `0..n` — each chunk walks
//! the *unvisited bitmap* ([`VertexBitmap`]), so a fully visited 64-vertex
//! word costs one compare, and scans each surviving row's adjacency for
//! the minimum frontier label. Because every row is computed by exactly
//! one thread, pull needs **no claim and no filter** (and no barrier).
//!
//! **Batch jobs.** Besides level expansions, the gate can post a *batch*
//! job (`RcmPool::order_cm_batch`): workers claim whole matrices
//! (one-ordering-per-claim, claim granularity 1) and run the complete
//! sequential Cuthill-McKee pipeline on each, using a worker-local
//! [`SerialWorkspace`] that stays warm across batch jobs. This is the
//! second level of the [`crate::engine::OrderingEngine`] batch policy:
//! matrices too small to ever cross the parallel cutover are ordered whole,
//! one per worker, while large ones take the level-parallel path above.
//!
//! Synchronization per parallel level: one condvar broadcast to release the
//! workers, one [`Barrier`] wait (push levels only), one condvar signal
//! back to the coordinator. Levels below the cutover never touch the
//! workers.

use crate::backends::{PooledBackend, SerialWorkspace};
use crate::driver::{drive_cm_with, DriverStats, ExpandDirection, LabelingMode, StartNode};
use rcm_sparse::{CscMatrix, Label, Permutation, VertexBitmap, Vidx, UNVISITED};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, RwLock};

/// Frontier size below which a level is expanded on the calling thread.
///
/// Releasing and re-parking the worker pool costs a few microseconds per
/// level; below this many frontier vertices (or, for a pull level, this
/// many vertices in the matrix) the calling thread wins. The engine also
/// orders matrices smaller than this whole, one per worker.
pub const DEFAULT_SEQ_CUTOFF: usize = 256;

/// Default work-stealing claim granularity (frontier vertices per chunk).
///
/// Small enough that a straggler chunk cannot dominate a level, large
/// enough that the atomic claim counter stays off the profile.
pub const DEFAULT_CHUNK: usize = 64;

/// Configuration of the shared-memory execution backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads.
    pub nthreads: usize,
    /// Frontiers smaller than this are expanded on the calling thread
    /// ([`DEFAULT_SEQ_CUTOFF`]).
    pub(crate) seq_cutoff: usize,
    /// Frontier vertices per work-stealing claim ([`DEFAULT_CHUNK`]).
    pub(crate) chunk: usize,
}

impl PoolConfig {
    /// Default configuration for `nthreads` workers.
    pub fn new(nthreads: usize) -> Self {
        PoolConfig {
            nthreads: nthreads.max(1),
            seq_cutoff: DEFAULT_SEQ_CUTOFF,
            chunk: DEFAULT_CHUNK,
        }
    }
}

/// A chunked work queue with a single atomic claim counter.
///
/// `len` items are divided into `⌈len/chunk⌉` contiguous chunks; workers
/// call [`ChunkQueue::claim`] until it returns `None`. A fast worker simply
/// claims (steals) more chunks than a slow one — there is no static
/// assignment to rebalance. [`ChunkQueue::reset`] re-arms the queue for the
/// next level; [`ChunkQueue::reset_chunked`] additionally changes the claim
/// granularity (batch jobs claim whole orderings, granularity 1).
pub struct ChunkQueue {
    next: AtomicUsize,
    len: AtomicUsize,
    chunk: AtomicUsize,
}

impl ChunkQueue {
    /// Queue over `len` items in `chunk`-sized claims.
    pub fn new(len: usize, chunk: usize) -> Self {
        ChunkQueue {
            next: AtomicUsize::new(0),
            len: AtomicUsize::new(len),
            chunk: AtomicUsize::new(chunk.max(1)),
        }
    }

    /// Re-arm the queue for a new batch of `len` items.
    pub fn reset(&self, len: usize) {
        self.len.store(len, Ordering::Relaxed);
        self.next.store(0, Ordering::Release);
    }

    /// Re-arm the queue with a different claim granularity.
    pub fn reset_chunked(&self, len: usize, chunk: usize) {
        self.chunk.store(chunk.max(1), Ordering::Relaxed);
        self.reset(len);
    }

    /// Claim the next unprocessed chunk, or `None` when the queue is empty.
    pub fn claim(&self) -> Option<Range<usize>> {
        let chunk = self.chunk.load(Ordering::Relaxed);
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        let start = c.checked_mul(chunk)?;
        let len = self.len.load(Ordering::Relaxed);
        if start >= len {
            return None;
        }
        Some(start..(start + chunk).min(len))
    }

    /// Total number of chunks the queue hands out per batch.
    pub fn nchunks(&self) -> usize {
        self.len
            .load(Ordering::Relaxed)
            .div_ceil(self.chunk.load(Ordering::Relaxed))
    }
}

/// Candidate emitted during frontier expansion: `(vertex, parent label)`.
pub(crate) type Candidate = (Vidx, Vidx);

/// Claim-array tag of a claim epoch: high 32 bits hold the *complement* of
/// the epoch, so newer levels always `fetch_min` below stale entries and
/// the array needs no clearing between levels — or between orderings,
/// since the claim epoch is monotone for the pool's lifetime; the low 32
/// bits hold the parent label, so within a level the minimum parent wins.
fn claim_tag(epoch: u64) -> u64 {
    debug_assert!(epoch > 0 && epoch <= u32::MAX as u64, "epoch out of range");
    ((!(epoch as u32)) as u64) << 32
}

/// One frontier expansion, as the kernels see it.
#[derive(Clone, Copy)]
enum Level {
    /// Top-down: frontier position `off` has parent label
    /// `base_label + off`, and claims carry `tag` ([`claim_tag`]).
    Push { base_label: Vidx, tag: u64 },
    /// Bottom-up: rows scan the dense frontier-label array.
    Pull,
}

/// What the gate posted: one parallel frontier expansion, or a batch of
/// whole sequential orderings.
#[derive(Clone, Copy)]
enum JobKind {
    /// One level of the pipeline.
    Level(Level),
    /// Whole sequential orderings, claimed one matrix at a time
    /// (`RcmPool::order_cm_batch`).
    Batch,
}

/// Payload of a caught panic, re-thrown on the coordinator.
type Panic = Box<dyn std::any::Any + Send>;

/// Coordinator→worker task descriptor plus the completion count.
struct GateState {
    /// Bumped once per posted job; workers run when it changes.
    epoch: u64,
    /// The posted job.
    job: JobKind,
    /// Workers exit their loop when set.
    shutdown: bool,
    /// Workers done with the current job.
    done: usize,
    /// First worker panic of the job, re-thrown by the coordinator (a
    /// panicking worker must not leave its siblings stuck on the barrier).
    panic: Option<Panic>,
}

/// Condvar gate parking the workers between jobs.
struct Gate {
    state: Mutex<GateState>,
    start: Condvar,
    finished: Condvar,
}

/// The coordinator's borrows, smuggled to the persistent workers as raw
/// pointers.
///
/// # Safety discipline
///
/// The pointers are installed at the start of [`RcmPool::run`] /
/// `RcmPool::order_cm_batch` and remain valid for the whole call (they
/// point into the caller's arguments or the call's stack frame). Workers
/// dereference them **only** while executing a posted job, and the
/// coordinator never returns from the posting call before every worker has
/// reported done — so every dereference happens strictly inside the
/// lifetime of the borrow the pointer was created from. Between jobs the
/// workers are parked on the gate and touch nothing.
struct JobData {
    a: *const CscMatrix,
    batch: *const BatchJob,
}

// Safety: see the discipline above — the pointers are only dereferenced
// while the coordinator keeps the underlying borrows alive, and all shared
// mutation goes through the Mutex/RwLock/atomic fields of `PoolShared`.
unsafe impl Send for JobData {}

/// One batch job: the matrices to order (as raw pointers into the caller's
/// slice) and a per-matrix output slot.
struct BatchJob {
    mats: Vec<*const CscMatrix>,
    direction: ExpandDirection,
    start_node: StartNode,
    outs: Vec<Mutex<Option<(Permutation, DriverStats)>>>,
}

/// Everything the persistent workers share with the coordinator.
///
/// The `RwLock`s are phase-disciplined: writers and readers of the same
/// buffer are always separated by a barrier or by the gate, so every lock
/// acquisition is uncontended — they exist to keep the code in safe Rust,
/// not to arbitrate races.
struct PoolShared {
    config: PoolConfig,
    /// Not-yet-visited vertices, one bit each — the pull expansion scans
    /// this a word at a time and the push expansion tests membership.
    unvisited: RwLock<VertexBitmap>,
    frontier: RwLock<Vec<Vidx>>,
    /// Dense frontier for pull levels: `pull_labels[v]` = parent label of
    /// frontier vertex `v`, `Vidx::MAX` otherwise.
    pull_labels: RwLock<Vec<Vidx>>,
    /// Each worker's candidates of the current parallel level.
    cands: Vec<RwLock<Vec<Candidate>>>,
    claims: Vec<AtomicUsize>,
    /// Per-vertex epoch-tagged minimum-parent claims (see [`claim_tag`];
    /// push levels only — pull computes each vertex exactly once). Grown
    /// under the write lock while the workers are parked; cleared only when
    /// the claim epoch wraps.
    best: RwLock<Vec<AtomicU64>>,
    queue: ChunkQueue,
    barrier: Barrier,
    gate: Gate,
    job: Mutex<JobData>,
}

impl PoolShared {
    /// Lock the gate, surviving poisoning (a propagated worker panic must
    /// not turn [`RcmPool`]'s drop into a double panic).
    fn lock_gate(&self) -> MutexGuard<'_, GateState> {
        self.gate
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Release the parked workers onto `job`.
    fn post(&self, job: JobKind) {
        let mut st = self.lock_gate();
        st.epoch += 1;
        st.job = job;
        st.done = 0;
        self.gate.start.notify_all();
    }

    /// Park until every worker has reported the posted job done, and take
    /// the first worker panic, if any.
    fn wait_done(&self) -> Option<Panic> {
        let mut st = self.lock_gate();
        while st.done < self.config.nthreads {
            st = self
                .gate
                .finished
                .wait(st)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        st.panic.take()
    }
}

/// The dense companions and scratch of [`crate::backends::PooledBackend`],
/// owned by the pool so they stay warm across orderings: the ordering
/// vector `R`, the BFS level vector `L`, the level-mark undo list, the
/// candidate buffer the backend's frontier conversions reuse, and the
/// reseed cursor over the vertices in `(degree, vertex)` order.
#[derive(Default)]
pub struct PooledWorkspace {
    pub(crate) order: Vec<Label>,
    pub(crate) levels: Vec<Label>,
    pub(crate) touched: Vec<Vidx>,
    pub(crate) cands: Vec<Candidate>,
    pub(crate) sort_scratch: rcm_sparse::SortpermScratch,
    /// Every vertex in ascending `(degree, vertex)` order.
    pub(crate) by_degree: Vec<Vidx>,
    /// Per-degree bucket offsets of the counting sort behind `by_degree`.
    degree_offsets: Vec<usize>,
    /// The reseed cursor: `by_degree[..cursor]` is labeled.
    pub(crate) cursor: usize,
    /// Vertices the reseed scans passed over in the current ordering — at
    /// most `n` with the cursor.
    pub(crate) reseed_steps: usize,
}

impl PooledWorkspace {
    /// Bind an `n`-vertex matrix with these degrees: reset the active
    /// prefix of both dense companions to unvisited, sort the vertices by
    /// `(degree, vertex)` for the reseed cursor (grow-only — installing a
    /// matrix no larger than any seen before allocates nothing). Returns
    /// whether any buffer had to grow.
    fn install(&mut self, degrees: &[Vidx]) -> bool {
        let n = degrees.len();
        let grew = self.order.capacity() < n
            || self.by_degree.capacity() < n
            || self.degree_offsets.capacity() < n + 1;
        if self.order.len() < n {
            self.order.resize(n, UNVISITED);
            self.levels.resize(n, UNVISITED);
        }
        self.order[..n].fill(UNVISITED);
        self.levels[..n].fill(UNVISITED);
        self.touched.clear();
        // Counting sort on degree: a scatter in ascending vertex order
        // leaves every degree bucket sorted by vertex. The offsets are
        // pre-grown to their n-bounded ceiling (a degree is below n) so
        // growth stays monotone in the matrix size.
        let offs = &mut self.degree_offsets;
        offs.reserve((n + 1).saturating_sub(offs.len()));
        offs.clear();
        offs.resize(degrees.iter().max().map_or(0, |&d| d as usize + 2), 0);
        for &d in degrees {
            offs[d as usize + 1] += 1;
        }
        for k in 1..offs.len() {
            offs[k] += offs[k - 1];
        }
        self.by_degree.clear();
        self.by_degree.resize(n, 0);
        for (v, &d) in degrees.iter().enumerate() {
            self.by_degree[offs[d as usize]] = v as Vidx;
            offs[d as usize] += 1;
        }
        self.cursor = 0;
        self.reseed_steps = 0;
        grew
    }
}

/// The work-stealing pool: configuration, the persistent worker threads,
/// and every arena they share. Workers are spawned once in [`RcmPool::new`]
/// and parked between jobs; [`Drop`] shuts them down and joins them.
pub struct RcmPool {
    config: PoolConfig,
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Push levels expanded so far (modulo the 2³² recycling of
    /// [`LevelExecutor::next_claim_tag`]) — the claim-array epoch.
    claim_epoch: u64,
    /// The [`crate::backends::PooledBackend`] dense companions.
    backend_ws: PooledWorkspace,
    /// Warm degree buffer for [`RcmPool::run_warm`].
    degrees: Vec<Vidx>,
    /// Coordinator-side serial workspace for batch jobs (each worker keeps
    /// its own, local to its loop).
    batch_ws: SerialWorkspace,
    growth_events: usize,
}

impl RcmPool {
    /// Pool with `config.nthreads` workers (spawned now, parked until the
    /// first job) and empty arenas.
    pub fn new(config: PoolConfig) -> Self {
        let nthreads = config.nthreads.max(1);
        let config = PoolConfig { nthreads, ..config };
        let shared = Arc::new(PoolShared {
            config,
            unvisited: RwLock::new(VertexBitmap::new(0)),
            frontier: RwLock::new(Vec::new()),
            pull_labels: RwLock::new(Vec::new()),
            cands: (0..nthreads).map(|_| RwLock::new(Vec::new())).collect(),
            claims: (0..nthreads).map(|_| AtomicUsize::new(0)).collect(),
            best: RwLock::new(Vec::new()),
            queue: ChunkQueue::new(0, config.chunk),
            barrier: Barrier::new(nthreads),
            gate: Gate {
                state: Mutex::new(GateState {
                    epoch: 0,
                    job: JobKind::Batch,
                    shutdown: false,
                    done: 0,
                    panic: None,
                }),
                start: Condvar::new(),
                finished: Condvar::new(),
            },
            job: Mutex::new(JobData {
                a: std::ptr::null(),
                batch: std::ptr::null(),
            }),
        });
        let workers = if nthreads > 1 {
            (0..nthreads)
                .map(|tid| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared, tid))
                })
                .collect()
        } else {
            Vec::new()
        };
        RcmPool {
            config,
            shared,
            workers,
            claim_epoch: 0,
            backend_ws: PooledWorkspace::default(),
            degrees: Vec::new(),
            batch_ws: SerialWorkspace::new(),
            growth_events: 0,
        }
    }

    /// Configured worker count.
    pub fn nthreads(&self) -> usize {
        self.config.nthreads
    }

    /// The active configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Times any install-managed arena (visited set, pull-label array,
    /// claim array, dense companions, degree buffer) had to grow. A warm
    /// pool re-ordering matrices no larger than any it has seen reports a
    /// stable count — the engine's growth-event tests assert on this.
    pub fn growth_events(&self) -> usize {
        self.growth_events
    }

    /// Bind an `n`-vertex matrix to the shared arenas: grow-only resize,
    /// prefix reset. The claim array is *not* cleared — claim epochs are
    /// monotone, so stale claims can never match or win again.
    fn install(&mut self, n: usize, degrees: &[Vidx]) {
        debug_assert_eq!(degrees.len(), n, "one degree per vertex");
        let mut grew = false;
        grew |= self.shared.unvisited.write().unwrap().reset_ones(n);
        self.shared.frontier.write().unwrap().clear();
        {
            let mut pull_labels = self.shared.pull_labels.write().unwrap();
            grew |= pull_labels.capacity() < n;
            pull_labels.clear();
            pull_labels.resize(n, Vidx::MAX);
        }
        {
            let mut best = self.shared.best.write().unwrap();
            if best.len() < n {
                grew = true;
                best.resize_with(n, || AtomicU64::new(u64::MAX));
            }
        }
        grew |= self.backend_ws.install(degrees);
        if grew {
            self.growth_events += 1;
        }
    }

    /// Hand the driver a [`LevelExecutor`] over `a` plus the pool-owned
    /// [`PooledWorkspace`], and run it. `degrees[v]` must be the degree of
    /// vertex `v` of `a`. The executor's visited set starts all false and
    /// its frontier empty; the workspace's dense companions start all
    /// unvisited.
    pub fn run<R>(
        &mut self,
        a: &CscMatrix,
        degrees: &[Vidx],
        driver: impl FnOnce(&mut LevelExecutor<'_>, &mut PooledWorkspace) -> R,
    ) -> R {
        self.install(a.n_rows(), degrees);
        self.shared.job.lock().unwrap().a = a;
        let result = {
            let mut exec = LevelExecutor {
                shared: &self.shared,
                claim_epoch: &mut self.claim_epoch,
                a,
                degrees,
            };
            driver(&mut exec, &mut self.backend_ws)
        };
        self.shared.job.lock().unwrap().a = std::ptr::null();
        result
    }

    /// [`RcmPool::run`] with the degree vector computed into (and reused
    /// from) the pool's warm buffer — the zero-steady-state-allocation
    /// entry the engine uses. The driver closure reads the degrees from
    /// [`LevelExecutor::degrees`].
    pub fn run_warm<R>(
        &mut self,
        a: &CscMatrix,
        driver: impl FnOnce(&mut LevelExecutor<'_>, &mut PooledWorkspace) -> R,
    ) -> R {
        let mut degrees = std::mem::take(&mut self.degrees);
        if degrees.capacity() < a.n_rows() {
            self.growth_events += 1;
        }
        a.degrees_into(&mut degrees);
        let result = self.run(a, &degrees, driver);
        self.degrees = degrees;
        result
    }

    /// One Cuthill-McKee ordering of `a` on the level-parallel pipeline,
    /// through the warm degree buffer of [`RcmPool::run_warm`] (a reused
    /// pool performs no steady-state install allocation): the unreversed
    /// CM permutation, the driver record, and the count of expansions that
    /// ran through the parallel pipeline.
    pub(crate) fn order_cm(
        &mut self,
        a: &CscMatrix,
        direction: ExpandDirection,
        start_node: &StartNode,
    ) -> (Permutation, DriverStats, usize) {
        assert_eq!(a.n_rows(), a.n_cols(), "RCM needs a square matrix");
        self.run_warm(a, |exec, ws| {
            let mut rt = PooledBackend::new(exec, ws);
            let stats = drive_cm_with(&mut rt, LabelingMode::PerLevel, direction, start_node);
            let (cm, parallel_levels) = rt.into_cm_permutation();
            (cm, stats, parallel_levels)
        })
    }

    /// Order every matrix with the sequential Cuthill-McKee pipeline,
    /// scheduling **whole orderings one per worker** (claim granularity 1)
    /// — the small-matrix half of the engine's two-level batch parallelism.
    /// Returns the unreversed CM permutation and driver statistics per
    /// matrix, in input order; every permutation is bit-identical to the
    /// level-parallel path (which is bit-identical to serial by the
    /// cross-backend invariant), regardless of which worker claimed it.
    pub(crate) fn order_cm_batch(
        &mut self,
        mats: &[&CscMatrix],
        direction: ExpandDirection,
        start_node: StartNode,
    ) -> Vec<(Permutation, DriverStats)> {
        if mats.is_empty() {
            return Vec::new();
        }
        if self.config.nthreads == 1 || mats.len() == 1 {
            return mats
                .iter()
                .map(|a| self.batch_ws.order_cm(a, direction, &start_node))
                .collect();
        }
        let job = BatchJob {
            mats: mats.iter().map(|a| *a as *const CscMatrix).collect(),
            direction,
            start_node,
            outs: mats.iter().map(|_| Mutex::new(None)).collect(),
        };
        self.shared.queue.reset_chunked(mats.len(), 1);
        self.shared.job.lock().unwrap().batch = &job;
        self.shared.post(JobKind::Batch);
        // The coordinator steals whole orderings too — it would otherwise
        // idle for the entire batch. Its own panic must still wait for the
        // workers to drain before unwinding (they hold pointers into this
        // frame), hence the catch/rethrow.
        let batch_ws = &mut self.batch_ws;
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while let Some(range) = self.shared.queue.claim() {
                for i in range {
                    let a = unsafe { &*job.mats[i] };
                    let result = batch_ws.order_cm(a, direction, &start_node);
                    *job.outs[i].lock().unwrap() = Some(result);
                }
            }
        }));
        let workers_panic = self.shared.wait_done();
        self.shared.job.lock().unwrap().batch = std::ptr::null();
        if let Err(payload) = mine {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = workers_panic {
            std::panic::resume_unwind(payload);
        }
        job.outs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every batch matrix was claimed and ordered")
            })
            .collect()
    }
}

impl Drop for RcmPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_gate();
            st.shutdown = true;
            self.shared.gate.start.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-level front end the driver sees: owns the visited/frontier state and
/// runs each expansion on the calling thread or on the worker pool.
pub struct LevelExecutor<'s> {
    shared: &'s PoolShared,
    claim_epoch: &'s mut u64,
    a: &'s CscMatrix,
    degrees: &'s [Vidx],
}

impl LevelExecutor<'_> {
    /// Worker count of the owning pool.
    pub fn nthreads(&self) -> usize {
        self.shared.config.nthreads
    }

    /// The installed matrix's vertex count.
    pub fn n(&self) -> usize {
        self.a.n_rows()
    }

    /// The installed matrix's degree vector.
    pub fn degrees(&self) -> &[Vidx] {
        self.degrees
    }

    /// Mutate the unvisited-vertex bitmap and the current frontier (seed
    /// scans, root marking, labeling) — marking a vertex visited is
    /// [`VertexBitmap::remove`]. Scoped so no lock can be held across an
    /// expansion — the workers read both under the same locks.
    pub fn with_state<R>(&mut self, f: impl FnOnce(&mut VertexBitmap, &mut Vec<Vidx>) -> R) -> R {
        let mut unvisited = self.shared.unvisited.write().unwrap();
        let mut frontier = self.shared.frontier.write().unwrap();
        f(&mut unvisited, &mut frontier)
    }

    /// Chunks claimed per worker in the most recent parallel expansion — a
    /// dynamic schedule shows uneven counts on skewed frontiers.
    pub fn last_claim_counts(&self) -> Vec<usize> {
        self.shared
            .claims
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Expand the current frontier (label of `frontier[0]` = `base_label`).
    ///
    /// On return `out` holds the deduplicated candidates (minimum parent
    /// per vertex), in no particular order. Returns `true` when the
    /// parallel pipeline ran.
    pub(crate) fn expand(&mut self, base_label: Vidx, out: &mut Vec<Candidate>) -> bool {
        let tag = self.next_claim_tag();
        let plen = self.shared.frontier.read().unwrap().len();
        self.run_level(plen, Level::Push { base_label, tag }, out)
    }

    /// Bottom-up (pull) expansion of the current frontier: scan every
    /// unvisited vertex's adjacency against the dense frontier-label array
    /// instead of expanding the frontier's columns. Produces the same
    /// candidate set as [`Self::expand`]. Returns `true` when the parallel
    /// pipeline ran.
    pub(crate) fn expand_pull(&mut self, base_label: Vidx, out: &mut Vec<Candidate>) -> bool {
        // Scatter the frontier into the dense pull-label array (the dual
        // representation's sparse → dense conversion, O(frontier)).
        {
            let frontier = self.shared.frontier.read().unwrap();
            let mut labels = self.shared.pull_labels.write().unwrap();
            for (off, &v) in frontier.iter().enumerate() {
                labels[v as usize] = base_label + off as Vidx;
            }
        }
        // The pull scan's length is the vertex range, not the frontier.
        let parallel = self.run_level(self.a.n_rows(), Level::Pull, out);
        // Clear the scatter for the next level (only the touched entries).
        {
            let frontier = self.shared.frontier.read().unwrap();
            let mut labels = self.shared.pull_labels.write().unwrap();
            for &v in frontier.iter() {
                labels[v as usize] = Vidx::MAX;
            }
        }
        parallel
    }

    /// The claim tag of a new push level. Recycles the 32-bit tag space
    /// before it can wrap: when the claim epoch reaches `u32::MAX` the
    /// claim array is cleared once (an `O(n)` pass every 2³² push levels)
    /// and the count restarts — so "stale claims never match or win" holds
    /// for the pool's entire lifetime. Runs on the coordinator between
    /// jobs, while no worker reads the array.
    fn next_claim_tag(&mut self) -> u64 {
        if *self.claim_epoch >= u32::MAX as u64 {
            for b in self.shared.best.read().unwrap().iter() {
                b.store(u64::MAX, Ordering::Relaxed);
            }
            *self.claim_epoch = 0;
        }
        *self.claim_epoch += 1;
        claim_tag(*self.claim_epoch)
    }

    /// Expand one level over `len` claimable items into `out`: on the
    /// calling thread, in one range, for a 1-thread pool or below the
    /// cutover; otherwise on the workers, whose buffers are concatenated.
    /// Returns `true` when the workers ran it.
    fn run_level(&mut self, len: usize, level: Level, out: &mut Vec<Candidate>) -> bool {
        out.clear();
        let sh = self.shared;
        if sh.config.nthreads == 1 || len < sh.config.seq_cutoff.max(1) {
            expand_level(sh, self.a, level, std::iter::once(0..len), out);
            return false;
        }
        sh.queue.reset_chunked(len, sh.config.chunk);
        sh.post(JobKind::Level(level));
        if let Some(payload) = sh.wait_done() {
            // The workers are parked again (each caught its own unwind);
            // propagate the original panic to the caller. The pool's arena
            // locks may be poisoned now — the pool must not be reused after
            // a propagated panic.
            std::panic::resume_unwind(payload);
        }
        for cands in &sh.cands {
            out.extend_from_slice(&cands.read().unwrap());
        }
        true
    }
}

/// The one expansion kernel of both the workers and the coordinator:
/// expand every range of `level` that `ranges` yields into `out`.
fn expand_level(
    sh: &PoolShared,
    a: &CscMatrix,
    level: Level,
    ranges: impl Iterator<Item = Range<usize>>,
    out: &mut Vec<Candidate>,
) {
    let unvisited = sh.unvisited.read().unwrap();
    match level {
        Level::Push { base_label, tag } => {
            let frontier = sh.frontier.read().unwrap();
            let best = sh.best.read().unwrap();
            for range in ranges {
                let first = base_label + range.start as Vidx;
                push(a, &unvisited, &best, tag, &frontier[range], first, out);
            }
        }
        Level::Pull => {
            let labels = sh.pull_labels.read().unwrap();
            for range in ranges {
                pull(a, &unvisited, &labels, range, out);
            }
        }
    }
}

/// Push kernel over a frontier slice whose first vertex has parent label
/// `first_parent`: offer each unvisited neighbour's claim `tag | parent` —
/// a plain load first, `fetch_min` only when the offer is smaller — and
/// emit `(neighbour, parent)` only when the offer lowered the claim. A
/// smaller parent in another slice may still supersede the candidate (the
/// workers' filter drops those).
fn push(
    a: &CscMatrix,
    unvisited: &VertexBitmap,
    best: &[AtomicU64],
    tag: u64,
    frontier: &[Vidx],
    first_parent: Vidx,
    out: &mut Vec<Candidate>,
) {
    for (&v, parent) in frontier.iter().zip(first_parent..) {
        let offer = tag | parent as u64;
        for &w in a.col(v as usize) {
            let claim = &best[w as usize];
            if unvisited.contains(w)
                && claim.load(Ordering::Relaxed) > offer
                && claim.fetch_min(offer, Ordering::Relaxed) > offer
            {
                out.push((w, parent));
            }
        }
    }
}

/// Pull kernel over the vertex range `range`: each unvisited vertex (fully
/// visited 64-vertex words cost one compare) scans its adjacency for the
/// minimum frontier label. One thread computes each vertex, so no claim is
/// needed.
fn pull(
    a: &CscMatrix,
    unvisited: &VertexBitmap,
    labels: &[Vidx],
    range: Range<usize>,
    out: &mut Vec<Candidate>,
) {
    for v in unvisited.ones_in(range) {
        let parent = a
            .col(v as usize)
            .iter()
            .fold(Vidx::MAX, |min, &w| min.min(labels[w as usize]));
        if parent != Vidx::MAX {
            out.push((v, parent));
        }
    }
}

/// Worker body: park on the gate, run the posted job (one parallel level,
/// or a share of a batch of whole orderings), report completion, repeat
/// until shutdown. The serial workspace for batch jobs is worker-local and
/// stays warm for the pool's lifetime.
fn worker_loop(shared: &PoolShared, tid: usize) {
    let mut last_epoch = 0;
    let mut batch_ws = SerialWorkspace::new();
    loop {
        let job = {
            let mut st = shared.lock_gate();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    break st.job;
                }
                st = shared
                    .gate
                    .start
                    .wait(st)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        let outcome = match job {
            JobKind::Level(level) => worker_level(shared, tid, level),
            JobKind::Batch => run_batch_share(shared, &mut batch_ws),
        };
        let mut st = shared.lock_gate();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.done += 1;
        if st.done == shared.config.nthreads {
            shared.gate.finished.notify_one();
        }
    }
}

/// One worker's share of a posted batch job: claim whole matrices from the
/// queue and run the sequential pipeline on each.
fn run_batch_share(shared: &PoolShared, ws: &mut SerialWorkspace) -> Result<(), Panic> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(|| {
        // Safety: the batch pointer is installed by `order_cm_batch`, which
        // does not return before this worker reports done. The guard drops
        // at the end of its block: held across the claim loop, it would
        // serialize the workers.
        let job: &BatchJob = {
            let slot = shared.job.lock().unwrap();
            unsafe { &*slot.batch }
        };
        while let Some(range) = shared.queue.claim() {
            for i in range {
                let a = unsafe { &*job.mats[i] };
                let result = ws.order_cm(a, job.direction, &job.start_node);
                *job.outs[i].lock().unwrap() = Some(result);
            }
        }
    }))
}

/// One worker's share of a parallel level: expand the claimed chunks, then
/// (push only) wait for every offer to land and drop the candidates whose
/// claim a smaller parent lowered later. Each `(w, p)` pair was offered
/// once, so exactly the minimum-parent candidate of every vertex survives.
///
/// Each step runs under `catch_unwind` with the barrier *outside* the
/// catch: a panicking worker still arrives at the barrier and still
/// reports completion, so its siblings and the coordinator never hang —
/// the first payload travels back through the gate and is re-thrown on the
/// coordinator. (Locks it held while panicking are poisoned, so the pool
/// must not be reused after a propagated panic — the unwind makes that the
/// natural outcome.)
fn worker_level(shared: &PoolShared, tid: usize, level: Level) -> Result<(), Panic> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // Safety: the matrix pointer is installed by `RcmPool::run`, which
    // keeps the borrow alive until after this worker reports done. The
    // guard drops at the end of its block: held across the level, it would
    // block the other workers before the barrier.
    let a: &CscMatrix = {
        let job = shared.job.lock().unwrap();
        unsafe { &*job.a }
    };
    let expanded = catch_unwind(AssertUnwindSafe(|| {
        let mut cands = shared.cands[tid].write().unwrap();
        cands.clear();
        let mut claimed = 0usize;
        let ranges = std::iter::from_fn(|| shared.queue.claim()).inspect(|_| claimed += 1);
        expand_level(shared, a, level, ranges, &mut cands);
        shared.claims[tid].store(claimed, Ordering::Relaxed);
    }));
    let Level::Push { tag, .. } = level else {
        return expanded;
    };
    shared.barrier.wait();
    expanded?;
    catch_unwind(AssertUnwindSafe(|| {
        let best = shared.best.read().unwrap();
        shared.cands[tid]
            .write()
            .unwrap()
            .retain(|&(w, p)| best[w as usize].load(Ordering::Relaxed) == tag | p as u64);
    }))
}

/// Thread counts to exercise in determinism tests: the `RCM_THREADS`
/// environment variable as a comma-separated list (`RCM_THREADS=1,2,8`),
/// falling back to `default`. CI sweeps this to enforce thread-count
/// independence on every PR.
pub fn thread_counts_from_env(default: &[usize]) -> Vec<usize> {
    match std::env::var("RCM_THREADS") {
        Ok(raw) => {
            let parsed: Vec<usize> = raw
                .split(',')
                .filter_map(|tok| tok.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            if parsed.is_empty() {
                default.to_vec()
            } else {
                parsed
            }
        }
        Err(_) => default.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_sparse::CooBuilder;

    impl RcmPool {
        /// The persistent workers' thread ids, in spawn order: the same
        /// ids on a later call mean no worker was respawned in between.
        pub(crate) fn worker_ids(&self) -> Vec<std::thread::ThreadId> {
            self.workers.iter().map(|w| w.thread().id()).collect()
        }
    }

    #[test]
    fn chunk_queue_covers_every_item_once() {
        let q = ChunkQueue::new(103, 10);
        assert_eq!(q.nchunks(), 11);
        let mut seen = [false; 103];
        while let Some(r) = q.claim() {
            for i in r {
                assert!(!seen[i], "item {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(q.claim().is_none(), "exhausted queue must stay empty");
        q.reset(7);
        assert_eq!(q.claim(), Some(0..7));
        assert!(q.claim().is_none());
    }

    #[test]
    fn chunk_queue_regrains_for_batch_jobs() {
        let q = ChunkQueue::new(100, 10);
        q.reset_chunked(3, 1);
        assert_eq!(q.nchunks(), 3);
        assert_eq!(q.claim(), Some(0..1));
        assert_eq!(q.claim(), Some(1..2));
        assert_eq!(q.claim(), Some(2..3));
        assert!(q.claim().is_none());
        q.reset_chunked(20, 10);
        assert_eq!(q.claim(), Some(0..10));
    }

    #[test]
    fn chunk_queue_concurrent_claims_are_disjoint() {
        let q = ChunkQueue::new(10_000, 7);
        let counts: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut n = 0usize;
                        while let Some(r) = q.claim() {
                            n += r.len();
                        }
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    /// Run one push (or pull) expansion of `frontier`, whose position `k`
    /// has parent label `base_label + k`, with the given pool: the
    /// candidates sorted (the kernels leave their order unspecified), and
    /// whether the parallel path ran.
    fn expand_once(
        pool: &mut RcmPool,
        a: &CscMatrix,
        frontier: &[Vidx],
        base_label: Vidx,
        pull: bool,
    ) -> (Vec<Candidate>, bool) {
        pool.run(a, &a.degrees(), |exec, _ws| {
            exec.with_state(|unvisited, f| {
                for &v in frontier {
                    unvisited.remove(v);
                }
                f.extend_from_slice(frontier);
            });
            let mut out = Vec::new();
            let parallel = if pull {
                exec.expand_pull(base_label, &mut out)
            } else {
                exec.expand(base_label, &mut out)
            };
            out.sort_unstable();
            (out, parallel)
        })
    }

    /// The independent oracle for [`expand_once`]: the reference SpMSpV
    /// over the `(select2nd, min)` semiring, masked by the unvisited set
    /// (every vertex outside the frontier).
    fn oracle(a: &CscMatrix, frontier: &[Vidx], base_label: Vidx) -> Vec<Candidate> {
        let x = rcm_sparse::SparseVec::from_entries(
            a.n_cols(),
            (frontier.iter().zip(base_label..))
                .map(|(&v, label)| (v, label as Label))
                .collect(),
        );
        rcm_sparse::spmspv_ref::<Label, rcm_sparse::Select2ndMin>(a, &x)
            .entries()
            .iter()
            .filter(|(w, _)| !frontier.contains(w))
            .map(|&(w, p)| (w, p as Vidx))
            .collect()
    }

    /// Deterministic circulant graph: vertex `v` is adjacent to `v ± s`
    /// for every shift `s` — fat frontiers, many duplicate candidates
    /// crossing worker boundaries.
    fn circulant(n: usize, shifts: &[usize]) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n {
            for &s in shifts {
                let w = (v + s) % n;
                if w != v {
                    b.push_sym(v as Vidx, w as Vidx);
                }
            }
        }
        b.build()
    }

    #[test]
    fn parallel_pipeline_matches_sequential_expansion() {
        let a = circulant(900, &[1, 7, 31, 113]);
        // Consecutive labels (an ordering level: vertex `k` of the
        // frontier is labeled `40 + k`), and all-equal values, where the
        // backend loads the frontier in entry order and positions act as
        // parents (base 0, a scrambled vertex order). The short frontier
        // stays under the default cutover.
        let frontiers: [(Vec<Vidx>, Vidx); 3] = [
            ((0..300).map(|i| i * 3).collect(), 40),
            ((0..300).map(|i| (i * 7 + 5) % 900).collect(), 0),
            ((0..40).map(|i| i * 11).collect(), 7),
        ];
        for (frontier, base) in &frontiers {
            let expect = oracle(&a, frontier, *base);
            assert!(!expect.is_empty());
            for nthreads in [1usize, 2, 3, 8] {
                for seq_cutoff in [1, DEFAULT_SEQ_CUTOFF] {
                    let mut pool = RcmPool::new(PoolConfig {
                        nthreads,
                        seq_cutoff,
                        chunk: 16,
                    });
                    for pull in [false, true] {
                        let (got, par) = expand_once(&mut pool, &a, frontier, *base, pull);
                        let len = if pull { a.n_rows() } else { frontier.len() };
                        assert_eq!(par, nthreads > 1 && len >= seq_cutoff);
                        assert_eq!(
                            got,
                            expect,
                            "pull={pull} threads={nthreads} cutoff={seq_cutoff} len={}",
                            frontier.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn persistent_workers_survive_many_runs() {
        // The same pool executes parallel levels across repeated runs —
        // the workers are spawned once at construction and reused.
        let a = circulant(600, &[1, 13, 57]);
        let frontier: Vec<Vidx> = (0..200).map(|i| i * 2).collect();
        let expect = oracle(&a, &frontier, 10);
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 3,
            seq_cutoff: 1,
            chunk: 8,
        });
        for round in 0..6 {
            let (got, par) = expand_once(&mut pool, &a, &frontier, 10, round % 2 == 1);
            assert!(par);
            assert_eq!(got, expect, "round {round} diverged on the warm pool");
        }
    }

    #[test]
    fn claim_tags_survive_the_epoch_wraparound() {
        // The claim-tag space is 32 bits wide; a pool that lives past 2³²
        // push levels must recycle it. The hardest case: the level at
        // claim epoch u32::MAX writes tag-0 entries (the complement of the
        // epoch) into the claim array — the smallest possible tags, which
        // would win every future `fetch_min` — and the very next level
        // wraps. Without the recycling clear, every post-wrap offer would
        // lose to a stale claim and the frontier would come back empty.
        // Both the workers and the calling thread take claims.
        let a = circulant(900, &[1, 7, 31]);
        let frontier: Vec<Vidx> = (0..300).map(|i| i * 3).collect();
        let expect = oracle(&a, &frontier, 40);
        for nthreads in [1, 3] {
            let mut pool = RcmPool::new(PoolConfig {
                nthreads,
                seq_cutoff: 1,
                chunk: 16,
            });
            pool.claim_epoch = u32::MAX as u64 - 1;
            for round in 0..4 {
                // Rounds take claim epochs MAX, then wrap → 1, 2, 3.
                let (got, par) = expand_once(&mut pool, &a, &frontier, 40, false);
                assert_eq!(par, nthreads > 1);
                assert_eq!(got, expect, "round {round} diverged across the wrap");
            }
        }
    }

    #[test]
    fn claim_counts_cover_the_queue() {
        let n = 2000usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        let a = b.build();
        let degrees = a.degrees();
        let frontier: Vec<Vidx> = (0..1000).map(|i| (i * 2) as Vidx).collect();
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 4,
            seq_cutoff: 1,
            chunk: 16,
        });
        pool.run(&a, &degrees, |exec, _ws| {
            exec.with_state(|unvisited, f| {
                for &v in &frontier {
                    unvisited.remove(v);
                }
                f.extend_from_slice(&frontier);
            });
            let mut out = Vec::new();
            assert!(exec.expand(0, &mut out));
            assert_eq!(
                exec.last_claim_counts().iter().sum::<usize>(),
                frontier.len().div_ceil(16),
                "workers must claim every chunk exactly once"
            );
        });
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn worker_panic_propagates_instead_of_hanging() {
        // An out-of-range frontier vertex makes the worker that claims it
        // panic mid-expansion; the panic must surface on the caller
        // promptly (a worker that unwound past the barrier would leave its
        // siblings deadlocked there and the test would hang).
        let a = circulant(800, &[1]);
        let mut frontier: Vec<Vidx> = (0..400).map(|i| i * 2).collect();
        frontier[200] = 5000;
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 3,
            seq_cutoff: 1,
            chunk: 16,
        });
        pool.run(&a, &a.degrees(), |exec, _ws| {
            exec.with_state(|_, f| f.extend_from_slice(&frontier));
            exec.expand(0, &mut Vec::new());
        });
    }

    use crate::testutil::scrambled_grid;

    #[test]
    fn batch_orderings_match_single_shot_at_every_thread_count() {
        let mats: Vec<CscMatrix> = vec![
            scrambled_grid(9, 7),
            scrambled_grid(12, 5),
            CscMatrix::empty(0),
            CscMatrix::empty(1),
            scrambled_grid(7, 3),
            {
                // Star: one fat level.
                let mut b = CooBuilder::new(50, 50);
                for v in 1..50 {
                    b.push_sym(0, v as Vidx);
                }
                b.build()
            },
            scrambled_grid(11, 13),
        ];
        let refs: Vec<&CscMatrix> = mats.iter().collect();
        let expect: Vec<Permutation> = mats
            .iter()
            .map(|a| crate::serial::cuthill_mckee(a).0)
            .collect();
        for nthreads in [1usize, 2, 3, 8] {
            let mut pool = RcmPool::new(PoolConfig::new(nthreads));
            // Two rounds through the same warm pool: batch state must not
            // leak between batches.
            for round in 0..2 {
                let got = pool.order_cm_batch(&refs, ExpandDirection::Push, StartNode::GeorgeLiu);
                assert_eq!(got.len(), mats.len());
                for (i, (perm, stats)) in got.iter().enumerate() {
                    assert_eq!(
                        perm, &expect[i],
                        "matrix {i} diverged at {nthreads} threads (round {round})"
                    );
                    assert_eq!(perm.len(), mats[i].n_rows());
                    if mats[i].n_rows() > 1 {
                        assert!(stats.components > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn growth_events_stay_flat_on_not_larger_matrices() {
        let big = scrambled_grid(20, 13);
        let small = scrambled_grid(8, 3);
        let mut pool = RcmPool::new(PoolConfig::new(3));
        let degrees_big = big.degrees();
        let degrees_small = small.degrees();
        pool.run(&big, &degrees_big, |_, _| ());
        let warm = pool.growth_events();
        assert!(warm > 0, "first install must grow");
        for _ in 0..3 {
            pool.run(&small, &degrees_small, |_, _| ());
            pool.run(&big, &degrees_big, |_, _| ());
        }
        assert_eq!(
            pool.growth_events(),
            warm,
            "re-installing not-larger matrices must not grow"
        );
        let bigger = scrambled_grid(25, 7);
        let degrees_bigger = bigger.degrees();
        pool.run(&bigger, &degrees_bigger, |_, _| ());
        assert!(pool.growth_events() > warm, "a larger matrix must grow");
    }

    #[test]
    fn thread_counts_env_parsing() {
        // The env var is CI-controlled; mutating it here would race other
        // tests, so assert the branch that applies.
        match std::env::var("RCM_THREADS") {
            Ok(_) => assert!(!thread_counts_from_env(&[1, 4]).is_empty()),
            Err(_) => assert_eq!(thread_counts_from_env(&[1, 4]), vec![1, 4]),
        }
    }

    /// RCM on the level-parallel pipeline: George–Liu start nodes, the
    /// environment's direction policy. Returns the parallel-level count
    /// with the permutation and driver record.
    fn pooled_rcm(a: &CscMatrix, pool: &mut RcmPool) -> (Permutation, DriverStats, usize) {
        let (cm, stats, parallel_levels) =
            pool.order_cm(a, ExpandDirection::from_env(), &StartNode::GeorgeLiu);
        (cm.reversed(), stats, parallel_levels)
    }

    #[test]
    fn matches_serial_for_any_thread_count() {
        let a = scrambled_grid(13, 23);
        let expect = crate::rcm(&a);
        for t in thread_counts_from_env(&[1, 2, 3, 4, 8]) {
            let (got, _, _) = pooled_rcm(&a, &mut RcmPool::new(PoolConfig::new(t)));
            assert_eq!(got, expect, "{t} threads diverged");
        }
    }

    /// Caterpillar: `hubs` path-connected hub vertices, each with `leaves`
    /// pendant vertices. Every interior BFS level holds `leaves + 1`
    /// vertices, safely above [`DEFAULT_SEQ_CUTOFF`].
    fn wide_level_graph(hubs: usize, leaves: usize) -> CscMatrix {
        let n = hubs * (leaves + 1);
        let mut b = CooBuilder::new(n, n);
        for h in 0..hubs {
            let hub = (h * (leaves + 1)) as Vidx;
            if h + 1 < hubs {
                b.push_sym(hub, hub + (leaves + 1) as Vidx);
            }
            for l in 1..=leaves {
                b.push_sym(hub, hub + l as Vidx);
            }
        }
        b.build()
    }

    #[test]
    fn matches_serial_above_the_cutover() {
        let a = wide_level_graph(10, 300);
        let expect = crate::rcm(&a);
        for t in thread_counts_from_env(&[2, 5, 8]) {
            let (got, _, parallel_levels) = pooled_rcm(&a, &mut RcmPool::new(PoolConfig::new(t)));
            assert_eq!(got, expect, "{t} threads diverged");
            if t > 1 {
                assert!(
                    parallel_levels > 0,
                    "{t} threads never took the parallel path"
                );
            }
        }
    }

    #[test]
    fn cutover_threshold_is_configurable() {
        // With seq_cutoff = 1 even tiny frontiers go parallel; the answer
        // must not change.
        let a = scrambled_grid(9, 7);
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 3,
            seq_cutoff: 1,
            chunk: 2,
        });
        let (got, stats, parallel_levels) = pooled_rcm(&a, &mut pool);
        assert_eq!(got, crate::rcm(&a));
        // Every ordering expansion goes parallel: one per level plus each
        // component's final empty expansion.
        assert_eq!(parallel_levels, stats.levels + stats.components);
    }

    #[test]
    fn large_frontier_takes_threaded_path() {
        // A star graph has one giant level — forces the parallel branch.
        let n = 2000;
        let mut b = CooBuilder::new(n, n);
        for v in 1..n {
            b.push_sym(0, v as Vidx);
        }
        let a = b.build();
        let (p, stats, parallel_levels) = pooled_rcm(&a, &mut RcmPool::new(PoolConfig::new(4)));
        assert_eq!(p.len(), n);
        assert_eq!(stats.components, 1);
        assert!(parallel_levels > 0, "star level must run in parallel");
        assert_eq!(p, crate::rcm(&a));
    }

    #[test]
    fn components_counted() {
        let mut b = CooBuilder::new(6, 6);
        b.push_sym(0, 1);
        b.push_sym(2, 3);
        let a = b.build();
        let (p, stats, _) = pooled_rcm(&a, &mut RcmPool::new(PoolConfig::new(2)));
        assert_eq!(p.len(), 6);
        assert_eq!(stats.components, 4);
    }

    /// `k` disjoint edges over `2k` vertices scrambled by an affine map:
    /// `k` two-vertex components.
    fn scrambled_pairs(k: usize) -> CscMatrix {
        let n = 2 * k;
        let perm = |i: usize| ((i * 7919) % n) as Vidx;
        let mut b = CooBuilder::new(n, n);
        for i in 0..k {
            b.push_sym(perm(2 * i), perm(2 * i + 1));
        }
        b.build()
    }

    #[test]
    fn reseed_cursor_passes_each_vertex_once() {
        // 5·10⁴ components: a reseed scan over all n vertices per
        // component would step 5·10⁹ times.
        let a = scrambled_pairs(50_000);
        let mut pool = RcmPool::new(PoolConfig::new(2));
        let (_, stats, _) = pool.order_cm(&a, ExpandDirection::Push, &StartNode::GeorgeLiu);
        assert_eq!(stats.components, 50_000);
        assert!(
            pool.backend_ws.reseed_steps <= a.n_rows(),
            "reseed stepped {} times over {} vertices",
            pool.backend_ws.reseed_steps,
            a.n_rows()
        );
        let a = scrambled_pairs(10_000);
        let (cm, _, _) = pool.order_cm(&a, ExpandDirection::Push, &StartNode::GeorgeLiu);
        assert_eq!(cm.reversed(), crate::rcm(&a));
    }

    #[test]
    fn duplicate_candidates_keep_min_parent() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. From root 0, vertex 3 is reachable
        // from both 1 and 2; it must attach to the smaller label.
        let mut b = CooBuilder::new(4, 4);
        b.push_sym(0, 1);
        b.push_sym(0, 2);
        b.push_sym(1, 3);
        b.push_sym(2, 3);
        let a = b.build();
        let (p, _, _) = pooled_rcm(&a, &mut RcmPool::new(PoolConfig::new(2)));
        assert_eq!(p, crate::rcm(&a));
    }

    #[test]
    fn pool_reuse_across_matrices_is_clean() {
        let mut pool = RcmPool::new(PoolConfig::new(4));
        for (w, stride) in [(20usize, 13usize), (31, 17), (12, 7)] {
            let a = scrambled_grid(w, stride);
            let (got, _, _) = pooled_rcm(&a, &mut pool);
            assert_eq!(got, crate::rcm(&a), "{w}x{w} grid diverged");
        }
    }
}
