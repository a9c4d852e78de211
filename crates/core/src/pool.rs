//! Work-stealing shared-memory execution backend for the level-synchronous
//! RCM of [`crate::backends::PooledBackend`] — the SpMP-style baseline of
//! Table II.
//!
//! The original backend split each frontier statically into `nthreads`
//! contiguous chunks and spawned fresh OS threads *per level*, so one heavy
//! chunk (a few high-degree vertices) held the whole level hostage and the
//! spawn overhead swamped thin levels — scaling plateaued past ~4 threads.
//! This module replaces it with a pool of **persistent workers** (spawned
//! once per [`RcmPool`], parked on a condvar gate between jobs, joined on
//! drop — they survive across orderings and across matrices) and a dynamic
//! three-phase pipeline per parallel level:
//!
//! 1. **Expansion** — workers claim fixed-size frontier chunks from a
//!    [`ChunkQueue`] (one atomic claim counter; a thread that finishes its
//!    chunk immediately steals the next one), emit
//!    `(vertex, parent label, degree)` candidates into their own reusable
//!    arena buffer, and `fetch_min` the epoch-tagged parent label into a
//!    shared per-vertex claim array.
//! 2. **Merge/dedup** — after a barrier, each worker filters its own
//!    candidates: `(w, p)` survives iff the claim array still holds `p`
//!    for `w`. Because `min` is commutative and every `(w, p)` pair is
//!    emitted exactly once, the surviving set is the minimum-parent set of
//!    the `(select2nd, min)` semiring regardless of interleaving — a
//!    merge/dedup with no comparison sort and no serial bottleneck.
//!    Survivors are routed to the worker owning their *parent* range,
//!    mirroring the AllToAll of the paper's distributed bucket `SORTPERM`
//!    (§IV-B).
//! 3. **Bucket sort** — parent labels of a frontier are contiguous (they
//!    were assigned consecutively last level), so each worker places its
//!    received tuples into per-parent buckets by streaming (linear work, no
//!    comparison sort across buckets) and sorts each bucket by
//!    `(degree, vertex)`. Concatenating the workers' segments in parent
//!    order yields the `(parent label, degree, vertex)` ordering.
//!
//! Every phase is deterministic: the claim array converges to the same
//! minima under any interleaving, and within a parent bucket the
//! `(degree, vertex)` key is unique, so the result is bit-identical to the
//! sequential algorithm for *any* thread count, chunk size, or claim
//! interleaving. All scratch buffers are owned by the [`RcmPool`] and
//! reused across levels, components, orderings, and matrices — the claim
//! array's level epochs are **monotone for the pool's lifetime**, so a new
//! ordering needs no `O(n)` invalidation pass, and
//! [`RcmPool::growth_events`] exposes when the install-managed buffers last
//! had to grow (a pool that has seen an `n`-vertex matrix installs any
//! smaller one without allocating).
//!
//! **Pull levels.** The direction-optimizing driver can run a level
//! bottom-up instead: the coordinator scatters the frontier into a dense
//! per-vertex parent-label array (`Vidx::MAX` = not in frontier), and the
//! expansion phase claims chunks of the *vertex range* `0..n` — each worker
//! walks the *unvisited bitmap* ([`VertexBitmap`]) over its chunk, so a
//! fully visited 64-vertex word costs one compare, and scans each surviving
//! row's adjacency for the minimum frontier label. Because every row is
//! computed by exactly one worker, pull needs **no atomic dedup at all**
//! (the `fetch_min` claim array sits idle); the merge phase routes
//! candidates to their parent-range owners unchanged and the bucket sort is
//! shared verbatim, so a pull level yields the byte-identical
//! `(parent, degree, vertex)` stream a push level would.
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
//! workers, two [`Barrier`] waits between phases, one condvar signal back
//! to the coordinator. Levels below [`PoolConfig::seq_cutoff`] never touch
//! the workers.

use crate::backends::{PooledBackend, SerialWorkspace};
use crate::driver::{drive_cm_with, DriverStats, ExpandDirection, LabelingMode, StartNode};
use rcm_sparse::{CscMatrix, Label, Permutation, VertexBitmap, Vidx, UNVISITED};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, RwLock};

/// Frontier size below which a level is expanded on the calling thread.
///
/// Releasing and re-parking the worker pool costs a few microseconds per
/// level; below this many frontier vertices the sequential path wins. This
/// is the cutover the old backend hard-coded at 256 inside `expand_level`;
/// it is now a field of [`PoolConfig`] (`seq_cutoff`) so benchmarks can
/// sweep it.
pub const DEFAULT_SEQ_CUTOFF: usize = 256;

/// Default work-stealing claim granularity (frontier vertices per chunk).
///
/// Small enough that a straggler chunk cannot dominate a level, large
/// enough that the atomic claim counter stays off the profile.
pub const DEFAULT_CHUNK: usize = 64;

/// Configuration of the shared-memory execution backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads (also the fan-out of the merge and bucket phases).
    pub nthreads: usize,
    /// Frontiers smaller than this are expanded sequentially
    /// ([`DEFAULT_SEQ_CUTOFF`]).
    pub seq_cutoff: usize,
    /// Frontier vertices per work-stealing claim ([`DEFAULT_CHUNK`]).
    pub chunk: usize,
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

/// Candidate emitted during frontier expansion:
/// `(vertex, parent label, degree)` — lexicographic order groups duplicates
/// of a vertex with the minimum parent label first.
pub(crate) type Candidate = (Vidx, Vidx, Vidx);

/// Claim-array tag of a level: high 32 bits hold the *complement* of the
/// level epoch, so newer levels always `fetch_min` below stale entries and
/// the array needs no clearing between levels — or between orderings, since
/// the epoch counter is monotone for the pool's lifetime; the low 32 bits
/// hold the parent label, so within a level the minimum parent wins.
fn claim_tag(epoch: u64) -> u64 {
    debug_assert!(epoch > 0 && epoch <= u32::MAX as u64, "epoch out of range");
    ((!(epoch as u32)) as u64) << 32
}

/// What the gate posted: one parallel frontier expansion, or a batch of
/// whole sequential orderings.
#[derive(Clone, Copy)]
enum JobKind {
    /// One level of the three-phase pipeline.
    Level {
        /// Label of `frontier[0]` for the posted level.
        base_label: Vidx,
        /// Run the bottom-up (pull) expansion phase.
        pull: bool,
    },
    /// Whole sequential orderings, claimed one matrix at a time
    /// (`RcmPool::order_cm_batch`).
    Batch,
}

/// Coordinator→worker task descriptor plus the completion count.
struct GateState {
    /// Bumped once per posted job; workers run when it changes. Monotone
    /// for the pool's lifetime (this is also the claim-array epoch).
    epoch: u64,
    /// The posted job.
    job: JobKind,
    /// Workers exit their loop when set.
    shutdown: bool,
    /// Workers done with the current job.
    done: usize,
    /// First worker panic of the job, re-thrown by the coordinator (a
    /// panicking worker must not leave its siblings stuck on the barrier).
    panic: Option<Box<dyn std::any::Any + Send>>,
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
    degrees: *const Vidx,
    degrees_len: usize,
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

/// One worker's outbox for the merge phase: surviving candidates for
/// destination worker `k` occupy `buf[offs[k]..offs[k + 1]]`.
///
/// This used to be `Vec<Vec<Candidate>>` — one push-grown `Vec` per
/// destination. The flat form is filled by a two-pass counting sort (count
/// survivors per destination, prefix-sum, scatter), so the merge phase
/// makes two linear passes over the candidate buffer and never grows more
/// than one allocation, no matter how many workers it routes to.
#[derive(Default)]
struct RouteBox {
    buf: Vec<Candidate>,
    /// `nthreads + 1` segment offsets into `buf`.
    offs: Vec<u32>,
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
    cands: Vec<RwLock<Vec<Candidate>>>,
    routes: Vec<RwLock<RouteBox>>,
    sorted: Vec<RwLock<Vec<Candidate>>>,
    claims: Vec<AtomicUsize>,
    /// Per-vertex epoch-tagged minimum-parent claims (see [`claim_tag`];
    /// push levels only — pull computes each vertex exactly once). Grown
    /// under the write lock while the workers are parked; never cleared.
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

    /// Advance the gate epoch for a new job, recycling the 32-bit claim-tag
    /// space before it can wrap: when the epoch reaches `u32::MAX` the
    /// claim array is cleared once (an `O(n)` pass every 2³² jobs) and the
    /// count restarts — so "stale claims never match or win" holds for the
    /// pool's entire lifetime, not just its first 4 billion levels. Called
    /// only while every worker is parked (the posting sites hold the gate).
    fn bump_epoch(&self, st: &mut GateState) {
        if st.epoch >= u32::MAX as u64 {
            for b in self.best.write().unwrap().iter() {
                b.store(u64::MAX, Ordering::Relaxed);
            }
            st.epoch = 0;
        }
        st.epoch += 1;
    }
}

/// The dense companions and scratch of [`crate::backends::PooledBackend`],
/// owned by the pool so they stay warm across orderings: the ordering
/// vector `R`, the BFS level vector `L`, the level-mark undo list, and the
/// candidate buffer the backend's frontier conversions reuse.
#[derive(Default)]
pub struct PooledWorkspace {
    pub(crate) order: Vec<Label>,
    pub(crate) levels: Vec<Label>,
    pub(crate) touched: Vec<Vidx>,
    pub(crate) cands: Vec<Candidate>,
    pub(crate) sort_scratch: rcm_sparse::SortpermScratch,
}

impl PooledWorkspace {
    /// Bind an `n`-vertex matrix: reset the active prefix of both dense
    /// companions to unvisited (grow-only — installing a matrix no larger
    /// than any seen before allocates nothing). Returns whether any buffer
    /// had to grow.
    fn install(&mut self, n: usize) -> bool {
        let grew = self.order.capacity() < n;
        if self.order.len() < n {
            self.order.resize(n, UNVISITED);
            self.levels.resize(n, UNVISITED);
        }
        self.order[..n].fill(UNVISITED);
        self.levels[..n].fill(UNVISITED);
        self.touched.clear();
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
    /// Sequential-path scratch (coordinator-local).
    seq_cand: Vec<Candidate>,
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
        Self::starting_at_epoch(config, 0)
    }

    /// [`RcmPool::new`] with the gate epoch starting at `epoch`. The
    /// workers are spawned knowing it, so none of them mistakes the
    /// starting epoch for a posted job (the wraparound tests start near
    /// `u32::MAX` because they cannot post 2³² real jobs).
    fn starting_at_epoch(config: PoolConfig, epoch: u64) -> Self {
        let nthreads = config.nthreads.max(1);
        let config = PoolConfig { nthreads, ..config };
        let shared = Arc::new(PoolShared {
            config,
            unvisited: RwLock::new(VertexBitmap::new(0)),
            frontier: RwLock::new(Vec::new()),
            pull_labels: RwLock::new(Vec::new()),
            cands: (0..nthreads).map(|_| RwLock::new(Vec::new())).collect(),
            routes: (0..nthreads)
                .map(|_| RwLock::new(RouteBox::default()))
                .collect(),
            sorted: (0..nthreads).map(|_| RwLock::new(Vec::new())).collect(),
            claims: (0..nthreads).map(|_| AtomicUsize::new(0)).collect(),
            best: RwLock::new(Vec::new()),
            queue: ChunkQueue::new(0, config.chunk),
            barrier: Barrier::new(nthreads),
            gate: Gate {
                state: Mutex::new(GateState {
                    epoch,
                    job: JobKind::Level {
                        base_label: 0,
                        pull: false,
                    },
                    shutdown: false,
                    done: 0,
                    panic: None,
                }),
                start: Condvar::new(),
                finished: Condvar::new(),
            },
            job: Mutex::new(JobData {
                a: std::ptr::null(),
                degrees: std::ptr::null(),
                degrees_len: 0,
                batch: std::ptr::null(),
            }),
        });
        let workers = if nthreads > 1 {
            (0..nthreads)
                .map(|tid| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared, tid, epoch))
                })
                .collect()
        } else {
            Vec::new()
        };
        RcmPool {
            config,
            shared,
            workers,
            seq_cand: Vec::new(),
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
    /// prefix reset. The claim array is *not* cleared — level epochs are
    /// monotone, so stale claims can never match or win again.
    fn install(&mut self, n: usize) {
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
        grew |= self.backend_ws.install(n);
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
        self.install(a.n_rows());
        {
            let mut job = self.shared.job.lock().unwrap();
            job.a = a;
            job.degrees = degrees.as_ptr();
            job.degrees_len = degrees.len();
            job.batch = std::ptr::null();
        }
        let result = {
            let mut exec = LevelExecutor {
                shared: &self.shared,
                seq_cand: &mut self.seq_cand,
                a,
                degrees,
            };
            driver(&mut exec, &mut self.backend_ws)
        };
        let mut job = self.shared.job.lock().unwrap();
        job.a = std::ptr::null();
        job.degrees = std::ptr::null();
        job.degrees_len = 0;
        drop(job);
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
        {
            let mut slot = self.shared.job.lock().unwrap();
            slot.a = std::ptr::null();
            slot.batch = &job;
        }
        {
            let mut st = self.shared.lock_gate();
            self.shared.bump_epoch(&mut st);
            st.job = JobKind::Batch;
            st.done = 0;
            self.shared.gate.start.notify_all();
        }
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
        let workers_panic = {
            let mut st = self.shared.lock_gate();
            while st.done < self.config.nthreads {
                st = self
                    .shared
                    .gate
                    .finished
                    .wait(st)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            st.panic.take()
        };
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
/// dispatches each expansion to the sequential path or the worker pool.
pub struct LevelExecutor<'s> {
    shared: &'s PoolShared,
    seq_cand: &'s mut Vec<Candidate>,
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
    /// per vertex) sorted by `(parent label, degree, vertex)`, ready for
    /// labeling. Returns `true` when the parallel pipeline ran.
    pub(crate) fn expand(&mut self, base_label: Vidx, out: &mut Vec<Candidate>) -> bool {
        out.clear();
        let config = &self.shared.config;
        let plen = self.shared.frontier.read().unwrap().len();
        if config.nthreads == 1 || plen < config.seq_cutoff.max(1) {
            self.expand_sequential(base_label, out);
            return false;
        }
        self.run_parallel_level(plen, base_label, false, out);
        true
    }

    /// Bottom-up (pull) expansion of the current frontier: scan every
    /// unvisited vertex's adjacency against the dense frontier-label array
    /// instead of expanding the frontier's columns. Produces the identical
    /// `(parent, degree, vertex)` candidate stream as [`Self::expand`].
    /// Returns `true` when the parallel pipeline ran.
    pub(crate) fn expand_pull(&mut self, base_label: Vidx, out: &mut Vec<Candidate>) -> bool {
        out.clear();
        let config = &self.shared.config;
        let n = self.a.n_rows();
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
        let parallel = !(config.nthreads == 1 || n < config.seq_cutoff.max(1));
        if parallel {
            self.run_parallel_level(n, base_label, true, out);
        } else {
            self.expand_pull_sequential(out);
        }
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

    /// Post one parallel level (`queue_len` claimable items) and collect
    /// the workers' sorted segments into `out`.
    fn run_parallel_level(
        &mut self,
        queue_len: usize,
        base_label: Vidx,
        pull: bool,
        out: &mut Vec<Candidate>,
    ) {
        let config = &self.shared.config;
        // Post the level and park until the last worker reports in.
        self.shared.queue.reset_chunked(queue_len, config.chunk);
        {
            let mut st = self.shared.lock_gate();
            self.shared.bump_epoch(&mut st);
            st.job = JobKind::Level { base_label, pull };
            st.done = 0;
            self.shared.gate.start.notify_all();
            while st.done < config.nthreads {
                st = self
                    .shared
                    .gate
                    .finished
                    .wait(st)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            if let Some(payload) = st.panic.take() {
                // The workers are parked again (each caught its own
                // unwind); propagate the original panic to the caller. The
                // pool's arena locks may be poisoned now — the pool must
                // not be reused after a propagated panic.
                drop(st);
                std::panic::resume_unwind(payload);
            }
        }
        // Concatenate the workers' segments in parent-range order: the
        // global (parent, degree, vertex) ordering.
        for sorted in &self.shared.sorted {
            out.extend_from_slice(&sorted.read().unwrap());
        }
    }

    /// Single-thread path for small frontiers: emit, sort, dedup, reorder.
    fn expand_sequential(&mut self, base_label: Vidx, out: &mut Vec<Candidate>) {
        let sh = self.shared;
        let unvisited_guard = sh.unvisited.read().unwrap();
        let unvisited: &VertexBitmap = &unvisited_guard;
        let frontier_guard = sh.frontier.read().unwrap();
        let frontier: &[Vidx] = &frontier_guard;
        self.seq_cand.clear();
        for (off, &v) in frontier.iter().enumerate() {
            let parent = base_label + off as Vidx;
            for &w in self.a.col(v as usize) {
                if unvisited.contains(w) {
                    self.seq_cand.push((w, parent, self.degrees[w as usize]));
                }
            }
        }
        self.seq_cand.sort_unstable();
        let mut last: Option<Vidx> = None;
        for &c in self.seq_cand.iter() {
            if last != Some(c.0) {
                last = Some(c.0);
                out.push(c);
            }
        }
        out.sort_unstable_by_key(|&(v, parent, deg)| (parent, deg, v));
    }

    /// Single-thread pull path: walk the unvisited bitmap (fully visited
    /// 64-vertex words cost one compare) and scan each surviving row
    /// against the dense pull-label array. Each vertex is computed exactly
    /// once, so no dedup pass is needed — only the final
    /// `(parent, degree, vertex)` reorder.
    fn expand_pull_sequential(&mut self, out: &mut Vec<Candidate>) {
        let sh = self.shared;
        let unvisited_guard = sh.unvisited.read().unwrap();
        let labels_guard = sh.pull_labels.read().unwrap();
        let labels: &[Vidx] = &labels_guard;
        for v in unvisited_guard.ones() {
            let mut best = Vidx::MAX;
            for &w in self.a.col(v as usize) {
                let l = labels[w as usize];
                if l < best {
                    best = l;
                }
            }
            if best != Vidx::MAX {
                out.push((v, best, self.degrees[v as usize]));
            }
        }
        out.sort_unstable_by_key(|&(v, parent, deg)| (parent, deg, v));
    }
}

/// Worker body: park on the gate, run the posted job (one level of the
/// three-phase pipeline, or a share of a batch of whole orderings), report
/// completion, repeat until shutdown. The serial workspace for batch jobs
/// is worker-local and stays warm for the pool's lifetime. `last_epoch`
/// is the gate epoch the pool started at.
fn worker_loop(shared: &PoolShared, tid: usize, mut last_epoch: u64) {
    let mut hist: Vec<u32> = Vec::new();
    let mut cursors: Vec<u32> = Vec::new();
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
            JobKind::Level { base_label, pull } => run_level(
                shared,
                tid,
                base_label,
                pull,
                last_epoch,
                &mut hist,
                &mut cursors,
            ),
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
fn run_batch_share(
    shared: &PoolShared,
    ws: &mut SerialWorkspace,
) -> Result<(), Box<dyn std::any::Any + Send>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(|| {
        // Safety: the batch pointer is installed by `order_cm_batch`, which
        // does not return before this worker reports done.
        let job: &BatchJob = unsafe { &*shared.job.lock().unwrap().batch };
        while let Some(range) = shared.queue.claim() {
            for i in range {
                let a = unsafe { &*job.mats[i] };
                let result = ws.order_cm(a, job.direction, &job.start_node);
                *job.outs[i].lock().unwrap() = Some(result);
            }
        }
    }))
}

/// One worker's share of the three-phase pipeline for one level.
///
/// Each phase body runs under `catch_unwind` with the barriers *outside*
/// the catch: a panicking worker still arrives at both barriers and still
/// reports completion, so its siblings and the coordinator never hang —
/// the first payload travels back through the gate and is re-thrown on the
/// coordinator. (Locks it held while panicking are poisoned, so the pool
/// must not be reused after a propagated panic — the unwind makes that the
/// natural outcome.)
fn run_level(
    shared: &PoolShared,
    tid: usize,
    base_label: Vidx,
    pull: bool,
    epoch: u64,
    hist: &mut Vec<u32>,
    cursors: &mut Vec<u32>,
) -> Result<(), Box<dyn std::any::Any + Send>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let nw = shared.config.nthreads;
    let tag = claim_tag(epoch);
    // Safety: the matrix/degree pointers are installed by `RcmPool::run`,
    // which keeps the borrows alive until after this worker reports done.
    let (a, degrees) = {
        let job = shared.job.lock().unwrap();
        unsafe {
            (
                &*job.a,
                std::slice::from_raw_parts(job.degrees, job.degrees_len),
            )
        }
    };

    // --- Phase 1: dynamic expansion ------------------------------------
    // Push: claim frontier chunks, emit each unvisited neighbour with its
    // parent label and `fetch_min` the minimum-parent claim. Pull: claim
    // vertex-range chunks and walk the unvisited bitmap over each chunk —
    // a fully visited 64-vertex word costs one compare — scanning each
    // surviving row's adjacency against the dense frontier-label array;
    // each vertex is computed by exactly one worker, so no claims are
    // needed.
    let r1 = catch_unwind(AssertUnwindSafe(|| {
        let unvisited_guard = shared.unvisited.read().unwrap();
        let unvisited: &VertexBitmap = &unvisited_guard;
        let frontier_guard = shared.frontier.read().unwrap();
        let frontier: &[Vidx] = &frontier_guard;
        let labels_guard = shared.pull_labels.read().unwrap();
        let labels: &[Vidx] = &labels_guard;
        let best_guard = shared.best.read().unwrap();
        let best: &[AtomicU64] = &best_guard;
        let mut cand = shared.cands[tid].write().unwrap();
        cand.clear();
        let mut claimed = 0usize;
        while let Some(range) = shared.queue.claim() {
            claimed += 1;
            if pull {
                for v in unvisited.ones_in(range) {
                    let mut min_label = Vidx::MAX;
                    for &w in a.col(v as usize) {
                        let l = labels[w as usize];
                        if l < min_label {
                            min_label = l;
                        }
                    }
                    if min_label != Vidx::MAX {
                        cand.push((v, min_label, degrees[v as usize]));
                    }
                }
            } else {
                for off in range {
                    let parent = base_label + off as Vidx;
                    for &w in a.col(frontier[off] as usize) {
                        if unvisited.contains(w) {
                            cand.push((w, parent, degrees[w as usize]));
                            best[w as usize].fetch_min(tag | parent as u64, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        shared.claims[tid].store(claimed, Ordering::Relaxed);
    }));
    shared.barrier.wait();

    // --- Phase 2: merge/dedup (claim-array filter) + routing -----------
    let r2 = if r1.is_ok() {
        catch_unwind(AssertUnwindSafe(|| {
            // Push: each (vertex, parent) pair was emitted by exactly one
            // worker, so keeping the pairs whose claim survived yields the
            // unique minimum-parent set with no cross-worker comparison at
            // all. Pull: candidates are already unique minima — routing
            // only. Routing is a two-pass counting sort into the flat
            // outbox (count survivors per destination, prefix-sum,
            // scatter) instead of per-destination `Vec` pushes; within a
            // destination segment the scatter preserves candidate order,
            // so the stream each owner receives is unchanged.
            let plen = shared.frontier.read().unwrap().len();
            let best_guard = shared.best.read().unwrap();
            let best: &[AtomicU64] = &best_guard;
            let cand = shared.cands[tid].read().unwrap();
            let survives = |c: &Candidate| {
                pull || best[c.0 as usize].load(Ordering::Relaxed) == tag | c.1 as u64
            };
            let mut route = shared.routes[tid].write().unwrap();
            let rb = &mut *route;
            rb.offs.clear();
            rb.offs.resize(nw + 1, 0);
            for c in cand.iter() {
                if survives(c) {
                    rb.offs[bucket_owner((c.1 - base_label) as usize, plen, nw) + 1] += 1;
                }
            }
            for k in 1..=nw {
                rb.offs[k] += rb.offs[k - 1];
            }
            rb.buf.clear();
            rb.buf.resize(rb.offs[nw] as usize, (0, 0, 0));
            // Scatter, advancing offs[k] in place; shift back afterwards so
            // offs[k]..offs[k + 1] is destination k's segment again.
            for &c in cand.iter() {
                if survives(&c) {
                    let k = bucket_owner((c.1 - base_label) as usize, plen, nw);
                    rb.buf[rb.offs[k] as usize] = c;
                    rb.offs[k] += 1;
                }
            }
            for k in (1..=nw).rev() {
                rb.offs[k] = rb.offs[k - 1];
            }
            rb.offs[0] = 0;
        }))
    } else {
        Ok(())
    };
    shared.barrier.wait();

    // --- Phase 3: streaming bucket sort over this worker's parent range -
    let r3 = if r1.is_ok() && r2.is_ok() {
        catch_unwind(AssertUnwindSafe(|| {
            let plen = shared.frontier.read().unwrap().len();
            let routes: Vec<_> = shared.routes.iter().map(|r| r.read().unwrap()).collect();
            fn inbox(rb: &RouteBox, tid: usize) -> &[Candidate] {
                &rb.buf[rb.offs[tid] as usize..rb.offs[tid + 1] as usize]
            }
            let mut sorted = shared.sorted[tid].write().unwrap();
            let range = bucket_range(tid, plen, nw);
            let width = range.len();
            hist.clear();
            hist.resize(width + 1, 0);
            for rb in routes.iter() {
                for &(_, parent, _) in inbox(rb, tid) {
                    hist[(parent - base_label) as usize - range.start + 1] += 1;
                }
            }
            for b in 0..width {
                hist[b + 1] += hist[b];
            }
            sorted.clear();
            sorted.resize(hist[width] as usize, (0, 0, 0));
            cursors.clear();
            cursors.extend_from_slice(&hist[..width]);
            for rb in routes.iter() {
                for &c in inbox(rb, tid) {
                    let b = (c.1 - base_label) as usize - range.start;
                    sorted[cursors[b] as usize] = c;
                    cursors[b] += 1;
                }
            }
            // Within a parent bucket the (degree, vertex) key is unique, so
            // the placement order above cannot leak into the result.
            for b in 0..width {
                let (s, e) = (hist[b] as usize, hist[b + 1] as usize);
                sorted[s..e].sort_unstable_by_key(|&(v, _, deg)| (deg, v));
            }
        }))
    } else {
        Ok(())
    };
    r1.and(r2).and(r3)
}

/// Which bucket worker owns parent offset `off` of a `plen`-wide frontier.
fn bucket_owner(off: usize, plen: usize, nworkers: usize) -> usize {
    off * nworkers / plen
}

/// The parent-offset range bucket worker `k` owns — the exact preimage of
/// [`bucket_owner`], so routing and placement always agree.
fn bucket_range(k: usize, plen: usize, nworkers: usize) -> Range<usize> {
    (k * plen).div_ceil(nworkers)..((k + 1) * plen).div_ceil(nworkers)
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

    #[test]
    fn bucket_owner_matches_bucket_range() {
        for (plen, nw) in [(1usize, 4usize), (5, 4), (256, 3), (1000, 16), (17, 17)] {
            let mut covered = 0usize;
            for k in 0..nw {
                for off in bucket_range(k, plen, nw) {
                    assert_eq!(bucket_owner(off, plen, nw), k, "plen={plen} nw={nw}");
                    covered += 1;
                }
            }
            assert_eq!(covered, plen, "ranges must partition plen={plen}");
        }
    }

    /// Run one expansion over `frontier` with the given pool and return
    /// the candidate list plus whether the parallel path ran.
    fn expand_once(
        pool: &mut RcmPool,
        a: &CscMatrix,
        degrees: &[Vidx],
        frontier: &[Vidx],
        base_label: Vidx,
    ) -> (Vec<Candidate>, bool) {
        pool.run(a, degrees, |exec, _ws| {
            exec.with_state(|unvisited, f| {
                for &v in frontier {
                    unvisited.remove(v);
                }
                f.extend_from_slice(frontier);
            });
            let mut out = Vec::new();
            let parallel = exec.expand(base_label, &mut out);
            (out, parallel)
        })
    }

    #[test]
    fn parallel_pipeline_matches_sequential_expansion() {
        // Dense-ish deterministic graph: one fat frontier, many duplicate
        // candidates crossing worker boundaries.
        let n = 900usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n {
            for s in [1usize, 7, 31, 113] {
                let w = (v + s) % n;
                if w != v {
                    b.push_sym(v as Vidx, w as Vidx);
                }
            }
        }
        let a = b.build();
        let degrees = a.degrees();
        let frontier: Vec<Vidx> = (0..300).map(|i| (i * 3) as Vidx).collect();

        let mut seq_pool = RcmPool::new(PoolConfig::new(1));
        let (expect, par) = expand_once(&mut seq_pool, &a, &degrees, &frontier, 40);
        assert!(!par);
        assert!(!expect.is_empty());

        for nthreads in [2usize, 3, 8] {
            let mut pool = RcmPool::new(PoolConfig {
                nthreads,
                seq_cutoff: 1, // force the parallel path
                chunk: 16,
            });
            let (got, par) = expand_once(&mut pool, &a, &degrees, &frontier, 40);
            assert!(par);
            assert_eq!(got, expect, "{nthreads} threads diverged");
        }
    }

    #[test]
    fn persistent_workers_survive_many_runs() {
        // The same pool executes parallel levels across repeated runs —
        // the workers are spawned once at construction and reused.
        let n = 600usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n {
            for s in [1usize, 13, 57] {
                let w = (v + s) % n;
                if w != v {
                    b.push_sym(v as Vidx, w as Vidx);
                }
            }
        }
        let a = b.build();
        let degrees = a.degrees();
        let frontier: Vec<Vidx> = (0..200).map(|i| (i * 2) as Vidx).collect();
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 3,
            seq_cutoff: 1,
            chunk: 8,
        });
        let (expect, par) = expand_once(&mut pool, &a, &degrees, &frontier, 10);
        assert!(par);
        for round in 0..5 {
            let (got, par) = expand_once(&mut pool, &a, &degrees, &frontier, 10);
            assert!(par);
            assert_eq!(got, expect, "round {round} diverged on the warm pool");
        }
    }

    #[test]
    fn claim_tags_survive_the_epoch_wraparound() {
        // The claim-tag space is 32 bits wide; a pool that lives past 2³²
        // posted jobs must recycle it. The hardest case: the level at
        // epoch u32::MAX writes tag-0 entries (the complement of the
        // epoch) into the claim array — the smallest possible tags, which
        // would win every future `fetch_min` — and the very next level
        // wraps. Without the recycling clear, the post-wrap filter would
        // reject every candidate and drop vertices from the frontier.
        let n = 900usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n {
            for s in [1usize, 7, 31] {
                let w = (v + s) % n;
                if w != v {
                    b.push_sym(v as Vidx, w as Vidx);
                }
            }
        }
        let a = b.build();
        let degrees = a.degrees();
        let frontier: Vec<Vidx> = (0..300).map(|i| (i * 3) as Vidx).collect();
        let mut seq_pool = RcmPool::new(PoolConfig::new(1));
        let (expect, _) = expand_once(&mut seq_pool, &a, &degrees, &frontier, 40);
        let mut pool = RcmPool::starting_at_epoch(
            PoolConfig {
                nthreads: 3,
                seq_cutoff: 1,
                chunk: 16,
            },
            u32::MAX as u64 - 1,
        );
        for round in 0..4 {
            // Rounds post epochs MAX, then wrap → 1, 2, 3.
            let (got, par) = expand_once(&mut pool, &a, &degrees, &frontier, 40);
            assert!(par);
            assert_eq!(got, expect, "round {round} diverged across the wrap");
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
        // A too-short degree slice makes a worker panic mid-expansion; the
        // panic must surface on the caller promptly (previously the
        // siblings deadlocked on the barrier and the test would hang).
        let n = 800usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        let a = b.build();
        let degrees = a.degrees();
        // Even vertices in the frontier → odd neighbours become candidates,
        // whose degree lookups overrun the truncated slice.
        let frontier: Vec<Vidx> = (0..400).map(|i| (i * 2) as Vidx).collect();
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 3,
            seq_cutoff: 1,
            chunk: 16,
        });
        let short = &degrees[..1];
        let _ = expand_once(&mut pool, &a, short, &frontier, 0);
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
