//! [`PooledBackend`]: the Table-I primitives on the work-stealing pool of
//! [`crate::pool`].
//!
//! The pool's level expansion (dynamic chunk claims → epoch-tagged
//! `fetch_min` claims → in-place filter of superseded candidates) *is* the
//! semiring SpMSpV fused with `SELECT`: [`RcmRuntime::spmspv`] runs one
//! [`LevelExecutor::expand`], whose output is already restricted to
//! unvisited vertices (the pool's unvisited bitmap mirrors both dense
//! companions) with minimum parent labels, in no particular order. The
//! trait's `SELECT` then re-filters (a no-op pass that keeps the contract
//! honest) and `SORTPERM` — a counting sort keyed on the parent label,
//! then `(degree, vertex)`, like the serial backend's — is the one sort of
//! a level.
//!
//! Lifecycle: construction is the *install* phase — the dense companions
//! live in the pool-owned [`PooledWorkspace`] (warm across orderings and
//! matrices; [`PooledBackend::new`] resets their active prefix, grow-only),
//! and the executor borrows the pool's persistent workers and arenas. One
//! `RcmPool` therefore serves any number of orderings with zero
//! steady-state growth of its install-managed buffers.
//!
//! Determinism: the pool's claim array converges to the same minima under
//! any interleaving, so every primitive returns the exact sequential value
//! for any thread count — the backend is bit-identical to
//! [`crate::backends::SerialBackend`]. The expansion takes two frontier
//! shapes, the two the driver builds: all values equal (BFS sweeps, level
//! stamps) or distinct consecutive labels (the ordering pass). A frontier
//! of any other shape is rejected with a panic.

use crate::driver::{DenseTarget, RcmRuntime};
use crate::pool::{LevelExecutor, PooledWorkspace};
use rcm_dist::Phase;
use rcm_sparse::{counting_sortperm, Label, Permutation, Vidx, UNVISITED};

/// Work-stealing shared-memory backend over a borrowed [`LevelExecutor`]
/// and the pool-owned [`PooledWorkspace`] (construct inside
/// [`crate::pool::RcmPool::run`] / [`crate::pool::RcmPool::run_warm`]).
pub struct PooledBackend<'x, 's> {
    exec: &'x mut LevelExecutor<'s>,
    ws: &'x mut PooledWorkspace,
    n: usize,
    phase: Phase,
    parallel_levels: usize,
}

impl<'x, 's> PooledBackend<'x, 's> {
    /// Backend over the executor's installed matrix and the pool-owned
    /// workspace. The pool's install pass (inside
    /// [`crate::pool::RcmPool::run`]) has already grown the workspace and
    /// reset its dense companions to unvisited, so construction allocates
    /// nothing.
    pub fn new(exec: &'x mut LevelExecutor<'s>, ws: &'x mut PooledWorkspace) -> Self {
        let n = exec.n();
        PooledBackend {
            exec,
            ws,
            n,
            phase: Phase::OrderingOther,
            parallel_levels: 0,
        }
    }

    /// The raw CM labels plus the count of frontier expansions that ran
    /// through the parallel pipeline (the rest fell under the pool's
    /// sequential cutover).
    pub fn into_order(self) -> (Vec<Label>, usize) {
        (self.ws.order[..self.n].to_vec(), self.parallel_levels)
    }

    /// The (unreversed) Cuthill-McKee permutation after
    /// [`crate::driver::drive_cm_with`], plus the parallel-expansion count.
    pub fn into_cm_permutation(self) -> (Permutation, usize) {
        let new_of_old: Vec<Vidx> = self.ws.order[..self.n].iter().map(|&l| l as Vidx).collect();
        (
            Permutation::from_new_of_old(new_of_old).expect("labels form a bijection"),
            self.parallel_levels,
        )
    }

    fn dense(&self, which: DenseTarget) -> &[Label] {
        match which {
            DenseTarget::Order => &self.ws.order[..self.n],
            DenseTarget::Levels => &self.ws.levels[..self.n],
        }
    }

    /// Load `x` into the pool's frontier array. Returns the label of
    /// position 0 and, for a uniform frontier, the shared value.
    ///
    /// When the stored values are the consecutive labels of the previous
    /// SORTPERM batch, position `k` of the pool frontier must hold the
    /// vertex labeled `base + k` so expansion emits true parent labels.
    /// When all values are equal (BFS sweeps, level stamps) positions are
    /// only dedup keys: entry order is used, and [`Self::expanded`] returns
    /// the shared value. Any other frontier is outside this backend's
    /// contract — the range and occupancy checks turn it into a loud panic
    /// instead of a silently corrupted frontier.
    fn load_frontier(&mut self, x: &[(Vidx, Label)]) -> (Vidx, Option<Label>) {
        const SHAPE: &str =
            "PooledBackend frontier values must be all-equal or distinct consecutive labels";
        let (lo, hi) = x
            .iter()
            .fold((Label::MAX, Label::MIN), |(lo, hi), &(_, value)| {
                (lo.min(value), hi.max(value))
            });
        let uniform = lo >= hi;
        self.exec.with_state(|_, frontier| {
            frontier.clear();
            if uniform {
                frontier.extend(x.iter().map(|&(v, _)| v));
                return;
            }
            assert!(hi.abs_diff(lo) == (x.len() - 1) as u64, "{SHAPE}");
            frontier.resize(x.len(), Vidx::MAX);
            for &(v, value) in x {
                frontier[(value - lo) as usize] = v;
            }
            assert!(!frontier.contains(&Vidx::MAX), "{SHAPE}");
        });
        if uniform {
            (0, Some(lo))
        } else {
            (lo as Vidx, None)
        }
    }

    /// The expansion just written to the candidate buffer, as a frontier
    /// carrying `shared` (a uniform frontier's value) or the parent labels;
    /// counts it when the parallel pipeline ran an ordering level.
    fn expanded(&mut self, parallel: bool, shared: Option<Label>) -> Vec<(Vidx, Label)> {
        if parallel && self.phase == Phase::OrderingSpmspv {
            self.parallel_levels += 1;
        }
        self.ws
            .cands
            .iter()
            .map(|&(v, p)| (v, shared.unwrap_or(p as Label)))
            .collect()
    }
}

impl RcmRuntime for PooledBackend<'_, '_> {
    /// `(vertex, value)` pairs; entry order is backend-private (whatever
    /// order the pool's expansion produced).
    type Frontier = Vec<(Vidx, Label)>;

    fn n(&self) -> usize {
        self.n
    }

    fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier {
        vec![(v, value)]
    }

    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool {
        !x.is_empty()
    }

    fn append(&mut self, acc: &mut Self::Frontier, x: &Self::Frontier) {
        acc.extend_from_slice(x);
    }

    fn stamp(&mut self, x: &mut Self::Frontier, value: Label) {
        for (_, v) in x.iter_mut() {
            *v = value;
        }
    }

    fn spmspv(&mut self, x: &Self::Frontier) -> Self::Frontier {
        let (base, shared) = self.load_frontier(x);
        let parallel = self.exec.expand(base, &mut self.ws.cands);
        self.expanded(parallel, shared)
    }

    fn expand_pull(&mut self, x: &Self::Frontier, _which: DenseTarget) -> Self::Frontier {
        // The pool's unvisited bitmap mirrors both dense companions for the
        // vertices the current component can reach, so it *is* the pull
        // mask — the bottom-up expansion already returns only unvisited
        // vertices, exactly what `SELECT` would keep.
        let (base, shared) = self.load_frontier(x);
        let parallel = self.exec.expand_pull(base, &mut self.ws.cands);
        self.expanded(parallel, shared)
    }

    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize {
        x.len()
    }

    fn pull_profitable(&self) -> bool {
        // Pull's shared-memory payoff is skipping the push kernel's
        // `fetch_min` claims, which only contend when workers actually run
        // concurrently.
        self.exec.nthreads() > 1
    }

    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        // The expansion already filtered against the pool's visited array
        // (which mirrors both companions), so this keeps everything — the
        // explicit filter documents and enforces the SELECT contract.
        let dense = self.dense(which);
        x.iter()
            .copied()
            .filter(|&(v, _)| dense[v as usize] == UNVISITED)
            .collect()
    }

    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier) {
        match which {
            DenseTarget::Order => {
                for &(v, value) in x {
                    self.ws.order[v as usize] = value;
                }
            }
            DenseTarget::Levels => {
                for &(v, value) in x {
                    self.ws.levels[v as usize] = value;
                    self.ws.touched.push(v);
                }
            }
        }
        self.exec.with_state(|unvisited, _| {
            for &(v, _) in x {
                unvisited.remove(v);
            }
        });
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        match which {
            DenseTarget::Order => self.ws.order[v as usize] = value,
            DenseTarget::Levels => {
                self.ws.levels[v as usize] = value;
                self.ws.touched.push(v);
            }
        }
        self.exec.with_state(|unvisited, _| {
            unvisited.remove(v);
        });
    }

    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget) {
        let dense = self.dense(which);
        for (v, value) in x.iter_mut() {
            *value = dense[*v as usize];
        }
    }

    fn reset_levels(&mut self) {
        // Undo the BFS marks (they all lie inside a not-yet-ordered
        // component, so unconditional unmarking is safe).
        for &v in &self.ws.touched {
            self.ws.levels[v as usize] = UNVISITED;
        }
        let touched = &self.ws.touched;
        self.exec.with_state(|unvisited, _| {
            for &v in touched {
                unvisited.insert(v);
            }
        });
        self.ws.touched.clear();
    }

    fn end_peripheral_search(&mut self) {
        // The BFS marks live in the shared unvisited bitmap the ordering
        // pass is about to own — roll them back.
        self.reset_levels();
    }

    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize) {
        // The pooled backend's only sort: the expansion's candidate set
        // comes in no particular order, and a two-pass counting sort keyed
        // on the batch's label range, then (degree, vertex), orders it —
        // the serial backend's SORTPERM.
        let degrees = self.exec.degrees();
        let sorted = counting_sortperm(x, batch, degrees, &mut self.ws.sort_scratch);
        let count = sorted.len();
        let labeled: Self::Frontier = sorted
            .iter()
            .enumerate()
            .map(|(k, &(_, v))| (v, nv + k as Label))
            .collect();
        (labeled, count)
    }

    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx> {
        let degrees = self.exec.degrees();
        x.iter()
            .map(|&(v, _)| v)
            .min_by_key(|&w| (degrees[w as usize], w))
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        // The first unlabeled vertex in `(degree, vertex)` order is the
        // minimum, and labels stay, so the cursor only moves forward: each
        // vertex is passed once per ordering.
        let ws = &mut *self.ws;
        while let Some(&v) = ws.by_degree.get(ws.cursor) {
            if ws.order[v as usize] == UNVISITED {
                return Some(v);
            }
            ws.cursor += 1;
            ws.reseed_steps += 1;
        }
        None
    }
}
