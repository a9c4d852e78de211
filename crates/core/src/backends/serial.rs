//! [`SerialBackend`]: the Table-I primitives on one core — the
//! *specification* backend every other one must match bit for bit (the
//! matrix-algebraic formulation, Algorithms 3–4).
//!
//! The backend's allocation lifecycle is split in two, the pattern every
//! backend follows since the engine refactor:
//!
//! * **construct** — [`SerialWorkspace::new`] allocates nothing; buffers
//!   grow to the first installed matrix and then only ever grow
//!   ([`SerialWorkspace::growth_events`] counts when).
//! * **install** — [`SerialBackend::warm`] binds a matrix to a workspace:
//!   the active prefixes of the dense companions are reset to unvisited and
//!   the degree vector recomputed, all without allocating when the matrix
//!   is no larger than any the workspace has seen.
//!
//! [`SerialBackend::finish`] hands the warm workspace back for the next
//! ordering; [`SerialBackend::new`] remains the one-shot convenience that
//! owns a fresh workspace. Inside the crate, `SerialWorkspace::order_cm`
//! runs all three steps — the one serial ordering body behind the engine
//! and the pool's batch jobs.
//!
//! Contract note — `SPMSPV` is fused with `SELECT`, as in the pooled
//! backend:
//!
//! * One unvisited bitmap mirrors both dense companions: a bit is set
//!   while its vertex is unvisited in `R` *and* in `L`.
//!   [`RcmRuntime::set_dense`] and [`RcmRuntime::set_dense_at`] clear bits
//!   (the driver writes only labels and levels, never `UNVISITED`).
//! * [`RcmRuntime::spmspv`] visits the frontier in ascending value order
//!   and *claims* every neighbour whose bit is still set on first touch: it
//!   clears the bit and returns the neighbour with the parent's value. The
//!   first toucher holds the smallest value, so each returned row carries
//!   its exact `(select2nd, min)` value; visited neighbours are never
//!   returned. The work count stays `Σ deg(frontier)`. It prefetches the
//!   column of the parent a few places ahead, because on shuffled inputs
//!   each column is a cache miss.
//! * [`RcmRuntime::expand_pull`] scans the unvisited rows against the
//!   dense frontier and stops a row at a neighbour holding the frontier's
//!   minimum, which no other neighbour can undercut (Beamer's early exit,
//!   [`rcm_sparse::spmspv_pull`]'s stop value). On a sweep's uniform
//!   frontier that is the row's first frontier neighbour, so
//!   [`RcmRuntime::pull_profitable`] is `true` and the driver's thresholds
//!   pull wide levels. The work count is the edges scanned.
//! * [`RcmRuntime::select_unvisited`] still filters against the dense
//!   companion, so each call site observes its specified result. The
//!   reference for `SPMSPV` alone is [`rcm_sparse::spmspv_ref`].
//! * Every `L` write lands in a touched list. [`RcmRuntime::reset_levels`]
//!   and [`RcmRuntime::end_peripheral_search`] restore the level marks and
//!   their bits through it in O(component); the driver writes `L` at every
//!   vertex a sweep claims. Between components the bitmap therefore holds
//!   exactly the unlabeled vertices.

use crate::driver::{
    drive_cm_with, DenseTarget, DriverStats, ExpandDirection, LabelingMode, RcmRuntime, StartNode,
};
use rcm_sparse::{
    counting_sortperm, spmspv_pull, CscMatrix, DenseFrontier, Label, Permutation, PullBuffer,
    Select2ndMin, SortpermScratch, VertexBitmap, Vidx, UNVISITED,
};

/// The grow-only, reusable state of a [`SerialBackend`]: the dense ordering
/// and level companions, the one unvisited bitmap that mirrors both, the
/// level-mark undo list, the degree vector, and the expansion scratch
/// (frontier placement, dense pull frontier, warm pull output buffer,
/// SORTPERM counting-sort scratch). Keep one per session and thread it
/// through successive orderings to amortize every allocation.
pub struct SerialWorkspace {
    degrees: Vec<Vidx>,
    order: Vec<Label>,
    levels: Vec<Label>,
    /// Vertices with `order[v] == UNVISITED` and `levels[v] == UNVISITED`,
    /// bit per vertex — less the ones the current expansion has claimed.
    unvisited: VertexBitmap,
    /// Vertices whose `levels` entry was written since the last reset.
    touched: Vec<Vidx>,
    /// A consecutive-label frontier's vertices, placed at `label - min`.
    parents: Vec<Vidx>,
    pull: DenseFrontier<Label>,
    pull_buf: PullBuffer<Label>,
    sort_scratch: SortpermScratch,
    growth_events: usize,
}

impl Default for SerialWorkspace {
    fn default() -> Self {
        SerialWorkspace::new()
    }
}

/// Reserve room for `n` entries in `v`; returns whether it had to grow.
fn reserve_to<T>(v: &mut Vec<T>, n: usize) -> bool {
    let grew = v.capacity() < n;
    v.reserve(n.saturating_sub(v.len()));
    grew
}

impl SerialWorkspace {
    /// Empty workspace; buffers grow on first install.
    pub fn new() -> Self {
        SerialWorkspace {
            degrees: Vec::new(),
            order: Vec::new(),
            levels: Vec::new(),
            unvisited: VertexBitmap::new(0),
            touched: Vec::new(),
            parents: Vec::new(),
            pull: DenseFrontier::new(0),
            pull_buf: PullBuffer::new(),
            sort_scratch: SortpermScratch::new(),
            growth_events: 0,
        }
    }

    /// Times any buffer had to grow (the first install counts once). A
    /// warm workspace re-installed on matrices no larger than any it has
    /// seen reports a stable count.
    pub fn growth_events(&self) -> usize {
        self.growth_events + self.pull_buf.growth_events() + self.sort_scratch.growth_events()
    }

    /// Bind an `n`-vertex matrix: recompute degrees, reset the active
    /// prefix of both dense companions and the bitmap, pre-grow the
    /// expansion scratch. Grow-only — no allocation when `n` is within the
    /// high-water mark.
    fn install(&mut self, a: &CscMatrix) {
        let n = a.n_rows();
        let dense_grew = self.order.capacity() < n || self.degrees.capacity() < n;
        a.degrees_into(&mut self.degrees);
        if self.order.len() < n {
            self.order.resize(n, UNVISITED);
            self.levels.resize(n, UNVISITED);
        }
        self.order[..n].fill(UNVISITED);
        self.levels[..n].fill(UNVISITED);
        self.touched.clear();
        // Pre-grow the shape-dependent scratch to its n-bounded ceiling so
        // growth stays monotone in the matrix size: a sweep's level marks,
        // a frontier, a level's pull results and SORTPERM entries are all
        // ≤ n, but their per-level peaks do not track n (a 200-vertex star
        // has a fatter level than a bigger grid), so without this a warm
        // workspace could grow on a smaller matrix.
        let scratch_grew = reserve_to(&mut self.touched, n) | reserve_to(&mut self.parents, n);
        if dense_grew | self.unvisited.reset_ones(n) | scratch_grew {
            self.growth_events += 1;
        }
        self.pull.ensure(n);
        self.pull_buf.ensure(n);
        self.sort_scratch.ensure(n);
    }

    /// One whole Cuthill-McKee ordering of `a` through this warm workspace
    /// (install, drive, hand the workspace back): the unreversed CM
    /// permutation and the driver record.
    pub(crate) fn order_cm(
        &mut self,
        a: &CscMatrix,
        direction: ExpandDirection,
        start_node: &StartNode,
    ) -> (Permutation, DriverStats) {
        let mut rt = SerialBackend::warm(a, std::mem::take(self));
        let stats = drive_cm_with(&mut rt, LabelingMode::PerLevel, direction, start_node);
        let (cm, ws) = rt.finish();
        *self = ws;
        (cm, stats)
    }

    /// Place a frontier that holds each value of `lo..=hi` exactly once at
    /// `value - lo` (the ordering pass's consecutive labels); `false` when
    /// the values are not such a run.
    fn place_consecutive(&mut self, x: &[(Vidx, Label)], lo: Label, hi: Label) -> bool {
        if hi.abs_diff(lo) != (x.len() - 1) as u64 {
            return false;
        }
        self.parents.clear();
        self.parents.resize(x.len(), Vidx::MAX);
        for &(v, value) in x {
            let slot = &mut self.parents[(value - lo) as usize];
            if *slot != Vidx::MAX {
                return false;
            }
            *slot = v;
        }
        true
    }
}

/// How many parents ahead of the one being claimed [`RcmRuntime::spmspv`]
/// prefetches a column (and twice as far ahead, the column's bounds). On
/// shuffled inputs every parent's column is a cache miss, and one parent's
/// claim loop is too long for the core to run ahead into the next parent
/// on its own.
const PREFETCH_AHEAD: usize = 4;

/// Ask the cache for the line holding `p`; off x86_64 it does nothing.
#[inline(always)]
fn prefetch<T>(p: &T) {
    // SAFETY: a prefetch is a hint that never dereferences and cannot
    // fault.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((p as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Claim for parents `parent(0)`, `parent(1)`, … `parent(len - 1)`, in
/// that order, each a `(vertex, value)` pair. Returns the edges scanned.
///
/// Prefetching runs in two stages: the column bounds of the parent
/// `2 · PREFETCH_AHEAD` places ahead, so that finding the column of the
/// parent [`PREFETCH_AHEAD`] places ahead does not miss, and that column's
/// first lines: one 64-byte line of 16 row indices, a second past 16
/// entries, a third past 32. Claims, values and the work count do not
/// depend on it.
fn claim_all(
    a: &CscMatrix,
    unvisited: &mut VertexBitmap,
    len: usize,
    parent: impl Fn(usize) -> (Vidx, Label),
    out: &mut Vec<(Vidx, Label)>,
) -> usize {
    let mut work = 0;
    for i in 0..len {
        if i + 2 * PREFETCH_AHEAD < len {
            prefetch(&a.col_ptr()[parent(i + 2 * PREFETCH_AHEAD).0 as usize]);
        }
        if i + PREFETCH_AHEAD < len {
            let col = a.col(parent(i + PREFETCH_AHEAD).0 as usize);
            col.iter().step_by(16).take(3).for_each(prefetch);
        }
        let (v, value) = parent(i);
        work += claim(a, unvisited, v, value, out);
    }
    work
}

/// The smallest and largest value in `x`, or `None` when it is empty.
fn value_range(x: &[(Vidx, Label)]) -> Option<(Label, Label)> {
    let values = x.iter().map(|&(_, value)| value);
    Some((values.clone().min()?, values.max()?))
}

/// Claim every neighbour of `v` whose bit is still set for `value`: emit
/// the neighbour and clear its bit. Returns the edges scanned.
#[inline]
fn claim(
    a: &CscMatrix,
    unvisited: &mut VertexBitmap,
    v: Vidx,
    value: Label,
    out: &mut Vec<(Vidx, Label)>,
) -> usize {
    let col = a.col(v as usize);
    let first = out.len();
    // A column holds each row once, so the scan can test the bits as they
    // stood before this parent and clear the claimed ones afterwards: the
    // per-edge loop stores nothing.
    let words = unvisited.words();
    out.extend(
        col.iter()
            .filter(|&&w| words[w as usize / 64] >> (w % 64) & 1 != 0)
            .map(|&w| (w, value)),
    );
    for &(w, _) in &out[first..] {
        unvisited.remove(w);
    }
    col.len()
}

/// Sequential reference backend.
pub struct SerialBackend<'a> {
    a: &'a CscMatrix,
    n: usize,
    ws: SerialWorkspace,
    spmspv_work: usize,
}

impl<'a> SerialBackend<'a> {
    /// One-shot backend over a square symmetric pattern matrix (a fresh
    /// workspace per call; use [`SerialBackend::warm`] to amortize).
    pub fn new(a: &'a CscMatrix) -> Self {
        SerialBackend::warm(a, SerialWorkspace::new())
    }

    /// Backend over `a` reusing a warm workspace from a previous ordering
    /// (the engine's install phase). Recover the workspace afterwards with
    /// [`SerialBackend::finish`].
    pub fn warm(a: &'a CscMatrix, mut ws: SerialWorkspace) -> Self {
        assert_eq!(a.n_rows(), a.n_cols(), "RCM needs a square matrix");
        ws.install(a);
        SerialBackend {
            a,
            n: a.n_rows(),
            ws,
            spmspv_work: 0,
        }
    }

    fn dense(&self, which: DenseTarget) -> &[Label] {
        match which {
            DenseTarget::Order => &self.ws.order[..self.n],
            DenseTarget::Levels => &self.ws.levels[..self.n],
        }
    }

    /// The raw Cuthill-McKee labels after [`crate::driver::drive_cm_with`].
    pub fn into_order(self) -> Vec<Label> {
        self.ws.order[..self.n].to_vec()
    }

    /// The (unreversed) Cuthill-McKee permutation after
    /// [`crate::driver::drive_cm_with`].
    pub fn into_cm_permutation(self) -> Permutation {
        self.finish().0
    }

    /// The (unreversed) Cuthill-McKee permutation plus the warm workspace,
    /// ready for the next install.
    pub fn finish(self) -> (Permutation, SerialWorkspace) {
        let new_of_old: Vec<Vidx> = self.ws.order[..self.n].iter().map(|&l| l as Vidx).collect();
        (
            Permutation::from_new_of_old(new_of_old).expect("labels form a bijection"),
            self.ws,
        )
    }
}

impl RcmRuntime for SerialBackend<'_> {
    /// `(vertex, value)` pairs in no particular order.
    type Frontier = Vec<(Vidx, Label)>;

    fn n(&self) -> usize {
        self.n
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier {
        vec![(v, value)]
    }

    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool {
        !x.is_empty()
    }

    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize {
        x.len()
    }

    fn pull_profitable(&self) -> bool {
        // The pull stops each row at its first frontier neighbour on a
        // sweep's uniform frontier (Beamer's early exit), so on a wide
        // level it reads fewer edges than the claiming push, which scans
        // every frontier column in full. The driver's thresholds decide
        // per level.
        true
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
        // Parents in ascending value order, so each claim's first toucher
        // carries the minimum: a uniform frontier (sweeps, level stamps)
        // as it is, consecutive labels (the ordering pass) placed by
        // `label - min`, anything else sorted by value.
        let Some((lo, hi)) = value_range(x) else {
            return Vec::new();
        };
        let (a, ws) = (self.a, &mut self.ws);
        let mut out = Vec::new();
        let work = if lo == hi {
            claim_all(a, &mut ws.unvisited, x.len(), |i| (x[i].0, lo), &mut out)
        } else if ws.place_consecutive(x, lo, hi) {
            let parents = &ws.parents;
            let parent = |i: usize| (parents[i], lo + i as Label);
            claim_all(a, &mut ws.unvisited, parents.len(), parent, &mut out)
        } else {
            let mut sorted = x.clone();
            sorted.sort_unstable_by_key(|&(v, value)| (value, v));
            claim_all(a, &mut ws.unvisited, sorted.len(), |i| sorted[i], &mut out)
        };
        self.spmspv_work += work;
        out
    }

    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        let dense = self.dense(which);
        x.iter()
            .copied()
            .filter(|&(v, _)| dense[v as usize] == UNVISITED)
            .collect()
    }

    fn expand_pull(&mut self, x: &Self::Frontier, _which: DenseTarget) -> Self::Frontier {
        // Sparse → dense conversion of the dual representation, then the
        // bitmap-masked row-scan kernel over the unvisited rows (all-visited
        // words cost one compare each) into the warm output buffer. The one
        // bitmap is exact for either companion: a sweep's frontier reaches
        // only its own, still unlabeled, component. A row stops at a
        // neighbour holding the frontier's minimum (the contract note).
        let stop = value_range(x).map(|(lo, _)| lo);
        let ws = &mut self.ws;
        ws.pull.clear();
        for &(v, value) in x {
            ws.pull.insert(v, value);
        }
        self.spmspv_work += spmspv_pull::<Label, Select2ndMin>(
            self.a,
            &ws.pull,
            &ws.unvisited,
            stop,
            &mut ws.pull_buf,
        );
        ws.pull_buf.entries().to_vec()
    }

    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier) {
        for &(v, value) in x {
            self.set_dense_at(which, v, value);
        }
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        let ws = &mut self.ws;
        match which {
            DenseTarget::Order => ws.order[v as usize] = value,
            DenseTarget::Levels => {
                ws.levels[v as usize] = value;
                ws.touched.push(v);
            }
        }
        ws.unvisited.remove(v);
    }

    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget) {
        let dense = self.dense(which);
        for (v, value) in x.iter_mut() {
            *value = dense[*v as usize];
        }
    }

    fn reset_levels(&mut self) {
        let ws = &mut self.ws;
        for &v in &ws.touched {
            ws.levels[v as usize] = UNVISITED;
            if ws.order[v as usize] == UNVISITED {
                ws.unvisited.insert(v);
            }
        }
        ws.touched.clear();
    }

    fn end_peripheral_search(&mut self) {
        // The sweep's marks cleared bits the ordering pass and the next
        // reseed read — roll them back.
        self.reset_levels();
    }

    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize) {
        // Parent labels fall in the previous level's half-open `batch`
        // range, so a two-pass counting sort keyed on the label replaces
        // the full (value, degree, vertex) tuple sort — bit-identical
        // because the per-bucket (degree, vertex) sort is the same
        // tie-break over unique vertex ids.
        let ws = &mut self.ws;
        let sorted = counting_sortperm(x, batch, &ws.degrees, &mut ws.sort_scratch);
        let labeled: Self::Frontier = sorted.iter().zip(nv..).map(|(&(_, v), l)| (v, l)).collect();
        let count = labeled.len();
        (labeled, count)
    }

    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx> {
        x.iter()
            .map(|&(v, _)| v)
            .min_by_key(|&w| (self.ws.degrees[w as usize], w))
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        // Iterate the unvisited bitmap instead of testing every label:
        // fully visited 64-vertex words cost one compare each, and the
        // ascending-index iteration keeps the tie-break identical.
        self.ws
            .unvisited
            .ones()
            .min_by_key(|&v| (self.ws.degrees[v as usize], v))
    }

    fn spmspv_work(&self) -> usize {
        self.spmspv_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rcm;
    use crate::testutil::scrambled_grid;
    use rcm_sparse::{matrix_bandwidth, CooBuilder};

    /// RCM through the serial driver — the matrix-algebraic formulation
    /// (Algorithms 3–4) on one core.
    fn serial_driver_rcm(a: &CscMatrix) -> (Permutation, DriverStats) {
        let (cm, stats) =
            SerialWorkspace::new().order_cm(a, ExpandDirection::from_env(), &StartNode::GeorgeLiu);
        (cm.reversed(), stats)
    }

    fn scrambled_path(n: usize, stride: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        b.build()
            .permute_sym(&Permutation::from_new_of_old(perm).unwrap())
    }

    #[test]
    fn algebraic_equals_classical_on_path() {
        let a = scrambled_path(40, 13);
        assert_eq!(serial_driver_rcm(&a).0, rcm(&a));
    }

    #[test]
    fn algebraic_equals_classical_on_grid() {
        let a = scrambled_grid(9, 23);
        let (alg, stats) = serial_driver_rcm(&a);
        assert_eq!(alg, rcm(&a));
        assert_eq!(stats.components, 1);
        assert!(stats.spmspv_work > 0);
    }

    #[test]
    fn algebraic_handles_components() {
        let mut b = CooBuilder::new(7, 7);
        b.push_sym(0, 1);
        b.push_sym(2, 3);
        b.push_sym(3, 4);
        let a = b.build();
        let (p, stats) = serial_driver_rcm(&a);
        assert_eq!(p.len(), 7);
        assert_eq!(stats.components, 4); // {0,1}, {2,3,4}, {5}, {6}
        assert_eq!(p, rcm(&a));
    }

    #[test]
    fn algebraic_rcm_reduces_bandwidth() {
        let a = scrambled_path(60, 17);
        let (p, _) = serial_driver_rcm(&a);
        assert_eq!(matrix_bandwidth(&a.permute_sym(&p)), 1);
    }

    #[test]
    fn adaptive_pull_stops_early_and_matches_push() {
        // Wide middle levels (2000 vertices, average degree 62): the
        // adaptive policy pulls there, and a sweep's pull stops each row at
        // its first frontier neighbour, where the push scans every frontier
        // column in full.
        let a = rcm_graphgen::erdos_renyi_connected(2000, 60_000, 3);
        let order =
            |direction| SerialWorkspace::new().order_cm(&a, direction, &StartNode::GeorgeLiu);
        let (push_cm, push) = order(ExpandDirection::Push);
        let (cm, adaptive) = order(ExpandDirection::Adaptive);
        assert!(adaptive.pull_expands > 0, "adaptive never pulled");
        assert!(
            2 * adaptive.spmspv_work < push.spmspv_work,
            "adaptive read {} edges, push {}",
            adaptive.spmspv_work,
            push.spmspv_work
        );
        assert_eq!(cm, push_cm);
        assert_eq!(cm.reversed(), rcm(&a));
    }

    #[test]
    fn empty_matrix() {
        let (p, _) = serial_driver_rcm(&CscMatrix::empty(0));
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn single_vertex() {
        let (p, stats) = serial_driver_rcm(&CscMatrix::empty(1));
        assert_eq!(p.len(), 1);
        assert_eq!(stats.components, 1);
        assert_eq!(stats.levels, 0);
    }
}
