//! Sequential sparse matrix–sparse vector multiplication over a semiring —
//! both expansion directions of the direction-optimizing frontier layer.
//!
//! **Push** ([`spmspv`]) — `SPMSPV(A, x, SR)` (Table I): for every stored
//! entry `x[k]`, visit column `A(:, k)` and merge the products into the
//! output with the semiring's `add`. The serial complexity is
//! `Σ_{k ∈ IND(x)} nnz(A(:, k))` — proportional to the *frontier's* edges.
//!
//! **Pull** ([`spmspv_pull`]) — the Beamer-style bottom-up dual for
//! symmetric patterns: every *candidate* row `r` scans its own adjacency
//! `A(:, r)` and merges the values of the neighbours present in a dense
//! frontier ([`DenseFrontier`]). Complexity is proportional to the
//! *candidates'* edges, independent of frontier size — cheaper than push
//! exactly when the frontier is a large fraction of the unvisited vertices.
//! An optional stop value ends a row's scan once nothing can change its
//! result (Beamer's early exit). For a symmetric `A` the two directions
//! produce bit-identical results (row `r`'s in-neighbours are its
//! out-neighbours).
//!
//! The push implementation uses a *sparse accumulator* (SPA): a dense value
//! scratchpad plus a stamp array, reusable across calls via
//! [`SpmspvWorkspace`] so each multiplication allocates nothing. The pull
//! implementation needs no accumulator at all — each output row is finished
//! the moment its scan ends. Its candidate set is a [`VertexBitmap`]
//! scanned a `u64` word at a time (fully visited 64-vertex stretches cost
//! one compare), and its output lands in a warm [`PullBuffer`], so a warm
//! pull level allocates nothing either.

use crate::bitmap::VertexBitmap;
use crate::csc::CscMatrix;
use crate::frontier::DenseFrontier;
use crate::semiring::Semiring;
use crate::spvec::SparseVec;
use crate::Vidx;

/// Reusable scratch space for [`spmspv`] — a classic stamped sparse
/// accumulator sized to the number of matrix rows.
pub struct SpmspvWorkspace<T> {
    values: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<Vidx>,
    growth_events: usize,
}

impl<T: Copy + Default> SpmspvWorkspace<T> {
    /// Workspace for matrices with `n_rows` rows.
    pub fn new(n_rows: usize) -> Self {
        SpmspvWorkspace {
            values: vec![T::default(); n_rows],
            stamp: vec![0; n_rows],
            epoch: 0,
            touched: Vec::new(),
            growth_events: if n_rows > 0 { 1 } else { 0 },
        }
    }

    /// Times [`SpmspvWorkspace::ensure`] had to grow the accumulator
    /// (a non-empty construction counts once) — the grow-only contract the
    /// engine's growth-event tests assert on: a workspace that has seen an
    /// `n`-row matrix serves any smaller one without allocating.
    pub fn growth_events(&self) -> usize {
        self.growth_events
    }

    /// Grow (never shrinks) to accommodate `n_rows`.
    pub fn ensure(&mut self, n_rows: usize) {
        if self.values.len() < n_rows {
            self.values.resize(n_rows, T::default());
            self.stamp.resize(n_rows, 0);
            self.growth_events += 1;
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrapped around: reset to keep correctness.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }
}

impl<T: Copy + Default> Default for SpmspvWorkspace<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Multiply pattern matrix `a` by sparse vector `x` over semiring `S`.
///
/// Returns a sparse vector of length `a.n_rows()` whose entry at row `r` is
/// the semiring-sum of `S::multiply(x[k])` over all stored `(r, k)` with
/// `x[k]` stored. Output entries are sorted by index.
///
/// Also returns the number of traversed matrix nonzeros (the serial work
/// `Σ nnz(A(:, k))`), which the distributed simulator charges as compute.
pub fn spmspv<T, S>(
    a: &CscMatrix,
    x: &SparseVec<T>,
    ws: &mut SpmspvWorkspace<T>,
) -> (SparseVec<T>, usize)
where
    T: Copy + Default,
    S: Semiring<T>,
{
    assert_eq!(a.n_cols(), x.len(), "dimension mismatch in SpMSpV");
    ws.ensure(a.n_rows());
    ws.begin();
    let mut work = 0usize;
    for &(k, xv) in x.entries() {
        let col = a.col(k as usize);
        work += col.len();
        let prod = S::multiply(xv);
        for &r in col {
            let ri = r as usize;
            if ws.stamp[ri] == ws.epoch {
                ws.values[ri] = S::add(ws.values[ri], prod);
            } else {
                ws.stamp[ri] = ws.epoch;
                ws.values[ri] = prod;
                ws.touched.push(r);
            }
        }
    }
    ws.touched.sort_unstable();
    let entries: Vec<(Vidx, T)> = ws
        .touched
        .iter()
        .map(|&r| (r, ws.values[r as usize]))
        .collect();
    (SparseVec::from_sorted_entries(a.n_rows(), entries), work)
}

/// Warm, workspace-owned output buffer for [`spmspv_pull`].
///
/// The pull kernel appends its `(row, value)` results here instead of
/// allocating a fresh `Vec` every level; once the buffer has reached its
/// high-water capacity, steady-state calls allocate nothing. Growth is
/// counted so the engine's grow-only tests can assert the high-water
/// contract, mirroring [`SpmspvWorkspace::growth_events`] on the push side.
#[derive(Default)]
pub struct PullBuffer<T> {
    entries: Vec<(Vidx, T)>,
    growth_events: usize,
}

impl<T: Copy> PullBuffer<T> {
    /// An empty buffer (first non-trivial use will count one growth event).
    pub fn new() -> Self {
        PullBuffer {
            entries: Vec::new(),
            growth_events: 0,
        }
    }

    /// The kernel's output: candidate rows with at least one frontier
    /// neighbour, in ascending row order, valid until the next pull call.
    pub fn entries(&self) -> &[(Vidx, T)] {
        &self.entries
    }

    /// Times the backing store had to grow — flat once warm.
    pub fn growth_events(&self) -> usize {
        self.growth_events
    }

    /// Pre-grow the backing store to its `n`-vertex high-water mark (a pull
    /// never yields more than `n` rows). Install-time warm-up: after this,
    /// pulls during an `n`-vertex ordering allocate nothing, however the
    /// per-level result sizes fall.
    pub fn ensure(&mut self, n: usize) {
        if self.entries.capacity() < n {
            self.entries.reserve(n - self.entries.len());
            self.growth_events += 1;
        }
    }

    /// Copy the entries out as a [`SparseVec`] of length `n` (the same
    /// O(nnz) copy the push kernel pays to package its accumulator).
    pub fn to_sparse(&self, n: usize) -> SparseVec<T> {
        SparseVec::from_sorted_entries(n, self.entries.clone())
    }
}

/// Pull (bottom-up) expansion over a symmetric pattern: for every row `r`
/// in the `candidates` bitmap, the semiring-sum of `S::multiply(x[w])` over
/// the frontier neighbours `w` of `r`.
///
/// This is the masked row-scan dual of [`spmspv`] + `SELECT`: because `a`
/// is symmetric, scanning `A(:, r)` enumerates exactly the columns whose
/// push expansion would reach `r`, so the buffer ends up equal to
/// `spmspv(a, x).select(candidates)` **bit for bit** (the
/// `(select2nd, min)` semiring included) while touching
/// `Σ_{r ∈ candidates} nnz(A(:, r))` matrix entries instead of
/// `Σ_{k ∈ IND(x)} nnz(A(:, k))`.
///
/// The candidate set is consumed a 64-vertex word at a time: an all-zero
/// word — a fully visited stretch — costs one compare, and within a live
/// word rows are extracted bit by bit, so the membership test never touches
/// one byte per vertex the way a `Vec<bool>` mask does. Each row runs a
/// branch-light accumulator seeded with [`Semiring::identity`] (no
/// `Option` in the inner loop). Results land in `buf` (cleared first);
/// nothing is allocated once `buf` is at its high-water capacity.
///
/// `stop` is Beamer's early exit: a row stops scanning as soon as its
/// accumulator equals `stop`. That is exact only when no further frontier
/// neighbour can change an accumulator holding `stop` — for
/// `(select2nd, min)`, `stop` must be the smallest value stored in `x`
/// (on a uniform frontier a row then stops at its first frontier
/// neighbour). `None` scans every candidate row to its end.
///
/// Returns the number of traversed matrix nonzeros — only the edges the
/// scan actually read (candidate rows, each up to its stop), which is what
/// `DriverStats` and the simulator should charge for this kernel.
pub fn spmspv_pull<T, S>(
    a: &CscMatrix,
    x: &DenseFrontier<T>,
    candidates: &VertexBitmap,
    stop: Option<T>,
    buf: &mut PullBuffer<T>,
) -> usize
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    let n = a.n_rows();
    assert_eq!(
        n,
        a.n_cols(),
        "pull expansion needs a square (symmetric) pattern"
    );
    // `>=`, not `==`: warm candidate sets and dense frontiers keep their
    // high-water length across matrices (grow-only contract). The last
    // scanned word is masked to `n` bits, so stale candidate bits beyond
    // the matrix are ignored; stale frontier entries belong to older
    // epochs and are invisible to `get`.
    assert!(
        x.len() >= n && candidates.len() >= n,
        "dimension mismatch in pull SpMSpV: frontier {} / candidates {} < rows {}",
        x.len(),
        candidates.len(),
        n
    );
    let cap_before = buf.entries.capacity();
    buf.entries.clear();
    let mut work = 0usize;
    // Without a stop value a found neighbour costs one bool test more.
    let (stops, stop) = (stop.is_some(), stop.unwrap_or_default());
    let words = candidates.words();
    for (wi, &word) in words.iter().enumerate().take(n.div_ceil(64)) {
        let mut bits = word;
        if wi == n / 64 && !n.is_multiple_of(64) {
            bits &= (1u64 << (n % 64)) - 1;
        }
        // One compare retires 64 fully-visited vertices.
        while bits != 0 {
            let r = wi * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let col = a.col(r);
            let mut acc = S::identity();
            let mut found = false;
            // What is left of `rest` when a row stops is what it did not
            // read.
            let mut rest = col;
            while let [w, tail @ ..] = rest {
                rest = tail;
                if let Some(xv) = x.get(*w) {
                    acc = S::add(acc, S::multiply(xv));
                    found = true;
                    if stops && acc == stop {
                        break;
                    }
                }
            }
            work += col.len() - rest.len();
            if found {
                buf.entries.push((r as Vidx, acc));
            }
        }
    }
    if buf.entries.capacity() > cap_before {
        buf.growth_events += 1;
    }
    work
}

/// Closure-masked reference implementation of the pull expansion — the
/// pre-bitmap kernel, kept for differential tests and as the "old pull"
/// baseline in the kernel microbenchmarks. Allocates its output and tests
/// candidacy one row at a time.
///
/// Returns the output (sorted by index, candidate rows with at least one
/// frontier neighbour only) and the number of traversed matrix nonzeros.
pub fn spmspv_pull_ref<T, S>(
    a: &CscMatrix,
    x: &DenseFrontier<T>,
    candidate: impl Fn(Vidx) -> bool,
) -> (SparseVec<T>, usize)
where
    T: Copy + Default,
    S: Semiring<T>,
{
    assert_eq!(
        a.n_rows(),
        a.n_cols(),
        "pull expansion needs a square (symmetric) pattern"
    );
    assert!(
        x.len() >= a.n_rows(),
        "dimension mismatch in pull SpMSpV: frontier {} < rows {}",
        x.len(),
        a.n_rows()
    );
    let mut entries: Vec<(Vidx, T)> = Vec::new();
    let mut work = 0usize;
    for r in 0..a.n_rows() {
        let rv = r as Vidx;
        if !candidate(rv) {
            continue;
        }
        let col = a.col(r);
        work += col.len();
        let mut acc: Option<T> = None;
        for &w in col {
            if let Some(xv) = x.get(w) {
                let prod = S::multiply(xv);
                acc = Some(match acc {
                    Some(old) => S::add(old, prod),
                    None => prod,
                });
            }
        }
        if let Some(v) = acc {
            entries.push((rv, v));
        }
    }
    (SparseVec::from_sorted_entries(a.n_rows(), entries), work)
}

/// Naive reference implementation (dense accumulation, fresh allocation) for
/// differential testing of [`spmspv`] and of the distributed version.
pub fn spmspv_ref<T, S>(a: &CscMatrix, x: &SparseVec<T>) -> SparseVec<T>
where
    T: Copy + Default,
    S: Semiring<T>,
{
    assert_eq!(a.n_cols(), x.len());
    let mut acc: Vec<Option<T>> = vec![None; a.n_rows()];
    for &(k, xv) in x.entries() {
        let prod = S::multiply(xv);
        for &r in a.col(k as usize) {
            let slot = &mut acc[r as usize];
            *slot = Some(match *slot {
                Some(old) => S::add(old, prod),
                None => prod,
            });
        }
    }
    let entries: Vec<(Vidx, T)> = acc
        .iter()
        .enumerate()
        .filter_map(|(r, v)| v.map(|v| (r as Vidx, v)))
        .collect();
    SparseVec::from_sorted_entries(a.n_rows(), entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;
    use crate::semiring::Select2ndMin;

    /// The 8-vertex example of Figure 2 in the paper.
    ///
    /// Vertices a..h = 0..7; BFS tree rooted at a; current frontier {e, b}
    /// with labels e=2, b=3; expected next frontier {c, f, g} where c picks
    /// parent e (label 2) over b (label 3).
    fn figure2_matrix() -> CscMatrix {
        let mut b = CooBuilder::new(8, 8);
        // Edges from the figure: a-b, a-e, b-c, b-d, e-c, e-f, c-g, f-g, d-h?
        // (The figure shows: a adj {b, e}; b adj {a, c, d}; e adj {a, c, f};
        //  c adj {b, e, g}; d adj {b}; f adj {e, g}; g adj {c, f}; h isolated-ish via d.)
        let edges = [
            (0, 1),
            (0, 4),
            (1, 2),
            (1, 3),
            (4, 2),
            (4, 5),
            (2, 6),
            (5, 6),
            (3, 7),
        ];
        for (u, v) in edges {
            b.push_sym(u, v);
        }
        b.build()
    }

    #[test]
    fn figure2_example_minimum_parent_label_wins() {
        let a = figure2_matrix();
        // Frontier: e (vertex 4) labeled 2, b (vertex 1) labeled 3.
        let x = SparseVec::from_entries(8, vec![(4, 2i64), (1, 3)]);
        let mut ws = SpmspvWorkspace::new(8);
        let (y, work) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        // Neighbours of {e, b}: a, c, f (from e), a, c, d (from b).
        // Output rows: a(0), c(2), d(3), f(5).
        let got: Vec<_> = y.entries().to_vec();
        assert_eq!(got, vec![(0, 2), (2, 2), (3, 3), (5, 2)]);
        // Work = deg(e) + deg(b) = 3 + 3.
        assert_eq!(work, 6);
    }

    #[test]
    fn matches_reference_on_figure2() {
        let a = figure2_matrix();
        let x = SparseVec::from_entries(8, vec![(4, 2i64), (1, 3)]);
        let mut ws = SpmspvWorkspace::new(8);
        let (y, _) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        let yref = spmspv_ref::<i64, Select2ndMin>(&a, &x);
        assert_eq!(y, yref);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let a = figure2_matrix();
        let x: SparseVec<i64> = SparseVec::new(8);
        let mut ws = SpmspvWorkspace::new(8);
        let (y, work) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        assert!(y.is_empty());
        assert_eq!(work, 0);
    }

    #[test]
    fn workspace_reuse_across_calls_is_clean() {
        let a = figure2_matrix();
        let mut ws = SpmspvWorkspace::new(8);
        let x1 = SparseVec::from_entries(8, vec![(0, 0i64)]);
        let (y1, _) = spmspv::<i64, Select2ndMin>(&a, &x1, &mut ws);
        assert_eq!(y1.entries(), &[(1, 0), (4, 0)]);
        // Second call must not see stale accumulator state.
        let x2 = SparseVec::from_entries(8, vec![(7, 9i64)]);
        let (y2, _) = spmspv::<i64, Select2ndMin>(&a, &x2, &mut ws);
        assert_eq!(y2.entries(), &[(3, 9)]);
    }

    /// Bitmap over `n` vertices holding exactly the `keep` ones.
    fn bitmap_where(n: usize, keep: impl Fn(Vidx) -> bool) -> VertexBitmap {
        let mut b = VertexBitmap::new(n);
        for v in 0..n as Vidx {
            if keep(v) {
                b.insert(v);
            }
        }
        b
    }

    #[test]
    fn pull_matches_push_plus_select_on_figure2() {
        let a = figure2_matrix();
        // Frontier {e=2, b=3}; pretend a, d are already visited so the mask
        // keeps only c, f (and the never-reached g, h).
        let x = SparseVec::from_entries(8, vec![(4, 2i64), (1, 3)]);
        let visited = [true, true, false, true, true, false, false, false];
        let mut ws = SpmspvWorkspace::new(8);
        let (push, _) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        let expect = push.select(&visited, |v| !v);
        let mut dense = DenseFrontier::new(8);
        dense.load(&x);
        let cands = bitmap_where(8, |r| !visited[r as usize]);
        let mut buf = PullBuffer::new();
        let work = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        assert_eq!(buf.to_sparse(8), expect);
        // Work = Σ deg over candidate rows c, f, g, h = 3 + 2 + 2 + 1.
        assert_eq!(work, 8);
        // The closure-masked reference kernel agrees entirely.
        let (pull_ref, work_ref) =
            spmspv_pull_ref::<i64, Select2ndMin>(&a, &dense, |r| !visited[r as usize]);
        assert_eq!(pull_ref, expect);
        assert_eq!(work_ref, work);
    }

    #[test]
    fn pull_equals_push_for_every_mask_on_figure2() {
        let a = figure2_matrix();
        let x = SparseVec::from_entries(8, vec![(0, 5i64), (2, 1), (6, 4)]);
        let mut dense = DenseFrontier::new(8);
        dense.load(&x);
        let mut ws = SpmspvWorkspace::new(8);
        let mut buf = PullBuffer::new();
        let (push, _) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        for mask_bits in 0u16..256 {
            let keep = |r: Vidx| mask_bits & (1 << r) != 0;
            let expect = push.select(&[0u8, 1, 2, 3, 4, 5, 6, 7], |i| keep(i as Vidx));
            let cands = bitmap_where(8, keep);
            spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
            assert_eq!(buf.to_sparse(8), expect, "mask {mask_bits:#b} diverged");
            let (pull_ref, _) = spmspv_pull_ref::<i64, Select2ndMin>(&a, &dense, keep);
            assert_eq!(pull_ref, expect, "mask {mask_bits:#b} diverged (ref)");
        }
    }

    #[test]
    fn pull_stop_value_keeps_the_output_and_cuts_uniform_work() {
        // The frontier's minimum as the stop value, on a uniform frontier
        // {b, e} = 5 and on consecutive labels {e = 2, b = 3}, under every
        // candidate mask: the same rows and values as the full scan.
        let a = figure2_matrix();
        let mut dense = DenseFrontier::new(8);
        let mut buf = PullBuffer::new();
        for (entries, min) in [(vec![(1, 5i64), (4, 5)], 5), (vec![(4, 2i64), (1, 3)], 2)] {
            dense.load(&SparseVec::from_entries(8, entries));
            for mask_bits in 0u16..256 {
                let cands = bitmap_where(8, |r| mask_bits & (1 << r) != 0);
                let full = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
                let expect = buf.entries().to_vec();
                let stopped =
                    spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, Some(min), &mut buf);
                assert_eq!(buf.entries(), expect, "stop {min}, mask {mask_bits:#b}");
                assert!(stopped <= full, "stop {min}, mask {mask_bits:#b}");
            }
        }
        // All rows on the uniform frontier: a, c, d, f stop at b or e,
        // their first frontier neighbour, so 13 of the 18 edges are read.
        let mut cands = VertexBitmap::new(8);
        cands.reset_ones(8);
        dense.load(&SparseVec::from_entries(8, vec![(1, 5i64), (4, 5)]));
        let full = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        let stopped = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, Some(5), &mut buf);
        assert_eq!((full, stopped), (18, 13));
    }

    #[test]
    fn pull_on_empty_frontier_scans_but_emits_nothing() {
        let a = figure2_matrix();
        let dense: DenseFrontier<i64> = DenseFrontier::new(8);
        let mut cands = VertexBitmap::new(8);
        cands.reset_ones(8);
        let mut buf = PullBuffer::new();
        let work = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        assert!(buf.entries().is_empty());
        assert_eq!(work, a.nnz(), "pull pays for every candidate row scanned");
        let (y, work_ref) = spmspv_pull_ref::<i64, Select2ndMin>(&a, &dense, |_| true);
        assert!(y.is_empty());
        assert_eq!(work_ref, work);
    }

    #[test]
    fn pull_work_charges_only_scanned_rows() {
        let a = figure2_matrix();
        let x = SparseVec::from_entries(8, vec![(4, 2i64)]);
        let mut dense = DenseFrontier::new(8);
        dense.load(&x);
        let mut buf = PullBuffer::new();
        // No candidates: nothing scanned, zero work.
        let empty = VertexBitmap::new(8);
        assert_eq!(
            spmspv_pull::<i64, Select2ndMin>(&a, &dense, &empty, None, &mut buf),
            0
        );
        // Candidates {c, f} only: work = deg(c) + deg(f) = 3 + 2, not nnz.
        let cands = bitmap_where(8, |r| r == 2 || r == 5);
        assert_eq!(
            spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf),
            5
        );
    }

    #[test]
    fn pull_word_skip_crosses_word_boundaries() {
        // A 130-vertex path: words 0 and 1 hold no candidates and must be
        // skipped; candidates live in word 2 only.
        let n = 130usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, v as Vidx + 1);
        }
        let a = b.build();
        let x = SparseVec::from_entries(n, vec![(127, 7i64)]);
        let mut dense = DenseFrontier::new(n);
        dense.load(&x);
        let cands = bitmap_where(n, |r| r >= 128);
        let mut buf = PullBuffer::new();
        let work = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        // Scanned rows 128 (deg 2) and 129 (deg 1) only.
        assert_eq!(work, 3);
        assert_eq!(buf.entries(), &[(128, 7)]);
    }

    #[test]
    fn pull_ignores_stale_candidate_bits_past_the_matrix() {
        // Warm candidate bitmap from a larger matrix: logical length 130
        // with bits ≥ the current 66-vertex matrix still set. The kernel
        // masks its last scanned word to 66 bits and never touches them.
        let n = 66usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, v as Vidx + 1);
        }
        let a = b.build();
        let mut cands = VertexBitmap::new(130);
        cands.reset_ones(130);
        let x = SparseVec::from_entries(n, vec![(0, 1i64)]);
        let mut dense = DenseFrontier::new(130);
        dense.load(&x);
        let mut buf = PullBuffer::new();
        let work = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        assert_eq!(work, a.nnz());
        // Only vertex 1 neighbours the frontier {0}; in particular no row
        // past vertex 65 was scanned despite its stale candidate bit.
        assert_eq!(buf.entries(), &[(1, 1)]);
    }

    #[test]
    fn bitmap_pull_reads_exactly_the_edges_of_the_closure_pull() {
        // The bitmap kernel replaced the closure-masked one to read less
        // per candidate, never more: without a stop value it must traverse
        // exactly the closure kernel's edges and emit its rows, on
        // multi-word shapes with dense, sparse and word-sized masks. A
        // stop value may only cut the work.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut dense = DenseFrontier::new(0);
        let mut buf = PullBuffer::new();
        for n in [63usize, 64, 65, 200, 517] {
            let mut b = CooBuilder::new(n, n);
            for v in 0..n as Vidx {
                for _ in 0..3 {
                    let w = (next() % n as u64) as Vidx;
                    if w != v {
                        b.push_sym(v, w);
                    }
                }
            }
            let a = b.build();
            for (round, keep_one_in) in [1u64, 2, 7, 150].into_iter().enumerate() {
                let frontier: Vec<(Vidx, i64)> = (0..n as Vidx)
                    .filter_map(|v| {
                        let r = next();
                        (r % 5 == 0).then_some((v, (r / 5 % 9) as i64))
                    })
                    .collect();
                let stop = frontier.iter().map(|&(_, x)| x).min();
                dense.load(&SparseVec::from_entries(n, frontier));
                let keep: Vec<bool> = (0..n).map(|_| next() % keep_one_in == 0).collect();
                let cands = bitmap_where(n, |r| keep[r as usize]);
                let (expect, closure_work) =
                    spmspv_pull_ref::<i64, Select2ndMin>(&a, &dense, |r| keep[r as usize]);
                let work = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
                assert_eq!(buf.to_sparse(n), expect, "n {n}, round {round}");
                assert_eq!(work, closure_work, "n {n}, round {round}: pull work");
                let stopped = spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, stop, &mut buf);
                assert_eq!(buf.to_sparse(n), expect, "n {n}, round {round}: stop");
                assert!(stopped <= closure_work, "n {n}, round {round}: stop work");
            }
        }
    }

    #[test]
    fn pull_buffer_stops_growing_at_high_water() {
        let a = figure2_matrix();
        let x = SparseVec::from_entries(8, vec![(4, 2i64), (1, 3)]);
        let mut dense = DenseFrontier::new(8);
        dense.load(&x);
        let mut cands = VertexBitmap::new(8);
        cands.reset_ones(8);
        let mut buf = PullBuffer::new();
        spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        let warm = buf.growth_events();
        assert!(warm >= 1, "first non-empty output must count a growth");
        for _ in 0..10 {
            spmspv_pull::<i64, Select2ndMin>(&a, &dense, &cands, None, &mut buf);
        }
        assert_eq!(
            buf.growth_events(),
            warm,
            "steady-state pull must not grow the warm output buffer"
        );
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let a = figure2_matrix();
        let mut ws = SpmspvWorkspace::new(8);
        ws.epoch = u32::MAX - 1;
        let x = SparseVec::from_entries(8, vec![(0, 1i64)]);
        let (y1, _) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        let (y2, _) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        let (y3, _) = spmspv::<i64, Select2ndMin>(&a, &x, &mut ws);
        assert_eq!(y1, y2);
        assert_eq!(y2, y3);
    }
}
