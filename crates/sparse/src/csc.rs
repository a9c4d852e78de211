//! Compressed-sparse-column pattern matrices.
//!
//! RCM consumes only the *structure* of a matrix, so [`CscMatrix`] stores no
//! numerical values — just column pointers and row indices. For a symmetric
//! matrix this doubles as the adjacency structure of the graph `G(A)`:
//! column `v` lists the neighbours of vertex `v`.

use crate::perm::Permutation;
use crate::Vidx;

/// How many new labels ahead of the one being scattered
/// [`CscMatrix::permute_sym`] prefetches an old column (and twice as far
/// ahead, the column's bounds).
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

/// A pattern (structure-only) sparse matrix in CSC layout.
///
/// Invariants maintained by all constructors:
/// * `col_ptr.len() == n_cols + 1`, monotonically non-decreasing,
///   `col_ptr[0] == 0`, `col_ptr[n_cols] == row_idx.len()`.
/// * Row indices within each column are strictly increasing (sorted, unique).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<Vidx>,
}

impl CscMatrix {
    /// Construct from raw parts, checking invariants in debug builds.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Vidx>,
    ) -> Self {
        assert_eq!(col_ptr.len(), n_cols + 1, "col_ptr length must be n_cols+1");
        assert_eq!(col_ptr[0], 0);
        assert_eq!(*col_ptr.last().unwrap(), row_idx.len());
        debug_assert!(col_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(row_idx.iter().all(|&r| (r as usize) < n_rows));
        debug_assert!((0..n_cols).all(|c| {
            let s = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            s.windows(2).all(|w| w[0] < w[1])
        }));
        CscMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
        }
    }

    /// Counting build from `(row, col)` entries in any order, duplicates
    /// allowed: count per column, prefix-sum, scatter, then sort only the
    /// columns that arrived unsorted and drop duplicates in place. With
    /// `mirror`, every off-diagonal `(r, c)` also lands at `(c, r)` (the
    /// matrix must then be square). The iterator is walked twice, once to
    /// count and once to scatter. O(n + nnz) plus the per-column sorts.
    pub(crate) fn from_entries<I>(n_rows: usize, n_cols: usize, entries: I, mirror: bool) -> Self
    where
        I: Iterator<Item = (Vidx, Vidx)> + Clone,
    {
        debug_assert!(
            !mirror || n_rows == n_cols,
            "mirroring needs a square matrix"
        );
        // col_ptr[c] counts column c, then (exclusive prefix sum) holds its
        // start, then (as the scatter cursor) its end.
        let mut col_ptr = vec![0usize; n_cols + 1];
        for (r, c) in entries.clone() {
            col_ptr[c as usize] += 1;
            if mirror && r != c {
                col_ptr[r as usize] += 1;
            }
        }
        let mut total = 0;
        for p in &mut col_ptr {
            let count = *p;
            *p = total;
            total += count;
        }
        let mut row_idx = vec![0 as Vidx; total];
        for (r, c) in entries {
            let slot = &mut col_ptr[c as usize];
            row_idx[*slot] = r;
            *slot += 1;
            if mirror && r != c {
                let slot = &mut col_ptr[r as usize];
                row_idx[*slot] = c;
                *slot += 1;
            }
        }
        // Each cursor now sits at its column's end: shift them into
        // column starts.
        col_ptr.copy_within(0..n_cols, 1);
        col_ptr[0] = 0;

        // Sort the columns that need it and compact out duplicates; a
        // matrix that arrived sorted and unique is only read once here.
        let (mut start, mut write) = (0, 0);
        for c in 0..n_cols {
            let end = col_ptr[c + 1];
            let col = &mut row_idx[start..end];
            let strictly_sorted = col.windows(2).all(|w| w[0] < w[1]);
            if !strictly_sorted {
                col.sort_unstable();
            }
            if strictly_sorted && write == start {
                write = end;
            } else {
                let mut prev = None;
                for k in start..end {
                    let r = row_idx[k];
                    if prev != Some(r) {
                        row_idx[write] = r;
                        write += 1;
                        prev = Some(r);
                    }
                }
            }
            col_ptr[c + 1] = write;
            start = end;
        }
        if write < row_idx.len() {
            // Duplicates were dropped: keep no spare capacity in the matrix.
            row_idx.truncate(write);
            row_idx.shrink_to_fit();
        }
        CscMatrix::from_parts(n_rows, n_cols, col_ptr, row_idx)
    }

    /// Decompose into `(n_rows, n_cols, col_ptr, row_idx)` — the inverse of
    /// [`CscMatrix::from_parts`]. Hands the backing buffers to the caller so
    /// warm workspaces (e.g. the component splitter) can recycle them
    /// instead of reallocating.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<Vidx>) {
        (self.n_rows, self.n_cols, self.col_ptr, self.row_idx)
    }

    /// An `n × n` matrix with no nonzeros.
    pub fn empty(n: usize) -> Self {
        CscMatrix {
            n_rows: n,
            n_cols: n,
            col_ptr: vec![0; n + 1],
            row_idx: Vec::new(),
        }
    }

    /// Identity pattern (diagonal only).
    pub fn eye(n: usize) -> Self {
        CscMatrix {
            n_rows: n,
            n_cols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n as Vidx).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Row indices of the nonzeros in column `c` (sorted ascending).
    #[inline]
    pub fn col(&self, c: usize) -> &[Vidx] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Number of nonzeros in column `c` — the degree of vertex `c` when the
    /// matrix is a symmetric adjacency structure.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// The raw column-pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The raw row-index array.
    pub fn row_idx(&self) -> &[Vidx] {
        &self.row_idx
    }

    /// Degrees of all vertices, counting the diagonal entry as a self-loop
    /// *excluded* (graph degree, as used by the RCM tie-breaking sort).
    pub fn degrees(&self) -> Vec<Vidx> {
        let mut out = Vec::new();
        self.degrees_into(&mut out);
        out
    }

    /// Compute the degree vector into a caller-owned buffer (cleared
    /// first) — the grow-only companion of [`CscMatrix::degrees`] for warm
    /// workspaces: no allocation when the buffer's capacity already covers
    /// this matrix.
    pub fn degrees_into(&self, out: &mut Vec<Vidx>) {
        out.clear();
        out.extend((0..self.n_cols).map(|c| {
            let mut d = self.col_nnz(c) as Vidx;
            // A structural diagonal entry is not a graph neighbour.
            if self.col(c).binary_search(&(c as Vidx)).is_ok() {
                d -= 1;
            }
            d
        }));
    }

    /// Check whether an entry exists at `(row, col)`.
    #[inline]
    pub fn contains(&self, row: Vidx, col: Vidx) -> bool {
        self.col(col as usize).binary_search(&row).is_ok()
    }

    /// Transpose (swaps the roles of rows and columns).
    pub fn transpose(&self) -> CscMatrix {
        let mut col_ptr = vec![0usize; self.n_rows + 1];
        for &r in &self.row_idx {
            col_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.n_rows {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut row_idx = vec![0 as Vidx; self.nnz()];
        let mut cursor = col_ptr.clone();
        for c in 0..self.n_cols {
            for &r in self.col(c) {
                let slot = &mut cursor[r as usize];
                row_idx[*slot] = c as Vidx;
                *slot += 1;
            }
        }
        CscMatrix::from_parts(self.n_cols, self.n_rows, col_ptr, row_idx)
    }

    /// True when the pattern equals its transpose. O(n + nnz).
    pub fn is_symmetric(&self) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        // Every (r, c) needs its (c, r) in column r. Walking the columns in
        // ascending c visits column r's partners in ascending order, which
        // is exactly the order column r stores them in when the pattern is
        // symmetric, so one forward cursor per column checks them all.
        let mut cursor = self.col_ptr[..self.n_cols].to_vec();
        for c in 0..self.n_cols {
            for &r in self.col(c) {
                let r = r as usize;
                let k = cursor[r];
                if k == self.col_ptr[r + 1] || self.row_idx[k] as usize != c {
                    return false;
                }
                cursor[r] = k + 1;
            }
        }
        true
    }

    /// Symmetric permutation `PAPᵀ`: entry `(i, j)` moves to
    /// `(perm[i], perm[j])` where `perm` maps old ids to new labels.
    ///
    /// The pattern must be structurally symmetric, as every ordering input
    /// is: column `v` is then also row `v`. One counting scatter builds the
    /// result with no sort. New labels `j` are walked in ascending order,
    /// old column `old_of_new[j]` is read as that vertex's row, and `j` is
    /// appended to new column `perm[r]` for each of its entries `r`, so
    /// every new column fills in ascending row order. O(n + nnz).
    ///
    /// # Panics
    ///
    /// If the matrix is not square or `perm` has the wrong length. Debug
    /// builds also check the symmetry up front. Release builds check in
    /// O(n) that each new column received exactly its old column's count,
    /// so an unsymmetric pattern panics there too, unless every row holds
    /// as many entries as its column; the result is then `PAᵀPᵀ`.
    pub fn permute_sym(&self, perm: &Permutation) -> CscMatrix {
        assert_eq!(
            self.n_rows, self.n_cols,
            "permute_sym needs a square matrix"
        );
        assert_eq!(perm.len(), self.n_cols, "permutation size mismatch");
        debug_assert!(
            self.is_symmetric(),
            "permute_sym needs a structurally symmetric matrix"
        );
        let n = self.n_cols;
        let p = perm.as_new_of_old();
        let old_of_new = perm.old_of_new();

        let mut col_ptr = vec![0usize; n + 1];
        for new_c in 0..n {
            let old_c = old_of_new[new_c] as usize;
            col_ptr[new_c + 1] = col_ptr[new_c] + self.col_nnz(old_c);
        }
        let mut row_idx = vec![0 as Vidx; self.nnz()];
        let mut cursor = col_ptr[..n].to_vec();
        for (new_r, &old_r) in old_of_new.iter().enumerate() {
            // The old columns are read in a shuffled order, so each one is a
            // cache miss: ask for the bounds, then the first lines, of the
            // columns a few labels ahead.
            if let Some(&ahead) = old_of_new.get(new_r + 2 * PREFETCH_AHEAD) {
                prefetch(&self.col_ptr[ahead as usize]);
            }
            if let Some(&ahead) = old_of_new.get(new_r + PREFETCH_AHEAD) {
                let col = self.col(ahead as usize);
                col.iter().step_by(16).take(3).for_each(prefetch);
            }
            for &old_c in self.col(old_r as usize) {
                let slot = &mut cursor[p[old_c as usize] as usize];
                row_idx[*slot] = new_r as Vidx;
                *slot += 1;
            }
        }
        // Each cursor must end where the next column starts: a column that
        // received more or fewer entries than it was counted for has
        // spilled into, or left a gap before, its neighbour.
        assert!(
            cursor[..] == col_ptr[1..],
            "permute_sym needs a structurally symmetric matrix"
        );
        CscMatrix::from_parts(n, n, col_ptr, row_idx)
    }

    /// Extract the sub-matrix with rows in `[r0, r1)` and columns in
    /// `[c0, c1)`, re-indexed to local coordinates. Used to form the 2D
    /// blocks of the distributed matrix.
    pub fn sub_block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> CscMatrix {
        assert!(r0 <= r1 && r1 <= self.n_rows);
        assert!(c0 <= c1 && c1 <= self.n_cols);
        let ncols = c1 - c0;
        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::new();
        for (lc, c) in (c0..c1).enumerate() {
            let rows = self.col(c);
            // Binary search for the window [r0, r1).
            let lo = rows.partition_point(|&r| (r as usize) < r0);
            let hi = rows.partition_point(|&r| (r as usize) < r1);
            for &r in &rows[lo..hi] {
                row_idx.push(r - r0 as Vidx);
            }
            col_ptr[lc + 1] = row_idx.len();
        }
        CscMatrix::from_parts(r1 - r0, ncols, col_ptr, row_idx)
    }

    /// Iterate over all `(row, col)` entries in column-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Vidx, Vidx)> + '_ {
        (0..self.n_cols).flat_map(move |c| self.col(c).iter().map(move |&r| (r, c as Vidx)))
    }

    /// A 64-bit fingerprint of the sparsity *pattern* — dimensions, column
    /// pointers and row indices, exactly the data [`CscMatrix`] stores.
    ///
    /// Two matrices have equal fingerprints iff they hash the same canonical
    /// CSC form, so any construction route that produces the same pattern —
    /// COO triplets pushed in a different order, with duplicates, or with
    /// different numerical values attached upstream — fingerprints
    /// identically. This is the cache key of the ordering service's
    /// pattern cache: re-ordering a pattern the service has seen costs one
    /// O(nnz) hash instead of a BFS. The hash is deterministic across runs
    /// and platforms (no randomized state), and 64 bits wide, so consumers
    /// that cannot tolerate a ~2⁻⁶⁴ collision must confirm a hash hit with
    /// a full pattern comparison (`==` — the service cache does).
    pub fn pattern_fingerprint(&self) -> u64 {
        // SplitMix64-style avalanche for the dimensions and the finish:
        // cheap, high-quality, and stable — the same mixer the offline
        // rand shim seeds with.
        #[inline]
        fn mix(h: u64, w: u64) -> u64 {
            let mut z = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        // The O(n + nnz) body costs one multiply per word (the FxHash
        // step), so a cache hit stays far cheaper than the ordering it
        // saves. For a fixed word the step is a bijection of the state, and
        // for a fixed state a bijection of the word, so two patterns that
        // differ in a single word never collide; the final `mix` spreads
        // the state over all 64 bits.
        #[inline]
        fn fold(h: u64, w: u64) -> u64 {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95)
        }
        let mut h = mix(0x243F_6A88_85A3_08D3, self.n_rows as u64);
        h = mix(h, self.n_cols as u64);
        // col_ptr fixes the per-column layout; row_idx pairs are packed two
        // per word so the dominant O(nnz) pass folds half as often.
        for &p in &self.col_ptr {
            h = fold(h, p as u64);
        }
        // A slice pattern, not `chunks`: unoptimized (test) builds pay for
        // every iterator call, and this loop is what a cache hit costs.
        let mut rest = &self.row_idx[..];
        while let [r0, r1, tail @ ..] = rest {
            h = fold(h, (*r0 as u64) << 32 | *r1 as u64);
            rest = tail;
        }
        if let [r] = rest {
            h = fold(h, (*r as u64) << 32);
        }
        // Length-extension guard: [r] vs [r, 0] pack to the same word.
        mix(h, self.row_idx.len() as u64)
    }

    /// Remove any diagonal entries (self-loops do not affect RCM but skew
    /// degree statistics).
    pub fn without_diagonal(&self) -> CscMatrix {
        let mut col_ptr = vec![0usize; self.n_cols + 1];
        let mut row_idx = Vec::with_capacity(self.nnz());
        for c in 0..self.n_cols {
            for &r in self.col(c) {
                if r as usize != c {
                    row_idx.push(r);
                }
            }
            col_ptr[c + 1] = row_idx.len();
        }
        CscMatrix::from_parts(self.n_rows, self.n_cols, col_ptr, row_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooBuilder;

    fn path_graph(n: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        b.build()
    }

    #[test]
    fn eye_has_expected_shape() {
        let m = CscMatrix::eye(4);
        assert_eq!(m.nnz(), 4);
        assert!(m.is_symmetric());
        assert!(m.contains(2, 2));
        assert!(!m.contains(1, 2));
        assert_eq!(m.degrees(), vec![0, 0, 0, 0]); // diagonals excluded
    }

    #[test]
    fn transpose_involution() {
        let mut b = CooBuilder::new(3, 4);
        b.push(0, 1);
        b.push(2, 3);
        b.push(1, 0);
        let m = b.build();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        assert!(t.contains(1, 0));
        assert!(t.contains(3, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn degrees_of_path() {
        let m = path_graph(5);
        assert_eq!(m.degrees(), vec![1, 2, 2, 2, 1]);
    }

    #[test]
    fn permute_sym_reverses_path() {
        let m = path_graph(4);
        // Reverse the vertex order; a path stays a path.
        let p = Permutation::from_new_of_old(vec![3, 2, 1, 0]).unwrap();
        let pm = m.permute_sym(&p);
        assert!(pm.is_symmetric());
        assert_eq!(pm.nnz(), m.nnz());
        assert_eq!(pm.degrees(), vec![1, 2, 2, 1]);
        assert!(pm.contains(0, 1) && pm.contains(1, 2) && pm.contains(2, 3));
    }

    #[test]
    fn permute_sym_identity_is_noop() {
        let m = path_graph(6);
        let id = Permutation::identity(6);
        assert_eq!(m.permute_sym(&id), m);
    }

    #[test]
    fn sub_block_extracts_window() {
        let m = path_graph(6);
        // Rows 2..5, cols 2..5 of the path: local path fragment.
        let b = m.sub_block(2, 5, 2, 5);
        assert_eq!(b.n_rows(), 3);
        assert_eq!(b.n_cols(), 3);
        assert!(b.contains(1, 0)); // global (3,2)
        assert!(b.contains(0, 1)); // global (2,3)
        assert!(b.contains(2, 1)); // global (4,3)
        assert!(!b.contains(0, 0));
    }

    #[test]
    fn sub_block_covers_whole_matrix() {
        let m = path_graph(5);
        let b = m.sub_block(0, 5, 0, 5);
        assert_eq!(b, m);
    }

    #[test]
    fn without_diagonal_strips_self_loops() {
        let mut b = CooBuilder::new(3, 3);
        b.push_sym(0, 1);
        b.push(1, 1);
        b.push(2, 2);
        let m = b.build();
        assert_eq!(m.nnz(), 4);
        let stripped = m.without_diagonal();
        assert_eq!(stripped.nnz(), 2);
        assert!(stripped.is_symmetric());
    }

    #[test]
    fn fingerprint_ignores_construction_route() {
        // The same pattern assembled from shuffled, duplicated triplets
        // canonicalizes to the same CSC form, hence the same fingerprint.
        let a = path_graph(7);
        let mut b = CooBuilder::new(7, 7);
        for &(u, v) in &[
            (5, 6),
            (1, 0),
            (2, 3),
            (1, 2),
            (3, 4),
            (4, 5),
            (2, 1),
            (1, 2),
        ] {
            b.push_sym(u, v);
        }
        let c = b.build();
        assert_eq!(a, c);
        assert_eq!(a.pattern_fingerprint(), c.pattern_fingerprint());
    }

    #[test]
    fn fingerprint_separates_nearby_patterns() {
        let base = path_graph(6);
        let mut others = vec![
            path_graph(5),
            path_graph(7),
            CscMatrix::empty(6),
            CscMatrix::eye(6),
            base.without_diagonal(), // identical here; sanity-checked below
        ];
        // Same edges, one vertex more: padding must change the hash.
        let mut b = CooBuilder::new(7, 7);
        for v in 0..5 {
            b.push_sym(v, v + 1);
        }
        others.push(b.build());
        assert_eq!(others[4].pattern_fingerprint(), base.pattern_fingerprint());
        others.remove(4);
        for o in &others {
            assert_ne!(
                o.pattern_fingerprint(),
                base.pattern_fingerprint(),
                "distinct patterns must fingerprint apart"
            );
        }
    }

    #[test]
    fn fingerprint_guards_against_length_extension() {
        // [r] in one column vs [r, 0] split over two: the odd-length tail
        // packs a zero, so only the length guard separates them.
        let mut b1 = CooBuilder::new(3, 3);
        b1.push(1, 0);
        let one = b1.build();
        let mut b2 = CooBuilder::new(3, 3);
        b2.push(1, 0);
        b2.push(0, 0);
        let two = b2.build();
        assert_ne!(one.pattern_fingerprint(), two.pattern_fingerprint());
    }

    #[test]
    fn iter_entries_column_major() {
        let m = path_graph(3);
        let entries: Vec<_> = m.iter_entries().collect();
        assert_eq!(entries, vec![(1, 0), (0, 1), (2, 1), (1, 2)]);
    }
}
