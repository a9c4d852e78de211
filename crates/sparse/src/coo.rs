//! Coordinate-format (triplet) accumulation for building pattern matrices.

use crate::csc::CscMatrix;
use crate::Vidx;

/// Accumulates `(row, col)` pattern entries and converts them into a
/// [`CscMatrix`]. Duplicates are removed; optional symmetrization mirrors
/// every entry across the diagonal (RCM operates on symmetric matrices, and
/// real-world inputs often store only one triangle).
#[derive(Clone, Debug)]
pub struct CooBuilder {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(Vidx, Vidx)>,
}

impl CooBuilder {
    /// New builder for an `n_rows × n_cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_rows <= Vidx::MAX as usize && n_cols <= Vidx::MAX as usize);
        CooBuilder {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// New builder with pre-reserved capacity for `cap` entries.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        let mut b = Self::new(n_rows, n_cols);
        b.entries.reserve(cap);
        b
    }

    /// Number of (possibly duplicated) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record a nonzero at `(row, col)`. Panics on out-of-range indices.
    #[inline]
    pub fn push(&mut self, row: Vidx, col: Vidx) {
        debug_assert!(
            (row as usize) < self.n_rows && (col as usize) < self.n_cols,
            "entry ({row}, {col}) out of bounds for {}x{}",
            self.n_rows,
            self.n_cols
        );
        self.entries.push((row, col));
    }

    /// Record both `(row, col)` and `(col, row)` (requires a square matrix).
    #[inline]
    pub fn push_sym(&mut self, row: Vidx, col: Vidx) {
        self.push(row, col);
        if row != col {
            self.entries.push((col, row));
        }
    }

    /// Mirror all off-diagonal entries across the diagonal so that the
    /// resulting pattern is structurally symmetric. Requires a square matrix.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.n_rows, self.n_cols, "symmetrize needs a square matrix");
        let m = self.entries.len();
        for k in 0..m {
            let (r, c) = self.entries[k];
            if r != c {
                self.entries.push((c, r));
            }
        }
    }

    /// Build the CSC pattern matrix (sorted, duplicate-free columns) with a
    /// counting build over the pushed entries.
    pub fn build(self) -> CscMatrix {
        CscMatrix::from_entries(
            self.n_rows,
            self.n_cols,
            self.entries.iter().copied(),
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_matrix() {
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 1);
        b.push(1, 0);
        b.push(2, 2);
        b.push(0, 1); // duplicate is dropped
        let m = b.build();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0), &[1]);
        assert_eq!(m.col(1), &[0]);
        assert_eq!(m.col(2), &[2]);
    }

    #[test]
    fn symmetrize_mirrors_entries() {
        let mut b = CooBuilder::new(4, 4);
        b.push(0, 1);
        b.push(2, 3);
        b.symmetrize();
        let m = b.build();
        assert_eq!(m.nnz(), 4);
        assert!(m.is_symmetric());
    }

    #[test]
    fn push_sym_adds_mirror_once_for_diagonal() {
        let mut b = CooBuilder::new(2, 2);
        b.push_sym(0, 0);
        b.push_sym(0, 1);
        let m = b.build();
        assert_eq!(m.nnz(), 3); // (0,0), (0,1), (1,0)
        assert!(m.is_symmetric());
    }

    #[test]
    fn empty_builder_gives_empty_matrix() {
        let m = CooBuilder::new(5, 5).build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.n_rows(), 5);
        for c in 0..5 {
            assert!(m.col(c).is_empty());
        }
    }

    #[test]
    fn rows_within_column_are_sorted() {
        let mut b = CooBuilder::new(4, 4);
        b.push(3, 1);
        b.push(0, 1);
        b.push(2, 1);
        let m = b.build();
        assert_eq!(m.col(1), &[0, 2, 3]);
    }
}
