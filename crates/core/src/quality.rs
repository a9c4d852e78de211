//! Ordering-quality evaluation without materializing the permuted matrix.
//!
//! Bandwidth and profile of `PAPᵀ` can be computed in `O(nnz)` directly from
//! the permutation, which matters when evaluating many orderings of large
//! matrices (the `fig3` and `table2` experiments do exactly that).

use rcm_sparse::{CscMatrix, Permutation, Vidx};

/// Bandwidth of `PAPᵀ`: `max |perm[u] − perm[v]|` over stored off-diagonal
/// entries `(u, v)`.
pub fn ordering_bandwidth(a: &CscMatrix, perm: &Permutation) -> usize {
    assert_eq!(perm.len(), a.n_cols());
    let p = perm.as_new_of_old();
    let mut bw = 0usize;
    for c in 0..a.n_cols() {
        let pc = p[c] as i64;
        for &r in a.col(c) {
            let d = (p[r as usize] as i64 - pc).unsigned_abs() as usize;
            bw = bw.max(d);
        }
    }
    bw
}

/// Envelope size (profile) of `PAPᵀ`: `Σ_i (i − f_i)` where `f_i` is the
/// smallest new label among column `i`'s neighbours (clamped at `i`).
pub fn ordering_profile(a: &CscMatrix, perm: &Permutation) -> u64 {
    assert_eq!(perm.len(), a.n_cols());
    let p = perm.as_new_of_old();
    let n = a.n_cols();
    // min_label[i] = smallest label among the neighbours of the vertex with
    // label i (including itself).
    let mut min_label: Vec<Vidx> = (0..n as Vidx).collect();
    for c in 0..n {
        let pc = p[c];
        for &r in a.col(c) {
            let pr = p[r as usize];
            if pr < min_label[pc as usize] {
                min_label[pc as usize] = pr;
            }
        }
    }
    (0..n).map(|i| (i as Vidx - min_label[i]) as u64).sum()
}

/// Wavefront of `PAPᵀ` computed directly from the permutation:
/// `(max wavefront, rms wavefront)`. The wavefront at elimination step `i`
/// is the number of rows active in the front — the quantity Sloan's
/// algorithm targets.
pub fn ordering_wavefront(a: &CscMatrix, perm: &Permutation) -> (usize, f64) {
    assert_eq!(perm.len(), a.n_cols());
    let p = perm.as_new_of_old();
    let n = a.n_cols();
    if n == 0 {
        return (0, 0.0);
    }
    // first_col[i]: earliest elimination step that touches the row with new
    // label i (including its own step).
    let mut first_col: Vec<Vidx> = (0..n as Vidx).collect();
    for c in 0..n {
        let pc = p[c];
        for &r in a.col(c) {
            let pr = p[r as usize];
            // Column pc touches row pr: row pr becomes active at step
            // min(pc, its current entry).
            if pc < first_col[pr as usize] {
                first_col[pr as usize] = pc;
            }
        }
    }
    let mut enters = vec![0i64; n + 1];
    for i in 0..n {
        enters[first_col[i] as usize] += 1;
        enters[i + 1] -= 1;
    }
    let mut active = 0i64;
    let mut maxw = 0i64;
    let mut sumsq = 0.0f64;
    for e in enters.iter().take(n) {
        active += e;
        maxw = maxw.max(active);
        sumsq += (active * active) as f64;
    }
    (maxw as usize, (sumsq / n as f64).sqrt())
}

/// Before/after quality summary of an ordering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderingQuality {
    /// Bandwidth of the input ordering.
    pub bandwidth_before: usize,
    /// Bandwidth after applying the permutation.
    pub bandwidth_after: usize,
    /// Profile (envelope size) of the input ordering.
    pub profile_before: u64,
    /// Profile after applying the permutation.
    pub profile_after: u64,
}

/// Evaluate `perm` against the identity ordering of `a`, in one pass over
/// the entries and without allocating.
///
/// Both metrics split by column: the bandwidth is the largest distance
/// from a column's label `p[c]` to its entries' labels, and column `c`'s
/// profile term is `p[c] − min(p[c], min_r p[r])`. So each column needs
/// only the smallest and largest label among its entries; before the
/// permutation those are its first and last row, since rows are sorted.
pub fn quality_report(a: &CscMatrix, perm: &Permutation) -> OrderingQuality {
    assert_eq!(perm.len(), a.n_cols());
    let p = perm.as_new_of_old();
    let mut q = OrderingQuality {
        bandwidth_before: 0,
        bandwidth_after: 0,
        profile_before: 0,
        profile_after: 0,
    };
    for c in 0..a.n_cols() {
        let col = a.col(c);
        let (Some(&first), Some(&last)) = (col.first(), col.last()) else {
            continue;
        };
        let (lo, hi) = (c.min(first as usize), c.max(last as usize));
        q.bandwidth_before = q.bandwidth_before.max((c - lo).max(hi - c));
        q.profile_before += (c - lo) as u64;
        let pc = p[c];
        let (mut lo, mut hi) = (pc, pc);
        for &r in col {
            let pr = p[r as usize];
            lo = lo.min(pr);
            hi = hi.max(pr);
        }
        q.bandwidth_after = q.bandwidth_after.max((pc - lo).max(hi - pc) as usize);
        q.profile_after += (pc - lo) as u64;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_sparse::{envelope_size, matrix_bandwidth, CooBuilder};

    fn path(n: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        b.build()
    }

    #[test]
    fn identity_matches_direct_metrics() {
        let a = path(20);
        let id = Permutation::identity(20);
        assert_eq!(ordering_bandwidth(&a, &id), matrix_bandwidth(&a));
        assert_eq!(ordering_profile(&a, &id), envelope_size(&a));
    }

    #[test]
    fn agrees_with_materialized_permutation() {
        let a = path(30);
        let stride = 7;
        let perm: Vec<Vidx> = (0..30).map(|i| ((i * stride) % 30) as Vidx).collect();
        let p = Permutation::from_new_of_old(perm).unwrap();
        let pa = a.permute_sym(&p);
        assert_eq!(ordering_bandwidth(&a, &p), matrix_bandwidth(&pa));
        assert_eq!(ordering_profile(&a, &p), envelope_size(&pa));
    }

    #[test]
    fn wavefront_matches_materialized_metric() {
        let a = path(25);
        let stride = 9;
        let perm: Vec<Vidx> = (0..25).map(|i| ((i * stride) % 25) as Vidx).collect();
        let p = Permutation::from_new_of_old(perm).unwrap();
        let pa = a.permute_sym(&p);
        let direct = rcm_sparse::bandwidth::wavefront(&pa);
        let viaperm = ordering_wavefront(&a, &p);
        assert_eq!(viaperm.0, direct.0);
        assert!((viaperm.1 - direct.1).abs() < 1e-12);
    }

    #[test]
    fn quality_report_matches_the_per_metric_passes() {
        // Diagonal entries, an isolated vertex and long edges, under the
        // identity and under scrambling strides.
        let n = 30;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n as Vidx - 2 {
            b.push_sym(v, (v * 7 + 3) % (n as Vidx - 1));
            b.push(v, v);
        }
        let a = b.build();
        for stride in [1, 7, 11, 13] {
            let p =
                Permutation::from_new_of_old((0..n).map(|i| ((i * stride) % n) as Vidx).collect())
                    .unwrap();
            let id = Permutation::identity(n);
            let q = quality_report(&a, &p);
            assert_eq!(q.bandwidth_before, ordering_bandwidth(&a, &id));
            assert_eq!(q.bandwidth_after, ordering_bandwidth(&a, &p));
            assert_eq!(q.profile_before, ordering_profile(&a, &id));
            assert_eq!(q.profile_after, ordering_profile(&a, &p));
        }
    }

    #[test]
    fn quality_report_before_after() {
        let a = path(40);
        let stride = 11;
        let scramble =
            Permutation::from_new_of_old((0..40).map(|i| ((i * stride) % 40) as Vidx).collect())
                .unwrap();
        let scrambled = a.permute_sym(&scramble);
        let rcm = crate::rcm(&scrambled);
        let q = quality_report(&scrambled, &rcm);
        assert!(q.bandwidth_after < q.bandwidth_before);
        assert!(q.profile_after < q.profile_before);
        assert_eq!(q.bandwidth_after, 1); // a path reordered perfectly
    }
}
