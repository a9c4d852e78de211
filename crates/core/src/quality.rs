//! Ordering-quality evaluation without materializing the permuted matrix.
//!
//! Bandwidth, profile and wavefront of `PAPᵀ` can be computed in `O(nnz)`
//! directly from the permutation, which matters when evaluating many
//! orderings of large matrices (the `fig3` and `table2` experiments do
//! exactly that).

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
/// algorithm targets. These are [`quality_report`]'s two wavefront fields,
/// so the pattern must be structurally symmetric.
pub fn ordering_wavefront(a: &CscMatrix, perm: &Permutation) -> (usize, f64) {
    let q = quality_report(a, perm);
    (q.max_wavefront, q.rms_wavefront)
}

/// Before/after quality summary of an ordering.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderingQuality {
    /// Bandwidth of the input ordering.
    pub bandwidth_before: usize,
    /// Bandwidth after applying the permutation.
    pub bandwidth_after: usize,
    /// Profile (envelope size) of the input ordering.
    pub profile_before: u64,
    /// Profile after applying the permutation.
    pub profile_after: u64,
    /// Largest wavefront of `PAPᵀ`: the most rows active in the front at
    /// one elimination step.
    pub max_wavefront: usize,
    /// Root mean square of `PAPᵀ`'s wavefront over the elimination steps
    /// (0 for an empty matrix).
    pub rms_wavefront: f64,
}

/// Evaluate `perm` against the identity ordering of `a`, in one pass over
/// the entries plus one over an n-sized count array (the only allocation).
/// The pattern must be structurally symmetric for the wavefront fields.
///
/// Every metric splits by column: the bandwidth is the largest distance
/// from a column's label `p[c]` to its entries' labels, and column `c`'s
/// profile term is `p[c] − lo` with `lo = min(p[c], min_r p[r])`. So each
/// column needs only the smallest and largest label among its entries;
/// before the permutation those are its first and last row, since rows are
/// sorted. On a symmetric pattern `lo` is also the step at which row `p[c]`
/// enters the front, and it leaves after its own step `p[c]`, so the front
/// at step `i` holds `#{c : lo_c ≤ i} − i` rows.
pub fn quality_report(a: &CscMatrix, perm: &Permutation) -> OrderingQuality {
    assert_eq!(perm.len(), a.n_cols());
    let p = perm.as_new_of_old();
    let n = a.n_cols();
    let mut q = OrderingQuality {
        bandwidth_before: 0,
        bandwidth_after: 0,
        profile_before: 0,
        profile_after: 0,
        max_wavefront: 0,
        rms_wavefront: 0.0,
    };
    // entering[i]: rows that enter the front at step i.
    let mut entering = vec![0usize; n];
    for c in 0..n {
        let col = a.col(c);
        let pc = p[c];
        let (Some(&first), Some(&last)) = (col.first(), col.last()) else {
            // An empty column's row is in the front at its own step only.
            entering[pc as usize] += 1;
            continue;
        };
        let (lo, hi) = (c.min(first as usize), c.max(last as usize));
        q.bandwidth_before = q.bandwidth_before.max((c - lo).max(hi - c));
        q.profile_before += (c - lo) as u64;
        let (mut lo, mut hi) = (pc, pc);
        for &r in col {
            let pr = p[r as usize];
            lo = lo.min(pr);
            hi = hi.max(pr);
        }
        q.bandwidth_after = q.bandwidth_after.max((pc - lo).max(hi - pc) as usize);
        q.profile_after += (pc - lo) as u64;
        entering[lo as usize] += 1;
    }
    let (mut entered, mut sumsq) = (0usize, 0.0f64);
    for (i, &e) in entering.iter().enumerate() {
        entered += e;
        let active = entered - i;
        q.max_wavefront = q.max_wavefront.max(active);
        sumsq += (active * active) as f64;
    }
    if n > 0 {
        q.rms_wavefront = (sumsq / n as f64).sqrt();
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// `PAPᵀ` built by `CooBuilder` from every entry `(r, c)` relabelled to
    /// `(p[r], p[c])`, without `permute_sym`.
    fn relabelled(a: &CscMatrix, p: &Permutation) -> CscMatrix {
        let mut b = CooBuilder::new(a.n_rows(), a.n_cols());
        for (r, c) in a.iter_entries() {
            b.push(p.new_of(r), p.new_of(c));
        }
        b.build()
    }

    /// A random symmetric pattern on 1..=40 vertices, diagonal entries
    /// included, in which every id ≡ 4 (mod 5) stays isolated, and a
    /// random relabelling of it.
    fn arb_pattern_and_perm() -> impl Strategy<Value = (CscMatrix, Permutation)> {
        (1usize..=40).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n, 0..n), 0..=3 * n),
                0u64..u64::MAX,
            )
                .prop_map(move |(pairs, seed)| {
                    let mut b = CooBuilder::new(n, n);
                    for (u, v) in pairs {
                        if u % 5 != 4 && v % 5 != 4 {
                            b.push_sym(u as Vidx, v as Vidx);
                        }
                    }
                    (b.build(), rcm_graphgen::random_permutation(n, seed))
                })
        })
    }

    proptest! {
        #[test]
        fn quality_report_wavefront_matches_the_materialized_metric(
            case in arb_pattern_and_perm()
        ) {
            let (a, p) = case;
            let q = quality_report(&a, &p);
            let (maxw, rmsw) = rcm_sparse::bandwidth::wavefront(&relabelled(&a, &p));
            prop_assert_eq!(q.max_wavefront, maxw);
            // Both sum the same integer squares in step order, exactly.
            prop_assert_eq!(q.rms_wavefront, rmsw);
            prop_assert_eq!(ordering_wavefront(&a, &p), (maxw, rmsw));
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
