//! Sequential ablation variants of RCM — the paper's §VI "immediate future
//! work involves finding alternatives to sorting (i.e. global sorting at the
//! end, or not sorting at all and sacrifice some quality)".
//!
//! * [`rcm_nosort`] — plain FIFO BFS: children are labeled in adjacency
//!   order, skipping the per-level degree sort entirely.
//! * [`rcm_globalsort`] — BFS records levels only; one global sort keyed by
//!   `(level, degree, vertex)` assigns all labels at the end.
//!
//! Distributed counterparts live in
//! [`SortMode`](crate::distributed::SortMode); the `repro -- ablation`
//! experiment compares bandwidth and simulated time across all variants.

use crate::peripheral::pseudo_peripheral_with_degrees;
use rcm_sparse::{CscMatrix, Permutation, Vidx};

/// RCM without any sorting: BFS in adjacency order (reversed at the end).
pub fn rcm_nosort(a: &CscMatrix) -> Permutation {
    assert_eq!(a.n_rows(), a.n_cols());
    let n = a.n_rows();
    let degrees = a.degrees();
    let mut visited = vec![false; n];
    let mut order: Vec<Vidx> = Vec::with_capacity(n);
    while order.len() < n {
        let seed = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| (degrees[v], v as Vidx))
            .unwrap() as Vidx;
        let root = pseudo_peripheral_with_degrees(a, seed, &degrees).vertex;
        visited[root as usize] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in a.col(v as usize) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    order.push(w);
                }
            }
        }
    }
    Permutation::from_order(&order)
        .expect("BFS visits each vertex once")
        .reversed()
}

/// RCM with a single global sort at the end: vertices are labeled by
/// `(component, level, degree, vertex)` lexicographic order, then reversed.
pub fn rcm_globalsort(a: &CscMatrix) -> Permutation {
    assert_eq!(a.n_rows(), a.n_cols());
    let n = a.n_rows();
    let degrees = a.degrees();
    let mut level = vec![-1i64; n];
    let mut component = vec![-1i64; n];
    let mut labeled = 0usize;
    let mut comp = 0i64;
    while labeled < n {
        let seed = (0..n)
            .filter(|&v| level[v] < 0)
            .min_by_key(|&v| (degrees[v], v as Vidx))
            .unwrap() as Vidx;
        let root = pseudo_peripheral_with_degrees(a, seed, &degrees).vertex;
        // BFS recording levels.
        level[root as usize] = 0;
        component[root as usize] = comp;
        labeled += 1;
        let mut frontier = vec![root];
        let mut lvl = 0i64;
        while !frontier.is_empty() {
            lvl += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for &w in a.col(v as usize) {
                    if level[w as usize] < 0 {
                        level[w as usize] = lvl;
                        component[w as usize] = comp;
                        labeled += 1;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        comp += 1;
    }
    let mut keys: Vec<(i64, i64, Vidx, Vidx)> = (0..n)
        .map(|v| (component[v], level[v], degrees[v], v as Vidx))
        .collect();
    keys.sort_unstable();
    let order: Vec<Vidx> = keys.iter().map(|&(_, _, _, v)| v).collect();
    Permutation::from_order(&order)
        .expect("every vertex keyed once")
        .reversed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::ordering_bandwidth;
    use rcm_sparse::CooBuilder;

    use crate::testutil::scrambled_grid;

    #[test]
    fn variants_produce_valid_permutations() {
        let a = scrambled_grid(10, 17);
        assert_eq!(rcm_nosort(&a).len(), 100);
        assert_eq!(rcm_globalsort(&a).len(), 100);
    }

    #[test]
    fn variants_still_reduce_bandwidth_substantially() {
        let a = scrambled_grid(14, 41);
        let before = rcm_sparse::matrix_bandwidth(&a);
        for p in [rcm_nosort(&a), rcm_globalsort(&a)] {
            let after = ordering_bandwidth(&a, &p);
            assert!(
                after * 3 < before,
                "ablation variant failed to reduce bandwidth: {before} -> {after}"
            );
        }
    }

    #[test]
    fn full_sort_is_at_least_as_good_on_grids() {
        let a = scrambled_grid(12, 29);
        let full = crate::rcm(&a);
        let bw_full = ordering_bandwidth(&a, &full);
        let bw_nosort = ordering_bandwidth(&a, &rcm_nosort(&a));
        assert!(bw_full <= bw_nosort, "full {bw_full} vs nosort {bw_nosort}");
    }

    #[test]
    fn handles_components() {
        let mut b = CooBuilder::new(8, 8);
        b.push_sym(0, 1);
        b.push_sym(4, 5);
        b.push_sym(5, 6);
        let a = b.build();
        assert_eq!(rcm_nosort(&a).len(), 8);
        assert_eq!(rcm_globalsort(&a).len(), 8);
    }
}
