//! Property-based tests of the RCM algorithms: structural invariants that
//! must hold for arbitrary symmetric graphs.

use proptest::prelude::*;
use rcm_core::{
    bfs_level_structure, ordering_bandwidth, ordering_profile, pseudo_peripheral, rcm,
    rcm_globalsort, rcm_nosort, sloan, thread_counts_from_env, BackendKind, EngineConfig,
    OrderingEngine, StartNode,
};
use rcm_sparse::{envelope_size, matrix_bandwidth, CooBuilder, CscMatrix, Permutation, Vidx};

/// RCM from a fresh engine on `backend` with George–Liu start nodes.
fn engine_rcm(a: &CscMatrix, backend: BackendKind) -> Permutation {
    let config = EngineConfig::builder()
        .backend(backend)
        .start_node(StartNode::GeorgeLiu)
        .build();
    OrderingEngine::new(config).order(a).perm
}

fn pooled_rcm(a: &CscMatrix, threads: usize) -> Permutation {
    engine_rcm(a, BackendKind::Pooled { threads })
}

fn build_matrix(n: usize, edges: &[(usize, usize)]) -> CscMatrix {
    let mut b = CooBuilder::new(n, n);
    for &(u, v) in edges {
        if u % n != v % n {
            b.push_sym((u % n) as Vidx, (v % n) as Vidx);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rcm_labels_respect_bfs_level_adjacency(
        n in 2usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..200),
    ) {
        // In a CM ordering, labels within a component increase level by
        // level, so adjacent vertices can never be more than "one whole
        // level plus the two levels' sizes" apart. We check the weaker but
        // exact property: for every edge, the CM labels of its endpoints
        // differ by less than the sum of the two largest level sizes... and
        // more usefully, that every vertex's label is strictly greater than
        // its parent's (min-labeled neighbour in the previous level).
        let a = build_matrix(n, &edges);
        let (cm, _) = rcm_core::cuthill_mckee(&a);
        let labels = cm.as_new_of_old();
        // For each non-root vertex in a component, at least one neighbour
        // must have a smaller label (its parent) — CM grows connected
        // prefixes within each component.
        let old_of_new = cm.old_of_new();
        let mut is_component_root = vec![false; n];
        let mut seen_components = std::collections::HashSet::new();
        // Roots are exactly the vertices whose label is the smallest in
        // their component; find them by scanning labels in order.
        let mut comp_of = vec![usize::MAX; n];
        let mut comp_count = 0usize;
        for v in 0..n {
            if comp_of[v] == usize::MAX {
                // BFS to mark the component.
                let mut stack = vec![v];
                comp_of[v] = comp_count;
                while let Some(u) = stack.pop() {
                    for &w in a.col(u) {
                        if comp_of[w as usize] == usize::MAX {
                            comp_of[w as usize] = comp_count;
                            stack.push(w as usize);
                        }
                    }
                }
                comp_count += 1;
            }
        }
        for &v in &old_of_new {
            let c = comp_of[v as usize];
            if seen_components.insert(c) {
                is_component_root[v as usize] = true;
            }
        }
        for v in 0..n {
            if is_component_root[v] || a.col(v).is_empty() {
                continue;
            }
            let has_smaller_neighbour =
                a.col(v).iter().any(|&w| labels[w as usize] < labels[v]);
            prop_assert!(
                has_smaller_neighbour,
                "vertex {v} (label {}) has no parent",
                labels[v]
            );
        }
    }

    #[test]
    fn all_heuristics_return_valid_permutations(
        n in 1usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120),
    ) {
        let a = build_matrix(n, &edges);
        for (name, p) in [
            ("rcm", rcm(&a)),
            ("algebraic", engine_rcm(&a, BackendKind::Serial)),
            ("shared", pooled_rcm(&a, 2)),
            ("sloan", sloan(&a)),
            ("nosort", rcm_nosort(&a)),
            ("globalsort", rcm_globalsort(&a)),
        ] {
            prop_assert_eq!(p.len(), n, "{} wrong length", name);
            prop_assert_eq!(
                p.then(&p.inverse()),
                Permutation::identity(n),
                "{} not a bijection",
                name
            );
        }
    }

    #[test]
    fn par_rcm_equals_serial_at_every_thread_count(
        n in 1usize..70,
        edges in proptest::collection::vec((0usize..70, 0usize..70), 0..180),
    ) {
        // Random graphs are frequently disconnected at these densities, so
        // this also covers the multi-component seed scan. CI overrides the
        // sweep via RCM_THREADS.
        let a = build_matrix(n, &edges);
        let expect = rcm(&a);
        let (expect_cm, _) = rcm_core::cuthill_mckee(&a);
        for t in thread_counts_from_env(&[1, 3, 8]) {
            let got = pooled_rcm(&a, t);
            prop_assert_eq!(&got, &expect, "pooled RCM diverged at {} threads", t);
            prop_assert_eq!(&got.reversed(), &expect_cm, "pooled CM diverged at {} threads", t);
        }
    }

    #[test]
    fn profile_metrics_agree_with_materialization(
        n in 1usize..50,
        edges in proptest::collection::vec((0usize..50, 0usize..50), 0..100),
    ) {
        let a = build_matrix(n, &edges);
        let p = rcm(&a);
        let pa = a.permute_sym(&p);
        prop_assert_eq!(ordering_bandwidth(&a, &p), matrix_bandwidth(&pa));
        prop_assert_eq!(ordering_profile(&a, &p), envelope_size(&pa));
    }

    #[test]
    fn pseudo_peripheral_never_decreases_eccentricity(
        n in 2usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 1..120),
        start in 0usize..60,
    ) {
        let a = build_matrix(n, &edges);
        let start = (start % n) as Vidx;
        let pp = pseudo_peripheral(&a, start);
        let start_ecc = bfs_level_structure(&a, start).eccentricity();
        prop_assert!(pp.eccentricity >= start_ecc);
        // The returned eccentricity must be correct.
        let check = bfs_level_structure(&a, pp.vertex).eccentricity();
        prop_assert_eq!(pp.eccentricity, check);
    }

    #[test]
    fn bfs_level_structure_is_a_valid_bfs(
        n in 1usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..150),
        root in 0usize..60,
    ) {
        let a = build_matrix(n, &edges);
        let root = (root % n) as Vidx;
        let ls = bfs_level_structure(&a, root);
        // Edge levels differ by at most one within the component.
        for (r, c) in a.iter_entries() {
            let (lr, lc) = (ls.level_of[r as usize], ls.level_of[c as usize]);
            if lr >= 0 && lc >= 0 {
                prop_assert!((lr - lc).abs() <= 1, "edge ({r},{c}) spans levels {lr},{lc}");
            } else {
                prop_assert!(lr < 0 && lc < 0, "edge between component and outside");
            }
        }
        // Level boundaries partition the order array.
        let total: usize = (0..ls.height()).map(|k| ls.level(k).len()).sum();
        prop_assert_eq!(total, ls.component_size());
        // Each level-k vertex (k>0) has a neighbour in level k-1.
        for k in 1..ls.height() {
            for &v in ls.level(k) {
                let ok = a
                    .col(v as usize)
                    .iter()
                    .any(|&w| ls.level_of[w as usize] == k as i32 - 1);
                prop_assert!(ok, "vertex {v} in level {k} has no parent");
            }
        }
    }

    #[test]
    fn sloan_profile_no_worse_than_natural(
        n in 2usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 1..150),
    ) {
        let a = build_matrix(n, &edges);
        let id = Permutation::identity(n);
        let p = sloan(&a);
        // Sloan orders from a pseudo-peripheral pair; on *arbitrary* inputs
        // it must at minimum stay within a constant factor of the input
        // profile (it's a minimization heuristic, not a guarantee).
        let before = ordering_profile(&a, &id).max(1);
        let after = ordering_profile(&a, &p);
        prop_assert!(
            after <= before * 2 + n as u64,
            "sloan exploded the profile: {} -> {}",
            before,
            after
        );
    }
}

/// Degenerate shapes that stress specific backend paths: the star's single
/// fat level (parallel pipeline with one shared parent), the path's chain
/// of singleton levels (sequential cutover on every level), and a forest of
/// disconnected pieces (per-component seed scan + visited bookkeeping).
mod par_rcm_degenerate_graphs {
    use super::*;

    fn assert_matches_serial(a: &CscMatrix, what: &str) {
        let expect = rcm(a);
        for t in thread_counts_from_env(&[1, 3, 8]) {
            assert_eq!(pooled_rcm(a, t), expect, "{what}: diverged at {t} threads");
        }
    }

    #[test]
    fn star_graph() {
        let n = 3000;
        let mut b = CooBuilder::new(n, n);
        for v in 1..n {
            b.push_sym(0, v as Vidx);
        }
        assert_matches_serial(&b.build(), "star");
    }

    #[test]
    fn path_graph() {
        let n = 2000;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        assert_matches_serial(&b.build(), "path");
    }

    #[test]
    fn disconnected_forest() {
        // Stars of decreasing size plus isolated vertices, interleaved ids.
        let n = 1500;
        let mut b = CooBuilder::new(n, n);
        let mut v = 0usize;
        let mut hub_size = 64usize;
        while v + hub_size + 1 < n && hub_size > 1 {
            let hub = v as Vidx;
            for l in 1..=hub_size {
                b.push_sym(hub, (v + l) as Vidx);
            }
            v += hub_size + 7; // gap leaves isolated vertices between stars
            hub_size = hub_size * 3 / 4;
        }
        assert_matches_serial(&b.build(), "forest");
    }

    #[test]
    fn two_wide_components() {
        // Two caterpillars whose levels clear the sequential cutover, so
        // the parallel pipeline runs in both components.
        let hubs = 4usize;
        let leaves = 400usize;
        let comp = hubs * (leaves + 1);
        let mut b = CooBuilder::new(2 * comp, 2 * comp);
        for c in 0..2 {
            for h in 0..hubs {
                let hub = (c * comp + h * (leaves + 1)) as Vidx;
                if h + 1 < hubs {
                    b.push_sym(hub, hub + (leaves + 1) as Vidx);
                }
                for l in 1..=leaves {
                    b.push_sym(hub, hub + l as Vidx);
                }
            }
        }
        assert_matches_serial(&b.build(), "two-caterpillars");
    }
}
