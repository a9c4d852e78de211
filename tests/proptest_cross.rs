//! Workspace-level property tests: random graphs through the full pipeline.

use distributed_rcm::core::{
    dist_rcm, drive_cm_with, pseudo_peripheral, rcm_globalsort, DistRcmConfig, LabelingMode,
    SerialBackend, SortMode,
};
use distributed_rcm::dist::{HybridConfig, MachineModel};
use distributed_rcm::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random symmetric graph from a seed: n vertices, ~avg_deg·n/2 edges.
fn random_graph(n: usize, avg_deg: usize, seed: u64) -> CscMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CooBuilder::new(n, n);
    for _ in 0..(n * avg_deg / 2) {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            b.push_sym(u, v);
        }
    }
    b.build()
}

/// RCM from a fresh engine on `backend` with George–Liu start nodes.
fn engine_rcm(a: &CscMatrix, backend: BackendKind) -> Permutation {
    let config = EngineConfig::builder()
        .backend(backend)
        .start_node(StartNode::GeorgeLiu)
        .build();
    OrderingEngine::new(config).order(a).perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_implementations_agree(n in 2usize..120, deg in 1usize..8, seed in 0u64..500) {
        let a = random_graph(n, deg, seed);
        let serial = rcm(&a);
        let algebraic = engine_rcm(&a, BackendKind::Serial);
        let shared = engine_rcm(&a, BackendKind::Pooled { threads: 2 });
        prop_assert_eq!(&serial, &algebraic);
        prop_assert_eq!(&serial, &shared);
        let cfg = DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(4, 1),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::from_env(),
            start_node: StartNode::GeorgeLiu,
        };
        let dist = dist_rcm(&a, &cfg);
        prop_assert_eq!(&serial, &dist.perm);
        // The hybrid backend shares the data path; only the cost model
        // differs.
        let hybrid_cfg = DistRcmConfig {
            hybrid: HybridConfig::new(24, 6),
            ..cfg
        };
        let hybrid = dist_rcm(&a, &hybrid_cfg);
        prop_assert_eq!(&serial, &hybrid.perm);
    }

    #[test]
    fn global_at_end_labeling_matches_rcm_globalsort(
        n in 1usize..150, deg in 0usize..5, seed in 0u64..1000
    ) {
        // The driver's LabelingMode::GlobalAtEnd (serial backend) and the
        // distributed GlobalSortAtEnd mode (flat and hybrid grids of 1, 4
        // and 9 ranks) against the independent sequential implementation.
        // These sparse graphs often have several components and isolated
        // vertices.
        let a = random_graph(n, deg, seed);
        let expect = rcm_globalsort(&a);
        for direction in [ExpandDirection::Push, ExpandDirection::Pull] {
            let mut rt = SerialBackend::new(&a);
            drive_cm_with(&mut rt, LabelingMode::GlobalAtEnd, direction, &StartNode::GeorgeLiu);
            let serial = rt.into_cm_permutation().reversed();
            prop_assert_eq!(&serial, &expect, "serial driver, {}", direction.name());
            for ranks in [1usize, 4, 9] {
                for threads_per_proc in [1usize, 6] {
                    let cfg = DistRcmConfig {
                        machine: MachineModel::edison(),
                        hybrid: HybridConfig::new(ranks * threads_per_proc, threads_per_proc),
                        balance_seed: None,
                        sort_mode: SortMode::GlobalSortAtEnd,
                        direction,
                        start_node: StartNode::GeorgeLiu,
                    };
                    prop_assert_eq!(
                        &dist_rcm(&a, &cfg).perm,
                        &expect,
                        "{} ranks x {} threads, {}",
                        ranks,
                        threads_per_proc,
                        direction.name()
                    );
                }
            }
        }
    }

    #[test]
    fn rcm_is_approximately_idempotent(
        n in 2usize..100, deg in 1usize..6, seed in 0u64..500
    ) {
        // RCM is a heuristic, not a fixed point: re-running it on its own
        // output may pick a different pseudo-peripheral root and drift by a
        // little. It must never drift by much.
        let a = random_graph(n, deg, seed);
        let p1 = rcm(&a);
        let a1 = a.permute_sym(&p1);
        let p2 = rcm(&a1);
        let bw1 = matrix_bandwidth(&a1);
        let bw2 = ordering_bandwidth(&a1, &p2);
        prop_assert!(
            bw2 as f64 <= bw1 as f64 * 1.5 + 3.0,
            "re-RCM drifted badly: {} -> {}",
            bw1,
            bw2
        );
    }

    #[test]
    fn components_receive_contiguous_label_ranges(
        n in 2usize..100, deg in 0usize..4, seed in 0u64..500
    ) {
        // Exact structural invariant of (R)CM: every connected component is
        // labeled as one contiguous block.
        let a = random_graph(n, deg, seed);
        let p = rcm(&a);
        // Union-find over edges.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (r, c) in a.iter_entries() {
            let (pr, pc) = (find(&mut parent, r as usize), find(&mut parent, c as usize));
            if pr != pc {
                parent[pr] = pc;
            }
        }
        use std::collections::HashMap;
        let mut ranges: HashMap<usize, (u32, u32, usize)> = HashMap::new();
        for v in 0..n {
            let root = find(&mut parent, v);
            let label = p.new_of(v as u32);
            let e = ranges.entry(root).or_insert((label, label, 0));
            e.0 = e.0.min(label);
            e.1 = e.1.max(label);
            e.2 += 1;
        }
        for (_, (lo, hi, count)) in ranges {
            prop_assert_eq!(
                (hi - lo + 1) as usize,
                count,
                "component labels are not contiguous"
            );
        }
    }

    #[test]
    fn sort_mode_ablation_always_valid(n in 2usize..80, deg in 1usize..6, seed in 0u64..200) {
        let a = random_graph(n, deg, seed);
        for mode in [SortMode::Full, SortMode::NoSort, SortMode::GlobalSortAtEnd] {
            let cfg = DistRcmConfig {
                machine: MachineModel::edison(),
                hybrid: HybridConfig::new(4, 1),
                balance_seed: None,
                sort_mode: mode,
                direction: ExpandDirection::from_env(),
                start_node: StartNode::GeorgeLiu,
            };
            let r = dist_rcm(&a, &cfg);
            prop_assert_eq!(r.perm.len(), n);
            // Bijectivity is enforced by the Permutation type; verify the
            // labeling covered every vertex by round-tripping.
            prop_assert_eq!(
                r.perm.then(&r.perm.inverse()),
                Permutation::identity(n)
            );
        }
    }

    #[test]
    fn distributed_deterministic_across_grids_with_balance(
        n in 8usize..80, deg in 1usize..6, seed in 0u64..200
    ) {
        // With a *fixed* balance seed the result must still be identical
        // across grid sizes (the permutation changes the internal ids the
        // same way regardless of the grid).
        let a = random_graph(n, deg, seed);
        let mut reference = None;
        for procs in [1usize, 4, 9] {
            let cfg = DistRcmConfig {
                machine: MachineModel::edison(),
                hybrid: HybridConfig::new(procs, 1),
                balance_seed: Some(7),
                sort_mode: SortMode::Full,
                direction: ExpandDirection::from_env(),
                start_node: StartNode::GeorgeLiu,
            };
            let r = dist_rcm(&a, &cfg);
            match &reference {
                None => reference = Some(r.perm),
                Some(p) => prop_assert_eq!(p, &r.perm, "grid {} diverged", procs),
            }
        }
    }

    #[test]
    fn pseudo_peripheral_ecc_at_least_half_diameter(
        n in 2usize..80, deg in 1usize..5, seed in 0u64..200
    ) {
        // Classic guarantee-flavored check: the pseudo-peripheral vertex's
        // eccentricity is at least that of the starting vertex.
        let a = random_graph(n, deg, seed);
        let pp = pseudo_peripheral(&a, 0);
        let start_ecc = distributed_rcm::core::bfs_level_structure(&a, 0).eccentricity();
        prop_assert!(pp.eccentricity >= start_ecc);
    }
}
