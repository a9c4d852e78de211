//! Cross-backend integration tests: the four `RcmRuntime` backends run the
//! *same* generic driver (`rcm_core::driver::drive_cm_with`) and must therefore
//! agree bit for bit wherever determinism is guaranteed — on every suite
//! class and on every degenerate shape — and in quality where internal
//! relabeling is allowed.

use distributed_rcm::core::{
    dist_rcm, drive_cm_with, rcm_globalsort, thread_counts_from_env, BackendKind, DistRcmConfig,
    LabelingMode, SerialBackend, SortMode,
};
use distributed_rcm::dist::{HybridConfig, MachineModel};
use distributed_rcm::graphgen::suite;
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;

/// The RCM permutation of `a` from a fresh single-use engine.
fn single_shot(a: &CscMatrix, kind: BackendKind) -> Permutation {
    OrderingEngine::with_backend(kind).order(a).perm
}

/// Tiny but structurally faithful instances of every suite class.
fn tiny_suite() -> Vec<(String, CscMatrix)> {
    suite()
        .into_iter()
        .map(|m| (m.name.to_string(), m.generate(m.default_scale * 0.05)))
        .collect()
}

/// The degenerate shapes every backend must survive: empty, single vertex,
/// star, path, and a disconnected forest (isolated vertices + fragments).
fn degenerates() -> Vec<(String, CscMatrix)> {
    let star = {
        let n = 41;
        let mut b = CooBuilder::new(n, n);
        for v in 1..n as Vidx {
            b.push_sym(0, v);
        }
        b.build()
    };
    let path = {
        let n = 37;
        let mut b = CooBuilder::new(n, n);
        for v in 0..(n - 1) as Vidx {
            b.push_sym(v, v + 1);
        }
        b.build()
    };
    let forest = {
        // 30 vertices: a 7-path, a 5-star, two 2-edges, and isolated rest.
        let mut b = CooBuilder::new(30, 30);
        for v in 0..6u32 {
            b.push_sym(v, v + 1);
        }
        for v in 8..12u32 {
            b.push_sym(7, v);
        }
        b.push_sym(13, 14);
        b.push_sym(16, 15);
        b.build()
    };
    vec![
        ("empty".to_string(), CscMatrix::empty(0)),
        ("single-vertex".to_string(), CscMatrix::empty(1)),
        ("star".to_string(), star),
        ("path".to_string(), path),
        ("forest".to_string(), forest),
    ]
}

/// The suite-level acceptance check of the `RcmRuntime` refactor: serial ==
/// pooled == dist == hybrid, bit for bit, on every suite graph and every
/// degenerate. The pooled sweep honors `RCM_THREADS` so CI exercises it at
/// several thread counts. The same inputs also pin the driver's
/// [`LabelingMode::GlobalAtEnd`] to its independent sequential
/// implementation, `rcm_globalsort`.
#[test]
fn all_four_backends_agree_bitwise_on_suite_and_degenerates() {
    let mut graphs = tiny_suite();
    graphs.extend(degenerates());
    for (name, a) in graphs {
        // The classical George–Liu serial ordering is the ground truth the
        // algebraic formulation provably matches.
        let expect = rcm(&a);
        assert_eq!(
            single_shot(&a, BackendKind::Serial),
            expect,
            "{name}: serial backend vs classical"
        );
        for threads in thread_counts_from_env(&[1, 3]) {
            assert_eq!(
                single_shot(&a, BackendKind::Pooled { threads }),
                expect,
                "{name}: pooled backend diverged at {threads} threads"
            );
        }
        for cores in [1usize, 4, 9] {
            assert_eq!(
                single_shot(
                    &a,
                    BackendKind::Dist {
                        cores,
                        threads_per_proc: 1
                    }
                ),
                expect,
                "{name}: dist backend diverged on {cores} ranks"
            );
        }
        for (cores, threads_per_proc) in [(24usize, 6usize), (54, 6)] {
            assert_eq!(
                single_shot(
                    &a,
                    BackendKind::Dist {
                        cores,
                        threads_per_proc
                    }
                ),
                expect,
                "{name}: hybrid backend diverged at {cores} cores x {threads_per_proc} threads"
            );
        }

        let globalsort = rcm_globalsort(&a);
        let mut rt = SerialBackend::new(&a);
        drive_cm_with(
            &mut rt,
            LabelingMode::GlobalAtEnd,
            ExpandDirection::from_env(),
            &StartNode::GeorgeLiu,
        );
        assert_eq!(
            rt.into_cm_permutation().reversed(),
            globalsort,
            "{name}: serial global-at-end labeling vs rcm_globalsort"
        );
        for config in [
            DistRcmConfig::flat_on_edison(4),
            DistRcmConfig::hybrid_on_edison(24),
        ] {
            let config = DistRcmConfig {
                sort_mode: SortMode::GlobalSortAtEnd,
                start_node: StartNode::GeorgeLiu,
                ..config
            };
            assert_eq!(
                dist_rcm(&a, &config).perm,
                globalsort,
                "{name}: global sort at end on {} cores vs rcm_globalsort",
                config.hybrid.cores
            );
        }
    }
}

#[test]
fn shared_backend_is_thread_count_independent_on_suite_classes() {
    // The acceptance sweep: bit-identical to the algebraic ordering at
    // every Table II thread count, on a graph large enough that interior
    // frontiers take the work-stealing parallel path.
    let m = distributed_rcm::graphgen::suite_matrix("ldoor").unwrap();
    let a = m.generate(m.default_scale * 0.5);
    let expect = single_shot(&a, BackendKind::Serial);
    for threads in [1usize, 2, 4, 8, 16] {
        let report = OrderingEngine::with_backend(BackendKind::Pooled { threads }).order(&a);
        assert_eq!(report.perm, expect, "ldoor diverged at {threads} threads");
        if threads > 1 {
            assert!(
                report.parallel_levels > 0,
                "{threads} threads never exercised the parallel pipeline"
            );
        }
    }
}

#[test]
fn hybrid_and_flat_share_the_data_path_at_every_scale() {
    // Fig. 6's sweep axis: for a fixed process grid, the thread count only
    // rescales compute cost — the permutation and the communication volume
    // must be unchanged.
    let m = distributed_rcm::graphgen::suite_matrix("nd24k").unwrap();
    let a = m.generate(m.default_scale * 0.1);
    let flat = dist_rcm(&a, &DistRcmConfig::flat_on_edison(16));
    for threads in [2usize, 6, 12] {
        let cfg = DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(16 * threads, threads),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::from_env(),
            start_node: StartNode::GeorgeLiu,
        };
        let hybrid = dist_rcm(&a, &cfg);
        assert_eq!(hybrid.perm, flat.perm, "{threads} threads/proc diverged");
        assert_eq!(hybrid.grid_side, flat.grid_side);
        assert_eq!(hybrid.messages, flat.messages);
        assert_eq!(hybrid.bytes, flat.bytes);
        assert!(
            hybrid.breakdown.compute_total() < flat.breakdown.compute_total(),
            "{threads} threads/proc must cut modeled compute"
        );
    }
}

#[test]
fn load_balance_permutation_keeps_quality() {
    for (name, a) in tiny_suite() {
        let baseline = {
            let p = rcm(&a);
            ordering_bandwidth(&a, &p)
        };
        let cfg = DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(4, 1),
            balance_seed: Some(42),
            sort_mode: SortMode::Full,
            direction: ExpandDirection::from_env(),
            start_node: StartNode::GeorgeLiu,
        };
        let r = dist_rcm(&a, &cfg);
        let bw = ordering_bandwidth(&a, &r.perm);
        // Internal relabeling may shift tie-breaks; allow a modest band.
        assert!(
            bw as f64 <= baseline as f64 * 1.5 + 16.0,
            "{name}: balanced bandwidth {bw} vs baseline {baseline}"
        );
    }
}

#[test]
fn rcm_quality_direction_matches_paper() {
    // The paper's Fig. 3: RCM helps a lot on the FEM classes, and is nearly
    // a no-op on Serena/Flan-like and CI-like matrices.
    for (name, a) in tiny_suite() {
        let p = rcm(&a);
        let q = quality_report(&a, &p);
        assert!(
            q.bandwidth_after <= q.bandwidth_before,
            "{name}: RCM must not worsen the bandwidth ({} -> {})",
            q.bandwidth_before,
            q.bandwidth_after
        );
        // audikw/dielFilter shrink to ~6³ cubes at test scale, where the
        // bandwidth floor (a cube face × 3 dofs) caps the reduction factor;
        // check the strong-reduction claim on classes that keep shape.
        if matches!(name.as_str(), "ldoor" | "thermal2" | "nlpkkt240") {
            assert!(
                q.bandwidth_after * 3 < q.bandwidth_before,
                "{name}: expected a strong reduction, got {} -> {}",
                q.bandwidth_before,
                q.bandwidth_after
            );
        }
    }
}

#[test]
fn permutations_are_bijections_with_reversal_symmetry() {
    for (name, a) in tiny_suite() {
        let (cm, _) = distributed_rcm::core::cuthill_mckee(&a);
        let rcm_p = rcm(&a);
        assert_eq!(cm.reversed(), rcm_p, "{name}: RCM must reverse CM");
        assert_eq!(
            cm.then(&cm.inverse()),
            Permutation::identity(a.n_rows()),
            "{name}: not a bijection"
        );
    }
}
