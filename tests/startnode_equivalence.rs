//! Start-node strategy equivalence tests: every [`StartNode`] strategy must
//! return a valid in-component start vertex on degenerate shapes (empty,
//! isolated vertices, star, path, forest) and produce a deterministic
//! ordering — bit-identical across all four backends at every
//! `RCM_THREADS` count. CI sweeps this file under
//! `RCM_START_NODE=george-liu|min-degree` (the engine default is
//! env-derived, so the sweep exercises the env path too) and
//! `RCM_THREADS=1,2,8`.

use distributed_rcm::core::thread_counts_from_env;
use distributed_rcm::graphgen::forest;
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;
use proptest::prelude::*;

/// Serial + pooled (at every `RCM_THREADS` count) + dist + hybrid.
fn all_kinds() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Serial];
    for &t in &thread_counts_from_env(&[1, 2, 8]) {
        kinds.push(BackendKind::Pooled { threads: t });
    }
    kinds.push(BackendKind::Dist {
        cores: 16,
        threads_per_proc: 1,
    });
    kinds.push(BackendKind::Dist {
        cores: 24,
        threads_per_proc: 6,
    });
    kinds
}

/// The strategy set under test for an `n`-vertex matrix: the two
/// env-selectable strategies plus an in-range fixed vertex and an
/// out-of-range one (which must fall back to George–Liu, not panic).
fn strategies(n: usize) -> Vec<StartNode> {
    vec![
        StartNode::GeorgeLiu,
        StartNode::MinDegree,
        StartNode::Fixed((n / 2) as Vidx),
        StartNode::Fixed(n as Vidx + 7),
    ]
}

fn order_with(a: &CscMatrix, kind: BackendKind, strategy: StartNode) -> OrderingReport {
    let mut engine = OrderingEngine::new(
        EngineConfig::builder()
            .backend(kind)
            .start_node(strategy)
            .build(),
    );
    engine.order(a)
}

/// A valid run: the permutation is a bijection over all `n` vertices, one
/// peripheral record per component, and every recorded start vertex lies
/// in a distinct component (i.e. the strategy picked in-component).
fn assert_valid(a: &CscMatrix, report: &OrderingReport, label: &str) {
    let n = a.n_rows();
    assert_eq!(report.perm.len(), n, "{label}: permutation length");
    let comps = connected_components(a);
    assert_eq!(
        report.stats.peripheral_stats.len(),
        comps.count(),
        "{label}: one start-node record per component"
    );
    let mut seen: Vec<u32> = report
        .stats
        .peripheral_stats
        .iter()
        .map(|p| {
            assert!((p.start as usize) < n, "{label}: start out of range");
            comps.component_of[p.start as usize]
        })
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        comps.count(),
        "{label}: every component got its own in-component start"
    );
}

fn degenerate_shapes() -> Vec<(&'static str, CscMatrix)> {
    let mut shapes = Vec::new();
    shapes.push(("empty", CooBuilder::new(0, 0).build()));
    shapes.push(("isolated", CooBuilder::new(5, 5).build()));
    let mut star = CooBuilder::new(8, 8);
    for leaf in 1..8 {
        star.push_sym(0, leaf as Vidx);
    }
    shapes.push(("star", star.build()));
    let mut path = CooBuilder::new(9, 9);
    for v in 0..8 {
        path.push_sym(v as Vidx, (v + 1) as Vidx);
    }
    shapes.push(("path", path.build()));
    shapes.push(("forest", forest(5, 7, 23)));
    shapes
}

#[test]
fn every_strategy_is_valid_and_deterministic_on_degenerate_shapes() {
    for (shape, a) in degenerate_shapes() {
        for strategy in strategies(a.n_rows()) {
            let reference = order_with(&a, BackendKind::Serial, strategy);
            assert_valid(&a, &reference, &format!("{shape}/{}", strategy.name()));
            for kind in all_kinds() {
                let report = order_with(&a, kind, strategy);
                assert_eq!(
                    report.perm,
                    reference.perm,
                    "{shape}: strategy {} diverged on {}",
                    strategy.name(),
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn zero_sweep_strategies_run_zero_sweeps() {
    let a = forest(4, 9, 5);
    let md = order_with(&a, BackendKind::Serial, StartNode::MinDegree);
    assert_eq!(
        md.peripheral_sweeps(),
        0,
        "min-degree must not run any BFS sweep"
    );
    // A fixed vertex zero-sweeps *its* component; the remaining components
    // fall back to the George–Liu search.
    let fixed = order_with(&a, BackendKind::Serial, StartNode::Fixed(0));
    assert_eq!(
        fixed.stats.peripheral_stats[0].sweeps, 0,
        "the fixed component must not run any BFS sweep"
    );
    assert_eq!(fixed.stats.peripheral_stats[0].start, 0);
    let gl = order_with(&a, BackendKind::Serial, StartNode::GeorgeLiu);
    assert!(gl.peripheral_sweeps() > 0);
}

/// `StartNode::from_env` falls back to George–Liu on a value it does not
/// recognize, so a sweep entry naming no strategy (a misspelling, or a
/// deleted strategy left in the CI loop) would re-run the default and
/// still pass. Fail it instead.
#[test]
fn swept_start_node_names_a_strategy() {
    if let Some(spec) = std::env::var_os("RCM_START_NODE") {
        let spec = spec.to_string_lossy();
        assert!(
            StartNode::parse(&spec).is_some(),
            "RCM_START_NODE={spec} names no start-node strategy; the sweep would run george-liu"
        );
    }
}

#[test]
fn fixed_vertex_labels_its_component_first() {
    // Two components: a path {0..4} and a triangle {5,6,7}. Fixing a
    // start inside the triangle must label that component first (highest
    // CM labels come last after the reversal, so the triangle holds the
    // *last* RCM labels... the invariant we pin is just: the triangle's
    // record comes first and starts at the fixed vertex).
    let mut b = CooBuilder::new(8, 8);
    for v in 0..4 {
        b.push_sym(v as Vidx, (v + 1) as Vidx);
    }
    b.push_sym(5, 6);
    b.push_sym(6, 7);
    b.push_sym(7, 5);
    let a = b.build();
    let report = order_with(&a, BackendKind::Serial, StartNode::Fixed(6));
    assert_eq!(report.stats.peripheral_stats[0].start, 6);
    for kind in all_kinds() {
        let r = order_with(&a, kind, StartNode::Fixed(6));
        assert_eq!(r.perm, report.perm, "fixed(6) diverged on {}", kind.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random forests (the adversarial multi-component shape) through
    /// every strategy on every backend: valid in-component starts and
    /// bit-identical orderings.
    #[test]
    fn strategies_agree_across_backends_on_random_forests(
        trees in 1usize..6,
        verts in 1usize..12,
        seed in 0u64..100,
    ) {
        let a = forest(trees, verts, seed);
        for strategy in strategies(a.n_rows()) {
            let reference = order_with(&a, BackendKind::Serial, strategy);
            assert_valid(&a, &reference, &format!("forest/{}", strategy.name()));
            for kind in all_kinds() {
                let report = order_with(&a, kind, strategy);
                prop_assert_eq!(
                    &report.perm,
                    &reference.perm,
                    "strategy {} diverged on {}",
                    strategy.name(),
                    kind.name()
                );
            }
        }
    }
}
