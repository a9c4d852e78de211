//! Warm-engine reuse equivalence — the workspace-poisoning check of the
//! `OrderingEngine` layer: one engine reused across a hostile sequence of
//! matrices (huge → degenerate → star/path/forest → huge) must return
//! permutations bit-identical to fresh single-use engines on every
//! backend, at every `RCM_THREADS` count and under every
//! `RCM_DIRECTION` policy (CI sweeps both). Plus the growth-event test:
//! a warm engine's install-managed buffers stop growing once it has seen
//! its largest matrix.

use distributed_rcm::core::{thread_counts_from_env, BackendKind, EngineConfig, OrderingEngine};
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RCM permutation of `a` from a fresh single-use engine.
fn single_shot(a: &CscMatrix, kind: BackendKind) -> Permutation {
    OrderingEngine::with_backend(kind).order(a).perm
}

fn grid_graph(w: usize, stride: usize) -> CscMatrix {
    let mut b = CooBuilder::new(w * w, w * w);
    for y in 0..w {
        for x in 0..w {
            let u = (y * w + x) as Vidx;
            if x + 1 < w {
                b.push_sym(u, u + 1);
            }
            if y + 1 < w {
                b.push_sym(u, u + w as Vidx);
            }
        }
    }
    let n = w * w;
    let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
    b.build()
        .permute_sym(&Permutation::from_new_of_old(perm).unwrap())
}

fn star(n: usize) -> CscMatrix {
    let mut b = CooBuilder::new(n, n);
    for v in 1..n as Vidx {
        b.push_sym(0, v);
    }
    b.build()
}

fn path(n: usize) -> CscMatrix {
    let mut b = CooBuilder::new(n, n);
    for v in 0..(n - 1) as Vidx {
        b.push_sym(v, v + 1);
    }
    b.build()
}

fn forest() -> CscMatrix {
    // A 7-path, a 5-star, two 2-edges, isolated rest: pull masks span
    // not-yet-ordered components.
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
}

/// The hostile reuse sequence: a huge matrix first (buffers grow to their
/// high-water mark), then shapes engineered to expose stale state — empty
/// and single-vertex installs, a star (one fat level), a path (hundreds of
/// singleton frontiers), a disconnected forest — then a *different* huge
/// matrix again.
fn hostile_sequence() -> Vec<(&'static str, CscMatrix)> {
    vec![
        ("huge-grid", grid_graph(40, 13)),
        ("empty", CscMatrix::empty(0)),
        ("single-vertex", CscMatrix::empty(1)),
        ("star", star(41)),
        ("path", path(37)),
        ("forest", forest()),
        ("huge-grid-2", grid_graph(36, 17)),
    ]
}

/// Backends to sweep: serial, pooled at every `RCM_THREADS` count, dist,
/// hybrid.
fn backend_kinds() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Serial];
    kinds.extend(
        thread_counts_from_env(&[1, 3])
            .into_iter()
            .map(|threads| BackendKind::Pooled { threads }),
    );
    kinds.push(BackendKind::Dist {
        cores: 4,
        threads_per_proc: 1,
    });
    kinds.push(BackendKind::Dist {
        cores: 24,
        threads_per_proc: 6,
    });
    kinds
}

#[test]
fn warm_engine_survives_the_hostile_sequence_on_every_backend() {
    let sequence = hostile_sequence();
    for kind in backend_kinds() {
        let mut engine = OrderingEngine::new(EngineConfig::builder().backend(kind).build());
        for (name, a) in &sequence {
            let report = engine.order(a);
            let fresh = single_shot(a, kind);
            assert_eq!(
                report.perm,
                fresh,
                "{} engine poisoned by reuse at {name}",
                kind.name()
            );
            assert_eq!(report.n, a.n_rows());
            assert!(report.bandwidth_after <= report.bandwidth_before.max(1));
        }
        assert_eq!(engine.orderings(), sequence.len());
    }
}

#[test]
fn warm_engine_batch_matches_single_shot_on_the_hostile_sequence() {
    let mats: Vec<CscMatrix> = hostile_sequence().into_iter().map(|(_, a)| a).collect();
    for threads in thread_counts_from_env(&[1, 2, 8]) {
        let kind = BackendKind::Pooled { threads };
        let mut engine = OrderingEngine::new(EngineConfig::builder().backend(kind).build());
        // Two rounds through the same engine: batch state must not leak
        // into the next batch either.
        for round in 0..2 {
            let reports = engine.order_batch(&mats);
            assert_eq!(reports.len(), mats.len());
            for (i, (a, report)) in mats.iter().zip(&reports).enumerate() {
                assert_eq!(
                    report.perm,
                    single_shot(a, kind),
                    "batch slot {i} diverged at {threads} threads (round {round})"
                );
            }
        }
    }
}

#[test]
fn warm_engine_growth_events_stop_at_the_high_water_mark() {
    // The growth-event test (same pattern as the DistSpmspvWorkspace
    // tests): once the engine has ordered its largest matrix, re-ordering
    // anything no larger performs zero growth of the install-managed warm
    // buffers.
    let big = grid_graph(32, 13);
    let smalls = [grid_graph(10, 3), star(200), path(300), forest()];
    let mut kinds = vec![
        BackendKind::Serial,
        BackendKind::Dist {
            cores: 4,
            threads_per_proc: 1,
        },
    ];
    kinds.extend(
        thread_counts_from_env(&[3])
            .into_iter()
            .map(|threads| BackendKind::Pooled { threads }),
    );
    for kind in kinds {
        let mut engine = OrderingEngine::new(EngineConfig::builder().backend(kind).build());
        engine.order(&big);
        let warm = engine.growth_events();
        assert!(warm > 0, "{}: first install must grow", kind.name());
        for _ in 0..2 {
            for a in &smalls {
                engine.order(a);
            }
            engine.order(&big);
        }
        assert_eq!(
            engine.growth_events(),
            warm,
            "{}: warm engine grew on a not-larger matrix",
            kind.name()
        );
        // A strictly larger matrix must grow again — the counter is live.
        engine.order(&grid_graph(34, 7));
        assert!(
            engine.growth_events() > warm,
            "{}: larger matrix must grow",
            kind.name()
        );
    }
}

/// Random symmetric graph from a seed: n vertices, ~avg_deg·n/2 edges.
fn random_graph(n: usize, avg_deg: usize, seed: u64) -> CscMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CooBuilder::new(n, n);
    for _ in 0..(n * avg_deg / 2) {
        let u = rng.gen_range(0..n) as Vidx;
        let v = rng.gen_range(0..n) as Vidx;
        if u != v {
            b.push_sym(u, v);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random reuse sequences: a warm engine ordering a big random graph,
    /// then several smaller ones, then the big one again, stays
    /// bit-identical to single-shot calls on every backend — no ordering
    /// may depend on what the engine saw before.
    #[test]
    fn warm_reuse_is_bit_identical_on_random_sequences(
        n in 40usize..140, deg in 1usize..7, seed in 0u64..500
    ) {
        let big = random_graph(n, deg, seed);
        let small_a = random_graph(n / 3 + 2, deg, seed ^ 0xA5A5);
        let small_b = random_graph(n / 5 + 2, deg.min(3), seed ^ 0x5A5A);
        let sequence = [&big, &small_a, &small_b, &big];
        for kind in backend_kinds() {
            let mut engine = OrderingEngine::new(EngineConfig::builder().backend(kind).build());
            for (i, a) in sequence.iter().enumerate() {
                let warm = engine.order(a).perm;
                let fresh = single_shot(a, kind);
                prop_assert_eq!(
                    &warm, &fresh,
                    "{} engine diverged at step {} (n={}, deg={}, seed={})",
                    kind.name(), i, n, deg, seed
                );
            }
        }
    }
}
