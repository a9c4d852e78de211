//! A quality oracle that is not another RCM. Every equivalence suite
//! compares RCM with RCM, so a change that made `rcm()` and every backend
//! equally worse (a wrong tie-break, a lost reversal, a poor start node)
//! would pass all of them. These tests compare the orderings with facts
//! that no RCM computed:
//!
//! * seeded random banded patterns of known bandwidth `k` (the path
//!   i–i+1 plus random offsets up to `k`, one of them exactly `k`), shuffled
//!   symmetrically: each ordering's bandwidth stays within `2k`, and the
//!   summed bandwidth and profile stay at or under values measured once
//!   and pinned below;
//! * seeded connected graphs with at most 8 vertices, whose exact minimum
//!   bandwidth a branch-and-bound search finds: the summed gap between each
//!   ordering and that minimum is pinned the same way.
//!
//! Every ordering runs: the classical `rcm()` and a fresh George–Liu engine
//! on every backend (serial, pooled at every `RCM_THREADS` count, dist at 1
//! and at 6 threads per process).

use distributed_rcm::core::{
    ordering_bandwidth, ordering_profile, thread_counts_from_env, BackendKind, EngineConfig,
    OrderingEngine, StartNode,
};
use distributed_rcm::graphgen::shuffled;
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;

/// Summed bandwidth of every ordering over [`banded_inputs`], measured
/// once (the natural orders sum to 105, `Σ k`; RCM's per-input ratio to
/// `k` read 0.75–1.33).
const BANDED_BANDWIDTH_SUM: usize = 94;
/// Summed profile of every ordering over [`banded_inputs`], measured once.
const BANDED_PROFILE_SUM: u64 = 8859;
/// Summed gap of every ordering's bandwidth above the exact minimum over
/// [`small_inputs`], measured once (RCM read 0–2 above it per graph).
const SMALL_GAP_SUM: usize = 10;

/// SplitMix64: a seeded stream that depends on no RNG crate.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, k: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % k as u64) as usize
    }
}

/// A connected pattern of bandwidth exactly `k` in its natural order: the
/// path i–i+1, from each vertex with probability 1/2 one edge to a random
/// offset in `1..=k`, and one edge of offset exactly `k`.
fn banded(n: usize, k: usize, seed: u64) -> CscMatrix {
    let mut rng = SplitMix(seed);
    let mut b = CooBuilder::new(n, n);
    for i in 0..n - 1 {
        b.push_sym(i as Vidx, (i + 1) as Vidx);
        if rng.below(2) == 0 {
            let j = i + 1 + rng.below(k);
            if j < n {
                b.push_sym(i as Vidx, j as Vidx);
            }
        }
    }
    let i = rng.below(n - k);
    b.push_sym(i as Vidx, (i + k) as Vidx);
    b.build()
}

/// Twelve shuffled banded patterns with their `k`: 120–320 vertices,
/// bandwidths 2–18.
fn banded_inputs() -> Vec<(usize, CscMatrix)> {
    [
        (120, 2),
        (160, 3),
        (200, 4),
        (240, 5),
        (280, 6),
        (320, 7),
        (120, 8),
        (160, 10),
        (200, 12),
        (240, 14),
        (280, 16),
        (320, 18),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (n, k))| {
        let a = banded(n, k, 0xba4d + i as u64);
        assert_eq!(matrix_bandwidth(&a), k, "the natural order has bandwidth k");
        (k, shuffled(&a, 0x5eed + i as u64))
    })
    .collect()
}

/// Thirty seeded connected graphs with 5–8 vertices: a random spanning
/// tree plus each other pair with probability 1/4.
fn small_inputs() -> Vec<CscMatrix> {
    (0..30u64)
        .map(|seed| {
            let n = 5 + (seed % 4) as usize;
            let mut rng = SplitMix(0x5a11 + seed);
            let mut b = CooBuilder::new(n, n);
            let mut tree = vec![usize::MAX; n];
            for (v, parent) in tree.iter_mut().enumerate().skip(1) {
                *parent = rng.below(v);
                b.push_sym(*parent as Vidx, v as Vidx);
            }
            for (v, &parent) in tree.iter().enumerate() {
                for u in 0..v {
                    if parent != u && rng.below(4) == 0 {
                        b.push_sym(u as Vidx, v as Vidx);
                    }
                }
            }
            b.build()
        })
        .collect()
}

/// The exact minimum bandwidth of a small pattern: a depth-first search
/// over vertex placements, cut as soon as an edge to a placed vertex
/// reaches the best bandwidth found so far.
fn exact_min_bandwidth(a: &CscMatrix) -> usize {
    fn place(a: &CscMatrix, pos: &mut [usize], placed: usize, width: usize, best: &mut usize) {
        if placed == pos.len() {
            *best = width;
            return;
        }
        for v in 0..pos.len() {
            if pos[v] != usize::MAX {
                continue;
            }
            let w = a
                .col(v)
                .iter()
                .filter(|&&u| pos[u as usize] != usize::MAX)
                .map(|&u| placed - pos[u as usize])
                .fold(width, usize::max);
            if w < *best {
                pos[v] = placed;
                place(a, pos, placed + 1, w, best);
                pos[v] = usize::MAX;
            }
        }
    }
    let mut best = a.n_rows();
    place(a, &mut vec![usize::MAX; a.n_rows()], 0, 0, &mut best);
    best
}

/// `rcm()` (as `None`) and a fresh George–Liu engine on every backend.
fn orderings() -> Vec<(String, Option<OrderingEngine>)> {
    let mut kinds = vec![BackendKind::Serial];
    kinds.extend(
        thread_counts_from_env(&[2])
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
    let mut out = vec![("rcm()".to_string(), None)];
    for kind in kinds {
        let config = EngineConfig::builder()
            .backend(kind)
            .start_node(StartNode::GeorgeLiu)
            .build();
        out.push((format!("{kind:?}"), Some(OrderingEngine::new(config))));
    }
    out
}

fn order(engine: &mut Option<OrderingEngine>, a: &CscMatrix) -> Permutation {
    match engine {
        Some(engine) => engine.order(a).perm,
        None => rcm(a),
    }
}

#[test]
fn banded_patterns_keep_their_pinned_bandwidth_and_profile() {
    let inputs = banded_inputs();
    for (name, mut engine) in orderings() {
        let (mut bandwidth, mut profile) = (0usize, 0u64);
        for (k, a) in &inputs {
            let perm = order(&mut engine, a);
            let bw = ordering_bandwidth(a, &perm);
            assert!(bw <= 2 * k, "{name}: bandwidth {bw} above 2k on k = {k}");
            bandwidth += bw;
            profile += ordering_profile(a, &perm);
        }
        assert!(
            bandwidth <= BANDED_BANDWIDTH_SUM,
            "{name}: summed bandwidth {bandwidth} above the pinned {BANDED_BANDWIDTH_SUM}"
        );
        assert!(
            profile <= BANDED_PROFILE_SUM,
            "{name}: summed profile {profile} above the pinned {BANDED_PROFILE_SUM}"
        );
    }
}

#[test]
fn small_graphs_stay_within_the_pinned_gap_to_the_exact_minimum() {
    let inputs: Vec<(CscMatrix, usize)> = small_inputs()
        .into_iter()
        .map(|a| {
            let exact = exact_min_bandwidth(&a);
            (a, exact)
        })
        .collect();
    for (name, mut engine) in orderings() {
        let mut gap = 0usize;
        for (i, (a, exact)) in inputs.iter().enumerate() {
            let bw = ordering_bandwidth(a, &order(&mut engine, a));
            assert!(bw >= *exact, "{name}: graph {i} beat the exact minimum");
            gap += bw - exact;
        }
        assert!(
            gap <= SMALL_GAP_SUM,
            "{name}: summed gap {gap} above the pinned {SMALL_GAP_SUM}"
        );
    }
}

#[test]
fn exact_minimum_bandwidth_is_right_on_known_graphs() {
    let graph = |n: usize, edges: &[(Vidx, Vidx)]| {
        let mut b = CooBuilder::new(n, n);
        for &(u, v) in edges {
            b.push_sym(u, v);
        }
        b.build()
    };
    // A scrambled path, a star (⌈(n-1)/2⌉), a cycle, a complete graph.
    assert_eq!(
        exact_min_bandwidth(&graph(6, &[(0, 3), (3, 1), (1, 5), (5, 2), (2, 4)])),
        1
    );
    assert_eq!(
        exact_min_bandwidth(&graph(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)])),
        3
    );
    assert_eq!(
        exact_min_bandwidth(&graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])),
        2
    );
    let k5: Vec<(Vidx, Vidx)> = (0..5).flat_map(|v| (0..v).map(move |u| (u, v))).collect();
    assert_eq!(exact_min_bandwidth(&graph(5, &k5)), 4);
}
