//! Reverse Cuthill-McKee orderings — sequential, shared-memory parallel, and
//! distributed-memory (the reproduction target: Azad, Jacquelin, Buluç, Ng,
//! *The Reverse Cuthill-McKee Algorithm in Distributed-Memory*, IPDPS 2017).
//!
//! Six front doors compute a [`Permutation`] mapping old vertex ids to new
//! labels:
//!
//! | entry point | algorithm | use case |
//! |---|---|---|
//! | [`rcm`] / [`cuthill_mckee`] | classical George–Liu RCM (Algorithm 1) | one-off orderings; the independent test oracle |
//! | [`OrderingEngine::order`] / [`OrderingEngine::order_batch`] | matrix-algebraic RCM (Algorithms 3–4) on a warm backend | sessions ordering many matrices, on any backend |
//! | [`OrderingService::submit`] | the engine behind sharded workers and a pattern cache | concurrent request streams |
//! | [`dist_rcm`] | 2D-decomposed RCM on the simulated runtime | the paper's contribution (Figs. 4–6) |
//! | [`drive_cm_with`] | the generic Algorithms 3–4 driver | backend authors |
//!
//! The algebraic front doors share **one** generic pipeline:
//! [`driver::drive_cm_with`] writes the pseudo-peripheral search,
//! level-synchronous BFS, and labeling `SORTPERM` once over the Table-I
//! primitives trait [`driver::RcmRuntime`], and the three backends in
//! [`backends`] (serial, pooled, and distributed at any thread count per
//! process) supply the primitives. All implementations produce
//! *identical* orderings (ties broken by vertex id); the distributed one
//! matches exactly whenever no load-balance permutation is applied. This cross-backend equality is the
//! backbone of the test suite.
//!
//! ```
//! use rcm_core::rcm;
//! use rcm_sparse::CooBuilder;
//!
//! // A path graph with scrambled vertex numbering.
//! let mut b = CooBuilder::new(5, 5);
//! for (u, v) in [(0, 3), (3, 1), (1, 4), (4, 2)] {
//!     b.push_sym(u, v);
//! }
//! let a = b.build();
//! let perm = rcm(&a);
//! let reordered = a.permute_sym(&perm);
//! assert_eq!(rcm_sparse::matrix_bandwidth(&reordered), 1);
//! ```

pub mod backends;
pub mod compress;
pub mod distributed;
pub mod driver;
pub mod engine;
pub mod peripheral;
pub mod pool;
pub mod quality;
pub mod serial;
pub mod service;
pub mod sloan;
pub mod unordered;

pub use backends::{DistBackend, PooledBackend, SerialBackend, SerialWorkspace};
pub use compress::{find_supervariables, rcm_compressed, CompressStats};
pub use distributed::{dist_rcm, DistRcmConfig, DistRcmResult, LevelStat, SortMode};
pub use driver::{
    drive_cm_with, BackendKind, DenseTarget, DriverStats, ExpandDirection, LabelingMode,
    PeripheralStat, RcmRuntime, StartNode, PULL_ALPHA, PULL_BETA,
};
pub use engine::{
    CacheConfig, EngineConfig, EngineConfigBuilder, OrderingEngine, OrderingReport,
    DEFAULT_CACHE_NNZ,
};
pub use peripheral::{bfs_level_structure, pseudo_peripheral, LevelStructure, PseudoPeripheral};
pub use pool::{
    thread_counts_from_env, ChunkQueue, PoolConfig, PooledWorkspace, RcmPool, DEFAULT_CHUNK,
    DEFAULT_SEQ_CUTOFF,
};
pub use quality::{
    ordering_bandwidth, ordering_profile, ordering_wavefront, quality_report, OrderingQuality,
};
pub use serial::{cuthill_mckee, SerialRcmStats};
pub use service::{
    CacheOutcome, CacheStats, CachedOrdering, JobHandle, OrderingRequest, OrderingService,
    PatternCache, ServiceConfig, ServiceStats,
};
pub use sloan::{sloan, sloan_with_weights, SloanWeights};
pub use unordered::{rcm_globalsort, rcm_nosort};

use rcm_sparse::{CscMatrix, Permutation};

/// Compute the Reverse Cuthill-McKee ordering of a symmetric pattern matrix
/// with the sequential George–Liu algorithm (the right default for
/// single-machine use): [`cuthill_mckee`], reversed.
///
/// This stays the classical Algorithm 1 loop on purpose, not a call into
/// [`OrderingEngine`]:
///
/// * It is the independent oracle the cross-backend suites and the
///   repository benchmark's checker compare the engine against; routing it
///   through the engine would make those checks compare the engine with
///   itself.
/// * Speed no longer argues for it. A warm serial engine on the repository
///   benchmark's shapes (2-vCPU AMD EPYC, medians of 11 orderings, five
///   runs) takes 0.8–0.9× this loop's time on the mesh, 0.5× on the dense
///   shape, whose wide levels it pulls with an early exit, 0.6× on a
///   1600-tree forest, and 1.2× on the KKT shape, whose thin levels leave
///   the generic driver's separate `SELECT`, `SET` and `SORTPERM` passes
///   in view.
pub fn rcm(a: &CscMatrix) -> Permutation {
    cuthill_mckee(a).0.reversed()
}

/// Shared test fixtures (one copy instead of one per test module).
#[cfg(test)]
pub(crate) mod testutil {
    use crate::{BackendKind, OrderingEngine};
    use rcm_sparse::{CooBuilder, CscMatrix, Permutation, Vidx};

    /// The RCM permutation of `a` from a fresh single-use engine.
    pub(crate) fn single_shot(a: &CscMatrix, kind: BackendKind) -> Permutation {
        OrderingEngine::with_backend(kind).order(a).perm
    }

    /// A `w × w` 2D grid graph with its vertices scrambled by the affine
    /// map `i ↦ (i · stride) mod n` — the standard adversarial input of
    /// the cross-backend tests (a known-good topology under an ordering
    /// the algorithms must undo).
    pub(crate) fn scrambled_grid(w: usize, stride: usize) -> CscMatrix {
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
}
