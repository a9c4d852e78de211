//! # distributed-rcm
//!
//! A from-scratch Rust reproduction of *"The Reverse Cuthill-McKee Algorithm
//! in Distributed-Memory"* (Azad, Jacquelin, Buluç, Ng — IPDPS 2017),
//! packaged as one facade crate re-exporting the workspace:
//!
//! * [`sparse`] — CSC/COO pattern matrices, sparse vectors, semirings,
//!   SpMSpV, bandwidth/envelope metrics, Matrix Market I/O.
//! * [`graphgen`] — synthetic stand-ins for the paper's evaluation suite.
//! * [`dist`] — the simulated distributed runtime: 2D process grid, α–β
//!   machine model, collectives, distributed Table-I primitives.
//! * [`core`] — RCM itself: the generic Table-I driver
//!   (`core::driver::RcmRuntime` + `core::driver::drive_cm_with`) with
//!   serial, pooled and distributed (flat MPI or hybrid) backends behind
//!   the warm `OrderingEngine`, plus the classical George–Liu
//!   implementation.
//! * [`solver`] — CG + block-Jacobi/IC(0) and the Fig. 1 time model.
//!
//! ## Quickstart
//!
//! ```
//! use distributed_rcm::prelude::*;
//!
//! // Generate a small suite matrix and reorder it.
//! let matrix = suite_matrix("ldoor").unwrap().generate(0.002);
//! let perm = rcm(&matrix);
//! let report = quality_report(&matrix, &perm);
//! assert!(report.bandwidth_after < report.bandwidth_before);
//!
//! // Simulate the distributed algorithm on 216 cores (6 threads/process).
//! let cfg = DistRcmConfig::hybrid_on_edison(216);
//! let result = dist_rcm(&matrix, &cfg);
//! assert_eq!(result.perm.len(), matrix.n_rows());
//! println!("simulated time: {:.3}s", result.sim_seconds);
//! ```

pub use rcm_core as core;
pub use rcm_dist as dist;
pub use rcm_graphgen as graphgen;
pub use rcm_solver as solver;
pub use rcm_sparse as sparse;

/// One-stop imports for applications: the per-call entry points (`rcm`,
/// `dist_rcm`, `sloan`), the warm engine tier, and the service tier
/// (submit/poll front door, pattern cache). Lower-level items (level
/// structures, quality breakdowns, the simulated runtime's internals) stay
/// behind their modules.
pub mod prelude {
    pub use rcm_core::{
        dist_rcm, ordering_bandwidth, quality_report, rcm, sloan, BackendKind, CacheConfig,
        CacheOutcome, CacheStats, DistRcmConfig, DistRcmResult, EngineConfig, EngineConfigBuilder,
        ExpandDirection, JobHandle, OrderingEngine, OrderingReport, OrderingRequest,
        OrderingService, PeripheralStat, RcmRuntime, ServiceConfig, ServiceStats, SortMode,
        StartNode,
    };
    pub use rcm_dist::{HybridConfig, MachineModel};
    pub use rcm_graphgen::{suite, suite_matrix, SuiteMatrix};
    pub use rcm_solver::{cg_iteration_cost, pcg, BlockJacobi, Preconditioner};
    pub use rcm_sparse::{
        connected_components, matrix_bandwidth, ComponentSplit, CooBuilder, CscMatrix, CsrNumeric,
        Permutation,
    };
}
