//! The distributed-memory RCM algorithm — Algorithms 3 and 4 of the paper
//! executed on the `rcm-dist` simulated runtime.
//!
//! This module holds only the run configuration and result types plus the
//! [`dist_rcm`] front door: the BFS/peripheral/labeling pipeline lives
//! **once** in [`crate::driver::drive_cm_with`], and `dist_rcm` runs it on
//! [`crate::backends::DistBackend`] — flat MPI at one thread per process,
//! the Fig. 6 MPI×OpenMP configuration above it. Every step charges
//! simulated time to a [`rcm_dist::SimClock`] under the phase taxonomy of
//! Fig. 4 (`Peripheral/Ordering × SpMSpV/Sort/Other`), which is what the
//! benchmark harness plots.
//!
//! Determinism: with `balance_seed = None` the returned permutation is
//! *identical* to the serial driver's and to [`crate::rcm`] for every grid
//! size and thread count — the cross-backend tests rely on this. A load-balance
//! permutation relabels vertices internally, which can change
//! `(degree, id)` tie-breaks; quality is unaffected but exact orderings may
//! differ.

use crate::backends::DistBackend;
use crate::driver::{drive_cm_with, DriverStats, ExpandDirection, LabelingMode, StartNode};
pub use crate::driver::{LevelStat, PeripheralStat};
use rcm_dist::{DistSpmspvWorkspace, HybridConfig, MachineModel};
use rcm_sparse::{CscMatrix, Label, Permutation};

/// How (and whether) frontier vertices are sorted before labeling — the
/// §VI "future work" ablation knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortMode {
    /// Per-level distributed bucket sort (the paper's algorithm).
    #[default]
    Full,
    /// No sorting: label frontier vertices in global index order. Saves the
    /// per-level AllToAlls at the price of ordering quality.
    NoSort,
    /// Label by BFS level only, with one global sort at the very end keyed
    /// by `(level, degree, vertex)`.
    GlobalSortAtEnd,
    /// Per-level sorting like [`SortMode::Full`], but with a *general* PSRS
    /// sample sort instead of the paper's specialized bucket sort — the
    /// §IV-B "state-of-the-art general sorting library" baseline. Produces
    /// the identical ordering at a higher simulated cost.
    GeneralSamplesort,
}

/// Configuration of a distributed RCM run.
#[derive(Clone, Copy, Debug)]
pub struct DistRcmConfig {
    /// Machine cost model.
    pub machine: MachineModel,
    /// Cores and threads-per-process.
    pub hybrid: HybridConfig,
    /// Seed of the load-balance permutation (§IV-A); `None` disables it.
    pub balance_seed: Option<u64>,
    /// Sorting strategy (ablation; default = the paper's algorithm).
    pub sort_mode: SortMode,
    /// Frontier-expansion direction policy (forced push/pull or the
    /// Beamer-style adaptive switch). Every policy produces the identical
    /// permutation; the constructors default it from `RCM_DIRECTION`.
    pub direction: ExpandDirection,
    /// Start-node selection strategy (George–Liu sweep, a fixed vertex, or
    /// zero-sweep min-degree). The constructors default it from
    /// `RCM_START_NODE`.
    pub start_node: StartNode,
}

impl DistRcmConfig {
    /// The paper's preferred configuration: Edison model, 6 threads/process.
    pub fn hybrid_on_edison(cores: usize) -> Self {
        DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(cores, 6),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::from_env(),
            start_node: StartNode::from_env(),
        }
    }

    /// Flat-MPI configuration (1 thread per process, Fig. 6).
    pub fn flat_on_edison(cores: usize) -> Self {
        DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(cores, 1),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::from_env(),
            start_node: StartNode::from_env(),
        }
    }
}

/// Result of a distributed RCM run.
#[derive(Clone, Debug)]
pub struct DistRcmResult {
    /// The RCM ordering (old vertex id → new label), in *original* ids.
    pub perm: Permutation,
    /// Simulated wall-clock seconds (sum of all phases).
    pub sim_seconds: f64,
    /// Per-phase compute/communication breakdown (Figs. 4–6).
    pub breakdown: rcm_dist::Breakdown,
    /// Process-grid side length (`√p′`).
    pub grid_side: usize,
    /// Threads per process used by the cost model.
    pub threads_per_proc: usize,
    /// Total messages the cost model counted.
    pub messages: u64,
    /// Total bytes the cost model counted.
    pub bytes: u64,
    /// The generic driver's record: components, peripheral sweeps, levels,
    /// expansion directions, and the per-level and per-component traces.
    pub stats: DriverStats,
}

/// Run distributed RCM on a symmetric pattern matrix.
///
/// `threads_per_proc > 1` charges compute through
/// [`MachineModel::thread_speedup`] (the hybrid configuration); the data
/// path, and therefore the permutation, is identical either way. Sessions
/// that order many matrices should hold a warm
/// [`crate::engine::OrderingEngine`] on [`crate::BackendKind::Dist`]
/// instead.
///
/// Panics when the configuration's process count is not a perfect square
/// (the paper's CombBLAS restriction, §V-A).
pub fn dist_rcm(a: &CscMatrix, config: &DistRcmConfig) -> DistRcmResult {
    dist_rcm_warm(a, config, &mut DistSpmspvWorkspace::new())
}

/// One simulated run: install `a` on a [`DistBackend`] over `ws`, drive
/// Algorithms 3–4, and extract the result, leaving the warm SpMSpV
/// workspace in `ws` — the body of [`dist_rcm`] and of the engine's
/// distributed backend.
pub(crate) fn dist_rcm_warm(
    a: &CscMatrix,
    config: &DistRcmConfig,
    ws: &mut DistSpmspvWorkspace<Label>,
) -> DistRcmResult {
    let mode = if config.sort_mode == SortMode::GlobalSortAtEnd {
        LabelingMode::GlobalAtEnd
    } else {
        LabelingMode::PerLevel
    };
    let mut rt = DistBackend::warm(a, config, std::mem::take(ws));
    let stats = drive_cm_with(&mut rt, mode, config.direction, &config.start_node);
    let (result, warm) = rt.into_result_warm(stats);
    *ws = warm;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::SerialWorkspace;
    use rcm_dist::Phase;
    use rcm_sparse::{matrix_bandwidth, CooBuilder, Vidx};

    /// RCM through the serial driver — the matrix-algebraic formulation on
    /// one process, which every grid must reproduce.
    fn algebraic_rcm_of(a: &CscMatrix) -> Permutation {
        let (cm, _) =
            SerialWorkspace::new().order_cm(a, ExpandDirection::from_env(), &StartNode::GeorgeLiu);
        cm.reversed()
    }

    fn scrambled_path(n: usize, stride: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        let a = b.build();
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        a.permute_sym(&Permutation::from_new_of_old(perm).unwrap())
    }

    fn grid_graph(w: usize) -> CscMatrix {
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
        b.build()
    }

    fn config_with_cores(cores: usize) -> DistRcmConfig {
        DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(cores, 1),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::from_env(),
            start_node: StartNode::GeorgeLiu,
        }
    }

    #[test]
    fn distributed_equals_algebraic_on_every_grid() {
        let a = scrambled_path(37, 11);
        let expect = algebraic_rcm_of(&a);
        for procs in [1usize, 4, 9, 16] {
            let res = dist_rcm(&a, &config_with_cores(procs));
            assert_eq!(res.perm, expect, "diverged on {procs} ranks");
        }
    }

    #[test]
    fn distributed_equals_algebraic_on_2d_grid_graph() {
        let a = grid_graph(11);
        let expect = algebraic_rcm_of(&a);
        for procs in [1usize, 9, 25] {
            let res = dist_rcm(&a, &config_with_cores(procs));
            assert_eq!(res.perm, expect, "diverged on {procs} ranks");
        }
    }

    #[test]
    fn distributed_handles_components() {
        let mut b = CooBuilder::new(12, 12);
        b.push_sym(0, 1);
        b.push_sym(1, 2);
        b.push_sym(5, 6);
        b.push_sym(7, 8);
        b.push_sym(8, 9);
        b.push_sym(9, 7);
        let a = b.build();
        let expect = algebraic_rcm_of(&a);
        let res = dist_rcm(&a, &config_with_cores(4));
        assert_eq!(res.perm, expect);
        assert_eq!(res.stats.components, 7); // {0,1,2} {3} {4} {5,6} {7,8,9} {10} {11}
    }

    #[test]
    fn balance_permutation_preserves_quality() {
        let a = scrambled_path(60, 17);
        let plain = dist_rcm(&a, &config_with_cores(4));
        let mut cfg = config_with_cores(4);
        cfg.balance_seed = Some(99);
        let balanced = dist_rcm(&a, &cfg);
        let bw_plain = matrix_bandwidth(&a.permute_sym(&plain.perm));
        let bw_balanced = matrix_bandwidth(&a.permute_sym(&balanced.perm));
        assert_eq!(bw_plain, 1);
        assert_eq!(bw_balanced, 1);
    }

    #[test]
    fn more_ranks_cost_more_communication() {
        let a = grid_graph(14);
        let r1 = dist_rcm(&a, &config_with_cores(1));
        let r16 = dist_rcm(&a, &config_with_cores(16));
        assert_eq!(r1.breakdown.comm_total(), 0.0);
        assert!(r16.breakdown.comm_total() > 0.0);
        assert!(r16.messages > 0);
        // Compute per rank shrinks: the max-over-ranks compute on 16 ranks
        // must be below the single-rank compute.
        assert!(r16.breakdown.compute_total() < r1.breakdown.compute_total());
    }

    #[test]
    fn hybrid_threads_speed_up_compute() {
        let a = grid_graph(14);
        let mut flat = config_with_cores(4);
        flat.hybrid = HybridConfig::new(4, 1);
        let mut hybrid = config_with_cores(4);
        hybrid.hybrid = HybridConfig::new(24, 6); // same 4-rank grid, 6 threads
        let rf = dist_rcm(&a, &flat);
        let rh = dist_rcm(&a, &hybrid);
        assert_eq!(rf.perm, rh.perm);
        assert!(rh.breakdown.compute_total() < rf.breakdown.compute_total());
        assert_eq!(rf.grid_side, rh.grid_side);
    }

    #[test]
    fn nosort_is_valid_but_lower_quality_on_grids() {
        let a = grid_graph(13);
        let mut cfg = config_with_cores(4);
        cfg.sort_mode = SortMode::NoSort;
        let res = dist_rcm(&a, &cfg);
        assert_eq!(res.perm.len(), a.n_rows());
        // Still a bandwidth reducer on a shuffled path, just not optimal.
        let full = dist_rcm(&a, &config_with_cores(4));
        let bw_nosort = matrix_bandwidth(&a.permute_sym(&res.perm));
        let bw_full = matrix_bandwidth(&a.permute_sym(&full.perm));
        assert!(bw_full <= bw_nosort);
    }

    #[test]
    fn global_sort_at_end_is_valid() {
        let a = grid_graph(9);
        let mut cfg = config_with_cores(4);
        cfg.sort_mode = SortMode::GlobalSortAtEnd;
        let res = dist_rcm(&a, &cfg);
        assert_eq!(res.perm.len(), a.n_rows());
        let bw = matrix_bandwidth(&a.permute_sym(&res.perm));
        assert!(
            bw < a.n_rows() / 2,
            "global-sort RCM should still help: {bw}"
        );
    }

    #[test]
    fn breakdown_phases_are_populated() {
        let a = grid_graph(12);
        let res = dist_rcm(&a, &config_with_cores(9));
        for ph in Phase::ALL {
            let pair = res.breakdown.get(ph);
            assert!(pair.compute > 0.0 || pair.comm > 0.0, "{ph:?} empty");
        }
        assert!(res.stats.peripheral_bfs >= 2);
        assert!(res.stats.levels > 0);
        assert!((res.sim_seconds - res.breakdown.total()).abs() < 1e-12);
    }
}
