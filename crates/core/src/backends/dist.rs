//! [`DistBackend`]: the Table-I primitives on the simulated 2D-decomposed
//! runtime of `rcm-dist`, with every step charged to a [`SimClock`] under
//! the Fig. 4 phase taxonomy.
//!
//! One backend serves both of the paper's Fig. 6 configurations. The data
//! path, and so the permutation, is the same at every thread count; only
//! the clock differs. At one thread per process it models flat MPI. Above
//! that it models MPI×OpenMP: every compute charge, push or pull, is
//! divided by [`rcm_dist::MachineModel::thread_speedup`], while
//! communication is charged undivided (fewer, fatter processes ⇒ a smaller
//! process grid, cheaper collectives, sub-linear compute speedup).

use crate::distributed::{DistRcmConfig, DistRcmResult, SortMode};
use crate::driver::{DenseTarget, DriverStats, RcmRuntime};
use rcm_dist::{
    dist_argmin, dist_find_unvisited_min_degree, dist_gather_values, dist_is_nonempty, dist_select,
    dist_set, dist_sortperm, dist_sortperm_samplesort, dist_spmspv, dist_spmspv_pull,
    DistCscMatrix, DistDenseVec, DistSparseVec, DistSpmspvWorkspace, Phase, SimClock,
};
use rcm_sparse::{CscMatrix, Label, Permutation, Select2ndMin, VertexBitmap, Vidx, UNVISITED};

/// Simulated distributed-memory backend (2D process grid, α–β machine
/// model, per-phase cost accounting).
pub struct DistBackend {
    dmat: DistCscMatrix,
    degrees: DistDenseVec<Vidx>,
    order: DistDenseVec<Label>,
    levels: DistDenseVec<Label>,
    /// Vertices with `order[g] == UNVISITED` — the pull kernel's candidate
    /// set, kept as a bitmap so its local scan skips fully visited words.
    unvisited_order: VertexBitmap,
    /// Vertices with `levels[g] == UNVISITED`.
    unvisited_levels: VertexBitmap,
    ws: DistSpmspvWorkspace<Label>,
    clock: SimClock,
    config: DistRcmConfig,
}

impl DistBackend {
    /// Distribute `a` over the configuration's process grid and start the
    /// clock, reusing a warm [`DistSpmspvWorkspace`] from a previous
    /// ordering — the engine's install phase. The matrix distribution and
    /// the dense companions are rebuilt per install (that *is* the modeled
    /// 2D decomposition); the stamped SpMSpV accumulator, the dominant
    /// steady-state scratch, carries its high-water-mark capacity across
    /// matrices (recover it with [`DistBackend::into_result_warm`]).
    ///
    /// Panics when the configuration's process count is not a perfect
    /// square (the paper's CombBLAS restriction, §V-A).
    pub fn warm(a: &CscMatrix, config: &DistRcmConfig, ws: DistSpmspvWorkspace<Label>) -> Self {
        let grid = config.hybrid.grid().unwrap_or_else(|| {
            panic!(
                "{} processes do not form a square grid",
                config.hybrid.nprocs()
            )
        });
        let dmat = DistCscMatrix::from_global(grid, a, config.balance_seed);
        let mut clock = SimClock::new(config.machine, config.hybrid.threads_per_proc);
        let degrees = dmat.degrees_dvec();
        clock.set_phase(Phase::OrderingOther);
        let order: DistDenseVec<Label> = DistDenseVec::filled(dmat.layout().clone(), UNVISITED);
        clock.charge_elems(dmat.layout().max_local_len());
        // The level vector is (re)initialized by `reset_levels` before
        // every use; constructing it here is not charged.
        let levels: DistDenseVec<Label> = DistDenseVec::filled(dmat.layout().clone(), UNVISITED);
        // The bitmaps shadow the dense companions; their word-fill rides
        // along with the (already charged) dense initialization.
        let n = dmat.n_rows();
        let mut unvisited_order = VertexBitmap::new(0);
        unvisited_order.reset_ones(n);
        let mut unvisited_levels = VertexBitmap::new(0);
        unvisited_levels.reset_ones(n);
        DistBackend {
            dmat,
            degrees,
            order,
            levels,
            unvisited_order,
            unvisited_levels,
            ws,
            clock,
            config: *config,
        }
    }

    /// Finish the run: reverse CM → RCM, map internal (balance-permuted)
    /// ids back to original vertex ids, package the clock's accounting
    /// with the driver's statistics, and hand the warm SpMSpV workspace
    /// back for the next install.
    pub fn into_result_warm(
        self,
        stats: DriverStats,
    ) -> (DistRcmResult, DistSpmspvWorkspace<Label>) {
        let n = self.dmat.n_rows();
        let labels_internal: Vec<Vidx> = self
            .order
            .to_global()
            .iter()
            .map(|&l| (n as Label - 1 - l) as Vidx)
            .collect();
        let labels_original = self.dmat.to_original(&labels_internal);
        let perm =
            Permutation::from_new_of_old(labels_original).expect("RCM labels form a bijection");
        let messages = self.clock.messages;
        let bytes = self.clock.bytes;
        let grid_side = self.dmat.grid().pr;
        let breakdown = self.clock.into_breakdown();
        let result = DistRcmResult {
            perm,
            sim_seconds: breakdown.total(),
            breakdown,
            grid_side,
            threads_per_proc: self.config.hybrid.threads_per_proc,
            messages,
            bytes,
            stats,
        };
        (result, self.ws)
    }
}

/// Assign labels to the frontier without sorting ([`SortMode::NoSort`]):
/// global index order via an ExScan of per-rank counts.
fn assign_unsorted_labels(
    next: &DistSparseVec<Label>,
    nv: Label,
    clock: &mut SimClock,
) -> (DistSparseVec<Label>, usize) {
    let p = next.layout.nprocs();
    let machine = *clock.machine();
    let mut parts = Vec::with_capacity(p);
    let mut running = 0usize;
    let mut max_scan = 0usize;
    for part in &next.parts {
        max_scan = max_scan.max(part.len());
        let labeled: Vec<(Vidx, Label)> = part
            .iter()
            .enumerate()
            .map(|(k, &(g, _))| (g, nv + (running + k) as Label))
            .collect();
        running += part.len();
        parts.push(labeled);
    }
    clock.charge_elems(max_scan);
    if p > 1 {
        clock.charge_comm(machine.t_allreduce(p, 8), p as u64, 8);
    }
    (
        DistSparseVec {
            layout: next.layout.clone(),
            parts,
        },
        running,
    )
}

impl RcmRuntime for DistBackend {
    type Frontier = DistSparseVec<Label>;

    fn n(&self) -> usize {
        self.dmat.n_rows()
    }

    fn set_phase(&mut self, phase: Phase) {
        self.clock.set_phase(phase);
    }

    fn now(&self) -> f64 {
        self.clock.now()
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier {
        DistSparseVec::singleton(self.dmat.layout().clone(), v, value)
    }

    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool {
        dist_is_nonempty(x, &mut self.clock)
    }

    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize {
        // The global count piggybacks on `is_nonempty`'s 8-byte AllReduce
        // (the reduction carries the count), so no extra charge here.
        x.total_nnz()
    }

    fn append(&mut self, acc: &mut Self::Frontier, x: &Self::Frontier) {
        for (rank, part) in x.parts.iter().enumerate() {
            acc.parts[rank].extend_from_slice(part);
        }
    }

    fn stamp(&mut self, x: &mut Self::Frontier, value: Label) {
        let mut max_scan = 0usize;
        for part in &mut x.parts {
            max_scan = max_scan.max(part.len());
            for (_, v) in part.iter_mut() {
                *v = value;
            }
        }
        self.clock.charge_elems(max_scan);
    }

    fn spmspv(&mut self, x: &Self::Frontier) -> Self::Frontier {
        dist_spmspv::<Label, Select2ndMin>(&self.dmat, x, &mut self.ws, &mut self.clock)
    }

    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        let dense = match which {
            DenseTarget::Order => &self.order,
            DenseTarget::Levels => &self.levels,
        };
        dist_select(x, dense, |l| l == UNVISITED, &mut self.clock)
    }

    fn expand_pull(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        // Dense-allgather pull: Θ(n/√p′) communication regardless of the
        // frontier, vs. the sparse gather/reduce of the push path. The
        // candidate set is the unvisited bitmap shadowing the dense
        // companion, so the local scan skips fully visited 64-vertex words.
        let cands = match which {
            DenseTarget::Order => &self.unvisited_order,
            DenseTarget::Levels => &self.unvisited_levels,
        };
        dist_spmspv_pull::<Label, Select2ndMin>(&self.dmat, x, cands, &mut self.ws, &mut self.clock)
    }

    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier) {
        let (dense, bits) = match which {
            DenseTarget::Order => (&mut self.order, &mut self.unvisited_order),
            DenseTarget::Levels => (&mut self.levels, &mut self.unvisited_levels),
        };
        dist_set(dense, x, &mut self.clock);
        for (g, value) in x.iter_entries() {
            if value == UNVISITED {
                bits.insert(g);
            } else {
                bits.remove(g);
            }
        }
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        let (dense, bits) = match which {
            DenseTarget::Order => (&mut self.order, &mut self.unvisited_order),
            DenseTarget::Levels => (&mut self.levels, &mut self.unvisited_levels),
        };
        dense.set(v, value);
        if value == UNVISITED {
            bits.insert(v);
        } else {
            bits.remove(v);
        }
    }

    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget) {
        match which {
            DenseTarget::Order => dist_gather_values(x, &self.order, &mut self.clock),
            DenseTarget::Levels => dist_gather_values(x, &self.levels, &mut self.clock),
        }
    }

    fn reset_levels(&mut self) {
        self.levels = DistDenseVec::filled(self.dmat.layout().clone(), UNVISITED);
        self.unvisited_levels.reset_ones(self.dmat.n_rows());
        self.clock.charge_elems(self.dmat.layout().max_local_len());
    }

    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize) {
        match self.config.sort_mode {
            SortMode::Full | SortMode::GlobalSortAtEnd => {
                dist_sortperm(x, &self.degrees, batch, nv, &mut self.clock)
            }
            SortMode::GeneralSamplesort => {
                dist_sortperm_samplesort(x, &self.degrees, nv, &mut self.clock)
            }
            SortMode::NoSort => {
                // The paper's ablation skips the sort; labels are assigned
                // in global index order and charged as plain streaming
                // work, not sorting.
                self.clock.set_phase(Phase::OrderingOther);
                assign_unsorted_labels(x, nv, &mut self.clock)
            }
        }
    }

    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx> {
        dist_argmin(x, &self.degrees, &mut self.clock)
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        dist_find_unvisited_min_degree(&self.order, &self.degrees, &mut self.clock)
    }
}
