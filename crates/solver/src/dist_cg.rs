//! Distributed conjugate gradient — an executable simulation, not just a
//! cost formula.
//!
//! [`crate::distmodel`] prices one CG iteration analytically; this module
//! actually *runs* CG in SPMD form on a 1D row-block partition: every rank
//! owns a block of rows, halo exchanges move real vector entries between
//! rank-local buffers, dot products are combined through a simulated
//! AllReduce, and every step charges a [`SimClock`]. The numerics are
//! bit-identical to sequential [`crate::cg::pcg`] up to floating-point
//! summation order (partial dot products are reduced in rank order,
//! deterministically).
//!
//! This gives Fig. 1 a fully execution-based path: measured iterations *and*
//! executed communication, on the same machine model as the RCM simulator.

use crate::bjacobi::Preconditioner;
use rcm_dist::{block_index, block_range, MachineModel, SimClock};
use rcm_sparse::{CsrNumeric, Vidx};

/// Result of a simulated distributed CG solve.
#[derive(Clone, Debug)]
pub struct DistCgResult {
    /// The solution vector (gathered).
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Simulated seconds for the whole solve.
    pub sim_seconds: f64,
    /// Simulated seconds spent in halo exchanges.
    pub halo_seconds: f64,
    /// Simulated seconds spent in AllReduces.
    pub reduce_seconds: f64,
    /// Largest per-rank halo partner count.
    pub max_partners: usize,
}

/// Halo-exchange plan of one rank: which remote entries it needs.
struct HaloPlan {
    /// Remote global column indices this rank reads, sorted.
    needs: Vec<Vidx>,
    /// Distinct partner ranks.
    partners: usize,
}

fn build_plans(a: &CsrNumeric, ranks: usize) -> Vec<HaloPlan> {
    let n = a.n_rows();
    (0..ranks)
        .map(|rank| {
            let (s, e) = block_range(n, ranks, rank);
            let mut needs: Vec<Vidx> = Vec::new();
            for r in s..e {
                for &c in a.row_cols(r) {
                    let c_us = c as usize;
                    if c_us < s || c_us >= e {
                        needs.push(c);
                    }
                }
            }
            needs.sort_unstable();
            needs.dedup();
            let mut partner_set = vec![false; ranks];
            for &c in &needs {
                partner_set[block_index(n, ranks, c as usize)] = true;
            }
            HaloPlan {
                partners: partner_set.iter().filter(|&&x| x).count(),
                needs,
            }
        })
        .collect()
}

/// Solve `A x = b` with preconditioned CG on a simulated `ranks`-way 1D
/// row-block partition (flat: one thread per rank).
///
/// The preconditioner must be block-aligned (apply must not read across the
/// partition — [`crate::bjacobi::BlockJacobi`] constructed with the same
/// `ranks` satisfies this; its application is charged as local work).
pub fn dist_pcg(
    a: &CsrNumeric,
    b: &[f64],
    m: &impl Preconditioner,
    rel_tol: f64,
    max_iter: usize,
    ranks: usize,
    machine: &MachineModel,
) -> DistCgResult {
    dist_pcg_hybrid(a, b, m, rel_tol, max_iter, ranks, 1, machine)
}

/// [`dist_pcg`] with multithreaded ranks — the same MPI×OpenMP cost model
/// as the RCM `DistBackend` above one thread per process: local compute
/// (SpMV, preconditioner sweeps, AXPYs) is divided by
/// [`MachineModel::thread_speedup`], communication is charged undivided,
/// and the numerics (and therefore the returned `x` and iteration count)
/// are bit-identical to the flat run.
#[allow(clippy::too_many_arguments)]
pub fn dist_pcg_hybrid(
    a: &CsrNumeric,
    b: &[f64],
    m: &impl Preconditioner,
    rel_tol: f64,
    max_iter: usize,
    ranks: usize,
    threads_per_rank: usize,
    machine: &MachineModel,
) -> DistCgResult {
    let n = a.n_rows();
    assert_eq!(a.n_cols(), n);
    assert_eq!(b.len(), n);
    assert!(ranks >= 1);
    let mut clock = SimClock::new(*machine, threads_per_rank);
    let plans = build_plans(a, ranks);
    let max_partners = plans.iter().map(|p| p.partners).max().unwrap_or(0);
    let max_halo: usize = plans.iter().map(|p| p.needs.len()).max().unwrap_or(0);
    let max_local_nnz: usize = (0..ranks)
        .map(|rank| {
            let (s, e) = block_range(n, ranks, rank);
            (s..e).map(|r| a.row_cols(r).len()).sum()
        })
        .max()
        .unwrap_or(0);
    let max_local_n = (0..ranks)
        .map(|rank| {
            let (s, e) = block_range(n, ranks, rank);
            e - s
        })
        .max()
        .unwrap_or(0);

    let mut halo_seconds = 0.0f64;
    let mut reduce_seconds = 0.0f64;
    // Charge one halo exchange (the vector entries physically "move" here —
    // in this flat-memory simulation the SpMV reads them in place, which is
    // numerically identical to exchanging then reading).
    let mut charge_halo = |clock: &mut SimClock| {
        if ranks > 1 {
            let t = machine.alpha * max_partners as f64 + machine.beta * (max_halo * 8 * 2) as f64;
            clock.charge_comm(t, (max_partners * ranks) as u64, (max_halo * 8) as u64);
            halo_seconds += t;
        }
    };
    let mut charge_reduce = |clock: &mut SimClock| {
        if ranks > 1 {
            let t = machine.t_allreduce(ranks, 8);
            clock.charge_comm(t, ranks as u64, 8);
            reduce_seconds += t;
        }
    };
    // Deterministic rank-ordered dot product (what MPI_Allreduce over rank
    // partials computes).
    let rank_dot = |u: &[f64], v: &[f64]| -> f64 {
        (0..ranks)
            .map(|rank| {
                let (s, e) = block_range(n, ranks, rank);
                u[s..e]
                    .iter()
                    .zip(&v[s..e])
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .sum()
    };

    let bnorm = rank_dot(b, b).sqrt().max(f64::MIN_POSITIVE);
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0f64; n];
    m.apply(&r, &mut z);
    clock.charge_edges(max_local_nnz); // block solve ~ local nnz sweep
    let mut p = z.clone();
    let mut rz = rank_dot(&r, &z);
    charge_reduce(&mut clock);
    let mut ap = vec![0.0f64; n];

    let mut iterations = 0usize;
    let mut rnorm = rank_dot(&r, &r).sqrt();
    while rnorm > rel_tol * bnorm && iterations < max_iter {
        charge_halo(&mut clock);
        a.spmv(&p, &mut ap);
        clock.charge_edges(max_local_nnz);
        let pap = rank_dot(&p, &ap);
        charge_reduce(&mut clock);
        if pap <= 0.0 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        clock.charge_elems(2 * max_local_n);
        m.apply(&r, &mut z);
        clock.charge_edges(max_local_nnz);
        let rz_new = rank_dot(&r, &z);
        charge_reduce(&mut clock);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        clock.charge_elems(max_local_n);
        iterations += 1;
        rnorm = rank_dot(&r, &r).sqrt();
        charge_reduce(&mut clock);
    }
    DistCgResult {
        converged: rnorm <= rel_tol * bnorm,
        iterations,
        sim_seconds: clock.now(),
        halo_seconds,
        reduce_seconds,
        max_partners,
        x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bjacobi::{BlockJacobi, IdentityPrecond};
    use crate::cg::pcg;
    use rcm_sparse::CooBuilder;

    fn grid_laplacian(w: usize, shift: f64) -> CsrNumeric {
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
        CsrNumeric::laplacian_from_pattern(&b.build(), shift)
    }

    fn rhs(a: &CsrNumeric) -> Vec<f64> {
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x, &mut b);
        b
    }

    #[test]
    fn dist_cg_converges_like_sequential() {
        let a = grid_laplacian(12, 0.1);
        let b = rhs(&a);
        let machine = MachineModel::edison();
        let seq = pcg(&a, &b, &IdentityPrecond, 1e-8, 5000);
        let dist = dist_pcg(&a, &b, &IdentityPrecond, 1e-8, 5000, 4, &machine);
        assert!(dist.converged);
        // Same numerics up to dot-product association: iteration counts may
        // differ by a whisker, solutions must agree.
        assert!(dist.iterations.abs_diff(seq.iterations) <= 2);
        for (xd, xs) in dist.x.iter().zip(&seq.x) {
            assert!((xd - xs).abs() < 1e-6);
        }
    }

    #[test]
    fn one_rank_has_no_comm_time() {
        let a = grid_laplacian(8, 0.2);
        let b = rhs(&a);
        let machine = MachineModel::edison();
        let r = dist_pcg(&a, &b, &IdentityPrecond, 1e-8, 1000, 1, &machine);
        assert!(r.converged);
        assert_eq!(r.halo_seconds, 0.0);
        assert_eq!(r.reduce_seconds, 0.0);
        assert!(r.sim_seconds > 0.0);
    }

    #[test]
    fn block_jacobi_runs_distributed() {
        let a = grid_laplacian(14, 0.05);
        let b = rhs(&a);
        let machine = MachineModel::edison();
        let ranks = 4;
        let bj = BlockJacobi::new(&a, ranks);
        let plain = dist_pcg(&a, &b, &IdentityPrecond, 1e-8, 10000, ranks, &machine);
        let pre = dist_pcg(&a, &b, &bj, 1e-8, 10000, ranks, &machine);
        assert!(pre.converged && plain.converged);
        assert!(pre.iterations < plain.iterations);
    }

    #[test]
    fn banded_partition_has_two_partners() {
        let a = grid_laplacian(16, 0.1); // natural grid order: banded
        let b = rhs(&a);
        let machine = MachineModel::edison();
        let r = dist_pcg(&a, &b, &IdentityPrecond, 1e-6, 1000, 8, &machine);
        assert!(
            r.max_partners <= 2,
            "banded matrix: {} partners",
            r.max_partners
        );
    }

    #[test]
    fn hybrid_ranks_cut_compute_not_numerics() {
        let a = grid_laplacian(12, 0.1);
        let b = rhs(&a);
        let machine = MachineModel::edison();
        let flat = dist_pcg(&a, &b, &IdentityPrecond, 1e-8, 5000, 4, &machine);
        let hybrid = dist_pcg_hybrid(&a, &b, &IdentityPrecond, 1e-8, 5000, 4, 6, &machine);
        // Identical numerics: the thread count only rescales modeled time.
        assert_eq!(flat.iterations, hybrid.iterations);
        assert_eq!(flat.x, hybrid.x);
        assert_eq!(flat.halo_seconds, hybrid.halo_seconds);
        assert_eq!(flat.reduce_seconds, hybrid.reduce_seconds);
        let flat_compute = flat.sim_seconds - flat.halo_seconds - flat.reduce_seconds;
        let hybrid_compute = hybrid.sim_seconds - hybrid.halo_seconds - hybrid.reduce_seconds;
        assert!(
            hybrid_compute < flat_compute / 2.0,
            "6 threads/rank must cut modeled compute: {flat_compute} -> {hybrid_compute}"
        );
    }

    #[test]
    fn comm_time_grows_with_ranks() {
        let a = grid_laplacian(16, 0.1);
        let b = rhs(&a);
        let machine = MachineModel::edison();
        let r2 = dist_pcg(&a, &b, &IdentityPrecond, 1e-6, 50, 2, &machine);
        let r16 = dist_pcg(&a, &b, &IdentityPrecond, 1e-6, 50, 16, &machine);
        assert!(r16.reduce_seconds > r2.reduce_seconds);
    }
}
