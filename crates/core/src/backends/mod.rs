//! The three [`RcmRuntime`](crate::driver::RcmRuntime) implementations.
//!
//! | backend | Table-I primitives supplied by | cost accounting |
//! |---|---|---|
//! | [`SerialBackend`] | one core: a claiming SpMSpV fused with `SELECT`, a pull that stops each row at the frontier's minimum, the counting `SORTPERM` | none |
//! | [`PooledBackend`] | the work-stealing pool of [`crate::pool`] | none |
//! | [`DistBackend`] | `rcm-dist` distributed primitives | [`rcm_dist::SimClock`]: flat MPI at one thread per process, the Fig. 6 MPI×OpenMP hybrid above it (compute divided by [`rcm_dist::MachineModel::thread_speedup`]) |
//!
//! Every backend executes the identical generic driver
//! ([`crate::driver::drive_cm_with`]) and produces the bit-identical
//! permutation; only the execution substrate and the modeled cost differ.

mod dist;
mod pooled;
pub(crate) mod serial;

pub use dist::DistBackend;
pub use pooled::PooledBackend;
pub use serial::{SerialBackend, SerialWorkspace};

#[cfg(test)]
mod tests {
    //! An expansion oracle outside every backend: each native backend's
    //! `SELECT(SPMSPV)` pair and its pull expansion against
    //! [`rcm_sparse::spmspv_ref`] kept at the unlabeled rows.

    use super::*;
    use crate::driver::{DenseTarget, RcmRuntime};
    use crate::pool::{thread_counts_from_env, PoolConfig, RcmPool};
    use crate::testutil::scrambled_grid;
    use rcm_sparse::{spmspv_ref, CscMatrix, Label, Select2ndMin, SparseVec, Vidx};

    type Entries = Vec<(Vidx, Label)>;

    /// `0..k` in a fixed scrambled order (a seeded Fisher–Yates shuffle).
    fn scrambled(k: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..k).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..k).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            p.swap(i, (s >> 33) as usize % (i + 1));
        }
        p
    }

    /// Named frontiers over every fifth vertex (a third of them labeled
    /// too): uniform values, consecutive labels in scrambled entry order,
    /// and — only when `arbitrary` — values with duplicates and gaps.
    fn frontiers(n: usize, arbitrary: bool) -> Vec<(&'static str, Entries)> {
        let f: Vec<Vidx> = (1..n as Vidx).step_by(5).collect();
        let p = scrambled(f.len());
        let with = |value: &dyn Fn(usize) -> Label| -> Entries {
            f.iter()
                .enumerate()
                .map(|(i, &v)| (v, value(p[i])))
                .collect()
        };
        let mut out = vec![
            ("uniform", with(&|_| 7)),
            ("consecutive", with(&|k| 40 + k as Label)),
        ];
        if arbitrary {
            let half = f.len() / 2;
            out.push(("arbitrary", with(&|k| 3 * (k % half) as Label + 11)));
        }
        out
    }

    /// One setup's expansion: label `labeled` in `R`, then one push pair
    /// or one pull expansion of `x` (push claims, so once per setup),
    /// sorted.
    fn expand<R: RcmRuntime<Frontier = Entries>>(
        rt: &mut R,
        labeled: &Entries,
        x: &Entries,
        pull: bool,
    ) -> Entries {
        rt.set_dense(DenseTarget::Order, labeled);
        let mut y = if pull {
            rt.expand_pull(x, DenseTarget::Order)
        } else {
            let y = rt.spmspv(x);
            rt.select_unvisited(&y, DenseTarget::Order)
        };
        y.sort_unstable();
        y
    }

    /// `SPMSPV` alone, kept at the rows `labeled` leaves unlabeled.
    fn oracle(a: &CscMatrix, labeled: &Entries, x: &Entries) -> Entries {
        let mut is_labeled = vec![false; a.n_rows()];
        for &(v, _) in labeled {
            is_labeled[v as usize] = true;
        }
        let x = SparseVec::from_entries(a.n_cols(), x.clone());
        spmspv_ref::<Label, Select2ndMin>(a, &x)
            .entries()
            .iter()
            .copied()
            .filter(|&(v, _)| !is_labeled[v as usize])
            .collect()
    }

    #[test]
    fn native_expansions_match_the_reference_spmspv() {
        for a in [
            scrambled_grid(23, 37),
            rcm_graphgen::erdos_renyi_connected(400, 1200, 5),
        ] {
            let n = a.n_rows();
            let labeled: Entries = (0..n as Vidx).step_by(3).map(|v| (v, 1000)).collect();
            for pull in [false, true] {
                let dir = if pull { "pull" } else { "push" };
                for (shape, x) in frontiers(n, true) {
                    let expect = oracle(&a, &labeled, &x);
                    assert!(expect.len() > n / 5, "{shape}: a thin oracle");
                    let got = expand(&mut SerialBackend::new(&a), &labeled, &x, pull);
                    assert_eq!(got, expect, "serial {dir}, {shape}");
                }
                for nthreads in thread_counts_from_env(&[1, 2]) {
                    for seq_cutoff in [1, PoolConfig::new(nthreads).seq_cutoff] {
                        let mut pool = RcmPool::new(PoolConfig {
                            seq_cutoff,
                            ..PoolConfig::new(nthreads)
                        });
                        for (shape, x) in frontiers(n, false) {
                            let got = pool.run_warm(&a, |exec, ws| {
                                expand(&mut PooledBackend::new(exec, ws), &labeled, &x, pull)
                            });
                            assert_eq!(
                                got,
                                oracle(&a, &labeled, &x),
                                "pooled@{nthreads} (cutoff {seq_cutoff}) {dir}, {shape}"
                            );
                        }
                    }
                }
            }
        }
    }
}
