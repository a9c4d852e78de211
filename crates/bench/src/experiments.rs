//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each function returns [`Table`]s (also written as CSV under the results
//! directory) whose rows correspond to the series plotted in the paper:
//!
//! | function | paper artifact |
//! |---|---|
//! | [`fig1_cg_solve`] | Fig. 1 — CG+block-Jacobi solve time, natural vs RCM |
//! | [`fig3_suite_table`] | Fig. 3 — matrix suite statistics + RCM bandwidths |
//! | [`table2_shared_memory`] | Table II — shared-memory baseline vs distributed |
//! | [`fig4_breakdown`] | Fig. 4 — distributed runtime breakdown per matrix |
//! | [`fig5_spmspv_split`] | Fig. 5 — SpMSpV computation vs communication |
//! | [`fig6_flat_vs_hybrid`] | Fig. 6 — flat MPI vs hybrid on ldoor |
//! | [`ablation_sort_modes`] | §VI — sorting-strategy ablation |
//! | [`direction_ablation`] | direction-optimizing expand: push / pull / adaptive |
//! | [`backend_sweep`] | one generic driver on serial, pooled, flat and hybrid dist |
//! | [`balance_ablation`] | §IV-A — load-balance permutation sweep |
//! | [`mtx_table`] | real Matrix Market inputs (`repro --mtx`) next to the suite |
//! | [`throughput_table`] | warm `OrderingEngine` vs cold per-call orderings/sec |
//! | [`service_table`] | `OrderingService` closed-loop load: cold vs warm shards vs cache |
//! | [`components_table`] | component-parallel split+schedule+stitch vs the sequential driver |
//! | [`startnode_table`] | start-node strategy ablation: george-liu vs min-degree |
//! | [`kernels_table`] | per-edge / per-element kernel microbenchmarks |
//!
//! Absolute times come from the calibrated Edison model and will not match
//! the paper's testbed exactly; the *shapes* (who wins, scaling knees,
//! crossover points) are the reproduction target. See EXPERIMENTS.md.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rcm_core::{
    bfs_level_structure, dist_rcm, ordering_bandwidth, ordering_profile, ordering_wavefront,
    pseudo_peripheral, rcm, rcm_compressed, rcm_globalsort, rcm_nosort, sloan, BackendKind,
    DistRcmConfig, ExpandDirection, OrderingReport, SortMode, StartNode,
};
use rcm_dist::{
    Breakdown, DistCscMatrix, MachineModel, Phase, PAPER_FLAT_CORES, PAPER_HYBRID_CORES,
};
use rcm_graphgen::{block_diag, forest, multi_body, suite, suite_matrix, SuiteMatrix};
use rcm_solver::{cg_iteration_cost, pcg, BlockJacobi};
use rcm_sparse::{
    bucket_sortperm_ref, connected_components, counting_sortperm, matrix_bandwidth, mm, spmspv,
    spmspv_pull, spmspv_pull_ref, CscMatrix, CsrNumeric, DenseFrontier, Label, Permutation,
    PullBuffer, Select2ndMin, SortpermScratch, SparseVec, SpmspvWorkspace, VertexBitmap, Vidx,
    UNVISITED,
};

use crate::report::{fmt_count, fmt_secs, Table};

/// Order `a` once on a fresh engine for `backend` under `direction` (start
/// node from the environment, like every builder default).
fn order_fresh(a: &CscMatrix, backend: BackendKind, direction: ExpandDirection) -> OrderingReport {
    let config = rcm_core::EngineConfig::builder()
        .backend(backend)
        .direction(direction)
        .build();
    rcm_core::OrderingEngine::new(config).order(a)
}

/// The RCM permutation of `a` from a fresh single-use engine — the
/// reference every warm, batched, split or cached path must reproduce.
fn single_shot(a: &CscMatrix, backend: BackendKind) -> Permutation {
    rcm_core::OrderingEngine::with_backend(backend)
        .order(a)
        .perm
}

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Multiplier on each suite matrix's laptop default scale (1.0 = the
    /// documented defaults; >1 moves toward paper-sized inputs).
    pub scale_mult: f64,
    /// Directory for CSV output.
    pub results_dir: PathBuf,
    /// Restrict to a 3-matrix subset and fewer core counts (CI/tests).
    pub quick: bool,
    /// Matrix Market inputs to run next to the synthetic suite
    /// (`repro --mtx <path>`), loaded and validated by [`load_mtx`].
    pub mtx: Vec<MtxInput>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale_mult: 1.0,
            results_dir: PathBuf::from("results"),
            quick: false,
            mtx: Vec::new(),
        }
    }
}

impl ExpConfig {
    fn matrices(&self) -> Vec<SuiteMatrix> {
        let all: Vec<SuiteMatrix> = suite().into_iter().filter(|m| m.in_fig3).collect();
        if self.quick {
            all.into_iter()
                .filter(|m| matches!(m.name, "nd24k" | "ldoor" | "Li7Nmax6"))
                .collect()
        } else {
            all
        }
    }

    fn hybrid_cores(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 24, 216]
        } else {
            PAPER_HYBRID_CORES.to_vec()
        }
    }

    fn flat_cores(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 16, 256]
        } else {
            PAPER_FLAT_CORES.to_vec()
        }
    }

    fn generate(&self, m: &SuiteMatrix) -> CscMatrix {
        m.generate(m.default_scale * self.scale_mult)
    }
}

// ---------------------------------------------------------------------------
// Fig. 3 — suite statistics
// ---------------------------------------------------------------------------

/// Regenerate the Fig. 3 table: dimensions, nonzeros, pre/post-RCM bandwidth
/// and pseudo-diameter — paper value next to our (scaled) synthetic value.
pub fn fig3_suite_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Fig. 3 — matrix suite (paper value | ours at default scale)",
        &[
            "matrix",
            "rows(paper)",
            "rows",
            "nnz(paper)",
            "nnz",
            "bw-pre(paper)",
            "bw-pre",
            "bw-post(paper)",
            "bw-post",
            "pdiam(paper)",
            "pdiam",
        ],
    );
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let perm = rcm(&a);
        let bw_pre = matrix_bandwidth(&a);
        let bw_post = ordering_bandwidth(&a, &perm);
        let degrees = a.degrees();
        let seed = (0..a.n_rows())
            .min_by_key(|&v| (degrees[v], v))
            .unwrap_or(0) as u32;
        let pdiam = pseudo_peripheral(&a, seed).eccentricity;
        t.row(vec![
            m.name.to_string(),
            fmt_count(m.paper.rows as u64),
            fmt_count(a.n_rows() as u64),
            fmt_count(m.paper.nnz as u64),
            fmt_count(a.nnz() as u64),
            fmt_count(m.paper.bw_pre as u64),
            fmt_count(bw_pre as u64),
            fmt_count(m.paper.bw_post as u64),
            fmt_count(bw_post as u64),
            m.paper.pseudo_diameter.to_string(),
            pdiam.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table II — shared-memory baseline vs distributed runtime
// ---------------------------------------------------------------------------

/// Regenerate Table II: wall-clock runtime of the shared-memory baseline at
/// several thread counts (measured on the host: a fresh pooled engine's
/// `OrderingReport::wall_seconds`, worker spawn excluded) next to the
/// simulated distributed runtime at 1/6/24 cores, plus the ordering
/// bandwidth.
pub fn table2_shared_memory(cfg: &ExpConfig) -> Table {
    let threads = [1usize, 2, 4, 8, 16];
    let mut t = Table::new(
        "Table II — shared-memory RCM (measured) vs distributed RCM (simulated)",
        &[
            "matrix", "BW", "shm 1t", "shm 2t", "shm 4t", "shm 8t", "shm 16t", "dist 1c",
            "dist 6c", "dist 24c",
        ],
    );
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let mut cells = vec![m.name.to_string()];
        // Quality: all implementations are ordering-identical; report once.
        cells.push(fmt_count(ordering_bandwidth(&a, &rcm(&a)) as u64));
        for &th in &threads {
            let report = order_fresh(
                &a,
                BackendKind::Pooled { threads: th },
                ExpandDirection::from_env(),
            );
            assert_eq!(report.perm.len(), a.n_rows());
            cells.push(fmt_secs(report.wall_seconds));
        }
        for cores in [1usize, 6, 24] {
            let r = dist_rcm(&a, &DistRcmConfig::hybrid_on_edison(cores));
            cells.push(fmt_secs(r.sim_seconds));
        }
        t.row(cells);
    }
    t
}

// ---------------------------------------------------------------------------
// Shared-memory strong scaling (Table II, measured on the host)
// ---------------------------------------------------------------------------

/// Thread counts of the shared-memory strong-scaling sweep.
pub const SCALING_THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Strong scaling of the work-stealing shared-memory backend: a warm
/// pooled engine's ordering wall time (`OrderingReport::wall_seconds`) at
/// 1/2/4/8/16 threads plus speedups over one thread.
///
/// Outside quick mode each instance is grown until it crosses the Table II
/// floor of 100k vertices (capped by an nnz budget), so the sweep exercises
/// frontiers wide enough for the parallel pipeline. Numbers depend on the
/// host's core count — on a single-core box every column degenerates to
/// ~1x, which is itself useful as an overhead ceiling check.
pub fn shared_scaling(cfg: &ExpConfig) -> Table {
    let names = if cfg.quick {
        vec!["ldoor"]
    } else {
        vec!["ldoor", "Li7Nmax6", "thermal2"]
    };
    let reps = if cfg.quick { 1 } else { 3 };
    let mut t = Table::new(
        "Shared-memory strong scaling — pooled engine (measured on this host)",
        &[
            "matrix", "vertices", "edges", "t(1t)", "t(2t)", "t(4t)", "t(8t)", "t(16t)", "su(2t)",
            "su(4t)", "su(8t)", "su(16t)",
        ],
    );
    for name in names {
        let m = suite_matrix(name).expect("scaling matrix registered");
        let mut scale = m.default_scale * cfg.scale_mult;
        let mut a = m.generate(scale);
        if !cfg.quick {
            while a.n_rows() < 100_000 && a.nnz() < 30_000_000 {
                scale *= 1.6;
                a = m.generate(scale);
            }
        }
        let mut times = Vec::new();
        for &threads in &SCALING_THREADS {
            let mut engine =
                rcm_core::OrderingEngine::with_backend(BackendKind::Pooled { threads });
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let report = engine.order(&a);
                best = best.min(report.wall_seconds);
                assert_eq!(report.perm.len(), a.n_rows());
            }
            times.push(best);
        }
        let mut row = vec![
            m.name.to_string(),
            fmt_count(a.n_rows() as u64),
            fmt_count(a.nnz() as u64),
        ];
        row.extend(times.iter().map(|&dt| fmt_secs(dt)));
        row.extend(
            times[1..]
                .iter()
                .map(|&dt| format!("{:.2}x", times[0] / dt)),
        );
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Figs. 4 and 5 — distributed breakdown sweeps
// ---------------------------------------------------------------------------

/// One matrix's sweep over core counts.
pub struct SweepPanel {
    /// Suite matrix name.
    pub name: String,
    /// `(cores, breakdown, total-seconds)` per configuration.
    pub points: Vec<(usize, Breakdown, f64)>,
}

/// Run the hybrid (6 threads/process) sweep used by both Fig. 4 and Fig. 5.
pub fn run_hybrid_sweep(cfg: &ExpConfig) -> Vec<SweepPanel> {
    let mut panels = Vec::new();
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let mut points = Vec::new();
        for cores in cfg.hybrid_cores() {
            let mut c = DistRcmConfig::hybrid_on_edison(cores);
            c.balance_seed = Some(0xBA1A);
            let r = dist_rcm(&a, &c);
            points.push((cores, r.breakdown.clone(), r.sim_seconds));
        }
        panels.push(SweepPanel {
            name: m.name.to_string(),
            points,
        });
    }
    panels
}

/// Fig. 4: per-phase runtime breakdown for every suite matrix.
pub fn fig4_breakdown(panels: &[SweepPanel]) -> Vec<Table> {
    panels
        .iter()
        .map(|p| {
            let mut t = Table::new(
                format!("Fig. 4 — runtime breakdown: {}", p.name),
                &[
                    "cores",
                    "Peripheral:SpMSpV",
                    "Peripheral:Other",
                    "Ordering:SpMSpV",
                    "Ordering:Sorting",
                    "Ordering:Other",
                    "total",
                ],
            );
            for (cores, b, total) in &p.points {
                let mut row = vec![cores.to_string()];
                for ph in Phase::ALL {
                    row.push(fmt_secs(b.get(ph).total()));
                }
                row.push(fmt_secs(*total));
                t.row(row);
            }
            t
        })
        .collect()
}

/// Fig. 5: computation vs communication inside all SpMSpV calls.
pub fn fig5_spmspv_split(panels: &[SweepPanel]) -> Vec<Table> {
    panels
        .iter()
        .map(|p| {
            let mut t = Table::new(
                format!("Fig. 5 — SpMSpV computation vs communication: {}", p.name),
                &["cores", "computation", "communication", "comm-fraction"],
            );
            for (cores, b, _) in &p.points {
                let split = b.spmspv_split();
                let frac = if split.total() > 0.0 {
                    split.comm / split.total()
                } else {
                    0.0
                };
                t.row(vec![
                    cores.to_string(),
                    fmt_secs(split.compute),
                    fmt_secs(split.comm),
                    format!("{:.0}%", frac * 100.0),
                ]);
            }
            t
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 6 — flat MPI vs hybrid on ldoor
// ---------------------------------------------------------------------------

/// Fig. 6: breakdown of flat-MPI RCM on the ldoor stand-in, with the hybrid
/// total alongside (the paper quotes a ~5× hybrid advantage at 4096 cores).
pub fn fig6_flat_vs_hybrid(cfg: &ExpConfig) -> Table {
    let m = suite_matrix("ldoor").expect("ldoor is registered");
    let a = cfg.generate(&m);
    let mut t = Table::new(
        "Fig. 6 — flat MPI breakdown on ldoor (hybrid total for comparison)",
        &[
            "cores",
            "Peripheral:SpMSpV",
            "Peripheral:Other",
            "Ordering:SpMSpV",
            "Ordering:Sorting",
            "Ordering:Other",
            "flat total",
            "hybrid total",
        ],
    );
    for cores in cfg.flat_cores() {
        let mut flat_cfg = DistRcmConfig::flat_on_edison(cores);
        flat_cfg.balance_seed = Some(0xBA1A);
        let flat = dist_rcm(&a, &flat_cfg);
        // Nearest hybrid configuration with the same core budget: 6
        // threads/process needs cores divisible into a square process count;
        // reuse the paper pairing (4096 flat vs 4056 hybrid etc.).
        let hybrid_cores = PAPER_HYBRID_CORES
            .iter()
            .copied()
            .min_by_key(|&h| h.abs_diff(cores))
            .unwrap();
        let mut hybrid_cfg = DistRcmConfig::hybrid_on_edison(hybrid_cores);
        hybrid_cfg.balance_seed = Some(0xBA1A);
        let hybrid = dist_rcm(&a, &hybrid_cfg);
        let mut row = vec![cores.to_string()];
        for ph in Phase::ALL {
            row.push(fmt_secs(flat.breakdown.get(ph).total()));
        }
        row.push(fmt_secs(flat.sim_seconds));
        row.push(fmt_secs(hybrid.sim_seconds));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 1 — CG + block-Jacobi, natural vs RCM
// ---------------------------------------------------------------------------

/// Fig. 1: CG solve time (measured iterations × modeled per-iteration time)
/// for the thermal2 stand-in under natural and RCM orderings.
pub fn fig1_cg_solve(cfg: &ExpConfig) -> Table {
    let m = suite_matrix("thermal2").expect("thermal2 is registered");
    let pattern = cfg.generate(&m);
    let machine = MachineModel::edison();
    let rel_tol = 1e-6;
    let max_iter = 20_000;

    let perm = rcm(&pattern);
    let reordered = pattern.permute_sym(&perm);
    let natural_num = CsrNumeric::laplacian_from_pattern(&pattern, 0.02);
    let rcm_num = CsrNumeric::laplacian_from_pattern(&reordered, 0.02);
    let rhs_for = |a: &CsrNumeric| -> Vec<f64> {
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x, &mut b);
        b
    };

    let cores = if cfg.quick {
        vec![1usize, 16, 64]
    } else {
        vec![1usize, 4, 16, 64, 256]
    };
    let mut t = Table::new(
        "Fig. 1 — CG+block-Jacobi on thermal2: natural vs RCM ordering",
        &[
            "cores",
            "nat iters",
            "nat t/iter",
            "nat total",
            "rcm iters",
            "rcm t/iter",
            "rcm total",
            "speedup",
        ],
    );
    for p in cores {
        let mut row = vec![p.to_string()];
        let mut totals = [0.0f64; 2];
        for (k, (a, pat)) in [(&natural_num, &pattern), (&rcm_num, &reordered)]
            .into_iter()
            .enumerate()
        {
            let bj = BlockJacobi::new(a, p);
            let res = pcg(a, &rhs_for(a), &bj, rel_tol, max_iter);
            assert!(res.converged, "CG failed to converge on {} blocks", p);
            let iter_cost = cg_iteration_cost(pat, &machine, p, bj.factor_nnz());
            let total = res.iterations as f64 * iter_cost.total();
            totals[k] = total;
            row.push(res.iterations.to_string());
            row.push(fmt_secs(iter_cost.total()));
            row.push(fmt_secs(total));
        }
        row.push(format!("{:.1}x", totals[0] / totals[1]));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Ablation — sorting strategies (§VI)
// ---------------------------------------------------------------------------

/// Compare the paper's per-level bucket sort against the no-sort and
/// global-sort-at-end alternatives: ordering quality (bandwidth) and
/// simulated time at a small and a large core count.
pub fn ablation_sort_modes(cfg: &ExpConfig) -> Table {
    let names = if cfg.quick {
        vec!["ldoor"]
    } else {
        vec!["nd24k", "ldoor", "Serena", "nlpkkt240"]
    };
    let core_counts = if cfg.quick { vec![24] } else { vec![54, 1014] };
    let mut t = Table::new(
        "Ablation — sorting strategy: bandwidth and simulated time",
        &[
            "matrix",
            "mode",
            "bandwidth",
            "serial-bw",
            "time@54c",
            "time@1014c",
        ],
    );
    for name in names {
        let m = suite_matrix(name).unwrap();
        let a = cfg.generate(&m);
        // Serial ablation variants give the quality yardstick.
        let serial_bw = [
            ordering_bandwidth(&a, &rcm(&a)),
            ordering_bandwidth(&a, &rcm_nosort(&a)),
            ordering_bandwidth(&a, &rcm_globalsort(&a)),
        ];
        for (mode, label, sbw) in [
            (SortMode::Full, "full-sort", serial_bw[0]),
            (SortMode::GeneralSamplesort, "samplesort", serial_bw[0]),
            (SortMode::NoSort, "no-sort", serial_bw[1]),
            (SortMode::GlobalSortAtEnd, "global-end", serial_bw[2]),
        ] {
            let mut times = Vec::new();
            let mut bw = 0usize;
            for &cores in &core_counts {
                let mut c = DistRcmConfig::hybrid_on_edison(cores);
                c.sort_mode = mode;
                let r = dist_rcm(&a, &c);
                bw = ordering_bandwidth(&a, &r.perm);
                times.push(fmt_secs(r.sim_seconds));
            }
            while times.len() < 2 {
                times.push("-".into());
            }
            t.row(vec![
                name.to_string(),
                label.to_string(),
                fmt_count(bw as u64),
                fmt_count(sbw as u64),
                times[0].clone(),
                times[1].clone(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Ablation — direction-optimizing frontier expansion (push / pull / adaptive)
// ---------------------------------------------------------------------------

/// The three user-facing direction policies the ablation compares.
const DIRECTIONS: [ExpandDirection; 3] = [
    ExpandDirection::Push,
    ExpandDirection::Pull,
    ExpandDirection::Adaptive,
];

/// Direction-optimizing expand ablation: push-only, pull-only, and the
/// adaptive Beamer-style switch side by side on the low-diameter suite
/// graphs (where RCM frontiers grow to a large fraction of the unvisited
/// vertices) plus any `--mtx` inputs.
///
/// Serial and pooled rows report measured wall-clock; dist (16 ranks, flat)
/// and hybrid (24 cores, 6 t/p) report simulated time, where the model
/// makes the trade visible deterministically: pull's dense allgather and
/// streaming row-scan beat push's sparse gather/reduce exactly on
/// dense-frontier levels, and adaptive takes whichever is cheaper per
/// level. `pull-lv` counts the expansions the adaptive run chose to pull;
/// `identical` asserts all three permutations match the serial push
/// reference bit for bit.
pub fn direction_ablation(cfg: &ExpConfig) -> Table {
    // Low-diameter suite classes: pseudo-diameter ≤ ~60 at paper scale, the
    // fat-frontier regime the direction switch targets (quick mode reuses
    // the standard CI trio).
    let names = if cfg.quick {
        vec!["nd24k", "ldoor", "Li7Nmax6"]
    } else {
        vec!["Li7Nmax6", "Nm7", "nd24k", "Serena", "audikw_1", "ldoor"]
    };
    let mut inputs: Vec<(String, CscMatrix)> = names
        .into_iter()
        .map(|name| {
            let m = suite_matrix(name).expect("direction suite matrix registered");
            (name.to_string(), cfg.generate(&m))
        })
        .collect();
    inputs.extend(
        cfg.mtx
            .iter()
            .map(|input| (input.name.clone(), input.matrix.clone())),
    );

    let mut t = Table::new(
        "Direction ablation — push / pull / adaptive frontier expansion",
        &[
            "matrix",
            "backend",
            "clock",
            "t(push)",
            "t(pull)",
            "t(adaptive)",
            "pull-lv",
            "identical",
        ],
    );
    for (name, a) in &inputs {
        let reference = order_fresh(a, BackendKind::Serial, ExpandDirection::Push).perm;
        // Measured backends: serial and the 4-thread pool.
        for (backend, kind) in [
            ("serial", BackendKind::Serial),
            ("pooled", BackendKind::Pooled { threads: 4 }),
        ] {
            let mut times = Vec::new();
            let mut pull_levels = 0usize;
            let mut identical = true;
            for d in DIRECTIONS {
                let report = order_fresh(a, kind, d);
                times.push(fmt_secs(report.wall_seconds));
                identical &= report.perm == reference;
                if d == ExpandDirection::Adaptive {
                    pull_levels = report.stats.pull_expands;
                }
            }
            t.row(vec![
                name.clone(),
                backend.to_string(),
                "measured".into(),
                times[0].clone(),
                times[1].clone(),
                times[2].clone(),
                pull_levels.to_string(),
                identical.to_string(),
            ]);
        }
        // Simulated backends: flat 16 ranks and 24-core hybrid (the
        // `repro backends` configurations).
        for (backend, base) in [
            ("dist", DistRcmConfig::flat_on_edison(16)),
            ("hybrid", DistRcmConfig::hybrid_on_edison(24)),
        ] {
            let mut times = Vec::new();
            let mut pull_levels = 0usize;
            let mut identical = true;
            for d in DIRECTIONS {
                let mut dcfg = base;
                dcfg.direction = d;
                let r = dist_rcm(a, &dcfg);
                times.push(fmt_secs(r.sim_seconds));
                identical &= r.perm == reference;
                if d == ExpandDirection::Adaptive {
                    pull_levels = r.stats.pull_expands;
                }
            }
            t.row(vec![
                name.clone(),
                backend.to_string(),
                "simulated".into(),
                times[0].clone(),
                times[1].clone(),
                times[2].clone(),
                pull_levels.to_string(),
                identical.to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Ordering throughput — warm OrderingEngine vs cold per-call construction
// ---------------------------------------------------------------------------

/// One `(suite class, backend)` throughput measurement of the
/// `repro throughput` experiment, in raw numbers (the table formats them).
pub struct ThroughputRow {
    /// Suite class name.
    pub matrix: String,
    /// Backend measured (`serial` or `pooled`).
    pub backend: &'static str,
    /// Matrices in the stream (the class at several scales).
    pub batch_size: usize,
    /// Orderings/second with a fresh engine constructed per call (what
    /// every per-call entry point pays).
    pub cold_ops: f64,
    /// Orderings/second through one warm engine, `order` per matrix.
    pub warm_ops: f64,
    /// Orderings/second through one warm engine's `order_batch` (two-level
    /// parallelism on the pooled backend).
    pub batch_ops: f64,
    /// Every engine permutation matched a fresh engine's bit for bit —
    /// on the measured backend for the whole stream, and on all four
    /// backends for the stream's largest matrix.
    pub identical: bool,
}

/// Measure warm-engine vs cold per-call ordering throughput per suite
/// class: a stream of the class at several scales, each configuration
/// timed best-of-`reps` over full passes. Cold constructs an
/// [`rcm_core::OrderingEngine`] per ordering (for the pooled backend that includes
/// the worker spawn, exactly what a per-call ordering pays); warm reuses
/// one engine; batch additionally schedules small matrices whole,
/// one-per-worker.
pub fn throughput_measurements(cfg: &ExpConfig) -> Vec<ThroughputRow> {
    let names: Vec<&str> = cfg.matrices().iter().map(|m| m.name).collect();
    let reps = if cfg.quick { 3 } else { 5 };
    // A stream of the class at staggered scales, shrunk so one pass stays
    // cheap enough to repeat: throughput over many matrices is the metric,
    // not single-matrix latency.
    let scales = [0.45f64, 0.6, 0.75, 0.9];
    let mut rows = Vec::new();
    for name in names {
        let m = suite_matrix(name).expect("throughput suite matrix registered");
        let mats: Vec<CscMatrix> = scales
            .iter()
            .map(|s| m.generate(m.default_scale * cfg.scale_mult * s))
            .collect();
        let largest = mats
            .iter()
            .max_by_key(|a| a.n_rows())
            .expect("non-empty stream");
        // Bit-equality across all four backends on the stream's largest
        // matrix — checked once per class (the dist/hybrid simulations are
        // the expensive part), shared by both measured rows.
        let serial_ref = single_shot(largest, BackendKind::Serial);
        let mut four_way_identical = true;
        for check_kind in [
            BackendKind::Pooled { threads: 4 },
            BackendKind::Dist {
                cores: 16,
                threads_per_proc: 1,
            },
            BackendKind::Dist {
                cores: 24,
                threads_per_proc: 6,
            },
        ] {
            four_way_identical &= rcm_core::OrderingEngine::with_backend(check_kind)
                .order(largest)
                .perm
                == serial_ref;
        }
        for (backend, kind) in [
            ("serial", BackendKind::Serial),
            ("pooled", BackendKind::Pooled { threads: 4 }),
        ] {
            // Bit-equality of the warm engine against the per-call entry,
            // on the measured backend for every stream matrix.
            let mut engine = rcm_core::OrderingEngine::with_backend(kind);
            let identical = four_way_identical
                && mats
                    .iter()
                    .all(|a| engine.order(a).perm == single_shot(a, kind));

            // The three modes are measured *interleaved* within each rep
            // (cold, then warm, then batch, adjacent in time) so ambient
            // load — a CI runner compiling sibling crates, say — hits all
            // three roughly equally; best-of across reps then discards the
            // noisy ones. Cold constructs a fresh engine (backend
            // included) per ordering; warm reuses the one engine (already
            // warmed by the equality pass above).
            let mut cold_best = f64::INFINITY;
            let mut warm_best = f64::INFINITY;
            let mut batch_best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                for a in &mats {
                    let report = rcm_core::OrderingEngine::with_backend(kind).order(a);
                    assert_eq!(report.perm.len(), a.n_rows());
                }
                cold_best = cold_best.min(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                for a in &mats {
                    let report = engine.order(a);
                    assert_eq!(report.perm.len(), a.n_rows());
                }
                warm_best = warm_best.min(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                let reports = engine.order_batch(&mats);
                batch_best = batch_best.min(t0.elapsed().as_secs_f64());
                assert_eq!(reports.len(), mats.len());
            }
            let ops = |secs: f64| mats.len() as f64 / secs.max(1e-12);
            rows.push(ThroughputRow {
                matrix: name.to_string(),
                backend,
                batch_size: mats.len(),
                cold_ops: ops(cold_best),
                warm_ops: ops(warm_best),
                batch_ops: ops(batch_best),
                identical,
            });
        }
    }
    rows
}

/// The `repro throughput` table: orderings/second, warm engine vs cold
/// per-call construction vs warm batch, per suite class and backend. The
/// rates are reported, not asserted; the bench tests assert that every
/// permutation stayed bit-identical to a fresh single-use engine's, and the
/// engine's own tests pin what warm saves (no worker spawn, no buffer
/// growth).
pub fn throughput_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Ordering throughput — warm OrderingEngine vs cold per-call (orderings/sec)",
        &[
            "matrix",
            "backend",
            "stream",
            "cold o/s",
            "warm o/s",
            "batch o/s",
            "warm/cold",
            "identical",
        ],
    );
    for row in throughput_measurements(cfg) {
        t.row(vec![
            row.matrix.clone(),
            row.backend.to_string(),
            row.batch_size.to_string(),
            format!("{:.1}", row.cold_ops),
            format!("{:.1}", row.warm_ops),
            format!("{:.1}", row.batch_ops),
            format!("{:.2}x", row.warm_ops / row.cold_ops),
            row.identical.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Service tier — closed-loop load: cold vs warm shards vs pattern cache
// ---------------------------------------------------------------------------

/// One suite-class row of the `repro service` experiment, in raw numbers
/// (the table formats them).
pub struct ServiceRow {
    /// Suite class name.
    pub matrix: String,
    /// Jobs per timed pass (the class at several scales, repeated).
    pub jobs: usize,
    /// Orderings/second with a fresh engine constructed per job — what a
    /// caller pays without any service tier.
    pub cold_ops: f64,
    /// Orderings/second through the `OrderingService` with the pattern
    /// cache disabled: the bounded queue feeding sharded warm engines.
    pub warm_ops: f64,
    /// Orderings/second through the service with a prewarmed pattern
    /// cache: every job is an O(nnz) fingerprint hit at submit.
    pub cached_ops: f64,
    /// Median submit→completion latency (ms) under Poisson-ish arrivals
    /// on the cached service.
    pub p50_ms: f64,
    /// 95th-percentile submit→completion latency (ms), same phase.
    pub p95_ms: f64,
    /// Cache hits / lookups over the cached phases.
    pub hit_rate: f64,
    /// Every cached permutation matched the fresh single-shot ordering
    /// bit for bit.
    pub identical: bool,
}

/// Measure the service tier per suite class: a closed-loop job stream (the
/// class at several scales, repeated, deterministically shuffled) driven
/// through (a) a fresh engine per job, (b) an `OrderingService` with warm
/// shards and no cache, and (c) the same service with a prewarmed pattern
/// cache — each timed best-of-`reps`, interleaved so ambient load hits all
/// three alike. A final phase replays the stream with Poisson-ish
/// inter-arrival gaps from the seeded shim RNG and reports latency
/// percentiles off the `JobHandle` clocks.
pub fn service_measurements(cfg: &ExpConfig) -> Vec<ServiceRow> {
    use rcm_core::{
        CacheOutcome, EngineConfig, OrderingEngine, OrderingRequest, OrderingService, ServiceConfig,
    };
    let names: Vec<&str> = cfg.matrices().iter().map(|m| m.name).collect();
    let reps = if cfg.quick { 3 } else { 5 };
    let scales = [0.45f64, 0.6, 0.75, 0.9];
    let passes = 3;
    let mut rows = Vec::new();
    for name in names {
        let m = suite_matrix(name).expect("service suite matrix registered");
        let mats: Vec<CscMatrix> = scales
            .iter()
            .map(|s| m.generate(m.default_scale * cfg.scale_mult * s))
            .collect();
        // The job stream: every pattern `passes` times, deterministically
        // shuffled — the repeated-pattern workload the cache exists for.
        let mut stream: Vec<usize> = (0..mats.len()).cycle().take(mats.len() * passes).collect();
        let mut rng = StdRng::seed_from_u64(0x5EED ^ name.len() as u64);
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.gen_range(0..i + 1));
        }
        let fresh: Vec<Permutation> = mats
            .iter()
            .map(|a| single_shot(a, BackendKind::Serial))
            .collect();

        let engine_cfg = EngineConfig::builder().backend(BackendKind::Serial).build();
        let warm_service =
            OrderingService::start(ServiceConfig::new(engine_cfg).shards(2).no_cache());
        let cached_service = OrderingService::start(ServiceConfig::new(engine_cfg).shards(2));
        // Prewarm: each distinct pattern ordered (and inserted) once, and
        // its cached permutation checked bit for bit against the fresh
        // single-shot ordering.
        let mut identical = true;
        for (a, expect) in mats.iter().zip(&fresh) {
            let miss = cached_service
                .submit(OrderingRequest::new(a.clone()))
                .wait();
            let hit = cached_service
                .submit(OrderingRequest::new(a.clone()))
                .wait();
            identical &= hit.cache == Some(CacheOutcome::Hit);
            identical &= miss.perm == *expect && hit.perm == *expect;
        }

        // The three modes are timed *interleaved* within each rep (cold,
        // warm, cached adjacent in time) so ambient load hits all three
        // roughly equally; best-of across reps discards the noisy ones.
        let mut cold_best = f64::INFINITY;
        let mut warm_best = f64::INFINITY;
        let mut cached_best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            for &i in &stream {
                let report = OrderingEngine::with_backend(BackendKind::Serial).order(&mats[i]);
                assert_eq!(report.perm.len(), mats[i].n_rows());
            }
            cold_best = cold_best.min(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            let handles: Vec<_> = stream
                .iter()
                .map(|&i| warm_service.submit(OrderingRequest::new(mats[i].clone())))
                .collect();
            for h in &handles {
                h.wait();
            }
            warm_best = warm_best.min(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            let handles: Vec<_> = stream
                .iter()
                .map(|&i| cached_service.submit(OrderingRequest::new(mats[i].clone())))
                .collect();
            for h in &handles {
                identical &= h.wait().cache == Some(CacheOutcome::Hit);
            }
            cached_best = cached_best.min(t0.elapsed().as_secs_f64());
        }

        // Latency under Poisson-ish arrivals: exponential inter-arrival
        // gaps from the seeded shim RNG, latencies off the handle clocks.
        let mean_gap_us = 150.0;
        let handles: Vec<_> = stream
            .iter()
            .map(|&i| {
                let h = cached_service.submit(OrderingRequest::new(mats[i].clone()));
                let u: f64 = rng.gen();
                let gap = -mean_gap_us * (1.0 - u).ln();
                std::thread::sleep(std::time::Duration::from_micros(gap as u64));
                h
            })
            .collect();
        let mut latencies: Vec<f64> = handles
            .iter()
            .map(|h| {
                h.wait();
                h.latency()
                    .expect("waited handle has a latency")
                    .as_secs_f64()
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100] * 1e3;

        let stats = cached_service.stats();
        let lookups = (stats.cache_hits + stats.cache_misses).max(1);
        rows.push(ServiceRow {
            matrix: name.to_string(),
            jobs: stream.len(),
            cold_ops: stream.len() as f64 / cold_best.max(1e-12),
            warm_ops: stream.len() as f64 / warm_best.max(1e-12),
            cached_ops: stream.len() as f64 / cached_best.max(1e-12),
            p50_ms: pct(50),
            p95_ms: pct(95),
            hit_rate: stats.cache_hits as f64 / lookups as f64,
            identical,
        });
    }
    rows
}

/// The `repro service` table: orderings/second through a fresh engine per
/// job, the warm sharded service, and the pattern-cached service, plus
/// latency percentiles under Poisson-ish arrivals. The rates are reported,
/// not asserted; the bench tests assert the hit rate and that every cached
/// permutation stayed bit-identical to the fresh ordering, and the
/// service's own tests pin that a hit never reaches a shard.
pub fn service_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Ordering service — closed-loop load: cold vs warm shards vs pattern cache (orderings/sec)",
        &[
            "matrix",
            "jobs",
            "cold o/s",
            "warm o/s",
            "cached o/s",
            "cached/warm",
            "p50 ms",
            "p95 ms",
            "hit rate",
            "identical",
        ],
    );
    for row in service_measurements(cfg) {
        t.row(vec![
            row.matrix.clone(),
            row.jobs.to_string(),
            format!("{:.1}", row.cold_ops),
            format!("{:.1}", row.warm_ops),
            format!("{:.1}", row.cached_ops),
            format!("{:.2}x", row.cached_ops / row.warm_ops),
            format!("{:.3}", row.p50_ms),
            format!("{:.3}", row.p95_ms),
            format!("{:.2}", row.hit_rate),
            row.identical.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Component-parallel ordering — split + schedule + stitch vs sequential
// ---------------------------------------------------------------------------

/// One `(class, backend, threads)` row of the `repro components`
/// experiment, in raw numbers (the table formats them).
pub struct ComponentRow {
    /// Multi-component class name (`forest`, `multi_body`, `block_diag`).
    pub class: String,
    /// Backend measured (`serial` or `pooled`).
    pub backend: &'static str,
    /// Pool worker threads (1 on the serial row).
    pub threads: usize,
    /// Vertices in the class matrix.
    pub n: usize,
    /// Stored entries in the class matrix.
    pub nnz: usize,
    /// Connected components in the class matrix.
    pub components: usize,
    /// Best-of-reps wall seconds per ordering for the sequential driver
    /// (one warm engine, `split_components` off): every component pays a
    /// full unvisited-minimum scan and, pooled, per-level worker sync.
    pub seq_secs: f64,
    /// Best-of-reps wall seconds per ordering with component splitting on:
    /// detect once, order each sub-matrix as an independent job (small
    /// components whole-per-worker), stitch.
    pub split_secs: f64,
    /// The split ordering matched the sequential driver bit for bit — on
    /// the measured backend every rep, and on all four backends checked
    /// once per class.
    pub identical: bool,
}

/// The three multi-component classes of the `repro components` experiment.
///
/// Component *count* is the driving dimension — the sequential driver pays
/// one full unvisited-minimum scan per component and, pooled, per-level
/// sync inside every tiny component — so quick mode keeps fixed
/// many-component shapes (~10³ vertices, cheap enough for CI) rather than
/// scaling the components away; full mode grows with `scale_mult`.
fn component_classes(cfg: &ExpConfig) -> Vec<(&'static str, CscMatrix)> {
    if cfg.quick {
        vec![
            ("forest", forest(24, 40, 11)),
            ("multi_body", multi_body(6, 10, 12)),
            ("block_diag", block_diag(4, 7, 13)),
        ]
    } else {
        let k = |base: usize| ((base as f64 * cfg.scale_mult).round() as usize).max(2);
        vec![
            ("forest", forest(k(64), 120, 11)),
            ("multi_body", multi_body(k(10), 22, 12)),
            ("block_diag", block_diag(k(8), 12, 13)),
        ]
    }
}

/// Measure component-parallel ordering per multi-component class: one warm
/// engine with `split_components` off (the sequential driver) against one
/// with it on, per backend — serial plus pooled at each `RCM_THREADS`
/// count — timed best-of-`reps` with the two drivers interleaved within
/// each rep so ambient load hits both alike. Bit-equality of the split
/// ordering is checked against the plain serial reference on all four
/// backends once per class, and against the measured backend every rep.
pub fn component_measurements(cfg: &ExpConfig) -> Vec<ComponentRow> {
    let reps = if cfg.quick { 3 } else { 5 };
    let inner = if cfg.quick { 4 } else { 2 };
    let thread_counts = rcm_core::thread_counts_from_env(&[1, 4]);
    let mut rows = Vec::new();
    for (class, a) in component_classes(cfg) {
        let components = connected_components(&a).count();
        let serial_ref = single_shot(&a, BackendKind::Serial);
        // Bit-equality of the split path across all four backends, checked
        // once per class (the dist/hybrid simulations are the expensive
        // part), shared by every measured row of the class.
        let mut four_way_identical = true;
        for kind in [
            BackendKind::Serial,
            BackendKind::Pooled { threads: 4 },
            BackendKind::Dist {
                cores: 16,
                threads_per_proc: 1,
            },
            BackendKind::Dist {
                cores: 24,
                threads_per_proc: 6,
            },
        ] {
            let mut split_engine = rcm_core::OrderingEngine::new(
                rcm_core::EngineConfig::builder()
                    .backend(kind)
                    .split_components(true)
                    .build(),
            );
            four_way_identical &= split_engine.order(&a).perm == serial_ref;
        }
        let mut backends: Vec<(&'static str, usize, BackendKind)> =
            vec![("serial", 1, BackendKind::Serial)];
        for &t in &thread_counts {
            backends.push(("pooled", t, BackendKind::Pooled { threads: t }));
        }
        for (backend, threads, kind) in backends {
            let mut seq = rcm_core::OrderingEngine::with_backend(kind);
            let mut split = rcm_core::OrderingEngine::new(
                rcm_core::EngineConfig::builder()
                    .backend(kind)
                    .split_components(true)
                    .build(),
            );
            // Warms both engines (workspaces, pool spawn) and pins the
            // per-backend equality before any timing.
            let mut identical = four_way_identical && split.order(&a).perm == seq.order(&a).perm;
            let mut seq_best = f64::INFINITY;
            let mut split_best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                for _ in 0..inner {
                    let report = seq.order(&a);
                    assert_eq!(report.perm.len(), a.n_rows());
                }
                seq_best = seq_best.min(t0.elapsed().as_secs_f64() / inner as f64);
                let t0 = Instant::now();
                for _ in 0..inner {
                    let report = split.order(&a);
                    assert_eq!(report.perm.len(), a.n_rows());
                }
                split_best = split_best.min(t0.elapsed().as_secs_f64() / inner as f64);
                identical &= split.order(&a).perm == seq.order(&a).perm;
            }
            rows.push(ComponentRow {
                class: class.to_string(),
                backend,
                threads,
                n: a.n_rows(),
                nnz: a.nnz(),
                components,
                seq_secs: seq_best,
                split_secs: split_best,
                identical,
            });
        }
    }
    rows
}

/// The `repro components` table: sequential-driver vs component-parallel
/// wall time per multi-component class and backend. The times are
/// reported, not asserted; the bench tests assert that every split
/// ordering stayed bit-identical to the sequential driver.
pub fn components_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Component-parallel ordering — split+schedule+stitch vs sequential driver",
        &[
            "class",
            "backend",
            "threads",
            "n",
            "nnz",
            "comps",
            "seq ms",
            "split ms",
            "speedup",
            "identical",
        ],
    );
    for row in component_measurements(cfg) {
        t.row(vec![
            row.class.clone(),
            row.backend.to_string(),
            row.threads.to_string(),
            fmt_count(row.n as u64),
            fmt_count(row.nnz as u64),
            row.components.to_string(),
            format!("{:.3}", row.seq_secs * 1e3),
            format!("{:.3}", row.split_secs * 1e3),
            format!("{:.2}x", row.seq_secs / row.split_secs.max(1e-12)),
            row.identical.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Start-node strategy ablation — george-liu vs min-degree
// ---------------------------------------------------------------------------

/// The two environment-selectable strategies the `repro startnode`
/// ablation compares (`Fixed` is excluded: its cost is trivially zero and
/// its quality is whatever the caller pinned).
pub const START_NODE_STRATEGIES: [StartNode; 2] = [StartNode::GeorgeLiu, StartNode::MinDegree];

/// One (class × backend × strategy) row of the `repro startnode`
/// experiment, in raw numbers (the table formats them).
#[derive(Clone, Debug)]
pub struct StartNodeRow {
    /// Suite class name.
    pub class: String,
    /// Backend measured (`serial`, `pooled`, `dist`, `hybrid`).
    pub backend: &'static str,
    /// Strategy name ([`StartNode::name`]).
    pub strategy: &'static str,
    /// Vertices in the class matrix.
    pub n: usize,
    /// Stored entries in the class matrix.
    pub nnz: usize,
    /// Pseudo-peripheral BFS sweeps summed over every component (0 for the
    /// zero-sweep min-degree baseline).
    pub sweeps: usize,
    /// BFS levels traversed by those sweeps (the α–β cost driver: each
    /// level is a frontier expansion round).
    pub levels: usize,
    /// Final eccentricity of the first component's chosen start vertex.
    pub eccentricity: usize,
    /// Width (max level size) of the BFS level structure rooted at the
    /// first component's chosen start vertex — the quality proxy the
    /// peripheral search minimizes indirectly.
    pub width: usize,
    /// Post-RCM bandwidth under this strategy's ordering.
    pub bandwidth: usize,
    /// Best-of-reps wall seconds per ordering (warm engine).
    pub wall_secs: f64,
    /// Simulated seconds on the dist/hybrid backends (0.0 elsewhere).
    pub sim_secs: f64,
    /// This backend's ordering matched the serial backend under the same
    /// strategy bit for bit (per-strategy cross-backend determinism).
    pub deterministic: bool,
}

/// Measure every start-node strategy on every suite class and backend:
/// one warm engine per (class, backend, strategy), best-of-`reps` wall
/// time, sweep/level/eccentricity counts from
/// [`rcm_core::DriverStats::peripheral_stats`], level-structure width of
/// the chosen start, and post-RCM bandwidth. The serial backend under the
/// same strategy is the determinism reference for the other three.
pub fn startnode_measurements(cfg: &ExpConfig) -> Vec<StartNodeRow> {
    let reps = if cfg.quick { 2 } else { 3 };
    let backends: [(&'static str, BackendKind); 4] = [
        ("serial", BackendKind::Serial),
        ("pooled", BackendKind::Pooled { threads: 4 }),
        (
            "dist",
            BackendKind::Dist {
                cores: 16,
                threads_per_proc: 1,
            },
        ),
        (
            "hybrid",
            BackendKind::Dist {
                cores: 24,
                threads_per_proc: 6,
            },
        ),
    ];
    let mut rows = Vec::new();
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        for strategy in START_NODE_STRATEGIES {
            let mut serial_engine = rcm_core::OrderingEngine::new(
                rcm_core::EngineConfig::builder()
                    .start_node(strategy)
                    .build(),
            );
            let serial_ref = serial_engine.order(&a);
            for (backend, kind) in backends {
                let mut engine = rcm_core::OrderingEngine::new(
                    rcm_core::EngineConfig::builder()
                        .backend(kind)
                        .start_node(strategy)
                        .build(),
                );
                let mut wall_best = f64::INFINITY;
                let mut report = None;
                for _ in 0..reps {
                    let r = engine.order(&a);
                    wall_best = wall_best.min(r.wall_seconds);
                    report = Some(r);
                }
                let report = report.expect("reps >= 1");
                let first = report.peripheral_first().copied().unwrap_or_default();
                rows.push(StartNodeRow {
                    class: m.name.to_string(),
                    backend,
                    strategy: strategy.name(),
                    n: a.n_rows(),
                    nnz: a.nnz(),
                    sweeps: report.peripheral_sweeps(),
                    levels: report.stats.peripheral_stats.iter().map(|p| p.levels).sum(),
                    eccentricity: first.eccentricity,
                    width: bfs_level_structure(&a, first.start).width(),
                    bandwidth: report.bandwidth_after,
                    wall_secs: wall_best,
                    sim_secs: report.sim_seconds(),
                    deterministic: report.perm == serial_ref.perm,
                });
            }
        }
    }
    rows
}

/// The `repro startnode` table: the bench tests assert that min-degree
/// runs no sweep, that George–Liu reproduces the classical serial RCM, and
/// that every strategy is deterministic across the four backends.
pub fn startnode_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Start-node strategy ablation — sweeps saved vs ordering quality",
        &[
            "class",
            "backend",
            "strategy",
            "n",
            "nnz",
            "sweeps",
            "levels",
            "ecc",
            "width",
            "bandwidth",
            "wall ms",
            "sim s",
            "deterministic",
        ],
    );
    for row in startnode_measurements(cfg) {
        t.row(vec![
            row.class.clone(),
            row.backend.to_string(),
            row.strategy.to_string(),
            fmt_count(row.n as u64),
            fmt_count(row.nnz as u64),
            row.sweeps.to_string(),
            row.levels.to_string(),
            row.eccentricity.to_string(),
            fmt_count(row.width as u64),
            fmt_count(row.bandwidth as u64),
            format!("{:.3}", row.wall_secs * 1e3),
            format!("{:.4}", row.sim_secs),
            row.deterministic.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks — push vs pull vs old pull, counting vs bucket sort
// ---------------------------------------------------------------------------

/// One suite-class row of the `repro kernels` experiment, in raw numbers
/// (the table formats and ratios them).
pub struct KernelRow {
    /// Suite class name.
    pub matrix: String,
    /// Frontier size at the captured (peak) BFS level.
    pub frontier: usize,
    /// Matrix nonzeros one pull scan traverses from the captured state
    /// (identical for the bitmap and the closure kernels).
    pub pull_work: usize,
    /// ns per traversed edge, push SpMSpV (the SPA kernel).
    pub push_ns_edge: f64,
    /// ns per traversed edge, bitmap-masked pull into the warm buffer.
    pub pull_ns_edge: f64,
    /// ns per traversed edge, closure-masked pre-bitmap pull (fresh output
    /// allocation per call).
    pub old_pull_ns_edge: f64,
    /// ns per element, two-pass counting SORTPERM.
    pub counting_ns_elem: f64,
    /// ns per element, per-parent bucket-`Vec` SORTPERM.
    pub bucket_ns_elem: f64,
    /// Growth events of the warm pull output buffer during the timed
    /// steady state (must be 0 — the first, warming call is excluded).
    pub pull_growth_events: usize,
    /// All kernels agreed bit for bit: bitmap pull == closure pull ==
    /// push + SELECT (same traversed-edge count), counting == bucket sort.
    pub identical: bool,
}

/// A realistic mid-traversal snapshot: the BFS level maximizing
/// `frontier × unvisited` — where direction-optimizing runs switch to pull
/// (a fat frontier *and* live candidates; the plain frontier peak can be
/// the final level of a small-diameter graph, whose candidate set is
/// empty) — with the frontier carrying consecutive labels (the previous
/// SORTPERM's output shape) and the visited state mirrored in both a dense
/// label array and an unvisited bitmap.
struct MidBfs {
    frontier: SparseVec<Label>,
    batch: (Label, Label),
    order: Vec<Label>,
    unvisited: VertexBitmap,
}

fn mid_bfs_state(a: &CscMatrix, degrees: &[Vidx]) -> MidBfs {
    let n = a.n_rows();
    let mut order = vec![UNVISITED; n];
    let mut unvisited = VertexBitmap::new(0);
    unvisited.reset_ones(n);
    let mut spa = SpmspvWorkspace::new(n);
    let mut scratch = SortpermScratch::new();
    order[0] = 0;
    unvisited.remove(0);
    let mut frontier = SparseVec::singleton(n, 0, 0);
    let mut batch = (0 as Label, 1 as Label);
    let mut best: Option<(usize, MidBfs)> = None;
    loop {
        let merit = frontier.nnz() * unvisited.count();
        if best.as_ref().is_none_or(|&(m, _)| merit > m) {
            best = Some((
                merit,
                MidBfs {
                    frontier: frontier.clone(),
                    batch,
                    order: order.clone(),
                    unvisited: unvisited.clone(),
                },
            ));
        }
        let (y, _) = spmspv::<Label, Select2ndMin>(a, &frontier, &mut spa);
        let selected = y.select(&order, |l| l == UNVISITED);
        if selected.is_empty() {
            break;
        }
        // Consecutive labels in (parent, degree, vertex) order, exactly
        // like the Cuthill-McKee level loop.
        let sorted = counting_sortperm(selected.entries(), batch, degrees, &mut scratch);
        let labeled: Vec<(Vidx, Label)> = sorted
            .iter()
            .enumerate()
            .map(|(k, &(_, v))| (v, batch.1 + k as Label))
            .collect();
        batch = (batch.1, batch.1 + labeled.len() as Label);
        for &(v, l) in &labeled {
            order[v as usize] = l;
            unvisited.remove(v);
        }
        frontier = SparseVec::from_entries(n, labeled);
    }
    best.expect("BFS captures at least the seed level").1
}

/// Best-of-`reps` wall time of `inner` back-to-back calls of `f`.
fn best_secs(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Microbenchmark the per-edge expansion kernels (push SpMSpV, the bitmap
/// pull, the pre-bitmap closure pull) and the per-element SORTPERM kernels
/// (two-pass counting sort, per-parent bucket `Vec`s) on each suite class,
/// from the captured direction-switch BFS state (max frontier × live
/// candidates).
///
/// The measured ns/edge figures are the ground truth behind
/// `MachineModel::elem_cost` vs `edge_cost`: the simulator prices a pull
/// scan at the streaming element rate and a push expansion at the irregular
/// edge rate, so `elem_cost` should track this experiment's pull ns/edge
/// (and `edge_cost` its push ns/edge) when recalibrating the model on new
/// hardware — see `repro sensitivity` for how much the predictions move.
pub fn kernel_measurements(cfg: &ExpConfig) -> Vec<KernelRow> {
    let reps = if cfg.quick { 5 } else { 9 };
    let mut rows = Vec::new();
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let n = a.n_rows();
        let degrees = a.degrees();
        let st = mid_bfs_state(&a, &degrees);
        let mut spa = SpmspvWorkspace::new(n);
        let mut dense = DenseFrontier::new(n);
        dense.load(&st.frontier);
        let mut pull_buf = PullBuffer::new();

        // One canonical evaluation per kernel for the bit-equality column
        // (also warms every workspace before the timed passes).
        let (push_out, push_work) = spmspv::<Label, Select2ndMin>(&a, &st.frontier, &mut spa);
        let push_selected = push_out.select(&st.order, |l| l == UNVISITED);
        let pull_work =
            spmspv_pull::<Label, Select2ndMin>(&a, &dense, &st.unvisited, None, &mut pull_buf);
        let (old_out, old_work) = spmspv_pull_ref::<Label, Select2ndMin>(&a, &dense, |r| {
            st.order[r as usize] == UNVISITED
        });
        let mut identical = pull_buf.to_sparse(n) == old_out
            && pull_buf.to_sparse(n) == push_selected
            && pull_work == old_work;

        // SORTPERM input: the expansion's (vertex, parent-label) entries.
        let entries = push_selected.entries().to_vec();
        let mut scratch = SortpermScratch::new();
        let counting_out = counting_sortperm(&entries, st.batch, &degrees, &mut scratch).to_vec();
        identical &= counting_out == bucket_sortperm_ref(&entries, st.batch, &degrees);

        // Timed passes: enough inner iterations to outgrow timer noise,
        // best-of-reps to discard ambient load.
        let warm_events = pull_buf.growth_events();
        let edge_inner = (200_000 / pull_work.max(1)).clamp(1, 256);
        let elem_inner = (200_000 / entries.len().max(1)).clamp(1, 1024);
        let push_secs = best_secs(reps, edge_inner, || {
            spmspv::<Label, Select2ndMin>(&a, &st.frontier, &mut spa);
        });
        let pull_secs = best_secs(reps, edge_inner, || {
            spmspv_pull::<Label, Select2ndMin>(&a, &dense, &st.unvisited, None, &mut pull_buf);
        });
        let old_pull_secs = best_secs(reps, edge_inner, || {
            spmspv_pull_ref::<Label, Select2ndMin>(&a, &dense, |r| {
                st.order[r as usize] == UNVISITED
            });
        });
        let counting_secs = best_secs(reps, elem_inner, || {
            counting_sortperm(&entries, st.batch, &degrees, &mut scratch);
        });
        let bucket_secs = best_secs(reps, elem_inner, || {
            bucket_sortperm_ref(&entries, st.batch, &degrees);
        });
        let per = |secs: f64, inner: usize, units: usize| {
            secs * 1e9 / (inner as f64 * units.max(1) as f64)
        };
        rows.push(KernelRow {
            matrix: m.name.to_string(),
            frontier: st.frontier.nnz(),
            pull_work,
            push_ns_edge: per(push_secs, edge_inner, push_work),
            pull_ns_edge: per(pull_secs, edge_inner, pull_work),
            old_pull_ns_edge: per(old_pull_secs, edge_inner, pull_work),
            counting_ns_elem: per(counting_secs, elem_inner, entries.len()),
            bucket_ns_elem: per(bucket_secs, elem_inner, entries.len()),
            pull_growth_events: pull_buf.growth_events() - warm_events,
            identical,
        });
    }
    rows
}

/// The `repro kernels` table: ns/edge for the three expansion kernels and
/// ns/element for the two SORTPERM kernels, per suite class. The rates are
/// reported, not asserted; the bench tests assert zero steady-state growth
/// of the warm pull buffer and bit-identical outputs with equal pull work.
pub fn kernels_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Kernel microbenchmarks — expansion ns/edge, SORTPERM ns/element",
        &[
            "matrix",
            "frontier",
            "edges",
            "push ns/e",
            "pull ns/e",
            "old pull ns/e",
            "pull/old",
            "count ns/el",
            "bucket ns/el",
            "growth",
            "identical",
        ],
    );
    for row in kernel_measurements(cfg) {
        t.row(vec![
            row.matrix.clone(),
            row.frontier.to_string(),
            row.pull_work.to_string(),
            format!("{:.2}", row.push_ns_edge),
            format!("{:.2}", row.pull_ns_edge),
            format!("{:.2}", row.old_pull_ns_edge),
            format!("{:.2}x", row.pull_ns_edge / row.old_pull_ns_edge.max(1e-12)),
            format!("{:.2}", row.counting_ns_elem),
            format!("{:.2}", row.bucket_ns_elem),
            row.pull_growth_events.to_string(),
            row.identical.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Ordering-quality comparison across heuristics (RCM vs CM vs Sloan vs …)
// ---------------------------------------------------------------------------

/// Compare the ordering heuristics the paper discusses (§I–II): RCM,
/// unreversed CM, Sloan, and the no-sort/global-sort ablations — bandwidth,
/// profile, wavefront and sequential runtime.
pub fn quality_comparison(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Ordering quality across heuristics",
        &[
            "matrix",
            "method",
            "bandwidth",
            "profile",
            "max-wavefront",
            "rms-wavefront",
            "runtime",
        ],
    );
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        type Method = (&'static str, fn(&CscMatrix) -> rcm_sparse::Permutation);
        let natural: Method = ("natural", |a| rcm_sparse::Permutation::identity(a.n_rows()));
        let methods: Vec<Method> = vec![
            natural,
            ("rcm", |a| rcm(a)),
            ("cm", |a| rcm_core::cuthill_mckee(a).0),
            ("sloan", |a| sloan(a)),
            ("rcm-nosort", |a| rcm_nosort(a)),
            ("rcm-globalsort", |a| rcm_globalsort(a)),
            ("rcm-compressed", |a| rcm_compressed(a).0),
        ];
        for (label, f) in methods {
            let t0 = Instant::now();
            let p = f(&a);
            let dt = t0.elapsed().as_secs_f64();
            let (maxw, rmsw) = ordering_wavefront(&a, &p);
            t.row(vec![
                m.name.to_string(),
                label.to_string(),
                fmt_count(ordering_bandwidth(&a, &p) as u64),
                fmt_count(ordering_profile(&a, &p)),
                fmt_count(maxw as u64),
                format!("{rmsw:.1}"),
                fmt_secs(dt),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Supervariable compression (SPARSPAK/SpMP-style optimization)
// ---------------------------------------------------------------------------

/// Supervariable compression ablation: how much each suite class compresses
/// and what it does to sequential RCM runtime and quality. The multi-dof FEM
/// matrices (ldoor 2 dofs, audikw_1/dielFilter/Flan 3 dofs) are the
/// interesting rows.
pub fn compression_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Supervariable compression — ratio, runtime and quality",
        &[
            "matrix",
            "vertices",
            "supervars",
            "ratio",
            "t(plain)",
            "t(compressed)",
            "speedup",
            "bw(plain)",
            "bw(compressed)",
        ],
    );
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let t0 = Instant::now();
        let plain = rcm(&a);
        let t_plain = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (compressed, stats) = rcm_compressed(&a);
        let t_comp = t1.elapsed().as_secs_f64();
        t.row(vec![
            m.name.to_string(),
            fmt_count(stats.vertices as u64),
            fmt_count(stats.supervariables as u64),
            format!("{:.2}", stats.ratio),
            fmt_secs(t_plain),
            fmt_secs(t_comp),
            format!("{:.2}x", t_plain / t_comp),
            fmt_count(ordering_bandwidth(&a, &plain) as u64),
            fmt_count(ordering_bandwidth(&a, &compressed) as u64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Gather-to-root comparison (§V-C)
// ---------------------------------------------------------------------------

/// §V-C: "it takes over 9 seconds to gather the nlpkkt240 matrix from being
/// distributed over 1024 cores into a single node/core … approximately 3×
/// longer than computing RCM using our algorithm on the same number of
/// cores." Model the gather (a Gatherv of the whole structure to rank 0)
/// plus a single-node multithreaded RCM, against the distributed algorithm.
pub fn gather_vs_distributed(cfg: &ExpConfig) -> Table {
    let machine = MachineModel::edison();
    let mut t = Table::new(
        "Gather-to-root + shared-memory RCM vs distributed RCM (modeled)",
        &[
            "matrix",
            "cores",
            "gather",
            "node RCM",
            "gather+RCM",
            "dist RCM",
            "dist/gather",
        ],
    );
    let cores_list = if cfg.quick {
        vec![216]
    } else {
        vec![216, 1014]
    };
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        // Gather: every rank ships its share of the structure to rank 0;
        // the root's receive volume dominates: nnz·(4B index) + column
        // pointers, through a tree of depth log2(p) stages (pipelined, so
        // the β term is charged once on the full volume at the root).
        let bytes = (a.nnz() * 4 + a.n_rows() * 8) as f64;
        // Single-node RCM after the gather: one node = 24 Edison cores; the
        // level-synchronous algorithm sweeps ~5 passes over the edges.
        let node_speedup = machine.thread_speedup(24);
        let node_rcm = 5.0 * a.nnz() as f64 * machine.edge_cost / node_speedup;
        for &cores in &cores_list {
            let procs = (cores / 6).max(1);
            let gather = machine.alpha * (procs as f64).log2().ceil() + machine.beta * bytes;
            let mut dcfg = DistRcmConfig::hybrid_on_edison(cores);
            dcfg.balance_seed = Some(0xBA1A);
            let dist = dist_rcm(&a, &dcfg);
            t.row(vec![
                m.name.to_string(),
                cores.to_string(),
                fmt_secs(gather),
                fmt_secs(node_rcm),
                fmt_secs(gather + node_rcm),
                fmt_secs(dist.sim_seconds),
                format!("{:.2}x", dist.sim_seconds / (gather + node_rcm)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Machine-model sensitivity (design-choice ablation)
// ---------------------------------------------------------------------------

/// Sweep the latency constant α to show where the level-synchronous
/// algorithm's scaling knee moves — the design-choice ablation DESIGN.md
/// calls out (the paper's §VI blames α-bound SORTPERM/SpMSpV latency for the
/// high-concurrency falloff).
pub fn machine_sensitivity(cfg: &ExpConfig) -> Table {
    let m = suite_matrix("ldoor").expect("ldoor registered");
    let a = cfg.generate(&m);
    let mut t = Table::new(
        "Machine sensitivity — total simulated time vs latency α (ldoor)",
        &["alpha", "t@24c", "t@216c", "t@1014c", "best cores"],
    );
    for alpha_scale in [0.1, 1.0, 10.0] {
        let mut machine = MachineModel::edison();
        machine.alpha *= alpha_scale;
        let mut row = vec![format!("{:.1}us", machine.alpha * 1e6)];
        let mut best = (usize::MAX, f64::INFINITY);
        for cores in [24usize, 216, 1014] {
            let mut c = DistRcmConfig::hybrid_on_edison(cores);
            c.machine = machine;
            let r = dist_rcm(&a, &c);
            if r.sim_seconds < best.1 {
                best = (cores, r.sim_seconds);
            }
            row.push(fmt_secs(r.sim_seconds));
        }
        row.push(best.0.to_string());
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 4-style strong-scaling summary (speedups, §V-D headline numbers)
// ---------------------------------------------------------------------------

/// Headline strong-scaling summary: best speedup per matrix over the sweep
/// (the paper quotes 38× for Li7Nmax6 and 27× for nd24k at 1024 cores).
pub fn scaling_summary(panels: &[SweepPanel]) -> Table {
    let mut t = Table::new(
        "Strong scaling summary (speedup over 1 core)",
        &["matrix", "t(1 core)", "best cores", "t(best)", "speedup"],
    );
    for p in panels {
        let t1 = p
            .points
            .iter()
            .find(|(c, _, _)| *c == 1)
            .map(|(_, _, t)| *t)
            .unwrap_or(f64::NAN);
        if let Some((bc, _, bt)) = p
            .points
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
        {
            t.row(vec![
                p.name.clone(),
                fmt_secs(t1),
                bc.to_string(),
                fmt_secs(*bt),
                format!("{:.1}x", t1 / bt),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Backend sweep — one generic driver, three RcmRuntime backends
// ---------------------------------------------------------------------------

/// Run the identical generic driver on four backend configurations per
/// suite matrix: serial and pooled report measured wall time, dist at one
/// thread per process (flat MPI) and at six (hybrid MPI×OpenMP) report
/// simulated time. The `identical` column asserts the
/// bit-for-bit permutation equality the `RcmRuntime` refactor guarantees.
pub fn backend_sweep(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Backend sweep — one algebraic driver, four runtimes",
        &[
            "matrix",
            "backend",
            "config",
            "time",
            "clock",
            "BW",
            "identical",
        ],
    );
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let reference = single_shot(&a, BackendKind::Serial);
        // Measured backends.
        for (kind, config) in [
            (BackendKind::Serial, "1 thread".to_string()),
            (BackendKind::Pooled { threads: 4 }, "4 threads".to_string()),
        ] {
            let report = rcm_core::OrderingEngine::with_backend(kind).order(&a);
            let (p, dt) = (report.perm, report.wall_seconds);
            t.row(vec![
                m.name.to_string(),
                kind.name().to_string(),
                config,
                fmt_secs(dt),
                "measured".into(),
                fmt_count(ordering_bandwidth(&a, &p) as u64),
                (p == reference).to_string(),
            ]);
        }
        // Simulated backends (same core budget, flat vs 6 threads/process).
        for (name, dcfg, config) in [
            ("dist", DistRcmConfig::flat_on_edison(16), "16 ranks × 1t"),
            (
                "hybrid",
                DistRcmConfig::hybrid_on_edison(24),
                "4 ranks × 6t",
            ),
        ] {
            let r = dist_rcm(&a, &dcfg);
            t.row(vec![
                m.name.to_string(),
                name.to_string(),
                config.to_string(),
                fmt_secs(r.sim_seconds),
                "simulated".into(),
                fmt_count(ordering_bandwidth(&a, &r.perm) as u64),
                (r.perm == reference).to_string(),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Load-balance ablation (§IV-A)
// ---------------------------------------------------------------------------

/// Per-rank nnz imbalance (max/mean over the `p′` blocks of the 2D
/// decomposition) of a distributed matrix.
fn nnz_imbalance(d: &DistCscMatrix) -> f64 {
    let pr = d.grid().pr;
    let mut max = 0usize;
    let mut total = 0usize;
    for ir in 0..pr {
        for jc in 0..pr {
            let nnz = d.block(ir, jc).nnz();
            max = max.max(nnz);
            total += nnz;
        }
    }
    if total == 0 {
        1.0
    } else {
        max as f64 / (total as f64 / (pr * pr) as f64)
    }
}

/// §IV-A ablation: sweep the random load-balance relabeling's seed over the
/// suite and quantify what it buys — per-rank nnz max/mean imbalance before
/// and after, the simulated-time delta, and the (bounded) ordering-quality
/// drift the internal relabeling causes.
pub fn balance_ablation(cfg: &ExpConfig) -> Table {
    let cores = if cfg.quick { 96 } else { 216 }; // 16 / 36 ranks at 6 t/p
    let seeds: Vec<u64> = if cfg.quick {
        vec![0xBA1A]
    } else {
        vec![1, 42, 0xBA1A]
    };
    let mut t = Table::new(
        format!("Load-balance ablation (§IV-A) — {cores} cores"),
        &[
            "matrix",
            "seed",
            "imb(before)",
            "imb(after)",
            "t(before)",
            "t(after)",
            "delta",
            "BW drift",
        ],
    );
    for m in cfg.matrices() {
        let a = cfg.generate(&m);
        let base_cfg = DistRcmConfig::hybrid_on_edison(cores);
        let grid = base_cfg
            .hybrid
            .grid()
            .expect("paper core counts are square");
        let imb_before = nnz_imbalance(&DistCscMatrix::from_global(grid, &a, None));
        let plain = dist_rcm(&a, &base_cfg);
        let bw_plain = ordering_bandwidth(&a, &plain.perm);
        for &seed in &seeds {
            let imb_after = nnz_imbalance(&DistCscMatrix::from_global(grid, &a, Some(seed)));
            let mut c = base_cfg;
            c.balance_seed = Some(seed);
            let balanced = dist_rcm(&a, &c);
            let bw_balanced = ordering_bandwidth(&a, &balanced.perm);
            let delta = (balanced.sim_seconds - plain.sim_seconds) / plain.sim_seconds;
            t.row(vec![
                m.name.to_string(),
                format!("{seed:#x}"),
                format!("{imb_before:.2}"),
                format!("{imb_after:.2}"),
                fmt_secs(plain.sim_seconds),
                fmt_secs(balanced.sim_seconds),
                format!("{:+.1}%", delta * 100.0),
                format!("{bw_plain} -> {bw_balanced}"),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Real Matrix Market inputs (`repro --mtx`, first ROADMAP open item)
// ---------------------------------------------------------------------------

/// A Matrix Market input preloaded for the bench harness (`repro --mtx`).
/// Loading once at CLI-parse time both validates the file up front and
/// spares real SuiteSparse downloads (hundreds of MB of coordinate text) a
/// second parse when the table runs.
#[derive(Clone, Debug)]
pub struct MtxInput {
    /// Display name (the file stem).
    pub name: String,
    /// The symmetrized pattern.
    pub matrix: CscMatrix,
}

/// Load a Matrix Market file for the bench harness through
/// [`mm::read_symmetric_pattern_file`]: non-square input is rejected and a
/// one-sided structure is symmetrized. The error string always names the
/// offending file.
pub fn load_mtx(path: &Path) -> Result<MtxInput, String> {
    let matrix = mm::read_symmetric_pattern_file(path)
        .map_err(|e| format!("cannot load Matrix Market file {}: {e}", path.display()))?
        .matrix;
    Ok(MtxInput {
        name: path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string()),
        matrix,
    })
}

/// The Fig. 3-style bandwidth/ordering table for user-supplied `.mtx`
/// inputs (real SuiteSparse downloads), reported with the same columns the
/// synthetic suite gets: structure statistics, RCM quality, and the
/// simulated distributed runtime.
pub fn mtx_table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "Matrix Market inputs — bandwidth/ordering next to the synthetic suite",
        &[
            "matrix", "rows", "nnz", "bw-pre", "bw-post", "pdiam", "t(rcm)", "dist 24c",
        ],
    );
    for input in &cfg.mtx {
        let a = &input.matrix;
        let name = input.name.clone();
        let t0 = Instant::now();
        let perm = rcm(a);
        let dt = t0.elapsed().as_secs_f64();
        let degrees = a.degrees();
        let seed = (0..a.n_rows())
            .min_by_key(|&v| (degrees[v], v))
            .unwrap_or(0) as u32;
        let pdiam = if a.n_rows() > 0 {
            pseudo_peripheral(a, seed).eccentricity
        } else {
            0
        };
        let sim = dist_rcm(a, &DistRcmConfig::hybrid_on_edison(24));
        t.row(vec![
            name,
            fmt_count(a.n_rows() as u64),
            fmt_count(a.nnz() as u64),
            fmt_count(matrix_bandwidth(a) as u64),
            fmt_count(ordering_bandwidth(a, &perm) as u64),
            pdiam.to_string(),
            fmt_secs(dt),
            fmt_secs(sim.sim_seconds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExpConfig {
        ExpConfig {
            scale_mult: 0.1,
            results_dir: std::env::temp_dir().join("rcm-bench-test"),
            quick: true,
            mtx: Vec::new(),
        }
    }

    #[test]
    fn fig3_produces_one_row_per_matrix() {
        let t = fig3_suite_table(&quick_cfg());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn hybrid_sweep_and_derived_tables() {
        let cfg = quick_cfg();
        let panels = run_hybrid_sweep(&cfg);
        assert_eq!(panels.len(), 3);
        for p in &panels {
            assert_eq!(p.points.len(), cfg.hybrid_cores().len());
            for (_, b, total) in &p.points {
                assert!((b.total() - total).abs() < 1e-9);
            }
        }
        let f4 = fig4_breakdown(&panels);
        assert_eq!(f4.len(), 3);
        let f5 = fig5_spmspv_split(&panels);
        assert_eq!(f5.len(), 3);
        let summary = scaling_summary(&panels);
        assert_eq!(summary.len(), 3);
    }

    /// The `repro startnode` acceptance gate: on every quick-suite class
    /// and every backend, min-degree runs zero sweeps, every strategy is
    /// deterministic across backends, and the default George–Liu orderings
    /// stay bit-identical to the classical serial reference (the
    /// pre-strategy output).
    #[test]
    fn startnode_rows_are_deterministic_and_george_liu_is_classical_rcm() {
        let cfg = quick_cfg();
        let rows = startnode_measurements(&cfg);
        assert_eq!(rows.len(), 3 * 2 * 4); // classes × strategies × backends
        for row in &rows {
            assert!(
                row.deterministic,
                "{} {} {}",
                row.class, row.backend, row.strategy
            );
            if row.strategy == "min-degree" {
                assert_eq!(row.sweeps, 0, "{} {}", row.class, row.backend);
            }
        }
        // Default-strategy bit-identity with the classical serial RCM on
        // all four backends.
        for m in cfg.matrices() {
            let a = cfg.generate(&m);
            let reference = rcm(&a);
            for kind in [
                BackendKind::Serial,
                BackendKind::Pooled { threads: 4 },
                BackendKind::Dist {
                    cores: 16,
                    threads_per_proc: 1,
                },
                BackendKind::Dist {
                    cores: 24,
                    threads_per_proc: 6,
                },
            ] {
                let mut engine = rcm_core::OrderingEngine::new(
                    rcm_core::EngineConfig::builder()
                        .backend(kind)
                        .start_node(StartNode::GeorgeLiu)
                        .build(),
                );
                assert_eq!(
                    engine.order(&a).perm,
                    reference,
                    "{}: default george-liu diverged from classical RCM on {}",
                    m.name,
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn fig1_runs_quick() {
        let t = fig1_cg_solve(&quick_cfg());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn shared_scaling_runs_quick() {
        let t = shared_scaling(&quick_cfg());
        assert_eq!(t.len(), 1, "quick mode sweeps one matrix");
    }

    #[test]
    fn fig6_runs_quick() {
        let t = fig6_flat_vs_hybrid(&quick_cfg());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn backend_sweep_reports_all_four_backends_identical() {
        let t = backend_sweep(&quick_cfg());
        assert_eq!(t.len(), 3 * 4, "3 quick matrices x 4 backends");
        // Column 6 is the bit-for-bit equality flag; every row must hold.
        for row in t.rows() {
            assert_eq!(row[6], "true", "{} backend diverged on {}", row[1], row[0]);
        }
    }

    #[test]
    fn balance_ablation_runs_quick() {
        let t = balance_ablation(&quick_cfg());
        assert_eq!(t.len(), 3, "3 quick matrices x 1 seed");
    }

    #[test]
    fn direction_ablation_reports_all_backends_identical() {
        let t = direction_ablation(&quick_cfg());
        assert_eq!(t.len(), 3 * 4, "3 quick matrices x 4 backends");
        // Column 7 is the push == pull == adaptive equality flag.
        for row in t.rows() {
            assert_eq!(
                row[7], "true",
                "{} backend diverged across directions on {}",
                row[1], row[0]
            );
        }
    }

    #[test]
    fn adaptive_direction_is_never_slower_than_push_in_simulation() {
        // Calibration gate, not a structural invariant: the adaptive switch
        // is a pure count heuristic (PULL_ALPHA/PULL_BETA) and never
        // consults the cost model, so this deterministically asserts that
        // the *current* constants engage pull only where the current
        // MachineModel prices it cheaper across the quick suite. If it
        // fails after retuning the model, the thresholds, or the suite
        // scales, recalibrate PULL_ALPHA/PULL_BETA (see the ROADMAP item)
        // rather than suspecting a kernel bug.
        let cfg = quick_cfg();
        let mut strictly_faster = false;
        for name in ["nd24k", "ldoor", "Li7Nmax6"] {
            let m = suite_matrix(name).unwrap();
            let a = cfg.generate(&m);
            for base in [
                DistRcmConfig::flat_on_edison(16),
                DistRcmConfig::hybrid_on_edison(24),
            ] {
                let time = |d: ExpandDirection| {
                    let mut dcfg = base;
                    dcfg.direction = d;
                    dist_rcm(&a, &dcfg).sim_seconds
                };
                let push = time(ExpandDirection::Push);
                let adaptive = time(ExpandDirection::Adaptive);
                assert!(
                    adaptive <= push * (1.0 + 1e-9),
                    "{name}: adaptive {adaptive:.6}s slower than push {push:.6}s"
                );
                strictly_faster |= adaptive < push * 0.999;
            }
        }
        assert!(
            strictly_faster,
            "adaptive should beat push on at least one dense-frontier graph"
        );
    }

    #[test]
    fn throughput_rows_stay_bit_identical_to_fresh_engines() {
        // Every warm, batch and cold permutation must stay bit-identical to
        // a fresh engine's (checked across all four backends inside the
        // measurement). Warm against cold throughput is a reported column
        // of the table, not an assertion: the deterministic property it
        // stood for (a warm engine spawns no worker and grows no buffer
        // after its first round) is pinned next to `OrderingEngine` in the
        // engine's tests.
        let rows = throughput_measurements(&quick_cfg());
        assert_eq!(rows.len(), 3 * 2, "3 quick classes x {{serial, pooled}}");
        for row in &rows {
            assert!(
                row.identical,
                "{} ({}): engine permutations diverged from a fresh engine",
                row.matrix, row.backend
            );
        }
    }

    #[test]
    fn cached_service_rows_hit_and_stay_bit_identical() {
        // Every cached permutation must stay bit-identical to the fresh
        // single-shot ordering, and the prewarmed cache must hit on every
        // job. Cached against warm-shard throughput is a reported column of
        // the table, not an assertion: the deterministic property it stood
        // for (a cache hit never reaches a shard) is pinned next to
        // `OrderingService::submit` in the service's tests.
        let rows = service_measurements(&quick_cfg());
        assert_eq!(rows.len(), 3, "one row per quick suite class");
        for row in &rows {
            assert!(
                row.identical,
                "{}: cached service permutations diverged from fresh orderings",
                row.matrix
            );
            assert!(
                row.hit_rate > 0.9,
                "{}: prewarmed cache should hit on ~every job, got {:.2}",
                row.matrix,
                row.hit_rate
            );
            assert!(row.p50_ms <= row.p95_ms, "{}: percentile order", row.matrix);
        }
    }

    #[test]
    fn split_ordering_matches_the_sequential_driver_on_every_row() {
        // Every split ordering of a multi-component class must stay
        // bit-identical to the sequential driver on all four backends.
        // Split against sequential speed is a reported column of the
        // table, not an assertion: the deterministic property it stood for
        // (wide pooled components ordered whole, with no parallel level)
        // is pinned next to `order_split` in the engine's tests.
        let rows = component_measurements(&quick_cfg());
        assert!(rows.len() >= 6, "serial + pooled rows per class");
        for row in &rows {
            assert!(
                row.identical,
                "{} {}@{}: split ordering diverged from the sequential driver",
                row.class, row.backend, row.threads
            );
            assert!(
                row.components > 1,
                "{}: class must be multi-component",
                row.class
            );
        }
    }

    #[test]
    fn kernel_rows_agree_bit_for_bit_and_the_warm_pull_buffer_stays_flat() {
        // Every kernel must agree bit for bit (the bitmap pull with the
        // closure pull on traversed edges too), and the warm pull buffer
        // must not grow once warmed. Bitmap against closure pull ns/edge is
        // a reported column of the table, not an assertion: the
        // deterministic property it stood for (the bitmap kernel reads
        // exactly the edges the closure kernel reads) is pinned next to
        // `spmspv_pull` in the sparse crate's tests.
        let rows = kernel_measurements(&quick_cfg());
        assert_eq!(rows.len(), 3, "one row per quick suite class");
        for row in &rows {
            assert!(row.identical, "{}: kernel outputs diverged", row.matrix);
            assert_eq!(
                row.pull_growth_events, 0,
                "{}: warm pull buffer grew in steady state",
                row.matrix
            );
            assert!(row.frontier > 0 && row.pull_work > 0, "{}", row.matrix);
        }
    }

    #[test]
    fn mtx_table_reads_a_real_file() {
        let dir = std::env::temp_dir().join("rcm-bench-mtx-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("path5.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 4\n2 1\n3 2\n4 3\n5 4\n",
        )
        .unwrap();
        let mut cfg = quick_cfg();
        cfg.mtx = vec![load_mtx(&path).unwrap()];
        let t = mtx_table(&cfg);
        assert_eq!(t.len(), 1);
        let row = &t.rows()[0];
        assert_eq!(row[0], "path5");
        assert_eq!(row[4], "1", "RCM must make a path tridiagonal");
    }

    #[test]
    fn load_mtx_error_names_the_file() {
        let err = load_mtx(Path::new("/nonexistent/rcm-test.mtx")).unwrap_err();
        assert!(err.contains("/nonexistent/rcm-test.mtx"), "{err}");
    }
}
