//! Seeded inputs. Every matrix is generated from the run's `--seed` before
//! any timing starts, and its vertex numbering is shuffled with a seed
//! derived from it (`graphgen::shuffled`), the way real meshes arrive.

use distributed_rcm::graphgen::{erdos_renyi_connected, forest, shuffled, suite_matrix};
use distributed_rcm::sparse::CscMatrix;
use std::io::Write;
use std::path::Path;

/// ldoor-class mesh: ~48k rows, ~2.3M stored nonzeros.
pub const MESH: (&str, f64) = ("ldoor", 0.05);
/// Li7Nmax6-class: short diameter, wide frontiers.
pub const DENSE: (&str, f64) = ("Li7Nmax6", 0.02);
/// nlpkkt240-class: low degree, long diameter.
pub const KKT: (&str, f64) = ("nlpkkt240", 0.0008);
/// Forest of many small trees: (trees, vertices per tree).
pub const FOREST: (usize, usize) = (1600, 10);

/// SplitMix64: a small deterministic generator for seeds and stream choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A seed for one named input, derived from the run seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// A suite class at `scale`, renumbered with `seed`.
pub fn suite_shuffled((class, scale): (&str, f64), seed: u64) -> CscMatrix {
    let m = suite_matrix(class).expect("suite class exists");
    shuffled(&m.generate_natural(scale), seed)
}

/// The mesh `cli_mtx`, `engine_shapes` and the pooled trace share for one
/// seed.
pub fn mesh(seed: u64) -> CscMatrix {
    suite_shuffled(MESH, derive(seed, 1))
}

/// The four `engine_shapes` matrices, named.
pub fn shapes(seed: u64) -> Vec<(&'static str, CscMatrix)> {
    vec![
        ("mesh", mesh(seed)),
        ("dense", suite_shuffled(DENSE, derive(seed, 2))),
        ("kkt", suite_shuffled(KKT, derive(seed, 3))),
        ("forest", forest(FOREST.0, FOREST.1, derive(seed, 4))),
    ]
}

/// Write `a` (structurally symmetric) as a `coordinate pattern symmetric`
/// Matrix Market file: the lower triangle, diagonal included. Returns the
/// file size in bytes.
pub fn write_symmetric_mtx(a: &CscMatrix, path: &Path) -> std::io::Result<u64> {
    let lower = (0..a.n_cols())
        .map(|c| a.col(c).iter().filter(|&&r| r as usize >= c).count())
        .sum::<usize>();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    writeln!(w, "{} {} {}", a.n_rows(), a.n_cols(), lower)?;
    for c in 0..a.n_cols() {
        for &r in a.col(c).iter().filter(|&&r| r as usize >= c) {
            writeln!(w, "{} {}", r + 1, c + 1)?;
        }
    }
    w.flush()?;
    drop(w);
    Ok(std::fs::metadata(path)?.len())
}

// ---------------------------------------------------------------------------
// service_stream
// ---------------------------------------------------------------------------

/// The hot set: suite-class patterns of 0.2–0.6M nonzeros.
pub const HOT: [(&str, f64); 6] = [
    ("ldoor", 0.01),
    ("Serena", 0.01),
    ("audikw_1", 0.006),
    ("dielFilterV3real", 0.005),
    ("nd24k", 0.02),
    ("thermal2", 0.06),
];
/// Fresh renumberings per hot class, drawn on misses.
pub const COLD_PER_CLASS: usize = 2;
/// Share of arrivals that repeat a hot pattern.
pub const P_HOT: f64 = 0.80;
/// Share of arrivals that draw a renumbered (cold) pattern.
pub const P_COLD: f64 = 0.13;
/// Chance a cold arrival is submitted twice back to back.
pub const P_TWIN: f64 = 0.3;
/// Small patterns per burst (all under the 256-row batch cutover).
pub const BURST: (usize, usize) = (4, 6);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
    Small,
}

/// A seeded request list: distinct patterns plus `(due offset s, pattern)`
/// arrivals in due order.
pub struct Stream {
    pub patterns: Vec<CscMatrix>,
    pub kinds: Vec<Kind>,
    pub arrivals: Vec<(f64, usize)>,
    /// Stored nonzeros of the hot set.
    pub hot_nnz: usize,
    /// Stored nonzeros of every distinct pattern in the list.
    pub distinct_nnz: usize,
}

impl Stream {
    /// Arrivals at Poisson rate `rate` (arrival events per second) for
    /// `duration` seconds. Each event is a hot repeat, a cold pattern
    /// (sometimes twice), or a burst of fresh small patterns.
    pub fn generate(seed: u64, duration: f64, rate: f64) -> Stream {
        let mut patterns = Vec::new();
        let mut kinds = Vec::new();
        let mut cold = Vec::new();
        for (k, &class) in HOT.iter().enumerate() {
            let m = suite_matrix(class.0).expect("suite class exists");
            let natural = m.generate_natural(class.1);
            for copy in 0..=COLD_PER_CLASS {
                let renumbered = shuffled(&natural, derive(seed, 100 + (k * 8 + copy) as u64));
                if copy == 0 {
                    kinds.push(Kind::Hot);
                } else {
                    kinds.push(Kind::Cold);
                    cold.push(patterns.len());
                }
                patterns.push(renumbered);
            }
        }
        let hot: Vec<usize> = (0..patterns.len())
            .filter(|&i| kinds[i] == Kind::Hot)
            .collect();
        let mut rng = Rng::new(derive(seed, 99));
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= duration {
                break;
            }
            let r = rng.unit();
            if r < P_HOT {
                arrivals.push((t, hot[rng.range(0, hot.len() - 1)]));
            } else if r < P_HOT + P_COLD {
                let p = cold[rng.range(0, cold.len() - 1)];
                arrivals.push((t, p));
                if rng.unit() < P_TWIN {
                    arrivals.push((t, p));
                }
            } else {
                for _ in 0..rng.range(BURST.0, BURST.1) {
                    let n = rng.range(64, 250);
                    let small = erdos_renyi_connected(n, 2 * n, rng.next_u64());
                    arrivals.push((t, patterns.len()));
                    patterns.push(small);
                    kinds.push(Kind::Small);
                }
            }
        }
        let hot_nnz = hot.iter().map(|&i| patterns[i].nnz()).sum();
        let distinct_nnz = patterns.iter().map(CscMatrix::nnz).sum();
        Stream {
            patterns,
            kinds,
            arrivals,
            hot_nnz,
            distinct_nnz,
        }
    }

    /// The shared cache bound: the hot set plus room for about eight cold
    /// patterns — above the hot set, below the distinct total, so LRU
    /// eviction runs, mostly on cold and small entries.
    pub fn cache_bound(&self) -> usize {
        self.hot_nnz + self.hot_nnz / HOT.len() * 8
    }
}
