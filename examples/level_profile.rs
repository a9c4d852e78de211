//! Visualize the level-synchronous execution of distributed RCM: frontier
//! width and simulated time per BFS level.
//!
//! This is the picture behind the paper's diameter argument (§I, §V-D):
//! high-diameter matrices have many thin levels, so per-level latency (α·√p
//! for SpMSpV, α·p for SORTPERM) dominates and scaling stalls; low-diameter
//! matrices have few fat levels and keep scaling.
//!
//! ```text
//! cargo run --release --example level_profile [matrix] [cores]
//! ```

use distributed_rcm::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("ldoor");
    let cores: usize = args
        .get(2)
        .map(|s| s.parse().expect("cores must be an integer"))
        .unwrap_or(216);

    let m = suite_matrix(name).expect("unknown suite matrix");
    let a = m.generate(m.default_scale);
    let cfg = DistRcmConfig::hybrid_on_edison(cores);
    let r = dist_rcm(&a, &cfg);

    println!(
        "{}: {} rows, {} levels on {} cores ({}x{} grid)\n",
        m.name,
        a.n_rows(),
        r.stats.level_stats.len(),
        cores,
        r.grid_side,
        r.grid_side
    );
    let max_frontier = r
        .stats
        .level_stats
        .iter()
        .map(|l| l.frontier)
        .max()
        .unwrap_or(1);
    println!(
        "{:>6} {:>10} {:>10} {:>5}  frontier width",
        "level", "vertices", "time", "dir"
    );
    // Print at most ~40 representative levels.
    let step = (r.stats.level_stats.len() / 40).max(1);
    for (k, stat) in r.stats.level_stats.iter().enumerate() {
        if k % step != 0 && k != r.stats.level_stats.len() - 1 {
            continue;
        }
        let bar = "#".repeat((stat.frontier * 40 / max_frontier).max(1));
        println!(
            "{:>6} {:>10} {:>9.1}us {:>5}  {}",
            k,
            stat.frontier,
            stat.seconds * 1e6,
            stat.direction.name(),
            bar
        );
    }
    let total: f64 = r.stats.level_stats.iter().map(|l| l.seconds).sum();
    println!(
        "\nordering pass: {:.4}s across {} levels (total run {:.4}s, {} peripheral BFS, \
         {} pull / {} push expansions)",
        total,
        r.stats.level_stats.len(),
        r.sim_seconds,
        r.stats.peripheral_bfs,
        r.stats.pull_expands,
        r.stats.push_expands
    );
}
