//! `repro` — regenerate the tables and figures of Azad et al. (IPDPS 2017).
//!
//! ```text
//! repro [--scale <mult>] [--quick] [--out <dir>] [--mtx <file.mtx>]... <experiment>...
//!
//! experiments:
//!   fig1       CG+block-Jacobi solve time, natural vs RCM ordering
//!   fig3       matrix-suite statistics table
//!   table2     shared-memory baseline vs distributed runtime
//!   scaling    shared-memory strong scaling at 1/2/4/8/16 threads
//!   fig4       distributed runtime breakdown (per matrix, per core count)
//!   fig5       SpMSpV computation vs communication split
//!   fig6       flat MPI vs hybrid breakdown on ldoor
//!   ablation   sorting-strategy ablation (§VI future work)
//!   direction  push/pull/adaptive frontier-expansion ablation
//!   backends   one generic driver on serial, pooled, flat and hybrid dist
//!   balance    load-balance permutation ablation (§IV-A)
//!   throughput warm OrderingEngine vs cold per-call orderings/sec
//!   service    closed-loop OrderingService: cold vs warm shards vs pattern cache
//!   kernels    per-edge / per-element kernel microbenchmarks
//!   components component-parallel split+schedule+stitch vs the sequential driver
//!   startnode  start-node strategy ablation: george-liu vs min-degree
//!   all        everything above
//! ```
//!
//! `--mtx <file.mtx>` (repeatable) loads real Matrix Market inputs —
//! symmetrized on read — and emits their bandwidth/ordering table next to
//! the synthetic suite. A missing or malformed file aborts the run with
//! exit code 2 and a message naming it.
//!
//! Tables print to stdout and are written as CSV **and JSON** under the
//! output directory (default `results/`), plus a `repro_summary.json`
//! manifest — the artifact CI's bench-smoke job uploads per PR.

use rcm_bench::report::json_str;
use rcm_bench::{
    ablation_sort_modes, backend_sweep, balance_ablation, components_table, compression_table,
    direction_ablation, fig1_cg_solve, fig3_suite_table, fig4_breakdown, fig5_spmspv_split,
    fig6_flat_vs_hybrid, gather_vs_distributed, kernels_table, load_mtx, machine_sensitivity,
    mtx_table, quality_comparison, run_hybrid_sweep, scaling_summary, service_table,
    shared_scaling, startnode_table, table2_shared_memory, throughput_table, ExpConfig, Table,
};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale <mult>] [--quick] [--out <dir>] [--mtx <file.mtx>]... \
         <fig1|fig3|table2|scaling|fig4|fig5|fig6|ablation|direction|backends|balance|quality\
         |gather|sensitivity|compress|throughput|service|kernels|components|startnode|all>..."
    );
    std::process::exit(2);
}

/// One manifest entry: table name and its row count.
struct Emitted {
    name: String,
    rows: usize,
}

/// Render, write CSV + JSON, and record the table in the manifest — only
/// if both files landed, so the manifest never references missing files.
/// Returns false on any write failure (the run then exits non-zero).
fn emit(cfg: &ExpConfig, manifest: &mut Vec<Emitted>, name: &str, table: &Table) -> bool {
    println!("{}", table.render());
    let csv_ok = match table.write_csv(&cfg.results_dir, name) {
        Ok(path) => {
            println!("[csv] {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("[csv] failed to write {name}: {e}");
            false
        }
    };
    let json_ok = match table.write_json(&cfg.results_dir, name) {
        Ok(path) => {
            println!("[json] {}\n", path.display());
            true
        }
        Err(e) => {
            eprintln!("[json] failed to write {name}: {e}");
            false
        }
    };
    if csv_ok && json_ok {
        manifest.push(Emitted {
            name: name.to_string(),
            rows: table.len(),
        });
    }
    csv_ok && json_ok
}

/// Write `repro_summary.json`: run configuration plus every table emitted.
fn write_summary(cfg: &ExpConfig, manifest: &[Emitted]) -> std::io::Result<std::path::PathBuf> {
    let mut body = String::from("{");
    body.push_str(&format!(
        "\"scale_mult\":{},\"quick\":{},\"tables\":[",
        cfg.scale_mult, cfg.quick
    ));
    for (i, e) in manifest.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"name\":{},\"rows\":{},\"csv\":{},\"json\":{}}}",
            json_str(&e.name),
            e.rows,
            json_str(&format!("{}.csv", e.name)),
            json_str(&format!("{}.json", e.name)),
        ));
    }
    body.push_str("]}");
    std::fs::create_dir_all(&cfg.results_dir)?;
    let path = cfg.results_dir.join("repro_summary.json");
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let mut cfg = ExpConfig::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                // A positive finite multiplier; anything else would panic
                // in the generators instead of printing the usage.
                let v = args.next().unwrap_or_else(|| usage());
                cfg.scale_mult = v
                    .parse()
                    .ok()
                    .filter(|&x: &f64| x.is_finite() && x > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                cfg.results_dir = args.next().unwrap_or_else(|| usage()).into();
            }
            "--mtx" => {
                let path: std::path::PathBuf = args.next().unwrap_or_else(|| usage()).into();
                // Load up front: a bad path must abort with a clear message
                // naming the file (exit 2), not surface mid-run or panic —
                // and big SuiteSparse files get parsed exactly once.
                match load_mtx(&path) {
                    Ok(input) => cfg.mtx.push(input),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--quick" => cfg.quick = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() && cfg.mtx.is_empty() {
        usage();
    }
    // Reject typos up front: a silently-ignored name would let the CI
    // bench-smoke gate pass while measuring nothing.
    const KNOWN: [&str; 21] = [
        "fig1",
        "fig3",
        "table2",
        "scaling",
        "fig4",
        "fig5",
        "fig6",
        "ablation",
        "direction",
        "backends",
        "balance",
        "quality",
        "gather",
        "sensitivity",
        "compress",
        "throughput",
        "service",
        "kernels",
        "components",
        "startnode",
        "all",
    ];
    for w in &wanted {
        if !KNOWN.contains(&w.as_str()) {
            eprintln!("unknown experiment: {w}");
            usage();
        }
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    println!(
        "# distributed-rcm reproduction (scale multiplier {}, {} mode)\n",
        cfg.scale_mult,
        if cfg.quick { "quick" } else { "full" }
    );

    let mut manifest: Vec<Emitted> = Vec::new();
    let mut ok = true;
    if want("fig3") {
        ok &= emit(&cfg, &mut manifest, "fig3_suite", &fig3_suite_table(&cfg));
    }
    if want("fig1") {
        ok &= emit(&cfg, &mut manifest, "fig1_cg", &fig1_cg_solve(&cfg));
    }
    if want("table2") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "table2_shared",
            &table2_shared_memory(&cfg),
        );
    }
    if want("scaling") {
        ok &= emit(&cfg, &mut manifest, "shared_scaling", &shared_scaling(&cfg));
    }
    if want("fig4") || want("fig5") {
        let panels = run_hybrid_sweep(&cfg);
        if want("fig4") {
            for (panel, t) in panels.iter().zip(fig4_breakdown(&panels)) {
                ok &= emit(&cfg, &mut manifest, &format!("fig4_{}", panel.name), &t);
            }
            ok &= emit(
                &cfg,
                &mut manifest,
                "fig4_summary",
                &scaling_summary(&panels),
            );
        }
        if want("fig5") {
            for (panel, t) in panels.iter().zip(fig5_spmspv_split(&panels)) {
                ok &= emit(&cfg, &mut manifest, &format!("fig5_{}", panel.name), &t);
            }
        }
    }
    if want("fig6") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "fig6_flat_mpi",
            &fig6_flat_vs_hybrid(&cfg),
        );
    }
    if want("ablation") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "ablation_sort",
            &ablation_sort_modes(&cfg),
        );
    }
    if want("direction") {
        ok &= emit(&cfg, &mut manifest, "direction", &direction_ablation(&cfg));
    }
    if want("backends") {
        ok &= emit(&cfg, &mut manifest, "backend_sweep", &backend_sweep(&cfg));
    }
    if want("balance") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "balance_ablation",
            &balance_ablation(&cfg),
        );
    }
    if !cfg.mtx.is_empty() {
        // Real inputs ride along with whatever experiments were selected.
        ok &= emit(&cfg, &mut manifest, "mtx_suite", &mtx_table(&cfg));
    }
    if want("quality") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "quality_heuristics",
            &quality_comparison(&cfg),
        );
    }
    if want("gather") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "gather_vs_dist",
            &gather_vs_distributed(&cfg),
        );
    }
    if want("sensitivity") {
        ok &= emit(
            &cfg,
            &mut manifest,
            "machine_sensitivity",
            &machine_sensitivity(&cfg),
        );
    }
    if want("compress") {
        ok &= emit(&cfg, &mut manifest, "compression", &compression_table(&cfg));
    }
    if want("throughput") {
        ok &= emit(&cfg, &mut manifest, "throughput", &throughput_table(&cfg));
    }
    if want("service") {
        ok &= emit(&cfg, &mut manifest, "service", &service_table(&cfg));
    }
    if want("kernels") {
        ok &= emit(&cfg, &mut manifest, "kernels", &kernels_table(&cfg));
    }
    if want("components") {
        ok &= emit(&cfg, &mut manifest, "components", &components_table(&cfg));
    }
    if want("startnode") {
        ok &= emit(&cfg, &mut manifest, "startnode", &startnode_table(&cfg));
    }
    match write_summary(&cfg, &manifest) {
        Ok(path) => println!("[summary] {}", path.display()),
        Err(e) => {
            eprintln!("[summary] failed: {e}");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
