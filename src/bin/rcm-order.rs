//! `rcm-order` — command-line matrix reordering tool.
//!
//! ```text
//! rcm-order <input.mtx | suite:NAME> [<input2.mtx> ...] [options]
//!
//! options:
//!   --method <rcm|cm|sloan|nosort|globalsort>   ordering heuristic (default rcm)
//!   --backend <serial|pooled|dist|hybrid>       RcmRuntime backend for --method rcm
//!                          (pooled uses --threads workers; dist runs 16
//!                          simulated ranks, hybrid 24 cores x 6 t/p — all
//!                          bit-identical, parity with `repro backends`)
//!   --compress             order through supervariable compression
//!                          (--method rcm only, not composable with
//!                          --backend, --start-node or a set
//!                          RCM_START_NODE — the quotient pipeline is
//!                          sequential George-Liu; reports the ratio)
//!   --cache                give the warm engine a pattern-fingerprint
//!                          ordering cache (--method rcm only): repeated
//!                          patterns across the input list are served in
//!                          O(nnz) hash time, each summary line reports
//!                          cache hit/miss, and a multi-input run prints
//!                          the cache totals at the end
//!   --start-node <s>       start-node selection strategy for --method rcm:
//!                          george-liu (default), min-degree (zero sweeps),
//!                          or fixed:N / a bare vertex number; overrides
//!                          RCM_START_NODE (not composable with --compress)
//!   --split-components     schedule connected components as independent
//!                          ordering jobs (--method rcm only, not
//!                          composable with --compress): detect, order
//!                          each piece on the configured backend, stitch —
//!                          bit-identical to the whole-matrix driver; the
//!                          summary line reports the component count
//!   --scale <f>            suite generation scale, a positive finite
//!                          number (suite: inputs only)
//!   --write-perm <file>    write the permutation (one new label per line)
//!   --write-matrix <file>  write the reordered matrix in Matrix Market form
//!   --simulate <cores,..>  also run the simulated distributed RCM
//!   --threads <t>          threads/process for the simulation and for
//!                          --backend pooled; overrides RCM_THREADS
//!                          (default: first entry of RCM_THREADS, else 6)
//! ```
//!
//! Inputs are Matrix Market files; `suite:ldoor` style names generate the
//! corresponding synthetic stand-in instead. **Multiple inputs are ordered
//! through one warm `OrderingEngine`** — backend construction, worker
//! threads, and workspaces are paid once for the whole invocation. All
//! inputs are loaded up front; the first bad file aborts with exit code 2
//! naming it. `--write-perm`/`--write-matrix` require exactly one input.
//!
//! Without `--start-node`, the start-node strategy follows `RCM_START_NODE`
//! when it is set; a value that names no strategy exits 2 naming the
//! variable. The frontier-expansion direction follows `RCM_DIRECTION`
//! (push|pull|adaptive, default adaptive); every setting produces the
//! identical ordering.

use distributed_rcm::core::driver::StartNode;
use distributed_rcm::core::{
    cuthill_mckee, rcm_globalsort, rcm_nosort, thread_counts_from_env, CacheOutcome, EngineConfig,
    OrderingEngine,
};
use distributed_rcm::dist::HybridConfig;
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::mm;

struct Options {
    inputs: Vec<String>,
    method: String,
    backend: Option<String>,
    compress: bool,
    cache: bool,
    split: bool,
    /// The start-node strategy, resolved once: `--start-node`, else a set
    /// `RCM_START_NODE`, else George–Liu.
    start_node: StartNode,
    start_node_from: StartNodeFrom,
    scale: Option<f64>,
    write_perm: Option<String>,
    write_matrix: Option<String>,
    simulate: Vec<usize>,
    threads: usize,
}

/// What chose [`Options::start_node`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum StartNodeFrom {
    Default,
    Flag,
    Env,
}

fn usage() -> ! {
    eprintln!(
        "usage: rcm-order <input.mtx | suite:NAME> [<input2> ...]\n\
         \x20                [--method rcm|cm|sloan|nosort|globalsort]\n\
         \x20                [--backend serial|pooled|dist|hybrid] [--compress] [--cache]\n\
         \x20                [--split-components]\n\
         \x20                [--start-node george-liu|min-degree|fixed:N]\n\
         \x20                [--scale f] [--write-perm FILE] [--write-matrix FILE]\n\
         \x20                [--simulate CORES,CORES,...] [--threads T]\n\
         --compress orders with George-Liu: it rejects --start-node and RCM_START_NODE"
    );
    std::process::exit(2);
}

/// Thread-count default: the first entry of `RCM_THREADS` when set (the
/// same environment knob the test sweeps use), else 6. An explicit
/// `--threads` always overrides it.
fn default_threads() -> usize {
    thread_counts_from_env(&[6])[0]
}

/// A core or thread count: a positive integer, `None` otherwise.
fn positive(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&k| k > 0)
}

/// A generation scale: a positive finite number, `None` otherwise.
fn positive_scale(s: &str) -> Option<f64> {
    s.parse().ok().filter(|&x: &f64| x.is_finite() && x > 0.0)
}

fn parse_args() -> Options {
    let mut opts = Options {
        inputs: Vec::new(),
        method: "rcm".into(),
        backend: None,
        compress: false,
        cache: false,
        split: false,
        start_node: StartNode::GeorgeLiu,
        start_node_from: StartNodeFrom::Default,
        scale: None,
        write_perm: None,
        write_matrix: None,
        simulate: Vec::new(),
        threads: default_threads(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--method" => opts.method = args.next().unwrap_or_else(|| usage()),
            "--backend" => opts.backend = Some(args.next().unwrap_or_else(|| usage())),
            "--compress" => opts.compress = true,
            "--cache" => opts.cache = true,
            "--split-components" => opts.split = true,
            "--start-node" => {
                let spec = args.next().unwrap_or_else(|| usage());
                opts.start_node = parse_start_node(&spec, "");
                opts.start_node_from = StartNodeFrom::Flag;
            }
            "--scale" => {
                opts.scale = Some(
                    args.next()
                        .and_then(|s| positive_scale(&s))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--write-perm" => opts.write_perm = Some(args.next().unwrap_or_else(|| usage())),
            "--write-matrix" => opts.write_matrix = Some(args.next().unwrap_or_else(|| usage())),
            "--simulate" => {
                let list = args.next().unwrap_or_else(|| usage());
                opts.simulate = list
                    .split(',')
                    .map(|s| positive(s.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|s| positive(&s))
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => opts.inputs.push(other.to_string()),
        }
    }
    if opts.inputs.is_empty() {
        usage();
    }
    if opts.start_node_from == StartNodeFrom::Default {
        if let Some(spec) = std::env::var_os("RCM_START_NODE") {
            let spec = spec.to_string_lossy();
            opts.start_node =
                parse_start_node(&spec, " in the RCM_START_NODE environment variable");
            opts.start_node_from = StartNodeFrom::Env;
        }
    }
    opts
}

/// A start-node strategy spec, or exit 2 naming it and where it came from.
fn parse_start_node(spec: &str, origin: &str) -> StartNode {
    StartNode::parse(spec).unwrap_or_else(|| {
        eprintln!(
            "unknown start-node strategy {spec}{origin}: valid strategies are \
             george-liu|min-degree|fixed:N"
        );
        std::process::exit(2);
    })
}

fn load(name: &str, opts: &Options) -> CscMatrix {
    if let Some(suite_name) = name.strip_prefix("suite:") {
        let m = suite_matrix(suite_name).unwrap_or_else(|| {
            eprintln!("unknown suite matrix {suite_name}");
            std::process::exit(2);
        });
        return m.generate(opts.scale.unwrap_or(m.default_scale));
    }
    // Unknown paths, malformed Matrix Market input and non-square matrices
    // are usage errors: exit 2 with a message naming the file, never a
    // panic.
    let input = mm::read_symmetric_pattern_file(name).unwrap_or_else(|e| {
        eprintln!("cannot load Matrix Market file {name}: {e}");
        std::process::exit(2);
    });
    if input.symmetrized {
        eprintln!("note: symmetrizing structurally unsymmetric input (A + Aᵀ)");
    }
    input.matrix
}

fn main() {
    let opts = parse_args();
    if (opts.write_perm.is_some() || opts.write_matrix.is_some()) && opts.inputs.len() > 1 {
        eprintln!(
            "--write-perm/--write-matrix apply to a single input (got {})",
            opts.inputs.len()
        );
        std::process::exit(2);
    }

    // --backend picks the RcmRuntime executing the generic algebraic
    // driver (parity with `repro backends`); the ordering is bit-identical
    // across all of them, so it composes only with the rcm method.
    // `hybrid` is the dist backend at 6 threads per process.
    let backend_kind = opts.backend.as_deref().map(|name| match name {
        "serial" => BackendKind::Serial,
        "pooled" => BackendKind::Pooled {
            threads: opts.threads,
        },
        "dist" => BackendKind::Dist {
            cores: 16,
            threads_per_proc: 1,
        },
        "hybrid" => BackendKind::Dist {
            cores: 24,
            threads_per_proc: 6,
        },
        other => {
            eprintln!("unknown backend {other}: valid backends are serial|pooled|dist|hybrid");
            std::process::exit(2);
        }
    });
    if backend_kind.is_some() && opts.method != "rcm" {
        eprintln!(
            "--backend applies only to --method rcm (got {}): the other heuristics \
             have no RcmRuntime formulation",
            opts.method
        );
        std::process::exit(2);
    }
    if opts.compress && opts.method != "rcm" {
        eprintln!(
            "--compress applies only to --method rcm (got {}): compression wraps the \
             RCM pipeline",
            opts.method
        );
        std::process::exit(2);
    }
    if opts.compress && backend_kind.is_some() {
        eprintln!(
            "--compress does not compose with --backend: the compressed quotient is \
             ordered by the sequential George-Liu pipeline"
        );
        std::process::exit(2);
    }
    if opts.compress && opts.start_node_from == StartNodeFrom::Flag {
        eprintln!(
            "--compress does not compose with --start-node: the compressed quotient is \
             ordered by the sequential George-Liu pipeline"
        );
        std::process::exit(2);
    }
    if opts.compress && opts.start_node_from == StartNodeFrom::Env {
        eprintln!(
            "--compress does not compose with the RCM_START_NODE environment variable: \
             the compressed quotient is ordered by the sequential George-Liu pipeline \
             (unset RCM_START_NODE)"
        );
        std::process::exit(2);
    }
    if opts.cache && opts.method != "rcm" {
        eprintln!(
            "--cache applies only to --method rcm (got {}): the pattern cache lives \
             in the warm ordering engine",
            opts.method
        );
        std::process::exit(2);
    }
    if opts.split && opts.method != "rcm" {
        eprintln!(
            "--split-components applies only to --method rcm (got {}): component \
             scheduling lives in the warm ordering engine",
            opts.method
        );
        std::process::exit(2);
    }
    if opts.start_node_from == StartNodeFrom::Flag && opts.method != "rcm" {
        eprintln!(
            "--start-node applies only to --method rcm (got {}): the other heuristics \
             pick their own start vertices",
            opts.method
        );
        std::process::exit(2);
    }
    if opts.split && opts.compress {
        eprintln!(
            "--split-components does not compose with --compress: the quotient \
             pipeline has its own traversal"
        );
        std::process::exit(2);
    }

    // Load every input up front so the first bad file aborts before any
    // ordering work (exit 2, naming the file).
    let matrices: Vec<(String, CscMatrix)> = opts
        .inputs
        .iter()
        .map(|name| (name.clone(), load(name, &opts)))
        .collect();

    // One warm engine serves every input of the invocation.
    let mut engine = (opts.method == "rcm").then(|| {
        let mut builder = EngineConfig::builder()
            .backend(backend_kind.unwrap_or(BackendKind::Serial))
            .compress(opts.compress)
            .split_components(opts.split)
            .start_node(opts.start_node);
        if opts.cache {
            builder = builder.cache(CacheConfig::default());
        }
        OrderingEngine::new(builder.build())
    });

    for (idx, (name, a)) in matrices.iter().enumerate() {
        if idx > 0 {
            println!();
        }
        println!(
            "{name}: {} rows, {} nnz, avg degree {:.1}",
            a.n_rows(),
            a.nnz(),
            a.nnz() as f64 / a.n_rows().max(1) as f64
        );

        let mut engine_report = None;
        let mut method_perm = None;
        match engine.as_mut() {
            Some(engine) => engine_report = Some(engine.order(a)),
            None => {
                let t0 = std::time::Instant::now();
                let perm = match opts.method.as_str() {
                    "cm" => cuthill_mckee(a).0,
                    "sloan" => sloan(a),
                    "nosort" => rcm_nosort(a),
                    "globalsort" => rcm_globalsort(a),
                    other => {
                        eprintln!("unknown method {other}");
                        usage();
                    }
                };
                println!("{} ordering computed in {:?}", opts.method, t0.elapsed());
                method_perm = Some(perm);
            }
        };
        let perm = engine_report
            .as_ref()
            .map(|r| &r.perm)
            .or(method_perm.as_ref())
            .expect("one of the branches produced a permutation");

        let q = quality_report(a, perm);
        if let Some(report) = &engine_report {
            let cache_note = match report.cache {
                Some(CacheOutcome::Hit) => ", cache hit",
                Some(CacheOutcome::Miss) => ", cache miss",
                None => "",
            };
            match backend_kind {
                Some(kind) => println!(
                    "rcm ordering computed in {:.3}ms on the {} backend (warm engine{cache_note})",
                    report.wall_seconds * 1e3,
                    kind.name()
                ),
                None => println!(
                    "rcm ordering computed in {:.3}ms (warm engine{cache_note})",
                    report.wall_seconds * 1e3
                ),
            }
            if let Some(c) = &report.compress {
                println!(
                    "  compression: {} vertices -> {} supervariables (ratio {:.2})",
                    c.vertices, c.supervariables, c.ratio
                );
            }
            if opts.split {
                println!(
                    "  components: {} (scheduled as independent jobs)",
                    report.stats.components
                );
            }
            if let Some(p) = report.peripheral_first() {
                println!(
                    "  peripheral: {} strategy, {} sweep(s), start vertex {}, eccentricity {}",
                    opts.start_node.name(),
                    report.peripheral_sweeps(),
                    p.start,
                    p.eccentricity
                );
            }
        }
        println!(
            "  bandwidth: {} -> {}",
            q.bandwidth_before, q.bandwidth_after
        );
        println!("  profile:   {} -> {}", q.profile_before, q.profile_after);
        println!(
            "  wavefront: max {}, rms {:.1}",
            q.max_wavefront, q.rms_wavefront
        );

        if let Some(path) = &opts.write_perm {
            let mut text = String::with_capacity(perm.len() * 8);
            for v in 0..perm.len() {
                text.push_str(&perm.new_of(v as u32).to_string());
                text.push('\n');
            }
            // An unwritable output path is a usage error like an unreadable
            // input: exit 2 naming the path, never a panic.
            std::fs::write(path, text).unwrap_or_else(|e| {
                eprintln!("cannot write permutation to {path}: {e}");
                std::process::exit(2);
            });
            println!("wrote permutation to {path}");
        }
        if let Some(path) = &opts.write_matrix {
            mm::write_pattern_file(&a.permute_sym(perm), path).unwrap_or_else(|e| {
                eprintln!("cannot write reordered matrix to {path}: {e}");
                std::process::exit(2);
            });
            println!("wrote reordered matrix to {path}");
        }

        if !opts.simulate.is_empty() {
            println!(
                "\nsimulated distributed RCM (Edison model, {} threads/process):",
                opts.threads
            );
            println!(
                "{:>8} {:>6} {:>12} {:>12} {:>10}",
                "cores", "grid", "compute", "comm", "total"
            );
            for &cores in &opts.simulate {
                let cfg = DistRcmConfig {
                    machine: MachineModel::edison(),
                    hybrid: HybridConfig::new(cores, opts.threads),
                    balance_seed: Some(1),
                    sort_mode: SortMode::Full,
                    direction: ExpandDirection::from_env(),
                    start_node: opts.start_node,
                };
                if cfg.hybrid.grid().is_none() {
                    println!(
                        "{cores:>8}  (skipped: {} processes is not a square)",
                        cfg.hybrid.nprocs()
                    );
                    continue;
                }
                let r = dist_rcm(a, &cfg);
                println!(
                    "{:>8} {:>4}x{:<2} {:>11.4}s {:>11.4}s {:>9.4}s",
                    cores,
                    r.grid_side,
                    r.grid_side,
                    r.breakdown.compute_total(),
                    r.breakdown.comm_total(),
                    r.sim_seconds
                );
            }
        }
    }

    // Multi-input cache totals: how much of the invocation was served
    // from the pattern cache.
    if matrices.len() > 1 {
        if let Some(stats) = engine.as_ref().and_then(|e| e.cache_stats()) {
            println!(
                "\ncache: {} hits, {} misses, {} entries ({} nnz stored)",
                stats.hits, stats.misses, stats.entries, stats.stored_nnz
            );
        }
    }
}
