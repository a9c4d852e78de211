//! Shared pieces of the `perfbench` binaries: arguments, seeded inputs,
//! the output checker, summary statistics, the span recorder, and the
//! result line.
//!
//! Everything here uses only the stable public surface (`rcm-order`, `mm`,
//! `CscMatrix`, `OrderingEngine`, `OrderingService`, `quality_report`,
//! graphgen and `rcm()`); the `RcmRuntime` probe lives in its own binary.

pub mod inputs;
pub mod sys;
pub mod trace;

use distributed_rcm::sparse::Permutation;
use std::cell::Cell;
use std::path::PathBuf;

/// Workloads runnable by name; `BENCHMARK.json` gates the first two.
pub const WORKLOADS: [&str; 3] = ["cli_mtx", "engine_shapes", "service_stream"];

/// Repetitions of construct-and-serve-one-request behind `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments shared by both binaries.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rcm-order` binary the `cli_mtx` requests spawn.
    pub rcm_order: PathBuf,
    /// Directory for generated inputs, request outputs and trace files.
    pub work: PathBuf,
    /// Corrupt the first permutation checked (self-test).
    pub corrupt: bool,
    /// Generator lag (p95, ms) above which a `service_stream` run is flagged.
    pub lag_limit_ms: f64,
    pub rustc: String,
    pub commit: String,
}

impl Args {
    pub fn parse() -> Args {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            rcm_order: PathBuf::new(),
            work: PathBuf::from("."),
            corrupt: false,
            lag_limit_ms: 50.0,
            rustc: "unknown".into(),
            commit: "unknown".into(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            let bad = |what: &str| -> ! { usage(&format!("bad {what}: {value}")) };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad("seed")),
                "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad("seconds")),
                "--trace" => args.trace = value == "1",
                "--rcm-order" => args.rcm_order = PathBuf::from(&value),
                "--work" => args.work = PathBuf::from(&value),
                "--corrupt" => args.corrupt = value == "1",
                "--lag-limit-ms" => {
                    args.lag_limit_ms = value.parse().unwrap_or_else(|_| bad("lag limit"))
                }
                "--rustc" => args.rustc = value.clone(),
                "--commit" => args.commit = value.clone(),
                _ => usage(&format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            usage(&format!("unknown workload '{}'", args.workload));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            usage("--seconds must be positive");
        }
        args
    }

    /// Measured seconds for a segment: the whole run when the segment
    /// belongs to the named workload, a minimal pass otherwise.
    pub fn share(&self, workload: &str, fraction: f64) -> Option<f64> {
        (self.workload == workload).then_some(self.seconds * fraction)
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         --rcm-order PATH --work DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Requests per window of [`windowed_p95`].
pub const P95_WINDOW: usize = 100;
/// Most windows [`windowed_p95`] and [`windowed_rate`] cut a run into.
pub const MAX_WINDOWS: usize = 16;

/// p95 of request latencies in arrival order, robust to a stalled stretch
/// of a shared machine: the latencies are cut into up to [`MAX_WINDOWS`]
/// consecutive windows of at least [`P95_WINDOW`] requests, and the
/// median of the windows' p95 is reported. Runs shorter than two windows
/// get the plain p95.
pub fn windowed_p95(latencies: &[f64]) -> f64 {
    let windows = (latencies.len() / P95_WINDOW).clamp(1, MAX_WINDOWS);
    let size = latencies.len().div_ceil(windows).max(1);
    let p95s: Vec<f64> = latencies.chunks(size).map(|w| quantile(w, 0.95)).collect();
    median(&p95s)
}

/// Completions per second from completion times (seconds from the start
/// of the pass), robust the same way: the sorted completions are cut into
/// up to [`MAX_WINDOWS`] equal-count windows and the median of the
/// windows' rates is reported.
pub fn windowed_rate(completions_s: &[f64]) -> f64 {
    let mut t = completions_s.to_vec();
    t.sort_by(f64::total_cmp);
    let windows = (t.len() / P95_WINDOW).clamp(1, MAX_WINDOWS);
    let size = t.len().div_ceil(windows).max(1);
    let mut start = 0.0;
    let rates: Vec<f64> = t
        .chunks(size)
        .map(|w| {
            let end = *w.last().expect("chunks are non-empty");
            let rate = w.len() as f64 / (end - start).max(1e-9);
            start = end;
            rate
        })
        .collect();
    median(&rates)
}

/// Reference permutations, computed once per distinct input with
/// `distributed_rcm::core::rcm` outside every timed region, and the check
/// every returned permutation goes through.
pub struct Checker {
    refs: Vec<Vec<u32>>,
    corrupt_next: Cell<bool>,
}

impl Checker {
    pub fn new(corrupt: bool) -> Self {
        Checker {
            refs: Vec::new(),
            corrupt_next: Cell::new(corrupt),
        }
    }

    /// Register an input; returns its id for [`Checker::check`].
    pub fn add(&mut self, a: &distributed_rcm::sparse::CscMatrix) -> usize {
        self.refs
            .push(distributed_rcm::core::rcm(a).as_new_of_old().to_vec());
        self.refs.len() - 1
    }

    /// Whether `new_of_old` is a bijection on `0..n` equal to the reference
    /// of input `id`. With the corruption switch set, the first permutation
    /// checked has two labels swapped first, and must fail.
    pub fn check_labels(&self, id: usize, new_of_old: &[u32]) -> bool {
        let mut owned;
        let mut labels = new_of_old;
        if self.corrupt_next.replace(false) && labels.len() >= 2 {
            owned = labels.to_vec();
            owned.swap(0, 1);
            labels = &owned;
        }
        let reference = &self.refs[id];
        let mut seen = vec![false; labels.len()];
        let bijection = labels.iter().all(|&l| {
            let slot = seen.get_mut(l as usize);
            match slot {
                Some(s) if !*s => {
                    *s = true;
                    true
                }
                _ => false,
            }
        });
        bijection && labels == reference.as_slice()
    }

    pub fn check(&self, id: usize, perm: &Permutation) -> bool {
        self.check_labels(id, perm.as_new_of_old())
    }
}

/// One emitted metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            self.correct = false;
        }
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// Count one request; a failed one also makes the run incorrect.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Mark the run invalid with a reason on standard error.
    pub fn flag(&mut self, why: &str) {
        eprintln!("perfbench: FLAG: {why}");
        self.correct = false;
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The pinned engine configuration every workload uses: the given backend,
/// adaptive expansion, George–Liu start nodes, no compression, no component
/// split, no private cache — nothing is read from the environment.
pub fn engine_config(
    backend: distributed_rcm::core::BackendKind,
) -> distributed_rcm::core::EngineConfig {
    use distributed_rcm::core::{EngineConfig, ExpandDirection, StartNode};
    EngineConfig::builder()
        .backend(backend)
        .direction(ExpandDirection::Adaptive)
        .start_node(StartNode::GeorgeLiu)
        .compress(false)
        .split_components(false)
        .build()
}

/// Facts recorded with every result: machine, toolchain, commit, seed,
/// pinned settings, and each input's rows, nnz and file bytes.
pub struct Provenance {
    fields: Vec<(String, String)>,
    inputs: Vec<String>,
}

impl Provenance {
    pub fn new(args: &Args) -> Self {
        let mut p = Provenance {
            fields: Vec::new(),
            inputs: Vec::new(),
        };
        p.text("workload", &args.workload);
        p.num("seed", args.seed as f64);
        p.num("trace", args.trace as u8 as f64);
        p.num("available_parallelism", sys::available_parallelism() as f64);
        p.text("cpu_caches", &sys::cpu_caches());
        p.text("rustc", &args.rustc);
        p.text("commit", &args.commit);
        p
    }

    pub fn text(&mut self, key: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields.push((key.into(), format!("\"{escaped}\"")));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.into(), format!("{value}")));
    }

    pub fn input(&mut self, name: &str, a: &distributed_rcm::sparse::CscMatrix, bytes: u64) {
        self.inputs.push(format!(
            "{{\"name\": \"{name}\", \"rows\": {}, \"nnz\": {}, \"file_bytes\": {bytes}}}",
            a.n_rows(),
            a.nnz()
        ));
    }

    pub fn to_json(&self) -> String {
        let mut parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        parts.push(format!("\"inputs\": [{}]", self.inputs.join(", ")));
        format!("{{{}}}", parts.join(", "))
    }
}

/// Print the provenance line, then the result as the last line of standard
/// output, and keep a copy of both in the work directory.
pub fn finish(args: &Args, prov: &Provenance, out: &Outcome, tag: &str) {
    let prov_line = format!("{{\"provenance\": {}}}", prov.to_json());
    let result = out.to_json();
    let path = args.work.join(format!(
        "{tag}-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, format!("{prov_line}\n{result}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{prov_line}");
    println!("{result}");
}
