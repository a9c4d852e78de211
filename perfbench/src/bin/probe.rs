//! `perfbench-probe`: the driver and pool phases of the traced run.
//!
//! A [`Probe`] wraps a public `RcmRuntime` backend (`SerialBackend`, and
//! `PooledBackend` inside `RcmPool::run_warm`), forwards every primitive,
//! and charges its wall time to the Fig. 4 phase the driver last passed to
//! `set_phase`. It is driven with `drive_cm_with` under the engine's pinned
//! settings. This binary is built apart from `perfbench`, so a change to
//! the backend surface breaks only the per-layer trace, never the
//! end-to-end gate.

use distributed_rcm::core::{
    drive_cm_with, BackendKind, DenseTarget, DriverStats, ExpandDirection, LabelingMode,
    OrderingEngine, PoolConfig, PooledBackend, RcmPool, RcmRuntime, SerialBackend, SerialWorkspace,
    StartNode,
};
use distributed_rcm::dist::Phase;
use distributed_rcm::sparse::{CscMatrix, Label, Permutation, Vidx};
use perfbench::trace::Tracer;
use perfbench::{engine_config, inputs, median, sys, Args, Checker, Outcome, Provenance};
use std::time::Instant;

/// The Fig. 4 phases in metric-name form, in `Phase::ALL` order.
const PHASES: [&str; 5] = [
    "peripheral_spmspv",
    "peripheral_other",
    "ordering_spmspv",
    "ordering_sort",
    "ordering_other",
];

/// Allowed difference between the probe's install + drive + extraction
/// (less the cost of its own clock reads) and the untraced engine's
/// `wall_seconds` on the same input, checked on the serial shapes. The
/// pooled comparison is reported only: with as many workers as cores it
/// swings by more than this from run to run.
const ENGINE_AGREEMENT: f64 = 0.25;

#[derive(Clone, Copy, Default)]
struct PhaseTimes {
    ns: [u64; 5],
    /// Clock reads charged to each phase.
    ticks: [u64; 5],
    reseed_ns: u64,
    reset_levels_ns: u64,
}

/// Forwards every primitive of the wrapped backend and charges the time
/// since the previous call to the current phase: one clock read per call,
/// so the driver's own work between calls lands in the phase it serves.
struct Probe<R> {
    inner: R,
    phase: usize,
    last: Instant,
    times: PhaseTimes,
}

impl<R: RcmRuntime> Probe<R> {
    fn new(inner: R) -> Self {
        Probe {
            inner,
            phase: 1,
            last: Instant::now(),
            times: PhaseTimes::default(),
        }
    }

    /// Charge the time since the last tick to the current phase.
    fn tick(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as u64;
        self.last = now;
        self.times.ns[self.phase] += ns;
        self.times.ticks[self.phase] += 1;
        ns
    }

    fn charge<T>(&mut self, f: impl FnOnce(&mut R) -> T) -> T {
        self.tick();
        f(&mut self.inner)
    }
}

impl<R: RcmRuntime> RcmRuntime for Probe<R> {
    type Frontier = R::Frontier;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn set_phase(&mut self, phase: Phase) {
        // Work outside the five Fig. 4 phases (none on native backends)
        // stays with the last phase.
        self.tick();
        if let Some(i) = Phase::ALL.iter().position(|&p| p == phase) {
            self.phase = i;
        }
        self.inner.set_phase(phase);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier {
        self.charge(|r| r.singleton(v, value))
    }

    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool {
        self.charge(|r| r.is_nonempty(x))
    }

    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize {
        self.charge(|r| r.frontier_nnz(x))
    }

    fn pull_profitable(&self) -> bool {
        self.inner.pull_profitable()
    }

    fn append(&mut self, acc: &mut Self::Frontier, x: &Self::Frontier) {
        self.charge(|r| r.append(acc, x));
    }

    fn stamp(&mut self, x: &mut Self::Frontier, value: Label) {
        self.charge(|r| r.stamp(x, value));
    }

    fn spmspv(&mut self, x: &Self::Frontier) -> Self::Frontier {
        self.charge(|r| r.spmspv(x))
    }

    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        self.charge(|r| r.select_unvisited(x, which))
    }

    fn expand_pull(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        self.charge(|r| r.expand_pull(x, which))
    }

    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier) {
        self.charge(|r| r.set_dense(which, x));
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        self.charge(|r| r.set_dense_at(which, v, value));
    }

    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget) {
        self.charge(|r| r.gather_values(x, which));
    }

    fn reset_levels(&mut self) {
        self.charge(|r| r.reset_levels());
        self.times.reset_levels_ns += self.tick();
    }

    fn end_peripheral_search(&mut self) {
        self.charge(|r| r.end_peripheral_search());
    }

    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize) {
        self.charge(|r| r.sortperm(x, batch, nv))
    }

    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx> {
        self.charge(|r| r.argmin_degree(x))
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        let v = self.charge(|r| r.find_unvisited_min_degree());
        self.times.reseed_ns += self.tick();
        v
    }

    fn spmspv_work(&self) -> usize {
        self.inner.spmspv_work()
    }
}

/// One probed ordering: the RCM permutation, the driver's record, the
/// phase times, and when install, drive and extraction started and ended.
struct Probed {
    perm: Permutation,
    stats: DriverStats,
    times: PhaseTimes,
    start: Instant,
    drive: (Instant, Instant),
    end: Instant,
}

impl Probed {
    fn drive_ns(&self) -> u64 {
        (self.drive.1 - self.drive.0).as_nanos() as u64
    }

    /// Install to extraction, less the probe's own clock reads.
    fn total_ms(&self, clock_ns: f64) -> f64 {
        let ticks: u64 = self.times.ticks.iter().sum();
        (self.end - self.start).as_secs_f64() * 1e3 - ticks as f64 * clock_ns / 1e6
    }
}

/// Cost of one `Instant::now()`, in ns (median of five batches).
fn clock_cost_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&v)
}

const DIRECTION: ExpandDirection = ExpandDirection::Adaptive;

fn drive<R: RcmRuntime>(p: &mut Probe<R>) -> (DriverStats, (Instant, Instant)) {
    let start = Instant::now();
    p.last = start;
    let stats = drive_cm_with(p, LabelingMode::PerLevel, DIRECTION, &StartNode::GeorgeLiu);
    p.tick();
    (stats, (start, p.last))
}

/// Serial backend on a warm workspace, scoped like the engine's
/// `wall_seconds`: install, drive, extraction.
fn probe_serial(a: &CscMatrix, ws: &mut SerialWorkspace) -> Probed {
    let t0 = Instant::now();
    let mut p = Probe::new(SerialBackend::warm(a, std::mem::take(ws)));
    let (stats, drive) = drive(&mut p);
    let (cm, warm) = p.inner.finish();
    *ws = warm;
    let perm = cm.reversed();
    Probed {
        perm,
        stats,
        times: p.times,
        start: t0,
        drive,
        end: Instant::now(),
    }
}

/// Pooled backend inside `RcmPool::run_warm`.
fn probe_pooled(a: &CscMatrix, pool: &mut RcmPool) -> Probed {
    let t0 = Instant::now();
    let (perm, stats, times, drive) = pool.run_warm(a, |exec, ws| {
        let mut p = Probe::new(PooledBackend::new(exec, ws));
        let (stats, drive) = drive(&mut p);
        let times = p.times;
        let (cm, _parallel_levels) = p.inner.into_cm_permutation();
        (cm.reversed(), stats, times, drive)
    });
    Probed {
        perm,
        stats,
        times,
        start: t0,
        drive,
        end: Instant::now(),
    }
}

/// Collects probed orderings of one input as spans and counters.
struct Segment<'t> {
    tracer: &'t mut Tracer,
    segment: u64,
    requests: usize,
    clock_ns: f64,
}

impl Segment<'_> {
    /// Record one probed request: a root span with install, drive and
    /// extraction as its children, and the phase times as counters.
    fn record(&mut self, prefix: &str, p: &Probed) {
        let r = self.segment << 32 | self.requests as u64;
        self.requests += 1;
        let t = &mut *self.tracer;
        let root = t.interval(&format!("{prefix}.request"), r, None, p.start, p.end);
        t.interval(
            &format!("{prefix}.install"),
            r,
            Some(root),
            p.start,
            p.drive.0,
        );
        t.interval(
            &format!("{prefix}.drive"),
            r,
            Some(root),
            p.drive.0,
            p.drive.1,
        );
        t.interval(
            &format!("{prefix}.extract"),
            r,
            Some(root),
            p.drive.1,
            p.end,
        );
        for ((name, &ns), &ticks) in PHASES.iter().zip(&p.times.ns).zip(&p.times.ticks) {
            let ms = (ns as f64 - ticks as f64 * self.clock_ns).max(0.0) / 1e6;
            t.count(r, &format!("{prefix}.{name}_ms"), ms);
        }
        t.count(
            r,
            &format!("{prefix}.reseed_ms"),
            p.times.reseed_ns as f64 / 1e6,
        );
        t.count(
            r,
            &format!("{prefix}.reset_levels_ms"),
            p.times.reset_levels_ns as f64 / 1e6,
        );
    }
}

/// Probed orderings per input in a minimal pass.
const MIN_RUNS: usize = 5;

/// Alternate probed and untraced engine orderings of `a` until the budget
/// is spent (at least `MIN_RUNS` of each). Returns the probed runs and the
/// engine's `wall_seconds` samples in ms.
fn alternate(
    budget: Option<f64>,
    engine: &mut OrderingEngine,
    a: &CscMatrix,
    mut probe: impl FnMut() -> Probed,
    mut check: impl FnMut(&Permutation) -> bool,
    out: &mut Outcome,
) -> (Vec<Probed>, Vec<f64>) {
    out.record(check(&probe().perm));
    out.record(check(&engine.order(a).perm));
    let t0 = Instant::now();
    let (mut runs, mut engine_ms) = (Vec::new(), Vec::new());
    while runs.len() < MIN_RUNS || budget.is_some_and(|s| t0.elapsed().as_secs_f64() < s) {
        let p = probe();
        out.record(check(&p.perm));
        runs.push(p);
        let report = engine.order(a);
        out.record(check(&report.perm));
        engine_ms.push(report.wall_seconds * 1e3);
    }
    (runs, engine_ms)
}

fn main() {
    let args = Args::parse();
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!(
            "perfbench-probe: cannot create {}: {e}",
            args.work.display()
        );
        std::process::exit(2);
    }
    let mut prov = Provenance::new(&args);
    let mut out = Outcome::new();
    let mut tracer = Tracer::new();
    // Probe time over untraced engine time, minus one, per input.
    let mut agreement: Vec<(String, f64)> = Vec::new();
    let clock_ns = clock_cost_ns();
    prov.num("probe.clock_read_ns", clock_ns);

    let shapes = inputs::shapes(args.seed);
    let mut checker = Checker::new(args.corrupt);
    let ids: Vec<usize> = shapes.iter().map(|(_, m)| checker.add(m)).collect();

    // Serial driver, per shape.
    let budget = args
        .share("engine_shapes", 0.5)
        .map(|s| s / shapes.len() as f64);
    let mut ws = SerialWorkspace::new();
    let mut engine = OrderingEngine::new(engine_config(BackendKind::Serial));
    for (k, ((name, a), &id)) in shapes.iter().zip(&ids).enumerate() {
        prov.input(&format!("probe.{name}"), a, 0);
        let (runs, engine_ms) = alternate(
            budget,
            &mut engine,
            a,
            || probe_serial(a, &mut ws),
            |perm| checker.check(id, perm),
            &mut out,
        );
        let prefix = format!("driver.{name}");
        let mut seg = Segment {
            tracer: &mut tracer,
            segment: 10 + k as u64,
            requests: 0,
            clock_ns,
        };
        for p in &runs {
            seg.record(&prefix, p);
        }
        let tracer = &tracer;
        let counter = |m: &str| median(&tracer.counter_values(&format!("{prefix}.{m}")));
        for phase in PHASES {
            out.metric(
                format!("driver.{phase}_ms.{name}"),
                counter(&format!("{phase}_ms")),
                "ms",
            );
        }
        out.metric(
            format!("driver.reseed_ms.{name}"),
            counter("reseed_ms"),
            "ms",
        );
        out.metric(
            format!("driver.reset_levels_ms.{name}"),
            counter("reset_levels_ms"),
            "ms",
        );
        let s = &runs.last().expect("at least MIN_RUNS runs").stats;
        let edges = s.spmspv_work as f64;
        let drive_ns: Vec<f64> = runs
            .iter()
            .map(|p| p.drive_ns() as f64 - p.times.ticks.iter().sum::<u64>() as f64 * clock_ns)
            .collect();
        out.metric(
            format!("driver.components.{name}"),
            s.components as f64,
            "count",
        );
        out.metric(
            format!("driver.sweeps.{name}"),
            s.peripheral_bfs as f64,
            "count",
        );
        out.metric(format!("driver.levels.{name}"), s.levels as f64, "count");
        out.metric(format!("driver.edges.{name}"), edges, "count");
        out.metric(
            format!("driver.traversals.{name}"),
            edges / a.nnz().max(1) as f64,
            "x",
        );
        out.metric(
            format!("driver.ns_per_edge.{name}"),
            median(&drive_ns) / edges.max(1.0),
            "ns",
        );
        let probe_ms: Vec<f64> = runs.iter().map(|p| p.total_ms(clock_ns)).collect();
        agreement.push((
            name.to_string(),
            median(&probe_ms) / median(&engine_ms) - 1.0,
        ));
    }

    // Pooled backend on the mesh, inside RcmPool::run_warm.
    let budget = args.share("engine_shapes", 0.3);
    let threads = sys::available_parallelism();
    prov.text("pool", &format!("pooled:{threads}"));
    let (_, mesh) = &shapes[0];
    let mut pool = RcmPool::new(PoolConfig::new(threads));
    let mut pooled_engine = OrderingEngine::new(engine_config(BackendKind::Pooled { threads }));
    let (runs, engine_ms) = alternate(
        budget,
        &mut pooled_engine,
        mesh,
        || probe_pooled(mesh, &mut pool),
        |perm| checker.check(ids[0], perm),
        &mut out,
    );
    let mut seg = Segment {
        tracer: &mut tracer,
        segment: 20,
        requests: 0,
        clock_ns,
    };
    for p in &runs {
        seg.record("pool", p);
    }
    for phase in PHASES {
        out.metric(
            format!("pool.{phase}_ms"),
            median(&tracer.counter_values(&format!("pool.{phase}_ms"))),
            "ms",
        );
    }
    let probe_ms: Vec<f64> = runs.iter().map(|p| p.total_ms(clock_ns)).collect();
    let pool_agreement = median(&probe_ms) / median(&engine_ms) - 1.0;
    prov.num("trace.probe_vs_engine_pct.pool", pool_agreement * 100.0);
    drop(pooled_engine);
    drop(pool);

    // Reconciliation: the probe agrees with the untraced engine's
    // `wall_seconds` on the same serial inputs.
    let (worst_name, worst) = agreement
        .iter()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .cloned()
        .expect("four shapes probed");
    out.metric("trace.probe_vs_engine_max_pct", worst.abs() * 100.0, "%");
    for (name, d) in &agreement {
        prov.num(&format!("trace.probe_vs_engine_pct.{name}"), d * 100.0);
    }
    if worst.abs() > ENGINE_AGREEMENT {
        out.flag(&format!(
            "probe and untraced engine disagree by {:.1}% on {worst_name} (limit {}%)",
            worst * 100.0,
            ENGINE_AGREEMENT * 100.0
        ));
    }
    let path = args.work.join(format!(
        "spans-probe-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench-probe: cannot write {}: {e}", path.display());
    }
    perfbench::finish(&args, &prov, &out, "perfbench-probe");
}
