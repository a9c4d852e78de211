//! `perfbench`: the end-to-end workloads, and the traced run of the stable
//! public surface (CLI layers, engine, pool counters, service and cache).
//!
//! Run through `perfbench/run.py`, which builds this binary and `rcm-order`
//! from source; see `perfbench/README.md` for the workloads and metrics.

use distributed_rcm::core::{
    ordering_wavefront, quality_report, BackendKind, CacheConfig, CacheOutcome, JobHandle,
    OrderingEngine, OrderingReport, OrderingRequest, OrderingService, ServiceConfig,
};
use distributed_rcm::sparse::{mm, CscMatrix, Permutation};
use perfbench::inputs::{self, Kind, Stream};
use perfbench::trace::Tracer;
use perfbench::{
    engine_config, median, quantile, sys, windowed_p95, windowed_rate, Args, Checker, Outcome,
    Provenance, SETUP_REPS,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Nominal arrival rate of the open loop, in arrival events per second
/// (≈1.3 requests per event, so ≈80 requests/s): about a ninth of the
/// saturated `throughput_rps` (600–880/s) measured at the commit that
/// defined this benchmark on a 2-vCPU box. At two fifths the generator,
/// which pays every hit's hash and compare inline, ran up to 100 ms late
/// at p95 and the median moved by 2x between seeds.
const SERVICE_RATE: f64 = 60.0;
/// Share of a `service_stream` run spent in the open loop; the saturated
/// pass over the same list takes most of the rest.
const OPEN_SHARE: f64 = 0.85;
/// How long unresolved handles are awaited after the last submit.
const HANDLE_DEADLINE: Duration = Duration::from_secs(30);
/// Traced + untraced request pairs of a minimal traced segment.
const MIN_PAIRS: usize = 1;
/// Reconciliation tolerance: the layers must cover a request's traced wall
/// time up to this share, or up to `RECONCILE_FLOOR_MS`.
const RECONCILE_TOL: f64 = 0.05;
const RECONCILE_FLOOR_MS: f64 = 0.5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = Args::parse();
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let mut prov = Provenance::new(&args);
    let mut out = Outcome::new();
    if args.trace {
        traced(&args, &mut out, &mut prov);
    } else {
        match args.workload.as_str() {
            "cli_mtx" => cli_mtx(&args, &mut out, &mut prov),
            "engine_shapes" => engine_shapes(&args, &mut out, &mut prov),
            _ => service_stream(&args, &mut out, &mut prov),
        }
    }
    perfbench::finish(&args, &prov, &out, "perfbench");
}

/// The end-to-end metrics every workload reports; latencies in arrival
/// order.
fn end_to_end(
    out: &mut Outcome,
    latencies_ms: &[f64],
    throughput_rps: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
) {
    out.metric("latency_p50_ms", median(latencies_ms), "ms");
    out.metric("latency_p95_ms", windowed_p95(latencies_ms), "ms");
    out.metric("throughput_rps", throughput_rps, "1/s");
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
}

// ---------------------------------------------------------------------------
// cli_mtx
// ---------------------------------------------------------------------------

/// The `cli_mtx` input on disk, its reference, and the request outputs.
struct CliSetup {
    a: CscMatrix,
    checker: Checker,
    input: PathBuf,
    perm_out: PathBuf,
    matrix_out: PathBuf,
    input_bytes: u64,
}

fn cli_setup(args: &Args, prov: &mut Provenance) -> CliSetup {
    let a = inputs::mesh(args.seed);
    let mut checker = Checker::new(args.corrupt);
    checker.add(&a);
    let input = args.work.join(format!("mesh-seed{}.mtx", args.seed));
    let input_bytes = inputs::write_symmetric_mtx(&a, &input).expect("write the input .mtx");
    // The CLI must parse exactly the matrix the reference was computed on.
    let parsed = mm::read_pattern_file(&input).expect("read back the input .mtx");
    assert!(parsed == a, "the symmetric .mtx does not round-trip");
    prov.input("cli_mtx.mesh", &a, input_bytes);
    CliSetup {
        a,
        checker,
        input,
        perm_out: args.work.join("cli-perm.txt"),
        matrix_out: args.work.join("cli-reordered.mtx"),
        input_bytes,
    }
}

/// One `rcm-order` request as a child process, with the three ordering
/// environment knobs removed. The previous request's outputs are deleted
/// first, untimed: each request writes new files, and the dirty pages of
/// the old ones are dropped instead of being flushed to disk while a later
/// request is timed.
fn cli_request(args: &Args, s: &CliSetup) -> std::io::Result<sys::ChildRun> {
    for out in [&s.perm_out, &s.matrix_out] {
        match std::fs::remove_file(out) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    let mut cmd = Command::new(&args.rcm_order);
    cmd.arg(&s.input)
        .arg("--write-perm")
        .arg(&s.perm_out)
        .arg("--write-matrix")
        .arg(&s.matrix_out)
        .env_remove("RCM_THREADS")
        .env_remove("RCM_DIRECTION")
        .env_remove("RCM_START_NODE");
    sys::run_child(&mut cmd)
}

/// Check a finished request's outputs: exit code, the permutation file
/// against the reference, and the reordered matrix's header (in full when
/// `full` is set).
fn cli_check(s: &CliSetup, run: &std::io::Result<sys::ChildRun>, full: bool) -> bool {
    let Ok(run) = run else { return false };
    if run.exit_code != Some(0) {
        eprintln!("perfbench: rcm-order exited with {:?}", run.exit_code);
        return false;
    }
    let labels: Option<Vec<u32>> = std::fs::read_to_string(&s.perm_out)
        .ok()
        .and_then(|text| text.lines().map(|l| l.trim().parse().ok()).collect());
    let Some(labels) = labels else { return false };
    if !s.checker.check_labels(0, &labels) {
        return false;
    }
    if full {
        let perm = Permutation::from_new_of_old(labels).expect("checked bijection");
        return mm::read_pattern_file(&s.matrix_out).is_ok_and(|m| m == s.a.permute_sym(&perm));
    }
    let header = std::fs::read_to_string(&s.matrix_out).ok().and_then(|t| {
        t.lines()
            .find(|l| !l.starts_with('%'))
            .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    });
    let n = s.a.n_rows().to_string();
    header == Some(vec![n.clone(), n, s.a.nnz().to_string()])
}

fn cli_mtx(args: &Args, out: &mut Outcome, prov: &mut Provenance) {
    let s = cli_setup(args, prov);
    let mut setup = Vec::new();
    let mut rss = Vec::new();
    for rep in 0..SETUP_REPS {
        let run = cli_request(args, &s);
        out.record(cli_check(&s, &run, rep == 0));
        if let Ok(r) = &run {
            setup.push(r.wall.as_secs_f64());
        }
    }
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || lat.is_empty() {
        let run = cli_request(args, &s);
        out.record(cli_check(&s, &run, false));
        if let Ok(r) = &run {
            lat.push(ms(r.wall));
            rss.push(r.peak_rss_mb);
        }
    }
    let rps = lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3);
    end_to_end(out, &lat, rps, &setup, median(&rss));
}

// ---------------------------------------------------------------------------
// engine_shapes
// ---------------------------------------------------------------------------

/// Check every report of one request against its input's reference.
fn check_reports(checker: &Checker, ids: &[usize], reports: &[OrderingReport]) -> bool {
    reports.len() == ids.len()
        && ids
            .iter()
            .zip(reports)
            .all(|(&id, r)| checker.check(id, &r.perm))
}

/// Closed loop with one client over a warm serial engine: `setup_s` is
/// engine construction plus one warm-up request, repeated; then requests
/// run back to back for the run length.
fn engine_shapes(args: &Args, out: &mut Outcome, prov: &mut Provenance) {
    let shapes = inputs::shapes(args.seed);
    let mut checker = Checker::new(args.corrupt);
    let ids: Vec<usize> = shapes.iter().map(|(_, m)| checker.add(m)).collect();
    for (name, m) in &shapes {
        prov.input(&format!("engine_shapes.{name}"), m, 0);
    }
    let mats: Vec<CscMatrix> = shapes.into_iter().map(|(_, m)| m).collect();
    prov.text("backend", "serial");
    sys::reset_peak_rss();
    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut e = OrderingEngine::new(engine_config(BackendKind::Serial));
        let reports = e.order_batch(&mats);
        setup.push(t0.elapsed().as_secs_f64());
        out.record(check_reports(&checker, &ids, &reports));
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one setup repetition");
    let mut lat = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds || lat.is_empty() {
        let t = Instant::now();
        let reports = engine.order_batch(black_box(&mats));
        lat.push(ms(t.elapsed()));
        out.record(check_reports(&checker, &ids, &reports));
    }
    let rps = lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3);
    end_to_end(out, &lat, rps, &setup, sys::peak_rss_mb());
}

// ---------------------------------------------------------------------------
// service_stream
// ---------------------------------------------------------------------------

fn service_shards() -> usize {
    sys::available_parallelism().saturating_sub(1).max(1)
}

fn service_config(stream: &Stream) -> ServiceConfig {
    ServiceConfig::new(engine_config(BackendKind::Serial))
        .shards(service_shards())
        .queue_capacity(64)
        .cache(CacheConfig::new(stream.cache_bound()))
        .batch_cutover(256)
        .batch_max(16)
}

/// What the client saw of one request.
struct Served {
    kind: Kind,
    /// Due → submit start: how late the generator ran.
    lag_ms: f64,
    /// Duration of the `submit` call.
    submit_ms: f64,
    /// Due → resolved handle in the client's hands.
    latency_ms: f64,
    /// `None` while unresolved at the deadline.
    report: Option<(f64, Option<CacheOutcome>)>,
    ok: bool,
}

struct Pending {
    index: usize,
    pattern: usize,
    submit_start: Instant,
    submit_end: Instant,
    handle: JobHandle,
}

/// Resolve every pending request whose handle completed (all of them, up
/// to `deadline`, when `deadline` is set): check the permutation, record
/// the latency, and drop the report.
fn drain(
    pending: &mut Vec<Pending>,
    served: &mut [Served],
    due: &[Instant],
    checker: &Checker,
    deadline: Option<Instant>,
) {
    loop {
        pending.retain(|p| {
            let Some(latency) = p.handle.latency() else {
                return true;
            };
            let report = p.handle.try_poll().expect("resolved handle has a report");
            let completion = (p.submit_start + latency).max(p.submit_end);
            let s = &mut served[p.index];
            s.latency_ms = ms(completion - due[p.index]);
            s.ok = checker.check(p.pattern, &report.perm);
            s.report = Some((report.wall_seconds, report.cache));
            false
        });
        match deadline {
            Some(d) if !pending.is_empty() && Instant::now() < d => {
                std::thread::sleep(Duration::from_micros(200))
            }
            _ => return,
        }
    }
}

/// Per-request service records and counters from one pass over the list.
struct StreamRun {
    served: Vec<Served>,
    /// Completion times, seconds from the first due time.
    completions_s: Vec<f64>,
    backlog_max: usize,
    stats: distributed_rcm::core::ServiceStats,
}

impl StreamRun {
    /// Latencies of the resolved requests, in arrival order.
    fn latencies_ms(&self) -> Vec<f64> {
        self.served
            .iter()
            .filter(|s| s.report.is_some())
            .map(|s| s.latency_ms)
            .collect()
    }
}

/// Submit the list to a fresh service. `open`: at each arrival's due time
/// (open loop, Poisson schedule); otherwise as fast as back-pressure admits.
/// With a tracer, spans and the backlog are recorded too.
fn run_stream(
    stream: &Stream,
    checker: &Checker,
    config: ServiceConfig,
    open: bool,
    tracer: Option<&mut Tracer>,
) -> StreamRun {
    let service = OrderingService::start(config);
    let n = stream.arrivals.len();
    let mut served: Vec<Served> = stream
        .arrivals
        .iter()
        .map(|&(_, p)| Served {
            kind: stream.kinds[p],
            lag_ms: 0.0,
            submit_ms: 0.0,
            latency_ms: f64::NAN,
            report: None,
            ok: false,
        })
        .collect();
    let mut pending: Vec<Pending> = Vec::new();
    let mut backlog_max = 0usize;
    let mut due = Vec::with_capacity(n);
    let mut submitted = Vec::with_capacity(n);
    let t0 = Instant::now() + Duration::from_millis(20);
    for (i, &(at, pattern)) in stream.arrivals.iter().enumerate() {
        let request = OrderingRequest::new(stream.patterns[pattern].clone());
        drain(&mut pending, &mut served, &due, checker, None);
        let due_at = if open {
            t0 + Duration::from_secs_f64(at)
        } else {
            Instant::now()
        };
        due.push(due_at);
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        let submit_start = Instant::now();
        let handle = service.submit(request);
        let submit_end = Instant::now();
        served[i].lag_ms = ms(submit_start.saturating_duration_since(due_at));
        served[i].submit_ms = ms(submit_end - submit_start);
        submitted.push((submit_start, submit_end));
        if tracer.is_some() {
            let stats = service.stats();
            backlog_max = backlog_max.max(stats.submitted - stats.completed);
        }
        pending.push(Pending {
            index: i,
            pattern,
            submit_start,
            submit_end,
            handle,
        });
    }
    drain(
        &mut pending,
        &mut served,
        &due,
        checker,
        Some(Instant::now() + HANDLE_DEADLINE),
    );
    let start = due.first().copied().unwrap_or(t0);
    let completions_s = served
        .iter()
        .zip(&due)
        .filter(|(s, _)| s.report.is_some())
        .map(|(s, &d)| (d - start).as_secs_f64() + s.latency_ms / 1e3)
        .collect();
    if let Some(t) = tracer {
        // One root per request, due → resolved handle: the generator's
        // lag, the submit call, and the wait for a shard after it returned.
        for (i, s) in served.iter().enumerate() {
            if s.report.is_none() {
                continue;
            }
            let r = i as u64;
            let (submit_start, submit_end) = submitted[i];
            let end = due[i] + Duration::from_secs_f64(s.latency_ms / 1e3);
            let root = t.interval("service.request", r, None, due[i], end);
            t.interval("generator.lag", r, Some(root), due[i], submit_start);
            t.interval("service.submit", r, Some(root), submit_start, submit_end);
            if end > submit_end {
                t.interval("service.wait", r, Some(root), submit_end, end);
            }
        }
    }
    let stats = service.stats();
    drop(service);
    StreamRun {
        served,
        completions_s,
        backlog_max,
        stats,
    }
}

fn stream_setup(args: &Args, duration: f64, prov: &mut Provenance) -> (Stream, Checker) {
    let stream = Stream::generate(args.seed, duration, SERVICE_RATE);
    assert!(
        stream.cache_bound() < stream.distinct_nnz,
        "the cache bound must sit below the distinct-pattern total"
    );
    let mut checker = Checker::new(args.corrupt);
    for p in &stream.patterns {
        checker.add(p);
    }
    for (i, p) in stream.patterns.iter().enumerate() {
        if stream.kinds[i] == Kind::Hot {
            prov.input(&format!("service_stream.hot{i}"), p, 0);
        }
    }
    prov.num("service.requests", stream.arrivals.len() as f64);
    prov.num("service.distinct_patterns", stream.patterns.len() as f64);
    prov.num("service.cache_bound_nnz", stream.cache_bound() as f64);
    prov.num("service.distinct_nnz", stream.distinct_nnz as f64);
    prov.num("service.rate_events_per_s", SERVICE_RATE);
    prov.num("service.shards", service_shards() as f64);
    (stream, checker)
}

/// Record every request of a pass; flag the run when the generator fell
/// behind its schedule by more than the limit.
fn score_stream(args: &Args, out: &mut Outcome, run: &StreamRun, open: bool) -> f64 {
    for s in &run.served {
        out.record(s.ok && s.report.is_some());
    }
    let lags: Vec<f64> = run.served.iter().map(|s| s.lag_ms).collect();
    let lag_p95 = quantile(&lags, 0.95);
    if open && lag_p95 > args.lag_limit_ms {
        out.flag(&format!(
            "generator lag p95 {lag_p95:.3} ms exceeds the {} ms limit: the open loop \
             did not hold its schedule",
            args.lag_limit_ms
        ));
    }
    lag_p95
}

fn service_stream(args: &Args, out: &mut Outcome, prov: &mut Provenance) {
    let (stream, checker) = stream_setup(args, args.seconds * OPEN_SHARE, prov);
    let config = service_config(&stream);
    sys::reset_peak_rss();
    // Set-up: start the service and serve one warm-up request.
    let warm = stream
        .kinds
        .iter()
        .position(|&k| k == Kind::Hot)
        .expect("hot set");
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let service = OrderingService::start(config);
        let report = service
            .submit(OrderingRequest::new(stream.patterns[warm].clone()))
            .wait();
        setup.push(t0.elapsed().as_secs_f64());
        out.record(checker.check(warm, &report.perm));
        drop(service);
    }
    let open = run_stream(&stream, &checker, config, true, None);
    score_stream(args, out, &open, true);
    let saturated = run_stream(&stream, &checker, config, false, None);
    score_stream(args, out, &saturated, false);
    let rps = windowed_rate(&saturated.completions_s);
    end_to_end(out, &open.latencies_ms(), rps, &setup, sys::peak_rss_mb());
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Traced and untraced request latencies of the named workload's segment.
#[derive(Default)]
struct Overhead {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

/// One traced run: the named workload's layers for the run length, every
/// other layer from a minimal pass, so each traced run reports every
/// per-layer metric. Spans are written to the work directory at the end.
fn traced(args: &Args, out: &mut Outcome, prov: &mut Provenance) {
    let mut tracer = Tracer::new();
    let mut overhead = Overhead::default();
    trace_cli(args, out, prov, &mut tracer, &mut overhead);
    trace_engine(args, out, prov, &mut tracer, &mut overhead);
    trace_pooled(args, out, prov, &mut tracer);
    trace_service(args, out, prov, &mut tracer, &mut overhead);

    let (worst, outside) = tracer.reconcile(RECONCILE_TOL, RECONCILE_FLOOR_MS);
    out.metric("trace.unattributed_max_pct", worst * 100.0, "%");
    if outside > 0 {
        out.flag(&format!(
            "{outside} traced request(s) have layer self-times that miss their wall time \
             by more than {}% (or {RECONCILE_FLOOR_MS} ms)",
            RECONCILE_TOL * 100.0
        ));
    }
    let overhead_pct = (median(&overhead.traced) / median(&overhead.untraced) - 1.0) * 100.0;
    out.metric("trace.overhead_pct", overhead_pct, "%");
    prov.num("trace.requests_traced", overhead.traced.len() as f64);
    prov.num("trace.requests_untraced", overhead.untraced.len() as f64);
    let path = args
        .work
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Keep alternating traced and untraced requests while the segment's time
/// lasts, or for the minimal number of pairs.
fn keep_going(budget: Option<f64>, t0: Instant, pairs: usize) -> bool {
    match budget {
        Some(s) => t0.elapsed().as_secs_f64() < s || pairs < MIN_PAIRS,
        None => pairs < MIN_PAIRS,
    }
}

/// Request ids are unique across segments of one traced run.
fn request_id(segment: u64, i: usize) -> u64 {
    segment << 32 | i as u64
}

/// The `cli_mtx` layers, replayed in-process with the calls `rcm-order`
/// makes; the child's own wall time comes from real requests.
fn trace_cli(
    args: &Args,
    out: &mut Outcome,
    prov: &mut Provenance,
    tracer: &mut Tracer,
    overhead: &mut Overhead,
) {
    let budget = args.share("cli_mtx", 0.8);
    let s = cli_setup(args, prov);
    let children = if budget.is_some() { 3 } else { 1 };
    let mut child_ms = Vec::new();
    for rep in 0..children {
        let run = cli_request(args, &s);
        out.record(cli_check(&s, &run, rep == 0));
        if let Ok(r) = &run {
            child_ms.push(ms(r.wall));
        }
    }
    // One request, as `rcm-order` runs it: read, symmetry check, order on
    // a fresh serial engine, quality, permutation file, permute, write.
    let replay = |t: &mut Tracer, r: u64| -> (f64, Permutation) {
        for out in [&s.perm_out, &s.matrix_out] {
            let _ = std::fs::remove_file(out);
        }
        let t0 = Instant::now();
        let id = t.begin("cli.request", r, None);
        let root = Some(id);
        let a = t.span("mm.read", r, root, || {
            mm::read_pattern_file(&s.input).expect("read the input .mtx")
        });
        let symmetric = t.span("csc.symcheck", r, root, || a.is_symmetric());
        assert!(symmetric, "the generated mesh is symmetric");
        let perm = t.span("engine.order", r, root, || {
            OrderingEngine::new(engine_config(BackendKind::Serial))
                .order(&a)
                .perm
        });
        t.span("quality.report", r, root, || {
            black_box(quality_report(&a, &perm));
            black_box(ordering_wavefront(&a, &perm));
        });
        t.span("cli.perm_write", r, root, || {
            let mut text = String::with_capacity(perm.len() * 8);
            for v in 0..perm.len() {
                text.push_str(&perm.new_of(v as u32).to_string());
                text.push('\n');
            }
            std::fs::write(&s.perm_out, text).expect("write permutation");
        });
        let reordered = t.span("csc.permute", r, root, || a.permute_sym(&perm));
        t.span("mm.write", r, root, || {
            mm::write_pattern_file(&reordered, &s.matrix_out).expect("write reordered matrix")
        });
        t.end(id);
        (ms(t0.elapsed()), perm)
    };
    let mut untraced = Tracer::disabled();
    let mut traced_ms = Vec::new();
    let t0 = Instant::now();
    let mut pairs = 0;
    while keep_going(budget, t0, pairs) {
        let (lat, perm) = replay(tracer, request_id(1, pairs));
        out.record(s.checker.check(0, &perm));
        traced_ms.push(lat);
        let (lat, perm) = replay(&mut untraced, 0);
        out.record(s.checker.check(0, &perm));
        if budget.is_some() {
            overhead.untraced.push(lat);
            overhead.traced.push(traced_ms[pairs]);
        }
        pairs += 1;
    }
    let read_ms = tracer.median_self_ms("mm.read");
    out.metric("mm.read_ms", read_ms, "ms");
    out.metric(
        "mm.read_mb_s",
        s.input_bytes as f64 / 1e6 / (read_ms / 1e3),
        "MB/s",
    );
    out.metric("mm.write_ms", tracer.median_self_ms("mm.write"), "ms");
    out.metric(
        "csc.symcheck_ms",
        tracer.median_self_ms("csc.symcheck"),
        "ms",
    );
    out.metric("csc.permute_ms", tracer.median_self_ms("csc.permute"), "ms");
    out.metric(
        "quality.report_ms",
        tracer.median_self_ms("quality.report"),
        "ms",
    );
    out.metric(
        "cli.perm_write_ms",
        tracer.median_self_ms("cli.perm_write"),
        "ms",
    );
    out.metric("cli.order_ms", tracer.median_self_ms("engine.order"), "ms");
    out.metric(
        "cli.unattributed_ms",
        median(&child_ms) - median(&traced_ms),
        "ms",
    );
}

/// `engine_shapes` on a warm serial engine: one span per shape around
/// `OrderingEngine::order` (what the serial `order_batch` does per matrix),
/// with the engine's own `wall_seconds` as a counter.
fn trace_engine(
    args: &Args,
    out: &mut Outcome,
    prov: &mut Provenance,
    tracer: &mut Tracer,
    overhead: &mut Overhead,
) {
    let budget = args.share("engine_shapes", 0.5);
    let shapes = inputs::shapes(args.seed);
    let mut checker = Checker::new(args.corrupt);
    let ids: Vec<usize> = shapes.iter().map(|(_, m)| checker.add(m)).collect();
    for (name, m) in &shapes {
        prov.input(&format!("engine_shapes.{name}"), m, 0);
    }
    let mats: Vec<CscMatrix> = shapes.iter().map(|(_, m)| m.clone()).collect();
    let mut engine = OrderingEngine::new(engine_config(BackendKind::Serial));
    out.record(check_reports(&checker, &ids, &engine.order_batch(&mats)));
    let t0 = Instant::now();
    let mut pairs = 0;
    let mut overhead_ms = Vec::new();
    while keep_going(budget, t0, pairs) {
        let r = request_id(2, pairs);
        let root = tracer.begin("engine.request", r, None);
        let mut extra = 0.0;
        let mut ok = true;
        for ((name, m), &id) in shapes.iter().zip(&ids) {
            let span = tracer.begin(&format!("engine.order.{name}"), r, Some(root));
            let report = engine.order(m);
            tracer.end(span);
            let wall_ms = report.wall_seconds * 1e3;
            tracer.count(r, &format!("engine.wall_ms.{name}"), wall_ms);
            extra += tracer.duration_ms(span) - wall_ms;
            ok &= checker.check(id, &report.perm);
        }
        tracer.end(root);
        out.record(ok);
        overhead_ms.push(extra);
        let t = Instant::now();
        let reports = engine.order_batch(&mats);
        let untraced = ms(t.elapsed());
        out.record(check_reports(&checker, &ids, &reports));
        if budget.is_some() {
            overhead.traced.push(tracer.duration_ms(root));
            overhead.untraced.push(untraced);
        }
        pairs += 1;
    }
    for (name, _) in &shapes {
        out.metric(
            format!("engine.order_ms.{name}"),
            tracer.median_self_ms(&format!("engine.order.{name}")),
            "ms",
        );
    }
    out.metric("engine.overhead_ms", median(&overhead_ms), "ms");
    out.metric(
        "engine.growth_events",
        engine.growth_events() as f64,
        "count",
    );
}

/// The mesh on a warm pooled engine at `available_parallelism` threads:
/// the pool's counters from the engine report, and its speed against the
/// serial engine on the same matrix. Measured for a share of the
/// `engine_shapes` traced run.
fn trace_pooled(args: &Args, out: &mut Outcome, prov: &mut Provenance, tracer: &mut Tracer) {
    let budget = args.share("engine_shapes", 0.4);
    let mesh = inputs::mesh(args.seed);
    let mut checker = Checker::new(args.corrupt);
    let id = checker.add(&mesh);
    prov.input("pool.mesh", &mesh, 0);
    let mut pooled = OrderingEngine::new(engine_config(BackendKind::Pooled {
        threads: sys::available_parallelism(),
    }));
    let mut serial = OrderingEngine::new(engine_config(BackendKind::Serial));
    out.record(checker.check(id, &pooled.order(&mesh).perm));
    out.record(checker.check(id, &serial.order(&mesh).perm));
    let t0 = Instant::now();
    let mut pairs = 0;
    let mut serial_ms = Vec::new();
    let mut pooled_ms = Vec::new();
    while keep_going(budget, t0, pairs) {
        let r = request_id(3, pairs);
        let root = tracer.begin("pool.request", r, None);
        let span = tracer.begin("engine.order.pooled", r, Some(root));
        let report = pooled.order(&mesh);
        tracer.end(span);
        tracer.end(root);
        out.record(checker.check(id, &report.perm));
        tracer.count(r, "pool.parallel_levels", report.parallel_levels as f64);
        tracer.count(
            r,
            "pool.parallel_level_frac",
            report.parallel_levels as f64 / report.stats.levels.max(1) as f64,
        );
        let t = Instant::now();
        let untraced = pooled.order(&mesh);
        pooled_ms.push(ms(t.elapsed()));
        out.record(checker.check(id, &untraced.perm));
        let t = Instant::now();
        let s = serial.order(&mesh);
        serial_ms.push(ms(t.elapsed()));
        out.record(checker.check(id, &s.perm));
        pairs += 1;
    }
    out.metric(
        "pool.parallel_levels",
        median(&tracer.counter_values("pool.parallel_levels")),
        "count",
    );
    out.metric(
        "pool.parallel_level_frac",
        median(&tracer.counter_values("pool.parallel_level_frac")),
        "fraction",
    );
    out.metric(
        "pool.speedup_vs_serial",
        median(&serial_ms) / median(&pooled_ms),
        "x",
    );
}

/// `service_stream`: the open loop with spans per request and the backlog
/// sampled at every submit, plus an untraced open loop for the overhead.
fn trace_service(
    args: &Args,
    out: &mut Outcome,
    prov: &mut Provenance,
    tracer: &mut Tracer,
    overhead: &mut Overhead,
) {
    let budget = args.share("service_stream", 0.4);
    let (stream, checker) = stream_setup(args, budget.unwrap_or(3.0), prov);
    let config = service_config(&stream);
    let run = run_stream(&stream, &checker, config, true, Some(tracer));
    let lag_p95 = score_stream(args, out, &run, true);
    if budget.is_some() {
        let untraced = run_stream(&stream, &checker, config, true, None);
        score_stream(args, out, &untraced, true);
        overhead.traced.push(median(&run.latencies_ms()));
        overhead.untraced.push(median(&untraced.latencies_ms()));
    }
    let of = |pred: &dyn Fn(&Served) -> bool, f: &dyn Fn(&Served, f64) -> f64| -> f64 {
        let v: Vec<f64> = run
            .served
            .iter()
            .filter_map(|s| {
                let (wall, _) = s.report?;
                pred(s).then(|| f(s, wall))
            })
            .collect();
        median(&v)
    };
    let hit = |s: &Served| s.report.is_some_and(|(_, c)| c == Some(CacheOutcome::Hit));
    // Misses on suite-class patterns: the share that sets latency_p95_ms.
    let miss = |s: &Served| {
        s.kind != Kind::Small && s.report.is_some_and(|(_, c)| c == Some(CacheOutcome::Miss))
    };
    let submit_ms: Vec<f64> = run.served.iter().map(|s| s.submit_ms).collect();
    out.metric("service.submit_ms", median(&submit_ms), "ms");
    let mut fingerprint_ms = Vec::new();
    for (p, kind) in stream.patterns.iter().zip(&stream.kinds) {
        if *kind == Kind::Hot {
            let t = Instant::now();
            black_box(black_box(p).pattern_fingerprint());
            fingerprint_ms.push(ms(t.elapsed()));
        }
    }
    out.metric("csc.fingerprint_ms", median(&fingerprint_ms), "ms");
    let stats = &run.stats;
    out.metric(
        "cache.hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        "fraction",
    );
    out.metric("cache.hit_ms", of(&hit, &|_, w| w * 1e3), "ms");
    out.metric(
        "service.queue_wait_ms",
        of(&miss, &|s, w| s.latency_ms - s.lag_ms - w * 1e3),
        "ms",
    );
    out.metric("service.compute_ms", of(&miss, &|_, w| w * 1e3), "ms");
    out.metric("service.backlog_max", run.backlog_max as f64, "count");
    out.metric("cache.evictions", stats.cache_evictions as f64, "count");
    out.metric("service.batched", stats.batched as f64, "count");
    out.metric("service.coalesced", stats.coalesced as f64, "count");
    out.metric("generator.lag_ms", lag_p95, "ms");
}
