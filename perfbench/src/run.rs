//! The untraced workload runs and the traced run.

use crate::check::{self, score_bits, Reference};
use crate::serve::{Method, Round, Stop};
use crate::stats::{median, tail};
use crate::suite::{self, Mode};
use crate::trace::{self, Ctx, SpanId, SpanRec, Tracer};
use crate::{corpus, serve as srv};
use estimators::eval::ProgramScores;
use serve::db::{ServeDb, WorkCounters};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times an untraced run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Stretches the timed part of an untraced run is split into; every
/// end-to-end timing is a median over them.
const WINDOWS: usize = 8;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Suite passes on a fresh artifact cache.
    SuiteCold,
    /// Suite passes on the cache a cold pass filled.
    SuiteWarm,
    /// `-O3` suite passes on a fresh cache.
    SuiteO3,
    /// Generated programs through the per-program pipeline.
    Corpus,
    /// Two closed-loop clients against the incremental service.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::SuiteO3,
        Workload::Corpus,
        Workload::Serve,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SuiteWarm => "suite-warm",
            Workload::SuiteO3 => "suite-o3",
            Workload::Corpus => "corpus",
            Workload::Serve => "serve",
        }
    }

    /// The prefix of this workload's per-layer metrics.
    pub fn prefix(self) -> &'static str {
        match self {
            Workload::SuiteCold => "cold",
            Workload::SuiteWarm => "warm",
            Workload::SuiteO3 => "o3",
            Workload::Corpus => "corpus",
            Workload::Serve => "serve",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn mode(self) -> Option<Mode> {
        match self {
            Workload::SuiteCold => Some(Mode::Cold),
            Workload::SuiteWarm => Some(Mode::Warm),
            Workload::SuiteO3 => Some(Mode::O3),
            Workload::Corpus | Workload::Serve => None,
        }
    }

    /// The layers a traced pass of this workload reports self times for.
    fn layers(self) -> &'static [&'static str] {
        const FRONT: [&str; 4] = [
            "minic.parse",
            "minic.sema",
            "flowgraph.build",
            "profiler.compile",
        ];
        const ESTIMATE: [&str; 3] = ["estimate.intra", "estimate.inter", "metric.weight_match"];
        macro_rules! layers {
            ($($extra:expr),*) => {
                &[FRONT[0], FRONT[1], FRONT[2], FRONT[3], $($extra,)* ESTIMATE[0], ESTIMATE[1], ESTIMATE[2]]
            };
        }
        match self {
            Workload::SuiteCold => {
                layers!("cache.load", "cache.store", "profiler.execute")
            }
            Workload::SuiteWarm => layers!("cache.load"),
            Workload::SuiteO3 => layers!(
                "opt.plan",
                "opt.optimize",
                "cache.load",
                "cache.store",
                "profiler.execute"
            ),
            Workload::Corpus => layers!("profiler.execute"),
            Workload::Serve => &[],
        }
    }
}

/// Input sizes of the generated workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Programs in the corpus.
    pub corpus_programs: usize,
    /// Script pairs the serve workload rotates through.
    pub serve_rounds: usize,
    /// Requests per client per round, after the load.
    pub serve_requests: usize,
    /// Rounds in one traced serve pass.
    pub traced_serve_rounds: usize,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            corpus_programs: 1000,
            serve_rounds: 64,
            serve_requests: 200,
            traced_serve_rounds: 8,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the value is an exact count that must repeat bit for bit
    /// for the same seed.
    pub exact: bool,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Every metric.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result (run facts, tables, checks).
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            exact: false,
        });
    }

    fn push_exact(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            exact: true,
        });
    }

    fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                x.name, x.value, x.unit
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// A per-process scratch directory for artifact caches, removed on
/// drop.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicU64,
}

impl WorkDir {
    /// Creates `parent/run-<pid>`.
    ///
    /// # Errors
    ///
    /// If the directory cannot be created.
    pub fn create(parent: &Path) -> Result<WorkDir, String> {
        let root = parent.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A path for a fresh cache directory (not yet created).
    pub fn fresh(&self) -> PathBuf {
        self.root
            .join(format!("cache-{}", self.next.fetch_add(1, Relaxed)))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _best_effort = std::fs::remove_dir_all(&self.root);
    }
}

fn remove(dir: &Path) {
    let _best_effort = std::fs::remove_dir_all(dir);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Workers of the corpus pool: the thread waiting on a pool scope runs
/// tasks too, so `nproc - 1` workers keep `nproc` threads busy.
fn corpus_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Workers of the service database: the two clients plus the pool stay
/// within `nproc` where the pool's one-worker minimum allows.
fn serve_workers() -> usize {
    nproc().saturating_sub(srv::CLIENTS).max(1)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Returns freed heap memory to the kernel, so that every window's RSS
/// starts from the live data alone and not from whatever the allocator
/// kept after the previous window.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the
    // allocator's own free lists, and is safe to call from any thread at
    // any time.
    let _released = unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Runs `f` and returns its result with the peak RSS while it ran, in
/// MiB (the process-wide peak where the kernel cannot reset it).
fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64) {
    release_free_heap();
    let _reset = obs::reset_peak_rss();
    let out = f();
    let peak = obs::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    (out, peak)
}

fn run_facts(workload: &str, seed: u64, pools: &str) -> String {
    format!(
        r#"run: {{"workload": "{workload}", "seed": {seed}, "nproc": {}, "pools": {{{pools}}}}}"#,
        nproc()
    )
}

/// One measured stretch of an untraced run.
struct Window {
    /// Latency of each operation, milliseconds.
    ops_ms: Vec<f64>,
    /// Wall time of the stretch, seconds.
    wall_s: f64,
    /// Peak RSS while it ran, MiB.
    rss_mib: f64,
}

/// The end-to-end metrics every workload reports. Each is a median over
/// windows, so that a slow stretch of a shared machine moves it less
/// than it would move a statistic of the whole run.
struct EndToEnd {
    setup_s: Vec<f64>,
    windows: Vec<Window>,
    accuracy: [f64; 3],
}

impl EndToEnd {
    fn report(self, r: &mut Report) {
        let per_window =
            |f: &dyn Fn(&Window) -> f64| median(&self.windows.iter().map(f).collect::<Vec<_>>());
        let ops: usize = self.windows.iter().map(|w| w.ops_ms.len()).sum();
        let pct = tail(&self.windows[0].ops_ms).1;
        r.push("setup_s", median(&self.setup_s), "s");
        r.push("op_p50_ms", per_window(&|w| median(&w.ops_ms)), "ms");
        r.push("op_tail_ms", per_window(&|w| tail(&w.ops_ms).0), "ms");
        r.push(
            "ops_per_s",
            per_window(&|w| w.ops_ms.len() as f64 / w.wall_s),
            "1/s",
        );
        r.push("peak_rss_mib", per_window(&|w| w.rss_mib), "MiB");
        for (name, v) in ACCURACY.iter().zip(self.accuracy) {
            r.push_exact(*name, v, "%");
        }
        r.notes.push(format!(
            "ops: {ops} in {} windows; op_tail_ms is about p{pct:.1}",
            self.windows.len(),
        ));
    }
}

const ACCURACY: [&str; 3] = ["wm_intra_markov", "wm_inv_markov", "wm_cs_markov"];

/// Splits `seconds` into [`WINDOWS`] equal stretches and calls `f` once
/// per stretch with its end; `f` runs operations until then (finishing
/// the one in flight) and returns their latencies in milliseconds.
fn timed_windows(seconds: f64, mut f: impl FnMut(Instant) -> Vec<f64>) -> Vec<Window> {
    let start = Instant::now();
    (1..=WINDOWS)
        .map(|k| {
            let until = start + Duration::from_secs_f64(seconds * k as f64 / WINDOWS as f64);
            let t0 = Instant::now();
            let (ops_ms, rss_mib) = with_peak_rss(|| f(until));
            Window {
                ops_ms,
                wall_s: t0.elapsed().as_secs_f64(),
                rss_mib,
            }
        })
        .collect()
}

/// An untraced run of one workload.
///
/// # Errors
///
/// If the work directory or the reference cannot be set up.
pub fn untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    scratch: &Path,
) -> Result<Report, String> {
    let work = WorkDir::create(scratch)?;
    match workload.mode() {
        Some(mode) => untraced_suite(mode, seed, seconds, &work),
        None if workload == Workload::Corpus => Ok(untraced_corpus(seed, seconds, sizes)),
        None => Ok(untraced_serve(seed, seconds, sizes)),
    }
}

/// One suite pass through the product path, checked; returns its wall
/// time in milliseconds and its scores.
fn suite_op(
    mode: Mode,
    warm_dir: Option<&Path>,
    work: &WorkDir,
    reference: &Reference,
    r: &mut Report,
) -> (f64, Vec<ProgramScores>) {
    let dir = warm_dir.map_or_else(|| work.fresh(), Path::to_path_buf);
    let t0 = Instant::now();
    let pass = suite::product_pass(mode, &dir);
    let wall = ms(t0.elapsed());
    if warm_dir.is_none() {
        remove(&dir);
    }
    let (a, f) = suite::check_profiles(&pass.profiles, reference);
    r.check(a, f);
    (wall, pass.scores)
}

fn untraced_suite(mode: Mode, seed: u64, seconds: f64, work: &WorkDir) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut state: Option<(Reference, Option<PathBuf>)> = None;
    for _ in 0..SETUPS {
        if let Some((_, Some(dir))) = state.take() {
            remove(&dir);
        }
        let t0 = Instant::now();
        let reference = check::reference()?;
        let warm_dir = (mode == Mode::Warm).then(|| {
            let dir = work.fresh();
            suite::product_pass(Mode::Cold, &dir);
            dir
        });
        // One discarded pass lets lazy initialization (the global pool,
        // allocator arenas, file-system caches) finish before timing.
        suite_op(mode, warm_dir.as_deref(), work, &reference, &mut r);
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((reference, warm_dir));
    }
    let (reference, warm_dir) = state.expect("set up at least once");
    let mut first: Option<Vec<ProgramScores>> = None;
    let mut mismatched = 0;
    let mut passes = 0;
    let windows = timed_windows(seconds, |until| {
        let mut walls = Vec::new();
        while walls.is_empty() || Instant::now() < until {
            let (wall, scores) = suite_op(mode, warm_dir.as_deref(), work, &reference, &mut r);
            walls.push(wall);
            // Every timed pass must score exactly like the first.
            match &first {
                Some(f) => {
                    let same = f
                        .iter()
                        .zip(&scores)
                        .all(|(a, b)| score_bits(a) == score_bits(b));
                    mismatched += u64::from(!same);
                }
                None => first = Some(scores),
            }
        }
        passes += walls.len() as u64;
        walls
    });
    r.check(passes, mismatched);
    EndToEnd {
        setup_s,
        windows,
        accuracy: suite::accuracy(&first.unwrap_or_default()),
    }
    .report(&mut r);
    r.notes.insert(
        0,
        run_facts(
            mode_workload(mode).name(),
            seed,
            &format!(r#""global": {}"#, pool::global().workers()),
        ),
    );
    Ok(r)
}

fn mode_workload(mode: Mode) -> Workload {
    match mode {
        Mode::Cold => Workload::SuiteCold,
        Mode::Warm => Workload::SuiteWarm,
        Mode::O3 => Workload::SuiteO3,
    }
}

fn untraced_corpus(seed: u64, seconds: f64, sizes: Sizes) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        let inputs = corpus::inputs(seed, sizes.corpus_programs);
        let pool = pool::Pool::new(corpus_workers());
        let warm_up = corpus::pass(&pool, &inputs, Ctx::OFF);
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((inputs, pool, warm_up));
    }
    let (inputs, pool, baseline) = state.expect("set up at least once");
    let mut passes = Vec::new();
    let windows = timed_windows(seconds, |until| {
        let mut lat = Vec::new();
        while lat.is_empty() || Instant::now() < until {
            let results = corpus::pass(&pool, &inputs, Ctx::OFF);
            lat.extend(results.iter().map(|x| x.ms));
            passes.push(results);
        }
        lat
    });
    // Checked outside the timed region: every run against the AST
    // walker, every score against the first pass's.
    let walker = corpus::walker_digests(&pool, &inputs);
    for results in std::iter::once(&baseline).chain(&passes) {
        for ((x, want), base) in results.iter().zip(&walker).zip(&baseline) {
            let same_scores = x.scores.map(f64::to_bits) == base.scores.map(f64::to_bits);
            r.check(1, u64::from(x.digest != *want || !same_scores));
        }
    }
    EndToEnd {
        setup_s,
        windows,
        accuracy: corpus::accuracy(&baseline),
    }
    .report(&mut r);
    r.notes.insert(
        0,
        run_facts("corpus", seed, &format!(r#""corpus": {}"#, pool.workers())),
    );
    r
}

fn untraced_serve(seed: u64, seconds: f64, sizes: Sizes) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        let rounds = srv::inputs(seed, sizes.serve_rounds, sizes.serve_requests);
        let db = Arc::new(ServeDb::new(Some(serve_workers()), None));
        let warm_up = srv::replay(&db, &rounds, [0; srv::CLIENTS], Stop::Scripts(1), Ctx::OFF);
        r.check(warm_up.latencies.len() as u64, warm_up.errors);
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((rounds, db));
    }
    let (rounds, db) = state.expect("set up at least once");
    let mut first = [1; srv::CLIENTS];
    let windows = timed_windows(seconds, |until| {
        let res = srv::replay(&db, &rounds, first, Stop::At(until), Ctx::OFF);
        r.check(res.latencies.len() as u64, res.errors);
        for (f, l) in first.iter_mut().zip(&res.last) {
            *f = l + 1;
        }
        res.latencies.iter().map(|(_, us)| us / 1e3).collect()
    });
    let last: Vec<usize> = first.iter().map(|f| (f - 1) % rounds.len()).collect();
    r.check(1, u64::from(!srv::matches_cold_load(&db, &rounds, &last)));
    let accuracy = srv::suite_accuracy();
    r.check(1, u64::from(accuracy.is_none()));
    EndToEnd {
        setup_s,
        windows,
        accuracy: accuracy.unwrap_or_default(),
    }
    .report(&mut r);
    r.notes.insert(
        0,
        run_facts(
            "serve",
            seed,
            &format!(
                r#""serve_db": {}, "clients": {}"#,
                db.workers(),
                srv::CLIENTS
            ),
        ),
    );
    r
}

/// State shared by the traced passes of every workload.
struct Env {
    reference: Reference,
    work: WorkDir,
    warm_dir: PathBuf,
    corpus: Vec<corpus::Input>,
    corpus_pool: pool::Pool,
    walker: Vec<u64>,
    db: Arc<ServeDb>,
    rounds: Vec<Round>,
    sizes: Sizes,
}

/// One workload's measurements in one traced round.
#[derive(Default)]
struct Sample {
    untraced_ms: f64,
    traced_ms: f64,
    /// Per-layer values that may differ between rounds (times, pool
    /// counters); the report gives their median.
    values: Vec<(String, f64, &'static str)>,
    /// Exact counts, which must repeat in every round.
    exact: Vec<(String, f64, &'static str)>,
    spans: Vec<SpanRec>,
}

/// Runs `traced` inside a root span with `obs` counters on; returns its
/// result, the spans, the wall time and the `obs` counters.
fn with_root<R>(f: impl FnOnce(Ctx) -> R) -> (R, Vec<SpanRec>, f64, BTreeMap<String, u64>) {
    let tracer = Tracer::default();
    obs::reset();
    obs::set_enabled(true);
    let t0 = Instant::now();
    let out = tracer.span(SpanId::NONE, "pass", "", |root| f(Ctx::new(&tracer, root)));
    let wall = ms(t0.elapsed());
    obs::set_enabled(false);
    let counters = obs::snapshot().counters;
    (out, tracer.spans(), wall, counters)
}

/// Runs the untraced and traced halves in the given order.
fn both<A, B>(traced_first: bool, u: impl FnOnce() -> A, t: impl FnOnce() -> B) -> (A, B) {
    if traced_first {
        let b = t();
        (u(), b)
    } else {
        let a = u();
        (a, t())
    }
}

fn layer_times(w: Workload, spans: &[SpanRec], s: &mut Sample) {
    let by = trace::self_ms_by_layer(spans);
    let p = w.prefix();
    for &layer in w.layers() {
        let v: f64 = by
            .iter()
            .filter(|((n, _), _)| *n == layer)
            .map(|(_, v)| v)
            .sum();
        s.values.push((format!("{p}.{layer}_ms"), v, "ms"));
    }
    let root: f64 = by
        .iter()
        .filter(|((n, _), _)| *n == "pass")
        .map(|(_, v)| v)
        .sum();
    s.values
        .push((format!("{p}.trace.unattributed_ms"), root, "ms"));
}

fn obs_counts(p: &str, counters: &BTreeMap<String, u64>, s: &mut Sample) {
    let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    s.exact.push((
        format!("{p}.linsolve.solves"),
        c("linsolve.solves"),
        "count",
    ));
    s.exact.push((
        format!("{p}.linsolve.damped_fallback"),
        c("linsolve.scc.damped_fallback"),
        "count",
    ));
}

fn pool_counts(p: &str, before: pool::PoolStats, after: pool::PoolStats, s: &mut Sample) {
    s.values.push((
        format!("{p}.pool.tasks"),
        (after.tasks - before.tasks) as f64,
        "count",
    ));
    s.values.push((
        format!("{p}.pool.steals"),
        (after.steals - before.steals) as f64,
        "count",
    ));
    s.values.push((
        format!("{p}.pool.idle_ms"),
        (after.idle_ns - before.idle_ns) as f64 / 1e6,
        "ms",
    ));
}

fn traced_suite(mode: Mode, env: &Env, traced_first: bool, r: &mut Report) -> Sample {
    let w = mode_workload(mode);
    let dir = |env: &Env| match mode {
        Mode::Warm => env.warm_dir.clone(),
        Mode::Cold | Mode::O3 => env.work.fresh(),
    };
    let mut pool_stats = None;
    let ((untraced_ms, product), (traced, spans, traced_ms, counters)) = both(
        traced_first,
        || {
            let d = dir(env);
            let t0 = Instant::now();
            let pass = suite::product_pass(mode, &d);
            let wall = ms(t0.elapsed());
            if mode != Mode::Warm {
                remove(&d);
            }
            (wall, pass)
        },
        || {
            let d = dir(env);
            let before = pool::global().stats();
            let out = with_root(|ctx| suite::traced_pass(mode, &d, ctx, &env.reference));
            pool_stats = Some((before, pool::global().stats()));
            if mode != Mode::Warm {
                remove(&d);
            }
            out
        },
    );
    let (a, f) = suite::check_profiles(&product.profiles, &env.reference);
    r.check(a, f);
    r.check(traced.attempted, traced.failed);
    // The traced pass must have done exactly the product path's work.
    for (p, t) in product.scores.iter().zip(&traced.scores) {
        r.check(1, u64::from(score_bits(p) != score_bits(t)));
    }
    let mut s = Sample {
        untraced_ms,
        traced_ms,
        ..Sample::default()
    };
    layer_times(w, &spans, &mut s);
    let p = w.prefix();
    let c = &traced.counts;
    if mode != Mode::Warm {
        let by = trace::self_ms_by_layer(&spans);
        for b in ::suite::all() {
            let v = by
                .get(&("profiler.execute", b.name))
                .copied()
                .unwrap_or(0.0);
            s.values
                .push((format!("{p}.profiler.execute_ms.{}", b.name), v, "ms"));
        }
        let exec_ms: f64 = by
            .iter()
            .filter(|((n, _), _)| *n == "profiler.execute")
            .map(|(_, v)| v)
            .sum();
        s.exact
            .push((format!("{p}.profiler.steps"), c.steps as f64, "count"));
        s.values.push((
            format!("{p}.profiler.ns_per_step"),
            exec_ms * 1e6 / c.steps.max(1) as f64,
            "ns",
        ));
    }
    match mode {
        Mode::Cold | Mode::Warm => {
            s.exact
                .push((format!("{p}.cache.hits"), c.cache_hits as f64, "count"));
            s.exact
                .push((format!("{p}.cache.misses"), c.cache_misses as f64, "count"));
        }
        Mode::O3 => {
            let o = &c.opt;
            for (name, v) in [
                ("ops_before", c.ops_before),
                ("ops_after", c.ops_after),
                ("inlined_calls", o.inlined_calls),
                ("folded", o.folded),
                ("dce_ops", o.dce_ops),
                ("fused", o.fused),
                ("mined", o.mined),
            ] {
                s.exact.push((format!("o3.opt.{name}"), v as f64, "count"));
            }
        }
    }
    if mode == Mode::Warm {
        let lookups = (c.cache_hits + c.cache_misses).max(1);
        s.exact.push((
            "warm.cache.hit_ratio".into(),
            c.cache_hits as f64 / lookups as f64,
            "ratio",
        ));
        s.exact
            .push(("suite.flowgraph.blocks".into(), c.blocks as f64, "count"));
        obs_counts("suite", &counters, &mut s);
    }
    if let (Mode::Cold, Some((before, after))) = (mode, pool_stats) {
        pool_counts("cold", before, after, &mut s);
    }
    s.spans = spans;
    s
}

fn traced_corpus(env: &Env, traced_first: bool, r: &mut Report) -> Sample {
    let before = env.corpus_pool.stats();
    let mut stats = (before, before);
    let ((untraced_ms, product), (traced, spans, traced_ms, counters)) = both(
        traced_first,
        || {
            let t0 = Instant::now();
            let res = corpus::pass(&env.corpus_pool, &env.corpus, Ctx::OFF);
            (ms(t0.elapsed()), res)
        },
        || {
            let b = env.corpus_pool.stats();
            let out = with_root(|ctx| corpus::pass(&env.corpus_pool, &env.corpus, ctx));
            stats = (b, env.corpus_pool.stats());
            out
        },
    );
    for ((p, t), want) in product.iter().zip(&traced).zip(&env.walker) {
        let same = p.digest == t.digest && p.scores.map(f64::to_bits) == t.scores.map(f64::to_bits);
        r.check(1, u64::from(!same || t.digest != *want));
    }
    let mut s = Sample {
        untraced_ms,
        traced_ms,
        ..Sample::default()
    };
    layer_times(Workload::Corpus, &spans, &mut s);
    pool_counts("corpus", stats.0, stats.1, &mut s);
    let lat: Vec<f64> = traced.iter().map(|x| x.ms).collect();
    s.values
        .push(("corpus.program_p50_ms".into(), median(&lat), "ms"));
    s.values
        .push(("corpus.program_p99_ms".into(), tail(&lat).0, "ms"));
    let sum = |f: fn(&corpus::ProgramResult) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    s.exact
        .push(("corpus.flowgraph.blocks".into(), sum(|x| x.blocks), "count"));
    s.exact
        .push(("corpus.profiler.steps".into(), sum(|x| x.steps), "count"));
    obs_counts("corpus", &counters, &mut s);
    s.spans = spans;
    s
}

fn traced_serve(env: &Env, traced_first: bool, r: &mut Report) -> Sample {
    let scripts = Stop::Scripts(env.sizes.traced_serve_rounds);
    let mut work = (WorkCounters::default(), WorkCounters::default());
    let ((untraced_ms, u_errors), ((lat, t_errors), spans, traced_ms, counters)) = both(
        traced_first,
        || {
            let t0 = Instant::now();
            let res = srv::replay(&env.db, &env.rounds, [0; srv::CLIENTS], scripts, Ctx::OFF);
            (ms(t0.elapsed()), res.errors)
        },
        || {
            let before = env.db.total_work();
            let out = with_root(|ctx| {
                let res = srv::replay(&env.db, &env.rounds, [0; srv::CLIENTS], scripts, ctx);
                (res.latencies, res.errors)
            });
            work = (before, env.db.total_work());
            out
        },
    );
    r.check(2 * lat.len() as u64, u_errors + t_errors);
    let mut s = Sample {
        untraced_ms,
        traced_ms,
        ..Sample::default()
    };
    for m in Method::ALL {
        let xs: Vec<f64> = lat
            .iter()
            .filter(|(x, _)| *x == m)
            .map(|(_, us)| *us)
            .collect();
        s.values
            .push((format!("serve.{}_p50_us", m.name()), median(&xs), "us"));
        s.values
            .push((format!("serve.{}_p99_us", m.name()), tail(&xs).0, "us"));
    }
    let by = trace::self_ms_by_layer(&spans);
    let root = by.get(&("pass", "")).copied().unwrap_or(0.0);
    s.values
        .push(("serve.trace.unattributed_ms".into(), root, "ms"));
    let (b, a) = work;
    let d = |f: fn(&WorkCounters) -> u64| (f(&a) - f(&b)) as f64;
    let units = (a.total_units() - b.total_units()) as f64;
    s.exact.push(("serve.work_units".into(), units, "count"));
    let ratio = |reused: f64, fresh: f64| reused / (reused + fresh).max(1.0);
    s.exact.push((
        "serve.funcs_reused_ratio".into(),
        ratio(d(|w| w.funcs_reused), d(|w| w.funcs_lowered)),
        "ratio",
    ));
    s.exact.push((
        "serve.solves_reused_ratio".into(),
        ratio(d(|w| w.solves_reused), d(|w| w.blocks_solved)),
        "ratio",
    ));
    obs_counts("serve", &counters, &mut s);
    s.spans = spans;
    s
}

/// The traced run: rounds of every workload, each as an untraced
/// product-path pass and a traced pass (alternating which goes first),
/// until `seconds` have passed (at least one round). Per-layer times
/// are medians over rounds; exact counts come from the first round and
/// must repeat in every later one.
///
/// # Errors
///
/// If the work directory or the reference cannot be set up.
pub fn traced(seed: u64, seconds: f64, sizes: Sizes, scratch: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let work = WorkDir::create(scratch)?;
    let reference = check::reference()?;
    let warm_dir = work.fresh();
    suite::product_pass(Mode::Cold, &warm_dir);
    let corpus_inputs = corpus::inputs(seed, sizes.corpus_programs);
    let corpus_pool = pool::Pool::new(corpus_workers());
    let walker = corpus::walker_digests(&corpus_pool, &corpus_inputs);
    let rounds = srv::inputs(seed, sizes.serve_rounds, sizes.serve_requests);
    let db = Arc::new(ServeDb::new(Some(serve_workers()), None));
    let env = Env {
        reference,
        work,
        warm_dir,
        corpus: corpus_inputs,
        corpus_pool,
        walker,
        db,
        rounds,
        sizes,
    };
    // Bring the service to the state every traced serve pass starts
    // from: the end of the traced rounds.
    let traced_rounds = Stop::Scripts(sizes.traced_serve_rounds);
    srv::replay(
        &env.db,
        &env.rounds,
        [0; srv::CLIENTS],
        traced_rounds,
        Ctx::OFF,
    );

    let mut series: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut exact: Vec<(String, f64, &'static str)> = Vec::new();
    let mut walls: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let mut last_spans: Vec<(Workload, Vec<SpanRec>)> = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let traced_first = round % 2 == 1;
        let mut round_exact = Vec::new();
        last_spans.clear();
        for w in Workload::ALL {
            let s = match w.mode() {
                Some(mode) => traced_suite(mode, &env, traced_first, &mut r),
                None if w == Workload::Corpus => traced_corpus(&env, traced_first, &mut r),
                None => traced_serve(&env, traced_first, &mut r),
            };
            let wall = walls.entry(w.prefix()).or_default();
            wall.0.push(s.untraced_ms);
            wall.1.push(s.traced_ms);
            for (name, v, unit) in s.values {
                series.entry(name).or_insert((Vec::new(), unit)).0.push(v);
            }
            round_exact.extend(s.exact);
            last_spans.push((w, s.spans));
        }
        if round == 0 {
            exact = round_exact;
        } else {
            let same = exact.len() == round_exact.len()
                && exact
                    .iter()
                    .zip(&round_exact)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            if !same {
                r.notes.push(format!(
                    "exact counts differ between round 0 and round {round}"
                ));
            }
            r.check(1, u64::from(!same));
        }
        round += 1;
    }
    let last = (sizes.traced_serve_rounds - 1) % env.rounds.len();
    let final_ok = srv::matches_cold_load(&env.db, &env.rounds, &[last; srv::CLIENTS]);
    r.check(1, u64::from(!final_ok));

    for (name, (xs, unit)) in &series {
        r.push(name.clone(), median(xs), unit);
    }
    for (name, v, unit) in exact {
        r.push_exact(name, v, unit);
    }
    for (prefix, (u, t)) in &walls {
        let (u, t) = (median(u), median(t));
        r.push(
            format!("{prefix}.trace.overhead_pct"),
            (t - u) / u * 100.0,
            "%",
        );
    }
    design_checks(&last_spans, &mut r);
    r.notes.insert(
        0,
        run_facts(
            "all (traced)",
            seed,
            &format!(
                r#""global": {}, "corpus": {}, "serve_db": {}, "clients": {}, "rounds": {round}"#,
                pool::global().workers(),
                env.corpus_pool.workers(),
                env.db.workers(),
                srv::CLIENTS
            ),
        ),
    );
    let trace_file = scratch.join(format!("trace-seed{seed}.json"));
    let all: Vec<SpanRec> = last_spans.into_iter().flat_map(|(_, s)| s).collect();
    if std::fs::write(&trace_file, trace::to_json(&all)).is_ok() {
        r.notes
            .push(format!("spans of the last round: {}", trace_file.display()));
    }
    Ok(r)
}

/// The workload-design checks: the VM must be the largest self-time
/// layer of the cold and `o3` passes, and parse + sema + CFG build the
/// largest of the corpus and warm passes. Reports each share of the
/// summed layer self time and notes whether the check held.
fn design_checks(spans: &[(Workload, Vec<SpanRec>)], r: &mut Report) {
    const FRONT: [&str; 3] = ["minic.parse", "minic.sema", "flowgraph.build"];
    for (w, spans) in spans {
        let mut by: BTreeMap<&str, f64> = BTreeMap::new();
        for ((name, _), v) in trace::self_ms_by_layer(spans) {
            if name != "pass" {
                *by.entry(name).or_default() += v;
            }
        }
        let total: f64 = by.values().sum();
        let (label, group): (&str, &[&str]) = match w {
            Workload::SuiteCold | Workload::SuiteO3 => ("execute", &["profiler.execute"]),
            Workload::SuiteWarm | Workload::Corpus => ("frontend", &FRONT),
            Workload::Serve => continue,
        };
        let mine: f64 = group
            .iter()
            .map(|l| by.get(l).copied().unwrap_or(0.0))
            .sum();
        let largest_other = by
            .iter()
            .filter(|(l, _)| !group.contains(l))
            .map(|(_, v)| *v)
            .fold(0.0, f64::max);
        let holds = mine > largest_other;
        r.push(
            format!("{}.trace.{label}_share_pct", w.prefix()),
            mine / total.max(1e-9) * 100.0,
            "%",
        );
        r.notes.push(format!(
            "design check {}: {label} is the largest self-time layer: {} ({:.1} ms vs next {:.1} ms)",
            w.name(),
            if holds { "holds" } else { "FAILS: the workload does not isolate this layer" },
            mine,
            largest_other
        ));
    }
}

/// The per-layer table printed by a traced run: `name value unit`.
pub fn table(r: &Report) -> String {
    let mut out = String::new();
    for m in &r.metrics {
        let _ = writeln!(out, "  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    out
}
