//! The four workloads: set-up, measured passes, output checks, and the
//! traced variant of each.
//!
//! Every workload is built from the program's own definitions
//! (`fleet::home_spec`, `fleet::scenario_spec`,
//! `CellFleetConfig::default()`, `registry()`, `relay::*`) and runs
//! through its public entry points on one `Pool` of at most `nproc`
//! workers. A pass that panics or fails its output check counts all of
//! its units as failed.

use std::any::Any;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use threegol_bench::fleet::{
    self, home_spec, scenario_spec, CellFleetConfig, FleetDigest, RuntimeMode, DEFAULT_CHUNK,
};
use threegol_bench::{registry, DynExperiment, Pool, Scale};
use threegol_proxy::HomeSpec;
use threegol_traces::DEFAULT_SCENARIO_SEED;

use crate::trace::{self, median, now_ns, tail_quantile, worker_id, Span, NO_HOME};
use crate::traced::{self, FleetPass};
use crate::{probes, Outcome, Plan, Workload};

/// Homes per `paper_fleet` pass. Every fleet size here is a whole
/// number of 64-home chunks per worker on two workers, so passes are
/// not dominated by a short last chunk, and at least 200, so the traced
/// p95 leaves 10 samples beyond it.
const PAPER_HOMES: u32 = 768;
/// Homes per `scenario_week` pass.
const WEEK_HOMES: u32 = 256;
/// Simulated days per `scenario_week` home.
const WEEK_DAYS: u16 = 7;
/// City homes per `cells_city` pass.
const CITY_HOMES: u32 = 512;
/// Home-index windows a seed can select.
const WINDOWS: u64 = 4096;
/// Windows start on multiples of 12 homes, so every seed's window
/// holds the same mix of ADSL tiers (index mod 4) and phone counts
/// (index mod 3).
const MIX_PERIOD: u32 = 12;

/// Process user+sys CPU seconds, all threads, from `getrusage`.
fn cpu_secs() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `RUsage` has the layout of the 64-bit Linux `struct
    // rusage` (two `timeval`s, then fourteen `long`s), and the pointer
    // is to a live, writable value of it. RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers for `units` parallel units: never more than `nproc`.
fn workers_for(units: usize) -> usize {
    nproc().min(units).max(1)
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// One measured call: its result (or panic), wall and CPU seconds.
struct Timed<R> {
    value: Result<R, String>,
    wall: f64,
    cpu: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let (cpu, start) = (cpu_secs(), Instant::now());
    let value = catch_unwind(AssertUnwindSafe(f)).map_err(panic_message);
    Timed { value, wall: start.elapsed().as_secs_f64(), cpu: cpu_secs() - cpu }
}

/// Call `pass` until `seconds` have gone by, stopping when another
/// pass as long as the last would overrun; at least once.
fn for_seconds(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        pass();
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            return;
        }
    }
}

/// Set up — start a pool of `workers` and run `warm` on it — then run
/// `body` on that pool with the set-up seconds.
fn set_up<R>(workers: usize, warm: impl Fn(&Pool), body: impl FnOnce(&Pool, f64) -> R) -> R {
    let start = Instant::now();
    Pool::with(workers, |pool| {
        // A failing warm-up fails the measured passes the same way;
        // they count it.
        let _ = catch_unwind(AssertUnwindSafe(|| warm(pool)));
        body(pool, start.elapsed().as_secs_f64())
    })
}

/// The untraced measurement: set up once, then run `run` passes of
/// `units` units each for the plan's seconds, checking each with
/// `check`. Records the set-up time, every good pass's rates and the
/// process's peak RSS.
#[allow(clippy::too_many_arguments)]
fn measure<U>(
    plan: &Plan,
    outcome: &mut Outcome,
    workers: usize,
    units: u64,
    warm: impl Fn(&Pool),
    run: impl Fn(&Pool) -> U,
    mut check: impl FnMut(&U) -> Result<(), String>,
) {
    set_up(workers, warm, |pool, setup_s| {
        outcome.setup_s.push(setup_s);
        for_seconds(plan.seconds, || {
            let t = timed(|| run(pool));
            if outcome.pass(units, t.value.as_ref().map_err(Clone::clone).and_then(&mut check)) {
                outcome.passes.push((units as f64 / t.wall, t.cpu * 1e3 / units as f64));
            }
        });
    });
    outcome.rss_mib.push(fleet::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1048576.0));
}

/// The traced measurement: set up once, then alternate an untraced
/// `run` pass and a `traced` pass for the plan's seconds, checking both
/// with `check` (the traced result through `view`), so the traced
/// output must equal the untraced one. Records `trace.overhead_frac`
/// and returns the good traced passes.
#[allow(clippy::too_many_arguments)]
fn alternate<U, T>(
    plan: &Plan,
    outcome: &mut Outcome,
    workers: usize,
    units: u64,
    warm: impl Fn(&Pool),
    run: impl Fn(&Pool) -> U,
    traced: impl Fn(&Pool) -> T,
    view: fn(&T) -> &U,
    mut check: impl FnMut(&U) -> Result<(), String>,
) -> Vec<T> {
    let (mut untraced_walls, mut traced_walls, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    set_up(workers, warm, |pool, _| {
        for_seconds(plan.seconds, || {
            let t = timed(|| run(pool));
            if outcome.pass(units, t.value.as_ref().map_err(Clone::clone).and_then(&mut check)) {
                untraced_walls.push(t.wall);
            }
            let t = timed(|| traced(pool));
            let checked = t.value.as_ref().map_err(Clone::clone).and_then(|v| check(view(v)));
            if outcome.pass(units, checked) {
                traced_walls.push(t.wall);
                kept.push(t.value.expect("checked above"));
            }
        });
    });
    if !untraced_walls.is_empty() && !traced_walls.is_empty() {
        let ratio = median(&mut traced_walls) / median(&mut untraced_walls);
        outcome.set("trace.overhead_frac", ratio - 1.0);
    }
    outcome.context("traced_passes", kept.len());
    kept
}

fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(name) => read(&format!(".git/{name}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Run the plan's workload.
pub fn run(plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.context("workload", format!("\"{}\"", plan.workload.name()));
    outcome.context("seed", plan.seed);
    outcome.context("seconds", plan.seconds);
    outcome.context("trace", plan.trace);
    outcome.context("nproc", nproc());
    outcome.context("git_commit", format!("\"{}\"", git_commit()));
    outcome.context("fresh_runtime", RuntimeMode::default_mode() == RuntimeMode::Fresh);
    match plan.workload {
        Workload::PaperFleet | Workload::ScenarioWeek => fleet_workload(plan, &mut outcome),
        Workload::CellsCity => cells_city(plan, &mut outcome),
        Workload::PaperSweep => paper_sweep(plan, &mut outcome),
    }
    outcome
}

/// A window of homes from the repository's street.
#[derive(Debug, Clone, Copy)]
struct Street {
    /// First home index of the window.
    start: u32,
    /// Homes in the window.
    homes: u32,
    /// `Scenario::Traced` seed for a week-long street, `None` for the
    /// paper-default script.
    week: Option<u64>,
}

impl Street {
    fn of(plan: &Plan) -> Street {
        let (homes, week) = match plan.workload {
            Workload::ScenarioWeek => {
                (WEEK_HOMES, Some(DEFAULT_SCENARIO_SEED.wrapping_add(plan.seed)))
            }
            _ => (PAPER_HOMES, None),
        };
        let stride = homes.next_multiple_of(MIX_PERIOD);
        Street { start: (plan.seed % WINDOWS) as u32 * stride, homes, week }
    }

    /// Spec of the window's `i`-th home.
    fn spec(self, i: u32) -> HomeSpec {
        match self.week {
            None => home_spec(self.start + i),
            Some(seed) => scenario_spec(self.start + i, WEEK_DAYS, seed),
        }
    }

    /// The untraced pass: the program's own streamed fleet.
    fn run(self, pool: &Pool) -> FleetDigest {
        fleet::run_fleet_with(self.homes as usize, DEFAULT_CHUNK, pool, move |i| self.spec(i))
    }

    /// The output check of one pass against the first pass's digest.
    fn check(self, digest: &FleetDigest, first: &mut Option<FleetDigest>) -> Result<(), String> {
        if digest.homes != self.homes as u64 {
            return Err(format!("{} of {} homes folded", digest.homes, self.homes));
        }
        let first = first.get_or_insert(*digest);
        if digest != first {
            return Err(format!(
                "digest {:016x} differs from the first pass's {:016x}",
                digest.digest(),
                first.digest()
            ));
        }
        let s = &digest.scenario;
        let why = match self.week {
            None if digest.vod_gain.min <= 1.0 => Some("worst VoD gain is not above 1"),
            None if digest.upload_gain.min <= 1.0 => Some("worst upload gain is not above 1"),
            Some(_) if s.captured_fraction() > 1.0 => Some("allowance used exceeds granted"),
            Some(_) if s.overrun_device_days > s.device_days => {
                Some("more overrun device-days than device-days")
            }
            Some(_) if s.sessions == 0 => Some("no sessions"),
            _ => None,
        };
        why.map_or(Ok(()), |why| Err(why.to_string()))
    }
}

fn fleet_workload(plan: &Plan, outcome: &mut Outcome) {
    let street = Street::of(plan);
    let units = street.homes as u64;
    let workers = workers_for(street.homes.div_ceil(DEFAULT_CHUNK as u32) as usize);
    outcome.context("workers", workers);
    outcome.context("chunk", DEFAULT_CHUNK);
    outcome.context("units", units);
    outcome.context("home_start", street.start);
    outcome.context("scenario_seed", street.week.map_or("null".to_string(), |s| s.to_string()));
    let warm_homes = 2 * workers;
    let warm = |pool: &Pool| {
        fleet::run_fleet_with(warm_homes, 1, pool, move |i| street.spec(i));
    };
    let mut first = None;
    let check = |d: &FleetDigest| street.check(d, &mut first);
    let run = |pool: &Pool| street.run(pool);
    if !plan.trace {
        measure(plan, outcome, workers, units, warm, run, check);
        outcome.fingerprint = first.map(|d| format!("{:016x}/{}", d.digest(), d.net_events));
        return;
    }
    let traced = |pool: &Pool| {
        traced::traced_fleet(street.homes, DEFAULT_CHUNK as u32, pool, move |i| street.spec(i))
    };
    let view: fn(&FleetPass) -> &FleetDigest = |p| &p.digest;
    let passes = alternate(plan, outcome, workers, units, warm, run, traced, view, check);
    if !passes.is_empty() {
        fleet_layers(outcome, street, &passes);
        let spans: Vec<&[Span]> = passes.iter().map(|p| &p.spans[..]).collect();
        write_spans(plan, outcome, &spans);
    }
    run_probes(outcome, street);
}

fn fleet_layers(outcome: &mut Outcome, street: Street, passes: &[FleetPass]) {
    let (mut busy, mut tail, mut chunk) = (Vec::new(), Vec::new(), Vec::new());
    for pass in passes {
        let (b, t, c) = traced::exec_split(pass);
        busy.push(b);
        tail.push(t);
        chunk.push(c);
    }
    outcome.set("exec.busy_frac", median(&mut busy));
    outcome.set("exec.tail_ms", median(&mut tail));
    outcome.set("exec.chunk_ms_max", median(&mut chunk));
    outcome
        .set("runtime.reset_us_p50", median(&mut traced::durations(passes, "runtime.reset", 1e3)));
    outcome.set(
        "digest.observe_us_p50",
        median(&mut traced::durations(passes, "digest.observe", 1e3)),
    );
    outcome.set("digest.merge_us_p50", median(&mut traced::durations(passes, "digest.merge", 1e3)));

    let homes: Vec<&Span> =
        passes.iter().flat_map(|p| p.spans.iter()).filter(|s| s.name == "proxy.home").collect();
    let mut ms: Vec<f64> = homes.iter().map(|s| s.ns() as f64 / 1e6).collect();
    let by_devices: Vec<(f64, f64)> =
        homes.iter().zip(&ms).map(|(s, &m)| (home_spec(s.home).devices as f64, m)).collect();
    outcome.set("home.samples", ms.len() as f64);
    outcome.set("home.ms_per_device", trace::slope(&by_devices));
    if street.week.is_some() {
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        outcome.set("home.ms_per_sim_day", mean / WEEK_DAYS as f64);
    }
    outcome.set("home.ms_p50", median(&mut ms));
    match tail_quantile(&mut ms, 0.95) {
        Some(p95) => outcome.set("home.ms_p95", p95),
        None => outcome.problems.push("fewer than 10 home samples beyond p95".to_string()),
    }

    let first = &passes[0];
    let per_home = |n: u64| n as f64 / first.digest.homes as f64;
    outcome.set("net.tcp_binds", per_home(first.net.tcp_binds));
    outcome.set("net.tcp_connects", per_home(first.net.tcp_connects));
    outcome.set("net.udp_binds", per_home(first.net.udp_binds));
    outcome.set("net.datagrams", per_home(first.net.datagrams));
    client_layers(outcome, &first.digest);
    if street.week.is_some() {
        let s = &first.digest.scenario;
        outcome.set("scenario.sessions_per_home", s.sessions as f64 / s.homes as f64);
        outcome.set("scenario.adsl_only_frac", s.adsl_only_sessions as f64 / s.sessions as f64);
        outcome.set("scenario.overrun_frac", s.overrun_rate());
        outcome.set("scenario.captured_frac", s.captured_fraction());
    }
}

/// The virtual-time client statistics of a fleet digest.
fn client_layers(outcome: &mut Outcome, d: &FleetDigest) {
    let total = d.vod_bytes() + d.upload_bytes();
    outcome.set("client.bytes_per_home", total / d.homes as f64);
    outcome.set("client.onload_frac", d.device_bytes() / total);
    outcome.set("client.waste_frac", d.wasted_bytes() / d.upload_bytes());
    outcome.set("client.vod_secs_p50", d.vod_secs.p50());
    outcome.set("client.upload_secs_p50", d.upload_secs.p50());
}

/// Every probe. `traces.home_day` runs over a week of `street`'s homes
/// at its scenario seed (the default one for a paper-default street).
fn run_probes(outcome: &mut Outcome, street: Street) {
    let day_seed = street.week.unwrap_or(DEFAULT_SCENARIO_SEED);
    let homes: Vec<(u32, usize)> = (0..street.homes)
        .map(|i| (street.start + i, home_spec(street.start + i).devices))
        .collect();
    outcome.set("throttle.ns_per_byte", probes::throttle_ns_per_byte());
    outcome.set("codec.head_ns", probes::codec_head_ns());
    outcome.set("codec.body_ns_per_byte", probes::codec_body_ns_per_byte());
    let (segment, upload) = probes::relay_ns_per_byte();
    outcome.set("relay.segment_ns_per_byte", segment);
    outcome.set("relay.upload_ns_per_byte", upload);
    outcome.set(
        "traces.home_day_us_per_home",
        probes::home_day_us_per_home(day_seed, &homes, WEEK_DAYS as u32),
    );
    outcome.set("simnet.ns_per_event", probes::simnet_ns_per_event());
    outcome.set("fairshare.solve_us", probes::fairshare_solve_us());
}

/// The street the seedless workloads run their `traces.home_day`
/// probe over: the default week.
fn default_week() -> Street {
    Street { start: 0, homes: WEEK_HOMES, week: Some(DEFAULT_SCENARIO_SEED) }
}

/// Write every traced pass's spans, with self times, to
/// `$CARGO_TARGET_DIR/perfbench-spans/` (default `.bench_build`), and
/// print the self time per span name.
fn write_spans(plan: &Plan, outcome: &mut Outcome, passes: &[&[Span]]) {
    let by_name = traced::self_time_by_name(passes);
    let total: u64 = by_name.values().sum();
    println!("self time by span over {} traced pass(es):", passes.len());
    for (name, ns) in &by_name {
        println!(
            "  {name:<24} {:>12.3} ms {:>6.2}%",
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / total as f64
        );
    }
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let dir = std::path::Path::new(&dir).join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.tsv", plan.workload.name(), plan.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "pass\tspan\tparent\tname\thome\tworker\tstart_ns\tend_ns\tself_ns")?;
        for (i, spans) in passes.iter().enumerate() {
            trace::write_tsv(&mut out, i, spans)?;
        }
        out.flush()
    });
    match written {
        Ok(()) => outcome.context("spans", format!("\"{}\"", path.display())),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn cells_city(plan: &Plan, outcome: &mut Outcome) {
    let config = CellFleetConfig::default();
    let homes = CITY_HOMES as usize;
    let units = homes as u64;
    let workers = workers_for(homes.div_ceil(DEFAULT_CHUNK));
    outcome.context("workers", workers);
    outcome.context("chunk", DEFAULT_CHUNK);
    outcome.context("units", units);
    let warm = |pool: &Pool| {
        fleet::run_cell_fleet(2 * workers, 1, pool, &config);
    };
    let mut first: Option<(FleetDigest, u32)> = None;
    let check = |run: &fleet::CellFleetRun| -> Result<(), String> {
        if !run.converged {
            return Err(format!("cell coupling did not converge in {} passes", run.passes));
        }
        if run.digest.homes != units {
            return Err(format!("{} of {units} homes folded", run.digest.homes));
        }
        let first = first.get_or_insert((run.digest, run.passes));
        if (run.digest, run.passes) != *first {
            return Err(format!(
                "digest {:016x} differs from the first pass's",
                run.digest.digest()
            ));
        }
        Ok(())
    };
    let run = |pool: &Pool| fleet::run_cell_fleet(homes, DEFAULT_CHUNK, pool, &config);
    if !plan.trace {
        measure(plan, outcome, workers, units, warm, run, check);
        outcome.fingerprint = first.map(|(d, passes)| format!("{:016x}/{passes}", d.digest()));
        return;
    }
    // The coupling loop is private: the traced pass is the same call,
    // seen through the home-cost counters and its own wall time.
    let traced = |pool: &Pool| {
        fleet::take_home_cost();
        let start = now_ns();
        let run = run(pool);
        let span = Span {
            name: "fleet.run_cell_fleet",
            start,
            end: now_ns(),
            parent: None,
            home: NO_HOME,
            worker: worker_id(),
        };
        (run, fleet::take_home_cost(), span)
    };
    let view: fn(&(fleet::CellFleetRun, fleet::HomeCost, Span)) -> &fleet::CellFleetRun = |t| &t.0;
    let traced_runs = alternate(plan, outcome, workers, units, warm, run, traced, view, check);
    if let Some((run, _, _)) = traced_runs.first() {
        let (mut per_pass, mut busy) = (Vec::new(), Vec::new());
        for (run, cost, span) in &traced_runs {
            let wall = span.ns() as f64;
            per_pass.push(wall / 1e6 / run.passes as f64);
            let home_ns = cost.setup_ns + cost.workload_ns + cost.teardown_ns;
            busy.push(home_ns as f64 / (wall * workers as f64));
        }
        outcome.set("cells.passes", run.passes as f64);
        outcome.set("cells.ms_per_pass", median(&mut per_pass));
        outcome.set("exec.busy_frac", median(&mut busy));
        // Only whole-run totals are public here, so the p50 metrics
        // carry the per-home means.
        let cost = traced_runs.iter().fold(fleet::HomeCost::default(), |mut acc, (_, c, _)| {
            acc.homes += c.homes;
            acc.setup_ns += c.setup_ns;
            acc.workload_ns += c.workload_ns;
            acc.teardown_ns += c.teardown_ns;
            acc
        });
        outcome.set("home.samples", cost.homes as f64);
        outcome.set("runtime.reset_us_p50", cost.setup_us());
        outcome.set("home.ms_p50", cost.workload_us() / 1e3);
        client_layers(outcome, &run.digest);
        let spans: Vec<&[Span]> =
            traced_runs.iter().map(|(_, _, s)| std::slice::from_ref(s)).collect();
        write_spans(plan, outcome, &spans);
    }
    run_probes(outcome, default_week());
}

/// What one sweep pass produced.
#[derive(Default)]
struct SweepOut {
    /// Every experiment's rendered report, in registry order.
    rendered: Vec<String>,
    /// Experiments whose paper checks failed.
    failed: Vec<&'static str>,
}

fn paper_sweep(plan: &Plan, outcome: &mut Outcome) {
    let experiments: Vec<&'static dyn DynExperiment> = registry().all().collect();
    let units: u64 = experiments.iter().map(|e| e.unit_count(Scale::FULL) as u64).sum();
    let workers = nproc();
    outcome.context("workers", workers);
    outcome.context("experiments", experiments.len());
    outcome.context("units", units);
    let warm = |_: &Pool| {
        std::hint::black_box(registry().all().count());
    };
    // One pass: every experiment through `run_sharded`, with a span per
    // experiment when `spans` is given.
    let sweep = |pool: &Pool, mut spans: Option<&mut Vec<Span>>| -> SweepOut {
        let mut out = SweepOut::default();
        for e in &experiments {
            let start = now_ns();
            let report = e.run_sharded(Scale::FULL, pool);
            if let Some(spans) = spans.as_deref_mut() {
                let span = Span {
                    name: e.id(),
                    start,
                    end: now_ns(),
                    parent: Some(0),
                    home: NO_HOME,
                    worker: worker_id(),
                };
                spans.push(span);
            }
            if !report.all_ok() {
                out.failed.push(e.id());
            }
            out.rendered.push(report.render());
        }
        out
    };
    let mut first: Option<Vec<String>> = None;
    let check = |out: &SweepOut| -> Result<(), String> {
        if !out.failed.is_empty() {
            return Err(format!("paper checks failed: {}", out.failed.join(", ")));
        }
        if *first.get_or_insert_with(|| out.rendered.clone()) != out.rendered {
            return Err("reports differ from the first pass's".to_string());
        }
        Ok(())
    };
    let run = |pool: &Pool| sweep(pool, None);
    if !plan.trace {
        measure(plan, outcome, workers, units, warm, run, check);
        outcome.fingerprint = first.map(|rendered| {
            let mut h = std::hash::DefaultHasher::new();
            rendered.hash(&mut h);
            format!("{:016x}", h.finish())
        });
        return;
    }
    let traced = |pool: &Pool| {
        let root = Span {
            name: "sweep",
            start: now_ns(),
            end: 0,
            parent: None,
            home: NO_HOME,
            worker: worker_id(),
        };
        let mut spans = vec![root];
        let out = sweep(pool, Some(&mut spans));
        spans[0].end = now_ns();
        (out, spans)
    };
    let view: fn(&(SweepOut, Vec<Span>)) -> &SweepOut = |t| &t.0;
    let passes = alternate(plan, outcome, workers, units, warm, run, traced, view, check);
    let passes: Vec<Vec<Span>> = passes.into_iter().map(|(_, spans)| spans).collect();
    for (name, _) in crate::PER_LAYER.iter().filter(|(n, _)| n.starts_with("sweep.")) {
        let id = &name["sweep.".len()..name.len() - "_ms".len()];
        let mut ms: Vec<f64> = passes
            .iter()
            .flat_map(|spans| spans.iter())
            .filter(|s| s.name == id)
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        outcome.set(name, median(&mut ms));
    }
    let spans: Vec<&[Span]> = passes.iter().map(Vec::as_slice).collect();
    write_spans(plan, outcome, &spans);
    run_probes(outcome, default_week());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: Workload, seed: u64) -> Plan {
        Plan { workload, seed, seconds: 1.0, trace: false, child: false }
    }

    /// At the default seed, 200 homes of the benchmark's streets are the
    /// repository's pinned 200-home fleets, and the traced runner folds
    /// them to the same digest: the seed plumbing and the traced runner
    /// run the program unchanged.
    #[test]
    fn default_seed_reproduces_the_pinned_digests() {
        let pinned = [
            (Workload::PaperFleet, "8cf467045efaa947"),
            (Workload::ScenarioWeek, "75d422a7ed8b8927"),
        ];
        for (workload, digest) in pinned {
            let street = Street { homes: 200, ..Street::of(&plan(workload, 0)) };
            let (untraced, traced) = Pool::with(2, |pool| {
                let traced =
                    traced::traced_fleet(200, DEFAULT_CHUNK as u32, pool, move |i| street.spec(i));
                (street.run(pool), traced)
            });
            assert_eq!(format!("{:016x}", untraced.digest()), digest, "{workload:?}");
            assert_eq!(traced.digest, untraced, "{workload:?}: traced runner diverged");
            assert_eq!(street.check(&untraced, &mut None), Ok(()), "{workload:?}");
            assert_eq!(traced.spans.iter().filter(|s| s.name == "proxy.home").count(), 200);
        }
    }

    #[test]
    fn seeds_pick_mix_aligned_windows() {
        let paper = Street::of(&plan(Workload::PaperFleet, 3));
        assert_eq!((paper.start, paper.homes, paper.week), (3 * 768, 768, None));
        let week = Street::of(&plan(Workload::ScenarioWeek, 2));
        assert_eq!(week.start, 2 * 264);
        assert_eq!(week.week, Some(DEFAULT_SCENARIO_SEED + 2));
        assert_eq!(week.start % MIX_PERIOD, 0);
        let wrapped = Street::of(&plan(Workload::ScenarioWeek, WINDOWS));
        assert_eq!(wrapped.start, 0);
    }
}
