//! Tracked performance numbers for the simnet hot path.
//!
//! Runs the fig06-shaped workloads (one ADSL home with two onloading
//! phones; a street of such homes; the full fig06 scheduler sweep with
//! flow churn; the bare fair-share solver) against the current engine,
//! plus a live-prototype fleet on the virtual-net tokio runtime, and
//! writes `BENCH_simnet.json` to the repo root
//! with the measured numbers next to the recorded pre-optimization
//! baseline, plus the resulting speedups.
//!
//! ```text
//! cargo run -p threegol-bench --release --bin bench_summary
//! cargo run -p threegol-bench --release --bin bench_summary -- \
//!     --only live_fleet_50_homes,live_fleet_200_homes
//! ```
//!
//! `--only` measures just the named rows (comma-separated) and gates
//! them against the committed `BENCH_simnet.json` without rewriting
//! it — the CI perf-smoke mode: a fast subset instead of the full
//! multi-minute sweep. An unknown row name exits 2 before anything is
//! measured.
//!
//! The baseline constants below were measured on the same machine from
//! the tree immediately before the allocation-free/incremental hot
//! path landed (reference `max_min_fair` in the event loop, per-event
//! Vec churn). Re-measure them by checking out that commit and running
//! this binary; the `current` section is always measured live.

use std::time::Instant;

use threegol_bench::{fleet, registry, relay, Pool, Scale};
use threegol_simnet::capacity::DiurnalProfile;
use threegol_simnet::fairshare::{
    max_min_fair, max_min_fair_into, FairShareScratch, FlowDemand, FlowTable,
};
use threegol_simnet::{CapacityProcess, SimEvent, SimTime, Simulation};

/// One measured workload: median wall-clock over `REPS` runs.
struct Sample {
    name: &'static str,
    /// What one run simulates.
    what: &'static str,
    median_ms: f64,
    /// Live-measured "before" (overrides the recorded baseline).
    live_before_ms: Option<f64>,
    events: u64,
    /// Extra raw-JSON fields for this row (e.g. the million-home row's
    /// homes/sec and peak RSS), spliced into the object verbatim.
    extra: Option<String>,
}

const REPS: usize = 7;

/// Every row this binary measures, in measurement order. `--only`
/// names are checked against it, and a row is measured only if listed.
const ROWS: &[&str] = &[
    "live_fleet_50_homes",
    "live_fleet_200_homes",
    "home_cost_breakdown",
    "live_fleet_cells",
    "live_fleet_scenario_week",
    "live_fleet_1m_homes",
    "fig06_home",
    "street_16_homes",
    "fleet_1k_homes",
    "proxy_throughput_segment_relay",
    "proxy_throughput_upload_relay",
    "fig06_sweep",
    "repro_shard_fig06_fig07",
    "solver_64x256",
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// One fig06 home: a 2 Mbit/s ADSL line plus `n_phones` 3G links, all
/// stochastic with 1 s resampling, carrying HLS-chunk-sized flows.
fn build_home(sim: &mut Simulation, seed: u64, n_phones: usize, n_flows: usize) {
    let adsl = sim.add_link(
        format!("adsl{seed}"),
        CapacityProcess::stochastic(2e6, 0.3, 1.0, DiurnalProfile::flat(), seed),
    );
    let mut links = vec![adsl];
    for p in 0..n_phones {
        links.push(sim.add_link(
            format!("3g{seed}_{p}"),
            CapacityProcess::stochastic(
                3e6,
                0.4,
                1.0,
                DiurnalProfile::flat(),
                seed * 31 + p as u64,
            ),
        ));
    }
    // Long flows pinned across the home's links so every capacity
    // change resolves a non-trivial allocation (fig06 steady state:
    // the scheduler keeps all pipes busy for the whole download).
    for f in 0..n_flows {
        let path = vec![links[f % links.len()]];
        sim.start_flow(path, 1e12); // effectively infinite: pure steady state
    }
}

fn run_home_workload(n_homes: usize, horizon_secs: f64) -> (f64, u64) {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut sim = Simulation::new();
        for h in 0..n_homes {
            build_home(&mut sim, 1 + h as u64, 2, 6);
        }
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(horizon_secs));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // Flows never finish, so the event stream is exactly the capacity
    // resampling: one change per stochastic link per step (1 s).
    let events = (n_homes as u64 * 3) * horizon_secs as u64;
    (median(times), events)
}

/// Fleet with churn: `n_homes` independent ADSL+2-phone homes where
/// every link carries two finite flows and each completion immediately
/// starts a replacement on the same link, so the event stream mixes
/// per-second capacity resampling with constant arrivals/departures.
/// This is the workload the event-local stepper targets: at 1000 homes
/// the pre-calendar engine scanned 3000 links and 6000 flows on every
/// single event.
fn run_fleet_workload(n_homes: usize, horizon_secs: f64) -> (f64, u64) {
    let mut times = Vec::with_capacity(REPS);
    let mut events = 0u64;
    for _ in 0..REPS {
        let mut sim = Simulation::new();
        let mut links = Vec::with_capacity(n_homes * 3);
        for h in 0..n_homes as u64 {
            links.push(sim.add_link(
                format!("adsl{h}"),
                CapacityProcess::stochastic(2e6, 0.3, 1.0, DiurnalProfile::flat(), 1 + h),
            ));
            for p in 0..2u64 {
                links.push(sim.add_link(
                    format!("3g{h}_{p}"),
                    CapacityProcess::stochastic(
                        3e6,
                        0.4,
                        1.0,
                        DiurnalProfile::flat(),
                        1000 + h * 31 + p,
                    ),
                ));
            }
        }
        let mut seq = 0u64;
        let mut next_size = move || {
            seq += 1;
            250_000.0 + (seq * 37_559 % 500_000) as f64
        };
        for &l in &links {
            sim.start_flow(vec![l], next_size());
            sim.start_flow(vec![l], next_size());
        }
        let horizon = SimTime::from_secs(horizon_secs);
        let t = Instant::now();
        events = 0;
        while let Some(ev) = sim.next_event_until(horizon) {
            events += 1;
            if let SimEvent::FlowCompleted { record, .. } = ev {
                sim.start_flow(vec![record.path[0]], next_size());
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(times), events)
}

/// The live-prototype fleet: whole virtual-net households (origin,
/// device proxies with discovery, client-side HLS proxy, concurrent
/// VoD prebuffer + photo upload under virtual time) streamed across
/// every core in chunks and folded into the fleet digest. Tracks the
/// cost of the virtual network substrate itself — the simulator
/// workloads above never touch it. Returns the median wall-clock over
/// `reps` runs and one run's virtual-net event count.
fn run_live_fleet_workload(homes: usize, reps: usize) -> (f64, u64) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut times = Vec::with_capacity(reps);
    let mut events = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let digest = Pool::with(cores.min(homes), |pool| {
            threegol_bench::fleet::run_fleet(homes, fleet::DEFAULT_CHUNK, pool)
        });
        std::hint::black_box(&digest);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        events = digest.net_events;
    }
    (median(times), events)
}

/// Bare solver: the allocating reference oracle vs the scratch-backed
/// `max_min_fair_into`, both live on identical inputs.
fn run_solver_workload(nl: usize, nf: usize, iters: u64) -> (f64, f64, u64) {
    let caps: Vec<f64> = (0..nl).map(|i| 1e6 + (i as f64) * 1e5).collect();
    let flows: Vec<FlowDemand> = (0..nf)
        .map(|f| FlowDemand {
            links: vec![f % nl, (f * 7 + 1) % nl],
            cap: if f % 3 == 0 { Some(5e5) } else { None },
        })
        .collect();
    let mut reference_times = Vec::with_capacity(REPS);
    let mut scratch_times = Vec::with_capacity(REPS);
    let table = FlowTable::from_demands(&flows);
    let mut scratch = FairShareScratch::default();
    let mut out = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(max_min_fair(
                std::hint::black_box(&caps),
                std::hint::black_box(&flows),
            ));
        }
        reference_times.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for _ in 0..iters {
            max_min_fair_into(
                std::hint::black_box(&caps),
                std::hint::black_box(&table),
                &mut scratch,
                &mut out,
            );
            std::hint::black_box(&out);
        }
        scratch_times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(reference_times), median(scratch_times), iters)
}

/// Pre-optimization numbers (see module docs). The solver row instead
/// measures the still-present reference implementation live.
const BASELINE: &[(&str, Option<f64>)] = &[
    ("fig06_home", Some(0.71)),
    ("street_16_homes", Some(10.68)),
    // Measured from the tree immediately before the event-local
    // (calendar) stepper landed: every event paid a full scan of all
    // flows and links.
    ("fleet_1k_homes", Some(1436.8)),
    ("fig06_sweep", Some(89.6)),
    // Measured from the tree immediately before the zero-copy
    // streaming codec landed: whole-body materialization on the device
    // relay, per-read 8 KiB stack chunks, per-message header Strings,
    // one write syscall-equivalent per head and per body.
    ("proxy_throughput_segment_relay", Some(14.47)),
    ("proxy_throughput_upload_relay", Some(6.53)),
];

/// `after_ms` per workload from a committed `BENCH_simnet.json`,
/// hand-parsed: nothing in the build serializes, so there is no JSON
/// library to lean on. The file is the fixed flat shape this binary writes, so scanning for
/// the `"name"` / `"after_ms"` key pairs is sufficient.
fn committed_after_ms(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            name = rest.strip_suffix("\",").map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"after_ms\": ") {
            if let (Some(n), Ok(v)) = (name.take(), rest.trim_end_matches(',').parse::<f64>()) {
                out.push((n, v));
            }
        }
    }
    out
}

fn main() {
    // `--only a,b,c`: measure just the named rows, skip the file
    // rewrite, still gate against the committed numbers.
    let mut cli = std::env::args().skip(1);
    let mut only: Option<Vec<String>> = None;
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--only" => {
                let rows = cli.next().unwrap_or_else(|| {
                    eprintln!("--only needs a comma-separated row list");
                    std::process::exit(2);
                });
                only = Some(rows.split(',').map(|s| s.trim().to_string()).collect());
            }
            other => {
                eprintln!("unknown argument {other:?}; usage: bench_summary [--only row,row,...]");
                std::process::exit(2);
            }
        }
    }
    if let Some(unknown) = only.iter().flatten().find(|r| !ROWS.contains(&r.as_str())) {
        eprintln!("unknown row {unknown:?}; rows: {}", ROWS.join(","));
        std::process::exit(2);
    }
    let want = |name: &str| {
        assert!(ROWS.contains(&name), "row {name:?} is missing from ROWS");
        only.as_ref().is_none_or(|rows| rows.iter().any(|r| r == name))
    };

    let mut samples = Vec::new();

    // The live-prototype fleet rows run first so the process peak RSS
    // recorded for the million-home row is attributable to the fleet
    // path, not to whichever experiment sweep ran before it.
    if want("live_fleet_50_homes") {
        let (ms, events) = run_live_fleet_workload(50, REPS);
        samples.push(Sample {
            name: "live_fleet_50_homes",
            what: "50 live-prototype households (virtual-net runtimes, concurrent VoD + upload) \
                   streamed across cores",
            median_ms: ms,
            live_before_ms: None,
            events,
            extra: None,
        });
    }

    if want("live_fleet_200_homes") {
        let (ms, events) = run_live_fleet_workload(200, REPS);
        samples.push(Sample {
            name: "live_fleet_200_homes",
            what: "200 live-prototype households (virtual-net runtimes, concurrent VoD + upload) \
                   streamed across cores",
            median_ms: ms,
            live_before_ms: None,
            events,
            extra: None,
        });
    }

    // Where a streamed home's wall time goes: the per-home mean split
    // into runtime acquire/reset, the home's `block_on`, and digest
    // fold + release, from the process-wide home-cost counters. The
    // row is diagnostic (gate-exempt): it explains live_fleet shifts —
    // a setup regression means runtime reuse broke, a workload shift
    // is the hot path itself.
    if want("home_cost_breakdown") {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let _ = fleet::take_home_cost(); // rewind whatever earlier rows accumulated
        for _ in 0..3 {
            let digest = Pool::with(cores.min(200), |pool| {
                fleet::run_fleet(200, fleet::DEFAULT_CHUNK, pool)
            });
            std::hint::black_box(&digest);
        }
        let cost = fleet::take_home_cost();
        samples.push(Sample {
            name: "home_cost_breakdown",
            what: "per-home wall-time split of a 200-home streamed fleet (3 runs): \
                   runtime acquire+reset / block_on workload / fold+release; \
                   after_ms is the mean total per home (diagnostic, gate-exempt)",
            median_ms: (cost.setup_us() + cost.workload_us() + cost.teardown_us()) / 1e3,
            live_before_ms: None,
            events: cost.homes,
            extra: Some(format!(
                "\"homes\": {},\n      \"setup_us_per_home\": {:.2},\n      \
                 \"workload_us_per_home\": {:.2},\n      \"teardown_us_per_home\": {:.2}",
                cost.homes,
                cost.setup_us(),
                cost.workload_us(),
                cost.teardown_us()
            )),
        });
    }

    // The cell-coupled fleet row: the same streamed households, but
    // sharing 8 3G cells through the fixed-point cellular coupling —
    // tracks the cost of running the fleet to convergence (several
    // passes) rather than once.
    if want("live_fleet_cells") {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let config = fleet::CellFleetConfig::default();
        let mut times = Vec::with_capacity(3);
        let mut run = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = Pool::with(cores.min(200), |pool| {
                fleet::run_cell_fleet(200, fleet::DEFAULT_CHUNK, pool, &config)
            });
            times.push(t.elapsed().as_secs_f64() * 1e3);
            run = Some(r);
        }
        let run = run.expect("at least one run");
        let peak_dl_mbps = run.loads.iter().map(|l| l.peak_dl_bps()).fold(0.0, f64::max) / 1e6;
        samples.push(Sample {
            name: "live_fleet_cells",
            what: "200 live-prototype households coupled through 8 shared 3G cells, \
                   fixed-point iterated to convergence (median of 3 runs)",
            median_ms: median(times),
            live_before_ms: None,
            events: run.digest.net_events,
            extra: Some(format!(
                "\"runs\": 3,\n      \"cells\": {},\n      \"passes\": {},\n      \
                 \"converged\": {},\n      \"peak_cell_dl_mbps\": {:.3}",
                config.cells, run.passes, run.converged, peak_dl_mbps
            )),
        });
    }

    // The scenario-engine row: the same streamed households, but each
    // running the trace-driven 7-day scenario (diurnal sessions, device
    // churn, live allowance loop) instead of the fixed paper script —
    // tracks the cost of a simulated week per home.
    if want("live_fleet_scenario_week") {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut times = Vec::with_capacity(3);
        let mut digest = None;
        for _ in 0..3 {
            let t = Instant::now();
            let d = Pool::with(cores.min(200), |pool| {
                fleet::run_scenario_fleet(
                    200,
                    7,
                    threegol_traces::DEFAULT_SCENARIO_SEED,
                    fleet::DEFAULT_CHUNK,
                    pool,
                )
            });
            times.push(t.elapsed().as_secs_f64() * 1e3);
            digest = Some(d);
        }
        let digest = digest.expect("at least one run");
        samples.push(Sample {
            name: "live_fleet_scenario_week",
            what: "200 live-prototype households each running the trace-driven 7-day scenario \
                   (diurnal VoD/upload schedules, device churn, live 3GOLa(t) allowance loop), \
                   median of 3 runs",
            median_ms: median(times),
            live_before_ms: None,
            events: digest.net_events,
            extra: Some(format!(
                "\"runs\": 3,\n      \"sessions\": {},\n      \"device_days\": {},\n      \
                 \"overrun_rate\": {:.4},\n      \"captured_fraction\": {:.4}",
                digest.scenario.sessions,
                digest.scenario.device_days,
                digest.scenario.overrun_rate(),
                digest.scenario.captured_fraction()
            )),
        });
    }

    // The fleet-scale acceptance row: one million streamed homes, a
    // single run (it is minutes of wall-clock, and at this unit count
    // run-to-run variance is negligible). The row records homes/sec,
    // virtual-net events/sec and the process peak RSS, and fails hard
    // if the streamed design's documented memory ceiling is broken.
    if want("live_fleet_1m_homes") {
        let (ms, events) = run_live_fleet_workload(1_000_000, 1);
        let peak_rss = fleet::peak_rss_bytes().unwrap_or(0);
        if peak_rss > fleet::FLEET_RSS_CEILING_BYTES {
            eprintln!(
                "RSS CEILING BROKEN: million-home fleet peaked at {:.1} MiB (ceiling {} MiB)",
                peak_rss as f64 / (1024.0 * 1024.0),
                fleet::FLEET_RSS_CEILING_BYTES / (1024 * 1024)
            );
            std::process::exit(1);
        }
        samples.push(Sample {
            name: "live_fleet_1m_homes",
            what: "1,000,000 live-prototype households streamed through the pool in 64-home \
                   chunks, folded into the mergeable fleet digest (single run)",
            median_ms: ms,
            live_before_ms: None,
            events,
            extra: Some(format!(
                "\"runs\": 1,\n      \"homes_per_sec\": {:.0},\n      \
                 \"events_per_sec\": {:.0},\n      \"peak_rss_mib\": {:.1},\n      \
                 \"rss_ceiling_mib\": {}",
                1_000_000.0 / (ms / 1e3),
                events as f64 / (ms / 1e3),
                peak_rss as f64 / (1024.0 * 1024.0),
                fleet::FLEET_RSS_CEILING_BYTES / (1024 * 1024)
            )),
        });
    }

    if want("fig06_home") {
        let (ms, events) = run_home_workload(1, 600.0);
        samples.push(Sample {
            name: "fig06_home",
            what: "1 home (ADSL + 2 phones, 6 flows), 600 simulated s",
            median_ms: ms,
            live_before_ms: None,
            events,
            extra: None,
        });
    }

    if want("street_16_homes") {
        let (ms, events) = run_home_workload(16, 120.0);
        samples.push(Sample {
            name: "street_16_homes",
            what: "16 independent homes (48 links, 96 flows), 120 simulated s",
            median_ms: ms,
            live_before_ms: None,
            events,
            extra: None,
        });
    }

    if want("fleet_1k_homes") {
        let (ms, events) = run_fleet_workload(1000, 5.0);
        samples.push(Sample {
            name: "fleet_1k_homes",
            what: "1000 homes (3000 links, 6000 flows) with churn: completions restart, \
                   5 simulated s",
            median_ms: ms,
            live_before_ms: None,
            events,
            extra: None,
        });
    }

    // The relay hot path: throughput through an
    // unthrottled device proxy, both directions (see the `relay`
    // module, which the repository benchmark also probes).
    if want("proxy_throughput_segment_relay") {
        let mut seg_times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            relay::segment_relay();
            seg_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples.push(Sample {
            name: "proxy_throughput_segment_relay",
            what: "4 x 2 MB GET bodies through an unthrottled device relay \
                   (origin -> device -> client) on the virtual net",
            median_ms: median(seg_times),
            live_before_ms: None,
            events: relay::SEGMENT_RUN_BYTES as u64,
            extra: None,
        });
    }

    if want("proxy_throughput_upload_relay") {
        let mut up_times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            relay::upload_relay();
            up_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples.push(Sample {
            name: "proxy_throughput_upload_relay",
            what: "8 x 250 kB multipart photo POSTs through an unthrottled device relay \
                   (client -> device -> origin), committed at the origin",
            median_ms: median(up_times),
            live_before_ms: None,
            events: relay::UPLOAD_RUN_BYTES as u64,
            extra: None,
        });
    }

    // The acceptance workload: the actual fig06 experiment (full
    // scheduler sweep, 30 reps per point), flow churn included.
    if want("fig06_sweep") {
        let fig06 = registry().get("fig06").expect("fig06 registered");
        let mut sweep_times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(fig06.run_serial(Scale::FULL));
            sweep_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples.push(Sample {
            name: "fig06_sweep",
            what: "full fig06 experiment: scheduler sweep, 30 reps per point, with flow churn",
            median_ms: median(sweep_times),
            live_before_ms: None,
            events: 30,
            extra: None,
        });
    }

    // Replication sharding: the two heaviest Monte-Carlo sweeps run
    // once serially and once decomposed into per-rep units on a pool
    // using every core. Both paths produce byte-identical reports; the
    // "before" column is the serial wall-clock.
    if want("repro_shard_fig06_fig07") {
        let fig06 = registry().get("fig06").expect("fig06 registered");
        let fig07 = registry().get("fig07").expect("fig07 registered");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mut serial_times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(fig06.run_serial(Scale::FULL));
            std::hint::black_box(fig07.run_serial(Scale::FULL));
            serial_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut sharded_times = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            Pool::with(cores, |pool| {
                std::hint::black_box(fig06.run_sharded(Scale::FULL, pool));
                std::hint::black_box(fig07.run_sharded(Scale::FULL, pool));
            });
            sharded_times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let units = (fig06.unit_count(Scale::FULL) + fig07.unit_count(Scale::FULL)) as u64;
        samples.push(Sample {
            name: "repro_shard_fig06_fig07",
            what: Box::leak(
                format!(
                    "fig06 + fig07 sharded into per-rep units across {cores} core(s); \
                     before = same work serial — speedup tracks the machine's core count"
                )
                .into_boxed_str(),
            ),
            median_ms: median(sharded_times),
            live_before_ms: Some(median(serial_times)),
            events: units,
            extra: None,
        });
    }

    if want("solver_64x256") {
        let (reference_ms, scratch_ms, iters) = run_solver_workload(64, 256, 200);
        samples.push(Sample {
            name: "solver_64x256",
            what: "max_min_fair oracle vs max_min_fair_into, 64 links x 256 flows, 200 calls",
            median_ms: scratch_ms,
            live_before_ms: Some(reference_ms),
            events: iters,
            extra: None,
        });
    }

    // Snapshot the committed numbers before overwriting: they are the
    // reference for the regression gate below.
    let committed = std::fs::read_to_string("BENCH_simnet.json")
        .map(|t| committed_after_ms(&t))
        .unwrap_or_default();

    // Nothing in the build serializes, so format the (flat,
    // fixed-shape) JSON by hand.
    let mut out = String::from("{\n  \"benchmark\": \"simnet hot path (fig06-shaped)\",\n");
    out.push_str("  \"unit\": \"milliseconds, median of 7 runs\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let baseline = s
            .live_before_ms
            .or_else(|| BASELINE.iter().find(|(n, _)| *n == s.name).and_then(|(_, v)| *v));
        let (base_str, speedup_str) = match baseline {
            Some(b) => (format!("{b:.2}"), format!("{:.2}", b / s.median_ms)),
            None => ("null".to_string(), "null".to_string()),
        };
        let extra = match &s.extra {
            Some(fields) => format!(",\n      {fields}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"what\": \"{}\",\n      \
             \"events\": {},\n      \"before_ms\": {},\n      \"after_ms\": {:.2},\n      \
             \"speedup\": {}{}\n    }}{}\n",
            s.name,
            s.what,
            s.events,
            base_str,
            s.median_ms,
            speedup_str,
            extra,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if only.is_none() {
        std::fs::write("BENCH_simnet.json", &out).expect("write BENCH_simnet.json");
    }
    print!("{out}");

    // Regression gate: nonzero exit if any workload measured >20%
    // slower than the committed BENCH_simnet.json. The sharded row is
    // exempt — its wall-clock tracks the machine's core count, not the
    // engine — as is the diagnostic cost-breakdown row. (In full mode
    // the freshly measured file has already been written, so the
    // offending numbers are on disk for inspection.)
    let mut regressed = false;
    for s in &samples {
        if s.name == "repro_shard_fig06_fig07" || s.name == "home_cost_breakdown" {
            continue;
        }
        if let Some((_, committed_ms)) = committed.iter().find(|(n, _)| n == s.name) {
            if s.median_ms > committed_ms * 1.2 {
                eprintln!(
                    "REGRESSION: {} measured {:.2} ms vs committed {:.2} ms (>20% slower)",
                    s.name, s.median_ms, committed_ms
                );
                regressed = true;
            }
        }
    }
    if regressed {
        std::process::exit(1);
    }
}
