//! Run a fleet of live-prototype households, streamed through the
//! worker pool, and print the fleet digest.
//!
//! Every home is a full `threegol-proxy` household — origin, device
//! proxies with quota-gated discovery, client-side HLS proxy, and a
//! concurrent VoD prebuffer + photo upload — on its own virtual
//! network under virtual time. Homes stream through the workers in
//! chunks and fold into a mergeable digest, so memory stays flat in
//! the fleet size (a million homes run in tens of megabytes) and the
//! digest is byte-identical for any worker count or chunk size.
//!
//! ```text
//! cargo run -p threegol-bench --release --bin fleet \
//!     [homes] [workers] [chunk] [--cells N] [--scenario week|DAYS] [--seed S]
//! ```
//!
//! With `--cells N` the homes share `N` 3G cells through the
//! fixed-point cellular coupling (paper §6 / Fig 11): the fleet runs
//! repeatedly, each pass's per-cell onload feeding back as the next
//! pass's per-phone capacity shares, until the shares settle. The
//! printed digest is the converged pass's — still byte-identical
//! across worker counts and chunk sizes.
//!
//! With `--scenario week` (or `--scenario DAYS` for 1..=35 days) each
//! home runs the trace-driven multi-day scenario engine instead of the
//! fixed paper script: diurnal VoD/upload schedules, device churn, and
//! the live §6 allowance loop debiting daily 3GOLa(t) grants. The
//! digest grows per-day/per-hour onload rows and overrun counters, and
//! stays byte-identical across worker counts, chunk sizes, and runtime
//! modes. `--seed S` reseeds the whole street; it needs `--scenario`.

use threegol_bench::fleet::{
    peak_rss_bytes, run_cell_fleet, run_fleet, run_scenario_fleet, take_home_cost, CellFleetConfig,
    DEFAULT_CHUNK, MAX_CELLS,
};
use threegol_bench::{resolve_workers, Pool};
use threegol_proxy::MAX_SCENARIO_DAYS;
use threegol_traces::DEFAULT_SCENARIO_SEED;

fn parse_positive(raw: &str, what: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("invalid {what} {raw:?}: expected a positive integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut positional = Vec::new();
    let mut cells: Option<u32> = None;
    let mut scenario_days: Option<u16> = None;
    let mut seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(raw) = args.next() {
        if raw == "--cells" {
            let value = args.next().unwrap_or_else(|| {
                eprintln!("--cells needs a value (1..={MAX_CELLS})");
                std::process::exit(2);
            });
            let n = parse_positive(&value, "cell count");
            if n > MAX_CELLS {
                eprintln!("invalid cell count {n}: the digest tracks at most {MAX_CELLS} cells");
                std::process::exit(2);
            }
            cells = Some(n as u32);
        } else if raw == "--scenario" {
            let value = args.next().unwrap_or_else(|| {
                eprintln!("--scenario needs a value: week, or a day count 1..={MAX_SCENARIO_DAYS}");
                std::process::exit(2);
            });
            let days =
                if value == "week" { 7 } else { parse_positive(&value, "scenario day count") };
            if days > MAX_SCENARIO_DAYS {
                eprintln!("invalid scenario length {days}: at most {MAX_SCENARIO_DAYS} days");
                std::process::exit(2);
            }
            scenario_days = Some(days as u16);
        } else if raw == "--seed" {
            let value = args.next().unwrap_or_else(|| {
                eprintln!("--seed needs a value");
                std::process::exit(2);
            });
            seed = Some(value.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("invalid seed {value:?}: expected a u64");
                std::process::exit(2);
            }));
        } else {
            positional.push(raw);
        }
    }
    if scenario_days.is_some() && cells.is_some() {
        eprintln!("--scenario and --cells are separate modes; pick one");
        std::process::exit(2);
    }
    if seed.is_some() && scenario_days.is_none() {
        eprintln!("--seed only reseeds a --scenario fleet; add --scenario week|DAYS");
        std::process::exit(2);
    }
    let seed = seed.unwrap_or(DEFAULT_SCENARIO_SEED);
    if positional.len() > 3 {
        eprintln!("unexpected argument {:?}: at most [homes] [workers] [chunk]", positional[3]);
        std::process::exit(2);
    }
    let mut positional = positional.into_iter();
    let homes = positional.next().map_or(100, |raw| parse_positive(&raw, "home count"));
    let workers_arg = positional.next().map(|raw| parse_positive(&raw, "worker count"));
    let chunk = positional.next().map_or(DEFAULT_CHUNK, |raw| parse_positive(&raw, "chunk size"));
    let workers = resolve_workers(workers_arg).min(homes);

    let start = std::time::Instant::now();
    let (digest, cell_run) = Pool::with(workers, |pool| match (cells, scenario_days) {
        (Some(cells), _) => {
            let config = CellFleetConfig { cells, ..CellFleetConfig::default() };
            let run = run_cell_fleet(homes, chunk, pool, &config);
            (run.digest, Some(run))
        }
        (None, Some(days)) => (run_scenario_fleet(homes, days, seed, chunk, pool), None),
        (None, None) => (run_fleet(homes, chunk, pool), None),
    });
    let wall = start.elapsed().as_secs_f64();

    print!("{}", digest.render());
    if let Some(run) = &cell_run {
        print!("{}", run.render());
    }
    println!(
        "{homes} homes on {workers} worker(s), chunk {chunk}: {wall:.2} s wall \
         ({:.0} homes/s, {:.0} net events/s); report digest {:016x}",
        homes as f64 / wall,
        digest.net_events as f64 / wall,
        digest.digest()
    );
    if let Some(rss) = peak_rss_bytes() {
        println!("peak RSS {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    let cost = take_home_cost();
    println!(
        "per-home cost: {:.1} µs setup + {:.1} µs workload + {:.1} µs teardown",
        cost.setup_us(),
        cost.workload_us(),
        cost.teardown_us()
    );
}
