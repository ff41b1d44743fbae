//! Run one reproduction experiment by id (see DESIGN.md §6) and print
//! its report; exit 1 if a paper-vs-measured check failed.
//!
//! ```text
//! cargo run -p threegol-bench --release --bin repro -- <id> [scale] [workers]
//! ```
//!
//! `id` is a `registry()` id (`fig06`, `tab02`, `abl01`, …), `scale`
//! lies in (0, 1] (default 1) and `workers` defaults to the core count.
//! An unknown id, a bad value or an extra argument exits 2.

use threegol_bench::{parse_scale_workers, registry, Pool};

fn main() {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_default();
    let Some(experiment) = registry().get(&id) else {
        let ids: Vec<&str> = registry().all().map(|e| e.id()).collect();
        eprintln!(
            "unknown experiment {id:?}; usage: repro <id> [scale] [workers], id one of {ids:?}"
        );
        std::process::exit(2);
    };
    let (scale, workers) = parse_scale_workers(args).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    });
    let workers = workers.min(experiment.unit_count(scale).max(1));
    let report = Pool::with(workers, |pool| experiment.run_sharded(scale, pool));
    print!("{}", report.render());
    if !report.all_ok() {
        std::process::exit(1);
    }
}
