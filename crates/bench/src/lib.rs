#![warn(missing_docs)]

//! # threegol-bench
//!
//! The reproduction harness: one module per table/figure of the
//! paper's evaluation, each regenerating the corresponding rows or
//! series from the models in this workspace and checking the headline
//! numbers against the paper.
//!
//! Every experiment implements the typed [`Experiment`] trait: it
//! decomposes into independent seeded replication units which a
//! shared FIFO job [`Pool`] shards across cores, and the partial results
//! merge in unit order — so reports are byte-identical for any worker
//! count (see `experiment` and `exec` module docs).
//!
//! Run a single experiment by id (optionally at a reduced scale /
//! explicit worker count):
//!
//! ```text
//! cargo run -p threegol-bench --release --bin repro -- fig06 [scale] [workers]
//! ```
//!
//! Run everything and emit an EXPERIMENTS.md-ready report:
//!
//! ```text
//! cargo run -p threegol-bench --release --bin repro_all [scale] [workers]
//! ```
//!
//! Beyond the simulator experiments, the [`fleet`] module streams
//! whole live-prototype households (virtual-net tokio runtimes)
//! through the same pool in chunks, folding them into a mergeable
//! [`fleet::FleetDigest`] so fleets of a million homes run in flat
//! memory:
//!
//! ```text
//! cargo run -p threegol-bench --release --bin fleet [homes] [workers] [chunk]
//! ```
//!
//! Every binary's worker count defaults to the detected core count.

pub mod exec;
pub mod experiment;
pub mod experiments;
pub mod fleet;
pub mod relay;
pub mod util;

pub use exec::{fold, map, resolve_workers, Pool};
pub use experiment::{registry, DynExperiment, Experiment, Registry, Scale, ScaleError};
pub use fleet::{run_fleet, FleetDigest, MetricDigest};
pub use util::{Check, Report, ReportBuilder};

/// Parse the `[scale] [workers]` arguments of `repro` and
/// `repro_all`: `scale` in (0, 1] (default 1) and a positive worker
/// count (default: the core count, see [`resolve_workers`]). Returns
/// the scale and the resolved worker count, or the message for a bad
/// value or an extra argument.
pub fn parse_scale_workers(
    mut args: impl Iterator<Item = String>,
) -> Result<(Scale, usize), String> {
    let scale = match args.next() {
        None => Scale::FULL,
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|e| e.to_string())
            .and_then(|v| Scale::new(v).map_err(|e| e.to_string()))
            .map_err(|err| format!("invalid scale {raw:?}: {err}"))?,
    };
    let workers = match args.next() {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(w) if w >= 1 => Some(w),
            _ => return Err(format!("invalid worker count {raw:?}: expected a positive integer")),
        },
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected argument {extra:?}: at most [scale] [workers]"));
    }
    Ok((scale, resolve_workers(workers)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_runs() {
        // Smoke-run the cheap experiments end to end through the
        // registry + serial path.
        let scale = Scale::new(0.2).unwrap();
        for id in ["cap02", "fig01", "fig10", "fig11c", "est06"] {
            let e = registry().get(id).expect("registered");
            let r = e.run_serial(scale);
            assert_eq!(r.id, id);
            assert!(!r.body.is_empty());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(registry().get("nope").is_none());
    }
}
