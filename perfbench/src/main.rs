//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_fleet --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload through the program's public entry points for
//! `--seconds` seconds and checks its outputs. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced passes and reports the per-layer metrics (see
//! `perfbench/LAYERS.md`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod probes;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use trace::median;

/// Processes an untraced run measures in, one after another; each gets
/// an equal share of `--seconds`. Peak RSS and set-up time are
/// per-process figures, so the run reports their median over these.
const PROCESSES: usize = 3;

/// The end-to-end metrics, reported with `--trace 0`: name and unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("units_per_s", "1/s"), ("cpu_ms_per_unit", "ms"), ("peak_rss_mib", "MiB"), ("setup_s", "s")];

/// The per-layer metrics, reported with `--trace 1`: name and unit. A
/// layer a workload does not exercise reads 0 (see LAYERS.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.busy_frac", "frac"),
    ("exec.tail_ms", "ms"),
    ("exec.chunk_ms_max", "ms"),
    ("runtime.reset_us_p50", "us"),
    ("home.samples", "count"),
    ("home.ms_p50", "ms"),
    ("home.ms_p95", "ms"),
    ("home.ms_per_device", "ms"),
    ("home.ms_per_sim_day", "ms"),
    ("net.tcp_binds", "count/home"),
    ("net.tcp_connects", "count/home"),
    ("net.udp_binds", "count/home"),
    ("net.datagrams", "count/home"),
    ("client.bytes_per_home", "B"),
    ("client.onload_frac", "frac"),
    ("client.waste_frac", "frac"),
    ("client.vod_secs_p50", "s"),
    ("client.upload_secs_p50", "s"),
    ("throttle.ns_per_byte", "ns/B"),
    ("codec.head_ns", "ns"),
    ("codec.body_ns_per_byte", "ns/B"),
    ("relay.segment_ns_per_byte", "ns/B"),
    ("relay.upload_ns_per_byte", "ns/B"),
    ("scenario.sessions_per_home", "count/home"),
    ("scenario.adsl_only_frac", "frac"),
    ("scenario.overrun_frac", "frac"),
    ("scenario.captured_frac", "frac"),
    ("traces.home_day_us_per_home", "us"),
    ("digest.observe_us_p50", "us"),
    ("digest.merge_us_p50", "us"),
    ("cells.passes", "count"),
    ("cells.ms_per_pass", "ms"),
    ("sweep.cap02_ms", "ms"),
    ("sweep.fig01_ms", "ms"),
    ("sweep.fig03_ms", "ms"),
    ("sweep.fig04_ms", "ms"),
    ("sweep.fig05_ms", "ms"),
    ("sweep.tab02_ms", "ms"),
    ("sweep.tab03_ms", "ms"),
    ("sweep.fig06_ms", "ms"),
    ("sweep.fig07_ms", "ms"),
    ("sweep.fig08_ms", "ms"),
    ("sweep.fig09_ms", "ms"),
    ("sweep.fig10_ms", "ms"),
    ("sweep.fig11a_ms", "ms"),
    ("sweep.fig11b_ms", "ms"),
    ("sweep.fig11c_ms", "ms"),
    ("sweep.tab04_ms", "ms"),
    ("sweep.est06_ms", "ms"),
    ("sweep.abl01_ms", "ms"),
    ("sweep.abl02_ms", "ms"),
    ("sweep.abl03_ms", "ms"),
    ("sweep.abl04_ms", "ms"),
    ("sweep.abl05_ms", "ms"),
    ("simnet.ns_per_event", "ns"),
    ("fairshare.solve_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-default street of homes.
    PaperFleet,
    /// The same street, each home living a traced week.
    ScenarioWeek,
    /// The street coupled through shared 3G cells to a fixed point.
    CellsCity,
    /// Every registered experiment at full scale.
    PaperSweep,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("paper_fleet", Workload::PaperFleet),
        ("scenario_week", Workload::ScenarioWeek),
        ("cells_city", Workload::CellsCity),
        ("paper_sweep", Workload::PaperSweep),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        Workload::ALL.iter().find(|(_, w)| *w == self).map(|&(n, _)| n).expect("listed")
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed (ignored by the workloads that take none).
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from traced passes instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Measure in this process and report raw measurements to the
    /// parent run (see [`measure_in_processes`]).
    pub child: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted over the measured passes.
    pub attempted: u64,
    /// Units of passes that panicked or failed their output checks.
    pub failed: u64,
    /// Why passes failed, one line each.
    pub problems: Vec<String>,
    /// Measured values by metric name (names from [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub values: Vec<(&'static str, f64)>,
    /// Run context, `(key, JSON value)`.
    pub context: Vec<(String, String)>,
    /// `(units_per_s, cpu_ms_per_unit)` of every good untraced pass.
    pub passes: Vec<(f64, f64)>,
    /// Set-up seconds, one per measuring process.
    pub setup_s: Vec<f64>,
    /// Peak RSS in MiB, one per measuring process.
    pub rss_mib: Vec<f64>,
    /// A digest of the untraced output, equal across processes.
    pub fingerprint: Option<String>,
}

impl Outcome {
    /// Count a pass of `units` units: failed if `check` says so.
    pub fn pass(&mut self, units: u64, check: Result<(), String>) -> bool {
        self.attempted += units;
        match check {
            Ok(()) => true,
            Err(why) => {
                self.failed += units;
                self.problems.push(why);
                false
            }
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Record a context entry (rendered as a JSON value), unless the
    /// key is already set.
    pub fn context(&mut self, key: &str, value: impl ToString) {
        if self.context.iter().all(|(k, _)| k != key) {
            self.context.push((key.to_string(), value.to_string()));
        }
    }

    /// The end-to-end metrics: medians over passes and processes.
    fn end_to_end(&mut self) {
        let (mut per_s, mut cpu): (Vec<f64>, Vec<f64>) = self.passes.iter().copied().unzip();
        self.set("units_per_s", median(&mut per_s));
        self.set("cpu_ms_per_unit", median(&mut cpu));
        self.set("peak_rss_mib", median(&mut self.rss_mib.clone()));
        self.set("setup_s", median(&mut self.setup_s.clone()));
    }

    /// The raw measurements a child process hands its parent, one per
    /// line.
    fn child_report(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.context {
            let _ = writeln!(out, "context {k} {v}");
        }
        for (per_s, cpu) in &self.passes {
            let _ = writeln!(out, "pass {per_s} {cpu}");
        }
        for v in &self.setup_s {
            let _ = writeln!(out, "setup {v}");
        }
        for v in &self.rss_mib {
            let _ = writeln!(out, "rss {v}");
        }
        if let Some(f) = &self.fingerprint {
            let _ = writeln!(out, "fingerprint {f}");
        }
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        for p in &self.problems {
            let _ = writeln!(out, "problem {}", p.replace('\n', " "));
        }
        out
    }

    /// Fold in one child's [`Outcome::child_report`].
    fn absorb(&mut self, report: &str, fingerprints: &mut Vec<String>) {
        for line in report.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| s.parse::<f64>().unwrap_or(f64::NAN);
            match key {
                "context" => {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, "null"));
                    self.context(k, v);
                }
                "pass" => {
                    let (a, b) = rest.split_once(' ').unwrap_or((rest, ""));
                    self.passes.push((num(a), num(b)));
                }
                "setup" => self.setup_s.push(num(rest)),
                "rss" => self.rss_mib.push(num(rest)),
                "fingerprint" => fingerprints.push(rest.to_string()),
                "attempted" => self.attempted += rest.parse::<u64>().unwrap_or(0),
                "failed" => self.failed += rest.parse::<u64>().unwrap_or(0),
                "problem" => self.problems.push(rest.to_string()),
                _ => {}
            }
        }
    }
}

/// Run the untraced measurement in [`PROCESSES`] child processes of
/// this executable, one after another, and pool what they measured.
/// Every child must produce the same output fingerprint.
fn measure_in_processes(plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.context("workload", format!("\"{}\"", plan.workload.name()));
    outcome.context("seed", plan.seed);
    outcome.context("seconds", plan.seconds);
    outcome.context("trace", false);
    outcome.context("processes", PROCESSES);
    let share = (plan.seconds / PROCESSES as f64).to_string();
    let seed = plan.seed.to_string();
    let mut fingerprints = Vec::new();
    for _ in 0..PROCESSES {
        let output = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", plan.workload.name(), "--seed", &seed, "--seconds", &share])
                .args(["--trace", "0", "--child", "1"])
                .stderr(Stdio::inherit())
                .output()
        });
        let (before, ok) = (outcome.attempted, output.as_ref().is_ok_and(|o| o.status.success()));
        match output {
            Ok(out) => outcome.absorb(&String::from_utf8_lossy(&out.stdout), &mut fingerprints),
            Err(e) => outcome.problems.push(format!("could not start a measuring process: {e}")),
        }
        if !ok {
            outcome.problems.push("a measuring process failed".to_string());
            if outcome.attempted == before {
                outcome.attempted += 1;
                outcome.failed += 1;
            }
        }
    }
    fingerprints.dedup();
    if fingerprints.len() > 1 {
        outcome.problems.push(format!("outputs differ between processes: {fingerprints:?}"));
    }
    outcome.end_to_end();
    outcome
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <paper_fleet|scenario_week|cells_city|paper_sweep> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Plan> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, 0u64, 10.0, false, false);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().ok()?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|&s: &f64| s.is_finite() && s > 0.0)?
            }
            "--child" => child = value == "1",
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(Plan { workload: workload?, seed, seconds, trace, child })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric of the plan's table, in table order.
fn result_json(plan: &Plan, outcome: &mut Outcome) -> String {
    let table = if plan.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = outcome.values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
        let value = if value.is_finite() {
            value
        } else {
            outcome.problems.push(format!("metric {name} is not finite"));
            0.0
        };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let Some(plan) = parse_args() else {
        return usage();
    };
    trace::epoch();
    if plan.child {
        print!("{}", workloads::run(&plan).child_report());
        return ExitCode::SUCCESS;
    }
    let mut outcome = if plan.trace { workloads::run(&plan) } else { measure_in_processes(&plan) };
    let line = result_json(&plan, &mut outcome);
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let table = if plan.trace { PER_LAYER } else { END_TO_END };
    println!("{} (seed {}, {} s):", plan.workload.name(), plan.seed, plan.seconds);
    for &(name, unit) in table {
        if let Some((_, v)) = outcome.values.iter().rev().find(|(n, _)| *n == name) {
            println!("  {name:<30} {v:>16.6} {unit}");
        }
    }
    let context: Vec<String> =
        outcome.context.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables must match `BENCHMARK.json` name for name and
    /// unit for unit, in order.
    #[test]
    fn tables_match_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let body = text.split(&format!("\"{key}\"")).nth(1).expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let rest = entry.split(&format!("\"{f}\": \"")).nth(1).expect("field");
                        rest[..rest.find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_registered_experiment_has_a_sweep_metric() {
        for e in threegol_bench::registry().all() {
            let name = format!("sweep.{}_ms", e.id());
            assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name} missing");
        }
    }
}
