//! The traced fleet runner: the same homes as
//! `fleet::run_fleet_with`, driven through the program's public calls
//! with a span around each one, and the per-layer metrics computed
//! from those spans.
//!
//! The runner goes through `exec::fold` over the same chunk ranges, a
//! worker-local `Runtime` reset between homes, `Home::run` under
//! `Runtime::block_on`, `tokio::net::stats` at the end of each home,
//! and `FleetDigest::observe` / `FleetDigest::merge` — so its digest
//! must equal the untraced run's, which the benchmark checks.

use std::cell::RefCell;
use std::collections::BTreeMap;

use threegol_bench::fleet::FleetDigest;
use threegol_bench::{fold, Pool};
use threegol_proxy::{Home, HomeSpec};
use tokio::net::NetStats;
use tokio::runtime::Runtime;

use crate::trace::{self, append, now_ns, worker_id, Span, NO_HOME};

thread_local! {
    /// The worker's reused home runtime.
    static RT: RefCell<Option<Runtime>> = const { RefCell::new(None) };
}

/// One traced fleet pass.
pub struct FleetPass {
    /// The pass's fleet digest.
    pub digest: FleetDigest,
    /// Every span of the pass; span 0 is the whole `exec.fold`.
    pub spans: Vec<Span>,
    /// Virtual-net counts summed over the pass's homes.
    pub net: NetStats,
    /// Pool workers the pass ran on.
    pub workers: usize,
}

/// What one chunk hands back to the fold.
struct ChunkPart {
    digest: FleetDigest,
    spans: Vec<Span>,
    net: NetStats,
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, home: u32) -> Span {
    Span { name, start, end, parent, home, worker: worker_id() }
}

fn add_stats(into: &mut NetStats, s: &NetStats) {
    into.tcp_binds += s.tcp_binds;
    into.tcp_connects += s.tcp_connects;
    into.udp_binds += s.udp_binds;
    into.datagrams += s.datagrams;
}

fn traced_chunk(spec: &impl Fn(u32) -> HomeSpec, start: u32, end: u32) -> ChunkPart {
    let mut spans = vec![span("exec.chunk", now_ns(), 0, None, NO_HOME)];
    let mut digest = FleetDigest::empty();
    let mut net = NetStats::default();
    RT.with(|slot| {
        let mut slot = slot.borrow_mut();
        for index in start..end {
            let spec = spec(index);
            let home_start = now_ns();
            let home = spans.len();
            spans.push(span("exec.home", home_start, 0, Some(0), index));
            let rt = slot.get_or_insert_with(Runtime::new);
            rt.reset();
            let ready = now_ns();
            let (report, stats, run_start, run_end, stats_end) = rt.block_on(async {
                let run_start = now_ns();
                let report = Home::run(&spec).await;
                let run_end = now_ns();
                let stats = tokio::net::stats();
                (report, stats, run_start, run_end, now_ns())
            });
            let done = now_ns();
            let report = report.unwrap_or_else(|e| panic!("home {index} failed: {e}"));
            digest.observe(&report);
            digest.net_events +=
                stats.tcp_binds + stats.tcp_connects + stats.udp_binds + stats.datagrams;
            let observed = now_ns();
            add_stats(&mut net, &stats);
            spans.push(span("runtime.reset", home_start, ready, Some(home), index));
            let block_on = spans.len();
            spans.push(span("runtime.block_on", ready, done, Some(home), index));
            spans.push(span("proxy.home", run_start, run_end, Some(block_on), index));
            spans.push(span("net.stats", run_end, stats_end, Some(block_on), index));
            spans.push(span("digest.observe", done, observed, Some(home), index));
            spans[home].end = observed;
        }
    });
    spans[0].end = now_ns();
    ChunkPart { digest, spans, net }
}

/// Run `homes` homes of `spec` in `chunk`-home units on `pool`,
/// recording spans. Panics if a home fails, as the untraced fleet does.
pub fn traced_fleet<F>(homes: u32, chunk: u32, pool: &Pool, spec: F) -> FleetPass
where
    F: Fn(u32) -> HomeSpec + Send + Sync + 'static,
{
    let ranges: Vec<(u32, u32)> =
        (0..homes).step_by(chunk as usize).map(|s| (s, homes.min(s + chunk))).collect();
    let root = vec![span("exec.fold", now_ns(), 0, None, NO_HOME)];
    let (digest, mut spans, net) = fold(
        pool,
        ranges,
        move |&(start, end)| traced_chunk(&spec, start, end),
        (FleetDigest::empty(), root, NetStats::default()),
        |(mut digest, mut spans, mut net), part| {
            let start = now_ns();
            digest.merge(&part.digest);
            spans.push(span("digest.merge", start, now_ns(), Some(0), NO_HOME));
            append(&mut spans, part.spans, Some(0));
            add_stats(&mut net, &part.net);
            (digest, spans, net)
        },
    );
    spans[0].end = now_ns();
    FleetPass { digest, spans, net, workers: pool.workers() }
}

/// `exec.busy_frac`, `exec.tail_ms` and `exec.chunk_ms_max` of one
/// pass: busy is the sum of per-home spans over wall × workers; the
/// tail runs from the first worker going idle for good to the end of
/// the fold (a worker that never got a chunk is idle from the start).
pub fn exec_split(pass: &FleetPass) -> (f64, f64, f64) {
    let fold = &pass.spans[0];
    let busy: u64 = pass.spans.iter().filter(|s| s.name == "exec.home").map(Span::ns).sum();
    let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
    let mut chunk_max = 0;
    for s in pass.spans.iter().filter(|s| s.name == "exec.chunk") {
        let end = last_end.entry(s.worker).or_insert(0);
        *end = (*end).max(s.end);
        chunk_max = chunk_max.max(s.ns());
    }
    let first_idle = if last_end.len() < pass.workers {
        fold.start
    } else {
        last_end.values().copied().min().unwrap_or(fold.start)
    };
    let busy_frac = busy as f64 / (fold.ns().max(1) as f64 * pass.workers as f64);
    let tail_ms = fold.end.saturating_sub(first_idle) as f64 / 1e6;
    (busy_frac, tail_ms, chunk_max as f64 / 1e6)
}

/// Durations of every span named `name` across `passes`, in units of
/// `ns_per_unit` nanoseconds.
pub fn durations(passes: &[FleetPass], name: &str, ns_per_unit: f64) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / ns_per_unit)
        .collect()
}

/// Self time per span name, summed over `passes`, in span-name order.
pub fn self_time_by_name(passes: &[&[Span]]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for spans in passes {
        for (s, ns) in spans.iter().zip(trace::self_times(spans)) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
    }
    by_name
}
