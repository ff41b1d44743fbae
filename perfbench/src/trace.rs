//! In-memory span recording and the statistics the per-layer metrics
//! are computed with.
//!
//! A span is one timed call into a layer: a name, start and end
//! (nanoseconds since the process-wide [`epoch`]), the span that caused
//! it, the home it belongs to, and the worker thread that ran it. Spans
//! are kept in plain vectors while a run goes and written out when it
//! ends; nothing here touches the program under test.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// `Span::home` for spans that belong to no single home.
pub const NO_HOME: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call the span covers, e.g. `"proxy.home"`.
    pub name: &'static str,
    /// Start, nanoseconds since [`epoch`].
    pub start: u64,
    /// End, nanoseconds since [`epoch`].
    pub end: u64,
    /// Index of the parent span in the same trace, if any.
    pub parent: Option<usize>,
    /// Home index the span belongs to, or [`NO_HOME`].
    pub home: u32,
    /// Worker thread that recorded the span (see [`worker_id`]).
    pub worker: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The instant all span timestamps count from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A small process-unique number for the calling thread, so spans can
/// be grouped by the worker that ran them.
pub fn worker_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: Cell<Option<u32>> = const { Cell::new(None) };
    }
    ID.with(|id| match id.get() {
        Some(v) => v,
        None => {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(Some(v));
            v
        }
    })
}

/// Append `spans` to `into`, shifting their parent links by the
/// offset they land at; spans without a parent get `root`.
pub fn append(into: &mut Vec<Span>, spans: Vec<Span>, root: Option<usize>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base).or(root);
        s
    }));
}

/// Self time of every span: its length minus the part of its interval
/// its child spans cover (children are clipped to the parent, and
/// overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.ns() - covered
        })
        .collect()
}

/// The `q`-quantile of `xs` (nearest rank on the sorted values), or 0
/// for an empty slice. Sorts `xs` in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[rank(xs.len(), q)]
}

/// The median of `xs`, or 0 for an empty slice. Sorts `xs` in place.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q.clamp(0.0, 1.0)).ceil() as usize).clamp(1, n) - 1
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile of `xs` if at least [`MIN_TAIL_SAMPLES`] samples
/// lie beyond its rank, else `None`: a tail figure resting on fewer
/// samples is one outlier, not a percentile. Sorts `xs` in place.
pub fn tail_quantile(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() || xs.len() - 1 - rank(xs.len(), q) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(quantile(xs, q))
}

/// Least-squares slope of `y` over `x`, or 0 when `x` does not vary.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (sx, sy) = points.iter().fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(x, y) in points {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Write `spans` as tab-separated rows with their self times.
pub fn write_tsv(out: &mut impl Write, pass: usize, spans: &[Span]) -> std::io::Result<()> {
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let home = if s.home == NO_HOME { "-".to_string() } else { s.home.to_string() };
        writeln!(
            out,
            "{pass}\t{i}\t{parent}\t{}\t{home}\t{}\t{}\t{}\t{self_ns}",
            s.name, s.worker, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, home: NO_HOME, worker: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the union 10..40 is covered, not 20 + 20.
            span("b", 20, 40, Some(0)),
            // Disjoint, and sticks out past the parent: clipped to 90..100.
            span("c", 90, 120, Some(0)),
            span("a.child", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_length() {
        assert_eq!(self_times(&[span("x", 5, 9, None)]), vec![4]);
        // A child entirely outside its parent covers nothing.
        let spans = vec![span("p", 0, 10, None), span("k", 20, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![10, 10]);
    }

    #[test]
    fn append_rebases_parents_and_adopts_orphans() {
        let mut all = vec![span("root", 0, 100, None)];
        append(&mut all, vec![span("chunk", 1, 9, None), span("home", 2, 3, Some(0))], Some(0));
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        // 200 samples: the p95 rank is 189 (0-based), leaving 10 above.
        let mut xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_quantile(&mut xs, 0.95), Some(189.0));
        // 199 samples leave only 9 beyond the p95 rank.
        let mut xs: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_quantile(&mut xs, 0.95), None);
        assert_eq!(tail_quantile(&mut [], 0.5), None);
        // The median of 21 samples has 10 beyond it.
        let mut xs: Vec<f64> = (0..21).rev().map(f64::from).collect();
        assert_eq!(tail_quantile(&mut xs, 0.5), Some(10.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut xs = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&mut xs), 2.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn slope_fits_a_line() {
        let pts: Vec<(f64, f64)> = (1..=3).map(|d| (d as f64, 2.0 + 0.5 * d as f64)).collect();
        assert!((slope(&pts) - 0.5).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 5.0), (1.0, 7.0)]), 0.0);
    }
}
