//! Synthetic DSLAM flow trace (paper Table 1: "flow level information
//! for all subscribers connected to one DSLAM in a major European
//! city", 18 000 DSL lines, 24 h, April 2011, 3 Mbit/s ADSL).
//!
//! The §6 analyses use three marginals, all reported in the paper and
//! matched here:
//!
//! * 68 % of subscribers request at least one video in the day;
//! * among them, the daily video count has mean 14.12, median 6 and
//!   std 30.13 — which is an (exact) lognormal fit with
//!   `μ = ln 6, σ ≈ 1.308`;
//! * video sizes average ~50 MB (the paper's YouTube reference), with
//!   a heavy right tail; request times follow the wired diurnal curve.

use threegol_simnet::dist::{lognormal_params, mix_seed};
use threegol_simnet::SimRng;

use crate::diurnal::wired_diurnal_load;

/// Configuration of the DSLAM trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DslamTraceConfig {
    /// Number of DSL subscribers behind the DSLAM (paper: 18 000).
    pub n_users: usize,
    /// Fraction of subscribers with at least one video (paper: 0.68).
    pub video_user_fraction: f64,
    /// Median daily videos among video users (paper: 6).
    pub videos_median: f64,
    /// Lognormal sigma of the daily video count (1.308 reproduces the
    /// paper's mean 14.12 and std 30.13 together with the median).
    pub videos_sigma: f64,
    /// Mean video size, bytes (paper/YouTube: ~50 MB).
    pub video_size_mean_bytes: f64,
    /// Std of video size, bytes.
    pub video_size_sd_bytes: f64,
    /// ADSL downlink of the subscribers, bits/s (paper: 3 Mbit/s).
    pub adsl_down_bps: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DslamTraceConfig {
    fn default() -> Self {
        DslamTraceConfig {
            n_users: 18_000,
            video_user_fraction: 0.68,
            videos_median: 6.0,
            videos_sigma: 1.308,
            video_size_mean_bytes: 50e6,
            video_size_sd_bytes: 45e6,
            adsl_down_bps: 3e6,
            seed: 0xD51A,
        }
    }
}

/// One video request in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoRequest {
    /// Subscriber id.
    pub user_id: u32,
    /// Request time, seconds since midnight.
    pub time_secs: f64,
    /// Size of the requested video file, bytes.
    pub size_bytes: f64,
}

/// A generated 24-hour DSLAM trace.
#[derive(Debug, Clone)]
pub struct DslamTrace {
    /// All video requests, sorted by time.
    pub requests: Vec<VideoRequest>,
    /// The configuration that produced the trace.
    pub config: DslamTraceConfig,
}

/// Draw an hour of day from 24 normalized weights: one uniform draw,
/// cumulative subtraction — the exact scheme [`DslamTrace::generate`]
/// has always used, shared so the scenario generator's diurnal draws
/// match the DSLAM trace's bit for bit.
pub(crate) fn diurnal_hour(rng: &mut SimRng, weights: &[f64; 24]) -> usize {
    let mut pick = rng.uniform();
    let mut hour = 23usize;
    for (h, w) in weights.iter().enumerate() {
        if pick <= *w {
            hour = h;
            break;
        }
        pick -= *w;
    }
    hour
}

/// A lazily generated per-user request stream: the same draws, in the
/// same order, as the user's slice of [`DslamTrace::generate`] —
/// without materializing anyone else's requests. Seeded purely from
/// `(config.seed, user)`, so a home can stream its own subscriber's
/// day in O(own requests) while the fleet-wide batch stays a thin
/// wrapper that concatenates and sorts these streams.
#[derive(Debug, Clone)]
pub struct UserStream {
    rng: SimRng,
    user: u32,
    remaining: usize,
    hour_weights: [f64; 24],
    /// The video-size lognormal as `(mu, sigma)`, converted once per
    /// stream rather than once per draw.
    size_params: (f64, f64),
}

impl UserStream {
    /// Start the request stream of one subscriber. A non-video user
    /// (the `1 − video_user_fraction` complement) yields nothing.
    pub fn new(config: &DslamTraceConfig, user: u32) -> UserStream {
        let mut rng = SimRng::seed_from_u64(mix_seed(config.seed, user as u64));
        // Daily video count: lognormal(ln median, sigma), rounded up
        // so every video user has >= 1 video.
        let remaining = if rng.chance(config.video_user_fraction) {
            rng.lognormal(config.videos_median.ln(), config.videos_sigma).round().max(1.0) as usize
        } else {
            0
        };
        UserStream {
            rng,
            user,
            remaining,
            hour_weights: *wired_diurnal_load().normalized_sum().weights(),
            size_params: lognormal_params(config.video_size_mean_bytes, config.video_size_sd_bytes),
        }
    }

    /// The subscriber id this stream belongs to.
    pub fn user(&self) -> u32 {
        self.user
    }
}

impl Iterator for UserStream {
    type Item = VideoRequest;

    fn next(&mut self) -> Option<VideoRequest> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Hour by the wired diurnal distribution, uniform within.
        let hour = diurnal_hour(&mut self.rng, &self.hour_weights);
        let time_secs = (hour as f64 + self.rng.uniform()) * 3600.0;
        let (mu, sigma) = self.size_params;
        let size_bytes = self.rng.lognormal(mu, sigma).max(100e3);
        Some(VideoRequest { user_id: self.user, time_secs, size_bytes })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for UserStream {}

impl DslamTrace {
    /// Stream one subscriber's requests without materializing the
    /// fleet-wide trace: `user_stream(&config, uid)` yields exactly the
    /// requests `generate(config)` would attribute to `uid`, in draw
    /// order (unsorted; `generate` sorts globally by time).
    pub fn user_stream(config: &DslamTraceConfig, user: u32) -> UserStream {
        UserStream::new(config, user)
    }

    /// One subscriber's requests in time order, written into `out`
    /// (cleared first, so a pass over many subscribers reuses one
    /// buffer): exactly the group [`DslamTrace::by_user`] yields for
    /// `user`, bit for bit and in the same order, and empty for a
    /// subscriber with no video. `generate` sorts its concatenation of
    /// the streams stably by time, so a subscriber's requests keep
    /// their draw order on ties; the same stable sort over the one
    /// stream reproduces that order.
    pub fn user_requests(config: &DslamTraceConfig, user: u32, out: &mut Vec<VideoRequest>) {
        out.clear();
        out.extend(DslamTrace::user_stream(config, user));
        out.sort_by(|a, b| a.time_secs.total_cmp(&b.time_secs));
    }

    /// Generate a trace — a thin wrapper concatenating every user's
    /// [`UserStream`] and sorting by request time.
    pub fn generate(config: DslamTraceConfig) -> DslamTrace {
        let mut requests = Vec::new();
        for uid in 0..config.n_users as u32 {
            requests.extend(DslamTrace::user_stream(&config, uid));
        }
        requests.sort_by(|a, b| a.time_secs.total_cmp(&b.time_secs));
        DslamTrace { requests, config }
    }

    /// Number of distinct subscribers with at least one video.
    pub fn video_user_count(&self) -> usize {
        let mut ids: Vec<u32> = self.requests.iter().map(|r| r.user_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Daily video counts per video user.
    pub fn per_user_counts(&self) -> Vec<usize> {
        use std::collections::HashMap;
        let mut m: HashMap<u32, usize> = HashMap::new();
        for r in &self.requests {
            *m.entry(r.user_id).or_insert(0) += 1;
        }
        let mut v: Vec<usize> = m.into_values().collect();
        v.sort_unstable();
        v
    }

    /// Requested bytes per 5-minute bin over the day (288 bins) — the
    /// wired demand curve used by Fig 11b.
    pub fn bytes_per_5min(&self) -> Vec<f64> {
        let mut bins = vec![0.0; 288];
        for r in &self.requests {
            let idx = ((r.time_secs / 300.0).floor() as usize).min(287);
            bins[idx] += r.size_bytes;
        }
        bins
    }

    /// Group requests by user (ascending user id, each user's requests
    /// in time order). One stable sort on `user_id` keeps each user's
    /// requests in the trace's time order.
    pub fn by_user(&self) -> Vec<(u32, Vec<VideoRequest>)> {
        let mut requests = self.requests.clone();
        requests.sort_by_key(|r| r.user_id);
        requests
            .chunk_by(|a, b| a.user_id == b.user_id)
            .map(|group| (group[0].user_id, group.to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threegol_simnet::stats::{median, Summary};

    fn small_trace() -> DslamTrace {
        DslamTrace::generate(DslamTraceConfig { n_users: 4000, ..DslamTraceConfig::default() })
    }

    #[test]
    fn video_user_fraction_matches() {
        let t = small_trace();
        let frac = t.video_user_count() as f64 / t.config.n_users as f64;
        assert!((frac - 0.68).abs() < 0.03, "video-user fraction {frac}");
    }

    #[test]
    fn per_user_counts_match_paper_moments() {
        let t = DslamTrace::generate(DslamTraceConfig {
            n_users: 18_000,
            ..DslamTraceConfig::default()
        });
        let counts: Vec<f64> = t.per_user_counts().iter().map(|&c| c as f64).collect();
        let s = Summary::of(&counts);
        let med = median(&counts);
        // Paper: mean 14.12, median 6, std 30.13.
        assert!((s.mean - 14.12).abs() < 2.0, "mean {}", s.mean);
        assert!((med - 6.0).abs() <= 1.0, "median {med}");
        assert!((s.sd - 30.13).abs() < 10.0, "std {}", s.sd);
    }

    #[test]
    fn video_sizes_average_50mb() {
        let t = small_trace();
        let sizes: Vec<f64> = t.requests.iter().map(|r| r.size_bytes).collect();
        let s = Summary::of(&sizes);
        assert!((s.mean / 50e6 - 1.0).abs() < 0.05, "mean size {}", s.mean);
        assert!(s.min >= 100e3);
    }

    #[test]
    fn requests_are_time_sorted_and_diurnal() {
        let t = small_trace();
        assert!(t.requests.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
        assert!(t.requests.iter().all(|r| (0.0..86_400.0).contains(&r.time_secs)));
        // Evening traffic dominates the night valley.
        let evening =
            t.requests.iter().filter(|r| (19.0..23.0).contains(&(r.time_secs / 3600.0))).count();
        let night =
            t.requests.iter().filter(|r| (2.0..6.0).contains(&(r.time_secs / 3600.0))).count();
        assert!(evening > night * 3, "evening {evening} night {night}");
    }

    #[test]
    fn five_minute_bins_cover_all_bytes() {
        let t = small_trace();
        let total: f64 = t.requests.iter().map(|r| r.size_bytes).sum();
        let binned: f64 = t.bytes_per_5min().iter().sum();
        assert!((total - binned).abs() < 1.0);
        assert_eq!(t.bytes_per_5min().len(), 288);
    }

    #[test]
    fn by_user_groups_consistently() {
        let t = small_trace();
        let grouped = t.by_user();
        assert_eq!(grouped.len(), t.video_user_count());
        let total: usize = grouped.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, t.requests.len());
        for (uid, reqs) in grouped.iter().take(20) {
            assert!(reqs.iter().all(|r| r.user_id == *uid));
            assert!(reqs.windows(2).all(|w| w[0].time_secs <= w[1].time_secs));
        }
    }

    #[test]
    fn user_stream_matches_generate_bitwise() {
        let config = DslamTraceConfig { n_users: 512, ..DslamTraceConfig::default() };
        let t = DslamTrace::generate(config.clone());
        let mut grouped = t.by_user().into_iter().peekable();
        let mut reqs = Vec::new();
        let mut streamed_total = 0usize;
        let mut zero_video_users = 0usize;
        for uid in 0..config.n_users as u32 {
            DslamTrace::user_requests(&config, uid, &mut reqs);
            if grouped.peek().is_none_or(|(g, _)| *g != uid) {
                // Not in the batch trace: a subscriber with no video,
                // whose stream is empty too.
                assert!(reqs.is_empty(), "user {uid} streamed {} requests", reqs.len());
                zero_video_users += 1;
                continue;
            }
            let (_, greqs) = grouped.next().expect("peeked");
            streamed_total += reqs.len();
            // Bitwise equality, order included: the stream replays the
            // exact draws of the batch generator, and the per-user
            // stable sort reproduces the global sort's tie order.
            assert_eq!(reqs.len(), greqs.len(), "user {uid}");
            for (a, b) in reqs.iter().zip(greqs.iter()) {
                assert_eq!(a.user_id, uid);
                assert_eq!(a.time_secs.to_bits(), b.time_secs.to_bits(), "user {uid}");
                assert_eq!(a.size_bytes.to_bits(), b.size_bytes.to_bits(), "user {uid}");
            }
        }
        assert!(grouped.next().is_none(), "batch trace has a user the streams lack");
        assert!(zero_video_users > 0, "512 users include no non-video subscriber");
        assert_eq!(streamed_total, t.requests.len());
    }

    #[test]
    fn user_stream_reports_exact_size() {
        let config = DslamTraceConfig::default();
        let s = DslamTrace::user_stream(&config, 7);
        let n = s.len();
        assert_eq!(s.count(), n);
        assert_eq!(DslamTrace::user_stream(&config, 7).user(), 7);
    }

    #[test]
    fn deterministic_generation() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.requests[3], b.requests[3]);
    }
}
