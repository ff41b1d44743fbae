//! The VoD player model.
//!
//! The paper measures two things on the downlink (§5.2):
//!
//! * **pre-buffering time** — "the measured delay from the initial
//!   request of the video to the first frame displayed by the player";
//!   playback starts once the first `K` segments are buffered, where
//!   the pre-buffer amount is varied from 20 % to 100 % of the video
//!   length;
//! * **total download time** of the whole video.
//!
//! Given the per-segment download completion times produced by any
//! transport (fluid simulation, toy executor or the live prototype),
//! [`PlayerModel`] computes both, plus a playout stall analysis.

/// A VoD player with a pre-buffer threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerModel {
    /// Fraction of the video that must be buffered before playback
    /// starts, in `(0, 1]`. The paper sweeps 0.2, 0.4, 0.6, 0.8, 1.0.
    pub prebuffer_fraction: f64,
}

impl PlayerModel {
    /// Create a player with the given pre-buffer fraction.
    pub fn new(prebuffer_fraction: f64) -> PlayerModel {
        assert!(
            prebuffer_fraction > 0.0 && prebuffer_fraction <= 1.0,
            "pre-buffer fraction must be in (0, 1]"
        );
        PlayerModel { prebuffer_fraction }
    }

    /// Number of segments that must be buffered before playback starts
    /// (at least one).
    pub fn prebuffer_segments(&self, n_segments: usize) -> usize {
        if n_segments == 0 {
            return 0;
        }
        ((self.prebuffer_fraction * n_segments as f64).ceil() as usize).clamp(1, n_segments)
    }

    /// Pre-buffering time: when the first `K` segments have all
    /// completed. `completion_secs[i]` is the download completion time
    /// of segment `i` relative to the initial request.
    pub fn prebuffer_time_secs(&self, completion_secs: &[f64]) -> f64 {
        let k = self.prebuffer_segments(completion_secs.len());
        completion_secs[..k].iter().cloned().fold(0.0, f64::max)
    }

    /// Full playout analysis: startup delay, stalls, and total time to
    /// play the video end to end.
    pub fn playout(&self, completion_secs: &[f64], segment_durations: &[f64]) -> PlayoutReport {
        assert_eq!(completion_secs.len(), segment_durations.len());
        let startup = self.prebuffer_time_secs(completion_secs);
        let mut clock = startup;
        let mut stalls = Vec::new();
        let mut total_stall = 0.0;
        for (i, (&done_at, &dur)) in completion_secs.iter().zip(segment_durations).enumerate() {
            if done_at > clock {
                // The player drained its buffer: stall until segment i
                // finishes downloading.
                let stall = done_at - clock;
                stalls.push((i, clock, stall));
                total_stall += stall;
                clock = done_at;
            }
            clock += dur;
        }
        PlayoutReport {
            startup_secs: startup,
            stalls,
            total_stall_secs: total_stall,
            finish_secs: clock,
        }
    }
}

/// Result of playing a video against a download schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayoutReport {
    /// Startup (pre-buffering) delay, seconds.
    pub startup_secs: f64,
    /// `(segment_index, stall_start_secs, stall_duration_secs)` events.
    pub stalls: Vec<(usize, f64, f64)>,
    /// Total stalled time, seconds.
    pub total_stall_secs: f64,
    /// Wall-clock time at which the last frame plays, seconds.
    pub finish_secs: f64,
}

impl PlayoutReport {
    /// True if playback never stalled after startup.
    pub fn smooth(&self) -> bool {
        self.stalls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prebuffer_segment_counts() {
        let p = PlayerModel::new(0.2);
        assert_eq!(p.prebuffer_segments(20), 4); // the paper's minimum (4 segments)
        assert_eq!(PlayerModel::new(1.0).prebuffer_segments(20), 20);
        assert_eq!(PlayerModel::new(0.01).prebuffer_segments(20), 1);
        assert_eq!(PlayerModel::new(0.5).prebuffer_segments(0), 0);
    }

    #[test]
    fn prebuffer_time_is_max_of_first_k() {
        let p = PlayerModel::new(0.5);
        // 4 segments, K = 2; out-of-order completion (parallel fetch).
        let completion = [3.0, 1.0, 9.0, 2.0];
        assert_eq!(p.prebuffer_time_secs(&completion), 3.0);
    }

    #[test]
    fn smooth_playout_when_downloads_keep_up() {
        let p = PlayerModel::new(0.25);
        let completion = [1.0, 2.0, 3.0, 4.0];
        let durs = [10.0; 4];
        let rep = p.playout(&completion, &durs);
        assert_eq!(rep.startup_secs, 1.0);
        assert!(rep.smooth());
        assert_eq!(rep.total_stall_secs, 0.0);
        assert_eq!(rep.finish_secs, 41.0);
    }

    #[test]
    fn stall_when_segment_late() {
        let p = PlayerModel::new(0.25);
        // Segment 2 only arrives at t=30 but would be needed at t=21.
        let completion = [1.0, 5.0, 30.0, 31.0];
        let durs = [10.0; 4];
        let rep = p.playout(&completion, &durs);
        assert_eq!(rep.startup_secs, 1.0);
        assert_eq!(rep.stalls.len(), 1);
        let (idx, at, stall) = rep.stalls[0];
        assert_eq!(idx, 2);
        assert_eq!(at, 21.0);
        assert_eq!(stall, 9.0);
        assert_eq!(rep.total_stall_secs, 9.0);
        assert_eq!(rep.finish_secs, 50.0);
    }

    #[test]
    fn full_prebuffer_never_stalls() {
        let p = PlayerModel::new(1.0);
        let completion = [40.0, 10.0, 90.0, 70.0];
        let durs = [10.0; 4];
        let rep = p.playout(&completion, &durs);
        assert_eq!(rep.startup_secs, 90.0);
        assert!(rep.smooth());
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_rejected() {
        PlayerModel::new(0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        PlayerModel::new(0.5).playout(&[1.0], &[1.0, 2.0]);
    }
}
