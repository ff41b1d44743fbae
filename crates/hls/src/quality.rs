//! Video quality ladder.

/// A video quality rendition.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoQuality {
    /// Display label, e.g. `"Q3"`.
    pub label: String,
    /// Average video bitrate, bits/second.
    pub bitrate_bps: f64,
}

impl VideoQuality {
    /// Create a quality level.
    pub fn new(label: impl Into<String>, bitrate_bps: f64) -> VideoQuality {
        assert!(bitrate_bps > 0.0);
        VideoQuality { label: label.into(), bitrate_bps }
    }

    /// The paper's ladder: "the original qualities of the video
    /// (Q1 = 200 kbps, Q2 = 311 kbps, Q3 = 484 kbps, Q4 = 738 kbps) as
    /// they reflect commonly used bitrates" (§5.1).
    pub fn paper_ladder() -> Vec<VideoQuality> {
        vec![
            VideoQuality::new("Q1", 200e3),
            VideoQuality::new("Q2", 311e3),
            VideoQuality::new("Q3", 484e3),
            VideoQuality::new("Q4", 738e3),
        ]
    }

    /// Bytes of media per second of video.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bitrate_bps / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder_matches() {
        let l = VideoQuality::paper_ladder();
        assert_eq!(l.len(), 4);
        assert_eq!(l[0].bitrate_bps, 200e3);
        assert_eq!(l[3].bitrate_bps, 738e3);
        assert_eq!(l[1].label, "Q2");
    }

    #[test]
    fn segment_sizes_match_paper_range() {
        // Paper §5.2: segments from min 0.2 MB (Q1) to max ~0.95 MB (Q4)
        // at 10 s segment duration.
        let l = VideoQuality::paper_ladder();
        let q1 = l[0].bytes_per_sec() * 10.0;
        let q4 = l[3].bytes_per_sec() * 10.0;
        assert!((q1 - 250e3).abs() < 1e-9);
        assert!((q4 - 922.5e3).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_bitrate_rejected() {
        VideoQuality::new("bad", 0.0);
    }
}
