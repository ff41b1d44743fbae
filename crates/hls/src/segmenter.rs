//! Cutting a video into HLS segments.

use crate::quality::VideoQuality;

/// Specification of a VoD asset.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSpec {
    /// Total duration, seconds. The paper uses 200 s ("the median video
    /// length of a YouTube video").
    pub duration_secs: f64,
    /// Target segment duration, seconds. The paper keeps the bipbop
    /// sample's 10 s segmentation.
    pub segment_secs: f64,
    /// Quality rendition.
    pub quality: VideoQuality,
}

impl VideoSpec {
    /// The paper's test video (bipbop, 200 s, 10 s segments) at the
    /// given quality.
    pub fn paper_video(quality: VideoQuality) -> VideoSpec {
        VideoSpec { duration_secs: 200.0, segment_secs: 10.0, quality }
    }

    /// Total media bytes.
    pub fn total_bytes(&self) -> f64 {
        self.quality.bytes_per_sec() * self.duration_secs
    }
}

/// One HLS media segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Zero-based index in playout order.
    pub index: usize,
    /// Media duration, seconds (the final segment may be shorter).
    pub duration_secs: f64,
    /// Payload size, bytes.
    pub size_bytes: f64,
    /// Relative URI as it would appear in the playlist.
    pub uri: String,
}

/// Cut `spec` into segments.
///
/// Sizes follow the rendition bitrate exactly (constant-bitrate model);
/// the final segment carries the remainder of the duration.
pub fn segment_video(spec: &VideoSpec) -> Vec<Segment> {
    assert!(spec.duration_secs > 0.0 && spec.segment_secs > 0.0);
    let mut segments = Vec::new();
    let mut t = 0.0;
    let mut index = 0;
    while t < spec.duration_secs - 1e-9 {
        let dur = spec.segment_secs.min(spec.duration_secs - t);
        segments.push(Segment {
            index,
            duration_secs: dur,
            size_bytes: spec.quality.bytes_per_sec() * dur,
            uri: format!("seg{index:05}.ts"),
        });
        t += dur;
        index += 1;
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> VideoQuality {
        VideoQuality::paper_ladder().remove(0)
    }

    #[test]
    fn paper_video_has_20_segments() {
        let segs = segment_video(&VideoSpec::paper_video(q1()));
        assert_eq!(segs.len(), 20);
        assert!(segs.iter().all(|s| (s.duration_secs - 10.0).abs() < 1e-9));
        assert!(segs.iter().all(|s| (s.size_bytes - 250e3).abs() < 1e-9));
        assert_eq!(segs[7].uri, "seg00007.ts");
        assert_eq!(segs[7].index, 7);
    }

    #[test]
    fn ragged_tail_segment() {
        let spec = VideoSpec { duration_secs: 25.0, segment_secs: 10.0, quality: q1() };
        let segs = segment_video(&spec);
        assert_eq!(segs.len(), 3);
        assert!((segs[2].duration_secs - 5.0).abs() < 1e-9);
        assert!((segs[2].size_bytes - 125e3).abs() < 1e-9);
    }

    #[test]
    fn total_bytes_consistent() {
        let spec = VideoSpec::paper_video(q1());
        let segs = segment_video(&spec);
        let sum: f64 = segs.iter().map(|s| s.size_bytes).sum();
        assert!((sum - spec.total_bytes()).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn zero_duration_rejected() {
        segment_video(&VideoSpec { duration_secs: 0.0, segment_secs: 10.0, quality: q1() });
    }
}
