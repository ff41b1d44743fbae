//! Extended-M3U (m3u8) playlist generation and parsing.
//!
//! Implements the subset of the HTTP Live Streaming draft
//! (draft-pantos-http-live-streaming, cited by the paper) the 3GOL
//! prototype needs: VoD media playlists (`#EXTINF` + `#EXT-X-ENDLIST`)
//! and master playlists (`#EXT-X-STREAM-INF` variants).

use std::fmt;

use crate::quality::VideoQuality;
use crate::segmenter::Segment;

/// Errors produced while parsing a playlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaylistError {
    /// The document does not start with `#EXTM3U`.
    MissingHeader,
    /// A directive could not be parsed.
    BadDirective(String),
    /// An `#EXTINF` was not followed by a segment URI.
    DanglingExtinf,
}

impl fmt::Display for PlaylistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaylistError::MissingHeader => write!(f, "missing #EXTM3U header"),
            PlaylistError::BadDirective(d) => write!(f, "unparseable directive: {d}"),
            PlaylistError::DanglingExtinf => write!(f, "#EXTINF without a segment URI"),
        }
    }
}

impl std::error::Error for PlaylistError {}

/// A VoD media playlist: an ordered list of segments.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaPlaylist {
    /// `#EXT-X-TARGETDURATION` value, seconds.
    pub target_duration_secs: f64,
    /// `(duration_secs, uri)` pairs in playout order.
    pub entries: Vec<(f64, String)>,
    /// Whether `#EXT-X-ENDLIST` was present (always true for VoD).
    pub ended: bool,
}

impl MediaPlaylist {
    /// Build a VoD playlist from segments.
    pub fn from_segments(segments: &[Segment]) -> MediaPlaylist {
        let target = segments.iter().map(|s| s.duration_secs).fold(0.0, f64::max).ceil();
        MediaPlaylist {
            target_duration_secs: target,
            entries: segments.iter().map(|s| (s.duration_secs, s.uri.clone())).collect(),
            ended: true,
        }
    }

    /// Render to m3u8 text.
    pub fn to_m3u8(&self) -> String {
        let mut out = String::new();
        out.push_str("#EXTM3U\n");
        out.push_str("#EXT-X-VERSION:3\n");
        out.push_str(&format!("#EXT-X-TARGETDURATION:{}\n", self.target_duration_secs as u64));
        out.push_str("#EXT-X-MEDIA-SEQUENCE:0\n");
        out.push_str("#EXT-X-PLAYLIST-TYPE:VOD\n");
        for (dur, uri) in &self.entries {
            out.push_str(&format!("#EXTINF:{dur:.3},\n{uri}\n"));
        }
        if self.ended {
            out.push_str("#EXT-X-ENDLIST\n");
        }
        out
    }

    /// Parse m3u8 text.
    pub fn parse(text: &str) -> Result<MediaPlaylist, PlaylistError> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("#EXTM3U") {
            return Err(PlaylistError::MissingHeader);
        }
        let mut target = 0.0;
        let mut entries = Vec::new();
        let mut pending: Option<f64> = None;
        let mut ended = false;
        for line in lines {
            if let Some(rest) = line.strip_prefix("#EXT-X-TARGETDURATION:") {
                target = rest
                    .parse::<f64>()
                    .map_err(|_| PlaylistError::BadDirective(line.to_string()))?;
            } else if let Some(rest) = line.strip_prefix("#EXTINF:") {
                let dur_text = rest.split(',').next().unwrap_or(rest);
                let dur = dur_text
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| PlaylistError::BadDirective(line.to_string()))?;
                pending = Some(dur);
            } else if line == "#EXT-X-ENDLIST" {
                ended = true;
            } else if line.starts_with('#') {
                // Unknown/irrelevant directive: ignored (per spec).
            } else {
                let dur = pending.take().ok_or(PlaylistError::DanglingExtinf)?;
                entries.push((dur, line.to_string()));
            }
        }
        if pending.is_some() {
            return Err(PlaylistError::DanglingExtinf);
        }
        Ok(MediaPlaylist { target_duration_secs: target, entries, ended })
    }

    /// Total media duration, seconds.
    pub fn duration_secs(&self) -> f64 {
        self.entries.iter().map(|(d, _)| d).sum()
    }

    /// The request target of each segment, in playout order, for a
    /// playlist fetched from `playlist_target`. An absolute URI
    /// (`/...`) is used as is; a relative one is resolved against the
    /// playlist's directory.
    pub fn segment_targets<'a>(
        &'a self,
        playlist_target: &'a str,
    ) -> impl Iterator<Item = String> + 'a {
        let base = playlist_target.rsplit_once('/').map(|(dir, _)| dir).unwrap_or("");
        self.entries.iter().map(move |(_, uri)| {
            if uri.starts_with('/') {
                uri.clone()
            } else {
                format!("{base}/{uri}")
            }
        })
    }
}

/// A master playlist: variant renditions with bandwidth attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterPlaylist {
    /// `(bandwidth_bps, uri)` per variant, in ladder order.
    pub variants: Vec<(u64, String)>,
}

impl MasterPlaylist {
    /// Build a master playlist from a quality ladder; variant `i` points
    /// to `"q{i+1}/index.m3u8"`.
    pub fn from_ladder(ladder: &[VideoQuality]) -> MasterPlaylist {
        MasterPlaylist {
            variants: ladder
                .iter()
                .enumerate()
                .map(|(i, q)| (q.bitrate_bps as u64, format!("q{}/index.m3u8", i + 1)))
                .collect(),
        }
    }

    /// Render to m3u8 text.
    pub fn to_m3u8(&self) -> String {
        let mut out = String::from("#EXTM3U\n#EXT-X-VERSION:3\n");
        for (bw, uri) in &self.variants {
            out.push_str(&format!("#EXT-X-STREAM-INF:BANDWIDTH={bw}\n{uri}\n"));
        }
        out
    }

    /// Parse m3u8 text.
    pub fn parse(text: &str) -> Result<MasterPlaylist, PlaylistError> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("#EXTM3U") {
            return Err(PlaylistError::MissingHeader);
        }
        let mut variants = Vec::new();
        let mut pending_bw: Option<u64> = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("#EXT-X-STREAM-INF:") {
                let bw = rest
                    .split(',')
                    .find_map(|attr| attr.trim().strip_prefix("BANDWIDTH="))
                    .ok_or_else(|| PlaylistError::BadDirective(line.to_string()))?
                    .parse::<u64>()
                    .map_err(|_| PlaylistError::BadDirective(line.to_string()))?;
                pending_bw = Some(bw);
            } else if line.starts_with('#') {
                // ignore
            } else if let Some(bw) = pending_bw.take() {
                variants.push((bw, line.to_string()));
            }
        }
        Ok(MasterPlaylist { variants })
    }

    /// The variant with the highest bandwidth not exceeding `bps`, or
    /// the lowest variant if none fits.
    pub fn select(&self, bps: f64) -> Option<&(u64, String)> {
        self.variants
            .iter()
            .filter(|(bw, _)| (*bw as f64) <= bps)
            .max_by_key(|(bw, _)| *bw)
            .or_else(|| self.variants.iter().min_by_key(|(bw, _)| *bw))
    }

    /// True if `text` looks like a master playlist (has STREAM-INF).
    pub fn looks_like_master(text: &str) -> bool {
        text.contains("#EXT-X-STREAM-INF:")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmenter::{segment_video, VideoSpec};

    fn paper_segments() -> Vec<Segment> {
        let q = VideoQuality::paper_ladder().remove(0);
        segment_video(&VideoSpec::paper_video(q))
    }

    #[test]
    fn media_round_trip() {
        let pl = MediaPlaylist::from_segments(&paper_segments());
        let text = pl.to_m3u8();
        let parsed = MediaPlaylist::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 20);
        assert_eq!(parsed.target_duration_secs, 10.0);
        assert!(parsed.ended);
        assert!((parsed.duration_secs() - 200.0).abs() < 1e-6);
        assert_eq!(parsed.entries[0].1, "seg00000.ts");
    }

    #[test]
    fn media_parse_rejects_garbage() {
        assert_eq!(MediaPlaylist::parse("not a playlist"), Err(PlaylistError::MissingHeader));
        assert!(matches!(
            MediaPlaylist::parse("#EXTM3U\n#EXTINF:abc,\nseg.ts\n"),
            Err(PlaylistError::BadDirective(_))
        ));
        assert_eq!(
            MediaPlaylist::parse("#EXTM3U\n#EXTINF:10,\n"),
            Err(PlaylistError::DanglingExtinf)
        );
    }

    #[test]
    fn media_parse_ignores_unknown_directives() {
        let text = "#EXTM3U\n#EXT-X-FOO:bar\n#EXTINF:10.0,\nseg0.ts\n#EXT-X-ENDLIST\n";
        let pl = MediaPlaylist::parse(text).unwrap();
        assert_eq!(pl.entries, vec![(10.0, "seg0.ts".to_string())]);
    }

    #[test]
    fn segment_targets_resolve_against_the_playlist_directory() {
        let text = "#EXTM3U\n#EXTINF:2,\nseg0.ts\n#EXTINF:2,\n/other/seg1.ts\n#EXT-X-ENDLIST\n";
        let pl = MediaPlaylist::parse(text).unwrap();
        let targets: Vec<String> = pl.segment_targets("/q1/index.m3u8").collect();
        assert_eq!(targets, ["/q1/seg0.ts", "/other/seg1.ts"]);
        // A playlist at the root resolves relative URIs to the root.
        let targets: Vec<String> = pl.segment_targets("/index.m3u8").collect();
        assert_eq!(targets, ["/seg0.ts", "/other/seg1.ts"]);
    }

    #[test]
    fn master_round_trip() {
        let master = MasterPlaylist::from_ladder(&VideoQuality::paper_ladder());
        let text = master.to_m3u8();
        assert!(MasterPlaylist::looks_like_master(&text));
        let parsed = MasterPlaylist::parse(&text).unwrap();
        assert_eq!(parsed.variants.len(), 4);
        assert_eq!(parsed.variants[0].0, 200_000);
        assert_eq!(parsed.variants[3].1, "q4/index.m3u8");
    }

    #[test]
    fn master_variant_selection() {
        let master = MasterPlaylist::from_ladder(&VideoQuality::paper_ladder());
        assert_eq!(master.select(500e3).unwrap().0, 484_000);
        assert_eq!(master.select(5e6).unwrap().0, 738_000);
        // Below the lowest variant: fall back to the lowest.
        assert_eq!(master.select(50e3).unwrap().0, 200_000);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any synthetic segment list round-trips through m3u8 text.
            #[test]
            fn media_round_trips(
                durs in proptest::collection::vec(0.5f64..30.0, 1..40),
            ) {
                let segments: Vec<Segment> = durs
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| Segment {
                        index: i,
                        duration_secs: d,
                        size_bytes: d * 1000.0,
                        uri: format!("seg{i:05}.ts"),
                    })
                    .collect();
                let pl = MediaPlaylist::from_segments(&segments);
                let parsed = MediaPlaylist::parse(&pl.to_m3u8()).unwrap();
                prop_assert_eq!(parsed.entries.len(), segments.len());
                for ((d, uri), seg) in parsed.entries.iter().zip(&segments) {
                    prop_assert!((d - seg.duration_secs).abs() < 1e-3);
                    prop_assert_eq!(uri, &seg.uri);
                }
                prop_assert!(parsed.ended);
                prop_assert!(parsed.target_duration_secs >= durs.iter().cloned().fold(0.0, f64::max));
            }

            /// Any bandwidth ladder round-trips through a master playlist.
            #[test]
            fn master_round_trips(
                bws in proptest::collection::vec(10_000u64..10_000_000, 1..8),
            ) {
                let ladder: Vec<VideoQuality> = bws
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| VideoQuality::new(format!("V{i}"), b as f64))
                    .collect();
                let master = MasterPlaylist::from_ladder(&ladder);
                let parsed = MasterPlaylist::parse(&master.to_m3u8()).unwrap();
                prop_assert_eq!(parsed.variants.len(), ladder.len());
                for ((bw, _), q) in parsed.variants.iter().zip(&ladder) {
                    prop_assert_eq!(*bw, q.bitrate_bps as u64);
                }
            }
        }
    }

    #[test]
    fn media_is_not_master() {
        let pl = MediaPlaylist::from_segments(&paper_segments());
        assert!(!MasterPlaylist::looks_like_master(&pl.to_m3u8()));
    }
}
