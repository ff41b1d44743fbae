//! The 3GOL client component (paper §4.1): an HLS-aware fetcher and a
//! multipart uploader, both driving the multipath scheduler over real
//! tokio connections.
//!
//! The client owns `N` [`PathTarget`]s — path 0 the residential
//! gateway (an origin connection throttled to the ADSL profile), paths
//! `1..N` the discovered device proxies. Scheduler [`Command`]s map to
//! spawned transfer tasks; aborting a duplicate cancels its task and
//! the bytes it moved are accounted as waste, mirroring the simulator
//! driver in `threegol-core`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;
use tokio::time::Instant;

use bytes::Bytes;
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};
use tokio::net::TcpStream;
use tokio::sync::mpsc;

use threegol_hls::MediaPlaylist;
use threegol_http::codec::HttpStream;
use threegol_http::multipart::{encode_multipart, multipart_content_type, Part};
use threegol_http::{HttpError, Request};
use threegol_sched::{build, Command, Policy, TransactionSpec};

use crate::throttle::{SharedRateLimit, ThrottledStream};

/// Any bidirectional async byte stream.
trait AsyncStream: AsyncRead + AsyncWrite + Unpin + Send {}
impl<T: AsyncRead + AsyncWrite + Unpin + Send> AsyncStream for T {}

/// Where a path's transfers go.
#[derive(Debug, Clone)]
pub enum PathTarget {
    /// Straight to the origin through the residential gateway, drawing
    /// tokens from *shared* ADSL buckets — every connection a home
    /// opens over its DSL line contends for the same capacity, the way
    /// a real line behaves when several transfers cross it at once.
    SharedGateway {
        /// Origin address.
        origin: SocketAddr,
        /// The home's shared ADSL downlink bucket.
        down: SharedRateLimit,
        /// The home's shared ADSL uplink bucket.
        up: SharedRateLimit,
    },
    /// Through a device proxy (which applies its own 3G throttling).
    Device {
        /// The device proxy's LAN address.
        addr: SocketAddr,
    },
}

impl PathTarget {
    /// Open a connection for this path. When `wifi` is set, the whole
    /// stream additionally draws both directions from that shared
    /// bucket: the home's Wi-Fi medium, which every path of a 3GOL
    /// client crosses before reaching the gateway or a phone.
    async fn connect(
        &self,
        wifi: Option<&SharedRateLimit>,
    ) -> std::io::Result<Box<dyn AsyncStream>> {
        let stream: Box<dyn AsyncStream> = match self {
            PathTarget::SharedGateway { origin, down, up } => {
                let tcp = TcpStream::connect(*origin).await?;
                Box::new(ThrottledStream::with_shared(tcp, down.clone(), up.clone()))
            }
            PathTarget::Device { addr } => Box::new(TcpStream::connect(*addr).await?),
        };
        Ok(match wifi {
            Some(medium) => {
                Box::new(ThrottledStream::with_shared(stream, medium.clone(), medium.clone()))
            }
            None => stream,
        })
    }
}

/// Timing and accounting for one multipath transaction.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Total transaction time, seconds.
    pub total_secs: f64,
    /// Per-item completion time, seconds from transaction start.
    pub item_secs: Vec<f64>,
    /// Bytes that crossed each path (including aborted partials).
    pub bytes_per_path: Vec<f64>,
    /// Bytes moved by aborted duplicates.
    pub wasted_bytes: f64,
    /// Transfers started / aborted.
    pub starts: usize,
    /// Aborts issued.
    pub aborts: usize,
}

/// One transfer job. Cloned once per transfer attempt, so the fetch
/// target is a shared `Arc<str>` — cloning bumps a refcount instead of
/// copying the path.
#[derive(Debug, Clone)]
enum Job {
    /// `GET {target}` and return the body.
    Fetch(Arc<str>),
    /// `POST /upload` with a single-photo multipart body.
    Upload { filename: String, data: Bytes },
}

/// Per-transfer timeout: a wedged path must not hang the transaction.
const TRANSFER_TIMEOUT: Duration = Duration::from_secs(60);

/// The 3GOL client.
pub struct ThreegolClient {
    /// Available paths; index 0 should be the gateway.
    pub paths: Vec<PathTarget>,
    /// Scheduling policy (the paper deploys [`Policy::Greedy`]).
    pub policy: Policy,
    /// Shared Wi-Fi medium every connection crosses (None = ideal LAN).
    pub wifi: Option<SharedRateLimit>,
}

impl ThreegolClient {
    /// A client over the given paths using the greedy scheduler.
    pub fn new(paths: Vec<PathTarget>) -> ThreegolClient {
        ThreegolClient { paths, policy: Policy::Greedy, wifi: None }
    }

    /// Route every connection through the given shared Wi-Fi bucket.
    pub fn with_wifi(mut self, medium: SharedRateLimit) -> ThreegolClient {
        self.wifi = Some(medium);
        self
    }

    /// Fetch `targets` (absolute request paths) in parallel. Returns
    /// the bodies in target order plus the transfer report. Targets
    /// are shared `Arc<str>`s so callers that already intern them (the
    /// HLS proxy's prefetch cache) hand them over without copying;
    /// `"/path".into()` still works for one-off fetches.
    pub async fn fetch(
        &self,
        targets: Vec<Arc<str>>,
        expected_sizes: Option<Vec<f64>>,
    ) -> Result<(Vec<Bytes>, TransferReport), HttpError> {
        let jobs: Vec<Job> = targets.into_iter().map(Job::Fetch).collect();
        self.run(jobs, expected_sizes, None).await
    }

    /// Like [`ThreegolClient::fetch`], but additionally delivers each
    /// item's body through `ready_tx` the moment it completes — the
    /// HLS-aware proxy serves segments to the player as they land
    /// rather than waiting for the whole transaction.
    pub async fn fetch_streaming(
        &self,
        targets: Vec<Arc<str>>,
        ready_tx: mpsc::UnboundedSender<(usize, Bytes)>,
    ) -> Result<TransferReport, HttpError> {
        let jobs: Vec<Job> = targets.into_iter().map(Job::Fetch).collect();
        let (_, report) = self.run(jobs, None, Some(ready_tx)).await?;
        Ok(report)
    }

    /// HLS-aware fetch (the paper's client component): download the
    /// media playlist over the gateway path, then prefetch every
    /// segment in parallel. Returns `(playlist, segment bodies,
    /// report)`.
    pub async fn fetch_hls(
        &self,
        playlist_target: &str,
    ) -> Result<(MediaPlaylist, Vec<Bytes>, TransferReport), HttpError> {
        // Playlist interception happens before multipath kicks in.
        let io = self.paths[0].connect(self.wifi.as_ref()).await.map_err(HttpError::Io)?;
        let mut http = HttpStream::new(io);
        http.write_request(&Request::get(playlist_target)).await?;
        let resp = http.read_response().await?;
        if resp.status != 200 {
            return Err(HttpError::Malformed(format!("playlist fetch failed: {}", resp.status)));
        }
        let text = std::str::from_utf8(&resp.body)
            .map_err(|_| HttpError::Malformed("non-UTF-8 playlist".into()))?;
        let playlist = MediaPlaylist::parse(text)
            .map_err(|e| HttpError::Malformed(format!("bad playlist: {e}")))?;
        let targets: Vec<Arc<str>> =
            playlist.segment_targets(playlist_target).map(Arc::from).collect();
        let (bodies, report) = self.fetch(targets, None).await?;
        Ok((playlist, bodies, report))
    }

    /// Upload photos (one multipart POST per photo, like the native
    /// Flickr/Facebook clients, but spread over the paths).
    pub async fn upload_photos(
        &self,
        photos: Vec<(String, Bytes)>,
    ) -> Result<TransferReport, HttpError> {
        let sizes: Vec<f64> = photos.iter().map(|(_, d)| d.len() as f64).collect();
        let jobs: Vec<Job> =
            photos.into_iter().map(|(filename, data)| Job::Upload { filename, data }).collect();
        let (_, report) = self.run(jobs, Some(sizes), None).await?;
        Ok(report)
    }

    /// Drive the scheduler over real connections. An empty
    /// transaction returns at once with a zeroed report.
    async fn run(
        &self,
        jobs: Vec<Job>,
        sizes: Option<Vec<f64>>,
        ready_tx: Option<mpsc::UnboundedSender<(usize, Bytes)>>,
    ) -> Result<(Vec<Bytes>, TransferReport), HttpError> {
        let n_paths = self.paths.len();
        if jobs.is_empty() {
            let report = TransferReport {
                total_secs: 0.0,
                item_secs: Vec::new(),
                bytes_per_path: vec![0.0; n_paths],
                wasted_bytes: 0.0,
                starts: 0,
                aborts: 0,
            };
            return Ok((Vec::new(), report));
        }
        let sizes = sizes.unwrap_or_else(|| vec![1.0; jobs.len()]);
        let mut sched = build(self.policy, TransactionSpec::new(sizes, n_paths));

        let started = Instant::now();
        let (tx, mut rx) = mpsc::unbounded_channel::<(usize, usize, Result<Bytes, String>, f64)>();

        struct Running {
            handle: tokio::task::JoinHandle<()>,
            moved: Arc<AtomicU64>,
        }
        let mut inflight: HashMap<(usize, usize), Running> = HashMap::new();
        let mut bodies: Vec<Bytes> = vec![Bytes::new(); jobs.len()];
        let mut item_secs = vec![f64::NAN; jobs.len()];
        let mut bytes_per_path = vec![0.0_f64; n_paths];
        let mut wasted = 0.0_f64;
        let mut starts = 0usize;
        let mut aborts = 0usize;
        let mut failures: HashMap<usize, usize> = HashMap::new();

        let spawn_transfer =
            |path: usize,
             item: usize,
             tx: mpsc::UnboundedSender<(usize, usize, Result<Bytes, String>, f64)>|
             -> Running {
                let target = self.paths[path].clone();
                let wifi = self.wifi.clone();
                let job = jobs[item].clone();
                let moved = Arc::new(AtomicU64::new(0));
                let counter = Arc::clone(&moved);
                let handle = tokio::spawn(async move {
                    let t0 = Instant::now();
                    let outcome =
                        tokio::time::timeout(TRANSFER_TIMEOUT, perform(target, wifi, job, counter))
                            .await
                            .map_err(|_| "transfer timeout".to_string())
                            .and_then(|r| r.map_err(|e| e.to_string()));
                    let _ = tx.send((path, item, outcome, t0.elapsed().as_secs_f64()));
                });
                Running { handle, moved }
            };

        macro_rules! exec {
            ($cmds:expr) => {
                for cmd in $cmds {
                    match cmd {
                        Command::Start { path, item } => {
                            starts += 1;
                            let r = spawn_transfer(path, item, tx.clone());
                            inflight.insert((path, item), r);
                        }
                        Command::Abort { path, item } => {
                            aborts += 1;
                            if let Some(r) = inflight.remove(&(path, item)) {
                                r.handle.abort();
                                let moved = r.moved.load(Ordering::Relaxed) as f64;
                                wasted += moved;
                                bytes_per_path[path] += moved;
                            }
                        }
                    }
                }
            };
        }

        exec!(sched.start());

        while !sched.is_done() {
            let Some((path, item, outcome, elapsed)) = rx.recv().await else {
                return Err(HttpError::Malformed("transfer channel closed".into()));
            };
            let Some(r) = inflight.remove(&(path, item)) else {
                continue; // completed after its abort raced it
            };
            let moved = r.moved.load(Ordering::Relaxed) as f64;
            bytes_per_path[path] += moved;
            let now = started.elapsed().as_secs_f64();
            match outcome {
                Ok(body) => {
                    if item_secs[item].is_nan() {
                        item_secs[item] = now;
                        if let Some(tx) = &ready_tx {
                            let _ = tx.send((item, body.clone()));
                        }
                        bodies[item] = body;
                    }
                    let len = bodies[item].len().max(1) as f64;
                    exec!(sched.on_complete(path, item, now, len, elapsed));
                }
                Err(msg) => {
                    let count = failures.entry(item).or_insert(0);
                    *count += 1;
                    if *count > 3 * n_paths {
                        return Err(HttpError::Malformed(format!(
                            "item {item} failed repeatedly: {msg}"
                        )));
                    }
                    exec!(sched.on_failed(path, item, now));
                }
            }
        }

        // Cancel stragglers (duplicates whose abort command raced).
        // Sorted: HashMap iteration order is randomized per process,
        // and f64 accumulation is order-sensitive, so an unsorted
        // drain would make the report nondeterministic across runs.
        let mut stragglers: Vec<((usize, usize), Running)> = inflight.drain().collect();
        stragglers.sort_by_key(|((path, item), _)| (*path, *item));
        for ((path, _), r) in stragglers {
            r.handle.abort();
            let moved = r.moved.load(Ordering::Relaxed) as f64;
            wasted += moved;
            bytes_per_path[path] += moved;
        }

        let total = item_secs.iter().cloned().fold(0.0, f64::max);
        Ok((
            bodies,
            TransferReport {
                total_secs: total,
                item_secs,
                bytes_per_path,
                wasted_bytes: wasted,
                starts,
                aborts,
            },
        ))
    }
}

/// Execute one job over a fresh connection.
async fn perform(
    target: PathTarget,
    wifi: Option<SharedRateLimit>,
    job: Job,
    counter: Arc<AtomicU64>,
) -> Result<Bytes, HttpError> {
    let io = target.connect(wifi.as_ref()).await?;
    let mut http = HttpStream::new(CountingStream { inner: io, counter });
    match job {
        Job::Fetch(t) => {
            http.write_request(&Request::get(&*t)).await?;
            let resp = http.read_response().await?;
            if resp.status == 200 {
                Ok(resp.body)
            } else {
                Err(HttpError::Malformed(format!("GET failed: {}", resp.status)))
            }
        }
        Job::Upload { filename, data } => {
            let part = Part::photo("file", filename, data);
            let boundary = "threegol-boundary-7f3a";
            let body = encode_multipart(std::slice::from_ref(&part), boundary);
            let req = Request::post("/upload", &multipart_content_type(boundary), body);
            http.write_request(&req).await?;
            let resp = http.read_response().await?;
            if resp.status == 200 {
                Ok(Bytes::new())
            } else {
                Err(HttpError::Malformed(format!("POST failed: {}", resp.status)))
            }
        }
    }
}

/// Counts every byte read or written (for waste accounting on abort).
struct CountingStream<T> {
    inner: T,
    counter: Arc<AtomicU64>,
}

impl<T: AsyncRead + Unpin> AsyncRead for CountingStream<T> {
    fn poll_read(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let before = buf.filled().len();
        let res = Pin::new(&mut self.inner).poll_read(cx, buf);
        if let Poll::Ready(Ok(())) = res {
            let n = buf.filled().len() - before;
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }
}

impl<T: AsyncWrite + Unpin> AsyncWrite for CountingStream<T> {
    fn poll_write(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<std::io::Result<usize>> {
        let res = Pin::new(&mut self.inner).poll_write(cx, buf);
        if let Poll::Ready(Ok(n)) = res {
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }
    fn poll_write_vectored(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        bufs: &[std::io::IoSlice<'_>],
    ) -> Poll<std::io::Result<usize>> {
        let res = Pin::new(&mut self.inner).poll_write_vectored(cx, bufs);
        if let Poll::Ready(Ok(n)) = res {
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }
    fn poll_flush(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_flush(cx)
    }
    fn poll_shutdown(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_shutdown(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProxy;
    use crate::origin::OriginServer;
    use crate::throttle::RateLimit;

    async fn setup(adsl_bps: f64, phone_bps: Vec<f64>) -> (ThreegolClient, Arc<OriginServer>) {
        let origin = Arc::new(OriginServer::small_for_tests());
        let (origin_addr, _h) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
        let mut paths = vec![PathTarget::SharedGateway {
            origin: origin_addr,
            down: RateLimit { rate_bps: adsl_bps, burst_bytes: 8192.0 }.into(),
            up: RateLimit { rate_bps: adsl_bps / 4.0, burst_bytes: 8192.0 }.into(),
        }];
        for (i, bps) in phone_bps.into_iter().enumerate() {
            let device = Arc::new(DeviceProxy::new(
                format!("phone-{i}"),
                origin_addr,
                RateLimit { rate_bps: bps, burst_bytes: 8192.0 },
                RateLimit { rate_bps: bps, burst_bytes: 8192.0 },
                1e9,
            ));
            let (lan_addr, _h2) = device.clone().spawn("127.0.0.1:0").await.unwrap();
            paths.push(PathTarget::Device { addr: lan_addr });
        }
        (ThreegolClient::new(paths), origin)
    }

    #[tokio::test]
    async fn hls_fetch_end_to_end() {
        let (client, _origin) = setup(4e6, vec![4e6]).await;
        let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
        assert_eq!(playlist.entries.len(), 5); // 10 s / 2 s segments
        assert_eq!(bodies.len(), 5);
        // 64 kbps × 2 s / 8 = 16 kB per segment.
        assert!(bodies.iter().all(|b| b.len() == 16_000));
        assert!(report.item_secs.iter().all(|t| t.is_finite()));
        // Both paths moved bytes.
        assert!(report.bytes_per_path[0] > 0.0);
    }

    #[tokio::test]
    async fn multipath_beats_single_path() {
        // 8 probe fetches over 1.6 Mbit/s ADSL alone vs ADSL + two
        // 1.6 Mbit/s phones.
        let targets: Vec<Arc<str>> = (0..6).map(|_| Arc::from("/probe.bin")).collect();
        let (single, _o1) = setup(1.6e6, vec![]).await;
        let t0 = Instant::now();
        let (_, r1) = single.fetch(targets.clone(), None).await.unwrap();
        let solo = t0.elapsed().as_secs_f64();
        assert!(r1.bytes_per_path.len() == 1);

        let (multi, _o2) = setup(1.6e6, vec![1.6e6, 1.6e6]).await;
        let t0 = Instant::now();
        let (bodies, r2) = multi.fetch(targets, None).await.unwrap();
        let gol = t0.elapsed().as_secs_f64();
        assert!(bodies.iter().all(|b| b.len() == 64_000));
        assert!(gol < solo * 0.75, "3GOL {gol:.2}s vs ADSL {solo:.2}s (report {r2:?})");
    }

    #[tokio::test]
    async fn upload_photos_arrive_intact() {
        // The gateway uplink (adsl/4 = 250 kbit/s) is far slower than
        // the phone, so when the greedy scheduler duplicates the
        // gateway's photo onto the phone, the duplicate wins by a wide
        // margin and the abort truncates the original well before the
        // origin commits it — each photo is recorded exactly once.
        let (client, origin) = setup(1e6, vec![8e6]).await;
        let photos: Vec<(String, Bytes)> = (0..4)
            .map(|i| (format!("IMG_{i:04}.jpg"), Bytes::from(vec![i as u8; 20_000])))
            .collect();
        let report = client.upload_photos(photos).await.unwrap();
        assert_eq!(report.item_secs.len(), 4);
        let ups = origin.uploads();
        assert_eq!(ups.len(), 4);
        let mut names: Vec<String> = ups.iter().flat_map(|u| u.filenames.clone()).collect();
        names.sort();
        assert_eq!(names, vec!["IMG_0000.jpg", "IMG_0001.jpg", "IMG_0002.jpg", "IMG_0003.jpg"]);
        assert!(ups.iter().all(|u| u.total_bytes == 20_000));
    }

    #[tokio::test]
    async fn empty_transactions_return_a_zeroed_report() {
        // An origin whose media playlist is valid but lists no segments.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let origin_addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (stream, _) = listener.accept().await.unwrap();
            let mut http = HttpStream::new(stream);
            while let Some(_req) = http.read_request().await.unwrap() {
                let body =
                    Bytes::from_static(b"#EXTM3U\n#EXT-X-TARGETDURATION:2\n#EXT-X-ENDLIST\n");
                let resp = threegol_http::Response::ok("application/vnd.apple.mpegurl", body);
                http.write_response(&resp).await.unwrap();
            }
        });
        // The device path points nowhere: an empty transaction must not
        // connect to it.
        let client = ThreegolClient::new(vec![
            PathTarget::SharedGateway {
                origin: origin_addr,
                down: SharedRateLimit::unlimited(),
                up: SharedRateLimit::unlimited(),
            },
            PathTarget::Device { addr: "127.0.0.1:9".parse().unwrap() },
        ]);
        let zeroed = |report: &TransferReport| {
            assert_eq!(report.total_secs, 0.0);
            assert!(report.item_secs.is_empty());
            assert_eq!(report.bytes_per_path, vec![0.0, 0.0]);
            assert_eq!((report.wasted_bytes, report.starts, report.aborts), (0.0, 0, 0));
        };

        let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
        assert!(playlist.entries.is_empty() && playlist.ended);
        assert!(bodies.is_empty());
        zeroed(&report);
        let (bodies, report) = client.fetch(Vec::new(), None).await.unwrap();
        assert!(bodies.is_empty());
        zeroed(&report);
        zeroed(&client.upload_photos(Vec::new()).await.unwrap());
    }

    #[tokio::test]
    async fn missing_asset_fails_cleanly() {
        let (client, _origin) = setup(8e6, vec![]).await;
        let err = client.fetch(vec!["/does-not-exist".into()], None).await.unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");
    }

    #[tokio::test]
    async fn greedy_duplicates_tail_on_slow_path() {
        // One very slow phone: the gateway should duplicate-and-abort.
        let (client, _origin) = setup(8e6, vec![64_000.0]).await;
        let targets: Vec<Arc<str>> = (0..3).map(|_| Arc::from("/probe.bin")).collect();
        let (bodies, report) = client.fetch(targets, None).await.unwrap();
        assert!(bodies.iter().all(|b| b.len() == 64_000));
        assert!(report.aborts >= 1, "{report:?}");
    }
}
