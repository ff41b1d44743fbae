//! Probes: timed public calls into the layers that `Home::run` hides.
//!
//! Each probe runs once untimed (to fill caches and let lazy set-up
//! finish), then once more timed, and reports a unit cost.

use std::io;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

use bytes::Bytes;
use threegol_bench::relay;
use threegol_http::codec::HttpStream;
use threegol_http::multipart::{encode_multipart, multipart_content_type, Part};
use threegol_http::{Request, Response};
use threegol_proxy::{SharedRateLimit, ThrottledStream, Tier};
use threegol_simnet::capacity::DiurnalProfile;
use threegol_simnet::fairshare::{max_min_fair_into, FairShareScratch, FlowTable};
use threegol_simnet::{CapacityProcess, SimEvent, SimTime, Simulation};
use threegol_traces::{home_day, ScenarioConfig};
use tokio::io::{AsyncRead, AsyncReadExt, AsyncWrite, AsyncWriteExt, ReadBuf};

/// Run `f` once untimed, then once timed; returns the timed seconds.
fn untimed_then_timed(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Bytes pushed through the throttle per probe run: 2 MB, eight
/// virtual seconds at the tier-1 line's 2 Mbit/s.
const THROTTLE_BYTES: usize = 2_000_000;

/// `throttle.ns_per_byte`: wall time per byte read through a
/// [`ThrottledStream`] over an in-memory duplex at the tier-1 ADSL
/// downlink rate, under virtual time.
pub fn throttle_ns_per_byte() -> f64 {
    let secs = untimed_then_timed(|| {
        tokio::runtime::block_on(async {
            let (mut tx, rx) = tokio::io::duplex(256 * 1024);
            let down = SharedRateLimit::from_bps(Tier::Basic.adsl_down_bps() as u64);
            let mut throttled =
                ThrottledStream::with_shared(rx, down, SharedRateLimit::unlimited());
            let writer = tokio::spawn(async move {
                tx.write_all(&vec![7u8; THROTTLE_BYTES]).await.expect("duplex write");
            });
            let mut buf = vec![0u8; THROTTLE_BYTES];
            throttled.read_exact(&mut buf).await.expect("throttled read");
            writer.await.expect("writer task");
            std::hint::black_box(&buf);
        })
    });
    secs * 1e9 / THROTTLE_BYTES as f64
}

/// An in-memory transport for the codec probes: reads come from
/// `src`, writes append to `sink`.
struct Mem<'a> {
    src: &'a [u8],
    sink: Vec<u8>,
}

impl Mem<'_> {
    fn reading(src: &[u8]) -> Mem<'_> {
        Mem { src, sink: Vec::new() }
    }
}

impl AsyncRead for Mem<'_> {
    fn poll_read(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<io::Result<()>> {
        Pin::new(&mut self.src).poll_read(cx, buf)
    }
}

impl AsyncWrite for Mem<'_> {
    fn poll_write(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>> {
        Pin::new(&mut self.sink).poll_write(cx, buf)
    }

    fn poll_flush(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }

    fn poll_shutdown(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }
}

/// Serialized request/response heads of the kinds a home sends: a
/// segment GET with a byte range, the origin's 206 answer, and a
/// multipart photo POST (head only; the body is left out).
fn sample_heads() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    tokio::runtime::block_on(async {
        let mut get = Request::get("/q1/segment_00042.ts");
        get.headers.set("Host", "10.0.0.1:8080");
        get.headers.set("Range", "bytes=0-1048575");
        let photo = Part::photo("file", "IMG_0007.jpg", Bytes::from(vec![1u8; 4096]));
        let body = encode_multipart(std::slice::from_ref(&photo), "tp-boundary");
        let post = Request::post("/upload", &multipart_content_type("tp-boundary"), body);
        let mut partial = Response::ok("video/mp2t", Bytes::from(vec![0u8; 64]));
        partial.status = 206;
        partial.reason = "Partial Content".into();
        partial.headers.set("Content-Range", "bytes 0-63/1048576");
        let mut requests = Vec::new();
        for req in [&get, &post] {
            let mut out = HttpStream::new(Mem::reading(&[]));
            out.write_request(req).await.expect("encode request");
            requests.push(out.into_inner().sink);
        }
        let mut out = HttpStream::new(Mem::reading(&[]));
        out.write_response(&partial).await.expect("encode response");
        (requests, vec![out.into_inner().sink])
    })
}

/// Head parses per timed probe run.
const HEAD_PARSES: usize = 20_000;

/// `codec.head_ns`: mean wall time of one `read_request_head` /
/// `read_response_head` over the heads in [`sample_heads`].
pub fn codec_head_ns() -> f64 {
    let (requests, responses) = sample_heads();
    let per_round = requests.len() + responses.len();
    let rounds = HEAD_PARSES / per_round;
    let secs = untimed_then_timed(|| {
        tokio::runtime::block_on(async {
            for _ in 0..rounds {
                for raw in &requests {
                    let mut http = HttpStream::new(Mem::reading(raw));
                    let head = http.read_request_head().await.expect("parse request head");
                    let _ = std::hint::black_box(head);
                }
                for raw in &responses {
                    let mut http = HttpStream::new(Mem::reading(raw));
                    let head = http.read_response_head().await.expect("parse response head");
                    let _ = std::hint::black_box(head);
                }
            }
        })
    });
    secs * 1e9 / (rounds * per_round) as f64
}

/// Body bytes piped per timed probe run.
const PIPE_BYTES: usize = 8_000_000;
/// Body size of one piped response (a 1 MB segment).
const PIPE_BODY: usize = 1_000_000;

/// `codec.body_ns_per_byte`: wall time per byte of `pipe_body` moving
/// `Content-Length` segment bodies into a sink.
pub fn codec_body_ns_per_byte() -> f64 {
    let raw = tokio::runtime::block_on(async {
        let mut out = HttpStream::new(Mem::reading(&[]));
        let resp = Response::ok("video/mp2t", Bytes::from(vec![9u8; PIPE_BODY]));
        out.write_response(&resp).await.expect("encode response");
        out.into_inner().sink
    });
    let mut sink = Vec::with_capacity(PIPE_BODY);
    let secs = untimed_then_timed(|| {
        tokio::runtime::block_on(async {
            for _ in 0..PIPE_BYTES / PIPE_BODY {
                let mut http = HttpStream::new(Mem::reading(&raw));
                let (_, body) = http.read_response_head().await.expect("parse head");
                sink.clear();
                let n = http.pipe_body(body, &mut sink).await.expect("pipe body");
                assert_eq!(n as usize, PIPE_BODY);
            }
        })
    });
    secs * 1e9 / PIPE_BYTES as f64
}

/// `relay.segment_ns_per_byte` and `relay.upload_ns_per_byte`: the
/// repository's relay workloads (virtual TCP, pipes, codec and
/// `DeviceProxy` together), per byte relayed.
pub fn relay_ns_per_byte() -> (f64, f64) {
    let segment = untimed_then_timed(relay::segment_relay);
    let upload = untimed_then_timed(relay::upload_relay);
    (segment * 1e9 / relay::SEGMENT_RUN_BYTES as f64, upload * 1e9 / relay::UPLOAD_RUN_BYTES as f64)
}

/// Homes in the simulator probe's link set (three links each).
const SIM_HOMES: u64 = 1000;
/// Simulated seconds the simulator probe runs.
const SIM_SECS: f64 = 5.0;

/// A 1000-home link set (ADSL plus two phones each) with two finite
/// flows per link; every completion restarts a flow on the same link,
/// so the event stream mixes capacity resampling with churn.
fn churned_simulation() -> Simulation {
    let mut sim = Simulation::new();
    let mut links = Vec::new();
    for h in 0..SIM_HOMES {
        let adsl = CapacityProcess::stochastic(2e6, 0.3, 1.0, DiurnalProfile::flat(), 1 + h);
        links.push(sim.add_link(format!("adsl{h}"), adsl));
        for p in 0..2 {
            let seed = 1000 + h * 31 + p;
            let g3 = CapacityProcess::stochastic(3e6, 0.4, 1.0, DiurnalProfile::flat(), seed);
            links.push(sim.add_link(format!("3g{h}_{p}"), g3));
        }
    }
    for (i, &l) in links.iter().enumerate() {
        sim.start_flow(vec![l], flow_size(2 * i as u64));
        sim.start_flow(vec![l], flow_size(2 * i as u64 + 1));
    }
    sim
}

fn flow_size(seq: u64) -> f64 {
    250_000.0 + (seq * 37_559 % 500_000) as f64
}

/// `simnet.ns_per_event`: wall time per event of
/// `Simulation::next_event_until` over the churned 1000-home link set.
pub fn simnet_ns_per_event() -> f64 {
    let run = || {
        let mut sim = churned_simulation();
        let horizon = SimTime::from_secs(SIM_SECS);
        let mut seq = 1_000_000u64;
        let t = Instant::now();
        let mut events = 0u64;
        while let Some(ev) = sim.next_event_until(horizon) {
            events += 1;
            if let SimEvent::FlowCompleted { record, .. } = ev {
                seq += 1;
                sim.start_flow(vec![record.path[0]], flow_size(seq));
            }
        }
        (t.elapsed().as_secs_f64(), events)
    };
    run();
    let (secs, events) = run();
    secs * 1e9 / events.max(1) as f64
}

/// Solver calls per timed probe run.
const SOLVES: usize = 200;

/// `fairshare.solve_us`: one `max_min_fair_into` call over 64 links
/// and 256 two-link flows (a third of them rate-capped).
pub fn fairshare_solve_us() -> f64 {
    let (links, flows) = (64usize, 256usize);
    let caps: Vec<f64> = (0..links).map(|i| 1e6 + i as f64 * 1e5).collect();
    let mut table = FlowTable::new();
    for f in 0..flows {
        let cap = if f % 3 == 0 { Some(5e5) } else { None };
        table.push_flow([f % links, (f * 7 + 1) % links], cap);
    }
    let mut scratch = FairShareScratch::default();
    let mut out = Vec::new();
    let secs = untimed_then_timed(|| {
        for _ in 0..SOLVES {
            max_min_fair_into(std::hint::black_box(&caps), &table, &mut scratch, &mut out);
            std::hint::black_box(&out);
        }
    });
    secs * 1e6 / SOLVES as f64
}

/// `traces.home_day_us_per_home`: `home_day` over the workload's own
/// (seed, home, day, devices) triples, per home.
pub fn home_day_us_per_home(seed: u64, homes: &[(u32, usize)], days: u32) -> f64 {
    let config = ScenarioConfig::paper(seed);
    let secs = untimed_then_timed(|| {
        for &(home, devices) in homes {
            for day in 0..days {
                std::hint::black_box(home_day(&config, home, devices, day));
            }
        }
    });
    secs * 1e6 / homes.len().max(1) as f64
}
