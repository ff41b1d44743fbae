//! Proxy relay-path throughput workloads: one unthrottled virtual-net
//! household slice (origin + device proxy) driven as hard as the HTTP
//! hot path allows, shared between the tracked `bench_summary` numbers
//! and the repository benchmark's relay probes (`perfbench/`).
//!
//! The segment workload pulls large GET bodies through the device
//! relay (origin → device → client); the upload workload pushes
//! multipart photo POSTs the other way. Both run entirely on the
//! in-process virtual network under virtual time, so the measured
//! wall-clock is pure codec + relay + duplex-pipe cost — the numbers
//! the zero-copy streaming path targets.

use std::sync::Arc;

use bytes::Bytes;
use threegol_hls::VideoQuality;
use threegol_http::codec::HttpStream;
use threegol_http::multipart::{encode_multipart, multipart_content_type, Part};
use threegol_http::Request;
use threegol_proxy::{DeviceProxy, OriginServer, RateLimit};
use tokio::net::TcpStream;

/// GET fetches per segment-relay run.
pub const SEGMENT_FETCHES: usize = 4;
/// The origin's `/probe.bin` size, bytes.
pub const SEGMENT_BYTES: usize = 2_000_000;
/// Photo size per upload, bytes.
pub const PHOTO_BYTES: usize = 250_000;
/// Multipart POSTs per upload-relay run.
pub const PHOTO_POSTS: usize = 8;

/// Bytes relayed by one [`segment_relay`] run.
pub const SEGMENT_RUN_BYTES: usize = SEGMENT_FETCHES * SEGMENT_BYTES;
/// Bytes relayed by one [`upload_relay`] run.
pub const UPLOAD_RUN_BYTES: usize = PHOTO_POSTS * PHOTO_BYTES;

/// Spin up an origin and an unthrottled device proxy on the virtual
/// net and return a client connection through the relay.
async fn relay_setup() -> (Arc<OriginServer>, HttpStream<TcpStream>) {
    let ladder = vec![VideoQuality::new("Q1", 64e3)];
    let origin = Arc::new(OriginServer::new(&ladder, 10.0, 2.0));
    let (origin_addr, _h) = origin.clone().spawn("10.9.0.1:8080").await.unwrap();
    let device = Arc::new(DeviceProxy::new(
        "tp",
        origin_addr,
        RateLimit::unlimited(),
        RateLimit::unlimited(),
        f64::MAX,
    ));
    let (lan, _h2) = device.clone().spawn("10.9.0.10:3128").await.unwrap();
    let stream = TcpStream::connect(lan).await.unwrap();
    (origin, HttpStream::new(stream))
}

/// One segment-relay run: [`SEGMENT_FETCHES`] large GETs through the
/// device proxy. Builds its own runtime; returns nothing — time it.
pub fn segment_relay() {
    tokio::runtime::block_on(async {
        let (_origin, mut http) = relay_setup().await;
        for _ in 0..SEGMENT_FETCHES {
            http.write_request(&Request::get("/probe.bin")).await.unwrap();
            let resp = http.read_response().await.unwrap();
            assert_eq!(resp.body.len(), SEGMENT_BYTES);
        }
    });
}

/// One upload-relay run: [`PHOTO_POSTS`] multipart photo POSTs through
/// the device proxy, verified committed at the origin.
pub fn upload_relay() {
    tokio::runtime::block_on(async {
        let (origin, mut http) = relay_setup().await;
        for i in 0..PHOTO_POSTS {
            let part = Part::photo(
                "file",
                format!("IMG_{i:04}.jpg"),
                Bytes::from(vec![i as u8; PHOTO_BYTES]),
            );
            let body = encode_multipart(std::slice::from_ref(&part), "tp-boundary");
            let req = Request::post("/upload", &multipart_content_type("tp-boundary"), body);
            http.write_request(&req).await.unwrap();
            let resp = http.read_response().await.unwrap();
            assert_eq!(resp.status, 200);
        }
        assert_eq!(origin.uploads().len(), PHOTO_POSTS);
    });
}
