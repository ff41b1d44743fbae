//! Cross-crate integration: the live tokio prototype — origin, device
//! proxies, discovery, HLS-aware client — on the vendored runtime's
//! in-process virtual network. Addresses here use the loopback name
//! for familiarity, but nothing ever touches the kernel: every
//! listener and datagram lives in the runtime's own registry under
//! virtual time, which is what makes the transcript test below able to
//! demand byte-for-byte identical behavior across runs.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use threegol::hls::VideoQuality;
use threegol::proxy::{
    DeviceProxy, Discovery, OriginServer, PathTarget, RateLimit, ThreegolClient,
};

async fn small_origin() -> (Arc<OriginServer>, std::net::SocketAddr) {
    let ladder = vec![VideoQuality::new("Q1", 64e3)];
    let origin = Arc::new(OriginServer::new(&ladder, 10.0, 2.0));
    let (addr, _task) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
    (origin, addr)
}

#[tokio::test]
async fn discovery_builds_admissible_set_from_live_devices() {
    let (_origin, origin_addr) = small_origin().await;
    let discovery = Discovery::bind("127.0.0.1:0").await.unwrap();
    let disco_addr = discovery.local_addr().unwrap();
    for i in 0..2 {
        let device = Arc::new(DeviceProxy::new(
            format!("phone-{i}"),
            origin_addr,
            RateLimit::unlimited(),
            RateLimit::unlimited(),
            1e9,
        ));
        let (lan_addr, _task) = device.clone().spawn("127.0.0.1:0").await.unwrap();
        device.spawn_announcer(disco_addr, lan_addr, Duration::from_millis(50));
    }
    tokio::time::sleep(Duration::from_millis(300)).await;
    let phi = discovery.admissible();
    assert_eq!(phi.len(), 2);
    assert!(phi.iter().all(|a| a.available_bytes > 0.0));
}

#[tokio::test]
async fn exhausted_device_drops_out_of_phi() {
    let (_origin, origin_addr) = small_origin().await;
    let discovery = Discovery::bind("127.0.0.1:0").await.unwrap();
    let disco_addr = discovery.local_addr().unwrap();
    // Allowance below one 2 MB probe: a single transfer exhausts it.
    let device = Arc::new(DeviceProxy::new(
        "phone-0",
        origin_addr,
        RateLimit::unlimited(),
        RateLimit::unlimited(),
        1_000_000.0,
    ));
    let (lan_addr, _task) = device.clone().spawn("127.0.0.1:0").await.unwrap();
    device.clone().spawn_announcer(disco_addr, lan_addr, Duration::from_millis(50));
    tokio::time::sleep(Duration::from_millis(200)).await;
    assert_eq!(discovery.admissible().len(), 1);

    // Burn the quota through the proxy.
    let client = ThreegolClient::new(vec![PathTarget::Device { addr: lan_addr }]);
    let (bodies, _) = client.fetch(vec!["/probe.bin".into()], None).await.unwrap();
    assert_eq!(bodies[0].len(), 2_000_000);
    assert!(!device.should_advertise());

    // After the TTL the stale advertisement expires and Φ empties.
    tokio::time::sleep(Duration::from_millis(3_200)).await;
    assert!(discovery.admissible().is_empty());
}

#[tokio::test]
async fn hls_fetch_through_discovered_devices() {
    let (origin, origin_addr) = small_origin().await;
    let device = Arc::new(DeviceProxy::new(
        "phone-0",
        origin_addr,
        RateLimit::new(4e6),
        RateLimit::new(4e6),
        1e9,
    ));
    let (lan_addr, _task) = device.clone().spawn("127.0.0.1:0").await.unwrap();
    let client = ThreegolClient::new(vec![
        PathTarget::SharedGateway {
            origin: origin_addr,
            down: RateLimit::new(4e6).into(),
            up: RateLimit::new(1e6).into(),
        },
        PathTarget::Device { addr: lan_addr },
    ]);
    let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
    assert_eq!(playlist.entries.len(), 5);
    assert_eq!(bodies.len(), 5);
    assert!(bodies.iter().all(|b| b.len() == 16_000));
    assert!((report.bytes_per_path.iter().sum::<f64>()) >= 5.0 * 16_000.0);
    assert!(origin.requests_served() >= 6); // playlist + 5 segments
}

#[tokio::test]
async fn uploads_survive_a_slow_device() {
    // One healthy path and one pathologically slow device: greedy
    // duplication must still deliver all photos.
    let (origin, origin_addr) = small_origin().await;
    let device = Arc::new(DeviceProxy::new(
        "phone-slow",
        origin_addr,
        RateLimit { rate_bps: 40_000.0, burst_bytes: 4096.0 },
        RateLimit { rate_bps: 40_000.0, burst_bytes: 4096.0 },
        1e9,
    ));
    let (lan_addr, _task) = device.clone().spawn("127.0.0.1:0").await.unwrap();
    let client = ThreegolClient::new(vec![
        PathTarget::SharedGateway {
            origin: origin_addr,
            down: RateLimit::new(8e6).into(),
            up: RateLimit::new(8e6).into(),
        },
        PathTarget::Device { addr: lan_addr },
    ]);
    let photos: Vec<(String, bytes::Bytes)> =
        (0..5).map(|i| (format!("p{i}.jpg"), bytes::Bytes::from(vec![i as u8; 50_000]))).collect();
    let report = client.upload_photos(photos).await.unwrap();
    assert!(report.item_secs.iter().all(|t| t.is_finite()));
    assert_eq!(origin.uploads().len(), 5);
}

/// Run the full prototype scenario once in a fresh runtime and record
/// everything observable — discovery order, body sizes and checksums,
/// every report field at full `f64` precision, origin-side state —
/// into one transcript string.
fn scenario_transcript() -> String {
    tokio::runtime::block_on(async {
        let mut log = String::new();
        let (origin, origin_addr) = small_origin().await;
        let discovery = Discovery::bind("127.0.0.1:0").await.unwrap();
        let disco_addr = discovery.local_addr().unwrap();
        for i in 0..2 {
            let device = Arc::new(DeviceProxy::new(
                format!("phone-{i}"),
                origin_addr,
                RateLimit::new(2e6),
                RateLimit::new(1e6),
                1e9,
            ));
            let (lan_addr, _task) = device.clone().spawn("127.0.0.1:0").await.unwrap();
            device.spawn_announcer(disco_addr, lan_addr, Duration::from_millis(50));
        }
        tokio::time::sleep(Duration::from_millis(200)).await;

        let mut paths = vec![PathTarget::SharedGateway {
            origin: origin_addr,
            down: RateLimit::new(4e6).into(),
            up: RateLimit::new(0.5e6).into(),
        }];
        for ad in discovery.admissible() {
            writeln!(log, "discovered {} at {} ({})", ad.name, ad.proxy_addr, ad.available_bytes)
                .unwrap();
            paths.push(PathTarget::Device { addr: ad.proxy_addr });
        }
        let client = ThreegolClient::new(paths);

        let t0 = tokio::time::Instant::now();
        let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
        writeln!(log, "vod: {} entries in {:?}", playlist.entries.len(), t0.elapsed()).unwrap();
        for body in &bodies {
            let sum: u64 = body.iter().map(|b| *b as u64).sum();
            writeln!(log, "segment {} bytes, checksum {sum}", body.len()).unwrap();
        }
        writeln!(log, "vod report: {report:?}").unwrap();

        let photos: Vec<(String, bytes::Bytes)> = (0..4)
            .map(|i| (format!("p{i}.jpg"), bytes::Bytes::from(vec![i as u8; 80_000])))
            .collect();
        let t0 = tokio::time::Instant::now();
        let report = client.upload_photos(photos).await.unwrap();
        writeln!(log, "upload in {:?}: {report:?}", t0.elapsed()).unwrap();
        for up in origin.uploads() {
            writeln!(log, "origin got {:?} ({} bytes)", up.filenames, up.total_bytes).unwrap();
        }
        writeln!(log, "origin served {} requests", origin.requests_served()).unwrap();
        log
    })
}

#[test]
fn scenario_transcript_is_byte_for_byte_deterministic() {
    let first = scenario_transcript();
    let second = scenario_transcript();
    assert!(!first.is_empty());
    assert_eq!(first, second, "virtual-net runs diverged");
}
