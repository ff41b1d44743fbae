//! The live 3GOL prototype end to end on the in-process virtual
//! network (paper §4.1): an origin server, two device proxies with
//! throttled "3G" bearers and quota tracking, UDP discovery, and the
//! HLS-aware multipath client — all inside one home's subnet, under
//! virtual time, with no kernel sockets.
//!
//! ```text
//! cargo run --release --example live_proxy
//! ```

use std::sync::Arc;
use std::time::Duration;

use threegol::hls::VideoQuality;
use threegol::proxy::{
    DeviceProxy, Discovery, HomeNet, OriginServer, PathTarget, RateLimit, ThreegolClient,
};

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    // This demo household owns the 10.0.0.0/24 corner of the virtual
    // network.
    let net = HomeNet::new(0);

    // Origin with a short 60 s video at Q1/Q2 (keeps the demo quick).
    let ladder = vec![VideoQuality::new("Q1", 200e3), VideoQuality::new("Q2", 311e3)];
    let origin = Arc::new(OriginServer::new(&ladder, 60.0, 10.0));
    let (origin_addr, _origin_task) = origin.clone().spawn(&net.origin().to_string()).await?;
    println!("origin listening on {origin_addr}");

    // Two phones with ~1.8 Mbit/s HSPA bearers and 20 MB allowances.
    let discovery = Discovery::bind(&net.discovery().to_string()).await?;
    let disco_addr = discovery.local_addr()?;
    for i in 1..=2 {
        let device = Arc::new(DeviceProxy::new(
            format!("phone-{i}"),
            origin_addr,
            RateLimit::new(1.8e6),
            RateLimit::new(1.2e6),
            20e6,
        ));
        let (lan_addr, _task) = device.clone().spawn(&net.device(i - 1).to_string()).await?;
        device.spawn_announcer(disco_addr, lan_addr, Duration::from_millis(200));
        println!("device phone-{i} proxying on {lan_addr}");
    }
    tokio::time::sleep(Duration::from_millis(500)).await;

    // The client discovers the admissible set Φ on the LAN.
    let phi = discovery.admissible();
    println!(
        "discovered {} devices: {:?}",
        phi.len(),
        phi.iter().map(|a| &a.name).collect::<Vec<_>>()
    );

    // Path 0: the gateway, throttled to a 2 Mbit/s ADSL profile.
    let gateway = PathTarget::SharedGateway {
        origin: origin_addr,
        down: RateLimit::new(2.0e6).into(),
        up: RateLimit::new(0.512e6).into(),
    };

    // ADSL alone.
    let solo = ThreegolClient::new(vec![gateway.clone()]);
    let t0 = tokio::time::Instant::now();
    let (_pl, bodies, _report) = solo.fetch_hls("/q1/index.m3u8").await?;
    let solo_secs = t0.elapsed().as_secs_f64();
    println!(
        "\nADSL alone : {} segments ({:.1} MB) in {:.1} s",
        bodies.len(),
        bodies.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6,
        solo_secs
    );

    // 3GOL: gateway + discovered phones.
    let mut paths = vec![gateway];
    for ad in &phi {
        paths.push(PathTarget::Device { addr: ad.proxy_addr });
    }
    let client = ThreegolClient::new(paths);
    let t0 = tokio::time::Instant::now();
    let (_pl, bodies, report) = client.fetch_hls("/q1/index.m3u8").await?;
    let gol_secs = t0.elapsed().as_secs_f64();
    println!(
        "3GOL       : {} segments in {:.1} s (×{:.2} speedup, {} aborts, {:.0} kB waste)",
        bodies.len(),
        gol_secs,
        solo_secs / gol_secs,
        report.aborts,
        report.wasted_bytes / 1e3
    );
    for (i, b) in report.bytes_per_path.iter().enumerate() {
        let name = if i == 0 { "gateway".to_string() } else { phi[i - 1].name.clone() };
        println!("  path {i} ({name}): {:.2} MB", b / 1e6);
    }

    // Uplink: a small photo set through the same paths.
    let photos: Vec<(String, bytes::Bytes)> = (0..8)
        .map(|i| (format!("IMG_{i:04}.jpg"), bytes::Bytes::from(vec![i as u8; 400_000])))
        .collect();
    let t0 = tokio::time::Instant::now();
    let report = client.upload_photos(photos).await?;
    println!(
        "\nupload     : 8 photos (3.2 MB) in {:.1} s across {} paths",
        t0.elapsed().as_secs_f64(),
        report.bytes_per_path.iter().filter(|b| **b > 0.0).count()
    );
    // An aborted duplicate occasionally commits before the abort lands;
    // the paper charges those to wasted bytes, the origin just sees an
    // extra copy.
    let ups = origin.uploads();
    let unique: std::collections::HashSet<String> =
        ups.iter().flat_map(|u| u.filenames.clone()).collect();
    println!(
        "origin received {} unique photos ({} uploads incl. duplicates)",
        unique.len(),
        ups.len()
    );
    Ok(())
}
