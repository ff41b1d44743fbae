//! A stock HLS "player" against the 3GOL client proxy.
//!
//! The paper's client component is a local HTTP proxy the video player
//! points at; the player stays completely unaware of 3GOL. This
//! example runs the full chain — origin → {ADSL gateway, device proxy}
//! → HLS-aware proxy → sequential player — on one home's subnet of the
//! virtual network, and compares startup with and without the 3GOL
//! paths.
//!
//! ```text
//! cargo run --release --example player_proxy
//! ```

use std::sync::Arc;
use tokio::time::Instant;

use threegol::hls::VideoQuality;
use threegol::http::codec::HttpStream;
use threegol::http::Request;
use threegol::proxy::{
    DeviceProxy, HlsProxy, HomeNet, OriginServer, PathTarget, RateLimit, ThreegolClient,
};
use tokio::net::TcpStream;

/// A minimal sequential HLS player: fetch playlist, then segments in
/// order; report the time to buffer the first `prebuffer` segments.
async fn play(proxy_addr: std::net::SocketAddr, playlist: &str, prebuffer: usize) -> (f64, usize) {
    let t0 = Instant::now();
    let stream = TcpStream::connect(proxy_addr).await.unwrap();
    let mut http = HttpStream::new(stream);
    http.write_request(&Request::get(playlist)).await.unwrap();
    let resp = http.read_response().await.unwrap();
    let text = std::str::from_utf8(&resp.body).unwrap();
    let media = threegol::hls::MediaPlaylist::parse(text).unwrap();
    let mut startup = 0.0;
    for (i, target) in media.segment_targets(playlist).enumerate() {
        http.write_request(&Request::get(target)).await.unwrap();
        let seg = http.read_response().await.unwrap();
        assert_eq!(seg.status, 200);
        if i + 1 == prebuffer {
            startup = t0.elapsed().as_secs_f64();
        }
    }
    (startup, media.entries.len())
}

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = HomeNet::new(0);

    // Origin with a 60 s Q2 video in 10 s segments.
    let ladder = vec![VideoQuality::new("Q1", 311e3)];
    let origin = Arc::new(OriginServer::new(&ladder, 60.0, 10.0));
    let (origin_addr, _t) = origin.clone().spawn(&net.origin().to_string()).await?;

    let adsl = PathTarget::SharedGateway {
        origin: origin_addr,
        down: RateLimit::new(2.0e6).into(),
        up: RateLimit::new(0.512e6).into(),
    };

    // Proxy with ADSL only (a second proxy host next to the home's
    // canonical one at .3).
    let solo = Arc::new(HlsProxy::new(ThreegolClient::new(vec![adsl.clone()])));
    let (solo_addr, _t) = solo.clone().spawn("10.0.0.4:8088").await?;
    let (startup_solo, n) = play(solo_addr, "/q1/index.m3u8", 2).await;
    println!("player via proxy, ADSL only : {n} segments, 2-segment startup {startup_solo:.2} s");

    // Proxy with ADSL + two phones.
    let mut paths = vec![adsl];
    for i in 0..2 {
        let device = Arc::new(DeviceProxy::new(
            format!("phone-{i}"),
            origin_addr,
            RateLimit::new(1.8e6),
            RateLimit::new(1.2e6),
            1e9,
        ));
        let (lan_addr, _t) = device.clone().spawn(&net.device(i).to_string()).await?;
        paths.push(PathTarget::Device { addr: lan_addr });
    }
    let gol = Arc::new(HlsProxy::new(ThreegolClient::new(paths)));
    let (gol_addr, _t) = gol.clone().spawn(&net.client_proxy().to_string()).await?;
    let (startup_gol, _) = play(gol_addr, "/q1/index.m3u8", 2).await;
    println!("player via proxy, 3GOL (2ph): {n} segments, 2-segment startup {startup_gol:.2} s");
    println!(
        "\nstartup speedup ×{:.2} — the player never knew 3GOL existed",
        startup_solo / startup_gol
    );
    Ok(())
}
