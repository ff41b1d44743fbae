//! A **home** as a first-class unit of the live prototype.
//!
//! The paper's deployment unit is a household: one ADSL line, one
//! Wi-Fi medium, a handful of phones with 3G quota, and the client
//! component running next to the player (§2, §4.1). This module wires
//! those pieces together on the virtual network so a whole home — and
//! a whole *fleet* of homes — runs inside one process under virtual
//! time:
//!
//! * [`HomeNet`] gives each home its own `10.x.y.0/24`-style address
//!   namespace, so any number of homes coexist in one runtime without
//!   colliding and a captured address is attributable to its home;
//! * [`HomeSpec`] holds what varies between homes — the ADSL tier,
//!   the phone count, their 3G rate curve, the hour and the scenario;
//!   the Wi-Fi medium, the 3GOL allowance and the VoD prebuffer +
//!   photo-upload workload are the same in every home;
//! * [`Home::run`] brings the home up once — the origin, the
//!   discovery listener, the device proxies and the shared media —
//!   then drives either workload over it and reports the per-home
//!   speedups over ADSL alone.
//!
//! Every throttle a home's transfers cross is *shared*: the ADSL
//! down/up buckets are one pair per home ([`PathTarget::SharedGateway`])
//! and the Wi-Fi medium is one bucket both directions of every
//! connection draw from ([`ThreegolClient::with_wifi`]) — concurrent
//! transactions inside a home contend the way they would on the real
//! links.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use tokio::net::TcpStream;
use tokio::time::Instant;

use threegol_hls::{MediaPlaylist, VideoQuality};
use threegol_http::codec::HttpStream;
use threegol_http::{HttpError, Request};
use threegol_traces::scenario::ScenarioConfig;

use crate::capacity::{CellProfile, NO_CELL};
use crate::client::{PathTarget, ThreegolClient};
use crate::device::DeviceProxy;
use crate::discovery::Discovery;
use crate::hlsproxy::HlsProxy;
use crate::origin::OriginServer;
use crate::throttle::SharedRateLimit;

/// A home's private corner of the virtual network.
///
/// Home `h` owns the subnet `10.(h >> 8).(h & 0xff).0/24`; well-known
/// hosts live at fixed final octets so an address appearing in a
/// deadlock diagnostic or a packet trace identifies both the home and
/// the role.
///
/// The namespace index is 16 bits — the 10.x.y.0/24 plan has exactly
/// 65 536 subnets — while [`HomeSpec::index`] is 32 bits so a fleet
/// can hold millions of homes. [`Home::run`] folds the spec index into
/// this space with `index % 65536`: two homes alias the same subnet
/// only if they run in the *same* runtime, and the fleet harness gives
/// every home its own runtime, so fleets larger than 65 536 homes
/// never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeNet {
    /// Home index (the `h` in `10.(h >> 8).(h & 0xff).x`).
    pub index: u16,
}

impl HomeNet {
    /// The namespace of home `index`.
    pub fn new(index: u16) -> HomeNet {
        HomeNet { index }
    }

    fn host(&self, last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, (self.index >> 8) as u8, (self.index & 0xff) as u8, last))
    }

    /// The origin server, as seen from this home: `.1:8080`.
    pub fn origin(&self) -> SocketAddr {
        SocketAddr::new(self.host(1), 8080)
    }

    /// The client's discovery listener (the home's broadcast domain):
    /// `.2:5353`.
    pub fn discovery(&self) -> SocketAddr {
        SocketAddr::new(self.host(2), 5353)
    }

    /// The client-side HLS proxy the player talks to: `.3:8088`.
    pub fn client_proxy(&self) -> SocketAddr {
        SocketAddr::new(self.host(3), 8088)
    }

    /// Device proxy `i`'s LAN listener: `.(10 + i):3128`.
    pub fn device(&self, i: usize) -> SocketAddr {
        assert!(i < MAX_DEVICES, "at most {MAX_DEVICES} devices per home, got device {i}");
        SocketAddr::new(self.host(10 + i as u8), 3128)
    }
}

/// Most phones one home holds: device `i` lives at `.(10 + i)`, so
/// `.10`–`.254` keeps the `.255` broadcast address free.
const MAX_DEVICES: usize = 245;

/// The Wi-Fi medium, bits/s — one shared bucket every connection in a
/// home crosses, both directions.
pub(crate) const WIFI_BPS: f64 = 30e6;
/// Each phone's 3GOL allowance `A(0)` in the paper script, bytes.
const ALLOWANCE_BYTES: f64 = 50e6;
/// VoD bitrate, bits/s.
pub(crate) const VIDEO_BPS: f64 = 400e3;
/// VoD duration to prebuffer, seconds.
pub(crate) const VIDEO_SECS: f64 = 10.0;
/// HLS segment duration, seconds.
pub(crate) const SEGMENT_SECS: f64 = 2.0;
/// Photos in the paper script's upload batch.
const PHOTOS: usize = 3;
/// Bytes per photo.
pub(crate) const PHOTO_BYTES: usize = 100_000;

/// Longest scenario a [`HomeReport`] can account per-day: five weeks,
/// enough to cross one 30-day billing-month boundary with margin. The
/// per-day accumulator arrays are this long so the report stays a
/// fixed-size `Copy` record.
pub const MAX_SCENARIO_DAYS: usize = 35;

/// Fixed-point scale of the scenario byte accumulators in
/// [`HomeReport`] (and the fleet digest that merges them): 2^10 units
/// per byte, giving sub-byte precision with ~2^53 bytes of headroom in
/// an `i64` slot — integer adds merge exactly associatively.
pub const SCENARIO_FP_SCALE: f64 = 1024.0;

/// Bytes → fixed point at [`SCENARIO_FP_SCALE`], rounded to the
/// nearest unit.
pub fn bytes_to_fp(bytes: f64) -> i64 {
    (bytes * SCENARIO_FP_SCALE).round() as i64
}

/// Fixed point at [`SCENARIO_FP_SCALE`] → bytes.
pub fn fp_to_bytes(fp: i64) -> f64 {
    fp as f64 / SCENARIO_FP_SCALE
}

/// The tally of a [`Scenario::Traced`] run (DESIGN.md §14): per-day and
/// per-hour onloaded bytes in `i64` fixed point at
/// [`SCENARIO_FP_SCALE`], session counters, and the live allowance
/// loop's overrun/grant tallies.
///
/// One type serves both ends: a traced [`HomeReport`] carries one home's
/// tally (`homes == 1`), and the fleet digest merges those tallies into
/// a street's. All integers, so `merge` is element-wise addition —
/// associative to the last bit, keeping the fleet's determinism
/// contract for scenario fleets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioDigest {
    /// Traced homes folded in.
    pub homes: u64,
    /// Simulated device-days (`devices × days` per home).
    pub device_days: u64,
    /// Device-days that ended with a positive granted allowance fully
    /// exhausted — the live-estimator overrun counter.
    pub overrun_device_days: u64,
    /// VoD + upload sessions executed.
    pub sessions: u64,
    /// Sessions that ran ADSL-only (no admissible 3G path at session
    /// start: every phone away, exhausted, or the home has none).
    pub adsl_only_sessions: u64,
    /// Daily allowance granted, summed over device-days, fixed-point
    /// bytes.
    pub granted_fp: i64,
    /// Allowance actually consumed (`min(used, granted)` per
    /// device-day), fixed-point bytes — captured-fraction numerator.
    pub used_fp: i64,
    /// Downlink onload (3G path bytes toward the home) per scenario
    /// day, fixed-point bytes.
    pub day_dl_fp: [i64; MAX_SCENARIO_DAYS],
    /// Uplink onload per scenario day, fixed-point bytes.
    pub day_ul_fp: [i64; MAX_SCENARIO_DAYS],
    /// Downlink onload per hour of day (all days folded), fixed-point
    /// bytes.
    pub hour_dl_fp: [i64; 24],
    /// Uplink onload per hour of day, fixed-point bytes.
    pub hour_ul_fp: [i64; 24],
}

impl ScenarioDigest {
    /// The identity tally: no traced homes, no bytes.
    pub fn empty() -> ScenarioDigest {
        ScenarioDigest {
            homes: 0,
            device_days: 0,
            overrun_device_days: 0,
            sessions: 0,
            adsl_only_sessions: 0,
            granted_fp: 0,
            used_fp: 0,
            day_dl_fp: [0; MAX_SCENARIO_DAYS],
            day_ul_fp: [0; MAX_SCENARIO_DAYS],
            hour_dl_fp: [0; 24],
            hour_ul_fp: [0; 24],
        }
    }

    /// Fold another tally in: element-wise integer adds, exact and
    /// associative.
    pub fn merge(&mut self, other: &ScenarioDigest) {
        self.homes += other.homes;
        self.device_days += other.device_days;
        self.overrun_device_days += other.overrun_device_days;
        self.sessions += other.sessions;
        self.adsl_only_sessions += other.adsl_only_sessions;
        self.granted_fp += other.granted_fp;
        self.used_fp += other.used_fp;
        for (mine, theirs) in [
            (&mut self.day_dl_fp[..], &other.day_dl_fp[..]),
            (&mut self.day_ul_fp[..], &other.day_ul_fp[..]),
            (&mut self.hour_dl_fp[..], &other.hour_dl_fp[..]),
            (&mut self.hour_ul_fp[..], &other.hour_ul_fp[..]),
        ] {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Onloaded bytes on scenario day `day`, `(down, up)`.
    pub fn bytes_on_day(&self, day: usize) -> (f64, f64) {
        (fp_to_bytes(self.day_dl_fp[day]), fp_to_bytes(self.day_ul_fp[day]))
    }

    /// Onloaded bytes at hour of day `hour`, `(down, up)`.
    pub fn bytes_at_hour(&self, hour: usize) -> (f64, f64) {
        (fp_to_bytes(self.hour_dl_fp[hour % 24]), fp_to_bytes(self.hour_ul_fp[hour % 24]))
    }

    /// Fraction of device-days with a positive allowance fully
    /// exhausted — the live overrun rate the §6 estimator design
    /// targets at "under one day per month" (≈ 0.033).
    pub fn overrun_rate(&self) -> f64 {
        if self.device_days == 0 {
            return 0.0;
        }
        self.overrun_device_days as f64 / self.device_days as f64
    }

    /// Fraction of the granted allowance the workload actually
    /// consumed (`Σ min(used, granted) / Σ granted`).
    pub fn captured_fraction(&self) -> f64 {
        if self.granted_fp == 0 {
            return 0.0;
        }
        self.used_fp as f64 / self.granted_fp as f64
    }

    /// Total allowance granted across device-days, bytes.
    pub fn granted_bytes(&self) -> f64 {
        fp_to_bytes(self.granted_fp)
    }
}

/// How a home's workload is driven (DESIGN.md §14).
///
/// `PaperDefault` is the original fixed script — one VoD prebuffer
/// racing one photo-upload batch at [`HomeSpec::hour`] — preserved
/// operation-for-operation, so a fleet of `PaperDefault` homes
/// reproduces the pre-scenario digest bit for bit. `Traced` drives the
/// home from the per-home trace stream in `threegol-traces::scenario`
/// over simulated days of virtual time, with device churn and the §6
/// allowance loop run live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The fixed single-shot script (the pre-scenario prototype).
    PaperDefault,
    /// Trace-driven multi-day scenario.
    Traced {
        /// Simulated days, `1..=MAX_SCENARIO_DAYS`.
        days: u16,
        /// Scenario seed (mixed with the home index per draw).
        seed: u64,
    },
}

/// An ADSL service tier: the four paper-flavoured line speeds a street
/// of homes cycles through. The tier — together with the cell
/// assignment and the index — is the single source of truth a
/// [`HomeSpec`] is built from; see [`HomeSpec::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// 2 / 0.3 Mbit/s ADSL.
    Basic,
    /// 4 / 0.5 Mbit/s ADSL — the paper-default line.
    Standard,
    /// 6 / 0.7 Mbit/s ADSL.
    Fast,
    /// 8 / 1.0 Mbit/s ADSL.
    Premium,
}

impl Tier {
    /// Every tier, slowest first.
    pub const ALL: [Tier; 4] = [Tier::Basic, Tier::Standard, Tier::Fast, Tier::Premium];

    /// The tier of home `index` in a heterogeneous street: indices
    /// cycle through [`Tier::ALL`].
    pub fn of_index(index: u32) -> Tier {
        Tier::ALL[(index % 4) as usize]
    }

    /// The tier's ADSL downlink, bits/s.
    pub fn adsl_down_bps(self) -> f64 {
        match self {
            Tier::Basic => 2e6,
            Tier::Standard => 4e6,
            Tier::Fast => 6e6,
            Tier::Premium => 8e6,
        }
    }

    /// The tier's ADSL uplink, bits/s.
    pub fn adsl_up_bps(self) -> f64 {
        match self {
            Tier::Basic => 0.3e6,
            Tier::Standard => 0.5e6,
            Tier::Fast => 0.7e6,
            Tier::Premium => 1.0e6,
        }
    }

    /// Seconds the line alone needs to carry `bytes`, up or down: the
    /// baseline every gain over ADSL (the paper's "power boost") is
    /// the ratio against.
    pub(crate) fn adsl_alone_secs(self, bytes: f64, up: bool) -> f64 {
        let bps = if up { self.adsl_up_bps() } else { self.adsl_down_bps() };
        bytes * 8.0 / bps
    }
}

/// What varies between homes: the line, the phones, their 3G, the
/// hour, and how the workload is driven. The Wi-Fi medium, the
/// allowance and the VoD + photo workload are the same in every home.
///
/// Plain `Copy` data only — the spec costs nothing to build from an
/// index on a worker's stack, and a million-home fleet never needs to
/// materialize a single one on the heap. Built with the consuming
/// builder starting at [`HomeSpec::tier`]:
///
/// ```
/// use threegol_proxy::{CellProfile, HomeSpec, Tier};
///
/// let home = HomeSpec::tier(Tier::Fast)
///     .devices(3)
///     .cell(CellProfile::flat(2, 1.5e6, 0.8e6))
///     .hour(21)
///     .index(42);
/// assert_eq!(home.tier.adsl_down_bps(), 6e6);
/// assert_eq!(home.index, 42);
/// let copy = home; // still Copy
/// assert_eq!(copy, home);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomeSpec {
    /// Home index (selects the [`HomeNet`] namespace, modulo 2^16).
    pub index: u32,
    /// Number of device proxies (phones with quota), at most 245.
    pub devices: usize,
    /// The ADSL line: one shared downlink and one shared uplink bucket
    /// for the whole home, at the tier's rates.
    pub tier: Tier,
    /// Each phone's 3G rates by hour of day: a flat private pipe on
    /// [`NO_CELL`] or a per-phone share of a shared cell.
    pub g3: CellProfile,
    /// Hour of day `[0, 24)` the run *starts* at. The paper-default
    /// script runs entirely at this hour (it samples the cell share
    /// here and buckets the home's onloaded bytes in the fleet digest);
    /// a [`Scenario::Traced`] run treats it as the start-of-run offset
    /// and advances the hour from the virtual clock as simulated days
    /// pass.
    pub hour: u8,
    /// How the workload is driven: the fixed paper script or a traced
    /// multi-day scenario.
    pub scenario: Scenario,
}

impl HomeSpec {
    /// Start building a spec from an ADSL tier with the
    /// paper-flavoured defaults — two phones on private 2/1 Mbit/s 3G,
    /// index 0, noon, the paper script (a 10 s × 400 kbit/s VoD
    /// prebuffer racing a 3 × 100 kB photo upload over 30 Mbit/s
    /// Wi-Fi). Chain [`HomeSpec::index`], [`HomeSpec::devices`],
    /// [`HomeSpec::cell`], [`HomeSpec::hour`] and
    /// [`HomeSpec::scenario`] to finish.
    pub fn tier(tier: Tier) -> HomeSpec {
        HomeSpec {
            index: 0,
            devices: 2,
            tier,
            g3: CellProfile::flat(NO_CELL, 2e6, 1e6),
            hour: 12,
            scenario: Scenario::PaperDefault,
        }
    }

    /// The paper-default household: the [`Tier::Standard`] line with
    /// every builder default, at `index`.
    pub fn paper_default(index: u32) -> HomeSpec {
        HomeSpec::tier(Tier::Standard).index(index)
    }

    /// Set the home index.
    pub fn index(mut self, index: u32) -> HomeSpec {
        self.index = index;
        self
    }

    /// Set the number of phones, at most 245 (one per host address
    /// `.10`–`.254` of the home's subnet).
    pub fn devices(mut self, devices: usize) -> HomeSpec {
        assert!(devices <= MAX_DEVICES, "at most {MAX_DEVICES} devices per home, got {devices}");
        self.devices = devices;
        self
    }

    /// Draw the phones' 3G from a shared cell's per-phone share.
    pub fn cell(mut self, profile: CellProfile) -> HomeSpec {
        self.g3 = profile;
        self
    }

    /// Set the hour of day `[0, 24)` the run starts at (the whole run
    /// for the paper script; the day-0 offset for a traced scenario).
    pub fn hour(mut self, hour: u8) -> HomeSpec {
        assert!(hour < 24, "hour of day must be in [0, 24), got {hour}");
        self.hour = hour;
        self
    }

    /// Choose how the workload is driven.
    pub fn scenario(mut self, scenario: Scenario) -> HomeSpec {
        if let Scenario::Traced { days, .. } = scenario {
            assert!(
                (1..=MAX_SCENARIO_DAYS as u16).contains(&days),
                "traced scenario must run 1..={MAX_SCENARIO_DAYS} days, got {days}"
            );
        }
        self.scenario = scenario;
        self
    }
}

/// What one home's workload achieved.
///
/// Like [`HomeSpec`] this is a fixed-size `Copy` record: a fleet
/// aggregates reports into a digest as they are produced instead of
/// holding a vector of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomeReport {
    /// Home index.
    pub index: u32,
    /// The shared cell the home's phones drew from, or [`NO_CELL`]
    /// for private 3G.
    pub cell: u32,
    /// Hour of day the workload ran at (from [`HomeSpec::hour`]).
    pub hour: u8,
    /// VoD prebuffer bytes fetched.
    pub vod_bytes: f64,
    /// VoD prebuffer wall time (virtual seconds).
    pub vod_secs: f64,
    /// Speedup of the prebuffer over ADSL alone
    /// (`bytes / adsl_down` vs measured).
    pub vod_gain: f64,
    /// Upload batch bytes.
    pub upload_bytes: f64,
    /// Upload batch wall time (virtual seconds).
    pub upload_secs: f64,
    /// Speedup of the upload over ADSL alone.
    pub upload_gain: f64,
    /// VoD bytes the HLS proxy pulled over 3G paths (path 1..) —
    /// downlink onload, the cell's downlink burden.
    pub vod_device_bytes: f64,
    /// Upload bytes that crossed 3G paths (path 1..) — uplink onload.
    pub upload_device_bytes: f64,
    /// Upload bytes moved by aborted duplicates.
    pub upload_wasted_bytes: f64,
    /// Simulated days a [`Scenario::Traced`] run covered; 0 for the
    /// paper-default script (`scenario` is then empty too, and the
    /// fleet digest skips it so paper-default digests are
    /// byte-identical to the pre-scenario prototype's).
    pub days: u16,
    /// The traced run's tally, with `homes == 1`.
    pub scenario: ScenarioDigest,
}

impl HomeReport {
    /// An all-zero report for home `index` (cell [`NO_CELL`]): the base
    /// the paper script and the scenario engine both fill in, and a
    /// convenient struct-update base for tests.
    pub fn empty(index: u32) -> HomeReport {
        HomeReport {
            index,
            cell: NO_CELL,
            hour: 0,
            vod_bytes: 0.0,
            vod_secs: 0.0,
            vod_gain: 0.0,
            upload_bytes: 0.0,
            upload_secs: 0.0,
            upload_gain: 0.0,
            vod_device_bytes: 0.0,
            upload_device_bytes: 0.0,
            upload_wasted_bytes: 0.0,
            days: 0,
            scenario: ScenarioDigest::empty(),
        }
    }

    /// The empty report for `spec`'s home, with its cell and start hour.
    pub(crate) fn base(spec: &HomeSpec) -> HomeReport {
        HomeReport { cell: spec.g3.cell, hour: spec.hour, ..HomeReport::empty(spec.index) }
    }
}

/// One home, ready to run its workload. See [`Home::run`].
pub struct Home;

impl Home {
    /// Bring up the home and drive its workload: a VoD prebuffer
    /// through the client-side HLS proxy, concurrent with a photo
    /// upload — both multipath over the gateway and every discovered
    /// device, all sharing the home's ADSL and Wi-Fi media.
    ///
    /// Must run inside a `tokio` runtime; any number of homes may run
    /// in the same runtime (distinct [`HomeNet`] namespaces) or in
    /// separate runtimes on separate threads.
    pub async fn run(spec: &HomeSpec) -> Result<HomeReport, HttpError> {
        match spec.scenario {
            Scenario::PaperDefault => Home::run_paper(spec).await,
            Scenario::Traced { seed, .. } => {
                crate::scenario::run_with_config(spec, &ScenarioConfig::paper(seed)).await
            }
        }
    }

    /// The original fixed script (see [`Scenario::PaperDefault`]) as a
    /// driver over [`HomeRig`]: free-running 100 ms announcers, the
    /// client-side HLS proxy, and a photo upload racing the VoD
    /// prebuffer.
    async fn run_paper(spec: &HomeSpec) -> Result<HomeReport, HttpError> {
        let rig = HomeRig::up(spec, |_| ALLOWANCE_BYTES).await?;

        // Quota-gated announcers; browse until every phone has
        // advertised (quota > 0 at start, so all of them will; virtual
        // time makes this deterministic).
        for (device, lan_addr) in &rig.devices {
            device.clone().spawn_announcer(
                rig.discovery_addr,
                *lan_addr,
                Duration::from_millis(100),
            );
        }
        while rig.discovery.admissible().len() < spec.devices {
            tokio::time::sleep(Duration::from_millis(10)).await;
        }

        // The client-side HLS proxy the player points at, and the
        // uploader: a second client-component app in the same home,
        // with its own scheduler over the same shared media.
        let hls = Arc::new(HlsProxy::new(rig.client()));
        let (proxy_addr, _proxy_task) =
            hls.clone().spawn(&rig.net.client_proxy().to_string()).await?;
        let uploader = rig.client();

        // Drive the two transactions concurrently: the upload runs as
        // its own task while this task plays the VoD prebuffer.
        let photos: Vec<(String, Bytes)> = (0..PHOTOS)
            .map(|i| (format!("home{}-IMG_{i:04}.jpg", spec.index), photo_body(i)))
            .collect();
        let upload_bytes: f64 = photos.iter().map(|(_, d)| d.len() as f64).sum();
        let upload_task = tokio::spawn(async move {
            let t0 = Instant::now();
            let report = uploader.upload_photos(photos).await?;
            Ok::<_, HttpError>((t0.elapsed().as_secs_f64(), report))
        });

        let t0 = Instant::now();
        let vod_bytes = prebuffer_vod(proxy_addr, "/q1/index.m3u8").await?;
        let vod_secs = t0.elapsed().as_secs_f64();
        let (upload_secs, upload_report) = upload_task
            .await
            .map_err(|e| HttpError::Malformed(format!("upload task died: {e}")))??;

        // The prefetch transfer may still be settling its books (abort
        // accounting for duplicate stragglers) when the player has the
        // last segment: wait for the proxy to go idle so the per-path
        // byte tallies are complete — free under virtual time.
        hls.wait_idle().await;

        Ok(HomeReport {
            vod_bytes,
            vod_secs,
            vod_gain: spec.tier.adsl_alone_secs(vod_bytes, false) / vod_secs,
            upload_bytes,
            upload_secs,
            upload_gain: spec.tier.adsl_alone_secs(upload_bytes, true) / upload_secs,
            vod_device_bytes: hls.device_bytes(),
            upload_device_bytes: upload_report.bytes_per_path.iter().skip(1).sum(),
            upload_wasted_bytes: upload_report.wasted_bytes,
            ..HomeReport::base(spec)
        })
    }
}

/// A home brought up once, under either workload driver: the origin
/// behind the home's view of the WAN, the discovery listener that is
/// the home's broadcast domain, one device proxy per phone at the
/// spec's start-hour [`CellProfile`] rates, and the shared Wi-Fi and
/// ADSL buckets (one per home — links persist across sessions and
/// days). What beacons, and what runs over [`HomeRig::client`], is the
/// driver's: the paper script or the scenario engine.
pub(crate) struct HomeRig {
    /// The home's address namespace.
    pub(crate) net: HomeNet,
    /// The discovery listener, holding the admissible set Φ.
    pub(crate) discovery: Discovery,
    /// Where announcers send: the listener's bound address.
    pub(crate) discovery_addr: SocketAddr,
    /// Every phone with its LAN listener address, in device order.
    pub(crate) devices: Vec<(Arc<DeviceProxy>, SocketAddr)>,
    origin_addr: SocketAddr,
    wifi: SharedRateLimit,
    adsl_down: SharedRateLimit,
    adsl_up: SharedRateLimit,
}

impl HomeRig {
    /// Bring up `spec`'s home; phone `i` starts with an allowance of
    /// `allowance(i)` bytes.
    pub(crate) async fn up(
        spec: &HomeSpec,
        allowance: impl Fn(usize) -> f64,
    ) -> Result<HomeRig, HttpError> {
        let net = HomeNet::new((spec.index % (1 << 16)) as u16);
        let ladder = vec![VideoQuality::new("Q1", VIDEO_BPS)];
        let origin = Arc::new(OriginServer::new(&ladder, VIDEO_SECS, SEGMENT_SECS));
        let (origin_addr, _origin_task) = origin.spawn(&net.origin().to_string()).await?;
        let discovery = Discovery::bind(&net.discovery().to_string()).await?;
        let discovery_addr = discovery.local_addr()?;

        // Every phone's 3G rates come from the spec's profile at the
        // start hour — a private pipe or a per-phone share of a cell.
        let (g3_down, g3_up) = spec.g3.phone_limits(spec.hour as f64);
        let mut devices = Vec::with_capacity(spec.devices);
        for i in 0..spec.devices {
            let device = Arc::new(DeviceProxy::new(
                format!("home{}-phone-{i}", spec.index),
                origin_addr,
                g3_down,
                g3_up,
                allowance(i),
            ));
            let (lan_addr, _task) = device.clone().spawn(&net.device(i).to_string()).await?;
            devices.push((device, lan_addr));
        }

        Ok(HomeRig {
            net,
            discovery,
            discovery_addr,
            devices,
            origin_addr,
            wifi: SharedRateLimit::from_bps(WIFI_BPS as u64),
            adsl_down: SharedRateLimit::from_bps(spec.tier.adsl_down_bps() as u64),
            adsl_up: SharedRateLimit::from_bps(spec.tier.adsl_up_bps() as u64),
        })
    }

    /// A client over the ADSL gateway plus every phone admissible right
    /// now, on the home's Wi-Fi.
    pub(crate) fn client(&self) -> ThreegolClient {
        let mut paths = vec![PathTarget::SharedGateway {
            origin: self.origin_addr,
            down: self.adsl_down.clone(),
            up: self.adsl_up.clone(),
        }];
        paths.extend(
            self.discovery
                .admissible()
                .into_iter()
                .map(|ad| PathTarget::Device { addr: ad.proxy_addr }),
        );
        ThreegolClient::new(paths).with_wifi(self.wifi.clone())
    }
}

/// Deterministic [`PHOTO_BYTES`] filler body for photo `i`, shared
/// process-wide: every home uploads views of one allocation instead of
/// re-filling the body per photo per home (the upload path never
/// mutates its payload — multipart encoding copies it into the request
/// body).
pub(crate) fn photo_body(i: usize) -> Bytes {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<usize, Bytes>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    Bytes::clone(
        cache
            .lock()
            .unwrap()
            .entry(i)
            .or_insert_with(|| Bytes::from(vec![(i % 251) as u8; PHOTO_BYTES])),
    )
}

/// Play the prebuffer phase of a VoD session against the home's HLS
/// proxy: fetch the media playlist, then every segment in order (the
/// proxy serves them from its multipath prefetch as they land).
/// Returns the total segment bytes received.
async fn prebuffer_vod(proxy_addr: SocketAddr, playlist: &str) -> Result<f64, HttpError> {
    let stream = TcpStream::connect(proxy_addr).await.map_err(HttpError::Io)?;
    let mut http = HttpStream::new(stream);
    http.write_request(&Request::get(playlist)).await?;
    let resp = http.read_response().await?;
    if resp.status != 200 {
        return Err(HttpError::Malformed(format!("playlist fetch failed: {}", resp.status)));
    }
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| HttpError::Malformed("non-UTF-8 playlist".into()))?;
    let media = MediaPlaylist::parse(text)
        .map_err(|e| HttpError::Malformed(format!("bad playlist: {e}")))?;
    let mut bytes = 0.0;
    for target in media.segment_targets(playlist) {
        http.write_request(&Request::get(target)).await?;
        let seg = http.read_response().await?;
        if seg.status != 200 {
            return Err(HttpError::Malformed(format!("segment fetch failed: {}", seg.status)));
        }
        bytes += seg.body.len() as f64;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_do_not_collide() {
        let a = HomeNet::new(0);
        let b = HomeNet::new(1);
        let c = HomeNet::new(256);
        assert_eq!(a.origin().to_string(), "10.0.0.1:8080");
        assert_eq!(b.origin().to_string(), "10.0.1.1:8080");
        assert_eq!(c.origin().to_string(), "10.1.0.1:8080");
        assert_eq!(b.device(3).to_string(), "10.0.1.13:3128");
        assert_eq!(b.device(244).to_string(), "10.0.1.254:3128");
        assert_ne!(a.discovery(), b.discovery());
    }

    #[test]
    #[should_panic(expected = "at most 245 devices per home")]
    fn a_spec_with_more_phones_than_host_addresses_is_rejected() {
        // Device 245 would sit on the subnet's .255 broadcast address.
        let _ = HomeSpec::paper_default(0).devices(246);
    }

    #[tokio::test]
    async fn one_home_end_to_end() {
        let report = Home::run(&HomeSpec::paper_default(7)).await.unwrap();
        assert_eq!(report.index, 7);
        // 10 s × 400 kbit/s = 500 kB of video; 3 × 100 kB of photos.
        assert_eq!(report.vod_bytes, 500_000.0);
        assert_eq!(report.upload_bytes, 300_000.0);
        assert!(report.vod_secs > 0.0 && report.vod_secs.is_finite());
        // The 0.5 Mbit/s ADSL uplink alone would need 4.8 s; two
        // 1 Mbit/s phones must beat that comfortably.
        assert!(report.upload_gain > 1.2, "upload gain {}", report.upload_gain);
        assert!(report.upload_device_bytes > 0.0);
    }

    #[tokio::test]
    async fn home_without_devices_still_works() {
        let spec = HomeSpec::paper_default(9).devices(0);
        let report = Home::run(&spec).await.unwrap();
        // ADSL-only: no 3G bytes, gain near 1 (bounded by bursts).
        assert_eq!(report.upload_device_bytes, 0.0);
        assert_eq!(report.vod_device_bytes, 0.0);
        assert!(report.vod_gain < 1.5, "vod gain {}", report.vod_gain);
    }

    #[test]
    fn cell_coupled_home_reports_its_cell_and_hour() {
        // Fresh runtime per run (same index, same virtual epoch). A
        // congested evening share vs a generous one: both homes
        // complete, report their cell/hour, and the starved one is
        // slower — the knob the fleet's fixed-point loop turns.
        let run = |spec: HomeSpec| tokio::runtime::block_on(Home::run(&spec)).unwrap();
        let a = run(HomeSpec::paper_default(21).cell(CellProfile::flat(4, 2e6, 1e6)).hour(4));
        let b = run(HomeSpec::paper_default(21).cell(CellProfile::flat(4, 360e3, 64e3)).hour(19));
        assert_eq!((a.cell, a.hour), (4, 4));
        assert_eq!((b.cell, b.hour), (4, 19));
        assert!(a.upload_secs < b.upload_secs, "{} !< {}", a.upload_secs, b.upload_secs);
        // Private 3G is the same flat curve on no cell: the reported
        // cell and hour differ, the physics does not, bit for bit.
        let isolated = run(HomeSpec::paper_default(21));
        assert_eq!(isolated.upload_secs, a.upload_secs);
        assert_eq!(isolated.vod_secs, a.vod_secs);
    }

    #[test]
    fn repeated_runs_are_identical() {
        // Fresh runtime per run: the same home index is reusable and
        // every event plays out at the same *relative* virtual time,
        // so measured durations must match bit for bit.
        let run = || tokio::runtime::block_on(Home::run(&HomeSpec::paper_default(3))).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.vod_secs, b.vod_secs);
        assert_eq!(a.upload_secs, b.upload_secs);
        assert_eq!(a.upload_device_bytes, b.upload_device_bytes);
        assert_eq!(a.upload_wasted_bytes, b.upload_wasted_bytes);
    }
}
