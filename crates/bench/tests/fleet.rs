//! Acceptance tests for the streamed proxy-fleet harness: a 200-home
//! fleet completes in one process under virtual time, the fleet digest
//! is byte-identical across repeated runs, worker counts, and chunk
//! sizes, it agrees with the sequential per-report fold, and the
//! traffic never touches a kernel socket.

mod support;

use threegol_bench::fleet::{
    collect_reports, home_spec, run_fleet_mode, run_fleet_with, scenario_spec, FleetDigest,
    RuntimeMode, DEFAULT_CHUNK,
};
use threegol_bench::Pool;
use threegol_proxy::Home;
use threegol_traces::DEFAULT_SCENARIO_SEED;

/// Open kernel sockets of this process, per /proc. The virtual-net
/// prototype must never add one.
#[cfg(target_os = "linux")]
fn kernel_socket_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.filter_map(|entry| entry.ok())
                .filter_map(|entry| std::fs::read_link(entry.path()).ok())
                .filter(|target| target.to_string_lossy().starts_with("socket:"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn two_hundred_home_fleet_is_deterministic_and_kernel_socket_free() {
    #[cfg(target_os = "linux")]
    let sockets_before = kernel_socket_count();

    // The contract on the paper-default street with reused runtimes:
    // every digest field — f64-derived sums and the content hash
    // included — agrees bit for bit across worker counts (one that
    // does not divide the fleet) and chunk sizes (one that does not
    // divide it either). The recorded value is the pre-scenario
    // baseline: the scenario engine must leave the paper-default
    // street's digest where it was.
    let first = support::contract(
        &[RuntimeMode::Reuse],
        |pool, chunk, mode| run_fleet_mode(200, chunk, pool, home_spec, mode),
        FleetDigest::digest,
        "8cf467045efaa947",
    );

    // The streamed digest is exactly the sequential fold of the
    // materialized per-home reports.
    let reports = Pool::with(4, |pool| collect_reports(200, pool));
    let mut refold = FleetDigest::empty();
    for report in &reports {
        refold.observe(report);
    }
    assert_eq!(refold.digest(), first.digest(), "streamed digest != sequential fold");

    #[cfg(target_os = "linux")]
    assert_eq!(kernel_socket_count(), sockets_before, "the fleet path opened a real socket");

    // Sanity on the workload itself.
    assert_eq!(first.homes, 200);
    assert_eq!(reports.len(), 200);
    for (h, report) in reports.iter().enumerate() {
        assert_eq!(report.index as usize, h);
        assert!(report.vod_secs.is_finite() && report.vod_secs > 0.0);
        assert!(report.upload_secs.is_finite() && report.upload_secs > 0.0);
        // Every home has at least one phone, so onloading must help
        // the upload (the ADSL uplink is the bottleneck by design).
        assert!(report.upload_gain > 1.0, "home {h}: upload gain {}", report.upload_gain);
        assert!(report.upload_device_bytes > 0.0, "home {h} never used a phone");
    }
    assert!(first.upload_gain.min > 1.0, "worst upload gain {}", first.upload_gain.min);
    assert!(first.upload_gain.p50() > 1.5, "median upload gain {}", first.upload_gain.p50());
    assert!(first.vod_gain.p50() > 1.0, "median vod gain {}", first.vod_gain.p50());
    assert!(first.net_events > 200 * 10, "implausibly few net events: {}", first.net_events);
}

#[test]
fn traced_scenario_fleet_is_deterministic_across_workers_chunks_and_modes() {
    // The four-invariant contract extended to the scenario engine: a
    // multi-day traced fleet — churn, quota withdrawal, live allowance
    // refits and all — folds to one digest whatever the worker count,
    // chunk size, or runtime mode. The default config churns (devices
    // leave mid-day with p=0.35), so this is also the fleet-level churn
    // determinism proof.
    let (homes, days) = (24usize, 3u16);
    let reference = support::contract(
        &[RuntimeMode::Reuse, RuntimeMode::Fresh],
        |pool, chunk, mode| {
            run_fleet_mode(
                homes,
                chunk,
                pool,
                move |i| scenario_spec(i, days, DEFAULT_SCENARIO_SEED),
                mode,
            )
        },
        FleetDigest::digest,
        "5daed0ce8811ec0a",
    );

    // The scenario accumulators are populated and self-consistent.
    let s = &reference.scenario;
    assert_eq!(reference.homes, homes as u64);
    assert_eq!(s.homes, homes as u64);
    assert!(s.sessions > 0, "no sessions over {days} days");
    assert!(
        s.device_days >= (homes * days as usize) as u64,
        "every home has >= 1 device for {days} days: {} device-days",
        s.device_days
    );
    assert!(s.overrun_device_days <= s.device_days);
    let day_dl: f64 = (0..days as usize).map(|d| s.bytes_on_day(d).0).sum();
    let hour_dl: f64 = (0..24).map(|h| s.bytes_at_hour(h).0).sum();
    assert!((day_dl - hour_dl).abs() < 1.0, "day sum {day_dl} != hour sum {hour_dl}");
    let day_ul: f64 = (0..days as usize).map(|d| s.bytes_on_day(d).1).sum();
    assert!(day_dl > 0.0 && day_ul > 0.0, "traced street onloaded nothing");
    assert!((0.0..=1.0).contains(&s.captured_fraction()));
    assert!(reference.render().contains("scenario:"), "render omits the scenario lines");

    // A different seed is a different street.
    let reseeded = Pool::with(4, |pool| {
        run_fleet_mode(
            homes,
            DEFAULT_CHUNK,
            pool,
            move |i| scenario_spec(i, days, DEFAULT_SCENARIO_SEED ^ 0xdead),
            RuntimeMode::Reuse,
        )
    });
    assert_ne!(reseeded.digest(), reference.digest(), "seed did not reach the scenario");
}

#[test]
fn runtime_reuse_is_bitwise_invisible() {
    // The fourth determinism invariant (DESIGN.md §11): the fleet
    // digest is a pure function of (homes, spec) — runtime mode
    // included. A reused runtime whose reset leaks any state into the
    // next home (a timer, a task, a clock skew, a virtual-net table
    // entry) shifts some transfer's completion instant and changes the
    // content hash. The fresh-runtime grid must hold the recorded
    // digest, and its reference must equal a reused run as a whole.
    let fresh = support::contract(
        &[RuntimeMode::Fresh],
        |pool, chunk, mode| run_fleet_mode(200, chunk, pool, home_spec, mode),
        FleetDigest::digest,
        "8cf467045efaa947",
    );
    let reused = Pool::with(1, |pool| {
        run_fleet_mode(200, DEFAULT_CHUNK, pool, home_spec, RuntimeMode::Reuse)
    });
    assert_eq!(fresh.homes, 200);
    assert_eq!(fresh, reused, "fresh and reused runtimes diverged");
}

#[test]
fn home_traffic_is_entirely_virtual() {
    // Count the sockets one home binds: they must all be virtual-net
    // registrations, visible to the runtime's own bookkeeping.
    let spec = home_spec(0);
    let devices = spec.devices as u64;
    let stats = tokio::runtime::block_on(async {
        let report = Home::run(&spec).await.unwrap();
        assert!(report.vod_bytes > 0.0);
        tokio::net::stats()
    });
    // TCP listeners: origin + HLS proxy + one per device.
    assert_eq!(stats.tcp_binds, 2 + devices);
    // At minimum: playlist + segment fetches + uploads + device
    // upstream connections all dialed through the registry.
    assert!(stats.tcp_connects > 2 + devices, "{stats:?}");
    // UDP: the discovery listener plus one ephemeral socket per
    // announcement sent.
    assert!(stats.udp_binds > devices, "{stats:?}");
    assert!(stats.datagrams >= devices, "{stats:?}");
}

#[test]
fn indices_beyond_the_namespace_width_run_fine() {
    // A million-home fleet reaches indices far past the 16-bit subnet
    // plan; each home runs in its own runtime, so the aliased
    // namespace never collides.
    let report =
        tokio::runtime::block_on(Home::run(&home_spec(999_999))).expect("home 999999 runs");
    assert_eq!(report.index, 999_999);
    assert!(report.upload_gain > 1.0);
}

#[test]
fn fleet_bin_rejects_arguments_it_would_ignore() {
    let fleet = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_fleet")).args(args).output().unwrap()
    };
    // A seed only feeds scenarios, and there are three positionals.
    for args in [&["2", "--seed", "7"][..], &["2", "1", "64", "9"]] {
        let out = fleet(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?}: no message");
        assert!(out.stdout.is_empty(), "{args:?}: ran a fleet anyway");
    }
    // The same seed is accepted where it means something.
    let out = fleet(&["2", "1", "--scenario", "1", "--seed", "7"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("report digest"));
}

#[test]
fn fleet_bin_takes_a_chunk_past_the_u32_range_as_the_whole_fleet() {
    let digest = |chunk: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["4", "1", chunk])
            .output()
            .unwrap();
        assert!(out.status.success(), "chunk {chunk}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        let (_, tail) = stdout.split_once("report digest ").expect("digest line");
        tail.split_whitespace().next().unwrap().to_string()
    };
    assert_eq!(digest("4294967296"), digest("4"));
}

#[test]
fn a_chunk_larger_than_the_fleet_is_one_unit_of_the_whole_fleet() {
    // 2^32 narrowed to u32 would be 0; 2^32 + 1 would be 1.
    let whole = Pool::with(1, |pool| run_fleet_with(4, 4, pool, home_spec));
    for chunk in [1 << 32, (1 << 32) + 1] {
        assert_eq!(Pool::with(1, |pool| run_fleet_with(4, chunk, pool, home_spec)), whole);
    }
}
