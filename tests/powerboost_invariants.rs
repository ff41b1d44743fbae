//! Property-based cross-crate invariants of the 3GOL service.

use proptest::prelude::*;

use threegol::core::upload::UploadExperiment;
use threegol::core::vod::VodExperiment;
use threegol::hls::VideoQuality;
use threegol::radio::LocationProfile;
use threegol::sched::Policy;

fn arb_quality() -> impl Strategy<Value = VideoQuality> {
    (0usize..4).prop_map(|i| VideoQuality::paper_ladder().swap_remove(i))
}

fn arb_location() -> impl Strategy<Value = LocationProfile> {
    (0usize..5).prop_map(|i| LocationProfile::paper_table4().swap_remove(i))
}

/// Adding phones never makes the download slower than ADSL alone
/// (greedy pulls work; a slow path can only ever take work that is
/// re-issued elsewhere near the tail).
fn never_slower_than_adsl(
    quality: VideoQuality,
    location: LocationProfile,
    n_phones: usize,
    seed: u64,
) -> TestCaseResult {
    let mut e = VodExperiment::paper_default(location, quality, n_phones);
    e.seed = seed;
    let adsl = e.adsl_only().run_once(seed);
    let gol = e.run_once(seed);
    // Allow a sliver of slack for the duplicate-abort tail.
    prop_assert!(
        gol.download_secs <= adsl.download_secs * 1.05 + 1.0,
        "3GOL {} vs ADSL {}",
        gol.download_secs,
        adsl.download_secs
    );
    Ok(())
}

/// Waste stays within a small multiple of the paper's (N−1)·S_max
/// bound. The paper's bound assumes each assisting path wastes at most
/// one partial duplicate; under rapidly varying rates a path whose
/// duplicate is aborted can duplicate *again*, so the tight envelope
/// is per-duplication-round — we assert the practical envelope
/// N·(N−1)·S_max, and that waste is a small fraction of the payload.
fn waste_bound_holds(
    quality: VideoQuality,
    location: LocationProfile,
    n_phones: usize,
    seed: u64,
) -> TestCaseResult {
    let seg_bytes = quality.bytes_per_sec() * 10.0;
    let payload = quality.bytes_per_sec() * 200.0;
    let mut e = VodExperiment::paper_default(location, quality, n_phones);
    e.seed = seed;
    let out = e.run_once(seed);
    let n = (n_phones + 1) as f64;
    prop_assert!(
        out.wasted_bytes <= n * (n - 1.0) * seg_bytes + 1.0,
        "waste {} exceeds N(N−1)·S = {}",
        out.wasted_bytes,
        n * (n - 1.0) * seg_bytes
    );
    prop_assert!(out.wasted_bytes <= payload, "waste exceeds the payload itself");
    Ok(())
}

/// The one failing case a proptest run once recorded in a regression file:
/// Q4 video at location loc4 with 2 phones, seed 24. The vendored
/// proptest draws its cases from the test name and reads no
/// regression file, so the case is replayed by name below.
fn recorded_case() -> (VideoQuality, LocationProfile, usize, u64) {
    let quality = VideoQuality::paper_ladder().into_iter().find(|q| q.label == "Q4").unwrap();
    let location = LocationProfile::paper_table4().into_iter().find(|l| l.name == "loc4").unwrap();
    (quality, location, 2, 24)
}

#[test]
fn threegol_never_slower_than_adsl_recorded_case() {
    let (quality, location, n_phones, seed) = recorded_case();
    never_slower_than_adsl(quality, location, n_phones, seed).unwrap();
}

#[test]
fn waste_bound_holds_everywhere_recorded_case() {
    let (quality, location, n_phones, seed) = recorded_case();
    waste_bound_holds(quality, location, n_phones, seed).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// [`never_slower_than_adsl`] over random homes.
    #[test]
    fn threegol_never_slower_than_adsl(
        quality in arb_quality(),
        location in arb_location(),
        n_phones in 1usize..=2,
        seed in 0u64..50,
    ) {
        never_slower_than_adsl(quality, location, n_phones, seed)?;
    }

    /// [`waste_bound_holds`] over random homes.
    #[test]
    fn waste_bound_holds_everywhere(
        quality in arb_quality(),
        location in arb_location(),
        n_phones in 1usize..=3,
        seed in 0u64..50,
    ) {
        waste_bound_holds(quality, location, n_phones, seed)?;
    }

    /// Per-item completion times are monotone inputs to the player:
    /// the pre-buffer time never exceeds the full download time and
    /// playout finishes after startup.
    #[test]
    fn player_metrics_consistent(
        quality in arb_quality(),
        prebuffer in 0.2f64..=1.0,
        seed in 0u64..50,
    ) {
        let mut e = VodExperiment::paper_default(
            LocationProfile::reference_2mbps(), quality, 2);
        e.prebuffer_fraction = prebuffer;
        e.seed = seed;
        let out = e.run_once(seed);
        prop_assert!(out.prebuffer_secs <= out.download_secs + 1e-9);
        prop_assert!(out.playout.finish_secs >= out.playout.startup_secs);
        prop_assert!(out.playout.total_stall_secs >= 0.0);
    }

    /// Uploads: every policy moves exactly the payload (plus waste).
    #[test]
    fn upload_accounting_balances(
        location in arb_location(),
        n_phones in 0usize..=2,
        policy_idx in 0usize..3,
        seed in 0u64..30,
    ) {
        let policy = [Policy::Greedy, Policy::RoundRobin, Policy::min_time_paper()][policy_idx];
        let mut e = UploadExperiment::paper_default(location, n_phones);
        e.policy = policy;
        e.seed = seed;
        e.n_photos = 8;
        let out = e.run_once(seed);
        let moved: f64 = out.bytes_per_path.iter().sum();
        prop_assert!(
            (moved - (out.total_bytes + out.wasted_bytes)).abs() < 1.0,
            "moved {moved} vs payload {} + waste {}", out.total_bytes, out.wasted_bytes
        );
    }
}
