//! The cell-coupled fleet keeps the streamed fleet's determinism
//! contract: with homes sharing 3G cells and capacity fed back
//! between passes, the digest — per-cell accumulators included — is
//! byte-identical for any worker count and chunk size, and the
//! fixed-point loop itself (pass count, convergence verdict, settled
//! share curves) is worker-invariant.

mod support;

use threegol_bench::fleet::{run_cell_fleet, CellFleetConfig, CellFleetRun, RuntimeMode};
use threegol_bench::Pool;
use threegol_radio::CellMap;

fn coupled(homes: usize, workers: usize, chunk: usize, config: &CellFleetConfig) -> CellFleetRun {
    Pool::with(workers, |pool| run_cell_fleet(homes, chunk, pool, config))
}

#[test]
fn coupled_digest_is_identical_across_workers_and_chunks() {
    // Two forced passes (tolerance 0 never converges early) so every
    // configuration runs the same fleet the same number of times, with
    // real load→share feedback between the passes.
    let config = CellFleetConfig { tolerance: 0.0, max_passes: 2, ..CellFleetConfig::default() };
    // `run_cell_fleet` always reuses runtimes, so the sweep is workers
    // × chunks only; the whole run — per-cell accumulators, settled
    // profiles and loads — is compared, not just the digest.
    let baseline = support::contract(
        &[RuntimeMode::Reuse],
        |pool, chunk, _| run_cell_fleet(600, chunk, pool, &config),
        |run| run.digest.digest(),
        "5120c480c02747c5",
    );
    assert_eq!(baseline.passes, 2);
    assert!(!baseline.converged);

    // The coupling is real: homes landed in every cell, and both
    // directions accumulated onloaded bytes.
    let map = CellMap::city(config.cells);
    let mut expected = vec![0u64; config.cells as usize];
    for home in 0..600u32 {
        expected[map.cell_of(home) as usize] += 1;
    }
    for (cell, want) in expected.iter().enumerate() {
        let homes = baseline.digest.cells.homes[cell];
        assert!(homes > 0, "cell {cell} got no homes");
        assert_eq!(homes, *want, "cell {cell} home count off");
    }
    // Weighted assignment: the dense-residential cells carry several
    // times the homes of the suburbs.
    assert!(expected[0] > 3 * expected[3], "{expected:?}");
    let (dl, ul) = baseline.digest.cells.total_bytes();
    assert!(dl > 0.0 && ul > 0.0);
}

#[test]
fn fixed_point_converges_identically_for_any_worker_count() {
    let config = CellFleetConfig::default();
    let serial = coupled(250, 1, 64, &config);
    let parallel = coupled(250, 4, 23, &config);

    // The whole trajectory is worker-invariant, not just the end
    // state: same pass count, same verdict, same settled shares.
    assert_eq!(serial.passes, parallel.passes);
    assert_eq!(serial.converged, parallel.converged);
    assert_eq!(serial.profiles, parallel.profiles);
    assert_eq!(serial.loads, parallel.loads);
    assert_eq!(serial.digest, parallel.digest);
    assert!(serial.converged, "default config should settle within {} passes", config.max_passes);
    assert!(serial.passes >= 2, "the load must actually move the shares once");

    // Fig 11 character: 3GOL load on the cells is wired-shaped —
    // the evening block carries more onloaded traffic than the
    // small hours.
    let block = |lo: usize, hi: usize| -> f64 {
        serial.loads.iter().map(|l| (lo..hi).map(|h| l.dl_bps[h] + l.ul_bps[h]).sum::<f64>()).sum()
    };
    let evening = block(18, 24);
    let night = block(2, 8);
    assert!(evening > 2.0 * night, "evening {evening:.0} b/s vs night {night:.0} b/s");

    // And the shares the fleet settled on respect the floors and the
    // cells' leftover capacity.
    for profile in &serial.profiles {
        let site = serial.map.site(profile.cell);
        for h in 0..24 {
            assert!(profile.down_bps[h] >= threegol_radio::consts::UMTS_DEDICATED_DL_BPS);
            assert!(profile.down_bps[h] <= site.dl_capacity_bps);
            assert!(profile.up_bps[h] >= threegol_radio::consts::UMTS_DEDICATED_UL_BPS);
            assert!(profile.up_bps[h] <= site.ul_capacity_bps);
        }
    }
}
