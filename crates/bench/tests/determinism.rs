//! The replication-sharding contract: for any worker count, every
//! experiment renders byte-for-byte the same report, because units are
//! seeded by their coordinates and merged in unit order.

use threegol_bench::{registry, Pool, Scale};

#[test]
fn sharded_output_is_byte_identical_to_serial() {
    // fig06 shards per rep; the §6 trace experiments shard into a
    // fixed number of subscriber ranges whose merges replay per-user
    // data in user order (est06 adds per-range tallies in unit order).
    let experiments = [
        ("fig06", 0.15),
        ("fig10", 0.1),
        ("fig11a", 0.1),
        ("fig11b", 0.1),
        ("fig11c", 0.1),
        ("est06", 0.1),
    ];
    for (id, scale) in experiments {
        let scale = Scale::new(scale).expect("valid scale");
        let experiment = registry().get(id).expect("registered");
        let serial = experiment.run_serial(scale);
        for workers in [1, 2, 4, 7] {
            let sharded = Pool::with(workers, |pool| experiment.run_sharded(scale, pool));
            assert_eq!(
                serial.render(),
                sharded.render(),
                "{id}: {workers} workers diverged (render)"
            );
            assert_eq!(
                serial.render_markdown(),
                sharded.render_markdown(),
                "{id}: {workers} workers diverged (markdown)"
            );
        }
    }
}

#[test]
fn cell_level_experiment_shards_identically() {
    // fig03 shards at (location, device-count) granularity rather than
    // per rep; the merge contract is the same.
    let scale = Scale::new(0.4).expect("valid scale");
    let fig03 = registry().get("fig03").expect("fig03 registered");
    let serial = fig03.run_serial(scale);
    let sharded = Pool::with(4, |pool| fig03.run_sharded(scale, pool));
    assert_eq!(serial.render_markdown(), sharded.render_markdown());
}

#[test]
fn unit_counts_are_stable_across_calls() {
    for experiment in registry().all() {
        let scale = Scale::new(0.1).expect("valid scale");
        assert_eq!(
            experiment.unit_count(scale),
            experiment.unit_count(scale),
            "{} unit decomposition must be deterministic",
            experiment.id()
        );
        assert!(experiment.unit_count(scale) >= 1, "{} has no units", experiment.id());
    }
}
