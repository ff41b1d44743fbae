//! The fleet determinism contract (DESIGN.md §11) as one sweep, shared
//! by every fleet entry point's integration test.

use std::fmt::Debug;

use threegol_bench::fleet::RuntimeMode;
use threegol_bench::Pool;

/// Assert that `run(pool, chunk, mode)` returns one value on {1, 4, 7}
/// workers × chunks {64, 23} × every mode in `modes`, and that
/// `digest` of it prints as the `recorded` hex. The reference row — 1
/// worker, chunk 64, `modes[0]` — runs twice, so a run that differs
/// from its own repeat fails too. The whole returned value is
/// compared, not just its digest. Returns the reference value.
pub fn contract<T: PartialEq + Debug>(
    modes: &[RuntimeMode],
    run: impl Fn(&Pool, usize, RuntimeMode) -> T,
    digest: impl Fn(&T) -> u64,
    recorded: &str,
) -> T {
    let reference = Pool::with(1, |pool| run(pool, 64, modes[0]));
    assert_eq!(
        format!("{:016x}", digest(&reference)),
        recorded,
        "drifted from the recorded digest"
    );
    for workers in [1, 4, 7] {
        for chunk in [64, 23] {
            for &mode in modes {
                let other = Pool::with(workers, |pool| run(pool, chunk, mode));
                assert_eq!(
                    other, reference,
                    "{workers} worker(s) / chunk {chunk} / {mode:?} diverged"
                );
            }
        }
    }
    reference
}
