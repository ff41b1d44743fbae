//! `bench_summary --only` refuses a row name it does not know, so a
//! renamed row cannot silently drop out of a subset run.

use std::process::Command;

#[test]
fn unknown_only_row_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_summary"))
        .args(["--only", "no_such_row"])
        .output()
        .expect("run bench_summary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is measured");
}
