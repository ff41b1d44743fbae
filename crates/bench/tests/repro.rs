//! The `repro <id> [scale] [workers]` binary: it prints the same report
//! as the experiment's serial run, and rejects bad arguments with exit
//! code 2.

use std::process::{Command, Output};

use threegol_bench::{registry, Scale};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn repro_prints_the_serial_report() {
    let out = repro(&["cap02", "0.2", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let serial = registry().get("cap02").unwrap().run_serial(Scale::new(0.2).unwrap());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), serial.render());
}

#[test]
fn repro_rejects_bad_arguments() {
    for args in [&["nope"][..], &["fig06", "0"], &["cap02", "0.2", "2", "extra"]] {
        assert_eq!(repro(args).status.code(), Some(2), "repro {args:?}");
    }
}
