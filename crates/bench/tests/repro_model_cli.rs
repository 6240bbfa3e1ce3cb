//! `repro_model` accepts only `--json PATH`: any other argument, a stale
//! `--emit-dot` included, fails with a usage error before exploring.

use std::process::Command;

#[test]
fn unrecognised_arguments_fail_before_exploring() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_model"))
        .args(["--emit-dot", "x"])
        .output()
        .expect("repro_model runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran before the usage error");
}
