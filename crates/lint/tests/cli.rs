//! The CLI rejects every flag it does not know, the deleted auto-fix
//! and Graphviz flags included, with a usage error (exit 2) before any
//! file is read.

use std::process::Command;

#[test]
fn removed_flags_are_usage_errors() {
    let removed: [&[&str]; 4] = [
        &["--fix"],
        &["--fix-check"],
        &["--diff", "x"],
        &["--emit-dot", "x"],
    ];
    for args in removed {
        let status = Command::new(env!("CARGO_BIN_EXE_bios-lint"))
            .args(args)
            .status()
            .expect("bios-lint runs");
        assert_eq!(status.code(), Some(2), "bios-lint {args:?}");
    }
}
