//! Edge cases of the deterministic parallel engine, exercised through the
//! crate's public API only.
//!
//! Every test that touches `ADVDIAG_THREADS` sets it to the same value
//! (`1`): the engine reads the variable once per process through a
//! `OnceLock`, and integration tests share one process.

use bios_platform::{par_map, try_par_map, ExecPolicy};

/// Pins the env override before the engine's `OnceLock` first resolves it.
fn force_single_thread() {
    std::env::set_var("ADVDIAG_THREADS", "1");
}

#[test]
fn env_override_forces_sequential_auto_policy() {
    force_single_thread();
    assert_eq!(
        ExecPolicy::Auto.threads_for(100),
        1,
        "ADVDIAG_THREADS=1 must win over available parallelism"
    );
    // The sequential path must still produce the reference output.
    let items: Vec<u64> = (0..64).collect();
    let f = |i: usize, x: &u64| (i as u64) ^ (x << 1);
    let reference: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    assert_eq!(par_map(ExecPolicy::Auto, &items, f), reference);
}

#[test]
fn empty_inputs_yield_empty_outputs_under_every_policy() {
    force_single_thread();
    let empty: Vec<u32> = Vec::new();
    for policy in [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(8),
        ExecPolicy::Auto,
    ] {
        assert!(par_map(policy, &empty, |_, x| *x).is_empty());
        let ok: Result<Vec<u32>, ()> = try_par_map(policy, &empty, |_, x| Ok(*x));
        assert_eq!(ok, Ok(Vec::new()));
    }
}

#[test]
fn try_par_map_surfaces_an_error_at_index_zero() {
    force_single_thread();
    let items: Vec<i32> = (0..40).collect();
    let out: Result<Vec<i32>, usize> = try_par_map(ExecPolicy::Threads(4), &items, |i, x| {
        if i == 0 || *x == 25 {
            Err(i)
        } else {
            Ok(*x)
        }
    });
    assert_eq!(
        out,
        Err(0),
        "index 0 is the lowest-index error and must win"
    );
}
