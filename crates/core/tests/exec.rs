//! Edge cases of the deterministic parallel engine, exercised through the
//! crate's public API only.
//!
//! Every test that touches `ADVDIAG_THREADS` sets it to the same value
//! (`1`): the engine reads the variable once per process through a
//! `OnceLock`, and integration tests share one process.

use bios_platform::{par_map, par_map_chunks, par_map_mut, try_par_map, ExecPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

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

/// Distinct entries of `ids`, first-seen order.
fn distinct(ids: &[ThreadId]) -> Vec<ThreadId> {
    let mut out: Vec<ThreadId> = Vec::new();
    for id in ids {
        if !out.contains(id) {
            out.push(*id);
        }
    }
    out
}

#[test]
fn caller_runs_a_share_and_at_most_threads_threads_run_f() {
    let me = thread::current().id();
    let items: Vec<u64> = (0..97).collect();
    for threads in [2, 3, 4, 8] {
        // `par_map`: helpers wait until the caller has run a unit. A
        // waiting helper holds at most one claimed unit, so with more
        // units than helpers the caller always claims one, under any
        // schedule.
        let caller_ran = AtomicBool::new(false);
        // Bounded, so a dispatcher that leaves the caller idle fails the
        // assertion below instead of hanging.
        let give_up = Instant::now() + Duration::from_secs(5);
        let ids = par_map(ExecPolicy::Threads(threads), &items, |_, _| {
            let id = thread::current().id();
            if id == me {
                caller_ran.store(true, Ordering::Release);
            } else {
                while !caller_ran.load(Ordering::Acquire) && Instant::now() < give_up {
                    thread::yield_now();
                }
            }
            id
        });
        assert!(ids.contains(&me), "par_map, threads = {threads}");
        assert!(
            distinct(&ids).len() <= threads,
            "par_map, threads = {threads}"
        );

        // The chunked primitives hand the caller the first chunk.
        let mut cells = items.clone();
        let ids = par_map_mut(ExecPolicy::Threads(threads), &mut cells, |_, _| {
            thread::current().id()
        });
        assert_eq!(ids[0], me, "par_map_mut, threads = {threads}");
        assert!(
            distinct(&ids).len() <= threads,
            "par_map_mut, threads = {threads}"
        );

        let ids = par_map_chunks(ExecPolicy::Threads(threads), &items, |_, chunk| {
            vec![thread::current().id(); chunk.len()]
        });
        assert_eq!(ids[0], me, "par_map_chunks, threads = {threads}");
        assert!(
            distinct(&ids).len() <= threads,
            "par_map_chunks, threads = {threads}"
        );
    }
}

#[test]
fn panics_reach_the_caller_from_its_own_share_and_from_a_helper() {
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
    let me = thread::current().id();
    let message = |payload: Box<dyn std::any::Any + Send>| payload.downcast_ref::<&str>().copied();
    for (expected, on_caller) in [("caller", true), ("helper", false)] {
        // Each unit panics iff it runs on the chosen side. Two threads
        // over two units or four cells: every primitive runs some of
        // them on each side (`par_map` through a barrier that keeps
        // either thread from claiming both units).
        let boom = || {
            if (thread::current().id() == me) == on_caller {
                panic_any(expected);
            }
        };
        let both = Barrier::new(2);
        let got = catch_unwind(AssertUnwindSafe(|| {
            par_map(ExecPolicy::Threads(2), &[0u8, 1], |_, _| {
                both.wait();
                boom();
            })
        }));
        assert_eq!(got.err().and_then(message), Some(expected), "par_map");

        let mut cells = [0u8; 4];
        let got = catch_unwind(AssertUnwindSafe(|| {
            par_map_mut(ExecPolicy::Threads(2), &mut cells, |_, _| boom())
        }));
        assert_eq!(got.err().and_then(message), Some(expected), "par_map_mut");

        let got = catch_unwind(AssertUnwindSafe(|| {
            par_map_chunks(ExecPolicy::Threads(2), &cells, |_, chunk| {
                boom();
                vec![(); chunk.len()]
            })
        }));
        assert_eq!(
            got.err().and_then(message),
            Some(expected),
            "par_map_chunks"
        );
    }
}
