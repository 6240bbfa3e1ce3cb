//! Deterministic parallel execution engine.
//!
//! Multi-channel acquisition is inherently parallel across electrodes, and
//! design-space exploration across design points — but the robustness
//! guarantees of this platform (identical `(input, seed)` ⇒ bit-identical
//! output) must survive the fan-out. The engine's primitive is
//! [`par_map`], with one contract: the result vector is the same,
//! element for element and bit for bit, as the sequential
//! `items.iter().map(f).collect()`, regardless of thread count or OS
//! scheduling.
//!
//! How the contract is kept:
//!
//! * work units are *independent* — every seed in this codebase is derived
//!   per-unit (per electrode, per design point, per matrix cell), never
//!   drawn from a shared RNG stream;
//! * workers claim unit indices from an atomic counter (or take one
//!   contiguous chunk each) and tag each result with its index; the
//!   results are merged *by index* after all workers join, so scheduling
//!   can reorder execution but never output;
//! * no worker mutates shared state — reductions happen on the caller's
//!   thread after the merge.
//!
//! A fan-out over `n` workers spawns `n − 1` scoped helpers; the calling
//! thread runs the remaining share instead of waiting at the join.
//! Thread count resolves from [`ExecPolicy`]; the `ADVDIAG_THREADS`
//! environment variable forces a global override (`1` = sequential), which
//! CI uses to digest-compare parallel against sequential runs.
//!
//! A process resolves [`ExecPolicy::Auto`] once: the first `Auto` fan-out
//! reads `ADVDIAG_THREADS`, else asks the OS for its available
//! parallelism, and every later one reuses that count. The OS query is a
//! syscall plus cgroup reads (tens of µs per call on a 2-vCPU host, more
//! after an idle gap), too dear for a per-tick or per-wave fan-out; a
//! process that should see a changed core count restarts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How a parallelizable operation should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum ExecPolicy {
    /// Run on the calling thread, in index order. The reference behavior.
    Sequential,
    /// Fan out over exactly `threads` workers (clamped to ≥ 1).
    Threads(usize),
    /// Resolve from `ADVDIAG_THREADS` if set, else the machine's available
    /// parallelism, once per process. The default everywhere.
    #[default]
    Auto,
}

/// The worker count [`ExecPolicy::Auto`] resolves to, computed once per
/// process: `ADVDIAG_THREADS` when set to a positive count, else the
/// machine's available parallelism.
#[expect(
    clippy::disallowed_methods,
    reason = "the one OS core-count query; every fan-out reads its cached result"
)]
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("ADVDIAG_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

impl ExecPolicy {
    /// The worker count this policy resolves to for `items` work units.
    /// Never exceeds the number of units; never below 1.
    pub fn threads_for(self, items: usize) -> usize {
        let raw = match self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => auto_threads(),
        };
        raw.min(items.max(1))
    }
}

/// Maps `f` over `items`, possibly in parallel, returning results in item
/// order. Guaranteed bit-identical to the sequential map for any thread
/// count (see module docs). `f` receives `(index, &item)` so callers can
/// derive per-unit seeds or labels without capturing extra state.
///
/// # Panics
///
/// Propagates a panic from `f` (the calling thread's own first, else
/// the first helper's in spawn order).
// advdiag::cold(dispatch machinery: allocates O(workers) scratch and joins at the
// barrier by design; per-element work is checked through the closure root)
pub fn par_map<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = policy.threads_for(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Every share, the caller's included, runs the same claim loop.
    let next = AtomicUsize::new(0);
    dispatch(items.len(), vec![(); threads], |()| {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break local;
            }
            local.push((i, f(i, &items[i])));
        }
    })
}

/// Mutates every element of `items` in place, possibly in parallel, and
/// returns `f`'s outputs in item order. The contract matches [`par_map`]:
/// the final state of `items` and the returned vector are bit-identical
/// to the sequential `for (i, t) in items.iter_mut().enumerate()` loop
/// for any thread count.
///
/// Unlike [`par_map`], work is distributed as *contiguous chunks* (one
/// per worker, the caller taking the first) rather than claimed from an
/// atomic counter — mutable aliasing rules out stealing in safe Rust.
/// Each element is still visited exactly once by exactly one worker, so
/// determinism holds; load balance is the caller's job (give workers
/// comparably sized elements, e.g. pre-sharded state).
///
/// # Panics
///
/// Propagates a panic from `f` (the calling thread's own first, else
/// the first helper's in spawn order).
// advdiag::cold(dispatch machinery: allocates O(workers) scratch and joins at the
// barrier by design; per-element work is checked through the closure root)
pub fn par_map_mut<T, R, F>(policy: ExecPolicy, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = policy.threads_for(items.len());
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let len = items.len();
    let chunk = len.div_ceil(threads);
    let shares = items.chunks_mut(chunk).enumerate().collect();
    dispatch(len, shares, |(k, head): (usize, &mut [T])| {
        let start = k * chunk;
        head.iter_mut()
            .enumerate()
            .map(|(j, t)| (start + j, f(start + j, t)))
            .collect()
    })
}

/// Maps `f` over *contiguous chunks* of `items` (one chunk per worker,
/// sized like [`par_map_mut`]) and concatenates the per-chunk outputs in
/// chunk order. `f` receives `(start_index, chunk)` and must return one
/// output per element.
///
/// This is the batching primitive: a chunk-level `f` can run one batched
/// kernel across its whole chunk instead of a task per element. The
/// determinism contract is conditional on the caller — when `f`'s output
/// for each element is independent of how the slice was chunked (true for
/// the batched diffusion kernel, whose lanes are bit-identical to scalar
/// runs), the concatenated result equals `f(0, items)` for any thread
/// count. The bench harness digest-checks exactly this.
///
/// # Panics
///
/// Propagates a panic from `f` (the calling thread's own first, else
/// the first helper's in spawn order), and panics if `f` returns a
/// vector whose length differs from its chunk.
// advdiag::cold(dispatch machinery: allocates O(workers) scratch and joins at the
// barrier by design; per-element work is checked through the closure root)
pub fn par_map_chunks<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let run = |start: usize, head: &[T]| {
        let out = f(start, head);
        assert_eq!(out.len(), head.len(), "chunk output length mismatch");
        out
    };
    let threads = policy.threads_for(items.len());
    if threads <= 1 {
        return run(0, items);
    }
    let chunk = items.len().div_ceil(threads);
    let shares = items.chunks(chunk).enumerate().collect();
    dispatch(items.len(), shares, |(k, head): (usize, &[T])| {
        let start = k * chunk;
        run(start, head)
            .into_iter()
            .enumerate()
            .map(|(j, r)| (start + j, r))
            .collect()
    })
}

/// The one scoped fan-out behind every primitive: runs `work` once per
/// share — the first share on the calling thread, every other share on
/// its own scoped helper, so `shares.len() - 1` spawns — and merges the
/// `(index, result)` pairs the shares return into item order (`len`
/// slots, each filled exactly once).
///
/// A panic in the caller's share is re-raised once the helpers have
/// finished; otherwise the first panicking helper, in spawn order, is
/// re-raised at its join.
#[expect(
    clippy::expect_used,
    reason = "invariant: the claim counter and the chunking each hand out every index \
              once; a hole here is corruption, so aborting beats returning wrong data"
)]
// advdiag::cold(dispatch machinery: allocates O(workers) scratch and joins at the
// barrier by design; per-element work is checked through the closure root)
fn dispatch<S, R, W>(len: usize, shares: Vec<S>, work: W) -> Vec<R>
where
    S: Send,
    R: Send,
    W: Fn(S) -> Vec<(usize, R)> + Sync,
{
    let mut shares = shares.into_iter();
    let first = shares.next();
    let tagged: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let work = &work;
        // Spawn every helper before the caller starts its own share.
        let helpers: Vec<_> = shares.map(|s| scope.spawn(move || work(s))).collect();
        let mine = first.map(work);
        mine.into_iter()
            .chain(helpers.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }))
            .collect()
    });
    // Merge by index: scheduling order is irrelevant to the output.
    let mut out: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (i, r) in tagged.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

/// [`par_map`] over fallible work: stops at nothing (all units run), then
/// returns the first error *by item index* — the same error the sequential
/// loop would have surfaced first.
///
/// # Errors
///
/// The lowest-index `Err` produced by `f`, if any.
// advdiag::cold(dispatch machinery: allocates O(workers) scratch and joins at the
// barrier by design; per-element work is checked through the closure root)
pub fn try_par_map<T, R, E, F>(policy: ExecPolicy, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = par_map(policy, items, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: &u64| (i as u64).wrapping_mul(0x9e3779b9) ^ (x * 3);
        let reference: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = par_map(ExecPolicy::Threads(threads), &items, f);
            assert_eq!(got, reference, "threads = {threads}");
        }
        assert_eq!(par_map(ExecPolicy::Sequential, &items, f), reference);
        assert_eq!(par_map(ExecPolicy::Auto, &items, f), reference);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(ExecPolicy::Threads(4), &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(ExecPolicy::Threads(4), &[7u32], |_, x| x + 1), [8]);
    }

    #[test]
    fn threads_resolve_sanely() {
        assert_eq!(ExecPolicy::Sequential.threads_for(100), 1);
        assert_eq!(ExecPolicy::Threads(4).threads_for(100), 4);
        assert_eq!(ExecPolicy::Threads(0).threads_for(100), 1);
        // Never more workers than work.
        assert_eq!(ExecPolicy::Threads(64).threads_for(3), 3);
        assert!(ExecPolicy::Auto.threads_for(100) >= 1);
        // Resolved once per process: every call reads the same count.
        let auto = ExecPolicy::Auto.threads_for(usize::MAX);
        assert_eq!(ExecPolicy::Auto.threads_for(usize::MAX), auto);
    }

    #[test]
    fn par_map_mut_matches_sequential_for_any_thread_count() {
        let f = |i: usize, x: &mut u64| {
            *x = x.wrapping_mul(31).wrapping_add(i as u64);
            *x ^ 0x5a5a
        };
        let mut reference: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = reference
            .iter_mut()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let mut items: Vec<u64> = (0..97).collect();
            let got = par_map_mut(ExecPolicy::Threads(threads), &mut items, f);
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(items, reference, "threads = {threads}");
        }
        let mut empty: Vec<u64> = Vec::new();
        assert!(par_map_mut(ExecPolicy::Threads(4), &mut empty, f).is_empty());
    }

    #[test]
    fn par_map_chunks_matches_whole_slice_call() {
        // Element-wise-independent chunk function: partitioning must not
        // change the concatenated output.
        let items: Vec<u64> = (0..97).collect();
        let f = |start: usize, chunk: &[u64]| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, x)| ((start + k) as u64).wrapping_mul(0x9e37) ^ (x * 7))
                .collect::<Vec<u64>>()
        };
        let reference = f(0, &items);
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = par_map_chunks(ExecPolicy::Threads(threads), &items, f);
            assert_eq!(got, reference, "threads = {threads}");
        }
        assert_eq!(par_map_chunks(ExecPolicy::Sequential, &items, f), reference);
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_chunks(ExecPolicy::Threads(4), &empty, f).is_empty());
    }

    #[test]
    fn try_par_map_returns_lowest_index_error() {
        let items: Vec<i32> = (0..50).collect();
        let out: Result<Vec<i32>, usize> = try_par_map(ExecPolicy::Threads(8), &items, |i, x| {
            if *x == 13 || *x == 31 {
                Err(i)
            } else {
                Ok(*x)
            }
        });
        assert_eq!(out, Err(13), "sequential semantics: first error wins");
        let ok: Result<Vec<i32>, usize> =
            try_par_map(ExecPolicy::Threads(8), &items, |_, x| Ok::<_, usize>(*x));
        assert_eq!(ok.expect("no errors"), items);
    }
}
