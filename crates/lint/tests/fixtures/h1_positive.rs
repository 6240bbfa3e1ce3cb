//! H1 positive fixture: every seeded allocation sits in per-iteration hot
//! code and must produce exactly one finding. Sites are numbered in the
//! comments; `tests/hotpath.rs` pins the count.

/// Per-step kernel entry (PerIter root by name).
pub fn step_with_rate_constants(n: usize) -> f64 {
    let scratch: Vec<f64> = Vec::new(); // site 1: Vec::new in hot code
    let lane = vec![0.0; n]; // site 2: vec! in hot code
    kernel_inner(&lane) + scratch.len() as f64
}

/// Reached from the kernel: PerIter via an unambiguous call edge.
fn kernel_inner(xs: &[f64]) -> f64 {
    let own = xs.to_vec(); // site 3: to_vec in hot code
    let copy = own.clone(); // site 4: clone in hot code
    let boxed = Box::new(copy.len()); // site 5: Box::new in hot code
    *boxed as f64 + lane_squares(xs).len() as f64
}

/// Per-tick root: an unreserved region-local vector that gets pushed.
pub fn step_active(items: &[f64]) -> f64 {
    let mut acc = Vec::new(); // site 6: Vec::new in hot code
    for x in items {
        acc.push(*x); // site 7: push onto an unreserved hot-local vec
    }
    acc.len() as f64
}

/// Cold dispatcher: the `par_map_chunks` closure is a hot root — its
/// body runs once per element.
pub fn dispatch(items: &[f64]) -> Vec<Vec<f64>> {
    par_map_chunks(items, |chunk| chunk.to_vec()) // site 8: to_vec in par closure
}

// advdiag::hot
fn custom_kernel(n: usize) -> String {
    format!("{n}") // site 9: format! under an opt-in hot marker
}

/// Reached from `kernel_inner`: PerIter via an unambiguous call edge.
fn lane_squares(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x * x).collect() // site 10: collect in hot code
}
