//! H1 negative fixture: allocations the hot-path rules must NOT flag.

/// Warm driver root: straight-line setup is exactly where hoisted
/// buffers belong; only its loop bodies are per-iteration.
pub fn simulate_chrono_fleet(lanes: usize, steps: usize) -> f64 {
    let mut rates = vec![0.0; lanes]; // setup allocation: silent
    let lane_ids: Vec<usize> = (0..lanes).collect(); // setup collect: silent
    let mut acc = 0.0;
    for _ in 0..steps {
        for r in rates.iter_mut() {
            *r += 1.0;
        }
        acc += rates[0];
    }
    acc + lane_ids.len() as f64
}

/// Reserved push: `with_capacity` in the same region silences H1.
pub fn step_active(items: &[f64]) -> f64 {
    let mut out = Vec::with_capacity(items.len());
    for x in items {
        out.push(*x);
    }
    out.len() as f64
}

/// Field-receiver push: the cold caller owns that buffer's allocation.
pub struct Transient {
    t: Vec<f64>,
}

impl Transient {
    pub fn solve_batch_in_place(&mut self, x: f64) {
        self.t.push(x);
    }
}

/// Cold code allocates freely.
pub fn report_builder(n: usize) -> Vec<f64> {
    vec![0.0; n]
}

// advdiag::cold(fixture: allocating wrapper exercised only by tests)
pub fn step_wave(n: usize) -> Vec<f64> {
    vec![0.0; n]
}

/// Opaque recovery: a prefix range collapses to an `Opaque` node and its
/// operand is discarded, so the allocation inside it can only be
/// *hidden* (a false negative), never reported — lossiness stays in the
/// false-negative direction.
pub fn step_with_rate_constants(n: usize) -> usize {
    let bound = ..mask(Vec::new(), n);
    let _ = bound;
    n
}

fn mask(_v: Vec<f64>, n: usize) -> usize {
    n
}
