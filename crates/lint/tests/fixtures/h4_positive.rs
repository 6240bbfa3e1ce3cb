//! H4 positive fixture: known-pure constructors recomputed per iteration.

pub fn step_wave(n: usize) -> f64 {
    let mut acc = 0.0;
    for i in 0..n {
        let g = Grid::for_experiment(i); // site 1: per-iteration rebuild
        acc += g;
    }
    while acc < 10.0 {
        let p = Prefactorized::new(acc); // site 2: per-iteration refactorization
        acc += p;
    }
    acc + helper_ctor(acc)
}

/// PerIter via the call edge: its whole body runs per step, so even a
/// depth-0 constructor call is a per-iteration recomputation.
fn helper_ctor(x: f64) -> f64 {
    let u = Grid::uniform(x); // site 3
    u
}

/// Acquisition driver (a `Warm` root): a noise source or stream built in
/// the sample loop recomputes its per-interval factors every sample.
pub fn acquire(n: usize, dt: f64) -> f64 {
    let mut acc = 0.0;
    for _ in 0..n {
        let noise = NoiseSource::new(dt); // site 4
        let tia = config.tia.streamer(dt); // site 5: method-form constructor
        acc += noise + tia;
    }
    acc
}
