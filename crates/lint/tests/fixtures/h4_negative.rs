//! H4 negative fixture: invariants constructed once, outside the loop.

/// Warm driver: constructors in straight-line setup are the fix shape.
pub fn simulate_chrono_fleet(n: usize) -> f64 {
    let g = Grid::for_experiment(n);
    let p = Prefactorized::new(0.1);
    let mut acc = 0.0;
    for _ in 0..n {
        acc += g + p; // the invariants are *used* per step, not rebuilt
    }
    acc
}

/// Cold code constructs freely.
pub fn build_grid(n: usize) -> f64 {
    Grid::uniform(n as f64)
}

/// Acquisition driver: the noise source and stream are bound once in
/// setup and only used per sample.
pub fn acquire(n: usize, dt: f64) -> f64 {
    let mut noise = NoiseSource::new(dt);
    let mut tia = config.tia.streamer(dt);
    let mut acc = 0.0;
    for _ in 0..n {
        acc += tia.process(noise.sample());
    }
    acc
}
