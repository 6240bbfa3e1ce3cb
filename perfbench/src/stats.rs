//! Seeded input generation and the order statistics every metric uses.

/// SplitMix64: a tiny seeded generator, so the same `--seed` always
/// yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_0fad_d1a6)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Poisson arrival offsets (seconds from the start) at `rate` per second,
/// covering `[0, horizon_s)`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, horizon_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= horizon_s {
            return out;
        }
        out.push(t);
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank_index(sorted.len(), pct)]
}

fn rank_index(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The tail percentile the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Percentiles the tail may be taken at, highest first. The ladder stops
/// at p90: on a shared two-core host a p99 moves by a third between runs
/// of the same input, which would drown any regression it should catch.
pub const TAIL_LADDER: [f64; 2] = [90.0, 50.0];

/// The highest ladder percentile with at least ten samples beyond it
/// (the maximum when even p50 has fewer).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for pct in TAIL_LADDER {
        let idx = rank_index(n, pct);
        let beyond = n - idx - 1;
        if beyond >= 10 {
            return Tail {
                pct,
                value: sorted[idx],
                beyond,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: sorted[n - 1],
        beyond: 0,
    }
}

/// Sorts a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_arrivals_and_draws() {
        let a = poisson_arrivals(&mut Rng::new(7), 500.0, 2.0);
        let b = poisson_arrivals(&mut Rng::new(7), 500.0, 2.0);
        assert_eq!(a, b);
        let c = poisson_arrivals(&mut Rng::new(8), 500.0, 2.0);
        assert_ne!(a, c);
        // About rate × horizon arrivals, strictly increasing.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let (mut r1, mut r2) = (Rng::new(3), Rng::new(3));
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p90 of 1000 sits at rank 900, with 100 samples beyond it.
        assert_eq!(
            tail(&v),
            Tail {
                pct: 90.0,
                value: 900.0,
                beyond: 100
            }
        );
        // 100 samples: p90 at rank 90 with exactly 10 beyond.
        let t = tail(&v[..100]);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 99 samples: p90 (rank 90) has 9 beyond, so p50 it is.
        let t = tail(&v[..99]);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 50.0, 49));
        // 21 samples: p50 at rank 11 with 10 beyond.
        let t = tail(&v[..21]);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 11.0, 10));
        // 15 samples: p50 (rank 8, 7 beyond) is short, so the maximum.
        let t = tail(&v[..15]);
        assert_eq!((t.pct, t.value, t.beyond), (100.0, 15.0, 0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }
}
