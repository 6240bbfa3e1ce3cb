//! Tridiagonal linear solver (Thomas algorithm).
//!
//! The implicit diffusion step reduces to one tridiagonal solve per species
//! per time step; the Thomas algorithm does it in O(N).

use crate::error::ElectrochemError;

/// A tridiagonal system `A·x = d` with diagonals `(lower, main, upper)`.
///
/// # Example
///
/// ```
/// use bios_electrochem::Tridiagonal;
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// // [2 1 0] [x0]   [3]
/// // [1 2 1] [x1] = [4]   → x = [1, 1, 1]
/// // [0 1 2] [x2]   [3]
/// let sys = Tridiagonal::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0])?;
/// let x = sys.solve(&[3.0, 4.0, 3.0])?;
/// for v in x {
///     assert!((v - 1.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonal {
    lower: Vec<f64>,
    main: Vec<f64>,
    upper: Vec<f64>,
    // Precomputed LU-style factorization for repeated solves.
    factor_main: Vec<f64>,
    factor_lower: Vec<f64>,
}

impl Tridiagonal {
    /// Builds (and factorizes) the system from its three diagonals.
    ///
    /// `main` has length `n`; `lower` and `upper` have length `n - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] on mismatched diagonal
    /// lengths or non-finite entries, and
    /// [`ElectrochemError::SingularSystem`] if a pivot vanishes — including
    /// pivots that survive the naive `!= 0` test but are pure cancellation
    /// noise (e.g. `main = [1, 1 + 4ε]` with unit off-diagonals factors to a
    /// ~1e-16 pivot whose "solution" is garbage amplified by ~1e16).
    pub fn new(lower: Vec<f64>, main: Vec<f64>, upper: Vec<f64>) -> Result<Self, ElectrochemError> {
        let n = main.len();
        if n == 0 {
            return Err(ElectrochemError::invalid("main", "system must be nonempty"));
        }
        if lower.len() != n - 1 || upper.len() != n - 1 {
            return Err(ElectrochemError::invalid(
                "lower/upper",
                format!(
                    "off-diagonals must have length {} (got {} and {})",
                    n - 1,
                    lower.len(),
                    upper.len()
                ),
            ));
        }
        if lower
            .iter()
            .chain(main.iter())
            .chain(upper.iter())
            .any(|v| !v.is_finite())
        {
            return Err(ElectrochemError::invalid(
                "diagonals",
                "entries must be finite",
            ));
        }
        // A factored pivot smaller than this, relative to the operands whose
        // subtraction produced it, is catastrophic-cancellation noise: every
        // significant bit of `main[i]` was annihilated by `m·upper[i-1]` and
        // the residue is rounding error, so a solve through it returns
        // garbage scaled by ~1/pivot. The diffusion operators this solver
        // exists for are strictly diagonally dominant (pivot ≥ row scale),
        // so the threshold is unreachable for any well-posed system.
        const PIVOT_RTOL: f64 = 1e-12;
        // Factorize once: forward elimination multipliers.
        let mut factor_main = main.clone();
        let mut factor_lower = vec![0.0; n.saturating_sub(1)];
        for i in 1..n {
            let pivot = factor_main[i - 1];
            if pivot.abs() < 1e-300 {
                return Err(ElectrochemError::SingularSystem);
            }
            let m = lower[i - 1] / pivot;
            let correction = m * upper[i - 1];
            let next = main[i] - correction;
            if !next.is_finite() || next.abs() < PIVOT_RTOL * main[i].abs().max(correction.abs()) {
                return Err(ElectrochemError::SingularSystem);
            }
            factor_lower[i - 1] = m;
            factor_main[i] = next;
        }
        if factor_main[n - 1].abs() < 1e-300 {
            return Err(ElectrochemError::SingularSystem);
        }
        Ok(Self {
            lower,
            main,
            upper,
            factor_main,
            factor_lower,
        })
    }

    /// Dimension of the system.
    pub fn len(&self) -> usize {
        self.main.len()
    }

    /// Whether the system is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.main.is_empty()
    }

    /// Solves `A·x = d` using the precomputed factorization.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] if `d` has the wrong
    /// length.
    pub fn solve(&self, d: &[f64]) -> Result<Vec<f64>, ElectrochemError> {
        let n = self.len();
        if d.len() != n {
            return Err(ElectrochemError::invalid(
                "d",
                format!("right-hand side must have length {n} (got {})", d.len()),
            ));
        }
        let mut x = d.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves in place, reusing the caller's buffer (hot path of the
    /// diffusion stepper).
    ///
    /// # Panics
    ///
    /// Panics if `d` has the wrong length.
    pub fn solve_in_place(&self, d: &mut [f64]) {
        let n = self.len();
        assert_eq!(d.len(), n, "right-hand side length mismatch");
        // Forward elimination with the precomputed multipliers. The running
        // `prev` value and lockstep iterators let the optimizer elide every
        // per-element bounds check on this hot path; the arithmetic (and
        // therefore the result, bit for bit) is unchanged.
        let mut prev = d[0];
        for (di, m) in d[1..].iter_mut().zip(&self.factor_lower) {
            *di -= m * prev;
            prev = *di;
        }
        // Back substitution, same treatment.
        let (head, last) = d.split_at_mut(n - 1);
        last[0] /= self.factor_main[n - 1];
        let mut next = last[0];
        for ((di, u), fm) in head
            .iter_mut()
            .rev()
            .zip(self.upper.iter().rev())
            .zip(self.factor_main[..n - 1].iter().rev())
        {
            *di = (*di - u * next) / fm;
            next = *di;
        }
    }

    /// Solves two independent systems of the same size in one interleaved
    /// sweep: `self·x = d` and `other·y = e`, with the right-hand sides
    /// assembled on the fly as `d_i = (a_i·w_i)/s` and `e_i = (b_i·w_i)/s`
    /// on rows `0..n−1` and `d_{n−1} = last[0]`, `e_{n−1} = last[1]` on the
    /// last row — the backward-Euler right-hand side of two species sharing
    /// a grid with Dirichlet far boundaries. Solutions land in `out`.
    ///
    /// Each Thomas pass is one serial dependency chain per system, so a
    /// single solve is bound by the latency of that chain. Advancing row
    /// `i` of both systems in the same iteration lets the core overlap the
    /// two chains, and folding the assembly into the forward pass runs its
    /// divides beside the chains instead of in a loop of their own. Per
    /// system every operation is the one
    /// [`Self::solve_in_place`] performs on the assembled right-hand side,
    /// in the same order, so each solution is bit-identical to a separate
    /// assembly and solve.
    ///
    /// # Panics
    ///
    /// Panics if the systems differ in size, if `out` slices do not have
    /// length `n`, or if `src` or `w` are shorter than `n − 1`.
    pub(crate) fn solve_pair_scaled(
        &self,
        other: &Self,
        src: [&[f64]; 2],
        w: &[f64],
        s: f64,
        last: [f64; 2],
        out: [&mut [f64]; 2],
    ) {
        let n = self.len();
        assert_eq!(other.len(), n, "paired systems differ in size");
        let [a, b] = src;
        let [x, y] = out;
        assert_eq!(x.len(), n, "first solution length mismatch");
        assert_eq!(y.len(), n, "second solution length mismatch");
        // Row m = n−1 holds the boundary value; rows 0..m are assembled.
        let m = n - 1;
        let (xh, xl) = x.split_at_mut(m);
        let (yh, yl) = y.split_at_mut(m);
        let (mut na, mut nb) = (last[0], last[1]);
        if m > 0 {
            // Forward elimination with the running values kept in
            // registers and the lockstep iterators eliding bounds checks.
            let (mut pa, mut pb) = (a[0] * w[0] / s, b[0] * w[0] / s);
            xh[0] = pa;
            yh[0] = pb;
            for ((((xi, yi), (ai, bi)), wi), (ma, mb)) in xh[1..]
                .iter_mut()
                .zip(&mut yh[1..])
                .zip(a[1..m].iter().zip(&b[1..m]))
                .zip(&w[1..m])
                .zip(self.factor_lower.iter().zip(&other.factor_lower))
            {
                pa = ai * wi / s - ma * pa;
                pb = bi * wi / s - mb * pb;
                *xi = pa;
                *yi = pb;
            }
            na -= self.factor_lower[m - 1] * pa;
            nb -= other.factor_lower[m - 1] * pb;
        }
        // Back substitution, same treatment.
        na /= self.factor_main[m];
        nb /= other.factor_main[m];
        xl[0] = na;
        yl[0] = nb;
        for (((xi, yi), (ua, ub)), (fa, fb)) in xh
            .iter_mut()
            .rev()
            .zip(yh.iter_mut().rev())
            .zip(self.upper.iter().rev().zip(other.upper.iter().rev()))
            .zip(
                self.factor_main[..m]
                    .iter()
                    .rev()
                    .zip(other.factor_main[..m].iter().rev()),
            )
        {
            na = (*xi - ua * na) / fa;
            nb = (*yi - ub * nb) / fb;
            *xi = na;
            *yi = nb;
        }
    }

    /// Solves `A·X = D` for `batch` right-hand sides with one sweep.
    ///
    /// `d` is a node-major `[node × lane]` plane: `d[i * batch + b]` holds
    /// lane `b`'s value at node `i`, so all lanes of a node are contiguous
    /// and the inner lane loops are straight-line, unit-stride, and
    /// autovectorizable. Per lane the arithmetic is exactly the operation
    /// sequence of [`Self::solve_in_place`] (same multiplies, subtracts, and
    /// divides, in the same order), so lane `b` of the batched result is
    /// bit-identical to a scalar solve of lane `b` alone — batching shares
    /// the factorization sweep across lanes without reassociating anything.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `d.len() != self.len() * batch`.
    pub fn solve_batch_in_place(&self, d: &mut [f64], batch: usize) {
        assert!(batch > 0, "batch must be nonzero");
        let n = self.len();
        assert_eq!(d.len(), n * batch, "right-hand side plane size mismatch");
        if batch == 1 {
            return self.solve_in_place(d);
        }
        // Forward elimination: row i -= m[i-1] · row (i-1), lane-wise.
        for i in 1..n {
            let m = self.factor_lower[i - 1];
            let (head, tail) = d.split_at_mut(i * batch);
            let prev = &head[(i - 1) * batch..];
            let cur = &mut tail[..batch];
            for (x, p) in cur.iter_mut().zip(prev) {
                *x -= m * p;
            }
        }
        // Back substitution. Division (not multiplication by a reciprocal)
        // keeps every lane bit-identical to the scalar path.
        let fm_last = self.factor_main[n - 1];
        for x in &mut d[(n - 1) * batch..] {
            *x /= fm_last;
        }
        for i in (0..n - 1).rev() {
            let u = self.upper[i];
            let fm = self.factor_main[i];
            let (head, tail) = d.split_at_mut((i + 1) * batch);
            let cur = &mut head[i * batch..];
            let next = &tail[..batch];
            for (x, nx) in cur.iter_mut().zip(next) {
                *x = (*x - u * nx) / fm;
            }
        }
    }

    /// Computes `A·x` (for residual checks and tests).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let n = self.len();
        assert_eq!(x.len(), n, "vector length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = self.main[i] * x[i];
            if i > 0 {
                v += self.lower[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                v += self.upper[i] * x[i + 1];
            }
            y[i] = v;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let sys = Tridiagonal::new(vec![0.0; 4], vec![1.0; 5], vec![0.0; 4]).expect("valid");
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = sys.solve(&d).expect("solve");
        assert_eq!(x, d.to_vec());
    }

    #[test]
    fn solves_known_system() {
        let sys =
            Tridiagonal::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0]).expect("valid");
        let x = sys.solve(&[3.0, 4.0, 3.0]).expect("solve");
        for v in &x {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_then_solve_round_trips() {
        // Diagonally dominant random-ish system.
        let n = 64;
        let lower: Vec<f64> = (0..n - 1).map(|i| -0.3 - 0.001 * i as f64).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -0.4 + 0.002 * i as f64).collect();
        let main: Vec<f64> = (0..n).map(|i| 2.0 + 0.01 * i as f64).collect();
        let sys = Tridiagonal::new(lower, main, upper).expect("valid");
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let d = sys.apply(&x_true);
        let x = sys.solve(&d).expect("solve");
        for (a, b) in x.iter().zip(x_true.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_mismatched_lengths() {
        assert!(Tridiagonal::new(vec![1.0], vec![1.0, 1.0, 1.0], vec![1.0, 1.0]).is_err());
        assert!(Tridiagonal::new(vec![], vec![], vec![]).is_err());
        let sys = Tridiagonal::new(vec![1.0], vec![2.0, 2.0], vec![1.0]).expect("valid");
        assert!(sys.solve(&[1.0]).is_err());
    }

    #[test]
    fn detects_singularity() {
        // First pivot zero.
        assert!(matches!(
            Tridiagonal::new(vec![1.0], vec![0.0, 1.0], vec![1.0]),
            Err(ElectrochemError::SingularSystem)
        ));
        // Elimination produces a zero pivot: [[1,1],[1,1]].
        assert!(matches!(
            Tridiagonal::new(vec![1.0], vec![1.0, 1.0], vec![1.0]),
            Err(ElectrochemError::SingularSystem)
        ));
    }

    #[test]
    fn detects_cancellation_singularity() {
        // [[1, 1], [1, 1 + 4ε]] is numerically singular: elimination leaves
        // factor_main[1] ≈ 4.4e-16, pure rounding residue. The old absolute
        // 1e-300 check accepted it and "solved" through the noise pivot,
        // returning values amplified by ~1e16.
        let eps = 4.0 * f64::EPSILON;
        assert!(matches!(
            Tridiagonal::new(vec![1.0], vec![1.0, 1.0 + eps], vec![1.0]),
            Err(ElectrochemError::SingularSystem)
        ));
        // Same shape at a different scale — the check is relative.
        assert!(matches!(
            Tridiagonal::new(vec![1e8], vec![1e8, 1e8 * (1.0 + eps)], vec![1e8]),
            Err(ElectrochemError::SingularSystem)
        ));
        // A well-separated pivot of the same magnitude is still accepted.
        assert!(Tridiagonal::new(vec![1.0], vec![1.0, 1.5], vec![1.0]).is_ok());
    }

    #[test]
    fn rejects_non_finite_entries() {
        assert!(Tridiagonal::new(vec![1.0], vec![f64::NAN, 2.0], vec![1.0]).is_err());
        assert!(Tridiagonal::new(vec![f64::INFINITY], vec![2.0, 2.0], vec![1.0]).is_err());
    }

    #[test]
    fn batch_solve_matches_scalar_bit_for_bit() {
        let n = 37;
        let lower: Vec<f64> = (0..n - 1).map(|i| -0.3 - 0.001 * i as f64).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -0.4 + 0.002 * i as f64).collect();
        let main: Vec<f64> = (0..n).map(|i| 2.0 + 0.01 * i as f64).collect();
        let sys = Tridiagonal::new(lower, main, upper).expect("valid");
        let batch = 7;
        // Distinct right-hand side per lane.
        let mut plane = vec![0.0; n * batch];
        let mut lanes: Vec<Vec<f64>> = (0..batch)
            .map(|b| {
                (0..n)
                    .map(|i| ((i * batch + b) as f64 * 0.61).sin() + 0.1 * b as f64)
                    .collect()
            })
            .collect();
        for i in 0..n {
            for (b, lane) in lanes.iter().enumerate() {
                plane[i * batch + b] = lane[i];
            }
        }
        sys.solve_batch_in_place(&mut plane, batch);
        for lane in &mut lanes {
            sys.solve_in_place(lane);
        }
        for i in 0..n {
            for (b, lane) in lanes.iter().enumerate() {
                assert_eq!(
                    plane[i * batch + b].to_bits(),
                    lane[i].to_bits(),
                    "node {i} lane {b}"
                );
            }
        }
    }

    #[test]
    fn batch_of_one_matches_scalar() {
        let sys =
            Tridiagonal::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0]).expect("valid");
        let mut a = vec![3.0, 4.0, 3.0];
        let mut b = a.clone();
        sys.solve_in_place(&mut a);
        sys.solve_batch_in_place(&mut b, 1);
        assert_eq!(a, b);
    }

    /// A diagonally dominant system of size `n`, varied by `k`.
    fn dominant(n: usize, k: f64) -> Tridiagonal {
        let lower = (0..n - 1).map(|i| -0.3 - k * 0.001 * i as f64).collect();
        let upper = (0..n - 1).map(|i| -0.4 + k * 0.002 * i as f64).collect();
        let main = (0..n).map(|i| 2.0 + k * 0.01 * i as f64).collect();
        Tridiagonal::new(lower, main, upper).expect("valid")
    }

    #[test]
    fn pair_sweep_matches_two_scalar_solves_bit_for_bit() {
        for n in [1, 2, 3, 48] {
            let (p, q) = (dominant(n, 1.0), dominant(n, 2.7));
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() + 1.5).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos() * 1e-6).collect();
            let w: Vec<f64> = (0..n).map(|i| 1e-3 * 1.1f64.powi(i as i32)).collect();
            let (s, last) = (0.007, [1.25, 3e-7]);
            // Reference: assemble each right-hand side, then solve alone.
            let assemble = |c: &[f64], last: f64| -> Vec<f64> {
                let mut d: Vec<f64> = c.iter().zip(&w).map(|(c, w)| c * w / s).collect();
                d[n - 1] = last;
                d
            };
            let mut da = assemble(&a, last[0]);
            let mut db = assemble(&b, last[1]);
            p.solve_in_place(&mut da);
            q.solve_in_place(&mut db);
            let (mut x, mut y) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            p.solve_pair_scaled(&q, [&a, &b], &w, s, last, [&mut x, &mut y]);
            for i in 0..n {
                assert_eq!(x[i].to_bits(), da[i].to_bits(), "n {n} first, node {i}");
                assert_eq!(y[i].to_bits(), db[i].to_bits(), "n {n} second, node {i}");
            }
        }
    }

    #[test]
    fn single_element_system() {
        let sys = Tridiagonal::new(vec![], vec![4.0], vec![]).expect("valid");
        let x = sys.solve(&[8.0]).expect("solve");
        assert_eq!(x, vec![2.0]);
        assert_eq!(sys.len(), 1);
        assert!(!sys.is_empty());
    }
}
