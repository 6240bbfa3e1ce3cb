//! Spatial grids for the 1-D diffusion solver.
//!
//! Concentration gradients are steepest at the electrode surface, so the
//! default grid expands geometrically away from it (Feldberg-style): fine
//! where the physics happens, coarse in the bulk.

use crate::error::ElectrochemError;
use bios_units::{Centimeters, DiffusionCoefficient, Seconds};

/// A 1-D spatial grid normal to the electrode, `x[0] = 0` at the surface.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Grid {
    x: Vec<f64>, // node positions in cm, strictly increasing
}

impl Grid {
    /// A uniform grid of `n` nodes spanning `[0, length]`.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] for non-positive length
    /// and [`ElectrochemError::GridTooCoarse`] for fewer than 8 nodes.
    pub fn uniform(length: Centimeters, n: usize) -> Result<Self, ElectrochemError> {
        let length_cm = length.value();
        if length_cm <= 0.0 || !length_cm.is_finite() {
            return Err(ElectrochemError::invalid(
                "length",
                "must be positive and finite",
            ));
        }
        if n < 8 {
            return Err(ElectrochemError::GridTooCoarse {
                nodes: n,
                minimum: 8,
            });
        }
        let dx = length_cm / (n - 1) as f64;
        Ok(Self {
            x: (0..n).map(|i| i as f64 * dx).collect(),
        })
    }

    /// A geometrically expanding grid: spacing starts at `first_dx` and
    /// grows by `gamma` per interval until `length` is covered.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] for non-positive
    /// `first_dx`/`length` or `gamma < 1`.
    pub fn expanding(
        first_dx: Centimeters,
        gamma: f64,
        length: Centimeters,
    ) -> Result<Self, ElectrochemError> {
        let first_dx_cm = first_dx.value();
        let length_cm = length.value();
        if first_dx_cm <= 0.0 || !first_dx_cm.is_finite() {
            return Err(ElectrochemError::invalid(
                "first_dx",
                "must be positive and finite",
            ));
        }
        if length_cm <= first_dx_cm {
            return Err(ElectrochemError::invalid(
                "length",
                "must exceed the first spacing",
            ));
        }
        if gamma < 1.0 || !gamma.is_finite() {
            return Err(ElectrochemError::invalid("gamma", "must be at least 1"));
        }
        let mut x = vec![0.0];
        let mut last = 0.0;
        let mut dx = first_dx_cm;
        while last < length_cm {
            // Same accumulation as `x.last() + dx`, operation for
            // operation, without the panic path.
            last += dx;
            x.push(last);
            dx *= gamma;
        }
        Ok(Self { x })
    }

    /// Builds a grid sized for an experiment of duration `t_total` on a
    /// species with diffusion coefficient `d`, resolving time step `dt`.
    ///
    /// The domain extends 6 diffusion lengths (`6·√(D·t_total)`), far enough
    /// that the bulk boundary never feels the electrode. The first spacing is
    /// half of `√(D·dt)`, which resolves the per-step diffusion layer.
    /// Expansion uses [`Self::DEFAULT_GAMMA`]; see
    /// [`Self::for_experiment_with`] for coarser trade-offs.
    ///
    /// # Errors
    ///
    /// Propagates construction errors for degenerate inputs.
    pub fn for_experiment(
        d: DiffusionCoefficient,
        t_total: Seconds,
        dt: Seconds,
    ) -> Result<Self, ElectrochemError> {
        Self::for_experiment_with(d, t_total, dt, Self::DEFAULT_GAMMA)
    }

    /// Default geometric expansion ratio of [`Self::for_experiment`].
    pub const DEFAULT_GAMMA: f64 = 1.05;

    /// [`Self::for_experiment`] with an explicit expansion ratio `gamma`.
    ///
    /// The first spacing (which sets surface resolution, and therefore flux
    /// accuracy) and the domain length are unchanged; `gamma` only controls
    /// how fast spacing grows toward the bulk. Because an implicit
    /// backward-Euler step has no stability limit, a steeper ratio trades a
    /// little far-field smoothness for a much smaller system: at the platform
    /// operating point, `gamma = 1.4` covers the same domain with ~12× fewer
    /// nodes than a uniform grid at the surface spacing (and ~3× fewer than
    /// the 1.05 default) while Cottrell currents stay within a few percent.
    ///
    /// # Errors
    ///
    /// Propagates construction errors for degenerate inputs, including
    /// `gamma < 1`.
    pub fn for_experiment_with(
        d: DiffusionCoefficient,
        t_total: Seconds,
        dt: Seconds,
        gamma: f64,
    ) -> Result<Self, ElectrochemError> {
        if d.value() <= 0.0 {
            return Err(ElectrochemError::invalid("d", "must be positive"));
        }
        if t_total.value() <= 0.0 || dt.value() <= 0.0 {
            return Err(ElectrochemError::invalid("t", "durations must be positive"));
        }
        let length = 6.0 * (d.value() * t_total.value()).sqrt();
        let first_dx = 0.5 * (d.value() * dt.value()).sqrt();
        Self::expanding(
            Centimeters::new(first_dx.min(length / 16.0)),
            gamma,
            Centimeters::new(length),
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the grid is empty (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Spacing `x[i+1] - x[i]` in cm.
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` is out of bounds.
    pub(crate) fn spacing(&self, i: usize) -> f64 {
        self.x[i + 1] - self.x[i]
    }

    /// Total domain length in cm (0 for the empty grid, which no
    /// constructor produces).
    pub fn length(&self) -> f64 {
        self.x.last().copied().unwrap_or(0.0)
    }

    /// Finite-volume control width of node `i` (half-cells at both ends).
    pub(crate) fn control_width(&self, i: usize) -> f64 {
        let n = self.x.len();
        if i == 0 {
            (self.x[1] - self.x[0]) / 2.0
        } else if i == n - 1 {
            (self.x[n - 1] - self.x[n - 2]) / 2.0
        } else {
            (self.x[i + 1] - self.x[i - 1]) / 2.0
        }
    }

    /// Integrates a nodal field over the domain (mol/cm³ → mol/cm²).
    ///
    /// # Panics
    ///
    /// Panics if `field` does not match the grid length.
    pub(crate) fn integrate(&self, field: &[f64]) -> f64 {
        assert_eq!(field.len(), self.len(), "field length mismatch");
        field
            .iter()
            .enumerate()
            .map(|(i, c)| c * self.control_width(i))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spacing() {
        let g = Grid::uniform(Centimeters::new(1.0), 11).expect("valid");
        assert_eq!(g.len(), 11);
        assert!((g.spacing(0) - 0.1).abs() < 1e-12);
        assert!((g.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expanding_grows_geometrically() {
        let g = Grid::expanding(Centimeters::new(0.01), 1.5, Centimeters::new(1.0)).expect("valid");
        assert!(g.len() > 3);
        let r = g.spacing(1) / g.spacing(0);
        assert!((r - 1.5).abs() < 1e-12);
        assert!(g.length() >= 1.0);
        // Strictly increasing positions.
        for w in g.x.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn experiment_grid_spans_diffusion_layer() {
        let d = DiffusionCoefficient::new(1e-5);
        let g = Grid::for_experiment(d, Seconds::new(100.0), Seconds::new(0.05)).expect("valid");
        let expected = 6.0 * (1e-5f64 * 100.0).sqrt();
        assert!(g.length() >= expected);
        // First spacing resolves the per-step layer.
        assert!(g.spacing(0) <= (1e-5f64 * 0.05).sqrt());
        // Expanding grid keeps the node count modest.
        assert!(g.len() < 400, "got {} nodes", g.len());
    }

    #[test]
    fn default_gamma_delegation_is_bit_identical() {
        let d = DiffusionCoefficient::new(6.7e-6);
        let t = Seconds::new(0.5);
        let dt = Seconds::new(0.0025);
        let a = Grid::for_experiment(d, t, dt).expect("grid");
        let b = Grid::for_experiment_with(d, t, dt, Grid::DEFAULT_GAMMA).expect("grid");
        assert_eq!(a, b);
    }

    #[test]
    fn coarse_gamma_cuts_node_count_sharply() {
        let d = DiffusionCoefficient::new(6.7e-6);
        let t = Seconds::new(0.5);
        let dt = Seconds::new(0.0025);
        let standard = Grid::for_experiment(d, t, dt).expect("grid");
        let coarse = Grid::for_experiment_with(d, t, dt, 1.4).expect("grid");
        // Same resolution where it matters and same covered domain…
        assert_eq!(coarse.spacing(0).to_bits(), standard.spacing(0).to_bits());
        assert!(coarse.length() >= 6.0 * (6.7e-6f64 * 0.5).sqrt());
        // …with roughly 3× fewer nodes than the 1.05 default, and an order
        // of magnitude fewer than a uniform grid at the surface spacing.
        assert!(
            coarse.len() * 3 <= standard.len(),
            "coarse {} vs standard {}",
            coarse.len(),
            standard.len()
        );
        let uniform_equivalent = (standard.length() / standard.spacing(0)).ceil() as usize + 1;
        assert!(
            coarse.len() * 10 <= uniform_equivalent,
            "coarse {} vs uniform-equivalent {}",
            coarse.len(),
            uniform_equivalent
        );
    }

    #[test]
    fn control_widths_partition_domain() {
        let g = Grid::expanding(Centimeters::new(0.01), 1.3, Centimeters::new(0.5)).expect("valid");
        let total: f64 = (0..g.len()).map(|i| g.control_width(i)).sum();
        assert!((total - g.length()).abs() < 1e-12);
    }

    #[test]
    fn integrate_constant_field() {
        let g = Grid::uniform(Centimeters::new(2.0), 21).expect("valid");
        let field = vec![3.0; 21];
        assert!((g.integrate(&field) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Grid::uniform(Centimeters::new(0.0), 10).is_err());
        assert!(Grid::uniform(Centimeters::new(1.0), 4).is_err());
        assert!(Grid::expanding(Centimeters::new(0.0), 1.1, Centimeters::new(1.0)).is_err());
        assert!(Grid::expanding(Centimeters::new(0.1), 0.9, Centimeters::new(1.0)).is_err());
        assert!(Grid::expanding(Centimeters::new(0.1), 1.1, Centimeters::new(0.05)).is_err());
    }
}
