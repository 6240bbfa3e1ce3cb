//! Implicit 1-D diffusion solver with an electrode flux boundary.
//!
//! Fick's second law is discretized with finite volumes on a (possibly
//! non-uniform) [`Grid`] and stepped with backward Euler, which is
//! unconditionally stable — the cyclic-voltammetry driver can take exactly
//! one step per potential increment regardless of grid fineness.
//!
//! The electrode boundary uses an exact superposition trick: because both
//! the diffusion operator and the Butler–Volmer rate law are *linear in the
//! concentrations* (the rate constants depend only on potential), the new
//! surface concentrations can be written as `base + J·s`, where `base` is
//! the zero-flux solve, `s` the (precomputed) response to a unit surface
//! flux, and `J` the unknown flux. Substituting into the rate law yields a
//! scalar linear equation for `J` — no iteration, no stability limit.

use crate::error::ElectrochemError;
use crate::grid::Grid;
use crate::tridiag::Tridiagonal;
use bios_units::{DiffusionCoefficient, MolesPerCm3, Seconds};

/// Everything about a species field that depends only on `(grid, dt, D)`,
/// not on concentrations: the factorized backward-Euler system, its
/// unit-flux response, and the grid's control widths (hoisted out of the
/// per-step RHS assembly). Each field builds its own once, at construction.
#[derive(Debug, Clone)]
struct Prefactorized {
    /// The factorized backward-Euler operator.
    sys: Tridiagonal,
    /// Response of the field to a unit surface flux over one step.
    unit_flux_response: Vec<f64>,
    /// `Grid::control_width(i)` for every node.
    widths: Vec<f64>,
}

impl Prefactorized {
    /// Assembles the zero-flux backward-Euler RHS for a whole `[node × lane]`
    /// concentration plane and solves it with one batched Thomas sweep,
    /// leaving the zero-flux solutions in `scratch` (same layout). Lane `b`
    /// performs the exact scalar operation sequence (`c·w/dt` assembly, then
    /// the factorized sweep), so each lane is bit-identical to a scalar
    /// `SpeciesField` stepping alone — the factorization is computed once per
    /// batch and amortized across every lane.
    ///
    /// # Panics
    ///
    /// Panics if `bulks` is empty or the plane sizes don't match
    /// `nodes × bulks.len()`.
    fn solve_base_batch(&self, conc: &[f64], scratch: &mut [f64], bulks: &[f64], dt: f64) {
        let n = self.widths.len();
        let batch = bulks.len();
        assert!(batch > 0, "batch must be nonzero");
        assert_eq!(conc.len(), n * batch, "concentration plane size mismatch");
        assert_eq!(scratch.len(), n * batch, "scratch plane size mismatch");
        for (i, w) in self.widths[..n - 1].iter().enumerate() {
            let row = i * batch;
            for (s, c) in scratch[row..row + batch]
                .iter_mut()
                .zip(&conc[row..row + batch])
            {
                *s = c * w / dt;
            }
        }
        scratch[(n - 1) * batch..].copy_from_slice(bulks);
        self.sys.solve_batch_in_place(scratch, batch);
    }

    /// Assembles and factorizes the system for `(grid, d, dt)`.
    fn new(grid: &Grid, d: f64, dt: f64) -> Result<Self, ElectrochemError> {
        let n = grid.len();
        let mut lower = vec![0.0; n - 1];
        let mut main = vec![0.0; n];
        let mut upper = vec![0.0; n - 1];
        // Interior nodes: w_i/dt·c_i - D/h_{i-1}·c_{i-1} - D/h_i·c_{i+1}
        //                 + (D/h_{i-1} + D/h_i)·c_i = w_i/dt·c_i_old
        for i in 1..n - 1 {
            let a = d / grid.spacing(i - 1);
            let g = d / grid.spacing(i);
            let w = grid.control_width(i);
            lower[i - 1] = -a;
            upper[i] = -g;
            main[i] = w / dt + a + g;
        }
        // Surface node 0: flux boundary (flux enters the RHS).
        let g0 = d / grid.spacing(0);
        main[0] = grid.control_width(0) / dt + g0;
        upper[0] = -g0;
        // Far node: Dirichlet at bulk concentration.
        main[n - 1] = 1.0;
        lower[n - 2] = 0.0;
        let sys = Tridiagonal::new(lower, main, upper)?;
        // Unit-flux response: RHS = -1 at node 0 (consumption), 0 elsewhere,
        // homogeneous far boundary.
        let mut rhs = vec![0.0; n];
        rhs[0] = -1.0;
        let unit_flux_response = sys.solve(&rhs)?;
        let widths = (0..n).map(|i| grid.control_width(i)).collect();
        Ok(Self {
            sys,
            unit_flux_response,
            widths,
        })
    }
}

/// One diffusing species on a grid: its concentration field, RHS scratch
/// buffer and the [`Prefactorized`] invariants of its `(grid, dt, D)`.
#[derive(Debug, Clone)]
struct SpeciesField {
    conc: Vec<f64>, // mol/cm³
    pre: Prefactorized,
    scratch: Vec<f64>,
}

impl SpeciesField {
    fn new(grid: &Grid, d: f64, bulk: f64, dt: f64) -> Result<Self, ElectrochemError> {
        if d <= 0.0 || !d.is_finite() {
            return Err(ElectrochemError::invalid(
                "d",
                "must be positive and finite",
            ));
        }
        if bulk < 0.0 || !bulk.is_finite() {
            return Err(ElectrochemError::invalid(
                "bulk",
                "must be non-negative and finite",
            ));
        }
        if dt <= 0.0 || !dt.is_finite() {
            return Err(ElectrochemError::invalid(
                "dt",
                "must be positive and finite",
            ));
        }
        let pre = Prefactorized::new(grid, d, dt)?;
        let n = grid.len();
        Ok(Self {
            conc: vec![bulk; n],
            pre,
            scratch: vec![0.0; n],
        })
    }

    /// Commits `base + flux·response` as the new concentration field.
    fn commit(&mut self, flux: f64) {
        for (c, (b, r)) in self
            .conc
            .iter_mut()
            .zip(self.scratch.iter().zip(self.pre.unit_flux_response.iter()))
        {
            *c = b + flux * r;
        }
    }
}

/// Two-species (`O`/`R`) diffusion field with an electrode reaction boundary.
///
/// Concentrations are in mol/cm³ internally; fluxes in mol/(cm²·s) with
/// positive flux meaning *consumption of `O`* (reduction) at the electrode.
///
/// # Example
///
/// ```
/// use bios_electrochem::{DiffusionSim, Grid};
/// use bios_units::{DiffusionCoefficient, MolesPerCm3, Seconds};
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// let d = DiffusionCoefficient::new(1e-5);
/// let grid = Grid::for_experiment(d, Seconds::new(10.0), Seconds::new(0.01))?;
/// let mut sim = DiffusionSim::new(
///     grid,
///     d,
///     d,
///     MolesPerCm3::new(1e-6), // 1 mM of O
///     MolesPerCm3::ZERO,
///     Seconds::new(0.01),
/// )?;
/// // Diffusion-limited reduction: huge forward rate constant.
/// let flux = sim.step_with_rate_constants(1e6, 0.0);
/// assert!(flux > 0.0);
/// assert!(sim.surface_ox().value() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiffusionSim {
    grid: Grid,
    dt: f64,
    bulk_ox: f64,
    bulk_red: f64,
    ox: SpeciesField,
    red: SpeciesField,
    initial_inventory_ox: f64,
    initial_inventory_red: f64,
}

impl DiffusionSim {
    /// Creates a field with uniform initial concentrations equal to the bulk
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] for non-positive
    /// diffusion coefficients or time step, or negative concentrations.
    pub fn new(
        grid: Grid,
        d_ox: DiffusionCoefficient,
        d_red: DiffusionCoefficient,
        bulk_ox: MolesPerCm3,
        bulk_red: MolesPerCm3,
        dt: Seconds,
    ) -> Result<Self, ElectrochemError> {
        let ox = SpeciesField::new(&grid, d_ox.value(), bulk_ox.value(), dt.value())?;
        let red = SpeciesField::new(&grid, d_red.value(), bulk_red.value(), dt.value())?;
        let initial_inventory_ox = grid.integrate(&ox.conc);
        let initial_inventory_red = grid.integrate(&red.conc);
        Ok(Self {
            grid,
            dt: dt.value(),
            bulk_ox: bulk_ox.value(),
            bulk_red: bulk_red.value(),
            ox,
            red,
            initial_inventory_ox,
            initial_inventory_red,
        })
    }

    /// The time step the field was built for.
    pub fn dt(&self) -> Seconds {
        Seconds::new(self.dt)
    }

    /// The spatial grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Assembles both species' zero-flux RHS and solves them in one
    /// interleaved sweep, leaving the zero-flux solutions in the scratch
    /// buffers. Both species share the grid, so the control widths of `O`'s
    /// prefactorization serve for both.
    fn solve_base(&mut self) {
        let (ox, red) = (&mut self.ox, &mut self.red);
        ox.pre.sys.solve_pair_scaled(
            &red.pre.sys,
            [&ox.conc, &red.conc],
            &ox.pre.widths,
            self.dt,
            [self.bulk_ox, self.bulk_red],
            [&mut ox.scratch, &mut red.scratch],
        );
    }

    /// Advances one step with Butler–Volmer rate constants `kf`, `kb` (cm/s):
    /// surface reaction `flux = kf·[O]₀ − kb·[R]₀`, solved implicitly.
    ///
    /// Returns the reaction flux in mol/(cm²·s); positive = `O` consumed
    /// (net reduction).
    pub fn step_with_rate_constants(&mut self, kf: f64, kb: f64) -> f64 {
        self.solve_base();
        let base_o0 = self.ox.scratch[0];
        let base_r0 = self.red.scratch[0];
        let s_o0 = self.ox.pre.unit_flux_response[0]; // ≤ 0: consumption lowers [O]₀
        let s_r0 = self.red.pre.unit_flux_response[0];
        // J = kf([O]base + J·s_o0) − kb([R]base − J·s_r0)
        let denom = 1.0 - kf * s_o0 - kb * s_r0;
        let flux = (kf * base_o0 - kb * base_r0) / denom;
        self.ox.commit(flux);
        self.red.commit(-flux);
        flux
    }

    /// Surface concentration of the oxidized species.
    pub fn surface_ox(&self) -> MolesPerCm3 {
        MolesPerCm3::new(self.ox.conc[0])
    }

    /// Surface concentration of the reduced species.
    pub fn surface_red(&self) -> MolesPerCm3 {
        MolesPerCm3::new(self.red.conc[0])
    }

    /// Concentration profile of the oxidized species (mol/cm³ per node).
    pub fn profile_ox(&self) -> &[f64] {
        &self.ox.conc
    }

    /// Concentration profile of the reduced species (mol/cm³ per node).
    pub fn profile_red(&self) -> &[f64] {
        &self.red.conc
    }

    /// Relative mass-balance error of the `O + R` inventory.
    ///
    /// The far boundary is held at bulk concentration, so the check is only
    /// meaningful while the depletion layer has not reached the far wall —
    /// which the [`Grid::for_experiment`] sizing guarantees. A well-behaved
    /// run stays below 10⁻³.
    pub fn mass_balance_error(&self) -> f64 {
        let now_o = self.grid.integrate(&self.ox.conc);
        let now_r = self.grid.integrate(&self.red.conc);
        let initial = self.initial_inventory_ox + self.initial_inventory_red;
        // O consumed at the electrode became R (already counted in now_r),
        // so total inventory should be conserved.
        let scale = initial.abs().max(1e-30);
        ((now_o + now_r) - initial).abs() / scale
    }
}

/// One diffusing species across a whole electrode batch, stored as a
/// structure-of-arrays `[node × lane]` plane: `conc[i * batch + b]` is lane
/// `b`'s concentration at node `i`. All lanes of a node are contiguous, so
/// the per-node inner loops of assembly, sweep, and commit are unit-stride
/// and autovectorizable.
#[derive(Debug, Clone)]
struct BatchSpeciesField {
    conc: Vec<f64>, // mol/cm³, [node × lane]
    pre: Prefactorized,
    scratch: Vec<f64>, // [node × lane]
}

impl BatchSpeciesField {
    fn new(grid: &Grid, d: f64, bulks: &[f64], dt: f64) -> Result<Self, ElectrochemError> {
        if d <= 0.0 || !d.is_finite() {
            return Err(ElectrochemError::invalid(
                "d",
                "must be positive and finite",
            ));
        }
        if bulks.iter().any(|b| *b < 0.0 || !b.is_finite()) {
            return Err(ElectrochemError::invalid(
                "bulk",
                "must be non-negative and finite",
            ));
        }
        if dt <= 0.0 || !dt.is_finite() {
            return Err(ElectrochemError::invalid(
                "dt",
                "must be positive and finite",
            ));
        }
        let pre = Prefactorized::new(grid, d, dt)?;
        let n = grid.len();
        let batch = bulks.len();
        let mut conc = vec![0.0; n * batch];
        for row in conc.chunks_exact_mut(batch) {
            row.copy_from_slice(bulks);
        }
        Ok(Self {
            conc,
            pre,
            scratch: vec![0.0; n * batch],
        })
    }

    /// Zero-flux solve for every lane at once; results land in `scratch`.
    fn solve_base(&mut self, dt: f64, bulks: &[f64]) {
        self.pre
            .solve_base_batch(&self.conc, &mut self.scratch, bulks, dt);
    }

    /// Commits `base + (sign·flux_b)·response` per lane. `sign` is ±1.0;
    /// multiplying by it is an exact IEEE sign flip (or identity), so each
    /// lane reproduces the scalar `commit(flux)` / `commit(-flux)` bits.
    fn commit_scaled(&mut self, fluxes: &[f64], sign: f64) {
        let batch = fluxes.len();
        for ((crow, brow), r) in self
            .conc
            .chunks_exact_mut(batch)
            .zip(self.scratch.chunks_exact(batch))
            .zip(self.pre.unit_flux_response.iter())
        {
            for ((c, b), f) in crow.iter_mut().zip(brow).zip(fluxes) {
                *c = b + (sign * f) * r;
            }
        }
    }

    /// Copies lane `b`'s profile out of the strided plane.
    fn lane_profile(&self, batch: usize, lane: usize) -> Vec<f64> {
        self.conc[lane..].iter().step_by(batch).copied().collect()
    }
}

/// A fleet of [`DiffusionSim`]s sharing one `(grid, dt, D)` — the whole batch
/// advances with *one* Thomas sweep per species per step instead of one per
/// electrode.
///
/// Concentration planes are stored node-major (`[node × lane]`), so the sweep
/// streams each node row once and the lane loop vectorizes. Per lane, every
/// operation (RHS assembly, forward elimination, back substitution, flux
/// superposition, inventory bookkeeping) is the *same* floating-point
/// sequence as a standalone [`DiffusionSim`], which makes the batch
/// bit-identical to `batch` scalar sims — the property the equivalence
/// proptests and the bench digests pin down.
///
/// # Example
///
/// ```
/// use bios_electrochem::{BatchDiffusionSim, Grid};
/// use bios_units::{DiffusionCoefficient, MolesPerCm3, Seconds};
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// let d = DiffusionCoefficient::new(1e-5);
/// let grid = Grid::for_experiment(d, Seconds::new(10.0), Seconds::new(0.01))?;
/// let bulks = [
///     (MolesPerCm3::new(1e-6), MolesPerCm3::ZERO),
///     (MolesPerCm3::new(2e-6), MolesPerCm3::ZERO),
/// ];
/// let mut batch = BatchDiffusionSim::new(grid, d, d, &bulks, Seconds::new(0.01))?;
/// let fluxes = batch.step_with_rate_constants(&[(1e6, 0.0), (1e6, 0.0)]);
/// assert!(fluxes[1] > fluxes[0]); // twice the bulk, twice the flux
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchDiffusionSim {
    grid: Grid,
    dt: f64,
    batch: usize,
    bulk_ox: Vec<f64>,
    bulk_red: Vec<f64>,
    ox: BatchSpeciesField,
    red: BatchSpeciesField,
    initial_inventory_ox: Vec<f64>,
    initial_inventory_red: Vec<f64>,
    /// Reused by [`Self::step_with_rate_constants`] so the convenience
    /// entry stays allocation-free per step (H1).
    flux_scratch: Vec<f64>,
}

impl BatchDiffusionSim {
    /// Creates a batch of fields, one lane per `(bulk_ox, bulk_red)` pair,
    /// all starting uniform at their bulk values.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] for an empty batch,
    /// non-positive diffusion coefficients or time step, or negative
    /// concentrations.
    pub fn new(
        grid: Grid,
        d_ox: DiffusionCoefficient,
        d_red: DiffusionCoefficient,
        bulks: &[(MolesPerCm3, MolesPerCm3)],
        dt: Seconds,
    ) -> Result<Self, ElectrochemError> {
        if bulks.is_empty() {
            return Err(ElectrochemError::invalid(
                "bulks",
                "batch must contain at least one lane",
            ));
        }
        let batch = bulks.len();
        let bulk_ox: Vec<f64> = bulks.iter().map(|(o, _)| o.value()).collect();
        let bulk_red: Vec<f64> = bulks.iter().map(|(_, r)| r.value()).collect();
        let ox = BatchSpeciesField::new(&grid, d_ox.value(), &bulk_ox, dt.value())?;
        let red = BatchSpeciesField::new(&grid, d_red.value(), &bulk_red, dt.value())?;
        // Per-lane inventories mirror the scalar constructor: integrate the
        // (uniform) initial profile with the same control-width sum.
        let n = grid.len();
        let initial_inventory_ox = bulk_ox
            .iter()
            .map(|b| grid.integrate(&vec![*b; n]))
            .collect();
        let initial_inventory_red = bulk_red
            .iter()
            .map(|b| grid.integrate(&vec![*b; n]))
            .collect();
        Ok(Self {
            grid,
            dt: dt.value(),
            batch,
            bulk_ox,
            bulk_red,
            ox,
            red,
            initial_inventory_ox,
            initial_inventory_red,
            flux_scratch: vec![0.0; batch],
        })
    }

    /// Number of lanes in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The time step the batch was built for.
    pub fn dt(&self) -> Seconds {
        Seconds::new(self.dt)
    }

    /// The shared spatial grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Advances every lane one step with its own Butler–Volmer rate constants
    /// `(kf, kb)`, writing the per-lane reaction fluxes (mol/(cm²·s),
    /// positive = `O` consumed) into `fluxes`.
    ///
    /// # Panics
    ///
    /// Panics if `rates` or `fluxes` don't match the batch width.
    pub(crate) fn step_with_rate_constants_into(
        &mut self,
        rates: &[(f64, f64)],
        fluxes: &mut [f64],
    ) {
        assert_eq!(rates.len(), self.batch, "rate batch width mismatch");
        assert_eq!(fluxes.len(), self.batch, "flux batch width mismatch");
        self.ox.solve_base(self.dt, &self.bulk_ox);
        self.red.solve_base(self.dt, &self.bulk_red);
        let s_o0 = self.ox.pre.unit_flux_response[0];
        let s_r0 = self.red.pre.unit_flux_response[0];
        for ((f, (kf, kb)), (base_o0, base_r0)) in fluxes.iter_mut().zip(rates).zip(
            self.ox.scratch[..self.batch]
                .iter()
                .zip(&self.red.scratch[..self.batch]),
        ) {
            let denom = 1.0 - kf * s_o0 - kb * s_r0;
            *f = (kf * base_o0 - kb * base_r0) / denom;
        }
        self.ox.commit_scaled(fluxes, 1.0);
        self.red.commit_scaled(fluxes, -1.0);
    }

    /// Advances every lane one step with its own Butler–Volmer rate
    /// constants `(kf, kb)` and returns the per-lane reaction fluxes
    /// (mol/(cm²·s), positive = `O` consumed), lent from a persistent
    /// scratch buffer (allocated once at construction, so stepping through
    /// here stays allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `rates` doesn't match the batch width.
    pub fn step_with_rate_constants(&mut self, rates: &[(f64, f64)]) -> &[f64] {
        let mut fluxes = std::mem::take(&mut self.flux_scratch);
        self.step_with_rate_constants_into(rates, &mut fluxes);
        self.flux_scratch = fluxes;
        &self.flux_scratch
    }

    /// Surface concentration of the oxidized species in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn surface_ox(&self, lane: usize) -> MolesPerCm3 {
        assert!(lane < self.batch, "lane out of bounds");
        MolesPerCm3::new(self.ox.conc[lane])
    }

    /// Surface concentration of the reduced species in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn surface_red(&self, lane: usize) -> MolesPerCm3 {
        assert!(lane < self.batch, "lane out of bounds");
        MolesPerCm3::new(self.red.conc[lane])
    }

    /// Concentration profile of the oxidized species in lane `lane`
    /// (mol/cm³ per node, copied out of the strided plane).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn profile_ox(&self, lane: usize) -> Vec<f64> {
        assert!(lane < self.batch, "lane out of bounds");
        self.ox.lane_profile(self.batch, lane)
    }

    /// Concentration profile of the reduced species in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn profile_red(&self, lane: usize) -> Vec<f64> {
        assert!(lane < self.batch, "lane out of bounds");
        self.red.lane_profile(self.batch, lane)
    }

    /// Relative mass-balance error of lane `lane`'s `O + R` inventory; same
    /// contract as [`DiffusionSim::mass_balance_error`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn mass_balance_error(&self, lane: usize) -> f64 {
        let now_o = self.grid.integrate(&self.profile_ox(lane));
        let now_r = self.grid.integrate(&self.profile_red(lane));
        let initial = self.initial_inventory_ox[lane] + self.initial_inventory_red[lane];
        let scale = initial.abs().max(1e-30);
        ((now_o + now_r) - initial).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::{Volts, FARADAY};

    fn make_sim(bulk_mol_per_cm3: f64, dt: f64, t_total: f64) -> DiffusionSim {
        let d = DiffusionCoefficient::new(1e-5);
        let grid = Grid::for_experiment(d, Seconds::new(t_total), Seconds::new(dt)).expect("grid");
        DiffusionSim::new(
            grid,
            d,
            d,
            MolesPerCm3::new(bulk_mol_per_cm3),
            MolesPerCm3::ZERO,
            Seconds::new(dt),
        )
        .expect("sim")
    }

    #[test]
    fn no_reaction_keeps_field_flat() {
        let mut sim = make_sim(1e-6, 0.01, 1.0);
        for _ in 0..100 {
            let f = sim.step_with_rate_constants(0.0, 0.0);
            assert_eq!(f, 0.0);
        }
        for c in sim.profile_ox() {
            assert!((c - 1e-6).abs() < 1e-18);
        }
        assert!(sim.mass_balance_error() < 1e-12);
    }

    #[test]
    fn diffusion_limited_step_follows_cottrell() {
        // i(t) = n F A C √(D/(π t)); flux(t) = C √(D/(π t)).
        let bulk = 1e-6; // 1 mM
        let dt = 0.001;
        let mut sim = make_sim(bulk, dt, 2.0);
        let d = 1e-5;
        let mut worst_rel = 0.0f64;
        for k in 1..=2000usize {
            let flux = sim.step_with_rate_constants(1e6, 0.0);
            let t = k as f64 * dt;
            // Skip the first few steps where the step singularity dominates.
            if t > 0.05 {
                let analytic = bulk * (d / (core::f64::consts::PI * t)).sqrt();
                let rel = ((flux - analytic) / analytic).abs();
                worst_rel = worst_rel.max(rel);
            }
        }
        assert!(worst_rel < 0.03, "worst Cottrell deviation {worst_rel}");
        assert!(
            sim.mass_balance_error() < 1e-3,
            "mass error {}",
            sim.mass_balance_error()
        );
    }

    #[test]
    fn surface_concentration_tracks_nernst_under_fast_kinetics() {
        // With very fast kinetics, surface concentrations satisfy
        // [O]/[R] = exp(nF(E−E0)/RT). Step to E = E0 → ratio 1.
        let bulk = 1e-6;
        let dt = 0.01;
        let mut sim = make_sim(bulk, dt, 10.0);
        // kf = kb = large ↔ E = E0 for α = 0.5.
        for _ in 0..1000 {
            sim.step_with_rate_constants(1e4, 1e4);
        }
        let ratio = sim.surface_ox().value() / sim.surface_red().value();
        assert!((ratio - 1.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn mass_balance_holds_during_partial_electrolysis() {
        let mut sim = make_sim(1e-6, 0.005, 5.0);
        for _ in 0..1000 {
            sim.step_with_rate_constants(0.05, 0.0);
        }
        assert!(
            sim.mass_balance_error() < 1e-3,
            "mass error {}",
            sim.mass_balance_error()
        );
        // O was consumed, R produced.
        assert!(sim.surface_ox().value() < 1e-6);
        assert!(sim.surface_red().value() > 0.0);
    }

    #[test]
    fn batch_matches_scalar_sims_bit_for_bit() {
        // Distinct coefficients, so each species has its own factorization.
        let d_ox = DiffusionCoefficient::new(6.7e-6);
        let d_red = DiffusionCoefficient::new(3.1e-6);
        let dt = 0.005;
        let grid = Grid::for_experiment(d_ox, Seconds::new(1.0), Seconds::new(dt)).expect("grid");
        let bulks = [
            (MolesPerCm3::new(1e-6), MolesPerCm3::ZERO),
            (MolesPerCm3::new(2.5e-6), MolesPerCm3::new(1e-7)),
            (MolesPerCm3::ZERO, MolesPerCm3::new(5e-7)),
        ];
        let mut batch = BatchDiffusionSim::new(grid.clone(), d_ox, d_red, &bulks, Seconds::new(dt))
            .expect("batch");
        let mut scalars: Vec<DiffusionSim> = bulks
            .iter()
            .map(|(o, r)| {
                DiffusionSim::new(grid.clone(), d_ox, d_red, *o, *r, Seconds::new(dt)).expect("sim")
            })
            .collect();
        // Heterogeneous per-lane kinetics, varying per step.
        for k in 0..50usize {
            let rates: Vec<(f64, f64)> = (0..bulks.len())
                .map(|b| {
                    let kf = 1e-3 * (1.0 + b as f64) * (1.0 + 0.1 * (k % 7) as f64);
                    let kb = 2e-4 * (1.0 + 0.05 * b as f64);
                    (kf, kb)
                })
                .collect();
            let fluxes = batch.step_with_rate_constants(&rates);
            for (b, sim) in scalars.iter_mut().enumerate() {
                let f = sim.step_with_rate_constants(rates[b].0, rates[b].1);
                assert_eq!(f.to_bits(), fluxes[b].to_bits(), "step {k} lane {b}");
            }
        }
        for (b, sim) in scalars.iter().enumerate() {
            assert_eq!(
                batch.surface_ox(b).value().to_bits(),
                sim.surface_ox().value().to_bits()
            );
            let bp = batch.profile_ox(b);
            for (x, y) in bp.iter().zip(sim.profile_ox()) {
                assert_eq!(x.to_bits(), y.to_bits(), "lane {b}");
            }
            let bp = batch.profile_red(b);
            for (x, y) in bp.iter().zip(sim.profile_red()) {
                assert_eq!(x.to_bits(), y.to_bits(), "lane {b}");
            }
            assert_eq!(
                batch.mass_balance_error(b).to_bits(),
                sim.mass_balance_error().to_bits()
            );
        }
    }

    #[test]
    fn batch_rejects_degenerate_inputs() {
        let d = DiffusionCoefficient::new(1e-5);
        let grid = Grid::for_experiment(d, Seconds::new(1.0), Seconds::new(0.01)).expect("grid");
        assert!(BatchDiffusionSim::new(grid.clone(), d, d, &[], Seconds::new(0.01)).is_err());
        assert!(BatchDiffusionSim::new(
            grid,
            d,
            d,
            &[(MolesPerCm3::new(-1.0), MolesPerCm3::ZERO)],
            Seconds::new(0.01),
        )
        .is_err());
    }

    #[test]
    fn flux_to_current_density_conversion_sane() {
        // 1 mM, diffusion-limited at t = 1 s, n = 1:
        // i = F·C·√(D/πt) ≈ 96485·1e-6·1.784e-3 ≈ 0.17 mA/cm².
        let bulk = 1e-6;
        let dt = 0.001;
        let mut sim = make_sim(bulk, dt, 1.5);
        let mut flux_at_1s = 0.0;
        for k in 1..=1000usize {
            flux_at_1s = sim.step_with_rate_constants(1e6, 0.0);
            let _ = k;
        }
        let i = FARADAY * flux_at_1s; // A/cm²
        assert!((i - 1.72e-4).abs() < 1e-5, "i = {i}");
        let _ = Volts::ZERO; // keep the import used in all cfgs
    }
}
