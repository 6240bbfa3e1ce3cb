//! Experiment drivers: run a potential program against a cell and a redox
//! couple, producing sampled records.

use crate::cell::Cell;
use crate::diffusion::{BatchDiffusionSim, DiffusionSim};
use crate::double_layer::ChargingFilter;
use crate::error::ElectrochemError;
use crate::grid::Grid;
use crate::kinetics::rate_constants;
use crate::species::RedoxCouple;
use crate::trace::{Transient, Voltammogram};
use crate::waveform::PotentialProgram;
use bios_units::{Amps, Molar, Seconds, FARADAY};

/// Options for the simulation drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Time step; `None` uses [`PotentialProgram::suggested_dt`].
    pub dt: Option<Seconds>,
    /// Whether to add the double-layer charging current to the output.
    pub include_charging: bool,
    /// Geometric expansion ratio of the spatial grid; `None` uses
    /// [`Grid::DEFAULT_GAMMA`] (bit-identical to the pre-option behaviour).
    /// Coarser ratios (e.g. `1.4`) shrink the system ~3× at a few-percent
    /// accuracy cost — see [`Grid::for_experiment_with`].
    pub grid_gamma: Option<f64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            dt: None,
            include_charging: true,
            grid_gamma: None,
        }
    }
}

/// The time discretization both drivers step on.
struct TimeGrid {
    dt: Seconds,
    duration: Seconds,
    steps: usize,
    grid: Grid,
}

/// Resolves the step (`options.dt`, else the program's suggestion), the
/// step count, and a spatial grid sized for the faster-diffusing species
/// over the whole program.
fn time_grid(
    couple: &RedoxCouple,
    program: &PotentialProgram,
    options: SimOptions,
) -> Result<TimeGrid, ElectrochemError> {
    let dt = options.dt.unwrap_or_else(|| program.suggested_dt());
    if dt.value() <= 0.0 {
        return Err(ElectrochemError::invalid("dt", "must be positive"));
    }
    let duration = program.duration();
    let steps = (duration.value() / dt.value()).round() as usize;
    if steps == 0 {
        return Err(ElectrochemError::EmptyProgram);
    }
    let d_max = couple
        .diffusion_ox()
        .value()
        .max(couple.diffusion_red().value());
    let grid = Grid::for_experiment_with(
        bios_units::DiffusionCoefficient::new(d_max),
        duration,
        dt,
        options.grid_gamma.unwrap_or(Grid::DEFAULT_GAMMA),
    )?;
    Ok(TimeGrid {
        dt,
        duration,
        steps,
        grid,
    })
}

/// Shared stepping core for both drivers.
///
/// Sign convention: the diffusion flux is positive for net *reduction*
/// (`O` consumed); the returned current follows IUPAC (anodic positive), so
/// `i_faradaic = −n·F·A·flux`.
fn run<F: FnMut(Seconds, bios_units::Volts, Amps)>(
    cell: &Cell,
    couple: &RedoxCouple,
    bulk_ox: Molar,
    bulk_red: Molar,
    program: &PotentialProgram,
    options: SimOptions,
    mut record: F,
) -> Result<(), ElectrochemError> {
    program.validate()?;
    if bulk_ox.value() < 0.0 || bulk_red.value() < 0.0 {
        return Err(ElectrochemError::invalid(
            "bulk concentration",
            "must be non-negative",
        ));
    }
    let TimeGrid {
        dt,
        duration,
        steps,
        grid,
    } = time_grid(couple, program, options)?;
    let mut sim = DiffusionSim::new(
        grid,
        couple.diffusion_ox(),
        couple.diffusion_red(),
        bulk_ox.to_moles_per_cm3(),
        bulk_red.to_moles_per_cm3(),
        dt,
    )?;
    let area = cell.working().active_area();
    let kinetic_factor = cell.working().kinetic_factor();
    let n = couple.electrons() as f64;
    let mut charging = ChargingFilter::new(cell, program.potential_at(Seconds::ZERO), dt)?;

    // Record the initial rest point.
    record(
        Seconds::ZERO,
        program.potential_at(Seconds::ZERO),
        Amps::ZERO,
    );
    for k in 1..=steps {
        let t = Seconds::new((k as f64 * dt.value()).min(duration.value()));
        let e = program.potential_at(t);
        let (kf, kb) = rate_constants(couple, e, cell.temperature(), kinetic_factor);
        let flux = sim.step_with_rate_constants(kf, kb);
        let i_far = Amps::new(-n * FARADAY * area.value() * flux);
        let i_c = if options.include_charging {
            charging.step(e)
        } else {
            Amps::ZERO
        };
        record(t, e, i_far + i_c);
    }
    Ok(())
}

/// Simulates a chronoamperometry (or any potential-vs-time) experiment,
/// returning the current transient.
///
/// # Errors
///
/// Returns [`ElectrochemError`] for invalid programs, negative bulk
/// concentrations or degenerate grids.
///
/// # Example
///
/// ```
/// use bios_electrochem::{simulate_chrono, Cell, Electrode, PotentialProgram, RedoxCouple};
/// use bios_units::{Molar, Seconds, Volts};
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// let cell = Cell::builder(Electrode::paper_gold_we()).build()?;
/// let couple = RedoxCouple::ferrocyanide();
/// let program = PotentialProgram::Step {
///     initial: Volts::new(0.5),
///     stepped: Volts::new(-0.2),
///     at: Seconds::new(0.5),
///     duration: Seconds::new(5.0),
/// };
/// let transient = simulate_chrono(&cell, &couple, Molar::from_millimolar(1.0), Molar::ZERO, &program)?;
/// assert!(!transient.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn simulate_chrono(
    cell: &Cell,
    couple: &RedoxCouple,
    bulk_ox: Molar,
    bulk_red: Molar,
    program: &PotentialProgram,
) -> Result<Transient, ElectrochemError> {
    simulate_chrono_with(
        cell,
        couple,
        bulk_ox,
        bulk_red,
        program,
        SimOptions::default(),
    )
}

/// [`simulate_chrono`] with explicit [`SimOptions`].
///
/// # Errors
///
/// See [`simulate_chrono`].
pub fn simulate_chrono_with(
    cell: &Cell,
    couple: &RedoxCouple,
    bulk_ox: Molar,
    bulk_red: Molar,
    program: &PotentialProgram,
    options: SimOptions,
) -> Result<Transient, ElectrochemError> {
    let mut out = Transient::new();
    run(
        cell,
        couple,
        bulk_ox,
        bulk_red,
        program,
        options,
        |t, _e, i| {
            out.push(t, i);
        },
    )?;
    Ok(out)
}

/// Simulates one chronoamperometry program against a whole electrode fleet
/// with a single batched diffusion kernel.
///
/// Every lane shares the `(couple, program, options)` triple — and therefore
/// the grid, time step, and factorized operator — while `cells[b]`,
/// `bulk_ox[b]`, `bulk_red[b]` vary per lane (different electrode areas,
/// kinetic factors, temperatures, concentrations). Each time step performs
/// *one* Thomas sweep per species across the batch via
/// [`BatchDiffusionSim`] instead of one per electrode.
///
/// Lane `b` of the result is bit-identical to
/// [`simulate_chrono_with`]`(cells[b], couple, bulk_ox[b], bulk_red[b],
/// program, options)`: the batched kernel performs the scalar kernel's exact
/// per-lane operation sequence, and everything outside the kernel (rate
/// constants, current conversion, charging filter) is already per-lane. The
/// equivalence proptests and the bench digest gates pin this down.
///
/// # Errors
///
/// Returns [`ElectrochemError::InvalidParameter`] for an empty fleet or
/// mismatched slice lengths, plus everything [`simulate_chrono_with`]
/// rejects.
pub fn simulate_chrono_fleet(
    cells: &[Cell],
    couple: &RedoxCouple,
    bulk_ox: &[Molar],
    bulk_red: &[Molar],
    program: &PotentialProgram,
    options: SimOptions,
) -> Result<Vec<Transient>, ElectrochemError> {
    let lanes = cells.len();
    if lanes == 0 {
        return Err(ElectrochemError::invalid(
            "cells",
            "fleet must contain at least one electrode",
        ));
    }
    if bulk_ox.len() != lanes || bulk_red.len() != lanes {
        return Err(ElectrochemError::invalid(
            "bulk concentrations",
            "must match the fleet size",
        ));
    }
    program.validate()?;
    if bulk_ox
        .iter()
        .chain(bulk_red.iter())
        .any(|c| c.value() < 0.0)
    {
        return Err(ElectrochemError::invalid(
            "bulk concentration",
            "must be non-negative",
        ));
    }
    let TimeGrid {
        dt,
        duration,
        steps,
        grid,
    } = time_grid(couple, program, options)?;
    let bulks: Vec<(bios_units::MolesPerCm3, bios_units::MolesPerCm3)> = bulk_ox
        .iter()
        .zip(bulk_red)
        .map(|(o, r)| (o.to_moles_per_cm3(), r.to_moles_per_cm3()))
        .collect();
    let mut sim = BatchDiffusionSim::new(
        grid,
        couple.diffusion_ox(),
        couple.diffusion_red(),
        &bulks,
        dt,
    )?;
    let areas: Vec<f64> = cells
        .iter()
        .map(|c| c.working().active_area().value())
        .collect();
    let kinetic_factors: Vec<f64> = cells.iter().map(|c| c.working().kinetic_factor()).collect();
    let n = couple.electrons() as f64;
    let e0 = program.potential_at(Seconds::ZERO);
    let mut chargers = cells
        .iter()
        .map(|c| ChargingFilter::new(c, e0, dt))
        .collect::<Result<Vec<_>, _>>()?;

    let mut out = vec![Transient::new(); lanes];
    for tr in &mut out {
        tr.push(Seconds::ZERO, Amps::ZERO);
    }
    let mut rates = vec![(0.0, 0.0); lanes];
    let mut fluxes = vec![0.0; lanes];
    for k in 1..=steps {
        let t = Seconds::new((k as f64 * dt.value()).min(duration.value()));
        // The potential program is shared: evaluated once per step for the
        // whole fleet instead of once per electrode.
        let e = program.potential_at(t);
        for ((rate, cell), kfac) in rates.iter_mut().zip(cells).zip(&kinetic_factors) {
            *rate = rate_constants(couple, e, cell.temperature(), *kfac);
        }
        sim.step_with_rate_constants_into(&rates, &mut fluxes);
        for (b, tr) in out.iter_mut().enumerate() {
            let i_far = Amps::new(-n * FARADAY * areas[b] * fluxes[b]);
            let i_c = if options.include_charging {
                chargers[b].step(e)
            } else {
                Amps::ZERO
            };
            tr.push(t, i_far + i_c);
        }
    }
    Ok(out)
}

/// Simulates a voltammetry experiment (typically a [`PotentialProgram::Cyclic`]
/// sweep) with explicit [`SimOptions`], returning the voltammogram.
///
/// # Errors
///
/// Returns [`ElectrochemError`] for invalid programs, negative bulk
/// concentrations or degenerate grids.
///
/// # Example
///
/// ```
/// use bios_electrochem::{
///     simulate_cv_with, Cell, Electrode, PotentialProgram, RedoxCouple, SimOptions,
/// };
/// use bios_units::{Molar, Volts, VoltsPerSecond};
///
/// # fn main() -> Result<(), bios_electrochem::ElectrochemError> {
/// let cell = Cell::builder(Electrode::paper_gold_we()).build()?;
/// let couple = RedoxCouple::ferrocyanide();
/// let program = PotentialProgram::cyclic_single(
///     Volts::new(0.55),
///     Volts::new(-0.1),
///     VoltsPerSecond::from_millivolts_per_second(50.0),
/// );
/// let bulk = Molar::from_millimolar(1.0);
/// let options = SimOptions::default();
/// let cv = simulate_cv_with(&cell, &couple, bulk, Molar::ZERO, &program, options)?;
/// let (peak_e, peak_i) = cv.min_current().expect("nonempty");
/// assert!(peak_i.value() < 0.0); // a cathodic peak appears
/// assert!(peak_e.value() < couple.formal_potential().value());
/// # Ok(())
/// # }
/// ```
pub fn simulate_cv_with(
    cell: &Cell,
    couple: &RedoxCouple,
    bulk_ox: Molar,
    bulk_red: Molar,
    program: &PotentialProgram,
    options: SimOptions,
) -> Result<Voltammogram, ElectrochemError> {
    let mut out = Voltammogram::new();
    run(
        cell,
        couple,
        bulk_ox,
        bulk_red,
        program,
        options,
        |t, e, i| {
            out.push(t, e, i);
        },
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cottrell::cottrell_current;
    use crate::electrode::Electrode;
    use crate::randles_sevcik::{randles_sevcik_peak, reversible_cathodic_peak_potential};
    use bios_units::{Volts, VoltsPerSecond};

    fn cell() -> Cell {
        Cell::builder(Electrode::paper_gold_we())
            .build()
            .expect("valid")
    }

    #[test]
    fn chrono_step_matches_cottrell() {
        let couple = RedoxCouple::ferrocyanide();
        let bulk = Molar::from_millimolar(1.0);
        let program = PotentialProgram::Step {
            initial: Volts::new(0.6),
            stepped: Volts::new(-0.3), // >500 mV overpotential: diffusion limited
            at: Seconds::ZERO,
            duration: Seconds::new(5.0),
        };
        let options = SimOptions {
            dt: Some(Seconds::from_millis(5.0)),
            include_charging: false,
            grid_gamma: None,
        };
        let tr = simulate_chrono_with(&cell(), &couple, bulk, Molar::ZERO, &program, options)
            .expect("simulation");
        // Compare at t = 1 s and t = 4 s.
        for t in [1.0, 4.0] {
            let sim_i = tr.current_at(Seconds::new(t)).expect("nonempty");
            let analytic = cottrell_current(
                &couple,
                cell().working().active_area(),
                bulk,
                Seconds::new(t),
            );
            // Reduction: simulated current is negative of the analytic magnitude.
            let rel = (sim_i.value() + analytic.value()).abs() / analytic.value();
            assert!(
                rel < 0.03,
                "t={t}: sim {} vs analytic {}",
                sim_i.value(),
                -analytic.value()
            );
        }
    }

    #[test]
    fn cv_reproduces_randles_sevcik() {
        let couple = RedoxCouple::ferrocyanide();
        let bulk = Molar::from_millimolar(1.0);
        let e0 = couple.formal_potential();
        let program = PotentialProgram::cyclic_single(
            e0 + Volts::new(0.3),
            e0 - Volts::new(0.3),
            VoltsPerSecond::from_millivolts_per_second(50.0),
        );
        let options = SimOptions {
            dt: None,
            include_charging: false,
            grid_gamma: None,
        };
        let cv = simulate_cv_with(&cell(), &couple, bulk, Molar::ZERO, &program, options)
            .expect("simulation");
        let (peak_e, peak_i) = cv.min_current().expect("nonempty");
        let analytic = randles_sevcik_peak(
            &couple,
            cell().working().active_area(),
            bulk,
            VoltsPerSecond::from_millivolts_per_second(50.0),
            cell().temperature(),
        );
        let rel = (peak_i.value().abs() - analytic.value()).abs() / analytic.value();
        assert!(
            rel < 0.04,
            "peak {} vs RS {}",
            peak_i.value().abs(),
            analytic.value()
        );
        // Peak potential ≈ E0 − 28.5 mV.
        let expected_e = reversible_cathodic_peak_potential(&couple, cell().temperature());
        assert!(
            (peak_e - expected_e).abs().as_millivolts() < 5.0,
            "peak at {} vs expected {}",
            peak_e,
            expected_e
        );
    }

    #[test]
    fn cv_reverse_scan_shows_anodic_peak() {
        let couple = RedoxCouple::ferrocyanide();
        let e0 = couple.formal_potential();
        let program = PotentialProgram::cyclic_single(
            e0 + Volts::new(0.3),
            e0 - Volts::new(0.3),
            VoltsPerSecond::from_millivolts_per_second(50.0),
        );
        let cv = simulate_cv_with(
            &cell(),
            &couple,
            Molar::from_millimolar(1.0),
            Molar::ZERO,
            &program,
            SimOptions::default(),
        )
        .expect("simulation");
        let (e_an, i_an) = cv.max_current().expect("nonempty");
        assert!(i_an.value() > 0.0, "reverse scan must reoxidize R");
        assert!(e_an.value() > e0.value(), "anodic peak sits above E0");
    }

    #[test]
    fn charging_adds_scan_rate_proportional_background() {
        let couple = RedoxCouple::ferrocyanide();
        // Blank solution: no electroactive species, pure background.
        let program = PotentialProgram::cyclic_single(
            Volts::new(-0.6),
            Volts::new(-0.8),
            VoltsPerSecond::from_millivolts_per_second(20.0),
        );
        let with = simulate_cv_with(
            &cell(),
            &couple,
            Molar::ZERO,
            Molar::ZERO,
            &program,
            SimOptions::default(),
        )
        .expect("simulation");
        // Mid-scan sample on the downward leg: ≈ −Cdl·v.
        let k = with.len() / 4;
        let i = with.current()[k];
        let expected = -cell().double_layer_capacitance().value() * 0.02;
        assert!(
            (i.value() - expected).abs() < 0.2 * expected.abs(),
            "i = {} vs {}",
            i.value(),
            expected
        );
    }

    #[test]
    fn h2o2_oxidation_gives_anodic_current_at_650mv() {
        // The oxidase readout condition (paper Table I): H2O2 as the reduced
        // form, polled at +650 mV.
        let couple = RedoxCouple::hydrogen_peroxide();
        let program = PotentialProgram::Hold {
            potential: Volts::from_millivolts(650.0),
            duration: Seconds::new(20.0),
        };
        let tr = simulate_chrono(
            &cell(),
            &couple,
            Molar::ZERO,
            Molar::from_millimolar(1.0),
            &program,
        )
        .expect("simulation");
        let (_, i_end) = tr.last().expect("nonempty");
        assert!(i_end.value() > 0.0, "oxidation must be anodic-positive");
    }

    #[test]
    fn fleet_matches_scalar_map_bit_for_bit() {
        use crate::electrode::{Electrode, ElectrodeMaterial};
        use bios_units::SquareCentimeters;
        // Heterogeneous fleet: different areas (→ different currents and
        // charging filters) and different concentrations per lane.
        let cells: Vec<Cell> = [0.23, 0.5, 1.0, 2.0, 0.1]
            .iter()
            .map(|mm2| {
                let we = Electrode::new(
                    ElectrodeMaterial::Gold,
                    SquareCentimeters::from_square_millimeters(*mm2),
                )
                .expect("electrode");
                Cell::builder(we).build().expect("cell")
            })
            .collect();
        let bulk_ox: Vec<Molar> = (0..cells.len())
            .map(|b| Molar::from_millimolar(0.2 + 0.3 * b as f64))
            .collect();
        let bulk_red: Vec<Molar> = (0..cells.len())
            .map(|b| Molar::from_millimolar(0.05 * b as f64))
            .collect();
        let couple = RedoxCouple::ferrocyanide();
        let program = PotentialProgram::Step {
            initial: Volts::new(0.5),
            stepped: Volts::new(-0.2),
            at: Seconds::new(0.1),
            duration: Seconds::new(1.0),
        };
        for gamma in [None, Some(1.4)] {
            let options = SimOptions {
                dt: Some(Seconds::from_millis(5.0)),
                include_charging: true,
                grid_gamma: gamma,
            };
            let fleet =
                simulate_chrono_fleet(&cells, &couple, &bulk_ox, &bulk_red, &program, options)
                    .expect("fleet");
            for (b, cell) in cells.iter().enumerate() {
                let scalar =
                    simulate_chrono_with(cell, &couple, bulk_ox[b], bulk_red[b], &program, options)
                        .expect("scalar");
                assert_eq!(fleet[b], scalar, "gamma {gamma:?} lane {b}");
            }
        }
    }

    #[test]
    fn fleet_rejects_mismatched_lanes() {
        let couple = RedoxCouple::ferrocyanide();
        let program = PotentialProgram::Hold {
            potential: Volts::ZERO,
            duration: Seconds::new(1.0),
        };
        assert!(
            simulate_chrono_fleet(&[], &couple, &[], &[], &program, SimOptions::default()).is_err()
        );
        assert!(simulate_chrono_fleet(
            &[cell()],
            &couple,
            &[Molar::ZERO, Molar::ZERO],
            &[Molar::ZERO],
            &program,
            SimOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn coarse_gamma_stays_close_to_default_grid() {
        // The coarse-grid option trades a little accuracy for ~3× fewer
        // nodes; sampled currents must stay within a few percent.
        let couple = RedoxCouple::hydrogen_peroxide();
        let program = PotentialProgram::Hold {
            potential: Volts::from_millivolts(650.0),
            duration: Seconds::new(20.0),
        };
        let run_with = |gamma| {
            let options = SimOptions {
                dt: None,
                include_charging: false,
                grid_gamma: gamma,
            };
            simulate_chrono_with(
                &cell(),
                &couple,
                Molar::ZERO,
                Molar::from_millimolar(1.0),
                &program,
                options,
            )
            .expect("sim")
            .tail_mean(0.1)
            .expect("nonempty")
        };
        let fine = run_with(None);
        let coarse = run_with(Some(1.4));
        let rel = (coarse.value() - fine.value()).abs() / fine.value().abs();
        assert!(rel < 0.03, "coarse-grid deviation {rel}");
    }

    #[test]
    fn rejects_negative_concentrations() {
        let couple = RedoxCouple::ferrocyanide();
        let program = PotentialProgram::Hold {
            potential: Volts::ZERO,
            duration: Seconds::new(1.0),
        };
        assert!(
            simulate_chrono(&cell(), &couple, Molar::new(-1.0), Molar::ZERO, &program).is_err()
        );
    }

    #[test]
    fn mass_transport_limited_plateau_is_concentration_linear() {
        // Double the H2O2 → double the sampled current.
        let couple = RedoxCouple::hydrogen_peroxide();
        let program = PotentialProgram::Hold {
            potential: Volts::from_millivolts(650.0),
            duration: Seconds::new(30.0),
        };
        let i1 = simulate_chrono(
            &cell(),
            &couple,
            Molar::ZERO,
            Molar::from_millimolar(1.0),
            &program,
        )
        .expect("sim")
        .tail_mean(0.1)
        .expect("nonempty");
        let i2 = simulate_chrono(
            &cell(),
            &couple,
            Molar::ZERO,
            Molar::from_millimolar(2.0),
            &program,
        )
        .expect("sim")
        .tail_mean(0.1)
        .expect("nonempty");
        assert!((i2.value() / i1.value() - 2.0).abs() < 0.02);
    }
}
