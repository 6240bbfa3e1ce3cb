//! Property-based tests for the electrochemistry engine.

use bios_electrochem::{
    cottrell_current, rate_constants, simulate_chrono_fleet, simulate_chrono_with,
    simulate_cv_with, BatchDiffusionSim, Cell, DiffusionSim, Electrode, ElectrodeMaterial, Grid,
    PotentialProgram, RedoxCouple, SimOptions, Tridiagonal,
};
use bios_units::{
    DiffusionCoefficient, Molar, MolesPerCm3, Seconds, SquareCentimeters, Volts, VoltsPerSecond,
    T_ROOM,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Thomas solver inverts any diagonally dominant system it accepts.
    #[test]
    fn tridiagonal_solver_inverts(
        n in 2usize..64,
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random diagonally dominant system.
        let r = |k: usize| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((k as u64).wrapping_mul(1442695040888963407)) as f64;
            (x / u64::MAX as f64) - 0.5
        };
        let lower: Vec<f64> = (0..n - 1).map(&r).collect();
        let upper: Vec<f64> = (0..n - 1).map(|k| r(k + 1000)).collect();
        let main: Vec<f64> = (0..n)
            .map(|k| {
                let off = lower.get(k.wrapping_sub(1)).map(|v| v.abs()).unwrap_or(0.0)
                    + upper.get(k).map(|v| v.abs()).unwrap_or(0.0);
                off + 1.0 + r(k + 2000).abs()
            })
            .collect();
        let sys = Tridiagonal::new(lower, main, upper).expect("diagonally dominant");
        let x_true: Vec<f64> = (0..n).map(|k| r(k + 3000) * 10.0).collect();
        let d = sys.apply(&x_true);
        let x = sys.solve(&d).expect("solve");
        for (a, b) in x.iter().zip(x_true.iter()) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    /// Mass is conserved by the diffusion stepper for any (kf, kb) program.
    #[test]
    fn diffusion_conserves_mass(
        kf_exp in -6.0f64..2.0,
        kb_exp in -6.0f64..2.0,
        bulk_mm in 0.1f64..10.0,
        steps in 10usize..200,
    ) {
        let d = DiffusionCoefficient::new(1e-5);
        let dt = Seconds::new(0.01);
        let grid = Grid::for_experiment(d, Seconds::new(steps as f64 * 0.01 + 1.0), dt).expect("grid");
        let mut sim = DiffusionSim::new(
            grid,
            d,
            d,
            Molar::from_millimolar(bulk_mm).to_moles_per_cm3(),
            MolesPerCm3::ZERO,
            dt,
        ).expect("sim");
        for _ in 0..steps {
            sim.step_with_rate_constants(10f64.powf(kf_exp), 10f64.powf(kb_exp));
        }
        prop_assert!(sim.mass_balance_error() < 5e-3, "mass error {}", sim.mass_balance_error());
    }

    /// Concentrations never go negative under pure consumption.
    #[test]
    fn concentrations_stay_nonnegative(
        kf_exp in -4.0f64..6.0,
        steps in 10usize..300,
    ) {
        let d = DiffusionCoefficient::new(1e-5);
        let dt = Seconds::new(0.01);
        let grid = Grid::for_experiment(d, Seconds::new(5.0), dt).expect("grid");
        let mut sim = DiffusionSim::new(
            grid, d, d,
            Molar::from_millimolar(1.0).to_moles_per_cm3(),
            MolesPerCm3::ZERO,
            dt,
        ).expect("sim");
        for _ in 0..steps {
            sim.step_with_rate_constants(10f64.powf(kf_exp), 0.0);
        }
        for c in sim.profile_ox() {
            prop_assert!(*c >= -1e-12, "negative concentration {c}");
        }
        prop_assert!(sim.surface_ox().value() >= -1e-12);
    }

    /// Butler–Volmer rates satisfy the thermodynamic ratio
    /// kf/kb = exp(−nF(E−E0)/RT) for any potential and α.
    #[test]
    fn bv_rates_respect_thermodynamics(
        e_mv in -900.0f64..900.0,
        alpha in 0.05f64..0.95,
        n in 1u32..3,
    ) {
        let couple = RedoxCouple::builder("p")
            .electrons(n)
            .transfer_coefficient(alpha)
            .formal_potential(Volts::new(0.1))
            .build()
            .expect("valid");
        let e = Volts::from_millivolts(e_mv);
        let (kf, kb) = rate_constants(&couple, e, T_ROOM, 1.0);
        let f = bios_units::FARADAY / (bios_units::GAS_CONSTANT * T_ROOM.value());
        let eta = e.value() - 0.1;
        let expected = -(n as f64) * f * eta;
        let ratio = kf / kb;
        // The implementation clamps each exponent to ±50; only assert the
        // thermodynamic ratio where neither exponent is clamped.
        let worst_exponent = (n as f64) * f * eta.abs() * alpha.max(1.0 - alpha);
        if worst_exponent < 49.0 {
            prop_assert!((ratio.ln() - expected).abs() < 1e-9);
        }
        prop_assert!(kf > 0.0 && kb > 0.0);
    }

    /// The CV peak current grows monotonically with concentration.
    #[test]
    fn cv_peak_monotone_in_concentration(c1_mm in 0.2f64..2.0, factor in 1.5f64..4.0) {
        let cell = Cell::builder(
            Electrode::new(ElectrodeMaterial::Gold, SquareCentimeters::new(0.0023)).expect("area"),
        ).build().expect("cell");
        let couple = RedoxCouple::ferrocyanide();
        let e0 = couple.formal_potential();
        let program = PotentialProgram::cyclic_single(
            e0 + Volts::new(0.25),
            e0 - Volts::new(0.25),
            VoltsPerSecond::new(0.1),
        );
        let opts = SimOptions { dt: Some(Seconds::new(0.025)), include_charging: false, grid_gamma: None };
        let run = |c_mm: f64| {
            simulate_cv_with(&cell, &couple, Molar::from_millimolar(c_mm), Molar::ZERO, &program, opts)
                .expect("sim")
                .min_current()
                .expect("nonempty")
                .1
                .abs()
                .value()
        };
        let i1 = run(c1_mm);
        let i2 = run(c1_mm * factor);
        prop_assert!(i2 > i1, "peak must grow with concentration");
        // And approximately linearly.
        prop_assert!(((i2 / i1) - factor).abs() < 0.1 * factor);
    }

    /// The batched SoA kernel is bit-identical to per-lane scalar sims for
    /// any batch width, expanding grid, kinetics program and pair of
    /// diffusion coefficients: every step's flux, every surface value and
    /// every profile node, compared by bit pattern.
    #[test]
    fn batch_kernel_bit_identical_to_scalar(
        lanes in 1usize..5,
        gamma in 1.02f64..1.6,
        steps in 5usize..60,
        d_ratio in 0.3f64..3.0,
        seed in 0u64..1000,
    ) {
        let r = |k: usize| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((k as u64).wrapping_mul(1442695040888963407)) as f64;
            x / u64::MAX as f64
        };
        // Distinct coefficients give the two species distinct operators;
        // the grid is sized for the faster one, as the drivers do.
        let d_ox = DiffusionCoefficient::new(6.7e-6);
        let d_red = DiffusionCoefficient::new(6.7e-6 * d_ratio);
        let dt = Seconds::new(0.005);
        let grid = Grid::for_experiment_with(
            DiffusionCoefficient::new(d_ox.value().max(d_red.value())),
            Seconds::new(steps as f64 * 0.005 + 0.5),
            dt,
            gamma,
        ).expect("grid");
        let bulks: Vec<(bios_units::MolesPerCm3, bios_units::MolesPerCm3)> = (0..lanes)
            .map(|b| (
                Molar::from_millimolar(0.5 + 5.0 * r(b)).to_moles_per_cm3(),
                Molar::from_millimolar(2.0 * r(b + 100)).to_moles_per_cm3(),
            ))
            .collect();
        let mut batch =
            BatchDiffusionSim::new(grid.clone(), d_ox, d_red, &bulks, dt).expect("batch");
        let mut scalars: Vec<DiffusionSim> = bulks
            .iter()
            .map(|&(o, rd)| DiffusionSim::new(grid.clone(), d_ox, d_red, o, rd, dt).expect("sim"))
            .collect();
        for k in 0..steps {
            let rates: Vec<(f64, f64)> = (0..lanes)
                .map(|b| (
                    10f64.powf(4.0 * r(7 * k + b) - 3.0),
                    10f64.powf(4.0 * r(11 * k + b + 5000) - 3.0),
                ))
                .collect();
            let fluxes = batch.step_with_rate_constants(&rates);
            for (b, s) in scalars.iter_mut().enumerate() {
                let f = s.step_with_rate_constants(rates[b].0, rates[b].1);
                prop_assert_eq!(f.to_bits(), fluxes[b].to_bits(), "flux lane {} step {}", b, k);
            }
        }
        for (b, s) in scalars.iter().enumerate() {
            prop_assert_eq!(
                batch.surface_ox(b).value().to_bits(),
                s.surface_ox().value().to_bits()
            );
            prop_assert_eq!(
                batch.surface_red(b).value().to_bits(),
                s.surface_red().value().to_bits()
            );
            for (x, y) in batch.profile_ox(b).iter().zip(s.profile_ox()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "ox profile lane {}", b);
            }
            for (x, y) in batch.profile_red(b).iter().zip(s.profile_red()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "red profile lane {}", b);
            }
        }
    }

    /// The fleet chrono driver equals the per-cell scalar driver exactly
    /// — full `Transient` equality lane by lane — for random fleets,
    /// waveforms and grid ratios.
    #[test]
    fn fleet_driver_bit_identical_to_scalar_map(
        lanes in 1usize..4,
        gamma_pick in 0usize..3,
        hold_mv in 200.0f64..700.0,
        seed in 0u64..500,
    ) {
        let r = |k: usize| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((k as u64).wrapping_mul(1442695040888963407)) as f64;
            x / u64::MAX as f64
        };
        let gamma = [None, Some(1.2), Some(1.5)][gamma_pick];
        let couple = RedoxCouple::ferrocyanide();
        let program = PotentialProgram::Hold {
            potential: Volts::from_millivolts(hold_mv),
            duration: Seconds::new(0.1),
        };
        let cells: Vec<Cell> = (0..lanes)
            .map(|b| {
                let area = SquareCentimeters::new(5e-4 + 3e-3 * r(b + 40));
                Cell::builder(
                    Electrode::new(ElectrodeMaterial::Gold, area).expect("area"),
                )
                .build()
                .expect("cell")
            })
            .collect();
        let bulk_ox: Vec<Molar> = (0..lanes)
            .map(|b| Molar::from_millimolar(0.3 + 3.0 * r(b + 80)))
            .collect();
        let bulk_red: Vec<Molar> = (0..lanes)
            .map(|b| Molar::from_millimolar(r(b + 120)))
            .collect();
        let options = SimOptions { dt: None, include_charging: true, grid_gamma: gamma };
        let fleet = simulate_chrono_fleet(&cells, &couple, &bulk_ox, &bulk_red, &program, options)
            .expect("fleet");
        for b in 0..lanes {
            let scalar = simulate_chrono_with(
                &cells[b], &couple, bulk_ox[b], bulk_red[b], &program, options,
            ).expect("scalar");
            prop_assert_eq!(&fleet[b], &scalar, "lane {} diverged", b);
        }
    }

    /// Nonuniform (expanding) grids converge to the analytic Cottrell
    /// reference: for any ratio up to 1.5, the diffusion-limited transient
    /// stays within 5% of `cottrell_current` over the mid/late transient,
    /// while coarser ratios use strictly fewer nodes than the default.
    #[test]
    fn expanding_grid_converges_to_cottrell(
        gamma in 1.05f64..1.5,
        bulk_mm in 0.5f64..3.0,
    ) {
        let couple = RedoxCouple::ferrocyanide();
        let cell = Cell::builder(Electrode::paper_gold_we()).build().expect("cell");
        let e0 = couple.formal_potential();
        // Hold far below E0: reduction is diffusion-limited and the
        // current follows Cottrell decay.
        let program = PotentialProgram::Hold {
            potential: e0 - Volts::new(0.4),
            duration: Seconds::new(2.0),
        };
        let dt = Seconds::new(0.005);
        let options = SimOptions {
            dt: Some(dt),
            include_charging: false,
            grid_gamma: Some(gamma),
        };
        let bulk = Molar::from_millimolar(bulk_mm);
        let transient = simulate_chrono_with(&cell, &couple, bulk, Molar::ZERO, &program, options)
            .expect("transient");
        let area = cell.working().active_area();
        for t_s in [0.5, 1.0, 1.5, 2.0] {
            let t = Seconds::new(t_s);
            let simulated = transient.current_at(t).expect("in range").value();
            let analytic = -cottrell_current(&couple, area, bulk, t).value();
            let rel = (simulated - analytic).abs() / analytic.abs();
            prop_assert!(
                rel < 0.05,
                "gamma {gamma}: {rel:.4} relative error vs Cottrell at t = {t_s}s"
            );
        }
        // The coarse grid must actually be smaller than the default.
        let d_max = couple.diffusion_ox().value().max(couple.diffusion_red().value());
        let nodes = |g: f64| {
            Grid::for_experiment_with(
                DiffusionCoefficient::new(d_max), program.duration(), dt, g,
            ).expect("grid").len()
        };
        if gamma > Grid::DEFAULT_GAMMA + 0.05 {
            prop_assert!(nodes(gamma) < nodes(Grid::DEFAULT_GAMMA));
        }
    }
}
