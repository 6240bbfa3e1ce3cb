//! Golden bit pins for the acquisition path.
//!
//! Every digest below hashes the exact bit patterns (`f64::to_bits`) of
//! what the readout chain and the Fig. 4 session produce. Performance work
//! on the per-sample loop (hoisting invariants, skipping terms multiplied by
//! an exact zero) must leave these numbers unchanged: a change that moves
//! one of them changed an output, not just its cost.
//!
//! The matrix covers Hold and CV programs; plain, chopper, CDS and
//! chopper+CDS chains; the typical CMOS noise floor and a loud noise model
//! whose white, flicker and drift terms each exceed one ADC code; and no
//! fault as well as each fault kind.
//!
//! The electrochemistry pins cover the diffusion kernel behind the CV,
//! SWV and chronoamperometry drivers: CV scans at three rates, couples
//! whose two species diffuse at different rates (so each species has its
//! own factorization), a square-wave scan, a scalar chronoamperogram and
//! a five-lane fleet.

use std::sync::OnceLock;

use advdiag::afe::{
    ChainConfig, CorrelatedDoubleSampler, CurrentRange, Fault, FaultKind, FaultPlan,
    MatchingQuality, NoiseConfig, ReadoutChain, Sample,
};
use advdiag::biochem::Analyte;
use advdiag::electrochem::{
    simulate_chrono_fleet, simulate_chrono_with, simulate_cv_with, simulate_swv, Cell, Electrode,
    ElectrodeMaterial, PotentialProgram, RedoxCouple, SimOptions, SwvParams, Transient,
    Voltammogram,
};
use advdiag::platform::{PanelSpec, Platform, PlatformBuilder, SessionOptions, SessionReport};
use advdiag::units::{Amps, Molar, Seconds, SquareCentimeters, Volts, VoltsPerSecond};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sample(&mut self, s: &Sample) {
        self.word(s.t.value().to_bits());
        self.word(s.setpoint.value().to_bits());
        self.word(s.applied.value().to_bits());
        self.word(s.code as u32 as u64);
        self.word(s.volts.value().to_bits());
        self.word(s.current.value().to_bits());
    }
}

/// White, flicker and drift each well above one ADC code of the oxidase
/// range, so every noise term reaches the codes.
const LOUD: NoiseConfig = NoiseConfig {
    white_density: 5e-9,
    flicker_density_1hz: 5e-9,
    drift_per_sqrt_s: 5e-9,
};

fn programs() -> [(PotentialProgram, Seconds); 2] {
    [
        (
            PotentialProgram::Hold {
                potential: Volts::from_millivolts(650.0),
                duration: Seconds::new(20.0),
            },
            Seconds::from_millis(100.0),
        ),
        (
            PotentialProgram::cyclic_single(
                Volts::new(0.1),
                Volts::new(-0.8),
                VoltsPerSecond::from_millivolts_per_second(20.0),
            ),
            Seconds::from_millis(500.0),
        ),
    ]
}

/// Plain, chopper, CDS and chopper+CDS chains at both noise levels.
fn chains() -> Vec<ChainConfig> {
    let base = ChainConfig::for_range(CurrentRange::oxidase()).expect("oxidase range");
    let cds = CorrelatedDoubleSampler::new(MatchingQuality::SameSubstrate);
    let mut out = Vec::new();
    for noise in [NoiseConfig::typical_cmos(), LOUD] {
        let plain = base.with_noise(noise);
        out.push(plain);
        out.push(plain.with_chopper());
        out.push(plain.with_cds(cds));
        out.push(plain.with_chopper().with_cds(cds));
    }
    out
}

/// No fault, then each fault kind at a mid severity with a late onset.
fn fault_cases() -> Vec<Vec<Fault>> {
    let mut out = vec![Vec::new()];
    for kind in FaultKind::ALL {
        out.push(vec![
            Fault::new(kind, Seconds::new(3.0), 0.7).expect("valid fault")
        ]);
    }
    out
}

fn active(t: Seconds, e: Volts) -> Amps {
    Amps::new(4e-7 * (1.0 + e.value()) + 3e-8 * (0.7 * t.value()).sin())
}

fn blank(t: Seconds, e: Volts) -> Amps {
    Amps::new(5e-8 * e.value() + 1e-8 * (0.3 * t.value()).cos())
}

/// Every chain × program × fault case, one acquisition, one seed each.
fn acquire_digest() -> u64 {
    let mut h = Fnv::new();
    let mut seed = 11u64;
    for config in chains() {
        for faults in fault_cases() {
            let chain = ReadoutChain::new(config).with_faults(faults, 0xfa57);
            for (program, dt) in programs() {
                seed += 1;
                let samples = chain
                    .acquire(&program, dt, seed, active, blank)
                    .expect("acquire");
                h.word(samples.len() as u64);
                for s in &samples {
                    h.sample(s);
                }
            }
        }
    }
    h.0
}

/// The commissioning numbers (baseline noise, self-test) over the same
/// chain × fault matrix.
fn commissioning_digest() -> u64 {
    let mut h = Fnv::new();
    let dt = Seconds::from_millis(250.0);
    let window = Seconds::new(16.0);
    for config in chains() {
        for faults in fault_cases() {
            let chain = ReadoutChain::new(config).with_faults(faults, 0xc0de);
            let noise = chain
                .baseline_noise_reference(dt, window, 5)
                .expect("baseline noise");
            let response = chain.self_test_response(dt, window, 6).expect("self test");
            h.word(noise.value().to_bits());
            h.word(response.value().to_bits());
        }
    }
    h.0
}

fn fig4_platform() -> &'static Platform {
    static PLATFORM: OnceLock<Platform> = OnceLock::new();
    PLATFORM.get_or_init(|| {
        PlatformBuilder::new(PanelSpec::paper_fig4())
            .build()
            .expect("build")
    })
}

fn fig4_sample() -> Vec<(Analyte, Molar)> {
    vec![
        (Analyte::Glucose, Molar::from_millimolar(3.0)),
        (Analyte::Lactate, Molar::from_millimolar(1.5)),
        (Analyte::Glutamate, Molar::from_millimolar(3.0)),
        (Analyte::Benzphetamine, Molar::from_millimolar(0.8)),
        (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
        (Analyte::Cholesterol, Molar::from_micromolar(50.0)),
    ]
}

/// Fig. 4 session reports over a few seeds, plain and under randomized
/// fault plans. `Debug` renders floats shortest-roundtrip, so the text is
/// an exact image of every number in the report.
fn session_digest(faulted: bool) -> u64 {
    let platform = fig4_platform();
    let sample = fig4_sample();
    let electrodes = platform.assignments().len();
    let mut h = Fnv::new();
    for seed in [1u64, 7, 42, 1234] {
        let options = if faulted {
            SessionOptions::default()
                .with_fault_plan(FaultPlan::randomized(seed ^ 0xf00, electrodes))
        } else {
            SessionOptions::default()
        };
        let report: SessionReport = platform
            .run_session_with(&sample, seed, &options)
            .expect("session");
        h.bytes(format!("{report:?}").as_bytes());
    }
    h.0
}

fn voltammogram(h: &mut Fnv, v: &Voltammogram) {
    h.word(v.len() as u64);
    for (t, e, i) in v.iter() {
        h.word(t.value().to_bits());
        h.word(e.value().to_bits());
        h.word(i.value().to_bits());
    }
}

fn transient(h: &mut Fnv, tr: &Transient) {
    h.word(tr.len() as u64);
    for (t, i) in tr.iter() {
        h.word(t.value().to_bits());
        h.word(i.value().to_bits());
    }
}

fn gold_cell(area_mm2: f64) -> Cell {
    let we = Electrode::new(
        ElectrodeMaterial::Gold,
        SquareCentimeters::from_square_millimeters(area_mm2),
    )
    .expect("electrode");
    Cell::builder(we).build().expect("cell")
}

/// A quasi-reversible couple whose reduced form diffuses at about half the
/// rate of the oxidized form.
fn asymmetric_couple() -> RedoxCouple {
    RedoxCouple::builder("asymmetric")
        .formal_potential(Volts::from_millivolts(180.0))
        .diffusion(7.6e-6)
        .diffusion_red(3.9e-6)
        .rate_constant(0.004)
        .transfer_coefficient(0.42)
        .build()
        .expect("couple")
}

/// CV scans of ferrocyanide at 10, 50 and 200 mV/s with the default
/// options (charging current included).
fn cv_digest() -> u64 {
    let mut h = Fnv::new();
    for rate in [10.0, 50.0, 200.0] {
        let program = PotentialProgram::cyclic_single(
            Volts::new(0.55),
            Volts::new(-0.1),
            VoltsPerSecond::from_millivolts_per_second(rate),
        );
        let cv = simulate_cv_with(
            &gold_cell(0.23),
            &RedoxCouple::ferrocyanide(),
            Molar::from_millimolar(1.0),
            Molar::ZERO,
            &program,
            SimOptions::default(),
        )
        .expect("cv");
        voltammogram(&mut h, &cv);
    }
    h.0
}

/// CV scans of a couple with `D_red ≠ D_ox`: one on the default grid with
/// both forms in the bulk, one on the coarse grid without charging.
fn asymmetric_cv_digest() -> u64 {
    let couple = asymmetric_couple();
    let mut h = Fnv::new();
    let cases = [
        (
            SimOptions::default(),
            Molar::from_millimolar(0.8),
            Molar::from_millimolar(0.3),
        ),
        (
            SimOptions {
                dt: None,
                include_charging: false,
                grid_gamma: Some(1.4),
            },
            Molar::from_millimolar(1.5),
            Molar::ZERO,
        ),
    ];
    for (options, ox, red) in cases {
        let program = PotentialProgram::cyclic_single(
            Volts::new(0.6),
            Volts::new(-0.3),
            VoltsPerSecond::from_millivolts_per_second(40.0),
        );
        let cv =
            simulate_cv_with(&gold_cell(0.5), &couple, ox, red, &program, options).expect("cv");
        voltammogram(&mut h, &cv);
    }
    h.0
}

/// Square-wave scans of ferrocyanide and of the asymmetric couple.
fn swv_digest() -> u64 {
    let mut h = Fnv::new();
    let ferro = simulate_swv(
        &gold_cell(0.23),
        &RedoxCouple::ferrocyanide(),
        Molar::from_millimolar(1.0),
        Molar::ZERO,
        &SwvParams::typical(Volts::new(0.53), Volts::new(-0.07)),
    )
    .expect("swv");
    voltammogram(&mut h, &ferro);
    let asym = simulate_swv(
        &gold_cell(0.5),
        &asymmetric_couple(),
        Molar::from_millimolar(0.6),
        Molar::from_millimolar(0.2),
        &SwvParams::typical(Volts::new(0.5), Volts::new(-0.2)),
    )
    .expect("swv");
    voltammogram(&mut h, &asym);
    h.0
}

fn step_program() -> PotentialProgram {
    PotentialProgram::Step {
        initial: Volts::new(0.5),
        stepped: Volts::new(-0.2),
        at: Seconds::new(0.4),
        duration: Seconds::new(4.0),
    }
}

/// Scalar chronoamperograms: H2O2 held at +650 mV, and a potential step on
/// ferrocyanide with an explicit time step.
fn chrono_digest() -> u64 {
    let mut h = Fnv::new();
    let hold = PotentialProgram::Hold {
        potential: Volts::from_millivolts(650.0),
        duration: Seconds::new(20.0),
    };
    let tr = simulate_chrono_with(
        &gold_cell(0.23),
        &RedoxCouple::hydrogen_peroxide(),
        Molar::ZERO,
        Molar::from_millimolar(1.0),
        &hold,
        SimOptions::default(),
    )
    .expect("chrono");
    transient(&mut h, &tr);
    let options = SimOptions {
        dt: Some(Seconds::from_millis(5.0)),
        ..SimOptions::default()
    };
    let tr = simulate_chrono_with(
        &gold_cell(1.0),
        &RedoxCouple::ferrocyanide(),
        Molar::from_millimolar(0.7),
        Molar::from_millimolar(0.1),
        &step_program(),
        options,
    )
    .expect("chrono");
    transient(&mut h, &tr);
    h.0
}

/// A five-lane fleet with per-lane areas and concentrations, on the
/// default and the coarse grid.
fn fleet_digest() -> u64 {
    let cells: Vec<Cell> = [0.23, 0.5, 1.0, 2.0, 0.1]
        .iter()
        .map(|mm2| gold_cell(*mm2))
        .collect();
    let ox: Vec<Molar> = (0..cells.len())
        .map(|b| Molar::from_millimolar(0.2 + 0.3 * b as f64))
        .collect();
    let red: Vec<Molar> = (0..cells.len())
        .map(|b| Molar::from_millimolar(0.05 * b as f64))
        .collect();
    let mut h = Fnv::new();
    for gamma in [None, Some(1.4)] {
        let options = SimOptions {
            grid_gamma: gamma,
            ..SimOptions::default()
        };
        let lanes = simulate_chrono_fleet(
            &cells,
            &RedoxCouple::ferrocyanide(),
            &ox,
            &red,
            &step_program(),
            options,
        )
        .expect("fleet");
        for tr in &lanes {
            transient(&mut h, tr);
        }
    }
    h.0
}

#[test]
fn cv_is_bit_pinned() {
    assert_eq!(cv_digest(), 0xa9db_fe70_f6c1_9d1c);
}

#[test]
fn asymmetric_cv_is_bit_pinned() {
    assert_eq!(asymmetric_cv_digest(), 0xc7e1_f873_6a28_4a6a);
}

#[test]
fn swv_is_bit_pinned() {
    assert_eq!(swv_digest(), 0x7088_eb75_1c31_d982);
}

#[test]
fn chrono_is_bit_pinned() {
    assert_eq!(chrono_digest(), 0xc6e4_cd97_ca0f_7b68);
}

#[test]
fn chrono_fleet_is_bit_pinned() {
    assert_eq!(fleet_digest(), 0x4254_2566_e300_44d1);
}

#[test]
fn acquire_is_bit_pinned() {
    assert_eq!(acquire_digest(), 0xafca_c889_2793_1f8c);
}

#[test]
fn commissioning_is_bit_pinned() {
    assert_eq!(commissioning_digest(), 0xade7_5a03_4d05_0991);
}

#[test]
fn fig4_session_is_bit_pinned() {
    assert_eq!(session_digest(false), 0x2894_e9ab_1a13_617f);
}

#[test]
fn fig4_faulted_session_is_bit_pinned() {
    assert_eq!(session_digest(true), 0xd2cf_9a5b_934c_ab7f);
}
