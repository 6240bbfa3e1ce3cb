//! Property-based tests for the analog front-end.

use bios_afe::{
    Adc, AnalogMux, ChainConfig, CurrentRange, Fault, FaultKind, FaultPlan, NoiseConfig,
    NoiseSource, RandlesCell, ReadoutChain, Tia, VoltageGenerator,
};
use bios_electrochem::PotentialProgram;
use bios_units::{Amps, Farads, Hertz, Ohms, QRange, Seconds, Volts, VoltsPerSecond};
use proptest::prelude::*;

/// Runs a short deterministic acquisition through `chain` and returns the
/// raw samples. The active current is a fixed function of time, so any
/// sample-level difference between two runs comes from the chain itself.
fn acquire_trace(chain: &ReadoutChain, noise_seed: u64) -> Vec<bios_afe::Sample> {
    let program = PotentialProgram::Hold {
        potential: Volts::ZERO,
        duration: Seconds::new(2.0),
    };
    chain
        .acquire(
            &program,
            Seconds::from_millis(100.0),
            noise_seed,
            |t, _e| Amps::from_nanoamps(150.0 + 40.0 * (3.0 * t.value()).sin()),
            |_t, _e| Amps::ZERO,
        )
        .expect("acquire")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ADC quantize→to_volts round-trips within one LSB for any in-range
    /// voltage and resolution.
    #[test]
    fn adc_round_trip_within_lsb(bits in 6u8..16, frac in -0.999f64..0.999) {
        let adc = Adc::new(bits, Volts::new(1.65), Hertz::new(100.0)).expect("valid");
        let v = Volts::new(1.65 * frac);
        let back = adc.to_volts(adc.quantize(v));
        prop_assert!((back.value() - v.value()).abs() <= adc.lsb().value());
    }

    /// ADC codes are monotone in the input voltage.
    #[test]
    fn adc_codes_monotone(v1 in -1.6f64..1.6, dv in 0.001f64..0.2) {
        let adc = Adc::new(12, Volts::new(1.65), Hertz::new(100.0)).expect("valid");
        let c1 = adc.quantize(Volts::new(v1));
        let c2 = adc.quantize(Volts::new(v1 + dv));
        prop_assert!(c2 >= c1);
    }

    /// TIA static conversion is linear until it saturates, for any gain.
    #[test]
    fn tia_linear_until_rails(rf_exp in 4.0f64..7.0, i_na in -2000.0f64..2000.0) {
        let tia = Tia::new(Ohms::new(10f64.powf(rf_exp)), Hertz::new(1e3), Volts::new(1.65))
            .expect("valid");
        let i = Amps::from_nanoamps(i_na);
        let v = tia.convert_static(i);
        prop_assert!(v.value().abs() <= 1.65 + 1e-12);
        if !tia.saturates(i) {
            prop_assert!((v.value() + i.value() * 10f64.powf(rf_exp)).abs() < 1e-12);
        }
    }

    /// DAC quantization error is bounded by half an LSB everywhere in range.
    #[test]
    fn vgen_quantization_bounded(bits in 6u8..16, frac in 0.0f64..1.0) {
        let range = QRange::new(Volts::new(-1.0), Volts::new(1.0)).expect("range");
        let g = VoltageGenerator::new(bits, range, VoltsPerSecond::new(1.0)).expect("valid");
        let v = Volts::new(-1.0 + 2.0 * frac);
        let q = g.quantize(v);
        prop_assert!((q.value() - v.value()).abs() <= g.lsb().value() / 2.0 + 1e-12);
        prop_assert!(range.contains(q));
    }

    /// Randles cell current is bounded by E/Rs and approaches E/(Rs+Rct).
    #[test]
    fn randles_current_bounded(
        e_mv in 1.0f64..1000.0,
        rs in 10.0f64..1e4,
        rct_factor in 2.0f64..1e4,
    ) {
        let rct = rs * rct_factor;
        let mut cell = RandlesCell::new(
            Ohms::new(rs),
            Ohms::new(rct),
            Farads::from_nanofarads(50.0),
        ).expect("valid");
        let e = Volts::from_millivolts(e_mv);
        let tau = cell.time_constant().value();
        let dt = Seconds::new(tau / 10.0);
        let mut last = Amps::ZERO;
        for _ in 0..200 {
            last = cell.step(e, dt);
            prop_assert!(last.value() <= e.value() / rs * (1.0 + 1e-9));
            prop_assert!(last.value() >= e.value() / (rs + rct) * (1.0 - 1e-9));
        }
        // 20 τ later: within 1% of the DC value.
        let dc = e.value() / (rs + rct);
        prop_assert!((last.value() - dc).abs() / dc < 0.01);
    }

    /// Mux round-robin visits channels uniformly.
    #[test]
    fn mux_round_robin_uniform(channels in 1usize..12, slots in 1usize..60) {
        let m = AnalogMux::typical_cmos(channels).expect("valid");
        let dwell = Seconds::new(10.0);
        let slot = dwell.value() + m.switch_time().value();
        let mut counts = vec![0usize; channels];
        for k in 0..slots {
            let t = Seconds::new(k as f64 * slot + 0.5);
            counts[m.channel_at(t, dwell)] += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        let min = *counts.iter().min().expect("nonempty");
        prop_assert!(max - min <= 1, "unfair schedule: {counts:?}");
    }

    /// Noise is reproducible per seed and zero for the silent config.
    #[test]
    fn noise_seed_determinism(seed in 0u64..1000, n in 1usize..100) {
        let cfg = NoiseConfig::typical_cmos();
        let dt = Seconds::from_millis(10.0);
        let mut a = NoiseSource::new(cfg, dt, seed).expect("valid dt");
        let mut b = NoiseSource::new(cfg, dt, seed).expect("valid dt");
        for _ in 0..n {
            prop_assert_eq!(a.sample().value(), b.sample().value());
        }
    }

    /// Current-range bit requirements grow monotonically with dynamic range.
    #[test]
    fn range_bits_monotone(fs_ua in 1.0f64..1000.0, res_frac in 1e-4f64..0.1) {
        let fs = Amps::from_microamps(fs_ua);
        let res = Amps::new(fs.value() * res_frac);
        let r = CurrentRange::new(fs, res);
        let finer = CurrentRange::new(fs, Amps::new(res.value() / 4.0));
        prop_assert!(finer.required_bits() >= r.required_bits() + 2);
        prop_assert!(r.fits(Amps::new(fs.value() * 0.99)));
        prop_assert!(!r.fits(Amps::new(fs.value() * 1.01)));
    }

    /// Fault plans are bit-reproducible under one seed, both as data and
    /// through a full faulted acquisition: the same `(plan, noise seed)`
    /// replays the chain sample for sample.
    #[test]
    fn fault_plan_same_seed_bit_reproducible(seed in 0u64..100_000, wes in 1usize..12) {
        let a = FaultPlan::randomized(seed, wes);
        let b = FaultPlan::randomized(seed, wes);
        prop_assert_eq!(&a, &b);

        let cfg = ChainConfig::for_range(CurrentRange::oxidase()).expect("config");
        let chain = ReadoutChain::new(cfg).with_faults(a.faults_for(0), a.chain_seed(0));
        prop_assert_eq!(
            acquire_trace(&chain, seed ^ 0x5eed),
            acquire_trace(&chain, seed ^ 0x5eed)
        );
    }

    /// Severity-0 faults of every kind, at any onset, are exact no-ops:
    /// the faulted chain's samples are bit-identical to a fault-free one.
    #[test]
    fn zero_severity_faults_are_exact_noops(seed in 0u64..100_000, onset_s in 0.0f64..5.0) {
        let cfg = ChainConfig::for_range(CurrentRange::oxidase()).expect("config");
        let clean = ReadoutChain::new(cfg);
        let faults: Vec<Fault> = FaultKind::ALL
            .iter()
            .map(|&k| Fault::new(k, Seconds::new(onset_s), 0.0).expect("fault"))
            .collect();
        let faulted = ReadoutChain::new(cfg).with_faults(faults, seed.wrapping_mul(3));
        prop_assert_eq!(acquire_trace(&clean, seed), acquire_trace(&faulted, seed));
    }
}
