//! Fig. 1 reproduction: the potentiostat + transimpedance amplifier.
//!
//! The figure is a circuit block diagram; the reproducible content is the
//! behaviour it promises — the potentiostat holds the cell potential and
//! the TIA converts the cell current linearly. Experiment: drive a Randles
//! dummy cell, report (a) potential-control error vs open-loop gain,
//! (b) TIA integral nonlinearity across the oxidase range, (c) the step
//! settling time of the composed front-end.

use bios_afe::{Potentiostat, RandlesCell, Tia};
use bios_units::{Amps, Farads, Hertz, Ohms, Seconds, Volts};

/// Control-error row: open-loop gain vs residual potential error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlErrorRow {
    /// Amplifier open-loop gain.
    pub gain: f64,
    /// Static RE–WE error at a 650 mV setpoint.
    pub static_error: Volts,
}

/// Sweeps the control amplifier gain.
pub fn control_error_sweep() -> Vec<ControlErrorRow> {
    [1e2, 1e3, 1e4, 1e5, 1e6]
        .iter()
        .map(|&gain| {
            let pstat =
                Potentiostat::new(gain, Hertz::from_megahertz(1.0)).expect("parameters are valid");
            ControlErrorRow {
                gain,
                static_error: pstat.static_error(Volts::from_millivolts(650.0)),
            }
        })
        .collect()
}

/// The Fig. 1 TIA sized for the oxidase class.
pub fn paper_tia() -> Tia {
    Tia::new(
        Ohms::from_kiloohms(150.0),
        Hertz::from_kilohertz(1.0),
        Volts::new(1.65),
    )
    .expect("parameters are valid")
    .inverted()
}

/// Maximum TIA integral nonlinearity (fraction of full scale) over the
/// ±10 µA oxidase range, from a 101-point static sweep against the
/// best-fit line through the endpoints.
pub fn tia_inl() -> f64 {
    let tia = paper_tia();
    let fs = 10e-6;
    let gain = tia.convert_static(Amps::new(fs)).value() / fs;
    let mut worst: f64 = 0.0;
    for k in 0..=100 {
        let i = -fs + 2.0 * fs * k as f64 / 100.0;
        let v = tia.convert_static(Amps::new(i)).value();
        worst = worst.max((v - gain * i).abs() / (gain * fs).abs());
    }
    worst
}

/// Step response of potentiostat + Randles cell + TIA: time for the
/// recorded output to settle within 1% after a 100 mV setpoint step.
pub fn frontend_settling_time() -> Seconds {
    let pstat = Potentiostat::typical_cmos().expect("constants are valid");
    let mut cell = RandlesCell::new(
        Ohms::new(100.0),
        Ohms::from_kiloohms(100.0),
        Farads::from_nanofarads(46.0),
    )
    .expect("constants are valid");
    let tia = paper_tia();
    let dt = Seconds::from_micros(0.5);
    let mut tia_stream = tia.streamer(dt).expect("constant dt is valid");
    let mut pstat_stream = pstat
        .streamer(Volts::ZERO, dt)
        .expect("constant dt is valid");
    let setpoint = Volts::from_millivolts(100.0);
    // Final value: DC current through the cell × gain.
    let v_final = tia
        .convert_static(Amps::new(
            pstat.applied(setpoint).value() / cell.dc_resistance().value(),
        ))
        .value();
    let mut settled_at = Seconds::ZERO;
    for k in 0..2_000_000u64 {
        let e = pstat_stream.step(setpoint);
        let i = cell.step(e, dt);
        let v = tia_stream.process(i);
        let t = Seconds::new(k as f64 * dt.value());
        if (v.value() - v_final).abs() > 0.01 * v_final.abs() {
            settled_at = t;
        }
        if t.value() > 0.1 {
            break;
        }
    }
    settled_at
}

/// Renders the Fig. 1 experiment report.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("potentiostat static control error at 650 mV setpoint:\n");
    out.push_str(&format!("{:>10} {:>14}\n", "gain", "error"));
    for row in control_error_sweep() {
        out.push_str(&format!(
            "{:>10.0} {:>14}\n",
            row.gain,
            row.static_error.to_string()
        ));
    }
    out.push_str(&format!(
        "\nTIA integral nonlinearity over ±10 µA: {:.2e} of full scale\n",
        tia_inl()
    ));
    out.push_str(&format!(
        "front-end 1% settling after a 100 mV step: {}\n",
        frontend_settling_time()
    ));
    out.push_str("(biology responds in ~30 s — readout never limits, as the paper argues)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_error_inverse_in_gain() {
        let rows = control_error_sweep();
        for pair in rows.windows(2) {
            // 10× gain → ~10× smaller error.
            let ratio = pair[0].static_error.value() / pair[1].static_error.value();
            assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
        }
        // 100 dB gain: sub-10 µV error.
        assert!(rows[3].static_error.as_microvolts() < 10.0);
    }

    #[test]
    fn tia_is_linear_to_a_part_in_1e6() {
        assert!(tia_inl() < 1e-6, "INL {}", tia_inl());
    }

    #[test]
    fn frontend_settles_in_milliseconds() {
        // The 1 kHz TIA dominates: ~1.3 ms to 1% — still 4 orders of
        // magnitude below the ~30 s biology.
        let t = frontend_settling_time();
        assert!(t.value() < 5e-3, "settling {t}");
        assert!(t.value() > 0.0);
    }
}
