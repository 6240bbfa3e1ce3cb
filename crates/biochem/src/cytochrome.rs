//! Cytochrome P450 biosensors: direct electron transfer to the heme centre
//! drives substrate reduction (paper eq. 4); each drug shows a catalytic
//! cathodic peak at its own potential (Table II), so one isoform can sense
//! several targets in a single cyclic voltammogram.

use crate::analyte::Analyte;
use crate::error::BiochemError;
use crate::michaelis::MichaelisMenten;
use crate::tables::{cyp_rows, performance_of};
use bios_units::{
    AmpsPerCm2, Kelvin, Molar, MolesPerCm2, Volts, VoltsPerSecond, FARADAY, GAS_CONSTANT,
};

/// The cytochrome P450 isoforms of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CypIsoform {
    /// CYP1A2 — clozapine.
    Cyp1A2,
    /// CYP3A4 — erythromycin, indinavir.
    Cyp3A4,
    /// CYP11A1 — cholesterol.
    Cyp11A1,
    /// CYP2B4 — benzphetamine, aminopyrine (two peaks on one electrode).
    Cyp2B4,
    /// CYP2B6 — bupropion, lidocaine.
    Cyp2B6,
    /// CYP2C9 — torsemide, diclofenac.
    Cyp2C9,
    /// CYP2E1 — p-nitrophenol.
    Cyp2E1,
}

impl CypIsoform {
    /// All isoforms in Table II order.
    pub const ALL: [CypIsoform; 7] = [
        CypIsoform::Cyp1A2,
        CypIsoform::Cyp3A4,
        CypIsoform::Cyp11A1,
        CypIsoform::Cyp2B4,
        CypIsoform::Cyp2B6,
        CypIsoform::Cyp2C9,
        CypIsoform::Cyp2E1,
    ];

    /// The drugs this isoform detects (Table II).
    pub fn substrates(self) -> Vec<Analyte> {
        cyp_rows(self).map(|r| r.target).collect()
    }
}

impl core::fmt::Display for CypIsoform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CypIsoform::Cyp1A2 => "CYP1A2",
            CypIsoform::Cyp3A4 => "CYP3A4",
            CypIsoform::Cyp11A1 => "CYP11A1",
            CypIsoform::Cyp2B4 => "CYP2B4",
            CypIsoform::Cyp2B6 => "CYP2B6",
            CypIsoform::Cyp2C9 => "CYP2C9",
            CypIsoform::Cyp2E1 => "CYP2E1",
        };
        f.write_str(s)
    }
}

/// Default catalytic sensitivity for Table II drugs that Table III does not
/// quantify, in µA/(mM·cm²) (documented substitution: a modest mid-range
/// value between benzphetamine's 0.28 and aminopyrine's 2.8).
pub(crate) const DEFAULT_CYP_SENSITIVITY_UA: f64 = 0.8;

/// Critical scan rate above which catalytic peaks start drifting cathodically
/// (Laviron kinetics). The paper's §II-C guidance — "the electrochemical cell
/// reacts only to slow potential variations of about 20 mV/sec" — maps to
/// staying below this.
pub(crate) const PEAK_SHIFT_CRITICAL_RATE: VoltsPerSecond = VoltsPerSecond::new(0.030);

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct CypSubstrate {
    analyte: Analyte,
    peak_potential: Volts,
    sensitivity_si: f64, // A/(M·cm²)
    kinetics: MichaelisMenten,
    blank_sd: AmpsPerCm2,
}

/// A calibrated cytochrome P450 voltammetric sensor.
///
/// # Example
///
/// ```
/// use bios_biochem::{Analyte, CypIsoform, CypSensor};
/// use bios_units::{Molar, T_ROOM, Volts, VoltsPerSecond};
///
/// # fn main() -> Result<(), bios_biochem::BiochemError> {
/// let sensor = CypSensor::from_registry(CypIsoform::Cyp2B4)?;
/// let rate = VoltsPerSecond::from_millivolts_per_second(20.0);
/// // At benzphetamine's reduction potential the cathodic current grows
/// // with the drug concentration.
/// let concs = [(Analyte::Benzphetamine, Molar::from_millimolar(1.0))];
/// let j = sensor.current_density(Volts::new(-0.25), rate, false, &concs, T_ROOM);
/// assert!(j.value() < 0.0); // cathodic
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CypSensor {
    isoform: CypIsoform,
    coverage: MolesPerCm2,
    substrates: Vec<CypSubstrate>,
}

impl CypSensor {
    /// Builds the sensor for an isoform from the registry: peak potentials
    /// from Table II; sensitivity/`Km`/blank noise from Table III where
    /// available, defaults otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`BiochemError::UnsupportedAnalyte`] if the isoform has no
    /// Table II substrates (cannot happen for the shipped variants).
    pub fn from_registry(isoform: CypIsoform) -> Result<Self, BiochemError> {
        let mut substrates = Vec::new();
        for row in cyp_rows(isoform) {
            let (sensitivity_si, km, blank_sd) = match performance_of(row.target) {
                Some(perf) => (perf.sensitivity_si(), perf.km_apparent(), perf.blank_sd()),
                None => {
                    let s = DEFAULT_CYP_SENSITIVITY_UA * 1e-3;
                    let km = MichaelisMenten::from_linear_limit(
                        row.target.typical_range().hi(),
                        crate::tables::LINEARITY_TOLERANCE,
                    )
                    .km();
                    // Default blank noise equivalent to a 2 µM LOD.
                    (s, km, AmpsPerCm2::new(2e-6 * s / 3.0))
                }
            };
            substrates.push(CypSubstrate {
                analyte: row.target,
                peak_potential: row.reduction_potential,
                sensitivity_si,
                kinetics: MichaelisMenten::new(km)?,
                blank_sd,
            });
        }
        if substrates.is_empty() {
            return Err(BiochemError::UnsupportedAnalyte {
                probe: isoform.to_string(),
                analyte: "(none)".to_string(),
            });
        }
        Ok(Self {
            isoform,
            coverage: MolesPerCm2::from_picomoles_per_cm2(2.0),
            substrates,
        })
    }

    /// The isoform.
    pub fn isoform(&self) -> CypIsoform {
        self.isoform
    }

    /// The analytes this sensor can report.
    pub fn substrates(&self) -> impl Iterator<Item = Analyte> + '_ {
        self.substrates.iter().map(|s| s.analyte)
    }

    /// Catalytic sensitivity for `analyte` in A/(M·cm²).
    pub fn sensitivity_si(&self, analyte: Analyte) -> Option<f64> {
        self.find(analyte).map(|s| s.sensitivity_si)
    }

    /// Blank current-density noise SD for `analyte`'s peak readout.
    pub fn blank_sd(&self, analyte: Analyte) -> Option<AmpsPerCm2> {
        self.find(analyte).map(|s| s.blank_sd)
    }

    /// The Michaelis–Menten law for `analyte`.
    pub fn kinetics(&self, analyte: Analyte) -> Option<&MichaelisMenten> {
        self.find(analyte).map(|s| &s.kinetics)
    }

    /// Expected cathodic peak potential for `analyte` at scan rate `v`,
    /// including the Laviron drift that sets in above
    /// `PEAK_SHIFT_CRITICAL_RATE` — the quantitative form of the paper's
    /// 20 mV/s guidance.
    pub fn peak_potential(
        &self,
        analyte: Analyte,
        scan_rate: VoltsPerSecond,
        temperature: Kelvin,
    ) -> Option<Volts> {
        let sub = self.find(analyte)?;
        Some(Volts::new(
            sub.peak_potential.value() - self.laviron_shift(scan_rate, temperature),
        ))
    }

    /// The ideal (slow-scan) peak potential from Table II.
    pub fn nominal_peak_potential(&self, analyte: Analyte) -> Option<Volts> {
        self.find(analyte).map(|s| s.peak_potential)
    }

    /// Potential window that covers every substrate peak with 150 mV of
    /// margin on each side — the CV program the platform schedules.
    pub fn recommended_window(&self) -> (Volts, Volts) {
        let lo = self
            .substrates
            .iter()
            .map(|s| s.peak_potential.value())
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .substrates
            .iter()
            .map(|s| s.peak_potential.value())
            .fold(f64::NEG_INFINITY, f64::max);
        (Volts::new(hi + 0.15), Volts::new(lo - 0.15))
    }

    /// Total cathodic current density at potential `e` during a sweep.
    ///
    /// The signal is the sum of the heme baseline wave (sign follows the
    /// sweep direction) and, on cathodic sweeps, one catalytic peak per
    /// substrate at its Table II potential with amplitude
    /// `S·Km·C/(Km + C)` and the ideal surface-wave line shape.
    ///
    /// A sweep evaluating a fixed potential trace under several drug
    /// panels should call [`CypSensor::line_shapes`] once, [`CypSensor::sweep`]
    /// once per panel, and [`CypSweep::current_density_planned`] per point;
    /// all give the same bits.
    pub fn current_density(
        &self,
        e: Volts,
        scan_rate: VoltsPerSecond,
        direction_up: bool,
        concentrations: &[(Analyte, Molar)],
        temperature: Kelvin,
    ) -> AmpsPerCm2 {
        self.baseline(scan_rate, temperature).current_density(
            e,
            direction_up,
            self.catalytic_waves(scan_rate, concentrations, temperature),
        )
    }

    /// Prepares [`CypSensor::current_density`] for one sweep: everything
    /// that does not depend on the potential or the sweep direction (heme
    /// centre, baseline scale, Laviron shift, each present substrate's
    /// amplitude and peak) is evaluated here, once.
    pub fn sweep(
        &self,
        scan_rate: VoltsPerSecond,
        concentrations: &[(Analyte, Molar)],
        temperature: Kelvin,
    ) -> CypSweep {
        CypSweep {
            baseline: self.baseline(scan_rate, temperature),
            waves: self
                .catalytic_waves(scan_rate, concentrations, temperature)
                .collect(),
        }
    }

    fn baseline(&self, scan_rate: VoltsPerSecond, temperature: Kelvin) -> HemeBaseline {
        let rt = GAS_CONSTANT * temperature.value();
        // Baseline heme wave centred at the mean substrate potential.
        let e_heme = self
            .substrates
            .iter()
            .map(|s| s.peak_potential.value())
            .sum::<f64>()
            / self.substrates.len() as f64;
        HemeBaseline {
            rt,
            e_heme,
            scale: FARADAY * FARADAY / rt * self.coverage.value() * scan_rate.value(),
        }
    }

    /// The catalytic peaks of the substrates present at a positive
    /// concentration, in sensor order.
    fn catalytic_waves<'a>(
        &'a self,
        scan_rate: VoltsPerSecond,
        concentrations: &'a [(Analyte, Molar)],
        temperature: Kelvin,
    ) -> impl Iterator<Item = CatalyticWave> + 'a {
        let shift = self.laviron_shift(scan_rate, temperature);
        self.substrates
            .iter()
            .enumerate()
            .filter_map(move |(substrate, sub)| {
                let c = concentrations
                    .iter()
                    .find(|(a, _)| *a == sub.analyte)
                    .map(|(_, c)| *c)
                    .unwrap_or(Molar::ZERO);
                if c.value() <= 0.0 {
                    return None;
                }
                Some(CatalyticWave {
                    amplitude: sub.sensitivity_si
                        * sub.kinetics.km().value()
                        * sub.kinetics.saturation(c),
                    e_peak: sub.peak_potential.value() - shift,
                    substrate,
                })
            })
    }

    /// The sweep's line shapes at every point of an applied-potential
    /// trace: the heme wave's, and each substrate's catalytic wave's at
    /// its Laviron-shifted peak. They depend on the potential, the scan
    /// rate and the temperature, but not on the drug panel, so a CV plan
    /// computes them once and every [`CypSweep::current_density_planned`]
    /// of a sweep at the same scan rate and temperature reads them.
    // advdiag::cold(CV planning: runs once per applied-potential trace, before
    // any sample is taken)
    pub fn line_shapes(
        &self,
        scan_rate: VoltsPerSecond,
        temperature: Kelvin,
        applied: &[Volts],
    ) -> CypLineShapes {
        let baseline = self.baseline(scan_rate, temperature);
        let shift = self.laviron_shift(scan_rate, temperature);
        let substrates = self.substrates.len();
        let mut heme = Vec::with_capacity(applied.len());
        let mut catalytic = Vec::with_capacity(applied.len() * substrates);
        for e in applied {
            heme.push(baseline.shape(*e));
            for sub in &self.substrates {
                let e_peak = sub.peak_potential.value() - shift;
                catalytic.push(catalytic_shape(*e, e_peak, baseline.rt));
            }
        }
        CypLineShapes {
            substrates,
            heme,
            catalytic,
        }
    }

    fn find(&self, analyte: Analyte) -> Option<&CypSubstrate> {
        self.substrates.iter().find(|s| s.analyte == analyte)
    }

    /// Cathodic peak drift beyond the critical scan rate (V).
    fn laviron_shift(&self, scan_rate: VoltsPerSecond, temperature: Kelvin) -> f64 {
        let ratio = scan_rate.value() / PEAK_SHIFT_CRITICAL_RATE.value();
        if ratio <= 1.0 {
            0.0
        } else {
            // RT/(αF)·ln(v/v_c) with α = 0.5.
            2.0 * GAS_CONSTANT * temperature.value() / FARADAY * ratio.ln()
        }
    }
}

/// The sweep-invariant part of the heme baseline wave.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HemeBaseline {
    rt: f64,
    e_heme: f64,
    /// `F²/RT·Γ·v`: the wave's magnitude before its line shape.
    scale: f64,
}

impl HemeBaseline {
    /// Total current density at `e`; `waves` are consumed on the cathodic
    /// (`direction_up == false`) sweep only.
    fn current_density(
        &self,
        e: Volts,
        direction_up: bool,
        waves: impl IntoIterator<Item = CatalyticWave>,
    ) -> AmpsPerCm2 {
        let base_mag = self.scale * self.shape(e);
        let mut j = if direction_up { base_mag } else { -base_mag };
        if !direction_up {
            for wave in waves {
                j -= wave.amplitude * catalytic_shape(e, wave.e_peak, self.rt);
            }
        }
        AmpsPerCm2::new(j)
    }

    /// The heme wave's line shape at `e`, before its magnitude.
    fn shape(&self, e: Volts) -> f64 {
        let xi = (FARADAY * (e.value() - self.e_heme) / self.rt).clamp(-200.0, 200.0);
        xi.exp() / (1.0 + xi.exp()).powi(2)
    }
}

/// A catalytic wave's line shape at `e` for a peak at `e_peak`.
///
/// Two-electron catalytic wave (paper eq. 4: substrate + O₂ + 2H⁺ + 2e⁻ →
/// product + H₂O), so the line shape uses n = 2 — FWHM ≈ 45 mV, which is
/// what lets CYP2B4 resolve benzphetamine (−250 mV) from aminopyrine
/// (−400 mV). Normalized to 1 at the peak (4× the logistic product).
fn catalytic_shape(e: Volts, e_peak: f64, rt: f64) -> f64 {
    let xi_c = (2.0 * FARADAY * (e.value() - e_peak) / rt).clamp(-200.0, 200.0);
    4.0 * xi_c.exp() / (1.0 + xi_c.exp()).powi(2)
}

/// One catalytic peak of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CatalyticWave {
    /// `S·Km·C/(Km + C)`, A/cm².
    amplitude: f64,
    /// Peak potential after the Laviron shift, V.
    e_peak: f64,
    /// The substrate's index in sensor order.
    substrate: usize,
}

/// [`CypSensor::current_density`] prepared for one sweep (fixed scan rate,
/// drug panel and temperature) by [`CypSensor::sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct CypSweep {
    baseline: HemeBaseline,
    waves: Vec<CatalyticWave>,
}

impl CypSweep {
    /// Total current density at point `k` of the trace `shapes` was
    /// computed over; catalytic peaks appear on the cathodic
    /// (`direction_up == false`) sweep only. `shapes` must come from
    /// [`CypSensor::line_shapes`] of this sweep's sensor, scan rate and
    /// temperature; the result is then the same bits as
    /// [`CypSensor::current_density`] at the trace's `k`-th potential.
    pub fn current_density_planned(
        &self,
        shapes: &CypLineShapes,
        k: usize,
        direction_up: bool,
    ) -> AmpsPerCm2 {
        let base_mag = self.baseline.scale * shapes.heme[k];
        let mut j = if direction_up { base_mag } else { -base_mag };
        if !direction_up {
            let row = &shapes.catalytic[k * shapes.substrates..(k + 1) * shapes.substrates];
            for wave in &self.waves {
                j -= wave.amplitude * row[wave.substrate];
            }
        }
        AmpsPerCm2::new(j)
    }
}

/// A CYP sweep's line shapes over one applied-potential trace, from
/// [`CypSensor::line_shapes`]: flat per-point arrays, the catalytic ones
/// point-major with one entry per substrate in sensor order.
#[derive(Debug, Clone, PartialEq)]
pub struct CypLineShapes {
    substrates: usize,
    heme: Vec<f64>,
    catalytic: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_units::T_ROOM;

    fn slow() -> VoltsPerSecond {
        VoltsPerSecond::from_millivolts_per_second(20.0)
    }

    #[test]
    fn every_isoform_builds_from_registry() {
        for iso in CypIsoform::ALL {
            let s = CypSensor::from_registry(iso).expect("registry");
            assert!(s.substrates().count() >= 1, "{iso}");
        }
    }

    #[test]
    fn cyp2b4_detects_two_drugs() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        assert_eq!(
            s.nominal_peak_potential(Analyte::Benzphetamine),
            Some(Volts::new(-0.250))
        );
        assert_eq!(
            s.nominal_peak_potential(Analyte::Aminopyrine),
            Some(Volts::new(-0.400))
        );
    }

    #[test]
    fn slow_scan_peaks_sit_at_table_ii_potentials() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        let e = s
            .peak_potential(Analyte::Benzphetamine, slow(), T_ROOM)
            .expect("substrate");
        assert_eq!(e, Volts::new(-0.250));
    }

    #[test]
    fn fast_scans_shift_peaks_cathodically() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        let nominal = s
            .nominal_peak_potential(Analyte::Benzphetamine)
            .expect("substrate");
        let fast = s
            .peak_potential(
                Analyte::Benzphetamine,
                VoltsPerSecond::from_millivolts_per_second(200.0),
                T_ROOM,
            )
            .expect("substrate");
        assert!(
            (nominal - fast).as_millivolts() > 50.0,
            "fast scan must drift; drift = {}",
            (nominal - fast).as_millivolts()
        );
    }

    #[test]
    fn catalytic_peak_grows_with_concentration() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        let e = Volts::new(-0.25);
        let j1 = s.current_density(
            e,
            slow(),
            false,
            &[(Analyte::Benzphetamine, Molar::from_millimolar(0.4))],
            T_ROOM,
        );
        let j2 = s.current_density(
            e,
            slow(),
            false,
            &[(Analyte::Benzphetamine, Molar::from_millimolar(0.8))],
            T_ROOM,
        );
        assert!(j2.value() < j1.value(), "more drug → more cathodic current");
        // Approximately doubles in the linear regime.
        let s_blank = s.current_density(e, slow(), false, &[], T_ROOM);
        let r = (j2.value() - s_blank.value()) / (j1.value() - s_blank.value());
        assert!((r - 2.0).abs() < 0.1, "ratio {r}");
    }

    #[test]
    fn two_drugs_give_two_separated_peaks() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        let concs = [
            (Analyte::Benzphetamine, Molar::from_millimolar(1.0)),
            (Analyte::Aminopyrine, Molar::from_millimolar(4.0)),
        ];
        // Scan the window and find local cathodic maxima.
        let mut js = Vec::new();
        for k in 0..=700 {
            let e = Volts::new(-0.65 + 1e-3 * k as f64);
            js.push((
                e,
                s.current_density(e, slow(), false, &concs, T_ROOM).value(),
            ));
        }
        let mut minima = Vec::new();
        for w in 2..js.len() - 2 {
            if js[w].1 < js[w - 1].1
                && js[w].1 < js[w + 1].1
                && js[w].1 < js[w - 2].1
                && js[w].1 < js[w + 2].1
            {
                minima.push(js[w].0);
            }
        }
        assert_eq!(
            minima.len(),
            2,
            "expected two catalytic peaks, got {minima:?}"
        );
        assert!(
            (minima[0].as_millivolts() + 400.0).abs() < 15.0,
            "{:?}",
            minima[0]
        );
        assert!(
            (minima[1].as_millivolts() + 250.0).abs() < 15.0,
            "{:?}",
            minima[1]
        );
    }

    #[test]
    fn anodic_sweep_has_no_catalytic_peaks() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        let j = s.current_density(
            Volts::new(-0.25),
            slow(),
            true,
            &[(Analyte::Benzphetamine, Molar::from_millimolar(1.0))],
            T_ROOM,
        );
        assert!(
            j.value() > 0.0,
            "upward sweep carries only the anodic baseline"
        );
    }

    #[test]
    fn recommended_window_covers_all_peaks() {
        let s = CypSensor::from_registry(CypIsoform::Cyp3A4).expect("registry");
        let (start, vertex) = s.recommended_window();
        assert!(start.value() > -0.625 + 0.1);
        assert!(vertex.value() < -0.750 - 0.1);
    }

    #[test]
    fn table_iii_sensitivities_flow_through() {
        let s = CypSensor::from_registry(CypIsoform::Cyp2B4).expect("registry");
        assert!(
            (s.sensitivity_si(Analyte::Benzphetamine).expect("substrate") - 0.28e-3).abs() < 1e-12
        );
        assert!(
            (s.sensitivity_si(Analyte::Aminopyrine).expect("substrate") - 2.8e-3).abs() < 1e-12
        );
        // Unquantified drug gets the documented default.
        let s2 = CypSensor::from_registry(CypIsoform::Cyp1A2).expect("registry");
        assert!(
            (s2.sensitivity_si(Analyte::Clozapine).expect("substrate")
                - DEFAULT_CYP_SENSITIVITY_UA * 1e-3)
                .abs()
                < 1e-12
        );
    }

    /// The per-point formula as written before sweeps were prepared, kept
    /// as the reference the prepared evaluator must match bit for bit.
    fn reference_density(
        s: &CypSensor,
        e: Volts,
        scan_rate: VoltsPerSecond,
        direction_up: bool,
        concentrations: &[(Analyte, Molar)],
        temperature: Kelvin,
    ) -> f64 {
        let rt = GAS_CONSTANT * temperature.value();
        let e_heme = s
            .substrates
            .iter()
            .map(|s| s.peak_potential.value())
            .sum::<f64>()
            / s.substrates.len() as f64;
        let xi = (FARADAY * (e.value() - e_heme) / rt).clamp(-200.0, 200.0);
        let shape = xi.exp() / (1.0 + xi.exp()).powi(2);
        let base_mag = FARADAY * FARADAY / rt * s.coverage.value() * scan_rate.value() * shape;
        let mut j = if direction_up { base_mag } else { -base_mag };
        if !direction_up {
            let shift = s.laviron_shift(scan_rate, temperature);
            for sub in &s.substrates {
                let c = concentrations
                    .iter()
                    .find(|(a, _)| *a == sub.analyte)
                    .map(|(_, c)| *c)
                    .unwrap_or(Molar::ZERO);
                if c.value() <= 0.0 {
                    continue;
                }
                let amplitude =
                    sub.sensitivity_si * sub.kinetics.km().value() * sub.kinetics.saturation(c);
                let e_peak = sub.peak_potential.value() - shift;
                let xi_c = (2.0 * FARADAY * (e.value() - e_peak) / rt).clamp(-200.0, 200.0);
                let shape_c = 4.0 * xi_c.exp() / (1.0 + xi_c.exp()).powi(2);
                j -= amplitude * shape_c;
            }
        }
        j
    }

    #[test]
    fn prepared_sweep_matches_reference_bit_for_bit() {
        let rates = [slow(), VoltsPerSecond::from_millivolts_per_second(200.0)];
        // A staircase trace like a planned CV's applied potentials.
        let trace: Vec<Volts> = (0..=300)
            .map(|k| Volts::new(0.2 - 3e-3 * k as f64))
            .collect();
        for iso in CypIsoform::ALL {
            let s = CypSensor::from_registry(iso).expect("registry");
            let panels: [Vec<(Analyte, Molar)>; 2] = [
                // Present, absent and zero-concentration substrates.
                s.substrates()
                    .enumerate()
                    .map(|(k, a)| (a, Molar::from_millimolar(0.7 * k as f64)))
                    .collect(),
                // Every substrate present, in reverse order.
                s.substrates()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .map(|a| (a, Molar::from_millimolar(1.3)))
                    .collect(),
            ];
            for rate in rates {
                let shapes = s.line_shapes(rate, T_ROOM, &trace);
                for concs in &panels {
                    let sweep = s.sweep(rate, concs, T_ROOM);
                    for (k, e) in trace.iter().enumerate() {
                        for up in [false, true] {
                            let want = reference_density(&s, *e, rate, up, concs, T_ROOM);
                            let planned = sweep.current_density_planned(&shapes, k, up).value();
                            let direct = s.current_density(*e, rate, up, concs, T_ROOM).value();
                            assert_eq!(planned.to_bits(), want.to_bits(), "{iso} {e:?} {up}");
                            assert_eq!(direct.to_bits(), want.to_bits(), "{iso} {e:?} {up}");
                        }
                    }
                }
            }
        }
    }
}
