//! The concrete quantity newtypes used across the workspace.

quantity! {
    /// Electric potential in volts.
    ///
    /// Electrode potentials in this workspace are always expressed **versus
    /// the Ag/AgCl reference electrode**, matching the paper's tables.
    Volts, "V",
    scaled {
        /// Constructs from millivolts.
        from_millivolts / as_millivolts: 1e-3,
        /// Constructs from microvolts.
        from_microvolts / as_microvolts: 1e-6,
    }
}

quantity! {
    /// Electric current in amperes.
    Amps, "A",
    scaled {
        /// Constructs from milliamperes.
        from_milliamps / as_milliamps: 1e-3,
        /// Constructs from microamperes.
        from_microamps / as_microamps: 1e-6,
        /// Constructs from nanoamperes.
        from_nanoamps / as_nanoamps: 1e-9,
        /// Constructs from picoamperes.
        from_picoamps / as_picoamps: 1e-12,
    }
}

quantity! {
    /// Time in seconds.
    Seconds, "s",
    scaled {
        /// Constructs from milliseconds.
        from_millis / as_millis: 1e-3,
        /// Constructs from microseconds.
        from_micros / as_micros: 1e-6,
        /// Constructs from minutes.
        from_minutes / as_minutes: 60.0,
        /// Constructs from hours.
        from_hours / as_hours: 3600.0,
    }
}

quantity! {
    /// Frequency in hertz.
    Hertz, "Hz",
    scaled {
        /// Constructs from kilohertz.
        from_kilohertz / as_kilohertz: 1e3,
        /// Constructs from megahertz.
        from_megahertz / as_megahertz: 1e6,
    }
}

quantity! {
    /// Electrical resistance in ohms.
    Ohms, "Ω",
    scaled {
        /// Constructs from kiloohms.
        from_kiloohms / as_kiloohms: 1e3,
        /// Constructs from megaohms.
        from_megaohms / as_megaohms: 1e6,
    }
}

quantity! {
    /// Capacitance in farads.
    Farads, "F",
    scaled {
        /// Constructs from microfarads.
        from_microfarads / as_microfarads: 1e-6,
        /// Constructs from nanofarads.
        from_nanofarads / as_nanofarads: 1e-9,
        /// Constructs from picofarads.
        from_picofarads / as_picofarads: 1e-12,
    }
}

quantity! {
    /// Electric charge in coulombs.
    Coulombs, "C",
    scaled {
        /// Constructs from microcoulombs.
        from_microcoulombs / as_microcoulombs: 1e-6,
        /// Constructs from nanocoulombs.
        from_nanocoulombs / as_nanocoulombs: 1e-9,
    }
}

quantity! {
    /// Thermodynamic temperature in kelvin.
    Kelvin, "K"
}

impl Kelvin {
    /// Constructs from a temperature in degrees Celsius.
    ///
    /// # Example
    ///
    /// ```
    /// use bios_units::Kelvin;
    /// assert_eq!(Kelvin::from_celsius(25.0), Kelvin::new(298.15));
    /// ```
    pub fn from_celsius(celsius: f64) -> Self {
        Self::new(celsius + 273.15)
    }

    /// Returns the temperature in degrees Celsius.
    pub fn as_celsius(self) -> f64 {
        self.value() - 273.15
    }
}

quantity! {
    /// Power in watts.
    Watts, "W",
    scaled {
        /// Constructs from milliwatts.
        from_milliwatts / as_milliwatts: 1e-3,
        /// Constructs from microwatts.
        from_microwatts / as_microwatts: 1e-6,
        /// Constructs from nanowatts.
        from_nanowatts / as_nanowatts: 1e-9,
    }
}

quantity! {
    /// Energy in joules.
    Joules, "J",
    scaled {
        /// Constructs from millijoules.
        from_millijoules / as_millijoules: 1e-3,
        /// Constructs from microjoules.
        from_microjoules / as_microjoules: 1e-6,
    }
}

quantity! {
    /// Amount-of-substance concentration in mol/L (molarity).
    ///
    /// The paper reports analyte levels in mM and µM; use
    /// [`Molar::from_millimolar`] and [`Molar::from_micromolar`].
    Molar, "M",
    scaled {
        /// Constructs from millimolar (mmol/L).
        from_millimolar / as_millimolar: 1e-3,
        /// Constructs from micromolar (µmol/L).
        from_micromolar / as_micromolar: 1e-6,
        /// Constructs from nanomolar (nmol/L).
        from_nanomolar / as_nanomolar: 1e-9,
    }
}

impl Molar {
    /// Converts to a volume concentration in mol/cm³ (1 L = 1000 cm³).
    pub fn to_moles_per_cm3(self) -> MolesPerCm3 {
        MolesPerCm3::new(self.value() * 1e-3)
    }
}

quantity! {
    /// Amount of substance in moles.
    Moles, "mol",
    scaled {
        /// Constructs from millimoles.
        from_millimoles / as_millimoles: 1e-3,
        /// Constructs from micromoles.
        from_micromoles / as_micromoles: 1e-6,
        /// Constructs from nanomoles.
        from_nanomoles / as_nanomoles: 1e-9,
    }
}

quantity! {
    /// Length in centimetres (the conventional electrochemistry length unit).
    Centimeters, "cm",
    scaled {
        /// Constructs from millimetres.
        from_millimeters / as_millimeters: 0.1,
        /// Constructs from micrometres.
        from_micrometers / as_micrometers: 1e-4,
    }
}

quantity! {
    /// Area in cm² (electrode areas).
    SquareCentimeters, "cm²",
    scaled {
        /// Constructs from mm².
        from_square_millimeters / as_square_millimeters: 1e-2,
        /// Constructs from µm².
        from_square_micrometers / as_square_micrometers: 1e-8,
    }
}

quantity! {
    /// Diffusion coefficient in cm²/s.
    ///
    /// Typical small molecules in aqueous solution are in the range
    /// 10⁻⁶–10⁻⁵ cm²/s; H₂O₂ is ≈1.7·10⁻⁵ cm²/s.
    DiffusionCoefficient, "cm²/s"
}

quantity! {
    /// Potential scan rate in V/s (cyclic voltammetry).
    VoltsPerSecond, "V/s",
    scaled {
        /// Constructs from mV/s — the paper's ≈20 mV/s guidance uses this.
        from_millivolts_per_second / as_millivolts_per_second: 1e-3,
    }
}

quantity! {
    /// Current density in A/cm².
    AmpsPerCm2, "A/cm²",
    scaled {
        /// Constructs from mA/cm².
        from_milliamps_per_cm2 / as_milliamps_per_cm2: 1e-3,
        /// Constructs from µA/cm².
        from_microamps_per_cm2 / as_microamps_per_cm2: 1e-6,
        /// Constructs from nA/cm².
        from_nanoamps_per_cm2 / as_nanoamps_per_cm2: 1e-9,
    }
}

quantity! {
    /// Area-specific capacitance in F/cm² (double-layer capacitance).
    FaradsPerCm2, "F/cm²",
    scaled {
        /// Constructs from µF/cm² — double layers are typically 10–40 µF/cm².
        from_microfarads_per_cm2 / as_microfarads_per_cm2: 1e-6,
    }
}

quantity! {
    /// Surface coverage in mol/cm² (immobilized enzyme loading).
    MolesPerCm2, "mol/cm²",
    scaled {
        /// Constructs from nmol/cm².
        from_nanomoles_per_cm2 / as_nanomoles_per_cm2: 1e-9,
        /// Constructs from pmol/cm² — enzyme monolayers are typically 1–100 pmol/cm².
        from_picomoles_per_cm2 / as_picomoles_per_cm2: 1e-12,
    }
}

quantity! {
    /// Areal molar flux in mol/(cm²·s) (enzymatic product generation).
    MolesPerCm2PerSecond, "mol/(cm²·s)"
}

quantity! {
    /// Volume concentration in mol/cm³ (the diffusion solver's native unit).
    MolesPerCm3, "mol/cm³"
}

quantity! {
    /// Volume in litres.
    Liters, "L",
    scaled {
        /// Constructs from millilitres.
        from_milliliters / as_milliliters: 1e-3,
        /// Constructs from microlitres.
        from_microliters / as_microliters: 1e-6,
    }
}

// Dimensional algebra ------------------------------------------------------

qprod!(Amps, Ohms => Volts);
qprod!(Volts, Amps => Watts);
qprod!(Amps, Seconds => Coulombs);
qprod!(Volts, Farads => Coulombs);
qprod!(VoltsPerSecond, Seconds => Volts);
qprod!(AmpsPerCm2, SquareCentimeters => Amps);
qprod!(FaradsPerCm2, SquareCentimeters => Farads);
qprod!(Molar, Liters => Moles);
qprod!(Watts, Seconds => Joules);
qprod!(MolesPerCm2PerSecond, Seconds => MolesPerCm2);
qprod!(MolesPerCm3, Centimeters => MolesPerCm2);
qsquare!(Centimeters => SquareCentimeters);

impl Hertz {
    /// Returns the period `1/f`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn period(self) -> Seconds {
        assert!(
            // advdiag::allow(F1, exact sentinel: only an exactly-zero frequency has no period)
            self.value() != 0.0,
            "cannot take the period of zero frequency"
        );
        Seconds::new(1.0 / self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_constructors_round_trip() {
        let v = Volts::from_millivolts(-625.0);
        assert!((v.value() + 0.625).abs() < 1e-15);
        assert!((v.as_millivolts() + 625.0).abs() < 1e-12);

        let i = Amps::from_nanoamps(10.0);
        assert!((i.value() - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn arithmetic_preserves_dimension() {
        let a = Volts::new(0.55) + Volts::new(0.1);
        assert!((a.value() - 0.65).abs() < 1e-12);
        let b = a - Volts::new(0.65);
        assert!(b.abs().value() < 1e-12);
        assert_eq!((-Volts::new(1.0)).value(), -1.0);
        assert_eq!((Volts::new(2.0) * 3.0).value(), 6.0);
        assert_eq!((3.0 * Volts::new(2.0)).value(), 6.0);
        assert_eq!((Volts::new(6.0) / 3.0).value(), 2.0);
        assert_eq!(Volts::new(6.0) / Volts::new(3.0), 2.0);
    }

    #[test]
    fn ohms_law_products() {
        let v = Amps::from_microamps(10.0) * Ohms::from_kiloohms(100.0);
        assert!((v.value() - 1.0).abs() < 1e-12);
        let i = Volts::new(1.0) / Ohms::from_kiloohms(100.0);
        assert!((i.as_microamps() - 10.0).abs() < 1e-9);
        let r = Volts::new(1.0) / Amps::from_microamps(10.0);
        assert!((r.as_kiloohms() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn charge_power_energy_products() {
        let q = Amps::new(2.0) * Seconds::new(3.0);
        assert_eq!(q.value(), 6.0);
        let q2 = Volts::new(5.0) * Farads::from_microfarads(1.0);
        assert!((q2.as_microcoulombs() - 5.0).abs() < 1e-9);
        let p = Volts::new(2.0) * Amps::new(0.5);
        assert_eq!(p.value(), 1.0);
        let e = Watts::new(2.0) * Seconds::new(4.0);
        assert_eq!(e.value(), 8.0);
    }

    #[test]
    fn concentration_conversions() {
        let c = Molar::from_millimolar(4.0);
        let vol = c.to_moles_per_cm3();
        assert!((vol.value() - 4e-6).abs() < 1e-18);
        let n = Molar::from_millimolar(1.0) * Liters::from_milliliters(2.0);
        assert!((n.as_micromoles() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geometry_products() {
        let area = Centimeters::new(0.5) * Centimeters::new(0.2);
        assert!((area.value() - 0.1).abs() < 1e-12);
        // Paper's electrode area: 0.23 mm².
        let we = SquareCentimeters::from_square_millimeters(0.23);
        assert!((we.value() - 0.0023).abs() < 1e-12);
        let i = AmpsPerCm2::from_microamps_per_cm2(100.0) * we;
        assert!((i.as_nanoamps() - 230.0).abs() < 1e-6);
    }

    #[test]
    fn frequency_period_reciprocal() {
        assert!((Hertz::new(50.0).period().as_millis() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn scan_rate_times_time_is_potential() {
        let rate = VoltsPerSecond::from_millivolts_per_second(20.0);
        let v = rate * Seconds::new(10.0);
        assert!((v.as_millivolts() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_clamp_lerp() {
        let a = Volts::new(1.0);
        let b = Volts::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Volts::new(3.0).clamp(a, b), b);
        assert_eq!(a.lerp(b, 0.5), Volts::new(1.5));
    }

    #[test]
    fn sum_iterators() {
        let parts = [Amps::new(1.0), Amps::new(2.0), Amps::new(3.0)];
        let owned: Amps = parts.iter().copied().sum();
        let borrowed: Amps = parts.iter().sum();
        assert_eq!(owned.value(), 6.0);
        assert_eq!(borrowed.value(), 6.0);
    }

    #[test]
    fn celsius_round_trip() {
        let t = Kelvin::from_celsius(37.0);
        assert!((t.value() - 310.15).abs() < 1e-12);
        assert!((t.as_celsius() - 37.0).abs() < 1e-12);
    }

    #[test]
    fn serde_transparent() {
        let v = Volts::from_millivolts(650.0);
        // serde_transparent means the wire format is a bare number; emulate by
        // checking Debug of the inner value via round-trip through f64.
        assert_eq!(Volts::new(v.value()), v);
    }

    #[test]
    fn display_uses_si_prefix() {
        assert_eq!(format!("{}", Amps::from_nanoamps(250.0)), "250 nA");
        assert_eq!(format!("{}", Volts::from_millivolts(-625.0)), "-625 mV");
        assert_eq!(format!("{}", Molar::from_micromolar(575.0)), "575 µM");
    }

    #[test]
    fn parse_round_trips() {
        let v: Volts = "-625 mV".parse().expect("parse failed");
        assert!((v.as_millivolts() + 625.0).abs() < 1e-9);
        let i: Amps = "10 nA".parse().expect("parse failed");
        assert!((i.as_nanoamps() - 10.0).abs() < 1e-9);
        let r: Ohms = "1.5 MΩ".parse().expect("parse failed");
        assert!((r.as_megaohms() - 1.5).abs() < 1e-9);
    }
}
