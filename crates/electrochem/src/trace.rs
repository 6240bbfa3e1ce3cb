//! Recorded signals: current transients and voltammograms.

use bios_units::{Amps, Seconds, Volts};

/// A sampled current-vs-time record (chronoamperometry output).
///
/// Sign convention: anodic (oxidation) currents are positive, cathodic
/// (reduction) currents negative, following IUPAC.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Transient {
    time: Vec<Seconds>,
    current: Vec<Amps>,
}

impl Transient {
    /// Creates an empty transient.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a transient from parallel sample vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_samples(time: Vec<Seconds>, current: Vec<Amps>) -> Self {
        assert_eq!(time.len(), current.len(), "sample vectors must align");
        Self { time, current }
    }

    /// Appends one sample.
    pub fn push(&mut self, t: Seconds, i: Amps) {
        self.time.push(t);
        self.current.push(i);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the transient has no samples.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Time stamps.
    pub fn time(&self) -> &[Seconds] {
        &self.time
    }

    /// Current samples.
    pub fn current(&self) -> &[Amps] {
        &self.current
    }

    /// Iterates over `(t, i)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, Amps)> + '_ {
        self.time.iter().copied().zip(self.current.iter().copied())
    }

    /// The final sample, if any.
    pub fn last(&self) -> Option<(Seconds, Amps)> {
        Some((*self.time.last()?, *self.current.last()?))
    }

    /// Linear interpolation of the current at time `t`.
    ///
    /// Clamps to the first/last sample outside the record; returns `None`
    /// for an empty record.
    pub fn current_at(&self, t: Seconds) -> Option<Amps> {
        if self.is_empty() {
            return None;
        }
        let ts = &self.time;
        if t.value() <= ts[0].value() {
            return Some(self.current[0]);
        }
        if t.value() >= ts[ts.len() - 1].value() {
            return Some(self.current[ts.len() - 1]);
        }
        let idx = ts.partition_point(|x| x.value() <= t.value());
        let (t0, t1) = (ts[idx - 1].value(), ts[idx].value());
        let (i0, i1) = (self.current[idx - 1].value(), self.current[idx].value());
        let f = if t1 > t0 {
            (t.value() - t0) / (t1 - t0)
        } else {
            0.0
        };
        Some(Amps::new(i0 + f * (i1 - i0)))
    }

    /// Mean current over the final `fraction` of the record — a simple
    /// steady-state estimate for decayed chronoamperograms.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    pub fn tail_mean(&self, fraction: f64) -> Option<Amps> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        if self.is_empty() {
            return None;
        }
        let start = ((self.len() as f64) * (1.0 - fraction)) as usize;
        let tail = &self.current[start.min(self.len() - 1)..];
        Some(Amps::new(
            tail.iter().map(|i| i.value()).sum::<f64>() / tail.len() as f64,
        ))
    }
}

impl FromIterator<(Seconds, Amps)> for Transient {
    fn from_iter<I: IntoIterator<Item = (Seconds, Amps)>>(iter: I) -> Self {
        let mut t = Transient::new();
        for (time, current) in iter {
            t.push(time, current);
        }
        t
    }
}

/// A sampled current-vs-potential record (cyclic voltammetry output).
///
/// Keeps the time axis too, so scan segments can be separated.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Voltammogram {
    time: Vec<Seconds>,
    potential: Vec<Volts>,
    current: Vec<Amps>,
}

impl Voltammogram {
    /// Creates an empty voltammogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    pub fn push(&mut self, t: Seconds, e: Volts, i: Amps) {
        self.time.push(t);
        self.potential.push(e);
        self.current.push(i);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the record is empty.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Time stamps.
    pub fn time(&self) -> &[Seconds] {
        &self.time
    }

    /// Potential samples.
    pub fn potential(&self) -> &[Volts] {
        &self.potential
    }

    /// Current samples.
    pub fn current(&self) -> &[Amps] {
        &self.current
    }

    /// Iterates over `(t, e, i)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, Volts, Amps)> + '_ {
        self.time
            .iter()
            .zip(self.potential.iter())
            .zip(self.current.iter())
            .map(|((t, e), i)| (*t, *e, *i))
    }

    /// Splits the record into monotone potential segments (forward/reverse
    /// scan legs). Returns index ranges into the sample arrays.
    pub fn segments(&self) -> Vec<core::ops::Range<usize>> {
        let n = self.len();
        if n < 2 {
            #[allow(clippy::single_range_in_vec_init)] // one segment really is the answer
            return if n == 0 { Vec::new() } else { vec![0..n] };
        }
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut dir = 0i8;
        for k in 1..n {
            let d = self.potential[k].value() - self.potential[k - 1].value();
            let s = if d > 0.0 {
                1
            } else if d < 0.0 {
                -1
            } else {
                dir
            };
            if dir == 0 {
                dir = s;
            } else if s != 0 && s != dir {
                out.push(start..k);
                start = k - 1;
                dir = s;
            }
        }
        out.push(start..n);
        out
    }

    /// The sample with the most positive current (anodic peak candidate).
    #[cfg(test)]
    pub(crate) fn max_current(&self) -> Option<(Volts, Amps)> {
        self.potential
            .iter()
            .zip(self.current.iter())
            .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .map(|(e, i)| (*e, *i))
    }

    /// The sample with the most negative current (cathodic peak candidate).
    pub fn min_current(&self) -> Option<(Volts, Amps)> {
        self.potential
            .iter()
            .zip(self.current.iter())
            .min_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .map(|(e, i)| (*e, *i))
    }
}

impl FromIterator<(Seconds, Volts, Amps)> for Voltammogram {
    fn from_iter<I: IntoIterator<Item = (Seconds, Volts, Amps)>>(iter: I) -> Self {
        let mut v = Voltammogram::new();
        for (t, e, i) in iter {
            v.push(t, e, i);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_transient() -> Transient {
        (0..=10)
            .map(|k| (Seconds::new(k as f64), Amps::new(k as f64 * 2.0)))
            .collect()
    }

    #[test]
    fn interpolation_and_clamping() {
        let t = ramp_transient();
        assert_eq!(
            t.current_at(Seconds::new(2.5)).expect("nonempty"),
            Amps::new(5.0)
        );
        assert_eq!(
            t.current_at(Seconds::new(-1.0)).expect("nonempty"),
            Amps::new(0.0)
        );
        assert_eq!(
            t.current_at(Seconds::new(99.0)).expect("nonempty"),
            Amps::new(20.0)
        );
        assert!(Transient::new().current_at(Seconds::ZERO).is_none());
    }

    #[test]
    fn tail_mean_estimates_plateau() {
        let mut t = Transient::new();
        for k in 0..100 {
            let i = if k < 50 { 0.0 } else { 4.0 };
            t.push(Seconds::new(k as f64), Amps::new(i));
        }
        let ss = t.tail_mean(0.2).expect("nonempty");
        assert_eq!(ss, Amps::new(4.0));
    }

    #[test]
    fn voltammogram_segments_split_at_vertices() {
        let mut v = Voltammogram::new();
        // Triangle: 0 → -3 → 0.
        let es = [0.0, -1.0, -2.0, -3.0, -2.0, -1.0, 0.0];
        for (k, e) in es.iter().enumerate() {
            v.push(Seconds::new(k as f64), Volts::new(*e), Amps::new(0.0));
        }
        let segs = v.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], 0..4);
        assert_eq!(segs[1], 3..7);
    }

    #[test]
    fn voltammogram_extrema() {
        let mut v = Voltammogram::new();
        v.push(Seconds::new(0.0), Volts::new(-0.2), Amps::new(-1.0));
        v.push(Seconds::new(1.0), Volts::new(-0.4), Amps::new(-8.0));
        v.push(Seconds::new(2.0), Volts::new(-0.6), Amps::new(2.0));
        let (e_min, i_min) = v.min_current().expect("nonempty");
        assert_eq!(e_min, Volts::new(-0.4));
        assert_eq!(i_min, Amps::new(-8.0));
        let (e_max, i_max) = v.max_current().expect("nonempty");
        assert_eq!(e_max, Volts::new(-0.6));
        assert_eq!(i_max, Amps::new(2.0));
    }

    #[test]
    fn empty_and_single_sample_segments() {
        let v = Voltammogram::new();
        assert!(v.segments().is_empty());
        let mut one = Voltammogram::new();
        one.push(Seconds::ZERO, Volts::ZERO, Amps::ZERO);
        assert_eq!(one.segments(), vec![0..1]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_sample_vectors_panic() {
        let _ = Transient::from_samples(vec![Seconds::ZERO], vec![]);
    }
}
