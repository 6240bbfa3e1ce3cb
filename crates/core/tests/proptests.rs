//! Property-based tests for the platform layer.

use bios_biochem::Analyte;
use bios_platform::{
    crosstalk_fraction, minimum_pitch, PanelSpec, PlatformBuilder, Schedule, TargetSpec,
};
use bios_units::{Centimeters, Seconds};
use proptest::prelude::*;

fn arbitrary_panel() -> impl Strategy<Value = PanelSpec> {
    // Subsets of the sensable analytes, always non-empty.
    let sensable = [
        Analyte::Glucose,
        Analyte::Lactate,
        Analyte::Glutamate,
        Analyte::Cholesterol,
        Analyte::Benzphetamine,
        Analyte::Aminopyrine,
        Analyte::Clozapine,
        Analyte::Lidocaine,
    ];
    prop::collection::vec(0usize..sensable.len(), 1..6).prop_map(move |idxs| {
        idxs.into_iter()
            .map(|i| TargetSpec::typical(sensable[i]))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every valid panel builds, covers all its targets, and schedules
    /// without overlap under shared readout.
    #[test]
    fn any_panel_builds_and_covers_targets(panel in arbitrary_panel()) {
        let targets: Vec<Analyte> = panel.targets().iter().map(|t| t.analyte).collect();
        let p = PlatformBuilder::new(panel).build().expect("build");
        for t in &targets {
            let covered = p
                .assignments()
                .iter()
                .any(|a| a.targets().contains(t));
            prop_assert!(covered, "target {t} not covered");
        }
        // WEs never exceed targets.
        prop_assert!(p.assignments().len() <= targets.len());
        let s = p.schedule();
        prop_assert!(!s.has_overlap());
        prop_assert_eq!(s.slots().len(), p.assignments().len());
    }

    /// Cross-talk is monotone decreasing in pitch and the minimum pitch is
    /// the exact boundary.
    #[test]
    fn crosstalk_monotonicity(
        p1_mm in 0.05f64..5.0,
        dp_mm in 0.01f64..5.0,
        t in 5.0f64..1000.0,
        tol in 0.0005f64..0.049,
    ) {
        let t = Seconds::new(t);
        let f1 = crosstalk_fraction(Centimeters::from_millimeters(p1_mm), t);
        let f2 = crosstalk_fraction(Centimeters::from_millimeters(p1_mm + dp_mm), t);
        prop_assert!(f2 <= f1);
        let pmin = minimum_pitch(t, tol);
        if pmin.value() > 0.0 {
            let at_boundary = crosstalk_fraction(pmin, t);
            prop_assert!((at_boundary - tol).abs() < tol * 1e-6);
        }
    }

    /// Sequential schedules conserve total time; parallel ones take the max.
    #[test]
    fn schedule_time_arithmetic(durations in prop::collection::vec(1.0f64..200.0, 1..8)) {
        let mux = bios_afe::AnalogMux::typical_cmos(durations.len()).expect("valid");
        let ms: Vec<(usize, bios_biochem::Technique, Seconds)> = durations
            .iter()
            .enumerate()
            .map(|(k, d)| (k, bios_biochem::Technique::Chronoamperometry, Seconds::new(*d)))
            .collect();
        let seq = Schedule::sequential(&ms, &mux);
        let par = Schedule::parallel(&ms);
        let sum: f64 = durations.iter().sum();
        let max = durations.iter().fold(0.0f64, |a, b| a.max(*b));
        prop_assert!((seq.total_duration().value() - sum).abs() < 0.01);
        prop_assert!((par.total_duration().value() - max).abs() < 1e-9);
        prop_assert!(!seq.has_overlap());
    }

    /// Retry slots appended by the robustness runtime never overlap any
    /// existing slot, for arbitrary retry sequences on both sequential and
    /// parallel base schedules.
    #[test]
    fn retry_appends_never_overlap(
        base in prop::collection::vec(1.0f64..120.0, 1..6),
        retries in prop::collection::vec((0usize..6, 0.5f64..90.0, 0.0f64..15.0), 1..10),
        parallel_sel in 0usize..2,
    ) {
        let parallel_base = parallel_sel == 1;
        let mux = bios_afe::AnalogMux::typical_cmos(base.len()).expect("valid");
        let ms: Vec<(usize, bios_biochem::Technique, Seconds)> = base
            .iter()
            .enumerate()
            .map(|(k, d)| (k, bios_biochem::Technique::Chronoamperometry, Seconds::new(*d)))
            .collect();
        let mut s = if parallel_base {
            Schedule::parallel(&ms)
        } else {
            Schedule::sequential(&ms, &mux)
        };
        // Parallel bases overlap by design (dedicated chains); sequential
        // ones must not, and must stay overlap-free through every retry.
        if !parallel_base {
            prop_assert!(!s.has_overlap());
        }
        for (we, dur, gap) in &retries {
            let before = s.total_duration();
            s.append_retry(
                *we,
                bios_biochem::Technique::Chronoamperometry,
                Seconds::new(*dur),
                Seconds::new(*gap),
            );
            let retry = *s.slots().last().expect("appended slot");
            // The retry starts only after everything already scheduled
            // has finished — it can never collide with an earlier slot.
            prop_assert!(retry.start.value() >= before.value());
            if !parallel_base {
                prop_assert!(!s.has_overlap());
            }
            prop_assert!(s.total_duration().value() >= before.value() + *dur);
        }
        prop_assert_eq!(s.slots().len(), base.len() + retries.len());
    }
}

proptest! {
    /// The retry backoff schedule is a pure function of the policy:
    /// computing it twice gives the same ticks, every per-attempt delay is
    /// monotone non-decreasing and capped, and the cumulative schedule is
    /// strictly increasing (so a resumed session can never observe two
    /// retries landing on the same wake tick).
    #[test]
    fn backoff_schedule_is_deterministic_monotone_and_strictly_increasing(
        base in 0u64..1_000,
        cap in 1u64..10_000,
        retries in 0usize..12,
    ) {
        let policy = bios_platform::RetryPolicy {
            max_retries: retries,
            backoff_base_ticks: base,
            backoff_cap_ticks: cap,
            ..bios_platform::RetryPolicy::default()
        };
        let a = policy.backoff_schedule();
        let b = policy.backoff_schedule();
        prop_assert_eq!(&a, &b, "schedule must be deterministic");
        prop_assert_eq!(a.len(), retries, "one entry per retry in the budget");
        for w in a.windows(2) {
            prop_assert!(w[1] > w[0], "cumulative schedule must be strictly increasing");
        }
        for k in 0..retries {
            prop_assert!(policy.backoff_ticks(k) <= cap, "per-attempt delay exceeds cap");
            if k > 0 {
                prop_assert!(
                    policy.backoff_ticks(k) >= policy.backoff_ticks(k - 1),
                    "per-attempt delay must be monotone non-decreasing"
                );
            }
        }
        prop_assert_eq!(policy.attempt_budget(), retries + 1);
    }

    /// Reseed strides never overlap: across every electrode and every
    /// attempt in the retry budget, the derived measurement seeds are
    /// pairwise distinct — no retry can silently replay another
    /// electrode's (or attempt's) noise stream.
    #[test]
    fn attempt_seeds_never_collide_across_electrodes_or_attempts(
        seed in 0u64..u64::MAX,
        wes in 1usize..16,
        retries in 0usize..8,
    ) {
        let policy = bios_platform::RetryPolicy {
            max_retries: retries,
            ..bios_platform::RetryPolicy::default()
        };
        // Mirrors the platform's per-electrode seeding (stride 17): the
        // property pins down that the electrode stride and the retry
        // reseed stride can never alias within a session.
        let we_seed = |we: u64| seed.wrapping_add(17 * (we + 1));
        let mut seen = std::collections::BTreeSet::new();
        for we in 0..wes as u64 {
            for attempt in 0..policy.attempt_budget() {
                seen.insert(policy.attempt_seed(we_seed(we), attempt));
            }
        }
        prop_assert_eq!(
            seen.len(),
            wes * policy.attempt_budget(),
            "a reseed collision would replay another attempt's noise"
        );
    }
}

proptest! {
    /// Backoff saturation over the *full* `u32` attempt range: no shift
    /// or multiply can wrap, huge attempts saturate at the cap, the
    /// delay is monotone non-decreasing in the attempt, and below the
    /// cap it is exactly `base * 2^attempt`.
    #[test]
    fn backoff_ticks_saturate_over_the_full_attempt_range(
        base in 1u64..u64::MAX / 2,
        cap in 1u64..u64::MAX,
        attempt in 0u32..u32::MAX,
    ) {
        let policy = bios_platform::RetryPolicy {
            backoff_base_ticks: base,
            backoff_cap_ticks: cap,
            ..bios_platform::RetryPolicy::default()
        };
        let delay = policy.backoff_ticks(attempt as usize);
        prop_assert!(delay <= cap, "delay must never exceed the cap");
        if attempt < u32::MAX {
            prop_assert!(
                policy.backoff_ticks(attempt as usize + 1) >= delay,
                "delay must be monotone non-decreasing in the attempt"
            );
        }
        // Exact doubling below the cap; saturation at or past it.
        match 2u64.checked_pow(attempt).and_then(|m| base.checked_mul(m)) {
            Some(exact) => prop_assert_eq!(delay, exact.min(cap)),
            None => prop_assert_eq!(delay, cap, "overflowed product saturates at the cap"),
        }
    }
}
