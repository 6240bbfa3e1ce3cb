//! Determinism suite for the execution engine and the prefactorized
//! solver: parallel execution must be *bit-identical* to sequential for
//! any seed and thread count, and the cached tridiagonal factorization
//! must match an independently written reference solve to 0 ULP.

use std::sync::OnceLock;

use advdiag::afe::FaultPlan;
use advdiag::biochem::Analyte;
use advdiag::electrochem::Tridiagonal;
use advdiag::explore::{explore, ExploreSpace, ExploreSpec};
use advdiag::instrument::QcGate;
use advdiag::platform::{ExecPolicy, PanelSpec, Platform, PlatformBuilder, SessionOptions};
use advdiag::units::Molar;
use proptest::prelude::*;

/// An independent Thomas-algorithm solve written directly from the
/// textbook recurrence, in the same operation order as `Tridiagonal`'s
/// factorization + `solve_in_place`. Any refactoring of the production
/// solver (iterator rewrites, bounds-check elision, caching) must keep
/// every intermediate rounding step, so the outputs agree exactly.
fn reference_solve(lower: &[f64], main: &[f64], upper: &[f64], d: &[f64]) -> Vec<f64> {
    let n = main.len();
    let mut fm = main.to_vec();
    let mut x = d.to_vec();
    for i in 1..n {
        let m = lower[i - 1] / fm[i - 1];
        fm[i] = main[i] - m * upper[i - 1];
        x[i] -= m * x[i - 1];
    }
    x[n - 1] /= fm[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = (x[i] - upper[i] * x[i + 1]) / fm[i];
    }
    x
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Random diagonally-dominant systems: the production solver (with its
    /// shared prefactorization cache) matches the reference to 0 ULP.
    fn prefactorized_solver_matches_reference_to_zero_ulp(
        rows in prop::collection::vec(
            (-1.0f64..1.0, -1.0f64..1.0, 2.5f64..6.0, -10.0f64..10.0),
            2..14,
        ),
    ) {
        let n = rows.len();
        // Row i: (lower, upper, main, rhs); main ≥ 2.5 dominates the
        // off-diagonals (each in (-1, 1)), so no pivot can vanish.
        let lower: Vec<f64> = rows[..n - 1].iter().map(|r| r.0).collect();
        let upper: Vec<f64> = rows[..n - 1].iter().map(|r| r.1).collect();
        let main: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let d: Vec<f64> = rows.iter().map(|r| r.3).collect();

        let sys = Tridiagonal::new(lower.clone(), main.clone(), upper.clone())
            .expect("diagonally dominant");
        let got = sys.solve(&d).expect("matching length");
        let expected = reference_solve(&lower, &main, &upper, &d);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                g.to_bits(), e.to_bits(),
                "x[{}]: {} vs {} (n = {})", i, g, e, n
            );
        }
        // And the factorization is a genuine inverse: A·x ≈ d.
        let back = sys.apply(&got);
        for (b, orig) in back.iter().zip(&d) {
            prop_assert!((b - orig).abs() < 1e-9, "residual {}", b - orig);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    /// Random session seeds and thread counts: parallel
    /// `run_session_with` is bit-identical to sequential, with faults and
    /// retries in play.
    fn parallel_session_matches_sequential(
        seed in 0u64..1_000_000,
        threads in 2usize..9,
    ) {
        let platform = fig4_platform();
        let sample = fig4_sample();
        let base = SessionOptions::default()
            .with_fault_plan(FaultPlan::randomized(seed ^ 0x5eed, 5))
            .with_qc(QcGate::default());
        let seq = platform
            .run_session_with(&sample, seed, &base.clone().with_exec(ExecPolicy::Sequential))
            .expect("sequential");
        let par = platform
            .run_session_with(
                &sample,
                seed,
                &base.with_exec(ExecPolicy::Threads(threads)),
            )
            .expect("parallel");
        prop_assert_eq!(
            format!("{seq:?}"), format!("{par:?}"),
            "seed {} threads {}", seed, threads
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Random thread counts: parallel `explore` over the paper's 96-point
    /// space is bit-identical to sequential (the explorer is
    /// deterministic, so only the fan-out can vary).
    fn parallel_explore_matches_sequential(threads in 2usize..9) {
        let spec = ExploreSpec {
            space: ExploreSpace::paper_default(),
            ..ExploreSpec::standard(PanelSpec::paper_fig4())
        };
        let seq = explore(&spec, ExecPolicy::Sequential).expect("sequential");
        let par = explore(&spec, ExecPolicy::Threads(threads)).expect("parallel");
        prop_assert_eq!(&par, &seq, "threads {}", threads);
    }
}

/// `ADVDIAG_THREADS`-style forcing through the options API: a
/// `Threads(1)` policy takes the sequential code path and still matches
/// `Auto`.
#[test]
fn one_thread_policy_equals_auto() {
    let platform = fig4_platform();
    let sample = fig4_sample();
    let auto = platform
        .run_session_with(&sample, 7, &SessionOptions::default())
        .expect("auto");
    let one = platform
        .run_session_with(
            &sample,
            7,
            &SessionOptions::default().with_exec(ExecPolicy::Threads(1)),
        )
        .expect("one thread");
    assert_eq!(auto, one);
}
