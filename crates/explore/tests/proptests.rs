//! Property-based tests pinning the class-factored pipeline to per-point
//! ground truth: exact-frontier-vs-brute-force on random subsampled spaces,
//! pass-order independence, exec-policy independence, and the bit-coupling
//! of the surrogate to the core analytic model.

use bios_biochem::Analyte;
use bios_electrochem::Nanostructure;
use bios_explore::{
    brute_force_band, explore, explore_with_manager, surrogate_lod, ExplorePoint, ExploreSpace,
    ExploreSpec, PassId, PassManager,
};
use bios_platform::{
    predict_lod, DesignPoint, ExecPolicy, PanelSpec, ProbePreference, ReadoutSharing, TargetSpec,
};
use bios_units::Seconds;
use proptest::prelude::*;

const SENSABLE: [Analyte; 8] = [
    Analyte::Glucose,
    Analyte::Lactate,
    Analyte::Glutamate,
    Analyte::Cholesterol,
    Analyte::Benzphetamine,
    Analyte::Aminopyrine,
    Analyte::Clozapine,
    Analyte::Lidocaine,
];

fn arbitrary_panel() -> impl Strategy<Value = PanelSpec> {
    prop::collection::vec(0usize..SENSABLE.len(), 1..5).prop_map(move |idxs| {
        idxs.into_iter()
            .map(|i| TargetSpec::typical(SENSABLE[i]))
            .collect()
    })
}

/// A random subsampled space of at most ~2 000 points (well under the
/// brute-force oracle's 65 536-point cap, sized for O(n²) in CI).
fn arbitrary_space() -> impl Strategy<Value = ExploreSpace> {
    let nano = prop::collection::vec(0usize..4, 1..3);
    let sharing = 0usize..3; // 0 = shared, 1 = dedicated, 2 = both
    let chopcds = 0usize..4; // two bools: singleton or both, per axis
    let bits = prop::collection::vec(6u8..17, 1..3);
    let prefs = 0usize..3;
    let ovs = prop::collection::vec(0usize..10, 1..3);
    let area = prop::collection::vec(1u32..17, 1..3);
    ((nano, sharing, chopcds), (bits, prefs), (ovs, area)).prop_map(
        |((nano, sharing, chopcds), (mut bits, prefs), (ovs, mut area))| {
            let all_nano = [
                Nanostructure::None,
                Nanostructure::GoldNanoparticles,
                Nanostructure::CobaltOxide,
                Nanostructure::CarbonNanotubes,
            ];
            let all_ovs = [1u16, 2, 4, 8, 16, 32, 64, 128, 256, 512];
            let mut nanos: Vec<Nanostructure> = nano.into_iter().map(|i| all_nano[i]).collect();
            nanos.sort();
            nanos.dedup();
            bits.sort_unstable();
            bits.dedup();
            let mut ovs: Vec<u16> = ovs.into_iter().map(|i| all_ovs[i]).collect();
            ovs.sort_unstable();
            ovs.dedup();
            area.sort_unstable();
            area.dedup();
            ExploreSpace {
                nanostructures: nanos,
                sharing: match sharing {
                    0 => vec![ReadoutSharing::Shared],
                    1 => vec![ReadoutSharing::Dedicated],
                    _ => vec![ReadoutSharing::Shared, ReadoutSharing::Dedicated],
                },
                chopper: if chopcds & 1 == 0 {
                    vec![false, true]
                } else {
                    vec![true]
                },
                cds: if chopcds & 2 == 0 {
                    vec![false, true]
                } else {
                    vec![false]
                },
                adc_bits: bits,
                preferences: match prefs {
                    0 => vec![ProbePreference::MinimizeElectrodes],
                    1 => vec![
                        ProbePreference::PreferOxidase,
                        ProbePreference::PreferCytochrome,
                    ],
                    _ => vec![
                        ProbePreference::MinimizeElectrodes,
                        ProbePreference::PreferOxidase,
                        ProbePreference::PreferCytochrome,
                    ],
                },
                oversampling: ovs,
                area_pct: area.into_iter().map(|k| k * 25).collect(),
            }
        },
    )
}

fn arbitrary_spec() -> impl Strategy<Value = ExploreSpec> {
    (arbitrary_panel(), arbitrary_space(), 0usize..3).prop_map(|(panel, space, b)| ExploreSpec {
        panel,
        space,
        session_budget: Seconds::new([300.0, 1800.0, 7200.0][b]),
    })
}

/// The `k`-th permutation of the four passes (factorial number system).
fn permutation(k: usize) -> [PassId; 4] {
    let mut pool = PassId::STANDARD.to_vec();
    let mut out = [PassId::Dominance; 4];
    let mut k = k % 24;
    let mut radix = 6; // 3!
    for (slot, item) in out.iter_mut().enumerate() {
        let idx = k / radix;
        *item = pool.remove(idx);
        k %= radix;
        if slot < 2 {
            radix /= 3 - slot;
        } else {
            radix = 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The class-factored pipeline reproduces the per-point brute-force
    /// frontier exactly: same ranks, same cost bits, same margin bits.
    #[test]
    fn pipeline_band_equals_brute_force(spec in arbitrary_spec()) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let outcome = match explore(&spec, ExecPolicy::Sequential) {
            Ok(o) => o,
            Err(e) => {
                // A panel the platform builder rejects must be rejected
                // identically by the oracle (both fail in context build).
                prop_assert!(brute_force_band(&spec).is_err(), "pipeline err {e} but oracle ok");
                return Ok(());
            }
        };
        let oracle = brute_force_band(&spec).expect("oracle");
        prop_assert_eq!(outcome.band.len(), oracle.len());
        for (d, &(rank, cost, margin)) in outcome.band.iter().zip(oracle.iter()) {
            prop_assert_eq!(d.rank, rank);
            prop_assert_eq!(d.surrogate_cost.to_bits(), cost.to_bits());
            prop_assert_eq!(d.surrogate_margin.to_bits(), margin.to_bits());
        }
        prop_assert_eq!(
            outcome.statically_rejected + outcome.band.len() as u64,
            outcome.total_points
        );
    }

    /// Any permutation of the pruning passes yields the same surviving set
    /// and the same frontier digest.
    #[test]
    fn pass_order_is_irrelevant(spec in arbitrary_spec(), k in 0usize..24) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let standard = match explore(&spec, ExecPolicy::Sequential) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        let permuted = explore_with_manager(
            &spec,
            &PassManager::with_order(&permutation(k)).expect("order"),
            ExecPolicy::Sequential,
        )
        .expect("permuted run");
        prop_assert_eq!(standard.frontier_digest, permuted.frontier_digest);
        prop_assert_eq!(&standard.band, &permuted.band);
        prop_assert_eq!(standard.statically_rejected, permuted.statically_rejected);
    }

    /// Exec policy never changes the answer: the shard merge is
    /// bit-identical for any thread count.
    #[test]
    fn exec_policy_is_irrelevant(spec in arbitrary_spec()) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let seq = match explore(&spec, ExecPolicy::Sequential) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        let par = explore(&spec, ExecPolicy::Threads(2)).expect("threads run");
        prop_assert_eq!(seq.frontier_digest, par.frontier_digest);
        prop_assert_eq!(&seq.band, &par.band);
    }

    /// At the reference coordinates (oversampling 1, area 100%) the
    /// surrogate is the core analytic model, bit for bit.
    #[test]
    fn surrogate_is_bit_coupled_to_predict_lod(
        t in 0usize..SENSABLE.len(),
        n in 0usize..4,
        sharing in 0usize..2,
        chopper in 0usize..2,
        cds in 0usize..2,
        bits in 6u8..17,
        pf in 0usize..3,
    ) {
        let base = DesignPoint {
            nanostructure: [
                Nanostructure::None,
                Nanostructure::GoldNanoparticles,
                Nanostructure::CobaltOxide,
                Nanostructure::CarbonNanotubes,
            ][n],
            sharing: if sharing == 0 {
                ReadoutSharing::Shared
            } else {
                ReadoutSharing::Dedicated
            },
            chopper: chopper == 1,
            cds: cds == 1,
            adc_bits: bits,
            preference: [
                ProbePreference::MinimizeElectrodes,
                ProbePreference::PreferOxidase,
                ProbePreference::PreferCytochrome,
            ][pf],
        };
        let point = ExplorePoint { base, oversampling: 1, area_pct: 100 };
        match predict_lod(SENSABLE[t], &base) {
            Ok(core) => {
                let here = surrogate_lod(SENSABLE[t], &point).expect("surrogate");
                prop_assert_eq!(core.value().to_bits(), here.to_bits());
            }
            Err(_) => {
                // No probe can sense this analyte under this preference:
                // the surrogate must refuse the same coordinates.
                prop_assert!(surrogate_lod(SENSABLE[t], &point).is_err());
            }
        }
    }
}
