//! Per-panel platform skeletons.
//!
//! Cost and session time depend on the *assembled* platform (electrode
//! count, chamber decision, schedule) but only through three of the eight
//! axes: probe preference, readout sharing and CDS. This module builds one
//! [`PlatformBuilder`] skeleton per distinct `(preference, sharing, cds)`
//! triple in the space — at most 12 builds per panel — and the passes read
//! every cost/time closed form from those skeletons. That is the
//! class-factoring that lets a pass certify 10⁵ points from 12 platform
//! assemblies.

use bios_platform::{PlatformBuilder, ProbePreference, ReadoutSharing};
use std::collections::BTreeMap;

use crate::error::ExploreError;
use crate::space::ExploreSpec;

/// The static facts one assembled platform contributes to the closed forms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Skeleton {
    /// Working-electrode count (readout chains when dedicated).
    pub n_we: usize,
    /// Total electrodes including counter/reference/blank.
    pub total_electrodes: usize,
    /// Fluidic chambers after the cross-talk decision.
    pub chambers: usize,
    /// One base (oversampling = 1) session's schedule duration, seconds.
    pub schedule_s: f64,
    /// Working-electrode geometric area at the paper's reference scale, cm².
    pub we_area_cm2: f64,
}

pub(crate) fn pref_ordinal(p: ProbePreference) -> u8 {
    match p {
        ProbePreference::MinimizeElectrodes => 0,
        ProbePreference::PreferOxidase => 1,
        ProbePreference::PreferCytochrome => 2,
    }
}

pub(crate) fn sharing_ordinal(s: ReadoutSharing) -> u8 {
    match s {
        ReadoutSharing::Shared => 0,
        ReadoutSharing::Dedicated => 1,
    }
}

/// Skeletons for every `(preference, sharing, cds)` triple a space can hit.
#[derive(Debug, Clone)]
pub(crate) struct PanelContext {
    skeletons: BTreeMap<(u8, u8, bool), Skeleton>,
}

impl PanelContext {
    /// Assembles the skeleton set for `spec`'s panel over exactly the
    /// triples its space enumerates. Fails if any required skeleton cannot
    /// be built — a panel the builder rejects cannot be explored.
    pub(crate) fn for_spec(spec: &ExploreSpec) -> Result<Self, ExploreError> {
        let mut skeletons = BTreeMap::new();
        for &pf in &spec.space.preferences {
            for &sh in &spec.space.sharing {
                for &cds in &spec.space.cds {
                    let key = (pref_ordinal(pf), sharing_ordinal(sh), cds);
                    if skeletons.contains_key(&key) {
                        continue;
                    }
                    let platform = PlatformBuilder::new(spec.panel.clone())
                        .with_preference(pf)
                        .with_sharing(sh)
                        .with_cds(cds)
                        .build()?;
                    let we_area_cm2 = platform
                        .assignments()
                        .first()
                        .map(|a| a.electrode().geometric_area().value())
                        .ok_or(ExploreError::Internal {
                            what: "platform built with zero working electrodes",
                        })?;
                    skeletons.insert(
                        key,
                        Skeleton {
                            n_we: platform.assignments().len(),
                            total_electrodes: platform.structure().total_electrodes(),
                            chambers: platform.structure().chambers(),
                            schedule_s: platform.schedule().total_duration().value(),
                            we_area_cm2,
                        },
                    );
                }
            }
        }
        Ok(Self { skeletons })
    }

    /// The skeleton for a `(preference, sharing, cds)` triple.
    pub(crate) fn skeleton(
        &self,
        preference: ProbePreference,
        sharing: ReadoutSharing,
        cds: bool,
    ) -> Result<Skeleton, ExploreError> {
        self.skeletons
            .get(&(pref_ordinal(preference), sharing_ordinal(sharing), cds))
            .copied()
            .ok_or(ExploreError::Internal {
                what: "skeleton missing for a space triple",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bios_platform::PanelSpec;

    #[test]
    fn fig4_context_builds_all_triples() {
        let spec = ExploreSpec::standard(PanelSpec::paper_fig4());
        let cx = PanelContext::for_spec(&spec).expect("context");
        assert_eq!(cx.skeletons.len(), 12);
        let sk = cx
            .skeleton(
                ProbePreference::MinimizeElectrodes,
                ReadoutSharing::Shared,
                false,
            )
            .expect("skeleton");
        assert!(sk.n_we >= 1 && sk.total_electrodes > sk.n_we);
        assert!(sk.schedule_s > 0.0 && sk.we_area_cm2 > 0.0);
    }

    #[test]
    fn shared_schedule_is_longer_than_dedicated() {
        let spec = ExploreSpec::standard(PanelSpec::paper_fig4());
        let cx = PanelContext::for_spec(&spec).expect("context");
        let pref = ProbePreference::MinimizeElectrodes;
        let shared = cx
            .skeleton(pref, ReadoutSharing::Shared, false)
            .expect("skeleton");
        let dedicated = cx
            .skeleton(pref, ReadoutSharing::Dedicated, false)
            .expect("skeleton");
        assert!(shared.schedule_s > dedicated.schedule_s);
    }
}
