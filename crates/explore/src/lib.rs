//! `bios-explore` — compiler-style design-space exploration.
//!
//! The paper's platform methodology (§I) restricts an enormous biosensor
//! design space to parameterized components precisely so the space can be
//! *reasoned about* instead of enumerated. This crate executes that idea
//! as a static-analysis pipeline over a ≥10⁶-point space:
//!
//! * [`ExploreSpace`] — a lazily-enumerated cartesian product: eight axis
//!   value lists plus mixed-radix rank decoding, never materialized;
//! * [`PassManager`] — typed pruning passes ([`PassId`]) that **prove**
//!   point classes infeasible ([`RejectReason`]) or dominated from
//!   closed-form calibration models, order-independently;
//! * [`explore`] — prune → partition → score: the surviving exact Pareto
//!   band is sharded for [`bios_platform::try_par_map`], scored by the
//!   surrogate and fully simulated via [`bios_platform::evaluate`];
//! * [`brute_force_band`] — the per-point oracle the proptests and the
//!   BENCH_10 gate pin the class-factored pipeline against, bit for bit,
//!   over every point of the standard panels.
//!
//! # Example
//!
//! ```
//! use bios_explore::{explore, ExploreSpec};
//! use bios_platform::{ExecPolicy, PanelSpec};
//!
//! # fn main() -> Result<(), bios_explore::ExploreError> {
//! let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
//! // Keep the doctest quick: one readout-tuning slice of the box.
//! spec.space.oversampling = vec![1, 8];
//! spec.space.area_pct = vec![100, 200];
//! let outcome = explore(&spec, ExecPolicy::Sequential)?;
//! assert!(outcome.rejection_ratio > 0.9);
//! assert!(!outcome.band.is_empty());
//! for report in &outcome.reports {
//!     println!(
//!         "{}: {} -> {} points",
//!         report.pass, report.points_in, report.points_out
//!     );
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod error;
mod frontier;
mod hash;
mod model;
mod passes;
mod shard;
mod space;

pub use error::ExploreError;
pub use frontier::{brute_force_band, explore, explore_with_manager, ExploreOutcome};
pub use model::{surrogate_lod, worst_margin, RejectReason};
pub use passes::{PassId, PassManager, PassReport, RejectBucket};
pub use shard::{ScoredDesign, Shard};
pub use space::{standard_panels, ExplorePoint, ExploreSpace, ExploreSpec};
