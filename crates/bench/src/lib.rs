//! Reproduction harness for every table and figure of the DATE 2011 paper.
//!
//! Each module implements one experiment as a pure function returning
//! structured rows; the `repro_*` binaries print them in the paper's
//! format, and the perf binaries write their timings to `BENCH_*.json`. See
//! `EXPERIMENTS.md` at the workspace root for paper-vs-measured numbers.

#![warn(missing_docs)]

pub mod ablations;
pub mod batch;
pub mod explore;
pub mod fault_matrix;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod perf;
pub mod service;
pub mod table1;
pub mod table2;
pub mod table3;

/// Prints a centered section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
