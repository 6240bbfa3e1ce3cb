//! Compiler-style design-space exploration at scale — the BENCH_10
//! reproduction (see [`bios_bench::explore`] for the workload).
//!
//! Seven panels × the standard 168 960-point box = 1 182 720 candidate
//! designs, statically pruned to their exact Pareto bands with only the
//! bands simulated. Flags:
//!
//! * `--json <path>` — write the report (default `BENCH_10.json`);
//! * `--min-reject <ratio>` — exit nonzero if the overall static
//!   rejection ratio falls below `ratio` (CI passes `0.99`).
//!
//! Three correctness gates are always enforced, on every host:
//!
//! * every panel's rerun must reproduce the first run's frontier digest
//!   bit for bit;
//! * the incremental (edited-space) run must match a second run of the
//!   same edit bit for bit;
//! * on every panel, the pipeline band must equal the per-point oracle
//!   over all of the panel's points (1 182 720 in total), bit for bit.

use bios_platform::ExecPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = String::from("BENCH_10.json");
    let mut min_reject: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                json_path = args.get(i).ok_or("--json needs a path")?.clone();
            }
            "--min-reject" => {
                i += 1;
                min_reject = Some(args.get(i).ok_or("--min-reject needs a value")?.parse()?);
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
        i += 1;
    }

    bios_bench::banner("Design-space exploration — static pass pipeline (BENCH_10)");
    let report = bios_bench::explore::run(ExecPolicy::Auto)?;

    println!(
        "{:<18} {:>3} {:>9} {:>10} {:>8} {:>6} {:>7}  {:<6}",
        "panel", "tgt", "points", "rejected", "reject%", "band", "shards", "rerun"
    );
    for p in &report.panels {
        println!(
            "{:<18} {:>3} {:>9} {:>10} {:>7.3}% {:>6} {:>7}  {}",
            p.name,
            p.targets,
            p.points,
            p.statically_rejected,
            100.0 * p.rejection_ratio,
            p.band,
            p.shards,
            if p.rerun_identical() {
                "match"
            } else {
                "MISMATCH"
            },
        );
    }
    println!(
        "\n{} of {} designs statically rejected ({:.4}%) across {} panels",
        report.total_rejected,
        report.total_points,
        100.0 * report.overall_rejection_ratio,
        report.panels.len(),
    );
    println!(
        "sweep {:.2} s, rerun {:.2} s",
        report.cold_sweep_s, report.warm_sweep_s
    );
    println!(
        "incremental edit: {} points, {} shards, digests {}",
        report.incremental.points,
        report.incremental.shards,
        if report.incremental.digests_match() {
            "match"
        } else {
            "MISMATCH"
        },
    );
    println!(
        "per-point oracle over every point of every panel: {} points, band {}, {}",
        report.brute_points,
        report.brute_band,
        if report.brute_matches {
            "pipeline matches oracle bit-for-bit"
        } else {
            "PIPELINE DIVERGED FROM ORACLE"
        },
    );

    std::fs::write(&json_path, bios_bench::explore::to_json(&report))?;
    println!("wrote {json_path}");

    if !report.all_reruns_identical() {
        return Err("rerun diverged from the first run (digest mismatch)".into());
    }
    if !report.incremental.digests_match() {
        return Err("incremental re-exploration diverged from a rerun of the same spec".into());
    }
    if !report.brute_matches {
        return Err("pipeline band diverged from the brute-force oracle".into());
    }
    if let Some(floor) = min_reject {
        if report.overall_rejection_ratio < floor {
            return Err(format!(
                "static rejection gate failed: {:.4} < required {floor:.4}",
                report.overall_rejection_ratio
            )
            .into());
        }
        println!(
            "static rejection gate passed: {:.4} >= {floor:.4}",
            report.overall_rejection_ratio
        );
    }
    Ok(())
}
