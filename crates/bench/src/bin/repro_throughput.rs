//! Throughput reproduction, two layers:
//!
//! 1. §II-B sample throughput — repeated sample/wash cycles on the
//!    glucose WE (the paper's samples-per-hour figure);
//! 2. execution-engine throughput — the perf harness in
//!    [`bios_bench::perf`]: session batches, design-space exploration and
//!    the fault matrix timed sequentially vs in parallel, with
//!    byte-identity digest checks and the diffusion kernel's step rate.
//!
//! Flags:
//!
//! * `--json <path>` — write the perf report (default `BENCH_2.json`);
//! * `--min-speedup <x>` — exit nonzero if any workload's parallel
//!   speedup falls below `x` (skipped — loudly — on 1-core hosts,
//!   where no speedup is possible);
//! * `--batch-json <path>` — write the batched-kernel report (default
//!   `BENCH_7.json`);
//! * `--min-batch-speedup <x>` — exit nonzero if the batched kernel's
//!   multi-thread speedup falls below `x` (same 1-core skip rule);
//! * `--skip-sample-throughput` — perf harness only (what CI runs).
//!
//! Digest equality — sequential vs parallel, scalar vs batched, whole
//! fleet vs worker-chunked fleet — is always enforced, on every host:
//! a mismatch is a correctness bug, not a perf miss. Only the speedup
//! gates are skipped on single-core hosts, and the skip is recorded in
//! the JSON (`"speedup_gate"`) so a committed report can't silently
//! claim a gate it never ran.

use bios_afe::{ChainConfig, CurrentRange, ReadoutChain};
use bios_biochem::{Oxidase, OxidaseSensor};
use bios_electrochem::Electrode;
use bios_instrument::{run_injection_series, InjectionSchedule};
use bios_platform::ExecPolicy;
use bios_units::{Molar, Seconds};

fn sample_throughput() -> Result<(), Box<dyn std::error::Error>> {
    bios_bench::banner("Sample throughput — glucose WE, sample/wash cycles (§II-B)");
    let sensor = OxidaseSensor::from_registry(Oxidase::Glucose)?;
    let chain = ReadoutChain::new(ChainConfig::for_range(CurrentRange::oxidase())?);
    let schedule = InjectionSchedule::sample_wash_cycles(
        4,
        Molar::from_millimolar(2.0),
        Seconds::new(70.0),
        Seconds::new(70.0),
    )?;
    let result = run_injection_series(
        &sensor,
        &Electrode::paper_gold_we(),
        &chain,
        &schedule,
        Seconds::new(0.5),
        2011,
    )?;
    println!(
        "response t90 per injection (s): {:?}",
        result
            .response_times
            .iter()
            .map(|t| t.round())
            .collect::<Vec<_>>()
    );
    println!(
        "recovery t90 per wash (s):      {:?}",
        result
            .recovery_times
            .iter()
            .map(|t| t.round())
            .collect::<Vec<_>>()
    );
    if let Some(tph) = result.throughput_per_hour {
        println!("sample throughput: {tph:.0} samples/hour");
    }
    Ok(())
}

/// Prints the satellite warning for a gate that cannot run: a 1-core
/// host can express no parallel speedup, so "skipped" must be loud and
/// unmistakable — not a quiet `host_cores: 1` buried in a JSON file.
fn warn_single_core(gate: &str) {
    eprintln!("╔═══════════════════════════════════════════════════════════════════╗");
    eprintln!("║ WARNING: single-core host — the {gate} gate CANNOT run.");
    eprintln!("║ No multi-thread speedup is expressible with 1 core; the gate is");
    eprintln!("║ SKIPPED (not passed). The JSON records \"speedup_gate\":");
    eprintln!("║ \"skipped_single_core_host\". Re-run on a >=2-core host (or CI,");
    eprintln!("║ which pins ADVDIAG_THREADS=2) for an enforced result.");
    eprintln!("╚═══════════════════════════════════════════════════════════════════╝");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = String::from("BENCH_2.json");
    let mut batch_json_path = String::from("BENCH_7.json");
    let mut min_speedup: Option<f64> = None;
    let mut min_batch_speedup: Option<f64> = None;
    let mut skip_sample = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                json_path = args.get(i).ok_or("--json needs a path")?.clone();
            }
            "--batch-json" => {
                i += 1;
                batch_json_path = args.get(i).ok_or("--batch-json needs a path")?.clone();
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = Some(args.get(i).ok_or("--min-speedup needs a value")?.parse()?);
            }
            "--min-batch-speedup" => {
                i += 1;
                min_batch_speedup = Some(
                    args.get(i)
                        .ok_or("--min-batch-speedup needs a value")?
                        .parse()?,
                );
            }
            "--skip-sample-throughput" => skip_sample = true,
            other => return Err(format!("unknown flag: {other}").into()),
        }
        i += 1;
    }

    if !skip_sample {
        sample_throughput()?;
    }

    bios_bench::banner("Execution-engine throughput — sequential vs parallel");
    let report = bios_bench::perf::run(ExecPolicy::Auto);
    println!(
        "host threads: {}   parallel policy resolved to: {}",
        report.host_threads, report.parallel_threads
    );
    for w in &report.workloads {
        println!(
            "{:<14} {:>3} units   seq {:>8.3} s   par {:>8.3} s   speedup {:>5.2}x   digests {}",
            w.name,
            w.units,
            w.sequential_s,
            w.parallel_s,
            w.speedup(),
            if w.digests_match() {
                "match"
            } else {
                "MISMATCH"
            },
        );
    }
    println!(
        "diffusion kernel: {} steps/run, {:.0} steps/s",
        report.kernel.steps, report.kernel.steps_per_s,
    );

    std::fs::write(&json_path, bios_bench::perf::to_json(&report))?;
    println!("wrote {json_path}");

    if !report.all_digests_match() {
        return Err("parallel output diverged from sequential (digest mismatch)".into());
    }
    if let Some(floor) = min_speedup {
        if report.host_threads < 2 {
            warn_single_core("min-speedup");
        } else if report.min_speedup() < floor {
            return Err(format!(
                "speedup gate failed: min {:.2}x < required {floor:.2}x",
                report.min_speedup()
            )
            .into());
        } else {
            println!(
                "speedup gate passed: min {:.2}x >= {floor:.2}x",
                report.min_speedup()
            );
        }
    }

    bios_bench::banner("Batched SoA diffusion kernel — fleet vs scalar");
    let batch = bios_bench::batch::run(ExecPolicy::Auto);
    println!(
        "fleet: {} lanes, {} steps/run   grid: {} nodes standard, {} nodes coarse (gamma {:.2})",
        batch.lanes,
        batch.steps,
        batch.grid_nodes_standard,
        batch.grid_nodes_coarse,
        bios_bench::batch::COARSE_GAMMA,
    );
    println!(
        "scalar baseline     {:>12.0} steps/s   (per-lane driver, standard grid)",
        batch.scalar_steps_per_s
    );
    println!(
        "batched, std grid   {:>12.0} steps/s   (SoA gain alone: {:.2}x)",
        batch.batched_standard_steps_per_s,
        batch.batched_standard_steps_per_s / batch.scalar_steps_per_s,
    );
    println!(
        "batched, coarse     {:>12.0} steps/s   (batch gain: {:.2}x)",
        batch.batched_steps_per_s,
        batch.batch_gain(),
    );
    println!(
        "batched, {} threads {:>12.0} steps/s   (mt speedup: {:.2}x)",
        batch.threads,
        batch.batched_mt_steps_per_s,
        batch.mt_speedup(),
    );
    println!(
        "digests: scalar/fleet std {}, scalar/fleet coarse {}, fleet/chunked {}",
        if batch.digest_scalar_standard == batch.digest_fleet_standard {
            "match"
        } else {
            "MISMATCH"
        },
        if batch.digest_scalar_coarse == batch.digest_fleet_coarse {
            "match"
        } else {
            "MISMATCH"
        },
        if batch.digest_fleet_coarse == batch.digest_fleet_coarse_mt {
            "match"
        } else {
            "MISMATCH"
        },
    );
    std::fs::write(&batch_json_path, bios_bench::batch::to_json(&batch))?;
    println!("wrote {batch_json_path}");

    if !batch.all_digests_match() {
        return Err("batched kernel diverged from scalar (digest mismatch)".into());
    }
    if let Some(floor) = min_batch_speedup {
        if batch.host_cores < 2 {
            warn_single_core("min-batch-speedup");
        } else if batch.mt_speedup() < floor {
            return Err(format!(
                "batch speedup gate failed: {:.2}x < required {floor:.2}x",
                batch.mt_speedup()
            )
            .into());
        } else {
            println!(
                "batch speedup gate passed: {:.2}x >= {floor:.2}x",
                batch.mt_speedup()
            );
        }
    }
    Ok(())
}
