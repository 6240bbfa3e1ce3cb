//! Design-space exploration for the paper's panel, at methodology scale:
//! a 168 960-point space pruned to its exact Pareto band by static passes,
//! with only the surviving band simulated — the §I "search of the most
//! cost-effective solution" run like a compiler pipeline.
//!
//! Run with `cargo run --release --example design_space_exploration`.

use advdiag::explore::{explore, ExploreSpec};
use advdiag::platform::{ExecPolicy, PanelSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let panel = PanelSpec::paper_fig4();
    let spec = ExploreSpec::standard(panel);
    println!(
        "exploring {} designs for a {}-target panel...\n",
        spec.space.len(),
        spec.panel.targets().len()
    );
    let outcome = explore(&spec, ExecPolicy::Auto)?;

    println!("pass pipeline:");
    for report in &outcome.reports {
        println!(
            "  {:<18} {:>8} -> {:>8} points  ({} class evals)",
            report.pass, report.points_in, report.points_out, report.classes_evaluated
        );
        for bucket in &report.rejects {
            println!(
                "      {:?}: {} classes / {} points",
                bucket.reason, bucket.classes, bucket.points
            );
        }
    }
    println!(
        "\n{} of {} points statically rejected ({:.3}%); {} survivors in {} shards ({} replayed)",
        outcome.statically_rejected,
        outcome.total_points,
        100.0 * outcome.rejection_ratio,
        outcome.band.len(),
        outcome.shard_count,
        outcome.replayed_shards,
    );
    println!("frontier digest: {:#018x}\n", outcome.frontier_digest);

    println!(
        "{:<5} {:<5} {:<4} {:<4} {:<5} {:>4} {:>5} {:>12} {:>10}",
        "nano", "shar", "chop", "cds", "bits", "ovs", "area", "cost", "margin"
    );
    for d in &outcome.band {
        println!(
            "{:<5} {:<5} {:<4} {:<4} {:<5} {:>4} {:>4}% {:>12.1} {:>10.2}",
            d.point.base.nanostructure.to_string(),
            format!("{}", d.point.base.sharing)
                .chars()
                .take(5)
                .collect::<String>(),
            d.point.base.chopper,
            d.point.base.cds,
            d.point.base.adc_bits,
            d.point.oversampling,
            d.point.area_pct,
            d.surrogate_cost,
            d.surrogate_margin,
        );
    }

    if let (Some(cheapest), Some(best)) = (
        outcome
            .band
            .iter()
            .min_by(|a, b| a.surrogate_cost.total_cmp(&b.surrogate_cost)),
        outcome
            .band
            .iter()
            .max_by(|a, b| a.surrogate_margin.total_cmp(&b.surrogate_margin)),
    ) {
        println!("\ncheapest band design:     {:?}", cheapest.point);
        println!("highest-margin design:    {:?}", best.point);
        println!("\npredicted LODs of the cheapest band design (full simulation):");
        for (analyte, lod) in &cheapest.simulated.predicted_lods {
            println!("  {:<15} {}", analyte.to_string(), lod);
        }
    }
    Ok(())
}
