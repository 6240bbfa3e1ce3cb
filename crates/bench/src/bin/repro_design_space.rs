//! Ablation A5: design-space exploration with Pareto front.
fn main() {
    bios_bench::banner("A5 — design-space exploration (96 designs, paper panel)");
    let mut designs = bios_bench::ablations::design_space();
    designs.sort_by(|(a, _), (b, _)| {
        a.cost
            .scalar()
            .partial_cmp(&b.cost.scalar())
            .expect("finite")
    });
    let feasible = designs.iter().filter(|(d, _)| d.feasible).count();
    println!(
        "{feasible}/{} designs feasible; Pareto front marked with *\n",
        designs.len()
    );
    println!(
        "{:<3} {:<5} {:<10} {:<6} {:<5} {:<5} {:>10} {:>9} {:>8} {:>8}",
        "", "nano", "sharing", "chop", "cds", "bits", "power", "area", "time", "margin"
    );
    for (d, on_front) in designs.iter().filter(|(d, _)| d.feasible) {
        println!(
            "{:<3} {:<5} {:<10} {:<6} {:<5} {:<5} {:>10} {:>7.2}mm² {:>7.0}s {:>8.2}",
            if *on_front { "*" } else { "" },
            d.point.nanostructure.to_string(),
            format!("{:?}", d.point.sharing),
            d.point.chopper,
            d.point.cds,
            d.point.adc_bits,
            d.cost.power.to_string(),
            d.cost.total_area_mm2(),
            d.cost.session_time.value(),
            d.worst_lod_margin,
        );
    }
}
