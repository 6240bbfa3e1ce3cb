//! Full-scale pin of the exploration pipeline: every standard panel over
//! the standard 168,960-point box, run through `bios_explore::explore`.
//!
//! The proptests compare the class-factored passes with the per-point
//! oracle only on spaces of at most a few thousand points. This test pins
//! what the passes report at the scale where the class tables are large:
//! every `PassReport` field, the rejection count, the shard count, the band
//! size and the frontier digest of each panel. The expected text was
//! recorded from the pipeline before its class tables were factored by
//! axis; any change to a pass's arithmetic or bookkeeping shows up here.

use bios_bench::explore::panels;
use bios_explore::{explore, ExploreOutcome, ExploreSpec};
use bios_platform::ExecPolicy;

fn render(name: &str, outcome: &ExploreOutcome) -> String {
    let mut out = format!(
        "{name}: points={} rejected={} shards={} band={} digest={:016x}\n",
        outcome.total_points,
        outcome.statically_rejected,
        outcome.shard_count,
        outcome.band.len(),
        outcome.frontier_digest,
    );
    for r in &outcome.reports {
        out.push_str(&format!(
            "  {} in={} out={} classes={}\n",
            r.pass, r.points_in, r.points_out, r.classes_evaluated
        ));
        for b in &r.rejects {
            out.push_str(&format!(
                "    {:?} classes={} points={}\n",
                b.reason, b.classes, b.points
            ));
        }
    }
    out
}

const EXPECTED: &str = "\
fig4-biointerface: points=168960 rejected=168729 shards=6 band=231 digest=a08a5a2d39291592
  lod-feasibility in=168960 out=58014 classes=28160
    LodAboveRequirement { analyte: Glucose } classes=13618 points=81708
    LodAboveRequirement { analyte: Benzphetamine } classes=4873 points=29238
  afe-range in=58014 out=42582 classes=44
    AfeRangeNoiseIncompatible { analyte: Glucose } classes=9 points=34560
    AfeRangeNoiseIncompatible { analyte: Cholesterol } classes=2 points=7680
    AfeRangeNoiseIncompatible { analyte: Aminopyrine } classes=6 points=23040
  session-schedule in=42582 out=14577 classes=120
    SharingConflict classes=42 points=59136
    SessionOverBudget classes=30 points=42240
  dominance in=14577 out=231 classes=70564
    Dominated classes=6485 points=14346
metabolic-trio: points=168960 rejected=168588 shards=10 band=372 digest=21d861b468316282
  lod-feasibility in=168960 out=75708 classes=28160
    LodAboveRequirement { analyte: Glucose } classes=13618 points=81708
    LodAboveRequirement { analyte: Cholesterol } classes=1924 points=11544
  afe-range in=75708 out=45954 classes=44
    AfeRangeNoiseIncompatible { analyte: Glucose } classes=9 points=34560
    AfeRangeNoiseIncompatible { analyte: Cholesterol } classes=8 points=30720
  session-schedule in=45954 out=18555 classes=120
    SharingConflict classes=36 points=50688
    SessionOverBudget classes=30 points=42240
  dominance in=18555 out=372 classes=70564
    Dominated classes=8726 points=18183
neuro-pair: points=168960 rejected=168249 shards=21 band=711 digest=1408b3433461bc83
  lod-feasibility in=168960 out=87252 classes=28160
    LodAboveRequirement { analyte: Glutamate } classes=13618 points=81708
  afe-range in=87252 out=62604 classes=44
    AfeRangeNoiseIncompatible { analyte: Lactate } classes=8 points=30720
    AfeRangeNoiseIncompatible { analyte: Glutamate } classes=1 points=3840
  session-schedule in=62604 out=25512 classes=120
    SharingConflict classes=36 points=50688
    SessionOverBudget classes=30 points=42240
  dominance in=25512 out=711 classes=70564
    Dominated classes=8267 points=24801
p450-pair: points=168960 rejected=168354 shards=9 band=606 digest=cb310b8113f320e8
  lod-feasibility in=168960 out=58014 classes=28160
    LodAboveRequirement { analyte: Benzphetamine } classes=18491 points=110946
  afe-range in=58014 out=47472 classes=44
    AfeRangeNoiseIncompatible { analyte: Benzphetamine } classes=9 points=34560
    AfeRangeNoiseIncompatible { analyte: Aminopyrine } classes=6 points=23040
  session-schedule in=47472 out=25854 classes=120
    SharingConflict classes=24 points=33792
    SessionOverBudget classes=24 points=33792
  dominance in=25854 out=606 classes=70564
    Dominated classes=4208 points=25248
tight-lod-fig4: points=168960 rejected=168580 shards=5 band=380 digest=181996ed633e8228
  lod-feasibility in=168960 out=30804 classes=28160
    LodAboveRequirement { analyte: Glucose } classes=4535 points=27210
    LodAboveRequirement { analyte: Lactate } classes=13618 points=81708
    LodAboveRequirement { analyte: Benzphetamine } classes=4873 points=29238
  afe-range in=30804 out=21642 classes=44
    AfeRangeNoiseIncompatible { analyte: Lactate } classes=9 points=34560
    AfeRangeNoiseIncompatible { analyte: Cholesterol } classes=2 points=7680
    AfeRangeNoiseIncompatible { analyte: Aminopyrine } classes=6 points=23040
  session-schedule in=21642 out=5499 classes=120
    SharingConflict classes=42 points=59136
    SessionOverBudget classes=30 points=42240
  dominance in=5499 out=380 classes=70564
    Dominated classes=2275 points=5119
glucose-only: points=168960 rejected=167448 shards=28 band=1512 digest=c3a580134be5a04b
  lod-feasibility in=168960 out=87252 classes=28160
    LodAboveRequirement { analyte: Glucose } classes=13618 points=81708
  afe-range in=87252 out=62604 classes=44
    AfeRangeNoiseIncompatible { analyte: Glucose } classes=9 points=34560
  session-schedule in=62604 out=28782 classes=120
    SharingConflict classes=30 points=42240
    SessionOverBudget classes=30 points=42240
  dominance in=28782 out=1512 classes=70564
    Dominated classes=4545 points=27270
oxidase-quartet: points=168960 rejected=168559 shards=10 band=401 digest=d5f37ff5dc7161db
  lod-feasibility in=168960 out=75708 classes=28160
    LodAboveRequirement { analyte: Glucose } classes=13618 points=81708
    LodAboveRequirement { analyte: Cholesterol } classes=1924 points=11544
  afe-range in=75708 out=45954 classes=44
    AfeRangeNoiseIncompatible { analyte: Glucose } classes=9 points=34560
    AfeRangeNoiseIncompatible { analyte: Cholesterol } classes=8 points=30720
  session-schedule in=45954 out=16314 classes=120
    SharingConflict classes=42 points=59136
    SessionOverBudget classes=30 points=42240
  dominance in=16314 out=401 classes=70564
    Dominated classes=7223 points=15913
";

#[test]
fn standard_panels_pin_every_report_field() {
    let mut got = String::new();
    for (name, panel) in panels() {
        let spec = ExploreSpec::standard(panel);
        let outcome = explore(&spec, ExecPolicy::Sequential).expect("explore");
        got.push_str(&render(name, &outcome));
    }
    assert_eq!(got, EXPECTED, "actual pins:\n{got}");
}
