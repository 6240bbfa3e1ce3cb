//! Metric names, units and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("capacity_per_s", "1/s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("trace.wall_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("share.server", "ratio"),
    ("share.session", "ratio"),
    ("share.acquire", "ratio"),
    ("share.instrument", "ratio"),
    ("share.afe", "ratio"),
    ("share.biochem", "ratio"),
    ("share.kernel", "ratio"),
    ("share.explore", "ratio"),
    ("share.evaluate", "ratio"),
    ("share.unattributed", "ratio"),
    ("loadgen.lag_tail_ms", "ms"),
    ("server.tick_p50_ms", "ms"),
    ("server.tick_tail_ms", "ms"),
    ("server.sched_share", "ratio"),
    ("server.served_per_tick", "count"),
    ("server.shed", "count"),
    ("server.deadline_miss", "count"),
    ("server.rejected", "count"),
    ("server.quarantined", "count"),
    ("session.steps", "count"),
    ("session.retries", "count"),
    ("session.step_us.ApplyPotential", "us"),
    ("session.step_us.Settle", "us"),
    ("session.step_us.Sample", "us"),
    ("session.step_us.Qc", "us"),
    ("session.step_us.Backoff", "us"),
    ("session.step_us.Quarantine", "us"),
    ("acquire.chrono_us", "us"),
    ("acquire.cv_us", "us"),
    ("acquire.batch", "count"),
    ("acquire.useful_ratio", "ratio"),
    ("acquire.critical_path_us", "us"),
    ("instrument.chrono_us", "us"),
    ("instrument.cv_us", "us"),
    ("instrument.analysis_us", "us"),
    ("instrument.qc_us", "us"),
    ("afe.ns_per_sample", "ns"),
    ("afe.ns_per_sample_faulted", "ns"),
    ("afe.self_test_ms", "ms"),
    ("afe.acquire_share", "ratio"),
    ("biochem.ns_per_eval_chrono", "ns"),
    ("biochem.ns_per_eval_cv", "ns"),
    ("explore.reject_ratio", "ratio"),
    ("explore.points_base", "count"),
    ("explore.points_out.lod-feasibility", "count"),
    ("explore.points_out.afe-range", "count"),
    ("explore.points_out.session-schedule", "count"),
    ("explore.points_out.dominance", "count"),
    ("explore.evaluate_us", "us"),
    ("explore.static_share", "ratio"),
    ("explore.replayed_shards", "count"),
    ("kernel.lane_steps_per_s", "1/s"),
    ("kernel.cv_ms", "ms"),
    ("kernel.nodes", "count"),
];

/// Per-layer values as they are measured; names must be in [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of run facts (strings and numbers as given).
pub fn info_line(info: &[(&str, String)]) -> String {
    let body: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), v))
        .collect();
    format!("{{\"run\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let line = result_line(true, 3, 0, &[("latency_p50_ms", 1.203_456_789, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn declared_names_are_unique_and_match_benchmark_json() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        let manifest = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry} not in BENCHMARK.json");
        }
    }
}
