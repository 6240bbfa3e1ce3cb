//! Graphviz rendering of a recorded state graph.
//!
//! Meant for the small, human-auditable configs: the CI artifact shows
//! the whole protocol surface at a glance, with terminal states colored
//! by outcome class so a reviewer can see at once which leaves exist
//! (clean service, degradation, shedding, quarantine) and that nothing
//! dangles.

use crate::explore::StateGraph;
use core::fmt::Write as _;

/// Fill color for a terminal label (matches the outcome taxonomy used
/// by both models).
fn fill_for(label: &str) -> &'static str {
    match label {
        "completed" | "served-clean" => "#7fbf7f",
        "degraded" => "#e8c468",
        "failed-session" => "#e89a68",
        "shed" => "#9f86c0",
        "quarantined" | "quarantined-device" => "#d66a6a",
        _ => "#cccccc",
    }
}

/// Renders a recorded state graph as Graphviz dot. Nodes are named by a
/// short prefix of their canonical hash; terminal states are filled by
/// outcome label, non-terminals stay plain. Deterministic: node and edge
/// order follow BFS discovery order.
pub fn render_dot(graph: &StateGraph, title: &str) -> String {
    let mut out = String::with_capacity(4096 + graph.nodes.len() * 96);
    let _ = writeln!(out, "digraph model {{");
    let _ = writeln!(out, "  label=\"{}\";", title.replace('"', "'"));
    let _ = writeln!(out, "  labelloc=top;");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  node [shape=circle, style=filled, fillcolor=\"#f2f2f2\", \
         fontsize=8, width=0.3, fixedsize=false];"
    );
    for (idx, node) in graph.nodes.iter().enumerate() {
        let short = node.hash.get(..8).unwrap_or(&node.hash);
        match &node.label {
            Some(label) => {
                let _ = writeln!(
                    out,
                    "  n{idx} [label=\"{short}\\n{label}\", shape=doublecircle, \
                     fillcolor=\"{}\"];",
                    fill_for(label)
                );
            }
            None => {
                let _ = writeln!(out, "  n{idx} [label=\"{short}\"];");
            }
        }
    }
    for edge in &graph.edges {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\", fontsize=7];",
            edge.from,
            edge.to,
            edge.choice.replace('"', "'")
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MVerdict, SessionModelConfig};
    use crate::explore::{explore, ExploreLimits};
    use crate::session_model::SessionModel;
    use bios_platform::RetryPolicy;

    #[test]
    fn dot_output_colors_terminals_and_is_deterministic() {
        let cfg = SessionModelConfig::new(1, RetryPolicy::default())
            .with_alphabet(vec![MVerdict::Pass, MVerdict::Fail]);
        let model = SessionModel::new(cfg).expect("valid");
        let limits = ExploreLimits {
            record_graph: true,
            ..ExploreLimits::default()
        };
        let a = explore(&model, &limits);
        let graph = a.graph.expect("recorded");
        let dot = render_dot(&graph, "session model");
        assert!(dot.starts_with("digraph model {"));
        assert!(dot.contains("doublecircle"), "terminals rendered");
        assert!(dot.contains("#d66a6a"), "quarantine leaf colored red");
        let b = explore(&model, &limits);
        assert_eq!(
            dot,
            render_dot(&b.graph.expect("recorded"), "session model"),
            "rendering is rerun-identical"
        );
    }
}
