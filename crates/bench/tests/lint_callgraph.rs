//! Properties of the hot-path call-graph analysis (DESIGN.md §6e).
//!
//! Reachability is *monotone* in the edge set: adding a call can only
//! grow the hot region and raise cadence levels, so a refactor that
//! introduces a call path can never silently un-guard a kernel.

use bios_lint::{CallGraph, Level};
use proptest::prelude::*;

/// Deterministically builds a call graph from packed u64 seeds over a
/// small closed name universe, so shrinking stays meaningful.
const NAMES: &[&str] = &[
    "kernel_a", "kernel_b", "helper_0", "helper_1", "helper_2", "twin", "shared", "leaf",
];

fn graph_from(def_bits: u64, edges: &[u64], roots: u64, cold_bits: u64) -> CallGraph {
    let mut g = CallGraph::new();
    for (i, name) in NAMES.iter().enumerate() {
        // 1..=3 definitions: exercises both sides of the twin bound.
        let defs = ((def_bits >> (2 * i)) % 3 + 1) as usize;
        for _ in 0..defs {
            g.add_def(name);
        }
    }
    for &e in edges {
        let caller = NAMES[(e % NAMES.len() as u64) as usize];
        let callee = NAMES[((e >> 8) % NAMES.len() as u64) as usize];
        g.add_call(caller, callee, (e >> 16) & 1 == 1);
    }
    // At least one root; cold names that collide with roots are simply
    // skipped by the fixpoint, which is itself part of the contract.
    g.add_root(NAMES[(roots % NAMES.len() as u64) as usize], Level::PerIter);
    g.add_root(
        NAMES[((roots >> 8) % NAMES.len() as u64) as usize],
        Level::Warm,
    );
    for (i, name) in NAMES.iter().enumerate() {
        if (cold_bits >> i) & 1 == 1 {
            g.add_cold(name);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding one call edge never shrinks the hot region and never
    /// lowers a cadence level: reachability is monotone, so lossiness
    /// stays in the false-negative direction as the graph grows.
    fn adding_an_edge_never_shrinks_the_hot_region(
        def_bits in 0u64..1u64 << 48,
        edges in prop::collection::vec(0u64..1u64 << 48, 0..24),
        roots in 0u64..1u64 << 48,
        cold_bits in 0u64..1 << NAMES.len(),
        extra_edge in 0u64..1u64 << 48,
    ) {
        let before = graph_from(def_bits, &edges, roots, cold_bits).hot_levels();
        let mut grown_edges = edges.clone();
        grown_edges.push(extra_edge);
        let after = graph_from(def_bits, &grown_edges, roots, cold_bits).hot_levels();
        for (name, level) in &before {
            let now = after.get(name);
            prop_assert!(
                now.is_some_and(|l| l >= level),
                "{name} was {level:?}, now {now:?} after adding an edge"
            );
        }
    }

    /// The fixpoint is deterministic: the same graph built from the same
    /// seeds yields the same levels, and edge insertion order is
    /// irrelevant (edges OR-merge).
    fn hot_levels_are_order_independent(
        def_bits in 0u64..1u64 << 48,
        edges in prop::collection::vec(0u64..1u64 << 48, 0..24),
        roots in 0u64..1u64 << 48,
    ) {
        let forward = graph_from(def_bits, &edges, roots, 0).hot_levels();
        let reversed: Vec<u64> = edges.iter().rev().copied().collect();
        let backward = graph_from(def_bits, &reversed, roots, 0).hot_levels();
        prop_assert_eq!(forward, backward);
    }
}
