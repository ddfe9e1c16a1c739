//! `LineageGraph::stats()` against a reference oracle.
//!
//! `stats()` counts edge kinds per query and computes the pipeline depth
//! in one pass over the processing order. The reference below is the
//! direct definition it must agree with: the kinds of the materialised
//! `all_edges()`, and a depth that scans every `table_edges()` pair for
//! every query in `order`. The property runs over generated logs (every
//! feature mix, plus views with duplicate output names, self-joins and
//! set operations), scaled catalogs, and session-engine graphs after
//! redefinition and drop churn.

use lineagex::core::model::{Node, NodeKind, OutputColumn, QueryKind};
use lineagex::core::ExtractOptions;
use lineagex::datasets::{generate_scaled, generator, GeneratorConfig, ScaleConfig};
use lineagex::engine::{Engine, EngineOptions};
use lineagex::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The definition `stats()` must agree with, built from the full edge
/// list and the table-edge list.
fn reference_stats(graph: &LineageGraph) -> GraphStats {
    let mut nodes_by_kind = BTreeMap::new();
    for node in graph.nodes.values() {
        *nodes_by_kind.entry(format!("{:?}", node.kind)).or_insert(0usize) += 1;
    }
    let (mut contribute_edges, mut reference_edges, mut both_edges) = (0, 0, 0);
    for edge in graph.all_edges() {
        match edge.kind {
            EdgeKind::Contribute => contribute_edges += 1,
            EdgeKind::Reference => reference_edges += 1,
            EdgeKind::Both => both_edges += 1,
        }
    }
    let table_edges = graph.table_edges();
    let mut depth: BTreeMap<&str, usize> = BTreeMap::new();
    for id in &graph.order {
        let d = table_edges
            .iter()
            .filter(|(_, to)| to == id)
            .map(|(from, _)| depth.get(from.as_str()).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(1);
        depth.insert(id, d);
    }
    GraphStats {
        relations: graph.nodes.len(),
        nodes_by_kind,
        columns: graph.column_count(),
        queries: graph.queries.len(),
        contribute_edges,
        reference_edges,
        both_edges,
        max_pipeline_depth: depth.values().copied().max().unwrap_or(0),
    }
}

/// Views over an already-extracted graph that stress the per-query edge
/// dedup: the same output name twice (over a self-join), and a set
/// operation whose branches also repeat a name.
fn stress_views(graph: &LineageGraph, pick: usize) -> Vec<String> {
    let wide: Vec<&Node> = graph.nodes.values().filter(|n| n.columns.len() >= 2).collect();
    let Some(node) = wide.get(pick % wide.len().max(1)) else { return Vec::new() };
    let (name, a, b) = (&node.name, &node.columns[0], &node.columns[1]);
    vec![
        format!(
            "CREATE VIEW stress_self AS SELECT l.{a} AS x, r.{b} AS x, l.{b} AS y \
             FROM {name} l JOIN {name} r ON l.{a} = r.{a} WHERE r.{b} = l.{b}"
        ),
        format!(
            "CREATE VIEW stress_setop AS SELECT {a} AS x, {b} AS x FROM {name} \
             UNION SELECT {b}, {a} FROM {name} WHERE {a} = {b}"
        ),
        "CREATE VIEW stress_chain AS SELECT s.x, t.x AS z FROM stress_self s \
         JOIN stress_setop t ON s.y = t.x"
            .to_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated logs, with stress views that repeat output names over
    /// self-joins and set operations, emitted before or after the rest.
    #[test]
    fn stats_match_reference_on_generated_logs(
        seed in 0u64..10_000,
        star in 0.0f64..0.9,
        setop in 0.0f64..0.9,
        cte in 0.0f64..0.9,
        group_by in 0.0f64..0.9,
        shuffled in any::<bool>(),
        stress_first in any::<bool>(),
        pick in any::<usize>(),
    ) {
        let workload = generator::generate(&GeneratorConfig {
            views: 12,
            star_probability: star,
            setop_probability: setop,
            cte_probability: cte,
            group_by_probability: group_by,
            shuffle_statements: shuffled,
            ..GeneratorConfig::seeded(seed)
        });
        let sql = workload.full_sql();
        let plain = lineagex(&sql).map_err(|e| TestCaseError::fail(format!("{e}\n{sql}")))?;
        prop_assert_eq!(plain.graph.stats(), reference_stats(&plain.graph));

        let stress = stress_views(&plain.graph, pick).join(";\n");
        let sql = if stress_first { format!("{stress};\n{sql}") } else { format!("{sql};\n{stress}") };
        let stressed = lineagex(&sql).map_err(|e| TestCaseError::fail(format!("{e}\n{sql}")))?;
        prop_assert!(stressed.graph.queries.contains_key("stress_self"));
        prop_assert_eq!(stressed.graph.stats(), reference_stats(&stressed.graph));
    }

    /// Session-engine graphs after redefinition and drop churn: the
    /// processing order is the engine's, not the batch pipeline's.
    #[test]
    fn stats_match_reference_after_engine_churn(
        seed in 0u64..10_000,
        setop in 0.0f64..0.9,
        churn in proptest::collection::vec((any::<usize>(), any::<bool>()), 1..6),
    ) {
        let workload = generator::generate(&GeneratorConfig {
            views: 10,
            setop_probability: setop,
            ..GeneratorConfig::seeded(seed)
        });
        let mut engine = Engine::with_options(EngineOptions {
            extract: ExtractOptions::new().with_lenient(),
            ..EngineOptions::default()
        });
        engine.ingest(&workload.full_sql()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let n = workload.view_statements.len();
        for (k, drop) in churn {
            let statement = if drop {
                format!("DROP VIEW {}", workload.view_names[k % n])
            } else {
                // Redefine (or re-create after a drop) from the log.
                workload.view_statements[k % n].clone()
            };
            engine.ingest(&statement).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let graph = engine.graph().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(graph.stats(), reference_stats(graph));
        }
    }
}

#[test]
fn stats_match_reference_on_scaled_catalogs() {
    for seed in [3, 17, 31] {
        let workload = generate_scaled(&ScaleConfig::with_views(seed, 300));
        let result = lineagex(&workload.full_sql()).unwrap();
        assert_eq!(result.graph.stats(), reference_stats(&result.graph), "seed {seed}");
    }
}

/// Depth follows processing order, not the topology: a relation not yet
/// processed counts as depth 0, and a query scanning nothing has depth 1.
#[test]
fn depth_follows_processing_order_on_a_non_topological_order() {
    let view = |id: &str, tables: &[&str]| QueryLineage {
        id: id.into(),
        kind: QueryKind::View { materialized: false },
        outputs: vec![OutputColumn::new("x", BTreeSet::new())],
        cref: BTreeSet::new(),
        tables: tables.iter().map(|t| t.to_string()).collect(),
        diagnostics: Vec::new(),
        partial: false,
    };
    let mut graph = LineageGraph::default();
    graph.nodes.insert(
        "base".into(),
        Node { name: "base".into(), kind: NodeKind::BaseTable, columns: vec!["x".into()] },
    );
    // Topologically base → a → b → c is three deep, but b is processed
    // before a, so it sees a at depth 0.
    for q in [view("a", &["base"]), view("b", &["a"]), view("c", &["a", "b"]), view("lone", &[])] {
        graph.merge_query(q);
    }
    graph.order = vec!["b".into(), "lone".into(), "a".into(), "c".into()];
    let stats = graph.stats();
    assert_eq!(stats.max_pipeline_depth, 2);
    assert_eq!(stats, reference_stats(&graph));
    // In topological order the same graph is three deep.
    graph.order = vec!["a".into(), "b".into(), "c".into(), "lone".into()];
    assert_eq!(graph.stats().max_pipeline_depth, 3);
    assert_eq!(graph.stats(), reference_stats(&graph));
}
