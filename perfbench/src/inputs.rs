//! Workload inputs and their oracles.
//!
//! The program only ever sees generated SQL text. Every expected answer
//! the benchmark checks against comes from the generators' own records
//! — the pipeline generator's ground truth, or the documented shape of
//! the scaled generator — never from the extractor under test.

use lineagex_core::LineageGraph;
use lineagex_datasets::generator::{
    generate, generate_scaled, GeneratorConfig, ScaleConfig, ScaledWorkload,
};
use lineagex_datasets::groundtruth::GroundTruth;
use std::collections::{BTreeMap, BTreeSet};

/// The smallest cone a churn write on a pipeline log may dirty.
const PIPELINE_CONE: usize = 100;

/// One generated SQL log plus what the benchmark knows about it.
pub struct Input {
    /// Views in the log.
    pub views: usize,
    /// The whole log as one script.
    pub sql: String,
    /// Views a churn write must re-extract: the redefined view and
    /// everything downstream of it.
    pub cone: usize,
    source: Source,
}

enum Source {
    /// `generator::generate` output: its ground truth, and the churned
    /// statement minus its trailing `0` constant.
    Pipeline { truth: GroundTruth, churn_prefix: String },
    /// `generator::generate_scaled` output.
    Scaled { config: ScaleConfig, workload: ScaledWorkload },
}

impl Input {
    /// A `generator::generate` log with `views` views, statements in
    /// reverse dependency order, other knobs at their defaults.
    pub fn pipeline(seed: u64, views: usize) -> Result<Input, String> {
        let config =
            GeneratorConfig { views, shuffle_statements: true, ..GeneratorConfig::seeded(seed) };
        let workload = generate(&config);
        // The churned view: the latest-defined view whose statement ends
        // in the generator's `> 0` predicate and whose cone holds at
        // least `PIPELINE_CONE` views. Rewriting that constant changes
        // the statement but not its lineage.
        let by_name: BTreeMap<&str, &str> = workload
            .view_statements
            .iter()
            .filter_map(|s| {
                let name = s.strip_prefix("CREATE VIEW ")?.split(' ').next()?;
                Some((name, s.as_str()))
            })
            .collect();
        let readers = readers(&workload.ground_truth);
        let (cone, statement) = workload
            .view_names
            .iter()
            .rev()
            .filter_map(|name| {
                let statement = by_name.get(name.as_str()).filter(|s| s.ends_with(" > 0"))?;
                Some((downstream_closure(&readers, name).len(), *statement))
            })
            .find(|(cone, _)| *cone >= PIPELINE_CONE)
            .ok_or("no view ends in a `> 0` predicate to churn")?;
        Ok(Input {
            views: workload.view_names.len(),
            sql: workload.full_sql(),
            cone,
            source: Source::Pipeline {
                truth: workload.ground_truth,
                churn_prefix: statement[..statement.len() - 1].to_string(),
            },
        })
    }

    /// A `generator::generate_scaled` log of `views` views.
    pub fn scaled(seed: u64, views: usize) -> Input {
        let config = ScaleConfig::with_views(seed, views);
        let workload = generate_scaled(&config);
        Input {
            views: workload.view_names.len(),
            sql: workload.full_sql(),
            cone: workload.deep_cone.len(),
            source: Source::Scaled { config, workload },
        }
    }

    /// The `i`-th churn write: a redefinition of one view that changes
    /// only a `WHERE` constant, so lineage is the same at every revision.
    /// Distinct `i` give distinct statements.
    pub fn churn(&self, i: usize) -> String {
        match &self.source {
            Source::Pipeline { churn_prefix, .. } => format!("{churn_prefix}{}", 1000 + i),
            Source::Scaled { workload, .. } => workload.churn_statement(i),
        }
    }

    /// The expected lineage. For scaled logs it is derived here from the
    /// generator's documented shape, so callers build it once, outside
    /// any timed interval.
    pub fn truth(&self) -> GroundTruth {
        match &self.source {
            Source::Pipeline { truth, .. } => truth.clone(),
            Source::Scaled { config, workload } => scaled_truth(config, workload),
        }
    }
}

/// Check a settled graph against the expected lineage: every expected
/// query with exactly its `C_con`, `C_ref` and `T`, and no extra query.
pub fn check_graph(truth: &GroundTruth, views: usize, graph: &LineageGraph) -> Vec<String> {
    let mut failures = truth.diff(graph);
    if graph.queries.len() != views {
        failures.push(format!("expected {views} queries, found {}", graph.queries.len()));
    }
    failures
}

/// For each relation, the queries whose `T` holds it.
fn readers(truth: &GroundTruth) -> BTreeMap<&str, Vec<&str>> {
    let mut readers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (query, tables) in &truth.tables {
        for table in tables {
            readers.entry(table.as_str()).or_default().push(query.as_str());
        }
    }
    readers
}

/// `view` plus every view that reads it, transitively.
fn downstream_closure<'a>(
    readers: &BTreeMap<&'a str, Vec<&'a str>>,
    view: &'a str,
) -> BTreeSet<&'a str> {
    let mut cone = BTreeSet::from([view]);
    let mut frontier = vec![view];
    while let Some(next) = frontier.pop() {
        for &reader in readers.get(next).into_iter().flatten() {
            if cone.insert(reader) {
                frontier.push(reader);
            }
        }
    }
    cone
}

/// The lineage `generate_scaled` documents: per component `t_c{i}`, a
/// stack of diamonds — `a{d}` and `b{d}` filter the previous level
/// (`WHERE v1 > k`, `WHERE v2 > k`), `m{d}` joins them on `v0` taking
/// `v0, v1` from `a` and `v2` from `b` — topped by leaf marts projecting
/// `v0` and one of `v1`/`v2` of the last merge, filtered on that column.
/// The leaf's column is the one choice the shape leaves open; it is read
/// from the leaf's own `SELECT v0, <col>` text.
fn scaled_truth(config: &ScaleConfig, workload: &ScaledWorkload) -> GroundTruth {
    let leaf_columns: BTreeMap<&str, &str> = workload
        .view_statements
        .iter()
        .filter_map(|s| {
            let (name, body) = s.strip_prefix("CREATE VIEW ")?.split_once(" AS SELECT v0, ")?;
            Some((name, body.split(' ').next()?))
        })
        .collect();
    let mut gt = GroundTruth::default();
    let cols = ["v0", "v1", "v2"];
    for ci in 0..config.components {
        let mut prev = format!("t_c{ci}");
        for d in 0..config.depth {
            let (a, b, m) = (format!("c{ci}_a{d}"), format!("c{ci}_b{d}"), format!("c{ci}_m{d}"));
            for (view, filter) in [(&a, "v1"), (&b, "v2")] {
                for col in cols {
                    gt.expect_ccon(view, col, &[(&prev, col)]);
                }
                gt.expect_cref(view, &[(&prev, filter)]);
                gt.expect_tables(view, &[&prev]);
            }
            gt.expect_ccon(&m, "v0", &[(&a, "v0")]);
            gt.expect_ccon(&m, "v1", &[(&a, "v1")]);
            gt.expect_ccon(&m, "v2", &[(&b, "v2")]);
            gt.expect_cref(&m, &[(&a, "v0"), (&b, "v0")]);
            gt.expect_tables(&m, &[&a, &b]);
            prev = m;
        }
        for j in 0..config.fanout {
            let leaf = format!("c{ci}_leaf{j}");
            let col = leaf_columns.get(leaf.as_str()).copied().unwrap_or("?");
            gt.expect_ccon(&leaf, "v0", &[(&prev, "v0")]);
            gt.expect_ccon(&leaf, col, &[(&prev, col)]);
            gt.expect_cref(&leaf, &[(&prev, col)]);
            gt.expect_tables(&leaf, &[&prev]);
        }
    }
    gt
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineagex_core::lineagex;

    #[test]
    fn scaled_shape_oracle_accepts_the_extracted_graph() {
        let input = Input::scaled(3, 400);
        let graph = lineagex(&input.sql).unwrap().graph;
        assert_eq!(check_graph(&input.truth(), input.views, &graph), Vec::<String>::new());
        assert_eq!(input.cone, 199);
    }

    #[test]
    fn pipeline_churn_keeps_lineage() {
        let input = Input::pipeline(5, 600).unwrap();
        let truth = input.truth();
        let mut engine = lineagex_engine::Engine::new();
        engine.ingest(&input.sql).unwrap();
        engine.publish().unwrap();
        for i in 0..3 {
            engine.ingest(&input.churn(i)).unwrap();
            engine.publish().unwrap();
            assert_eq!(engine.stats().last_refresh_extractions as usize, input.cone);
        }
        assert!(check_graph(&truth, input.views, engine.graph().unwrap()).is_empty());
    }

    #[test]
    fn a_perturbed_truth_is_a_failure() {
        let input = Input::scaled(3, 400);
        let graph = lineagex(&input.sql).unwrap().graph;
        let mut truth = input.truth();
        truth.expect_ccon("c0_m0", "v2", &[("c0_a0", "v2")]);
        assert!(!check_graph(&truth, input.views, &graph).is_empty());
        assert!(!check_graph(&input.truth(), input.views + 1, &graph).is_empty());
    }
}
