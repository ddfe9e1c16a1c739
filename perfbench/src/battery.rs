//! The traced run: per-layer self times, growth exponents and stage
//! accounting.
//!
//! Every workload runs the same four phases on its own input, so every
//! per-layer metric exists on every workload; a layer off the
//! workload's own path is a control that its end-to-end metrics should
//! not follow (README.md maps each metric to what it should move).
//!
//! 1. Batch path (`lineagex extract --json`) at n and n/2 views: untraced
//!    and traced operations alternate, the traced one calling
//!    `QueryDict::from_sql_dialect`, `InferenceEngine::run`,
//!    `ReportV2::from_graph` and `ReportV2::to_json` with parse, stats
//!    and all-edges replays as children.
//! 2. Engine write path (`ingest` + `publish`) at n and n/2: untraced and
//!    traced writes alternate; the traced write calls `ingest`,
//!    `refresh`, `publish`, with the cone's extraction and the index
//!    build replayed as children of `refresh` and `publish`.
//! 3. Serve phase at n: the serve_mixed traffic against a loaded server.
//! 4. Query path in-process at n, over the origins the serve phase used.

use crate::inputs::{check_graph, Input};
use crate::measure::{growth, median, tail, us};
use crate::serve::{check_mixed, query_params, run_mixed, Expected, Read, ReadKind, CYCLE};
use crate::trace::Tracer;
use crate::{
    engine_write, extract, origins, start_server, warm_server, Args, Outcome, WARM_WRITES,
};
use lineagex_catalog::Catalog;
use lineagex_core::{
    extract_entry, DialectKind, ExtractOptions, GraphIndex, InferenceEngine, LineageResult,
    QueryDict, QueryReport, ReportV2,
};
use lineagex_engine::{Engine, EngineSnapshot};
use lineagex_serve::proto::{Payload, Response, StatsBody};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Alternating untraced/traced rounds on the batch path.
const BATCH_ROUNDS: usize = 5;
/// Alternating untraced/traced writes on the engine path.
const WRITE_ROUNDS: usize = 10;
/// Distinct origins timed in-process on the query path.
const QUERY_ORIGINS: usize = 200;
/// A stage set whose self times leave more of the untraced end-to-end
/// median than this unaccounted for is flagged.
const UNACCOUNTED_LIMIT_PCT: f64 = 10.0;

const BATCH_STAGES: [&str; 7] = [
    "sqlparse.parse",
    "core.querydict",
    "core.infer",
    "core.all_edges",
    "core.stats",
    "core.report",
    "render.report",
];
const WRITE_STAGES: [&str; 5] =
    ["engine.ingest", "engine.refresh", "core.cone_extract", "engine.publish", "core.index_build"];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let workload = args.workload;
    let full = workload.input(args.seed, workload.views())?;
    let half = workload.input(args.seed, workload.views() / 2)?;
    let size_ratio = full.views as f64 / half.views as f64;
    let (full_truth, half_truth) = (full.truth(), half.truth());
    let mut out = Outcome::default();
    let mut traces = Vec::new();

    // 1. Batch path.
    let mut batch_full = Tracer::new("batch.full", origin);
    let mut batch_half = Tracer::new("batch.half", origin);
    let mut untraced = Vec::new();
    let mut counts = BatchCounts::default();
    let mut result = None;
    for k in 0..2 * BATCH_ROUNDS {
        let failures = if traced_turn(k) {
            let traced = traced_extract(&mut batch_full, &full.sql, &mut counts);
            let failures = traced.as_ref().map_or_else(
                |e| vec![e.clone()],
                |r| check_graph(&full_truth, full.views, &r.graph),
            );
            result = traced.ok().or(result);
            failures
        } else {
            let t = Instant::now();
            let done = extract(&full.sql);
            untraced.push(us(t.elapsed()));
            done.map_or_else(
                |e| vec![e.to_string()],
                |(r, _)| check_graph(&full_truth, full.views, &r.graph),
            )
        };
        out.check(failures);
    }
    let mut half_counts = BatchCounts::default();
    for _ in 0..BATCH_ROUNDS {
        let traced = traced_extract(&mut batch_half, &half.sql, &mut half_counts);
        out.check(
            traced.map_or_else(|e| vec![e], |r| check_graph(&half_truth, half.views, &r.graph)),
        );
    }
    let result = result.ok_or("the traced batch extraction failed")?;
    stage_metrics(&mut out, &batch_full, &batch_half, &BATCH_STAGES, size_ratio);
    out.metric("sqlparse.statements", counts.statements as f64, "count");
    out.metric("sqlparse.input_bytes", full.sql.len() as f64, "bytes");
    out.metric("core.querydict_entries", counts.entries as f64, "count");
    out.metric("core.deferrals", result.deferrals.len() as f64, "count");
    out.metric("core.edges", counts.edges as f64, "count");
    out.metric("render.report_bytes", counts.bytes as f64, "bytes");
    accounting(&mut out, "batch", &batch_full, &untraced);
    traces.push(batch_full);
    traces.push(batch_half);

    // 2. Engine write path.
    let mut write_full = Tracer::new("write.full", origin);
    let mut write_half = Tracer::new("write.half", origin);
    let (mut engine, untraced_writes, extractions) = write_phase(&full, &mut write_full, &mut out)?;
    write_phase(&half, &mut write_half, &mut out)?;
    stage_metrics(&mut out, &write_full, &write_half, &WRITE_STAGES, size_ratio);
    out.metric("engine.extractions_per_write", extractions, "count");
    out.metric("engine.cone_efficiency", full.cone as f64 / extractions, "ratio");
    accounting(&mut out, "engine", &write_full, &untraced_writes);
    traces.push(write_full);
    traces.push(write_half);

    // 3. Serve phase, against the verified batch graph's answers.
    let mut expected = Expected::new(result.graph, result.diagnostics);
    let origins = origins(&expected.graph, args.seed);
    let server = start_server(&full)?;
    let warmed = warm_server(&server, &full, &origins);
    let churn = |i: usize| full.churn(i);
    let run = warmed.and_then(|()| {
        run_mixed(
            server.local_addr(),
            &origins,
            &expected.stats_fragment,
            &churn,
            WARM_WRITES,
            CYCLE,
            Duration::from_secs_f64((args.seconds / 2.0).max(2.0)),
        )
        .map_err(|e| format!("serve traffic: {e}"))
    });
    server.shutdown();
    let run = run?;
    let (attempted, failed) = check_mixed(&run, &mut expected, &origins, full.cone, &mut out.notes);
    out.attempted += attempted;
    out.failed += failed;
    let served = |kind| -> Vec<f64> {
        run.reads.iter().filter(|r| r.kind == kind).map(|r| us(r.latency)).collect()
    };
    let (queries, stats, reports) =
        (served(ReadKind::Query), served(ReadKind::Stats), served(ReadKind::Report));
    let writes: Vec<f64> = run.writes.iter().map(|w| us(w.latency)).collect();

    // 4. The same reads in-process, on the snapshot an engine with the
    //    same log and writes publishes — what the server answers from.
    let snapshot = engine.publish().map_err(|e| e.to_string())?;
    // On a thread of its own, as the server answers on its connection
    // thread: the main thread's heap, churned by the phases above, makes
    // the same calls measurably slower there.
    let InProcess { query_trace, cone_columns, stats_inproc, report_inproc } =
        std::thread::scope(|s| {
            s.spawn(|| in_process_reads(&snapshot, &run.reads, &origins, origin)).join()
        })
        .map_err(|_| "in-process reads panicked")?;
    for stage in ["core.query", "core.query_report", "render.query"] {
        out.metric(&format!("{stage}_us"), query_trace.self_us(stage), "us");
    }
    out.metric("core.cone_columns", median(&cone_columns), "count");
    let query_inproc = median(&query_trace.op_self_sum_us());
    out.metric("serve.query_overhead_us", median(&queries) - query_inproc, "us");
    out.metric("serve.stats_overhead_us", median(&stats) - stats_inproc, "us");
    out.metric("serve.report_overhead_us", median(&reports) - report_inproc, "us");
    out.metric("serve.write_overhead_us", median(&writes) - median(&untraced_writes), "us");
    let bytes = |kind| -> Vec<f64> {
        run.reads.iter().filter(|r| r.kind == kind).map(|r| r.fingerprint.1 as f64).collect()
    };
    out.metric("serve.reply_bytes.query", median(&bytes(ReadKind::Query)), "bytes");
    out.metric("serve.reply_bytes.report", median(&bytes(ReadKind::Report)), "bytes");
    let lag = run.writes.iter().map(|w| us(w.lag)).fold(0.0, f64::max);
    out.metric("serve.writer_lag_us", lag, "us");
    let in_ms = |values: &[f64]| -> Vec<f64> { values.iter().map(|v| v / 1e3).collect() };
    let (queries, writes) = (in_ms(&queries), in_ms(&writes));
    out.metric("serve.query_p50_ms", median(&queries), "ms");
    out.metric("serve.query_tail_ms", tail(&queries).value, "ms");
    out.tail_extra("serve.query_tail_ms", &queries);
    out.metric("serve.stats_p50_ms", median(&stats) / 1e3, "ms");
    out.metric("serve.report_p50_ms", median(&reports) / 1e3, "ms");
    out.metric("serve.write_p50_ms", median(&writes), "ms");
    out.metric("serve.write_tail_ms", tail(&writes).value, "ms");
    out.tail_extra("serve.write_tail_ms", &writes);
    let busy = run.read_wall.as_secs_f64() - run.calibration.seconds();
    out.extra("serve.reads_per_s", run.reads.len() as f64 / busy, "1/s");
    traces.push(query_trace);

    write_traces(args, &traces, &mut out)?;
    Ok(out)
}

#[derive(Default)]
struct BatchCounts {
    statements: usize,
    entries: usize,
    edges: usize,
    bytes: usize,
}

/// `<stage>_us` (median self time per call at n) and `<stage>_growth`
/// for each stage. A self time is a difference of two timings; where it
/// is not positive at one of the sizes (the stage's own work is within
/// the noise of its child's), the growth is that of its inclusive time.
fn stage_metrics(
    out: &mut Outcome,
    full: &Tracer,
    half: &Tracer,
    stages: &[&str],
    size_ratio: f64,
) {
    for stage in stages {
        let (n, h) = (full.self_us(stage), half.self_us(stage));
        out.metric(&format!("{stage}_us"), n, "us");
        let exponent = if n > 0.0 && h > 0.0 {
            growth(n, h, size_ratio)
        } else {
            out.notes.push(format!("{stage}: self time not positive, growth of inclusive time"));
            growth(full.inclusive_us(stage), half.inclusive_us(stage), size_ratio)
        };
        out.metric(&format!("{stage}_growth"), exponent, "exp");
    }
}

/// One batch operation as `extract` runs it, each public call a span.
fn traced_extract(
    t: &mut Tracer,
    sql: &str,
    counts: &mut BatchCounts,
) -> Result<LineageResult, String> {
    t.next_op();
    let (qd, dict) = t.span("core.querydict", None, || {
        QueryDict::from_sql_dialect(sql, false, DialectKind::Ansi)
    });
    let qd = qd.map_err(|e| e.to_string())?;
    counts.entries = qd.len();
    let catalog = Catalog::default();
    let (result, _) = t.span("core.infer", None, || {
        InferenceEngine::over(qd, &catalog, ExtractOptions::default()).run()
    });
    let result = result.map_err(|e| e.to_string())?;
    let (report, build) =
        t.span("core.report", None, || ReportV2::from_graph(&result.graph, &result.diagnostics));
    // Moved in, so the report's drop is timed as `to_report_v2_json` does.
    let (bytes, _) = t.span("render.report", None, move || report.to_json());
    counts.bytes = bytes.len();
    // The replays run after the path, so their allocations do not change
    // the heap the path's own calls run on.
    let (parsed, _) = t.span("sqlparse.parse", Some(dict), || {
        lineagex_sqlparse::parse_sql_spanned_with(sql, DialectKind::Ansi).map(|s| s.len())
    });
    counts.statements = parsed.map_err(|e| e.to_string())?;
    let (edges, _) = t.span("core.all_edges", Some(build), || result.graph.all_edges().len());
    counts.edges = edges;
    let (_, stats) = t.span("core.stats", Some(build), || black_box(result.graph.stats()));
    t.span("core.all_edges", Some(stats), || result.graph.all_edges().len());
    Ok(result)
}

/// Load `input` into an engine, then alternate untraced and traced
/// churn writes. Returns the engine, the untraced write latencies (µs)
/// and the median extractions per write.
fn write_phase(
    input: &Input,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Engine, Vec<f64>, f64), String> {
    let mut engine = Engine::new();
    engine_write(&mut engine, &input.sql).map_err(|e| format!("load failed: {e}"))?;
    for i in 0..WARM_WRITES {
        engine_write(&mut engine, &input.churn(i)).map_err(|e| format!("warm-up: {e}"))?;
    }
    // What the cone's extraction is replayed from: the log's dictionary
    // and the settled lineage every upstream entry resolves against.
    let dict = QueryDict::from_sql(&input.sql).map_err(|e| e.to_string())?;
    let ids: BTreeSet<String> = dict.ids().map(String::from).collect();
    let processed = engine.graph().map_err(|e| e.to_string())?.queries.clone();
    let catalog = engine.catalog().clone();
    let options = ExtractOptions::default();

    let mut untraced = Vec::new();
    let mut extractions = Vec::new();
    for k in 0..2 * WRITE_ROUNDS {
        let statement = input.churn(WARM_WRITES + k);
        if !traced_turn(k) {
            let start = Instant::now();
            let done = engine_write(&mut engine, &statement);
            untraced.push(us(start.elapsed()));
            out.check(done.map_or_else(
                |e| vec![e.to_string()],
                |()| crate::check_extractions(&engine, input.cone),
            ));
            continue;
        }
        let churned = QueryDict::from_sql(&statement).map_err(|e| e.to_string())?;
        let churned = churned.entries().first().ok_or("churn statement has no entry")?.clone();
        t.next_op();
        let (ingested, _) = t.span("engine.ingest", None, || engine.ingest(&statement));
        let (refreshed, refresh) = t.span("engine.refresh", None, || engine.refresh());
        let dirty = engine.last_refresh_ids().to_vec();
        let (published, publish) = t.span("engine.publish", None, || engine.publish());
        let snapshot = published.map_err(|e| e.to_string())?;
        // Replays after the write, as on the batch path.
        let (replayed, _) = t.span("core.cone_extract", Some(refresh), || {
            let mut inferred = BTreeMap::new();
            dirty.iter().try_for_each(|id| {
                let entry = if *id == churned.id { Some(&churned) } else { dict.get(id) };
                let entry = entry.ok_or(format!("no dictionary entry for {id}"))?;
                extract_entry(entry, &ids, &processed, &catalog, &options, &mut inferred)
                    .map(|lineage| drop(black_box(lineage)))
                    .map_err(|e| e.to_string())
            })
        });
        t.span("core.index_build", Some(publish), || black_box(GraphIndex::build(&snapshot.graph)));
        drop(snapshot);
        extractions.push(engine.stats().last_refresh_extractions as f64);
        let mut failures = crate::check_extractions(&engine, input.cone);
        for step in [
            ingested.map(drop).map_err(|e| e.to_string()),
            refreshed.map(drop).map_err(|e| e.to_string()),
            replayed,
        ] {
            if let Err(e) = step {
                failures.push(e);
            }
        }
        out.check(failures);
    }
    Ok((engine, untraced, median(&extractions)))
}

struct InProcess {
    query_trace: Tracer,
    cone_columns: Vec<f64>,
    stats_inproc: f64,
    report_inproc: f64,
}

/// The served reads again, in-process on `snapshot`: up to
/// `QUERY_ORIGINS` of the served query origins traced call by call, and
/// the median time of a `stats` and a `report` reply, rendered.
fn in_process_reads(
    snapshot: &EngineSnapshot,
    reads: &[Read],
    origins: &[String],
    origin: Instant,
) -> InProcess {
    let mut query_trace = Tracer::new("query.full", origin);
    let mut seen = BTreeSet::new();
    let mut cone_columns = Vec::new();
    for read in reads.iter().filter(|r| r.kind == ReadKind::Query) {
        if seen.len() < QUERY_ORIGINS && seen.insert(read.origin) {
            cone_columns.push(traced_query(&mut query_trace, snapshot, &origins[read.origin]));
        }
    }
    let stats_inproc = repeat(5, || {
        let body = StatsBody {
            graph: snapshot.graph.stats(),
            engine: snapshot.stats.clone(),
            entries: snapshot.entries,
            connections: 0,
            requests: 0,
        };
        Response::ok(Some(1), 0, Payload::Stats(Box::new(body))).to_line().len()
    });
    let report_inproc = repeat(3, || {
        let report = ReportV2::from_graph(&snapshot.graph, &snapshot.diagnostics);
        Response::ok(Some(1), 0, Payload::Report(Box::new(report))).to_line().len()
    });
    InProcess { query_trace, cone_columns, stats_inproc, report_inproc }
}

/// One served `query` as the server computes it on its snapshot, each
/// call a span. Returns the size of the answer's cone in columns.
fn traced_query(t: &mut Tracer, snapshot: &EngineSnapshot, origin: &str) -> f64 {
    let spec = query_params(origin).spec();
    t.next_op();
    let (answer, _) = t.span("core.query", None, || spec.run_with(&snapshot.index));
    let (report, _) = t.span("core.query_report", None, || {
        QueryReport::from_answer(&answer).with_context(&snapshot.graph, &snapshot.diagnostics)
    });
    t.span("render.query", None, || {
        Response::ok(Some(1), 0, Payload::Query(Box::new(report))).to_line().len()
    });
    answer.columns.len() as f64
}

/// Whether the `k`-th operation of an alternating phase is the traced
/// one. Each pair holds one untraced and one traced operation, in an
/// order that flips from pair to pair so neither always runs first.
fn traced_turn(k: usize) -> bool {
    (k % 2 == 1) != ((k / 2) % 2 == 1)
}

/// Median wall time (µs) of `f` over `reps` calls.
fn repeat(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            us(start.elapsed())
        })
        .collect();
    median(&times)
}

/// `<path>.unaccounted_pct`: the untraced end-to-end time minus the sum
/// of the stages' self times, as a share of the untraced time;
/// `<path>.trace_overhead_pct`: the traced operation's own wall time
/// minus the untraced time, as a share of it. Each is the median over
/// pairs of neighbouring untraced and traced operations, which share the
/// machine's state, so its drift cancels out of the ratio.
fn accounting(out: &mut Outcome, path: &str, t: &Tracer, untraced: &[f64]) {
    let share_below = |traced: Vec<f64>| -> f64 {
        let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| (u - t) / u).collect();
        100.0 * median(&ratios)
    };
    let unaccounted = share_below(t.op_self_sum_us());
    out.metric(&format!("{path}.unaccounted_pct"), unaccounted, "%");
    out.metric(&format!("{path}.trace_overhead_pct"), -share_below(t.op_traced_wall_us()), "%");
    out.extra(&format!("{path}.untraced_p50_ms"), median(untraced) / 1e3, "ms");
    if unaccounted.abs() > UNACCOUNTED_LIMIT_PCT {
        out.notes.push(format!(
            "flag: the {path} stages leave {unaccounted:.1}% of the end-to-end time unaccounted"
        ));
    }
}

/// Write every span, one JSON object per line, under `perfbench/out/`.
fn write_traces(args: &Args, traces: &[Tracer], out: &mut Outcome) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let name = format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed);
    let path = dir.join(name);
    let body: String = traces.iter().map(Tracer::to_jsonl).collect();
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    out.extra(&format!("spans written to {}", path.display()), traces.len() as f64, "phases");
    Ok(())
}
