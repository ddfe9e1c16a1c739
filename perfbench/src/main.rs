//! The LineageX benchmark: the three paths users run, end to end, and —
//! in a separate traced run — layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_extract|engine_churn|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it times each public layer call instead (see
//! `battery.rs`). Either way it checks every output against an oracle
//! built from the generators, and its last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. README.md
//! documents the workloads and every metric.

mod battery;
mod inputs;
mod measure;
mod serve;
mod trace;

use inputs::{check_graph, Input};
use lineagex_core::{LineageError, LineageResult, LineageView, LineageX, ReportV2};
use lineagex_engine::Engine;
use lineagex_serve::proto::Request;
use lineagex_serve::{ServeOptions, Server};
use measure::{live_heap_mb, median, minimum, ms, peak_rss_mb, spread_order, tail, Calibration};
use serve::{check_mixed, run_mixed, Conn, Expected, ReadKind, CYCLE};
use std::time::{Duration, Instant};

/// How many times each run sets the workload up; `setup_s` is the median.
const SETUPS: usize = 5;
/// Writes issued while warming up the engine and server paths.
const WARM_WRITES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchExtract,
    EngineChurn,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::BatchExtract, Workload::EngineChurn, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchExtract => "batch_extract",
            Workload::EngineChurn => "engine_churn",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's input at `views` views.
    pub fn input(self, seed: u64, views: usize) -> Result<Input, String> {
        match self {
            Workload::BatchExtract => Input::pipeline(seed, views),
            Workload::EngineChurn | Workload::ServeMixed => Ok(Input::scaled(seed, views)),
        }
    }

    /// Views in the workload's input.
    pub fn views(self) -> usize {
        match self {
            Workload::BatchExtract => 4000,
            Workload::EngineChurn => 10_000,
            Workload::ServeMixed => 5000,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a run measured and how many of its operations were right.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Reported in the result line.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Printed for reading only.
    pub extra: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }

    /// Count one checked operation, noting why it failed if it did.
    pub fn check(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(failures.into_iter().take(3).collect::<Vec<_>>().join("; "));
            }
        }
    }

    /// Report a run's timed ops. The end-to-end metrics are the median
    /// and the tail of the ops' latencies normalized to the reference
    /// speed (see `Calibration`): the raw ones move between runs of the
    /// same code by more than a regression bound can allow on a shared
    /// host. The raw median, tail and fastest op are printed under the
    /// workload's own names.
    fn op_metrics(&mut self, alias: &str, latencies: &[f64], calibration: &Calibration) {
        let normal = calibration.normalize(latencies);
        self.metric("op_norm_p50_ms", median(&normal), "ms");
        self.metric("op_norm_tail_ms", tail(&normal).value, "ms");
        self.tail_extra("op_norm_tail_ms", &normal);
        self.extra(&format!("{alias}_p50_ms"), median(latencies), "ms");
        self.tail_extra(&format!("{alias}_tail_ms"), latencies);
        self.extra(&format!("{alias}_min_ms"), minimum(latencies), "ms");
        self.extra("reference_p50_ms", median(&calibration.refs), "ms");
    }

    /// Report the set-ups' times, normalized like the ops' latencies:
    /// each set-up ran between two reference runs. The raw median is
    /// printed as `setup_raw_s`.
    fn setup_metrics(&mut self, setups: &[f64], refs: &Calibration) {
        self.metric("setup_s", median(&refs.normalize(setups)), "s");
        self.extra("setup_raw_s", median(setups), "s");
    }

    fn tail_extra(&mut self, alias: &str, values: &[f64]) {
        let t = tail(values);
        self.extra(&format!("{alias} (p{} of {} samples)", t.percentile, t.samples), t.value, "ms");
    }
}

/// `lineagex extract --json`: extract, then render the v2 document.
pub fn extract(sql: &str) -> Result<(LineageResult, String), LineageError> {
    let result = LineageX::new().run(sql)?;
    let bytes = lineagex_viz::json::to_report_v2_json(&result.graph, &result.diagnostics);
    Ok((result, bytes))
}

/// One engine write as a session user issues it.
pub fn engine_write(engine: &mut Engine, statement: &str) -> Result<(), LineageError> {
    engine.ingest(statement)?;
    engine.publish()?;
    Ok(())
}

/// The extraction count of the write just made must be the cone's size.
pub fn check_extractions(engine: &Engine, cone: usize) -> Vec<String> {
    let done = engine.stats().last_refresh_extractions as usize;
    if done == cone {
        Vec::new()
    } else {
        vec![format!("write re-extracted {done} entries, expected {cone}")]
    }
}

/// Every column of a graph as `table.column`, relations by name and
/// columns as declared, then permuted by the seeded `spread_order`.
pub fn origins(graph: &lineagex_core::LineageGraph, seed: u64) -> Vec<String> {
    let all: Vec<String> = graph
        .nodes
        .values()
        .flat_map(|n| n.columns.iter().map(move |c| format!("{}.{c}", n.name)))
        .collect();
    spread_order(all.len(), seed).into_iter().map(|i| all[i].clone()).collect()
}

/// When set-up `k` started: the first at process start, less the
/// reference run made before it; the others now.
fn setup_start(k: usize, process_start: Instant, refs: &Calibration) -> Instant {
    if k == 0 {
        process_start + Duration::from_secs_f64(refs.seconds())
    } else {
        Instant::now()
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

fn batch_extract(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut setup_refs = Calibration::default();
    setup_refs.tick();
    let mut state = None;
    for k in 0..SETUPS {
        // The previous set-up's state goes first, so that peak memory is
        // that of one set-up.
        drop(state.take());
        let start = setup_start(k, process_start, &setup_refs);
        let input = Workload::BatchExtract.input(args.seed, Workload::BatchExtract.views())?;
        let warm = extract(&input.sql).map_err(|e| format!("warm-up extraction failed: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        setup_refs.tick();
        state = Some((input, warm));
    }
    let (input, (warm, expected_bytes)) = state.expect("at least one set-up");
    let setup_heap = live_heap_mb();
    let truth = input.truth();
    out.check(check_graph(&truth, input.views, &warm.graph));

    let mut latencies = Vec::new();
    let mut calibration = Calibration::default();
    let start = Instant::now();
    let end = deadline(args.seconds);
    calibration.tick();
    while Instant::now() < end {
        let t = Instant::now();
        let done = extract(&input.sql);
        latencies.push(ms(t.elapsed()));
        calibration.tick();
        out.check(match done {
            Ok((result, bytes)) => {
                let mut failures = check_graph(&truth, input.views, &result.graph);
                if bytes != expected_bytes {
                    failures.push("v2 report bytes differ from the first run's".into());
                }
                failures
            }
            Err(e) => vec![e.to_string()],
        });
    }
    let busy = start.elapsed().as_secs_f64() - calibration.seconds();
    out.setup_metrics(&setups, &setup_refs);
    out.metric("setup_heap_mb", setup_heap, "MB");
    out.op_metrics("extract", &latencies, &calibration);
    out.extra("extract_per_s", latencies.len() as f64 / busy, "1/s");
    out.extra("v2_report_bytes", expected_bytes.len() as f64, "bytes");
    Ok(out)
}

fn engine_churn(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut setup_refs = Calibration::default();
    setup_refs.tick();
    let mut state = None;
    for k in 0..SETUPS {
        // The previous set-up's state goes first, so that peak memory is
        // that of one set-up.
        drop(state.take());
        let start = setup_start(k, process_start, &setup_refs);
        let input = Workload::EngineChurn.input(args.seed, Workload::EngineChurn.views())?;
        let mut engine = Engine::new();
        engine_write(&mut engine, &input.sql).map_err(|e| format!("load failed: {e}"))?;
        for i in 0..WARM_WRITES {
            engine_write(&mut engine, &input.churn(i)).map_err(|e| format!("warm-up: {e}"))?;
        }
        setups.push(start.elapsed().as_secs_f64());
        setup_refs.tick();
        state = Some((input, engine));
    }
    let (input, mut engine) = state.expect("at least one set-up");
    let setup_heap = live_heap_mb();
    let (batch, graph_failures) = verified_batch(&input)?;
    let expected_report = ReportV2::from_graph(&batch.graph, &batch.diagnostics).to_json();
    drop(batch);
    out.check(graph_failures);

    let mut latencies = Vec::new();
    let mut calibration = Calibration::default();
    let start = Instant::now();
    let end = deadline(args.seconds);
    let mut i = WARM_WRITES;
    calibration.tick();
    while Instant::now() < end {
        let statement = input.churn(i);
        i += 1;
        let t = Instant::now();
        let done = engine_write(&mut engine, &statement);
        latencies.push(ms(t.elapsed()));
        calibration.tick();
        out.check(match done {
            Ok(()) => check_extractions(&engine, input.cone),
            Err(e) => vec![e.to_string()],
        });
    }
    let busy = start.elapsed().as_secs_f64() - calibration.seconds();
    let final_report = engine.report_v2().map(|r| r.to_json()).map_err(|e| e.to_string());
    out.check(match final_report {
        Ok(bytes) if bytes == expected_report => Vec::new(),
        Ok(_) => vec!["engine report after churn differs from the batch report".into()],
        Err(e) => vec![e],
    });
    out.setup_metrics(&setups, &setup_refs);
    out.metric("setup_heap_mb", setup_heap, "MB");
    out.op_metrics("write", &latencies, &calibration);
    out.extra("write_per_s", latencies.len() as f64 / busy, "1/s");
    Ok(out)
}

/// The batch extraction of `input`, and the failures of its check
/// against the generator's truth: what the other answers are checked by.
fn verified_batch(input: &Input) -> Result<(LineageResult, Vec<String>), String> {
    let result = LineageX::new().run(&input.sql).map_err(|e| format!("batch oracle: {e}"))?;
    let failures = check_graph(&input.truth(), input.views, &result.graph);
    Ok((result, failures))
}

/// A started server loaded with `input` over TCP.
pub fn start_server(input: &Input) -> Result<Server, String> {
    let server = Server::start("127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (reply, _) = conn
        .call(&Request::Ingest { sql: input.sql.clone() })
        .map_err(|e| format!("load over TCP: {e}"))?;
    if !reply.contains("\"ok\":true,") {
        return Err(format!("load rejected: {reply:.300}"));
    }
    Ok(server)
}

/// Warm a loaded server: one full read cycle and `WARM_WRITES` writes.
pub fn warm_server(server: &Server, input: &Input, origins: &[String]) -> Result<(), String> {
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let warm = |conn: &mut Conn, request: Request| {
        conn.call(&request).map_err(|e| format!("warm-up: {e}")).map(drop)
    };
    for position in 0..CYCLE {
        let request = match ReadKind::at(position) {
            ReadKind::Query => serve::query_request(&origins[position % origins.len()]),
            ReadKind::Stats => Request::Stats,
            ReadKind::Report => Request::Report,
        };
        warm(&mut conn, request)?;
    }
    for i in 0..WARM_WRITES {
        warm(&mut conn, Request::Ingest { sql: input.churn(i) })?;
    }
    Ok(())
}

fn serve_mixed(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut setup_refs = Calibration::default();
    setup_refs.tick();
    let mut oracle = None;
    let mut state = None;
    for k in 0..SETUPS {
        if let Some((server, _)) = state.take() {
            Server::shutdown(server);
        }
        let start = setup_start(k, process_start, &setup_refs);
        let input = Workload::ServeMixed.input(args.seed, Workload::ServeMixed.views())?;
        let server = start_server(&input)?;
        let mut spent = start.elapsed();
        if oracle.is_none() {
            // The serve oracle: the verified batch graph's answers and the
            // query origins, built once, outside the set-up's time.
            let (batch, failures) = verified_batch(&input)?;
            let origins = origins(&batch.graph, args.seed);
            oracle = Some((Expected::new(batch.graph, batch.diagnostics), origins, failures));
        }
        let (_, origins, _) = oracle.as_ref().expect("built above");
        let t = Instant::now();
        warm_server(&server, &input, origins)?;
        spent += t.elapsed();
        setups.push(spent.as_secs_f64());
        setup_refs.tick();
        state = Some((server, input));
    }
    let (server, input) = state.expect("at least one set-up");
    let setup_heap = live_heap_mb();
    let (mut expected, origins, graph_failures) = oracle.expect("built in the first set-up");
    out.check(graph_failures);

    let churn = |i: usize| input.churn(i);
    let run = run_mixed(
        server.local_addr(),
        &origins,
        &expected.stats_fragment,
        &churn,
        WARM_WRITES,
        CYCLE,
        Duration::from_secs_f64(args.seconds),
    );
    server.shutdown();
    let run = run.map_err(|e| format!("serve traffic: {e}"))?;
    let (attempted, failed) =
        check_mixed(&run, &mut expected, &origins, input.cone, &mut out.notes);
    out.attempted += attempted;
    out.failed += failed;

    let of = |kind| -> Vec<f64> {
        run.reads.iter().filter(|r| r.kind == kind).map(|r| ms(r.latency)).collect()
    };
    // The reader's op is one whole 50-read cycle, timed as the sum of its
    // reads' latencies: a single query's tail is set by the few reads
    // that happen to overlap a publish or a report's teardown, and swings
    // from run to run far more than a cycle does.
    let cycles: Vec<f64> = run
        .reads
        .chunks_exact(CYCLE)
        .map(|cycle| cycle.iter().map(|r| ms(r.latency)).sum())
        .collect();
    let queries = of(ReadKind::Query);
    let writes: Vec<f64> = run.writes.iter().map(|w| ms(w.latency)).collect();
    out.setup_metrics(&setups, &setup_refs);
    out.metric("setup_heap_mb", setup_heap, "MB");
    out.op_metrics("serve_cycle", &cycles, &run.calibration);
    let busy = run.read_wall.as_secs_f64() - run.calibration.seconds();
    out.extra("serve_reads_per_s", run.reads.len() as f64 / busy, "1/s");
    out.extra("serve_query_p50_ms", median(&queries), "ms");
    out.tail_extra("serve_query_tail_ms", &queries);
    out.extra("serve_stats_p50_ms", median(&of(ReadKind::Stats)), "ms");
    out.extra("serve_report_p50_ms", median(&of(ReadKind::Report)), "ms");
    out.extra("serve_write_p50_ms", median(&writes), "ms");
    out.tail_extra("serve_write_tail_ms", &writes);
    Ok(out)
}

fn print_result(out: &Outcome) {
    for (name, value, unit) in out.metrics.iter().chain(&out.extra) {
        println!("# {name} = {value} {unit}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("# error_rate = {error_rate} (failed {} of {} ops)", out.failed, out.attempted);
    for note in &out.notes {
        println!("# note: {note}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload batch_extract|engine_churn|serve_mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        battery::run(&args)
    } else {
        match args.workload {
            Workload::BatchExtract => batch_extract(&args, process_start),
            Workload::EngineChurn => engine_churn(&args, process_start),
            Workload::ServeMixed => serve_mixed(&args, process_start),
        }
    };
    let outcome = outcome.and_then(|mut out| {
        if !args.trace {
            out.extra("peak_rss_mb", peak_rss_mb()?, "MB");
        }
        match out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((name, ..)) => Err(format!("metric {name} is not a finite number")),
            None => Ok(out),
        }
    });
    match outcome {
        Ok(out) => print_result(&out),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
