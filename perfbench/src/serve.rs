//! Driving a live server over TCP: a raw JSON-lines connection whose
//! clock covers only writing the request line and receiving the whole
//! reply line, the mixed read/write traffic, and the reply oracle.

use crate::measure::{fnv64, Calibration};
use lineagex_core::{Diagnostic, GraphIndex, LineageGraph, QueryReport, ReportV2};
use lineagex_serve::proto::{Payload, QueryParams, Request, Response};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Reads per cycle, and where the non-`query` reads sit in it.
pub const CYCLE: usize = 50;
const STATS_AT: [usize; 2] = [16, 33];
const REPORT_AT: usize = 49;
/// The open-loop writer's rate.
const WRITE_INTERVAL: Duration = Duration::from_millis(250);

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// The last reply line, reused: a fresh `String` per call regrew to
    /// the size of every multi-MB `report` reply inside the timed read,
    /// and those allocations shared the process's heap, and so its peak
    /// memory, with the server's.
    reply: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer, next_id: 1, reply: String::new() })
    }

    /// Send one request; return the reply line and the time from
    /// writing the request to holding the whole reply.
    pub fn call(&mut self, request: &Request) -> io::Result<(&str, Duration)> {
        let mut line = request.to_line(Some(self.next_id));
        self.next_id += 1;
        line.push('\n');
        self.reply.clear();
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let read = self.reader.read_line(&mut self.reply)?;
        let elapsed = start.elapsed();
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok((self.reply.trim_end(), elapsed))
    }
}

/// The `"result":…` tail of a reply line: everything the answer depends
/// on, without the id and revision that precede it.
fn result_part(line: &str) -> Option<&str> {
    line.find("\"result\":").map(|at| &line[at..])
}

fn revision(line: &str) -> Option<u64> {
    let at = line.find("\"revision\":")? + "\"revision\":".len();
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A downstream `query` from one column.
pub fn query_params(origin: &str) -> QueryParams {
    QueryParams { origins: vec![origin.to_string()], ..QueryParams::default() }
}

pub fn query_request(origin: &str) -> Request {
    Request::Query(query_params(origin))
}

/// The answers a correct server gives, computed in-process from a batch
/// graph that was itself checked against the generator's truth.
pub struct Expected {
    pub graph: LineageGraph,
    pub diagnostics: Vec<Diagnostic>,
    pub index: GraphIndex,
    /// `"graph":{…}` as the `stats` reply must carry it.
    pub stats_fragment: String,
    pub report: (u64, usize),
    queries: HashMap<usize, (u64, usize)>,
}

impl Expected {
    pub fn new(graph: LineageGraph, diagnostics: Vec<Diagnostic>) -> Expected {
        let index = GraphIndex::build(&graph);
        let report = ReportV2::from_graph(&graph, &diagnostics);
        let report_line = Response::ok(None, 0, Payload::Report(Box::new(report))).to_line();
        let report = fingerprint(result_part(&report_line).unwrap_or(""));
        let stats_fragment = format!(
            "\"result\":{{\"graph\":{},",
            serde_json::to_string(&graph.stats()).unwrap_or_default()
        );
        Expected { graph, diagnostics, index, stats_fragment, report, queries: HashMap::new() }
    }

    /// The `query` reply body for one origin, rendered as the server
    /// renders it.
    fn query_line(&self, origin: &str) -> String {
        let answer = query_params(origin).spec().run_with(&self.index);
        let report = QueryReport::from_answer(&answer).with_context(&self.graph, &self.diagnostics);
        Response::ok(None, 0, Payload::Query(Box::new(report))).to_line()
    }

    fn query(&mut self, origins: &[String], at: usize) -> (u64, usize) {
        if let Some(found) = self.queries.get(&at) {
            return *found;
        }
        let line = self.query_line(&origins[at]);
        let found = fingerprint(result_part(&line).unwrap_or(""));
        self.queries.insert(at, found);
        found
    }
}

fn fingerprint(text: &str) -> (u64, usize) {
    (fnv64(text.as_bytes()), text.len())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Query,
    Stats,
    Report,
}

impl ReadKind {
    pub fn at(position: usize) -> ReadKind {
        if position % CYCLE == REPORT_AT {
            ReadKind::Report
        } else if STATS_AT.contains(&(position % CYCLE)) {
            ReadKind::Stats
        } else {
            ReadKind::Query
        }
    }
}

/// One completed read. The reply itself is not kept: only what the
/// oracle needs, taken after the clock stopped.
pub struct Read {
    pub kind: ReadKind,
    pub origin: usize,
    pub latency: Duration,
    pub revision: Option<u64>,
    pub fingerprint: (u64, usize),
    /// For `stats`: whether the reply carried the expected graph stats.
    pub stats_match: bool,
}

pub struct WriteDone {
    /// From when the write was due to when its reply arrived.
    pub latency: Duration,
    /// How late the writer sent it.
    pub lag: Duration,
    pub line: String,
}

pub struct Mixed {
    pub reads: Vec<Read>,
    pub writes: Vec<WriteDone>,
    /// How long the reader ran.
    pub read_wall: Duration,
    /// The reader's reference runs: one before the first read and one
    /// after each whole cycle.
    pub calibration: Calibration,
}

/// One reader connection in a closed loop over the fixed 50-read cycle,
/// one writer connection sending `churn(first_write + k)` at a fixed
/// rate, both for `duration`. `reads_done` continues the reader's cycle
/// and origin position across calls. The reader runs the reference work
/// before its first read and after each whole cycle, so that each cycle
/// of `reads` (in `chunks_exact(CYCLE)`) is bracketed by two.
pub fn run_mixed(
    addr: SocketAddr,
    origins: &[String],
    stats_fragment: &str,
    churn: &(dyn Fn(usize) -> String + Sync),
    first_write: usize,
    reads_done: usize,
    duration: Duration,
) -> io::Result<Mixed> {
    let mut reader = Conn::connect(addr)?;
    let mut writer = Conn::connect(addr)?;
    let start = Instant::now();
    let deadline = start + duration;
    thread::scope(|scope| {
        let writes = scope.spawn(move || -> io::Result<Vec<WriteDone>> {
            let mut done = Vec::new();
            for k in 0.. {
                let due = start + WRITE_INTERVAL * k as u32;
                if due >= deadline {
                    break;
                }
                let request = Request::Ingest { sql: churn(first_write + k) };
                let now = Instant::now();
                if now < due {
                    thread::sleep(due - now);
                }
                let lag = due.elapsed();
                let (line, _) = writer.call(&request)?;
                done.push(WriteDone { latency: due.elapsed(), lag, line: line.to_string() });
            }
            Ok(done)
        });
        let mut reads = Vec::new();
        let mut calibration = Calibration::default();
        calibration.tick();
        let mut position = reads_done;
        let mut queries = (0..reads_done).filter(|&p| ReadKind::at(p) == ReadKind::Query).count();
        while Instant::now() < deadline {
            let kind = ReadKind::at(position);
            let origin = queries % origins.len();
            let request = match kind {
                ReadKind::Query => query_request(&origins[origin]),
                ReadKind::Stats => Request::Stats,
                ReadKind::Report => Request::Report,
            };
            let (line, latency) = reader.call(&request)?;
            let ok = line.contains("\"ok\":true,");
            let body = if ok { result_part(line).unwrap_or("") } else { "" };
            reads.push(Read {
                kind,
                origin,
                latency,
                revision: revision(line),
                fingerprint: fingerprint(body),
                stats_match: ok && line.contains(stats_fragment),
            });
            if reads.len() % CYCLE == 0 {
                calibration.tick();
            }
            if kind == ReadKind::Query {
                queries += 1;
            }
            position += 1;
        }
        let read_wall = start.elapsed();
        let writes = writes.join().map_err(|_| io::Error::other("writer thread panicked"))??;
        Ok(Mixed { reads, writes, read_wall, calibration })
    })
}

/// Check every reply of a mixed run. Returns `(attempted, failed)` and
/// pushes a note per kind of failure seen.
pub fn check_mixed(
    run: &Mixed,
    expected: &mut Expected,
    origins: &[String],
    cone: usize,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut failed = 0u64;
    let mut last = 0u64;
    for read in &run.reads {
        let good = match read.kind {
            ReadKind::Query => read.fingerprint == expected.query(origins, read.origin),
            ReadKind::Report => read.fingerprint == expected.report,
            ReadKind::Stats => read.stats_match,
        };
        let monotonic = read.revision.is_some_and(|r| r >= last);
        last = read.revision.unwrap_or(last);
        if !(good && monotonic) {
            failed += 1;
            if notes.len() < 8 {
                notes.push(format!(
                    "{:?} read of origin {} failed its check",
                    read.kind, read.origin
                ));
            }
        }
    }
    let mut last = 0u64;
    for write in &run.writes {
        let value: Option<serde_json::Value> = serde_json::from_str(&write.line).ok();
        let field = |name: &str| value.as_ref().and_then(|v| v.get(name));
        let ok = field("ok").and_then(serde_json::Value::as_bool) == Some(true);
        let extracted =
            field("result").and_then(|r| r.get("extracted")).and_then(serde_json::Value::as_u64);
        let rev = revision(&write.line);
        let good = ok && extracted == Some(cone as u64) && rev.is_some_and(|r| r >= last);
        last = rev.unwrap_or(last);
        if !good {
            failed += 1;
            if notes.len() < 8 {
                notes.push(format!("write failed its check: {:.200}", write.line));
            }
        }
    }
    ((run.reads.len() + run.writes.len()) as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Input;
    use lineagex_serve::{ServeOptions, Server};

    #[test]
    fn served_answers_pass_and_perturbed_answers_fail() {
        let input = Input::scaled(9, 400);
        let batch = lineagex_core::lineagex(&input.sql).unwrap();
        let origins = crate::origins(&batch.graph, 9);
        let mut expected = Expected::new(batch.graph, batch.diagnostics);
        let server = Server::start("127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut loader = Conn::connect(server.local_addr()).unwrap();
        let (reply, _) = loader.call(&Request::Ingest { sql: input.sql.clone() }).unwrap();
        assert!(reply.contains("\"ok\":true,"), "{reply}");
        let churn = |i: usize| input.churn(i);
        let run = run_mixed(
            server.local_addr(),
            &origins,
            &expected.stats_fragment,
            &churn,
            0,
            0,
            Duration::from_millis(1500),
        );
        server.shutdown();
        let run = run.unwrap();
        assert!(run.reads.iter().any(|r| r.kind == ReadKind::Report));
        let mut notes = Vec::new();
        let (attempted, failed) =
            check_mixed(&run, &mut expected, &origins, input.cone, &mut notes);
        assert!(attempted > CYCLE as u64);
        assert_eq!(failed, 0, "{notes:?}");

        // One wrong expected query answer, a wrong report, a wrong cone.
        let first = run.reads.iter().find(|r| r.kind == ReadKind::Query).unwrap().origin;
        expected.queries.insert(first, (0, 0));
        let (_, failed) = check_mixed(&run, &mut expected, &origins, input.cone, &mut notes);
        assert!(failed >= 1);
        expected.queries.clear();
        expected.report.0 ^= 1;
        let (_, failed) = check_mixed(&run, &mut expected, &origins, input.cone, &mut notes);
        assert!(failed >= 1);
        expected.report.0 ^= 1;
        let (_, failed) = check_mixed(&run, &mut expected, &origins, input.cone + 1, &mut notes);
        assert_eq!(failed as usize, run.writes.len());
    }
}
