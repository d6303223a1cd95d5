//! `served_mix`: the served engine under independent users.
//!
//! `ovc-server` is booted in-process with the planner settings of the
//! shipped binary at dop=2 (batch 1024).  Requests arrive as an **open
//! loop** at [`RATE_PER_S`] over two keep-alive connections, each driven
//! by its own thread that takes the next due request when it is free.
//! Each request is timed from when it was due, so a stall also charges
//! the requests queued behind it.  The seeded mix:
//!
//! * 83% `lookup`: an equality filter on sorted `t1` returning about one
//!   row — the fixed cost of a request;
//! * 10% `intersect`: Figure 5's `t1 ∩ t2`, streaming about 8 000 rows —
//!   wire encode, stream and decode;
//! * 5% `group_by`: a 40 000-row heap table sorted, then grouped behind
//!   an exchange — the engine behind the server;
//! * 2% `register`: `POST /tables` of a 1 000-row table under a rotating
//!   name — the write path beside the reads.
//!
//! The shares put both reported quantiles in the middle of one kind's
//! latency band (cumulative shares, in latency order: lookup 0.83,
//! register 0.85, intersect 0.95, group-by 1.0): the median near the
//! lookups' 60th percentile, the 90th percentile near the intersects'
//! median.  A quantile on the edge between two kinds, or in one kind's
//! tail, jumps from run to run.
//!
//! Every response is checked against the library's output for the same
//! request, and the library's output against an independent oracle.
//! The client's own success and failure counts must match the deltas of
//! the server's `/metrics` counters.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ovc_baseline::sort_rows_plain_spec;
use ovc_bench::snapshot::Json;
use ovc_bench::workload::{intersect_tables, table, TableSpec};
use ovc_core::ctx::{self, ExecError};
use ovc_core::{OvcRow, Row, SortSpec, Stats};
use ovc_plan::{execute, Catalog, ExecOptions, LogicalPlan, Planner, PlannerConfig, Table};
use ovc_server::{parse_plan, Server, ServerConfig, ServerHandle};

use crate::client::{Conn, Digest, Response};
use crate::cpus::Cpus;
use crate::report::{median, ms, peak_rss_mb, quantile, Report, SplitMix};
use crate::trace::Trace;
use crate::RunArgs;

/// Arrival rate of the open loop, requests per second: about half of
/// the 45–47 requests per second two closed-loop connections sustained
/// on a 2-core host (see `NOTES.md`).  `BENCHMARK.json` records the same
/// figure.
pub const RATE_PER_S: f64 = 24.0;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Rows of each intersect input (`t1`, `t2`).
    pub set_rows: usize,
    /// Rows of the heap table behind `group_by`.
    pub heap_rows: usize,
    /// Rows of each registered table.
    pub register_rows: usize,
    /// Times the server is set up to measure set-up, before the load and
    /// again after it.
    pub setup_reps: usize,
    /// Requests sent at least, however short the run.
    pub min_requests: usize,
    /// In-process executions per request kind in the traced run.
    pub engine_reps: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Params {
        Params {
            set_rows: 20_000,
            heap_rows: 40_000,
            register_rows: 1_000,
            setup_reps: 20,
            min_requests: 40,
            engine_reps: 15,
        }
    }

    /// A test-sized variant with the same mix.
    pub fn tiny() -> Params {
        Params {
            set_rows: 2_000,
            heap_rows: 4_000,
            register_rows: 100,
            setup_reps: 1,
            min_requests: 20,
            engine_reps: 2,
        }
    }
}

/// Rotating names of registered tables.
const REGISTER_NAMES: usize = 8;
/// Keep-alive connections carrying the load.
const CONNECTIONS: usize = 2;

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Lookup(u64),
    Intersect,
    GroupBy,
    Register(usize),
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Lookup(_) => "lookup",
            Kind::Intersect => "intersect",
            Kind::GroupBy => "group_by",
            Kind::Register(_) => "register",
        }
    }
}

const INTERSECT_PLAN: &str =
    r#"{"set_op": {"left": {"scan": "t1"}, "right": {"scan": "t2"}, "op": "intersect"}}"#;
const GROUP_BY_PLAN: &str = r#"{"sort": {"input": {"group_by": {"input": {"scan": "heap"}, "group_len": 2, "aggs": ["count", {"sum": 2}]}}, "key_len": 2}}"#;

fn plan_json(kind: Kind) -> String {
    match kind {
        Kind::Lookup(v) => {
            format!(r#"{{"filter": {{"input": {{"scan": "t1"}}, "pred": {{"eq": [0, {v}]}}}}}}"#)
        }
        Kind::Intersect => INTERSECT_PLAN.to_string(),
        Kind::GroupBy => GROUP_BY_PLAN.to_string(),
        Kind::Register(_) => unreachable!("registration carries no plan"),
    }
}

fn logical(kind: Kind) -> LogicalPlan {
    let doc = Json::parse(&plan_json(kind)).expect("the benchmark's plans are valid JSON");
    parse_plan(&doc).expect("the benchmark's plans parse")
}

/// Inputs of one seed.
struct Data {
    t1: Vec<Row>,
    t2: Vec<Row>,
    heap: Vec<Row>,
    /// Request bodies of the rotating registrations.
    register_bodies: Vec<String>,
}

fn generate(p: &Params, seed: u64) -> Data {
    let (mut t1, mut t2) = intersect_tables(p.set_rows, seed);
    t1.sort();
    t2.sort();
    let heap = table(TableSpec {
        rows: p.heap_rows,
        key_cols: 2,
        payload_cols: 1,
        distinct_per_col: 32,
        seed: seed ^ 0x4EA9,
    });
    let mut rng = SplitMix(seed ^ 0x7AB1E);
    let register_bodies = (0..REGISTER_NAMES)
        .map(|i| {
            let mut rows: Vec<[u64; 2]> = (0..p.register_rows)
                .map(|_| [rng.below(1 << 20), rng.below(1 << 20)])
                .collect();
            rows.sort();
            let rows: Vec<String> = rows
                .iter()
                .map(|r| format!("[{},{}]", r[0], r[1]))
                .collect();
            format!(
                r#"{{"name": "reg{i}", "sorted_key": 1, "rows": [{}]}}"#,
                rows.join(",")
            )
        })
        .collect();
    Data {
        t1,
        t2,
        heap,
        register_bodies,
    }
}

fn catalog(data: &Data) -> Catalog {
    let mut c = Catalog::new();
    c.register("t1", Table::sorted(data.t1.clone(), 1));
    c.register("t2", Table::sorted(data.t2.clone(), 1));
    c.register("heap", Table::unsorted(data.heap.clone()));
    c
}

fn planner_config() -> PlannerConfig {
    PlannerConfig::default().with_dop(2).with_batch_size(1024)
}

fn exec_options() -> ExecOptions {
    ExecOptions {
        batch_size: planner_config().batch_size,
        ..ExecOptions::default()
    }
}

/// The library's answer to `kind`, through in-process `execute`.
fn library(catalog: &Catalog, kind: Kind) -> Vec<OvcRow> {
    let plan = Planner::new(catalog, planner_config())
        .plan(&logical(kind))
        .expect("the benchmark's plans plan");
    execute(&plan, catalog, &Stats::new_shared(), &exec_options()).into_coded()
}

/// Independent answers: set and map arithmetic over the inputs, a
/// full-compare sort, and derived codes.
fn oracle(data: &Data, kind: Kind) -> Digest {
    let spec = |k| SortSpec::asc(k);
    match kind {
        Kind::Lookup(v) => {
            let rows: Vec<Row> = data
                .t1
                .iter()
                .filter(|r| r.cols()[0] == v)
                .cloned()
                .collect();
            Digest::of_expected(&rows, 1)
        }
        Kind::Intersect => {
            let a: BTreeSet<&Row> = data.t1.iter().collect();
            let b: BTreeSet<&Row> = data.t2.iter().collect();
            let rows: Vec<Row> = a.intersection(&b).map(|r| (*r).clone()).collect();
            let rows = sort_rows_plain_spec(rows, &spec(1), &Stats::new_shared());
            Digest::of_expected(&rows, 1)
        }
        Kind::GroupBy => {
            let mut groups: BTreeMap<[u64; 2], (u64, u64)> = BTreeMap::new();
            for r in &data.heap {
                let c = r.cols();
                let g = groups.entry([c[0], c[1]]).or_insert((0, 0));
                g.0 = g.0.wrapping_add(1);
                g.1 = g.1.wrapping_add(c[2]);
            }
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(k, (n, s))| Row::new(vec![k[0], k[1], n, s]))
                .collect();
            let rows = sort_rows_plain_spec(rows, &spec(2), &Stats::new_shared());
            Digest::of_expected(&rows, 2)
        }
        Kind::Register(_) => Digest::default(),
    }
}

/// A booted server and the connections that load it.
struct Booted {
    handle: ServerHandle,
    runner: JoinHandle<Result<std::io::Result<()>, ExecError>>,
    addr: SocketAddr,
    conns: Vec<Conn>,
    monitor: Conn,
}

fn boot(data: &Data) -> std::io::Result<Booted> {
    let config = ServerConfig {
        planner: planner_config(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config, catalog(data))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || ctx::contain(|| server.run()));
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let monitor = Conn::connect(addr)?;
    Ok(Booted {
        handle,
        runner,
        addr,
        conns,
        monitor,
    })
}

impl Booted {
    /// Close the connections, shut the server down, and wait for it;
    /// a server that failed or panicked is recorded against the run.
    fn stop(self, report: &mut Report) {
        drop(self.conns);
        drop(self.monitor);
        self.handle.shutdown();
        let failure = match self.runner.join() {
            Ok(Ok(Ok(()))) => return,
            Ok(Ok(Err(e))) => format!("server stopped with an error: {e}"),
            Ok(Err(e)) => format!("server panicked: {e}"),
            Err(payload) => format!("server panicked: {}", ctx::error_from_panic(payload)),
        };
        report.inconsistent.push(failure);
    }
}

/// The server's counters the client's accounting is checked against.
const COUNTERS: [&str; 5] = [
    "ovc_requests_total",
    "ovc_queries_total",
    "ovc_query_errors_total",
    "ovc_rate_limited_total",
    "ovc_sessions_rejected_total",
];

/// Counter values scraped from `/metrics`.
type Counters = BTreeMap<&'static str, u64>;

fn scrape(conn: &mut Conn) -> Result<Counters, String> {
    let r = conn
        .request("GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    COUNTERS
        .iter()
        .map(|&name| {
            r.body
                .lines()
                .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
                .map(|v| (name, v))
                .ok_or_else(|| format!("/metrics lacks {name}"))
        })
        .collect()
}

/// One request of the schedule and what happened to it.
#[derive(Clone, Debug)]
struct Sample {
    kind: Kind,
    due: Instant,
    sent: Instant,
    first_batch: Option<Instant>,
    done: Instant,
    outcome: Outcome,
    body_bytes: u64,
    rows: u64,
    col_cmps: u64,
    ovc_cmps: u64,
}

/// How a request ended, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// 200 with a trailer; the digest is checked later.
    Streamed(Digest),
    /// Registration acknowledged.
    Registered,
    RateLimited,
    Refused,
    /// Error frame, or a 4xx/5xx answer to a query.
    QueryError,
    /// Anything else: a broken stream, a missing trailer, I/O failure.
    Broken,
}

/// The seeded request mix: 83% lookup, 10% intersect, 5% group-by, 2%
/// register.
fn schedule(data: &Data, seed: u64, n: usize) -> Vec<Kind> {
    let mut rng = SplitMix(seed ^ 0x5EED_311C);
    let mut registered = 0usize;
    (0..n)
        .map(|_| match rng.below(100) {
            0..=82 => {
                // A value present in `t1`, so the lookup returns rows.
                let row = &data.t1[rng.below(data.t1.len() as u64) as usize];
                Kind::Lookup(row.cols()[0])
            }
            83..=92 => Kind::Intersect,
            93..=97 => Kind::GroupBy,
            _ => {
                registered += 1;
                Kind::Register(registered % REGISTER_NAMES)
            }
        })
        .collect()
}

/// Drive `kinds` as an open loop at `rate` over the booted connections.
/// A load thread that panics is recorded against the run.
fn load(
    booted: &mut Booted,
    data: &Data,
    kinds: &[Kind],
    rate: f64,
    report: &mut Report,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(kinds.len()));
    let start = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let addr = booted.addr;
    let failures: Vec<ExecError> = std::thread::scope(|scope| {
        let threads: Vec<_> = booted
            .conns
            .iter_mut()
            .map(|conn| {
                let (next, samples) = (&next, &samples);
                scope.spawn(move || {
                    ctx::contain(|| loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&kind) = kinds.get(i) else { break };
                        let due = start + interval * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let result = match kind {
                            Kind::Register(k) => {
                                conn.request("POST", "/tables", &data.register_bodies[k])
                            }
                            _ => conn.request(
                                "POST",
                                "/query",
                                &format!("{{\"plan\": {}}}", plan_json(kind)),
                            ),
                        };
                        let done = Instant::now();
                        let sample = judge(kind, due, sent, done, result);
                        if sample.outcome == Outcome::Broken {
                            if let Ok(fresh) = Conn::connect(addr) {
                                *conn = fresh;
                            }
                        }
                        samples.lock().expect("no sampler panics").push(sample);
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .filter_map(|t| match t.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(payload) => Some(ctx::error_from_panic(payload)),
            })
            .collect()
    });
    for e in failures {
        report
            .inconsistent
            .push(format!("load thread panicked: {e}"));
    }
    let mut samples = samples.into_inner().expect("no sampler panics");
    samples.sort_by_key(|s| s.due);
    samples
}

fn judge(
    kind: Kind,
    due: Instant,
    sent: Instant,
    done: Instant,
    result: std::io::Result<Response>,
) -> Sample {
    let mut sample = Sample {
        kind,
        due,
        sent,
        first_batch: None,
        done,
        outcome: Outcome::Broken,
        body_bytes: 0,
        rows: 0,
        col_cmps: 0,
        ovc_cmps: 0,
    };
    let Ok(r) = result else { return sample };
    sample.first_batch = r.first_batch;
    sample.body_bytes = r.body_bytes;
    sample.col_cmps = r.col_cmps;
    sample.ovc_cmps = r.ovc_cmps;
    sample.outcome = match (r.status, kind) {
        (429, _) => Outcome::RateLimited,
        (503, _) => Outcome::Refused,
        (200, Kind::Register(_)) => {
            if r.body.contains("\"status\":\"ok\"") {
                Outcome::Registered
            } else {
                Outcome::Broken
            }
        }
        (200, _) if r.error_frame => Outcome::QueryError,
        (200, _) => match (r.digest, r.trailer_rows) {
            (Some(d), Some(rows)) if rows == d.rows => {
                sample.rows = rows;
                Outcome::Streamed(d)
            }
            _ => Outcome::Broken,
        },
        (400..=599, Kind::Register(_)) => Outcome::Broken,
        (400..=599, _) => Outcome::QueryError,
        _ => Outcome::Broken,
    };
    sample
}

/// Check every sample against the library's answer for its request (the
/// library's answers themselves checked against the oracle once per
/// kind), and count it.
fn check(report: &mut Report, samples: &[Sample], data: &Data, catalog: &Catalog) {
    let mut library_digests: BTreeMap<Kind, Digest> = BTreeMap::new();
    let mut oracle_checked = BTreeSet::new();
    for s in samples {
        let ok = match s.outcome {
            Outcome::Registered => true,
            Outcome::Streamed(got) => {
                let want = *library_digests
                    .entry(s.kind)
                    .or_insert_with(|| Digest::of(&library(catalog, s.kind)));
                if oracle_checked.insert(s.kind.label()) && oracle(data, s.kind) != want {
                    report.inconsistent.push(format!(
                        "library {} disagrees with the oracle",
                        s.kind.label()
                    ));
                }
                got == want
            }
            _ => false,
        };
        report.count(ok);
    }
}

/// Cross-check the client's counts of every request sent to a freshly
/// booted server against the server's counters.
///
/// A session bumps its counters just after the response's last byte, so
/// a scrape can race the last request or two; it is repeated until the
/// counts agree or a second has passed.  Each scrape is itself a request
/// the server counts.
fn cross_check(report: &mut Report, samples: &[Sample], monitor: &mut Conn) {
    let count = |f: fn(&Outcome) -> bool| samples.iter().filter(|s| f(&s.outcome)).count() as u64;
    let mut expected = [
        ("ovc_requests_total", samples.len() as u64),
        (
            "ovc_queries_total",
            count(|o| matches!(o, Outcome::Streamed(_))),
        ),
        (
            "ovc_query_errors_total",
            count(|o| *o == Outcome::QueryError),
        ),
        (
            "ovc_rate_limited_total",
            count(|o| *o == Outcome::RateLimited),
        ),
        (
            "ovc_sessions_rejected_total",
            count(|o| *o == Outcome::Refused),
        ),
    ];
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        expected[0].1 += 1;
        let after = match scrape(monitor) {
            Ok(a) => a,
            Err(e) => {
                report.inconsistent.push(e);
                return;
            }
        };
        let wrong: Vec<String> = expected
            .iter()
            .filter(|&&(name, want)| after[name] != want)
            .map(|&(name, want)| {
                format!("{name} reads {} but the client counted {want}", after[name])
            })
            .collect();
        if wrong.is_empty() {
            return;
        }
        if Instant::now() >= deadline {
            report.inconsistent.extend(wrong);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Run the workload.
pub fn run(p: &Params, args: &RunArgs) -> Report {
    let mut report = Report::default();
    // Set-up is timed before the load and again after it, so that its
    // median samples the host at both ends of the run.
    let cpus = Cpus::of_this_thread();
    let mut setup = Vec::new();
    let mut booted: Option<(Data, Booted)> = None;
    for _ in 0..p.setup_reps {
        if let Some((_, b)) = booted.take() {
            b.stop(&mut report);
        }
        match set_up(p, args.seed, &cpus, &mut setup) {
            Ok(b) => booted = Some(b),
            Err(e) => {
                report
                    .inconsistent
                    .push(format!("server did not boot: {e}"));
                return report;
            }
        }
    }
    let (data, mut booted) = booted.expect("at least one set-up");
    let catalog = catalog(&data);

    // Warm up every path once, outside the measurement.
    let warm = [
        Kind::Lookup(data.t1[0].cols()[0]),
        Kind::Intersect,
        Kind::GroupBy,
        Kind::Register(0),
    ];
    let warmed = load(&mut booted, &data, &warm, 1000.0, &mut report);

    let n = ((RATE_PER_S * args.seconds).ceil() as usize).max(p.min_requests);
    let kinds = schedule(&data, args.seed, n);
    let samples = load(&mut booted, &data, &kinds, RATE_PER_S, &mut report);
    let all: Vec<Sample> = warmed.iter().chain(&samples).cloned().collect();
    cross_check(&mut report, &all, &mut booted.monitor);
    check(&mut report, &all, &data, &catalog);

    let latency: Vec<f64> = samples.iter().map(|s| ms(s.done - s.due)).collect();
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("query_ms_p50", median(&latency), "ms");
    report.metric("query_ms_p90", quantile(&latency, 0.9), "ms");
    report.note("samples", latency.len() as f64, "count");
    report.note("ttfr_ms_p50", ttfr_p50(&samples), "ms");
    report.note("rate_per_s", RATE_PER_S, "1/s");
    report.note("late_ms_max", late_max(&samples), "ms");
    if let (Some(first), Some(last)) = (samples.first(), samples.iter().map(|s| s.done).max()) {
        let span = (last - first.due).as_secs_f64();
        report.note("completed_per_s", samples.len() as f64 / span, "1/s");
    }

    if args.trace {
        let mut trace = Trace::new();
        layer_metrics(&mut report, p, &catalog, &samples, &mut trace);
        args.write_trace(&trace);
    }
    booted.stop(&mut report);
    for _ in 0..p.setup_reps {
        match set_up(p, args.seed, &cpus, &mut setup) {
            Ok((_, b)) => b.stop(&mut report),
            Err(e) => report
                .inconsistent
                .push(format!("server did not boot: {e}")),
        }
    }
    report.metric("setup_s", median(&setup), "s");
    report
}

/// Generate the tables and boot a server on them; the time it takes is
/// pushed onto `setup`.  Generation runs pinned to the next of `cpus`;
/// the server boots unpinned, so that its threads may use every CPU.
fn set_up(
    p: &Params,
    seed: u64,
    cpus: &Cpus,
    setup: &mut Vec<f64>,
) -> std::io::Result<(Data, Booted)> {
    let start = Instant::now();
    let data = cpus.on(setup.len(), || generate(p, seed));
    let booted = boot(&data)?;
    setup.push(start.elapsed().as_secs_f64());
    Ok((data, booted))
}

/// Median time from a request's due time to its first batch frame.
fn ttfr_p50(samples: &[Sample]) -> f64 {
    let ttfr: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.first_batch.map(|t| ms(t - s.due)))
        .collect();
    median(&ttfr)
}

fn late_max(samples: &[Sample]) -> f64 {
    samples
        .iter()
        .map(|s| ms(s.sent.saturating_duration_since(s.due)))
        .fold(0.0, f64::max)
}

/// Served, in-process, and served-minus-in-process medians of a request
/// kind.
const LOOKUP_METRICS: [&str; 3] = [
    "served.lookup_ms_p50",
    "engine.lookup_ms_p50",
    "server.lookup_outside_ms_p50",
];
const INTERSECT_METRICS: [&str; 3] = [
    "served.intersect_ms_p50",
    "engine.intersect_ms_p50",
    "server.intersect_outside_ms_p50",
];
const GROUP_BY_METRICS: [&str; 3] = [
    "served.group_by_ms_p50",
    "engine.group_by_ms_p50",
    "server.group_by_outside_ms_p50",
];

/// Per-layer metrics from the load's samples, plus in-process runs of the
/// same requests.  Every sample already carries the client's timestamps,
/// so the spans are built after the load and recording them costs the
/// load nothing.
fn layer_metrics(
    report: &mut Report,
    p: &Params,
    catalog: &Catalog,
    samples: &[Sample],
    trace: &mut Trace,
) {
    for (i, s) in samples.iter().enumerate() {
        let req = trace.record("request", None, i as u64, s.due, s.done);
        trace.record("loadgen.queue", Some(req), i as u64, s.due, s.sent);
        let first = s.first_batch.unwrap_or(s.done);
        trace.record("server.first_frame", Some(req), i as u64, s.sent, first);
        trace.record("client.stream", Some(req), i as u64, first, s.done);
    }
    let served = |label: &str| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind.label() == label)
            .map(|s| ms(s.done - s.sent))
            .collect();
        median(&v)
    };

    // The same requests through in-process `execute`, timed the same way.
    let lookups: Vec<Kind> = samples
        .iter()
        .map(|s| s.kind)
        .filter(|k| matches!(k, Kind::Lookup(_)))
        .collect();
    let planner = Planner::new(catalog, planner_config());
    let engine = |kinds: Vec<Kind>, trace: &mut Trace| -> f64 {
        let mut v = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            let plan = planner
                .plan(&logical(kind))
                .expect("the benchmark's plans plan");
            let start = Instant::now();
            let out = execute(&plan, catalog, &Stats::new_shared(), &exec_options()).into_coded();
            let end = Instant::now();
            black_box(out);
            trace.record("engine.execute", None, i as u64, start, end);
            v.push(ms(end - start));
        }
        median(&v)
    };
    let reps = p.engine_reps.max(1);
    let lookup_kinds: Vec<Kind> = lookups.iter().copied().cycle().take(reps).collect();
    let kinds = [
        (engine(lookup_kinds, trace), "lookup", LOOKUP_METRICS),
        (
            engine(vec![Kind::Intersect; reps], trace),
            "intersect",
            INTERSECT_METRICS,
        ),
        (
            engine(vec![Kind::GroupBy; reps], trace),
            "group_by",
            GROUP_BY_METRICS,
        ),
    ];
    for (engine_ms, label, [served_name, engine_name, outside_name]) in kinds {
        let served_ms = served(label);
        report.metric(served_name, served_ms, "ms");
        report.metric(engine_name, engine_ms, "ms");
        report.metric(outside_name, served_ms - engine_ms, "ms");
    }
    report.metric("server.register_ms_p50", served("register"), "ms");
    report.metric("server.ttfr_ms_p50", ttfr_p50(samples), "ms");
    let refused = samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::RateLimited | Outcome::Refused))
        .count();
    report.metric("server.refused", refused as f64, "count");
    let (bytes, rows) = samples
        .iter()
        .filter(|s| s.kind == Kind::Intersect)
        .fold((0u64, 0u64), |(b, r), s| (b + s.body_bytes, r + s.rows));
    report.metric(
        "wire.bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
        "B/row",
    );
    report.metric("wire.parse_plan_us", parse_plan_us(trace), "us");
    report.metric("loadgen.late_ms_max", late_max(samples), "ms");
    let plan_us: Vec<f64> = (0..300)
        .map(|i| {
            let q = logical([Kind::Lookup(7), Kind::Intersect, Kind::GroupBy][i % 3]);
            let start = Instant::now();
            black_box(planner.plan(&q).expect("the benchmark's plans plan"));
            (start.elapsed()).as_secs_f64() * 1e6
        })
        .collect();
    report.metric("plan.plan_us", median(&plan_us), "us");
    let streamed: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Streamed(_)))
        .collect();
    let rows = streamed.iter().map(|s| s.rows).sum::<u64>().max(1) as f64;
    report.metric(
        "core.col_cmps_per_row",
        streamed.iter().map(|s| s.col_cmps).sum::<u64>() as f64 / rows,
        "count/row",
    );
    report.metric(
        "core.ovc_cmps_per_row",
        streamed.iter().map(|s| s.ovc_cmps).sum::<u64>() as f64 / rows,
        "count/row",
    );
    // Spans are built from timestamps the load takes anyway, so tracing
    // adds nothing to a served request.
    report.metric("trace.overhead_ratio", 1.0, "ratio");
}

/// Median time of `ovc_server::parse_plan` (JSON text to logical plan)
/// on the intersect request's plan.
fn parse_plan_us(trace: &mut Trace) -> f64 {
    let us: Vec<f64> = (0..300)
        .map(|i| {
            let start = Instant::now();
            let doc = Json::parse(INTERSECT_PLAN).expect("valid JSON");
            black_box(parse_plan(&doc).expect("valid plan"));
            let end = Instant::now();
            trace.record("wire.parse_plan", None, i, start, end);
            (end - start).as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}
