//! `ordered_pipeline`: codes flowing through order-preserving operators
//! (the paper's §5 thesis).
//!
//! Two pre-sorted tables, so the planner elides every sort: a fact table
//! with ten rows per key and a dimension table holding each key once.
//! The query filters the fact payload (about 70% pass), merge-joins 1:1
//! on four columns, and groups on a three-column prefix.  It is planned
//! once per degree of parallelism and run on the batched executor at
//! dop=2 (the end-to-end sample) and at dop=1 (the serial baseline).
//! The input fits in memory; a spilled row counts as a failure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ovc_baseline::sort_rows_plain_spec;
use ovc_bench::workload::grouped_sorted_table;
use ovc_core::derive::derive_codes;
use ovc_core::metrics::PlanProfile;
use ovc_core::{OvcRow, Row, SortSpec, Stats, StatsSnapshot};
use ovc_plan::{
    execute, execute_profiled, Aggregate, Catalog, ExecOptions, JoinType, LogicalPlan,
    PhysicalPlan, Planner, PlannerConfig, Predicate, Table,
};

use crate::cpus::Cpus;
use crate::report::{median, ms, peak_rss_mb, quantile, Report, SplitMix};
use crate::trace::Trace;
use crate::RunArgs;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Fact rows.
    pub fact_rows: usize,
    /// Times the tables are generated and registered to measure set-up,
    /// before the measured interval and again after it.
    pub setup_reps: usize,
    /// Queries measured at least, however short the run.
    pub min_samples: usize,
}

impl Params {
    /// The benchmark's size: 1 000 000 fact rows, 100 000 keys.
    pub fn full() -> Params {
        Params {
            fact_rows: 1_000_000,
            setup_reps: 3,
            min_samples: 3,
        }
    }

    /// A test-sized variant with the same shape.
    pub fn tiny() -> Params {
        Params {
            fact_rows: 20_000,
            setup_reps: 1,
            min_samples: 2,
        }
    }
}

/// Fact rows per distinct key (the dimension holds each key once).
const ROWS_PER_KEY: usize = 10;
/// Degree of parallelism of the measured plan.
const DOP: usize = 2;
/// Rows per batch on the batched executor.
const BATCH: usize = 1024;
/// Key columns of both tables; the join is on all of them.
const KEY_COLS: usize = 4;
/// Group-by prefix.
const GROUP_LEN: usize = 3;
/// Fact payload column the filter tests.
const PAYLOAD: usize = 4;
/// Dimension payload column in the joined row (fact row, then the
/// dimension's non-key columns), summed by the group-by.
const DIM_PAYLOAD: usize = 5;
/// Untraced runs time the dop=1 plan once per this many dop=2 queries.
const SERIAL_EVERY: u64 = 6;
/// Fact payloads are uniform `u32`s; this cut passes 70% of them.
const FILTER_BELOW: u64 = (u32::MAX as u64 + 1) * 7 / 10;

/// The generated tables.
struct Data {
    fact: Vec<Row>,
    dim: Vec<Row>,
    catalog: Catalog,
}

fn generate(p: &Params, seed: u64) -> Data {
    let fact = grouped_sorted_table(p.fact_rows, KEY_COLS, ROWS_PER_KEY, seed);
    let mut rng = SplitMix(seed ^ 0xD1D1_D1D1);
    let mut dim: Vec<Row> = Vec::with_capacity(p.fact_rows / ROWS_PER_KEY + 1);
    for r in &fact {
        let key = r.key(KEY_COLS);
        if dim.last().is_none_or(|d| d.key(KEY_COLS) != key) {
            let mut cols = key.to_vec();
            cols.push(rng.below(1 << 20));
            dim.push(Row::new(cols));
        }
    }
    let mut catalog = Catalog::new();
    catalog.register("fact", Table::sorted(fact.clone(), KEY_COLS));
    catalog.register("dim", Table::sorted(dim.clone(), KEY_COLS));
    Data { fact, dim, catalog }
}

/// The query, in the planner's builder API.
pub fn query() -> LogicalPlan {
    LogicalPlan::scan("fact")
        .filter(Predicate::ColLt(PAYLOAD, FILTER_BELOW))
        .join(LogicalPlan::scan("dim"), KEY_COLS, JoinType::Inner)
        .group_by(
            GROUP_LEN,
            vec![Aggregate::Count, Aggregate::Sum(DIM_PAYLOAD)],
        )
}

/// Expected rows and codes, computed without the engine: a `BTreeMap`
/// join and aggregate, a full-compare sort, and derived codes.
fn oracle(data: &Data) -> (Vec<Row>, Vec<u64>) {
    let dim: BTreeMap<&[u64], u64> = data
        .dim
        .iter()
        .map(|r| (r.key(KEY_COLS), r.cols()[KEY_COLS]))
        .collect();
    let mut groups: BTreeMap<Vec<u64>, (u64, u64)> = BTreeMap::new();
    for r in &data.fact {
        if r.cols()[PAYLOAD] >= FILTER_BELOW {
            continue;
        }
        if let Some(&attr) = dim.get(r.key(KEY_COLS)) {
            let g = groups.entry(r.key(GROUP_LEN).to_vec()).or_insert((0, 0));
            g.0 = g.0.wrapping_add(1);
            g.1 = g.1.wrapping_add(attr);
        }
    }
    let rows: Vec<Row> = groups
        .into_iter()
        .map(|(mut k, (count, sum))| {
            k.push(count);
            k.push(sum);
            Row::new(k)
        })
        .collect();
    let rows = sort_rows_plain_spec(rows, &SortSpec::asc(GROUP_LEN), &Stats::new_shared());
    let codes = derive_codes(&rows, GROUP_LEN)
        .iter()
        .map(|c| c.raw())
        .collect();
    (rows, codes)
}

fn matches(out: &[OvcRow], expect: &(Vec<Row>, Vec<u64>)) -> bool {
    out.len() == expect.0.len()
        && out
            .iter()
            .zip(expect.0.iter().zip(&expect.1))
            .all(|(o, (row, &code))| o.row == *row && o.code.raw() == code)
}

fn planner_config(dop: usize) -> PlannerConfig {
    PlannerConfig::default()
        .with_dop(dop)
        .with_batch_size(BATCH)
}

fn plan(catalog: &Catalog, dop: usize) -> PhysicalPlan {
    Planner::new(catalog, planner_config(dop))
        .plan(&query())
        .expect("the pipeline query plans")
}

/// Run the workload.
pub fn run(p: &Params, args: &RunArgs) -> Report {
    let mut report = Report::default();
    // Set-up is timed before the measured interval and again after it,
    // so that its median samples the host at both ends of the run, and
    // each set-up runs pinned, in turn, to each CPU the process may use.
    let cpus = Cpus::of_this_thread();
    let mut setup = Vec::new();
    let mut time_setups = |data: &mut Option<Data>| {
        for _ in 0..p.setup_reps {
            drop(data.take());
            *data = Some(cpus.on(setup.len(), || {
                let start = Instant::now();
                let data = generate(p, args.seed);
                setup.push(start.elapsed().as_secs_f64());
                data
            }));
        }
    };
    let mut data = None;
    time_setups(&mut data);
    let data = data.expect("at least one set-up");
    let expect = oracle(&data);
    let parallel = plan(&data.catalog, DOP);
    let serial = plan(&data.catalog, 1);
    let options = ExecOptions {
        batch_size: Some(BATCH),
        ..ExecOptions::default()
    };

    // One query: run, time, check against the oracle and the no-spill
    // rule outside the timed interval.
    let mut first_stats: Option<StatsSnapshot> = None;
    let mut once = |plan: &PhysicalPlan, report: &mut Report| -> f64 {
        let stats = Stats::new_shared();
        let start = Instant::now();
        let out = execute(plan, &data.catalog, &stats, &options).into_coded();
        let took = ms(start.elapsed());
        report.count(matches(&out, &expect) && stats.rows_spilled() == 0);
        first_stats.get_or_insert_with(|| stats.snapshot());
        took
    };

    let mut query_ms = Vec::new();
    let mut serial_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut profiles_par: Vec<(f64, PlanProfile)> = Vec::new();
    let mut profiles_ser: Vec<PlanProfile> = Vec::new();
    let mut trace = Trace::new();
    let deadline = Instant::now() + args.run_time();
    let mut iteration = 0u64;
    while query_ms.len() < p.min_samples || Instant::now() < deadline {
        query_ms.push(once(&parallel, &mut report));
        // The serial baseline is printed, not gated: sample it sparsely so
        // the dop=2 samples reach about 100 per run.
        if iteration % SERIAL_EVERY == SERIAL_EVERY - 1 || args.trace {
            serial_ms.push(once(&serial, &mut report));
        }
        if args.trace {
            let mut profiled = |plan: &PhysicalPlan, name: &'static str| {
                let stats = Stats::new_shared();
                let start = Instant::now();
                let (out, root) = execute_profiled(plan, &data.catalog, &stats, &options);
                let rows = out.into_coded();
                let end = Instant::now();
                trace.record(name, None, iteration, start, end);
                report.count(matches(&rows, &expect));
                (ms(end - start), root.snapshot())
            };
            let (took, profile) = profiled(&parallel, "execute_profiled.dop2");
            traced_ms.push(took);
            profiles_par.push((took, profile));
            profiles_ser.push(profiled(&serial, "execute_profiled.dop1").1);
        }
        iteration += 1;
    }

    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("query_ms_p50", median(&query_ms), "ms");
    report.metric("query_ms_p90", quantile(&query_ms, 0.9), "ms");
    report.note("samples", query_ms.len() as f64, "count");
    report.note("serial_ms_p50", median(&serial_ms), "ms");
    report.note("serial_samples", serial_ms.len() as f64, "count");
    report.note("result_rows", expect.0.len() as f64, "count");

    if args.trace {
        let stats = first_stats.expect("at least one query ran");
        let rows = p.fact_rows.max(1) as f64;
        report.metric(
            "core.col_cmps_per_row",
            stats.col_value_cmps as f64 / rows,
            "count/row",
        );
        report.metric(
            "core.ovc_cmps_per_row",
            stats.ovc_cmps as f64 / rows,
            "count/row",
        );
        operator_metrics(&mut report, &profiles_ser);
        exchange_metrics(&mut report, &profiles_par);
        report.metric("exec.serial_ms_p50", median(&serial_ms), "ms");
        report.metric("plan.plan_us", plan_us(&data.catalog, &mut trace), "us");
        report.metric(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&query_ms),
            "ratio",
        );
        args.write_trace(&trace);
    }
    time_setups(&mut Some(data));
    report.metric("setup_s", median(&setup), "s");
    report
}

/// Self figures of one profile node: inclusive minus its children.
fn self_of(node: &PlanProfile) -> (f64, u64, u64) {
    let kids = |f: fn(&PlanProfile) -> u64| -> u64 { node.children.iter().map(f).sum() };
    let wall_kids: f64 = node.children.iter().map(|c| ms(c.metrics.wall)).sum();
    (
        (ms(node.metrics.wall) - wall_kids).max(0.0),
        node.metrics
            .col_cmps()
            .saturating_sub(kids(|c| c.metrics.col_cmps())),
        node.metrics
            .code_resolved_cmps()
            .saturating_sub(kids(|c| c.metrics.code_resolved_cmps())),
    )
}

/// `exec.{filter,merge_join,group}.*` from the dop=1 profiles: self time
/// (median), rows out and self comparison counts (exact).
fn operator_metrics(report: &mut Report, profiles: &[PlanProfile]) {
    let ops: [(&str, [&'static str; 4]); 3] = [
        (
            "Filter",
            [
                "exec.filter.self_ms",
                "exec.filter.rows_out",
                "exec.filter.col_cmps",
                "exec.filter.code_cmps",
            ],
        ),
        (
            "MergeJoinOvc",
            [
                "exec.merge_join.self_ms",
                "exec.merge_join.rows_out",
                "exec.merge_join.col_cmps",
                "exec.merge_join.code_cmps",
            ],
        ),
        (
            "GroupOvc",
            [
                "exec.group.self_ms",
                "exec.group.rows_out",
                "exec.group.col_cmps",
                "exec.group.code_cmps",
            ],
        ),
    ];
    for (op, [self_ms, rows_out, col, code]) in ops {
        let nodes: Vec<&PlanProfile> = profiles.iter().filter_map(|p| p.find(op)).collect();
        let Some(first) = nodes.first() else { continue };
        let walls: Vec<f64> = nodes.iter().map(|n| self_of(n).0).collect();
        let (_, cols, codes) = self_of(first);
        report.metric(self_ms, median(&walls), "ms");
        report.metric(rows_out, first.metrics.rows_out as f64, "count");
        report.metric(col, cols as f64, "count");
        report.metric(code, codes as f64, "count");
    }
}

/// `exchange.*` from the dop=2 profiles' channel gauges, and
/// `exec.profile_coverage`: the operators' self walls summed, over the
/// query's wall.
fn exchange_metrics(report: &mut Report, profiles: &[(f64, PlanProfile)]) {
    let mut send = Vec::new();
    let mut recv = Vec::new();
    let mut peak = Vec::new();
    let mut coverage = Vec::new();
    for (query_ms, profile) in profiles {
        let nodes = profile.nodes();
        let gauges = nodes.iter().flat_map(|n| n.gauges.iter());
        send.push(gauges.clone().map(|g| ms(g.send_wait)).sum::<f64>());
        recv.push(gauges.clone().map(|g| ms(g.recv_wait)).sum::<f64>());
        peak.push(gauges.map(|g| g.peak_depth).max().unwrap_or(0) as f64);
        let self_walls: f64 = nodes.iter().map(|n| self_of(n).0).sum();
        coverage.push(self_walls / query_ms);
    }
    let Some((_, first)) = profiles.first() else {
        return;
    };
    let exchanges = first.nodes().into_iter().filter(|n| n.name == "Exchange");
    let moved: u64 = first
        .nodes()
        .iter()
        .flat_map(|n| n.gauges.iter())
        .map(|g| g.rows)
        .sum();
    report.metric("exchange.count", exchanges.count() as f64, "count");
    report.metric("exchange.rows_moved", moved as f64, "count");
    report.metric("exchange.send_wait_ms", median(&send), "ms");
    report.metric("exchange.recv_wait_ms", median(&recv), "ms");
    report.metric("exchange.peak_depth_max", quantile(&peak, 1.0), "count");
    report.metric("exec.profile_coverage", median(&coverage), "ratio");
}

/// Median time of `Planner::plan` on the pipeline query at dop=2.
fn plan_us(catalog: &Catalog, trace: &mut Trace) -> f64 {
    let planner = Planner::new(catalog, planner_config(DOP));
    let q = query();
    let mut us = Vec::new();
    for i in 0..200 {
        let start = Instant::now();
        let plan = planner.plan(&q);
        let end = Instant::now();
        black_box(&plan);
        trace.record("plan", None, i, start, end);
        us.push((end - start).as_secs_f64() * 1e6);
    }
    median(&us)
}
