//! `sort_spill`: does the sort layer do its job when the data does not
//! fit in memory?
//!
//! Unsorted rows with many key columns of few distinct values (the
//! paper's setting) are sorted under a memory budget a tenth of the
//! input, so run generation spills ten runs that one merge level at
//! fan-in 128 combines.  The spill device is `ovc-storage`'s in-memory
//! prefix-truncated encoder, so disk noise does not enter.  Nearly all
//! the work falls on `ovc-sort` and `ovc-storage`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ovc_baseline::sort_rows_plain_spec;
use ovc_bench::workload::{table, TableSpec};
use ovc_core::derive::derive_codes;
use ovc_core::{ExecError, Row, SortSpec, Stats};
use ovc_sort::{external_sort_spec_to_run, Run, RunStorage, SortConfig};
use ovc_storage::EncodedRunStorage;

use crate::cpus::Cpus;
use crate::report::{median, ms, peak_rss_mb, quantile, Report};
use crate::trace::Trace;
use crate::RunArgs;

/// Workload size.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Input rows.
    pub rows: usize,
    /// Run-generation memory budget in rows.
    pub memory_rows: usize,
    /// Times the input is generated to measure set-up.
    pub setup_reps: usize,
    /// Sorts measured at least, however short the run.
    pub min_samples: usize,
}

impl Params {
    /// The benchmark's size: 500 000 rows, 8 keys × 8 values, 10 runs.
    pub fn full() -> Params {
        Params {
            rows: 500_000,
            memory_rows: 50_000,
            setup_reps: 10,
            min_samples: 3,
        }
    }

    /// A test-sized variant with the same shape.
    pub fn tiny() -> Params {
        Params {
            rows: 5_000,
            memory_rows: 500,
            setup_reps: 2,
            min_samples: 2,
        }
    }
}

/// Key columns (one payload column follows), each with [`DISTINCT`]
/// values: the paper's "many key columns, few distinct values".
const KEY_COLS: usize = 8;
/// Distinct values per key column.
const DISTINCT: u64 = 8;
/// Merge fan-in: every spilled run merges in one level.
const FAN_IN: usize = 128;

/// A spill device that times every call into the wrapped one.
struct TimedStorage<S> {
    inner: S,
    calls: Vec<(&'static str, Instant, Instant)>,
}

impl<S: RunStorage> RunStorage for TimedStorage<S> {
    fn write_run(&mut self, run: Run) -> Result<usize, ExecError> {
        let start = Instant::now();
        let handle = self.inner.write_run(run);
        self.calls
            .push(("storage.write_run", start, Instant::now()));
        handle
    }

    fn read_run(&mut self, handle: usize) -> Result<Run, ExecError> {
        let start = Instant::now();
        let run = self.inner.read_run(handle);
        self.calls.push(("storage.read_run", start, Instant::now()));
        run
    }

    fn stored_runs(&self) -> usize {
        self.inner.stored_runs()
    }
}

/// The expected output, flattened: row values and raw codes.
struct Oracle {
    values: Vec<u64>,
    codes: Vec<u64>,
}

impl Oracle {
    /// Full-compare sort of the input plus independently derived codes.
    fn new(input: &[Row], spec: &SortSpec) -> Oracle {
        let sorted = sort_rows_plain_spec(input.to_vec(), spec, &Stats::new_shared());
        let codes = derive_codes(&sorted, spec.len());
        Oracle {
            values: sorted
                .iter()
                .flat_map(|r| r.cols().iter().copied())
                .collect(),
            codes: codes.iter().map(|c| c.raw()).collect(),
        }
    }

    fn matches(&self, run: &Run) -> bool {
        run.flat().values() == self.values.as_slice()
            && run.flat().codes().len() == self.codes.len()
            && run
                .flat()
                .codes()
                .iter()
                .zip(&self.codes)
                .all(|(c, &want)| c.raw() == want)
    }
}

/// Per-phase times of one traced sort.
struct Phases {
    total: Duration,
    run_gen: Duration,
    merge: Duration,
    encode: Duration,
    decode: Duration,
    runs: usize,
}

/// Run the workload.
pub fn run(p: &Params, args: &RunArgs) -> Report {
    let mut report = Report::default();
    let spec = SortSpec::asc(KEY_COLS);
    let config = SortConfig::new(KEY_COLS, p.memory_rows).with_fan_in(FAN_IN);

    // Every set-up and every sort runs pinned, in turn, to each CPU the
    // process may use, so that each run samples all of them.  Set-up is
    // timed before the sorts and again after them, so that its median
    // samples the host at both ends of the run.
    let cpus = Cpus::of_this_thread();
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>| -> Vec<Row> {
        cpus.on(setup.len(), || {
            let start = Instant::now();
            let input = table(TableSpec {
                rows: p.rows,
                key_cols: KEY_COLS,
                payload_cols: 1,
                distinct_per_col: DISTINCT,
                seed: args.seed,
            });
            setup.push(start.elapsed().as_secs_f64());
            input
        })
    };
    let mut input = Vec::new();
    for _ in 0..p.setup_reps.div_ceil(2) {
        drop(std::mem::take(&mut input));
        input = set_up(&mut setup);
    }
    let oracle = Oracle::new(&input, &spec);

    let mut sort_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut phases = Vec::new();
    let mut stats_of_first = None;
    let mut trace = Trace::new();
    let deadline = Instant::now() + args.run_time();
    let mut iteration = 0u64;
    while sort_ms.len() < p.min_samples || Instant::now() < deadline {
        // Untraced sort: the end-to-end sample.
        let stats = Stats::new_shared();
        let mut storage = EncodedRunStorage::new(Arc::clone(&stats));
        let data = input.clone();
        let (run, took) = cpus.on(sort_ms.len(), || {
            let start = Instant::now();
            let run = external_sort_spec_to_run(data, config, &spec, &mut storage, &stats);
            (run, start.elapsed())
        });
        sort_ms.push(ms(took));
        report.count(oracle.matches(&run));
        drop(run);
        stats_of_first.get_or_insert(stats);

        if args.trace {
            let stats = Stats::new_shared();
            let mut storage = TimedStorage {
                inner: EncodedRunStorage::new(Arc::clone(&stats)),
                calls: Vec::new(),
            };
            let data = input.clone();
            let (run, start, end) = cpus.on(traced_ms.len(), || {
                let start = Instant::now();
                let run = external_sort_spec_to_run(data, config, &spec, &mut storage, &stats);
                (run, start, Instant::now())
            });
            report.count(oracle.matches(&run));
            drop(run);
            let sort = trace.record("sort", None, iteration, start, end);
            for &(name, s, e) in &storage.calls {
                trace.record(name, Some(sort), iteration, s, e);
            }
            phases.push(phases_of(start, end, &storage.calls));
            traced_ms.push(ms(end - start));

            let data = input.clone();
            let (sorted, start, end) = cpus.on(plain_ms.len(), || {
                let start = Instant::now();
                let sorted = sort_rows_plain_spec(data, &spec, &Stats::new_shared());
                (sorted, start, Instant::now())
            });
            black_box(&sorted);
            trace.record("baseline.plain_sort", None, iteration, start, end);
            plain_ms.push(ms(end - start));
        }
        iteration += 1;
    }

    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    drop(input);
    while setup.len() < p.setup_reps {
        black_box(set_up(&mut setup));
    }
    report.metric("setup_s", median(&setup), "s");
    report.metric("query_ms_p50", median(&sort_ms), "ms");
    report.metric("query_ms_p90", quantile(&sort_ms, 0.9), "ms");
    report.note("samples", sort_ms.len() as f64, "count");
    let stats = stats_of_first.expect("at least one sort ran");
    let rows = p.rows.max(1) as f64;
    let spill_per_row = stats.bytes_spilled() as f64 / rows;
    report.note("spill_bytes_per_row", spill_per_row, "B/row");

    if args.trace {
        let pick = |f: fn(&Phases) -> Duration| -> f64 {
            median(&phases.iter().map(|ph| ms(f(ph))).collect::<Vec<_>>())
        };
        report.metric(
            "core.col_cmps_per_row",
            stats.col_value_cmps() as f64 / rows,
            "count/row",
        );
        report.metric(
            "core.ovc_cmps_per_row",
            stats.ovc_cmps() as f64 / rows,
            "count/row",
        );
        report.metric("sort.run_gen_ms", pick(|ph| ph.run_gen), "ms");
        report.metric("sort.merge_ms", pick(|ph| ph.merge), "ms");
        report.metric("sort.runs", phases[0].runs as f64, "count");
        report.metric("storage.encode_ms", pick(|ph| ph.encode), "ms");
        report.metric("storage.decode_ms", pick(|ph| ph.decode), "ms");
        report.metric("storage.spill_bytes_per_row", spill_per_row, "B/row");
        report.metric("baseline.plain_sort_ms", median(&plain_ms), "ms");
        report.metric(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&sort_ms),
            "ratio",
        );
        report.note("traced_sort_ms_p50", pick(|ph| ph.total), "ms");
        args.write_trace(&trace);
    }
    report
}

/// Split one traced sort at its first `read_run`: before it is run
/// generation (minus encode time), after it the merge (minus storage
/// time).
fn phases_of(start: Instant, end: Instant, calls: &[(&'static str, Instant, Instant)]) -> Phases {
    let first_read = calls
        .iter()
        .filter(|c| c.0 == "storage.read_run")
        .map(|c| c.1)
        .min()
        .unwrap_or(end);
    let busy = |name: &str, from: Instant, to: Instant| -> Duration {
        calls
            .iter()
            .filter(|c| (name.is_empty() || c.0 == name) && c.1 >= from && c.2 <= to)
            .map(|c| c.2 - c.1)
            .sum()
    };
    Phases {
        total: end - start,
        run_gen: (first_read - start).saturating_sub(busy("", start, first_read)),
        merge: (end - first_read).saturating_sub(busy("", first_read, end)),
        encode: busy("storage.write_run", start, end),
        decode: busy("storage.read_run", start, end),
        runs: calls.iter().filter(|c| c.0 == "storage.write_run").count(),
    }
}
