//! The benchmark's own tests, on test-sized inputs: every workload passes
//! its oracles, the traced run reports every per-layer metric of its
//! workload, exact counts repeat exactly, spans are consistent, and
//! `BENCHMARK.json` declares exactly the metrics the program prints.

use std::path::PathBuf;

use ovc_bench::snapshot::Json;
use ovc_benchmark::report::{END_TO_END, PER_LAYER};
use ovc_benchmark::{pipeline, served, sort_spill, Report, RunArgs, WORKLOADS};

/// Per-layer metrics each workload's traced run measures.
const MEASURED: &[(&str, &[&str])] = &[
    (
        "sort_spill",
        &[
            "core.col_cmps_per_row",
            "core.ovc_cmps_per_row",
            "sort.run_gen_ms",
            "sort.merge_ms",
            "sort.runs",
            "storage.encode_ms",
            "storage.decode_ms",
            "storage.spill_bytes_per_row",
            "baseline.plain_sort_ms",
            "trace.overhead_ratio",
        ],
    ),
    (
        "ordered_pipeline",
        &[
            "core.col_cmps_per_row",
            "core.ovc_cmps_per_row",
            "exec.filter.self_ms",
            "exec.merge_join.self_ms",
            "exec.group.self_ms",
            "exec.filter.rows_out",
            "exec.merge_join.rows_out",
            "exec.group.rows_out",
            "exec.filter.col_cmps",
            "exec.merge_join.col_cmps",
            "exec.group.col_cmps",
            "exec.filter.code_cmps",
            "exec.merge_join.code_cmps",
            "exec.group.code_cmps",
            "exec.serial_ms_p50",
            "exchange.count",
            "exchange.rows_moved",
            "exchange.send_wait_ms",
            "exchange.recv_wait_ms",
            "exchange.peak_depth_max",
            "plan.plan_us",
            "exec.profile_coverage",
            "trace.overhead_ratio",
        ],
    ),
    (
        "served_mix",
        &[
            "core.col_cmps_per_row",
            "core.ovc_cmps_per_row",
            "served.lookup_ms_p50",
            "served.intersect_ms_p50",
            "served.group_by_ms_p50",
            "engine.lookup_ms_p50",
            "engine.intersect_ms_p50",
            "engine.group_by_ms_p50",
            "server.lookup_outside_ms_p50",
            "server.intersect_outside_ms_p50",
            "server.group_by_outside_ms_p50",
            "server.register_ms_p50",
            "server.ttfr_ms_p50",
            "server.refused",
            "wire.bytes_per_row",
            "wire.parse_plan_us",
            "loadgen.late_ms_max",
            "plan.plan_us",
            "trace.overhead_ratio",
        ],
    ),
];

/// Exact counts: the same seed must give the same value on every run.
const EXACT: &[&str] = &[
    "core.col_cmps_per_row",
    "core.ovc_cmps_per_row",
    "sort.runs",
    "storage.spill_bytes_per_row",
    "exec.filter.rows_out",
    "exec.merge_join.rows_out",
    "exec.group.rows_out",
    "exec.filter.col_cmps",
    "exec.merge_join.col_cmps",
    "exec.group.col_cmps",
    "exec.filter.code_cmps",
    "exec.merge_join.code_cmps",
    "exec.group.code_cmps",
    "exchange.count",
    "exchange.rows_moved",
];

fn args(seed: u64, trace: bool, spans: Option<PathBuf>) -> RunArgs {
    RunArgs {
        seed,
        seconds: 0.3,
        trace,
        trace_out: spans,
    }
}

fn tiny(workload: &str, args: &RunArgs) -> Report {
    match workload {
        "sort_spill" => sort_spill::run(&sort_spill::Params::tiny(), args),
        "ordered_pipeline" => pipeline::run(&pipeline::Params::tiny(), args),
        "served_mix" => served::run(&served::Params::tiny(), args),
        other => panic!("unknown workload {other}"),
    }
}

fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-spans.jsonl"))
}

fn assert_correct(workload: &str, r: &Report) {
    assert!(
        r.correct(),
        "{workload}: {} of {} failed; {:?}",
        r.failed,
        r.attempted,
        r.inconsistent
    );
}

#[test]
fn every_workload_passes_its_oracles() {
    for &w in WORKLOADS {
        let r = tiny(w, &args(7, false, None));
        assert_correct(w, &r);
        for (name, _) in END_TO_END {
            let v = r.get(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert!(v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn traced_runs_report_their_layers_and_repeat_exact_counts() {
    let covered: Vec<&str> = MEASURED
        .iter()
        .flat_map(|(_, m)| m.iter().copied())
        .collect();
    for (name, _) in PER_LAYER {
        assert!(covered.contains(name), "no workload measures {name}");
    }
    for &(w, measured) in MEASURED {
        let first = tiny(w, &args(3, true, Some(spans_path(w))));
        assert_correct(w, &first);
        for name in measured {
            let v = first
                .get(name)
                .unwrap_or_else(|| panic!("{w}: traced run lacks {name}"));
            assert!(v.is_finite(), "{w}: {name} = {v}");
        }
        let again = tiny(w, &args(3, true, None));
        for name in EXACT.iter().filter(|n| measured.contains(n)) {
            assert_eq!(first.get(name), again.get(name), "{w}: {name} is not exact");
        }
        let line = first.result_line(true);
        for (name, unit) in PER_LAYER {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")) && line.contains(unit),
                "{w}: result line lacks {name}"
            );
        }
    }
}

#[test]
fn sort_spill_counts_the_spilled_runs() {
    let p = sort_spill::Params::tiny();
    let r = tiny("sort_spill", &args(5, true, None));
    let runs = r.get("sort.runs").expect("traced sort reports runs");
    assert_eq!(runs as usize, p.rows.div_ceil(p.memory_rows));
}

#[test]
fn written_spans_never_claim_more_self_time_than_their_length() {
    for &w in WORKLOADS {
        let path = spans_path(&format!("{w}-self"));
        let r = tiny(w, &args(9, true, Some(path.clone())));
        assert_correct(w, &r);
        let text = std::fs::read_to_string(&path).expect("the traced run writes its spans");
        let mut spans = 0;
        for line in text.lines() {
            let span = Json::parse(line).expect("one JSON object per line");
            let num = |k: &str| span.get(k).and_then(Json::as_num).expect(k);
            let (start, end, own) = (num("start_us"), num("end_us"), num("self_us"));
            assert!(start <= end, "{w}: {line}");
            assert!(own >= 0.0 && own <= end - start + 1e-3, "{w}: {line}");
            spans += 1;
        }
        assert!(spans > 0, "{w}: no spans written");
    }
}

#[test]
fn benchmark_json_declares_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let served_why = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")[2]
        .get("why")
        .and_then(Json::as_str)
        .expect("why");
    assert!(
        served_why.contains(&format!("{} req/s", served::RATE_PER_S)),
        "BENCHMARK.json must record the open loop's rate: {served_why}"
    );
}
