//! Metric names, sample statistics, and the result line.

use std::time::Duration;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
/// A workload that does not measure a layer reports 0 for its metrics
/// (see `NOTES.md` for which workload measures which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.col_cmps_per_row", "count/row"),
    ("core.ovc_cmps_per_row", "count/row"),
    ("sort.run_gen_ms", "ms"),
    ("sort.merge_ms", "ms"),
    ("sort.runs", "count"),
    ("storage.encode_ms", "ms"),
    ("storage.decode_ms", "ms"),
    ("storage.spill_bytes_per_row", "B/row"),
    ("baseline.plain_sort_ms", "ms"),
    ("exec.filter.self_ms", "ms"),
    ("exec.merge_join.self_ms", "ms"),
    ("exec.group.self_ms", "ms"),
    ("exec.filter.rows_out", "count"),
    ("exec.merge_join.rows_out", "count"),
    ("exec.group.rows_out", "count"),
    ("exec.filter.col_cmps", "count"),
    ("exec.merge_join.col_cmps", "count"),
    ("exec.group.col_cmps", "count"),
    ("exec.filter.code_cmps", "count"),
    ("exec.merge_join.code_cmps", "count"),
    ("exec.group.code_cmps", "count"),
    ("exec.serial_ms_p50", "ms"),
    ("exchange.count", "count"),
    ("exchange.rows_moved", "count"),
    ("exchange.send_wait_ms", "ms"),
    ("exchange.recv_wait_ms", "ms"),
    ("exchange.peak_depth_max", "count"),
    ("plan.plan_us", "us"),
    ("exec.profile_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("served.lookup_ms_p50", "ms"),
    ("served.intersect_ms_p50", "ms"),
    ("served.group_by_ms_p50", "ms"),
    ("engine.lookup_ms_p50", "ms"),
    ("engine.intersect_ms_p50", "ms"),
    ("engine.group_by_ms_p50", "ms"),
    ("server.lookup_outside_ms_p50", "ms"),
    ("server.intersect_outside_ms_p50", "ms"),
    ("server.group_by_outside_ms_p50", "ms"),
    ("server.register_ms_p50", "ms"),
    ("server.ttfr_ms_p50", "ms"),
    ("server.refused", "count"),
    ("wire.bytes_per_row", "B/row"),
    ("wire.parse_plan_us", "us"),
    ("loadgen.late_ms_max", "ms"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sorts, queries, requests).
    pub attempted: u64,
    /// Operations that failed: oracle mismatches, refused or broken
    /// responses, accounting disagreements.
    pub failed: u64,
    /// Set when the run's own accounting disagrees with the program's
    /// (a check that is not tied to one operation).
    pub inconsistent: Vec<String>,
    /// Measured metrics, `(name, value, unit)`; end-to-end and per-layer
    /// alike.  The result line picks the ones its mode reports.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics printed for people only: the workload-specific end-to-end
    /// figures and sample counts.
    pub summary: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Record a metric for the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a figure for the human-readable summary only.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.summary.push((name, value, unit));
    }

    /// Count one operation and whether it failed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// Did every operation pass its oracle and every cross-check agree?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.inconsistent.is_empty() && self.attempted > 0
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`), unmeasured ones as 0.
    pub fn result_line(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Milliseconds, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule; 0
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own deterministic generator for inputs
/// the workload crates do not already generate.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut r = Report::default();
        r.count(true);
        r.metric("query_ms_p50", 1.25, "ms");
        let line = r.result_line(false);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"value\": 1.25"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
