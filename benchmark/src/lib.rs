//! The repository benchmark: three workloads that each stress different
//! layers of the engine, an independent oracle for every output, the
//! end-to-end metrics a user sees, and per-layer metrics from a separate
//! traced run.  See `NOTES.md` for what each metric should move.

mod client;
mod cpus;
pub mod pipeline;
pub mod report;
pub mod served;
pub mod sort_spill;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

pub use report::Report;
use trace::Trace;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sort_spill", "ordered_pipeline", "served_mix"];

/// Command-line settings shared by every workload.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Where the traced run writes its spans (`None`: not written).
    pub trace_out: Option<PathBuf>,
}

impl RunArgs {
    /// The measuring interval.
    pub fn run_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// Write the traced run's spans, if asked to; a failed write is
    /// reported and does not fail the run.
    pub fn write_trace(&self, trace: &Trace) {
        if let Some(path) = &self.trace_out {
            if let Err(e) = trace.write_jsonl(path) {
                eprintln!("could not write spans to {}: {e}", path.display());
            }
        }
    }
}

/// Run workload `name` at full size.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<Report> {
    match name {
        "sort_spill" => Some(sort_spill::run(&sort_spill::Params::full(), args)),
        "ordered_pipeline" => Some(pipeline::run(&pipeline::Params::full(), args)),
        "served_mix" => Some(served::run(&served::Params::full(), args)),
        _ => None,
    }
}
