//! End-to-end benchmark of the low-power CAD stack.
//!
//! Three workloads run in-process against the repository's public API:
//!
//! * `estimate` — glitch-aware power estimation over a size ladder
//!   (`sim` does nearly all the work);
//! * `optimize` — the batch optimization flows and gate sizing
//!   (`logicopt`, `sim::incr`, `circuit`);
//! * `serve` — an in-process `serve::Server` driven by closed-loop
//!   clients (`serve`, `netlist` parse, `power::exact`, `bdd`).
//!
//! An untraced run reports the end-to-end metrics; a traced run (`--trace
//! 1`) reports the per-layer split. Every output is checked; a mismatch
//! counts as a failure and makes the command fail. See `BENCHMARK.md` for
//! why each workload and metric was chosen.

pub mod batch;
pub mod check;
pub mod estimate;
pub mod optimize;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["estimate", "optimize", "serve"];

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ok/attempted"),
    ("gate_cycles_per_s", "gate-cycles/s"),
    ("power_ratio", "ratio"),
    ("crit_path_ratio", "ratio"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload's traced
/// run (zero where the workload leaves the layer idle).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim.event.ms", "ms"),
    ("sim.event.events", "count"),
    ("sim.comb.ms", "ms"),
    ("sim.seq.ms", "ms"),
    ("sim.par.speedup_jobs2", "x"),
    ("power.chain.ms", "ms"),
    ("power.chain.degraded", "count"),
    ("logicopt.rewrite.ms", "ms"),
    ("logicopt.rewrite.moves_tried", "count"),
    ("logicopt.rewrite.accept_ratio", "ratio"),
    ("flows.measure.ms", "ms"),
    ("flows.balance.ms", "ms"),
    ("sim.incr.nets_reevaluated", "count"),
    ("sim.incr.full_evals", "count"),
    ("circuit.sta.ms", "ms"),
    ("circuit.sizing.ms", "ms"),
    ("bdd.ite_calls", "count"),
    ("bdd.peak_nodes", "nodes"),
    ("netlist.parse.ms", "ms"),
    ("power.exact.build_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.service.ms.power", "ms"),
    ("serve.service.ms.stats", "ms"),
    ("serve.service.ms.fsm", "ms"),
    ("serve.service.ms.dontcare", "ms"),
    ("serve.service.share_pct.power", "%"),
    ("serve.service.share_pct.stats", "%"),
    ("serve.service.share_pct.fsm", "%"),
    ("serve.service.share_pct.dontcare", "%"),
    ("serve.service.share_pct.defect", "%"),
    ("serve.wait.ms", "ms"),
    ("netlist.self_ms", "ms"),
    ("bdd.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("power.self_ms", "ms"),
    ("circuit.self_ms", "ms"),
    ("logicopt.self_ms", "ms"),
    ("seqopt.self_ms", "ms"),
    ("flows.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("obs.overhead_pct", "%"),
];

/// Corpus size: the full workload definitions, or a reduced set for the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workloads as `BENCHMARK.json` defines them.
    Full,
    /// Every job kind at a fraction of the size.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the stimulus streams and the serve request sequence.
    pub seed: u64,
    /// Length of the measured phase in seconds (at least the minimum
    /// number of passes always runs).
    pub seconds: f64,
    /// Traced run: report the per-layer split instead.
    pub trace: bool,
    /// Corpus size.
    pub scale: Scale,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (jobs run plus output checks).
    pub attempted: u64,
    /// Operations whose output was wrong or that failed unexpectedly.
    pub failed: u64,
    /// Metric name → value; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The metrics a run reports, with units: per-layer for a traced run,
/// end-to-end otherwise.
pub fn metric_spec(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = metric_spec(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = match opts.workload.as_str() {
        "estimate" => batch::run(|| estimate::Estimate::setup(opts.scale, opts.seed), opts),
        "optimize" => batch::run(|| optimize::Optimize::setup(opts.scale, opts.seed), opts),
        "serve" => serve::run(opts),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    outcome.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} scale {:?} host_cores {}",
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.scale,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
    );
    Ok(outcome)
}
