//! Runner shared by the batch workloads (`estimate`, `optimize`): a
//! corpus of jobs run back to back, one pass after another.
//!
//! The first pass warms caches and lazy set-up and has its outputs
//! checked; every later pass must reproduce the first pass's output
//! fingerprints exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use lowpower::netlist::Netlist;

use crate::runner::{layer_metrics, measure, EndToEnd, Fixture, Iteration};
use crate::stats::{median, percentile};
use crate::trace::{analyse, summary, Span, ThreadTrace};
use crate::{Options, Outcome};

/// What one job produced.
#[derive(Debug, Clone, Default)]
pub struct JobOut {
    /// Fingerprint of the checked output; later passes must reproduce it.
    pub fingerprint: u64,
    /// Gate-cycles of switching activity the job delivered (gates ×
    /// cycles of each activity estimate it answered).
    pub gate_cycles: f64,
    /// The estimate came from a lower tier of the degradation chain.
    pub degraded: bool,
    /// The job failed instead of answering.
    pub error: Option<String>,
    /// Optimized netlist, for jobs that rewrite one.
    pub netlist: Option<Netlist>,
    /// `(before, after)` total power, for jobs that optimize.
    pub power: Option<(f64, f64)>,
    /// `(constraint, achieved critical delay)`, for jobs that size gates.
    pub timing: Option<(f64, f64)>,
}

/// A batch workload: a fixed corpus of jobs.
pub trait Batch {
    /// Job names, in run order.
    fn names(&self) -> Vec<String>;
    /// Run job `i`, wrapping each call into a layer in a span of `tt`.
    fn run(&self, i: usize, tt: &mut ThreadTrace) -> JobOut;
    /// Check the first pass's outputs, pushing one line per failed check.
    /// Returns the number of checks made.
    fn check(&self, outs: &[JobOut], failures: &mut Vec<String>) -> u64;
    /// `(power_ratio, crit_path_ratio)` of the first pass's outputs.
    fn quality(&self, outs: &[JobOut]) -> (f64, f64);
}

/// One pass over the corpus.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    outs: Vec<JobOut>,
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
}

fn pass<B: Batch>(b: &B, jobs: usize, epoch: Instant, traced: bool) -> Pass {
    let mut tt = ThreadTrace::new(epoch, traced);
    let mut latencies_ms = Vec::with_capacity(jobs);
    let mut outs = Vec::with_capacity(jobs);
    let t0 = Instant::now();
    for i in 0..jobs {
        let t = Instant::now();
        outs.push(b.run(i, &mut tt));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        wall_s,
        latencies_ms,
        outs,
        spans: tt.take(),
        counters: tt.take_counters(),
    }
}

/// Run a batch workload: set up, warm up and check, then measure.
pub fn run<B: Batch>(setup: impl Fn() -> B, opts: &Options) -> Outcome {
    let epoch = Instant::now();
    let mut fixture = Fixture::new(setup);
    let b = fixture.get();
    let names = b.names();
    let jobs = names.len();

    let first = pass(b, jobs, epoch, false);
    let mut failures = Vec::new();
    for (name, out) in names.iter().zip(&first.outs) {
        if let Some(e) = &out.error {
            failures.push(format!("{name}: {e}"));
        }
    }
    let checks = b.check(&first.outs, &mut failures);
    let mut attempted = jobs as u64 + checks;
    let (power_ratio, crit_path_ratio) = b.quality(&first.outs);
    let gate_cycles: f64 = first.outs.iter().map(|o| o.gate_cycles).sum();

    let measured = measure(opts, &mut fixture, |b, traced| {
        let p = pass(&*b, jobs, epoch, traced);
        attempted += jobs as u64;
        for ((name, out), want) in names.iter().zip(&p.outs).zip(&first.outs) {
            if out.fingerprint != want.fingerprint || out.error.is_some() {
                failures.push(format!(
                    "{name}: output differs from the checked first pass"
                ));
            }
        }
        if traced {
            let threads = [p.spans];
            let degraded = p.outs.iter().filter(|o| o.degraded).count();
            Iteration::Traced {
                wall_s: p.wall_s,
                layers: layer_metrics(&analyse(&threads), &p.counters, degraded, p.wall_s * 1e3),
                summary: summary(&threads),
            }
        } else {
            Iteration::Untraced {
                wall_s: p.wall_s,
                latencies_ms: p.latencies_ms,
            }
        }
    });

    let failed = failures.len() as u64;
    // Each job's median latency over the untraced passes. The corpus is a
    // fixed set of unlike jobs, so latency percentiles are taken over
    // these per-job medians: a percentile over raw samples would sit on
    // the boundary between two jobs and jump between them run to run. The
    // p50 is the median of the per-job medians (the mean of the middle two
    // for an even job count). A pass's wall time is the sum of the per-job
    // medians, which one slow outlier job cannot move.
    let job_ms: Vec<f64> = (0..jobs)
        .map(|i| {
            median(
                &measured
                    .latencies_ms
                    .iter()
                    .skip(i)
                    .step_by(jobs)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let metrics = measured.metrics(
        opts,
        &fixture.times,
        &EndToEnd {
            wall_s: job_ms.iter().sum::<f64>() / 1e3,
            ok_ratio: (attempted - failed) as f64 / attempted as f64,
            gate_cycles,
            jobs,
            power_ratio,
            crit_path_ratio,
            latency_p50_ms: median(&job_ms),
            latency_p99_ms: percentile(&job_ms, 99.0),
        },
    );
    let mut notes = vec![
        format!(
            "median job latency: {}",
            names
                .iter()
                .zip(&job_ms)
                .map(|(name, ms)| format!("{name} {ms:.1} ms"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        measured.note("passes", &fixture.times),
    ];
    notes.extend(
        measured
            .summary
            .iter()
            .map(|l| format!("last traced pass: {l}")),
    );
    notes.extend(failures.iter().map(|f| format!("FAILED: {f}")));
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}
