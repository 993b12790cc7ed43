//! The measurement runner every workload shares: set-up, then iterations
//! (a pass over a batch corpus, or one closed-loop serve batch) until the
//! run's length and the minimum iteration counts are met. In an untraced
//! run a set-up round comes before every iteration but the first, so the
//! set-up samples span the run as the iterations do. In a traced run
//! untraced and traced iterations alternate, so the tracing overhead is
//! measured under the same conditions.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, peak_rss_mb};
use crate::trace::{Split, LAYERS};
use crate::Options;

/// Each set-up round repeats the set-up until the round has taken this
/// long, so a set-up of a few milliseconds still gives several samples.
pub const SETUP_ROUND_S: f64 = 0.02;

/// Minimum measured iterations of each kind, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// A workload's set-up and its latest result.
///
/// Host speed on a shared VM drifts over seconds to minutes. Set-up
/// samples taken in one burst before the measured phase would see only a
/// second or two of it, and their median would move far more from run to
/// run than the iterations' medians. The untraced measured phase therefore
/// sets up again before each iteration after the first; the set-up is
/// deterministic, so every iteration still sees the same inputs.
pub struct Fixture<S, F> {
    current: Option<S>,
    setup: F,
    /// Every set-up time, in seconds; `setup_s` is their median.
    pub times: Vec<f64>,
}

impl<S, F: FnMut() -> S> Fixture<S, F> {
    /// Run one set-up round.
    pub fn new(setup: F) -> Self {
        let mut fixture = Fixture {
            current: None,
            setup,
            times: Vec::new(),
        };
        fixture.round();
        fixture
    }

    /// Set up until this round has taken [`SETUP_ROUND_S`]. Each result is
    /// dropped before the next set-up starts, so the peak RSS holds one
    /// result at a time.
    fn round(&mut self) {
        let mut spent = 0.0;
        while spent < SETUP_ROUND_S {
            drop(self.current.take());
            let t = Instant::now();
            self.current = Some((self.setup)());
            let dt = t.elapsed().as_secs_f64();
            self.times.push(dt);
            spent += dt;
        }
    }

    /// The latest set-up result.
    pub fn get(&self) -> &S {
        self.current.as_ref().expect("set up in Fixture::new")
    }

    /// The latest set-up result, mutably.
    pub fn get_mut(&mut self) -> &mut S {
        self.current.as_mut().expect("set up in Fixture::new")
    }
}

/// What one measured iteration reports.
pub enum Iteration {
    /// An untraced iteration: its wall time and latency samples.
    Untraced { wall_s: f64, latencies_ms: Vec<f64> },
    /// A traced iteration: its wall time, per-layer metrics and span
    /// summary.
    Traced {
        wall_s: f64,
        layers: BTreeMap<&'static str, f64>,
        summary: Vec<String>,
    },
}

/// The measured phase of a run.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each untraced iteration.
    pub walls: Vec<f64>,
    /// Wall time of each traced iteration.
    pub traced_walls: Vec<f64>,
    /// Latency samples of the untraced iterations, in order.
    pub latencies_ms: Vec<f64>,
    /// Per-layer metrics of each traced iteration.
    rows: Vec<BTreeMap<&'static str, f64>>,
    /// Span summary of the last traced iteration.
    pub summary: Vec<String>,
}

/// Run `iterate(result, traced)` until `opts.seconds` have passed and at
/// least [`MIN_PASSES`] iterations of each kind the run needs have ended.
/// An untraced run sets the fixture up again before each iteration after the
/// first; the set-up rounds count towards `opts.seconds`.
pub fn measure<S, F: FnMut() -> S>(
    opts: &Options,
    fixture: &mut Fixture<S, F>,
    mut iterate: impl FnMut(&mut S, bool) -> Iteration,
) -> Measured {
    let t0 = Instant::now();
    let mut m = Measured::default();
    let mut k = 0usize;
    while t0.elapsed().as_secs_f64() < opts.seconds
        || m.walls.len() < MIN_PASSES
        || (opts.trace && m.traced_walls.len() < MIN_PASSES)
    {
        let traced = opts.trace && k % 2 == 1;
        if !opts.trace && k > 0 {
            fixture.round();
        }
        k += 1;
        match iterate(fixture.get_mut(), traced) {
            Iteration::Untraced {
                wall_s,
                latencies_ms,
            } => {
                m.walls.push(wall_s);
                m.latencies_ms.extend(latencies_ms);
            }
            Iteration::Traced {
                wall_s,
                layers,
                summary,
            } => {
                m.traced_walls.push(wall_s);
                m.rows.push(layers);
                m.summary = summary;
            }
        }
    }
    m
}

/// The end-to-end figures a workload derives from its measured phase.
pub struct EndToEnd {
    /// Wall time of one iteration.
    pub wall_s: f64,
    /// Operations that answered as they should, over those attempted.
    pub ok_ratio: f64,
    /// Gate-cycles of switching activity one iteration delivers.
    pub gate_cycles: f64,
    /// Jobs one iteration runs.
    pub jobs: usize,
    pub power_ratio: f64,
    pub crit_path_ratio: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
}

impl Measured {
    /// The run's metrics: in a traced run the median of each per-layer
    /// metric over the traced iterations plus `obs.overhead_pct`, otherwise
    /// the end-to-end metrics.
    pub fn metrics(
        &self,
        opts: &Options,
        setups: &[f64],
        e: &EndToEnd,
    ) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        if opts.trace {
            if let Some(first) = self.rows.first() {
                for name in first.keys() {
                    let xs: Vec<f64> = self
                        .rows
                        .iter()
                        .filter_map(|r| r.get(name).copied())
                        .collect();
                    m.insert(*name, median(&xs));
                }
            }
            m.insert(
                "obs.overhead_pct",
                100.0 * (median(&self.traced_walls) / median(&self.walls) - 1.0),
            );
        } else {
            m.insert("setup_s", median(setups));
            m.insert("wall_s", e.wall_s);
            m.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
            m.insert("ok_ratio", e.ok_ratio);
            m.insert("gate_cycles_per_s", e.gate_cycles / e.wall_s);
            m.insert("power_ratio", e.power_ratio);
            m.insert("crit_path_ratio", e.crit_path_ratio);
            m.insert("jobs_per_s", e.jobs as f64 / e.wall_s);
            m.insert("latency_p50_ms", e.latency_p50_ms);
            m.insert("latency_p99_ms", e.latency_p99_ms);
        }
        m
    }

    /// One note line: iteration counts, samples and set-up times.
    pub fn note(&self, unit: &str, setups: &[f64]) -> String {
        format!(
            "{unit}: {} untraced, {} traced; {} latency samples; setup samples {setups:?}; untraced walls {:?}",
            self.walls.len(),
            self.traced_walls.len(),
            self.latencies_ms.len(),
            self.walls
        )
    }
}

/// The per-layer metrics of one traced iteration whose traced thread
/// loops together took `thread_ms`; `degraded` is the number of chain
/// answers that came from a lower tier.
pub fn layer_metrics(
    split: &Split,
    counters: &BTreeMap<String, f64>,
    degraded: usize,
    thread_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let name = |n: &str| split.name_ms.get(n).copied().unwrap_or(0.0);
    let count = |n: &str| counters.get(n).copied().unwrap_or(0.0);
    let prefixed = |p: &str| {
        counters
            .iter()
            .filter(|(k, _)| k.starts_with(p))
            .fold(0.0, |acc, (_, v)| acc + v)
    };
    // Sharded legs are tagged `<item>/jobs2`; their base is the serial
    // leg on the same item and stimulus.
    let (mut serial, mut sharded) = (0.0, 0.0);
    for ((span, tag), ms) in &split.tagged_ms {
        if let Some(item) = tag.strip_suffix("/jobs2") {
            sharded += ms;
            serial += split
                .tagged_ms
                .get(&(span.clone(), item.to_string()))
                .copied()
                .unwrap_or(0.0);
        }
    }
    let tried = prefixed("rewrite.moves.tried.");
    let accepted = prefixed("rewrite.moves.accepted.");
    let mut m = BTreeMap::new();
    m.insert("sim.event.ms", name("sim.event"));
    m.insert("sim.event.events", count("sim.event.processed"));
    m.insert("sim.comb.ms", name("sim.comb"));
    m.insert("sim.seq.ms", name("sim.seq"));
    m.insert(
        "sim.par.speedup_jobs2",
        if sharded > 0.0 { serial / sharded } else { 0.0 },
    );
    m.insert("power.chain.ms", name("power.chain"));
    m.insert("power.chain.degraded", degraded as f64);
    m.insert("logicopt.rewrite.ms", name("pass.rewrite"));
    m.insert("logicopt.rewrite.moves_tried", tried);
    m.insert(
        "logicopt.rewrite.accept_ratio",
        if tried > 0.0 { accepted / tried } else { 0.0 },
    );
    m.insert("flows.measure.ms", name("pass.measure-baseline"));
    m.insert("flows.balance.ms", name("pass.balance"));
    m.insert(
        "sim.incr.nets_reevaluated",
        count("sim.incr.nets_reevaluated"),
    );
    m.insert("sim.incr.full_evals", count("sim.incr.full_evals"));
    m.insert("circuit.sta.ms", name("circuit.sta"));
    m.insert("circuit.sizing.ms", name("circuit.sizing"));
    m.insert("bdd.ite_calls", count("bdd.ite_calls"));
    m.insert("bdd.peak_nodes", count("bdd.peak_nodes"));
    for layer in LAYERS {
        let key: &'static str = match layer {
            "netlist" => "netlist.self_ms",
            "bdd" => "bdd.self_ms",
            "sim" => "sim.self_ms",
            "power" => "power.self_ms",
            "circuit" => "circuit.self_ms",
            "logicopt" => "logicopt.self_ms",
            "seqopt" => "seqopt.self_ms",
            "flows" => "flows.self_ms",
            _ => "serve.self_ms",
        };
        m.insert(key, split.self_ms.get(layer).copied().unwrap_or(0.0));
    }
    m.insert(
        "trace.coverage_pct",
        100.0 * split.covered_ms / thread_ms.max(1e-9),
    );
    m
}
