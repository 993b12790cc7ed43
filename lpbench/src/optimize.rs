//! The `optimize` workload: the batch optimization flows and gate sizing.
//! The rewrite search, the resident incremental simulator and STA do the
//! work; `serve`, `sim::seq` and the sampled chain stay idle.

use lowpower::circuit::sizing::SizedCircuit;
use lowpower::flows::combinational::{optimize, CombFlowConfig};
use lowpower::netlist::gen::{random_dag, wallace_multiplier, RandomDagConfig};
use lowpower::netlist::{Netlist, NetlistStats};
use lowpower::power::model::PowerParams;
use lowpower::sim::comb::CombSim;
use lowpower::sim::stimulus::Stimulus;
use lowpower::sim::ActivityProfile;

use crate::batch::{Batch, JobOut};
use crate::check;
use crate::stats::{geomean, Fnv};
use crate::trace::ThreadTrace;
use crate::Scale;

/// Generator seed of the random DAG: `bench_incr`'s rand200. Fixed in the
/// workload definition because generator seeds reshape the search: the
/// rewrite flow on 16-in/200-gate DAGs took 0.18–1.29 s across generator
/// seeds 1–7 (median of 3, 2-vCPU Xeon VM).
const DAG_SEED: u64 = 7;

/// Sizing target: this multiple of the circuit's critical delay at
/// maximum size.
const SIZING_SLACK: f64 = 1.1;

/// Gate size the sizing job starts from (every gate at maximum drive).
const MAX_SIZE: f64 = 4.0;

/// Cycles of the stimulus the sizing job's power is read under.
const SIZING_CYCLES: usize = 4096;

/// Seed of the flows' measurement stimulus. Fixed in the workload
/// definition: the rewrite search judges moves on this stimulus, so its
/// seed reshapes the search (on seeds 1–5 the rand200 rewrite took
/// 1.10–1.62 s and `crit_path_ratio` ranged 0.79–0.89).
const FLOW_STIMULUS_SEED: u64 = 42;

enum Kind {
    /// `flows::combinational::optimize`, with or without the rewrite search.
    Flow { rewrite: bool },
    /// `SizedCircuit::downsize_for_power` under a fixed activity profile.
    Sizing(ActivityProfile),
}

struct Job {
    name: String,
    nl: Netlist,
    gates: usize,
    kind: Kind,
}

/// The corpus of the `optimize` workload.
pub struct Optimize {
    jobs: Vec<Job>,
    seed: u64,
    cycles: usize,
}

impl Optimize {
    /// Build the corpus; `seed` drives the sizing job's activity stimulus
    /// and the random patterns of the equivalence checks.
    pub fn setup(scale: Scale, seed: u64) -> Optimize {
        let (dag, small, large, cycles) = match scale {
            Scale::Full => ((16, 200), 8, 32, 512),
            Scale::Smoke => ((8, 40), 3, 6, 128),
        };
        let dag_cfg = RandomDagConfig {
            inputs: dag.0,
            gates: dag.1,
            outputs: 8,
            max_fanin: 3,
            window: 24,
        };
        let rand = random_dag(&dag_cfg, DAG_SEED);
        let (small_nl, _) = wallace_multiplier(small);
        let (large_nl, _) = wallace_multiplier(large);
        let activity = CombSim::new(&large_nl)
            .activity_packed(&Stimulus::uniform(large_nl.num_inputs()).packed(SIZING_CYCLES, seed));
        let job = |name: String, nl: Netlist, kind: Kind| Job {
            name,
            gates: NetlistStats::of(&nl).gates,
            nl,
            kind,
        };
        let jobs = vec![
            job(
                format!("rand{}/rewrite", dag.1),
                rand,
                Kind::Flow { rewrite: true },
            ),
            job(
                format!("wallace{small}/rewrite"),
                small_nl,
                Kind::Flow { rewrite: true },
            ),
            job(
                format!("wallace{large}/balance"),
                large_nl.clone(),
                Kind::Flow { rewrite: false },
            ),
            job(
                format!("wallace{large}/sizing"),
                large_nl,
                Kind::Sizing(activity),
            ),
        ];
        Optimize { jobs, seed, cycles }
    }
}

fn netlist_fingerprint(h: &mut Fnv, nl: &Netlist) {
    for net in nl.iter_nets() {
        h.bytes(nl.kind(net).to_string().as_bytes());
        for f in nl.fanins(net) {
            h.word(f.index() as u64);
        }
    }
    for (net, _) in nl.outputs() {
        h.word(net.index() as u64);
    }
}

/// Unit-sized critical path of the live logic.
fn unit_critical(nl: &Netlist) -> f64 {
    let mut swept = nl.clone();
    swept.sweep_dead();
    SizedCircuit::new(&swept, 1.0)
        .timing(f64::INFINITY)
        .critical
}

impl Batch for Optimize {
    fn names(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.name.clone()).collect()
    }

    fn run(&self, i: usize, tt: &mut ThreadTrace) -> JobOut {
        let job = &self.jobs[i];
        let mut h = Fnv::default();
        let mut out = JobOut::default();
        match &job.kind {
            Kind::Flow { rewrite } => {
                let obs = tt.obs();
                let cfg = CombFlowConfig {
                    rewrite: *rewrite,
                    cycles: self.cycles,
                    seed: FLOW_STIMULUS_SEED,
                    obs: obs.clone(),
                    ..CombFlowConfig::default()
                };
                let span = tt.open("flows", "flows.comb", &job.name);
                let r = optimize(&job.nl, &cfg);
                tt.close(span);
                tt.import(&obs.snapshot());
                netlist_fingerprint(&mut h, &r.netlist);
                h.floats(&[r.baseline_power.total(), r.optimized_power.total()]);
                let gates_after = NetlistStats::of(&r.netlist).gates;
                out.gate_cycles = ((job.gates + gates_after) * self.cycles) as f64;
                out.power = Some((r.baseline_power.total(), r.optimized_power.total()));
                out.netlist = Some(r.netlist);
            }
            Kind::Sizing(activity) => {
                let params = PowerParams::default();
                let span = tt.open("circuit", "circuit.sta", &job.name);
                let mut c = SizedCircuit::new(&job.nl, MAX_SIZE);
                let constraint = SIZING_SLACK * c.timing(f64::INFINITY).critical;
                tt.close(span);
                let before = c.power(activity, &params).total();
                let span = tt.open("circuit", "circuit.sizing", &job.name);
                c.downsize_for_power(constraint);
                tt.close(span);
                let span = tt.open("circuit", "circuit.sta", &job.name);
                let achieved = c.timing(constraint).critical;
                tt.close(span);
                let after = c.power(activity, &params).total();
                h.floats(&c.sizes);
                out.power = Some((before, after));
                out.timing = Some((constraint, achieved));
            }
        }
        out.fingerprint = h.finish();
        out
    }

    fn check(&self, outs: &[JobOut], failures: &mut Vec<String>) -> u64 {
        let mut checks = 0;
        for (job, out) in self.jobs.iter().zip(outs) {
            checks += 1;
            if let Some(opt) = &out.netlist {
                if let Err(e) = check::equivalent(&job.nl, opt, self.seed) {
                    failures.push(format!("{}: not equivalent to its input: {e}", job.name));
                }
            }
            if let Some((constraint, achieved)) = out.timing {
                if achieved > constraint + 1e-9 {
                    failures.push(format!(
                        "{}: critical delay {achieved} misses the constraint {constraint}",
                        job.name
                    ));
                }
            }
        }
        checks
    }

    fn quality(&self, outs: &[JobOut]) -> (f64, f64) {
        let (before, after) = outs
            .iter()
            .filter_map(|o| o.power)
            .fold((0.0, 0.0), |(b, a), (pb, pa)| (b + pb, a + pa));
        let crit: Vec<f64> = self
            .jobs
            .iter()
            .zip(outs)
            .filter_map(|(job, o)| {
                o.netlist
                    .as_ref()
                    .map(|opt| unit_critical(opt) / unit_critical(&job.nl))
            })
            .collect();
        (after / before, geomean(&crit))
    }
}
