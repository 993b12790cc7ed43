//! The `estimate` workload: glitch-aware power estimation over a size
//! ladder. The simulators do nearly all the work; `logicopt`, `circuit`
//! and `serve` do none, so a simulator change shows up here and nowhere
//! else.

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{
    kogge_stone_adder, pipelined_multiplier, random_dag, wallace_multiplier, RandomDagConfig,
};
use lowpower::netlist::{NetId, Netlist, NetlistStats};
use lowpower::power::chain::{estimate_activity, ChainConfig, Tier};
use lowpower::sim::comb::CombSim;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::seq::{SeqActivity, SeqSim};
use lowpower::sim::stimulus::{PackedPatterns, PatternSet, Stimulus};
use lowpower::sim::ActivityProfile;

use crate::batch::{Batch, JobOut};
use crate::check;
use crate::stats::Fnv;
use crate::trace::ThreadTrace;
use crate::Scale;

/// Generator seed of the random DAG. Fixed in the workload definition:
/// generator seeds reshape the circuit, and with it the work.
const DAG_SEED: u64 = 11;

/// Operand pairs the arithmetic checks sample, in blocks of 64.
const ARITH_BLOCKS: usize = 64;

/// Cycles of the sequential-output check (the full stream runs in the
/// timed job; the scalar reference run only needs a prefix).
const SEQ_CHECK_CYCLES: usize = 2048;

/// Reference function of a generated arithmetic circuit.
enum Arith {
    /// Product of the operands.
    Mul(Vec<NetId>, Vec<NetId>, Vec<NetId>),
    /// Sum of the operands, carry-out as the top bit.
    Add(Vec<NetId>, Vec<NetId>, Vec<NetId>),
}

struct Circuit {
    name: String,
    nl: Netlist,
    gates: usize,
    arith: Option<Arith>,
}

enum Kind {
    /// `EventSim` (unit delay) with this many threads.
    Event(usize),
    /// `CombSim::activity_packed`.
    Comb,
    /// `SeqSim::activity`.
    Seq,
    /// `power::chain` under a BDD node budget the exact tier exceeds.
    Chain(u64),
}

struct Job {
    name: String,
    circuit: usize,
    kind: Kind,
    patterns: PatternSet,
    packed: Option<PackedPatterns>,
    cycles: usize,
}

/// The corpus of the `estimate` workload.
pub struct Estimate {
    circuits: Vec<Circuit>,
    jobs: Vec<Job>,
    seed: u64,
    /// Width of the pipelined multiplier the sequential job runs.
    seq_width: usize,
}

/// Circuit sizes and stream lengths of one scale.
struct Sizes {
    wallace: [usize; 3],
    adder: usize,
    dag: (usize, usize),
    event_cycles: usize,
    comb_cycles: usize,
    seq_width: usize,
    seq_cycles: usize,
    chain_width: usize,
    chain_nodes: u64,
    chain_cycles: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            wallace: [8, 16, 32],
            adder: 64,
            dag: (64, 20_000),
            event_cycles: 4096,
            comb_cycles: 65_536,
            seq_width: 8,
            seq_cycles: 65_536,
            chain_width: 16,
            chain_nodes: 200_000,
            chain_cycles: 1024,
        },
        Scale::Smoke => Sizes {
            wallace: [3, 4, 6],
            adder: 8,
            dag: (16, 400),
            event_cycles: 128,
            comb_cycles: 1024,
            seq_width: 3,
            seq_cycles: 512,
            chain_width: 6,
            chain_nodes: 500,
            chain_cycles: 256,
        },
    }
}

fn gates(nl: &Netlist) -> usize {
    NetlistStats::of(nl).gates
}

fn profile_fingerprint(h: &mut Fnv, p: &ActivityProfile) {
    h.floats(&p.toggles);
    h.floats(&p.probability);
    h.word(p.cycles as u64);
}

/// Fingerprint of a list of activity profiles.
fn profiles_fingerprint(profiles: &[&ActivityProfile]) -> u64 {
    let mut h = Fnv::default();
    for p in profiles {
        profile_fingerprint(&mut h, p);
    }
    h.finish()
}

fn seq_fingerprint(a: &SeqActivity) -> u64 {
    let mut h = Fnv::default();
    profile_fingerprint(&mut h, &a.profile);
    h.floats(&a.ff_output_toggles);
    h.floats(&a.ff_input_toggles);
    h.floats(&a.ff_load_fraction);
    h.finish()
}

fn chain_fingerprint(p: &ActivityProfile, tier: Tier) -> u64 {
    let mut h = Fnv::default();
    profile_fingerprint(&mut h, p);
    h.bytes(tier.name().as_bytes());
    h.finish()
}

fn chain_config(job: &Job, seed: u64, tiers: Vec<Tier>, obs: lowpower::obs::Obs) -> ChainConfig {
    ChainConfig {
        sample_cycles: job.cycles,
        seed,
        jobs: 1,
        tiers,
        obs,
        ..ChainConfig::default()
    }
}

impl Estimate {
    /// Build the corpus and every stimulus stream from `seed`.
    pub fn setup(scale: Scale, seed: u64) -> Estimate {
        let s = sizes(scale);
        let mut circuits = Vec::new();
        let mut add = |name: String, nl: Netlist, arith: Option<Arith>| {
            circuits.push(Circuit {
                name,
                gates: gates(&nl),
                nl,
                arith,
            });
            circuits.len() - 1
        };
        let mut wallace = Vec::new();
        for w in s.wallace {
            let (nl, n) = wallace_multiplier(w);
            wallace.push(add(
                format!("wallace{w}"),
                nl,
                Some(Arith::Mul(n.a, n.b, n.product)),
            ));
        }
        let (nl, n) = kogge_stone_adder(s.adder);
        let mut sum = n.sum;
        sum.push(n.carry_out);
        let ks = add(
            format!("ks{}", s.adder),
            nl,
            Some(Arith::Add(n.a, n.b, sum)),
        );
        let dag_cfg = RandomDagConfig {
            inputs: s.dag.0,
            gates: s.dag.1,
            outputs: s.dag.0,
            max_fanin: 3,
            window: 64,
        };
        let dag = add(
            format!("dag{}", s.dag.1),
            random_dag(&dag_cfg, DAG_SEED),
            None,
        );
        let pm = add(
            format!("pipemul{}", s.seq_width),
            pipelined_multiplier(s.seq_width),
            None,
        );
        let (chain_nl, _) = wallace_multiplier(s.chain_width);
        let chain = add(format!("wallace{}", s.chain_width), chain_nl, None);

        // Stimulus: one stream per job, derived from the workload seed and
        // the job's position, so the sharded leg replays its serial leg's
        // stream exactly.
        let mut jobs = Vec::new();
        let event = |circuits: &[Circuit], c: usize, threads: usize, stream: u64| {
            let nl = &circuits[c].nl;
            let patterns =
                Stimulus::uniform(nl.num_inputs()).patterns(s.event_cycles, seed ^ (stream << 32));
            let name = if threads == 1 {
                circuits[c].name.clone()
            } else {
                format!("{}/jobs{threads}", circuits[c].name)
            };
            Job {
                name,
                circuit: c,
                kind: Kind::Event(threads),
                patterns,
                packed: None,
                cycles: s.event_cycles,
            }
        };
        for (i, &c) in wallace.iter().chain([ks, dag].iter()).enumerate() {
            jobs.push(event(&circuits, c, 1, i as u64));
        }
        jobs.push(event(&circuits, wallace[2], 2, 2));
        jobs.push(event(&circuits, dag, 2, 4));
        let dag_inputs = circuits[dag].nl.num_inputs();
        jobs.push(Job {
            name: format!("{}/comb", circuits[dag].name),
            circuit: dag,
            kind: Kind::Comb,
            patterns: Vec::new(),
            packed: Some(Stimulus::uniform(dag_inputs).packed(s.comb_cycles, seed ^ (5 << 32))),
            cycles: s.comb_cycles,
        });
        jobs.push(Job {
            name: circuits[pm].name.clone(),
            circuit: pm,
            kind: Kind::Seq,
            patterns: Stimulus::uniform(circuits[pm].nl.num_inputs())
                .patterns(s.seq_cycles, seed ^ (6 << 32)),
            packed: None,
            cycles: s.seq_cycles,
        });
        jobs.push(Job {
            name: format!("{}/chain", circuits[chain].name),
            circuit: chain,
            kind: Kind::Chain(s.chain_nodes),
            patterns: Vec::new(),
            packed: None,
            cycles: s.chain_cycles,
        });
        Estimate {
            circuits,
            jobs,
            seed,
            seq_width: s.seq_width,
        }
    }
}

impl Batch for Estimate {
    fn names(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.name.clone()).collect()
    }

    fn run(&self, i: usize, tt: &mut ThreadTrace) -> JobOut {
        let job = &self.jobs[i];
        let c = &self.circuits[job.circuit];
        let obs = tt.obs();
        let mut out = JobOut {
            gate_cycles: (c.gates * job.cycles) as f64,
            ..JobOut::default()
        };
        match job.kind {
            Kind::Event(threads) => {
                let span = tt.open("sim", "sim.event", &job.name);
                let a = EventSim::new(&c.nl, &DelayModel::Unit)
                    .with_obs(obs.clone())
                    .activity_jobs(&job.patterns, threads);
                tt.close(span);
                out.fingerprint = profiles_fingerprint(&[&a.total, &a.functional]);
            }
            Kind::Comb => {
                let packed = job.packed.as_ref().expect("comb job has packed stimulus");
                let span = tt.open("sim", "sim.comb", &job.name);
                let a = CombSim::new(&c.nl)
                    .with_obs(obs.clone())
                    .activity_packed(packed);
                tt.close(span);
                out.fingerprint = profiles_fingerprint(&[&a]);
            }
            Kind::Seq => {
                let span = tt.open("sim", "sim.seq", &job.name);
                let a = SeqSim::new(&c.nl)
                    .with_obs(obs.clone())
                    .activity(&job.patterns);
                tt.close(span);
                out.fingerprint = seq_fingerprint(&a);
            }
            Kind::Chain(nodes) => {
                let cfg = chain_config(job, self.seed, ChainConfig::default().tiers, obs.clone());
                let budget = ResourceBudget::unlimited().with_max_bdd_nodes(nodes);
                let span = tt.open("power", "power.chain", &job.name);
                let est = estimate_activity(&c.nl, &budget, &cfg);
                tt.close(span);
                match est {
                    Ok(est) => {
                        out.fingerprint = chain_fingerprint(&est.profile, est.tier);
                        out.degraded = est.degraded();
                    }
                    Err(e) => out.error = Some(format!("chain exhausted: {e}")),
                }
            }
        }
        tt.import(&obs.snapshot());
        out
    }

    /// Every timed output is compared with a reference the repository
    /// keeps: the scalar paths of `EventSim`, `CombSim` and `SeqSim`
    /// (`with_scalar_reference(true)`), the zero-delay `CombSim` profile
    /// for `EventSim`'s functional toggles, and the probabilistic tier run
    /// alone for the chain. The arithmetic checks pin the netlists to
    /// native `*` and `+`.
    fn check(&self, outs: &[JobOut], failures: &mut Vec<String>) -> u64 {
        let mut checks = 0;
        for c in &self.circuits {
            let result = match &c.arith {
                Some(Arith::Mul(a, b, p)) => {
                    check::arithmetic(&c.nl, a, b, p, |x, y| x * y, ARITH_BLOCKS, self.seed)
                }
                Some(Arith::Add(a, b, s)) => {
                    check::arithmetic(&c.nl, a, b, s, |x, y| x + y, ARITH_BLOCKS, self.seed)
                }
                None => continue,
            };
            checks += 1;
            if let Err(e) = result {
                failures.push(format!("{} arithmetic: {e}", c.name));
            }
        }
        for (job, out) in self.jobs.iter().zip(outs) {
            let c = &self.circuits[job.circuit];
            checks += 1;
            let result = match job.kind {
                Kind::Event(1) => check_event(&c.nl, &job.patterns, out.fingerprint),
                Kind::Event(_) => {
                    let serial = self
                        .jobs
                        .iter()
                        .position(|j| {
                            matches!(j.kind, Kind::Event(1))
                                && j.circuit == job.circuit
                                && j.patterns == job.patterns
                        })
                        .map(|k| outs[k].fingerprint);
                    if serial == Some(out.fingerprint) {
                        Ok(())
                    } else {
                        Err("sharded activity differs from serial".to_string())
                    }
                }
                Kind::Comb => {
                    let packed = job.packed.as_ref().expect("comb job has packed stimulus");
                    let want = CombSim::new(&c.nl)
                        .with_scalar_reference(true)
                        .activity_packed(packed);
                    if profiles_fingerprint(&[&want]) == out.fingerprint {
                        Ok(())
                    } else {
                        Err("activity differs from the scalar CombSim reference".to_string())
                    }
                }
                Kind::Seq => {
                    checks += 1;
                    let n = SEQ_CHECK_CYCLES.min(job.patterns.len());
                    let want = SeqSim::new(&c.nl)
                        .with_scalar_reference(true)
                        .activity(&job.patterns);
                    if seq_fingerprint(&want) != out.fingerprint {
                        Err("activity differs from the scalar SeqSim reference".to_string())
                    } else {
                        check::pipelined_product(&c.nl, self.seq_width, &job.patterns[..n].to_vec())
                    }
                }
                Kind::Chain(_) => {
                    let cfg = chain_config(
                        job,
                        self.seed,
                        vec![Tier::Probabilistic],
                        lowpower::obs::Obs::disabled(),
                    );
                    match estimate_activity(&c.nl, &ResourceBudget::unlimited(), &cfg) {
                        Ok(want) if chain_fingerprint(&want.profile, want.tier) == out.fingerprint => {
                            Ok(())
                        }
                        Ok(_) => Err(
                            "answer differs from the probabilistic tier run alone (the exact tier must abandon)"
                                .to_string(),
                        ),
                        Err(e) => Err(format!("probabilistic reference failed: {e}")),
                    }
                }
            };
            if let Err(e) = result {
                failures.push(format!("{}: {e}", job.name));
            }
        }
        checks
    }

    fn quality(&self, _outs: &[JobOut]) -> (f64, f64) {
        // Estimation changes no netlist.
        (1.0, 1.0)
    }
}

/// Check an `EventSim` answer (fingerprint `got`) against the scalar
/// `EventSim` path for the total toggles and the scalar zero-delay
/// `CombSim` profile for the functional toggles, and check that each
/// net's glitch count on the reference is even.
fn check_event(nl: &Netlist, patterns: &PatternSet, got: u64) -> Result<(), String> {
    let event = EventSim::new(nl, &DelayModel::Unit)
        .with_scalar_reference(true)
        .activity(patterns);
    let zero_delay = CombSim::new(nl)
        .with_scalar_reference(true)
        .activity(patterns);
    check::glitch_parity(&event.total, &zero_delay)?;
    if profiles_fingerprint(&[&event.total, &zero_delay]) == got {
        Ok(())
    } else if profiles_fingerprint(&[&event.total, &event.functional]) == got {
        Err("functional toggles differ from the zero-delay CombSim reference".to_string())
    } else {
        Err("activity differs from the scalar EventSim reference".to_string())
    }
}
