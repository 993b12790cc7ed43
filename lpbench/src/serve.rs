//! The `serve` workload: an in-process `serve::Server` with two workers,
//! driven in a closed loop by two client threads. Each client sends its
//! next job only when the previous one has answered.
//!
//! The mix, an assumption, is mostly `power`, plus `stats`, `fsm` and
//! `dontcare`. The power payload set is larger than a worker's
//! `CircuitBddCache` and its popularity is skewed, so the cache both hits
//! and evicts. A fixed share
//! of jobs shows two known defects: `dontcare` ignores job deadlines (a
//! deadline-bound job on a 16-input adder answers late), and the
//! don't-care pass refuses circuits over 18 inputs. Those count against
//! `ok_ratio`; any other failure, and any answer that differs from
//! `serve::worker::cold_run`, is a failed check.

use std::collections::BTreeMap;
use std::time::Instant;

use lowpower::netlist::blif::{parse_text, write_text};
use lowpower::netlist::gen::{
    array_multiplier, kogge_stone_adder, random_dag, ripple_adder, wallace_multiplier,
    RandomDagConfig,
};
use lowpower::netlist::{Netlist, NetlistStats, Rng64};
use lowpower::seqopt::kiss::write_kiss;
use lowpower::seqopt::stg::Stg;
use lowpower::serve::worker::{cold_run, execute, ExecPolicy, WorkerState};
use lowpower::serve::{JobError, JobKind, JobOutput, JobResponse, JobSpec, ServeConfig, Server};

use crate::runner::{layer_metrics, measure, EndToEnd, Fixture, Iteration};
use crate::stats::{median, percentile};
use crate::trace::{analyse, summary, Span, ThreadTrace};
use crate::{Options, Outcome, Scale};

/// Worker threads and client threads (the host has two cores).
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// Circuits each worker's BDD cache holds (the server default).
const CACHE_CAPACITY: usize = 16;

/// Deadline of the deadline-bound jobs: more than 5x shorter than the
/// 70–100 ms the don't-care pass takes on the 16-input Kogge-Stone adder.
const LATE_DEADLINE_MS: u64 = 10;

/// Stimulus cycles a `power` job asks for.
const POWER_CYCLES: usize = 256;

/// A known defect a job is built to show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    /// Deadline-bound `dontcare`: answers after its deadline.
    Late,
    /// `dontcare` over the input cap: refused.
    Refused,
}

/// One distinct request.
struct Request {
    spec: JobSpec,
    /// Gates of the payload circuit (0 for state machines).
    gates: usize,
    defect: Option<Defect>,
}

/// Sizes of one scale.
struct Sizes {
    /// Every `late_period` jobs of a client's sequence hold one
    /// deadline-bound `dontcare` job, and every `refused_period` jobs one
    /// over-cap `dontcare` job.
    late_period: usize,
    refused_period: usize,
    power_dags: usize,
    dag_gates: (usize, usize),
    fsms: usize,
    jobs_per_client: usize,
    late_adder: usize,
    refused_mult: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            late_period: 50,
            refused_period: 200,
            power_dags: 36,
            dag_gates: (80, 320),
            fsms: 8,
            jobs_per_client: 500,
            late_adder: 8,
            refused_mult: 16,
        },
        Scale::Smoke => Sizes {
            late_period: 15,
            refused_period: 30,
            power_dags: 20,
            dag_gates: (20, 60),
            fsms: 3,
            jobs_per_client: 60,
            late_adder: 3,
            refused_mult: 10,
        },
    }
}

/// The request set and each client's request sequence.
struct Corpus {
    requests: Vec<Request>,
    sequences: Vec<Vec<usize>>,
}

fn blif_request(kind: JobKind, nl: &Netlist, seed: u64, defect: Option<Defect>) -> Request {
    let mut spec = JobSpec::new(kind, write_text(nl));
    spec.cycles = POWER_CYCLES;
    spec.seed = seed;
    if defect == Some(Defect::Late) {
        spec.deadline_ms = Some(LATE_DEADLINE_MS);
    }
    Request {
        spec,
        gates: NetlistStats::of(nl).gates,
        defect,
    }
}

impl Corpus {
    /// Payloads and the request mix are fixed by the workload definition
    /// (generator seeds included); `seed` drives the sampled stimulus and
    /// the order of each client's request sequence.
    fn build(scale: Scale, seed: u64) -> Corpus {
        let s = sizes(scale);
        let mut circuits: Vec<Netlist> = (0..s.power_dags)
            .map(|i| {
                let cfg = RandomDagConfig {
                    inputs: 12,
                    gates: s.dag_gates.0
                        + (s.dag_gates.1 - s.dag_gates.0) * i / s.power_dags.max(1),
                    outputs: 8,
                    max_fanin: 3,
                    window: 24,
                };
                random_dag(&cfg, 100 + i as u64)
            })
            .collect();
        circuits.push(array_multiplier(4).0);
        circuits.push(wallace_multiplier(5).0);
        circuits.push(ripple_adder(8).0);
        circuits.push(kogge_stone_adder(6).0);
        let mut requests: Vec<Request> = Vec::new();
        let power: Vec<usize> = circuits
            .iter()
            .map(|nl| {
                requests.push(blif_request(JobKind::Power, nl, seed, None));
                requests.len() - 1
            })
            .collect();
        let stats: Vec<usize> = circuits
            .iter()
            .map(|nl| {
                requests.push(blif_request(JobKind::Stats, nl, seed, None));
                requests.len() - 1
            })
            .collect();
        let dontcare: Vec<usize> = circuits[..4]
            .iter()
            .chain(&circuits[circuits.len() - 2..])
            .map(|nl| {
                requests.push(blif_request(JobKind::Dontcare, nl, seed, None));
                requests.len() - 1
            })
            .collect();
        let fsm: Vec<usize> = (0..s.fsms)
            .map(|i| {
                let stg = Stg::random(6 + 2 * i, 2, 2, 200 + i as u64);
                let mut spec = JobSpec::new(JobKind::Fsm, write_kiss(&stg));
                spec.seed = seed;
                requests.push(Request {
                    spec,
                    gates: 0,
                    defect: None,
                });
                requests.len() - 1
            })
            .collect();
        requests.push(blif_request(
            JobKind::Dontcare,
            &kogge_stone_adder(s.late_adder).0,
            seed,
            Some(Defect::Late),
        ));
        let late = requests.len() - 1;
        requests.push(blif_request(
            JobKind::Dontcare,
            &wallace_multiplier(s.refused_mult).0,
            seed,
            Some(Defect::Refused),
        ));
        let refused = requests.len() - 1;

        // Every client sends the same multiset of requests; the seed only
        // orders it, so every seed does the same work. Kind shares are 75%
        // power, 10% stats, 8% fsm and 7% dontcare; power requests follow
        // Zipf popularity (weight 1/rank) over the payloads. There is no
        // record of real serve traffic to take these from, so they are
        // assumed; BENCHMARK.md says what each one exercises.
        let defect_slot = |j: usize| {
            if j % s.late_period == s.late_period / 2 {
                Some(late)
            } else if j % s.refused_period == s.refused_period - 1 {
                Some(refused)
            } else {
                None
            }
        };
        let free = (0..s.jobs_per_client)
            .filter(|&j| defect_slot(j).is_none())
            .count();
        let kinds = apportion(free, &[0.75, 0.10, 0.08, 0.07]);
        let zipf: Vec<f64> = (0..power.len()).map(|k| 1.0 / (k + 1) as f64).collect();
        let mut mix = Vec::with_capacity(free);
        for (&r, n) in power.iter().zip(apportion(kinds[0], &zipf)) {
            mix.extend(std::iter::repeat_n(r, n));
        }
        for (group, n) in [(&stats, kinds[1]), (&fsm, kinds[2]), (&dontcare, kinds[3])] {
            mix.extend(group.iter().cycle().take(n));
        }
        let sequences = (0..CLIENTS)
            .map(|c| {
                let mut order = mix.clone();
                Rng64::new(seed ^ ((c as u64 + 1) << 40)).shuffle(&mut order);
                let mut order = order.into_iter();
                (0..s.jobs_per_client)
                    .map(|j| {
                        defect_slot(j)
                            .unwrap_or_else(|| order.next().expect("one request per free slot"))
                    })
                    .collect()
            })
            .collect();
        Corpus {
            requests,
            sequences,
        }
    }
}

/// Split `n` slots over `weights` in proportion, by largest remainder.
fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let rem = |i: usize| exact[i] - counts[i] as f64;
        rem(b).total_cmp(&rem(a)).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

fn start_server(obs: lowpower::obs::Obs) -> Server {
    Server::start(ServeConfig {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        checkpoint_every: 0,
        obs,
        ..ServeConfig::default()
    })
}

/// Everything set-up builds: the corpus, the untraced server and, for a
/// traced run, a traced server and a warm worker state for direct calls.
struct Rig {
    corpus: Corpus,
    server: Server,
    traced: Option<(Server, WorkerState)>,
}

fn setup(opts: &Options) -> Rig {
    let corpus = Corpus::build(opts.scale, opts.seed);
    // Warm-up answers every distinct request once, except the two defect
    // requests: they are not steady service content, and the deadline-bound
    // one alone would be a third of the set-up time.
    let steady = || corpus.requests.iter().filter(|r| r.defect.is_none());
    let warm = |server: &Server| {
        for req in steady() {
            let _ = server.run(req.spec.clone());
        }
    };
    let server = start_server(lowpower::obs::Obs::disabled());
    warm(&server);
    let traced = opts.trace.then(|| {
        let server = start_server(lowpower::obs::Obs::enabled());
        warm(&server);
        let mut state = WorkerState::new(CACHE_CAPACITY);
        let policy = ExecPolicy::default();
        for req in steady() {
            let _ = execute(&req.spec, None, &mut state, &policy);
        }
        (server, state)
    });
    Rig {
        corpus,
        server,
        traced,
    }
}

/// One answered job.
struct Answer {
    request: usize,
    latency_ms: f64,
    result: Result<JobOutput, JobError>,
}

/// One closed-loop batch: every client runs its whole sequence.
struct Batch {
    wall_s: f64,
    answers: Vec<Answer>,
    spans: Vec<Vec<Span>>,
    thread_ms: f64,
}

fn closed_loop(server: &Server, corpus: &Corpus, epoch: Instant, traced: bool) -> Batch {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Answer>, Vec<Span>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = corpus
            .sequences
            .iter()
            .map(|seq| {
                scope.spawn(move || {
                    let mut tt = ThreadTrace::new(epoch, traced);
                    let start = Instant::now();
                    let answers: Vec<Answer> = seq
                        .iter()
                        .map(|&r| {
                            let spec = corpus.requests[r].spec.clone();
                            let kind = spec.kind.name();
                            let t = Instant::now();
                            let span = tt.open("serve", "serve.request", kind);
                            let JobResponse { result, .. } = server.run(spec);
                            tt.close(span);
                            Answer {
                                request: r,
                                latency_ms: t.elapsed().as_secs_f64() * 1e3,
                                result,
                            }
                        })
                        .collect();
                    (answers, tt.take(), start.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut batch = Batch {
        wall_s,
        answers: Vec::new(),
        spans: Vec::new(),
        thread_ms: 0.0,
    };
    for (answers, spans, ms) in per_client {
        batch.answers.extend(answers);
        batch.spans.push(spans);
        batch.thread_ms += ms;
    }
    batch
}

/// Layer that does a job kind's work inside `serve::worker::execute`.
fn kind_layer(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Power => "power",
        JobKind::Stats => "netlist",
        JobKind::Fsm => "seqopt",
        JobKind::Dontcare => "logicopt",
        JobKind::InjectPanic => "serve",
    }
}

/// Label a request's service time is reported under: its kind, or
/// `defect` for the two defect requests.
fn service_label(req: &Request) -> &'static str {
    match req.defect {
        Some(_) => "defect",
        None => req.spec.kind.name(),
    }
}

/// Mean service-time metric of each steady kind.
const SERVICE_MS: [(&str, &str); 4] = [
    ("power", "serve.service.ms.power"),
    ("stats", "serve.service.ms.stats"),
    ("fsm", "serve.service.ms.fsm"),
    ("dontcare", "serve.service.ms.dontcare"),
];

/// Share-of-service-time metric of each [`service_label`].
const SERVICE_SHARE: [(&str, &str); 5] = [
    ("power", "serve.service.share_pct.power"),
    ("stats", "serve.service.share_pct.stats"),
    ("fsm", "serve.service.share_pct.fsm"),
    ("dontcare", "serve.service.share_pct.dontcare"),
    ("defect", "serve.service.share_pct.defect"),
];

/// Direct `serve::worker::execute` calls on a warm worker state, over the
/// first client's sequence: the service-time split of a traced iteration.
struct Direct {
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
    loop_ms: f64,
    /// Service time of each job, in sequence order.
    service_seq: Vec<f64>,
    /// Service times by [`service_label`].
    service_ms: BTreeMap<&'static str, Vec<f64>>,
    parse_ms: Vec<f64>,
    power_jobs: usize,
}

fn direct(corpus: &Corpus, state: &mut WorkerState, epoch: Instant) -> Direct {
    let mut tt = ThreadTrace::new(epoch, true);
    let mut service_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut service_seq = Vec::new();
    let mut parse_ms = Vec::new();
    let mut power_jobs = 0;
    let start = Instant::now();
    for &r in &corpus.sequences[0] {
        let req = &corpus.requests[r];
        let spec = &req.spec;
        if spec.kind != JobKind::Fsm {
            let t = Instant::now();
            let span = tt.open("netlist", "netlist.parse", spec.kind.name());
            let parsed = parse_text(&spec.payload);
            tt.close(span);
            parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(parsed.is_ok());
        }
        power_jobs += usize::from(spec.kind == JobKind::Power);
        let policy = ExecPolicy {
            obs: tt.obs(),
            ..ExecPolicy::default()
        };
        let t = Instant::now();
        let span = tt.open(kind_layer(spec.kind), "serve.execute", spec.kind.name());
        let result = execute(spec, Some(Instant::now()), state, &policy);
        tt.close(span);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        service_ms.entry(service_label(req)).or_default().push(ms);
        service_seq.push(ms);
        std::hint::black_box(result.0.is_ok());
        tt.import(&policy.obs.snapshot());
    }
    Direct {
        loop_ms: start.elapsed().as_secs_f64() * 1e3,
        spans: tt.take(),
        counters: tt.take_counters(),
        service_seq,
        service_ms,
        parse_ms,
        power_jobs,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Per-layer metrics of one traced iteration (a traced closed-loop batch
/// and the direct service-time split over the first client's sequence),
/// and its span summary. `latencies` are the first client's latencies in
/// the batch, in order.
fn traced_row(
    mut threads: Vec<Vec<Span>>,
    latencies: &[f64],
    thread_ms: f64,
    hit_ratio: f64,
    d: Direct,
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    threads.push(d.spans);
    let split = analyse(&threads);
    let mut m = layer_metrics(&split, &d.counters, 0, thread_ms + d.loop_ms);
    m.insert("netlist.parse.ms", mean(&d.parse_ms));
    let exact_ms = split.name_ms.get("tier.exact-bdd").copied().unwrap_or(0.0);
    m.insert(
        "power.exact.build_ms",
        exact_ms / d.power_jobs.max(1) as f64,
    );
    m.insert("serve.cache.hit_ratio", hit_ratio);
    let service = |label: &str| d.service_ms.get(label).map_or(&[][..], |v| &v[..]);
    for (label, key) in SERVICE_MS {
        m.insert(key, mean(service(label)));
    }
    let total: f64 = d.service_seq.iter().sum();
    for (label, key) in SERVICE_SHARE {
        m.insert(
            key,
            100.0 * service(label).iter().sum::<f64>() / total.max(1e-9),
        );
    }
    let waits: Vec<f64> = latencies
        .iter()
        .zip(&d.service_seq)
        .map(|(lat, service)| lat - service)
        .collect();
    m.insert("serve.wait.ms", mean(&waits));
    (m, summary(&threads))
}

fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = after.0 - before.0;
    let total = hits + after.1 - before.1;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn cache_counts(server: &Server) -> (u64, u64) {
    let s = server.stats();
    (s.cache_hits, s.cache_misses)
}

/// Run the `serve` workload.
pub fn run(opts: &Options) -> Outcome {
    let epoch = Instant::now();
    let mut fixture = Fixture::new(|| setup(opts));
    let jobs_per_batch: usize = fixture.get().corpus.sequences.iter().map(Vec::len).sum();

    let mut answers: Vec<Answer> = Vec::new();
    let measured = measure(opts, &mut fixture, |rig, traced| {
        let corpus = &rig.corpus;
        if traced {
            let (server, state) = rig.traced.as_mut().expect("traced rig");
            let before = cache_counts(server);
            let batch = closed_loop(server, corpus, epoch, true);
            let ratio = hit_ratio(before, cache_counts(server));
            let d = direct(corpus, state, epoch);
            let batch_latencies: Vec<f64> = batch.answers[..corpus.sequences[0].len()]
                .iter()
                .map(|a| a.latency_ms)
                .collect();
            let (layers, summary) =
                traced_row(batch.spans, &batch_latencies, batch.thread_ms, ratio, d);
            answers.extend(batch.answers);
            Iteration::Traced {
                wall_s: batch.wall_s,
                layers,
                summary,
            }
        } else {
            let batch = closed_loop(&rig.server, corpus, epoch, false);
            let latencies_ms = batch.answers.iter().map(|a| a.latency_ms).collect();
            answers.extend(batch.answers);
            Iteration::Untraced {
                wall_s: batch.wall_s,
                latencies_ms,
            }
        }
    });

    let setups = &fixture.times;
    let rig = fixture.get();
    let (failures, late, refused) = check_answers(&rig.corpus, &answers);
    let gate_cycles: f64 = rig
        .corpus
        .sequences
        .iter()
        .flatten()
        .map(|&r| &rig.corpus.requests[r])
        .filter(|req| req.spec.kind == JobKind::Power)
        .map(|req| (req.gates * req.spec.cycles) as f64)
        .sum();
    // Don't-care quality over the distinct don't-care payloads.
    let (mut cap_before, mut cap_after) = (0.0, 0.0);
    for req in &rig.corpus.requests {
        if req.spec.kind != JobKind::Dontcare || req.defect.is_some() {
            continue;
        }
        if let Ok(out) = cold_run(&req.spec, &ExecPolicy::default()).0 {
            if let Some((b, a)) = parse_caps(&out.text) {
                cap_before += b;
                cap_after += a;
            }
        }
    }

    let attempted = answers.len() as u64;
    let failed = failures.len() as u64;
    let defects = late + refused;
    let metrics = measured.metrics(
        opts,
        setups,
        &EndToEnd {
            wall_s: median(&measured.walls),
            ok_ratio: (attempted - failed - defects) as f64 / attempted as f64,
            gate_cycles,
            jobs: jobs_per_batch,
            power_ratio: if cap_before > 0.0 {
                cap_after / cap_before
            } else {
                1.0
            },
            // Served answers carry no netlist, so no path changes.
            crit_path_ratio: 1.0,
            latency_p50_ms: percentile(&measured.latencies_ms, 50.0),
            latency_p99_ms: percentile(&measured.latencies_ms, 99.0),
        },
    );
    let mut notes = vec![
        format!(
            "closed loop: {CLIENTS} clients, {WORKERS} workers, {jobs_per_batch} jobs per batch, {} distinct requests",
            rig.corpus.requests.len()
        ),
        measured.note("batches", setups),
        format!(
            "{} answers checked against cold_run; defects: {late} late, {refused} refused",
            answers.len()
        ),
    ];
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for a in &answers {
        let req = &rig.corpus.requests[a.request];
        let label = match req.defect {
            Some(Defect::Late) => "dontcare-deadline",
            Some(Defect::Refused) => "dontcare-over-cap",
            None => req.spec.kind.name(),
        };
        by_kind.entry(label).or_default().push(a.latency_ms);
    }
    let latency_total: f64 = by_kind.values().flatten().sum();
    for (kind, xs) in &by_kind {
        notes.push(format!(
            "latency {kind}: {} jobs, p50 {:.3} ms, p99 {:.3} ms, {:.1}% of all client latency",
            xs.len(),
            percentile(xs, 50.0),
            percentile(xs, 99.0),
            100.0 * xs.iter().sum::<f64>() / latency_total.max(1e-9)
        ));
    }
    notes.extend(
        measured
            .summary
            .iter()
            .map(|l| format!("last traced batch: {l}")),
    );
    notes.extend(failures.iter().take(20).map(|f| format!("FAILED: {f}")));
    rig.server.begin_drain();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Check every answer against a cold run of the same request. Returns the
/// failed checks and the number of late and refused defect answers.
fn check_answers(corpus: &Corpus, answers: &[Answer]) -> (Vec<String>, u64, u64) {
    let mut references: BTreeMap<usize, Result<JobOutput, JobError>> = BTreeMap::new();
    let mut failures = Vec::new();
    let (mut late, mut refused) = (0u64, 0u64);
    for a in answers {
        let req = &corpus.requests[a.request];
        let want = references
            .entry(a.request)
            .or_insert_with(|| cold_run(&req.spec, &ExecPolicy::default()).0);
        let defect = match (req.defect, &a.result) {
            (Some(Defect::Late), Err(JobError::DeadlineExpired { .. })) => Some(Defect::Late),
            (Some(Defect::Late), Ok(_)) if a.latency_ms > LATE_DEADLINE_MS as f64 => {
                Some(Defect::Late)
            }
            (Some(Defect::Refused), Err(JobError::Unsupported(_))) => Some(Defect::Refused),
            _ => None,
        };
        match defect {
            Some(Defect::Late) => late += 1,
            Some(Defect::Refused) => refused += 1,
            None => {}
        }
        // A deadline-bound job that expired in the queue has no cold-run
        // counterpart; it is a late answer, counted above.
        let expired = matches!(a.result, Err(JobError::DeadlineExpired { .. }));
        if a.result != *want && !expired {
            failures.push(format!(
                "{} job (request {}): answer differs from cold_run",
                req.spec.kind.name(),
                a.request
            ));
        } else if a.result.is_err() && defect.is_none() {
            failures.push(format!(
                "{} job (request {}) failed unexpectedly",
                req.spec.kind.name(),
                a.request
            ));
        }
    }
    (failures, late, refused)
}

/// `(before, after)` switched capacitance from a `dontcare` answer.
fn parse_caps(text: &str) -> Option<(f64, f64)> {
    let rest = text.split("switched cap ").nth(1)?;
    let mut it = rest.split_whitespace();
    let before = it.next()?.parse().ok()?;
    let _arrow = it.next()?;
    let after = it.next()?.parse().ok()?;
    Some((before, after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_fills_every_slot_in_proportion() {
        assert_eq!(apportion(10, &[0.75, 0.10, 0.08, 0.07]), vec![7, 1, 1, 1]);
        let zipf: Vec<f64> = (0..40).map(|k| 1.0 / (k + 1) as f64).collect();
        let counts = apportion(733, &zipf);
        assert_eq!(counts.iter().sum::<usize>(), 733);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }
}
