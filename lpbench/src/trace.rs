//! The benchmark's own span recorder and the per-layer split.
//!
//! Every call the benchmark makes into a layer's public function is
//! wrapped in a span on the calling thread's own [`ThreadTrace`]. The
//! program's `obs` spans are recorded through a handle whose clock shares
//! the trace's epoch ([`ThreadTrace::obs`]), so both kinds of span sit on
//! one time line and nest by interval containment. Parents are never read
//! from `obs` records: the `obs` span stack is shared by every thread, so
//! its parent links are wrong as soon as worker threads open spans. Each
//! trace is kept in memory and analysed after the run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lowpower::obs;

/// The layers, named after the repository's crates and modules.
pub const LAYERS: [&str; 9] = [
    "netlist", "bdd", "sim", "power", "circuit", "logicopt", "seqopt", "flows", "serve",
];

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call or pass name (`sim.event`, `pass.rewrite`, …).
    pub name: String,
    /// Layer the span's self time is charged to (one of [`LAYERS`]).
    pub layer: &'static str,
    /// Corpus item the call served (empty for program spans).
    pub tag: String,
    /// Start, from the trace epoch.
    pub start: Duration,
    /// End, from the trace epoch.
    pub end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// An `obs` clock reading the trace epoch, so program spans land on the
/// benchmark's time line.
struct EpochClock(Instant);

impl obs::clock::Clock for EpochClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Handle of an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// One thread's spans. A disabled trace records nothing and hands out
/// disabled `obs` handles, which is what "tracing off" means.
pub struct ThreadTrace {
    epoch: Instant,
    on: bool,
    spans: Vec<(Span, bool)>,
    counters: BTreeMap<String, f64>,
}

impl ThreadTrace {
    /// A trace on `epoch`; records only when `on`.
    pub fn new(epoch: Instant, on: bool) -> ThreadTrace {
        ThreadTrace {
            epoch,
            on,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// An `obs` handle for the program: enabled on the trace epoch when
    /// tracing, disabled otherwise.
    pub fn obs(&self) -> obs::Obs {
        if self.on {
            obs::Obs::with_clock(EpochClock(self.epoch))
        } else {
            obs::Obs::disabled()
        }
    }

    /// Open a span around a call into `layer`.
    pub fn open(&mut self, layer: &'static str, name: &str, tag: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.epoch.elapsed();
        self.spans.push((
            Span {
                name: name.to_string(),
                layer,
                tag: tag.to_string(),
                start: now,
                end: now,
            },
            false,
        ));
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`ThreadTrace::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].0.end = self.epoch.elapsed();
            self.spans[i].1 = true;
        }
    }

    /// Copy the closed program spans of `snap` (recorded through a handle
    /// from [`ThreadTrace::obs`] on this thread) into the trace, and fold
    /// its counters (summed) and gauges (maximum) into the trace's totals.
    pub fn import(&mut self, snap: &obs::Snapshot) {
        if !self.on {
            return;
        }
        for (name, v) in &snap.counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += *v as f64;
        }
        for (name, v) in &snap.gauges {
            let slot = self.counters.entry(name.clone()).or_insert(*v);
            *slot = slot.max(*v);
        }
        for rec in &snap.spans {
            if let Some(d) = rec.duration {
                self.spans.push((
                    Span {
                        layer: layer_of_program_span(&rec.name),
                        name: rec.name.clone(),
                        tag: String::new(),
                        start: rec.start,
                        end: rec.start + d,
                    },
                    true,
                ));
            }
        }
    }

    /// The counter and gauge totals imported so far, leaving them empty.
    pub fn take_counters(&mut self) -> BTreeMap<String, f64> {
        std::mem::take(&mut self.counters)
    }

    /// The closed spans recorded so far, leaving the trace empty.
    pub fn take(&mut self) -> Vec<Span> {
        self.spans
            .drain(..)
            .filter(|(_, closed)| *closed)
            .map(|(s, _)| s)
            .collect()
    }
}

/// Layer charged for a span the program itself opens.
fn layer_of_program_span(name: &str) -> &'static str {
    match name {
        "flow.comb" | "flow.fsm" => "flows",
        "pass.rewrite" | "pass.dontcare" | "pass.balance" => "logicopt",
        "pass.encode" | "pass.synthesize" | "pass.clock-gate" => "seqopt",
        "tier.exact-bdd" => "bdd",
        "tier.sampled-sim" => "sim",
        "chain.estimate" | "tier.probabilistic" => "power",
        // pass.measure-*, pass.equiv-check, pass.measure: simulation.
        _ if name.starts_with("pass.") => "sim",
        _ => "flows",
    }
}

/// The per-layer split of a set of per-thread traces.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Self time per layer: a span's duration minus the part its direct
    /// children cover.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Total duration per span name.
    pub name_ms: BTreeMap<String, f64>,
    /// Total duration per `(name, tag)` of the benchmark's own spans.
    pub tagged_ms: BTreeMap<(String, String), f64>,
    /// Total duration of outermost spans (time attributed to any layer).
    pub covered_ms: f64,
}

/// Nest each thread's spans by interval containment and sum them up.
pub fn analyse(threads: &[Vec<Span>]) -> Split {
    let mut split = Split::default();
    for layer in LAYERS {
        split.self_ms.insert(layer, 0.0);
    }
    for spans in threads {
        let mut order: Vec<&Span> = spans.iter().collect();
        order.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
        // Stack of (span, time covered by its direct children).
        let mut stack: Vec<(&Span, f64)> = Vec::new();
        let finish = |s: &Span, children: f64, split: &mut Split| {
            *split.self_ms.entry(s.layer).or_insert(0.0) += (s.ms() - children).max(0.0);
        };
        for s in order {
            while let Some(&(top, children)) = stack.last() {
                if s.start >= top.end {
                    stack.pop();
                    finish(top, children, &mut split);
                } else {
                    break;
                }
            }
            match stack.last_mut() {
                Some((_, children)) => *children += s.ms(),
                None => split.covered_ms += s.ms(),
            }
            *split.name_ms.entry(s.name.clone()).or_insert(0.0) += s.ms();
            if !s.tag.is_empty() {
                *split
                    .tagged_ms
                    .entry((s.name.clone(), s.tag.clone()))
                    .or_insert(0.0) += s.ms();
            }
            stack.push((s, 0.0));
        }
        while let Some((top, children)) = stack.pop() {
            finish(top, children, &mut split);
        }
    }
    split
}

/// One line per span name (`name [layer]: count, total ms`), largest
/// total first: the traced spans written out at the end of a run.
pub fn summary(threads: &[Vec<Span>]) -> Vec<String> {
    let mut totals: BTreeMap<(&str, &str), (usize, f64)> = BTreeMap::new();
    for s in threads.iter().flatten() {
        let slot = totals.entry((&s.name, s.layer)).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += s.ms();
    }
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    rows.into_iter()
        .map(|((name, layer), (count, ms))| format!("span {name} [{layer}]: {count}x, {ms:.3} ms"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            layer,
            tag: String::new(),
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("flows.comb", "flows", 0, 100),
            span("pass.rewrite", "logicopt", 10, 60),
            span("tier.exact-bdd", "bdd", 20, 30),
            span("pass.balance", "logicopt", 70, 90),
            span("sim.event", "sim", 120, 150),
        ];
        let split = analyse(&[spans]);
        assert_eq!(split.self_ms["flows"], 30.0);
        assert_eq!(split.self_ms["logicopt"], 60.0);
        assert_eq!(split.self_ms["bdd"], 10.0);
        assert_eq!(split.self_ms["sim"], 30.0);
        assert_eq!(split.covered_ms, 130.0);
        assert_eq!(split.name_ms["pass.rewrite"], 50.0);
    }
}
