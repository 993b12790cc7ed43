//! Slack-based transistor sizing under a delay constraint (survey §II.B).
//!
//! Each gate gets a continuous size factor `s ≥ 1` (1 = minimum size).
//! Bigger gates drive their load faster but present more input capacitance
//! to their fanins and switch more capacitance themselves:
//!
//! * gate delay: `d = d0 · (1 + γ · load / s)` where
//!   `load = Σ sink pin caps (scaled by sink size) + wire`,
//! * switched capacitance: `(intrinsic·s + load)` per toggle.
//!
//! The survey's recipe (\[42\]\[3\]): compute slack at every gate; while some
//! gate has positive slack, shrink it until slack reaches zero or minimum
//! size — and conversely upsize critical gates if the constraint is
//! violated (TILOS-style).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netlist::{GateKind, NetId, Netlist};
use power::model::{PowerParams, PowerReport};
use sim::ActivityProfile;

/// Load sensitivity of the delay model: `d = d0 · (1 + γ · load / s)`.
const GAMMA: f64 = 0.3;

/// Wire capacitance of a net driving `sinks` gate inputs.
fn wire_cap(sinks: usize) -> f64 {
    1.0 + 0.5 * sinks as f64
}

/// Delay of a non-source gate of `kind` with `fanins` inputs at size
/// `size` driving `load` — the one expression every timer here uses, so
/// full, incremental and live-logic timing agree bit for bit.
fn gate_delay_of(kind: GateKind, fanins: usize, load: f64, size: f64) -> f64 {
    kind.base_delay(fanins) * (1.0 + GAMMA * load / size)
}

/// A netlist with per-gate continuous size factors and timing/power views.
#[derive(Debug)]
pub struct SizedCircuit<'a> {
    nl: &'a Netlist,
    order: Vec<NetId>,
    fanouts: Vec<Vec<NetId>>,
    /// Size factor per net (1.0 = minimum size; sources stay 1.0).
    pub sizes: Vec<f64>,
}

/// Timing snapshot of a sized circuit.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Arrival time per net.
    pub arrival: Vec<f64>,
    /// Slack per net (against the constraint used to compute it).
    pub slack: Vec<f64>,
    /// Worst arrival over primary outputs (critical delay).
    pub critical: f64,
}

impl<'a> SizedCircuit<'a> {
    /// Wrap a combinational netlist with all gates at the maximum size
    /// `initial_size` (the "fast but hot" starting point the downsizing
    /// pass then relaxes).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or cyclic.
    pub fn new(nl: &'a Netlist, initial_size: f64) -> SizedCircuit<'a> {
        assert!(nl.is_combinational(), "sizing operates on combinational logic");
        let order = nl.topo_order().expect("acyclic");
        let fanouts = nl.fanouts();
        let sizes = nl
            .iter_nets()
            .map(|net| {
                if nl.kind(net).is_source() {
                    1.0
                } else {
                    initial_size.max(1.0)
                }
            })
            .collect();
        SizedCircuit {
            nl,
            order,
            fanouts,
            sizes,
        }
    }

    fn load(&self, net: NetId) -> f64 {
        wire_cap(self.fanouts[net.index()].len())
            + self.fanouts[net.index()]
                .iter()
                .map(|&sink| self.nl.kind(sink).input_cap() * self.sizes[sink.index()])
                .sum::<f64>()
    }

    fn gate_delay(&self, net: NetId) -> f64 {
        let kind = self.nl.kind(net);
        if kind.is_source() {
            return 0.0;
        }
        gate_delay_of(
            kind,
            self.nl.fanins(net).len(),
            self.load(net),
            self.sizes[net.index()],
        )
    }

    /// Static timing analysis against a required time `constraint` at every
    /// primary output.
    pub fn timing(&self, constraint: f64) -> Timing {
        let n = self.nl.len();
        let mut arrival = vec![0.0f64; n];
        for &net in &self.order {
            if self.nl.kind(net).is_source() {
                continue;
            }
            let input_arrival = self
                .nl
                .fanins(net)
                .iter()
                .map(|x| arrival[x.index()])
                .fold(0.0f64, f64::max);
            arrival[net.index()] = input_arrival + self.gate_delay(net);
        }
        let critical = self
            .nl
            .outputs()
            .iter()
            .map(|(net, _)| arrival[net.index()])
            .fold(0.0f64, f64::max);
        // Required times propagate backwards.
        let mut required = vec![f64::INFINITY; n];
        for (net, _) in self.nl.outputs() {
            required[net.index()] = constraint;
        }
        for &net in self.order.iter().rev() {
            let r = required[net.index()];
            if r.is_finite() {
                let own = self.gate_delay(net);
                for &fi in self.nl.fanins(net) {
                    required[fi.index()] = required[fi.index()].min(r - own);
                }
            }
        }
        let slack = (0..n)
            .map(|i| {
                if required[i].is_finite() {
                    required[i] - arrival[i]
                } else {
                    constraint - arrival[i]
                }
            })
            .collect();
        Timing {
            arrival,
            slack,
            critical,
        }
    }

    /// Switched capacitance per cycle under `activity`, honoring sizes.
    pub fn switched_capacitance(&self, activity: &ActivityProfile) -> f64 {
        let mut total = 0.0;
        for net in self.nl.iter_nets() {
            let kind = self.nl.kind(net);
            let intrinsic = kind.intrinsic_cap(self.nl.fanins(net).len());
            let cap = intrinsic * self.sizes[net.index()] + self.load(net);
            total += cap * activity.toggles[net.index()];
        }
        total
    }

    /// Full power report under `activity`.
    pub fn power(&self, activity: &ActivityProfile, params: &PowerParams) -> PowerReport {
        let cap = self.switched_capacitance(activity);
        let transitions: f64 = activity.toggles.iter().sum();
        PowerReport::from_raw(self.nl, cap, transitions, params)
    }

    /// Downsize gates with positive slack until every gate is at zero slack
    /// or minimum size (the survey's §II.B recipe). Returns the number of
    /// gates changed.
    ///
    /// `constraint` is the required arrival time at the outputs; if the
    /// circuit cannot meet it even fully upsized, the pass leaves the
    /// critical path at maximum size and shrinks the rest.
    pub fn downsize_for_power(&mut self, constraint: f64) -> usize {
        let mut sta = self.sta_cache();
        self.downsize_for_power_with(constraint, &mut sta)
    }

    /// [`SizedCircuit::downsize_for_power`] over a caller-owned
    /// [`StaCache`] (so a driver alternating passes keeps one cache, and
    /// the bench harness can read the trial counters afterwards).
    pub fn downsize_for_power_with(&mut self, constraint: f64, sta: &mut StaCache) -> usize {
        let mut changed = 0;
        // Iterate: shrink in small steps, most-slack-first, revert on
        // violation. Converges because sizes only decrease.
        let shrink = 0.8;
        let mut progress = true;
        while progress {
            progress = false;
            let timing = self.timing(constraint);
            // Candidate gates sorted by slack, largest first.
            let mut candidates: Vec<NetId> = self
                .nl
                .iter_nets()
                .filter(|&net| {
                    !self.nl.kind(net).is_source()
                        && self.sizes[net.index()] > 1.0
                        && timing.slack[net.index()] > 1e-9
                })
                .collect();
            candidates.sort_by(|&a, &b| {
                timing.slack[b.index()]
                    .partial_cmp(&timing.slack[a.index()])
                    .expect("finite slack")
            });
            for net in candidates {
                let old = self.sizes[net.index()];
                let candidate = (old * shrink).max(1.0);
                let critical = sta.resize(self, net, candidate);
                if critical <= constraint + 1e-9 {
                    changed += 1;
                    progress = true;
                } else {
                    sta.revert(self);
                }
            }
        }
        changed
    }

    /// [`SizedCircuit::downsize_for_power`] with a full static timing
    /// analysis per shrink trial — the pre-incremental driver, kept as the
    /// `bench_incr` baseline. Identical accept/reject decisions, identical
    /// final sizes.
    pub fn downsize_for_power_reference(&mut self, constraint: f64) -> usize {
        let mut changed = 0;
        let shrink = 0.8;
        let mut progress = true;
        while progress {
            progress = false;
            let timing = self.timing(constraint);
            let mut candidates: Vec<NetId> = self
                .nl
                .iter_nets()
                .filter(|&net| {
                    !self.nl.kind(net).is_source()
                        && self.sizes[net.index()] > 1.0
                        && timing.slack[net.index()] > 1e-9
                })
                .collect();
            candidates.sort_by(|&a, &b| {
                timing.slack[b.index()]
                    .partial_cmp(&timing.slack[a.index()])
                    .expect("finite slack")
            });
            for net in candidates {
                let old = self.sizes[net.index()];
                let candidate = (old * shrink).max(1.0);
                self.sizes[net.index()] = candidate;
                let t = self.timing(constraint);
                if t.critical <= constraint + 1e-9 {
                    changed += 1;
                    progress = true;
                } else {
                    self.sizes[net.index()] = old;
                }
            }
        }
        changed
    }

    /// Build an incremental-STA cache holding the current arrival times.
    pub fn sta_cache(&self) -> StaCache {
        let n = self.nl.len();
        let mut arrival = vec![0.0f64; n];
        for &net in &self.order {
            if self.nl.kind(net).is_source() {
                continue;
            }
            let input_arrival = self
                .nl
                .fanins(net)
                .iter()
                .map(|x| arrival[x.index()])
                .fold(0.0f64, f64::max);
            arrival[net.index()] = input_arrival + self.gate_delay(net);
        }
        let levels = self
            .nl
            .levels()
            .expect("acyclic")
            .into_iter()
            .map(|l| l as u32)
            .collect();
        StaCache {
            arrival,
            levels,
            heap: BinaryHeap::new(),
            queued: vec![0; n],
            epoch: 0,
            undo: Vec::new(),
            applied: 0,
            floor: 0,
            cps: Vec::new(),
            trials: 0,
            arrival_evals: 0,
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }
}

/// Reusable buffers for [`unit_critical_live`], so a search timing one
/// candidate after another allocates nothing per candidate.
#[derive(Debug, Default)]
pub struct LiveTiming {
    sinks: Vec<u32>,
    pins: Vec<f64>,
    arrival: Vec<f64>,
    done: Vec<bool>,
    stack: Vec<(u32, u32)>,
}

/// Critical delay of the live logic of a combinational `nl` with every
/// gate at unit size, where `live` is [`Netlist::live_nets`] of `nl`.
///
/// Bit-equal to `SizedCircuit::new(&swept, 1.0).timing(..).critical` on
/// `swept = nl.clone()` after [`Netlist::sweep_dead`], without the clone,
/// the sweep, or a topological sort. Sweeping keeps live nets in id order
/// and drops only dead sinks, so each live net sees the same sinks in the
/// same order: pin loads accumulate sink by sink in net-id order (the
/// order of [`Netlist::fanouts`]), arrivals fold fanins in fanin order
/// with the same `max`, and the critical delay folds outputs in output
/// order. Only nets reachable from an output are timed; the rest cannot
/// reach the fold.
pub fn unit_critical_live(nl: &Netlist, live: &[bool], t: &mut LiveTiming) -> f64 {
    let n = nl.len();
    assert_eq!(live.len(), n, "live mask of another netlist");
    t.sinks.clear();
    t.sinks.resize(n, 0);
    t.pins.clear();
    t.pins.resize(n, 0.0);
    t.arrival.clear();
    t.arrival.resize(n, 0.0);
    t.done.clear();
    t.done.resize(n, false);
    for sink in nl.iter_nets() {
        if !live[sink.index()] {
            continue;
        }
        let pin = nl.kind(sink).input_cap() * 1.0;
        for &f in nl.fanins(sink) {
            t.sinks[f.index()] += 1;
            t.pins[f.index()] += pin;
        }
    }
    for (root, _) in nl.outputs() {
        if t.done[root.index()] {
            continue;
        }
        t.stack.push((root.index() as u32, 0));
        while let Some(top) = t.stack.last_mut() {
            let idx = top.0 as usize;
            let fanins = nl.fanins(NetId::from_index(idx));
            if let Some(&child) = fanins.get(top.1 as usize) {
                top.1 += 1;
                if !t.done[child.index()] {
                    t.stack.push((child.index() as u32, 0));
                }
                continue;
            }
            t.stack.pop();
            t.done[idx] = true;
            let kind = nl.kind(NetId::from_index(idx));
            if kind.is_source() {
                continue;
            }
            let input_arrival = fanins
                .iter()
                .map(|x| t.arrival[x.index()])
                .fold(0.0f64, f64::max);
            let load = wire_cap(t.sinks[idx] as usize) + t.pins[idx];
            t.arrival[idx] = input_arrival + gate_delay_of(kind, fanins.len(), load, 1.0);
        }
    }
    nl.outputs()
        .iter()
        .map(|(net, _)| t.arrival[net.index()])
        .fold(0.0f64, f64::max)
}

/// Incremental static timing for sizing trials.
///
/// Resizing one gate changes its own delay and (through the load term) its
/// fanins' delays; everything else moves only via arrival propagation. The
/// cache keeps the last arrival times resident, re-evaluates the affected
/// cone in level order, and stops wherever a recomputed arrival is
/// bit-identical to the stored one — so a shrink trial on a gate with small
/// downstream cone touches a handful of nets instead of the whole netlist.
///
/// Arrivals are computed with exactly the expression [`SizedCircuit::timing`]
/// uses (same fanin order, same `max` fold), so the returned critical delay
/// is bit-identical to a from-scratch analysis and every accept/reject
/// decision made through the cache matches the full-STA driver.
///
/// Trials journal onto a multi-slot undo **stack**: [`StaCache::checkpoint`]
/// mints a [`StaMark`], chains of speculative resizes can be unwound to any
/// live mark with [`StaCache::rollback_to`] (restoring sizes and arrivals
/// bit-identically) or sealed with [`StaCache::commit`]. Callers that never
/// checkpoint keep the old single-slot cost: the stack auto-trims to one
/// frame per trial, and [`StaCache::revert`] undoes the latest resize.
#[derive(Debug)]
pub struct StaCache {
    arrival: Vec<f64>,
    levels: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    queued: Vec<u64>,
    epoch: u64,
    /// Journal frames for trials in `(floor, applied]`, oldest first.
    undo: Vec<StaFrame>,
    /// Resize trials applied over the cache's lifetime (monotone).
    applied: u64,
    /// Committed floor: trials at or below it can no longer be unwound.
    floor: u64,
    /// Outstanding checkpoint marks (nondecreasing); the oldest pins the
    /// auto-trim.
    cps: Vec<u64>,
    /// Resize trials performed.
    pub trials: u64,
    /// Arrival recomputations across all trials (the full-STA equivalent
    /// is `trials × nets` — the ratio is the work saved).
    pub arrival_evals: u64,
}

/// Undo journal frame for one [`StaCache::resize`] trial. Frames stack:
/// the cache keeps one per trial above the committed floor, undone LIFO.
#[derive(Debug)]
struct StaFrame {
    /// `(net index, previous size)` of the resized gate.
    size: (usize, f64),
    /// `(net index, previous arrival)` for every arrival that moved.
    arrivals: Vec<(usize, f64)>,
}

/// A position in a [`StaCache`] undo stack, minted by
/// [`StaCache::checkpoint`]. Absolute and totally ordered: a later
/// checkpoint compares greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StaMark(u64);

impl StaCache {
    /// Set `net`'s size and propagate arrivals; returns the new critical
    /// delay. The previous size and arrivals are journaled — call
    /// [`StaCache::revert`] to undo this trial in place, or unwind a whole
    /// chain of trials with [`StaCache::rollback_to`].
    ///
    /// # Panics
    ///
    /// Panics if `net` is a source (sources are never sized).
    pub fn resize(&mut self, c: &mut SizedCircuit<'_>, net: NetId, new_size: f64) -> f64 {
        assert!(!c.nl.kind(net).is_source(), "sources are never sized");
        self.trials += 1;
        self.epoch += 1;
        self.undo.push(StaFrame {
            size: (net.index(), c.sizes[net.index()]),
            arrivals: Vec::new(),
        });
        c.sizes[net.index()] = new_size;
        self.heap.clear();
        // The resized gate's delay changed; so did its fanins' (their load
        // includes the resized gate's input capacitance).
        self.enqueue(net);
        for &f in c.nl.fanins(net) {
            if !c.nl.kind(f).is_source() {
                self.enqueue(f);
            }
        }
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let idx = raw as usize;
            let nid = NetId::from_index(idx);
            self.arrival_evals += 1;
            let input_arrival = c
                .nl
                .fanins(nid)
                .iter()
                .map(|x| self.arrival[x.index()])
                .fold(0.0f64, f64::max);
            let a = input_arrival + c.gate_delay(nid);
            if a.to_bits() == self.arrival[idx].to_bits() {
                continue; // early cut-off: nothing downstream can move
            }
            if let Some(frame) = self.undo.last_mut() {
                frame.arrivals.push((idx, self.arrival[idx]));
            }
            self.arrival[idx] = a;
            for fi in 0..c.fanouts[idx].len() {
                let sink = c.fanouts[idx][fi];
                self.enqueue(sink);
            }
        }
        self.applied += 1;
        self.auto_trim();
        self.critical(c)
    }

    fn enqueue(&mut self, net: NetId) {
        let idx = net.index();
        if self.queued[idx] != self.epoch {
            self.queued[idx] = self.epoch;
            self.heap.push(Reverse((self.levels[idx], idx as u32)));
        }
    }

    /// Worst arrival over primary outputs under the cached arrivals.
    pub fn critical(&self, c: &SizedCircuit<'_>) -> f64 {
        c.nl
            .outputs()
            .iter()
            .map(|(net, _)| self.arrival[net.index()])
            .fold(0.0f64, f64::max)
    }

    /// Mark the current state for a later [`StaCache::rollback_to`] or
    /// [`StaCache::commit`]. While a mark is outstanding, every frame above
    /// it is retained, so chains of speculative resizes can be unwound to
    /// any mark between the checkpoint and the present.
    pub fn checkpoint(&mut self) -> StaMark {
        self.cps.push(self.applied);
        StaMark(self.applied)
    }

    /// Unwind every resize applied after `mark`, restoring sizes and
    /// arrivals bit-identically to the state at the checkpoint.
    ///
    /// Returns false (and changes nothing) if a [`StaCache::commit`] has
    /// passed the mark — rollback past the committed floor is rejected.
    /// The mark itself stays live and can be rolled back to repeatedly;
    /// marks above it are released.
    pub fn rollback_to(&mut self, c: &mut SizedCircuit<'_>, mark: StaMark) -> bool {
        if mark.0 < self.floor || mark.0 > self.applied {
            return false;
        }
        while self.applied > mark.0 {
            if let Some(frame) = self.undo.pop() {
                self.undo_frame(c, frame);
            }
            self.applied -= 1;
        }
        while self.cps.last().is_some_and(|&m| m > mark.0) {
            self.cps.pop();
        }
        true
    }

    /// Make every resize at or below `mark` permanent: frames are dropped,
    /// the floor rises to the mark, and later rollbacks past it are
    /// rejected. Releases every outstanding mark at or below `mark`.
    /// Returns false (and changes nothing) if the mark is already below
    /// the floor.
    pub fn commit(&mut self, mark: StaMark) -> bool {
        if mark.0 < self.floor || mark.0 > self.applied {
            return false;
        }
        self.undo.drain(..(mark.0 - self.floor) as usize);
        self.floor = mark.0;
        self.cps.retain(|&m| m > mark.0);
        true
    }

    /// Undo the most recent [`StaCache::resize`] still on the stack — a
    /// thin alias for rolling back one frame. Returns false if everything
    /// up to the present has been committed (or auto-trimmed) and there is
    /// nothing left to revert.
    pub fn revert(&mut self, c: &mut SizedCircuit<'_>) -> bool {
        if self.applied == self.floor || self.undo.is_empty() {
            return false;
        }
        self.rollback_to(c, StaMark(self.applied - 1))
    }

    /// Restore the state journaled in one frame (frames undo LIFO).
    fn undo_frame(&mut self, c: &mut SizedCircuit<'_>, frame: StaFrame) {
        let (idx, old) = frame.size;
        c.sizes[idx] = old;
        for &(i, a) in &frame.arrivals {
            self.arrival[i] = a;
        }
    }

    /// Drop frames no outstanding checkpoint can reach. With no
    /// checkpoints this keeps exactly one frame — the legacy single-slot
    /// behaviour (constant memory, `revert` undoes the latest trial).
    fn auto_trim(&mut self) {
        let keep_from = match self.cps.first() {
            Some(&m) => m.min(self.applied.saturating_sub(1)),
            None => self.applied.saturating_sub(1),
        };
        if keep_from > self.floor {
            let frames = (keep_from - self.floor) as usize;
            self.undo.drain(..frames);
            self.floor = keep_from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{array_multiplier, ripple_adder};
    use sim::comb::CombSim;
    use sim::stimulus::Stimulus;

    fn activity_of(nl: &Netlist, cycles: usize) -> ActivityProfile {
        CombSim::new(nl).activity(&Stimulus::uniform(nl.num_inputs()).patterns(cycles, 7))
    }

    #[test]
    fn timing_monotone_in_size() {
        let (nl, _) = ripple_adder(6);
        let big = SizedCircuit::new(&nl, 4.0);
        let small = SizedCircuit::new(&nl, 1.0);
        let tb = big.timing(1e9).critical;
        let ts = small.timing(1e9).critical;
        assert!(tb < ts, "bigger gates are faster: {tb} vs {ts}");
    }

    #[test]
    fn power_monotone_in_size() {
        let (nl, _) = ripple_adder(6);
        let activity = activity_of(&nl, 256);
        let big = SizedCircuit::new(&nl, 4.0);
        let small = SizedCircuit::new(&nl, 1.0);
        assert!(big.switched_capacitance(&activity) > small.switched_capacitance(&activity));
    }

    #[test]
    fn downsizing_saves_power_meeting_constraint() {
        let (nl, _) = ripple_adder(8);
        let activity = activity_of(&nl, 256);
        let mut circuit = SizedCircuit::new(&nl, 4.0);
        let fastest = circuit.timing(1e9).critical;
        let before = circuit.switched_capacitance(&activity);
        // Allow 40% timing margin.
        let constraint = fastest * 1.4;
        let changed = circuit.downsize_for_power(constraint);
        assert!(changed > 0, "some gates must shrink");
        let after = circuit.switched_capacitance(&activity);
        assert!(after < before, "power must drop: {after} vs {before}");
        assert!(circuit.timing(constraint).critical <= constraint + 1e-9);
    }

    #[test]
    fn looser_constraint_means_lower_power() {
        let (nl, _) = array_multiplier(4);
        let activity = activity_of(&nl, 256);
        let fastest = SizedCircuit::new(&nl, 4.0).timing(1e9).critical;
        let mut caps = Vec::new();
        for margin in [1.05, 1.3, 2.0] {
            let mut c = SizedCircuit::new(&nl, 4.0);
            c.downsize_for_power(fastest * margin);
            caps.push(c.switched_capacitance(&activity));
        }
        assert!(caps[0] >= caps[1] && caps[1] >= caps[2], "{caps:?}");
        assert!(caps[2] < caps[0], "loosest should strictly beat tightest");
    }

    #[test]
    fn tight_constraint_keeps_critical_path_fat() {
        let (nl, _) = ripple_adder(6);
        let mut circuit = SizedCircuit::new(&nl, 4.0);
        let fastest = circuit.timing(1e9).critical;
        circuit.downsize_for_power(fastest); // zero margin
        // Constraint still met (we never make it worse than the start).
        assert!(circuit.timing(fastest).critical <= fastest + 1e-9);
        // Some gate stays above minimum size (the carry chain).
        assert!(circuit.sizes.iter().any(|&s| s > 1.0 + 1e-9));
    }

    #[test]
    fn slack_signs_are_sensible() {
        let (nl, _) = ripple_adder(4);
        let circuit = SizedCircuit::new(&nl, 2.0);
        let critical = circuit.timing(1e9).critical;
        let tight = circuit.timing(critical);
        // On-path gates have ~zero slack; all slacks non-negative.
        assert!(tight.slack.iter().all(|&s| s > -1e-9));
        let loose = circuit.timing(critical * 2.0);
        assert!(loose.slack.iter().all(|&s| s >= critical - 1e-9 || s > 0.0));
    }

    #[test]
    fn power_report_integrates() {
        let (nl, _) = ripple_adder(4);
        let activity = activity_of(&nl, 128);
        let circuit = SizedCircuit::new(&nl, 2.0);
        let report = circuit.power(&activity, &PowerParams::default());
        assert!(report.total() > 0.0);
        assert!(report.switching_fraction() > 0.5);
    }
}

impl<'a> SizedCircuit<'a> {
    /// TILOS-style upsizing: while the constraint is violated, upsize the
    /// critical-path gate with the best delay-reduction-per-added-
    /// capacitance ratio. Returns `true` if the constraint was met.
    ///
    /// `max_size` bounds individual gates (drive strengths beyond ~8x stop
    /// paying off in real libraries).
    pub fn upsize_for_speed(&mut self, constraint: f64, max_size: f64) -> bool {
        let mut sta = self.sta_cache();
        self.upsize_for_speed_with(constraint, max_size, &mut sta)
    }

    /// [`SizedCircuit::upsize_for_speed`] over a caller-owned [`StaCache`]:
    /// every what-if upsizing is an incremental resize trial plus a revert
    /// instead of a full timing analysis.
    pub fn upsize_for_speed_with(
        &mut self,
        constraint: f64,
        max_size: f64,
        sta: &mut StaCache,
    ) -> bool {
        let step = 1.25;
        loop {
            let timing = self.timing(constraint);
            if timing.critical <= constraint + 1e-9 {
                return true;
            }
            // Candidates: gates on a critical path (zero slack) below max.
            let critical: Vec<NetId> = self
                .nl
                .iter_nets()
                .filter(|&net| {
                    !self.nl.kind(net).is_source()
                        && timing.slack[net.index()] < 1e-9
                        && self.sizes[net.index()] * step <= max_size + 1e-9
                })
                .collect();
            if critical.is_empty() {
                return false; // stuck: nothing left to upsize
            }
            // Every what-if trial unwinds to the round's mark; the chosen
            // upsize is applied for real and the round sealed with a
            // commit, so the journal never outgrows one round.
            let round = sta.checkpoint();
            let mut best: Option<(NetId, f64)> = None;
            for &net in &critical {
                let old = self.sizes[net.index()];
                let new_critical = sta.resize(self, net, old * step);
                sta.rollback_to(self, round);
                let gain = timing.critical - new_critical;
                // Cost: the capacitance the upsizing adds (intrinsic growth).
                let kind = self.nl.kind(net);
                let cost = kind.intrinsic_cap(self.nl.fanins(net).len()) * old * (step - 1.0);
                let ratio = gain / cost.max(1e-9);
                if best.map(|(_, r)| ratio > r).unwrap_or(true) {
                    best = Some((net, ratio));
                }
            }
            let (chosen, ratio) = best.expect("critical nonempty");
            if ratio <= 0.0 {
                return false; // no move helps
            }
            // Commit through the cache so its arrivals stay current.
            sta.resize(self, chosen, self.sizes[chosen.index()] * step);
            let sealed = sta.checkpoint();
            sta.commit(sealed);
        }
    }

    /// [`SizedCircuit::upsize_for_speed`] with a full timing analysis per
    /// what-if trial — the pre-incremental driver, kept as the `bench_incr`
    /// baseline. Identical decisions, identical final sizes.
    pub fn upsize_for_speed_reference(&mut self, constraint: f64, max_size: f64) -> bool {
        let step = 1.25;
        loop {
            let timing = self.timing(constraint);
            if timing.critical <= constraint + 1e-9 {
                return true;
            }
            let critical: Vec<NetId> = self
                .nl
                .iter_nets()
                .filter(|&net| {
                    !self.nl.kind(net).is_source()
                        && timing.slack[net.index()] < 1e-9
                        && self.sizes[net.index()] * step <= max_size + 1e-9
                })
                .collect();
            if critical.is_empty() {
                return false;
            }
            let mut best: Option<(NetId, f64)> = None;
            for &net in &critical {
                let old = self.sizes[net.index()];
                self.sizes[net.index()] = old * step;
                let new_critical = self.timing(constraint).critical;
                self.sizes[net.index()] = old;
                let gain = timing.critical - new_critical;
                let kind = self.nl.kind(net);
                let cost = kind.intrinsic_cap(self.nl.fanins(net).len()) * old * (step - 1.0);
                let ratio = gain / cost.max(1e-9);
                if best.map(|(_, r)| ratio > r).unwrap_or(true) {
                    best = Some((net, ratio));
                }
            }
            let (chosen, ratio) = best.expect("critical nonempty");
            if ratio <= 0.0 {
                return false;
            }
            self.sizes[chosen.index()] *= step;
        }
    }
}

#[cfg(test)]
mod upsize_tests {
    use super::*;
    use netlist::gen::ripple_adder;
    use sim::comb::CombSim;
    use sim::stimulus::Stimulus;

    #[test]
    fn upsizing_meets_a_reachable_constraint() {
        let (nl, _) = ripple_adder(8);
        let fastest = SizedCircuit::new(&nl, 8.0).timing(1e9).critical;
        let slowest = SizedCircuit::new(&nl, 1.0).timing(1e9).critical;
        let target = 0.5 * (fastest + slowest);
        let mut c = SizedCircuit::new(&nl, 1.0);
        assert!(c.timing(target).critical > target, "starts violated");
        assert!(c.upsize_for_speed(target, 8.0), "constraint reachable");
        assert!(c.timing(target).critical <= target + 1e-9);
        // Only some gates were upsized.
        let upsized = c.sizes.iter().filter(|&&s| s > 1.0 + 1e-9).count();
        assert!(upsized > 0 && upsized < c.sizes.len(), "{upsized} upsized");
    }

    #[test]
    fn unreachable_constraint_reported() {
        let (nl, _) = ripple_adder(6);
        let fastest = SizedCircuit::new(&nl, 8.0).timing(1e9).critical;
        let mut c = SizedCircuit::new(&nl, 1.0);
        assert!(!c.upsize_for_speed(fastest * 0.5, 8.0));
    }

    #[test]
    fn incremental_sta_matches_full_sta_decisions() {
        let (nl, _) = ripple_adder(8);
        let fastest = SizedCircuit::new(&nl, 4.0).timing(1e9).critical;
        let constraint = fastest * 1.4;
        let mut incr = SizedCircuit::new(&nl, 4.0);
        let mut refr = SizedCircuit::new(&nl, 4.0);
        let mut sta = incr.sta_cache();
        let ci = incr.downsize_for_power_with(constraint, &mut sta);
        let cr = refr.downsize_for_power_reference(constraint);
        assert_eq!(ci, cr, "same number of accepted shrinks");
        for (i, (a, b)) in incr.sizes.iter().zip(refr.sizes.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "size of n{i}");
        }
        // The cache's arrivals equal a fresh full analysis afterwards.
        let full = incr.timing(constraint);
        let fresh = incr.sta_cache();
        assert_eq!(sta.critical(&incr).to_bits(), full.critical.to_bits());
        assert_eq!(fresh.critical(&incr).to_bits(), full.critical.to_bits());
        // And the incremental trials touched far fewer nets than full STA
        // would have (`trials × nets` arrival evaluations).
        assert!(sta.trials > 0);
        assert!(sta.arrival_evals < sta.trials * nl.len() as u64);
    }

    #[test]
    fn incremental_upsize_matches_reference() {
        let (nl, _) = ripple_adder(8);
        let fastest = SizedCircuit::new(&nl, 8.0).timing(1e9).critical;
        let slowest = SizedCircuit::new(&nl, 1.0).timing(1e9).critical;
        let target = 0.5 * (fastest + slowest);
        let mut incr = SizedCircuit::new(&nl, 1.0);
        let mut refr = SizedCircuit::new(&nl, 1.0);
        assert_eq!(
            incr.upsize_for_speed(target, 8.0),
            refr.upsize_for_speed_reference(target, 8.0)
        );
        for (i, (a, b)) in incr.sizes.iter().zip(refr.sizes.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "size of n{i}");
        }
    }

    #[test]
    fn resize_trial_revert_restores_arrivals() {
        let (nl, _) = ripple_adder(6);
        let mut c = SizedCircuit::new(&nl, 2.0);
        let mut sta = c.sta_cache();
        let before = sta.critical(&c);
        let victim = nl
            .iter_nets()
            .find(|&net| !nl.kind(net).is_source())
            .expect("gate");
        let during = sta.resize(&mut c, victim, 1.0);
        assert_ne!(during.to_bits(), before.to_bits(), "shrink must slow it");
        assert!(sta.revert(&mut c));
        assert_eq!(sta.critical(&c).to_bits(), before.to_bits());
        assert_eq!(c.sizes[victim.index()], 2.0);
        assert!(!sta.revert(&mut c), "nothing left on the undo stack");
    }

    #[test]
    fn sta_checkpoint_rollback_commit_stack() {
        let (nl, _) = ripple_adder(6);
        let mut c = SizedCircuit::new(&nl, 2.0);
        let mut sta = c.sta_cache();
        let gates: Vec<NetId> = nl
            .iter_nets()
            .filter(|&net| !nl.kind(net).is_source())
            .take(3)
            .collect();
        let m0 = sta.checkpoint();
        let base_crit = sta.critical(&c);
        let base_sizes = c.sizes.clone();
        // Speculate a three-deep shrink chain with a mark per depth.
        let mut marks = vec![m0];
        let mut crits = vec![base_crit];
        for &g in &gates {
            sta.resize(&mut c, g, 1.0);
            marks.push(sta.checkpoint());
            crits.push(sta.critical(&c));
        }
        // Unwind to the middle: arrivals and sizes bit-identical.
        assert!(sta.rollback_to(&mut c, marks[1]));
        assert_eq!(sta.critical(&c).to_bits(), crits[1].to_bits());
        assert_eq!(c.sizes[gates[0].index()], 1.0);
        assert_eq!(c.sizes[gates[1].index()], 2.0);
        // Unwind home and check against a fresh cache.
        assert!(sta.rollback_to(&mut c, m0));
        assert_eq!(sta.critical(&c).to_bits(), base_crit.to_bits());
        for (a, b) in c.sizes.iter().zip(base_sizes.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(c.sta_cache().critical(&c).to_bits(), base_crit.to_bits());
        // Commit a chain; rollback past the floor is rejected.
        sta.resize(&mut c, gates[2], 1.5);
        let sealed = sta.checkpoint();
        assert!(sta.commit(sealed));
        let after = sta.critical(&c);
        assert!(!sta.rollback_to(&mut c, m0), "rollback past commit must fail");
        assert!(!sta.revert(&mut c), "committed frames are gone");
        assert_eq!(sta.critical(&c).to_bits(), after.to_bits());
        assert_eq!(c.sizes[gates[2].index()], 1.5);
    }

    #[test]
    fn upsize_then_downsize_round_trip_saves_power() {
        // The full §II.B loop: upsize to meet timing, then shave slack.
        let (nl, _) = ripple_adder(6);
        let activity =
            CombSim::new(&nl).activity(&Stimulus::uniform(12).patterns(256, 3));
        let fastest = SizedCircuit::new(&nl, 8.0).timing(1e9).critical;
        let target = fastest * 1.3;
        let mut c = SizedCircuit::new(&nl, 1.0);
        assert!(c.upsize_for_speed(target, 8.0));
        let after_upsize = c.switched_capacitance(&activity);
        c.downsize_for_power(target);
        let after_downsize = c.switched_capacitance(&activity);
        assert!(c.timing(target).critical <= target + 1e-9);
        assert!(after_downsize <= after_upsize + 1e-9);
    }
}
