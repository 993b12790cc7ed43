//! Property tests of the multi-slot undo stacks and the rewriting search
//! built on them: for random netlists and random interleavings of
//! apply / checkpoint / rollback_to / commit, the resident engine must
//! stay **bit-identical** to from-scratch simulation of the matching
//! netlist snapshot after every single step. Rolling back past a commit
//! must be rejected without touching the engine, and a starved budget
//! must unwind the search to its last committed state, never a torn one.
//!
//! The rewriting search's resident BDD state gets a shadow check: after
//! every step of such an interleaving, its functions must equal a fresh
//! build's, every memoized don't-care analysis must equal a fresh one,
//! and the clone-free delay guard must be bit-equal to full STA on a
//! swept clone.
//!
//! Deltas are generated acyclic by construction, mirroring
//! `incr_props.rs`: rewires draw fanins from strictly lower indices,
//! buffer chains feed forward, and `replace_uses` replacements read
//! primary inputs only.

use lowpower::bdd::ResourceBudget;
use lowpower::circuit::sizing::{unit_critical_live, LiveTiming, SizedCircuit};
use lowpower::logicopt::dontcare::find_rewrite;
use lowpower::logicopt::resident::ResidentBdds;
use lowpower::logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use lowpower::netlist::gen::{random_dag, RandomDagConfig};
use lowpower::netlist::{GateKind, NetId, Netlist, Rng64};
use lowpower::power::exact::{circuit_bdds, CircuitBdds};
use lowpower::sim::comb::{equivalent_exhaustive, CombSim};
use lowpower::sim::incr::{Delta, IncrementalSim, Mark};
use lowpower::sim::stimulus::{PackedPatterns, PatternSet, Stimulus};
use lowpower::sim::ActivityProfile;
use proptest::prelude::*;

fn bits(p: &ActivityProfile) -> (Vec<u64>, Vec<u64>, usize) {
    (
        p.toggles.iter().map(|x| x.to_bits()).collect(),
        p.probability.iter().map(|x| x.to_bits()).collect(),
        p.cycles,
    )
}

fn comb_dag(seed: u64, gates: usize) -> Netlist {
    let config = RandomDagConfig {
        inputs: 8,
        gates,
        outputs: 4,
        max_fanin: 3,
        window: 12,
    };
    random_dag(&config, seed)
}

const NARY: [GateKind; 6] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

fn editable(nl: &Netlist, base_len: usize) -> Vec<NetId> {
    nl.iter_nets()
        .filter(|&g| {
            g.index() < base_len && NARY.contains(&nl.kind(g)) && nl.fanins(g).len() >= 2
        })
        .collect()
}

/// One random acyclic edit against `nl` (see module docs for why each
/// variant cannot close a cycle), or `None` if nothing is editable.
fn random_delta(nl: &Netlist, base_len: usize, rng: &mut Rng64) -> Option<Delta> {
    let targets = editable(nl, base_len);
    if targets.is_empty() {
        return None;
    }
    let victim = *rng.choose(&targets);
    let mut delta = Delta::for_netlist(nl);
    match rng.range(0, 4) {
        0 => {
            let mut kind = *rng.choose(&NARY);
            if kind == nl.kind(victim) {
                kind = GateKind::Xor;
            }
            if kind == nl.kind(victim) {
                kind = GateKind::Nand;
            }
            delta.set_gate(victim, kind, nl.fanins(victim));
        }
        1 => {
            let lo = victim.index();
            let fanins: Vec<NetId> = (0..rng.range(2, 4))
                .map(|_| NetId::from_index(rng.range(0, lo)))
                .collect();
            delta.set_gate(victim, *rng.choose(&NARY), &fanins);
        }
        2 => {
            let edge = rng.range(0, nl.fanins(victim).len());
            let mut head = nl.fanins(victim)[edge];
            for _ in 0..rng.range(1, 3) {
                head = delta.add_gate(GateKind::Buf, &[head]);
            }
            let mut fanins = nl.fanins(victim).to_vec();
            fanins[edge] = head;
            delta.set_gate(victim, nl.kind(victim), &fanins);
        }
        _ => {
            let ins = nl.inputs();
            let a = *rng.choose(ins);
            let b = *rng.choose(ins);
            let fresh = delta.add_gate(*rng.choose(&NARY), &[a, b]);
            delta.replace_uses(victim, fresh);
        }
    }
    Some(delta)
}

/// Assert the engine matches from-scratch simulation of `reference`.
fn check_engine(
    engine: &IncrementalSim,
    reference: &Netlist,
    patterns: &PatternSet,
) -> Result<(), TestCaseError> {
    let comb = CombSim::new(reference).activity(patterns);
    prop_assert_eq!(bits(&engine.activity()), bits(&comb));
    prop_assert_eq!(
        engine.switched_cap().to_bits(),
        comb.switched_capacitance(reference).to_bits()
    );
    Ok(())
}

/// Shadow-check the resident state on `nl` (which `res` must be viewing;
/// `fresh` is a fresh build of it): functions against the fresh build by
/// exhaustive evaluation, memoized analyses against fresh ones, and the
/// live-logic guard against full STA on a swept clone.
fn check_resident(
    res: &ResidentBdds,
    nl: &Netlist,
    fresh: &CircuitBdds,
    probs: &[f64],
    timing: &mut LiveTiming,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(res.funcs().len(), nl.len());
    let width = nl.num_inputs();
    for m in 0..1usize << width {
        let assignment: Vec<bool> = (0..width).map(|i| m >> i & 1 == 1).collect();
        for net in nl.iter_nets() {
            prop_assert_eq!(
                res.manager().eval(res.funcs()[net.index()], &assignment),
                fresh.mgr.eval(fresh.funcs[net.index()], &assignment),
                "function of {} differs at minterm {}",
                net,
                m
            );
        }
    }
    for (node, memoized) in res.memoized() {
        prop_assert_eq!(
            memoized,
            &find_rewrite(nl, fresh, node, probs),
            "stale memo entry for {}",
            node
        );
    }
    let mut swept = nl.clone();
    swept.sweep_dead();
    let reference = SizedCircuit::new(&swept, 1.0)
        .timing(f64::INFINITY)
        .critical;
    let live = nl.live_nets();
    prop_assert_eq!(
        unit_critical_live(nl, &live, timing).to_bits(),
        reference.to_bits()
    );
    Ok(())
}

/// Live-node count of a fresh build of `nl` once collected down to the
/// nets' functions — what a rebase must report.
fn collected_fresh_nodes(nl: &Netlist) -> usize {
    let mut fresh = circuit_bdds(nl);
    fresh.mgr.clear_roots();
    for &f in &fresh.funcs {
        fresh.mgr.protect(f);
    }
    fresh.mgr.gc();
    fresh.mgr.node_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The undo-stack contract under arbitrary interleavings: after every
    /// apply, rollback_to and commit, the engine is bit-identical to
    /// from-scratch simulation of the netlist snapshot the surviving
    /// marks describe. Marks invalidated by a commit are rejected and the
    /// failed call leaves the engine untouched.
    #[test]
    fn checkpoint_interleavings_are_bit_identical_to_from_scratch(
        seed in 0u64..5000,
        gates in 12usize..48,
        cycles in 2usize..120,
        ops in 3usize..10,
        op_seed in any::<u64>(),
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = Stimulus::uniform(8).patterns(cycles, seed ^ 0x5EED);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);

        let mut rng = Rng64::new(op_seed);
        let base_len = nl.len();
        // Live checkpoints, innermost last: the netlist snapshot each
        // mark must restore. Marks below `dead` (committed away) must be
        // rejected by rollback_to.
        let mut stack: Vec<(Mark, Netlist)> = Vec::new();
        let mut dead: Vec<Mark> = Vec::new();
        let mut current = nl;
        for _ in 0..ops {
            match rng.range(0, 5) {
                // Speculative apply.
                0 | 1 => {
                    let Some(delta) = random_delta(&current, base_len, &mut rng) else {
                        continue;
                    };
                    let mut edited = current.clone();
                    delta.apply_to(&mut edited);
                    prop_assert!(edited.topo_order().is_ok(), "generator produced a cycle");
                    engine.apply_delta(&delta);
                    current = edited;
                    check_engine(&engine, &current, &patterns)?;
                }
                // Push a checkpoint.
                2 => {
                    stack.push((engine.checkpoint(), current.clone()));
                }
                // Roll back to a random live mark; it stays live.
                3 => {
                    if stack.is_empty() {
                        continue;
                    }
                    let pick = rng.range(0, stack.len());
                    stack.truncate(pick + 1);
                    let (m, snapshot) = stack.last().expect("picked live mark");
                    prop_assert!(engine.rollback_to(*m), "live mark must roll back");
                    current = snapshot.clone();
                    check_engine(&engine, &current, &patterns)?;
                }
                // Commit a random live mark: everything at or below it
                // becomes permanent and those marks die.
                _ => {
                    if stack.is_empty() {
                        continue;
                    }
                    let pick = rng.range(0, stack.len());
                    let committed: Vec<(Mark, Netlist)> = stack.drain(..=pick).collect();
                    let (m, _) = committed.last().expect("picked live mark");
                    prop_assert!(engine.commit(*m), "live mark must commit");
                    // The commit floor is `m` itself; only marks strictly
                    // below it are invalidated (a duplicate mark minted at
                    // the same depth as `m` is still the floor, not past it).
                    dead.extend(
                        committed[..committed.len() - 1]
                            .iter()
                            .filter(|(a, _)| a < m)
                            .map(|(a, _)| *a),
                    );
                    // Committing never moves the evaluated state.
                    check_engine(&engine, &current, &patterns)?;
                }
            }
            // Rolling back past the committed floor is rejected and the
            // rejected call changes nothing.
            if let Some(&m) = dead.last() {
                prop_assert!(!engine.rollback_to(m), "committed-away mark must be rejected");
                check_engine(&engine, &current, &patterns)?;
            }
        }
    }

    /// The resident rewrite state under arbitrary interleavings of
    /// apply / checkpoint / rollback_to / commit on the engine, with a
    /// rebase at every commit and a view of every other state: resident
    /// functions equal a fresh build's, every memoized don't-care
    /// analysis equals a fresh `find_rewrite`, the clone-free guard is
    /// bit-equal to STA on a swept clone, and a rebase reports the
    /// collected size of a fresh build.
    #[test]
    fn resident_state_shadows_fresh_builds(
        seed in 0u64..5000,
        gates in 12usize..40,
        ops in 3usize..10,
        op_seed in any::<u64>(),
    ) {
        let nl = comb_dag(seed, gates);
        let mut rng = Rng64::new(op_seed);
        let probs: Vec<f64> = (0..nl.num_inputs()).map(|_| 0.1 + 0.8 * rng.next_f64()).collect();
        let packed = Stimulus::uniform(8).packed(64, seed);
        let unlimited = ResourceBudget::unlimited();
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        let mut res =
            ResidentBdds::try_new(&nl, &probs, &unlimited, false).expect("unlimited budget");
        let mut timing = LiveTiming::default();
        let base_len = nl.len();
        let mut marks: Vec<Mark> = Vec::new();
        for _ in 0..ops {
            match rng.range(0, 5) {
                0 | 1 => {
                    let Some(delta) = random_delta(engine.netlist(), base_len, &mut rng) else {
                        continue;
                    };
                    engine.apply_delta(&delta);
                }
                2 => marks.push(engine.checkpoint()),
                3 => {
                    if let Some(&m) = marks.last() {
                        prop_assert!(engine.rollback_to(m));
                    }
                }
                _ => {
                    if let Some(m) = marks.pop() {
                        prop_assert!(engine.commit(m));
                        marks.clear();
                    }
                    let nodes = res.rebase(engine.netlist(), &unlimited).expect("unlimited budget");
                    prop_assert_eq!(nodes, collected_fresh_nodes(engine.netlist()));
                }
            }
            let current = engine.netlist().clone();
            res.view(&current, &unlimited).expect("unlimited budget");
            let fresh = circuit_bdds(&current);
            // Fill the memo (and reuse it) on a random half of the nodes.
            for net in current.iter_nets() {
                if !current.kind(net).is_source() && rng.flip() {
                    let got = res.analyse(net, &unlimited).expect("unlimited budget");
                    prop_assert_eq!(got, find_rewrite(&current, &fresh, net, &probs));
                }
            }
            check_resident(&res, &current, &fresh, &probs, &mut timing)?;
        }
    }

    /// A node budget too small for the search's BDD work unwinds it to
    /// the last committed state with `budget_exhausted` set: the result
    /// is equivalent to the input and no worse, and a run that happens
    /// not to exhaust matches the unlimited search.
    #[test]
    fn bdd_starved_rewrite_search_unwinds_to_safe_state(
        seed in 0u64..5000,
        max_nodes in 4u64..600,
    ) {
        let nl = comb_dag(seed, 30);
        let probs = vec![0.5; nl.num_inputs()];
        let packed = Stimulus::uniform(nl.num_inputs()).packed(64, seed ^ 0xB0D);
        let cfg = RewriteConfig {
            max_rounds: 4,
            ..RewriteConfig::default()
        };
        let (_, reference) = lowpower::logicopt::rewrite::rewrite_sim(&nl, &probs, &packed, &cfg);
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(max_nodes);
        // The simulator's build spends no BDD nodes, so the call succeeds.
        let (out, report) = try_rewrite_sim(&nl, &probs, &packed, &budget, &cfg)
            .expect("node budgets do not bind the simulator");
        prop_assert!(equivalent_exhaustive(&nl, &out));
        prop_assert!(report.cap_after <= report.cap_before + 1e-9);
        if report.budget_exhausted {
            prop_assert!(report.chains_accepted <= reference.chains_accepted);
        } else {
            prop_assert_eq!(report.chains_accepted, reference.chains_accepted);
            prop_assert_eq!(report.cap_after.to_bits(), reference.cap_after.to_bits());
        }
        // The eight input variables and the terminal fill a 9-node budget:
        // the first gate's BDD already exhausts it, so nothing may change.
        let starved = ResourceBudget::unlimited().with_max_bdd_nodes(9);
        let (out, report) = try_rewrite_sim(&nl, &probs, &packed, &starved, &cfg)
            .expect("node budgets do not bind the simulator");
        prop_assert!(report.budget_exhausted);
        prop_assert_eq!(report.chains_accepted, 0);
        prop_assert_eq!(out.len(), nl.len());
    }

    /// Budget exhaustion mid-search unwinds the rewriting pass to its
    /// last committed state: whatever netlist comes back is functionally
    /// equivalent to the input, never a torn intermediate.
    #[test]
    fn starved_rewrite_search_unwinds_to_safe_state(
        seed in 0u64..5000,
        divisor in 1u64..40,
    ) {
        let nl = comb_dag(seed, 30);
        let probs = vec![0.5; nl.num_inputs()];
        let packed = Stimulus::uniform(nl.num_inputs()).packed(64, seed ^ 0xB0D);
        let cfg = RewriteConfig {
            max_rounds: 4,
            ..RewriteConfig::default()
        };
        // Scale the starvation off the unlimited run's true appetite:
        // enough for the initial build plus a shrinking slice of the
        // search, so large divisors exhaust genuinely mid-search.
        let (_, reference) = lowpower::logicopt::rewrite::rewrite_sim(&nl, &probs, &packed, &cfg);
        let steps = (64 * nl.len() as u64 + reference.nets_reevaluated / divisor).max(1);
        let budget = ResourceBudget::unlimited().with_max_sim_steps(steps);
        // The initial full build alone can exceed a starved budget; a
        // typed error (not a panic, not a torn result) is the contract
        // there, so only an Ok result carries obligations.
        if let Ok((out, report)) = try_rewrite_sim(&nl, &probs, &packed, &budget, &cfg) {
            prop_assert!(equivalent_exhaustive(&nl, &out));
            if !report.budget_exhausted {
                prop_assert_eq!(report.chains_accepted, reference.chains_accepted);
            }
        }
    }
}
