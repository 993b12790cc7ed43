//! The resident BDD state of the rewriting search ([`crate::rewrite`]).
//!
//! One manager holds the global function of every net for the whole
//! search. Each round starts by [`ResidentBdds::rebase`]-ing onto the
//! round's base netlist; enumerations on speculative netlists (the base
//! plus a lookahead head) go through [`ResidentBdds::view`]. Both derive
//! the new functions from the base's by re-deriving only the fanout cone
//! of the edit, in topological order, and stop wherever a function comes
//! out with an unchanged [`Ref`]. Resubstitution and extraction preserve
//! every existing net's function, so they only build their added gates; a
//! don't-care rewrite re-derives its transitive fanout until the change
//! is absorbed. The variable order is the one a fresh
//! [`power::exact::try_circuit_bdds`] build uses (primary inputs in
//! order, no reordering), and BDDs are canonical, so every function — and
//! every probability read from it — is bit-identical to a fresh build's.
//! Garbage is collected at each rebase, with the base's functions as the
//! only roots.
//!
//! The state is a pure function of the netlist it is asked about: views
//! and rebases diff that netlist against the base instead of replaying
//! edits, so the search's checkpoints and rollbacks stay on the
//! incremental simulator's undo stack alone — there is no second journal
//! here to keep in step with it.
//!
//! # The don't-care memo
//!
//! Every analysis [`ResidentBdds::analyse`] runs is memoized per node,
//! relative to the base. When a view or rebase moves to netlist `N'`, let
//!
//! * `T` be the nets whose gate (kind or fanins) differs between base `N`
//!   and `N'` — the `SetGate` targets and the users of a `ReplaceUses`
//!   net — plus both ends of every retargeted primary output, and
//! * `F` be the base nets whose global function differs.
//!
//! Only nodes in `S = TFI(T ∪ fanouts(F))` are analysed again, with the
//! transitive fanin taken over the edges of both netlists and `fanouts`
//! over both netlists too. *Soundness:* the analysis of a node `n` reads
//! (1) `n`'s kind and its fanins' functions, (2) the gates of `n`'s
//! transitive fanout cone and the functions of the side inputs entering
//! it, (3) which outputs that cone reaches, and (4) the input
//! probabilities, fixed for the whole search. Suppose `n ∉ S`. Then no
//! net of `n`'s old fanout cone is in `T` (else `n ∈ TFI(T)`), so every
//! edge of that cone exists unchanged in `N'`; and any path out of `n` in
//! `N'` that leaves the old cone must enter an added gate, whose
//! pre-existing users are rewired nets (in `T`) — so the new cone equals
//! the old one plus dead added gates that reach no output (an output
//! moved onto one would put that gate in `T`). That settles (2)'s gates
//! and (3). A side input or fanin of `n` whose function changed is in
//! `F`, which puts the cone net it feeds (or `n`) in `fanouts(F)` and `n`
//! in `S` — so (1) and (2)'s functions are unchanged too. Every step of
//! the analysis is then a canonical BDD operation on identical functions,
//! and the result is identical. Nodes outside `S` keep their entries, and
//! an analysis run on a view for a node outside the view's `S` is valid
//! for the base as well, so it is memoized too.

use bdd::{Bdd, BudgetExceeded, OpCounts, Ref, Resource, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};
use power::exact::{publish_op_counts, try_circuit_bdds, try_gate_func};

use crate::dontcare::{try_analyse, OdcInputs, Rewrite};

/// Global BDDs of the search's netlists in one persistent manager, plus
/// the memo of don't-care analyses (see the module docs).
#[derive(Debug)]
pub struct ResidentBdds {
    mgr: Bdd,
    input_vars: Vec<u32>,
    /// One-probability per primary input, fixed for the state's lifetime
    /// (the memo does not key on it).
    input_probs: Vec<f64>,
    /// Circuit variables; an analysis' stand-in variable is the next one.
    nvars: u32,
    /// The round base, which the memo is relative to.
    base: Netlist,
    base_funcs: Vec<Ref>,
    /// Per base net: `None` = not analysed, `Some(r)` = the analysis.
    memo: Vec<Option<Option<Rewrite>>>,
    /// The netlist of the current view (`None`: the base itself).
    view_nl: Option<Netlist>,
    view_funcs: Vec<Ref>,
    /// Base nets whose memo entries the current view cannot use.
    stale: Vec<bool>,
    /// Topological order of the current view's netlist.
    order: Vec<NetId>,
    /// [`Netlist::live_nets`] of the current view's netlist.
    live: Vec<bool>,
    /// Root-stack depth holding exactly the base functions.
    base_roots: usize,
    force_full: bool,
    /// Don't-care analyses computed, and answered from the memo.
    analysed: u64,
    reused: u64,
    /// Kernel work of managers already dropped (the resident manager's
    /// own counters are read live).
    retired: OpCounts,
    retired_peak: usize,
}

impl ResidentBdds {
    /// Build the global functions of `nl` under `budget`; don't-care
    /// analyses will use `input_probs`.
    ///
    /// With `force_full` every [`ResidentBdds::rebase`] and
    /// [`ResidentBdds::view`] rebuilds from scratch and nothing is
    /// memoized — the reference twin of the incremental state.
    pub fn try_new(
        nl: &Netlist,
        input_probs: &[f64],
        budget: &ResourceBudget,
        force_full: bool,
    ) -> Result<ResidentBdds, BudgetExceeded> {
        let built = try_circuit_bdds(nl, budget)?;
        let mut state = ResidentBdds {
            nvars: built.mgr.num_vars() as u32,
            mgr: built.mgr,
            input_vars: built.input_vars,
            input_probs: input_probs.to_vec(),
            base: nl.clone(),
            base_funcs: built.funcs,
            memo: vec![None; nl.len()],
            view_nl: None,
            view_funcs: Vec::new(),
            stale: Vec::new(),
            order: Vec::new(),
            live: Vec::new(),
            base_roots: 0,
            force_full,
            analysed: 0,
            reused: 0,
            retired: OpCounts::default(),
            retired_peak: 0,
        };
        state.root_base();
        state.enter_base();
        Ok(state)
    }

    /// Make `nl` the new base: derive its functions from the old base's,
    /// drop the memo entries the move invalidates, collect garbage with
    /// the new base's functions as the only roots, and make the base the
    /// current view. Returns the manager's live node count after the
    /// collection — the size of the shared BDD of every net's function.
    ///
    /// On exhaustion the previous base and view stay in force.
    pub fn rebase(
        &mut self,
        nl: &Netlist,
        budget: &ResourceBudget,
    ) -> Result<usize, BudgetExceeded> {
        if self.force_full {
            let built = try_circuit_bdds(nl, budget)?;
            self.replace_manager(built.mgr);
            self.base_funcs = built.funcs;
            self.memo = vec![None; nl.len()];
        } else {
            let order = nl.topo_order().expect("acyclic");
            let (funcs, stale) = self.derive(nl, &order, budget)?;
            for (entry, _) in self.memo.iter_mut().zip(&stale).filter(|(_, &s)| s) {
                *entry = None;
            }
            self.memo.resize(nl.len(), None);
            self.base_funcs = funcs;
        }
        self.base = nl.clone();
        self.root_base();
        self.mgr.gc();
        self.enter_base();
        Ok(self.mgr.node_count())
    }

    /// Make `nl` (the base plus speculative edits) the current view:
    /// derive its functions and mark the memo entries it cannot use.
    /// Functions of an earlier view are released. On exhaustion no view
    /// is left in force ([`ResidentBdds::funcs`] is empty) until the next
    /// successful view or rebase.
    pub fn view(&mut self, nl: &Netlist, budget: &ResourceBudget) -> Result<(), BudgetExceeded> {
        self.mgr.release_roots_to(self.base_roots);
        // Until this view is complete there is none: an exhausted view
        // leaves the state empty-handed, to be rebased before next use.
        self.view_funcs.clear();
        let order = nl.topo_order().expect("acyclic");
        if self.force_full {
            let built = try_circuit_bdds(nl, budget)?;
            self.replace_manager(built.mgr);
            self.view_funcs = built.funcs;
            self.stale = vec![true; self.base.len()];
        } else {
            let (funcs, stale) = self.derive(nl, &order, budget)?;
            self.view_funcs = funcs;
            self.stale = stale;
        }
        self.order = order;
        self.live = nl.live_nets();
        self.view_nl = Some(nl.clone());
        Ok(())
    }

    /// The netlist of the current view.
    pub fn netlist(&self) -> &Netlist {
        self.view_nl.as_ref().unwrap_or(&self.base)
    }

    /// Global function of every net of the current view.
    pub fn funcs(&self) -> &[Ref] {
        &self.view_funcs
    }

    /// The manager the functions live in.
    pub fn manager(&self) -> &Bdd {
        &self.mgr
    }

    /// The don't-care analysis of `node` in the current view (the answer
    /// [`crate::dontcare::find_rewrite`] gives on a fresh build), from the
    /// memo when the view leaves it valid. Fresh analyses run in the
    /// resident manager, metered against `budget`: their garbage waits for
    /// the next rebase, and their ITE results stay cached for the next
    /// analysis until then. An analysis runs with collection off (it holds
    /// unrooted refs); if it exhausts the node budget, the garbage of the
    /// round's earlier analyses is collected and it runs once more.
    pub fn analyse(
        &mut self,
        node: NetId,
        budget: &ResourceBudget,
    ) -> Result<Option<Rewrite>, BudgetExceeded> {
        let i = node.index();
        let memoizable = !self.force_full && i < self.base.len() && !self.stale[i];
        if memoizable {
            if let Some(known) = &self.memo[i] {
                self.reused += 1;
                return Ok(known.clone());
            }
        }
        let result = match self.analyse_uncollected(node, budget) {
            // Everything still needed is rooted: the base and the view.
            Err(e) if e.resource == Resource::BddNodes => {
                self.mgr.gc();
                self.analyse_uncollected(node, budget)
            }
            other => other,
        }?;
        self.analysed += 1;
        if memoizable {
            self.memo[i] = Some(result.clone());
        }
        Ok(result)
    }

    fn analyse_uncollected(
        &mut self,
        node: NetId,
        budget: &ResourceBudget,
    ) -> Result<Option<Rewrite>, BudgetExceeded> {
        let inputs = OdcInputs {
            nl: self.view_nl.as_ref().unwrap_or(&self.base),
            order: &self.order,
            live: &self.live,
            funcs: &self.view_funcs,
            input_vars: &self.input_vars,
            nvars: self.nvars,
        };
        self.mgr.set_auto_gc(false);
        let result = try_analyse(&mut self.mgr, &inputs, node, &self.input_probs, budget);
        self.mgr.set_auto_gc(true);
        result
    }

    /// Memoized analyses the current view can use, by node.
    pub fn memoized(&self) -> impl Iterator<Item = (NetId, &Option<Rewrite>)> + '_ {
        self.memo
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.stale[i])
            .filter_map(|(i, m)| m.as_ref().map(|r| (NetId::from_index(i), r)))
    }

    /// Publish the kernel work of every manager this state used (the
    /// `bdd.*` counters and `bdd.peak_nodes`) and the analysis counters
    /// `rewrite.dc.analysed` / `rewrite.dc.reused`.
    pub fn publish(&self, obs: &obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        publish_op_counts(
            obs,
            self.retired + self.mgr.op_counts(),
            self.retired_peak.max(self.mgr.peak_live_nodes()),
        );
        obs.add("rewrite.dc.analysed", self.analysed);
        obs.add("rewrite.dc.reused", self.reused);
    }

    fn replace_manager(&mut self, mgr: Bdd) {
        let old = std::mem::replace(&mut self.mgr, mgr);
        self.retired = self.retired + old.op_counts();
        self.retired_peak = self.retired_peak.max(old.peak_live_nodes());
    }

    /// Root exactly the base functions.
    fn root_base(&mut self) {
        self.mgr.clear_roots();
        for &f in &self.base_funcs {
            self.mgr.protect(f);
        }
        self.base_roots = self.mgr.root_mark();
    }

    fn enter_base(&mut self) {
        self.view_nl = None;
        self.view_funcs = self.base_funcs.clone();
        self.stale = vec![false; self.base.len()];
        self.order = self.base.topo_order().expect("acyclic");
        self.live = self.base.live_nets();
    }

    /// Functions of `nl` derived from the base's over the edit's cone,
    /// and the memo invalidation set `S` of the move (module docs).
    /// Re-derived functions stay rooted until the next view or rebase.
    fn derive(
        &mut self,
        nl: &Netlist,
        order: &[NetId],
        budget: &ResourceBudget,
    ) -> Result<(Vec<Ref>, Vec<bool>), BudgetExceeded> {
        let base = &self.base;
        let (n0, n) = (base.len(), nl.len());
        assert!(n >= n0, "edits only append nets");
        assert_eq!(
            nl.outputs().len(),
            base.outputs().len(),
            "edits keep the outputs"
        );
        // T: rewired or re-typed base nets, every added net, and both
        // ends of each retargeted output.
        let mut touched: Vec<bool> = (0..n)
            .map(|i| {
                let net = NetId::from_index(i);
                i >= n0 || nl.kind(net) != base.kind(net) || nl.fanins(net) != base.fanins(net)
            })
            .collect();
        for ((was, _), (now, _)) in base.outputs().iter().zip(nl.outputs()) {
            if was != now {
                touched[was.index()] = true;
                touched[now.index()] = true;
            }
        }

        let mut funcs = self.base_funcs.clone();
        funcs.resize(n, Ref::FALSE);
        let mut changed = vec![false; n];
        let mut ins = Vec::new();
        let roots = self.mgr.root_mark();
        for &net in order {
            let i = net.index();
            let kind = nl.kind(net);
            if kind == GateKind::Input
                || !(touched[i] || nl.fanins(net).iter().any(|f| changed[f.index()]))
            {
                continue;
            }
            ins.clear();
            ins.extend(nl.fanins(net).iter().map(|f| funcs[f.index()]));
            let f = match try_gate_func(&mut self.mgr, kind, &ins, budget) {
                Ok(f) => f,
                Err(e) => {
                    self.mgr.release_roots_to(roots);
                    return Err(e);
                }
            };
            self.mgr.protect(f);
            changed[i] = i >= n0 || f != funcs[i];
            funcs[i] = f;
        }

        // S = TFI(T ∪ fanouts(F)) over the edges of both netlists.
        let in_f = |x: &NetId| x.index() < n0 && changed[x.index()];
        let mut stack: Vec<NetId> = (0..n)
            .map(NetId::from_index)
            .filter(|&x| {
                touched[x.index()]
                    || nl.fanins(x).iter().any(in_f)
                    || (x.index() < n0 && base.fanins(x).iter().any(in_f))
            })
            .collect();
        let mut seen = vec![false; n];
        let mut stale = vec![false; n0];
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            stack.extend_from_slice(nl.fanins(x));
            if x.index() < n0 {
                stale[x.index()] = true;
                stack.extend_from_slice(base.fanins(x));
            }
        }
        Ok((funcs, stale))
    }
}
