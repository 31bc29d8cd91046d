//! Glitch-aware switching-activity propagation under the unit-delay model.
//!
//! This is the estimation technique of the paper's Section 4, derived from
//! the GlitchMap technology mapper \[6\]: every logic node (LUT) has unit
//! delay, so signal transitions happen only at discrete times
//! `1, 2, ..., D(C)` where `D` is the depth. A fanin transition at time
//! `τ` can switch the output at `τ + 1`; the transition arriving at the
//! node's own depth is the *functional* transition, all earlier ones are
//! *glitches*. Each node therefore carries a switching **profile** — an
//! activity value per discrete time step — and the node's effective
//! switching activity is the sum over its profile. Summing over all nodes
//! yields the netlist estimate `SA = Σ sa_i` (paper Eq. 3).

use crate::signal::{
    pair_switch_probability_in, signal_probability, PairDist, SignalStats, SwitchScratch,
};
use netlist::{Netlist, NodeId, NodeKind, TruthTable, MAX_INPUTS};
use std::collections::HashMap;

/// A signal with its per-time-step switching profile.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedSignal {
    /// Static signal probability.
    pub prob: f64,
    /// `(time, activity)` pairs, sorted by time, activities all positive.
    /// Sources switch at time 0; a node at depth `d` switches at times
    /// `1..=d`.
    pub profile: Vec<(u32, f64)>,
}

impl TimedSignal {
    /// A primary-input-like source switching at time 0.
    pub fn source(stats: SignalStats) -> Self {
        let stats = SignalStats::new(stats.prob, stats.activity);
        let profile = if stats.activity > 0.0 {
            vec![(0, stats.activity)]
        } else {
            Vec::new()
        };
        TimedSignal {
            prob: stats.prob,
            profile,
        }
    }

    /// A constant signal (never switches).
    pub fn constant(value: bool) -> Self {
        TimedSignal {
            prob: if value { 1.0 } else { 0.0 },
            profile: Vec::new(),
        }
    }

    /// Latest switching time (the signal's stable arrival); 0 when the
    /// signal never switches.
    pub fn arrival(&self) -> u32 {
        self.profile.last().map(|&(t, _)| t).unwrap_or(0)
    }

    /// Activity at one specific time step.
    pub fn activity_at(&self, t: u32) -> f64 {
        self.profile
            .binary_search_by_key(&t, |&(time, _)| time)
            .map(|i| self.profile[i].1)
            .unwrap_or(0.0)
    }

    /// Effective switching activity: the sum over the whole profile.
    pub fn total_activity(&self) -> f64 {
        self.profile.iter().map(|&(_, a)| a).sum()
    }

    /// Activity of the functional transition (the last time step).
    pub fn functional_activity(&self) -> f64 {
        self.profile.last().map(|&(_, a)| a).unwrap_or(0.0)
    }

    /// Glitch activity: everything before the functional transition.
    pub fn glitch_activity(&self) -> f64 {
        self.total_activity() - self.functional_activity()
    }
}

/// Propagates timed switching activity through one node.
///
/// For each candidate output time `t` (one past each fanin transition
/// time), fanins that switch at `t - 1` get their Chou–Roy pair
/// distribution; all other fanins are frozen at their static probability.
/// The output activity at `t` is the probability that the node's value
/// differs across that boundary.
///
/// # Panics
///
/// Panics if `fanins.len()` differs from the table's input count.
pub fn propagate(table: &TruthTable, fanins: &[&TimedSignal]) -> TimedSignal {
    let n = table.num_inputs();
    assert_eq!(fanins.len(), n);
    let mut probs = [0.0; MAX_INPUTS];
    for (p, f) in probs.iter_mut().zip(fanins) {
        *p = f.prob;
    }
    let prob = signal_probability(table, &probs[..n]);
    let mut times: Vec<u32> = fanins
        .iter()
        .flat_map(|f| f.profile.iter().map(|&(t, _)| t + 1))
        .collect();
    times.sort_unstable();
    times.dedup();
    let mut dists = [PairDist::frozen(0.0); MAX_INPUTS];
    let mut scratch = SwitchScratch::default();
    let mut profile = Vec::with_capacity(times.len());
    for t in times {
        for (d, f) in dists.iter_mut().zip(fanins) {
            let a = f.activity_at(t - 1);
            *d = if a > 0.0 {
                PairDist::from_stats(SignalStats::new(f.prob, a))
            } else {
                PairDist::frozen(f.prob)
            };
        }
        let s = pair_switch_probability_in(table, &dists[..n], &mut scratch);
        if s > 0.0 {
            profile.push((t, s));
        }
    }
    TimedSignal { prob, profile }
}

/// Source statistics for a netlist analysis.
#[derive(Clone, Debug, Default)]
pub struct ActivityConfig {
    /// Statistics for sources (primary inputs and latch outputs) without an
    /// explicit override. Defaults to the paper's `P = s = 0.5`.
    pub default_source: SignalStats,
    /// Per-node overrides (keyed by source node id).
    pub overrides: HashMap<NodeId, SignalStats>,
}

impl ActivityConfig {
    /// Configuration with every source at `P = s = 0.5`.
    pub fn uniform() -> Self {
        ActivityConfig::default()
    }

    /// Sets one source's statistics.
    pub fn with_override(mut self, node: NodeId, stats: SignalStats) -> Self {
        self.overrides.insert(node, stats);
        self
    }

    fn stats_for(&self, node: NodeId) -> SignalStats {
        self.overrides
            .get(&node)
            .copied()
            .unwrap_or(self.default_source)
    }
}

/// Result of a glitch-aware netlist analysis.
#[derive(Clone, Debug)]
pub struct SaReport {
    /// Per-node timed signals (indexed by `NodeId`).
    pub signals: Vec<TimedSignal>,
    /// Total estimated switching activity over all logic nodes (Eq. 3).
    pub total_sa: f64,
    /// Functional component of `total_sa`.
    pub functional_sa: f64,
    /// Glitch component of `total_sa`.
    pub glitch_sa: f64,
}

impl SaReport {
    /// Estimated glitch fraction of the total switching activity.
    pub fn glitch_fraction(&self) -> f64 {
        if self.total_sa > 0.0 {
            self.glitch_sa / self.total_sa
        } else {
            0.0
        }
    }
}

/// Runs the glitch-aware estimator over a whole netlist (paper Section 4).
///
/// Latch outputs are treated as sources with the configured statistics —
/// register outputs change at most once per cycle, at time 0, exactly like
/// primary inputs under the unit-delay model.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle (validate with
/// [`Netlist::check`] first).
pub fn analyze(nl: &Netlist, config: &ActivityConfig) -> SaReport {
    analyze_with_known(nl, config, Vec::new())
}

/// [`analyze`], taking the timed signals of some logic nodes as known:
/// where `known[id]` holds a signal, it is used as node `id`'s signal
/// instead of propagating one. Entries beyond `known`'s length, and
/// entries of non-logic nodes, are ignored.
///
/// The report equals [`analyze`]'s bit for bit when every known signal
/// is the one [`propagate`] would compute for its node, from the same
/// table and from fanin signals equal to the ones this analysis gives
/// them. The technology mapper passes the signals its cut selection
/// computed that way.
pub fn analyze_with_known(
    nl: &Netlist,
    config: &ActivityConfig,
    mut known: Vec<Option<TimedSignal>>,
) -> SaReport {
    let mut signals: Vec<TimedSignal> = vec![TimedSignal::constant(false); nl.num_nodes()];
    let mut total = 0.0;
    let mut functional = 0.0;
    for id in nl.topo_order() {
        let sig = match &nl.node(id).kind {
            NodeKind::Input | NodeKind::Latch { .. } => TimedSignal::source(config.stats_for(id)),
            NodeKind::Constant(v) => TimedSignal::constant(*v),
            NodeKind::Logic { fanins, table } => {
                let sig = match known.get_mut(id.index()).and_then(Option::take) {
                    Some(sig) => sig,
                    None => {
                        let refs: Vec<&TimedSignal> =
                            fanins.iter().map(|f| &signals[f.index()]).collect();
                        propagate(table, &refs)
                    }
                };
                total += sig.total_activity();
                functional += sig.functional_activity();
                sig
            }
        };
        signals[id.index()] = sig;
    }
    SaReport {
        signals,
        total_sa: total,
        functional_sa: functional,
        glitch_sa: total - functional,
    }
}

/// Zero-delay estimator selector for [`analyze_zero_delay`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroDelayModel {
    /// Najm's transition density (paper Eq. 1) — no simultaneous-switching
    /// correction, no glitches.
    Najm,
    /// Chou–Roy normalized switching activity (paper Eq. 2) — corrects for
    /// simultaneous switching but still assumes a zero-delay circuit.
    ChouRoy,
}

/// Result of a zero-delay analysis.
#[derive(Clone, Debug)]
pub struct ZeroDelayReport {
    /// Per-node statistics (indexed by `NodeId`).
    pub stats: Vec<SignalStats>,
    /// Total switching activity over logic nodes.
    pub total_sa: f64,
}

/// Runs a zero-delay (glitch-blind) estimator over a netlist. Used as the
/// ablation baseline for the glitch-aware model.
pub fn analyze_zero_delay(
    nl: &Netlist,
    config: &ActivityConfig,
    model: ZeroDelayModel,
) -> ZeroDelayReport {
    let mut stats: Vec<SignalStats> = vec![SignalStats::constant(false); nl.num_nodes()];
    let mut total = 0.0;
    for id in nl.topo_order() {
        let s = match &nl.node(id).kind {
            NodeKind::Input | NodeKind::Latch { .. } => config.stats_for(id),
            NodeKind::Constant(v) => SignalStats::constant(*v),
            NodeKind::Logic { fanins, table } => {
                let fstats: Vec<SignalStats> = fanins.iter().map(|f| stats[f.index()]).collect();
                let probs: Vec<f64> = fstats.iter().map(|s| s.prob).collect();
                let prob = signal_probability(table, &probs);
                let act = match model {
                    ZeroDelayModel::Najm => crate::signal::najm_density(table, &fstats),
                    ZeroDelayModel::ChouRoy => crate::signal::chou_roy_activity(table, &fstats),
                };
                total += act;
                SignalStats::new(prob, act)
            }
        };
        stats[id.index()] = s;
    }
    ZeroDelayReport {
        stats,
        total_sa: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::TruthTable;

    const EPS: f64 = 1e-12;

    fn pi() -> TimedSignal {
        TimedSignal::source(SignalStats::PRIMARY_INPUT)
    }

    #[test]
    fn source_profile() {
        let s = pi();
        assert_eq!(s.arrival(), 0);
        assert!((s.total_activity() - 0.5).abs() < EPS);
        assert_eq!(s.glitch_activity(), 0.0);
    }

    #[test]
    fn single_level_has_no_glitches() {
        // All fanins arrive at 0 -> output switches only at time 1.
        let a = pi();
        let b = pi();
        let out = propagate(&TruthTable::and(2), &[&a, &b]);
        assert_eq!(out.profile.len(), 1);
        assert_eq!(out.arrival(), 1);
        assert!((out.total_activity() - 0.375).abs() < EPS);
        assert_eq!(out.glitch_activity(), 0.0);
    }

    #[test]
    fn skewed_arrivals_create_glitches() {
        // h = AND(g, c) where g = AND(a, b) arrives at 1 and c at 0:
        // h can switch at times 1 (c) and 2 (g) -> glitch at time 1.
        let a = pi();
        let b = pi();
        let c = pi();
        let g = propagate(&TruthTable::and(2), &[&a, &b]);
        let h = propagate(&TruthTable::and(2), &[&g, &c]);
        assert_eq!(h.profile.len(), 2);
        assert_eq!(h.arrival(), 2);
        assert!(h.glitch_activity() > 0.0);
        // Against the balanced single-LUT AND3, total activity is larger.
        let flat = propagate(&TruthTable::and(3), &[&a, &b, &c]);
        assert_eq!(flat.glitch_activity(), 0.0);
        assert!(h.total_activity() > flat.total_activity());
    }

    #[test]
    fn xor_chain_glitches_more_than_tree() {
        let inputs: Vec<TimedSignal> = (0..4).map(|_| pi()).collect();
        // chain: ((a^b)^c)^d
        let x1 = propagate(&TruthTable::xor(2), &[&inputs[0], &inputs[1]]);
        let x2 = propagate(&TruthTable::xor(2), &[&x1, &inputs[2]]);
        let x3 = propagate(&TruthTable::xor(2), &[&x2, &inputs[3]]);
        let chain_sa = x1.total_activity() + x2.total_activity() + x3.total_activity();
        // tree: (a^b)^(c^d)
        let t1 = propagate(&TruthTable::xor(2), &[&inputs[0], &inputs[1]]);
        let t2 = propagate(&TruthTable::xor(2), &[&inputs[2], &inputs[3]]);
        let t3 = propagate(&TruthTable::xor(2), &[&t1, &t2]);
        let tree_sa = t1.total_activity() + t2.total_activity() + t3.total_activity();
        assert!(
            chain_sa > tree_sa,
            "chain {chain_sa} should glitch more than tree {tree_sa}"
        );
        assert!(x3.glitch_activity() > 0.0);
        assert_eq!(
            t3.glitch_activity(),
            0.0,
            "balanced tree has equal arrivals"
        );
    }

    #[test]
    fn netlist_analysis_matches_manual_propagation() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
        let h = nl.add_logic("h", vec![g, c], TruthTable::and(2));
        nl.mark_output("o", h);
        let report = analyze(&nl, &ActivityConfig::uniform());
        let sa_g = report.signals[g.index()].total_activity();
        let sa_h = report.signals[h.index()].total_activity();
        assert!((report.total_sa - (sa_g + sa_h)).abs() < EPS);
        assert!(report.glitch_sa > 0.0);
        assert!(report.glitch_fraction() > 0.0 && report.glitch_fraction() < 1.0);
    }

    #[test]
    fn constants_are_silent() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let k = nl.add_constant("k", true);
        let g = nl.add_logic("g", vec![a, k], TruthTable::and(2));
        nl.mark_output("o", g);
        let report = analyze(&nl, &ActivityConfig::uniform());
        // g == a: switches exactly like its input.
        assert!((report.signals[g.index()].total_activity() - 0.5).abs() < EPS);
        assert!((report.signals[g.index()].prob - 0.5).abs() < EPS);
    }

    #[test]
    fn latch_outputs_are_sources() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_latch("q", false);
        let g = nl.add_logic("g", vec![a, q], TruthTable::xor(2));
        nl.set_latch_data(q, g);
        nl.mark_output("o", g);
        let report = analyze(&nl, &ActivityConfig::uniform());
        assert_eq!(report.signals[q.index()].arrival(), 0);
        assert!((report.signals[g.index()].total_activity() - 0.5).abs() < EPS);
    }

    #[test]
    fn overrides_apply() {
        let mut nl = Netlist::new("ov");
        let a = nl.add_input("a");
        let g = nl.add_logic("g", vec![a], TruthTable::buffer());
        nl.mark_output("o", g);
        let cfg = ActivityConfig::uniform().with_override(a, SignalStats::new(0.5, 0.1));
        let report = analyze(&nl, &cfg);
        assert!((report.signals[g.index()].total_activity() - 0.1).abs() < EPS);
    }

    #[test]
    fn zero_delay_models_differ_on_xor() {
        let mut nl = Netlist::new("zd");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_logic("g", vec![a, b], TruthTable::xor(2));
        nl.mark_output("o", g);
        let najm = analyze_zero_delay(&nl, &ActivityConfig::uniform(), ZeroDelayModel::Najm);
        let cr = analyze_zero_delay(&nl, &ActivityConfig::uniform(), ZeroDelayModel::ChouRoy);
        assert!((najm.total_sa - 1.0).abs() < EPS);
        assert!((cr.total_sa - 0.5).abs() < EPS);
    }

    #[test]
    fn glitch_aware_upper_bounds_zero_delay_on_trees() {
        // On a single-output two-level balanced structure the glitch-aware
        // total should be >= the Chou-Roy zero-delay total (glitches only
        // ever add activity).
        let mut nl = Netlist::new("cmp");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let g1 = nl.add_logic("g1", vec![ins[0], ins[1]], TruthTable::and(2));
        let g2 = nl.add_logic("g2", vec![ins[2], ins[3]], TruthTable::or(2));
        let g3 = nl.add_logic("g3", vec![g1, g2], TruthTable::xor(2));
        nl.mark_output("o", g3);
        let timed = analyze(&nl, &ActivityConfig::uniform());
        let zd = analyze_zero_delay(&nl, &ActivityConfig::uniform(), ZeroDelayModel::ChouRoy);
        assert!(timed.total_sa >= zd.total_sa - EPS);
    }
}
