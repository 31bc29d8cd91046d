//! Cut-based LUT technology mapping.
//!
//! Three objectives are provided:
//!
//! * [`MapObjective::Depth`] — minimum logic depth (performance), the
//!   conventional baseline;
//! * [`MapObjective::AreaFlow`] — area-flow heuristic (LUT count);
//! * [`MapObjective::GlitchSa`] — a GlitchMap-style greedy on *SA flow*:
//!   each node picks the K-feasible cut whose LUT's timed switching
//!   activity (glitches included, by the paper's Section 4 estimator)
//!   plus the SA flow its leaves share with it is lowest, ranking SA
//!   before depth and area flow.
//!
//! The per-node greedy does not minimise the mapped netlist's SA. On the
//! 14 suite datapaths at the paper configuration (LOPASS and
//! HLPower(0.5), K = 4), `GlitchSa` gives 62,495 LUTs and an Eq. 3
//! estimate of 112,919, while `Depth` gives 60,612 LUTs and 108,146
//! (ROADMAP item 12). The paper's estimator comes from Section 4; its
//! backend was Quartus II.
//!
//! Cut selection evaluates each candidate cut's function (bit-parallel,
//! [`crate::cut_function`]) and timed signal once, and skips a candidate
//! whose key cannot beat the best one even at zero SA of its own. The
//! cover reuses the winners' functions, and its Eq. 3 estimate reuses
//! their signals wherever the analysis would compute the same ones. So
//! every netlist and every estimate bit is what evaluating every
//! candidate afresh would give.
//!
//! The mapper substitutes for Quartus II RTL synthesis in the
//! reproduction: it turns elaborated datapath netlists into 4-LUT networks
//! whose LUT count, depth, and per-LUT structure drive the area, clock
//! period, and power measurements.

use crate::cut::{enumerate_cuts, ConeEval, Cut, CutConfig, CutSets};
use activity::{propagate, ActivityConfig, SignalStats, TimedSignal};
use netlist::{Netlist, NodeId, NodeKind, TruthTable};
use std::collections::HashMap;

/// Mapping objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapObjective {
    /// Minimize logic depth; tie-break on area flow.
    Depth,
    /// Minimize area flow; tie-break on depth.
    AreaFlow,
    /// Minimize glitch-aware switching-activity flow; tie-break on depth.
    GlitchSa,
}

/// Mapper parameters.
#[derive(Clone, Debug)]
pub struct MapConfig {
    /// Cut enumeration parameters (LUT size `K`, cuts per node).
    pub cuts: CutConfig,
    /// Objective driving cut selection.
    pub objective: MapObjective,
    /// Source statistics used by the [`MapObjective::GlitchSa`] cost and by
    /// the final SA estimate.
    pub source_stats: SignalStats,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            cuts: CutConfig::default(),
            objective: MapObjective::GlitchSa,
            source_stats: SignalStats::PRIMARY_INPUT,
        }
    }
}

impl MapConfig {
    /// Convenience constructor for a given LUT size and objective.
    pub fn new(k: usize, objective: MapObjective) -> Self {
        MapConfig {
            cuts: CutConfig {
                k,
                ..CutConfig::default()
            },
            objective,
            source_stats: SignalStats::PRIMARY_INPUT,
        }
    }
}

/// Result of technology mapping.
#[derive(Clone, Debug)]
pub struct MappedNetlist {
    /// The K-LUT network (logic nodes are LUTs; inputs/latches preserved).
    pub netlist: Netlist,
    /// Summary metrics.
    pub stats: MapStats,
}

/// Metrics of a mapped netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapStats {
    /// Number of LUTs.
    pub luts: usize,
    /// Critical depth in LUT levels.
    pub depth: u32,
    /// Glitch-aware estimated switching activity of the mapped network
    /// (paper Eq. 3), recomputed exactly on the final cover.
    pub estimated_sa: f64,
    /// Glitch component of `estimated_sa`.
    pub estimated_glitch_sa: f64,
    /// Latch bits carried through.
    pub registers: usize,
}

/// Maps a gate-level netlist onto K-input LUTs.
///
/// # Panics
///
/// Panics if the netlist fails [`Netlist::check`].
pub fn map(nl: &Netlist, cfg: &MapConfig) -> MappedNetlist {
    nl.check().expect("mapper input must be a valid netlist");
    let cuts = enumerate_cuts(nl, &cfg.cuts);
    let order = nl.topo_order();
    let choice = choose_cuts(nl, &order, &cuts, cfg);
    build_cover(nl, &order, &cuts, choice, cfg)
}

/// What cut selection chose, indexed by `NodeId`.
struct Choice {
    /// Best cut index (into `cuts.cuts(n)`) per logic node.
    best: Vec<usize>,
    /// The best cut's function, per logic node.
    tables: Vec<Option<TruthTable>>,
    /// Each node's timed signal under the chosen cuts: a logic node's is
    /// its best cut's LUT propagated from the leaves' signals.
    signals: Vec<TimedSignal>,
}

/// The best candidate cut of a node so far, fully evaluated.
struct Winner {
    index: usize,
    key: (f64, f64, f64),
    table: TruthTable,
    signal: TimedSignal,
    sa_flow: f64,
}

fn choose_cuts(nl: &Netlist, order: &[NodeId], cuts: &CutSets, cfg: &MapConfig) -> Choice {
    let n = nl.num_nodes();
    let mut best = vec![0usize; n];
    let mut tables: Vec<Option<TruthTable>> = vec![None; n];
    let mut depth = vec![0u32; n];
    let mut area_flow = vec![0.0f64; n];
    let mut sa_flow = vec![0.0f64; n];
    let mut signals: Vec<TimedSignal> = vec![TimedSignal::constant(false); n];
    let fanout_counts: Vec<f64> = nl
        .fanouts()
        .iter()
        .map(|f| (f.len() as f64).max(1.0))
        .collect();
    let mut cone = ConeEval::default();

    for &id in order {
        match &nl.node(id).kind {
            NodeKind::Input | NodeKind::Latch { .. } => {
                signals[id.index()] = TimedSignal::source(cfg.source_stats);
            }
            NodeKind::Constant(v) => {
                signals[id.index()] = TimedSignal::constant(*v);
            }
            NodeKind::Logic { .. } => {
                let implementable = cuts.implementable(id);
                let offset = cuts.cuts(id).len() - implementable.len();
                let mut winner: Option<Winner> = None;
                for (ci, cut) in implementable.iter().enumerate() {
                    let d = cut_depth(cut, &depth) as f64;
                    let af = cut_area_flow(cut, &area_flow, &fanout_counts);
                    let leaf_flow = cut_leaf_sa_flow(cut, &sa_flow, &fanout_counts);
                    let key = |saf: f64| match cfg.objective {
                        MapObjective::Depth => (d, af, saf),
                        MapObjective::AreaFlow => (af, d, saf),
                        MapObjective::GlitchSa => (saf, d, af),
                    };
                    // Skip a candidate that cannot win. Its SA flow is
                    // `own + leaf_flow`, where its own SA `own` is a sum
                    // of probabilities, so `own ≥ 0`; IEEE addition of a
                    // non-negative number never rounds below
                    // `leaf_flow`. So the candidate's key is
                    // componentwise at least this lower-bound key, and a
                    // candidate wins only with a key strictly below the
                    // best one: if the lower bound already compares
                    // greater, so does the key. Ties are evaluated.
                    // Under `Depth` and `AreaFlow` this skips the SA of
                    // every candidate already beaten on depth or area.
                    if let Some(w) = &winner {
                        if key(leaf_flow) > w.key {
                            continue;
                        }
                    }
                    let table = cone.function(nl, id, cut);
                    let leaf_sigs: Vec<&TimedSignal> =
                        cut.leaves().iter().map(|l| &signals[l.index()]).collect();
                    let signal = propagate(&table, &leaf_sigs);
                    let saf = signal.total_activity() + leaf_flow;
                    // The first candidate leads; a later one takes the
                    // lead only with a strictly smaller key, so among
                    // equal keys the earliest wins.
                    let k = key(saf);
                    if winner.as_ref().is_none_or(|w| k < w.key) {
                        winner = Some(Winner {
                            index: ci,
                            key: k,
                            table,
                            signal,
                            sa_flow: saf,
                        });
                    }
                }
                let w = winner.expect("every logic node has an implementable cut");
                let cut = &implementable[w.index];
                best[id.index()] = offset + w.index;
                depth[id.index()] = cut_depth(cut, &depth);
                area_flow[id.index()] = cut_area_flow(cut, &area_flow, &fanout_counts);
                sa_flow[id.index()] = w.sa_flow;
                tables[id.index()] = Some(w.table);
                signals[id.index()] = w.signal;
            }
        }
    }
    Choice {
        best,
        tables,
        signals,
    }
}

fn cut_depth(cut: &Cut, depth: &[u32]) -> u32 {
    1 + cut
        .leaves()
        .iter()
        .map(|l| depth[l.index()])
        .max()
        .unwrap_or(0)
}

fn cut_area_flow(cut: &Cut, area_flow: &[f64], fanouts: &[f64]) -> f64 {
    1.0 + cut
        .leaves()
        .iter()
        .map(|l| area_flow[l.index()] / fanouts[l.index()])
        .sum::<f64>()
}

/// The SA flow a cut's leaves share with it. A cut's SA-flow cost is
/// its LUT's own effective SA plus this sum.
fn cut_leaf_sa_flow(cut: &Cut, sa_flow: &[f64], fanouts: &[f64]) -> f64 {
    cut.leaves()
        .iter()
        .map(|l| sa_flow[l.index()] / fanouts[l.index()])
        .sum::<f64>()
}

fn build_cover(
    nl: &Netlist,
    order: &[NodeId],
    cuts: &CutSets,
    mut choice: Choice,
    cfg: &MapConfig,
) -> MappedNetlist {
    // Roots: primary outputs and latch data drivers.
    let mut required = vec![false; nl.num_nodes()];
    let mut stack: Vec<NodeId> = Vec::new();
    let mark = |id: NodeId, stack: &mut Vec<NodeId>, required: &mut Vec<bool>| {
        if matches!(nl.node(id).kind, NodeKind::Logic { .. }) && !required[id.index()] {
            required[id.index()] = true;
            stack.push(id);
        }
    };
    for (_, id) in nl.outputs() {
        mark(*id, &mut stack, &mut required);
    }
    for &l in nl.latches() {
        if let NodeKind::Latch { data, .. } = &nl.node(l).kind {
            mark(*data, &mut stack, &mut required);
        }
    }
    while let Some(id) = stack.pop() {
        let cut = &cuts.cuts(id)[choice.best[id.index()]];
        for &leaf in cut.leaves() {
            mark(leaf, &mut stack, &mut required);
        }
    }

    // Build the LUT netlist. `known[o]` is the cut-selection signal of
    // the mapped node `o`, kept where the Eq. 3 analysis below would
    // compute exactly that signal, so it need not propagate it again.
    // A LUT's cut-selection signal is `propagate` of its kept table from
    // its leaves' cut-selection signals, and sources get
    // `TimedSignal::source(cfg.source_stats)` there as in the analysis.
    // So a LUT whose fanins are all sources or LUTs with kept signals
    // would be propagated from the same table and the same signals. A
    // cone folded to a constant becomes a constant node here, whose
    // signal is not the one cut selection propagated for it (a constant
    // table's probability is a sum over rows, not exactly 0 or 1), so
    // every LUT downstream of one is propagated afresh.
    let mut out = Netlist::new(format!("{}_mapped", nl.name()));
    let mut remap: Vec<Option<NodeId>> = vec![None; nl.num_nodes()];
    for &i in nl.inputs() {
        remap[i.index()] = Some(out.add_input(nl.node(i).name.clone()));
    }
    for &l in nl.latches() {
        if let NodeKind::Latch { init, .. } = &nl.node(l).kind {
            remap[l.index()] = Some(out.add_latch(nl.node(l).name.clone(), *init));
        }
    }
    let mut known: Vec<Option<TimedSignal>> = Vec::new();
    known.resize_with(out.num_nodes(), || None);
    let mut luts = 0usize;
    for &id in order {
        if !required[id.index()] {
            continue;
        }
        let cut = &cuts.cuts(id)[choice.best[id.index()]];
        let table = choice.tables[id.index()]
            .take()
            .expect("cut selection keeps each logic node's table");
        let fanins: Vec<NodeId> = cut
            .leaves()
            .iter()
            .map(|leaf| remap[leaf.index()].expect("leaves are mapped before their readers"))
            .collect();
        // Constant cones (including empty cuts) become constant nodes.
        let (new_id, signal) = if let Some(v) = table.as_constant() {
            (out.add_constant(nl.node(id).name.clone(), v), None)
        } else {
            luts += 1;
            let reusable = fanins.iter().all(|f| match &out.node(*f).kind {
                NodeKind::Input | NodeKind::Latch { .. } => true,
                NodeKind::Logic { .. } => known[f.index()].is_some(),
                NodeKind::Constant(_) => false,
            });
            let signal = std::mem::replace(
                &mut choice.signals[id.index()],
                TimedSignal::constant(false),
            );
            let new_id = out.add_logic(nl.node(id).name.clone(), fanins, table);
            (new_id, reusable.then_some(signal))
        };
        remap[id.index()] = Some(new_id);
        known.push(signal);
    }
    // The signals and tables left are those of nodes the cover does not
    // use; free them before the analysis allocates its own signals.
    drop(choice);
    // Constants that feed latches/outputs directly.
    let mut constant = |out: &mut Netlist, id: NodeId| {
        if let NodeKind::Constant(v) = &nl.node(id).kind {
            remap[id.index()].get_or_insert_with(|| out.add_constant(nl.node(id).name.clone(), *v));
        }
    };
    for (_, id) in nl.outputs() {
        constant(&mut out, *id);
    }
    for &l in nl.latches() {
        if let NodeKind::Latch { data, .. } = &nl.node(l).kind {
            constant(&mut out, *data);
        }
    }
    let mapped = |id: &NodeId| remap[id.index()].expect("every output and latch is mapped");
    for &l in nl.latches() {
        if let NodeKind::Latch { data, .. } = &nl.node(l).kind {
            out.set_latch_data(mapped(&l), mapped(data));
        }
    }
    for (port, id) in nl.outputs() {
        out.mark_output(port.clone(), mapped(id));
    }
    out.check().expect("mapped netlist must be valid");

    let report = activity::analyze_with_known(
        &out,
        &ActivityConfig {
            default_source: cfg.source_stats,
            overrides: HashMap::new(),
        },
        known,
    );
    let stats = MapStats {
        luts,
        depth: out.depth(),
        estimated_sa: report.total_sa,
        estimated_glitch_sa: report.glitch_sa,
        registers: out.num_latches(),
    };
    MappedNetlist {
        netlist: out,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{cells, TruthTable};

    /// Zero-delay evaluation of a combinational netlist.
    fn eval(nl: &Netlist, inputs: &[(NodeId, bool)], out: NodeId) -> bool {
        let mut vals = vec![false; nl.num_nodes()];
        for &(i, v) in inputs {
            vals[i.index()] = v;
        }
        for id in nl.topo_order() {
            match &nl.node(id).kind {
                NodeKind::Constant(c) => vals[id.index()] = *c,
                NodeKind::Logic { fanins, table } => {
                    let mut row = 0u32;
                    for (k, f) in fanins.iter().enumerate() {
                        if vals[f.index()] {
                            row |= 1 << k;
                        }
                    }
                    vals[id.index()] = table.eval(row);
                }
                _ => {}
            }
        }
        vals[out.index()]
    }

    fn adder_netlist(w: usize) -> (Netlist, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let mut nl = Netlist::new("adder");
        let a: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("b{i}"))).collect();
        let (sum, _c) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
        for (i, s) in sum.iter().enumerate() {
            nl.mark_output(format!("s{i}"), *s);
        }
        (nl, a, b, sum)
    }

    #[test]
    fn mapping_preserves_function() {
        let w = 5;
        let (nl, a, b, _) = adder_netlist(w);
        for obj in [
            MapObjective::Depth,
            MapObjective::AreaFlow,
            MapObjective::GlitchSa,
        ] {
            let mapped = map(&nl, &MapConfig::new(4, obj));
            let m = &mapped.netlist;
            for (x, y) in [(0u64, 0u64), (3, 7), (31, 31), (21, 13), (30, 1)] {
                let mut want_binds: Vec<(NodeId, bool)> = Vec::new();
                let mut got_binds: Vec<(NodeId, bool)> = Vec::new();
                for i in 0..w {
                    want_binds.push((a[i], (x >> i) & 1 == 1));
                    want_binds.push((b[i], (y >> i) & 1 == 1));
                    got_binds.push((m.find(&format!("a{i}")).unwrap(), (x >> i) & 1 == 1));
                    got_binds.push((m.find(&format!("b{i}")).unwrap(), (y >> i) & 1 == 1));
                }
                for (port, id) in nl.outputs() {
                    let want = eval(&nl, &want_binds, *id);
                    let mapped_id = m
                        .outputs()
                        .iter()
                        .find(|(p, _)| p == port)
                        .map(|(_, i)| *i)
                        .unwrap();
                    let got = eval(m, &got_binds, mapped_id);
                    assert_eq!(got, want, "{obj:?} {port} x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn mapping_reduces_node_count_and_depth() {
        let (nl, ..) = adder_netlist(8);
        let mapped = map(&nl, &MapConfig::new(4, MapObjective::Depth));
        assert!(mapped.stats.luts < nl.num_logic());
        assert!(mapped.netlist.depth() < nl.depth());
        assert_eq!(mapped.stats.depth, mapped.netlist.depth());
    }

    #[test]
    fn lut_fanin_bound_holds() {
        let (nl, ..) = adder_netlist(8);
        for k in [4usize, 5, 6] {
            let mapped = map(&nl, &MapConfig::new(k, MapObjective::AreaFlow));
            for (_, node) in mapped.netlist.nodes() {
                if let NodeKind::Logic { fanins, .. } = &node.kind {
                    assert!(fanins.len() <= k);
                }
            }
        }
    }

    #[test]
    fn glitch_objective_reduces_estimated_sa() {
        // A multiplier has strongly unbalanced paths; the SA-aware mapping
        // should not be worse than depth-oriented mapping.
        let w = 5;
        let mut nl = Netlist::new("mul");
        let a: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("b{i}"))).collect();
        let p = cells::array_multiplier(&mut nl, "m", &a, &b);
        for (i, s) in p.iter().enumerate() {
            nl.mark_output(format!("p{i}"), *s);
        }
        let sa_aware = map(&nl, &MapConfig::new(4, MapObjective::GlitchSa));
        let depth_first = map(&nl, &MapConfig::new(4, MapObjective::Depth));
        assert!(
            sa_aware.stats.estimated_sa <= depth_first.stats.estimated_sa * 1.02,
            "glitch-aware {} should not exceed depth-oriented {}",
            sa_aware.stats.estimated_sa,
            depth_first.stats.estimated_sa
        );
        assert!(sa_aware.stats.estimated_glitch_sa >= 0.0);
    }

    #[test]
    fn latches_survive_mapping() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_latch("q", true);
        let g = nl.add_logic("g", vec![a, q], TruthTable::xor(2));
        nl.set_latch_data(q, g);
        nl.mark_output("o", q);
        let mapped = map(&nl, &MapConfig::default());
        assert_eq!(mapped.stats.registers, 1);
        mapped.netlist.check().unwrap();
        let q2 = mapped.netlist.find("q").unwrap();
        assert!(matches!(
            mapped.netlist.node(q2).kind,
            NodeKind::Latch { init: true, .. }
        ));
    }

    #[test]
    fn constant_cones_collapse() {
        let mut nl = Netlist::new("const");
        let a = nl.add_input("a");
        let k = nl.add_constant("k", false);
        let g = nl.add_logic("g", vec![a, k], TruthTable::and(2)); // == 0
        nl.mark_output("o", g);
        let mapped = map(&nl, &MapConfig::default());
        assert_eq!(mapped.stats.luts, 0, "a AND 0 folds to constant");
        let (_, o) = &mapped.netlist.outputs()[0];
        assert!(matches!(
            mapped.netlist.node(*o).kind,
            NodeKind::Constant(false)
        ));
    }

    #[test]
    fn output_directly_on_input() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        nl.mark_output("o", a);
        let mapped = map(&nl, &MapConfig::default());
        assert_eq!(mapped.stats.luts, 0);
        assert_eq!(mapped.netlist.outputs().len(), 1);
    }

    #[test]
    fn wide_luts_use_fewer_levels() {
        let (nl, ..) = adder_netlist(10);
        let k4 = map(&nl, &MapConfig::new(4, MapObjective::Depth));
        let k6 = map(&nl, &MapConfig::new(6, MapObjective::Depth));
        assert!(k6.stats.depth <= k4.stats.depth);
        assert!(k6.stats.luts <= k4.stats.luts);
    }
}
