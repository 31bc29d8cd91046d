//! Property tests of the mapper's and the estimator's inner kernels
//! against plain reference implementations that live only here:
//!
//! * `mapper::cut_function`, which evaluates a cut's cone bit-parallel,
//!   against a row-by-row evaluation of the cone, on random DAGs with
//!   constants, reconvergent fanout and node tables of 1..=8 inputs, for
//!   every K in 2..=8, the trivial and the empty cut included;
//! * `activity::pair_switch_probability` and `activity::propagate`
//!   against a per-delta product loop, bit for bit (`to_bits()`), with
//!   pair distributions drawn from frozen P = 0, frozen P = 1, random
//!   frozen, P = s = 0.5 and random active fanins.
//!
//! As in `tests/properties.rs`, cases come from a seeded in-file
//! generator, so a failure names its case seed and reproduces exactly.

use activity::{
    pair_switch_probability, propagate, signal_probability, PairDist, SignalStats, TimedSignal,
};
use mapper::{cut_function, enumerate_cuts, Cut, CutConfig};
use netlist::{Netlist, NodeId, NodeKind, TruthTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

fn case_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(case)
}

/// Random truth table over exactly `n` inputs.
fn arb_table(g: &mut StdRng, n: usize) -> TruthTable {
    let words = if n >= 6 { 1 << (n - 6) } else { 1 };
    TruthTable::from_words(n, (0..words).map(|_| g.gen::<u64>()).collect())
}

// ---------- cut functions -------------------------------------------------

/// Random DAG: 1..=8 inputs, up to two constants, and logic nodes of
/// 1..=8 fanins drawn from every earlier node, so fanout reconverges.
fn arb_dag(g: &mut StdRng) -> Netlist {
    let mut nl = Netlist::new("dag");
    let mut nodes: Vec<NodeId> = (0..g.gen_range(1..9usize))
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for c in 0..g.gen_range(0..3usize) {
        nodes.push(nl.add_constant(format!("k{c}"), g.gen::<bool>()));
    }
    for i in 0..g.gen_range(4..24usize) {
        let fanins: Vec<NodeId> = (0..g.gen_range(1..9usize))
            .map(|_| nodes[g.gen_range(0..nodes.len())])
            .collect();
        let table = arb_table(g, fanins.len());
        nodes.push(nl.add_logic(format!("g{i}"), fanins, table));
    }
    nl.mark_output("o", *nodes.last().unwrap());
    nl
}

/// Reference: the cone under `root` evaluated once per leaf assignment.
fn cut_function_by_rows(nl: &Netlist, root: NodeId, cut: &Cut) -> TruthTable {
    let leaves = cut.leaves();
    TruthTable::from_fn(leaves.len(), |row| {
        let mut values: HashMap<NodeId, bool> = HashMap::new();
        for (i, &l) in leaves.iter().enumerate() {
            values.insert(l, row & (1 << i) != 0);
        }
        eval_by_row(nl, root, &mut values)
    })
}

fn eval_by_row(nl: &Netlist, n: NodeId, values: &mut HashMap<NodeId, bool>) -> bool {
    if let Some(&v) = values.get(&n) {
        return v;
    }
    let v = match &nl.node(n).kind {
        NodeKind::Constant(c) => *c,
        NodeKind::Logic { fanins, table } => {
            let mut idx = 0u32;
            for (bit, &f) in fanins.iter().enumerate() {
                if eval_by_row(nl, f, values) {
                    idx |= 1 << bit;
                }
            }
            table.eval(idx)
        }
        _ => panic!("cone reached a source that is not a leaf"),
    };
    values.insert(n, v);
    v
}

#[test]
fn cut_function_matches_row_by_row_evaluation() {
    let mut checked = [0usize; 9];
    for case in 0..48u64 {
        let mut g = case_rng(case);
        let nl = arb_dag(&mut g);
        for k in 2..=8 {
            let cuts = enumerate_cuts(&nl, &CutConfig { k, max_cuts: 8 });
            for (id, _) in nl.nodes() {
                for cut in cuts.cuts(id) {
                    let want = cut_function_by_rows(&nl, id, cut);
                    let got = cut_function(&nl, id, cut);
                    assert_eq!(got, want, "case {case} k={k} node {id} cut {cut:?}");
                    checked[cut.size()] += 1;
                }
            }
        }
    }
    // The corpus reaches the empty cut (constants), the trivial cut and
    // every cut size up to 8 leaves.
    assert!(checked.iter().all(|&c| c > 0), "cut sizes {checked:?}");
}

// ---------- pair switching probability and propagation --------------------

/// Reference: the probability of each flipping delta as its own product
/// over the fanins.
fn pair_switch_by_delta(table: &TruthTable, dists: &[PairDist]) -> f64 {
    let n = table.num_inputs();
    let switching: Vec<usize> = (0..n).filter(|&i| dists[i].switch_prob() > 0.0).collect();
    let mut total = 0.0;
    for before in 0..table.num_rows() {
        let fb = table.eval(before);
        for dmask in 1u32..(1 << switching.len()) {
            let mut delta = 0u32;
            for (k, &i) in switching.iter().enumerate() {
                if dmask & (1 << k) != 0 {
                    delta |= 1 << i;
                }
            }
            let after = before ^ delta;
            if table.eval(after) == fb {
                continue;
            }
            let mut p = 1.0;
            for (i, d) in dists.iter().enumerate() {
                p *= d.get(before & (1 << i) != 0, after & (1 << i) != 0);
                if p == 0.0 {
                    break;
                }
            }
            total += p;
        }
    }
    total
}

/// One fanin distribution of the five kinds the estimator meets.
fn arb_dist(g: &mut StdRng) -> PairDist {
    match g.gen_range(0..5u32) {
        0 => PairDist::frozen(0.0),
        1 => PairDist::frozen(1.0),
        2 => PairDist::frozen(g.gen::<f64>()),
        3 => PairDist::from_stats(SignalStats::PRIMARY_INPUT),
        _ => PairDist::from_stats(SignalStats::new(g.gen::<f64>(), g.gen::<f64>())),
    }
}

#[test]
fn pair_switch_probability_matches_per_delta_products_bit_for_bit() {
    for case in 0..4000u64 {
        let mut g = case_rng(case);
        let n = g.gen_range(0..9usize);
        let table = arb_table(&mut g, n);
        let dists: Vec<PairDist> = (0..n).map(|_| arb_dist(&mut g)).collect();
        let want = pair_switch_by_delta(&table, &dists);
        let got = pair_switch_probability(&table, &dists);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "case {case}: {got} vs {want}"
        );
    }
}

/// Reference: [`propagate`] with a set of times and a fresh distribution
/// list per time.
fn propagate_by_time(table: &TruthTable, fanins: &[&TimedSignal]) -> TimedSignal {
    let probs: Vec<f64> = fanins.iter().map(|f| f.prob).collect();
    let prob = signal_probability(table, &probs);
    let times: BTreeSet<u32> = fanins
        .iter()
        .flat_map(|f| f.profile.iter().map(|&(t, _)| t + 1))
        .collect();
    let mut profile = Vec::new();
    for t in times {
        let dists: Vec<PairDist> = fanins
            .iter()
            .map(|f| {
                let a = f.activity_at(t - 1);
                if a > 0.0 {
                    PairDist::from_stats(SignalStats::new(f.prob, a))
                } else {
                    PairDist::frozen(f.prob)
                }
            })
            .collect();
        let s = pair_switch_by_delta(table, &dists);
        if s > 0.0 {
            profile.push((t, s));
        }
    }
    TimedSignal { prob, profile }
}

/// A fanin signal: a constant, a frozen signal at a random probability,
/// a primary input, or a random profile over times 0..6.
fn arb_signal(g: &mut StdRng) -> TimedSignal {
    match g.gen_range(0..4u32) {
        0 => TimedSignal::constant(g.gen::<bool>()),
        1 => TimedSignal {
            prob: g.gen::<f64>(),
            profile: Vec::new(),
        },
        2 => TimedSignal::source(SignalStats::PRIMARY_INPUT),
        _ => {
            let prob = g.gen::<f64>();
            let mut profile = Vec::new();
            for t in 0..6u32 {
                if g.gen::<bool>() {
                    profile.push((t, g.gen::<f64>() * 0.5 + 1e-9));
                }
            }
            TimedSignal { prob, profile }
        }
    }
}

#[test]
fn propagate_matches_per_time_reference_bit_for_bit() {
    for case in 0..1500u64 {
        let mut g = case_rng(case);
        let n = g.gen_range(0..7usize);
        let table = arb_table(&mut g, n);
        let signals: Vec<TimedSignal> = (0..n).map(|_| arb_signal(&mut g)).collect();
        let refs: Vec<&TimedSignal> = signals.iter().collect();
        let want = propagate_by_time(&table, &refs);
        let got = propagate(&table, &refs);
        assert_eq!(got.prob.to_bits(), want.prob.to_bits(), "case {case}");
        let bits = |s: &TimedSignal| -> Vec<(u32, u64)> {
            s.profile.iter().map(|&(t, a)| (t, a.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&want), "case {case}");
    }
}
