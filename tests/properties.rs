//! Property-based tests over the core data structures and invariants:
//! truth tables, netlists, BLIF round-trips, switching activity bounds,
//! bipartite matching optimality, scheduling and binding legality on
//! random CDFGs (paper Theorem 1).
//!
//! The build environment is offline, so instead of `proptest` these use
//! a small deterministic case generator: every test enumerates seeded
//! random instances, so failures reproduce exactly and CI needs no
//! shrinking. Each case seed prints in the assertion message.

use activity::{analyze, ActivityConfig, PairDist, SignalStats};
use cdfg::{
    lifetimes, list_schedule, Cdfg, LifetimeOptions, OpKind, ResourceConstraint, ResourceLibrary,
};
use hlpower::matching::max_weight_matching;
use hlpower::{bind_hlpower, bind_registers, HlPowerConfig, RegBindConfig, SaTable};
use netlist::{parse_blif, write_blif, Netlist, NodeId, TruthTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-case RNG: the same in-tree `rand` stand-in the
/// rest of the workspace uses, seeded by the case index so failures
/// reproduce exactly without shrinking.
fn case_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(case)
}

/// Random truth table with 1..=`max_inputs` inputs.
fn arb_table(g: &mut StdRng, max_inputs: usize) -> TruthTable {
    let n = g.gen_range(1..max_inputs + 1);
    let needed = if n >= 6 { 1 << (n - 6) } else { 1 };
    let words: Vec<u64> = (0..needed).map(|_| g.gen::<u64>()).collect();
    TruthTable::from_words(n, words)
}

// ---------- truth tables -------------------------------------------------

/// Shannon expansion: f = (¬x ∧ f|x=0) ∨ (x ∧ f|x=1).
#[test]
fn shannon_expansion_holds() {
    for case in 0..128u64 {
        let mut g = case_rng(case);
        let t = arb_table(&mut g, 6);
        let n = t.num_inputs();
        let var = g.gen_range(0..n);
        let c0 = t.cofactor(var, false);
        let c1 = t.cofactor(var, true);
        for row in 0..t.num_rows() {
            let reduced = {
                let low = row & ((1u32 << var) - 1);
                let high = (row >> (var + 1)) << var;
                low | high
            };
            let expect = if row & (1 << var) != 0 {
                c1.eval(reduced)
            } else {
                c0.eval(reduced)
            };
            assert_eq!(t.eval(row), expect, "case {case} var {var} row {row}");
        }
    }
}

/// The Boolean difference is independent of the differentiating input
/// and detects exactly the rows where flipping it changes f.
#[test]
fn boolean_difference_definition() {
    for case in 0..128u64 {
        let mut g = case_rng(case);
        let t = arb_table(&mut g, 5);
        let n = t.num_inputs();
        let var = g.gen_range(0..n);
        let diff = t.boolean_difference(var);
        for row in 0..t.num_rows() {
            if row & (1 << var) != 0 {
                continue;
            }
            let reduced = {
                let low = row & ((1u32 << var) - 1);
                let high = (row >> (var + 1)) << var;
                low | high
            };
            assert_eq!(
                diff.eval(reduced),
                t.eval(row) != t.eval(row | (1 << var)),
                "case {case} var {var} row {row}"
            );
        }
    }
}

/// Double complement is the identity; complement flips every row.
#[test]
fn complement_involution() {
    for case in 0..128u64 {
        let mut g = case_rng(case);
        let t = arb_table(&mut g, 6);
        assert_eq!(t.complement().complement(), t.clone(), "case {case}");
        assert_eq!(
            t.complement().count_ones(),
            t.num_rows() - t.count_ones(),
            "case {case}"
        );
    }
}

/// Permutation by the identity is the identity; applying a permutation
/// twice with its inverse restores the table.
#[test]
fn permutation_roundtrip() {
    for case in 0..128u64 {
        let mut g = case_rng(case);
        let t = arb_table(&mut g, 5);
        let n = t.num_inputs();
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher-Yates.
        for i in (1..n).rev() {
            let j = g.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        let permuted = t.permute(&perm);
        let mut inverse = vec![0usize; n];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        assert_eq!(permuted.permute(&inverse), t, "case {case} perm {perm:?}");
    }
}

// ---------- probability bounds ------------------------------------------

/// Pair distributions are proper distributions and signal stats stay
/// within the feasibility bound s <= 2·min(P, 1-P).
#[test]
fn pair_dist_is_distribution() {
    for case in 0..256u64 {
        let mut g = case_rng(case);
        let (p, s) = (g.gen::<f64>(), g.gen::<f64>());
        let stats = SignalStats::new(p, s);
        assert!(
            stats.activity <= 2.0 * stats.prob.min(1.0 - stats.prob) + 1e-12,
            "case {case}"
        );
        let d = PairDist::from_stats(stats);
        let total = d.p00 + d.p01 + d.p10 + d.p11;
        assert!((total - 1.0).abs() < 1e-9, "case {case}: total {total}");
        assert!(
            d.p00 >= 0.0 && d.p01 >= 0.0 && d.p10 >= 0.0 && d.p11 >= 0.0,
            "case {case}"
        );
    }
}

/// For any 2-level netlist with random tables, the glitch-aware SA is
/// at least the functional SA and both are non-negative and bounded by
/// the node count times the max per-step activity.
#[test]
fn sa_estimates_are_bounded() {
    for case in 0..96u64 {
        let mut g = case_rng(case);
        let t1 = arb_table(&mut g, 3);
        let t2 = arb_table(&mut g, 3);
        let n1 = t1.num_inputs();
        let n2 = t2.num_inputs();
        let mut nl = Netlist::new("p");
        let inputs: Vec<NodeId> = (0..(n1.max(n2 - 1) + 1))
            .map(|i| nl.add_input(format!("i{i}")))
            .collect();
        let g1 = nl.add_logic("g1", inputs[..n1].to_vec(), t1);
        let mut fan2 = vec![g1];
        fan2.extend(inputs[..n2 - 1].iter().copied());
        let g2 = nl.add_logic("g2", fan2[..n2].to_vec(), t2);
        nl.mark_output("o", g2);
        let rep = analyze(&nl, &ActivityConfig::uniform());
        assert!(rep.total_sa >= rep.functional_sa - 1e-12, "case {case}");
        assert!(rep.glitch_sa >= -1e-12, "case {case}");
        // Each node switches at most once per time step; two nodes with
        // depth <= 2 switch at most 3 distinct events total per cycle.
        assert!(rep.total_sa <= 3.0 + 1e-9, "case {case}: {}", rep.total_sa);
    }
}

// ---------- netlists and BLIF -------------------------------------------

/// Random small combinational netlist.
fn arb_netlist(g: &mut StdRng) -> Netlist {
    let num_inputs = g.gen_range(2..6);
    let num_gates = g.gen_range(1..12);
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NodeId> = (0..num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for k in 0..num_gates {
        let arity = 1 + g.gen_range(0..3);
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| pool[g.gen_range(0..pool.len())])
            .collect();
        let bits = g.gen::<u64>();
        let table = TruthTable::from_fn(arity, |row| bits >> (row % 64) & 1 == 1);
        let gate = nl.add_logic(format!("g{k}"), fanins, table);
        pool.push(gate);
    }
    let out = *pool.last().unwrap();
    nl.mark_output("o", out);
    nl
}

/// BLIF round-trip preserves structure and function.
#[test]
fn blif_roundtrip_preserves_function() {
    for case in 0..48u64 {
        let mut g = case_rng(case);
        let nl = arb_netlist(&mut g);
        nl.check().unwrap();
        let text = write_blif(&nl);
        let back = parse_blif(&text).unwrap().flatten(None, &[]).unwrap();
        back.check().unwrap();
        assert_eq!(back.inputs().len(), nl.inputs().len(), "case {case}");
        // Compare the output function over all input assignments.
        let n = nl.inputs().len();
        let mut ev1 = gatesim::Evaluator::new(&nl);
        let mut ev2 = gatesim::Evaluator::new(&back);
        let (_, o1) = &nl.outputs()[0];
        let (_, o2) = &back.outputs()[0];
        for row in 0..(1u32 << n) {
            for (k, (&a, &b)) in nl.inputs().iter().zip(back.inputs()).enumerate() {
                ev1.set_input(a, row & (1 << k) != 0);
                ev2.set_input(b, row & (1 << k) != 0);
            }
            ev1.settle();
            ev2.settle();
            assert_eq!(ev1.value(*o1), ev2.value(*o2), "case {case} row {row}");
        }
    }
}

/// Sweeping twice removes nothing new, and mapping preserves function.
#[test]
fn sweep_is_idempotent_and_map_preserves() {
    for case in 0..48u64 {
        let mut g = case_rng(case);
        let nl = arb_netlist(&mut g);
        let mut swept = nl.clone();
        swept.sweep();
        let mut again = swept.clone();
        assert_eq!(again.sweep(), 0, "case {case}");
        let mapped = mapper::map(&swept, &mapper::MapConfig::default());
        let n = swept.inputs().len();
        let mut ev1 = gatesim::Evaluator::new(&swept);
        let mut ev2 = gatesim::Evaluator::new(&mapped.netlist);
        let (_, o1) = &swept.outputs()[0];
        let (_, o2) = &mapped.netlist.outputs()[0];
        for row in 0..(1u32 << n) {
            for (k, (&a, &b)) in swept
                .inputs()
                .iter()
                .zip(mapped.netlist.inputs())
                .enumerate()
            {
                ev1.set_input(a, row & (1 << k) != 0);
                ev2.set_input(b, row & (1 << k) != 0);
            }
            ev1.settle();
            ev2.settle();
            assert_eq!(ev1.value(*o1), ev2.value(*o2), "case {case} row {row}");
        }
    }
}

// ---------- matching ------------------------------------------------------

/// Random `rows × cols` weight matrix: a quarter of the cells forbidden,
/// the rest drawn by `weight`.
fn arb_weights(
    g: &mut StdRng,
    rows: usize,
    cols: usize,
    mut weight: impl FnMut(&mut StdRng) -> f64,
) -> Vec<Vec<Option<f64>>> {
    (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| (g.gen_range(0..4) != 0).then(|| weight(g)))
                .collect()
        })
        .collect()
}

/// Brute-force maximum total weight over all matchings.
fn brute_force_matching(w: &[Vec<Option<f64>>], used: &mut [bool], row: usize) -> f64 {
    if row == w.len() {
        return 0.0;
    }
    let mut best = brute_force_matching(w, used, row + 1);
    for (c, x) in w[row].iter().enumerate() {
        if let (false, Some(x)) = (used[c], *x) {
            used[c] = true;
            best = best.max(x + brute_force_matching(w, used, row + 1));
            used[c] = false;
        }
    }
    best
}

/// The matcher returns a valid partial permutation over allowed cells,
/// no allowed edge joins an unmatched row to an unmatched column, and
/// its total equals the brute-force optimum.
fn assert_optimal_matching(case: &str, w: &[Vec<Option<f64>>], cols: usize) {
    let m = max_weight_matching(w);
    assert_eq!(m.len(), w.len(), "{case}: one entry per row");
    let mut used = vec![false; cols];
    let mut total = 0.0;
    for (r, c) in m.iter().enumerate() {
        if let Some(c) = *c {
            assert!(!used[c], "{case}: column {c} used twice");
            used[c] = true;
            total += w[r][c].unwrap_or_else(|| panic!("{case}: row {r} on forbidden column {c}"));
        }
    }
    for (r, row) in w.iter().enumerate() {
        for (c, x) in row.iter().enumerate() {
            assert!(
                m[r].is_some() || used[c] || x.is_none(),
                "{case}: edge ({r}, {c}) could still be added"
            );
        }
    }
    let best = brute_force_matching(w, &mut vec![false; cols], 0);
    assert!(
        (total - best).abs() <= 1e-12 * best.abs(),
        "{case}: got {total} optimal {best}"
    );
}

/// Hungarian matching is optimal against brute force: on small dense
/// instances with integer weights, and on tie-heavy rectangles in both
/// orientations whose weights take only a few Eq. 4-style float levels
/// (the shape Algorithm 1 solves: few `U` rows, many `V` columns).
#[test]
fn matching_is_optimal() {
    for case in 0..256u64 {
        let mut g = case_rng(case);
        let rows = g.gen_range(1..5);
        let cols = g.gen_range(1..5);
        let w = arb_weights(&mut g, rows, cols, |g| g.gen_range(1..100) as f64);
        assert_optimal_matching(&format!("integer case {case}"), &w, cols);
    }
    for case in 0..384u64 {
        let mut g = case_rng(case);
        // 2–6 Eq. 4 levels, α/SA + (1 − α)/((muxDiff + 1)·β), so many
        // cells tie exactly; mixing α and β spreads the levels over
        // three orders of magnitude.
        let levels: Vec<f64> = (0..g.gen_range(2..7))
            .map(|_| {
                let alpha = [0.0, 0.5, 1.0][g.gen_range(0..3)];
                let sa = 5.0 + 0.37 * g.gen_range(0..40) as f64;
                let mux_diff = g.gen_range(0..6) as f64;
                let beta = [30.0, 1000.0][g.gen_range(0..2)];
                alpha / sa + (1.0 - alpha) / ((mux_diff + 1.0) * beta)
            })
            .collect();
        let (short, long) = (g.gen_range(1..6), g.gen_range(2..10));
        let (rows, cols) = if case % 3 == 0 {
            (long.max(short + 1), short)
        } else {
            (short, long.max(short + 1))
        };
        let w = arb_weights(&mut g, rows, cols, |g| levels[g.gen_range(0..levels.len())]);
        assert_optimal_matching(&format!("tie case {case} ({rows}x{cols})"), &w, cols);
    }
}

// ---------- scheduling and binding (Theorem 1) ----------------------------

/// Random DAG-shaped CDFG.
fn arb_cdfg(g: &mut StdRng) -> Cdfg {
    let inputs = g.gen_range(2..5);
    let ops = g.gen_range(3..25);
    let mut cdfg = Cdfg::new("rand");
    let mut pool: Vec<cdfg::VarId> = (0..inputs)
        .map(|i| cdfg.add_input(format!("i{i}")))
        .collect();
    for _ in 0..ops {
        let kind = match g.gen_range(0..3) {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            _ => OpKind::Mul,
        };
        let a = pool[g.gen_range(0..pool.len())];
        let b = pool[g.gen_range(0..pool.len())];
        let (_, v) = cdfg.add_op(kind, a, b);
        pool.push(v);
    }
    cdfg.mark_output(*pool.last().unwrap());
    cdfg
}

/// Theorem 1: for single-cycle libraries, HLPower always reaches the
/// minimum resource allocation of the schedule; and every produced
/// binding/schedule/register assignment is internally consistent.
#[test]
fn theorem1_minimum_constraint_reachable() {
    for case in 0..48u64 {
        let mut gen = case_rng(case);
        let g = arb_cdfg(&mut gen);
        let add = gen.gen_range(1..4);
        let mul = gen.gen_range(1..4);
        g.check().unwrap();
        let lib = ResourceLibrary::default();
        let rc = ResourceConstraint::new(add, mul);
        let sched = list_schedule(&g, &lib, &rc);
        sched.validate(&g, Some(&rc)).unwrap();
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        rb.validate(&g).unwrap();
        let mut table = SaTable::new(4, 4);
        let (fb, _) = bind_hlpower(&g, &sched, &rb, &rc, &mut table, &HlPowerConfig::default());
        fb.validate(&g, &sched).unwrap();
        assert!(
            fb.meets(&rc),
            "case {case}: constraint must be reachable (Theorem 1)"
        );
        // The binder never allocates below the schedule's lower bound, and
        // stops merging once the constraint is satisfied.
        for ty in cdfg::FuType::ALL {
            let count = fb.count(ty);
            let lower = sched.min_resources(&g, ty);
            assert!(
                count >= lower,
                "case {case}: {count} below lower bound {lower}"
            );
            if g.op_count(ty) > 0 {
                assert!(count <= rc.limit(ty).max(lower), "case {case}");
            }
        }
    }
}

/// Lifetime analysis is consistent: variables sharing a register never
/// overlap, and the allocation equals the maximum live set.
#[test]
fn register_binding_invariants() {
    for case in 0..48u64 {
        let mut gen = case_rng(case);
        let g = arb_cdfg(&mut gen);
        let lib = ResourceLibrary::default();
        let rc = ResourceConstraint::new(2, 2);
        let sched = list_schedule(&g, &lib, &rc);
        let opts = LifetimeOptions::default();
        let lt = lifetimes(&g, &sched, &opts);
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        rb.validate(&g).unwrap();
        assert_eq!(rb.num_regs, lt.max_overlap(sched.num_steps), "case {case}");
    }
}
