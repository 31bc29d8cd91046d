//! Differential tests: the bit-sliced simulator at one slab word
//! (`SlabSim<1>`, up to 64 lanes per `u64`) against the scalar event
//! simulator.
//!
//! The contract under test is lane-exactness. With one lane and the same
//! vector stream, [`gatesim::SlabSim`] must reproduce
//! [`gatesim::CycleSim`] *byte for byte*: per-cycle reports, final node
//! values, per-node transition counters, and the exact
//! total/functional/glitch split. With many lanes, runs must be
//! deterministic for a fixed seed and must decompose lane-by-lane into
//! scalar runs seeded with [`gatesim::lane_seed`].

use gatesim::{lane_seed, CycleSim, SlabSim, SlabVectorSource, VectorSource};
use netlist::{cells, Netlist, NodeId, TruthTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn input_bus(nl: &mut Netlist, tag: &str, n: usize) -> Vec<NodeId> {
    (0..n).map(|i| nl.add_input(format!("{tag}{i}"))).collect()
}

fn ripple_adder_netlist(w: usize) -> Netlist {
    let mut nl = Netlist::new("add");
    let a = input_bus(&mut nl, "a", w);
    let b = input_bus(&mut nl, "b", w);
    let (s, _) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
    for (i, x) in s.iter().enumerate() {
        nl.mark_output(format!("s{i}"), *x);
    }
    nl
}

fn array_multiplier_netlist(w: usize) -> Netlist {
    let mut nl = Netlist::new("mul");
    let a = input_bus(&mut nl, "a", w);
    let b = input_bus(&mut nl, "b", w);
    let p = cells::array_multiplier(&mut nl, "m", &a, &b);
    for (i, x) in p.iter().enumerate() {
        nl.mark_output(format!("p{i}"), *x);
    }
    nl
}

/// A random 4-LUT netlist: `gates` logic nodes, each reading up to four
/// distinct earlier nodes through a random truth table. Deep, irregular
/// fanin structure is exactly what stresses the event wheel.
fn random_lut_soup(inputs: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("soup");
    let mut pool = input_bus(&mut nl, "x", inputs);
    for g in 0..gates {
        let k = rng.gen_range(1..4usize.min(pool.len()) + 1);
        let mut fanins: Vec<NodeId> = Vec::with_capacity(k);
        while fanins.len() < k {
            let cand = pool[rng.gen_range(0..pool.len())];
            if !fanins.contains(&cand) {
                fanins.push(cand);
            }
        }
        let table = TruthTable::from_fn(k, |_| rng.gen_bool(0.5));
        let id = nl.add_logic(format!("g{g}"), fanins, table);
        pool.push(id);
    }
    // Mark the most recently created gates as outputs so nothing is
    // trivially dead.
    for (i, &id) in pool.iter().rev().take(4).enumerate() {
        nl.mark_output(format!("o{i}"), id);
    }
    nl
}

fn assert_single_lane_matches_scalar(nl: &Netlist, cycles: u64, seed: u64) {
    let name = nl.name();
    let mut scalar = CycleSim::new(nl);
    let mut word = SlabSim::<1>::new(nl, 1);
    let mut src = VectorSource::new(seed);
    let n = nl.inputs().len();
    for c in 0..cycles {
        let bits = src.next_vector(n);
        let words: Vec<u64> = bits.iter().map(|&b| b as u64).collect();
        let sr = scalar.step(&bits);
        let wr = word.step(&words);
        assert_eq!(sr, wr, "{name}: cycle {c} report");
    }
    for (id, _) in nl.nodes() {
        assert_eq!(
            scalar.value(id),
            word.value(id, 0),
            "{name}: final value of {id}"
        );
    }
    let s = scalar.stats();
    let w = word.stats();
    assert_eq!(s.cycles, w.cycles, "{name}");
    assert_eq!(s.total_transitions, w.total_transitions, "{name}");
    assert_eq!(s.functional_transitions, w.functional_transitions, "{name}");
    assert_eq!(s.glitch_transitions, w.glitch_transitions, "{name}");
    assert_eq!(s.per_node, w.per_node, "{name}: per-node counters");
}

#[test]
fn single_lane_is_byte_identical_on_ripple_adder() {
    assert_single_lane_matches_scalar(&ripple_adder_netlist(8), 200, 1);
}

#[test]
fn single_lane_is_byte_identical_on_array_multiplier() {
    assert_single_lane_matches_scalar(&array_multiplier_netlist(6), 150, 2);
}

#[test]
fn single_lane_is_byte_identical_on_random_lut_soup() {
    for soup_seed in 0..5 {
        let nl = random_lut_soup(8, 60, soup_seed);
        assert_single_lane_matches_scalar(&nl, 120, soup_seed + 10);
    }
}

#[test]
fn multi_lane_decomposes_into_scalar_runs() {
    // Lane L of a 16-lane run must equal the scalar run seeded with
    // lane_seed(seed, L): same final values and (in aggregate) the same
    // transition accounting.
    let nl = random_lut_soup(6, 40, 3);
    let seed = 21;
    let lanes = 16;
    let steps = 80u64;
    let mut word = SlabSim::<1>::new(&nl, lanes);
    let mut src = SlabVectorSource::new(seed, lanes);
    let mut words = vec![0u64; nl.inputs().len()];
    for _ in 0..steps {
        src.fill_slab(&mut words);
        word.step(&words);
    }
    let mut total = 0u64;
    let mut functional = 0u64;
    let mut glitches = 0u64;
    let mut per_node = vec![0u64; nl.num_nodes()];
    for lane in 0..lanes {
        let mut scalar = CycleSim::new(&nl);
        let mut lane_src = VectorSource::new(lane_seed(seed, lane));
        let mut bits = vec![false; nl.inputs().len()];
        for _ in 0..steps {
            lane_src.fill(&mut bits);
            scalar.step(&bits);
        }
        for (id, _) in nl.nodes() {
            assert_eq!(
                scalar.value(id),
                word.value(id, lane),
                "lane {lane}: final value of {id}"
            );
        }
        let s = scalar.stats();
        total += s.total_transitions;
        functional += s.functional_transitions;
        glitches += s.glitch_transitions;
        for (acc, x) in per_node.iter_mut().zip(&s.per_node) {
            *acc += x;
        }
    }
    let w = word.stats();
    assert_eq!(w.cycles, steps * lanes as u64);
    assert_eq!(w.total_transitions, total);
    assert_eq!(w.functional_transitions, functional);
    assert_eq!(w.glitch_transitions, glitches);
    assert_eq!(w.per_node, per_node);
}

#[test]
fn multi_lane_runs_are_deterministic_for_a_fixed_seed() {
    let nl = array_multiplier_netlist(5);
    let a = gatesim::run_random_slab(&nl, 100, 7, 64);
    let b = gatesim::run_random_slab(&nl, 100, 7, 64);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total_transitions, b.total_transitions);
    assert_eq!(a.functional_transitions, b.functional_transitions);
    assert_eq!(a.glitch_transitions, b.glitch_transitions);
    assert_eq!(a.per_node, b.per_node);
    // A different seed must drive the network differently.
    let c = gatesim::run_random_slab(&nl, 100, 8, 64);
    assert_ne!(a.per_node, c.per_node, "distinct seeds, distinct streams");
}
