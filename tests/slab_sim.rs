//! Slab-engine acceptance tests at the integration level:
//!
//! * on a **mapped** array multiplier (the glitch benchmark the paper's
//!   estimates hinge on), a 256-lane slab run is exactly the lane
//!   decomposition of four 64-lane one-word (`SlabSim<1>`) runs;
//! * a single slab lane replays the scalar `CycleSim` reference stream
//!   byte for byte, on a mapped multiplier and through the flow's
//!   datapath simulation on every suite benchmark;
//! * the `hlp` CLI rejects `--lanes` above the slab maximum at parse
//!   time with exit code 2 and a diagnostic naming the flag and value.

use gatesim::{lane_seed, run_random, run_random_slab, SimStats, SlabSim, VectorSource};
use hlpower::{flow, paper_constraint, Binder, FlowConfig};
use mapper::{map, MapConfig, MapObjective};
use netlist::{cells, Netlist, NodeId};

fn mapped_multiplier(w: usize) -> Netlist {
    let mut nl = Netlist::new("mul");
    let a: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("b{i}"))).collect();
    let p = cells::array_multiplier(&mut nl, "m", &a, &b);
    for (i, s) in p.iter().enumerate() {
        nl.mark_output(format!("p{i}"), *s);
    }
    map(&nl, &MapConfig::new(4, MapObjective::GlitchSa)).netlist
}

/// A 64-lane one-word slab run whose lane `L` is seeded as global lane
/// `offset + L` — one word of a wider slab run.
fn word_subrun(nl: &Netlist, steps: u64, seed: u64, offset: usize) -> SimStats {
    let mut sim = SlabSim::<1>::new(nl, 64);
    let mut sources: Vec<VectorSource> = (0..64)
        .map(|l| VectorSource::new(lane_seed(seed, offset + l)))
        .collect();
    let mut bits = vec![false; nl.inputs().len()];
    let mut words = vec![0u64; nl.inputs().len()];
    for _ in 0..steps {
        words.fill(0);
        for (l, src) in sources.iter_mut().enumerate() {
            src.fill(&mut bits);
            for (w, &b) in words.iter_mut().zip(&bits) {
                *w |= (b as u64) << l;
            }
        }
        sim.step(&words);
    }
    sim.stats().clone()
}

#[test]
fn mapped_multiplier_slab_decomposes_into_word_subruns() {
    let mapped = mapped_multiplier(8);
    let seed = 42;
    let steps = 200;
    let lanes = 4 * 64;
    let slab = run_random_slab(&mapped, steps, seed, lanes);

    let mut total = 0u64;
    let mut functional = 0u64;
    let mut per_node = vec![0u64; mapped.num_nodes()];
    for j in 0..lanes / 64 {
        let s = word_subrun(&mapped, steps, seed, 64 * j);
        total += s.total_transitions;
        functional += s.functional_transitions;
        for (acc, x) in per_node.iter_mut().zip(&s.per_node) {
            *acc += x;
        }
    }
    assert_eq!(
        slab.total_transitions, total,
        "256-lane slab totals must equal the sum of its four 64-lane sub-runs"
    );
    assert_eq!(slab.functional_transitions, functional);
    assert_eq!(
        slab.per_node, per_node,
        "per-node counts must decompose too"
    );
    assert_eq!(slab.cycles, steps * lanes as u64);
}

#[test]
fn single_slab_lane_replays_scalar_reference() {
    let mapped = mapped_multiplier(4);
    let seed = 7;
    let steps = 300;
    let slab = run_random_slab(&mapped, steps, seed, 1);
    let scalar = run_random(&mapped, steps, seed);
    assert_eq!(slab.total_transitions, scalar.total_transitions);
    assert_eq!(slab.functional_transitions, scalar.functional_transitions);
    assert_eq!(slab.per_node, scalar.per_node);
}

#[test]
fn one_lane_slab_flow_matches_scalar_flow_on_every_suite_datapath() {
    // `--lanes 1` runs the scalar engine, so the flow never runs a
    // one-lane slab: pin that equivalence here. On every suite
    // benchmark's mapped datapath, under both binders the tables
    // compare, one slab lane must reproduce the scalar flow simulation
    // (data-pin noise and control program included) node by node.
    let cfg = FlowConfig::fast();
    for p in &cdfg::PROFILES {
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint(p.name).unwrap();
        let (sched, rb) = flow::prepare(&g, &rc, &cfg);
        for binder in [Binder::Lopass, Binder::HlPower { alpha: 0.5 }] {
            let mut table = flow::sa_table_for(&cfg, binder);
            let outcome = flow::bind(&g, &sched, &rb, &rc, binder, &mut table);
            let (dp, mapped) = flow::elaborate_map(&g, &sched, &rb, &outcome.fb, &cfg);
            let scalar = flow::simulate_scalar(&dp, &mapped.netlist, &cfg);
            let slab = flow::simulate_slab(&dp, &mapped.netlist, &cfg, 1);
            let what = format!("{} / {}", p.name, binder.spec());
            assert_eq!(slab.cycles, scalar.cycles, "{what}");
            assert_eq!(slab.total_transitions, scalar.total_transitions, "{what}");
            assert_eq!(
                slab.functional_transitions, scalar.functional_transitions,
                "{what}"
            );
            assert_eq!(slab.glitch_transitions, scalar.glitch_transitions, "{what}");
            assert_eq!(slab.per_node, scalar.per_node, "{what}: per-node counts");
        }
    }
}

#[test]
fn cli_rejects_lanes_above_slab_maximum_with_exit_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hlp"))
        .args(["bench", "pr", "--lanes", "513"])
        .output()
        .expect("spawn hlp");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--lanes 513 must be a usage error (exit 2), got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--lanes") && stderr.contains("513"),
        "diagnostic must name the flag and the offending value:\n{stderr}"
    );
    assert!(
        stderr.contains("0..=512"),
        "diagnostic must state the accepted range:\n{stderr}"
    );
}

#[test]
fn cli_accepts_lanes_at_slab_maximum() {
    // Boundary acceptance: 512 lanes must get past argument parsing.
    // A full benchmark run is too slow for a unit test, so use `run`,
    // which validates flags *before* touching the CDFG file: a missing
    // file after clean parsing is a runtime error (1), not usage (2).
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hlp"))
        .args([
            "run",
            "/nonexistent/hlp-slab-boundary.cdfg",
            "--lanes",
            "512",
        ])
        .output()
        .expect("spawn hlp");
    assert_eq!(
        out.status.code(),
        Some(1),
        "--lanes 512 must parse cleanly (runtime failure 1, not usage 2): {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
