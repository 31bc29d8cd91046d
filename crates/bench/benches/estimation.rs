//! Benchmarks for switching-activity estimation and technology mapping —
//! the machinery behind every Eq. 4 edge weight. Plain `harness = false`
//! timers (criterion is unavailable offline).
//!
//! ```text
//! cargo bench -p hlpower-bench --bench estimation
//! ```

use activity::{analyze, analyze_zero_delay, ActivityConfig, ZeroDelayModel};
use cdfg::FuType;
use gatesim::{CycleSim, SlabSim, SlabVectorSource, VectorSource};
use hlpower::partial_datapath;
use mapper::{enumerate_cuts, map, CutConfig, MapConfig, MapObjective};
use netlist::{cells, Netlist, NodeId};
use std::time::Instant;

fn multiplier_netlist(w: usize) -> Netlist {
    let mut nl = Netlist::new("mul");
    let a: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..w).map(|i| nl.add_input(format!("b{i}"))).collect();
    let p = cells::array_multiplier(&mut nl, "m", &a, &b);
    for (i, s) in p.iter().enumerate() {
        nl.mark_output(format!("p{i}"), *s);
    }
    nl
}

/// Times `iters` runs of `f` (after one warm-up) and prints mean ms/iter.
fn bench(label: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
    println!("{label:40} {per:10.3} ms/iter  ({iters} iters)");
}

fn bench_estimators() {
    let nl = multiplier_netlist(8);
    let mapped = map(&nl, &MapConfig::new(4, MapObjective::Depth)).netlist;
    let cfg = ActivityConfig::uniform();
    bench("estimation/glitch_aware_mult8", 20, || {
        analyze(&mapped, &cfg);
    });
    bench("estimation/chou_roy_mult8", 20, || {
        analyze_zero_delay(&mapped, &cfg, ZeroDelayModel::ChouRoy);
    });
    bench("estimation/najm_mult8", 20, || {
        analyze_zero_delay(&mapped, &cfg, ZeroDelayModel::Najm);
    });
}

fn bench_mapping() {
    let nl = multiplier_netlist(8);
    bench("mapping/cut_enum_mult8_k4", 20, || {
        enumerate_cuts(&nl, &CutConfig::default());
    });
    for obj in [
        MapObjective::Depth,
        MapObjective::AreaFlow,
        MapObjective::GlitchSa,
    ] {
        bench(&format!("mapping/map_mult8/{obj:?}"), 20, || {
            map(&nl, &MapConfig::new(4, obj));
        });
    }
}

fn bench_sa_table_entry() {
    // Cost of one precalculated-table miss: build the Figure 2 partial
    // datapath, map it, and estimate its SA.
    for (a, b) in [(2usize, 2usize), (4, 4), (8, 2)] {
        bench(&format!("sa_table_entry/mult_w6/{a}x{b}"), 5, || {
            hlpower::compute_sa(FuType::Mul, a, b, 6, 4, true);
        });
    }
    bench("sa_table_entry/partial_datapath_build", 20, || {
        partial_datapath(FuType::Mul, 4, 4, 6);
    });
}

/// Scalar vs bit-sliced slab simulation throughput on the mapped 16×16
/// array multiplier — the bit-slicing payoff, reported as simulated
/// transitions per second. All stimulus is pregenerated outside the
/// timed region so every engine pays zero RNG cost and the floors below
/// measure pure engine throughput: the one-word slab (`SlabSim<1>`)
/// advances 64 lanes per event-wheel pass, and the four-word slab
/// advances four 64-lane words per pass with one shared wheel and an
/// autovectorizable straight-line kernel.
///
/// Besides the printed table, the rates land in `BENCH_sim.json` at the
/// workspace root, with the host's core count, so future changes can
/// track the throughput curve.
fn bench_simulators() {
    const SLAB_WORDS: usize = 4;
    let nl = multiplier_netlist(16);
    let mapped = map(&nl, &MapConfig::new(4, MapObjective::GlitchSa)).netlist;
    let steps = 500usize;
    let seed = 42u64;
    let inputs = mapped.inputs().len();
    let slab_lanes = SLAB_WORDS * 64;

    // Pregenerated stimulus, one buffer per cycle, identical seeding to
    // the `run_random*` drivers (lane L draws from `lane_seed(seed, L)`).
    let scalar_stim: Vec<Vec<bool>> = {
        let mut src = VectorSource::new(seed);
        (0..steps).map(|_| src.next_vector(inputs)).collect()
    };
    let slab_stim = |lanes: usize| -> Vec<Vec<u64>> {
        let mut src = SlabVectorSource::new(seed, lanes);
        (0..steps)
            .map(|_| {
                let mut s = vec![0u64; inputs * src.words()];
                src.fill_slab(&mut s);
                s
            })
            .collect()
    };
    let lane1_stim = slab_stim(1);
    let word64_stim = slab_stim(64);
    let slab256_stim = slab_stim(slab_lanes);

    // Median of three timed repetitions (after one warm-up) so a single
    // scheduler hiccup cannot fail the floor asserts below.
    let rate = |label: &str, f: &dyn Fn() -> u64| -> f64 {
        f(); // warm-up
        let mut rates = [0.0f64; 3];
        let mut transitions = 0;
        for r in &mut rates {
            let start = Instant::now();
            transitions = f();
            *r = transitions as f64 / start.elapsed().as_secs_f64();
        }
        rates.sort_by(|a, b| a.total_cmp(b));
        let per_s = rates[1];
        println!("{label:40} {per_s:14.0} transitions/s  ({transitions} transitions)");
        per_s
    };

    let scalar = rate("simulation/scalar_mult16", &|| {
        let mut sim = CycleSim::new(&mapped);
        for v in &scalar_stim {
            sim.step(v);
        }
        sim.stats().total_transitions
    });
    let lane1 = rate("simulation/lanes1_mult16", &|| {
        let mut sim = SlabSim::<1>::new(&mapped, 1);
        for w in &lane1_stim {
            sim.step(w);
        }
        sim.stats().total_transitions
    });
    let word64 = rate("simulation/lanes64_mult16", &|| {
        let mut sim = SlabSim::<1>::new(&mapped, 64);
        for w in &word64_stim {
            sim.step(w);
        }
        sim.stats().total_transitions
    });
    let skip_rate = std::cell::Cell::new(0.0f64);
    let slab256 = rate("simulation/lanes256_slab_mult16", &|| {
        let mut sim = SlabSim::<SLAB_WORDS>::new(&mapped, slab_lanes);
        for s in &slab256_stim {
            sim.step(s);
        }
        skip_rate.set(sim.activity().skip_rate());
        sim.stats().total_transitions
    });
    let skip_rate = skip_rate.get();

    // The activity gate under a quiescent workload: only the low 64
    // lanes toggle, so three of the four slab words should be skipped
    // wholesale. (Under fully random stimulus above, every word is
    // dirty and the skip rate is ~0 — the gate costs nothing there.)
    let sparse_stim: Vec<Vec<u64>> = word64_stim
        .iter()
        .map(|w| {
            let mut s = vec![0u64; inputs * SLAB_WORDS];
            for (i, &word) in w.iter().enumerate() {
                s[i * SLAB_WORDS] = word;
            }
            s
        })
        .collect();
    let sparse_skip = std::cell::Cell::new(0.0f64);
    rate("simulation/lanes256_slab_sparse_mult16", &|| {
        let mut sim = SlabSim::<SLAB_WORDS>::new(&mapped, slab_lanes);
        for s in &sparse_stim {
            sim.step(s);
        }
        sparse_skip.set(sim.activity().skip_rate());
        sim.stats().total_transitions
    });
    let sparse_skip = sparse_skip.get();
    println!(
        "simulation/slab_sparse_skip_rate         {:13.3}",
        sparse_skip
    );
    println!(
        "simulation/slab_activity_skip_rate       {:13.3}",
        skip_rate
    );

    let word_speedup = word64 / scalar;
    let slab_speedup = slab256 / word64;
    println!(
        "simulation/word64_vs_scalar_speedup      {word_speedup:13.1}x  (acceptance floor: 8x)"
    );
    println!(
        "simulation/slab256_vs_word64_speedup     {slab_speedup:13.1}x  (acceptance floor: 2x)"
    );

    // Machine-readable trajectory, at the workspace root.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"benchmark\": \"mapped_mult16\",\n  \"steps\": {steps},\n  \"seed\": {seed},\n  \
         \"cores\": {cores},\n  \
         \"transitions_per_sec\": {{\n    \"scalar\": {scalar:.0},\n    \"lanes1\": {lane1:.0},\n    \
         \"lanes64\": {word64:.0},\n    \"lanes256_slab\": {slab256:.0}\n  }},\n  \
         \"slab_activity_skip_rate\": {skip_rate:.4},\n  \
         \"slab_sparse_skip_rate\": {sparse_skip:.4},\n  \
         \"word64_vs_scalar_speedup\": {word_speedup:.2},\n  \
         \"slab256_vs_word64_speedup\": {slab_speedup:.2},\n  \
         \"slab256_vs_word64_floor\": 2.0\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("simulation/trajectory written to         {out}");

    assert!(
        word_speedup >= 8.0,
        "64-lane slab simulation regressed below the 8x acceptance floor: {word_speedup:.1}x"
    );
    assert!(
        slab_speedup >= 2.0,
        "256-lane slab simulation regressed below the 2x acceptance floor vs \
         64 lanes: {slab_speedup:.1}x"
    );
}

/// Cold-vs-warm artifact store on one full benchmark × binder job: the
/// cold run computes schedule → bind → elaborate → map → simulate and
/// persists every artifact; warm runs rebuild the same `FlowResult`
/// from the store (binding still executes — it is cheap once the SA
/// shard is loaded). The payoff the store exists for, reported as a
/// speedup with an asserted floor.
fn bench_store() {
    use hlpower::{ArtifactStore, Binder, FlowConfig, Pipeline};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("hlpower-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = cdfg::profile("wang").unwrap();
    let suite = vec![(
        cdfg::generate(p, p.seed),
        hlpower::paper_constraint("wang").unwrap(),
    )];
    let binders = [Binder::HlPower { alpha: 0.5 }];
    let cfg = FlowConfig {
        width: 8,
        sa_width: 6,
        sim_cycles: 300,
        lanes: 64,
        ..FlowConfig::default()
    };

    let cold_start = Instant::now();
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    Pipeline::with_store(cfg.clone(), store).run_matrix(&suite, &binders, 1);
    let cold = cold_start.elapsed().as_secs_f64();

    // Median of three warm runs, each through a fresh pipeline + store
    // handle (as a new process would be).
    let mut warms = [0.0f64; 3];
    for w in &mut warms {
        let start = Instant::now();
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let pipeline = Pipeline::with_store(cfg.clone(), store);
        pipeline.run_matrix(&suite, &binders, 1);
        let stats = pipeline.stats();
        assert_eq!(stats.stages.mappings, 0, "warm run must not map");
        assert_eq!(stats.stages.simulations, 0, "warm run must not simulate");
        *w = start.elapsed().as_secs_f64();
    }
    warms.sort_by(|a, b| a.total_cmp(b));
    let warm = warms[1];
    let speedup = cold / warm;
    println!(
        "store/cold_wang_full_job                 {:10.3} ms",
        cold * 1e3
    );
    println!(
        "store/warm_wang_full_job                 {:10.3} ms",
        warm * 1e3
    );
    println!("store/warm_vs_cold_speedup               {speedup:13.1}x  (acceptance floor: 2x)");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        speedup >= 2.0,
        "warm artifact-store rerun regressed below the 2x acceptance floor: {speedup:.1}x"
    );
}

fn main() {
    bench_estimators();
    bench_mapping();
    bench_sa_table_entry();
    bench_simulators();
    bench_store();
}
