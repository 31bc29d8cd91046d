//! Benchmarks for the substrate: unit-delay simulation throughput,
//! Hungarian matching on Algorithm 1's shapes, and BLIF I/O. Plain `harness = false`
//! timers (criterion is unavailable offline).
//!
//! ```text
//! cargo bench -p hlpower-bench --bench infrastructure
//! ```

use gatesim::CycleSim;
use hlpower::flow::{bind, prepare, sa_table_for};
use hlpower::matching::max_weight_matching;
use hlpower::{elaborate, Binder, DatapathConfig, FlowConfig};
use netlist::{parse_blif, write_blif};
use std::time::Instant;

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

fn bench_simulation() {
    // Simulate the bound `pr` datapath (the Table 3 inner loop).
    let cfg = FlowConfig {
        width: 8,
        sa_width: 6,
        ..FlowConfig::default()
    };
    let p = cdfg::profile("pr").unwrap();
    let g = cdfg::generate(p, p.seed);
    let rc = hlpower::paper_constraint("pr").unwrap();
    let (sched, rb) = prepare(&g, &rc, &cfg);
    let binder = Binder::HlPower { alpha: 0.5 };
    let mut table = sa_table_for(&cfg, binder);
    let fb = bind(&g, &sched, &rb, &rc, binder, &mut table).fb;
    let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(cfg.width));
    let mapped = mapper::map(
        &dp.netlist,
        &mapper::MapConfig::new(4, mapper::MapObjective::GlitchSa),
    )
    .netlist;

    bench("simulation/pr_datapath_100_cycles", 20, || {
        let mut sim = CycleSim::new(&mapped);
        let data: Vec<u64> = (0..dp.data_ports.len() as u64).collect();
        for cyc in 0..100u64 {
            let step = (cyc % dp.num_steps as u64) as u32;
            sim.step(&dp.input_vector(step, &data));
        }
        let _ = sim.stats().total_transitions;
    });
}

fn bench_matching() {
    // Algorithm 1's shapes: the first iterations of chem (15 × 332) and
    // steam (7 × 213) at the paper constraints, plus one square case.
    for (rows, cols) in [(15usize, 332usize), (7, 213), (64, 64)] {
        // Deterministic weights on a few Eq. 4-style levels, with the
        // forbidden cells a type or lifetime clash leaves.
        let w: Vec<Vec<Option<f64>>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let h = (r * 31 + c * 17) % 97;
                        (h % 3 != 0).then(|| {
                            0.5 / (12.0 + (h % 5) as f64) + 0.5 / (30.0 * (1 + h % 4) as f64)
                        })
                    })
                    .collect()
            })
            .collect();
        bench(&format!("hungarian/{rows}x{cols}"), 10, || {
            std::hint::black_box(max_weight_matching(std::hint::black_box(&w)));
        });
    }
}

fn bench_blif() {
    let nl = {
        let mut nl = netlist::Netlist::new("blifbench");
        let a: Vec<_> = (0..12).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..12).map(|i| nl.add_input(format!("b{i}"))).collect();
        let p = netlist::cells::array_multiplier(&mut nl, "m", &a, &b);
        for (i, s) in p.iter().enumerate() {
            nl.mark_output(format!("p{i}"), *s);
        }
        nl
    };
    let text = write_blif(&nl);
    bench("blif/write_mult12", 20, || {
        write_blif(&nl);
    });
    bench("blif/parse_mult12", 20, || {
        parse_blif(&text).unwrap().flatten(None, &[]).unwrap();
    });
}

fn main() {
    bench_simulation();
    bench_matching();
    bench_blif();
}
