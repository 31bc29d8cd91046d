//! Benchmarks for the binding algorithms — the runtime the paper reports
//! in Table 2, plus the precalculated-vs-dynamic SA ablation of
//! Section 5.2.2 ("the same results ... but with a much shorter run
//! time").
//!
//! The suite timer binds all seven benchmarks with HLPower(α=0.5) at the
//! paper configuration (width 16, SA width 8, Table 2 constraints) from
//! a warm SA table, which is what a warm daemon job re-runs, and writes
//! `BENCH_bind.json` at the workspace root.
//!
//! Criterion is unavailable offline, so these are plain `harness = false`
//! timers: each subject runs for a fixed iteration budget and reports
//! mean wall-clock per iteration.
//!
//! ```text
//! cargo bench -p hlpower-bench --bench binding
//! ```

use cdfg::ResourceConstraint;
use hlpower::flow::{bind, prepare, sa_table_for};
use hlpower::{bind_hlpower, bind_lopass, Binder, FlowConfig, HlPowerConfig, SaMode, SaTable};
use std::time::Instant;

/// Times `iters` runs of `f` (after one warm-up), prints mean ms/iter and
/// returns it.
fn bench(label: &str, iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed().as_secs_f64() * 1e3 / iters as f64;
    println!("{label:40} {per:10.3} ms/iter  ({iters} iters)");
    per
}

fn bench_paper_suite() {
    let cfg = FlowConfig::default();
    let binder = Binder::HlPower { alpha: 0.5 };
    let (mut ms_per_bind, mut queries, mut total) = (Vec::new(), Vec::new(), 0.0);
    for p in &cdfg::PROFILES {
        let g = cdfg::generate(p, p.seed);
        let rc = hlpower::paper_constraint(p.name).unwrap();
        let (sched, rb) = prepare(&g, &rc, &cfg);
        // The warm-up bind fills the table, so the timed binds are all
        // SA hits, as in a warm daemon job.
        let mut table = sa_table_for(&cfg, binder);
        let mut sa_queries = 0;
        let ms = bench(&format!("binding/paper/hlpower_a05/{}", p.name), 20, || {
            sa_queries = bind(&g, &sched, &rb, &rc, binder, &mut table).sa_queries;
        });
        bench(
            &format!("binding/paper/lopass_greedy/{}", p.name),
            20,
            || {
                bind_lopass(&g, &sched, &rb, &rc);
            },
        );
        ms_per_bind.push(format!("    \"{}\": {ms:.3}", p.name));
        queries.push(format!("    \"{}\": {sa_queries}", p.name));
        total += ms;
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Machine-readable trajectory for future PRs, at the workspace root.
    let json = format!(
        "{{\n  \"benchmark\": \"paper_suite_hlpower_a05_warm\",\n  \"width\": {},\n  \
         \"sa_width\": {},\n  \"cores\": {cores},\n  \"ms_per_bind\": {{\n{}\n  }},\n  \
         \"sa_queries\": {{\n{}\n  }},\n  \"suite_ms\": {total:.3}\n}}\n",
        cfg.width,
        cfg.sa_width,
        ms_per_bind.join(",\n"),
        queries.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bind.json");
    std::fs::write(out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("binding/paper/suite                      {total:10.3} ms");
    println!("binding/trajectory written to            {out}");
}

fn bench_sa_modes() {
    // The paper's ablation: dynamic SA estimation vs the precalculated
    // hash table, measured on the same binding run.
    let cfg = FlowConfig {
        width: 8,
        sa_width: 6,
        ..FlowConfig::default()
    };
    let p = cdfg::profile("pr").unwrap();
    let g = cdfg::generate(p, p.seed);
    let rc = ResourceConstraint::new(2, 2);
    let (sched, rb) = prepare(&g, &rc, &cfg);
    let hl = HlPowerConfig::default();

    let mut pre = sa_table_for(&cfg, Binder::HlPower { alpha: 0.5 });
    bench("sa_mode/precalculated/pr", 10, || {
        bind_hlpower(&g, &sched, &rb, &rc, &mut pre, &hl);
    });
    bench("sa_mode/dynamic/pr", 2, || {
        let mut dynamic = SaTable::new(cfg.sa_width, cfg.k).with_mode(SaMode::Dynamic);
        bind_hlpower(&g, &sched, &rb, &rc, &mut dynamic, &hl);
    });
}

fn main() {
    bench_paper_suite();
    bench_sa_modes();
}
