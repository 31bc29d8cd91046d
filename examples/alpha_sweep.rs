//! Sweeps Eq. 4's weighting coefficient `α` from 0 (pure multiplexer
//! balancing) to 1 (pure switching-activity estimation) on one benchmark
//! and reports how power, area, and mux balance respond — the paper's
//! central ablation, extended to a full sweep.
//!
//! The sweep runs on the staged [`Pipeline`]: the benchmark is scheduled
//! and register-bound once, every α value reuses those artifacts, and all
//! six binder jobs pool their SA estimates in one shared cache while
//! running concurrently.
//!
//! ```text
//! cargo run --release --example alpha_sweep [benchmark] (default: wang)
//! ```

use hlpower::{paper_constraint, Binder, FlowConfig, Pipeline};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "wang".to_string());
    let profile = cdfg::profile(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; use one of: chem dir honda mcm pr steam wang");
        std::process::exit(2);
    });
    let g = cdfg::generate(profile, profile.seed);
    let rc = paper_constraint(&name).expect("suite constraint");
    let cfg = FlowConfig {
        sim_cycles: 500,
        ..FlowConfig::default()
    };

    println!(
        "alpha sweep on `{name}` (width {}, {} cycles)",
        cfg.width, cfg.sim_cycles
    );
    println!("alpha  power(mW)  LUTs  muxlen  muxDiff(mean/var)  toggle(M/s)");
    let binders: Vec<Binder> = std::iter::once(Binder::Lopass)
        .chain([0.0, 0.25, 0.5, 0.75, 1.0].map(|alpha| Binder::HlPower { alpha }))
        .collect();
    let pipeline = Pipeline::new(cfg);
    let suite = vec![(g, rc)];
    let results = pipeline.run_matrix(&suite, &binders, 4);
    let labels = ["LOPASS", "0.0", "0.25", "0.5", "0.75", "1.0"];
    for (label, r) in labels.iter().zip(&results[0]) {
        println!(
            "{label:<6} {:>9.2} {:>5} {:>7} {:>8.2}/{:<8.2} {:>6.1}",
            r.power.dynamic_power_mw,
            r.luts,
            r.mux.length,
            r.mux.muxdiff_mean(),
            r.mux.muxdiff_variance(),
            r.power.avg_toggle_rate_mhz
        );
    }
    let c = pipeline.stats().stages;
    println!(
        "\nshared artifacts: {} schedule / {} register binding for {} binder jobs",
        c.schedules, c.register_bindings, c.fu_bindings
    );
    println!("(the paper evaluates alpha = 1 and alpha = 0.5; Section 6.2)");
}
