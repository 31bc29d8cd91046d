//! Design-choice ablations beyond the paper's tables:
//!
//! 1. **LUT size K** — map the same bindings onto 4/5/6-input LUTs;
//! 2. **Glitch-aware vs zero-delay SA** inside Eq. 4's edge weights;
//! 3. **FSM controller overhead** vs testbench-driven control;
//! 4. **Register binding algorithm** — the paper's weighted matching vs
//!    classic left-edge, measured through the full flow;
//! 5. **Multi-cycle multipliers** (the paper's future-work scenario).
//!
//! Each ablation draws its shared artifacts from a staged pipeline: the
//! schedule/register-binding front end is computed once per benchmark per
//! flow configuration, and every binding run pools its partial-datapath
//! SA estimates in the pipeline's shared cache.
//!
//! ```text
//! cargo run --release -p hlpower-bench --bin ablations [-- --fast --bench pr --jobs 4]
//! ```

use cdfg::ResourceLibrary;
use hlpower::{
    bind_registers_left_edge, elaborate, mux_report, Binder, ControlStyle, DatapathConfig,
    FlowConfig, Prepared, RegBindConfig,
};
use hlpower_bench::{pct_change, render_table, run_on, Args};
use mapper::{map, MapConfig};

fn main() {
    let args = Args::parse();
    hlpower_bench::reject_binder_flag(&args, "ablations");
    hlpower_bench::reject_shard_flag(&args, "ablations");
    let suite = args.suite();
    let take = suite.len().min(3);
    let small = &suite[suite.len() - take..]; // the smaller benchmarks
    let binder = Binder::HlPower { alpha: 0.5 };

    // One service owns the --store hot store; each flow configuration
    // gets its own pipeline behind it (the per-configuration
    // fingerprints keep their artifacts apart). The α=0.5 binding
    // feeding ablations 1–3 is bound exactly once per benchmark here:
    // the K sweep keeps the elaborated datapath, and the measured
    // FlowResult is reused as the glitch-aware / external-control
    // reference below.
    let flow = args.flow();
    let service = args.service();
    let pipeline = service.pipeline_for(&flow);
    let zd_results = run_on(
        &pipeline,
        small,
        &[Binder::HlPowerZeroDelay { alpha: 0.5 }],
        args.jobs,
    );

    // ---- 1. LUT size sweep ------------------------------------------------
    println!("=== Ablation 1: LUT input count K (HLPower a=0.5 bindings) ===");
    let mut rows = Vec::new();
    let mut a05_results = Vec::new();
    for (g, rc) in small {
        let prep = pipeline.prepare(g, rc);
        let outcome = pipeline.bind(&prep, binder);
        let dp = elaborate(
            g,
            &prep.sched,
            &prep.rb,
            &outcome.fb,
            &DatapathConfig::with_width(flow.width),
        );
        let mut cells = vec![g.name().to_string()];
        for k in [4usize, 5, 6] {
            let m = map(&dp.netlist, &MapConfig::new(k, flow.map_objective));
            cells.push(format!("{} LUTs/d{}", m.stats.luts, m.stats.depth));
        }
        rows.push(cells);
        a05_results.push(pipeline.measure(&prep, &outcome, binder));
    }
    println!("{}", render_table(&["Bench", "K=4", "K=5", "K=6"], &rows));

    // ---- 2. Glitch-aware vs zero-delay SA in Eq. 4 ------------------------
    println!("=== Ablation 2: glitch-aware vs zero-delay SA in the edge weight ===");
    let mut rows = Vec::new();
    for ((g, _), (glitchy, zd_per)) in small.iter().zip(a05_results.iter().zip(&zd_results)) {
        let blind = &zd_per[0];
        rows.push(vec![
            g.name().to_string(),
            format!("{:.2}", glitchy.power.dynamic_power_mw),
            format!("{:.2}", blind.power.dynamic_power_mw),
            format!(
                "{:+.1}%",
                pct_change(glitchy.power.dynamic_power_mw, blind.power.dynamic_power_mw)
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Bench", "glitch-aware mW", "zero-delay mW", "delta"],
            &rows
        )
    );

    // ---- 3. FSM controller overhead ---------------------------------------
    // The FSM flow is a different configuration, hence its own pipeline;
    // the external-control numbers reuse the shared results above.
    println!("=== Ablation 3: on-chip FSM controller vs external control ===");
    let fsm_pipeline = service.pipeline_for(&FlowConfig {
        control: ControlStyle::Fsm,
        ..flow.clone()
    });
    let fsm_results = run_on(&fsm_pipeline, small, &[binder], args.jobs);
    let mut rows = Vec::new();
    for ((g, _), (ext, fsm_per)) in small.iter().zip(a05_results.iter().zip(&fsm_results)) {
        let fsm = &fsm_per[0];
        rows.push(vec![
            g.name().to_string(),
            format!("{}", ext.luts),
            format!("{}", fsm.luts),
            format!("{:.2}", ext.power.dynamic_power_mw),
            format!("{:.2}", fsm.power.dynamic_power_mw),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["Bench", "LUTs ext", "LUTs fsm", "mW ext", "mW fsm"],
            &rows
        )
    );

    // ---- 4. Register binding algorithm ------------------------------------
    // Swaps one front-end artifact (the register binding) while keeping
    // the cached schedule; both bindings draw on the pipeline's shared
    // SA cache.
    println!("=== Ablation 4: weighted-matching vs left-edge register binding ===");
    let mut rows = Vec::new();
    for (g, rc) in small {
        let prep = pipeline.prepare(g, rc);
        let rb_le = bind_registers_left_edge(
            g,
            &prep.sched,
            &RegBindConfig {
                lifetime: cdfg::LifetimeOptions {
                    latch_inputs: false,
                },
                seed: flow.port_seed,
            },
        );
        let prep_le = Prepared {
            rb: rb_le,
            ..(*prep).clone()
        };
        let fb_wm = pipeline.bind(&prep, binder).fb;
        let fb_le = pipeline.bind(&prep_le, binder).fb;
        let m_wm = mux_report(g, &prep.rb, &fb_wm);
        let m_le = mux_report(g, &prep_le.rb, &fb_le);
        rows.push(vec![
            g.name().to_string(),
            format!("{}", prep.rb.num_regs),
            format!("{}", m_wm.length),
            format!("{}", m_le.length),
            format!(
                "{:+.1}%",
                pct_change(m_wm.length as f64, m_le.length as f64)
            ),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Bench",
                "regs",
                "muxlen matching",
                "muxlen left-edge",
                "delta"
            ],
            &rows
        )
    );

    // ---- 5. Multi-cycle multipliers ----------------------------------------
    println!("=== Ablation 5: 2-cycle multipliers (paper future work) ===");
    let multi_pipeline = service.pipeline_for(&FlowConfig {
        library: ResourceLibrary {
            addsub_latency: 1,
            mul_latency: 2,
        },
        ..flow.clone()
    });
    let multi_results = run_on(&multi_pipeline, small, &[binder], args.jobs);
    let mut rows = Vec::new();
    for ((g, _), per) in small.iter().zip(&multi_results) {
        let r = &per[0];
        rows.push(vec![
            g.name().to_string(),
            format!("{}", r.schedule_steps),
            format!("{}", r.fus_mul),
            if r.meets_constraint {
                "yes".into()
            } else {
                "NO".into()
            },
            format!("{:.2}", r.power.dynamic_power_mw),
        ]);
    }
    println!(
        "{}",
        render_table(&["Bench", "steps", "mults", "meets rc", "mW"], &rows)
    );

    // The manual prepare/bind/measure loops above ran outside run_matrix,
    // so merge every pipeline's SA entries into the store explicitly.
    service.flush();
}
