//! Acceptance tests for the staged pipeline:
//!
//! * the same configuration produces **byte-identical** result tables
//!   whether the benchmark × binder matrix runs on 1 job or N jobs;
//! * per-benchmark `Schedule`/`RegisterBinding` artifacts are computed
//!   exactly once no matter how many binders run;
//! * the SA table's text persistence round-trips to identical lookups.

use cdfg::FuType;
use hlpower::{paper_constraint, Binder, FlowConfig, FlowResult, Pipeline, SaTable};

fn suite(names: &[&str]) -> Vec<(cdfg::Cdfg, cdfg::ResourceConstraint)> {
    names
        .iter()
        .map(|n| {
            let p = cdfg::profile(n).unwrap();
            (cdfg::generate(p, p.seed), paper_constraint(n).unwrap())
        })
        .collect()
}

/// Formats every deterministic field of a result — the byte-level
/// fingerprint an experiment table is built from.
fn fingerprint(results: &[Vec<FlowResult>]) -> String {
    let mut out = String::new();
    for per in results {
        for r in per {
            out.push_str(&format!(
                "{} {} steps={} regs={} fus={}/{} ok={} luts={} depth={} sa={:.6} \
                 mux={}/{}/{:.4}/{:.4} trans={} glitch={:.6} mw={:.6} clk={:.4} saq={}\n",
                r.name,
                r.binder,
                r.schedule_steps,
                r.registers,
                r.fus_addsub,
                r.fus_mul,
                r.meets_constraint,
                r.luts,
                r.depth,
                r.estimated_sa,
                r.mux.largest,
                r.mux.length,
                r.mux.muxdiff_mean(),
                r.mux.muxdiff_variance(),
                r.power.total_transitions,
                r.power.glitch_fraction,
                r.power.dynamic_power_mw,
                r.power.clock_period_ns,
                r.sa_queries,
            ));
        }
    }
    out
}

#[test]
fn tables_identical_for_one_and_many_jobs() {
    let suite = suite(&["pr", "wang", "mcm"]);
    let binders = [
        Binder::Lopass,
        Binder::HlPower { alpha: 1.0 },
        Binder::HlPower { alpha: 0.5 },
    ];
    let cfg = FlowConfig::fast();
    let serial = Pipeline::new(cfg.clone()).run_matrix(&suite, &binders, 1);
    let parallel = Pipeline::new(cfg).run_matrix(&suite, &binders, 4);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "result tables must be byte-identical between --jobs 1 and --jobs 4"
    );
}

#[test]
fn single_lane_fingerprint_matches_scalar_engine() {
    // Every paper table runs one vector stream at the default
    // `--lanes 1`; its full deterministic fingerprint must equal the
    // scalar reference engine's at `--lanes 0` (the one-lane slab engine
    // is pinned against the scalar flow simulation in `slab_sim.rs`).
    let suite = suite(&["pr", "wang"]);
    let binders = [Binder::Lopass, Binder::HlPower { alpha: 0.5 }];
    let scalar_cfg = FlowConfig {
        lanes: 0,
        ..FlowConfig::fast()
    };
    let one_lane_cfg = FlowConfig {
        lanes: 1,
        ..FlowConfig::fast()
    };
    let scalar = Pipeline::new(scalar_cfg).run_matrix(&suite, &binders, 2);
    let one_lane = Pipeline::new(one_lane_cfg).run_matrix(&suite, &binders, 2);
    assert_eq!(
        fingerprint(&scalar),
        fingerprint(&one_lane),
        "one lane must replay the scalar engine byte for byte"
    );
}

#[test]
fn word_engine_many_lanes_fingerprint_is_reproducible() {
    let suite = suite(&["wang"]);
    let binders = [Binder::HlPower { alpha: 0.5 }];
    let cfg = FlowConfig {
        lanes: 64,
        ..FlowConfig::fast()
    };
    let a = Pipeline::new(cfg.clone()).run_matrix(&suite, &binders, 1);
    let b = Pipeline::new(cfg).run_matrix(&suite, &binders, 4);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "fixed-seed 64-lane runs must be byte-identical across job counts"
    );
}

#[test]
fn front_end_artifacts_computed_once_per_benchmark() {
    let suite = suite(&["pr", "wang"]);
    let binders = [
        Binder::Lopass,
        Binder::LopassInterconnect,
        Binder::HlPower { alpha: 1.0 },
        Binder::HlPower { alpha: 0.5 },
        Binder::HlPowerZeroDelay { alpha: 0.5 },
    ];
    let pipeline = Pipeline::new(FlowConfig::fast());
    pipeline.run_matrix(&suite, &binders, 4);
    let c = pipeline.stats().stages;
    assert_eq!(c.schedules, 2, "one schedule per benchmark, not per binder");
    assert_eq!(c.register_bindings, 2, "one register binding per benchmark");
    assert_eq!(c.fu_bindings, 10, "one FU binding per benchmark x binder");
    assert_eq!(c.elaborations, 10);
    assert_eq!(c.mappings, 10);
    assert_eq!(c.simulations, 10);
}

#[test]
fn sa_table_persistence_roundtrips_to_identical_lookups() {
    let table = SaTable::new(4, 4);
    table.precompute(4);
    let text = table.to_text();
    let restored = SaTable::from_text(&text).unwrap();
    assert_eq!(restored.len(), table.len());
    for fu in FuType::ALL {
        for a in 1..=4 {
            for b in 1..=4 {
                let orig = table.get(fu, a, b);
                let back = restored.get(fu, a, b);
                assert!((orig - back).abs() < 1e-5, "{fu} {a}x{b}: {orig} vs {back}");
            }
        }
    }
    let (_, misses) = restored.counters();
    assert_eq!(misses, 0, "every lookup must come from the loaded entries");
    // And the same file seeds a pipeline's shared cross-job cache.
    let shared = SaTable::new(4, 4);
    shared.absorb(&SaTable::from_text(&text).unwrap()).unwrap();
    assert_eq!(shared.len(), table.len());
    let v = shared.get(FuType::AddSub, 2, 2);
    assert!((v - table.get(FuType::AddSub, 2, 2)).abs() < 1e-5);
    let (_, misses) = shared.counters();
    assert_eq!(misses, 0);
}
