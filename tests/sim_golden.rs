//! Golden digests of the gate-level simulation behind every power number.
//!
//! Each digest covers one simulation's `SimStats`: the cycle count, the
//! total/functional/glitch split and every per-node transition counter.
//! The cases run the flow's own path (prepare, bind, elaborate, map,
//! simulate), so a change to either engine, to the stimulus drivers or to
//! the netlist the flow hands them that moves any count fails here and
//! names the case:
//!
//! * the scalar engine on every suite datapath under both Table 3
//!   binders at `FlowConfig::fast()`;
//! * the scalar engine at the paper configuration on chem (the largest
//!   datapath) and wang;
//! * the slab engine at 64 and at 256 lanes;
//! * two `SaMode::Simulated` table entries (`simulate_sa`), bit for bit.
//!
//! One SA cache per configuration is shared by the cases of a test, as
//! in `binding_golden.rs`: cached and fresh tables give identical
//! estimates, and sharing keeps the sweep affordable in a debug build.

use cdfg::FuType;
use gatesim::SimStats;
use hlpower::fingerprint::Hasher128;
use hlpower::flow::{bind, elaborate_map, prepare, simulate};
use hlpower::{paper_constraint, simulate_sa, Binder, FlowConfig, SaTable};

/// Expected digests at `FlowConfig::fast()` (scalar engine), per
/// benchmark and Table 3 binder.
const FAST: [(&str, &str, &str); 14] = [
    ("chem", "lopass", "2592eb23e8d4bad96091a1a5ca26295c"),
    ("chem", "hlpower:0.5", "df0e48e59b06c630449d1c5058ddd991"),
    ("dir", "lopass", "576cfcabfbd5ecf3feb1cd3e1cd82084"),
    ("dir", "hlpower:0.5", "31df3794c257ae79456fa008a4c6406c"),
    ("honda", "lopass", "c79c868a6bfe3c259a1b4adbe9face9a"),
    ("honda", "hlpower:0.5", "21265e444a2911470002da8e46ebef28"),
    ("mcm", "lopass", "d10c9e91c8f41792042540c23f019194"),
    ("mcm", "hlpower:0.5", "fb6fbbc8a2b50b9df9321a8665095706"),
    ("pr", "lopass", "91a4a03547fa8e25f71d97948b3dcfab"),
    ("pr", "hlpower:0.5", "aabaa7afc9f9a0e7576f4b7876ca2d6d"),
    ("steam", "lopass", "014729b19e2a5652cafe493a708a7834"),
    ("steam", "hlpower:0.5", "485782c204e169f236831cbc819cb1dd"),
    ("wang", "lopass", "c11eda1327046e3bf44979ee3ff44bd6"),
    ("wang", "hlpower:0.5", "b2bf5698f3bbad3c9ee0a5cacd2d2e45"),
];

/// Expected digests at the paper configuration (`FlowConfig::default()`:
/// 16-bit datapaths, 1000 cycles, scalar engine).
const PAPER: [(&str, &str, &str); 4] = [
    ("chem", "lopass", "5dbbc2f6e8faf5e4f1a6acdf4322dcd8"),
    ("chem", "hlpower:0.5", "d7adfb0a16fc4e0fd4d1a80d8dbf3a62"),
    ("wang", "lopass", "1f39f3c75d19588556c3f54e20202ca6"),
    ("wang", "hlpower:0.5", "3b781f269b96b2cac69f5634f6d25ac8"),
];

/// Expected digests of slab runs at `FlowConfig::fast()`: (benchmark,
/// binder, lanes, digest).
const SLAB: [(&str, &str, usize, &str); 2] = [
    (
        "steam",
        "hlpower:0.5",
        64,
        "04714b8b7e4a83b7ce5c607240a24ddc",
    ),
    ("dir", "lopass", 256, "9638b4ffec6c935e73ce5e8f857fe8de"),
];

/// Expected `simulate_sa` results as `f64` bit patterns: (unit type,
/// mux A inputs, mux B inputs, bits) at width 4, K = 4.
const SIMULATED_SA: [(FuType, usize, usize, u64); 2] = [
    (FuType::AddSub, 2, 3, 0x403a_4abc_0000_0000),
    (FuType::Mul, 3, 1, 0x4035_41ac_0000_0000),
];

fn stats_digest(stats: &SimStats) -> String {
    let mut h = Hasher128::new("hlpower/test/sim-golden/v1");
    h.write_u64(stats.cycles);
    h.write_u64(stats.total_transitions);
    h.write_u64(stats.functional_transitions);
    h.write_u64(stats.glitch_transitions);
    h.write_usize(stats.per_node.len());
    for &n in &stats.per_node {
        h.write_u64(n);
    }
    h.finish().to_string()
}

/// Digest of the simulation the flow runs for one benchmark × binder.
fn digest(name: &str, spec: &str, cfg: &FlowConfig, table: &SaTable) -> String {
    let profile = cdfg::profile(name).unwrap();
    let g = cdfg::generate(profile, profile.seed);
    let rc = paper_constraint(name).unwrap();
    let (sched, rb) = prepare(&g, &rc, cfg);
    let binder = Binder::parse(spec).unwrap();
    let outcome = bind(&g, &sched, &rb, &rc, binder, &mut table.handle());
    let (dp, mapped) = elaborate_map(&g, &sched, &rb, &outcome.fb, cfg);
    stats_digest(&simulate(&dp, &mapped.netlist, cfg))
}

/// The failure line of one case whose digest moved, if it did.
fn moved(
    label: &str,
    cfg: &FlowConfig,
    table: &SaTable,
    (name, spec, want): (&str, &str, &str),
) -> Option<String> {
    let got = digest(name, spec, cfg, table);
    (got != want).then(|| format!("{name} {spec} {label}: expected {want}, got {got}"))
}

fn sa_table(cfg: &FlowConfig) -> SaTable {
    SaTable::new(cfg.sa_width, cfg.k).with_mode(cfg.sa_mode)
}

fn assert_none_moved(moved: Vec<String>) {
    assert!(moved.is_empty(), "simulations moved:\n{}", moved.join("\n"));
}

/// Digests every case at one configuration and fails with the list of
/// cases whose digest moved.
fn check(label: &str, cfg: &FlowConfig, cases: &[(&str, &str, &str)]) {
    let table = sa_table(cfg);
    assert_none_moved(
        cases
            .iter()
            .filter_map(|&case| moved(label, cfg, &table, case))
            .collect(),
    );
}

#[test]
fn fast_config_scalar_engine() {
    check("fast", &FlowConfig::fast(), &FAST);
}

#[test]
fn paper_config_scalar_engine() {
    check("paper", &FlowConfig::default(), &PAPER);
}

#[test]
fn fast_config_slab_engine() {
    // The lane count does not enter the SA table, so one table serves
    // every slab case.
    let table = sa_table(&FlowConfig::fast());
    assert_none_moved(
        SLAB.iter()
            .filter_map(|&(name, spec, lanes, want)| {
                let cfg = FlowConfig {
                    lanes,
                    ..FlowConfig::fast()
                };
                moved(&format!("lanes={lanes}"), &cfg, &table, (name, spec, want))
            })
            .collect(),
    );
}

#[test]
fn simulated_sa_table_entries() {
    let moved: Vec<String> = SIMULATED_SA
        .iter()
        .filter_map(|&(fu, a, b, want)| {
            let got = simulate_sa(fu, a, b, 4, 4).to_bits();
            (got != want).then(|| format!("{fu:?} {a}x{b}: expected {want:#x}, got {got:#x}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "simulated SA moved:\n{}",
        moved.join("\n")
    );
}
