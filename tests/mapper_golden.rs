//! Golden digests of the technology mapper's netlists and estimates.
//!
//! Each digest covers, for every mapping of its case, the mapped
//! netlist's bytes (`write_netlist_bin`), its LUT count and depth, and
//! the bits of its Eq. 3 estimate (`estimated_sa` and
//! `estimated_glitch_sa`). A change to cut enumeration, cut selection,
//! cover construction or the activity kernels that moves any netlist or
//! any estimate bit fails here and names the case. The corpus:
//!
//! * the 14 suite datapaths at the paper configuration (LOPASS and
//!   HLPower(0.5), `GlitchSa`, K = 4): what a cold Table 3 run maps;
//! * the suite datapaths at `FlowConfig::fast()` under LOPASS and
//!   HLPower(0.5), with external and FSM control, under all three
//!   objectives at K = 4 and K = 6;
//! * the Figure 2 partial datapaths behind SA-table entries, for both
//!   unit types and mux sizes 1..=6 per port, at width 4.
//!
//! Every mapping's estimate must also equal `activity::analyze` of the
//! mapped netlist bit for bit, so the estimate always belongs to the
//! netlist it is reported with.
//!
//! One SA cache per configuration is shared by the cases of a test, as
//! in `binding_golden.rs`.

use activity::{analyze, ActivityConfig};
use cdfg::FuType;
use hlpower::datapath::ControlStyle;
use hlpower::fingerprint::Hasher128;
use hlpower::flow::{bind, elaborate_map, prepare, sa_table_for};
use hlpower::{paper_constraint, partial_datapath, Binder, FlowConfig, SaTable};
use mapper::{map, MapConfig, MapObjective, MappedNetlist};
use netlist::write_netlist_bin;

/// Expected digests at the paper configuration, per benchmark and
/// binder.
const PAPER: [(&str, &str, &str); 14] = [
    ("chem", "lopass", "9837a53dd36525bc7a93ab01b51d5753"),
    ("chem", "hlpower:0.5", "cc33779f098ef47bee2556b4c8b48192"),
    ("dir", "lopass", "4d36d39352731538bd061e4543d1f148"),
    ("dir", "hlpower:0.5", "21b99766a90e1c0b5816f2e0589edad1"),
    ("honda", "lopass", "5a2883091d7b0e3872607cb801f3c1fb"),
    ("honda", "hlpower:0.5", "668dde047dace4fa6dab2d902e7f65d5"),
    ("mcm", "lopass", "22e3717572e6af5419ac657136f0d18f"),
    ("mcm", "hlpower:0.5", "cbea5e7899f8773b78d055bc856eca41"),
    ("pr", "lopass", "174fc33b0f08d787d65dbd38724bb3f5"),
    ("pr", "hlpower:0.5", "adfca206590b20a99725d2b901112219"),
    ("steam", "lopass", "783040a69372a6a9210fb3984faa6e1a"),
    ("steam", "hlpower:0.5", "738483e2b90ee679ffe718549aabce79"),
    ("wang", "lopass", "720251e061e070239911e5fbe9fa6d1e"),
    ("wang", "hlpower:0.5", "022e34763b9d3f873ba777a7acb16322"),
];

/// Expected digests at `FlowConfig::fast()`, per benchmark and binder;
/// each covers both control styles × three objectives × K ∈ {4, 6}.
const FAST: [(&str, &str, &str); 14] = [
    ("chem", "lopass", "a41f1149284df2d106fd4edbd0058542"),
    ("chem", "hlpower:0.5", "592a083bc63f36bbcdc1e04c125813b9"),
    ("dir", "lopass", "b86c83359fe91995bf8bc458b424edf9"),
    ("dir", "hlpower:0.5", "9e8a8d6a9b705f4b15286a42c191b760"),
    ("honda", "lopass", "aa9cdc64196d40ca65b67f1367b5feca"),
    ("honda", "hlpower:0.5", "c6623012db9b07f4ba7223338922e91f"),
    ("mcm", "lopass", "f475ed855aa07e9a0bc286b11c3437aa"),
    ("mcm", "hlpower:0.5", "ca96ec142e2a36acd3d70f9c7092e926"),
    ("pr", "lopass", "c0e50fe85e4a2be22dcd0c51581f558f"),
    ("pr", "hlpower:0.5", "c2939dc9d93f4b3ac42d1b37720cb14e"),
    ("steam", "lopass", "d643beab75c2b1cd1f0fe5b77f967f88"),
    ("steam", "hlpower:0.5", "be671cd7abb4c42582e7978daa999c3e"),
    ("wang", "lopass", "726e658bb64d65fa4423c624ce7e535d"),
    ("wang", "hlpower:0.5", "cd9f41d94711df5202bcf6b2d18b4ef5"),
];

/// Expected digests of the partial datapaths at width 4 (`GlitchSa`,
/// K = 4, as the SA table maps them), per unit type and port-A mux
/// size; each covers port-B mux sizes 1..=6.
const PARTIAL: [(FuType, usize, &str); 12] = [
    (FuType::AddSub, 1, "a4b086b731e90418201800133b2a8967"),
    (FuType::AddSub, 2, "3305cedd2b9ce043031f139813843f44"),
    (FuType::AddSub, 3, "9920448e9f2700544d2fec401eee7309"),
    (FuType::AddSub, 4, "fa46fd9a4487ed61613c86b7ebb09be0"),
    (FuType::AddSub, 5, "f14f9d66ea26fa7fea117c772aae5857"),
    (FuType::AddSub, 6, "028bc5e8d7771d5f7803b339ec103fd0"),
    (FuType::Mul, 1, "33582dc1018d910f4cc8cc699ad3084a"),
    (FuType::Mul, 2, "c4bf30090dc257bd51f74d94e88582b2"),
    (FuType::Mul, 3, "32ced0310ca72063377e260796183148"),
    (FuType::Mul, 4, "f0cafb827aea351da40966e91762c166"),
    (FuType::Mul, 5, "75a28883d904abbdb9dc180c67deda18"),
    (FuType::Mul, 6, "bd7ab50b304a784fd27b85bd0d1b4def"),
];

const OBJECTIVES: [MapObjective; 3] = [
    MapObjective::Depth,
    MapObjective::AreaFlow,
    MapObjective::GlitchSa,
];

/// Absorbs one mapping into `h`, after checking that its estimate is the
/// estimator's reading of its own netlist.
fn absorb(h: &mut Hasher128, mapped: &MappedNetlist, case: &str) {
    let report = analyze(&mapped.netlist, &ActivityConfig::uniform());
    assert_eq!(
        mapped.stats.estimated_sa.to_bits(),
        report.total_sa.to_bits(),
        "{case}: estimated_sa {} is not analyze's {}",
        mapped.stats.estimated_sa,
        report.total_sa
    );
    assert_eq!(
        mapped.stats.estimated_glitch_sa.to_bits(),
        report.glitch_sa.to_bits(),
        "{case}: estimated_glitch_sa {} is not analyze's {}",
        mapped.stats.estimated_glitch_sa,
        report.glitch_sa
    );
    h.write_bytes(&write_netlist_bin(&mapped.netlist));
    h.write_usize(mapped.stats.luts);
    h.write_u64(u64::from(mapped.stats.depth));
    h.write_f64(mapped.stats.estimated_sa);
    h.write_f64(mapped.stats.estimated_glitch_sa);
}

/// Binds one benchmark under `cfg`, then maps its datapath under every
/// `(control, objective)` variant, absorbing each mapping into `h`.
fn absorb_suite_case(
    h: &mut Hasher128,
    name: &str,
    spec: &str,
    cfg: &FlowConfig,
    table: &SaTable,
    variants: &[(ControlStyle, MapObjective)],
) {
    let profile = cdfg::profile(name).unwrap();
    let g = cdfg::generate(profile, profile.seed);
    let rc = paper_constraint(name).unwrap();
    let (sched, rb) = prepare(&g, &rc, cfg);
    let binder = Binder::parse(spec).unwrap();
    let outcome = bind(&g, &sched, &rb, &rc, binder, &mut table.handle());
    for &(control, map_objective) in variants {
        let cfg = FlowConfig {
            control,
            map_objective,
            ..cfg.clone()
        };
        let (_, mapped) = elaborate_map(&g, &sched, &rb, &outcome.fb, &cfg);
        let case = format!("{name} {spec} k={} {control:?} {map_objective:?}", cfg.k);
        absorb(h, &mapped, &case);
    }
}

/// Fails with the list of cases whose digest moved.
fn assert_none_moved(moved: Vec<String>) {
    assert!(moved.is_empty(), "mappings moved:\n{}", moved.join("\n"));
}

#[test]
fn paper_config_suite_datapaths() {
    let cfg = FlowConfig::default();
    let table = sa_table_for(&cfg, Binder::HlPower { alpha: 0.5 });
    let variants = [(cfg.control, cfg.map_objective)];
    let moved = PAPER
        .iter()
        .filter_map(|&(name, spec, want)| {
            let mut h = Hasher128::new("hlpower/test/mapper-golden/v1");
            absorb_suite_case(&mut h, name, spec, &cfg, &table, &variants);
            let got = h.finish().to_string();
            (got != want).then(|| format!("(\"{name}\", \"{spec}\", \"{got}\") want {want}"))
        })
        .collect();
    assert_none_moved(moved);
}

#[test]
fn fast_config_suite_datapaths_every_objective_control_and_k() {
    let variants: Vec<(ControlStyle, MapObjective)> = [ControlStyle::External, ControlStyle::Fsm]
        .iter()
        .flat_map(|&c| OBJECTIVES.iter().map(move |&o| (c, o)))
        .collect();
    let configs: Vec<FlowConfig> = [4, 6]
        .iter()
        .map(|&k| FlowConfig {
            k,
            ..FlowConfig::fast()
        })
        .collect();
    let tables: Vec<SaTable> = configs
        .iter()
        .map(|cfg| sa_table_for(cfg, Binder::HlPower { alpha: 0.5 }))
        .collect();
    let moved = FAST
        .iter()
        .filter_map(|&(name, spec, want)| {
            let mut h = Hasher128::new("hlpower/test/mapper-golden/v1");
            for (cfg, table) in configs.iter().zip(&tables) {
                absorb_suite_case(&mut h, name, spec, cfg, table, &variants);
            }
            let got = h.finish().to_string();
            (got != want).then(|| format!("(\"{name}\", \"{spec}\", \"{got}\") want {want}"))
        })
        .collect();
    assert_none_moved(moved);
}

#[test]
fn sa_table_partial_datapaths() {
    let moved = PARTIAL
        .iter()
        .filter_map(|&(fu, mux_a, want)| {
            let mut h = Hasher128::new("hlpower/test/mapper-golden/v1");
            for mux_b in 1..=6 {
                let nl = partial_datapath(fu, mux_a, mux_b, 4);
                let mapped = map(&nl, &MapConfig::new(4, MapObjective::GlitchSa));
                absorb(&mut h, &mapped, &format!("{fu} {mux_a}x{mux_b}"));
            }
            let got = h.finish().to_string();
            (got != want).then(|| format!("({fu:?}, {mux_a}, \"{got}\") want {want}"))
        })
        .collect();
    assert_none_moved(moved);
}
