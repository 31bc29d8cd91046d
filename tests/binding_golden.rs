//! Golden digests of every binding that runs on the bipartite matcher.
//!
//! Register binding, LOPASS-ic and every HLPower variant solve their
//! assignments with `hlpower::matching`. These digests pin what they
//! produce across the benchmark suite, so a change to the solver or to
//! Eq. 4's weight computation that moves any binding fails here and
//! names the case. Each digest covers the register binding (`reg_of`,
//! `swap`) and, per binder, the FU of every operation plus the number of
//! SA-table queries the run issued (a field of every report).
//!
//! `lopass` and `lopass-sa` are left out: neither calls the matcher.
//!
//! One SA cache per estimation mode is shared by all cases of a test.
//! Cached and fresh tables give identical estimates, and sharing keeps
//! the sweep affordable in a debug build.

use hlpower::fingerprint::Hasher128;
use hlpower::flow::{bind, prepare};
use hlpower::{paper_constraint, Binder, FlowConfig, SaMode, SaTable};

/// The binders that reach the matcher.
const MATCHER_BINDERS: [&str; 5] = [
    "lopass-ic",
    "hlpower:0",
    "hlpower:0.5",
    "hlpower:1",
    "hlpower-zd:0.5",
];

/// Expected digests at `FlowConfig::fast()`, port seed 1.
const FAST_PORT_SEED_1: [(&str, &str); 7] = [
    ("chem", "0858043f1f21f43e437adac7ab9d3084"),
    ("dir", "c97740b7be4192e739c862ca405fffc6"),
    ("honda", "7dc6f475dbf832884ee6a396ee4d68e8"),
    ("mcm", "7ae25e0214162d1ae7db53fb9b62adcb"),
    ("pr", "f27be432a72ea1868880d70ee269ed73"),
    ("steam", "187a69b8b68dbbfd201b32ae122e6cff"),
    ("wang", "bf6c4c407da7fddc86834fa14182eb61"),
];

/// Expected digests at `FlowConfig::fast()`, port seed 2.
const FAST_PORT_SEED_2: [(&str, &str); 7] = [
    ("chem", "4e5053bfb8c0b88a424429939cccac99"),
    ("dir", "5b6f13a5c0b2466697816a10fbebd019"),
    ("honda", "7a840b0d28ce0ee136253217156ff803"),
    ("mcm", "dbbd67446bcd9da77ea7f1bd5487e69d"),
    ("pr", "818fa7404a267b4a100ca976b277f590"),
    ("steam", "028b8717f554634a1062d45185af6e82"),
    ("wang", "47f20730f9da42b2e864e1c53b971764"),
];

/// Expected digests of `hlpower:0.5` at the paper configuration.
const PAPER_HLPOWER: [(&str, &str); 7] = [
    ("chem", "43567e8c814187ff9631367440c323cc"),
    ("dir", "5340b806d44837eec8f753aa4b421ee9"),
    ("honda", "4fc16ee41918fbfd9a27f730b6a3fda6"),
    ("mcm", "99ea008ba10c65d1ae680c66e51104ca"),
    ("pr", "c7e7195a85e445f9b55c476dad559b3a"),
    ("steam", "ef6a43aebc5799948eef6e4c13c60e30"),
    ("wang", "645443312af26f3d915b9f0e3be0b23e"),
];

/// The SA caches of one flow configuration: the glitch-aware mode for
/// every binder but the zero-delay ablation, which has its own.
struct Tables {
    glitch: SaTable,
    zero_delay: SaTable,
}

impl Tables {
    fn new(cfg: &FlowConfig) -> Self {
        Tables {
            glitch: SaTable::new(cfg.sa_width, cfg.k).with_mode(cfg.sa_mode),
            zero_delay: SaTable::new(cfg.sa_width, cfg.k).with_mode(SaMode::ZeroDelayAblation),
        }
    }

    fn for_binder(&self, binder: Binder) -> &SaTable {
        match binder {
            Binder::HlPowerZeroDelay { .. } => &self.zero_delay,
            _ => &self.glitch,
        }
    }
}

/// Digest of one benchmark's register binding and its bindings under
/// `binders`.
fn digest(name: &str, cfg: &FlowConfig, binders: &[&str], tables: &Tables) -> String {
    let profile = cdfg::profile(name).unwrap();
    let g = cdfg::generate(profile, profile.seed);
    let rc = paper_constraint(name).unwrap();
    let (sched, rb) = prepare(&g, &rc, cfg);
    let mut h = Hasher128::new("hlpower/test/binding-golden/v1");
    h.write_usize(rb.reg_of.len());
    for &r in &rb.reg_of {
        h.write_usize(r);
    }
    h.write_usize(rb.swap.len());
    for &s in &rb.swap {
        h.write_u64(s as u64);
    }
    for spec in binders {
        let binder = Binder::parse(spec).unwrap();
        let mut source = tables.for_binder(binder).handle();
        let outcome = bind(&g, &sched, &rb, &rc, binder, &mut source);
        h.write_str(spec);
        h.write_usize(outcome.fb.fu_of.len());
        for &fu in &outcome.fb.fu_of {
            h.write_usize(fu);
        }
        h.write_u64(outcome.sa_queries);
    }
    h.finish().to_string()
}

/// Digests every benchmark of `expected` and fails with the list of
/// cases whose digest moved.
fn check(label: &str, cfg: &FlowConfig, binders: &[&str], expected: &[(&str, &str)]) {
    let tables = Tables::new(cfg);
    let moved: Vec<String> = expected
        .iter()
        .filter_map(|&(name, want)| {
            let got = digest(name, cfg, binders, &tables);
            (got != want).then(|| format!("{name} {label}: expected {want}, got {got}"))
        })
        .collect();
    assert!(moved.is_empty(), "bindings moved:\n{}", moved.join("\n"));
}

#[test]
fn fast_config_port_seed_1() {
    let cfg = FlowConfig {
        port_seed: 1,
        ..FlowConfig::fast()
    };
    check(
        "fast port_seed=1",
        &cfg,
        &MATCHER_BINDERS,
        &FAST_PORT_SEED_1,
    );
}

#[test]
fn fast_config_port_seed_2() {
    let cfg = FlowConfig {
        port_seed: 2,
        ..FlowConfig::fast()
    };
    check(
        "fast port_seed=2",
        &cfg,
        &MATCHER_BINDERS,
        &FAST_PORT_SEED_2,
    );
}

#[test]
fn paper_config_hlpower() {
    check(
        "paper hlpower:0.5",
        &FlowConfig::default(),
        &["hlpower:0.5"],
        &PAPER_HLPOWER,
    );
}
