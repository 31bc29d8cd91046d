//! Benchmark of the 4-LUT mapper on the mapping work of a cold
//! paper-configuration Table 3 run: the 14 suite datapaths (LOPASS and
//! HLPower(0.5) on the seven benchmarks), and the Figure 2 partial
//! datapaths behind the SA-table entries their binds compute. Both sets
//! are built outside the timed region. Writes `BENCH_map.json` at the
//! workspace root with the best-of-5 time of each set, its size, its
//! summed estimate, a digest of the mapped netlists and the host's core
//! count.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! timer.
//!
//! ```text
//! cargo bench -p hlpower-bench --bench mapping
//! ```

use cdfg::FuType;
use hlpower::fingerprint::Hasher128;
use hlpower::{
    elaborate, flow, partial_datapath, Binder, DatapathConfig, FlowConfig, SaSource, SaTable,
};
use mapper::{map, MapConfig, MapObjective, MappedNetlist};
use netlist::{write_netlist_bin, Netlist};
use std::time::Instant;

const ROUNDS: usize = 5;

/// An SA source that records the entries its binds had to compute: the
/// SA-table misses, each of which maps one partial datapath.
struct MissLog<'a> {
    table: &'a SaTable,
    misses: Vec<(FuType, usize, usize)>,
}

impl SaSource for MissLog<'_> {
    fn sa(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        if self.table.lookup(fu, mux_a, mux_b).is_none() {
            self.misses.push((fu, mux_a, mux_b));
        }
        self.table.get(fu, mux_a, mux_b)
    }
}

/// What one timed set of mappings produced: the best round's time and
/// the totals of its mappings.
struct MapSet {
    best_ms: f64,
    netlists: usize,
    nodes: usize,
    luts: usize,
    estimated_sa: f64,
    digest: String,
}

impl MapSet {
    fn json(&self) -> String {
        format!(
            "{{\"netlists\": {}, \"nodes\": {}, \"luts\": {}, \"estimated_sa\": {:.6}, \
             \"best_ms\": {:.3}, \"digest\": \"{}\"}}",
            self.netlists, self.nodes, self.luts, self.estimated_sa, self.best_ms, self.digest
        )
    }
}

/// Maps every netlist of `set` once per round and keeps the best round.
/// The digest covers each mapped netlist's bytes, LUT count, depth and
/// estimate bits, as `tests/mapper_golden.rs` does.
fn time_mapping(label: &str, set: &[Netlist], cfg: &MapConfig) -> MapSet {
    let mut best_ms = f64::INFINITY;
    let mut mapped: Vec<MappedNetlist> = Vec::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let round: Vec<MappedNetlist> = set.iter().map(|nl| map(nl, cfg)).collect();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        // The previous round is freed outside the timed region.
        mapped = round;
    }
    let mut h = Hasher128::new("hlpower/bench/map/v1");
    for m in &mapped {
        h.write_bytes(&write_netlist_bin(&m.netlist));
        h.write_usize(m.stats.luts);
        h.write_u64(u64::from(m.stats.depth));
        h.write_f64(m.stats.estimated_sa);
        h.write_f64(m.stats.estimated_glitch_sa);
    }
    let set = MapSet {
        best_ms,
        netlists: set.len(),
        nodes: set.iter().map(Netlist::num_nodes).sum(),
        luts: mapped.iter().map(|m| m.stats.luts).sum(),
        estimated_sa: mapped.iter().map(|m| m.stats.estimated_sa).sum(),
        digest: h.finish().to_string(),
    };
    println!(
        "{label:40} {:10.3} ms best of {ROUNDS}  ({} netlists, {} nodes, {} LUTs)",
        set.best_ms, set.netlists, set.nodes, set.luts
    );
    set
}

fn main() {
    let cfg = FlowConfig::default();
    let table = SaTable::new(cfg.sa_width, cfg.k).with_mode(cfg.sa_mode);
    let mut log = MissLog {
        table: &table,
        misses: Vec::new(),
    };
    let dp_cfg = DatapathConfig {
        width: cfg.width,
        control: cfg.control,
    };
    let mut suite = Vec::new();
    for p in &cdfg::PROFILES {
        let g = cdfg::generate(p, p.seed);
        let rc = hlpower::paper_constraint(p.name).expect("suite constraint");
        let (sched, rb) = flow::prepare(&g, &rc, &cfg);
        for binder in [Binder::Lopass, Binder::HlPower { alpha: 0.5 }] {
            let outcome = flow::bind(&g, &sched, &rb, &rc, binder, &mut log);
            suite.push(elaborate(&g, &sched, &rb, &outcome.fb, &dp_cfg).netlist);
        }
    }
    let partials: Vec<Netlist> = log
        .misses
        .iter()
        .map(|&(fu, a, b)| partial_datapath(fu, a, b, cfg.sa_width))
        .collect();
    let map_cfg = MapConfig::new(cfg.k, cfg.map_objective);
    let suite = time_mapping("mapping/paper_suite", &suite, &map_cfg);
    let sa_cfg = MapConfig::new(cfg.k, MapObjective::GlitchSa);
    let partials = time_mapping("mapping/paper_sa_partials", &partials, &sa_cfg);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"benchmark\": \"paper_cold_mapping\",\n  \"config\": \"paper\",\n  \
         \"k\": {},\n  \"objective\": \"{:?}\",\n  \"cores\": {cores},\n  \
         \"rounds\": {ROUNDS},\n  \"suite\": {},\n  \"sa_partials\": {}\n}}\n",
        cfg.k,
        cfg.map_objective,
        suite.json(),
        partials.json()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_map.json");
    std::fs::write(out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("mapping/record written to                {out}");
}
