//! End-to-end experiment flow (paper Section 6.1).
//!
//! One [`run_benchmark`] call reproduces the paper's per-benchmark
//! methodology: schedule the CDFG under the Table 2 resource constraint,
//! bind registers once (shared by every binder, as the paper shares
//! schedules and register bindings between LOPASS and HLPower), bind
//! functional units with the selected binder, elaborate the datapath,
//! technology-map it to 4-LUTs, simulate 1000 random vectors while the
//! control program walks the schedule, and evaluate the virtual
//! Cyclone II power model.
//!
//! This module is the *uncached* reference chain. Production entry
//! points go through [`crate::Pipeline`] (staged artifacts, shared SA
//! cache) and [`crate::Service`] (request/report API), optionally on top
//! of a local or remote [`crate::ArtifactStore`]; the byte-identity
//! guarantees of those layers are all defined as "equal to what this
//! module computes".

use crate::datapath::{elaborate, Datapath, DatapathConfig};
use crate::fubind::{bind_hlpower, FuBinding, HlPowerConfig};
use crate::lopass::{bind_lopass, bind_lopass_annealed, refine_lopass};
use crate::mux::{mux_report, MuxReport};
use crate::power::{PowerModel, PowerReport};
use crate::regbind::{bind_registers, RegBindConfig, RegisterBinding};
use crate::satable::{SaMode, SaSource, SaTable};
use cdfg::{
    list_schedule, Cdfg, FuType, LifetimeOptions, ResourceConstraint, ResourceLibrary, Schedule,
};
use gatesim::VectorSource;
use mapper::{map, MapConfig, MapObjective};
use std::time::{Duration, Instant};

/// Which binding algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Binder {
    /// The model of the paper's comparison baseline. The published LOPASS
    /// optimizes a placement-level interconnect estimate that does not
    /// resolve per-port multiplexer structure; its published binding
    /// solutions (paper Table 3 "Largest MUX" up to 26, Table 4 muxDiff
    /// mean up to 8.1) are statistically indistinguishable from
    /// mux-structure-agnostic binding. This binder therefore assigns
    /// operations first-fit in schedule order, so the baseline has the
    /// mux structure the paper's LOPASS numbers show rather than a
    /// stronger one the paper never compared against. The two stronger
    /// interconnect minimizers below are extension baselines (`binders`).
    Lopass,
    /// Greedy marginal-cost bipartite binder + local refinement: a
    /// *stronger* interconnect minimizer than the published system
    /// (extension baseline).
    LopassInterconnect,
    /// Simulated annealing over the global wire-count estimate from a
    /// first-fit start: the architecture of the published LOPASS system
    /// given a modern, exact connection-count objective (extension
    /// baseline).
    LopassAnnealed,
    /// HLPower with the given `α` (paper: 0.5 main result, 1.0 ablation).
    HlPower {
        /// Eq. 4 weighting coefficient.
        alpha: f64,
    },
    /// HLPower with zero-delay (glitch-blind) SA estimates — ablation of
    /// the glitch model itself.
    HlPowerZeroDelay {
        /// Eq. 4 weighting coefficient.
        alpha: f64,
    },
}

impl Binder {
    /// Short label used in tables.
    pub fn label(&self) -> String {
        match self {
            Binder::Lopass => "LOPASS".to_string(),
            Binder::LopassInterconnect => "LOPASS-ic".to_string(),
            Binder::LopassAnnealed => "LOPASS-sa".to_string(),
            Binder::HlPower { alpha } => format!("HLPower(a={alpha})"),
            Binder::HlPowerZeroDelay { alpha } => format!("HLPower-zd(a={alpha})"),
        }
    }

    /// The canonical machine-readable spec, the inverse of
    /// [`Binder::parse`]: `lopass`, `lopass-ic`, `lopass-sa`,
    /// `hlpower:A`, or `hlpower-zd:A`. α is printed with Rust's
    /// shortest-round-trip `f64` formatting, so `parse(spec())` is exact
    /// and re-serialization is byte-stable (the request-codec contract).
    pub fn spec(&self) -> String {
        match self {
            Binder::Lopass => "lopass".to_string(),
            Binder::LopassInterconnect => "lopass-ic".to_string(),
            Binder::LopassAnnealed => "lopass-sa".to_string(),
            Binder::HlPower { alpha } => format!("hlpower:{alpha}"),
            Binder::HlPowerZeroDelay { alpha } => format!("hlpower-zd:{alpha}"),
        }
    }

    /// Parses a binder spec: a name, optionally suffixed `:ALPHA` for
    /// the HLPower variants (default α = 0.5), e.g. `hlpower:1.0`. The
    /// LOPASS variants take no α and reject one — a silently ignored
    /// suffix would mislabel an experiment. α must be finite: a NaN or
    /// infinite Eq. 4 weight turns edge weights into NaN or ±∞, which
    /// the matcher cannot order.
    pub fn parse(spec: &str) -> Option<Binder> {
        let (name, alpha) = match spec.split_once(':') {
            Some((name, a)) => (name, Some(a.parse::<f64>().ok().filter(|a| a.is_finite())?)),
            None => (spec, None),
        };
        match name {
            "lopass" if alpha.is_none() => Some(Binder::Lopass),
            "lopass-ic" if alpha.is_none() => Some(Binder::LopassInterconnect),
            "lopass-sa" if alpha.is_none() => Some(Binder::LopassAnnealed),
            "hlpower" => Some(Binder::HlPower {
                alpha: alpha.unwrap_or(0.5),
            }),
            "hlpower-zd" => Some(Binder::HlPowerZeroDelay {
                alpha: alpha.unwrap_or(0.5),
            }),
            _ => None,
        }
    }
}

/// Flow parameters.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Datapath word width (paper-scale experiments use 16).
    pub width: usize,
    /// Width used for the SA precalculation table (smaller widths keep
    /// the table cheap; relative SA ordering across mux sizes is
    /// preserved).
    pub sa_width: usize,
    /// How SA-table entries are obtained for the main (glitch-aware)
    /// binders: [`SaMode::Precalculated`] (the paper's estimator, the
    /// default), [`SaMode::Dynamic`] (uncached estimator), or
    /// [`SaMode::Simulated`] (entries measured by the bit-sliced slab
    /// simulator). The zero-delay ablation binder always uses its own
    /// [`SaMode::ZeroDelayAblation`] cache regardless of this setting.
    pub sa_mode: SaMode,
    /// LUT size of the target FPGA (Cyclone II: 4).
    pub k: usize,
    /// Simulated clock cycles (the paper's 1000 random vectors).
    pub sim_cycles: u64,
    /// Seed for simulation vectors.
    pub sim_seed: u64,
    /// Simulation lanes: independent vector streams, lane `L` seeded via
    /// [`gatesim::lane_seed`]`(sim_seed, L)`. `0` and `1` both run the
    /// one stream on the scalar reference engine ([`gatesim::CycleSim`]);
    /// lane 0 is the scalar stream, so the two are the same run.
    /// `2..=512` ([`gatesim::MAX_SLAB_LANES`]) run the bit-sliced
    /// [`gatesim::SlabSim`] with `lanes.div_ceil(64)` words per node, the
    /// exact lane-decomposition of per-lane scalar runs — `lanes == 256`
    /// simulates a 256× vector budget in one activity-gated wheel pass
    /// per cycle.
    pub lanes: usize,
    /// Seed for the register binding's random port assignment (shared by
    /// all binders).
    pub port_seed: u64,
    /// Power/area/timing constants.
    pub power: PowerModel,
    /// Technology-mapping objective for the shared backend.
    pub map_objective: MapObjective,
    /// Resource latencies (the paper's experiments are single-cycle;
    /// multi-cycle latencies exercise its future-work discussion).
    pub library: ResourceLibrary,
    /// Controller style for elaborated datapaths.
    pub control: crate::datapath::ControlStyle,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            width: 16,
            sa_width: 8,
            sa_mode: SaMode::Precalculated,
            k: 4,
            sim_cycles: 1000,
            sim_seed: 42,
            lanes: 1,
            port_seed: 1,
            power: PowerModel::default(),
            map_objective: MapObjective::GlitchSa,
            library: ResourceLibrary::default(),
            control: crate::datapath::ControlStyle::External,
        }
    }
}

impl FlowConfig {
    /// A small, fast configuration for tests.
    pub fn fast() -> Self {
        FlowConfig {
            width: 4,
            sa_width: 4,
            sim_cycles: 100,
            ..FlowConfig::default()
        }
    }
}

/// What one binder run produced: the binding plus its cost accounting.
#[derive(Clone, Debug)]
pub struct BindOutcome {
    /// The functional-unit binding.
    pub fb: FuBinding,
    /// Wall-clock time of the binding stage (Table 2 "HLPower Runtime").
    pub bind_time: Duration,
    /// SA-table queries issued by this binding run. Deterministic for a
    /// given benchmark/binder/config — unlike wall-clock time — so
    /// experiment tables that must be byte-reproducible report this as
    /// their runtime proxy (each query is one partial-datapath estimate
    /// in the paper's Section 5.2.2 cost model).
    pub sa_queries: u64,
}

/// Everything measured for one benchmark × binder combination.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Benchmark name.
    pub name: String,
    /// Binder label.
    pub binder: String,
    /// Schedule length in control steps (Table 2 "Cycle").
    pub schedule_steps: u32,
    /// Instantiated register words (Table 2 "Reg").
    pub registers: usize,
    /// Allocated adder/subtractors.
    pub fus_addsub: usize,
    /// Allocated multipliers.
    pub fus_mul: usize,
    /// Whether the binding met the resource constraint.
    pub meets_constraint: bool,
    /// 4-LUT count after mapping (Table 3 "LUTs").
    pub luts: usize,
    /// Mapped depth in LUT levels.
    pub depth: u32,
    /// Estimated switching activity of the mapped netlist (Eq. 3).
    pub estimated_sa: f64,
    /// Mux statistics (Table 3 mux columns, Table 4).
    pub mux: MuxReport,
    /// Measured power/timing (Table 3, Figure 3).
    pub power: PowerReport,
    /// Wall-clock time of FU binding (Table 2 "HLPower Runtime").
    pub bind_time: Duration,
    /// SA-table queries issued while binding (deterministic runtime
    /// proxy; see [`BindOutcome::sa_queries`]).
    pub sa_queries: u64,
}

/// The paper's Table 2 resource constraints for the benchmark suite.
///
/// Returns `None` for unknown benchmark names.
pub fn paper_constraint(name: &str) -> Option<ResourceConstraint> {
    let (add, mul) = match name {
        "chem" => (9, 7),
        "dir" => (3, 2),
        "honda" => (4, 4),
        "mcm" => (4, 2),
        "pr" => (2, 2),
        "steam" => (7, 6),
        "wang" => (2, 2),
        _ => return None,
    };
    Some(ResourceConstraint::new(add, mul))
}

/// Schedules and register-binds a benchmark (the part shared by all
/// binders).
pub fn prepare(
    cdfg: &Cdfg,
    rc: &ResourceConstraint,
    cfg: &FlowConfig,
) -> (Schedule, RegisterBinding) {
    let sched = list_schedule(cdfg, &cfg.library, rc);
    let rb = bind_registers(
        cdfg,
        &sched,
        &RegBindConfig {
            lifetime: LifetimeOptions {
                latch_inputs: false,
            },
            seed: cfg.port_seed,
        },
    );
    (sched, rb)
}

/// Counts the SA queries a binding run issues against any underlying
/// source — the deterministic runtime proxy in [`BindOutcome`].
struct CountingSa<'a, S: SaSource + ?Sized> {
    inner: &'a mut S,
    queries: u64,
}

impl<S: SaSource + ?Sized> SaSource for CountingSa<'_, S> {
    fn sa(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        self.queries += 1;
        self.inner.sa(fu, mux_a, mux_b)
    }
}

/// Runs one binder on an already-prepared benchmark.
///
/// `table` may be a private [`SaTable`] or a
/// [`crate::satable::SharedSaRef`] onto the pipeline's cross-job cache;
/// the binding result is identical either way.
pub fn bind<S: SaSource + ?Sized>(
    cdfg: &Cdfg,
    sched: &Schedule,
    rb: &RegisterBinding,
    rc: &ResourceConstraint,
    binder: Binder,
    table: &mut S,
) -> BindOutcome {
    let mut table = CountingSa {
        inner: table,
        queries: 0,
    };
    let start = Instant::now();
    let fb = match binder {
        Binder::Lopass => crate::lopass::bind_first_fit(cdfg, sched, rc),
        Binder::LopassAnnealed => bind_lopass_annealed(cdfg, sched, rb, rc, 7),
        Binder::LopassInterconnect => {
            let base = bind_lopass(cdfg, sched, rb, rc);
            refine_lopass(cdfg, sched, rb, base, 5)
        }
        Binder::HlPower { alpha } | Binder::HlPowerZeroDelay { alpha } => {
            // β adjusts the muxDiff term's size relative to SA (paper:
            // "based on empirical study β ≈ 30 for add operations and 1000
            // for mult" — i.e. the SA scale of a typical partial
            // datapath). Merged-node SA grows as binding progresses, so
            // the calibration point is the *expected final* mux size:
            // about two thirds of the per-unit operation count.
            let beta_at = |ty: FuType, table: &mut CountingSa<'_, S>| -> f64 {
                let ops = cdfg.op_count(ty).max(1);
                let per_fu = ops.div_ceil(rc.limit(ty).max(1));
                let s = (per_fu * 2 / 3).clamp(2, 16);
                table.sa(ty, s, s)
            };
            let beta_addsub = beta_at(FuType::AddSub, &mut table);
            let beta_mul = beta_at(FuType::Mul, &mut table);
            let cfg = HlPowerConfig {
                alpha,
                beta_addsub,
                beta_mul,
            };
            let (fb, _) = bind_hlpower(cdfg, sched, rb, rc, &mut table, &cfg);
            fb
        }
    };
    BindOutcome {
        fb,
        bind_time: start.elapsed(),
        sa_queries: table.queries,
    }
}

/// Builds the SA table a binder needs for a flow configuration: the
/// zero-delay ablation binder gets its dedicated glitch-blind mode,
/// every other binder gets `cfg.sa_mode` (estimator or bit-sliced
/// simulation).
pub fn sa_table_for(cfg: &FlowConfig, binder: Binder) -> SaTable {
    let mode = match binder {
        Binder::HlPowerZeroDelay { .. } => SaMode::ZeroDelayAblation,
        _ => cfg.sa_mode,
    };
    SaTable::new(cfg.sa_width, cfg.k).with_mode(mode)
}

/// Full flow for one benchmark and binder: bind, elaborate, map,
/// simulate, evaluate.
///
/// This is the one-shot convenience entry point; experiment drivers that
/// run several binders or α values per benchmark should use
/// [`crate::pipeline::Pipeline`], which computes the shared
/// schedule/register-binding artifacts once and pools SA estimates
/// across jobs.
pub fn run_benchmark(
    cdfg: &Cdfg,
    rc: &ResourceConstraint,
    binder: Binder,
    cfg: &FlowConfig,
) -> FlowResult {
    let (sched, rb) = prepare(cdfg, rc, cfg);
    let mut table = sa_table_for(cfg, binder);
    let outcome = bind(cdfg, &sched, &rb, rc, binder, &mut table);
    measure(cdfg, &sched, &rb, &outcome, rc, binder, cfg)
}

/// Elaborates a bound datapath and technology-maps it — the expensive
/// backend stages ahead of simulation, exposed as one unit so the
/// pipeline's artifact store can cache the mapped netlist keyed by
/// binding fingerprint (see [`crate::store`]).
pub fn elaborate_map(
    cdfg: &Cdfg,
    sched: &Schedule,
    rb: &RegisterBinding,
    fb: &crate::fubind::FuBinding,
    cfg: &FlowConfig,
) -> (Datapath, mapper::MappedNetlist) {
    let dp = elaborate(
        cdfg,
        sched,
        rb,
        fb,
        &DatapathConfig {
            width: cfg.width,
            control: cfg.control,
        },
    );
    let mapped = map(&dp.netlist, &MapConfig::new(cfg.k, cfg.map_objective));
    (dp, mapped)
}

/// Number of toggling-capable nets of a mapped netlist (LUT outputs,
/// registers, input pins) — the denominator of the Figure 3 toggle rate.
pub fn num_nets(luts: usize, mapped: &netlist::Netlist) -> usize {
    luts + mapped.num_latches() + mapped.inputs().len()
}

/// Assembles a [`FlowResult`] from the measured backend pieces. Shared
/// by [`measure`] and the store-backed pipeline path so cached and
/// freshly computed artifacts produce bit-identical result rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_result(
    cdfg: &Cdfg,
    sched: &Schedule,
    outcome: &BindOutcome,
    rc: &ResourceConstraint,
    binder: Binder,
    mux: MuxReport,
    backend: &crate::store::MappedArtifact,
    stats: &gatesim::SimStats,
    cfg: &FlowConfig,
) -> FlowResult {
    let fb = &outcome.fb;
    let nets = num_nets(backend.luts, &backend.netlist);
    let power = cfg.power.evaluate(stats, backend.depth, nets);
    FlowResult {
        name: cdfg.name().to_string(),
        binder: binder.label(),
        schedule_steps: sched.num_steps,
        registers: backend.registers,
        fus_addsub: fb.count(FuType::AddSub),
        fus_mul: fb.count(FuType::Mul),
        meets_constraint: fb.meets(rc),
        luts: backend.luts,
        depth: backend.depth,
        estimated_sa: backend.estimated_sa,
        mux,
        power,
        bind_time: outcome.bind_time,
        sa_queries: outcome.sa_queries,
    }
}

/// Measures an existing binding through the backend (exposed separately
/// so ablations can reuse one binding under several backends).
pub fn measure(
    cdfg: &Cdfg,
    sched: &Schedule,
    rb: &RegisterBinding,
    outcome: &BindOutcome,
    rc: &ResourceConstraint,
    binder: Binder,
    cfg: &FlowConfig,
) -> FlowResult {
    let mux = mux_report(cdfg, rb, &outcome.fb);
    let (dp, mapped) = elaborate_map(cdfg, sched, rb, &outcome.fb, cfg);
    let stats = simulate(&dp, &mapped.netlist, cfg);
    let backend = crate::store::MappedArtifact::from_mapped(mapped, dp.registers);
    assemble_result(cdfg, sched, outcome, rc, binder, mux, &backend, &stats, cfg)
}

/// Simulates `cfg.sim_cycles` cycles of the mapped datapath: a fresh
/// random vector on the data pins **every clock cycle** — the paper's
/// `.vwf` methodology — while the control program cycles through the
/// schedule. The registered inputs turn the pin noise into an identical
/// background for every binding, so differences reflect the bound
/// datapath's structure.
///
/// Dispatches on `cfg.lanes`: `0` or `1` runs the one vector stream on
/// the scalar reference engine ([`simulate_scalar`]); `2..=512` runs the
/// bit-sliced slab engine ([`simulate_slab`]). Lane 0 of a slab run
/// replays the scalar vector stream, and every slab lane replays the
/// scalar run seeded [`gatesim::lane_seed`]`(sim_seed, L)`.
pub fn simulate(dp: &Datapath, mapped: &netlist::Netlist, cfg: &FlowConfig) -> gatesim::SimStats {
    if cfg.lanes <= 1 {
        simulate_scalar(dp, mapped, cfg)
    } else {
        simulate_slab(dp, mapped, cfg, cfg.lanes)
    }
}

fn width_mask(width: usize) -> u64 {
    // Same bug class as the gatesim word helpers: a datapath wider than
    // 64 bits would shift-overflow in `pack_bits` (and in every
    // `word`/`set_word` bus access downstream), so refuse it loudly.
    assert!(
        width <= 64,
        "datapath width limited to 64 bits, got {width}"
    );
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn pack_bits(bits: &[bool], mask: u64) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
        & mask
}

/// The scalar reference implementation of [`simulate`] on
/// [`gatesim::CycleSim`] — one vector stream, one bool per node.
pub fn simulate_scalar(
    dp: &Datapath,
    mapped: &netlist::Netlist,
    cfg: &FlowConfig,
) -> gatesim::SimStats {
    let mut sim = gatesim::CycleSim::new(mapped);
    let mut src = VectorSource::new(cfg.sim_seed);
    let mask = width_mask(cfg.width);
    let mut data: Vec<u64> = vec![0; dp.data_ports.len()];
    // Reused scratch, as in the slab driver: a cycle draws and packs
    // without allocating.
    let mut bits = vec![false; cfg.width];
    let mut pi = vec![false; mapped.inputs().len()];
    for c in 0..cfg.sim_cycles {
        let step = (c % dp.num_steps as u64) as u32;
        for d in &mut data {
            src.fill(&mut bits);
            *d = pack_bits(&bits, mask);
        }
        dp.fill_input_vector(step, &data, &mut pi);
        sim.step(&pi);
    }
    sim.stats().clone()
}

/// The bit-sliced implementation of [`simulate`] on
/// [`gatesim::SlabSim`]: `lanes` (up to [`gatesim::MAX_SLAB_LANES`])
/// independent vector streams advance in one activity-gated event-wheel
/// pass per clock cycle. Global lane `L` (slab word `L / 64`, bit
/// `L % 64`) draws its data-pin noise from
/// [`gatesim::lane_seed`]`(cfg.sim_seed, L)` in the exact per-cycle order
/// of the scalar engine, and the schedule-driven control pins are
/// identical across lanes — so every lane is a faithful replay of a
/// scalar run, and the cumulative statistics cover
/// `cfg.sim_cycles × lanes` lane-cycles.
pub fn simulate_slab(
    dp: &Datapath,
    mapped: &netlist::Netlist,
    cfg: &FlowConfig,
    lanes: usize,
) -> gatesim::SimStats {
    assert!(
        lanes <= gatesim::MAX_SLAB_LANES,
        "lanes limited to {}, got {lanes}",
        gatesim::MAX_SLAB_LANES
    );
    match lanes.div_ceil(64) {
        1 => simulate_slab_width::<1>(dp, mapped, cfg, lanes),
        2 => simulate_slab_width::<2>(dp, mapped, cfg, lanes),
        3 => simulate_slab_width::<3>(dp, mapped, cfg, lanes),
        4 => simulate_slab_width::<4>(dp, mapped, cfg, lanes),
        5 => simulate_slab_width::<5>(dp, mapped, cfg, lanes),
        6 => simulate_slab_width::<6>(dp, mapped, cfg, lanes),
        7 => simulate_slab_width::<7>(dp, mapped, cfg, lanes),
        8 => simulate_slab_width::<8>(dp, mapped, cfg, lanes),
        _ => unreachable!("lane bound checked above"),
    }
}

fn simulate_slab_width<const W: usize>(
    dp: &Datapath,
    mapped: &netlist::Netlist,
    cfg: &FlowConfig,
    lanes: usize,
) -> gatesim::SimStats {
    let mut sim = gatesim::SlabSim::<W>::new(mapped, lanes);
    // One stream per global lane, seeded by the SlabVectorSource contract
    // (lane 0 == the scalar stream). Data-port values are drawn per lane
    // in the scalar engine's per-cycle order, then the resulting scalar
    // PI vectors are packed one bit per lane into input-major slabs.
    let mut src = gatesim::SlabVectorSource::new(cfg.sim_seed, lanes);
    let mask = width_mask(cfg.width);
    let mut data: Vec<u64> = vec![0; dp.data_ports.len()];
    let mut slabs: Vec<u64> = vec![0; mapped.inputs().len() * W];
    // Reused scratch: drawing 512 lanes x data_ports vectors per cycle
    // must not allocate, or PI generation would dominate the event-wheel
    // savings.
    let mut bits = vec![false; cfg.width];
    let mut pi = vec![false; mapped.inputs().len()];
    for c in 0..cfg.sim_cycles {
        let step = (c % dp.num_steps as u64) as u32;
        slabs.fill(0);
        for lane in 0..lanes {
            let (w, bit) = (lane / 64, lane % 64);
            for d in &mut data {
                // Same per-port draw order as the scalar engine.
                src.lane(lane).fill(&mut bits);
                *d = pack_bits(&bits, mask);
            }
            dp.fill_input_vector(step, &data, &mut pi);
            for (i, &b) in pi.iter().enumerate() {
                slabs[i * W + w] |= (b as u64) << bit;
            }
        }
        sim.step(&slabs);
    }
    sim.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_flow_runs_both_binders_on_pr() {
        let p = cdfg::profile("pr").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("pr").unwrap();
        let cfg = FlowConfig::fast();
        let lop = run_benchmark(&g, &rc, Binder::Lopass, &cfg);
        let hlp = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &cfg);
        assert!(lop.meets_constraint && hlp.meets_constraint);
        assert_eq!(lop.schedule_steps, hlp.schedule_steps, "shared schedule");
        assert_eq!(lop.registers, hlp.registers, "shared register binding");
        assert_eq!(lop.fus_addsub, hlp.fus_addsub);
        assert_eq!(lop.fus_mul, hlp.fus_mul);
        assert!(lop.luts > 0 && hlp.luts > 0);
        assert!(lop.power.dynamic_power_mw > 0.0);
        assert!(hlp.power.dynamic_power_mw > 0.0);
        assert!(lop.power.glitch_fraction > 0.0, "datapaths glitch");
    }

    #[test]
    fn paper_constraints_cover_suite() {
        for p in cdfg::PROFILES {
            assert!(paper_constraint(p.name).is_some(), "{}", p.name);
        }
        assert!(paper_constraint("nope").is_none());
    }

    #[test]
    fn results_are_deterministic() {
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig::fast();
        let a = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &cfg);
        let b = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &cfg);
        assert_eq!(a.luts, b.luts);
        assert_eq!(a.power.total_transitions, b.power.total_transitions);
        assert_eq!(a.mux, b.mux);
    }

    #[test]
    fn fsm_control_flow_runs() {
        // Every suite benchmark: chem, dir, honda, mcm and steam schedule
        // over more than 16 steps, so their control ROMs span 5–7 state
        // bits and must be split into mappable 4-input nodes.
        let ext_cfg = FlowConfig {
            sim_cycles: 40,
            ..FlowConfig::fast()
        };
        let cfg = FlowConfig {
            control: crate::datapath::ControlStyle::Fsm,
            ..ext_cfg.clone()
        };
        for p in cdfg::PROFILES.iter() {
            let g = cdfg::generate(p, p.seed);
            let rc = paper_constraint(p.name).unwrap();
            let r = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &cfg);
            assert!(r.meets_constraint, "{}", p.name);
            assert!(r.power.dynamic_power_mw > 0.0, "{}", p.name);
            // The FSM adds its counter/ROM logic on top of the datapath.
            let ext = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &ext_cfg);
            assert!(
                r.luts > ext.luts,
                "{}: FSM controller costs LUTs: {} vs {}",
                p.name,
                r.luts,
                ext.luts
            );
        }
    }

    #[test]
    fn multicycle_multiplier_flow_runs() {
        // The paper's future-work scenario: 2-cycle multipliers. The
        // schedule stretches and the binders must respect occupancy.
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let single = FlowConfig::fast();
        let multi = FlowConfig {
            library: ResourceLibrary {
                addsub_latency: 1,
                mul_latency: 2,
            },
            ..FlowConfig::fast()
        };
        let r1 = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &single);
        let r2 = run_benchmark(&g, &rc, Binder::HlPower { alpha: 0.5 }, &multi);
        assert!(
            r2.schedule_steps > r1.schedule_steps,
            "2-cycle multipliers stretch the schedule: {} vs {}",
            r2.schedule_steps,
            r1.schedule_steps
        );
        assert!(r2.fus_mul <= rc.mul || !r2.meets_constraint);
        // Functional check: the multi-cycle datapath still computes the
        // CDFG (inputs held across each multiplier's occupancy).
        let (sched, rb) = prepare(&g, &rc, &multi);
        let binder = Binder::HlPower { alpha: 0.5 };
        let mut table = sa_table_for(&multi, binder);
        let outcome = bind(&g, &sched, &rb, &rc, binder, &mut table);
        let dp = crate::datapath::elaborate(
            &g,
            &sched,
            &rb,
            &outcome.fb,
            &DatapathConfig::with_width(4),
        );
        let data: Vec<u64> = (0..g.inputs().len() as u64).collect();
        assert_eq!(
            crate::datapath::execute(&dp, &dp.netlist, &data),
            g.evaluate(&data, 4)
        );
    }

    #[test]
    fn word_engine_at_one_lane_matches_scalar_engine() {
        // The paper tables all run one vector stream, which `lanes = 1`
        // dispatches to the scalar reference engine. The one-word slab
        // engine at one lane must replay that stream node for node, and
        // the `lanes = 1` and `lanes = 0` flows must agree in full.
        let p = cdfg::profile("pr").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("pr").unwrap();
        let scalar_cfg = FlowConfig {
            lanes: 0,
            ..FlowConfig::fast()
        };
        let one_lane_cfg = FlowConfig {
            lanes: 1,
            ..FlowConfig::fast()
        };
        let binder = Binder::HlPower { alpha: 0.5 };
        let s = run_benchmark(&g, &rc, binder, &scalar_cfg);
        let w = run_benchmark(&g, &rc, binder, &one_lane_cfg);
        assert_eq!(s.power.total_transitions, w.power.total_transitions);
        assert_eq!(s.power.glitch_fraction, w.power.glitch_fraction);
        assert_eq!(s.power.dynamic_power_mw, w.power.dynamic_power_mw);
        assert_eq!(s.luts, w.luts);

        let (sched, rb) = prepare(&g, &rc, &one_lane_cfg);
        let mut table = sa_table_for(&one_lane_cfg, binder);
        let outcome = bind(&g, &sched, &rb, &rc, binder, &mut table);
        let (dp, mapped) = elaborate_map(&g, &sched, &rb, &outcome.fb, &one_lane_cfg);
        let scalar = simulate_scalar(&dp, &mapped.netlist, &one_lane_cfg);
        let word = simulate_slab(&dp, &mapped.netlist, &one_lane_cfg, 1);
        assert_eq!(word.cycles, scalar.cycles);
        assert_eq!(word.total_transitions, scalar.total_transitions);
        assert_eq!(word.functional_transitions, scalar.functional_transitions);
        assert_eq!(word.glitch_transitions, scalar.glitch_transitions);
        assert_eq!(word.per_node, scalar.per_node);
    }

    #[test]
    fn multi_lane_simulation_scales_the_vector_budget() {
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg1 = FlowConfig::fast();
        let cfg8 = FlowConfig {
            lanes: 8,
            ..FlowConfig::fast()
        };
        let binder = Binder::HlPower { alpha: 0.5 };
        let r1 = run_benchmark(&g, &rc, binder, &cfg1);
        let r8a = run_benchmark(&g, &rc, binder, &cfg8);
        let r8b = run_benchmark(&g, &rc, binder, &cfg8);
        // 8 lanes simulate 8x the lane-cycles of one lane...
        assert!(r8a.power.total_transitions > 4 * r1.power.total_transitions);
        // ...deterministically for a fixed seed...
        assert_eq!(r8a.power.total_transitions, r8b.power.total_transitions);
        assert_eq!(r8a.power.glitch_fraction, r8b.power.glitch_fraction);
        // ...and the per-cycle-normalized power stays in the same regime
        // (more vectors tighten the estimate, they don't rescale it).
        let ratio = r8a.power.dynamic_power_mw / r1.power.dynamic_power_mw;
        assert!((0.5..2.0).contains(&ratio), "power ratio {ratio}");
    }

    #[test]
    fn slab_simulation_scales_past_64_lanes() {
        // Above 64 lanes `simulate` dispatches to the multi-word slab
        // engine; the full flow must stay deterministic and the vector
        // budget must scale with the lane count.
        let p = cdfg::profile("pr").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("pr").unwrap();
        let cfg64 = FlowConfig {
            lanes: 64,
            sim_cycles: 50,
            ..FlowConfig::fast()
        };
        let cfg256 = FlowConfig {
            lanes: 256,
            sim_cycles: 50,
            ..FlowConfig::fast()
        };
        let binder = Binder::HlPower { alpha: 0.5 };
        let r64 = run_benchmark(&g, &rc, binder, &cfg64);
        let a = run_benchmark(&g, &rc, binder, &cfg256);
        let b = run_benchmark(&g, &rc, binder, &cfg256);
        assert_eq!(a.power.total_transitions, b.power.total_transitions);
        assert_eq!(a.power.glitch_fraction, b.power.glitch_fraction);
        // 256 lanes simulate 4x the lane-cycles of 64.
        assert!(a.power.total_transitions > 2 * r64.power.total_transitions);
        let ratio = a.power.dynamic_power_mw / r64.power.dynamic_power_mw;
        assert!((0.5..2.0).contains(&ratio), "power ratio {ratio}");
    }

    #[test]
    fn slab_flow_decomposes_into_scalar_flow_lanes() {
        // The flow-level lane contract: lane L of a slab simulation is
        // the scalar flow run with `sim_seed = lane_seed(sim_seed, L)`,
        // data pins and control program included. A 66-lane run (two
        // slab words, the second partial) must equal the sum of its 66
        // scalar lane runs stat for stat.
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig {
            sim_cycles: 40,
            ..FlowConfig::fast()
        };
        let binder = Binder::HlPower { alpha: 0.5 };
        let (sched, rb) = prepare(&g, &rc, &cfg);
        let mut table = sa_table_for(&cfg, binder);
        let outcome = bind(&g, &sched, &rb, &rc, binder, &mut table);
        let (dp, mapped) = elaborate_map(&g, &sched, &rb, &outcome.fb, &cfg);
        let lanes = 66;
        let slab = simulate_slab(&dp, &mapped.netlist, &cfg, lanes);
        let mut sum = gatesim::SimStats {
            per_node: vec![0; mapped.netlist.num_nodes()],
            ..gatesim::SimStats::default()
        };
        for lane in 0..lanes {
            let lane_cfg = FlowConfig {
                sim_seed: gatesim::lane_seed(cfg.sim_seed, lane),
                ..cfg.clone()
            };
            let s = simulate_scalar(&dp, &mapped.netlist, &lane_cfg);
            sum.cycles += s.cycles;
            sum.total_transitions += s.total_transitions;
            sum.functional_transitions += s.functional_transitions;
            sum.glitch_transitions += s.glitch_transitions;
            for (acc, x) in sum.per_node.iter_mut().zip(&s.per_node) {
                *acc += x;
            }
        }
        assert_eq!(slab.cycles, sum.cycles);
        assert_eq!(slab.total_transitions, sum.total_transitions);
        assert_eq!(slab.functional_transitions, sum.functional_transitions);
        assert_eq!(slab.glitch_transitions, sum.glitch_transitions);
        assert_eq!(slab.per_node, sum.per_node);
    }

    #[test]
    fn simulated_sa_mode_binds_end_to_end() {
        // Edge weights measured by the slab simulator instead of the
        // analytic estimator must drive the full flow.
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig {
            sa_mode: SaMode::Simulated,
            ..FlowConfig::fast()
        };
        let binder = Binder::HlPower { alpha: 0.5 };
        assert_eq!(sa_table_for(&cfg, binder).mode(), SaMode::Simulated);
        let r = run_benchmark(&g, &rc, binder, &cfg);
        assert!(r.meets_constraint);
        assert!(r.sa_queries > 0, "binding must query the simulated table");
        // The zero-delay ablation keeps its dedicated mode regardless.
        let zd = Binder::HlPowerZeroDelay { alpha: 0.5 };
        assert_eq!(sa_table_for(&cfg, zd).mode(), SaMode::ZeroDelayAblation);
    }

    #[test]
    fn zero_delay_ablation_runs() {
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig::fast();
        let r = run_benchmark(&g, &rc, Binder::HlPowerZeroDelay { alpha: 0.5 }, &cfg);
        assert!(r.meets_constraint);
        assert!(r.binder.contains("zd"));
    }
}
