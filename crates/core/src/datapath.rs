//! Datapath elaboration: bound CDFG → gate-level netlist.
//!
//! This is the reproduction's "CDFG to VHDL tool" (paper Section 6.1):
//! given a scheduled CDFG, register binding, and FU binding, it
//! instantiates registers, input multiplexer trees, and functional units
//! (adder/subtractors, array multipliers) as gate-level logic in the
//! shared [`netlist::Netlist`] IR, along with the per-control-step values
//! of every mux select, register enable, and ALU mode signal.
//!
//! Control signals are primary inputs driven by the testbench from the
//! schedule (the [`ControlProgram`]); the datapath itself — the part the
//! binding algorithm shapes and the paper measures — is fully elaborated.
//! Benchmark inputs are read from input ports (streaming style) and
//! results are captured in registers, so an iteration of the schedule
//! computes exactly the CDFG function; [`Datapath::output_ports`] exposes
//! where to read the results.
//!
//! ## Timing model
//!
//! During control step `s` every FU computes combinationally on the
//! sources selected for the operation it executes at `s`; the result is
//! captured into the destination register at the clock edge ending step
//! `s` (so a variable with birth step `b` is written at the edge entering
//! `b`, matching the lifetime analysis). Idle FUs hold their previous
//! select values to avoid spurious input toggling — the same behaviour a
//! hold-state FSM would synthesize to.

use crate::fubind::FuBinding;
use crate::mux::{port_sources, register_sources, source_of, Source};
use crate::regbind::RegisterBinding;
use cdfg::{Cdfg, FuType, OpKind, Schedule, VarSource};
use netlist::{cells, Netlist, NodeId};

/// How the datapath's control signals are produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ControlStyle {
    /// Control signals are primary inputs driven by the testbench from the
    /// [`ControlProgram`] (the default; both binders share the identical
    /// control plane, so comparisons are unaffected).
    #[default]
    External,
    /// A synthesized on-chip controller: a binary step counter with wrap,
    /// a synchronous `reset` input, and one ROM per control signal
    /// decoding the counter state (built from nodes of at most 4 inputs)
    /// — the FSM the paper's VHDL designs carried.
    Fsm,
}

/// Elaboration parameters.
#[derive(Clone, Copy, Debug)]
pub struct DatapathConfig {
    /// Datapath word width in bits.
    pub width: usize,
    /// Controller style (external control inputs or an on-chip FSM).
    pub control: ControlStyle,
}

impl Default for DatapathConfig {
    fn default() -> Self {
        DatapathConfig {
            width: 16,
            control: ControlStyle::External,
        }
    }
}

impl DatapathConfig {
    /// Config with the given width and external control.
    pub fn with_width(width: usize) -> Self {
        DatapathConfig {
            width,
            control: ControlStyle::External,
        }
    }
}

/// Per-step values for all control inputs of the datapath.
#[derive(Clone, Debug)]
pub struct ControlProgram {
    /// Positions of the control inputs inside `netlist.inputs()`.
    pub positions: Vec<usize>,
    /// `values[step][k]` drives control input `k` during `step`.
    pub values: Vec<Vec<bool>>,
    /// An extra "idle" vector (all enables off) used to flush the last
    /// results through the registers after the final step.
    pub idle: Vec<bool>,
}

/// A named multi-bit port and where its bits live in the input vector.
#[derive(Clone, Debug)]
pub struct DataPort {
    /// CDFG variable name.
    pub name: String,
    /// Positions inside `netlist.inputs()`, LSB first.
    pub positions: Vec<usize>,
}

/// An elaborated datapath.
#[derive(Clone, Debug)]
pub struct Datapath {
    /// The gate-level netlist (pre technology mapping).
    pub netlist: Netlist,
    /// Control schedule for driving simulations.
    pub control: ControlProgram,
    /// Benchmark data inputs.
    pub data_ports: Vec<DataPort>,
    /// Benchmark outputs: `(name, register Q bus)`.
    pub output_ports: Vec<(String, Vec<NodeId>)>,
    /// Number of register words actually instantiated.
    pub registers: usize,
    /// Number of control input bits.
    pub control_bits: usize,
    /// The schedule length in control steps.
    pub num_steps: u32,
    /// Controller style the datapath was elaborated with.
    pub control_style: ControlStyle,
}

impl Datapath {
    /// Builds the full primary-input vector for one control step:
    /// `data[k]` is the value of data port `k`.
    ///
    /// # Panics
    ///
    /// Panics if `step >= num_steps` or `data.len()` differs from the data
    /// port count.
    pub fn input_vector(&self, step: u32, data: &[u64]) -> Vec<bool> {
        let mut v = vec![false; self.netlist.inputs().len()];
        self.fill_input_vector(step, data, &mut v);
        v
    }

    /// Allocation-free form of [`Datapath::input_vector`]: writes the
    /// vector into `v` (which must span every primary input). Simulation
    /// hot loops reuse one buffer across cycles and lanes.
    ///
    /// # Panics
    ///
    /// Panics if `step >= num_steps`, `data.len()` differs from the data
    /// port count, or `v` is shorter than the primary-input count.
    pub fn fill_input_vector(&self, step: u32, data: &[u64], v: &mut [bool]) {
        assert!(step < self.num_steps);
        v[..self.netlist.inputs().len()].fill(false);
        self.fill_data(v, data);
        for (k, &pos) in self.control.positions.iter().enumerate() {
            v[pos] = self.control.values[step as usize][k];
        }
    }

    /// The idle vector (enables off) holding the given data values.
    pub fn idle_vector(&self, data: &[u64]) -> Vec<bool> {
        let mut v = vec![false; self.netlist.inputs().len()];
        self.fill_data(&mut v, data);
        for (k, &pos) in self.control.positions.iter().enumerate() {
            v[pos] = self.control.idle[k];
        }
        v
    }

    fn fill_data(&self, v: &mut [bool], data: &[u64]) {
        assert_eq!(data.len(), self.data_ports.len(), "one value per data port");
        for (port, &value) in self.data_ports.iter().zip(data) {
            for (i, &pos) in port.positions.iter().enumerate() {
                v[pos] = (value >> i) & 1 == 1;
            }
        }
    }
}

/// Elaborates a complete datapath from a binding.
///
/// # Panics
///
/// Panics if the binding fails validation against the CDFG and schedule.
pub fn elaborate(
    cdfg: &Cdfg,
    sched: &Schedule,
    rb: &RegisterBinding,
    fb: &FuBinding,
    cfg: &DatapathConfig,
) -> Datapath {
    fb.validate(cdfg, sched).expect("FU binding must be valid");
    rb.validate(cdfg).expect("register binding must be valid");
    let w = cfg.width;
    let mut nl = Netlist::new(format!("{}_dp", cdfg.name()));

    // --- Data input ports, captured into input registers ------------------
    // Registering the inputs matches the paper's datapaths and makes the
    // per-clock random stimulus an identical fixed cost for every binder:
    // the input registers toggle the same way no matter how operations
    // were bound.
    let mut input_pos = 0usize;
    let mut data_ports: Vec<DataPort> = Vec::new();
    let mut pi_bus: Vec<Vec<NodeId>> = Vec::new();
    for &v in cdfg.inputs() {
        let name = cdfg.var(v).name.clone();
        let pins: Vec<NodeId> = (0..w)
            .map(|i| nl.add_input(format!("{name}_{i}")))
            .collect();
        data_ports.push(DataPort {
            name: name.clone(),
            positions: (input_pos..input_pos + w).collect(),
        });
        input_pos += w;
        let reg = cells::register_word(&mut nl, &format!("inr_{name}"), w, 0);
        cells::connect_register(&mut nl, &reg, &pins);
        pi_bus.push(reg.q);
    }

    // --- Registers (only those holding operation results) -----------------
    let live_regs: Vec<usize> = (0..rb.num_regs)
        .filter(|&r| {
            rb.vars_in(r)
                .iter()
                .any(|&v| matches!(cdfg.var(v).source, VarSource::Op(_)))
        })
        .collect();
    let mut reg_word: Vec<Option<cells::RegisterWord>> = vec![None; rb.num_regs];
    for &r in &live_regs {
        reg_word[r] = Some(cells::register_word(&mut nl, &format!("r{r}"), w, 0));
    }

    // Control inputs are appended after data inputs; track their
    // positions and per-step values. With the FSM controller, control
    // signals become ROM nodes over the step counter instead, and the only
    // control input is a synchronous reset.
    let mut control_positions: Vec<usize> = Vec::new();
    let mut control_values: Vec<Vec<bool>> = vec![Vec::new(); sched.num_steps as usize];
    let mut control_idle: Vec<bool> = Vec::new();
    let fsm_state: Option<Vec<NodeId>> = match cfg.control {
        ControlStyle::External => None,
        ControlStyle::Fsm => {
            let steps = sched.num_steps as usize;
            let bits = cells::mux_select_bits(steps).max(1);
            let reset = nl.add_input("fsm_reset");
            control_positions.push(input_pos);
            input_pos += 1;
            for row in control_values.iter_mut() {
                row.push(false); // reset low while the schedule runs
            }
            control_idle.push(true); // idle vector asserts reset
                                     // Counter initialized to the last step so the very first clock
                                     // edge wraps it to step 0.
            let init = (steps - 1) as u64;
            let state = cells::register_word(&mut nl, "fsm_state", bits, init);
            let one = cells::const_word(&mut nl, "fsm", 1, bits);
            let (inc, _) = cells::ripple_adder(&mut nl, "fsm_inc", &state.q, &one, None);
            let at_last = cells::decode_equals(&mut nl, "fsm", &state.q, init);
            let zero = cells::const_word(&mut nl, "fsm_z", 0, bits);
            let wrapped = cells::mux2_word(&mut nl, "fsm_wrap", at_last, &inc, &zero);
            // Synchronous reset dominates: next = reset ? 0 : wrapped.
            let next = cells::mux2_word(&mut nl, "fsm_rst", reset, &wrapped, &zero);
            cells::connect_register(&mut nl, &state, &next);
            Some(state.q)
        }
    };
    let add_control = |nl: &mut Netlist,
                       name: String,
                       per_step: Vec<bool>,
                       idle: bool,
                       input_pos: &mut usize,
                       control_positions: &mut Vec<usize>,
                       control_values: &mut Vec<Vec<bool>>,
                       control_idle: &mut Vec<bool>|
     -> NodeId {
        match &fsm_state {
            None => {
                let id = nl.add_input(name);
                control_positions.push(*input_pos);
                *input_pos += 1;
                for (s, v) in per_step.iter().enumerate() {
                    control_values[s].push(*v);
                }
                control_idle.push(idle);
                id
            }
            Some(state) => control_rom(nl, name, state, &per_step),
        }
    };

    let source_bus = |pi_bus: &[Vec<NodeId>],
                      reg_word: &[Option<cells::RegisterWord>],
                      src: Source|
     -> Vec<NodeId> {
        match src {
            Source::Port(i) => pi_bus[i].clone(),
            Source::Reg(r) => reg_word[r].as_ref().expect("live register").q.clone(),
        }
    };

    // --- Functional units with input muxes --------------------------------
    // Active op per FU per step (holds across multi-cycle occupancy).
    let steps = sched.num_steps as usize;
    let mut fu_out: Vec<Vec<NodeId>> = Vec::with_capacity(fb.fus.len());
    for (fi, fu) in fb.fus.iter().enumerate() {
        let mut active: Vec<Option<cdfg::OpId>> = vec![None; steps];
        for &op in &fu.ops {
            for s in sched.start(op)..sched.end(cdfg, op) {
                active[s as usize] = Some(op);
            }
        }
        let mut port_bus: Vec<Vec<NodeId>> = Vec::with_capacity(2);
        for port in 0..2 {
            let sources: Vec<Source> = port_sources(cdfg, rb, &fu.ops, port).into_iter().collect();
            let buses: Vec<Vec<NodeId>> = sources
                .iter()
                .map(|&s| source_bus(&pi_bus, &reg_word, s))
                .collect();
            let sel_bits = cells::mux_select_bits(sources.len());
            // Select values per step: index of the active op's source,
            // holding the previous value when idle.
            let mut sel_val: Vec<usize> = Vec::with_capacity(steps);
            let mut last = 0usize;
            for &slot in active.iter().take(steps) {
                if let Some(op) = slot {
                    let src = source_of(cdfg, rb, rb.var_on_port(cdfg, op, port));
                    last = sources
                        .iter()
                        .position(|&x| x == src)
                        .expect("source listed");
                }
                sel_val.push(last);
            }
            let sels: Vec<NodeId> = (0..sel_bits)
                .map(|b| {
                    let per_step: Vec<bool> =
                        (0..steps).map(|s| (sel_val[s] >> b) & 1 == 1).collect();
                    let idle = *per_step.last().unwrap_or(&false);
                    add_control(
                        &mut nl,
                        format!("c_fu{fi}_p{port}_s{b}"),
                        per_step,
                        idle,
                        &mut input_pos,
                        &mut control_positions,
                        &mut control_values,
                        &mut control_idle,
                    )
                })
                .collect();
            port_bus.push(cells::mux_tree(
                &mut nl,
                &format!("fu{fi}_p{port}mx"),
                &sels,
                &buses,
            ));
        }
        let out = match fu.ty {
            FuType::AddSub => {
                let per_step: Vec<bool> = (0..steps)
                    .map(|s| {
                        active[s]
                            .map(|op| cdfg.op(op).kind == OpKind::Sub)
                            .unwrap_or(false)
                    })
                    .collect();
                let idle = *per_step.last().unwrap_or(&false);
                let mode = add_control(
                    &mut nl,
                    format!("c_fu{fi}_mode"),
                    per_step,
                    idle,
                    &mut input_pos,
                    &mut control_positions,
                    &mut control_values,
                    &mut control_idle,
                );
                cells::addsub(
                    &mut nl,
                    &format!("fu{fi}"),
                    &port_bus[0],
                    &port_bus[1],
                    mode,
                )
            }
            FuType::Mul => {
                cells::array_multiplier(&mut nl, &format!("fu{fi}"), &port_bus[0], &port_bus[1])
            }
        };
        fu_out.push(out);
    }

    // --- Register input muxes and write control ----------------------------
    for &r in &live_regs {
        let writers: Vec<usize> = register_sources(cdfg, rb, fb, r).into_iter().collect();
        let buses: Vec<Vec<NodeId>> = writers.iter().map(|&f| fu_out[f].clone()).collect();
        // Which op-result variable is written at the edge ending step s?
        // birth(v) == s+1  <=>  producing op ends at s+1.
        let mut write_at: Vec<Option<usize>> = vec![None; steps]; // writer index
        for v in rb.vars_in(r) {
            if let VarSource::Op(op) = cdfg.var(v).source {
                let edge_step = sched.end(cdfg, op) - 1;
                let fi = fb.fu_of[op.index()];
                let wi = writers
                    .iter()
                    .position(|&x| x == fi)
                    .expect("writer listed");
                assert!(
                    write_at[edge_step as usize].is_none(),
                    "register write conflict on r{r} at step {edge_step}"
                );
                write_at[edge_step as usize] = Some(wi);
            }
        }
        let sel_bits = cells::mux_select_bits(writers.len());
        let mut sel_val = vec![0usize; steps];
        let mut last = 0usize;
        for s in 0..steps {
            if let Some(wi) = write_at[s] {
                last = wi;
            }
            sel_val[s] = last;
        }
        let sels: Vec<NodeId> = (0..sel_bits)
            .map(|b| {
                let per_step: Vec<bool> = (0..steps).map(|s| (sel_val[s] >> b) & 1 == 1).collect();
                let idle = *per_step.last().unwrap_or(&false);
                add_control(
                    &mut nl,
                    format!("c_r{r}_s{b}"),
                    per_step,
                    idle,
                    &mut input_pos,
                    &mut control_positions,
                    &mut control_values,
                    &mut control_idle,
                )
            })
            .collect();
        let en_per_step: Vec<bool> = (0..steps).map(|s| write_at[s].is_some()).collect();
        let en = add_control(
            &mut nl,
            format!("c_r{r}_en"),
            en_per_step,
            false, // idle: hold
            &mut input_pos,
            &mut control_positions,
            &mut control_values,
            &mut control_idle,
        );
        let d = cells::mux_tree(&mut nl, &format!("r{r}mx"), &sels, &buses);
        let word = reg_word[r].as_ref().expect("live register").clone();
        cells::connect_register_with_enable(&mut nl, &format!("r{r}"), &word, en, &d);
    }

    // --- Primary outputs ----------------------------------------------------
    let mut output_ports: Vec<(String, Vec<NodeId>)> = Vec::new();
    for &v in cdfg.outputs() {
        let name = cdfg.var(v).name.clone();
        let bus: Vec<NodeId> = match cdfg.var(v).source {
            VarSource::Op(_) => {
                let r = rb.reg(v);
                reg_word[r].as_ref().expect("PO register is live").q.clone()
            }
            VarSource::PrimaryInput(i) => pi_bus[i].clone(),
        };
        for (i, &b) in bus.iter().enumerate() {
            nl.mark_output(format!("{name}_o{i}"), b);
        }
        output_ports.push((name, bus));
    }

    nl.check().expect("elaborated datapath must be valid");
    let control_bits = control_idle.len();
    Datapath {
        control: ControlProgram {
            positions: control_positions,
            values: control_values,
            idle: control_idle,
        },
        data_ports,
        output_ports,
        registers: live_regs.len() + cdfg.inputs().len(),
        control_bits,
        num_steps: sched.num_steps,
        control_style: cfg.control,
        netlist: nl,
    }
}

/// Runs one schedule iteration on the (unmapped or mapped) datapath with
/// the given data-port values and returns the primary-output words.
///
/// The caller provides the netlist to simulate so the same routine
/// verifies both the elaborated gate netlist and its technology-mapped
/// version (ports are matched by input order, which mapping preserves).
pub fn execute(dp: &Datapath, netlist: &Netlist, data: &[u64]) -> Vec<u64> {
    let mut sim = gatesim::CycleSim::new(netlist);
    // Priming step: the input registers capture the data before step 0
    // reads them. With external control, enables are off; with the FSM,
    // reset is asserted so the counter starts the schedule at step 0.
    sim.step(&dp.idle_vector(data));
    for step in 0..dp.num_steps {
        sim.step(&dp.input_vector(step, data));
    }
    // One more step commits the final register writes (external control:
    // an idle step holding every register; FSM: the free-running counter
    // wraps, which cannot disturb already-captured results).
    match dp.control_style {
        ControlStyle::External => sim.step(&dp.idle_vector(data)),
        ControlStyle::Fsm => sim.step(&dp.input_vector(0, data)),
    };
    dp.output_ports
        .iter()
        .map(|(_, bus)| {
            let mapped_bus: Vec<NodeId> = bus
                .iter()
                .map(|b| {
                    netlist
                        .find(&dp.netlist.node(*b).name)
                        .expect("net preserved by mapping")
                })
                .collect();
            sim.word(&mapped_bus)
        })
        .collect()
}

/// The FSM's ROM for one control signal: state `s` (the counter bits
/// `state`, LSB first) reads `per_step[s]`, and states past the schedule
/// read 0. The mapper covers only nodes of at most 4 inputs, so a wider
/// ROM is two half-ROMs over the low bits joined by a 2:1 mux on the top
/// bit (Shannon expansion); schedules of up to 16 steps keep one node.
fn control_rom(nl: &mut Netlist, name: String, state: &[NodeId], per_step: &[bool]) -> NodeId {
    let Some((&top, low)) = state.split_last().filter(|_| state.len() > 4) else {
        let table = netlist::TruthTable::from_fn(state.len(), |row| {
            per_step.get(row as usize).copied().unwrap_or(false)
        });
        return nl.add_logic(name, state.to_vec(), table);
    };
    let (lo, hi) = per_step.split_at(per_step.len().min(1 << low.len()));
    let lo = control_rom(nl, format!("{name}_lo"), low, lo);
    let hi = control_rom(nl, format!("{name}_hi"), low, hi);
    cells::mux2(nl, &name, top, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fubind::{bind_hlpower, HlPowerConfig};
    use crate::lopass::bind_lopass;
    use crate::regbind::{bind_registers, RegBindConfig};
    use crate::satable::SaTable;
    use cdfg::{list_schedule, Cdfg, OpKind, ResourceConstraint, ResourceLibrary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mac_cdfg() -> Cdfg {
        // out = x0*c0 + x1*c1 - x2
        let mut g = Cdfg::new("mac");
        let x0 = g.add_input("x0");
        let x1 = g.add_input("x1");
        let x2 = g.add_input("x2");
        let c0 = g.add_input("c0");
        let c1 = g.add_input("c1");
        let (_, p0) = g.add_op(OpKind::Mul, x0, c0);
        let (_, p1) = g.add_op(OpKind::Mul, x1, c1);
        let (_, s0) = g.add_op(OpKind::Add, p0, p1);
        let (_, s1) = g.add_op(OpKind::Sub, s0, x2);
        g.mark_output(s1);
        g
    }

    fn full_binding(
        g: &Cdfg,
        add: usize,
        mul: usize,
    ) -> (cdfg::Schedule, RegisterBinding, FuBinding) {
        let rc = ResourceConstraint::new(add, mul);
        let sched = list_schedule(g, &ResourceLibrary::default(), &rc);
        let rb = bind_registers(g, &sched, &RegBindConfig::default());
        let mut table = SaTable::new(4, 4);
        let (fb, _) = bind_hlpower(g, &sched, &rb, &rc, &mut table, &HlPowerConfig::default());
        (sched, rb, fb)
    }

    #[test]
    fn mac_datapath_computes_reference_values() {
        let g = mac_cdfg();
        let (sched, rb, fb) = full_binding(&g, 1, 1);
        let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(8));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let data: Vec<u64> = (0..5).map(|_| rng.gen_range(0..256)).collect();
            let expected = g.evaluate(&data, 8);
            let got = execute(&dp, &dp.netlist, &data);
            assert_eq!(got, expected, "data {data:?}");
        }
    }

    #[test]
    fn lopass_datapath_matches_reference_too() {
        let g = mac_cdfg();
        let rc = ResourceConstraint::new(1, 1);
        let sched = list_schedule(&g, &ResourceLibrary::default(), &rc);
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        let fb = bind_lopass(&g, &sched, &rb, &rc);
        let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(6));
        let data = [13u64, 7, 3, 5, 11];
        assert_eq!(execute(&dp, &dp.netlist, &data), g.evaluate(&data, 6));
    }

    #[test]
    fn benchmark_datapath_verifies_end_to_end() {
        // The real thing: a generated benchmark, bound and elaborated,
        // must compute the CDFG function bit-exactly.
        let p = cdfg::profile("pr").unwrap();
        let g = cdfg::generate(p, p.seed);
        let (sched, rb, fb) = full_binding(&g, 2, 2);
        let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(4));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..3 {
            let data: Vec<u64> = (0..g.inputs().len())
                .map(|_| rng.gen_range(0..16))
                .collect();
            let expected = g.evaluate(&data, 4);
            let got = execute(&dp, &dp.netlist, &data);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn mapped_datapath_still_computes_correctly() {
        let g = mac_cdfg();
        let (sched, rb, fb) = full_binding(&g, 1, 1);
        let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(6));
        let mapped = mapper::map(
            &dp.netlist,
            &mapper::MapConfig::new(4, mapper::MapObjective::GlitchSa),
        );
        let data = [9u64, 20, 3, 7, 2];
        assert_eq!(
            execute(&dp, &mapped.netlist, &data),
            g.evaluate(&data, 6),
            "technology mapping must preserve the computation"
        );
    }

    #[test]
    fn datapath_structure_counts() {
        let g = mac_cdfg();
        let (sched, rb, fb) = full_binding(&g, 1, 1);
        let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(8));
        assert_eq!(dp.data_ports.len(), 5);
        assert_eq!(dp.output_ports.len(), 1);
        assert!(dp.registers >= 2, "needs registers for intermediate values");
        assert!(dp.control_bits > 0);
        assert_eq!(dp.control.values.len() as u32, dp.num_steps);
        // input vector layout is consistent
        let v = dp.input_vector(0, &[1, 2, 3, 4, 5]);
        assert_eq!(v.len(), dp.netlist.inputs().len());
    }

    #[test]
    fn fsm_controller_computes_reference_values() {
        let g = mac_cdfg();
        let (sched, rb, fb) = full_binding(&g, 1, 1);
        let dp = elaborate(
            &g,
            &sched,
            &rb,
            &fb,
            &DatapathConfig {
                width: 8,
                control: ControlStyle::Fsm,
            },
        );
        assert_eq!(dp.control_bits, 1, "FSM exposes only the reset input");
        assert_eq!(dp.control_style, ControlStyle::Fsm);
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..8 {
            let data: Vec<u64> = (0..5).map(|_| rng.gen_range(0..256)).collect();
            let expected = g.evaluate(&data, 8);
            assert_eq!(execute(&dp, &dp.netlist, &data), expected, "data {data:?}");
        }
    }

    #[test]
    fn fsm_matches_external_control_after_mapping() {
        // The MAC kernel's ROMs are single nodes; honda's 44-step
        // schedule needs 6 state bits, so each of its ROMs is split
        // twice into 4-input quarters.
        let p = cdfg::profile("honda").unwrap();
        let honda = cdfg::generate(p, p.seed);
        let rc = crate::flow::paper_constraint("honda").unwrap();
        for (g, add, mul, width) in [(mac_cdfg(), 1, 1, 6), (honda, rc.addsub, rc.mul, 4)] {
            let (sched, rb, fb) = full_binding(&g, add, mul);
            let ext = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(width));
            let fsm = elaborate(
                &g,
                &sched,
                &rb,
                &fb,
                &DatapathConfig {
                    width,
                    control: ControlStyle::Fsm,
                },
            );
            let mapped = mapper::map(
                &fsm.netlist,
                &mapper::MapConfig::new(4, mapper::MapObjective::GlitchSa),
            );
            let n = g.inputs().len();
            let max = (1u64 << width) - 1;
            let mut rng = StdRng::seed_from_u64(11);
            let random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..max + 1)).collect();
            for data in [(1..=n as u64).collect(), vec![max; n], random] {
                let want = execute(&ext, &ext.netlist, &data);
                for (level, nl) in [("gate-level", &fsm.netlist), ("mapped", &mapped.netlist)] {
                    assert_eq!(execute(&fsm, nl, &data), want, "{}: {level} FSM", g.name());
                }
            }
        }
    }

    #[test]
    fn fsm_runs_benchmark_repeatedly() {
        // The FSM free-runs: after one iteration completes, a reset
        // re-synchronizes and a second computation gives fresh results.
        let g = mac_cdfg();
        let (sched, rb, fb) = full_binding(&g, 1, 1);
        let dp = elaborate(
            &g,
            &sched,
            &rb,
            &fb,
            &DatapathConfig {
                width: 8,
                control: ControlStyle::Fsm,
            },
        );
        let d1 = [3u64, 5, 7, 2, 4];
        let d2 = [10u64, 20, 30, 40, 50];
        let mut sim = gatesim::CycleSim::new(&dp.netlist);
        let run = |sim: &mut gatesim::CycleSim, data: &[u64]| -> Vec<u64> {
            sim.step(&dp.idle_vector(data)); // reset + capture data
            for s in 0..dp.num_steps {
                sim.step(&dp.input_vector(s, data));
            }
            sim.step(&dp.input_vector(0, data));
            dp.output_ports
                .iter()
                .map(|(_, bus)| sim.word(bus))
                .collect()
        };
        assert_eq!(run(&mut sim, &d1), g.evaluate(&d1, 8));
        assert_eq!(run(&mut sim, &d2), g.evaluate(&d2, 8));
    }

    #[test]
    fn control_holds_when_idle() {
        // After the last active step the idle vector must keep enables off
        // so register state is preserved.
        let g = mac_cdfg();
        let (sched, rb, fb) = full_binding(&g, 1, 1);
        let dp = elaborate(&g, &sched, &rb, &fb, &DatapathConfig::with_width(8));
        let data = [1u64, 2, 3, 4, 5];
        let expected = g.evaluate(&data, 8);
        let mut sim = gatesim::CycleSim::new(&dp.netlist);
        sim.step(&dp.idle_vector(&data)); // prime the input registers
        for step in 0..dp.num_steps {
            sim.step(&dp.input_vector(step, &data));
        }
        for _ in 0..3 {
            sim.step(&dp.idle_vector(&data));
            let out: Vec<u64> = dp
                .output_ports
                .iter()
                .map(|(_, bus)| sim.word(bus))
                .collect();
            assert_eq!(out, expected, "idle cycles must hold the results");
        }
    }
}
