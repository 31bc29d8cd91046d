//! Multiplexer size model.
//!
//! Once registers are bound, the exact input multiplexer of every
//! functional-unit port is determined by the set of *distinct sources*
//! feeding that port across all operations bound to the FU — this is what
//! makes the paper's edge-weight calculation possible ("the registers have
//! already been assigned, enabling the calculation of the exact
//! multiplexer sizes", Section 5.2.2). The same model sizes the
//! register-input muxes of the final datapath.
//!
//! A source is either a register (operation results) or a primary-input
//! port: the elaborated datapath reads benchmark inputs directly from its
//! input pins, the streaming-interface style. An input is thus never read
//! from a register, and every binder sees the same input ports, so no
//! binder gains or loses from how inputs would be loaded.

use crate::fubind::FuBinding;
use crate::regbind::RegisterBinding;
use cdfg::{Cdfg, OpId, VarId, VarSource};
use std::collections::BTreeSet;

/// A value source in the datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Source {
    /// Primary-input port (by input position).
    Port(usize),
    /// Register (by register index).
    Reg(usize),
}

/// The datapath source of a variable: PI variables live on input ports,
/// operation results in their bound register.
pub fn source_of(cdfg: &Cdfg, rb: &RegisterBinding, v: VarId) -> Source {
    match cdfg.var(v).source {
        VarSource::PrimaryInput(i) => Source::Port(i),
        VarSource::Op(_) => Source::Reg(rb.reg(v)),
    }
}

/// Distinct sources feeding FU port `port` (0 or 1) over a set of
/// operations, respecting the random port assignment.
pub fn port_sources(
    cdfg: &Cdfg,
    rb: &RegisterBinding,
    ops: &[OpId],
    port: usize,
) -> BTreeSet<Source> {
    ops.iter()
        .map(|&op| source_of(cdfg, rb, rb.var_on_port(cdfg, op, port)))
        .collect()
}

/// Input multiplexer sizes `(port0, port1)` of a functional unit serving
/// `ops`. A size of 1 means the port is fed directly (no mux is
/// instantiated, but the value still participates in `muxDiff`).
pub fn mux_sizes(cdfg: &Cdfg, rb: &RegisterBinding, ops: &[OpId]) -> (usize, usize) {
    (
        port_sources(cdfg, rb, ops, 0).len(),
        port_sources(cdfg, rb, ops, 1).len(),
    )
}

/// The paper's `muxDiff`: absolute difference of the two input mux sizes.
pub fn mux_diff(sizes: (usize, usize)) -> usize {
    sizes.0.abs_diff(sizes.1)
}

/// Distinct functional units writing into register `r` (the sources of
/// the register's input multiplexer). Registers that hold only
/// primary-input variables have no writers and are not instantiated.
pub fn register_sources(
    cdfg: &Cdfg,
    rb: &RegisterBinding,
    fb: &FuBinding,
    r: usize,
) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    for v in rb.vars_in(r) {
        if let VarSource::Op(op) = cdfg.var(v).source {
            set.insert(fb.fu_of[op.index()]);
        }
    }
    set
}

/// Mux statistics of a complete binding, in the paper's reporting units.
#[derive(Clone, Debug, PartialEq)]
pub struct MuxReport {
    /// Size of the largest multiplexer anywhere in the datapath
    /// (FU ports and register inputs) — Table 3 "Largest MUX".
    pub largest: usize,
    /// Total number of multiplexer inputs over all muxes with 2+ inputs —
    /// Table 3 "MUX length".
    pub length: usize,
    /// `muxDiff` per allocated FU (Table 4 statistics are over these).
    pub fu_mux_diffs: Vec<usize>,
    /// FU port mux sizes (two per FU, for diagnostics).
    pub fu_mux_sizes: Vec<(usize, usize)>,
}

impl MuxReport {
    /// Mean of `muxDiff` across allocated FUs (Table 4).
    pub fn muxdiff_mean(&self) -> f64 {
        if self.fu_mux_diffs.is_empty() {
            return 0.0;
        }
        self.fu_mux_diffs.iter().sum::<usize>() as f64 / self.fu_mux_diffs.len() as f64
    }

    /// Population variance of `muxDiff` across allocated FUs (Table 4).
    pub fn muxdiff_variance(&self) -> f64 {
        if self.fu_mux_diffs.is_empty() {
            return 0.0;
        }
        let mean = self.muxdiff_mean();
        self.fu_mux_diffs
            .iter()
            .map(|&d| (d as f64 - mean).powi(2))
            .sum::<f64>()
            / self.fu_mux_diffs.len() as f64
    }

    /// Number of FU input muxes (Table 4 "# muxes" counts two per FU).
    pub fn num_fu_muxes(&self) -> usize {
        self.fu_mux_sizes.len() * 2
    }
}

/// Computes the mux report for a complete binding.
pub fn mux_report(cdfg: &Cdfg, rb: &RegisterBinding, fb: &FuBinding) -> MuxReport {
    let mut largest = 0usize;
    let mut length = 0usize;
    let mut fu_mux_diffs = Vec::with_capacity(fb.fus.len());
    let mut fu_mux_sizes = Vec::with_capacity(fb.fus.len());
    for fu in &fb.fus {
        let sizes = mux_sizes(cdfg, rb, &fu.ops);
        for s in [sizes.0, sizes.1] {
            largest = largest.max(s);
            if s >= 2 {
                length += s;
            }
        }
        fu_mux_diffs.push(mux_diff(sizes));
        fu_mux_sizes.push(sizes);
    }
    for r in 0..rb.num_regs {
        let s = register_sources(cdfg, rb, fb, r).len();
        largest = largest.max(s);
        if s >= 2 {
            length += s;
        }
    }
    MuxReport {
        largest,
        length,
        fu_mux_diffs,
        fu_mux_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fubind::{Fu, FuBinding};
    use crate::regbind::{bind_registers, RegBindConfig};
    use cdfg::{asap, Cdfg, FuType, OpKind, ResourceLibrary};

    /// Two adds reading from (a,b) and (a,c): sharing one FU makes port
    /// sizes depend on the port assignment.
    fn two_adds() -> (Cdfg, OpId, OpId) {
        let mut g = Cdfg::new("m");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let (o1, v1) = g.add_op(OpKind::Add, a, b);
        let (o2, v2) = g.add_op(OpKind::Sub, a, c);
        g.mark_output(v1);
        g.mark_output(v2);
        (g, o1, o2)
    }

    #[test]
    fn mux_sizes_respect_port_assignment() {
        let (g, o1, o2) = two_adds();
        let s = asap(&g, &ResourceLibrary::default());
        // Force a deterministic, unswapped port assignment by searching
        // seeds; o2 is a Sub so only o1 can swap.
        let mut rb = bind_registers(&g, &s, &RegBindConfig::default());
        for seed in 0..64 {
            rb = bind_registers(
                &g,
                &s,
                &RegBindConfig {
                    seed,
                    ..Default::default()
                },
            );
            if !rb.swap[o1.index()] {
                break;
            }
        }
        assert!(!rb.swap[o1.index()]);
        let sizes = mux_sizes(&g, &rb, &[o1, o2]);
        // port0 sees input port `a` from both ops: size 1;
        // port1 sees ports b and c: size 2.
        assert_eq!(sizes.0, 1);
        assert_eq!(sizes.1, 2);
        assert_eq!(mux_diff(sizes), 1);
    }

    #[test]
    fn sources_distinguish_ports_and_registers() {
        let mut g = Cdfg::new("s");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let (o1, v1) = g.add_op(OpKind::Add, a, b);
        let (o2, v2) = g.add_op(OpKind::Add, v1, a);
        g.mark_output(v2);
        let s = asap(&g, &ResourceLibrary::default());
        let rb = bind_registers(&g, &s, &RegBindConfig::default());
        assert_eq!(source_of(&g, &rb, a), Source::Port(0));
        assert!(matches!(source_of(&g, &rb, v1), Source::Reg(_)));
        let _ = (o1, o2);
    }

    #[test]
    fn register_sources_count_writing_fus() {
        let (g, o1, o2) = two_adds();
        let s = asap(&g, &ResourceLibrary::default());
        let rb = bind_registers(&g, &s, &RegBindConfig::default());
        // Put the two adds on distinct FUs; their outputs live in
        // different registers (both alive at the end).
        let fb = FuBinding {
            fus: vec![
                Fu {
                    ty: FuType::AddSub,
                    ops: vec![o1],
                },
                Fu {
                    ty: FuType::AddSub,
                    ops: vec![o2],
                },
            ],
            fu_of: vec![0, 1],
        };
        let v1 = g.op(o1).output;
        let v2 = g.op(o2).output;
        let r1 = rb.reg(v1);
        let r2 = rb.reg(v2);
        assert_ne!(r1, r2, "both outputs alive at schedule end");
        assert_eq!(register_sources(&g, &rb, &fb, r1), BTreeSet::from([0]));
        assert_eq!(register_sources(&g, &rb, &fb, r2), BTreeSet::from([1]));
    }

    #[test]
    fn mux_report_totals() {
        let (g, o1, o2) = two_adds();
        let s = asap(&g, &ResourceLibrary::default());
        let rb = bind_registers(&g, &s, &RegBindConfig::default());
        let fb = FuBinding {
            fus: vec![Fu {
                ty: FuType::AddSub,
                ops: vec![o1, o2],
            }],
            fu_of: vec![0, 0],
        };
        let rep = mux_report(&g, &rb, &fb);
        assert_eq!(rep.fu_mux_diffs.len(), 1);
        assert_eq!(rep.num_fu_muxes(), 2);
        assert!(rep.largest >= 1);
        assert_eq!(rep.muxdiff_variance(), 0.0, "single FU: zero variance");
        assert_eq!(rep.muxdiff_mean(), rep.fu_mux_diffs[0] as f64);
        // One shared FU writing two registers: register muxes are size 1
        // (no mux), so length counts only the FU port muxes >= 2.
        let fu_len: usize = [rep.fu_mux_sizes[0].0, rep.fu_mux_sizes[0].1]
            .iter()
            .filter(|&&s| s >= 2)
            .sum();
        assert_eq!(rep.length, fu_len);
    }

    #[test]
    fn single_op_fu_has_unit_muxes() {
        let (g, o1, _) = two_adds();
        let s = asap(&g, &ResourceLibrary::default());
        let rb = bind_registers(&g, &s, &RegBindConfig::default());
        let sizes = mux_sizes(&g, &rb, &[o1]);
        assert_eq!(sizes, (1, 1));
        assert_eq!(mux_diff(sizes), 0);
    }
}
