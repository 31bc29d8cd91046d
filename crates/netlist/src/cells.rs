//! Word-level RTL cell generators.
//!
//! These helpers elaborate the resource-library components of the paper
//! (multiplexers, adder/subtractors, array multipliers, registers) into
//! gate-level nodes of a [`Netlist`]. All gates emitted have at most three
//! fanins, so K>=4 technology mapping never has to decompose nodes.
//!
//! A word (bus) is a little-endian `Vec<NodeId>` — index 0 is the LSB.

use crate::graph::{Netlist, NodeId};
use crate::truth::TruthTable;

/// A little-endian multi-bit signal.
pub type Bus = Vec<NodeId>;

fn fresh(nl: &Netlist, prefix: &str, tag: &str) -> String {
    format!("{prefix}_{tag}{}", nl.num_nodes())
}

/// Adds an inverter node.
pub fn not_gate(nl: &mut Netlist, prefix: &str, a: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "inv");
    nl.add_logic(name, vec![a], TruthTable::inverter())
}

/// Adds a 2-input AND node.
pub fn and2(nl: &mut Netlist, prefix: &str, a: NodeId, b: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "and");
    nl.add_logic(name, vec![a, b], TruthTable::and(2))
}

/// Adds a 2-input OR node.
pub fn or2(nl: &mut Netlist, prefix: &str, a: NodeId, b: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "or");
    nl.add_logic(name, vec![a, b], TruthTable::or(2))
}

/// Adds a 2-input XOR node.
pub fn xor2(nl: &mut Netlist, prefix: &str, a: NodeId, b: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "xor");
    nl.add_logic(name, vec![a, b], TruthTable::xor(2))
}

/// Adds a 3-input XOR node (full-adder sum).
pub fn xor3(nl: &mut Netlist, prefix: &str, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "xor3");
    nl.add_logic(name, vec![a, b, c], TruthTable::xor(3))
}

/// Adds a 3-input majority node (full-adder carry).
pub fn maj3(nl: &mut Netlist, prefix: &str, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "maj");
    nl.add_logic(name, vec![a, b, c], TruthTable::maj3())
}

/// Adds a single-bit 2:1 mux selecting `b` when `sel` is high, else `a`.
pub fn mux2(nl: &mut Netlist, prefix: &str, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
    let name = fresh(nl, prefix, "mux");
    nl.add_logic(name, vec![a, b, sel], TruthTable::mux2())
}

/// Constant word of `width` bits holding `value`.
pub fn const_word(nl: &mut Netlist, prefix: &str, value: u64, width: usize) -> Bus {
    (0..width)
        .map(|i| {
            let name = fresh(nl, prefix, "const");
            nl.add_constant(name, (value >> i) & 1 == 1)
        })
        .collect()
}

/// Word-level 2:1 mux: selects `b` when `sel` is high.
///
/// # Panics
///
/// Panics if the buses differ in width.
pub fn mux2_word(nl: &mut Netlist, prefix: &str, sel: NodeId, a: &Bus, b: &Bus) -> Bus {
    assert_eq!(a.len(), b.len(), "mux2_word width mismatch");
    a.iter()
        .zip(b)
        .map(|(&ai, &bi)| mux2(nl, prefix, sel, ai, bi))
        .collect()
}

/// Balanced N:1 word multiplexer tree with binary select encoding: select
/// value `k` (little-endian over `sels`) routes input `k` to the output.
///
/// Inputs are split at the most-significant select bit, so the tree is as
/// balanced as the input count allows — the structure HLPower's `muxDiff`
/// term tries to keep symmetric between the two FU ports.
///
/// Returns the output bus. With a single input, the input is passed through
/// unchanged (no gates added).
///
/// # Panics
///
/// Panics if `inputs` is empty, widths differ, or `sels` has fewer than
/// `ceil(log2(inputs.len()))` bits.
pub fn mux_tree(nl: &mut Netlist, prefix: &str, sels: &[NodeId], inputs: &[Bus]) -> Bus {
    assert!(!inputs.is_empty(), "mux tree needs at least one input");
    let need = mux_select_bits(inputs.len());
    assert!(
        sels.len() >= need,
        "mux tree over {} inputs needs {} select bits, got {}",
        inputs.len(),
        need,
        sels.len()
    );
    let w = inputs[0].len();
    for b in inputs {
        assert_eq!(b.len(), w, "mux tree width mismatch");
    }
    mux_tree_rec(nl, prefix, &sels[..need], inputs)
}

fn mux_tree_rec(nl: &mut Netlist, prefix: &str, sels: &[NodeId], inputs: &[Bus]) -> Bus {
    if inputs.len() == 1 {
        return inputs[0].clone();
    }
    let bits = mux_select_bits(inputs.len());
    let half = 1usize << (bits - 1);
    let lo = mux_tree_rec(nl, prefix, &sels[..bits - 1], &inputs[..half]);
    let hi = mux_tree_rec(
        nl,
        prefix,
        &sels[..mux_select_bits(inputs.len() - half).min(bits - 1)],
        &inputs[half..],
    );
    mux2_word(nl, prefix, sels[bits - 1], &lo, &hi)
}

/// Number of binary select bits needed for an `n`-input mux.
pub fn mux_select_bits(n: usize) -> usize {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Skewed (linear chain) N:1 word multiplexer, select encoding identical to
/// [`mux_tree`] but structured as `mux2(s, ..., mux2(s, a, b))` cascades.
/// Deliberately depth-unbalanced; used by glitch ablation experiments.
pub fn mux_chain(nl: &mut Netlist, prefix: &str, sels: &[NodeId], inputs: &[Bus]) -> Bus {
    assert!(!inputs.is_empty());
    let need = mux_select_bits(inputs.len());
    assert!(sels.len() >= need);
    // Select input k by cascading equality decodes: out_0 = in_0;
    // out_k = (sel == k) ? in_k : out_{k-1}.
    let mut acc = inputs[0].clone();
    for (k, inp) in inputs.iter().enumerate().skip(1) {
        let eq = decode_equals(nl, prefix, &sels[..need], k as u64);
        acc = mux2_word(nl, prefix, eq, &acc, inp);
    }
    acc
}

/// One-hot decode node: high when the select bus equals `value`.
pub fn decode_equals(nl: &mut Netlist, prefix: &str, sels: &[NodeId], value: u64) -> NodeId {
    assert!(!sels.is_empty());
    if sels.len() <= 3 {
        let neg: u32 = (0..sels.len())
            .filter(|i| (value >> i) & 1 == 0)
            .map(|i| 1u32 << i)
            .sum();
        let name = fresh(nl, prefix, "dec");
        return nl.add_logic(
            name,
            sels.to_vec(),
            TruthTable::and_with_polarity(sels.len(), neg),
        );
    }
    let lo = decode_equals(nl, prefix, &sels[..3], value & 7);
    let hi = decode_equals(nl, prefix, &sels[3..], value >> 3);
    and2(nl, prefix, lo, hi)
}

/// Ripple-carry adder over two equal-width buses. Returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if widths differ or are zero.
pub fn ripple_adder(
    nl: &mut Netlist,
    prefix: &str,
    a: &Bus,
    b: &Bus,
    cin: Option<NodeId>,
) -> (Bus, NodeId) {
    assert_eq!(a.len(), b.len(), "adder width mismatch");
    assert!(!a.is_empty());
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (&ai, &bi) in a.iter().zip(b) {
        match carry {
            None => {
                // half adder
                sum.push(xor2(nl, prefix, ai, bi));
                carry = Some(and2(nl, prefix, ai, bi));
            }
            Some(c) => {
                sum.push(xor3(nl, prefix, ai, bi, c));
                carry = Some(maj3(nl, prefix, ai, bi, c));
            }
        }
    }
    (sum, carry.expect("non-empty bus"))
}

/// Ripple-borrow subtractor computing `a - b` (two's complement). Returns
/// `(difference, carry_out)`.
pub fn subtractor(nl: &mut Netlist, prefix: &str, a: &Bus, b: &Bus) -> (Bus, NodeId) {
    let nb: Bus = b.iter().map(|&bi| not_gate(nl, prefix, bi)).collect();
    let one = {
        let name = fresh(nl, prefix, "c1");
        nl.add_constant(name, true)
    };
    ripple_adder(nl, prefix, a, &nb, Some(one))
}

/// Combined adder/subtractor functional unit: computes `a + b` when `mode`
/// is low and `a - b` when `mode` is high. This is the shared ALU the
/// paper's add/sub operation type binds to.
pub fn addsub(nl: &mut Netlist, prefix: &str, a: &Bus, b: &Bus, mode: NodeId) -> Bus {
    let bx: Bus = b.iter().map(|&bi| xor2(nl, prefix, bi, mode)).collect();
    let (sum, _cout) = ripple_adder(nl, prefix, a, &bx, Some(mode));
    sum
}

/// Carry-save array multiplier truncated to the operand width: returns the
/// low `W` bits of `a * b` where `W = a.len() = b.len()`.
///
/// Structure: one carry-save adder row per partial product, followed by a
/// ripple vector-merge adder — the classic array multiplier whose long,
/// unbalanced paths make multipliers the dominant glitch source the paper
/// targets.
///
/// # Panics
///
/// Panics if widths differ or are zero.
pub fn array_multiplier(nl: &mut Netlist, prefix: &str, a: &Bus, b: &Bus) -> Bus {
    assert_eq!(a.len(), b.len(), "multiplier width mismatch");
    let w = a.len();
    assert!(w > 0);
    // Partial products needed for the low W bits: pp[i][j] with i+j < W.
    let mut pp: Vec<Vec<NodeId>> = Vec::with_capacity(w);
    for (i, &bi) in b.iter().enumerate() {
        let row: Vec<NodeId> = a[..w - i]
            .to_vec()
            .iter()
            .map(|&aj| and2(nl, prefix, aj, bi))
            .collect();
        pp.push(row);
    }
    // Carry-save accumulation. sums[j]/carries[j] are the bit of weight j.
    let mut sums: Vec<Option<NodeId>> = (0..w).map(|j| Some(pp[0][j])).collect();
    let mut carries: Vec<Option<NodeId>> = vec![None; w];
    for (i, row) in pp.iter().enumerate().skip(1) {
        let mut new_sums: Vec<Option<NodeId>> = vec![None; w];
        let mut new_carries: Vec<Option<NodeId>> = vec![None; w];
        for j in 0..w {
            let addend = if j >= i { Some(row[j - i]) } else { None };
            let mut bits: Vec<NodeId> = Vec::with_capacity(3);
            if let Some(s) = sums[j] {
                bits.push(s);
            }
            if let Some(c) = carries[j] {
                bits.push(c);
            }
            if let Some(x) = addend {
                bits.push(x);
            }
            match bits.len() {
                0 => {}
                1 => new_sums[j] = Some(bits[0]),
                2 => {
                    new_sums[j] = Some(xor2(nl, prefix, bits[0], bits[1]));
                    if j + 1 < w {
                        new_carries[j + 1] = Some(and2(nl, prefix, bits[0], bits[1]));
                    }
                }
                _ => {
                    new_sums[j] = Some(xor3(nl, prefix, bits[0], bits[1], bits[2]));
                    if j + 1 < w {
                        new_carries[j + 1] = Some(maj3(nl, prefix, bits[0], bits[1], bits[2]));
                    }
                }
            }
        }
        sums = new_sums;
        carries = new_carries;
    }
    // Vector-merge: ripple-add the remaining carry vector into the sums.
    let mut out = Vec::with_capacity(w);
    let mut carry: Option<NodeId> = None;
    for j in 0..w {
        let mut bits: Vec<NodeId> = Vec::with_capacity(3);
        if let Some(s) = sums[j] {
            bits.push(s);
        }
        if let Some(c) = carries[j] {
            bits.push(c);
        }
        if let Some(c) = carry.take() {
            bits.push(c);
        }
        match bits.len() {
            0 => {
                let name = fresh(nl, prefix, "z");
                out.push(nl.add_constant(name, false));
            }
            1 => out.push(bits[0]),
            2 => {
                out.push(xor2(nl, prefix, bits[0], bits[1]));
                carry = Some(and2(nl, prefix, bits[0], bits[1]));
            }
            _ => {
                out.push(xor3(nl, prefix, bits[0], bits[1], bits[2]));
                carry = Some(maj3(nl, prefix, bits[0], bits[1], bits[2]));
            }
        }
    }
    out
}

/// A register word: latch outputs (`q`) plus the latch ids needed to connect
/// data inputs later.
#[derive(Clone, Debug)]
pub struct RegisterWord {
    /// Latch output bus (`Q`).
    pub q: Bus,
    /// The latch node ids, in bit order (same ids as `q`).
    pub latches: Vec<NodeId>,
}

/// Allocates a `width`-bit register (its data inputs unconnected).
pub fn register_word(nl: &mut Netlist, prefix: &str, width: usize, init: u64) -> RegisterWord {
    let latches: Vec<NodeId> = (0..width)
        .map(|i| {
            let name = format!("{prefix}_q{i}");
            nl.add_latch(name, (init >> i) & 1 == 1)
        })
        .collect();
    RegisterWord {
        q: latches.clone(),
        latches,
    }
}

/// Connects a register's data inputs through a write-enable: when `en` is
/// high the register captures `d`, otherwise it holds its value.
pub fn connect_register_with_enable(
    nl: &mut Netlist,
    prefix: &str,
    reg: &RegisterWord,
    en: NodeId,
    d: &Bus,
) {
    assert_eq!(d.len(), reg.latches.len(), "register width mismatch");
    for (i, &latch) in reg.latches.iter().enumerate() {
        let next = mux2(nl, prefix, en, reg.q[i], d[i]);
        nl.set_latch_data(latch, next);
    }
}

/// Connects a register's data inputs directly (captures every cycle).
pub fn connect_register(nl: &mut Netlist, reg: &RegisterWord, d: &Bus) {
    assert_eq!(d.len(), reg.latches.len(), "register width mismatch");
    for (i, &latch) in reg.latches.iter().enumerate() {
        nl.set_latch_data(latch, d[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;

    /// Evaluates a purely combinational netlist output bus for given input
    /// values (inputs bound in declaration order, LSB-first words).
    fn eval_bus(nl: &Netlist, input_vals: &[(NodeId, bool)], bus: &Bus) -> u64 {
        let mut vals = vec![false; nl.num_nodes()];
        for &(id, v) in input_vals {
            vals[id.index()] = v;
        }
        for id in nl.topo_order() {
            if let crate::graph::NodeKind::Logic { fanins, table } = &nl.node(id).kind {
                let mut row = 0u32;
                for (k, f) in fanins.iter().enumerate() {
                    if vals[f.index()] {
                        row |= 1 << k;
                    }
                }
                vals[id.index()] = table.eval(row);
            } else if let crate::graph::NodeKind::Constant(c) = &nl.node(id).kind {
                vals[id.index()] = *c;
            }
        }
        bus.iter()
            .enumerate()
            .map(|(i, b)| (vals[b.index()] as u64) << i)
            .collect::<Vec<u64>>()
            .iter()
            .sum()
    }

    fn input_word(nl: &mut Netlist, name: &str, width: usize) -> Bus {
        (0..width)
            .map(|i| nl.add_input(format!("{name}{i}")))
            .collect()
    }

    fn bind_word(bus: &Bus, value: u64) -> Vec<(NodeId, bool)> {
        bus.iter()
            .enumerate()
            .map(|(i, &id)| (id, (value >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn adder_is_correct() {
        let w = 8;
        let mut nl = Netlist::new("add");
        let a = input_word(&mut nl, "a", w);
        let b = input_word(&mut nl, "b", w);
        let (sum, cout) = ripple_adder(&mut nl, "fu", &a, &b, None);
        nl.check().unwrap();
        for (x, y) in [(0u64, 0u64), (1, 1), (255, 1), (123, 200), (77, 178)] {
            let mut binds = bind_word(&a, x);
            binds.extend(bind_word(&b, y));
            let got = eval_bus(&nl, &binds, &sum);
            assert_eq!(got, (x + y) & 0xFF, "{x}+{y}");
            let carry = eval_bus(&nl, &binds, &vec![cout]);
            assert_eq!(carry, (x + y) >> 8, "carry of {x}+{y}");
        }
    }

    #[test]
    fn subtractor_is_correct() {
        let w = 8;
        let mut nl = Netlist::new("sub");
        let a = input_word(&mut nl, "a", w);
        let b = input_word(&mut nl, "b", w);
        let (diff, _) = subtractor(&mut nl, "fu", &a, &b);
        nl.check().unwrap();
        for (x, y) in [(5u64, 3u64), (3, 5), (255, 255), (0, 1), (200, 123)] {
            let mut binds = bind_word(&a, x);
            binds.extend(bind_word(&b, y));
            let got = eval_bus(&nl, &binds, &diff);
            assert_eq!(got, x.wrapping_sub(y) & 0xFF, "{x}-{y}");
        }
    }

    #[test]
    fn addsub_obeys_mode() {
        let w = 6;
        let mut nl = Netlist::new("alu");
        let a = input_word(&mut nl, "a", w);
        let b = input_word(&mut nl, "b", w);
        let mode = nl.add_input("mode");
        let out = addsub(&mut nl, "fu", &a, &b, mode);
        nl.check().unwrap();
        let mask = (1u64 << w) - 1;
        for (x, y) in [(10u64, 7u64), (7, 10), (63, 1), (0, 0)] {
            for m in [false, true] {
                let mut binds = bind_word(&a, x);
                binds.extend(bind_word(&b, y));
                binds.push((mode, m));
                let got = eval_bus(&nl, &binds, &out);
                let want = if m { x.wrapping_sub(y) } else { x + y } & mask;
                assert_eq!(got, want, "x={x} y={y} sub={m}");
            }
        }
    }

    #[test]
    fn multiplier_is_correct() {
        let w = 6;
        let mut nl = Netlist::new("mul");
        let a = input_word(&mut nl, "a", w);
        let b = input_word(&mut nl, "b", w);
        let p = array_multiplier(&mut nl, "fu", &a, &b);
        nl.check().unwrap();
        assert_eq!(p.len(), w);
        let mask = (1u64 << w) - 1;
        for x in [0u64, 1, 2, 3, 7, 31, 63] {
            for y in [0u64, 1, 5, 13, 63] {
                let mut binds = bind_word(&a, x);
                binds.extend(bind_word(&b, y));
                let got = eval_bus(&nl, &binds, &p);
                assert_eq!(got, (x * y) & mask, "{x}*{y}");
            }
        }
    }

    #[test]
    fn multiplier_exhaustive_4bit() {
        let w = 4;
        let mut nl = Netlist::new("mul4");
        let a = input_word(&mut nl, "a", w);
        let b = input_word(&mut nl, "b", w);
        let p = array_multiplier(&mut nl, "fu", &a, &b);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut binds = bind_word(&a, x);
                binds.extend(bind_word(&b, y));
                assert_eq!(eval_bus(&nl, &binds, &p), (x * y) & 15, "{x}*{y}");
            }
        }
    }

    #[test]
    fn mux_tree_selects_each_input() {
        for n in [1usize, 2, 3, 5, 8, 11] {
            let w = 4;
            let mut nl = Netlist::new("m");
            let inputs: Vec<Bus> = (0..n)
                .map(|k| input_word(&mut nl, &format!("in{k}_"), w))
                .collect();
            let sel_bits = mux_select_bits(n);
            let sels: Vec<NodeId> = (0..sel_bits.max(1))
                .map(|i| nl.add_input(format!("s{i}")))
                .collect();
            let out = mux_tree(&mut nl, "mx", &sels, &inputs);
            nl.check().unwrap();
            for k in 0..n {
                let mut binds: Vec<(NodeId, bool)> = Vec::new();
                for (j, inp) in inputs.iter().enumerate() {
                    binds.extend(bind_word(inp, (j as u64 + 3) % 16));
                }
                for (i, &s) in sels.iter().enumerate() {
                    binds.push((s, (k >> i) & 1 == 1));
                }
                let got = eval_bus(&nl, &binds, &out);
                assert_eq!(got, (k as u64 + 3) % 16, "n={n} select input {k}");
            }
        }
    }

    #[test]
    fn mux_chain_matches_tree_encoding() {
        let n = 5;
        let w = 3;
        let mut nl = Netlist::new("mc");
        let inputs: Vec<Bus> = (0..n)
            .map(|k| input_word(&mut nl, &format!("in{k}_"), w))
            .collect();
        let sels: Vec<NodeId> = (0..mux_select_bits(n))
            .map(|i| nl.add_input(format!("s{i}")))
            .collect();
        let out = mux_chain(&mut nl, "mx", &sels, &inputs);
        nl.check().unwrap();
        for k in 0..n {
            let mut binds: Vec<(NodeId, bool)> = Vec::new();
            for (j, inp) in inputs.iter().enumerate() {
                binds.extend(bind_word(inp, j as u64 + 1));
            }
            for (i, &s) in sels.iter().enumerate() {
                binds.push((s, (k >> i) & 1 == 1));
            }
            assert_eq!(eval_bus(&nl, &binds, &out), k as u64 + 1, "select {k}");
        }
    }

    #[test]
    fn mux_select_bits_values() {
        assert_eq!(mux_select_bits(1), 0);
        assert_eq!(mux_select_bits(2), 1);
        assert_eq!(mux_select_bits(3), 2);
        assert_eq!(mux_select_bits(4), 2);
        assert_eq!(mux_select_bits(5), 3);
        assert_eq!(mux_select_bits(8), 3);
        assert_eq!(mux_select_bits(9), 4);
    }

    #[test]
    fn decoder_terms() {
        let mut nl = Netlist::new("dec");
        let sels: Vec<NodeId> = (0..5).map(|i| nl.add_input(format!("s{i}"))).collect();
        let hit = decode_equals(&mut nl, "d", &sels, 19); // 0b10011
        nl.check().unwrap();
        for v in 0..32u64 {
            let binds: Vec<(NodeId, bool)> = sels
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, (v >> i) & 1 == 1))
                .collect();
            assert_eq!(eval_bus(&nl, &binds, &vec![hit]) == 1, v == 19, "v={v}");
        }
    }

    #[test]
    fn register_with_enable_holds() {
        let mut nl = Netlist::new("reg");
        let d = input_word(&mut nl, "d", 4);
        let en = nl.add_input("en");
        let reg = register_word(&mut nl, "r0", 4, 0);
        connect_register_with_enable(&mut nl, "r0", &reg, en, &d);
        nl.check().unwrap();
        assert_eq!(nl.num_latches(), 4);
        // the D input of each latch must be a mux2 over (q, d, en)
        for &l in &reg.latches {
            let fanins = nl.fanins(l);
            assert_eq!(fanins.len(), 1);
        }
    }
}
