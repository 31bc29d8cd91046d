//! Event-driven unit-delay simulation with toggle accounting.
//!
//! This is the reproduction's substitute for the Quartus II simulator +
//! PowerPlay toggle measurement: every logic node (LUT) has one unit of
//! delay, so a primary-input or register change at the clock edge (time 0)
//! ripples through the network producing transitions at discrete times —
//! including *glitches*, the spurious intermediate transitions caused by
//! unbalanced path depths that the paper's binding algorithm minimizes.
//!
//! Per cycle, per node, the simulator counts every output transition.
//! A node whose settled value differs from its value at the start of the
//! cycle contributes one *functional* transition; all remaining
//! transitions are glitches.
//!
//! [`CycleSim`] compiles its netlist once into the flat simulation graph
//! it shares with [`crate::SlabSim`] and keeps every LUT's fanin row
//! current, so evaluating a LUT is one shift of its truth-table word; the
//! type docs say why that reads exactly the values a gather would.

use crate::eval::Evaluator;
use crate::graph::SimGraph;
use netlist::binio::{self, BinError};
use netlist::{Netlist, NodeId};
use std::marker::PhantomData;

/// Version of the binary sim-summary encoding (the `"simu"` payload).
pub const SIM_SUMMARY_VERSION: u32 = 1;

/// Cumulative simulation statistics.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Number of simulated clock cycles.
    pub cycles: u64,
    /// Total output transitions over all nodes (inputs and latch outputs
    /// included).
    pub total_transitions: u64,
    /// Transitions that changed a node's settled value across the cycle.
    pub functional_transitions: u64,
    /// `total - functional`: spurious transitions.
    pub glitch_transitions: u64,
    /// Per-node transition counters (indexed by node id).
    pub per_node: Vec<u64>,
}

impl SimStats {
    /// Glitch share of all transitions.
    pub fn glitch_fraction(&self) -> f64 {
        if self.total_transitions == 0 {
            0.0
        } else {
            self.glitch_transitions as f64 / self.total_transitions as f64
        }
    }

    /// Mean transitions per node per cycle (the simulated analogue of the
    /// paper's normalized switching activity).
    pub fn mean_activity(&self) -> f64 {
        if self.cycles == 0 || self.per_node.is_empty() {
            0.0
        } else {
            self.total_transitions as f64 / self.cycles as f64 / self.per_node.len() as f64
        }
    }

    /// Serializes the summary (cycles, transition totals, node count) as
    /// an `hlpbin v1` `"simu"` container — the format the experiment
    /// artifact store caches simulation results in — as one section of
    /// five little-endian `u64`s. Per-node counters are *not* part of the
    /// summary; [`SimStats::from_summary_bin`] restores them as zeros of
    /// the right length, so every aggregate accessor (totals,
    /// [`SimStats::glitch_fraction`], [`SimStats::mean_activity`])
    /// survives the round trip exactly.
    pub fn to_summary_bin(&self) -> Vec<u8> {
        let mut w = binio::BinWriter::new(binio::KIND_SIM, SIM_SUMMARY_VERSION);
        let mut body = Vec::with_capacity(40);
        body.extend_from_slice(&self.cycles.to_le_bytes());
        body.extend_from_slice(&self.total_transitions.to_le_bytes());
        body.extend_from_slice(&self.functional_transitions.to_le_bytes());
        body.extend_from_slice(&self.glitch_transitions.to_le_bytes());
        body.extend_from_slice(&(self.per_node.len() as u64).to_le_bytes());
        w.section(&body);
        w.finish()
    }

    /// Parses a summary written by [`SimStats::to_summary_bin`],
    /// rejecting a transition split where functional + glitch != total.
    ///
    /// # Errors
    ///
    /// Any container or payload defect is a [`BinError`]; the artifact
    /// store treats them all as cache misses.
    pub fn from_summary_bin(data: &[u8]) -> Result<SimStats, BinError> {
        let r = binio::BinReader::open(data, binio::KIND_SIM, SIM_SUMMARY_VERSION)?;
        let mut c = binio::Cursor::new(r.section(0)?);
        let cycles = c.u64()?;
        let total_transitions = c.u64()?;
        let functional_transitions = c.u64()?;
        let glitch_transitions = c.u64()?;
        let nodes = c.read_len()?;
        if !c.done() {
            return Err(BinError::Malformed(
                "trailing bytes after sim summary".to_string(),
            ));
        }
        if functional_transitions.checked_add(glitch_transitions) != Some(total_transitions) {
            return Err(BinError::Malformed(
                "inconsistent transition split".to_string(),
            ));
        }
        Ok(SimStats {
            cycles,
            total_transitions,
            functional_transitions,
            glitch_transitions,
            per_node: vec![0; nodes],
        })
    }
}

/// Per-cycle transition summary returned by [`CycleSim::step`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Transitions in this cycle.
    pub transitions: u64,
    /// Functional transitions in this cycle.
    pub functional: u64,
    /// Glitch transitions in this cycle.
    pub glitches: u64,
}

/// Marks a node that is not scheduled in any wheel slot.
pub(crate) const UNSCHEDULED: u32 = u32::MAX;

/// Unit-delay, cycle-based event simulator.
///
/// Each [`CycleSim::step`] models one clock cycle: latches capture their
/// `D` values and primary inputs take their new values simultaneously at
/// time 0; changes then propagate with one unit of delay per logic level
/// while transitions are counted.
///
/// The engine runs on the netlist's compiled simulation graph (see the
/// crate docs) and keeps every logic node's **fanin row** current: bit
/// `k` of `rows[id]` is the value of fanin `k`, so the row is the
/// truth-table row the node reads now. Committing a change XORs the
/// driver's pin mask into each reader's row, and evaluating a LUT is one
/// shift of its table word. A row is updated only when a value is
/// committed, and every node of a time slot is evaluated before any of
/// the slot's changes commit, so each evaluation reads its fanins as of
/// the previous time step — the same values a gather over the fanins
/// would read, and so the same counts.
#[derive(Debug)]
pub struct CycleSim<'a> {
    g: SimGraph,
    values: Vec<bool>,
    /// Packed fanin values of each logic node (see the type docs).
    rows: Vec<u32>,
    /// Each node's value when the current cycle first changed it (read
    /// only for nodes in `touched`).
    cycle_start: Vec<bool>,
    stats: SimStats,
    // time wheel state
    wheel: Vec<Vec<u32>>,
    scheduled_at: Vec<u32>,
    /// Nodes changed this cycle: `touched[..touched_len]`.
    touched: Vec<u32>,
    touched_len: usize,
    touch_stamp: Vec<u64>,
    // per-step scratch, reused from step to step
    batch: Vec<u32>,
    updates: Vec<u32>,
    captured: Vec<bool>,
    netlist: PhantomData<&'a Netlist>,
}

impl<'a> CycleSim<'a> {
    /// Creates a simulator with latches at init values, inputs low, and
    /// combinational logic settled (no transitions counted for this
    /// initialization).
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::check`].
    pub fn new(nl: &'a Netlist) -> Self {
        let ev = Evaluator::new(nl); // validates + settles initial state
        let values = ev.values().to_vec();
        let g = SimGraph::new(nl);
        let n = g.num_nodes();
        let rows = (0..n)
            .map(|id| {
                g.fanins(id)
                    .iter()
                    .enumerate()
                    .fold(0u32, |row, (k, &f)| row | (values[f as usize] as u32) << k)
            })
            .collect();
        CycleSim {
            wheel: vec![Vec::new(); g.wheel_len()],
            g,
            values,
            rows,
            cycle_start: vec![false; n],
            stats: SimStats {
                per_node: vec![0; n],
                ..SimStats::default()
            },
            scheduled_at: vec![UNSCHEDULED; n],
            // One spare slot each: `touched` and `updates` are appended to
            // by an unconditional write plus a conditional length bump,
            // and hold at most one entry per node.
            touched: vec![0; n + 1],
            touched_len: 0,
            touch_stamp: vec![0; n],
            batch: Vec::new(),
            updates: vec![0; n + 1],
            captured: Vec::new(),
            netlist: PhantomData,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current settled value of a node.
    pub fn value(&self, id: NodeId) -> bool {
        self.values[id.index()]
    }

    /// Reads a little-endian word of node values.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is wider than 64 — a `<< i` past bit 63 would
    /// panic in debug builds but silently wrap in release, folding bit
    /// `i` onto bit `i - 64`.
    pub fn word(&self, bits: &[NodeId]) -> u64 {
        assert!(
            bits.len() <= 64,
            "word read limited to 64 bits, bus has {}",
            bits.len()
        );
        bits.iter().enumerate().fold(0u64, |acc, (i, &b)| {
            acc | ((self.values[b.index()] as u64) << i)
        })
    }

    /// Runs one clock cycle with the given primary-input vector (one bool
    /// per input, in [`Netlist::inputs`] order).
    ///
    /// # Panics
    ///
    /// Panics if `pi_vector.len()` differs from the input count.
    pub fn step(&mut self, pi_vector: &[bool]) -> CycleReport {
        assert_eq!(
            pi_vector.len(),
            self.g.inputs().len(),
            "one value per primary input"
        );
        self.touched_len = 0;

        let mut report = CycleReport::default();
        // Time 0: latch capture + new PI vector, simultaneously. Every D
        // is read before any Q changes.
        self.captured.clear();
        self.captured.extend(
            self.g
                .latches()
                .iter()
                .map(|&(_, d)| self.values[d as usize]),
        );
        for k in 0..self.captured.len() {
            let q = self.g.latches()[k].0;
            self.apply_change(q, self.captured[k], &mut report);
        }
        for (k, &v) in pi_vector.iter().enumerate() {
            let id = self.g.inputs()[k];
            self.apply_change(id, v, &mut report);
        }

        // Propagate with unit delay.
        for t in 1..self.wheel.len() {
            if self.wheel[t].is_empty() {
                continue;
            }
            std::mem::swap(&mut self.batch, &mut self.wheel[t]);
            // Two-phase update: every node scheduled at time t must see its
            // fanins as of time t-1, so evaluate the whole batch before
            // committing any change. Whether a node changes depends on the
            // data, so the changed ones are collected without a branch:
            // write every id, keep it only if the node changed.
            let mut changed = 0;
            for &id in &self.batch {
                let i = id as usize;
                // Clear the push-dedup mark so later re-schedules (and
                // later cycles) can enqueue this node again.
                self.scheduled_at[i] = UNSCHEDULED;
                self.updates[changed] = id;
                changed += usize::from(self.g.lut(i, self.rows[i]) != self.values[i]);
            }
            self.batch.clear();
            for k in 0..changed {
                self.commit(self.updates[k], t + 1, &mut report);
            }
        }

        // Functional/glitch split.
        for &id in &self.touched[..self.touched_len] {
            let i = id as usize;
            report.functional += u64::from(self.values[i] != self.cycle_start[i]);
        }
        report.glitches = report.transitions - report.functional;
        self.stats.cycles += 1;
        self.stats.total_transitions += report.transitions;
        self.stats.functional_transitions += report.functional;
        self.stats.glitch_transitions += report.glitches;
        report
    }

    fn apply_change(&mut self, id: u32, value: bool, report: &mut CycleReport) {
        if self.values[id as usize] != value {
            self.commit(id, 1, report);
        }
    }

    /// Flips node `id`, counts the transition, and schedules its logic
    /// readers at `time` with their rows updated.
    fn commit(&mut self, id: u32, time: usize, report: &mut CycleReport) {
        let i = id as usize;
        let old = self.values[i];
        self.values[i] = !old;
        report.transitions += 1;
        self.stats.per_node[i] += 1;
        // The first change this cycle records the node and its start
        // value, again without a data-dependent branch.
        let stamp = self.stats.cycles + 1;
        let first = self.touch_stamp[i] != stamp;
        self.touch_stamp[i] = stamp;
        self.touched[self.touched_len] = id;
        self.touched_len += usize::from(first);
        self.cycle_start[i] = if first { old } else { self.cycle_start[i] };
        for e in self.g.fanouts(i) {
            let r = e.node as usize;
            self.rows[r] ^= e.pins;
            if self.scheduled_at[r] != time as u32 {
                self.scheduled_at[r] = time as u32;
                self.wheel[time].push(e.node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{cells, Netlist, TruthTable};

    #[test]
    fn settled_values_match_zero_delay() {
        let mut nl = Netlist::new("eq");
        let a: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("b{i}"))).collect();
        let p = cells::array_multiplier(&mut nl, "m", &a, &b);
        for (i, s) in p.iter().enumerate() {
            nl.mark_output(format!("p{i}"), *s);
        }
        let mut sim = CycleSim::new(&nl);
        let mut ev = Evaluator::new(&nl);
        let cases = [(3u64, 5u64), (63, 63), (17, 2), (0, 9), (44, 21)];
        for (x, y) in cases {
            let mut vec_bits = Vec::new();
            for i in 0..6 {
                vec_bits.push((x >> i) & 1 == 1);
            }
            for i in 0..6 {
                vec_bits.push((y >> i) & 1 == 1);
            }
            sim.step(&vec_bits);
            ev.set_word(&a, x);
            ev.set_word(&b, y);
            ev.settle();
            assert_eq!(sim.word(&p), ev.word(&p), "{x}*{y}");
            assert_eq!(sim.word(&p), (x * y) & 63);
        }
    }

    #[test]
    fn single_gate_no_glitches() {
        let mut nl = Netlist::new("g");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_logic("g", vec![a, b], TruthTable::xor(2));
        nl.mark_output("o", g);
        let mut sim = CycleSim::new(&nl);
        sim.step(&[true, false]);
        sim.step(&[true, true]);
        sim.step(&[false, true]);
        let stats = sim.stats();
        assert_eq!(stats.glitch_transitions, 0, "one level cannot glitch");
        assert!(stats.functional_transitions > 0);
    }

    #[test]
    fn skewed_paths_glitch() {
        // f = AND(AND(a, b), c): when (a,b) go 0->1 while c falls 1->0 the
        // settled value stays 0, but c's late arrival means... actually
        // glitches arise when an early input briefly enables the output.
        // Drive a=b=1, c: 1 -> with (a,b) switching 0->1 the middle gate
        // rises at t=1, f rises at t=2; settled f=1: functional. To force a
        // glitch: start a=1,b=1 (g=1), c=0, f=0; switch c->1 and b->0 in
        // the same cycle: f sees c=1,g=1 at t=1 (rises: glitch), then g
        // falls at t=1 so f falls at t=2. Settled f=0: pure glitch.
        let mut nl = Netlist::new("gl");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
        let f = nl.add_logic("f", vec![g, c], TruthTable::and(2));
        nl.mark_output("o", f);
        let mut sim = CycleSim::new(&nl);
        sim.step(&[true, true, false]); // establish a=b=1, c=0, f=0
        let before = sim.stats().glitch_transitions;
        let report = sim.step(&[true, false, true]); // b falls, c rises
        assert!(!sim.value(f), "settled value is 0");
        assert!(
            sim.stats().glitch_transitions > before,
            "f pulsed high then low: {report:?}"
        );
        assert_eq!(report.glitches, 2, "f rose and fell: two glitch edges");
    }

    #[test]
    fn latches_capture_on_step() {
        // accumulator: acc' = acc + in (2 bits)
        let mut nl = Netlist::new("acc");
        let d: Vec<NodeId> = (0..2).map(|i| nl.add_input(format!("d{i}"))).collect();
        let reg = cells::register_word(&mut nl, "acc", 2, 0);
        let (sum, _) = cells::ripple_adder(&mut nl, "add", &reg.q, &d, None);
        cells::connect_register(&mut nl, &reg, &sum);
        nl.mark_output("acc0", reg.q[0]);
        nl.mark_output("acc1", reg.q[1]);
        let mut sim = CycleSim::new(&nl);
        // After first step the register still holds 0 (it captures the D
        // computed from the *previous* cycle's inputs, which were 0).
        sim.step(&[true, false]); // present 1
        assert_eq!(sim.word(&reg.q), 0);
        sim.step(&[true, false]); // capture 0+1, present 1
        assert_eq!(sim.word(&reg.q), 1);
        sim.step(&[false, true]); // capture 1+1, present 2
        assert_eq!(sim.word(&reg.q), 2);
        sim.step(&[false, false]); // capture 2+2 (present 0)
        assert_eq!(sim.word(&reg.q), 0, "wraps mod 4");
    }

    #[test]
    fn transition_counts_are_consistent() {
        let mut nl = Netlist::new("count");
        let a: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let (s, _) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
        for (i, x) in s.iter().enumerate() {
            nl.mark_output(format!("s{i}"), *x);
        }
        let mut sim = CycleSim::new(&nl);
        let mut rng_state = 12345u64;
        let mut next = || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng_state >> 33
        };
        for _ in 0..50 {
            let v = next();
            let bits: Vec<bool> = (0..8).map(|i| (v >> i) & 1 == 1).collect();
            sim.step(&bits);
        }
        let stats = sim.stats();
        assert_eq!(
            stats.total_transitions,
            stats.functional_transitions + stats.glitch_transitions
        );
        assert_eq!(stats.per_node.iter().sum::<u64>(), stats.total_transitions);
        assert_eq!(stats.cycles, 50);
        assert!(stats.mean_activity() > 0.0);
    }

    #[test]
    #[should_panic(expected = "word read limited to 64 bits")]
    fn word_rejects_buses_wider_than_64() {
        // Regression: `<< i` over a 65+-bit bus used to panic in debug
        // builds and silently wrap (bit 64 folded onto bit 0) in release.
        let mut nl = Netlist::new("wide");
        let bus: Vec<NodeId> = (0..65).map(|i| nl.add_input(format!("a{i}"))).collect();
        let g = nl.add_logic("g", vec![bus[0]], TruthTable::buffer());
        nl.mark_output("o", g);
        let sim = CycleSim::new(&nl);
        sim.word(&bus);
    }

    /// Steps the zero-delay oracle, the scalar engine and a 3-lane slab
    /// (every lane on the same vectors) through `vectors`, asserting after
    /// every cycle that each engine's settled value of every node equals
    /// the oracle's.
    fn assert_engines_settle_like_the_evaluator(nl: &Netlist, vectors: &[Vec<bool>]) {
        let mut ev = Evaluator::new(nl);
        let mut scalar = CycleSim::new(nl);
        let mut slab = crate::SlabSim::<1>::new(nl, 3);
        for (c, v) in vectors.iter().enumerate() {
            ev.step_clock();
            for (&i, &b) in nl.inputs().iter().zip(v) {
                ev.set_input(i, b);
            }
            ev.settle();
            scalar.step(v);
            let words: Vec<u64> = v.iter().map(|&b| if b { 0b111 } else { 0 }).collect();
            slab.step(&words);
            for (id, node) in nl.nodes() {
                let want = ev.value(id);
                assert_eq!(scalar.value(id), want, "cycle {c}: scalar {}", node.name);
                for lane in 0..3 {
                    assert_eq!(
                        slab.value(id, lane),
                        want,
                        "cycle {c}: slab lane {lane} {}",
                        node.name
                    );
                }
            }
        }
    }

    #[test]
    fn logic_deeper_than_every_output_cone_settles_within_the_cycle() {
        // Regression: the wheel was sized by `Netlist::depth()`, which
        // covers only output and latch-data cones. The dead chain
        // a -> n1 -> n2 -> n3 is deeper than the output `o = !a`, so
        // n3's event was clamped into the last slot and finished in the
        // next cycle: after cycle 0 the engines held n3 = 1 where the
        // oracle settles 0, and cycle 3 counted a transition on n3
        // although `a` did not change.
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let o = nl.add_logic("o", vec![a], TruthTable::inverter());
        let n1 = nl.add_logic("n1", vec![a], TruthTable::buffer());
        let n2 = nl.add_logic("n2", vec![n1], TruthTable::inverter());
        let n3 = nl.add_logic("n3", vec![n2], TruthTable::buffer());
        nl.mark_output("o", o);
        let a_at = [true, false, true, true, false, false];
        let vectors: Vec<Vec<bool>> = a_at.iter().map(|&b| vec![b]).collect();
        assert_engines_settle_like_the_evaluator(&nl, &vectors);
        // n3 follows `a` exactly once per change of `a`: 4 changes.
        let mut sim = CycleSim::new(&nl);
        for v in &vectors {
            sim.step(v);
        }
        assert_eq!(sim.stats().per_node[n3.index()], 4);
        assert_eq!(
            sim.stats().glitch_transitions,
            0,
            "every path has one arrival"
        );
    }

    #[test]
    fn wide_tables_and_repeated_fanins_settle_like_the_evaluator() {
        // An 8-input node (a multi-word table) read through a latch
        // and a downstream LUT, plus a node that reads one driver on two
        // pins (one fanout edge whose pin mask flips both row bits).
        let mut nl = Netlist::new("wide");
        let ins: Vec<NodeId> = (0..7).map(|i| nl.add_input(format!("i{i}"))).collect();
        let q = nl.add_latch("q", true);
        let mut fanins = ins.clone();
        fanins.push(q);
        let rom = TruthTable::from_fn(8, |r| (r * 37 + r / 5) % 7 < 3 || r == 255);
        let w = nl.add_logic("w", fanins, rom);
        let x = nl.add_logic("x", vec![w, ins[0]], TruthTable::xor(2));
        nl.set_latch_data(q, x);
        nl.mark_output("o", x);
        let y = nl.add_logic("y", vec![ins[1], x, ins[1]], TruthTable::mux2());
        nl.mark_output("p", y);
        let mut src = crate::VectorSource::new(5);
        let vectors: Vec<Vec<bool>> = (0..200).map(|_| src.next_vector(7)).collect();
        assert_engines_settle_like_the_evaluator(&nl, &vectors);
    }

    #[test]
    fn idle_cycles_produce_no_transitions() {
        let mut nl = Netlist::new("idle");
        let a = nl.add_input("a");
        let g = nl.add_logic("g", vec![a], TruthTable::inverter());
        nl.mark_output("o", g);
        let mut sim = CycleSim::new(&nl);
        sim.step(&[true]);
        let r = sim.step(&[true]);
        assert_eq!(r, CycleReport::default());
    }

    #[test]
    fn summary_bin_roundtrips_aggregates() {
        let mut nl = Netlist::new("sum");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
        let h = nl.add_logic("h", vec![g, c], TruthTable::and(2));
        nl.mark_output("o", h);
        let stats = crate::run_random(&nl, 200, 7);
        let bin = stats.to_summary_bin();
        let back = SimStats::from_summary_bin(&bin).unwrap();
        assert_eq!(back.cycles, stats.cycles);
        assert_eq!(back.total_transitions, stats.total_transitions);
        assert_eq!(back.functional_transitions, stats.functional_transitions);
        assert_eq!(back.glitch_transitions, stats.glitch_transitions);
        assert_eq!(back.per_node.len(), stats.per_node.len());
        assert_eq!(back.glitch_fraction(), stats.glitch_fraction());
        assert_eq!(back.mean_activity(), stats.mean_activity());
        // Re-encoding is byte-stable.
        assert_eq!(back.to_summary_bin(), bin);
    }

    #[test]
    fn summary_bin_rejects_corruption_and_inconsistency() {
        let stats = SimStats {
            cycles: 1,
            total_transitions: 5,
            functional_transitions: 3,
            glitch_transitions: 2,
            per_node: vec![0; 4],
        };
        let good = stats.to_summary_bin();
        for cut in 0..good.len() {
            assert!(SimStats::from_summary_bin(&good[..cut]).is_err());
        }
        assert!(SimStats::from_summary_bin(b"# hlpower sim v1\n").is_err());
        // A split where functional + glitch != total fails even inside a
        // well-formed container.
        let bad = SimStats {
            functional_transitions: 4,
            ..stats
        };
        let mut bytes = bad.to_summary_bin();
        assert!(SimStats::from_summary_bin(&bytes).is_err());
        // ...and a checksum flip is caught.
        bytes = good.clone();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(SimStats::from_summary_bin(&bytes).is_err());
    }
}
