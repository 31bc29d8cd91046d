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

use crate::eval::Evaluator;
use netlist::binio::{self, BinError};
use netlist::{Netlist, NodeId, NodeKind};

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

/// Unit-delay, cycle-based event simulator.
///
/// Each [`CycleSim::step`] models one clock cycle: latches capture their
/// `D` values and primary inputs take their new values simultaneously at
/// time 0; changes then propagate with one unit of delay per logic level
/// while transitions are counted.
#[derive(Debug)]
pub struct CycleSim<'a> {
    nl: &'a Netlist,
    fanouts: Vec<Vec<NodeId>>,
    values: Vec<bool>,
    cycle_start: Vec<bool>,
    stats: SimStats,
    // time wheel state
    wheel: Vec<Vec<NodeId>>,
    scheduled_at: Vec<u32>,
    touched: Vec<NodeId>,
    touch_stamp: Vec<u64>,
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
        let depth = nl.depth() as usize;
        CycleSim {
            nl,
            fanouts: nl.fanouts(),
            cycle_start: values.clone(),
            values,
            stats: SimStats {
                per_node: vec![0; nl.num_nodes()],
                ..SimStats::default()
            },
            wheel: vec![Vec::new(); depth + 2],
            scheduled_at: vec![u32::MAX; nl.num_nodes()],
            touched: Vec::new(),
            touch_stamp: vec![0; nl.num_nodes()],
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
        let inputs = self.nl.inputs();
        assert_eq!(pi_vector.len(), inputs.len(), "one value per primary input");
        self.cycle_start.copy_from_slice(&self.values);
        self.touched.clear();

        let mut report = CycleReport::default();
        // Time 0: latch capture + new PI vector, simultaneously.
        let captured: Vec<(NodeId, bool)> = self
            .nl
            .latches()
            .iter()
            .map(|&l| match &self.nl.node(l).kind {
                NodeKind::Latch { data, .. } => (l, self.values[data.index()]),
                _ => unreachable!(),
            })
            .collect();
        for (l, v) in captured {
            self.apply_change(l, v, &mut report);
        }
        let pi_changes: Vec<(NodeId, bool)> = inputs
            .iter()
            .zip(pi_vector)
            .map(|(&i, &v)| (i, v))
            .collect();
        for (i, v) in pi_changes {
            self.apply_change(i, v, &mut report);
        }

        // Propagate with unit delay.
        let mut t = 1usize;
        while t < self.wheel.len() {
            if self.wheel[t].is_empty() {
                t += 1;
                continue;
            }
            let batch = std::mem::take(&mut self.wheel[t]);
            // Two-phase update: every node scheduled at time t must see its
            // fanins as of time t-1, so evaluate the whole batch before
            // committing any change.
            let mut updates: Vec<(NodeId, bool)> = Vec::with_capacity(batch.len());
            for id in batch {
                // Clear the push-dedup mark so later re-schedules (and
                // later cycles) can enqueue this node again.
                if self.scheduled_at[id.index()] == t as u32 {
                    self.scheduled_at[id.index()] = u32::MAX;
                }
                if let NodeKind::Logic { fanins, table } = &self.nl.node(id).kind {
                    let mut row = 0u32;
                    for (k, f) in fanins.iter().enumerate() {
                        if self.values[f.index()] {
                            row |= 1 << k;
                        }
                    }
                    let new = table.eval(row);
                    if new != self.values[id.index()] {
                        updates.push((id, new));
                    }
                }
            }
            for (id, new) in updates {
                self.values[id.index()] = new;
                self.count_transition(id, &mut report);
                self.schedule_fanouts(id, t + 1);
            }
            t += 1;
        }

        // Functional/glitch split.
        for &id in &self.touched {
            if self.values[id.index()] != self.cycle_start[id.index()] {
                report.functional += 1;
            }
        }
        report.glitches = report.transitions - report.functional;
        self.stats.cycles += 1;
        self.stats.total_transitions += report.transitions;
        self.stats.functional_transitions += report.functional;
        self.stats.glitch_transitions += report.glitches;
        report
    }

    fn apply_change(&mut self, id: NodeId, value: bool, report: &mut CycleReport) {
        if self.values[id.index()] != value {
            self.values[id.index()] = value;
            self.count_transition(id, report);
            self.schedule_fanouts(id, 1);
        }
    }

    fn count_transition(&mut self, id: NodeId, report: &mut CycleReport) {
        report.transitions += 1;
        let stamp = self.stats.cycles + 1;
        if self.touch_stamp[id.index()] != stamp {
            self.touch_stamp[id.index()] = stamp;
            self.touched.push(id);
        }
        self.stats.per_node[id.index()] += 1;
    }

    fn schedule_fanouts(&mut self, id: NodeId, time: usize) {
        let time = time.min(self.wheel.len() - 1);
        // Latch data edges appear in fanouts but latches only sample at
        // the clock edge, so only logic fanouts are scheduled. Index-based
        // iteration keeps the borrow checker happy without allocating.
        for k in 0..self.fanouts[id.index()].len() {
            let fo = self.fanouts[id.index()][k];
            if matches!(self.nl.node(fo).kind, NodeKind::Logic { .. })
                && self.scheduled_at[fo.index()] != time as u32
            {
                self.scheduled_at[fo.index()] = time as u32;
                self.wheel[time].push(fo);
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
