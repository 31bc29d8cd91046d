//! Multi-word slab simulation: bit-sliced lanes with an activity-gated
//! sparse sweep.
//!
//! [`SlabSim`] packs up to [`MAX_SLAB_LANES`] (512) **independent
//! simulation lanes** into a **slab** of `W` `u64` words per node
//! (`[u64; W]`, 64 lanes per word, `W` up to [`MAX_SLAB_WORDS`]): lane
//! `L` of every node slab is a complete, self-contained unit-delay
//! simulation identical to what [`crate::CycleSim`] would compute for
//! that lane's stimulus. LUT rows are evaluated bitwise across all lanes
//! at once, and transitions are counted with a `popcount` of `old ^ new`
//! per changed word — so one pass through the event wheel advances up to
//! 512 random-vector streams. The inner evaluation kernel is written as
//! straight-line per-word loops over a const-generic `W`, which the
//! compiler unrolls and autovectorizes.
//!
//! On top of the wide kernel sits an **activity gate**: every node
//! carries a per-word dirty bitmask (`u8`, one bit per slab word) that
//! accumulates *which words of which fanins actually changed*. When a
//! scheduled node is evaluated, only its dirty words are recomputed — a
//! word in which no fanin changed would re-evaluate to its current
//! value, so skipping it is **exact**, not an approximation (the same
//! argument that makes re-evaluating a lane whose fanins are quiet free
//! of spurious transitions). Quiescent slab regions therefore cost
//! nothing beyond a mask test, and [`SlabSim::activity`] reports the
//! measured skip rate.
//!
//! Lane-exactness is the module's contract:
//!
//! * the event wheel schedules a node whenever **any** lane's fanin
//!   changed, but a lane in which no fanin changed re-evaluates to its
//!   current value, so no spurious transitions are ever counted;
//! * the functional/glitch split is taken per lane (`popcount` of
//!   settled-XOR-cycle-start), exactly as [`crate::CycleSim`] splits a
//!   single lane;
//! * global lane `L` lives in word `L / 64`, bit `L % 64`, and draws its
//!   stimulus from [`crate::lane_seed`]`(seed, L)` — so lane 0 of word 0
//!   replays the scalar stream byte for byte, and any `N`-lane run is
//!   the lane-decomposition of `N` scalar runs (the differential tests
//!   assert both identities).
//!
//! [`SimStats::cycles`] counts *lane-cycles* (`steps × lanes`), so the
//! downstream power model sees a 256-lane run as 256× the vector budget.
//!
//! # Examples
//!
//! ```
//! use netlist::{Netlist, TruthTable};
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
//! let h = nl.add_logic("h", vec![g, c], TruthTable::and(2));
//! nl.mark_output("o", h);
//! // 256 lanes x 50 steps = 12800 simulated vectors in 50 wheel passes.
//! let stats = gatesim::run_random_slab(&nl, 50, 42, 256);
//! assert_eq!(stats.cycles, 50 * 256);
//! ```

use crate::eval::Evaluator;
use crate::event::{CycleReport, SimStats, UNSCHEDULED};
use crate::graph::SimGraph;
use crate::vectors::SlabVectorSource;
use netlist::{Netlist, NodeId};
use std::marker::PhantomData;

/// Maximum number of slab words per node (the dirty mask is a `u8`).
pub const MAX_SLAB_WORDS: usize = 8;

/// Maximum number of lanes a slab simulation can carry
/// ([`MAX_SLAB_WORDS`] × 64).
pub const MAX_SLAB_LANES: usize = MAX_SLAB_WORDS * 64;

/// Activity-gate counters of one slab run: how many node-words the gate
/// actually evaluated versus how many the scheduled nodes offered
/// (`scheduled nodes × W`). The difference is work a non-gated engine
/// would have spent re-computing words whose fanins were quiescent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabActivity {
    /// Node-words recomputed by the evaluation kernel.
    pub words_evaluated: u64,
    /// Node-words the scheduled nodes would have recomputed without the
    /// per-word dirty gate.
    pub words_offered: u64,
}

impl SlabActivity {
    /// Fraction of offered node-words the activity gate skipped
    /// (`0.0` when nothing was scheduled).
    pub fn skip_rate(&self) -> f64 {
        if self.words_offered == 0 {
            0.0
        } else {
            1.0 - self.words_evaluated as f64 / self.words_offered as f64
        }
    }
}

/// Calls `f` with every row on which a truth table, given as its words
/// (row `r` is bit `r % 64` of word `r / 64`), is true — walking the set
/// bits, so false rows cost nothing and no branch tests a row's value.
/// [`netlist::TruthTable`] keeps the bits past its last row clear, so
/// every set bit is a row.
fn for_each_true_row(table: &[u64], mut f: impl FnMut(u32)) {
    for (i, &word) in table.iter().enumerate() {
        let mut rows = word;
        while rows != 0 {
            f((i as u32) << 6 | rows.trailing_zeros());
            rows &= rows - 1;
        }
    }
}

/// The word to XOR a fanin with for row `row`: 0 where the row reads the
/// fanin as 1, all ones where it reads it as 0 (so the AND takes `!w`).
fn row_flip(row: u32, k: usize) -> u64 {
    u64::from((row >> k) & 1 == 0).wrapping_neg()
}

/// Evaluates one truth table bitwise across the lanes of one slab word:
/// OR over the true rows of the AND of each fanin word (inverted where
/// the row has a 0). `mask` limits the result to the active lanes. This
/// is the sparse path's per-word kernel.
fn eval_word(table: &[u64], fanins: &[u64], mask: u64) -> u64 {
    let mut out = 0u64;
    for_each_true_row(table, |row| {
        let mut m = mask;
        for (k, &w) in fanins.iter().enumerate() {
            m &= w ^ row_flip(row, k);
            if m == 0 {
                break;
            }
        }
        out |= m;
    });
    out
}

/// Evaluates one truth table across a whole slab: OR over the true rows
/// of the AND of each fanin slab (complemented where the row has a 0).
///
/// The `W`-word inner loops are straight-line with a const trip count,
/// so the compiler unrolls and autovectorizes them — this is the dense
/// (all-words-dirty) fast path.
fn eval_slab<const W: usize>(table: &[u64], fanins: &[[u64; W]], mask: &[u64; W]) -> [u64; W] {
    let mut out = [0u64; W];
    for_each_true_row(table, |row| {
        let mut m = *mask;
        for (k, fw) in fanins.iter().enumerate() {
            let flip = row_flip(row, k);
            for w in 0..W {
                m[w] &= fw[w] ^ flip;
            }
        }
        for w in 0..W {
            out[w] |= m[w];
        }
    });
    out
}

/// Unit-delay, cycle-based simulator over up to `W × 64` parallel lanes
/// packed as `W`-word slabs, with an activity-gated sparse sweep.
///
/// Each [`SlabSim::step`] models one clock cycle in every lane
/// simultaneously: latches capture their `D` slabs and primary inputs
/// take their new slabs at time 0, then changes propagate with one unit
/// of delay per logic level — the event wheel and two-phase time slots
/// of [`crate::CycleSim`], on the same compiled graph — while per-lane
/// transitions are accumulated. Evaluation only touches the slab words
/// whose fanins changed.
#[derive(Debug)]
pub struct SlabSim<'a, const W: usize> {
    g: SimGraph,
    lanes: usize,
    mask: [u64; W],
    /// Dirty bits covering every word with at least one active lane.
    full_dirty: u8,
    /// Node-major value slabs: `values[id * W + w]`.
    values: Vec<u64>,
    /// Each node's slab when the current step first changed it (read only
    /// for nodes in `touched`).
    cycle_start: Vec<u64>,
    stats: SimStats,
    steps_done: u64,
    // time wheel state (mirrors `CycleSim`)
    wheel: Vec<Vec<u32>>,
    scheduled_at: Vec<u32>,
    touched: Vec<u32>,
    touch_stamp: Vec<u64>,
    /// Per-node accumulated dirty-word bitmask (bit `w` = some fanin's
    /// word `w` changed since this node was last evaluated).
    dirty: Vec<u8>,
    // per-step scratch, reused from step to step: the batch being
    // evaluated, its changed slabs, the latch captures, and the per-node
    // fanin slabs / single words
    batch: Vec<u32>,
    updates: Vec<(u32, [u64; W], u8)>,
    captured: Vec<[u64; W]>,
    fanin_slabs: Vec<[u64; W]>,
    fanin_words: Vec<u64>,
    words_evaluated: u64,
    words_offered: u64,
    netlist: PhantomData<&'a Netlist>,
}

impl<'a, const W: usize> SlabSim<'a, W> {
    /// Creates a simulator with latches at init values, inputs low, and
    /// combinational logic settled in every lane (no transitions counted
    /// for this initialization).
    ///
    /// # Panics
    ///
    /// Panics if `W` is 0 or exceeds [`MAX_SLAB_WORDS`], if `lanes` is 0
    /// or exceeds `W * 64`, or if the netlist fails [`Netlist::check`].
    pub fn new(nl: &'a Netlist, lanes: usize) -> Self {
        assert!(
            (1..=MAX_SLAB_WORDS).contains(&W),
            "slab width must be in 1..={MAX_SLAB_WORDS} words, got {W}"
        );
        assert!(
            (1..=W * 64).contains(&lanes),
            "lanes must be in 1..={} for a {W}-word slab, got {lanes}",
            W * 64
        );
        let mut mask = [0u64; W];
        let mut full_dirty = 0u8;
        for (w, m) in mask.iter_mut().enumerate() {
            let lo = w * 64;
            *m = if lanes >= lo + 64 {
                u64::MAX
            } else if lanes > lo {
                (1u64 << (lanes - lo)) - 1
            } else {
                0
            };
            if *m != 0 {
                full_dirty |= 1 << w;
            }
        }
        // The zero-delay oracle validates the netlist and provides the
        // settled initial state, broadcast into every active lane.
        let ev = Evaluator::new(nl);
        let n = nl.num_nodes();
        let mut values = vec![0u64; n * W];
        for (id, &v) in ev.values().iter().enumerate() {
            if v {
                values[id * W..id * W + W].copy_from_slice(&mask);
            }
        }
        let g = SimGraph::new(nl);
        SlabSim {
            wheel: vec![Vec::new(); g.wheel_len()],
            g,
            lanes,
            mask,
            full_dirty,
            cycle_start: vec![0; n * W],
            values,
            stats: SimStats {
                per_node: vec![0; n],
                ..SimStats::default()
            },
            steps_done: 0,
            scheduled_at: vec![UNSCHEDULED; n],
            touched: Vec::new(),
            touch_stamp: vec![0; n],
            dirty: vec![0; n],
            batch: Vec::new(),
            updates: Vec::new(),
            captured: Vec::new(),
            fanin_slabs: Vec::new(),
            fanin_words: Vec::new(),
            words_evaluated: 0,
            words_offered: 0,
            netlist: PhantomData,
        }
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cumulative statistics. [`SimStats::cycles`] counts lane-cycles
    /// (`steps × lanes`); transition counters aggregate over all lanes.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Cumulative activity-gate counters (see [`SlabActivity`]).
    pub fn activity(&self) -> SlabActivity {
        SlabActivity {
            words_evaluated: self.words_evaluated,
            words_offered: self.words_offered,
        }
    }

    /// Current settled value of a node in one global lane (word
    /// `lane / 64`, bit `lane % 64`).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn value(&self, id: NodeId, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (self.values[id.index() * W + lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// One word of a node's value slab (bit `L` = global lane
    /// `word * 64 + L`).
    ///
    /// # Panics
    ///
    /// Panics if `word >= W`.
    pub fn lane_word(&self, id: NodeId, word: usize) -> u64 {
        assert!(word < W, "slab word {word} out of range");
        self.values[id.index() * W + word]
    }

    /// Reads a little-endian word of node values from one lane.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is wider than 64 or `lane >= lanes`.
    pub fn word(&self, bits: &[NodeId], lane: usize) -> u64 {
        assert!(
            bits.len() <= 64,
            "word read limited to 64 bits, bus has {}",
            bits.len()
        );
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (w, bit) = (lane / 64, lane % 64);
        bits.iter().enumerate().fold(0u64, |acc, (i, &b)| {
            acc | (((self.values[b.index() * W + w] >> bit) & 1) << i)
        })
    }

    /// Runs one clock cycle in every lane. `pi_slabs` holds `W` words
    /// per primary input (in [`Netlist::inputs`] order, input-major:
    /// `pi_slabs[input * W + w]`), one bit per lane; bits above the lane
    /// count are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `pi_slabs.len()` differs from `inputs × W`.
    pub fn step(&mut self, pi_slabs: &[u64]) -> CycleReport {
        assert_eq!(
            pi_slabs.len(),
            self.g.inputs().len() * W,
            "{W} slab word(s) per primary input"
        );
        self.touched.clear();
        self.steps_done += 1;

        let mut report = CycleReport::default();
        // Time 0: latch capture + new PI slabs, simultaneously. Every D
        // is read before any Q changes.
        self.captured.clear();
        for &(_, d) in self.g.latches() {
            self.captured.push(slab_of(&self.values, d as usize));
        }
        for k in 0..self.captured.len() {
            let q = self.g.latches()[k].0;
            self.apply_change(q, self.captured[k], &mut report);
        }
        for k in 0..self.g.inputs().len() {
            let id = self.g.inputs()[k];
            self.apply_change(id, slab_of(pi_slabs, k), &mut report);
        }

        // Propagate with unit delay; two-phase per time slot so every node
        // scheduled at time t sees its fanins as of time t-1 (in every
        // lane), exactly like the scalar simulator.
        for t in 1..self.wheel.len() {
            if self.wheel[t].is_empty() {
                continue;
            }
            std::mem::swap(&mut self.batch, &mut self.wheel[t]);
            for &id in &self.batch {
                let i = id as usize;
                self.scheduled_at[i] = UNSCHEDULED;
                let d = std::mem::take(&mut self.dirty[i]);
                if d == 0 {
                    continue;
                }
                self.words_offered += W as u64;
                let fanins = self.g.fanins(i);
                let table = self.g.table(i);
                let base = i * W;
                if d == self.full_dirty {
                    // Dense path: every active word has dirty fanins —
                    // evaluate the whole slab with the vectorized kernel.
                    self.words_evaluated += W as u64;
                    self.fanin_slabs.clear();
                    for &f in fanins {
                        self.fanin_slabs.push(slab_of(&self.values, f as usize));
                    }
                    let new = eval_slab(table, &self.fanin_slabs, &self.mask);
                    let mut changed = 0u8;
                    for (w, &nw) in new.iter().enumerate() {
                        if nw != self.values[base + w] {
                            changed |= 1 << w;
                        }
                    }
                    if changed != 0 {
                        self.updates.push((id, new, changed));
                    }
                } else {
                    // Sparse path: recompute only the dirty words. A word
                    // in which no fanin changed re-evaluates to its
                    // current value, so skipping it is exact.
                    self.words_evaluated += u64::from(d.count_ones());
                    let mut new = slab_of(&self.values, i);
                    let mut changed = 0u8;
                    let mut rest = d;
                    while rest != 0 {
                        let w = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        self.fanin_words.clear();
                        self.fanin_words
                            .extend(fanins.iter().map(|&f| self.values[f as usize * W + w]));
                        let nw = eval_word(table, &self.fanin_words, self.mask[w]);
                        if nw != new[w] {
                            new[w] = nw;
                            changed |= 1 << w;
                        }
                    }
                    if changed != 0 {
                        self.updates.push((id, new, changed));
                    }
                }
            }
            self.batch.clear();
            for k in 0..self.updates.len() {
                let (id, new, changed) = self.updates[k];
                self.apply_update(id, new, changed, t + 1, &mut report);
            }
            self.updates.clear();
        }

        // Functional/glitch split, per lane: a lane whose settled value
        // differs from its value at cycle start contributes one functional
        // transition.
        for &id in &self.touched {
            let base = id as usize * W;
            for w in 0..W {
                let diff = (self.values[base + w] ^ self.cycle_start[base + w]) & self.mask[w];
                report.functional += u64::from(diff.count_ones());
            }
        }
        report.glitches = report.transitions - report.functional;
        self.stats.cycles += self.lanes as u64;
        self.stats.total_transitions += report.transitions;
        self.stats.functional_transitions += report.functional;
        self.stats.glitch_transitions += report.glitches;
        report
    }

    fn apply_change(&mut self, id: u32, slab: [u64; W], report: &mut CycleReport) {
        let base = id as usize * W;
        let mut changed = 0u8;
        for (w, &sw) in slab.iter().enumerate() {
            if (sw & self.mask[w]) != self.values[base + w] {
                changed |= 1 << w;
            }
        }
        if changed != 0 {
            self.apply_update(id, slab, changed, 1, report);
        }
    }

    fn apply_update(
        &mut self,
        id: u32,
        slab: [u64; W],
        changed: u8,
        time: usize,
        report: &mut CycleReport,
    ) {
        let i = id as usize;
        let base = i * W;
        if self.touch_stamp[i] != self.steps_done {
            self.touch_stamp[i] = self.steps_done;
            self.cycle_start[base..base + W].copy_from_slice(&self.values[base..base + W]);
            self.touched.push(id);
        }
        let mut flips = 0u64;
        for (w, &sw) in slab.iter().enumerate() {
            let new = sw & self.mask[w];
            flips += u64::from((self.values[base + w] ^ new).count_ones());
            self.values[base + w] = new;
        }
        report.transitions += flips;
        self.stats.per_node[i] += flips;
        for e in self.g.fanouts(i) {
            let r = e.node as usize;
            // The dirty mask accumulates even when the node is already
            // scheduled for this slot — two fanins changing different
            // words must both be visible at evaluation time.
            self.dirty[r] |= changed;
            if self.scheduled_at[r] != time as u32 {
                self.scheduled_at[r] = time as u32;
                self.wheel[time].push(e.node);
            }
        }
    }
}

/// The `W`-word slab of slot `k` in a slot-major word array.
fn slab_of<const W: usize>(words: &[u64], k: usize) -> [u64; W] {
    let mut slab = [0u64; W];
    slab.copy_from_slice(&words[k * W..k * W + W]);
    slab
}

fn run_slab<const W: usize>(
    nl: &Netlist,
    steps: u64,
    seed: u64,
    lanes: usize,
) -> (SimStats, SlabActivity) {
    let mut sim = SlabSim::<W>::new(nl, lanes);
    let mut src = SlabVectorSource::new(seed, lanes);
    let mut words = vec![0u64; nl.inputs().len() * W];
    for _ in 0..steps {
        src.fill_slab(&mut words);
        sim.step(&words);
    }
    (sim.stats().clone(), sim.activity())
}

/// Simulates `steps` clock cycles in `lanes` parallel lanes (up to
/// [`MAX_SLAB_LANES`]) with uniform random primary-input vectors — global
/// lane `L` draws its stream from [`crate::lane_seed`]`(seed, L)`, so
/// lane 0 reproduces [`crate::run_random`]`(nl, steps, seed)` exactly and
/// any run is the lane-decomposition of its per-lane scalar runs — and
/// returns the cumulative statistics plus the activity-gate counters.
///
/// The slab width is chosen at runtime: `lanes.div_ceil(64)` words per
/// node, each width a separately monomorphized, autovectorized kernel.
///
/// # Panics
///
/// Panics if `lanes` is 0 or exceeds [`MAX_SLAB_LANES`].
pub fn run_random_slab_with_activity(
    nl: &Netlist,
    steps: u64,
    seed: u64,
    lanes: usize,
) -> (SimStats, SlabActivity) {
    assert!(
        (1..=MAX_SLAB_LANES).contains(&lanes),
        "lanes must be in 1..={MAX_SLAB_LANES}, got {lanes}"
    );
    match lanes.div_ceil(64) {
        1 => run_slab::<1>(nl, steps, seed, lanes),
        2 => run_slab::<2>(nl, steps, seed, lanes),
        3 => run_slab::<3>(nl, steps, seed, lanes),
        4 => run_slab::<4>(nl, steps, seed, lanes),
        5 => run_slab::<5>(nl, steps, seed, lanes),
        6 => run_slab::<6>(nl, steps, seed, lanes),
        7 => run_slab::<7>(nl, steps, seed, lanes),
        8 => run_slab::<8>(nl, steps, seed, lanes),
        _ => unreachable!("lane bound checked above"),
    }
}

/// [`run_random_slab_with_activity`] without the activity counters.
///
/// # Examples
///
/// ```
/// use netlist::{Netlist, TruthTable};
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
/// nl.mark_output("o", g);
/// let slab = gatesim::run_random_slab(&nl, 100, 42, 1);
/// let scalar = gatesim::run_random(&nl, 100, 42);
/// assert_eq!(slab.total_transitions, scalar.total_transitions);
/// ```
pub fn run_random_slab(nl: &Netlist, steps: u64, seed: u64, lanes: usize) -> SimStats {
    run_random_slab_with_activity(nl, steps, seed, lanes).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::{lane_seed, VectorSource};
    use netlist::{cells, TruthTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random soup of 2..4-input LUTs over a few inputs and latches —
    /// arbitrary truth tables, arbitrary wiring depth.
    fn lut_soup(seed: u64, inputs: usize, luts: usize) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nl = Netlist::new("soup");
        let mut pool: Vec<NodeId> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
        for k in 0..luts {
            let arity = 2 + (rng.gen::<u64>() % 3) as usize;
            let fanins: Vec<NodeId> = (0..arity)
                .map(|_| pool[(rng.gen::<u64>() as usize) % pool.len()])
                .collect();
            let mut bits = vec![false; 1 << arity];
            for b in &mut bits {
                *b = rng.gen_bool(0.5);
            }
            let table = TruthTable::from_fn(arity, |r| bits[r as usize]);
            let g = nl.add_logic(format!("g{k}"), fanins, table);
            pool.push(g);
        }
        let out = *pool.last().unwrap();
        nl.mark_output("o", out);
        nl
    }

    /// One 64-lane sub-run of a wider slab: a one-word slab whose lane
    /// `L` is seeded as global lane `offset + L`.
    fn word_subrun(nl: &Netlist, steps: u64, seed: u64, lanes: usize, offset: usize) -> SimStats {
        let mut sim = SlabSim::<1>::new(nl, lanes);
        let mut sources: Vec<VectorSource> = (0..lanes)
            .map(|l| VectorSource::new(lane_seed(seed, offset + l)))
            .collect();
        let mut bits = vec![false; nl.inputs().len()];
        let mut words = vec![0u64; nl.inputs().len()];
        for _ in 0..steps {
            words.fill(0);
            for (l, src) in sources.iter_mut().enumerate() {
                src.fill(&mut bits);
                for (w, &b) in words.iter_mut().zip(&bits) {
                    *w |= (b as u64) << l;
                }
            }
            sim.step(&words);
        }
        sim.stats().clone()
    }

    #[test]
    fn eval_word_matches_truth_table() {
        let xor3 = TruthTable::xor(3);
        // Lane L of each fanin word carries row L's input assignment.
        let mut fanins = [0u64; 3];
        for row in 0..8u32 {
            for (k, w) in fanins.iter_mut().enumerate() {
                *w |= u64::from((row >> k) & 1) << row;
            }
        }
        let out = eval_word(xor3.words(), &fanins, 0xFF);
        for row in 0..8u32 {
            assert_eq!((out >> row) & 1 == 1, xor3.eval(row), "row {row}");
        }
    }

    #[test]
    fn eval_slab_matches_eval_word_per_word() {
        let xor3 = TruthTable::xor(3);
        let mut rng = StdRng::seed_from_u64(9);
        let fanins: Vec<[u64; 4]> = (0..3)
            .map(|_| [rng.gen(), rng.gen(), rng.gen(), rng.gen()])
            .collect();
        let mask = [u64::MAX, u64::MAX, u64::MAX, 0xFFFF];
        let out = eval_slab(xor3.words(), &fanins, &mask);
        for w in 0..4 {
            let words: Vec<u64> = fanins.iter().map(|f| f[w]).collect();
            assert_eq!(out[w], eval_word(xor3.words(), &words, mask[w]), "word {w}");
        }
    }

    #[test]
    fn single_word_slab_matches_per_lane_scalar_runs() {
        // W = 1 is the sum of its lanes' scalar runs, stat for stat.
        let nl = lut_soup(3, 6, 40);
        for lanes in [1, 17, 64] {
            let slab = run_random_slab(&nl, 60, 5, lanes);
            let lane_runs: Vec<SimStats> = (0..lanes)
                .map(|l| crate::run_random(&nl, 60, lane_seed(5, l)))
                .collect();
            let sum = |f: fn(&SimStats) -> u64| lane_runs.iter().map(f).sum::<u64>();
            assert_eq!(slab.cycles, sum(|s| s.cycles), "{lanes} lanes");
            assert_eq!(slab.total_transitions, sum(|s| s.total_transitions));
            assert_eq!(
                slab.functional_transitions,
                sum(|s| s.functional_transitions)
            );
            assert_eq!(slab.glitch_transitions, sum(|s| s.glitch_transitions));
            let mut per_node = vec![0u64; nl.num_nodes()];
            for s in &lane_runs {
                for (acc, x) in per_node.iter_mut().zip(&s.per_node) {
                    *acc += x;
                }
            }
            assert_eq!(slab.per_node, per_node);
        }
    }

    #[test]
    fn slab_lane_zero_matches_scalar_sim() {
        // Lane 0 of slab word 0 replays the scalar stream byte for byte,
        // even at 256 lanes.
        let nl = lut_soup(11, 5, 30);
        let scalar = crate::run_random(&nl, 50, 7);
        let mut sim = SlabSim::<4>::new(&nl, 256);
        let mut src = SlabVectorSource::new(7, 256);
        let mut words = vec![0u64; nl.inputs().len() * 4];
        let mut scalar_sim = crate::CycleSim::new(&nl);
        let mut scalar_src = crate::VectorSource::new(7);
        let mut vector = vec![false; nl.inputs().len()];
        for _ in 0..50 {
            src.fill_slab(&mut words);
            sim.step(&words);
            scalar_src.fill(&mut vector);
            scalar_sim.step(&vector);
            for (id, _) in nl.nodes() {
                assert_eq!(sim.value(id, 0), scalar_sim.value(id), "{id}");
            }
        }
        // Aggregate stats cover 256 lanes; the scalar totals are a lower
        // bound contributed by lane 0 alone.
        assert!(sim.stats().total_transitions >= scalar.total_transitions);
    }

    #[test]
    fn slab_decomposes_into_word_subruns_on_lut_soup() {
        // 256 lanes = the sum of four 64-lane one-word runs whose lanes
        // are seeded with offsets 0, 64, 128, 192.
        let nl = lut_soup(21, 7, 60);
        let seed = 13;
        let steps = 40;
        let (slab, activity) = run_random_slab_with_activity(&nl, steps, seed, 256);
        let mut total = 0u64;
        let mut functional = 0u64;
        let mut per_node = vec![0u64; nl.num_nodes()];
        for j in 0..4 {
            let s = word_subrun(&nl, steps, seed, 64, 64 * j);
            total += s.total_transitions;
            functional += s.functional_transitions;
            for (acc, x) in per_node.iter_mut().zip(&s.per_node) {
                *acc += x;
            }
        }
        assert_eq!(slab.total_transitions, total);
        assert_eq!(slab.functional_transitions, functional);
        assert_eq!(slab.per_node, per_node);
        assert_eq!(slab.cycles, steps * 256);
        assert!(activity.words_offered > 0);
        assert!(activity.words_evaluated <= activity.words_offered);
    }

    #[test]
    fn slab_decomposes_on_ripple_adder_with_latches() {
        let mut nl = Netlist::new("add");
        let a: Vec<_> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let (s, _) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
        // Register the sum so latch capture crosses slab words too.
        for (i, x) in s.iter().enumerate() {
            let q = nl.add_latch(format!("q{i}"), false);
            nl.set_latch_data(q, *x);
            nl.mark_output(format!("s{i}"), q);
        }
        let seed = 99;
        let steps = 50;
        let lanes = 130; // partial last word: 3-word slab, 2 live lanes on top
        let slab = run_random_slab(&nl, steps, seed, lanes);
        let mut total = 0u64;
        let mut per_node = vec![0u64; nl.num_nodes()];
        for (j, sub) in [64usize, 64, 2].iter().enumerate() {
            let s = word_subrun(&nl, steps, seed, *sub, 64 * j);
            total += s.total_transitions;
            for (acc, x) in per_node.iter_mut().zip(&s.per_node) {
                *acc += x;
            }
        }
        assert_eq!(slab.total_transitions, total);
        assert_eq!(slab.per_node, per_node);
        assert_eq!(slab.cycles, steps * lanes as u64);
    }

    #[test]
    fn activity_gate_skips_quiescent_words() {
        // Hold every lane above 64 constant: words 1..W never change
        // after settling, so the gate must skip (nearly) all their
        // evaluations while lanes 0..64 keep toggling.
        let mut nl = Netlist::new("g");
        let a: Vec<_> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let (s, _) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
        for (i, x) in s.iter().enumerate() {
            nl.mark_output(format!("s{i}"), *x);
        }
        let lanes = 256;
        let mut sim = SlabSim::<4>::new(&nl, lanes);
        let mut src = SlabVectorSource::new(3, 64);
        let mut low = vec![0u64; nl.inputs().len()];
        let mut words = vec![0u64; nl.inputs().len() * 4];
        for _ in 0..40 {
            src.fill_slab(&mut low);
            for (i, &w) in low.iter().enumerate() {
                words[i * 4] = w; // words 1..4 stay all-zero
            }
            sim.step(&words);
        }
        let act = sim.activity();
        assert!(act.words_offered > 0);
        // Only word 0 is ever dirty, so at most 1/4 of the offered words
        // can have been evaluated.
        assert!(
            act.words_evaluated * 4 <= act.words_offered,
            "gate failed to skip quiescent words: {act:?}"
        );
        assert!(act.skip_rate() >= 0.74, "skip rate {}", act.skip_rate());
        // And the live word still agrees with a plain 64-lane run.
        let reference = run_random_slab(&nl, 40, 3, 64);
        assert_eq!(sim.stats().total_transitions, reference.total_transitions);
        assert_eq!(sim.stats().per_node, reference.per_node);
    }

    #[test]
    fn latches_capture_per_lane() {
        // 1-bit toggler: q' = q XOR in. Drive lane 0 with in=1 (toggles
        // every cycle) and lane 1 with in=0 (never toggles).
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let q = nl.add_latch("q", false);
        let x = nl.add_logic("x", vec![q, d], TruthTable::xor(2));
        nl.set_latch_data(q, x);
        nl.mark_output("o", q);
        let mut sim = SlabSim::<1>::new(&nl, 2);
        let mut q_vals = Vec::new();
        for _ in 0..4 {
            sim.step(&[0b01]);
            q_vals.push((sim.value(q, 0), sim.value(q, 1)));
        }
        assert_eq!(
            q_vals,
            vec![(false, false), (true, false), (false, false), (true, false)],
            "lane 0 toggles, lane 1 holds"
        );
    }

    #[test]
    fn settled_words_match_oracle_in_every_lane() {
        let mut nl = Netlist::new("eq");
        let a: Vec<_> = (0..5).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..5).map(|i| nl.add_input(format!("b{i}"))).collect();
        let p = cells::array_multiplier(&mut nl, "m", &a, &b);
        for (i, s) in p.iter().enumerate() {
            nl.mark_output(format!("p{i}"), *s);
        }
        let lanes = 8;
        let mut sim = SlabSim::<1>::new(&nl, lanes);
        let mut src = SlabVectorSource::new(3, lanes);
        let mut words = vec![0u64; nl.inputs().len()];
        for _ in 0..5 {
            src.fill_slab(&mut words);
            sim.step(&words);
        }
        let mut ev = Evaluator::new(&nl);
        for lane in 0..lanes {
            let x = sim.word(&a, lane);
            let y = sim.word(&b, lane);
            ev.set_word(&a, x);
            ev.set_word(&b, y);
            ev.settle();
            assert_eq!(sim.word(&p, lane), ev.word(&p), "lane {lane}: {x}*{y}");
            assert_eq!(sim.word(&p, lane), (x * y) & 31);
        }
    }

    #[test]
    fn fixed_seed_slab_runs_are_repeatable() {
        let nl = lut_soup(8, 6, 50);
        let s1 = run_random_slab(&nl, 30, 11, 512);
        let s2 = run_random_slab(&nl, 30, 11, 512);
        assert_eq!(s1.total_transitions, s2.total_transitions);
        assert_eq!(s1.glitch_transitions, s2.glitch_transitions);
        assert_eq!(s1.per_node, s2.per_node);
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=512")]
    fn zero_lanes_rejected() {
        let nl = lut_soup(1, 3, 5);
        run_random_slab(&nl, 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=512")]
    fn too_many_lanes_rejected() {
        let nl = lut_soup(1, 3, 5);
        run_random_slab(&nl, 1, 0, 513);
    }
}
