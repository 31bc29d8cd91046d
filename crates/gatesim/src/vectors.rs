//! Stimulus generation and simulation drivers.
//!
//! The paper drives each benchmark with 1000 random input vectors from the
//! Quartus II `.vwf` editor; [`VectorSource`] and [`run_random`] are the
//! deterministic, seeded equivalents. [`run_with`] hands the caller full
//! control of the per-cycle vector — the HLS flow uses it to combine
//! random data inputs with schedule-driven control signals.

use crate::event::{CycleSim, SimStats};
use netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random vector source.
#[derive(Debug)]
pub struct VectorSource {
    rng: StdRng,
}

impl VectorSource {
    /// Creates a source from a seed.
    pub fn new(seed: u64) -> Self {
        VectorSource {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws a vector of `n` uniform random bits.
    pub fn next_vector(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.rng.gen_bool(0.5)).collect()
    }

    /// Fills `bits` with uniform random values.
    pub fn fill(&mut self, bits: &mut [bool]) {
        for b in bits {
            *b = self.rng.gen_bool(0.5);
        }
    }
}

/// Derives the vector-stream seed of one simulation lane.
///
/// Lane 0 keeps the caller's seed **unchanged** — so a single-lane
/// bit-sliced run replays the scalar stream byte for byte — and every
/// other lane XORs in the SplitMix64 finalizer of its lane index (the
/// finalizer maps 0 to 0, which is what makes lane 0 the identity).
///
/// # Examples
///
/// ```
/// assert_eq!(gatesim::lane_seed(42, 0), 42, "lane 0 is the scalar stream");
/// assert_ne!(gatesim::lane_seed(42, 1), gatesim::lane_seed(42, 2));
/// ```
pub fn lane_seed(seed: u64, lane: usize) -> u64 {
    // SplitMix64 finalizer: a bijective mixer with finalize(0) == 0.
    let mut z = lane as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    seed ^ (z ^ (z >> 31))
}

/// Deterministic random vector source for slab simulation: one
/// independent [`VectorSource`] per lane, up to
/// [`crate::MAX_SLAB_LANES`], each seeded via [`lane_seed`] on the
/// **global** lane index.
///
/// Global lane `L` (word `L / 64`, bit `L % 64`) draws exactly the bit
/// stream `VectorSource::new(lane_seed(seed, L))` would, in the same
/// per-cycle order — so slab runs decompose lane-by-lane into scalar
/// runs.
#[derive(Debug)]
pub struct SlabVectorSource {
    sources: Vec<VectorSource>,
    words: usize,
    scratch: Vec<bool>,
}

impl SlabVectorSource {
    /// Creates one stream per lane from a base seed. The slab width is
    /// `lanes.div_ceil(64)` words per input.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`crate::MAX_SLAB_LANES`].
    pub fn new(seed: u64, lanes: usize) -> Self {
        assert!(
            (1..=crate::MAX_SLAB_LANES).contains(&lanes),
            "lanes must be in 1..={}",
            crate::MAX_SLAB_LANES
        );
        SlabVectorSource {
            sources: (0..lanes)
                .map(|l| VectorSource::new(lane_seed(seed, l)))
                .collect(),
            words: lanes.div_ceil(64),
            scratch: Vec::new(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.sources.len()
    }

    /// Slab words per input (`lanes.div_ceil(64)`).
    pub fn words(&self) -> usize {
        self.words
    }

    /// The per-lane scalar stream (global lane `L` of every slab drawn so
    /// far came from this source). Exposed so drivers can interleave slab
    /// draws with per-lane scalar draws without desynchronizing.
    pub fn lane(&mut self, lane: usize) -> &mut VectorSource {
        &mut self.sources[lane]
    }

    /// Fills `slabs` with [`SlabVectorSource::words`] words per primary
    /// input, input-major (`slabs[input * words + w]`): bit `L` of word
    /// `w` is global lane `w * 64 + L`'s fresh random value for that
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `slabs.len()` is not a multiple of the slab width.
    pub fn fill_slab(&mut self, slabs: &mut [u64]) {
        let width = self.words;
        assert_eq!(
            slabs.len() % width,
            0,
            "slab buffer must hold {width} word(s) per input"
        );
        let inputs = slabs.len() / width;
        slabs.fill(0);
        self.scratch.resize(inputs, false);
        for (lane, src) in self.sources.iter_mut().enumerate() {
            src.fill(&mut self.scratch);
            let (w, bit) = (lane / 64, lane % 64);
            for (i, &b) in self.scratch.iter().enumerate() {
                slabs[i * width + w] |= (b as u64) << bit;
            }
        }
    }
}

/// Simulates `cycles` clock cycles with uniform random primary-input
/// vectors (the paper's 1000-random-vector methodology) and returns the
/// cumulative statistics.
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
/// let stats = gatesim::run_random(&nl, 100, 42);
/// assert_eq!(stats.cycles, 100);
/// ```
pub fn run_random(nl: &Netlist, cycles: u64, seed: u64) -> SimStats {
    let mut sim = CycleSim::new(nl);
    let mut src = VectorSource::new(seed);
    let mut vector = vec![false; nl.inputs().len()];
    for _ in 0..cycles {
        src.fill(&mut vector);
        sim.step(&vector);
    }
    sim.stats().clone()
}

/// Simulates `cycles` clock cycles, asking `drive` to fill each cycle's
/// primary-input vector (`drive(cycle_index, &mut vector)`), and returns
/// the cumulative statistics.
pub fn run_with(nl: &Netlist, cycles: u64, mut drive: impl FnMut(u64, &mut [bool])) -> SimStats {
    let mut sim = CycleSim::new(nl);
    let mut vector = vec![false; nl.inputs().len()];
    for c in 0..cycles {
        drive(c, &mut vector);
        sim.step(&vector);
    }
    sim.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{cells, NodeId};

    #[test]
    fn lane_zero_replays_the_scalar_stream() {
        assert_eq!(lane_seed(1234, 0), 1234);
        let mut word = SlabVectorSource::new(1234, 4);
        let mut scalar = VectorSource::new(1234);
        let mut words = vec![0u64; 8];
        for _ in 0..5 {
            word.fill_slab(&mut words);
            let bits = scalar.next_vector(8);
            for (w, b) in words.iter().zip(&bits) {
                assert_eq!(w & 1 == 1, *b, "lane 0 must equal the scalar draw");
            }
        }
    }

    #[test]
    fn word_lanes_decompose_into_scalar_sources() {
        let seed = 77;
        let lanes = 6;
        let mut word = SlabVectorSource::new(seed, lanes);
        assert_eq!(word.words(), 1, "up to 64 lanes fit one slab word");
        let mut scalars: Vec<VectorSource> = (0..lanes)
            .map(|l| VectorSource::new(lane_seed(seed, l)))
            .collect();
        let mut words = vec![0u64; 5];
        for _ in 0..4 {
            word.fill_slab(&mut words);
            for (l, s) in scalars.iter_mut().enumerate() {
                let bits = s.next_vector(5);
                for (w, b) in words.iter().zip(&bits) {
                    assert_eq!((w >> l) & 1 == 1, *b, "lane {l}");
                }
            }
        }
    }

    #[test]
    fn lane_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|l| lane_seed(42, l)).collect();
        assert_eq!(seeds.len(), 64, "64 lanes need 64 distinct streams");
    }

    #[test]
    fn vectors_are_deterministic() {
        let mut a = VectorSource::new(7);
        let mut b = VectorSource::new(7);
        assert_eq!(a.next_vector(64), b.next_vector(64));
        let mut c = VectorSource::new(8);
        assert_ne!(a.next_vector(64), c.next_vector(64));
    }

    #[test]
    fn run_random_counts_cycles() {
        let mut nl = Netlist::new("t");
        let a: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
        let (s, _) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
        for (i, x) in s.iter().enumerate() {
            nl.mark_output(format!("s{i}"), *x);
        }
        let stats = run_random(&nl, 200, 1);
        assert_eq!(stats.cycles, 200);
        assert!(stats.total_transitions > 0);
        // PI switching should be close to 0.5 per input per cycle.
        let pi_toggles: u64 = nl.inputs().iter().map(|i| stats.per_node[i.index()]).sum();
        let rate = pi_toggles as f64 / (200.0 * 8.0);
        assert!((rate - 0.5).abs() < 0.1, "PI toggle rate {rate}");
    }

    #[test]
    fn run_with_drives_control() {
        // Mux whose select we toggle deterministically.
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_input("s");
        let m = cells::mux2(&mut nl, "mx", s, a, b);
        nl.mark_output("o", m);
        let stats = run_with(&nl, 10, |c, v| {
            v[0] = true; // a
            v[1] = false; // b
            v[2] = c % 2 == 1; // s toggles
        });
        assert_eq!(stats.cycles, 10);
        // Cycle 0 raises `a` (m: 0->1), then every s toggle (cycles 1..=9)
        // flips m: 10 transitions total.
        let m_toggles = stats.per_node[m.index()];
        assert_eq!(m_toggles, 10);
    }

    #[test]
    fn same_seed_same_stats() {
        let mut nl = Netlist::new("d");
        let a: Vec<NodeId> = (0..5).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NodeId> = (0..5).map(|i| nl.add_input(format!("b{i}"))).collect();
        let p = cells::array_multiplier(&mut nl, "m", &a, &b);
        for (i, x) in p.iter().enumerate() {
            nl.mark_output(format!("p{i}"), *x);
        }
        let s1 = run_random(&nl, 100, 99);
        let s2 = run_random(&nl, 100, 99);
        assert_eq!(s1.total_transitions, s2.total_transitions);
        assert_eq!(s1.glitch_transitions, s2.glitch_transitions);
    }
}
