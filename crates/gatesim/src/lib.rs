//! Gate-level simulation for the HLPower reproduction.
//!
//! Three simulators over the shared [`netlist::Netlist`] IR:
//!
//! * [`Evaluator`] — zero-delay functional evaluation (the verification
//!   oracle for mapping and datapath elaboration);
//! * [`CycleSim`] — event-driven **unit-delay** simulation that counts
//!   every output transition per node per clock cycle, split into
//!   functional transitions and glitches — the scalar reference engine
//!   for one vector stream;
//! * [`SlabSim`] — the **bit-sliced** unit-delay simulator for many
//!   streams: up to [`MAX_SLAB_LANES`] (512) independent lanes as
//!   `[u64; W]` words per node, with autovectorized straight-line
//!   kernels and an activity-gated sparse sweep that skips slab words
//!   whose fanins are quiescent. Lane `L` is bit-exact with the scalar
//!   run seeded [`lane_seed`]`(seed, L)`.
//!
//! Both unit-delay engines run on one **compiled simulation graph**,
//! built once per netlist when an engine is constructed: CSR fanins,
//! logic-only fanouts with a pin mask per edge, inline truth-table words
//! (tables wider than 6 inputs keep their extra words aside), latch
//! `(Q, D)` pairs, and an event wheel with one slot per logic level up
//! to the deepest logic node anywhere in the netlist. A step matches on no node kind and reuses its buffers
//! from step to step instead of allocating.
//! The scalar engine keeps each LUT's packed fanin row current by XOR-ing
//! a driver's pin mask into its readers' rows whenever it commits a
//! change, so evaluating a LUT is one shift of its table word. The
//! [`Evaluator`] stays on the netlist itself, so it remains an oracle
//! independent of the graph for both engines.
//!
//! Together with the seeded vector drivers ([`run_random`], [`run_with`])
//! this substitutes for the paper's Quartus II simulation + PowerPlay
//! toggle measurement: the unit-delay model is the same delay model the
//! paper's switching-activity estimator assumes, so estimated and
//! simulated glitching can be compared directly.
//!
//! # Examples
//!
//! Measure glitching of a two-level AND under random stimulus:
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
//! let stats = gatesim::run_random(&nl, 1000, 42);
//! assert!(stats.glitch_transitions > 0, "skewed arrivals glitch");
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod event;
mod graph;
pub mod slabsim;
pub mod vectors;

pub use eval::Evaluator;
pub use event::{CycleReport, CycleSim, SimStats};
pub use slabsim::{
    run_random_slab, run_random_slab_with_activity, SlabActivity, SlabSim, MAX_SLAB_LANES,
    MAX_SLAB_WORDS,
};
pub use vectors::{lane_seed, run_random, run_with, SlabVectorSource, VectorSource};
