//! Probabilistic switching-activity (SA) estimation, with glitches.
//!
//! This crate implements the estimation stack of the paper's Section 4:
//!
//! 1. **Transition density** (Najm \[17\], paper Eq. 1): propagate
//!    per-signal densities through Boolean differences —
//!    [`signal::najm_density`].
//! 2. **Simultaneous switching** (Chou–Roy \[7\], paper Eq. 2): normalized
//!    switching activity `s(y) = 2(P(y) − P(y(t) y(t+T)))` under fanin
//!    independence — [`signal::chou_roy_activity`].
//! 3. **Glitch awareness** (GlitchMap \[6\]): the unit-delay model makes
//!    transitions happen at discrete times `1..=depth`; per-node switching
//!    *profiles* separate the functional transition from glitches, and the
//!    netlist estimate is `SA = Σ_i sa_i` (paper Eq. 3) —
//!    [`timed::analyze`].
//!
//! The glitch-aware estimator is the cost function inside both the
//! low-power technology mapper (`mapper` crate) and the HLPower binding
//! algorithm's edge weights (`hlpower` crate).
//!
//! # Examples
//!
//! Estimate the switching activity of a two-level AND with skewed arrival
//! times:
//!
//! ```
//! use activity::{ActivityConfig, analyze};
//! use netlist::{Netlist, TruthTable};
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
//! let h = nl.add_logic("h", vec![g, c], TruthTable::and(2));
//! nl.mark_output("o", h);
//! let report = analyze(&nl, &ActivityConfig::uniform());
//! assert!(report.glitch_sa > 0.0); // skewed arrivals glitch
//! ```

#![warn(missing_docs)]

pub mod signal;
pub mod timed;

pub use signal::{
    boolean_difference_probability, chou_roy_activity, najm_density, pair_switch_probability,
    signal_probability, PairDist, SignalStats,
};
pub use timed::{
    analyze, analyze_with_known, analyze_zero_delay, propagate, ActivityConfig, SaReport,
    TimedSignal, ZeroDelayModel, ZeroDelayReport,
};
