//! FPGA technology mapping for the HLPower reproduction.
//!
//! Implements cut-based K-LUT mapping in the style the paper relies on:
//! cut enumeration with ranking and pruning \[8\], and a glitch-aware
//! low-power mapping objective derived from GlitchMap \[6\] in which each
//! node greedily selects the K-feasible cut with the lowest SA flow: its
//! LUT's estimated (glitch inclusive) switching activity plus the flow
//! its leaves share with it. Conventional depth-optimal and area-flow
//! objectives are included as baselines and for ablations.
//!
//! In the reproduction pipeline this crate substitutes for Quartus II RTL
//! synthesis: elaborated datapath netlists are mapped to 4-LUT networks
//! (Cyclone II's LUT size), from which LUT count (area), depth (clock
//! period), and per-LUT glitch behaviour (power) are derived.
//!
//! # Examples
//!
//! ```
//! use mapper::{map, MapConfig, MapObjective};
//! use netlist::{cells, Netlist};
//!
//! let mut nl = Netlist::new("adder");
//! let a: Vec<_> = (0..4).map(|i| nl.add_input(format!("a{i}"))).collect();
//! let b: Vec<_> = (0..4).map(|i| nl.add_input(format!("b{i}"))).collect();
//! let (sum, _) = cells::ripple_adder(&mut nl, "add", &a, &b, None);
//! for (i, s) in sum.iter().enumerate() {
//!     nl.mark_output(format!("s{i}"), *s);
//! }
//! let mapped = map(&nl, &MapConfig::new(4, MapObjective::GlitchSa));
//! assert!(mapped.stats.luts > 0);
//! assert!(mapped.stats.estimated_sa > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cut;
pub mod map;

pub use cut::{cut_function, enumerate_cuts, Cut, CutConfig, CutSets};
pub use map::{map, MapConfig, MapObjective, MapStats, MappedNetlist};
