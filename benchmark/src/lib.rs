//! Support code of the HLPower benchmark driver: the span recorder of
//! the traced run and the order statistics behind the latency metrics.
//! The driver itself is `src/main.rs`; see `README.md` for the
//! workloads and metrics.

#![warn(missing_docs)]

pub mod stats;
pub mod trace;
