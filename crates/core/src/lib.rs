//! HLPower — FPGA-targeted, glitch-aware high-level binding.
//!
//! Reproduction of Cromar, Lee, Chen, *"FPGA-Targeted High-Level Binding
//! Algorithm for Power and Area Reduction with Glitch-Estimation"*
//! (DAC 2009). Given a scheduled CDFG, a resource constraint, and a
//! resource library, the crate allocates and binds registers to variables
//! and functional units to operations, elaborates the bound datapath to a
//! gate-level netlist, and measures it on a "virtual Cyclone II" backend
//! (4-LUT technology mapping + unit-delay simulation + a documented power
//! model).
//!
//! The crate's central algorithm is [`bind_hlpower`] (paper Algorithm 1),
//! whose bipartite edge weights (Eq. 4) combine a glitch-aware
//! switching-activity estimate of the candidate partial datapath
//! ([`satable::SaTable`], one thread-safe memo that a single bind or
//! every concurrent job of a [`Pipeline`] draws from) with explicit
//! multiplexer balancing. The interconnect-minimizing LOPASS baseline the
//! paper compares against is in [`lopass`].
//!
//! # Examples
//!
//! Bind one of the paper's benchmarks with both binders:
//!
//! ```
//! use cdfg::{list_schedule, ResourceConstraint, ResourceLibrary};
//! use hlpower::{bind_hlpower, bind_lopass, bind_registers,
//!               HlPowerConfig, RegBindConfig, SaTable};
//!
//! let profile = cdfg::profile("wang").unwrap();
//! let g = cdfg::generate(profile, profile.seed);
//! let rc = ResourceConstraint::new(2, 2);
//! let sched = list_schedule(&g, &ResourceLibrary::default(), &rc);
//! let rb = bind_registers(&g, &sched, &RegBindConfig::default());
//!
//! let baseline = bind_lopass(&g, &sched, &rb, &rc);
//! let mut table = SaTable::new(4, 4);
//! let (ours, _trace) =
//!     bind_hlpower(&g, &sched, &rb, &rc, &mut table, &HlPowerConfig::default());
//! assert!(baseline.meets(&rc) && ours.meets(&rc));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod audit;
pub mod datapath;
pub mod fingerprint;
pub mod flow;
pub mod fubind;
pub mod lopass;
pub mod matching;
pub mod mux;
pub mod pipeline;
pub mod power;
pub mod regbind;
pub mod satable;
pub mod store;
pub mod vhdl;

pub use api::{
    Endpoint, JobReport, JobRequest, JobSource, ServeOptions, Server, Service, ServiceError,
};
pub use audit::{FsckOptions, AUDITOR_VERSION};
pub use datapath::{
    elaborate, execute, ControlProgram, ControlStyle, DataPort, Datapath, DatapathConfig,
};
pub use fingerprint::Fingerprint;
pub use flow::{paper_constraint, run_benchmark, BindOutcome, Binder, FlowConfig, FlowResult};
pub use fubind::{bind_hlpower, Fu, FuBinding, HlPowerConfig, IterationTrace, MergeRecord};
pub use lopass::{bind_lopass, refine_lopass};
pub use mux::{mux_report, MuxReport};
pub use pipeline::{Pipeline, PipelineStats, Prepared, StageCounts};
pub use power::{PowerModel, PowerReport};
pub use regbind::{bind_registers, bind_registers_left_edge, RegBindConfig, RegisterBinding};
pub use satable::{
    compute_sa, partial_datapath, simulate_sa, AbsorbStats, SaMode, SaSource, SaTable,
};
pub use store::{
    audit_artifact_auto, audit_artifact_bytes, checked_netlist, fix_artifact_auto, ArtifactBytes,
    ArtifactKind, ArtifactStore, CodecNanos, FixVerdict, FsckIssue, FsckReport, GcPolicy, GcReport,
    KindUsage, LocalStore, MappedArtifact, MergeReport, RemoteStore, StoreBackend, StoreCounts,
    StoreUsage,
};
pub use vhdl::write_vhdl;
