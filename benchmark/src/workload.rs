//! The requests each workload sends.
//!
//! The *base requests* are the seven suite benchmarks under both
//! binders at the paper configuration (width 16, SA width 8, Table 2
//! constraints, 1000 cycles, 1 lane): the `hlp suite --requests` lines
//! plus their LOPASS twins.

use hlpower::api::JobRequest;
use hlpower::{paper_constraint, Binder};

/// The paper's HLPower setting.
pub const HLPOWER: Binder = Binder::HlPower { alpha: 0.5 };

/// Suite benchmark names in `cdfg::PROFILES` order.
pub fn suite() -> Vec<&'static str> {
    cdfg::PROFILES.iter().map(|p| p.name).collect()
}

/// The HLPower base request for one benchmark.
fn base(name: &str) -> JobRequest {
    let rc = paper_constraint(name).expect("suite benchmark has a paper constraint");
    JobRequest::suite(name)
        .constraint(rc.addsub, rc.mul)
        .binder(HLPOWER)
}

/// The 14 base requests: per benchmark, the LOPASS twin then HLPower.
pub fn base_requests() -> Vec<JobRequest> {
    suite()
        .into_iter()
        .flat_map(|name| [base(name).binder(Binder::Lopass), base(name)])
        .collect()
}
