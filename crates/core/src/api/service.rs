//! The request-execution facade.
//!
//! [`Service`] owns one optional hot [`ArtifactStore`] and a
//! [`Pipeline`] per distinct flow configuration; it is what the `hlp`
//! CLI, the experiment binaries' shared `Args` layer, and the daemon
//! all drive. All entry points are `&self` and thread-safe. Request
//! lists run in request order ([`Service::execute_all`]); so do the
//! jobs of a daemon `batch N` frame.

use crate::api::proto::{JobReport, JobRequest};
use crate::fingerprint::{Fingerprint, Hasher128};
use crate::flow::FlowConfig;
use crate::pipeline::{fan_out, Pipeline, PipelineStats, StageCounts};
use crate::store::ArtifactStore;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a request could not be executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request named a benchmark outside the built-in suite.
    UnknownBenchmark(String),
    /// Inline CDFG text failed to parse or validate.
    InvalidCdfg(String),
    /// The resource constraint `(adders, mults)` allows no unit of some
    /// class; the scheduler needs at least one of each.
    InvalidConstraint(usize, usize),
    /// The request asked for zero simulated cycles; power is averaged
    /// over cycles, so at least one is needed.
    ZeroCycles,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark `{name}` (see `hlp suite`)")
            }
            ServiceError::InvalidCdfg(e) => write!(f, "invalid CDFG source: {e}"),
            ServiceError::InvalidConstraint(adders, mults) => write!(
                f,
                "invalid resource constraint {adders}/{mults}: \
                 every FU class needs at least 1 unit"
            ),
            ServiceError::ZeroCycles => {
                write!(
                    f,
                    "invalid cycle count 0: simulation needs at least 1 cycle"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Hashes every [`FlowConfig`] knob into the key the service's pipeline
/// map is sharded by — two requests whose configurations agree share one
/// [`Pipeline`] (and therefore its prepared artifacts and SA caches).
fn config_fingerprint(cfg: &FlowConfig) -> Fingerprint {
    let mut h = Hasher128::new("hlpower/service-config/v1");
    h.write_usize(cfg.width);
    h.write_usize(cfg.sa_width);
    h.write_str(cfg.sa_mode.name());
    h.write_usize(cfg.k);
    h.write_u64(cfg.sim_cycles);
    h.write_u64(cfg.sim_seed);
    h.write_usize(cfg.lanes);
    h.write_u64(cfg.port_seed);
    h.write_f64(cfg.power.c_eff);
    h.write_f64(cfg.power.vdd);
    h.write_f64(cfg.power.lut_level_delay_ns);
    h.write_f64(cfg.power.clock_overhead_ns);
    h.write_u64(match cfg.map_objective {
        mapper::MapObjective::Depth => 0,
        mapper::MapObjective::AreaFlow => 1,
        mapper::MapObjective::GlitchSa => 2,
    });
    h.write_u64(cfg.library.addsub_latency as u64);
    h.write_u64(cfg.library.mul_latency as u64);
    h.write_u64(match cfg.control {
        crate::datapath::ControlStyle::External => 0,
        crate::datapath::ControlStyle::Fsm => 1,
    });
    h.finish()
}

/// The request-execution facade: one optional hot [`ArtifactStore`]
/// shared by a [`Pipeline`] per distinct flow configuration. All entry
/// points are `&self` and thread-safe — a daemon serves many concurrent
/// clients from one `Service`, and [`Service::execute_all`] fans request
/// lists over worker threads with deterministic result order.
#[derive(Debug, Default)]
pub struct Service {
    template: FlowConfig,
    store: Option<Arc<ArtifactStore>>,
    pipelines: Mutex<HashMap<Fingerprint, Arc<Pipeline>>>,
}

impl Service {
    /// A storeless service with the default configuration template.
    pub fn new() -> Service {
        Service::default()
    }

    /// Replaces the configuration template — the [`FlowConfig`] supplying
    /// the knobs a [`JobRequest`] does not carry (LUT size, mapping
    /// objective, resource library, power model).
    pub fn with_template(mut self, template: FlowConfig) -> Service {
        self.template = template;
        self
    }

    /// Attaches the hot artifact store every pipeline will share.
    pub fn with_store(mut self, store: Arc<ArtifactStore>) -> Service {
        self.store = Some(store);
        self
    }

    /// The configuration template.
    pub fn template(&self) -> &FlowConfig {
        &self.template
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// The pipeline a request executes on (creating it on first use).
    /// Exposed so callers that need pipeline-level access — seeding the
    /// SA cache from a legacy `--sa-table` file, exporting artifacts —
    /// act on exactly the pipeline the request will use.
    pub fn pipeline(&self, req: &JobRequest) -> Arc<Pipeline> {
        self.pipeline_for(&req.flow_config(&self.template))
    }

    /// The pipeline for an explicit flow configuration (creating it on
    /// first use). Configurations beyond the request vocabulary — custom
    /// resource libraries, mapping objectives — get their own pipeline
    /// here while still sharing the service's store.
    pub fn pipeline_for(&self, cfg: &FlowConfig) -> Arc<Pipeline> {
        let key = config_fingerprint(cfg);
        let mut map = self.pipelines.lock().expect("service pipeline lock");
        map.entry(key)
            .or_insert_with(|| {
                Arc::new(match &self.store {
                    Some(store) => Pipeline::with_store(cfg.clone(), store.clone()),
                    None => Pipeline::new(cfg.clone()),
                })
            })
            .clone()
    }

    /// Executes one request without flushing SA caches — the building
    /// block batch execution composes (one flush per batch, not per
    /// job). The daemon's worker pool calls this directly.
    pub(crate) fn execute_unflushed(&self, req: &JobRequest) -> Result<JobReport, ServiceError> {
        let (cdfg, rc) = req.resolve()?;
        let (result, stats) = self.pipeline(req).run(&cdfg, &rc, req.binder);
        Ok(JobReport { result, stats })
    }

    /// Executes one request, flushing its pipeline's SA cache to the
    /// store afterwards (only that pipeline — a daemon must not touch
    /// every configuration's shard per request — and the flush itself
    /// skips when nothing new was learned).
    ///
    /// # Errors
    ///
    /// Source-resolution failures (see [`JobRequest::resolve`]).
    pub fn execute(&self, req: &JobRequest) -> Result<JobReport, ServiceError> {
        let report = self.execute_unflushed(req);
        if report.is_ok() {
            self.pipeline(req).flush_store();
        }
        report
    }

    /// Executes a request list over up to `jobs` worker threads, in
    /// request order (`pipeline::fan_out`). Results come back in
    /// request order regardless of the worker count, and (as with
    /// [`Pipeline::run_matrix`]) every value is deterministic in the
    /// request list alone. SA caches are flushed to the store once at
    /// the end.
    pub fn execute_all(
        &self,
        reqs: &[JobRequest],
        jobs: usize,
    ) -> Vec<Result<JobReport, ServiceError>> {
        let reports = fan_out(reqs.len(), jobs, |i| self.execute_unflushed(&reqs[i]));
        self.flush();
        reports
    }

    /// Merges every pipeline's in-memory SA cache into the store's
    /// on-disk shards (no-op without a store).
    pub fn flush(&self) {
        let pipelines: Vec<Arc<Pipeline>> = {
            let map = self.pipelines.lock().expect("service pipeline lock");
            // lint:allow(map-iter): every pipeline gets flushed; order is irrelevant.
            map.values().cloned().collect()
        };
        for p in pipelines {
            p.flush_store();
        }
    }

    /// Combined accounting: the stages of every finished ledger, summed
    /// over every pipeline, and the store hit/miss counters read once
    /// from the shared store handle.
    pub fn stats(&self) -> PipelineStats {
        let map = self.pipelines.lock().expect("service pipeline lock");
        let mut stages = StageCounts::default();
        // lint:allow(map-iter): commutative sum over counters; order is irrelevant.
        for p in map.values() {
            stages += p.stats().stages;
        }
        PipelineStats {
            stages,
            store: self
                .store
                .as_ref()
                .map(|s| s.counters())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Binder;
    use crate::store::StoreCounts;

    fn fast(name: &str) -> JobRequest {
        JobRequest::suite(name).width(4).sa_width(4).cycles(100)
    }

    #[test]
    fn service_shares_pipelines_per_configuration() {
        let service = Service::new();
        let a = fast("pr");
        let b = a.clone().binder(Binder::Lopass);
        let c = a.clone().width(8);
        assert!(Arc::ptr_eq(&service.pipeline(&a), &service.pipeline(&b)));
        assert!(!Arc::ptr_eq(&service.pipeline(&a), &service.pipeline(&c)));
        // Binder choice does not re-key the pipeline; width does.
        service.execute(&a).unwrap();
        service.execute(&b).unwrap();
        assert_eq!(
            service.stats().stages.schedules,
            1,
            "two binders share one prepared artifact"
        );
    }

    #[test]
    fn execute_all_is_deterministic_across_worker_counts() {
        let reqs: Vec<JobRequest> = ["pr", "wang"]
            .iter()
            .flat_map(|n| {
                [Binder::Lopass, Binder::HlPower { alpha: 0.5 }]
                    .into_iter()
                    .map(|b| fast(n).binder(b))
            })
            .collect();
        let serial = Service::new().execute_all(&reqs, 1);
        let parallel = Service::new().execute_all(&reqs, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.result.name, p.result.name);
            assert_eq!(s.result.binder, p.result.binder);
            assert_eq!(s.result.luts, p.result.luts);
            assert_eq!(
                s.result.power.total_transitions,
                p.result.power.total_transitions
            );
            assert_eq!(s.result.sa_queries, p.result.sa_queries);
        }
    }

    #[test]
    fn concurrent_reports_count_exactly_their_own_work() {
        // 7 benchmarks x 2 binders, cold, on 4 workers: the binders of a
        // benchmark share one prepared artifact, and each job binds,
        // maps and simulates its own binding.
        let store = Arc::new(crate::store::testutil::temp_store("service-ledgers"));
        let service = Service::new().with_store(store);
        let reqs: Vec<JobRequest> = cdfg::PROFILES
            .iter()
            .flat_map(|p| {
                [Binder::Lopass, Binder::HlPower { alpha: 0.5 }].map(|b| fast(p.name).binder(b))
            })
            .collect();
        let mut stages = StageCounts::default();
        for report in service.execute_all(&reqs, 4) {
            let ledger = report.unwrap().stats;
            // Only the job that computed its benchmark's prepared
            // artifact schedules it and looks it up.
            let prepared = ledger.stages.schedules;
            let job = StageCounts {
                schedules: prepared,
                register_bindings: prepared,
                fu_bindings: 1,
                elaborations: 1,
                mappings: 1,
                simulations: 1,
            };
            let lookups = StoreCounts {
                prepared_misses: prepared,
                netlist_misses: 1,
                sim_misses: 1,
                ..StoreCounts::default()
            };
            assert_eq!(
                ledger,
                PipelineStats {
                    stages: job,
                    store: lookups
                }
            );
            stages += ledger.stages;
        }
        let totals = service.stats();
        assert_eq!(stages, totals.stages, "the reports sum to the totals");
        assert_eq!(totals.stages.schedules, 7);
        let lookups = StoreCounts {
            prepared_misses: 7,
            netlist_misses: 14,
            sim_misses: 14,
            ..StoreCounts::default()
        };
        assert_eq!(
            totals.store, lookups,
            "the reports' lookups sum to the store's"
        );
    }

    #[test]
    fn execute_reports_errors_not_panics() {
        let service = Service::new();
        let unknown = JobRequest::suite("nope");
        assert_eq!(
            service.execute(&unknown).unwrap_err(),
            ServiceError::UnknownBenchmark("nope".to_string())
        );
        let garbage = JobRequest::from_cdfg_text("this is not a cdfg");
        assert!(matches!(
            service.execute(&garbage).unwrap_err(),
            ServiceError::InvalidCdfg(_)
        ));
        // A class with zero units would trip the scheduler's precondition.
        for (adders, mults) in [(0, 0), (1, 0), (0, 1)] {
            let zero = fast("pr").constraint(adders, mults);
            assert_eq!(
                service.execute(&zero).unwrap_err(),
                ServiceError::InvalidConstraint(adders, mults)
            );
        }
        // No operations means zero schedule steps to cycle through.
        let opless = JobRequest::from_cdfg_text("cdfg t\ninput a\noutput a\n");
        assert!(matches!(
            service.execute(&opless).unwrap_err(),
            ServiceError::InvalidCdfg(_)
        ));
        // The power model averages over simulated cycles.
        assert_eq!(
            service.execute(&fast("wang").cycles(0)).unwrap_err(),
            ServiceError::ZeroCycles
        );
    }
}
