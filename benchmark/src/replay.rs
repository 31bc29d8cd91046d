//! The traced replay of one job: the public calls `Service::execute`
//! and `Pipeline::run` make, in the same order, each wrapped in a span.
//!
//! `Pipeline::measure` is replayed step by step through
//! `fingerprint::*`, the `ArtifactStore` loads and saves,
//! `datapath::elaborate`, `mapper::map` and `flow::simulate`, so the
//! backend layers get spans of their own. The replayed result must equal
//! the reference bit for bit; the traced run checks that it does.

use hlpower::api::{JobRequest, Service, ServiceError};
use hlpower::satable::{SaSource, SharedSaRef};
use hlpower::{
    elaborate, fingerprint, flow, mux_report, DatapathConfig, FlowResult, MappedArtifact,
};
use hlpower_benchmark::trace::Recorder;

/// Stage executions and work the replay itself performed.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobWork {
    /// SA-table queries issued by the binder.
    pub sa_queries: u64,
    /// Datapath elaborations.
    pub elaborations: u64,
    /// Technology-mapping runs.
    pub mappings: u64,
    /// Gate-level simulations.
    pub simulations: u64,
    /// Simulated lane-cycles (cycles times lanes, per simulation).
    pub lane_cycles: u64,
}

/// A timing [`SaSource`] around the pipeline's shared SA table: a query
/// that moves the table's miss counter is recorded as a
/// `satable.miss` span under the binding span.
struct TimedSa<'a> {
    rec: &'a Recorder,
    req: u64,
    inner: SharedSaRef<'a>,
}

impl SaSource for TimedSa<'_> {
    fn sa(&mut self, fu: cdfg::FuType, mux_a: usize, mux_b: usize) -> f64 {
        let misses = self.inner.0.counters().1;
        let start = self.rec.now_ns();
        let sa = self.inner.sa(fu, mux_a, mux_b);
        if self.inner.0.counters().1 != misses {
            let end = self.rec.now_ns();
            self.rec
                .record("satable.miss", self.req, self.rec.current(), start, end);
        }
        sa
    }
}

/// Replays `service.execute(req)` under a `job` span with id `req_id`
/// and parent `parent`. Like `Service::execute`, the job ends by
/// flushing its pipeline's SA cache.
///
/// # Errors
///
/// The request names no suite benchmark or carries an invalid CDFG.
pub fn replay_job(
    rec: &Recorder,
    service: &Service,
    req: &JobRequest,
    req_id: u64,
    parent: Option<u64>,
) -> Result<(FlowResult, JobWork), ServiceError> {
    let _job = rec.span_under("job", req_id, parent);
    let (pipeline, prep) = {
        let _s = rec.span("pipeline", req_id);
        let (cdfg, rc) = req.resolve()?;
        let pipeline = service.pipeline(req);
        let prep = pipeline.prepare(&cdfg, &rc);
        (pipeline, prep)
    };
    let cfg = pipeline.config();
    let outcome = {
        let _s = rec.span("fubind", req_id);
        let mut sa = TimedSa {
            rec,
            req: req_id,
            inner: pipeline.sa_cache(req.binder).handle(),
        };
        flow::bind(
            &prep.cdfg,
            &prep.sched,
            &prep.rb,
            &prep.rc,
            req.binder,
            &mut sa,
        )
    };
    let mut work = JobWork {
        sa_queries: outcome.sa_queries,
        ..JobWork::default()
    };
    let store = pipeline
        .store()
        .expect("every workload runs with an artifact store");
    let mux = mux_report(&prep.cdfg, &prep.rb, &outcome.fb);
    let dp_cfg = DatapathConfig {
        width: cfg.width,
        control: cfg.control,
    };
    let elaborate_traced = |work: &mut JobWork| {
        work.elaborations += 1;
        let _s = rec.span("datapath", req_id);
        elaborate(&prep.cdfg, &prep.sched, &prep.rb, &outcome.fb, &dp_cfg)
    };
    let net_fp = fingerprint::netlist_fingerprint(prep.fingerprint, &outcome.fb, cfg);
    let cached = {
        let _s = rec.span("store.read", req_id);
        store.load_mapped(net_fp)
    };
    let mut dp = None;
    let backend = match cached {
        Some(artifact) => artifact,
        None => {
            let d = elaborate_traced(&mut work);
            work.mappings += 1;
            let mapped = {
                let _s = rec.span("mapper", req_id);
                mapper::map(
                    &d.netlist,
                    &mapper::MapConfig::new(cfg.k, cfg.map_objective),
                )
            };
            let artifact = MappedArtifact::from_mapped(mapped, d.registers);
            {
                let _s = rec.span("store.write", req_id);
                store.save_mapped(net_fp, &artifact);
            }
            dp = Some(d);
            artifact
        }
    };
    let sim_fp = fingerprint::sim_fingerprint(net_fp, cfg);
    let cached = {
        let _s = rec.span("store.read", req_id);
        store.load_sim(sim_fp)
    };
    let sim = match cached {
        Some(stats) => stats,
        None => {
            let dp = match dp {
                Some(d) => d,
                None => elaborate_traced(&mut work),
            };
            work.simulations += 1;
            work.lane_cycles += cfg.sim_cycles * cfg.lanes.max(1) as u64;
            let stats = {
                let _s = rec.span("gatesim", req_id);
                flow::simulate(&dp, &backend.netlist, cfg)
            };
            let _s = rec.span("store.write", req_id);
            store.save_sim(sim_fp, &stats);
            stats
        }
    };
    let nets = flow::num_nets(backend.luts, &backend.netlist);
    let result = FlowResult {
        name: prep.cdfg.name().to_string(),
        binder: req.binder.label(),
        schedule_steps: prep.sched.num_steps,
        registers: backend.registers,
        fus_addsub: outcome.fb.count(cdfg::FuType::AddSub),
        fus_mul: outcome.fb.count(cdfg::FuType::Mul),
        meets_constraint: outcome.fb.meets(&prep.rc),
        luts: backend.luts,
        depth: backend.depth,
        estimated_sa: backend.estimated_sa,
        mux,
        power: cfg.power.evaluate(&sim, backend.depth, nets),
        bind_time: outcome.bind_time,
        sa_queries: outcome.sa_queries,
    };
    {
        let _s = rec.span("service.flush", req_id);
        pipeline.flush_store();
    }
    Ok((result, work))
}
