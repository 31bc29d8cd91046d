//! Staged experiment pipeline with shared artifacts, an optional
//! persistent artifact store, and parallel fan-out.
//!
//! The paper's methodology (Section 6.1) runs every benchmark through one
//! chain — schedule → register-bind → FU-bind → elaborate → 4-LUT map →
//! simulate → power model — and its runtime claim rests on memoizing the
//! glitch-aware SA estimates of partial datapaths. [`Pipeline`] makes
//! that chain an explicit staged computation over named, reusable
//! artifacts:
//!
//! * [`Prepared`] — the per-benchmark front end (schedule + register
//!   binding), computed **exactly once** per benchmark and shared by
//!   every binder and α value (the paper shares schedules and register
//!   bindings between LOPASS and HLPower);
//! * [`crate::satable::SaTable`] — the paper's precalculated SA hash
//!   table, thread-safe and pooled across *all* concurrent jobs, so a
//!   partial-datapath shape is estimated at most once per run;
//! * [`FlowResult`] — the fully measured back end per benchmark × binder.
//!
//! With [`Pipeline::with_store`], every expensive stage output is also
//! content-addressed into an [`ArtifactStore`]: prepared artifacts,
//! elaborated+mapped netlists, simulation summaries, and the SA table
//! (persisted by default, merged on absorb). A warm rerun serves all of
//! them from the store — zero schedule/map/simulate executions,
//! byte-identical results — and `--shard i/N` workers can each warm a
//! store that `hlp merge` later combines. The store's bytes may live on
//! disk (`--store DIR`) or behind an `hlp serve` daemon
//! (`--store remote:ADDR`, see [`crate::store::RemoteStore`]); the
//! pipeline is backend-agnostic, so shard workers pointed at one remote
//! store pool their work with no merge step at all.
//!
//! [`Pipeline::run_matrix`] fans benchmark × binder jobs out over scoped
//! worker threads through `fan_out`, the one ordered fan-out that
//! [`crate::api::Service::execute_all`] runs on too. Job order, result
//! order, and every numeric output are independent of the worker count
//! (see `fan_out` for why) *and* of the store state, since cached
//! artifacts reload bit-exactly. Each job fills one ledger
//! ([`PipelineStats`]) with the stages it executed and the store lookups
//! it made, so concurrent jobs never count each other's work; a job that
//! finds its prepared artifact computed, or being computed, by another
//! records nothing for it. [`Pipeline::run`] returns the ledger beside
//! the result, and [`Pipeline::stats`] sums the finished ledgers — the
//! counts the tests use to prove the sharing and caching claims.
//!
//! # Examples
//!
//! Run two binders over one benchmark with all artifacts shared:
//!
//! ```
//! use hlpower::pipeline::Pipeline;
//! use hlpower::{paper_constraint, Binder, FlowConfig};
//!
//! let p = cdfg::profile("pr").unwrap();
//! let suite = vec![(cdfg::generate(p, p.seed), paper_constraint("pr").unwrap())];
//! let binders = [Binder::Lopass, Binder::HlPower { alpha: 0.5 }];
//! let pipeline = Pipeline::new(FlowConfig::fast());
//! let results = pipeline.run_matrix(&suite, &binders, 2);
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].len(), 2);
//! let counts = pipeline.stats().stages;
//! assert_eq!(counts.schedules, 1, "schedule computed once, not per binder");
//! ```

use crate::fingerprint::{self, Fingerprint};
use crate::flow::{self, BindOutcome, Binder, FlowConfig, FlowResult};
use crate::mux::mux_report;
use crate::regbind::RegisterBinding;
use crate::satable::{SaMode, SaTable};
use crate::store::{ArtifactKind, ArtifactStore, MappedArtifact, StoreCounts};
use cdfg::{Cdfg, ResourceConstraint, Schedule};
use std::collections::HashMap;
use std::fmt;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The shared front-end artifacts of one benchmark: everything upstream
/// of binder choice.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The benchmark CDFG.
    pub cdfg: Cdfg,
    /// Its resource constraint.
    pub rc: ResourceConstraint,
    /// The list schedule under `rc`.
    pub sched: Schedule,
    /// The register binding shared by all binders.
    pub rb: RegisterBinding,
    /// Content fingerprint of the inputs this artifact is a function of
    /// (the store key; see [`fingerprint::prepared_fingerprint`]).
    /// Callers that hand-construct a `Prepared` with substituted fields
    /// (e.g. the register-binding ablation) must not pass it to a
    /// store-backed [`Pipeline::measure`] — the stale fingerprint would
    /// file the result under the original artifact's key.
    pub fingerprint: Fingerprint,
}

/// How often each pipeline stage has actually executed — the observable
/// evidence for artifact sharing (e.g. `schedules == benchmarks` no
/// matter how many binders ran) and for store caching (`mappings == 0`
/// on a warm rerun).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// List-scheduling runs (one per distinct benchmark).
    pub schedules: u64,
    /// Register-binding runs (one per distinct benchmark).
    pub register_bindings: u64,
    /// FU-binding runs (one per benchmark × binder job).
    pub fu_bindings: u64,
    /// Datapath elaborations.
    pub elaborations: u64,
    /// Technology-mapping runs.
    pub mappings: u64,
    /// Gate-level simulation runs.
    pub simulations: u64,
}

impl AddAssign for StageCounts {
    fn add_assign(&mut self, other: StageCounts) {
        self.schedules += other.schedules;
        self.register_bindings += other.register_bindings;
        self.fu_bindings += other.fu_bindings;
        self.elaborations += other.elaborations;
        self.mappings += other.mappings;
        self.simulations += other.simulations;
    }
}

impl fmt::Display for StageCounts {
    /// The diagnostic line format the experiment binaries and the CI
    /// smokes grep for (elaborations are an implementation detail of the
    /// store paths and stay out of it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules, {} regbinds, {} fu-binds, {} mappings, {} simulations",
            self.schedules,
            self.register_bindings,
            self.fu_bindings,
            self.mappings,
            self.simulations
        )
    }
}

/// A ledger of work: the stages executed and the store lookups made
/// (store counts stay zero when no store is attached). One job's ledger
/// is its [`crate::api::JobReport`] stats; [`Pipeline::stats`] is the
/// sum of a pipeline's ledgers, and [`crate::api::Service::stats`] adds
/// its pipelines' stages to its store handle's lookups. Codec time is no
/// part of it: that is one process's parse cost, kept per store handle
/// ([`ArtifactStore::codec`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Stage execution counts.
    pub stages: StageCounts,
    /// Artifact-store hit/miss counters.
    pub store: StoreCounts,
}

/// The staged experiment flow with shared artifacts, an optional
/// persistent store, and a parallel job runner. See the [module
/// docs](self) for the architecture.
#[derive(Debug)]
pub struct Pipeline {
    cfg: FlowConfig,
    /// The sum of every finished ledger.
    totals: Mutex<PipelineStats>,
    prepared: Mutex<HashMap<Fingerprint, Arc<OnceLock<Arc<Prepared>>>>>,
    sa_glitch: SaTable,
    sa_zero_delay: SaTable,
    /// Entry counts of the two SA caches at their last flush. SA caches
    /// are insert-only (absorb keeps existing values), so an unchanged
    /// count means nothing new to merge — a long-lived service flushing
    /// after every request must not rewrite the on-disk shard each time.
    sa_flushed: [AtomicUsize; 2],
    store: Option<Arc<ArtifactStore>>,
}

impl Pipeline {
    /// Creates a pipeline for one flow configuration. All artifacts the
    /// pipeline caches are functions of this configuration, so one
    /// `Pipeline` must not be reused across different `FlowConfig`s.
    pub fn new(cfg: FlowConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Creates a pipeline backed by a persistent [`ArtifactStore`]
    /// (local directory or remote daemon — the pipeline never cares):
    /// prepared artifacts, mapped netlists, and simulation summaries are
    /// served from (and saved to) the store, and the SA table starts as
    /// the store's shard and is merged back by
    /// [`Pipeline::flush_store`] (which [`Pipeline::run_matrix`] calls
    /// automatically) — persistent by default, no separate flag.
    pub fn with_store(cfg: FlowConfig, store: Arc<ArtifactStore>) -> Self {
        Self::build(cfg, Some(store))
    }

    fn build(cfg: FlowConfig, store: Option<Arc<ArtifactStore>>) -> Self {
        // Each cache is the store's shard for its mode (load_sa_table
        // only returns shards matching the mode, width and k), or an
        // empty table without one.
        let cache = |mode| {
            store
                .as_ref()
                .and_then(|s| s.load_sa_table(mode, cfg.sa_width, cfg.k))
                .unwrap_or_else(|| SaTable::new(cfg.sa_width, cfg.k).with_mode(mode))
        };
        let sa_glitch = cache(cfg.sa_mode);
        let sa_zero_delay = cache(SaMode::ZeroDelayAblation);
        // Entries loaded from the store's shard are already on disk:
        // they never need flushing back.
        let sa_flushed = [
            AtomicUsize::new(sa_glitch.len()),
            AtomicUsize::new(sa_zero_delay.len()),
        ];
        Pipeline {
            cfg,
            totals: Mutex::default(),
            prepared: Mutex::new(HashMap::new()),
            sa_glitch,
            sa_zero_delay,
            sa_flushed,
            store,
        }
    }

    /// The flow configuration this pipeline runs.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// The sum of every finished ledger: the stages this pipeline ran
    /// and the store lookups it made (other users of a shared store
    /// handle are not counted).
    pub fn stats(&self) -> PipelineStats {
        *self.totals.lock().expect("pipeline totals lock")
    }

    /// Runs `f` on a fresh ledger and adds the ledger to the totals.
    fn counted<T>(&self, f: impl FnOnce(&mut PipelineStats) -> T) -> T {
        let mut ledger = PipelineStats::default();
        let value = f(&mut ledger);
        let mut totals = self.totals.lock().expect("pipeline totals lock");
        totals.stages += ledger.stages;
        totals.store += ledger.store;
        value
    }

    /// Looks an artifact of `kind` up in the attached store with `load`
    /// and counts the lookup in `ledger`. Without a store every lookup
    /// misses, uncounted.
    fn lookup<T>(
        &self,
        ledger: &mut PipelineStats,
        kind: ArtifactKind,
        load: impl FnOnce(&ArtifactStore) -> Option<T>,
    ) -> Option<T> {
        let found = load(self.store.as_deref()?);
        ledger.store.count(kind, found.is_some());
        found
    }

    /// Merges the in-memory SA caches back into the store's on-disk
    /// shards (merge-on-absorb: entries already on disk win; conflicts
    /// are warned about). No-op without a store. Called automatically at
    /// the end of every [`Pipeline::run_matrix`]; call it directly after
    /// driving [`Pipeline::measure`] by hand.
    pub fn flush_store(&self) {
        let Some(store) = &self.store else { return };
        for (cache, flushed) in [&self.sa_glitch, &self.sa_zero_delay]
            .into_iter()
            .zip(&self.sa_flushed)
        {
            // Insert-only cache: an unchanged entry count since the last
            // flush means the shard on disk already covers it. (Racing
            // flushes may both merge — merge-on-absorb makes that safe —
            // and entries added during a merge are merged again next time.)
            let len = cache.len();
            if len == 0 || len == flushed.load(Ordering::Relaxed) {
                continue;
            }
            flushed.store(len, Ordering::Relaxed);
            let stats = store.merge_sa_table(cache);
            if stats.conflicting > 0 {
                eprintln!(
                    "warning: merging SA cache `{}` into the store hit {} conflicting entries \
                     (disk values kept)",
                    cache.mode().name(),
                    stats.conflicting
                );
            }
        }
    }

    /// The cross-job SA cache a binder draws from (glitch-aware for the
    /// main algorithm, zero-delay for the glitch-model ablation).
    pub fn sa_cache(&self, binder: Binder) -> &SaTable {
        match binder {
            Binder::HlPowerZeroDelay { .. } => &self.sa_zero_delay,
            _ => &self.sa_glitch,
        }
    }

    /// The shared front end of one benchmark — schedule plus register
    /// binding, keyed by a content fingerprint of the CDFG, the resource
    /// constraint, and the front-end configuration knobs, so the same
    /// benchmark can run under several constraints in one pipeline (and
    /// two same-named but different CDFGs never share artifacts). The
    /// first caller computes the artifact — or loads it from the attached
    /// store — while concurrent callers block on that computation rather
    /// than duplicating it; every later caller gets the cached value.
    pub fn prepare(&self, cdfg: &Cdfg, rc: &ResourceConstraint) -> Arc<Prepared> {
        self.counted(|ledger| self.prepare_with(ledger, cdfg, rc))
    }

    fn prepare_with(
        &self,
        ledger: &mut PipelineStats,
        cdfg: &Cdfg,
        rc: &ResourceConstraint,
    ) -> Arc<Prepared> {
        let fp = fingerprint::prepared_fingerprint(cdfg, rc, &self.cfg);
        let slot = {
            let mut map = self.prepared.lock().expect("pipeline prepared lock");
            map.entry(fp).or_default().clone()
        };
        slot.get_or_init(|| {
            // A store hit is trusted only after validating against *this*
            // CDFG: a hand-edited, mis-copied, or fingerprint-colliding
            // file that parses but does not fit the graph must read as a
            // miss (and be recomputed), not panic downstream in bind.
            let from_store = self.lookup(ledger, ArtifactKind::Prepared, |s| {
                s.load_prepared(fp, |sched, rb| {
                    // Length checks first: the validators index by op/var
                    // id and would themselves panic on truncated vectors.
                    let fits = sched.cstep.len() == cdfg.num_ops()
                        && rb.swap.len() == cdfg.num_ops()
                        && rb.reg_of.len() == cdfg.num_vars()
                        && rb.lifetimes.birth.len() == cdfg.num_vars()
                        && rb.lifetimes.death.len() == cdfg.num_vars();
                    let ok =
                        fits && sched.validate(cdfg, Some(rc)).is_ok() && rb.validate(cdfg).is_ok();
                    if !ok {
                        eprintln!(
                            "warning: cached prepared artifact {fp} does not fit benchmark \
                             `{}`; recomputing",
                            cdfg.name()
                        );
                    }
                    ok
                })
            });
            let (sched, rb) = match from_store {
                Some(loaded) => loaded,
                None => {
                    ledger.stages.schedules += 1;
                    ledger.stages.register_bindings += 1;
                    let (sched, rb) = flow::prepare(cdfg, rc, &self.cfg);
                    if let Some(store) = &self.store {
                        store.save_prepared(fp, &sched, &rb);
                    }
                    (sched, rb)
                }
            };
            Arc::new(Prepared {
                cdfg: cdfg.clone(),
                rc: *rc,
                sched,
                rb,
                fingerprint: fp,
            })
        })
        .clone()
    }

    /// Runs one binder against prepared artifacts, drawing SA estimates
    /// from the shared cross-job cache.
    pub fn bind(&self, prep: &Prepared, binder: Binder) -> BindOutcome {
        self.counted(|ledger| self.bind_with(ledger, prep, binder))
    }

    fn bind_with(
        &self,
        ledger: &mut PipelineStats,
        prep: &Prepared,
        binder: Binder,
    ) -> BindOutcome {
        ledger.stages.fu_bindings += 1;
        let mut source = self.sa_cache(binder).handle();
        flow::bind(
            &prep.cdfg,
            &prep.sched,
            &prep.rb,
            &prep.rc,
            binder,
            &mut source,
        )
    }

    /// Measures a binding through the shared backend: elaborate, map,
    /// simulate, evaluate the power model. With a store attached, the
    /// mapped netlist and the simulation summary are content-addressed
    /// artifacts: a warm run re-executes **neither** stage, and a run
    /// with a new vector budget reuses the cached netlist and re-runs
    /// only the simulation. Without a store every lookup misses, so
    /// every stage runs.
    pub fn measure(&self, prep: &Prepared, outcome: &BindOutcome, binder: Binder) -> FlowResult {
        self.counted(|ledger| self.measure_with(ledger, prep, outcome, binder))
    }

    fn measure_with(
        &self,
        ledger: &mut PipelineStats,
        prep: &Prepared,
        outcome: &BindOutcome,
        binder: Binder,
    ) -> FlowResult {
        let mux = mux_report(&prep.cdfg, &prep.rb, &outcome.fb);
        let net_fp = fingerprint::netlist_fingerprint(prep.fingerprint, &outcome.fb, &self.cfg);
        // `dp` is needed only when something downstream actually runs:
        // it carries the control program driving the simulation.
        let mut dp = None;
        let cached = self.lookup(ledger, ArtifactKind::Netlists, |s| s.load_mapped(net_fp));
        let mut backend = match cached {
            Some(artifact) => artifact,
            None => {
                ledger.stages.elaborations += 1;
                ledger.stages.mappings += 1;
                let (d, mapped) =
                    flow::elaborate_map(&prep.cdfg, &prep.sched, &prep.rb, &outcome.fb, &self.cfg);
                let artifact = MappedArtifact::from_mapped(mapped, d.registers);
                if let Some(store) = &self.store {
                    store.save_mapped(net_fp, &artifact);
                }
                dp = Some(d);
                artifact
            }
        };
        let sim_fp = fingerprint::sim_fingerprint(net_fp, &self.cfg);
        let stats = match self.lookup(ledger, ArtifactKind::Sims, |s| s.load_sim(sim_fp)) {
            Some(stats) => stats,
            None => {
                let dp = dp.get_or_insert_with(|| {
                    // Cached netlist but no cached simulation (e.g. a new
                    // seed/lane budget): re-elaborate for the control
                    // program only — the expensive mapping stays skipped
                    // (the cached mapped netlist is what gets simulated).
                    ledger.stages.elaborations += 1;
                    crate::datapath::elaborate(
                        &prep.cdfg,
                        &prep.sched,
                        &prep.rb,
                        &outcome.fb,
                        &crate::datapath::DatapathConfig {
                            width: self.cfg.width,
                            control: self.cfg.control,
                        },
                    )
                });
                // With the datapath in hand, a cached netlist that does
                // not fit it (mis-copied or fingerprint-colliding file —
                // wrong pin or latch count) is remapped rather than fed
                // to the simulator, mirroring the prepared-artifact
                // validation. A full warm hit never reaches this check,
                // but there the netlist is only read for net counts.
                if backend.netlist.inputs().len() != dp.netlist.inputs().len()
                    || backend.netlist.num_latches() != dp.netlist.num_latches()
                {
                    eprintln!(
                        "warning: cached mapped netlist {net_fp} does not fit benchmark \
                         `{}`; remapping",
                        prep.cdfg.name()
                    );
                    ledger.stages.mappings += 1;
                    let mapped = mapper::map(
                        &dp.netlist,
                        &mapper::MapConfig::new(self.cfg.k, self.cfg.map_objective),
                    );
                    backend = MappedArtifact::from_mapped(mapped, dp.registers);
                    if let Some(store) = &self.store {
                        store.save_mapped(net_fp, &backend);
                    }
                }
                ledger.stages.simulations += 1;
                let stats = flow::simulate(dp, &backend.netlist, &self.cfg);
                if let Some(store) = &self.store {
                    store.save_sim(sim_fp, &stats);
                }
                stats
            }
        };
        flow::assemble_result(
            &prep.cdfg,
            &prep.sched,
            outcome,
            &prep.rc,
            binder,
            mux,
            &backend,
            &stats,
            &self.cfg,
        )
    }

    /// The full staged flow for one benchmark × binder job, returned
    /// with the job's ledger: the stages it executed and the store
    /// lookups it made.
    pub fn run(
        &self,
        cdfg: &Cdfg,
        rc: &ResourceConstraint,
        binder: Binder,
    ) -> (FlowResult, PipelineStats) {
        self.counted(|ledger| {
            let prep = self.prepare_with(ledger, cdfg, rc);
            let outcome = self.bind_with(ledger, &prep, binder);
            (self.measure_with(ledger, &prep, &outcome, binder), *ledger)
        })
    }

    /// Fans the `suite × binders` job matrix out over up to `jobs` worker
    /// threads in row-major order (`fan_out`) and returns results as
    /// `results[bench][binder]`, deterministic in value and order
    /// regardless of `jobs`. The SA caches are flushed to the store
    /// before returning.
    pub fn run_matrix(
        &self,
        suite: &[(Cdfg, ResourceConstraint)],
        binders: &[Binder],
        jobs: usize,
    ) -> Vec<Vec<FlowResult>> {
        let width = binders.len();
        let mut results = fan_out(suite.len() * width, jobs, |i| {
            let (cdfg, rc) = &suite[i / width];
            self.run(cdfg, rc, binders[i % width]).0
        })
        .into_iter();
        self.flush_store();
        suite
            .iter()
            .map(|_| results.by_ref().take(width).collect())
            .collect()
    }
}

/// Runs `job(i)` for every `i` in `0..n` over up to `workers` scoped
/// threads and returns the results in index order — the one fan-out
/// behind [`Pipeline::run_matrix`] and
/// [`crate::api::Service::execute_all`].
///
/// Workers pull indices from one atomic cursor, so jobs *start* in
/// index order, and each result lands in its own slot, so the output
/// order never depends on the worker count or on which worker ran what.
/// The *values* are independent of the worker count as long as the
/// only state jobs share is value-deterministic: a pipeline's prepared
/// artifacts and SA cache (a key's value never depends on who computed
/// it first) and the store's content-addressed slots. Per-result
/// runtime accounting uses SA-query counts, never wall-clock
/// interleaving.
pub(crate) fn fan_out<T: Send + Sync>(
    n: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                assert!(slot.set(job(i)).is_ok(), "job slot set once");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::paper_constraint;

    fn small_suite(names: &[&str]) -> Vec<(Cdfg, ResourceConstraint)> {
        names
            .iter()
            .map(|n| {
                let p = cdfg::profile(n).unwrap();
                (cdfg::generate(p, p.seed), paper_constraint(n).unwrap())
            })
            .collect()
    }

    fn temp_store(tag: &str) -> Arc<ArtifactStore> {
        Arc::new(crate::store::testutil::temp_store(tag))
    }

    #[test]
    fn pipeline_fsck_audits_what_the_run_wrote() {
        let store = temp_store("pipeline-fsck");
        let p = Pipeline::with_store(FlowConfig::fast(), store);
        p.run_matrix(&small_suite(&["wang"]), &[Binder::Lopass], 1);
        let report = p.store().expect("store attached").fsck(false).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.scanned >= 3, "prepared + netlists + sims walked");
    }

    #[test]
    fn prepare_runs_once_per_benchmark() {
        let suite = small_suite(&["pr", "wang"]);
        let pipeline = Pipeline::new(FlowConfig::fast());
        let binders = [
            Binder::Lopass,
            Binder::HlPower { alpha: 1.0 },
            Binder::HlPower { alpha: 0.5 },
        ];
        let results = pipeline.run_matrix(&suite, &binders, 4);
        assert_eq!(results.len(), 2);
        let counts = pipeline.stats().stages;
        assert_eq!(counts.schedules, 2, "one schedule per benchmark");
        assert_eq!(
            counts.register_bindings, 2,
            "one register binding per benchmark"
        );
        assert_eq!(counts.fu_bindings, 6, "one FU binding per job");
        assert_eq!(counts.simulations, 6);
    }

    #[test]
    fn matrix_results_are_independent_of_job_count() {
        let suite = small_suite(&["pr", "wang"]);
        let binders = [Binder::Lopass, Binder::HlPower { alpha: 0.5 }];
        let serial = Pipeline::new(FlowConfig::fast()).run_matrix(&suite, &binders, 1);
        let parallel = Pipeline::new(FlowConfig::fast()).run_matrix(&suite, &binders, 4);
        for (row_s, row_p) in serial.iter().zip(&parallel) {
            for (s, p) in row_s.iter().zip(row_p) {
                assert_eq!(s.name, p.name);
                assert_eq!(s.binder, p.binder);
                assert_eq!(s.luts, p.luts);
                assert_eq!(s.sa_queries, p.sa_queries);
                assert_eq!(s.power.total_transitions, p.power.total_transitions);
                assert_eq!(s.mux, p.mux);
            }
        }
    }

    #[test]
    fn shared_cache_pools_estimates_across_jobs() {
        let suite = small_suite(&["pr", "wang"]);
        let binders = [
            Binder::HlPower { alpha: 1.0 },
            Binder::HlPower { alpha: 0.5 },
        ];
        let pipeline = Pipeline::new(FlowConfig::fast());
        pipeline.run_matrix(&suite, &binders, 4);
        let (queries, misses) = pipeline.sa_cache(binders[0]).counters();
        assert!(
            misses < queries,
            "cross-job cache must hit: {misses} misses of {queries} queries"
        );
        // A fresh per-job table would have computed every queried shape
        // per job; pooling stores each distinct shape once. (Concurrent
        // first misses on the same key may both compute — identical
        // values, first write wins — so misses can exceed entries.)
        assert!(pipeline.sa_cache(binders[0]).len() as u64 <= misses);
    }

    #[test]
    fn same_benchmark_two_constraints_prepares_twice() {
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let pipeline = Pipeline::new(FlowConfig::fast());
        let binder = Binder::HlPower { alpha: 0.5 };
        let (tight, _) = pipeline.run(&g, &ResourceConstraint::new(2, 2), binder);
        let (loose, _) = pipeline.run(&g, &ResourceConstraint::new(4, 4), binder);
        let counts = pipeline.stats().stages;
        assert_eq!(
            counts.schedules, 2,
            "distinct constraints must not share a schedule"
        );
        assert!(
            loose.schedule_steps <= tight.schedule_steps,
            "looser constraint cannot lengthen the schedule: {} vs {}",
            loose.schedule_steps,
            tight.schedule_steps
        );
        assert!(tight.fus_addsub <= 2 && loose.fus_addsub <= 4);
    }

    #[test]
    fn same_name_different_graph_prepares_separately() {
        // Regenerating a profile with a different seed yields a graph
        // with the same name but different structure; it must not be
        // served the other instance's cached artifacts.
        let p = cdfg::profile("wang").unwrap();
        let g1 = cdfg::generate(p, p.seed);
        let g2 = cdfg::generate(p, 12345);
        let rc = paper_constraint("wang").unwrap();
        let pipeline = Pipeline::new(FlowConfig::fast());
        let p1 = pipeline.prepare(&g1, &rc);
        let p2 = pipeline.prepare(&g2, &rc);
        assert_eq!(pipeline.stats().stages.schedules, 2);
        assert_ne!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.cdfg.num_ops(), g1.num_ops());
        assert_eq!(p2.cdfg.num_ops(), g2.num_ops());
        // And the schedule really belongs to the right graph.
        p1.sched.validate(&g1, Some(&rc)).unwrap();
        p2.sched.validate(&g2, Some(&rc)).unwrap();
    }

    #[test]
    fn word_sim_lanes_are_deterministic_across_job_counts() {
        // The bit-sliced engine must not disturb the pipeline's
        // jobs-independence guarantee, and one lane must reproduce the
        // scalar engine bit for bit through the whole staged flow.
        let suite = small_suite(&["wang"]);
        let binders = [Binder::HlPower { alpha: 0.5 }];
        let scalar_cfg = FlowConfig {
            lanes: 0,
            ..FlowConfig::fast()
        };
        let one_lane_cfg = FlowConfig {
            lanes: 1,
            ..FlowConfig::fast()
        };
        let wide_cfg = FlowConfig {
            lanes: 64,
            ..FlowConfig::fast()
        };
        let scalar = Pipeline::new(scalar_cfg).run_matrix(&suite, &binders, 1);
        let one_lane = Pipeline::new(one_lane_cfg).run_matrix(&suite, &binders, 2);
        assert_eq!(
            scalar[0][0].power.total_transitions,
            one_lane[0][0].power.total_transitions
        );
        assert_eq!(
            scalar[0][0].power.glitch_fraction,
            one_lane[0][0].power.glitch_fraction
        );
        let wide_serial = Pipeline::new(wide_cfg.clone()).run_matrix(&suite, &binders, 1);
        let wide_parallel = Pipeline::new(wide_cfg).run_matrix(&suite, &binders, 4);
        assert_eq!(
            wide_serial[0][0].power.total_transitions,
            wide_parallel[0][0].power.total_transitions
        );
        assert!(
            wide_serial[0][0].power.total_transitions > scalar[0][0].power.total_transitions,
            "64 lanes cover a 64x vector budget"
        );
    }

    #[test]
    fn seeding_rejects_incompatible_tables() {
        let pipeline = Pipeline::new(FlowConfig::fast());
        let binder = Binder::HlPower { alpha: 0.5 };
        let wrong_width = SaTable::new(pipeline.config().sa_width + 1, 4);
        wrong_width.get(cdfg::FuType::AddSub, 1, 1);
        assert!(pipeline.sa_cache(binder).absorb(&wrong_width).is_err());
        // The zero-delay ablation cache refuses glitch-aware tables.
        let cfg = pipeline.config();
        let glitchy = SaTable::new(cfg.sa_width, cfg.k);
        glitchy.get(cdfg::FuType::AddSub, 1, 1);
        let zd = Binder::HlPowerZeroDelay { alpha: 0.5 };
        assert!(pipeline.sa_cache(zd).absorb(&glitchy).is_err());
        // A matching table seeds cleanly and is served back verbatim.
        assert_eq!(
            pipeline.sa_cache(binder).absorb(&glitchy).unwrap().inserted,
            1
        );
        assert_eq!(pipeline.sa_cache(binder).len(), 1);
        // A pipeline configured for simulated SA training refuses
        // estimator tables but accepts simulated ones — so tables written
        // by `hlp table --sa-mode simulated` are actually loadable.
        let sim_pipeline = Pipeline::new(FlowConfig {
            sa_mode: SaMode::Simulated,
            ..FlowConfig::fast()
        });
        assert!(sim_pipeline.sa_cache(binder).absorb(&glitchy).is_err());
        let sim_cfg = sim_pipeline.config();
        let sim_table = SaTable::new(sim_cfg.sa_width, sim_cfg.k).with_mode(SaMode::Simulated);
        sim_table.insert(cdfg::FuType::AddSub, 2, 2, 12.5);
        assert_eq!(
            sim_pipeline
                .sa_cache(binder)
                .absorb(&sim_table)
                .unwrap()
                .inserted,
            1
        );
        assert_eq!(
            sim_pipeline
                .sa_cache(binder)
                .get(cdfg::FuType::AddSub, 2, 2),
            12.5,
            "seeded simulated entry must be served back without recomputing"
        );
    }

    #[test]
    fn pipeline_matches_run_benchmark() {
        let suite = small_suite(&["wang"]);
        let binder = Binder::HlPower { alpha: 0.5 };
        let cfg = FlowConfig::fast();
        let (via_pipeline, _) = Pipeline::new(cfg.clone()).run(&suite[0].0, &suite[0].1, binder);
        let direct = flow::run_benchmark(&suite[0].0, &suite[0].1, binder, &cfg);
        assert_eq!(via_pipeline.luts, direct.luts);
        assert_eq!(via_pipeline.sa_queries, direct.sa_queries);
        assert_eq!(
            via_pipeline.power.total_transitions,
            direct.power.total_transitions
        );
    }

    fn result_key(r: &FlowResult) -> (String, String, usize, u32, u64, u64, u64) {
        (
            r.name.clone(),
            r.binder.clone(),
            r.luts,
            r.depth,
            r.power.total_transitions,
            r.power.glitch_fraction.to_bits(),
            r.sa_queries,
        )
    }

    #[test]
    fn store_backed_run_matches_storeless_run_and_warms_to_zero_stages() {
        let suite = small_suite(&["wang"]);
        let binders = [Binder::Lopass, Binder::HlPower { alpha: 0.5 }];
        let cfg = FlowConfig::fast();
        let plain = Pipeline::new(cfg.clone()).run_matrix(&suite, &binders, 2);

        let store = temp_store("warm");
        let cold_pipeline = Pipeline::with_store(cfg.clone(), store.clone());
        let cold = cold_pipeline.run_matrix(&suite, &binders, 2);
        let cold_stats = cold_pipeline.stats();
        assert_eq!(cold_stats.stages.mappings, 2, "cold store still maps");
        assert_eq!(cold_stats.store.hits(), 0, "fresh store cannot hit");

        // A fresh handle on the same directory, as a second process would
        // open (hit/miss counters are per handle).
        let store = Arc::new(ArtifactStore::open(store.root()).unwrap());
        let warm_pipeline = Pipeline::with_store(cfg, store);
        let warm = warm_pipeline.run_matrix(&suite, &binders, 2);
        let warm_stats = warm_pipeline.stats();
        assert_eq!(warm_stats.stages.schedules, 0, "prepared served from store");
        assert_eq!(warm_stats.stages.mappings, 0, "netlists served from store");
        assert_eq!(warm_stats.stages.simulations, 0, "sims served from store");
        assert_eq!(warm_stats.stages.elaborations, 0);
        // 1 prepared + 2 netlists + 2 sims for one benchmark x two binders.
        assert_eq!(warm_stats.store.hits(), 5, "{:?}", warm_stats.store);
        assert_eq!(warm_stats.store.misses(), 0, "{:?}", warm_stats.store);

        for ((p, c), w) in plain
            .iter()
            .flatten()
            .zip(cold.iter().flatten())
            .zip(warm.iter().flatten())
        {
            assert_eq!(
                result_key(p),
                result_key(c),
                "store must not change results"
            );
            assert_eq!(result_key(c), result_key(w), "warm must equal cold");
            assert_eq!(
                c.power.dynamic_power_mw.to_bits(),
                w.power.dynamic_power_mw.to_bits()
            );
            assert_eq!(c.estimated_sa.to_bits(), w.estimated_sa.to_bits());
            assert_eq!(c.mux, w.mux);
            assert_eq!(c.registers, w.registers);
        }
    }

    #[test]
    fn cached_netlist_serves_new_vector_budgets_without_remapping() {
        let suite = small_suite(&["wang"]);
        let binders = [Binder::HlPower { alpha: 0.5 }];
        let store = temp_store("budget");
        let cfg = FlowConfig::fast();
        Pipeline::with_store(cfg.clone(), store.clone()).run_matrix(&suite, &binders, 1);
        // Same binding, different simulation seed: netlist hit, sim miss.
        let reseeded = FlowConfig {
            sim_seed: 999,
            ..cfg
        };
        let p = Pipeline::with_store(reseeded.clone(), store.clone());
        p.run_matrix(&suite, &binders, 1);
        let stats = p.stats();
        assert_eq!(stats.stages.mappings, 0, "mapped netlist must be reused");
        assert_eq!(stats.stages.simulations, 1, "new seed must re-simulate");
        assert_eq!(
            stats.stages.elaborations, 1,
            "re-elaborates only for the control program"
        );
        assert_eq!(stats.store.netlist_hits, 1);
        assert_eq!(stats.store.sim_misses, 1);
        // And the reseeded result matches a storeless reseeded run.
        let direct = Pipeline::new(reseeded).run_matrix(&suite, &binders, 1);
        let via_store = Pipeline::with_store(
            FlowConfig {
                sim_seed: 999,
                ..FlowConfig::fast()
            },
            store,
        )
        .run_matrix(&suite, &binders, 1);
        assert_eq!(result_key(&direct[0][0]), result_key(&via_store[0][0]));
    }

    #[test]
    fn sa_table_persists_by_default_with_a_store() {
        let suite = small_suite(&["wang"]);
        let binders = [Binder::HlPower { alpha: 0.5 }];
        let store = temp_store("sa-default");
        let cfg = FlowConfig::fast();
        let p = Pipeline::with_store(cfg.clone(), store.clone());
        p.run_matrix(&suite, &binders, 1);
        let (_, cold_misses) = p.sa_cache(binders[0]).counters();
        assert!(cold_misses > 0, "cold run computes SA entries");
        let shard = store
            .load_sa_table(SaMode::Precalculated, cfg.sa_width, cfg.k)
            .expect("run_matrix flushes the SA cache to the store");
        assert!(!shard.is_empty());
        // A fresh pipeline on the same store binds without a single SA
        // computation.
        let warm = Pipeline::with_store(cfg, store);
        warm.run_matrix(&suite, &binders, 1);
        let (queries, misses) = warm.sa_cache(binders[0]).counters();
        assert!(queries > 0);
        assert_eq!(misses, 0, "every SA query served from the persisted shard");
    }
}
