//! Reply checks: every reply against the uncached reference chain, and
//! the Table 3 deltas computed from a workload's own replies.

use hlpower::api::{JobReport, JobRequest};
use hlpower::{flow, Binder, FlowConfig, FlowResult, PipelineStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Every result field of a report, floats bit-exact, without the stage
/// and store counts (which describe caching, not the result).
pub fn result_text(result: &FlowResult) -> String {
    JobReport {
        result: result.clone(),
        stats: PipelineStats::default(),
    }
    .to_text()
}

/// Reference results of distinct requests, keyed by request line.
#[derive(Debug, Default)]
pub struct References(BTreeMap<String, String>);

impl References {
    /// Runs every distinct request of `reqs` once through the uncached
    /// chain `flow::run_benchmark`, on `threads` threads. Each request
    /// gets a fresh single-threaded SA table and no store or pipeline,
    /// so no cache the program under test uses can feed the reference.
    pub fn compute(reqs: &[JobRequest], threads: usize) -> References {
        let mut distinct: BTreeMap<String, &JobRequest> = BTreeMap::new();
        for r in reqs {
            distinct.entry(r.to_line()).or_insert(r);
        }
        let todo: Vec<(&String, &&JobRequest)> = distinct.iter().collect();
        let next = AtomicUsize::new(0);
        let out = Mutex::new(BTreeMap::new());
        std::thread::scope(|s| {
            for _ in 0..threads.max(1) {
                s.spawn(|| {
                    while let Some((line, req)) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let text = match req.resolve() {
                            Ok((cdfg, rc)) => {
                                let cfg = req.flow_config(&FlowConfig::default());
                                result_text(&flow::run_benchmark(&cdfg, &rc, req.binder, &cfg))
                            }
                            Err(e) => format!("error {e}"),
                        };
                        out.lock()
                            .expect("reference lock")
                            .insert((*line).clone(), text);
                    }
                });
            }
        });
        References(out.into_inner().expect("reference lock"))
    }

    /// Whether `result` equals the reference of `req` bit for bit.
    pub fn matches(&self, req: &JobRequest, result: &FlowResult) -> bool {
        self.0.get(&req.to_line()) == Some(&result_text(result))
    }
}

/// Percentage change from `from` to `to`, as Table 3 reports it.
fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

/// Suite-average dynamic-power and LUT change of HLPower(α=0.5) against
/// LOPASS, from results of the base requests. `None` unless every
/// benchmark has both results.
pub fn table3_deltas<'a>(
    results: impl IntoIterator<Item = (&'a JobRequest, &'a FlowResult)>,
) -> Option<(f64, f64)> {
    let mut rows: BTreeMap<String, [Option<&FlowResult>; 2]> = BTreeMap::new();
    for (req, r) in results {
        let slot = match req.binder {
            Binder::Lopass => 0,
            Binder::HlPower { alpha } if alpha == 0.5 => 1,
            _ => continue,
        };
        rows.entry(r.name.clone()).or_default()[slot] = Some(r);
    }
    let suite = crate::workload::suite();
    let (mut power, mut luts) = (0.0, 0.0);
    for name in &suite {
        let [Some(lop), Some(hlp)] = rows.get(*name)? else {
            return None;
        };
        power += pct_change(lop.power.dynamic_power_mw, hlp.power.dynamic_power_mw);
        luts += pct_change(lop.luts as f64, hlp.luts as f64);
    }
    let n = suite.len() as f64;
    Some((power / n, luts / n))
}

/// Counts attempted and failed jobs and keeps the first few failure
/// reasons for stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Error replies, refusals, and replies that differ from the
    /// reference or break the workload's purity rule.
    pub failed: u64,
    /// The first failure reasons.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one job: `outcome` is its result or why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }

    /// Checks one reply against the reference and a purity rule.
    pub fn check(
        &mut self,
        refs: &References,
        req: &JobRequest,
        reply: &Result<JobReport, String>,
        purity: impl FnOnce(&JobReport) -> Result<(), String>,
    ) {
        let outcome = match reply {
            Err(e) => Err(format!("{}: {e}", req.to_line())),
            Ok(rep) if !refs.matches(req, &rep.result) => Err(format!(
                "{}: reply differs from the reference",
                req.to_line()
            )),
            Ok(rep) => purity(rep).map_err(|e| format!("{}: {e}", req.to_line())),
        };
        self.record(outcome);
    }
}
