//! Shared harness code for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper on top of the typed service API ([`hlpower::api`]): the shared
//! [`Args`] parser turns the command line into [`JobRequest`] values,
//! [`Args::run_matrix`] executes the benchmark × binder request matrix
//! through one [`Service`] (which owns the `--store` hot artifact store
//! and a pipeline per flow configuration), and the text-table rendering
//! plus the paper's reference numbers for side-by-side reporting live
//! here. Binaries that need pipeline-level access for hand-driven
//! ablations reach it through [`Service::pipeline_for`], so every
//! execution path shares the same store and accounting.

#![warn(missing_docs)]

use cdfg::{Cdfg, ResourceConstraint};
use hlpower::api::{JobRequest, JobSource, KnobError, Service};
use hlpower::{paper_constraint, ArtifactStore, Binder, FlowConfig, FlowResult, Pipeline};
use std::fmt;
use std::sync::Arc;

/// Default simulation lane count of the experiment binaries. The
/// bit-sliced engine makes a 64× vector budget nearly free, so the
/// binaries simulate at full width unless `--paper-exact` restores the
/// paper's single-stream tables.
pub const DEFAULT_LANES: usize = 64;

/// One worker's slice of the benchmark × binder request matrix
/// (`--shard i/N`): shard `index` of `total` owns the jobs whose global
/// index is congruent to `index` modulo `total`. The job order is the
/// deterministic row-major `(benchmark, binder)` enumeration of
/// [`Args::requests`], so the partition is identical on every host.
///
/// # Examples
///
/// ```
/// use hlpower_bench::Shard;
/// let s = Shard::parse("1/4").unwrap();
/// assert!(!s.owns(0) && s.owns(1) && !s.owns(2));
/// assert!(Shard::parse("4/4").is_none(), "index must be < total");
/// assert_eq!(Shard::full(), Shard::parse("0/1").unwrap());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// This worker's index, `0 <= index < total`.
    pub index: usize,
    /// Total number of workers.
    pub total: usize,
}

impl Shard {
    /// The trivial shard owning every job.
    pub fn full() -> Shard {
        Shard { index: 0, total: 1 }
    }

    /// Parses the CLI form `i/N`. Returns `None` unless `i < N` and
    /// `N >= 1`.
    pub fn parse(s: &str) -> Option<Shard> {
        let (i, n) = s.split_once('/')?;
        let shard = Shard {
            index: i.parse().ok()?,
            total: n.parse().ok()?,
        };
        (shard.index < shard.total).then_some(shard)
    }

    /// Whether this shard owns global job index `job`.
    pub fn owns(&self, job: usize) -> bool {
        job % self.total == self.index
    }

    /// Whether this is the trivial full shard.
    pub fn is_full(&self) -> bool {
        self.total == 1
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// Command-line options shared by the experiment binaries.
///
/// Flags: `--width N`, `--cycles N`, `--sa-width N`, `--seed N` (sets
/// both the simulation and the register-port seed), `--lanes N`
/// (simulation lanes, 0..=512 — `0` and `1` run one vector stream on the
/// scalar reference engine, `2..=512` run the bit-sliced slab engine with
/// `lanes/64` words per node; default [`DEFAULT_LANES`]), `--paper-exact`
/// (restore the paper's `--lanes 1` single-stream tables),
/// `--bench NAME` (repeatable), `--binder SPEC` (repeatable, see
/// [`Binder::parse`]), `--jobs N` (parallel fan-out width), `--fast`
/// (width 8, 300 cycles — for smoke runs), `--store SPEC` (persistent
/// artifact store: prepared schedules, mapped netlists, simulation
/// summaries, and the SA table are cached across runs; a directory, or
/// `remote:ADDR` for the shared hot store of an `hlp serve` daemon),
/// `--shard i/N` (run only this worker's slice of the benchmark ×
/// binder matrix into the store; requires `--store`, combine local
/// shard stores with `hlp merge` — sharding straight into one
/// `remote:` store needs no merge step).
///
/// The flow knobs are set through the request-key table
/// ([`JobRequest::set`]), so they are bounded exactly as the wire's
/// `key=value` pairs. Malformed values report the offending flag and
/// value on stderr and exit 2 (the usage exit code); runtime failures
/// exit 1.
#[derive(Clone, Debug)]
pub struct Args {
    /// The request every job starts from, holding the knobs the flags
    /// set; [`Args::request_for`] fills in the benchmark, constraint and
    /// binder.
    pub template: JobRequest,
    /// Benchmark name filter (empty = whole suite).
    pub only: Vec<String>,
    /// Binder filter (empty = the binary's default set).
    pub binders: Vec<Binder>,
    /// Worker threads for the request fan-out.
    pub jobs: usize,
    /// Artifact-store directory (`--store`).
    pub store: Option<String>,
    /// This worker's slice of the job matrix (`--shard`).
    pub shard: Shard,
}

/// Reports a malformed option value with the flag name and offending
/// value, then exits with the usage code (2).
fn bad_value(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("invalid value `{value}` for {flag}: expected {expected}");
    usage()
}

/// Sets request knob `key` from `flag`'s value through
/// [`JobRequest::set`], exiting with the usage code on a refusal.
fn set_knob(req: &mut JobRequest, flag: &str, key: &str, value: &str) {
    match req.set(key, value) {
        Ok(()) => {}
        Err(KnobError::Expected(what)) => bad_value(flag, value, &what),
        Err(KnobError::UnknownKey) => {
            eprintln!("unknown flag `{flag}`");
            usage()
        }
    }
}

impl Args {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Args {
        let mut template = JobRequest::suite("").lanes(DEFAULT_LANES);
        let mut only = Vec::new();
        let mut binders = Vec::new();
        let mut jobs = default_jobs();
        let mut store = None;
        let mut shard = Shard::full();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].clone();
            let take_value = |i: &mut usize| -> String {
                *i += 1;
                argv.get(*i)
                    .unwrap_or_else(|| {
                        eprintln!("missing value for {flag}");
                        usage()
                    })
                    .clone()
            };
            match flag.as_str() {
                "--width" => set_knob(&mut template, &flag, "width", &take_value(&mut i)),
                "--sa-width" => set_knob(&mut template, &flag, "sa-width", &take_value(&mut i)),
                "--cycles" => set_knob(&mut template, &flag, "cycles", &take_value(&mut i)),
                "--lanes" => set_knob(&mut template, &flag, "lanes", &take_value(&mut i)),
                "--paper-exact" => {
                    // The paper's tables: one vector stream, byte-identical
                    // to the scalar reference engine. (Position-sensitive
                    // with --lanes: the later flag wins.)
                    template.lanes = 1;
                }
                "--seed" => {
                    // One seed flag controls the whole stochastic setup:
                    // simulation vectors *and* the register binding's
                    // random port assignment.
                    let seed = take_value(&mut i);
                    set_knob(&mut template, &flag, "sim-seed", &seed);
                    set_knob(&mut template, &flag, "port-seed", &seed);
                }
                "--jobs" => {
                    let v = take_value(&mut i);
                    jobs = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| bad_value(&flag, &v, "a positive integer"));
                }
                "--binder" => {
                    set_knob(&mut template, &flag, "binder", &take_value(&mut i));
                    binders.push(template.binder);
                }
                "--bench" => only.push(take_value(&mut i)),
                "--store" => store = Some(take_value(&mut i)),
                "--shard" => {
                    let spec = take_value(&mut i);
                    shard = Shard::parse(&spec)
                        .unwrap_or_else(|| bad_value(&flag, &spec, "i/N with i < N"));
                }
                "--fast" => {
                    template.width = 8;
                    template.sa_width = 6;
                    template.cycles = 300;
                }
                "--help" | "-h" => usage(),
                other => {
                    eprintln!("unknown flag `{other}`");
                    usage()
                }
            }
            i += 1;
        }
        if !shard.is_full() && store.is_none() {
            eprintln!("--shard produces no report; it needs --store DIR to warm");
            usage();
        }
        Args {
            template,
            only,
            binders,
            jobs,
            store,
            shard,
        }
    }

    /// The flow configuration the flags select: the template request's
    /// knobs on top of [`FlowConfig::default`].
    pub fn flow(&self) -> FlowConfig {
        self.template.flow_config(&FlowConfig::default())
    }

    /// The benchmark suite (optionally filtered), paired with the paper's
    /// Table 2 resource constraints.
    pub fn suite(&self) -> Vec<(Cdfg, ResourceConstraint)> {
        cdfg::PROFILES
            .iter()
            .filter(|p| self.only.is_empty() || self.only.iter().any(|n| n == p.name))
            .map(|p| {
                let g = cdfg::generate(p, p.seed);
                let rc = paper_constraint(p.name).expect("suite constraint");
                (g, rc)
            })
            .collect()
    }

    /// The `--binder` selection, or `default` when none was given.
    pub fn binders_or(&self, default: &[Binder]) -> Vec<Binder> {
        if self.binders.is_empty() {
            default.to_vec()
        } else {
            self.binders.clone()
        }
    }

    /// The [`JobRequest`] for one suite benchmark under these flags.
    pub fn request_for(&self, bench: &str, rc: &ResourceConstraint, binder: Binder) -> JobRequest {
        JobRequest {
            source: JobSource::Suite(bench.to_string()),
            constraint: Some((rc.addsub, rc.mul)),
            binder,
            ..self.template.clone()
        }
    }

    /// The row-major `suite × binders` request matrix — what
    /// [`Args::run_matrix`] executes, and the job order `--shard`
    /// slices.
    pub fn requests(
        &self,
        suite: &[(Cdfg, ResourceConstraint)],
        binders: &[Binder],
    ) -> Vec<JobRequest> {
        suite
            .iter()
            .flat_map(|(g, rc)| {
                binders
                    .iter()
                    .map(move |binder| self.request_for(g.name(), rc, *binder))
            })
            .collect()
    }

    /// Builds the [`Service`] for these flags: the flag-derived flow
    /// configuration as the template, attached to the `--store` artifact
    /// store when one was given — a directory, or `remote:ADDR` for the
    /// hot store of an `hlp serve` daemon (exiting with a message if the
    /// directory cannot be created or no daemon answers).
    pub fn service(&self) -> Service {
        let service = Service::new().with_template(self.flow());
        match &self.store {
            Some(spec) => {
                let store = ArtifactStore::open_spec(spec).unwrap_or_else(|e| {
                    eprintln!("cannot open artifact store `{spec}`: {e}");
                    std::process::exit(1);
                });
                service.with_store(Arc::new(store))
            }
            None => service,
        }
    }

    /// Builds the [`Service`] for these flags and executes the benchmark
    /// × binder request matrix through it over `--jobs` workers, with
    /// progress on stderr. Returns the service (for stage counters /
    /// pipeline access) and `results[bench][binder]`.
    ///
    /// **Sharded invocations terminate here.** With `--shard i/N` (N > 1)
    /// the run is a store-warming worker: it executes only its slice of
    /// the request matrix into the store, prints a summary to stderr, and
    /// exits the process — no report is rendered, because the matrix is
    /// partial. Combine the shard stores with `hlp merge` and rerun
    /// unsharded against the merged store for the full (all-hits) report.
    pub fn run_matrix(
        &self,
        suite: &[(Cdfg, ResourceConstraint)],
        binders: &[Binder],
    ) -> (Service, Vec<Vec<FlowResult>>) {
        let service = self.service();
        let requests = self.requests(suite, binders);
        if !self.shard.is_full() {
            let owned: Vec<JobRequest> = requests
                .iter()
                .enumerate()
                .filter(|(i, _)| self.shard.owns(*i))
                .map(|(_, r)| r.clone())
                .collect();
            let reports = service.execute_all(&owned, self.jobs);
            let ran = reports.iter().filter(|r| r.is_ok()).count();
            for report in &reports {
                if let Err(e) = report {
                    eprintln!("  job failed: {e}");
                }
            }
            report_service_stats(&service);
            eprintln!(
                "  shard {}: warmed {ran} of {} job(s) into `{}`; no report (merge \
                 shard stores with `hlp merge`, then rerun unsharded)",
                self.shard,
                requests.len(),
                self.store.as_deref().unwrap_or("?"),
            );
            std::process::exit(0);
        }
        eprintln!(
            "  fan-out: {} benchmark(s) x {} binder(s) on {} job(s)",
            suite.len(),
            binders.len(),
            self.jobs
        );
        let mut reports = service.execute_all(&requests, self.jobs).into_iter();
        let results = suite
            .iter()
            .map(|_| {
                binders
                    .iter()
                    .map(|_| {
                        let report = reports.next().expect("one report per request");
                        report
                            .unwrap_or_else(|e| {
                                eprintln!("job failed: {e}");
                                std::process::exit(1);
                            })
                            .result
                    })
                    .collect()
            })
            .collect();
        report_service_stats(&service);
        (service, results)
    }
}

/// Prints a service's stage-execution and store hit/miss counters to
/// stderr (the observable caching evidence; stdout stays reserved for
/// deterministic report output).
fn report_service_stats(service: &Service) {
    let s = service.stats();
    eprintln!("  stages: {}", s.stages);
    if service.store().is_some() {
        eprintln!("  store: {}", s.store);
    }
    if s.codec.total_ns() > 0 {
        eprintln!("  codec: {}", s.codec);
    }
}

/// Fans `suite × binders` out on an explicit pipeline (obtained from
/// [`Service::pipeline_for`] for configurations beyond the request
/// vocabulary — custom resource libraries, controller styles), with
/// progress on stderr.
pub fn run_on(
    pipeline: &Pipeline,
    suite: &[(Cdfg, ResourceConstraint)],
    binders: &[Binder],
    jobs: usize,
) -> Vec<Vec<FlowResult>> {
    eprintln!(
        "  fan-out: {} benchmark(s) x {} binder(s) on {} job(s)",
        suite.len(),
        binders.len(),
        jobs
    );
    let results = pipeline.run_matrix(suite, binders, jobs);
    let s = pipeline.stats();
    eprintln!("  stages: {}", s.stages);
    if pipeline.store().is_some() {
        eprintln!("  store: {}", s.store);
    }
    if s.codec.total_ns() > 0 {
        eprintln!("  codec: {}", s.codec);
    }
    results
}

/// Exits with an error if `--shard` was passed to a binary that drives
/// pipelines by hand instead of through [`Args::run_matrix`] (accepting
/// the flag and silently running the whole matrix would defeat the
/// point of sharding).
pub fn reject_shard_flag(args: &Args, binary: &str) {
    if !args.shard.is_full() {
        eprintln!(
            "{binary}: this binary drives several flow configurations by hand and does not \
             support --shard (shard the matrix binaries, e.g. all_experiments, instead)"
        );
        std::process::exit(2);
    }
}

/// Exits with an error if `--binder` was passed to a binary whose
/// binder set is fixed by the table it reproduces (accepting the flag
/// and silently ignoring it would mislabel the results).
pub fn reject_binder_flag(args: &Args, binary: &str) {
    if !args.binders.is_empty() {
        eprintln!(
            "{binary}: the binder set is fixed by the paper table this binary reproduces; \
             --binder is not supported (use `binders` or `table2` for custom binder sets)"
        );
        std::process::exit(2);
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

fn usage() -> ! {
    eprintln!(
        "usage: <bin> [--width N] [--sa-width N] [--cycles N] [--seed N] [--lanes N] \
         [--paper-exact] [--bench NAME]... [--binder SPEC[:ALPHA]]... [--jobs N] [--fast] \
         [--store DIR] [--shard i/N]"
    );
    std::process::exit(2)
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Percentage change from `from` to `to` (negative = reduction).
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

/// One Table 3 reference row: `(benchmark, dynamic power mW
/// LOPASS/HLPower, clock ns LOPASS/HLPower, LUTs LOPASS/HLPower)`.
pub type PaperTable3Row = (&'static str, (f64, f64), (f64, f64), (u32, u32));

/// The paper's Table 3 reference numbers, printed beside the measured
/// ones by `all_experiments`.
pub const PAPER_TABLE3: [PaperTable3Row; 7] = [
    ("chem", (1602.3, 1468.6), (26.0, 27.5), (9806, 9613)),
    ("dir", (709.1, 405.8), (23.8, 24.2), (4527, 3453)),
    ("honda", (658.7, 534.1), (23.5, 23.2), (3352, 3057)),
    ("mcm", (351.3, 208.7), (24.1, 24.2), (3274, 2548)),
    ("pr", (232.7, 192.9), (20.9, 21.7), (1714, 1732)),
    ("steam", (729.6, 690.6), (24.4, 23.6), (5121, 4469)),
    ("wang", (161.5, 158.5), (20.5, 19.9), (1697, 1775)),
];

/// One Table 4 reference row: `(benchmark, LOPASS mean/var, α=1 mean/var,
/// α=0.5 mean/var, #muxes)`.
pub type PaperTable4Row = (&'static str, (f64, f64), (f64, f64), (f64, f64), u32);

/// The paper's Table 4 reference numbers.
pub const PAPER_TABLE4: [PaperTable4Row; 7] = [
    ("chem", (7.4, 16.1), (4.6, 9.8), (2.4, 5.3), 16),
    ("dir", (5.4, 12.2), (4.0, 11.2), (4.2, 3.8), 5),
    ("honda", (3.1, 11.1), (3.9, 6.4), (3.0, 6.3), 8),
    ("mcm", (1.0, 0.3), (1.8, 0.5), (0.5, 0.3), 6),
    ("pr", (0.8, 0.2), (0.3, 0.2), (0.8, 0.2), 4),
    ("steam", (8.1, 56.1), (6.8, 29.9), (5.8, 26.7), 8),
    ("wang", (1.3, 0.7), (0.8, 0.2), (1.8, 0.7), 4),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(100.0, 81.0) + 19.0).abs() < 1e-12);
        assert!((pct_change(100.0, 103.0) - 3.0).abs() < 1e-12);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn paper_reference_data_covers_suite() {
        for p in cdfg::PROFILES {
            assert!(PAPER_TABLE3.iter().any(|(n, ..)| *n == p.name));
            assert!(PAPER_TABLE4.iter().any(|(n, ..)| *n == p.name));
        }
    }

    #[test]
    fn binder_specs_parse() {
        assert_eq!(Binder::parse("lopass"), Some(Binder::Lopass));
        assert_eq!(Binder::parse("lopass-ic"), Some(Binder::LopassInterconnect));
        assert_eq!(Binder::parse("lopass-sa"), Some(Binder::LopassAnnealed));
        assert_eq!(
            Binder::parse("hlpower"),
            Some(Binder::HlPower { alpha: 0.5 })
        );
        assert_eq!(
            Binder::parse("hlpower:1.0"),
            Some(Binder::HlPower { alpha: 1.0 })
        );
        assert_eq!(
            Binder::parse("hlpower-zd:0.25"),
            Some(Binder::HlPowerZeroDelay { alpha: 0.25 })
        );
        assert_eq!(Binder::parse("nope"), None);
        assert_eq!(Binder::parse("hlpower:x"), None);
        // The LOPASS variants take no alpha; rejecting the suffix beats
        // silently ignoring it.
        assert_eq!(Binder::parse("lopass:0.5"), None);
        // spec() is the exact inverse (the request-codec contract).
        for b in [
            Binder::Lopass,
            Binder::LopassInterconnect,
            Binder::LopassAnnealed,
            Binder::HlPower { alpha: 0.3 },
            Binder::HlPowerZeroDelay { alpha: 1.0 },
        ] {
            assert_eq!(Binder::parse(&b.spec()), Some(b));
        }
    }

    #[test]
    fn shard_parse_accepts_only_well_formed_slices() {
        // The good cases.
        assert_eq!(Shard::parse("0/1"), Some(Shard { index: 0, total: 1 }));
        assert_eq!(Shard::parse("3/8"), Some(Shard { index: 3, total: 8 }));
        assert!(Shard::parse("0/1").unwrap().is_full());
        assert!(!Shard::parse("0/2").unwrap().is_full());
        // Degenerate totals: no shard can own anything out of 0 workers.
        assert_eq!(Shard::parse("0/0"), None);
        assert_eq!(Shard::parse("1/0"), None);
        // Index out of range (i >= N).
        assert_eq!(Shard::parse("1/1"), None);
        assert_eq!(Shard::parse("4/4"), None);
        assert_eq!(Shard::parse("9/4"), None);
        // Garbage shapes.
        for bad in [
            "", "/", "1", "1/", "/2", "a/b", "1/b", "a/2", "1/2/3", "-1/2", "1/-2", "1.0/2",
            "0x1/2",
        ] {
            assert_eq!(Shard::parse(bad), None, "`{bad}` must not parse");
        }
        // Whitespace is not trimmed anywhere: a padded spec is rejected
        // rather than silently accepted with surprising semantics.
        for bad in [" 0/1", "0/1 ", "0 /1", "0/ 1", "0\t/1", "0/1\n"] {
            assert_eq!(Shard::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn shard_partition_is_exact_and_total() {
        // Every job index is owned by exactly one of the N shards.
        for total in 1..=5usize {
            let shards: Vec<Shard> = (0..total)
                .map(|i| Shard::parse(&format!("{i}/{total}")).unwrap())
                .collect();
            for job in 0..37 {
                let owners = shards.iter().filter(|s| s.owns(job)).count();
                assert_eq!(owners, 1, "job {job} of {total} shards");
            }
        }
    }

    #[test]
    fn request_matrix_is_row_major_and_flag_faithful() {
        let args = Args {
            template: JobRequest::suite("")
                .width(8)
                .sa_width(6)
                .cycles(300)
                .lanes(16)
                .seed(7),
            only: vec![],
            binders: vec![],
            jobs: 1,
            store: None,
            shard: Shard::full(),
        };
        let suite: Vec<(Cdfg, ResourceConstraint)> = ["pr", "wang"]
            .iter()
            .map(|n| {
                let p = cdfg::profile(n).unwrap();
                (cdfg::generate(p, p.seed), paper_constraint(n).unwrap())
            })
            .collect();
        let binders = [Binder::Lopass, Binder::HlPower { alpha: 0.5 }];
        let reqs = args.requests(&suite, &binders);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].source, hlpower::JobSource::Suite("pr".to_string()));
        assert_eq!(reqs[1].binder, Binder::HlPower { alpha: 0.5 });
        assert_eq!(
            reqs[2].source,
            hlpower::JobSource::Suite("wang".to_string())
        );
        for r in &reqs {
            assert_eq!(r.width, 8);
            assert_eq!(r.cycles, 300);
            assert_eq!(r.lanes, 16);
            assert_eq!(r.sim_seed, 7);
            assert_eq!(r.constraint, Some((2, 2)), "paper constraint captured");
            // Every request survives the wire byte-exactly, so a script
            // can replay the exact matrix against `hlp serve`.
            assert_eq!(JobRequest::parse_line(&r.to_line()).unwrap(), *r);
        }
    }
}
