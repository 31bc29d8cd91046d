//! The HLPower benchmark driver.
//!
//! ```text
//! hlpower-benchmark --workload paper_cold|serve_warm --seed N
//!     --seconds S --trace 0|1 --hlp PATH --work DIR --trace-dir DIR
//! ```
//!
//! `run.py` builds `hlp` and this driver and then starts it; see
//! README.md for the workloads and metrics. The last line on stdout is
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Any failed or mismatching reply makes the exit code 1.

mod check;
mod daemon;
mod replay;
mod workload;

use check::{References, Tally};
use daemon::Daemon;
use hlpower::api::{self, JobReport, JobRequest, Service};
use hlpower::{ArtifactStore, FlowResult, StageCounts, StoreCounts};
use hlpower_benchmark::stats;
use hlpower_benchmark::trace::{self, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Closed-loop clients, one per core of the 2-core host the benchmark
/// was sized on.
const CLIENTS: usize = 2;

/// Daemons a `serve_warm` run sets up, one after another. Each serves an
/// equal share of the window, so `setup_s` is the median of several
/// set-ups and no set-up is wasted.
const SERVE_DAEMONS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperCold,
    ServeWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_cold" => Some(Workload::PaperCold),
            "serve_warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// Passes over the base requests a run measures: a fixed function of
    /// `--seconds`, never of elapsed time, so every run does identical
    /// work. On the 2-core host the benchmark was sized on, a
    /// `paper_cold` pass takes about 5 s, and a `serve_warm` daemon
    /// about 6 s to set up plus 0.5 s per warm pass. At least 8 passes
    /// (112 jobs) keep ten samples above the 90th latency percentile.
    fn passes(self, seconds: u64) -> usize {
        let s = seconds as f64;
        match self {
            Workload::PaperCold => ((s / 5.0).round() as usize).max(8),
            Workload::ServeWarm => SERVE_DAEMONS * ((s / 4.0).round() as usize).max(3),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    hlp: PathBuf,
    work: PathBuf,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{flag}`"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("duplicate flag {flag}"));
        }
    }
    let mut take = |key: &str| flags.remove(key).ok_or(format!("missing --{key}"));
    let number = |key: &str, v: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("--{key} wants an integer, got `{v}`"))
    };
    let w = take("workload")?;
    let workload =
        Workload::parse(w).ok_or(format!("unknown workload `{w}` (paper_cold | serve_warm)"))?;
    let seed = number("seed", take("seed")?)?;
    let seconds = number("seconds", take("seconds")?)?.max(1);
    let trace = match take("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        hlp: PathBuf::from(take("hlp")?),
        work: PathBuf::from(take("work")?),
        trace_dir: PathBuf::from(take("trace-dir")?),
    };
    if let Some(key) = flags.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(args)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---- jobs --------------------------------------------------------------------

/// One request of a run, with its latency class: the index of the base
/// request it repeats.
#[derive(Clone, Debug)]
struct Job {
    req: JobRequest,
    class: usize,
}

/// `passes` passes over the base requests, in send order.
fn window_jobs(passes: usize) -> Vec<Job> {
    let base = workload::base_requests();
    (0..passes)
        .flat_map(|_| base.iter().cloned().enumerate())
        .map(|(class, req)| Job { req, class })
        .collect()
}

/// The workload's purity rule for one reply: a cold reply never hits
/// the store, and a warm reply runs no schedule, mapping or simulation
/// (FU binding always re-runs). A reply's counts are deltas of counters
/// both clients share, so they may include the other client's job, which
/// obeys the same rule.
fn purity(w: Workload, stages: StageCounts, store: StoreCounts) -> Result<(), String> {
    match w {
        Workload::PaperCold if store.hits() > 0 => {
            Err(format!("{} store hits on a fresh store", store.hits()))
        }
        Workload::ServeWarm if stages.schedules + stages.mappings + stages.simulations > 0 => {
            Err(format!("warm reply executed stages: {stages}"))
        }
        _ => Ok(()),
    }
}

// ---- the closed loop ---------------------------------------------------------

struct Done<T> {
    job: usize,
    ms: f64,
    out: T,
}

/// Runs jobs `0..n` on [`CLIENTS`] threads, each starting its next job
/// only after the previous one completed. Results in job order.
fn closed_loop<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<Done<T>> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= n {
                    break;
                }
                let start = Instant::now();
                let out = f(job);
                let ms = ms(start.elapsed());
                done.lock()
                    .expect("closed-loop lock")
                    .push(Done { job, ms, out });
            });
        }
    });
    let mut done = done.into_inner().expect("closed-loop lock");
    done.sort_by_key(|d| d.job);
    done
}

type Reply = Result<JobReport, String>;

/// One measured stretch of identical work: a `paper_cold` pass, or one
/// `serve_warm` daemon's share of the window.
struct Block {
    jobs: usize,
    wall_s: f64,
    cpu_s: f64,
}

/// What a measured window produced.
#[derive(Default)]
struct Window {
    blocks: Vec<Block>,
    /// Per-job latency in ms, with the job's class.
    latency: Vec<(f64, usize)>,
    replies: Vec<(Job, Reply)>,
}

impl Window {
    fn absorb(&mut self, jobs: &[Job], done: Vec<Done<Reply>>) {
        for d in done {
            let job = &jobs[d.job];
            self.latency.push((d.ms, job.class));
            self.replies.push((job.clone(), d.out));
        }
    }

    fn wall_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.wall_s).sum()
    }

    /// Median over blocks of completed jobs per second of wall time, so
    /// a burst of load from elsewhere on the host during one block moves
    /// one block, not the result.
    fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| b.jobs as f64 / b.wall_s)
            .collect();
        stats::median(&rates)
    }

    /// Median over blocks of CPU milliseconds per completed job.
    fn cpu_ms_per_job(&self) -> f64 {
        let per_job: Vec<f64> = self
            .blocks
            .iter()
            .map(|b| b.cpu_s * 1e3 / b.jobs as f64)
            .collect();
        stats::median(&per_job)
    }
}

/// Runs `jobs` on the closed loop through `f` as one block, timing its
/// wall time and the CPU time of process `pid`.
fn measure(
    jobs: &[Job],
    pid: u32,
    window: &mut Window,
    f: impl Fn(&JobRequest) -> Reply + Sync,
) -> Result<(), String> {
    let cpu0 = daemon::cpu_ns(pid).map_err(err)?;
    let start = Instant::now();
    let done = closed_loop(jobs.len(), |i| f(&jobs[i].req));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = daemon::cpu_ns(pid).map_err(err)?.saturating_sub(cpu0) as f64 / 1e9;
    window.blocks.push(Block {
        jobs: jobs.len(),
        wall_s,
        cpu_s,
    });
    window.absorb(jobs, done);
    Ok(())
}

// ---- set-up ------------------------------------------------------------------

/// A fresh empty store and service for one cold pass.
fn cold_service(dir: &Path) -> Result<Service, String> {
    let store = ArtifactStore::open(dir).map_err(err)?;
    Ok(Service::new().with_store(Arc::new(store)))
}

/// A daemon on an empty store in `dir`, warmed with one pass over the
/// base requests. Returns the daemon, the warm-up replies and the
/// set-up time.
fn warm_daemon(hlp: &Path, dir: &Path) -> Result<(Daemon, Window, f64), String> {
    let start = Instant::now();
    std::fs::create_dir_all(dir).map_err(err)?;
    let daemon = Daemon::start(hlp, &dir.join("d.sock"), &dir.join("store")).map_err(err)?;
    let jobs = window_jobs(1);
    let mut warm = Window::default();
    let done = closed_loop(jobs.len(), |i| {
        api::request(daemon.endpoint(), &jobs[i].req).map_err(err)
    });
    warm.absorb(&jobs, done);
    Ok((daemon, warm, start.elapsed().as_secs_f64()))
}

// ---- results -----------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints which latency class each percentile falls in, so a percentile
/// sitting on the step between two classes shows.
fn describe_latency(w: &Window) {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(l, c) in &w.latency {
        by_class.entry(c).or_default().push(l);
    }
    let mut sorted = w.latency.clone();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    for (label, q) in [("p50", 0.5), ("p90", 0.9)] {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if let Some(&(v, c)) = sorted.get(rank - 1) {
            let ranks: Vec<usize> = (0..n).filter(|&i| sorted[i].1 == c).collect();
            eprintln!(
                "{label} = {v:.3} ms, class {c} (class ranks {}..={} of {n})",
                ranks.first().map_or(0, |r| r + 1),
                ranks.last().map_or(0, |r| r + 1),
            );
        }
    }
    for (c, v) in &by_class {
        eprintln!(
            "  class {c:2}: n={:4} median {:9.3} ms",
            v.len(),
            stats::median(v)
        );
    }
}

/// The end-to-end metrics of an untraced window.
fn end_to_end(
    setup_s: f64,
    w: &Window,
    peak_rss_mb: f64,
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    let mut lat: Vec<f64> = w.latency.iter().map(|&(l, _)| l).collect();
    lat.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        stats::percentile(&lat, q).ok_or(format!(
            "refusing p{}: {} samples leave fewer than {} beyond it",
            q * 100.0,
            lat.len(),
            stats::MIN_BEYOND
        ))
    };
    let results = w
        .replies
        .iter()
        .filter_map(|(j, r)| r.as_ref().ok().map(|r| (&j.req, &r.result)));
    let (power, luts) =
        check::table3_deltas(results).ok_or("no complete set of base replies".to_string())?;
    describe_latency(w);
    eprintln!(
        "{} jobs in {} blocks, {:.3} s, {} latency samples",
        w.latency.len(),
        w.blocks.len(),
        w.wall_s(),
        lat.len()
    );
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("jobs_per_s", w.jobs_per_s(), "1/s"),
        metric("request_p50_ms", pct(0.5)?, "ms"),
        metric("request_p90_ms", pct(0.9)?, "ms"),
        metric("cpu_ms_per_job", w.cpu_ms_per_job(), "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric(
            "ok_pct",
            100.0 * (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
            "%",
        ),
        metric("power_delta_pct", power, "%"),
        metric("lut_delta_pct", luts, "%"),
    ])
}

/// The reference results of the base requests, computed after every
/// timed window and memory reading.
fn references() -> References {
    References::compute(&workload::base_requests(), CLIENTS)
}

/// Checks every reply of `windows` against the references, and the
/// replies of each window marked strict against the workload's purity
/// rule.
fn check_replies(w: Workload, refs: &References, windows: &[(&Window, bool)]) -> Tally {
    let mut tally = Tally::default();
    for &(win, strict) in windows {
        for (job, reply) in &win.replies {
            tally.check(refs, &job.req, reply, |rep| {
                if strict {
                    purity(w, rep.stats.stages, rep.stats.store)
                } else {
                    Ok(())
                }
            });
        }
    }
    tally
}

// ---- untraced runs -----------------------------------------------------------

fn untraced(args: &Args) -> Result<Outcome, String> {
    let passes = args.workload.passes(args.seconds);
    match args.workload {
        Workload::PaperCold => {
            let pid = std::process::id();
            let pass = window_jobs(1);
            let mut window = Window::default();
            let mut setups = Vec::with_capacity(passes);
            let mut stages = StageCounts::default();
            for p in 0..passes {
                let dir = args.work.join(format!("cold-{p}"));
                let start = Instant::now();
                let service = cold_service(&dir)?;
                setups.push(start.elapsed().as_secs_f64());
                measure(&pass, pid, &mut window, |req| {
                    service.execute(req).map_err(err)
                })?;
                let s = service.stats().stages;
                stages.schedules += s.schedules;
                stages.mappings += s.mappings;
                stages.simulations += s.simulations;
                drop(service);
                std::fs::remove_dir_all(&dir).map_err(err)?;
            }
            let peak = daemon::peak_rss_mb(pid).map_err(err)?;
            let mut tally = check_replies(args.workload, &references(), &[(&window, true)]);
            let (n, p) = (pass.len() as u64, passes as u64);
            let want = (n / 2 * p, n * p, n * p);
            if (stages.schedules, stages.mappings, stages.simulations) != want {
                tally.record(Err(format!(
                    "cold passes executed {stages}, expected {want:?} schedules/mappings/simulations"
                )));
            }
            let metrics = end_to_end(stats::median(&setups), &window, peak, &tally)?;
            Ok(Outcome { tally, metrics })
        }
        Workload::ServeWarm => {
            let share = window_jobs(passes / SERVE_DAEMONS);
            let mut window = Window::default();
            let mut warm_ups = Vec::with_capacity(SERVE_DAEMONS);
            let mut setups = Vec::with_capacity(SERVE_DAEMONS);
            let mut peaks = Vec::with_capacity(SERVE_DAEMONS);
            for d in 0..SERVE_DAEMONS {
                let dir = args.work.join(format!("serve-{d}"));
                let (daemon, warm, setup_s) = warm_daemon(&args.hlp, &dir)?;
                // The peak of the warm window, not of the cold warm-up.
                daemon::reset_peak_rss(daemon.pid()).map_err(err)?;
                measure(&share, daemon.pid(), &mut window, |req| {
                    api::request(daemon.endpoint(), req).map_err(err)
                })?;
                peaks.push(daemon::peak_rss_mb(daemon.pid()).map_err(err)?);
                daemon.stop().map_err(err)?;
                std::fs::remove_dir_all(&dir).map_err(err)?;
                warm_ups.push(warm);
                setups.push(setup_s);
            }
            let refs = references();
            let mut windows: Vec<(&Window, bool)> = warm_ups.iter().map(|w| (w, false)).collect();
            windows.push((&window, true));
            let tally = check_replies(args.workload, &refs, &windows);
            let metrics = end_to_end(
                stats::median(&setups),
                &window,
                stats::median(&peaks),
                &tally,
            )?;
            Ok(Outcome { tally, metrics })
        }
    }
}

// ---- the traced run ----------------------------------------------------------

/// SA-table `(queries, misses)` of the glitch-aware cache all base
/// requests share.
fn sa_counters(service: &Service) -> (u64, u64) {
    service
        .pipeline(&workload::base_requests()[1])
        .sa_cache(workload::HLPOWER)
        .counters()
}

/// A replayed job's result and the work the replay did.
type Replayed = Result<(FlowResult, replay::JobWork), String>;

/// Everything the traced run measures.
#[derive(Default)]
struct TraceRun {
    /// Per job sent to the daemon: its round trip minus the untraced
    /// in-process execution of the same request.
    wire_gap_ms: Vec<f64>,
    wire_bytes: u64,
    untraced_ms: f64,
    traced_ms: f64,
    work: replay::JobWork,
    schedules: u64,
    store_hits: u64,
    store_misses: u64,
    decode_ns: u64,
    encode_ns: u64,
    sa_queries: u64,
    sa_misses: u64,
    /// Wire and untraced in-process replies.
    replies: Window,
    replayed: Vec<(Job, Replayed)>,
}

/// Runs `jobs` on the closed loop. Each client sends a job to the
/// daemon (if any), executes it untraced on `plain`, and replays it
/// under spans on `traced`, back to back, so the three timings of one
/// job see the same load on the host.
#[allow(clippy::too_many_arguments)]
fn paired_window(
    rec: &Recorder,
    daemon: Option<&Daemon>,
    plain: &Service,
    traced: &Service,
    jobs: &[Job],
    first_id: u64,
    parent: Option<u64>,
    run: &mut TraceRun,
) {
    let store = traced.store().expect("workloads run with a store").clone();
    let (store0, codec0) = (store.counters(), store.codec());
    let schedules0 = traced.stats().stages.schedules;
    let done = closed_loop(jobs.len(), |i| {
        let (req, id) = (&jobs[i].req, first_id + i as u64);
        let wire = daemon.map(|d| {
            let _s = rec.span("proto.roundtrip", id);
            let start = Instant::now();
            let reply = api::request(d.endpoint(), req).map_err(err);
            (reply, ms(start.elapsed()))
        });
        let start = Instant::now();
        let plain_reply = plain.execute(req).map_err(err);
        let plain_ms = ms(start.elapsed());
        let start = Instant::now();
        let replayed = replay::replay_job(rec, traced, req, id, parent).map_err(err);
        let traced_ms = ms(start.elapsed());
        (wire, plain_reply, plain_ms, replayed, traced_ms)
    });
    run.schedules += traced.stats().stages.schedules - schedules0;
    let s = store.counters().since(&store0);
    run.store_hits += s.hits();
    run.store_misses += s.misses();
    let c = store.codec().since(&codec0);
    run.decode_ns +=
        c.prepared_decode_ns + c.netlist_decode_ns + c.sim_decode_ns + c.satable_decode_ns;
    run.encode_ns +=
        c.prepared_encode_ns + c.netlist_encode_ns + c.sim_encode_ns + c.satable_encode_ns;
    let (mut over_wire, mut in_process) = (Vec::new(), Vec::new());
    for d in done {
        let job = &jobs[d.job];
        let (wire, plain_reply, plain_ms, replayed, traced_ms) = d.out;
        run.untraced_ms += plain_ms;
        run.traced_ms += traced_ms;
        if let Some((reply, wire_ms)) = wire {
            run.wire_gap_ms.push(wire_ms - plain_ms);
            run.wire_bytes += job.req.to_line().len() as u64 + 1;
            if let Ok(rep) = &reply {
                run.wire_bytes += rep.to_text().len() as u64;
            }
            over_wire.push(Done {
                job: d.job,
                ms: wire_ms,
                out: reply,
            });
        }
        in_process.push(Done {
            job: d.job,
            ms: plain_ms,
            out: plain_reply,
        });
        if let Ok((_, w)) = &replayed {
            run.work.sa_queries += w.sa_queries;
            run.work.elaborations += w.elaborations;
            run.work.mappings += w.mappings;
            run.work.simulations += w.simulations;
            run.work.lane_cycles += w.lane_cycles;
        }
        run.replayed.push((job.clone(), replayed));
    }
    run.replies.absorb(jobs, over_wire);
    run.replies.absorb(jobs, in_process);
}

/// The stage work a replayed job must show on this workload.
fn replay_purity(w: Workload, work: &replay::JobWork) -> Result<(), String> {
    let want = match w {
        Workload::PaperCold => (1, 1, 1),
        Workload::ServeWarm => (0, 0, 0),
    };
    let got = (work.elaborations, work.mappings, work.simulations);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "replay executed {got:?} elaborations/mappings/simulations, expected {want:?}"
        ))
    }
}

/// A service on a copy of the warmed daemon store, warmed in memory the
/// way the daemon's service was: one pass over the base requests.
fn warm_copy(daemon_store: &Path, dir: &Path) -> Result<Service, String> {
    daemon::copy_tree(daemon_store, dir).map_err(err)?;
    let service = Service::new().with_store(Arc::new(ArtifactStore::open(dir).map_err(err)?));
    for req in workload::base_requests() {
        service.execute(&req).map_err(err)?;
    }
    Ok(service)
}

fn traced(args: &Args) -> Result<Outcome, String> {
    // Every job runs two or three times (wire, untraced, traced), so
    // half the untraced passes keeps a traced run near an untraced one's
    // length.
    let passes = args.workload.passes(args.seconds).div_ceil(2);
    let rec = Recorder::new();
    let mut run = TraceRun::default();
    match args.workload {
        Workload::PaperCold => {
            let pass = window_jobs(1);
            for p in 0..passes {
                let dirs = [
                    args.work.join(format!("cold-{p}")),
                    args.work.join(format!("cold-{p}-traced")),
                ];
                let plain = cold_service(&dirs[0])?;
                let traced = cold_service(&dirs[1])?;
                let pass_span = rec.span("pass", 0);
                let first = (p * pass.len()) as u64 + 1;
                paired_window(
                    &rec,
                    None,
                    &plain,
                    &traced,
                    &pass,
                    first,
                    Some(pass_span.id()),
                    &mut run,
                );
                drop(pass_span);
                let (q, m) = sa_counters(&traced);
                run.sa_queries += q;
                run.sa_misses += m;
                drop((plain, traced));
                for d in &dirs {
                    std::fs::remove_dir_all(d).map_err(err)?;
                }
            }
        }
        Workload::ServeWarm => {
            let dir = args.work.join("serve");
            let (daemon, _, _) = warm_daemon(&args.hlp, &dir)?;
            let plain = warm_copy(&dir.join("store"), &args.work.join("store-plain"))?;
            let traced = warm_copy(&dir.join("store"), &args.work.join("store-traced"))?;
            let (q0, m0) = sa_counters(&traced);
            paired_window(
                &rec,
                Some(&daemon),
                &plain,
                &traced,
                &window_jobs(passes),
                1,
                None,
                &mut run,
            );
            daemon.stop().map_err(err)?;
            let (q, m) = sa_counters(&traced);
            run.sa_queries += q - q0;
            run.sa_misses += m - m0;
        }
    }

    let refs = references();
    let mut tally = check_replies(args.workload, &refs, &[(&run.replies, true)]);
    for (job, r) in &run.replayed {
        let outcome = match r {
            Err(e) => Err(format!("{}: {e}", job.req.to_line())),
            Ok((result, _)) if !refs.matches(&job.req, result) => Err(format!(
                "{}: replayed result differs from the reference",
                job.req.to_line()
            )),
            Ok((_, work)) => replay_purity(args.workload, work),
        };
        tally.record(outcome);
    }

    let spans = rec.spans();
    std::fs::create_dir_all(&args.trace_dir).map_err(err)?;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let file = std::fs::File::create(&path).map_err(err)?;
    trace::write_jsonl(&spans, std::io::BufWriter::new(file)).map_err(err)?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(Outcome {
        tally,
        metrics: per_layer(&run, &spans),
    })
}

/// The per-layer metrics of a traced run.
fn per_layer(run: &TraceRun, spans: &[trace::Span]) -> Vec<Metric> {
    let bd = trace::breakdown(spans, "job");
    let jobs = run.replayed.len().max(1) as f64;
    let per_job = |n: u64| n as f64 / jobs;
    let ms_per_job = |ns: u64| ns as f64 / 1e6 / jobs;
    let self_ms = |layer: &str| ms_per_job(bd.layer_self_ns.get(layer).copied().unwrap_or(0));
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            0.0
        } else {
            100.0 * a as f64 / b as f64
        }
    };
    let gatesim_s = bd.layer_self_ns.get("gatesim").copied().unwrap_or(0) as f64 / 1e9;
    let flush_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "service.flush")
        .map(|s| s.duration_ns())
        .sum();
    let (proto_ms, proto_bytes) = if run.wire_gap_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            stats::median(&run.wire_gap_ms),
            run.wire_bytes as f64 / run.wire_gap_ms.len() as f64,
        )
    };
    vec![
        metric("gatesim.ms_per_job", self_ms("gatesim"), "ms"),
        metric("gatesim.share_pct", bd.share_pct("gatesim"), "%"),
        metric(
            "gatesim.lane_cycles_per_s",
            if gatesim_s > 0.0 {
                run.work.lane_cycles as f64 / gatesim_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric("mapper.ms_per_job", self_ms("mapper"), "ms"),
        metric("mapper.share_pct", bd.share_pct("mapper"), "%"),
        metric("datapath.ms_per_job", self_ms("datapath"), "ms"),
        metric("fubind.ms_per_job", self_ms("fubind"), "ms"),
        metric("fubind.share_pct", bd.share_pct("fubind"), "%"),
        metric(
            "fubind.sa_queries_per_job",
            per_job(run.work.sa_queries),
            "count",
        ),
        metric("satable.misses_per_job", per_job(run.sa_misses), "count"),
        metric(
            "satable.miss_ms_per_job",
            ms_per_job(bd.layer_total_ns.get("satable.miss").copied().unwrap_or(0)),
            "ms",
        ),
        metric(
            "satable.hit_pct",
            ratio(run.sa_queries - run.sa_misses, run.sa_queries),
            "%",
        ),
        metric("store.read_ms_per_job", self_ms("store.read"), "ms"),
        metric("store.write_ms_per_job", self_ms("store.write"), "ms"),
        metric(
            "store.hit_pct",
            ratio(run.store_hits, run.store_hits + run.store_misses),
            "%",
        ),
        metric("codec.decode_ms_per_job", ms_per_job(run.decode_ns), "ms"),
        metric("codec.encode_ms_per_job", ms_per_job(run.encode_ns), "ms"),
        metric("pipeline.ms_per_job", self_ms("pipeline"), "ms"),
        // A lone request is its own frame: one flush per job.
        metric("service.flush_ms_per_frame", ms_per_job(flush_ns), "ms"),
        metric("proto.overhead_ms_per_job", proto_ms, "ms"),
        metric("proto.bytes_per_job", proto_bytes, "B"),
        metric("stages.schedules_per_job", per_job(run.schedules), "count"),
        metric(
            "stages.fu_bindings_per_job",
            per_job(run.replayed.len() as u64),
            "count",
        ),
        metric(
            "stages.mappings_per_job",
            per_job(run.work.mappings),
            "count",
        ),
        metric(
            "stages.simulations_per_job",
            per_job(run.work.simulations),
            "count",
        ),
        metric("trace.unattributed_pct", bd.unattributed_pct(), "%"),
        metric(
            "trace.overhead_pct",
            100.0 * (1.0 - run.untraced_ms / run.traced_ms.max(f64::MIN_POSITIVE)),
            "%",
        ),
    ]
}

// ---- output ------------------------------------------------------------------

fn print_result(outcome: &Outcome) {
    let t = &outcome.tally;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hlpower-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let run = (|| {
        std::fs::create_dir_all(&args.work).map_err(err)?;
        let outcome = if args.trace {
            traced(&args)
        } else {
            untraced(&args)
        };
        std::fs::remove_dir_all(&args.work).map_err(err)?;
        outcome
    })();
    match run {
        Ok(outcome) => {
            for note in &outcome.tally.notes {
                eprintln!("FAILED: {note}");
            }
            print_result(&outcome);
            if outcome.tally.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            let _ = std::fs::remove_dir_all(&args.work);
            eprintln!("hlpower-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
