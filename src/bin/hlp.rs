//! `hlp` — command-line driver for the HLPower flow.
//!
//! ```text
//! hlp run <file.cdfg> [options]     bind a CDFG file and report
//! hlp bench <name> [options]        run one suite benchmark end to end
//! hlp serve (--socket P | --port N) [--store DIR] [--max-clients N]
//!           [--workers N] [--queue-depth N] [--flush-every SECS]
//!                                   daemon: one hot store, many clients
//!                                   (jobs, `batch N` frames, artifact
//!                                   get/put/stat on one socket; a fixed
//!                                   worker pool behind a poll-based
//!                                   event loop; per-request log on
//!                                   stderr). Connections beyond
//!                                   --max-clients park with a `busy`
//!                                   line (up to --queue-depth) and are
//!                                   served FIFO as slots free; dirty SA
//!                                   shards flush every --flush-every
//!                                   seconds (0 disables) and on every
//!                                   batch completion
//! hlp serve --stop (--socket P | --port N)
//!                                   gracefully stop a running daemon
//!                                   (drain clients, flush SA shards,
//!                                   unlink the socket)
//! hlp serve --stats (--socket P | --port N)
//!                                   print a running daemon's monotonic
//!                                   counters (requests/errors/bytes/
//!                                   latency buckets per verb, store
//!                                   hit/miss, batch sizes, admission)
//! hlp serve --fsck-status (--socket P | --port N)
//!                                   print the counters of the daemon's
//!                                   most recent `store fsck` sweep
//! hlp batch --remote ADDR [FILE]    ship every request line in FILE (or
//!                                   stdin) to a daemon as one `batch N`
//!                                   frame; stdout is byte-identical to
//!                                   running the lines sequentially
//! hlp table <out.txt> [options]     precompute an SA table to a file
//! hlp merge <dst> <src>...          merge artifact stores (shard fan-in)
//! hlp check [--fix] <file>...       static semantic checking: .blif and
//!                                   .cdfg sources, exact netlist text,
//!                                   SA-table files, and binary store
//!                                   artifacts and netlists
//!                                   (one verdict line per file; exit 1
//!                                   if any fails); --fix mechanically
//!                                   repairs bare netlist files (binary
//!                                   or text) in place (original kept
//!                                   at FILE.bak) and never rewrites a
//!                                   store artifact
//! hlp fsck --store DIR|remote:ADDR [--repair] [--full]
//!                                   audit every artifact in a store
//!                                   (container proof, codec decode,
//!                                   semantic check); incremental — slots
//!                                   whose audit watermark still matches
//!                                   are skipped unless --full; --repair
//!                                   renames defective files aside to
//!                                   *.bad, so the next run recomputes
//!                                   them; a remote store is audited in
//!                                   place by its daemon — verdicts, not
//!                                   artifact bodies, cross the wire
//! hlp gc --store DIR [--max-age-days D] [--max-bytes B]
//!                                   store size accounting and pruning
//!                                   (quarantined *.bad files are counted
//!                                   but never pruned)
//! hlp suite [--requests]            list the built-in benchmarks
//!
//! options:
//!   --width N        datapath width in bits        (default 16)
//!   --adders N       adder/subtractor constraint   (default: the
//!                    paper's Table 2 value for suite benchmarks,
//!                    2 for CDFG files)
//!   --mults N        multiplier constraint         (same default)
//!   --alpha A        Eq. 4 weighting coefficient   (default 0.5)
//!   --binder SPEC    lopass | lopass-ic | lopass-sa | hlpower[:A] |
//!                    hlpower-zd[:A]  (default hlpower; a `:A` suffix
//!                    overrides --alpha)
//!   --cycles N       simulation cycles             (default 1000)
//!   --lanes N        simulation lanes (independent vector streams),
//!                    0..=512 (default 1); 0 and 1 run one stream on the
//!                    scalar engine, 2..=512 run the bit-sliced slab
//!                    engine with lanes/64 words per node
//!   --sa-mode M      SA-table training: precalculated | zero-delay |
//!                    simulated | dynamic  (see README)
//!   --seed N         simulation + register-port seed
//!   --fsm            elaborate the on-chip FSM controller
//!   --remote ADDR    execute on an `hlp serve` daemon instead of in
//!                    process (ADDR = socket path or host:port); the
//!                    report is byte-identical to a local run
//!   --vhdl PATH      write structural VHDL          (local only)
//!   --blif PATH      write the gate-level netlist   (local only)
//!   --dot PATH       write the scheduled CDFG       (local only)
//!   --sa-table PATH  load/store the SA table        (local only)
//!   --store SPEC     content-addressed artifact store: a directory, or
//!                    `remote:ADDR` for the hot store of an `hlp serve`
//!                    daemon (not combinable with --remote, which ships
//!                    the whole job to the daemon instead)
//! ```
//!
//! Every command speaks the typed service API (`hlpower::api`): `run`
//! and `bench` build a [`JobRequest`], execute it on a [`Service`]
//! (local) or ship the same request line to a daemon (`--remote`), and
//! render the returned [`JobReport`] — so a remote report is
//! byte-identical to a local one, and a warm daemon answers with zero
//! schedule/map/simulate executions (printed on stderr). `hlp suite
//! --requests` emits the suite as request lines for scripted fan-out.
//!
//! Exit codes: 2 for command-line (usage) errors — with the offending
//! flag and value named on stderr — and 1 for runtime failures.

use cdfg::ResourceConstraint;
use hlpower::api::{self, Endpoint, JobReport, JobRequest, JobSource, KnobError, Server, Service};
use hlpower::{ArtifactStore, Binder, GcPolicy, SaMode, SaTable, ServeOptions};
use std::process::exit;
use std::sync::Arc;

struct Options {
    /// Every request knob the flags set; [`request_of`] fills in the
    /// source and the constraint.
    req: JobRequest,
    adders: Option<usize>,
    mults: Option<usize>,
    remote: Option<String>,
    vhdl: Option<String>,
    blif: Option<String>,
    dot: Option<String>,
    sa_table: Option<String>,
    store: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hlp <run FILE | bench NAME | serve | batch | table OUT | merge DST SRC... | \
         check FILE... | fsck | gc | suite> [--width N] [--adders N] \
         [--mults N] [--alpha A] [--binder B] [--cycles N] [--lanes N] [--sa-mode M] \
         [--seed N] [--fsm] [--remote ADDR] [--vhdl P] [--blif P] [--dot P] [--sa-table P] \
         [--store DIR|remote:ADDR]\n\
         hlp serve (--socket P | --port N) [--store DIR] \
         [--max-clients N] [--workers N] [--queue-depth N] [--flush-every SECS] \
         | --stop | --stats | --fsck-status\n\
         hlp batch --remote ADDR [FILE]\n\
         hlp fsck --store DIR|remote:ADDR [--repair] [--full]\n\
         hlp check [--fix] FILE..."
    );
    exit(2)
}

/// Command-line (usage) error: name the flag and the offending value,
/// exit 2.
fn bad_value(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("hlp: invalid value `{value}` for {flag}: expected {expected}");
    usage()
}

/// Runtime failure: exit 1.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("hlp: {msg}");
    exit(1)
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str, expected: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| bad_value(flag, value, expected))
}

/// Consumes the value operand of `flag` from the argument list, with
/// the one missing-value diagnostic every subcommand parser shares.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("hlp: missing value for {flag}");
        usage()
    })
}

/// Sets request knob `key` from `flag`'s value through the request-key
/// table ([`JobRequest::set`]), so a flag is bounded exactly as its
/// wire key is.
fn set_knob(req: &mut JobRequest, flag: &str, key: &str, value: &str) {
    match req.set(key, value) {
        Ok(()) => {}
        Err(KnobError::Expected(what)) => bad_value(flag, value, &what),
        Err(KnobError::UnknownKey) => {
            eprintln!("hlp: unknown flag `{flag}`");
            usage()
        }
    }
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        req: JobRequest::suite(""),
        adders: None,
        mults: None,
        remote: None,
        vhdl: None,
        blif: None,
        dot: None,
        sa_table: None,
        store: None,
    };
    let mut alpha = 0.5;
    let mut spec_has_alpha = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| take_value(args, i, &flag);
        match flag.as_str() {
            "--width" => set_knob(&mut o.req, &flag, "width", &value(&mut i)),
            "--cycles" => set_knob(&mut o.req, &flag, "cycles", &value(&mut i)),
            "--lanes" => set_knob(&mut o.req, &flag, "lanes", &value(&mut i)),
            "--sa-mode" => set_knob(&mut o.req, &flag, "sa-mode", &value(&mut i)),
            "--adders" => o.adders = Some(parsed(&flag, &value(&mut i), "an integer")),
            "--mults" => o.mults = Some(parsed(&flag, &value(&mut i), "an integer")),
            "--alpha" => {
                // α is bounded where binder specs are: `--alpha A` takes
                // exactly what `hlpower:A` does.
                let v = value(&mut i);
                alpha = match Binder::parse(&format!("hlpower:{v}")) {
                    Some(Binder::HlPower { alpha }) => alpha,
                    _ => bad_value(&flag, &v, "a finite number"),
                };
            }
            "--binder" => {
                let spec = value(&mut i);
                set_knob(&mut o.req, &flag, "binder", &spec);
                spec_has_alpha = spec.contains(':');
            }
            "--seed" => {
                let v = value(&mut i);
                set_knob(&mut o.req, &flag, "sim-seed", &v);
                set_knob(&mut o.req, &flag, "port-seed", &v);
            }
            "--fsm" => o.req.fsm = true,
            "--remote" => o.remote = Some(value(&mut i)),
            "--vhdl" => o.vhdl = Some(value(&mut i)),
            "--blif" => o.blif = Some(value(&mut i)),
            "--dot" => o.dot = Some(value(&mut i)),
            "--sa-table" => o.sa_table = Some(value(&mut i)),
            "--store" => o.store = Some(value(&mut i)),
            other => {
                eprintln!("hlp: unknown flag `{other}`");
                usage()
            }
        }
        i += 1;
    }
    // --alpha applies to the HLPower variants unless the spec carried
    // its own `:ALPHA`.
    if !spec_has_alpha {
        o.req.binder = match o.req.binder {
            Binder::HlPower { .. } => Binder::HlPower { alpha },
            Binder::HlPowerZeroDelay { .. } => Binder::HlPowerZeroDelay { alpha },
            other => other,
        };
    }
    // `hlp` has no SA-width flag: the SA table is at most 8 bits wide.
    o.req.sa_width = o.req.width.min(8);
    o
}

/// Builds the request the options describe around `source`.
fn request_of(o: &Options, source: JobSource) -> JobRequest {
    let req = JobRequest {
        source,
        ..o.req.clone()
    };
    match (o.adders, o.mults) {
        (None, None) => req,
        (a, m) => {
            // A partially explicit constraint completes from the default
            // the source would resolve to.
            let d = req
                .resolve()
                .map(|(_, rc)| rc)
                .unwrap_or_else(|_| ResourceConstraint::new(2, 2));
            req.constraint(a.unwrap_or(d.addsub), m.unwrap_or(d.mul))
        }
    }
}

/// Renders a report to the deterministic stdout block — identical bytes
/// whether the report came from a local [`Service`] or over the wire.
fn render_report(req: &JobRequest, rep: &JobReport) -> String {
    let r = &rep.result;
    let rc = req
        .clone()
        .resolve()
        .map(|(_, rc)| rc)
        .unwrap_or_else(|_| ResourceConstraint::new(0, 0));
    format!(
        "job:      {} via {}\n\
         schedule: {} steps under (add={}, mult={})\n\
         binding:  {} add/sub + {} mult FUs, {} SA queries{}\n\
         datapath: {} registers ({} control)\n\
         mapped:   {} LUTs, depth {}, estimated SA {:.1}\n\
         muxes:    largest {}, length {}, muxDiff mean {:.2} var {:.2}\n\
         measured: {:.2} mW dynamic, {:.1} ns clock, {:.1} M toggles/s/net, {:.0}% glitches\n",
        r.name,
        r.binder,
        r.schedule_steps,
        rc.addsub,
        rc.mul,
        r.fus_addsub,
        r.fus_mul,
        r.sa_queries,
        if r.meets_constraint {
            ""
        } else {
            "  [constraint NOT met]"
        },
        r.registers,
        if req.fsm { "fsm" } else { "external" },
        r.luts,
        r.depth,
        r.estimated_sa,
        r.mux.largest,
        r.mux.length,
        r.mux.muxdiff_mean(),
        r.mux.muxdiff_variance(),
        r.power.dynamic_power_mw,
        r.power.clock_period_ns,
        r.power.avg_toggle_rate_mhz,
        r.power.glitch_fraction * 100.0,
    )
}

/// Prints the per-request stage/store accounting to stderr — the
/// observable evidence that a warm daemon or store executed nothing.
fn report_stats(rep: &JobReport) {
    eprintln!("stages: {}", rep.stats.stages);
    eprintln!("store: {}", rep.stats.store);
    // Only meaningful locally: a remote report carries no codec timings
    // (they describe the daemon's parse cost, which it keeps).
    if rep.stats.codec.total_ns() > 0 {
        eprintln!("codec: {}", rep.stats.codec);
    }
}

/// Seeds the SA cache the selected binder draws from using `--sa-table`,
/// if given. Tables with a mismatched width/LUT size/estimation mode are
/// refused (they would silently change Eq. 4 edge weights). Returns
/// whether writing back to the path is safe — a refused table belongs to
/// a different configuration and must not be clobbered.
fn load_table(o: &Options, pipeline: &hlpower::Pipeline, binder: Binder) -> bool {
    if let Some(path) = &o.sa_table {
        if let Ok(text) = std::fs::read_to_string(path) {
            match SaTable::from_text(&text) {
                Ok(t) => match pipeline.seed_sa_cache(binder, &t) {
                    Ok(stats) => {
                        eprintln!("loaded SA table `{path}`: {stats}");
                        if stats.conflicting > 0 {
                            eprintln!(
                                "warning: `{path}` disagrees with the current cache on \
                                 {} entries (cache values kept)",
                                stats.conflicting
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("ignoring SA table `{path}` and leaving it untouched: {e}");
                        return false;
                    }
                },
                Err(e) => {
                    // A corrupt file may still be mostly recoverable
                    // precomputed data — never overwrite it.
                    eprintln!("ignoring malformed SA table `{path}` and leaving it untouched: {e}");
                    return false;
                }
            }
        }
    }
    true
}

/// Persists the selected binder's SA cache back to `--sa-table`.
fn store_table(o: &Options, pipeline: &hlpower::Pipeline, binder: Binder) {
    if let Some(path) = &o.sa_table {
        let table = pipeline.sa_snapshot(binder);
        if let Err(e) = std::fs::write(path, table.to_text()) {
            eprintln!("cannot write SA table `{path}`: {e}");
        } else {
            eprintln!("saved SA table `{path}` ({} entries)", table.len());
        }
    }
}

/// Opens the artifact store a `--store` spec names (a directory, or
/// `remote:ADDR` for a daemon's hot store), exiting with a message on
/// failure. `role` names the store in the error.
fn open_store_or_die(spec: &str, role: &str) -> ArtifactStore {
    ArtifactStore::open_spec(spec)
        .unwrap_or_else(|e| die(format!("cannot open {role} `{spec}`: {e}")))
}

/// Executes a `run`/`bench` request — remotely over `--remote`, else on
/// a local service — and renders the one true report block.
fn run_job(o: &Options, source: JobSource) {
    let req = request_of(o, source);
    if let Some(addr) = &o.remote {
        for (flag, given) in [
            ("--vhdl", o.vhdl.is_some()),
            ("--blif", o.blif.is_some()),
            ("--dot", o.dot.is_some()),
            ("--sa-table", o.sa_table.is_some()),
            ("--store", o.store.is_some()),
        ] {
            if given {
                eprintln!(
                    "hlp: {flag} is local-only and cannot combine with --remote \
                     (the daemon holds its own store and artifacts stay server-side)"
                );
                usage();
            }
        }
        let endpoint = Endpoint::parse(addr);
        let rep = api::request(&endpoint, &req).unwrap_or_else(|e| die(e));
        print!("{}", render_report(&req, &rep));
        report_stats(&rep);
        return;
    }
    let service = match &o.store {
        Some(dir) => Service::new().with_store(Arc::new(open_store_or_die(dir, "artifact store"))),
        None => Service::new(),
    };
    let binder = req.binder;
    let pipeline = service.pipeline(&req);
    let storable = load_table(o, &pipeline, binder);
    let rep = service.execute(&req).unwrap_or_else(|e| die(e));
    if storable {
        store_table(o, &pipeline, binder);
    }
    print!("{}", render_report(&req, &rep));
    report_stats(&rep);
    if o.vhdl.is_some() || o.blif.is_some() || o.dot.is_some() {
        write_exports(o, &req, &pipeline);
    }
}

/// Writes the `--vhdl`/`--blif`/`--dot` exports of a job that has just
/// run. The pipeline still holds the job's prepared schedule and
/// register binding, and a warm re-bind is cheap (0.1–5.2 ms per suite
/// benchmark at the paper configuration, `BENCH_bind.json`), so the
/// exports bind again rather than keep a second copy of
/// `Service::execute`.
fn write_exports(o: &Options, req: &JobRequest, pipeline: &hlpower::Pipeline) {
    let (g, rc) = req.resolve().unwrap_or_else(|e| die(e));
    let prep = pipeline.prepare(&g, &rc);
    let outcome = pipeline.bind(&prep, req.binder);
    let cfg = pipeline.config();
    let dp = hlpower::elaborate(
        &g,
        &prep.sched,
        &prep.rb,
        &outcome.fb,
        &hlpower::DatapathConfig {
            width: cfg.width,
            control: cfg.control,
        },
    );
    if let Some(path) = &o.vhdl {
        write_or_die(path, &hlpower::write_vhdl(&dp));
    }
    if let Some(path) = &o.blif {
        write_or_die(path, &netlist::write_blif(&dp.netlist));
    }
    if let Some(path) = &o.dot {
        write_or_die(path, &cdfg::to_dot(&g, Some(&prep.sched)));
    }
}

fn write_or_die(path: &str, content: &str) {
    match std::fs::write(path, content) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => die(format!("cannot write `{path}`: {e}")),
    }
}

/// `hlp serve`: bind the endpoint, then answer request lines (jobs and
/// artifact `store` verbs) until a graceful stop; `hlp serve --stop`
/// asks a running daemon to shut down.
fn serve(args: &[String]) -> ! {
    let mut socket: Option<String> = None;
    let mut port: Option<u16> = None;
    let mut store: Option<String> = None;
    let mut stop = false;
    let mut stats = false;
    let mut fsck_status = false;
    let mut opts = ServeOptions {
        log: true,
        handle_signals: true,
        ..ServeOptions::default()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| take_value(args, i, &flag);
        match flag.as_str() {
            "--socket" => socket = Some(value(&mut i)),
            "--port" => port = Some(parsed(&flag, &value(&mut i), "a port number")),
            "--store" => store = Some(value(&mut i)),
            "--stop" => stop = true,
            "--stats" => stats = true,
            "--fsck-status" => fsck_status = true,
            "--max-clients" => {
                let v = value(&mut i);
                opts.max_clients = parsed(&flag, &v, "a positive integer");
                if opts.max_clients == 0 {
                    bad_value(&flag, &v, "a positive integer");
                }
            }
            "--workers" => {
                let v = value(&mut i);
                opts.workers = parsed(&flag, &v, "a positive integer");
                if opts.workers == 0 {
                    bad_value(&flag, &v, "a positive integer");
                }
            }
            "--queue-depth" => {
                opts.queue_depth = parsed(&flag, &value(&mut i), "an integer");
            }
            "--flush-every" => {
                let secs: u64 = parsed(&flag, &value(&mut i), "a number of seconds (0 disables)");
                opts.flush_every = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs))
                };
            }
            other => {
                eprintln!("hlp serve: unknown flag `{other}`");
                usage()
            }
        }
        i += 1;
    }
    let endpoint = match (socket, port) {
        (Some(path), None) => Endpoint::Unix(path.into()),
        (None, Some(port)) => Endpoint::Tcp(format!("127.0.0.1:{port}")),
        _ => {
            eprintln!("hlp serve: exactly one of --socket PATH or --port N is required");
            usage()
        }
    };
    if usize::from(stop) + usize::from(stats) + usize::from(fsck_status) > 1 {
        eprintln!("hlp serve: --stop, --stats and --fsck-status are mutually exclusive");
        usage();
    }
    if stop {
        if store.is_some() {
            eprintln!("hlp serve: --stop takes only the endpoint to stop");
            usage();
        }
        match api::stop_daemon(&endpoint) {
            Ok(()) => {
                eprintln!("hlp serve: daemon at `{endpoint}` is stopping");
                exit(0)
            }
            Err(e) => die(format!("cannot stop daemon at `{endpoint}`: {e}")),
        }
    }
    if stats {
        // The snapshot is re-rendered through the same codec it crossed
        // the wire in, so scraping `hlp serve --stats` and speaking
        // `control stats` directly see identical bytes.
        match api::fetch_stats(&endpoint) {
            Ok(snapshot) => {
                print!("{}", snapshot.to_text());
                exit(0)
            }
            Err(e) => die(format!("cannot fetch stats from `{endpoint}`: {e}")),
        }
    }
    if fsck_status {
        match api::fetch_fsck_status(&endpoint) {
            Ok(status) => {
                print!("{}", status.to_text());
                exit(0)
            }
            Err(e) => die(format!("cannot fetch fsck status from `{endpoint}`: {e}")),
        }
    }
    let service = match &store {
        Some(spec) => {
            Service::new().with_store(Arc::new(open_store_or_die(spec, "artifact store")))
        }
        None => Service::new(),
    };
    let server =
        Server::bind(&endpoint).unwrap_or_else(|e| die(format!("cannot bind `{endpoint}`: {e}")));
    eprintln!(
        "hlp serve: listening on {endpoint}{} (at most {} client(s), {} queued, {} worker(s))",
        match &store {
            Some(spec) => format!(" (hot store `{spec}`)"),
            None => " (no store: every request recomputes)".to_string(),
        },
        opts.max_clients,
        opts.queue_depth,
        opts.effective_workers(),
    );
    match server.serve_with(Arc::new(service), opts) {
        Ok(()) => {
            eprintln!("hlp serve: stopped");
            exit(0)
        }
        Err(e) => die(format!("serve failed: {e}")),
    }
}

/// `hlp batch`: parse every request line in FILE (or stdin), ship them
/// to a daemon as one `batch N` frame, and render the reports in
/// request order — stdout is byte-identical to running the same lines
/// sequentially, the round-trip count is 1 instead of N, and the daemon
/// starts the jobs in request order across its worker pool. A job that
/// fails is named on stderr and the others still print (exit 1).
fn batch(args: &[String]) -> ! {
    let mut remote: Option<String> = None;
    let mut file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        match flag.as_str() {
            "--remote" => remote = Some(take_value(args, &mut i, &flag)),
            other if other.starts_with("--") => {
                eprintln!("hlp batch: unknown flag `{other}`");
                usage()
            }
            operand => {
                if file.is_some() {
                    eprintln!("hlp batch: more than one input file");
                    usage()
                }
                file = Some(operand.to_string());
            }
        }
        i += 1;
    }
    let Some(addr) = remote else {
        eprintln!("hlp batch: --remote ADDR is required (batches execute on a daemon)");
        usage()
    };
    let text = match file.as_deref() {
        Some(path) if path != "-" => std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("cannot read `{path}`: {e}"))),
        _ => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)
                .unwrap_or_else(|e| die(format!("cannot read stdin: {e}")));
            s
        }
    };
    // Parse locally so a typo names the offending line here instead of
    // surfacing as a mid-batch daemon rejection.
    let mut reqs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match JobRequest::parse_line(line) {
            Ok(req) => reqs.push(req),
            Err(e) => die(format!("bad request line {}: {e}", lineno + 1)),
        }
    }
    if reqs.is_empty() {
        die("no request lines to batch");
    }
    let endpoint = Endpoint::parse(&addr);
    let replies = api::request_batch(&endpoint, &reqs).unwrap_or_else(|e| die(e));
    let mut failed = false;
    for (req, reply) in reqs.iter().zip(&replies) {
        match reply {
            Ok(rep) => {
                print!("{}", render_report(req, rep));
                report_stats(rep);
            }
            Err(e) => {
                eprintln!("hlp batch: job `{}` failed: {e}", req.to_line());
                failed = true;
            }
        }
    }
    exit(i32::from(failed))
}

/// Audits one file for `hlp check`, dispatching on what it holds:
/// `.blif` and `.cdfg` sources parse and run their semantic checker;
/// everything else is sniffed — binary store artifacts and netlists,
/// exact netlist text, SA-table files — and audited like `hlp fsck`
/// would.
fn check_one(path: &str) -> Result<String, String> {
    let data = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    if path.ends_with(".blif") {
        let text =
            String::from_utf8(data).map_err(|_| "BLIF file is not UTF-8 text".to_string())?;
        let file = netlist::parse_blif(&text).map_err(|e| format!("BLIF parse: {e}"))?;
        // Flattening itself refuses combinational loops and dangling
        // nets; whatever it accepts still gets the exhaustive checker.
        let nl = file
            .flatten(None, &[])
            .map_err(|e| format!("BLIF elaboration: {e}"))?;
        hlpower::checked_netlist(&nl, "BLIF netlist")
    } else if path.ends_with(".cdfg") {
        let text =
            String::from_utf8(data).map_err(|_| "CDFG file is not UTF-8 text".to_string())?;
        let (g, _sched) = cdfg::parse_cdfg(&text).map_err(|e| format!("CDFG parse: {e}"))?;
        let report = cdfg::check_cdfg(&g);
        if report.is_clean() {
            Ok(format!("CDFG: {} op(s) checked", report.checked_ops))
        } else {
            let first = report
                .violations
                .iter()
                .find(|v| v.is_error())
                .expect("unclean report has an error");
            Err(format!(
                "CDFG fails semantic check ({} error(s); first: {first})",
                report.errors()
            ))
        }
    } else {
        hlpower::audit_artifact_auto(&data)
    }
}

/// Repairs one bare netlist file in place for `hlp check --fix`: the
/// original is kept at `FILE.bak` and the fix must re-audit clean
/// before the file is rewritten. Source files (`.blif`/`.cdfg`) are
/// check-only, and store artifacts are refused
/// ([`hlpower::fix_artifact_auto`]).
fn fix_one(path: &str) -> Result<String, String> {
    if path.ends_with(".blif") || path.ends_with(".cdfg") {
        // Sources are authored, not derived; a mechanical rewrite of
        // them would edit the user's input. Check only.
        return check_one(path).map(|s| format!("{s} (source file, check only)"));
    }
    let data = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    match hlpower::fix_artifact_auto(&data) {
        hlpower::FixVerdict::Clean(summary) => Ok(format!("{summary} (no fix needed)")),
        hlpower::FixVerdict::Fixed {
            bytes,
            applied,
            passes,
            summary,
        } => {
            let backup = format!("{path}.bak");
            std::fs::write(&backup, &data)
                .map_err(|e| format!("cannot back up original to `{backup}`: {e}"))?;
            std::fs::write(path, &bytes).map_err(|e| format!("cannot rewrite: {e}"))?;
            Ok(format!(
                "fixed ({applied} edit(s), {passes} pass(es)); {summary}; original at {backup}"
            ))
        }
        hlpower::FixVerdict::Unfixable(problem) => Err(problem),
    }
}

/// `hlp check [--fix] FILE...`: static checking of netlists, CDFGs, and
/// store artifacts, one verdict line per file. Exit 1 when any file
/// fails. `--fix` mechanically repairs bare netlist files in place
/// (original kept at `FILE.bak`).
fn check_files(args: &[String]) {
    let fix = args.iter().any(|a| a == "--fix");
    let files: Vec<&String> = args.iter().filter(|a| *a != "--fix").collect();
    if files.is_empty() {
        eprintln!("hlp check: at least one file argument is required");
        usage()
    }
    let mut failed = 0usize;
    for path in files.iter() {
        let verdict = if fix { fix_one(path) } else { check_one(path) };
        match verdict {
            Ok(summary) => println!("ok: {path}: {summary}"),
            Err(problem) => {
                println!("bad: {path}: {problem}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("hlp check: {failed} of {} file(s) failed", files.len());
        exit(1);
    }
}

/// `hlp fsck`: audit every artifact in a store — incrementally, via the
/// persisted audit watermarks — optionally quarantining defects
/// (`--repair`) so the next run recomputes them. Exit 1 when any
/// artifact fails. Remote stores are audited in place by their daemon:
/// verdicts cross the wire, bodies do not.
fn fsck(args: &[String]) {
    let mut store: Option<String> = None;
    let mut repair = false;
    let mut full = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        match flag.as_str() {
            "--store" => store = Some(take_value(args, &mut i, &flag)),
            "--repair" => repair = true,
            "--full" => full = true,
            other => {
                eprintln!("hlp fsck: unknown flag `{other}`");
                usage()
            }
        }
        i += 1;
    }
    let Some(spec) = store else {
        eprintln!("hlp fsck: --store DIR|remote:ADDR is required");
        usage()
    };
    // Strict open for directories: fsck must never materialize an empty
    // store at a mistyped path (and then report it clean).
    let store = if spec.starts_with("remote:") {
        ArtifactStore::open_spec(&spec)
            .unwrap_or_else(|e| die(format!("cannot reach remote store: {e}")))
    } else {
        ArtifactStore::open_existing(&spec)
            .unwrap_or_else(|e| die(format!("cannot open artifact store: {e}")))
    };
    let report = store
        .fsck_with(&hlpower::FsckOptions { repair, full })
        .unwrap_or_else(|e| die(format!("fsck of `{spec}` failed: {e}")));
    println!("{report}");
    if !report.is_clean() {
        exit(1);
    }
}

/// `hlp gc`: per-kind size accounting, optional age/size pruning.
fn gc(args: &[String]) {
    let mut store: Option<String> = None;
    let mut policy = GcPolicy::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| take_value(args, i, &flag);
        match flag.as_str() {
            "--store" => store = Some(value(&mut i)),
            "--max-age-days" => {
                let v = value(&mut i);
                let days: f64 = parsed(&flag, &v, "a number of days");
                // try_from_secs_f64 rejects NaN, negatives, infinities,
                // and out-of-range magnitudes in one place — a huge value
                // must be a flag diagnostic (exit 2), never a panic.
                policy.max_age = Some(
                    std::time::Duration::try_from_secs_f64(days * 86_400.0).unwrap_or_else(|_| {
                        bad_value(&flag, &v, "a finite, non-negative number of days")
                    }),
                );
            }
            "--max-bytes" => {
                policy.max_bytes = Some(parsed(&flag, &value(&mut i), "a byte count"));
            }
            other => {
                eprintln!("hlp gc: unknown flag `{other}`");
                usage()
            }
        }
        i += 1;
    }
    let Some(dir) = store else {
        eprintln!("hlp gc: --store DIR is required");
        usage()
    };
    if dir.starts_with("remote:") {
        // Size accounting and pruning walk the filesystem holding the
        // bytes; a remote handle cannot (and must not) do either.
        eprintln!(
            "hlp gc: gc is local-only; run it on the daemon host against its store directory"
        );
        usage()
    }
    // gc must never silently materialize an empty store at a mistyped
    // path, so it opens strictly.
    let store = ArtifactStore::open_existing(&dir)
        .unwrap_or_else(|e| die(format!("cannot open artifact store: {e}")));
    let usage_before = store
        .usage()
        .unwrap_or_else(|e| die(format!("cannot size `{dir}`: {e}")));
    println!("{usage_before}");
    if policy.max_age.is_none() && policy.max_bytes.is_none() {
        return;
    }
    let report = store
        .gc(&policy)
        .unwrap_or_else(|e| die(format!("gc of `{dir}` failed: {e}")));
    println!("gc: {report}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else { usage() };
    match command.as_str() {
        "run" => {
            let Some(path) = argv.get(1) else {
                eprintln!("hlp run: missing CDFG file argument");
                usage()
            };
            let o = parse_options(&argv[2..]);
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read `{path}`: {e}")));
            // Parse locally even for --remote so syntax errors name the
            // file instead of surfacing as daemon rejections.
            cdfg::parse_cdfg(&text)
                .unwrap_or_else(|e| die(format!("parse error in `{path}`: {e}")));
            run_job(&o, JobSource::CdfgText(text));
        }
        "bench" => {
            let Some(name) = argv.get(1) else {
                eprintln!("hlp bench: missing benchmark name (try `hlp suite`)");
                usage()
            };
            if cdfg::profile(name).is_none() {
                eprintln!(
                    "hlp: invalid value `{name}` for bench: expected a benchmark from `hlp suite`"
                );
                usage();
            }
            let o = parse_options(&argv[2..]);
            run_job(&o, JobSource::Suite(name.clone()));
        }
        "serve" => serve(&argv[1..]),
        "batch" => batch(&argv[1..]),
        "check" => check_files(&argv[1..]),
        "fsck" => fsck(&argv[1..]),
        "gc" => gc(&argv[1..]),
        "table" => {
            let Some(out) = argv.get(1) else {
                eprintln!("hlp table: missing output path argument");
                usage()
            };
            let o = parse_options(&argv[2..]);
            if o.req.sa_mode == SaMode::Dynamic {
                // Dynamic mode is a run/bench ablation (uncached
                // estimation); it never memoizes, so there is nothing to
                // precompute into a file.
                eprintln!("--sa-mode dynamic never memoizes, so there is no table to store");
                usage();
            }
            let mut table = SaTable::new(o.req.sa_width, 4).with_mode(o.req.sa_mode);
            eprintln!(
                "precomputing SA table up to 8x8 muxes (width {}, mode {})...",
                table.width(),
                o.req.sa_mode.name()
            );
            table.precompute(8);
            write_or_die(out, &table.to_text());
            // With --store, the precomputed entries also land in the
            // store's SA shard, so later --store runs start warm.
            if let Some(dir) = &o.store {
                let store = open_store_or_die(dir, "artifact store");
                let stats = store.merge_sa_table(&table);
                eprintln!("merged into store `{dir}`: {stats}");
            }
        }
        "merge" => {
            // Fan-in of a sharded run: union every source store into the
            // destination. Content-addressed artifacts copy over (byte
            // conflicts are reported, destination wins); SA shards merge
            // entry-wise with conflict accounting.
            let Some(dst) = argv.get(1) else {
                eprintln!("hlp merge: missing destination store argument");
                usage()
            };
            if argv.len() < 3 {
                eprintln!("merge needs at least one source store");
                usage();
            }
            let dst_store = open_store_or_die(dst, "destination store");
            let mut failed = false;
            for src in &argv[2..] {
                // Sources are read-only inputs: a mistyped path must fail
                // loudly, never be created (or half-planted inside some
                // existing directory) as an empty store.
                let src_store = ArtifactStore::open_existing(src)
                    .unwrap_or_else(|e| die(format!("cannot open source store: {e}")));
                match dst_store.merge_from(&src_store) {
                    Ok(report) => {
                        println!("merged `{src}` into `{dst}`: {report}");
                        if report.conflicting > 0 || report.sa.conflicting > 0 {
                            eprintln!(
                                "warning: `{src}` conflicts with `{dst}` \
                                 ({} artifact(s), {} SA entries) — destination values kept",
                                report.conflicting, report.sa.conflicting
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("merging `{src}` into `{dst}` failed: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                exit(1);
            }
        }
        "suite" => {
            if argv.get(1).map(String::as_str) == Some("--requests") {
                // Machine-readable: one canonical request line per
                // benchmark, with the paper constraint made explicit, so
                // scripts can edit knobs and pipe lines straight to a
                // daemon socket without scraping the human table.
                for p in &cdfg::PROFILES {
                    let rc = hlpower::paper_constraint(p.name).expect("suite constraint");
                    println!(
                        "{}",
                        JobRequest::suite(p.name)
                            .constraint(rc.addsub, rc.mul)
                            .to_line()
                    );
                }
                return;
            }
            if let Some(flag) = argv.get(1) {
                eprintln!("hlp suite: unknown flag `{flag}` (did you mean --requests?)");
                usage();
            }
            println!("built-in benchmarks (paper Table 1):");
            for p in &cdfg::PROFILES {
                let rc = hlpower::paper_constraint(p.name).expect("suite constraint");
                println!(
                    "  {:6}  {:3} PIs {:3} POs {:4} adds {:4} mults  (constraint add={} mult={})",
                    p.name, p.pis, p.pos, p.adds, p.muls, rc.addsub, rc.mul
                );
            }
        }
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
