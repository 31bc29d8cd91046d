//! Acceptance tests for the event-driven daemon rearchitecture:
//!
//! * a `batch N` frame's replies are byte-identical to N sequential
//!   requests (and to local execution), and a warm batch executes zero
//!   schedule/map/simulate stages;
//! * oversize and empty batch frames are refused protocol-clean (the
//!   error names the batch cap; an empty frame leaves the connection
//!   serviceable);
//! * a first job whose own error mentions "batch" is that job's error,
//!   not a refusal of the frame, while refused frames (oversize, empty,
//!   malformed header) are one error that starts with `BATCH_REFUSED`;
//! * `control stats` counters reconcile with the requests actually
//!   made, verb by verb, including batch accounting;
//! * a `store fsck` sweep over the wire surfaces in
//!   `control fsck-status` and inside the `control stats` block;
//! * a request with a zero-unit constraint, zero simulated cycles, or
//!   an op-less inline CDFG gets an `error` reply, steam under FSM
//!   control gets a full report, and a one-worker daemon still answers
//!   the next job.
//!
//! Admission control (park-with-`busy`, promotion after drain,
//! zero-depth rejection) is covered in `remote_store.rs` alongside the
//! other socket-level hardening tests.

#![cfg(unix)]

use hlpower::api::{self, Endpoint, JobReport, JobRequest, Server, Service};
use hlpower::{ArtifactStore, ServeOptions, StageCounts, StoreCounts};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "hlpower-daemon-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A daemon under test: serving thread + the endpoint to reach it.
struct Daemon {
    endpoint: Endpoint,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(socket: &std::path::Path, store_dir: &std::path::Path, opts: ServeOptions) -> Daemon {
        let service =
            Arc::new(Service::new().with_store(Arc::new(ArtifactStore::open(store_dir).unwrap())));
        let server = Server::bind(&Endpoint::Unix(socket.to_path_buf())).unwrap();
        let handle = std::thread::spawn(move || server.serve_with(service, opts));
        Daemon {
            endpoint: Endpoint::Unix(socket.to_path_buf()),
            handle,
        }
    }

    fn stop(self) {
        api::stop_daemon(&self.endpoint).unwrap();
        self.handle
            .join()
            .expect("serve thread must not panic")
            .expect("graceful stop exits Ok");
        if let Endpoint::Unix(path) = &self.endpoint {
            assert!(!path.exists(), "graceful stop unlinks the socket file");
        }
    }
}

fn fast_request(name: &str) -> JobRequest {
    JobRequest::suite(name).width(4).sa_width(4).cycles(100)
}

/// The deterministic payload of a report — everything except the
/// per-request stats attribution.
fn result_text(report: &JobReport) -> String {
    JobReport {
        result: report.result.clone(),
        stats: Default::default(),
    }
    .to_text()
}

#[test]
fn batch_replies_match_sequential_requests_and_warm_batches_skip_stages() {
    let store_dir = temp_path("batch-store");
    let socket = temp_path("batch-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    let reqs = vec![
        fast_request("wang"),
        fast_request("pr"),
        fast_request("wang").width(5),
        fast_request("chem"),
    ];

    // Sequential round-trips first (cold: these populate the store).
    let sequential: Vec<JobReport> = reqs
        .iter()
        .map(|r| api::request(&daemon.endpoint, r).unwrap())
        .collect();

    // One batched round-trip with the same jobs: same payloads, in
    // request order, regardless of how the scheduler fanned them out.
    let batch = api::request_batch(&daemon.endpoint, &reqs).unwrap();
    assert_eq!(batch.len(), reqs.len());
    for (seq, bat) in sequential.iter().zip(&batch) {
        let bat = bat.as_ref().expect("batched job succeeds");
        assert_eq!(result_text(seq), result_text(bat));
    }

    // And identical to local execution: the wire adds nothing.
    for (req, bat) in reqs.iter().zip(&batch) {
        let local = Service::new().execute(req).unwrap();
        assert_eq!(result_text(&local), result_text(bat.as_ref().unwrap()));
    }

    // The store is warm now: a second batch must execute zero expensive
    // stages — every report is assembled from store hits. Each report is
    // its own job's ledger, exact although the jobs run concurrently:
    // one FU binding, one netlist hit and one simulation hit (the
    // prepared artifacts are already in the daemon's pipelines).
    let warm = api::request_batch(&daemon.endpoint, &reqs).unwrap();
    for rep in &warm {
        let stats = rep.as_ref().unwrap().stats;
        let fu_binding = StageCounts {
            fu_bindings: 1,
            ..StageCounts::default()
        };
        let hits = StoreCounts {
            netlist_hits: 1,
            sim_hits: 1,
            ..StoreCounts::default()
        };
        assert_eq!(stats.stages, fu_binding, "warm batch must only re-bind");
        assert_eq!(stats.store, hits, "warm batch must be all store hits");
    }

    // Failures ride inside the frame without disturbing their
    // neighbours' replies.
    let mixed = vec![fast_request("wang"), JobRequest::suite("nope")];
    let replies = api::request_batch(&daemon.endpoint, &mixed).unwrap();
    assert!(replies[0].is_ok());
    assert!(replies[1].is_err());

    daemon.stop();
}

#[test]
fn oversize_and_empty_batch_frames_are_refused_protocol_clean() {
    let store_dir = temp_path("cap-store");
    let socket = temp_path("cap-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    // A frame claiming more jobs than the daemon cap is refused at the
    // header — before any job line is read — with an error naming the
    // batch cap.
    let conn = UnixStream::connect(&socket).unwrap();
    {
        let mut writer = &conn;
        writer.write_all(b"batch 100000\n").unwrap();
        writer.flush().unwrap();
    }
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error ") && line.contains("batch"),
        "got `{line}`"
    );

    // An empty frame is refused too, but the connection stays
    // serviceable: the next request on it is answered normally.
    let conn = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(&conn);
    {
        let mut writer = &conn;
        writer.write_all(b"batch 0\n").unwrap();
        writer.flush().unwrap();
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error ") && line.contains("batch"),
        "got `{line}`"
    );
    {
        let mut writer = &conn;
        writer.write_all(b"store stat prepared 0\n").unwrap();
        writer.flush().unwrap();
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "absent");

    // The typed client surfaces a refused frame as one error, not N.
    let too_many: Vec<JobRequest> = (0..api::MAX_BATCH_JOBS + 1)
        .map(|_| fast_request("wang"))
        .collect();
    let err = api::request_batch(&daemon.endpoint, &too_many).unwrap_err();
    assert!(err.to_string().contains("batch"), "got `{err}`");

    daemon.stop();
}

#[test]
fn a_first_job_error_naming_batch_is_a_job_error_not_a_frame_refusal() {
    let store_dir = temp_path("job-err-store");
    let socket = temp_path("job-err-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    // The first job fails with `unknown benchmark `batch``: that is its
    // own reply, and the job after it is still answered.
    let reqs = vec![JobRequest::suite("batch"), fast_request("wang")];
    let replies = api::request_batch(&daemon.endpoint, &reqs).unwrap();
    assert_eq!(replies.len(), 2);
    let err = replies[0].as_ref().unwrap_err().to_string();
    assert!(err.contains("unknown benchmark `batch`"), "got `{err}`");
    let local = Service::new().execute(&reqs[1]).unwrap();
    assert_eq!(
        result_text(&local),
        result_text(replies[1].as_ref().unwrap())
    );

    // Frame refusals are still one error each, and say so up front.
    let too_many: Vec<JobRequest> = (0..api::MAX_BATCH_JOBS + 1)
        .map(|_| fast_request("wang"))
        .collect();
    for frame in [&too_many[..], &[]] {
        let err = api::request_batch(&daemon.endpoint, frame).unwrap_err();
        assert!(
            matches!(&err, api::RequestError::Remote(msg) if msg.starts_with(api::BATCH_REFUSED)),
            "got `{err}`"
        );
    }
    let conn = UnixStream::connect(&socket).unwrap();
    (&conn).write_all(b"batch two\n").unwrap();
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line).unwrap();
    assert!(
        line.starts_with(&format!("error {}", api::escape(api::BATCH_REFUSED))),
        "got `{line}`"
    );

    daemon.stop();
}

#[test]
fn control_stats_counters_reconcile_with_the_requests_made() {
    let store_dir = temp_path("stats-store");
    let socket = temp_path("stats-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    // Three job requests, one store verb, then a snapshot.
    for _ in 0..3 {
        api::request(&daemon.endpoint, &fast_request("wang")).unwrap();
    }
    let conn = UnixStream::connect(&socket).unwrap();
    {
        let mut writer = &conn;
        writer.write_all(b"store stat prepared 0\n").unwrap();
        writer.flush().unwrap();
    }
    let mut line = String::new();
    BufReader::new(&conn).read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "absent");

    let s = api::fetch_stats(&daemon.endpoint).unwrap();
    let verb = |name: &str| {
        let i = api::STAT_VERBS.iter().position(|v| *v == name).unwrap();
        &s.verbs[i]
    };
    assert_eq!(verb("job").requests, 3, "{s:?}");
    assert_eq!(verb("job").errors, 0);
    assert!(verb("job").bytes_out > 0);
    // Every request lands in exactly one latency bucket.
    assert_eq!(verb("job").latency.iter().sum::<u64>(), 3);
    assert_eq!(verb("store").requests, 1);
    // The snapshot request records itself before rendering.
    assert!(verb("control").requests >= 1);
    assert_eq!(s.batches, 0);
    assert!(s.conns_accepted >= 5);

    // Batch accounting: one frame, two jobs.
    let reqs = vec![fast_request("wang"), fast_request("pr")];
    api::request_batch(&daemon.endpoint, &reqs).unwrap();
    let s = api::fetch_stats(&daemon.endpoint).unwrap();
    let batch_i = api::STAT_VERBS.iter().position(|v| *v == "batch").unwrap();
    assert_eq!(s.verbs[batch_i].requests, 1);
    assert_eq!(s.batches, 1);
    assert_eq!(s.batch_jobs, 2);
    assert_eq!(s.batch_largest, 2);
    // The warm store answered those batch jobs from cache.
    assert!(s.store_hits > 0, "{s:?}");

    daemon.stop();
}

#[test]
fn a_zero_unit_constraint_is_refused_and_the_only_worker_keeps_serving() {
    let store_dir = temp_path("zero-store");
    let socket = temp_path("zero-sock");
    let opts = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let daemon = Daemon::start(&socket, &store_dir, opts);

    // Raw round-trips with a read timeout, so a dead worker fails the
    // test instead of hanging it. Returns the reply's lines, `busy`
    // advice skipped.
    let round_trip = |req: &JobRequest| -> Vec<String> {
        let conn = UnixStream::connect(&socket).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        (&conn)
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(&conn).lines() {
            let line = line.expect("the daemon answers before the timeout");
            if line.starts_with("busy") {
                continue;
            }
            let last = line.starts_with("error ") || line == "end";
            lines.push(line);
            if last {
                break;
            }
        }
        lines
    };

    // Each of these would panic the worker inside the flow: a class
    // with no units, an inline CDFG with no operations (zero schedule
    // steps), and zero simulated cycles (the power model's divisor).
    let opless = JobRequest::from_cdfg_text("cdfg t\ninput a\noutput a\n")
        .width(4)
        .cycles(10);
    for (poison, names) in [
        (fast_request("pr").constraint(0, 0), "constraint"),
        (opless, "operations"),
        (fast_request("wang").cycles(0), "cycle"),
    ] {
        let refused = round_trip(&poison);
        assert!(
            refused.len() == 1 && refused[0].starts_with("error ") && refused[0].contains(names),
            "{refused:?}"
        );
    }
    // steam's FSM control ROMs span 7 state bits, which the mapper can
    // cover only as 4-input nodes; an uncoverable node panics a worker.
    let steam_fsm = round_trip(&fast_request("steam").fsm(true).cycles(20));
    assert_eq!(
        steam_fsm.last().map(String::as_str),
        Some("end"),
        "{steam_fsm:?}"
    );
    // The one worker survived: the next job is answered in full.
    let answered = round_trip(&fast_request("wang"));
    assert_eq!(
        answered.first().map(String::as_str),
        Some("# hlpower report v1")
    );
    assert_eq!(answered.last().map(String::as_str), Some("end"));
    // The typed client surfaces the refusal as an error.
    assert!(api::request(&daemon.endpoint, &fast_request("pr").constraint(1, 0)).is_err());

    daemon.stop();
}

#[test]
fn a_wire_fsck_sweep_surfaces_in_fsck_status_and_stats() {
    let store_dir = temp_path("fsck-store");
    let socket = temp_path("fsck-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    // Nothing audited yet.
    let before = api::fetch_fsck_status(&daemon.endpoint).unwrap();
    assert_eq!(before.runs, 0);

    // Populate the store, then audit it over the wire.
    api::request(&daemon.endpoint, &fast_request("wang")).unwrap();
    let conn = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(&conn);
    {
        let mut writer = &conn;
        writer.write_all(b"store fsck off full\n").unwrap();
        writer.flush().unwrap();
    }
    let done = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "mid-fsck EOF");
        if line.starts_with("done ") {
            break line.trim_end().to_string();
        }
        assert!(line.starts_with("bad "), "unexpected fsck line `{line}`");
    };

    // The sweep's counters are now exposed to monitoring, and they
    // agree with the wire reply's `done` line.
    let status = api::fetch_fsck_status(&daemon.endpoint).unwrap();
    assert_eq!(status.runs, 1);
    assert_eq!(
        done,
        format!(
            "done {} {} {} {}",
            status.scanned, status.skipped_unchanged, status.issues, status.quarantined
        )
    );
    assert!(status.scanned > 0, "a populated store scans something");

    // And the same counters ride inside the full stats block.
    let s = api::fetch_stats(&daemon.endpoint).unwrap();
    assert_eq!(s.fsck.runs, 1);
    assert_eq!(s.fsck.scanned, status.scanned);

    daemon.stop();
}
