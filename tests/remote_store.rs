//! Acceptance tests for the remote artifact-store backend and the
//! daemon's operability hardening:
//!
//! * artifact `get`/`put`/`stat` verbs round-trip through a daemon and
//!   land in its local store directory, byte for byte;
//! * a warm run against `--store remote:ADDR` executes **zero**
//!   schedule/map/simulate stages and reproduces a local `--store` run
//!   byte-identically;
//! * two concurrent clients share one daemon's hot store;
//! * a daemon stopped and restarted mid-matrix resumes from the
//!   persisted store (clients re-dial transparently);
//! * oversize request lines are answered with an `error` line and the
//!   connection stays protocol-aligned (no unbounded buffering);
//! * connections beyond `--max-clients` are rejected politely;
//! * binding over a live daemon's socket is refused; stale socket
//!   files are cleaned up;
//! * `store fsck` audits the daemon's slots in place — only verdict
//!   lines cross the wire, repairs quarantine daemon-side, and warm
//!   watermarks short-circuit the re-audit;
//! * a corrupt `put-sa` body is refused with a protocol-clean error
//!   and never poisons the shared shard;
//! * stores are binary-only: a text-encoded body sent with `store put`
//!   or `store put-sa` is refused with a protocol-clean error and the
//!   connection stays aligned;
//! * fsck runs concurrently with a live put stream without tripping
//!   on half-arrived state;
//! * an unknown artifact kind, and the retired `repair-fix` fsck mode,
//!   get one `error` line each on a connection that stays usable.

#![cfg(unix)]

use hlpower::api::{self, Endpoint, JobReport, JobRequest, Server, Service};
use hlpower::ArtifactKind::{Prepared, Sims};
use hlpower::{
    paper_constraint, ArtifactStore, Binder, FlowConfig, FsckOptions, Pipeline, SaMode, SaTable,
    ServeOptions,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, LazyLock};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "hlpower-remote-{tag}-{}-{}",
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

    /// Graceful stop: `control stop`, then join the serving thread and
    /// assert it exited cleanly and unlinked its socket.
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

fn fast_suite(names: &[&str]) -> Vec<(cdfg::Cdfg, cdfg::ResourceConstraint)> {
    names
        .iter()
        .map(|n| {
            let p = cdfg::profile(n).unwrap();
            (cdfg::generate(p, p.seed), paper_constraint(n).unwrap())
        })
        .collect()
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
fn remote_backend_round_trips_artifacts_through_the_daemon() {
    let store_dir = temp_path("rt-store");
    let socket = temp_path("rt-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    let remote = ArtifactStore::connect(&daemon.endpoint).unwrap();
    assert_eq!(remote.describe(), format!("remote:{}", socket.display()));

    // Content-addressed artifacts: put remotely, visible locally (and
    // back), byte for byte — the backend moves bytes verbatim, but the
    // daemon audits them first, so the name must be a real fingerprint
    // and the body a valid artifact of its kind.
    let name = "feedc0defeedc0defeedc0defeedc0de";
    let body: &[u8] = &VALID_SIM;
    assert!(!remote.raw_stat(Sims, name));
    remote.raw_put(Sims, name, body);
    assert!(remote.raw_stat(Sims, name));
    assert_eq!(remote.raw_get(Sims, name).as_deref(), Some(body));
    let local = ArtifactStore::open(&store_dir).unwrap();
    assert_eq!(
        local.raw_get(Sims, name).as_deref(),
        remote.raw_get(Sims, name).as_deref(),
        "remote put lands in the daemon's local store"
    );
    assert_eq!(remote.raw_list(Sims).unwrap(), vec![name]);

    // A body that fails the static audit is refused server-side and
    // never lands: garbage under a fingerprint name reads back absent.
    remote.raw_put(Sims, "deadbeefdeadbeefdeadbeefdeadbeef", b"not a summary\n");
    assert!(
        !remote.raw_stat(Sims, "deadbeefdeadbeefdeadbeefdeadbeef"),
        "daemon must reject a semantically invalid store put"
    );

    // SA shards merge server-side with absorb semantics: existing
    // entries win and conflicts are reported over the wire.
    let a = SaTable::new(4, 4);
    a.insert(cdfg::FuType::AddSub, 1, 1, 2.0);
    let s = remote.merge_sa_table(&a);
    assert_eq!((s.inserted, s.conflicting), (1, 0));
    let b = SaTable::new(4, 4);
    b.insert(cdfg::FuType::AddSub, 1, 1, 9.0); // conflicts
    b.insert(cdfg::FuType::Mul, 2, 2, 5.0); // new
    let s = remote.merge_sa_table(&b);
    assert_eq!((s.inserted, s.matched, s.conflicting), (1, 0, 1));
    let shard = remote.load_sa_table(SaMode::Precalculated, 4, 4).unwrap();
    assert_eq!(shard.len(), 2);
    assert_eq!(shard.lookup(cdfg::FuType::AddSub, 1, 1), Some(2.0));

    // Wire-invalid names are refused server-side, read as misses.
    assert!(remote.raw_get(Sims, "../escape").is_none());

    daemon.stop();
}

#[test]
fn warm_remote_run_is_byte_identical_to_local_with_zero_executions() {
    let store_dir = temp_path("warm-store");
    let socket = temp_path("warm-sock");
    let reqs: Vec<JobRequest> = ["wang", "pr"].iter().map(|n| fast_request(n)).collect();

    // Reference: a local --store run that warms the directory.
    let local_service =
        Service::new().with_store(Arc::new(ArtifactStore::open(&store_dir).unwrap()));
    let local: Vec<JobReport> = reqs
        .iter()
        .map(|r| local_service.execute(r).unwrap())
        .collect();

    // The same requests against `remote:` of a daemon serving that
    // directory: everything is served over the wire, nothing recomputes.
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let remote_store = Arc::new(ArtifactStore::connect(&daemon.endpoint).unwrap());
    let remote_service = Service::new().with_store(remote_store.clone());
    for (req, reference) in reqs.iter().zip(&local) {
        let report = remote_service.execute(req).unwrap();
        assert_eq!(
            result_text(&report),
            result_text(reference),
            "remote-store report must be byte-identical to the local-store report"
        );
        assert_eq!(report.stats.stages.schedules, 0);
        assert_eq!(report.stats.stages.register_bindings, 0);
        assert_eq!(report.stats.stages.elaborations, 0);
        assert_eq!(report.stats.stages.mappings, 0);
        assert_eq!(report.stats.stages.simulations, 0);
    }
    let counts = remote_store.counters();
    assert!(counts.hits() > 0, "warm artifacts served over the wire");
    assert_eq!(counts.misses(), 0, "{counts:?}");
    daemon.stop();
}

#[test]
fn two_concurrent_clients_share_one_daemon_store() {
    let store_dir = temp_path("conc-store");
    let socket = temp_path("conc-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let endpoint = daemon.endpoint.clone();

    let cfg = FlowConfig::fast();
    let binders = [Binder::HlPower { alpha: 0.5 }];
    let reference =
        Pipeline::new(cfg.clone()).run_matrix(&fast_suite(&["wang", "pr"]), &binders, 2);

    // Two workers, each its own connection pool, hammering one daemon.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let endpoint = endpoint.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let store = Arc::new(ArtifactStore::connect(&endpoint).unwrap());
                Pipeline::with_store(cfg, store).run_matrix(
                    &fast_suite(&["wang", "pr"]),
                    &binders,
                    2,
                )
            })
        })
        .collect();
    for worker in workers {
        let results = worker.join().unwrap();
        for (rows, ref_rows) in results.iter().zip(&reference) {
            for (r, reference) in rows.iter().zip(ref_rows) {
                assert_eq!(r.luts, reference.luts);
                assert_eq!(r.power.total_transitions, reference.power.total_transitions);
                assert_eq!(
                    r.power.dynamic_power_mw.to_bits(),
                    reference.power.dynamic_power_mw.to_bits()
                );
            }
        }
    }

    // The daemon's store is now warm for any later client.
    let late = Pipeline::with_store(cfg, Arc::new(ArtifactStore::connect(&endpoint).unwrap()));
    late.run_matrix(&fast_suite(&["wang", "pr"]), &binders, 1);
    let stats = late.stats();
    assert_eq!(stats.stages.mappings, 0, "warmed by the concurrent clients");
    assert_eq!(stats.stages.simulations, 0);
    daemon.stop();
}

#[test]
fn daemon_restart_mid_matrix_resumes_from_the_persisted_store() {
    let store_dir = temp_path("restart-store");
    let socket = temp_path("restart-sock");
    let cfg = FlowConfig::fast();
    let binder = Binder::HlPower { alpha: 0.5 };
    let suite = fast_suite(&["wang", "pr"]);
    let reference = Pipeline::new(cfg.clone()).run_matrix(&suite, &[binder], 1);

    // Phase 1: a worker completes half the matrix, then the daemon goes
    // away (gracefully here; the store is written atomically either way).
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let endpoint = daemon.endpoint.clone();
    let survivor = Arc::new(ArtifactStore::connect(&endpoint).unwrap());
    Pipeline::with_store(cfg.clone(), survivor.clone()).run(&suite[0].0, &suite[0].1, binder);
    daemon.stop();

    // Phase 2: restart on the same socket and store; a fresh worker runs
    // the whole matrix and recomputes only the second half.
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let resumed = Pipeline::with_store(cfg, Arc::new(ArtifactStore::connect(&endpoint).unwrap()));
    let results = resumed.run_matrix(&suite, &[binder], 1);
    let stats = resumed.stats();
    assert_eq!(stats.stages.mappings, 1, "only the unfinished job maps");
    assert_eq!(stats.stages.simulations, 1);
    assert_eq!(stats.store.netlist_hits, 1, "first job served from disk");
    for (rows, ref_rows) in results.iter().zip(&reference) {
        for (r, reference) in rows.iter().zip(ref_rows) {
            assert_eq!(r.luts, reference.luts);
            assert_eq!(
                r.power.dynamic_power_mw.to_bits(),
                reference.power.dynamic_power_mw.to_bits()
            );
        }
    }

    // The phase-1 handle's pooled connection died with the old daemon;
    // its next operation re-dials transparently.
    assert!(survivor.raw_stat(Prepared, &resumed_prepared_name(&suite[0], &resumed)));
    daemon.stop();
}

/// The prepared-artifact name of a suite entry, via the pipeline's own
/// fingerprinting (so the restart test asserts against the real key).
fn resumed_prepared_name(
    entry: &(cdfg::Cdfg, cdfg::ResourceConstraint),
    pipeline: &Pipeline,
) -> String {
    pipeline.prepare(&entry.0, &entry.1).fingerprint.to_string()
}

#[test]
fn oversize_request_lines_get_an_error_and_the_connection_survives() {
    let store_dir = temp_path("cap-store");
    let socket = temp_path("cap-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = &stream;
    // 2 MiB of garbage on one line: twice the cap. The daemon must
    // answer with an error line without buffering the payload, and the
    // connection must stay protocol-aligned for the next request.
    let garbage = vec![b'x'; 2 << 20];
    writer.write_all(&garbage).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error ") && line.contains("exceeds"),
        "oversize line must be refused, got `{line}`"
    );

    // Same connection, a well-formed store request: still served.
    writer.write_all(b"store stat prepared 0\n").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "absent");

    // And a well-formed job request after that: a full report block.
    writer
        .write_all(format!("{}\n", fast_request("wang").to_line()).as_bytes())
        .unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "# hlpower report v1");
    daemon.stop();
}

#[test]
fn unknown_kinds_and_the_retired_fix_mode_get_one_error_line_each() {
    let store_dir = temp_path("kind-store");
    let socket = temp_path("kind-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let stream = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(&stream);
    // One request and its body on the shared connection; the reply line
    // comes back unescaped.
    let mut exchange = |request: String, body: &[u8]| -> String {
        (&stream).write_all(request.as_bytes()).unwrap();
        (&stream).write_all(body).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        api::unescape(line.trim_end()).unwrap()
    };

    // Every verb that names a kind refuses an unknown one. A refused
    // `put` or `audit` body is still consumed, so the connection stays
    // aligned.
    let fp = "feedc0defeedc0defeedc0defeedc0de";
    let len = VALID_SIM.len();
    for (request, body) in [
        (format!("store get nope-kind {fp}\n"), &[][..]),
        (format!("store stat nope-kind {fp}\n"), &[]),
        ("store list nope-kind\n".to_string(), &[]),
        (format!("store put nope-kind {fp} {len}\n"), &VALID_SIM),
        (format!("store audit nope-kind {fp} {len}\n"), &VALID_SIM),
    ] {
        let reply = exchange(request.clone(), body);
        assert_eq!(
            reply, "error unknown artifact kind `nope-kind`",
            "{request}"
        );
    }
    // fsck has two modes; the one that rewrote slots is gone.
    let reply = exchange("store fsck repair-fix fast\n".to_string(), &[]);
    assert!(
        reply.starts_with("error unknown fsck mode `repair-fix`"),
        "{reply}"
    );

    // The connection still serves, and no refused body was stored.
    assert_eq!(exchange(format!("store stat sims {fp}\n"), &[]), "absent");
    assert_eq!(exchange("store list sims\n".to_string(), &[]), "names 0");
    daemon.stop();
}

#[test]
fn connections_beyond_the_limit_park_with_busy_then_serve_after_drain() {
    let store_dir = temp_path("limit-store");
    let socket = temp_path("limit-sock");
    let daemon = Daemon::start(
        &socket,
        &store_dir,
        ServeOptions {
            max_clients: 1,
            queue_depth: 4,
            ..ServeOptions::default()
        },
    );

    // First client occupies the one slot (a completed exchange proves
    // its handler is registered).
    let first = UnixStream::connect(&socket).unwrap();
    {
        let mut writer = &first;
        writer.write_all(b"store stat prepared 0\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&first).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "absent");
    }

    // Second client is parked, not rejected: it hears one `busy` line,
    // and its already-sent request is buffered for promotion.
    let second = UnixStream::connect(&socket).unwrap();
    {
        let mut writer = &second;
        writer.write_all(b"store stat prepared 0\n").unwrap();
        writer.flush().unwrap();
    }
    let mut reader = BufReader::new(&second);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line == "busy" || line.starts_with("busy "),
        "parked client must hear a busy line, got `{line}`"
    );

    // Once the first client hangs up, the parked one is promoted and
    // its buffered request is served — no retry, same connection.
    drop(first);
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        "absent",
        "promoted client must be served its buffered request"
    );

    // And a saturated daemon can still be stopped gracefully: the
    // `control stop` connection is over the limit but parked control
    // lines are answered in place.
    daemon.stop();
}

#[test]
fn a_zero_depth_admission_queue_rejects_overflow_with_an_error_line() {
    let store_dir = temp_path("reject-store");
    let socket = temp_path("reject-sock");
    let daemon = Daemon::start(
        &socket,
        &store_dir,
        ServeOptions {
            max_clients: 1,
            queue_depth: 0,
            ..ServeOptions::default()
        },
    );

    // Occupy the only slot.
    let first = UnixStream::connect(&socket).unwrap();
    {
        let mut writer = &first;
        writer.write_all(b"store stat prepared 0\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&first).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "absent");
    }

    // With no queue, an overflow connection asking for normal service
    // is turned away with a protocol-clean error line (only `control`
    // lines get through). The message is wire-escaped, so match a
    // single word.
    let second = UnixStream::connect(&socket).unwrap();
    {
        let mut writer = &second;
        writer.write_all(b"store stat prepared 0\n").unwrap();
        writer.flush().unwrap();
    }
    let mut line = String::new();
    BufReader::new(&second).read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error ") && line.contains("limit"),
        "got `{line}`"
    );
    drop(first);
    daemon.stop();
}

#[test]
fn binding_over_a_live_daemon_is_refused_and_stale_sockets_are_cleaned() {
    let store_dir = temp_path("bind-store");
    let socket = temp_path("bind-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());

    // A second daemon on the same socket must refuse to start: silently
    // unlinking the live socket would orphan the first daemon.
    let err = match Server::bind(&Endpoint::Unix(socket.clone())) {
        Ok(_) => panic!("binding over a live daemon must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert!(err.to_string().contains("live daemon"), "{err}");
    // ... and the refusal must not have stolen the socket file.
    assert!(socket.exists());
    daemon.stop();

    // A stale socket file (nothing accepting behind it) is cleaned up.
    {
        let _leftover = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        // Listener dropped here; the file stays behind, dead.
    }
    assert!(socket.exists(), "dropping a listener leaves the file");
    let server = Server::bind(&Endpoint::Unix(socket.clone())).unwrap();
    drop(server);
    let _ = std::fs::remove_file(&socket);

    // A regular file at the socket path is never deleted: a mistyped
    // `--socket` must not destroy user data.
    let not_a_socket = temp_path("not-a-socket");
    std::fs::write(&not_a_socket, "precious bytes").unwrap();
    let err = match Server::bind(&Endpoint::Unix(not_a_socket.clone())) {
        Ok(_) => panic!("binding over a regular file must fail"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("not a socket"), "{err}");
    assert_eq!(
        std::fs::read_to_string(&not_a_socket).unwrap(),
        "precious bytes",
        "the file must survive untouched"
    );
    let _ = std::fs::remove_file(&not_a_socket);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn remote_spec_without_a_daemon_fails_fast() {
    let socket = temp_path("dead-sock");
    let spec = format!("remote:{}", socket.display());
    let err = ArtifactStore::open_spec(&spec).unwrap_err();
    // Must be a connect error, not a silently-cold store.
    assert!(
        err.kind() == std::io::ErrorKind::NotFound
            || err.kind() == std::io::ErrorKind::ConnectionRefused,
        "{err}"
    );

    // A daemon without a store refuses the protocol ping, so `--store
    // remote:` against it fails fast too instead of quietly missing on
    // every lookup.
    let bare_socket = temp_path("bare-sock");
    let server = Server::bind(&Endpoint::Unix(bare_socket.clone())).unwrap();
    let service = Arc::new(Service::new()); // no store attached
    let handle = std::thread::spawn(move || server.serve_with(service, ServeOptions::default()));
    let err = ArtifactStore::connect(&Endpoint::Unix(bare_socket.clone())).unwrap_err();
    assert!(err.to_string().contains("no store"), "{err}");
    api::stop_daemon(&Endpoint::Unix(bare_socket)).unwrap();
    handle.join().unwrap().unwrap();
}

/// A sim summary that passes the static audit under any fingerprint name.
static VALID_SIM: LazyLock<Vec<u8>> = LazyLock::new(|| {
    gatesim::SimStats {
        cycles: 100,
        total_transitions: 640,
        functional_transitions: 600,
        glitch_transitions: 40,
        per_node: vec![0; 9],
    }
    .to_summary_bin()
});

/// The on-disk slot file for `name` under the daemon's store directory
/// (located by prefix, so a test sees any stray twin too).
fn slot_file(store_dir: &std::path::Path, kind: &str, name: &str) -> PathBuf {
    let dir = store_dir.join(kind);
    let mut hits: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let f = p.file_name().unwrap().to_string_lossy().into_owned();
            f.starts_with(name) && !f.ends_with(".bad")
        })
        .collect();
    assert_eq!(hits.len(), 1, "exactly one live slot for {kind}/{name}");
    hits.pop().unwrap()
}

#[test]
fn remote_fsck_audits_daemon_side_and_streams_only_verdicts() {
    let store_dir = temp_path("fsck-store");
    let socket = temp_path("fsck-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let remote = ArtifactStore::connect(&daemon.endpoint).unwrap();

    // Two valid sims over the wire (the daemon audits-on-put, so both land).
    let good = "feedc0defeedc0defeedc0defeedc0de";
    let victim = "0123456789abcdef0123456789abcdef";
    remote.raw_put(Sims, good, &VALID_SIM);
    remote.raw_put(Sims, victim, &VALID_SIM);

    // Cold fsck: the daemon audits its own slots; this side only ever
    // sees counters and verdicts.
    let off = FsckOptions {
        repair: false,
        full: false,
    };
    let cold = remote.fsck_with(&off).unwrap();
    assert!(cold.issues.is_empty(), "{cold}");
    assert_eq!(cold.scanned, 2);
    assert_eq!(cold.audited(), 2, "cold pass audits everything");

    // Warm fsck: watermarks written daemon-side short-circuit the audit.
    let warm = remote.fsck_with(&off).unwrap();
    assert_eq!(warm.skipped_unchanged, 2, "{warm}");
    assert_eq!(warm.audited(), 0, "warm pass re-audits nothing");

    // Corrupt one slot behind the daemon's back, then ask the daemon to
    // repair remotely: the verdict crosses the wire, the quarantine
    // happens in the DAEMON's directory.
    std::fs::write(slot_file(&store_dir, "sims", victim), b"rotted bytes\n").unwrap();
    let repaired = remote
        .fsck_with(&FsckOptions {
            repair: true,
            full: false,
        })
        .unwrap();
    assert_eq!(repaired.issues.len(), 1, "{repaired}");
    assert_eq!(repaired.issues[0].kind, Sims);
    assert_eq!(repaired.issues[0].name, victim);
    assert!(repaired.issues[0].quarantined);
    assert!(
        !repaired.issues[0].problem.is_empty(),
        "the defect description survives wire escaping"
    );
    assert_eq!(repaired.quarantined, 1);
    let bad = store_dir.join("sims").join(format!("{victim}.bin.bad"));
    assert!(bad.exists(), "quarantine lands in the daemon's store dir");
    assert!(!remote.raw_stat(Sims, victim), "bad slot no longer served");
    assert!(remote.raw_stat(Sims, good), "healthy slot untouched");

    // Raw wire transcript: a full fsck streams verdict lines only —
    // never a `data N` frame, i.e. no artifact body ever crosses.
    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = &stream;
    writer.write_all(b"store fsck off full\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("bad ") || line.starts_with("done "),
            "fsck replies are verdicts only, got `{line}`"
        );
        if line.starts_with("done ") {
            assert_eq!(line.trim_end(), "done 1 0 0 0", "one clean slot left");
            break;
        }
    }

    // `store audit` on the same connection: vet bytes without storing.
    let probe = format!("store audit sims {victim} {}\n", VALID_SIM.len());
    writer.write_all(probe.as_bytes()).unwrap();
    writer.write_all(&VALID_SIM).unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ok audited");
    assert!(
        !remote.raw_stat(Sims, victim),
        "audit must not store the body"
    );
    let garbage = b"rotted bytes\n";
    let probe = format!("store audit sims {victim} {}\n", garbage.len());
    writer.write_all(probe.as_bytes()).unwrap();
    writer.write_all(garbage).unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error ") && line.contains("rejected"),
        "got `{line}`"
    );
    // Connection still aligned after the refusal.
    writer.write_all(b"store stat prepared 0\n").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "absent");

    daemon.stop();
}

#[test]
fn corrupt_put_sa_is_refused_without_poisoning_the_shard() {
    let store_dir = temp_path("sa-store");
    let socket = temp_path("sa-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let remote = ArtifactStore::connect(&daemon.endpoint).unwrap();

    // Seed the shared shard with one known-good entry.
    let seed = SaTable::new(4, 4);
    seed.insert(cdfg::FuType::AddSub, 1, 1, 2.0);
    let stats = remote.merge_sa_table(&seed);
    assert_eq!((stats.inserted, stats.conflicting), (1, 0));

    // A corrupt body straight onto the wire: the daemon reads the full
    // body (keeping the stream aligned), refuses with an error line, and
    // merges nothing.
    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = &stream;
    let garbage = b"not an sa table at all\n";
    writer
        .write_all(format!("store put-sa {}\n", garbage.len()).as_bytes())
        .unwrap();
    writer.write_all(garbage).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("error ") && line.contains("unparseable"),
        "got `{line}`"
    );

    // Same connection, a valid merge right after: protocol-clean refusal.
    let more = SaTable::new(4, 4);
    more.insert(cdfg::FuType::Mul, 2, 2, 5.0);
    let body = more.to_bin();
    writer
        .write_all(format!("store put-sa {}\n", body.len()).as_bytes())
        .unwrap();
    writer.write_all(&body).unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ok 1 0 0", "merge resumes after refusal");

    // The shard holds exactly the two good entries — nothing from the
    // poisoned body, nothing lost.
    let shard = remote.load_sa_table(SaMode::Precalculated, 4, 4).unwrap();
    assert_eq!(shard.len(), 2);
    assert_eq!(shard.lookup(cdfg::FuType::AddSub, 1, 1), Some(2.0));
    assert_eq!(shard.lookup(cdfg::FuType::Mul, 2, 2), Some(5.0));

    // And the stored shard still passes a daemon-side audit.
    let report = remote
        .fsck_with(&FsckOptions {
            repair: false,
            full: true,
        })
        .unwrap();
    assert!(report.issues.is_empty(), "{report}");
    daemon.stop();
}

#[test]
fn text_bodies_are_refused_protocol_clean_on_put_and_put_sa() {
    let store_dir = temp_path("text-store");
    let socket = temp_path("text-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let stream = UnixStream::connect(&socket).unwrap();
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    let mut exchange = |header: String, body: &[u8]| -> String {
        writer.write_all(header.as_bytes()).unwrap();
        writer.write_all(body).unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    // A well-formed sim summary in the retired text encoding.
    let fp = "00112233445566778899aabbccddeeff";
    let text_sim = b"# hlpower sim v1\ncycles 100 total 640 functional 600 glitch 40 nodes 9\n";
    let reply = exchange(
        format!("store put sims {fp} {}\n", text_sim.len()),
        text_sim,
    );
    assert!(
        reply.starts_with("error ") && reply.contains("rejected"),
        "got `{reply}`"
    );
    // A well-formed SA table in its text encoding (the `--sa-table`
    // file format, which is not a store encoding).
    let table = SaTable::new(4, 4);
    table.insert(cdfg::FuType::AddSub, 1, 1, 2.0);
    let text_table = table.to_text();
    let reply = exchange(
        format!("store put-sa {}\n", text_table.len()),
        text_table.as_bytes(),
    );
    assert!(
        reply.starts_with("error ") && reply.contains("unparseable"),
        "got `{reply}`"
    );
    // The connection is still aligned: the binary forms go through on
    // the same stream, and nothing from the text bodies was stored.
    let reply = exchange(
        format!("store put sims {fp} {}\n", VALID_SIM.len()),
        &VALID_SIM,
    );
    assert_eq!(reply, "ok");
    let body = table.to_bin();
    let reply = exchange(format!("store put-sa {}\n", body.len()), &body);
    assert_eq!(reply, "ok 1 0 0");
    let remote = ArtifactStore::connect(&daemon.endpoint).unwrap();
    let sims = remote.raw_list(Sims).unwrap();
    assert_eq!(sims, vec![fp.to_string()]);
    assert_eq!(
        remote.raw_get(Sims, fp).unwrap().to_vec(),
        *VALID_SIM,
        "the slot holds the binary body"
    );
    daemon.stop();
}

#[test]
fn fsck_runs_concurrently_with_a_live_put_stream() {
    let store_dir = temp_path("live-store");
    let socket = temp_path("live-sock");
    let daemon = Daemon::start(&socket, &store_dir, ServeOptions::default());
    let endpoint = daemon.endpoint.clone();

    // One client streams puts while another loops fsck against the same
    // daemon: the checker may observe any prefix of the put stream, but
    // must never report a defect or torn slot.
    const PUTS: u64 = 24;
    let writer = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let remote = ArtifactStore::connect(&endpoint).unwrap();
            for i in 0..PUTS {
                let name = format!("{:032x}", 0xabc0_de00_u64 + i);
                remote.raw_put(Sims, &name, &VALID_SIM);
            }
        })
    };
    let checker = std::thread::spawn(move || {
        let remote = ArtifactStore::connect(&endpoint).unwrap();
        for _ in 0..12 {
            let report = remote
                .fsck_with(&FsckOptions {
                    repair: false,
                    full: false,
                })
                .unwrap();
            assert!(report.issues.is_empty(), "mid-stream fsck: {report}");
            assert!(report.scanned <= PUTS as usize, "{report}");
        }
    });
    writer.join().unwrap();
    checker.join().unwrap();

    // Settled: a full pass sees every put, clean, and leaves watermarks
    // coherent enough that a fast pass re-audits nothing.
    let remote = ArtifactStore::connect(&daemon.endpoint).unwrap();
    let full = remote
        .fsck_with(&FsckOptions {
            repair: false,
            full: true,
        })
        .unwrap();
    assert_eq!(full.scanned, PUTS as usize, "{full}");
    assert!(full.issues.is_empty(), "{full}");
    let warm = remote
        .fsck_with(&FsckOptions {
            repair: false,
            full: false,
        })
        .unwrap();
    assert_eq!(warm.audited(), 0, "{warm}");
    daemon.stop();
}
