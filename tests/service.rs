//! Acceptance tests for the typed service API and the daemon:
//!
//! * a [`Service`]-executed request matches the staged [`Pipeline`] it
//!   wraps, bit for bit;
//! * a daemon on a unix socket serves the same request to many clients
//!   from one hot store: the **second identical request executes zero
//!   schedule/map/simulate stages** and its reply is **byte-identical**
//!   to every later warm reply;
//! * a remote report equals a local store-backed report;
//! * daemon-side failures come back as error replies, not hangs;
//! * the CLI refuses requests the flow cannot run — a zero-unit
//!   constraint, zero simulated cycles, a CDFG with no operations — with
//!   a diagnostic and exit code 1.

use hlpower::api::{request, Endpoint, JobReport, JobRequest, Server, Service};
use hlpower::{ArtifactStore, Binder, FlowConfig, Pipeline};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "hlpower-service-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn fast_request(name: &str) -> JobRequest {
    // Mirrors FlowConfig::fast(): width 4, SA width 4, 100 cycles.
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
fn service_request_matches_the_pipeline_it_wraps() {
    let report = Service::new().execute(&fast_request("wang")).unwrap();
    let p = cdfg::profile("wang").unwrap();
    let g = cdfg::generate(p, p.seed);
    let rc = hlpower::paper_constraint("wang").unwrap();
    let direct = Pipeline::new(FlowConfig::fast()).run(&g, &rc, Binder::HlPower { alpha: 0.5 });
    let r = &report.result;
    assert_eq!(r.name, direct.name);
    assert_eq!(r.binder, direct.binder);
    assert_eq!(r.schedule_steps, direct.schedule_steps);
    assert_eq!(r.registers, direct.registers);
    assert_eq!(r.luts, direct.luts);
    assert_eq!(r.depth, direct.depth);
    assert_eq!(r.estimated_sa.to_bits(), direct.estimated_sa.to_bits());
    assert_eq!(r.mux, direct.mux);
    assert_eq!(
        r.power.dynamic_power_mw.to_bits(),
        direct.power.dynamic_power_mw.to_bits()
    );
    assert_eq!(r.power.total_transitions, direct.power.total_transitions);
    assert_eq!(r.sa_queries, direct.sa_queries);
}

#[cfg(unix)]
#[test]
fn warm_daemon_answers_repeat_requests_with_zero_stage_executions() {
    let store_dir = temp_path("store");
    let socket = temp_path("sock");
    let service =
        Arc::new(Service::new().with_store(Arc::new(ArtifactStore::open(&store_dir).unwrap())));
    let server = Server::bind(&Endpoint::Unix(socket.clone())).unwrap();
    let endpoint = Endpoint::Unix(socket);
    std::thread::spawn(move || {
        let _ = server.serve(service);
    });

    let req = fast_request("wang");
    let first = request(&endpoint, &req).unwrap();
    let second = request(&endpoint, &req).unwrap();
    let third = request(&endpoint, &req).unwrap();

    // Cold request really computed; the repeats executed *zero*
    // schedule/map/simulate stages (binding is recomputed by design —
    // it is cheap and feeds on the pooled SA cache).
    assert!(first.stats.stages.mappings > 0);
    assert!(first.stats.stages.simulations > 0);
    for warm in [&second, &third] {
        assert_eq!(warm.stats.stages.schedules, 0);
        assert_eq!(warm.stats.stages.register_bindings, 0);
        assert_eq!(warm.stats.stages.elaborations, 0);
        assert_eq!(warm.stats.stages.mappings, 0);
        assert_eq!(warm.stats.stages.simulations, 0);
    }

    // The deterministic payload never varies, and warm replies are
    // byte-identical in full (their stats deltas are all zeros).
    assert_eq!(result_text(&first), result_text(&second));
    assert_eq!(second.to_text(), third.to_text());

    // A local store-backed run of the same request reproduces the
    // remote report's payload byte for byte.
    let local_store = Arc::new(ArtifactStore::open(&store_dir).unwrap());
    let local = Service::new()
        .with_store(local_store)
        .execute(&req)
        .unwrap();
    assert_eq!(result_text(&local), result_text(&first));

    // Daemon-side failures are error replies, not hangs or disconnects.
    let err = request(&endpoint, &JobRequest::suite("nope")).unwrap_err();
    assert!(err.to_string().contains("unknown benchmark"), "{err}");

    // A different configuration through the same daemon is a distinct
    // job: it recomputes (no false sharing across configurations).
    let wider = request(&endpoint, &fast_request("wang").width(5)).unwrap();
    assert!(wider.stats.stages.mappings > 0);
    assert_ne!(wider.result.luts, first.result.luts);
}

#[cfg(unix)]
#[test]
fn daemon_serves_concurrent_clients_deterministically() {
    let socket = temp_path("conc-sock");
    let service = Arc::new(Service::new());
    let server = Server::bind(&Endpoint::Unix(socket.clone())).unwrap();
    std::thread::spawn(move || {
        let _ = server.serve(service);
    });
    let endpoint = Endpoint::Unix(socket);
    let reference = Service::new().execute(&fast_request("pr")).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || request(&endpoint, &fast_request("pr")).unwrap())
        })
        .collect();
    for handle in handles {
        let report = handle.join().unwrap();
        assert_eq!(result_text(&report), result_text(&reference));
    }
}

#[test]
fn cli_refuses_a_zero_unit_constraint_with_a_diagnostic() {
    // A CDFG with no operations parses and checks, but schedules to zero
    // control steps.
    let opless = temp_path("opless.cdfg");
    std::fs::write(&opless, "cdfg t\ninput a\noutput a\n").unwrap();
    let bench_pr = ["bench", "pr", "--width", "4", "--cycles", "10"];
    let cases: [(Vec<&str>, &str); 4] = [
        (
            [&bench_pr[..], &["--adders", "1", "--mults", "0"]].concat(),
            "constraint 1/0",
        ),
        (
            [&bench_pr[..], &["--adders", "0", "--mults", "0"]].concat(),
            "constraint 0/0",
        ),
        (
            vec!["bench", "wang", "--width", "4", "--cycles", "0"],
            "cycle count 0",
        ),
        (
            vec!["run", opless.to_str().unwrap(), "--width", "4"],
            "no operations",
        ),
    ];
    for (args, diagnostic) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hlp"))
            .args(&args)
            .output()
            .expect("spawn hlp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "hlp {args:?} is a runtime error, not a panic:\n{stderr}"
        );
        assert!(
            stderr.contains(diagnostic),
            "the diagnostic names the problem:\n{stderr}"
        );
    }
    let _ = std::fs::remove_file(&opless);
}
