//! The span recorder and the statistics behind the reported metrics.

use hlpower_benchmark::stats;
use hlpower_benchmark::trace::{self, Recorder, Span};
use std::sync::Barrier;

fn span(id: u64, parent: Option<u64>, name: &'static str, req: u64, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        req,
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = [
        span(1, None, "job", 1, 0, 100),
        span(2, Some(1), "fubind", 1, 10, 40),
        span(3, Some(2), "satable.miss", 1, 15, 25),
        span(4, Some(1), "gatesim", 1, 50, 70),
    ];
    let selfs = trace::self_times(&spans);
    assert_eq!(selfs[&1], 50, "job minus its two direct children");
    assert_eq!(selfs[&2], 20, "binding minus its SA miss");
    assert_eq!(selfs[&3], 10);
    assert_eq!(selfs[&4], 20);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Two children on different threads overlap in [40, 60]: the
    // parent's covered time is their union, 80, not their sum, 100.
    let spans = [
        span(1, None, "pass", 0, 0, 100),
        span(2, Some(1), "job", 1, 10, 60),
        span(3, Some(1), "job", 2, 40, 90),
    ];
    assert_eq!(trace::self_times(&spans)[&1], 20);
    // A child reaching past its parent is clipped to the parent.
    let spans = [
        span(1, None, "job", 1, 0, 50),
        span(2, Some(1), "fubind", 1, 40, 70),
    ];
    assert_eq!(trace::self_times(&spans)[&1], 40);
}

#[test]
fn recorder_overlaps_children_opened_on_two_threads() {
    let rec = Recorder::new();
    let barrier = Barrier::new(2);
    let pass = rec.span("pass", 0);
    let pass_id = pass.id();
    std::thread::scope(|s| {
        for req in [1, 2] {
            let (rec, barrier) = (&rec, &barrier);
            s.spawn(move || {
                let _job = rec.span_under("job", req, Some(pass_id));
                // Both jobs are open when the barrier releases.
                barrier.wait();
            });
        }
    });
    drop(pass);
    let spans = rec.spans();
    let jobs: Vec<&Span> = spans.iter().filter(|s| s.name == "job").collect();
    assert_eq!(jobs.len(), 2);
    assert!(jobs.iter().all(|j| j.parent == Some(pass_id)));
    let (a, b) = (jobs[0], jobs[1]);
    assert!(
        a.start_ns < b.end_ns && b.start_ns < a.end_ns,
        "jobs overlap"
    );
    let root = spans
        .iter()
        .find(|s| s.id == pass_id)
        .expect("pass recorded");
    let union = a.end_ns.max(b.end_ns) - a.start_ns.min(b.start_ns);
    assert_eq!(
        trace::self_times(&spans)[&pass_id],
        root.duration_ns() - union
    );
}

#[test]
fn zero_length_spans_have_zero_self_time_and_cover_nothing() {
    let spans = [
        span(1, None, "job", 1, 10, 30),
        span(2, Some(1), "store.read", 1, 20, 20),
        span(3, None, "job", 2, 40, 40),
        span(4, Some(3), "fubind", 2, 40, 40),
    ];
    let selfs = trace::self_times(&spans);
    assert_eq!(selfs[&1], 20, "an empty child covers nothing");
    assert_eq!(selfs[&2], 0);
    assert_eq!(selfs[&3], 0);
    assert_eq!(selfs[&4], 0);
    let bd = trace::breakdown(&spans, "job");
    assert_eq!(bd.roots, 2);
    assert_eq!(bd.root_ns, 20);
    assert_eq!(bd.layer_self_ns["fubind"], 0, "an empty span still counts");
}

#[test]
fn recorder_nests_guards_on_one_thread() {
    let rec = Recorder::new();
    {
        let job = rec.span("job", 7);
        let job_id = job.id();
        {
            let bind = rec.span("fubind", 7);
            assert_eq!(rec.current(), Some(bind.id()));
            let miss = rec.record("satable.miss", 7, rec.current(), 5, 6);
            assert!(miss > bind.id());
        }
        assert_eq!(rec.current(), Some(job_id));
    }
    assert_eq!(rec.current(), None);
    let spans = rec.spans();
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
    assert_eq!(by_name("job").parent, None);
    assert_eq!(by_name("fubind").parent, Some(by_name("job").id));
    assert_eq!(by_name("satable.miss").parent, Some(by_name("fubind").id));
    assert!(spans.iter().all(|s| s.req == 7));
}

#[test]
fn spans_group_by_request_id_in_id_order() {
    let spans = [
        span(1, None, "job", 1, 0, 10),
        span(2, None, "job", 2, 0, 10),
        span(3, Some(1), "fubind", 1, 1, 5),
        span(4, Some(2), "gatesim", 2, 1, 5),
        span(5, Some(1), "gatesim", 1, 5, 9),
    ];
    let groups = trace::by_request(&spans);
    assert_eq!(groups.len(), 2);
    let ids = |req: u64| groups[&req].iter().map(|s| s.id).collect::<Vec<_>>();
    assert_eq!(ids(1), vec![1, 3, 5]);
    assert_eq!(ids(2), vec![2, 4]);
}

#[test]
fn layer_self_times_and_unattributed_time_reconcile_to_the_jobs() {
    let spans = [
        span(1, None, "pass", 0, 0, 300),
        span(2, Some(1), "job", 1, 0, 100),
        span(3, Some(2), "pipeline", 1, 0, 10),
        span(4, Some(2), "fubind", 1, 10, 50),
        span(5, Some(4), "satable.miss", 1, 20, 30),
        span(6, Some(2), "gatesim", 1, 55, 95),
        span(7, Some(1), "job", 2, 100, 200),
        span(8, Some(7), "fubind", 2, 100, 190),
        // Outside any job: not part of the breakdown.
        span(9, None, "proto.roundtrip", 3, 0, 500),
    ];
    let bd = trace::breakdown(&spans, "job");
    assert_eq!(bd.roots, 2);
    assert_eq!(bd.root_ns, 200);
    assert_eq!(bd.layer_self_ns["pipeline"], 10);
    assert_eq!(bd.layer_self_ns["fubind"], 30 + 90);
    assert_eq!(bd.layer_total_ns["fubind"], 40 + 90);
    assert_eq!(bd.layer_self_ns["satable.miss"], 10);
    assert_eq!(bd.layer_self_ns["gatesim"], 40);
    assert!(!bd.layer_self_ns.contains_key("proto.roundtrip"));
    // Job 1 leaves [50, 55) and [95, 100) to no layer, job 2 [190, 200).
    assert_eq!(bd.unattributed_ns, 20);
    assert_eq!(bd.attributed_ns() + bd.unattributed_ns, bd.root_ns);
    assert_eq!(bd.unattributed_pct(), 10.0);
    assert_eq!(bd.share_pct("fubind"), 60.0);
    assert_eq!(bd.share_pct("mapper"), 0.0);
}

#[test]
fn trace_file_has_one_json_object_per_span() {
    let spans = [
        span(1, None, "job", 4, 0, 10),
        span(2, Some(1), "gatesim", 4, 2, 8),
    ];
    let mut out = Vec::new();
    trace::write_jsonl(&spans, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            r#"{"id":1,"parent":null,"name":"job","req":4,"start_ns":0,"end_ns":10}"#,
            r#"{"id":2,"parent":1,"name":"gatesim","req":4,"start_ns":2,"end_ns":8}"#,
        ]
    );
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<f64>>();
    assert_eq!(stats::percentile(&samples(100), 0.9), Some(90.0));
    assert_eq!(
        stats::percentile(&samples(99), 0.9),
        None,
        "rank 90 leaves 9"
    );
    assert_eq!(stats::percentile(&samples(20), 0.5), Some(10.0));
    assert_eq!(stats::percentile(&samples(19), 0.5), None);
    assert_eq!(stats::percentile(&[], 0.5), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
