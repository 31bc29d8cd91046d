//! The service stack: run binding jobs for many clients over a socket.
//!
//! Three layers, one file each:
//!
//! * [`proto`] — the wire. Exact line-oriented codecs for job requests
//!   and reports, the `batch N` framing, the `control stats` /
//!   `control fsck-status` snapshot blocks, the one socket type and
//!   reply-line reader every client shares, and the blocking client
//!   helpers ([`request`], [`request_batch`], [`stop_daemon`],
//!   [`fetch_stats`], [`fetch_fsck_status`]).
//! * [`service`] — the in-process facade. [`Service`] shares one
//!   pipeline per distinct configuration across every caller and runs
//!   request lists on worker threads in request order.
//! * [`server`] — the daemon. A nonblocking `poll`-based event loop in
//!   front of a fixed worker pool, with layered admission control
//!   (admit / park-with-`busy` / reject), per-verb load shedding,
//!   periodic SA-shard flushes, and monotonic per-verb counters.
//!
//! The split is free to clients: everything the old monolithic module
//! exported is re-exported here under the same paths.

pub mod proto;
pub mod server;
pub mod service;

pub use proto::{
    escape, fetch_fsck_status, fetch_stats, request, request_batch, stop_daemon, unescape,
    Endpoint, FsckStatus, JobReport, JobRequest, JobSource, KnobError, RequestError, StatsSnapshot,
    VerbStats, BATCH_REFUSED, LATENCY_BUCKETS_US, MAX_BATCH_JOBS, MAX_REQUEST_LINE, STAT_VERBS,
};
pub use server::{ServeOptions, Server};
pub use service::{Service, ServiceError};
