//! The daemon: a nonblocking, `poll`-based event loop in front of a
//! fixed worker pool.
//!
//! One thread owns every socket. It accepts connections, reads request
//! bytes into per-connection buffers, frames complete requests (lines,
//! length-prefixed store bodies, `batch N` frames), and hands the work
//! to a pool of `opts.workers` threads; replies come back through a
//! completion queue and are written out as sockets drain. Idle
//! connections therefore cost a file descriptor and a buffer, never a
//! thread — the thread count is bounded by the worker pool, not the
//! client count.
//!
//! Admission control is layered, and every layer answers on the
//! protocol instead of slamming the connection:
//!
//! * up to [`ServeOptions::max_clients`] connections are **admitted**
//!   and served;
//! * the next [`ServeOptions::queue_depth`] are **parked**: they get
//!   one `busy` line (clients skip those) and wait; a parked
//!   connection is promoted FIFO when an admitted one closes, and its
//!   already-buffered request is then served. `control` lines are still
//!   answered while parked, so `control stop` always reaches a
//!   saturated daemon;
//! * beyond that, connections are **rejected** with an `error` line;
//! * independently, a per-verb in-flight cap **sheds** requests with an
//!   `error ... retry` line when one verb class floods the pool.
//!
//! Every answered request is counted into the monotonic
//! [`StatsSnapshot`] served by `control stats` (the counters are
//! updated by the same code path that writes the per-request log line,
//! so the two always reconcile), and `control fsck-status` exposes the
//! most recent `store fsck` sweep's counters. Dirty SA shards are
//! flushed to the store on every batch completion and, as a safety net
//! against unclean kills, every [`ServeOptions::flush_every`] interval.

use crate::api::proto::{
    escape, Endpoint, FsckStatus, JobRequest, JobSource, StatsSnapshot, Stream, BATCH_REFUSED,
    LATENCY_BUCKETS_US, MAX_BATCH_JOBS, MAX_REQUEST_LINE,
};
use crate::api::service::Service;
use crate::store::{audit_artifact_bytes, ArtifactKind, ArtifactStore};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Daemon operability knobs for [`Server::serve_with`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Maximum connections served concurrently. Connections beyond the
    /// limit are parked (answered with a `busy` line and promoted FIFO
    /// as slots free) rather than rejected.
    pub max_clients: usize,
    /// How many connections may wait parked at once. Beyond this, new
    /// connections are answered with a protocol-clean `error` line and
    /// closed.
    pub queue_depth: usize,
    /// Worker threads executing jobs and store verbs. `0` picks a
    /// default from the host's parallelism (capped at 16).
    pub workers: usize,
    /// Flush dirty SA shards to the store this often even without a
    /// graceful stop, so a killed daemon loses at most one interval of
    /// simulated-mode training. `None` disables the periodic flush
    /// (batch completions and graceful shutdown still flush).
    pub flush_every: Option<Duration>,
    /// Log one stderr line per request (and per parked/rejected
    /// connection).
    pub log: bool,
    /// Install SIGINT/SIGTERM handlers that trigger the same graceful
    /// shutdown as `control stop` (drain in-flight work, flush SA
    /// shards once, unlink the socket). Off by default so embedding a
    /// server in tests never rewires the host process's signal
    /// disposition.
    pub handle_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_clients: 64,
            queue_depth: 256,
            workers: 0,
            flush_every: Some(Duration::from_secs(30)),
            log: false,
            handle_signals: false,
        }
    }
}

impl ServeOptions {
    /// The effective worker count (resolving `workers == 0` to the
    /// host-parallelism default).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16)
        } else {
            self.workers
        }
    }
}

/// Set by the SIGINT/SIGTERM handlers [`ServeOptions::handle_signals`]
/// installs; every serving loop in the process drains and exits when it
/// goes up (signal dispositions are process-wide anyway).
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_signals() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        extern "C" fn flag_shutdown(_sig: i32) {
            // Only an atomic flag: the event loop polls it, so nothing
            // async-signal-unsafe happens here.
            SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            // lint:allow(trunc-cast): fn pointer -> usize is the sigaction ABI, not a narrowing
            signal(2, flag_shutdown as *const () as usize); // SIGINT
                                                            // lint:allow(trunc-cast): fn pointer -> usize is the sigaction ABI, not a narrowing
            signal(15, flag_shutdown as *const () as usize); // SIGTERM
        }
    });
}

#[cfg(not(unix))]
fn install_shutdown_signals() {}

// ---- readiness -------------------------------------------------------------

/// Raw `poll(2)`, declared directly (the toolchain is the only
/// dependency this repo allows itself). Only the three constants the
/// event loop needs are defined.
#[cfg(unix)]
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    /// Blocks until a descriptor is ready or the timeout passes;
    /// `revents` is filled in place. EINTR and errors read as "nothing
    /// ready" — the caller's loop re-polls.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        if fds.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
            return 0;
        }
        unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        }
    }
}

/// What the event loop wants to hear about one descriptor.
struct Wish {
    token: u64,
    fd: i32,
    read: bool,
    write: bool,
}

/// What came back ready.
struct Ready {
    token: u64,
    read: bool,
    write: bool,
}

#[cfg(unix)]
fn wait_ready(wishes: &[Wish], timeout: Duration) -> Vec<Ready> {
    let mut fds: Vec<sys::PollFd> = wishes
        .iter()
        .map(|w| sys::PollFd {
            fd: w.fd,
            events: if w.read { sys::POLLIN } else { 0 } | if w.write { sys::POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    if sys::wait(&mut fds, ms) <= 0 {
        return Vec::new();
    }
    wishes
        .iter()
        .zip(&fds)
        .filter(|(_, f)| f.revents != 0)
        .map(|(w, f)| Ready {
            token: w.token,
            // Error/hangup conditions read as "readable": the next read
            // surfaces them as EOF or an error, which is how the loop
            // learns a connection died.
            read: f.revents & !sys::POLLOUT != 0,
            write: f.revents & sys::POLLOUT != 0,
        })
        .collect()
}

/// Non-unix fallback: no `poll`, so tick and treat every wish as ready;
/// the sockets are nonblocking, so spurious readiness costs one
/// `WouldBlock` each.
#[cfg(not(unix))]
fn wait_ready(wishes: &[Wish], timeout: Duration) -> Vec<Ready> {
    std::thread::sleep(timeout.min(Duration::from_millis(5)));
    wishes
        .iter()
        .map(|w| Ready {
            token: w.token,
            read: w.read,
            write: w.write,
        })
        .collect()
}

// ---- listener / streams ----------------------------------------------------

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl ListenerKind {
    fn raw_fd(&self) -> i32 {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            match self {
                ListenerKind::Tcp(l) => l.as_raw_fd(),
                ListenerKind::Unix(l) => l.as_raw_fd(),
            }
        }
        #[cfg(not(unix))]
        {
            0
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

// ---- work items ------------------------------------------------------------

const VERB_JOB: usize = 0;
const VERB_BATCH: usize = 1;
const VERB_STORE: usize = 2;
const VERB_CONTROL: usize = 3;

/// Shared state of one in-flight `batch N` frame. Workers fill slots
/// (one per job, in frame order); the worker that fills the last slot
/// flushes the service's SA shards, concatenates the slots into the
/// single reply the frame contracts for, and posts the completion.
struct BatchShared {
    conn: u64,
    started: Instant,
    bytes_in: u64,
    jobs: u64,
    slots: Vec<OnceLock<(String, bool)>>,
    remaining: AtomicUsize,
}

enum Task {
    Job {
        conn: u64,
        started: Instant,
        bytes_in: u64,
        line: String,
    },
    BatchJob {
        batch: Arc<BatchShared>,
        index: usize,
        req: JobRequest,
    },
    Store {
        conn: u64,
        started: Instant,
        bytes_in: u64,
        line: String,
        body: Option<Vec<u8>>,
    },
    Flush,
}

struct Completion {
    conn: u64,
    verb: usize,
    started: Instant,
    bytes_in: u64,
    reply: Vec<u8>,
    errors: u64,
    summary: String,
    fsck: Option<FsckStatus>,
    batch_jobs: u64,
}

/// Everything the worker threads and the event loop share.
struct WorkerShared<'a> {
    service: &'a Service,
    queue: Mutex<VecDeque<Task>>,
    cv: Condvar,
    done: Mutex<Vec<Completion>>,
    stop: AtomicBool,
    flush_inflight: AtomicBool,
    #[cfg(unix)]
    wake_tx: Option<UnixStream>,
}

impl WorkerShared<'_> {
    fn push_task(&self, task: Task) {
        self.queue
            .lock()
            .expect("worker queue lock")
            .push_back(task);
        self.cv.notify_one();
    }

    fn complete(&self, c: Completion) {
        self.done.lock().expect("completion lock").push(c);
        self.wake();
    }

    /// Nudges the event loop out of `poll` (one byte down the wake
    /// pipe; a full pipe means a wakeup is already pending).
    fn wake(&self) {
        #[cfg(unix)]
        if let Some(tx) = &self.wake_tx {
            let _ = (&mut &*tx).write(&[1u8]);
        }
    }

    fn queue_is_empty(&self) -> bool {
        self.queue.lock().expect("worker queue lock").is_empty()
    }
}

fn worker(sh: &WorkerShared<'_>) {
    loop {
        let task = {
            let mut q = sh.queue.lock().expect("worker queue lock");
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if sh.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = sh.cv.wait(q).expect("worker queue lock");
            }
        };
        run_task(sh, task);
    }
}

fn run_task(sh: &WorkerShared<'_>, task: Task) {
    match task {
        Task::Job {
            conn,
            started,
            bytes_in,
            line,
        } => {
            let (reply, summary, err) = match JobRequest::parse_line(&line) {
                Ok(req) => {
                    let label = match &req.source {
                        JobSource::Suite(name) => format!("bench:{name}"),
                        JobSource::CdfgText(_) => "cdfg:<inline>".to_string(),
                    };
                    match sh.service.execute(&req) {
                        Ok(report) => (report.to_text(), format!("job {label} ok"), false),
                        Err(e) => (
                            format!("error {}\n", escape(&e.to_string())),
                            format!("job {label} refused: {e}"),
                            true,
                        ),
                    }
                }
                Err(e) => (
                    format!("error {}\n", escape(&e)),
                    format!("bad request line: {e}"),
                    true,
                ),
            };
            sh.complete(Completion {
                conn,
                verb: VERB_JOB,
                started,
                bytes_in,
                reply: reply.into_bytes(),
                errors: u64::from(err),
                summary,
                fsck: None,
                batch_jobs: 0,
            });
        }
        Task::BatchJob { batch, index, req } => {
            let (text, is_err) = match sh.service.execute_unflushed(&req) {
                Ok(report) => (report.to_text(), false),
                Err(e) => (format!("error {}\n", escape(&e.to_string())), true),
            };
            let _ = batch.slots[index].set((text, is_err));
            if batch.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last job of the frame: flush what the batch taught the
                // SA caches, then assemble the contracted reply — the
                // exact concatenation of the N per-job replies in frame
                // order.
                sh.service.flush();
                let mut reply = String::new();
                let mut errors = 0u64;
                for slot in &batch.slots {
                    let (text, is_err) = slot.get().expect("all batch slots filled");
                    reply.push_str(text);
                    errors += u64::from(*is_err);
                }
                sh.complete(Completion {
                    conn: batch.conn,
                    verb: VERB_BATCH,
                    started: batch.started,
                    bytes_in: batch.bytes_in,
                    reply: reply.into_bytes(),
                    errors,
                    summary: format!("batch {} jobs ({errors} errors)", batch.jobs),
                    fsck: None,
                    batch_jobs: batch.jobs,
                });
            }
        }
        Task::Store {
            conn,
            started,
            bytes_in,
            line,
            body,
        } => {
            let (reply, summary, err, fsck) = perform_store_verb(sh.service.store(), &line, body);
            sh.complete(Completion {
                conn,
                verb: VERB_STORE,
                started,
                bytes_in,
                reply,
                errors: u64::from(err),
                summary,
                fsck,
                batch_jobs: 0,
            });
        }
        Task::Flush => {
            sh.service.flush();
            sh.flush_inflight.store(false, Ordering::SeqCst);
        }
    }
}

// ---- store verbs -----------------------------------------------------------

/// Serves one `store ...` wire request against the daemon's store. The
/// protocol is documented in [`crate::store`]; access goes through the
/// store's **raw** (uncounted) hooks so client traffic never pollutes
/// the daemon handle's own hit/miss attribution. Body-carrying verbs
/// get their already-collected body (the event loop framed it); the
/// return is `(reply bytes, log summary, was an error, fsck counters if
/// this was a fsck sweep)`.
fn perform_store_verb(
    store: Option<&Arc<ArtifactStore>>,
    line: &str,
    body: Option<Vec<u8>>,
) -> (Vec<u8>, String, bool, Option<FsckStatus>) {
    match store_verb(store, line, body) {
        Ok((reply, summary, fsck)) => (reply, summary, false, fsck),
        Err(msg) => (
            format!("error {}\n", escape(&msg)).into_bytes(),
            format!("store request refused: {msg}"),
            true,
            None,
        ),
    }
}

/// The reply, log summary and fsck counters of one `store ...` request
/// ([`perform_store_verb`]), or the message of its `error` reply.
fn store_verb(
    store: Option<&Arc<ArtifactStore>>,
    line: &str,
    body: Option<Vec<u8>>,
) -> Result<(Vec<u8>, String, Option<FsckStatus>), String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let store = store.ok_or("this daemon has no store attached (start it with --store DIR)")?;
    let parse_kind = |kind: &str| {
        ArtifactKind::parse(kind).ok_or_else(|| format!("unknown artifact kind `{kind}`"))
    };
    let check = |kind: &str, name: &str| -> Result<ArtifactKind, String> {
        let kind = parse_kind(kind)?;
        if !crate::store::valid_name(name) {
            return Err(format!("invalid artifact name `{name}`"));
        }
        Ok(kind)
    };
    Ok(match toks.as_slice() {
        ["store", "get", kind, name] => {
            let kind = check(kind, name)?;
            match store.raw_get(kind, name) {
                Some(content) => {
                    let mut reply = format!("data {}\n", content.len()).into_bytes();
                    let summary = format!("get {kind}/{name} hit ({} bytes)", content.len());
                    reply.extend_from_slice(&content);
                    (reply, summary, None)
                }
                None => (
                    b"absent\n".to_vec(),
                    format!("get {kind}/{name} miss"),
                    None,
                ),
            }
        }
        ["store", "stat", kind, name] => {
            let kind = check(kind, name)?;
            let present = if store.raw_stat(kind, name) {
                "present"
            } else {
                "absent"
            };
            (
                format!("{present}\n").into_bytes(),
                format!("stat {kind}/{name} {present}"),
                None,
            )
        }
        ["store", "list", kind] => {
            let kind = parse_kind(kind)?;
            let names = store
                .raw_list(kind)
                .map_err(|e| format!("cannot list {kind}: {e}"))?;
            let mut reply = format!("names {}\n", names.len());
            for name in &names {
                reply.push_str(name);
                reply.push('\n');
            }
            (
                reply.into_bytes(),
                format!("list {kind} ({} names)", names.len()),
                None,
            )
        }
        ["store", "put", kind, name, len] => {
            let body = body.unwrap_or_default();
            let kind = check(kind, name)?;
            // The body is stored verbatim (no transcode) — but not
            // blindly: it must pass the same static audit `hlp fsck`
            // applies, so one misbehaving client cannot seed the shared
            // store with bytes every other client would then trip over.
            audit_artifact_bytes(kind, name, &body)
                .map_err(|e| format!("artifact rejected: {e}"))?;
            store.raw_put(kind, name, &body);
            (
                b"ok\n".to_vec(),
                format!("put {kind}/{name} ({len} bytes)"),
                None,
            )
        }
        ["store", "put-sa", len] => {
            let body = body.unwrap_or_default();
            let table =
                SaTable::from_bin(&body).map_err(|e| format!("unparseable SA table: {e}"))?;
            // The parsed header names the shard this body would merge
            // into; run the body through the same audit `hlp fsck`
            // applies to stored shards BEFORE merging, so one corrupt
            // client cannot poison a shard every other client shares.
            let shard = crate::store::sa_shard_name(table.mode(), table.width(), table.k());
            audit_artifact_bytes(ArtifactKind::Satables, &shard, &body)
                .map_err(|e| format!("SA table rejected: {e}"))?;
            let stats = store.merge_sa_table(&table);
            (
                format!(
                    "ok {} {} {}\n",
                    stats.inserted, stats.matched, stats.conflicting
                )
                .into_bytes(),
                format!("put-sa {len} bytes: {stats}"),
                None,
            )
        }
        ["store", "audit", kind, name, len] => {
            let body = body.unwrap_or_default();
            let kind = check(kind, name)?;
            // Audit without storing: the `store put` gate as a verb of
            // its own, so clients can vet bytes they do NOT intend to
            // merge (pre-flight checks, CI gates) against the daemon's
            // auditor version instead of their own.
            audit_artifact_bytes(kind, name, &body)
                .map_err(|e| format!("artifact rejected: {e}"))?;
            (
                b"ok audited\n".to_vec(),
                format!("audit {kind}/{name} ({len} bytes) clean"),
                None,
            )
        }
        ["store", "fsck", mode, scope] => {
            let repair = match *mode {
                "off" => false,
                "repair" => true,
                other => return Err(format!("unknown fsck mode `{other}` (expected off/repair)")),
            };
            let full = match *scope {
                "full" => true,
                "fast" => false,
                other => return Err(format!("unknown fsck scope `{other}` (expected fast/full)")),
            };
            // The daemon audits its own store in place and streams only
            // verdicts — one `bad` line per defect, then the `done`
            // counters. Artifact bodies never cross the wire.
            let report = store
                .fsck_with(&crate::FsckOptions { repair, full })
                .map_err(|e| format!("fsck failed: {e}"))?;
            let mut reply = String::new();
            for issue in &report.issues {
                reply.push_str(&format!(
                    "bad {} {} {} {}\n",
                    issue.kind,
                    issue.name,
                    u8::from(issue.quarantined),
                    escape(&issue.problem)
                ));
            }
            reply.push_str(&format!(
                "done {} {} {} {}\n",
                report.scanned,
                report.skipped_unchanged,
                report.issues.len(),
                report.quarantined
            ));
            let status = FsckStatus {
                runs: 1,
                scanned: report.scanned as u64,
                skipped_unchanged: report.skipped_unchanged as u64,
                issues: report.issues.len() as u64,
                quarantined: report.quarantined as u64,
            };
            (
                reply.into_bytes(),
                format!("fsck {mode} {scope}: {report}"),
                Some(status),
            )
        }
        _ => {
            return Err(format!(
                "unknown store request `{}` (expected get/put/stat/list/put-sa/audit/fsck)",
                line.split_whitespace()
                    .take(2)
                    .collect::<Vec<_>>()
                    .join(" ")
            ))
        }
    })
}

use crate::SaTable;

// ---- connections -----------------------------------------------------------

/// What the event loop is waiting for on one connection before it can
/// frame the next request.
enum Pending {
    /// Nothing in flight; complete lines in `rbuf` are processable.
    Idle,
    /// A worker owns a request from this connection; replies must stay
    /// ordered, so nothing further is framed until its completion.
    Busy,
    /// A `store put/put-sa/audit` header arrived; collecting its
    /// length-prefixed body.
    Body {
        line: String,
        started: Instant,
        need: usize,
        body: Vec<u8>,
    },
    /// A body was refused (over the cap) but must still be consumed —
    /// discarded chunk-wise, never buffered — so the refusal leaves the
    /// connection protocol-aligned.
    Drain {
        need: usize,
        msg: String,
        started: Instant,
    },
    /// A `batch N` header arrived; collecting its N job lines.
    Batch {
        want: usize,
        lines: Vec<Result<String, String>>,
        started: Instant,
        bytes_in: u64,
    },
}

struct Conn {
    stream: Stream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    admitted: bool,
    pending: Pending,
    /// Mid-discard of an oversize line (everything up to the next
    /// newline is dropped unbuffered).
    discarding: bool,
    /// Set on a connection over both the admission limit and the queue
    /// depth: it is rejected, but only after a short grace in which a
    /// `control` line is still answered (so `control stop` always
    /// reaches a saturated daemon) and a freed slot can still promote
    /// it. Any other request line — or the deadline — draws the
    /// rejection error.
    reject_deadline: Option<Instant>,
    close_after_write: bool,
    eof: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: Stream, admitted: bool) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            admitted,
            pending: Pending::Idle,
            discarding: false,
            reject_deadline: None,
            close_after_write: false,
            eof: false,
            dead: false,
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue_reply(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    /// Reads until `WouldBlock`/EOF, appending to `rbuf`.
    fn read_some(&mut self) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Writes queued reply bytes until `WouldBlock` or drained.
    fn write_some(&mut self) {
        while self.unsent() > 0 {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
    }

    /// Extracts the next complete line from `rbuf` (without its
    /// terminator, `\r` trimmed). `Some(Err(()))` means a line arrived
    /// but exceeded [`MAX_REQUEST_LINE`] and was discarded — the caller
    /// owes the client an oversize error in whatever framing context it
    /// is in. `None` means no complete line is buffered yet.
    fn next_line(&mut self) -> Option<Result<String, ()>> {
        loop {
            let pos = self.rbuf.iter().position(|&b| b == b'\n');
            if self.discarding {
                match pos {
                    Some(p) => {
                        self.consume(p + 1);
                        self.discarding = false;
                        return Some(Err(()));
                    }
                    None => {
                        self.rbuf.clear();
                        return None;
                    }
                }
            }
            match pos {
                Some(p) if p <= MAX_REQUEST_LINE => {
                    let line = String::from_utf8_lossy(&self.rbuf[..p])
                        .trim_end_matches('\r')
                        .to_string();
                    self.consume(p + 1);
                    return Some(Ok(line));
                }
                Some(p) => {
                    self.consume(p + 1);
                    return Some(Err(()));
                }
                None if self.rbuf.len() > MAX_REQUEST_LINE => {
                    self.rbuf.clear();
                    self.discarding = true;
                    // Keep scanning: more bytes may already be buffered.
                }
                None => return None,
            }
        }
    }

    /// The first complete buffered line, without consuming it (parked
    /// connections only act on `control` lines and leave everything
    /// else queued for after their promotion).
    fn peek_line(&self) -> Option<String> {
        let pos = self.rbuf.iter().position(|&b| b == b'\n')?;
        if pos > MAX_REQUEST_LINE {
            return None;
        }
        Some(
            String::from_utf8_lossy(&self.rbuf[..pos])
                .trim_end_matches('\r')
                .to_string(),
        )
    }

    /// Drops the first `n` buffered bytes.
    fn consume(&mut self, n: usize) {
        let tail = self.rbuf.split_off(n.min(self.rbuf.len()));
        self.rbuf = tail;
    }
}

// ---- server ----------------------------------------------------------------

/// A bound daemon listener. [`Server::bind`] claims the endpoint (so a
/// caller can report readiness before blocking), [`Server::serve`] then
/// runs the event loop and worker pool, all connections sharing one
/// [`Service`] — the "one hot store, many clients" deployment — until a
/// `control stop` request (or a signal, when enabled) triggers the
/// graceful shutdown: stop accepting, drain in-flight work, flush SA
/// shards once, unlink the socket file.
pub struct Server {
    listener: ListenerKind,
    endpoint: Endpoint,
}

impl Server {
    /// Binds the endpoint.
    ///
    /// A pre-existing unix socket file is probed first: if a live
    /// daemon answers it, binding fails with `AddrInUse` — silently
    /// unlinking it would orphan that daemon (still running, no longer
    /// reachable) and strand its clients. Only a dead socket (nothing
    /// accepting) is cleaned up as stale.
    ///
    /// # Errors
    ///
    /// Socket creation/bind failures; `AddrInUse` when a live daemon
    /// already serves the socket; `Unsupported` for unix endpoints on
    /// non-unix hosts.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Server> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => ListenerKind::Tcp(TcpListener::bind(addr)?),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    use std::os::unix::fs::FileTypeExt;
                    let is_socket = std::fs::metadata(path)
                        .map(|m| m.file_type().is_socket())
                        .unwrap_or(false);
                    if !is_socket {
                        // A mistyped --socket must never delete the
                        // user's regular file (or directory).
                        return Err(io::Error::new(
                            io::ErrorKind::AlreadyExists,
                            format!(
                                "`{}` exists and is not a socket; refusing to replace it",
                                path.display()
                            ),
                        ));
                    }
                    if UnixStream::connect(path).is_ok() {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!(
                                "a live daemon is already serving `{}` (stop it with \
                                 `hlp serve --stop --socket {0}` first)",
                                path.display()
                            ),
                        ));
                    }
                    // A socket nothing accepts on: a stale leftover from
                    // a killed daemon, safe to clean up.
                    std::fs::remove_file(path)?;
                }
                ListenerKind::Unix(UnixListener::bind(path)?)
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this host",
                ))
            }
        };
        Ok(Server {
            listener,
            endpoint: endpoint.clone(),
        })
    }

    /// The bound endpoint (for TCP with port 0, the OS-assigned address).
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        match &self.listener {
            ListenerKind::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            ListenerKind::Unix(_) => Ok(self.endpoint.clone()),
        }
    }

    /// [`Server::serve_with`] under default [`ServeOptions`].
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection I/O errors only end that
    /// connection.
    pub fn serve(&self, service: Arc<Service>) -> io::Result<()> {
        self.serve_with(service, ServeOptions::default())
    }

    /// Runs the event loop and worker pool until `control stop` arrives
    /// on a connection — or, with `opts.handle_signals`,
    /// SIGINT/SIGTERM. Shutdown is graceful: in-flight requests finish,
    /// replies are flushed, workers are joined, SA caches are flushed
    /// to the store once, and a unix socket file is unlinked. Returns
    /// `Ok(())` after a graceful stop.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection I/O errors only end that
    /// connection.
    pub fn serve_with(&self, service: Arc<Service>, opts: ServeOptions) -> io::Result<()> {
        if opts.handle_signals {
            install_shutdown_signals();
        }
        match &self.listener {
            ListenerKind::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            ListenerKind::Unix(l) => l.set_nonblocking(true)?,
        }
        #[cfg(unix)]
        let wake = {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            (tx, rx)
        };
        let sh = WorkerShared {
            service: &service,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            done: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            flush_inflight: AtomicBool::new(false),
            #[cfg(unix)]
            wake_tx: Some(wake.0),
        };
        let result = std::thread::scope(|scope| {
            for _ in 0..opts.effective_workers() {
                scope.spawn(|| worker(&sh));
            }
            let mut lp = EventLoop {
                listener: &self.listener,
                opts,
                sh: &sh,
                shed_cap: (opts.effective_workers() * 8).max(32) as u64,
                conns: BTreeMap::new(),
                next_id: 0,
                stats: StatsSnapshot::default(),
                inflight: [0u64; 4],
                shutdown: false,
                drain_deadline: None,
                last_flush: Instant::now(),
                #[cfg(unix)]
                wake_rx: wake.1,
            };
            let r = lp.run();
            sh.stop.store(true, Ordering::SeqCst);
            sh.cv.notify_all();
            r
        });
        // One final flush for the whole serving session: workers
        // drained, so nothing new can race into the caches behind it.
        service.flush();
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// High-water mark on an idle connection's read buffer: big enough for
/// one maximum request line plus a pipelined follow-up, small enough
/// that a flooding client stalls in the kernel, not in daemon memory.
const RBUF_SOFT_CAP: usize = MAX_REQUEST_LINE + 64 * 1024;

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

struct EventLoop<'a, 'b> {
    listener: &'a ListenerKind,
    opts: ServeOptions,
    sh: &'a WorkerShared<'b>,
    shed_cap: u64,
    conns: BTreeMap<u64, Conn>,
    next_id: u64,
    stats: StatsSnapshot,
    inflight: [u64; 4],
    shutdown: bool,
    drain_deadline: Option<Instant>,
    last_flush: Instant,
    #[cfg(unix)]
    wake_rx: UnixStream,
}

impl EventLoop<'_, '_> {
    fn log(&self, id: u64, what: &str, started: Instant) {
        if self.opts.log {
            eprintln!(
                "hlp serve: [c{id}] {what} ({} ms)",
                started.elapsed().as_millis()
            );
        }
    }

    fn run(&mut self) -> io::Result<()> {
        loop {
            if !self.shutdown && self.opts.handle_signals && SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
            {
                self.begin_shutdown();
            }

            let readable = self.poll_once();
            for token in readable {
                if let Some(c) = self.conns.get_mut(&token) {
                    c.read_some();
                }
            }
            self.apply_completions();
            self.reap_and_promote();
            let now = Instant::now();
            let expired: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| matches!(c.reject_deadline, Some(d) if now >= d))
                .map(|(id, _)| *id)
                .collect();
            for id in expired {
                self.reject(id);
            }
            self.progress_all();
            for (_, c) in self.conns.iter_mut() {
                if c.unsent() > 0 {
                    c.write_some();
                }
            }
            self.reap_and_promote();
            self.flush_tick();

            if self.shutdown && self.drained() {
                return Ok(());
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }

    /// One poll cycle: builds the wish list, waits, accepts, drains the
    /// wake pipe, and returns the tokens of readable connections.
    fn poll_once(&mut self) -> Vec<u64> {
        let mut wishes: Vec<Wish> = Vec::with_capacity(self.conns.len() + 2);
        if !self.shutdown {
            wishes.push(Wish {
                token: TOKEN_LISTENER,
                fd: self.listener.raw_fd(),
                read: true,
                write: false,
            });
        }
        #[cfg(unix)]
        wishes.push(Wish {
            token: TOKEN_WAKE,
            fd: {
                use std::os::fd::AsRawFd;
                self.wake_rx.as_raw_fd()
            },
            read: true,
            write: false,
        });
        let mut want_progress = false;
        for (id, c) in self.conns.iter() {
            let read = !self.shutdown && !c.eof && !c.dead && !c.close_after_write && {
                match &c.pending {
                    Pending::Body { .. } | Pending::Drain { .. } | Pending::Batch { .. } => true,
                    Pending::Busy => c.rbuf.len() < 64 * 1024,
                    Pending::Idle => {
                        if !c.rbuf.is_empty() && matches!(c.pending, Pending::Idle) {
                            // Buffered data may already hold a full
                            // request (e.g. a just-promoted parked
                            // connection): don't sleep on it.
                            want_progress = true;
                        }
                        c.rbuf.len() < RBUF_SOFT_CAP
                    }
                }
            };
            let write = c.unsent() > 0;
            if read || write {
                wishes.push(Wish {
                    token: *id,
                    fd: c.stream.raw_fd(),
                    read,
                    write,
                });
            }
        }
        let timeout = if want_progress || self.shutdown {
            Duration::from_millis(1)
        } else {
            Duration::from_millis(100)
        };
        let ready = wait_ready(&wishes, timeout);
        let mut readable = Vec::new();
        for ev in ready {
            match ev.token {
                TOKEN_LISTENER => {
                    if ev.read {
                        self.accept_burst();
                    }
                }
                TOKEN_WAKE => {
                    #[cfg(unix)]
                    {
                        let mut sink = [0u8; 256];
                        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
                    }
                }
                token => {
                    if ev.read || ev.write {
                        readable.push(token);
                    }
                }
            }
        }
        readable
    }

    fn admitted_count(&self) -> usize {
        self.conns
            .iter()
            .filter(|(_, c)| c.admitted && !c.close_after_write)
            .count()
    }

    fn parked_count(&self) -> usize {
        self.conns
            .iter()
            .filter(|(_, c)| !c.admitted && !c.close_after_write)
            .count()
    }

    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(stream) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (aborted
                // handshakes, fd pressure) must not kill the daemon.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: Stream) {
        let _ = stream.set_nonblocking();
        let id = self.next_id;
        self.next_id += 1;
        self.stats.conns_accepted += 1;
        let started = Instant::now();
        if self.admitted_count() < self.opts.max_clients {
            self.conns.insert(id, Conn::new(stream, true));
        } else if self.parked_count() < self.opts.queue_depth {
            let mut c = Conn::new(stream, false);
            c.queue_reply(b"busy daemon at capacity; connection queued\n");
            self.conns.insert(id, c);
            self.stats.busy += 1;
            let queued = self.parked_count() as u64;
            self.stats.queued_peak = self.stats.queued_peak.max(queued);
            self.log(id, "connection parked: daemon at capacity", started);
        } else {
            // Over the limit AND over the queue: this connection will
            // be rejected — but not instantly. A short grace keeps
            // `control stop` reachable on a saturated daemon and lets a
            // slot freed in the meantime promote it instead.
            let mut c = Conn::new(stream, false);
            c.reject_deadline = Some(started + Duration::from_secs(2));
            self.conns.insert(id, c);
        }
    }

    /// Sends the admission-rejection error to one over-quota connection
    /// whose grace ran out (or that asked for non-control service).
    fn reject(&mut self, id: u64) {
        let msg = format!(
            "daemon at its connection limit ({}) with a full admission queue ({}); \
             retry shortly",
            self.opts.max_clients, self.opts.queue_depth
        );
        if let Some(c) = self.conns.get_mut(&id) {
            c.queue_reply(format!("error {}\n", escape(&msg)).as_bytes());
            c.close_after_write = true;
            c.reject_deadline = None;
        }
        self.stats.rejected += 1;
        self.log(
            id,
            "connection rejected: admission queue full",
            Instant::now(),
        );
    }

    /// Removes finished connections and promotes parked ones FIFO into
    /// freed admission slots.
    fn reap_and_promote(&mut self) {
        self.conns.retain(|_, c| {
            let busy = matches!(c.pending, Pending::Busy);
            if busy {
                // A worker will complete this request; the connection
                // object must survive to route the reply (even if only
                // into a failed write).
                return true;
            }
            if c.dead {
                return false;
            }
            if c.close_after_write && c.unsent() == 0 {
                return false;
            }
            if c.eof && c.unsent() == 0 {
                return false;
            }
            true
        });
        let mut free = self.opts.max_clients.saturating_sub(self.admitted_count());
        if free == 0 {
            return;
        }
        for (_, c) in self.conns.iter_mut() {
            if free == 0 {
                break;
            }
            if !c.admitted && !c.close_after_write {
                c.admitted = true;
                c.reject_deadline = None;
                free -= 1;
            }
        }
    }

    fn progress_all(&mut self) {
        // lint:allow(map-iter): BTreeMap keys iterate in sorted id order.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.progress_conn(id);
        }
    }

    fn progress_conn(&mut self, id: u64) {
        loop {
            let Some(c) = self.conns.get_mut(&id) else {
                return;
            };
            if c.dead {
                return;
            }
            match std::mem::replace(&mut c.pending, Pending::Idle) {
                Pending::Busy => {
                    c.pending = Pending::Busy;
                    return;
                }
                Pending::Body {
                    line,
                    started,
                    need,
                    mut body,
                } => {
                    let take = (need - body.len()).min(c.rbuf.len());
                    body.extend_from_slice(&c.rbuf[..take]);
                    c.consume(take);
                    if body.len() < need {
                        if c.eof {
                            // Mid-body EOF: the frame can never
                            // complete; drop the connection.
                            c.dead = true;
                            return;
                        }
                        c.pending = Pending::Body {
                            line,
                            started,
                            need,
                            body,
                        };
                        return;
                    }
                    let bytes_in = (line.len() + 1 + need) as u64;
                    self.dispatch(
                        id,
                        VERB_STORE,
                        started,
                        Task::Store {
                            conn: id,
                            started,
                            bytes_in,
                            line,
                            body: Some(body),
                        },
                        bytes_in,
                    );
                }
                Pending::Drain { need, msg, started } => {
                    let take = need.min(c.rbuf.len());
                    c.consume(take);
                    let left = need - take;
                    if left > 0 {
                        if c.eof {
                            c.dead = true;
                            return;
                        }
                        c.pending = Pending::Drain {
                            need: left,
                            msg,
                            started,
                        };
                        return;
                    }
                    let reply = format!("error {}\n", escape(&msg));
                    c.queue_reply(reply.as_bytes());
                    let out = reply.len() as u64;
                    self.record(VERB_STORE, 0, out, 1, started);
                    self.log(id, &format!("store request refused: {msg}"), started);
                }
                Pending::Batch {
                    want,
                    mut lines,
                    started,
                    mut bytes_in,
                } => {
                    while lines.len() < want {
                        match c.next_line() {
                            Some(Ok(line)) => {
                                bytes_in += (line.len() + 1) as u64;
                                lines.push(Ok(line));
                            }
                            Some(Err(())) => lines.push(Err(format!(
                                "request line exceeds {MAX_REQUEST_LINE} bytes and was discarded"
                            ))),
                            None => {
                                if c.eof {
                                    c.dead = true;
                                    return;
                                }
                                c.pending = Pending::Batch {
                                    want,
                                    lines,
                                    started,
                                    bytes_in,
                                };
                                return;
                            }
                        }
                    }
                    self.finish_batch_frame(id, lines, started, bytes_in);
                }
                Pending::Idle => {
                    if self.shutdown {
                        return;
                    }
                    let Some(c) = self.conns.get_mut(&id) else {
                        return;
                    };
                    if !c.admitted {
                        // Parked: answer control lines only; anything
                        // else waits, buffered, for promotion — except
                        // on a rejection-grace connection, where a
                        // non-control line settles the matter now.
                        let rejecting = c.reject_deadline.is_some();
                        let Some(line) = c.peek_line() else { return };
                        if line.split_whitespace().next() != Some("control") {
                            if rejecting {
                                self.reject(id);
                            }
                            return;
                        }
                        let _ = c.next_line();
                        self.handle_control(id, &line);
                        continue;
                    }
                    match c.next_line() {
                        Some(Ok(line)) => {
                            if line.trim().is_empty() {
                                continue;
                            }
                            self.handle_line(id, line);
                        }
                        Some(Err(())) => {
                            let started = Instant::now();
                            let reply = format!(
                                "error {}\n",
                                escape(&format!(
                                    "request line exceeds {MAX_REQUEST_LINE} bytes and was \
                                     discarded"
                                ))
                            );
                            c.queue_reply(reply.as_bytes());
                            let out = reply.len() as u64;
                            self.record(VERB_JOB, 0, out, 1, started);
                            self.log(id, "oversize request line discarded", started);
                        }
                        None => return,
                    }
                }
            }
        }
    }

    /// Frames and routes one complete request line from an admitted,
    /// idle connection.
    fn handle_line(&mut self, id: u64, line: String) {
        let started = Instant::now();
        let bytes_in = (line.len() + 1) as u64;
        let first = line.split_whitespace().next().unwrap_or("");
        match first {
            "control" => self.handle_control(id, &line),
            "store" => {
                let toks: Vec<&str> = line.split_whitespace().collect();
                let len_tok = match toks.as_slice() {
                    ["store", "put", _, _, len]
                    | ["store", "put-sa", len]
                    | ["store", "audit", _, _, len] => Some(*len),
                    _ => None,
                };
                match len_tok {
                    None => self.dispatch(
                        id,
                        VERB_STORE,
                        started,
                        Task::Store {
                            conn: id,
                            started,
                            bytes_in,
                            line,
                            body: None,
                        },
                        bytes_in,
                    ),
                    Some(tok) => match tok.parse::<usize>() {
                        Ok(len) if len <= crate::store::MAX_WIRE_BODY => {
                            if let Some(c) = self.conns.get_mut(&id) {
                                c.pending = Pending::Body {
                                    line,
                                    started,
                                    need: len,
                                    body: Vec::new(),
                                };
                            }
                        }
                        Ok(len) => {
                            // Refused but drained, so the refusal leaves
                            // the connection protocol-aligned.
                            if let Some(c) = self.conns.get_mut(&id) {
                                c.pending = Pending::Drain {
                                    need: len,
                                    msg: format!("body of {len} bytes exceeds the 64 MiB cap"),
                                    started,
                                };
                            }
                        }
                        Err(_) => {
                            let msg = format!("invalid body length `{tok}`");
                            self.reply_error(id, VERB_STORE, started, bytes_in, &msg, false);
                            self.log(id, &format!("store request refused: {msg}"), started);
                        }
                    },
                }
            }
            "batch" => {
                let arg = line.split_whitespace().nth(1).unwrap_or("");
                match arg.parse::<usize>() {
                    Ok(0) => {
                        let msg = format!("{BATCH_REFUSED}empty frame (batch N needs N >= 1)");
                        self.reply_error(id, VERB_BATCH, started, bytes_in, &msg, false);
                        self.log(id, "empty batch frame refused", started);
                    }
                    Ok(n) if n > MAX_BATCH_JOBS => {
                        // The declared job lines are NOT read: a refused
                        // frame this large is not worth draining, so the
                        // connection closes after the error instead.
                        let msg = format!(
                            "{BATCH_REFUSED}{n} jobs exceed the daemon cap ({MAX_BATCH_JOBS})"
                        );
                        self.reply_error(id, VERB_BATCH, started, bytes_in, &msg, true);
                        self.log(id, "oversize batch frame refused", started);
                    }
                    Ok(n) => {
                        if let Some(c) = self.conns.get_mut(&id) {
                            c.pending = Pending::Batch {
                                want: n,
                                lines: Vec::with_capacity(n),
                                started,
                                bytes_in,
                            };
                        }
                    }
                    Err(_) => {
                        let msg =
                            format!("{BATCH_REFUSED}invalid header `{line}` (expected `batch N`)");
                        self.reply_error(id, VERB_BATCH, started, bytes_in, &msg, true);
                        self.log(id, "malformed batch header refused", started);
                    }
                }
            }
            _ => self.dispatch(
                id,
                VERB_JOB,
                started,
                Task::Job {
                    conn: id,
                    started,
                    bytes_in,
                    line,
                },
                bytes_in,
            ),
        }
    }

    /// All N lines of a `batch N` frame are in hand: parse them, shed
    /// the frame or queue its runnable jobs in frame order (the worker
    /// queue is FIFO, so jobs start in the order the client sent them).
    fn finish_batch_frame(
        &mut self,
        id: u64,
        lines: Vec<Result<String, String>>,
        started: Instant,
        bytes_in: u64,
    ) {
        if self.inflight[VERB_BATCH] >= self.shed_cap {
            self.stats.shed += 1;
            let msg = format!("{BATCH_REFUSED}daemon overloaded (batch backlog); retry shortly");
            self.reply_error(id, VERB_BATCH, started, bytes_in, &msg, false);
            self.log(id, "batch frame shed: backlog full", started);
            return;
        }
        let jobs = lines.len() as u64;
        let mut slots: Vec<OnceLock<(String, bool)>> = Vec::with_capacity(lines.len());
        let mut runnable: Vec<(usize, JobRequest)> = Vec::new();
        for (i, entry) in lines.into_iter().enumerate() {
            let slot = OnceLock::new();
            match entry.and_then(|l| JobRequest::parse_line(&l)) {
                Ok(req) => runnable.push((i, req)),
                Err(e) => {
                    let _ = slot.set((format!("error {}\n", escape(&e)), true));
                }
            }
            slots.push(slot);
        }
        if runnable.is_empty() {
            // Nothing to execute: the frame's reply is all error lines,
            // assembled inline.
            let mut reply = String::new();
            for slot in &slots {
                if let Some((text, _)) = slot.get() {
                    reply.push_str(text);
                }
            }
            if let Some(c) = self.conns.get_mut(&id) {
                c.queue_reply(reply.as_bytes());
            }
            let out = reply.len() as u64;
            self.record(VERB_BATCH, bytes_in, out, jobs, started);
            self.stats.batches += 1;
            self.stats.batch_jobs += jobs;
            self.stats.batch_largest = self.stats.batch_largest.max(jobs);
            self.log(id, &format!("batch {jobs} jobs ({jobs} errors)"), started);
            return;
        }
        let batch = Arc::new(BatchShared {
            conn: id,
            started,
            bytes_in,
            jobs,
            slots,
            remaining: AtomicUsize::new(runnable.len()),
        });
        self.inflight[VERB_BATCH] += 1;
        for (index, req) in runnable {
            self.sh.push_task(Task::BatchJob {
                batch: batch.clone(),
                index,
                req,
            });
        }
        self.sh.cv.notify_all();
        if let Some(c) = self.conns.get_mut(&id) {
            c.pending = Pending::Busy;
        }
    }

    /// Queues a task for the workers, or sheds it protocol-clean when
    /// that verb's in-flight backlog is at its cap.
    fn dispatch(&mut self, id: u64, verb: usize, started: Instant, task: Task, bytes_in: u64) {
        if self.inflight[verb] >= self.shed_cap {
            self.stats.shed += 1;
            let name = crate::api::proto::STAT_VERBS[verb];
            let msg = format!("daemon overloaded ({name} backlog); retry shortly");
            self.reply_error(id, verb, started, bytes_in, &msg, false);
            self.log(id, &format!("{name} request shed: backlog full"), started);
            return;
        }
        self.inflight[verb] += 1;
        self.sh.push_task(task);
        if let Some(c) = self.conns.get_mut(&id) {
            c.pending = Pending::Busy;
        }
    }

    /// Answers `control` verbs inline — they must work even when every
    /// worker is busy (that is the whole point of `control stop`).
    fn handle_control(&mut self, id: u64, line: &str) {
        let started = Instant::now();
        let bytes_in = (line.len() + 1) as u64;
        match line {
            "control stop" => {
                self.record(VERB_CONTROL, bytes_in, 12, 0, started);
                if let Some(c) = self.conns.get_mut(&id) {
                    c.queue_reply(b"ok stopping\n");
                    c.close_after_write = true;
                }
                self.log(id, "stop requested; draining", started);
                self.begin_shutdown();
            }
            "control stats" => {
                self.record(VERB_CONTROL, bytes_in, 0, 0, started);
                let text = self.snapshot().to_text();
                self.stats.verbs[VERB_CONTROL].bytes_out += text.len() as u64;
                if let Some(c) = self.conns.get_mut(&id) {
                    c.queue_reply(text.as_bytes());
                }
                self.log(id, "stats snapshot served", started);
            }
            "control fsck-status" => {
                self.record(VERB_CONTROL, bytes_in, 0, 0, started);
                let text = self.stats.fsck.to_text();
                self.stats.verbs[VERB_CONTROL].bytes_out += text.len() as u64;
                if let Some(c) = self.conns.get_mut(&id) {
                    c.queue_reply(text.as_bytes());
                }
                self.log(id, "fsck-status served", started);
            }
            other => {
                let msg = format!("unknown control request `{other}`");
                self.reply_error(id, VERB_CONTROL, started, bytes_in, &msg, false);
                self.log(id, "unknown control request refused", started);
            }
        }
    }

    /// Queues an `error` reply and counts it.
    fn reply_error(
        &mut self,
        id: u64,
        verb: usize,
        started: Instant,
        bytes_in: u64,
        msg: &str,
        close: bool,
    ) {
        let reply = format!("error {}\n", escape(msg));
        let out = reply.len() as u64;
        if let Some(c) = self.conns.get_mut(&id) {
            c.queue_reply(reply.as_bytes());
            if close {
                c.close_after_write = true;
            }
        }
        self.record(verb, bytes_in, out, 1, started);
    }

    fn record(
        &mut self,
        verb: usize,
        bytes_in: u64,
        bytes_out: u64,
        errors: u64,
        started: Instant,
    ) {
        let v = &mut self.stats.verbs[verb];
        v.requests += 1;
        v.errors += errors;
        v.bytes_in += bytes_in;
        v.bytes_out += bytes_out;
        let us = started.elapsed().as_micros();
        let mut bucket = LATENCY_BUCKETS_US.len();
        for (i, cap) in LATENCY_BUCKETS_US.iter().enumerate() {
            if us <= u128::from(*cap) {
                bucket = i;
                break;
            }
        }
        v.latency[bucket] += 1;
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut s = self.stats;
        s.conns_active = self.conns.len() as u64;
        let ps = self.sh.service.stats();
        s.store_hits = ps.store.hits();
        s.store_misses = ps.store.misses();
        s
    }

    fn apply_completions(&mut self) {
        let done = std::mem::take(&mut *self.sh.done.lock().expect("completion lock"));
        for comp in done {
            self.inflight[comp.verb] = self.inflight[comp.verb].saturating_sub(1);
            let out = comp.reply.len() as u64;
            self.record(comp.verb, comp.bytes_in, out, comp.errors, comp.started);
            if comp.verb == VERB_BATCH {
                self.stats.batches += 1;
                self.stats.batch_jobs += comp.batch_jobs;
                self.stats.batch_largest = self.stats.batch_largest.max(comp.batch_jobs);
            }
            if let Some(run) = comp.fsck {
                let runs = self.stats.fsck.runs + run.runs;
                self.stats.fsck = FsckStatus { runs, ..run };
            }
            self.log(comp.conn, &comp.summary, comp.started);
            if let Some(c) = self.conns.get_mut(&comp.conn) {
                c.queue_reply(&comp.reply);
                if matches!(c.pending, Pending::Busy) {
                    c.pending = Pending::Idle;
                }
            }
        }
    }

    /// The periodic SA-shard flush: a killed daemon loses at most one
    /// interval of training, not everything since startup.
    fn flush_tick(&mut self) {
        let Some(every) = self.opts.flush_every else {
            return;
        };
        if self.shutdown || self.last_flush.elapsed() < every {
            return;
        }
        if self.sh.flush_inflight.swap(true, Ordering::SeqCst) {
            return;
        }
        self.last_flush = Instant::now();
        self.sh.push_task(Task::Flush);
    }

    fn begin_shutdown(&mut self) {
        if self.shutdown {
            return;
        }
        self.shutdown = true;
        self.drain_deadline = Some(Instant::now() + Duration::from_secs(10));
        // Parked connections will never be served now; close them once
        // their (busy-line) buffers flush.
        for (_, c) in self.conns.iter_mut() {
            if !c.admitted {
                c.close_after_write = true;
            }
        }
    }

    /// True when every in-flight request finished and every reply made
    /// it onto the wire (or its connection died).
    fn drained(&self) -> bool {
        self.inflight.iter().sum::<u64>() == 0
            && self.sh.queue_is_empty()
            && self.conns.iter().all(|(_, c)| c.unsent() == 0 || c.dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::proto::{request, RequestError};

    #[test]
    fn tcp_daemon_round_trips_a_request() {
        // TCP on an OS-assigned port keeps this test portable (the unix
        // socket path is exercised by the root integration tests).
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let endpoint = server.endpoint().unwrap();
        let service = Arc::new(Service::new());
        std::thread::spawn(move || {
            let _ = server.serve(service);
        });
        let req = JobRequest::suite("wang").width(4).sa_width(4).cycles(100);
        let remote = request(&endpoint, &req).unwrap();
        let local = Service::new().execute(&req).unwrap();
        assert_eq!(remote.result.luts, local.result.luts);
        assert_eq!(
            remote.result.power.total_transitions,
            local.result.power.total_transitions
        );
        // Errors come back as protocol errors, not hung connections.
        let err = request(&endpoint, &JobRequest::suite("nope")).unwrap_err();
        assert!(matches!(err, RequestError::Remote(_)), "{err}");
    }
}
