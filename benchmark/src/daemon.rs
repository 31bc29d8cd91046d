//! The `hlp serve` daemon under test, and `/proc` readings of CPU time
//! and peak memory for any process.

use hlpower::api::{self, Endpoint};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of the daemon: one per core of the 2-core host the
/// benchmark was sized on.
pub const WORKERS: usize = 2;

/// A running `hlp serve --workers 2` on a Unix socket with its own
/// store. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    endpoint: Endpoint,
}

impl Daemon {
    /// Starts the daemon and waits until its socket accepts.
    ///
    /// # Errors
    ///
    /// Spawn failures, an early exit, or no socket within 30 s.
    pub fn start(hlp: &Path, socket: &Path, store: &Path) -> io::Result<Daemon> {
        let child = Command::new(hlp)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--store")
            .arg(store)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            endpoint: Endpoint::Unix(PathBuf::from(socket)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(socket).is_err() {
            let child = daemon.child.as_mut().expect("daemon child present");
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "hlp serve exited early: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(
                    "hlp serve did not open its socket in 30 s",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// Where clients dial.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon child present").id()
    }

    /// Asks the daemon to stop, waits for it, and kills it if it has not
    /// exited within 30 s.
    ///
    /// # Errors
    ///
    /// The stop request or the wait failed.
    pub fn stop(mut self) -> io::Result<()> {
        let mut child = self.child.take().expect("daemon child present");
        let asked = api::stop_daemon(&self.endpoint);
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait()?.is_none() {
            if asked.is_err() || Instant::now() > deadline {
                child.kill()?;
                child.wait()?;
                return Err(io::Error::other("hlp serve did not stop when asked"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU time of process `pid`, every thread included,
/// in nanoseconds.
///
/// # Errors
///
/// `/proc/PID/stat` is unreadable or malformed.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold
    // spaces: state is field 3, utime 14 and stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    let ticks = tick(11)? + tick(12)?;
    // SAFETY: sysconf takes a plain integer and has no memory-safety
    // preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let hz = u64::try_from(hz).ok().filter(|&h| h > 0).unwrap_or(100);
    Ok(ticks * 1_000_000_000 / hz)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
///
/// # Errors
///
/// `/proc/PID/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
    Ok(kb as f64 / 1024.0)
}

/// Resets the peak resident set size (`VmHWM`) of process `pid` to its
/// current resident size, so [`peak_rss_mb`] then reads the peak since
/// this call.
///
/// # Errors
///
/// `/proc/PID/clear_refs` is not writable.
pub fn reset_peak_rss(pid: u32) -> io::Result<()> {
    // `5` resets the peak RSS counter (proc(5), clear_refs).
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
}

/// Copies a store directory tree (regular files and directories).
///
/// # Errors
///
/// Any filesystem failure.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        let ty = entry.file_type()?;
        if ty.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else if ty.is_file() {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
