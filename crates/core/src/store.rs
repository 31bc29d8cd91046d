//! Content-addressed artifact store for the experiment flow.
//!
//! The paper's binder is driven by repeated glitch/power estimates over
//! partial datapaths, and the experiment matrix recomputes the same
//! elaborate→map→simulate work across binders, seeds, and sweeps. The
//! [`ArtifactStore`] makes every expensive stage output a named,
//! persistent, content-addressed artifact so warm reruns are near-free
//! and shard workers can pool their work:
//!
//! * **prepared** — schedule + register binding per
//!   [`crate::fingerprint::prepared_fingerprint`];
//! * **netlists** — elaborated + technology-mapped netlists (exact
//!   [`netlist::binio`] codec, so a cached netlist simulates
//!   bit-identically to the original) per
//!   [`crate::fingerprint::netlist_fingerprint`];
//! * **sims** — simulation summaries per
//!   [`crate::fingerprint::sim_fingerprint`] (one mapped netlist serves any
//!   number of seed/lane/cycle budgets);
//! * **satables** — the SA precalculation table, sharded by
//!   `(mode, width, k)` and **merged on absorb** (existing entries win;
//!   conflicts are counted and surfaced, never silently dropped).
//!
//! # Format
//!
//! Every artifact is an `hlpbin v1` container ([`netlist::binio`]):
//! fixed-width little-endian fields behind a checksum, decoded straight
//! out of an mmap'd file with no per-node text parsing, so a warm `get`
//! is bounded by the wire (or the page cache), not the parser.
//! Per-kind decode/encode nanosecond counters are kept on every handle
//! ([`ArtifactStore::codec`]) and surfaced through
//! [`crate::pipeline::PipelineStats`].
//!
//! All writes are atomic (temp file + rename into place), so concurrent
//! shard workers and interrupted runs can never leave a torn artifact.
//! Loads of corrupt or version-mismatched files are treated as misses.
//! Hit/miss counters are kept per artifact kind and surfaced through
//! [`crate::pipeline::PipelineStats`].
//!
//! # Backends
//!
//! Where the bytes live is a [`StoreBackend`]:
//!
//! * [`LocalStore`] — the on-disk layout below (the default;
//!   `--store DIR`);
//! * [`RemoteStore`] — a client of the `hlp serve` daemon's artifact
//!   verbs (`--store remote:ADDR`), so any number of workers share one
//!   hot store over a unix socket or TCP without a shared filesystem.
//!
//! The remote wire protocol rides the same socket as job requests and is
//! line-oriented with length-prefixed bodies (artifact bytes travel
//! verbatim, with **no transcode on either end**):
//!
//! ```text
//! store get KIND NAME        →  data LEN\n<LEN bytes>  |  absent
//! store put KIND NAME LEN\n<LEN bytes>                 →  ok
//! store stat KIND NAME       →  present  |  absent
//! store list KIND            →  names N\n<N name lines>
//! store put-sa LEN\n<LEN bytes of an hlpbin SaTable>  →  ok I M C
//! store audit KIND NAME LEN\n<LEN bytes>  →  ok SUMMARY  |  error MSG
//! store fsck MODE SCOPE      →  bad KIND NAME Q PROBLEM (per defect)
//!                               done SCANNED SKIPPED DEFECTIVE QUAR
//! ```
//!
//! (`KIND` is an [`ArtifactKind`] by its directory name; any other
//! `KIND` is refused with an `error MSG` line. `put-sa` merges
//! server-side under the daemon's shard lock and reports
//! inserted/matched/conflicting counts; failures are `error MSG`
//! lines.) `store fsck` (`MODE` ∈ `off|repair`, `SCOPE` ∈ `fast|full`)
//! audits the daemon's store **in place** — no artifact body crosses
//! the wire; only one verdict line per defective slot and a summary
//! come back, with `--repair` quarantine honored on the daemon host.
//! `store audit` checks bytes without storing them. A warm run against
//! a remote store is byte-identical to the same run against the
//! daemon's directory mounted locally: the backend only moves bytes,
//! every encoding decision stays in this module.
//!
//! A slot holds exactly what the flow computes for its name, and
//! nothing here rewrites one to other bytes: a defective slot is
//! quarantined (`fsck --repair`) and the next run that needs it
//! recomputes it.
//!
//! # On-disk layout
//!
//! ```text
//! STORE/
//!   prepared/<fp>.bin     fp = prepared_fingerprint(cdfg, rc, cfg)
//!   netlists/<fp>.bin     fp = netlist_fingerprint(prepared, fb, cfg)
//!   sims/<fp>.bin         fp = sim_fingerprint(netlist, cfg)
//!   satables/<mode>-w<W>-k<K>.bin
//! ```
//!
//! `.txt` slots written by older versions in a retired text encoding are
//! not artifacts: lookups, listings and `fsck` ignore them (the store is
//! a pure cache, so each reads as a miss and is recomputed to `.bin`),
//! while `usage` and `gc` still count them so their disk can be
//! reclaimed.
//!
//! # Examples
//!
//! ```no_run
//! use hlpower::store::ArtifactStore;
//! use hlpower::{FlowConfig, Pipeline};
//! use std::sync::Arc;
//!
//! let store = Arc::new(ArtifactStore::open("/tmp/hlpower-store").unwrap());
//! let pipeline = Pipeline::with_store(FlowConfig::fast(), store);
//! // ... run_matrix as usual; a second process pointed at the same
//! // directory — or at `remote:ADDR` of a daemon serving it — skips
//! // every map/simulate stage it finds cached.
//! ```

use crate::api::proto::{read_reply_line, Stream};
use crate::api::{unescape, Endpoint, RequestError};
use crate::audit::{self, FsckOptions};
use crate::fingerprint::Fingerprint;
use crate::regbind::RegisterBinding;
use crate::satable::{AbsorbStats, SaMode, SaTable, SharedSaTable};
use cdfg::{Lifetimes, ResourceLibrary, Schedule};
use gatesim::SimStats;
use netlist::{binio, parse_netlist_text, write_netlist_text, Netlist};
use std::fmt;
use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The four artifact kinds of a store. A kind owns its directory name
/// (also its name on the wire), its `hlpbin` payload tag, the rule its
/// slot names follow, and the decode-and-audit of its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Schedule + register binding, named by
    /// [`crate::fingerprint::prepared_fingerprint`].
    Prepared,
    /// Elaborated + technology-mapped netlists, named by
    /// [`crate::fingerprint::netlist_fingerprint`].
    Netlists,
    /// Simulation summaries, named by
    /// [`crate::fingerprint::sim_fingerprint`].
    Sims,
    /// SA-table shards, named `<mode>-w<W>-k<K>`.
    Satables,
}

impl ArtifactKind {
    /// Every kind, in walk order (the order of `fsck`, `usage`, `gc`
    /// and `merge`).
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Prepared,
        ArtifactKind::Netlists,
        ArtifactKind::Sims,
        ArtifactKind::Satables,
    ];

    /// The kind's subdirectory of a local store, and its name on the
    /// wire.
    pub const fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Prepared => "prepared",
            ArtifactKind::Netlists => "netlists",
            ArtifactKind::Sims => "sims",
            ArtifactKind::Satables => "satables",
        }
    }

    /// The kind [`ArtifactKind::dir`] names, or `None` for any other
    /// string.
    pub fn parse(name: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL
            .into_iter()
            .find(|kind| kind.dir() == name)
    }

    /// The `hlpbin` payload tag a binary artifact of this kind carries.
    const fn payload(self) -> [u8; 4] {
        match self {
            ArtifactKind::Prepared => binio::KIND_PREPARED,
            ArtifactKind::Netlists => binio::KIND_MAPPED,
            ArtifactKind::Sims => binio::KIND_SIM,
            ArtifactKind::Satables => binio::KIND_SA_TABLE,
        }
    }

    /// Position in [`ArtifactKind::ALL`], for per-kind counter arrays.
    const fn index(self) -> usize {
        // lint:allow(trunc-cast): a fieldless enum's discriminant is 0..=3
        self as usize
    }

    /// The file backing `(self, name)` under a local store root.
    pub(crate) fn slot(self, root: &Path, name: &str) -> PathBuf {
        root.join(self.dir()).join(format!("{name}.bin"))
    }

    /// Checks `name` against the kind's addressing rule: a 32-hex-digit
    /// content fingerprint, or a `<mode>-w<W>-k<K>` shard stem for
    /// `satables`.
    fn check_name(self, name: &str) -> Result<(), String> {
        match self {
            ArtifactKind::Prepared | ArtifactKind::Netlists | ArtifactKind::Sims => {
                Fingerprint::parse(name).map(drop).ok_or_else(|| {
                    format!("name `{name}` is not a 32-hex-digit content fingerprint")
                })
            }
            ArtifactKind::Satables => parse_sa_shard_name(name)
                .map(drop)
                .ok_or_else(|| format!("name `{name}` is not a `<mode>-w<W>-k<K>` shard stem")),
        }
    }

    /// Decodes `data` under the kind's codec and audits what it holds:
    /// a mapped netlist must pass the full semantic checker, and an SA
    /// shard's header must agree with the `name` it is filed under
    /// (which [`ArtifactKind::check_name`] has already accepted).
    fn check_payload(self, name: &str, data: &[u8]) -> Result<(), String> {
        match self {
            ArtifactKind::Prepared => {
                decode_prepared(data).ok_or("does not decode as a prepared artifact")?;
            }
            ArtifactKind::Netlists => {
                let artifact =
                    decode_mapped_unchecked(data).ok_or("does not decode as a mapped artifact")?;
                // One line on failure: the daemon embeds it in a
                // protocol reply.
                checked_netlist(&artifact.netlist, "mapped netlist")?;
            }
            ArtifactKind::Sims => {
                SimStats::from_summary_bin(data)
                    .map_err(|_| "does not decode as a simulation summary")?;
            }
            ArtifactKind::Satables => {
                let table =
                    SaTable::from_bin(data).map_err(|_| "does not decode as an SA table")?;
                if parse_sa_shard_name(name) != Some((table.mode(), table.width(), table.k())) {
                    return Err(format!(
                        "shard header ({}) disagrees with its name `{name}`",
                        sa_shard_name(table.mode(), table.width(), table.k())
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.dir())
    }
}

/// Largest artifact body the wire protocol will frame or accept. Mapped
/// netlists of the paper suite are well under a megabyte; the cap only
/// exists so a garbage length prefix cannot make either side allocate
/// unboundedly.
pub(crate) const MAX_WIRE_BODY: usize = 64 << 20;

/// Whether `name` is a safe artifact file stem: fingerprints and SA
/// shard names only ever need `[A-Za-z0-9._-]`, and rejecting everything
/// else keeps wire-supplied names from escaping the store directory.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 160
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Whether a directory entry is a finished artifact file for
/// `usage`/`gc` accounting: `.bin` slots, plus the `.txt` slots older
/// versions wrote in the retired text encoding — they no longer serve
/// lookups, but their disk must stay visible and reclaimable.
fn is_artifact_file(name: &str) -> bool {
    name.ends_with(".txt") || name.ends_with(".bin")
}

/// Whether a directory entry is a quarantined artifact (`fsck --repair`
/// renames defective files to `*.bad`; they stop serving lookups but
/// `usage`/`gc` still report them so the disk they hold stays visible).
fn is_quarantine_file(name: &str) -> bool {
    name.ends_with(".bad")
}

/// Hit/miss counters per artifact kind — the observable evidence that a
/// warm rerun really skipped its map/simulate stages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Prepared-artifact lookups served from the store.
    pub prepared_hits: u64,
    /// Prepared-artifact lookups that missed.
    pub prepared_misses: u64,
    /// Mapped-netlist lookups served from the store.
    pub netlist_hits: u64,
    /// Mapped-netlist lookups that missed.
    pub netlist_misses: u64,
    /// Simulation-summary lookups served from the store.
    pub sim_hits: u64,
    /// Simulation-summary lookups that missed.
    pub sim_misses: u64,
}

impl StoreCounts {
    /// Total lookups served from the store across all artifact kinds.
    pub fn hits(&self) -> u64 {
        self.prepared_hits + self.netlist_hits + self.sim_hits
    }

    /// Total lookups that missed across all artifact kinds.
    pub fn misses(&self) -> u64 {
        self.prepared_misses + self.netlist_misses + self.sim_misses
    }

    /// The lookups that happened after `before` was snapshotted
    /// (saturating, so racing counters never underflow).
    pub fn since(&self, before: &StoreCounts) -> StoreCounts {
        StoreCounts {
            prepared_hits: self.prepared_hits.saturating_sub(before.prepared_hits),
            prepared_misses: self.prepared_misses.saturating_sub(before.prepared_misses),
            netlist_hits: self.netlist_hits.saturating_sub(before.netlist_hits),
            netlist_misses: self.netlist_misses.saturating_sub(before.netlist_misses),
            sim_hits: self.sim_hits.saturating_sub(before.sim_hits),
            sim_misses: self.sim_misses.saturating_sub(before.sim_misses),
        }
    }
}

impl fmt::Display for StoreCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/{}, {} {}/{}, {} {}/{} (hits/lookups)",
            ArtifactKind::Prepared,
            self.prepared_hits,
            self.prepared_hits + self.prepared_misses,
            ArtifactKind::Netlists,
            self.netlist_hits,
            self.netlist_hits + self.netlist_misses,
            ArtifactKind::Sims,
            self.sim_hits,
            self.sim_hits + self.sim_misses,
        )
    }
}

/// The live counters behind [`StoreCounts`] and [`CodecNanos`], one
/// slot per [`ArtifactKind`] (SA shards have no hit/miss accounting).
#[derive(Debug, Default)]
struct KindCounters {
    hits: [AtomicU64; 4],
    misses: [AtomicU64; 4],
    decode_ns: [AtomicU64; 4],
    encode_ns: [AtomicU64; 4],
}

/// A snapshot of one per-kind counter array.
fn load_all(counters: &[AtomicU64; 4]) -> [u64; 4] {
    counters.each_ref().map(|c| c.load(Ordering::Relaxed))
}

/// A technology-mapped netlist plus the backend metrics a warm run needs
/// to rebuild a [`crate::FlowResult`] without re-elaborating.
#[derive(Clone, Debug)]
pub struct MappedArtifact {
    /// The mapped netlist (exact — simulating it is bit-identical to
    /// simulating the netlist that was cached).
    pub netlist: Netlist,
    /// 4-LUT count after mapping.
    pub luts: usize,
    /// Mapped depth in LUT levels.
    pub depth: u32,
    /// Glitch-aware estimated switching activity of the mapped netlist.
    pub estimated_sa: f64,
    /// Register words the elaborated datapath instantiated.
    pub registers: usize,
}

impl MappedArtifact {
    /// Assembles the artifact from a mapper result plus the elaborated
    /// datapath's register count — the one place the field mapping
    /// lives, shared by the flow and both pipeline store paths.
    pub fn from_mapped(mapped: mapper::MappedNetlist, registers: usize) -> MappedArtifact {
        MappedArtifact {
            netlist: mapped.netlist,
            luts: mapped.stats.luts,
            depth: mapped.stats.depth,
            estimated_sa: mapped.stats.estimated_sa,
            registers,
        }
    }
}

/// What [`ArtifactStore::merge_from`] did, per artifact kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Content-addressed files copied into the destination.
    pub copied: usize,
    /// Files already present with identical bytes.
    pub identical: usize,
    /// Files present in both stores with **different** bytes — a key
    /// collision or version skew; the destination's copy is kept.
    pub conflicting: usize,
    /// SA-table entries merged across all shards.
    pub sa: AbsorbStats,
}

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} artifacts copied, {} identical, {} conflicting; SA entries: {}",
            self.copied, self.identical, self.conflicting, self.sa
        )
    }
}

/// Size accounting for one artifact kind (`hlp gc` reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindUsage {
    /// Finished artifact files of this kind.
    pub files: usize,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Quarantined `*.bad` files `hlp fsck --repair` set aside. They no
    /// longer serve lookups but still occupy disk, so usage accounting
    /// must show them.
    pub quarantined: usize,
    /// Total size of the quarantined files in bytes.
    pub quarantined_bytes: u64,
}

/// Per-kind size accounting of a whole store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreUsage {
    kinds: [KindUsage; 4],
}

impl StoreUsage {
    /// The accounting of one artifact kind.
    pub fn of(&self, kind: ArtifactKind) -> KindUsage {
        self.kinds[kind.index()]
    }

    /// Total across every artifact kind.
    pub fn total(&self) -> KindUsage {
        let kinds = &self.kinds;
        KindUsage {
            files: kinds.iter().map(|k| k.files).sum(),
            bytes: kinds.iter().map(|k| k.bytes).sum(),
            quarantined: kinds.iter().map(|k| k.quarantined).sum(),
            quarantined_bytes: kinds.iter().map(|k| k.quarantined_bytes).sum(),
        }
    }
}

impl fmt::Display for StoreUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in ArtifactKind::ALL {
            let k = self.of(kind);
            write!(f, "{kind:9} {:6} file(s) {:12} bytes", k.files, k.bytes)?;
            if k.quarantined > 0 {
                write!(
                    f,
                    "  [{} quarantined, {} bytes]",
                    k.quarantined, k.quarantined_bytes
                )?;
            }
            writeln!(f)?;
        }
        let total = self.total();
        write!(
            f,
            "{:9} {:6} file(s) {:12} bytes",
            "total", total.files, total.bytes
        )?;
        if total.quarantined > 0 {
            write!(
                f,
                "  [{} quarantined, {} bytes]",
                total.quarantined, total.quarantined_bytes
            )?;
        }
        Ok(())
    }
}

/// What [`ArtifactStore::gc`] may prune. With both limits `None`, gc
/// only removes leftover temp files from interrupted writes.
#[derive(Clone, Copy, Debug)]
pub struct GcPolicy {
    /// Remove artifacts whose file is older than this.
    pub max_age: Option<Duration>,
    /// After the age pass, remove oldest-first until the store's total
    /// artifact size is at most this many bytes.
    pub max_bytes: Option<u64>,
    /// Temp files younger than this survive the leftover sweep. A
    /// `*.tmp.*` file may be a concurrent worker's in-flight
    /// `write_atomic` — deleting it between its write and rename would
    /// lose that artifact — so only leftovers that have outlived any
    /// plausible in-flight write are swept.
    pub tmp_grace: Duration,
}

impl Default for GcPolicy {
    fn default() -> GcPolicy {
        GcPolicy {
            max_age: None,
            max_bytes: None,
            tmp_grace: Duration::from_secs(15 * 60),
        }
    }
}

/// What one [`ArtifactStore::gc`] pass did. Pruning only ever deletes
/// cache entries: every pruned artifact is recomputed (and re-persisted)
/// by the next run that needs it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifact files removed.
    pub removed: usize,
    /// Bytes those files held.
    pub removed_bytes: u64,
    /// Leftover `*.tmp.*` files from interrupted writes swept away.
    pub swept_tmp: usize,
    /// Artifact files kept.
    pub kept: usize,
    /// Bytes the kept files hold.
    pub kept_bytes: u64,
    /// Quarantined `*.bad` files encountered. gc counts them so they
    /// stay visible, but never prunes them — discarding the evidence a
    /// repair set aside is `fsck`'s call, not a cache policy's.
    pub quarantined: usize,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "removed {} artifact(s) ({} bytes), swept {} temp file(s); kept {} ({} bytes)",
            self.removed, self.removed_bytes, self.swept_tmp, self.kept, self.kept_bytes
        )?;
        if self.quarantined > 0 {
            write!(
                f,
                "; {} quarantined file(s) left in place",
                self.quarantined
            )?;
        }
        Ok(())
    }
}

/// One defective artifact found by [`ArtifactStore::fsck`].
#[derive(Clone, Debug)]
pub struct FsckIssue {
    /// The artifact kind.
    pub kind: ArtifactKind,
    /// The artifact's name (file stem).
    pub name: String,
    /// What the audit found wrong, human-readable.
    pub problem: String,
    /// Whether the file was renamed aside to `*.bad` (`--repair` on a
    /// local store); the next run that needs the slot recomputes it.
    pub quarantined: bool,
}

impl fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}: {}", self.kind, self.name, self.problem)?;
        if self.quarantined {
            write!(f, " [quarantined]")?;
        }
        Ok(())
    }
}

/// What one [`ArtifactStore::fsck`] walk found.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Artifacts examined (every listed name of every kind).
    pub scanned: usize,
    /// Slots whose persisted audit watermark (auditor version + mtime +
    /// size + content fingerprint) still matched, so the expensive
    /// decode + semantic check was skipped. Always zero on a `--full`
    /// pass and on stores without a watermark index.
    pub skipped_unchanged: usize,
    /// Every artifact that failed its audit, in walk order
    /// (kind-by-kind, names sorted).
    pub issues: Vec<FsckIssue>,
    /// How many of the issues were renamed aside to `*.bad`.
    pub quarantined: usize,
}

impl FsckReport {
    /// True when every scanned artifact passed.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Slots that actually ran the full audit this pass.
    pub fn audited(&self) -> usize {
        self.scanned.saturating_sub(self.skipped_unchanged)
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.issues.is_empty() {
            return write!(
                f,
                "ok: {} artifact(s) scanned ({} audited, {} unchanged), no defects",
                self.scanned,
                self.audited(),
                self.skipped_unchanged
            );
        }
        for issue in &self.issues {
            writeln!(f, "bad: {issue}")?;
        }
        write!(
            f,
            "{} artifact(s) scanned ({} audited, {} unchanged): {} defective, {} quarantined",
            self.scanned,
            self.audited(),
            self.skipped_unchanged,
            self.issues.len(),
            self.quarantined
        )
    }
}

// ---- artifact bytes --------------------------------------------------------

/// Minimal read-only `mmap(2)` binding, `std`-only. The store's write
/// discipline makes mapping safe in practice: artifacts are only ever
/// replaced by `rename` or removed by `unlink`, both of which leave a
/// mapped inode's pages intact — no code path truncates or rewrites an
/// artifact file in place.
#[cfg(unix)]
mod mm {
    use core::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::fd::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    #[derive(Debug)]
    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // A private read-only mapping is plain memory to every thread.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `file` read-only, or `None` when mapping is unavailable
        /// (empty file, exotic filesystem) — callers fall back to a
        /// plain read.
        pub(super) fn map(file: &File) -> Option<Mmap> {
            let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
            if len == 0 {
                return None; // zero-length mmap is EINVAL
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return None;
            }
            Some(Mmap {
                ptr: ptr.cast_const().cast(),
                len,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe { munmap(self.ptr.cast_mut().cast(), self.len) };
        }
    }
}

#[derive(Debug)]
enum BytesRepr {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped(mm::Mmap),
}

/// The raw bytes of one artifact, as served by a [`StoreBackend`].
///
/// A local warm `get` is an mmap'd view of the artifact file — the bytes
/// are never copied into the process before decoding, which (with the
/// binary codec's zero-copy section views) is what makes a warm open
/// cost page faults instead of parsing. Remote and fallback reads own a
/// `Vec<u8>`. Either way it derefs to `&[u8]`.
#[derive(Debug)]
pub struct ArtifactBytes(BytesRepr);

impl ArtifactBytes {
    /// Wraps owned bytes (the remote backend and tests).
    pub fn owned(bytes: Vec<u8>) -> ArtifactBytes {
        ArtifactBytes(BytesRepr::Owned(bytes))
    }
}

impl Deref for ArtifactBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            BytesRepr::Owned(v) => v,
            #[cfg(unix)]
            BytesRepr::Mapped(m) => m.as_slice(),
        }
    }
}

impl AsRef<[u8]> for ArtifactBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for ArtifactBytes {
    fn from(bytes: Vec<u8>) -> ArtifactBytes {
        ArtifactBytes::owned(bytes)
    }
}

// ---- codec accounting ------------------------------------------------------

/// Per-kind decode/encode wall time, in nanoseconds — the in-band
/// evidence of what artifact (de)serialization costs. Counts codec work
/// only (the time inside parse/serialize), not backend I/O.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecNanos {
    /// Decoding prepared artifacts.
    pub prepared_decode_ns: u64,
    /// Encoding prepared artifacts.
    pub prepared_encode_ns: u64,
    /// Decoding mapped netlists.
    pub netlist_decode_ns: u64,
    /// Encoding mapped netlists.
    pub netlist_encode_ns: u64,
    /// Decoding simulation summaries.
    pub sim_decode_ns: u64,
    /// Encoding simulation summaries.
    pub sim_encode_ns: u64,
    /// Decoding SA-table shards.
    pub satable_decode_ns: u64,
    /// Encoding SA-table shards.
    pub satable_encode_ns: u64,
}

impl CodecNanos {
    /// The codec time spent after `before` was snapshotted (saturating,
    /// so racing counters never underflow).
    pub fn since(&self, before: &CodecNanos) -> CodecNanos {
        CodecNanos {
            prepared_decode_ns: self
                .prepared_decode_ns
                .saturating_sub(before.prepared_decode_ns),
            prepared_encode_ns: self
                .prepared_encode_ns
                .saturating_sub(before.prepared_encode_ns),
            netlist_decode_ns: self
                .netlist_decode_ns
                .saturating_sub(before.netlist_decode_ns),
            netlist_encode_ns: self
                .netlist_encode_ns
                .saturating_sub(before.netlist_encode_ns),
            sim_decode_ns: self.sim_decode_ns.saturating_sub(before.sim_decode_ns),
            sim_encode_ns: self.sim_encode_ns.saturating_sub(before.sim_encode_ns),
            satable_decode_ns: self
                .satable_decode_ns
                .saturating_sub(before.satable_decode_ns),
            satable_encode_ns: self
                .satable_encode_ns
                .saturating_sub(before.satable_encode_ns),
        }
    }

    /// Total codec time (decode + encode, all kinds).
    pub fn total_ns(&self) -> u64 {
        self.prepared_decode_ns
            + self.prepared_encode_ns
            + self.netlist_decode_ns
            + self.netlist_encode_ns
            + self.sim_decode_ns
            + self.sim_encode_ns
            + self.satable_decode_ns
            + self.satable_encode_ns
    }
}

/// Renders nanoseconds at a human scale (`870ns`, `12.3us`, `4.6ms`).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    }
}

impl fmt::Display for CodecNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/{}, {} {}/{}, {} {}/{}, {} {}/{} (decode/encode)",
            ArtifactKind::Prepared,
            fmt_ns(self.prepared_decode_ns),
            fmt_ns(self.prepared_encode_ns),
            ArtifactKind::Netlists,
            fmt_ns(self.netlist_decode_ns),
            fmt_ns(self.netlist_encode_ns),
            ArtifactKind::Sims,
            fmt_ns(self.sim_decode_ns),
            fmt_ns(self.sim_encode_ns),
            ArtifactKind::Satables,
            fmt_ns(self.satable_decode_ns),
            fmt_ns(self.satable_encode_ns),
        )
    }
}

// ---- backends --------------------------------------------------------------

/// Where an [`ArtifactStore`]'s bytes actually live.
///
/// The store's typed API (prepared artifacts, mapped netlists,
/// simulation summaries, SA shards) is backend-agnostic: it serializes
/// to the same exact formats either way and goes through this trait for
/// raw `(kind, name)` → bytes access, so two backends holding the same
/// artifacts serve byte-identical warm runs. Backends move bytes
/// verbatim and never transcode. [`LocalStore`] is the on-disk layout in
/// the [module docs](self); [`RemoteStore`] speaks the `store
/// get/put/stat/list` verbs of the `hlp serve` wire protocol.
pub trait StoreBackend: Send + Sync + fmt::Debug {
    /// Raw artifact bytes for `(kind, name)`, or `None` when absent.
    /// Backends treat every failure (unreadable file, dead connection)
    /// as a cache miss — the store never fails the run it serves.
    fn get(&self, kind: ArtifactKind, name: &str) -> Option<ArtifactBytes>;

    /// Persists raw artifact bytes under `(kind, name)`. Failures are
    /// reported to stderr and swallowed: the store is a cache, and a
    /// failed save must never fail the experiment that produced the
    /// artifact.
    fn put(&self, kind: ArtifactKind, name: &str, content: &[u8]);

    /// Whether `(kind, name)` exists, without transferring the body.
    fn stat(&self, kind: ArtifactKind, name: &str) -> bool;

    /// The names (file stems) of every finished artifact of `kind`,
    /// sorted.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures (unlike single-artifact lookups,
    /// a failed listing would silently truncate a merge).
    fn list(&self, kind: ArtifactKind) -> io::Result<Vec<String>>;

    /// Merges a table into the shard for its `(mode, width, k)` —
    /// existing entries win, conflicts are counted — and reports what
    /// the merge did.
    fn merge_sa(&self, table: &SaTable) -> AbsorbStats;

    /// The store's root directory, when the bytes live on this host
    /// (local maintenance — `gc`, `usage` — needs it).
    fn root(&self) -> Option<&Path> {
        None
    }

    /// Runs fsck **where the bytes live**, when the backend can
    /// delegate it (a remote store asks its daemon, which audits in
    /// place — no artifact body crosses the wire). `None` means the
    /// caller must walk the slots itself via `list`/`get`.
    fn delegate_fsck(&self, _options: &FsckOptions) -> Option<io::Result<FsckReport>> {
        None
    }

    /// Human-readable address for logs and error messages.
    fn describe(&self) -> String;
}

/// The SA shard stem for `(mode, width, k)` — shared by both backends
/// and the daemon, so every side addresses the same shard.
pub(crate) fn sa_shard_name(mode: SaMode, width: usize, k: usize) -> String {
    format!("{}-w{width}-k{k}", mode.name())
}

/// Parses shard bytes and validates them against the `(mode, width, k)`
/// they were addressed by. A shard whose header disagrees with its name
/// (mis-copied or hand-renamed) reads as a miss, like any other corrupt
/// artifact.
fn shard_from_bytes(data: &[u8], mode: SaMode, width: usize, k: usize) -> Option<SaTable> {
    let table = SaTable::from_bin(data).ok()?;
    (table.mode() == mode && table.width() == width && table.k() == k).then_some(table)
}

/// Inverse of [`sa_shard_name`]: `(mode, width, k)` from a shard stem.
/// `rsplit` keeps mode names containing `-` (`zero-delay`) intact.
fn parse_sa_shard_name(name: &str) -> Option<(SaMode, usize, usize)> {
    let (rest, k) = name.rsplit_once("-k")?;
    let (mode, width) = rest.rsplit_once("-w")?;
    Some((SaMode::parse(mode)?, width.parse().ok()?, k.parse().ok()?))
}

// ---- static artifact audit -------------------------------------------------

/// Statically validates `data` as an artifact of `kind` stored under
/// `name`, without trusting any of it. This is the shared gate behind
/// `hlp check`, `hlp fsck`, and the daemon's `store put` validation:
///
/// 1. `name` must be a safe file stem;
/// 2. the name must honor the kind's addressing discipline — a
///    32-hex-digit fingerprint for the content-addressed kinds, a
///    `<mode>-w<W>-k<K>` shard stem for `satables`;
/// 3. a binary body must pass the `hlpbin` deep container proof
///    ([`netlist::validate_deep`]: checksum, in-bounds sections,
///    in-range indices) **and** carry the payload kind its store kind
///    promises;
/// 4. the body must decode under the kind's codec, and a decoded mapped
///    netlist must additionally pass the full semantic checker
///    ([`netlist::check_netlist`]) with no error-grade violations — an
///    SA shard's header must agree with the name it is filed under.
///
/// The fingerprint itself hashes the *ingredients* that produced an
/// artifact, not its bytes, so it cannot be recomputed from the file
/// alone; the checksum + name-parse + decode trio is the strongest
/// byte-level re-derivation available.
///
/// # Errors
///
/// A single-line, human-readable description of the first defect (also
/// safe to embed in a daemon `error` reply).
pub fn audit_artifact_bytes(kind: ArtifactKind, name: &str, data: &[u8]) -> Result<(), String> {
    if !valid_name(name) {
        return Err(format!("invalid artifact name `{name}`"));
    }
    kind.check_name(name)?;
    if binio::is_binary(data) {
        let report = netlist::validate_deep(data).map_err(|e| format!("binary container: {e}"))?;
        if report.kind != kind.payload() {
            return Err(format!(
                "payload kind `{}` does not match store kind `{kind}`",
                String::from_utf8_lossy(&report.kind)
            ));
        }
    }
    kind.check_payload(name, data)
}

/// Runs the full semantic checker over `nl`, summarizing a clean pass
/// in one line and the first error-grade violation (plus the error
/// count) in another — the shared verdict shape of the store audits and
/// `hlp check`.
///
/// # Errors
///
/// The one-line verdict of a netlist that fails the checker.
pub fn checked_netlist(nl: &Netlist, what: &str) -> Result<String, String> {
    let report = netlist::check_netlist(nl);
    if report.is_clean() {
        Ok(format!(
            "{what}: {} node(s) checked, {} warning(s)",
            report.checked_nodes,
            report.warnings()
        ))
    } else {
        let first = report
            .violations
            .iter()
            .find(|v| v.severity() == netlist::Severity::Error)
            .expect("unclean report has an error");
        Err(format!(
            "{what} fails semantic check ({} error(s); first: {first})",
            report.errors()
        ))
    }
}

/// Sniffs what a standalone file's bytes hold and audits them — the
/// engine of `hlp check FILE` for anything that is not BLIF or CDFG
/// text. Binary payloads (store artifacts and exact netlists) get the
/// deep `hlpbin` container proof and are then decoded under the codec
/// their kind tag names; the two text formats kept for interchange —
/// the exact netlist text ([`netlist::textio`]) and the `--sa-table`
/// SA-table file — dispatch on their version header. Anything holding a
/// netlist additionally runs the full semantic checker.
///
/// Unlike [`audit_artifact_bytes`] there is no store name to validate
/// against, so name discipline and shard-header agreement are not
/// checked here.
///
/// # Errors
///
/// A single-line description of the first defect.
pub fn audit_artifact_auto(data: &[u8]) -> Result<String, String> {
    if binio::is_binary(data) {
        let deep = netlist::validate_deep(data).map_err(|e| format!("binary container: {e}"))?;
        match deep.kind {
            binio::KIND_NETLIST => {
                let nl = netlist::parse_netlist_bin(data)
                    .map_err(|e| format!("netlist payload: {e}"))?;
                checked_netlist(&nl, "binary netlist")
            }
            binio::KIND_MAPPED => {
                let artifact =
                    decode_mapped_unchecked(data).ok_or("does not decode as a mapped artifact")?;
                checked_netlist(&artifact.netlist, "mapped artifact")
            }
            binio::KIND_PREPARED => {
                decode_prepared(data).ok_or("does not decode as a prepared artifact")?;
                Ok(format!("prepared artifact: {deep}"))
            }
            binio::KIND_SIM => {
                SimStats::from_summary_bin(data)
                    .map_err(|_| "does not decode as a simulation summary")?;
                Ok(format!("simulation summary: {deep}"))
            }
            binio::KIND_SA_TABLE => {
                let table =
                    SaTable::from_bin(data).map_err(|_| "does not decode as an SA table")?;
                Ok(format!("SA table shard ({} entries): {deep}", table.len()))
            }
            other => Err(format!(
                "unknown hlpbin payload kind `{}`",
                String::from_utf8_lossy(&other)
            )),
        }
    } else {
        let Ok(text) = std::str::from_utf8(data) else {
            return Err("neither an hlpbin container nor UTF-8 text".to_string());
        };
        let header = text.lines().next().unwrap_or("");
        if header == "# hlpower netlist v1" {
            let nl = parse_netlist_text(text).map_err(|e| e.to_string())?;
            checked_netlist(&nl, "netlist")
        } else if header.starts_with("# hlpower SA table") {
            let table = SaTable::from_text(text).map_err(|e| format!("SA table: {e}"))?;
            Ok(format!("SA table ({} entries, text)", table.len()))
        } else {
            Err(format!("unrecognized header `{header}`"))
        }
    }
}

/// Outcome of [`fix_artifact_auto`] — `hlp check --fix` on one file.
#[derive(Debug)]
pub enum FixVerdict {
    /// The bytes already audit clean; nothing needs rewriting. Carries
    /// the audit summary.
    Clean(String),
    /// A mechanical fix converged and the replacement bytes re-audit
    /// clean. The caller decides where they go (the CLI backs up the
    /// original first — a fix never silently destroys evidence).
    Fixed {
        /// Replacement file content, in the original encoding.
        bytes: Vec<u8>,
        /// Individual graph edits applied across all passes.
        applied: usize,
        /// Check→plan→apply passes the fix loop needed.
        passes: usize,
        /// Post-fix audit summary.
        summary: String,
    },
    /// The defect has no sound mechanical fix, or the file is not a
    /// bare netlist. Carries the original problem and the reason.
    Unfixable(String),
}

/// Attempts a mechanical repair of a bare netlist file, binary (`nlst`)
/// or text ([`netlist::fix_netlist`]: drop orphans, rewire singleton
/// muxes, dedupe identical multiply-drivers). The result is accepted
/// only when the fix loop converges to zero violations, actually
/// changed something, and the re-encoded bytes pass
/// [`audit_artifact_auto`].
///
/// Store artifacts are refused. A mapped artifact's metrics were
/// computed from the netlist the flow produced for its fingerprint, so
/// an edited netlist under that name would serve results no run
/// computes; a defective slot is quarantined by `hlp fsck --repair`
/// and recomputed by the next run instead.
pub fn fix_artifact_auto(data: &[u8]) -> FixVerdict {
    let problem = match audit_artifact_auto(data) {
        Ok(summary) => return FixVerdict::Clean(summary),
        Err(problem) => problem,
    };
    let binary = binio::is_binary(data);
    let nl = if binary {
        match netlist::validate_deep(data).map(|deep| deep.kind) {
            Ok(binio::KIND_NETLIST) => netlist::parse_netlist_bin(data).ok(),
            Ok(_) => {
                return FixVerdict::Unfixable(format!(
                    "{problem}; a store artifact is never rewritten: \
                     `hlp fsck --repair` quarantines its slot and the next run recomputes it"
                ))
            }
            Err(_) => None,
        }
    } else {
        std::str::from_utf8(data)
            .ok()
            .and_then(|text| parse_netlist_text(text).ok())
    };
    let Some(nl) = nl else {
        return FixVerdict::Unfixable(format!("{problem}; no decodable netlist to fix"));
    };
    let out = netlist::fix_netlist(&nl);
    if out.applied == 0 || !out.report.violations.is_empty() {
        return FixVerdict::Unfixable(format!("{problem}; no sound mechanical fix"));
    }
    let bytes = if binary {
        netlist::write_netlist_bin(&out.netlist)
    } else {
        write_netlist_text(&out.netlist).into_bytes()
    };
    match audit_artifact_auto(&bytes) {
        Ok(summary) => FixVerdict::Fixed {
            bytes,
            applied: out.applied,
            passes: out.passes,
            summary,
        },
        Err(e) => FixVerdict::Unfixable(format!("{problem}; fix did not re-audit clean: {e}")),
    }
}

// ---- LocalStore ------------------------------------------------------------

/// The on-disk backend: the layout in the [module docs](self), atomic
/// temp+rename writes, and an advisory file lock serializing SA-shard
/// read-merge-write cycles across processes. Warm reads are mmap'd
/// (falling back to a plain read where mapping is unavailable), so a
/// `get` transfers no bytes the decoder does not touch.
#[derive(Debug)]
pub struct LocalStore {
    root: PathBuf,
}

impl LocalStore {
    /// Opens (creating if needed) the layout rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the layout.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<LocalStore> {
        let root = dir.as_ref().to_path_buf();
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join(kind.dir()))?;
        }
        Ok(LocalStore { root })
    }

    /// Opens an **existing** store without creating anything.
    ///
    /// # Errors
    ///
    /// Returns `NotFound` unless `dir` already has the store layout.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<LocalStore> {
        let root = dir.as_ref().to_path_buf();
        for kind in ArtifactKind::ALL {
            if !root.join(kind.dir()).is_dir() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "`{}` is not an artifact store (missing {kind}/)",
                        root.display()
                    ),
                ));
            }
        }
        Ok(LocalStore { root })
    }

    /// Below this size a buffered read beats the mmap/munmap round trip
    /// (two extra syscalls plus a page fault per page touched), so small
    /// artifacts take the plain-read path and only large ones get mapped.
    const MMAP_MIN_BYTES: u64 = 64 * 1024;

    /// Opens `path` as an [`ArtifactBytes`] — mmap'd when large enough
    /// for mapping to pay off, read otherwise — or `None` when
    /// absent/unreadable.
    fn read_file(path: &Path) -> Option<ArtifactBytes> {
        let file = fs::File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        #[cfg(unix)]
        if len >= Self::MMAP_MIN_BYTES {
            if let Some(map) = mm::Mmap::map(&file) {
                return Some(ArtifactBytes(BytesRepr::Mapped(map)));
            }
        }
        let mut buf = Vec::with_capacity(usize::try_from(len).ok()?);
        let mut file = file;
        file.read_to_end(&mut buf).ok()?;
        Some(ArtifactBytes::owned(buf))
    }

    /// Atomically replaces `path` with `content` (write to a unique temp
    /// file in the same directory, then rename). Failures are reported to
    /// stderr and swallowed: the store is a cache, and a failed save must
    /// never fail the experiment producing the artifact.
    fn write_atomic(&self, path: &Path, content: &[u8]) -> bool {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{n}", std::process::id()));
        let result = fs::write(&tmp, content).and_then(|()| fs::rename(&tmp, path));
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            eprintln!(
                "warning: artifact store write `{}` failed: {e}",
                path.display()
            );
            return false;
        }
        true
    }
}

impl StoreBackend for LocalStore {
    fn get(&self, kind: ArtifactKind, name: &str) -> Option<ArtifactBytes> {
        Self::read_file(&kind.slot(&self.root, name))
    }

    fn put(&self, kind: ArtifactKind, name: &str, content: &[u8]) {
        if self.write_atomic(&kind.slot(&self.root, name), content) {
            // The slot's bytes changed, so any persisted audit verdict
            // no longer vouches for them — a rewrite (a recompute, a
            // merge, a wire put) must re-audit on the next fsck pass.
            audit::invalidate_watermark(&self.root, kind, name);
        }
    }

    fn stat(&self, kind: ArtifactKind, name: &str) -> bool {
        kind.slot(&self.root, name).is_file()
    }

    fn list(&self, kind: ArtifactKind) -> io::Result<Vec<String>> {
        // Only finished artifacts carry the `.bin` suffix; leftover
        // `*.tmp.*` files from interrupted writes (and legacy `.txt`
        // slots) are not artifacts and must not be listed (or later
        // copied and parsed by a merge).
        let mut names = Vec::new();
        for entry in fs::read_dir(self.root.join(kind.dir()))? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".bin") {
                names.push(stem.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    fn merge_sa(&self, table: &SaTable) -> AbsorbStats {
        let mode = table.mode();
        let width = table.width();
        let k = table.k();
        let name = sa_shard_name(mode, width, k);
        // Read-merge-write under an advisory file lock
        // (`satables/.lock`), so concurrent processes flushing into one
        // store directory serialize instead of losing each other's
        // entries. Best-effort: if the lock file cannot be created or
        // locked, fall through unlocked — a lost update degrades the
        // cache (entries recompute later), never its correctness.
        let lock = fs::File::create(self.root.join(ArtifactKind::Satables.dir()).join(".lock"))
            .and_then(|f| f.lock().map(|()| f))
            .ok();
        let merged = SharedSaTable::new(width, k).with_mode(mode);
        if let Some(existing) = self
            .get(ArtifactKind::Satables, &name)
            .and_then(|data| shard_from_bytes(&data, mode, width, k))
        {
            merged
                .absorb(&existing)
                .expect("shard compatible by construction");
        }
        let stats = merged
            .absorb(table)
            .expect("shard compatible by construction");
        self.put(ArtifactKind::Satables, &name, &merged.snapshot().to_bin());
        drop(lock);
        stats
    }

    fn root(&self) -> Option<&Path> {
        Some(&self.root)
    }

    fn describe(&self) -> String {
        self.root.display().to_string()
    }
}

// ---- RemoteStore -----------------------------------------------------------

/// The wire backend: artifact `get`/`put`/`stat`/`list` and SA-shard
/// merges against an `hlp serve` daemon, over the same socket the job
/// protocol uses (`--store remote:ADDR`). Connections are pooled and
/// re-dialed transparently, so a daemon restart mid-run costs at most
/// one retried operation — workers resume from the persisted store.
#[derive(Debug)]
pub struct RemoteStore {
    endpoint: Endpoint,
    pool: Mutex<Vec<BufReader<Stream>>>,
}

impl RemoteStore {
    /// Connects to the daemon at `endpoint` and protocol-pings it.
    ///
    /// # Errors
    ///
    /// Fails fast when no daemon answers, or when the daemon has no
    /// store attached — otherwise every later lookup would quietly miss
    /// and the run would silently go cold.
    pub fn connect(endpoint: &Endpoint) -> io::Result<RemoteStore> {
        let store = RemoteStore {
            endpoint: endpoint.clone(),
            pool: Mutex::new(Vec::new()),
        };
        store.try_stat(ArtifactKind::Prepared, "0")?;
        Ok(store)
    }

    /// The daemon address this backend talks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Runs one request/reply exchange on a pooled connection. A pooled
    /// connection may have died with a daemon restart, so a failure
    /// there falls through to one fresh dial; errors on the fresh
    /// connection are real and propagate.
    fn op<T>(&self, f: &mut dyn FnMut(&mut BufReader<Stream>) -> io::Result<T>) -> io::Result<T> {
        let pooled = self.pool.lock().expect("remote store pool").pop();
        if let Some(mut conn) = pooled {
            if let Ok(v) = f(&mut conn) {
                self.pool.lock().expect("remote store pool").push(conn);
                return Ok(v);
            }
        }
        let mut conn = BufReader::new(Stream::dial(&self.endpoint)?);
        let v = f(&mut conn)?;
        self.pool.lock().expect("remote store pool").push(conn);
        Ok(v)
    }

    /// The next reply line ([`read_reply_line`]), with the daemon's own
    /// `error` message surfaced as the I/O error the caller reports.
    fn reply_line(conn: &mut BufReader<Stream>) -> io::Result<String> {
        read_reply_line(conn).map_err(|e| match e {
            RequestError::Io(e) => e,
            RequestError::Remote(msg) => {
                io::Error::new(io::ErrorKind::InvalidData, format!("daemon: {msg}"))
            }
            RequestError::Protocol(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
        })
    }

    /// A protocol diagnosis for a reply line the exchange did not expect.
    fn unexpected(line: &str, expected: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed daemon reply `{line}` (expected {expected})"),
        )
    }

    fn try_get(&self, kind: ArtifactKind, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.op(&mut |conn| {
            writeln!(conn.get_mut(), "store get {kind} {name}")?;
            conn.get_mut().flush()?;
            let line = Self::reply_line(conn)?;
            if line == "absent" {
                return Ok(None);
            }
            let len: usize = line
                .strip_prefix("data ")
                .and_then(|l| l.parse().ok())
                .filter(|&l| l <= MAX_WIRE_BODY)
                .ok_or_else(|| Self::unexpected(&line, "`data LEN` or `absent`"))?;
            let mut body = vec![0u8; len];
            conn.read_exact(&mut body)?;
            Ok(Some(body))
        })
    }

    fn try_put(&self, kind: ArtifactKind, name: &str, content: &[u8]) -> io::Result<()> {
        self.op(&mut |conn| {
            let w = conn.get_mut();
            writeln!(w, "store put {kind} {name} {}", content.len())?;
            w.write_all(content)?;
            w.flush()?;
            let line = Self::reply_line(conn)?;
            if line == "ok" {
                Ok(())
            } else {
                Err(Self::unexpected(&line, "`ok`"))
            }
        })
    }

    fn try_stat(&self, kind: ArtifactKind, name: &str) -> io::Result<bool> {
        self.op(&mut |conn| {
            writeln!(conn.get_mut(), "store stat {kind} {name}")?;
            conn.get_mut().flush()?;
            match Self::reply_line(conn)?.as_str() {
                "present" => Ok(true),
                "absent" => Ok(false),
                other => Err(Self::unexpected(other, "`present` or `absent`")),
            }
        })
    }

    fn try_list(&self, kind: ArtifactKind) -> io::Result<Vec<String>> {
        self.op(&mut |conn| {
            writeln!(conn.get_mut(), "store list {kind}")?;
            conn.get_mut().flush()?;
            let line = Self::reply_line(conn)?;
            let count: usize = line
                .strip_prefix("names ")
                .and_then(|l| l.parse().ok())
                .filter(|&n| n <= 1_000_000)
                .ok_or_else(|| Self::unexpected(&line, "`names N`"))?;
            (0..count).map(|_| Self::reply_line(conn)).collect()
        })
    }

    fn try_merge_sa(&self, table: &SaTable) -> io::Result<AbsorbStats> {
        // The daemon decodes the body, audits it, and merges it into its
        // own shard under its shard lock.
        let body = table.to_bin();
        self.op(&mut |conn| {
            let w = conn.get_mut();
            writeln!(w, "store put-sa {}", body.len())?;
            w.write_all(&body)?;
            w.flush()?;
            let line = Self::reply_line(conn)?;
            let rest = line
                .strip_prefix("ok ")
                .ok_or_else(|| Self::unexpected(&line, "`ok INSERTED MATCHED CONFLICTING`"))?;
            let nums: Vec<usize> = rest
                .split_whitespace()
                .map(|t| t.parse())
                .collect::<Result<_, _>>()
                .map_err(|_| Self::unexpected(&line, "`ok INSERTED MATCHED CONFLICTING`"))?;
            if nums.len() != 3 {
                return Err(Self::unexpected(&line, "`ok INSERTED MATCHED CONFLICTING`"));
            }
            Ok(AbsorbStats {
                inserted: nums[0],
                matched: nums[1],
                conflicting: nums[2],
            })
        })
    }

    /// Asks the daemon to audit its own store in place (`store fsck`).
    /// Bodies never cross the wire: the reply is one `bad` line per
    /// defective slot plus a `done` summary.
    fn try_fsck(&self, options: &FsckOptions) -> io::Result<FsckReport> {
        let mode = if options.repair { "repair" } else { "off" };
        let scope = if options.full { "full" } else { "fast" };
        self.op(&mut |conn| {
            writeln!(conn.get_mut(), "store fsck {mode} {scope}")?;
            conn.get_mut().flush()?;
            let mut report = FsckReport::default();
            loop {
                let line = Self::reply_line(conn)?;
                let toks: Vec<&str> = line.split_whitespace().collect();
                match toks.as_slice() {
                    ["bad", kind, name, quarantined, problem] => {
                        let kind = ArtifactKind::parse(kind)
                            .ok_or_else(|| Self::unexpected(&line, "a known artifact kind"))?;
                        report.issues.push(FsckIssue {
                            kind,
                            name: (*name).to_string(),
                            problem: unescape(problem).unwrap_or_else(|_| (*problem).to_string()),
                            quarantined: *quarantined == "1",
                        });
                    }
                    ["done", scanned, skipped, defective, quarantined] => {
                        report.scanned = scanned
                            .parse()
                            .map_err(|_| Self::unexpected(&line, "`done` counters"))?;
                        report.skipped_unchanged = skipped
                            .parse()
                            .map_err(|_| Self::unexpected(&line, "`done` counters"))?;
                        let defective: usize = defective
                            .parse()
                            .map_err(|_| Self::unexpected(&line, "`done` counters"))?;
                        if defective != report.issues.len() {
                            return Err(Self::unexpected(
                                &line,
                                "a defect count matching the streamed verdicts",
                            ));
                        }
                        report.quarantined = quarantined
                            .parse()
                            .map_err(|_| Self::unexpected(&line, "`done` counters"))?;
                        return Ok(report);
                    }
                    _ => return Err(Self::unexpected(&line, "`bad ...` or `done ...`")),
                }
            }
        })
    }

    fn warn(&self, what: &str, e: &io::Error) {
        eprintln!("warning: remote store {}: {what}: {e}", self.endpoint);
    }
}

impl StoreBackend for RemoteStore {
    fn get(&self, kind: ArtifactKind, name: &str) -> Option<ArtifactBytes> {
        match self.try_get(kind, name) {
            Ok(v) => v.map(ArtifactBytes::owned),
            Err(e) => {
                self.warn(&format!("get {kind}/{name}"), &e);
                None
            }
        }
    }

    fn put(&self, kind: ArtifactKind, name: &str, content: &[u8]) {
        if let Err(e) = self.try_put(kind, name, content) {
            self.warn(&format!("put {kind}/{name}"), &e);
        }
    }

    fn stat(&self, kind: ArtifactKind, name: &str) -> bool {
        match self.try_stat(kind, name) {
            Ok(v) => v,
            Err(e) => {
                self.warn(&format!("stat {kind}/{name}"), &e);
                false
            }
        }
    }

    fn list(&self, kind: ArtifactKind) -> io::Result<Vec<String>> {
        self.try_list(kind)
    }

    fn merge_sa(&self, table: &SaTable) -> AbsorbStats {
        match self.try_merge_sa(table) {
            Ok(stats) => stats,
            Err(e) => {
                self.warn("SA shard merge", &e);
                AbsorbStats::default()
            }
        }
    }

    fn describe(&self) -> String {
        format!("remote:{}", self.endpoint)
    }

    fn delegate_fsck(&self, options: &FsckOptions) -> Option<io::Result<FsckReport>> {
        Some(self.try_fsck(options))
    }
}

// ---- ArtifactStore ---------------------------------------------------------

/// The content-addressed artifact store. See the [module docs](self)
/// for the format and guarantees; see [`StoreBackend`] for where the
/// bytes live.
#[derive(Debug)]
pub struct ArtifactStore {
    backend: Box<dyn StoreBackend>,
    counters: KindCounters,
}

impl ArtifactStore {
    /// Opens (creating if needed) a local store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the layout.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        Ok(Self::with_backend(Box::new(LocalStore::open(dir)?)))
    }

    /// Opens an **existing** local store without creating anything — the
    /// read-only handle for merge sources, which must not be silently
    /// materialized (or half-planted inside a mistyped directory).
    ///
    /// # Errors
    ///
    /// Returns `NotFound` unless `dir` already has the store layout.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        Ok(Self::with_backend(Box::new(LocalStore::open_existing(
            dir,
        )?)))
    }

    /// Connects to the hot store of an `hlp serve` daemon.
    ///
    /// # Errors
    ///
    /// Fails fast when no daemon answers at `endpoint` or the daemon has
    /// no store attached (see [`RemoteStore::connect`]).
    pub fn connect(endpoint: &Endpoint) -> io::Result<ArtifactStore> {
        Ok(Self::with_backend(Box::new(RemoteStore::connect(
            endpoint,
        )?)))
    }

    /// Opens the store a CLI `--store` spec names: `remote:ADDR` connects
    /// to a daemon (ADDR = socket path or `host:port`), anything else is
    /// a local directory.
    ///
    /// # Errors
    ///
    /// Local open or remote connect failures; `remote:` with no address.
    pub fn open_spec(spec: &str) -> io::Result<ArtifactStore> {
        match spec.strip_prefix("remote:") {
            Some("") => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "`remote:` needs an address (socket path or host:port)",
            )),
            Some(addr) => Self::connect(&Endpoint::parse(addr)),
            None => Self::open(spec),
        }
    }

    /// Wraps an explicit backend (how custom backends plug in; the
    /// constructors above cover the built-in two).
    pub fn with_backend(backend: Box<dyn StoreBackend>) -> ArtifactStore {
        ArtifactStore {
            backend,
            counters: KindCounters::default(),
        }
    }

    /// The backend holding this store's bytes.
    pub fn backend(&self) -> &dyn StoreBackend {
        self.backend.as_ref()
    }

    /// Human-readable store address (a directory, or `remote:ADDR`).
    pub fn describe(&self) -> String {
        self.backend.describe()
    }

    /// The store's root directory.
    ///
    /// # Panics
    ///
    /// Remote stores have no local root; callers that can face one
    /// should use the backend's [`StoreBackend::root`] instead.
    pub fn root(&self) -> &Path {
        self.backend
            .root()
            .expect("artifact store has no local root (remote backend)")
    }

    fn local_root(&self) -> io::Result<&Path> {
        self.backend.root().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "`{}` is remote: store maintenance runs where the bytes live \
                     (on the daemon host)",
                    self.describe()
                ),
            )
        })
    }

    /// Hit/miss counters since this handle was opened.
    pub fn counters(&self) -> StoreCounts {
        let [prepared_hits, netlist_hits, sim_hits, _] = load_all(&self.counters.hits);
        let [prepared_misses, netlist_misses, sim_misses, _] = load_all(&self.counters.misses);
        StoreCounts {
            prepared_hits,
            prepared_misses,
            netlist_hits,
            netlist_misses,
            sim_hits,
            sim_misses,
        }
    }

    /// Per-kind decode/encode time since this handle was opened.
    pub fn codec(&self) -> CodecNanos {
        let [prepared_decode_ns, netlist_decode_ns, sim_decode_ns, satable_decode_ns] =
            load_all(&self.counters.decode_ns);
        let [prepared_encode_ns, netlist_encode_ns, sim_encode_ns, satable_encode_ns] =
            load_all(&self.counters.encode_ns);
        CodecNanos {
            prepared_decode_ns,
            prepared_encode_ns,
            netlist_decode_ns,
            netlist_encode_ns,
            sim_decode_ns,
            sim_encode_ns,
            satable_decode_ns,
            satable_encode_ns,
        }
    }

    /// Runs `f` and charges its wall time to `ns` — the codec
    /// accounting. Wraps parse/serialize calls only, never backend I/O.
    fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let v = f();
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        v
    }

    /// Reads `(kind, name)` and decodes it with `decode`, charging the
    /// decode to the kind's codec time. Absent, corrupt and
    /// version-mismatched slots all come back `None`.
    fn fetch<T>(
        &self,
        kind: ArtifactKind,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let data = self.backend.get(kind, name)?;
        Self::timed(&self.counters.decode_ns[kind.index()], || decode(&data))
    }

    /// Counts a lookup of `kind` as a hit or a miss and passes it on.
    fn tally<T>(&self, kind: ArtifactKind, loaded: Option<T>) -> Option<T> {
        let counter = if loaded.is_some() {
            &self.counters.hits
        } else {
            &self.counters.misses
        };
        counter[kind.index()].fetch_add(1, Ordering::Relaxed);
        loaded
    }

    /// Encodes with `encode`, charging the kind's codec time, and
    /// writes the bytes under `(kind, name)`.
    fn save(&self, kind: ArtifactKind, name: &str, encode: impl FnOnce() -> Vec<u8>) {
        let bytes = Self::timed(&self.counters.encode_ns[kind.index()], encode);
        self.backend.put(kind, name, &bytes);
    }

    // ---- raw access --------------------------------------------------------

    /// Raw artifact bytes by `(kind, name)`, bypassing the hit/miss
    /// accounting — the daemon's serving hook (client traffic must not
    /// pollute the daemon handle's own counters) and the merge
    /// primitive.
    pub fn raw_get(&self, kind: ArtifactKind, name: &str) -> Option<ArtifactBytes> {
        self.backend.get(kind, name)
    }

    /// Raw artifact write by `(kind, name)` (uncounted; see
    /// [`ArtifactStore::raw_get`]).
    pub fn raw_put(&self, kind: ArtifactKind, name: &str, content: &[u8]) {
        self.backend.put(kind, name, content);
    }

    /// Raw existence check (uncounted; see [`ArtifactStore::raw_get`]).
    pub fn raw_stat(&self, kind: ArtifactKind, name: &str) -> bool {
        self.backend.stat(kind, name)
    }

    /// The names of every finished artifact of `kind`, sorted.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures.
    pub fn raw_list(&self, kind: ArtifactKind) -> io::Result<Vec<String>> {
        self.backend.list(kind)
    }

    // ---- prepared artifacts ------------------------------------------------

    /// Loads a cached schedule + register binding, or `None` on miss.
    /// The store cannot judge whether a parsed artifact actually fits the
    /// caller's CDFG, so the caller supplies `valid`; a file that parses
    /// but fails it counts as a **miss** (absent, corrupt,
    /// version-mismatched, and ill-fitting files are all the same event
    /// in the hit/miss accounting).
    pub fn load_prepared(
        &self,
        fp: Fingerprint,
        valid: impl FnOnce(&Schedule, &RegisterBinding) -> bool,
    ) -> Option<(Schedule, RegisterBinding)> {
        let kind = ArtifactKind::Prepared;
        let loaded = self
            .fetch(kind, &fp.to_string(), decode_prepared)
            .filter(|(sched, rb)| valid(sched, rb));
        self.tally(kind, loaded)
    }

    /// Persists a schedule + register binding under its fingerprint.
    pub fn save_prepared(&self, fp: Fingerprint, sched: &Schedule, rb: &RegisterBinding) {
        self.save(ArtifactKind::Prepared, &fp.to_string(), || {
            encode_prepared(sched, rb)
        });
    }

    // ---- mapped netlists ---------------------------------------------------

    /// Loads a cached elaborated+mapped netlist, or `None` on miss.
    pub fn load_mapped(&self, fp: Fingerprint) -> Option<MappedArtifact> {
        let kind = ArtifactKind::Netlists;
        self.tally(kind, self.fetch(kind, &fp.to_string(), decode_mapped))
    }

    /// Persists a mapped netlist and its backend metrics.
    pub fn save_mapped(&self, fp: Fingerprint, artifact: &MappedArtifact) {
        self.save(ArtifactKind::Netlists, &fp.to_string(), || {
            encode_mapped(artifact)
        });
    }

    // ---- simulation summaries ----------------------------------------------

    /// Loads a cached simulation summary, or `None` on miss.
    pub fn load_sim(&self, fp: Fingerprint) -> Option<SimStats> {
        let kind = ArtifactKind::Sims;
        let loaded = self.fetch(kind, &fp.to_string(), |data| {
            SimStats::from_summary_bin(data).ok()
        });
        self.tally(kind, loaded)
    }

    /// Persists a simulation summary.
    pub fn save_sim(&self, fp: Fingerprint, stats: &SimStats) {
        self.save(ArtifactKind::Sims, &fp.to_string(), || {
            stats.to_summary_bin()
        });
    }

    // ---- SA-table shards ---------------------------------------------------

    /// Loads the SA shard for `(mode, width, k)`, if present and valid.
    /// A shard whose header disagrees with its file name (mis-copied or
    /// hand-renamed) reads as a miss, like any other corrupt artifact.
    pub fn load_sa_table(&self, mode: SaMode, width: usize, k: usize) -> Option<SaTable> {
        self.fetch(
            ArtifactKind::Satables,
            &sa_shard_name(mode, width, k),
            |data| shard_from_bytes(data, mode, width, k),
        )
    }

    /// Merges a table into the shard for its `(mode, width, k)`:
    /// existing entries win, matching the in-memory absorb semantics
    /// (local backends serialize the read-merge-write under an advisory
    /// lock; the daemon does the same on its own store for remote ones).
    /// Returns what the merge did, including the conflict count the
    /// caller should warn about.
    pub fn merge_sa_table(&self, table: &SaTable) -> AbsorbStats {
        self.backend.merge_sa(table)
    }

    // ---- store-level operations --------------------------------------------

    /// Merges every artifact of `other` into this store: the shard-merge
    /// step of a `--shard i/N` fan-out (`hlp merge`). Content-addressed
    /// artifacts are copied when absent and byte-compared when present;
    /// SA shards are merged entry-wise with conflict accounting. Works
    /// across backends — `hlp merge remote:ADDR SHARD...` pushes local
    /// shard stores into a live daemon.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures; a partial merge leaves only
    /// whole (atomically written) artifacts behind.
    pub fn merge_from(&self, other: &ArtifactStore) -> io::Result<MergeReport> {
        let mut report = MergeReport::default();
        let both_local = self.backend.root().is_some() && other.backend.root().is_some();
        for kind in ArtifactKind::ALL {
            for name in other.raw_list(kind)? {
                match kind {
                    ArtifactKind::Prepared | ArtifactKind::Netlists | ArtifactKind::Sims => {
                        if !self.raw_stat(kind, &name) {
                            if let Some(content) = other.raw_get(kind, &name) {
                                self.raw_put(kind, &name, &content);
                                report.copied += 1;
                            }
                            continue;
                        }
                        // Present on both sides. Artifacts are
                        // content-addressed (the name is the fingerprint),
                        // so matching names mean matching bytes barring
                        // version skew; the byte-level integrity compare is
                        // kept where reads are free-ish (both stores local)
                        // and skipped where it would double the wire
                        // traffic of a warm remote merge.
                        let differ = both_local
                            && matches!(
                                (other.raw_get(kind, &name), self.raw_get(kind, &name)),
                                (Some(src), Some(dst)) if src.as_ref() != dst.as_ref()
                            );
                        if differ {
                            report.conflicting += 1;
                        } else {
                            report.identical += 1;
                        }
                    }
                    ArtifactKind::Satables => {
                        let Some(data) = other.raw_get(kind, &name) else {
                            continue;
                        };
                        if let Ok(table) = SaTable::from_bin(&data) {
                            let s = self.merge_sa_table(&table);
                            report.sa.inserted += s.inserted;
                            report.sa.matched += s.matched;
                            report.sa.conflicting += s.conflicting;
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    /// Per-kind size accounting (finished artifact files, legacy `.txt`
    /// slots included; temp leftovers are not artifacts and are not
    /// counted). Local stores only.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures; `Unsupported` for remote
    /// stores (run it on the daemon host).
    pub fn usage(&self) -> io::Result<StoreUsage> {
        let root = self.local_root()?;
        let mut usage = StoreUsage::default();
        for kind in ArtifactKind::ALL {
            let row = &mut usage.kinds[kind.index()];
            for entry in fs::read_dir(root.join(kind.dir()))? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if is_artifact_file(&name) {
                    row.files += 1;
                    row.bytes += entry.metadata()?.len();
                } else if is_quarantine_file(&name) {
                    row.quarantined += 1;
                    row.quarantined_bytes += entry.metadata()?.len();
                }
            }
        }
        Ok(usage)
    }

    /// Prunes the store (local stores only): leftover `*.tmp.*` files
    /// from interrupted writes go once they are older than
    /// `policy.tmp_grace` (younger ones may be a concurrent worker's
    /// in-flight atomic write and are left alone); artifacts older than
    /// `policy.max_age` go; then, if the remaining artifacts exceed
    /// `policy.max_bytes`, the oldest are removed (ties broken by path,
    /// so a pass is deterministic for a given set of file mtimes) until
    /// the store fits. Every artifact is a cache entry — a later run
    /// recomputes and re-persists anything pruned, with identical bytes.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures; files already gone (e.g. a
    /// concurrent gc) are skipped, not errors. `Unsupported` for remote
    /// stores.
    pub fn gc(&self, policy: &GcPolicy) -> io::Result<GcReport> {
        use std::time::SystemTime;
        let root = self.local_root()?;
        let now = SystemTime::now();
        let mut report = GcReport::default();
        // (modified, path, bytes) for every finished artifact.
        let mut files: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        for kind in ArtifactKind::ALL {
            for entry in fs::read_dir(root.join(kind.dir()))? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                let path = entry.path();
                if name.contains(".tmp.") {
                    // Only sweep leftovers that have outlived any
                    // plausible in-flight write; unknown or future
                    // mtimes are treated as fresh (never delete what a
                    // live worker may be about to rename).
                    let age = entry
                        .metadata()
                        .ok()
                        .and_then(|m| m.modified().ok())
                        .and_then(|m| now.duration_since(m).ok());
                    if age.is_some_and(|a| a > policy.tmp_grace) && fs::remove_file(&path).is_ok() {
                        report.swept_tmp += 1;
                    }
                    continue;
                }
                if is_quarantine_file(&name) {
                    // Quarantined files are evidence, not cache entries:
                    // gc reports them but never prunes them.
                    report.quarantined += 1;
                    continue;
                }
                if !is_artifact_file(&name) {
                    continue;
                }
                let meta = entry.metadata()?;
                let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                files.push((modified, path, meta.len()));
            }
        }
        // Oldest first; path tie-break keeps same-mtime batches stable.
        files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut kept: Vec<(SystemTime, PathBuf, u64)> = Vec::new();
        for (modified, path, bytes) in files {
            let expired = policy.max_age.is_some_and(|limit| {
                now.duration_since(modified)
                    .map(|age| age > limit)
                    .unwrap_or(false)
            });
            if expired {
                if fs::remove_file(&path).is_ok() {
                    report.removed += 1;
                    report.removed_bytes += bytes;
                }
            } else {
                kept.push((modified, path, bytes));
            }
        }
        if let Some(max_bytes) = policy.max_bytes {
            let mut total: u64 = kept.iter().map(|(_, _, b)| *b).sum();
            let mut survivors = Vec::with_capacity(kept.len());
            let mut doomed = kept.into_iter();
            for (modified, path, bytes) in doomed.by_ref() {
                if total <= max_bytes {
                    survivors.push((modified, path, bytes));
                    continue;
                }
                if fs::remove_file(&path).is_ok() {
                    report.removed += 1;
                    report.removed_bytes += bytes;
                }
                total -= bytes;
            }
            kept = survivors;
        }
        report.kept = kept.len();
        report.kept_bytes = kept.iter().map(|(_, _, b)| *b).sum();
        Ok(report)
    }

    /// Audits every artifact in the store ([`audit_artifact_bytes`] per
    /// `(kind, name)`) and reports each defect: [`ArtifactStore::fsck_with`]
    /// with `repair` as given and warm watermarks honored.
    ///
    /// # Errors
    ///
    /// See [`ArtifactStore::fsck_with`].
    pub fn fsck(&self, repair: bool) -> io::Result<FsckReport> {
        self.fsck_with(&FsckOptions {
            repair,
            full: false,
        })
    }

    /// Audits the store and reports each defect. Works against both
    /// backends: a remote store delegates the whole pass to its daemon
    /// (`store fsck` on the wire — only verdicts travel, never bodies),
    /// a local store is walked in place.
    ///
    /// The walk is **incremental**: every slot's bytes are read and
    /// fingerprinted, but the expensive decode + semantic check is
    /// skipped when the slot's persisted [`crate::audit`] watermark
    /// still matches (same auditor version, mtime, size, and content
    /// fingerprint). `options.full` ignores watermarks; a bumped
    /// [`crate::AUDITOR_VERSION`] invalidates them all implicitly.
    ///
    /// With `options.repair`, each defective file is renamed aside to
    /// `<file>.bad`: it stops serving lookups, so the next run that
    /// needs the slot recomputes it, while the evidence stays on disk,
    /// counted by [`ArtifactStore::usage`] and [`ArtifactStore::gc`].
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures (a walk that silently skipped a
    /// kind would report a clean store it never examined) and, for
    /// remote stores, wire failures.
    pub fn fsck_with(&self, options: &FsckOptions) -> io::Result<FsckReport> {
        if let Some(delegated) = self.backend.delegate_fsck(options) {
            return delegated;
        }
        let root = self.backend.root();
        let mut report = FsckReport::default();
        for kind in ArtifactKind::ALL {
            let names = self.raw_list(kind)?;
            if let Some(root) = root {
                audit::sweep_orphan_watermarks(root, kind, &names);
            }
            for name in names {
                report.scanned += 1;
                let problem = match self.raw_get(kind, &name) {
                    None => "listed but unreadable".to_string(),
                    Some(data) => {
                        // The watermark the slot would earn if it audits
                        // clean right now; also the skip criterion.
                        let wm_now = root.and_then(|root| {
                            let path = audit::slot_path(root, kind, &name)?;
                            audit::Watermark::of(&path, &data)
                        });
                        if !options.full {
                            let stored =
                                root.and_then(|root| audit::read_watermark(root, kind, &name));
                            if stored.is_some() && stored == wm_now {
                                report.skipped_unchanged += 1;
                                continue;
                            }
                        }
                        match audit_artifact_bytes(kind, &name, &data) {
                            Ok(()) => {
                                if let (Some(root), Some(wm)) = (root, wm_now) {
                                    audit::write_watermark(root, kind, &name, &wm);
                                }
                                continue;
                            }
                            Err(problem) => problem,
                        }
                    }
                };
                let quarantined = options.repair && self.quarantine(kind, &name);
                if quarantined {
                    report.quarantined += 1;
                }
                report.issues.push(FsckIssue {
                    kind,
                    name,
                    problem,
                    quarantined,
                });
            }
        }
        Ok(report)
    }

    /// Renames a defective artifact's file aside to `*.bin.bad` so it
    /// stops serving lookups, and drops the slot's audit watermark (the
    /// clean verdict died with the bytes). Local stores only; returns
    /// whether the file was actually moved.
    fn quarantine(&self, kind: ArtifactKind, name: &str) -> bool {
        let Ok(root) = self.local_root() else {
            return false;
        };
        let path = kind.slot(root, name);
        let moved = fs::rename(&path, path.with_extension("bin.bad")).is_ok();
        if moved {
            audit::invalidate_watermark(root, kind, name);
        }
        moved
    }
}

// ---- codecs ----------------------------------------------------------------

/// Version of the binary prepared-artifact encoding (`"prep"` payload).
const PREPARED_BIN_VERSION: u32 = 1;
/// Version of the binary mapped-artifact encoding (`"mapd"` payload).
const MAPPED_BIN_VERSION: u32 = 1;

/// Appends `vals` as little-endian `u32`s.
fn u32s_bytes(vals: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reads a whole section back as `u32`s.
fn u32s_from(data: &[u8]) -> Option<Vec<u32>> {
    if !data.len().is_multiple_of(4) {
        return None;
    }
    Some(
        data.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

/// The `hlpbin` `"prep"` encoding: one scalar section (`num_steps`,
/// the two library latencies, `num_regs`, as `u64`s), then one section
/// per array — `cstep`, `reg_of`, `swap` (one byte per bool), `birth`,
/// `death`.
fn encode_prepared(sched: &Schedule, rb: &RegisterBinding) -> Vec<u8> {
    let mut w = binio::BinWriter::new(binio::KIND_PREPARED, PREPARED_BIN_VERSION);
    let mut scalars = Vec::with_capacity(32);
    scalars.extend_from_slice(&u64::from(sched.num_steps).to_le_bytes());
    scalars.extend_from_slice(&u64::from(sched.library.addsub_latency).to_le_bytes());
    scalars.extend_from_slice(&u64::from(sched.library.mul_latency).to_le_bytes());
    scalars.extend_from_slice(&(rb.num_regs as u64).to_le_bytes());
    w.section(&scalars);
    w.section(&u32s_bytes(sched.cstep.iter().copied()));
    w.section(&u32s_bytes(rb.reg_of.iter().map(|&r| r as u32)));
    let swap: Vec<u8> = rb.swap.iter().map(|&s| u8::from(s)).collect();
    w.section(&swap);
    w.section(&u32s_bytes(rb.lifetimes.birth.iter().copied()));
    w.section(&u32s_bytes(rb.lifetimes.death.iter().copied()));
    w.finish()
}

fn decode_prepared(data: &[u8]) -> Option<(Schedule, RegisterBinding)> {
    let r = binio::BinReader::open(data, binio::KIND_PREPARED, PREPARED_BIN_VERSION).ok()?;
    let mut scalars = binio::Cursor::new(r.section(0).ok()?);
    let num_steps = u32::try_from(scalars.u64().ok()?).ok()?;
    let addsub_latency = u32::try_from(scalars.u64().ok()?).ok()?;
    let mul_latency = u32::try_from(scalars.u64().ok()?).ok()?;
    let num_regs = scalars.read_len().ok()?;
    if !scalars.done() {
        return None;
    }
    let sched = Schedule {
        cstep: u32s_from(r.section(1).ok()?)?,
        library: ResourceLibrary {
            addsub_latency,
            mul_latency,
        },
        num_steps,
    };
    let rb = RegisterBinding {
        num_regs,
        reg_of: u32s_from(r.section(2).ok()?)?
            .into_iter()
            // lint:allow(trunc-cast): u32 register index widens losslessly to usize
            .map(|v| v as usize)
            .collect(),
        swap: r.section(3).ok()?.iter().map(|&b| b != 0).collect(),
        lifetimes: Lifetimes {
            birth: u32s_from(r.section(4).ok()?)?,
            death: u32s_from(r.section(5).ok()?)?,
        },
    };
    Some((sched, rb))
}

/// The `hlpbin` `"mapd"` encoding: one metrics section (`luts` and
/// `registers` as `u64`s, `depth` as `u32` + padding, the `f64` bits of
/// `estimated_sa`), then the nested exact binary netlist
/// ([`netlist::write_netlist_bin`]) as its own section.
fn encode_mapped(artifact: &MappedArtifact) -> Vec<u8> {
    let mut w = binio::BinWriter::new(binio::KIND_MAPPED, MAPPED_BIN_VERSION);
    let mut meta = Vec::with_capacity(32);
    meta.extend_from_slice(&(artifact.luts as u64).to_le_bytes());
    meta.extend_from_slice(&(artifact.registers as u64).to_le_bytes());
    meta.extend_from_slice(&artifact.depth.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes()); // pad: keeps the f64 aligned
    meta.extend_from_slice(&artifact.estimated_sa.to_bits().to_le_bytes());
    w.section(&meta);
    w.section(&netlist::write_netlist_bin(&artifact.netlist));
    w.finish()
}

fn decode_mapped(data: &[u8]) -> Option<MappedArtifact> {
    let artifact = decode_mapped_unchecked(data)?;
    // The binary codec enforces the structural invariants during the
    // parse itself (id-ordered fanins — hence acyclic — matching
    // arities, in-range ids), so no full `Netlist::check` walk is needed
    // on every warm open. The one defect it admits is an unconnected
    // latch; scan for that directly.
    if artifact
        .netlist
        .latches()
        .iter()
        .any(|&l| artifact.netlist.fanins(l).is_empty())
    {
        return None;
    }
    Some(artifact)
}

/// [`decode_mapped`] without the unconnected-latch gate: the auditor
/// wants the decoded netlist even when it is semantically broken, so it
/// can report *which* violations it carries instead of a bare "does not
/// decode".
fn decode_mapped_unchecked(data: &[u8]) -> Option<MappedArtifact> {
    let r = binio::BinReader::open(data, binio::KIND_MAPPED, MAPPED_BIN_VERSION).ok()?;
    let mut meta = binio::Cursor::new(r.section(0).ok()?);
    let luts = meta.read_len().ok()?;
    let registers = meta.read_len().ok()?;
    let depth = meta.u32().ok()?;
    meta.u32().ok()?; // pad
    let estimated_sa = f64::from_bits(meta.u64().ok()?);
    if !meta.done() {
        return None;
    }
    let netlist = netlist::parse_netlist_bin(r.section(1).ok()?).ok()?;
    Some(MappedArtifact {
        netlist,
        luts,
        depth,
        estimated_sa,
        registers,
    })
}

/// Test-only helper shared by this crate's store-backed test modules:
/// a fresh, uniquely named store under the system temp directory.
#[cfg(test)]
pub(crate) mod testutil {
    use super::ArtifactStore;
    use std::sync::atomic::{AtomicU32, Ordering};

    pub(crate) fn temp_store(tag: &str) -> ArtifactStore {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hlpower-store-test-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(&dir).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::ArtifactKind::{Netlists, Prepared, Satables, Sims};
    use super::*;
    use crate::fingerprint::{netlist_fingerprint, prepared_fingerprint};
    use crate::flow::{self, paper_constraint, FlowConfig};
    use cdfg::FuType;

    fn temp_store(tag: &str) -> ArtifactStore {
        super::testutil::temp_store(tag)
    }

    #[test]
    fn prepared_roundtrips_exactly() {
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig::fast();
        let (sched, rb) = flow::prepare(&g, &rc, &cfg);
        let store = temp_store("prep");
        let fp = prepared_fingerprint(&g, &rc, &cfg);
        assert!(
            store.load_prepared(fp, |_, _| true).is_none(),
            "cold store misses"
        );
        store.save_prepared(fp, &sched, &rb);
        let (s2, r2) = store
            .load_prepared(fp, |_, _| true)
            .expect("warm store hits");
        assert_eq!(s2, sched);
        assert_eq!(r2.num_regs, rb.num_regs);
        assert_eq!(r2.reg_of, rb.reg_of);
        assert_eq!(r2.swap, rb.swap);
        assert_eq!(r2.lifetimes.birth, rb.lifetimes.birth);
        assert_eq!(r2.lifetimes.death, rb.lifetimes.death);
        r2.validate(&g).unwrap();
        let c = store.counters();
        assert_eq!((c.prepared_hits, c.prepared_misses), (1, 1));
    }

    #[test]
    fn mapped_artifact_roundtrips_exactly() {
        // A real mapped datapath netlist (latches, escaped-free names,
        // LUT tables) must survive the store byte for byte.
        let p = cdfg::profile("pr").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("pr").unwrap();
        let cfg = FlowConfig::fast();
        let (sched, rb) = flow::prepare(&g, &rc, &cfg);
        let binder = crate::Binder::HlPower { alpha: 0.5 };
        let mut table = flow::sa_table_for(&cfg, binder);
        let outcome = flow::bind(&g, &sched, &rb, &rc, binder, &mut table);
        let (dp, mapped) = flow::elaborate_map(&g, &sched, &rb, &outcome.fb, &cfg);
        let artifact = MappedArtifact {
            netlist: mapped.netlist.clone(),
            luts: mapped.stats.luts,
            depth: mapped.stats.depth,
            estimated_sa: mapped.stats.estimated_sa,
            registers: dp.registers,
        };
        let store = temp_store("mapped");
        let fp = netlist_fingerprint(prepared_fingerprint(&g, &rc, &cfg), &outcome.fb, &cfg);
        assert!(store.load_mapped(fp).is_none());
        store.save_mapped(fp, &artifact);
        let back = store.load_mapped(fp).expect("warm hit");
        assert_eq!(back.luts, artifact.luts);
        assert_eq!(back.depth, artifact.depth);
        assert_eq!(back.estimated_sa.to_bits(), artifact.estimated_sa.to_bits());
        assert_eq!(back.registers, artifact.registers);
        assert_eq!(
            write_netlist_text(&back.netlist),
            write_netlist_text(&artifact.netlist),
            "cached netlist must be the exact netlist"
        );
        // And it simulates identically, transition counts included.
        let a = flow::simulate(&dp, &artifact.netlist, &cfg);
        let b = flow::simulate(&dp, &back.netlist, &cfg);
        assert_eq!(a.total_transitions, b.total_transitions);
        assert_eq!(a.glitch_transitions, b.glitch_transitions);
    }

    #[test]
    fn sim_summary_roundtrips() {
        let store = temp_store("sim");
        let fp = Fingerprint(7);
        assert!(store.load_sim(fp).is_none());
        let stats = SimStats {
            cycles: 100,
            total_transitions: 5000,
            functional_transitions: 4000,
            glitch_transitions: 1000,
            per_node: vec![0; 12],
        };
        store.save_sim(fp, &stats);
        let back = store.load_sim(fp).unwrap();
        assert_eq!(back.total_transitions, 5000);
        assert_eq!(back.per_node.len(), 12);
        let c = store.counters();
        assert_eq!((c.sim_hits, c.sim_misses), (1, 1));
    }

    #[test]
    fn sa_shard_merges_on_absorb() {
        let store = temp_store("sa");
        assert!(store.load_sa_table(SaMode::Precalculated, 4, 4).is_none());
        let mut a = SaTable::new(4, 4);
        a.insert(FuType::AddSub, 1, 1, 2.0);
        let s = store.merge_sa_table(&a);
        assert_eq!((s.inserted, s.conflicting), (1, 0));
        // A second shard with one overlapping (conflicting) and one new
        // entry merges without losing the existing value.
        let mut b = SaTable::new(4, 4);
        b.insert(FuType::AddSub, 1, 1, 9.0);
        b.insert(FuType::Mul, 2, 2, 5.0);
        let s = store.merge_sa_table(&b);
        assert_eq!((s.inserted, s.matched, s.conflicting), (1, 0, 1));
        let merged = store.load_sa_table(SaMode::Precalculated, 4, 4).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.lookup(FuType::AddSub, 1, 1), Some(2.0));
        // Shards are per (mode, width, k): a zero-delay table lands in
        // its own file.
        let mut zd = SaTable::new(4, 4).with_mode(SaMode::ZeroDelayAblation);
        zd.insert(FuType::AddSub, 1, 1, 1.0);
        store.merge_sa_table(&zd);
        assert_eq!(
            store
                .load_sa_table(SaMode::ZeroDelayAblation, 4, 4)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            store
                .load_sa_table(SaMode::Precalculated, 4, 4)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn merge_from_unions_two_stores() {
        let a = temp_store("merge-a");
        let b = temp_store("merge-b");
        let stats = SimStats {
            cycles: 10,
            total_transitions: 100,
            functional_transitions: 90,
            glitch_transitions: 10,
            per_node: vec![],
        };
        a.save_sim(Fingerprint(1), &stats);
        b.save_sim(Fingerprint(1), &stats); // identical in both
        b.save_sim(Fingerprint(2), &stats); // only in b
        let mut t = SaTable::new(4, 4);
        t.insert(FuType::AddSub, 1, 1, 2.0);
        b.merge_sa_table(&t);
        let report = a.merge_from(&b).unwrap();
        assert_eq!(report.copied, 1);
        assert_eq!(report.identical, 1);
        assert_eq!(report.conflicting, 0);
        assert_eq!(report.sa.inserted, 1);
        assert!(a.load_sim(Fingerprint(2)).is_some());
        assert_eq!(
            a.load_sa_table(SaMode::Precalculated, 4, 4).unwrap().len(),
            1
        );
        assert!(report.to_string().contains("1 artifacts copied"));
    }

    #[test]
    fn merge_from_skips_interrupted_write_leftovers() {
        // A worker killed between fs::write and fs::rename leaves
        // `*.tmp.<pid>.<n>` files behind; merging must neither copy them
        // (they are not artifacts) nor panic parsing them.
        let src = temp_store("tmp-src");
        let dst = temp_store("tmp-dst");
        let mut t = SaTable::new(6, 6);
        t.insert(FuType::AddSub, 1, 1, 2.0);
        src.merge_sa_table(&t);
        fs::write(
            src.root()
                .join("satables")
                .join("precalculated-w6-k6.tmp.99.0"),
            t.to_bin(),
        )
        .unwrap();
        fs::write(src.root().join("sims").join("deadbeef.tmp.99.1"), "junk").unwrap();
        let report = dst.merge_from(&src).unwrap();
        assert_eq!(report.copied, 0, "tmp leftovers are not artifacts");
        assert_eq!(report.sa.inserted, 1, "only the real shard merges");
        assert!(!dst.root().join("sims").join("deadbeef.tmp.99.1").exists());
    }

    #[test]
    fn k_skewed_shard_file_reads_as_a_miss() {
        // A shard whose header disagrees with its file name (e.g. a k=6
        // table mis-copied over the k=4 slot) must be a miss, not a
        // panic further down in merge-on-absorb.
        let store = temp_store("k-skew");
        let mut t = SaTable::new(4, 6);
        t.insert(FuType::AddSub, 1, 1, 2.0);
        fs::write(
            store
                .root()
                .join("satables")
                .join("precalculated-w4-k4.bin"),
            t.to_bin(),
        )
        .unwrap();
        assert!(store.load_sa_table(SaMode::Precalculated, 4, 4).is_none());
        // Merging a genuine k=4 table over the skewed file replaces it
        // (the skewed content reads as absent) without panicking.
        let mut ok = SaTable::new(4, 4);
        ok.insert(FuType::Mul, 2, 2, 5.0);
        let stats = store.merge_sa_table(&ok);
        assert_eq!(stats.inserted, 1);
        let back = store.load_sa_table(SaMode::Precalculated, 4, 4).unwrap();
        assert_eq!(back.k(), 4);
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn gc_accounts_prunes_and_pruned_artifacts_recompute_correctly() {
        use crate::pipeline::Pipeline;
        use crate::Binder;
        use std::sync::Arc;

        let store = Arc::new(temp_store("gc"));
        let suite = {
            let p = cdfg::profile("wang").unwrap();
            vec![(cdfg::generate(p, p.seed), paper_constraint("wang").unwrap())]
        };
        let binders = [Binder::HlPower { alpha: 0.5 }];
        let cfg = FlowConfig::fast();
        let first =
            Pipeline::with_store(cfg.clone(), store.clone()).run_matrix(&suite, &binders, 1);

        // Accounting sees every artifact kind the run produced.
        let usage = store.usage().unwrap();
        assert_eq!(usage.of(Prepared).files, 1);
        assert_eq!(usage.of(Netlists).files, 1);
        assert_eq!(usage.of(Sims).files, 1);
        assert_eq!(usage.of(Satables).files, 1);
        assert!(usage.total().bytes > 0);
        assert!(usage.total().files == 4);
        assert!(usage.to_string().contains("total"));

        // A generous policy prunes nothing.
        let keep_all = store
            .gc(&GcPolicy {
                max_age: Some(Duration::from_secs(3600)),
                max_bytes: Some(u64::MAX),
                ..GcPolicy::default()
            })
            .unwrap();
        assert_eq!(keep_all.removed, 0);
        assert_eq!(keep_all.kept, 4);
        assert_eq!(keep_all.kept_bytes, usage.total().bytes);

        // max_bytes 0 evicts everything, oldest first until empty.
        let wipe = store.gc(&GcPolicy {
            max_age: None,
            max_bytes: Some(0),
            ..GcPolicy::default()
        });
        let wipe = wipe.unwrap();
        assert_eq!(wipe.removed, 4);
        assert_eq!(wipe.removed_bytes, usage.total().bytes);
        assert_eq!(wipe.kept, 0);
        assert_eq!(store.usage().unwrap().total().files, 0);

        // A gc'd store is only a cold cache: the next run recomputes
        // every pruned artifact, produces identical results, and leaves
        // the store warm again.
        let fresh = Arc::new(ArtifactStore::open(store.root()).unwrap());
        let pipeline = Pipeline::with_store(cfg, fresh.clone());
        let second = pipeline.run_matrix(&suite, &binders, 1);
        let stats = pipeline.stats();
        assert_eq!(stats.stages.mappings, 1, "pruned netlist recomputes");
        assert_eq!(stats.stages.simulations, 1, "pruned sim recomputes");
        assert_eq!(stats.store.hits(), 0);
        let (a, b) = (&first[0][0], &second[0][0]);
        assert_eq!(a.luts, b.luts);
        assert_eq!(a.power.total_transitions, b.power.total_transitions);
        assert_eq!(
            a.power.dynamic_power_mw.to_bits(),
            b.power.dynamic_power_mw.to_bits()
        );
        assert_eq!(a.mux, b.mux);
        assert_eq!(fresh.usage().unwrap().total().files, 4, "warm again");
    }

    #[test]
    fn gc_sweeps_only_aged_interrupted_write_leftovers() {
        let store = temp_store("gc-tmp");
        let stats = SimStats {
            cycles: 10,
            total_transitions: 100,
            functional_transitions: 90,
            glitch_transitions: 10,
            per_node: vec![],
        };
        store.save_sim(Fingerprint(1), &stats);
        fs::write(store.root().join("sims").join("dead.tmp.99.0"), "junk").unwrap();
        // The default grace window spares a just-written temp file: it
        // may be a concurrent worker's in-flight write_atomic, and
        // sweeping it would race the rename (the PR-5 regression).
        let report = store.gc(&GcPolicy::default()).unwrap();
        assert_eq!(report.swept_tmp, 0, "fresh temp files must survive gc");
        assert_eq!(report.removed, 0);
        assert_eq!(report.kept, 1);
        assert!(store.root().join("sims").join("dead.tmp.99.0").exists());
        // With the grace window elapsed (zero here), the leftover goes;
        // finished artifacts stay either way.
        let report = store
            .gc(&GcPolicy {
                tmp_grace: Duration::ZERO,
                ..GcPolicy::default()
            })
            .unwrap();
        assert_eq!(report.swept_tmp, 1);
        assert_eq!(report.removed, 0);
        assert_eq!(report.kept, 1);
        assert!(!store.root().join("sims").join("dead.tmp.99.0").exists());
        assert!(store.load_sim(Fingerprint(1)).is_some());
    }

    #[test]
    fn corrupt_files_count_as_misses() {
        let store = temp_store("corrupt");
        let fp = Fingerprint(3);
        fs::write(store.root().join("sims").join(format!("{fp}.bin")), "junk").unwrap();
        assert!(store.load_sim(fp).is_none());
        fs::write(
            store.root().join("prepared").join(format!("{fp}.bin")),
            "# hlpower prepared v0\nend\n",
        )
        .unwrap();
        assert!(store.load_prepared(fp, |_, _| true).is_none());
        fs::write(
            store.root().join("netlists").join(format!("{fp}.bin")),
            "# hlpower mapped v1\nluts x\n",
        )
        .unwrap();
        assert!(store.load_mapped(fp).is_none());
        let c = store.counters();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn corrupt_binary_files_read_as_misses_then_rewrite() {
        let store = temp_store("bin-corrupt");
        let fp = Fingerprint(9);
        let stats = SimStats {
            cycles: 10,
            total_transitions: 100,
            functional_transitions: 90,
            glitch_transitions: 10,
            per_node: vec![0; 3],
        };
        store.save_sim(fp, &stats);
        let path = store.root().join("sims").join(format!("{fp}.bin"));
        let good = fs::read(&path).unwrap();
        assert!(binio::is_binary(&good), "stores write hlpbin containers");

        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load_sim(fp).is_none(), "truncation is a miss");

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(store.load_sim(fp).is_none(), "bad magic is a miss");

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(store.load_sim(fp).is_none(), "bad checksum is a miss");

        // A well-formed container whose schema version we don't speak
        // yet: written by a newer build, read as a miss, never an error.
        let mut w = binio::BinWriter::new(binio::KIND_SIM, u32::MAX);
        w.section(&[0u8; 40]);
        fs::write(&path, w.finish()).unwrap();
        assert!(store.load_sim(fp).is_none(), "future version is a miss");

        // A valid container of the wrong kind in the slot.
        let mut w = binio::BinWriter::new(binio::KIND_SA_TABLE, 1);
        w.section(&[0u8; 8]);
        fs::write(&path, w.finish()).unwrap();
        assert!(store.load_sim(fp).is_none(), "wrong kind is a miss");

        let c = store.counters();
        assert_eq!((c.hits(), c.misses()), (0, 5));
        // The pipeline reacts to a miss by recomputing and rewriting;
        // the slot heals once rewritten.
        store.save_sim(fp, &stats);
        assert_eq!(store.load_sim(fp).unwrap().total_transitions, 100);
    }

    #[test]
    fn legacy_text_slots_read_as_misses_and_gc_reclaims_them() {
        // A `.txt` slot in the retired text encoding, as older versions
        // wrote it: not an artifact any more, so a lookup misses, the
        // recompute lands in `.bin`, listings and fsck never see the
        // text file, and usage/gc still count and reclaim it.
        let store = temp_store("legacy");
        let fp = Fingerprint(2);
        let sims = store.root().join("sims");
        let legacy = sims.join(format!("{fp}.txt"));
        fs::write(
            &legacy,
            "# hlpower sim v1\ncycles 1 total 10 functional 10 glitch 0 nodes 0\n",
        )
        .unwrap();
        assert!(store.load_sim(fp).is_none(), "a legacy slot is a miss");
        assert!(!store.raw_stat(Sims, &fp.to_string()));
        assert!(store.raw_list(Sims).unwrap().is_empty());
        let stats = SimStats {
            cycles: 1,
            total_transitions: 10,
            functional_transitions: 10,
            glitch_transitions: 0,
            per_node: vec![],
        };
        store.save_sim(fp, &stats);
        assert!(sims.join(format!("{fp}.bin")).exists());
        assert_eq!(store.load_sim(fp).unwrap().total_transitions, 10);
        assert_eq!(store.raw_list(Sims).unwrap(), vec![fp.to_string()]);
        let report = store.fsck(false).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.scanned, 1, "fsck walks the .bin slot only");
        assert_eq!(
            store.usage().unwrap().of(Sims).files,
            2,
            "usage counts both"
        );
        let wipe = store
            .gc(&GcPolicy {
                max_age: None,
                max_bytes: Some(0),
                ..GcPolicy::default()
            })
            .unwrap();
        assert_eq!(wipe.removed, 2);
        assert!(!legacy.exists(), "gc reclaims the legacy slot");
        assert_eq!(store.usage().unwrap().total().files, 0);
    }

    #[test]
    fn backend_raw_access_and_listing() {
        let store = temp_store("raw");
        assert!(!store.raw_stat(Sims, "aa"));
        store.raw_put(Sims, "aa", b"body-a");
        store.raw_put(Sims, "bb", b"body-b");
        assert!(store.raw_stat(Sims, "aa"));
        assert_eq!(
            store.raw_get(Sims, "aa").as_deref(),
            Some(b"body-a".as_ref())
        );
        assert!(store.raw_get(Sims, "zz").is_none());
        assert_eq!(store.raw_list(Sims).unwrap(), vec!["aa", "bb"]);
        assert_eq!(store.raw_list(Netlists).unwrap(), Vec::<String>::new());
        // Raw access is uncounted: it serves the daemon's wire verbs and
        // must not pollute the handle's hit/miss attribution.
        assert_eq!(store.counters(), StoreCounts::default());
        assert_eq!(store.describe(), store.root().display().to_string());
        assert!(store.backend().root().is_some());
    }

    #[test]
    fn open_spec_classifies_local_and_remote() {
        let dir = std::env::temp_dir().join(format!("hlpower-spec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let local = ArtifactStore::open_spec(dir.to_str().unwrap()).unwrap();
        assert!(local.backend().root().is_some());
        // `remote:` without an address is a usage error, not a dial.
        assert!(ArtifactStore::open_spec("remote:").is_err());
        // A remote spec with no daemon behind it fails fast (connection
        // refused), instead of producing a store that silently misses.
        assert!(ArtifactStore::open_spec("remote:127.0.0.1:1").is_err());
    }

    #[test]
    fn wire_names_and_kinds_are_validated() {
        for good in ["0", "deadbeef01", "precalculated-w8-k4", "a_b.c-d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".",
            ".hidden",
            "a/b",
            "../escape",
            "a b",
            "a\nb",
            "名前",
            &"x".repeat(161),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for kind in ArtifactKind::ALL {
            assert_eq!(ArtifactKind::parse(kind.dir()), Some(kind));
            assert_eq!(kind.to_string(), kind.dir());
            assert_eq!(ArtifactKind::ALL[kind.index()], kind);
        }
        assert_eq!(ArtifactKind::parse("locks"), None);
        assert_eq!(ArtifactKind::parse(""), None);
        assert_eq!(ArtifactKind::parse("Sims"), None);
    }

    /// A store holding one real artifact of every kind, produced by the
    /// same save paths the flow uses.
    fn populated_store(tag: &str) -> ArtifactStore {
        let store = temp_store(tag);
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig::fast();
        let (sched, rb) = flow::prepare(&g, &rc, &cfg);
        store.save_prepared(prepared_fingerprint(&g, &rc, &cfg), &sched, &rb);
        let binder = crate::Binder::HlPower { alpha: 0.5 };
        let mut table = flow::sa_table_for(&cfg, binder);
        let outcome = flow::bind(&g, &sched, &rb, &rc, binder, &mut table);
        let (dp, mapped) = flow::elaborate_map(&g, &sched, &rb, &outcome.fb, &cfg);
        let artifact = MappedArtifact {
            netlist: mapped.netlist.clone(),
            luts: mapped.stats.luts,
            depth: mapped.stats.depth,
            estimated_sa: mapped.stats.estimated_sa,
            registers: dp.registers,
        };
        let nfp = netlist_fingerprint(prepared_fingerprint(&g, &rc, &cfg), &outcome.fb, &cfg);
        store.save_mapped(nfp, &artifact);
        store.save_sim(nfp, &flow::simulate(&dp, &artifact.netlist, &cfg));
        let mut sa = SaTable::new(4, 4);
        sa.insert(FuType::AddSub, 1, 2, 1.5);
        store.merge_sa_table(&sa);
        store
    }

    #[test]
    fn fsck_passes_a_store_the_flow_itself_populated() {
        let store = populated_store("fsck-clean");
        let report = store.fsck(false).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.scanned, 4, "one artifact of every kind walked");
        assert_eq!(
            format!("{report}"),
            "ok: 4 artifact(s) scanned (4 audited, 0 unchanged), no defects"
        );
        // A second, warm pass audits nothing: every slot's watermark
        // still matches.
        let warm = store.fsck(false).unwrap();
        assert!(warm.is_clean(), "{warm}");
        assert_eq!(warm.skipped_unchanged, 4, "{warm}");
        assert_eq!(warm.audited(), 0, "{warm}");
        // --full ignores the watermarks and re-audits everything.
        let full = store
            .fsck_with(&FsckOptions {
                repair: false,
                full: true,
            })
            .unwrap();
        assert_eq!(full.audited(), 4, "{full}");
        assert_eq!(full.skipped_unchanged, 0, "{full}");
    }

    #[test]
    fn fsck_flags_corruption_and_repair_quarantines() {
        let store = populated_store("fsck-bad");
        let sims_dir = store.root().join("sims");
        let sim_file = fs::read_dir(&sims_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "bin"))
            .expect("populated store has a binary sim summary");
        // Bit-flip the summary mid-file: the container checksum breaks.
        let mut bytes = fs::read(&sim_file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&sim_file, &bytes).unwrap();
        // Inject a mapped artifact whose netlist decodes but is
        // semantically broken (undriven latch) — the defect the decode
        // codecs alone cannot name.
        let mut nl = Netlist::new("hostile");
        nl.add_latch("q", false);
        let broken = MappedArtifact {
            netlist: nl,
            luts: 0,
            depth: 0,
            estimated_sa: 0.0,
            registers: 1,
        };
        let bad_fp = Fingerprint(0xbad).to_string();
        store.raw_put(Netlists, &bad_fp, &encode_mapped(&broken));
        // One artifact filed under a name that is no fingerprint.
        store.raw_put(Sims, "not-a-fingerprint", b"# hlpower sim v1\n");
        // And a mapped artifact with two identical drivers on one net:
        // error-grade, yet mechanically fixable. It is quarantined like
        // any other defect; nothing rewrites the slot.
        let twin_fp = Fingerprint(0xf1f).to_string();
        store.raw_put(Netlists, &twin_fp, &fixable_mapped_bin());

        let report = store.fsck(false).unwrap();
        assert_eq!(report.issues.len(), 4, "{report}");
        assert_eq!(report.quarantined, 0, "report-only walk renames nothing");
        let problem_of = |kind: ArtifactKind, name: &str| -> &str {
            &report
                .issues
                .iter()
                .find(|i| i.kind == kind && i.name == name)
                .unwrap_or_else(|| panic!("no issue for {kind}/{name} in {report}"))
                .problem
        };
        let sim_name = sim_file.file_stem().unwrap().to_str().unwrap().to_string();
        assert!(
            problem_of(Sims, &sim_name).contains("binary container"),
            "{report}"
        );
        assert!(
            problem_of(Netlists, &bad_fp).contains("no data driver"),
            "{report}"
        );
        assert!(
            problem_of(Sims, "not-a-fingerprint").contains("fingerprint"),
            "{report}"
        );
        assert!(
            problem_of(Netlists, &twin_fp).contains("multiply driven"),
            "{report}"
        );

        // --repair renames the defective files aside ...
        let repaired = store.fsck(true).unwrap();
        assert_eq!(repaired.issues.len(), 4);
        assert_eq!(repaired.quarantined, 4);
        assert!(repaired.issues.iter().all(|i| i.quarantined), "{repaired}");
        // ... keeping their bytes as evidence ...
        let twin_bad = store
            .root()
            .join("netlists")
            .join(format!("{twin_fp}.bin.bad"));
        assert_eq!(fs::read(&twin_bad).unwrap(), fixable_mapped_bin());
        // ... after which they stop serving lookups and listings ...
        assert!(store.raw_get(Netlists, &bad_fp).is_none());
        assert!(store.raw_get(Netlists, &twin_fp).is_none());
        assert!(store.raw_get(Sims, &sim_name).is_none());
        assert!(store.fsck(false).unwrap().is_clean());
        // ... but stay visible to usage and gc accounting.
        let usage = store.usage().unwrap();
        assert_eq!(usage.total().quarantined, 4);
        assert!(usage.total().quarantined_bytes > 0);
        assert_eq!(usage.of(Sims).quarantined, 2);
        assert_eq!(usage.of(Netlists).quarantined, 2);
        assert!(format!("{usage}").contains("quarantined"));
        let gc = store.gc(&GcPolicy::default()).unwrap();
        assert_eq!(gc.quarantined, 4, "gc counts quarantined files");
        assert!(format!("{gc}").contains("4 quarantined file(s)"));
        let after = store.usage().unwrap();
        assert_eq!(
            after.total().quarantined,
            4,
            "gc must never delete quarantine evidence"
        );
    }

    #[test]
    fn audit_rejects_kind_confusion_and_skewed_shard_headers() {
        // A valid artifact of one kind filed under another: the deep
        // container proof passes, but the payload kind gives it away.
        let stats = SimStats {
            cycles: 4,
            total_transitions: 10,
            functional_transitions: 8,
            glitch_transitions: 2,
            per_node: vec![1, 2, 3, 4],
        };
        let sim = stats.to_summary_bin();
        let fp = Fingerprint(1).to_string();
        assert!(audit_artifact_bytes(Sims, &fp, &sim).is_ok());
        let err = audit_artifact_bytes(Prepared, &fp, &sim).unwrap_err();
        assert!(err.contains("does not match store kind"), "{err}");
        // An SA shard whose header disagrees with the name it is filed
        // under (hand-renamed or mis-copied).
        let mut sa = SaTable::new(4, 4);
        sa.insert(FuType::Mul, 1, 1, 2.0);
        let shard = sa.to_bin();
        assert!(audit_artifact_bytes(Satables, "precalculated-w4-k4", &shard).is_ok());
        let err = audit_artifact_bytes(Satables, "precalculated-w8-k4", &shard).unwrap_err();
        assert!(err.contains("disagrees with its name"), "{err}");
        let err = audit_artifact_bytes(Satables, "oddly-named", &shard).unwrap_err();
        assert!(err.contains("shard stem"), "{err}");
        // Unsafe names are refused outright.
        assert!(audit_artifact_bytes(Sims, "../escape", &sim).is_err());
    }

    #[test]
    fn bit_flips_and_truncations_audit_as_errors_never_panic() {
        // Fuzz the decode surface of every artifact kind the flow
        // actually writes: single-bit flips at strided positions and
        // strided truncations. Each mutation must come back as a clean
        // `Err` from the audit — a panic fails the test on the spot, and
        // a flip the checksummed container *accepts* is a codec hole.
        let store = populated_store("fuzz");
        let mut mutations = 0usize;
        let mut rejected = 0usize;
        for kind in ArtifactKind::ALL {
            for name in store.raw_list(kind).unwrap() {
                let good = store.raw_get(kind, &name).unwrap();
                assert!(
                    audit_artifact_bytes(kind, &name, &good).is_ok(),
                    "pristine {kind}/{name} must audit clean"
                );
                let step = (good.len() / 64).max(1);
                for pos in (0..good.len()).step_by(step) {
                    for bit in 0..8 {
                        let mut bad = good.to_vec();
                        bad[pos] ^= 1 << bit;
                        mutations += 1;
                        if audit_artifact_bytes(kind, &name, &bad).is_err() {
                            rejected += 1;
                        }
                        // The sniffing engine behind `hlp check` must
                        // hold up against the same bytes.
                        let _ = audit_artifact_auto(&bad);
                    }
                }
                for len in (0..good.len()).step_by(step) {
                    mutations += 1;
                    if audit_artifact_bytes(kind, &name, &good[..len]).is_err() {
                        rejected += 1;
                    }
                    let _ = audit_artifact_auto(&good[..len]);
                }
            }
        }
        assert!(
            mutations > 1000,
            "fuzz actually ran ({mutations} mutations)"
        );
        assert_eq!(
            rejected, mutations,
            "every mutation of a checksummed artifact must be rejected \
             ({rejected}/{mutations} were)"
        );
    }

    #[test]
    fn watermark_invalidation_matrix() {
        use std::time::SystemTime;
        let store = populated_store("wm-matrix");
        // Cold pass audits everything and persists watermarks; the warm
        // pass right after it audits nothing.
        assert_eq!(store.fsck(false).unwrap().audited(), 4);
        let warm = store.fsck(false).unwrap();
        assert_eq!(warm.audited(), 0, "{warm}");
        assert_eq!(warm.skipped_unchanged, 4);

        let sims_dir = store.root().join("sims");
        let sim_file = fs::read_dir(&sims_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "bin"))
            .expect("populated store has a binary sim summary");
        let sim_name = sim_file.file_stem().unwrap().to_str().unwrap().to_string();
        let pristine = fs::read(&sim_file).unwrap();

        // (1) Touched mtime, identical bytes: the slot re-audits once
        // (clean), earns a fresh watermark, and goes quiet again.
        std::thread::sleep(Duration::from_millis(15));
        fs::write(&sim_file, &pristine).unwrap();
        let touched = store.fsck(false).unwrap();
        assert!(touched.is_clean(), "{touched}");
        assert_eq!(touched.audited(), 1, "mtime change forces one re-audit");
        assert_eq!(store.fsck(false).unwrap().audited(), 0);

        // (2) Flipped byte under a forged (restored) mtime: mtime and
        // size both still match the watermark, so only the content
        // fingerprint can catch it — and must.
        let mtime = fs::metadata(&sim_file).unwrap().modified().unwrap();
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        fs::write(&sim_file, &flipped).unwrap();
        fs::File::options()
            .write(true)
            .open(&sim_file)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        assert_eq!(
            fs::metadata(&sim_file).unwrap().modified().unwrap(),
            mtime,
            "mtime forged back"
        );
        let caught = store.fsck(false).unwrap();
        assert_eq!(caught.audited(), 1, "{caught}");
        assert_eq!(caught.issues.len(), 1, "{caught}");
        assert_eq!(caught.issues[0].name, sim_name);
        // Restore the pristine bytes; the slot re-audits clean once.
        fs::write(&sim_file, &pristine).unwrap();
        fs::File::options()
            .write(true)
            .open(&sim_file)
            .unwrap()
            .set_modified(SystemTime::now())
            .unwrap();
        assert!(store.fsck(false).unwrap().is_clean());
        assert_eq!(store.fsck(false).unwrap().audited(), 0);

        // (3) Auditor-version bump: a watermark from an older (or
        // newer) auditor never vouches for a slot, bytes untouched.
        let wm_path = store
            .root()
            .join("audit")
            .join("sims")
            .join(format!("{sim_name}.wm"));
        let wm_line = fs::read_to_string(&wm_path).unwrap();
        let expected = format!("auditor {}", crate::AUDITOR_VERSION);
        assert!(wm_line.contains(&expected), "{wm_line}");
        fs::write(&wm_path, wm_line.replace(&expected, "auditor 99999")).unwrap();
        let bumped = store.fsck(false).unwrap();
        assert!(bumped.is_clean(), "{bumped}");
        assert_eq!(bumped.audited(), 1, "version skew forces a re-audit");
        assert_eq!(store.fsck(false).unwrap().audited(), 0);

        // (4) --full ignores every watermark.
        let full = store
            .fsck_with(&FsckOptions {
                repair: false,
                full: true,
            })
            .unwrap();
        assert_eq!(full.audited(), 4, "{full}");
        assert_eq!(full.skipped_unchanged, 0);
        // ... and still leaves the warm path warm.
        assert_eq!(store.fsck(false).unwrap().audited(), 0);
    }

    /// A binary mapped artifact whose netlist carries an error-grade but
    /// mechanically fixable defect: two identically-named, identical
    /// AND drivers (`MultiplyDriven`), plus a dead node. Hand-assembled
    /// with the public container writer because every in-crate encoder
    /// (correctly) refuses to build duplicate-name graphs — which is
    /// exactly why the binary decode path trusts names and the checker
    /// must not.
    fn fixable_mapped_bin() -> Vec<u8> {
        use netlist::binio::{put_str, BinWriter, KIND_MAPPED, KIND_NETLIST, NETLIST_VERSION};
        use netlist::TruthTable;
        let mut w = BinWriter::new(KIND_NETLIST, NETLIST_VERSION);
        let mut meta = Vec::new();
        put_str(&mut meta, "hostile");
        meta.extend_from_slice(&5u64.to_le_bytes()); // nodes
        meta.extend_from_slice(&2u64.to_le_bytes()); // outputs
        w.section(&meta);
        let mut nodes = Vec::new();
        let logic = |nodes: &mut Vec<u8>, name: &str, fanins: &[u32], table: &TruthTable| {
            put_str(nodes, name);
            nodes.push(2u8); // TAG_LOGIC
            nodes.extend_from_slice(&(fanins.len() as u32).to_le_bytes());
            for f in fanins {
                nodes.extend_from_slice(&f.to_le_bytes());
            }
            for word in table.words() {
                nodes.extend_from_slice(&word.to_le_bytes());
            }
        };
        put_str(&mut nodes, "a");
        nodes.push(0u8); // TAG_INPUT
        logic(&mut nodes, "dup", &[0, 0], &TruthTable::and(2));
        logic(&mut nodes, "dup", &[0, 0], &TruthTable::and(2));
        logic(&mut nodes, "y", &[2, 0], &TruthTable::or(2));
        logic(&mut nodes, "deadend", &[0], &TruthTable::inverter());
        w.section(&nodes);
        let mut outputs = Vec::new();
        put_str(&mut outputs, "o");
        outputs.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut outputs, "p");
        outputs.extend_from_slice(&3u32.to_le_bytes());
        w.section(&outputs);
        let nl_bytes = w.finish();

        let mut m = BinWriter::new(KIND_MAPPED, MAPPED_BIN_VERSION);
        let mut meta = Vec::new();
        meta.extend_from_slice(&4u64.to_le_bytes()); // luts (stale on purpose)
        meta.extend_from_slice(&0u64.to_le_bytes()); // registers
        meta.extend_from_slice(&2u32.to_le_bytes()); // depth
        meta.extend_from_slice(&0u32.to_le_bytes()); // pad
        meta.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        m.section(&meta);
        m.section(&nl_bytes);
        m.finish()
    }

    #[test]
    fn rewrite_never_resurrects_quarantine_and_resets_the_audit_story() {
        let store = populated_store("rewrite-bad-twins");
        // Quarantine a corrupt slot, then put a *good* artifact under
        // the same name: the live slot and its `.bad` twin now coexist.
        let fp = Fingerprint(0xc0);
        let name = fp.to_string();
        store.raw_put(Sims, &name, b"garbage");
        let report = store.fsck(true).unwrap();
        assert_eq!(report.quarantined, 1, "{report}");
        let stats = SimStats {
            cycles: 2,
            total_transitions: 4,
            functional_transitions: 3,
            glitch_transitions: 1,
            per_node: vec![2, 2],
        };
        store.save_sim(fp, &stats);
        assert!(store.fsck(false).unwrap().is_clean());
        assert_eq!(store.fsck(false).unwrap().audited(), 0, "warm");

        // Rewriting the slot drops its watermark, so the next fsck
        // re-audits exactly that slot rather than vouching for bytes it
        // never saw; the `.bad` evidence is neither touched nor served.
        let bad_path = store.root().join("sims").join(format!("{name}.bin.bad"));
        let bad_before = fs::read(&bad_path).expect("quarantine evidence exists");
        store.save_sim(fp, &stats);
        let after = store.fsck(false).unwrap();
        assert!(after.is_clean(), "{after}");
        assert_eq!(after.audited(), 1, "the rewrite invalidates its watermark");
        assert_eq!(fs::read(&bad_path).unwrap(), bad_before);
        assert_eq!(store.load_sim(fp).unwrap().total_transitions, 4);
        assert_eq!(store.fsck(false).unwrap().audited(), 0, "then warm again");
    }
}
