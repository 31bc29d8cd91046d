//! Persistent audit watermarks: the side index behind **incremental**
//! `hlp fsck`.
//!
//! A full fsck decodes and semantically checks every slot — the right
//! cold-start behavior and untenable as a recurring pass over a
//! million-artifact store. This module persists, per audited slot, a
//! **watermark** recording what was audited and by which auditor:
//!
//! ```text
//! STORE/audit/<kind>/<name>.wm
//!   hlp-audit v1 auditor <V> mtime <SECS> <NANOS> size <BYTES> fp <FP32HEX>
//! ```
//!
//! A warm [`crate::ArtifactStore::fsck_with`] pass re-reads each slot's
//! bytes and skips the expensive decode + semantic check when the
//! auditor version, file mtime, size, **and** content fingerprint all
//! still match — so a flipped byte re-audits even under a forged mtime,
//! while an untouched slot costs one read + one FNV pass. Any bump of
//! [`AUDITOR_VERSION`] (new [`netlist::Violation`] kinds, changed
//! detection rules, changed audit layering) invalidates every watermark
//! at once.
//!
//! Watermarks are written only after a slot audits clean, removed when
//! the slot is rewritten or quarantined, and garbage-collected when
//! their artifact disappears. They are advisory: deleting `audit/`
//! merely makes the next fsck cold. Only local stores keep watermarks —
//! a remote store is audited in place by its daemon, which keeps its
//! own side index.

use crate::fingerprint::{Fingerprint, Hasher128};
use crate::store::ArtifactKind;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Version of the whole audit stack recorded in each watermark: the
/// semantic checker's own version plus this module's layering version.
/// Bump [`netlist::CHECKER_VERSION`] for checker-rule changes and
/// [`AUDIT_LAYER_VERSION`] for changes to name discipline, container
/// proof, or codec-level validation — either invalidates every
/// persisted watermark.
pub const AUDITOR_VERSION: u32 = AUDIT_LAYER_VERSION * 1000 + netlist::CHECKER_VERSION;

/// Version of the audit layering outside the semantic checker (name
/// discipline + `hlpbin` deep proof + codec decode).
const AUDIT_LAYER_VERSION: u32 = 1;

/// Subdirectory of a local store root holding the watermark index.
pub(crate) const AUDIT_DIR: &str = "audit";

/// File extension of one watermark.
const WM_EXT: &str = "wm";

/// Options for [`crate::ArtifactStore::fsck_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FsckOptions {
    /// Rename defective files aside to `*.bad` (`--repair`) so the next
    /// run recomputes them; otherwise report only.
    pub repair: bool,
    /// Ignore watermarks and re-audit every slot (`--full`).
    pub full: bool,
}

/// One persisted audit watermark: everything that must still match for
/// a slot to skip re-auditing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watermark {
    /// [`AUDITOR_VERSION`] that produced the clean verdict.
    pub auditor: u32,
    /// Artifact file mtime, seconds since the epoch.
    pub mtime_secs: u64,
    /// Sub-second mtime component.
    pub mtime_nanos: u32,
    /// Artifact file size in bytes.
    pub size: u64,
    /// Content fingerprint of the artifact bytes.
    pub fp: Fingerprint,
}

impl Watermark {
    /// Computes the watermark a clean audit of `data`, read from the
    /// file at `path`, would persist right now. `None` when the file
    /// cannot be stat'd (e.g. it was swapped out underneath the walk —
    /// the slot is then simply re-audited next pass).
    pub fn of(path: &Path, data: &[u8]) -> Option<Watermark> {
        let meta = fs::metadata(path).ok()?;
        let (mtime_secs, mtime_nanos) =
            match meta.modified().ok()?.duration_since(SystemTime::UNIX_EPOCH) {
                Ok(d) => (d.as_secs(), d.subsec_nanos()),
                // Pre-epoch mtimes are representable on some filesystems;
                // pin them to zero rather than refuse to watermark.
                Err(_) => (0, 0),
            };
        Some(Watermark {
            auditor: AUDITOR_VERSION,
            mtime_secs,
            mtime_nanos,
            size: meta.len(),
            fp: content_fingerprint(data),
        })
    }

    /// Serializes to the one-line `.wm` format.
    fn encode(&self) -> String {
        format!(
            "hlp-audit v1 auditor {} mtime {} {} size {} fp {}\n",
            self.auditor, self.mtime_secs, self.mtime_nanos, self.size, self.fp
        )
    }

    /// Parses the one-line `.wm` format; `None` for anything else (a
    /// malformed watermark just means a cold re-audit).
    fn decode(text: &str) -> Option<Watermark> {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        match tokens.as_slice() {
            ["hlp-audit", "v1", "auditor", auditor, "mtime", secs, nanos, "size", size, "fp", fp] => {
                Some(Watermark {
                    auditor: auditor.parse().ok()?,
                    mtime_secs: secs.parse().ok()?,
                    mtime_nanos: nanos.parse().ok()?,
                    size: size.parse().ok()?,
                    fp: Fingerprint::parse(fp)?,
                })
            }
            _ => None,
        }
    }
}

/// Domain-tagged content fingerprint of artifact bytes, as persisted in
/// watermarks. Distinct from the ingredient fingerprints that *name*
/// artifacts: this one is recomputable from the file alone, which is
/// the whole point — it detects byte changes mtime cannot prove.
pub fn content_fingerprint(data: &[u8]) -> Fingerprint {
    let mut h = Hasher128::new("audit-watermark-v1");
    h.write_bytes(data);
    h.finish()
}

/// Path of the watermark for `(kind, name)` under `root`.
pub(crate) fn watermark_path(root: &Path, kind: ArtifactKind, name: &str) -> PathBuf {
    root.join(AUDIT_DIR)
        .join(kind.dir())
        .join(format!("{name}.{WM_EXT}"))
}

/// Loads the persisted watermark for a slot, or `None` when absent or
/// unreadable (both just mean the slot re-audits).
pub(crate) fn read_watermark(root: &Path, kind: ArtifactKind, name: &str) -> Option<Watermark> {
    let text = fs::read_to_string(watermark_path(root, kind, name)).ok()?;
    Watermark::decode(&text)
}

/// Persists a slot's watermark (best effort — the index is advisory, a
/// failed write only costs a future re-audit).
pub(crate) fn write_watermark(root: &Path, kind: ArtifactKind, name: &str, wm: &Watermark) {
    let path = watermark_path(root, kind, name);
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let _ = fs::write(&path, wm.encode());
}

/// Drops a slot's watermark — called whenever its artifact is
/// rewritten or quarantined, so the audit story can never
/// outlive the bytes it vouched for.
pub(crate) fn invalidate_watermark(root: &Path, kind: ArtifactKind, name: &str) {
    let _ = fs::remove_file(watermark_path(root, kind, name));
}

/// Removes watermarks whose artifact no longer exists (gc'd, merged
/// away, quarantined by an older pass). `live` is the sorted slot list
/// of `kind`. Returns how many orphaned watermarks were dropped.
pub(crate) fn sweep_orphan_watermarks(root: &Path, kind: ArtifactKind, live: &[String]) -> usize {
    let dir = root.join(AUDIT_DIR).join(kind.dir());
    let Ok(entries) = fs::read_dir(&dir) else {
        return 0;
    };
    let mut dropped = 0usize;
    for entry in entries.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = file.strip_suffix(".wm") else {
            continue;
        };
        if live.binary_search(&stem.to_string()).is_err() && fs::remove_file(entry.path()).is_ok() {
            dropped += 1;
        }
    }
    dropped
}

/// Returns the artifact file path backing `(kind, name)` in a local
/// store, if it exists, so the fsck walk can stat the same file it read.
pub(crate) fn slot_path(root: &Path, kind: ArtifactKind, name: &str) -> Option<PathBuf> {
    let path = kind.slot(root, name);
    path.is_file().then_some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_round_trips_through_its_line_format() {
        let wm = Watermark {
            auditor: AUDITOR_VERSION,
            mtime_secs: 1_723_000_000,
            mtime_nanos: 987_654_321,
            size: 4096,
            fp: content_fingerprint(b"some artifact bytes"),
        };
        let line = wm.encode();
        assert!(line.ends_with('\n'));
        assert_eq!(Watermark::decode(&line), Some(wm));
    }

    #[test]
    fn malformed_watermarks_read_as_none() {
        for bad in [
            "",
            "hlp-audit v2 auditor 1 mtime 0 0 size 0 fp 0",
            "hlp-audit v1 auditor x mtime 0 0 size 0 fp 00000000000000000000000000000000",
            "hlp-audit v1 auditor 1 mtime 0 0 size 0 fp nothex",
            "random junk\n",
        ] {
            assert_eq!(Watermark::decode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn content_fingerprint_is_byte_sensitive() {
        let a = content_fingerprint(b"hlpbin1\npayload");
        let mut flipped = b"hlpbin1\npayload".to_vec();
        flipped[10] ^= 1;
        assert_ne!(a, content_fingerprint(&flipped));
        assert_eq!(a, content_fingerprint(b"hlpbin1\npayload"));
    }

    #[test]
    fn auditor_version_tracks_the_checker() {
        // The watermark index must invalidate when either layer moves.
        assert_eq!(
            AUDITOR_VERSION,
            AUDIT_LAYER_VERSION * 1000 + netlist::CHECKER_VERSION
        );
    }

    #[test]
    fn orphan_sweep_drops_only_dead_watermarks() {
        let root = std::env::temp_dir().join(format!("hlp-audit-sweep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let sims = ArtifactKind::Sims;
        fs::create_dir_all(root.join(AUDIT_DIR).join(sims.dir())).unwrap();
        let wm = Watermark {
            auditor: AUDITOR_VERSION,
            mtime_secs: 1,
            mtime_nanos: 2,
            size: 3,
            fp: content_fingerprint(b"x"),
        };
        write_watermark(&root, sims, "live", &wm);
        write_watermark(&root, sims, "dead", &wm);
        let live = vec!["live".to_string()];
        assert_eq!(sweep_orphan_watermarks(&root, sims, &live), 1);
        assert!(read_watermark(&root, sims, "live").is_some());
        assert!(read_watermark(&root, sims, "dead").is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
