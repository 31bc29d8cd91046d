//! Binary-only stores meet a store written by an older version.
//!
//! Older versions could write artifacts in a text encoding, as
//! `<kind>/<fp>.txt` slots. Stores are pure caches, so no migration
//! exists: a text slot is simply not an artifact. This test plants one
//! in a warm store and checks the whole CLI surface around it:
//!
//! * the slot reads as a miss, the run recomputes it into a `.bin`
//!   slot, and stdout stays byte-identical to the cold run;
//! * `hlp fsck` neither lists nor flags the text file;
//! * `hlp gc --max-age-days 0` still counts and reclaims it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn hlp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hlp"))
        .args(args)
        .output()
        .expect("spawn hlp")
}

fn bench_wang(store: &Path) -> Output {
    let out = hlp(&[
        "bench",
        "wang",
        "--width",
        "4",
        "--cycles",
        "50",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

#[test]
fn a_legacy_text_slot_reads_as_a_miss_recomputes_and_gc_reclaims_it() {
    let store = std::env::temp_dir().join(format!("hlpower-legacy-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let cold = bench_wang(&store);

    // Replace the run's sim summary with the text slot an older version
    // would have written under the same fingerprint.
    let sims = store.join("sims");
    let [bin] = files_with_ext(&sims, "bin")
        .try_into()
        .expect("one sim slot");
    let legacy = bin.with_extension("txt");
    std::fs::remove_file(&bin).unwrap();
    std::fs::write(
        &legacy,
        "# hlpower sim v1\ncycles 50 total 640 functional 600 glitch 40 nodes 9\n",
    )
    .unwrap();

    // A miss: the simulation reruns, lands in `.bin`, and the report is
    // unchanged byte for byte.
    let warm = bench_wang(&store);
    assert_eq!(cold.stdout, warm.stdout, "stdout must be byte-identical");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("1 simulations"), "{stderr}");
    assert!(stderr.contains("sims 0/1"), "{stderr}");
    assert!(bin.exists(), "the recompute is written as .bin");
    assert!(legacy.exists(), "the legacy slot is left for gc");

    // fsck walks the artifacts only: clean, and the text file is never
    // listed.
    let fsck = hlp(&["fsck", "--store", store.to_str().unwrap(), "--full"]);
    let report = String::from_utf8_lossy(&fsck.stdout);
    assert!(fsck.status.success(), "{report}");
    assert!(report.contains("4 artifact(s) scanned"), "{report}");
    assert!(report.contains("no defects"), "{report}");

    // gc counts the text file and reclaims it with everything else.
    let gc = hlp(&[
        "gc",
        "--store",
        store.to_str().unwrap(),
        "--max-age-days",
        "0",
    ]);
    let report = String::from_utf8_lossy(&gc.stdout);
    assert!(gc.status.success(), "{report}");
    assert!(report.contains("removed 5 artifact(s)"), "{report}");
    assert!(!legacy.exists(), "gc reclaims the legacy slot");
    let _ = std::fs::remove_dir_all(&store);
}
