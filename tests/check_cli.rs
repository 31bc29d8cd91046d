//! `hlp check` verdict lines, pinned at the CLI.
//!
//! * A BLIF netlist written by `hlp bench --blif` checks clean: one
//!   `ok: PATH: BLIF netlist: N node(s) checked, M warning(s)` line on
//!   stdout and exit 0.
//! * A netlist that parses but fails the semantic checker gets one
//!   `bad: PATH: netlist fails semantic check (...)` line naming the
//!   first error, a count on stderr, and exit 1.
//! * `check --fix` mends a bare netlist (the original kept as
//!   `FILE.bak`), refuses a store artifact with a verdict that points
//!   at `hlp fsck --repair`, and leaves a clean file alone.
//! * `fsck` has no fix mode: `--repair=fix` is a usage error.

use netlist::binio::{put_str, BinWriter, KIND_MAPPED, KIND_NETLIST, NETLIST_VERSION};
use netlist::TruthTable;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hlpower-check-cli-{}-{name}", std::process::id()))
}

fn hlp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hlp"))
        .args(args)
        .output()
        .expect("spawn hlp")
}

#[test]
fn check_passes_a_blif_written_by_bench() {
    let blif = temp_path("wang.blif");
    let path = blif.to_str().unwrap();
    let bench = hlp(&[
        "bench", "wang", "--width", "4", "--cycles", "10", "--blif", path,
    ]);
    assert!(
        bench.status.success(),
        "{}",
        String::from_utf8_lossy(&bench.stderr)
    );

    let out = hlp(&["check", path]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let verdict = stdout
        .strip_prefix(&format!("ok: {path}: BLIF netlist: "))
        .and_then(|rest| rest.strip_suffix(" warning(s)\n"))
        .unwrap_or_else(|| panic!("unexpected verdict `{stdout}`"));
    let (nodes, warnings) = verdict
        .split_once(" node(s) checked, ")
        .unwrap_or_else(|| panic!("unexpected verdict `{stdout}`"));
    assert!(nodes.parse::<usize>().unwrap() > 0, "{stdout}");
    warnings.parse::<usize>().unwrap();
    let _ = std::fs::remove_file(&blif);
}

#[test]
fn check_names_the_first_semantic_error_and_exits_1() {
    // A latch with no data driver parses but fails the checker.
    let mut nl = netlist::Netlist::new("undriven");
    let q = nl.add_latch("q", false);
    nl.mark_output("o", q);
    let file = temp_path("undriven.txt");
    std::fs::write(&file, netlist::write_netlist_text(&nl)).unwrap();
    let path = file.to_str().unwrap();

    let out = hlp(&["check", path]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert_eq!(
        stdout,
        format!(
            "bad: {path}: netlist fails semantic check (1 error(s); first: latch `q` has no \
             data driver)\n"
        )
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "hlp check: 1 of 1 file(s) failed\n"
    );
    let _ = std::fs::remove_file(&file);
}

/// A binary `nlst` netlist with two identically named, identical AND
/// drivers on one net: an error-grade defect that `fix_netlist` mends
/// by dropping the twin. Hand-assembled, because the netlist builders
/// refuse duplicate names.
fn twin_driver_netlist() -> Vec<u8> {
    let mut w = BinWriter::new(KIND_NETLIST, NETLIST_VERSION);
    let mut meta = Vec::new();
    put_str(&mut meta, "twins");
    meta.extend([4u64, 1].iter().flat_map(|n| n.to_le_bytes())); // nodes, outputs
    w.section(&meta);
    let mut nodes = Vec::new();
    put_str(&mut nodes, "a");
    nodes.push(0); // input
    for (name, fanins, table) in [
        ("dup", [0u32, 0], TruthTable::and(2)),
        ("dup", [0, 0], TruthTable::and(2)),
        ("y", [2, 0], TruthTable::or(2)),
    ] {
        put_str(&mut nodes, name);
        nodes.push(2); // logic
        nodes.extend_from_slice(&2u32.to_le_bytes());
        nodes.extend(fanins.iter().flat_map(|f| f.to_le_bytes()));
        nodes.extend(table.words().iter().flat_map(|w| w.to_le_bytes()));
    }
    w.section(&nodes);
    let mut outputs = Vec::new();
    put_str(&mut outputs, "o");
    outputs.extend_from_slice(&3u32.to_le_bytes());
    w.section(&outputs);
    w.finish()
}

#[test]
fn check_fix_mends_bare_netlists_and_never_rewrites_store_artifacts() {
    let bak = |file: &PathBuf| PathBuf::from(format!("{}.bak", file.display()));
    let check_fix = |file: &PathBuf| {
        let out = hlp(&["check", "--fix", file.to_str().unwrap()]);
        let stdout = String::from_utf8(out.stdout).unwrap();
        (out.status.code(), stdout)
    };

    // A bare netlist with a fixable error: fixed in place, the original
    // kept beside it, and the result checks clean.
    let bare = temp_path("twins.bin");
    std::fs::write(&bare, twin_driver_netlist()).unwrap();
    let (code, stdout) = check_fix(&bare);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.starts_with(&format!("ok: {}: fixed (", bare.display())));
    assert_eq!(std::fs::read(bak(&bare)).unwrap(), twin_driver_netlist());
    assert_eq!(
        hlp(&["check", bare.to_str().unwrap()]).status.code(),
        Some(0)
    );

    // The same defect inside a mapped store artifact (`mapd` v1: a
    // metrics section, all zero here, then the netlist) is refused: the
    // file is untouched and the verdict names the store's own remedy.
    let mapped = temp_path("mapped.bin");
    let mut w = BinWriter::new(KIND_MAPPED, 1);
    w.section(&[0; 32]);
    w.section(&twin_driver_netlist());
    let artifact = w.finish();
    std::fs::write(&mapped, &artifact).unwrap();
    let (code, stdout) = check_fix(&mapped);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.starts_with(&format!("bad: {}: ", mapped.display())));
    assert!(stdout.contains("multiply driven"), "{stdout}");
    assert!(stdout.contains("`hlp fsck --repair`"), "{stdout}");
    assert_eq!(std::fs::read(&mapped).unwrap(), artifact);
    assert!(!bak(&mapped).exists());

    // A clean file needs no fix and gets no backup.
    let clean = temp_path("clean.txt");
    let mut nl = netlist::Netlist::new("clean");
    let a = nl.add_input("a");
    nl.mark_output("o", a);
    std::fs::write(&clean, netlist::write_netlist_text(&nl)).unwrap();
    let (code, stdout) = check_fix(&clean);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.ends_with(" (no fix needed)\n"), "{stdout}");
    assert!(!bak(&clean).exists());

    for file in [&bare, &bak(&bare), &mapped, &clean] {
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn fsck_refuses_the_retired_fix_mode_as_a_usage_error() {
    let store = temp_path("fsck-store");
    let out = hlp(&["fsck", "--store", store.to_str().unwrap(), "--repair=fix"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--repair=fix`"), "{stderr}");
}
