//! `hlp check` verdict lines, pinned at the CLI.
//!
//! * A BLIF netlist written by `hlp bench --blif` checks clean: one
//!   `ok: PATH: BLIF netlist: N node(s) checked, M warning(s)` line on
//!   stdout and exit 0.
//! * A netlist that parses but fails the semantic checker gets one
//!   `bad: PATH: netlist fails semantic check (...)` line naming the
//!   first error, a count on stderr, and exit 1.

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
