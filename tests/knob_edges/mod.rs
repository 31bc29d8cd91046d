//! The knob edge table of the two `knobs` tests: `tests/knobs.rs` holds
//! `hlp` to it and `crates/bench/tests/knobs.rs` the experiment
//! binaries. Each shared flow knob's edge values must get the same
//! accept-or-refuse verdict from the wire parser
//! (`JobRequest::parse_line`) and from every CLI.
//!
//! A CLI refusal is exit 2 with a diagnostic naming the flag and the
//! value. A CLI acceptance is seen without running a job: the command
//! line points at a daemon that does not exist (`--remote` for `hlp`,
//! `--store remote:` for the experiment binaries), so a command line
//! that parses fails to connect and exits 1.

use hlpower::api::JobRequest;
use std::process::Command;

/// `(flag, wire keys, value, accepted)`. `--seed` sets both seed keys.
pub const EDGES: &[(&str, &[&str], &str, bool)] = &[
    ("--width", &["width"], "0", false),
    ("--width", &["width"], "1", true),
    ("--width", &["width"], "64", true),
    ("--width", &["width"], "65", false),
    ("--sa-width", &["sa-width"], "0", false),
    ("--sa-width", &["sa-width"], "1", true),
    ("--sa-width", &["sa-width"], "64", true),
    ("--sa-width", &["sa-width"], "65", false),
    ("--lanes", &["lanes"], "512", true),
    ("--lanes", &["lanes"], "513", false),
    ("--cycles", &["cycles"], "x", false),
    ("--sa-mode", &["sa-mode"], "bogus", false),
    ("--binder", &["binder"], "hlpower:1", true),
    ("--binder", &["binder"], "hlpower:NaN", false),
    ("--binder", &["binder"], "hlpower:inf", false),
    ("--seed", &["sim-seed", "port-seed"], "-1", false),
];

/// Asserts that the wire accepts `key=value` for every key exactly when
/// the edge is `accepted`, and names the key and the value when not.
pub fn assert_wire_verdict(keys: &[&str], value: &str, accepted: bool) {
    for key in keys {
        let line = format!("hlpower-job v1 source=bench:pr {key}={value}");
        match JobRequest::parse_line(&line) {
            Ok(_) => assert!(accepted, "the wire accepts `{key}={value}`"),
            Err(e) => {
                assert!(!accepted, "the wire refuses `{key}={value}`: {e}");
                let refusal = format!("invalid value `{value}` for `{key}`");
                assert!(e.contains(&refusal), "{e}");
            }
        }
    }
}

/// A socket path no daemon listens on.
pub fn no_daemon() -> String {
    let path = std::env::temp_dir().join(format!("hlpower-knobs-{}", std::process::id()));
    path.to_str().expect("UTF-8 temp dir").to_string()
}

/// Whether a CLI accepted `flag value`: exit 1 (the missing daemon) is
/// an acceptance, exit 2 naming the flag and the value a refusal.
pub fn cli_accepts(cmd: &mut Command, flag: &str, value: &str) -> bool {
    let out = cmd.args([flag, value]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    match out.status.code() {
        Some(1) => true,
        Some(2) if stderr.contains(&format!("invalid value `{value}` for {flag}")) => false,
        code => panic!("{cmd:?}: exit {code:?}, stderr:\n{stderr}"),
    }
}
