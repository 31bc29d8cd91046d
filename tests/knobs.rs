//! One knob table for every surface: each shared flow knob's edge values
//! get the same accept-or-refuse verdict from the wire parser
//! (`JobRequest::parse_line`), from `hlp bench pr` and from an
//! experiment binary (`table3 --fast --bench pr`, or `binders` for
//! `--binder`, which `table3` refuses outright).
//!
//! A CLI refusal is exit 2 with a diagnostic naming the flag and the
//! value. A CLI acceptance is seen without running a job: the command
//! line points at a daemon that does not exist (`--remote` for `hlp`,
//! `--store remote:` for the experiment binaries), so a command line
//! that parses fails to connect and exits 1.

use hlpower::api::JobRequest;
use std::path::PathBuf;
use std::process::Command;

/// `(flag, wire keys, value, accepted)`. `--seed` sets both seed keys.
const EDGES: &[(&str, &[&str], &str, bool)] = &[
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

/// An experiment binary of the `hlpower-bench` package. Cargo names only
/// this package's own binaries in `CARGO_BIN_EXE_*`, so it is found
/// beside `hlp`. A workspace test run (`cargo test` at the repo root)
/// builds both; a run filtered to this test alone may find a stale one.
fn experiment_binary(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_BIN_EXE_hlp"))
        .with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "`{}` is not built; run the workspace tests from the repo root",
        path.display()
    );
    path
}

/// Whether a CLI accepted `flag value`: exit 1 (the missing daemon) is
/// an acceptance, exit 2 naming the flag and the value a refusal.
fn cli_accepts(cmd: &mut Command, flag: &str, value: &str) -> bool {
    let out = cmd.args([flag, value]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    match out.status.code() {
        Some(1) => true,
        Some(2) if stderr.contains(&format!("invalid value `{value}` for {flag}")) => false,
        code => panic!("{cmd:?}: exit {code:?}, stderr:\n{stderr}"),
    }
}

#[test]
fn wire_hlp_and_experiment_binaries_bound_every_knob_alike() {
    let no_daemon = std::env::temp_dir().join(format!("hlpower-knobs-{}", std::process::id()));
    let no_daemon = no_daemon.to_str().unwrap();
    for &(flag, keys, value, accepted) in EDGES {
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
        // `hlp` derives the SA width from `--width`.
        if flag != "--sa-width" {
            let mut hlp = Command::new(env!("CARGO_BIN_EXE_hlp"));
            hlp.args(["bench", "pr", "--remote", no_daemon]);
            assert_eq!(
                cli_accepts(&mut hlp, flag, value),
                accepted,
                "hlp {flag} {value}"
            );
        }
        // The experiment binaries have no SA-mode flag.
        if flag != "--sa-mode" {
            let name = if flag == "--binder" {
                "binders"
            } else {
                "table3"
            };
            let mut bin = Command::new(experiment_binary(name));
            let store = format!("remote:{no_daemon}");
            bin.args(["--fast", "--bench", "pr", "--store", &store]);
            assert_eq!(
                cli_accepts(&mut bin, flag, value),
                accepted,
                "{name} {flag} {value}"
            );
        }
    }
}
