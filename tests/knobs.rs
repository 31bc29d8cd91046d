//! One knob table for every surface, `hlp`'s half: each edge of
//! `knob_edges::EDGES` gets the same verdict from the wire parser and
//! from `hlp bench pr`. The experiment binaries' half is
//! `crates/bench/tests/knobs.rs`, where Cargo builds them before it runs
//! the test.

mod knob_edges;

use knob_edges::{assert_wire_verdict, cli_accepts, no_daemon, EDGES};
use std::process::Command;

#[test]
fn wire_and_hlp_bound_every_knob_alike() {
    let no_daemon = no_daemon();
    for &(flag, keys, value, accepted) in EDGES {
        assert_wire_verdict(keys, value, accepted);
        // `hlp` derives the SA width from `--width`.
        if flag == "--sa-width" {
            continue;
        }
        let mut hlp = Command::new(env!("CARGO_BIN_EXE_hlp"));
        hlp.args(["bench", "pr", "--remote", &no_daemon]);
        assert_eq!(
            cli_accepts(&mut hlp, flag, value),
            accepted,
            "hlp {flag} {value}"
        );
    }
}
