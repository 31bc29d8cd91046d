//! One knob table for every surface, the experiment binaries' half:
//! each edge of `knob_edges::EDGES` gets the same verdict from the wire
//! parser and from `table3 --fast --bench pr` (or `binders` for
//! `--binder`, which `table3` refuses outright). `hlp`'s half is the
//! workspace root's `tests/knobs.rs`, which owns the shared table.

#[path = "../../../tests/knob_edges/mod.rs"]
mod knob_edges;

use knob_edges::{assert_wire_verdict, cli_accepts, no_daemon, EDGES};
use std::process::Command;

#[test]
fn wire_and_experiment_binaries_bound_every_knob_alike() {
    let store = format!("remote:{}", no_daemon());
    for &(flag, keys, value, accepted) in EDGES {
        assert_wire_verdict(keys, value, accepted);
        // The experiment binaries have no SA-mode flag.
        if flag == "--sa-mode" {
            continue;
        }
        let bin = if flag == "--binder" {
            env!("CARGO_BIN_EXE_binders")
        } else {
            env!("CARGO_BIN_EXE_table3")
        };
        let mut cmd = Command::new(bin);
        cmd.args(["--fast", "--bench", "pr", "--store", &store]);
        assert_eq!(
            cli_accepts(&mut cmd, flag, value),
            accepted,
            "{bin} {flag} {value}"
        );
    }
}
