//! Exact text serialization of a [`Netlist`].
//!
//! BLIF ([`crate::blif`]) is the *interchange* format: it survives a trip
//! through third-party tools but normalizes node order, inserts boundary
//! buffers for renamed output ports, and reorders latches — so a
//! BLIF round trip is function-preserving, not structure-preserving.
//! An exact rendering is **exactly** the netlist that was saved (same
//! node ids, same order, same names), so a simulation of the reloaded
//! copy is bit-identical to a simulation of the original, transition
//! counts included. The artifact store keeps its netlists in the binary
//! exact codec ([`crate::binio`]); this module is the human-readable one
//! (`hlp check [--fix]` reads and repairs it).
//!
//! [`write_netlist_text`]/[`parse_netlist_text`] are that exact codec:
//! one line per node in id order, truth tables as raw hex words, names
//! percent-escaped. `parse(write(nl))` reconstructs `nl` field for field,
//! and `write(parse(text)) == text` byte for byte (the in-file fuzzer
//! below proves both over random LUT soups).

use crate::graph::{Netlist, NodeId, NodeKind};
use crate::truth::TruthTable;
use std::fmt;

/// Version tag of the on-disk format; bumped on any layout change so
/// stale cache files are rejected instead of misparsed.
const HEADER: &str = "# hlpower netlist v1";

/// Parse error for [`parse_netlist_text`] (1-based line number plus a
/// description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistTextError {
    /// 1-based source line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for NetlistTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist text line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NetlistTextError {}

/// Escapes a net name for whitespace-delimited storage: `%`, whitespace,
/// and non-graphic bytes become `%XX`. Injective, so escaped names stay
/// unique.
fn esc(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        if b.is_ascii_graphic() && b != b'%' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Inverse of [`esc`].
fn unesc(s: &str, line: usize) -> Result<String, NetlistTextError> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or_else(|| NetlistTextError {
                line,
                message: format!("truncated escape in `{s}`"),
            })?;
            let hex = std::str::from_utf8(hex).map_err(|_| NetlistTextError {
                line,
                message: format!("bad escape in `{s}`"),
            })?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| NetlistTextError {
                line,
                message: format!("bad escape `%{hex}` in `{s}`"),
            })?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| NetlistTextError {
        line,
        message: format!("escaped name `{s}` is not UTF-8"),
    })
}

fn table_text(t: &TruthTable) -> String {
    let words: Vec<String> = t.words().iter().map(|w| format!("{w:x}")).collect();
    format!("{}:{}", t.num_inputs(), words.join(","))
}

fn table_from_text(s: &str, line: usize) -> Result<TruthTable, NetlistTextError> {
    let err = |message: String| NetlistTextError { line, message };
    let (n, words) = s
        .split_once(':')
        .ok_or_else(|| err(format!("bad table `{s}`")))?;
    let n: usize = n
        .parse()
        .map_err(|_| err(format!("bad table arity `{n}`")))?;
    if n > crate::truth::MAX_INPUTS {
        return Err(err(format!(
            "table arity {n} exceeds the supported maximum"
        )));
    }
    let words: Result<Vec<u64>, _> = words
        .split(',')
        .map(|w| u64::from_str_radix(w, 16))
        .collect();
    let words = words.map_err(|_| err(format!("bad table words in `{s}`")))?;
    let expected = if n >= 6 { 1usize << (n - 6) } else { 1 };
    if words.len() != expected {
        return Err(err(format!(
            "table for {n} inputs needs {expected} words, got {}",
            words.len()
        )));
    }
    Ok(TruthTable::from_words(n, words))
}

/// Serializes a netlist to the exact text format.
///
/// The output is a pure function of the netlist's structure: identical
/// netlists produce identical bytes, and the result of
/// [`parse_netlist_text`] serializes back to the same bytes.
///
/// # Examples
///
/// ```
/// use netlist::{parse_netlist_text, write_netlist_text, Netlist, TruthTable};
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_logic("g", vec![a], TruthTable::inverter());
/// nl.mark_output("o", g);
/// let text = write_netlist_text(&nl);
/// let back = parse_netlist_text(&text).unwrap();
/// assert_eq!(write_netlist_text(&back), text);
/// ```
pub fn write_netlist_text(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("name {}\n", esc(nl.name())));
    out.push_str(&format!("nodes {}\n", nl.num_nodes()));
    for (_, node) in nl.nodes() {
        match &node.kind {
            NodeKind::Input => out.push_str(&format!("i {}\n", esc(&node.name))),
            NodeKind::Constant(v) => out.push_str(&format!("c {} {}\n", esc(&node.name), *v as u8)),
            NodeKind::Logic { fanins, table } => {
                out.push_str(&format!("l {} {}", esc(&node.name), table_text(table)));
                for f in fanins {
                    out.push_str(&format!(" {}", f.0));
                }
                out.push('\n');
            }
            NodeKind::Latch { data, init } => {
                // An unconnected latch (data never set) serializes as `-`.
                let data = if *data == NodeId(u32::MAX) {
                    "-".to_string()
                } else {
                    data.0.to_string()
                };
                out.push_str(&format!("f {} {} {}\n", esc(&node.name), *init as u8, data));
            }
        }
    }
    out.push_str(&format!("outputs {}\n", nl.outputs().len()));
    for (port, id) in nl.outputs() {
        out.push_str(&format!("o {} {}\n", esc(port), id.0));
    }
    out.push_str("end\n");
    out
}

/// Parses text written by [`write_netlist_text`] back into the exact
/// original netlist.
///
/// # Errors
///
/// Returns a [`NetlistTextError`] naming the first malformed line; a
/// missing or wrong version header is reported on line 1 so stale cache
/// files from older format versions are refused loudly.
pub fn parse_netlist_text(text: &str) -> Result<Netlist, NetlistTextError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let err = |line: usize, message: String| NetlistTextError { line, message };
    let (_, header) = lines
        .next()
        .ok_or_else(|| err(1, "empty input".to_string()))?;
    if header != HEADER {
        return Err(err(
            1,
            format!("expected header `{HEADER}`, got `{header}`"),
        ));
    }
    let mut nl: Option<Netlist> = None;
    let mut expected_nodes: usize = 0;
    let mut latch_data: Vec<(NodeId, NodeId)> = Vec::new();
    let mut seen_end = false;
    for (ln, raw) in lines {
        let toks: Vec<&str> = raw.split_whitespace().collect();
        let Some(&cmd) = toks.first() else { continue };
        match cmd {
            "name" => {
                if toks.len() != 2 {
                    return Err(err(ln, "name needs one token".to_string()));
                }
                nl = Some(Netlist::new(unesc(toks[1], ln)?));
            }
            "nodes" => {
                expected_nodes = toks
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(ln, "bad node count".to_string()))?;
            }
            "i" | "c" | "l" | "f" => {
                let nl = nl
                    .as_mut()
                    .ok_or_else(|| err(ln, "node before name line".to_string()))?;
                let name = unesc(
                    toks.get(1)
                        .ok_or_else(|| err(ln, "node needs a name".to_string()))?,
                    ln,
                )?;
                if nl.find(&name).is_some() {
                    return Err(err(ln, format!("duplicate node name `{name}`")));
                }
                match cmd {
                    "i" => {
                        nl.add_input(name);
                    }
                    "c" => {
                        let v = match toks.get(2) {
                            Some(&"0") => false,
                            Some(&"1") => true,
                            _ => return Err(err(ln, "constant needs 0 or 1".to_string())),
                        };
                        nl.add_constant(name, v);
                    }
                    "l" => {
                        let table = table_from_text(
                            toks.get(2)
                                .ok_or_else(|| err(ln, "logic needs a table".to_string()))?,
                            ln,
                        )?;
                        let fanins: Result<Vec<NodeId>, _> = toks[3..]
                            .iter()
                            .map(|t| t.parse::<u32>().map(NodeId))
                            .collect();
                        let fanins = fanins.map_err(|_| err(ln, "bad fanin id".to_string()))?;
                        if fanins.len() != table.num_inputs() {
                            return Err(err(
                                ln,
                                format!(
                                    "{} fanins for a {}-input table",
                                    fanins.len(),
                                    table.num_inputs()
                                ),
                            ));
                        }
                        // Fanins must refer to already-created nodes: the
                        // format stores nodes in id order and the graph is
                        // a DAG over ids.
                        for f in &fanins {
                            if f.index() >= nl.num_nodes() {
                                return Err(err(ln, format!("forward fanin id {f}")));
                            }
                        }
                        nl.add_logic(name, fanins, table);
                    }
                    _ => {
                        let init = match toks.get(2) {
                            Some(&"0") => false,
                            Some(&"1") => true,
                            _ => return Err(err(ln, "latch needs init 0 or 1".to_string())),
                        };
                        let id = nl.add_latch(name, init);
                        match toks.get(3) {
                            Some(&"-") => {}
                            Some(t) => {
                                let data = t
                                    .parse::<u32>()
                                    .map(NodeId)
                                    .map_err(|_| err(ln, "bad latch data id".to_string()))?;
                                latch_data.push((id, data));
                            }
                            None => return Err(err(ln, "latch needs a data id".to_string())),
                        }
                    }
                }
            }
            "outputs" => {}
            "o" => {
                let nl = nl
                    .as_mut()
                    .ok_or_else(|| err(ln, "output before name line".to_string()))?;
                let port = unesc(
                    toks.get(1)
                        .ok_or_else(|| err(ln, "output needs a port name".to_string()))?,
                    ln,
                )?;
                let id = toks
                    .get(2)
                    .and_then(|t| t.parse::<u32>().ok())
                    .map(NodeId)
                    .ok_or_else(|| err(ln, "bad output node id".to_string()))?;
                if id.index() >= nl.num_nodes() {
                    return Err(err(ln, format!("output refers to missing node {id}")));
                }
                nl.mark_output(port, id);
            }
            "end" => {
                seen_end = true;
                break;
            }
            other => return Err(err(ln, format!("unknown line kind `{other}`"))),
        }
    }
    if !seen_end {
        return Err(err(text.lines().count(), "missing end line".to_string()));
    }
    let mut nl = nl.ok_or_else(|| err(1, "missing name line".to_string()))?;
    if nl.num_nodes() != expected_nodes {
        return Err(err(
            1,
            format!("expected {expected_nodes} nodes, got {}", nl.num_nodes()),
        ));
    }
    for (latch, data) in latch_data {
        if data.index() >= nl.num_nodes() {
            return Err(err(1, format!("latch data refers to missing node {data}")));
        }
        nl.set_latch_data(latch, data);
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{arb_netlist, assert_exact_match};

    #[test]
    fn roundtrip_is_exact_and_serialization_is_byte_stable() {
        // The artifact-store guarantee: serialize → parse reconstructs the
        // exact netlist, and serialize → parse → serialize is
        // byte-identical — over the fuzzer's random LUT soups.
        for seed in 0..64u64 {
            let nl = arb_netlist(seed);
            nl.check().unwrap();
            let t1 = write_netlist_text(&nl);
            let back = parse_netlist_text(&t1).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{t1}"));
            assert_exact_match(&nl, &back);
            let t2 = write_netlist_text(&back);
            assert_eq!(
                t1, t2,
                "seed {seed}: reserialization must be byte-identical"
            );
        }
    }

    #[test]
    fn names_with_specials_survive() {
        let mut nl = Netlist::new("m odel%x");
        let a = nl.add_input("a b");
        let g = nl.add_logic("g%20", vec![a], TruthTable::inverter());
        nl.mark_output("wide port", g);
        let back = parse_netlist_text(&write_netlist_text(&nl)).unwrap();
        assert_eq!(back.name(), "m odel%x");
        assert!(back.find("a b").is_some());
        assert!(back.find("g%20").is_some());
        assert_eq!(back.outputs()[0].0, "wide port");
    }

    #[test]
    fn unconnected_latch_roundtrips() {
        let mut nl = Netlist::new("u");
        nl.add_latch("q", true);
        let back = parse_netlist_text(&write_netlist_text(&nl)).unwrap();
        assert_eq!(back.num_latches(), 1);
        assert!(back.fanins(back.find("q").unwrap()).is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_netlist_text("").is_err());
        assert!(parse_netlist_text("# hlpower netlist v0\nname t\nend\n").is_err());
        let ok = "# hlpower netlist v1\nname t\nnodes 1\ni a\noutputs 0\nend\n";
        assert!(parse_netlist_text(ok).is_ok());
        // Wrong node count.
        assert!(
            parse_netlist_text("# hlpower netlist v1\nname t\nnodes 2\ni a\noutputs 0\nend\n")
                .is_err()
        );
        // Forward fanin reference.
        assert!(parse_netlist_text(
            "# hlpower netlist v1\nname t\nnodes 2\nl g 1:2 1\ni a\noutputs 0\nend\n"
        )
        .is_err());
        // Truncated file (no end line).
        assert!(parse_netlist_text("# hlpower netlist v1\nname t\nnodes 1\ni a\n").is_err());
        // Arity mismatch between table and fanins.
        assert!(parse_netlist_text(
            "# hlpower netlist v1\nname t\nnodes 2\ni a\nl g 2:8 0\noutputs 0\nend\n"
        )
        .is_err());
    }

    #[test]
    fn mapped_style_netlist_roundtrips_through_blif_writer_too() {
        // Sanity: the exact codec and the BLIF writer agree on what the
        // netlist computes (the BLIF trip may normalize structure; the
        // exact trip must not).
        let nl = arb_netlist(7);
        let exact = parse_netlist_text(&write_netlist_text(&nl)).unwrap();
        assert_eq!(exact.num_logic(), nl.num_logic());
        assert_eq!(exact.num_latches(), nl.num_latches());
        assert_eq!(exact.stats(), nl.stats());
    }
}
