//! The compiled simulation graph both unit-delay engines run on.
//!
//! A [`Netlist`] is built for editing: every node is an enum holding its
//! own fanin `Vec` and [`netlist::TruthTable`]. An event-driven engine
//! that walks it pays a `match`, a pointer chase and a fanout list of
//! mixed node kinds on every event. [`SimGraph`] flattens exactly what
//! the event wheel reads into dense arrays, once per netlist:
//!
//! * **CSR fanins** of every logic node, in truth-table input order;
//! * **logic-only fanouts**, one [`Edge`] per (driver, reader) pair,
//!   carrying the reader's **pin mask** — the bits of the reader's
//!   truth-table row that the driver sets (more than one when the driver
//!   feeds several pins). Latch data edges are left out: a latch samples
//!   only at the clock edge, so no logic event ever schedules one;
//! * each logic node's **truth-table word inline** — the whole table up
//!   to 6 inputs. Wider tables (the unmapped FSM control ROMs, up to
//!   [`netlist::MAX_INPUTS`] inputs) keep their extra words aside;
//! * **latch `(Q, D)` pairs** and the primary inputs in declaration order;
//! * the **wheel length**: one time slot per logic level up to the
//!   deepest logic node anywhere in the netlist. Logic outside every
//!   output and latch cone counts too, so no event is ever scheduled past
//!   the last slot.
//!
//! A node changed at time `t` schedules its readers at `t + 1`, and
//! sources change only at time 0, so a logic node at level `L` is never
//! scheduled later than `L`: the wheel never overflows.

use netlist::{Netlist, NodeKind};

/// One logic-only fanout edge: `node` reads the driver on the truth-table
/// inputs set in `pins`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    /// The reading logic node.
    pub(crate) node: u32,
    /// Bit `k` set when the driver is the reader's fanin `k`.
    pub(crate) pins: u32,
}

/// A netlist compiled for unit-delay simulation (see the module docs).
#[derive(Debug)]
pub(crate) struct SimGraph {
    /// `fanins[fanin_at[id]..fanin_at[id + 1]]` are `id`'s fanins (empty
    /// for sources).
    fanin_at: Vec<u32>,
    fanins: Vec<u32>,
    /// `fanouts[fanout_at[id]..fanout_at[id + 1]]` are the logic nodes
    /// reading `id`, in reader id order.
    fanout_at: Vec<u32>,
    fanouts: Vec<Edge>,
    /// Word 0 of each logic node's truth table (row `r` is bit `r`); 0
    /// for sources.
    table: Vec<u64>,
    /// Tables wider than 6 inputs, sorted by node: `(node, offset)` of
    /// the node's full table in `wide_words`.
    wide: Vec<(u32, u32)>,
    wide_words: Vec<u64>,
    latches: Vec<(u32, u32)>,
    inputs: Vec<u32>,
    wheel_len: usize,
}

impl SimGraph {
    /// Compiles `nl`. The netlist must pass [`Netlist::check`]; both
    /// engines construct the [`crate::Evaluator`] first, which checks it.
    pub(crate) fn new(nl: &Netlist) -> Self {
        let n = nl.num_nodes();
        let mut fanin_at = Vec::with_capacity(n + 1);
        let mut fanins = Vec::with_capacity(nl.num_edges());
        let mut table = vec![0u64; n];
        let mut wide = Vec::new();
        let mut wide_words = Vec::new();
        // Fanout counts per driver, shifted by one for the prefix sum.
        let mut fanout_at = vec![0u32; n + 1];
        fanin_at.push(0);
        for (id, node) in nl.nodes() {
            if let NodeKind::Logic {
                fanins: f,
                table: t,
            } = &node.kind
            {
                for (k, d) in f.iter().enumerate() {
                    if !f[..k].contains(d) {
                        fanout_at[d.index() + 1] += 1;
                    }
                }
                fanins.extend(f.iter().map(|d| d.0));
                let words = t.words();
                table[id.index()] = words[0];
                if words.len() > 1 {
                    wide.push((id.0, wide_words.len() as u32));
                    wide_words.extend_from_slice(words);
                }
            }
            fanin_at.push(fanins.len() as u32);
        }
        for i in 0..n {
            fanout_at[i + 1] += fanout_at[i];
        }
        let mut next = fanout_at.clone();
        let mut fanouts = vec![Edge { node: 0, pins: 0 }; fanout_at[n] as usize];
        for g in 0..n {
            let f = &fanins[fanin_at[g] as usize..fanin_at[g + 1] as usize];
            for (k, &d) in f.iter().enumerate() {
                if f[..k].contains(&d) {
                    continue;
                }
                let pins = f
                    .iter()
                    .enumerate()
                    .filter(|&(_, &x)| x == d)
                    .fold(0u32, |m, (j, _)| m | 1 << j);
                let slot = &mut next[d as usize];
                fanouts[*slot as usize] = Edge {
                    node: g as u32,
                    pins,
                };
                *slot += 1;
            }
        }
        let latches = nl
            .latches()
            .iter()
            .map(|&q| match nl.node(q).kind {
                NodeKind::Latch { data, .. } => (q.0, data.0),
                _ => unreachable!("latch list holds latches"),
            })
            .collect();
        let deepest = nl.levels().into_iter().max().unwrap_or(0) as usize;
        SimGraph {
            fanin_at,
            fanins,
            fanout_at,
            fanouts,
            table,
            wide,
            wide_words,
            latches,
            inputs: nl.inputs().iter().map(|i| i.0).collect(),
            wheel_len: deepest + 1,
        }
    }

    /// Number of nodes of any kind.
    pub(crate) fn num_nodes(&self) -> usize {
        self.table.len()
    }

    /// Fanins of node `id`, in truth-table input order.
    #[inline]
    pub(crate) fn fanins(&self, id: usize) -> &[u32] {
        &self.fanins[self.fanin_at[id] as usize..self.fanin_at[id + 1] as usize]
    }

    /// Logic nodes reading node `id`, with their pin masks.
    #[inline]
    pub(crate) fn fanouts(&self, id: usize) -> &[Edge] {
        &self.fanouts[self.fanout_at[id] as usize..self.fanout_at[id + 1] as usize]
    }

    /// The truth-table words of logic node `id` (row `r` is bit `r % 64`
    /// of word `r / 64`).
    pub(crate) fn table(&self, id: usize) -> &[u64] {
        let arity = self.fanin_at[id + 1] - self.fanin_at[id];
        if arity <= 6 {
            std::slice::from_ref(&self.table[id])
        } else {
            let at = self.wide_at(id);
            &self.wide_words[at..at + (1 << (arity - 6))]
        }
    }

    /// Logic node `id`'s output for truth-table row `row`: one shift of
    /// the inline word for every table of up to 6 inputs.
    #[inline]
    pub(crate) fn lut(&self, id: usize, row: u32) -> bool {
        let word = if row < 64 {
            self.table[id]
        } else {
            self.wide_words[self.wide_at(id) + (row >> 6) as usize]
        };
        (word >> (row & 63)) & 1 == 1
    }

    fn wide_at(&self, id: usize) -> usize {
        let k = self
            .wide
            .binary_search_by_key(&(id as u32), |&(node, _)| node)
            .expect("only tables wider than 6 inputs have rows past 63");
        self.wide[k].1 as usize
    }

    /// `(Q, D)` of every latch, in declaration order.
    pub(crate) fn latches(&self) -> &[(u32, u32)] {
        &self.latches
    }

    /// Primary inputs, in declaration order.
    pub(crate) fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Time slots of the event wheel: `0..=` the deepest logic level.
    pub(crate) fn wheel_len(&self) -> usize {
        self.wheel_len
    }
}
