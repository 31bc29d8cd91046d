//! K-feasible cut enumeration with dominance pruning (Cong/Wu/Ding \[8\]).
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path
//! from a source to `n` passes through a leaf; a cut is K-feasible when it
//! has at most `K` leaves and can therefore be implemented by one K-input
//! LUT. Cut sets are built bottom-up: the cuts of a node are the
//! K-feasible unions of one cut per fanin, plus the trivial cut `{n}`.
//!
//! Constant nodes get an *empty* cut, so constants are folded into LUT
//! functions instead of occupying LUT pins.

use netlist::{Netlist, NodeId, NodeKind, TruthTable};
use std::fmt;

/// Most leaves a cut holds: the widest LUT [`enumerate_cuts`] supports.
const MAX_LEAVES: usize = 8;

/// One cut: sorted leaf set plus a 64-bit subset signature.
///
/// The leaves live inline, so making, merging and copying cuts allocates
/// nothing.
#[derive(Clone, PartialEq, Eq)]
pub struct Cut {
    /// The leaves in `slots[..len]`, sorted; the other slots hold
    /// `NodeId(0)`.
    slots: [NodeId; MAX_LEAVES],
    len: u8,
    sig: u64,
}

impl fmt::Debug for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cut")
            .field("leaves", &self.leaves())
            .field("sig", &self.sig)
            .finish()
    }
}

impl Cut {
    /// The trivial cut `{n}`.
    pub fn trivial(n: NodeId) -> Self {
        let mut cut = Cut::empty();
        cut.slots[0] = n;
        cut.len = 1;
        cut.sig = 1u64 << (n.0 % 64);
        cut
    }

    /// The empty cut (used for constant nodes).
    pub fn empty() -> Self {
        Cut {
            slots: [NodeId(0); MAX_LEAVES],
            len: 0,
            sig: 0,
        }
    }

    /// Sorted leaves.
    pub fn leaves(&self) -> &[NodeId] {
        &self.slots[..usize::from(self.len)]
    }

    /// Leaf count.
    pub fn size(&self) -> usize {
        usize::from(self.len)
    }

    /// Merges two cuts; `None` if the union exceeds `k` leaves, or 8
    /// leaves, the most a cut holds.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        let k = k.min(MAX_LEAVES);
        // Quick reject: the signature union popcount is a lower bound on
        // the merged size (signatures alias mod 64, never undercounting
        // distinct bits they do set).
        if (self.sig | other.sig).count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut merged = Cut::empty();
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x > y => {
                    j += 1;
                    y
                }
                (Some(&x), Some(&y)) => {
                    i += 1;
                    if x == y {
                        j += 1;
                    }
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!("the loop runs while a leaf is left"),
            };
            if n == k {
                return None;
            }
            merged.slots[n] = next;
            n += 1;
        }
        merged.len = n as u8;
        merged.sig = self.sig | other.sig;
        Some(merged)
    }

    /// True if `self`'s leaves are a subset of `other`'s (so `self`
    /// dominates `other`).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len {
            return false;
        }
        if self.sig & other.sig != self.sig {
            return false;
        }
        let theirs = other.leaves();
        let mut j = 0;
        for leaf in self.leaves() {
            while j < theirs.len() && theirs[j] < *leaf {
                j += 1;
            }
            if j >= theirs.len() || theirs[j] != *leaf {
                return false;
            }
        }
        true
    }
}

/// Cut enumeration parameters.
#[derive(Clone, Copy, Debug)]
pub struct CutConfig {
    /// LUT input count `K` (Cyclone II uses 4).
    pub k: usize,
    /// Maximum number of cuts kept per node (trivial cut not counted).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    fn default() -> Self {
        CutConfig { k: 4, max_cuts: 12 }
    }
}

/// Per-node cut sets for a whole netlist, indexed by `NodeId`.
#[derive(Clone, Debug)]
pub struct CutSets {
    sets: Vec<Vec<Cut>>,
}

impl CutSets {
    /// Cuts of one node. For logic nodes the first entry is the trivial
    /// cut; the remaining entries are K-feasible non-trivial cuts sorted by
    /// size.
    pub fn cuts(&self, n: NodeId) -> &[Cut] {
        &self.sets[n.index()]
    }

    /// Non-trivial cuts of a logic node (the ones a LUT can implement).
    pub fn implementable(&self, n: NodeId) -> &[Cut] {
        let all = &self.sets[n.index()];
        if all.first().map(|c| c.leaves() == [n]) == Some(true) {
            &all[1..]
        } else {
            all
        }
    }

    /// Total number of stored cuts (diagnostics).
    pub fn total(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Enumerates K-feasible cuts for every node.
///
/// # Panics
///
/// Panics if the netlist is cyclic (run [`Netlist::check`] first).
pub fn enumerate_cuts(nl: &Netlist, cfg: &CutConfig) -> CutSets {
    assert!(
        (2..=MAX_LEAVES).contains(&cfg.k),
        "supported LUT sizes are 2..={MAX_LEAVES}"
    );
    let mut sets: Vec<Vec<Cut>> = vec![Vec::new(); nl.num_nodes()];
    for id in nl.topo_order() {
        let node = nl.node(id);
        let cuts = match &node.kind {
            NodeKind::Input | NodeKind::Latch { .. } => vec![Cut::trivial(id)],
            NodeKind::Constant(_) => vec![Cut::empty()],
            NodeKind::Logic { fanins, .. } => {
                let mut partial: Vec<Cut> = vec![Cut::empty()];
                for f in fanins {
                    let mut next: Vec<Cut> = Vec::new();
                    for p in &partial {
                        for c in &sets[f.index()] {
                            if let Some(m) = p.merge(c, cfg.k) {
                                insert_pruned(&mut next, m);
                            }
                        }
                    }
                    // Cap intermediate growth to keep merging polynomial.
                    sort_cuts(&mut next);
                    next.truncate(cfg.max_cuts * 4);
                    partial = next;
                }
                sort_cuts(&mut partial);
                partial.truncate(cfg.max_cuts);
                let mut with_trivial = Vec::with_capacity(partial.len() + 1);
                with_trivial.push(Cut::trivial(id));
                with_trivial.extend(partial);
                with_trivial
            }
        };
        sets[id.index()] = cuts;
    }
    CutSets { sets }
}

fn sort_cuts(cuts: &mut [Cut]) {
    cuts.sort_by(|a, b| {
        a.size()
            .cmp(&b.size())
            .then_with(|| a.leaves().cmp(b.leaves()))
    });
}

fn insert_pruned(set: &mut Vec<Cut>, cut: Cut) {
    for existing in set.iter() {
        if existing.dominates(&cut) {
            return;
        }
    }
    set.retain(|existing| !cut.dominates(existing));
    set.push(cut);
}

/// Computes the Boolean function of `root` expressed over the leaves of
/// `cut`. Constants encountered inside the cone are folded.
///
/// The cone is evaluated once, bit-parallel: every cone node holds its
/// truth table over the leaves as `u64` words, where bit `r` of the
/// table is the node's value under leaf assignment `r` (leaf `i` = bit
/// `i` of `r`). Leaf `i < 6` starts as the variable mask `0xAAAA…`,
/// `0xCCCC…`, … and leaf `i ≥ 6` as whole words of ones or zeros, so a
/// cut of `k ≤ 6` leaves takes one word per node and `k = 8` takes four.
///
/// # Panics
///
/// Panics if the cone reaches a non-constant source that is not a leaf
/// (i.e. `cut` is not actually a cut of `root`).
pub fn cut_function(nl: &Netlist, root: NodeId, cut: &Cut) -> TruthTable {
    ConeEval::default().function(nl, root, cut)
}

/// Reusable buffers of [`cut_function`], so a caller that evaluates many
/// cuts allocates them once.
#[derive(Default)]
pub(crate) struct ConeEval {
    /// The leaves, then the cone nodes evaluated so far in topological
    /// order. Cones of K-feasible cuts hold a few dozen nodes, so a
    /// linear scan finds an entry faster than a hash map would.
    nodes: Vec<NodeId>,
    /// `words` table words per entry of `nodes`.
    values: Vec<u64>,
    /// Depth-first frames: a cone node and the next fanin to visit.
    stack: Vec<(NodeId, usize)>,
    /// Positions in `nodes` of the fanins of the node being evaluated.
    fanin_pos: Vec<usize>,
}

/// Word `w` of the truth table of leaf variable `i`.
fn leaf_word(i: usize, w: usize) -> u64 {
    const MASKS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match MASKS.get(i) {
        Some(&m) => m,
        None if (w >> (i - 6)) & 1 == 1 => u64::MAX,
        None => 0,
    }
}

impl ConeEval {
    /// [`cut_function`] on these buffers.
    pub(crate) fn function(&mut self, nl: &Netlist, root: NodeId, cut: &Cut) -> TruthTable {
        let leaves = cut.leaves();
        let k = leaves.len();
        let words = if k > 6 { 1 << (k - 6) } else { 1 };
        self.nodes.clear();
        self.values.clear();
        for (i, &l) in leaves.iter().enumerate() {
            self.nodes.push(l);
            self.values.extend((0..words).map(|w| leaf_word(i, w)));
        }
        if !leaves.contains(&root) {
            self.evaluate_cone(nl, root, words);
        }
        let at = self.position(root).expect("root is a leaf or evaluated") * words;
        TruthTable::from_words(k, self.values[at..at + words].to_vec())
    }

    fn position(&self, n: NodeId) -> Option<usize> {
        self.nodes.iter().rposition(|&x| x == n)
    }

    /// Evaluates every cone node under `root` in depth-first post-order,
    /// so each node's fanins are evaluated before it.
    fn evaluate_cone(&mut self, nl: &Netlist, root: NodeId, words: usize) {
        self.stack.clear();
        self.stack.push((root, 0));
        while let Some((n, child)) = self.stack.pop() {
            let kind = &nl.node(n).kind;
            let fanins: &[NodeId] = match kind {
                NodeKind::Logic { fanins, .. } => fanins,
                NodeKind::Constant(_) => &[],
                _ => panic!(
                    "cone of {root:?} reached non-leaf source {:?} — invalid cut",
                    nl.node(n).name
                ),
            };
            if let Some(&f) = fanins.get(child) {
                self.stack.push((n, child + 1));
                if self.position(f).is_none() {
                    self.stack.push((f, 0));
                }
                continue;
            }
            self.fanin_pos.clear();
            for &f in fanins {
                let at = self.position(f).expect("fanin evaluated first");
                self.fanin_pos.push(at * words);
            }
            for w in 0..words {
                let v = match kind {
                    NodeKind::Constant(c) => {
                        if *c {
                            u64::MAX
                        } else {
                            0
                        }
                    }
                    NodeKind::Logic { table, .. } => self.node_word(table, w),
                    _ => unreachable!("sources are leaves"),
                };
                self.values.push(v);
            }
            self.nodes.push(n);
        }
    }

    /// Word `w` of a logic node's table over the leaves: the union of the
    /// node's on-set rows, each the conjunction of its fanins' literals.
    fn node_word(&self, table: &TruthTable, w: usize) -> u64 {
        let mut out = 0u64;
        for row in 0..table.num_rows() {
            if table.eval(row) {
                let mut term = u64::MAX;
                for (i, &at) in self.fanin_pos.iter().enumerate() {
                    let x = self.values[at + w];
                    term &= if (row >> i) & 1 == 1 { x } else { !x };
                }
                out |= term;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::TruthTable;

    fn two_level() -> (Netlist, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // f = (a AND b) XOR (c OR d)
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let g1 = nl.add_logic("g1", vec![a, b], TruthTable::and(2));
        let g2 = nl.add_logic("g2", vec![c, d], TruthTable::or(2));
        let f = nl.add_logic("f", vec![g1, g2], TruthTable::xor(2));
        nl.mark_output("o", f);
        (nl, a, b, c, d, g1, f)
    }

    #[test]
    fn enumerates_expected_cuts() {
        let (nl, a, b, _c, _d, g1, f) = two_level();
        let cuts = enumerate_cuts(&nl, &CutConfig { k: 4, max_cuts: 16 });
        // g1: trivial + {a,b}
        let g1_cuts = cuts.cuts(g1);
        assert_eq!(g1_cuts.len(), 2);
        assert_eq!(g1_cuts[0].leaves(), [g1]);
        assert_eq!(g1_cuts[1].leaves(), [a, b]);
        // f: trivial, {g1,g2}, {a,b,g2}, {g1,c,d}, {a,b,c,d}
        let f_cuts = cuts.cuts(f);
        assert_eq!(f_cuts.len(), 5);
        assert_eq!(f_cuts[0].leaves(), [f]);
        let sizes: Vec<usize> = f_cuts.iter().skip(1).map(Cut::size).collect();
        assert_eq!(sizes, vec![2, 3, 3, 4]);
    }

    #[test]
    fn k_limits_cut_width() {
        let (nl, _, _, _, _, _, f) = two_level();
        let cuts = enumerate_cuts(&nl, &CutConfig { k: 3, max_cuts: 16 });
        for c in cuts.implementable(f) {
            assert!(c.size() <= 3);
        }
        // the 4-leaf global cut must be absent
        assert_eq!(cuts.cuts(f).len(), 4);
    }

    #[test]
    fn dominance_pruning() {
        let c1 = Cut::trivial(NodeId(3));
        let c2 = c1.merge(&Cut::trivial(NodeId(7)), 4).unwrap();
        assert!(c1.dominates(&c2));
        assert!(!c2.dominates(&c1));
        assert!(c1.dominates(&c1));
        let mut set = vec![c2.clone()];
        insert_pruned(&mut set, c1.clone());
        assert_eq!(set, vec![c1]);
    }

    #[test]
    fn merge_respects_k() {
        let a: Cut = Cut::trivial(NodeId(1))
            .merge(&Cut::trivial(NodeId(2)), 4)
            .unwrap();
        let b: Cut = Cut::trivial(NodeId(3))
            .merge(&Cut::trivial(NodeId(4)), 4)
            .unwrap();
        assert!(a.merge(&b, 4).is_some());
        assert!(a.merge(&b, 3).is_none());
        let shared = Cut::trivial(NodeId(1))
            .merge(&Cut::trivial(NodeId(3)), 4)
            .unwrap();
        // {1,2} U {1,3} = {1,2,3}
        let m = a.merge(&shared, 3).unwrap();
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn merge_holds_at_most_eight_leaves() {
        let cut = |ids: &[u32]| {
            ids.iter().fold(Cut::empty(), |c, &i| {
                c.merge(&Cut::trivial(NodeId(i)), 8).unwrap()
            })
        };
        let all = cut(&[0, 2, 4, 6]).merge(&cut(&[1, 3, 5, 7]), 16).unwrap();
        assert_eq!(all.leaves(), (0..8).map(NodeId).collect::<Vec<_>>());
        assert_eq!(all, cut(&[7, 6, 5, 4, 3, 2, 1, 0]));
        assert!(all.merge(&Cut::trivial(NodeId(8)), 16).is_none());
    }

    #[test]
    fn cut_function_matches_cone() {
        let (nl, _a, _b, _c, _d, _g1, f) = two_level();
        let cuts = enumerate_cuts(&nl, &CutConfig { k: 4, max_cuts: 16 });
        let global = cuts
            .cuts(f)
            .iter()
            .find(|c| c.size() == 4)
            .expect("4-input cut");
        let table = cut_function(&nl, f, global);
        // leaves sorted = [a, b, c, d]
        for row in 0..16u32 {
            let (a, b, c, d) = (row & 1 != 0, row & 2 != 0, row & 4 != 0, row & 8 != 0);
            assert_eq!(table.get(row), (a && b) != (c || d), "row {row}");
        }
    }

    #[test]
    fn constants_are_folded_out_of_cuts() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let k1 = nl.add_constant("k1", true);
        let g = nl.add_logic("g", vec![a, k1], TruthTable::and(2));
        nl.mark_output("o", g);
        let cuts = enumerate_cuts(&nl, &CutConfig::default());
        let best = &cuts.implementable(g)[0];
        assert_eq!(best.leaves(), [a], "constant must not occupy a leaf");
        let table = cut_function(&nl, g, best);
        assert_eq!(table, TruthTable::buffer());
    }

    #[test]
    fn trivial_cut_function_is_buffer() {
        let (nl, _, _, _, _, g1, _) = two_level();
        let t = Cut::trivial(g1);
        let table = cut_function(&nl, g1, &t);
        assert_eq!(table, TruthTable::buffer());
    }

    #[test]
    fn deep_chain_has_bounded_cuts() {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("i0");
        for k in 1..=32 {
            let i = nl.add_input(format!("i{k}"));
            prev = nl.add_logic(format!("x{k}"), vec![prev, i], TruthTable::xor(2));
        }
        nl.mark_output("o", prev);
        let cfg = CutConfig { k: 4, max_cuts: 8 };
        let cuts = enumerate_cuts(&nl, &cfg);
        for (id, node) in nl.nodes() {
            if matches!(node.kind, NodeKind::Logic { .. }) {
                let n = cuts.implementable(id).len();
                assert!(n >= 1 && n <= cfg.max_cuts, "node {id}: {n} cuts");
            }
        }
    }
}
