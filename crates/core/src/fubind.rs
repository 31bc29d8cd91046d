//! HLPower functional-unit binding (paper Section 5.2, Algorithm 1).
//!
//! The binder iteratively constructs a weighted bipartite graph whose
//! nodes are currently-allocated functional units: the fixed set `U`
//! (the operations of the densest control step per operation type — the
//! resource lower bound) versus everything else (`V`). Compatible node
//! pairs (same type, no lifetime overlap) get an edge weighted by Eq. 4:
//!
//! ```text
//! w(e) = α · 1/SA  +  (1 − α) · 1/((muxDiff + 1) · β)
//! ```
//!
//! where `SA` is the glitch-aware switching-activity estimate of the
//! merged node's partial datapath (input muxes + FU, from the
//! [`crate::satable::SaTable`]), `muxDiff` is the input-mux imbalance, and
//! `β` scales the mux term to the SA term per FU class (paper: ≈30 for
//! adds, ≈1000 for multipliers). A maximum-weight matching is solved,
//! matched nodes are merged, and the loop repeats until the resource
//! constraint is met.

use crate::mux::{mux_diff, source_of, Source};
use crate::regbind::RegisterBinding;
use crate::satable::SaSource;
use cdfg::{Cdfg, FuType, OpId, ResourceConstraint, Schedule};

/// One allocated functional unit with its bound operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fu {
    /// The FU class.
    pub ty: FuType,
    /// Operations bound to this unit (sorted by id).
    pub ops: Vec<OpId>,
}

/// A complete operation-to-FU binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuBinding {
    /// Allocated units.
    pub fus: Vec<Fu>,
    /// FU index per operation.
    pub fu_of: Vec<usize>,
}

impl FuBinding {
    /// Number of allocated units of one class.
    pub fn count(&self, ty: FuType) -> usize {
        self.fus.iter().filter(|f| f.ty == ty).count()
    }

    /// Whether the binding meets a resource constraint.
    pub fn meets(&self, rc: &ResourceConstraint) -> bool {
        FuType::ALL.iter().all(|&t| self.count(t) <= rc.limit(t))
    }

    /// Checks structural validity: every op bound to a unit of its class,
    /// and no two operations on one unit with overlapping busy intervals.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self, cdfg: &Cdfg, sched: &Schedule) -> Result<(), String> {
        if self.fu_of.len() != cdfg.num_ops() {
            return Err("fu_of length mismatch".into());
        }
        for (id, op) in cdfg.ops() {
            let fu = self
                .fus
                .get(self.fu_of[id.index()])
                .ok_or_else(|| format!("{id} bound to missing FU"))?;
            if fu.ty != op.kind.fu_type() {
                return Err(format!("{id} ({}) bound to a {} unit", op.kind, fu.ty));
            }
            if !fu.ops.contains(&id) {
                return Err(format!("{id} missing from its FU's op list"));
            }
        }
        for (fi, fu) in self.fus.iter().enumerate() {
            for (i, &a) in fu.ops.iter().enumerate() {
                for &b in &fu.ops[i + 1..] {
                    if sched.conflicts(cdfg, a, b) {
                        return Err(format!("fu{fi}: {a} and {b} overlap in time"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// HLPower parameters (paper Section 5.2.2).
#[derive(Clone, Copy, Debug)]
pub struct HlPowerConfig {
    /// Weighting coefficient `α` of Eq. 4 (paper evaluates 1.0 and 0.5).
    pub alpha: f64,
    /// `β` for adder/subtractor units (paper: ≈30).
    pub beta_addsub: f64,
    /// `β` for multiplier units (paper: ≈1000).
    pub beta_mul: f64,
}

impl Default for HlPowerConfig {
    fn default() -> Self {
        HlPowerConfig {
            alpha: 0.5,
            beta_addsub: 30.0,
            beta_mul: 1000.0,
        }
    }
}

impl HlPowerConfig {
    /// Configuration with a given `α` and the paper's `β` values.
    pub fn with_alpha(alpha: f64) -> Self {
        HlPowerConfig {
            alpha,
            ..Default::default()
        }
    }

    fn beta(&self, ty: FuType) -> f64 {
        match ty {
            FuType::AddSub => self.beta_addsub,
            FuType::Mul => self.beta_mul,
        }
    }
}

/// One merge recorded during binding (for traces and the Figure 1
/// walkthrough).
#[derive(Clone, Debug)]
pub struct MergeRecord {
    /// Ops of the `U`-side node before the merge.
    pub u_ops: Vec<OpId>,
    /// Ops of the merged-in `V`-side node.
    pub v_ops: Vec<OpId>,
    /// The Eq. 4 weight of the chosen edge.
    pub weight: f64,
}

/// Per-iteration trace of Algorithm 1.
#[derive(Clone, Debug)]
pub struct IterationTrace {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Number of compatible edges in the bipartite graph.
    pub num_edges: usize,
    /// Merges performed by the maximum-weight matching.
    pub merges: Vec<MergeRecord>,
}

/// Busy control steps of a bind node, as a bitset.
#[derive(Clone, Debug)]
struct Busy {
    words: Vec<u64>,
}

impl Busy {
    fn new(num_steps: u32) -> Self {
        Busy {
            words: vec![0; (num_steps as usize).div_ceil(64).max(1)],
        }
    }

    fn set_range(&mut self, from: u32, to_exclusive: u32) {
        for s in from..to_exclusive {
            self.words[(s / 64) as usize] |= 1u64 << (s % 64);
        }
    }

    fn intersects(&self, other: &Busy) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    fn union(&mut self, other: &Busy) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

#[derive(Clone)]
struct BindNode {
    ty: FuType,
    ops: Vec<OpId>,
    busy: Busy,
    /// Distinct sources of input ports 0 and 1 over `ops`, sorted. The
    /// Eq. 4 mux sizes of a candidate merge are the sizes of the unions.
    ports: [Vec<Source>; 2],
}

impl BindNode {
    fn new(cdfg: &Cdfg, sched: &Schedule, rb: &RegisterBinding, ty: FuType, op: OpId) -> Self {
        let mut busy = Busy::new(sched.num_steps);
        busy.set_range(sched.start(op), sched.end(cdfg, op));
        BindNode {
            ty,
            ops: vec![op],
            busy,
            ports: [0, 1].map(|port| vec![source_of(cdfg, rb, rb.var_on_port(cdfg, op, port))]),
        }
    }

    /// Input mux sizes `(port0, port1)` of one unit serving both nodes'
    /// operations: what [`crate::mux::mux_sizes`] returns for the merged
    /// op list, without building it.
    fn merged_mux_sizes(&self, other: &BindNode) -> (usize, usize) {
        (
            union_len(&self.ports[0], &other.ports[0]),
            union_len(&self.ports[1], &other.ports[1]),
        )
    }

    /// Merges `other`'s operations, busy steps and port sources into
    /// this node.
    fn absorb(&mut self, other: &BindNode) {
        self.busy.union(&other.busy);
        self.ops.extend_from_slice(&other.ops);
        for (mine, theirs) in self.ports.iter_mut().zip(&other.ports) {
            mine.extend_from_slice(theirs);
            mine.sort_unstable();
            mine.dedup();
        }
    }
}

/// Size of the union of two sorted, duplicate-free source lists.
fn union_len(a: &[Source], b: &[Source]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - shared
}

/// Runs HLPower functional-unit binding (Algorithm 1).
///
/// `table` supplies the SA estimates of Eq. 4 (its [`crate::satable::SaMode`]
/// selects precalculated, dynamic, or zero-delay estimation).
///
/// Returns the binding and the per-iteration trace. For single-cycle
/// libraries the result always meets the constraint (paper Theorem 1);
/// with multi-cycle resources the binder stops when no compatible merges
/// remain, which may exceed the constraint — check
/// [`FuBinding::meets`].
///
/// # Panics
///
/// Panics if the schedule does not belong to the CDFG.
pub fn bind_hlpower<S: SaSource + ?Sized>(
    cdfg: &Cdfg,
    sched: &Schedule,
    rb: &RegisterBinding,
    rc: &ResourceConstraint,
    table: &mut S,
    cfg: &HlPowerConfig,
) -> (FuBinding, Vec<IterationTrace>) {
    assert_eq!(sched.cstep.len(), cdfg.num_ops(), "schedule/CDFG mismatch");
    // Seed sets: the densest control step per type (paper Section 5.2.1).
    let mut nodes: Vec<BindNode> = Vec::new();
    let mut is_u: Vec<bool> = Vec::new();
    for ty in FuType::ALL {
        let (_, dense_ops) = sched.densest_step_ops(cdfg, ty);
        let dense: std::collections::HashSet<OpId> = dense_ops.iter().copied().collect();
        for op in cdfg.ops_of_type(ty) {
            nodes.push(BindNode::new(cdfg, sched, rb, ty, op));
            is_u.push(dense.contains(&op));
        }
    }

    let mut traces: Vec<IterationTrace> = Vec::new();
    let max_iterations = cdfg.num_ops() + 2;
    for iteration in 1..=max_iterations {
        // Which types still exceed the constraint?
        let mut over: Vec<FuType> = Vec::new();
        for ty in FuType::ALL {
            let count = nodes.iter().filter(|n| n.ty == ty).count();
            if count > rc.limit(ty) {
                over.push(ty);
            }
        }
        if over.is_empty() {
            break;
        }
        // Bipartite graph: U rows, V columns, for the types still over.
        let u_idx: Vec<usize> = (0..nodes.len())
            .filter(|&i| is_u[i] && over.contains(&nodes[i].ty))
            .collect();
        let v_idx: Vec<usize> = (0..nodes.len())
            .filter(|&i| !is_u[i] && over.contains(&nodes[i].ty))
            .collect();
        let mut num_edges = 0usize;
        let weights: Vec<Vec<Option<f64>>> = u_idx
            .iter()
            .map(|&u| {
                v_idx
                    .iter()
                    .map(|&v| {
                        if nodes[u].ty != nodes[v].ty || nodes[u].busy.intersects(&nodes[v].busy) {
                            return None;
                        }
                        num_edges += 1;
                        let sizes = nodes[u].merged_mux_sizes(&nodes[v]);
                        let sa = table.sa(nodes[u].ty, sizes.0, sizes.1);
                        let beta = cfg.beta(nodes[u].ty);
                        let w = cfg.alpha / sa.max(1e-9)
                            + (1.0 - cfg.alpha) / ((mux_diff(sizes) as f64 + 1.0) * beta);
                        Some(w.max(1e-12))
                    })
                    .collect()
            })
            .collect();
        if num_edges == 0 {
            // Multi-cycle dead end (Theorem 1 rules this out for
            // single-cycle libraries): stop with the constraint unmet.
            traces.push(IterationTrace {
                iteration,
                num_edges: 0,
                merges: Vec::new(),
            });
            break;
        }
        let matching = crate::matching::max_weight_matching(&weights);
        let mut merges: Vec<MergeRecord> = Vec::new();
        let mut remove: Vec<usize> = Vec::new();
        for (ui, vi) in matching.iter().enumerate() {
            if let Some(vi) = *vi {
                let (u, v) = (u_idx[ui], v_idx[vi]);
                merges.push(MergeRecord {
                    u_ops: nodes[u].ops.clone(),
                    v_ops: nodes[v].ops.clone(),
                    weight: weights[ui][vi].unwrap_or(0.0),
                });
                let merged_in = nodes[v].clone();
                nodes[u].absorb(&merged_in);
                remove.push(v);
            }
        }
        traces.push(IterationTrace {
            iteration,
            num_edges,
            merges,
        });
        if remove.is_empty() {
            break;
        }
        remove.sort_unstable_by(|a, b| b.cmp(a));
        for v in remove {
            nodes.swap_remove(v);
            is_u.swap_remove(v);
        }
    }

    // Assemble the binding, deterministically ordered.
    let mut fus: Vec<Fu> = nodes
        .into_iter()
        .map(|mut n| {
            n.ops.sort_unstable();
            Fu {
                ty: n.ty,
                ops: n.ops,
            }
        })
        .collect();
    fus.sort_by_key(|f| (f.ty, f.ops[0]));
    let mut fu_of = vec![usize::MAX; cdfg.num_ops()];
    for (i, fu) in fus.iter().enumerate() {
        for &op in &fu.ops {
            fu_of[op.index()] = i;
        }
    }
    (FuBinding { fus, fu_of }, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regbind::{bind_registers, RegBindConfig};
    use crate::satable::SaTable;
    use cdfg::{list_schedule, Cdfg, OpKind, ResourceLibrary, Schedule};

    fn sa_table() -> SaTable {
        SaTable::new(4, 4)
    }

    /// The exact CDFG of the paper's Figure 1: 8 operations over 3 control
    /// steps; cstep1 = {add1, add2, mul3}, cstep2 = {add4, mul5},
    /// cstep3 = {add6, mul7, add8}.
    fn figure1() -> (Cdfg, Schedule) {
        let mut g = Cdfg::new("fig1");
        let ins: Vec<_> = (0..6).map(|i| g.add_input(format!("x{i}"))).collect();
        let (_a1, v1) = g.add_op(OpKind::Add, ins[0], ins[1]); // op0 @0
        let (_a2, v2) = g.add_op(OpKind::Add, ins[2], ins[3]); // op1 @0
        let (_m3, v3) = g.add_op(OpKind::Mul, ins[4], ins[5]); // op2 @0
        let (_a4, v4) = g.add_op(OpKind::Add, v1, v2); // op3 @1
        let (_m5, v5) = g.add_op(OpKind::Mul, v3, v1); // op4 @1
        let (_a6, v6) = g.add_op(OpKind::Add, v4, v5); // op5 @2
        let (_m7, v7) = g.add_op(OpKind::Mul, v5, v4); // op6 @2
        let (_a8, v8) = g.add_op(OpKind::Add, v4, v2); // op7 @2
        g.mark_output(v6);
        g.mark_output(v7);
        g.mark_output(v8);
        let cstep = vec![0, 0, 0, 1, 1, 2, 2, 2];
        let library = ResourceLibrary::default();
        let sched = Schedule {
            cstep,
            library,
            num_steps: 3,
        };
        sched.validate(&g, None).unwrap();
        (g, sched)
    }

    #[test]
    fn figure1_reaches_minimum_allocation() {
        let (g, sched) = figure1();
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        let rc = ResourceConstraint::new(2, 1);
        let mut table = sa_table();
        let (fb, traces) =
            bind_hlpower(&g, &sched, &rb, &rc, &mut table, &HlPowerConfig::default());
        fb.validate(&g, &sched).unwrap();
        assert!(fb.meets(&rc));
        assert_eq!(
            fb.count(FuType::AddSub),
            2,
            "paper: final binding is 2 adders"
        );
        assert_eq!(
            fb.count(FuType::Mul),
            1,
            "paper: final binding is 1 multiplier"
        );
        assert!(
            traces.len() >= 2,
            "the figure shows at least two iterations, got {}",
            traces.len()
        );
    }

    #[test]
    fn all_ops_bound_exactly_once() {
        let (g, sched) = figure1();
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        let rc = ResourceConstraint::new(2, 1);
        let (fb, _) = bind_hlpower(
            &g,
            &sched,
            &rb,
            &rc,
            &mut sa_table(),
            &HlPowerConfig::default(),
        );
        let total: usize = fb.fus.iter().map(|f| f.ops.len()).sum();
        assert_eq!(total, g.num_ops());
        for (id, _) in g.ops() {
            assert_ne!(fb.fu_of[id.index()], usize::MAX);
        }
    }

    #[test]
    fn benchmark_meets_paper_constraints() {
        let p = cdfg::profile("pr").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = ResourceConstraint::new(2, 2);
        let sched = list_schedule(&g, &ResourceLibrary::default(), &rc);
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        let (fb, _) = bind_hlpower(
            &g,
            &sched,
            &rb,
            &rc,
            &mut sa_table(),
            &HlPowerConfig::default(),
        );
        fb.validate(&g, &sched).unwrap();
        assert!(
            fb.meets(&rc),
            "Theorem 1: single-cycle constraint is reachable"
        );
    }

    #[test]
    fn alpha_zero_targets_balance_only() {
        // With α = 0 the weight only cares about muxDiff, so across the
        // suite the final bindings should have muxDiff stats no worse in
        // aggregate than pure-SA runs on the same inputs. (A single
        // instance can go either way — the bipartite matching optimizes
        // merge weights, not final mux statistics directly.)
        let mut balance_sum = 0.0;
        let mut sa_sum = 0.0;
        for name in ["pr", "wang", "honda", "mcm", "dir"] {
            let p = cdfg::profile(name).unwrap();
            let g = cdfg::generate(p, p.seed);
            let rc = ResourceConstraint::new(2, 2);
            let sched = list_schedule(&g, &ResourceLibrary::default(), &rc);
            let rb = bind_registers(&g, &sched, &RegBindConfig::default());
            let (balance, _) = bind_hlpower(
                &g,
                &sched,
                &rb,
                &rc,
                &mut sa_table(),
                &HlPowerConfig::with_alpha(0.0),
            );
            let (sa_only, _) = bind_hlpower(
                &g,
                &sched,
                &rb,
                &rc,
                &mut sa_table(),
                &HlPowerConfig::with_alpha(1.0),
            );
            balance_sum += crate::mux::mux_report(&g, &rb, &balance).muxdiff_mean();
            sa_sum += crate::mux::mux_report(&g, &rb, &sa_only).muxdiff_mean();
        }
        assert!(
            balance_sum <= sa_sum + 1e-9,
            "balance-only {balance_sum} vs sa-only {sa_sum}"
        );
    }

    #[test]
    fn multicycle_binding_flags_unmet_constraints() {
        // Two overlapping 2-cycle muls and a 1-mul constraint cannot be
        // met when the schedule overlaps them.
        let mut g = Cdfg::new("mc");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let (_, v1) = g.add_op(OpKind::Mul, a, b);
        let (_, v2) = g.add_op(OpKind::Mul, b, a);
        g.mark_output(v1);
        g.mark_output(v2);
        let library = ResourceLibrary {
            addsub_latency: 1,
            mul_latency: 2,
        };
        // Deliberately overlapping hand schedule (steps 0-1 and 1-2).
        let sched = Schedule {
            cstep: vec![0, 1],
            library,
            num_steps: 3,
        };
        sched.validate(&g, None).unwrap();
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        let rc = ResourceConstraint::new(1, 1);
        let (fb, _) = bind_hlpower(
            &g,
            &sched,
            &rb,
            &rc,
            &mut sa_table(),
            &HlPowerConfig::default(),
        );
        fb.validate(&g, &sched).unwrap();
        assert!(!fb.meets(&rc), "overlapping multi-cycle ops cannot share");
        assert_eq!(fb.count(FuType::Mul), 2);
    }

    #[test]
    fn merged_mux_sizes_match_the_mux_model() {
        // The per-node port-source sets must give exactly the sizes the
        // mux model computes from the merged op list, before and after
        // merges.
        let p = cdfg::profile("mcm").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = ResourceConstraint::new(4, 2);
        let sched = list_schedule(&g, &ResourceLibrary::default(), &rc);
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        for ty in FuType::ALL {
            let nodes: Vec<BindNode> = g
                .ops_of_type(ty)
                .into_iter()
                .map(|op| BindNode::new(&g, &sched, &rb, ty, op))
                .collect();
            let mut acc = nodes[0].clone();
            for (k, node) in nodes.iter().enumerate().skip(1) {
                let mut merged = acc.ops.clone();
                merged.extend_from_slice(&node.ops);
                assert_eq!(
                    acc.merged_mux_sizes(node),
                    crate::mux::mux_sizes(&g, &rb, &merged),
                    "{ty} node {k}"
                );
                if k % 2 == 0 {
                    acc.absorb(node);
                }
            }
            assert!(acc.ops.len() > 2, "{ty}: merges were exercised");
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let p = cdfg::profile("wang").unwrap();
        let g = cdfg::generate(p, p.seed);
        let rc = ResourceConstraint::new(2, 2);
        let sched = list_schedule(&g, &ResourceLibrary::default(), &rc);
        let rb = bind_registers(&g, &sched, &RegBindConfig::default());
        let (f1, _) = bind_hlpower(
            &g,
            &sched,
            &rb,
            &rc,
            &mut sa_table(),
            &HlPowerConfig::default(),
        );
        let (f2, _) = bind_hlpower(
            &g,
            &sched,
            &rb,
            &rc,
            &mut sa_table(),
            &HlPowerConfig::default(),
        );
        assert_eq!(f1, f2);
    }
}
