//! Exhaustive semantic checking of a [`Netlist`].
//!
//! [`Netlist::check`] answers "is this graph usable?" with the *first*
//! structural problem it finds — the right contract for constructors and
//! decoders, which bail on the first defect anyway. An auditor (`hlp
//! check`, `hlp fsck`, the daemon's validate-on-put) needs the opposite:
//! **every** problem in one pass, each as a typed [`Violation`] with
//! enough context to name the offending net in a report, and no panics
//! no matter how hostile the graph is (all traversals here are
//! iterative, so adversarial depth cannot blow the stack, and every id
//! is range-checked before it indexes anything).
//!
//! The checker grades findings: structural defects that would make the
//! mapper, simulator, or estimator produce garbage (cycles, dangling
//! ids, arity mismatches) are [`Severity::Error`]; hygiene findings a
//! valid flow can still consume (unreachable nodes, pass-through
//! buffers) are [`Severity::Warning`]. [`CheckReport::is_clean`] ignores
//! warnings, so a swept-but-imperfect netlist still passes `fsck`.
//!
//! A subset of violations is mechanically repairable: [`plan_fixes`]
//! turns a report into a [`FixPlan`] (drop orphans, rewire singleton
//! muxes, dedupe structurally identical multiply-drivers) and
//! [`apply_fixes`] rebuilds the graph with the plan applied. Nothing
//! here rewrites a file: `hlp check --fix` applies plans to bare netlist
//! files only. A defective store artifact is never mended; `hlp fsck
//! --repair` quarantines it and the next run recomputes it.

use crate::graph::{Netlist, Node, NodeId, NodeKind};
use crate::truth::TruthTable;
use std::fmt;

/// Version of the semantic checker. Bump it whenever the set of
/// [`Violation`] kinds or any detection rule changes, so persisted fsck
/// watermarks (which embed the auditor version) invalidate and every
/// slot is re-audited under the new rules. The
/// `checker_version_covers_every_violation_kind` test pins the variant
/// set to this number.
pub const CHECKER_VERSION: u32 = 2;

/// Sentinel for a latch whose data input was never connected (mirrors
/// the private constant in [`crate::graph`]; the text codec serializes
/// it as `-`).
const UNCONNECTED: NodeId = NodeId(u32::MAX);

/// Word-level buses wider than this violate the 64-bit word contract
/// (`gatesim`'s word helpers pack one bus bit per bit of a `u64`, and
/// the datapath generator caps `--width` at 64).
pub const MAX_BUS_WIDTH: usize = 64;

/// How severe a [`Violation`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Hygiene finding: the flow can still consume the netlist.
    Warning,
    /// Structural defect: downstream stages would panic or mis-measure.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One semantic problem found by [`check_netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two nodes drive the same net name (names are the net identity in
    /// BLIF and in every report, so a duplicate is a multiply-driven
    /// net).
    MultiplyDriven {
        /// The contested net name.
        name: String,
        /// Id of the first driver.
        first: NodeId,
        /// Id of the second driver.
        second: NodeId,
    },
    /// A fanin, latch-data, or output reference points past the node
    /// table.
    DanglingRef {
        /// Name of the referencing node (or output port).
        node: String,
        /// The out-of-range id.
        target: u32,
    },
    /// A latch whose data input was never connected — its net has no
    /// driver.
    UndrivenLatch {
        /// The latch's net name.
        node: String,
    },
    /// Fanin count disagrees with the truth-table input count (a
    /// truncated or padded LUT init).
    ArityMismatch {
        /// Name of the offending node.
        node: String,
        /// Number of fanins on the node.
        fanins: usize,
        /// Number of inputs its truth table declares.
        table_inputs: usize,
    },
    /// A LUT init word carries set bits beyond its `2^n` rows.
    InitWordOutOfRange {
        /// Name of the offending node.
        node: String,
    },
    /// The combinational subgraph has a cycle through this node.
    CombinationalCycle {
        /// A node on the cycle.
        node: String,
    },
    /// Two primary outputs claim the same port name.
    DuplicatePort {
        /// The contested port name.
        port: String,
    },
    /// An output bus (ports sharing a stem with numeric lane suffixes)
    /// is wider than [`MAX_BUS_WIDTH`] lanes.
    BusWidthOverflow {
        /// The bus stem.
        bus: String,
        /// Its lane count.
        lanes: usize,
    },
    /// A node unreachable (backwards) from every primary output, latch,
    /// and input port — dead logic a sweep would remove.
    Orphan {
        /// The unreachable node's name.
        node: String,
    },
    /// A one-fanin logic node whose table is the identity — the
    /// degenerate mux the binder emits when a resource has a single
    /// source. It burns a LUT to wire a net through; consumers can be
    /// rewired to its fanin.
    SingletonMux {
        /// The pass-through node's name.
        node: String,
    },
}

impl Violation {
    /// The severity grade of this violation.
    pub fn severity(&self) -> Severity {
        match self {
            Violation::Orphan { .. } | Violation::SingletonMux { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MultiplyDriven {
                name,
                first,
                second,
            } => write!(
                f,
                "net `{name}` multiply driven (nodes {first} and {second})"
            ),
            Violation::DanglingRef { node, target } => {
                write!(f, "`{node}` references missing node id {target}")
            }
            Violation::UndrivenLatch { node } => {
                write!(f, "latch `{node}` has no data driver")
            }
            Violation::ArityMismatch {
                node,
                fanins,
                table_inputs,
            } => write!(
                f,
                "`{node}` has {fanins} fanins but a {table_inputs}-input table"
            ),
            Violation::InitWordOutOfRange { node } => {
                write!(f, "`{node}` has LUT init bits beyond its row count")
            }
            Violation::CombinationalCycle { node } => {
                write!(f, "combinational cycle through `{node}`")
            }
            Violation::DuplicatePort { port } => {
                write!(f, "output port `{port}` declared twice")
            }
            Violation::BusWidthOverflow { bus, lanes } => write!(
                f,
                "output bus `{bus}` has {lanes} lanes (limit {MAX_BUS_WIDTH})"
            ),
            Violation::Orphan { node } => {
                write!(f, "`{node}` is unreachable from every output")
            }
            Violation::SingletonMux { node } => {
                write!(f, "`{node}` is a pass-through buffer (singleton mux)")
            }
        }
    }
}

/// Everything [`check_netlist`] found, in deterministic (id) order.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All findings, errors and warnings interleaved in discovery order
    /// (which is node-id order, so reports are deterministic).
    pub violations: Vec<Violation>,
    /// Number of nodes examined.
    pub checked_nodes: usize,
}

impl CheckReport {
    /// Count of [`Severity::Error`] findings.
    pub fn errors(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity() == Severity::Error)
            .count()
    }

    /// Count of [`Severity::Warning`] findings.
    pub fn warnings(&self) -> usize {
        self.violations.len() - self.errors()
    }

    /// True when no **error**-grade violation was found (warnings are
    /// hygiene, not corruption).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "ok: {} nodes checked", self.checked_nodes);
        }
        for v in &self.violations {
            writeln!(f, "{}: {v}", v.severity())?;
        }
        write!(
            f,
            "{} nodes checked: {} errors, {} warnings",
            self.checked_nodes,
            self.errors(),
            self.warnings()
        )
    }
}

/// Strips a trailing run of ASCII digits: the bus stem of a lane port
/// name (`s13` → `s`), or `None` if the name has no digit suffix.
fn bus_stem(port: &str) -> Option<&str> {
    let trimmed = port.trim_end_matches(|c: char| c.is_ascii_digit());
    if trimmed.len() == port.len() || trimmed.is_empty() {
        None
    } else {
        Some(trimmed)
    }
}

/// Runs every semantic check over `nl` and reports **all** findings.
///
/// Unlike [`Netlist::check`] this never stops at the first problem, and
/// it tolerates graphs no constructor can build (decoded from hostile
/// bytes via [`crate::graph::Netlist`] internals): every id is
/// range-checked before use and cycle detection is an iterative Kahn
/// peel, so no input can panic or overflow the stack.
///
/// # Examples
///
/// ```
/// use netlist::{check_netlist, Netlist, TruthTable};
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_logic("g", vec![a], TruthTable::inverter());
/// nl.mark_output("o", g);
/// let report = check_netlist(&nl);
/// assert!(report.is_clean());
/// ```
pub fn check_netlist(nl: &Netlist) -> CheckReport {
    let mut report = CheckReport {
        violations: Vec::new(),
        checked_nodes: nl.num_nodes(),
    };
    let n = nl.num_nodes() as u32;

    // Multiply-driven nets: two nodes with one name. Sort-based so the
    // scan is deterministic and allocation-bounded (no hash iteration).
    let mut by_name: Vec<(&str, NodeId)> = nl
        .nodes()
        .map(|(id, node)| (node.name.as_str(), id))
        .collect();
    by_name.sort();
    for pair in by_name.windows(2) {
        if pair[0].0 == pair[1].0 {
            report.violations.push(Violation::MultiplyDriven {
                name: pair[0].0.to_string(),
                first: pair[0].1,
                second: pair[1].1,
            });
        }
    }

    // Per-node structural checks. `dangling[id]` remembers nodes whose
    // references escape the table so cycle detection can skip the edges
    // it must not follow.
    for (_, node) in nl.nodes() {
        match &node.kind {
            NodeKind::Logic { fanins, table } => {
                if fanins.len() != table.num_inputs() {
                    report.violations.push(Violation::ArityMismatch {
                        node: node.name.clone(),
                        fanins: fanins.len(),
                        table_inputs: table.num_inputs(),
                    });
                }
                for f in fanins {
                    if f.0 >= n {
                        report.violations.push(Violation::DanglingRef {
                            node: node.name.clone(),
                            target: f.0,
                        });
                    }
                }
                // LUT init rows past 2^n must be zero. `TruthTable`
                // masks them on construction, so a finding here means
                // the table type's invariant was bypassed.
                let rows = 1usize << table.num_inputs().min(6);
                let tail = if rows >= 64 {
                    u64::MAX
                } else {
                    (1u64 << rows) - 1
                };
                if table
                    .words()
                    .first()
                    .is_some_and(|w| table.num_inputs() < 6 && w & !tail != 0)
                {
                    report.violations.push(Violation::InitWordOutOfRange {
                        node: node.name.clone(),
                    });
                }
                if fanins.len() == 1 && *table == TruthTable::buffer() {
                    report.violations.push(Violation::SingletonMux {
                        node: node.name.clone(),
                    });
                }
            }
            NodeKind::Latch { data, .. } => {
                if *data == UNCONNECTED {
                    report.violations.push(Violation::UndrivenLatch {
                        node: node.name.clone(),
                    });
                } else if data.0 >= n {
                    report.violations.push(Violation::DanglingRef {
                        node: node.name.clone(),
                        target: data.0,
                    });
                }
            }
            _ => {}
        }
    }

    // Output ports: in-range targets, unique names, bounded buses.
    let mut ports: Vec<&str> = Vec::with_capacity(nl.outputs().len());
    for (port, id) in nl.outputs() {
        if id.0 >= n {
            report.violations.push(Violation::DanglingRef {
                node: port.clone(),
                target: id.0,
            });
        }
        ports.push(port.as_str());
    }
    ports.sort_unstable();
    for pair in ports.windows(2) {
        if pair[0] == pair[1] {
            report.violations.push(Violation::DuplicatePort {
                port: pair[0].to_string(),
            });
        }
    }
    ports.dedup();
    let mut stems: Vec<&str> = ports.iter().copied().filter_map(bus_stem).collect();
    stems.sort_unstable();
    let mut i = 0;
    while i < stems.len() {
        let mut j = i + 1;
        while j < stems.len() && stems[j] == stems[i] {
            j += 1;
        }
        if j - i > MAX_BUS_WIDTH {
            report.violations.push(Violation::BusWidthOverflow {
                bus: stems[i].to_string(),
                lanes: j - i,
            });
        }
        i = j;
    }

    // Combinational cycles: iterative Kahn peel over the logic
    // subgraph, following only in-range fanin edges (dangling ids were
    // already reported above and must not index the degree arrays).
    let nodes = nl.num_nodes();
    let mut indeg = vec![0usize; nodes];
    let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
    for (id, node) in nl.nodes() {
        if let NodeKind::Logic { fanins, .. } = &node.kind {
            for f in fanins {
                if f.0 < n {
                    indeg[id.index()] += 1;
                    fanouts[f.index()].push(id);
                }
            }
        }
    }
    let mut queue: Vec<NodeId> = nl
        .nodes()
        .filter(|(id, _)| indeg[id.index()] == 0 || nl.is_source(*id))
        .map(|(id, _)| id)
        .collect();
    let mut peeled = vec![false; nodes];
    while let Some(id) = queue.pop() {
        if peeled[id.index()] {
            continue;
        }
        peeled[id.index()] = true;
        for &fo in &fanouts[id.index()] {
            // A source node never waits on its fanins (latch outputs
            // break combinational feedback), so only logic consumers
            // count down.
            if nl.is_source(fo) || peeled[fo.index()] {
                continue;
            }
            indeg[fo.index()] -= 1;
            if indeg[fo.index()] == 0 {
                queue.push(fo);
            }
        }
    }
    for (id, node) in nl.nodes() {
        if matches!(node.kind, NodeKind::Logic { .. }) && !peeled[id.index()] {
            report.violations.push(Violation::CombinationalCycle {
                node: node.name.clone(),
            });
        }
    }

    // Orphans: iterative backwards reachability from outputs, latches,
    // and input ports (the same liveness rule as `Netlist::sweep`, so a
    // swept netlist reports zero).
    let mut live = vec![false; nodes];
    let mut stack: Vec<NodeId> = Vec::new();
    for (_, id) in nl.outputs() {
        if id.0 < n {
            stack.push(*id);
        }
    }
    for &l in nl.latches() {
        stack.push(l);
    }
    for &i in nl.inputs() {
        stack.push(i);
    }
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        for f in nl.fanins(id) {
            if f.0 < n {
                stack.push(*f);
            }
        }
    }
    for (id, node) in nl.nodes() {
        if !live[id.index()] {
            report.violations.push(Violation::Orphan {
                node: node.name.clone(),
            });
        }
    }

    report
}

/// One mechanical repair derived from a [`Violation`].
///
/// Fixes name nodes by id against the netlist the plan was computed
/// from; applying a plan to any other netlist is a logic error (and is
/// why [`apply_fixes`] consumes plan and netlist together).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fix {
    /// Delete a node unreachable from every output, latch, and input.
    DropOrphan {
        /// The dead node.
        node: NodeId,
    },
    /// Replace every reference to a pass-through buffer with its fanin
    /// and delete the buffer.
    RewireSingletonMux {
        /// The pass-through node.
        node: NodeId,
        /// Its single fanin, which consumers are rewired to.
        to: NodeId,
    },
    /// Collapse two structurally identical drivers of one net: keep the
    /// first, redirect the second's consumers to it, delete the second.
    DedupeDrivers {
        /// The surviving driver.
        keep: NodeId,
        /// The redundant twin.
        drop: NodeId,
    },
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fix::DropOrphan { node } => write!(f, "drop orphan {node}"),
            Fix::RewireSingletonMux { node, to } => {
                write!(f, "rewire singleton mux {node} to {to}")
            }
            Fix::DedupeDrivers { keep, drop } => {
                write!(f, "dedupe driver {drop} into {keep}")
            }
        }
    }
}

/// What [`plan_fixes`] could and could not repair.
#[derive(Clone, Debug, Default)]
pub struct FixPlan {
    /// Repairs to apply, in report order.
    pub fixes: Vec<Fix>,
    /// Violations with no mechanical repair (cycles, dangling refs,
    /// arity mismatches, non-identical multiply-drivers, ...).
    pub unfixable: usize,
}

impl FixPlan {
    /// True when the plan repairs nothing.
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }
}

/// True when two nodes compute the same value given the same netlist
/// context — the only multiply-driven shape a fix may collapse.
fn drivers_identical(a: &Node, b: &Node) -> bool {
    a.kind == b.kind
}

/// Finds the node with this name by linear scan. The name index cannot
/// be used here: fix planning runs on netlists with duplicate names
/// (multiply-driven nets), which the index rejects.
fn find_by_name(nl: &Netlist, name: &str) -> Option<NodeId> {
    nl.nodes()
        .find(|(_, node)| node.name == name)
        .map(|(id, _)| id)
}

/// Derives the mechanical repairs for `report`'s violations against the
/// netlist it was computed from.
///
/// Fixable: warning-grade [`Violation::Orphan`] and
/// [`Violation::SingletonMux`], plus [`Violation::MultiplyDriven`] when
/// the two drivers are structurally identical. Everything else counts
/// toward [`FixPlan::unfixable`] — corruption has no mechanical repair.
pub fn plan_fixes(nl: &Netlist, report: &CheckReport) -> FixPlan {
    let n = nl.num_nodes() as u32;
    let mut plan = FixPlan::default();
    // Nodes a dedupe in this plan will keep. An orphan drop on a keeper
    // would strand the redirected consumers, so those drops are
    // deferred to the next pass (dedupe usually resolves them anyway:
    // redirected consumers make the keeper reachable).
    let mut keepers: Vec<NodeId> = report
        .violations
        .iter()
        .filter_map(|v| match v {
            Violation::MultiplyDriven { first, second, .. }
                if first.0 < n
                    && second.0 < n
                    && drivers_identical(nl.node(*first), nl.node(*second)) =>
            {
                Some(*first)
            }
            _ => None,
        })
        .collect();
    keepers.sort_unstable();
    for v in &report.violations {
        match v {
            Violation::Orphan { node } => match find_by_name(nl, node) {
                // Inputs and latches are seeded live by the orphan scan,
                // so a hit here is a duplicate-name misidentification —
                // never drop a port or a state bit on a name collision.
                Some(id)
                    if keepers.binary_search(&id).is_err()
                        && matches!(
                            nl.node(id).kind,
                            NodeKind::Logic { .. } | NodeKind::Constant(_)
                        ) =>
                {
                    plan.fixes.push(Fix::DropOrphan { node: id });
                }
                Some(_) => {}
                None => plan.unfixable += 1,
            },
            Violation::SingletonMux { node } => {
                let fix = find_by_name(nl, node).and_then(|id| match &nl.node(id).kind {
                    NodeKind::Logic { fanins, .. } if fanins.len() == 1 && fanins[0].0 < n => {
                        Some(Fix::RewireSingletonMux {
                            node: id,
                            to: fanins[0],
                        })
                    }
                    _ => None,
                });
                match fix {
                    Some(fix) => plan.fixes.push(fix),
                    None => plan.unfixable += 1,
                }
            }
            Violation::MultiplyDriven { first, second, .. }
                if first.0 < n
                    && second.0 < n
                    && drivers_identical(nl.node(*first), nl.node(*second)) =>
            {
                plan.fixes.push(Fix::DedupeDrivers {
                    keep: *first,
                    drop: *second,
                });
            }
            _ => plan.unfixable += 1,
        }
    }
    plan
}

/// Rebuilds `nl` with every fix in `plan` applied: dropped nodes
/// removed, redirected references (singleton-mux fanins, deduped
/// drivers) resolved transitively, and ids compacted.
///
/// Returns `None` when the plan cannot be applied soundly — a redirect
/// chain that loops (mutually pass-through muxes) or a surviving
/// reference to a dropped node. Callers fall back to quarantine; a
/// `None` here must never turn into a rewritten artifact.
pub fn apply_fixes(nl: &Netlist, plan: &FixPlan) -> Option<Netlist> {
    let n = nl.num_nodes();
    // Per-node disposition: `redirect[i]` sends i's consumers elsewhere,
    // `dropped[i]` removes the node itself.
    let mut redirect: Vec<Option<NodeId>> = vec![None; n];
    let mut dropped = vec![false; n];
    for fix in &plan.fixes {
        match fix {
            Fix::DropOrphan { node } => {
                if node.index() >= n {
                    return None;
                }
                dropped[node.index()] = true;
            }
            Fix::RewireSingletonMux { node, to }
            | Fix::DedupeDrivers {
                keep: to,
                drop: node,
            } => {
                if node.index() >= n || to.index() >= n {
                    return None;
                }
                redirect[node.index()] = Some(*to);
                dropped[node.index()] = true;
            }
        }
    }
    // Resolve redirect chains (mux feeding mux, deduped twin of a mux).
    // A chain longer than the node count is a loop: unsound, bail.
    let resolve = |mut id: NodeId| -> Option<NodeId> {
        let mut steps = 0usize;
        while let Some(next) = redirect[id.index()] {
            id = next;
            steps += 1;
            if steps > n {
                return None;
            }
        }
        if dropped[id.index()] {
            None
        } else {
            Some(id)
        }
    };
    // Compact surviving ids, preserving relative order (same contract as
    // `Netlist::sweep`, so fixed netlists stay deterministic).
    let mut remap: Vec<Option<NodeId>> = vec![None; n];
    let mut kept = 0u32;
    for i in 0..n {
        if !dropped[i] {
            remap[i] = Some(NodeId(kept));
            kept += 1;
        }
    }
    let map_ref = |id: NodeId| -> Option<NodeId> {
        if id.index() >= n {
            return None;
        }
        remap[resolve(id)?.index()]
    };
    let mut nodes = Vec::with_capacity(kept as usize);
    for (id, node) in nl.nodes() {
        if dropped[id.index()] {
            continue;
        }
        let kind = match &node.kind {
            NodeKind::Logic { fanins, table } => NodeKind::Logic {
                fanins: fanins
                    .iter()
                    .map(|f| map_ref(*f))
                    .collect::<Option<Vec<_>>>()?,
                table: table.clone(),
            },
            NodeKind::Latch { data, init } => NodeKind::Latch {
                data: map_ref(*data)?,
                init: *init,
            },
            other => other.clone(),
        };
        nodes.push(Node {
            name: node.name.clone(),
            kind,
        });
    }
    let inputs = nl
        .inputs()
        .iter()
        .filter(|i| i.index() < n && !dropped[i.index()])
        .map(|i| remap[i.index()])
        .collect::<Option<Vec<_>>>()?;
    let latches = nl
        .latches()
        .iter()
        .filter(|l| l.index() < n && !dropped[l.index()])
        .map(|l| remap[l.index()])
        .collect::<Option<Vec<_>>>()?;
    let outputs = nl
        .outputs()
        .iter()
        .map(|(port, id)| Some((port.clone(), map_ref(*id)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(Netlist::from_parts_unindexed(
        nl.name().to_string(),
        nodes,
        inputs,
        outputs,
        latches,
    ))
}

/// Result of [`fix_netlist`]'s repair loop.
#[derive(Debug)]
pub struct FixOutcome {
    /// The (possibly rebuilt) netlist.
    pub netlist: Netlist,
    /// Total fixes applied across all passes.
    pub applied: usize,
    /// Repair passes run (each pass re-checks from scratch).
    pub passes: usize,
    /// The final check report of `netlist`.
    pub report: CheckReport,
}

/// Bound on [`fix_netlist`] passes. Each pass strictly shrinks the node
/// count (every fix drops a node), so convergence is guaranteed; the
/// bound only caps pathological cascade depth per invocation.
const MAX_FIX_PASSES: usize = 8;

/// Repairs `nl` to a fixpoint: check, plan, apply, repeat — bounded by
/// [`MAX_FIX_PASSES`] — until no fix remains applicable. Fixes cascade
/// (deduping a driver can orphan its fanin cone; rewiring a mux can
/// expose another singleton), which is why one pass is not enough.
///
/// The caller decides what the final [`FixOutcome::report`] means:
/// `hlp check --fix` demands it comes back fully clean before any byte
/// is rewritten.
pub fn fix_netlist(nl: &Netlist) -> FixOutcome {
    let mut current = nl.clone();
    let mut applied = 0usize;
    let mut passes = 0usize;
    loop {
        let report = check_netlist(&current);
        let plan = plan_fixes(&current, &report);
        if plan.is_empty() || passes >= MAX_FIX_PASSES {
            return FixOutcome {
                netlist: current,
                applied,
                passes,
                report,
            };
        }
        match apply_fixes(&current, &plan) {
            Some(next) => {
                applied += plan.fixes.len();
                passes += 1;
                current = next;
            }
            None => {
                return FixOutcome {
                    netlist: current,
                    applied,
                    passes,
                    report,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Netlist, Node, NodeKind};
    use crate::truth::TruthTable;

    /// Assembles a netlist from raw parts, bypassing the builder's
    /// asserts — how hostile decoded graphs reach the checker.
    fn raw(nodes: Vec<Node>, outputs: Vec<(&str, u32)>) -> Netlist {
        let inputs = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Input))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let latches = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Latch { .. }))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        Netlist::from_parts_unindexed(
            "raw".to_string(),
            nodes,
            inputs,
            outputs
                .into_iter()
                .map(|(p, id)| (p.to_string(), NodeId(id)))
                .collect(),
            latches,
        )
    }

    fn input(name: &str) -> Node {
        Node {
            name: name.to_string(),
            kind: NodeKind::Input,
        }
    }

    fn logic(name: &str, fanins: Vec<u32>, table: TruthTable) -> Node {
        Node {
            name: name.to_string(),
            kind: NodeKind::Logic {
                fanins: fanins.into_iter().map(NodeId).collect(),
                table,
            },
        }
    }

    #[test]
    fn clean_netlist_reports_nothing() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_logic("g", vec![a, b], TruthTable::and(2));
        nl.mark_output("o", g);
        let r = check_netlist(&nl);
        assert!(r.violations.is_empty(), "{r}");
        assert!(r.is_clean());
        assert_eq!(r.checked_nodes, 3);
    }

    #[test]
    fn golden_combinational_loop() {
        // g1 -> g2 -> g1, both fed by input a.
        let nodes = vec![
            input("a"),
            logic("g1", vec![0, 2], TruthTable::and(2)),
            logic("g2", vec![1, 0], TruthTable::or(2)),
        ];
        let nl = raw(nodes, vec![("o", 2)]);
        let r = check_netlist(&nl);
        let cycles: Vec<_> = r
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::CombinationalCycle { .. }))
            .collect();
        assert_eq!(cycles.len(), 2, "both loop members flagged: {r}");
        assert!(!r.is_clean());
        // Exactly the expected kind — no collateral findings.
        assert!(r
            .violations
            .iter()
            .all(|v| matches!(v, Violation::CombinationalCycle { .. })));
    }

    #[test]
    fn golden_multiply_driven_net() {
        let nodes = vec![
            input("a"),
            logic("x", vec![0, 0], TruthTable::and(2)),
            logic("x", vec![0, 0], TruthTable::or(2)),
        ];
        let nl = raw(nodes, vec![("o", 1), ("p", 2)]);
        let r = check_netlist(&nl);
        assert_eq!(
            r.violations,
            vec![Violation::MultiplyDriven {
                name: "x".to_string(),
                first: NodeId(1),
                second: NodeId(2),
            }]
        );
    }

    #[test]
    fn golden_truncated_truth_table() {
        // Two fanins against a 1-input table: a truncated LUT init.
        let nodes = vec![
            input("a"),
            input("b"),
            logic("g", vec![0, 1], TruthTable::inverter()),
        ];
        let nl = raw(nodes, vec![("o", 2)]);
        let r = check_netlist(&nl);
        assert_eq!(
            r.violations,
            vec![Violation::ArityMismatch {
                node: "g".to_string(),
                fanins: 2,
                table_inputs: 1,
            }]
        );
    }

    #[test]
    fn dangling_ids_are_reported_not_panicked() {
        let nodes = vec![input("a"), logic("g", vec![0, 99], TruthTable::and(2))];
        let nl = raw(nodes, vec![("o", 1), ("ghost", 77)]);
        let r = check_netlist(&nl);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DanglingRef { target: 99, .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DanglingRef { target: 77, .. })));
        assert!(!r.is_clean());
    }

    #[test]
    fn undriven_latch_reported() {
        let mut nl = Netlist::new("u");
        nl.add_latch("q", false);
        nl.mark_output("o", NodeId(0));
        let r = check_netlist(&nl);
        assert_eq!(
            r.violations,
            vec![Violation::UndrivenLatch {
                node: "q".to_string()
            }]
        );
    }

    #[test]
    fn orphan_is_a_warning_not_an_error() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let live = nl.add_logic("live", vec![a], TruthTable::inverter());
        let _dead = nl.add_logic("dead", vec![a], TruthTable::inverter());
        nl.mark_output("o", live);
        let r = check_netlist(&nl);
        assert_eq!(
            r.violations,
            vec![Violation::Orphan {
                node: "dead".to_string()
            }]
        );
        assert!(r.is_clean(), "warnings must not fail the check");
        assert_eq!(r.warnings(), 1);
    }

    #[test]
    fn duplicate_port_and_bus_overflow() {
        let mut nl = Netlist::new("bus");
        let a = nl.add_input("a");
        for i in 0..(MAX_BUS_WIDTH + 1) {
            let g = nl.add_logic(format!("g{i}"), vec![a], TruthTable::buffer());
            nl.mark_output(format!("s{i}"), g);
        }
        nl.mark_output("dup", a);
        nl.mark_output("dup", a);
        let r = check_netlist(&nl);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicatePort { .. })));
        assert!(r.violations.iter().any(|v| matches!(
            v,
            Violation::BusWidthOverflow { bus, lanes } if bus == "s" && *lanes == MAX_BUS_WIDTH + 1
        )));
    }

    #[test]
    fn sixty_four_lane_bus_is_legal() {
        let mut nl = Netlist::new("bus64");
        let a = nl.add_input("a");
        for i in 0..MAX_BUS_WIDTH {
            let g = nl.add_logic(format!("g{i}"), vec![a], TruthTable::buffer());
            nl.mark_output(format!("s{i}"), g);
        }
        assert!(check_netlist(&nl).is_clean());
    }

    #[test]
    fn latch_feedback_is_not_a_cycle() {
        let mut nl = Netlist::new("toggle");
        let en = nl.add_input("en");
        let q = nl.add_latch("q", false);
        let d = nl.add_logic("d", vec![q, en], TruthTable::xor(2));
        nl.set_latch_data(q, d);
        nl.mark_output("out", q);
        let r = check_netlist(&nl);
        assert!(r.violations.is_empty(), "{r}");
    }

    #[test]
    fn checker_version_covers_every_violation_kind() {
        // Exhaustive on purpose: adding a `Violation` variant fails this
        // match at compile time — extend it AND bump `CHECKER_VERSION`
        // so persisted fsck watermarks invalidate fleet-wide.
        fn kind_ordinal(v: &Violation) -> u32 {
            match v {
                Violation::MultiplyDriven { .. } => 0,
                Violation::DanglingRef { .. } => 1,
                Violation::UndrivenLatch { .. } => 2,
                Violation::ArityMismatch { .. } => 3,
                Violation::InitWordOutOfRange { .. } => 4,
                Violation::CombinationalCycle { .. } => 5,
                Violation::DuplicatePort { .. } => 6,
                Violation::BusWidthOverflow { .. } => 7,
                Violation::Orphan { .. } => 8,
                Violation::SingletonMux { .. } => 9,
            }
        }
        assert_eq!(
            kind_ordinal(&Violation::SingletonMux {
                node: String::new()
            }),
            9,
            "10 violation kinds as of checker v2"
        );
        assert_eq!(CHECKER_VERSION, 2);
    }

    #[test]
    fn singleton_mux_is_flagged_and_rewired() {
        let mut nl = Netlist::new("mux1");
        let a = nl.add_input("a");
        let m = nl.add_logic("m", vec![a], TruthTable::buffer());
        let g = nl.add_logic("g", vec![m, a], TruthTable::and(2));
        nl.mark_output("o", g);
        let r = check_netlist(&nl);
        assert_eq!(
            r.violations,
            vec![Violation::SingletonMux {
                node: "m".to_string()
            }]
        );
        assert!(r.is_clean(), "singleton mux is hygiene, not corruption");

        let plan = plan_fixes(&nl, &r);
        assert_eq!(plan.fixes, vec![Fix::RewireSingletonMux { node: m, to: a }]);
        assert_eq!(plan.unfixable, 0);
        let fixed = apply_fixes(&nl, &plan).expect("plan applies");
        assert_eq!(fixed.num_logic(), 1, "the buffer is gone");
        let r2 = check_netlist(&fixed);
        assert!(r2.violations.is_empty(), "{r2}");
        // `g` survives with both fanins rewired to the input.
        let gid = fixed.find("g").unwrap();
        assert_eq!(fixed.fanins(gid), &[NodeId(0), NodeId(0)]);
    }

    #[test]
    fn identical_multiply_drivers_dedupe() {
        let nodes = vec![
            input("a"),
            logic("x", vec![0, 0], TruthTable::and(2)),
            logic("x", vec![0, 0], TruthTable::and(2)),
            logic("y", vec![2, 0], TruthTable::or(2)),
        ];
        let nl = raw(nodes, vec![("o", 1), ("p", 3)]);
        let r = check_netlist(&nl);
        assert!(!r.is_clean());
        let plan = plan_fixes(&nl, &r);
        assert_eq!(
            plan.fixes,
            vec![Fix::DedupeDrivers {
                keep: NodeId(1),
                drop: NodeId(2),
            }]
        );
        let fixed = apply_fixes(&nl, &plan).expect("identical twins dedupe");
        let r2 = check_netlist(&fixed);
        assert!(r2.violations.is_empty(), "{r2}");
        // `y` now reads the surviving driver; output `p` still works.
        let y = fixed.find("y").unwrap();
        assert_eq!(fixed.fanins(y)[0], fixed.find("x").unwrap());
    }

    #[test]
    fn differing_multiply_drivers_are_unfixable() {
        let nodes = vec![
            input("a"),
            logic("x", vec![0, 0], TruthTable::and(2)),
            logic("x", vec![0, 0], TruthTable::or(2)),
        ];
        let nl = raw(nodes, vec![("o", 1)]);
        let r = check_netlist(&nl);
        let plan = plan_fixes(&nl, &r);
        assert!(plan
            .fixes
            .iter()
            .all(|f| !matches!(f, Fix::DedupeDrivers { .. })));
        assert!(
            plan.unfixable >= 1,
            "conflicting drivers must not be collapsed"
        );
    }

    #[test]
    fn fix_loop_cascades_to_a_clean_netlist() {
        // Deduping x2 into x1 orphans x2's private fanin cone (m feeds
        // only x2); the orphan is only visible on the second pass.
        let nodes = vec![
            input("a"),
            logic("m", vec![0], TruthTable::buffer()),
            logic("x", vec![0, 0], TruthTable::and(2)),
            logic("x", vec![0, 0], TruthTable::and(2)),
            logic("z", vec![1, 3], TruthTable::or(2)),
        ];
        let nl = raw(nodes, vec![("o", 4)]);
        let out = fix_netlist(&nl);
        assert!(out.applied >= 2, "cascade applied {} fixes", out.applied);
        assert!(out.passes >= 1);
        assert!(out.report.violations.is_empty(), "{}", out.report);
        // Simulation semantics preserved: z = buffer(a) | and(a, a) = a.
        let fixed = out.netlist;
        assert!(fixed.find("z").is_some());
        assert_eq!(fixed.outputs().len(), 1);
        fixed
            .check()
            .expect("fixed netlist passes the strict check");
    }

    #[test]
    fn mutually_passthrough_muxes_refuse_to_apply() {
        // m1 and m2 buffer each other: a combinational loop of singleton
        // muxes. The redirect chain cycles, so apply_fixes must bail
        // rather than emit dangling references.
        let nodes = vec![
            input("a"),
            logic("m1", vec![2], TruthTable::buffer()),
            logic("m2", vec![1], TruthTable::buffer()),
        ];
        let nl = raw(nodes, vec![("o", 1)]);
        let r = check_netlist(&nl);
        let plan = plan_fixes(&nl, &r);
        if !plan.is_empty() {
            assert!(
                apply_fixes(&nl, &plan).is_none(),
                "cyclic rewire is unsound"
            );
        }
        // And the bounded loop terminates without panicking.
        let out = fix_netlist(&nl);
        assert!(out.passes <= 8);
    }

    #[test]
    fn orphan_fix_drops_only_dead_nodes() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let live = nl.add_logic("live", vec![a], TruthTable::inverter());
        let _dead = nl.add_logic("dead", vec![a], TruthTable::inverter());
        nl.mark_output("o", live);
        let out = fix_netlist(&nl);
        assert_eq!(out.applied, 1);
        assert!(out.report.violations.is_empty());
        assert!(out.netlist.find("dead").is_none());
        assert!(out.netlist.find("live").is_some());
        assert_eq!(out.netlist.inputs().len(), 1, "input ports never dropped");
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 200k-node inverter chain: a recursive DFS would blow the
        // stack; the iterative peel and sweep must not.
        let mut nl = Netlist::new("deep");
        let mut prev = nl.add_input("i");
        for k in 0..200_000u32 {
            prev = nl.add_logic(format!("n{k}"), vec![prev], TruthTable::inverter());
        }
        nl.mark_output("o", prev);
        assert!(check_netlist(&nl).violations.is_empty());
    }
}
