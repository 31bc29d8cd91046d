//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; the program under test is not
//! instrumented. Every span carries a name, start and end (nanoseconds
//! since the recorder was created), its parent span and the id of the
//! request it belongs to. Spans stay in memory until the run ends and
//! is written out with [`write_jsonl`].
//!
//! A layer's *self time* is its span's duration minus the union of the
//! intervals its child spans cover ([`self_times`]). [`breakdown`]
//! folds the self times under every root span of one name (a `job`) into
//! per-layer totals; whatever the root spends outside any child is
//! *unattributed*.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within its recorder, in creation order.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// The layer, e.g. `job`, `fubind`, `gatesim`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub req: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// `end_ns - start_ns` (zero for a span that ends before it starts).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last, as (recorder, span id).
    static OPEN: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn key(&self) -> usize {
        self as *const Recorder as usize
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The innermost span of this recorder still open on this thread.
    pub fn current(&self) -> Option<u64> {
        let key = self.key();
        OPEN.with(|open| {
            open.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|&(_, id)| id)
        })
    }

    /// Opens a span whose parent is the innermost span open on this
    /// thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        self.span_under(name, req, self.current())
    }

    /// Opens a span under an explicit parent, which may be open on
    /// another thread (a pass whose jobs run on worker threads).
    pub fn span_under(&self, name: &'static str, req: u64, parent: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push((self.key(), id)));
        SpanGuard {
            rec: self,
            id,
            parent,
            name,
            req,
            start_ns: self.now_ns(),
        }
    }

    /// Records an already closed span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Every closed span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// An open span; dropping it records the span.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The id the span will be recorded under.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        let key = self.rec.key();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&e| e == (key, self.id)) {
                open.remove(pos);
            }
        });
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            req: self.req,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id: its duration minus the union of the
/// intervals its direct children cover. Children on other threads may
/// overlap each other; the union counts shared time once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Spans grouped by request id, each group in id order.
pub fn by_request(spans: &[Span]) -> BTreeMap<u64, Vec<Span>> {
    let mut groups: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        groups.entry(s.req).or_default().push(s.clone());
    }
    for group in groups.values_mut() {
        group.sort_by_key(|s| s.id);
    }
    groups
}

/// Where the time of every root span of one name went.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Number of root spans.
    pub roots: u64,
    /// Summed duration of the root spans.
    pub root_ns: u64,
    /// Summed self time of every descendant, by layer name.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of every descendant, by layer name.
    pub layer_total_ns: BTreeMap<&'static str, u64>,
    /// Summed self time of the roots: time inside no layer.
    pub unattributed_ns: u64,
}

impl Breakdown {
    /// Summed self time of all layers.
    pub fn attributed_ns(&self) -> u64 {
        self.layer_self_ns.values().sum()
    }

    /// `layer`'s self time as a percentage of the roots' duration.
    pub fn share_pct(&self, layer: &str) -> f64 {
        pct(
            self.layer_self_ns.get(layer).copied().unwrap_or(0),
            self.root_ns,
        )
    }

    /// Unattributed time as a percentage of the roots' duration.
    pub fn unattributed_pct(&self) -> f64 {
        pct(self.unattributed_ns, self.root_ns)
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Folds the spans under every root named `root` into per-layer totals.
/// When a root's descendants do not overlap one another (one thread),
/// `attributed_ns() + unattributed_ns == root_ns` exactly.
pub fn breakdown(spans: &[Span], root: &str) -> Breakdown {
    fn under_root<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span, root: &str) -> bool {
        while let Some(parent) = s.parent.and_then(|p| by_id.get(&p).copied()) {
            if parent.name == root {
                return true;
            }
            s = parent;
        }
        false
    }
    // All spans of one job carry its request id, so each request's
    // spans are folded on their own.
    let mut out = Breakdown::default();
    for group in by_request(spans).values() {
        let selfs = self_times(group);
        let by_id: BTreeMap<u64, &Span> = group.iter().map(|s| (s.id, s)).collect();
        for s in group {
            if s.name == root {
                out.roots += 1;
                out.root_ns += s.duration_ns();
                out.unattributed_ns += selfs[&s.id];
            } else if under_root(&by_id, s, root) {
                *out.layer_self_ns.entry(s.name).or_default() += selfs[&s.id];
                *out.layer_total_ns.entry(s.name).or_default() += s.duration_ns();
            }
        }
    }
    out
}

/// Writes one JSON object per span and line, in id order.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
