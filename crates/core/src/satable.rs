//! Switching-activity precalculation for partial datapaths (paper
//! Section 5.2.2, Figure 2).
//!
//! An edge weight in HLPower's bipartite graph needs the glitch-aware SA
//! of the *partial datapath* a merge would create: the two input
//! multiplexers plus the functional unit. This module generates exactly
//! those netlists (the Figure 2 construction), maps them to 4-LUTs, runs
//! the glitch-aware estimator, and memoizes the result keyed by
//! `(FU type, mux size A, mux size B)` — the paper's precalculated hash
//! table, including its text-file persistence format. Dynamic (uncached)
//! estimation is kept for the equivalence/runtime ablation the paper
//! reports ("the same results ... but with a much shorter run time").
//!
//! Beyond the paper's estimator, [`SaMode::Simulated`] trains table
//! entries by *measuring* each partial datapath with the multi-word slab
//! unit-delay simulator ([`gatesim::SlabSim`]): 256 independent vector
//! lanes per activity-gated event-wheel pass make simulation cheap
//! enough to use as a ground-truth training source ([`simulate_sa`]).

use activity::{analyze_zero_delay, ActivityConfig, ZeroDelayModel};
use cdfg::FuType;
use mapper::{map, MapConfig, MapObjective};
use netlist::{binio, cells, Netlist};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Builds the gate-level partial datapath of Figure 2: an `mux_a`-input
/// word multiplexer into port A, an `mux_b`-input word multiplexer into
/// port B, and the functional unit. Mux sizes of 1 mean the port is fed
/// directly. The adder/subtractor includes its `mode` control input.
///
/// # Panics
///
/// Panics if `width == 0` or a mux size is 0.
pub fn partial_datapath(fu: FuType, mux_a: usize, mux_b: usize, width: usize) -> Netlist {
    assert!(width > 0 && mux_a > 0 && mux_b > 0);
    let mut nl = Netlist::new(format!("{fu}_{mux_a}_{mux_b}"));
    let port = |nl: &mut Netlist, tag: &str, n: usize| -> Vec<cells::Bus> {
        (0..n)
            .map(|k| {
                (0..width)
                    .map(|i| nl.add_input(format!("{tag}{k}_{i}")))
                    .collect()
            })
            .collect()
    };
    let a_words = port(&mut nl, "a", mux_a);
    let b_words = port(&mut nl, "b", mux_b);
    let sa: Vec<_> = (0..cells::mux_select_bits(mux_a))
        .map(|i| nl.add_input(format!("sa{i}")))
        .collect();
    let sb: Vec<_> = (0..cells::mux_select_bits(mux_b))
        .map(|i| nl.add_input(format!("sb{i}")))
        .collect();
    let a = cells::mux_tree(&mut nl, "muxa", &sa, &a_words);
    let b = cells::mux_tree(&mut nl, "muxb", &sb, &b_words);
    let out = match fu {
        FuType::AddSub => {
            let mode = nl.add_input("mode");
            cells::addsub(&mut nl, "fu", &a, &b, mode)
        }
        FuType::Mul => cells::array_multiplier(&mut nl, "fu", &a, &b),
    };
    for (i, o) in out.iter().enumerate() {
        nl.mark_output(format!("o{i}"), *o);
    }
    nl
}

/// Computes the estimated switching activity of one partial datapath:
/// technology-map to K-LUTs, then run the estimator. With
/// `glitch_aware = false` the zero-delay Chou–Roy estimate is used
/// instead (the ablation baseline).
pub fn compute_sa(
    fu: FuType,
    mux_a: usize,
    mux_b: usize,
    width: usize,
    k: usize,
    glitch_aware: bool,
) -> f64 {
    let nl = partial_datapath(fu, mux_a, mux_b, width);
    let mapped = map(&nl, &MapConfig::new(k, MapObjective::GlitchSa));
    if glitch_aware {
        mapped.stats.estimated_sa
    } else {
        analyze_zero_delay(
            &mapped.netlist,
            &ActivityConfig::uniform(),
            ZeroDelayModel::ChouRoy,
        )
        .total_sa
    }
}

/// Clock cycles per lane in one [`SaMode::Simulated`] training run.
pub const SIM_TRAIN_STEPS: u64 = 64;
/// Slab lanes per training run: `SIM_TRAIN_STEPS × SIM_TRAIN_LANES`
/// random vectors are simulated per table entry in `SIM_TRAIN_STEPS`
/// activity-gated event-wheel passes of the multi-word slab engine
/// ([`gatesim::SlabSim`], 4 words per node at 256 lanes).
pub const SIM_TRAIN_LANES: usize = 256;
/// Fixed vector seed of the training runs — part of the table's identity
/// (two tables trained with the same constants are bit-identical).
pub const SIM_TRAIN_SEED: u64 = 0x5A7AB1E;

/// The *simulated* switching activity of one partial datapath: map to
/// K-LUTs, then measure mean transitions per node-cycle with the
/// multi-word slab unit-delay simulator ([`gatesim::SlabSim`]) under
/// uniform random stimulus — the measurement the paper's estimator
/// approximates, made affordable as a training source by bit-slicing
/// ([`SIM_TRAIN_LANES`] vector streams per event-wheel pass).
///
/// The returned value is on the same scale as [`compute_sa`]: total SA,
/// i.e. transitions per clock cycle summed over all nets.
pub fn simulate_sa(fu: FuType, mux_a: usize, mux_b: usize, width: usize, k: usize) -> f64 {
    let nl = partial_datapath(fu, mux_a, mux_b, width);
    let mapped = map(&nl, &MapConfig::new(k, MapObjective::GlitchSa));
    let stats = gatesim::run_random_slab(
        &mapped.netlist,
        SIM_TRAIN_STEPS,
        SIM_TRAIN_SEED,
        SIM_TRAIN_LANES,
    );
    stats.total_transitions as f64 / stats.cycles as f64
}

/// One table entry for `mode`: the estimator for the analytic modes, the
/// bit-sliced slab simulator for [`SaMode::Simulated`]. [`SaMode::Dynamic`]
/// recomputes the same glitch-aware estimate as [`SaMode::Precalculated`].
fn compute_for_mode(
    mode: SaMode,
    fu: FuType,
    mux_a: usize,
    mux_b: usize,
    width: usize,
    k: usize,
) -> f64 {
    match mode {
        SaMode::Precalculated | SaMode::Dynamic => compute_sa(fu, mux_a, mux_b, width, k, true),
        SaMode::ZeroDelayAblation => compute_sa(fu, mux_a, mux_b, width, k, false),
        SaMode::Simulated => simulate_sa(fu, mux_a, mux_b, width, k),
    }
}

/// How edge-weight SA values are obtained during binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaMode {
    /// Memoized lookups backed by on-demand computation (the paper's
    /// precalculated hash table).
    Precalculated,
    /// Recompute the partial-datapath estimate on every query (the paper's
    /// "dynamic SA estimation" comparison point).
    Dynamic,
    /// Zero-delay (glitch-blind) estimates — ablation of the glitch model.
    ZeroDelayAblation,
    /// Entries *measured* by unit-delay simulation of the partial
    /// datapath on the bit-sliced [`gatesim::SlabSim`] engine
    /// ([`simulate_sa`], [`SIM_TRAIN_LANES`] lanes per run) instead of the
    /// analytic estimator — ground-truth training made affordable by
    /// bit-slicing.
    Simulated,
}

/// A source of partial-datapath SA estimates for Eq. 4 edge weights.
///
/// Implemented by the single-threaded [`SaTable`], by
/// [`SharedSaRef`] (a handle onto the cross-job [`SharedSaTable`]
/// cache), and by counting adapters inside the flow. Binders take
/// `&mut impl SaSource`, so the same algorithm runs against a private
/// memo or a cache pooled across concurrent pipeline jobs.
pub trait SaSource {
    /// The estimated SA of the `(fu, mux_a, mux_b)` partial datapath.
    fn sa(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64;
}

impl SaSource for SaTable {
    fn sa(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        self.get(fu, mux_a, mux_b)
    }
}

/// Memoized switching-activity table.
///
/// # Examples
///
/// ```
/// use cdfg::FuType;
/// use hlpower::satable::SaTable;
/// let mut t = SaTable::new(4, 4);
/// let sa21 = t.get(FuType::AddSub, 2, 1);
/// let sa22 = t.get(FuType::AddSub, 2, 2);
/// assert!(sa22 > sa21, "more mux inputs switch more");
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SaTable {
    width: usize,
    k: usize,
    mode: SaMode,
    entries: HashMap<(FuType, u32, u32), f64>,
    queries: u64,
    misses: u64,
}

impl SaTable {
    /// Creates an empty table for a datapath `width` and LUT size `k`.
    pub fn new(width: usize, k: usize) -> Self {
        SaTable {
            width,
            k,
            mode: SaMode::Precalculated,
            entries: HashMap::new(),
            queries: 0,
            misses: 0,
        }
    }

    /// Sets the estimation mode (see [`SaMode`]).
    pub fn with_mode(mut self, mode: SaMode) -> Self {
        self.mode = mode;
        self
    }

    /// Datapath width of the modeled partial datapaths.
    pub fn width(&self) -> usize {
        self.width
    }

    /// LUT size the partial datapaths were mapped to.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(queries, cache misses)` counters for the precalc-vs-dynamic
    /// runtime comparison.
    pub fn counters(&self) -> (u64, u64) {
        (self.queries, self.misses)
    }

    /// The estimated SA of the `(fu, mux_a, mux_b)` partial datapath.
    pub fn get(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        self.queries += 1;
        let key = key(fu, mux_a, mux_b);
        match self.mode {
            SaMode::Dynamic => {
                self.misses += 1;
                compute_sa(fu, mux_a, mux_b, self.width, self.k, true)
            }
            mode => {
                let (width, k) = (self.width, self.k);
                let misses = &mut self.misses;
                *self.entries.entry(key).or_insert_with(|| {
                    *misses += 1;
                    compute_for_mode(mode, fu, mux_a, mux_b, width, k)
                })
            }
        }
    }

    /// The memoized value for `(fu, mux_a, mux_b)`, if present. Does not
    /// compute on miss and does not touch the query counters.
    pub fn lookup(&self, fu: FuType, mux_a: usize, mux_b: usize) -> Option<f64> {
        self.entries.get(&key(fu, mux_a, mux_b)).copied()
    }

    /// Stores a value for `(fu, mux_a, mux_b)`, replacing any previous
    /// entry. Used to seed a table from persisted or shared caches.
    pub fn insert(&mut self, fu: FuType, mux_a: usize, mux_b: usize, sa: f64) {
        self.entries.insert(key(fu, mux_a, mux_b), sa);
    }

    /// Iterates over all memoized entries as `(fu, mux_a, mux_b, sa)`.
    pub fn entries(&self) -> impl Iterator<Item = (FuType, usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|(&(fu, a, b), &sa)| (fu, a as usize, b as usize, sa))
    }

    /// Precomputes all entries with mux sizes up to `max_size` (the
    /// paper's offline generation pass).
    pub fn precompute(&mut self, max_size: usize) {
        for fu in FuType::ALL {
            for a in 1..=max_size {
                for b in 1..=max_size {
                    self.get(fu, a, b);
                }
            }
        }
    }

    /// The estimation mode the entries were computed under.
    pub fn mode(&self) -> SaMode {
        self.mode
    }

    /// Serializes the table to the text format the paper stores on disk.
    /// The header records width, LUT size, and estimation mode so loads
    /// can refuse incompatible tables. Values use Rust's shortest
    /// round-trip `f64` formatting, so a persisted table reloads
    /// **bit-exactly** — a binder seeded from disk makes the same merge
    /// decisions as the run that wrote the file (the artifact store's
    /// cold-vs-warm byte-identity depends on this).
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|(&(fu, a, b), &sa)| format!("{fu} {a} {b} {sa}"))
            .collect();
        lines.sort();
        format!(
            "# hlpower SA table width={} k={} mode={}\n{}\n",
            self.width,
            self.k,
            mode_name(self.mode),
            lines.join("\n")
        )
    }

    /// Parses a table saved with [`SaTable::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, SaTableParseError> {
        let mut width = 16;
        let mut k = 4;
        let mut mode = SaMode::Precalculated;
        let mut entries = HashMap::new();
        for (ln0, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                for tok in rest.split_whitespace() {
                    if let Some(w) = tok.strip_prefix("width=") {
                        width = w.parse().map_err(|_| SaTableParseError(ln0 + 1))?;
                    }
                    if let Some(kk) = tok.strip_prefix("k=") {
                        k = kk.parse().map_err(|_| SaTableParseError(ln0 + 1))?;
                    }
                    if let Some(m) = tok.strip_prefix("mode=") {
                        mode = mode_from_name(m).ok_or(SaTableParseError(ln0 + 1))?;
                    }
                }
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != 4 {
                return Err(SaTableParseError(ln0 + 1));
            }
            let fu = match toks[0] {
                "addsub" => FuType::AddSub,
                "mult" => FuType::Mul,
                _ => return Err(SaTableParseError(ln0 + 1)),
            };
            let a: u32 = toks[1].parse().map_err(|_| SaTableParseError(ln0 + 1))?;
            let b: u32 = toks[2].parse().map_err(|_| SaTableParseError(ln0 + 1))?;
            let sa: f64 = toks[3].parse().map_err(|_| SaTableParseError(ln0 + 1))?;
            entries.insert((fu, a, b), sa);
        }
        Ok(SaTable {
            width,
            k,
            mode,
            entries,
            queries: 0,
            misses: 0,
        })
    }

    /// Serializes the table as an `hlpbin v1` `"satb"` container — the
    /// store's hot-path shard format. Entries are sorted by key, so like
    /// [`SaTable::to_text`] the output is a pure function of the table's
    /// contents, and values are stored as raw `f64` bits, so a persisted
    /// table reloads **bit-exactly** (the cold-vs-warm byte-identity of
    /// the artifact store depends on this).
    pub fn to_bin(&self) -> Vec<u8> {
        let mut w = binio::BinWriter::new(binio::KIND_SA_TABLE, SA_TABLE_VERSION);

        let mut header = Vec::new();
        header.extend_from_slice(&(self.width as u64).to_le_bytes());
        header.extend_from_slice(&(self.k as u64).to_le_bytes());
        binio::put_str(&mut header, mode_name(self.mode));
        header.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        w.section(&header);

        let mut sorted: Vec<(u32, u32, u32, u64)> = self
            .entries
            .iter()
            .map(|(&(fu, a, b), &sa)| (fu_tag(fu), a, b, sa.to_bits()))
            .collect();
        sorted.sort_unstable();
        let mut body = Vec::with_capacity(sorted.len() * 20);
        for (tag, a, b, bits) in sorted {
            body.extend_from_slice(&tag.to_le_bytes());
            body.extend_from_slice(&a.to_le_bytes());
            body.extend_from_slice(&b.to_le_bytes());
            body.extend_from_slice(&bits.to_le_bytes());
        }
        w.section(&body);

        w.finish()
    }

    /// Parses a table saved with [`SaTable::to_bin`].
    ///
    /// # Errors
    ///
    /// Any container or payload defect is a [`netlist::BinError`]; the
    /// artifact store treats them all as cache misses.
    pub fn from_bin(data: &[u8]) -> Result<Self, netlist::BinError> {
        use netlist::BinError;
        let r = binio::BinReader::open(data, binio::KIND_SA_TABLE, SA_TABLE_VERSION)?;

        let mut header = binio::Cursor::new(r.section(0)?);
        let width = header.read_len()?;
        let k = header.read_len()?;
        let mode = mode_from_name(&header.str()?)
            .ok_or_else(|| BinError::Malformed("unknown SA mode".to_string()))?;
        let count = header.read_len()?;
        if !header.done() {
            return Err(BinError::Malformed(
                "trailing bytes after SA table header".to_string(),
            ));
        }

        let mut entries = HashMap::with_capacity(count);
        let mut body = binio::Cursor::new(r.section(1)?);
        for _ in 0..count {
            let fu = fu_from_tag(body.u32()?)
                .ok_or_else(|| BinError::Malformed("unknown FU tag".to_string()))?;
            let a = body.u32()?;
            let b = body.u32()?;
            let sa = f64::from_bits(body.u64()?);
            entries.insert((fu, a, b), sa);
        }
        if !body.done() {
            return Err(BinError::Malformed(
                "trailing bytes after SA entries".to_string(),
            ));
        }
        if entries.len() != count {
            return Err(BinError::Malformed("duplicate SA entry key".to_string()));
        }
        Ok(SaTable {
            width,
            k,
            mode,
            entries,
            queries: 0,
            misses: 0,
        })
    }
}

/// Version of the binary SA shard encoding (the `"satb"` payload).
pub const SA_TABLE_VERSION: u32 = 1;

/// Wire tag of an FU type inside a `"satb"` container.
fn fu_tag(fu: FuType) -> u32 {
    match fu {
        FuType::AddSub => 0,
        FuType::Mul => 1,
    }
}

fn fu_from_tag(tag: u32) -> Option<FuType> {
    match tag {
        0 => Some(FuType::AddSub),
        1 => Some(FuType::Mul),
        _ => None,
    }
}

fn mode_name(mode: SaMode) -> &'static str {
    match mode {
        SaMode::Precalculated => "precalculated",
        SaMode::Dynamic => "dynamic",
        SaMode::ZeroDelayAblation => "zero-delay",
        SaMode::Simulated => "simulated",
    }
}

fn mode_from_name(name: &str) -> Option<SaMode> {
    match name {
        "precalculated" => Some(SaMode::Precalculated),
        "dynamic" => Some(SaMode::Dynamic),
        "zero-delay" => Some(SaMode::ZeroDelayAblation),
        "simulated" => Some(SaMode::Simulated),
        _ => None,
    }
}

impl SaMode {
    /// Parses the persistence-format name of a mode (`precalculated`,
    /// `dynamic`, `zero-delay`, or `simulated`).
    pub fn parse(name: &str) -> Option<SaMode> {
        mode_from_name(name)
    }

    /// The persistence-format name of this mode.
    pub fn name(&self) -> &'static str {
        mode_name(*self)
    }
}

fn key(fu: FuType, mux_a: usize, mux_b: usize) -> (FuType, u32, u32) {
    // Regression: this used to clamp with `.min(u16::MAX as usize) as
    // u16`, silently aliasing every mux wider than 65535 pins onto the
    // 65535 entry (and its SA estimate). Widened to u32 and made loud.
    let a = u32::try_from(mux_a).expect("mux pin count exceeds u32 SA key range");
    let b = u32::try_from(mux_b).expect("mux pin count exceeds u32 SA key range");
    (fu, a, b)
}

/// Thread-safe SA memo shared by concurrent pipeline jobs.
///
/// The paper precomputes its SA hash table once and reuses it for every
/// benchmark; this is the concurrent analogue — all HLPower jobs running
/// under one [`crate::pipeline::Pipeline`] pool their partial-datapath
/// estimates, so a `(fu, mux_a, mux_b)` shape is mapped, simulated, and
/// estimated at most once per run no matter how many benchmark × binder
/// jobs query it.
///
/// Lookups take a read lock; a miss computes **outside** any lock (the
/// expensive map-and-estimate step runs concurrently) and then inserts
/// under a short write lock. [`compute_sa`] is deterministic, so racing
/// computations of the same key insert identical values and results never
/// depend on job interleaving.
///
/// # Examples
///
/// ```
/// use cdfg::FuType;
/// use hlpower::satable::SharedSaTable;
/// let t = SharedSaTable::new(4, 4);
/// let a = t.get(FuType::AddSub, 2, 2);
/// let b = t.get(FuType::AddSub, 2, 2);
/// assert_eq!(a, b);
/// assert_eq!(t.counters(), (2, 1), "second query hits the cache");
/// ```
#[derive(Debug)]
pub struct SharedSaTable {
    width: usize,
    k: usize,
    mode: SaMode,
    entries: RwLock<HashMap<(FuType, u32, u32), f64>>,
    queries: AtomicU64,
    misses: AtomicU64,
}

impl SharedSaTable {
    /// Creates an empty shared table for a datapath `width` and LUT size
    /// `k`.
    pub fn new(width: usize, k: usize) -> Self {
        SharedSaTable {
            width,
            k,
            mode: SaMode::Precalculated,
            entries: RwLock::new(HashMap::new()),
            queries: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Sets the estimation mode (see [`SaMode`]).
    pub fn with_mode(mut self, mode: SaMode) -> Self {
        self.mode = mode;
        self
    }

    /// Wraps the contents of a single-threaded table (e.g. one loaded
    /// from disk with [`SaTable::from_text`]).
    pub fn from_table(table: &SaTable) -> Self {
        let shared = SharedSaTable::new(table.width, table.k).with_mode(table.mode);
        shared
            .absorb(table)
            .expect("same width/k/mode by construction");
        shared
    }

    /// Datapath width of the modeled partial datapaths.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The estimation mode of this cache.
    pub fn mode(&self) -> SaMode {
        self.mode
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.entries.read().expect("sa table lock").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(queries, cache misses)` counters across all jobs.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The estimated SA of the `(fu, mux_a, mux_b)` partial datapath.
    pub fn get(&self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let key = key(fu, mux_a, mux_b);
        if self.mode == SaMode::Dynamic {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return compute_sa(fu, mux_a, mux_b, self.width, self.k, true);
        }
        if let Some(&sa) = self.entries.read().expect("sa table lock").get(&key) {
            return sa;
        }
        // Compute outside the lock; a concurrent miss on the same key
        // computes the identical value (both the estimator and the
        // fixed-seed simulated trainer are deterministic), so
        // first-write-wins is fine.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sa = compute_for_mode(self.mode, fu, mux_a, mux_b, self.width, self.k);
        *self
            .entries
            .write()
            .expect("sa table lock")
            .entry(key)
            .or_insert(sa)
    }

    /// Copies all entries from a single-threaded table into the cache
    /// (pre-seeding from a persisted table). Existing entries win, and
    /// the returned [`AbsorbStats`] reports exactly what happened:
    /// how many entries were newly inserted, how many already matched
    /// (within the text persistence precision), and how many
    /// **conflicted** — same key, materially different estimate. A
    /// conflict means two tables claim different SA values for the same
    /// partial-datapath shape; callers should surface the count as a
    /// warning rather than let one side win silently.
    ///
    /// # Errors
    ///
    /// Refuses tables whose width, LUT size, or estimation mode differ
    /// from this cache's — mixing estimates from incompatible models
    /// would silently change Eq. 4 edge weights and break run-to-run
    /// reproducibility.
    pub fn absorb(&self, table: &SaTable) -> Result<AbsorbStats, SaTableMismatch> {
        if table.width != self.width || table.k != self.k || table.mode != self.mode {
            return Err(SaTableMismatch {
                expected: (self.width, self.k, self.mode),
                found: (table.width, table.k, table.mode),
            });
        }
        let mut entries = self.entries.write().expect("sa table lock");
        let mut stats = AbsorbStats::default();
        for (&k, &sa) in &table.entries {
            match entries.entry(k) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(sa);
                    stats.inserted += 1;
                }
                std::collections::hash_map::Entry::Occupied(slot) => {
                    if (slot.get() - sa).abs() <= ABSORB_TOLERANCE {
                        stats.matched += 1;
                    } else {
                        stats.conflicting += 1;
                    }
                }
            }
        }
        Ok(stats)
    }

    /// A point-in-time copy as a single-threaded [`SaTable`] — the bridge
    /// to [`SaTable::to_text`] persistence.
    pub fn snapshot(&self) -> SaTable {
        let (queries, misses) = self.counters();
        SaTable {
            width: self.width,
            k: self.k,
            mode: self.mode,
            entries: self.entries.read().expect("sa table lock").clone(),
            queries,
            misses,
        }
    }

    /// A [`SaSource`] handle usable wherever a binder wants `&mut impl
    /// SaSource`.
    pub fn handle(&self) -> SharedSaRef<'_> {
        SharedSaRef(self)
    }
}

/// Borrowed [`SaSource`] view of a [`SharedSaTable`].
#[derive(Clone, Copy, Debug)]
pub struct SharedSaRef<'a>(pub &'a SharedSaTable);

impl SaSource for SharedSaRef<'_> {
    fn sa(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        self.0.get(fu, mux_a, mux_b)
    }
}

/// Agreement tolerance for [`SharedSaTable::absorb`]. Tables written by
/// the current [`SaTable::to_text`] reload bit-exactly (shortest
/// round-trip formatting), but tables persisted by earlier releases were
/// rounded to six decimal places, so entries re-loaded from such legacy
/// files may differ from freshly computed values by up to half an ulp of
/// that rounding. Anything larger than this margin is a genuine conflict
/// between two estimate sources, not persistence noise.
pub const ABSORB_TOLERANCE: f64 = 5e-6;

/// What [`SharedSaTable::absorb`] did with each offered entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsorbStats {
    /// Entries newly inserted into the cache.
    pub inserted: usize,
    /// Entries the cache already held with an agreeing value.
    pub matched: usize,
    /// Entries the cache already held with a **different** value (the
    /// cache's value was kept; callers should warn).
    pub conflicting: usize,
}

impl AbsorbStats {
    /// Total entries offered.
    pub fn total(&self) -> usize {
        self.inserted + self.matched + self.conflicting
    }
}

impl fmt::Display for AbsorbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} inserted, {} matched, {} conflicting",
            self.inserted, self.matched, self.conflicting
        )
    }
}

/// Rejection of an incompatible table in [`SharedSaTable::absorb`]:
/// `(width, k, mode)` expected by the cache vs found in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaTableMismatch {
    /// The cache's `(width, k, mode)`.
    pub expected: (usize, usize, SaMode),
    /// The offered table's `(width, k, mode)`.
    pub found: (usize, usize, SaMode),
}

impl fmt::Display for SaTableMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incompatible SA table: cache is width={} k={} mode={}, table is width={} k={} mode={}",
            self.expected.0,
            self.expected.1,
            mode_name(self.expected.2),
            self.found.0,
            self.found.1,
            mode_name(self.found.2),
        )
    }
}

impl std::error::Error for SaTableMismatch {}

/// Parse error for [`SaTable::from_text`] (1-based line number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaTableParseError(pub usize);

impl fmt::Display for SaTableParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed SA table line {}", self.0)
    }
}

impl std::error::Error for SaTableParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gatesim::Evaluator;

    #[test]
    fn partial_datapath_structure() {
        let nl = partial_datapath(FuType::Mul, 3, 2, 4);
        nl.check().unwrap();
        // 3 + 2 words of 4 bits + 2 + 1 select bits
        assert_eq!(nl.inputs().len(), 5 * 4 + 3);
        assert_eq!(nl.outputs().len(), 4);
        let addsub = partial_datapath(FuType::AddSub, 2, 2, 4);
        // 4 words + 1 + 1 selects + mode
        assert_eq!(addsub.inputs().len(), 4 * 4 + 3);
    }

    #[test]
    fn partial_datapath_computes_selected_product() {
        let width = 4;
        let nl = partial_datapath(FuType::Mul, 2, 2, width);
        let mut ev = Evaluator::new(&nl);
        // word values: a0=3, a1=5, b0=2, b1=7
        let vals = [("a0", 3u64), ("a1", 5), ("b0", 2), ("b1", 7)];
        for (tag, v) in vals {
            let bits: Vec<_> = (0..width)
                .map(|i| nl.find(&format!("{tag}_{i}")).unwrap())
                .collect();
            ev.set_word(&bits, v);
        }
        let sa0 = nl.find("sa0").unwrap();
        let sb0 = nl.find("sb0").unwrap();
        let outs: Vec<_> = (0..width).map(|i| nl.outputs()[i].1).collect();
        for (sa, sb, want) in [
            (false, false, 3 * 2),
            (true, false, 5 * 2),
            (false, true, 3 * 7 % 16),
            (true, true, 5 * 7 % 16),
        ] {
            ev.set_input(sa0, sa);
            ev.set_input(sb0, sb);
            ev.settle();
            assert_eq!(ev.word(&outs), want as u64, "sa={sa} sb={sb}");
        }
    }

    #[test]
    fn addsub_partial_datapath_mode() {
        let width = 4;
        let nl = partial_datapath(FuType::AddSub, 1, 1, width);
        let mut ev = Evaluator::new(&nl);
        for (tag, v) in [("a0", 9u64), ("b0", 3)] {
            let bits: Vec<_> = (0..width)
                .map(|i| nl.find(&format!("{tag}_{i}")).unwrap())
                .collect();
            ev.set_word(&bits, v);
        }
        let mode = nl.find("mode").unwrap();
        let outs: Vec<_> = (0..width).map(|i| nl.outputs()[i].1).collect();
        ev.set_input(mode, false);
        ev.settle();
        assert_eq!(ev.word(&outs), 12);
        ev.set_input(mode, true);
        ev.settle();
        assert_eq!(ev.word(&outs), 6);
    }

    #[test]
    fn sa_grows_with_mux_size() {
        let mut t = SaTable::new(4, 4);
        let a11 = t.get(FuType::AddSub, 1, 1);
        let a33 = t.get(FuType::AddSub, 3, 3);
        assert!(a33 > a11, "bigger muxes -> more switching: {a11} vs {a33}");
    }

    #[test]
    fn multiplier_dominates_adder_at_realistic_width() {
        // At tiny widths the truncated multiplier can be smaller than the
        // adder; at the paper's datapath widths the multiplier dominates
        // (hence β ≈ 30 vs β ≈ 1000).
        let mut t = SaTable::new(8, 4);
        let a11 = t.get(FuType::AddSub, 1, 1);
        let m11 = t.get(FuType::Mul, 1, 1);
        assert!(
            m11 > 2.0 * a11,
            "multiplier should dominate adder: {a11} vs {m11}"
        );
    }

    #[test]
    fn key_is_exact_beyond_u16() {
        // Regression: keys used to clamp to u16::MAX, silently aliasing
        // every mux wider than 65535 pins (65536, 65537, ...) onto the
        // 65535 entry. The boundary values must stay distinct.
        let mut t = SaTable::new(4, 4);
        let big = u16::MAX as usize; // 65535
        t.insert(FuType::AddSub, big, 1, 1.0);
        t.insert(FuType::AddSub, big + 1, 1, 2.0);
        t.insert(FuType::AddSub, big + 2, 1, 3.0);
        assert_eq!(t.len(), 3, "boundary keys must not alias");
        assert_eq!(t.lookup(FuType::AddSub, big, 1), Some(1.0));
        assert_eq!(t.lookup(FuType::AddSub, big + 1, 1), Some(2.0));
        assert_eq!(t.lookup(FuType::AddSub, big + 2, 1), Some(3.0));
        // And the u32 keys survive the text round-trip.
        let back = SaTable::from_text(&t.to_text()).unwrap();
        assert_eq!(back.lookup(FuType::AddSub, big + 1, 1), Some(2.0));
    }

    #[test]
    fn simulated_mode_measures_with_the_word_simulator() {
        let mut t = SaTable::new(4, 4).with_mode(SaMode::Simulated);
        let s11 = t.get(FuType::AddSub, 1, 1);
        let s33 = t.get(FuType::AddSub, 3, 3);
        assert!(s11 > 0.0);
        assert!(s33 > s11, "bigger muxes toggle more: {s11} vs {s33}");
        // Memoized like the precalculated mode.
        t.get(FuType::AddSub, 1, 1);
        let (q, m) = t.counters();
        assert_eq!((q, m), (3, 2));
        // Deterministic: the trainer's seed and lane count are fixed.
        let mut u = SaTable::new(4, 4).with_mode(SaMode::Simulated);
        assert_eq!(u.get(FuType::AddSub, 1, 1), s11);
        // Matches the free function on the same scale.
        assert_eq!(s11, simulate_sa(FuType::AddSub, 1, 1, 4, 4));
    }

    #[test]
    fn simulated_mode_roundtrips_and_refuses_mixing() {
        let mut t = SaTable::new(4, 4).with_mode(SaMode::Simulated);
        t.get(FuType::Mul, 2, 1);
        let text = t.to_text();
        assert!(text.contains("mode=simulated"));
        let back = SaTable::from_text(&text).unwrap();
        assert_eq!(back.mode(), SaMode::Simulated);
        // The shared cache refuses to absorb simulated entries into an
        // estimator-trained cache (they are different models).
        let cache = SharedSaTable::new(4, 4);
        assert!(cache.absorb(&back).is_err());
        let sim_cache = SharedSaTable::new(4, 4).with_mode(SaMode::Simulated);
        assert_eq!(sim_cache.absorb(&back).unwrap().inserted, 1);
        // Values agree within the 1e-6 text precision and do not recompute.
        let diff = (sim_cache.get(FuType::Mul, 2, 1) - t.get(FuType::Mul, 2, 1)).abs();
        assert!(diff < 1e-5, "round-tripped entry drifted by {diff}");
        let (_, misses) = sim_cache.counters();
        assert_eq!(misses, 0, "absorbed simulated entries must not recompute");
    }

    #[test]
    fn sa_mode_names_roundtrip() {
        for mode in [
            SaMode::Precalculated,
            SaMode::Dynamic,
            SaMode::ZeroDelayAblation,
            SaMode::Simulated,
        ] {
            assert_eq!(SaMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(SaMode::parse("sideways"), None);
    }

    #[test]
    fn memoization_counts() {
        let mut t = SaTable::new(4, 4);
        t.get(FuType::AddSub, 2, 2);
        t.get(FuType::AddSub, 2, 2);
        t.get(FuType::AddSub, 2, 2);
        let (q, m) = t.counters();
        assert_eq!(q, 3);
        assert_eq!(m, 1, "only the first query computes");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn dynamic_mode_matches_precalculated_values() {
        // The paper: dynamic estimation gives the same results, only
        // slower. The values must agree exactly.
        let mut pre = SaTable::new(4, 4);
        let mut dy = SaTable::new(4, 4).with_mode(SaMode::Dynamic);
        for (a, b) in [(1, 1), (2, 3), (4, 2)] {
            assert_eq!(
                pre.get(FuType::AddSub, a, b),
                dy.get(FuType::AddSub, a, b),
                "({a},{b})"
            );
        }
        let (_, m) = dy.counters();
        assert_eq!(m, 3, "dynamic mode recomputes every query");
    }

    #[test]
    fn zero_delay_ablation_underestimates() {
        let mut glitchy = SaTable::new(4, 4);
        let mut blind = SaTable::new(4, 4).with_mode(SaMode::ZeroDelayAblation);
        let g = glitchy.get(FuType::Mul, 2, 2);
        let z = blind.get(FuType::Mul, 2, 2);
        assert!(
            z < g,
            "zero-delay ignores glitches so it must be lower: {z} vs {g}"
        );
    }

    #[test]
    fn text_roundtrip() {
        let mut t = SaTable::new(6, 4);
        t.get(FuType::AddSub, 1, 2);
        t.get(FuType::Mul, 2, 1);
        let text = t.to_text();
        assert!(text.contains("width=6"));
        let back = SaTable::from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.width(), 6);
        let mut back = back;
        // Values must round-trip (within the 1e-6 text precision).
        let orig = t.get(FuType::AddSub, 1, 2);
        let load = back.get(FuType::AddSub, 1, 2);
        assert!((orig - load).abs() < 1e-5);
        let (_, misses) = back.counters();
        assert_eq!(misses, 0, "loaded entry must not recompute");
    }

    #[test]
    fn bin_roundtrip_is_bit_exact_and_byte_stable() {
        let mut t = SaTable::new(6, 4).with_mode(SaMode::ZeroDelayAblation);
        t.get(FuType::AddSub, 1, 2);
        t.get(FuType::Mul, 2, 1);
        t.insert(FuType::AddSub, u16::MAX as usize + 1, 1, 0.1 + 0.2); // non-representable decimal
        let bin = t.to_bin();
        let mut back = SaTable::from_bin(&bin).unwrap();
        assert_eq!(back.width(), 6);
        assert_eq!(back.k(), 4);
        assert_eq!(back.mode(), SaMode::ZeroDelayAblation);
        assert_eq!(back.len(), 3);
        // Raw f64 bits: *exact*, not 1e-6-close like the text format.
        assert_eq!(
            back.lookup(FuType::AddSub, u16::MAX as usize + 1, 1),
            Some(0.1 + 0.2)
        );
        assert_eq!(back.get(FuType::AddSub, 1, 2), t.get(FuType::AddSub, 1, 2));
        let (_, misses) = back.counters();
        assert_eq!(misses, 0, "loaded entry must not recompute");
        // Serialization is a pure function of contents (sorted entries).
        assert_eq!(back.to_bin(), bin);
    }

    #[test]
    fn bin_rejects_corruption() {
        let mut t = SaTable::new(4, 4);
        t.insert(FuType::AddSub, 1, 1, 2.0);
        let good = t.to_bin();
        for cut in 0..good.len() {
            assert!(SaTable::from_bin(&good[..cut]).is_err());
        }
        assert!(SaTable::from_bin(b"# hlpower SA table width=4 k=4\n").is_err());
        let mut flip = good.clone();
        let n = flip.len();
        flip[n - 1] ^= 0xff;
        assert!(
            SaTable::from_bin(&flip).is_err(),
            "checksum must catch flips"
        );
        // Unknown FU tag behind a valid checksum.
        let mut w = binio::BinWriter::new(binio::KIND_SA_TABLE, SA_TABLE_VERSION);
        let mut header = Vec::new();
        header.extend_from_slice(&4u64.to_le_bytes());
        header.extend_from_slice(&4u64.to_le_bytes());
        binio::put_str(&mut header, "precalculated");
        header.extend_from_slice(&1u64.to_le_bytes());
        w.section(&header);
        let mut body = Vec::new();
        body.extend_from_slice(&7u32.to_le_bytes()); // no such FU
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        w.section(&body);
        assert!(SaTable::from_bin(&w.finish()).is_err());
    }

    #[test]
    fn shared_table_pools_across_threads() {
        let t = SharedSaTable::new(4, 4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (a, b) in [(1, 1), (2, 1), (2, 2)] {
                        t.get(FuType::AddSub, a, b);
                    }
                });
            }
        });
        assert_eq!(t.len(), 3, "three distinct shapes memoized");
        let (queries, _) = t.counters();
        assert_eq!(queries, 12, "every thread's queries are counted");
        // Values agree with a private table.
        let mut local = SaTable::new(4, 4);
        assert_eq!(t.get(FuType::AddSub, 2, 2), local.get(FuType::AddSub, 2, 2));
    }

    #[test]
    fn shared_table_snapshot_and_absorb_roundtrip() {
        let shared = SharedSaTable::new(4, 4);
        shared.get(FuType::AddSub, 2, 2);
        shared.get(FuType::Mul, 1, 2);
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 2);
        // Through the text format and back into a fresh shared cache.
        let restored = SaTable::from_text(&snap.to_text()).unwrap();
        let back = SharedSaTable::from_table(&restored);
        assert_eq!(back.len(), 2);
        let v = back.get(FuType::AddSub, 2, 2);
        assert!((v - shared.get(FuType::AddSub, 2, 2)).abs() < 1e-5);
        let (_, misses) = back.counters();
        assert_eq!(misses, 0, "absorbed entries must not recompute");
    }

    #[test]
    fn shared_ref_is_a_sa_source() {
        fn takes_source(src: &mut impl SaSource) -> f64 {
            src.sa(FuType::AddSub, 2, 2)
        }
        let shared = SharedSaTable::new(4, 4);
        let mut handle = shared.handle();
        let a = takes_source(&mut handle);
        let mut local = SaTable::new(4, 4);
        assert_eq!(a, takes_source(&mut local));
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(SaTable::from_text("addsub 1 1\n").is_err());
        assert!(SaTable::from_text("div 1 1 3.0\n").is_err());
        assert!(SaTable::from_text("addsub x 1 3.0\n").is_err());
        assert!(SaTable::from_text("# mode=sideways\n").is_err());
    }

    #[test]
    fn mode_roundtrips_through_text() {
        let mut zd = SaTable::new(4, 4).with_mode(SaMode::ZeroDelayAblation);
        zd.get(FuType::AddSub, 2, 2);
        let text = zd.to_text();
        assert!(text.contains("mode=zero-delay"));
        let back = SaTable::from_text(&text).unwrap();
        assert_eq!(back.mode(), SaMode::ZeroDelayAblation);
        // Legacy headers without a mode token default to precalculated.
        let legacy = SaTable::from_text("# hlpower SA table width=4 k=4\naddsub 1 1 2.0\n");
        assert_eq!(legacy.unwrap().mode(), SaMode::Precalculated);
    }

    #[test]
    fn absorb_refuses_mismatched_tables() {
        let cache = SharedSaTable::new(4, 4);
        let mut narrow = SaTable::new(4, 4);
        narrow.get(FuType::AddSub, 1, 1);
        let first = cache.absorb(&narrow).unwrap();
        assert_eq!(
            (first.inserted, first.matched, first.conflicting),
            (1, 0, 0)
        );
        let again = cache.absorb(&narrow).unwrap();
        assert_eq!(
            (again.inserted, again.matched, again.conflicting),
            (0, 1, 0),
            "already-present agreeing entries count as matched, not inserted"
        );
        let mut wide = SaTable::new(8, 4);
        wide.get(FuType::AddSub, 1, 1);
        let err = cache.absorb(&wide).unwrap_err();
        assert_eq!(err.expected.0, 4);
        assert_eq!(err.found.0, 8);
        let zd = SaTable::new(4, 4).with_mode(SaMode::ZeroDelayAblation);
        assert!(cache.absorb(&zd).is_err(), "mode mismatch must be refused");
        assert_eq!(cache.len(), 1, "failed absorbs must not modify the cache");
    }

    #[test]
    fn absorb_reports_conflicts_and_keeps_existing_values() {
        // Two tables disagreeing on the same key is a real data problem —
        // absorb must count it instead of silently preferring one side.
        let cache = SharedSaTable::new(4, 4);
        let mut ours = SaTable::new(4, 4);
        ours.insert(FuType::AddSub, 2, 2, 10.0);
        ours.insert(FuType::Mul, 1, 1, 3.0);
        cache.absorb(&ours).unwrap();
        let mut theirs = SaTable::new(4, 4);
        theirs.insert(FuType::AddSub, 2, 2, 11.0); // conflicts
        theirs.insert(FuType::Mul, 1, 1, 3.0 + 1e-7); // within text precision
        theirs.insert(FuType::Mul, 3, 3, 7.0); // new
        let stats = cache.absorb(&theirs).unwrap();
        assert_eq!(
            (stats.inserted, stats.matched, stats.conflicting),
            (1, 1, 1)
        );
        assert_eq!(stats.total(), 3);
        // Deterministic resolution: the cache's value wins.
        assert_eq!(cache.get(FuType::AddSub, 2, 2), 10.0);
        assert_eq!(cache.get(FuType::Mul, 3, 3), 7.0);
        assert!(stats.to_string().contains("1 conflicting"));
    }
}
