//! Wire codecs and the client half of the daemon protocol.
//!
//! Everything that crosses a socket is defined here as an **exact
//! line-oriented text codec** in the style of [`netlist::textio`]:
//!
//! * a [`JobRequest`] serializes to one canonical `hlpower-job v1` line
//!   ([`JobRequest::to_line`] / [`JobRequest::parse_line`];
//!   serialize→parse→serialize is byte-identical);
//! * a [`JobReport`] serializes to a small `end`-terminated block
//!   ([`JobReport::to_text`] / [`JobReport::from_text`], floats encoded
//!   bit-exactly);
//! * a `batch N` frame ships N job lines in one round-trip and receives
//!   the exact concatenation of the N replies ([`request_batch`]);
//! * the `control stats` / `control fsck-status` monitoring verbs reply
//!   with [`StatsSnapshot`] / [`FsckStatus`] blocks, round-tripped by
//!   the same to-text/from-text discipline as every other codec.
//!
//! The client functions ([`request`], [`request_batch`], [`stop_daemon`],
//! [`fetch_stats`], [`fetch_fsck_status`]) dial an [`Endpoint`] and speak
//! this protocol; the server half lives in [`crate::api::server`].
//!
//! A daemon at capacity parks new connections and answers them with one
//! informational `busy ...` line before the real reply arrives — the one
//! reply-line reader here, which the `RemoteStore` client shares, skips
//! `busy` lines, so backpressure is invisible to callers beyond added
//! latency.

use crate::api::service::ServiceError;
use crate::flow::{Binder, FlowConfig, FlowResult};
use crate::mux::MuxReport;
use crate::pipeline::{PipelineStats, StageCounts};
use crate::power::PowerReport;
use crate::satable::SaMode;
use crate::store::StoreCounts;
use cdfg::{Cdfg, ResourceConstraint};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

// ---- escaping --------------------------------------------------------------

/// Escapes a value so it survives the whitespace-tokenized request
/// line: backslash, newline, carriage return, tab, and space become
/// two-byte `\\`-sequences, and **every other Unicode whitespace**
/// character (the tokenizer splits on all of them — vertical tab, form
/// feed, NBSP, U+2028, …) becomes `\u{HEX}`. The inverse is
/// [`unescape`]; serialize→parse→serialize stays byte-identical for any
/// input string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' ' => out.push_str("\\s"),
            c if c.is_whitespace() => out.push_str(&format!("\\u{{{:x}}}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`escape`]. Rejects dangling or unknown escape sequences (a
/// truncated line must not silently decode to a different value).
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('s') => out.push(' '),
            Some('u') => {
                if chars.next() != Some('{') {
                    return Err("malformed `\\u` escape (expected `{`)".to_string());
                }
                let mut hex = String::new();
                loop {
                    match chars.next() {
                        Some('}') => break,
                        Some(h) => hex.push(h),
                        None => return Err("unterminated `\\u{` escape".to_string()),
                    }
                }
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad `\\u{{{hex}}}` escape"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad `\\u{{{hex}}}` escape"))?);
            }
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None => return Err("dangling `\\` at end of value".to_string()),
        }
    }
    Ok(out)
}

// ---- protocol limits -------------------------------------------------------

/// Request lines larger than this are drained and answered with an
/// `error` line instead of being buffered: a garbage (or malicious)
/// client must not grow daemon memory without bound. Inline-CDFG
/// requests for the paper suite are a few kilobytes.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Cap on jobs per `batch N` frame. A larger batch is refused with a
/// protocol-clean `error` line (and the connection closed, since the
/// daemon will not read the declared job lines of a frame it refused).
pub const MAX_BATCH_JOBS: usize = 1024;

/// How every daemon refusal of a whole `batch N` frame begins: an empty
/// frame, one beyond [`MAX_BATCH_JOBS`], a malformed header, or a frame
/// shed under backlog. No per-job error starts with it, so
/// [`request_batch`] tells a refused frame from a first job that failed.
pub const BATCH_REFUSED: &str = "batch frame refused: ";

// ---- JobRequest ------------------------------------------------------------

/// What a job runs on: a built-in suite benchmark (regenerated
/// deterministically from its profile seed on the executing side) or
/// inline CDFG text in the `cdfg::textio` format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A built-in benchmark by name (see `cdfg::PROFILES`).
    Suite(String),
    /// Inline CDFG source text (`cdfg::parse_cdfg` format).
    CdfgText(String),
}

/// A complete, serializable job description — the one public currency
/// for "run the flow". Construct with [`JobRequest::suite`] or
/// [`JobRequest::from_cdfg_text`] and the builder methods; every knob
/// defaults to the paper-scale configuration ([`FlowConfig::default`]).
///
/// The `constraint` is optional: `None` resolves to the paper's Table 2
/// constraint for suite benchmarks and to `(2, 2)` for inline CDFGs.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// What to run.
    pub source: JobSource,
    /// Datapath word width in bits (1..=64).
    pub width: usize,
    /// SA precalculation-table width (1..=64).
    pub sa_width: usize,
    /// Resource constraint `(adders, mults)`; `None` = source default.
    pub constraint: Option<(usize, usize)>,
    /// The binding algorithm (α folded into the HLPower variants).
    pub binder: Binder,
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Simulation lanes (0 and 1 = one stream on the scalar reference
    /// engine, 2..=512 = bit-sliced slab engine).
    pub lanes: usize,
    /// SA-table training mode.
    pub sa_mode: SaMode,
    /// Simulation vector seed.
    pub sim_seed: u64,
    /// Register-binding port-assignment seed.
    pub port_seed: u64,
    /// Elaborate the on-chip FSM controller instead of external control.
    pub fsm: bool,
}

impl JobRequest {
    fn with_source(source: JobSource) -> JobRequest {
        let d = FlowConfig::default();
        JobRequest {
            source,
            width: d.width,
            sa_width: d.sa_width,
            constraint: None,
            binder: Binder::HlPower { alpha: 0.5 },
            cycles: d.sim_cycles,
            lanes: d.lanes,
            sa_mode: d.sa_mode,
            sim_seed: d.sim_seed,
            port_seed: d.port_seed,
            fsm: false,
        }
    }

    /// A request for a built-in suite benchmark, all knobs defaulted.
    pub fn suite(name: impl Into<String>) -> JobRequest {
        Self::with_source(JobSource::Suite(name.into()))
    }

    /// A request carrying inline CDFG text, all knobs defaulted.
    pub fn from_cdfg_text(text: impl Into<String>) -> JobRequest {
        Self::with_source(JobSource::CdfgText(text.into()))
    }

    /// Sets the datapath width.
    pub fn width(mut self, width: usize) -> JobRequest {
        self.width = width;
        self
    }

    /// Sets the SA-table width.
    pub fn sa_width(mut self, sa_width: usize) -> JobRequest {
        self.sa_width = sa_width;
        self
    }

    /// Sets an explicit `(adders, mults)` resource constraint.
    pub fn constraint(mut self, adders: usize, mults: usize) -> JobRequest {
        self.constraint = Some((adders, mults));
        self
    }

    /// Sets the binder.
    pub fn binder(mut self, binder: Binder) -> JobRequest {
        self.binder = binder;
        self
    }

    /// Sets the simulated cycle count.
    pub fn cycles(mut self, cycles: u64) -> JobRequest {
        self.cycles = cycles;
        self
    }

    /// Sets the simulation lane count.
    pub fn lanes(mut self, lanes: usize) -> JobRequest {
        self.lanes = lanes;
        self
    }

    /// Sets the SA-table training mode.
    pub fn sa_mode(mut self, sa_mode: SaMode) -> JobRequest {
        self.sa_mode = sa_mode;
        self
    }

    /// Sets both stochastic seeds — the CLI's `--seed` semantics (one
    /// flag controls the simulation vectors *and* the register binding's
    /// random port assignment).
    pub fn seed(mut self, seed: u64) -> JobRequest {
        self.sim_seed = seed;
        self.port_seed = seed;
        self
    }

    /// Selects the on-chip FSM controller.
    pub fn fsm(mut self, fsm: bool) -> JobRequest {
        self.fsm = fsm;
        self
    }

    /// The [`FlowConfig`] this request selects, on top of `template` for
    /// the knobs a request does not carry (LUT size, mapping objective,
    /// resource library, power-model constants).
    pub fn flow_config(&self, template: &FlowConfig) -> FlowConfig {
        FlowConfig {
            width: self.width,
            sa_width: self.sa_width,
            sa_mode: self.sa_mode,
            sim_cycles: self.cycles,
            sim_seed: self.sim_seed,
            lanes: self.lanes,
            port_seed: self.port_seed,
            control: if self.fsm {
                crate::datapath::ControlStyle::Fsm
            } else {
                crate::datapath::ControlStyle::External
            },
            ..template.clone()
        }
    }

    /// Resolves the source into a checked CDFG plus the effective
    /// resource constraint (explicit, else the paper's Table 2 value for
    /// suite benchmarks, else `(2, 2)` for inline CDFGs).
    ///
    /// # Errors
    ///
    /// Unknown benchmark names, unparseable or structurally invalid CDFG
    /// text, a CDFG with no operations (its schedule has no control
    /// steps to cycle through), constraints below one unit of either
    /// class (the scheduler's precondition), and a zero cycle count (the
    /// power model averages over simulated cycles).
    pub fn resolve(&self) -> Result<(Cdfg, ResourceConstraint), ServiceError> {
        if let Some((a, m)) = self.constraint {
            if a < 1 || m < 1 {
                return Err(ServiceError::InvalidConstraint(a, m));
            }
        }
        if self.cycles == 0 {
            return Err(ServiceError::ZeroCycles);
        }
        match &self.source {
            JobSource::Suite(name) => {
                let p = cdfg::profile(name)
                    .ok_or_else(|| ServiceError::UnknownBenchmark(name.clone()))?;
                let rc = match self.constraint {
                    Some((a, m)) => ResourceConstraint::new(a, m),
                    None => crate::flow::paper_constraint(name).expect("known profile"),
                };
                Ok((cdfg::generate(p, p.seed), rc))
            }
            JobSource::CdfgText(text) => {
                let (g, _) =
                    cdfg::parse_cdfg(text).map_err(|e| ServiceError::InvalidCdfg(e.to_string()))?;
                g.check()
                    .map_err(|e| ServiceError::InvalidCdfg(e.to_string()))?;
                if g.num_ops() == 0 {
                    return Err(ServiceError::InvalidCdfg(
                        "no operations to schedule or bind".to_string(),
                    ));
                }
                let rc = match self.constraint {
                    Some((a, m)) => ResourceConstraint::new(a, m),
                    None => ResourceConstraint::new(2, 2),
                };
                Ok((g, rc))
            }
        }
    }

    /// Serializes the request to its canonical one-line wire form.
    /// Canonical means every field is present in fixed order, so
    /// `to_line(parse_line(l)) == to_line(r)` for any request `r` —
    /// serialize→parse→serialize is byte-identical.
    pub fn to_line(&self) -> String {
        let source = match &self.source {
            JobSource::Suite(name) => format!("bench:{}", escape(name)),
            JobSource::CdfgText(text) => format!("cdfg:{}", escape(text)),
        };
        let constraint = match self.constraint {
            Some((a, m)) => format!("{a}/{m}"),
            None => "default".to_string(),
        };
        format!(
            "hlpower-job v1 source={source} width={} sa-width={} constraint={constraint} \
             binder={} cycles={} lanes={} sa-mode={} sim-seed={} port-seed={} control={}",
            self.width,
            self.sa_width,
            self.binder.spec(),
            self.cycles,
            self.lanes,
            self.sa_mode.name(),
            self.sim_seed,
            self.port_seed,
            if self.fsm { "fsm" } else { "external" },
        )
    }

    /// Sets one knob from its wire text: the one table of request keys,
    /// each with its parser and bounds. [`JobRequest::parse_line`], `hlp`
    /// and the experiment binaries all set knobs through it, so the
    /// three surfaces accept and refuse the same values. Checks that need
    /// the whole request (at least one cycle and one unit per class, a
    /// valid inline CDFG) stay in [`JobRequest::resolve`].
    ///
    /// # Errors
    ///
    /// [`KnobError::UnknownKey`] for a key outside the table, else
    /// [`KnobError::Expected`] with what the key accepts. A refused pair
    /// leaves the request unchanged.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), KnobError> {
        fn parsed<T: std::str::FromStr>(
            value: &str,
            bound: impl Fn(&T) -> bool,
            what: &str,
        ) -> Result<T, KnobError> {
            value
                .parse()
                .ok()
                .filter(bound)
                .ok_or_else(|| KnobError::Expected(what.to_string()))
        }
        let expected = |what: &str| KnobError::Expected(what.to_string());
        // Word-level buses are u64.
        let word = |w: &usize| (1..=64).contains(w);
        let any = |_: &u64| true;
        match key {
            "source" => {
                let source = if let Some(name) = value.strip_prefix("bench:") {
                    unescape(name).map(JobSource::Suite)
                } else if let Some(text) = value.strip_prefix("cdfg:") {
                    unescape(text).map(JobSource::CdfgText)
                } else {
                    return Err(expected("`bench:NAME` or `cdfg:TEXT`"));
                };
                self.source = source.map_err(|e| {
                    KnobError::Expected(format!("a value with valid escapes ({e})"))
                })?;
            }
            "width" => self.width = parsed(value, word, "an integer in 1..=64")?,
            "sa-width" => self.sa_width = parsed(value, word, "an integer in 1..=64")?,
            "constraint" if value == "default" => self.constraint = None,
            "constraint" => {
                let pair = value
                    .split_once('/')
                    .and_then(|(a, m)| Some((a.parse().ok()?, m.parse().ok()?)));
                self.constraint =
                    Some(pair.ok_or_else(|| expected("`ADDERS/MULTS` or `default`"))?);
            }
            "binder" => {
                self.binder = Binder::parse(value).ok_or_else(|| {
                    expected(
                        "lopass | lopass-ic | lopass-sa | hlpower[:ALPHA] | hlpower-zd[:ALPHA] \
                         with a finite ALPHA",
                    )
                })?;
            }
            "cycles" => self.cycles = parsed(value, any, "an integer")?,
            "lanes" => {
                self.lanes = parsed(
                    value,
                    |l| *l <= gatesim::MAX_SLAB_LANES,
                    "a lane count in 0..=512",
                )?;
            }
            "sa-mode" => {
                self.sa_mode = SaMode::parse(value)
                    .ok_or_else(|| expected("precalculated | dynamic | zero-delay | simulated"))?;
            }
            "sim-seed" => self.sim_seed = parsed(value, any, "an integer")?,
            "port-seed" => self.port_seed = parsed(value, any, "an integer")?,
            "control" => {
                self.fsm = match value {
                    "fsm" => true,
                    "external" => false,
                    _ => return Err(expected("`external` or `fsm`")),
                };
            }
            _ => return Err(KnobError::UnknownKey),
        }
        Ok(())
    }

    /// Parses a request line written by [`JobRequest::to_line`].
    /// `source=` is required; every other field may be omitted and
    /// defaults as the builder does. Each `key=value` goes through
    /// [`JobRequest::set`]; unknown keys, duplicate keys, and refused
    /// values are errors that name the offending key and value.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn parse_line(line: &str) -> Result<JobRequest, String> {
        let mut toks = line.split_whitespace();
        if toks.next() != Some("hlpower-job") {
            return Err("not a request line (missing `hlpower-job` magic)".to_string());
        }
        match toks.next() {
            Some("v1") => {}
            other => return Err(format!("unsupported request version {other:?}")),
        }
        let mut req = Self::with_source(JobSource::Suite(String::new()));
        let mut seen: Vec<&str> = Vec::new();
        for tok in toks {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed token `{tok}` (expected key=value)"))?;
            if seen.contains(&key) {
                return Err(format!("duplicate key `{key}`"));
            }
            seen.push(key);
            req.set(key, value).map_err(|e| match e {
                KnobError::UnknownKey => format!("unknown key `{key}`"),
                KnobError::Expected(what) => {
                    format!("invalid value `{value}` for `{key}`: expected {what}")
                }
            })?;
        }
        if !seen.contains(&"source") {
            return Err("missing required key `source`".to_string());
        }
        Ok(req)
    }
}

/// Why [`JobRequest::set`] refused a `key=value` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KnobError {
    /// No request key has this name.
    UnknownKey,
    /// The value is outside the key's domain; the text describes the
    /// domain (`an integer in 1..=64`, …).
    Expected(String),
}

// ---- JobReport -------------------------------------------------------------

/// What executing one [`JobRequest`] produced: the measured result plus
/// the job's own ledger — the stages it executed and the store lookups
/// it made. The counts are exact under concurrent execution: a job never
/// counts a neighbour's work, and a job that found its prepared artifact
/// computed (or being computed) by another job records nothing for it.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The measured flow result.
    pub result: FlowResult,
    /// The job's ledger.
    pub stats: PipelineStats,
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    // Bit-exact hex first (what the parser reads back), then the human
    // approximation; both derive from the same bits, so re-serializing a
    // parsed report is byte-identical.
    out.push_str(&format!("{key} {:016x} {v}\n", v.to_bits()));
}

impl JobReport {
    /// Serializes the report to its exact multi-line text form (the wire
    /// reply format, terminated by an `end` line). Floats are encoded
    /// bit-exactly; `bind_time` is wall clock and deliberately **not**
    /// serialized ([`JobReport::from_text`] restores it as zero) — the
    /// deterministic runtime proxy on the wire is `sa_queries`.
    pub fn to_text(&self) -> String {
        let r = &self.result;
        let mut out = String::new();
        out.push_str("# hlpower report v1\n");
        out.push_str(&format!("name {}\n", r.name));
        out.push_str(&format!("binder {}\n", r.binder));
        out.push_str(&format!("schedule_steps {}\n", r.schedule_steps));
        out.push_str(&format!("registers {}\n", r.registers));
        out.push_str(&format!("fus {} {}\n", r.fus_addsub, r.fus_mul));
        out.push_str(&format!(
            "meets_constraint {}\n",
            if r.meets_constraint { 1 } else { 0 }
        ));
        out.push_str(&format!("luts {}\n", r.luts));
        out.push_str(&format!("depth {}\n", r.depth));
        push_f64(&mut out, "estimated_sa", r.estimated_sa);
        out.push_str(&format!("mux_largest {}\n", r.mux.largest));
        out.push_str(&format!("mux_length {}\n", r.mux.length));
        out.push_str("mux_fu_diffs");
        for d in &r.mux.fu_mux_diffs {
            out.push_str(&format!(" {d}"));
        }
        out.push('\n');
        out.push_str("mux_fu_sizes");
        for (a, b) in &r.mux.fu_mux_sizes {
            out.push_str(&format!(" {a}/{b}"));
        }
        out.push('\n');
        push_f64(&mut out, "power_mw", r.power.dynamic_power_mw);
        push_f64(&mut out, "clock_ns", r.power.clock_period_ns);
        push_f64(&mut out, "toggle_mhz", r.power.avg_toggle_rate_mhz);
        out.push_str(&format!(
            "total_transitions {}\n",
            r.power.total_transitions
        ));
        push_f64(&mut out, "glitch_fraction", r.power.glitch_fraction);
        out.push_str(&format!("sa_queries {}\n", r.sa_queries));
        let st = &self.stats.stages;
        out.push_str(&format!(
            "stages {} {} {} {} {} {}\n",
            st.schedules,
            st.register_bindings,
            st.fu_bindings,
            st.elaborations,
            st.mappings,
            st.simulations
        ));
        let sc = &self.stats.store;
        out.push_str(&format!(
            "store {} {} {} {} {} {}\n",
            sc.prepared_hits,
            sc.prepared_misses,
            sc.netlist_hits,
            sc.netlist_misses,
            sc.sim_hits,
            sc.sim_misses
        ));
        out.push_str("end\n");
        out
    }

    /// Parses a report written by [`JobReport::to_text`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn from_text(text: &str) -> Result<JobReport, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("# hlpower report v1") => {}
            other => return Err(format!("bad report header {other:?}")),
        }
        // Fixed line order: each helper consumes exactly one line and
        // insists on its key, so any drift is a loud error, never a
        // silently misread field.
        let mut rest = |key: &'static str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing `{key}` line"))?;
            line.strip_prefix(key)
                .map(|r| r.strip_prefix(' ').unwrap_or(r).to_string())
                .ok_or_else(|| format!("expected `{key}` line, got `{line}`"))
        };
        fn int<T: std::str::FromStr>(key: &str, s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad `{key}` value `{s}`"))
        }
        fn f64_of(key: &str, s: &str) -> Result<f64, String> {
            let hex = s.split_whitespace().next().unwrap_or("");
            u64::from_str_radix(hex, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad `{key}` value `{s}`"))
        }
        let name = rest("name")?;
        let binder = rest("binder")?;
        let schedule_steps = int("schedule_steps", &rest("schedule_steps")?)?;
        let registers = int("registers", &rest("registers")?)?;
        let fus = rest("fus")?;
        let mut fu_toks = fus.split_whitespace();
        let fus_addsub = int("fus", fu_toks.next().unwrap_or(""))?;
        let fus_mul = int("fus", fu_toks.next().unwrap_or(""))?;
        let meets_constraint = rest("meets_constraint")? == "1";
        let luts = int("luts", &rest("luts")?)?;
        let depth = int("depth", &rest("depth")?)?;
        let estimated_sa = f64_of("estimated_sa", &rest("estimated_sa")?)?;
        let largest = int("mux_largest", &rest("mux_largest")?)?;
        let length = int("mux_length", &rest("mux_length")?)?;
        let fu_mux_diffs = rest("mux_fu_diffs")?
            .split_whitespace()
            .map(|t| int("mux_fu_diffs", t))
            .collect::<Result<Vec<usize>, _>>()?;
        let fu_mux_sizes = rest("mux_fu_sizes")?
            .split_whitespace()
            .map(|t| {
                let (a, b) = t
                    .split_once('/')
                    .ok_or_else(|| format!("bad `mux_fu_sizes` pair `{t}`"))?;
                Ok((int("mux_fu_sizes", a)?, int("mux_fu_sizes", b)?))
            })
            .collect::<Result<Vec<(usize, usize)>, String>>()?;
        let dynamic_power_mw = f64_of("power_mw", &rest("power_mw")?)?;
        let clock_period_ns = f64_of("clock_ns", &rest("clock_ns")?)?;
        let avg_toggle_rate_mhz = f64_of("toggle_mhz", &rest("toggle_mhz")?)?;
        let total_transitions = int("total_transitions", &rest("total_transitions")?)?;
        let glitch_fraction = f64_of("glitch_fraction", &rest("glitch_fraction")?)?;
        let sa_queries = int("sa_queries", &rest("sa_queries")?)?;
        let stages_line = rest("stages")?;
        let s: Vec<u64> = stages_line
            .split_whitespace()
            .map(|t| int("stages", t))
            .collect::<Result<_, _>>()?;
        if s.len() != 6 {
            return Err(format!("bad `stages` line `{stages_line}`"));
        }
        let store_line = rest("store")?;
        let c: Vec<u64> = store_line
            .split_whitespace()
            .map(|t| int("store", t))
            .collect::<Result<_, _>>()?;
        if c.len() != 6 {
            return Err(format!("bad `store` line `{store_line}`"));
        }
        match lines.next() {
            Some("end") => {}
            other => return Err(format!("expected `end`, got {other:?}")),
        }
        Ok(JobReport {
            result: FlowResult {
                name,
                binder,
                schedule_steps,
                registers,
                fus_addsub,
                fus_mul,
                meets_constraint,
                luts,
                depth,
                estimated_sa,
                mux: MuxReport {
                    largest,
                    length,
                    fu_mux_diffs,
                    fu_mux_sizes,
                },
                power: PowerReport {
                    dynamic_power_mw,
                    clock_period_ns,
                    avg_toggle_rate_mhz,
                    total_transitions,
                    glitch_fraction,
                },
                bind_time: Duration::ZERO,
                sa_queries,
            },
            stats: PipelineStats {
                stages: StageCounts {
                    schedules: s[0],
                    register_bindings: s[1],
                    fu_bindings: s[2],
                    elaborations: s[3],
                    mappings: s[4],
                    simulations: s[5],
                },
                store: StoreCounts {
                    prepared_hits: c[0],
                    prepared_misses: c[1],
                    netlist_hits: c[2],
                    netlist_misses: c[3],
                    sim_hits: c[4],
                    sim_misses: c[5],
                },
            },
        })
    }
}

// ---- monitoring codecs -----------------------------------------------------

/// Verb classes the daemon accounts separately in [`StatsSnapshot`]:
/// single job lines, `batch` frames, `store` verbs, `control` verbs.
pub const STAT_VERBS: [&str; 4] = ["job", "batch", "store", "control"];

/// Upper bounds (µs) of the first five request-latency buckets; the
/// sixth bucket is everything slower. Chosen one decade apart so the
/// histogram spans a warm cache hit (tens of µs) to a cold
/// schedule+map+simulate run (seconds).
pub const LATENCY_BUCKETS_US: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Per-verb monotonic counters inside a [`StatsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerbStats {
    /// Requests answered (each reply counts once, error replies included).
    pub requests: u64,
    /// Replies that were `error` lines.
    pub errors: u64,
    /// Request bytes consumed (line plus framed body).
    pub bytes_in: u64,
    /// Reply bytes written.
    pub bytes_out: u64,
    /// Latency histogram: counts per [`LATENCY_BUCKETS_US`] bucket,
    /// plus the final everything-slower bucket.
    pub latency: [u64; 6],
}

/// Counters from the daemon's most recent `store fsck` sweeps — the
/// `control fsck-status` reply, also embedded in [`StatsSnapshot`].
/// `runs` is the number of wire-initiated fsck passes since startup;
/// the other fields mirror the last pass's `FsckReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsckStatus {
    /// Wire-initiated fsck passes since daemon startup (0 = none yet;
    /// the per-slot counters below are all zero then).
    pub runs: u64,
    /// Slots examined by the last pass.
    pub scanned: u64,
    /// Slots skipped via a matching audit watermark.
    pub skipped_unchanged: u64,
    /// Defects found.
    pub issues: u64,
    /// Defective files quarantined aside as `.bad`.
    pub quarantined: u64,
}

impl FsckStatus {
    fn line(&self) -> String {
        format!(
            "fsck {} {} {} {} {}\n",
            self.runs, self.scanned, self.skipped_unchanged, self.issues, self.quarantined
        )
    }

    fn parse_fields(line: &str) -> Result<FsckStatus, String> {
        let rest = line
            .strip_prefix("fsck ")
            .ok_or_else(|| format!("expected `fsck` line, got `{line}`"))?;
        let v: Vec<u64> = rest
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("bad `fsck` value `{t}`")))
            .collect::<Result<_, _>>()?;
        if v.len() != 5 {
            return Err(format!("bad `fsck` line `{line}`"));
        }
        Ok(FsckStatus {
            runs: v[0],
            scanned: v[1],
            skipped_unchanged: v[2],
            issues: v[3],
            quarantined: v[4],
        })
    }

    /// Serializes to the exact `control fsck-status` reply block.
    pub fn to_text(&self) -> String {
        format!("# hlpower fsck-status v2\n{}end\n", self.line())
    }

    /// Parses a block written by [`FsckStatus::to_text`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn from_text(text: &str) -> Result<FsckStatus, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("# hlpower fsck-status v2") => {}
            other => return Err(format!("bad fsck-status header {other:?}")),
        }
        let status = Self::parse_fields(lines.next().ok_or("missing `fsck` line")?)?;
        match lines.next() {
            Some("end") => {}
            other => return Err(format!("expected `end`, got {other:?}")),
        }
        Ok(status)
    }
}

/// The `control stats` reply: every per-request log line aggregated
/// into monotonic counters. All counts are since daemon startup, so a
/// scraper diffing two snapshots gets rates without daemon-side state.
/// Rendered line-oriented and exact ([`StatsSnapshot::to_text`] /
/// [`StatsSnapshot::from_text`]) like every other codec.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (admitted, parked, and rejected alike).
    pub conns_accepted: u64,
    /// Connections currently open.
    pub conns_active: u64,
    /// Connections parked at capacity and answered with a `busy` line.
    pub busy: u64,
    /// Connections refused outright (admission queue also full).
    pub rejected: u64,
    /// Requests shed by a per-verb in-flight cap.
    pub shed: u64,
    /// High-water mark of the parked-connection queue.
    pub queued_peak: u64,
    /// Per-verb counters, indexed like [`STAT_VERBS`].
    pub verbs: [VerbStats; 4],
    /// `batch` frames served.
    pub batches: u64,
    /// Jobs carried inside those frames.
    pub batch_jobs: u64,
    /// Largest frame served.
    pub batch_largest: u64,
    /// Artifact-store hits summed over prepared/netlist/sim lookups.
    pub store_hits: u64,
    /// Artifact-store misses summed the same way.
    pub store_misses: u64,
    /// Last `store fsck` sweep (see [`FsckStatus`]).
    pub fsck: FsckStatus,
}

impl StatsSnapshot {
    /// Serializes to the exact `control stats` reply block.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# hlpower stats v2\n");
        out.push_str(&format!(
            "conns {} {} {} {} {} {}\n",
            self.conns_accepted,
            self.conns_active,
            self.busy,
            self.rejected,
            self.shed,
            self.queued_peak
        ));
        for (name, v) in STAT_VERBS.iter().zip(&self.verbs) {
            out.push_str(&format!(
                "verb {name} {} {} {} {} {} {} {} {} {} {}\n",
                v.requests,
                v.errors,
                v.bytes_in,
                v.bytes_out,
                v.latency[0],
                v.latency[1],
                v.latency[2],
                v.latency[3],
                v.latency[4],
                v.latency[5],
            ));
        }
        out.push_str(&format!(
            "batches {} {} {}\n",
            self.batches, self.batch_jobs, self.batch_largest
        ));
        out.push_str(&format!(
            "store {} {}\n",
            self.store_hits, self.store_misses
        ));
        out.push_str(&self.fsck.line());
        out.push_str("end\n");
        out
    }

    /// Parses a block written by [`StatsSnapshot::to_text`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn from_text(text: &str) -> Result<StatsSnapshot, String> {
        fn ints(key: &str, line: &str, want: usize) -> Result<Vec<u64>, String> {
            let rest = line
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| format!("expected `{key}` line, got `{line}`"))?;
            let v: Vec<u64> = rest
                .split_whitespace()
                .map(|t| t.parse().map_err(|_| format!("bad `{key}` value `{t}`")))
                .collect::<Result<_, _>>()?;
            if v.len() != want {
                return Err(format!("bad `{key}` line `{line}`"));
            }
            Ok(v)
        }
        let mut lines = text.lines();
        let mut next = |what: &str| -> Result<&str, String> {
            lines.next().ok_or_else(|| format!("missing `{what}` line"))
        };
        match next("header")? {
            "# hlpower stats v2" => {}
            other => return Err(format!("bad stats header `{other}`")),
        }
        let c = ints("conns", next("conns")?, 6)?;
        let mut snap = StatsSnapshot {
            conns_accepted: c[0],
            conns_active: c[1],
            busy: c[2],
            rejected: c[3],
            shed: c[4],
            queued_peak: c[5],
            ..StatsSnapshot::default()
        };
        for (i, name) in STAT_VERBS.iter().enumerate() {
            let v = ints(&format!("verb {name}"), next(name)?, 10)?;
            snap.verbs[i] = VerbStats {
                requests: v[0],
                errors: v[1],
                bytes_in: v[2],
                bytes_out: v[3],
                latency: [v[4], v[5], v[6], v[7], v[8], v[9]],
            };
        }
        let b = ints("batches", next("batches")?, 3)?;
        (snap.batches, snap.batch_jobs, snap.batch_largest) = (b[0], b[1], b[2]);
        let s = ints("store", next("store")?, 2)?;
        (snap.store_hits, snap.store_misses) = (s[0], s[1]);
        snap.fsck = FsckStatus::parse_fields(next("fsck")?)?;
        match next("end")? {
            "end" => {}
            other => return Err(format!("expected `end`, got `{other}`")),
        }
        Ok(snap)
    }
}

// ---- transport -------------------------------------------------------------

/// A daemon address: a unix-domain socket path or a TCP `host:port`.
/// [`Endpoint::parse`] classifies a CLI string: anything containing `/`
/// is a socket path; otherwise a `:` makes it TCP; otherwise it is a
/// bare socket filename.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP address in `host:port` form.
    Tcp(String),
}

impl Endpoint {
    /// Classifies a CLI address string (see the type docs).
    pub fn parse(s: &str) -> Endpoint {
        if !s.contains('/') && s.contains(':') {
            Endpoint::Tcp(s.to_string())
        } else {
            Endpoint::Unix(PathBuf::from(s))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "{a}"),
        }
    }
}

// ---- client ----------------------------------------------------------------

/// Why a remote request failed.
#[derive(Debug)]
pub enum RequestError {
    /// Connecting or talking to the daemon failed.
    Io(io::Error),
    /// The daemon rejected the request (its error message).
    Remote(String),
    /// The reply did not parse as a report.
    Protocol(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "daemon connection failed: {e}"),
            RequestError::Remote(msg) => write!(f, "daemon refused the request: {msg}"),
            RequestError::Protocol(msg) => write!(f, "malformed daemon reply: {msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// One socket between a client and a daemon, TCP or unix-domain, behind
/// `Read + Write`: the client calls here and
/// [`RemoteStore`](crate::store::RemoteStore) dial one, and the
/// daemon's event loop accepts them.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to the daemon at `endpoint`.
    pub(crate) fn dial(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this host",
            )),
        }
    }

    /// Puts the socket in nonblocking mode, as the daemon's event loop
    /// needs.
    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }

    /// The descriptor the daemon's event loop polls (0 off unix, where
    /// the loop ticks instead of polling).
    pub(crate) fn raw_fd(&self) -> i32 {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            match self {
                Stream::Tcp(s) => s.as_raw_fd(),
                Stream::Unix(s) => s.as_raw_fd(),
            }
        }
        #[cfg(not(unix))]
        {
            0
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Reads the next reply line, terminator trimmed — the one reply reader
/// of every client (the calls here and
/// [`RemoteStore`](crate::store::RemoteStore)). `busy` lines are
/// informational backpressure ticks (a parked connection hears one
/// before its real reply) and are skipped; an `error MSG` line becomes
/// [`RequestError::Remote`] with MSG unescaped; end of stream is an
/// `UnexpectedEof` [`RequestError::Io`].
pub(crate) fn read_reply_line<R: BufRead>(reader: &mut R) -> Result<String, RequestError> {
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-reply",
            )));
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if line == "busy" || line.starts_with("busy ") {
            continue;
        }
        if let Some(msg) = line.strip_prefix("error ") {
            return Err(RequestError::Remote(
                unescape(msg).unwrap_or_else(|_| msg.to_string()),
            ));
        }
        return Ok(line.to_string());
    }
}

/// Reads one `end`-terminated reply block (see [`read_reply_line`] for
/// `busy` and `error` lines). Returns the full block text including
/// `end\n`.
fn read_reply_block<R: BufRead>(reader: &mut R) -> Result<String, RequestError> {
    let mut text = String::new();
    loop {
        let line = read_reply_line(reader)?;
        text.push_str(&line);
        text.push('\n');
        if line == "end" {
            return Ok(text);
        }
    }
}

/// Sends one request to a daemon and returns its report — the client
/// half of the wire protocol (`hlp run/bench --remote`).
///
/// # Errors
///
/// Connection failures, daemon-side rejections, and malformed replies.
pub fn request(endpoint: &Endpoint, req: &JobRequest) -> Result<JobReport, RequestError> {
    let mut conn = Stream::dial(endpoint)?;
    conn.write_all(req.to_line().as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()?;
    let mut reader = BufReader::new(conn);
    let text = read_reply_block(&mut reader)?;
    JobReport::from_text(&text).map_err(RequestError::Protocol)
}

/// Ships `reqs` as one `batch N` frame and reads the N replies in
/// request order — one round-trip for the whole list. Per-job failures
/// (unknown benchmark, bad CDFG) come back as `Err` entries without
/// failing the batch; the outer `Err` is reserved for connection and
/// framing problems.
///
/// The reply stream is the exact concatenation of the N replies the
/// same requests would receive sequentially, so a warm batch is
/// byte-identical to N warm single requests.
///
/// # Errors
///
/// Connection failures, a daemon-side refusal of the frame itself (an
/// empty frame, or one beyond [`MAX_BATCH_JOBS`]; its message starts
/// with [`BATCH_REFUSED`]), and malformed replies.
pub fn request_batch(
    endpoint: &Endpoint,
    reqs: &[JobRequest],
) -> Result<Vec<Result<JobReport, RequestError>>, RequestError> {
    let mut conn = Stream::dial(endpoint)?;
    let mut frame = format!("batch {}\n", reqs.len());
    for req in reqs {
        frame.push_str(&req.to_line());
        frame.push('\n');
    }
    conn.write_all(frame.as_bytes())?;
    conn.flush()?;
    let mut reader = BufReader::new(conn);
    let mut replies = Vec::with_capacity(reqs.len());
    // An empty frame has no job replies, but its refusal is still owed.
    for _ in 0..reqs.len().max(1) {
        match read_reply_block(&mut reader) {
            Ok(text) => replies.push(JobReport::from_text(&text).map_err(RequestError::Protocol)),
            Err(RequestError::Remote(msg)) if msg.starts_with(BATCH_REFUSED) => {
                // The daemon refused the frame itself: there are no
                // per-job replies to read.
                return Err(RequestError::Remote(msg));
            }
            Err(RequestError::Remote(msg)) => replies.push(Err(RequestError::Remote(msg))),
            Err(e) => return Err(e),
        }
    }
    Ok(replies)
}

/// One `control VERB` exchange returning the raw reply block text.
fn control_exchange(endpoint: &Endpoint, verb: &str) -> Result<String, RequestError> {
    let mut conn = Stream::dial(endpoint)?;
    conn.write_all(format!("control {verb}\n").as_bytes())?;
    conn.flush()?;
    read_reply_block(&mut BufReader::new(conn))
}

/// Fetches the daemon's aggregated request counters (`control stats`).
///
/// # Errors
///
/// Connection failures, daemon-side refusals, and malformed replies.
pub fn fetch_stats(endpoint: &Endpoint) -> Result<StatsSnapshot, RequestError> {
    StatsSnapshot::from_text(&control_exchange(endpoint, "stats")?).map_err(RequestError::Protocol)
}

/// Fetches the daemon's last-audit counters (`control fsck-status`).
///
/// # Errors
///
/// Connection failures, daemon-side refusals, and malformed replies.
pub fn fetch_fsck_status(endpoint: &Endpoint) -> Result<FsckStatus, RequestError> {
    FsckStatus::from_text(&control_exchange(endpoint, "fsck-status")?)
        .map_err(RequestError::Protocol)
}

/// Asks the daemon at `endpoint` to shut down gracefully (drain
/// in-flight clients, flush SA shards, unlink its socket) — the client
/// half of `hlp serve --stop`.
///
/// # Errors
///
/// Connection failures (no daemon at the address), daemon-side
/// refusals, and malformed replies.
pub fn stop_daemon(endpoint: &Endpoint) -> Result<(), RequestError> {
    let mut conn = Stream::dial(endpoint)?;
    conn.write_all(b"control stop\n")?;
    conn.flush()?;
    let line = read_reply_line(&mut BufReader::new(conn))?;
    if line.starts_with("ok") {
        Ok(())
    } else {
        Err(RequestError::Protocol(format!(
            "unexpected stop reply `{line}`"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Service;
    use crate::flow;

    #[test]
    fn request_defaults_match_flow_defaults() {
        let req = JobRequest::suite("pr");
        let cfg = req.flow_config(&FlowConfig::default());
        let d = FlowConfig::default();
        assert_eq!(cfg.width, d.width);
        assert_eq!(cfg.sa_width, d.sa_width);
        assert_eq!(cfg.sim_cycles, d.sim_cycles);
        assert_eq!(cfg.sim_seed, d.sim_seed);
        assert_eq!(cfg.port_seed, d.port_seed);
        assert_eq!(cfg.lanes, d.lanes);
        let (_, rc) = req.resolve().unwrap();
        assert_eq!(rc, flow::paper_constraint("pr").unwrap());
    }

    #[test]
    fn escape_roundtrips_awkward_strings() {
        for s in [
            "",
            "plain",
            "with space",
            "line\nbreaks\r\nand\ttabs",
            "back\\slash \\n literal",
            "trailing \\",
            "literal \\u{b} text",
            // Non-ASCII whitespace also splits the tokenizer and must be
            // escaped: vertical tab, form feed, NBSP, line separator.
            "odd\u{b}white\u{c}space\u{a0}every\u{2028}where",
        ] {
            let e = escape(s);
            assert!(
                !e.chars().any(char::is_whitespace),
                "escaped form must survive tokenization: {e:?}"
            );
            assert_eq!(unescape(&e).unwrap(), s);
        }
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
        assert!(unescape("bad\\u").is_err());
        assert!(unescape("bad\\u{12").is_err());
        assert!(unescape("bad\\u{zz}").is_err());
        assert!(unescape("bad\\u{d800}").is_err(), "surrogates rejected");
    }

    /// Minimal deterministic generator (xorshift64*) so the fuzz cases
    /// need no external crates — the same in-file idiom as the netlist
    /// codec fuzzer.
    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn arb_request(seed: u64) -> JobRequest {
        let mut g = Gen(seed.wrapping_add(0x9E3779B97F4A7C15));
        let source = match g.below(3) {
            0 => JobSource::Suite(["pr", "wang", "chem", "we ird\nname"][g.below(4)].to_string()),
            1 => JobSource::CdfgText("cdfg demo\nin a b\nop add t0 = a + b\nout t0\n".to_string()),
            _ => JobSource::CdfgText(format!(
                "junk {} \\ \t \u{b}\u{c}\u{a0}\u{2028} text",
                g.next()
            )),
        };
        let binder = match g.below(5) {
            0 => Binder::Lopass,
            1 => Binder::LopassInterconnect,
            2 => Binder::LopassAnnealed,
            3 => Binder::HlPower {
                alpha: g.below(1000) as f64 / 999.0,
            },
            _ => Binder::HlPowerZeroDelay {
                alpha: 0.1 + g.below(7) as f64 / 3.0,
            },
        };
        let mut req = JobRequest::with_source(source)
            .width(1 + g.below(64))
            .sa_width(1 + g.below(16))
            .binder(binder)
            .cycles(g.next() % 100_000)
            .lanes(g.below(513))
            .sa_mode(
                [
                    SaMode::Precalculated,
                    SaMode::Dynamic,
                    SaMode::ZeroDelayAblation,
                    SaMode::Simulated,
                ][g.below(4)],
            )
            .fsm(g.below(2) == 1);
        req.sim_seed = g.next();
        req.port_seed = g.next();
        if g.below(2) == 0 {
            req = req.constraint(1 + g.below(9), 1 + g.below(9));
        }
        req
    }

    #[test]
    fn request_line_roundtrip_is_exact_and_byte_stable() {
        for seed in 0..256u64 {
            let req = arb_request(seed);
            let line = req.to_line();
            assert!(!line.contains('\n'), "one line: {line:?}");
            let back = JobRequest::parse_line(&line)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{line}"));
            assert_eq!(back, req, "seed {seed}");
            assert_eq!(
                back.to_line(),
                line,
                "seed {seed}: reserialization must be byte-identical"
            );
        }
    }

    #[test]
    fn request_parse_defaults_omitted_fields() {
        let req = JobRequest::parse_line("hlpower-job v1 source=bench:pr").unwrap();
        assert_eq!(req, JobRequest::suite("pr"));
        let custom =
            JobRequest::parse_line("hlpower-job v1 source=bench:pr width=8 constraint=3/1")
                .unwrap();
        assert_eq!(custom.width, 8);
        assert_eq!(custom.constraint, Some((3, 1)));
        assert_eq!(custom.cycles, 1000, "omitted fields keep their defaults");
    }

    #[test]
    fn request_parse_rejects_bad_lines_with_the_offending_key() {
        let err = |line: &str| JobRequest::parse_line(line).unwrap_err();
        assert!(err("nonsense").contains("magic"));
        assert!(err("hlpower-job v2 source=bench:pr").contains("version"));
        assert!(err("hlpower-job v1").contains("source"));
        assert!(err("hlpower-job v1 source=bench:pr width=0").contains("width"));
        assert!(err("hlpower-job v1 source=bench:pr width=x").contains("`x`"));
        assert!(err("hlpower-job v1 source=bench:pr lanes=513").contains("lanes"));
        // Boundary: the slab maximum itself is valid.
        let max = JobRequest::parse_line("hlpower-job v1 source=bench:pr lanes=512").unwrap();
        assert_eq!(max.lanes, gatesim::MAX_SLAB_LANES);
        assert!(err("hlpower-job v1 source=bench:pr binder=foo").contains("binder"));
        assert!(err("hlpower-job v1 source=bench:pr width=4 width=5").contains("duplicate"));
        assert!(err("hlpower-job v1 source=bench:pr nope=1").contains("unknown key"));
        assert!(err("hlpower-job v1 source=weird:pr").contains("source"));
    }

    #[test]
    fn report_roundtrip_is_exact_and_byte_stable() {
        let service = Service::new();
        let req = JobRequest::suite("wang").width(4).sa_width(4).cycles(100);
        let report = service.execute(&req).unwrap();
        let text = report.to_text();
        let back = JobReport::from_text(&text).unwrap();
        assert_eq!(
            back.to_text(),
            text,
            "reserialization must be byte-identical"
        );
        let (a, b) = (&report.result, &back.result);
        assert_eq!(a.name, b.name);
        assert_eq!(a.binder, b.binder);
        assert_eq!(a.luts, b.luts);
        assert_eq!(a.mux, b.mux);
        assert_eq!(a.estimated_sa.to_bits(), b.estimated_sa.to_bits());
        assert_eq!(
            a.power.dynamic_power_mw.to_bits(),
            b.power.dynamic_power_mw.to_bits()
        );
        assert_eq!(a.power.total_transitions, b.power.total_transitions);
        assert_eq!(a.sa_queries, b.sa_queries);
        assert_eq!(back.stats, report.stats);
        assert_eq!(b.bind_time, Duration::ZERO, "wall clock is not wire data");
    }

    #[test]
    fn report_parser_rejects_malformed_blocks() {
        assert!(JobReport::from_text("").is_err());
        assert!(JobReport::from_text("# hlpower report v2\n").is_err());
        let service = Service::new();
        let req = JobRequest::suite("wang").width(4).sa_width(4).cycles(100);
        let good = service.execute(&req).unwrap().to_text();
        // Dropping any single line must fail loudly, never misparse.
        let lines: Vec<&str> = good.lines().collect();
        for skip in 1..lines.len() {
            let mutilated: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            assert!(
                JobReport::from_text(&mutilated).is_err(),
                "dropping line {skip} must not parse"
            );
        }
    }

    #[test]
    fn stats_snapshot_roundtrip_is_exact_and_byte_stable() {
        let mut snap = StatsSnapshot {
            conns_accepted: 17,
            conns_active: 3,
            busy: 5,
            rejected: 2,
            shed: 1,
            queued_peak: 4,
            batches: 6,
            batch_jobs: 48,
            batch_largest: 16,
            store_hits: 1234,
            store_misses: 56,
            fsck: FsckStatus {
                runs: 2,
                scanned: 40,
                skipped_unchanged: 30,
                issues: 3,
                quarantined: 2,
            },
            ..StatsSnapshot::default()
        };
        for (i, v) in snap.verbs.iter_mut().enumerate() {
            let base = (i as u64 + 1) * 100;
            *v = VerbStats {
                requests: base,
                errors: i as u64,
                bytes_in: base * 7,
                bytes_out: base * 9,
                latency: [base, 1, 2, 3, 4, 5],
            };
        }
        let text = snap.to_text();
        let back = StatsSnapshot::from_text(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_text(), text, "byte-identical reserialization");
        // The all-zero snapshot also round-trips (fresh daemon).
        let zero = StatsSnapshot::default();
        assert_eq!(StatsSnapshot::from_text(&zero.to_text()).unwrap(), zero);
    }

    #[test]
    fn stats_snapshot_rejects_malformed_blocks() {
        assert!(StatsSnapshot::from_text("").is_err());
        assert!(StatsSnapshot::from_text("# hlpower stats v2\n").is_err());
        // A block of the previous version, whose `fsck` line also
        // counted fixed slots, is refused by its header.
        let v1 = StatsSnapshot::default()
            .to_text()
            .replace("stats v2", "stats v1")
            .replace("\nfsck 0 0 0 0 0\n", "\nfsck 0 0 0 0 0 0\n");
        assert!(StatsSnapshot::from_text(&v1).is_err());
        let good = StatsSnapshot::default().to_text();
        let lines: Vec<&str> = good.lines().collect();
        for skip in 1..lines.len() {
            let mutilated: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            assert!(
                StatsSnapshot::from_text(&mutilated).is_err(),
                "dropping line {skip} must not parse"
            );
        }
    }

    #[test]
    fn fsck_status_roundtrip_is_exact() {
        let st = FsckStatus {
            runs: 3,
            scanned: 100,
            skipped_unchanged: 90,
            issues: 2,
            quarantined: 1,
        };
        let text = st.to_text();
        assert_eq!(text, "# hlpower fsck-status v2\nfsck 3 100 90 2 1\nend\n");
        assert_eq!(FsckStatus::from_text(&text).unwrap(), st);
        assert_eq!(FsckStatus::from_text(&text).unwrap().to_text(), text);
        assert!(FsckStatus::from_text("# hlpower fsck-status v2\nend\n").is_err());
        // The previous version's block carried a sixth (fixed) count.
        assert!(
            FsckStatus::from_text("# hlpower fsck-status v1\nfsck 3 100 90 2 1 0\nend\n").is_err()
        );
    }

    #[test]
    fn endpoint_classification() {
        assert_eq!(
            Endpoint::parse("/tmp/hlp.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/hlp.sock"))
        );
        assert_eq!(
            Endpoint::parse("localhost:7070"),
            Endpoint::Tcp("localhost:7070".to_string())
        );
        assert_eq!(
            Endpoint::parse("hlp.sock"),
            Endpoint::Unix(PathBuf::from("hlp.sock"))
        );
        assert_eq!(
            Endpoint::parse("./dir:with/colon:path"),
            Endpoint::Unix(PathBuf::from("./dir:with/colon:path"))
        );
    }
}
