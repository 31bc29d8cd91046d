//! Stable 128-bit fingerprints of flow artifacts.
//!
//! The artifact store ([`crate::store`]) content-addresses every
//! expensive stage output — prepared schedules, mapped netlists,
//! simulation results — by a fingerprint of *everything that determines
//! the artifact*: the CDFG, the resource constraint, the binding, and
//! the [`FlowConfig`](crate::FlowConfig) knobs that reach that stage.
//! Fingerprints therefore must be identical across processes, machines,
//! and shard workers; `std`'s `DefaultHasher` makes no such promise, so
//! this module implements FNV-1a over 128 bits by hand. Each ingredient
//! is written with an explicit domain tag, length-prefixed where
//! variable-sized, so distinct structures can never collide by
//! concatenation.
//!
//! The paper's binder re-estimates the same partial datapaths across
//! binders, seeds, and sweeps; the fingerprint is what lets the store
//! recognize that two runs are asking for the same elaborate→map or
//! simulate work and serve the cached artifact instead.
//!
//! Fingerprints address *content*, never encoding: they are computed
//! from the in-memory artifact's ingredients, not from its serialized
//! bytes, so a store slot keeps its name across codec versions.

use crate::flow::FlowConfig;
use crate::fubind::FuBinding;
use cdfg::{Cdfg, OpKind, ResourceConstraint};
use std::fmt;

/// A stable 128-bit content fingerprint, printed as 32 lowercase hex
/// digits (the store's file-name currency).
///
/// # Examples
///
/// ```
/// use hlpower::fingerprint::Hasher128;
/// let mut h = Hasher128::new("demo");
/// h.write_u64(42);
/// let fp = h.finish();
/// assert_eq!(fp.to_string().len(), 32);
/// let mut h2 = Hasher128::new("demo");
/// h2.write_u64(42);
/// assert_eq!(fp, h2.finish());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:032x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display` (the inverse
    /// of a store file name, for tools that walk a store directory).
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental FNV-1a/128 hasher with typed, domain-tagged writes.
///
/// Stability contract: the byte stream this produces for a given value
/// never changes (it is the artifact store's on-disk key), so any change
/// to a `write_*` method or an ingredient list must be paired with a new
/// domain tag at the call site (which re-keys the affected artifacts).
#[derive(Clone, Debug)]
pub struct Hasher128(u128);

impl Hasher128 {
    /// Starts a hash for one artifact domain. The tag separates key
    /// spaces: a prepared-artifact hash can never collide with a netlist
    /// hash of the same ingredients.
    pub fn new(domain: &str) -> Self {
        let mut h = Hasher128(FNV_OFFSET);
        h.write_bytes(domain.as_bytes());
        h
    }

    /// Absorbs raw bytes, length-prefixed.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.raw(&(bytes.len() as u64).to_le_bytes());
        self.raw(bytes);
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Absorbs a `usize` (as u64, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by bit pattern (total, not numeric, identity:
    /// `-0.0` and `0.0` hash differently, NaNs hash by payload).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Finishes the hash.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.0)
    }
}

fn write_cdfg(h: &mut Hasher128, cdfg: &Cdfg) {
    h.write_str(cdfg.name());
    h.write_usize(cdfg.inputs().len());
    for v in cdfg.inputs() {
        h.write_u64(v.0 as u64);
    }
    h.write_usize(cdfg.outputs().len());
    for v in cdfg.outputs() {
        h.write_u64(v.0 as u64);
    }
    h.write_usize(cdfg.num_ops());
    for (id, op) in cdfg.ops() {
        h.write_u64(id.0 as u64);
        h.write_u64(match op.kind {
            OpKind::Add => 0,
            OpKind::Sub => 1,
            OpKind::Mul => 2,
        });
        h.write_u64(op.inputs[0].0 as u64);
        h.write_u64(op.inputs[1].0 as u64);
        h.write_u64(op.output.0 as u64);
    }
}

/// Order-sensitive structural fingerprint of a CDFG alone (name, port
/// lists, operations with kinds and operands) — the cache-key ingredient
/// that keeps two same-named but structurally different graphs apart.
pub fn cdfg_fingerprint(cdfg: &Cdfg) -> Fingerprint {
    let mut h = Hasher128::new("hlpower/cdfg/v1");
    write_cdfg(&mut h, cdfg);
    h.finish()
}

/// Fingerprint of a **prepared** artifact's inputs: everything the
/// schedule + register binding are a function of — the CDFG, the
/// resource constraint, the resource library latencies, and the register
/// binding's port seed. (`flow::prepare` hard-codes `latch_inputs =
/// false`; the domain tag carries that choice.)
pub fn prepared_fingerprint(cdfg: &Cdfg, rc: &ResourceConstraint, cfg: &FlowConfig) -> Fingerprint {
    let mut h = Hasher128::new("hlpower/prepared/v1:latch_inputs=false");
    write_cdfg(&mut h, cdfg);
    h.write_usize(rc.addsub);
    h.write_usize(rc.mul);
    h.write_u64(cfg.library.addsub_latency as u64);
    h.write_u64(cfg.library.mul_latency as u64);
    h.write_u64(cfg.port_seed);
    h.finish()
}

/// Fingerprint of an **elaborated + technology-mapped** netlist: the
/// prepared artifact it grew from, the FU binding, and the backend knobs
/// that shape the netlist — datapath width, controller style, LUT size,
/// and mapping objective. Simulation knobs are deliberately absent: one
/// mapped netlist serves any number of (seed, lanes, cycles) runs.
pub fn netlist_fingerprint(prepared: Fingerprint, fb: &FuBinding, cfg: &FlowConfig) -> Fingerprint {
    let mut h = Hasher128::new("hlpower/mapped/v1");
    h.write_u64(prepared.0 as u64);
    h.write_u64((prepared.0 >> 64) as u64);
    h.write_usize(fb.fus.len());
    for fu in &fb.fus {
        h.write_u64(match fu.ty {
            cdfg::FuType::AddSub => 0,
            cdfg::FuType::Mul => 1,
        });
        h.write_usize(fu.ops.len());
        for op in &fu.ops {
            h.write_u64(op.0 as u64);
        }
    }
    h.write_usize(cfg.width);
    h.write_usize(cfg.k);
    h.write_u64(match cfg.map_objective {
        mapper::MapObjective::Depth => 0,
        mapper::MapObjective::AreaFlow => 1,
        mapper::MapObjective::GlitchSa => 2,
    });
    h.write_u64(match cfg.control {
        crate::datapath::ControlStyle::External => 0,
        crate::datapath::ControlStyle::Fsm => 1,
    });
    h.finish()
}

/// Fingerprint of a **simulation result**: the mapped netlist it ran on
/// (by provenance fingerprint) plus the vector budget — seed, lane
/// count, and cycle count.
pub fn sim_fingerprint(netlist: Fingerprint, cfg: &FlowConfig) -> Fingerprint {
    let mut h = Hasher128::new("hlpower/sim/v1");
    h.write_u64(netlist.0 as u64);
    h.write_u64((netlist.0 >> 64) as u64);
    h.write_u64(cfg.sim_seed);
    h.write_usize(cfg.lanes);
    h.write_u64(cfg.sim_cycles);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::paper_constraint;

    fn wang() -> Cdfg {
        let p = cdfg::profile("wang").unwrap();
        cdfg::generate(p, p.seed)
    }

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let g = wang();
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig::fast();
        assert_eq!(cdfg_fingerprint(&g), cdfg_fingerprint(&g));
        assert_eq!(
            prepared_fingerprint(&g, &rc, &cfg),
            prepared_fingerprint(&g, &rc, &cfg)
        );
    }

    #[test]
    fn known_answer_pins_the_hash_function() {
        // On-disk keys must never drift: this value was computed once and
        // pins the FNV-1a/128 byte stream. If it changes, existing stores
        // are silently invalidated — bump the domain tags instead.
        let mut h = Hasher128::new("hlpower/test/v1");
        h.write_u64(1);
        h.write_str("abc");
        h.write_f64(0.5);
        assert_eq!(h.finish().to_string(), "0c2510a25beb3928fdfb568a12a01e43");
    }

    #[test]
    fn ingredient_changes_change_the_key() {
        let g = wang();
        let rc = paper_constraint("wang").unwrap();
        let cfg = FlowConfig::fast();
        let base = prepared_fingerprint(&g, &rc, &cfg);
        let other_rc = ResourceConstraint::new(rc.addsub + 1, rc.mul);
        assert_ne!(base, prepared_fingerprint(&g, &other_rc, &cfg));
        let other_seed = FlowConfig {
            port_seed: cfg.port_seed + 1,
            ..cfg.clone()
        };
        assert_ne!(base, prepared_fingerprint(&g, &rc, &other_seed));
        // Knobs that do not reach the front end must NOT re-key it.
        let other_sim = FlowConfig {
            sim_seed: cfg.sim_seed + 1,
            sim_cycles: cfg.sim_cycles * 2,
            ..cfg.clone()
        };
        assert_eq!(base, prepared_fingerprint(&g, &rc, &other_sim));
        // A regenerated graph with the same name re-keys everything.
        let p = cdfg::profile("wang").unwrap();
        let g2 = cdfg::generate(p, 12345);
        assert_ne!(base, prepared_fingerprint(&g2, &rc, &cfg));
    }

    #[test]
    fn sim_key_separates_vector_budgets() {
        let cfg = FlowConfig::fast();
        let nfp = Fingerprint(42);
        let base = sim_fingerprint(nfp, &cfg);
        assert_ne!(
            base,
            sim_fingerprint(
                nfp,
                &FlowConfig {
                    lanes: cfg.lanes + 1,
                    ..cfg.clone()
                }
            )
        );
        assert_ne!(
            base,
            sim_fingerprint(
                nfp,
                &FlowConfig {
                    sim_seed: 99,
                    ..cfg.clone()
                }
            )
        );
        // Map-stage knobs must not re-key a simulation of the same netlist.
        assert_eq!(
            base,
            sim_fingerprint(
                nfp,
                &FlowConfig {
                    port_seed: 123,
                    ..cfg
                }
            )
        );
    }

    #[test]
    fn display_parses_back() {
        let fp = Fingerprint(0x0123456789abcdef0011223344556677);
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(Fingerprint::parse(""), None);
    }
}
