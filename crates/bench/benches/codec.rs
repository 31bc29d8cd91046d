//! Warm artifact-store reads of a mapped 16x16 multiplier netlist,
//! timed through the store's `get` path against reading the same
//! netlist back from its exact text rendering ([`netlist::textio`]).
//! Plain `harness = false` timer (criterion is unavailable offline).
//!
//! Three timings, two asserted floors:
//!
//! * **text read+parse** — the netlist's text file read back with
//!   `parse_netlist_text` plus the structural `check` walk: the cost of
//!   any line-oriented encoding of the artifact.
//! * **binary get+decode** — warm `load_mapped` from a binary store:
//!   the exact codec rebuilding the owned netlist. Still allocates one
//!   name string per node, so the win is real but bounded; the floor
//!   asserted here is conservative (≥ 2x).
//! * **binary get+open** — warm `raw_get` plus `BinReader::open`:
//!   checksum-validated, section-sliced access to the mmap'd bytes with
//!   **no per-node parsing**. This is what the daemon's no-transcode
//!   `store get` serves and what "bounded by the wire, not the parser"
//!   means; the floor asserted against the text parse is ≥ 5x.
//!
//! Min-of-N timing keeps scheduler noise from failing the floors on a
//! loaded machine.
//!
//! ```text
//! cargo bench -p hlpower-bench --bench codec
//! ```

use hlpower::{ArtifactKind, ArtifactStore, Fingerprint, MappedArtifact};
use netlist::binio::{BinReader, KIND_MAPPED};
use std::time::Instant;

/// Best-of-`iters` wall time of `f`, in seconds (after one warm-up).
fn min_secs(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The benchmark subject: a 16x16 array multiplier mapped to 4-LUTs —
/// the store's netlist-artifact hot case, big enough that codec time
/// dominates the fixed per-get syscall cost.
fn mapped_multiplier() -> MappedArtifact {
    let w = 16;
    let mut nl = netlist::Netlist::new("mul16");
    let a: Vec<_> = (0..w).map(|i| nl.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..w).map(|i| nl.add_input(format!("b{i}"))).collect();
    let p = netlist::cells::array_multiplier(&mut nl, "m", &a, &b);
    for (i, s) in p.iter().enumerate() {
        nl.mark_output(format!("p{i}"), *s);
    }
    let mapped = mapper::map(
        &nl,
        &mapper::MapConfig::new(4, mapper::MapObjective::GlitchSa),
    );
    MappedArtifact {
        netlist: mapped.netlist,
        luts: mapped.stats.luts,
        depth: mapped.stats.depth,
        estimated_sa: mapped.stats.estimated_sa,
        registers: 2 * w,
    }
}

fn report(label: &str, secs: f64) {
    println!(
        "codec/warm_mapped_mul16/{label:16} {:10.3} ms/iter  (min of 30)",
        secs * 1e3
    );
}

fn main() {
    let artifact = mapped_multiplier();
    let base = std::env::temp_dir().join(format!("hlpower-codec-bench-{}", std::process::id()));
    let fp = Fingerprint(1);
    let iters = 30;

    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create bench dir");
    let text_path = base.join("mul16.txt");
    std::fs::write(&text_path, netlist::write_netlist_text(&artifact.netlist))
        .expect("write text netlist");
    let text_parse = min_secs(iters, || {
        let text = std::fs::read_to_string(&text_path).expect("read text netlist");
        let back = netlist::parse_netlist_text(&text).expect("exact text parses");
        back.check().expect("valid netlist");
        assert_eq!(back.num_logic(), artifact.luts);
    });
    report("text_read+parse", text_parse);

    let bin_dir = base.join("binary");
    let _ = std::fs::remove_dir_all(&bin_dir);
    let bin_store = ArtifactStore::open(&bin_dir).expect("create bench store");
    bin_store.save_mapped(fp, &artifact);
    let bin_decode = min_secs(iters, || {
        let back = bin_store.load_mapped(fp).expect("warm get hits");
        assert_eq!(back.luts, artifact.luts);
    });
    report("binary_get+decode", bin_decode);

    let name = fp.to_string();
    let bin_open = min_secs(iters, || {
        let data = bin_store
            .raw_get(ArtifactKind::Netlists, &name)
            .expect("warm get hits");
        let r = BinReader::open(&data, KIND_MAPPED, 1).expect("valid container");
        // Touch both sections: metrics and the netlist payload slice.
        assert!(r.section(0).expect("metrics section").len() >= 32);
        assert!(!r.section(1).expect("netlist section").is_empty());
    });
    report("binary_get+open", bin_open);

    let _ = std::fs::remove_dir_all(&base);
    let decode_speedup = text_parse / bin_decode;
    let open_speedup = text_parse / bin_open;
    println!("codec/warm_mapped_mul16/decode_speedup {decode_speedup:7.1}x (floor 2x)");
    println!("codec/warm_mapped_mul16/open_speedup   {open_speedup:7.1}x (floor 5x)");
    assert!(
        decode_speedup >= 2.0,
        "binary warm get+decode must be at least 2x faster than text \
         (text {:.3} ms, binary {:.3} ms, {:.1}x)",
        text_parse * 1e3,
        bin_decode * 1e3,
        decode_speedup
    );
    assert!(
        open_speedup >= 5.0,
        "binary warm open (no per-node parsing) must be at least 5x faster than \
         the text parse (text {:.3} ms, open {:.3} ms, {:.1}x)",
        text_parse * 1e3,
        bin_open * 1e3,
        open_speedup
    );
}
