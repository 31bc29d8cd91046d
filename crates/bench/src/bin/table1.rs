//! Regenerates **Table 1**: benchmark profiles (PIs, POs, adds, mults,
//! edges). PI/PO/add/mult counts match the paper exactly by construction;
//! the edge column shows the paper's count next to our structural count
//! (`2·ops + POs`; the original CDFG format counted additional edge kinds
//! that the paper does not define, so the column is shown, not matched).
//!
//! ```text
//! cargo run --release -p hlpower-bench --bin table1
//! ```

use cdfg::FuType;
use hlpower_bench::render_table;

fn main() {
    let mut rows = Vec::new();
    for p in &cdfg::PROFILES {
        let g = cdfg::generate(p, p.seed);
        g.check().expect("generated benchmark must be valid");
        rows.push(vec![
            p.name.to_string(),
            g.inputs().len().to_string(),
            g.outputs().len().to_string(),
            g.op_count(FuType::AddSub).to_string(),
            g.op_count(FuType::Mul).to_string(),
            format!("{}", p.paper_edges),
            g.num_edges().to_string(),
            g.critical_path().to_string(),
        ]);
    }
    println!("\nTable 1: Benchmark Profiles");
    println!(
        "{}",
        render_table(
            &[
                "Bench",
                "PIs",
                "POs",
                "Adds",
                "Mults",
                "Edges(paper)",
                "Edges(ours)",
                "CritPath"
            ],
            &rows
        )
    );
}
