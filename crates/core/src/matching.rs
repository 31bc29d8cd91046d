//! Weighted bipartite matching (Hungarian algorithm).
//!
//! Both binding passes of HLPower are driven by maximum-weight bipartite
//! matching: register binding solves one matching per variable cluster
//! (paper Section 5.1, after \[11\]), and functional-unit binding solves
//! one matching per iteration of Algorithm 1. The solver below is the
//! potential-based Hungarian algorithm over a dense matrix with optional
//! (forbidden) edges. It runs one shortest-augmenting-path search per
//! real row, so a call with `rows` rows and `cols` columns costs
//! O(rows² · max(rows, cols)). Algorithm 1's matrices are short and wide:
//! on the benchmark suite, `U`, the densest control step's 4–15 units,
//! faces `V`, the 38–332 other units.
//!
//! # Why padded rows are skipped
//!
//! The textbook formulation squares the matrix to n × n with zero-weight
//! padded rows and augments each of them too, which costs O(n³) per
//! call. This solver stops after the real rows:
//!
//! - In exact arithmetic a padded row's search ends on the lowest-index
//!   free column, reached straight from the padded row at reduced cost 0
//!   (free columns keep potential 0 and potentials only fall). The
//!   augmentation assigns only that row and never moves a real one.
//! - In floating point, the padded solver sometimes returned a different
//!   matching of equal weight on contrived ties: 96 of 20,000 synthetic
//!   tie-heavy matrices drawn like the tie cases of
//!   `tests/properties.rs::matching_is_optimal`.
//! - It never did so on any of the 17,743 matcher calls the repository
//!   makes: register binding, LOPASS-ic and every HLPower variant, at the
//!   paper and `--fast` configurations, for port seeds 1–6.
//!
//! So the contract is an optimal matching plus unchanged repository
//! results (pinned by `tests/binding_golden.rs`), not bit-equality with
//! the padded solver on arbitrary input.

/// Computes a maximum-weight matching of a bipartite graph given as a
/// dense weight matrix. `weights[r][c] = Some(w)` is an edge of weight
/// `w > 0`; `None` marks an incompatible pair. Rows and columns may have
/// different sizes; unmatchable rows stay unmatched.
///
/// Returns, for every row, the matched column (or `None`).
///
/// The matching maximizes total weight among all matchings; since all
/// edge weights are required to be positive, it is also maximal: no
/// allowed edge joins an unmatched row to an unmatched column. (Among
/// several optimal matchings it need not pick one with the most edges.)
///
/// # Panics
///
/// Panics if any provided weight is not finite or is `<= 0` (zero-weight
/// edges are indistinguishable from "no edge"; scale weights up instead).
///
/// # Examples
///
/// ```
/// use hlpower::matching::max_weight_matching;
/// let w = vec![
///     vec![Some(2.0), Some(1.0)],
///     vec![Some(3.0), None],
/// ];
/// let m = max_weight_matching(&w);
/// assert_eq!(m, vec![Some(1), Some(0)]); // total 1 + 3 beats 2 alone
/// ```
pub fn max_weight_matching(weights: &[Vec<Option<f64>>]) -> Vec<Option<usize>> {
    let rows = weights.len();
    let cols = weights.iter().map(Vec::len).max().unwrap_or(0);
    if rows == 0 || cols == 0 {
        return vec![None; rows];
    }
    for row in weights {
        for w in row.iter().flatten() {
            assert!(
                w.is_finite() && *w > 0.0,
                "edge weights must be finite and positive"
            );
        }
    }
    // n = max(rows, cols) columns: when rows > cols, the padded columns
    // give every row somewhere to go. Missing and forbidden pairs get
    // weight 0 (matching them means "unmatched").
    let n = rows.max(cols);
    let weight =
        |r: usize, c: usize| -> f64 { weights[r].get(c).copied().flatten().unwrap_or(0.0) };

    // Hungarian algorithm for the *minimum*-cost assignment on cost =
    // -weight, using the standard potentials formulation (1-based
    // internal arrays). Only the real rows are augmented; see the module
    // docs for why padding rows up to n would change nothing.
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; rows + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[c] = row matched to column c (1-based; 0 = free)
    let mut way = vec![0usize; n + 1];
    let mut minv = vec![inf; n + 1];
    let mut used = vec![false; n + 1];
    for i in 1..=rows {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(inf);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = -weight(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut result = vec![None; rows];
    for (c, &i) in p[1..=cols].iter().enumerate() {
        // Only report genuine edges: forbidden assignments mean the row
        // is effectively unmatched.
        if i >= 1 && weights[i - 1].get(c).copied().flatten().is_some() {
            result[i - 1] = Some(c);
        }
    }
    result
}

/// Computes a minimum-cost assignment (all rows must be assignable) —
/// the flavour used by the LOPASS baseline when assigning the operations
/// of one control step to free functional units. `costs[r][c] = Some(c)`
/// where lower is better; `None` forbids the pair.
///
/// Returns `None` if some row cannot be assigned a distinct column.
pub fn min_cost_assignment(costs: &[Vec<Option<f64>>]) -> Option<Vec<usize>> {
    let rows = costs.len();
    if rows == 0 {
        return Some(Vec::new());
    }
    let cols = costs.iter().map(Vec::len).max().unwrap_or(0);
    if cols < rows {
        return None;
    }
    // Convert to max-weight: w = (max_cost + 1) - cost, keeping weights
    // positive so the matcher prefers matching every row.
    let max_cost = costs
        .iter()
        .flatten()
        .flatten()
        .fold(0.0f64, |a, &b| a.max(b));
    let weights: Vec<Vec<Option<f64>>> = costs
        .iter()
        .map(|row| {
            let mut w: Vec<Option<f64>> =
                row.iter().map(|c| c.map(|c| max_cost + 1.0 - c)).collect();
            w.resize(cols, None);
            w
        })
        .collect();
    let m = max_weight_matching(&weights);
    let mut out = Vec::with_capacity(rows);
    for r in m {
        out.push(r?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_by_two() {
        let w = vec![vec![Some(5.0), Some(4.0)], vec![Some(4.0), Some(1.0)]];
        let m = max_weight_matching(&w);
        // 4 + 4 = 8 beats 5 + 1 = 6.
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn forbidden_edges_respected() {
        let w = vec![vec![None, Some(1.0)], vec![None, Some(10.0)]];
        let m = max_weight_matching(&w);
        assert_eq!(m[1], Some(1));
        assert_eq!(m[0], None, "only one column is reachable");
    }

    #[test]
    fn rectangular_more_rows() {
        let w = vec![vec![Some(3.0)], vec![Some(2.0)], vec![Some(9.0)]];
        let m = max_weight_matching(&w);
        let matched: Vec<usize> = m
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(r, _)| r)
            .collect();
        assert_eq!(matched, vec![2], "highest weight row takes the only column");
    }

    #[test]
    fn rectangular_more_cols() {
        let w = vec![vec![Some(1.0), Some(5.0), Some(3.0)]];
        assert_eq!(max_weight_matching(&w), vec![Some(1)]);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(max_weight_matching(&[]), Vec::<Option<usize>>::new());
        let w: Vec<Vec<Option<f64>>> = vec![vec![], vec![]];
        assert_eq!(max_weight_matching(&w), vec![None, None]);
    }

    #[test]
    fn cardinality_preferred_with_positive_weights() {
        // Row 0 could grab column 0 (weight 10), starving row 1; total
        // weight favors 9 + 8 = 17.
        let w = vec![vec![Some(10.0), Some(9.0)], vec![Some(8.0), None]];
        let m = max_weight_matching(&w);
        assert_eq!(m, vec![Some(1), Some(0)]);
    }

    #[test]
    fn large_random_matching_is_stable_and_valid() {
        // Deterministic pseudo-random weights; validate matching is a
        // proper partial permutation and compare against brute force on a
        // small instance.
        let n = 7;
        let mut state = 0x12345678u64;
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let w: Vec<Vec<Option<f64>>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let x = rand01();
                        if x < 0.3 {
                            None
                        } else {
                            Some(x)
                        }
                    })
                    .collect()
            })
            .collect();
        let m = max_weight_matching(&w);
        let mut used = vec![false; n];
        let mut total = 0.0;
        for (r, c) in m.iter().enumerate() {
            if let Some(c) = *c {
                assert!(!used[c], "column used twice");
                used[c] = true;
                total += w[r][c].unwrap();
            }
        }
        // brute force over all permutations of 7 columns
        fn brute(w: &[Vec<Option<f64>>], used: &mut Vec<bool>, row: usize) -> f64 {
            if row == w.len() {
                return 0.0;
            }
            // option: leave row unmatched
            let mut best = brute(w, used, row + 1);
            for c in 0..w[row].len() {
                if !used[c] {
                    if let Some(x) = w[row][c] {
                        used[c] = true;
                        best = best.max(x + brute(w, used, row + 1));
                        used[c] = false;
                    }
                }
            }
            best
        }
        let best = brute(&w, &mut vec![false; n], 0);
        assert!(
            (total - best).abs() < 1e-9,
            "hungarian {total} vs brute force {best}"
        );
    }

    #[test]
    fn min_cost_assignment_basic() {
        let c = vec![vec![Some(4.0), Some(1.0)], vec![Some(2.0), Some(8.0)]];
        assert_eq!(min_cost_assignment(&c), Some(vec![1, 0]));
    }

    #[test]
    fn min_cost_assignment_infeasible() {
        let c = vec![vec![Some(1.0), None], vec![Some(1.0), None]];
        assert_eq!(min_cost_assignment(&c), None);
    }

    #[test]
    fn min_cost_assignment_prefers_total() {
        // Greedy would give row0 -> col0 (cost 0) forcing row1 -> col1
        // (cost 10); optimal is 1 + 1.
        let c = vec![vec![Some(0.0), Some(1.0)], vec![Some(1.0), Some(10.0)]];
        assert_eq!(min_cost_assignment(&c), Some(vec![1, 0]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weights_rejected() {
        let w = vec![vec![Some(0.0)]];
        max_weight_matching(&w);
    }
}
