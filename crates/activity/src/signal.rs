//! Per-node probability primitives.
//!
//! These implement the building blocks of the paper's Section 4:
//! signal probability `P(y)`, the Boolean-difference probability used by
//! Najm's transition-density rule (Eq. 1), and the pairwise
//! (time `t` / `t+T`) joint distribution of Chou–Roy (Eq. 2) under the
//! fanin-independence assumption.

use netlist::TruthTable;

/// Static statistics of a logic signal: probability of being 1 and
/// normalized switching activity (probability that the value differs
/// between two consecutive unit time frames).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SignalStats {
    /// Signal probability `P(y)` in `[0, 1]`.
    pub prob: f64,
    /// Normalized switching activity `s(y)` in `[0, 1]`.
    pub activity: f64,
}

impl SignalStats {
    /// The paper's primary-input assumption: `P = s = 0.5`.
    pub const PRIMARY_INPUT: SignalStats = SignalStats {
        prob: 0.5,
        activity: 0.5,
    };

    /// Creates statistics, clamping both values into `[0, 1]` and capping
    /// `activity` at its feasibility bound `2 * min(P, 1 - P)` (a signal
    /// at probability `P` cannot switch more often than that).
    pub fn new(prob: f64, activity: f64) -> Self {
        let prob = prob.clamp(0.0, 1.0);
        let bound = 2.0 * prob.min(1.0 - prob);
        SignalStats {
            prob,
            activity: activity.clamp(0.0, 1.0).min(bound),
        }
    }

    /// Statistics of a constant signal.
    pub fn constant(value: bool) -> Self {
        SignalStats {
            prob: if value { 1.0 } else { 0.0 },
            activity: 0.0,
        }
    }
}

impl Default for SignalStats {
    fn default() -> Self {
        SignalStats::PRIMARY_INPUT
    }
}

/// Joint distribution of one fanin's values at times `t` and `t + T`,
/// derived from `(P, s)` assuming transitions are symmetric:
/// `p01 = p10 = s/2`, `p11 = P - s/2`, `p00 = 1 - P - s/2`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairDist {
    /// `P(y(t)=0, y(t+T)=0)`.
    pub p00: f64,
    /// `P(y(t)=0, y(t+T)=1)`.
    pub p01: f64,
    /// `P(y(t)=1, y(t+T)=0)`.
    pub p10: f64,
    /// `P(y(t)=1, y(t+T)=1)`.
    pub p11: f64,
}

impl PairDist {
    /// Builds the pair distribution from signal statistics (clamped so all
    /// four entries are non-negative).
    pub fn from_stats(stats: SignalStats) -> Self {
        let s = SignalStats::new(stats.prob, stats.activity);
        let half = s.activity / 2.0;
        PairDist {
            p00: (1.0 - s.prob - half).max(0.0),
            p01: half,
            p10: half,
            p11: (s.prob - half).max(0.0),
        }
    }

    /// A frozen signal: the value cannot change between the two frames.
    pub fn frozen(prob: f64) -> Self {
        let p = prob.clamp(0.0, 1.0);
        PairDist {
            p00: 1.0 - p,
            p01: 0.0,
            p10: 0.0,
            p11: p,
        }
    }

    /// Probability of the `(before, after)` value pair.
    #[inline]
    pub fn get(&self, before: bool, after: bool) -> f64 {
        match (before, after) {
            (false, false) => self.p00,
            (false, true) => self.p01,
            (true, false) => self.p10,
            (true, true) => self.p11,
        }
    }

    /// Marginal probability of the signal being 1 (in either frame —
    /// stationarity makes them equal).
    pub fn prob(&self) -> f64 {
        self.p10 + self.p11
    }

    /// Probability of the signal differing between frames.
    pub fn switch_prob(&self) -> f64 {
        self.p01 + self.p10
    }
}

/// Signal probability of `table` given independent fanin probabilities:
/// `P(f) = Σ_rows [f(row)] · Π_i (row_i ? P_i : 1-P_i)`.
///
/// # Panics
///
/// Panics if `probs.len()` differs from the table's input count.
pub fn signal_probability(table: &TruthTable, probs: &[f64]) -> f64 {
    let n = table.num_inputs();
    assert_eq!(probs.len(), n, "one probability per table input");
    let mut total = 0.0;
    for row in 0..table.num_rows() {
        if table.eval(row) {
            total += row_probability(row, probs);
        }
    }
    total
}

#[inline]
fn row_probability(row: u32, probs: &[f64]) -> f64 {
    let mut p = 1.0;
    for (i, &pi) in probs.iter().enumerate() {
        p *= if row & (1 << i) != 0 { pi } else { 1.0 - pi };
    }
    p
}

/// Probability of the Boolean difference `∂f/∂x_var` being 1, given the
/// probabilities of the *other* fanins (Najm Eq. 1 ingredient). `probs`
/// includes an entry for `var` too (it is ignored), so callers can pass
/// the same slice they use elsewhere.
pub fn boolean_difference_probability(table: &TruthTable, var: usize, probs: &[f64]) -> f64 {
    assert_eq!(probs.len(), table.num_inputs());
    let diff = table.boolean_difference(var);
    let mut rest: Vec<f64> = Vec::with_capacity(probs.len() - 1);
    for (i, &p) in probs.iter().enumerate() {
        if i != var {
            rest.push(p);
        }
    }
    signal_probability(&diff, &rest)
}

/// Najm transition density of a node (paper Eq. 1):
/// `s(y) = Σ_i P(∂y/∂x_i) · s(x_i)`.
pub fn najm_density(table: &TruthTable, fanins: &[SignalStats]) -> f64 {
    assert_eq!(fanins.len(), table.num_inputs());
    let probs: Vec<f64> = fanins.iter().map(|s| s.prob).collect();
    let mut density = 0.0;
    for (i, f) in fanins.iter().enumerate() {
        density += boolean_difference_probability(table, i, &probs) * f.activity;
    }
    density
}

/// Exact probability that the node output differs between frames `t` and
/// `t+T`, given per-fanin pair distributions and fanin independence.
///
/// This is Chou–Roy's simultaneous-switching-aware activity: equal to
/// `2 (P(y) - P(y(t) y(t+T)))` (paper Eq. 2) but computed directly. Only
/// fanins whose `switch_prob` is nonzero (the *switching* fanins) may
/// differ between the frames, so for each `before` row the sum runs over
/// the `2^s` flip sets ("deltas") of the `s` switching fanins:
///
/// * One doubling pass over the fanins in index order forms the
///   probabilities of all `2^s` deltas at once. Each is the product of
///   one factor per fanin, `P(before bit, after bit)`, multiplied left to
///   right from `1.0`.
/// * The deltas that flip the output are then summed in ascending delta
///   order, rows in ascending order.
/// * A row in which no delta flips the output adds nothing, and a row in
///   which a non-switching fanin's factor is 0 adds only zero products,
///   which leave the sum as it is; both are skipped.
///
/// The cost is `2^n · 2^s`.
///
/// # Panics
///
/// Panics if `dists.len()` differs from the table's input count.
pub fn pair_switch_probability(table: &TruthTable, dists: &[PairDist]) -> f64 {
    pair_switch_probability_in(table, dists, &mut SwitchScratch::default())
}

/// Reusable buffers of [`pair_switch_probability`].
#[derive(Default)]
pub(crate) struct SwitchScratch {
    /// `deltas[m]`: the inputs flipped by delta `m`, whose bit `j` is the
    /// `j`-th switching fanin.
    deltas: Vec<u32>,
    /// `probs[m]`: the probability of the current row under delta `m`.
    probs: Vec<f64>,
}

/// [`pair_switch_probability`] on caller-owned buffers.
pub(crate) fn pair_switch_probability_in(
    table: &TruthTable,
    dists: &[PairDist],
    scratch: &mut SwitchScratch,
) -> f64 {
    let n = table.num_inputs();
    assert_eq!(dists.len(), n, "one pair distribution per table input");
    let SwitchScratch { deltas, probs } = scratch;
    let mut switching = 0u32;
    // Rows with a set (`zero_if_set`) or clear (`zero_if_clear`) bit of a
    // non-switching fanin whose stay probability is 0.
    let (mut zero_if_set, mut zero_if_clear) = (0u32, 0u32);
    deltas.clear();
    deltas.push(0);
    for (i, d) in dists.iter().enumerate() {
        if d.switch_prob() > 0.0 {
            switching |= 1 << i;
            for m in 0..deltas.len() {
                deltas.push(deltas[m] | 1 << i);
            }
        } else {
            if d.get(true, true) == 0.0 {
                zero_if_set |= 1 << i;
            }
            if d.get(false, false) == 0.0 {
                zero_if_clear |= 1 << i;
            }
        }
    }
    probs.clear();
    probs.resize(deltas.len(), 0.0);
    let mut total = 0.0;
    for before in 0..table.num_rows() {
        if before & zero_if_set != 0 || !before & zero_if_clear != 0 {
            continue;
        }
        let fb = table.eval(before);
        if deltas[1..]
            .iter()
            .all(|&delta| table.eval(before ^ delta) == fb)
        {
            continue;
        }
        probs[0] = 1.0;
        let mut len = 1;
        for (i, d) in dists.iter().enumerate() {
            let b = before & (1 << i) != 0;
            let stay = d.get(b, b);
            if switching & (1 << i) != 0 {
                let flip = d.get(b, !b);
                for m in 0..len {
                    let p = probs[m];
                    probs[m] = p * stay;
                    probs[m + len] = p * flip;
                }
                len *= 2;
            } else {
                for p in &mut probs[..len] {
                    *p *= stay;
                }
            }
        }
        for (&delta, &p) in deltas.iter().zip(probs.iter()).skip(1) {
            if table.eval(before ^ delta) != fb {
                total += p;
            }
        }
    }
    total
}

/// Chou–Roy normalized switching activity via Eq. 2's
/// `s(y) = 2 (P(y(t)) - P(y(t) y(t+T)))` formulation. Provided for
/// fidelity with the paper; agrees with [`pair_switch_probability`].
pub fn chou_roy_activity(table: &TruthTable, fanins: &[SignalStats]) -> f64 {
    let dists: Vec<PairDist> = fanins.iter().map(|&s| PairDist::from_stats(s)).collect();
    let probs: Vec<f64> = dists.iter().map(|d| d.prob()).collect();
    let p_y = signal_probability(table, &probs);
    // P(y(t) = 1 AND y(t+T) = 1)
    let n = table.num_inputs();
    let mut p_joint = 0.0;
    for before in 0..table.num_rows() {
        if !table.eval(before) {
            continue;
        }
        for after in 0..table.num_rows() {
            if !table.eval(after) {
                continue;
            }
            let mut p = 1.0;
            for (i, d) in dists.iter().enumerate() {
                p *= d.get(before & (1 << i) != 0, after & (1 << i) != 0);
                if p == 0.0 {
                    break;
                }
            }
            p_joint += p;
        }
    }
    let _ = n;
    2.0 * (p_y - p_joint)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn stats_clamp_activity_to_feasible() {
        let s = SignalStats::new(0.9, 0.9);
        assert!((s.activity - 0.2).abs() < EPS, "bound is 2*min(P,1-P)");
        let s = SignalStats::new(0.5, 0.7);
        assert!((s.activity - 0.7).abs() < EPS);
    }

    #[test]
    fn pair_dist_sums_to_one() {
        let d = PairDist::from_stats(SignalStats::new(0.3, 0.4));
        assert!((d.p00 + d.p01 + d.p10 + d.p11 - 1.0).abs() < EPS);
        assert!((d.prob() - 0.3).abs() < EPS);
        assert!((d.switch_prob() - 0.4).abs() < EPS);
    }

    #[test]
    fn probability_of_and() {
        let and2 = TruthTable::and(2);
        assert!((signal_probability(&and2, &[0.5, 0.5]) - 0.25).abs() < EPS);
        assert!((signal_probability(&and2, &[1.0, 0.25]) - 0.25).abs() < EPS);
        let or2 = TruthTable::or(2);
        assert!((signal_probability(&or2, &[0.5, 0.5]) - 0.75).abs() < EPS);
    }

    #[test]
    fn probability_of_xor_always_half_at_half_inputs() {
        for n in 1..=5 {
            let x = TruthTable::xor(n);
            let probs = vec![0.5; n];
            assert!((signal_probability(&x, &probs) - 0.5).abs() < EPS);
        }
    }

    #[test]
    fn boolean_difference_prob_and2() {
        // d(a AND b)/da = b, so its probability is P(b).
        let and2 = TruthTable::and(2);
        let p = boolean_difference_probability(&and2, 0, &[0.3, 0.7]);
        assert!((p - 0.7).abs() < EPS);
    }

    #[test]
    fn najm_on_and2() {
        // s = P(b)·s(a) + P(a)·s(b) = 0.5·0.5 + 0.5·0.5 = 0.5
        let and2 = TruthTable::and(2);
        let s = najm_density(&and2, &[SignalStats::PRIMARY_INPUT; 2]);
        assert!((s - 0.5).abs() < EPS);
    }

    #[test]
    fn najm_on_xor_is_sum_of_densities() {
        let xor2 = TruthTable::xor(2);
        let s = najm_density(&xor2, &[SignalStats::PRIMARY_INPUT; 2]);
        assert!((s - 1.0).abs() < EPS, "Najm ignores simultaneous switching");
    }

    #[test]
    fn chou_roy_on_and2_hand_computed() {
        // P/s = 0.5/0.5 per input: pair entries all 0.25.
        // P(y)=0.25, P(y y') = 0.25² = 0.0625, s = 2(0.25-0.0625) = 0.375.
        let and2 = TruthTable::and(2);
        let stats = [SignalStats::PRIMARY_INPUT; 2];
        let s = chou_roy_activity(&and2, &stats);
        assert!((s - 0.375).abs() < EPS, "got {s}");
        let dists: Vec<PairDist> = stats.iter().map(|&x| PairDist::from_stats(x)).collect();
        let direct = pair_switch_probability(&and2, &dists);
        assert!((direct - 0.375).abs() < EPS);
    }

    #[test]
    fn chou_roy_on_xor2_accounts_for_simultaneous_switching() {
        // XOR flips iff an odd number of inputs flip: 2·(0.5·0.5) = 0.5.
        let xor2 = TruthTable::xor(2);
        let s = chou_roy_activity(&xor2, &[SignalStats::PRIMARY_INPUT; 2]);
        assert!((s - 0.5).abs() < EPS, "got {s}");
    }

    #[test]
    fn eq2_form_matches_direct_enumeration() {
        let tables = [
            TruthTable::and(3),
            TruthTable::or(3),
            TruthTable::xor(3),
            TruthTable::maj3(),
            TruthTable::mux2(),
        ];
        let stats = [
            SignalStats::new(0.3, 0.2),
            SignalStats::new(0.6, 0.5),
            SignalStats::new(0.5, 0.9),
        ];
        for t in &tables {
            let via_eq2 = chou_roy_activity(t, &stats);
            let dists: Vec<PairDist> = stats.iter().map(|&s| PairDist::from_stats(s)).collect();
            let direct = pair_switch_probability(t, &dists);
            assert!(
                (via_eq2 - direct).abs() < 1e-10,
                "{t:?}: {via_eq2} vs {direct}"
            );
        }
    }

    #[test]
    fn frozen_inputs_cannot_switch_output() {
        let and2 = TruthTable::and(2);
        let dists = [PairDist::frozen(0.5), PairDist::frozen(0.9)];
        assert_eq!(pair_switch_probability(&and2, &dists), 0.0);
    }

    #[test]
    fn constant_tables_never_switch() {
        let t = TruthTable::from_fn(2, |_| true);
        let dists = [PairDist::from_stats(SignalStats::PRIMARY_INPUT); 2];
        assert_eq!(pair_switch_probability(&t, &dists), 0.0);
    }
}
