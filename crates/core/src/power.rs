//! The "virtual Cyclone II" power, area, and timing model.
//!
//! Substitutes for Quartus II timing analysis and the PowerPlay Power
//! Analyzer (paper Section 6.1). All constants are documented and
//! deliberately simple:
//!
//! * **Area** — number of 4-LUTs after technology mapping (the unit the
//!   paper reports) plus register bits.
//! * **Clock period** — `T = overhead + depth × per_level`, the standard
//!   unit-delay timing model with a per-LUT-level delay that folds in
//!   average local routing; Cyclone II-inspired defaults give periods in
//!   the paper's 20–30 ns range for comparable depths.
//! * **Dynamic power** — `P = ½ · C_eff · V² · Σ_n toggles_n / t_sim`,
//!   PowerPlay's own toggle-rate × capacitance formulation with one
//!   effective capacitance per net.
//!
//! Absolute numbers depend on these constants, but every experiment
//! measures LOPASS and HLPower through the *same* model, and the paper's
//! claims are relative (percent changes). Power is proportional to
//! `C_eff · V²`, so the power ratio of two designs does not depend on
//! either constant; it depends on the two delay constants only through
//! the designs' clock periods.

use gatesim::SimStats;

/// Model constants.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Effective switched capacitance per net (logic + average routing),
    /// in farads.
    pub c_eff: f64,
    /// Core supply voltage in volts (Cyclone II: 1.2 V).
    pub vdd: f64,
    /// Delay per LUT level including local routing, in nanoseconds.
    pub lut_level_delay_ns: f64,
    /// Fixed clock overhead (clock tree, FF clk→Q and setup), in
    /// nanoseconds.
    pub clock_overhead_ns: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            c_eff: 220e-15,
            vdd: 1.2,
            lut_level_delay_ns: 0.9,
            clock_overhead_ns: 1.2,
        }
    }
}

/// One design's measured physical characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerReport {
    /// Dynamic power in milliwatts.
    pub dynamic_power_mw: f64,
    /// Clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Average toggle rate over all nets, in millions of transitions per
    /// second (the Figure 3 metric).
    pub avg_toggle_rate_mhz: f64,
    /// Total transitions measured during simulation.
    pub total_transitions: u64,
    /// Glitch share of all transitions.
    pub glitch_fraction: f64,
}

impl PowerModel {
    /// Clock period for a mapped design of the given LUT depth.
    pub fn clock_period_ns(&self, depth: u32) -> f64 {
        self.clock_overhead_ns + depth as f64 * self.lut_level_delay_ns
    }

    /// Evaluates simulation statistics into power numbers. `num_nets` is
    /// the number of toggling-capable nets (LUT outputs, register outputs,
    /// input pins); `depth` is the mapped LUT depth.
    ///
    /// # Panics
    ///
    /// Panics if the simulation ran zero cycles or `num_nets` is 0.
    pub fn evaluate(&self, stats: &SimStats, depth: u32, num_nets: usize) -> PowerReport {
        assert!(stats.cycles > 0, "simulate at least one cycle");
        assert!(num_nets > 0);
        let period_ns = self.clock_period_ns(depth);
        let sim_time_s = stats.cycles as f64 * period_ns * 1e-9;
        let toggles_per_s = stats.total_transitions as f64 / sim_time_s;
        let dynamic_w = 0.5 * self.c_eff * self.vdd * self.vdd * toggles_per_s;
        PowerReport {
            dynamic_power_mw: dynamic_w * 1e3,
            clock_period_ns: period_ns,
            avg_toggle_rate_mhz: toggles_per_s / num_nets as f64 / 1e6,
            total_transitions: stats.total_transitions,
            glitch_fraction: stats.glitch_fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64, transitions: u64, glitches: u64) -> SimStats {
        SimStats {
            cycles,
            total_transitions: transitions,
            functional_transitions: transitions - glitches,
            glitch_transitions: glitches,
            per_node: vec![0; 4],
        }
    }

    #[test]
    fn clock_period_scales_with_depth() {
        let m = PowerModel::default();
        let t10 = m.clock_period_ns(10);
        let t20 = m.clock_period_ns(20);
        assert!((t20 - t10 - 10.0 * m.lut_level_delay_ns).abs() < 1e-12);
        assert!(t10 > m.clock_overhead_ns);
    }

    #[test]
    fn power_proportional_to_toggles() {
        let m = PowerModel::default();
        let a = m.evaluate(&stats(1000, 1_000_000, 100_000), 20, 500);
        let b = m.evaluate(&stats(1000, 2_000_000, 100_000), 20, 500);
        assert!((b.dynamic_power_mw / a.dynamic_power_mw - 2.0).abs() < 1e-9);
        assert!((a.glitch_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn slower_clock_means_less_power_for_same_toggle_count() {
        // Same per-cycle activity at a longer period spreads over more
        // time: fewer transitions per second.
        let m = PowerModel::default();
        let shallow = m.evaluate(&stats(1000, 1_000_000, 0), 10, 500);
        let deep = m.evaluate(&stats(1000, 1_000_000, 0), 40, 500);
        assert!(deep.dynamic_power_mw < shallow.dynamic_power_mw);
        assert!(deep.clock_period_ns > shallow.clock_period_ns);
    }

    #[test]
    fn magnitudes_are_in_the_papers_range() {
        // A chem-sized design: ~10k nets, ~1.5 avg transitions per net per
        // cycle, depth ~28 -> expect hundreds of mW and a ~26 ns period.
        let m = PowerModel::default();
        let r = m.evaluate(&stats(1000, 15_000_000, 6_000_000), 28, 10_000);
        assert!(
            r.dynamic_power_mw > 50.0 && r.dynamic_power_mw < 5000.0,
            "{} mW",
            r.dynamic_power_mw
        );
        assert!(r.clock_period_ns > 20.0 && r.clock_period_ns < 30.0);
        assert!(r.avg_toggle_rate_mhz > 10.0 && r.avg_toggle_rate_mhz < 500.0);
    }
}
