//! Output checks. Each compares a program output against a value the
//! benchmark computes apart from the program, or against a property the
//! method must have. Every check returns `Err` with a message when the
//! output is wrong; the unit tests below feed each one a deliberately
//! wrong output to show that it bites.

use ei_sched::des::RunStats;

/// Constants of the Fig. 1 service the closed form is built from, in
/// Joules (calibrated abstract units included).
#[derive(Debug, Clone, Copy)]
pub struct Fig1Constants {
    /// Declared probability that a request hits the cache.
    pub p_hit: f64,
    /// Declared probability that a hit is served by the local tier.
    pub p_local: f64,
    /// Fixed local lookup cost.
    pub lookup: f64,
    /// Local tier cost per response byte.
    pub local_per_byte: f64,
    /// Remote tier cost per response byte, NIC transfer excluded.
    pub remote_per_byte: f64,
    /// NIC cost per byte.
    pub nic_per_byte: f64,
    /// NIC cost per packet (one per remote transfer).
    pub nic_fixed: f64,
    /// Fixed cost of one conv2d block.
    pub conv_fixed: f64,
    /// Cost per non-zero element of one conv2d block.
    pub conv_per_elem: f64,
    /// Calibrated Joules of one `relu` unit.
    pub relu: f64,
    /// Calibrated Joules of one `mlp` unit.
    pub mlp: f64,
    /// Response length served from cache.
    pub response_len: f64,
}

/// Expected energy of one Fig. 1 request, in plain arithmetic:
/// `p_hit·lookup + (1−p_hit)·(cnn + insert)`, with the lookup's local and
/// remote paths mixed by `p_local`.
pub fn fig1_closed_form(c: &Fig1Constants, image_size: f64, image_zeros: f64) -> f64 {
    let r = c.response_len;
    let local = c.local_per_byte * r;
    let remote = (c.remote_per_byte + c.nic_per_byte) * r + c.nic_fixed;
    let lookup = c.lookup + c.p_local * local + (1.0 - c.p_local) * remote;
    let nonzero = (image_size - image_zeros).max(0.0);
    let cnn = 8.0 * (c.conv_fixed + c.conv_per_elem * nonzero) + 8.0 * c.relu + 16.0 * c.mlp;
    let insert = c.local_per_byte * r + c.nic_per_byte * r + c.nic_fixed;
    c.p_hit * lookup + (1.0 - c.p_hit) * (cnn + insert)
}

/// `got` equals `want` to a relative `tol`.
pub fn rel_close(what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    let err = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
    if got.is_finite() && err <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {got:e}, expected {want:e} (relative error {err:e} > {tol:e})"
        ))
    }
}

/// A Monte-Carlo mean of `n` samples lies within four standard errors of
/// the exact mean (`exact_sd` is the exact distribution's standard
/// deviation). A point distribution must match to rounding.
pub fn mc_within_4se(
    what: &str,
    mc_mean: f64,
    exact_mean: f64,
    exact_sd: f64,
    n: usize,
) -> Result<(), String> {
    let se = exact_sd / (n as f64).sqrt();
    let slack = 4.0 * se + 1e-12 * exact_mean.abs();
    if (mc_mean - exact_mean).abs() <= slack {
        Ok(())
    } else {
        Err(format!(
            "{what}: Monte-Carlo mean {mc_mean:e} is {:.2} standard errors from the exact mean {exact_mean:e}",
            (mc_mean - exact_mean).abs() / se.max(f64::MIN_POSITIVE)
        ))
    }
}

/// A certificate bound is finite and ordered.
pub fn cert_ordered(what: &str, lower: f64, upper: f64) -> Result<(), String> {
    if lower.is_finite() && upper.is_finite() && lower <= upper {
        Ok(())
    } else {
        Err(format!(
            "{what}: certified bound [{lower:e}, {upper:e}] is not finite and ordered"
        ))
    }
}

/// A concrete evaluation lies inside its certified bound.
pub fn cert_admits(what: &str, lower: f64, upper: f64, value: f64) -> Result<(), String> {
    if value >= lower && value <= upper {
        Ok(())
    } else {
        Err(format!(
            "{what}: concrete {value:e} J escapes certified [{lower:e}, {upper:e}] J"
        ))
    }
}

/// The rule id a lint fixture is named for: `e001_unit_mismatch` → `E001`.
pub fn fixture_rule(file_stem: &str) -> String {
    file_stem
        .split('_')
        .next()
        .unwrap_or("")
        .to_ascii_uppercase()
}

/// A lint fixture yields exactly the rule its file is named for.
pub fn exactly_rule(what: &str, expected: &str, got: &[&str]) -> Result<(), String> {
    if !got.is_empty() && got.iter().all(|r| *r == expected) {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected only rule {expected}, got {got:?}"
        ))
    }
}

/// Printing a parsed print is a fixed point.
pub fn fixed_point(what: &str, first: &str, second: &str) -> Result<(), String> {
    if first == second {
        Ok(())
    } else {
        let at = first
            .bytes()
            .zip(second.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(first.len().min(second.len()));
        Err(format!(
            "{what}: print → parse → print differs at byte {at}"
        ))
    }
}

/// Values are non-decreasing in order.
pub fn non_decreasing(what: &str, values: &[f64]) -> Result<(), String> {
    match values.windows(2).position(|w| w[1] < w[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: decreases at step {i}: {:e} → {:e}",
            values[i],
            values[i + 1]
        )),
    }
}

/// A DES run conserves its requests and splits its energy exactly.
pub fn des_accounting(s: &RunStats) -> Result<(), String> {
    let accounted = s.completed + s.shed + s.unserved;
    if s.arrivals != accounted {
        return Err(format!(
            "{}: arrivals {} != completed {} + shed {} + unserved {}",
            s.policy, s.arrivals, s.completed, s.shed, s.unserved
        ));
    }
    rel_close(
        &format!("{}: total energy vs dynamic + idle", s.policy),
        s.total_energy_j,
        s.dyn_energy_j + s.idle_energy_j,
        1e-12,
    )
}

/// Two simulations of the same seed are bit-identical.
pub fn des_replay(a: &RunStats, b: &RunStats) -> Result<(), String> {
    let bits = |s: &RunStats| {
        (
            s.total_energy_j.to_bits(),
            s.j_per_request.to_bits(),
            s.p99_ms.to_bits(),
        )
    };
    if a == b && bits(a) == bits(b) {
        Ok(())
    } else {
        Err(format!("{}: replay of the same seed differs", a.policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_sched::des::{run_cluster_sim, ClusterSpec, SimConfig, UtilizationLb};

    fn consts() -> Fig1Constants {
        Fig1Constants {
            p_hit: 0.25,
            p_local: 0.8,
            lookup: 40e-6,
            local_per_byte: 400e-9,
            remote_per_byte: 3e-6,
            nic_per_byte: 4e-9,
            nic_fixed: 1.5e-6,
            conv_fixed: 1e-3,
            conv_per_elem: 2e-8,
            relu: 1e-7,
            mlp: 1.2e-4,
            response_len: 1024.0,
        }
    }

    #[test]
    fn closed_form_rejects_one_part_in_a_million() {
        let want = fig1_closed_form(&consts(), 16384.0, 4096.0);
        assert!(rel_close("fig1", want, want, 1e-9).is_ok());
        assert!(rel_close("fig1", want * (1.0 + 1e-6), want, 1e-9).is_err());
        assert!(rel_close("fig1", f64::NAN, want, 1e-9).is_err());
    }

    #[test]
    fn closed_form_matches_hand_arithmetic() {
        let c = consts();
        // Miss path alone: p_hit = 0.
        let miss = Fig1Constants { p_hit: 0.0, ..c };
        let cnn = 8.0 * (1e-3 + 2e-8 * 12288.0) + 8.0 * 1e-7 + 16.0 * 1.2e-4;
        let insert = 400e-9 * 1024.0 + 4e-9 * 1024.0 + 1.5e-6;
        assert!(rel_close(
            "miss",
            fig1_closed_form(&miss, 16384.0, 4096.0),
            cnn + insert,
            1e-12
        )
        .is_ok());
        // Zeros beyond the size clamp to no conv work.
        let clamped = fig1_closed_form(&miss, 100.0, 500.0);
        assert!(rel_close(
            "clamp",
            clamped,
            fig1_closed_form(&miss, 100.0, 100.0),
            1e-15
        )
        .is_ok());
    }

    #[test]
    fn mc_check_rejects_a_biased_mean() {
        assert!(mc_within_4se("mc", 1.0 + 3.9 * 0.01, 1.0, 1.0, 10_000).is_ok());
        assert!(mc_within_4se("mc", 1.0 + 4.1 * 0.01, 1.0, 1.0, 10_000).is_err());
        // A point distribution tolerates rounding only.
        assert!(mc_within_4se("mc", 2.0 * (1.0 + 1e-15), 2.0, 0.0, 64).is_ok());
        assert!(mc_within_4se("mc", 2.0 * (1.0 + 1e-9), 2.0, 0.0, 64).is_err());
    }

    #[test]
    fn cert_checks_reject_a_bound_tightened_past_a_concrete_value() {
        let concrete = 0.75;
        assert!(cert_admits("f", 0.5, 1.0, concrete).is_ok());
        // Upper bound tightened just below the concrete evaluation.
        assert!(cert_admits("f", 0.5, f64::from_bits(concrete.to_bits() - 1), concrete).is_err());
        // Lower bound tightened just above it.
        assert!(cert_admits("f", f64::from_bits(concrete.to_bits() + 1), 1.0, concrete).is_err());
        assert!(cert_ordered("f", 1.0, 0.5).is_err());
        assert!(cert_ordered("f", 0.0, f64::INFINITY).is_err());
        assert!(cert_ordered("f", 0.0, 1.0).is_ok());
    }

    #[test]
    fn fixture_rule_check_rejects_a_swapped_rule_id() {
        assert_eq!(fixture_rule("e001_unit_mismatch"), "E001");
        assert_eq!(fixture_rule("w003_composition"), "W003");
        assert!(exactly_rule("f", "E001", &["E001"]).is_ok());
        assert!(exactly_rule("f", "E001", &["E002"]).is_err());
        assert!(exactly_rule("f", "E001", &["E001", "W001"]).is_err());
        assert!(exactly_rule("f", "E001", &[]).is_err());
    }

    #[test]
    fn fixed_point_and_monotone_checks_bite() {
        assert!(fixed_point("p", "abc", "abc").is_ok());
        assert!(fixed_point("p", "abc", "abd").is_err());
        assert!(non_decreasing("m", &[1.0, 1.0, 2.0]).is_ok());
        assert!(non_decreasing("m", &[1.0, 2.0, 2.0 - 1e-12]).is_err());
    }

    fn small_run() -> RunStats {
        let spec = ClusterSpec::mixed(2, 2);
        let cfg = SimConfig {
            n_requests: 2_000,
            ..SimConfig::default()
        };
        let plan = ei_hw::faults::FaultPlan::healthy(7);
        let mut lb = UtilizationLb::new(spec.classes.clone(), spec.assignment.clone(), 2);
        run_cluster_sim(&spec, &cfg, &plan, &mut lb).stats
    }

    #[test]
    fn des_checks_reject_a_conservation_count_off_by_one() {
        let s = small_run();
        assert!(des_accounting(&s).is_ok());
        let mut off = s.clone();
        off.completed += 1;
        assert!(des_accounting(&off).is_err());
        let mut off = s.clone();
        off.shed = off.shed.wrapping_sub(1);
        assert!(des_accounting(&off).is_err());
        let mut energy = s.clone();
        energy.total_energy_j *= 1.0 + 1e-9;
        assert!(des_accounting(&energy).is_err());
        assert!(des_replay(&s, &s.clone()).is_ok());
        let mut drift = s.clone();
        drift.total_energy_j = f64::from_bits(drift.total_energy_j.to_bits() + 1);
        assert!(des_replay(&s, &drift).is_err());
    }
}
