//! Metropolis acceptance criteria for the three exchange types.
//!
//! Each criterion reduces to `P = min(1, exp(-delta))` with a type-specific
//! `delta` derived from detailed balance over the extended ensemble; the
//! uniform draw it is compared against comes from the caller's [`Rng`].

use mdsim::units::beta;
use rng::Rng;

/// Generic Metropolis accept/reject given `delta` (dimensionless).
pub fn metropolis_accept(delta: f64, rng: &mut Rng) -> bool {
    delta <= 0.0 || rng.f64() < (-delta).exp()
}

/// Acceptance probability for a given `delta` (for statistics/analysis).
pub fn acceptance_probability(delta: f64) -> f64 {
    (-delta).exp().min(1.0)
}

/// Temperature exchange between replica `i` at `t_i` with potential energy
/// `e_i` and replica `j` at `t_j` with `e_j` (energies exclude restraints).
///
/// `delta = (beta_j - beta_i)(e_i - e_j)`; swapping is always accepted when
/// the hotter replica holds the lower energy.
pub fn temperature_delta(t_i: f64, e_i: f64, t_j: f64, e_j: f64) -> f64 {
    (beta(t_j) - beta(t_i)) * (e_i - e_j)
}

/// Umbrella (Hamiltonian-bias) exchange at common temperature `t`.
///
/// `u_a_of_b` denotes the bias energy of window `a` evaluated on the
/// coordinates of replica `b`:
/// `delta = beta [ u_i(x_j) + u_j(x_i) - u_i(x_i) - u_j(x_j) ]`.
pub fn umbrella_delta(t: f64, u_i_of_i: f64, u_i_of_j: f64, u_j_of_i: f64, u_j_of_j: f64) -> f64 {
    beta(t) * (u_i_of_j + u_j_of_i - u_i_of_i - u_j_of_j)
}

/// Salt-concentration (general Hamiltonian) exchange at common temperature.
///
/// `e_a_of_b` is the full potential of Hamiltonian `a` (salt concentration
/// of replica `a`) evaluated on the coordinates of replica `b` — the four
/// single-point energies whose computation dominates S-REMD exchange cost.
pub fn hamiltonian_delta(
    t: f64,
    e_i_of_i: f64,
    e_i_of_j: f64,
    e_j_of_i: f64,
    e_j_of_j: f64,
) -> f64 {
    beta(t) * (e_i_of_j + e_j_of_i - e_i_of_i - e_j_of_j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_delta_always_accepts() {
        let mut rng = Rng::seed(1);
        for _ in 0..100 {
            assert!(metropolis_accept(-0.5, &mut rng));
            assert!(metropolis_accept(0.0, &mut rng));
        }
    }

    #[test]
    fn acceptance_rate_matches_probability() {
        let mut rng = Rng::seed(2);
        let delta = 1.2;
        let trials = 50_000;
        let accepted = (0..trials).filter(|_| metropolis_accept(delta, &mut rng)).count();
        let rate = accepted as f64 / trials as f64;
        let expect = acceptance_probability(delta);
        assert!((rate - expect).abs() < 0.01, "rate {rate} vs {expect}");
    }

    #[test]
    fn temperature_favorable_swap() {
        // Cold replica (300 K) has HIGHER energy than hot (400 K): swapping
        // moves high energy to high temperature -> delta <= 0 -> accept.
        let d = temperature_delta(300.0, -100.0, 400.0, -150.0);
        assert!(d <= 0.0, "favorable swap must have non-positive delta: {d}");
        // Reverse situation is penalized.
        let d2 = temperature_delta(300.0, -150.0, 400.0, -100.0);
        assert!(d2 > 0.0);
        assert!((d + d2).abs() < 1e-12, "antisymmetric in the energy difference");
    }

    #[test]
    fn equal_temperatures_always_accept() {
        let d = temperature_delta(350.0, -120.0, 350.0, -80.0);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn temperature_delta_symmetric_under_relabeling() {
        // delta(i,j) == delta(j,i): the pair criterion does not depend on
        // which replica we call "i".
        let d_ij = temperature_delta(300.0, -100.0, 330.0, -90.0);
        let d_ji = temperature_delta(330.0, -90.0, 300.0, -100.0);
        assert!((d_ij - d_ji).abs() < 1e-15);
    }

    #[test]
    fn umbrella_identity_swap_is_free() {
        // If both replicas sit exactly at both windows' centers, the cross
        // terms equal the self terms -> delta = 0.
        let d = umbrella_delta(300.0, 2.0, 3.0, 3.0, 2.0);
        assert!((d - beta_times(300.0, 3.0 + 3.0 - 2.0 - 2.0)).abs() < 1e-12);
        let d0 = umbrella_delta(300.0, 1.0, 1.0, 1.0, 1.0);
        assert_eq!(d0, 0.0);
    }

    fn beta_times(t: f64, x: f64) -> f64 {
        mdsim::units::beta(t) * x
    }

    #[test]
    fn umbrella_swap_toward_natural_windows_is_favorable() {
        // Replica i's coordinates fit window j better and vice versa:
        // cross bias energies lower than self energies -> delta < 0.
        let d = umbrella_delta(300.0, 10.0, 1.0, 1.0, 10.0);
        assert!(d < 0.0);
    }

    #[test]
    fn hamiltonian_delta_matches_umbrella_form() {
        // Same algebraic structure; check numeric agreement.
        let (a, b, c, dd) = (5.0, 2.0, 3.0, 6.0);
        assert_eq!(umbrella_delta(310.0, a, b, c, dd), hamiltonian_delta(310.0, a, b, c, dd));
    }

    #[test]
    fn colder_pairs_accept_less_for_same_energy_gap() {
        // The same unfavorable energy arrangement is harder to accept at
        // lower temperatures (bigger beta difference for the same T ratio).
        let d_cold = temperature_delta(250.0, -150.0, 275.0, -100.0);
        let d_hot = temperature_delta(500.0, -150.0, 550.0, -100.0);
        assert!(d_cold > d_hot, "{d_cold} vs {d_hot}");
        assert!(acceptance_probability(d_cold) < acceptance_probability(d_hot));
    }

    #[test]
    fn probability_in_unit_interval() {
        rng::check(256, |r| {
            let p = acceptance_probability(r.range(-100.0..100.0));
            assert!((0.0..=1.0).contains(&p));
        });
    }

    #[test]
    fn detailed_balance_antisymmetry() {
        rng::check(256, |r| {
            let (t_i, t_j) = (r.range(250.0..450.0), r.range(250.0..450.0));
            let (e_i, e_j) = (r.range(-500.0..500.0), r.range(-500.0..500.0));
            // Swapping back must have the opposite delta.
            let fwd = temperature_delta(t_i, e_i, t_j, e_j);
            let back = temperature_delta(t_i, e_j, t_j, e_i);
            assert!((fwd + back).abs() < 1e-9);
        });
    }
}
