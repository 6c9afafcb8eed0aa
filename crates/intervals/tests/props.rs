//! Property-based tests of the interval methods over the full posterior
//! space the evaluation framework can produce.

#[path = "support/slsqp_oracle.rs"]
mod slsqp_oracle;

use kgae_intervals::{clopper_pearson, et_interval, hpd_interval, wilson, BetaPrior};
use proptest::prelude::*;
use slsqp_oracle::slsqp_hpd;

/// Annotation outcomes: n in the framework's working range, τ <= n.
fn outcomes() -> impl Strategy<Value = (u64, u64)> {
    (1u64..600).prop_flat_map(|n| (Just(n), 0..=n))
}

fn priors() -> impl Strategy<Value = BetaPrior> {
    prop_oneof![
        Just(BetaPrior::KERMAN),
        Just(BetaPrior::JEFFREYS),
        Just(BetaPrior::UNIFORM),
    ]
}

fn alphas() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.10), Just(0.05), Just(0.01), 0.005f64..0.2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The defining property (Eq. 8): every credible interval carries
    /// exactly 1-α posterior mass.
    #[test]
    fn credible_intervals_have_exact_coverage(
        (n, tau) in outcomes(),
        prior in priors(),
        alpha in alphas(),
    ) {
        let post = prior.posterior(tau, n);
        for interval in [et_interval(&post, alpha).unwrap(), hpd_interval(&post, alpha).unwrap()] {
            let mass = post.cdf(interval.upper()) - post.cdf(interval.lower());
            prop_assert!(
                (mass - (1.0 - alpha)).abs() < 1e-6,
                "Beta({}, {}), α={alpha}: mass={mass}",
                post.alpha(), post.beta()
            );
        }
    }

    /// Theorem 1: HPD is never wider than ET (minimality among 1-α
    /// intervals implies it in particular for the ET choice).
    #[test]
    fn hpd_no_wider_than_et(
        (n, tau) in outcomes(),
        prior in priors(),
        alpha in alphas(),
    ) {
        let post = prior.posterior(tau, n);
        let hpd = hpd_interval(&post, alpha).unwrap();
        let et = et_interval(&post, alpha).unwrap();
        prop_assert!(hpd.width() <= et.width() + 1e-8);
    }

    /// Theorem 2 (uniqueness) operationally: wherever the paper's SLSQP
    /// formulation converges, it lands on the density-equality solver's
    /// interval.
    #[test]
    fn solver_paths_agree(
        (n, tau) in outcomes(),
        prior in priors(),
        alpha in alphas(),
    ) {
        let post = prior.posterior(tau, n);
        let b = hpd_interval(&post, alpha).unwrap();
        if let Some((l, u)) = slsqp_hpd(&post, alpha) {
            prop_assert!((l - b.lower()).abs() < 1e-5, "[{l}, {u}] vs {b}");
            prop_assert!((u - b.upper()).abs() < 1e-5);
        }
    }

    /// Monotonicity in evidence: more annotations with the same observed
    /// proportion never widen the HPD interval (up to solver noise).
    #[test]
    fn width_shrinks_with_evidence(
        n in 30u64..300,
        frac in 0.0f64..=1.0,
        prior in priors(),
    ) {
        let tau1 = ((n as f64) * frac).round() as u64;
        let tau2 = ((4 * n) as f64 * frac).round() as u64;
        let w1 = hpd_interval(&prior.posterior(tau1, n), 0.05).unwrap().width();
        let w2 = hpd_interval(&prior.posterior(tau2, 4 * n), 0.05).unwrap().width();
        prop_assert!(w2 <= w1 + 1e-6, "n={n}: {w1} -> {w2}");
    }

    /// Wilson stays in [0, 1] and contains the point estimate; its width
    /// decreases in the (possibly fractional) effective sample size.
    #[test]
    fn wilson_properties(
        mu in 0.0f64..=1.0,
        n in 1.0f64..5000.0,
        alpha in alphas(),
    ) {
        let i = wilson(mu, n, alpha).unwrap();
        prop_assert!(i.lower() >= 0.0 && i.upper() <= 1.0);
        prop_assert!(i.contains(mu));
        let wider = wilson(mu, n * 2.0, alpha).unwrap();
        prop_assert!(wider.width() <= i.width() + 1e-12);
    }

    /// Clopper–Pearson dominates the Bayesian intervals in width (it is
    /// the conservative exact interval).
    #[test]
    fn clopper_pearson_is_conservative(
        (n, tau) in outcomes(),
        alpha in alphas(),
    ) {
        let cp = clopper_pearson(tau, n, alpha).unwrap();
        let post = BetaPrior::JEFFREYS.posterior(tau, n);
        let et = et_interval(&post, alpha).unwrap();
        prop_assert!(cp.width() >= et.width() - 1e-9,
            "CP {cp} narrower than ET {et} at tau={tau}, n={n}");
    }

    /// aHPD-style selection: the minimum-width candidate under any prior
    /// subset is no wider than under a smaller subset (adding priors can
    /// only help).
    #[test]
    fn more_priors_never_hurt(
        (n, tau) in outcomes(),
        alpha in alphas(),
    ) {
        let single = hpd_interval(&BetaPrior::JEFFREYS.posterior(tau, n), alpha).unwrap();
        let best3 = BetaPrior::UNINFORMATIVE
            .iter()
            .map(|p| hpd_interval(&p.posterior(tau, n), alpha).unwrap().width())
            .fold(f64::INFINITY, f64::min);
        prop_assert!(best3 <= single.width() + 1e-9);
    }
}
