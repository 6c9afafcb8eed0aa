//! Highest Posterior Density (HPD) credible intervals (paper §4.3).
//!
//! The `1-α` HPD interval is the *shortest* interval with posterior mass
//! `1-α` (Theorem 1) and is unique (Theorem 2), so one solver serves
//! every caller. Cases by posterior shape:
//!
//! * **Unimodal** (`α > 1, β > 1`, the standard case `0 < τ < n`): the
//!   paper states the problem as a constrained minimization of `u - l`
//!   under `F(u) - F(l) = 1 - α` and solves it with SLSQP. Its unique
//!   optimum satisfies the first-order condition `f(l) = f(u)`, which is
//!   solved here in one dimension by Brent root finding. The solve is a
//!   pure function of the posterior, so repeated calls return the same
//!   bits. The paper's SLSQP formulation survives as a test oracle
//!   (`slsqp_hpd` in the dev-only `kgae-optim` crate).
//! * **Monotone increasing** (all-correct limiting case, Eq. 10):
//!   `[qBeta(α), 1]`.
//! * **Monotone decreasing** (all-incorrect limiting case, Eq. 11):
//!   `[0, qBeta(1-α)]`.
//! * **Uniform**: every width-`(1-α)` interval is an HPD set; the central
//!   one is returned (it coincides with ET, Theorem 3's degenerate case).
//! * **U-shaped**: no single HPD interval exists — an error (unreachable
//!   through the evaluation framework, which annotates ≥ 1 triple).

use crate::error::IntervalError;
use crate::et::{check_alpha, et_interval};
use crate::root::{brent, RootConfig};
use crate::types::Interval;
use kgae_stats::dist::{Beta, BetaShape};

/// Computes the `1-α` HPD interval: Brent on the density-equality
/// condition in the standard unimodal case, closed forms Eq. 10/11 in the
/// limiting cases.
pub fn hpd_interval(posterior: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    check_alpha(alpha)?;
    match posterior.shape() {
        BetaShape::Increasing => increasing_case(posterior, alpha),
        BetaShape::Decreasing => decreasing_case(posterior, alpha),
        BetaShape::Uniform => et_interval(posterior, alpha),
        BetaShape::UShaped => Err(IntervalError::UShapedPosterior {
            alpha: posterior.alpha(),
            beta: posterior.beta(),
        }),
        BetaShape::Unimodal => unimodal_case(posterior, alpha),
    }
}

/// Certified lower bound on the `1-α` HPD width of a *unimodal*
/// posterior, from `1 - α = ∫_l^u f ≤ (u - l)·f(mode)`:
/// `width ≥ (1-α) / f(mode)`. One density evaluation. `None` when the
/// posterior is not unimodal.
///
/// This is the reference form of the bound whose contrapositive
/// short-circuits [`hpd_width_achievable`]; the evaluation framework
/// consumes the bound through that predicate rather than calling this
/// directly, but the inequality (and its tests below) document why the
/// short-circuit is sound.
#[must_use]
pub fn hpd_width_lower_bound(posterior: &Beta, alpha: f64) -> Option<f64> {
    let mode = posterior.mode()?;
    let f_max = posterior.pdf(mode);
    if !(f_max.is_finite() && f_max > 0.0) {
        return None;
    }
    Some((1.0 - alpha) / f_max)
}

/// Exact stopping-achievability predicate: can **some** interval of
/// width `w` hold `1-α` posterior mass? Equivalently, is the `1-α` HPD
/// width at most `w`?
///
/// For a unimodal posterior the best-placed window of width `w` either
/// straddles the mode with `f(l) = f(l+w)` (found by Brent on the
/// monotone density difference) or abuts the boundary nearest the mode;
/// its mass is then two CDF evaluations. Monotone and uniform shapes
/// have closed-form best windows. U-shaped posteriors return `true`
/// (nothing can be certified, so the caller must construct and check).
///
/// A unimodal call tries two cheap exits before the root find. The
/// necessary condition `w·f(mode) ≥ 1-α` (the contrapositive of
/// Theorem 1's width bound) rejects with one density evaluation; the
/// mode-centred window, a sufficient condition, accepts with two CDF
/// evaluations. Neither exit is the common case on cluster posteriors:
/// over 517,260 unimodal calls on the `engine_cluster` perfbench
/// workload (5 cycles of 512 TWCS campaigns), the `f(mode)` bound
/// rejected 12%, the mode-centred window accepted 13%, and 75% went on
/// to the Brent solve plus two more CDF evaluations.
#[must_use]
pub fn hpd_width_achievable(post: &Beta, alpha: f64, w: f64) -> bool {
    if w >= 1.0 {
        return true;
    }
    if w <= 0.0 {
        return false;
    }
    let target = 1.0 - alpha;
    match post.shape() {
        BetaShape::Uniform => w >= target,
        BetaShape::UShaped => true,
        BetaShape::Increasing => 1.0 - post.cdf(1.0 - w) >= target,
        BetaShape::Decreasing => post.cdf(w) >= target,
        BetaShape::Unimodal => {
            let mode = post.mode().expect("unimodal posterior has a mode");
            // Necessary condition: mass in any width-w window ≤ w·f(mode).
            if w * post.pdf(mode) < target {
                return false;
            }
            // Sufficient condition: the mode-centered window is *a*
            // width-w window, so its mass lower-bounds the best one —
            // two CDF evaluations, no root find.
            let c_lo = (mode - 0.5 * w).clamp(0.0, 1.0 - w);
            if post.cdf(c_lo + w) - post.cdf(c_lo) >= target {
                return true;
            }
            // Best window position: f(l) = f(l+w) around the mode, or a
            // boundary-anchored window when the mode sits within w of a
            // boundary.
            let lo = (mode - w).max(0.0);
            let hi = mode.min(1.0 - w);
            let h = |l: f64| post.pdf(l) - post.pdf(l + w);
            let l = if hi <= lo {
                // Window wider than the space around the mode allows:
                // anchor at the nearer boundary.
                lo.min(hi.max(0.0)).clamp(0.0, 1.0 - w)
            } else {
                let h_lo = h(lo);
                let h_hi = h(hi);
                if h_lo >= 0.0 {
                    lo // left-anchored (mode close to 0)
                } else if h_hi <= 0.0 {
                    hi // right-anchored (mode close to 1)
                } else {
                    brent(
                        h,
                        lo,
                        hi,
                        RootConfig {
                            xtol: 1e-12,
                            max_iter: 200,
                        },
                    )
                    .unwrap_or(0.5 * (lo + hi))
                }
            };
            post.cdf(l + w) - post.cdf(l) >= target
        }
    }
}

/// Eq. 10: exponentially increasing posterior (τ = n under an
/// uninformative prior) — the highest-density region abuts 1.
fn increasing_case(post: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    Ok(Interval::new(post.quantile(alpha)?, 1.0))
}

/// Eq. 11: exponentially decreasing posterior (τ = 0) — the region abuts
/// 0.
fn decreasing_case(post: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    Ok(Interval::new(0.0, post.quantile(1.0 - alpha)?))
}

/// The standard case: the optimal interior interval satisfies `f(l) = f(u)`
/// with `u(l) = F⁻¹(F(l) + 1 - α)` (first-order conditions of Theorem 1's
/// Lagrangian). `h(l) = f(l) - f(u(l))` brackets a sign change over
/// `[0, F⁻¹(α)]` for any unimodal posterior, so Brent converges
/// unconditionally.
fn unimodal_case(post: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    let l_max = post.quantile(alpha)?;
    let h = |l: f64| {
        let fl = post.cdf(l);
        let u = post.quantile((fl + 1.0 - alpha).min(1.0)).unwrap_or(1.0);
        post.pdf(l) - post.pdf(u)
    };
    // h(0) = -f(u(0)) < 0 and h(l_max) = f(l_max) - f(1) > 0 since the
    // density vanishes at both endpoints for α, β > 1. The exception is a
    // shape parameter within ~0.1 of 1 (low-effective-evidence cluster
    // samples): the density then vanishes at its boundary so slowly
    // (e.g. (1-x)^0.1) that the density-equality root sits within one
    // ulp of the boundary and no representable sign change exists. The
    // HPD interval is then boundary-anchored to double precision, so
    // return the shorter of the two anchored 1-α intervals.
    let h0 = h(0.0);
    let hmax = h(l_max);
    if h0 * hmax > 0.0 {
        let upper_anchored = Interval::new(l_max.clamp(0.0, 1.0), 1.0);
        let lower_anchored = Interval::new(0.0, post.quantile(1.0 - alpha)?.clamp(0.0, 1.0));
        return Ok(if upper_anchored.width() <= lower_anchored.width() {
            upper_anchored
        } else {
            lower_anchored
        });
    }
    let l = brent(
        h,
        0.0,
        l_max,
        RootConfig {
            xtol: 1e-14,
            max_iter: 300,
        },
    )?;
    let u = post.quantile((post.cdf(l) + 1.0 - alpha).min(1.0))?;
    Ok(Interval::new(l.clamp(0.0, 1.0), u.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::BetaPrior;
    use kgae_optim::slsqp_hpd;

    /// Posterior grid spanning the shapes the framework produces:
    /// (prior, τ, n) across skewness levels and evidence sizes.
    fn posterior_grid() -> Vec<Beta> {
        let mut out = Vec::new();
        for prior in BetaPrior::UNINFORMATIVE {
            for &(tau, n) in &[
                (15u64, 30u64),
                (27, 30),
                (29, 30),
                (3, 30),
                (170, 200),
                (100, 200),
                (378, 420),
                (1, 30),
            ] {
                out.push(prior.posterior(tau, n));
            }
        }
        // Informative-prior posteriors (Example 2 regime).
        out.push(Beta::new(80.0 + 50.0, 20.0 + 10.0).unwrap());
        out.push(Beta::new(90.0 + 5.0, 10.0 + 1.0).unwrap());
        out
    }

    #[test]
    fn coverage_constraint_holds() {
        for post in posterior_grid() {
            for &alpha in &[0.10, 0.05, 0.01] {
                let i = hpd_interval(&post, alpha).unwrap();
                let mass = post.cdf(i.upper()) - post.cdf(i.lower());
                assert!(
                    (mass - (1.0 - alpha)).abs() < 1e-7,
                    "Beta({}, {}), α={alpha}: mass = {mass}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
    }

    #[test]
    fn density_is_equal_at_the_endpoints() {
        // First-order condition of Theorem 1 for interior solutions.
        for post in posterior_grid() {
            let i = hpd_interval(&post, 0.05).unwrap();
            if i.lower() > 1e-9 && i.upper() < 1.0 - 1e-9 {
                let fl = post.pdf(i.lower());
                let fu = post.pdf(i.upper());
                assert!(
                    (fl - fu).abs() < 1e-4 * fl.max(fu).max(1.0),
                    "Beta({}, {}): f(l)={fl}, f(u)={fu}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
    }

    #[test]
    fn slsqp_and_exact_solvers_agree() {
        // Theorem 2 (uniqueness): wherever the paper's SLSQP formulation
        // converges, it lands on the density-equality solver's interval.
        let (mut total, mut checked) = (0, 0);
        for post in posterior_grid() {
            for &alpha in &[0.10, 0.05, 0.01] {
                total += 1;
                let Some((l, u)) = slsqp_hpd(&post, alpha) else {
                    continue;
                };
                checked += 1;
                let b = hpd_interval(&post, alpha).unwrap();
                assert!(
                    (l - b.lower()).abs() < 1e-6 && (u - b.upper()).abs() < 1e-6,
                    "Beta({}, {}), α={alpha}: slsqp=[{l}, {u}], exact={b}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
        // SLSQP stalls on many strongly skewed posteriors; it must still
        // converge on at least half of the grid for the check to bite.
        assert!(
            2 * checked >= total,
            "SLSQP converged on {checked} of {total}"
        );
    }

    #[test]
    fn hpd_is_never_wider_than_et() {
        // Theorem 1: HPD is the shortest 1-α interval.
        for post in posterior_grid() {
            let hpd = hpd_interval(&post, 0.05).unwrap();
            let et = et_interval(&post, 0.05).unwrap();
            assert!(
                hpd.width() <= et.width() + 1e-9,
                "Beta({}, {}): hpd={hpd} wider than et={et}",
                post.alpha(),
                post.beta()
            );
        }
    }

    #[test]
    fn hpd_is_strictly_shorter_for_skewed_posteriors() {
        // Fig. 2(b,c): visible gains under skew.
        let post = BetaPrior::KERMAN.posterior(28, 30);
        let hpd = hpd_interval(&post, 0.05).unwrap();
        let et = et_interval(&post, 0.05).unwrap();
        assert!(hpd.width() < et.width() - 1e-4, "hpd={hpd}, et={et}");
    }

    #[test]
    fn symmetric_posterior_equals_et() {
        // Theorem 3.
        for &(a, b) in &[(16.0, 16.0), (4.0, 4.0), (151.0, 151.0)] {
            let post = Beta::new(a, b).unwrap();
            let hpd = hpd_interval(&post, 0.05).unwrap();
            let et = et_interval(&post, 0.05).unwrap();
            assert!(
                (hpd.lower() - et.lower()).abs() < 1e-7 && (hpd.upper() - et.upper()).abs() < 1e-7,
                "Beta({a},{b}): hpd={hpd}, et={et}"
            );
        }
    }

    #[test]
    fn hpd_contains_the_mode() {
        for post in posterior_grid() {
            let i = hpd_interval(&post, 0.05).unwrap();
            if let Some(mode) = post.mode() {
                assert!(i.contains(mode), "mode {mode} outside {i}");
            }
        }
    }

    #[test]
    fn limiting_case_all_correct_matches_eq_10() {
        // τ = n = 30 under each uninformative prior.
        for prior in BetaPrior::UNINFORMATIVE {
            let post = prior.posterior(30, 30);
            let i = hpd_interval(&post, 0.05).unwrap();
            assert_eq!(i.upper(), 1.0);
            let want_l = post.quantile(0.05).unwrap();
            assert!((i.lower() - want_l).abs() < 1e-12);
            // Coverage.
            assert!((1.0 - post.cdf(i.lower()) - 0.95).abs() < 1e-9);
        }
    }

    #[test]
    fn limiting_case_all_incorrect_matches_eq_11() {
        for prior in BetaPrior::UNINFORMATIVE {
            let post = prior.posterior(0, 30);
            let i = hpd_interval(&post, 0.05).unwrap();
            assert_eq!(i.lower(), 0.0);
            let want_u = post.quantile(0.95).unwrap();
            assert!((i.upper() - want_u).abs() < 1e-12);
        }
    }

    #[test]
    fn limiting_case_is_shorter_than_any_shifted_interval() {
        // Minimality (Corollary 1): shifting the all-correct interval
        // inward while keeping coverage must widen it.
        let post = BetaPrior::JEFFREYS.posterior(30, 30);
        let hpd = hpd_interval(&post, 0.05).unwrap();
        for &shift in &[0.001, 0.01, 0.05] {
            let u = 1.0 - shift;
            let target = post.cdf(u) - 0.95;
            if target <= 0.0 {
                continue;
            }
            let l = post.quantile(target).unwrap();
            let alt_width = u - l;
            assert!(
                alt_width > hpd.width() - 1e-10,
                "shift {shift}: alternative narrower than HPD"
            );
        }
    }

    #[test]
    fn minimality_against_perturbed_intervals() {
        // Theorem 1 again, numerically: perturb l and re-solve u from the
        // coverage constraint; the width must not decrease.
        let post = BetaPrior::UNIFORM.posterior(170, 200);
        let hpd = hpd_interval(&post, 0.05).unwrap();
        for &delta in &[-0.02, -0.005, 0.005, 0.02] {
            let l = (hpd.lower() + delta).clamp(0.0, 1.0);
            let fl = post.cdf(l);
            if fl + 0.95 >= 1.0 {
                continue;
            }
            let u = post.quantile(fl + 0.95).unwrap();
            assert!(
                u - l >= hpd.width() - 1e-9,
                "delta {delta}: perturbed interval is narrower"
            );
        }
    }

    #[test]
    fn uniform_posterior_returns_central_interval() {
        let post = Beta::new(1.0, 1.0).unwrap();
        let i = hpd_interval(&post, 0.10).unwrap();
        assert!((i.width() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn u_shaped_posterior_is_an_error() {
        let post = Beta::new(0.5, 0.5).unwrap();
        assert!(matches!(
            hpd_interval(&post, 0.05),
            Err(IntervalError::UShapedPosterior { .. })
        ));
    }

    #[test]
    fn width_lower_bound_is_valid_and_useful() {
        for post in posterior_grid() {
            let Some(lb) = hpd_width_lower_bound(&post, 0.05) else {
                continue;
            };
            let actual = hpd_interval(&post, 0.05).unwrap().width();
            assert!(
                lb <= actual + 1e-12,
                "Beta({}, {}): bound {lb} exceeds width {actual}",
                post.alpha(),
                post.beta()
            );
            // The bound is within a constant factor of the truth (≈ 0.6
            // for near-normal posteriors), so it is actually useful.
            assert!(lb > 0.3 * actual, "bound too loose: {lb} vs {actual}");
        }
    }

    #[test]
    fn near_degenerate_shape_parameters_anchor_to_the_boundary() {
        // Beta(5, 1.1): interior mode at ~0.976 but the density falls to
        // zero only within ~1e-10 of x = 1; the HPD is boundary-anchored
        // at double precision. The solver must return it without
        // erroring, with exact coverage.
        for (a, b) in [(5.0, 1.1), (1.1, 5.0), (3.0, 1.02), (1.05, 1.8)] {
            let post = Beta::new(a, b).unwrap();
            let iv = hpd_interval(&post, 0.05).unwrap();
            let mass = post.cdf(iv.upper()) - post.cdf(iv.lower());
            assert!((mass - 0.95).abs() < 1e-6, "Beta({a},{b}): coverage {mass}");
            let et = et_interval(&post, 0.05).unwrap();
            assert!(
                iv.width() <= et.width() + 1e-6,
                "Beta({a},{b}): wider than ET"
            );
        }
    }

    #[test]
    fn width_achievable_matches_actual_hpd_width() {
        // The predicate must be the exact indicator `w ≥ hpd_width`:
        // true just above the actual width, false just below.
        let mut posts = posterior_grid();
        for prior in BetaPrior::UNINFORMATIVE {
            posts.push(prior.posterior(30, 30));
            posts.push(prior.posterior(0, 30));
        }
        for post in posts {
            for &alpha in &[0.10, 0.05, 0.01] {
                let w = hpd_interval(&post, alpha).unwrap().width();
                if w >= 1.0 {
                    continue;
                }
                assert!(
                    hpd_width_achievable(&post, alpha, w + 1e-6),
                    "Beta({}, {}), α={alpha}: width {w} + δ not achievable",
                    post.alpha(),
                    post.beta()
                );
                if w > 1e-5 {
                    assert!(
                        !hpd_width_achievable(&post, alpha, w - 1e-5),
                        "Beta({}, {}), α={alpha}: width {w} − δ achievable",
                        post.alpha(),
                        post.beta()
                    );
                }
            }
        }
    }

    #[test]
    fn width_achievable_boundary_inputs() {
        let post = BetaPrior::KERMAN.posterior(27, 30);
        assert!(hpd_width_achievable(&post, 0.05, 1.0));
        assert!(!hpd_width_achievable(&post, 0.05, 0.0));
        // U-shaped: conservatively achievable.
        assert!(hpd_width_achievable(
            &Beta::new(0.5, 0.5).unwrap(),
            0.05,
            0.01
        ));
    }

    #[test]
    fn width_lower_bound_none_for_monotone_shapes() {
        assert!(hpd_width_lower_bound(&BetaPrior::KERMAN.posterior(30, 30), 0.05).is_none());
        assert!(hpd_width_lower_bound(&BetaPrior::KERMAN.posterior(0, 30), 0.05).is_none());
    }

    #[test]
    fn figure_2_regions_skewed_case() {
        // Fig. 2(b,c): the ET interval covers a non-HPD region while
        // excluding part of the HPD region; verify the CDF comparison the
        // paper makes — the excluded HPD mass exceeds the included
        // non-HPD mass... equivalently both intervals have the same
        // coverage but ET is wider and shifted left for a right-skewed
        // (high-accuracy) posterior.
        let post = BetaPrior::KERMAN.posterior(29, 30);
        let hpd = hpd_interval(&post, 0.05).unwrap();
        let et = et_interval(&post, 0.05).unwrap();
        assert!(et.lower() < hpd.lower(), "ET extends below the HPD region");
        assert!(et.upper() < hpd.upper(), "ET stops short of the HPD top");
    }
}
