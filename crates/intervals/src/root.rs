//! Bracketed scalar root finding.
//!
//! The exact HPD solver reduces the interval problem to a single root:
//! find `l` with `f(l) = f(u(l))` where `u(l)` tracks the coverage
//! constraint. Brent's method gives superlinear convergence with the
//! robustness of bisection, which is exactly what that reduction needs.

use kgae_stats::StatsError;

/// Configuration for the root finder.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RootConfig {
    /// Absolute tolerance on the root location.
    pub(crate) xtol: f64,
    /// Maximum number of iterations.
    pub(crate) max_iter: usize,
}

/// Finds a root of `f` in `[a, b]` with Brent's method.
///
/// Combines bisection, secant, and inverse quadratic interpolation
/// (Brent 1973). Requires `f(a)` and `f(b)` to have opposite signs;
/// otherwise fails with [`StatsError::InvalidParameter`] naming the
/// bracket. Hitting `cfg.max_iter` fails with
/// [`StatsError::NoConvergence`].
pub(crate) fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    cfg: RootConfig,
) -> Result<f64, StatsError> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "bracket",
            value: fa * fb,
            constraint: "f(a)·f(b) must be ≤ 0 (a sign change over [a, b])",
        });
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;

    for _ in 0..cfg.max_iter {
        if fb.abs() > fc.abs() {
            // Ensure b is the best approximation, c the previous one.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * cfg.xtol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(b);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation / secant.
            let s = fb / fa;
            let (mut p, mut q);
            if a == c {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                // Interpolation accepted.
                e = d;
                d = p / q;
            } else {
                // Fall back to bisection.
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol1 { d } else { tol1.copysign(xm) };
        fb = f(b);
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "brent",
        iterations: cfg.max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CFG: RootConfig = RootConfig {
        xtol: 1e-13,
        max_iter: 200,
    };

    #[test]
    fn brent_polynomial_roots() {
        // x³ - 2x - 5 = 0 has the classic Brent test root ≈ 2.0945514815.
        let r = brent(|x| x * x * x - 2.0 * x - 5.0, 2.0, 3.0, CFG).unwrap();
        assert!((r - 2.094551481542327).abs() < 1e-12);
    }

    #[test]
    fn brent_transcendental() {
        let r = brent(|x: f64| x.cos() - x, 0.0, 1.0, CFG).unwrap();
        assert!((r - 0.7390851332151607).abs() < 1e-12);
    }

    #[test]
    fn brent_exact_endpoint_roots() {
        assert_eq!(brent(|x| x, 0.0, 1.0, CFG).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, CFG).unwrap(), 1.0);
    }

    #[test]
    fn brent_rejects_bad_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, CFG),
            Err(StatsError::InvalidParameter {
                name: "bracket",
                ..
            })
        ));
    }

    #[test]
    fn brent_reports_the_iteration_cap() {
        // Three iterations cannot shrink [0, 1] to a 1e-13 bracket
        // around the root of cos(x) − x.
        let cfg = RootConfig { max_iter: 3, ..CFG };
        assert_eq!(
            brent(|x: f64| x.cos() - x, 0.0, 1.0, cfg),
            Err(StatsError::NoConvergence {
                algorithm: "brent",
                iterations: 3,
            })
        );
    }

    #[test]
    fn flat_then_steep_function() {
        // A shape similar to beta-density differences: nearly flat near one
        // end, steep near the other.
        let f = |x: f64| x.powi(9) - 1e-4;
        let r = brent(f, 0.0, 1.0, CFG).unwrap();
        assert!((r - 1e-4f64.powf(1.0 / 9.0)).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Brent root finding on randomly shifted monotone cubics.
        #[test]
        fn brent_finds_cubic_roots(root in -5.0f64..5.0, scale in 0.1f64..10.0) {
            let f = |x: f64| scale * (x - root) * (1.0 + (x - root) * (x - root));
            let r = brent(f, root - 7.0, root + 9.0, CFG).unwrap();
            prop_assert!((r - root).abs() < 1e-9, "found {r}, want {root}");
        }
    }
}
