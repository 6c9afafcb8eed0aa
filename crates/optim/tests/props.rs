//! Property-based tests for the SLSQP oracle and its LU solves.

use kgae_optim::linalg::{solve, Matrix};
use kgae_optim::slsqp::{slsqp, FnProblem, SlsqpConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LU solve: residual of diagonally dominant random systems is tiny.
    #[test]
    fn lu_solve_residual(
        n in 1usize..7,
        entries in prop::collection::vec(-1.0f64..1.0, 49),
        rhs in prop::collection::vec(-10.0f64..10.0, 7),
    ) {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = entries[i * 7 + j];
            }
            a[(i, i)] += 4.0;
        }
        let b = &rhs[..n];
        let x = solve(&a, b).unwrap();
        let back = a.matvec(&x);
        for (bb, orig) in back.iter().zip(b) {
            prop_assert!((bb - orig).abs() < 1e-9);
        }
    }

    /// SLSQP on random projection problems:
    /// min ‖x - p‖² s.t. x₀ + x₁ = s has the closed-form solution
    /// x = p + ((s - p₀ - p₁)/2)·(1, 1).
    #[test]
    fn slsqp_projection_closed_form(
        p0 in -2.0f64..2.0,
        p1 in -2.0f64..2.0,
        s in -2.0f64..2.0,
    ) {
        let problem = FnProblem::new(
            2,
            1,
            move |x: &[f64]| (x[0] - p0).powi(2) + (x[1] - p1).powi(2),
            move |x: &[f64], c: &mut [f64]| c[0] = x[0] + x[1] - s,
        );
        let sol = slsqp(
            &problem,
            &[0.0, 0.0],
            &[-10.0, -10.0],
            &[10.0, 10.0],
            &SlsqpConfig::default(),
        )
        .unwrap();
        let shift = (s - p0 - p1) / 2.0;
        prop_assert!(sol.converged);
        prop_assert!((sol.x[0] - (p0 + shift)).abs() < 1e-6, "{:?}", sol.x);
        prop_assert!((sol.x[1] - (p1 + shift)).abs() < 1e-6);
    }

    /// SLSQP respects box bounds regardless of where the unconstrained
    /// optimum lies.
    #[test]
    fn slsqp_respects_bounds(target in -5.0f64..5.0) {
        let problem = FnProblem::new(
            1,
            0,
            move |x: &[f64]| (x[0] - target) * (x[0] - target),
            |_: &[f64], _: &mut [f64]| {},
        );
        let sol = slsqp(&problem, &[0.0], &[-1.0], &[1.0], &SlsqpConfig::default()).unwrap();
        prop_assert!(sol.x[0] >= -1.0 - 1e-12 && sol.x[0] <= 1.0 + 1e-12);
        let want = target.clamp(-1.0, 1.0);
        prop_assert!((sol.x[0] - want).abs() < 1e-6, "{} vs {want}", sol.x[0]);
    }
}
