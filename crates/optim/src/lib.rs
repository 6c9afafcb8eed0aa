//! # kgae-optim
//!
//! Test oracle for the HPD credible-interval solver, dev-only: no shipped
//! crate depends on it.
//!
//! The paper computes Highest Posterior Density intervals by minimizing the
//! interval width `u - l` under the coverage constraint
//! `F(u) - F(l) = 1 - α` with both endpoints bounded to `[0, 1]`, using the
//! SLSQP sequential-quadratic-programming method (Kraft 1988). The runtime
//! (`kgae_intervals::hpd_interval`) solves the equivalent first-order
//! condition in one dimension with Brent root finding instead, and the
//! tests of `kgae-intervals` and of the `kgae` facade check it against the
//! paper's formulation kept here:
//!
//! * [`slsqp_hpd`] — the paper's HPD formulation (§4.3) solved by SLSQP
//!   from the ET guess, `None` where it does not converge;
//! * [`slsqp`] — a dense SQP solver for small smooth problems with equality
//!   constraints and box bounds (damped BFGS Hessian approximation,
//!   primal active-set QP subproblems, L1-merit backtracking line search);
//! * [`linalg`] — the small dense LU factorization backing the QP solves.
//!
//! Everything is `f64`, allocation-light, and panic-free on valid input.
//!
//! ## Example
//!
//! ```
//! use kgae_optim::slsqp_hpd;
//! use kgae_stats::dist::Beta;
//!
//! // 27 of 30 annotated triples correct under a uniform prior.
//! let post = Beta::new(28.0, 4.0).unwrap();
//! let (l, u) = slsqp_hpd(&post, 0.05).unwrap();
//! assert!((post.cdf(u) - post.cdf(l) - 0.95).abs() < 1e-8);
//! assert!((post.pdf(l) - post.pdf(u)).abs() < 1e-4 * post.pdf(l));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod linalg;
pub mod slsqp;

mod error;
mod hpd;

pub use error::OptimError;
pub use hpd::slsqp_hpd;

/// Convenience alias for fallible optimization routines.
pub type Result<T> = std::result::Result<T, OptimError>;
