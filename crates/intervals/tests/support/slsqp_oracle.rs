//! The paper's HPD formulation (§4.3), kept as a test oracle for
//! `hpd_interval`: SLSQP minimizing the width `u - l` under the coverage
//! constraint `F(u) - F(l) = 1 - α`, with both endpoints bounded to
//! `[0, 1]` and the ET interval as the initial guess (Algorithm 1
//! line 20). The constraint gradient is the posterior density.
//!
//! SLSQP from the ET guess does not converge on many strongly skewed
//! posteriors (it stalls infeasible or short of the boundary within its
//! iteration budget), which is why the runtime solves the equivalent
//! density-equality condition instead. Callers compare against
//! `hpd_interval` wherever the oracle converges; the deterministic
//! sweeps also require it to converge on a stated share of their
//! inputs, so no check is vacuous.
//!
//! Shared by the unit tests of `hpd.rs`, `tests/props.rs` and the
//! workspace's `statistical_guarantees` suite through `#[path]`, so it
//! names only `kgae_optim` and `kgae_stats`.

use kgae_optim::slsqp::{slsqp, Problem, SlsqpConfig};
use kgae_stats::dist::Beta;

struct HpdProblem<'a> {
    post: &'a Beta,
    alpha: f64,
}

impl Problem for HpdProblem<'_> {
    fn dims(&self) -> (usize, usize) {
        (2, 1)
    }
    fn objective(&self, x: &[f64]) -> f64 {
        x[1] - x[0]
    }
    fn objective_grad(&self, _x: &[f64], grad: &mut [f64]) {
        grad[0] = -1.0;
        grad[1] = 1.0;
    }
    fn constraints(&self, x: &[f64], out: &mut [f64]) {
        out[0] = self.post.cdf(x[1]) - self.post.cdf(x[0]) - (1.0 - self.alpha);
    }
    fn constraints_jac(&self, x: &[f64], jac: &mut [f64]) {
        jac[0] = -self.post.pdf(x[0]);
        jac[1] = self.post.pdf(x[1]);
    }
}

/// The `1-α` HPD endpoints `(l, u)` as SLSQP finds them, or `None` when
/// it does not converge to a feasible interval.
pub fn slsqp_hpd(post: &Beta, alpha: f64) -> Option<(f64, f64)> {
    let l0 = post.quantile(alpha / 2.0).ok()?;
    let u0 = post.quantile(1.0 - alpha / 2.0).ok()?;
    let problem = HpdProblem { post, alpha };
    let sol = slsqp(
        &problem,
        &[l0, u0],
        &[0.0, 0.0],
        &[1.0, 1.0],
        &SlsqpConfig::default(),
    )
    .ok()?;
    let (l, u) = (sol.x[0].clamp(0.0, 1.0), sol.x[1].clamp(0.0, 1.0));
    (sol.converged && sol.constraint_violation <= 1e-8 && l <= u).then_some((l, u))
}
