use kgae_stats::StatsError;
use std::fmt;

/// Errors from interval construction.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalError {
    /// A statistical kernel or the HPD root finder failed (bad
    /// parameters, no convergence).
    Stats(StatsError),
    /// The posterior is U-shaped (`α < 1` and `β < 1`), where the highest
    /// density region is a *union of two intervals* and no single HPD
    /// interval exists. Reachable only with zero annotations under a
    /// sub-uniform prior — the evaluation framework never produces it.
    UShapedPosterior {
        /// Posterior α parameter.
        alpha: f64,
        /// Posterior β parameter.
        beta: f64,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Stats(e) => write!(f, "stats error: {e}"),
            IntervalError::UShapedPosterior { alpha, beta } => write!(
                f,
                "Beta({alpha}, {beta}) is U-shaped: the HPD region is not a single interval"
            ),
        }
    }
}

impl std::error::Error for IntervalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntervalError::Stats(e) => Some(e),
            IntervalError::UShapedPosterior { .. } => None,
        }
    }
}

impl From<StatsError> for IntervalError {
    fn from(e: StatsError) -> Self {
        IntervalError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: IntervalError = StatsError::InvalidProbability(2.0).into();
        assert!(e.to_string().contains("stats"));
        let e: IntervalError = StatsError::NoConvergence {
            algorithm: "brent",
            iterations: 300,
        }
        .into();
        assert!(e.to_string().contains("brent"));
        let e = IntervalError::UShapedPosterior {
            alpha: 0.5,
            beta: 0.5,
        };
        assert!(e.to_string().contains("U-shaped"));
    }
}
