use std::fmt;

/// Errors produced by the optimization routines.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The linear system is singular (or numerically so).
    SingularMatrix,
    /// Dimension mismatch between problem pieces.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was received.
        got: usize,
    },
    /// The objective or a constraint returned a non-finite value.
    NonFiniteValue {
        /// Which evaluation produced the non-finite value.
        what: &'static str,
    },
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::SingularMatrix => write!(f, "singular linear system"),
            OptimError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            OptimError::NonFiniteValue { what } => {
                write!(f, "non-finite value encountered in {what}")
            }
        }
    }
}

impl std::error::Error for OptimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(OptimError::SingularMatrix.to_string().contains("singular"));
        assert!(OptimError::DimensionMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("expected 2, got 3"));
        assert!(OptimError::NonFiniteValue { what: "objective" }
            .to_string()
            .contains("objective"));
    }
}
