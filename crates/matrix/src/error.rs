//! Error type shared by the matrix crates.

use std::fmt;

/// Errors produced by matrix construction and shape-checked operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// Requested dimensions do not match the provided data length.
    LengthMismatch {
        /// Rows requested.
        rows: usize,
        /// Columns requested.
        cols: usize,
        /// Length of the data actually provided.
        len: usize,
    },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// The offending shape.
        shape: (usize, usize),
    },
    /// The matrix is not (numerically) positive definite: a non-positive
    /// pivot was encountered at the given diagonal index during Cholesky.
    NotPositiveDefinite {
        /// Diagonal index of the failing pivot (global, 0-based).
        pivot: usize,
        /// The value of the failing pivot.
        value: f64,
    },
    /// A tile grid was asked for with a block size of zero.
    ZeroBlockSize,
    /// The requested option combination is not supported (e.g. sharding
    /// composed with the runtime balance controller).
    UnsupportedConfig(&'static str),
    /// A fault plan names something the run does not have: a tile or an
    /// element outside the grid, or a device loss on an unsharded run, on a
    /// device the run does not span, or past the last iteration.
    FaultOutsideRun(&'static str),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::LengthMismatch { rows, cols, len } => write!(
                f,
                "data length {len} does not match {rows}x{cols} = {} elements",
                rows * cols
            ),
            MatrixError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            MatrixError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} is {value:e}"
            ),
            MatrixError::ZeroBlockSize => write!(f, "block size must be nonzero"),
            MatrixError::UnsupportedConfig(why) => {
                write!(f, "unsupported configuration: {why}")
            }
            MatrixError::FaultOutsideRun(what) => {
                write!(f, "fault plan outside the run: {what}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MatrixError::LengthMismatch {
            rows: 2,
            cols: 3,
            len: 5,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains('6'), "{s}");

        let e = MatrixError::NotPositiveDefinite {
            pivot: 4,
            value: -1.0,
        };
        assert!(e.to_string().contains("pivot 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MatrixError>();
    }
}
