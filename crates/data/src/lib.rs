//! # m3-data — dataset substrate for the M3 reproduction
//!
//! The paper's evaluation uses the **Infimnist** dataset: an "infinite"
//! supply of MNIST-like 28×28 grayscale digit images produced by applying
//! pseudo-random deformations and translations to the original MNIST digits
//! (784 features per image, 8 bytes per feature ⇒ 6 272 bytes per row, 32 M
//! rows ⇒ 190 GB).  We do not redistribute MNIST bits; instead
//! [`infimnist::InfimnistLike`] procedurally synthesises digit-prototype
//! images with pseudo-random translations, elastic-style jitter and noise,
//! keyed by a seed and an image index, with the same shape, byte layout and
//! class structure.  Runtime behaviour — the thing the paper measures —
//! depends on shape and byte volume, not pixel semantics, and classification
//! over the synthetic classes remains non-trivial, so the substitution
//! preserves the experiments (see DESIGN.md §6).
//!
//! The crate also provides:
//!
//! * [`blobs::GaussianBlobs`] — well-separated Gaussian clusters for k-means,
//! * [`synthetic::LinearProblem`] — noisy linear / logistic ground-truth
//!   generators used by correctness tests,
//! * [`csv`] and [`libsvm`] — text-format readers/writers; the libsvm module
//!   also parses straight into sparse CSR ([`libsvm::read_libsvm_csr`]) and
//!   streams text files into the `m3-core` binary CSR container
//!   ([`libsvm::convert_libsvm_to_csr`]) without ever densifying,
//! * [`writer`] — streaming helpers that materialise any [`RowGenerator`]
//!   into an `m3-core` dataset container or raw matrix file of any size with
//!   constant memory,
//! * [`graph_gen`] — a streaming R-MAT power-law edge generator that
//!   external-sorts and deduplicates edges on disk and publishes an
//!   `m3-core` CSR graph container without ever holding the graph in RAM,
//! * [`split`] — train/test splitting and k-fold utilities.

#![warn(missing_docs)]

pub mod blobs;
pub mod csv;
pub mod graph_gen;
pub mod infimnist;
pub mod libsvm;
pub mod split;
pub mod synthetic;
pub mod writer;

pub use blobs::GaussianBlobs;
pub use graph_gen::{
    generate_rmat, generate_rmat_ctx, generate_rmat_graph, RmatConfig, RmatSummary,
};
pub use infimnist::InfimnistLike;
pub use libsvm::{convert_libsvm_to_csr, read_libsvm, read_libsvm_csr};
pub use synthetic::LinearProblem;
pub use writer::{write_libsvm, write_libsvm_csr, RowGenerator};

/// Errors produced by dataset parsing and generation.
#[derive(Debug)]
pub enum DataError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// A text file (CSV / libsvm) could not be parsed.
    Parse {
        /// 1-based line number where the problem was found.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// A lower-level `m3-core` error.
    Core(m3_core::CoreError),
    /// Inconsistent generator or split configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "I/O error: {e}"),
            DataError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            DataError::Core(e) => write!(f, "dataset container error: {e}"),
            DataError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            DataError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

impl From<m3_core::CoreError> for DataError {
    fn from(e: m3_core::CoreError) -> Self {
        DataError::Core(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_variants() {
        let e = DataError::Parse {
            line: 3,
            reason: "bad float".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e: DataError = std::io::Error::other("x").into();
        assert!(e.to_string().contains("I/O"));
        let e = DataError::InvalidConfig("k must be > 0".into());
        assert!(e.to_string().contains("k must be"));
    }

    #[test]
    fn core_error_converts() {
        let core_err = m3_core::CoreError::InvalidShape { rows: 1, cols: 2 };
        let e: DataError = core_err.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
