//! The one error type of the unified pipeline.
//!
//! Each stage's crate has its own error enum ([`ConfigError`],
//! [`WorkloadError`], [`TranslateError`], [`StoreError`]), and writing
//! artifacts adds raw [`std::io::Error`]s. [`GmarkError`] wraps them all
//! behind one `Display`/`Error` surface with enough context (paths, query
//! indices, what was being written) that the CLI can print any failure
//! verbatim. An engine failing a cell is not among them: that is the
//! cell's [`CellOutcome`](gmark_engines::CellOutcome) in the evaluation
//! report, and the run goes on.

use gmark_config::ConfigError;
use gmark_core::workload::WorkloadError;
use gmark_store::StoreError;
use gmark_translate::{TranslateError, WorkloadStreamError};
use std::io;
use std::path::PathBuf;

/// Any failure of the gMark pipeline — configuration, planning, query
/// generation, translation, the on-disk store, or I/O.
///
/// Hand-rolled in the `thiserror` style (no derive macros are available
/// offline): every variant implements `Display` with its context and
/// exposes the wrapped error through [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum GmarkError {
    /// Reading or interpreting a configuration document failed.
    Config {
        /// The file the document came from, when it came from one.
        path: Option<PathBuf>,
        /// The underlying configuration error.
        source: ConfigError,
    },
    /// The [`RunPlan`](crate::run::RunPlan) is internally inconsistent
    /// (e.g. workload output requested without a workload configuration).
    Plan(String),
    /// Generating a workload query failed (carries the failing index).
    Workload(WorkloadError),
    /// Translating query `index` into a concrete syntax failed.
    Translate {
        /// The failing query's index.
        index: usize,
        /// The underlying translation error.
        source: TranslateError,
    },
    /// Writing, opening, or verifying an on-disk paged graph store failed
    /// (see [`gmark_store::StoreError`] — corruption names the bad page),
    /// or a predicate has more edges than one CSR holds.
    Store(StoreError),
    /// An I/O operation failed.
    Io {
        /// What was being read or written (a path or an artifact name).
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl GmarkError {
    /// Wraps an I/O error with a description of what was being accessed.
    pub fn io(context: impl Into<String>, source: io::Error) -> GmarkError {
        GmarkError::Io {
            context: context.into(),
            source,
        }
    }

    /// Wraps a configuration error with the file it came from.
    pub fn config_in(path: impl Into<PathBuf>, source: ConfigError) -> GmarkError {
        GmarkError::Config {
            path: Some(path.into()),
            source,
        }
    }
}

impl std::fmt::Display for GmarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GmarkError::Config {
                path: Some(p),
                source,
            } => {
                write!(f, "configuration {}: {source}", p.display())
            }
            GmarkError::Config { path: None, source } => {
                write!(f, "configuration: {source}")
            }
            GmarkError::Plan(what) => write!(f, "invalid plan: {what}"),
            GmarkError::Workload(e) => write!(f, "workload: {e}"),
            GmarkError::Translate { index, source } => {
                write!(f, "translating query {index}: {source}")
            }
            GmarkError::Store(e) => write!(f, "store: {e}"),
            GmarkError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for GmarkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GmarkError::Config { source, .. } => Some(source),
            GmarkError::Plan(_) => None,
            GmarkError::Workload(e) => Some(e),
            GmarkError::Translate { source, .. } => Some(source),
            GmarkError::Store(e) => Some(e),
            GmarkError::Io { source, .. } => Some(source),
        }
    }
}

impl From<ConfigError> for GmarkError {
    fn from(source: ConfigError) -> Self {
        GmarkError::Config { path: None, source }
    }
}

impl From<WorkloadError> for GmarkError {
    fn from(e: WorkloadError) -> Self {
        GmarkError::Workload(e)
    }
}

impl From<StoreError> for GmarkError {
    fn from(e: StoreError) -> Self {
        GmarkError::Store(e)
    }
}

impl From<io::Error> for GmarkError {
    fn from(source: io::Error) -> Self {
        GmarkError::Io {
            context: "I/O".to_owned(),
            source,
        }
    }
}

impl From<WorkloadStreamError> for GmarkError {
    fn from(e: WorkloadStreamError) -> Self {
        match e {
            WorkloadStreamError::Generate(w) => GmarkError::Workload(w),
            WorkloadStreamError::Translate { index, source } => {
                GmarkError::Translate { index, source }
            }
            WorkloadStreamError::Io(source) => GmarkError::Io {
                context: "writing workload".to_owned(),
                source,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_carries_context() {
        let e = GmarkError::io("writing graph.nt", io::Error::other("disk full"));
        assert_eq!(e.to_string(), "writing graph.nt: disk full");
        let e = GmarkError::Plan("workload output requested without a workload".into());
        assert!(e.to_string().starts_with("invalid plan:"));
    }

    #[test]
    fn sources_are_exposed() {
        let e: GmarkError = io::Error::other("nope").into();
        assert!(e.source().is_some());
        let e = GmarkError::Plan("x".into());
        assert!(e.source().is_none());
    }

    #[test]
    fn stream_errors_map_variant_for_variant() {
        let e: GmarkError = WorkloadStreamError::Io(io::Error::other("x")).into();
        assert!(matches!(e, GmarkError::Io { .. }));
        let e: GmarkError = WorkloadStreamError::Translate {
            index: 7,
            source: TranslateError::UnboundHeadVar { var: 1 },
        }
        .into();
        match e {
            GmarkError::Translate { index, .. } => assert_eq!(index, 7),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
