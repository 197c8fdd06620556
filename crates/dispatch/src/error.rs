//! Structured errors for campaign persistence and record parsing.
//!
//! Mirrors `rls_netlist::NetlistError`: a small enum with actionable,
//! lowercase messages, implementing `std::error::Error` so callers can
//! bubble it with `?` or render it for operators. IO variants keep the
//! path that failed — "permission denied" without a path is useless at
//! 3am.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Errors produced by campaign persistence (`campaign`) and record
/// parsing (`CampaignLog`).
#[derive(Debug)]
pub enum DispatchError {
    /// An IO operation failed. `context` says what was being attempted.
    Io {
        /// What was being attempted (e.g. "create campaign record").
        context: String,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// A JSONL line failed to parse. `line` is 1-based within the file.
    Parse {
        /// The file being read.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl DispatchError {
    /// Convenience constructor for IO failures.
    pub fn io(
        context: impl Into<String>,
        path: impl Into<PathBuf>,
        source: std::io::Error,
    ) -> Self {
        DispatchError::Io {
            context: context.into(),
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Io {
                context,
                path,
                source,
            } => write!(f, "cannot {context} at `{}`: {source}", path.display()),
            DispatchError::Parse {
                path,
                line,
                message,
            } => write!(
                f,
                "invalid JSON at `{}` line {line}: {message}",
                path.display()
            ),
        }
    }
}

impl Error for DispatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DispatchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_path_and_context() {
        let e = DispatchError::io(
            "create campaign record",
            "/tmp/results",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        let s = e.to_string();
        assert!(s.contains("create campaign record"), "{s}");
        assert!(s.contains("/tmp/results"), "{s}");
        assert!(s.contains("denied"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DispatchError>();
    }
}
