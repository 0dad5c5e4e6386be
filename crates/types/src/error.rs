use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced anywhere in the `cdpd` workspace.
///
/// A single error enum (rather than one per crate) keeps `?` flowing
/// across crate boundaries without a ladder of `From` impls; variants
/// are grouped by subsystem.
#[derive(Debug)]
pub enum Error {
    /// SQL text failed to lex or parse. Carries position and message.
    Parse {
        /// Byte offset into the input where the error was detected.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A named catalog object (table, column, index) does not exist.
    NotFound(String),
    /// An object with this name already exists.
    AlreadyExists(String),
    /// A row or value did not match the schema it was used with.
    TypeMismatch(String),
    /// A page, slot, or record id was out of range.
    Corrupt(String),
    /// A value or row is too large for the page layout.
    TooLarge(String),
    /// The design problem is infeasible (e.g. no configuration fits the
    /// space bound, or the change budget cannot reach a required final
    /// configuration).
    Infeasible(String),
    /// Invalid argument to a public API.
    InvalidArgument(String),
    /// Underlying I/O error (trace files, experiment output).
    Io(std::io::Error),
}

impl Error {
    /// Shorthand for a parse error.
    pub fn parse(offset: usize, message: impl Into<String>) -> Error {
        Error::Parse {
            offset,
            message: message.into(),
        }
    }

    /// The same error with `f` applied to its message — every variant
    /// carries one but [`Error::Io`], which is returned as it is.
    pub fn map_message(self, f: impl FnOnce(String) -> String) -> Error {
        match self {
            Error::Parse { offset, message } => Error::Parse {
                offset,
                message: f(message),
            },
            Error::NotFound(m) => Error::NotFound(f(m)),
            Error::AlreadyExists(m) => Error::AlreadyExists(f(m)),
            Error::TypeMismatch(m) => Error::TypeMismatch(f(m)),
            Error::Corrupt(m) => Error::Corrupt(f(m)),
            Error::TooLarge(m) => Error::TooLarge(f(m)),
            Error::Infeasible(m) => Error::Infeasible(f(m)),
            Error::InvalidArgument(m) => Error::InvalidArgument(f(m)),
            Error::Io(e) => Error::Io(e),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::AlreadyExists(what) => write!(f, "already exists: {what}"),
            Error::TypeMismatch(what) => write!(f, "type mismatch: {what}"),
            Error::Corrupt(what) => write!(f, "storage corruption: {what}"),
            Error::TooLarge(what) => write!(f, "too large: {what}"),
            Error::Infeasible(what) => write!(f, "infeasible design problem: {what}"),
            Error::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            Error::parse(5, "expected FROM").to_string(),
            "parse error at byte 5: expected FROM"
        );
        assert_eq!(
            Error::NotFound("table t".into()).to_string(),
            "not found: table t"
        );
    }

    #[test]
    fn io_source_chains() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn question_mark_compatible() {
        fn inner() -> Result<()> {
            Err(Error::Infeasible("k too small".into()))
        }
        assert!(inner().is_err());
    }
}
