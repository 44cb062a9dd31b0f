//! The workspace-wide error type.
//!
//! GSN distinguishes deployment-time problems (bad descriptors, unknown wrappers, name
//! clashes) from run-time problems (SQL errors, storage failures, disconnections).  The
//! single [`GsnError`] enum keeps error handling uniform across crates while still letting
//! callers branch on the category — the container, for example, retries `Disconnected`
//! stream sources but permanently rejects `Descriptor` errors.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type GsnResult<T> = Result<T, GsnError>;

/// The category and message of a GSN-RS failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsnError {
    /// A deployment descriptor is syntactically or semantically invalid.
    Descriptor(String),
    /// An XML document could not be parsed.
    Xml(String),
    /// A SQL query could not be lexed, parsed or planned.
    SqlParse(String),
    /// A SQL query failed during execution.
    SqlExecution(String),
    /// A value could not be coerced to the required type.
    Type(String),
    /// A referenced entity (virtual sensor, field, wrapper, node) does not exist.
    NotFound(String),
    /// An entity with the same name already exists.
    AlreadyExists(String),
    /// A stream source or remote peer is currently unreachable.
    Disconnected(String),
    /// The caller is not authorised to perform the operation.
    AccessDenied(String),
    /// Storage-layer failure (window overflow, retention misconfiguration, ...).
    Storage(String),
    /// The container or one of its services is shutting down.
    ShuttingDown(String),
    /// Resource limits exceeded (pool exhausted, queue full, rate bound hit).
    ResourceExhausted(String),
    /// Configuration error outside descriptors (container/network settings).
    Config(String),
    /// Anything else.
    Internal(String),
}

impl GsnError {
    /// Builds a [`GsnError::Descriptor`].
    pub fn descriptor(msg: impl Into<String>) -> GsnError {
        GsnError::Descriptor(msg.into())
    }
    /// Builds a [`GsnError::Xml`].
    pub fn xml(msg: impl Into<String>) -> GsnError {
        GsnError::Xml(msg.into())
    }
    /// Builds a [`GsnError::SqlParse`].
    pub fn sql_parse(msg: impl Into<String>) -> GsnError {
        GsnError::SqlParse(msg.into())
    }
    /// Builds a [`GsnError::SqlExecution`].
    pub fn sql_exec(msg: impl Into<String>) -> GsnError {
        GsnError::SqlExecution(msg.into())
    }
    /// Builds a [`GsnError::Type`].
    pub fn type_error(msg: impl Into<String>) -> GsnError {
        GsnError::Type(msg.into())
    }
    /// Builds a [`GsnError::NotFound`].
    pub fn not_found(msg: impl Into<String>) -> GsnError {
        GsnError::NotFound(msg.into())
    }
    /// Builds a [`GsnError::AlreadyExists`].
    pub fn already_exists(msg: impl Into<String>) -> GsnError {
        GsnError::AlreadyExists(msg.into())
    }
    /// Builds a [`GsnError::Disconnected`].
    pub fn disconnected(msg: impl Into<String>) -> GsnError {
        GsnError::Disconnected(msg.into())
    }
    /// Builds a [`GsnError::AccessDenied`].
    pub fn access_denied(msg: impl Into<String>) -> GsnError {
        GsnError::AccessDenied(msg.into())
    }
    /// Builds a [`GsnError::Storage`].
    pub fn storage(msg: impl Into<String>) -> GsnError {
        GsnError::Storage(msg.into())
    }
    /// Builds a [`GsnError::ShuttingDown`].
    pub fn shutting_down(msg: impl Into<String>) -> GsnError {
        GsnError::ShuttingDown(msg.into())
    }
    /// Builds a [`GsnError::ResourceExhausted`].
    pub fn resource_exhausted(msg: impl Into<String>) -> GsnError {
        GsnError::ResourceExhausted(msg.into())
    }
    /// Builds a [`GsnError::Config`].
    pub fn config(msg: impl Into<String>) -> GsnError {
        GsnError::Config(msg.into())
    }
    /// Builds a [`GsnError::Internal`].
    pub fn internal(msg: impl Into<String>) -> GsnError {
        GsnError::Internal(msg.into())
    }

    /// A short, stable name for the error category (used in status reports and logs).
    pub fn category(&self) -> &'static str {
        match self {
            GsnError::Descriptor(_) => "descriptor",
            GsnError::Xml(_) => "xml",
            GsnError::SqlParse(_) => "sql-parse",
            GsnError::SqlExecution(_) => "sql-execution",
            GsnError::Type(_) => "type",
            GsnError::NotFound(_) => "not-found",
            GsnError::AlreadyExists(_) => "already-exists",
            GsnError::Disconnected(_) => "disconnected",
            GsnError::AccessDenied(_) => "access-denied",
            GsnError::Storage(_) => "storage",
            GsnError::ShuttingDown(_) => "shutting-down",
            GsnError::ResourceExhausted(_) => "resource-exhausted",
            GsnError::Config(_) => "config",
            GsnError::Internal(_) => "internal",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            GsnError::Descriptor(m)
            | GsnError::Xml(m)
            | GsnError::SqlParse(m)
            | GsnError::SqlExecution(m)
            | GsnError::Type(m)
            | GsnError::NotFound(m)
            | GsnError::AlreadyExists(m)
            | GsnError::Disconnected(m)
            | GsnError::AccessDenied(m)
            | GsnError::Storage(m)
            | GsnError::ShuttingDown(m)
            | GsnError::ResourceExhausted(m)
            | GsnError::Config(m)
            | GsnError::Internal(m) => m,
        }
    }

    /// True when retrying the operation later may succeed (transient conditions).
    ///
    /// The input stream manager uses this to decide whether to buffer elements for a
    /// source (disconnections, resource exhaustion) or to drop the source permanently
    /// (descriptor or type errors).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            GsnError::Disconnected(_) | GsnError::ResourceExhausted(_) | GsnError::ShuttingDown(_)
        )
    }
}

impl fmt::Display for GsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.category(), self.message())
    }
}

impl std::error::Error for GsnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_category_and_message() {
        let cases: Vec<(GsnError, &str)> = vec![
            (GsnError::descriptor("d"), "descriptor"),
            (GsnError::xml("x"), "xml"),
            (GsnError::sql_parse("p"), "sql-parse"),
            (GsnError::sql_exec("e"), "sql-execution"),
            (GsnError::type_error("t"), "type"),
            (GsnError::not_found("n"), "not-found"),
            (GsnError::already_exists("a"), "already-exists"),
            (GsnError::disconnected("dc"), "disconnected"),
            (GsnError::access_denied("ad"), "access-denied"),
            (GsnError::storage("s"), "storage"),
            (GsnError::shutting_down("sd"), "shutting-down"),
            (GsnError::resource_exhausted("r"), "resource-exhausted"),
            (GsnError::config("c"), "config"),
            (GsnError::internal("z"), "internal"),
        ];
        for (err, cat) in cases {
            assert_eq!(err.category(), cat);
            assert!(!err.message().is_empty());
            assert!(err.to_string().contains(cat));
        }
    }

    #[test]
    fn transient_classification() {
        assert!(GsnError::disconnected("x").is_transient());
        assert!(GsnError::resource_exhausted("x").is_transient());
        assert!(GsnError::shutting_down("x").is_transient());
        assert!(!GsnError::descriptor("x").is_transient());
        assert!(!GsnError::sql_parse("x").is_transient());
    }

    #[test]
    fn error_trait_object_usable() {
        let e: Box<dyn std::error::Error> = Box::new(GsnError::internal("boom"));
        assert!(e.to_string().contains("boom"));
    }
}
