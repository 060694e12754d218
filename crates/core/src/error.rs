//! Error type for the HEAVEN core.

use heaven_array::ArrayError;
use heaven_arraydb::ArrayDbError;
use heaven_hsm::HsmError;
use heaven_tape::TapeError;
use std::fmt;

/// Errors raised by the HEAVEN layer.
#[derive(Debug, Clone)]
pub enum HeavenError {
    /// Unknown super-tile id.
    NoSuchSuperTile(u64),
    /// A tile is neither on disk nor in any super-tile.
    TileUnlocated(u64),
    /// An object has no exported super-tiles where some were expected.
    NotExported(u64),
    /// Object already exported.
    AlreadyExported(u64),
    /// Configuration problem.
    Config(String),
    /// Super-tile codec failure.
    Codec(String),
    /// Array-layer failure.
    Array(ArrayError),
    /// Array-DBMS failure.
    ArrayDb(ArrayDbError),
    /// Tertiary-storage failure.
    Tape(TapeError),
    /// HSM failure.
    Hsm(HsmError),
    /// Every archive copy of a super-tile is unreadable (retries and
    /// dual-copy failover exhausted). The data is gone; the query fails
    /// loudly instead of returning corrupt bytes.
    MediaLost {
        /// The unrecoverable super-tile.
        st: u64,
    },
}

impl fmt::Display for HeavenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeavenError::NoSuchSuperTile(id) => write!(f, "no such super-tile {id}"),
            HeavenError::TileUnlocated(t) => write!(f, "tile {t} has no known location"),
            HeavenError::NotExported(o) => write!(f, "object {o} is not exported"),
            HeavenError::AlreadyExported(o) => write!(f, "object {o} already exported"),
            HeavenError::Config(m) => write!(f, "configuration error: {m}"),
            HeavenError::Codec(m) => write!(f, "super-tile codec error: {m}"),
            HeavenError::Array(e) => write!(f, "array: {e}"),
            HeavenError::ArrayDb(e) => write!(f, "array dbms: {e}"),
            HeavenError::Tape(e) => write!(f, "tertiary storage: {e}"),
            HeavenError::Hsm(e) => write!(f, "hsm: {e}"),
            HeavenError::MediaLost { st } => {
                write!(f, "super-tile {st} lost: all archive copies unreadable")
            }
        }
    }
}

impl std::error::Error for HeavenError {}

impl From<ArrayError> for HeavenError {
    fn from(e: ArrayError) -> Self {
        HeavenError::Array(e)
    }
}

impl From<ArrayDbError> for HeavenError {
    fn from(e: ArrayDbError) -> Self {
        HeavenError::ArrayDb(e)
    }
}

impl From<TapeError> for HeavenError {
    fn from(e: TapeError) -> Self {
        HeavenError::Tape(e)
    }
}

impl From<HsmError> for HeavenError {
    fn from(e: HsmError) -> Self {
        HeavenError::Hsm(e)
    }
}

/// Result alias for the HEAVEN core.
pub type Result<T> = std::result::Result<T, HeavenError>;

impl From<HeavenError> for ArrayDbError {
    fn from(e: HeavenError) -> Self {
        match e {
            HeavenError::ArrayDb(inner) => inner,
            other => ArrayDbError::Semantic(other.to_string()),
        }
    }
}
