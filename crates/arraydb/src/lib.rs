#![warn(missing_docs)]
//! # heaven-arraydb — the multidimensional array DBMS
//!
//! A from-scratch reproduction of the RasDaMan architecture HEAVEN builds
//! on (paper §2.6): collections of multidimensional objects, tiles stored
//! as BLOBs in a base RDBMS, a multidimensional tile index, and a
//! declarative query language (RasQL subset) with trims, slices, induced
//! operations, condensers and the Object-Framing extension.
//!
//! The [`TileProvider`] trait is the seam through which HEAVEN extends the
//! executor across the full storage hierarchy.

pub mod error;
pub mod provider;
pub mod ql;
pub mod schema;
pub mod storage;

pub use error::{ArrayDbError, Result};
pub use provider::{visit_clip, TileProvider, Visitor};
pub use ql::{run, QueryResult, Value};
pub use schema::{Collection, CollectionId, ObjectMeta};
pub use storage::{ArrayDb, TileLocation};
