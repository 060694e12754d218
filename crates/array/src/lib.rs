#![warn(missing_docs)]
//! # heaven-array — multidimensional array substrate
//!
//! The array data model underlying the HEAVEN reproduction: domains
//! ([`Minterval`]), cell types, dense arrays ([`MDArray`]), tiling, tile
//! codecs, linearization orders and array algebra (trim / slice / induced /
//! condense).
//!
//! This corresponds to RasDaMan's logical and physical data model as
//! described in §2.1 and §2.6 of the dissertation; every higher layer
//! (the array DBMS, the HEAVEN core) builds on these types.

pub mod codec;
pub mod domain;
pub mod error;
pub mod frame;
pub mod mdd;
pub mod ops;
pub mod order;
pub mod tile;
pub mod tiling;
pub mod value;

pub use codec::{
    decode_wire, encode_wire, rle_compress, rle_decompress, rle_ratio, Codec, CodecPolicy,
    WireError,
};
pub use domain::{Interval, Minterval, Point};
pub use error::{ArrayError, Result};
pub use frame::{subtract_box, Frame};
pub use mdd::MDArray;
pub use ops::{
    induced_binary, induced_scalar, induced_unary, scalar_induced, scale_down, slice, trim,
    BinaryOp, Condenser, Fold, UnaryOp,
};
pub use order::LinearOrder;
pub use tile::{ObjectId, Tile, TileId};
pub use tiling::Tiling;
pub use value::{CellType, CellValue};
