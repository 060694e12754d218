//! Cell types and scalar cell values.
//!
//! The paper's application domains (climate simulation, remote sensing,
//! computational fluid dynamics) use dense numeric rasters. We support the
//! base types RasDaMan offers for those workloads; a cell type fixes the
//! byte width used for tile sizing and tape-volume math.

use crate::error::{ArrayError, Result};
use std::fmt;

/// Scalar cell type of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellType {
    /// 8-bit unsigned (e.g. classified satellite imagery, vegetation index).
    U8,
    /// 16-bit signed (e.g. raw sensor counts).
    I16,
    /// 32-bit signed.
    I32,
    /// 32-bit IEEE float (e.g. temperature fields).
    F32,
    /// 64-bit IEEE float (e.g. high-precision simulation output).
    F64,
}

/// Dispatch a [`CellType`] to a monomorphized block: binds the type
/// alias `$S` to the matching [`Scalar`] implementation and evaluates
/// `$body` once per variant.
macro_rules! with_scalar {
    ($ty:expr, $S:ident, $body:block) => {
        match $ty {
            $crate::value::CellType::U8 => {
                type $S = u8;
                $body
            }
            $crate::value::CellType::I16 => {
                type $S = i16;
                $body
            }
            $crate::value::CellType::I32 => {
                type $S = i32;
                $body
            }
            $crate::value::CellType::F32 => {
                type $S = f32;
                $body
            }
            $crate::value::CellType::F64 => {
                type $S = f64;
                $body
            }
        }
    };
}
pub(crate) use with_scalar;

impl CellType {
    /// Size of one cell in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            CellType::U8 => 1,
            CellType::I16 => 2,
            CellType::I32 => 4,
            CellType::F32 => 4,
            CellType::F64 => 8,
        }
    }

    /// Human-readable type name (also used by the query language).
    pub fn name(self) -> &'static str {
        match self {
            CellType::U8 => "octet",
            CellType::I16 => "short",
            CellType::I32 => "long",
            CellType::F32 => "float",
            CellType::F64 => "double",
        }
    }

    /// Parse a type name as used by the query language / catalogs.
    pub fn parse(name: &str) -> Option<CellType> {
        match name {
            "octet" | "u8" => Some(CellType::U8),
            "short" | "i16" => Some(CellType::I16),
            "long" | "i32" => Some(CellType::I32),
            "float" | "f32" => Some(CellType::F32),
            "double" | "f64" => Some(CellType::F64),
            _ => None,
        }
    }

    /// Stable numeric tag used in on-media encodings.
    pub fn tag(self) -> u8 {
        match self {
            CellType::U8 => 0,
            CellType::I16 => 1,
            CellType::I32 => 2,
            CellType::F32 => 3,
            CellType::F64 => 4,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<CellType> {
        match tag {
            0 => Some(CellType::U8),
            1 => Some(CellType::I16),
            2 => Some(CellType::I32),
            3 => Some(CellType::F32),
            4 => Some(CellType::F64),
            _ => None,
        }
    }

    /// The result type of arithmetic between two cell types
    /// (standard numeric promotion: widest wins, float beats int).
    pub fn promote(self, other: CellType) -> CellType {
        with_scalar!(self, S, {
            with_scalar!(other, T, { <<S as Promote<T>>::Out as Scalar>::TYPE })
        })
    }

    /// Whether this is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, CellType::F32 | CellType::F64)
    }
}

impl fmt::Display for CellType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar cell value (boxed form used at expression boundaries;
/// bulk data lives in raw byte buffers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellValue {
    /// An `octet` cell.
    U8(u8),
    /// A `short` cell.
    I16(i16),
    /// A `long` cell.
    I32(i32),
    /// A `float` cell.
    F32(f32),
    /// A `double` cell.
    F64(f64),
}

impl CellValue {
    /// The value's cell type.
    pub fn cell_type(self) -> CellType {
        match self {
            CellValue::U8(_) => CellType::U8,
            CellValue::I16(_) => CellType::I16,
            CellValue::I32(_) => CellType::I32,
            CellValue::F32(_) => CellType::F32,
            CellValue::F64(_) => CellType::F64,
        }
    }

    /// Value as f64 (lossless for every supported type except very large i64,
    /// which we do not support).
    pub fn as_f64(self) -> f64 {
        match self {
            CellValue::U8(v) => v as f64,
            CellValue::I16(v) => v as f64,
            CellValue::I32(v) => v as f64,
            CellValue::F32(v) => v as f64,
            CellValue::F64(v) => v,
        }
    }

    /// Construct a value of type `ty` from an f64, with saturating casts
    /// for integer targets.
    pub fn from_f64(ty: CellType, v: f64) -> CellValue {
        match ty {
            CellType::U8 => CellValue::U8(v.clamp(0.0, u8::MAX as f64) as u8),
            CellType::I16 => CellValue::I16(v.clamp(i16::MIN as f64, i16::MAX as f64) as i16),
            CellType::I32 => CellValue::I32(v.clamp(i32::MIN as f64, i32::MAX as f64) as i32),
            CellType::F32 => CellValue::F32(v as f32),
            CellType::F64 => CellValue::F64(v),
        }
    }

    /// The additive identity of type `ty`.
    pub fn zero(ty: CellType) -> CellValue {
        CellValue::from_f64(ty, 0.0)
    }

    /// Read the cell at byte offset `off * size` from a raw buffer.
    pub fn read(ty: CellType, buf: &[u8], index: usize) -> Result<CellValue> {
        let sz = ty.size_bytes();
        let start = index * sz;
        let end = start + sz;
        if end > buf.len() {
            return Err(ArrayError::BufferSize {
                expected: end,
                got: buf.len(),
            });
        }
        let b = &buf[start..end];
        Ok(match ty {
            CellType::U8 => CellValue::U8(b[0]),
            CellType::I16 => CellValue::I16(i16::from_le_bytes([b[0], b[1]])),
            CellType::I32 => CellValue::I32(i32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            CellType::F32 => CellValue::F32(f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            CellType::F64 => CellValue::F64(f64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ])),
        })
    }

    /// Write the cell at element index `index` into a raw buffer.
    pub fn write(self, buf: &mut [u8], index: usize) -> Result<()> {
        let ty = self.cell_type();
        let sz = ty.size_bytes();
        let start = index * sz;
        let end = start + sz;
        if end > buf.len() {
            return Err(ArrayError::BufferSize {
                expected: end,
                got: buf.len(),
            });
        }
        let dst = &mut buf[start..end];
        match self {
            CellValue::U8(v) => dst.copy_from_slice(&[v]),
            CellValue::I16(v) => dst.copy_from_slice(&v.to_le_bytes()),
            CellValue::I32(v) => dst.copy_from_slice(&v.to_le_bytes()),
            CellValue::F32(v) => dst.copy_from_slice(&v.to_le_bytes()),
            CellValue::F64(v) => dst.copy_from_slice(&v.to_le_bytes()),
        }
        Ok(())
    }
}

/// Monomorphized little-endian scalar access for bulk kernels.
///
/// Condensers and induced operations iterate millions of cells; going
/// through [`CellValue::read`] per cell means a bounds check, a type
/// match and an enum construction each time. Kernels generic over
/// `Scalar` instead walk `chunks_exact(SIZE)` over the contiguous cell
/// buffer, which the compiler unrolls and autovectorizes. Conversion
/// semantics (f64 widening, saturating narrowing) match `CellValue`
/// exactly so results are bit-identical to the scalar path.
pub(crate) trait Scalar: Copy {
    /// The matching cell type.
    const TYPE: CellType;
    /// Cell width in bytes ([`CellType::size_bytes`]).
    const SIZE: usize;
    /// Read one cell from a `SIZE`-byte little-endian slice.
    fn from_le(b: &[u8]) -> Self;
    /// Write one cell into a `SIZE`-byte slice.
    fn write_le(self, b: &mut [u8]);
    /// Widen to f64 (lossless for all supported types).
    fn to_f64(self) -> f64;
    /// Narrow from f64 with the same saturation as [`CellValue::from_f64`].
    fn from_f64(v: f64) -> Self;
}

impl Scalar for u8 {
    const TYPE: CellType = CellType::U8;
    const SIZE: usize = 1;
    #[inline(always)]
    fn from_le(b: &[u8]) -> u8 {
        b[0]
    }
    #[inline(always)]
    fn write_le(self, b: &mut [u8]) {
        b[0] = self;
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_f64(v: f64) -> u8 {
        v.clamp(0.0, u8::MAX as f64) as u8
    }
}

impl Scalar for i16 {
    const TYPE: CellType = CellType::I16;
    const SIZE: usize = 2;
    #[inline(always)]
    fn from_le(b: &[u8]) -> i16 {
        i16::from_le_bytes([b[0], b[1]])
    }
    #[inline(always)]
    fn write_le(self, b: &mut [u8]) {
        b.copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_f64(v: f64) -> i16 {
        v.clamp(i16::MIN as f64, i16::MAX as f64) as i16
    }
}

impl Scalar for i32 {
    const TYPE: CellType = CellType::I32;
    const SIZE: usize = 4;
    #[inline(always)]
    fn from_le(b: &[u8]) -> i32 {
        i32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
    #[inline(always)]
    fn write_le(self, b: &mut [u8]) {
        b.copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_f64(v: f64) -> i32 {
        v.clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }
}

impl Scalar for f32 {
    const TYPE: CellType = CellType::F32;
    const SIZE: usize = 4;
    #[inline(always)]
    fn from_le(b: &[u8]) -> f32 {
        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
    #[inline(always)]
    fn write_le(self, b: &mut [u8]) {
        b.copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    /// A NaN comes out quiet, as the hardware narrowing makes it. The
    /// compiler may fold a kernel's `cell as f64 as f32` into a move that
    /// keeps a signaling NaN cell as is, so the quiet bit is set here.
    #[inline(always)]
    fn from_f64(v: f64) -> f32 {
        let r = v as f32;
        if r.is_nan() {
            f32::from_bits(r.to_bits() | 0x0040_0000)
        } else {
            r
        }
    }
}

impl Scalar for f64 {
    const TYPE: CellType = CellType::F64;
    const SIZE: usize = 8;
    #[inline(always)]
    fn from_le(b: &[u8]) -> f64 {
        f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }
    #[inline(always)]
    fn write_le(self, b: &mut [u8]) {
        b.copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }
}

/// The promotion rule of cell arithmetic, the one place it is written:
/// `Out` is the cell type of arithmetic between `Self` and `T` cells.
/// [`CellType::promote`] reads it at run time, and typed kernels over
/// two cell types read it at compile time.
pub(crate) trait Promote<T>: Scalar {
    /// The promoted cell type.
    type Out: Scalar;
}

/// Implement [`Promote`] for every pair of the listed types: of two
/// types, the later one wins.
macro_rules! later_wins {
    () => {};
    ($t:ty $(, $wider:ty)*) => {
        impl Promote<$t> for $t {
            type Out = $t;
        }
        $(
            impl Promote<$wider> for $t {
                type Out = $wider;
            }
            impl Promote<$t> for $wider {
                type Out = $wider;
            }
        )*
        later_wins!($($wider),*);
    };
}

// Widest wins, float beats int.
later_wins!(u8, i16, i32, f32, f64);

impl fmt::Display for CellValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellValue::U8(v) => write!(f, "{v}"),
            CellValue::I16(v) => write!(f, "{v}"),
            CellValue::I32(v) => write!(f, "{v}"),
            CellValue::F32(v) => write!(f, "{v}"),
            CellValue::F64(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_names() {
        assert_eq!(CellType::U8.size_bytes(), 1);
        assert_eq!(CellType::F64.size_bytes(), 8);
        assert_eq!(CellType::parse("float"), Some(CellType::F32));
        assert_eq!(CellType::parse("double"), Some(CellType::F64));
        assert_eq!(CellType::parse("bogus"), None);
    }

    #[test]
    fn tag_roundtrip() {
        for ty in [
            CellType::U8,
            CellType::I16,
            CellType::I32,
            CellType::F32,
            CellType::F64,
        ] {
            assert_eq!(CellType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(CellType::from_tag(99), None);
    }

    #[test]
    fn promotion_prefers_wider_and_float() {
        assert_eq!(CellType::U8.promote(CellType::I16), CellType::I16);
        assert_eq!(CellType::I32.promote(CellType::F32), CellType::F32);
        assert_eq!(CellType::F32.promote(CellType::F64), CellType::F64);
        assert_eq!(CellType::U8.promote(CellType::U8), CellType::U8);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut buf = vec![0u8; 4 * 8];
        for (i, v) in [1.5f64, -2.25, 0.0, 1e9].iter().enumerate() {
            CellValue::F64(*v).write(&mut buf, i).unwrap();
        }
        for (i, v) in [1.5f64, -2.25, 0.0, 1e9].iter().enumerate() {
            assert_eq!(
                CellValue::read(CellType::F64, &buf, i).unwrap(),
                CellValue::F64(*v)
            );
        }
    }

    #[test]
    fn read_out_of_bounds_is_error() {
        let buf = vec![0u8; 7];
        assert!(CellValue::read(CellType::F64, &buf, 0).is_err());
        assert!(CellValue::read(CellType::U8, &buf, 7).is_err());
    }

    #[test]
    fn from_f64_saturates_integers() {
        assert_eq!(CellValue::from_f64(CellType::U8, 300.0), CellValue::U8(255));
        assert_eq!(CellValue::from_f64(CellType::U8, -5.0), CellValue::U8(0));
        assert_eq!(
            CellValue::from_f64(CellType::I16, 1e9),
            CellValue::I16(i16::MAX)
        );
    }
}
