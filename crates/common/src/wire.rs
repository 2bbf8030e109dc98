//! Binary wire substrate for the transport boundary.
//!
//! The mediator ↔ wrapper boundary is honest only if everything crossing
//! it is *encoded to bytes* — no shared pointers, no in-process shortcuts.
//! This module provides the low-level reader/writer pair plus codecs for
//! the substrate types every payload is built from (values, schemas,
//! tuples, qualified names). Higher layers (`disco-sources` for
//! subanswers, `disco-transport` for plans and registrations) compose
//! these into full messages.
//!
//! The format is deliberately simple: fixed-width little-endian scalars,
//! `u32`-length-prefixed strings and sequences, one tag byte per enum
//! variant. Malformed input decodes to [`DiscoError::Parse`], never a
//! panic — transport payloads are as untrusted as query text.

use std::ops::Range;

use crate::batch::{Batch, ColumnData, ValueRef};
use crate::error::{DiscoError, Result};
use crate::schema::{AttributeDef, QualifiedName, Schema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// Append-only byte sink messages are encoded into.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before anything is written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as IEEE bits — round-trips every value including NaN bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Sequence length prefix; callers then encode each element.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Write rows `rows` of `batch` exactly as the [`Tuple`] encoder
    /// writes those rows — per row its arity, then one tagged cell per
    /// column — reading each cell from its column.
    pub fn put_batch_rows(&mut self, batch: &Batch, rows: Range<usize>) {
        let columns = batch.columns();
        // When every cell is a non-null number or bool, every row has
        // the same width, and each column is written down its own
        // stride in one typed loop.
        let widths: Option<Vec<usize>> = columns
            .iter()
            .map(|c| match (c.data(), c.validity()) {
                (ColumnData::Long(_) | ColumnData::Double(_), None) => Some(9),
                (ColumnData::Bool(_), None) => Some(2),
                _ => None,
            })
            .collect();
        let Some(widths) = widths else {
            for row in rows {
                self.put_len(columns.len());
                for column in columns {
                    column.value_ref(row).encode(self);
                }
            }
            return;
        };
        let width = 4 + widths.iter().sum::<usize>();
        let start = self.buf.len();
        self.buf.resize(start + rows.len() * width, 0);
        let out = &mut self.buf[start..];
        let arity = (columns.len() as u32).to_le_bytes();
        for row in out.chunks_exact_mut(width) {
            row[..4].copy_from_slice(&arity);
        }
        let mut at = 4;
        for (column, w) in columns.iter().zip(widths) {
            let cells = out.chunks_exact_mut(width).map(|row| &mut row[at..at + w]);
            match column.data() {
                ColumnData::Long(v) => {
                    for (cell, x) in cells.zip(&v[rows.clone()]) {
                        cell[0] = TAG_LONG;
                        cell[1..].copy_from_slice(&x.to_le_bytes());
                    }
                }
                ColumnData::Double(v) => {
                    for (cell, x) in cells.zip(&v[rows.clone()]) {
                        cell[0] = TAG_DOUBLE;
                        cell[1..].copy_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
                ColumnData::Bool(v) => {
                    for (cell, &x) in cells.zip(&v[rows.clone()]) {
                        cell[0] = TAG_BOOL;
                        cell[1] = u8::from(x);
                    }
                }
                _ => unreachable!("only fixed-width columns take this path"),
            }
            at += w;
        }
    }
}

/// A cell's tag byte on the wire, one per [`Value`] variant.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_LONG: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

/// Cursor over received bytes; every accessor bounds-checks.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails decoding when trailing garbage follows a complete message.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DiscoError::Parse(format!(
                "wire: {} trailing byte(s) after message",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DiscoError::Parse(format!(
                "wire: truncated message (needed {n} byte(s), had {})",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DiscoError::Parse(format!("wire: invalid bool byte {b}"))),
        }
    }

    pub fn get_str(&mut self) -> Result<String> {
        Ok(self.get_str_ref()?.to_owned())
    }

    /// Length-prefixed string, borrowed from the receive buffer.
    ///
    /// The columnar subanswer decoder uses this to intern strings into a
    /// dictionary without allocating a `String` per cell.
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|_| DiscoError::Parse("wire: invalid UTF-8 in string".into()))
    }

    /// Sequence length prefix, sanity-checked against the bytes left: every
    /// element needs at least one byte, so a length larger than the
    /// remaining buffer is always malformed (prevents huge allocations
    /// from hostile prefixes).
    pub fn get_len(&mut self) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(DiscoError::Parse(format!(
                "wire: sequence of {n} elements cannot fit in {} remaining byte(s)",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Types that encode themselves onto a [`WireWriter`].
pub trait WireEncode {
    fn encode(&self, w: &mut WireWriter);

    /// Convenience: encode into a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types that decode themselves from a [`WireReader`].
pub trait WireDecode: Sized {
    fn decode(r: &mut WireReader<'_>) -> Result<Self>;

    /// Convenience: decode a full message, rejecting trailing bytes.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

impl WireEncode for DataType {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            DataType::Bool => 0,
            DataType::Long => 1,
            DataType::Double => 2,
            DataType::Str => 3,
        });
    }
}

impl WireDecode for DataType {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => DataType::Bool,
            1 => DataType::Long,
            2 => DataType::Double,
            3 => DataType::Str,
            t => return Err(DiscoError::Parse(format!("wire: unknown DataType tag {t}"))),
        })
    }
}

/// A cell is written from its borrowed view, so a column encodes
/// without materializing a [`Value`]; `Value` encodes through this.
impl WireEncode for ValueRef<'_> {
    fn encode(&self, w: &mut WireWriter) {
        match *self {
            ValueRef::Null => w.put_u8(TAG_NULL),
            ValueRef::Bool(b) => {
                w.put_u8(TAG_BOOL);
                w.put_bool(b);
            }
            ValueRef::Long(v) => {
                w.put_u8(TAG_LONG);
                w.put_i64(v);
            }
            ValueRef::Double(v) => {
                w.put_u8(TAG_DOUBLE);
                w.put_f64(v);
            }
            ValueRef::Str(s) => {
                w.put_u8(TAG_STR);
                w.put_str(s);
            }
        }
    }
}

impl WireEncode for Value {
    fn encode(&self, w: &mut WireWriter) {
        ValueRef::from_value(self).encode(w);
    }
}

impl WireDecode for Value {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(r.get_bool()?),
            TAG_LONG => Value::Long(r.get_i64()?),
            TAG_DOUBLE => Value::Double(r.get_f64()?),
            TAG_STR => Value::Str(r.get_str()?),
            t => return Err(DiscoError::Parse(format!("wire: unknown Value tag {t}"))),
        })
    }
}

impl WireEncode for AttributeDef {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.name);
        self.ty.encode(w);
    }
}

impl WireDecode for AttributeDef {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let name = r.get_str()?;
        let ty = DataType::decode(r)?;
        Ok(AttributeDef { name, ty })
    }
}

impl WireEncode for Schema {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len(self.arity());
        for a in self.attributes() {
            a.encode(w);
        }
    }
}

impl WireDecode for Schema {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_len()?;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            attrs.push(AttributeDef::decode(r)?);
        }
        Ok(Schema::new(attrs))
    }
}

impl WireEncode for QualifiedName {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.wrapper);
        w.put_str(&self.collection);
    }
}

impl WireDecode for QualifiedName {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let wrapper = r.get_str()?;
        let collection = r.get_str()?;
        Ok(QualifiedName {
            wrapper,
            collection,
        })
    }
}

impl WireEncode for Tuple {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len(self.arity());
        for v in self.values() {
            v.encode(w);
        }
    }
}

impl WireDecode for Tuple {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_len()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(r)?);
        }
        Ok(Tuple::new(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire_bytes();
        let back = T::from_wire_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Long(i64::MIN),
            Value::Long(i64::MAX),
            Value::Double(-0.0),
            Value::Double(f64::MAX),
            Value::Str(String::new()),
            Value::Str("héllo wörld".into()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let bytes = Value::Double(f64::NAN).to_wire_bytes();
        let back = Value::from_wire_bytes(&bytes).unwrap();
        match back {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn schema_and_tuple_round_trip() {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("name", DataType::Str),
            AttributeDef::new("score", DataType::Double),
            AttributeDef::new("live", DataType::Bool),
        ]);
        round_trip(&schema);
        round_trip(&Tuple::new(vec![
            Value::Long(7),
            Value::Str("x".into()),
            Value::Double(1.5),
            Value::Null,
        ]));
        round_trip(&QualifiedName::new("hr", "Employee"));
    }

    #[test]
    fn truncated_input_is_a_parse_error() {
        let bytes = Value::Str("hello".into()).to_wire_bytes();
        for cut in 0..bytes.len() {
            let err = Value::from_wire_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), "parse", "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Value::Long(1).to_wire_bytes();
        bytes.push(0xFF);
        assert_eq!(Value::from_wire_bytes(&bytes).unwrap_err().kind(), "parse");
    }

    #[test]
    fn unknown_tags_rejected() {
        assert_eq!(Value::from_wire_bytes(&[9]).unwrap_err().kind(), "parse");
        assert_eq!(DataType::from_wire_bytes(&[7]).unwrap_err().kind(), "parse");
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A schema claiming u32::MAX attributes in a 4-byte message must
        // fail cleanly instead of attempting a giant allocation.
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        assert_eq!(
            Schema::from_wire_bytes(&w.into_bytes()).unwrap_err().kind(),
            "parse"
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(4); // Value::Str tag
        w.put_u32(2);
        w.put_u8(0xC3);
        w.put_u8(0x28); // malformed UTF-8 pair
        assert_eq!(
            Value::from_wire_bytes(&w.into_bytes()).unwrap_err().kind(),
            "parse"
        );
    }
}
