//! The tuple ⇄ record codec.
//!
//! Records are self-describing: a `u16` column count followed by one
//! tagged value per column (tag byte, then a fixed- or length-prefixed
//! payload). Keys in B+Tree cells use the same value encoding, compared
//! under [`Value::total_cmp_value`] ([`cmp_key`] does it in place, without
//! an owned copy of a string key) — byte order is *not* the value order,
//! so cells are never compared as raw bytes.

use std::cmp::Ordering;

use disco_common::{ColumnBuilder, DiscoError, Result, Tuple, Value, ValueRef};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_LONG: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

/// Append one value.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Long(x) => {
            out.push(TAG_LONG);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn short(what: &str) -> DiscoError {
    DiscoError::Source(format!("store: truncated record ({what})"))
}

fn take<'b>(bytes: &'b [u8], pos: &mut usize, n: usize, what: &str) -> Result<&'b [u8]> {
    let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
    match end {
        Some(end) => {
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        }
        None => Err(short(what)),
    }
}

/// The string payload that follows a [`TAG_STR`] tag.
fn take_str<'b>(bytes: &'b [u8], pos: &mut usize) -> Result<&'b str> {
    let len = u32::from_le_bytes(
        take(bytes, pos, 4, "string length")?
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    std::str::from_utf8(take(bytes, pos, len, "string payload")?)
        .map_err(|_| DiscoError::Source("store: record holds invalid UTF-8".into()))
}

/// Order the encoded key at `pos` against `probe` exactly as
/// `decode_value(..)?.total_cmp_value(probe)` would, advancing `pos`
/// past the key. Allocates nothing: only a string key would need an
/// owned copy, and a string sorts above every other family.
pub fn cmp_key(bytes: &[u8], pos: &mut usize, probe: &Value) -> Result<Ordering> {
    if bytes.get(*pos) == Some(&TAG_STR) {
        *pos += 1;
        let key = take_str(bytes, pos)?;
        return Ok(match probe {
            Value::Str(p) => key.cmp(p.as_str()),
            _ => Ordering::Greater,
        });
    }
    Ok(decode_value(bytes, pos)?.total_cmp_value(probe))
}

/// Decode one value at `pos`, advancing it.
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    decode_ref(bytes, pos).map(ValueRef::to_value)
}

/// Decode one value at `pos` as a view into `bytes`, advancing `pos`: a
/// string is borrowed from the record, not copied out of it.
fn decode_ref<'b>(bytes: &'b [u8], pos: &mut usize) -> Result<ValueRef<'b>> {
    let tag = take(bytes, pos, 1, "tag")?[0];
    Ok(match tag {
        TAG_NULL => ValueRef::Null,
        TAG_BOOL => ValueRef::Bool(take(bytes, pos, 1, "bool")?[0] != 0),
        TAG_LONG => ValueRef::Long(i64::from_le_bytes(
            take(bytes, pos, 8, "long")?.try_into().expect("8 bytes"),
        )),
        TAG_DOUBLE => ValueRef::Double(f64::from_bits(u64::from_le_bytes(
            take(bytes, pos, 8, "double")?.try_into().expect("8 bytes"),
        ))),
        TAG_STR => ValueRef::Str(take_str(bytes, pos)?),
        t => {
            return Err(DiscoError::Source(format!(
                "store: unknown value tag {t} in record"
            )))
        }
    })
}

/// Encode a single value as a standalone key.
pub fn encode_key(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_value(v, &mut out);
    out
}

/// Encode one tuple as a record.
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let values = t.values();
    let mut out = Vec::with_capacity(2 + values.len() * 9);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        encode_value(v, &mut out);
    }
    out
}

/// Decode a record back into a tuple. Rejects trailing bytes — a record
/// is exactly its encoding, so excess length means corruption.
pub fn decode_tuple(bytes: &[u8]) -> Result<Tuple> {
    let columns = bytes
        .get(..2)
        .map_or(0, |n| u16::from_le_bytes([n[0], n[1]]));
    let mut values = Vec::with_capacity(columns as usize);
    decode_record(bytes, |cell| values.push(cell.to_value()))?;
    Ok(Tuple::new(values))
}

/// Decode a record straight into one column builder per attribute, with
/// no [`Tuple`] between: cell `i` is pushed to `columns[i]`, a record
/// shorter than `columns` is padded with nulls, and cells beyond it are
/// dropped — the cells `Batch::from_tuples` would take from the decoded
/// tuple. Rejects trailing bytes as [`decode_tuple`] does.
pub fn decode_into(bytes: &[u8], columns: &mut [ColumnBuilder]) -> Result<()> {
    let mut i = 0;
    decode_record(bytes, |cell| {
        if let Some(column) = columns.get_mut(i) {
            column.push_ref(cell);
        }
        i += 1;
    })?;
    columns
        .iter_mut()
        .skip(i)
        .for_each(ColumnBuilder::push_null);
    Ok(())
}

/// Hand each cell of a record to `cell`, in column order.
fn decode_record<'b>(bytes: &'b [u8], mut cell: impl FnMut(ValueRef<'b>)) -> Result<()> {
    let mut pos = 0;
    let n = u16::from_le_bytes(
        take(bytes, &mut pos, 2, "column count")?
            .try_into()
            .expect("2"),
    ) as usize;
    for _ in 0..n {
        cell(decode_ref(bytes, &mut pos)?);
    }
    if pos != bytes.len() {
        return Err(DiscoError::Source(format!(
            "store: {} trailing bytes after record payload",
            bytes.len() - pos
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::rng;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Long(0),
            Value::Long(-1),
            Value::Long(i64::MAX),
            Value::Long(i64::MIN),
            Value::Double(0.0),
            Value::Double(-2.5),
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Str(String::new()),
            Value::Str("héllo wörld — ユニコード".into()),
        ]
    }

    #[test]
    fn tuple_round_trip() {
        let t = Tuple::new(sample_values());
        let bytes = encode_tuple(&t);
        let back = decode_tuple(&bytes).unwrap();
        // NaN breaks PartialEq; compare under the total order.
        assert_eq!(back.values().len(), t.values().len());
        for (a, b) in back.values().iter().zip(t.values()) {
            assert!(a.total_cmp_value(b).is_eq(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn empty_tuple_round_trip() {
        let t = Tuple::new(vec![]);
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn key_round_trip() {
        for v in sample_values() {
            let bytes = encode_key(&v);
            let mut pos = 0;
            let back = decode_value(&bytes, &mut pos).unwrap();
            assert_eq!(pos, bytes.len());
            assert!(back.total_cmp_value(&v).is_eq(), "{back:?} vs {v:?}");
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let t = Tuple::new(vec![Value::Long(42), Value::Str("abc".into())]);
        let bytes = encode_tuple(&t);
        for cut in 0..bytes.len() {
            assert!(decode_tuple(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_tuple(&padded).is_err());
    }

    #[test]
    fn bad_tag_and_bad_utf8_rejected() {
        // Column count 1, tag 9.
        assert!(decode_tuple(&[1, 0, 9]).is_err());
        // Str of length 1 with an invalid UTF-8 byte.
        assert!(decode_tuple(&[1, 0, TAG_STR, 1, 0, 0, 0, 0xFF]).is_err());
    }

    /// Any value the codec can hold, full-range: every bit pattern of
    /// a double (NaNs and infinities included) and strings of arbitrary
    /// scalar values, not just ASCII.
    fn any_value(r: &mut rng::StdRng) -> Value {
        match r.next_u64() % 5 {
            0 => Value::Null,
            1 => Value::Bool(r.next_u64().is_multiple_of(2)),
            2 => Value::Long(r.next_u64() as i64),
            3 => Value::Double(f64::from_bits(r.next_u64())),
            _ => Value::Str(
                (0..r.next_u64() % 61)
                    .filter_map(|_| char::from_u32((r.next_u64() % 0x11_0000) as u32))
                    .collect(),
            ),
        }
    }

    #[test]
    fn randomized_round_trip() {
        let mut r = rng::seeded(rng::DEFAULT_SEED, "codec-roundtrip");
        for _ in 0..2_000 {
            let n = r.next_u64() % 12;
            let t = Tuple::new((0..n).map(|_| any_value(&mut r)).collect());
            let back = decode_tuple(&encode_tuple(&t)).unwrap();
            assert_eq!(back.values().len(), t.values().len());
            for (a, b) in back.values().iter().zip(t.values()) {
                assert!(a.total_cmp_value(b).is_eq(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn cmp_key_orders_like_the_decoded_value() {
        let mut r = rng::seeded(rng::DEFAULT_SEED, "codec-cmp-key");
        let mut pool = sample_values();
        pool.extend((0..200).map(|_| any_value(&mut r)));
        for key in &pool {
            let mut bytes = encode_key(key);
            bytes.extend_from_slice(b"payload");
            for probe in &pool {
                let mut pos = 0;
                let got = cmp_key(&bytes, &mut pos, probe).unwrap();
                assert_eq!(got, key.total_cmp_value(probe), "{key:?} vs {probe:?}");
                assert_eq!(&bytes[pos..], b"payload");
            }
        }
        // Truncated and malformed keys are errors.
        let s = encode_key(&Value::Str("abc".into()));
        for cut in 0..s.len() {
            assert!(cmp_key(&s[..cut], &mut 0, &Value::Null).is_err(), "{cut}");
        }
        assert!(cmp_key(&[TAG_STR, 1, 0, 0, 0, 0xFF], &mut 0, &Value::Null).is_err());
        assert!(cmp_key(&[9], &mut 0, &Value::Null).is_err());
    }
}
