//! Wire codecs for subanswers.
//!
//! A wrapper ships its subanswer back to the mediator as bytes: the
//! schema, every row, and the measured execution statistics the
//! historical-cost mechanism records. Rows are written cell by cell from
//! the answer's columns and read straight back into columns, so neither
//! side builds a [`Tuple`](disco_common::Tuple). Built on the substrate
//! codecs of [`disco_common::wire`].

use std::ops::Range;
use std::sync::Arc;

use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{Batch, ColumnBuilder, DiscoError, Result, Schema};

use crate::source::{ExecStats, SubAnswer};

impl WireEncode for ExecStats {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(self.elapsed_ms);
        w.put_f64(self.time_first_ms);
        w.put_u64(self.pages_read);
        w.put_u64(self.buffer_hits);
        w.put_u64(self.objects_scanned);
    }
}

impl WireDecode for ExecStats {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(ExecStats {
            elapsed_ms: r.get_f64()?,
            time_first_ms: r.get_f64()?,
            pages_read: r.get_u64()?,
            buffer_hits: r.get_u64()?,
            objects_scanned: r.get_u64()?,
        })
    }
}

/// Write the subanswer of rows `rows` of `batch` — what
/// [`SubAnswer::encode`] writes for the whole batch — for producers that
/// ship one slice of their answer (one chunk of a stream) without
/// copying it out first. The rows are written from the columns, as the
/// row encoder writes them.
pub fn encode_subanswer(
    schema: &Schema,
    stats: &ExecStats,
    batch: &Batch,
    rows: Range<usize>,
    w: &mut WireWriter,
) {
    schema.encode(w);
    stats.encode(w);
    w.put_len(rows.len());
    w.put_batch_rows(batch, rows);
}

impl WireEncode for SubAnswer {
    fn encode(&self, w: &mut WireWriter) {
        encode_subanswer(
            &self.schema,
            &self.stats,
            &self.batch,
            0..self.batch.len(),
            w,
        );
    }
}

impl WireDecode for SubAnswer {
    /// Decode a subanswer straight into columns: cells go into
    /// [`ColumnBuilder`]s as they are read (strings interned via a
    /// borrowed view of the receive buffer). Every row must match the
    /// schema's arity — wrappers always produce rectangular answers, so a
    /// ragged payload is a protocol error.
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let schema = Schema::decode(r)?;
        let stats = ExecStats::decode(r)?;
        let n = r.get_len()?;
        let arity = schema.arity();
        // `n` is read off the wire: reserve no more rows than the
        // remaining bytes could hold (a row is at least its arity byte
        // and one tag per cell).
        let rows = n.min(r.remaining() / (arity + 1));
        let mut builders: Vec<ColumnBuilder> = (0..arity)
            .map(|_| ColumnBuilder::with_capacity(rows))
            .collect();
        for _ in 0..n {
            let row_arity = r.get_len()?;
            if row_arity != arity {
                return Err(DiscoError::Parse(format!(
                    "wire: subanswer row of arity {row_arity} under schema of arity {arity}"
                )));
            }
            for b in builders.iter_mut() {
                match r.get_u8()? {
                    0 => b.push_null(),
                    1 => b.push_bool(r.get_bool()?),
                    2 => b.push_long(r.get_i64()?),
                    3 => b.push_double(r.get_f64()?),
                    4 => b.push_str(r.get_str_ref()?),
                    t => return Err(DiscoError::Parse(format!("wire: unknown Value tag {t}"))),
                }
            }
        }
        let batch = if arity == 0 {
            // Zero-column answers still carry a row count.
            Batch::from_tuples(0, &vec![disco_common::Tuple::default(); n])
        } else {
            Batch::from_columns(builders.into_iter().map(|b| Arc::new(b.finish())).collect())?
        };
        Ok(SubAnswer {
            schema,
            batch,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::{AttributeDef, DataType, Tuple, Value};

    /// The row encoding the column encoder reproduces byte for byte.
    fn row_bytes(schema: &Schema, stats: &ExecStats, tuples: &[Tuple]) -> Vec<u8> {
        let mut w = WireWriter::new();
        schema.encode(&mut w);
        stats.encode(&mut w);
        w.put_len(tuples.len());
        for t in tuples {
            t.encode(&mut w);
        }
        w.into_bytes()
    }

    fn answer_of(schema: Schema, tuples: &[Tuple], stats: ExecStats) -> SubAnswer {
        SubAnswer {
            batch: Batch::from_tuples(schema.arity(), tuples),
            schema,
            stats,
        }
    }

    fn rows() -> Vec<Tuple> {
        (0..50)
            .map(|i| Tuple::new(vec![Value::Long(i), Value::Str(format!("row{i}"))]))
            .collect()
    }

    fn answer() -> SubAnswer {
        let schema = Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("name", DataType::Str),
        ]);
        let stats = ExecStats {
            elapsed_ms: 123.5,
            time_first_ms: 25.0,
            pages_read: 7,
            buffer_hits: 3,
            objects_scanned: 50,
        };
        answer_of(schema, &rows(), stats)
    }

    #[test]
    fn subanswer_round_trips() {
        let a = answer();
        let bytes = a.to_wire_bytes();
        let back = SubAnswer::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn empty_subanswer_round_trips() {
        let a = SubAnswer {
            schema: Schema::default(),
            batch: Batch::empty(0),
            stats: ExecStats::default(),
        };
        let back = SubAnswer::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = answer().to_wire_bytes();
        for cut in (0..bytes.len()).step_by(13) {
            assert!(SubAnswer::from_wire_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn batch_answer_decodes_row_bytes() {
        // Row-encoded bytes decode into columns holding the same rows.
        let a = answer();
        let b = SubAnswer::from_wire_bytes(&row_bytes(&a.schema, &a.stats, &rows())).unwrap();
        assert_eq!(b.schema, a.schema);
        assert_eq!(b.stats, a.stats);
        assert_eq!(b.batch.to_tuples(), rows());
    }

    #[test]
    fn batch_answer_encodes_identical_bytes() {
        let a = answer();
        let bytes = row_bytes(&a.schema, &a.stats, &rows());
        assert_eq!(a.to_wire_bytes(), bytes);
        // Any row range encodes as the row encoder writes that slice.
        for (from, until) in [(0, 0), (0, 1), (7, 19), (49, 50), (0, 50)] {
            let mut w = WireWriter::new();
            encode_subanswer(&a.schema, &a.stats, &a.batch, from..until, &mut w);
            let slice = row_bytes(&a.schema, &a.stats, &rows()[from..until]);
            assert_eq!(w.into_bytes(), slice, "rows {from}..{until}");
        }
    }

    #[test]
    fn batch_answer_round_trips_nulls_and_mixed_columns() {
        let schema = Schema::new(vec![
            AttributeDef::new("k", DataType::Long),
            AttributeDef::new("v", DataType::Str),
        ]);
        let tuples = vec![
            Tuple::new(vec![Value::Long(1), Value::Str("x".into())]),
            Tuple::new(vec![Value::Null, Value::Null]),
            Tuple::new(vec![Value::Double(2.5), Value::Bool(true)]),
        ];
        let a = answer_of(schema, &tuples, ExecStats::default());
        let bytes = a.to_wire_bytes();
        assert_eq!(bytes, row_bytes(&a.schema, &a.stats, &tuples));
        let b = SubAnswer::from_wire_bytes(&bytes).unwrap();
        assert_eq!(b.batch.to_tuples(), tuples);
        assert_eq!(b.to_wire_bytes(), bytes);
    }

    #[test]
    fn batch_answer_rejects_ragged_rows() {
        // Schema says arity 2 but a row carries 1 cell: malformed.
        let schema = Schema::new(vec![
            AttributeDef::new("a", DataType::Long),
            AttributeDef::new("b", DataType::Long),
        ]);
        let ragged = [Tuple::new(vec![Value::Long(1)])];
        let bytes = row_bytes(&schema, &ExecStats::default(), &ragged);
        assert!(SubAnswer::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn batch_answer_truncation_never_panics() {
        let a = answer();
        let bytes = row_bytes(&a.schema, &a.stats, &rows());
        for cut in (0..bytes.len()).step_by(7) {
            assert!(SubAnswer::from_wire_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_batch_answer_round_trips() {
        // No columns, but rows: the row count survives the trip.
        let a = SubAnswer {
            schema: Schema::default(),
            batch: Batch::from_tuples(0, &[Tuple::default(), Tuple::default()]),
            stats: ExecStats::default(),
        };
        let back = SubAnswer::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        assert_eq!(back.batch.len(), 2);
        assert_eq!(back.schema, a.schema);
    }
}
