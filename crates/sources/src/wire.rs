//! Wire codecs for subanswers.
//!
//! A wrapper ships its subanswer back to the mediator as bytes: the
//! schema, every tuple, and the measured execution statistics the
//! historical-cost mechanism records. Built on the substrate codecs of
//! [`disco_common::wire`].

use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{Batch, ColumnBuilder, DiscoError, Result, Schema, Tuple};

use crate::source::{BatchAnswer, ExecStats, SubAnswer};

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

/// Write a subanswer's wire form from borrowed parts — what
/// [`SubAnswer::encode`] writes, for producers that ship a slice of
/// their rows (one chunk of a stream) without copying it out first.
pub fn encode_subanswer(schema: &Schema, stats: &ExecStats, tuples: &[Tuple], w: &mut WireWriter) {
    schema.encode(w);
    stats.encode(w);
    w.put_len(tuples.len());
    for t in tuples {
        t.encode(w);
    }
}

impl WireEncode for SubAnswer {
    fn encode(&self, w: &mut WireWriter) {
        encode_subanswer(&self.schema, &self.stats, &self.tuples, w);
    }
}

impl WireDecode for SubAnswer {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let schema = Schema::decode(r)?;
        let stats = ExecStats::decode(r)?;
        let n = r.get_len()?;
        let mut tuples = Vec::with_capacity(n);
        for _ in 0..n {
            tuples.push(Tuple::decode(r)?);
        }
        Ok(SubAnswer {
            schema,
            tuples,
            stats,
        })
    }
}

impl WireEncode for BatchAnswer {
    /// Byte-identical to the [`SubAnswer`] encoding: rows are walked
    /// column-major storage notwithstanding, so either decoder accepts
    /// either producer's bytes.
    fn encode(&self, w: &mut WireWriter) {
        self.schema.encode(w);
        self.stats.encode(w);
        w.put_len(self.batch.len());
        let arity = self.batch.arity();
        for row in 0..self.batch.len() {
            w.put_len(arity);
            for col in 0..arity {
                self.batch.value_ref(row, col).to_value().encode(w);
            }
        }
    }
}

impl WireDecode for BatchAnswer {
    /// Decode a subanswer straight into columns: cells go into
    /// [`ColumnBuilder`]s as they are read (strings interned via a
    /// borrowed view of the receive buffer), so no [`Tuple`] is ever
    /// built. Stricter than the row decoder in one way: every row must
    /// match the schema's arity — wrappers always produce rectangular
    /// answers, so a ragged payload is a protocol error.
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let schema = Schema::decode(r)?;
        let stats = ExecStats::decode(r)?;
        let n = r.get_len()?;
        let arity = schema.arity();
        let mut builders: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::new()).collect();
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
            Batch::from_tuples(0, &vec![Tuple::default(); n])
        } else {
            Batch::from_columns(
                builders
                    .into_iter()
                    .map(|b| std::sync::Arc::new(b.finish()))
                    .collect(),
            )?
        };
        Ok(BatchAnswer {
            schema,
            batch,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_common::{AttributeDef, DataType, Value};

    fn answer() -> SubAnswer {
        SubAnswer {
            schema: Schema::new(vec![
                AttributeDef::new("id", DataType::Long),
                AttributeDef::new("name", DataType::Str),
            ]),
            tuples: (0..50)
                .map(|i| Tuple::new(vec![Value::Long(i), Value::Str(format!("row{i}"))]))
                .collect(),
            stats: ExecStats {
                elapsed_ms: 123.5,
                time_first_ms: 25.0,
                pages_read: 7,
                buffer_hits: 3,
                objects_scanned: 50,
            },
        }
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
            tuples: vec![],
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
        // The columnar decoder accepts row-encoded bytes and yields the
        // same rows once materialized.
        let a = answer();
        let b = BatchAnswer::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        assert_eq!(b.schema, a.schema);
        assert_eq!(b.stats, a.stats);
        assert_eq!(b.batch.to_tuples(), a.tuples);
    }

    #[test]
    fn batch_answer_encodes_identical_bytes() {
        let a = answer();
        let bytes = a.to_wire_bytes();
        let b = BatchAnswer::from_wire_bytes(&bytes).unwrap();
        assert_eq!(b.to_wire_bytes(), bytes);
        // And the row decoder accepts the columnar encoder's bytes.
        let back = SubAnswer::from_wire_bytes(&b.to_wire_bytes()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn batch_answer_round_trips_nulls_and_mixed_columns() {
        let a = SubAnswer {
            schema: Schema::new(vec![
                AttributeDef::new("k", DataType::Long),
                AttributeDef::new("v", DataType::Str),
            ]),
            tuples: vec![
                Tuple::new(vec![Value::Long(1), Value::Str("x".into())]),
                Tuple::new(vec![Value::Null, Value::Null]),
                Tuple::new(vec![Value::Double(2.5), Value::Bool(true)]),
            ],
            stats: ExecStats::default(),
        };
        let b = BatchAnswer::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        assert_eq!(b.batch.to_tuples(), a.tuples);
        assert_eq!(b.to_wire_bytes(), a.to_wire_bytes());
    }

    #[test]
    fn batch_answer_rejects_ragged_rows() {
        // Schema says arity 2 but a row carries 1 cell: the row decoder
        // tolerates it, the columnar decoder treats it as malformed.
        let a = SubAnswer {
            schema: Schema::new(vec![
                AttributeDef::new("a", DataType::Long),
                AttributeDef::new("b", DataType::Long),
            ]),
            tuples: vec![Tuple::new(vec![Value::Long(1)])],
            stats: ExecStats::default(),
        };
        let bytes = a.to_wire_bytes();
        assert!(SubAnswer::from_wire_bytes(&bytes).is_ok());
        assert!(BatchAnswer::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn batch_answer_truncation_never_panics() {
        let bytes = answer().to_wire_bytes();
        for cut in (0..bytes.len()).step_by(13) {
            assert!(BatchAnswer::from_wire_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_batch_answer_round_trips() {
        let a = BatchAnswer {
            schema: Schema::default(),
            batch: disco_common::Batch::empty(0),
            stats: ExecStats::default(),
        };
        let back = BatchAnswer::from_wire_bytes(&a.to_wire_bytes()).unwrap();
        assert_eq!(back.batch.len(), 0);
        assert_eq!(back.schema, a.schema);
    }
}
