//! Shared substrate types for the `disco-rs` workspace.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`Value`] — the polymorphic constant type of the paper's cost
//!   communication language (`Constant` in Figure 4) and the cell type of
//!   tuples flowing through the mediator;
//! * [`DataType`] — the elementary types of the exported IDL interfaces;
//! * [`Schema`] / [`Tuple`] — rows exchanged between wrappers and mediator;
//! * [`DiscoError`] — the umbrella error type;
//! * [`batch`] — column-major blocks of rows (typed vectors, dictionary
//!   encoding, validity bitmaps) for the mediator's vectorized combine
//!   phase;
//! * [`rng`] — deterministic random number helpers used by the simulated
//!   data sources and workload generators;
//! * [`health`] — per-wrapper failure/latency EWMAs feeding the
//!   estimator's adaptive wrapper-scope penalties;
//! * [`wire`] — the binary encode/decode substrate every payload crossing
//!   the mediator ↔ wrapper transport boundary is built from.
//!
//! Nothing here is specific to cost modelling; it is the substrate the DISCO
//! reproduction is built on.

pub mod batch;
pub mod error;
pub mod health;
pub mod rng;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod wire;

pub use batch::{Batch, Bitmap, Column, ColumnBuilder, ColumnData, ValueRef};
pub use error::{DiscoError, Result};
pub use health::{HealthPolicy, HealthSnapshot, HealthTracker};
pub use schema::{AttributeDef, QualifiedName, Schema, WrapperId};
pub use tuple::Tuple;
pub use value::{DataType, Value};
pub use wire::{WireDecode, WireEncode, WireReader, WireWriter};
