//! Wire codecs for everything crossing the mediator ↔ wrapper RPC
//! boundary: subplans, registration payloads (capabilities, statistics,
//! semi-compiled cost rules) and the request/response envelope.
//!
//! The substrate scalars live in [`disco_common::wire`] and the subanswer
//! codec in `disco_sources::wire`; this module adds the composite payloads
//! that involve algebra, catalog and cost-language types. They are encoded
//! by free functions (rather than trait impls) because both the types and
//! the codec traits are foreign here.
//!
//! Every decoder is total: malformed bytes produce [`DiscoError::Parse`],
//! never a panic, and unknown enum tags are rejected rather than guessed.

use disco_algebra::expr::ArithOp;
use disco_algebra::logical::AggExpr;
use disco_algebra::{
    AggFunc, CompareOp, JoinKind, JoinPredicate, LogicalPlan, OperatorKind, Predicate, ScalarExpr,
    SelectPredicate,
};
use disco_catalog::histogram::{Bucket, Histogram, HistogramKind};
use disco_catalog::{AttributeStats, Capabilities, CollectionStats, ExtentStats, StatName};
use disco_common::wire::{WireDecode, WireEncode, WireReader, WireWriter};
use disco_common::{Batch, DiscoError, QualifiedName, Result, Schema, Value};
use disco_costlang::ast::{AttrTerm, CollTerm, CostVar, HeadArg, PathLeaf, PredRhs, RuleHead};
use disco_costlang::builtins::Builtin;
use disco_costlang::bytecode::{
    AttrSpec, ChildRef, CollSpec, CompiledBody, Instr, PathSpec, Program,
};
use disco_costlang::{CompiledDocument, CompiledRule};
use disco_sources::wire::encode_subanswer;
use disco_sources::{ExecStats, SubAnswer};
use disco_wrapper::Registration;

/// A request delivered to a wrapper endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Fetch the registration payload (Figure 1, steps 1–2).
    Register,
    /// Execute a subplan (Figure 2, step 4).
    Submit(LogicalPlan),
    /// Execute a subplan, streaming the answer back incrementally as
    /// [`Frame`]s of at most `chunk_rows` rows each instead of a single
    /// [`Response::Answer`].
    SubmitStream { plan: LogicalPlan, chunk_rows: u32 },
}

/// One frame of a streamed submit reply ([`Request::SubmitStream`]).
///
/// A well-formed stream is one or more `Chunk` frames (the first chunk may
/// be empty — it still carries the schema) terminated by exactly one `End`
/// or `Error` frame. Nothing follows the terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One incremental slice of the subanswer. The embedded stats are
    /// zeroed; the authoritative stats arrive with [`Frame::End`].
    Chunk(SubAnswer),
    /// Normal end of stream, carrying the wrapper's execution stats for
    /// the whole subanswer.
    End(ExecStats),
    /// The stream failed; no further frames follow.
    Error { kind: String, message: String },
}

impl Frame {
    /// Wire bytes of a [`Frame::Chunk`] carrying rows `rows` of a
    /// wrapper's answer, written straight from its columns: the slice is
    /// never copied out, and the mediator decodes it straight back into
    /// columns.
    pub fn chunk_bytes(schema: &Schema, batch: &Batch, rows: std::ops::Range<usize>) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u8(0);
        encode_subanswer(schema, &ExecStats::default(), batch, rows, &mut w);
        w.into_bytes()
    }
}

impl WireEncode for Frame {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Frame::Chunk(a) => {
                w.put_u8(0);
                a.encode(w);
            }
            Frame::End(stats) => {
                w.put_u8(1);
                w.put_f64(stats.elapsed_ms);
                w.put_f64(stats.time_first_ms);
                w.put_u64(stats.pages_read);
                w.put_u64(stats.buffer_hits);
                w.put_u64(stats.objects_scanned);
            }
            Frame::Error { kind, message } => {
                w.put_u8(2);
                w.put_str(kind);
                w.put_str(message);
            }
        }
    }
}

impl WireDecode for Frame {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => Frame::Chunk(SubAnswer::decode(r)?),
            1 => Frame::End(ExecStats {
                elapsed_ms: r.get_f64()?,
                time_first_ms: r.get_f64()?,
                pages_read: r.get_u64()?,
                buffer_hits: r.get_u64()?,
                objects_scanned: r.get_u64()?,
            }),
            2 => Frame::Error {
                kind: r.get_str()?,
                message: r.get_str()?,
            },
            t => return Err(bad_tag("Frame", t)),
        })
    }
}

/// Decode a stream frame from a full payload, rejecting trailing bytes.
pub fn decode_frame(payload: &[u8]) -> Result<Frame> {
    let mut r = WireReader::new(payload);
    let frame = Frame::decode(&mut r)?;
    r.expect_end()?;
    Ok(frame)
}

/// A reply from a wrapper endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Register`].
    Registration(Registration),
    /// Reply to [`Request::Submit`].
    Answer(SubAnswer),
    /// The wrapper failed; the error crosses the wire by kind + message.
    Error { kind: String, message: String },
}

impl Response {
    /// Convert an error response back into the [`DiscoError`] it carried.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Error { kind, message } => Err(DiscoError::from_kind(&kind, message)),
            other => Ok(other),
        }
    }
}

fn bad_tag(what: &str, tag: u8) -> DiscoError {
    DiscoError::Parse(format!("wire: unknown {what} tag {tag}"))
}

// ---------------------------------------------------------------- enums

fn op_kind_code(op: OperatorKind) -> u8 {
    match op {
        OperatorKind::Scan => 0,
        OperatorKind::Select => 1,
        OperatorKind::Project => 2,
        OperatorKind::Sort => 3,
        OperatorKind::Join => 4,
        OperatorKind::Union => 5,
        OperatorKind::Dedup => 6,
        OperatorKind::Aggregate => 7,
        OperatorKind::Submit => 8,
    }
}

fn op_kind_decode(tag: u8) -> Result<OperatorKind> {
    Ok(match tag {
        0 => OperatorKind::Scan,
        1 => OperatorKind::Select,
        2 => OperatorKind::Project,
        3 => OperatorKind::Sort,
        4 => OperatorKind::Join,
        5 => OperatorKind::Union,
        6 => OperatorKind::Dedup,
        7 => OperatorKind::Aggregate,
        8 => OperatorKind::Submit,
        t => return Err(bad_tag("OperatorKind", t)),
    })
}

fn cmp_code(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    }
}

fn cmp_decode(tag: u8) -> Result<CompareOp> {
    Ok(match tag {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        5 => CompareOp::Ge,
        t => return Err(bad_tag("CompareOp", t)),
    })
}

fn agg_code(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Avg => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
    }
}

fn agg_decode(tag: u8) -> Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        3 => AggFunc::Min,
        4 => AggFunc::Max,
        t => return Err(bad_tag("AggFunc", t)),
    })
}

fn arith_code(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
    }
}

fn arith_decode(tag: u8) -> Result<ArithOp> {
    Ok(match tag {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        t => return Err(bad_tag("ArithOp", t)),
    })
}

fn cost_var_code(v: CostVar) -> u8 {
    match v {
        CostVar::TimeFirst => 0,
        CostVar::TimeNext => 1,
        CostVar::TotalTime => 2,
        CostVar::CountObject => 3,
        CostVar::TotalSize => 4,
    }
}

fn cost_var_decode(tag: u8) -> Result<CostVar> {
    Ok(match tag {
        0 => CostVar::TimeFirst,
        1 => CostVar::TimeNext,
        2 => CostVar::TotalTime,
        3 => CostVar::CountObject,
        4 => CostVar::TotalSize,
        t => return Err(bad_tag("CostVar", t)),
    })
}

fn stat_code(s: StatName) -> u8 {
    match s {
        StatName::CountObject => 0,
        StatName::TotalSize => 1,
        StatName::ObjectSize => 2,
        StatName::CountPage => 3,
        StatName::Indexed => 4,
        StatName::CountDistinct => 5,
        StatName::Min => 6,
        StatName::Max => 7,
    }
}

fn stat_decode(tag: u8) -> Result<StatName> {
    Ok(match tag {
        0 => StatName::CountObject,
        1 => StatName::TotalSize,
        2 => StatName::ObjectSize,
        3 => StatName::CountPage,
        4 => StatName::Indexed,
        5 => StatName::CountDistinct,
        6 => StatName::Min,
        7 => StatName::Max,
        t => return Err(bad_tag("StatName", t)),
    })
}

fn builtin_code(b: Builtin) -> u8 {
    match b {
        Builtin::Min => 0,
        Builtin::Max => 1,
        Builtin::Exp => 2,
        Builtin::Ln => 3,
        Builtin::Log2 => 4,
        Builtin::Log10 => 5,
        Builtin::Sqrt => 6,
        Builtin::Pow => 7,
        Builtin::Ceil => 8,
        Builtin::Floor => 9,
        Builtin::Abs => 10,
    }
}

fn builtin_decode(tag: u8) -> Result<Builtin> {
    Ok(match tag {
        0 => Builtin::Min,
        1 => Builtin::Max,
        2 => Builtin::Exp,
        3 => Builtin::Ln,
        4 => Builtin::Log2,
        5 => Builtin::Log10,
        6 => Builtin::Sqrt,
        7 => Builtin::Pow,
        8 => Builtin::Ceil,
        9 => Builtin::Floor,
        10 => Builtin::Abs,
        t => return Err(bad_tag("Builtin", t)),
    })
}

fn child_code(c: ChildRef) -> u8 {
    match c {
        ChildRef::Input => 0,
        ChildRef::Left => 1,
        ChildRef::Right => 2,
    }
}

fn child_decode(tag: u8) -> Result<ChildRef> {
    Ok(match tag {
        0 => ChildRef::Input,
        1 => ChildRef::Left,
        2 => ChildRef::Right,
        t => return Err(bad_tag("ChildRef", t)),
    })
}

// ------------------------------------------------------------ predicates

fn encode_select_pred(p: &SelectPredicate, w: &mut WireWriter) {
    w.put_str(&p.attribute);
    w.put_u8(cmp_code(p.op));
    p.value.encode(w);
}

fn decode_select_pred(r: &mut WireReader<'_>) -> Result<SelectPredicate> {
    let attribute = r.get_str()?;
    let op = cmp_decode(r.get_u8()?)?;
    let value = Value::decode(r)?;
    Ok(SelectPredicate {
        attribute,
        op,
        value,
    })
}

fn encode_predicate(p: &Predicate, w: &mut WireWriter) {
    w.put_len(p.conjuncts.len());
    for c in &p.conjuncts {
        encode_select_pred(c, w);
    }
}

fn decode_predicate(r: &mut WireReader<'_>) -> Result<Predicate> {
    let n = r.get_len()?;
    let mut conjuncts = Vec::with_capacity(n);
    for _ in 0..n {
        conjuncts.push(decode_select_pred(r)?);
    }
    Ok(Predicate { conjuncts })
}

fn encode_join_pred(p: &JoinPredicate, w: &mut WireWriter) {
    w.put_str(&p.left_attr);
    w.put_u8(cmp_code(p.op));
    w.put_str(&p.right_attr);
}

fn decode_join_pred(r: &mut WireReader<'_>) -> Result<JoinPredicate> {
    let left_attr = r.get_str()?;
    let op = cmp_decode(r.get_u8()?)?;
    let right_attr = r.get_str()?;
    Ok(JoinPredicate {
        left_attr,
        op,
        right_attr,
    })
}

fn encode_scalar_expr(e: &ScalarExpr, w: &mut WireWriter) {
    match e {
        ScalarExpr::Attr(name) => {
            w.put_u8(0);
            w.put_str(name);
        }
        ScalarExpr::Const(v) => {
            w.put_u8(1);
            v.encode(w);
        }
        ScalarExpr::Binary { op, left, right } => {
            w.put_u8(2);
            w.put_u8(arith_code(*op));
            encode_scalar_expr(left, w);
            encode_scalar_expr(right, w);
        }
    }
}

fn decode_scalar_expr(r: &mut WireReader<'_>) -> Result<ScalarExpr> {
    Ok(match r.get_u8()? {
        0 => ScalarExpr::Attr(r.get_str()?),
        1 => ScalarExpr::Const(Value::decode(r)?),
        2 => {
            let op = arith_decode(r.get_u8()?)?;
            let left = Box::new(decode_scalar_expr(r)?);
            let right = Box::new(decode_scalar_expr(r)?);
            ScalarExpr::Binary { op, left, right }
        }
        t => return Err(bad_tag("ScalarExpr", t)),
    })
}

fn encode_agg_expr(a: &AggExpr, w: &mut WireWriter) {
    w.put_str(&a.name);
    w.put_u8(agg_code(a.func));
    match &a.arg {
        Some(arg) => {
            w.put_u8(1);
            w.put_str(arg);
        }
        None => w.put_u8(0),
    }
}

fn decode_agg_expr(r: &mut WireReader<'_>) -> Result<AggExpr> {
    let name = r.get_str()?;
    let func = agg_decode(r.get_u8()?)?;
    let arg = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_str()?),
        t => return Err(bad_tag("Option", t)),
    };
    Ok(AggExpr { name, func, arg })
}

// ----------------------------------------------------------------- plans

/// Encode a logical plan tree (the shipped form of a subplan).
pub fn encode_plan(p: &LogicalPlan, w: &mut WireWriter) {
    match p {
        LogicalPlan::Scan { collection, schema } => {
            w.put_u8(0);
            collection.encode(w);
            schema.encode(w);
        }
        LogicalPlan::Select { input, predicate } => {
            w.put_u8(1);
            encode_plan(input, w);
            encode_predicate(predicate, w);
        }
        LogicalPlan::Project { input, columns } => {
            w.put_u8(2);
            encode_plan(input, w);
            w.put_len(columns.len());
            for (name, e) in columns {
                w.put_str(name);
                encode_scalar_expr(e, w);
            }
        }
        LogicalPlan::Sort { input, keys } => {
            w.put_u8(3);
            encode_plan(input, w);
            w.put_len(keys.len());
            for (k, asc) in keys {
                w.put_str(k);
                w.put_bool(*asc);
            }
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => {
            w.put_u8(4);
            encode_plan(left, w);
            encode_plan(right, w);
            encode_join_pred(predicate, w);
            w.put_u8(match kind {
                JoinKind::Inner => 0,
                JoinKind::LeftOuter => 1,
            });
        }
        LogicalPlan::Union { left, right } => {
            w.put_u8(5);
            encode_plan(left, w);
            encode_plan(right, w);
        }
        LogicalPlan::Dedup { input } => {
            w.put_u8(6);
            encode_plan(input, w);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            w.put_u8(7);
            encode_plan(input, w);
            w.put_len(group_by.len());
            for g in group_by {
                w.put_str(g);
            }
            w.put_len(aggs.len());
            for a in aggs {
                encode_agg_expr(a, w);
            }
        }
        LogicalPlan::Submit { wrapper, input } => {
            w.put_u8(8);
            w.put_str(wrapper);
            encode_plan(input, w);
        }
    }
}

/// Decode a logical plan tree.
pub fn decode_plan(r: &mut WireReader<'_>) -> Result<LogicalPlan> {
    Ok(match r.get_u8()? {
        0 => LogicalPlan::Scan {
            collection: QualifiedName::decode(r)?,
            schema: Schema::decode(r)?,
        },
        1 => LogicalPlan::Select {
            input: Box::new(decode_plan(r)?),
            predicate: decode_predicate(r)?,
        },
        2 => {
            let input = Box::new(decode_plan(r)?);
            let n = r.get_len()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str()?;
                columns.push((name, decode_scalar_expr(r)?));
            }
            LogicalPlan::Project { input, columns }
        }
        3 => {
            let input = Box::new(decode_plan(r)?);
            let n = r.get_len()?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                let k = r.get_str()?;
                keys.push((k, r.get_bool()?));
            }
            LogicalPlan::Sort { input, keys }
        }
        4 => {
            let left = Box::new(decode_plan(r)?);
            let right = Box::new(decode_plan(r)?);
            let predicate = decode_join_pred(r)?;
            let kind = match r.get_u8()? {
                0 => JoinKind::Inner,
                1 => JoinKind::LeftOuter,
                t => return Err(bad_tag("JoinKind", t)),
            };
            LogicalPlan::Join {
                left,
                right,
                predicate,
                kind,
            }
        }
        5 => LogicalPlan::Union {
            left: Box::new(decode_plan(r)?),
            right: Box::new(decode_plan(r)?),
        },
        6 => LogicalPlan::Dedup {
            input: Box::new(decode_plan(r)?),
        },
        7 => {
            let input = Box::new(decode_plan(r)?);
            let ng = r.get_len()?;
            let mut group_by = Vec::with_capacity(ng);
            for _ in 0..ng {
                group_by.push(r.get_str()?);
            }
            let na = r.get_len()?;
            let mut aggs = Vec::with_capacity(na);
            for _ in 0..na {
                aggs.push(decode_agg_expr(r)?);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            }
        }
        8 => LogicalPlan::Submit {
            wrapper: r.get_str()?,
            input: Box::new(decode_plan(r)?),
        },
        t => return Err(bad_tag("LogicalPlan", t)),
    })
}

// ------------------------------------------------------------ statistics

fn encode_histogram(h: &Histogram, w: &mut WireWriter) {
    w.put_u8(match h.kind() {
        HistogramKind::EquiWidth => 0,
        HistogramKind::EquiDepth => 1,
    });
    w.put_len(h.buckets().len());
    for b in h.buckets() {
        w.put_f64(b.lo);
        w.put_f64(b.hi);
        w.put_u64(b.count);
        w.put_u64(b.distinct);
    }
}

fn decode_histogram(r: &mut WireReader<'_>) -> Result<Histogram> {
    let kind = match r.get_u8()? {
        0 => HistogramKind::EquiWidth,
        1 => HistogramKind::EquiDepth,
        t => return Err(bad_tag("HistogramKind", t)),
    };
    let n = r.get_len()?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push(Bucket {
            lo: r.get_f64()?,
            hi: r.get_f64()?,
            count: r.get_u64()?,
            distinct: r.get_u64()?,
        });
    }
    Ok(Histogram::from_parts(kind, buckets))
}

fn encode_collection_stats(s: &CollectionStats, w: &mut WireWriter) {
    w.put_u64(s.extent.count_object);
    w.put_u64(s.extent.total_size);
    w.put_u64(s.extent.object_size);
    // 0 encodes "no measured page count": a non-empty extent never
    // reports 0 pages, and an empty one derives 0 regardless.
    w.put_u64(s.extent.count_page.unwrap_or(0));
    w.put_len(s.attributes.len());
    for (name, a) in &s.attributes {
        w.put_str(name);
        w.put_bool(a.indexed);
        w.put_u64(a.count_distinct);
        a.min.encode(w);
        a.max.encode(w);
        match &a.histogram {
            Some(h) => {
                w.put_u8(1);
                encode_histogram(h, w);
            }
            None => w.put_u8(0),
        }
    }
}

fn decode_collection_stats(r: &mut WireReader<'_>) -> Result<CollectionStats> {
    let extent = ExtentStats {
        count_object: r.get_u64()?,
        total_size: r.get_u64()?,
        object_size: r.get_u64()?,
        count_page: match r.get_u64()? {
            0 => None,
            p => Some(p),
        },
    };
    let mut stats = CollectionStats::new(extent);
    let n = r.get_len()?;
    for _ in 0..n {
        let name = r.get_str()?;
        let indexed = r.get_bool()?;
        let count_distinct = r.get_u64()?;
        let min = Value::decode(r)?;
        let max = Value::decode(r)?;
        let mut a = AttributeStats::new(count_distinct, min, max);
        a.indexed = indexed;
        a.histogram = match r.get_u8()? {
            0 => None,
            1 => Some(decode_histogram(r)?),
            t => return Err(bad_tag("Option", t)),
        };
        stats = stats.with_attribute(name, a);
    }
    Ok(stats)
}

fn encode_capabilities(c: &Capabilities, w: &mut WireWriter) {
    let ops: Vec<OperatorKind> = c.ops().collect();
    w.put_len(ops.len());
    for op in ops {
        w.put_u8(op_kind_code(op));
    }
}

fn decode_capabilities(r: &mut WireReader<'_>) -> Result<Capabilities> {
    let n = r.get_len()?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(op_kind_decode(r.get_u8()?)?);
    }
    Ok(Capabilities::of(&ops))
}

// -------------------------------------------------- compiled cost rules

fn encode_coll_term(t: &CollTerm, w: &mut WireWriter) {
    match t {
        CollTerm::Named(s) => {
            w.put_u8(0);
            w.put_str(s);
        }
        CollTerm::Var(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn decode_coll_term(r: &mut WireReader<'_>) -> Result<CollTerm> {
    Ok(match r.get_u8()? {
        0 => CollTerm::Named(r.get_str()?),
        1 => CollTerm::Var(r.get_str()?),
        t => return Err(bad_tag("CollTerm", t)),
    })
}

fn encode_attr_term(t: &AttrTerm, w: &mut WireWriter) {
    match t {
        AttrTerm::Named(s) => {
            w.put_u8(0);
            w.put_str(s);
        }
        AttrTerm::Var(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn decode_attr_term(r: &mut WireReader<'_>) -> Result<AttrTerm> {
    Ok(match r.get_u8()? {
        0 => AttrTerm::Named(r.get_str()?),
        1 => AttrTerm::Var(r.get_str()?),
        t => return Err(bad_tag("AttrTerm", t)),
    })
}

fn encode_head_arg(a: &HeadArg, w: &mut WireWriter) {
    match a {
        HeadArg::Coll(t) => {
            w.put_u8(0);
            encode_coll_term(t, w);
        }
        HeadArg::Pred { left, op, right } => {
            w.put_u8(1);
            encode_attr_term(left, w);
            w.put_u8(cmp_code(*op));
            match right {
                PredRhs::Const(v) => {
                    w.put_u8(0);
                    v.encode(w);
                }
                PredRhs::Ident(s) => {
                    w.put_u8(1);
                    w.put_str(s);
                }
                PredRhs::Var(s) => {
                    w.put_u8(2);
                    w.put_str(s);
                }
            }
        }
        HeadArg::AnyPred(s) => {
            w.put_u8(2);
            w.put_str(s);
        }
        HeadArg::AttrList(list) => {
            w.put_u8(3);
            w.put_len(list.len());
            for s in list {
                w.put_str(s);
            }
        }
        HeadArg::Attr(t) => {
            w.put_u8(4);
            encode_attr_term(t, w);
        }
    }
}

fn decode_head_arg(r: &mut WireReader<'_>) -> Result<HeadArg> {
    Ok(match r.get_u8()? {
        0 => HeadArg::Coll(decode_coll_term(r)?),
        1 => {
            let left = decode_attr_term(r)?;
            let op = cmp_decode(r.get_u8()?)?;
            let right = match r.get_u8()? {
                0 => PredRhs::Const(Value::decode(r)?),
                1 => PredRhs::Ident(r.get_str()?),
                2 => PredRhs::Var(r.get_str()?),
                t => return Err(bad_tag("PredRhs", t)),
            };
            HeadArg::Pred { left, op, right }
        }
        2 => HeadArg::AnyPred(r.get_str()?),
        3 => {
            let n = r.get_len()?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(r.get_str()?);
            }
            HeadArg::AttrList(list)
        }
        4 => HeadArg::Attr(decode_attr_term(r)?),
        t => return Err(bad_tag("HeadArg", t)),
    })
}

fn encode_path_spec(p: &PathSpec, w: &mut WireWriter) {
    match &p.coll {
        CollSpec::Named(s) => {
            w.put_u8(0);
            w.put_str(s);
        }
        CollSpec::Binding(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        CollSpec::Child(c) => {
            w.put_u8(2);
            w.put_u8(child_code(*c));
        }
    }
    match &p.attr {
        Some(AttrSpec::Named(s)) => {
            w.put_u8(1);
            w.put_str(s);
        }
        Some(AttrSpec::Binding(s)) => {
            w.put_u8(2);
            w.put_str(s);
        }
        None => w.put_u8(0),
    }
    match p.leaf {
        PathLeaf::Stat(s) => {
            w.put_u8(0);
            w.put_u8(stat_code(s));
        }
        PathLeaf::Cost(v) => {
            w.put_u8(1);
            w.put_u8(cost_var_code(v));
        }
    }
}

fn decode_path_spec(r: &mut WireReader<'_>) -> Result<PathSpec> {
    let coll = match r.get_u8()? {
        0 => CollSpec::Named(r.get_str()?),
        1 => CollSpec::Binding(r.get_str()?),
        2 => CollSpec::Child(child_decode(r.get_u8()?)?),
        t => return Err(bad_tag("CollSpec", t)),
    };
    let attr = match r.get_u8()? {
        0 => None,
        1 => Some(AttrSpec::Named(r.get_str()?)),
        2 => Some(AttrSpec::Binding(r.get_str()?)),
        t => return Err(bad_tag("AttrSpec", t)),
    };
    let leaf = match r.get_u8()? {
        0 => PathLeaf::Stat(stat_decode(r.get_u8()?)?),
        1 => PathLeaf::Cost(cost_var_decode(r.get_u8()?)?),
        t => return Err(bad_tag("PathLeaf", t)),
    };
    Ok(PathSpec { coll, attr, leaf })
}

fn encode_instr(i: &Instr, w: &mut WireWriter) {
    match i {
        Instr::Const(x) => {
            w.put_u8(0);
            w.put_u16(*x);
        }
        Instr::LoadLocal(x) => {
            w.put_u8(1);
            w.put_u16(*x);
        }
        Instr::StoreLocal(x) => {
            w.put_u8(2);
            w.put_u16(*x);
        }
        Instr::LoadBinding(x) => {
            w.put_u8(3);
            w.put_u16(*x);
        }
        Instr::LoadParam(x) => {
            w.put_u8(4);
            w.put_u16(*x);
        }
        Instr::LoadSelfVar(v) => {
            w.put_u8(5);
            w.put_u8(cost_var_code(*v));
        }
        Instr::LoadPath(x) => {
            w.put_u8(6);
            w.put_u16(*x);
        }
        Instr::Add => w.put_u8(7),
        Instr::Sub => w.put_u8(8),
        Instr::Mul => w.put_u8(9),
        Instr::Div => w.put_u8(10),
        Instr::Neg => w.put_u8(11),
        Instr::CallBuiltin(b) => {
            w.put_u8(12);
            w.put_u8(builtin_code(*b));
        }
        Instr::CallEnv(name, argc) => {
            w.put_u8(13);
            w.put_u16(*name);
            w.put_u8(*argc);
        }
    }
}

fn decode_instr(r: &mut WireReader<'_>) -> Result<Instr> {
    Ok(match r.get_u8()? {
        0 => Instr::Const(r.get_u16()?),
        1 => Instr::LoadLocal(r.get_u16()?),
        2 => Instr::StoreLocal(r.get_u16()?),
        3 => Instr::LoadBinding(r.get_u16()?),
        4 => Instr::LoadParam(r.get_u16()?),
        5 => Instr::LoadSelfVar(cost_var_decode(r.get_u8()?)?),
        6 => Instr::LoadPath(r.get_u16()?),
        7 => Instr::Add,
        8 => Instr::Sub,
        9 => Instr::Mul,
        10 => Instr::Div,
        11 => Instr::Neg,
        12 => Instr::CallBuiltin(builtin_decode(r.get_u8()?)?),
        13 => Instr::CallEnv(r.get_u16()?, r.get_u8()?),
        t => return Err(bad_tag("Instr", t)),
    })
}

fn encode_program(p: &Program, w: &mut WireWriter) {
    w.put_len(p.instrs.len());
    for i in &p.instrs {
        encode_instr(i, w);
    }
    w.put_len(p.consts.len());
    for c in &p.consts {
        c.encode(w);
    }
    w.put_len(p.names.len());
    for n in &p.names {
        w.put_str(n);
    }
    w.put_len(p.paths.len());
    for path in &p.paths {
        encode_path_spec(path, w);
    }
    w.put_u16(p.n_locals);
}

fn decode_program(r: &mut WireReader<'_>) -> Result<Program> {
    let ni = r.get_len()?;
    let mut instrs = Vec::with_capacity(ni);
    for _ in 0..ni {
        instrs.push(decode_instr(r)?);
    }
    let nc = r.get_len()?;
    let mut consts = Vec::with_capacity(nc);
    for _ in 0..nc {
        consts.push(Value::decode(r)?);
    }
    let nn = r.get_len()?;
    let mut names = Vec::with_capacity(nn);
    for _ in 0..nn {
        names.push(r.get_str()?);
    }
    let np = r.get_len()?;
    let mut paths = Vec::with_capacity(np);
    for _ in 0..np {
        paths.push(decode_path_spec(r)?);
    }
    let n_locals = r.get_u16()?;
    Ok(Program {
        instrs,
        consts,
        names,
        paths,
        n_locals,
    })
}

fn encode_rule(rule: &CompiledRule, w: &mut WireWriter) {
    w.put_u8(op_kind_code(rule.head.op));
    w.put_len(rule.head.args.len());
    for a in &rule.head.args {
        encode_head_arg(a, w);
    }
    encode_program(&rule.body.program, w);
    w.put_len(rule.body.outputs.len());
    for (var, slot) in &rule.body.outputs {
        w.put_u8(cost_var_code(*var));
        w.put_u16(*slot);
    }
    match &rule.declared_in {
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
        None => w.put_u8(0),
    }
}

fn decode_rule(r: &mut WireReader<'_>) -> Result<CompiledRule> {
    let op = op_kind_decode(r.get_u8()?)?;
    let na = r.get_len()?;
    let mut args = Vec::with_capacity(na);
    for _ in 0..na {
        args.push(decode_head_arg(r)?);
    }
    let program = decode_program(r)?;
    let no = r.get_len()?;
    let mut outputs = Vec::with_capacity(no);
    for _ in 0..no {
        let var = cost_var_decode(r.get_u8()?)?;
        outputs.push((var, r.get_u16()?));
    }
    let declared_in = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_str()?),
        t => return Err(bad_tag("Option", t)),
    };
    Ok(CompiledRule {
        head: RuleHead { op, args },
        body: CompiledBody { program, outputs },
        declared_in,
    })
}

fn encode_document(doc: &CompiledDocument, w: &mut WireWriter) {
    w.put_len(doc.interfaces.len());
    for (name, schema, stats) in &doc.interfaces {
        w.put_str(name);
        schema.encode(w);
        encode_collection_stats(stats, w);
    }
    w.put_len(doc.params.len());
    for (name, v) in &doc.params {
        w.put_str(name);
        v.encode(w);
    }
    w.put_len(doc.rules.len());
    for rule in &doc.rules {
        encode_rule(rule, w);
    }
}

fn decode_document(r: &mut WireReader<'_>) -> Result<CompiledDocument> {
    let mut doc = CompiledDocument::default();
    let ni = r.get_len()?;
    for _ in 0..ni {
        let name = r.get_str()?;
        let schema = Schema::decode(r)?;
        let stats = decode_collection_stats(r)?;
        doc.interfaces.push((name, schema, stats));
    }
    let np = r.get_len()?;
    for _ in 0..np {
        let name = r.get_str()?;
        doc.params.push((name, Value::decode(r)?));
    }
    let nr = r.get_len()?;
    for _ in 0..nr {
        doc.rules.push(decode_rule(r)?);
    }
    Ok(doc)
}

// ---------------------------------------------------------- registration

/// Encode a full registration payload (Figure 1: capabilities, exported
/// collections with statistics, semi-compiled cost rules).
pub fn encode_registration(reg: &Registration, w: &mut WireWriter) {
    encode_capabilities(&reg.capabilities, w);
    w.put_len(reg.collections.len());
    for (name, schema, stats) in &reg.collections {
        w.put_str(name);
        schema.encode(w);
        encode_collection_stats(stats, w);
    }
    encode_document(&reg.cost_rules, w);
}

/// Decode a registration payload.
pub fn decode_registration(r: &mut WireReader<'_>) -> Result<Registration> {
    let capabilities = decode_capabilities(r)?;
    let n = r.get_len()?;
    let mut collections = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let schema = Schema::decode(r)?;
        let stats = decode_collection_stats(r)?;
        collections.push((name, schema, stats));
    }
    let cost_rules = decode_document(r)?;
    Ok(Registration {
        capabilities,
        collections,
        cost_rules,
    })
}

// -------------------------------------------------------------- envelope

impl WireEncode for Request {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Request::Register => w.put_u8(0),
            Request::Submit(plan) => {
                w.put_u8(1);
                encode_plan(plan, w);
            }
            Request::SubmitStream { plan, chunk_rows } => {
                w.put_u8(2);
                encode_plan(plan, w);
                w.put_u64(u64::from(*chunk_rows));
            }
        }
    }
}

impl WireDecode for Request {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => Request::Register,
            1 => Request::Submit(decode_plan(r)?),
            2 => {
                let plan = decode_plan(r)?;
                let chunk_rows = u32::try_from(r.get_u64()?)
                    .map_err(|_| DiscoError::Parse("wire: chunk_rows exceeds u32".into()))?;
                Request::SubmitStream { plan, chunk_rows }
            }
            t => return Err(bad_tag("Request", t)),
        })
    }
}

impl WireEncode for Response {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Response::Registration(reg) => {
                w.put_u8(0);
                encode_registration(reg, w);
            }
            Response::Answer(a) => {
                w.put_u8(1);
                a.encode(w);
            }
            Response::Error { kind, message } => {
                w.put_u8(2);
                w.put_str(kind);
                w.put_str(message);
            }
        }
    }
}

impl WireDecode for Response {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => Response::Registration(decode_registration(r)?),
            1 => Response::Answer(SubAnswer::decode(r)?),
            2 => Response::Error {
                kind: r.get_str()?,
                message: r.get_str()?,
            },
            t => return Err(bad_tag("Response", t)),
        })
    }
}

/// Decode a submit reply into its [`SubAnswer`]: the payload bytes go
/// from the receive buffer into column vectors. Error replies surface as
/// the [`DiscoError`] they carry, exactly like `Response::into_result`.
pub fn decode_answer_batch(payload: &[u8]) -> Result<SubAnswer> {
    let mut r = WireReader::new(payload);
    match r.get_u8()? {
        1 => {
            let answer = SubAnswer::decode(&mut r)?;
            r.expect_end()?;
            Ok(answer)
        }
        2 => {
            let kind = r.get_str()?;
            let message = r.get_str()?;
            Err(DiscoError::from_kind(&kind, message))
        }
        0 => Err(DiscoError::Exec(
            "endpoint answered submit with a registration payload".into(),
        )),
        t => Err(bad_tag("Response", t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::PlanBuilder;
    use disco_common::{AttributeDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            AttributeDef::new("id", DataType::Long),
            AttributeDef::new("v", DataType::Long),
        ])
    }

    fn plan() -> LogicalPlan {
        PlanBuilder::scan(QualifiedName::new("s", "T"), schema())
            .select("id", CompareOp::Lt, 10i64)
            .submit("s")
            .build()
    }

    #[test]
    fn plan_round_trips() {
        let p = plan();
        let mut w = WireWriter::new();
        encode_plan(&p, &mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_plan(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn request_and_error_response_round_trip() {
        let req = Request::Submit(plan());
        let back = Request::from_wire_bytes(&req.to_wire_bytes()).unwrap();
        assert_eq!(back, req);

        let resp = Response::Error {
            kind: "unavailable".into(),
            message: "endpoint drained".into(),
        };
        let back = Response::from_wire_bytes(&resp.to_wire_bytes()).unwrap();
        let err = back.into_result().unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert_eq!(err.message(), "endpoint drained");
    }

    #[test]
    fn registration_round_trips_with_rules_and_histograms() {
        use disco_sources::{CollectionBuilder, CostProfile, DataSource, PagedStore};
        use disco_wrapper::SourceWrapper;
        use disco_wrapper::Wrapper;

        let mut store = PagedStore::new("s", CostProfile::relational());
        store
            .add_collection(
                "T",
                CollectionBuilder::new(schema())
                    .rows((0..200i64).map(|i| vec![Value::Long(i), Value::Long(i % 7)]))
                    .object_size(16)
                    .index("id"),
            )
            .unwrap();
        // Sanity: the source exports statistics the payload must carry.
        assert!(store.statistics("T").is_some());
        let w = SourceWrapper::new("s", store).with_cost_rules(
            "let IO = 25.0;
             let pages($b) = ceil($b / 4096);
             interface T {
                attribute long id;
                cardinality extent(200, 3200, 16);
                rule scan(T) { TotalTime = pages(T.TotalSize) * IO; }
             }
             rule select($C, $A = $V) {
                CountObject = $C.CountObject * selectivity($A, $V);
                TotalTime = input.TotalTime + CountObject;
             }",
        );
        let reg = w.registration().unwrap();
        let mut wr = WireWriter::new();
        encode_registration(&reg, &mut wr);
        let bytes = wr.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = decode_registration(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.collections, reg.collections);
        assert_eq!(back.cost_rules, reg.cost_rules);
        assert_eq!(back.rule_count(), 2);
        assert_eq!(
            back.capabilities.ops().collect::<Vec<_>>(),
            reg.capabilities.ops().collect::<Vec<_>>()
        );
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        let req = Request::Submit(plan());
        let bytes = req.to_wire_bytes();
        for cut in 0..bytes.len() {
            assert!(Request::from_wire_bytes(&bytes[..cut]).is_err());
        }
        // Flipping the outer tag must not panic either.
        let mut flipped = bytes.clone();
        flipped[0] = 77;
        assert!(Request::from_wire_bytes(&flipped).is_err());
    }

    #[test]
    fn submit_stream_request_round_trips() {
        let req = Request::SubmitStream {
            plan: plan(),
            chunk_rows: 1024,
        };
        let bytes = req.to_wire_bytes();
        assert_eq!(Request::from_wire_bytes(&bytes).unwrap(), req);
        for cut in 0..bytes.len() {
            assert!(Request::from_wire_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn frames_round_trip_and_reject_malformed() {
        use disco_common::Tuple;

        let tuples = vec![
            Tuple::new(vec![Value::Long(1), Value::Long(2)]),
            Tuple::new(vec![Value::Long(3), Value::Null]),
        ];
        let batch = Batch::from_tuples(2, &tuples);
        let chunk = Frame::Chunk(SubAnswer {
            schema: schema(),
            batch: batch.clone(),
            stats: ExecStats::default(),
        });
        // A chunk of every row is the whole chunk's bytes.
        assert_eq!(
            Frame::chunk_bytes(&schema(), &batch, 0..batch.len()),
            chunk.to_wire_bytes()
        );
        let end = Frame::End(ExecStats {
            elapsed_ms: 12.5,
            time_first_ms: 3.25,
            pages_read: 7,
            buffer_hits: 2,
            objects_scanned: 40,
        });
        let error = Frame::Error {
            kind: "timeout".into(),
            message: "no frame".into(),
        };
        for frame in [chunk, end, error] {
            let bytes = frame.to_wire_bytes();
            assert_eq!(decode_frame(&bytes).unwrap(), frame);
            for cut in 0..bytes.len() {
                assert!(decode_frame(&bytes[..cut]).is_err());
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(decode_frame(&trailing).is_err());
            let mut flipped = bytes.clone();
            flipped[0] = 99;
            assert!(decode_frame(&flipped).is_err());
        }
    }
}
