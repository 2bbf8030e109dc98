//! Remote-wrapper transport runtime.
//!
//! The seed mediator called wrappers through in-process trait objects and
//! charged a uniform analytic `comm_ms` per submit. This crate replaces
//! that with an honest RPC boundary (DESIGN.md "Transport & fault model"):
//!
//! * [`wire`] — everything crossing mediator ↔ wrapper is encoded to
//!   bytes: subplans out, registration payloads and subanswers back. No
//!   shared pointers survive the boundary.
//! * [`channel`] — [`ChannelTransport`] hosts each wrapper behind an
//!   endpoint that models its network link (latency, bandwidth,
//!   deterministic jitter) instead of the old uniform charge. An
//!   endpoint is served on its caller's thread; only one whose link
//!   really sleeps or drops messages gets a worker thread and a queue.
//! * [`fault`] — injectable fault schedules (drop / delay / unavailable
//!   windows) for testing degraded federations.
//! * [`breaker`] — a deterministic circuit breaker (call-counted, no
//!   wall-clock dependence).
//! * [`client`] — [`TransportClient`] drives a [`Transport`] with
//!   per-submit deadlines, bounded retries with exponential backoff,
//!   per-endpoint circuit breaking and straggler hedges to replicas
//!   (refereed in simulated time, on the caller's thread); it is what
//!   the mediator's executor talks to.
//!
//! Everything is deterministic: jitter comes from the workspace RNG
//! ([`disco_common::rng`]) keyed per endpoint, faults are scheduled by
//! request sequence number, and the breaker counts calls.

pub mod breaker;
pub mod channel;
pub mod client;
pub mod fault;
pub mod netsim;
pub mod resilience;
pub mod wire;

use std::time::Duration;

use disco_common::Result;

pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
pub use channel::ChannelTransport;
pub use client::{
    HedgeTarget, HedgedStreamOutcome, PendingStream, RetryPolicy, StreamChunk, SubmitOptions,
    SubmitOutcome, SubmitStream, TransportClient,
};
pub use fault::{FaultKind, FaultPlan};
pub use netsim::NetProfile;
pub use resilience::ResiliencePolicy;
pub use wire::{decode_answer_batch, decode_frame, Frame, Request, Response};

/// One delivered reply, with transfer accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Encoded [`Response`] bytes.
    pub payload: Vec<u8>,
    /// Simulated round-trip communication time in milliseconds (latency,
    /// transfer, jitter and any injected delay).
    pub comm_ms: f64,
    /// Size of the request as shipped.
    pub request_bytes: usize,
    /// Size of the reply as shipped.
    pub response_bytes: usize,
}

/// A byte-level RPC boundary between the mediator and wrapper endpoints.
///
/// Implementations deliver an encoded [`Request`] to the named endpoint
/// and return the encoded [`Response`], or time out. They must be callable
/// from multiple threads at once — concurrent sessions share one client.
pub trait Transport: Send + Sync {
    /// Names of the endpoints this transport can reach.
    fn endpoints(&self) -> Vec<String>;

    /// Deliver `request` to `endpoint` and wait up to `deadline` for the
    /// reply. A lost or overdue reply is a `DiscoError::Timeout`; an
    /// unknown endpoint is a configuration error (`DiscoError::Exec`).
    fn call(&self, endpoint: &str, request: &[u8], deadline: Duration) -> Result<Envelope>;

    /// The minimum simulated round-trip time for `endpoint` — latency
    /// only, no transfer or jitter — when the transport models one.
    /// [`TransportClient`] clamps deadlines to this floor so an
    /// aggressive predicted deadline can never undercut the link itself.
    fn latency_floor_ms(&self, _endpoint: &str) -> Option<f64> {
        None
    }

    /// Wall-clock milliseconds actually slept per simulated millisecond
    /// on `endpoint` (`NetProfile::sleep_scale` for the simulated
    /// transport), when known. Converts the simulated latency floor into
    /// a wall-clock one.
    fn sleep_scale(&self, _endpoint: &str) -> Option<f64> {
        None
    }

    /// Open a streaming call: deliver `request` (a
    /// [`Request::SubmitStream`]) to `endpoint` and return a handle that
    /// yields reply [`Frame`]s incrementally. The contract the executor's
    /// scatter-gather fetch rests on: the call returns once the request
    /// is queued at the endpoint and never waits for a reply, so one
    /// thread can have a request outstanding at every endpoint before it
    /// blocks on any of them. Frames are pulled with
    /// [`FrameStream::next_frame`] under per-frame deadlines.
    fn call_stream(&self, endpoint: &str, request: &[u8]) -> Result<Box<dyn FrameStream>>;
}

/// A shared transport is a transport: whoever built it can keep a handle
/// (to read an endpoint's counters, say) after handing it to a client.
impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn endpoints(&self) -> Vec<String> {
        (**self).endpoints()
    }
    fn call(&self, endpoint: &str, request: &[u8], deadline: Duration) -> Result<Envelope> {
        (**self).call(endpoint, request, deadline)
    }
    fn latency_floor_ms(&self, endpoint: &str) -> Option<f64> {
        (**self).latency_floor_ms(endpoint)
    }
    fn sleep_scale(&self, endpoint: &str) -> Option<f64> {
        (**self).sleep_scale(endpoint)
    }
    fn call_stream(&self, endpoint: &str, request: &[u8]) -> Result<Box<dyn FrameStream>> {
        (**self).call_stream(endpoint, request)
    }
}

/// One streamed reply frame with its transfer accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameEnvelope {
    /// Encoded [`Frame`] bytes.
    pub payload: Vec<u8>,
    /// Simulated communication time attributed to this frame in
    /// milliseconds. The first frame of a stream carries the round-trip
    /// latency (plus jitter and any injected delay); later frames pay
    /// transfer time only, pipelined on the established exchange.
    pub comm_ms: f64,
}

/// A live reply stream opened by [`Transport::call_stream`].
///
/// End of stream is in-band (a [`Frame::End`] or [`Frame::Error`]
/// terminator); a frame that fails to arrive within `deadline` is a
/// `DiscoError::Timeout`. Dropping the handle abandons the stream and
/// releases the producer.
pub trait FrameStream: Send {
    /// Block up to `deadline` for the next frame.
    fn next_frame(&mut self, deadline: Duration) -> Result<FrameEnvelope>;
}
