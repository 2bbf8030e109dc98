//! Simulated per-endpoint network model.
//!
//! The seed executor charged every submit the same analytic
//! `MsgLatency + PerByte × bytes`. The transport replaces that with a
//! per-endpoint profile: round-trip latency, bandwidth and deterministic
//! jitter, so heterogeneous sources can sit behind heterogeneous links —
//! the situation the paper's mediator actually faces.

/// Network characteristics of one mediator ↔ wrapper link.
#[derive(Debug, Clone, PartialEq)]
pub struct NetProfile {
    /// One-way message latency in milliseconds (charged twice per call).
    pub latency_ms: f64,
    /// Transfer rate in bytes per millisecond.
    pub bytes_per_ms: f64,
    /// Maximum uniform jitter added per call, in milliseconds. Drawn from
    /// the deterministic workspace RNG keyed by endpoint name.
    pub jitter_ms: f64,
    /// Fraction of the simulated communication time the endpoint really
    /// sleeps, so wall-clock measurements reflect the model. `0.0` keeps
    /// tests instant; benches use a small positive value. An endpoint
    /// that sleeps is served by a worker thread of its own.
    pub sleep_scale: f64,
}

impl NetProfile {
    /// The seed executor's uniform charge (`MsgLatency = 100 ms`,
    /// `PerByte = 0.001 ms`) recast as a profile: 50 ms each way,
    /// 1000 bytes/ms, no jitter, no real sleeping.
    pub fn lan() -> Self {
        NetProfile {
            latency_ms: 50.0,
            bytes_per_ms: 1000.0,
            jitter_ms: 0.0,
            sleep_scale: 0.0,
        }
    }

    /// A slow, jittery long-haul link.
    pub fn wan() -> Self {
        NetProfile {
            latency_ms: 200.0,
            bytes_per_ms: 100.0,
            jitter_ms: 40.0,
            sleep_scale: 0.0,
        }
    }

    /// Override the sleep scale (builder style).
    pub fn with_sleep_scale(mut self, scale: f64) -> Self {
        self.sleep_scale = scale;
        self
    }

    /// Override the jitter bound (builder style).
    pub fn with_jitter_ms(mut self, jitter: f64) -> Self {
        self.jitter_ms = jitter;
        self
    }

    /// Simulated round-trip time for a call shipping `request_bytes` out
    /// and `response_bytes` back. `jitter_draw` is a uniform sample in
    /// `[0, 1)` from the endpoint's RNG.
    pub fn comm_ms(&self, request_bytes: usize, response_bytes: usize, jitter_draw: f64) -> f64 {
        let transfer = if self.bytes_per_ms > 0.0 {
            (request_bytes + response_bytes) as f64 / self.bytes_per_ms
        } else {
            0.0
        };
        2.0 * self.latency_ms + transfer + self.jitter_ms * jitter_draw
    }

    /// Transfer time alone for `bytes` shipped on an already-established
    /// exchange — what the frames of a streamed reply pay after the first
    /// one has absorbed the round-trip latency.
    pub fn transfer_ms(&self, bytes: usize) -> f64 {
        if self.bytes_per_ms > 0.0 {
            bytes as f64 / self.bytes_per_ms
        } else {
            0.0
        }
    }
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_matches_the_seed_charge() {
        // Seed model: 100 ms + 0.001 ms/byte. A 4000-byte reply to a
        // 0-byte request cost 104 ms there; the lan profile agrees.
        let p = NetProfile::lan();
        assert!((p.comm_ms(0, 4000, 0.0) - 104.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_bounded_and_zero_bandwidth_is_safe() {
        let p = NetProfile {
            latency_ms: 10.0,
            bytes_per_ms: 0.0,
            jitter_ms: 5.0,
            sleep_scale: 0.0,
        };
        let lo = p.comm_ms(100, 100, 0.0);
        let hi = p.comm_ms(100, 100, 0.999);
        assert!((lo - 20.0).abs() < 1e-9);
        assert!(hi < 25.0 && hi > lo);
    }
}
