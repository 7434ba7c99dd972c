//! Host-side glue for the engine-level [`Coalescer`]: a node's `Outbox`
//! (staging a frame or sending it directly, lowering a flush onto the
//! wire) and the batching telemetry.
//!
//! The coalescing *decisions* (which frames ride together, when a lane
//! flushes) live in `bluedove_engine::batch` so the simulator makes the
//! same ones; this module owns what only the threaded host has — the real
//! transport behind a flush and the metric registry the flush is recorded
//! into.

use crate::proto::ControlMsg;
use bluedove_core::Time;
use bluedove_engine::{Coalescer, Flush, FlushReason};
use bluedove_net::{to_bytes, Transport};
use bluedove_telemetry::{Counter, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Telemetry handles for one component's coalescer (dispatchers and
/// matchers register their own `component` label).
pub struct BatchMetrics {
    /// Frames per flushed batch (a size distribution, recorded as a
    /// unitless histogram).
    frames: Histogram,
    /// Flushes triggered by the lane reaching `max_batch`.
    size: Counter,
    /// Flushes triggered by the node running out of input.
    idle: Counter,
    /// Flushes triggered by the oldest staged frame aging out.
    deadline: Counter,
    /// Flushes the host forced (shutdown, ordering barriers, dead peers).
    explicit: Counter,
}

impl BatchMetrics {
    /// Registers the batch metric families labelled by `component`.
    /// Registration is idempotent — all dispatchers share one series.
    pub fn register(registry: &Registry, component: &str) -> Self {
        let labels = vec![("component", component.to_string())];
        let reason = |r: &'static str| {
            let mut l = labels.clone();
            l.push(("reason", r.to_string()));
            registry.counter(
                "bluedove_batch_flush_total",
                "coalescer flushes by trigger",
                &l,
            )
        };
        BatchMetrics {
            frames: registry.histogram(
                "bluedove_batch_frames",
                "frames per coalesced transport send",
                &labels,
            ),
            size: reason("size"),
            idle: reason("idle"),
            deadline: reason("deadline"),
            explicit: reason("explicit"),
        }
    }

    /// Records one flush of `n` frames.
    pub fn record(&self, n: usize, reason: FlushReason) {
        self.frames.observe_us(n as u64);
        match reason {
            FlushReason::Size => self.size.inc(),
            FlushReason::Idle => self.idle.inc(),
            FlushReason::Deadline => self.deadline.inc(),
            FlushReason::Explicit => self.explicit.inc(),
        }
    }
}

/// Lowers flushed frames onto the wire: a single frame goes out unwrapped
/// (byte-identical to an unbatched sender), a run goes out as one
/// [`ControlMsg::Batch`].
pub fn flush_frame(mut items: Vec<ControlMsg>) -> ControlMsg {
    debug_assert!(!items.is_empty(), "flushes are never empty");
    if items.len() == 1 {
        items.pop().expect("len checked")
    } else {
        ControlMsg::Batch(items)
    }
}

/// A node's outbound side: the transport, and the coalescer (with its
/// telemetry) that hot-path frames are staged in when batching is on.
pub(crate) struct Outbox {
    pub transport: Arc<dyn Transport>,
    pub metrics: BatchMetrics,
    pub batcher: Coalescer<ControlMsg>,
    /// Host-clock time of the step being handled — the stage time of
    /// whatever it sends.
    pub now: Time,
}

impl Outbox {
    /// Sends `msg` directly; whether the transport accepted it.
    pub fn send(&self, addr: &str, msg: &ControlMsg) -> bool {
        self.transport.send(addr, to_bytes(msg).freeze()).is_ok()
    }

    /// Sends one flush, recording its telemetry; whether the transport
    /// accepted it.
    pub fn send_flush(&self, flush: Flush<ControlMsg>) -> bool {
        self.metrics.record(flush.items.len(), flush.reason);
        self.send(&flush.dest, &flush_frame(flush.items))
    }

    /// Hands `frame` to the coalescer — or, with batching off, straight
    /// to the transport, so the batch metrics record real coalescer
    /// flushes only. Returns `false` only when the call sent something
    /// (the frame alone, or the size flush it completed) and the
    /// transport refused it.
    pub fn stage(&mut self, addr: &str, frame: ControlMsg) -> bool {
        if !self.batcher.cfg().enabled() {
            return self.send(addr, &frame);
        }
        match self.batcher.push(self.now, addr, frame) {
            Some(flush) => self.send_flush(flush),
            None => true,
        }
    }
}

/// How long a host may block before `deadline` (host-clock seconds) is
/// due, at most `cap`. A deadline too far off to express — size-only
/// flushing has `max_delay = +inf` — is `cap` away.
pub fn wake_in(deadline: Time, now: Time, cap: Duration) -> Duration {
    Duration::try_from_secs_f64((deadline - now).max(0.0)).map_or(cap, |d| d.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_flushes_are_unwrapped() {
        let f = flush_frame(vec![ControlMsg::Shutdown]);
        assert_eq!(f, ControlMsg::Shutdown);
        let f = flush_frame(vec![ControlMsg::Shutdown, ControlMsg::Leave]);
        assert_eq!(
            f,
            ControlMsg::Batch(vec![ControlMsg::Shutdown, ControlMsg::Leave])
        );
    }

    #[test]
    fn wake_in_caps_deadlines_no_duration_can_hold() {
        let cap = Duration::from_millis(50);
        assert_eq!(
            wake_in(1.010, 1.0, cap),
            Duration::from_secs_f64(1.010 - 1.0)
        );
        assert_eq!(wake_in(0.5, 1.0, cap), Duration::ZERO);
        assert_eq!(wake_in(9.0, 1.0, cap), cap);
        assert_eq!(wake_in(Time::INFINITY, 1.0, cap), cap);
        assert_eq!(wake_in(Duration::MAX.as_secs_f64(), 1.0, cap), cap);
    }

    #[test]
    fn metrics_register_idempotently() {
        let r = Registry::new();
        let a = BatchMetrics::register(&r, "dispatcher");
        let b = BatchMetrics::register(&r, "dispatcher");
        a.record(3, FlushReason::Size);
        b.record(1, FlushReason::Deadline);
        assert_eq!(
            r.counter_value(
                "bluedove_batch_flush_total",
                &[
                    ("component", "dispatcher".into()),
                    ("reason", "size".into())
                ]
            ),
            Some(1)
        );
    }
}
