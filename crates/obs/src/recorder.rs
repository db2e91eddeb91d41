//! Recorder trait and the ring-buffer / null implementations.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{LogicalTime, StampedEvent, TraceEvent};

/// A sink for [`TraceEvent`]s.
///
/// Implementations take `&self` and must be thread-safe so one recorder can
/// be shared (via `Arc`) by every monitor actor of a run, on either the
/// deterministic simulator or the `wcp-net` peers' worker threads.
pub trait Recorder: Send + Sync {
    /// Records one event performed by `monitor` at logical time `time`.
    fn record(&self, monitor: u32, time: LogicalTime, event: TraceEvent);

    /// Whether events are being kept. Call sites may skip building costly
    /// payloads when this is `false` — the contract that makes
    /// [`NullRecorder`] effectively free on hot paths.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// Where a socket run's encoded telemetry deltas land: `wcp-net`'s
/// `TelemetryCollector`, shared with whoever watches the run live.
pub trait TelemetrySink: Send + Sync {
    /// Takes one encoded delta body, off the wire or from the collector
    /// peer's own recorder.
    fn ingest(&self, delta: &[u8]);
}

/// A recorder that drops everything. [`is_enabled`](Recorder::is_enabled)
/// returns `false`, so instrumented hot paths skip event construction
/// entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&self, _monitor: u32, _time: LogicalTime, _event: TraceEvent) {}

    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<StampedEvent>,
    seq: u64,
    dropped: u64,
}

/// A bounded in-memory event buffer.
///
/// Keeps the most recent `capacity` events; older ones are dropped and
/// counted. Interior mutability (a mutex around a `VecDeque`) lets one
/// instance serve all monitors of a run.
#[derive(Debug)]
pub struct RingRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    wall_clock: bool,
    epoch: Instant,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` events (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
            wall_clock: false,
            epoch: Instant::now(),
        }
    }

    /// Also stamps events with wall-clock nanoseconds since creation —
    /// used by net runs, where logical ticks don't exist.
    pub fn with_wall_clock(mut self) -> Self {
        self.wall_clock = true;
        self
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().buf.len()
    }

    /// Whether nothing has been recorded (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// A copy of the buffered events, in recording order.
    pub fn events(&self) -> Vec<StampedEvent> {
        self.ring.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Removes and returns the buffered events, keeping the sequence
    /// counter running.
    pub fn drain(&self) -> Vec<StampedEvent> {
        self.ring.lock().unwrap().buf.drain(..).collect()
    }
}

/// A recorder that forwards every event to two sinks.
///
/// The telemetry plane uses this to tee a run's user-facing recorder into
/// a per-peer ring without the instrumented code knowing: each peer
/// records once, and both the caller's sink and the sidecar ring see the
/// event. Enabled whenever either side is.
pub struct TeeRecorder {
    a: std::sync::Arc<dyn Recorder>,
    b: std::sync::Arc<dyn Recorder>,
}

impl TeeRecorder {
    /// Tees into both `a` and `b`, in that order.
    pub fn new(a: std::sync::Arc<dyn Recorder>, b: std::sync::Arc<dyn Recorder>) -> Self {
        TeeRecorder { a, b }
    }
}

impl Recorder for TeeRecorder {
    fn record(&self, monitor: u32, time: LogicalTime, event: TraceEvent) {
        self.a.record(monitor, time, event.clone());
        self.b.record(monitor, time, event);
    }

    fn is_enabled(&self) -> bool {
        self.a.is_enabled() || self.b.is_enabled()
    }
}

impl Recorder for RingRecorder {
    fn record(&self, monitor: u32, time: LogicalTime, event: TraceEvent) {
        let wall_nanos = self
            .wall_clock
            .then(|| self.epoch.elapsed().as_nanos() as u64);
        let mut ring = self.ring.lock().unwrap();
        let seq = ring.seq;
        ring.seq += 1;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(StampedEvent {
            seq,
            monitor,
            time,
            wall_nanos,
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let r = NullRecorder;
        assert!(!r.is_enabled());
        r.record(0, LogicalTime::Tick(1), TraceEvent::Work { units: 1 });
    }

    #[test]
    fn ring_keeps_recording_order() {
        let r = RingRecorder::new(16);
        assert!(r.is_enabled());
        for i in 0..5u64 {
            r.record(0, LogicalTime::Tick(i), TraceEvent::Work { units: i });
        }
        let events = r.events();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let r = RingRecorder::new(3);
        for i in 0..10u64 {
            r.record(0, LogicalTime::Tick(i), TraceEvent::Work { units: i });
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(r.dropped(), 7);
        assert_eq!(events[0].seq, 7, "oldest surviving event");
    }

    #[test]
    fn drain_empties_but_keeps_sequence() {
        let r = RingRecorder::new(8);
        r.record(1, LogicalTime::Unknown, TraceEvent::DetectionExhausted);
        assert_eq!(r.drain().len(), 1);
        assert!(r.is_empty());
        r.record(1, LogicalTime::Unknown, TraceEvent::DetectionExhausted);
        assert_eq!(r.events()[0].seq, 1);
    }

    #[test]
    fn wall_clock_stamps_when_enabled() {
        let r = RingRecorder::new(4).with_wall_clock();
        r.record(0, LogicalTime::Unknown, TraceEvent::Work { units: 1 });
        assert!(r.events()[0].wall_nanos.is_some());
        let r = RingRecorder::new(4);
        r.record(0, LogicalTime::Unknown, TraceEvent::Work { units: 1 });
        assert!(r.events()[0].wall_nanos.is_none());
    }

    #[test]
    fn tee_feeds_both_sinks_and_is_enabled_when_either_is() {
        use std::sync::Arc;
        let a = Arc::new(RingRecorder::new(8));
        let b = Arc::new(RingRecorder::new(8));
        let tee = TeeRecorder::new(a.clone(), b.clone());
        assert!(tee.is_enabled());
        tee.record(2, LogicalTime::Tick(7), TraceEvent::Work { units: 9 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.events()[0].monitor, 2);
        let null_tee = TeeRecorder::new(Arc::new(NullRecorder), Arc::new(NullRecorder));
        assert!(!null_tee.is_enabled());
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        use std::sync::Arc;
        let r = Arc::new(RingRecorder::new(1024));
        let handles: Vec<_> = (0..4u32)
            .map(|m| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        r.record(m, LogicalTime::Tick(i), TraceEvent::Work { units: 1 });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 400);
    }
}
