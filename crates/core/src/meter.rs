//! The metering facade shared by the offline detectors.
//!
//! Every cost mutation a detector performs goes through a [`Meter`], which
//! updates its [`DetectionMetrics`] *and* emits the matching
//! [`TraceEvent`] in the same call. Because the two can never be updated
//! separately, [`replay_metrics`] reconstructs the exact metrics of a run
//! from its recorded event stream — the property the observability tests
//! assert for every detector family.
//!
//! Events are stamped with [`LogicalTime::Tick`]; the tick is a protocol
//! step counter that advances on every token movement, so the rendered
//! timeline (`wcp_obs::report::RunReport`) spreads a run over its hops.

use std::sync::Arc;

use wcp_obs::{LogicalTime, Recorder, StampedEvent, TraceEvent};

use crate::metrics::DetectionMetrics;

/// Couples a run's [`DetectionMetrics`] with its event stream.
///
/// All methods mutate the metrics unconditionally; event construction is
/// skipped when the recorder is disabled (the [`wcp_obs::NullRecorder`]
/// fast path), so metering without recording costs what the bare counter
/// updates used to.
pub(crate) struct Meter {
    pub metrics: DetectionMetrics,
    recorder: Arc<dyn Recorder>,
    step: u64,
}

impl Meter {
    /// Zeroed metrics over `participants` processes, events to `recorder`.
    pub fn new(participants: usize, recorder: Arc<dyn Recorder>) -> Self {
        Meter {
            metrics: DetectionMetrics::new(participants),
            recorder,
            step: 0,
        }
    }

    #[inline]
    fn emit(&self, monitor: usize, event: TraceEvent) {
        self.recorder
            .record(monitor as u32, LogicalTime::Tick(self.step), event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// A snapshot entered `monitor`'s buffer, `depth` deep after insertion.
    pub fn snapshot_buffered(&mut self, monitor: usize, depth: u64, bytes: u64) {
        self.metrics.snapshot_messages += 1;
        self.metrics.snapshot_bytes += bytes;
        self.metrics.max_buffered_snapshots = self.metrics.max_buffered_snapshots.max(depth);
        if self.enabled() {
            self.emit(monitor, TraceEvent::SnapshotBuffered { depth, bytes });
        }
    }

    /// The token arrived at `monitor`. Timeline-only (hops are counted at
    /// the send).
    pub fn token_acquired(&mut self, monitor: usize, from: Option<usize>) {
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::TokenAcquired {
                    from: from.map(|f| f as u32),
                },
            );
        }
    }

    /// `monitor` sent the token to `to`: one hop, one control message.
    /// Advances the timeline tick.
    pub fn token_forwarded(&mut self, monitor: usize, to: usize, bytes: u64) {
        self.metrics.token_hops += 1;
        self.metrics.control_messages += 1;
        self.metrics.control_bytes += bytes;
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::TokenForwarded {
                    to: to as u32,
                    bytes,
                },
            );
        }
        self.step += 1;
    }

    /// `monitor` consumed and rejected the candidate `(process, interval)`,
    /// spending `work` units.
    pub fn candidate_eliminated(
        &mut self,
        monitor: usize,
        process: usize,
        interval: u64,
        work: u64,
    ) {
        self.metrics.candidates_consumed += 1;
        self.metrics.add_work(monitor, work);
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::CandidateEliminated {
                    process: process as u32,
                    interval,
                    work,
                },
            );
        }
    }

    /// `monitor` consumed the candidate `(process, interval)` and it
    /// survives in the cut, at a cost of `work` units.
    pub fn candidate_accepted(&mut self, monitor: usize, process: usize, interval: u64, work: u64) {
        self.metrics.candidates_consumed += 1;
        self.metrics.add_work(monitor, work);
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::CandidateAccepted {
                    process: process as u32,
                    interval,
                    work,
                },
            );
        }
    }

    /// The elimination rule turned `(process, interval)` red without
    /// consuming a snapshot. Timeline-only.
    pub fn candidate_invalidated(&mut self, monitor: usize, process: usize, interval: u64) {
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::CandidateInvalidated {
                    process: process as u32,
                    interval,
                },
            );
        }
    }

    /// `units` of work at `monitor`, not tied to a single candidate.
    pub fn work(&mut self, monitor: usize, units: u64) {
        self.metrics.add_work(monitor, units);
        if self.enabled() {
            self.emit(monitor, TraceEvent::Work { units });
        }
    }

    /// `monitor` polled `to` (Section 4): one control message.
    pub fn poll_sent(&mut self, monitor: usize, to: usize, bytes: u64) {
        self.metrics.control_messages += 1;
        self.metrics.control_bytes += bytes;
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::PollSent {
                    to: to as u32,
                    bytes,
                },
            );
        }
    }

    /// `monitor` answered a poll from `to`: one control message.
    pub fn poll_answered(&mut self, monitor: usize, to: usize, alive: bool, bytes: u64) {
        self.metrics.control_messages += 1;
        self.metrics.control_bytes += bytes;
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::PollAnswered {
                    to: to as u32,
                    alive,
                    bytes,
                },
            );
        }
    }

    /// The Section 4 token moved from `monitor` to `to` along the red
    /// chain. Advances the timeline tick.
    pub fn red_chain_hop(&mut self, monitor: usize, to: usize, bytes: u64) {
        self.metrics.token_hops += 1;
        self.metrics.control_messages += 1;
        self.metrics.control_bytes += bytes;
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::RedChainHop {
                    to: to as u32,
                    bytes,
                },
            );
        }
        self.step += 1;
    }

    /// `monitor` sent `count` non-token control messages totalling `bytes`
    /// to `to` (leader round-trips, hierarchical state shipping).
    pub fn control_sent(&mut self, monitor: usize, to: usize, count: u64, bytes: u64) {
        self.metrics.control_messages += count;
        self.metrics.control_bytes += bytes;
        if self.enabled() {
            self.emit(
                monitor,
                TraceEvent::ControlSent {
                    to: to as u32,
                    count,
                    bytes,
                },
            );
        }
    }

    /// The lattice baseline visited `states` more global states.
    pub fn lattice_visited(&mut self, monitor: usize, states: u64) {
        self.metrics.lattice_states_visited += states;
        if self.enabled() {
            self.emit(monitor, TraceEvent::LatticeVisited { states });
        }
    }

    /// The critical path advanced by `units` (concurrent variants only).
    /// Emitted even for zero units so a replay knows parallel time was
    /// tracked explicitly. Advances the timeline tick.
    pub fn parallel_advance(&mut self, monitor: usize, units: u64) {
        self.metrics.parallel_time += units;
        if self.enabled() {
            self.emit(monitor, TraceEvent::ParallelAdvance { units });
        }
        self.step += 1;
    }

    /// Detection: `monitor` assembled the satisfying selection `g`.
    pub fn found(&mut self, monitor: usize, g: &[u64]) {
        if self.enabled() {
            self.emit(monitor, TraceEvent::DetectionFound { cut: g.to_vec() });
        }
    }

    /// The run ended without detection.
    pub fn exhausted(&mut self, monitor: usize) {
        if self.enabled() {
            self.emit(monitor, TraceEvent::DetectionExhausted);
        }
    }

    /// Sequential run: the critical path equals the total work.
    pub fn finish_sequential(&mut self) {
        self.metrics.finish_sequential();
    }
}

/// Folds a recorded event stream back into the exact [`DetectionMetrics`]
/// of the run that emitted it.
///
/// `participants` sizes the per-process work table (the stream itself may
/// not mention every participant — an idle monitor emits nothing). Inverse
/// of the detectors' `Meter` instrumentation: for any offline detector run
/// with a lossless recorder,
/// `replay_metrics(report.metrics.per_process_work.len(), &events) ==
/// report.metrics`.
pub fn replay_metrics(participants: usize, events: &[StampedEvent]) -> DetectionMetrics {
    let mut m = DetectionMetrics::new(participants);
    let mut explicit_parallel = false;
    for e in events {
        let monitor = e.monitor as usize;
        match &e.event {
            TraceEvent::TokenForwarded { bytes, .. } | TraceEvent::RedChainHop { bytes, .. } => {
                m.token_hops += 1;
                m.control_messages += 1;
                m.control_bytes += bytes;
            }
            TraceEvent::ControlSent { count, bytes, .. } => {
                m.control_messages += count;
                m.control_bytes += bytes;
            }
            TraceEvent::CandidateEliminated { work, .. }
            | TraceEvent::CandidateAccepted { work, .. } => {
                m.candidates_consumed += 1;
                m.add_work(monitor, *work);
            }
            TraceEvent::SnapshotBuffered { depth, bytes } => {
                m.snapshot_messages += 1;
                m.snapshot_bytes += bytes;
                m.max_buffered_snapshots = m.max_buffered_snapshots.max(*depth);
            }
            TraceEvent::PollSent { bytes, .. } | TraceEvent::PollAnswered { bytes, .. } => {
                m.control_messages += 1;
                m.control_bytes += bytes;
            }
            TraceEvent::Work { units } => m.add_work(monitor, *units),
            TraceEvent::ParallelAdvance { units } => {
                explicit_parallel = true;
                m.parallel_time += units;
            }
            TraceEvent::LatticeVisited { states } => m.lattice_states_visited += states,
            TraceEvent::TokenAcquired { .. }
            | TraceEvent::CandidateInvalidated { .. }
            | TraceEvent::SnapshotDrained { .. }
            | TraceEvent::DetectionFound { .. }
            | TraceEvent::DetectionExhausted
            | TraceEvent::MessageDelivered { .. } => {}
            // Transport-level events count real bytes-on-the-wire (frame
            // headers, retransmissions); the paper-unit accounting above
            // already counted the payloads, so they fold to nothing here.
            TraceEvent::FrameSent { .. }
            | TraceEvent::FrameReceived { .. }
            | TraceEvent::Retransmit { .. }
            | TraceEvent::Reconnect { .. }
            | TraceEvent::BatchFlushed { .. } => {}
        }
    }
    if !explicit_parallel {
        // Sequential detectors close with `finish_sequential`.
        m.parallel_time = m.total_work();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_obs::{NullRecorder, RingRecorder};

    #[test]
    fn meter_updates_metrics_and_records_in_lockstep() {
        let ring = Arc::new(RingRecorder::new(1024));
        let mut meter = Meter::new(2, ring.clone());
        meter.snapshot_buffered(0, 1, 16);
        meter.snapshot_buffered(1, 1, 16);
        meter.token_acquired(0, None);
        meter.candidate_eliminated(0, 0, 1, 2);
        meter.candidate_accepted(0, 0, 2, 2);
        meter.work(0, 2);
        meter.token_forwarded(0, 1, 18);
        meter.candidate_accepted(1, 1, 1, 2);
        meter.found(1, &[2, 1]);
        meter.finish_sequential();

        let events = ring.events();
        assert_eq!(events.len(), 9);
        let replayed = replay_metrics(2, &events);
        assert_eq!(replayed, meter.metrics);
        assert_eq!(replayed.parallel_time, replayed.total_work());
        // Ticks advance on token movement only.
        assert_eq!(events[0].time, LogicalTime::Tick(0));
        assert_eq!(events.last().unwrap().time, LogicalTime::Tick(1));
    }

    #[test]
    fn null_recorder_still_counts() {
        let mut meter = Meter::new(1, Arc::new(NullRecorder));
        meter.candidate_accepted(0, 0, 1, 4);
        meter.poll_sent(0, 0, 16);
        meter.poll_answered(0, 0, true, 1);
        meter.red_chain_hop(0, 0, 1);
        meter.control_sent(0, 0, 2, 40);
        meter.lattice_visited(0, 7);
        assert_eq!(meter.metrics.candidates_consumed, 1);
        assert_eq!(meter.metrics.control_messages, 5);
        assert_eq!(meter.metrics.control_bytes, 58);
        assert_eq!(meter.metrics.token_hops, 1);
        assert_eq!(meter.metrics.lattice_states_visited, 7);
    }

    #[test]
    fn explicit_parallel_advances_survive_replay() {
        let ring = Arc::new(RingRecorder::new(64));
        let mut meter = Meter::new(3, ring.clone());
        meter.work(0, 4);
        meter.work(1, 6);
        meter.parallel_advance(2, 6);
        meter.work(2, 9);
        meter.parallel_advance(2, 9);
        assert_eq!(meter.metrics.parallel_time, 15);
        let replayed = replay_metrics(3, &ring.events());
        assert_eq!(replayed, meter.metrics);
        assert_ne!(replayed.parallel_time, replayed.total_work());
    }

    #[test]
    fn replay_sizes_table_for_idle_participants() {
        let m = replay_metrics(4, &[]);
        assert_eq!(m.per_process_work, vec![0, 0, 0, 0]);
        assert_eq!(m.parallel_time, 0);
    }
}
