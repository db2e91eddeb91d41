//! Newline-delimited JSON encoding of event streams.
//!
//! One [`StampedEvent`] per line, in recording order — the format written
//! by `wcp trace --events out.jsonl` and consumed by external analysis
//! tooling (or [`read_str`] here).

use std::fmt::Write;

use crate::event::StampedEvent;
use crate::json::{FromJson, Json, JsonError, ToJson};

/// Renders events as one JSONL string: each event's compact
/// [`ToJson`] rendering, one per line.
pub fn to_string(events: &[StampedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for event in events {
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "{}", event.to_json());
    }
    out
}

/// Parses a JSONL document back into events. Blank lines are skipped.
///
/// # Errors
///
/// Returns the first malformed line's error, annotated with its line
/// number.
pub fn read_str(input: &str) -> Result<Vec<StampedEvent>, JsonError> {
    let mut events = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| JsonError {
            message: format!("line {}: {}", lineno + 1, e.message),
            offset: e.offset,
        })?;
        events.push(StampedEvent::from_json(&value).map_err(|e| JsonError {
            message: format!("line {}: {}", lineno + 1, e.message),
            offset: 0,
        })?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LogicalTime, TraceEvent};

    fn sample(n: u64) -> Vec<StampedEvent> {
        (0..n)
            .map(|i| StampedEvent {
                seq: i,
                monitor: (i % 3) as u32,
                time: LogicalTime::Tick(i * 2),
                wall_nanos: None,
                event: TraceEvent::Work { units: i },
            })
            .collect()
    }

    #[test]
    fn roundtrip_through_text() {
        let events = sample(5);
        let text = to_string(&events);
        assert_eq!(text.lines().count(), 5);
        assert_eq!(read_str(&text).unwrap(), events);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", to_string(&sample(1)));
        assert_eq!(read_str(&text).unwrap().len(), 1);
    }

    #[test]
    fn malformed_lines_name_their_line() {
        let err = read_str("{\"seq\":0}\nnot json\n").unwrap_err();
        assert!(err.message.contains("line 1"), "{err}");
        let err = read_str(&format!("{}not json\n", to_string(&sample(1)))).unwrap_err();
        assert!(err.message.contains("line 2"), "{err}");
    }

    /// One exemplar per `TraceEvent` variant, under every stamp shape,
    /// round-trips through the JSONL text.
    #[test]
    fn every_variant_roundtrips_through_text() {
        let variants = vec![
            TraceEvent::TokenAcquired { from: None },
            TraceEvent::TokenAcquired { from: Some(4) },
            TraceEvent::TokenForwarded { to: 1, bytes: 36 },
            TraceEvent::CandidateEliminated {
                process: 2,
                interval: 9,
                work: 3,
            },
            TraceEvent::CandidateAccepted {
                process: 0,
                interval: 1,
                work: 2,
            },
            TraceEvent::CandidateInvalidated {
                process: 1,
                interval: 7,
            },
            TraceEvent::SnapshotBuffered {
                depth: 4,
                bytes: 80,
            },
            TraceEvent::SnapshotDrained { depth: 3 },
            TraceEvent::PollSent { to: 2, bytes: 8 },
            TraceEvent::PollAnswered {
                to: 2,
                alive: true,
                bytes: 9,
            },
            TraceEvent::PollAnswered {
                to: 0,
                alive: false,
                bytes: 9,
            },
            TraceEvent::RedChainHop { to: 5, bytes: 24 },
            TraceEvent::ControlSent {
                to: 1,
                count: 3,
                bytes: 120,
            },
            TraceEvent::Work { units: 11 },
            TraceEvent::ParallelAdvance { units: 2 },
            TraceEvent::LatticeVisited { states: 64 },
            TraceEvent::DetectionFound { cut: vec![] },
            TraceEvent::DetectionFound { cut: vec![3, 1, 4] },
            TraceEvent::DetectionExhausted,
            TraceEvent::MessageDelivered {
                from: 0,
                to: 2,
                delay: 7,
            },
            TraceEvent::FrameSent { to: 1, bytes: 52 },
            TraceEvent::FrameReceived { from: 1, bytes: 52 },
            TraceEvent::Retransmit { to: 2, attempt: 1 },
            TraceEvent::Reconnect {
                peer: 0,
                attempt: 2,
            },
            TraceEvent::BatchFlushed {
                to: 1,
                frames: 4,
                bytes: 208,
            },
        ];
        let stamps = [
            (LogicalTime::Unknown, None),
            (LogicalTime::Tick(17), Some(123_456)),
            (LogicalTime::Scalar(9), None),
        ];
        let events: Vec<StampedEvent> = variants
            .into_iter()
            .enumerate()
            .map(|(i, event)| {
                let (time, wall_nanos) = stamps[i % stamps.len()];
                StampedEvent {
                    seq: i as u64,
                    monitor: (i % 4) as u32,
                    time,
                    wall_nanos,
                    event,
                }
            })
            .collect();
        let text = to_string(&events);
        assert_eq!(text.lines().count(), events.len());
        assert_eq!(read_str(&text).unwrap(), events);
    }
}
