//! Typed trace events emitted by the detectors and substrates.

use crate::json::{FromJson, Json, JsonError, ToJson};

/// Logical timestamp of an event.
///
/// Offline detectors count protocol steps, the simulator uses its tick
/// clock, and the direct-dependence algorithm naturally stamps with its
/// scalar (Lamport) clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogicalTime {
    /// No meaningful logical time (e.g. setup).
    #[default]
    Unknown,
    /// Protocol step counter (offline emulation) or simulator tick.
    Tick(u64),
    /// Scalar clock value (Section 4 algorithms).
    Scalar(u64),
}

impl LogicalTime {
    /// The numeric value regardless of flavour (0 when unknown).
    pub fn value(self) -> u64 {
        match self {
            LogicalTime::Unknown => 0,
            LogicalTime::Tick(t) | LogicalTime::Scalar(t) => t,
        }
    }
}

impl ToJson for LogicalTime {
    fn to_json(&self) -> Json {
        match *self {
            LogicalTime::Unknown => Json::Null,
            LogicalTime::Tick(t) => Json::obj([("tick", Json::UInt(t))]),
            LogicalTime::Scalar(t) => Json::obj([("scalar", Json::UInt(t))]),
        }
    }
}

impl FromJson for LogicalTime {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if *value == Json::Null {
            return Ok(LogicalTime::Unknown);
        }
        if let Some(t) = value.get("tick") {
            return Ok(LogicalTime::Tick(t.expect_u64()?));
        }
        if let Some(t) = value.get("scalar") {
            return Ok(LogicalTime::Scalar(t.expect_u64()?));
        }
        Err(JsonError::shape(format!("bad logical time: {value}")))
    }
}

/// One observable step of a detection protocol.
///
/// Variants carry the *metric deltas* they imply, so a recorded stream can
/// be folded back into exact cost aggregates (see
/// `wcp_detect::replay_metrics`); `work` fields are in the paper's
/// component-operation units and are attributed to the stamping monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The token arrived at the stamping monitor.
    TokenAcquired {
        /// Sender position (`None` for the initial token).
        from: Option<u32>,
    },
    /// The stamping monitor sent the token on.
    TokenForwarded {
        /// Receiving monitor position.
        to: u32,
        /// Wire size of the token message.
        bytes: u64,
    },
    /// A candidate snapshot was consumed and rejected.
    CandidateEliminated {
        /// Scope position / process whose candidate died.
        process: u32,
        /// The eliminated interval index.
        interval: u64,
        /// Work units spent consuming it.
        work: u64,
    },
    /// A candidate snapshot was consumed and survives in the cut.
    CandidateAccepted {
        /// Scope position / process of the surviving candidate.
        process: u32,
        /// The accepted interval index.
        interval: u64,
        /// Work units spent consuming it.
        work: u64,
    },
    /// A token entry was invalidated by the elimination rule without
    /// consuming a snapshot (Figure 3's `for` loop). Timeline-only.
    CandidateInvalidated {
        /// Scope position whose entry turned red.
        process: u32,
        /// The invalidated interval index.
        interval: u64,
    },
    /// A local snapshot reached a monitor's buffer.
    SnapshotBuffered {
        /// Buffer depth after insertion.
        depth: u64,
        /// Wire size of the snapshot message.
        bytes: u64,
    },
    /// A buffered snapshot left a monitor's queue. Timeline-only.
    SnapshotDrained {
        /// Buffer depth after removal.
        depth: u64,
    },
    /// A direct-dependence poll was sent (Figure 5 `visit`).
    PollSent {
        /// Polled process.
        to: u32,
        /// Wire size of the poll.
        bytes: u64,
    },
    /// A poll was answered.
    PollAnswered {
        /// The process that asked.
        to: u32,
        /// Whether the polled candidate is still alive.
        alive: bool,
        /// Wire size of the reply.
        bytes: u64,
    },
    /// The red token moved along the `next_red` chain (Section 4).
    RedChainHop {
        /// Receiving process.
        to: u32,
        /// Wire size of the transferred state.
        bytes: u64,
    },
    /// Control traffic that is not a token transfer: leader round-trips of
    /// the multi-token variant (§3.5), group-state shipping of the
    /// hierarchical checker. May batch several wire messages in one event.
    ControlSent {
        /// Receiving participant.
        to: u32,
        /// Number of wire messages batched into this event.
        count: u64,
        /// Total wire size of the batch.
        bytes: u64,
    },
    /// Work not attributable to a single consumed candidate.
    Work {
        /// Work units, attributed to the stamping monitor.
        units: u64,
    },
    /// The critical path advanced by `units` (concurrent variants only;
    /// sequential detectors' parallel time is their total work).
    ParallelAdvance {
        /// Critical-path units.
        units: u64,
    },
    /// Lattice baseline: `states` more global states were visited.
    LatticeVisited {
        /// Newly visited states.
        states: u64,
    },
    /// The WCP was detected.
    DetectionFound {
        /// Interval choices of the satisfying cut, indexed by scope
        /// position; the direct-dependence family (Section 4), whose
        /// monitors cover every process, indexes them by process.
        cut: Vec<u64>,
    },
    /// The run ended without detection.
    DetectionExhausted,
    /// Substrate-level delivery (emitted by the simulator): a message was
    /// handed to its destination after waiting `delay` ticks in flight.
    MessageDelivered {
        /// Sending actor index.
        from: u32,
        /// Receiving actor index.
        to: u32,
        /// Ticks between send and delivery.
        delay: u64,
    },
    /// Transport-level (emitted by `wcp-net`): an encoded frame left this
    /// peer. `bytes` counts the full frame including the header, so it is
    /// real bytes-on-the-wire, not the paper-unit payload accounting.
    FrameSent {
        /// Destination peer index.
        to: u32,
        /// Frame bytes on the wire (header + body).
        bytes: u64,
    },
    /// Transport-level (emitted by `wcp-net`): a frame arrived at this
    /// peer and survived dedup.
    FrameReceived {
        /// Originating peer index.
        from: u32,
        /// Frame bytes on the wire (header + body).
        bytes: u64,
    },
    /// Transport-level (emitted by `wcp-net`): a frame was transmitted
    /// again, either after a fault-injected drop or when replaying the
    /// send log over a fresh connection.
    Retransmit {
        /// Destination peer index.
        to: u32,
        /// Retry attempt number (1 = first retransmission).
        attempt: u64,
    },
    /// Transport-level (emitted by `wcp-net`): a broken connection was
    /// re-established after exponential backoff.
    Reconnect {
        /// The peer the connection leads to.
        peer: u32,
        /// Reconnect attempt number (1 = first redial).
        attempt: u64,
    },
    /// Transport-level (emitted by `wcp-net`): a link's outbound batch was
    /// handed to the transport in one coalesced write.
    BatchFlushed {
        /// Destination peer index.
        to: u32,
        /// Number of frames coalesced into the write.
        frames: u64,
        /// Total bytes of the batch (headers included).
        bytes: u64,
    },
}

impl TraceEvent {
    /// Short kind tag used as the JSON key and in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TokenAcquired { .. } => "TokenAcquired",
            TraceEvent::TokenForwarded { .. } => "TokenForwarded",
            TraceEvent::CandidateEliminated { .. } => "CandidateEliminated",
            TraceEvent::CandidateAccepted { .. } => "CandidateAccepted",
            TraceEvent::CandidateInvalidated { .. } => "CandidateInvalidated",
            TraceEvent::SnapshotBuffered { .. } => "SnapshotBuffered",
            TraceEvent::SnapshotDrained { .. } => "SnapshotDrained",
            TraceEvent::PollSent { .. } => "PollSent",
            TraceEvent::PollAnswered { .. } => "PollAnswered",
            TraceEvent::RedChainHop { .. } => "RedChainHop",
            TraceEvent::ControlSent { .. } => "ControlSent",
            TraceEvent::Work { .. } => "Work",
            TraceEvent::ParallelAdvance { .. } => "ParallelAdvance",
            TraceEvent::LatticeVisited { .. } => "LatticeVisited",
            TraceEvent::DetectionFound { .. } => "DetectionFound",
            TraceEvent::DetectionExhausted => "DetectionExhausted",
            TraceEvent::MessageDelivered { .. } => "MessageDelivered",
            TraceEvent::FrameSent { .. } => "FrameSent",
            TraceEvent::FrameReceived { .. } => "FrameReceived",
            TraceEvent::Retransmit { .. } => "Retransmit",
            TraceEvent::Reconnect { .. } => "Reconnect",
            TraceEvent::BatchFlushed { .. } => "BatchFlushed",
        }
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let payload = match self {
            TraceEvent::TokenAcquired { from } => Json::obj([(
                "from",
                match from {
                    Some(f) => Json::UInt(*f as u64),
                    None => Json::Null,
                },
            )]),
            TraceEvent::TokenForwarded { to, bytes } => {
                Json::obj([("to", (*to).into()), ("bytes", (*bytes).into())])
            }
            TraceEvent::CandidateEliminated {
                process,
                interval,
                work,
            } => Json::obj([
                ("process", (*process).into()),
                ("interval", (*interval).into()),
                ("work", (*work).into()),
            ]),
            TraceEvent::CandidateAccepted {
                process,
                interval,
                work,
            } => Json::obj([
                ("process", (*process).into()),
                ("interval", (*interval).into()),
                ("work", (*work).into()),
            ]),
            TraceEvent::CandidateInvalidated { process, interval } => Json::obj([
                ("process", (*process).into()),
                ("interval", (*interval).into()),
            ]),
            TraceEvent::SnapshotBuffered { depth, bytes } => {
                Json::obj([("depth", (*depth).into()), ("bytes", (*bytes).into())])
            }
            TraceEvent::SnapshotDrained { depth } => Json::obj([("depth", (*depth).into())]),
            TraceEvent::PollSent { to, bytes } => {
                Json::obj([("to", (*to).into()), ("bytes", (*bytes).into())])
            }
            TraceEvent::PollAnswered { to, alive, bytes } => Json::obj([
                ("to", (*to).into()),
                ("alive", (*alive).into()),
                ("bytes", (*bytes).into()),
            ]),
            TraceEvent::RedChainHop { to, bytes } => {
                Json::obj([("to", (*to).into()), ("bytes", (*bytes).into())])
            }
            TraceEvent::ControlSent { to, count, bytes } => Json::obj([
                ("to", (*to).into()),
                ("count", (*count).into()),
                ("bytes", (*bytes).into()),
            ]),
            TraceEvent::Work { units } => Json::obj([("units", (*units).into())]),
            TraceEvent::ParallelAdvance { units } => Json::obj([("units", (*units).into())]),
            TraceEvent::LatticeVisited { states } => Json::obj([("states", (*states).into())]),
            TraceEvent::DetectionFound { cut } => {
                Json::obj([("cut", Json::Arr(cut.iter().map(|&g| g.into()).collect()))])
            }
            TraceEvent::DetectionExhausted => return Json::Str("DetectionExhausted".into()),
            TraceEvent::MessageDelivered { from, to, delay } => Json::obj([
                ("from", (*from).into()),
                ("to", (*to).into()),
                ("delay", (*delay).into()),
            ]),
            TraceEvent::FrameSent { to, bytes } => {
                Json::obj([("to", (*to).into()), ("bytes", (*bytes).into())])
            }
            TraceEvent::FrameReceived { from, bytes } => {
                Json::obj([("from", (*from).into()), ("bytes", (*bytes).into())])
            }
            TraceEvent::Retransmit { to, attempt } => {
                Json::obj([("to", (*to).into()), ("attempt", (*attempt).into())])
            }
            TraceEvent::Reconnect { peer, attempt } => {
                Json::obj([("peer", (*peer).into()), ("attempt", (*attempt).into())])
            }
            TraceEvent::BatchFlushed { to, frames, bytes } => Json::obj([
                ("to", (*to).into()),
                ("frames", (*frames).into()),
                ("bytes", (*bytes).into()),
            ]),
        };
        Json::Obj(vec![(self.kind().into(), payload)])
    }
}

impl FromJson for TraceEvent {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if value.as_str() == Some("DetectionExhausted") {
            return Ok(TraceEvent::DetectionExhausted);
        }
        let Some([(tag, p)]) = value.as_object() else {
            return Err(JsonError::shape(format!("bad event: {value}")));
        };
        let u32f = |key: &str| -> Result<u32, JsonError> { Ok(p.field(key)?.expect_u64()? as u32) };
        let u64f = |key: &str| p.field(key)?.expect_u64();
        Ok(match tag.as_str() {
            "TokenAcquired" => TraceEvent::TokenAcquired {
                from: match p.field("from")? {
                    Json::Null => None,
                    other => Some(other.expect_u64()? as u32),
                },
            },
            "TokenForwarded" => TraceEvent::TokenForwarded {
                to: u32f("to")?,
                bytes: u64f("bytes")?,
            },
            "CandidateEliminated" => TraceEvent::CandidateEliminated {
                process: u32f("process")?,
                interval: u64f("interval")?,
                work: u64f("work")?,
            },
            "CandidateAccepted" => TraceEvent::CandidateAccepted {
                process: u32f("process")?,
                interval: u64f("interval")?,
                work: u64f("work")?,
            },
            "CandidateInvalidated" => TraceEvent::CandidateInvalidated {
                process: u32f("process")?,
                interval: u64f("interval")?,
            },
            "SnapshotBuffered" => TraceEvent::SnapshotBuffered {
                depth: u64f("depth")?,
                bytes: u64f("bytes")?,
            },
            "SnapshotDrained" => TraceEvent::SnapshotDrained {
                depth: u64f("depth")?,
            },
            "PollSent" => TraceEvent::PollSent {
                to: u32f("to")?,
                bytes: u64f("bytes")?,
            },
            "PollAnswered" => TraceEvent::PollAnswered {
                to: u32f("to")?,
                alive: bool::from_json(p.field("alive")?)?,
                bytes: u64f("bytes")?,
            },
            "RedChainHop" => TraceEvent::RedChainHop {
                to: u32f("to")?,
                bytes: u64f("bytes")?,
            },
            "ControlSent" => TraceEvent::ControlSent {
                to: u32f("to")?,
                count: u64f("count")?,
                bytes: u64f("bytes")?,
            },
            "Work" => TraceEvent::Work {
                units: u64f("units")?,
            },
            "ParallelAdvance" => TraceEvent::ParallelAdvance {
                units: u64f("units")?,
            },
            "LatticeVisited" => TraceEvent::LatticeVisited {
                states: u64f("states")?,
            },
            "DetectionFound" => TraceEvent::DetectionFound {
                cut: Vec::<u64>::from_json(p.field("cut")?)?,
            },
            "MessageDelivered" => TraceEvent::MessageDelivered {
                from: u32f("from")?,
                to: u32f("to")?,
                delay: u64f("delay")?,
            },
            "FrameSent" => TraceEvent::FrameSent {
                to: u32f("to")?,
                bytes: u64f("bytes")?,
            },
            "FrameReceived" => TraceEvent::FrameReceived {
                from: u32f("from")?,
                bytes: u64f("bytes")?,
            },
            "Retransmit" => TraceEvent::Retransmit {
                to: u32f("to")?,
                attempt: u64f("attempt")?,
            },
            "Reconnect" => TraceEvent::Reconnect {
                peer: u32f("peer")?,
                attempt: u64f("attempt")?,
            },
            "BatchFlushed" => TraceEvent::BatchFlushed {
                to: u32f("to")?,
                frames: u64f("frames")?,
                bytes: u64f("bytes")?,
            },
            other => {
                return Err(JsonError::shape(format!("unknown event kind `{other}`")));
            }
        })
    }
}

/// A [`TraceEvent`] with its full stamp, as stored by recorders.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedEvent {
    /// Global sequence number in recording order.
    pub seq: u64,
    /// Acting monitor (scope position for Section 3 algorithms, process
    /// index for Section 4, actor index for substrate events).
    pub monitor: u32,
    /// Logical time of the step.
    pub time: LogicalTime,
    /// Wall-clock nanoseconds since recorder creation (net runs only).
    pub wall_nanos: Option<u64>,
    /// The event itself.
    pub event: TraceEvent,
}

impl ToJson for StampedEvent {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq".into(), Json::UInt(self.seq)),
            ("monitor".into(), Json::UInt(self.monitor as u64)),
            ("time".into(), self.time.to_json()),
        ];
        if let Some(ns) = self.wall_nanos {
            pairs.push(("wall_nanos".into(), Json::UInt(ns)));
        }
        pairs.push(("event".into(), self.event.to_json()));
        Json::Obj(pairs)
    }
}

impl FromJson for StampedEvent {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(StampedEvent {
            seq: value.field("seq")?.expect_u64()?,
            monitor: value.field("monitor")?.expect_u64()? as u32,
            time: LogicalTime::from_json(value.field("time")?)?,
            wall_nanos: match value.get("wall_nanos") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.expect_u64()?),
            },
            event: TraceEvent::from_json(value.field("event")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TokenAcquired { from: None },
            TraceEvent::TokenAcquired { from: Some(2) },
            TraceEvent::TokenForwarded { to: 1, bytes: 27 },
            TraceEvent::CandidateEliminated {
                process: 0,
                interval: 3,
                work: 4,
            },
            TraceEvent::CandidateAccepted {
                process: 1,
                interval: 5,
                work: 4,
            },
            TraceEvent::CandidateInvalidated {
                process: 2,
                interval: 1,
            },
            TraceEvent::SnapshotBuffered {
                depth: 7,
                bytes: 40,
            },
            TraceEvent::SnapshotDrained { depth: 6 },
            TraceEvent::PollSent { to: 3, bytes: 16 },
            TraceEvent::PollAnswered {
                to: 3,
                alive: false,
                bytes: 1,
            },
            TraceEvent::RedChainHop { to: 0, bytes: 1 },
            TraceEvent::ControlSent {
                to: 4,
                count: 3,
                bytes: 72,
            },
            TraceEvent::Work { units: 9 },
            TraceEvent::ParallelAdvance { units: 2 },
            TraceEvent::LatticeVisited { states: 100 },
            TraceEvent::DetectionFound { cut: vec![2, 1, 4] },
            TraceEvent::DetectionExhausted,
            TraceEvent::MessageDelivered {
                from: 1,
                to: 2,
                delay: 8,
            },
            TraceEvent::FrameSent { to: 2, bytes: 65 },
            TraceEvent::FrameReceived { from: 0, bytes: 33 },
            TraceEvent::Retransmit { to: 1, attempt: 1 },
            TraceEvent::Reconnect {
                peer: 3,
                attempt: 2,
            },
            TraceEvent::BatchFlushed {
                to: 1,
                frames: 12,
                bytes: 480,
            },
        ]
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for e in samples() {
            let j = e.to_json();
            let back = TraceEvent::from_json(&j).unwrap();
            assert_eq!(back, e, "{j}");
            // And through text.
            let reparsed = Json::parse(&j.to_string()).unwrap();
            assert_eq!(TraceEvent::from_json(&reparsed).unwrap(), e);
        }
    }

    #[test]
    fn stamped_event_roundtrips() {
        for (i, e) in samples().into_iter().enumerate() {
            let s = StampedEvent {
                seq: i as u64,
                monitor: 3,
                time: if i % 2 == 0 {
                    LogicalTime::Tick(i as u64)
                } else {
                    LogicalTime::Scalar(i as u64)
                },
                wall_nanos: (i % 3 == 0).then_some(123_456),
                event: e,
            };
            let back = StampedEvent::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn events_are_externally_tagged() {
        let j = TraceEvent::TokenForwarded { to: 4, bytes: 9 }.to_json();
        assert_eq!(j.to_string(), "{\"TokenForwarded\":{\"to\":4,\"bytes\":9}}");
        let unit = TraceEvent::DetectionExhausted.to_json();
        assert_eq!(unit.to_string(), "\"DetectionExhausted\"");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let j = Json::parse("{\"Bogus\":{}}").unwrap();
        assert!(TraceEvent::from_json(&j).is_err());
    }

    #[test]
    fn logical_time_ordering_and_value() {
        assert_eq!(LogicalTime::Unknown.value(), 0);
        assert_eq!(LogicalTime::Tick(4).value(), 4);
        assert_eq!(LogicalTime::Scalar(9).value(), 9);
        assert!(LogicalTime::Tick(1) < LogicalTime::Tick(2));
    }
}
