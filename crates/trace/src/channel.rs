//! Channel states of a cut.
//!
//! The paper's companion work (reference \[6\], *Detecting Conjunctive
//! Channel Predicates*) generalizes WCPs with predicates over **channel
//! states**: the multiset of messages sent but not yet received across a
//! cut. This module computes those states from a recorded computation; the
//! detector lives in `wcp-detect::gcp`.

use std::collections::HashMap;
use std::fmt;

use wcp_clocks::{Cut, ProcessId};
use wcp_obs::json::{Json, ToJson};

use crate::computation::Computation;
use crate::event::{Event, MsgId};

/// A directed channel between two processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
}

impl ChannelId {
    /// Creates the channel `from → to`.
    pub const fn new(from: ProcessId, to: ProcessId) -> Self {
        ChannelId { from, to }
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.from, self.to)
    }
}

impl ToJson for ChannelId {
    fn to_json(&self) -> Json {
        Json::obj([("from", self.from.to_json()), ("to", self.to.to_json())])
    }
}

/// One message's lifecycle on a channel: the 1-based send event index on
/// the sender, and the 1-based receive event index on the receiver
/// (`None` if never received in this run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSpan {
    /// The message.
    pub msg: MsgId,
    /// 1-based index of the send event on `channel.from`.
    pub sent_at: u64,
    /// 1-based index of the receive event on `channel.to`, if received.
    pub received_at: Option<u64>,
}

impl MessageSpan {
    /// Whether this message is in flight across `cut`: sent below the cut
    /// on the sender and not yet received below the cut on the receiver.
    ///
    /// A process at interval `k` has executed events `1 ..= k−1`.
    pub fn in_flight(&self, sender_interval: u64, receiver_interval: u64) -> bool {
        self.sent_at < sender_interval && self.received_at.is_none_or(|r| r >= receiver_interval)
    }
}

/// Per-channel message index of a computation, for constant-time-ish
/// channel-state queries against cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelIndex {
    spans: HashMap<ChannelId, Vec<MessageSpan>>,
    n: usize,
}

impl ChannelIndex {
    /// Builds the index for `computation` (which must be valid).
    pub fn new(computation: &Computation) -> Self {
        let matching = computation.matching();
        // By the send's global event index: its receive's event index.
        let mut received_at = vec![None; computation.total_events()];
        for (p, trace) in computation.iter() {
            for e in 0..trace.events.len() {
                if let Some((q, j)) = matching.send_of(p, e) {
                    received_at[matching.index(q, j)] = Some(e as u64 + 1);
                }
            }
        }
        let mut spans: HashMap<ChannelId, Vec<MessageSpan>> = HashMap::new();
        for (p, trace) in computation.iter() {
            for (e, ev) in trace.events.iter().enumerate() {
                if let Event::Send { to, msg } = *ev {
                    spans
                        .entry(ChannelId::new(p, to))
                        .or_default()
                        .push(MessageSpan {
                            msg,
                            sent_at: e as u64 + 1,
                            received_at: received_at[matching.index(p, e)],
                        });
                }
            }
        }
        ChannelIndex {
            spans,
            n: computation.process_count(),
        }
    }

    /// All channels that carried at least one message.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.spans.keys().copied()
    }

    /// Message spans of one channel (empty slice if the channel is unused).
    pub fn spans(&self, channel: ChannelId) -> &[MessageSpan] {
        self.spans.get(&channel).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of messages in flight on `channel` across `cut`.
    ///
    /// # Panics
    ///
    /// Panics if the cut does not cover the channel's endpoints with
    /// nonzero intervals.
    pub fn in_flight(&self, channel: ChannelId, cut: &Cut) -> usize {
        let si = cut.get(channel.from).expect("cut covers sender");
        let ri = cut.get(channel.to).expect("cut covers receiver");
        assert!(si >= 1 && ri >= 1, "channel endpoints must have states");
        self.spans(channel)
            .iter()
            .filter(|s| s.in_flight(si, ri))
            .count()
    }

    /// The messages in flight on `channel` across `cut`, in send order.
    pub fn in_flight_messages(&self, channel: ChannelId, cut: &Cut) -> Vec<MsgId> {
        let si = cut.get(channel.from).expect("cut covers sender");
        let ri = cut.get(channel.to).expect("cut covers receiver");
        self.spans(channel)
            .iter()
            .filter(|s| s.in_flight(si, ri))
            .map(|s| s.msg)
            .collect()
    }

    /// Total messages in flight over **all** channels across `cut` — zero
    /// exactly when the cut is quiescent (the key condition of distributed
    /// termination detection).
    pub fn total_in_flight(&self, cut: &Cut) -> usize {
        self.spans.keys().map(|&ch| self.in_flight(ch, cut)).sum()
    }

    /// Number of processes of the underlying computation.
    pub fn process_count(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// P0 sends m0, m1 to P1; P1 receives m0 only.
    fn setup() -> Computation {
        let mut b = ComputationBuilder::new(2);
        let m0 = b.send(p(0), p(1));
        let _m1 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        b.build().unwrap()
    }

    #[test]
    fn spans_record_send_and_receive_indices() {
        let c = setup();
        let idx = ChannelIndex::new(&c);
        let ch = ChannelId::new(p(0), p(1));
        let spans = idx.spans(ch);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].sent_at, 1);
        assert_eq!(spans[0].received_at, Some(1));
        assert_eq!(spans[1].sent_at, 2);
        assert_eq!(spans[1].received_at, None);
        assert_eq!(idx.channels().count(), 1);
        assert_eq!(idx.process_count(), 2);
    }

    #[test]
    fn in_flight_tracks_the_cut() {
        let c = setup();
        let idx = ChannelIndex::new(&c);
        let ch = ChannelId::new(p(0), p(1));
        // Before anything: nothing in flight.
        assert_eq!(idx.in_flight(ch, &Cut::from_indices(vec![1, 1])), 0);
        // After first send, before the receive: m0 in flight.
        assert_eq!(idx.in_flight(ch, &Cut::from_indices(vec![2, 1])), 1);
        // After both sends, before the receive: both in flight.
        assert_eq!(idx.in_flight(ch, &Cut::from_indices(vec![3, 1])), 2);
        // After both sends and the receive: only the unreceived m1.
        assert_eq!(idx.in_flight(ch, &Cut::from_indices(vec![3, 2])), 1);
        assert_eq!(
            idx.in_flight_messages(ch, &Cut::from_indices(vec![3, 2])),
            vec![MsgId::new(1)]
        );
    }

    #[test]
    fn total_in_flight_sums_channels() {
        let mut b = ComputationBuilder::new(3);
        b.send(p(0), p(1));
        b.send(p(2), p(1));
        let c = b.build().unwrap();
        let idx = ChannelIndex::new(&c);
        assert_eq!(idx.total_in_flight(&Cut::from_indices(vec![2, 1, 2])), 2);
        assert_eq!(idx.total_in_flight(&Cut::from_indices(vec![1, 1, 1])), 0);
    }

    #[test]
    fn unused_channel_is_empty() {
        let c = setup();
        let idx = ChannelIndex::new(&c);
        let unused = ChannelId::new(p(1), p(0));
        assert!(idx.spans(unused).is_empty());
        assert_eq!(idx.in_flight(unused, &Cut::from_indices(vec![3, 2])), 0);
    }

    #[test]
    fn channel_id_display() {
        assert_eq!(ChannelId::new(p(0), p(2)).to_string(), "P0→P2");
    }
}
