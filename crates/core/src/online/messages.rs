//! Wire messages exchanged by the online detection actors.

use wcp_clocks::{ProcessId, VectorClock};
use wcp_sim::WireSize;
use wcp_trace::MsgId;

use crate::offline::token::Token;
use crate::snapshot::{DdSnapshot, VcSnapshot};

/// Poll message size: "two integers" (Section 4.2) — the dependence clock
/// and the chain pointer.
pub(crate) const POLL_BYTES: u64 = 16;
/// Poll responses are one bit; we charge one byte.
pub(crate) const REPLY_BYTES: u64 = 1;
/// "The token carries no actual information" — charge one byte.
pub(crate) const DD_TOKEN_BYTES: u64 = 1;

/// Clock information attached to an application message (Figure 2 attaches
/// a vector; Section 4.1 attaches a scalar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockTag {
    /// Scope-projected vector clock (vector-clock algorithm).
    Vector(VectorClock),
    /// Scalar logical clock (direct-dependence algorithm).
    Scalar(u64),
}

impl ClockTag {
    /// Bytes this tag adds to an application message.
    pub fn wire_size(&self) -> usize {
        match self {
            ClockTag::Vector(v) => v.wire_size(),
            ClockTag::Scalar(_) => 8,
        }
    }
}

/// Every message of the online detection protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectMsg {
    /// Application payload (app → app), carrying its clock tag.
    App {
        /// Trace-level message identity (used to match the scripted
        /// receive).
        msg: MsgId,
        /// Attached clock information.
        tag: ClockTag,
    },
    /// Figure 2 local snapshot (app → monitor, FIFO).
    VcSnapshot(VcSnapshot),
    /// Section 4.1 local snapshot (app → monitor, FIFO).
    DdSnapshot(DdSnapshot),
    /// The application process finished its script (app → monitor, FIFO).
    /// Additive to the paper — see DESIGN.md §3 "Termination".
    EndOfTrace,
    /// The Figure 3 token (monitor → monitor).
    VcToken(Token),
    /// The empty Section 4 token (monitor → monitor).
    DdToken,
    /// A Figure 5 poll: the dependence clock and the poller's chain tail.
    Poll {
        /// Dependence clock value `k`.
        clock: u64,
        /// The poller's `next_red` at send time.
        next_red: Option<ProcessId>,
    },
    /// Reply to a poll ("became red" / "no change" — one bit).
    PollReply {
        /// Whether the target turned red and joined the chain.
        became_red: bool,
    },
    /// A Section 3.5 group token (monitor ↔ monitor within a group, and
    /// group ↔ leader). Boxed: it is the largest payload by far, and every
    /// message of every protocol would otherwise pay its size.
    GroupToken(Box<GroupTokenMsg>),
    /// Registers a predicate with the multi-tenant session service
    /// (controller → service). Additive to the paper — see DESIGN.md S25.
    MultiRegister {
        /// Stable client-chosen predicate identity.
        id: u64,
        /// The predicate's scope processes.
        scope: Vec<ProcessId>,
    },
    /// Unregisters a predicate (controller → service).
    MultiUnregister {
        /// The predicate to drop.
        id: u64,
    },
    /// Final per-predicate verdict (service → controller): the detected
    /// cut over scope positions, or `None` when no satisfying cut exists.
    MultiVerdict {
        /// Which predicate resolved.
        id: u64,
        /// `Some(g)` iff detected.
        verdict: Option<Vec<u64>>,
    },
}

/// The token of the multi-token algorithm: the Figure 3 [`Token`] over the
/// whole scope, plus the candidate clocks the leader needs for its
/// cross-group consistency check (DESIGN.md §3). The offline emulation
/// and the online monitors pass this one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupTokenMsg {
    /// Which group this token belongs to.
    pub group: usize,
    /// Candidate cut and colours over the whole scope.
    pub token: Token,
    /// Candidate vector clocks, by scope position: set where a member of
    /// this group accepted a candidate, and copied to every token at a
    /// leader merge.
    pub candidates: Vec<Option<VectorClock>>,
}

impl GroupTokenMsg {
    /// A fresh all-red token for `group` over `n` scope processes.
    pub fn new(group: usize, n: usize) -> Self {
        GroupTokenMsg {
            group,
            token: Token::new(n),
            candidates: vec![None; n],
        }
    }

    /// Wire size: group id + `G`/colour entries + carried candidates.
    pub fn wire_size(&self) -> usize {
        8 + self.token.wire_size()
            + self
                .candidates
                .iter()
                .flatten()
                .map(VectorClock::wire_size)
                .sum::<usize>()
    }
}

impl WireSize for DetectMsg {
    fn wire_size(&self) -> usize {
        match self {
            DetectMsg::App { tag, .. } => 8 + tag.wire_size(),
            DetectMsg::VcSnapshot(s) => s.wire_size(),
            DetectMsg::DdSnapshot(s) => s.wire_size(),
            DetectMsg::EndOfTrace => 1,
            DetectMsg::VcToken(t) => t.wire_size(),
            DetectMsg::DdToken => DD_TOKEN_BYTES as usize,
            DetectMsg::Poll { .. } => POLL_BYTES as usize,
            DetectMsg::PollReply { .. } => REPLY_BYTES as usize,
            DetectMsg::GroupToken(t) => t.wire_size(),
            DetectMsg::MultiRegister { scope, .. } => 8 + 4 * scope.len(),
            DetectMsg::MultiUnregister { .. } => 8,
            DetectMsg::MultiVerdict { verdict, .. } => {
                9 + verdict.as_ref().map_or(0, |g| 8 * g.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_paper_accounting() {
        assert_eq!(DetectMsg::DdToken.wire_size(), 1, "the token is empty");
        assert_eq!(
            DetectMsg::Poll {
                clock: 3,
                next_red: None
            }
            .wire_size(),
            16,
            "polls are two integers"
        );
        assert_eq!(DetectMsg::PollReply { became_red: true }.wire_size(), 1);
        let vc = DetectMsg::App {
            msg: MsgId::new(0),
            tag: ClockTag::Vector(VectorClock::new(4)),
        };
        assert_eq!(vc.wire_size(), 8 + 32);
        let sc = DetectMsg::App {
            msg: MsgId::new(0),
            tag: ClockTag::Scalar(7),
        };
        assert_eq!(sc.wire_size(), 16);
    }
}
