//! Per-actor and aggregate metrics.

use std::fmt;

use wcp_obs::json::{Json, ToJson};

use crate::actor::ActorId;

/// Counters for one actor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActorMetrics {
    /// Messages sent.
    pub sent: u64,
    /// Messages received (delivered handlers invoked).
    pub received: u64,
    /// Bytes sent (per [`WireSize`](crate::WireSize)).
    pub bytes_sent: u64,
    /// Algorithmic work units recorded via
    /// [`Context::add_work`](crate::Context::add_work).
    pub work: u64,
}

impl ToJson for ActorMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("sent", Json::UInt(self.sent)),
            ("received", Json::UInt(self.received)),
            ("bytes_sent", Json::UInt(self.bytes_sent)),
            ("work", Json::UInt(self.work)),
        ])
    }
}

/// Metrics for a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    per_actor: Vec<ActorMetrics>,
}

impl ToJson for SimMetrics {
    fn to_json(&self) -> Json {
        Json::Arr(self.per_actor.iter().map(ActorMetrics::to_json).collect())
    }
}

impl SimMetrics {
    /// Creates zeroed metrics for `actors` actors.
    pub fn new(actors: usize) -> Self {
        SimMetrics {
            per_actor: vec![ActorMetrics::default(); actors],
        }
    }

    /// Grows the vector when actors are added.
    pub(crate) fn ensure(&mut self, actors: usize) {
        if self.per_actor.len() < actors {
            self.per_actor.resize(actors, ActorMetrics::default());
        }
    }

    /// Metrics of one actor.
    pub fn actor(&self, id: ActorId) -> &ActorMetrics {
        &self.per_actor[id.index()]
    }

    /// Mutable metrics of one actor.
    pub(crate) fn actor_mut(&mut self, id: ActorId) -> &mut ActorMetrics {
        &mut self.per_actor[id.index()]
    }

    /// Records one sent message of `bytes` bytes for `id` (used by
    /// substrates other than the simulator, such as the `wcp-net` peers).
    pub fn record_send(&mut self, id: ActorId, bytes: u64) {
        let m = &mut self.per_actor[id.index()];
        m.sent += 1;
        m.bytes_sent += bytes;
    }

    /// Records one delivered message for `id`.
    pub fn record_receive(&mut self, id: ActorId) {
        self.per_actor[id.index()].received += 1;
    }

    /// Records `units` of algorithmic work for `id`.
    pub fn record_work(&mut self, id: ActorId, units: u64) {
        self.per_actor[id.index()].work += units;
    }

    /// Iterates over `(ActorId, &ActorMetrics)`.
    pub fn iter(&self) -> impl Iterator<Item = (ActorId, &ActorMetrics)> {
        self.per_actor
            .iter()
            .enumerate()
            .map(|(i, m)| (ActorId::new(i as u32), m))
    }

    /// Total messages sent by all actors.
    pub fn total_sent(&self) -> u64 {
        self.per_actor.iter().map(|m| m.sent).sum()
    }

    /// Total bytes sent by all actors.
    pub fn total_bytes(&self) -> u64 {
        self.per_actor.iter().map(|m| m.bytes_sent).sum()
    }

    /// Total work units over all actors.
    pub fn total_work(&self) -> u64 {
        self.per_actor.iter().map(|m| m.work).sum()
    }

    /// Largest per-actor work (the load-balance figure the paper's
    /// distributed algorithms improve).
    pub fn max_work(&self) -> u64 {
        self.per_actor.iter().map(|m| m.work).max().unwrap_or(0)
    }
}

impl fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "msgs={} bytes={} work={} (max/actor {})",
            self.total_sent(),
            self.total_bytes(),
            self.total_work(),
            self.max_work()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_per_actor() {
        let mut m = SimMetrics::new(2);
        m.actor_mut(ActorId::new(0)).sent = 3;
        m.actor_mut(ActorId::new(0)).bytes_sent = 30;
        m.actor_mut(ActorId::new(1)).sent = 4;
        m.actor_mut(ActorId::new(1)).work = 7;
        assert_eq!(m.total_sent(), 7);
        assert_eq!(m.total_bytes(), 30);
        assert_eq!(m.total_work(), 7);
        assert_eq!(m.max_work(), 7);
        assert_eq!(m.actor(ActorId::new(0)).sent, 3);
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn ensure_grows_without_resetting() {
        let mut m = SimMetrics::new(1);
        m.actor_mut(ActorId::new(0)).work = 5;
        m.ensure(3);
        assert_eq!(m.actor(ActorId::new(0)).work, 5);
        assert_eq!(m.actor(ActorId::new(2)).work, 0);
    }

    #[test]
    fn display_is_compact() {
        let m = SimMetrics::new(1);
        assert!(m.to_string().contains("msgs=0"));
    }
}
