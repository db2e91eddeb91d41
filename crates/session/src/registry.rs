//! Stable predicate identities and the sharded concurrent session index.
//!
//! The registry is the multi-tenant directory: `PredicateId → session`
//! (the engine keeps the subscriber lists, one per scope class). It is
//! std-only in the lock-free-map spirit: a fixed power-of-two shard
//! array of `RwLock<HashMap>`s, so lookups on different shards never
//! contend and readers never block readers.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use wcp_clocks::ProcessId;
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};

use crate::session::SessionState;

/// Stable identity of a registered predicate, chosen by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredicateId(u64);

impl PredicateId {
    /// Wraps a raw client-chosen identifier.
    pub const fn new(raw: u64) -> Self {
        PredicateId(raw)
    }

    /// The raw identifier (what `MULTI_*` frames carry).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PredicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl ToJson for PredicateId {
    fn to_json(&self) -> Json {
        Json::UInt(self.0)
    }
}

impl FromJson for PredicateId {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(PredicateId(value.expect_u64()?))
    }
}

/// One registered session: identity and detection state.
#[derive(Debug)]
pub(crate) struct SessionSlot {
    pub(crate) id: PredicateId,
    /// Cleared by unregister; fan-out skips dead slots that a subscriber
    /// list still references.
    pub(crate) live: AtomicBool,
    /// Mirrors `state.resolved()` so fan-out can skip a resolved session
    /// without locking its state mutex (set exactly when the verdict is,
    /// under the pump lock). Resolved and unregistered slots are swept
    /// out of the subscriber lists lazily, so this is the hot check.
    pub(crate) resolved: AtomicBool,
    pub(crate) state: Mutex<SessionState>,
}

impl SessionSlot {
    /// A live, unresolved session over the sorted, non-empty `scope`.
    pub(crate) fn new(id: PredicateId, scope: &[ProcessId]) -> Arc<Self> {
        let state = Mutex::new(SessionState::new(scope));
        Arc::new(SessionSlot {
            id,
            live: AtomicBool::new(true),
            resolved: AtomicBool::new(false),
            state,
        })
    }

    pub(crate) fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }

    pub(crate) fn mark_resolved(&self) {
        self.resolved.store(true, Ordering::Release);
    }

    pub(crate) fn is_resolved(&self) -> bool {
        self.resolved.load(Ordering::Acquire)
    }
}

const SHARD_BITS: u32 = 4;
const SHARD_COUNT: usize = 1 << SHARD_BITS;

/// Sharded `PredicateId → Arc<SessionSlot>` map.
#[derive(Debug)]
pub(crate) struct Registry {
    shards: Vec<RwLock<HashMap<u64, Arc<SessionSlot>>>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, id: PredicateId) -> &RwLock<HashMap<u64, Arc<SessionSlot>>> {
        // Multiply-shift hash so dense ids (0, 1, 2, …) still spread.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> (64 - SHARD_BITS)) as usize]
    }

    /// Inserts `slot` unless `id` is already present.
    pub(crate) fn insert(&self, slot: Arc<SessionSlot>) -> Result<(), ()> {
        let mut shard = self.shard(slot.id).write().expect("registry poisoned");
        match shard.entry(slot.id.raw()) {
            std::collections::hash_map::Entry::Occupied(_) => Err(()),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(slot);
                Ok(())
            }
        }
    }

    pub(crate) fn get(&self, id: PredicateId) -> Option<Arc<SessionSlot>> {
        self.shard(id)
            .read()
            .expect("registry poisoned")
            .get(&id.raw())
            .cloned()
    }

    pub(crate) fn remove(&self, id: PredicateId) -> Option<Arc<SessionSlot>> {
        self.shard(id)
            .write()
            .expect("registry poisoned")
            .remove(&id.raw())
    }

    /// Number of registered sessions.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("registry poisoned").len())
            .sum()
    }

    /// Every registered session, sorted by id for deterministic reports.
    pub(crate) fn all(&self) -> Vec<Arc<SessionSlot>> {
        let mut out: Vec<Arc<SessionSlot>> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("registry poisoned")
                    .values()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_and_duplicates() {
        let r = Registry::new();
        for i in 0..100 {
            r.insert(SessionSlot::new(PredicateId::new(i), &[ProcessId::new(0)]))
                .unwrap();
        }
        assert_eq!(r.len(), 100);
        assert!(r
            .insert(SessionSlot::new(PredicateId::new(7), &[ProcessId::new(0)]))
            .is_err());
        assert_eq!(
            r.get(PredicateId::new(42)).unwrap().id,
            PredicateId::new(42)
        );
        let all = r.all();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");
        assert!(r.remove(PredicateId::new(42)).is_some());
        assert!(r.get(PredicateId::new(42)).is_none());
        assert_eq!(r.len(), 99);
    }

    #[test]
    fn predicate_id_roundtrips() {
        let id = PredicateId::new(9);
        assert_eq!(id.to_string(), "S9");
        assert_eq!(PredicateId::from_json(&id.to_json()).unwrap(), id);
    }
}
