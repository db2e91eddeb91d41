//! The peer worker: the one thread that steps every peer of a run.
//!
//! An in-process run hosts all of its peers on the calling thread, and a
//! standalone `wcp serve` peer hosts its one peer on its own thread. The
//! worker steps its peers' event loops round-robin, one local delivery or
//! one inbound frame per step, and never blocks inside a step on another
//! peer: channels are unbounded, an in-process TCP link reads back every
//! byte it writes before the step goes on, and a standalone peer's writes
//! drain into the remote peer's reader threads. On loopback and
//! in-process TCP alike every frame is delivered by the worker itself,
//! so an in-process run, clean or faulted, has no cross-thread hand-off
//! at all.
//!
//! The worker owns the virtual millisecond clock that frames held by
//! fault injection wait on ([`release`](crate::Transport::release)). It
//! stands still while any peer progresses; on a round where none does,
//! the worker jumps it to the earliest due frame and releases, finished
//! peers' links included. Only with nothing held does it park on its
//! [`Doorbell`], which a standalone peer's TCP reader threads ring after
//! each chunk. A wait that sees no ring for [`POLL`] runs the idle
//! duties: the forced telemetry flush and the stall watchdog, whose
//! panic names every hosted actor's state.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wcp_sim::status_report;

use crate::peer::{PeerHost, Running};

/// How long an idle worker waits for a ring before it runs its peers'
/// idle duties.
pub(crate) const POLL: Duration = Duration::from_millis(5);

const IDLE: u8 = 0;
const RUNG: u8 = 1;
const PARKED: u8 = 2;

/// Wakes the worker hosting a peer when a chunk lands in that peer's inbox.
///
/// Ringing a worker that is running is one atomic swap; only a parked
/// worker costs a lock and a futex wake. A ring is never lost: one that
/// lands while the worker is busy makes its next wait return at once.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    state: AtomicU8,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Doorbell {
    /// Marks new inbox data for the worker and wakes it if it is parked.
    pub(crate) fn ring(&self) {
        // Release pairs with the worker's Acquire swap: the chunk sent
        // before this ring is visible to the worker's next `try_recv`.
        if self.state.swap(RUNG, Ordering::Release) == PARKED {
            // The worker set PARKED under the lock and releases it only
            // inside `wait_timeout`, so this notify cannot slip in between.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_one();
        }
    }

    /// Waits up to `timeout` for a ring; consumes the ring and returns
    /// whether one came.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        if self.state.swap(IDLE, Ordering::Acquire) == RUNG {
            return true;
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if self
            .state
            .compare_exchange(IDLE, PARKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            let deadline = Instant::now() + timeout;
            while self.state.load(Ordering::Relaxed) == PARKED {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                guard = self
                    .wake
                    .wait_timeout(guard, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        drop(guard);
        self.state.swap(IDLE, Ordering::Acquire) == RUNG
    }
}

/// Runs `hosts` on the calling thread until every one has left its event
/// loop and no link holds a frame, releasing held frames whenever a round
/// makes no progress and waiting on `bell` when none is held. Returns the
/// hosts with their endpoints still open: the caller closes them once no
/// peer is still delivering.
///
/// # Panics
///
/// Panics with every hosted actor's protocol state once a peer outlives
/// its deadline (a protocol bug, not an input error).
pub(crate) fn run(hosts: Vec<PeerHost>, bell: &Doorbell) -> Vec<PeerHost> {
    let mut peers: Vec<Running> = hosts.into_iter().map(Running::start).collect();
    let mut now = 0;
    loop {
        let mut progressed = false;
        for peer in &mut peers {
            progressed |= peer.step();
        }
        if progressed {
            continue;
        }
        // Nothing held is due yet, so this pass only finds the earliest.
        if let Some(due) = peers.iter_mut().filter_map(|p| p.release(now)).min() {
            now = due;
            for peer in &mut peers {
                peer.release(now);
            }
            continue;
        }
        if peers.iter().all(Running::is_done) {
            break;
        }
        if !bell.wait(POLL) {
            for peer in &mut peers {
                peer.idle();
            }
            let stalled: Vec<u32> = peers
                .iter()
                .filter(|p| p.stalled())
                .map(Running::index)
                .collect();
            assert!(
                stalled.is_empty(),
                "net: peers {stalled:?} stalled past their deadline (protocol bug)\n{}",
                status_report(peers.iter().flat_map(Running::actors))
            );
        }
    }
    peers.into_iter().map(Running::into_host).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_ring_before_the_wait_is_not_lost() {
        let bell = Doorbell::default();
        bell.ring();
        assert!(bell.wait(Duration::ZERO));
        assert!(!bell.wait(Duration::from_millis(1)), "ring consumed");
    }

    #[test]
    fn a_ring_wakes_a_parked_worker() {
        let bell = Arc::new(Doorbell::default());
        let ringer = Arc::clone(&bell);
        let t = std::thread::spawn(move || {
            // Ring only once the waiter has parked.
            while ringer.state.load(Ordering::Acquire) != PARKED {
                std::thread::yield_now();
            }
            ringer.ring();
        });
        assert!(bell.wait(Duration::from_secs(60)), "ring lost");
        t.join().unwrap();
    }
}
