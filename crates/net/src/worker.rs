//! Peer workers: the threads an in-process net run hosts its peers on.
//!
//! A run over `n` peers starts `W = min(n, cores)` workers. Peer `i` lives
//! on worker `i mod W`; the calling thread is worker 0. Each worker steps its peers' event loops round-robin, one
//! local delivery or one inbound frame per step, and never blocks inside a
//! step: channels are unbounded and TCP writes drain into independent
//! reader threads, so a step cannot wait on a co-hosted peer.
//!
//! When a whole round makes no progress the worker waits on its
//! [`Doorbell`], which every transport delivering into one of its peers'
//! inboxes rings after each chunk. On loopback the ringer is another
//! worker, so the idle worker spins for the `wcp_clocks::par` budget
//! (50 µs) before it parks: a token hand-off then costs a cache-line
//! transfer, not a thread wake-up. Over TCP a reader thread must run
//! before any ring, so the worker parks at once and leaves the CPU to it.
//! A wait that sees no ring for [`POLL`] runs the idle duties: the forced
//! telemetry flush and the stall watchdog.
//!
//! A standalone `wcp serve` peer runs the same loop with one peer on its
//! own thread.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::peer::{PeerHost, Running};

/// How long an idle worker waits for a ring before it runs its peers'
/// idle duties.
pub(crate) const POLL: Duration = Duration::from_millis(5);

const IDLE: u8 = 0;
const RUNG: u8 = 1;
const PARKED: u8 = 2;

/// Wakes the worker hosting a peer when a chunk lands in that peer's inbox.
///
/// Ringing a worker that is running or spinning is one atomic swap; only a
/// parked worker costs a lock and a futex wake. A ring is never lost: one
/// that lands while the worker is busy makes its next wait return at once.
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

    /// Waits up to `timeout` for a ring, spinning first when `spin` is
    /// set; consumes the ring and returns whether one came.
    pub(crate) fn wait(&self, spin: bool, timeout: Duration) -> bool {
        if spin {
            wcp_clocks::par::spin(|| self.state.load(Ordering::Relaxed) == RUNG);
        }
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

/// The worker count of an in-process run over `n_peers` peers:
/// `min(n_peers, available parallelism)`, and at least 1.
pub(crate) fn worker_count(n_peers: usize) -> usize {
    #[cfg(test)]
    if let Some(workers) = PINNED_WORKERS.get() {
        return workers.clamp(1, n_peers.max(1));
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    n_peers.min(cores).max(1)
}

#[cfg(test)]
thread_local! {
    /// Overrides [`worker_count`] on this thread, so tests cover the
    /// single-worker and one-worker-per-peer layouts on any host.
    pub(crate) static PINNED_WORKERS: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `hosts` on the calling thread until every one has left its event
/// loop, waiting on `bell` whenever a round makes no progress. Returns the
/// hosts with their endpoints still open: the caller closes them once no
/// peer anywhere is still delivering.
pub(crate) fn run(hosts: Vec<PeerHost>, bell: &Doorbell, spin: bool) -> Vec<PeerHost> {
    let mut peers: Vec<Running> = hosts.into_iter().map(Running::start).collect();
    while !peers.iter().all(Running::is_done) {
        let mut progressed = false;
        for peer in &mut peers {
            progressed |= peer.step();
        }
        if !progressed && !bell.wait(spin, POLL) {
            for peer in &mut peers {
                peer.idle();
            }
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
        assert!(bell.wait(false, Duration::ZERO));
        assert!(!bell.wait(false, Duration::from_millis(1)), "ring consumed");
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
        assert!(bell.wait(false, Duration::from_secs(60)), "ring lost");
        t.join().unwrap();
    }

    #[test]
    fn worker_count_is_capped_by_peers() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(64) >= 1 && worker_count(64) <= 64);
        PINNED_WORKERS.set(Some(8));
        assert_eq!(worker_count(3), 3);
        PINNED_WORKERS.set(None);
    }
}
