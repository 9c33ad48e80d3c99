//! Subscriber sessions: the bounded oldest-drop delta queue both
//! serving planes use.
//!
//! Each caller-chosen session id owns one queue. Publishing fans every
//! new delta out to every registered session; a slow client that never
//! polls loses its *oldest* deltas first (the same eviction policy as
//! the network outbox) and is told how many were dropped on its next
//! poll — fresh state always wins over stale history.

use mpros_telemetry::{Counter, Telemetry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Queued deltas a fleet session may hold: larger than a single ship's
/// default because one fleet session watches every shard.
pub const FLEET_SESSION_QUEUE_CAPACITY: usize = 256;

/// One subscriber's server-side state.
#[derive(Debug)]
struct Session<T> {
    /// Queued deltas, oldest first.
    queue: VecDeque<T>,
    /// Deltas evicted since the session's last poll.
    dropped_since_poll: u64,
}

/// Every subscriber session of one server, each a bounded oldest-drop
/// queue of `T`.
#[derive(Debug)]
pub struct SessionQueues<T> {
    capacity: usize,
    /// Keyed by session id. `BTreeMap` so publish-time fan-out walks
    /// sessions in a fixed order.
    sessions: Mutex<BTreeMap<u64, Session<T>>>,
    /// `<component>.drops`: deltas evicted by backpressure.
    drops: Arc<Counter>,
    /// `<component>.deltas_queued`: deltas fanned out to sessions.
    queued: Arc<Counter>,
}

impl<T: Clone> SessionQueues<T> {
    /// Empty sessions holding at most `capacity` deltas each (at least
    /// one), counting into `component`'s `drops` and `deltas_queued`.
    pub fn new(capacity: usize, telemetry: &Telemetry, component: &str) -> Self {
        SessionQueues {
            capacity: capacity.max(1),
            sessions: Mutex::new(BTreeMap::new()),
            drops: telemetry.counter(component, "drops"),
            queued: telemetry.counter(component, "deltas_queued"),
        }
    }

    /// Registered sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Append `deltas` to every registered session, evicting the oldest
    /// entries of any queue that would exceed its capacity.
    pub fn publish(&self, deltas: &[T]) {
        if deltas.is_empty() {
            return;
        }
        let mut sessions = self.sessions.lock();
        for state in sessions.values_mut() {
            for delta in deltas {
                while state.queue.len() >= self.capacity {
                    state.queue.pop_front();
                    state.dropped_since_poll += 1;
                    self.drops.inc();
                }
                state.queue.push_back(delta.clone());
                self.queued.inc();
            }
        }
    }

    /// Register `session` (idempotently) and drain it: the deltas
    /// evicted since its last poll, and the survivors, oldest first.
    pub fn drain(&self, session: u64) -> (u64, Vec<T>) {
        let mut sessions = self.sessions.lock();
        let state = sessions.entry(session).or_insert_with(|| Session {
            queue: VecDeque::new(),
            dropped_since_poll: 0,
        });
        let dropped = std::mem::take(&mut state.dropped_since_poll);
        (dropped, state.queue.drain(..).collect())
    }
}
