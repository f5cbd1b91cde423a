//! Fair-share admission charged measured service time: the queue between
//! a multi-tenant front door and the [`crate::DagScheduler`].
//!
//! Tenants submit work tagged with a *weight*. The queue admits, at every
//! decision point, the pending entry whose tenant has been **charged the
//! least service time per unit of weight** so far, with ties broken by
//! arrival order. Nothing is charged at admission: when a submission
//! finishes, its dispatcher reports the wall seconds it took
//! ([`AdmissionQueue::charge`]). Under saturation this converges to
//! weighted fair sharing of measured service time — a weight-4 tenant
//! receives ~4× the service time of a weight-1 tenant, whatever its
//! queries cost — and no tenant starves (an idle tenant's normalized
//! account stays put while the busy tenants' accounts grow past it).
//!
//! The policy is deterministic: admission order is a pure function of
//! the submit/charge sequence (seq numbers, tenants, weights, charged
//! seconds) — no clocks, no randomness — which is what lets the fairness
//! property be proptested exactly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// One pending (or admitted) unit of work, as the queue saw it.
#[derive(Debug)]
pub struct QueuedEntry<T> {
    /// Arrival order, dense from 0 — the deterministic tiebreaker.
    pub seq: u64,
    /// Who submitted.
    pub tenant: String,
    /// The tenant's weight at admission time.
    pub weight: f64,
    /// When the entry was queued (monotonic ns, obs epoch).
    pub queued_ns: u64,
    /// When the entry was admitted (monotonic ns, obs epoch). Zero
    /// until admission.
    pub admitted_ns: u64,
    /// The work itself.
    pub payload: T,
}

/// Per-tenant fair-share account.
#[derive(Debug, Clone, Copy)]
pub struct TenantAccount {
    /// The tenant's declared weight (≥ [`FairShareLedger::MIN_WEIGHT`]).
    pub weight: f64,
    /// Cumulative service time charged to this tenant, in seconds.
    pub charged: f64,
    /// Number of submissions admitted for this tenant.
    pub admitted: u64,
}

impl TenantAccount {
    /// The fair-share key: charged service time per unit of weight.
    pub fn normalized_charge(&self) -> f64 {
        self.charged / self.weight
    }
}

/// The per-tenant accounting behind the queue. Pure and synchronous —
/// the concurrency lives in [`AdmissionQueue`] — so the fairness
/// proptests can drive it directly.
#[derive(Debug, Default)]
pub struct FairShareLedger {
    tenants: BTreeMap<String, TenantAccount>,
}

impl FairShareLedger {
    /// Weights below this are clamped up; a zero/negative weight would
    /// make the normalized-charge key meaningless.
    pub const MIN_WEIGHT: f64 = 1e-6;

    /// The weight of a tenant that never declared one.
    pub const DEFAULT_WEIGHT: f64 = 1.0;

    /// An empty ledger.
    pub fn new() -> FairShareLedger {
        FairShareLedger::default()
    }

    fn account_mut(&mut self, tenant: &str) -> &mut TenantAccount {
        self.tenants
            .entry(tenant.to_string())
            .or_insert(TenantAccount {
                weight: Self::DEFAULT_WEIGHT,
                charged: 0.0,
                admitted: 0,
            })
    }

    /// Declare (or update) a tenant's weight. Clamped to
    /// [`Self::MIN_WEIGHT`]; non-finite weights are ignored.
    pub fn set_weight(&mut self, tenant: &str, weight: f64) {
        if weight.is_finite() {
            self.account_mut(tenant).weight = weight.max(Self::MIN_WEIGHT);
        }
    }

    /// The fair-share key for a tenant: cumulative charged service time
    /// divided by weight. Unknown tenants are at 0 (first in line).
    pub fn normalized_charge(&self, tenant: &str) -> f64 {
        self.tenants
            .get(tenant)
            .map(TenantAccount::normalized_charge)
            .unwrap_or(0.0)
    }

    /// Pick the next entry to admit from `pending`: the entry whose
    /// tenant has the smallest normalized charge, ties broken by arrival
    /// seq. Returns the index into `pending`.
    pub fn pick<T>(&self, pending: &VecDeque<QueuedEntry<T>>) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ka = (self.normalized_charge(&a.tenant), a.seq);
                let kb = (self.normalized_charge(&b.tenant), b.seq);
                ka.partial_cmp(&kb).expect("charges are never NaN")
            })
            .map(|(idx, _)| idx)
    }

    /// Count one admission for a tenant. Admission charges nothing.
    pub fn admit(&mut self, tenant: &str) {
        self.account_mut(tenant).admitted += 1;
    }

    /// Charge a tenant the service time one of its submissions took.
    /// Negative and NaN charges count as zero.
    pub fn charge(&mut self, tenant: &str, seconds: f64) {
        self.account_mut(tenant).charged += seconds.max(0.0);
    }

    /// Every tenant's account, in tenant-name order (deterministic).
    pub fn accounts(&self) -> impl Iterator<Item = (&str, &TenantAccount)> {
        self.tenants.iter().map(|(t, a)| (t.as_str(), a))
    }

    /// The weight a tenant's account currently carries
    /// ([`Self::DEFAULT_WEIGHT`] for tenants that never declared one).
    pub fn account_weight(&self, tenant: &str) -> f64 {
        self.tenants
            .get(tenant)
            .map(|a| a.weight)
            .unwrap_or(Self::DEFAULT_WEIGHT)
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is closed (the server is draining): the submission was
    /// *not* accepted and no work is owed for it.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "admission queue is closed (draining)"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct QueueState<T> {
    pending: VecDeque<QueuedEntry<T>>,
    ledger: FairShareLedger,
    next_seq: u64,
    closed: bool,
    accepted: u64,
    admitted: u64,
}

/// A bounded, closable, fair-share admission queue.
///
/// Producers ([`AdmissionQueue::submit`]) block while the queue is at
/// capacity; consumers ([`AdmissionQueue::admit`]) block while it is
/// empty and report each admitted entry's service time back with
/// [`AdmissionQueue::charge`]. [`AdmissionQueue::close`] starts a drain:
/// further submissions are rejected with [`SubmitError::Closed`],
/// already-accepted entries keep flowing to consumers, and `admit`
/// returns `None` once the queue is closed *and* empty — so every
/// accepted entry is admitted exactly once (zero lost work).
pub struct AdmissionQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    /// Signalled when capacity frees up (producers wait here).
    space: Condvar,
    /// Signalled when an entry arrives or the queue closes (consumers
    /// wait here).
    items: Condvar,
}

impl<T> std::fmt::Debug for AdmissionQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionQueue")
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .finish()
    }
}

impl<T> AdmissionQueue<T> {
    /// An empty open queue; [`AdmissionQueue::submit`] blocks while
    /// `capacity` entries are pending (backpressure on the front door).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                ledger: FairShareLedger::new(),
                next_seq: 0,
                closed: false,
                accepted: 0,
                admitted: 0,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
        }
    }

    /// Queue one unit of work for `tenant`. `weight`, when given,
    /// (re)declares the tenant's weight. Blocks while the queue is full;
    /// returns the entry's arrival seq, or [`SubmitError::Closed`] once
    /// a drain has started.
    pub fn submit(
        &self,
        tenant: &str,
        weight: Option<f64>,
        payload: T,
    ) -> Result<u64, SubmitError> {
        let mut st = self.state.lock().expect("unpoisoned admission queue");
        loop {
            if st.closed {
                return Err(SubmitError::Closed);
            }
            if st.pending.len() < self.capacity {
                break;
            }
            st = self.space.wait(st).expect("unpoisoned admission queue");
        }
        if let Some(w) = weight {
            st.ledger.set_weight(tenant, w);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.accepted += 1;
        let weight = st.ledger.account_weight(tenant);
        st.pending.push_back(QueuedEntry {
            seq,
            tenant: tenant.to_string(),
            weight,
            queued_ns: gumbo_obs::now_ns(),
            admitted_ns: 0,
            payload,
        });
        drop(st);
        self.items.notify_one();
        Ok(seq)
    }

    /// Take the next entry under the fair-share policy. Blocks while the
    /// queue is open and empty; returns `None` once the queue is closed
    /// *and* drained.
    pub fn admit(&self) -> Option<QueuedEntry<T>> {
        let mut st = self.state.lock().expect("unpoisoned admission queue");
        loop {
            if let Some(idx) = st.ledger.pick(&st.pending) {
                let mut entry = st.pending.remove(idx).expect("picked index in bounds");
                entry.weight = st.ledger.account_weight(&entry.tenant);
                st.ledger.admit(&entry.tenant);
                st.admitted += 1;
                entry.admitted_ns = gumbo_obs::now_ns();
                drop(st);
                self.space.notify_one();
                return Some(entry);
            }
            if st.closed {
                return None;
            }
            st = self.items.wait(st).expect("unpoisoned admission queue");
        }
    }

    /// Charge `tenant` the measured service time, in seconds, of one of
    /// its admitted entries — on success or failure alike.
    pub fn charge(&self, tenant: &str, seconds: f64) {
        self.state
            .lock()
            .expect("unpoisoned admission queue")
            .ledger
            .charge(tenant, seconds);
    }

    /// Start the drain: reject new submissions, keep serving the
    /// backlog. Idempotent.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("unpoisoned admission queue");
        st.closed = true;
        drop(st);
        // Wake everyone: blocked producers must see Closed, blocked
        // consumers must re-check for the None exit.
        self.items.notify_all();
        self.space.notify_all();
    }

    /// Has [`AdmissionQueue::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.state
            .lock()
            .expect("unpoisoned admission queue")
            .closed
    }

    /// Entries currently pending (accepted, not yet admitted).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("unpoisoned admission queue")
            .pending
            .len()
    }

    /// Total entries ever accepted.
    pub fn accepted(&self) -> u64 {
        self.state
            .lock()
            .expect("unpoisoned admission queue")
            .accepted
    }

    /// Total entries ever admitted.
    pub fn admitted(&self) -> u64 {
        self.state
            .lock()
            .expect("unpoisoned admission queue")
            .admitted
    }

    /// Snapshot of every tenant's account, in tenant-name order:
    /// `(tenant, weight, charged seconds, admitted)`.
    pub fn accounts(&self) -> Vec<(String, f64, f64, u64)> {
        let st = self.state.lock().expect("unpoisoned admission queue");
        st.ledger
            .accounts()
            .map(|(t, a)| (t.to_string(), a.weight, a.charged, a.admitted))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(seq: u64, tenant: &str) -> QueuedEntry<()> {
        QueuedEntry {
            seq,
            tenant: tenant.to_string(),
            weight: 1.0,
            queued_ns: 0,
            admitted_ns: 0,
            payload: (),
        }
    }

    #[test]
    fn ledger_prefers_least_normalized_charge_then_arrival_order() {
        let mut ledger = FairShareLedger::new();
        ledger.set_weight("heavy", 4.0);
        let mut pending = VecDeque::new();
        pending.push_back(entry(0, "light"));
        pending.push_back(entry(1, "heavy"));
        // Fresh accounts: both at 0, seq breaks the tie.
        assert_eq!(ledger.pick(&pending), Some(0));
        // Admitting charges nothing: light stays first in line until its
        // work reports its service time.
        ledger.admit("light");
        assert_eq!(ledger.pick(&pending), Some(0));
        ledger.charge("light", 0.010);
        // light is at 0.010/1, heavy at 0/4 — heavy goes next.
        assert_eq!(ledger.pick(&pending), Some(1));
        ledger.charge("heavy", 0.010);
        // light 0.010 vs heavy 0.0025: heavy keeps winning until it has
        // been charged ~4× light's service time.
        assert!(ledger.normalized_charge("heavy") < ledger.normalized_charge("light"));
    }

    #[test]
    fn queue_admits_everything_accepted_before_close() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(64);
        for i in 0..5 {
            q.submit("t", None, i).unwrap();
        }
        q.close();
        assert_eq!(q.submit("t", None, 99), Err(SubmitError::Closed));
        let mut drained = Vec::new();
        while let Some(e) = q.admit() {
            drained.push(e.payload);
        }
        assert_eq!(drained.len(), 5);
        assert_eq!(q.accepted(), 5);
        assert_eq!(q.admitted(), 5);
        assert!(!drained.contains(&99));
    }

    #[test]
    fn timestamps_are_monotonic_across_queue_and_admit() {
        let q: AdmissionQueue<()> = AdmissionQueue::new(64);
        q.submit("t", None, ()).unwrap();
        let e = q.admit().unwrap();
        assert!(e.admitted_ns >= e.queued_ns);
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(1));
        q.submit("t", None, 0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.submit("t", None, 1))
        };
        // The producer is blocked on the full queue until we admit.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.depth(), 1, "second submit must wait for space");
        assert_eq!(q.admit().unwrap().payload, 0);
        producer.join().unwrap().unwrap();
        assert_eq!(q.admit().unwrap().payload, 1);
    }

    /// A saturated backlog of two tenants whose queries cost different
    /// service times — the weight-1 tenant's 3 s each, the weight-4
    /// tenant's 1 s — drained admit → charge at one and at two
    /// outstanding admissions: the weight-4 tenant ends up charged ~4×
    /// the weight-1 tenant's service time, though it runs 12× as many
    /// queries.
    #[test]
    fn weighted_tenants_share_measured_time_by_weight_under_backlog() {
        const COST: [(&str, f64, f64); 2] = [("w1", 1.0, 3.0), ("w4", 4.0, 1.0)];
        for outstanding in [1, 2] {
            let q: AdmissionQueue<f64> = AdmissionQueue::new(1024);
            for _ in 0..100 {
                for (tenant, weight, cost) in COST {
                    q.submit(tenant, Some(weight), cost).unwrap();
                }
            }
            let mut in_flight = VecDeque::new();
            for _ in 0..60 {
                while in_flight.len() < outstanding {
                    in_flight.push_back(q.admit().unwrap());
                }
                let done = in_flight.pop_front().unwrap();
                q.charge(&done.tenant, done.payload);
            }
            let accounts = q.accounts();
            let charged = |tenant: &str| {
                let account = accounts.iter().find(|a| a.0 == tenant).unwrap();
                account.2
            };
            let ratio = charged("w4") / charged("w1");
            assert!(
                (3.0..=5.0).contains(&ratio),
                "{outstanding} outstanding: w4:w1 charged-time ratio {ratio} should be near 4"
            );
        }
    }
}
