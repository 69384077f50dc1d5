//! An [`UpdateStore`] wrapper that forwards every trait method to the
//! wrapped store and times it.
//!
//! Every method is forwarded explicitly — including the ones the trait gives
//! default bodies (causal mode, fabric replicas, instance checkpoints,
//! `accepted_replay_units_after`): a wrapper that fell back to a default
//! body would silently change the wrapped store's behaviour. Each call adds
//! its wall time and a call count to one of a few method groups, and — when a
//! [`Probe`](crate::probe::Probe) is attached — records a span under the
//! caller's open span, so store time is subtracted from the calling layer's
//! self time.

use crate::probe::{enter, ProbeHandle};
use orchestra_model::{
    AntichainClock, CausalStamp, Epoch, ParticipantId, ReconciliationId, Transaction,
    TransactionId, TrustPolicy,
};
use orchestra_recon::CandidateTransaction;
use orchestra_storage::{InstanceCheckpoint, Result};
use orchestra_store::{SessionId, SessionInfo, StoreTiming, Timed, UpdateStore};
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The method groups the wrapper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `publish` (and the stamped and replica variants).
    Publish,
    /// `begin_reconciliation`.
    Begin,
    /// `next_batch`.
    NextBatch,
    /// `commit_reconciliation`.
    Commit,
    /// Decision and transaction reads: `accepted_set`, `rejected_set`,
    /// `transaction`.
    Read,
    /// Everything else: registration, aborts, out-of-session decisions,
    /// recovery paths, causal and checkpoint calls.
    Other,
}

impl Method {
    /// Every group, in report order.
    pub const ALL: [Method; 6] = [
        Method::Publish,
        Method::Begin,
        Method::NextBatch,
        Method::Commit,
        Method::Read,
        Method::Other,
    ];

    /// The group's metric stem (`store.<stem>_s`, `store.<stem>_calls`).
    pub fn stem(self) -> &'static str {
        match self {
            Method::Publish => "publish",
            Method::Begin => "begin",
            Method::NextBatch => "next_batch",
            Method::Commit => "commit",
            Method::Read => "read",
            Method::Other => "other",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Method::Publish => "store.publish",
            Method::Begin => "store.begin",
            Method::NextBatch => "store.next_batch",
            Method::Commit => "store.commit",
            Method::Read => "store.read",
            Method::Other => "store.other",
        }
    }
}

/// Per-group call counts and wall nanoseconds, plus streamed candidates.
#[derive(Debug, Default)]
pub struct StoreCounters {
    calls: [AtomicU64; 6],
    nanos: [AtomicU64; 6],
    candidates: AtomicU64,
}

impl StoreCounters {
    /// Calls made in a group.
    pub fn calls(&self, method: Method) -> u64 {
        self.calls[method as usize].load(Ordering::Relaxed)
    }

    /// Wall seconds spent in a group.
    pub fn seconds(&self, method: Method) -> f64 {
        self.nanos[method as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Candidates returned by `next_batch`.
    pub fn candidates(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }
}

/// The timing wrapper.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    counters: Arc<StoreCounters>,
    probe: ProbeHandle,
}

impl<S: UpdateStore> TimedStore<S> {
    /// Wraps `inner`, recording spans into `probe` when one is given.
    pub fn new(inner: S, probe: ProbeHandle) -> Self {
        TimedStore { inner, counters: Arc::default(), probe }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<StoreCounters> {
        Arc::clone(&self.counters)
    }

    fn timed<T>(&self, method: Method, call: impl FnOnce(&S) -> T) -> T {
        let _span = enter(&self.probe, method.span());
        let start = Instant::now();
        let value = call(&self.inner);
        let nanos = start.elapsed().as_nanos() as u64;
        self.counters.calls[method as usize].fetch_add(1, Ordering::Relaxed);
        self.counters.nanos[method as usize].fetch_add(nanos, Ordering::Relaxed);
        value
    }
}

impl<S: UpdateStore> UpdateStore for TimedStore<S> {
    fn register_participant(&self, policy: TrustPolicy) {
        self.timed(Method::Other, |s| s.register_participant(policy))
    }

    fn publish(
        &self,
        participant: ParticipantId,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.timed(Method::Publish, |s| s.publish(participant, transactions))
    }

    fn begin_reconciliation(&self, participant: ParticipantId) -> Result<Timed<SessionInfo>> {
        self.timed(Method::Begin, |s| s.begin_reconciliation(participant))
    }

    fn next_batch(
        &self,
        session: SessionId,
        max_candidates: usize,
    ) -> Result<Timed<Vec<CandidateTransaction>>> {
        let batch = self.timed(Method::NextBatch, |s| s.next_batch(session, max_candidates));
        if let Ok(batch) = &batch {
            self.counters.candidates.fetch_add(batch.value.len() as u64, Ordering::Relaxed);
        }
        batch
    }

    fn commit_reconciliation(
        &self,
        session: SessionId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        self.timed(Method::Commit, |s| s.commit_reconciliation(session, accepted, rejected))
    }

    fn abort_reconciliation(&self, session: SessionId) -> Result<()> {
        self.timed(Method::Other, |s| s.abort_reconciliation(session))
    }

    fn retire_participant(&self, participant: ParticipantId) -> Result<()> {
        self.timed(Method::Other, |s| s.retire_participant(participant))
    }

    fn record_decisions(
        &self,
        participant: ParticipantId,
        accepted: &[TransactionId],
        rejected: &[TransactionId],
    ) -> Result<StoreTiming> {
        self.timed(Method::Other, |s| s.record_decisions(participant, accepted, rejected))
    }

    fn current_reconciliation(&self, participant: ParticipantId) -> ReconciliationId {
        self.timed(Method::Other, |s| s.current_reconciliation(participant))
    }

    fn rejected_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.timed(Method::Read, |s| s.rejected_set(participant))
    }

    fn accepted_set(&self, participant: ParticipantId) -> Arc<FxHashSet<TransactionId>> {
        self.timed(Method::Read, |s| s.accepted_set(participant))
    }

    fn transaction(&self, id: TransactionId) -> Option<Arc<Transaction>> {
        self.timed(Method::Read, |s| s.transaction(id))
    }

    fn accepted_transactions(&self, participant: ParticipantId) -> Vec<Arc<Transaction>> {
        self.timed(Method::Other, |s| s.accepted_transactions(participant))
    }

    fn epoch_of(&self, id: TransactionId) -> Option<Epoch> {
        self.timed(Method::Other, |s| s.epoch_of(id))
    }

    fn accepted_replay_units(&self, participant: ParticipantId) -> Vec<Vec<Arc<Transaction>>> {
        self.timed(Method::Other, |s| s.accepted_replay_units(participant))
    }

    fn epoch_cursor(&self, participant: ParticipantId) -> Epoch {
        self.timed(Method::Other, |s| s.epoch_cursor(participant))
    }

    fn undecided_candidates(&self, participant: ParticipantId) -> Vec<CandidateTransaction> {
        self.timed(Method::Other, |s| s.undecided_candidates(participant))
    }

    fn causal_mode(&self) -> bool {
        self.timed(Method::Other, |s| s.causal_mode())
    }

    fn enable_causal_mode(&self) -> Result<()> {
        self.timed(Method::Other, |s| s.enable_causal_mode())
    }

    fn causal_frontier(&self) -> AntichainClock {
        self.timed(Method::Other, |s| s.causal_frontier())
    }

    fn next_publisher_seq(&self, participant: ParticipantId) -> u64 {
        self.timed(Method::Other, |s| s.next_publisher_seq(participant))
    }

    fn publish_stamped(
        &self,
        stamp: CausalStamp,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.timed(Method::Publish, |s| s.publish_stamped(stamp, transactions))
    }

    fn publish_replica(
        &self,
        participant: ParticipantId,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.timed(Method::Publish, |s| s.publish_replica(participant, epoch, transactions))
    }

    fn publish_replica_stamped(
        &self,
        stamp: CausalStamp,
        epoch: Epoch,
        transactions: Vec<Transaction>,
    ) -> Result<Timed<Epoch>> {
        self.timed(Method::Publish, |s| s.publish_replica_stamped(stamp, epoch, transactions))
    }

    fn record_instance_checkpoint(
        &self,
        participant: ParticipantId,
        checkpoint: InstanceCheckpoint,
    ) -> Result<()> {
        self.timed(Method::Other, |s| s.record_instance_checkpoint(participant, checkpoint))
    }

    fn instance_checkpoint(&self, participant: ParticipantId) -> Option<InstanceCheckpoint> {
        self.timed(Method::Other, |s| s.instance_checkpoint(participant))
    }

    fn accepted_replay_units_after(
        &self,
        participant: ParticipantId,
        skip: u64,
    ) -> Vec<Vec<Arc<Transaction>>> {
        self.timed(Method::Other, |s| s.accepted_replay_units_after(participant, skip))
    }
}
