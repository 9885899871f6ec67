//! Cluster-mode plumbing: the contract between an executor-resident
//! [`crate::Engine`] and the driver's shuffle exchange.
//!
//! In cluster mode every executor runs the *same* driver program over its
//! own private heap, keeping only the source partitions assigned to it
//! (partition `i` belongs to executor `i % E`). Narrow stages proceed
//! independently; wide transformations and actions rendezvous through an
//! [`ExchangeClient`]: each executor contributes its local partitions (in
//! Send-safe [`WirePayload`] form) plus its virtual clock, and receives
//! every executor's contribution plus the barrier time — the maximum
//! arrival clock, modelling straggler skew. Because each rendezvous is a
//! deterministic all-gather over structurally-aligned contributions, the
//! whole cluster is a Kahn process network: results and simulated clocks
//! are independent of host-thread scheduling.

use mheap::{Key, Payload, WirePayload};
use sparklang::ast::MemoryTag;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A typed cluster failure, delivered to every executor blocked on (or
/// about to enter) a collective instead of letting them deadlock on a
/// peer that will never arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The exchange was poisoned: executor `exec` died mid-run (a real
    /// panic, or an injected crash with recovery disabled). Every waiter
    /// and every later rendezvous attempt observes this same error.
    Poisoned {
        /// The executor that failed first.
        exec: u16,
        /// Human-readable cause (panic message or injected-fault label).
        reason: String,
    },
    /// A *planned* fault from a deterministic fault plan: executor `exec`
    /// crashes on arrival at statement barrier `barrier`, at virtual time
    /// `at_ns`. With recovery enabled the driver restarts the executor;
    /// otherwise this degenerates into a poisoned exchange.
    InjectedCrash {
        /// The crashing executor.
        exec: u16,
        /// The statement barrier the crash fires at.
        barrier: u64,
        /// Virtual time of the crash (the executor's arrival clock).
        at_ns: f64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Poisoned { exec, reason } => {
                write!(f, "exchange poisoned by executor {exec}: {reason}")
            }
            ClusterError::InjectedCrash {
                exec,
                barrier,
                at_ns,
            } => write!(
                f,
                "injected crash: executor {exec} at barrier {barrier} (t={at_ns}ns)"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Where an RDD's *local* records sit inside the global partition space.
///
/// An executor's flattened record vector is the concatenation of the
/// global partitions it owns, in ascending global-partition-id order;
/// `gids[i]` names the `i`-th owned partition and `lens[i]` its record
/// count. `global_parts` is the total partition count across the cluster,
/// so a `union` can renumber its second input past its first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartMeta {
    /// Global ids of the partitions this executor holds, ascending.
    pub gids: Vec<u64>,
    /// Record count of each held partition, parallel to `gids`.
    pub lens: Vec<usize>,
    /// Total partitions of this RDD across all executors.
    pub global_parts: u64,
}

/// One executor's map-side output for a shuffle: its local partitions of
/// each parent, keyed by global partition id.
#[derive(Debug, Clone)]
pub struct ShuffleContrib {
    /// `(global partition id, records)` for the first parent.
    pub left: Vec<(u64, Vec<WirePayload>)>,
    /// Partitions of the second parent, for two-input shuffles (join).
    pub right: Option<Vec<(u64, Vec<WirePayload>)>>,
}

/// FNV-1a over a stream of `u64` words — the structural-digest mixer
/// shared by every journaled operation. Same constants as
/// [`WirePayload::fingerprint`], so digests are stable across executors
/// and restarts (they depend only on simulated values, never on host
/// pointers or timing).
fn fnv_words<I: IntoIterator<Item = u64>>(tag: u64, words: I) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = BASIS ^ tag.wrapping_mul(PRIME);
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

fn digest_parts(h: &mut Vec<u64>, parts: &[(u64, Vec<WirePayload>)]) {
    h.push(parts.len() as u64);
    for (gid, recs) in parts {
        h.push(*gid);
        h.push(recs.len() as u64);
        h.extend(recs.iter().map(WirePayload::fingerprint));
    }
}

impl ShuffleContrib {
    /// Modelled footprint of this contribution in bytes — what the
    /// deposit occupies in a shared shuffle region (or would cost to
    /// serialize under the wire transport).
    pub fn model_bytes(&self) -> u64 {
        let side = |parts: &[(u64, Vec<WirePayload>)]| -> u64 {
            parts
                .iter()
                .map(|(_, recs)| recs.iter().map(WirePayload::model_bytes).sum::<u64>())
                .sum()
        };
        side(&self.left) + self.right.as_deref().map_or(0, side)
    }

    /// Structural digest of this contribution: partition ids, record
    /// counts, and every record's [`WirePayload::fingerprint`]. Two
    /// contributions digest equal iff they carry the same simulated
    /// values, so a replayed deposit can be *validated* as a no-op.
    pub fn digest(&self) -> u64 {
        let mut words = Vec::new();
        digest_parts(&mut words, &self.left);
        match &self.right {
            Some(parts) => {
                words.push(1);
                digest_parts(&mut words, parts);
            }
            None => words.push(0),
        }
        fnv_words(1, words)
    }
}

/// One executor's partial result for a global action.
#[derive(Debug, Clone)]
pub enum ActionContrib {
    /// Local record count (`count()`).
    Count(u64),
    /// Local partitions in `(global partition id, records)` form
    /// (`collect()`).
    Collect(Vec<(u64, Vec<WirePayload>)>),
    /// Locally-folded partial, `None` for an empty local RDD
    /// (`reduce(f)`).
    Reduce(Option<WirePayload>),
}

impl ActionContrib {
    /// Structural digest of this partial result (see
    /// [`ShuffleContrib::digest`] for the validation contract).
    pub fn digest(&self) -> u64 {
        match self {
            ActionContrib::Count(n) => fnv_words(2, [*n]),
            ActionContrib::Collect(parts) => {
                let mut words = Vec::new();
                digest_parts(&mut words, parts);
                fnv_words(3, words)
            }
            ActionContrib::Reduce(opt) => fnv_words(4, opt.iter().map(WirePayload::fingerprint)),
        }
    }
}

/// The rendezvous endpoints an executor engine calls. Implementations
/// must be safe to share across executor threads; every method blocks the
/// calling executor until all `E` executors have contributed, then hands
/// each of them the full contribution vector (indexed by executor id) and
/// the barrier clock `t_bar = max` over the contributed clocks.
///
/// Re-requests are idempotent: once a shuffle, action, or barrier
/// rendezvous has completed, later calls with the same id (an evicted RDD
/// being recomputed, or a restarted executor replaying its program) are
/// served from the completed result without blocking and without
/// depositing the new contribution.
///
/// Every method returns `Err` instead of blocking forever when the
/// exchange has been poisoned by a failed peer, and may return
/// [`ClusterError::InjectedCrash`] to fire a planned fault against the
/// calling executor.
pub trait ExchangeClient: Send + Sync {
    /// Contribute to (or re-read) the gather for shuffle node `rdd`.
    fn gather_shuffle(
        &self,
        exec: u16,
        rdd: u32,
        contrib: ShuffleContrib,
        clock_ns: f64,
    ) -> Result<(Arc<Vec<ShuffleContrib>>, f64), ClusterError>;

    /// Contribute to (or re-read) the gather for the `seq`-th action.
    fn gather_action(
        &self,
        exec: u16,
        seq: u64,
        contrib: ActionContrib,
        clock_ns: f64,
    ) -> Result<(Arc<Vec<ActionContrib>>, f64), ClusterError>;

    /// Statement barrier `index`: block until every executor arrives,
    /// return the barrier clock.
    fn barrier(&self, exec: u16, index: u64, clock_ns: f64) -> Result<f64, ClusterError>;
}

/// A durable partition snapshot: one executor's share of a checkpointed
/// RDD, in Send-safe wire form. Snapshots model data living in the NVM
/// component of the old generation — they survive the owning executor's
/// heap teardown, which is exactly what recovery needs.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// `(global partition id, records)` for each owned partition.
    pub parts: Vec<(u64, Vec<WirePayload>)>,
    /// Total partitions of the RDD across all executors.
    pub global_parts: u64,
    /// Modelled bytes of the snapshot (what the NVM writes cost).
    pub bytes: u64,
    /// The RDD's memory tag at snapshot time, restored verbatim.
    pub tag: Option<MemoryTag>,
}

impl CheckpointEntry {
    /// Structural digest of this snapshot (see
    /// [`ShuffleContrib::digest`] for the validation contract).
    pub fn digest(&self) -> u64 {
        let mut words = Vec::new();
        digest_parts(&mut words, &self.parts);
        words.push(self.global_parts);
        words.push(self.bytes);
        // `tag` is deliberately excluded: placement tags merge over an
        // incarnation's lifetime, so a legitimate re-save after eviction
        // may carry a drifted tag for the *same* records. The digest
        // covers simulated values only.
        fnv_words(5, words)
    }
}

/// Durable checkpoint storage keyed by `(rdd id, executor id)`. The store
/// outlives every executor heap; `save` is idempotent (the first write
/// wins, so a replaying executor never double-charges a snapshot).
pub trait CheckpointStore: Send + Sync {
    /// Persist a snapshot. Returns `false` (and drops the entry) if one
    /// already exists for this key.
    fn save(&self, rdd: u32, exec: u16, entry: CheckpointEntry) -> bool;
    /// Read back a snapshot, if one was saved.
    fn load(&self, rdd: u32, exec: u16) -> Option<CheckpointEntry>;
    /// Total modelled bytes currently resident in the store.
    fn resident_bytes(&self) -> u64;
}

/// Which durable side effect a journal entry guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JournalOp {
    /// A shuffle-gather deposit, keyed by the shuffle RDD's id.
    ShuffleDeposit,
    /// An action-gather deposit, keyed by the action sequence number.
    ActionDeposit,
    /// A checkpoint save, keyed by the checkpointed RDD's id.
    CheckpointSave,
}

/// What [`DepositJournal::begin`] found for an `(exec, op, key)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// No journal entry existed: this is the operation's first issue. The
    /// entry is now pending; the caller must perform the effect and then
    /// [`DepositJournal::commit`].
    Fresh,
    /// A committed entry with a matching digest existed: the operation
    /// already happened in a previous incarnation and this re-issue is a
    /// validated no-op. The caller must still re-read the result (gathers
    /// are idempotent re-reads) but must not re-charge the effect.
    Replay,
    /// A *pending* entry existed: the previous incarnation crashed after
    /// `begin` but before `commit` — a torn operation. The entry has been
    /// re-armed; the caller rolls forward by performing the effect again
    /// and committing.
    Torn,
}

/// The durable intent journal for exchange deposits and checkpoint saves,
/// living in the NVM store so it survives executor heap teardown.
///
/// Protocol (write → persist → validate, after Metall's crash-consistent
/// discipline): `begin` persists the intent record `(op, key, digest,
/// bytes)` *before* the effect; the effect happens; `commit` marks the
/// record durable. A crash between `begin` and `commit` leaves a *torn*
/// entry that replay detects and rolls forward; a replayed operation
/// whose entry is already committed is digest-validated and skipped — a
/// provable no-op. A digest mismatch means replay diverged from the
/// original timeline (determinism is broken) and panics.
///
/// Journal bookkeeping charges **no** virtual time: the intent record
/// piggybacks on the NVM writes the guarded effect already pays for, so
/// fault-free runs are bit-identical with or without journaling.
pub trait DepositJournal: Send + Sync {
    /// Persist (or re-validate) the intent record for one operation.
    ///
    /// # Panics
    ///
    /// Panics if an existing entry's digest differs from `digest` — the
    /// replay is not re-issuing the same operation it journaled.
    fn begin(&self, exec: u16, op: JournalOp, key: u64, digest: u64, bytes: u64) -> BeginOutcome;

    /// Mark the pending entry committed. A no-op if the entry was already
    /// committed (the `Replay` path never re-pends it).
    fn commit(&self, exec: u16, op: JournalOp, key: u64);
}

/// A timeline mark kept across executor restarts so the surviving attempt
/// can re-synthesize crash/recovery events for the merged trace (each
/// crashed attempt's event buffer dies with it).
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryMark {
    /// The executor crashed on arrival at `barrier`.
    Crash {
        /// Barrier index the crash fired at.
        barrier: u64,
    },
    /// Restart `attempt` began replaying the program.
    Start {
        /// 1-based restart attempt.
        attempt: u32,
    },
    /// Replay re-reached the crash barrier; recovery is complete.
    End {
        /// Barrier index the recovery caught up to.
        barrier: u64,
        /// Virtual time spent recovering (crash → caught up).
        recovery_ns: f64,
    },
}

/// Mutable per-executor recovery bookkeeping, shared between the driver's
/// restart loop, the fault-injecting exchange wrapper, and the engine's
/// checkpoint/replay hooks. All counters are driven by virtual-time events
/// on one executor's (serialized) timeline, so values are deterministic
/// regardless of host threading.
#[derive(Debug, Clone, Default)]
pub struct RecoveryCounters {
    /// Completed restart attempts (0 while the first incarnation runs).
    pub attempt: u32,
    /// True from restart until replay re-reaches the crash barrier.
    pub in_replay: bool,
    /// The barrier index replay must reach to complete recovery. Under
    /// nested faults (a crash during replay) this only ever grows: it
    /// tracks the *furthest* barrier any enclosing recovery must reach.
    pub replay_until: Option<u64>,
    /// How many crashes the current recovery window encloses (0 when not
    /// replaying). A crash during replay deepens the window instead of
    /// opening a second one, so window-scoped stats count once.
    pub replay_depth: u32,
    /// Virtual time the *outermost* open recovery window began (the first
    /// crash's time). Not overwritten by nested crashes, so `recovery_ns`
    /// spans the whole window exactly once.
    pub recovery_started_ns: f64,
    /// Virtual time of the most recent crash — where the next incarnation
    /// resumes its clock from (plus the restart penalty).
    pub last_crash_ns: f64,
    /// Injected crashes that fired on this executor.
    pub executor_crashes: u64,
    /// Injected exchange message losses (charged as retransmits).
    pub messages_lost: u64,
    /// Injected transient allocation failures (charged as retries).
    pub alloc_faults: u64,
    /// Materialized partitions lost to crashes (heap died with them).
    pub partitions_lost: u64,
    /// Partitions recomputed through lineage during replay.
    pub partitions_recomputed: u64,
    /// Partitions restored from NVM checkpoints instead of recomputed.
    pub partitions_restored: u64,
    /// Shuffle stages re-executed during replay.
    pub stages_recomputed: u64,
    /// Checkpoint snapshots written (first-write only).
    pub checkpoint_writes: u64,
    /// Modelled bytes written to NVM checkpoints.
    pub checkpoint_bytes: u64,
    /// Modelled bytes read back from NVM checkpoints.
    pub restore_bytes: u64,
    /// Total virtual time spent recovering, summed over crashes.
    pub recovery_ns: f64,
    /// Partitions currently materialized in this incarnation's heap
    /// (what a crash right now would lose).
    pub live_partitions: u64,
    /// Heap materializations performed so far, across attempts — the
    /// deterministic sequence alloc-fault points key on.
    pub materialize_seq: u64,
    /// Virtual-time crash points already consumed (index into the
    /// executor's sorted crash-point list; survives restarts so each
    /// point fires exactly once).
    pub vcrash_next: usize,
    /// Journaled operations replayed and validated as no-ops.
    pub journal_noops: u64,
    /// Torn journal entries (crash between `begin` and `commit`) found
    /// and rolled forward during replay.
    pub journal_torn: u64,
    /// Timeline marks surviving restarts, for event re-synthesis.
    pub marks: Vec<(f64, RecoveryMark)>,
}

/// Shared handle to one executor's [`RecoveryCounters`].
#[derive(Debug, Default)]
pub struct RecoverySlot {
    inner: Mutex<RecoveryCounters>,
}

impl RecoverySlot {
    /// A fresh slot with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` under the slot lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut RecoveryCounters) -> R) -> R {
        let mut guard = self.inner.lock().expect("recovery slot lock");
        f(&mut guard)
    }
}

/// The engine-facing recovery configuration for one executor: where
/// checkpoints go, how often to take them, and which planned allocation
/// faults to fire.
#[derive(Clone)]
pub struct RecoveryCtx {
    /// Durable checkpoint storage shared by the whole cluster.
    pub store: Arc<dyn CheckpointStore>,
    /// Auto-checkpoint every `n`-th wide (shuffle) RDD; `0` checkpoints
    /// only explicitly `checkpoint()`-marked RDDs.
    pub checkpoint_every: u32,
    /// This executor's shared recovery bookkeeping.
    pub slot: Arc<RecoverySlot>,
    /// Materialization ordinals at which a transient allocation failure
    /// fires (sorted, each fires at most once — ordinals never repeat).
    pub alloc_faults: Arc<Vec<u64>>,
    /// Virtual-time cost charged per allocation-failure retry.
    pub alloc_retry_ns: f64,
    /// The durable intent journal guarding exchange deposits and
    /// checkpoint saves, shared by the whole cluster.
    pub journal: Arc<dyn DepositJournal>,
    /// Virtual times at which this executor crashes (sorted ascending;
    /// each fires at the first engine probe whose clock reaches it,
    /// consumed via [`RecoveryCounters::vcrash_next`]).
    pub crash_points: Arc<Vec<f64>>,
}

impl fmt::Debug for RecoveryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryCtx")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("alloc_faults", &self.alloc_faults)
            .field("alloc_retry_ns", &self.alloc_retry_ns)
            .finish_non_exhaustive()
    }
}

/// An executor's view of the cluster it runs in.
#[derive(Clone)]
pub struct ClusterCtx {
    /// This executor's id, `0..n_exec`.
    pub exec: u16,
    /// Total executors in the cluster.
    pub n_exec: u16,
    /// The shared exchange all executors rendezvous through.
    pub exchange: Arc<dyn ExchangeClient>,
    /// Recovery wiring (checkpoints, fault points, counters), when the
    /// cluster runs under a recovery policy or fault plan.
    pub recovery: Option<RecoveryCtx>,
}

impl fmt::Debug for ClusterCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterCtx")
            .field("exec", &self.exec)
            .field("n_exec", &self.n_exec)
            .finish_non_exhaustive()
    }
}

/// The observation label of a journaled operation.
pub(crate) fn journal_kind(op: JournalOp) -> obs::JournalKind {
    match op {
        JournalOp::ShuffleDeposit => obs::JournalKind::Shuffle,
        JournalOp::ActionDeposit => obs::JournalKind::Action,
        JournalOp::CheckpointSave => obs::JournalKind::Checkpoint,
    }
}

/// Collect one side's partitions from every executor's contribution as
/// `(global partition id, origin executor, records)` tuples, ascending by
/// partition id — the order a run without peers scans them in.
pub(crate) fn merge_contrib_parts(
    contribs: &[ShuffleContrib],
    side: impl Fn(&ShuffleContrib) -> Option<&[(u64, Vec<WirePayload>)]>,
) -> Vec<(u64, u16, Vec<Payload>)> {
    let mut out = Vec::new();
    for (origin, c) in contribs.iter().enumerate() {
        if let Some(parts) = side(c) {
            for (gid, recs) in parts {
                out.push((
                    *gid,
                    origin as u16,
                    recs.iter().map(Payload::from).collect(),
                ));
            }
        }
    }
    out.sort_by_key(|(gid, _, _)| *gid);
    out
}

/// Cross-executor shuffle traffic chargeable to executor `exec`: records
/// it sends to reducers on other executors plus records it receives from
/// other executors' map sides. Reducer ownership follows key
/// first-appearance order, round-robin across executors — the same
/// modulo placement rule partitions use. With one executor every record
/// stays put and the cost is exactly zero.
pub(crate) fn transfer_cost(
    left: &[(u64, u16, Vec<Payload>)],
    right: &[(u64, u16, Vec<Payload>)],
    exec: u16,
    n_exec: u16,
) -> (u64, u64) {
    let mut key_bucket: HashMap<Key, usize> = HashMap::new();
    for (_, _, recs) in left.iter().chain(right.iter()) {
        for r in recs {
            let next = key_bucket.len();
            key_bucket.entry(r.shuffle_key()).or_insert(next);
        }
    }
    let mut records = 0u64;
    let mut bytes = 0u64;
    for (_, origin, recs) in left.iter().chain(right.iter()) {
        for r in recs {
            let reducer = (key_bucket[&r.shuffle_key()] % n_exec as usize) as u16;
            let crossing = if *origin == exec {
                reducer != exec
            } else {
                reducer == exec
            };
            if crossing {
                records += 1;
                bytes += r.model_bytes();
            }
        }
    }
    (records, bytes)
}
