//! The three benchmark workloads, each driven on one thread through the
//! system's public entry points.
//!
//! | workload | store | what does the work |
//! |---|---|---|
//! | `fabric_fanin` | 4-shard `StoreFabric` via `run_fabric_round` | fabric, service, protocol, runtime, simnet |
//! | `conflict_churn` | in-process `CentralStore` | reconciliation engine, catalogue retrieval over a long history |
//! | `ingest_restart` | WAL-backed `CentralStore` | publish, WAL append and sync, snapshot, recovery |
//!
//! Inputs come from the seed alone. Transactions are generated one at a time
//! against the participant's live instance and executed immediately
//! (`next_transaction` then `execute`), never with `next_batch`, which clones
//! the whole instance per call.
//!
//! A run goes through five phases — setup, run, verify, recovery, teardown —
//! each a root span when a probe is attached. Setup is repeated and its
//! median reported; so is verification, which is read-only.

use crate::probe::{attribute, enter, Probe, ProbeHandle};
use crate::timed_store::{Method, StoreCounters, TimedStore};
use orchestra::{CdssSystem, ParticipantConfig, ReconcileReport};
use orchestra_model::schema::bioinformatics_schema;
use orchestra_model::{ParticipantId, TransactionId, TrustPolicy};
use orchestra_obs::{MetricsRegistry, Obs, Tracer};
use orchestra_storage::Result;
use orchestra_store::{
    CentralStore, Codec, FabricConfig, FileWalBackend, FlushPolicy, ServiceConfig, StoreFabric,
    UpdateStore, WalOptions,
};
use orchestra_workload::{
    mutual_trust_policies, zipf_fanin_policies, SwissProtPools, WorkloadConfig, WorkloadGenerator,
};
use rustc_hash::FxHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf fan-in confederation on a 4-shard store fabric.
    FabricFanin,
    /// Mutual-trust conflict churn over a long in-process history.
    ConflictChurn,
    /// Insert-heavy ingest on a WAL-backed store, then crash and recover.
    IngestRestart,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] =
        [Workload::FabricFanin, Workload::ConflictChurn, Workload::IngestRestart];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricFanin => "fabric_fanin",
            Workload::ConflictChurn => "conflict_churn",
            Workload::IngestRestart => "ingest_restart",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::reduced`] keeps the same shape for tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Confederation size.
    pub participants: usize,
    /// Publish rounds.
    pub rounds: usize,
    /// Transactions each participant executes per round.
    pub transactions_per_round: usize,
    /// Reconcile stagger: participant `idx` reconciles every
    /// `1 + idx % max_reconcile_interval` rounds (`conflict_churn`,
    /// `fabric_fanin`), or when `(round + idx) % max_reconcile_interval == 0`
    /// (`ingest_restart`, a quarter per round at 4).
    pub max_reconcile_interval: usize,
    /// Resolve deferred conflicts every this many rounds (0 = never).
    pub resolve_every: usize,
    /// Publishers each participant trusts (Zipf fan-in workloads).
    pub trusted_publishers: usize,
    /// Take a compacting snapshot every this many rounds (0 = never).
    pub snapshot_every: usize,
    /// Generator parameters.
    pub workload: WorkloadConfig,
    /// Per-shard admission cap of the fabric services.
    pub max_open_sessions: usize,
    /// Setup repetitions; the median is reported. Setup takes micro- to
    /// milliseconds, so it is repeated until a sample spends a few hundred
    /// milliseconds on it: the host's speed swings from second to second,
    /// and a short measurement inherits whichever swing it lands in.
    pub setup_repeats: usize,
    /// Verification repetitions (read-only), for the same reason; the
    /// median is reported.
    pub verify_repeats: usize,
    /// Participants re-reconciled by the quiescence check (every n-th).
    pub quiescence_stride: usize,
}

/// The fabric's shard count.
pub const FABRIC_SHARDS: usize = 4;
/// Zipf exponent of publisher popularity in the fan-in workloads.
pub const FANIN_ZIPF_S: f64 = 1.1;

impl Sizes {
    /// The measured sizes.
    pub fn full(workload: Workload) -> Sizes {
        match workload {
            Workload::FabricFanin => Sizes {
                participants: 512,
                rounds: 3,
                transactions_per_round: 1,
                max_reconcile_interval: 3,
                resolve_every: 0,
                trusted_publishers: 8,
                snapshot_every: 0,
                workload: insert_only(4, 1 << 18),
                max_open_sessions: 128,
                setup_repeats: 101,
                verify_repeats: 1,
                quiescence_stride: 0,
            },
            Workload::ConflictChurn => Sizes {
                participants: 16,
                rounds: 200,
                transactions_per_round: 2,
                max_reconcile_interval: 6,
                resolve_every: 4,
                trusted_publishers: 15,
                snapshot_every: 0,
                workload: WorkloadConfig {
                    transaction_size: 1,
                    key_universe: 800,
                    function_pool: 400,
                    value_zipf_exponent: 1.5,
                    key_zipf_exponent: 0.9,
                    xref_mean: 7.3,
                },
                max_open_sessions: 0,
                setup_repeats: 3001,
                verify_repeats: 25,
                quiescence_stride: 5,
            },
            Workload::IngestRestart => Sizes {
                participants: 128,
                rounds: 32,
                transactions_per_round: 1,
                max_reconcile_interval: 4,
                resolve_every: 0,
                trusted_publishers: 1,
                snapshot_every: 8,
                workload: insert_only(8, 1 << 19),
                max_open_sessions: 0,
                setup_repeats: 301,
                verify_repeats: 1,
                quiescence_stride: 0,
            },
        }
    }

    /// The same shapes at test scale.
    pub fn reduced(workload: Workload) -> Sizes {
        let mut sizes = Sizes::full(workload);
        match workload {
            Workload::FabricFanin => {
                sizes.participants = 48;
                sizes.max_open_sessions = 8;
                sizes.workload.key_universe = 1 << 12;
            }
            Workload::ConflictChurn => {
                sizes.participants = 6;
                sizes.rounds = 40;
            }
            Workload::IngestRestart => {
                sizes.participants = 24;
                sizes.rounds = 12;
                sizes.snapshot_every = 4;
                sizes.workload.key_universe = 1 << 12;
            }
        }
        sizes.setup_repeats = 1;
        sizes.verify_repeats = 1;
        sizes
    }
}

/// Insert-only transactions of `size` updates over a uniform universe of
/// `keys` keys (no cross-references).
fn insert_only(size: usize, keys: usize) -> WorkloadConfig {
    WorkloadConfig {
        transaction_size: size,
        key_universe: keys,
        function_pool: 500,
        value_zipf_exponent: 1.5,
        key_zipf_exponent: 0.0,
        xref_mean: 0.0,
    }
}

/// How inputs are generated: the benchmark's clone-free path, or the
/// `next_batch` path the system's own scenarios use (kept to prove the two
/// reach the same decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// `next_transaction` against the live instance, then `execute`.
    Interleaved,
    /// `next_batch` against a cloned instance, then `execute` each.
    Batched,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Sizes.
    pub sizes: Sizes,
    /// Wrap the store and record spans.
    pub traced: bool,
    /// Input generation path.
    pub generation: Generation,
    /// Directory for durable stores (created and removed by the run).
    pub scratch: PathBuf,
    /// When the process started (for `total_s`).
    pub started: Instant,
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Order-invariant hash of every participant's accepted and rejected
    /// sets.
    pub fingerprint: u64,
    /// Operations attempted: executes, publishes, sessions, resolutions,
    /// recoveries.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs; zero where a layer is not used).
    pub layers: BTreeMap<String, f64>,
    /// Outputs that must be identical across runs of one seed.
    pub stable: BTreeMap<&'static str, String>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Registry counters the system filled.
    pub registry: BTreeMap<String, u64>,
    /// The benchmark-side trace, v1 text format (traced runs).
    pub trace: Option<String>,
}

/// End-to-end metrics every run reports.
pub const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "total_s",
    "publish_updates_per_s",
    "reconcile_sessions_per_s",
    "verify_s",
    "peak_rss_mib",
];

/// Per-layer metrics every traced run reports (zero where a layer is not
/// exercised by the workload).
pub const LAYER_METRICS: [&str; 62] = [
    "workload.prepare_s",
    "workload.generate_s",
    "workload.updates",
    "orchestra.execute_s",
    "orchestra.publish_s",
    "orchestra.reconcile_s",
    "orchestra.resolve_s",
    "orchestra.sessions",
    "orchestra.reconcile_other_s",
    "recon.engine_s",
    "recon.accepted",
    "recon.rejected",
    "recon.deferred",
    "recon.accept_ratio",
    "store.publish_s",
    "store.publish_calls",
    "store.begin_s",
    "store.begin_calls",
    "store.next_batch_s",
    "store.next_batch_calls",
    "store.commit_s",
    "store.commit_calls",
    "store.read_s",
    "store.read_calls",
    "store.other_s",
    "store.other_calls",
    "store.candidates",
    "fabric.publish_round_s",
    "fabric.reconcile_round_s",
    "fabric.round_other_s",
    "fabric.requests.shard0",
    "fabric.requests.shard1",
    "fabric.requests.shard2",
    "fabric.requests.shard3",
    "fabric.busy.shard0",
    "fabric.busy.shard1",
    "fabric.busy.shard2",
    "fabric.busy.shard3",
    "fabric.frames.shard0",
    "fabric.frames.shard1",
    "fabric.frames.shard2",
    "fabric.frames.shard3",
    "fabric.shed_skew",
    "fabric.batching_factor",
    "fabric.virtual_session_p50_ms",
    "fabric.virtual_session_p99_ms",
    "net.bytes_per_session",
    "storage.wal_records",
    "storage.wal_bytes",
    "storage.wal_bytes_per_update",
    "storage.sync_s",
    "storage.snapshot_s",
    "storage.snapshot_bytes",
    "storage.recover_s",
    "storage.decode_s",
    "metrics.state_ratio_s",
    "phase.setup_s",
    "phase.run_s",
    "phase.verify_s",
    "phase.recovery_s",
    "phase.teardown_s",
    "phase.unattributed_s",
];

/// Per-layer metrics `run.py` derives across samples rather than reading
/// from one traced sample: the tracing overhead, and the in-process session
/// latencies, which come from the untraced samples.
pub const DERIVED_LAYER_METRICS: [&str; 3] =
    ["trace.overhead_s", "orchestra.session_p50_ms", "orchestra.session_p99_ms"];

/// Runs one workload once.
pub fn run(config: &RunConfig) -> Outcome {
    let probe: ProbeHandle = if config.traced { Some(Probe::new()) } else { None };
    let mut ctx = Ctx::new(probe.clone());
    match (config.workload, config.traced) {
        (Workload::FabricFanin, _) => fabric_fanin(config, &mut ctx),
        (_, false) => in_process(config, &mut ctx, |dir, obs| open_central(config, dir, obs)),
        (_, true) => in_process(config, &mut ctx, |dir, obs| {
            Ok(TimedStore::new(open_central(config, dir, obs)?, probe.clone()))
        }),
    }
    ctx.finish(config)
}

/// The in-process workloads' store: ephemeral for `conflict_churn`; for
/// `ingest_restart` durable in `dir` with the binary codec, per-participant
/// segments and the `OsBuffered` flush policy (the run syncs every round).
fn open_central(config: &RunConfig, dir: &Path, obs: &Obs) -> Result<CentralStore> {
    if config.workload != Workload::IngestRestart {
        return Ok(CentralStore::new(bioinformatics_schema()));
    }
    let options = WalOptions { codec: Codec::Binary, per_shard: true };
    let store = CentralStore::durable_with(bioinformatics_schema(), dir, options)?;
    wal(&store).set_flush_policy(FlushPolicy::OsBuffered);
    wal(&store).set_observability(obs);
    Ok(store)
}

/// The WAL of a durable central store.
fn wal(store: &CentralStore) -> &FileWalBackend {
    store.catalog().durability().file_backend().expect("ingest_restart opens a durable store")
}

/// A central store, bare on untraced samples and behind the timing wrapper
/// on traced ones.
trait Central: UpdateStore {
    fn central(&self) -> &CentralStore;

    fn counters(&self) -> Option<Arc<StoreCounters>> {
        None
    }
}

impl Central for CentralStore {
    fn central(&self) -> &CentralStore {
        self
    }
}

impl Central for TimedStore<CentralStore> {
    fn central(&self) -> &CentralStore {
        self.inner()
    }

    fn counters(&self) -> Option<Arc<StoreCounters>> {
        Some(TimedStore::counters(self))
    }
}

/// State shared by every workload driver: the probe, the operation
/// counters, and the accumulators the metrics are computed from.
struct Ctx {
    probe: ProbeHandle,
    obs: Obs,
    out: Outcome,
    prepare: Duration,
    setup_samples: Vec<f64>,
    verify_samples: Vec<f64>,
    published_updates: u64,
    publish_wall: Duration,
    sessions: u64,
    reconcile_wall: Duration,
    session_ms: Vec<f64>,
    engine: Duration,
    accepted: u64,
    rejected: u64,
    deferred: u64,
    updates_generated: u64,
    store_counters: Option<Arc<StoreCounters>>,
}

impl Ctx {
    fn new(probe: ProbeHandle) -> Ctx {
        Ctx {
            probe,
            // The system's own tracer stays off: the fabric driver rebinds
            // the tracer it is given to its virtual clock, and the
            // benchmark's spans are wall-clock. The registry fills either
            // way.
            obs: Obs { tracer: Tracer::disabled(), metrics: MetricsRegistry::new() },
            out: Outcome::default(),
            prepare: Duration::ZERO,
            setup_samples: Vec::new(),
            verify_samples: Vec::new(),
            published_updates: 0,
            publish_wall: Duration::ZERO,
            sessions: 0,
            reconcile_wall: Duration::ZERO,
            session_ms: Vec::new(),
            engine: Duration::ZERO,
            accepted: 0,
            rejected: 0,
            deferred: 0,
            updates_generated: 0,
            store_counters: None,
        }
    }

    /// Counts one operation and its outcome.
    fn op<T>(&mut self, result: Result<T>) -> Option<T> {
        self.out.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.out.failed += 1;
                eprintln!("operation failed: {error}");
                None
            }
        }
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.out.checks.push(Check { name: name.to_string(), ok, detail });
    }

    fn absorb_report(&mut self, report: &ReconcileReport) {
        self.engine += report.timing.local;
        self.accepted += report.accepted.len() as u64;
        self.rejected += report.rejected.len() as u64;
        self.deferred += report.deferred.len() as u64;
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.out.layers.insert(name.to_string(), value);
    }

    fn finish(mut self, config: &RunConfig) -> Outcome {
        let total = config.started.elapsed().as_secs_f64();
        let e2e = &mut self.out.e2e;
        e2e.insert("setup_s", median(&self.setup_samples));
        e2e.insert("total_s", total);
        e2e.insert(
            "publish_updates_per_s",
            self.published_updates as f64 / self.publish_wall.as_secs_f64().max(1e-9),
        );
        e2e.insert(
            "reconcile_sessions_per_s",
            self.sessions as f64 / self.reconcile_wall.as_secs_f64().max(1e-9),
        );
        e2e.insert("verify_s", median(&self.verify_samples));
        e2e.insert("peak_rss_mib", peak_rss_mib());
        // Per-session wall latency of the in-process workloads (zero on the
        // fabric, whose sessions interleave on a virtual clock); `run.py`
        // reports these as per-layer figures.
        e2e.insert("reconcile_p50_ms", percentile(&self.session_ms, 0.50));
        e2e.insert("reconcile_p99_ms", percentile(&self.session_ms, 0.99));

        self.out.stable.insert("published_updates", self.published_updates.to_string());
        self.out.stable.insert("sessions", self.sessions.to_string());
        self.out
            .stable
            .insert("decisions", format!("{}/{}/{}", self.accepted, self.rejected, self.deferred));
        for (key, value) in self.obs.metrics.snapshot().counters {
            self.out.registry.insert(key, value);
        }

        if let Some(probe) = self.probe.take() {
            self.fill_layers(&probe);
            self.out.trace = Some(probe.export());
        }
        self.out
    }

    fn fill_layers(&mut self, probe: &Probe) {
        for name in LAYER_METRICS {
            self.out.layers.entry(name.to_string()).or_insert(0.0);
        }
        let attribution = attribute(&probe.events());
        let secs = |map: &BTreeMap<String, u64>, name: &str| {
            map.get(name).copied().unwrap_or(0) as f64 / 1e6
        };
        let inclusive = |name: &str| secs(&attribution.inclusive_us, name);
        let own = |name: &str| secs(&attribution.self_us, name);

        let engine = self.engine.as_secs_f64();
        self.layer("workload.prepare_s", self.prepare.as_secs_f64());
        self.layer("workload.generate_s", inclusive("workload.generate"));
        self.layer("workload.updates", self.updates_generated as f64);
        self.layer("orchestra.execute_s", inclusive("orchestra.execute"));
        self.layer("orchestra.publish_s", inclusive("orchestra.publish"));
        self.layer("orchestra.reconcile_s", inclusive("orchestra.reconcile"));
        self.layer("orchestra.resolve_s", inclusive("orchestra.resolve"));
        self.layer("orchestra.sessions", self.sessions as f64);
        if attribution.count.contains_key("orchestra.reconcile") {
            self.layer("orchestra.reconcile_other_s", own("orchestra.reconcile") - engine);
        }
        self.layer("recon.engine_s", engine);
        self.layer("recon.accepted", self.accepted as f64);
        self.layer("recon.rejected", self.rejected as f64);
        self.layer("recon.deferred", self.deferred as f64);
        let considered = self.accepted + self.rejected + self.deferred;
        self.layer("recon.accept_ratio", self.accepted as f64 / considered.max(1) as f64);
        if let Some(counters) = self.store_counters.clone() {
            for method in Method::ALL {
                self.layer(&format!("store.{}_s", method.stem()), counters.seconds(method));
                self.layer(
                    &format!("store.{}_calls", method.stem()),
                    counters.calls(method) as f64,
                );
            }
            self.layer("store.candidates", counters.candidates() as f64);
        }
        if attribution.count.contains_key("fabric.reconcile_round") {
            self.layer("fabric.publish_round_s", inclusive("fabric.publish_round"));
            self.layer("fabric.reconcile_round_s", inclusive("fabric.reconcile_round"));
            self.layer("fabric.round_other_s", inclusive("fabric.reconcile_round") - engine);
        }
        self.layer("storage.sync_s", inclusive("storage.sync"));
        self.layer("storage.snapshot_s", inclusive("storage.snapshot"));
        self.layer("storage.recover_s", inclusive("storage.recover"));
        self.layer("storage.decode_s", inclusive("storage.decode"));
        self.layer("metrics.state_ratio_s", inclusive("metrics.state_ratio"));

        // Phase walls and the residual: each phase's wall time splits into
        // the self times of the spans under it plus its own self time.
        let mut unattributed = 0.0;
        let mut sums_hold = attribution.misnested == 0;
        for phase in ["setup", "run", "verify", "recovery", "teardown"] {
            let span = format!("phase.{phase}");
            let Some((wall, parts)) = attribution.phases.get(&span) else { continue };
            let residual = parts.get(&span).copied().unwrap_or(0);
            sums_hold &= parts.values().sum::<u64>() == *wall;
            self.layer(&format!("phase.{phase}_s"), *wall as f64 / 1e6);
            unattributed += residual as f64 / 1e6;
        }
        self.layer("phase.unattributed_s", unattributed);
        let detail = attribution
            .phases
            .iter()
            .map(|(phase, (wall, parts))| {
                let parts: Vec<String> =
                    parts.iter().map(|(name, us)| format!("{name}={us}us")).collect();
                format!("{phase} wall={wall}us [{}]", parts.join(" "))
            })
            .collect::<Vec<_>>()
            .join("; ");
        self.check("layer_self_times_sum_to_phase_wall", sums_hold, detail);
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values; 0 when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Order-invariant hash of every participant's accepted and rejected sets.
fn decision_fingerprint<S: UpdateStore + ?Sized>(store: &S, ids: &[ParticipantId]) -> u64 {
    let mut combined = 0u64;
    for &id in ids {
        let mut hasher = FxHasher::default();
        id.as_u32().hash(&mut hasher);
        for decisions in [store.accepted_set(id), store.rejected_set(id)] {
            let mut sorted: Vec<TransactionId> = decisions.iter().copied().collect();
            sorted.sort();
            sorted.hash(&mut hasher);
        }
        combined = combined.wrapping_add(hasher.finish());
    }
    combined
}

/// One generator per participant, sharing one pool set.
fn generators(sizes: &Sizes, seed: u64, ids: &[ParticipantId]) -> Vec<WorkloadGenerator> {
    let pools =
        Arc::new(SwissProtPools::new(sizes.workload.key_universe, sizes.workload.function_pool));
    ids.iter()
        .map(|id| {
            WorkloadGenerator::with_shared_pools(
                sizes.workload.clone(),
                Arc::clone(&pools),
                seed.wrapping_add(u64::from(id.as_u32()) * 6151),
            )
        })
        .collect()
}

fn policies(workload: Workload, sizes: &Sizes, seed: u64) -> Vec<TrustPolicy> {
    match workload {
        Workload::ConflictChurn => mutual_trust_policies(sizes.participants, 1),
        Workload::FabricFanin | Workload::IngestRestart => zipf_fanin_policies(
            sizes.participants,
            sizes.trusted_publishers,
            FANIN_ZIPF_S,
            seed.wrapping_add(0x9e37_79b9),
        ),
    }
}

/// Generates and executes each participant's transactions for one round,
/// adding the updates executed to the participant's `pending` count.
fn execute_round<S: UpdateStore>(
    ctx: &mut Ctx,
    system: &mut CdssSystem<S>,
    generators: &mut [WorkloadGenerator],
    ids: &[ParticipantId],
    transactions: usize,
    generation: Generation,
    pending: &mut [u64],
) {
    for (idx, &id) in ids.iter().enumerate() {
        match generation {
            Generation::Interleaved => {
                for _ in 0..transactions {
                    let updates = {
                        let _span = enter(&ctx.probe, "workload.generate");
                        let instance = system.participant(id).expect("registered").instance();
                        generators[idx].next_transaction(id, instance)
                    };
                    if !updates.is_empty() {
                        execute(ctx, system, id, updates, &mut pending[idx]);
                    }
                }
            }
            Generation::Batched => {
                let batch = {
                    let _span = enter(&ctx.probe, "workload.generate");
                    let instance = system.participant(id).expect("registered").instance();
                    generators[idx].next_batch(id, instance, transactions)
                };
                for updates in batch {
                    execute(ctx, system, id, updates, &mut pending[idx]);
                }
            }
        }
    }
}

fn execute<S: UpdateStore>(
    ctx: &mut Ctx,
    system: &mut CdssSystem<S>,
    id: ParticipantId,
    updates: Vec<orchestra_model::Update>,
    pending: &mut u64,
) {
    let count = updates.len() as u64;
    ctx.updates_generated += count;
    let result = {
        let _span = enter(&ctx.probe, "orchestra.execute");
        system.execute(id, updates)
    };
    if ctx.op(result).is_some() {
        *pending += count;
    }
}

fn due(ids: &[ParticipantId], round: usize, sizes: &Sizes, quarter: bool) -> Vec<ParticipantId> {
    ids.iter()
        .enumerate()
        .filter(|(idx, _)| {
            if quarter {
                (round + idx).is_multiple_of(sizes.max_reconcile_interval)
            } else {
                let interval = 1 + idx % sizes.max_reconcile_interval.max(1);
                (round + idx).is_multiple_of(interval)
            }
        })
        .map(|(_, &id)| id)
        .collect()
}

/// Times `repeats` runs of `make`, keeping the last result; the samples go
/// to `setup_s`. Before each attempt, outside the timed window, the previous
/// attempt's system is dropped and `reset` clears what it left behind.
fn timed_setup<T>(
    ctx: &mut Ctx,
    repeats: usize,
    mut reset: impl FnMut(),
    mut make: impl FnMut() -> T,
) -> T {
    let probe = ctx.probe.clone();
    let _phase = enter(&probe, "phase.setup");
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        {
            let _span = enter(&probe, "orchestra.teardown");
            drop(kept.take());
            reset();
        }
        let start = Instant::now();
        let made = {
            let _span = enter(&probe, "orchestra.setup");
            make()
        };
        ctx.setup_samples.push(start.elapsed().as_secs_f64());
        kept = Some(made);
    }
    kept.expect("at least one setup")
}

fn register<S: UpdateStore>(system: &mut CdssSystem<S>, policies: &[TrustPolicy]) {
    for policy in policies {
        system
            .add_participant(ParticipantConfig::new(policy.clone()))
            .expect("participant ids are unique");
    }
}

/// Verification: the paper's state ratio plus the decision fingerprint,
/// repeated (both are read-only) with the median reported.
fn verify<S: UpdateStore>(
    ctx: &mut Ctx,
    system: &CdssSystem<S>,
    ids: &[ParticipantId],
    repeats: usize,
) {
    let mut ratio = 0.0;
    let mut fingerprint = 0;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        ratio = {
            let _span = enter(&ctx.probe, "metrics.state_ratio");
            system.state_ratio_for("Function")
        };
        fingerprint = {
            let _span = enter(&ctx.probe, "verify.fingerprint");
            decision_fingerprint(system.store(), ids)
        };
        ctx.verify_samples.push(start.elapsed().as_secs_f64());
    }
    ctx.out.fingerprint = fingerprint;
    ctx.out.stable.insert("fingerprint", format!("{fingerprint:016x}"));
    ctx.out.stable.insert("state_ratio", format!("{ratio}"));
}

/// Per-shard and network totals over a run's fabric rounds.
#[derive(Default)]
struct FabricTotals {
    requests: [u64; FABRIC_SHARDS],
    busy: [u64; FABRIC_SHARDS],
    frames: [u64; FABRIC_SHARDS],
    batches: u64,
    net_bytes: u64,
    latencies_us: Vec<u64>,
}

impl FabricTotals {
    fn absorb(&mut self, report: &orchestra::FabricDriveReport) {
        for (shard, stats) in report.shard_stats.iter().enumerate() {
            self.requests[shard] += stats.requests;
            self.busy[shard] += stats.busy_rejections;
            self.batches += stats.batches;
        }
        for (shard, frames) in report.shard_frames.iter().enumerate() {
            self.frames[shard] += frames;
        }
        self.net_bytes += report.net.bytes;
        self.latencies_us.extend_from_slice(&report.latencies_us);
    }
}

fn fabric_fanin(config: &RunConfig, ctx: &mut Ctx) {
    let probe = ctx.probe.clone();
    let sizes = &config.sizes;
    let prepare = Instant::now();
    let policies = policies(config.workload, sizes, config.seed);
    let ids: Vec<ParticipantId> = policies.iter().map(TrustPolicy::owner).collect();
    let mut generators = generators(sizes, config.seed, &ids);
    ctx.prepare = prepare.elapsed();
    let fabric_config = FabricConfig {
        shards: FABRIC_SHARDS,
        service: ServiceConfig {
            workers: 8,
            inbox_capacity: 128,
            max_open_sessions: sizes.max_open_sessions,
            max_batch: 16,
            frame_latency_us: 500,
            store_latency_us: 1_000,
            ..ServiceConfig::default()
        },
    };

    let obs = ctx.obs.clone();
    let mut system = timed_setup(
        ctx,
        sizes.setup_repeats,
        || {},
        || {
            let fabric = StoreFabric::new(bioinformatics_schema(), FABRIC_SHARDS);
            let mut system = CdssSystem::new(bioinformatics_schema(), fabric);
            system.set_observability(&obs);
            register(&mut system, &policies);
            system
        },
    );

    let mut pending = vec![0u64; ids.len()];
    let mut totals = FabricTotals::default();
    {
        let _phase = enter(&probe, "phase.run");
        for round in 0..sizes.rounds {
            execute_round(
                ctx,
                &mut system,
                &mut generators,
                &ids,
                sizes.transactions_per_round,
                config.generation,
                &mut pending,
            );
            let start = Instant::now();
            let result = {
                let _span = enter(&probe, "fabric.publish_round");
                system.run_fabric_round(&ids, &[], &fabric_config)
            };
            ctx.publish_wall += start.elapsed();
            ctx.out.attempted += ids.len() as u64;
            match result {
                Ok(report) => {
                    for (id, epoch) in &report.published {
                        if epoch.is_some() {
                            let idx = (id.as_u32() - 1) as usize;
                            ctx.published_updates += std::mem::take(&mut pending[idx]);
                        }
                    }
                    totals.absorb(&report);
                }
                Err(error) => {
                    eprintln!("fabric publish round failed: {error}");
                    ctx.out.failed += ids.len() as u64;
                }
            }
            let wave = due(&ids, round, sizes, false);
            fabric_reconcile(ctx, &mut system, &wave, &fabric_config, &mut totals);
        }
        // Catch-up wave: everyone reconciles once more.
        fabric_reconcile(ctx, &mut system, &ids, &fabric_config, &mut totals);
    }

    {
        let _phase = enter(&probe, "phase.verify");
        verify(ctx, &system, &ids, sizes.verify_repeats);
    }
    {
        let _phase = enter(&probe, "phase.teardown");
        let _span = enter(&probe, "orchestra.teardown");
        drop(system);
    }

    let virtual_ms: Vec<f64> = totals.latencies_us.iter().map(|&us| us as f64 / 1e3).collect();
    let p50 = percentile(&virtual_ms, 0.50);
    let p99 = percentile(&virtual_ms, 0.99);
    let bytes_per_session = totals.net_bytes as f64 / ctx.sessions.max(1) as f64;
    ctx.out.stable.insert("virtual_session_p50_ms", format!("{p50}"));
    ctx.out.stable.insert("virtual_session_p99_ms", format!("{p99}"));
    ctx.out.stable.insert("shard_busy", format!("{:?}", totals.busy));
    ctx.out.stable.insert("net_bytes_per_session", format!("{bytes_per_session}"));
    if probe.is_some() {
        for shard in 0..FABRIC_SHARDS {
            ctx.layer(&format!("fabric.requests.shard{shard}"), totals.requests[shard] as f64);
            ctx.layer(&format!("fabric.busy.shard{shard}"), totals.busy[shard] as f64);
            ctx.layer(&format!("fabric.frames.shard{shard}"), totals.frames[shard] as f64);
        }
        let mean_busy = totals.busy.iter().sum::<u64>() as f64 / FABRIC_SHARDS as f64;
        let max_busy = totals.busy.iter().copied().max().unwrap_or(0) as f64;
        ctx.layer("fabric.shed_skew", if mean_busy > 0.0 { max_busy / mean_busy } else { 0.0 });
        let requests: u64 = totals.requests.iter().sum();
        ctx.layer("fabric.batching_factor", requests as f64 / totals.batches.max(1) as f64);
        ctx.layer("fabric.virtual_session_p50_ms", p50);
        ctx.layer("fabric.virtual_session_p99_ms", p99);
        ctx.layer("net.bytes_per_session", bytes_per_session);
    }
}

/// One fabric reconcile round over `due`. A shed the fabric client retried
/// is not a failure; a round that errors fails every session in it.
fn fabric_reconcile(
    ctx: &mut Ctx,
    system: &mut CdssSystem<StoreFabric>,
    due: &[ParticipantId],
    fabric_config: &FabricConfig,
    totals: &mut FabricTotals,
) {
    let start = Instant::now();
    let result = {
        let _span = enter(&ctx.probe, "fabric.reconcile_round");
        system.run_fabric_round(&[], due, fabric_config)
    };
    ctx.reconcile_wall += start.elapsed();
    ctx.out.attempted += due.len() as u64;
    match result {
        Ok(report) => {
            ctx.sessions += report.results.len() as u64;
            for (_, session) in &report.results {
                ctx.absorb_report(session);
            }
            totals.absorb(&report);
        }
        Err(error) => {
            eprintln!("fabric reconcile round failed: {error}");
            ctx.out.failed += due.len() as u64;
        }
    }
}

/// The two in-process workloads. `make_store` builds a store in a given
/// directory (ignored by the ephemeral workload).
fn in_process<S: Central>(
    config: &RunConfig,
    ctx: &mut Ctx,
    make_store: impl Fn(&Path, &Obs) -> Result<S>,
) {
    let probe = ctx.probe.clone();
    let sizes = &config.sizes;
    let durable = config.workload == Workload::IngestRestart;
    let prepare = Instant::now();
    let policies = policies(config.workload, sizes, config.seed);
    let ids: Vec<ParticipantId> = policies.iter().map(TrustPolicy::owner).collect();
    let mut generators = generators(sizes, config.seed, &ids);
    ctx.prepare = prepare.elapsed();

    let obs = ctx.obs.clone();
    // One directory serves every setup attempt: the previous attempt's
    // store is dropped and its files removed before the next one opens.
    let dir = config.scratch.join("store");
    let reset = || {
        if durable {
            std::fs::remove_dir_all(&dir).ok();
        }
    };
    let mut system = timed_setup(ctx, sizes.setup_repeats, reset, || {
        let store = make_store(&dir, &obs).expect("store opens");
        let mut system = CdssSystem::new(bioinformatics_schema(), store);
        system.set_observability(&obs);
        register(&mut system, &policies);
        system
    });
    ctx.store_counters = system.store().counters();

    let mut pending = vec![0u64; ids.len()];
    let mut wal_bytes_closed = 0u64;
    let mut wal_records_closed = 0u64;
    let mut snapshot_bytes = 0u64;
    {
        let _phase = enter(&probe, "phase.run");
        for round in 0..sizes.rounds {
            // `conflict_churn` interleaves per participant (the `churn`
            // schedule); `ingest_restart` has everyone publish, then a
            // quarter reconcile.
            let wave = due(&ids, round, sizes, durable);
            for (idx, &id) in ids.iter().enumerate() {
                execute_round(
                    ctx,
                    &mut system,
                    &mut generators[idx..=idx],
                    &[id],
                    sizes.transactions_per_round,
                    config.generation,
                    &mut pending[idx..=idx],
                );
                publish(ctx, &mut system, id, &mut pending[idx]);
                if durable {
                    continue;
                }
                if wave.contains(&id) {
                    reconcile(ctx, &mut system, id);
                }
                if sizes.resolve_every > 0 && (round + idx) % sizes.resolve_every == 0 {
                    resolve(ctx, &mut system, id);
                }
            }
            if durable {
                for &id in &wave {
                    reconcile(ctx, &mut system, id);
                }
                let backend = wal(system.store().central());
                let synced = {
                    let _span = enter(&ctx.probe, "storage.sync");
                    backend.sync()
                };
                ctx.op(synced);
                let last = round + 1 == sizes.rounds;
                if sizes.snapshot_every > 0 && (round + 1) % sizes.snapshot_every == 0 && !last {
                    wal_bytes_closed += backend.wal_bytes();
                    wal_records_closed += backend.wal_records();
                    let snapped = {
                        let _span = enter(&ctx.probe, "storage.snapshot");
                        system.store().central().snapshot()
                    };
                    if ctx.op(snapped).is_some() {
                        snapshot_bytes +=
                            std::fs::metadata(orchestra_storage::snapshot::snapshot_path(&dir))
                                .map_or(0, |m| m.len());
                    }
                }
            }
        }
        if !durable {
            // Final catch-up so every participant observes the whole
            // history.
            for &id in &ids {
                reconcile(ctx, &mut system, id);
            }
        }
    }

    {
        let _phase = enter(&probe, "phase.verify");
        verify(ctx, &system, &ids, sizes.verify_repeats);
        if sizes.quiescence_stride > 0 {
            quiescence_check(ctx, &mut system, &ids, sizes.quiescence_stride);
        }
    }

    if !durable {
        let _phase = enter(&probe, "phase.teardown");
        let _span = enter(&probe, "orchestra.teardown");
        drop(system);
        return;
    }

    // Crash: capture what recovery must reproduce, then drop the store.
    let backend = wal(system.store().central());
    let wal_bytes = wal_bytes_closed + backend.wal_bytes();
    let wal_records = wal_records_closed + backend.wal_records();
    let generation = backend.generation();
    let per_shard = backend.per_shard();
    let before = durable_view(system.store().central(), &ids);
    {
        let _phase = enter(&probe, "phase.teardown");
        let _span = enter(&probe, "orchestra.teardown");
        drop(system);
    }
    let per_update = wal_bytes as f64 / ctx.published_updates.max(1) as f64;
    ctx.out.stable.insert("wal_bytes_per_update", format!("{per_update}"));
    ctx.out.stable.insert("flush_policy", "OsBuffered+sync_per_round".to_string());
    if ctx.probe.is_some() {
        ctx.layer("storage.wal_records", wal_records as f64);
        ctx.layer("storage.wal_bytes", wal_bytes as f64);
        ctx.layer("storage.wal_bytes_per_update", per_update);
        ctx.layer("storage.snapshot_bytes", snapshot_bytes as f64);
    }

    let recovered = {
        let _phase = enter(&probe, "phase.recovery");
        let decoded = {
            let _span = enter(&ctx.probe, "storage.decode");
            orchestra_storage::segment::SegmentedWal::open(&dir, generation, None, per_shard)
                .map(|(_, records)| records.len())
        };
        if let Ok(records) = decoded {
            ctx.out.stable.insert("final_generation_records", records.to_string());
        }
        ctx.op(decoded);
        let recovered = {
            let _span = enter(&ctx.probe, "storage.recover");
            CentralStore::recover(&dir)
        };
        let recovered = ctx.op(recovered);
        let _span = enter(&probe, "check.recovered_state");
        let (same, detail) = match &recovered {
            Some(store) => {
                let after = durable_view(store, &ids);
                let detail = format!(
                    "log_len before={} after={}; decision sets {}",
                    before.0,
                    after.0,
                    if before.1 == after.1 { "identical" } else { "differ" }
                );
                (after == before, detail)
            }
            None => (false, "recovery failed".to_string()),
        };
        ctx.check("recovered_store_matches_pre_crash", same, detail);
        recovered
    };
    {
        let _phase = enter(&probe, "phase.teardown");
        let _span = enter(&probe, "orchestra.teardown");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

type DurableView = (usize, Vec<(Vec<TransactionId>, Vec<TransactionId>)>);

/// Log length plus every participant's sorted accepted and rejected sets.
fn durable_view(store: &CentralStore, ids: &[ParticipantId]) -> DurableView {
    let sorted = |set: Arc<rustc_hash::FxHashSet<TransactionId>>| {
        let mut ids: Vec<TransactionId> = set.iter().copied().collect();
        ids.sort();
        ids
    };
    let sets = ids
        .iter()
        .map(|&id| (sorted(store.accepted_set(id)), sorted(store.rejected_set(id))))
        .collect();
    (store.catalog().log_len(), sets)
}

fn publish<S: UpdateStore>(
    ctx: &mut Ctx,
    system: &mut CdssSystem<S>,
    id: ParticipantId,
    pending: &mut u64,
) {
    let start = Instant::now();
    let result = {
        let _span = enter(&ctx.probe, "orchestra.publish");
        system.publish(id)
    };
    ctx.publish_wall += start.elapsed();
    if let Some(Some(_epoch)) = ctx.op(result) {
        ctx.published_updates += std::mem::take(pending);
    }
}

fn reconcile<S: UpdateStore>(ctx: &mut Ctx, system: &mut CdssSystem<S>, id: ParticipantId) {
    let start = Instant::now();
    let result = {
        let _span = enter(&ctx.probe, "orchestra.reconcile");
        system.reconcile(id)
    };
    let elapsed = start.elapsed();
    ctx.reconcile_wall += elapsed;
    ctx.session_ms.push(elapsed.as_secs_f64() * 1e3);
    if let Some(report) = ctx.op(result) {
        ctx.sessions += 1;
        ctx.absorb_report(&report);
    }
}

/// Periodic curation: keep the first option of every open conflict group.
fn resolve<S: UpdateStore>(ctx: &mut Ctx, system: &mut CdssSystem<S>, id: ParticipantId) {
    let choices: Vec<orchestra_recon::ResolutionChoice> = system
        .participant(id)
        .expect("registered")
        .deferred_conflicts()
        .iter()
        .map(|group| orchestra_recon::ResolutionChoice {
            group: group.key.clone(),
            chosen_option: Some(0),
        })
        .collect();
    if choices.is_empty() {
        return;
    }
    let result = {
        let _span = enter(&ctx.probe, "orchestra.resolve");
        system.resolve_conflicts(id, &choices)
    };
    ctx.op(result);
}

/// With no new publishes, reconciling again must decide nothing.
fn quiescence_check<S: UpdateStore>(
    ctx: &mut Ctx,
    system: &mut CdssSystem<S>,
    ids: &[ParticipantId],
    stride: usize,
) {
    let probe = ctx.probe.clone();
    let _span = enter(&probe, "check.quiescence");
    let mut decided = Vec::new();
    let mut sampled = 0;
    for &id in ids.iter().step_by(stride) {
        sampled += 1;
        let result = {
            let _span = enter(&ctx.probe, "check.reconcile");
            system.reconcile(id)
        };
        if let Some(report) = ctx.op(result) {
            if !report.accepted.is_empty() || !report.rejected.is_empty() {
                decided.push(format!(
                    "p{}: +{} -{}",
                    id.as_u32(),
                    report.accepted.len(),
                    report.rejected.len()
                ));
            }
        }
    }
    let detail = if decided.is_empty() {
        format!("{sampled} participants re-reconciled, nothing decided")
    } else {
        decided.join(", ")
    };
    ctx.check("requiesced_reconcile_decides_nothing", decided.is_empty(), detail);
}
