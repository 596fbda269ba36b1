//! The sharded scheduler kernel: N independent [`SchedulerKernel`]s plus a
//! lightweight cross-shard coordinator.
//!
//! # Why sharding works for this protocol
//!
//! The paper's semantic relations (commutativity / recoverability per ADT
//! operation pair) are **per object**: classification of a request only ever
//! reads the execution log and blocked queue of the one object it targets.
//! The only truly global state is transaction-level — liveness, the
//! dependency graph, and the commit order. A [`ShardedKernel`] therefore
//! partitions the *objects* across `shards` independent kernels (hash of
//! the registration name, see [`shard_of_name`]), each with its own lock,
//! its own log index and its own local [`sbcc_graph::DependencyGraph`],
//! and keeps a small coordinator for the transaction-level pieces.
//!
//! # Sharding invariants
//!
//! 1. **Object ownership is static**: an object registered under a name
//!    lives in `shard_of_name(name, shards)` forever. Every request for it
//!    is processed under that shard's lock only.
//! 2. **Transaction ids are global**: [`ShardedKernel::begin`] assigns ids
//!    from one atomic counter; a shard *adopts* the id the first time the
//!    transaction touches one of its objects (lazy enrollment).
//! 3. **Local graphs are authoritative for intra-shard cycles**: a
//!    transaction enrolled in exactly one shard has all of its edges in
//!    that shard's graph, so the ordinary local cycle check is complete
//!    for it — **intra-shard admission takes no global lock**.
//! 4. **Cross-shard edges escalate**: the moment a transaction enrolls in
//!    a second shard, every shard it is enrolled in becomes *entangled* —
//!    its local graph is bulk-mirrored into the [`GlobalGraph`] and every
//!    subsequent edge add/remove is mirrored too (see
//!    [`SchedulerKernel::entangle`]). A cycle check that finds no local
//!    cycle in an entangled shard is re-run against the global graph,
//!    which holds the union of all entangled shards' edges. An entangled
//!    shard returns to the local-only fast path once it quiesces (no live
//!    transactions).
//!
//! ## Why the escalation rule is sound
//!
//! A cycle in the union of the local graphs either lies inside one shard
//! (caught by that shard's local check) or spans shards. A spanning cycle
//! enters and leaves each contributing shard through transactions enrolled
//! in two shards; those boundary transactions entangled every contributing
//! shard *before* the cycle's last edge could be inserted (their dual
//! enrollment precedes their edges), so by insertion time every other edge
//! of the cycle is present in the global graph and the escalated check
//! refuses the request.
//!
//! # Cross-shard termination protocol
//!
//! * **Commit** of a transaction enrolled in one shard is the unsharded
//!   fast path: the shard's own [`SchedulerKernel::commit`] decides
//!   between actual and pseudo-commit locally.
//! * **Commit** of a multi-shard transaction collects per-shard votes (the
//!   local commit-dependency out-neighbours) under the coordinator's
//!   termination lock. An empty union applies
//!   [`SchedulerKernel::commit_coordinated`] shard by shard; otherwise the
//!   transaction pseudo-commits in every shard and each shard reports
//!   (via [`SchedulerKernel::drain_coordination_ready`]) when its local
//!   out-degree drops to zero, triggering a re-vote.
//! * **Aborts** apply shard by shard; victim selection never picks a
//!   multi-shard transaction other than the requester (see
//!   [`crate::policy::VictimPolicy`] handling in the kernel), so a
//!   scheduler-initiated abort of a multi-shard transaction only ever
//!   happens on the transaction's own session thread — there is no race
//!   against a concurrent commit vote for the same transaction.
//!
//! With `shards = 1` nothing ever entangles, every transaction is
//! single-shard, and the subsystem degenerates to the unsharded kernel's
//! behaviour (the sharded-vs-single differential test suite pins this).

use crate::errors::CoreError;
use crate::events::{
    AbortReason, BatchOutcome, BatchStop, CommitOutcome, KernelEvent, RequestOutcome,
};
use crate::kernel::SchedulerKernel;
use crate::object::ObjectId;
use crate::policy::SchedulerConfig;
use crate::stats::{KernelStats, ShardStats, StatsSnapshot};
use crate::txn::{BatchCall, TxnId, TxnState};
use crate::chaos::{self, sync::Mutex, sync::MutexGuard, ChaosPoint};
use sbcc_adt::{AdtObject, AdtSpec, OpCall, SemanticObject};
use sbcc_graph::{DependencyGraph, EdgeKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable overriding the default shard count of
/// [`DatabaseConfig`] (used by CI to run the test suites single- and
/// multi-sharded). Accepts a positive integer or `auto`
/// ([`ShardCount::Auto`], one shard per available core).
pub const SHARDS_ENV: &str = "SBCC_SHARDS";

/// Environment variable enabling the write-ahead log: its value is the log
/// directory (see [`DatabaseConfig::wal_from_env`]).
pub const WAL_ENV: &str = "SBCC_WAL";

/// Environment variable overriding the WAL fsync policy
/// (`never` / `group` / `always`).
pub const WAL_FSYNC_ENV: &str = "SBCC_WAL_FSYNC";

/// Environment variable turning on **declaration by default** (`1` or
/// `true`): session-layer batches submitted without an explicit access
/// declaration derive one from their own call list (every touched object
/// declared written), routing the whole suite through the group-admission
/// path. Used by CI's `SBCC_DECLARED=1` leg; see
/// [`crate::db::Batch::declare_write`].
pub const DECLARED_ENV: &str = "SBCC_DECLARED";

/// `true` when [`DECLARED_ENV`] requests declaration-by-default. Read
/// per call (not cached) so tests can flip it; the session layer caches
/// the answer per database.
pub fn declared_from_env() -> bool {
    std::env::var(DECLARED_ENV)
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
        .unwrap_or(false)
}

/// The shard count of a [`DatabaseConfig`]: either a fixed number of
/// kernels or `Auto`, which resolves to the machine's available
/// parallelism at [`ShardedKernel::new`] time.
///
/// `Auto` is the right default for servers: with one shard per core,
/// disjoint-footprint sessions spread across per-shard locks and the
/// per-termination settle sweep only walks the shard-local live
/// population. Both builder and environment variable accept it:
///
/// ```
/// use sbcc_core::{DatabaseConfig, SchedulerConfig, ShardCount};
/// let config = DatabaseConfig::new(SchedulerConfig::default())
///     .with_shards(ShardCount::Auto);
/// assert!(config.shards.resolve() >= 1);
/// // `with_shards` still takes plain integers too:
/// let fixed = DatabaseConfig::new(SchedulerConfig::default()).with_shards(4);
/// assert_eq!(fixed.shards, ShardCount::Fixed(4));
/// assert_eq!("auto".parse::<ShardCount>(), Ok(ShardCount::Auto));
/// assert_eq!("8".parse::<ShardCount>(), Ok(ShardCount::Fixed(8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCount {
    /// Exactly this many shards ( ≥ 1 ). One shard reproduces the
    /// unsharded kernel's behaviour exactly.
    Fixed(usize),
    /// One shard per available core
    /// ([`std::thread::available_parallelism`], falling back to 1 when the
    /// platform cannot report it).
    Auto,
}

impl ShardCount {
    /// The concrete number of shards this setting stands for, resolved
    /// against the current machine.
    pub fn resolve(self) -> usize {
        match self {
            ShardCount::Fixed(n) => n,
            ShardCount::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl From<usize> for ShardCount {
    fn from(n: usize) -> Self {
        ShardCount::Fixed(n)
    }
}

impl std::fmt::Display for ShardCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCount::Fixed(n) => write!(f, "{n}"),
            ShardCount::Auto => f.write_str("auto"),
        }
    }
}

impl std::str::FromStr for ShardCount {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Ok(ShardCount::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(ShardCount::Fixed(n)),
            _ => Err(format!(
                "expected a positive shard count or \"auto\", got {s:?}"
            )),
        }
    }
}

/// Database-level configuration: the per-shard scheduler configuration plus
/// the shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseConfig {
    /// Scheduler configuration applied to every shard kernel.
    pub scheduler: SchedulerConfig,
    /// Number of independent scheduler kernels (fixed ≥ 1, or
    /// [`ShardCount::Auto`] for one per core).
    pub shards: ShardCount,
    /// Write-ahead-log configuration. `None` (the default) runs without
    /// durability; `Some` makes [`crate::Database::with_config`] replay
    /// the log directory on open and append every committed transaction's
    /// operations from then on.
    pub wal: Option<sbcc_wal::WalConfig>,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig::new(SchedulerConfig::default())
    }
}

impl DatabaseConfig {
    /// Configuration with the shard count taken from the `SBCC_SHARDS`
    /// environment variable (default 1; `auto` selects
    /// [`ShardCount::Auto`]).
    pub fn new(scheduler: SchedulerConfig) -> Self {
        DatabaseConfig {
            scheduler,
            shards: Self::shards_from_env(),
            wal: Self::wal_from_env(),
        }
    }

    /// Builder-style: set the shard count. Accepts a plain `usize` or a
    /// [`ShardCount`] (`.with_shards(ShardCount::Auto)`).
    ///
    /// # Panics
    ///
    /// Panics if the count is a fixed zero.
    pub fn with_shards(mut self, shards: impl Into<ShardCount>) -> Self {
        let shards = shards.into();
        assert!(
            shards != ShardCount::Fixed(0),
            "at least one shard is required"
        );
        self.shards = shards;
        self
    }

    /// The shard count requested through the `SBCC_SHARDS` environment
    /// variable, defaulting to one shard when unset or unparsable.
    pub fn shards_from_env() -> ShardCount {
        std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|v| v.parse::<ShardCount>().ok())
            .unwrap_or(ShardCount::Fixed(1))
    }

    /// Builder-style: enable the write-ahead log.
    pub fn with_wal(mut self, wal: sbcc_wal::WalConfig) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The write-ahead-log configuration requested through the environment:
    /// `SBCC_WAL=<dir>` enables the log (group-commit fsync by default),
    /// `SBCC_WAL_FSYNC=never|group|always` overrides the fsync policy.
    /// Unset (or an empty `SBCC_WAL`) disables durability.
    pub fn wal_from_env() -> Option<sbcc_wal::WalConfig> {
        let dir = std::env::var(WAL_ENV).ok().filter(|d| !d.is_empty())?;
        let mut config = sbcc_wal::WalConfig::new(dir);
        if let Ok(policy) = std::env::var(WAL_FSYNC_ENV) {
            config.fsync = match policy.as_str() {
                "never" => sbcc_wal::FsyncPolicy::Never,
                "always" => sbcc_wal::FsyncPolicy::Always,
                _ => sbcc_wal::FsyncPolicy::GroupCommit,
            };
        }
        Some(config)
    }
}

/// Stable shard routing: FNV-1a over the registration name, reduced modulo
/// the shard count. Deterministic across runs and platforms.
pub fn shard_of_name(name: &str, shards: usize) -> u32 {
    debug_assert!(shards >= 1);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as u32
}

/// Where an object lives: its shard plus its id *inside that shard's
/// kernel*. Carried by [`crate::ObjectHandle`] so the session layer routes
/// without a directory lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectLoc {
    /// Owning shard.
    pub shard: u32,
    /// The object's id within the owning shard's kernel.
    pub local: ObjectId,
}

/// The cross-shard escalation graph: the union of every entangled shard's
/// dependency edges, behind its own small lock. Consulted only by cycle
/// checks in entangled shards; isolated shards never touch it.
#[derive(Debug, Default)]
pub struct GlobalGraph {
    graph: Mutex<DependencyGraph<TxnId>>,
}

impl GlobalGraph {
    /// An empty escalation graph.
    pub fn new() -> Self {
        GlobalGraph::default()
    }

    pub(crate) fn add_edge(&self, from: TxnId, to: TxnId, kind: EdgeKind) {
        self.graph.lock().add_edge(from, to, kind);
    }

    pub(crate) fn remove_node(&self, txn: TxnId) {
        self.graph.lock().remove_node(txn);
    }

    pub(crate) fn clear_out_edges(&self, txn: TxnId, kind: EdgeKind) {
        self.graph.lock().clear_out_edges(txn, kind);
    }

    /// Escalated check **and reservation** in one critical section: if the
    /// hypothetical edges close no cycle, insert them immediately so that
    /// a concurrent escalated check from another shard sees them.
    ///
    /// Without the reservation the check and the later mirror (performed
    /// once the kernel actually adds the edges, under a *different* shard
    /// lock) would be two separate global-graph critical sections, and two
    /// requests racing in two entangled shards could each pass the check
    /// before either inserted its edge — admitting exactly the undetected
    /// cross-shard cycle the escalation path exists to refuse. A passed
    /// check is always followed by the kernel adding those edges (the
    /// Figure-2 branches never abandon them), so reserved edges are never
    /// phantom; the kernel's own mirror then merely raises the pair's
    /// multiplicity, which is harmless because the global graph is only
    /// ever pruned wholesale (node removal, per-kind out-edge clears).
    pub fn check_and_reserve(&self, from: TxnId, targets: &[TxnId], kind: EdgeKind) -> bool {
        let mut graph = self.graph.lock();
        if graph.would_close_cycle(from, targets) {
            return true;
        }
        for target in targets {
            graph.add_edge(from, *target, kind);
        }
        false
    }

    /// Bulk-mirror every edge of a shard's local graph (entanglement
    /// upload). Returns the number of logical edges mirrored.
    pub(crate) fn mirror_all(&self, local: &DependencyGraph<TxnId>) -> u64 {
        let mut g = self.graph.lock();
        let mut mirrored = 0u64;
        local.for_each_edge(|from, to, kind, multiplicity| {
            for _ in 0..multiplicity {
                g.add_edge(from, to, kind);
            }
            mirrored += u64::from(multiplicity);
        });
        mirrored
    }

    /// Cycle checks performed on this graph so far.
    pub fn cycle_checks(&self) -> u64 {
        self.graph.lock().cycle_checks()
    }

    /// Reorder telemetry of the escalation graph. Mirrored edges arrive in
    /// per-shard admission order, which can violate the global graph's own
    /// maintained order, so entangled workloads repair here too.
    pub fn reorder_telemetry(&self) -> sbcc_graph::OrderTelemetry {
        self.graph.lock().order_telemetry()
    }

    /// Number of nodes currently mirrored.
    pub fn node_count(&self) -> usize {
        self.graph.lock().node_count()
    }

    /// Full-graph acyclicity check (invariant validation).
    pub fn has_cycle(&self) -> bool {
        self.graph.lock().has_cycle()
    }
}

/// One shard: a kernel behind its own lock, plus observability counters.
struct ShardCell {
    kernel: Mutex<SchedulerKernel>,
    lock_acquisitions: AtomicU64,
}

/// Coordinator-side record of a live transaction.
#[derive(Debug, Clone, Default)]
struct EnrollRec {
    /// Shards the transaction is enrolled in, in enrollment order.
    shards: Vec<u32>,
    /// `true` once the transaction pseudo-committed (coordinator-level
    /// flag; the per-shard states agree).
    pseudo: bool,
}

#[derive(Debug, Default)]
struct Enrollments {
    live: HashMap<TxnId, EnrollRec>,
    finished: HashMap<TxnId, TxnState>,
}

/// Coordinator-side SSI record of one transaction (Cahill-style
/// serializable snapshot isolation, tracking rw-antidependencies between
/// snapshot readers and concurrent writers).
///
/// The flags are **sticky**: once a transaction acquires an in- or
/// out-conflict it keeps it for life. A transaction with *both* flags is
/// the pivot of a dangerous structure and must not commit; the check runs
/// at snapshot-read time and at commit entry (never later — a
/// pseudo-commit is a promise to commit, so everything is decided before
/// it).
#[derive(Debug, Default)]
struct SsiTxn {
    /// Begin stamp: the value of the global commit clock when the
    /// transaction began. Classified transactions are stamped too (while
    /// SSI is enabled) so the committed-reader skip test at commit entry
    /// can tell a reader that finished *before* this transaction existed
    /// from a truly concurrent one; `0` (transaction begun while SSI was
    /// dormant) keeps the test fully conservative.
    begin: u64,
    /// `true` for transactions begun through
    /// [`ShardedKernel::begin_snapshot`].
    snapshot: bool,
    /// Someone holds an rw-antidependency *into* this transaction (a
    /// concurrent reader read a version this transaction overwrote), or a
    /// conservative approximation of one.
    in_conflict: bool,
    /// This transaction holds an rw-antidependency *out of* itself (it
    /// snapshot-read a version a concurrent transaction overwrote).
    out_conflict: bool,
    /// A dangerous structure formed around this live transaction while it
    /// was not in hand; it aborts itself at its next SSI interaction.
    doomed: bool,
    /// Commit stamp, set at claim time (a clock over-estimate, which can
    /// only flag more readers than strictly necessary — never fewer).
    committed: Option<u64>,
    /// The transaction pseudo-committed: it is guaranteed to commit and
    /// can no longer be chosen as the dangerous-structure victim.
    pseudo: bool,
    /// Objects this transaction snapshot-read (SIREAD cleanup list).
    reads: Vec<ObjectLoc>,
    /// Objects this transaction's commit writes (writer-entry cleanup
    /// list).
    writes: Vec<ObjectLoc>,
}

/// Coordinator-side SSI bookkeeping: SIREAD marks, writer entries and
/// per-transaction conflict flags, all behind one small mutex that is only
/// ever touched while at least one snapshot transaction is (or recently
/// was) live — [`ShardedKernel::ssi_enabled`] gates every entry point with
/// a single atomic load. The whole state clears at quiescence (no live
/// transactions at all), so purely classified workloads pay nothing.
///
/// Lock order: the enrollment lock may be held when taking this lock
/// (claim-time finalize); shard locks and this lock are **never** held
/// together.
#[derive(Debug, Default)]
struct SsiState {
    txns: HashMap<TxnId, SsiTxn>,
    /// SIREAD marks: per object, the snapshot transactions that read it.
    sireads: HashMap<ObjectLoc, Vec<TxnId>>,
    /// Writer entries: per object, transactions whose commit writes it.
    /// `None` = pending (commit entered but the fold's stamp is not final
    /// yet — readers must conservatively treat it as concurrent);
    /// `Some(stamp)` = committed at (at most) `stamp`.
    writers: HashMap<ObjectLoc, Vec<(TxnId, Option<u64>)>>,
}

/// Globally deduplicated transaction-lifecycle counters (one count per
/// transaction regardless of how many shards it touched).
#[derive(Debug, Default)]
struct Lifecycle {
    begun: AtomicU64,
    commits: AtomicU64,
    pseudo_commits: AtomicU64,
    aborts_deadlock: AtomicU64,
    aborts_commit_cycle: AtomicU64,
    aborts_victim: AtomicU64,
    aborts_ssi: AtomicU64,
    aborts_undeclared: AtomicU64,
    aborts_explicit: AtomicU64,
}

/// How a transaction terminated (internal bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermFate {
    Committed,
    Aborted(AbortReason),
}

/// Side effects drained from one shard pass.
struct ShardFx {
    events: Vec<KernelEvent>,
    ready: Vec<TxnId>,
}

fn drain_fx(kernel: &mut SchedulerKernel) -> ShardFx {
    ShardFx {
        events: kernel.drain_events(),
        ready: kernel.drain_coordination_ready(),
    }
}

#[derive(Debug, Default)]
struct Registry {
    names: HashMap<String, ObjectId>,
    directory: Vec<ObjectLoc>,
}

/// N independent scheduler kernels plus the cross-shard coordinator. The
/// thread-safe, internally locked counterpart of [`SchedulerKernel`]; the
/// module documentation describes the protocol.
pub struct ShardedKernel {
    config: DatabaseConfig,
    shards: Vec<ShardCell>,
    global: Arc<GlobalGraph>,
    registry: Mutex<Registry>,
    enroll: Mutex<Enrollments>,
    /// Serializes multi-shard terminations (commit votes, coordinated
    /// commits and explicit multi-shard aborts) so per-shard commit orders
    /// stay mutually consistent.
    termination: Mutex<()>,
    /// Side-effect events collected across shards, drained by the caller
    /// exactly like [`SchedulerKernel::drain_events`].
    events: Mutex<Vec<KernelEvent>>,
    /// Lock-free emptiness hint for `events`: the request fast path (no
    /// side effects, the overwhelmingly common case) must not pay a mutex
    /// acquisition per call just to find the buffer empty.
    events_pending: AtomicU64,
    next_txn: AtomicU64,
    lifecycle: Lifecycle,
    /// The global commit clock, shared with every shard kernel
    /// ([`SchedulerKernel::attach_stamps`]): each actual commit draws one
    /// stamp, and multi-shard commits draw a *single* stamp under the
    /// termination lock so cross-shard snapshots never observe a
    /// half-applied multi-shard commit.
    commit_clock: Arc<AtomicU64>,
    /// The version-GC floor, shared with every shard kernel: the minimum
    /// begin stamp over live snapshot transactions (`u64::MAX` when none
    /// are live, letting commits drop superseded versions immediately).
    version_floor: Arc<AtomicU64>,
    /// Lock-free gate for the SSI machinery: non-zero while snapshot
    /// transactions may be live. Checked with one load on every request
    /// and commit so purely classified workloads never touch `ssi`.
    ssi_enabled: AtomicU64,
    /// SSI rw-antidependency bookkeeping (see [`SsiState`]).
    ssi: Mutex<SsiState>,
    /// The write-ahead log, attached once by [`crate::Database`] after
    /// replay (see [`Self::attach_wal`]). Registrations and multi-shard
    /// commits log through this handle; single-shard commits log through
    /// the per-shard kernels' own copies.
    wal: std::sync::OnceLock<Arc<sbcc_wal::Wal>>,
}

impl std::fmt::Debug for ShardedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("shards", &self.shards.len())
            .field("objects", &self.registry.lock().directory.len())
            .finish()
    }
}

impl ShardedKernel {
    /// Build a sharded kernel: `config.shards` kernels sharing one
    /// escalation graph ([`ShardCount::Auto`] resolves to the available
    /// parallelism here).
    pub fn new(config: DatabaseConfig) -> Self {
        let shard_count = config.shards.resolve();
        assert!(shard_count >= 1, "at least one shard is required");
        let global = Arc::new(GlobalGraph::new());
        let commit_clock = Arc::new(AtomicU64::new(0));
        let version_floor = Arc::new(AtomicU64::new(u64::MAX));
        let shards = (0..shard_count)
            .map(|_| {
                let mut kernel = SchedulerKernel::new(config.scheduler.clone());
                kernel.attach_escalation(global.clone());
                kernel.attach_stamps(commit_clock.clone(), version_floor.clone());
                ShardCell {
                    kernel: Mutex::new(kernel),
                    lock_acquisitions: AtomicU64::new(0),
                }
            })
            .collect();
        ShardedKernel {
            config,
            shards,
            global,
            registry: Mutex::new(Registry::default()),
            enroll: Mutex::new(Enrollments::default()),
            termination: Mutex::new(()),
            events: Mutex::new(Vec::new()),
            events_pending: AtomicU64::new(0),
            next_txn: AtomicU64::new(0),
            lifecycle: Lifecycle::default(),
            commit_clock,
            version_floor,
            ssi_enabled: AtomicU64::new(0),
            ssi: Mutex::new(SsiState::default()),
            wal: std::sync::OnceLock::new(),
        }
    }

    /// Attach the write-ahead log to the coordinator and to every shard
    /// kernel. Call **after** replaying the records [`sbcc_wal::Wal::open`]
    /// returned — from here on every registration and actual commit is
    /// appended, so attaching before replay would re-log the recovery.
    ///
    /// # Panics
    ///
    /// Panics if a log is already attached.
    pub fn attach_wal(&self, wal: Arc<sbcc_wal::Wal>) {
        for (i, _) in self.shards.iter().enumerate() {
            self.peek_shard(i as u32).attach_wal(wal.clone(), i as u32);
        }
        assert!(
            self.wal.set(wal).is_ok(),
            "a write-ahead log is already attached"
        );
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<sbcc_wal::Wal>> {
        self.wal.get()
    }

    /// The configuration.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock_shard(&self, shard: u32) -> MutexGuard<'_, SchedulerKernel> {
        let cell = &self.shards[shard as usize];
        cell.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        cell.kernel.lock()
    }

    /// Lock a shard for inspection without perturbing the lock counter.
    fn peek_shard(&self, shard: u32) -> MutexGuard<'_, SchedulerKernel> {
        self.shards[shard as usize].kernel.lock()
    }

    // ------------------------------------------------------------------
    // Object registration and inspection
    // ------------------------------------------------------------------

    /// Register an erased semantic object; its shard is
    /// `shard_of_name(name, shards)`. Returns the **global** object id
    /// (dense, in registration order) and its location.
    pub fn register_object(
        &self,
        name: impl Into<String>,
        object: Box<dyn SemanticObject>,
    ) -> Result<(ObjectId, ObjectLoc), CoreError> {
        let name = name.into();
        let mut registry = self.registry.lock();
        if registry.names.contains_key(&name) {
            return Err(CoreError::DuplicateObject(name));
        }
        // Semantic logging can only recover objects it can reconstruct:
        // the type must be known to the factory and the initial state must
        // be the factory's empty state (the log records operations, never
        // a starting state).
        let type_name = object.type_name();
        if self.wal.get().is_some() {
            match sbcc_wal::factory::instantiate(type_name) {
                None => {
                    return Err(CoreError::Durability(format!(
                        "object {name:?} has type {type_name:?}, which the recovery \
                         factory cannot reconstruct; durable databases accept only \
                         the built-in table-driven types"
                    )))
                }
                Some(fresh) if !object.state_eq(fresh.as_ref()) => {
                    return Err(CoreError::Durability(format!(
                        "object {name:?} starts with a non-empty state; the log \
                         records operations only, so a durable database cannot \
                         recover a pre-populated object"
                    )))
                }
                Some(_) => {}
            }
        }
        let shard = shard_of_name(&name, self.shards.len());
        let local = self.peek_shard(shard).register_object(name.clone(), object)?;
        if let Some(wal) = self.wal.get() {
            // Flushed at append: no commit record referencing this object
            // may become durable before the registration.
            wal.append_register(shard, &name, type_name);
        }
        let global = ObjectId(registry.directory.len() as u32);
        let loc = ObjectLoc { shard, local };
        registry.directory.push(loc);
        registry.names.insert(name, global);
        Ok((global, loc))
    }

    /// Register a typed atomic data type instance.
    pub fn register<A: AdtSpec>(
        &self,
        name: impl Into<String>,
        adt: A,
    ) -> Result<(ObjectId, ObjectLoc), CoreError> {
        self.register_object(name, Box::new(AdtObject::new(adt)))
    }

    /// Number of registered objects (across all shards).
    pub fn object_count(&self) -> usize {
        self.registry.lock().directory.len()
    }

    /// Resolve an object name to its global id.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.registry.lock().names.get(name).copied()
    }

    /// The location of a global object id.
    pub fn object_loc(&self, object: ObjectId) -> Option<ObjectLoc> {
        self.registry.lock().directory.get(object.0 as usize).copied()
    }

    /// Run a closure against an object's committed state (under its
    /// shard's lock).
    pub fn with_object_committed<R>(
        &self,
        object: ObjectId,
        f: impl FnOnce(&dyn SemanticObject) -> R,
    ) -> Option<R> {
        let loc = self.object_loc(object)?;
        let kernel = self.peek_shard(loc.shard);
        kernel.object_committed_state(loc.local).map(f)
    }

    /// Run a closure against one shard's kernel (tests / diagnostics).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut SchedulerKernel) -> R) -> R {
        let mut kernel = self.peek_shard(shard as u32);
        f(&mut kernel)
    }

    // ------------------------------------------------------------------
    // Transaction life cycle
    // ------------------------------------------------------------------

    /// Begin a transaction. The id is assigned globally; shards adopt it
    /// lazily on first touch.
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.enroll.lock().live.insert(id, EnrollRec::default());
        self.lifecycle.begun.fetch_add(1, Ordering::Relaxed);
        if self.ssi_enabled.load(Ordering::SeqCst) != 0 {
            // Stamp the begin while snapshots are live: the SIREAD scan at
            // commit entry skips readers that committed at or below this
            // stamp (they finished before this transaction did anything,
            // so no rw-antidependency between concurrent transactions can
            // involve them). Without the stamp a committed-but-flagged
            // reader's marks would doom every later writer that touches
            // its read set until full quiescence — retried transactions
            // would starve in an abort storm. The enroll insert above
            // happens first, so the quiescence sweep (which requires an
            // empty live set) can never clear this record out from under
            // us.
            let begin = self.commit_clock.load(Ordering::SeqCst);
            self.ssi.lock().txns.insert(
                id,
                SsiTxn {
                    begin,
                    ..SsiTxn::default()
                },
            );
        }
        id
    }

    /// Begin a **snapshot** transaction: its read-only operations observe
    /// the newest committed version at or below the returned begin stamp,
    /// without classification or blocking, and serializability is guarded
    /// by SSI rw-antidependency tracking (a dangerous structure aborts the
    /// pivot with [`AbortReason::SsiConflict`]). Non-read-only operations
    /// still go through the ordinary classified path.
    ///
    /// The stamp is acquired under the termination lock: a multi-shard
    /// commit draws its single stamp and applies every per-shard fold
    /// under that same lock, so no snapshot can begin between the folds —
    /// cross-shard snapshots never see a half-applied multi-shard commit.
    pub fn begin_snapshot(&self) -> (TxnId, u64) {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.lifecycle.begun.fetch_add(1, Ordering::Relaxed);
        let _termination = self.termination.lock();
        self.enroll.lock().live.insert(id, EnrollRec::default());
        chaos::reach(ChaosPoint::SnapshotStamp, Some(id));
        let provisional = self.commit_clock.load(Ordering::SeqCst);
        {
            let mut ssi = self.ssi.lock();
            ssi.txns.insert(
                id,
                SsiTxn {
                    begin: provisional,
                    snapshot: true,
                    ..SsiTxn::default()
                },
            );
            let floor = ssi
                .txns
                .values()
                .filter(|t| t.snapshot && t.committed.is_none())
                .map(|t| t.begin)
                .min()
                .unwrap_or(provisional);
            self.version_floor.store(floor, Ordering::SeqCst);
            self.ssi_enabled.store(1, Ordering::SeqCst);
        }
        // Re-read the clock *after* publishing the floor: every commit
        // folds by first drawing its stamp (`fetch_add`) and then loading
        // the floor, so in the SeqCst total order any fold stamped above
        // this begin loads the floor after the store above and prunes at
        // or below it — the version this snapshot needs can never be
        // dropped out from under it. (A fold stamped at or below the
        // begin may see the old floor, which is harmless: its result is
        // part of the snapshot.)
        let begin = self.commit_clock.load(Ordering::SeqCst);
        if begin != provisional {
            self.ssi
                .lock()
                .txns
                .get_mut(&id)
                .expect("snapshot record was just inserted")
                .begin = begin;
        }
        (id, begin)
    }

    fn missing_txn_error(
        enroll: &Enrollments,
        txn: TxnId,
        action: &'static str,
    ) -> CoreError {
        match enroll.finished.get(&txn) {
            Some(state) => CoreError::InvalidState {
                txn,
                state: *state,
                action,
            },
            None => CoreError::UnknownTransaction(txn),
        }
    }

    /// Enroll `txn` into `shard` if it is not enrolled yet, entangling the
    /// affected shards when the transaction becomes multi-shard. Returns
    /// `true` when this call performed the enrollment (the session layer
    /// caches this to skip the coordinator on repeat touches).
    pub fn ensure_enrolled(
        &self,
        txn: TxnId,
        shard: u32,
        action: &'static str,
    ) -> Result<bool, CoreError> {
        let mut enroll = self.enroll.lock();
        let Some(rec) = enroll.live.get_mut(&txn) else {
            return Err(Self::missing_txn_error(&enroll, txn, action));
        };
        if rec.shards.contains(&shard) {
            return Ok(false);
        }
        let becoming_multi = rec.shards.len() == 1;
        let already_multi = rec.shards.len() >= 2;
        let first = rec.shards.first().copied();
        rec.shards.push(shard);
        if becoming_multi {
            // The transaction spans shards from now on: mark it coordinated
            // where it already lives, and entangle both shards so their
            // edges are visible to escalated cycle checks.
            let first = first.expect("becoming multi implies a first shard");
            {
                let mut kernel = self.lock_shard(first);
                kernel.mark_coordinated(txn);
                kernel.entangle();
            }
            let mut kernel = self.lock_shard(shard);
            kernel.adopt(txn, true);
            kernel.entangle();
        } else if already_multi {
            let mut kernel = self.lock_shard(shard);
            kernel.adopt(txn, true);
            kernel.entangle();
        } else {
            self.lock_shard(shard).adopt(txn, false);
        }
        Ok(true)
    }

    /// The current state of a transaction. `Blocked` wins over `Active`
    /// across shards (a transaction blocks in at most one shard — it has
    /// at most one in-flight request).
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        let shards = {
            let enroll = self.enroll.lock();
            if let Some(state) = enroll.finished.get(&txn) {
                return Some(*state);
            }
            let rec = enroll.live.get(&txn)?;
            if rec.shards.is_empty() {
                return Some(TxnState::Active);
            }
            rec.shards.clone()
        };
        let mut state = TxnState::Active;
        for s in shards {
            match self.peek_shard(s).txn_state(txn) {
                Some(TxnState::Blocked) => return Some(TxnState::Blocked),
                Some(TxnState::PseudoCommitted) => state = TxnState::PseudoCommitted,
                _ => {}
            }
        }
        Some(state)
    }

    /// The union of the transaction's commit dependencies across shards.
    pub fn commit_dependencies_of(&self, txn: TxnId) -> Vec<TxnId> {
        let shards = {
            let enroll = self.enroll.lock();
            enroll.live.get(&txn).map(|r| r.shards.clone()).unwrap_or_default()
        };
        let mut deps: Vec<TxnId> = Vec::new();
        for s in shards {
            deps.extend(self.peek_shard(s).commit_dependencies_of(txn));
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Drain the side-effect events collected across shards (same
    /// semantics as [`SchedulerKernel::drain_events`]).
    ///
    /// A thread that published events always drains after publishing, so
    /// the lock-free empty fast path cannot strand an event: at worst a
    /// *concurrent* caller misses events another thread is about to drain
    /// anyway.
    pub fn drain_events(&self) -> Vec<KernelEvent> {
        if self.events_pending.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut events = self.events.lock();
        self.events_pending.store(0, Ordering::Release);
        std::mem::take(&mut *events)
    }

    /// Publish side-effect events for [`Self::drain_events`].
    fn publish_events(&self, events: Vec<KernelEvent>) {
        if events.is_empty() {
            return;
        }
        let mut buf = self.events.lock();
        buf.extend(events);
        self.events_pending
            .store(buf.len() as u64, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// Request an operation by global object id: resolves the shard
    /// through the directory and enrolls on first touch. Sessions, which
    /// cache both, call [`Self::request_enrolled`] instead.
    pub fn request(
        &self,
        txn: TxnId,
        object: ObjectId,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        let loc = self
            .object_loc(object)
            .ok_or_else(|| CoreError::UnknownObject(format!("{object}")))?;
        self.ensure_enrolled(txn, loc.shard, "request an operation")?;
        self.request_enrolled(txn, loc, call)
    }

    /// Request an operation for a transaction known to be enrolled in the
    /// target shard (the session layer's cached fast path: no coordinator
    /// lock, one shard lock).
    pub fn request_enrolled(
        &self,
        txn: TxnId,
        loc: ObjectLoc,
        call: OpCall,
    ) -> Result<RequestOutcome, CoreError> {
        let ssi_on = self.ssi_enabled.load(Ordering::SeqCst) != 0;
        let (result, fx, object_stamp) = {
            let mut kernel = self.lock_shard(loc.shard);
            let result = kernel.request(txn, loc.local, call);
            // Read the object's committed stamp under the same lock hold:
            // the late concurrent-write check in `ssi_note_classified`
            // compares it against the snapshot's begin stamp.
            let object_stamp = if ssi_on {
                kernel.object_commit_stamp(loc.local)
            } else {
                None
            };
            let fx = drain_fx(&mut kernel);
            (result, fx, object_stamp)
        };
        if let (Some(stamp), Ok(outcome)) = (object_stamp, &result) {
            self.ssi_note_classified(txn, outcome, stamp);
        }
        let requester = match &result {
            Ok(RequestOutcome::Aborted { reason }) => Some((txn, *reason)),
            _ => None,
        };
        self.absorb(loc.shard, requester, fx);
        result
    }

    /// Grouped submission by global object id: resolves every call's shard
    /// through the directory, enrolls in each touched shard, then runs
    /// [`Self::request_batch_enrolled`] undeclared.
    pub fn request_batch(
        &self,
        txn: TxnId,
        calls: Vec<BatchCall>,
    ) -> Result<BatchOutcome, CoreError> {
        let locs = calls
            .iter()
            .map(|bc| {
                self.object_loc(bc.object)
                    .ok_or_else(|| CoreError::UnknownObject(format!("{}", bc.object)))
            })
            .collect::<Result<Vec<ObjectLoc>, CoreError>>()?;
        for run in locs.chunk_by(|a, b| a.shard == b.shard) {
            self.ensure_enrolled(txn, run[0].shard, "submit a batch")?;
        }
        self.request_batch_enrolled(txn, calls, locs, None)
    }

    /// Grouped submission across shards for a transaction the caller has
    /// already enrolled in every touched shard (`locs[i]` must locate
    /// `calls[i].object`). The batch is split into maximal same-shard
    /// runs, each classified by its shard in one pass
    /// ([`SchedulerKernel::request_batch`]), strictly in submission order.
    /// The documented partial-admission semantics of [`BatchOutcome`] are
    /// preserved: indices in the outcome refer to the submitted batch, and
    /// a blocking or aborting terminator hands back the unprocessed suffix
    /// (including the untouched later runs).
    ///
    /// With a **declared** read/write footprint each same-shard run is
    /// handed its projection of the declaration and goes through
    /// [`SchedulerKernel::request_batch_declared`] — group admission when
    /// the declared footprint is quiescent, classifier fallback/escalation
    /// (or an [`AbortReason::UndeclaredAccess`] abort, per policy)
    /// otherwise.
    pub fn request_batch_enrolled(
        &self,
        txn: TxnId,
        mut calls: Vec<BatchCall>,
        locs: Vec<ObjectLoc>,
        declared: Option<&sbcc_adt::AccessSet<ObjectLoc>>,
    ) -> Result<BatchOutcome, CoreError> {
        assert_eq!(calls.len(), locs.len(), "one location per call");
        if calls.is_empty() {
            // Mirror the kernel's validation without enrolling anywhere.
            let enroll = self.enroll.lock();
            if !enroll.live.contains_key(&txn) {
                return Err(Self::missing_txn_error(&enroll, txn, "submit a batch"));
            }
            return Ok(BatchOutcome {
                executed: Vec::new(),
                commit_deps: Vec::new(),
                stopped: None,
            });
        }
        if self.ssi_enabled.load(Ordering::SeqCst) != 0 {
            self.ssi_note_batch(txn);
        }
        let total = calls.len();
        let mut executed = Vec::with_capacity(total);
        let mut all_deps: Vec<TxnId> = Vec::new();
        let mut start = 0usize;
        while start < total {
            let shard = locs[start].shard;
            let mut end = start + 1;
            while end < total && locs[end].shard == shard {
                end += 1;
            }
            // Localize the run by moving the payloads out of the original
            // slots (the suffix after a stop is reconstructed below).
            let run: Vec<BatchCall> = (start..end)
                .map(|i| {
                    BatchCall::new(
                        locs[i].local,
                        std::mem::replace(&mut calls[i].call, OpCall::nullary(0)),
                    )
                })
                .collect();
            // Project the declaration onto this shard (other shards'
            // declared objects are simply invisible here) before taking
            // the lock; the whole group-admission window — coverage scan,
            // disjointness scan, group execution — runs under one hold.
            let local_declared =
                declared.map(|d| d.project(|loc| (loc.shard == shard).then_some(loc.local)));
            if local_declared.is_some() {
                chaos::reach(ChaosPoint::GroupAdmit, Some(txn));
            }
            let (result, fx) = {
                let mut kernel = self.lock_shard(shard);
                let result = match &local_declared {
                    Some(d) => kernel.request_batch_declared(txn, run, d),
                    None => kernel.request_batch(txn, run),
                };
                let fx = drain_fx(&mut kernel);
                (result, fx)
            };
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    self.absorb(shard, None, fx);
                    return Err(e);
                }
            };
            executed.extend(outcome.executed);
            all_deps.extend(outcome.commit_deps);
            let stopped = match outcome.stopped {
                None => {
                    self.absorb(shard, None, fx);
                    start = end;
                    continue;
                }
                Some(s) => s,
            };
            all_deps.sort_unstable();
            all_deps.dedup();
            let (index, rest_local, requester, stop) = match stopped {
                BatchStop::Blocked {
                    index,
                    waiting_on,
                    rest,
                } => {
                    let g = start + index;
                    (g, rest, None, BatchStop::Blocked {
                        index: g,
                        waiting_on,
                        rest: Vec::new(),
                    })
                }
                BatchStop::Aborted { index, reason, rest } => {
                    let g = start + index;
                    (g, rest, Some((txn, reason)), BatchStop::Aborted {
                        index: g,
                        reason,
                        rest: Vec::new(),
                    })
                }
            };
            // Re-globalize the run's unprocessed suffix, then append the
            // untouched later runs.
            let mut rest_out: Vec<BatchCall> = rest_local
                .into_iter()
                .enumerate()
                .map(|(i, bc)| BatchCall::new(calls[index + 1 + i].object, bc.call))
                .collect();
            rest_out.extend(calls.drain(end..));
            self.absorb(shard, requester, fx);
            let stop = match stop {
                BatchStop::Blocked { index, waiting_on, .. } => BatchStop::Blocked {
                    index,
                    waiting_on,
                    rest: rest_out,
                },
                BatchStop::Aborted { index, reason, .. } => BatchStop::Aborted {
                    index,
                    reason,
                    rest: rest_out,
                },
            };
            return Ok(BatchOutcome {
                executed,
                commit_deps: all_deps,
                stopped: Some(stop),
            });
        }
        all_deps.sort_unstable();
        all_deps.dedup();
        Ok(BatchOutcome {
            executed,
            commit_deps: all_deps,
            stopped: None,
        })
    }

    // ------------------------------------------------------------------
    // Termination
    // ------------------------------------------------------------------

    /// Commit a transaction. Single-shard transactions take the unsharded
    /// fast path inside their shard; multi-shard transactions run the
    /// cross-shard vote described in the module documentation.
    pub fn commit(&self, txn: TxnId) -> Result<CommitOutcome, CoreError> {
        let enrolled: Vec<u32> = {
            let enroll = self.enroll.lock();
            match enroll.live.get(&txn) {
                Some(rec) => {
                    if rec.pseudo {
                        return Err(CoreError::InvalidState {
                            txn,
                            state: TxnState::PseudoCommitted,
                            action: "commit",
                        });
                    }
                    rec.shards.clone()
                }
                None => return Err(Self::missing_txn_error(&enroll, txn, "commit")),
            }
        };
        // SSI commit-entry gate: decide dangerous structures and publish
        // the writer entries *before* any shard applies the commit (a
        // pseudo-commit is a promise, so nothing may be vetoed after it).
        if self.ssi_enabled.load(Ordering::SeqCst) != 0 {
            self.ssi_commit_entry(txn, &enrolled)?;
        }
        match enrolled.len() {
            0 => {
                // The transaction never touched an object: a trivially
                // empty commit.
                if self.claim(txn, TermFate::Committed).is_some() {
                    self.count_termination(TermFate::Committed);
                }
                Ok(CommitOutcome::Committed)
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx, wal_ticket) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.commit(txn);
                    // The ticket must be read under the shard lock: it is
                    // assigned inside `actually_commit`.
                    let wal_ticket = kernel.wal_ticket_of(txn);
                    let fx = drain_fx(&mut kernel);
                    (result, fx, wal_ticket)
                };
                match &result {
                    Ok(CommitOutcome::Committed) => {
                        if self.claim(txn, TermFate::Committed).is_some() {
                            self.count_termination(TermFate::Committed);
                        }
                    }
                    Ok(CommitOutcome::PseudoCommitted { .. }) => {
                        if let Some(rec) = self.enroll.lock().live.get_mut(&txn) {
                            rec.pseudo = true;
                        }
                        self.ssi_mark_pseudo(txn);
                        self.lifecycle.pseudo_commits.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
                self.absorb(shard, None, fx);
                // Durability gate: a `Committed` acknowledgement promises
                // the commit record is flushed per the fsync policy. Waits
                // only under group commit, after every lock is released —
                // other sessions keep executing while this one waits for
                // the flusher. (A `PseudoCommitted` acknowledgement makes
                // no durability promise: the record is appended later, by
                // whichever thread clears the last dependency.)
                if let (Some(wal), Some(ticket)) = (self.wal.get(), wal_ticket) {
                    wal.wait_durable(shard, ticket);
                }
                result
            }
            _ => self.commit_multi(txn, &enrolled),
        }
    }

    fn commit_multi(&self, txn: TxnId, enrolled: &[u32]) -> Result<CommitOutcome, CoreError> {
        let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
        let outcome = {
            let _termination = self.termination.lock();
            // Phase 1: collect per-shard votes (local commit-dependency
            // out-neighbours). The transaction stays Active throughout —
            // it is coordinated, so it can neither be picked as a cycle
            // victim nor be terminated by anyone but this (its own
            // session's) thread.
            let mut deps: Vec<TxnId> = Vec::new();
            for &s in enrolled {
                // Between two per-shard vote collections: other sessions
                // can still execute/abort inside not-yet-peeked shards.
                chaos::reach(ChaosPoint::VotePeek, Some(txn));
                let kernel = self.peek_shard(s);
                match kernel.txn_state(txn) {
                    Some(TxnState::Active) => deps.extend(kernel.commit_dependencies_of(txn)),
                    Some(state) => {
                        return Err(CoreError::InvalidState {
                            txn,
                            state,
                            action: "commit",
                        })
                    }
                    None => return Err(CoreError::UnknownTransaction(txn)),
                }
            }
            deps.sort_unstable();
            deps.dedup();
            if deps.is_empty() {
                // Durability first: the transaction's fragments and the
                // cross-shard marker must be on disk before any shard
                // applies the commit in-memory, or a crash between the
                // per-shard applications could acknowledge state the log
                // cannot reproduce.
                self.wal_log_multi(txn, enrolled);
                // Phase 2a: unanimous — apply the actual commit shard by
                // shard (the termination lock keeps the per-shard commit
                // orders of concurrent multi-shard commits consistent).
                // One stamp for every shard's fold, drawn under the
                // termination lock: snapshot begins also serialize
                // against this lock, so the multi-shard commit is
                // atomic from every snapshot's point of view.
                let stamp = self.commit_clock.fetch_add(1, Ordering::SeqCst) + 1;
                for &s in enrolled {
                    // Between two per-shard applications the transaction
                    // is committed in a prefix of its shards only.
                    chaos::reach(ChaosPoint::VoteApply, Some(txn));
                    let mut kernel = self.lock_shard(s);
                    kernel.commit_coordinated(txn, stamp);
                    let fx = drain_fx(&mut kernel);
                    drop(kernel);
                    fxs.push((s, fx));
                }
                if self.claim(txn, TermFate::Committed).is_some() {
                    self.count_termination(TermFate::Committed);
                }
                CommitOutcome::Committed
            } else {
                // Phase 2b: outstanding dependencies — pseudo-commit in
                // every shard; re-voted when a shard's local out-degree
                // drops to zero.
                self.ssi_mark_pseudo(txn);
                for &s in enrolled {
                    let mut kernel = self.lock_shard(s);
                    let marked = kernel.pseudo_commit_coordinated(txn);
                    debug_assert!(marked, "coordinated pseudo-commit of a non-active txn");
                    // The dependencies this vote saw may have terminated
                    // while the per-shard locks were being taken; draining
                    // fx here picks up the immediate coordination-ready
                    // signal `pseudo_commit_coordinated` emits in that case
                    // (the re-vote runs in the absorb pass below, after the
                    // termination lock is released).
                    let fx = drain_fx(&mut kernel);
                    drop(kernel);
                    fxs.push((s, fx));
                }
                if let Some(rec) = self.enroll.lock().live.get_mut(&txn) {
                    rec.pseudo = true;
                }
                self.lifecycle.pseudo_commits.fetch_add(1, Ordering::Relaxed);
                CommitOutcome::PseudoCommitted { waiting_on: deps }
            }
        };
        for (shard, fx) in fxs {
            self.absorb(shard, None, fx);
        }
        Ok(outcome)
    }

    /// Explicitly abort an active or blocked transaction (all shards).
    pub fn abort(&self, txn: TxnId) -> Result<(), CoreError> {
        let enrolled: Vec<u32> = {
            let enroll = self.enroll.lock();
            match enroll.live.get(&txn) {
                Some(rec) => {
                    if rec.pseudo {
                        return Err(CoreError::InvalidState {
                            txn,
                            state: TxnState::PseudoCommitted,
                            action: "abort",
                        });
                    }
                    rec.shards.clone()
                }
                None => return Err(Self::missing_txn_error(&enroll, txn, "abort")),
            }
        };
        match enrolled.len() {
            0 => {
                if self.claim(txn, TermFate::Aborted(AbortReason::Explicit)).is_some() {
                    self.count_termination(TermFate::Aborted(AbortReason::Explicit));
                }
                Ok(())
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.abort(txn);
                    let fx = drain_fx(&mut kernel);
                    (result, fx)
                };
                if result.is_ok()
                    && self.claim(txn, TermFate::Aborted(AbortReason::Explicit)).is_some()
                {
                    self.count_termination(TermFate::Aborted(AbortReason::Explicit));
                }
                self.absorb(shard, None, fx);
                result
            }
            _ => {
                let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
                {
                    let _termination = self.termination.lock();
                    for &s in &enrolled {
                        let mut kernel = self.lock_shard(s);
                        kernel.abort_coordinated(txn, AbortReason::Explicit);
                        let fx = drain_fx(&mut kernel);
                        drop(kernel);
                        fxs.push((s, fx));
                    }
                }
                if self.claim(txn, TermFate::Aborted(AbortReason::Explicit)).is_some() {
                    self.count_termination(TermFate::Aborted(AbortReason::Explicit));
                }
                for (shard, fx) in fxs {
                    self.absorb(shard, None, fx);
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Snapshot reads and SSI
    // ------------------------------------------------------------------

    /// Execute a read-only operation for a snapshot transaction against
    /// the newest committed version at or below its begin stamp — no
    /// classification, no blocking, no dependency-graph edges.
    ///
    /// Returns `Ok(None)` when the call is **not** a pure observer, or
    /// when the transaction has its own uncommitted operations on the
    /// object: the caller falls back to the classified path (which
    /// provides read-your-writes).
    pub fn snapshot_read(
        &self,
        txn: TxnId,
        loc: ObjectLoc,
        call: &OpCall,
    ) -> Result<Option<sbcc_adt::OpResult>, CoreError> {
        let (begin, danger) = {
            let ssi = self.ssi.lock();
            match ssi.txns.get(&txn) {
                Some(r) if r.snapshot => {
                    (r.begin, r.doomed || (r.in_conflict && r.out_conflict))
                }
                _ => {
                    drop(ssi);
                    let enroll = self.enroll.lock();
                    return Err(Self::missing_txn_error(&enroll, txn, "snapshot-read"));
                }
            }
        };
        if danger {
            // A dangerous structure formed around this transaction while
            // it was away (another pivot doomed it, or its own sticky
            // flags closed): abort before handing out another read.
            return Err(self.ssi_abort(txn));
        }
        chaos::reach(ChaosPoint::SnapshotRead, Some(txn));
        let result = {
            let mut kernel = self.lock_shard(loc.shard);
            kernel.snapshot_read(txn, loc.local, begin, call)?
        };
        let Some(result) = result else {
            return Ok(None);
        };
        // Install the SIREAD mark and the rw-antidependency out-edges:
        // every writer entry that is pending, or stamped above the begin,
        // wrote a version this read did not see.
        chaos::reach(ChaosPoint::SsiEdge, Some(txn));
        let mut doom_self = false;
        {
            let mut ssi = self.ssi.lock();
            if !ssi.txns.contains_key(&txn) {
                // Aborted concurrently (e.g. victim selection in a shard
                // it writes in); surface the terminated-transaction error
                // the classified path would produce.
                drop(ssi);
                let enroll = self.enroll.lock();
                return Err(Self::missing_txn_error(&enroll, txn, "snapshot-read"));
            }
            let flagged: Vec<TxnId> = ssi
                .writers
                .get(&loc)
                .map(|entries| {
                    entries
                        .iter()
                        .filter(|(w, stamp)| {
                            *w != txn && stamp.map_or(true, |s| s > begin)
                        })
                        .map(|(w, _)| *w)
                        .collect()
                })
                .unwrap_or_default();
            {
                let rec = ssi.txns.get_mut(&txn).expect("checked above");
                if !rec.reads.contains(&loc) {
                    rec.reads.push(loc);
                }
                if !flagged.is_empty() {
                    rec.out_conflict = true;
                    if rec.in_conflict {
                        doom_self = true;
                    }
                }
            }
            for w in flagged {
                let Some(wrec) = ssi.txns.get_mut(&w) else { continue };
                wrec.in_conflict = true;
                if wrec.out_conflict {
                    // Dangerous structure pivoting at the writer: a live
                    // writer aborts itself at its next SSI interaction;
                    // an unabortable one (pseudo- or fully committed)
                    // forces this reader out instead.
                    if wrec.committed.is_none() && !wrec.pseudo {
                        wrec.doomed = true;
                    } else {
                        doom_self = true;
                    }
                }
            }
            let readers = ssi.sireads.entry(loc).or_default();
            if !readers.contains(&txn) {
                readers.push(txn);
            }
        }
        if doom_self {
            return Err(self.ssi_abort(txn));
        }
        Ok(Some(result))
    }

    /// The begin stamp of a live snapshot transaction.
    pub fn snapshot_begin_stamp(&self, txn: TxnId) -> Option<u64> {
        let ssi = self.ssi.lock();
        ssi.txns.get(&txn).filter(|r| r.snapshot).map(|r| r.begin)
    }

    /// The current value of the global commit clock.
    pub fn current_stamp(&self) -> u64 {
        self.commit_clock.load(Ordering::SeqCst)
    }

    /// The current version-GC floor: the smallest begin stamp of a live
    /// snapshot transaction, or `None` when none is live (commits then
    /// drop superseded versions immediately).
    pub fn oldest_snapshot_stamp(&self) -> Option<u64> {
        let floor = self.version_floor.load(Ordering::SeqCst);
        (floor != u64::MAX).then_some(floor)
    }

    /// Total number of retained historical versions across all shards.
    pub fn version_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|cell| cell.kernel.lock().version_depth())
            .sum()
    }

    /// Sweep every shard, pruning historical versions below the current
    /// GC floor. Returns the number of versions dropped. Commits prune
    /// their own objects as they fold, so this is only needed to reclaim
    /// versions of *cold* objects after the oldest snapshot finishes.
    pub fn prune_versions(&self) -> u64 {
        let watermark = self.version_floor.load(Ordering::SeqCst);
        self.shards
            .iter()
            .map(|cell| cell.kernel.lock().prune_versions(watermark))
            .sum()
    }

    /// SSI bookkeeping for a classified operation while snapshots are
    /// live: a snapshot transaction that blocks, picks up commit
    /// dependencies, or classifies against an object some transaction
    /// committed into after the snapshot began is conservatively marked
    /// in-conflict (a concurrent transaction may have observed state this
    /// one is about to overwrite). Flags are sticky; enforcement happens
    /// at the next snapshot read or at commit entry.
    fn ssi_note_classified(&self, txn: TxnId, outcome: &RequestOutcome, object_stamp: u64) {
        let mut ssi = self.ssi.lock();
        let Some(rec) = ssi.txns.get_mut(&txn) else { return };
        if !rec.snapshot {
            return;
        }
        let flag = match outcome {
            RequestOutcome::Blocked { .. } => true,
            RequestOutcome::Executed { commit_deps, .. } => {
                !commit_deps.is_empty() || object_stamp > rec.begin
            }
            RequestOutcome::Aborted { .. } => false,
        };
        if flag {
            rec.in_conflict = true;
        }
    }

    /// Batched classified submission by a snapshot transaction: marked
    /// in-conflict unconditionally (a documented simplification — the
    /// per-call outcomes inside a batch are not individually re-derived
    /// here, so the conservative flag stands in for all of them).
    fn ssi_note_batch(&self, txn: TxnId) {
        let mut ssi = self.ssi.lock();
        if let Some(rec) = ssi.txns.get_mut(&txn) {
            if rec.snapshot {
                rec.in_conflict = true;
            }
        }
    }

    /// Record that `txn` pseudo-committed: from here on it can no longer
    /// be chosen as a dangerous-structure victim (the in-hand transaction
    /// aborts instead).
    fn ssi_mark_pseudo(&self, txn: TxnId) {
        if self.ssi_enabled.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut ssi = self.ssi.lock();
        if let Some(rec) = ssi.txns.get_mut(&txn) {
            rec.pseudo = true;
        }
    }

    /// SSI commit-entry gate, run **before** any shard applies the commit:
    /// publish pending writer entries for the transaction's write set,
    /// scan the SIREAD marks of every written object for
    /// rw-antidependency in-edges, and abort the pivot of any dangerous
    /// structure this closes. Aborts `txn` (returning the error) when the
    /// pivot is `txn` itself or is unabortable.
    fn ssi_commit_entry(&self, txn: TxnId, enrolled: &[u32]) -> Result<(), CoreError> {
        // Collect the write set first: shard locks and the SSI lock are
        // never held together.
        let mut writes: Vec<ObjectLoc> = Vec::new();
        for &s in enrolled {
            for local in self.peek_shard(s).write_set(txn) {
                writes.push(ObjectLoc { shard: s, local });
            }
        }
        chaos::reach(ChaosPoint::SsiEdge, Some(txn));
        let mut doom_self = false;
        {
            let mut ssi = self.ssi.lock();
            let (snapshot, begin) = match ssi.txns.get(&txn) {
                Some(r) => {
                    if r.snapshot && (r.doomed || (r.in_conflict && r.out_conflict)) {
                        doom_self = true;
                    }
                    (r.snapshot, r.begin)
                }
                None => (false, 0),
            };
            if !doom_self && !(writes.is_empty() && !snapshot) {
                // Publish the writer entries *before* any fold: a
                // concurrent snapshot read between the fold and a later
                // publication would miss the rw-antidependency entirely.
                // Entries stay pending until claim time stamps them.
                for loc in &writes {
                    let entries = ssi.writers.entry(*loc).or_default();
                    if !entries.iter().any(|(w, _)| *w == txn) {
                        entries.push((txn, None));
                    }
                }
                let mut flagged: Vec<TxnId> = Vec::new();
                for loc in &writes {
                    if let Some(readers) = ssi.sireads.get(loc) {
                        for &r in readers {
                            if r != txn && !flagged.contains(&r) {
                                flagged.push(r);
                            }
                        }
                    }
                }
                let mut in_edge = false;
                for r in flagged {
                    let Some(rrec) = ssi.txns.get_mut(&r) else { continue };
                    // Skip only readers that committed before this writer
                    // began — a reader that committed *while* the writer
                    // was live is still concurrent (write skew hides
                    // exactly there). Writers begun while SSI was dormant
                    // have begin 0 and never skip (conservative).
                    if let Some(c) = rrec.committed {
                        if c <= begin {
                            continue;
                        }
                    }
                    rrec.out_conflict = true;
                    in_edge = true;
                    if rrec.in_conflict {
                        // Dangerous structure pivoting at the reader.
                        if rrec.committed.is_none() && !rrec.pseudo {
                            rrec.doomed = true;
                        } else {
                            doom_self = true;
                        }
                    }
                }
                if in_edge {
                    let rec = ssi.txns.entry(txn).or_default();
                    rec.in_conflict = true;
                    if rec.out_conflict {
                        doom_self = true;
                    }
                    if rec.writes.is_empty() {
                        rec.writes = writes.clone();
                    }
                } else if !writes.is_empty() {
                    let rec = ssi.txns.entry(txn).or_default();
                    for loc in &writes {
                        if !rec.writes.contains(loc) {
                            rec.writes.push(*loc);
                        }
                    }
                }
            }
        }
        if doom_self {
            return Err(self.ssi_abort(txn));
        }
        Ok(())
    }

    /// Abort `txn` with [`AbortReason::SsiConflict`] in every shard it is
    /// enrolled in; returns the session-facing error. Mirrors
    /// [`Self::abort`] (the transaction is live and not pseudo-committed:
    /// dangerous structures are decided strictly before commit entry).
    fn ssi_abort(&self, txn: TxnId) -> CoreError {
        let reason = AbortReason::SsiConflict;
        let fate = TermFate::Aborted(reason);
        let enrolled: Vec<u32> = self
            .enroll
            .lock()
            .live
            .get(&txn)
            .map(|r| r.shards.clone())
            .unwrap_or_default();
        match enrolled.len() {
            0 => {
                if self.claim(txn, fate).is_some() {
                    self.count_termination(fate);
                }
            }
            1 => {
                let shard = enrolled[0];
                let (result, fx) = {
                    let mut kernel = self.lock_shard(shard);
                    let result = kernel.abort_with(txn, reason);
                    let fx = drain_fx(&mut kernel);
                    (result, fx)
                };
                if result.is_ok() && self.claim(txn, fate).is_some() {
                    self.count_termination(fate);
                }
                self.absorb(shard, None, fx);
            }
            _ => {
                let mut fxs: Vec<(u32, ShardFx)> = Vec::new();
                {
                    let _termination = self.termination.lock();
                    for &s in &enrolled {
                        let mut kernel = self.lock_shard(s);
                        kernel.abort_coordinated(txn, reason);
                        let fx = drain_fx(&mut kernel);
                        drop(kernel);
                        fxs.push((s, fx));
                    }
                }
                if self.claim(txn, fate).is_some() {
                    self.count_termination(fate);
                }
                for (shard, fx) in fxs {
                    self.absorb(shard, None, fx);
                }
            }
        }
        CoreError::Aborted { txn, reason }
    }

    /// Claim-time SSI finalize (runs under the enrollment lock): stamp a
    /// committer's pending writer entries, retract an aborter's whole
    /// footprint, re-derive the GC floor, and clear everything once the
    /// database quiesces.
    fn ssi_finalize(&self, txn: TxnId, fate: TermFate, quiesced: bool) {
        let mut ssi = self.ssi.lock();
        match fate {
            TermFate::Committed => {
                // `clock.load()` over-estimates the transaction's actual
                // fold stamp, which can only make readers flag it as
                // concurrent when it was not — conservative, never unsafe.
                let now = self.commit_clock.load(Ordering::SeqCst);
                let writes = match ssi.txns.get_mut(&txn) {
                    Some(rec)
                        if !rec.snapshot
                            && rec.writes.is_empty()
                            && rec.reads.is_empty()
                            && !rec.in_conflict
                            && !rec.out_conflict =>
                    {
                        // A classified transaction that committed without
                        // touching any SSI state (its record exists only
                        // for the begin stamp) carries no conflict
                        // information — drop it instead of letting one
                        // record per transaction pile up until quiescence.
                        ssi.txns.remove(&txn);
                        Vec::new()
                    }
                    Some(rec) => {
                        rec.committed = Some(now);
                        rec.writes.clone()
                    }
                    None => Vec::new(),
                };
                for loc in writes {
                    if let Some(entries) = ssi.writers.get_mut(&loc) {
                        for entry in entries.iter_mut() {
                            if entry.0 == txn && entry.1.is_none() {
                                entry.1 = Some(now);
                            }
                        }
                    }
                }
            }
            TermFate::Aborted(_) => {
                if let Some(rec) = ssi.txns.remove(&txn) {
                    for loc in rec.writes {
                        if let Some(entries) = ssi.writers.get_mut(&loc) {
                            entries.retain(|(w, _)| *w != txn);
                        }
                    }
                    for loc in rec.reads {
                        if let Some(readers) = ssi.sireads.get_mut(&loc) {
                            readers.retain(|r| *r != txn);
                        }
                    }
                }
            }
        }
        let floor = ssi
            .txns
            .values()
            .filter(|t| t.snapshot && t.committed.is_none())
            .map(|t| t.begin)
            .min();
        if quiesced && floor.is_none() {
            // Full quiescence: no live transactions at all. Drop every
            // record and close the gate — the next `begin_snapshot`
            // reopens it.
            ssi.txns.clear();
            ssi.sireads.clear();
            ssi.writers.clear();
            self.version_floor.store(u64::MAX, Ordering::SeqCst);
            self.ssi_enabled.store(0, Ordering::SeqCst);
        } else {
            // Raising the floor outside the termination lock is safe:
            // the new value is at or below every live snapshot's begin
            // stamp, so any fold that reads it preserves what they need.
            self.version_floor
                .store(floor.unwrap_or(u64::MAX), Ordering::SeqCst);
        }
    }

    // ------------------------------------------------------------------
    // Coordination internals
    // ------------------------------------------------------------------

    /// Claim a termination: atomically move the transaction from the live
    /// to the finished map. Exactly one caller wins; it is responsible for
    /// the lifecycle counters and for completing the termination in the
    /// transaction's other shards.
    fn claim(&self, txn: TxnId, fate: TermFate) -> Option<Vec<u32>> {
        let mut enroll = self.enroll.lock();
        let rec = enroll.live.remove(&txn)?;
        let state = match fate {
            TermFate::Committed => TxnState::Committed,
            TermFate::Aborted(_) => TxnState::Aborted,
        };
        enroll.finished.insert(txn, state);
        if self.ssi_enabled.load(Ordering::SeqCst) != 0 {
            // Finalize under the enrollment lock (enroll → ssi is the
            // one permitted nesting): stamp or retract the transaction's
            // SSI footprint and clear everything at quiescence.
            self.ssi_finalize(txn, fate, enroll.live.is_empty());
        }
        Some(rec.shards)
    }

    fn count_termination(&self, fate: TermFate) {
        let counter = match fate {
            TermFate::Committed => &self.lifecycle.commits,
            TermFate::Aborted(AbortReason::DeadlockCycle) => &self.lifecycle.aborts_deadlock,
            TermFate::Aborted(AbortReason::CommitDependencyCycle) => {
                &self.lifecycle.aborts_commit_cycle
            }
            TermFate::Aborted(AbortReason::VictimSelected) => &self.lifecycle.aborts_victim,
            TermFate::Aborted(AbortReason::SsiConflict) => &self.lifecycle.aborts_ssi,
            TermFate::Aborted(AbortReason::UndeclaredAccess) => {
                &self.lifecycle.aborts_undeclared
            }
            TermFate::Aborted(AbortReason::Explicit) => &self.lifecycle.aborts_explicit,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Process the side effects of a shard pass to fixpoint: forward the
    /// events, complete cross-shard terminations (a kernel only ever
    /// terminates a transaction locally), and re-run commit votes for
    /// coordinated transactions whose local dependencies cleared.
    fn absorb(&self, origin: u32, requester: Option<(TxnId, AbortReason)>, fx: ShardFx) {
        // Fast path: nothing happened (no events, no coordination, no
        // requester abort) — the common case for every commuting request.
        if requester.is_none() && fx.events.is_empty() && fx.ready.is_empty() {
            return;
        }
        let mut pending: Vec<(u32, ShardFx)> = vec![(origin, fx)];
        let mut terminations: Vec<(TxnId, TermFate, u32)> = Vec::new();
        let mut ready: Vec<TxnId> = Vec::new();
        if let Some((txn, reason)) = requester {
            terminations.push((txn, TermFate::Aborted(reason), origin));
        }
        loop {
            while let Some((shard, fx)) = pending.pop() {
                for event in &fx.events {
                    match event {
                        KernelEvent::Aborted { txn, reason } => {
                            terminations.push((*txn, TermFate::Aborted(*reason), shard));
                        }
                        KernelEvent::Committed { txn } => {
                            terminations.push((*txn, TermFate::Committed, shard));
                        }
                        KernelEvent::Unblocked {
                            txn,
                            outcome: RequestOutcome::Aborted { reason },
                        } => {
                            terminations.push((*txn, TermFate::Aborted(*reason), shard));
                        }
                        KernelEvent::Unblocked { .. } => {}
                    }
                }
                ready.extend(fx.ready);
                self.publish_events(fx.events);
            }
            if let Some((txn, fate, origin_shard)) = terminations.pop() {
                let Some(shards) = self.claim(txn, fate) else {
                    continue; // already completed by another path
                };
                self.count_termination(fate);
                if let TermFate::Aborted(reason) = fate {
                    // Aborts of multi-shard transactions originate in one
                    // shard (the requester's own thread, or a retry in the
                    // shard holding its pending request); complete them in
                    // the other shards.
                    for s in shards {
                        if s == origin_shard {
                            continue;
                        }
                        let mut kernel = self.lock_shard(s);
                        if kernel.abort_coordinated(txn, reason) {
                            let fx = drain_fx(&mut kernel);
                            drop(kernel);
                            pending.push((s, fx));
                        }
                    }
                }
                continue;
            }
            if let Some(txn) = ready.pop() {
                pending.extend(self.vote(txn));
                continue;
            }
            break;
        }
    }

    /// Make a decided multi-shard commit durable **before** any shard
    /// applies it in-memory: append each enrolled shard's fragment (tagged
    /// with a shared group id), flush every fragment, then append + flush
    /// the cross-shard marker. Recovery replays a fragment only when its
    /// marker is durable, so a crash anywhere inside this sequence loses
    /// the transaction *atomically* — the marker is written strictly after
    /// every fragment, making "marker without a fragment" unrepresentable
    /// on disk.
    ///
    /// Runs under the termination lock (both callers hold it), so the
    /// fragments' append order against other multi-shard commits matches
    /// their in-memory commit order. Marks the transaction `wal_logged` in
    /// every shard so the per-shard `actually_commit` does not log it
    /// again.
    fn wal_log_multi(&self, txn: TxnId, shards: &[u32]) {
        let Some(wal) = self.wal.get() else { return };
        let mut payloads: Vec<(u32, Vec<sbcc_wal::LoggedOp>)> = Vec::new();
        for &s in shards {
            let mut kernel = self.peek_shard(s);
            let ops = kernel.wal_payload(txn);
            kernel.mark_wal_logged(txn);
            drop(kernel);
            if !ops.is_empty() {
                payloads.push((s, ops));
            }
        }
        if payloads.is_empty() {
            return; // nothing executed anywhere: nothing to make durable
        }
        let gid = wal.next_gid();
        for (s, ops) in &payloads {
            wal.append_commit(*s, Some(gid), ops);
        }
        for (s, _) in &payloads {
            // A crash between two of these flushes leaves a fragment
            // durable without its marker; recovery must drop it.
            chaos::reach(ChaosPoint::WalFlush, Some(txn));
            wal.flush_shard(*s);
        }
        wal.commit_marker(gid);
    }

    /// Re-run the commit vote for a coordinated pseudo-committed
    /// transaction; on a unanimous (empty) dependency union, apply its
    /// actual commit shard by shard. Returns the side effects of the
    /// applications.
    fn vote(&self, txn: TxnId) -> Vec<(u32, ShardFx)> {
        // A `drain_coordination_ready` re-vote is starting: the window
        // between the original pseudo-commit vote and this re-vote is
        // where dependency settles and victim aborts interleave.
        chaos::reach(ChaosPoint::ReVote, Some(txn));
        let _termination = self.termination.lock();
        let shards: Vec<u32> = {
            let enroll = self.enroll.lock();
            match enroll.live.get(&txn) {
                Some(rec) if rec.pseudo => rec.shards.clone(),
                _ => return Vec::new(), // already terminated or not pseudo yet
            }
        };
        for &s in &shards {
            if !self.peek_shard(s).commit_dependencies_of(txn).is_empty() {
                return Vec::new(); // still waiting; a later settle re-votes
            }
        }
        // Same durability-before-visibility step as the direct unanimous
        // vote in `commit_multi` (the session's pseudo-commit ack made no
        // durability promise, so nobody waits on this).
        self.wal_log_multi(txn, &shards);
        // Like the direct unanimous vote: one stamp for every shard's
        // fold, drawn under the termination lock.
        let stamp = self.commit_clock.fetch_add(1, Ordering::SeqCst) + 1;
        let mut fxs = Vec::new();
        for &s in &shards {
            let mut kernel = self.lock_shard(s);
            kernel.commit_coordinated(txn, stamp);
            let fx = drain_fx(&mut kernel);
            drop(kernel);
            fxs.push((s, fx));
        }
        if self.claim(txn, TermFate::Committed).is_some() {
            self.count_termination(TermFate::Committed);
            self.publish_events(vec![KernelEvent::Committed { txn }]);
        }
        fxs
    }

    // ------------------------------------------------------------------
    // Observability and validation
    // ------------------------------------------------------------------

    /// Overwrite the summed transaction-lifecycle counters with the
    /// coordinator's globally deduplicated counts.
    fn apply_lifecycle(&self, aggregate: &mut KernelStats) {
        aggregate.transactions_begun = self.lifecycle.begun.load(Ordering::Relaxed);
        aggregate.commits = self.lifecycle.commits.load(Ordering::Relaxed);
        aggregate.pseudo_commits = self.lifecycle.pseudo_commits.load(Ordering::Relaxed);
        aggregate.aborts_deadlock = self.lifecycle.aborts_deadlock.load(Ordering::Relaxed);
        aggregate.aborts_commit_cycle =
            self.lifecycle.aborts_commit_cycle.load(Ordering::Relaxed);
        aggregate.aborts_victim = self.lifecycle.aborts_victim.load(Ordering::Relaxed);
        aggregate.aborts_ssi = self.lifecycle.aborts_ssi.load(Ordering::Relaxed);
        aggregate.aborts_undeclared = self.lifecycle.aborts_undeclared.load(Ordering::Relaxed);
        aggregate.aborts_explicit = self.lifecycle.aborts_explicit.load(Ordering::Relaxed);
    }

    /// Globally deduplicated counters: operation-level counters summed
    /// across shards, transaction-lifecycle counters from the coordinator.
    pub fn stats(&self) -> KernelStats {
        let mut aggregate = KernelStats::default();
        for cell in &self.shards {
            aggregate.accumulate(cell.kernel.lock().stats());
        }
        self.apply_lifecycle(&mut aggregate);
        aggregate
    }

    /// The aggregate plus the per-shard breakdown. The aggregate's
    /// operation-level counters are computed from the very per-shard
    /// readings reported alongside (one lock pass), so the breakdown
    /// always sums to the aggregate even while workers are running.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut reorder = sbcc_graph::OrderTelemetry::default();
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let kernel = cell.kernel.lock();
                reorder.accumulate(&kernel.reorder_telemetry());
                ShardStats {
                    shard: i,
                    lock_acquisitions: cell.lock_acquisitions.load(Ordering::Relaxed),
                    stats: kernel.stats().clone(),
                }
            })
            .collect();
        reorder.accumulate(&self.global.reorder_telemetry());
        let mut aggregate = KernelStats::default();
        for shard in &shards {
            aggregate.accumulate(&shard.stats);
        }
        self.apply_lifecycle(&mut aggregate);
        StatsSnapshot {
            aggregate,
            // The *resolved* topology: even under `ShardCount::Auto` this
            // records the concrete shard count the database is running
            // with, so simulation runs and bug reports capture it.
            shard_count: self.shards.len(),
            shards,
            global_cycle_checks: self.global.cycle_checks(),
            reorder,
        }
    }

    /// Cycle checks across all local graphs plus the escalation graph.
    pub fn cycle_checks(&self) -> u64 {
        let local: u64 = self
            .shards
            .iter()
            .map(|cell| cell.kernel.lock().cycle_checks())
            .sum();
        local + self.global.cycle_checks()
    }

    /// Check every shard's internal invariants plus the escalation graph's
    /// acyclicity.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            cell.kernel
                .lock()
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        if self.global.has_cycle() {
            return Err("cross-shard escalation graph contains a cycle".to_owned());
        }
        Ok(())
    }

    /// Run the commit-order serializability checker on every shard
    /// (requires history recording).
    pub fn verify_serializable(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            let kernel = cell.kernel.lock();
            crate::history::verify_commit_order_serializable(&kernel)
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Run the commit-order dependency checker on every shard.
    pub fn verify_commit_dependencies(&self) -> Result<(), String> {
        for (i, cell) in self.shards.iter().enumerate() {
            let kernel = cell.kernel.lock();
            crate::history::verify_commit_order_respects_dependencies(&kernel)
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_adt::{AdtOp, Counter, CounterOp, Stack, StackOp, Value};

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 8] {
            for name in ["a", "jobs", "obj123", ""] {
                let s = shard_of_name(name, shards);
                assert_eq!(s, shard_of_name(name, shards), "deterministic");
                assert!((s as usize) < shards);
            }
        }
        // With one shard everything routes to shard 0.
        assert_eq!(shard_of_name("anything", 1), 0);
    }

    #[test]
    fn config_builder_and_env_default() {
        let config = DatabaseConfig::new(SchedulerConfig::default());
        assert!(config.shards.resolve() >= 1);
        let config = config.with_shards(4);
        assert_eq!(config.shards, ShardCount::Fixed(4));
        assert_eq!(DatabaseConfig::default().scheduler, SchedulerConfig::default());
    }

    #[test]
    fn shard_count_parses_and_resolves() {
        assert_eq!("4".parse::<ShardCount>(), Ok(ShardCount::Fixed(4)));
        assert_eq!(" auto ".parse::<ShardCount>(), Ok(ShardCount::Auto));
        assert_eq!("AUTO".parse::<ShardCount>(), Ok(ShardCount::Auto));
        assert!("0".parse::<ShardCount>().is_err());
        assert!("".parse::<ShardCount>().is_err());
        assert!("-3".parse::<ShardCount>().is_err());
        assert_eq!(ShardCount::Fixed(7).resolve(), 7);
        assert_eq!(ShardCount::from(3), ShardCount::Fixed(3));
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(ShardCount::Auto.resolve(), cores);
        assert_eq!(ShardCount::Auto.to_string(), "auto");
        assert_eq!(ShardCount::Fixed(2).to_string(), "2");
    }

    #[test]
    fn auto_shards_build_one_kernel_per_core() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(ShardCount::Auto),
        );
        assert_eq!(kernel.shard_count(), ShardCount::Auto.resolve());
        // The resolved topology is recorded in the snapshot, so harness
        // reports and bug reports capture what `auto` actually meant.
        assert_eq!(kernel.stats_snapshot().shard_count, ShardCount::Auto.resolve());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = DatabaseConfig::new(SchedulerConfig::default()).with_shards(0);
    }

    #[test]
    fn registration_routes_by_name_hash_and_ids_stay_dense() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
        );
        for i in 0..16 {
            let name = format!("obj{i}");
            let (id, loc) = kernel.register(name.clone(), Counter::new()).unwrap();
            assert_eq!(id, ObjectId(i as u32), "global ids are dense");
            assert_eq!(loc.shard, shard_of_name(&name, 4));
            assert_eq!(kernel.object_id(&name), Some(id));
            assert_eq!(kernel.object_loc(id), Some(loc));
        }
        assert_eq!(kernel.object_count(), 16);
        assert!(kernel.register("obj0", Counter::new()).is_err(), "duplicate name");
        assert!(kernel.object_loc(ObjectId(99)).is_none());
    }

    #[test]
    fn opless_transaction_commits_and_counts_once() {
        let kernel = ShardedKernel::new(DatabaseConfig::default());
        let t = kernel.begin();
        assert_eq!(kernel.txn_state(t), Some(TxnState::Active));
        assert_eq!(kernel.commit(t).unwrap(), CommitOutcome::Committed);
        assert_eq!(kernel.txn_state(t), Some(TxnState::Committed));
        let stats = kernel.stats();
        assert_eq!(stats.transactions_begun, 1);
        assert_eq!(stats.commits, 1);
        // Terminated transactions reject further actions with the same
        // errors the unsharded kernel produces.
        assert!(matches!(
            kernel.commit(t),
            Err(CoreError::InvalidState { state: TxnState::Committed, .. })
        ));
        assert!(matches!(
            kernel.abort(t),
            Err(CoreError::InvalidState { .. })
        ));
        assert!(matches!(
            kernel.commit(TxnId(42)),
            Err(CoreError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn single_shard_requests_never_touch_the_escalation_graph() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(4),
        );
        let (a, _) = kernel.register("a", Stack::new()).unwrap();
        let t1 = kernel.begin();
        let t2 = kernel.begin();
        assert!(kernel
            .request(t1, a, StackOp::Push(Value::Int(1)).to_call())
            .unwrap()
            .is_executed());
        // Recoverable push: a commit-dep edge, entirely intra-shard.
        assert!(kernel
            .request(t2, a, StackOp::Push(Value::Int(2)).to_call())
            .unwrap()
            .is_executed());
        let snapshot = kernel.stats_snapshot();
        assert_eq!(snapshot.aggregate.escalated_edges, 0);
        assert_eq!(snapshot.aggregate.escalated_checks, 0);
        assert_eq!(snapshot.global_cycle_checks, 0);
        assert!(snapshot.aggregate.graph_edges >= 1);
        assert_eq!(snapshot.shards.len(), 4);
        let _ = kernel.commit(t1).unwrap();
        let _ = kernel.commit(t2).unwrap();
        kernel.check_invariants().unwrap();
        assert!(format!("{kernel:?}").contains("ShardedKernel"));
    }

    #[test]
    fn stats_snapshot_reports_per_shard_lock_traffic() {
        let kernel = ShardedKernel::new(
            DatabaseConfig::new(SchedulerConfig::default()).with_shards(2),
        );
        // Find names on both shards.
        let mut names: Vec<Option<String>> = vec![None, None];
        let mut i = 0;
        while names.iter().any(Option::is_none) {
            let candidate = format!("n{i}");
            let shard = shard_of_name(&candidate, 2) as usize;
            if names[shard].is_none() {
                names[shard] = Some(candidate);
            }
            i += 1;
        }
        let (a, loc_a) = kernel
            .register(names[0].clone().unwrap(), Counter::new())
            .unwrap();
        let (b, loc_b) = kernel
            .register(names[1].clone().unwrap(), Counter::new())
            .unwrap();
        assert_ne!(loc_a.shard, loc_b.shard);
        let t = kernel.begin();
        assert!(kernel.request(t, a, CounterOp::Increment(1).to_call()).unwrap().is_executed());
        assert!(kernel.request(t, b, CounterOp::Increment(1).to_call()).unwrap().is_executed());
        let _ = kernel.commit(t).unwrap();
        let snapshot = kernel.stats_snapshot();
        assert!(snapshot.shards[0].lock_acquisitions >= 1);
        assert!(snapshot.shards[1].lock_acquisitions >= 1);
        assert_eq!(snapshot.aggregate.operations_executed, 2);
        assert_eq!(snapshot.aggregate.commits, 1);
        // Per-shard lifecycle counters count local applications: the
        // multi-shard commit shows up in both kernels.
        let per_shard_commits: u64 =
            snapshot.shards.iter().map(|s| s.stats.commits).sum();
        assert_eq!(per_shard_commits, 2);
        assert!(!snapshot.shard_summary().is_empty());
    }

    /// The coordinator votes (collecting per-shard dependencies) and marks
    /// the pseudo-commit in two separate critical sections per shard; the
    /// last dependency can terminate in between. A pseudo-commit whose
    /// local out-degree is *already* zero must be reported as
    /// coordination-ready immediately — no later edge removal will ever
    /// re-report it. (Found as a cross-session hang by DST seed 133.)
    #[test]
    fn pseudo_commit_with_no_remaining_deps_is_immediately_coordination_ready() {
        let mut kernel = SchedulerKernel::new(SchedulerConfig::default());
        let txn = TxnId(1);
        kernel.adopt(txn, true);
        assert!(kernel.pseudo_commit_coordinated(txn));
        assert_eq!(
            kernel.drain_coordination_ready(),
            vec![txn],
            "dependency-free pseudo-commit must queue its re-vote at once"
        );
        assert_eq!(kernel.txn_state(txn), Some(TxnState::PseudoCommitted));
    }
}
