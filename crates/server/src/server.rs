//! The debug server: session registry, shards, and the run-queue
//! scheduler.
//!
//! ## Architecture
//!
//! Sessions are **sharded**: each session is pinned to one worker thread
//! (`shard = id % workers`), so a given simulator is only ever pumped by
//! a single thread and needs no internal synchronization. Within a
//! shard, a FIFO run queue with re-enqueue implements round-robin: one
//! scheduling *turn* drains the session's command mailbox, pumps at most
//! one bounded time slice, publishes deltas to subscribers, and — if run
//! budget remains — puts the session back at the tail of the queue.
//!
//! The `queued` flag on each session cell keeps the queue duplicate-free
//! without a scan: whoever flips it `false → true` (a command sender or
//! the worker re-enqueueing) owns the push. The worker clears the flag
//! *before* draining the mailbox, so a command arriving mid-turn always
//! re-queues the session rather than being stranded.
//!
//! Lock order is `inner → mailbox` (the worker and `wait_idle` both
//! follow it; command senders touch only the mailbox), so the server
//! cannot deadlock on its own locks.

use crate::event::{EngineEvent, SeekReport, SessionSnapshot, TraceSlice};
use crate::metrics::{
    self, Counter, HealthState, Histogram, MetricsRegistry, MetricsSnapshot, QuarantinedSession,
    SessionHealth, SessionInfo,
};
use crate::persist;
use crate::queue::{self, EventReceiver, EventSender};
use gmdf::{DebugSession, SessionSpec};
use gmdf_analyze::AnalysisReport;
use gmdf_comdes::SignalValue;
use gmdf_engine::store::DEFAULT_SEGMENT_CAPACITY;
use gmdf_engine::{
    checkpoint_stride, CheckpointMeta, CheckpointStore, Codec, EngineNotice, ExecutionTrace,
    MemStore, Retention, SegmentConfig, StoreError, TraceEntry,
};
use gmdf_gdm::CommandMatcher;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifies one hosted session for the lifetime of its server.
pub type SessionId = u64;

/// How long a worker sleeps between run-queue polls when idle, and the
/// re-check period of blocking waiters — a lost-wakeup backstop, not the
/// scheduling granularity (queue pushes notify immediately).
const POLL: Duration = Duration::from_millis(20);

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// a worker panic fails one session (see [`worker_loop`]), it must not
/// poison the whole server. Shared by the queue and wire modules, whose
/// locks follow the same policy.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the pump pool (minimum 1).
    pub workers: usize,
    /// Default per-turn time-slice budget, in target nanoseconds.
    pub slice_ns: u64,
    /// Default capacity of each subscriber's event queue. A slow
    /// subscriber overflowing it has consecutive `TraceDelta`s
    /// coalesced, then the oldest events dropped and announced by an
    /// in-stream [`EngineEvent::Lagged`] — the pump never blocks and
    /// never grows memory without bound on a stalled consumer.
    /// `0` = legacy unbounded queues (no loss, unbounded memory).
    pub subscriber_capacity: usize,
    /// Shared-secret token wire clients must present in their `Hello`
    /// frame (compared in constant time). `None` = no authentication:
    /// any `Hello` (with or without a token) is accepted. Only the wire
    /// layer consults this; in-process handles are never gated.
    pub auth_token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            slice_ns: 1_000_000,
            subscriber_capacity: 1024,
            auth_token: None,
        }
    }
}

/// Where (and how) a persistent server journals its durable sessions.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Root directory of the session registry
    /// (`<root>/sessions/<id>/…`). Created on demand.
    pub root: PathBuf,
    /// Entries per trace segment file
    /// ([`gmdf_engine::SegmentStore`] capacity).
    pub segment_capacity: usize,
    /// Trace record codec for *new* durable sessions. Existing session
    /// directories keep whatever their `meta.json` records, so a server
    /// reconfigured mid-fleet reopens old sessions correctly.
    pub codec: Codec,
    /// Compaction/retention policy applied to every durable session's
    /// trace store. Disabled by default (nothing is compressed or
    /// evicted — the pre-retention behavior).
    pub retention: Retention,
    /// How often the background compactor sweeps the durable sessions.
    /// Only consulted when `retention` is active.
    pub compact_interval: Duration,
    /// Full-state checkpoint cadence, in trace entries: after a pumped
    /// slice, a durable session whose trace grew by at least this many
    /// entries since the last checkpoint file commits a new one
    /// (crash-safely, next to its journal). In between it images its
    /// state every `interval / 16` entries (the stride) and stages the
    /// images in memory; each file holds the images staged since the
    /// previous one. Checkpoints are what make
    /// [`SessionCommand::SeekTo`] / [`SessionCommand::StepBack`] /
    /// [`SessionCommand::ReplayWindow`] O(stride) instead of
    /// O(whole trace). `0` disables checkpointing (seeks fall back to
    /// replay-from-zero).
    pub checkpoint_interval: u64,
}

/// Default [`PersistConfig::checkpoint_interval`]: one fsync'd file
/// per 4096 entries keeps checkpoint writes far off the pump's hot
/// path, and its 256-entry stride bounds a seek's replay to a few
/// hundred entries.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;

impl PersistConfig {
    /// Persistence rooted at `root` with the default segment capacity,
    /// the binary trace codec, and retention disabled.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        PersistConfig {
            root: root.into(),
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
            codec: Codec::Binary,
            retention: Retention::default(),
            compact_interval: Duration::from_millis(250),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// Overrides the trace segment capacity (entries per segment).
    #[must_use]
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.max(1);
        self
    }

    /// Overrides the trace record codec for new durable sessions.
    #[must_use]
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the compaction/retention policy for durable-session traces.
    #[must_use]
    pub fn with_retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Overrides how often the background compactor runs.
    #[must_use]
    pub fn with_compact_interval(mut self, interval: Duration) -> Self {
        self.compact_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Overrides the checkpoint cadence (trace entries between
    /// full-state checkpoints; `0` disables checkpointing).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, entries: u64) -> Self {
        self.checkpoint_interval = entries;
        self
    }

    /// The store-level configuration this policy expands to.
    pub(crate) fn segment_config(&self) -> SegmentConfig {
        SegmentConfig {
            capacity: self.segment_capacity,
            codec: self.codec,
            retention: self.retention,
        }
    }
}

/// Cap on the entries one [`SessionCommand::FetchRange`] /
/// [`SessionCommand::ReplayFrom`] reply carries. While
/// [`TraceSlice::complete`] is false, clients continue with
/// [`SessionCommand::ReplayFrom`] at `last().seq + 1` until
/// [`TraceSlice::end_seq`] — `FetchRange` itself has no sequence
/// parameter, so re-issuing it only returns the same first page.
pub const MAX_FETCH_ENTRIES: u64 = 4096;

/// Cap on the *encoded* payload one [`SessionCommand::FetchRange`] /
/// [`SessionCommand::ReplayFrom`] reply carries. An entry count alone
/// does not bound a page — 4096 entries of pathological width would
/// overflow the 64 MiB wire frame and reach the client as an error
/// instead of data — so the page is also cut at this many JSON bytes
/// (half the frame limit, leaving room for the envelope). A page always
/// carries at least one entry, so paging makes progress even past an
/// oversized record.
pub const MAX_FETCH_BYTES: u64 = 32 * 1024 * 1024;

/// One request to a hosted session — the whole vocabulary, shared by
/// the in-process [`SessionHandle::call`], the wire
/// ([`crate::proto::ClientFrame::Command`]) and the durable journal.
///
/// Plain data: the first six variants change session state (durable
/// sessions journal them), the other six are queries
/// ([`SessionCommand::is_query`]) answered with a [`Reply`] and never
/// journaled. Requests are applied in arrival order at the session's
/// next scheduling turn; a failed session still answers queries but
/// ignores run budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SessionCommand {
    /// Schedule an environment stimulus on the target. An unknown label
    /// fails the session (it indicates a wiring bug in the client).
    ScheduleSignal {
        /// Absolute target time of the write.
        time_ns: u64,
        /// Board label to write.
        label: String,
        /// Value to write.
        value: SignalValue,
    },
    /// Install a model-level breakpoint on the engine.
    AddBreakpoint {
        /// Events that trigger the pause.
        matcher: CommandMatcher,
        /// Remove after the first hit.
        one_shot: bool,
    },
    /// Remove all breakpoints.
    ClearBreakpoints,
    /// While paused: process exactly one queued engine command.
    Step,
    /// Resume the engine, draining queued commands until empty or the
    /// next breakpoint.
    Resume,
    /// Add run budget: pump the target `duration_ns` further (sliced by
    /// the scheduler).
    RunFor {
        /// Additional target time to run, in nanoseconds.
        duration_ns: u64,
    },
    /// Query: a consistent [`Reply::Snapshot`] of the session.
    Snapshot {
        /// Also serialize the full trace (O(trace length); leave off
        /// for cheap counter polls).
        include_trace: bool,
    },
    /// Query: the trace entries whose event time falls in
    /// `[t0_ns, t1_ns]` as one [`Reply::Trace`] page — located through
    /// the store's time index, so a narrow window over a long
    /// disk-backed trace reads only its own segments. Capped at
    /// [`MAX_FETCH_ENTRIES`] entries and [`MAX_FETCH_BYTES`] of encoded
    /// payload.
    FetchRange {
        /// Window start (inclusive), in target nanoseconds.
        t0_ns: u64,
        /// Window end (inclusive), in target nanoseconds.
        t1_ns: u64,
    },
    /// Query: up to `limit` trace entries starting at sequence number
    /// `seq`, as one [`Reply::Trace`] page — how clients page history
    /// (including the persisted pre-restart prefix of a durable
    /// session) without holding the whole trace.
    ReplayFrom {
        /// First sequence number wanted.
        seq: u64,
        /// Page size; `0` means the server cap ([`MAX_FETCH_ENTRIES`]),
        /// larger values are clamped to it. The reply is additionally
        /// bounded by [`MAX_FETCH_BYTES`] of encoded payload.
        limit: u64,
    },
    /// Query: a [`Reply::Seek`] for the session's state at target time
    /// `t_ns` (clamped to the live clock). The server restores the
    /// nearest checkpoint image at or before the target into a
    /// detached replica and deterministically replays it forward —
    /// O(checkpoint stride), not O(trace length). The live session is
    /// never touched. Requires a durable session; a seek failure is the
    /// request's [`ServerError::Persist`], never a session failure.
    SeekTo {
        /// Target instant, in target nanoseconds.
        t_ns: u64,
        /// Also serialize the replica's full trace into
        /// [`SeekReport::trace_json`] (O(trace length) to build).
        include_trace: bool,
    },
    /// Query: a [`Reply::Seek`] for the instant `entries` trace entries
    /// before the current end of the trace — "rewind N steps". Same
    /// checkpoint-restore machinery as [`Self::SeekTo`]; stepping below
    /// the trace's retention floor is an error.
    StepBack {
        /// How many trace entries to step back from the end.
        entries: u64,
        /// Also serialize the replica's full trace.
        include_trace: bool,
    },
    /// Query: the trace entries whose event time falls in
    /// `[t0_ns, t1_ns]`, regenerated by checkpoint-restore + replay
    /// rather than read from the live store — so the window is
    /// available even on a session whose early segments were evicted,
    /// as long as a checkpoint precedes it. Paged exactly like
    /// [`Self::FetchRange`] (same caps, same [`TraceSlice`] contract);
    /// fails like [`Self::SeekTo`].
    ReplayWindow {
        /// Window start (inclusive), in target nanoseconds.
        t0_ns: u64,
        /// Window end (inclusive), in target nanoseconds.
        t1_ns: u64,
    },
}

impl SessionCommand {
    /// `true` for the six read-only queries. Queries are answered with a
    /// [`Reply`] carrying data and are not part of the replayable
    /// history; everything else changes session state, is acknowledged
    /// on enqueue ([`Reply::Ack`]) and is journaled by durable sessions.
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            SessionCommand::Snapshot { .. }
                | SessionCommand::FetchRange { .. }
                | SessionCommand::ReplayFrom { .. }
                | SessionCommand::SeekTo { .. }
                | SessionCommand::StepBack { .. }
                | SessionCommand::ReplayWindow { .. }
        )
    }

    /// Applies a state-changing command to `session` and returns the run
    /// budget it grants (`RunFor`'s duration, else 0) — the caller
    /// decides whether to bank it (live session, restart replay) or let
    /// its own pump realize it (seek replica). Queries change nothing.
    /// The one place a journaled command takes effect: the live
    /// session, the restart replay and the seek replica all go through
    /// it, so the three cannot drift apart.
    pub(crate) fn apply(&self, session: &mut DebugSession) -> Result<u64, String> {
        match self {
            SessionCommand::ScheduleSignal {
                time_ns,
                label,
                value,
            } => session
                .schedule_signal(*time_ns, label, *value)
                .map_err(|e| e.to_string())?,
            SessionCommand::AddBreakpoint { matcher, one_shot } => {
                session
                    .engine_mut()
                    .add_breakpoint(matcher.clone(), *one_shot);
            }
            SessionCommand::ClearBreakpoints => session.engine_mut().clear_breakpoints(),
            SessionCommand::Step => {
                session.engine_mut().step();
            }
            SessionCommand::Resume => {
                session.engine_mut().resume();
            }
            SessionCommand::RunFor { duration_ns } => return Ok(*duration_ns),
            SessionCommand::Snapshot { .. }
            | SessionCommand::FetchRange { .. }
            | SessionCommand::ReplayFrom { .. }
            | SessionCommand::SeekTo { .. }
            | SessionCommand::StepBack { .. }
            | SessionCommand::ReplayWindow { .. } => {}
        }
        Ok(0)
    }
}

/// The answer to one [`SessionCommand`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A state change was accepted into the mailbox.
    Ack,
    /// Answer to [`SessionCommand::Snapshot`].
    Snapshot(SessionSnapshot),
    /// Answer to [`SessionCommand::FetchRange`],
    /// [`SessionCommand::ReplayFrom`] and
    /// [`SessionCommand::ReplayWindow`]: one page of trace history.
    Trace(TraceSlice),
    /// Answer to [`SessionCommand::SeekTo`] and
    /// [`SessionCommand::StepBack`] (boxed: the optional serialized
    /// trace makes it the largest reply).
    Seek(Box<SeekReport>),
}

impl TryFrom<Reply> for SessionSnapshot {
    type Error = Reply;
    fn try_from(reply: Reply) -> Result<Self, Reply> {
        match reply {
            Reply::Snapshot(snapshot) => Ok(snapshot),
            other => Err(other),
        }
    }
}

impl TryFrom<Reply> for TraceSlice {
    type Error = Reply;
    fn try_from(reply: Reply) -> Result<Self, Reply> {
        match reply {
            Reply::Trace(slice) => Ok(slice),
            other => Err(other),
        }
    }
}

impl TryFrom<Reply> for SeekReport {
    type Error = Reply;
    fn try_from(reply: Reply) -> Result<Self, Reply> {
        match reply {
            Reply::Seek(report) => Ok(*report),
            other => Err(other),
        }
    }
}

/// Where a query's answer goes: the waiting [`SessionHandle::call`].
type ReplyTx = mpsc::Sender<Result<Reply, ServerError>>;

/// Server-side failure surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The server has shut down; the operation cannot complete.
    Shutdown,
    /// A blocking wait exceeded its deadline.
    Timeout,
    /// The session failed (simulator fault, bad stimulus…); the message
    /// is the underlying error.
    SessionFailed(String),
    /// Session persistence failed (registry I/O, corrupt journal,
    /// restore mismatch) or was requested on a non-persistent server.
    Persist(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Shutdown => write!(f, "debug server has shut down"),
            ServerError::Timeout => write!(f, "timed out waiting on the debug server"),
            ServerError::SessionFailed(m) => write!(f, "session failed: {m}"),
            ServerError::Persist(m) => write!(f, "session persistence failed: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Mutable per-session state, owned by whichever thread holds the lock.
#[derive(Debug)]
struct SessionInner {
    session: DebugSession,
    /// Engine-level notification hook (violations, breakpoint hits).
    notices: mpsc::Receiver<EngineNotice>,
    /// Run budget not yet consumed.
    remaining_ns: u64,
    /// Per-turn slice budget.
    slice_ns: u64,
    /// First trace sequence number subscribers have not seen yet.
    trace_cursor: u64,
    subscribers: Vec<EventSender>,
    events_fed: u64,
    violations: u64,
    breakpoint_hits: u64,
    failed: Option<String>,
    /// Durable sessions journal every state-affecting command here
    /// before applying it; `None` for in-memory sessions.
    journal: Option<persist::Journal>,
    /// Records appended to (or restored from) the journal so far — the
    /// position a checkpoint records as its
    /// [`persist::ServerCheckpoint::journal_pos`].
    journal_len: u64,
    /// Periodic full-state checkpoint images (committed and staged) for
    /// O(stride) time travel;
    /// `None` for in-memory sessions (and for durable sessions whose
    /// checkpoint directory failed to open on restore — seeks then fall
    /// back to replay-from-zero).
    checkpoints: Option<CheckpointStore>,
    /// Trace entries between checkpoint files; `0` disables
    /// checkpointing.
    checkpoint_interval: u64,
    /// Trace length at the last committed checkpoint file.
    last_checkpoint_len: u64,
    /// Trace length at the last checkpoint image (staged or committed).
    last_image_len: u64,
    /// The durable session's spec, parsed once: every seek builds its
    /// replica from it. `None` for in-memory sessions.
    spec: Option<SessionSpec>,
    /// The durable session's directory (spec + journal live here);
    /// `None` for in-memory sessions. Seeks re-read the journal to
    /// build the replica.
    dir: Option<PathBuf>,
    /// Cumulative events dropped by this session's bounded subscriber
    /// queues — each queue holds a clone, so drops survive the queue
    /// that suffered them. Always on (it feeds
    /// [`SessionSnapshot::lagged_drops`]), independent of the metrics
    /// registry.
    lagged: Counter,
    /// Wall-clock instant of the last pumped slice.
    last_slice: Option<Instant>,
}

/// One hosted session: state + mailbox + scheduling flags.
#[derive(Debug)]
struct SessionCell {
    id: SessionId,
    shard: usize,
    inner: Mutex<SessionInner>,
    /// Paired with `inner`; notified whenever a turn leaves the session
    /// quiescent.
    idle_cv: Condvar,
    mailbox: Mutex<VecDeque<(SessionCommand, Option<ReplyTx>)>>,
    /// `true` while the session sits in (or is being pushed onto) its
    /// shard's run queue.
    queued: AtomicBool,
    /// When the session registered with this server process (uptime
    /// base for health reporting).
    registered_at: Instant,
    /// Static analysis of the session's spec, run once at registration
    /// and cached for the session's lifetime (the spec never changes).
    /// Analysis failures degrade to a one-error report — a session is
    /// never refused over its diagnostics.
    analysis: Arc<AnalysisReport>,
}

impl SessionCell {
    /// `true` while the session has work: run budget, a turn queued, or
    /// mail. Takes the mailbox lock, so the caller holds `inner` (lock
    /// order `inner → mailbox`).
    fn busy(&self, inner: &SessionInner) -> bool {
        inner.remaining_ns > 0
            || self.queued.load(Ordering::SeqCst)
            || !lock(&self.mailbox).is_empty()
    }

    /// The health state directory and metrics rows report.
    fn health(&self, inner: &SessionInner) -> HealthState {
        if inner.failed.is_some() {
            HealthState::Failed
        } else if self.busy(inner) {
            HealthState::Running
        } else {
            HealthState::Parked
        }
    }
}

/// One worker's run queue.
#[derive(Debug)]
struct Shard {
    queue: Mutex<VecDeque<Arc<SessionCell>>>,
    cv: Condvar,
}

/// State shared between the server front and its workers.
#[derive(Debug)]
struct Shared {
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    default_slice_ns: u64,
    default_subscriber_capacity: usize,
    /// The observability registry every layer records into.
    metrics: Arc<MetricsRegistry>,
    /// Wire-handshake shared secret ([`ServerConfig::auth_token`]).
    auth_token: Option<String>,
}

impl Shared {
    /// Puts `cell` on its shard's run queue unless it is already there.
    /// Returns `false` if the server is (or just became) shut down, in
    /// which case the cell may never be scheduled again.
    fn enqueue(&self, cell: &Arc<SessionCell>) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if !cell.queued.swap(true, Ordering::SeqCst) {
            let shard = &self.shards[cell.shard];
            lock(&shard.queue).push_back(Arc::clone(cell));
            shard.cv.notify_one();
        }
        // Shutdown may have raced the push; workers exit without
        // draining their queues, so report it rather than claiming the
        // command will run.
        !self.shutdown.load(Ordering::SeqCst)
    }
}

/// A multi-session debug server over a fixed worker-thread pool.
///
/// Dropping the server shuts it down: workers are signalled, finish at
/// most one bounded slice each, and are joined. Hosted sessions are
/// dropped with it; outstanding [`SessionHandle`]s turn into
/// [`ServerError::Shutdown`] errors instead of hanging.
#[derive(Debug)]
pub struct DebugServer {
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<Arc<SessionCell>>>>,
    workers: Vec<JoinHandle<()>>,
    /// The background compaction sweep, when retention is active.
    compactor: Option<JoinHandle<()>>,
    /// Set on persistent servers: where durable sessions live.
    persist: Option<PersistConfig>,
    /// Persisted sessions that failed to restore, with the reason.
    quarantined: Vec<(SessionId, String)>,
}

impl DebugServer {
    /// Boots the worker pool and returns the (initially empty) server.
    pub fn start(config: ServerConfig) -> Self {
        Self::boot(config, None)
    }

    /// Boots a **persistent** server: durable sessions journal their
    /// spec, commands and trace under `persist.root`, and any sessions
    /// already persisted there are recreated — their traces recovered
    /// from disk, their command history deterministically replayed to
    /// the point the old process reached, and any outstanding run
    /// budget handed back to the scheduler. Restored sessions keep
    /// their ids; new ids continue above the highest restored one.
    ///
    /// A session that fails to restore (corrupt spec, tampered
    /// journal…) is **quarantined**, not fatal: its directory is left
    /// on disk untouched for inspection, its id is never reused, the
    /// failure is reported through
    /// [`DebugServer::quarantined_sessions`], and every other session
    /// boots normally — one damaged session must never brick the whole
    /// registry.
    ///
    /// # Errors
    ///
    /// [`ServerError::Persist`] is reserved for registry-level
    /// failures; per-session restore failures are quarantined instead.
    pub fn start_persistent(
        config: ServerConfig,
        persist: PersistConfig,
    ) -> Result<Self, ServerError> {
        let mut server = Self::boot(config, Some(persist.clone()));
        let ids = persist::persisted_ids(&persist.root);
        for id in ids {
            // Reserve the id either way: a fresh session must never be
            // created over a quarantined directory.
            server.shared.next_id.fetch_max(id + 1, Ordering::SeqCst);
            match persist::restore_session(&persist.root, id, persist.segment_config()) {
                Ok(restored) => {
                    // A checkpoint store that fails to open degrades the
                    // session to checkpoint-less (seeks replay from
                    // zero) rather than quarantining it — checkpoints
                    // are derived state, the journal is the truth.
                    let checkpoints =
                        CheckpointStore::open(persist::checkpoint_dir(&persist.root, id)).ok();
                    let dir = persist::session_dir(&persist.root, id);
                    let checkpoint_interval = persist.checkpoint_interval;
                    server.register(id, restored.session, restored.notices, |inner| {
                        inner.remaining_ns = restored.remaining_ns;
                        inner.trace_cursor = restored.trace_cursor;
                        inner.events_fed = restored.events_fed;
                        inner.violations = restored.violations;
                        inner.breakpoint_hits = restored.breakpoint_hits;
                        inner.journal = Some(restored.journal);
                        inner.journal_len = restored.journal_len;
                        inner.dir = Some(dir);
                        inner.spec = Some(restored.spec);
                        inner.checkpoint_interval = checkpoint_interval;
                        if let Some(cs) = checkpoints {
                            inner.last_checkpoint_len = cs.latest().map_or(0, |m| m.seq);
                            inner.last_image_len = inner.last_checkpoint_len;
                            // Segments at or above the oldest checkpoint
                            // file must outlive retention eviction, as
                            // when the session first wrote it.
                            if let Some(oldest) = cs.oldest_file_seq() {
                                inner.session.set_trace_retain_floor(oldest);
                            }
                            inner.checkpoints = Some(cs);
                        }
                    });
                }
                Err(message) => server.quarantined.push((id, message)),
            }
        }
        Ok(server)
    }

    /// Persisted sessions that failed to restore at the last
    /// [`DebugServer::start_persistent`], with the reason. Their
    /// directories are left on disk for inspection and their ids are
    /// not reused.
    pub fn quarantined_sessions(&self) -> &[(SessionId, String)] {
        &self.quarantined
    }

    fn boot(config: ServerConfig, persist: Option<PersistConfig>) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            default_slice_ns: config.slice_ns.max(1),
            default_subscriber_capacity: config.subscriber_capacity,
            metrics: Arc::new(MetricsRegistry::new(workers)),
            auth_token: config.auth_token,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gmdf-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        let sessions: Arc<Mutex<Vec<Arc<SessionCell>>>> = Arc::new(Mutex::new(Vec::new()));
        // With retention active, a background sweep periodically gives
        // every session's trace store a maintenance turn (compress one
        // cold segment, evict while over budget). It runs outside the
        // pump path — a sweep takes each session's state lock briefly,
        // so the scheduler never stalls behind compression.
        let compactor = persist
            .as_ref()
            .filter(|p| p.retention.is_active())
            .map(|p| {
                let shared = Arc::clone(&shared);
                let sessions = Arc::clone(&sessions);
                let interval = p.compact_interval;
                std::thread::Builder::new()
                    .name("gmdf-compactor".to_owned())
                    .spawn(move || compactor_loop(&shared, &sessions, interval))
                    .expect("spawn compactor thread")
            });
        DebugServer {
            shared,
            sessions,
            workers: handles,
            compactor,
            persist,
            quarantined: Vec::new(),
        }
    }

    /// Takes ownership of `session` and registers it with the scheduler
    /// (idle until its first command). The session is pinned to the
    /// shard `id % workers`. The session is in-memory: its trace and
    /// command history die with the server — see
    /// [`DebugServer::add_durable_session`] for ones that survive a
    /// restart.
    pub fn add_session(&self, mut session: DebugSession) -> SessionHandle {
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let notices = session.engine_mut().subscribe();
        self.register(id, session, notices, |_| {})
    }

    /// Builds a **durable** session from `spec` and registers it. The
    /// spec is written to the session registry, every state-affecting
    /// command is journaled, and the trace records into a segmented
    /// on-disk store next to the journal — a server restarted over the
    /// same [`PersistConfig::root`] recreates the session and finishes
    /// its run ([`DebugServer::start_persistent`]).
    ///
    /// # Errors
    ///
    /// [`ServerError::Persist`] on a non-persistent server or registry
    /// I/O failure, [`ServerError::SessionFailed`] when the spec does
    /// not build.
    pub fn add_durable_session(&self, spec: &SessionSpec) -> Result<SessionHandle, ServerError> {
        let Some(persist) = &self.persist else {
            return Err(ServerError::Persist(
                "server was not started with persistence (use start_persistent)".to_owned(),
            ));
        };
        let mut session = spec
            .build()
            .map_err(|e| ServerError::SessionFailed(e.to_string()))?;
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let (journal, store) =
            persist::create_session_dir(&persist.root, id, spec, persist.segment_config())
                .map_err(ServerError::Persist)?;
        let checkpoints = CheckpointStore::open(persist::checkpoint_dir(&persist.root, id))
            .map_err(|e| ServerError::Persist(format!("cannot open checkpoint store: {e}")))?;
        session.set_trace_store(Box::new(store));
        let notices = session.engine_mut().subscribe();
        let dir = persist::session_dir(&persist.root, id);
        let checkpoint_interval = persist.checkpoint_interval;
        Ok(self.register(id, session, notices, |inner| {
            inner.journal = Some(journal);
            inner.checkpoints = Some(checkpoints);
            inner.checkpoint_interval = checkpoint_interval;
            inner.spec = Some(spec.clone());
            inner.dir = Some(dir);
        }))
    }

    /// Registers a cell for `session` under `id`, applying `init` to
    /// the fresh state (restored budgets, counters, journal). A cell
    /// left with run budget is scheduled immediately.
    fn register(
        &self,
        id: SessionId,
        session: DebugSession,
        notices: mpsc::Receiver<EngineNotice>,
        init: impl FnOnce(&mut SessionInner),
    ) -> SessionHandle {
        let shard = (id as usize) % self.shared.shards.len();
        let analysis = Arc::new(session.analyze().unwrap_or_else(|e| {
            AnalysisReport::from_failure(&session.simulator().image().system, e.to_string())
        }));
        let mut inner = SessionInner {
            session,
            notices,
            remaining_ns: 0,
            slice_ns: self.shared.default_slice_ns,
            trace_cursor: 0,
            subscribers: Vec::new(),
            events_fed: 0,
            violations: 0,
            breakpoint_hits: 0,
            failed: None,
            journal: None,
            journal_len: 0,
            checkpoints: None,
            checkpoint_interval: 0,
            last_checkpoint_len: 0,
            last_image_len: 0,
            spec: None,
            dir: None,
            lagged: Counter::new(),
            last_slice: None,
        };
        init(&mut inner);
        // After `init`: a durable/restored session has already swapped
        // its trace store in, which builds a fresh trace without a
        // metrics sink — attach it last.
        inner
            .session
            .engine_mut()
            .set_trace_metrics(Arc::clone(&self.shared.metrics.store));
        let resume = inner.remaining_ns > 0;
        let cell = Arc::new(SessionCell {
            id,
            shard,
            inner: Mutex::new(inner),
            idle_cv: Condvar::new(),
            mailbox: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
            registered_at: Instant::now(),
            analysis,
        });
        lock(&self.sessions).push(Arc::clone(&cell));
        if resume {
            let _ = self.shared.enqueue(&cell);
        }
        SessionHandle {
            cell,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of hosted sessions.
    pub fn session_count(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Ids of every hosted session, in registration order — what a
    /// remote client is offered at attach time.
    pub fn session_ids(&self) -> Vec<SessionId> {
        lock(&self.sessions).iter().map(|c| c.id).collect()
    }

    /// A fresh handle to hosted session `id`, or `None` for an unknown
    /// id. This is how late-joining clients (e.g. wire connections)
    /// attach to sessions added by someone else.
    pub fn handle(&self, id: SessionId) -> Option<SessionHandle> {
        lock(&self.sessions)
            .iter()
            .find(|cell| cell.id == id)
            .map(|cell| SessionHandle {
                cell: Arc::clone(cell),
                shared: Arc::clone(&self.shared),
            })
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The session directory a wire v4 `ListSessions` reply carries:
    /// one [`SessionInfo`] row per hosted session (registration order),
    /// followed by one per quarantined id (zeroed progress fields).
    /// Much cheaper than [`DebugServer::metrics_snapshot`] — each
    /// session's state lock is taken just long enough to read its
    /// health state, clock, and trace length.
    pub fn session_directory(&self) -> Vec<SessionInfo> {
        let cells: Vec<Arc<SessionCell>> = lock(&self.sessions).clone();
        let mut rows = Vec::with_capacity(cells.len() + self.quarantined.len());
        for cell in &cells {
            let inner = lock(&cell.inner);
            let state = cell.health(&inner);
            rows.push(SessionInfo {
                session: cell.id,
                state,
                now_ns: inner.session.now_ns(),
                trace_len: inner.session.engine().trace().len() as u64,
                diagnostics: cell.analysis.diagnostic_counts(),
            });
        }
        for (id, _) in &self.quarantined {
            rows.push(SessionInfo {
                session: *id,
                state: HealthState::Quarantined,
                now_ns: 0,
                trace_len: 0,
                diagnostics: (0, 0),
            });
        }
        rows
    }

    /// The cached static-analysis report for session `id`, or `None`
    /// for an unknown id. Computed once at registration (the spec is
    /// immutable for the session's lifetime) — this never takes the
    /// session's state lock, so it is safe on the wire reader path.
    pub fn analysis(&self, id: SessionId) -> Option<Arc<AnalysisReport>> {
        lock(&self.sessions)
            .iter()
            .find(|cell| cell.id == id)
            .map(|cell| Arc::clone(&cell.analysis))
    }

    /// The wire-handshake shared secret, when one is configured.
    pub(crate) fn auth_token(&self) -> Option<&str> {
        self.shared.auth_token.as_deref()
    }

    /// The observability registry the server records into.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The full observability read-out: fleet aggregates from the
    /// registry plus one health row per hosted session (briefly taking
    /// each session's state lock in turn — not a stop-the-world cut)
    /// and the quarantine list.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let registry = &self.shared.metrics;
        let mut fleet = metrics::fleet_skeleton(registry);
        let cells: Vec<Arc<SessionCell>> = lock(&self.sessions).clone();
        fleet.sessions = cells.len() as u64;
        let mut sessions = Vec::with_capacity(cells.len() + self.quarantined.len());
        for cell in &cells {
            let inner = lock(&cell.inner);
            let state = cell.health(&inner);
            let store_stats = inner.session.engine().trace().store_stats();
            let (memo_hits, memo_misses) = inner.session.simulator().memo_stats();
            fleet.events_fed += inner.events_fed;
            fleet.lagged_drops += inner.lagged.get();
            fleet.trace_segments += store_stats.segments;
            fleet.trace_disk_bytes += store_stats.disk_bytes;
            fleet.trace_compacted_segments += store_stats.compacted_segments;
            fleet.memo_hits += memo_hits;
            fleet.memo_misses += memo_misses;
            sessions.push(SessionHealth {
                session: cell.id,
                state,
                detail: inner.failed.clone(),
                uptime_ms: cell.registered_at.elapsed().as_millis() as u64,
                last_slice_age_ms: inner.last_slice.map(|t| t.elapsed().as_millis() as u64),
                now_ns: inner.session.now_ns(),
                trace_len: inner.session.engine().trace().len() as u64,
                trace_segments: store_stats.segments,
                trace_bytes: store_stats.disk_bytes,
                events_fed: inner.events_fed,
                violations: inner.violations,
                breakpoint_hits: inner.breakpoint_hits,
                lagged_drops: inner.lagged.get(),
                remaining_ns: inner.remaining_ns,
                subscribers: inner.subscribers.len() as u64,
                memo_hits,
                memo_misses,
            });
        }
        let quarantined: Vec<QuarantinedSession> = self
            .quarantined
            .iter()
            .map(|(id, reason)| QuarantinedSession {
                session: *id,
                reason: reason.clone(),
            })
            .collect();
        for q in &quarantined {
            sessions.push(SessionHealth {
                session: q.session,
                state: HealthState::Quarantined,
                detail: Some(q.reason.clone()),
                uptime_ms: 0,
                last_slice_age_ms: None,
                now_ns: 0,
                trace_len: 0,
                trace_segments: 0,
                trace_bytes: 0,
                events_fed: 0,
                violations: 0,
                breakpoint_hits: 0,
                lagged_drops: 0,
                remaining_ns: 0,
                subscribers: 0,
                memo_hits: 0,
                memo_misses: 0,
            });
        }
        MetricsSnapshot {
            fleet,
            sessions,
            quarantined,
        }
    }

    /// [`DebugServer::metrics_snapshot`] rendered in Prometheus text
    /// exposition format — scrape-ready (the `fleet_dashboard` example
    /// polls it over TCP).
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// Stops the scheduler: signals every worker, joins the pool, and
    /// releases all sessions. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            // Take the queue lock so a worker between its shutdown check
            // and its cv wait cannot miss the notification.
            let _guard = lock(&shard.queue);
            shard.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
        // Wake blocking waiters (wait_idle) so they observe the
        // shutdown instead of sleeping out their timeout.
        for cell in lock(&self.sessions).iter() {
            cell.idle_cv.notify_all();
        }
    }
}

impl Drop for DebugServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's handle to one hosted session. Cloneable; all clones
/// address the same session.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    cell: Arc<SessionCell>,
    shared: Arc<Shared>,
}

impl SessionHandle {
    /// The session's server-assigned id.
    pub fn id(&self) -> SessionId {
        self.cell.id
    }

    /// The session's cached static-analysis report (computed at
    /// registration; see [`DebugServer::analysis`]).
    pub fn analysis(&self) -> Arc<AnalysisReport> {
        Arc::clone(&self.cell.analysis)
    }

    /// Sends one request to the session — the single in-process entry
    /// point every typed verb below wraps. A state change is posted to
    /// the mailbox and acknowledged at once with [`Reply::Ack`] (it takes
    /// effect at the session's next turn; `timeout` is unused). A query
    /// ([`SessionCommand::is_query`]) round-trips through the mailbox —
    /// so its answer is ordered after every request posted before it —
    /// and waits up to `timeout` for its reply.
    ///
    /// # Errors
    ///
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if a query's `timeout` elapses,
    /// [`ServerError::SessionFailed`] when a history read fails the
    /// session, [`ServerError::Persist`] when a seek cannot be served.
    pub fn call(&self, command: SessionCommand, timeout: Duration) -> Result<Reply, ServerError> {
        if !command.is_query() {
            self.post(command, None)?;
            return Ok(Reply::Ack);
        }
        let (tx, rx) = mpsc::channel();
        self.post(command, Some(tx))?;
        self.await_reply(&rx, timeout)
    }

    /// Posts a request to the session's mailbox and wakes its shard.
    fn post(&self, command: SessionCommand, reply: Option<ReplyTx>) -> Result<(), ServerError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::Shutdown);
        }
        // Gauge up *before* the push: a worker that drains the command
        // in the gap would decrement first (saturating at zero) and the
        // late increment would stick the gauge one high forever. The
        // inc-first order only ever over-counts transiently.
        self.shared.metrics.mailbox_depth.inc();
        lock(&self.cell.mailbox).push_back((command, reply));
        if self.shared.enqueue(&self.cell) {
            Ok(())
        } else {
            Err(ServerError::Shutdown)
        }
    }

    /// [`SessionHandle::call`] for a query, unpacked into its reply type.
    fn query<T: TryFrom<Reply, Error = Reply>>(
        &self,
        command: SessionCommand,
        timeout: Duration,
    ) -> Result<T, ServerError> {
        let reply = self.call(command, timeout)?;
        Ok(
            T::try_from(reply)
                .unwrap_or_else(|other| unreachable!("query answered with {other:?}")),
        )
    }

    /// Subscribes to the session's broadcast stream from this point on,
    /// with the server's default queue capacity
    /// ([`ServerConfig::subscriber_capacity`]). The queue never
    /// back-pressures the pump: a subscriber that falls behind a
    /// bounded queue loses data *visibly* ([`EngineEvent::Lagged`])
    /// instead of growing memory without bound. Drop the receiver to
    /// unsubscribe.
    pub fn subscribe(&self) -> EventReceiver {
        self.subscribe_with_capacity(self.shared.default_subscriber_capacity)
    }

    /// Like [`SessionHandle::subscribe`] with an explicit queue
    /// capacity (`0` = unbounded, the legacy behaviour).
    pub fn subscribe_with_capacity(&self, capacity: usize) -> EventReceiver {
        self.subscribe_queue(capacity, None)
    }

    /// The wire streamer's subscription: like
    /// [`SessionHandle::subscribe_with_capacity`] (`None` = the
    /// server's default capacity), but the queue also raises `notify`
    /// on every push so one streamer thread can sleep on a single flag
    /// while draining every attach on its connection.
    pub(crate) fn subscribe_wire(
        &self,
        capacity: Option<usize>,
        notify: Arc<crate::queue::Notify>,
    ) -> EventReceiver {
        let capacity = capacity.unwrap_or(self.shared.default_subscriber_capacity);
        self.subscribe_queue(capacity, Some(notify))
    }

    fn subscribe_queue(
        &self,
        capacity: usize,
        notify: Option<Arc<crate::queue::Notify>>,
    ) -> EventReceiver {
        let mut inner = lock(&self.cell.inner);
        let depth = self.shared.metrics.subscriber_depth.clone();
        let (tx, rx) = queue::channel(self.cell.id, capacity, inner.lagged.clone(), depth, notify);
        inner.subscribers.push(tx);
        rx
    }

    /// Convenience: [`SessionCommand::RunFor`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn run_for(&self, duration_ns: u64) -> Result<(), ServerError> {
        self.call(SessionCommand::RunFor { duration_ns }, Duration::ZERO)
            .map(drop)
    }

    /// Convenience: [`SessionCommand::ScheduleSignal`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn schedule_signal(
        &self,
        time_ns: u64,
        label: &str,
        value: SignalValue,
    ) -> Result<(), ServerError> {
        let label = label.to_owned();
        let command = SessionCommand::ScheduleSignal {
            time_ns,
            label,
            value,
        };
        self.call(command, Duration::ZERO).map(drop)
    }

    /// Convenience: [`SessionCommand::AddBreakpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn add_breakpoint(
        &self,
        matcher: CommandMatcher,
        one_shot: bool,
    ) -> Result<(), ServerError> {
        self.call(
            SessionCommand::AddBreakpoint { matcher, one_shot },
            Duration::ZERO,
        )
        .map(drop)
    }

    /// Convenience: [`SessionCommand::ClearBreakpoints`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn clear_breakpoints(&self) -> Result<(), ServerError> {
        self.call(SessionCommand::ClearBreakpoints, Duration::ZERO)
            .map(drop)
    }

    /// Convenience: [`SessionCommand::Step`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn step(&self) -> Result<(), ServerError> {
        self.call(SessionCommand::Step, Duration::ZERO).map(drop)
    }

    /// Convenience: [`SessionCommand::Resume`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Shutdown`] after the server stopped.
    pub fn resume(&self) -> Result<(), ServerError> {
        self.call(SessionCommand::Resume, Duration::ZERO).map(drop)
    }

    /// A [`SessionCommand::Snapshot`] including the serialized trace
    /// (O(trace length): the *whole* record is materialized, even from
    /// a disk-backed store; for long durable sessions page it with
    /// [`SessionHandle::replay_from`] instead).
    ///
    /// # Errors
    ///
    /// As [`SessionHandle::call`].
    pub fn snapshot(&self, timeout: Duration) -> Result<SessionSnapshot, ServerError> {
        self.query(
            SessionCommand::Snapshot {
                include_trace: true,
            },
            timeout,
        )
    }

    /// Like [`SessionHandle::snapshot`] but without serializing the
    /// trace (`trace_json` is `None`) — O(1), for counter polling.
    ///
    /// # Errors
    ///
    /// As [`SessionHandle::call`].
    pub fn stats(&self, timeout: Duration) -> Result<SessionSnapshot, ServerError> {
        self.query(
            SessionCommand::Snapshot {
                include_trace: false,
            },
            timeout,
        )
    }

    /// [`SessionCommand::FetchRange`]: the trace entries whose event
    /// time falls in `[t0_ns, t1_ns]` (one page, capped at
    /// [`MAX_FETCH_ENTRIES`]).
    ///
    /// # Errors
    ///
    /// As [`SessionHandle::call`].
    pub fn fetch_range(
        &self,
        t0_ns: u64,
        t1_ns: u64,
        timeout: Duration,
    ) -> Result<TraceSlice, ServerError> {
        self.query(SessionCommand::FetchRange { t0_ns, t1_ns }, timeout)
    }

    /// [`SessionCommand::ReplayFrom`]: up to `limit` trace entries
    /// starting at sequence number `seq` (`0` = the server cap) — the
    /// paging read over a session's full history, including the
    /// persisted pre-restart prefix of a durable session.
    ///
    /// # Errors
    ///
    /// As [`SessionHandle::call`].
    pub fn replay_from(
        &self,
        seq: u64,
        limit: u64,
        timeout: Duration,
    ) -> Result<TraceSlice, ServerError> {
        self.query(SessionCommand::ReplayFrom { seq, limit }, timeout)
    }

    /// [`SessionCommand::SeekTo`]: the session's history at target time
    /// `t_ns` (clamped to the live clock), rebuilt in a detached replica
    /// from the nearest checkpoint — O(checkpoint stride), not O(trace
    /// length). The live session is untouched. With `include_trace` the
    /// report carries the replica's full serialized trace,
    /// byte-identical to an uninterrupted run's at the same instant.
    ///
    /// # Errors
    ///
    /// [`ServerError::Persist`] on an in-memory session or when the
    /// replica cannot be rebuilt, plus the usual
    /// [`ServerError::Shutdown`] / [`ServerError::Timeout`].
    pub fn seek_to(
        &self,
        t_ns: u64,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<SeekReport, ServerError> {
        self.query(
            SessionCommand::SeekTo {
                t_ns,
                include_trace,
            },
            timeout,
        )
    }

    /// [`SessionCommand::StepBack`]: rewinds the session's history
    /// `entries` trace entries from the current end of the trace — same
    /// machinery (and same errors) as [`SessionHandle::seek_to`].
    /// Stepping below the trace's retention floor is an error.
    pub fn step_back(
        &self,
        entries: u64,
        include_trace: bool,
        timeout: Duration,
    ) -> Result<SeekReport, ServerError> {
        self.query(
            SessionCommand::StepBack {
                entries,
                include_trace,
            },
            timeout,
        )
    }

    /// [`SessionCommand::ReplayWindow`]: the trace window
    /// `[t0_ns, t1_ns]` regenerated through checkpoint-restore +
    /// deterministic re-execution, as one [`TraceSlice`] page (same caps
    /// and continuation contract as [`SessionHandle::fetch_range`]).
    /// Works even when the live store has evicted the window's
    /// segments, as long as a checkpoint precedes it.
    ///
    /// # Errors
    ///
    /// Same as [`SessionHandle::seek_to`].
    pub fn replay_window(
        &self,
        t0_ns: u64,
        t1_ns: u64,
        timeout: Duration,
    ) -> Result<TraceSlice, ServerError> {
        self.query(SessionCommand::ReplayWindow { t0_ns, t1_ns }, timeout)
    }

    /// Waits for a query's reply, translating a dropped sender into the
    /// session/server failure that caused it.
    fn await_reply(
        &self,
        rx: &mpsc::Receiver<Result<Reply, ServerError>>,
        timeout: Duration,
    ) -> Result<Reply, ServerError> {
        let deadline = Instant::now() + timeout;
        loop {
            match rx.recv_timeout(POLL) {
                Ok(reply) => return reply,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The reply sender was dropped undelivered. Usually
                    // that means shutdown — but a panicked turn unwinds
                    // the drained command too; report the session
                    // failure, not a bogus server death.
                    if let Some(msg) = &lock(&self.cell.inner).failed {
                        return Err(ServerError::SessionFailed(msg.clone()));
                    }
                    return Err(ServerError::Shutdown);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return Err(ServerError::Shutdown);
                    }
                    if Instant::now() >= deadline {
                        return Err(ServerError::Timeout);
                    }
                }
            }
        }
    }

    /// Blocks until the session is quiescent: no run budget left, empty
    /// mailbox, and not on its shard's run queue.
    ///
    /// # Errors
    ///
    /// [`ServerError::SessionFailed`] if the session failed,
    /// [`ServerError::Shutdown`] if the server stops first,
    /// [`ServerError::Timeout`] if `timeout` elapses.
    pub fn wait_idle(&self, timeout: Duration) -> Result<(), ServerError> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.cell.inner);
        loop {
            if let Some(msg) = &inner.failed {
                return Err(ServerError::SessionFailed(msg.clone()));
            }
            if !self.cell.busy(&inner) {
                return Ok(());
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServerError::Shutdown);
            }
            if Instant::now() >= deadline {
                return Err(ServerError::Timeout);
            }
            inner = self
                .cell
                .idle_cv
                .wait_timeout(inner, POLL)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// One worker: pops sessions off its shard queue and gives each a turn.
fn worker_loop(shared: &Shared, shard_idx: usize) {
    let shard = &shared.shards[shard_idx];
    loop {
        let cell = {
            let mut queue = lock(&shard.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(cell) = queue.pop_front() {
                    break cell;
                }
                queue = shard
                    .cv
                    .wait_timeout(queue, POLL)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        // Clear the flag *before* draining the mailbox: a command posted
        // after the drain re-queues the session instead of stranding.
        cell.queued.store(false, Ordering::SeqCst);
        // A panic inside one session's turn (decode bug, VM fault path,
        // user-visible assert) must not take the shard's worker down
        // with every sibling pinned to it: catch it, park the session
        // as failed, and keep serving the queue.
        let turn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_turn(shared, &cell);
        }));
        if turn.is_err() {
            let mut inner = lock(&cell.inner);
            fail(
                &mut inner,
                cell.id,
                "worker panicked during this session's turn",
            );
            drop(inner);
            cell.idle_cv.notify_all();
        }
    }
}

/// The retention sweep: every `interval`, give each live session's
/// trace store one maintenance turn (compress at most one cold segment,
/// evict oldest sealed segments while over the disk budget — see
/// [`gmdf_engine::TraceStore::maintain`]). Each turn holds that one
/// session's state lock; sessions are swept strictly one at a time so a
/// long compression never blocks more than one shard's pump. A
/// maintenance failure fails the session (its history can no longer be
/// trusted to be contiguous), never the server.
fn compactor_loop(shared: &Shared, sessions: &Mutex<Vec<Arc<SessionCell>>>, interval: Duration) {
    loop {
        // Sleep in POLL steps so shutdown is honored promptly even with
        // a long sweep interval.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = POLL.min(interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let cells: Vec<Arc<SessionCell>> = lock(sessions).clone();
        for cell in cells {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut inner = lock(&cell.inner);
            if inner.failed.is_some() {
                continue;
            }
            if let Err(e) = inner.session.maintain_trace() {
                fail(
                    &mut inner,
                    cell.id,
                    &format!("trace maintenance failed: {e}"),
                );
                drop(inner);
                cell.idle_cv.notify_all();
            }
        }
    }
}

/// One scheduling turn: apply mailed commands, pump at most one slice,
/// publish deltas, and reschedule or park.
fn run_turn(shared: &Shared, cell: &Arc<SessionCell>) {
    let registry = &*shared.metrics;
    let mut inner = lock(&cell.inner);
    // Drain the mailbox only while holding `inner` (lock order
    // inner → mailbox): `wait_idle` checks "mailbox empty" under the
    // same `inner` lock, so it can never observe the in-between state
    // where commands have left the mailbox but are not yet applied.
    let commands: Vec<(SessionCommand, Option<ReplyTx>)> = {
        let mut mailbox = lock(&cell.mailbox);
        mailbox.drain(..).collect()
    };
    registry.mailbox_depth.sub(commands.len() as u64);
    for (command, reply) in commands {
        if command.is_query() {
            let answer = answer_query(&mut inner, cell.id, &command, registry);
            if let Some(reply) = reply {
                let _ = reply.send(answer); // the caller may have given up
            }
        } else {
            apply_command(&mut inner, cell.id, &command, registry);
        }
    }
    let mut pumped = false;
    if inner.failed.is_none() && inner.remaining_ns > 0 {
        let dt = inner.slice_ns.min(inner.remaining_ns);
        let slice_t0 = Instant::now();
        match inner.session.run_slice(dt) {
            Ok(report) => {
                inner.remaining_ns -= dt;
                inner.events_fed += report.events_fed as u64;
                let shard = &registry.shards[cell.shard];
                shard.slices.inc();
                record_elapsed(&shard.slice_wall_ns, slice_t0);
                shard.events_per_slice.record(report.events_fed as u64);
                registry
                    .events_recent
                    .push(registry.now_ms(), report.events_fed as u64);
                inner.last_slice = Some(Instant::now());
                // Push the slice's trace appends out of the process
                // before telling anyone about them — a process crash
                // after the broadcast must not lose acknowledged
                // history. (Power-loss durability comes from the
                // fsynced command journal instead: a trace tail lost
                // with the OS is regenerated by deterministic replay
                // on restore.)
                if let Err(e) = inner.session.sync_trace() {
                    fail(&mut inner, cell.id, &format!("trace store failed: {e}"));
                } else {
                    // The trace is on disk; if the slice crossed a
                    // checkpoint boundary, persist a full-state image
                    // before acknowledging the slice (a checkpoint that
                    // claimed entries the trace store never synced
                    // would restore ahead of its own history).
                    maybe_checkpoint(&mut inner, cell.id, registry);
                    if inner.failed.is_none() {
                        let now_ns = inner.session.now_ns();
                        broadcast(
                            &mut inner,
                            EngineEvent::SliceCompleted {
                                session: cell.id,
                                now_ns,
                                report,
                            },
                        );
                        pumped = true;
                    }
                }
            }
            Err(e) => fail(&mut inner, cell.id, &e.to_string()),
        }
    }
    publish_deltas(&mut inner, cell.id);
    let idle_now = inner.remaining_ns == 0 || inner.failed.is_some();
    if pumped && idle_now {
        let now_ns = inner.session.now_ns();
        broadcast(
            &mut inner,
            EngineEvent::Idle {
                session: cell.id,
                now_ns,
            },
        );
    }
    drop(inner);
    let more_mail = !lock(&cell.mailbox).is_empty();
    if !idle_now || more_mail {
        let _ = shared.enqueue(cell); // on shutdown the turn just ends
    }
    if idle_now {
        cell.idle_cv.notify_all();
    }
}

/// Applies one mailed state change to the session. Durable sessions
/// journal it — stamped with the target time at which it takes effect —
/// so a restarted server can replay it at exactly the same instant. Only
/// *accepted* commands enter the journal: a rejected one in the
/// replayable history would deterministically re-fail every subsequent
/// restore of the session.
fn apply_command(
    inner: &mut SessionInner,
    id: SessionId,
    command: &SessionCommand,
    registry: &MetricsRegistry,
) {
    let at_ns = inner.session.now_ns();
    // `ScheduleSignal` is the one command the session can reject
    // (unknown label — a client wiring bug): apply it *before*
    // journaling, and journal only on success. The rest are infallible;
    // journal them first, so a crash between the two writes leaves the
    // journal ahead of the session (replay regenerates the effect),
    // never behind it.
    let validate_first = matches!(command, SessionCommand::ScheduleSignal { .. });
    if !validate_first && !journal_command(inner, id, at_ns, command, registry) {
        return;
    }
    match command.apply(&mut inner.session) {
        Ok(budget) => inner.remaining_ns = inner.remaining_ns.saturating_add(budget),
        Err(e) => {
            fail(inner, id, &e);
            return;
        }
    }
    if validate_first {
        journal_command(inner, id, at_ns, command, registry);
    }
}

/// Answers one query — the single dispatch site, timed per verb into
/// the registry's request-latency histograms. The time-travel trio runs
/// entirely on a detached replica, so its failures are the *request's*
/// ([`ServerError::Persist`]) and never touch the live session.
fn answer_query(
    inner: &mut SessionInner,
    id: SessionId,
    query: &SessionCommand,
    registry: &MetricsRegistry,
) -> Result<Reply, ServerError> {
    let started = Instant::now();
    let seek = |report: SeekReport| Reply::Seek(Box::new(report));
    let (histogram, answer) = match *query {
        SessionCommand::Snapshot { include_trace } => (
            &registry.snapshot_ns,
            snapshot_of(inner, id, include_trace)
                .map(Reply::Snapshot)
                .map_err(|e| history_failed(inner, id, &e)),
        ),
        SessionCommand::FetchRange { t0_ns, t1_ns } => (
            &registry.fetch_range_ns,
            fetch_range(inner.session.engine().trace(), id, t0_ns, t1_ns)
                .map(Reply::Trace)
                .map_err(|e| history_failed(inner, id, &e)),
        ),
        SessionCommand::ReplayFrom { seq, limit } => (
            &registry.replay_from_ns,
            replay_from(inner.session.engine().trace(), id, seq, limit)
                .map(Reply::Trace)
                .map_err(|e| history_failed(inner, id, &e)),
        ),
        SessionCommand::SeekTo {
            t_ns,
            include_trace,
        } => {
            let target = t_ns.min(inner.session.now_ns());
            let report = seek_to_target(inner, id, registry, target, include_trace);
            (
                &registry.seek_to_ns,
                report.map(seek).map_err(ServerError::Persist),
            )
        }
        SessionCommand::StepBack {
            entries,
            include_trace,
        } => {
            let report = step_back_target(inner, entries)
                .and_then(|target| seek_to_target(inner, id, registry, target, include_trace));
            (
                &registry.step_back_ns,
                report.map(seek).map_err(ServerError::Persist),
            )
        }
        SessionCommand::ReplayWindow { t0_ns, t1_ns } => (
            &registry.replay_window_ns,
            replay_window(inner, id, registry, t0_ns, t1_ns)
                .map(Reply::Trace)
                .map_err(ServerError::Persist),
        ),
        _ => unreachable!("state changes are applied, not answered"),
    };
    record_elapsed(histogram, started);
    answer
}

/// Fails the session over a history read the store cannot serve: the
/// client sees the failure, never a silently truncated record.
fn history_failed(inner: &mut SessionInner, id: SessionId, e: &StoreError) -> ServerError {
    let message = format!("trace history read failed: {e}");
    fail(inner, id, &message);
    ServerError::SessionFailed(message)
}

/// The [`SessionCommand::FetchRange`] page: entries whose event time
/// falls in `[t0_ns, t1_ns]`, located through the store's time index.
fn fetch_range(
    trace: &ExecutionTrace,
    id: SessionId,
    t0_ns: u64,
    t1_ns: u64,
) -> Result<TraceSlice, StoreError> {
    let (lo, hi) = trace.window_bounds(t0_ns, t1_ns)?;
    let end = hi.min(lo.saturating_add(MAX_FETCH_ENTRIES));
    Ok(trace_page(id, lo, hi, read_bounded(trace, lo, end)?))
}

/// The [`SessionCommand::ReplayFrom`] page: up to `limit` entries from
/// sequence number `seq`.
fn replay_from(
    trace: &ExecutionTrace,
    id: SessionId,
    seq: u64,
    limit: u64,
) -> Result<TraceSlice, StoreError> {
    let len = trace.len() as u64;
    let cap = if limit == 0 {
        MAX_FETCH_ENTRIES
    } else {
        limit.min(MAX_FETCH_ENTRIES)
    };
    // Clamp the page's low edge to the eviction floor *before* sizing
    // it: history below the floor is gone by policy, and a window
    // computed from the raw `seq` would end below the floor — an empty,
    // incomplete page whose continuation point never advances.
    let lo = seq.max(trace.first_retained_seq());
    let end = len.min(lo.saturating_add(cap));
    Ok(trace_page(id, lo, len, read_bounded(trace, lo, end)?))
}

/// The [`SessionCommand::ReplayWindow`] page, read from a replica
/// rebuilt from the newest checkpoint *strictly before* the window, so
/// every in-window entry (time >= t0) is regenerated rather than
/// assumed persisted: an entry the checkpoint already covers has time
/// <= checkpoint time < t0 and therefore cannot be part of the window.
fn replay_window(
    inner: &SessionInner,
    id: SessionId,
    registry: &MetricsRegistry,
    t0_ns: u64,
    t1_ns: u64,
) -> Result<TraceSlice, String> {
    let target = t1_ns.min(inner.session.now_ns());
    let replica = seek_replica(inner, registry, t0_ns, true, target)?;
    let trace = replica.session.engine().trace();
    let read = fetch_range(trace, id, t0_ns, t1_ns);
    read.map_err(|e| format!("replica window read failed: {e}"))
}

/// Packages one page of entries read from `[lo, …)` of a history ending
/// at `end_seq`. On a retention-evicted store the page may start above
/// `lo` (history below the eviction floor is gone); `first_seq` reports
/// where it actually starts, so clients resume from `last().seq + 1`,
/// not from arithmetic on the request.
fn trace_page(id: SessionId, lo: u64, end_seq: u64, entries: Vec<TraceEntry>) -> TraceSlice {
    let first = entries.first().map_or(lo, |e| e.seq);
    let next = entries.last().map_or(first, |e| e.seq + 1);
    TraceSlice {
        session: id,
        first_seq: first,
        complete: next >= end_seq,
        entries,
        end_seq,
    }
}

/// Images the session's full state every [`checkpoint_stride`] trace
/// entries and commits the staged images as one fsync'd file whenever
/// the trace has grown by at least one interval since the last file
/// (exactly where a file was written when each held one image). Staged
/// images answer seeks at once; a crash loses them harmlessly (they are
/// accelerators, never an oracle). Runs on the pump path right after
/// `sync_trace`, so an image never references trace entries that are
/// not themselves on disk yet. A write failure fails the session — a
/// durable session whose checkpoint chain can no longer advance would
/// silently degrade every future seek.
fn maybe_checkpoint(inner: &mut SessionInner, id: SessionId, registry: &MetricsRegistry) {
    if inner.checkpoint_interval == 0 || inner.checkpoints.is_none() {
        return;
    }
    // During post-restart catch-up the simulator's clock lags the
    // recovered store: an image taken now would pair a stale `t_ns`
    // with the full recovered length, and a seek restoring it would
    // regenerate (duplicate) the gap. Checkpoints resume once the
    // deterministic replay has re-reached the recovered length.
    if inner.session.engine().trace().catching_up() {
        return;
    }
    let len = inner.session.engine().trace().len() as u64;
    let commit = len.saturating_sub(inner.last_checkpoint_len) >= inner.checkpoint_interval;
    let stride = checkpoint_stride(inner.checkpoint_interval);
    if !commit && len.saturating_sub(inner.last_image_len) < stride {
        return;
    }
    let image = persist::ServerCheckpoint {
        journal_pos: inner.journal_len,
        session: inner.session.save_state(),
    };
    let payload = match serde_json::to_string(&image) {
        Ok(payload) => payload,
        Err(e) => {
            fail(inner, id, &format!("checkpoint serialization failed: {e}"));
            return;
        }
    };
    let store = inner.checkpoints.as_mut().expect("checked above");
    if let Err(e) = store.stage(len, image.session.t_ns(), payload.into_bytes()) {
        fail(inner, id, &format!("checkpoint image rejected: {e}"));
        return;
    }
    inner.last_image_len = len;
    registry.checkpoint_images.inc();
    if commit {
        let t0 = Instant::now();
        match store.commit() {
            Ok(bytes) => {
                inner.last_checkpoint_len = len;
                registry.checkpoint_writes.inc();
                registry.checkpoint_bytes.add(bytes);
                record_elapsed(&registry.checkpoint_write_ns, t0);
                // Pin retention: segments at or above the oldest
                // checkpoint file's position must survive eviction.
                if let Some(oldest) = store.oldest_file_seq() {
                    inner.session.set_trace_retain_floor(oldest);
                }
            }
            Err(e) => fail(inner, id, &format!("checkpoint write failed: {e}")),
        }
    }
}

/// A detached time-travel replica: an independent session rebuilt at
/// some past instant from checkpoint + journal replay. Its trace store
/// is a [`MemStore::with_base`] holding only the regenerated suffix,
/// with absolute sequence numbers.
struct SeekReplica {
    session: DebugSession,
    /// Trace length at the restored checkpoint (0 when replaying from
    /// zero) — the replica's store starts here.
    base: u64,
    /// The checkpoint that was restored, if any.
    checkpoint: Option<CheckpointMeta>,
    /// Journaled commands re-applied on the way to the target.
    replayed_commands: u64,
}

/// Builds a replica of the session at `target_ns`: restores the newest
/// *loadable* checkpoint whose time satisfies the horizon (`< horizon`
/// when `strictly_before`, else `<= horizon`), then deterministically
/// replays journal and pump up to the target. A damaged checkpoint
/// falls back to the next older one; with none usable the replica
/// replays from time zero — strictly slower, never wrong.
fn seek_replica(
    inner: &SessionInner,
    registry: &MetricsRegistry,
    horizon_ns: u64,
    strictly_before: bool,
    target_ns: u64,
) -> Result<SeekReplica, String> {
    let (Some(spec), Some(dir)) = (&inner.spec, &inner.dir) else {
        return Err(
            "time travel needs a durable session (in-memory sessions keep no checkpoints or journal)"
                .to_owned(),
        );
    };
    let records = persist::read_journal(dir)?;
    let mut restored: Option<(CheckpointMeta, persist::ServerCheckpoint)> = None;
    if let Some(store) = &inner.checkpoints {
        let in_horizon = |m: &CheckpointMeta| {
            if strictly_before {
                m.t_ns < horizon_ns
            } else {
                m.t_ns <= horizon_ns
            }
        };
        for meta in store.metas().iter().rev().filter(|m| in_horizon(m)) {
            let t0 = Instant::now();
            // A checkpoint that fails to load, decode or parse is
            // skipped and counted, not fatal: the one before it (or
            // replay-from-zero) serves the same seek, just more slowly.
            let image = store
                .load(meta)
                .ok()
                .and_then(|payload| String::from_utf8(payload).ok())
                .and_then(|text| serde_json::from_str::<persist::ServerCheckpoint>(&text).ok());
            let Some(image) = image else {
                registry.checkpoint_fallbacks.inc();
                continue;
            };
            registry.checkpoint_restores.inc();
            record_elapsed(&registry.checkpoint_restore_ns, t0);
            restored = Some((*meta, image));
            break;
        }
    }
    let mut session = spec
        .build()
        .map_err(|e| format!("replica rebuild failed: {e}"))?;
    let (base, journal_pos, checkpoint) = match restored {
        Some((meta, image)) => {
            session
                .restore_state(&image.session)
                .map_err(|e| format!("checkpoint restore failed: {e}"))?;
            (image.session.trace_len(), image.journal_pos, Some(meta))
        }
        None => (0, 0, None),
    };
    session.resume_trace_store(Box::new(MemStore::with_base(base)));
    let tail = usize::try_from(journal_pos)
        .ok()
        .and_then(|pos| records.get(pos..))
        .ok_or_else(|| {
            format!(
                "checkpoint journal position {journal_pos} is past the journal's {} records",
                records.len()
            )
        })?;
    let replayed = persist::replay_journal(&mut session, tail, target_ns)
        .map_err(|e| format!("replica {e}"))?;
    let now = session.now_ns();
    if target_ns > now {
        session
            .run_for(target_ns - now)
            .map_err(|e| format!("replica replay failed: {e}"))?;
    }
    let len = session.engine().trace().len() as u64;
    registry.replayed_entries.record(len.saturating_sub(base));
    Ok(SeekReplica {
        session,
        base,
        checkpoint,
        replayed_commands: replayed.commands,
    })
}

/// Records the wall time since `t0`.
fn record_elapsed(histogram: &Histogram, t0: Instant) {
    histogram.record(t0.elapsed().as_nanos() as u64);
}

/// Runs a full seek to `target_ns` and packages the result.
fn seek_to_target(
    inner: &SessionInner,
    id: SessionId,
    registry: &MetricsRegistry,
    target_ns: u64,
    include_trace: bool,
) -> Result<SeekReport, String> {
    let replica = seek_replica(inner, registry, target_ns, false, target_ns)?;
    let trace_len = replica.session.engine().trace().len() as u64;
    let trace_json = if include_trace {
        Some(replica_trace_json(inner, &replica)?)
    } else {
        None
    };
    Ok(SeekReport {
        session: id,
        target_ns,
        now_ns: replica.session.now_ns(),
        checkpoint_seq: replica.checkpoint.map(|m| m.seq),
        checkpoint_t_ns: replica.checkpoint.map(|m| m.t_ns),
        replayed_commands: replica.replayed_commands,
        replayed_entries: trace_len.saturating_sub(replica.base),
        trace_len,
        engine_state: replica.session.engine().state(),
        trace_json,
    })
}

/// Serializes the replica's full trace: the persisted prefix below the
/// checkpoint (read from the live store) plus the regenerated suffix —
/// byte-identical to the trace an uninterrupted run serialized at the
/// same instant.
fn replica_trace_json(inner: &SessionInner, replica: &SeekReplica) -> Result<String, String> {
    let mut combined: Vec<TraceEntry> = Vec::new();
    if replica.base > 0 {
        let live = inner.session.engine().trace();
        live.read_range_into(0, replica.base, &mut combined)
            .map_err(|e| format!("trace prefix read failed: {e}"))?;
        if combined.len() as u64 != replica.base {
            return Err(format!(
                "trace prefix below the checkpoint is incomplete ({} of {} entries retained) — \
                 retention evicted it; use ReplayWindow instead",
                combined.len(),
                replica.base
            ));
        }
    }
    combined.extend(replica.session.engine().trace().entries());
    Ok(ExecutionTrace::with_store(Box::new(MemStore::from_entries(combined))).to_json())
}

/// Resolves a [`SessionCommand::StepBack`] to the target instant: the
/// event time of the entry `entries` + 1 positions before the current
/// end of the trace (so the replica's trace ends `entries` entries
/// shorter). Stepping over the whole trace lands at time zero.
fn step_back_target(inner: &SessionInner, entries: u64) -> Result<u64, String> {
    let trace = inner.session.engine().trace();
    let len = trace.len() as u64;
    let keep = len.saturating_sub(entries);
    if keep == 0 {
        return Ok(0);
    }
    let pivot = keep - 1;
    if pivot < trace.first_retained_seq() {
        return Err(format!(
            "step-back target (trace entry {pivot}) is below the retention floor ({})",
            trace.first_retained_seq()
        ));
    }
    let mut page: Vec<TraceEntry> = Vec::new();
    trace
        .read_range_into(pivot, pivot + 1, &mut page)
        .map_err(|e| format!("trace read failed: {e}"))?;
    page.first()
        .map(|e| e.event.time_ns)
        .ok_or_else(|| format!("trace entry {pivot} could not be read back"))
}

/// Reads trace entries `[lo, end)` for one reply page, bounded by the
/// caller's entry cap (baked into `end`) *and* [`MAX_FETCH_BYTES`] of
/// encoded payload — see the constant for why both bounds exist. Reads
/// in store-page-sized chunks so a byte-capped request never pulls the
/// whole entry range off disk first. On a retention-evicted store the
/// result starts at the eviction floor when `lo` is below it.
fn read_bounded(
    trace: &gmdf_engine::ExecutionTrace,
    lo: u64,
    end: u64,
) -> Result<Vec<TraceEntry>, StoreError> {
    const CHUNK: u64 = 256;
    let mut entries: Vec<TraceEntry> = Vec::new();
    let mut budget = MAX_FETCH_BYTES;
    // Start at the eviction floor: chunks below it would come back
    // empty and end the loop before any retained entry was reached.
    let mut next = lo.max(trace.first_retained_seq());
    while next < end {
        let mut page = Vec::new();
        trace.read_range_into(next, end.min(next.saturating_add(CHUNK)), &mut page)?;
        if page.is_empty() {
            break; // nothing retained in the remaining range
        }
        for entry in page {
            let cost = serde_json::to_string(&entry).map_or(0, |s| s.len() as u64);
            // Always ship at least one entry so paging makes progress;
            // a single record past the frame limit is the wire layer's
            // terminal case, not ours.
            if !entries.is_empty() && cost > budget {
                return Ok(entries);
            }
            budget = budget.saturating_sub(cost);
            entries.push(entry);
        }
        // Continue after the last entry actually read — below an
        // eviction floor the store returns fewer than asked, starting
        // above `next`, and naive `next += CHUNK` would re-read.
        next = entries.last().expect("page was non-empty").seq + 1;
    }
    Ok(entries)
}

/// Builds a consistent snapshot under the state lock.
fn snapshot_of(
    inner: &SessionInner,
    id: SessionId,
    include_trace: bool,
) -> Result<SessionSnapshot, StoreError> {
    let engine = inner.session.engine();
    let trace_json = if include_trace {
        Some(engine.trace().try_to_json()?)
    } else {
        None
    };
    Ok(SessionSnapshot {
        session: id,
        now_ns: inner.session.now_ns(),
        engine_state: engine.state(),
        pending: engine.pending(),
        trace_len: engine.trace().len(),
        trace_json,
        events_fed: inner.events_fed,
        violations: inner.violations,
        breakpoint_hits: inner.breakpoint_hits,
        lagged_drops: inner.lagged.get(),
        remaining_ns: inner.remaining_ns,
    })
}

/// Journals one *accepted* command on a durable session (no-op for
/// in-memory ones). A journal write failure fails the session — its
/// durable history could no longer be trusted to match its state.
/// Returns `false` when the append failed.
fn journal_command(
    inner: &mut SessionInner,
    id: SessionId,
    at_ns: u64,
    command: &SessionCommand,
    registry: &MetricsRegistry,
) -> bool {
    let result = match inner.journal.as_mut() {
        Some(journal) => {
            // Timed here (not inside `Journal`) so the journal stays a
            // plain file wrapper; the measurement includes the fsync —
            // the dominant cost on a durable session's command path.
            let t0 = Instant::now();
            let result = journal.append(at_ns, command);
            registry.journal_appends.inc();
            record_elapsed(&registry.journal_append_ns, t0);
            result
        }
        None => return true,
    };
    if let Err(e) = result {
        fail(inner, id, &format!("command journal write failed: {e}"));
        return false;
    }
    inner.journal_len += 1;
    true
}

/// Parks the session as failed and tells subscribers.
fn fail(inner: &mut SessionInner, id: SessionId, message: &str) {
    inner.failed = Some(message.to_owned());
    inner.remaining_ns = 0;
    broadcast(
        &mut *inner,
        EngineEvent::Error {
            session: id,
            message: message.to_owned(),
        },
    );
}

/// Publishes everything recorded since the last turn: engine notices
/// (breakpoint hits, violation counts), violation messages, and the
/// trace delta. The session's counters and cursor always advance; the
/// owned event payloads (the delta read-back, message strings) are only
/// built when someone is subscribed.
fn publish_deltas(inner: &mut SessionInner, id: SessionId) {
    let has_subscribers = !inner.subscribers.is_empty();
    let mut events = Vec::new();
    // Counters come from the per-command notices, so they advance even
    // when nobody subscribes and the trace store is disk-backed — no
    // read-back just to count.
    while let Ok(notice) = inner.notices.try_recv() {
        inner.violations += notice.violations as u64;
        if notice.hit_breakpoint {
            inner.breakpoint_hits += 1;
            if has_subscribers {
                events.push(EngineEvent::BreakpointHit {
                    session: id,
                    seq: notice.seq,
                    time_ns: notice.time_ns,
                });
            }
        }
    }
    let cursor = inner.trace_cursor;
    let trace_len = inner.session.engine().trace().len() as u64;
    let mut read_error: Option<StoreError> = None;
    if has_subscribers && trace_len > cursor {
        let mut delta: Vec<TraceEntry> = Vec::new();
        match inner
            .session
            .engine()
            .trace()
            .read_range_into(cursor, trace_len, &mut delta)
        {
            Ok(()) => {
                inner.trace_cursor = trace_len;
                for entry in &delta {
                    for message in &entry.violations {
                        events.push(EngineEvent::Violation {
                            session: id,
                            seq: entry.seq,
                            message: message.clone(),
                        });
                    }
                }
                if !delta.is_empty() {
                    events.push(EngineEvent::TraceDelta {
                        session: id,
                        entries: delta,
                    });
                }
            }
            // The cursor stays put; the session is failed below, after
            // the events gathered so far have gone out.
            Err(e) => read_error = Some(e),
        }
    } else {
        // Nobody is listening: skip the read-back, the history stays
        // addressable through `FetchRange`/`ReplayFrom`.
        inner.trace_cursor = trace_len;
    }
    for event in events {
        broadcast(inner, event);
    }
    if let Some(e) = read_error {
        // A delta the store cannot serve must not strand the stream's
        // tail: if the session simply parked, no further turn would run
        // until an external command arrived and subscribers would wait
        // on the missing entries forever. Failing the session makes
        // the loss visible (Error event, failed snapshots) instead.
        fail(inner, id, &format!("trace delta read failed: {e}"));
    }
}

/// Delivers `event` to every live subscriber, pruning dead ones. The
/// last recipient gets the event by move, so the common single-
/// subscriber case never deep-clones a `TraceDelta` payload. Pushes
/// never block: a full bounded queue coalesces or drops on the
/// subscriber's side (see [`crate::queue`]).
fn broadcast(inner: &mut SessionInner, event: EngineEvent) {
    let subscribers = &mut inner.subscribers;
    match subscribers.len() {
        0 => {}
        1 => {
            if !subscribers[0].push(event) {
                subscribers.clear();
            }
        }
        n => {
            let mut alive = vec![true; n];
            let mut any_dead = false;
            for (i, subscriber) in subscribers.iter().enumerate().take(n - 1) {
                if !subscriber.push(event.clone()) {
                    alive[i] = false;
                    any_dead = true;
                }
            }
            if !subscribers[n - 1].push(event) {
                alive[n - 1] = false;
                any_dead = true;
            }
            if any_dead {
                // Positional retain. Deliberately index-defensive: this
                // runs inside the broadcast lock, where a panic would
                // poison the session for every other subscriber, so a
                // length mismatch keeps the subscriber rather than
                // unwinding.
                let mut idx = 0;
                subscribers.retain(|_| {
                    let keep = alive.get(idx).copied().unwrap_or(true);
                    idx += 1;
                    keep
                });
            }
        }
    }
}
