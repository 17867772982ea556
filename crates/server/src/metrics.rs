//! Fleet-wide observability: the metrics registry every server layer
//! records into, and the snapshot/exposition formats it is read out
//! through.
//!
//! The paper's debugger exists to make a running embedded system
//! observable; this module points the same lens at the debug server
//! itself. One [`MetricsRegistry`] lives in the server's shared state
//! and is threaded (by reference or cloned counter handle) into every
//! layer:
//!
//! * the scheduler records pump slice wall-time and events-per-slice
//!   per shard, and mailbox depth;
//! * the subscriber queues record their depth and cumulative `Lagged`
//!   drops;
//! * every session trace records store append/read latency into one
//!   shared [`StoreMetrics`] (segment counts and on-disk bytes are read
//!   from the stores at snapshot time);
//! * durable sessions record journal append+fsync latency;
//! * the wire layer records frames/bytes in both directions and the
//!   live connection count.
//!
//! Read-out comes in three shapes: [`crate::DebugServer::metrics_snapshot`]
//! (a serializable [`MetricsSnapshot`]: fleet summary + per-session
//! health), the `ListMetrics` wire frame (the same snapshot over TCP),
//! and [`crate::DebugServer::metrics_text`] (Prometheus-style text
//! exposition).
//!
//! Recording is relaxed-atomic and allocation-free.

pub use gmdf_engine::metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, RecentSeries, StoreMetrics,
};

use crate::server::SessionId;
use gmdf_engine::metrics::HistogramAccum;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Trailing window for "recent events per second" (milliseconds).
const RATE_WINDOW_MS: u64 = 10_000;

/// Per-shard pump metrics.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Scheduler slices pumped on this shard.
    pub slices: Counter,
    /// Wall nanoseconds per pumped slice.
    pub slice_wall_ns: Histogram,
    /// Model events fed per pumped slice.
    pub events_per_slice: Histogram,
}

/// Wire-layer metrics, shared by every connection of a
/// [`crate::WireServer`].
#[derive(Debug, Default)]
pub struct WireMetrics {
    /// Live TCP connections.
    pub connections: Gauge,
    /// Frames encoded and written to clients.
    pub frames_tx: Counter,
    /// Frames read and decoded from clients.
    pub frames_rx: Counter,
    /// Payload bytes written (length prefixes included).
    pub bytes_tx: Counter,
    /// Payload bytes read (length prefixes included).
    pub bytes_rx: Counter,
    /// Next per-connection id (monotonic, never reused).
    next_conn: AtomicU64,
    /// Live per-connection counter bundles, held weakly so a closed
    /// connection's row disappears once its threads drop the `Arc`.
    conns: Mutex<Vec<Weak<ConnMetrics>>>,
}

/// Per-connection wire counters, one bundle per accepted TCP
/// connection. The connection's reader and streamer threads share one
/// `Arc`; snapshots read live bundles through [`WireMetrics`]'s weak
/// list, so the row vanishes when the connection closes.
#[derive(Debug)]
pub struct ConnMetrics {
    /// Stable per-connection id (monotonic across the server's life).
    pub id: u64,
    /// Frames written to this client.
    pub frames_tx: Counter,
    /// Frames read from this client.
    pub frames_rx: Counter,
    /// Bytes written to this client (length prefixes included).
    pub bytes_tx: Counter,
    /// Bytes read from this client (length prefixes included).
    pub bytes_rx: Counter,
    /// Events dropped by this connection's per-session queues
    /// (observed `Lagged` markers delivered downstream).
    pub lagged: Counter,
    /// Sessions currently attached on this connection.
    pub attached: Gauge,
}

impl WireMetrics {
    /// Allocates a fresh per-connection counter bundle and tracks it
    /// (weakly) for snapshot read-out. Dead entries from closed
    /// connections are pruned on the way in.
    pub fn register_connection(&self) -> Arc<ConnMetrics> {
        let conn = Arc::new(ConnMetrics {
            id: self.next_conn.fetch_add(1, Ordering::Relaxed),
            frames_tx: Counter::new(),
            frames_rx: Counter::new(),
            bytes_tx: Counter::new(),
            bytes_rx: Counter::new(),
            lagged: Counter::new(),
            attached: Gauge::new(),
        });
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.retain(|w| w.strong_count() > 0);
        conns.push(Arc::downgrade(&conn));
        conn
    }

    /// Snapshot rows for the connections still alive, ordered by id.
    pub fn connection_rows(&self) -> Vec<WireConnection> {
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<WireConnection> = conns
            .iter()
            .filter_map(Weak::upgrade)
            .map(|c| WireConnection {
                connection: c.id,
                frames_tx: c.frames_tx.get(),
                frames_rx: c.frames_rx.get(),
                bytes_tx: c.bytes_tx.get(),
                bytes_rx: c.bytes_rx.get(),
                attached: c.attached.get(),
                lagged_drops: c.lagged.get(),
            })
            .collect();
        rows.sort_by_key(|r| r.connection);
        rows
    }
}

/// The always-on counter bundle the whole server stack records into.
///
/// Constructed once per [`crate::DebugServer`] and shared via `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Monotonic origin for uptime and rate-window timestamps.
    epoch: Instant,
    /// One entry per worker shard.
    pub shards: Vec<ShardMetrics>,
    /// Commands currently sitting in session mailboxes.
    pub mailbox_depth: Gauge,
    /// Events currently queued across all subscriber queues.
    pub subscriber_depth: Gauge,
    /// Trace-store I/O (appends/reads, latency) — the same bundle every
    /// session trace records into.
    pub store: Arc<StoreMetrics>,
    /// Journal records appended (durable sessions).
    pub journal_appends: Counter,
    /// Wall nanoseconds per journal append **including the fsync** —
    /// the slowest thing on a durable session's command path.
    pub journal_append_ns: Histogram,
    /// Checkpoint files committed (durable sessions) — one fsync each.
    pub checkpoint_writes: Counter,
    /// Checkpoint images taken (staged or committed); several share
    /// each committed file.
    pub checkpoint_images: Counter,
    /// Total checkpoint file bytes written.
    pub checkpoint_bytes: Counter,
    /// Checkpoint images loaded back during time-travel seeks.
    pub checkpoint_restores: Counter,
    /// Checkpoint images a seek skipped because they failed to load,
    /// decode or parse — each one falls back to an older image (or to
    /// replay from zero).
    pub checkpoint_fallbacks: Counter,
    /// Wall nanoseconds per checkpoint file commit (write + fsync +
    /// rename) — the periodic cost a durable session pays for
    /// O(interval) seeks.
    pub checkpoint_write_ns: Histogram,
    /// Wall nanoseconds per checkpoint load during a seek (read +
    /// parse), excluding the replay that follows.
    pub checkpoint_restore_ns: Histogram,
    /// Wall nanoseconds per served `Snapshot` request.
    pub snapshot_ns: Histogram,
    /// Wall nanoseconds per served `FetchRange` request.
    pub fetch_range_ns: Histogram,
    /// Wall nanoseconds per served `ReplayFrom` request.
    pub replay_from_ns: Histogram,
    /// Wall nanoseconds per served `SeekTo` request.
    pub seek_to_ns: Histogram,
    /// Wall nanoseconds per served `StepBack` request.
    pub step_back_ns: Histogram,
    /// Wall nanoseconds per served `ReplayWindow` request.
    pub replay_window_ns: Histogram,
    /// Trace entries each time-travel replica regenerated past its
    /// checkpoint — the replay tail the checkpoint stride bounds.
    pub replayed_entries: Histogram,
    /// Wire-layer counters.
    pub wire: WireMetrics,
    /// Recent (timestamp, events-fed) samples, one per pumped slice —
    /// backs the fleet's "events per second" rate.
    pub events_recent: RecentSeries,
}

impl MetricsRegistry {
    /// A registry for `workers` shards.
    pub fn new(workers: usize) -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            shards: (0..workers).map(|_| ShardMetrics::default()).collect(),
            mailbox_depth: Gauge::new(),
            subscriber_depth: Gauge::new(),
            store: Arc::new(StoreMetrics::default()),
            journal_appends: Counter::new(),
            journal_append_ns: Histogram::new(),
            checkpoint_writes: Counter::new(),
            checkpoint_images: Counter::new(),
            checkpoint_bytes: Counter::new(),
            checkpoint_restores: Counter::new(),
            checkpoint_fallbacks: Counter::new(),
            checkpoint_write_ns: Histogram::new(),
            checkpoint_restore_ns: Histogram::new(),
            snapshot_ns: Histogram::new(),
            fetch_range_ns: Histogram::new(),
            replay_from_ns: Histogram::new(),
            seek_to_ns: Histogram::new(),
            step_back_ns: Histogram::new(),
            replay_window_ns: Histogram::new(),
            replayed_entries: Histogram::new(),
            wire: WireMetrics::default(),
            events_recent: RecentSeries::new(256),
        }
    }

    /// Milliseconds since the registry was built — the timestamp base
    /// for rate windows and uptime.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Control/health state of one hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Scheduled or holding run budget.
    Running,
    /// Healthy but quiescent (no budget, empty mailbox).
    Parked,
    /// Persisted but failed to restore at boot; not scheduled.
    Quarantined,
    /// Parked by a failure (simulator fault, store I/O, panic).
    Failed,
}

/// Point-in-time health of one hosted session — one row of
/// [`MetricsSnapshot::sessions`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionHealth {
    /// The session.
    pub session: SessionId,
    /// Control/health state.
    pub state: HealthState,
    /// Failure or quarantine reason, when there is one.
    pub detail: Option<String>,
    /// Wall milliseconds since the session registered with this server
    /// process.
    pub uptime_ms: u64,
    /// Wall milliseconds since the last pumped slice; `None` before the
    /// first slice.
    pub last_slice_age_ms: Option<u64>,
    /// Target simulation time.
    pub now_ns: u64,
    /// Entries in the execution trace.
    pub trace_len: u64,
    /// Segment files backing the trace (0 = memory-resident).
    pub trace_segments: u64,
    /// On-disk bytes of the trace (0 = memory-resident).
    pub trace_bytes: u64,
    /// Total model events fed.
    pub events_fed: u64,
    /// Total expectation violations raised.
    pub violations: u64,
    /// Total breakpoint hits.
    pub breakpoint_hits: u64,
    /// Events dropped across this session's bounded subscriber queues.
    pub lagged_drops: u64,
    /// Run budget not yet consumed, in nanoseconds.
    pub remaining_ns: u64,
    /// Live subscriber queues.
    pub subscribers: u64,
    /// Condition-memo hits in the session's VM.
    pub memo_hits: u64,
    /// Condition-memo misses in the session's VM.
    pub memo_misses: u64,
}

/// One row of the wire v4 session directory: the cheap-to-build
/// summary a `ListSessions` reply carries so a multiplexed client can
/// discover the fleet and decide what to attach. Quarantined ids are
/// listed too (state [`HealthState::Quarantined`], zeroed progress
/// fields) so the directory names every id the server knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionInfo {
    /// The session.
    pub session: SessionId,
    /// Control/health state.
    pub state: HealthState,
    /// Target simulation time.
    pub now_ns: u64,
    /// Entries in the execution trace.
    pub trace_len: u64,
    /// `(errors, warnings)` from the session's cached static-analysis
    /// report (wire v5) — enough for a client to decide whether the full
    /// `Analyze` report is worth fetching. Quarantined rows carry
    /// `(0, 0)`.
    pub diagnostics: (u64, u64),
}

/// Per-connection wire counters as read out in a snapshot — one row of
/// [`FleetMetrics::wire_conns`] per live connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireConnection {
    /// Stable per-connection id.
    pub connection: u64,
    /// Frames written to this client.
    pub frames_tx: u64,
    /// Frames read from this client.
    pub frames_rx: u64,
    /// Bytes written to this client.
    pub bytes_tx: u64,
    /// Bytes read from this client.
    pub bytes_rx: u64,
    /// Sessions currently attached on this connection.
    pub attached: u64,
    /// Events dropped by this connection's per-session queues.
    pub lagged_drops: u64,
}

/// A persisted session that failed to restore, with the reason — the
/// wire-visible form of [`crate::DebugServer::quarantined_sessions`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedSession {
    /// The reserved (never reused) session id.
    pub session: SessionId,
    /// Why the restore failed.
    pub reason: String,
}

/// Per-shard read-out inside [`FleetMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard (worker) index.
    pub shard: u64,
    /// Slices pumped.
    pub slices: u64,
    /// Slice wall-time distribution.
    pub slice_wall_ns: HistogramSnapshot,
    /// Events-fed-per-slice distribution.
    pub events_per_slice: HistogramSnapshot,
}

/// Fleet-level aggregates — the summary half of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Hosted sessions (quarantined ones not included).
    pub sessions: u64,
    /// Worker threads / shards.
    pub workers: u64,
    /// Wall milliseconds since the server booted.
    pub uptime_ms: u64,
    /// Slices pumped, all shards.
    pub slices: u64,
    /// Slice wall-time distribution, merged across shards.
    pub slice_wall_ns: HistogramSnapshot,
    /// Events-per-slice distribution, merged across shards.
    pub events_per_slice: HistogramSnapshot,
    /// Per-shard breakdown.
    pub shards: Vec<ShardSnapshot>,
    /// Total model events fed, summed over sessions.
    pub events_fed: u64,
    /// Events fed per second over the trailing rate window.
    pub recent_events_per_sec: f64,
    /// Commands currently sitting in session mailboxes.
    pub mailbox_depth: u64,
    /// Events currently queued across subscriber queues.
    pub subscriber_depth: u64,
    /// Events dropped by bounded subscriber queues, summed over
    /// sessions.
    pub lagged_drops: u64,
    /// Trace-store appends.
    pub store_appends: u64,
    /// Trace-store append latency.
    pub store_append_ns: HistogramSnapshot,
    /// Trace-store read operations.
    pub store_reads: u64,
    /// Trace-store read latency.
    pub store_read_ns: HistogramSnapshot,
    /// Trace segment files, summed over sessions.
    pub trace_segments: u64,
    /// Trace bytes on disk, summed over sessions.
    pub trace_disk_bytes: u64,
    /// Compressed (cold-tier) trace segments, summed over sessions.
    pub trace_compacted_segments: u64,
    /// Segments compressed to the cold tier by retention sweeps.
    pub store_compactions: u64,
    /// Sealed segments evicted under the retention disk budget.
    pub store_evicted_segments: u64,
    /// On-disk bytes reclaimed by compression and eviction.
    pub store_reclaimed_bytes: u64,
    /// Wall-time distribution of retention maintenance turns.
    pub store_maintain_ns: HistogramSnapshot,
    /// Journal records appended.
    pub journal_appends: u64,
    /// Journal append+fsync latency.
    pub journal_append_ns: HistogramSnapshot,
    /// Checkpoint files committed (one fsync each).
    pub checkpoint_writes: u64,
    /// Checkpoint images taken (staged or committed).
    #[serde(default)]
    pub checkpoint_images: u64,
    /// Total checkpoint file bytes written.
    pub checkpoint_bytes: u64,
    /// Checkpoint images loaded back by time-travel seeks.
    pub checkpoint_restores: u64,
    /// Damaged checkpoint images seeks skipped for an older one.
    #[serde(default)]
    pub checkpoint_fallbacks: u64,
    /// Checkpoint file commit latency (write + fsync + rename).
    pub checkpoint_write_ns: HistogramSnapshot,
    /// Checkpoint load latency during seeks (read + parse).
    pub checkpoint_restore_ns: HistogramSnapshot,
    /// `Snapshot` request latency.
    #[serde(default)]
    pub snapshot_ns: HistogramSnapshot,
    /// `FetchRange` request latency.
    #[serde(default)]
    pub fetch_range_ns: HistogramSnapshot,
    /// `ReplayFrom` request latency.
    #[serde(default)]
    pub replay_from_ns: HistogramSnapshot,
    /// `SeekTo` request latency.
    #[serde(default)]
    pub seek_to_ns: HistogramSnapshot,
    /// `StepBack` request latency.
    #[serde(default)]
    pub step_back_ns: HistogramSnapshot,
    /// `ReplayWindow` request latency.
    #[serde(default)]
    pub replay_window_ns: HistogramSnapshot,
    /// Trace entries regenerated per time-travel replica.
    #[serde(default)]
    pub replayed_entries: HistogramSnapshot,
    /// Live wire connections.
    pub wire_connections: u64,
    /// Wire frames written.
    pub wire_frames_tx: u64,
    /// Wire frames read.
    pub wire_frames_rx: u64,
    /// Wire bytes written.
    pub wire_bytes_tx: u64,
    /// Wire bytes read.
    pub wire_bytes_rx: u64,
    /// Per-connection wire breakdown, one row per live connection.
    pub wire_conns: Vec<WireConnection>,
    /// VM condition-memo hits, summed over sessions.
    pub memo_hits: u64,
    /// VM condition-memo misses, summed over sessions.
    pub memo_misses: u64,
}

/// The full observability read-out: fleet aggregates, one health row
/// per session, and the quarantine list. Serializable — the wire
/// `ListMetrics` reply ships exactly this structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Fleet-level aggregates.
    pub fleet: FleetMetrics,
    /// One row per hosted session (including quarantined ids).
    pub sessions: Vec<SessionHealth>,
    /// Persisted sessions that failed to restore.
    pub quarantined: Vec<QuarantinedSession>,
}

impl MetricsSnapshot {
    /// Zeroes every wall-clock-derived field (uptimes, slice ages, the
    /// recent rate) in place. Everything left is a deterministic
    /// counter or a latency distribution that no longer moves once the
    /// fleet is idle — this is what lets tests assert that a snapshot
    /// fetched over TCP equals the in-process one *exactly*.
    pub fn strip_wall_clock(&mut self) {
        self.fleet.uptime_ms = 0;
        self.fleet.recent_events_per_sec = 0.0;
        for s in &mut self.sessions {
            s.uptime_ms = 0;
            s.last_slice_age_ms = None;
        }
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`# TYPE` headers, one sample per line) — what
    /// [`crate::DebugServer::metrics_text`] returns and the
    /// `fleet_dashboard` example scrapes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let f = &self.fleet;
        let mut gauge = |name: &str, value: String| {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" gauge\n");
            out.push_str(name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        gauge("gmdf_sessions", f.sessions.to_string());
        gauge("gmdf_workers", f.workers.to_string());
        gauge("gmdf_uptime_ms", f.uptime_ms.to_string());
        gauge("gmdf_mailbox_depth", f.mailbox_depth.to_string());
        gauge("gmdf_subscriber_depth", f.subscriber_depth.to_string());
        gauge("gmdf_wire_connections", f.wire_connections.to_string());
        gauge(
            "gmdf_recent_events_per_sec",
            format!("{:.3}", f.recent_events_per_sec),
        );
        let mut counter = |name: &str, value: u64| {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" counter\n");
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        };
        counter("gmdf_slices_total", f.slices);
        counter("gmdf_events_fed_total", f.events_fed);
        counter("gmdf_lagged_drops_total", f.lagged_drops);
        counter("gmdf_store_appends_total", f.store_appends);
        counter("gmdf_store_reads_total", f.store_reads);
        counter("gmdf_journal_appends_total", f.journal_appends);
        counter("gmdf_checkpoint_writes_total", f.checkpoint_writes);
        counter("gmdf_checkpoint_images_total", f.checkpoint_images);
        counter("gmdf_checkpoint_bytes", f.checkpoint_bytes);
        counter("gmdf_checkpoint_restores_total", f.checkpoint_restores);
        counter("gmdf_checkpoint_fallbacks_total", f.checkpoint_fallbacks);
        counter("gmdf_wire_frames_tx_total", f.wire_frames_tx);
        counter("gmdf_wire_frames_rx_total", f.wire_frames_rx);
        counter("gmdf_wire_bytes_tx_total", f.wire_bytes_tx);
        counter("gmdf_wire_bytes_rx_total", f.wire_bytes_rx);
        counter("gmdf_trace_segments", f.trace_segments);
        counter("gmdf_trace_disk_bytes", f.trace_disk_bytes);
        counter("gmdf_trace_compacted_segments", f.trace_compacted_segments);
        counter("gmdf_store_compactions_total", f.store_compactions);
        counter(
            "gmdf_store_evicted_segments_total",
            f.store_evicted_segments,
        );
        counter("gmdf_store_reclaimed_bytes_total", f.store_reclaimed_bytes);
        counter("gmdf_memo_hits_total", f.memo_hits);
        counter("gmdf_memo_misses_total", f.memo_misses);
        let mut histo = |name: &str, h: &HistogramSnapshot| {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push_str(" summary\n");
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_max {}\n", h.max));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        };
        histo("gmdf_slice_wall_ns", &f.slice_wall_ns);
        histo("gmdf_events_per_slice", &f.events_per_slice);
        histo("gmdf_store_append_ns", &f.store_append_ns);
        histo("gmdf_store_read_ns", &f.store_read_ns);
        histo("gmdf_store_maintain_ns", &f.store_maintain_ns);
        histo("gmdf_journal_append_ns", &f.journal_append_ns);
        histo("gmdf_checkpoint_write_ns", &f.checkpoint_write_ns);
        histo("gmdf_checkpoint_restore_ns", &f.checkpoint_restore_ns);
        histo("gmdf_snapshot_ns", &f.snapshot_ns);
        histo("gmdf_fetch_range_ns", &f.fetch_range_ns);
        histo("gmdf_replay_from_ns", &f.replay_from_ns);
        histo("gmdf_seek_to_ns", &f.seek_to_ns);
        histo("gmdf_step_back_ns", &f.step_back_ns);
        histo("gmdf_replay_window_ns", &f.replay_window_ns);
        histo("gmdf_replayed_entries", &f.replayed_entries);
        for c in &f.wire_conns {
            let id = c.connection;
            out.push_str(&format!(
                "gmdf_wire_conn_attached{{connection=\"{id}\"}} {}\n",
                c.attached
            ));
            out.push_str(&format!(
                "gmdf_wire_conn_frames_tx{{connection=\"{id}\"}} {}\n",
                c.frames_tx
            ));
            out.push_str(&format!(
                "gmdf_wire_conn_frames_rx{{connection=\"{id}\"}} {}\n",
                c.frames_rx
            ));
            out.push_str(&format!(
                "gmdf_wire_conn_bytes_tx{{connection=\"{id}\"}} {}\n",
                c.bytes_tx
            ));
            out.push_str(&format!(
                "gmdf_wire_conn_bytes_rx{{connection=\"{id}\"}} {}\n",
                c.bytes_rx
            ));
            out.push_str(&format!(
                "gmdf_wire_conn_lagged_drops{{connection=\"{id}\"}} {}\n",
                c.lagged_drops
            ));
        }
        for s in &self.sessions {
            let id = s.session;
            let state = match s.state {
                HealthState::Running => "running",
                HealthState::Parked => "parked",
                HealthState::Quarantined => "quarantined",
                HealthState::Failed => "failed",
            };
            out.push_str(&format!(
                "gmdf_session_up{{session=\"{id}\",state=\"{state}\"}} {}\n",
                u64::from(matches!(
                    s.state,
                    HealthState::Running | HealthState::Parked
                ))
            ));
            out.push_str(&format!(
                "gmdf_session_events_fed{{session=\"{id}\"}} {}\n",
                s.events_fed
            ));
            out.push_str(&format!(
                "gmdf_session_violations{{session=\"{id}\"}} {}\n",
                s.violations
            ));
            out.push_str(&format!(
                "gmdf_session_lagged_drops{{session=\"{id}\"}} {}\n",
                s.lagged_drops
            ));
            out.push_str(&format!(
                "gmdf_session_trace_len{{session=\"{id}\"}} {}\n",
                s.trace_len
            ));
        }
        out
    }
}

/// Merges the registry's per-shard histograms and counters into the
/// fleet read-out skeleton. Session-derived sums (events, drops, store
/// footprints, memo stats) are filled in by the caller, which holds the
/// session locks.
pub(crate) fn fleet_skeleton(registry: &MetricsRegistry) -> FleetMetrics {
    let mut wall = HistogramAccum::new();
    let mut per_slice = HistogramAccum::new();
    let mut slices = 0u64;
    let mut shards = Vec::with_capacity(registry.shards.len());
    for (i, s) in registry.shards.iter().enumerate() {
        s.slice_wall_ns.merge_into(&mut wall);
        s.events_per_slice.merge_into(&mut per_slice);
        slices += s.slices.get();
        shards.push(ShardSnapshot {
            shard: i as u64,
            slices: s.slices.get(),
            slice_wall_ns: s.slice_wall_ns.snapshot(),
            events_per_slice: s.events_per_slice.snapshot(),
        });
    }
    let now_ms = registry.now_ms();
    FleetMetrics {
        sessions: 0,
        workers: registry.shards.len() as u64,
        uptime_ms: now_ms,
        slices,
        slice_wall_ns: wall.snapshot(),
        events_per_slice: per_slice.snapshot(),
        shards,
        events_fed: 0,
        recent_events_per_sec: registry.events_recent.rate_per_sec(now_ms, RATE_WINDOW_MS),
        mailbox_depth: registry.mailbox_depth.get(),
        subscriber_depth: registry.subscriber_depth.get(),
        lagged_drops: 0,
        store_appends: registry.store.appends.get(),
        store_append_ns: registry.store.append_ns.snapshot(),
        store_reads: registry.store.reads.get(),
        store_read_ns: registry.store.read_ns.snapshot(),
        trace_segments: 0,
        trace_disk_bytes: 0,
        trace_compacted_segments: 0,
        store_compactions: registry.store.compactions.get(),
        store_evicted_segments: registry.store.evicted_segments.get(),
        store_reclaimed_bytes: registry.store.reclaimed_bytes.get(),
        store_maintain_ns: registry.store.maintain_ns.snapshot(),
        journal_appends: registry.journal_appends.get(),
        journal_append_ns: registry.journal_append_ns.snapshot(),
        checkpoint_writes: registry.checkpoint_writes.get(),
        checkpoint_images: registry.checkpoint_images.get(),
        checkpoint_bytes: registry.checkpoint_bytes.get(),
        checkpoint_restores: registry.checkpoint_restores.get(),
        checkpoint_fallbacks: registry.checkpoint_fallbacks.get(),
        checkpoint_write_ns: registry.checkpoint_write_ns.snapshot(),
        checkpoint_restore_ns: registry.checkpoint_restore_ns.snapshot(),
        snapshot_ns: registry.snapshot_ns.snapshot(),
        fetch_range_ns: registry.fetch_range_ns.snapshot(),
        replay_from_ns: registry.replay_from_ns.snapshot(),
        seek_to_ns: registry.seek_to_ns.snapshot(),
        step_back_ns: registry.step_back_ns.snapshot(),
        replay_window_ns: registry.replay_window_ns.snapshot(),
        replayed_entries: registry.replayed_entries.snapshot(),
        wire_connections: registry.wire.connections.get(),
        wire_frames_tx: registry.wire.frames_tx.get(),
        wire_frames_rx: registry.wire.frames_rx.get(),
        wire_bytes_tx: registry.wire.bytes_tx.get(),
        wire_bytes_rx: registry.wire.bytes_rx.get(),
        wire_conns: registry.wire.connection_rows(),
        memo_hits: 0,
        memo_misses: 0,
    }
}
