//! Checkpointed time travel: `SeekTo` / `StepBack` / `ReplayWindow`
//! over a durable session.
//!
//! The headline property: a seek served from the nearest persisted
//! checkpoint plus O(interval) deterministic replay produces a trace
//! **byte-identical** to replaying the whole journal from zero — the
//! checkpoint is an accelerator, never an oracle. The suite also pins
//! the crash story (a checkpoint torn at an arbitrary byte falls back
//! to an older image or to zero), the retention clamp (eviction never
//! outruns the oldest retained checkpoint), the wire round trip, and
//! the checkpoint metrics. The second half covers dense anchors —
//! several images per checkpoint file, staged in memory between
//! commits: byte-identity at every instant, torn and bit-flipped files,
//! staged images lost to a restart, and `GCP1` files from before.

mod common;

use common::ring_system;
use gmdf::SessionSpec;
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::SignalValue;
use gmdf_engine::{checkpoint_stride, CheckpointStore, Codec, ExecutionTrace, Retention};
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::{
    DebugServer, PersistConfig, ServerConfig, SessionHandle, WireClient, WireServer,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// Checkpoint every 32 trace entries — small enough that a ~30 ms ring
/// run writes several images, so seeks genuinely restore rather than
/// replay from zero.
const INTERVAL: u64 = 32;

fn tmp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gmdf-tt-{tag}-{}-{n}", std::process::id()))
}

fn spec_of(system: gmdf_comdes::System) -> SessionSpec {
    gmdf::Workflow::from_system(system)
        .expect("valid system")
        .default_abstraction()
        .default_commands()
        .into_spec(
            gmdf::ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            gmdf_target::SimConfig::default(),
        )
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        slice_ns: 500_000,
        ..ServerConfig::default()
    }
}

fn tt_system(name: &str) -> gmdf_comdes::System {
    ring_system(name, 3, 0.0008, 500_000)
}

/// Drives a history that exercises every journaled command class the
/// seek replay must reproduce: scheduled stimuli, breakpoints (hit and
/// cleared), step, resume and plain run budget. `wait_idle` barriers
/// pin each command's application instant so reruns are identical.
fn drive_history(handle: &SessionHandle) {
    handle.run_for(6_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle
        .schedule_signal(9_000_000, "state_sig", SignalValue::Int(5))
        .expect("send");
    handle
        .add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true)
        .expect("send");
    handle.run_for(6_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle.step().expect("send");
    handle.resume().expect("send");
    handle.run_for(9_000_000).expect("send");
    handle.wait_idle(WAIT).expect("idle");
    handle.clear_breakpoints().expect("send");
    // Then pump until the trace spans several checkpoint intervals, so
    // seeks genuinely restore instead of degenerating to from-zero.
    let mut chunks = 0usize;
    while (handle.stats(WAIT).expect("stats").trace_len as u64) < 5 * INTERVAL {
        handle.run_for(25_000_000).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        chunks += 1;
        assert!(chunks < 64, "ring too quiet after {chunks} chunks");
    }
}

/// The directory of one durable session's checkpoints.
fn checkpoint_dir(root: &std::path::Path, id: u64) -> PathBuf {
    root.join("sessions")
        .join(format!("{id:016}"))
        .join("checkpoints")
}

/// Lists `(seq, path)` of the `.ck` files on disk, ascending by seq.
fn checkpoint_files(dir: &std::path::Path) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name
                .strip_prefix("ckpt-")?
                .strip_suffix(".ck")?
                .split('-')
                .next()?
                .parse()
                .ok()?;
            Some((seq, e.path()))
        })
        .collect();
    out.sort();
    out
}

/// A seek to the live instant is served from a checkpoint (restoring
/// and replaying only the O(interval) tail) and its serialized trace is
/// byte-identical to the live session's own snapshot.
#[test]
fn seek_to_now_matches_the_live_snapshot_byte_for_byte() {
    let root = tmp_root("seek-now");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-now")))
        .expect("durable");
    drive_history(&handle);

    let snapshot = handle.snapshot(WAIT).expect("snapshot");
    assert!(
        snapshot.trace_len as u64 > 2 * INTERVAL,
        "need several checkpoint intervals, got {} entries",
        snapshot.trace_len
    );
    let report = handle.seek_to(snapshot.now_ns, true, WAIT).expect("seek");
    assert_eq!(report.target_ns, snapshot.now_ns);
    assert_eq!(report.now_ns, snapshot.now_ns);
    assert!(
        report.checkpoint_seq.is_some(),
        "a long trace must seek via a checkpoint"
    );
    assert!(
        report.replayed_entries < report.trace_len,
        "checkpoint restore must shortcut the replay: regenerated {} of {}",
        report.replayed_entries,
        report.trace_len
    );
    assert_eq!(report.trace_len as usize, snapshot.trace_len);
    assert_eq!(
        report.trace_json.expect("trace requested"),
        snapshot.trace_json.expect("trace requested"),
        "seek trace must be byte-identical to the live snapshot"
    );
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// The acceptance property: seeks served from checkpoints are
/// byte-identical to the same seeks replayed from zero. The registry is
/// probed at several instants, then its checkpoints are deleted and the
/// server restarted with checkpointing disabled — every probe must
/// reproduce the exact same trace the checkpointed seek produced.
#[test]
fn checkpointed_seek_is_byte_identical_to_replay_from_zero() {
    let root = tmp_root("vs-zero");
    let (id, probes) = {
        let server = DebugServer::start_persistent(
            server_config(),
            PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
        )
        .expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-zero")))
            .expect("durable");
        drive_history(&handle);
        let now = handle.stats(WAIT).expect("stats").now_ns;
        let mut probes = Vec::new();
        let mut via_checkpoint = 0;
        for t in [now / 4, now / 2, now - now / 4, now] {
            let report = handle.seek_to(t, true, WAIT).expect("seek");
            via_checkpoint += u32::from(report.checkpoint_seq.is_some());
            probes.push((t, report.trace_json.expect("trace requested")));
        }
        assert!(
            via_checkpoint >= 2,
            "late probes must be served from checkpoints, got {via_checkpoint}/4"
        );
        (handle.id(), probes)
        // Server dropped here, registry left on disk.
    };
    std::fs::remove_dir_all(checkpoint_dir(&root, id)).expect("delete checkpoints");

    // Restart without checkpoints: the journal alone is the truth.
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(0),
    )
    .expect("restart");
    let handle = server.handle(id).expect("restored");
    handle.wait_idle(WAIT).expect("catch-up");
    for (t, via_checkpoint) in &probes {
        let report = handle.seek_to(*t, true, WAIT).expect("seek from zero");
        assert_eq!(
            report.checkpoint_seq, None,
            "checkpoints were deleted, this must be a from-zero replay"
        );
        assert_eq!(
            report.trace_json.as_deref(),
            Some(via_checkpoint.as_str()),
            "checkpointed seek to {t} ns must equal replay-from-zero"
        );
    }
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// `StepBack { entries: k }` rewinds to the instant of the entry `k`
/// places before the end of the trace, and is the same replica a
/// `SeekTo` of that instant builds.
#[test]
fn step_back_lands_on_the_pivot_entrys_instant() {
    let root = tmp_root("step-back");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-step")))
        .expect("durable");
    drive_history(&handle);

    let snapshot = handle.snapshot(WAIT).expect("snapshot");
    let entries = ExecutionTrace::from_json(&snapshot.trace_json.expect("trace"))
        .expect("parses")
        .entries();
    let len = entries.len();
    for k in [1usize, 7, len / 2] {
        let report = handle.step_back(k as u64, true, WAIT).expect("step back");
        let pivot = &entries[len - k - 1];
        assert_eq!(
            report.target_ns, pivot.event.time_ns,
            "stepping back {k} entries must land on the pivot's instant"
        );
        let same = handle.seek_to(report.target_ns, true, WAIT).expect("seek");
        assert_eq!(
            report.trace_json, same.trace_json,
            "StepBack and SeekTo at the same instant must agree"
        );
    }
    // Rewinding the whole trace lands at t = 0.
    let zero = handle.step_back(len as u64, false, WAIT).expect("rewind");
    assert_eq!(zero.target_ns, 0);
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// `ReplayWindow` regenerates exactly what `FetchRange` pages out of
/// the live store — in-process and across the wire (which also pins the
/// v6 serde arms for the whole seek vocabulary).
#[test]
fn replay_window_matches_fetch_range_in_process_and_over_the_wire() {
    let root = tmp_root("window");
    let server = Arc::new(
        DebugServer::start_persistent(
            server_config(),
            PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
        )
        .expect("boots"),
    );
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-window")))
        .expect("durable");
    drive_history(&handle);

    let now = handle.stats(WAIT).expect("stats").now_ns;
    let (t0, t1) = (now / 4, now / 2);
    let fetched = handle.fetch_range(t0, t1, WAIT).expect("fetch");
    assert!(!fetched.entries.is_empty(), "window must not be empty");
    let replayed = handle.replay_window(t0, t1, WAIT).expect("replay window");
    assert_eq!(
        serde_json::to_string(&replayed).expect("json"),
        serde_json::to_string(&fetched).expect("json"),
        "a regenerated window must be byte-identical to the paged one"
    );

    // The same vocabulary over TCP: replies survive the JSON framing.
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    let id = handle.id();
    let remote = client
        .replay_window(id, t0, t1, WAIT)
        .expect("remote window");
    assert_eq!(
        serde_json::to_string(&remote).expect("json"),
        serde_json::to_string(&fetched).expect("json")
    );
    let local_seek = handle.seek_to(now, true, WAIT).expect("seek");
    let remote_seek = client.seek_to(id, now, true, WAIT).expect("remote seek");
    assert_eq!(remote_seek.trace_json, local_seek.trace_json);
    assert_eq!(remote_seek.checkpoint_seq, local_seek.checkpoint_seq);
    let local_back = handle.step_back(5, true, WAIT).expect("step back");
    let remote_back = client.step_back(id, 5, true, WAIT).expect("remote back");
    assert_eq!(remote_back.target_ns, local_back.target_ns);
    assert_eq!(remote_back.trace_json, local_back.trace_json);
    drop(client);
    drop(wire);
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// The crash story: a checkpoint file cut at an **arbitrary byte** (a
/// kill mid-write, disk damage…) is discarded on the next open and the
/// seek falls back to an older image — or all the way to a from-zero
/// replay — still producing the byte-identical trace. Stale `.tmp`
/// spool files are swept too.
#[test]
fn torn_checkpoint_falls_back_to_an_older_image() {
    let root = tmp_root("torn");
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(INTERVAL);
    let (id, now, reference) = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-torn")))
            .expect("durable");
        drive_history(&handle);
        let snapshot = handle.snapshot(WAIT).expect("snapshot");
        (
            handle.id(),
            snapshot.now_ns,
            snapshot.trace_json.expect("trace"),
        )
    };
    let dir = checkpoint_dir(&root, id);
    let files = checkpoint_files(&dir);
    assert!(files.len() >= 2, "need a fallback image: {files:?}");
    let (newest_seq, newest_path) = files.last().expect("newest").clone();
    let intact = std::fs::read(&newest_path).expect("read newest");

    for cut in [3usize, intact.len() / 3, intact.len() - 1] {
        // Tear the newest checkpoint at `cut` bytes, and leave a stale
        // spool file behind as an interrupted write would.
        std::fs::write(&newest_path, &intact[..cut]).expect("tear");
        let stale = newest_path.with_extension("ck.tmp");
        std::fs::write(&stale, b"half-written").expect("spool");

        let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
        let handle = server.handle(id).expect("restored");
        handle.wait_idle(WAIT).expect("catch-up");
        let report = handle.seek_to(now, true, WAIT).expect("seek");
        assert_ne!(
            report.checkpoint_seq,
            Some(newest_seq),
            "the torn image must not serve the seek (cut at {cut} bytes)"
        );
        assert_eq!(
            report.trace_json.as_deref(),
            Some(reference.as_str()),
            "fallback must still be byte-identical (cut at {cut} bytes)"
        );
        drop(server);
        assert!(
            !newest_path.exists(),
            "the damaged file must be swept on open"
        );
        assert!(!stale.exists(), "stale .tmp spool must be swept on open");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The retention clamp: under disk-budget eviction pressure the replay
/// floor never passes the oldest retained checkpoint's sequence — a
/// seek can always restore that checkpoint and page forward out of
/// still-retained segments — and history older than the floor stays
/// reachable through `ReplayWindow` regeneration.
#[test]
fn eviction_never_outruns_the_oldest_checkpoint() {
    const BUDGET: u64 = 8 * 1024;
    const CHUNK_NS: u64 = 25_000_000;
    let root = tmp_root("clamp");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root)
            .with_segment_capacity(16)
            .with_codec(Codec::Binary)
            .with_retention(Retention {
                compress_after: Some(1),
                max_disk_bytes: Some(BUDGET),
            })
            .with_compact_interval(Duration::from_millis(5))
            .with_checkpoint_interval(48),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-clamp")))
        .expect("durable");
    let mut chunks = 0usize;
    loop {
        handle.run_for(CHUNK_NS).expect("send");
        handle.wait_idle(WAIT).expect("idle");
        chunks += 1;
        if handle.stats(WAIT).expect("stats").trace_len >= 600 {
            break;
        }
        assert!(chunks < 64, "ring too quiet after {chunks} chunks");
    }
    // Wait for the budget to actually force evictions.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if server.metrics_snapshot().fleet.store_evicted_segments > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the budget never forced an eviction"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let oldest_ck = checkpoint_files(&checkpoint_dir(&root, handle.id()))
        .first()
        .expect("checkpoints written")
        .0;
    let floor = handle.replay_from(0, 7, WAIT).expect("page").first_seq;
    assert!(floor > 0, "eviction should have moved the replay floor");
    assert!(
        floor <= oldest_ck,
        "eviction passed the oldest checkpoint: floor {floor} > checkpoint {oldest_ck}"
    );

    // A seek pinned just past the oldest checkpoint restores *that*
    // image and replays O(interval), even under eviction pressure.
    let stats = handle.stats(WAIT).expect("stats");
    let report = handle.seek_to(stats.now_ns / 2, false, WAIT).expect("seek");
    assert!(report.checkpoint_seq.is_some());
    assert!(report.replayed_entries < report.trace_len);
    // And a window that predates the floor regenerates from scratch.
    let window = handle
        .replay_window(0, stats.now_ns / 8, WAIT)
        .expect("pre-floor window");
    assert!(
        window.entries.first().map_or(0, |e| e.seq) < floor,
        "the regenerated window must reach below the eviction floor"
    );
    assert!(window
        .entries
        .iter()
        .all(|e| e.event.time_ns <= stats.now_ns / 8));
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// Checkpoint activity is measured: writes, payload bytes and restores
/// count up in the fleet snapshot consistently with the trace length
/// and the on-disk registry, the latency histograms tally one sample
/// per operation, and everything reaches the Prometheus exposition.
#[test]
fn checkpoint_metrics_flow_through_registry_and_prometheus() {
    let root = tmp_root("metrics");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-metrics")))
        .expect("durable");
    drive_history(&handle);
    let stats = handle.stats(WAIT).expect("stats");
    for t in [stats.now_ns / 2, stats.now_ns] {
        handle.seek_to(t, false, WAIT).expect("seek");
    }

    let fleet = server.metrics_snapshot().fleet;
    assert!(fleet.checkpoint_writes > 0, "no checkpoints written");
    assert!(
        fleet.checkpoint_writes <= stats.trace_len as u64 / INTERVAL,
        "at most one write per interval of entries: {} writes for {} entries",
        fleet.checkpoint_writes,
        stats.trace_len
    );
    assert!(
        fleet.checkpoint_bytes > fleet.checkpoint_writes,
        "payloads are non-trivial"
    );
    assert!(
        fleet.checkpoint_restores >= 1,
        "checkpointed seeks must count restores"
    );
    assert_eq!(fleet.checkpoint_write_ns.count, fleet.checkpoint_writes);
    assert_eq!(fleet.checkpoint_restore_ns.count, fleet.checkpoint_restores);
    // One on-disk image per counted write (nothing prunes them yet).
    let files = checkpoint_files(&checkpoint_dir(&root, handle.id()));
    assert_eq!(files.len() as u64, fleet.checkpoint_writes);

    let text = server.metrics_text();
    for needle in [
        "gmdf_checkpoint_writes_total",
        "gmdf_checkpoint_bytes",
        "gmdf_checkpoint_restores_total",
        "gmdf_checkpoint_write_ns",
        "gmdf_checkpoint_restore_ns",
    ] {
        assert!(text.contains(needle), "{needle} missing from exposition");
    }

    // Per-verb time-travel latency: one sample per served request, and
    // one replay-length sample per replica built. Images outnumber the
    // files they share.
    handle.step_back(3, false, WAIT).expect("step back");
    handle
        .replay_window(stats.now_ns / 4, stats.now_ns / 2, WAIT)
        .expect("window");
    let fleet = server.metrics_snapshot().fleet;
    assert_eq!(fleet.seek_to_ns.count, 2);
    assert_eq!(fleet.step_back_ns.count, 1);
    assert_eq!(fleet.replay_window_ns.count, 1);
    assert_eq!(fleet.replayed_entries.count, 4);
    assert!(
        fleet.checkpoint_images > fleet.checkpoint_writes,
        "{} images for {} files",
        fleet.checkpoint_images,
        fleet.checkpoint_writes
    );
    assert_eq!(
        files.len() as u64,
        fleet.checkpoint_writes,
        "writes count files"
    );
    let text = server.metrics_text();
    for needle in [
        "gmdf_checkpoint_images_total",
        "gmdf_seek_to_ns_count 2",
        "gmdf_step_back_ns_count 1",
        "gmdf_replay_window_ns_count 1",
        "gmdf_replayed_entries_count 4",
    ] {
        assert!(text.contains(needle), "{needle} missing from exposition");
    }
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Dense anchors: several images per checkpoint file
// ---------------------------------------------------------------------------

/// Trace entries between checkpoint images at [`INTERVAL`].
const STRIDE: u64 = checkpoint_stride(INTERVAL);

/// One image in a `GCP2` checkpoint file, read from the file's index.
#[derive(Debug, Clone, Copy)]
struct FileImage {
    seq: u64,
    t_ns: u64,
    /// Byte range of the image's index entry.
    entry: (usize, usize),
    /// Byte range of the image's payload.
    payload: (usize, usize),
}

/// Parses the index of a `GCP2` file: `"GCP2" | codec u8 | count u32`,
/// then `count × [seq u64 | t_ns u64 | offset u64 | len u32 | crc u32]`
/// (all big-endian), then the payloads.
fn gcp2_images(bytes: &[u8]) -> Vec<FileImage> {
    assert_eq!(&bytes[..4], b"GCP2", "checkpoint files are written as GCP2");
    let be = |at: usize, n: usize| {
        bytes[at..at + n]
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
    };
    (0..be(5, 4) as usize)
        .map(|k| {
            let at = 9 + 32 * k;
            let (offset, len) = (be(at + 16, 8) as usize, be(at + 24, 4) as usize);
            FileImage {
                seq: be(at, 8),
                t_ns: be(at + 8, 8),
                entry: (at, at + 32),
                payload: (offset, offset + len),
            }
        })
        .collect()
}

/// Every committed image of a session: `(file path, images)` per file,
/// ascending.
fn committed_images(root: &std::path::Path, id: u64) -> Vec<(PathBuf, Vec<FileImage>)> {
    checkpoint_files(&checkpoint_dir(root, id))
        .into_iter()
        .map(|(_, path)| {
            let images = gcp2_images(&std::fs::read(&path).expect("read checkpoint"));
            (path, images)
        })
        .collect()
}

/// The answer of one seek, minus how it was served (anchor and replay
/// length differ by design between dense anchors and replay from zero).
fn answer(report: &gmdf_server::SeekReport) -> String {
    format!(
        "{} {} {} {:?}\n{}",
        report.target_ns,
        report.now_ns,
        report.trace_len,
        report.engine_state,
        report.trace_json.as_deref().expect("trace requested")
    )
}

/// Moves a session's checkpoints aside, restarts with checkpointing
/// disabled and answers every target by replay from zero, then puts
/// the checkpoints back.
fn answers_from_zero(root: &std::path::Path, id: u64, targets: &[u64]) -> Vec<String> {
    let dir = checkpoint_dir(root, id);
    let aside = dir.with_extension("aside");
    std::fs::rename(&dir, &aside).expect("move checkpoints aside");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(root).with_checkpoint_interval(0),
    )
    .expect("restart");
    let handle = server.handle(id).expect("restored");
    handle.wait_idle(WAIT).expect("catch-up");
    let answers = targets
        .iter()
        .map(|&t| {
            let report = handle.seek_to(t, true, WAIT).expect("seek from zero");
            assert_eq!(report.checkpoint_seq, None, "replay from zero");
            answer(&report)
        })
        .collect();
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::rename(&aside, &dir).expect("restore checkpoints");
    answers
}

/// Dense anchors: every instant of the history, seeked through images
/// taken every stride, answers byte-identically to replay from zero;
/// some seek anchors on an image in the middle of a file; and no seek
/// replays more than one stride plus one pump slice's entries.
#[test]
fn dense_anchor_seeks_match_replay_from_zero_at_every_instant() {
    let root = tmp_root("dense");
    let (id, targets, answers, anchors, max_slice) = {
        let server = DebugServer::start_persistent(
            server_config(),
            PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
        )
        .expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-dense")))
            .expect("durable");
        let events = handle.subscribe_with_capacity(0);
        drive_history(&handle);
        // Each pumped slice publishes its entries as one delta.
        let max_slice = events
            .try_iter()
            .filter_map(|event| match event {
                gmdf_server::EngineEvent::TraceDelta { entries, .. } => Some(entries.len() as u64),
                _ => None,
            })
            .max()
            .expect("the history published entries");
        let snapshot = handle.snapshot(WAIT).expect("snapshot");
        let entries = ExecutionTrace::from_json(&snapshot.trace_json.expect("trace"))
            .expect("parses")
            .entries();
        let mut targets: Vec<u64> = entries.iter().map(|e| e.event.time_ns).collect();
        targets.push(snapshot.now_ns);
        targets.dedup();
        let mut answers = Vec::new();
        let mut anchors = Vec::new();
        for &t in &targets {
            let report = handle.seek_to(t, true, WAIT).expect("seek");
            assert!(
                report.replayed_entries <= STRIDE + max_slice,
                "seek to {t} replayed {} entries, more than a stride ({STRIDE}) plus a slice \
                 ({max_slice})",
                report.replayed_entries
            );
            anchors.extend(report.checkpoint_seq);
            answers.push(answer(&report));
        }
        (handle.id(), targets, answers, anchors, max_slice)
    };
    let mid_file: Vec<u64> = committed_images(&root, id)
        .iter()
        .flat_map(|(_, images)| images[..images.len() - 1].iter().map(|i| i.seq))
        .collect();
    assert!(
        anchors.iter().any(|seq| mid_file.contains(seq)),
        "no seek anchored on a mid-file image (anchors {anchors:?}, mid-file {mid_file:?})"
    );
    assert!(max_slice > 0);
    let reference = answers_from_zero(&root, id, &targets);
    for ((t, dense), zero) in targets.iter().zip(&answers).zip(&reference) {
        assert_eq!(
            dense, zero,
            "dense-anchor seek to {t} ns differs from replay from zero"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Restarts a registry with checkpointing off: the session's files
/// still anchor seeks, but the pump takes no fresh image once its
/// catch-up ends, so a seek can only be served by what was on disk.
fn restart_without_imaging(root: &std::path::Path) -> DebugServer {
    DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(root).with_checkpoint_interval(0),
    )
    .expect("restart")
}

/// The newest checkpoint file torn at an arbitrary byte is rejected
/// whole: the seek falls back to the previous file's newest image and
/// still answers byte-identically.
#[test]
fn torn_newest_file_falls_back_to_the_previous_files_newest_image() {
    let root = tmp_root("torn-dense");
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(INTERVAL);
    let (id, now, reference) = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-torn-dense")))
            .expect("durable");
        drive_history(&handle);
        let now = handle.stats(WAIT).expect("stats").now_ns;
        let report = handle.seek_to(now, true, WAIT).expect("seek");
        (handle.id(), now, answer(&report))
    };
    let files = committed_images(&root, id);
    assert!(files.len() >= 2, "need a previous file to fall back to");
    let previous_newest = files[files.len() - 2].1.last().expect("non-empty").seq;
    let (newest_path, newest_images) = files.last().expect("newest").clone();
    assert!(
        newest_images.len() > 1,
        "the newest file holds several images"
    );
    let intact = std::fs::read(&newest_path).expect("read newest");
    // Cuts spread over header, index and payloads.
    for cut in [
        1usize,
        9,
        40,
        intact.len() / 2,
        intact.len() * 5 / 7,
        intact.len() - 1,
    ] {
        std::fs::write(&newest_path, &intact[..cut]).expect("tear");
        let server = restart_without_imaging(&root);
        let handle = server.handle(id).expect("restored");
        handle.wait_idle(WAIT).expect("catch-up");
        let report = handle.seek_to(now, true, WAIT).expect("seek");
        assert_eq!(
            report.checkpoint_seq,
            Some(previous_newest),
            "cut at {cut}: the previous file's newest image must anchor the seek"
        );
        assert_eq!(answer(&report), reference, "cut at {cut}: same answer");
        drop(server);
        assert!(
            !newest_path.exists(),
            "cut at {cut}: torn file swept on open"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Images staged since the last commit answer seeks at once; a restart
/// drops them, and the same seek — now anchored on a committed image —
/// answers byte-identically.
#[test]
fn staged_images_serve_seeks_and_a_restart_drops_them_harmlessly() {
    let root = tmp_root("staged");
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(INTERVAL);
    let (id, target, staged_seq, reference) = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-staged")))
            .expect("durable");
        drive_history(&handle);
        // Pump in small steps until the newest image is still staged:
        // newer than every committed file.
        let mut steps = 0;
        loop {
            let now = handle.stats(WAIT).expect("stats").now_ns;
            let report = handle.seek_to(now, true, WAIT).expect("seek");
            let committed = checkpoint_files(&checkpoint_dir(&root, handle.id()))
                .last()
                .map_or(0, |(seq, _)| *seq);
            match report.checkpoint_seq {
                Some(seq) if seq > committed => break (handle.id(), now, seq, answer(&report)),
                _ => {}
            }
            handle.run_for(1_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
            steps += 1;
            assert!(steps < 200, "no staged image after {steps} steps");
        }
    };
    assert!(
        committed_images(&root, id)
            .iter()
            .all(|(_, images)| images.iter().all(|i| i.seq != staged_seq)),
        "the anchor was never written to disk"
    );
    let server = restart_without_imaging(&root);
    let handle = server.handle(id).expect("restored");
    handle.wait_idle(WAIT).expect("catch-up");
    let report = handle
        .seek_to(target, true, WAIT)
        .expect("seek after restart");
    assert!(
        report.checkpoint_seq.is_some_and(|seq| seq < staged_seq),
        "the staged image died with the process: anchored on {:?}",
        report.checkpoint_seq
    );
    assert_eq!(
        answer(&report),
        reference,
        "same answer without the staged image"
    );
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// A hand-written one-image `GCP1` file — the format before multi-image
/// files — still anchors a seek.
#[test]
fn a_gcp1_file_still_anchors_a_seek() {
    let root = tmp_root("gcp1");
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(INTERVAL);
    let (id, image, target, reference) = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-gcp1")))
            .expect("durable");
        drive_history(&handle);
        let id = handle.id();
        let store = CheckpointStore::open(checkpoint_dir(&root, id)).expect("open");
        let image = store.metas()[store.len() / 2];
        // Just past the image, before the next one.
        let target = image.t_ns + 1;
        let report = handle.seek_to(target, true, WAIT).expect("seek");
        (id, image, target, answer(&report))
    };
    let dir = checkpoint_dir(&root, id);
    let payload = CheckpointStore::open(&dir)
        .expect("open")
        .load(&image)
        .expect("load");
    std::fs::remove_dir_all(&dir).expect("drop the GCP2 files");
    std::fs::create_dir_all(&dir).expect("recreate");
    let mut gcp1 = b"GCP1\0".to_vec();
    gcp1.extend_from_slice(&u32::try_from(payload.len()).expect("fits").to_be_bytes());
    gcp1.extend_from_slice(&payload);
    std::fs::write(
        dir.join(format!("ckpt-{:016}-{:020}.ck", image.seq, image.t_ns)),
        gcp1,
    )
    .expect("write GCP1");
    let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
    let handle = server.handle(id).expect("restored");
    handle.wait_idle(WAIT).expect("catch-up");
    let report = handle.seek_to(target, true, WAIT).expect("seek");
    assert_eq!(
        report.checkpoint_seq,
        Some(image.seq),
        "the GCP1 image anchors"
    );
    assert_eq!(answer(&report), reference);
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// A flipped byte at every 7th offset of a multi-image file: after a
/// reopen, a seek to the damaged image's instant never restores wrong
/// state — it answers byte-identically to replay from zero, anchored
/// below the damaged image. (A 4-entry interval keeps the file, and so
/// the number of restarts, small: one image per entry, four per file.)
#[test]
fn a_flipped_byte_in_a_file_never_restores_wrong_state() {
    let root = tmp_root("flip");
    let persist = || PersistConfig::new(&root).with_checkpoint_interval(4);
    let id = {
        let server = DebugServer::start_persistent(server_config(), persist()).expect("boots");
        let handle = server
            .add_durable_session(&spec_of(tt_system("tt-flip")))
            .expect("durable");
        let mut chunks = 0;
        while checkpoint_files(&checkpoint_dir(&root, handle.id())).len() < 2 {
            handle.run_for(2_000_000).expect("send");
            handle.wait_idle(WAIT).expect("idle");
            chunks += 1;
            assert!(chunks < 64, "ring too quiet after {chunks} chunks");
        }
        handle.id()
    };
    let files = committed_images(&root, id);
    let (path, images) = files[1].clone();
    assert!(images.len() > 1, "a multi-image file: {images:?}");
    let targets: Vec<u64> = images.iter().map(|i| i.t_ns).collect();
    let reference = answers_from_zero(&root, id, &targets);
    let intact = std::fs::read(&path).expect("read");
    let header = 9 + 32 * images.len();
    for at in (0..intact.len()).step_by(7) {
        let mut damaged = intact.clone();
        damaged[at] ^= 0x20;
        std::fs::write(&path, &damaged).expect("flip");
        // The image whose entry or payload holds the flipped byte; a
        // flip in the header damages the file's first image.
        let k = images
            .iter()
            .position(|i| {
                (i.entry.0..i.entry.1).contains(&at) || (i.payload.0..i.payload.1).contains(&at)
            })
            .unwrap_or(0);
        assert!(at >= 9 || k == 0);
        let server = DebugServer::start_persistent(server_config(), persist()).expect("restart");
        let handle = server.handle(id).expect("restored");
        handle.wait_idle(WAIT).expect("catch-up");
        let report = handle.seek_to(targets[k], true, WAIT).expect("seek");
        assert!(
            report.checkpoint_seq.is_none_or(|seq| seq < images[k].seq),
            "flip at {at} (header ends at {header}): anchored on {:?}, damaged image at seq {}",
            report.checkpoint_seq,
            images[k].seq
        );
        assert_eq!(answer(&report), reference[k], "flip at {at}: same answer");
        drop(server);
        std::fs::write(&path, &intact).expect("repair");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A committed image damaged on disk while the server runs (so the
/// file already passed open-time validation) fails its load-time CRC:
/// the seek skips it for the next older image, counts exactly one
/// fallback, and still answers byte-identically.
#[test]
fn a_payload_damaged_after_open_counts_one_checkpoint_fallback() {
    let root = tmp_root("fallback");
    let server = DebugServer::start_persistent(
        server_config(),
        PersistConfig::new(&root).with_checkpoint_interval(INTERVAL),
    )
    .expect("boots");
    let handle = server
        .add_durable_session(&spec_of(tt_system("tt-fallback")))
        .expect("durable");
    drive_history(&handle);
    let files = committed_images(&root, handle.id());
    let (path, images) = files.last().expect("a committed file").clone();
    assert!(images.len() > 1, "a multi-image file: {images:?}");
    let damaged = *images.last().expect("non-empty");
    let before = handle.seek_to(damaged.t_ns, true, WAIT).expect("seek");
    assert_eq!(
        before.checkpoint_seq,
        Some(damaged.seq),
        "the intact image anchors the seek"
    );
    assert_eq!(server.metrics_snapshot().fleet.checkpoint_fallbacks, 0);

    let mut bytes = std::fs::read(&path).expect("read");
    bytes[damaged.payload.0] ^= 0x20;
    std::fs::write(&path, &bytes).expect("damage payload");
    let after = handle.seek_to(damaged.t_ns, true, WAIT).expect("seek");

    assert_eq!(server.metrics_snapshot().fleet.checkpoint_fallbacks, 1);
    assert!(server
        .metrics_text()
        .contains("\ngmdf_checkpoint_fallbacks_total 1\n"));
    assert!(
        after.checkpoint_seq.is_some_and(|seq| seq < damaged.seq),
        "anchored on {:?}, damaged image at seq {}",
        after.checkpoint_seq,
        damaged.seq
    );
    assert_eq!(answer(&after), answer(&before), "same answer");
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}
