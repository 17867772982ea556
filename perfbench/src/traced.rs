//! The per-layer pass: the session pump reassembled from the public
//! pieces `DebugSession::build` / `DebugSession::run_for` and the
//! server's turn are made of, with a span around every call into a
//! layer. Beside it runs the same work through the `DebugSession`
//! façade without spans; the two must record byte-identical traces,
//! and their wall-time ratio is the tracing overhead.

use crate::common::ms;
use gmdf::{ActiveChannel, ChannelMode, PassiveChannel, RunReport, SessionSpec};
use gmdf_codegen::{compile_system, FrameDecoder as UartDecoder};
use gmdf_comdes::SignalValue;
use gmdf_engine::{
    CheckpointStore, DebuggerEngine, EngineCheckpoint, MaintenanceReport, SegmentConfig,
    SegmentStore, StoreError, StoreStats, TraceEntry, TraceStore,
};
use gmdf_gdm::ModelEvent;
use gmdf_server::proto::{decode_payload, encode_frame_into, FrameDecoder, ServerFrame};
use gmdf_server::{EngineEvent, PersistConfig};
use gmdf_target::{JtagMonitor, JtagState, SimState, Simulator};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stages a span can be charged to, named after the crates.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    Compile,
    Analyze,
    Target,
    UartDrain,
    Decode,
    EngineFeed,
    StoreAppend,
    Checkpoint,
    Publish,
    Encode,
    WireDecode,
}

/// Each stage's per-layer metric and its unit (`ms` or `s`).
pub const STAGES: [(Stage, &str, &str); 11] = [
    (Stage::Compile, "codegen.compile_ms", "ms"),
    (Stage::Analyze, "analyze.ms", "ms"),
    (Stage::Target, "target.busy_s", "s"),
    (Stage::UartDrain, "core.uart_drain_s", "s"),
    (Stage::Decode, "core.decode_s", "s"),
    (Stage::EngineFeed, "engine.feed_s", "s"),
    (Stage::StoreAppend, "engine.store_append_s", "s"),
    (Stage::Checkpoint, "engine.checkpoint_s", "s"),
    (Stage::Publish, "server.publish_s", "s"),
    (Stage::Encode, "server.encode_s", "s"),
    (Stage::WireDecode, "server.decode_s", "s"),
];

/// Accumulated span time per stage, in nanoseconds.
#[derive(Debug, Default)]
pub struct Spans {
    ns: [u64; STAGES.len()],
    /// Store appends, timed inside `DebuggerEngine::feed` by
    /// [`TimedStore`]; subtracted from the feed span to get its self
    /// time.
    nested_append: Arc<AtomicU64>,
}

impl Spans {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns[stage as usize] += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Self time per stage, in seconds, with the stage's metric name
    /// and unit.
    pub fn self_seconds(&self) -> Vec<(&'static str, &'static str, f64)> {
        let nested = self.nested_append.load(Ordering::Relaxed);
        STAGES
            .iter()
            .map(|&(stage, name, unit)| {
                let ns = match stage {
                    Stage::EngineFeed => self.ns[stage as usize].saturating_sub(nested),
                    Stage::StoreAppend => self.ns[stage as usize] + nested,
                    _ => self.ns[stage as usize],
                };
                (name, unit, ns as f64 / 1e9)
            })
            .collect()
    }
}

/// Forwards every call to a segment store and times the appends.
#[derive(Debug)]
struct TimedStore {
    inner: SegmentStore,
    append_ns: Arc<AtomicU64>,
}

impl TraceStore for TimedStore {
    fn append(&mut self, entry: TraceEntry) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = self.inner.append(entry);
        self.append_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_into(&self, from: u64, to: u64, out: &mut Vec<TraceEntry>) -> Result<(), StoreError> {
        self.inner.read_into(from, to, out)
    }
    fn window_bounds(&self, t0_ns: u64, t1_ns: u64) -> Result<(u64, u64), StoreError> {
        self.inner.window_bounds(t0_ns, t1_ns)
    }
    fn time_range(&self) -> Option<(u64, u64)> {
        self.inner.time_range()
    }
    fn sync(&mut self) -> Result<(), StoreError> {
        self.inner.sync()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn first_retained_seq(&self) -> u64 {
        self.inner.first_retained_seq()
    }
    fn maintain(&mut self) -> Result<MaintenanceReport, StoreError> {
        self.inner.maintain()
    }
    fn set_retain_floor(&mut self, floor: u64) {
        self.inner.set_retain_floor(floor);
    }
}

/// What one session of a pass runs: its spec, stimuli and horizon.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: SessionSpec,
    pub stimuli: Vec<(u64, String, SignalValue)>,
    pub horizon_ns: u64,
}

/// Where durable sessions of a pass keep their trace and checkpoints;
/// `None` keeps traces in memory.
#[derive(Debug, Clone)]
pub struct Durable {
    pub root: PathBuf,
    pub checkpoint_interval: u64,
}

/// Exact counts of the work a pass did; identical for identical inputs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub entries: u64,
    pub uart_bytes: u64,
    pub crc_errors: u64,
    pub wire_bytes: u64,
    pub wire_frames: u64,
    pub checkpoints: u64,
    pub disk_bytes: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

#[derive(Debug)]
pub struct Pass {
    pub wall: Duration,
    pub traces: Vec<String>,
    pub counts: Counts,
    pub spans: Spans,
}

/// The server's pump slice.
pub const SLICE_NS: u64 = 1_000_000;

fn segment_config() -> SegmentConfig {
    let defaults = PersistConfig::new(".");
    SegmentConfig {
        capacity: defaults.segment_capacity,
        codec: defaults.codec,
        retention: defaults.retention,
    }
}

fn open_durable(durable: &Durable, tag: &str, index: usize) -> (SegmentStore, CheckpointStore) {
    let dir = durable.root.join(format!("{tag}-{index}"));
    let store = SegmentStore::open_with(dir.join("trace"), segment_config())
        .expect("open the pass's segment store");
    let checkpoints =
        CheckpointStore::open(dir.join("checkpoints")).expect("open the pass's checkpoint store");
    (store, checkpoints)
}

/// The checkpoint image the reassembled pump writes: the same parts a
/// `SessionCheckpoint` holds.
#[derive(Serialize)]
struct Image {
    sim: SimState,
    engine: EngineCheckpoint,
    active: Option<Vec<UartDecoder>>,
    passive: Option<JtagState>,
    stimuli: Vec<(u64, String, SignalValue)>,
    trace_len: u64,
}

/// The server turn's tail, shared by both passes: read the slice's
/// delta out of the trace, frame it as the wire streamer would, and
/// decode it as the wire client would.
struct Wire {
    json: String,
    out: Vec<u8>,
    decoder: FrameDecoder,
    cursor: u64,
}

impl Wire {
    fn new() -> Self {
        Wire {
            json: String::new(),
            out: Vec::new(),
            decoder: FrameDecoder::new(),
            cursor: 0,
        }
    }

    fn publish(
        &mut self,
        engine: &DebuggerEngine,
        session: u64,
        now_ns: u64,
        report: RunReport,
        spans: &mut Spans,
        counts: &mut Counts,
    ) {
        let len = engine.trace().len() as u64;
        let mut events = vec![EngineEvent::SliceCompleted {
            session,
            now_ns,
            report,
        }];
        spans.time(Stage::Publish, || {
            if len > self.cursor {
                let mut entries = Vec::new();
                engine
                    .trace()
                    .read_range_into(self.cursor, len, &mut entries)
                    .expect("read the slice's delta");
                events.push(EngineEvent::TraceDelta { session, entries });
            }
        });
        self.cursor = len;
        let (json, out) = (&mut self.json, &mut self.out);
        out.clear();
        spans.time(Stage::Encode, || {
            for event in events {
                encode_frame_into(&ServerFrame::Event { event }, json, out)
                    .expect("frames stay under the wire limit");
            }
        });
        counts.wire_bytes += out.len() as u64;
        let decoder = &mut self.decoder;
        let frames = spans.time(Stage::WireDecode, || {
            decoder.feed(out);
            let mut frames = 0u64;
            while let Some(payload) = decoder.next_payload().expect("well-formed frames") {
                let _: ServerFrame = decode_payload(&payload).expect("decodable frames");
                frames += 1;
            }
            frames
        });
        counts.wire_frames += frames;
    }
}

fn finish(engine: &DebuggerEngine, counts: &mut Counts, sim: &Simulator) -> String {
    let stats = engine.trace().store_stats();
    counts.entries += engine.trace().len() as u64;
    counts.disk_bytes += stats.disk_bytes;
    let (hits, misses) = sim.memo_stats();
    counts.memo_hits += hits;
    counts.memo_misses += misses;
    engine.trace().to_json()
}

fn save_checkpoint(
    store: &mut CheckpointStore,
    image: &impl Serialize,
    seq: u64,
    t_ns: u64,
) -> u64 {
    let payload = serde_json::to_string(image).expect("checkpoint images serialize");
    store
        .save(seq, t_ns, payload.as_bytes())
        .expect("write checkpoint");
    seq
}

/// The reassembled pump with spans around every layer call.
pub fn traced_pass(jobs: &[Job], durable: Option<&Durable>, tag: &str) -> Pass {
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut traces = Vec::new();
    let mut wall = Duration::ZERO;
    for (index, job) in jobs.iter().enumerate() {
        let t0 = Instant::now();
        let spec = &job.spec;
        let image = spans.time(Stage::Compile, || {
            compile_system(&spec.system, &spec.compile).expect("compile")
        });
        spans.time(Stage::Analyze, || {
            let _ = gmdf_analyze::analyze(&spec.system, &image, &spec.sim);
        });
        let debug = image.debug.clone();
        let mut sim = spans.time(Stage::Target, || {
            Simulator::new(image, spec.sim).expect("boot")
        });
        let mut engine = spans.time(Stage::EngineFeed, || DebuggerEngine::new(spec.gdm.clone()));
        let mut active: Option<Vec<(String, ActiveChannel)>> = None;
        let mut passive: Option<(JtagMonitor, PassiveChannel)> = None;
        spans.time(Stage::Decode, || match spec.channel {
            ChannelMode::Active => {
                active = Some(
                    spec.system
                        .nodes
                        .iter()
                        .map(|n| (n.name.clone(), ActiveChannel::new(debug.clone())))
                        .collect(),
                );
            }
            ChannelMode::Passive {
                poll_period_ns,
                tck_hz,
            } => {
                let mut monitor = JtagMonitor::new(poll_period_ns, tck_hz);
                for (node, symbol) in &debug.watch_suggestions {
                    if symbol.ends_with("#state") || symbol.ends_with("#last") {
                        monitor.watch(&sim, node, symbol).expect("watch");
                    }
                }
                passive = Some((monitor, PassiveChannel::new(&spec.system)));
            }
        });
        let mut checkpoints = None;
        if let Some(durable) = durable {
            let (store, ckpts) = open_durable(durable, tag, index);
            engine.set_trace_store(Box::new(TimedStore {
                inner: store,
                append_ns: Arc::clone(&spans.nested_append),
            }));
            checkpoints = Some((ckpts, durable.checkpoint_interval, 0u64));
        }
        for (t, label, value) in &job.stimuli {
            spans.time(Stage::Target, || {
                sim.schedule_signal(*t, label, *value).expect("stimulus")
            });
        }
        let mut wire = Wire::new();
        let mut uart_buf: Vec<(u64, u8)> = Vec::new();
        while sim.now_ns() < job.horizon_ns {
            let t_end = (sim.now_ns() + SLICE_NS).min(job.horizon_ns);
            let mut events: Vec<ModelEvent> = Vec::new();
            if let Some((monitor, translator)) = &mut passive {
                let hits = spans.time(Stage::Target, || {
                    monitor.run_until(&mut sim, t_end).expect("run")
                });
                spans.time(Stage::Decode, || {
                    events.extend(hits.iter().map(|w| translator.translate(w)));
                });
            } else {
                spans.time(Stage::Target, || sim.run_until(t_end).expect("run"));
            }
            if let Some(channels) = &mut active {
                for (node, channel) in channels.iter_mut() {
                    uart_buf.clear();
                    spans.time(Stage::UartDrain, || {
                        sim.uart_take_into(node, &mut uart_buf).expect("uart")
                    });
                    counts.uart_bytes += uart_buf.len() as u64;
                    spans.time(Stage::Decode, || events.extend(channel.feed(&uart_buf)));
                }
            }
            events.sort_by_key(|e| e.time_ns);
            let mut report = RunReport {
                events_fed: events.len(),
                ..RunReport::default()
            };
            counts.events += events.len() as u64;
            for e in events {
                let outcome = spans.time(Stage::EngineFeed, || engine.feed(e));
                report.violations += outcome.violations;
                report.breakpoint_hit |= outcome.hit_breakpoint;
            }
            if let Some((store, interval, last)) = &mut checkpoints {
                spans.time(Stage::StoreAppend, || engine.sync_trace().expect("sync"));
                let len = engine.trace().len() as u64;
                if len >= *last + *interval {
                    *last = spans.time(Stage::Checkpoint, || {
                        let image = Image {
                            sim: sim.save_state(),
                            engine: engine.save_state(),
                            active: active
                                .as_ref()
                                .map(|c| c.iter().map(|(_, c)| c.decoder_state()).collect()),
                            passive: passive.as_ref().map(|(m, _)| m.save_state()),
                            stimuli: job.stimuli.clone(),
                            trace_len: len,
                        };
                        save_checkpoint(store, &image, len, sim.now_ns())
                    });
                    counts.checkpoints += 1;
                }
            }
            wire.publish(
                &engine,
                index as u64,
                sim.now_ns(),
                report,
                &mut spans,
                &mut counts,
            );
        }
        if let Some(channels) = &active {
            counts.crc_errors += channels.iter().map(|(_, c)| c.crc_errors()).sum::<u64>();
        }
        wall += t0.elapsed();
        traces.push(finish(&engine, &mut counts, &sim));
    }
    Pass {
        wall,
        traces,
        counts,
        spans,
    }
}

/// The same work through the `DebugSession` façade, without spans.
pub fn facade_pass(jobs: &[Job], durable: Option<&Durable>, tag: &str) -> Pass {
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut traces = Vec::new();
    let mut wall = Duration::ZERO;
    for (index, job) in jobs.iter().enumerate() {
        let t0 = Instant::now();
        let mut session = job.spec.build().expect("build");
        let _ = session.analyze();
        let mut checkpoints = None;
        if let Some(durable) = durable {
            let (store, ckpts) = open_durable(durable, tag, index);
            session.set_trace_store(Box::new(store));
            checkpoints = Some((ckpts, durable.checkpoint_interval, 0u64));
        }
        for (t, label, value) in &job.stimuli {
            session
                .schedule_signal(*t, label, *value)
                .expect("stimulus");
        }
        let mut wire = Wire::new();
        while session.now_ns() < job.horizon_ns {
            let slice = SLICE_NS.min(job.horizon_ns - session.now_ns());
            let report = session.run_for(slice).expect("run");
            counts.events += report.events_fed as u64;
            if let Some((store, interval, last)) = &mut checkpoints {
                session.sync_trace().expect("sync");
                let len = session.engine().trace().len() as u64;
                if len >= *last + *interval {
                    *last = save_checkpoint(store, &session.save_state(), len, session.now_ns());
                    counts.checkpoints += 1;
                }
            }
            let now_ns = session.now_ns();
            wire.publish(
                session.engine(),
                index as u64,
                now_ns,
                report,
                &mut spans,
                &mut counts,
            );
        }
        wall += t0.elapsed();
        traces.push(finish(session.engine(), &mut counts, session.simulator()));
    }
    Pass {
        wall,
        traces,
        counts,
        spans,
    }
}

/// Runs both passes and turns them into per-layer rows: self time per
/// stage, the unattributed residual, the tracing overhead, and the
/// exact counts. Returns the traced pass's traces for the caller's
/// byte-identity check.
pub fn layer_rows(
    jobs: &[Job],
    durable: Option<&Path>,
    checkpoint_interval: u64,
    out: &mut crate::common::Outcome,
) -> (Vec<String>, Vec<String>, Counts) {
    let durable = durable.map(|root| Durable {
        root: root.to_owned(),
        checkpoint_interval,
    });
    // Untraced, traced, traced, untraced: each side runs once early and
    // once late, and each reports its faster run.
    let durable = durable.as_ref();
    let facade = facade_pass(jobs, durable, "untraced-1");
    let traced = traced_pass(jobs, durable, "traced-1");
    let traced_again = traced_pass(jobs, durable, "traced-2");
    let facade_again = facade_pass(jobs, durable, "untraced-2");
    let traced = if traced_again.wall < traced.wall {
        traced_again
    } else {
        traced
    };
    let facade = if facade_again.wall < facade.wall {
        facade_again
    } else {
        facade
    };
    let total = traced.wall.as_secs_f64();
    let mut attributed = 0.0;
    for (name, unit, seconds) in traced.spans.self_seconds() {
        attributed += seconds;
        let scale = if unit == "ms" { 1e3 } else { 1.0 };
        out.metric(name, seconds * scale, unit);
    }
    out.metric("traced.e2e_s", total, "s");
    out.metric(
        "unattributed_frac",
        (total - attributed) / total,
        "fraction",
    );
    out.metric(
        "trace_overhead_frac",
        total / facade.wall.as_secs_f64() - 1.0,
        "fraction",
    );
    eprintln!(
        "per-layer pass: traced {:.1} ms, untraced {:.1} ms",
        ms(traced.wall),
        ms(facade.wall)
    );
    let work = |c: &Counts| {
        (
            c.events,
            c.entries,
            c.wire_bytes,
            c.wire_frames,
            c.checkpoints,
            c.disk_bytes,
            c.memo_hits,
        )
    };
    out.check(work(&traced.counts) == work(&facade.counts), || {
        format!(
            "traced and untraced passes did different work: {:?} vs {:?}",
            traced.counts, facade.counts
        )
    });
    (traced.traces, facade.traces, traced.counts)
}

/// `server.add_session_ms`: median wall time of registering one built
/// session with a fresh server (registration runs the static analysis).
pub fn add_session_row(specs: &[SessionSpec], out: &mut crate::common::Outcome) {
    let server = gmdf_server::DebugServer::start(gmdf_server::ServerConfig {
        workers: 1,
        ..gmdf_server::ServerConfig::default()
    });
    let times: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let session = spec.build().expect("session builds");
            let t0 = Instant::now();
            let _ = server.add_session(session);
            ms(t0.elapsed())
        })
        .collect();
    out.metric("server.add_session_ms", crate::common::median(&times), "ms");
}

/// The exact counts every workload reports from its per-layer pass.
pub fn common_counts(out: &mut crate::common::Outcome, c: &Counts) {
    out.metric("engine.trace_entries", c.entries as f64, "count");
    out.metric("core.uart_bytes", c.uart_bytes as f64, "count");
    out.metric("core.crc_errors", c.crc_errors as f64, "count");
    out.metric("server.wire_bytes", c.wire_bytes as f64, "count");
    out.metric(
        "server.wire_bytes_per_entry",
        c.wire_bytes as f64 / c.entries.max(1) as f64,
        "B",
    );
    out.metric("target.memo_hits", c.memo_hits as f64, "count");
    out.metric(
        "target.memo_hit_frac",
        c.memo_hits as f64 / (c.memo_hits + c.memo_misses).max(1) as f64,
        "fraction",
    );
    out.metric("engine.checkpoints", c.checkpoints as f64, "count");
    out.metric(
        "engine.disk_bytes_per_entry",
        c.disk_bytes as f64 / c.entries.max(1) as f64,
        "B",
    );
}
