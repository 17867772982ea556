//! `live_fleet` (open loop): one in-memory `DebugServer` hosts a fleet
//! of ring sessions, one `WireClient` attaches to all of them, and a
//! generator thread advances every session at pace P × wall time by
//! issuing `run_for` slices on a fixed wall-clock schedule that does not
//! wait for the server. The sessions' sends are spread over each tick,
//! as independent targets would report.
//!
//! View lag of an entry = wall receipt time − the wall time its model
//! timestamp was due under pace P. A slice is sent when its last instant
//! is due, so the lag holds the wait for the slice to close (up to one
//! tick) plus the pipeline: pump, publish, queue, wire and decode.
//!
//! The run is cut into epochs of `EPOCH` wall time, each with a fresh
//! server, fleet and connection: the simulator's job log grows with
//! simulated time, and where the scheduler places the threads differs
//! from one start to the next. Lag quantiles are medians over short
//! windows of entries; the other figures are medians over the epochs.

use crate::common::{median, ms, peak_rss_mb, quantile, windowed_quantile, Digest, Outcome, Shape};
use crate::fixtures::{live_plans, Plan};
use crate::traced::{add_session_row, common_counts, layer_rows, Job};
use gmdf::SessionSpec;
use gmdf_engine::TraceEntry;
use gmdf_server::{
    DebugServer, EngineEvent, ServerConfig, SessionHandle, WireClient, WireError, WireServer,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Target nanoseconds simulated per wall nanosecond, per session.
const PACE: u64 = 2;
/// Wall time between two generator ticks.
const TICK: Duration = Duration::from_millis(10);
/// Wall time of one epoch's open loop.
const EPOCH: Duration = Duration::from_secs(2);

/// Lag samples per window of the windowed quantiles (about 0.2 s): a
/// host stall spoils the windows it hits, not the median over windows.
const LAG_WINDOW: usize = 2_000;

const WAIT: Duration = Duration::from_secs(60);

/// Per-session receive state: the next expected sequence number, the
/// digest of what arrived, and the sequence numbers that never did.
#[derive(Default)]
pub(crate) struct Received {
    next_seq: u64,
    digest: Digest,
    missing: BTreeSet<u64>,
    out_of_order: u64,
}

impl Received {
    pub(crate) fn accept(&mut self, entry: &TraceEntry) {
        if entry.seq < self.next_seq {
            self.out_of_order += 1;
            return;
        }
        self.missing.extend(self.next_seq..entry.seq);
        self.next_seq = entry.seq + 1;
        self.digest.add(entry);
    }
}

/// Output check of one session: what the client received against a
/// synchronous run of the same spec over the same horizon, dropped
/// entries excepted. `served_len` is the server's trace length.
pub(crate) fn check_delivered(
    spec: &SessionSpec,
    horizon_ns: u64,
    r: &Received,
    served_len: Option<u64>,
    out: &mut Outcome,
) {
    let mut reference = spec.build().expect("reference builds");
    reference.run_for(horizon_ns).expect("reference runs");
    let mut digest = Digest::default();
    reference.engine().trace().for_each(|entry| {
        if !r.missing.contains(&entry.seq) {
            digest.add(entry);
        }
    });
    let len = reference.engine().trace().len() as u64;
    out.check(served_len == Some(len) && r.out_of_order == 0, || {
        format!("live_fleet: server trace length {served_len:?}, reference {len}")
    });
    out.check(digest.value() == r.digest.value(), || {
        "live_fleet: delivered entries differ from the reference run".to_owned()
    });
}

/// When model instant `t_ns` of session `i` (of `n`) is due, after the
/// epoch starts: at pace `PACE`, with each session's clock offset by
/// `i / n` of a tick, so the sessions report spread over the tick as
/// independent targets would.
fn due(t_ns: u64, i: usize, n: usize) -> Duration {
    Duration::from_nanos(t_ns / PACE) + TICK * i as u32 / n as u32
}

/// What one epoch measured.
#[derive(Default)]
struct Epoch {
    setup_s: f64,
    lags: Vec<f64>,
    late: Vec<f64>,
    delivered: u64,
    produced: u64,
    wall_s: f64,
    horizon_ns: u64,
    rss_mb: f64,
    depth_max: u64,
    lagged_drops: u64,
    /// The server's traces, when asked for.
    traces: Vec<String>,
}

fn epoch(plans: &[Plan], ticks: u64, with_traces: bool, out: &mut Outcome) -> Epoch {
    let t0 = Instant::now();
    let specs: Vec<SessionSpec> = plans.iter().map(Plan::spec).collect();
    let server = Arc::new(DebugServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    let handles: Vec<SessionHandle> = specs
        .iter()
        .map(|spec| server.add_session(spec.build().expect("session builds")))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("wire server");
    let mut client = WireClient::connect(wire.local_addr()).expect("wire client");
    let ids: Vec<u64> = handles.iter().map(SessionHandle::id).collect();
    client.attach_many(&ids).expect("attach");

    let slice_ns = PACE * TICK.as_nanos() as u64;
    let horizon_ns = ticks * slice_ns;
    let start = Instant::now();
    let mut generator = Some({
        let handles = handles.clone();
        std::thread::spawn(move || {
            let mut late = Vec::with_capacity(ticks as usize);
            for k in 0..ticks {
                for (i, h) in handles.iter().enumerate() {
                    // A slice is sent when its last instant is due: the
                    // target never runs ahead of the paced clock.
                    let send = start + due((k + 1) * slice_ns, i, handles.len());
                    if let Some(wait) = send.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late.push(ms(Instant::now() - send));
                    h.run_for(slice_ns).expect("server is up");
                }
            }
            let lens: Vec<u64> = handles
                .iter()
                .map(|h| {
                    h.wait_idle(WAIT).expect("session idles");
                    h.stats(WAIT).expect("stats").trace_len as u64
                })
                .collect();
            (late, lens)
        })
    });

    let mut received: Vec<Received> = handles.iter().map(|_| Received::default()).collect();
    let mut e = Epoch {
        setup_s,
        horizon_ns,
        ..Epoch::default()
    };
    let mut lens = None;
    let mut last_receipt = start;
    let deadline = start + TICK * ticks as u32 + WAIT;
    loop {
        if generator.as_ref().is_some_and(|g| g.is_finished()) {
            let (late, expected) = generator
                .take()
                .expect("checked above")
                .join()
                .expect("generator thread");
            e.late = late;
            lens = Some(expected);
        }
        if let Some(lens) = &lens {
            if received.iter().zip(lens).all(|(r, &len)| r.next_seq >= len) {
                break;
            }
        }
        if Instant::now() > deadline {
            out.check(false, || "live_fleet: stream did not complete".to_owned());
            break;
        }
        e.depth_max = e
            .depth_max
            .max(server.metrics_registry().subscriber_depth.get());
        match client.next_event(Duration::from_millis(20)) {
            Ok(EngineEvent::TraceDelta { session, entries }) => {
                let now = Instant::now();
                last_receipt = now;
                let r = &mut received[session as usize];
                for entry in &entries {
                    let due_at = start + due(entry.event.time_ns, session as usize, specs.len());
                    e.lags.push(ms(now.saturating_duration_since(due_at)));
                    r.accept(entry);
                }
            }
            Ok(EngineEvent::Error { session, message }) => {
                out.check(false, || {
                    format!("live_fleet: session {session} failed: {message}")
                });
            }
            Ok(_) | Err(WireError::Timeout) => {}
            Err(err) => {
                out.check(false, || format!("live_fleet: wire error {err}"));
                break;
            }
        }
    }
    if let Some(unfinished) = generator {
        let _ = unfinished.join();
    }
    e.wall_s = (last_receipt - start).as_secs_f64();
    e.rss_mb = peak_rss_mb();
    e.lagged_drops = server.metrics_snapshot().fleet.lagged_drops;
    let lens = lens.unwrap_or_default();
    e.produced = lens.iter().sum();
    let missing: u64 = received.iter().map(|r| r.missing.len() as u64).sum();
    e.delivered = e.produced.saturating_sub(missing);
    if with_traces {
        e.traces = handles
            .iter()
            .map(|h| {
                h.snapshot(WAIT)
                    .ok()
                    .and_then(|s| s.trace_json)
                    .unwrap_or_default()
            })
            .collect();
    }
    drop(client);
    drop(wire);
    drop(handles);
    drop(server);

    // Output checks: each session's delivered entries against a
    // synchronous run of the same spec, dropped entries excepted.
    out.attempted += e.produced;
    out.failed += missing;
    for (i, (spec, r)) in specs.iter().zip(&received).enumerate() {
        check_delivered(spec, horizon_ns, r, lens.get(i).copied(), out);
    }
    e
}

pub fn run(seed: u64, seconds: u64, shape: Shape, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let plans = live_plans(seed, shape);
    let specs: Vec<SessionSpec> = plans.iter().map(Plan::spec).collect();
    let epoch_ticks = match shape {
        Shape::Full => (EPOCH.as_nanos() / TICK.as_nanos()) as u64,
        Shape::Tiny => 20,
    };
    if trace {
        // One epoch: a fixed amount of work, so its counts repeat.
        let e = epoch(&plans, epoch_ticks, true, &mut out);
        let jobs: Vec<Job> = specs
            .iter()
            .map(|spec| Job {
                spec: spec.clone(),
                stimuli: Vec::new(),
                horizon_ns: e.horizon_ns,
            })
            .collect();
        add_session_row(&specs, &mut out);
        let (traced, facade, counts) = layer_rows(&jobs, None, 0, &mut out);
        out.check(traced == e.traces && facade == e.traces, || {
            "live_fleet: reassembled pipeline trace differs from the server's".to_owned()
        });
        common_counts(&mut out, &counts);
        out.metric("server.lagged_drops", e.lagged_drops as f64, "count");
        out.metric(
            "server.delivered_frac",
            e.delivered as f64 / e.produced.max(1) as f64,
            "fraction",
        );
        out.metric("server.queue_depth_max", e.depth_max as f64, "count");
        out.metric("loadgen.late_p95_ms", quantile(&e.late, 0.95), "ms");
        return out;
    }

    let epochs = (seconds * 1_000_000_000 / (epoch_ticks * TICK.as_nanos() as u64)).max(1);
    let runs: Vec<Epoch> = (0..epochs)
        .map(|_| epoch(&plans, epoch_ticks, false, &mut out))
        .collect();
    let per = |f: &dyn Fn(&Epoch) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let lags: Vec<f64> = runs.iter().flat_map(|e| e.lags.iter().copied()).collect();
    eprintln!(
        "live_fleet: {} sessions, pace {PACE}x, {epochs} epochs of {epoch_ticks} ticks, \
         {} entries, {} delivered, generator late p95 {:.3} ms, view lag p95 {:.3} ms",
        specs.len(),
        runs.iter().map(|e| e.produced).sum::<u64>(),
        runs.iter().map(|e| e.delivered).sum::<u64>(),
        per(&|e| quantile(&e.late, 0.95)),
        windowed_quantile(&lags, LAG_WINDOW, 0.95),
    );
    out.metric("setup_s", per(&|e| e.setup_s), "s");
    // The high-water mark of the first epoch, before any reference run.
    out.metric("peak_rss_mb", runs[0].rss_mb, "MiB");
    out.metric(
        "latency_p50_ms",
        windowed_quantile(&lags, LAG_WINDOW, 0.5),
        "ms",
    );
    out.metric(
        "latency_p90_ms",
        windowed_quantile(&lags, LAG_WINDOW, 0.9),
        "ms",
    );
    out.metric(
        "events_per_s",
        per(&|e| e.delivered as f64 / e.wall_s),
        "1/s",
    );
    out.metric(
        "target_rtf",
        per(&|e| (e.horizon_ns * specs.len() as u64) as f64 / 1e9 / e.wall_s),
        "s/s",
    );
    out
}
