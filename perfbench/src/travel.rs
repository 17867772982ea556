//! `time_travel` (closed loop, one wire connection): a persistent
//! server with the binary trace codec and the default checkpoint
//! interval hosts durable ring sessions. An ingest phase runs a long
//! budget into the segment store in chunks, each ended by a `stats`
//! barrier; a query phase then issues a seeded mix of `seek_to`,
//! `step_back`, `replay_window` and `fetch_range` over the wire, with
//! small `run_for` appends interleaved.
//!
//! The run is cut into epochs of `EPOCH` wall time, each with a fresh
//! registry, server and connection, as in `live_fleet`; per-epoch
//! figures are reported as their median over the epochs.

use crate::common::{
    median, ms, peak_rss_mb, windowed_quantile, Digest, Outcome, Rng, Shape, WorkDir,
};
use crate::fixtures::{travel_plans, Plan};
use crate::traced::{add_session_row, common_counts, layer_rows, Job};
use gmdf::SessionSpec;
use gmdf_engine::{EngineState, TraceEntry};
use gmdf_server::{
    DebugServer, PersistConfig, ServerConfig, SessionHandle, WireClient, WireServer,
    DEFAULT_CHECKPOINT_INTERVAL,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ingest budget per session and epoch: `CHUNKS` chunks of `CHUNK_NS`
/// target time.
const CHUNKS: u64 = 4;
const CHUNK_NS: u64 = 8_000_000_000;
/// Target time one interleaved append adds.
const APPEND_NS: u64 = 5_000_000;
/// Wall time of one epoch, from set-up to the last query.
const EPOCH: Duration = Duration::from_millis(2500);
/// Queries of a per-layer run: a fixed amount of work, so its counts
/// repeat exactly.
const TRACE_QUERIES: u64 = 200;
/// Answers checked against a replay from zero.
const CHECKED: usize = 32;

/// Read queries per window of the windowed quantiles: a host stall
/// spoils the windows it hits, not the median over windows.
const QUERY_WINDOW: usize = 100;

const WAIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    SeekTo,
    StepBack,
    ReplayWindow,
    FetchRange,
    Append,
}

const VERBS: [(Verb, &str); 5] = [
    (Verb::SeekTo, "server.seek_to_p50_ms"),
    (Verb::StepBack, "server.step_back_p50_ms"),
    (Verb::ReplayWindow, "server.replay_window_p50_ms"),
    (Verb::FetchRange, "server.fetch_range_p50_ms"),
    (Verb::Append, "server.run_for_append_p50_ms"),
];

/// A query answer, kept for the replay-from-zero check.
#[derive(Debug, PartialEq)]
pub(crate) enum Answer {
    /// The replica's instant, trace length and engine state.
    Seek {
        now_ns: u64,
        trace_len: u64,
        state: EngineState,
    },
    /// A window page: its bounds, entry count and digest.
    Window {
        t0_ns: u64,
        t1_ns: u64,
        count: usize,
        digest: u64,
    },
}

impl Answer {
    fn due_ns(&self) -> u64 {
        match self {
            Answer::Seek { now_ns, .. } => *now_ns,
            Answer::Window { t1_ns, .. } => *t1_ns,
        }
    }
}

fn window_answer(t0_ns: u64, t1_ns: u64, entries: &[TraceEntry]) -> Answer {
    let mut digest = Digest::default();
    entries.iter().for_each(|e| digest.add(e));
    Answer::Window {
        t0_ns,
        t1_ns,
        count: entries.len(),
        digest: digest.value(),
    }
}

/// What one epoch measured.
struct Epoch {
    setup_s: f64,
    chunk_rates: Vec<f64>,
    chunk_rtf: Vec<f64>,
    latencies: Vec<(Verb, f64)>,
    replayed: (u64, u64),
    rss_mb: f64,
    nows: Vec<u64>,
    /// The server's traces, when asked for.
    traces: Vec<String>,
}

impl Epoch {
    fn query_ms(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|(v, _)| *v != Verb::Append)
            .map(|&(_, l)| l)
            .collect()
    }
}

/// One epoch: set up a fresh persistent server, ingest, then query
/// until `until` passes or `max_queries` were issued.
fn epoch(
    plans: &[Plan],
    seed: u64,
    shape: Shape,
    until: Instant,
    max_queries: u64,
    with_traces: bool,
    out: &mut Outcome,
) -> Epoch {
    let dir = WorkDir::new("time_travel");
    let t0 = Instant::now();
    let specs: Vec<SessionSpec> = plans.iter().map(Plan::spec).collect();
    let server = DebugServer::start_persistent(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        PersistConfig::new(dir.0.join("registry")),
    )
    .expect("persistent server");
    let server = Arc::new(server);
    let handles: Vec<SessionHandle> = specs
        .iter()
        .map(|spec| server.add_durable_session(spec).expect("durable session"))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("wire server");
    let mut client = WireClient::connect(wire.local_addr()).expect("wire client");
    let ids: Vec<u64> = handles.iter().map(SessionHandle::id).collect();
    let (chunks, chunk_ns) = match shape {
        Shape::Full => (CHUNKS, CHUNK_NS),
        Shape::Tiny => (2, CHUNK_NS / 40),
    };

    // Ingest: chunked, each chunk ended by a stats barrier.
    let mut chunk_rates = Vec::new();
    let mut chunk_rtf = Vec::new();
    let mut lens = vec![0u64; ids.len()];
    let mut nows = vec![0u64; ids.len()];
    for _ in 0..chunks {
        let t0 = Instant::now();
        for &id in &ids {
            client.run_for(id, chunk_ns).expect("run_for");
        }
        for h in &handles {
            h.wait_idle(WAIT).expect("session idles");
        }
        let mut appended = 0;
        for (i, &id) in ids.iter().enumerate() {
            let stats = client.snapshot(id, false, WAIT).expect("stats barrier");
            appended += stats.trace_len as u64 - lens[i];
            lens[i] = stats.trace_len as u64;
            nows[i] = stats.now_ns;
        }
        let wall = t0.elapsed().as_secs_f64();
        chunk_rates.push(appended as f64 / wall);
        chunk_rtf.push((chunk_ns * ids.len() as u64) as f64 / 1e9 / wall);
    }

    // Queries: a seeded mix.
    let mut rng = Rng::new(seed ^ 0x55);
    let mut latencies: Vec<(Verb, f64)> = Vec::new();
    let mut answers: Vec<(usize, Answer)> = Vec::new();
    let mut replayed = (0u64, 0u64);
    let mut queries = 0u64;
    while queries < max_queries && Instant::now() < until {
        queries += 1;
        let s = rng.below(ids.len() as u64) as usize;
        let id = ids[s];
        let pick = rng.below(10);
        let width = 1_000_000 + rng.below(19_000_000);
        let t1 = width + rng.below(nows[s] - width);
        let t0 = Instant::now();
        let (verb, ok) = match pick {
            0..=4 => {
                let step = pick >= 3;
                let r = if step {
                    let back = 1 + rng.below(8192.min(lens[s] - 1));
                    client.step_back(id, back, false, WAIT)
                } else {
                    client.seek_to(id, 1 + rng.below(nows[s]), false, WAIT)
                };
                if let Ok(r) = &r {
                    replayed = (replayed.0 + r.replayed_entries, replayed.1 + 1);
                    answers.push((
                        s,
                        Answer::Seek {
                            now_ns: r.now_ns,
                            trace_len: r.trace_len,
                            state: r.engine_state,
                        },
                    ));
                }
                let verb = if step { Verb::StepBack } else { Verb::SeekTo };
                (verb, r.is_ok())
            }
            5..=8 => {
                let window = pick <= 6;
                let r = if window {
                    client.replay_window(id, t1 - width, t1, WAIT)
                } else {
                    client.fetch_range(id, t1 - width, t1, WAIT)
                };
                if let Ok(page) = &r {
                    answers.push((s, window_answer(t1 - width, t1, &page.entries)));
                }
                let verb = if window {
                    Verb::ReplayWindow
                } else {
                    Verb::FetchRange
                };
                (verb, r.is_ok())
            }
            _ => {
                let ok =
                    client.run_for(id, APPEND_NS).is_ok() && handles[s].wait_idle(WAIT).is_ok();
                nows[s] += APPEND_NS;
                lens[s] = handles[s]
                    .stats(WAIT)
                    .map_or(lens[s], |st| st.trace_len as u64);
                (Verb::Append, ok)
            }
        };
        latencies.push((verb, ms(t0.elapsed())));
        out.check(ok, || {
            format!("time_travel: {verb:?} on session {s} failed")
        });
    }
    let rss_mb = peak_rss_mb();
    let traces = if with_traces {
        handles
            .iter()
            .map(|h| {
                h.snapshot(WAIT)
                    .ok()
                    .and_then(|s| s.trace_json)
                    .unwrap_or_default()
            })
            .collect()
    } else {
        Vec::new()
    };
    drop(client);
    drop(wire);
    drop(handles);
    drop(server);
    check(&specs, &answers, &mut rng, out);
    Epoch {
        setup_s,
        chunk_rates,
        chunk_rtf,
        latencies,
        replayed,
        rss_mb,
        nows,
        traces,
    }
}

/// Output check: a seeded sample of answers against the same query
/// answered by a detached session replayed from zero.
pub(crate) fn check(
    specs: &[SessionSpec],
    answers: &[(usize, Answer)],
    rng: &mut Rng,
    out: &mut Outcome,
) {
    let mut sample: Vec<usize> = (0..answers.len()).collect();
    rng.shuffle(&mut sample);
    sample.truncate(CHECKED);
    sample.sort_by_key(|&i| (answers[i].0, answers[i].1.due_ns()));
    let mut reference: Option<(usize, gmdf::DebugSession)> = None;
    for i in sample {
        let (s, answer) = &answers[i];
        if reference.as_ref().map(|r| r.0) != Some(*s) {
            reference = Some((*s, specs[*s].build().expect("reference builds")));
        }
        let session = &mut reference.as_mut().expect("just built").1;
        let gap = answer.due_ns() - session.now_ns();
        session.run_for(gap).expect("reference runs");
        let ok = match answer {
            Answer::Seek {
                trace_len, state, ..
            } => {
                session.engine().trace().len() as u64 == *trace_len
                    && session.engine().state() == *state
            }
            Answer::Window { t0_ns, t1_ns, .. } => {
                let entries: Vec<TraceEntry> =
                    session.engine().trace().window(*t0_ns, *t1_ns).collect();
                *answer == window_answer(*t0_ns, *t1_ns, &entries)
            }
        };
        out.check(ok, || {
            format!("time_travel session {s}: {answer:?} differs from a replay from zero")
        });
    }
}

pub fn run(seed: u64, seconds: u64, shape: Shape, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let plans = travel_plans(seed, shape);
    let specs: Vec<SessionSpec> = plans.iter().map(Plan::spec).collect();
    if trace {
        // One epoch with a fixed query count, so its counts repeat.
        let far = Instant::now() + WAIT;
        let queries = match shape {
            Shape::Full => TRACE_QUERIES,
            Shape::Tiny => 20,
        };
        let e = epoch(&plans, seed, shape, far, queries, true, &mut out);
        let jobs: Vec<Job> = specs
            .iter()
            .zip(&e.nows)
            .map(|(spec, &horizon_ns)| Job {
                spec: spec.clone(),
                stimuli: Vec::new(),
                horizon_ns,
            })
            .collect();
        add_session_row(&specs, &mut out);
        let pass_dir = WorkDir::new("time_travel-pass");
        let (traced, facade, counts) = layer_rows(
            &jobs,
            Some(&pass_dir.0),
            DEFAULT_CHECKPOINT_INTERVAL,
            &mut out,
        );
        out.check(traced == e.traces && facade == e.traces, || {
            "time_travel: reassembled pipeline trace differs from the server's".to_owned()
        });
        common_counts(&mut out, &counts);
        out.metric("engine.replayed_entries", e.replayed.0 as f64, "count");
        out.metric(
            "engine.replayed_per_query",
            e.replayed.0 as f64 / e.replayed.1.max(1) as f64,
            "count",
        );
        for (verb, name) in VERBS {
            let times: Vec<f64> = e
                .latencies
                .iter()
                .filter(|(v, _)| *v == verb)
                .map(|&(_, l)| l)
                .collect();
            out.metric(name, median(&times), "ms");
        }
        return out;
    }

    let epoch_wall = match shape {
        Shape::Full => EPOCH,
        Shape::Tiny => EPOCH / 5,
    };
    let epochs = (Duration::from_secs(seconds).as_nanos() / epoch_wall.as_nanos()).max(1) as u64;
    let runs: Vec<Epoch> = (0..epochs)
        .map(|k| {
            let until = Instant::now() + epoch_wall;
            let epoch_seed = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            epoch(&plans, epoch_seed, shape, until, u64::MAX, false, &mut out)
        })
        .collect();
    let per = |f: &dyn Fn(&Epoch) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let all = |f: &dyn Fn(&Epoch) -> &Vec<f64>| -> Vec<f64> {
        runs.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    let query_ms: Vec<f64> = runs.iter().flat_map(Epoch::query_ms).collect();
    eprintln!(
        "time_travel: {} sessions, {epochs} epochs, {} queries, query p95 {:.2} ms",
        specs.len(),
        query_ms.len(),
        windowed_quantile(&query_ms, QUERY_WINDOW, 0.95),
    );
    out.metric("setup_s", per(&|e| e.setup_s), "s");
    // The high-water mark of the first epoch, before any reference run.
    out.metric("peak_rss_mb", runs[0].rss_mb, "MiB");
    out.metric(
        "latency_p50_ms",
        windowed_quantile(&query_ms, QUERY_WINDOW, 0.5),
        "ms",
    );
    out.metric(
        "latency_p90_ms",
        windowed_quantile(&query_ms, QUERY_WINDOW, 0.9),
        "ms",
    );
    out.metric("events_per_s", median(&all(&|e| &e.chunk_rates)), "1/s");
    out.metric("target_rtf", median(&all(&|e| &e.chunk_rtf)), "s/s");
    out
}
