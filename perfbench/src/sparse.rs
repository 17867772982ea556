//! `sparse_fleet` (closed loop, one in-process client, no wire): a few
//! large, mostly quiescent fleet sessions pumped in `run_for` +
//! `wait_idle` rounds, with seeded occasional steps of the stimulus
//! `u`. Simulator-bound; produces few trace entries.
//!
//! The simulator keeps a log of every job it runs, so a session's
//! memory grows with its simulated time. The run is therefore cut into
//! epochs of a fixed horizon: every epoch sets up a fresh server with
//! freshly seeded sessions, pumps them, checks them and drops them.

use crate::common::{median, peak_rss_mb, windowed_quantile, Outcome, Shape};
use crate::fixtures::{sparse_plans, sparse_stimulus};
use crate::traced::{add_session_row, common_counts, layer_rows, Job};
use gmdf::SessionSpec;
use gmdf_comdes::SignalValue;
use gmdf_server::{DebugServer, ServerConfig, SessionHandle};
use std::time::{Duration, Instant};

/// Target time every session advances per round.
const ROUND_NS: u64 = 50_000_000;
/// Rounds per epoch.
const EPOCH_ROUNDS: u64 = 60;

/// Rounds per window of the windowed quantiles.
const ROUND_WINDOW: usize = 100;

const WAIT: Duration = Duration::from_secs(60);

/// One epoch's figures and the inputs its checks need.
pub(crate) struct Epoch {
    setup_s: f64,
    round_ms: Vec<f64>,
    entries: u64,
    specs: Vec<SessionSpec>,
    stimuli: Vec<Vec<(u64, String, SignalValue)>>,
    horizon_ns: u64,
    /// Per session: events fed, trace length, clock and (on request)
    /// the serialized trace.
    pub(crate) served: Vec<(u64, u64, u64, Option<String>)>,
}

pub(crate) fn epoch(seed: u64, shape: Shape, with_traces: bool) -> Epoch {
    let t0 = Instant::now();
    let specs: Vec<SessionSpec> = sparse_plans(seed, shape).iter().map(|p| p.spec()).collect();
    let server = DebugServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let handles: Vec<SessionHandle> = specs
        .iter()
        .map(|spec| server.add_session(spec.build().expect("session builds")))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let (rounds, round_ns) = match shape {
        Shape::Full => (EPOCH_ROUNDS, ROUND_NS),
        Shape::Tiny => (10, ROUND_NS / 10),
    };
    let mut stimuli = vec![Vec::new(); handles.len()];
    let mut round_ms = Vec::new();
    for round in 0..rounds {
        let t0 = Instant::now();
        for (i, h) in handles.iter().enumerate() {
            if let Some((t, v)) = sparse_stimulus(seed, i, round, round_ns) {
                h.schedule_signal(t, "u", SignalValue::Real(v))
                    .expect("server is up");
                stimuli[i].push((t, "u".to_owned(), SignalValue::Real(v)));
            }
            h.run_for(round_ns).expect("server is up");
        }
        for h in &handles {
            h.wait_idle(WAIT).expect("session idles");
        }
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let served: Vec<_> = handles
        .iter()
        .map(|h| {
            let s = if with_traces {
                h.snapshot(WAIT)
            } else {
                h.stats(WAIT)
            }
            .expect("snapshot");
            (s.events_fed, s.trace_len as u64, s.now_ns, s.trace_json)
        })
        .collect();
    Epoch {
        setup_s,
        round_ms,
        entries: served.iter().map(|s| s.1).sum(),
        specs,
        stimuli,
        horizon_ns: rounds * round_ns,
        served,
    }
}

/// Output check: every session's counters against a synchronous
/// reference run over the same stimuli and horizon, one thread per
/// session.
pub(crate) fn check(e: &Epoch, out: &mut Outcome) {
    let references: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = e
            .specs
            .iter()
            .zip(&e.stimuli)
            .map(|(spec, stimuli)| {
                scope.spawn(move || {
                    let mut session = spec.build().expect("reference builds");
                    for (t, label, value) in stimuli {
                        session
                            .schedule_signal(*t, label, *value)
                            .expect("stimulus");
                    }
                    let fed = session.run_for(e.horizon_ns).expect("reference runs");
                    (fed.events_fed as u64, session.engine().trace().len() as u64)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread"))
            .collect()
    });
    for (i, (&(fed, len, now, _), reference)) in e.served.iter().zip(&references).enumerate() {
        out.check((fed, len) == *reference && now == e.horizon_ns, || {
            format!(
                "sparse_fleet session {i}: server fed {fed} / trace {len} at {now} ns, \
                 reference {reference:?} at {} ns",
                e.horizon_ns
            )
        });
    }
}

pub fn run(seed: u64, seconds: u64, shape: Shape, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    if trace {
        // One epoch: a fixed amount of work, so its counts repeat.
        let e = epoch(seed, shape, true);
        check(&e, &mut out);
        let jobs: Vec<Job> = e
            .specs
            .iter()
            .zip(&e.stimuli)
            .map(|(spec, stimuli)| Job {
                spec: spec.clone(),
                stimuli: stimuli.clone(),
                horizon_ns: e.horizon_ns,
            })
            .collect();
        add_session_row(&e.specs, &mut out);
        let (traced, facade, counts) = layer_rows(&jobs, None, 0, &mut out);
        let served: Vec<String> = e
            .served
            .into_iter()
            .map(|s| s.3.unwrap_or_default())
            .collect();
        out.check(traced == served && facade == served, || {
            "sparse_fleet: reassembled pipeline trace differs from the server's".to_owned()
        });
        common_counts(&mut out, &counts);
        return out;
    }

    let budget = Duration::from_secs(seconds).as_secs_f64();
    let (mut busy, mut entries, mut target_ns) = (0.0, 0u64, 0u64);
    let (mut setups, mut round_ms) = (Vec::new(), Vec::new());
    let mut rss = 0.0;
    let mut epochs = 0u64;
    while busy < budget {
        let e = epoch(
            seed ^ epochs.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            shape,
            false,
        );
        epochs += 1;
        busy += e.round_ms.iter().sum::<f64>() / 1e3;
        entries += e.entries;
        target_ns += e.horizon_ns * e.specs.len() as u64;
        setups.push(e.setup_s);
        round_ms.extend_from_slice(&e.round_ms);
        if epochs == 1 {
            // Before any reference run inflates the high-water mark.
            rss = peak_rss_mb();
        }
        out.attempted += e.round_ms.len() as u64 * e.specs.len() as u64;
        // Every third epoch is checked: a reference run costs as much
        // simulation as the epoch it checks.
        if epochs % 3 == 1 {
            check(&e, &mut out);
        }
    }
    eprintln!(
        "sparse_fleet: {epochs} epochs, {} rounds, {entries} entries, round p95 {:.2} ms",
        round_ms.len(),
        windowed_quantile(&round_ms, ROUND_WINDOW, 0.95)
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric(
        "latency_p50_ms",
        windowed_quantile(&round_ms, ROUND_WINDOW, 0.5),
        "ms",
    );
    out.metric(
        "latency_p90_ms",
        windowed_quantile(&round_ms, ROUND_WINDOW, 0.9),
        "ms",
    );
    out.metric("events_per_s", entries as f64 / busy, "1/s");
    out.metric("target_rtf", target_ns as f64 / 1e9 / busy, "s/s");
    out
}
