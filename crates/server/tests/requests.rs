//! The request path: one `call` per client, one reply per request.
//!
//! * every `SessionCommand` variant, issued through
//!   `SessionHandle::call` in-process and through `WireClient::call`
//!   over loopback TCP, comes back with the `Reply` kind it promises —
//!   state changes an `Ack`, queries their data — well within the wait;
//! * a reply whose caller already timed out — any reply kind, the
//!   server-scope `Analysis` included — is skipped by the next reply
//!   wait and by both event reads instead of breaking the connection;
//! * the per-verb request-latency histograms count exactly the
//!   requests served, in the registry and in the Prometheus text;
//! * events the server writes ahead of an attach's `Ack` open the new
//!   stream: the client keeps them (single and pipelined attaches),
//!   and a client attaching mid-run sees the stream from its
//!   subscription point on, gapless.

mod common;

use common::{active_session, blinker_system};
use gmdf::{ChannelMode, SessionSpec, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::SignalValue;
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::proto::{
    decode_payload, encode_frame, ClientFrame, FrameDecoder, ServerFrame, WIRE_VERSION,
};
use gmdf_server::{
    DebugServer, EngineEvent, PersistConfig, Reply, ServerConfig, SessionCommand, WireClient,
    WireError, WireServer,
};
use gmdf_target::SimConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);

fn spec_of(system: gmdf_comdes::System) -> SessionSpec {
    Workflow::from_system(system)
        .expect("valid system")
        .default_abstraction()
        .default_commands()
        .into_spec(
            ChannelMode::Active,
            CompileOptions {
                instrument: InstrumentOptions::behavior(),
                faults: vec![],
            },
            SimConfig::default(),
        )
}

/// All twelve variants, with the reply kind each one promises.
fn every_command() -> Vec<(SessionCommand, &'static str)> {
    vec![
        (
            SessionCommand::ScheduleSignal {
                time_ns: 50_000_000,
                label: "lamp".to_owned(),
                value: SignalValue::Bool(true),
            },
            "Ack",
        ),
        (
            SessionCommand::AddBreakpoint {
                matcher: CommandMatcher::kind(EventKind::StateEnter),
                one_shot: true,
            },
            "Ack",
        ),
        (SessionCommand::ClearBreakpoints, "Ack"),
        (SessionCommand::Step, "Ack"),
        (SessionCommand::Resume, "Ack"),
        (
            SessionCommand::RunFor {
                duration_ns: 1_000_000,
            },
            "Ack",
        ),
        (
            SessionCommand::Snapshot {
                include_trace: true,
            },
            "Snapshot",
        ),
        (
            SessionCommand::FetchRange {
                t0_ns: 0,
                t1_ns: 4_000_000,
            },
            "Trace",
        ),
        (SessionCommand::ReplayFrom { seq: 0, limit: 8 }, "Trace"),
        (
            SessionCommand::SeekTo {
                t_ns: 3_000_000,
                include_trace: true,
            },
            "Seek",
        ),
        (
            SessionCommand::StepBack {
                entries: 2,
                include_trace: false,
            },
            "Seek",
        ),
        (
            SessionCommand::ReplayWindow {
                t0_ns: 1_000_000,
                t1_ns: 4_000_000,
            },
            "Trace",
        ),
    ]
}

fn kind(reply: &Reply) -> &'static str {
    match reply {
        Reply::Ack => "Ack",
        Reply::Snapshot(_) => "Snapshot",
        Reply::Trace(_) => "Trace",
        Reply::Seek(_) => "Seek",
    }
}

#[test]
fn every_command_gets_its_reply_in_process_and_over_the_wire() {
    let root = std::env::temp_dir().join(format!("gmdf-requests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Arc::new(
        DebugServer::start_persistent(
            ServerConfig::default(),
            PersistConfig::new(&root).with_checkpoint_interval(16),
        )
        .expect("persistent server"),
    );
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let handle = server
        .add_durable_session(&spec_of(blinker_system("requests", 0.0005, 500_000)))
        .expect("durable session");
    handle.run_for(8_000_000).expect("post");
    handle.wait_idle(WAIT).expect("idle");
    let id = handle.id();

    for (command, expected) in every_command() {
        let started = Instant::now();
        let reply = handle.call(command.clone(), WAIT);
        let reply = reply.unwrap_or_else(|e| panic!("in-process {command:?}: {e}"));
        assert_eq!(kind(&reply), expected, "in-process {command:?}");
        assert!(started.elapsed() < WAIT);
    }

    let mut client = WireClient::connect(wire.local_addr()).expect("connect");
    for (command, expected) in every_command() {
        let started = Instant::now();
        let reply = client.call(id, command.clone(), WAIT);
        let reply = reply.unwrap_or_else(|e| panic!("wire {command:?}: {e}"));
        assert_eq!(kind(&reply), expected, "wire {command:?}");
        assert!(started.elapsed() < WAIT);
    }

    // The two transports answer the same query identically.
    handle.wait_idle(WAIT).expect("idle");
    let page = SessionCommand::ReplayFrom { seq: 0, limit: 0 };
    assert_eq!(
        handle.call(page.clone(), WAIT),
        Ok(client.call(id, page, WAIT).expect("wire page"))
    );

    // A seek on an in-memory session fails the request, never the
    // session, on both transports.
    let memory = server.add_session(active_session(blinker_system("mem", 0.002, 1_000_000)));
    let seek = SessionCommand::SeekTo {
        t_ns: 0,
        include_trace: false,
    };
    assert!(matches!(
        memory.call(seek.clone(), WAIT),
        Err(gmdf_server::ServerError::Persist(_))
    ));
    assert!(matches!(
        client.call(memory.id(), seek, WAIT),
        Err(WireError::Remote(_))
    ));
    assert!(memory.stats(WAIT).is_ok(), "the session stays healthy");

    drop(client);
    drop(wire);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

/// A stale `Analysis` reply (its caller timed out) is skipped like any
/// other stale reply by the next reply wait and by both event reads.
/// The server answers one connection's requests in order, so each stale
/// reply is on the socket ahead of the reply or events that follow it.
#[test]
fn a_stale_analysis_reply_never_breaks_the_connection() {
    let server = Arc::new(DebugServer::start(ServerConfig::default()));
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let handle = server.add_session(active_session(blinker_system("stale", 0.002, 1_000_000)));
    let id = handle.id();
    let mut client = WireClient::connect(wire.local_addr()).expect("connect");
    let run = SessionCommand::RunFor {
        duration_ns: 2_000_000,
    };

    // Reply wait.
    assert_eq!(client.analyze(id, Duration::ZERO), Err(WireError::Timeout));
    let rows = client
        .list_sessions(WAIT)
        .expect("directory after a stale reply");
    assert_eq!(rows.len(), 1);

    // Merged event read: the run's events follow the stale replies (the
    // analysis and the run's own unawaited acknowledgment).
    client.attach(id).expect("attach");
    assert_eq!(client.analyze(id, Duration::ZERO), Err(WireError::Timeout));
    let posted = client.call(id, run.clone(), Duration::ZERO);
    assert_eq!(posted, Err(WireError::Timeout));
    while !matches!(
        client.next_event(WAIT).expect("event after a stale reply"),
        EngineEvent::Idle { .. }
    ) {}

    // Per-session event read.
    assert_eq!(client.analyze(id, Duration::ZERO), Err(WireError::Timeout));
    let posted = client.call(id, run, Duration::ZERO);
    assert_eq!(posted, Err(WireError::Timeout));
    while !matches!(
        client
            .next_event_from(id, WAIT)
            .expect("event after a stale reply"),
        EngineEvent::Idle { .. }
    ) {}
    assert!(client.analyze(id, WAIT).is_ok());
}

#[test]
fn query_latency_histograms_count_every_request_served() {
    let server = Arc::new(DebugServer::start(ServerConfig::default()));
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let handle = server.add_session(active_session(blinker_system("histo", 0.0005, 500_000)));
    let id = handle.id();
    handle.run_for(4_000_000).expect("post");
    handle.wait_idle(WAIT).expect("idle");
    let mut client = WireClient::connect(wire.local_addr()).expect("connect");

    // Snapshot: 2 in-process stats + 1 full snapshot + 1 over the wire.
    handle.stats(WAIT).expect("stats");
    handle.stats(WAIT).expect("stats");
    handle.snapshot(WAIT).expect("snapshot");
    client.snapshot(id, false, WAIT).expect("wire snapshot");
    // FetchRange: 1 in-process + 2 over the wire.
    handle.fetch_range(0, 2_000_000, WAIT).expect("page");
    client.fetch_range(id, 0, 2_000_000, WAIT).expect("page");
    client
        .fetch_range(id, 1_000_000, 3_000_000, WAIT)
        .expect("page");
    // ReplayFrom: 2 in-process + 1 over the wire.
    handle.replay_from(0, 4, WAIT).expect("page");
    handle.replay_from(4, 0, WAIT).expect("page");
    client.replay_from(id, 0, 0, WAIT).expect("page");

    let fleet = server.metrics_snapshot().fleet;
    assert_eq!(fleet.snapshot_ns.count, 4);
    assert_eq!(fleet.fetch_range_ns.count, 3);
    assert_eq!(fleet.replay_from_ns.count, 3);
    assert_eq!(fleet.seek_to_ns.count, 0);
    let text = server.metrics_text();
    for line in [
        "gmdf_snapshot_ns_count 4",
        "gmdf_fetch_range_ns_count 3",
        "gmdf_replay_from_ns_count 3",
    ] {
        assert!(text.contains(line), "missing `{line}` in:\n{text}");
    }
}

/// The server subscribes before it acks an `Attach`, so its streamer
/// may write the new stream's first events ahead of the `Ack`. A
/// scripted server pins that order: the client keeps those events for
/// a single attach and for every session of a pipelined `attach_many`,
/// and drops the ones of an attach that fails.
#[test]
fn events_written_ahead_of_an_attach_ack_are_kept() {
    fn write(socket: &mut TcpStream, frame: ServerFrame) {
        let bytes = encode_frame(&frame).expect("encodes");
        socket.write_all(&bytes).expect("write");
    }
    fn idle(session: u64, now_ns: u64) -> ServerFrame {
        ServerFrame::Event {
            event: EngineEvent::Idle { session, now_ns },
        }
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("address");
    let script = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("accept");
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        let mut read = |socket: &mut TcpStream| -> ClientFrame {
            loop {
                if let Some(payload) = decoder.next_payload().expect("frame") {
                    return decode_payload(&payload).expect("decodes");
                }
                let n = socket.read(&mut chunk).expect("read");
                assert!(n > 0, "client hung up");
                decoder.feed(&chunk[..n]);
            }
        };
        assert!(matches!(read(&mut socket), ClientFrame::Hello { .. }));
        let mut attach = |socket: &mut TcpStream, want: u64| match read(socket) {
            ClientFrame::Attach { seq, session, .. } if session == want => seq,
            other => panic!("expected Attach of {want}, got {other:?}"),
        };
        let hello = ServerFrame::HelloAck {
            version: WIRE_VERSION,
            sessions: vec![1, 2, 3],
            quarantined: vec![],
        };
        write(&mut socket, hello);
        // `attach(1)`.
        let seq = attach(&mut socket, 1);
        write(&mut socket, idle(1, 10));
        write(&mut socket, ServerFrame::Ack { seq });
        // `attach_many(&[2, 3])`: both requests first, then the replies,
        // with events of the later attach ahead of the earlier Ack.
        let (seq2, seq3) = (attach(&mut socket, 2), attach(&mut socket, 3));
        write(&mut socket, idle(2, 20));
        write(&mut socket, idle(3, 30));
        write(&mut socket, ServerFrame::Ack { seq: seq2 });
        write(&mut socket, idle(3, 31));
        write(&mut socket, ServerFrame::Ack { seq: seq3 });
        // A refused attach: its event is not part of any stream.
        let seq4 = attach(&mut socket, 4);
        write(&mut socket, idle(4, 40));
        let refusal = ServerFrame::Error {
            seq: Some(seq4),
            message: "unknown session 4".to_owned(),
        };
        write(&mut socket, refusal);
        write(&mut socket, idle(1, 11));
    });

    let mut client = WireClient::connect(addr).expect("handshake");
    client.attach(1).expect("attach");
    client.attach_many(&[2, 3]).expect("attach_many");
    assert!(matches!(client.attach(4), Err(WireError::Remote(_))));
    assert_eq!(client.attached().collect::<Vec<_>>(), vec![1, 2, 3]);
    let mut seen = Vec::new();
    while let Ok(event) = client.next_event(WAIT) {
        match event {
            EngineEvent::Idle { session, now_ns } => seen.push((session, now_ns)),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(seen, vec![(1, 10), (2, 20), (3, 30), (3, 31), (1, 11)]);
    script.join().expect("scripted server");
}

/// A client attaching while a run is in flight receives the session's
/// stream from the subscription point on: the first delta starts no
/// later than the trace length when `attach` returned, and the deltas
/// run gapless from there to the end of the recorded trace.
#[test]
fn a_mid_run_attach_streams_from_its_subscription_point() {
    let server = Arc::new(DebugServer::start(ServerConfig {
        workers: 2,
        slice_ns: 250_000,
        ..ServerConfig::default()
    }));
    let wire = WireServer::start(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let handle = server.add_session(active_session(blinker_system("midrun", 0.002, 1_000_000)));
    let id = handle.id();
    let progress = handle.subscribe();
    handle.run_for(30_000_000_000).expect("post");
    // Attach only once the run has recorded something.
    while !matches!(
        progress.recv_timeout(WAIT).expect("in-process event"),
        EngineEvent::TraceDelta { .. }
    ) {}
    drop(progress);
    let mut client = WireClient::connect(wire.local_addr()).expect("handshake");
    // Unbounded: the stream is read only after the run, and must be lossless.
    client.attach_with_capacity(id, Some(0)).expect("attach");
    let attached_len = handle.stats(WAIT).expect("stats").trace_len as u64;
    handle.wait_idle(WAIT).expect("idle");
    let end = handle.stats(WAIT).expect("stats").trace_len as u64;
    assert!(end > attached_len, "the run must outlast the attach");

    let mut seqs: Vec<u64> = Vec::new();
    while let Ok(event) = client.next_event(Duration::from_secs(1)) {
        if let EngineEvent::TraceDelta { entries, .. } = event {
            seqs.extend(entries.iter().map(|entry| entry.seq));
        }
    }
    let first = *seqs.first().expect("the attach streams deltas");
    assert!(
        first <= attached_len,
        "first delta starts at {first}, past the trace length {attached_len} at attach"
    );
    assert_eq!(seqs, (first..end).collect::<Vec<_>>(), "gap or reorder");
}
