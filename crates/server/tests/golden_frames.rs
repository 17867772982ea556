//! Golden frames: the exact wire v6 and journal bytes.
//!
//! The command vocabulary's serde format is load-bearing twice over: it
//! is the wire protocol remote clients speak, and it is the on-disk
//! journal a restarted server replays. This suite pins both byte for
//! byte, so a change to how `SessionCommand` (or a reply envelope) is
//! serialized shows up here as a diff, not as a silent protocol or
//! journal-format break.
//!
//! * every `ClientFrame::Command` variant decodes from its golden JSON
//!   and re-encodes to the same bytes (and the state-changing ones
//!   encode to it from a literal);
//! * the reply envelopes `Ack`, `Snapshot`, `Trace`, `Seek` and `Error`
//!   encode to their golden JSON;
//! * a durable session's `journal.log` holds exactly the golden
//!   length-prefixed records.

mod common;

use common::blinker_system;
use gmdf::{ChannelMode, Workflow};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::SignalValue;
use gmdf_engine::EngineState;
use gmdf_gdm::{CommandMatcher, EventKind};
use gmdf_server::proto::{decode_payload, encode_frame, ClientFrame, ServerFrame};
use gmdf_server::{
    DebugServer, PersistConfig, SeekReport, ServerConfig, SessionCommand, SessionSnapshot,
    TraceSlice,
};
use gmdf_target::SimConfig;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

/// One `ClientFrame::Command` per `SessionCommand` variant, in
/// declaration order.
const COMMAND_FRAMES: [&str; 12] = [
    r#"{"Command":{"seq":1,"session":7,"command":{"ScheduleSignal":{"time_ns":1000000,"label":"lamp","value":{"Bool":true}}}}}"#,
    r#"{"Command":{"seq":2,"session":7,"command":{"AddBreakpoint":{"matcher":{"kind":"StateEnter","path_prefix":"Blinker/ctl"},"one_shot":true}}}}"#,
    r#"{"Command":{"seq":3,"session":7,"command":"ClearBreakpoints"}}"#,
    r#"{"Command":{"seq":4,"session":7,"command":"Step"}}"#,
    r#"{"Command":{"seq":5,"session":7,"command":"Resume"}}"#,
    r#"{"Command":{"seq":6,"session":7,"command":{"RunFor":{"duration_ns":2500000}}}}"#,
    r#"{"Command":{"seq":7,"session":7,"command":{"Snapshot":{"include_trace":true}}}}"#,
    r#"{"Command":{"seq":8,"session":7,"command":{"FetchRange":{"t0_ns":100,"t1_ns":200}}}}"#,
    r#"{"Command":{"seq":9,"session":7,"command":{"ReplayFrom":{"seq":64,"limit":0}}}}"#,
    r#"{"Command":{"seq":10,"session":7,"command":{"SeekTo":{"t_ns":3000000,"include_trace":false}}}}"#,
    r#"{"Command":{"seq":11,"session":7,"command":{"StepBack":{"entries":5,"include_trace":true}}}}"#,
    r#"{"Command":{"seq":12,"session":7,"command":{"ReplayWindow":{"t0_ns":10,"t1_ns":20}}}}"#,
];

fn json_of<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// The six state-changing commands, built from literals — the same
/// values the first six golden frames carry.
fn state_commands() -> Vec<SessionCommand> {
    vec![
        SessionCommand::ScheduleSignal {
            time_ns: 1_000_000,
            label: "lamp".to_owned(),
            value: SignalValue::Bool(true),
        },
        SessionCommand::AddBreakpoint {
            matcher: CommandMatcher::kind(EventKind::StateEnter).under("Blinker/ctl"),
            one_shot: true,
        },
        SessionCommand::ClearBreakpoints,
        SessionCommand::Step,
        SessionCommand::Resume,
        SessionCommand::RunFor {
            duration_ns: 2_500_000,
        },
    ]
}

#[test]
fn every_command_frame_round_trips_to_its_golden_bytes() {
    for golden in COMMAND_FRAMES {
        let frame: ClientFrame = decode_payload(golden.as_bytes())
            .unwrap_or_else(|e| panic!("golden frame does not decode: {e}\n{golden}"));
        let bytes = encode_frame(&frame).expect("encodes");
        assert_eq!(&bytes[..4], &(golden.len() as u32).to_be_bytes());
        assert_eq!(std::str::from_utf8(&bytes[4..]).unwrap(), golden);
    }
    for (i, command) in state_commands().into_iter().enumerate() {
        let frame = ClientFrame::Command {
            seq: i as u64 + 1,
            session: 7,
            command,
        };
        assert_eq!(json_of(&frame), COMMAND_FRAMES[i]);
    }
}

#[test]
fn reply_envelopes_encode_to_their_golden_bytes() {
    let snapshot = SessionSnapshot {
        session: 3,
        now_ns: 5_000_000,
        engine_state: EngineState::Paused,
        pending: 2,
        trace_len: 40,
        trace_json: None,
        events_fed: 41,
        violations: 1,
        breakpoint_hits: 2,
        lagged_drops: 0,
        remaining_ns: 7,
    };
    let slice = TraceSlice {
        session: 3,
        first_seq: 8,
        entries: Vec::new(),
        end_seq: 40,
        complete: false,
    };
    let report = SeekReport {
        session: 3,
        target_ns: 4_000_000,
        now_ns: 4_000_000,
        checkpoint_seq: Some(16),
        checkpoint_t_ns: Some(3_900_000),
        replayed_commands: 1,
        replayed_entries: 4,
        trace_len: 20,
        engine_state: EngineState::Waiting,
        trace_json: Some("[]".to_owned()),
    };
    let cases: [(ServerFrame, &str); 5] = [
        (ServerFrame::Ack { seq: 1 }, r#"{"Ack":{"seq":1}}"#),
        (
            ServerFrame::Snapshot { seq: 2, snapshot },
            r#"{"Snapshot":{"seq":2,"snapshot":{"session":3,"now_ns":5000000,"engine_state":"Paused","pending":2,"trace_len":40,"trace_json":null,"events_fed":41,"violations":1,"breakpoint_hits":2,"lagged_drops":0,"remaining_ns":7}}}"#,
        ),
        (
            ServerFrame::Trace { seq: 3, slice },
            r#"{"Trace":{"seq":3,"slice":{"session":3,"first_seq":8,"entries":[],"end_seq":40,"complete":false}}}"#,
        ),
        (
            ServerFrame::Seek {
                seq: 4,
                report: Box::new(report),
            },
            r#"{"Seek":{"seq":4,"report":{"session":3,"target_ns":4000000,"now_ns":4000000,"checkpoint_seq":16,"checkpoint_t_ns":3900000,"replayed_commands":1,"replayed_entries":4,"trace_len":20,"engine_state":"Waiting","trace_json":"[]"}}}"#,
        ),
        (
            ServerFrame::Error {
                seq: Some(5),
                message: "unknown session 9".to_owned(),
            },
            r#"{"Error":{"seq":5,"message":"unknown session 9"}}"#,
        ),
    ];
    for (frame, golden) in cases {
        assert_eq!(json_of(&frame), golden);
        let back: ServerFrame = decode_payload(golden.as_bytes()).expect("decodes");
        assert_eq!(json_of(&back), golden);
    }
}

/// A durable session journals each accepted state change as
/// `[u32 len BE][{"at_ns":…,"command":…}]`. With no run budget granted
/// until the last command, every record is stamped at `at_ns = 0`, so
/// the journal's bytes are fully determined by the commands.
#[test]
fn journal_records_match_their_golden_bytes() {
    let root = std::env::temp_dir().join(format!("gmdf-golden-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = Workflow::from_system(blinker_system("golden", 0.002, 1_000_000))
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
        );
    let server = DebugServer::start_persistent(
        ServerConfig::default(),
        PersistConfig::new(&root).with_checkpoint_interval(0),
    )
    .expect("persistent server");
    let handle = server.add_durable_session(&spec).expect("durable session");
    handle
        .schedule_signal(1_000_000, "lamp", SignalValue::Bool(true))
        .expect("post");
    handle
        .add_breakpoint(
            CommandMatcher::kind(EventKind::StateEnter).under("Blinker/ctl"),
            true,
        )
        .expect("post");
    handle.clear_breakpoints().expect("post");
    handle.step().expect("post");
    handle.resume().expect("post");
    handle.run_for(2_500_000).expect("post");
    handle.wait_idle(WAIT).expect("idle");
    let journal = root
        .join("sessions")
        .join(format!("{:016}", handle.id()))
        .join("journal.log");
    let bytes = std::fs::read(&journal).expect("journal written");
    drop(server);
    let _ = std::fs::remove_dir_all(&root);

    let mut golden: Vec<u8> = Vec::new();
    for record in [
        r#"{"at_ns":0,"command":{"ScheduleSignal":{"time_ns":1000000,"label":"lamp","value":{"Bool":true}}}}"#,
        r#"{"at_ns":0,"command":{"AddBreakpoint":{"matcher":{"kind":"StateEnter","path_prefix":"Blinker/ctl"},"one_shot":true}}}"#,
        r#"{"at_ns":0,"command":"ClearBreakpoints"}"#,
        r#"{"at_ns":0,"command":"Step"}"#,
        r#"{"at_ns":0,"command":"Resume"}"#,
        r#"{"at_ns":0,"command":{"RunFor":{"duration_ns":2500000}}}"#,
    ] {
        golden.extend_from_slice(&(record.len() as u32).to_be_bytes());
        golden.extend_from_slice(record.as_bytes());
    }
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&golden)
    );
    assert_eq!(bytes, golden);
}
