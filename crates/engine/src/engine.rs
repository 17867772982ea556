//! The runtime debugger engine.
//!
//! "A runtime engine first takes a debug model as input and displays it
//! graphically. Next, the engine implemented as an event-driven state
//! machine, waits for commands sent by the target embedded code. Once an
//! event arrives, it performs corresponding actions (e.g. an animation)
//! and other graphical model debugger functionalities" (paper §II).
//!
//! The engine is normally **Waiting**; each command transits through
//! *Reacting* (bindings applied, trace recorded, expectations checked)
//! and back. A matched **model-level breakpoint** moves it to **Paused**:
//! further commands queue, and the user steps through them one at a time
//! ("model-level step-wise execution and breakpoint functionality").

use crate::expect::{Expectation, ExpectationMonitor, Violation};
use crate::trace::ExecutionTrace;
use gmdf_gdm::{
    render_ascii, render_gdm, render_svg, CommandMatcher, DebuggerModel, ModelEvent, ReactionSpec,
    VisualState,
};
use gmdf_render::Scene;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::mpsc;

/// Engine control state (the Fig. 3 machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineState {
    /// Listening for commands, reacting immediately.
    Waiting,
    /// Stopped at a breakpoint; commands queue until stepped/resumed.
    Paused,
}

/// A model-level breakpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breakpoint {
    /// Events that trigger the pause.
    pub matcher: CommandMatcher,
    /// Remove the breakpoint after the first hit.
    pub one_shot: bool,
}

/// Result of feeding one command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeedOutcome {
    /// `true` if the command was processed (false = queued while paused).
    pub processed: bool,
    /// `true` if a breakpoint was hit by this command.
    pub hit_breakpoint: bool,
    /// Number of expectation violations this command raised.
    pub violations: usize,
}

/// A per-command notification delivered to engine subscribers.
///
/// Subscribers learn *that* something happened and where it sits in the
/// trace; the full payload (event, reactions, violation messages) is read
/// incrementally via [`ExecutionTrace::entries_since`] with `seq` as the
/// cursor, so notices stay cheap to clone and send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineNotice {
    /// Trace sequence number of the processed command.
    pub seq: u64,
    /// The command's model time.
    pub time_ns: u64,
    /// Expectation violations this command raised.
    pub violations: usize,
    /// `true` if this command hit a breakpoint.
    pub hit_breakpoint: bool,
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Commands processed (not counting queued ones).
    pub events_processed: u64,
    /// Reactions applied.
    pub reactions_applied: u64,
    /// Breakpoint hits.
    pub breakpoint_hits: u64,
}

/// The graphical model debugger engine.
#[derive(Debug)]
pub struct DebuggerEngine {
    gdm: DebuggerModel,
    visual: VisualState,
    state: EngineState,
    breakpoints: Vec<Breakpoint>,
    monitors: Vec<ExpectationMonitor>,
    violations: Vec<Violation>,
    queue: VecDeque<ModelEvent>,
    trace: ExecutionTrace,
    stats: EngineStats,
    taps: Vec<mpsc::Sender<EngineNotice>>,
}

impl DebuggerEngine {
    /// Creates an engine displaying `gdm`, in the waiting state.
    pub fn new(gdm: DebuggerModel) -> Self {
        DebuggerEngine {
            gdm,
            visual: VisualState::new(),
            state: EngineState::Waiting,
            breakpoints: Vec::new(),
            monitors: Vec::new(),
            violations: Vec::new(),
            queue: VecDeque::new(),
            trace: ExecutionTrace::new(),
            stats: EngineStats::default(),
            taps: Vec::new(),
        }
    }

    /// The debug model being animated.
    pub fn gdm(&self) -> &DebuggerModel {
        &self.gdm
    }

    /// Current control state.
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// Current animation state.
    pub fn visual(&self) -> &VisualState {
        &self.visual
    }

    /// The recorded trace.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Replaces the trace backend ([`crate::store::TraceStore`]) —
    /// e.g. a segmented on-disk store for a trace that must survive
    /// the process. Attaching a non-empty store puts the trace in
    /// deterministic catch-up mode: re-fed commands that are already
    /// persisted are dropped instead of duplicated, which is how a
    /// restored session replays to its saved point. Intended to be
    /// called before the first command; entries already recorded into
    /// the previous backend are not migrated.
    pub fn set_trace_store(&mut self, store: Box<dyn crate::store::TraceStore>) {
        self.trace = ExecutionTrace::with_store(store);
    }

    /// Attaches a metrics sink on the trace: store appends and range
    /// reads are timed into it from now on. Call *after* any
    /// [`DebuggerEngine::set_trace_store`] — replacing the backend
    /// builds a fresh trace without a sink.
    pub fn set_trace_metrics(&mut self, metrics: std::sync::Arc<crate::metrics::StoreMetrics>) {
        self.trace.set_metrics(metrics);
    }

    /// Flushes the trace's backing store and surfaces any sticky
    /// storage failure — the debug server calls this after every
    /// pumped slice so a disk problem fails the session visibly
    /// instead of silently shortening the record.
    ///
    /// # Errors
    ///
    /// Propagates the store failure.
    pub fn sync_trace(&mut self) -> Result<(), crate::store::StoreError> {
        self.trace.sync()
    }

    /// Runs one bounded unit of trace-store maintenance (segment
    /// compression / retention eviction) — what the debug server's
    /// compactor thread calls off the pump path. A no-op on stores
    /// without a retention policy.
    ///
    /// # Errors
    ///
    /// Propagates the store failure.
    pub fn maintain_trace(
        &mut self,
    ) -> Result<crate::store::MaintenanceReport, crate::store::StoreError> {
        self.trace.maintain()
    }

    /// Pins the trace store's retention floor (entries with
    /// `seq >= floor` may no longer be evicted) — see
    /// [`crate::store::TraceStore::set_retain_floor`].
    pub fn set_trace_retain_floor(&mut self, floor: u64) {
        self.trace.set_retain_floor(floor);
    }

    /// Violations recorded so far — the found bugs.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of commands waiting while paused.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Subscribes to per-command notifications. Every *processed* command
    /// (queued ones notify when stepped/resumed through) produces one
    /// [`EngineNotice`] on the returned receiver. Disconnected
    /// subscribers are pruned on the next notification; subscriptions
    /// never block command processing.
    pub fn subscribe(&mut self) -> mpsc::Receiver<EngineNotice> {
        let (tx, rx) = mpsc::channel();
        self.taps.push(tx);
        rx
    }

    /// Number of live notification subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.taps.len()
    }

    /// Installs a model-level breakpoint.
    pub fn add_breakpoint(&mut self, matcher: CommandMatcher, one_shot: bool) {
        self.breakpoints.push(Breakpoint { matcher, one_shot });
    }

    /// Removes all breakpoints.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
    }

    /// Installs an expectation monitor.
    pub fn add_expectation(&mut self, e: Expectation) {
        self.monitors.push(ExpectationMonitor::new(e));
    }

    /// Feeds one command from the target. While paused, commands queue
    /// (the embedded system keeps running; the *view* is frozen).
    pub fn feed(&mut self, event: ModelEvent) -> FeedOutcome {
        if self.state == EngineState::Paused {
            self.queue.push_back(event);
            return FeedOutcome::default();
        }
        self.process(event)
    }

    /// While paused: processes exactly one queued command ("step-wise
    /// execution"). Returns `None` if nothing is queued or not paused.
    pub fn step(&mut self) -> Option<FeedOutcome> {
        if self.state != EngineState::Paused {
            return None;
        }
        let event = self.queue.pop_front()?;
        // A step processes even if it would re-hit a breakpoint; the
        // engine stays paused either way.
        let outcome = self.process_inner(event, false);
        Some(outcome)
    }

    /// Resumes: drains the queue until empty or a breakpoint hits again,
    /// then returns to waiting if fully drained.
    pub fn resume(&mut self) -> Vec<FeedOutcome> {
        let mut outcomes = Vec::new();
        self.state = EngineState::Waiting;
        while let Some(event) = self.queue.pop_front() {
            let o = self.process_inner(event, true);
            let hit = o.hit_breakpoint;
            outcomes.push(o);
            if hit {
                return outcomes;
            }
        }
        outcomes
    }

    fn process(&mut self, event: ModelEvent) -> FeedOutcome {
        self.process_inner(event, true)
    }

    fn process_inner(&mut self, event: ModelEvent, honor_breakpoints: bool) -> FeedOutcome {
        let mut reactions = Vec::new();
        for binding in &self.gdm.bindings {
            if binding.matcher.matches(&event) {
                apply_reaction(&self.gdm, &mut self.visual, binding.reaction, &event);
                reactions.push(binding.reaction);
            }
        }
        let mut violation_msgs = Vec::new();
        for m in &mut self.monitors {
            if let Some(v) = m.check(&event) {
                violation_msgs.push(v.to_string());
                self.violations.push(v);
            }
        }
        let mut hit = false;
        if honor_breakpoints {
            let mut fired: Option<usize> = None;
            for (i, bp) in self.breakpoints.iter().enumerate() {
                if bp.matcher.matches(&event) {
                    fired = Some(i);
                    break;
                }
            }
            if let Some(i) = fired {
                hit = true;
                self.stats.breakpoint_hits += 1;
                self.state = EngineState::Paused;
                if self.breakpoints[i].one_shot {
                    self.breakpoints.remove(i);
                }
            }
        }
        self.stats.events_processed += 1;
        self.stats.reactions_applied += reactions.len() as u64;
        let violations = violation_msgs.len();
        let time_ns = event.time_ns;
        let seq = self.trace.record(event, reactions, violation_msgs);
        if !self.taps.is_empty() {
            let notice = EngineNotice {
                seq,
                time_ns,
                violations,
                hit_breakpoint: hit,
            };
            self.taps.retain(|tap| tap.send(notice).is_ok());
        }
        FeedOutcome {
            processed: true,
            hit_breakpoint: hit,
            violations,
        }
    }

    /// Replaces the trace backend in **resume** mode: the trace's next
    /// sequence number continues from `store.len()` instead of starting
    /// at zero with deterministic catch-up. This is what a time-travel
    /// replica uses after restoring a checkpoint — re-generated commands
    /// append at the checkpoint boundary rather than being dropped
    /// against an already-persisted prefix.
    pub fn resume_trace_store(&mut self, store: Box<dyn crate::store::TraceStore>) {
        self.trace = ExecutionTrace::resume_with_store(store);
    }

    /// Captures the engine's dynamic state for a checkpoint: animation
    /// state, control state, breakpoints, expectation-monitor cursors,
    /// recorded violations, the paused-command queue and the counters.
    /// The debug model and the trace are not included — the model is
    /// configuration (rebuilt from the spec) and the trace has its own
    /// store.
    pub fn save_state(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            visual: self.visual.clone(),
            state: self.state,
            breakpoints: self.breakpoints.clone(),
            monitors: self.monitors.clone(),
            violations: self.violations.clone(),
            queue: self.queue.clone(),
            stats: self.stats,
        }
    }

    /// Restores a checkpointed engine state (see
    /// [`DebuggerEngine::save_state`]). The trace backend is untouched —
    /// pair with [`DebuggerEngine::resume_trace_store`] /
    /// [`DebuggerEngine::set_trace_store`] as the restore path requires.
    pub fn restore_state(&mut self, state: &EngineCheckpoint) {
        self.visual = state.visual.clone();
        self.state = state.state;
        self.breakpoints = state.breakpoints.clone();
        self.monitors = state.monitors.clone();
        self.violations = state.violations.clone();
        self.queue = state.queue.clone();
        self.stats = state.stats;
    }

    /// Renders the current animation frame as a scene.
    pub fn frame(&self) -> Scene {
        render_gdm(&self.gdm, &self.visual)
    }

    /// Renders the current frame as SVG.
    pub fn frame_svg(&self) -> String {
        render_svg(&self.gdm, &self.visual)
    }

    /// Renders the current frame as ASCII art.
    pub fn frame_ascii(&self) -> String {
        render_ascii(&self.gdm, &self.visual)
    }
}

/// Serializable dynamic state of a [`DebuggerEngine`] — the
/// engine-side half of a session checkpoint. Captures everything that
/// influences future trace entries (paused queue, breakpoints, monitor
/// cursors) plus the presentation state, so a restored engine is
/// indistinguishable from one that never stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    visual: VisualState,
    state: EngineState,
    breakpoints: Vec<Breakpoint>,
    monitors: Vec<ExpectationMonitor>,
    violations: Vec<Violation>,
    queue: VecDeque<ModelEvent>,
    stats: EngineStats,
}

/// Applies one reaction to the animation state — shared by the live
/// engine and the replayer so replays look identical.
pub fn apply_reaction(
    gdm: &DebuggerModel,
    visual: &mut VisualState,
    reaction: ReactionSpec,
    event: &ModelEvent,
) {
    match reaction {
        ReactionSpec::HighlightTarget | ReactionSpec::HighlightSelf => {
            let target = if reaction == ReactionSpec::HighlightTarget {
                event.target_path().unwrap_or_else(|| event.path.clone())
            } else {
                event.path.clone()
            };
            if gdm.element(&target).is_none() {
                return;
            }
            visual.entry(target.clone()).or_default().highlighted = true;
            visual.get_mut(&target).expect("just inserted").dimmed = false;
            for sibling in gdm.siblings(&target) {
                let v = visual.entry(sibling.to_owned()).or_default();
                v.highlighted = false;
                v.dimmed = true;
            }
        }
        ReactionSpec::ShowValue => {
            if let Some(v) = event.value {
                if gdm.element(&event.path).is_some() {
                    visual.entry(event.path.clone()).or_default().value_text = Some(v.to_string());
                }
            }
        }
        ReactionSpec::Pulse => {
            if gdm.element(&event.path).is_some() {
                let e = visual.entry(event.path.clone()).or_default();
                e.pulses = e.pulses.saturating_add(1);
            }
        }
        ReactionSpec::RecordOnly => {}
    }
    // Touch the map so a visual exists for the event path even for
    // record-only events (keeps replay deterministic).
    let _ = visual.entry(event.path.clone()).or_default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmdf_gdm::{default_bindings, EventKind, EventValue, GdmEdge, GdmElement, GdmPattern};
    use gmdf_render::Rect;

    fn sample_gdm() -> DebuggerModel {
        let mut m = DebuggerModel::new("demo");
        m.bindings = default_bindings();
        m.elements.push(GdmElement {
            path: "A".into(),
            label: "A".into(),
            metaclass: "Actor".into(),
            pattern: GdmPattern::Rectangle,
            parent: None,
            bounds: Rect::new(0.0, 0.0, 500.0, 300.0),
        });
        m.elements.push(GdmElement {
            path: "A/fsm".into(),
            label: "fsm".into(),
            metaclass: "StateMachineBlock".into(),
            pattern: GdmPattern::RoundedRectangle,
            parent: Some(0),
            bounds: Rect::new(20.0, 40.0, 440.0, 220.0),
        });
        for (i, s) in ["Idle", "Run", "Error"].iter().enumerate() {
            m.elements.push(GdmElement {
                path: format!("A/fsm/{s}"),
                label: (*s).into(),
                metaclass: "State".into(),
                pattern: GdmPattern::Circle,
                parent: Some(1),
                bounds: Rect::new(40.0 + 140.0 * i as f64, 80.0, 110.0, 46.0),
            });
        }
        m.edges.push(GdmEdge {
            from: "A/fsm/Idle".into(),
            to: "A/fsm/Run".into(),
            label: None,
            metaclass: "Transition".into(),
        });
        m
    }

    fn enter(t: u64, to: &str) -> ModelEvent {
        ModelEvent::new(t, EventKind::StateEnter, "A/fsm")
            .with_from("Idle")
            .with_to(to)
    }

    #[test]
    fn highlight_moves_with_state_entries() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.feed(enter(10, "Run"));
        assert!(e.visual()["A/fsm/Run"].highlighted);
        e.feed(enter(20, "Error"));
        assert!(e.visual()["A/fsm/Error"].highlighted);
        assert!(!e.visual()["A/fsm/Run"].highlighted);
        assert!(e.visual()["A/fsm/Run"].dimmed);
        assert_eq!(e.stats().events_processed, 2);
        assert_eq!(e.trace().len(), 2);
    }

    #[test]
    fn show_value_updates_label() {
        let mut gdm = sample_gdm();
        gdm.elements.push(GdmElement {
            path: "A/out/u".into(),
            label: "u".into(),
            metaclass: "SignalPort".into(),
            pattern: GdmPattern::Triangle,
            parent: Some(0),
            bounds: Rect::new(40.0, 200.0, 110.0, 46.0),
        });
        let mut e = DebuggerEngine::new(gdm);
        e.feed(
            ModelEvent::new(5, EventKind::SignalWrite, "A/out/u").with_value(EventValue::Real(2.5)),
        );
        assert_eq!(
            e.visual()["A/out/u"].value_text.as_deref(),
            Some("2.500000")
        );
        let svg = e.frame_svg();
        assert!(svg.contains("u = 2.5"));
    }

    #[test]
    fn breakpoint_pauses_and_queues() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(
            CommandMatcher::kind(EventKind::StateEnter).under("A/fsm"),
            false,
        );
        let o = e.feed(enter(1, "Run"));
        assert!(o.processed && o.hit_breakpoint);
        assert_eq!(e.state(), EngineState::Paused);
        // Further commands queue; the view is frozen on Run.
        let o2 = e.feed(enter(2, "Error"));
        assert!(!o2.processed);
        assert_eq!(e.pending(), 1);
        assert!(e.visual()["A/fsm/Run"].highlighted);
        // Error was dimmed as a sibling but NOT highlighted — the queued
        // command has not been applied.
        assert!(!e.visual()["A/fsm/Error"].highlighted);
    }

    #[test]
    fn step_processes_one_queued_command() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), false);
        e.feed(enter(1, "Run"));
        e.feed(enter(2, "Error"));
        e.feed(enter(3, "Idle"));
        assert_eq!(e.pending(), 2);
        let o = e.step().unwrap();
        assert!(o.processed);
        assert_eq!(e.pending(), 1);
        assert!(e.visual()["A/fsm/Error"].highlighted);
        assert_eq!(e.state(), EngineState::Paused); // stepping keeps it paused
    }

    #[test]
    fn resume_drains_until_next_breakpoint() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(
            CommandMatcher::kind(EventKind::StateEnter).under("A/fsm"),
            false,
        );
        e.feed(enter(1, "Run")); // pauses
        e.feed(enter(2, "Error"));
        e.feed(enter(3, "Idle"));
        let outcomes = e.resume();
        // First queued command re-hits the breakpoint immediately.
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].hit_breakpoint);
        assert_eq!(e.state(), EngineState::Paused);
        assert_eq!(e.pending(), 1);
        // Without breakpoints, resume drains fully.
        e.clear_breakpoints();
        let outcomes = e.resume();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(e.state(), EngineState::Waiting);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn one_shot_breakpoint_fires_once() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), true);
        assert!(e.feed(enter(1, "Run")).hit_breakpoint);
        e.resume();
        assert!(!e.feed(enter(2, "Error")).hit_breakpoint);
        assert_eq!(e.stats().breakpoint_hits, 1);
    }

    #[test]
    fn expectations_record_violations() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.add_expectation(Expectation::AllowedTransitions {
            fsm_path: "A/fsm".into(),
            allowed: [("Idle".to_owned(), "Run".to_owned())]
                .into_iter()
                .collect(),
        });
        assert_eq!(e.feed(enter(1, "Run")).violations, 0);
        let o = e.feed(enter(2, "Error"));
        assert_eq!(o.violations, 1);
        assert_eq!(e.violations().len(), 1);
        assert!(e.trace().entries()[1].violations[0].contains("not in the model"));
    }

    #[test]
    fn frame_renders_current_animation() {
        let mut e = DebuggerEngine::new(sample_gdm());
        e.feed(enter(1, "Run"));
        let art = e.frame_ascii();
        assert!(art.contains("Run"));
        let scene = e.frame();
        assert!(scene.find("A/fsm/Run").is_some());
    }

    #[test]
    fn subscribers_see_processed_commands_only() {
        let mut e = DebuggerEngine::new(sample_gdm());
        let rx = e.subscribe();
        e.add_breakpoint(CommandMatcher::kind(EventKind::StateEnter), false);
        e.feed(enter(1, "Run")); // processed, hits breakpoint
        e.feed(enter(2, "Error")); // queued while paused — no notice yet
        let n1 = rx.try_recv().unwrap();
        assert_eq!(n1.seq, 0);
        assert_eq!(n1.time_ns, 1);
        assert!(n1.hit_breakpoint);
        assert!(rx.try_recv().is_err());
        // Stepping through the queued command notifies it.
        e.step().unwrap();
        let n2 = rx.try_recv().unwrap();
        assert_eq!(n2.seq, 1);
        assert!(!n2.hit_breakpoint); // steps don't honor breakpoints
                                     // The notice cursor addresses the trace delta.
        assert_eq!(e.trace().entries_since(n2.seq).len(), 1);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let mut e = DebuggerEngine::new(sample_gdm());
        let rx = e.subscribe();
        let _rx2 = e.subscribe();
        assert_eq!(e.subscriber_count(), 2);
        drop(rx);
        e.feed(enter(1, "Run"));
        assert_eq!(e.subscriber_count(), 1);
    }

    #[test]
    fn unknown_target_paths_are_tolerated() {
        let mut e = DebuggerEngine::new(sample_gdm());
        let o = e.feed(ModelEvent::new(1, EventKind::StateEnter, "Ghost/fsm").with_to("Nowhere"));
        assert!(o.processed);
        assert!(!e.visual().contains_key("Ghost/fsm/Nowhere"));
    }
}
