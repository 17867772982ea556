//! # gmdf-engine — the GMDF runtime engine
//!
//! "A runtime engine first takes a debug model as input and displays it
//! graphically … waits for commands sent by the target embedded code"
//! (paper §II). This crate provides:
//!
//! * [`DebuggerEngine`] — the event-driven machine: reactions, model-level
//!   breakpoints, step-wise execution;
//! * [`ExecutionTrace`] — the always-on execution record, over a
//!   pluggable [`TraceStore`] backend ([`MemStore`] by default, the
//!   segmented on-disk [`SegmentStore`] for traces that outlive the
//!   process — see [`store`]);
//! * [`Replayer`] / [`timing_diagram`] — the replay function with its
//!   timing diagram;
//! * [`Expectation`] monitors — requirement checks that turn inconsistent
//!   behaviour into found bugs;
//! * [`classify`] — the design-vs-implementation error differentiation the
//!   paper lists as future work, implemented here against the reference
//!   interpreter's event stream.
//!
//! ```
//! use gmdf_engine::DebuggerEngine;
//! use gmdf_gdm::{default_bindings, DebuggerModel, EventKind, GdmElement, GdmPattern,
//!                ModelEvent};
//! use gmdf_render::Rect;
//!
//! let mut gdm = DebuggerModel::new("demo");
//! gdm.bindings = default_bindings();
//! gdm.elements.push(GdmElement {
//!     path: "A/fsm/Run".into(),
//!     label: "Run".into(),
//!     metaclass: "State".into(),
//!     pattern: GdmPattern::Circle,
//!     parent: None,
//!     bounds: Rect::new(0.0, 0.0, 110.0, 46.0),
//! });
//! let mut engine = DebuggerEngine::new(gdm);
//! engine.feed(ModelEvent::new(10, EventKind::StateEnter, "A/fsm").with_to("Run"));
//! assert!(engine.visual()["A/fsm/Run"].highlighted);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod classify;
mod engine;
mod expect;
pub mod metrics;
mod replay;
pub mod store;
mod trace;

pub use classify::{classify, compare_behavior, BugClass, Divergence};
pub use engine::{
    apply_reaction, Breakpoint, DebuggerEngine, EngineCheckpoint, EngineNotice, EngineState,
    EngineStats, FeedOutcome,
};
pub use expect::{allowed_transitions, Expectation, ExpectationMonitor, Violation};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, RecentSeries, StoreMetrics};
pub use replay::{timing_diagram, Replayer};
pub use store::{
    checkpoint_stride, CheckpointMeta, CheckpointStore, Codec, MaintenanceReport, MemStore,
    Retention, SegmentConfig, SegmentStore, StoreError, StoreStats, TraceStore,
};
pub use trace::{ExecutionTrace, TraceEntry};
